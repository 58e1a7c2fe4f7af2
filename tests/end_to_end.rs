//! Cross-crate integration: full-system runs under every scheme, checking
//! the accounting invariants that tie the substrate, the policies and the
//! wear model together.

use renuca::prelude::*;

fn run_scheme(scheme: Scheme, cfg: SystemConfig, wl_id: usize, instr: u64) -> SimResult {
    let wl = workload_mix(wl_id, cfg.n_cores);
    let mut sys = System::new(
        cfg,
        scheme.build_policy(&cfg),
        wl.build_sources(),
        scheme.build_predictors(&cfg, CptConfig::default()),
    );
    sys.prewarm();
    sys.warmup(instr / 4);
    sys.run(instr);
    sys.result()
}

#[test]
fn every_scheme_completes_and_accounts_writes() {
    let cfg = SystemConfig::small(4);
    for scheme in Scheme::ALL {
        let r = run_scheme(scheme, cfg, 1, 20_000);
        assert_eq!(r.scheme, scheme.name());
        // Every core committed its budget.
        for c in &r.per_core {
            assert_eq!(c.committed, 20_000, "{}/{}", scheme.name(), c.label);
            assert!(c.ipc > 0.0 && c.ipc <= cfg.commit_width as f64);
        }
        // The wear tracker and the hierarchy agree on every L3 write.
        assert_eq!(
            r.wear.total_writes(),
            r.hierarchy.l3_writes.get(),
            "{}: wear vs hierarchy write accounting",
            scheme.name()
        );
        // Writes decompose into fills + writebacks.
        let fills = r.hierarchy.l3_fills.get();
        assert!(fills <= r.hierarchy.l3_writes.get());
        // Bank totals sum to the global total.
        assert_eq!(
            r.bank_writes.iter().sum::<u64>(),
            r.wear.total_writes(),
            "{}: bank totals",
            scheme.name()
        );
    }
}

#[test]
fn simulation_is_deterministic() {
    let cfg = SystemConfig::small(4);
    let a = run_scheme(Scheme::ReNuca, cfg, 2, 15_000);
    let b = run_scheme(Scheme::ReNuca, cfg, 2, 15_000);
    assert_eq!(a.cycles, b.cycles, "cycle counts must be identical");
    assert_eq!(a.bank_writes, b.bank_writes, "wear must be identical");
    for (x, y) in a.per_core.iter().zip(b.per_core.iter()) {
        assert_eq!(x.committed, y.committed);
        assert_eq!(x.mem_stats.l3_misses, y.mem_stats.l3_misses);
        assert_eq!(x.mem_stats.l2_writebacks, y.mem_stats.l2_writebacks);
    }
}

#[test]
fn different_workloads_differ() {
    let cfg = SystemConfig::small(4);
    let a = run_scheme(Scheme::SNuca, cfg, 1, 15_000);
    let b = run_scheme(Scheme::SNuca, cfg, 2, 15_000);
    assert_ne!(
        a.bank_writes, b.bank_writes,
        "distinct workloads must produce distinct wear"
    );
}

#[test]
fn lifetime_extrapolation_is_consistent_with_wear() {
    let cfg = SystemConfig::small(4);
    let r = run_scheme(Scheme::Private, cfg, 1, 20_000);
    let model = LifetimeModel::default();
    let lifetimes = model.all_bank_lifetimes(&r.wear, r.cycles);
    assert_eq!(lifetimes.len(), cfg.n_banks);
    // More-written banks must have shorter (or equal, if capped) lifetimes.
    for i in 0..cfg.n_banks {
        for j in 0..cfg.n_banks {
            if r.bank_writes[i] > r.bank_writes[j] && lifetimes[j] < model.cap_years {
                assert!(
                    lifetimes[i] <= lifetimes[j] + 1e-9,
                    "bank {i} ({} writes, {:.2}y) vs bank {j} ({} writes, {:.2}y)",
                    r.bank_writes[i],
                    lifetimes[i],
                    r.bank_writes[j],
                    lifetimes[j]
                );
            }
        }
    }
}

#[test]
fn warmup_separates_measurement_from_cold_start() {
    let cfg = SystemConfig::small(4);
    let wl = workload_mix(1, cfg.n_cores);
    let mut sys = System::new(
        cfg,
        Scheme::SNuca.build_policy(&cfg),
        wl.build_sources(),
        Scheme::SNuca.build_predictors(&cfg, CptConfig::default()),
    );
    sys.prewarm();
    sys.warmup(10_000);
    // After the warm-up reset, no writes are recorded yet.
    assert_eq!(sys.mem.wear.total_writes(), 0);
    sys.run(10_000);
    let r = sys.result();
    assert!(r.wear.total_writes() > 0, "measurement must record wear");
    assert!(r.cycles > 0);
}

#[test]
fn sixteen_core_paper_machine_smoke() {
    // One short run on the real Table I machine exercises the 4x4 mesh,
    // all 16 banks and the full workload mix.
    let cfg = SystemConfig::default();
    let r = run_scheme(Scheme::ReNuca, cfg, 1, 5_000);
    assert_eq!(r.per_core.len(), 16);
    assert_eq!(r.bank_writes.len(), 16);
    assert!(r.total_ipc() > 1.0);
}

#[test]
fn mac_replacement_moves_a_run_that_evicts_dirty_l3_lines() {
    // MAC is S-NUCA placement with write-aware L3 victim choice, so it can
    // only differ from S-NUCA once a set evicts a dirty line. Short windows
    // on the 16-core machine never do; 1 MB banks under the heaviest
    // write-burst mix, WB4, do within 100 k + 100 k instructions per core.
    use renuca::experiments::run_workload;
    let cfg = SystemConfig::small(4).with_l3_1m();
    let wl = workload_mix(workloads::WBURST_ID_BASE + 4, cfg.n_cores);
    let budget = Budget {
        warmup: 100_000,
        measure: 100_000,
    };
    let run = |s: Scheme| {
        let r = run_workload(&wl, s, cfg, CptConfig::default(), budget);
        let dirty: u64 = r.l3_banks.iter().map(|b| b.dirty_evictions.get()).sum();
        (dirty, r.total_ipc())
    };
    let (snuca, mac) = (run(Scheme::SNuca), run(Scheme::Mac));
    assert!(snuca.0 > 0, "S-NUCA evicts no dirty L3 line: {snuca:?}");
    assert_ne!(snuca, mac, "MAC's (dirty L3 evictions, IPC) equal S-NUCA's");
}

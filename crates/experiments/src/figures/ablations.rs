//! Ablation studies beyond the paper's own evaluation (DESIGN.md §7).
//!
//! Each ablation isolates one design choice the paper makes (or leaves
//! implicit) and quantifies it end-to-end:
//!
//! 1. **Criticality threshold, end-to-end** — the paper sweeps x only
//!    through the predictor (Figures 7–9); here the sweep reaches lifetime
//!    and IPC. Higher thresholds → fewer critical lines → more spreading →
//!    longer lifetime, at a growing latency cost.
//! 2. **CPT capacity** — prediction quality under PC aliasing (the paper
//!    never sizes the table).
//! 3. **Intra-bank leveling composition** — §VI claims i2wap-style
//!    inter-set leveling is orthogonal and composable; measured here under
//!    the pessimistic max-slot lifetime model.
//! 4. **Naive directory latency** — how the oracle's practicality collapses
//!    as its directory gets slower.
//! 5. **MBV vs two-probe lookup** — the enhanced TLB's value: same policy
//!    without residency bits must probe two banks.
//! 6. **Prefetcher** — the reproduction's main added substrate; its effect
//!    on the criticality mix and on Re-NUCA's lifetime gain.

use cmp_sim::config::SystemConfig;
use cmp_sim::system::SimResult;
use renuca_core::{CptConfig, ReNucaTwoProbe, Scheme};
use sim_stats::{percent_change, Table};
use wear_model::{lifetime_variation, IntraBankWear, LifetimeModel};
use workloads::{workload_mix, WorkloadMix};

use crate::budget::Budget;
use crate::runner::{aggregate_study, lifetime_model, run_app, run_workload, simulate};

/// Workload subset used by the ablations (a high-, a mixed- and a
/// low-pressure mix); full sweeps belong to the main figures.
const ABLATION_WLS: [usize; 3] = [1, 2, 5];

fn run_wls(scheme: Scheme, cfg: SystemConfig, cpt: CptConfig, budget: Budget) -> Vec<SimResult> {
    ABLATION_WLS
        .iter()
        .map(|&id| {
            let wl = workload_mix(id, cfg.n_cores);
            run_workload(&wl, scheme, cfg, cpt, budget)
        })
        .collect()
}

/// Ablation 1: the criticality threshold's end-to-end lifetime/IPC trade.
pub fn threshold_end_to_end(budget: Budget) -> String {
    let cfg = SystemConfig::default();
    let model = lifetime_model(&cfg);
    let mut t = Table::new(&[
        "x [%]",
        "raw-min life [y]",
        "wear CV",
        "IPC",
        "ΔIPC vs x=3 [%]",
    ]);
    let mut base_ipc = None;
    for x in [3.0, 10.0, 33.0, 100.0] {
        let results = run_wls(Scheme::ReNuca, cfg, CptConfig::with_threshold(x), budget);
        let st = aggregate_study(Scheme::ReNuca, &results, &model);
        let (min_life, ipc) = (st.raw_min, st.mean_ipc());
        // "wear CV" averages each workload's bank-lifetime CV; the
        // study's `variation` is the CV of the cross-workload hmeans.
        let cvs: Vec<f64> = st
            .per_wl_bank_lifetimes
            .iter()
            .map(|l| lifetime_variation(l))
            .collect();
        let var = sim_stats::amean(&cvs);
        let base = *base_ipc.get_or_insert(ipc);
        t.row(&[
            format!("{x}"),
            format!("{min_life:.2}"),
            format!("{var:.3}"),
            format!("{ipc:.2}"),
            format!("{:+.2}", percent_change(ipc, base)),
        ]);
    }
    format!(
        "Ablation 1 — criticality threshold, end-to-end (Re-NUCA, WLs {ABLATION_WLS:?})\n{}",
        t.render()
    )
}

/// Ablation 2: CPT capacity vs prediction quality.
pub fn cpt_capacity(budget: Budget) -> String {
    let apps = ["mcf", "lbm", "omnetpp", "bzip2"];
    let mut t = Table::new(&["entries", "avg recall [%]", "avg accuracy [%]"]);
    for entries in [64usize, 256, 1024, 8192] {
        let mut recalls = Vec::new();
        let mut accs = Vec::new();
        for name in apps {
            let spec = workloads::app_by_name(name).expect("app");
            let cpt = CptConfig {
                entries,
                ..CptConfig::default()
            };
            let r = run_app(spec, cpt, budget);
            let cs = r.per_core[0].core_stats;
            recalls.push(cs.critical_recall() * 100.0);
            accs.push(cs.prediction_accuracy() * 100.0);
        }
        t.row(&[
            format!("{entries}"),
            format!("{:.1}", sim_stats::amean(&recalls)),
            format!("{:.1}", sim_stats::amean(&accs)),
        ]);
    }
    format!(
        "Ablation 2 — CPT capacity (apps {apps:?}; smaller tables alias PCs)\n{}",
        t.render()
    )
}

/// Ablation 3: composing Re-NUCA with i2wap-style intra-bank leveling,
/// evaluated under the pessimistic max-slot lifetime model (where intra-bank
/// variation actually shows).
pub fn intra_bank_composition(budget: Budget) -> String {
    let mut t = Table::new(&["scheme", "rotation", "raw-min life [y] (max-slot)", "IPC"]);
    for scheme in [Scheme::ReNuca, Scheme::RNuca] {
        // The rotation period is scaled to the measured window: a real
        // deployment rotates every few hundred thousand writes; at our
        // window lengths each bank absorbs a few thousand, so the period
        // is chosen to give several rotations per bank per run.
        for rotation in [None, Some(2_000)] {
            let mut cfg = SystemConfig::default();
            cfg.intra_bank_rotation_writes = rotation;
            let model = LifetimeModel {
                intra_bank: IntraBankWear::MaxSlot,
                ..lifetime_model(&cfg)
            };
            let results = run_wls(scheme, cfg, CptConfig::default(), budget);
            let st = aggregate_study(scheme, &results, &model);
            t.row(&[
                scheme.name().to_owned(),
                rotation.map_or("off".into(), |w| format!("every {w} writes")),
                format!("{:.2}", st.raw_min),
                format!("{:.2}", st.mean_ipc()),
            ]);
        }
    }
    format!(
        "Ablation 3 — intra-bank set rotation composed with NUCA placement (§VI)\n{}",
        t.render()
    )
}

/// Ablation 4: the Naive oracle's directory latency.
pub fn naive_latency(budget: Budget) -> String {
    let base_cfg = SystemConfig::default();
    let snuca = run_wls(Scheme::SNuca, base_cfg, CptConfig::default(), budget);
    let snuca_ipc: f64 = snuca.iter().map(SimResult::total_ipc).sum::<f64>() / snuca.len() as f64;
    let mut t = Table::new(&["dir latency [cyc]", "IPC", "vs S-NUCA [%]"]);
    for lat in [0u64, 60, 150, 300] {
        let mut cfg = base_cfg;
        cfg.naive_dir_latency = lat;
        let results = run_wls(Scheme::Naive, cfg, CptConfig::default(), budget);
        let ipc: f64 = results.iter().map(SimResult::total_ipc).sum::<f64>() / results.len() as f64;
        t.row(&[
            format!("{lat}"),
            format!("{ipc:.2}"),
            format!("{:+.1}", percent_change(ipc, snuca_ipc)),
        ]);
    }
    format!(
        "Ablation 4 — Naive oracle directory latency (paper: ~-21% at its design point)\n{}",
        t.render()
    )
}

/// Ablation 5: the enhanced TLB's value — MBV routing vs two-probe search.
pub fn mbv_vs_two_probe(budget: Budget) -> String {
    let cfg = SystemConfig::default();
    let cpt = CptConfig::default();
    let mut t = Table::new(&["lookup", "IPC", "2nd probes", "2nd-probe hits"]);

    let mbv = run_wls(Scheme::ReNuca, cfg, cpt, budget);
    let mbv_ipc: f64 = mbv.iter().map(SimResult::total_ipc).sum::<f64>() / mbv.len() as f64;
    t.row(&[
        "MBV (enhanced TLB)".into(),
        format!("{mbv_ipc:.2}"),
        "0".into(),
        "0".into(),
    ]);

    let mut probes = 0;
    let mut hits = 0;
    let mut ipc = 0.0;
    for &id in &ABLATION_WLS {
        let wl: WorkloadMix = workload_mix(id, cfg.n_cores);
        let policy = Box::new(ReNucaTwoProbe::new(cfg.noc.cols, cfg.noc.rows));
        let predictors = Scheme::ReNuca.build_predictors(&cfg, cpt);
        let r = simulate(cfg, policy, predictors, wl.build_sources(), budget);
        probes += r.hierarchy.secondary_probes.get();
        hits += r.hierarchy.secondary_hits.get();
        ipc += r.total_ipc();
    }
    ipc /= ABLATION_WLS.len() as f64;
    t.row(&[
        "two-probe (no MBV)".into(),
        format!("{ipc:.2}"),
        format!("{probes}"),
        format!("{hits}"),
    ]);
    format!(
        "Ablation 5 — Mapping Bit Vector vs residency-state-free two-probe lookup (§IV.C)\n{}\n\
         MBV IPC advantage: {:+.2}%\n",
        t.render(),
        percent_change(mbv_ipc, ipc)
    )
}

/// Ablation 6: the stride prefetcher's role in the criticality mix and in
/// Re-NUCA's lifetime gain over R-NUCA.
pub fn prefetcher_ablation(budget: Budget) -> String {
    let mut t = Table::new(&[
        "prefetcher",
        "noncrit fills [%]",
        "Re-NUCA min life [y]",
        "R-NUCA min life [y]",
        "gain [%]",
    ]);
    for enabled in [true, false] {
        let mut cfg = SystemConfig::default();
        if !enabled {
            cfg.prefetch.streams = 0;
        }
        let model = lifetime_model(&cfg);
        let re = run_wls(Scheme::ReNuca, cfg, CptConfig::default(), budget);
        let rn = run_wls(Scheme::RNuca, cfg, CptConfig::default(), budget);
        let re_min = aggregate_study(Scheme::ReNuca, &re, &model).raw_min;
        let rn_min = aggregate_study(Scheme::RNuca, &rn, &model).raw_min;
        let fills: u64 = re.iter().map(|r| r.hierarchy.l3_fills.get()).sum();
        let noncrit: u64 = re
            .iter()
            .map(|r| r.hierarchy.l3_fills_noncritical.get())
            .sum();
        t.row(&[
            if enabled { "on" } else { "off" }.into(),
            format!("{:.1}", noncrit as f64 * 100.0 / fills.max(1) as f64),
            format!("{re_min:.2}"),
            format!("{rn_min:.2}"),
            format!("{:+.1}", percent_change(re_min, rn_min)),
        ]);
    }
    format!(
        "Ablation 6 — stride prefetcher's effect on criticality and lifetime\n{}",
        t.render()
    )
}

/// Run every ablation and concatenate the reports.
pub fn run_all(budget: Budget) -> String {
    let mut out = String::new();
    out.push_str(&threshold_end_to_end(budget));
    out.push('\n');
    out.push_str(&cpt_capacity(budget));
    out.push('\n');
    out.push_str(&intra_bank_composition(budget));
    out.push('\n');
    out.push_str(&naive_latency(budget));
    out.push('\n');
    out.push_str(&mbv_vs_two_probe(budget));
    out.push('\n');
    out.push_str(&prefetcher_ablation(budget));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbv_ablation_counts_probes() {
        // The two-probe variant must actually issue secondary probes.
        let report = mbv_vs_two_probe(Budget::test());
        assert!(report.contains("two-probe"));
        // The probes column of the second data row is non-zero.
        let line = report
            .lines()
            .find(|l| l.starts_with("two-probe"))
            .expect("two-probe row");
        assert!(
            !line.contains(" 0  0"),
            "secondary probes should be non-zero: {line}"
        );
    }

    #[test]
    fn threshold_ablation_renders() {
        let report = threshold_end_to_end(Budget::test());
        assert!(report.contains("x [%]"));
        assert!(report.contains("100"));
    }
}

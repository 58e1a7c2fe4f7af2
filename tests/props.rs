//! Property-based tests over the core data structures, spanning crates,
//! driven by seeded `sim-rng` generator loops (hermetic replacement for
//! proptest — the cases are deterministic, so a failure reproduces on
//! every run).

use sim_rng::SimRng;

use renuca::core_policies::{Cpt, CptConfig, ReNuca, SNuca, Scheme};
use renuca::sim::cache::{LookupResult, SetAssocCache};
use renuca::sim::config::{CacheGeometry, SystemConfig};
use renuca::sim::placement::{AccessMeta, CriticalityPredictor, LlcAccessKind, LlcPlacement};
use renuca::sim::reserve::{gc, reserve, Calendar};
use renuca::sim::types::{page_of_line, phys_addr};
use renuca::wear::WearTracker;

const CASES: usize = 64;

fn meta_for(line: u64) -> AccessMeta {
    AccessMeta {
        core: 0,
        line,
        page: page_of_line(line),
        pc: 1,
        kind: LlcAccessKind::Demand,
        predicted_critical: false,
    }
}

/// A cache never exceeds its capacity, never duplicates a line, and a
/// filled line is immediately found until evicted.
#[test]
fn cache_capacity_and_uniqueness() {
    let mut rng = SimRng::seed_from_u64(0xF00D_0001);
    for case in 0..CASES {
        let n_ops = rng.gen_range_usize(1..400);
        let ops: Vec<(u64, bool)> = (0..n_ops)
            .map(|_| (rng.gen_bounded(512), rng.gen_bool(0.5)))
            .collect();
        let geo = CacheGeometry::symmetric(4096, 4, 1); // 64 lines
        let mut cache = SetAssocCache::new(geo, false);
        let mut resident: std::collections::HashSet<u64> = Default::default();
        for (line, is_write) in ops {
            match cache.access(line, is_write) {
                LookupResult::Hit { .. } => {
                    assert!(
                        resident.contains(&line),
                        "case {case}: hit on non-resident {line}"
                    );
                }
                LookupResult::Miss => {
                    let out = cache.fill(line, is_write);
                    resident.insert(line);
                    if let Some(ev) = out.evicted {
                        assert!(
                            resident.remove(&ev.line),
                            "case {case}: evicted ghost {:#x}",
                            ev.line
                        );
                    }
                    let found = matches!(cache.probe(line), LookupResult::Hit { .. });
                    assert!(found, "case {case}: freshly filled line not found");
                }
            }
            assert!(cache.occupancy() <= 64, "case {case}");
            assert_eq!(cache.occupancy(), resident.len(), "case {case}");
        }
    }
}

/// Calendar reservations never overlap, are granted at or after the
/// request, and GC never disturbs future reservations.
#[test]
fn calendar_reservations_sound() {
    let mut rng = SimRng::seed_from_u64(0xF00D_0002);
    for case in 0..CASES {
        let n_reqs = rng.gen_range_usize(1..300);
        let reqs: Vec<(u64, u64)> = (0..n_reqs)
            .map(|_| (rng.gen_bounded(5_000), rng.gen_range(1..50)))
            .collect();
        let mut cal = Calendar::new();
        for (now, hold) in reqs {
            let t = reserve(&mut cal, now, hold, 0);
            assert!(t >= now, "case {case}");
            for w in cal.windows(2) {
                assert!(
                    w[0].1 <= w[1].0,
                    "case {case}: overlap {:?} {:?}",
                    w[0],
                    w[1]
                );
            }
        }
        let before: u64 = cal.iter().map(|&(s, e)| e - s).sum();
        gc(&mut cal, 2_500);
        // GC only removes fully-expired intervals.
        for &(_, end) in cal.iter() {
            assert!(end >= 2_500, "case {case}");
        }
        let after: u64 = cal.iter().map(|&(s, e)| e - s).sum();
        assert!(after <= before, "case {case}");
    }
}

/// Every placement policy maps every line to a valid bank, and static
/// schemes agree between lookup and fill.
#[test]
fn placements_stay_in_range() {
    let mut rng = SimRng::seed_from_u64(0xF00D_0003);
    for case in 0..CASES {
        let n_lines = rng.gen_range_usize(1..100);
        let lines: Vec<u64> = (0..n_lines).map(|_| rng.next_u64()).collect();
        let cfg = SystemConfig::small(16);
        for scheme in Scheme::ALL {
            let mut policy = scheme.build_policy(&cfg);
            for &raw in &lines {
                let line = raw >> 8; // keep owner bits in range after masking
                let m = meta_for(line);
                let lb = policy.lookup_bank(&m);
                let fb = policy.fill_bank(&m);
                assert!(
                    lb < cfg.n_banks,
                    "case {case}: {}: lookup {lb}",
                    scheme.name()
                );
                assert!(
                    fb < cfg.n_banks,
                    "case {case}: {}: fill {fb}",
                    scheme.name()
                );
                if matches!(scheme, Scheme::SNuca | Scheme::RNuca | Scheme::Private) {
                    assert_eq!(lb, fb, "case {case}: static scheme must agree");
                }
            }
        }
    }
}

/// Re-NUCA routing is exactly determined by the MBV bit: after a fill,
/// lookups go to the fill bank; after eviction they return to S-NUCA.
#[test]
fn renuca_mbv_routing_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0xF00D_0004);
    for case in 0..CASES {
        let n_offsets = rng.gen_range_usize(1..50);
        let offsets: Vec<u64> = (0..n_offsets).map(|_| rng.gen_bounded(1_000_000)).collect();
        let critical: Vec<bool> = (0..50).map(|_| rng.gen_bool(0.5)).collect();
        let mut renuca = ReNuca::new(4, 4, 64, 8);
        let snuca = SNuca::new(16);
        for (i, &off) in offsets.iter().enumerate() {
            let line = phys_addr(i % 16, off * 64) >> 6;
            let is_crit = critical[i % critical.len()];
            let mut m = meta_for(line);
            m.predicted_critical = is_crit;
            let fill = renuca.fill_bank(&m);
            renuca.on_fill(&m, fill);
            assert_eq!(
                renuca.lookup_bank(&m),
                fill,
                "case {case}: resident routing"
            );
            renuca.on_evict(line, fill);
            assert_eq!(
                renuca.lookup_bank(&m),
                snuca.bank_of(line),
                "case {case}: post-eviction routing must be S-NUCA"
            );
        }
    }
}

/// The CPT's criticality set shrinks (weakly) as the threshold rises.
#[test]
fn cpt_threshold_monotonicity() {
    let mut rng = SimRng::seed_from_u64(0xF00D_0005);
    for case in 0..CASES {
        let n = rng.gen_range_usize(20..200);
        let block_pattern: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let pc = 0x40;
        let mut verdicts = Vec::new();
        for &x in &[3.0, 25.0, 75.0] {
            let mut cpt = Cpt::new(CptConfig::with_threshold(x));
            for &blocked in &block_pattern {
                cpt.predict(pc);
                if blocked {
                    cpt.on_rob_block(pc);
                }
                cpt.on_load_commit(pc, blocked);
            }
            verdicts.push(cpt.predict(pc));
        }
        // critical@75% implies critical@25% implies critical@3%.
        assert!(!verdicts[2] || verdicts[1], "case {case}");
        assert!(!verdicts[1] || verdicts[0], "case {case}");
    }
}

/// Wear-tracker totals always equal the sum over slots, and every slot
/// counts exactly the writes recorded into it.
#[test]
fn wear_totals_consistent() {
    let mut rng = SimRng::seed_from_u64(0xF00D_0006);
    for case in 0..CASES {
        let n_writes = rng.gen_range_usize(0..300);
        let mut t = WearTracker::new(4, 8);
        let mut model = [[0u64; 8]; 4];
        for _ in 0..n_writes {
            let (bank, slot) = (rng.gen_range_usize(0..4), rng.gen_range_usize(0..8));
            t.record_write(bank, slot);
            model[bank][slot] += 1;
        }
        assert_eq!(t.total_writes() as usize, n_writes, "case {case}");
        for (bank, slots) in model.iter().enumerate() {
            for (slot, &n) in slots.iter().enumerate() {
                assert_eq!(t.slot_writes(bank, slot), n, "case {case}");
            }
            let slot_sum: u64 = slots.iter().sum();
            assert_eq!(slot_sum, t.bank_writes(bank), "case {case}");
        }
    }
}

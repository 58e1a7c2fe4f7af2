//! Property-based tests for the Re-NUCA policies and predictor, driven by
//! seeded `sim-rng` generator loops (hermetic replacement for proptest).

use sim_rng::SimRng;

use cmp_sim::config::SystemConfig;
use cmp_sim::placement::{AccessMeta, CriticalityPredictor, LlcAccessKind, LlcPlacement};
use cmp_sim::types::{page_of_line, phys_addr};
use renuca_core::{
    Coloring, Cpt, CptConfig, EnhancedTlb, NaiveOracle, PrivateMap, RNuca, ReNuca, SNuca, Scheme,
    Wec, COLORING_EPOCH,
};

const CASES: usize = 64;

fn meta(line: u64, critical: bool) -> AccessMeta {
    AccessMeta {
        core: 0,
        line,
        page: page_of_line(line),
        pc: 1,
        kind: LlcAccessKind::Demand,
        predicted_critical: critical,
    }
}

/// S-NUCA striping is uniform over any window of consecutive lines.
#[test]
fn snuca_uniform_over_windows() {
    let mut rng = SimRng::seed_from_u64(0x4E0C_0001);
    for case in 0..CASES {
        let start = rng.gen_bounded(1_000_000);
        let s = SNuca::new(16);
        let mut counts = [0u32; 16];
        for line in start..start + 160 {
            counts[s.bank_of(line)] += 1;
        }
        for &c in &counts {
            assert_eq!(c, 10, "case {case}: start {start}");
        }
    }
}

/// R-NUCA: every line of every core lands inside that core's cluster,
/// and the rotational interleave uses the whole cluster over any
/// consecutive address window.
#[test]
fn rnuca_cluster_containment() {
    let mut rng = SimRng::seed_from_u64(0x4E0C_0002);
    for case in 0..CASES {
        let core = rng.gen_range_usize(0..16);
        let start = rng.gen_bounded(1_000_000);
        let r = RNuca::new(4, 4);
        let mut seen = std::collections::HashSet::new();
        for line in start..start + 64 {
            let b = r.bank_of(core, line);
            assert!(r.cluster(core).contains(&b), "case {case}");
            seen.insert(b);
        }
        assert_eq!(seen.len(), r.cluster(core).len(), "case {case}");
    }
}

/// The Naive oracle's directory is exact under any fill/evict schedule:
/// a resident line is looked up at its fill bank; non-resident lines
/// fall back to the S-NUCA probe.
#[test]
fn naive_directory_exactness() {
    let mut rng = SimRng::seed_from_u64(0x4E0C_0003);
    for case in 0..CASES {
        let n_ops = rng.gen_range_usize(1..200);
        let ops: Vec<(u64, bool)> = (0..n_ops)
            .map(|_| (rng.gen_bounded(64), rng.gen_bool(0.5)))
            .collect();
        let mut naive = NaiveOracle::new(8, 0);
        let snuca = SNuca::new(8);
        let mut resident: std::collections::HashMap<u64, usize> = Default::default();
        for (line, evict) in ops {
            let m = meta(line, false);
            if evict {
                if let Some(bank) = resident.remove(&line) {
                    naive.on_evict(line, bank);
                }
            } else if !resident.contains_key(&line) {
                let bank = naive.fill_bank(&m);
                naive.on_fill(&m, bank);
                naive.on_l3_write(bank);
                resident.insert(line, bank);
            }
            let expect = resident
                .get(&line)
                .copied()
                .unwrap_or_else(|| snuca.bank_of(line));
            assert_eq!(naive.lookup_bank(&m), expect, "case {case}: line {line}");
        }
        assert_eq!(naive.directory_len(), resident.len(), "case {case}");
    }
}

/// Re-NUCA invariant under arbitrary fill/evict interleavings: lookup
/// routes to the bank of the *most recent surviving fill*, S-NUCA
/// otherwise. (This is the MBV correctness argument of §IV.C.)
#[test]
fn renuca_routing_model() {
    let mut rng = SimRng::seed_from_u64(0x4E0C_0004);
    for case in 0..CASES {
        let n_ops = rng.gen_range_usize(1..300);
        let ops: Vec<(usize, u64, bool, bool)> = (0..n_ops)
            .map(|_| {
                (
                    rng.gen_range_usize(0..8),
                    rng.gen_bounded(32),
                    rng.gen_bool(0.5),
                    rng.gen_bool(0.5),
                )
            })
            .collect();
        let mut renuca = ReNuca::new(4, 4);
        let snuca = SNuca::new(16);
        let mut residency: std::collections::HashMap<u64, usize> = Default::default();
        for (core, off, critical, evict) in ops {
            let line = phys_addr(core, off * 64) >> 6;
            let mut m = meta(line, critical);
            m.core = core;
            if evict {
                if let Some(bank) = residency.remove(&line) {
                    renuca.on_evict(line, bank);
                }
            } else if !residency.contains_key(&line) {
                let bank = renuca.fill_bank(&m);
                renuca.on_fill(&m, bank);
                residency.insert(line, bank);
            }
            let expect = residency
                .get(&line)
                .copied()
                .unwrap_or_else(|| snuca.bank_of(line));
            assert_eq!(
                renuca.lookup_bank(&m),
                expect,
                "case {case}: line {line:#x}"
            );
        }
    }
}

/// Enhanced-TLB MBV bits survive arbitrary churn: the vector read back
/// always equals a reference model, no matter how entries migrate
/// between the TLB and the backing store.
#[test]
fn enhanced_tlb_matches_reference() {
    let mut rng = SimRng::seed_from_u64(0x4E0C_0005);
    for case in 0..CASES {
        let n_ops = rng.gen_range_usize(1..400);
        let ops: Vec<(u64, u32, bool)> = (0..n_ops)
            .map(|_| {
                (
                    rng.gen_bounded(40),
                    rng.gen_bounded(64) as u32,
                    rng.gen_bool(0.5),
                )
            })
            .collect();
        let mut tlb = EnhancedTlb::new(8, 2); // tiny: lots of eviction churn
        let mut reference: std::collections::HashMap<u64, u64> = Default::default();
        for (page, bit, value) in ops {
            tlb.set_mbv_bit(page, bit, value);
            let e = reference.entry(page).or_insert(0);
            if value {
                *e |= 1 << bit
            } else {
                *e &= !(1 << bit)
            }
            // Interleave reads of random other pages to force churn.
            let probe = (page * 7 + 3) % 40;
            let expect_bit = (reference.get(&probe).copied().unwrap_or(0) >> (bit % 64)) & 1 == 1;
            assert_eq!(tlb.mbv_bit(probe, bit % 64), expect_bit, "case {case}");
        }
        for (&page, &bits) in &reference {
            assert_eq!(tlb.mbv(page), bits, "case {case}: page {page}");
        }
    }
}

/// Every policy returns an in-range bank for *arbitrary* 64-bit line
/// addresses on machines of 1, 3, 6, 12 and 16 cores — the non-pow2 counts
/// would have tripped the old `& (n_cores - 1)` owner clamp, and random
/// lines exercise raw owner bits far past `n_cores`.
#[test]
fn all_policies_stay_in_range_on_any_core_count() {
    // (cols, rows) meshes: 1x1, 3x1, 3x2, 4x3, 4x4 (one bank per core).
    let meshes = [(1usize, 1usize), (3, 1), (3, 2), (4, 3), (4, 4)];
    let mut rng = SimRng::seed_from_u64(0x4E0C_0007);
    for (cols, rows) in meshes {
        let n = cols * rows;
        let cfg = SystemConfig::mesh(cols, rows);
        let mut policies: Vec<Box<dyn LlcPlacement>> =
            Scheme::ALL.iter().map(|s| s.build_policy(&cfg)).collect();
        for case in 0..CASES {
            // Mix fully random lines with realistic in-machine addresses.
            let line = if case % 2 == 0 {
                rng.next_u64() >> 1
            } else {
                phys_addr(rng.gen_range_usize(0..n), rng.next_u64() & 0xfff_ffc0) >> 6
            };
            for critical in [false, true] {
                let m = meta(line, critical);
                for p in policies.iter_mut() {
                    let name = p.name();
                    let lb = p.lookup_bank(&m);
                    assert!(lb < n, "{name} {n}-core lookup: bank {lb} line {line:#x}");
                    let fb = p.fill_bank(&m);
                    assert!(fb < n, "{name} {n}-core fill: bank {fb} line {line:#x}");
                }
            }
        }
    }
}

/// Regression for the owner-decoding bug: `raw & (n_cores - 1)` is not a
/// clamp for non-pow2 machines. On 6 cores the old mask sent core 3's lines
/// (0b011 & 0b101 = 0b001) to core 1's private bank. Exact decoding must
/// route every core's own lines to its own bank, and out-of-range raw
/// owners must wrap by modulo.
#[test]
fn owner_decoding_is_exact_on_non_pow2_machines() {
    for n_cores in [1usize, 3, 6, 12] {
        let mut p = PrivateMap::new(n_cores);
        for core in 0..n_cores {
            for off in [0u64, 0x40, 0x7f_ffc0] {
                let line = phys_addr(core, off) >> 6;
                let m = meta(line, false);
                assert_eq!(p.lookup_bank(&m), core, "{n_cores} cores");
                assert_eq!(p.fill_bank(&m), core, "{n_cores} cores");
            }
        }
        // A raw owner one past the machine wraps to core 0 (modulo), never
        // to a masked alias.
        let beyond = phys_addr(n_cores, 0x40) >> 6;
        assert_eq!(p.lookup_bank(&meta(beyond, false)), 0, "{n_cores} cores");
    }
}

/// WEC bookkeeping is exact under any fill/write/evict schedule: resident
/// lines are looked up at their recorded fill bank, absent lines at the
/// S-NUCA home, and the redirect directory holds exactly the resident
/// lines placed away from home.
#[test]
fn wec_directory_exactness() {
    let mut rng = SimRng::seed_from_u64(0x4E0C_0008);
    for case in 0..CASES {
        let n_ops = rng.gen_range_usize(1..300);
        let mut wec = Wec::new(8);
        let snuca = SNuca::new(8);
        let mut resident: std::collections::HashMap<u64, usize> = Default::default();
        for _ in 0..n_ops {
            let line = rng.gen_bounded(48);
            let m = meta(line, false);
            match rng.gen_range_usize(0..3) {
                0 if resident.contains_key(&line) => {
                    let bank = resident.remove(&line).unwrap();
                    wec.on_evict(line, bank);
                }
                1 if resident.contains_key(&line) => {
                    wec.on_l3_write(resident[&line]);
                }
                _ => {
                    if !resident.contains_key(&line) {
                        let bank = wec.fill_bank(&m);
                        wec.on_fill(&m, bank);
                        wec.on_l3_write(bank);
                        resident.insert(line, bank);
                    }
                }
            }
            let expect = resident
                .get(&line)
                .copied()
                .unwrap_or_else(|| snuca.bank_of(line));
            assert_eq!(wec.lookup_bank(&m), expect, "case {case}: line {line}");
        }
        let redirected = resident
            .iter()
            .filter(|&(&l, &b)| b != snuca.bank_of(l))
            .count();
        assert_eq!(wec.directory_len(), redirected, "case {case}");
    }
}

/// Coloring bookkeeping is exact under any fill/write/evict schedule:
/// fills land at the epoch-shifted home, resident lines stay pinned at
/// their fill-time bank across epoch rotations, and absent lines resolve
/// to the *current* shifted home.
#[test]
fn coloring_directory_exactness() {
    let mut rng = SimRng::seed_from_u64(0x4E0C_0009);
    for case in 0..CASES {
        let n_ops = rng.gen_range_usize(1..300);
        let n = 6usize; // non-pow2: the shift must wrap by modulo
        let mut col = Coloring::new(n);
        let snuca = SNuca::new(n);
        let mut resident: std::collections::HashMap<u64, usize> = Default::default();
        let mut writes = 0u64;
        let shifted = |line: u64, writes: u64| {
            (snuca.bank_of(line) + ((writes / COLORING_EPOCH) % n as u64) as usize) % n
        };
        for _ in 0..n_ops {
            let line = rng.gen_bounded(48);
            let m = meta(line, false);
            match rng.gen_range_usize(0..3) {
                0 if resident.contains_key(&line) => {
                    let bank = resident.remove(&line).unwrap();
                    col.on_evict(line, bank);
                }
                1 if resident.contains_key(&line) => {
                    col.on_l3_write(resident[&line]);
                    writes += 1;
                }
                _ => {
                    if !resident.contains_key(&line) {
                        let bank = col.fill_bank(&m);
                        assert_eq!(bank, shifted(line, writes), "case {case}: fill");
                        col.on_fill(&m, bank);
                        col.on_l3_write(bank);
                        writes += 1;
                        resident.insert(line, bank);
                    }
                }
            }
            let expect = resident
                .get(&line)
                .copied()
                .unwrap_or_else(|| shifted(line, writes));
            assert_eq!(col.lookup_bank(&m), expect, "case {case}: line {line}");
        }
        assert_eq!(col.directory_len(), resident.len(), "case {case}");
    }
}

/// The competitor policies are deterministic: two independently built
/// instances driven by the same seeded schedule make identical bank
/// choices at every step (fresh-instance oracle, in the style of the
/// fresh-TLB comparisons), and looking the same line up twice in a row
/// returns the same bank.
#[test]
fn competitor_policies_are_deterministic() {
    let meshes = [(1usize, 1usize), (3, 1), (3, 2), (4, 3)];
    for (cols, rows) in meshes {
        let cfg = cmp_sim::config::SystemConfig::mesh(cols, rows);
        for scheme in Scheme::COMPETITORS {
            let mut rng = SimRng::seed_from_u64(0x4E0C_000A ^ (cols * 16 + rows) as u64);
            let mut a = scheme.build_policy(&cfg);
            let mut b = scheme.build_policy(&cfg);
            let mut resident: std::collections::HashMap<u64, usize> = Default::default();
            for step in 0..400 {
                let line = rng.gen_bounded(64);
                let m = meta(line, false);
                match rng.gen_range_usize(0..4) {
                    0 if resident.contains_key(&line) => {
                        let bank = resident.remove(&line).unwrap();
                        a.on_evict(line, bank);
                        b.on_evict(line, bank);
                    }
                    1 if resident.contains_key(&line) => {
                        let bank = resident[&line];
                        a.on_l3_write(bank);
                        b.on_l3_write(bank);
                    }
                    _ => {
                        if !resident.contains_key(&line) {
                            let fa = a.fill_bank(&m);
                            let fb = b.fill_bank(&m);
                            assert_eq!(
                                fa,
                                fb,
                                "{} fill diverged at step {step} on {cols}x{rows}",
                                scheme.name()
                            );
                            a.on_fill(&m, fa);
                            b.on_fill(&m, fb);
                            a.on_l3_write(fa);
                            b.on_l3_write(fb);
                            resident.insert(line, fa);
                        }
                    }
                }
                let first = a.lookup_bank(&m);
                assert_eq!(
                    first,
                    a.lookup_bank(&m),
                    "{}: repeated lookup must be stable",
                    scheme.name()
                );
                assert_eq!(
                    first,
                    b.lookup_bank(&m),
                    "{} lookup diverged at step {step} on {cols}x{rows}",
                    scheme.name()
                );
            }
        }
    }
}

/// CPT: prediction equals the definition `robBlocks*100 >= x*numLoads`
/// applied to the running counters, for any event sequence.
#[test]
fn cpt_matches_definition() {
    let mut rng = SimRng::seed_from_u64(0x4E0C_0006);
    for case in 0..CASES {
        let n_events = rng.gen_range_usize(1..300);
        let events: Vec<bool> = (0..n_events).map(|_| rng.gen_bool(0.5)).collect();
        let x = rng.gen_f64_range(1.0, 100.0);
        let mut cpt = Cpt::new(CptConfig {
            entries: 16,
            threshold_pct: x,
            aging_cap: 1 << 30,
        });
        let pc = 0x10;
        let mut num_loads = 0u64;
        let mut blocks = 0u64;
        for blocked in events {
            let predicted = cpt.predict(pc);
            if num_loads > 0 {
                // Model: the entry exists after the first commit.
                let expect = blocks as f64 * 100.0 >= x * num_loads as f64;
                assert_eq!(
                    predicted, expect,
                    "case {case}: n={num_loads} b={blocks} x={x}"
                );
            } else {
                assert!(!predicted, "case {case}: first touch must be non-critical");
            }
            if num_loads > 0 {
                num_loads += 1;
            }
            if blocked {
                if num_loads > 0 {
                    blocks += 1;
                }
                cpt.on_rob_block(pc);
            }
            cpt.on_load_commit(pc, blocked);
            if num_loads == 0 {
                num_loads = 1;
                blocks = blocked as u64;
            }
        }
    }
}

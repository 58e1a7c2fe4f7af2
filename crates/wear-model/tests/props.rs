//! Property-based tests for the wear/lifetime model, driven by seeded
//! `sim-rng` generator loops (hermetic replacement for proptest).

use sim_rng::SimRng;
use wear_model::{
    capacity_retention, hmean_lifetime_per_bank, raw_min_lifetime, EnduranceSpec, IntraBankWear,
    LifetimeModel, WearTracker,
};

const CASES: usize = 64;

/// Lifetime is antitone in writes: more writes never lengthen life.
#[test]
fn lifetime_antitone_in_writes() {
    let mut rng = SimRng::seed_from_u64(0x3EA7_0001);
    for case in 0..CASES {
        let w1 = rng.gen_range(1..10_000);
        let extra = rng.gen_range(1..10_000);
        let mut a = WearTracker::new(1, 16);
        let mut b = WearTracker::new(1, 16);
        for i in 0..w1 {
            a.record_write(0, (i % 16) as usize);
            b.record_write(0, (i % 16) as usize);
        }
        for i in 0..extra {
            b.record_write(0, (i % 16) as usize);
        }
        let m = LifetimeModel::default();
        assert!(
            m.bank_lifetime_years(&b, 0, 1_000_000) <= m.bank_lifetime_years(&a, 0, 1_000_000),
            "case {case}: w1={w1} extra={extra}"
        );
    }
}

/// Doubling endurance doubles (uncapped) lifetimes.
#[test]
fn lifetime_linear_in_endurance() {
    let mut rng = SimRng::seed_from_u64(0x3EA7_0002);
    for case in 0..CASES {
        let writes = rng.gen_range(100..50_000);
        let mut t = WearTracker::new(1, 16);
        for i in 0..writes {
            t.record_write(0, (i % 16) as usize);
        }
        let base = LifetimeModel {
            endurance: EnduranceSpec::new(1e9),
            cap_years: f64::INFINITY,
            ..LifetimeModel::default()
        };
        let double = LifetimeModel {
            endurance: EnduranceSpec::new(2e9),
            cap_years: f64::INFINITY,
            ..LifetimeModel::default()
        };
        let l1 = base.bank_lifetime_years(&t, 0, 1_000_000);
        let l2 = double.bank_lifetime_years(&t, 0, 1_000_000);
        assert!((l2 / l1 - 2.0).abs() < 1e-9, "case {case}: writes={writes}");
    }
}

/// Max-slot lifetime never exceeds the uniform-assumption lifetime.
#[test]
fn max_slot_is_never_optimistic() {
    let mut rng = SimRng::seed_from_u64(0x3EA7_0003);
    for case in 0..CASES {
        let n = rng.gen_range_usize(1..2_000);
        let mut t = WearTracker::new(1, 16);
        for _ in 0..n {
            t.record_write(0, rng.gen_range_usize(0..16));
        }
        let uniform = LifetimeModel {
            cap_years: f64::INFINITY,
            ..LifetimeModel::default()
        };
        let maxslot = LifetimeModel {
            intra_bank: IntraBankWear::MaxSlot,
            cap_years: f64::INFINITY,
            ..LifetimeModel::default()
        };
        assert!(
            maxslot.bank_lifetime_years(&t, 0, 1_000)
                <= uniform.bank_lifetime_years(&t, 0, 1_000) + 1e-9,
            "case {case}"
        );
    }
}

/// The harmonic mean per bank is bounded by each workload's value, and
/// the raw minimum is the global floor.
#[test]
fn aggregate_bounds() {
    let mut rng = SimRng::seed_from_u64(0x3EA7_0004);
    for case in 0..CASES {
        let n_wl = rng.gen_range_usize(1..10);
        let data: Vec<Vec<f64>> = (0..n_wl)
            .map(|_| (0..4).map(|_| rng.gen_f64_range(0.1, 100.0)).collect())
            .collect();
        let h = hmean_lifetime_per_bank(&data);
        let raw = raw_min_lifetime(&data);
        for (b, &hb) in h.iter().enumerate() {
            let lo = data.iter().map(|w| w[b]).fold(f64::INFINITY, f64::min);
            let hi = data.iter().map(|w| w[b]).fold(0.0f64, f64::max);
            assert!(hb >= lo - 1e-9 && hb <= hi + 1e-9, "case {case}: bank {b}");
            assert!(raw <= hb + 1e-9, "case {case}: bank {b}");
        }
    }
}

/// Retention curves are monotone non-increasing and drop below 100% just
/// past the first bank death.
#[test]
fn retention_consistency() {
    let mut rng = SimRng::seed_from_u64(0x3EA7_0005);
    for case in 0..CASES {
        let n = rng.gen_range_usize(2..32);
        let lifetimes: Vec<f64> = (0..n).map(|_| rng.gen_f64_range(0.1, 50.0)).collect();
        let curve = capacity_retention(&lifetimes, 60.0, 31);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12, "case {case}");
        }
        assert_eq!(curve[0].1, 1.0, "case {case}");
        // Just past the first-death point, retention is below 100%.
        let first_death = lifetimes.iter().copied().fold(f64::INFINITY, f64::min);
        let after = lifetimes
            .iter()
            .filter(|&&l| l > first_death + 1e-9)
            .count();
        assert!(after < lifetimes.len(), "case {case}");
    }
}

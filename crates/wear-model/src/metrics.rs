//! Aggregate lifetime statistics reported by the paper.
//!
//! The paper evaluates each NUCA scheme over 10 multiprogrammed workloads and
//! reports:
//!
//! * **Harmonic-mean lifetime per bank** (Figures 3, 12, 13, 15, 17): for
//!   each cache bank, the harmonic mean of that bank's lifetime across all
//!   workloads. Harmonic because lifetime behaves like a rate and the mean
//!   must be dominated by the bad workloads.
//! * **Raw minimum lifetime** (Table III): the single smallest bank lifetime
//!   observed over *all* banks and *all* workloads — when the first capacity
//!   is lost under the worst case.
//! * **Lifetime variation**: coefficient of variation across banks, the
//!   wear-leveling quality measure ("0% variation" for the Naive oracle).

use sim_stats::summary::{cv, hmean, min_f64};

/// Per-bank harmonic mean across workloads.
///
/// `per_workload[w][b]` = lifetime of bank `b` in workload `w`. Returns one
/// value per bank.
///
/// # Panics
/// Panics if workloads have inconsistent bank counts or the input is empty.
pub fn hmean_lifetime_per_bank(per_workload: &[Vec<f64>]) -> Vec<f64> {
    assert!(!per_workload.is_empty(), "no workloads");
    let nbanks = per_workload[0].len();
    for (w, banks) in per_workload.iter().enumerate() {
        assert_eq!(
            banks.len(),
            nbanks,
            "workload {w} has {} banks, expected {nbanks}",
            banks.len()
        );
    }
    (0..nbanks)
        .map(|b| {
            let series: Vec<f64> = per_workload.iter().map(|w| w[b]).collect();
            hmean(&series)
        })
        .collect()
}

/// Raw minimum lifetime: the smallest bank lifetime over all workloads and
/// banks (Table III's metric).
///
/// # Panics
/// Panics if the input is empty.
pub fn raw_min_lifetime(per_workload: &[Vec<f64>]) -> f64 {
    assert!(!per_workload.is_empty(), "no workloads");
    per_workload
        .iter()
        .filter_map(|banks| min_f64(banks))
        .fold(f64::INFINITY, f64::min)
}

/// Coefficient of variation of per-bank (harmonic-mean) lifetimes — the
/// paper's wear-leveling quality number. 0.0 means perfect leveling.
pub fn lifetime_variation(per_bank: &[f64]) -> f64 {
    cv(per_bank)
}

/// Capacity retention curve: the fraction of cache capacity still alive at
/// each point in time, given per-bank lifetimes.
///
/// This extends the paper's motivation quantitatively — *"with time, cache
/// banks wear out and we loose cache capacity … thereby hurting the
/// performance"* (§III.B): a scheme with a high minimum lifetime keeps the
/// whole cache for longer, while skewed schemes (Private, R-NUCA) shed
/// banks early even though their *average* lifetime looks fine.
///
/// Returns `(years, fraction_alive)` pairs at `points` evenly spaced times
/// from 0 to `horizon_years` (inclusive).
///
/// # Panics
/// Panics on an empty lifetime slice or zero points.
pub fn capacity_retention(per_bank: &[f64], horizon_years: f64, points: usize) -> Vec<(f64, f64)> {
    assert!(!per_bank.is_empty(), "no banks");
    assert!(points >= 2, "need at least start and end points");
    let n = per_bank.len() as f64;
    (0..points)
        .map(|i| {
            let t = horizon_years * i as f64 / (points - 1) as f64;
            let alive = per_bank.iter().filter(|&&l| l > t).count() as f64;
            (t, alive / n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmean_per_bank_shape() {
        let data = vec![vec![2.0, 4.0], vec![6.0, 4.0]];
        let h = hmean_lifetime_per_bank(&data);
        assert_eq!(h.len(), 2);
        // hmean(2,6) = 2/(1/2+1/6) = 3
        assert!((h[0] - 3.0).abs() < 1e-12);
        assert!((h[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no workloads")]
    fn empty_input_rejected() {
        hmean_lifetime_per_bank(&[]);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn ragged_input_rejected() {
        hmean_lifetime_per_bank(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn raw_min_over_all() {
        let data = vec![vec![5.0, 3.0], vec![2.5, 9.0]];
        assert_eq!(raw_min_lifetime(&data), 2.5);
    }

    #[test]
    fn perfect_leveling_has_zero_variation() {
        assert_eq!(lifetime_variation(&[4.0, 4.0, 4.0]), 0.0);
        assert!(lifetime_variation(&[1.0, 10.0]) > 0.5);
    }

    #[test]
    fn capacity_retention_basics() {
        let lifetimes = [1.0, 2.0, 3.0, 4.0];
        let curve = capacity_retention(&lifetimes, 4.0, 5);
        // t=0: all alive; t=1: 1y bank dead (strictly greater survives);
        // t=4: none alive.
        assert_eq!(curve[0], (0.0, 1.0));
        assert_eq!(curve[1], (1.0, 0.75));
        assert_eq!(curve[2], (2.0, 0.5));
        assert_eq!(curve[4], (4.0, 0.0));
    }

    #[test]
    fn capacity_retention_is_monotone_nonincreasing() {
        let lifetimes = [0.5, 2.5, 2.5, 7.0, 9.0];
        let curve = capacity_retention(&lifetimes, 10.0, 21);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
    }

    #[test]
    #[should_panic(expected = "no banks")]
    fn retention_rejects_empty() {
        capacity_retention(&[], 1.0, 2);
    }

    #[test]
    fn hmean_dominated_by_worst_workload() {
        // A bank worn out fast by one workload must have a low harmonic mean
        // even if every other workload treats it gently.
        let data = vec![vec![0.5], vec![50.0], vec![50.0]];
        let h = hmean_lifetime_per_bank(&data);
        assert!(h[0] < 1.5, "hmean {} should be pinned near 0.5", h[0]);
    }
}

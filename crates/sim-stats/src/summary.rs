//! Summary mathematics used when aggregating per-bank / per-workload results.
//!
//! The paper reports *harmonic means* of per-bank lifetimes across workloads
//! (harmonic because lifetime is a rate-like quantity dominated by the worst
//! case) and IPC improvements normalized to S-NUCA. These helpers implement
//! that arithmetic once, with careful handling of empty and degenerate
//! inputs.

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn amean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Harmonic mean: `n / Σ(1/x)`.
///
/// Returns 0.0 for an empty slice, and 0.0 if any element is `<= 0` (a bank
/// with zero lifetime pins the harmonic mean to zero, which is exactly the
/// semantics the paper's lifetime metric needs).
pub fn hmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut denom = 0.0;
    for &x in xs {
        if x <= 0.0 {
            return 0.0;
        }
        denom += 1.0 / x;
    }
    xs.len() as f64 / denom
}

/// Population standard deviation. 0.0 for slices with < 2 elements.
pub fn stdev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = amean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    var.sqrt()
}

/// Coefficient of variation (stdev / mean); the paper's "variation in
/// lifetimes between banks". 0.0 when the mean is 0.
pub fn cv(xs: &[f64]) -> f64 {
    let m = amean(xs);
    if m == 0.0 {
        0.0
    } else {
        stdev(xs) / m
    }
}

/// Minimum of a slice (`None` when empty). NaNs are ignored.
pub fn min_f64(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |acc, x| {
            Some(match acc {
                None => x,
                Some(a) => a.min(x),
            })
        })
}

/// Percent change of `new` relative to `base`: `(new - base) / base * 100`.
/// Returns 0.0 when `base` is 0 to keep report tables readable.
pub fn percent_change(new: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (new - base) / base * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-10;

    #[test]
    fn amean_basic() {
        assert!((amean(&[1.0, 2.0, 3.0]) - 2.0).abs() < EPS);
        assert_eq!(amean(&[]), 0.0);
    }

    #[test]
    fn hmean_basic() {
        // hmean(1, 2, 4) = 3 / (1 + 0.5 + 0.25) = 12/7
        assert!((hmean(&[1.0, 2.0, 4.0]) - 12.0 / 7.0).abs() < EPS);
    }

    #[test]
    fn hmean_dominated_by_small_values() {
        let h = hmean(&[0.1, 100.0, 100.0]);
        assert!(h < 0.3, "harmonic mean must be pinned near the worst case");
    }

    #[test]
    fn hmean_zero_element_is_zero() {
        assert_eq!(hmean(&[0.0, 5.0]), 0.0);
        assert_eq!(hmean(&[]), 0.0);
    }

    #[test]
    fn hmean_le_gmean_le_amean() {
        let xs = [2.0, 3.0, 5.0, 7.0, 11.0];
        assert!(hmean(&xs) <= amean(&xs) + EPS, "HM-AM inequality violated");
    }

    #[test]
    fn stdev_and_cv() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((stdev(&xs) - 2.0).abs() < EPS);
        assert!((cv(&xs) - 2.0 / 5.0).abs() < EPS);
        assert_eq!(stdev(&[1.0]), 0.0);
    }

    #[test]
    fn min_ignores_nan() {
        let xs = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(min_f64(&xs), Some(1.0));
        assert_eq!(min_f64(&[]), None);
    }

    #[test]
    fn percent_change_basic() {
        assert!((percent_change(110.0, 100.0) - 10.0).abs() < EPS);
        assert!((percent_change(90.0, 100.0) + 10.0).abs() < EPS);
        assert_eq!(percent_change(5.0, 0.0), 0.0);
    }
}

//! Fixed-bucket log2 histograms for latency and queue-depth distributions.

use core::fmt;

/// Number of log2 buckets. Bucket `i` covers values in `[2^(i-1), 2^i)` with
/// bucket 0 covering the single value 0. 48 buckets covers any `u64` latency
/// a cache simulator can produce (2^47 cycles ≈ 16 hours at 2.4 GHz).
const BUCKETS: usize = 48;

/// A log2-bucketed histogram of `u64` samples.
///
/// Used for memory-access latency distributions, NoC queueing delays and DRAM
/// bank occupancy. Constant memory, O(1) insertion, and exact tracking of
/// count/sum/min/max alongside the bucketed shape.
#[derive(Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a value: 0 -> 0, otherwise `1 + floor(log2(v))`.
    #[inline]
    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            let b = 64 - value.leading_zeros() as usize; // 1 + floor(log2)
            b.min(BUCKETS - 1)
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean (0.0 for an empty histogram).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample seen (`None` when empty).
    #[inline]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample seen (`None` when empty).
    #[inline]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate p-th percentile (p in \[0,100\]) using the bucket upper
    /// bound. Good enough for reporting latency tails; exactness is not
    /// needed because buckets are log-spaced.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                // Upper bound of bucket i.
                return Some(if i == 0 { 0 } else { (1u64 << i) - 1 });
            }
        }
        Some(self.max)
    }

    /// Iterate over non-empty buckets as `(lower_bound, upper_bound, count)`.
    pub fn nonempty_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                if i == 0 {
                    (0, 0, n)
                } else {
                    (1u64 << (i - 1), (1u64 << i) - 1, n)
                }
            })
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Histogram(n={}, mean={:.2}, min={:?}, max={:?})",
            self.count,
            self.mean(),
            self.min(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.percentile(50.0), None);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn mean_min_max_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 20.0).abs() < 1e-12);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(30));
    }

    #[test]
    fn percentile_monotone() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0).unwrap();
        let p99 = h.percentile(99.0).unwrap();
        assert!(p50 <= p99);
        assert!(p99 >= 511); // 99th percentile of 0..1000 is in the top bucket
    }

    #[test]
    fn nonempty_bucket_iteration() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(5);
        let buckets: Vec<_> = h.nonempty_buckets().collect();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (0, 0, 1));
        // 5 falls in [4,7].
        assert_eq!(buckets[1], (4, 7, 1));
    }
}

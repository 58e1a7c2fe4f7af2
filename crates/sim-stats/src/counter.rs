//! Simple monotonic event counters.

use core::fmt;

/// A monotonically increasing event counter.
///
/// `Counter` is the workhorse statistic of the simulator: cache hits, misses,
/// writebacks, NoC flits, DRAM row conflicts and so on are all `Counter`s.
/// It is a thin newtype over `u64` so it costs nothing at runtime, but it
/// makes intent explicit and provides convenience arithmetic (rates, per-kilo
/// normalization) used throughout the experiment harness.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Counter(u64);

impl Counter {
    /// A counter starting at zero.
    #[inline]
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Value as `f64` (for ratio computations).
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Events per `per` units of `denom` (e.g. misses per 1000 instructions).
    ///
    /// Returns 0.0 when `denom` is zero rather than NaN so that empty runs
    /// render cleanly.
    #[inline]
    pub fn per(self, denom: u64, per: u64) -> f64 {
        if denom == 0 {
            0.0
        } else {
            self.0 as f64 * per as f64 / denom as f64
        }
    }

    /// Ratio of this counter to `denom` (0.0 when `denom` is zero).
    #[inline]
    pub fn ratio(self, denom: u64) -> f64 {
        self.per(denom, 1)
    }

    /// Reset back to zero (used between measurement phases, e.g. after cache
    /// warm-up).
    #[inline]
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Counter {
    fn from(v: u64) -> Self {
        Counter(v)
    }
}

impl core::ops::AddAssign<u64> for Counter {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basic_increments() {
        let mut c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c += 8;
        assert_eq!(c.get(), 50);
    }

    #[test]
    fn counter_per_kilo() {
        let mut c = Counter::new();
        c.add(5);
        // 5 events over 1000 instructions => 5.0 per kilo-instruction.
        assert!((c.per(1000, 1000) - 5.0).abs() < 1e-12);
        // 5 events over 2000 instructions => 2.5 per kilo.
        assert!((c.per(2000, 1000) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn counter_zero_denominator_is_zero_not_nan() {
        let c = Counter::from(7);
        assert_eq!(c.per(0, 1000), 0.0);
        assert_eq!(c.ratio(0), 0.0);
    }

    #[test]
    fn counter_reset() {
        let mut c = Counter::from(9);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_display() {
        let c = Counter::from(123);
        assert_eq!(format!("{c}"), "123");
        assert_eq!(format!("{c:?}"), "123");
    }
}

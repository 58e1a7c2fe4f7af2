//! Extrapolating measured write rates to lifetime-in-years.

use crate::{EnduranceSpec, WearTracker, SECONDS_PER_YEAR};

/// How writes are assumed to distribute over the slots *within* one bank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IntraBankWear {
    /// The paper's assumption: writes within a bank are leveled across its
    /// slots (intra-set/inter-set leveling is delegated to orthogonal
    /// schemes — i2wap, EqualChance — per the paper's §VI). The bank's
    /// effective per-slot write rate is `bank_writes / slots_per_bank`.
    #[default]
    Uniform,
    /// Pessimistic ablation: the bank dies when its *most-written* slot
    /// exhausts its endurance; per-slot rate is the max-slot rate.
    MaxSlot,
}

/// Turns a [`WearTracker`]'s measured counts over a simulated window into
/// per-bank lifetimes in years.
///
/// Lifetime of a bank is the wall-clock time until its (effective) per-slot
/// write count reaches the endurance budget, assuming the measured write
/// rate continues:
///
/// ```text
/// rate_slot   = effective_slot_writes / window_seconds
/// lifetime(y) = endurance / rate_slot / SECONDS_PER_YEAR
/// ```
///
/// Banks that absorbed zero writes have unbounded lifetime; they are reported
/// as `cap_years` (default 100) so harmonic means and plots stay finite —
/// the paper's figures top out near 13 years, far below any sensible cap.
#[derive(Clone, Copy, Debug)]
pub struct LifetimeModel {
    /// Endurance budget per line slot.
    pub endurance: EnduranceSpec,
    /// Core clock in Hz (cycles → seconds conversion), 2.4 GHz in Table I.
    pub freq_hz: f64,
    /// Intra-bank wear assumption.
    pub intra_bank: IntraBankWear,
    /// Reported lifetime for an unwritten bank, in years.
    pub cap_years: f64,
}

impl Default for LifetimeModel {
    fn default() -> Self {
        LifetimeModel {
            endurance: EnduranceSpec::PAPER,
            freq_hz: 2.4e9,
            intra_bank: IntraBankWear::Uniform,
            cap_years: 100.0,
        }
    }
}

impl LifetimeModel {
    /// Lifetime in years of one bank, given its counts over `window_cycles`.
    ///
    /// # Panics
    /// Panics if `window_cycles` is zero — lifetimes of an empty measurement
    /// window are meaningless and indicate a harness bug.
    pub fn bank_lifetime_years(
        &self,
        tracker: &WearTracker,
        bank: usize,
        window_cycles: u64,
    ) -> f64 {
        self.years_over_window(self.effective_slot_writes(tracker, bank), window_cycles)
    }

    /// One bank's effective per-slot write count under this model's
    /// intra-bank assumption: the count its lifetime extrapolates.
    pub fn effective_slot_writes(&self, tracker: &WearTracker, bank: usize) -> f64 {
        // With sub-block (compression) accounting the endurance budget is
        // per *cell*, and only written sub-blocks age: the effective count
        // is the mean (or max) cell-write count. On a tracker where every
        // write was full-line this reduces exactly to the line-level
        // arithmetic, so uncompressed schemes are unaffected.
        let (slots, subblocks) = (tracker.slots_per_bank(), tracker.subblocks_per_slot());
        match (self.intra_bank, subblocks) {
            (IntraBankWear::Uniform, 0) => tracker.bank_writes(bank) as f64 / slots as f64,
            (IntraBankWear::MaxSlot, 0) => tracker.max_slot_writes(bank) as f64,
            (IntraBankWear::Uniform, _) => {
                tracker.subblock_bank_writes(bank) as f64 / (slots * subblocks) as f64
            }
            (IntraBankWear::MaxSlot, _) => tracker.max_cell_writes(bank) as f64,
        }
    }

    /// Lifetime in years of a bank whose slots took `effective_writes` each
    /// over `window_cycles` (positive), capped at `cap_years`.
    pub fn years_over_window(&self, effective_writes: f64, window_cycles: u64) -> f64 {
        assert!(window_cycles > 0, "empty measurement window");
        if effective_writes <= 0.0 {
            return self.cap_years;
        }
        let window_seconds = window_cycles as f64 / self.freq_hz;
        let rate_per_second = effective_writes / window_seconds;
        let lifetime_years = self.endurance.writes_per_cell / rate_per_second / SECONDS_PER_YEAR;
        lifetime_years.min(self.cap_years)
    }

    /// Lifetimes of all banks, index = bank id.
    pub fn all_bank_lifetimes(&self, tracker: &WearTracker, window_cycles: u64) -> Vec<f64> {
        (0..tracker.nbanks())
            .map(|b| self.bank_lifetime_years(tracker, b, window_cycles))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker_with_writes(per_bank: &[u64], slots: usize) -> WearTracker {
        let mut t = WearTracker::new(per_bank.len(), slots);
        for (b, &n) in per_bank.iter().enumerate() {
            for i in 0..n {
                t.record_write(b, (i as usize) % slots);
            }
        }
        t
    }

    #[test]
    fn sanity_ballpark_years() {
        // One bank, 32768 slots, absorbing writes at 2.4e7/s:
        // per-slot rate = 732.4/s; lifetime = 1e11/732.4 s ≈ 4.33 years.
        let slots = 32768;
        let model = LifetimeModel::default();
        // Window: 2.4e9 cycles = 1 second. Writes: 2.4e7.
        let mut t = WearTracker::new(1, slots);
        for i in 0..2_400_000u64 {
            // scaled down 10x to keep the test fast; scale window too
            t.record_write(0, (i % slots as u64) as usize);
        }
        // 0.1 s window (2.4e8 cycles) with 2.4e6 writes = same 2.4e7/s rate.
        let years = model.bank_lifetime_years(&t, 0, 240_000_000);
        assert!(
            (years - 4.33).abs() < 0.1,
            "expected ≈4.33 years, got {years}"
        );
    }

    #[test]
    fn more_writes_shorter_life() {
        let t = tracker_with_writes(&[100, 1000], 16);
        let m = LifetimeModel::default();
        let l0 = m.bank_lifetime_years(&t, 0, 1_000_000);
        let l1 = m.bank_lifetime_years(&t, 1, 1_000_000);
        assert!(l0 > l1, "bank with 10x writes must live 10x shorter");
        assert!((l0 / l1 - 10.0).abs() < 1e-6);
    }

    #[test]
    fn unwritten_bank_capped() {
        let t = WearTracker::new(2, 16);
        let m = LifetimeModel::default();
        assert_eq!(m.bank_lifetime_years(&t, 0, 1000), 100.0);
    }

    #[test]
    fn custom_cap_respected() {
        let t = WearTracker::new(1, 16);
        let m = LifetimeModel {
            cap_years: 42.0,
            ..LifetimeModel::default()
        };
        assert_eq!(m.bank_lifetime_years(&t, 0, 1000), 42.0);
    }

    #[test]
    fn max_slot_is_pessimistic() {
        // All writes to one slot: uniform spreads them over 16 slots, so
        // max-slot lifetime must be 16x shorter.
        let mut t = WearTracker::new(1, 16);
        for _ in 0..1600 {
            t.record_write(0, 3);
        }
        let uniform = LifetimeModel::default();
        let maxslot = LifetimeModel {
            intra_bank: IntraBankWear::MaxSlot,
            ..LifetimeModel::default()
        };
        let lu = uniform.bank_lifetime_years(&t, 0, 1_000_000_000);
        let lm = maxslot.bank_lifetime_years(&t, 0, 1_000_000_000);
        assert!(lm < lu);
        assert!((lu / lm - 16.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "empty measurement window")]
    fn zero_window_panics() {
        let t = WearTracker::new(1, 1);
        LifetimeModel::default().bank_lifetime_years(&t, 0, 0);
    }

    #[test]
    fn compressed_cell_wear_extends_lifetime() {
        // Same 1000 line writes; the compressed tracker programs only 1
        // of 4 sub-blocks per write, so its mean cell-write count — and
        // therefore its write rate — is 4x lower: lifetime is 4x longer.
        let mut full = WearTracker::with_subblocks(1, 8, 4);
        let mut compact = WearTracker::with_subblocks(1, 8, 4);
        for i in 0..1000u64 {
            full.record_write(0, (i % 8) as usize);
            compact.record_subblock_write(0, (i % 8) as usize, 1 << (i % 4));
        }
        let m = LifetimeModel::default();
        let lf = m.bank_lifetime_years(&full, 0, 1_000_000);
        let lc = m.bank_lifetime_years(&compact, 0, 1_000_000);
        assert!((lc / lf - 4.0).abs() < 1e-9, "ratio {}", lc / lf);
        // And the full-line sub-block tracker matches the line-level model
        // exactly (the reduction the uncompressed schemes rely on).
        let mut line = WearTracker::new(1, 8);
        for i in 0..1000u64 {
            line.record_write(0, (i % 8) as usize);
        }
        assert_eq!(lf, m.bank_lifetime_years(&line, 0, 1_000_000));
    }

    #[test]
    fn doubling_frequency_halves_lifetime() {
        // Same cycle window at double frequency = half the wall-clock time
        // for the same writes = double the rate = half the lifetime.
        let t = tracker_with_writes(&[1000], 8);
        let slow = LifetimeModel {
            freq_hz: 1.2e9,
            ..LifetimeModel::default()
        };
        let fast = LifetimeModel {
            freq_hz: 2.4e9,
            ..LifetimeModel::default()
        };
        let ls = slow.bank_lifetime_years(&t, 0, 1_000_000);
        let lf = fast.bank_lifetime_years(&t, 0, 1_000_000);
        assert!((ls / lf - 2.0).abs() < 1e-9);
    }
}

//! Per-slot write counters for a banked cache.

use std::slice::SliceIndex;
use std::sync::atomic::{fence, AtomicU32, Ordering};
use std::sync::Arc;

/// Tracks every write into every physical line slot of a banked cache.
///
/// A *slot* is a (set, way) position inside one bank — the actual ReRAM
/// cells. The tracker keeps one 32-bit counter per slot, `nbanks ×
/// slots_per_bank` of them: for the paper's configuration (16 banks × 2 MB
/// / 64 B = 32768 slots) that is 2 MB of counters, cheap enough to keep
/// exact counts. The per-slot and per-cell arrays are copy-on-write: a
/// clone shares them until either handle writes, so snapshotting a
/// tracker (as `SimResult` does) copies only the per-bank totals.
/// A slot or cell counter that would pass `u32::MAX` panics rather than
/// wrap: lifetimes are extrapolated from a measured window, and a slot
/// absorbing 2^32 writes within one run would take far more simulated
/// cycles than any run has. Per-bank totals and every accessor are `u64`.
#[derive(Clone, Debug)]
pub struct WearTracker {
    nbanks: usize,
    slots_per_bank: usize,
    /// Row-major: `writes[bank * slots_per_bank + slot]`.
    writes: Counters,
    /// Per-bank totals, maintained incrementally (hot path reads these).
    bank_totals: Vec<u64>,
    /// Sub-blocks per slot when sub-block (compression) accounting is
    /// enabled; 0 disables it and leaves the arrays below empty.
    sb_per_slot: usize,
    /// Row-major cell counters:
    /// `subblock_writes[(bank * slots_per_bank + slot) * sb_per_slot + k]`.
    subblock_writes: Counters,
    /// Per-bank cell-write totals (sum over the bank's sub-block cells).
    sb_bank_totals: Vec<u64>,
    /// Cache-wide totals per sub-block *position* `k` — the input of
    /// [`WearTracker::subblock_cv`].
    sb_position_totals: Vec<u64>,
}

/// A fixed-length array of `u32` counters whose clones share storage until
/// one of them writes.
///
/// Counters are read and written with `Relaxed` loads and stores — plain
/// moves on x86-64 — so a write costs one load of the reference count and
/// no locked instruction. Every write goes through [`Counters::unique`],
/// which first copies the array if another handle shares it. No `Weak`
/// handle is ever made, so a strong count of 1 means this handle is the
/// only one, and no other handle can see the write.
#[derive(Clone, Debug)]
struct Counters(Arc<[AtomicU32]>);

impl Counters {
    /// `n` zero counters. Collecting an exact-size iterator allocates the
    /// `Arc` once; going through a `Vec` would briefly hold two copies.
    fn zeroed(n: usize) -> Self {
        Counters((0..n).map(|_| AtomicU32::new(0)).collect())
    }

    #[inline]
    fn get(&self, i: usize) -> u32 {
        self.0[i].load(Ordering::Relaxed)
    }

    /// The counters of `range`, in order.
    fn values<R>(&self, range: R) -> impl Iterator<Item = u32> + '_
    where
        R: SliceIndex<[AtomicU32], Output = [AtomicU32]>,
    {
        self.0[range].iter().map(|c| c.load(Ordering::Relaxed))
    }

    /// The counters, for writing: copies them into a fresh array first if
    /// another handle shares this one.
    #[inline]
    fn unique(&mut self) -> &[AtomicU32] {
        if Arc::strong_count(&self.0) != 1 {
            self.0 = self.values(..).map(AtomicU32::new).collect();
        } else {
            // Pairs with the `Release` decrement of the last other handle's
            // drop: its reads happen before this handle's writes.
            fence(Ordering::Acquire);
        }
        &self.0
    }

    /// True when both handles share one array.
    fn shares_with(&self, other: &Counters) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Overwrite counter `i` (tests that start near `u32::MAX`).
    #[cfg(test)]
    fn set(&mut self, i: usize, v: u32) {
        self.unique()[i].store(v, Ordering::Relaxed);
    }
}

/// Add one to a counter, panicking instead of wrapping. The caller holds
/// the array exclusively (see [`Counters::unique`]).
#[inline]
fn bump(counter: &AtomicU32) {
    match counter.load(Ordering::Relaxed).checked_add(1) {
        Some(v) => counter.store(v, Ordering::Relaxed),
        None => counter_overflow(),
    }
}

#[cold]
#[inline(never)]
fn counter_overflow() -> ! {
    panic!("wear counter overflow: a slot or cell passed u32::MAX writes")
}

impl WearTracker {
    /// Create a tracker for `nbanks` banks of `slots_per_bank` line slots.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(nbanks: usize, slots_per_bank: usize) -> Self {
        assert!(nbanks > 0, "need at least one bank");
        assert!(slots_per_bank > 0, "need at least one slot per bank");
        WearTracker {
            nbanks,
            slots_per_bank,
            writes: Counters::zeroed(nbanks * slots_per_bank),
            bank_totals: vec![0; nbanks],
            sb_per_slot: 0,
            subblock_writes: Counters::zeroed(0),
            sb_bank_totals: Vec::new(),
            sb_position_totals: Vec::new(),
        }
    }

    /// Create a tracker that additionally counts writes per sub-block
    /// *cell*: each slot is divided into `sb_per_slot` sub-blocks and a
    /// compressed write ages only the cells its mask covers (see
    /// [`WearTracker::record_subblock_write`]). [`WearTracker::record_write`]
    /// on such a tracker charges every cell of the slot — a full-line
    /// (uncompressed) write.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn with_subblocks(nbanks: usize, slots_per_bank: usize, sb_per_slot: usize) -> Self {
        assert!(sb_per_slot > 0, "need at least one sub-block per slot");
        let mut t = WearTracker::new(nbanks, slots_per_bank);
        t.sb_per_slot = sb_per_slot;
        t.subblock_writes = Counters::zeroed(nbanks * slots_per_bank * sb_per_slot);
        t.sb_bank_totals = vec![0; nbanks];
        t.sb_position_totals = vec![0; sb_per_slot];
        t
    }

    /// True when `self` and `other` share every per-slot and per-cell
    /// counter array, as a fresh clone does until either one writes.
    #[doc(hidden)]
    pub fn shares_counters_with(&self, other: &WearTracker) -> bool {
        self.writes.shares_with(&other.writes)
            && self.subblock_writes.shares_with(&other.subblock_writes)
    }

    /// Number of banks tracked.
    #[inline]
    pub fn nbanks(&self) -> usize {
        self.nbanks
    }

    /// Number of line slots per bank.
    #[inline]
    pub fn slots_per_bank(&self) -> usize {
        self.slots_per_bank
    }

    /// Record one write into `slot` of `bank`.
    ///
    /// # Panics
    /// Debug-asserts the indices; in release an out-of-range index panics via
    /// the slice bound check (a simulator bug, not a recoverable condition).
    /// Panics if a counter would pass `u32::MAX`.
    #[inline]
    pub fn record_write(&mut self, bank: usize, slot: usize) {
        debug_assert!(bank < self.nbanks, "bank {bank} out of range");
        debug_assert!(slot < self.slots_per_bank, "slot {slot} out of range");
        bump(&self.writes.unique()[bank * self.slots_per_bank + slot]);
        self.bank_totals[bank] += 1;
        if self.sb_per_slot != 0 {
            // Uncompressed full-line write: every cell of the slot ages.
            let base = (bank * self.slots_per_bank + slot) * self.sb_per_slot;
            let cells = &self.subblock_writes.unique()[base..base + self.sb_per_slot];
            for (k, cell) in cells.iter().enumerate() {
                bump(cell);
                self.sb_position_totals[k] += 1;
            }
            self.sb_bank_totals[bank] += self.sb_per_slot as u64;
        }
    }

    /// Record one *compressed* line write into `slot` of `bank`: the line
    /// counter advances by one (exactly like [`WearTracker::record_write`])
    /// but only the sub-block cells set in `mask` age — bit `k` of `mask`
    /// is sub-block `k`. This keeps the line-level invariants (bank
    /// totals, per-slot histograms) identical to the uncompressed model
    /// while the cell counters capture the wear reduction.
    ///
    /// # Panics
    /// Panics (debug) if sub-block accounting is disabled, the indices are
    /// out of range, or `mask` addresses cells past `sb_per_slot`; panics if
    /// a counter would pass `u32::MAX`.
    #[inline]
    pub fn record_subblock_write(&mut self, bank: usize, slot: usize, mask: u64) {
        debug_assert!(self.sb_per_slot != 0, "sub-block accounting disabled");
        debug_assert!(bank < self.nbanks, "bank {bank} out of range");
        debug_assert!(slot < self.slots_per_bank, "slot {slot} out of range");
        debug_assert!(
            self.sb_per_slot == 64 || mask < (1u64 << self.sb_per_slot),
            "mask {mask:#x} exceeds {} sub-blocks",
            self.sb_per_slot
        );
        bump(&self.writes.unique()[bank * self.slots_per_bank + slot]);
        self.bank_totals[bank] += 1;
        let base = (bank * self.slots_per_bank + slot) * self.sb_per_slot;
        let cells = self.subblock_writes.unique();
        let mut m = mask;
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            bump(&cells[base + k]);
            self.sb_position_totals[k] += 1;
            m &= m - 1;
        }
        self.sb_bank_totals[bank] += mask.count_ones() as u64;
    }

    /// Sub-blocks per slot; 0 when sub-block accounting is disabled.
    #[inline]
    pub fn subblocks_per_slot(&self) -> usize {
        self.sb_per_slot
    }

    /// Cell writes of sub-block `k` of `slot` of `bank`.
    ///
    /// # Panics
    /// Panics if sub-block accounting is disabled or an index is out of
    /// range.
    #[inline]
    pub fn cell_writes(&self, bank: usize, slot: usize, k: usize) -> u64 {
        assert!(self.sb_per_slot != 0, "sub-block accounting disabled");
        assert!(k < self.sb_per_slot, "sub-block {k} out of range");
        self.subblock_writes
            .get((bank * self.slots_per_bank + slot) * self.sb_per_slot + k) as u64
    }

    /// Sum of cell writes over one slot's sub-blocks.
    pub fn subblock_slot_sum(&self, bank: usize, slot: usize) -> u64 {
        assert!(self.sb_per_slot != 0, "sub-block accounting disabled");
        let base = (bank * self.slots_per_bank + slot) * self.sb_per_slot;
        self.subblock_writes
            .values(base..base + self.sb_per_slot)
            .map(u64::from)
            .sum()
    }

    /// Total cell writes absorbed by `bank`.
    #[inline]
    pub fn subblock_bank_writes(&self, bank: usize) -> u64 {
        assert!(self.sb_per_slot != 0, "sub-block accounting disabled");
        self.sb_bank_totals[bank]
    }

    /// Total cell writes across all banks.
    pub fn subblock_total_writes(&self) -> u64 {
        self.sb_bank_totals.iter().sum()
    }

    /// The most-written sub-block *cell* of `bank` (its count) — the
    /// pessimistic wear-out input under compression, twin of
    /// [`WearTracker::max_slot_writes`].
    pub fn max_cell_writes(&self, bank: usize) -> u64 {
        assert!(self.sb_per_slot != 0, "sub-block accounting disabled");
        let stride = self.slots_per_bank * self.sb_per_slot;
        let base = bank * stride;
        self.subblock_writes
            .values(base..base + stride)
            .max()
            .unwrap_or(0) as u64
    }

    /// Total writes absorbed by `bank`.
    #[inline]
    pub fn bank_writes(&self, bank: usize) -> u64 {
        self.bank_totals[bank]
    }

    /// Per-bank totals as a slice (index = bank id).
    #[inline]
    pub fn bank_totals(&self) -> &[u64] {
        &self.bank_totals
    }

    /// Total writes across all banks.
    pub fn total_writes(&self) -> u64 {
        self.bank_totals.iter().sum()
    }

    /// The most-written slot of `bank` (its count).
    pub fn max_slot_writes(&self, bank: usize) -> u64 {
        let base = bank * self.slots_per_bank;
        self.writes
            .values(base..base + self.slots_per_bank)
            .max()
            .unwrap_or(0) as u64
    }

    /// Writes of an individual slot.
    #[inline]
    pub fn slot_writes(&self, bank: usize, slot: usize) -> u64 {
        self.writes.get(bank * self.slots_per_bank + slot) as u64
    }

    /// Coefficient of variation (stdev / mean) of the per-set write totals
    /// over every set of every bank, with `assoc` ways per set (slot index
    /// = `set * assoc + way`). This is the *inter-set* write variation the
    /// coloring-style remaps flatten: 0 means every set absorbs the same
    /// number of writes.
    ///
    /// # Panics
    /// Panics unless `assoc` divides the slots-per-bank geometry.
    pub fn interset_cv(&self, assoc: usize) -> f64 {
        assert!(
            assoc > 0 && self.slots_per_bank % assoc == 0,
            "assoc {assoc} must divide {} slots per bank",
            self.slots_per_bank
        );
        let sets_per_bank = self.slots_per_bank / assoc;
        let mut totals = Vec::with_capacity(self.nbanks * sets_per_bank);
        for bank in 0..self.nbanks {
            for set in 0..sets_per_bank {
                let base = bank * self.slots_per_bank + set * assoc;
                let set_total: u64 = self.writes.values(base..base + assoc).map(u64::from).sum();
                totals.push(set_total as f64);
            }
        }
        sim_stats::cv(&totals)
    }

    /// Mean, over every set that absorbed at least one write, of the
    /// coefficient of variation across that set's per-way counters — the
    /// *intra-set* write variation that write-aware replacement (MAC)
    /// flattens. 0 when no set has been written.
    ///
    /// # Panics
    /// Panics unless `assoc` divides the slots-per-bank geometry.
    pub fn intraset_cv(&self, assoc: usize) -> f64 {
        assert!(
            assoc > 0 && self.slots_per_bank % assoc == 0,
            "assoc {assoc} must divide {} slots per bank",
            self.slots_per_bank
        );
        let sets_per_bank = self.slots_per_bank / assoc;
        let mut sum = 0.0;
        let mut touched = 0usize;
        for bank in 0..self.nbanks {
            for set in 0..sets_per_bank {
                let base = bank * self.slots_per_bank + set * assoc;
                let ways: Vec<f64> = self
                    .writes
                    .values(base..base + assoc)
                    .map(f64::from)
                    .collect();
                if ways.iter().any(|&w| w > 0.0) {
                    sum += sim_stats::cv(&ways);
                    touched += 1;
                }
            }
        }
        if touched == 0 {
            0.0
        } else {
            sum / touched as f64
        }
    }

    /// Coefficient of variation of the cache-wide totals per sub-block
    /// *position* (cell `k` summed over every slot of every bank) — the
    /// rotation-balance gauge beside [`WearTracker::interset_cv`] and
    /// [`WearTracker::intraset_cv`]: 0 means the compressed writes land
    /// evenly across the line, which is the forecast's uniform-intra-line
    /// wear assumption.
    ///
    /// # Panics
    /// Panics if sub-block accounting is disabled.
    pub fn subblock_cv(&self) -> f64 {
        assert!(self.sb_per_slot != 0, "sub-block accounting disabled");
        let totals: Vec<f64> = self.sb_position_totals.iter().map(|&w| w as f64).collect();
        sim_stats::cv(&totals)
    }

    /// Reset all counters (between warm-up and measurement).
    pub fn reset(&mut self) {
        for counters in [&mut self.writes, &mut self.subblock_writes] {
            for c in counters.unique() {
                c.store(0, Ordering::Relaxed);
            }
        }
        self.bank_totals.iter_mut().for_each(|w| *w = 0);
        self.sb_bank_totals.iter_mut().for_each(|w| *w = 0);
        self.sb_position_totals.iter_mut().for_each(|w| *w = 0);
    }

    /// Register the wear picture under dotted paths: `<prefix>.total_writes`,
    /// then per bank `<prefix>.bank[i].writes`,
    /// `<prefix>.bank[i].max_slot_writes` and
    /// `<prefix>.bank[i].min_endurance_frac` — the remaining endurance
    /// fraction of the bank's most-written slot under `endurance`
    /// (1.0 = pristine, 0.0 = the hottest slot is worn out), clamped to 0.
    pub fn register(
        &self,
        reg: &mut sim_stats::StatsRegistry,
        prefix: &str,
        endurance: &crate::endurance::EnduranceSpec,
    ) {
        reg.set(format!("{prefix}.total_writes"), self.total_writes());
        if self.sb_per_slot != 0 {
            reg.set(
                format!("{prefix}.subblock_total_writes"),
                self.subblock_total_writes(),
            );
        }
        for b in 0..self.nbanks {
            let max_slot = self.max_slot_writes(b);
            reg.set(format!("{prefix}.bank[{b}].writes"), self.bank_writes(b));
            reg.set(format!("{prefix}.bank[{b}].max_slot_writes"), max_slot);
            let frac = (1.0 - max_slot as f64 / endurance.writes_per_cell).max(0.0);
            reg.set(format!("{prefix}.bank[{b}].min_endurance_frac"), frac);
            if self.sb_per_slot != 0 {
                reg.set(
                    format!("{prefix}.bank[{b}].subblock_writes"),
                    self.subblock_bank_writes(b),
                );
                reg.set(
                    format!("{prefix}.bank[{b}].max_cell_writes"),
                    self.max_cell_writes(b),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_tracker_is_zero() {
        let t = WearTracker::new(4, 8);
        assert_eq!(t.nbanks(), 4);
        assert_eq!(t.slots_per_bank(), 8);
        assert_eq!(t.total_writes(), 0);
        assert_eq!(t.max_slot_writes(3), 0);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        WearTracker::new(0, 8);
    }

    #[test]
    fn record_and_query() {
        let mut t = WearTracker::new(2, 4);
        t.record_write(0, 1);
        t.record_write(0, 1);
        t.record_write(1, 3);
        assert_eq!(t.bank_writes(0), 2);
        assert_eq!(t.bank_writes(1), 1);
        assert_eq!(t.slot_writes(0, 1), 2);
        assert_eq!(t.slot_writes(0, 0), 0);
        assert_eq!(t.max_slot_writes(0), 2);
        assert_eq!(t.total_writes(), 3);
        assert_eq!(t.bank_totals(), &[2, 1]);
    }

    #[test]
    fn bank_totals_consistent_with_slots() {
        let mut t = WearTracker::new(2, 3);
        for s in 0..3 {
            for _ in 0..(s + 1) {
                t.record_write(1, s);
            }
        }
        let slot_sum: u64 = (0..3).map(|s| t.slot_writes(1, s)).sum();
        assert_eq!(slot_sum, t.bank_writes(1));
        assert_eq!(t.bank_writes(1), 6);
    }

    #[test]
    fn cv_counters_pin_exact_values() {
        // 2 banks × 4 slots, assoc 2 → sets (bank, set): (0,0) ways (3,1),
        // (0,1) untouched, (1,0) ways (2,2), (1,1) ways (0,8).
        let mut t = WearTracker::new(2, 4);
        for (slot, n) in [(0, 3u64), (1, 1)] {
            for _ in 0..n {
                t.record_write(0, slot);
            }
        }
        for (slot, n) in [(0, 2u64), (1, 2), (3, 8)] {
            for _ in 0..n {
                t.record_write(1, slot);
            }
        }
        // Set totals [4, 0, 4, 8]: mean 4, population stdev √8.
        assert_eq!(t.interset_cv(2), 8.0f64.sqrt() / 4.0);
        // Touched-set CVs: (3,1) → 0.5, (2,2) → 0, (0,8) → 1; mean 0.5.
        assert_eq!(t.intraset_cv(2), 0.5);
    }

    #[test]
    fn cv_counters_are_zero_on_a_pristine_tracker() {
        let t = WearTracker::new(2, 4);
        assert_eq!(t.interset_cv(2), 0.0);
        assert_eq!(t.intraset_cv(2), 0.0);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn cv_counters_reject_bad_assoc() {
        WearTracker::new(2, 4).interset_cv(3);
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = WearTracker::new(2, 2);
        t.record_write(0, 0);
        t.record_write(1, 1);
        t.reset();
        assert_eq!(t.total_writes(), 0);
        assert_eq!(t.slot_writes(1, 1), 0);
    }

    #[test]
    fn subblock_writes_age_only_masked_cells() {
        let mut t = WearTracker::with_subblocks(2, 2, 4);
        t.record_subblock_write(0, 1, 0b0011); // cells 0,1
        t.record_subblock_write(0, 1, 0b1000); // cell 3
        t.record_subblock_write(1, 0, 0b0001); // cell 0
                                               // Line-level accounting is unchanged by compression.
        assert_eq!(t.slot_writes(0, 1), 2);
        assert_eq!(t.bank_totals(), &[2, 1]);
        // Cell-level accounting follows the masks.
        assert_eq!(t.cell_writes(0, 1, 0), 1);
        assert_eq!(t.cell_writes(0, 1, 1), 1);
        assert_eq!(t.cell_writes(0, 1, 2), 0);
        assert_eq!(t.cell_writes(0, 1, 3), 1);
        assert_eq!(t.subblock_slot_sum(0, 1), 3);
        assert_eq!(t.subblock_bank_writes(0), 3);
        assert_eq!(t.subblock_total_writes(), 4);
        assert_eq!(t.max_cell_writes(0), 1);
    }

    #[test]
    fn full_line_write_ages_every_cell_when_subblocks_enabled() {
        let mut t = WearTracker::with_subblocks(1, 2, 4);
        t.record_write(0, 0);
        assert_eq!(t.subblock_slot_sum(0, 0), 4);
        assert_eq!(t.slot_writes(0, 0), 1);
        for k in 0..4 {
            assert_eq!(t.cell_writes(0, 0, k), 1);
        }
    }

    #[test]
    fn subblock_cv_pins_exact_value() {
        // Position totals [3, 1, 0, 0]: mean 1, population stdev
        // √((4+0+1+1)/4) = √1.5.
        let mut t = WearTracker::with_subblocks(1, 4, 4);
        t.record_subblock_write(0, 0, 0b0001);
        t.record_subblock_write(0, 1, 0b0011);
        t.record_subblock_write(0, 2, 0b0001);
        assert_eq!(t.subblock_cv(), 1.5f64.sqrt());
        // Perfectly rotated writes flatten the gauge to 0.
        let mut u = WearTracker::with_subblocks(1, 4, 4);
        for k in 0..4u64 {
            u.record_subblock_write(0, 0, 1 << k);
        }
        assert_eq!(u.subblock_cv(), 0.0);
    }

    #[test]
    #[should_panic(expected = "sub-block accounting disabled")]
    fn subblock_cv_requires_subblock_mode() {
        WearTracker::new(1, 4).subblock_cv();
    }

    #[test]
    fn subblock_counters_clear_on_reset() {
        let mut a = WearTracker::with_subblocks(1, 2, 2);
        a.record_subblock_write(0, 0, 0b01);
        a.record_subblock_write(0, 0, 0b11);
        assert_eq!(a.subblock_slot_sum(0, 0), 3);
        assert_eq!(a.subblock_total_writes(), 3);
        a.reset();
        assert_eq!(a.subblock_total_writes(), 0);
        assert_eq!(a.subblock_cv(), 0.0);
    }

    #[test]
    fn counters_reach_u32_max_and_report_it_as_u64() {
        let mut t = WearTracker::with_subblocks(1, 2, 2);
        t.writes.set(1, u32::MAX - 1);
        t.subblock_writes.set(2, u32::MAX - 1);
        t.record_write(0, 1);
        assert_eq!(t.slot_writes(0, 1), u32::MAX as u64);
        assert_eq!(t.cell_writes(0, 1, 0), u32::MAX as u64);
        assert_eq!(t.max_slot_writes(0), u32::MAX as u64);
        assert_eq!(t.subblock_slot_sum(0, 1), u32::MAX as u64 + 1);
    }

    #[test]
    #[should_panic(expected = "wear counter overflow")]
    fn slot_counter_overflow_panics() {
        let mut t = WearTracker::new(2, 2);
        t.writes.set(3, u32::MAX);
        t.record_write(1, 1);
    }

    #[test]
    #[should_panic(expected = "wear counter overflow")]
    fn cell_counter_overflow_panics_on_full_line_write() {
        let mut t = WearTracker::with_subblocks(1, 2, 4);
        t.subblock_writes.set(4 + 3, u32::MAX);
        t.record_write(0, 1);
    }

    #[test]
    #[should_panic(expected = "wear counter overflow")]
    fn cell_counter_overflow_panics_on_compressed_write() {
        let mut t = WearTracker::with_subblocks(1, 2, 4);
        t.subblock_writes.set(2, u32::MAX);
        t.record_subblock_write(0, 0, 0b0100);
    }

    /// Every slot and cell count of `t`, in index order.
    fn snapshot(t: &WearTracker) -> (Vec<u32>, Vec<u32>) {
        (
            t.writes.values(..).collect(),
            t.subblock_writes.values(..).collect(),
        )
    }

    /// A sub-block tracker with some writes in it, and a clone of it.
    fn written_pair() -> (WearTracker, WearTracker) {
        let mut t = WearTracker::with_subblocks(2, 4, 4);
        t.record_write(0, 1);
        t.record_subblock_write(1, 2, 0b0110);
        t.record_subblock_write(1, 3, 0b1000);
        let c = t.clone();
        (t, c)
    }

    #[test]
    fn clone_shares_counter_storage() {
        let (t, c) = written_pair();
        assert!(t.shares_counters_with(&c));
        assert!(c.shares_counters_with(&t));
        assert_eq!(snapshot(&t), snapshot(&c));
        let u = WearTracker::with_subblocks(2, 4, 4);
        assert!(!t.shares_counters_with(&u));
    }

    /// Apply `write` to one handle of a fresh clone pair, and check that
    /// the other handle still holds the pre-write counts and that the two
    /// no longer share storage. Runs once writing through the original and
    /// once through the clone.
    fn check_write_leaves_other_handle(write: impl Fn(&mut WearTracker)) {
        for write_original in [true, false] {
            let (mut t, mut c) = written_pair();
            let before = snapshot(&t);
            let (written, other) = if write_original {
                (&mut t, &c)
            } else {
                (&mut c, &t)
            };
            write(written);
            assert_ne!(snapshot(written), before, "the write must land");
            assert_eq!(snapshot(other), before, "the other handle must not see it");
            assert_eq!(other.total_writes(), 3);
            assert_eq!(other.subblock_total_writes(), 4 + 2 + 1);
            assert!(!t.shares_counters_with(&c));
        }
    }

    #[test]
    fn record_write_after_clone_leaves_other_handle_unchanged() {
        check_write_leaves_other_handle(|t| t.record_write(1, 2));
    }

    #[test]
    fn record_subblock_write_after_clone_leaves_other_handle_unchanged() {
        check_write_leaves_other_handle(|t| t.record_subblock_write(0, 0, 0b0001));
    }

    #[test]
    fn reset_after_clone_leaves_other_handle_unchanged() {
        check_write_leaves_other_handle(|t| t.reset());
    }

    #[test]
    fn sole_handle_writes_in_place() {
        let (mut t, c) = written_pair();
        drop(c);
        // No other handle left: writes reuse the same arrays.
        let slots = Arc::as_ptr(&t.writes.0);
        let cells = Arc::as_ptr(&t.subblock_writes.0);
        t.record_write(0, 0);
        t.record_subblock_write(0, 0, 0b0001);
        t.reset();
        assert_eq!(Arc::as_ptr(&t.writes.0), slots);
        assert_eq!(Arc::as_ptr(&t.subblock_writes.0), cells);
    }

    #[test]
    #[should_panic(expected = "wear counter overflow")]
    fn slot_overflow_panics_through_a_shared_handle() {
        let mut t = WearTracker::with_subblocks(1, 2, 2);
        t.writes.set(1, u32::MAX);
        let c = t.clone();
        assert!(t.shares_counters_with(&c));
        t.record_write(0, 1);
    }

    #[test]
    #[should_panic(expected = "wear counter overflow")]
    fn cell_overflow_panics_through_a_shared_handle() {
        let mut t = WearTracker::with_subblocks(1, 2, 2);
        t.subblock_writes.set(3, u32::MAX);
        let c = t.clone();
        assert!(t.shares_counters_with(&c));
        t.record_subblock_write(0, 1, 0b10);
    }
}

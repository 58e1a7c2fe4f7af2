//! Set-associative cache with true-LRU replacement.
//!
//! One `SetAssocCache` models a single physically-indexed cache array: an
//! L1D, a private L2, or one L3 NUCA bank. It tracks valid/dirty state per
//! way and reports the physical slot `(set, way)` of every fill so the wear
//! model can charge writes to the ReRAM cells that actually absorb them.
//!
//! Set indexing uses an XOR-folded hash of the line address (optional, on
//! for L3 banks) so that NUCA bank-selection bits and large power-of-two
//! strides do not alias pathologically.
//!
//! Per-line state is kept in 32-bit lanes (DESIGN.md §16): a line address
//! fits a `u32` tag because a system has at most
//! [`crate::config::MAX_CORES`] cores of 2^22 lines each, and the LRU
//! clock is renormalised before it can overflow its `u32` lane.

use crate::config::CacheGeometry;
use sim_stats::Counter;

/// Outcome of a lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupResult {
    /// Line present; `way` within its set.
    Hit {
        /// Set index of the line.
        set: usize,
        /// Way within the set.
        way: usize,
    },
    /// Line absent.
    Miss,
}

/// A line evicted by a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Eviction {
    /// Line address of the victim.
    pub line: u64,
    /// Whether the victim held modified data (needs writeback).
    pub dirty: bool,
}

/// Result of a fill: the slot used plus the victim, if a valid line was
/// displaced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FillOutcome {
    /// Set index the line was placed in.
    pub set: usize,
    /// Way the line was placed in.
    pub way: usize,
    /// Displaced valid line, if any.
    pub evicted: Option<Eviction>,
}

/// Per-cache hit/miss/writeback counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: Counter,
    /// Lookups that missed.
    pub misses: Counter,
    /// Fills performed.
    pub fills: Counter,
    /// Dirty evictions produced.
    pub dirty_evictions: Counter,
}

impl CacheStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits.get() + self.misses.get()
    }

    /// Hit rate in \[0,1\]; 0 for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        self.hits.ratio(self.accesses())
    }

    /// Register every counter plus the derived hit rate under
    /// `<prefix>.hits`, `<prefix>.misses`, `<prefix>.fills`,
    /// `<prefix>.dirty_evictions`, `<prefix>.hit_rate`.
    pub fn register(&self, reg: &mut sim_stats::StatsRegistry, prefix: &str) {
        reg.set(format!("{prefix}.hits"), self.hits.get());
        reg.set(format!("{prefix}.misses"), self.misses.get());
        reg.set(format!("{prefix}.fills"), self.fills.get());
        reg.set(
            format!("{prefix}.dirty_evictions"),
            self.dirty_evictions.get(),
        );
        reg.set(format!("{prefix}.hit_rate"), self.hit_rate());
    }
}

/// Tag of a way that holds no line. No line address reaches it: physical
/// lines stay below 2^27 (see [`crate::config::MAX_CORES`]).
const INVALID_TAG: u32 = u32::MAX;

/// The victim scan's "no candidate yet" stamp. Real stamps stay strictly
/// below it: the clock is renormalised before an access or fill would
/// advance it to this value.
const NO_STAMP: u32 = u32::MAX;

/// The 32-bit tag of `line`, or `None` when the line lies outside the tag
/// range (such a line can never be resident).
#[inline]
fn tag_of(line: u64) -> Option<u32> {
    u32::try_from(line).ok().filter(|&t| t != INVALID_TAG)
}

/// Victim-selection policy of a [`SetAssocCache`].
///
/// Placement schemes choose the replacement of the L3 banks they drive via
/// [`crate::placement::LlcPlacement::l3_replacement`]; everything else
/// (L1/L2/TLB arrays) stays true-LRU. All kinds share the same tie-break
/// discipline: ways are scanned in order and a candidate only displaces the
/// current victim on a *strictly* smaller stamp, so victim choice is a pure
/// function of the set's contents — the golden model mirrors it exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplacementKind {
    /// True LRU: first invalid way, else the smallest stamp.
    #[default]
    Lru,
    /// MAC-style write-aware replacement (Ruan et al., arXiv:1606.03248):
    /// prefer evicting *clean* lines so dirty victims — each of which costs
    /// a ReRAM write somewhere below — stay resident longer. Victim levels:
    /// invalid way, else LRU among clean lines, else LRU among dirty lines.
    WriteAware,
    /// Deliberately wrong twin of [`ReplacementKind::WriteAware`] that
    /// prefers evicting *dirty* lines first. Exists only as the injected
    /// bug for the MAC mutation self-check (`experiments::diff`); never
    /// built by a production scheme.
    DirtyFirst,
}

/// A set-associative, write-back, write-allocate cache array.
///
/// Per-line metadata is stored structure-of-arrays: parallel `tags` /
/// `dirty` / `stamps` vectors indexed by `set * assoc + way`. A lookup
/// only touches the tag lane (4 contiguous bytes per way, with `u32::MAX`
/// marking an empty way), so a 16-way set's tags fill one 64 B host line
/// and the common probe/access path never loads the LRU stamps or dirty
/// bits it does not need.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    sets: usize,
    assoc: usize,
    set_mask: u64,
    hash_index: bool,
    /// Victim-selection policy (see [`ReplacementKind`]).
    replacement: ReplacementKind,
    /// Intra-bank wear-leveling rotation: logical set `s` lives in physical
    /// row `(s + set_shift) % sets`. Rotating the shift migrates hot sets
    /// across the physical array — the i2wap-style inter-set leveling the
    /// paper's §VI describes as complementary to Re-NUCA. Affects only the
    /// *physical slot* reported for wear accounting; lookup semantics are
    /// unchanged (tags are logical).
    set_shift: usize,
    /// Line address per way; [`INVALID_TAG`] where the way is empty.
    tags: Vec<u32>,
    /// Whether the way holds modified data (meaningful only where valid).
    dirty: Vec<bool>,
    /// LRU stamp per way: the access clock at last touch. Only the order
    /// of stamps within a set is meaningful (see [`Self::renormalize`]).
    stamps: Vec<u32>,
    clock: u32,
    /// Event counters.
    pub stats: CacheStats,
}

impl SetAssocCache {
    /// Build a cache from a geometry. `hash_index` enables XOR-folded set
    /// indexing (recommended for L3 banks, where the low line bits select
    /// the bank under S-NUCA and must not starve sets).
    pub fn new(geo: CacheGeometry, hash_index: bool) -> Self {
        Self::with_replacement(geo, hash_index, ReplacementKind::Lru)
    }

    /// Build a cache with an explicit victim-selection policy. Used by the
    /// hierarchy for L3 banks, whose replacement is chosen by the placement
    /// scheme; `new` keeps every other array on true LRU.
    pub fn with_replacement(
        geo: CacheGeometry,
        hash_index: bool,
        replacement: ReplacementKind,
    ) -> Self {
        let sets = geo.sets();
        let slots = sets * geo.assoc;
        SetAssocCache {
            sets,
            assoc: geo.assoc,
            set_mask: sets as u64 - 1,
            hash_index,
            replacement,
            set_shift: 0,
            tags: vec![INVALID_TAG; slots],
            dirty: vec![false; slots],
            stamps: vec![0; slots],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The victim-selection policy this array was built with.
    pub fn replacement(&self) -> ReplacementKind {
        self.replacement
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Physical slot index (for wear tracking): the rotated row times the
    /// associativity plus the way. With a zero shift this is simply
    /// `set * assoc + way`.
    #[inline]
    pub fn slot_index(&self, set: usize, way: usize) -> usize {
        ((set + self.set_shift) & self.set_mask as usize) * self.assoc + way
    }

    /// Current wear-leveling rotation offset.
    pub fn set_shift(&self) -> usize {
        self.set_shift
    }

    /// Advance the intra-bank wear-leveling rotation by one row: logical
    /// sets migrate to their physical neighbours. Every resident line is
    /// invalidated (the physical rows now belong to different logical
    /// sets) and returned so the caller can clean up inclusion, coherence
    /// and placement state — and write dirty data back. This flush-based
    /// model is a conservative simplification of i2wap's gradual swaps;
    /// rotations are infrequent (every N-hundred-thousand writes), so the
    /// flush cost is amortized to noise.
    pub fn rotate_set_mapping(&mut self) -> Vec<Eviction> {
        self.set_shift = (self.set_shift + 1) & self.set_mask as usize;
        let mut flushed = Vec::new();
        for slot in 0..self.tags.len() {
            if self.tags[slot] != INVALID_TAG {
                flushed.push(Eviction {
                    line: self.tags[slot] as u64,
                    dirty: self.dirty[slot],
                });
                self.tags[slot] = INVALID_TAG;
                self.dirty[slot] = false;
            }
        }
        flushed
    }

    /// Set index of a line address.
    #[inline]
    pub fn set_of(&self, line: u64) -> usize {
        let idx = if self.hash_index {
            // XOR-fold three windows of the line address. Mixes in the NUCA
            // bank bits' neighbours and the per-core address-space bits.
            line ^ (line >> 11) ^ (line >> 22)
        } else {
            line
        };
        (idx & self.set_mask) as usize
    }

    /// The way holding `line` within `set`, if present. The tag scan
    /// touches only the contiguous tag lane: empty ways hold
    /// [`INVALID_TAG`], which no line's tag equals.
    #[inline]
    fn find(&self, set: usize, line: u64) -> Option<usize> {
        let tag = tag_of(line)?;
        let base = set * self.assoc;
        self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == tag)
    }

    /// Advance the LRU clock for an access or fill, renormalising first if
    /// the advance would reach [`NO_STAMP`].
    #[inline]
    fn tick(&mut self) -> u32 {
        if self.clock == NO_STAMP - 1 {
            self.renormalize();
        }
        self.clock += 1;
        self.clock
    }

    /// Rewrite every stamp as its dense rank among its set's stamps below
    /// the clock, and stamps equal to the clock (ways touched by the latest
    /// access, fill or `mark_dirty`) as the new clock `assoc`. Order and
    /// ties within each set — including ties with the clock, which
    /// `mark_dirty` creates — are preserved, and victim choice compares
    /// stamps only within a set, so every later eviction is unchanged.
    #[cold]
    fn renormalize(&mut self) {
        let (clock, top) = (self.clock, self.assoc as u32);
        let mut ranks: Vec<u32> = Vec::with_capacity(self.assoc);
        for set in self.stamps.chunks_exact_mut(self.assoc) {
            ranks.clear();
            ranks.extend(set.iter().copied().filter(|&s| s < clock));
            ranks.sort_unstable();
            ranks.dedup();
            for s in set.iter_mut() {
                *s = match ranks.binary_search(s) {
                    Ok(rank) => rank as u32,
                    Err(_) => top, // equal to the clock
                };
            }
        }
        self.clock = top;
    }

    /// Test hook: start the LRU clock of an empty cache at `clock`, so a
    /// test can drive it across the stamp renormalisation without four
    /// billion accesses.
    ///
    /// # Panics
    /// Panics if the cache holds a line or `clock` is not below the limit.
    #[doc(hidden)]
    pub fn start_clock_at(&mut self, clock: u32) {
        assert_eq!(self.occupancy(), 0, "clock hook needs an empty cache");
        assert!(clock < NO_STAMP, "clock {clock} is the no-stamp sentinel");
        self.clock = clock;
    }

    /// Test hook: the current LRU clock, so a test that started it with
    /// [`Self::start_clock_at`] can check that the renormalisation ran.
    #[doc(hidden)]
    pub fn clock(&self) -> u32 {
        self.clock
    }

    /// Look up a line *without* updating replacement state or statistics
    /// (for assertions and invariant checks).
    pub fn probe(&self, line: u64) -> LookupResult {
        let set = self.set_of(line);
        match self.find(set, line) {
            Some(way) => LookupResult::Hit { set, way },
            None => LookupResult::Miss,
        }
    }

    /// Look up a line, updating LRU and hit/miss statistics. If `is_write`,
    /// a hit marks the line dirty.
    pub fn access(&mut self, line: u64, is_write: bool) -> LookupResult {
        let clock = self.tick();
        let set = self.set_of(line);
        if let Some(w) = self.find(set, line) {
            let slot = set * self.assoc + w;
            self.stamps[slot] = clock;
            self.dirty[slot] |= is_write;
            self.stats.hits.inc();
            return LookupResult::Hit { set, way: w };
        }
        self.stats.misses.inc();
        LookupResult::Miss
    }

    /// Insert a line (after a miss), evicting the LRU way if the set is
    /// full. `dirty` marks the new line modified on arrival (write-allocate
    /// stores and dirty writebacks landing in a lower level).
    ///
    /// # Panics
    /// Panics if `line` lies outside the 32-bit tag range (at or above
    /// `u32::MAX`), which a configuration passing
    /// [`crate::config::SystemConfig::validate`] never produces.
    pub fn fill(&mut self, line: u64, dirty: bool) -> FillOutcome {
        let tag = tag_of(line).expect("line address outside the 32-bit tag range");
        let clock = self.tick();
        let set = self.set_of(line);
        let base = set * self.assoc;
        debug_assert!(
            matches!(self.probe(line), LookupResult::Miss),
            "fill of already-present line {line:#x}"
        );
        let victim = self.pick_victim(base);
        let vslot = base + victim;
        let evicted = if self.tags[vslot] != INVALID_TAG {
            let was_dirty = self.dirty[vslot];
            if was_dirty {
                self.stats.dirty_evictions.inc();
            }
            Some(Eviction {
                line: self.tags[vslot] as u64,
                dirty: was_dirty,
            })
        } else {
            None
        };
        self.tags[vslot] = tag;
        self.dirty[vslot] = dirty;
        self.stamps[vslot] = clock;
        self.stats.fills.inc();
        FillOutcome {
            set,
            way: victim,
            evicted,
        }
    }

    /// Victim way for a fill into the set at `base`. Always an invalid way
    /// first (in way order); past that, [`ReplacementKind`] decides which
    /// valid lines are candidates before falling back to the rest.
    fn pick_victim(&self, base: usize) -> usize {
        let tags = &self.tags[base..base + self.assoc];
        if let Some(w) = tags.iter().position(|&t| t == INVALID_TAG) {
            return w;
        }
        let lru_among = |want_dirty: Option<bool>| -> Option<usize> {
            let mut victim = None;
            let mut victim_stamp = NO_STAMP;
            for w in 0..self.assoc {
                let slot = base + w;
                if want_dirty.is_some_and(|d| self.dirty[slot] != d) {
                    continue;
                }
                if self.stamps[slot] < victim_stamp {
                    victim_stamp = self.stamps[slot];
                    victim = Some(w);
                }
            }
            victim
        };
        match self.replacement {
            ReplacementKind::Lru => lru_among(None),
            ReplacementKind::WriteAware => lru_among(Some(false)).or_else(|| lru_among(None)),
            ReplacementKind::DirtyFirst => lru_among(Some(true)).or_else(|| lru_among(None)),
        }
        .expect("full set has a victim")
    }

    /// Invalidate a line if present. Returns whether it was present and
    /// whether it was dirty (the caller owns the writeback decision — this
    /// is the back-invalidation path).
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let set = self.set_of(line);
        if let Some(w) = self.find(set, line) {
            let slot = set * self.assoc + w;
            self.tags[slot] = INVALID_TAG;
            return Some(std::mem::take(&mut self.dirty[slot]));
        }
        None
    }

    /// Whether a line is present (no state change).
    pub fn contains(&self, line: u64) -> bool {
        matches!(self.probe(line), LookupResult::Hit { .. })
    }

    /// Mark a present line dirty (writeback arriving from an upper level).
    /// Returns false if the line is absent.
    pub fn mark_dirty(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        if let Some(w) = self.find(set, line) {
            let slot = set * self.assoc + w;
            self.dirty[slot] = true;
            self.stamps[slot] = self.clock; // a writeback is a use
            return true;
        }
        false
    }

    /// Number of valid lines currently resident (O(capacity); test helper).
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count()
    }

    /// Reset statistics (warm-up boundary) without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways of 64B lines = 512B.
        SetAssocCache::new(CacheGeometry::symmetric(512, 2, 1), false)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(10, false), LookupResult::Miss);
        c.fill(10, false);
        assert!(matches!(c.access(10, false), LookupResult::Hit { .. }));
        assert_eq!(c.stats.hits.get(), 1);
        assert_eq!(c.stats.misses.get(), 1);
        assert!((c.stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.fill(0, false);
        c.fill(4, false);
        // Touch 0 so 4 becomes LRU.
        c.access(0, false);
        let out = c.fill(8, false);
        assert_eq!(
            out.evicted,
            Some(Eviction {
                line: 4,
                dirty: false
            })
        );
        assert!(c.contains(0));
        assert!(c.contains(8));
        assert!(!c.contains(4));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.fill(0, false);
        c.access(0, true); // store -> dirty
        c.fill(4, false);
        let out = c.fill(8, false); // evicts 0 (LRU) which is dirty? 0 touched after fill...
                                    // After fill(0), access(0): stamp(0) newest until fill(4).
                                    // fill(8) evicts LRU = 0? stamps: 0 filled @1 touched @2, 4 filled @3.
                                    // LRU is 0 (stamp 2 < 3). It is dirty.
        assert_eq!(
            out.evicted,
            Some(Eviction {
                line: 0,
                dirty: true
            })
        );
        assert_eq!(c.stats.dirty_evictions.get(), 1);
    }

    #[test]
    fn fill_uses_invalid_way_first() {
        let mut c = tiny();
        let a = c.fill(0, false);
        assert_eq!(a.evicted, None);
        let b = c.fill(4, false);
        assert_eq!(b.evicted, None);
        assert_ne!(a.way, b.way);
        assert_eq!(a.set, b.set);
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut c = tiny();
        c.fill(3, false);
        assert_eq!(c.invalidate(3), Some(false));
        assert_eq!(c.invalidate(3), None);
        c.fill(3, true);
        assert_eq!(c.invalidate(3), Some(true));
    }

    #[test]
    fn mark_dirty_only_if_present() {
        let mut c = tiny();
        assert!(!c.mark_dirty(7));
        c.fill(7, false);
        assert!(c.mark_dirty(7));
        let out = c.fill(3, false); // same set 3? line 3 -> set 3; line 7 -> set 3. yes
        let out2 = c.fill(11, false);
        let out3 = c.fill(15, false);
        // One of these evictions must carry line 7 dirty.
        let evs = [out.evicted, out2.evicted, out3.evicted];
        assert!(evs.iter().flatten().any(|e| e.line == 7 && e.dirty));
    }

    #[test]
    fn hashed_index_still_covers_all_sets() {
        let geo = CacheGeometry::symmetric(64 * 1024, 4, 1);
        let c = SetAssocCache::new(geo, true);
        let mut seen = vec![false; c.sets()];
        for line in 0..(4 * c.sets() as u64) {
            seen[c.set_of(line)] = true;
        }
        assert!(seen.iter().all(|&s| s), "hashed index must reach every set");
    }

    #[test]
    fn occupancy_saturates_at_capacity() {
        let mut c = tiny();
        for line in 0..100u64 {
            if !c.contains(line) {
                c.fill(line, false);
            }
        }
        assert_eq!(c.occupancy(), 8); // 4 sets x 2 ways
    }

    #[test]
    fn slot_index_unique_per_slot() {
        let c = tiny();
        let mut seen = std::collections::HashSet::new();
        for s in 0..c.sets() {
            for w in 0..c.assoc() {
                assert!(seen.insert(c.slot_index(s, w)));
            }
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn write_aware_prefers_clean_victims() {
        // 4 sets x 2 ways; lines 0 and 4 share set 0, line 8 forces eviction.
        let geo = CacheGeometry::symmetric(512, 2, 1);
        let mut c = SetAssocCache::with_replacement(geo, false, ReplacementKind::WriteAware);
        c.fill(0, true); // dirty, and LRU by stamp
        c.fill(4, false); // clean, more recently used
        let out = c.fill(8, false);
        // True LRU would evict dirty line 0; write-aware spares it.
        assert_eq!(
            out.evicted,
            Some(Eviction {
                line: 4,
                dirty: false
            })
        );
        assert!(c.contains(0));
        // With only dirty lines resident, it falls back to plain LRU.
        c.access(8, true);
        let out = c.fill(12, false);
        assert_eq!(out.evicted.map(|e| e.line), Some(0));
    }

    #[test]
    fn dirty_first_is_the_inverse_twin() {
        let geo = CacheGeometry::symmetric(512, 2, 1);
        let mut c = SetAssocCache::with_replacement(geo, false, ReplacementKind::DirtyFirst);
        c.fill(0, false); // clean, LRU by stamp
        c.fill(4, true); // dirty, more recently used
        let out = c.fill(8, false);
        assert_eq!(out.evicted.map(|e| e.line), Some(4), "evicts dirty first");
    }

    #[test]
    fn clock_renormalises_before_the_sentinel_keeping_ties() {
        let mut c = tiny();
        c.start_clock_at(u32::MAX - 4);
        c.fill(1, false); // set 1, stamp u32::MAX - 3
        c.fill(0, false); // set 0 way 0, stamp u32::MAX - 2
        c.fill(4, false); // set 0 way 1, stamp u32::MAX - 1 = clock
        c.mark_dirty(0); // ties line 0 with line 4 at the clock

        // The next fill renormalises first: both tied stamps become the new
        // clock (assoc = 2), so the tie survives and way order picks line 0.
        let out = c.fill(8, false);
        assert_eq!(c.clock, 3);
        assert!(c.stamps.iter().all(|&s| s <= c.clock));
        assert_eq!(
            out.evicted,
            Some(Eviction {
                line: 0,
                dirty: true
            })
        );
        // Line 1's older stamp still loses to a fresh fill in its set.
        c.fill(5, false);
        assert_eq!(c.fill(9, false).evicted.map(|e| e.line), Some(1));
    }

    #[test]
    fn lines_outside_the_tag_range_are_never_resident() {
        let mut c = tiny();
        c.fill(3, false);
        assert!(!c.contains(u32::MAX as u64));
        assert!(!c.contains(3 + (1 << 32)));
        assert_eq!(c.access(u64::MAX, false), LookupResult::Miss);
        assert_eq!(c.invalidate(u32::MAX as u64), None);
    }

    #[test]
    #[should_panic(expected = "32-bit tag range")]
    fn filling_a_line_outside_the_tag_range_panics() {
        tiny().fill(u32::MAX as u64, false);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = tiny();
        c.fill(1, false);
        c.access(1, false);
        c.reset_stats();
        assert_eq!(c.stats.hits.get(), 0);
        assert!(c.contains(1));
    }
}

//! A naive stamp-based set-associative cache.
//!
//! Re-implements the replacement contract of `cmp_sim::cache::SetAssocCache`
//! with per-set `Vec`s, modulo indexing and linear scans. The observable
//! semantics the differential harness relies on:
//!
//! * a logical clock advances on `access` and `fill` only — never on
//!   `probe`, `contains`, `invalidate` or `mark_dirty`;
//! * hits restamp the way with the current clock; `mark_dirty` restamps
//!   *without* advancing the clock (so a marked line can tie with the most
//!   recent access — victim choice then falls to way order);
//! * the fill victim is the first invalid way, else the way with the
//!   strictly smallest stamp scanning ways in order; under write-aware
//!   replacement (MAC banks) the stamp scan considers clean ways first and
//!   falls back to the all-ways scan only when every way is dirty (the
//!   dirty-first mutation twin mirrors this with dirty ways first);
//! * L3 banks fold the line address (`line ^ line>>11 ^ line>>22`) before
//!   set selection, private caches index with the raw line address;
//! * the physical slot of a (set, way) is `set * assoc + way` (set rotation
//!   is out of scope for the golden model — the harness runs with rotation
//!   disabled).

/// One cache way.
#[derive(Clone, Debug, Default)]
struct Way {
    valid: bool,
    dirty: bool,
    line: u64,
    stamp: u64,
}

/// What a fill displaced.
#[derive(Clone, Copy, Debug)]
pub struct Victim {
    /// Line address of the displaced block.
    pub line: u64,
    /// Whether it was dirty.
    pub dirty: bool,
}

/// Result of a fill: where the block landed and what it displaced.
#[derive(Clone, Copy, Debug)]
pub struct FillSlot {
    /// Set index the block was placed in.
    pub set: usize,
    /// Way index within the set.
    pub way: usize,
    /// The valid block that was displaced, if any.
    pub victim: Option<Victim>,
}

/// The naive reference cache.
#[derive(Clone, Debug)]
pub struct GoldenCache {
    sets: Vec<Vec<Way>>,
    assoc: usize,
    hash_index: bool,
    /// Victim class scanned before the all-ways fallback: `Some(false)`
    /// prefers clean ways (MAC banks, twin of
    /// `cmp_sim::cache::ReplacementKind::WriteAware`), `Some(true)` dirty
    /// ways (twin of `DirtyFirst`), `None` is plain LRU.
    prefer_dirty: Option<bool>,
    clock: u64,
}

impl GoldenCache {
    /// A cache with `lines / assoc` sets of `assoc` ways. `hash_index`
    /// selects the L3 XOR-fold set function.
    pub fn new(lines: usize, assoc: usize, hash_index: bool) -> Self {
        Self::with_preference(lines, assoc, hash_index, None)
    }

    /// A cache with an explicit victim-selection policy: `Some(false)`
    /// makes fills prefer clean victims (MAC's replacement), `Some(true)`
    /// dirty ones.
    pub fn with_preference(
        lines: usize,
        assoc: usize,
        hash_index: bool,
        prefer_dirty: Option<bool>,
    ) -> Self {
        assert!(lines > 0 && assoc > 0 && lines % assoc == 0);
        let n_sets = lines / assoc;
        GoldenCache {
            sets: vec![vec![Way::default(); assoc]; n_sets],
            assoc,
            hash_index,
            prefer_dirty,
            clock: 0,
        }
    }

    /// Total line capacity.
    pub fn lines(&self) -> usize {
        self.sets.len() * self.assoc
    }

    /// Valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.iter().filter(|w| w.valid).count())
            .sum()
    }

    fn set_of(&self, line: u64) -> usize {
        let idx = if self.hash_index {
            line ^ (line >> 11) ^ (line >> 22)
        } else {
            line
        };
        (idx % self.sets.len() as u64) as usize
    }

    /// Look up `line`; on a hit, restamp it and OR in `is_write` dirtiness.
    /// Advances the clock whether it hits or misses.
    pub fn access(&mut self, line: u64, is_write: bool) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(line);
        for way in &mut self.sets[set] {
            if way.valid && way.line == line {
                way.stamp = clock;
                way.dirty |= is_write;
                return true;
            }
        }
        false
    }

    /// Whether `line` is resident. No state change.
    pub fn contains(&self, line: u64) -> bool {
        let set = self.set_of(line);
        self.sets[set].iter().any(|w| w.valid && w.line == line)
    }

    /// The (set, way) of `line` if resident. No state change.
    pub fn probe(&self, line: u64) -> Option<(usize, usize)> {
        let set = self.set_of(line);
        self.sets[set]
            .iter()
            .position(|w| w.valid && w.line == line)
            .map(|way| (set, way))
    }

    /// Install `line` (must be absent), evicting the LRU victim if the set
    /// is full. Advances the clock.
    pub fn fill(&mut self, line: u64, dirty: bool) -> FillSlot {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(line);
        debug_assert!(
            !self.sets[set].iter().any(|w| w.valid && w.line == line),
            "golden: fill of resident line {line:#x}"
        );
        let victim = self.pick_victim(set);
        let ways = &mut self.sets[set];
        let displaced = if ways[victim].valid {
            Some(Victim {
                line: ways[victim].line,
                dirty: ways[victim].dirty,
            })
        } else {
            None
        };
        ways[victim] = Way {
            valid: true,
            dirty,
            line,
            stamp: clock,
        };
        FillSlot {
            set,
            way: victim,
            victim: displaced,
        }
    }

    /// Victim way for a fill into `set`: first invalid way; else, under a
    /// preference, the smallest-stamp way of the preferred class (clean or
    /// dirty) if any; else the smallest-stamp way overall. All scans go in
    /// way order with a strict `<` comparison.
    fn pick_victim(&self, set: usize) -> usize {
        let ways = &self.sets[set];
        if let Some(i) = ways.iter().position(|w| !w.valid) {
            return i;
        }
        let smallest = |want_dirty: Option<bool>| -> Option<usize> {
            let mut victim = None;
            let mut victim_stamp = u64::MAX;
            for (i, way) in ways.iter().enumerate() {
                if want_dirty.is_some_and(|d| way.dirty != d) {
                    continue;
                }
                if way.stamp < victim_stamp {
                    victim = Some(i);
                    victim_stamp = way.stamp;
                }
            }
            victim
        };
        self.prefer_dirty
            .and_then(|d| smallest(Some(d)))
            .or_else(|| smallest(None))
            .expect("full set has a victim")
    }

    /// Drop `line` if resident; returns whether it was dirty. No clock
    /// advance.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let set = self.set_of(line);
        for way in &mut self.sets[set] {
            if way.valid && way.line == line {
                way.valid = false;
                let was_dirty = way.dirty;
                way.dirty = false;
                return Some(was_dirty);
            }
        }
        None
    }

    /// Mark a resident `line` dirty and restamp it with the *current* clock
    /// (no advance — mirrors the writeback-merge path of the real cache).
    pub fn mark_dirty(&mut self, line: u64) {
        let clock = self.clock;
        let set = self.set_of(line);
        for way in &mut self.sets[set] {
            if way.valid && way.line == line {
                way.dirty = true;
                way.stamp = clock;
                return;
            }
        }
        debug_assert!(false, "golden: mark_dirty of absent line {line:#x}");
    }

    /// Physical slot index of (set, way): `set * assoc + way` (no rotation).
    pub fn slot_index(&self, set: usize, way: usize) -> usize {
        set * self.assoc + way
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_victim_is_least_recent() {
        let mut c = GoldenCache::new(4, 2, false); // 2 sets, 2 ways
        assert!(!c.access(0, false));
        c.fill(0, false); // set 0
        c.fill(2, false); // set 0
        assert!(c.access(0, false)); // 0 now more recent than 2
        let out = c.fill(4, false); // set 0, evicts 2
        assert_eq!(out.victim.unwrap().line, 2);
    }

    #[test]
    fn mark_dirty_does_not_advance_clock() {
        let mut c = GoldenCache::new(2, 2, false);
        c.fill(0, false); // clock 1
        c.fill(2, false); // clock 2
        c.mark_dirty(0); // stamp(0) = 2 == stamp(2): tie, way order wins
        let out = c.fill(4, false);
        // way 0 holds line 0 with stamp 2; way 1 holds line 2 with stamp 2.
        // Strict `<` comparison keeps the first way as victim.
        assert_eq!(out.victim.unwrap().line, 0);
        assert!(out.victim.unwrap().dirty);
    }

    #[test]
    fn write_aware_prefers_clean_victims() {
        let mut c = GoldenCache::with_preference(4, 2, false, Some(false));
        c.fill(0, true); // dirty, LRU
        c.fill(2, false); // clean, newer
        let out = c.fill(4, false);
        assert_eq!(out.victim.unwrap().line, 2, "clean line evicted first");
        assert!(c.contains(0));
        // All dirty: plain LRU fallback.
        c.access(4, true);
        let out = c.fill(6, false);
        assert_eq!(out.victim.unwrap().line, 0);
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = GoldenCache::new(2, 1, false);
        c.fill(1, true);
        assert_eq!(c.invalidate(1), Some(true));
        assert_eq!(c.invalidate(1), None);
    }
}

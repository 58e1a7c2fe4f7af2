//! A fixed-bound open-addressed hash table for the per-access hot path.
//!
//! Every placement decision of every experiment funnels through a handful
//! of address-keyed maps (the coherence directory, the Naive oracle's
//! global directory, the Enhanced-TLB backing store, the optional
//! block-criticality tracker). `std::collections::HashMap` serves them
//! correctly but expensively: SipHash on every probe, allocation on
//! growth, and no capacity discipline. [`FixedTable`] replaces it on those
//! paths with the cheapest structure that fits the workload:
//!
//! * **keys are line/page addresses** (`u64`, always well below
//!   `u64::MAX`), hashed with one Fibonacci multiply;
//! * **open addressing with linear probing** over a power-of-two slot
//!   array — one cache line per probe step, no per-entry allocation;
//! * **backward-shift deletion** (no tombstones, so probe chains never
//!   rot under churn);
//! * **a hard capacity bound**: the table grows by doubling while below
//!   the bound and panics past it, so a leaking caller fails loudly
//!   instead of growing memory without limit over a long run.
//!
//! Lookups, inserts and removals are allocation-free; the only
//! allocations are the O(log bound) doublings on the way up to a run's
//! steady-state footprint. The table is *not* a general map: keys must
//! never equal [`EMPTY_KEY`] (`u64::MAX`), which no line or page address
//! reaches (physical lines are byte addresses shifted right by 6).

/// The reserved key marking an empty slot. Line and page addresses are
/// physical addresses shifted right, so they can never collide with it.
pub const EMPTY_KEY: u64 = u64::MAX;

/// Fibonacci multiplier (2^64 / φ) — one multiply mixes address keys whose
/// entropy sits in the low/middle bits.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Minimum slot-array size (keeps the hash shift < 64 and probe loops
/// trivially terminating).
const MIN_SLOTS: usize = 8;

/// An open-addressed `u64 → V` map with linear probing, a power-of-two
/// slot array, backward-shift deletion and a hard entry bound.
#[derive(Clone, Debug)]
pub struct FixedTable<V> {
    keys: Vec<u64>,
    vals: Vec<V>,
    /// `slots - 1` (slot count is a power of two).
    mask: usize,
    /// `64 - log2(slots)`: index = high bits of the key hash.
    shift: u32,
    len: usize,
    max_entries: usize,
}

impl<V: Default> Default for FixedTable<V> {
    /// A table with the conservative default bound of 2^20 entries (far
    /// above any simulated footprint; callers that know their bound should
    /// use [`FixedTable::with_capacity`]).
    fn default() -> Self {
        Self::new(1 << 20)
    }
}

impl<V: Default> FixedTable<V> {
    /// A table holding at most `max_entries`, starting small and doubling
    /// on demand.
    pub fn new(max_entries: usize) -> Self {
        Self::with_capacity(0, max_entries)
    }

    /// A table pre-sized for `expected` entries (no rehash until the load
    /// factor would exceed 7/8 of that), bounded by `max_entries`.
    pub fn with_capacity(expected: usize, max_entries: usize) -> Self {
        assert!(max_entries > 0, "FixedTable bound must be positive");
        let want = expected.min(max_entries);
        // Slot count keeping load factor ≤ 7/8 at `want` entries.
        let slots = (want + want / 7 + 1).next_power_of_two().max(MIN_SLOTS);
        let mut vals = Vec::new();
        vals.resize_with(slots, V::default);
        FixedTable {
            keys: vec![EMPTY_KEY; slots],
            vals,
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
            len: 0,
            max_entries,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Home slot of a key.
    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        debug_assert_ne!(key, EMPTY_KEY, "u64::MAX is the empty-slot marker");
        (key.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// Slot index of a present key.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mut i = self.slot_of(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Shared-reference lookup.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).map(|i| &self.vals[i])
    }

    /// Mutable-reference lookup.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).map(|i| &mut self.vals[i])
    }

    /// Whether a key is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Insert or replace; returns the previous value if the key was
    /// present.
    ///
    /// # Panics
    /// Panics when inserting a *new* key while already holding
    /// `max_entries` entries — by design, so unbounded growth is a loud
    /// failure, not a slow leak.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if let Some(i) = self.find(key) {
            return Some(std::mem::replace(&mut self.vals[i], value));
        }
        let i = self.slot_for_new(key);
        self.keys[i] = key;
        self.vals[i] = value;
        self.len += 1;
        None
    }

    /// Mutable reference to the value of `key`, inserting `make()` first
    /// if absent (the `entry().or_insert_with()` idiom).
    pub fn get_or_insert_with(&mut self, key: u64, make: impl FnOnce() -> V) -> &mut V {
        let i = match self.find(key) {
            Some(i) => i,
            None => {
                let i = self.slot_for_new(key);
                self.keys[i] = key;
                self.vals[i] = make();
                self.len += 1;
                i
            }
        };
        &mut self.vals[i]
    }

    /// Remove a key, returning its value. Uses backward-shift deletion so
    /// no tombstones accumulate under fill/evict churn.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.find(key)?;
        let value = std::mem::take(&mut self.vals[i]);
        self.len -= 1;
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let k = self.keys[j];
            if k == EMPTY_KEY {
                break;
            }
            // The entry at `j` may fill the hole iff its probe chain
            // started at or before the hole (otherwise moving it would
            // put it ahead of its home slot and lose it).
            let from_home = j.wrapping_sub(self.slot_of(k)) & self.mask;
            let from_hole = j.wrapping_sub(hole) & self.mask;
            if from_home >= from_hole {
                self.keys[hole] = k;
                self.vals[hole] = std::mem::take(&mut self.vals[j]);
                hole = j;
            }
        }
        self.keys[hole] = EMPTY_KEY;
        Some(value)
    }

    /// Iterate over `(key, &value)` pairs in slot order (diagnostics and
    /// tests only — slot order is not insertion order).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter(|(&k, _)| k != EMPTY_KEY)
            .map(|(&k, v)| (k, v))
    }

    /// Find the empty slot for a key known to be absent, growing first if
    /// the insert would push the load factor above 7/8.
    fn slot_for_new(&mut self, key: u64) -> usize {
        assert!(
            self.len < self.max_entries,
            "FixedTable capacity bound exceeded ({} entries): the caller is leaking entries \
             or the bound is undersized",
            self.max_entries
        );
        if (self.len + 1) * 8 > (self.mask + 1) * 7 {
            self.grow();
        }
        let mut i = self.slot_of(key);
        while self.keys[i] != EMPTY_KEY {
            i = (i + 1) & self.mask;
        }
        i
    }

    /// Double the slot array and rehash (amortized; never on the steady
    /// state path).
    fn grow(&mut self) {
        let new_slots = (self.mask + 1) * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_slots]);
        let mut new_vals = Vec::new();
        new_vals.resize_with(new_slots, V::default);
        let old_vals = std::mem::replace(&mut self.vals, new_vals);
        self.mask = new_slots - 1;
        self.shift = 64 - new_slots.trailing_zeros();
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY_KEY {
                let mut i = self.slot_of(k);
                while self.keys[i] != EMPTY_KEY {
                    i = (i + 1) & self.mask;
                }
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t: FixedTable<u64> = FixedTable::new(1024);
        assert!(t.is_empty());
        assert_eq!(t.insert(5, 50), None);
        assert_eq!(t.insert(5, 55), Some(50));
        assert_eq!(t.get(5), Some(&55));
        assert_eq!(t.len(), 1);
        *t.get_mut(5).unwrap() += 1;
        assert_eq!(t.remove(5), Some(56));
        assert_eq!(t.remove(5), None);
        assert!(t.get(5).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn key_zero_is_a_real_key() {
        let mut t: FixedTable<bool> = FixedTable::new(16);
        assert!(!t.contains_key(0));
        t.insert(0, true);
        assert_eq!(t.get(0), Some(&true));
        assert_eq!(t.remove(0), Some(true));
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let mut t: FixedTable<u64> = FixedTable::new(16);
        *t.get_or_insert_with(9, || 1) += 10;
        *t.get_or_insert_with(9, || panic!("must not re-make")) += 10;
        assert_eq!(t.get(9), Some(&21));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn grows_up_to_bound() {
        let mut t: FixedTable<usize> = FixedTable::with_capacity(4, 10_000);
        for k in 0..10_000u64 {
            t.insert(k * 3, k as usize);
        }
        assert_eq!(t.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(t.get(k * 3), Some(&(k as usize)));
        }
    }

    #[test]
    #[should_panic(expected = "capacity bound exceeded")]
    fn bound_is_hard() {
        let mut t: FixedTable<u64> = FixedTable::new(8);
        for k in 0..9u64 {
            t.insert(k, k);
        }
    }

    #[test]
    fn replacing_at_bound_is_fine() {
        let mut t: FixedTable<u64> = FixedTable::new(4);
        for k in 0..4u64 {
            t.insert(k, k);
        }
        // Updates of existing keys never count against the bound.
        assert_eq!(t.insert(2, 99), Some(2));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn deletion_keeps_probe_chains_reachable() {
        // Force heavy collisions: with 8 slots every key lands somewhere
        // in one short array; delete from chain middles and verify every
        // survivor stays findable.
        let mut t: FixedTable<u64> = FixedTable::with_capacity(6, 7);
        let keys = [11u64, 19, 27, 35, 43, 51];
        for &k in &keys {
            t.insert(k, k * 2);
        }
        t.remove(19);
        t.remove(43);
        for &k in &keys {
            let expect = if k == 19 || k == 43 {
                None
            } else {
                Some(k * 2)
            };
            assert_eq!(t.get(k).copied(), expect, "key {k}");
        }
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn agrees_with_hashmap_under_seeded_churn() {
        // The reference-model test the refactor rests on: a seeded random
        // insert/update/remove/lookup workload must be indistinguishable
        // from HashMap.
        let mut rng = sim_rng::SimRng::seed_from_u64(0xF1DE_7AB1);
        let mut t: FixedTable<u64> = FixedTable::with_capacity(32, 4096);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for step in 0..50_000u64 {
            let key = rng.gen_bounded(700); // small space => heavy churn
            match rng.gen_bounded(4) {
                0 | 1 => {
                    let v = rng.next_u64() >> 1;
                    assert_eq!(t.insert(key, v), reference.insert(key, v), "step {step}");
                }
                2 => {
                    assert_eq!(t.remove(key), reference.remove(&key), "step {step}");
                }
                _ => {
                    assert_eq!(t.get(key), reference.get(&key), "step {step}");
                    let a = *t.get_or_insert_with(key, || 7);
                    let b = *reference.entry(key).or_insert(7);
                    assert_eq!(a, b, "step {step}");
                }
            }
            assert_eq!(t.len(), reference.len(), "step {step}");
        }
        // Full-content equality at the end.
        let mut snapshot: Vec<(u64, u64)> = t.iter().map(|(k, v)| (k, *v)).collect();
        snapshot.sort_unstable();
        let mut expect: Vec<(u64, u64)> = reference.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(snapshot, expect);
    }

    #[test]
    fn iter_yields_every_live_entry() {
        let mut t: FixedTable<u64> = FixedTable::new(64);
        for k in 0..20u64 {
            t.insert(k * 17, k);
        }
        t.remove(5 * 17);
        let mut got: Vec<u64> = t.iter().map(|(k, _)| k).collect();
        got.sort_unstable();
        let expect: Vec<u64> = (0..20u64).filter(|&k| k != 5).map(|k| k * 17).collect();
        assert_eq!(got, expect);
    }
}

//! Hierarchical timing wheel for the event-driven simulation core.
//!
//! [`System::run`](crate::system::System::run) advances time by popping
//! (cycle, core) wake events from an [`EventWheel`] instead of polling
//! every core each iteration. The wheel is a two-level calendar:
//!
//! * **L0** — 256 one-cycle buckets covering `[l0_base, l0_base + 256)`.
//!   The common wake distance (next cycle, an L1/L2 hit, an L3 round
//!   trip) lands here; scheduling and popping are O(1) via a 256-bit
//!   occupancy bitmap.
//! * **L1** — 256 buckets of 256 cycles covering
//!   `[l1_base, l1_base + 65536)`. DRAM-latency and contention-queue
//!   wakes land here and are re-bucketed into L0 when their 256-cycle
//!   window opens.
//! * **far** — an unsorted overflow list for wakes ≥ 65536 cycles out
//!   (deep all-core stalls); refilled into L1 when both wheels drain.
//!
//! Finding the next event never scans empty cycles one by one — bitmap
//! `trailing_zeros` jumps straight to the next occupied bucket, so a
//! 10 000-cycle dead window costs the same as a 1-cycle one. Events due
//! at the same cycle pop as one batch in ascending payload order, which
//! is exactly the deterministic core-id order the polling loop used —
//! the refactor cannot reorder same-cycle core steps.

use crate::types::Cycle;

const L0_SLOTS: usize = 256;
const L1_SLOTS: usize = 256;
/// Cycles covered by one L1 bucket.
const L1_GRAIN: u64 = L0_SLOTS as u64;
/// Cycles covered by the whole L1 wheel.
const L1_SPAN: u64 = L1_GRAIN * L1_SLOTS as u64;

/// A two-level timing wheel mapping wake cycles to `u32` payloads
/// (core ids).
#[derive(Clone, Debug)]
pub struct EventWheel {
    /// One-cycle buckets; slot `s` holds events due at `l0_base + s`.
    l0: Vec<Vec<u32>>,
    l0_bits: [u64; L0_SLOTS / 64],
    /// 256-cycle buckets; slot `s` holds events due in
    /// `[l1_base + s·256, l1_base + (s+1)·256)`.
    l1: Vec<Vec<(Cycle, u32)>>,
    l1_bits: [u64; L1_SLOTS / 64],
    /// Events at or beyond the L1 horizon.
    far: Vec<(Cycle, u32)>,
    /// Start of the current L0 window (multiple of 256).
    l0_base: Cycle,
    /// Start of the current L1 window (multiple of 65536).
    l1_base: Cycle,
    len: usize,
}

#[inline]
fn bit_set(bits: &mut [u64], slot: usize) {
    bits[slot / 64] |= 1u64 << (slot % 64);
}

#[inline]
fn bit_clear(bits: &mut [u64], slot: usize) {
    bits[slot / 64] &= !(1u64 << (slot % 64));
}

/// Lowest set bit index across the words, or `None` when all are clear.
#[inline]
fn first_set(bits: &[u64]) -> Option<usize> {
    for (w, &word) in bits.iter().enumerate() {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
    }
    None
}

impl EventWheel {
    /// An empty wheel whose windows start at (the aligned floor of)
    /// `start`. Events may be scheduled at any cycle ≥ `start`.
    pub fn new(start: Cycle) -> Self {
        EventWheel {
            l0: vec![Vec::new(); L0_SLOTS],
            l0_bits: [0; L0_SLOTS / 64],
            l1: vec![Vec::new(); L1_SLOTS],
            l1_bits: [0; L1_SLOTS / 64],
            far: Vec::new(),
            l0_base: start & !(L1_GRAIN - 1),
            l1_base: start & !(L1_SPAN - 1),
            len: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Register an event. `cycle` must not precede the last popped batch
    /// (checked in debug builds); the payload is returned by
    /// [`pop_due`](Self::pop_due) when its cycle is reached.
    pub fn schedule(&mut self, cycle: Cycle, payload: u32) {
        debug_assert!(
            cycle >= self.l0_base,
            "schedule({cycle}) behind the wheel window at {}",
            self.l0_base
        );
        self.len += 1;
        if cycle < self.l0_base + L1_GRAIN {
            let slot = (cycle % L1_GRAIN) as usize;
            self.l0[slot].push(payload);
            bit_set(&mut self.l0_bits, slot);
        } else if cycle < self.l1_base + L1_SPAN {
            let slot = ((cycle / L1_GRAIN) % L1_SLOTS as u64) as usize;
            self.l1[slot].push((cycle, payload));
            bit_set(&mut self.l1_bits, slot);
        } else {
            self.far.push((cycle, payload));
        }
    }

    /// Whether `cycle` comes strictly before every pending event. Exact
    /// when the wheel is empty or `cycle` falls in the current one-cycle
    /// window (the L0 bitmap answers it); `false` beyond that window,
    /// where finding the earliest event would cost a search. `cycle` must
    /// not precede the window.
    pub fn before_all(&self, cycle: Cycle) -> bool {
        if self.len == 0 {
            return true;
        }
        let Some(off) = cycle.checked_sub(self.l0_base).filter(|&o| o < L1_GRAIN) else {
            return false;
        };
        // Every L1 and far event lies past the window, so only the L0
        // slots at or before `cycle` can hold an earlier one.
        let slot = off as usize;
        let (word, bit) = (slot / 64, slot % 64);
        let up_to_bit = u64::MAX >> (63 - bit);
        self.l0_bits[..word].iter().all(|&w| w == 0) && self.l0_bits[word] & up_to_bit == 0
    }

    /// Remove the earliest pending batch: every event due at the single
    /// earliest occupied cycle, appended to `out` in ascending payload
    /// order. Returns that cycle, or `None` when the wheel is empty.
    pub fn pop_due(&mut self, out: &mut Vec<u32>) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(slot) = first_set(&self.l0_bits) {
                let cycle = self.l0_base + slot as u64;
                let tail = out.len();
                out.extend(self.l0[slot].drain(..));
                bit_clear(&mut self.l0_bits, slot);
                self.len -= out.len() - tail;
                out[tail..].sort_unstable();
                return Some(cycle);
            }
            if let Some(slot) = first_set(&self.l1_bits) {
                // Open the next occupied 256-cycle window: re-bucket its
                // events into L0 at one-cycle granularity.
                self.l0_base = self.l1_base + slot as u64 * L1_GRAIN;
                bit_clear(&mut self.l1_bits, slot);
                for (cycle, payload) in std::mem::take(&mut self.l1[slot]) {
                    let s = (cycle % L1_GRAIN) as usize;
                    self.l0[s].push(payload);
                    bit_set(&mut self.l0_bits, s);
                }
                continue;
            }
            // Both wheels drained: jump the windows to the earliest far
            // event and re-bucket everything that now fits into L1.
            debug_assert!(!self.far.is_empty(), "len > 0 with empty wheels");
            let far_min = self.far.iter().map(|&(c, _)| c).min().unwrap();
            self.l1_base = far_min & !(L1_SPAN - 1);
            self.l0_base = self.l1_base;
            let horizon = self.l1_base + L1_SPAN;
            let mut i = 0;
            while i < self.far.len() {
                let (cycle, payload) = self.far[i];
                if cycle < horizon {
                    self.far.swap_remove(i);
                    let slot = ((cycle / L1_GRAIN) % L1_SLOTS as u64) as usize;
                    self.l1[slot].push((cycle, payload));
                    bit_set(&mut self.l1_bits, slot);
                } else {
                    i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn drain_all(w: &mut EventWheel) -> Vec<(Cycle, Vec<u32>)> {
        let mut got = Vec::new();
        let mut batch = Vec::new();
        while let Some(c) = w.pop_due(&mut batch) {
            got.push((c, std::mem::take(&mut batch)));
        }
        got
    }

    #[test]
    fn pops_in_time_order_with_sorted_batches() {
        let mut w = EventWheel::new(0);
        w.schedule(10, 3);
        w.schedule(5, 1);
        w.schedule(10, 0);
        w.schedule(5, 2);
        let got = drain_all(&mut w);
        assert_eq!(got, vec![(5, vec![1, 2]), (10, vec![0, 3])]);
        assert!(w.is_empty());
    }

    #[test]
    fn spans_l1_and_far_distances() {
        let mut w = EventWheel::new(0);
        // One event per range: L0 (near), L1 (mid), far (DRAM-stall deep).
        w.schedule(3, 0);
        w.schedule(1_000, 1);
        w.schedule(70_000, 2);
        w.schedule(1_000_000, 3);
        let got = drain_all(&mut w);
        assert_eq!(
            got,
            vec![
                (3, vec![0]),
                (1_000, vec![1]),
                (70_000, vec![2]),
                (1_000_000, vec![3]),
            ]
        );
    }

    #[test]
    fn reschedule_while_popping() {
        // The system's actual usage: each popped core reschedules itself.
        let mut w = EventWheel::new(0);
        for id in 0..4 {
            w.schedule(id as u64 + 1, id);
        }
        let mut batch = Vec::new();
        let mut pops = 0;
        let mut last = 0;
        while let Some(c) = w.pop_due(&mut batch) {
            assert!(c > last || pops == 0);
            last = c;
            for &id in &batch {
                if c < 500 {
                    w.schedule(c + 1 + id as u64 % 3, id);
                }
            }
            batch.clear();
            pops += 1;
        }
        assert!(pops > 100);
        assert!(w.is_empty());
    }

    #[test]
    fn before_all_is_exact_inside_the_window() {
        let mut w = EventWheel::new(0);
        assert!(w.before_all(1 << 40), "an empty wheel has nothing earlier");
        w.schedule(10, 0);
        w.schedule(200, 1);
        w.schedule(300, 2);
        assert!(w.before_all(9));
        assert!(!w.before_all(10), "a tie is not before");
        assert!(!w.before_all(11));
        let mut batch = Vec::new();
        assert_eq!(w.pop_due(&mut batch), Some(10));
        // 200 sits in the second bitmap word.
        assert!(w.before_all(199));
        assert!(!w.before_all(200));
        assert_eq!(w.pop_due(&mut batch), Some(200));
        // 300 is in L1; past the one-cycle window the answer is `false`.
        assert!(w.before_all(255));
        assert!(!w.before_all(256));
    }

    #[test]
    fn starts_at_nonzero_offset() {
        // Wheels opened mid-simulation (warm-up boundary) must accept
        // unaligned start cycles.
        for start in [1u64, 255, 256, 65_535, 65_536, 1 << 40] {
            let mut w = EventWheel::new(start);
            w.schedule(start, 7);
            w.schedule(start + 300, 8);
            let got = drain_all(&mut w);
            assert_eq!(got, vec![(start, vec![7]), (start + 300, vec![8])]);
        }
    }

    #[test]
    fn matches_binary_heap_reference() {
        // Randomized differential test against a known-correct priority
        // queue, with interleaved schedules (monotone now, mixed spans).
        let mut w = EventWheel::new(0);
        let mut heap: BinaryHeap<Reverse<(Cycle, u32)>> = BinaryHeap::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut now = 0u64;
        for id in 0..8 {
            w.schedule(id as u64 % 3, id);
            heap.push(Reverse((id as u64 % 3, id)));
        }
        let mut batch = Vec::new();
        for _ in 0..5_000 {
            let Some(c) = w.pop_due(&mut batch) else {
                break;
            };
            assert!(c >= now, "time went backwards: {c} < {now}");
            now = c;
            for &id in &batch {
                let Reverse((hc, hid)) = heap.pop().expect("heap empty early");
                assert_eq!((hc, hid), (c, id));
                // Reschedule with a mixed-span pseudo-random delay.
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let delay = match (x >> 60) % 4 {
                    0 => 1 + (x >> 33) % 8,            // next-cycle-ish
                    1 => 30 + (x >> 33) % 400,         // L3 round trip
                    2 => 2_000 + (x >> 33) % 60_000,   // DRAM + queueing
                    _ => 70_000 + (x >> 33) % 300_000, // deep stall
                };
                w.schedule(now + delay, id);
                heap.push(Reverse((now + delay, id)));
            }
            // `before_all` never claims a cycle that is not earlier than
            // every pending event.
            let probe = now + 1 + (x >> 20) % 300;
            if w.before_all(probe) {
                let Reverse((first, _)) = *heap.peek().expect("events pending");
                assert!(probe < first, "before_all({probe}) with {first} pending");
            }
            batch.clear();
        }
        assert_eq!(w.len(), heap.len());
    }
}

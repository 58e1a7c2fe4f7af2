//! The Enhanced TLB with per-page Mapping Bit Vectors — paper §IV.C.
//!
//! Every TLB entry is augmented with a 64-bit **Mapping Bit Vector (MBV)**,
//! one bit per 64 B line of the 4 KB page: bit = 1 means the line was
//! allocated in the L3 with the R-NUCA mapping (critical), 0 means S-NUCA
//! (non-critical or not resident). Geometry: 64 entries, 8-way per core
//! (512 B of MBV per TLB, 1 KB/core counting L1I+L1D, 16 KB per 16-core
//! chip — the paper's negligible-overhead argument).
//!
//! The paper leaves one mechanism implicit: what happens to MBV bits when a
//! TLB entry is evicted while the page's lines are still L3-resident.
//! Dropping them would mis-route later lookups (the bit would read 0 while
//! the line sits in an R-NUCA bank). The minimal consistent design — used
//! here — writes the MBV back to a page-table side structure on TLB
//! eviction and reloads it on refill, exactly like accessed/dirty bits.
//! L3 evictions of lines whose page is not TLB-resident update the backing
//! store directly.
//!
//! No extra lookup latency is charged: the MBV travels with the normal
//! translation the core already performs ("TLB search is performed in early
//! cycles of memory access and the mapping information is available when
//! accessing LLC", §I).

use cmp_sim::table::FixedTable;
use cmp_sim::tlb::{Tlb, TlbStats};

/// Bound on pages with non-zero MBVs parked in one core's backing store.
/// Non-zero vectors exist only for pages holding R-NUCA-resident lines, so
/// the true bound is the LLC line count; 2^20 pages (4 GB of critical
/// pages) is far beyond any simulated footprint and exists only to turn a
/// reset-bookkeeping leak into a loud failure.
const BACKING_BOUND: usize = 1 << 20;

/// A per-core enhanced TLB: translation entries carrying MBVs, with a
/// page-table backing store for evicted vectors.
pub struct EnhancedTlb {
    tlb: Tlb<u64>,
    backing: FixedTable<u64>,
}

impl EnhancedTlb {
    /// Build with the given geometry (the paper's is 64 entries, 8-way).
    pub fn new(entries: usize, assoc: usize) -> Self {
        // Walk latency 0: translation latency is already charged by the
        // core's dTLB; the MBV rides along for free.
        EnhancedTlb {
            tlb: Tlb::new(entries, assoc, 0),
            backing: FixedTable::with_capacity(entries, BACKING_BOUND),
        }
    }

    /// Read the MBV bit for line `bit` (0..64) of `page`, faulting the page
    /// into the TLB if needed (lookups always follow a translation, so the
    /// page is being touched anyway).
    pub fn mbv_bit(&mut self, page: u64, bit: u32) -> bool {
        debug_assert!(bit < 64);
        let mbv = self.fault_in(page);
        (mbv >> bit) & 1 == 1
    }

    /// Set or clear the MBV bit for line `bit` of `page`.
    ///
    /// Fill-time updates hit the TLB-resident entry (the page was just
    /// accessed); eviction-time resets for non-resident pages go straight
    /// to the backing store without disturbing TLB contents.
    pub fn set_mbv_bit(&mut self, page: u64, bit: u32, value: bool) {
        debug_assert!(bit < 64);
        let mask = 1u64 << bit;
        if let Some(mbv) = self.tlb.payload_mut(page) {
            if value {
                *mbv |= mask;
            } else {
                *mbv &= !mask;
            }
            return;
        }
        let entry = self.backing.get_or_insert_with(page, || 0);
        if value {
            *entry |= mask;
        } else {
            *entry &= !mask;
        }
        if *entry == 0 {
            // Keep the side structure sparse: all-zero vectors are the
            // default and need no storage.
            self.backing.remove(page);
        }
    }

    /// Full MBV of a page (TLB-resident value, else backing store, else 0).
    pub fn mbv(&self, page: u64) -> u64 {
        self.tlb
            .payload(page)
            .copied()
            .or_else(|| self.backing.get(page).copied())
            .unwrap_or(0)
    }

    /// TLB hit/miss/eviction statistics.
    pub fn stats(&self) -> TlbStats {
        self.tlb.stats
    }

    /// Number of pages with non-zero MBVs parked in the backing store.
    pub fn backing_len(&self) -> usize {
        self.backing.len()
    }

    /// Ensure `page` is TLB-resident and return its MBV. A refill reloads
    /// the vector from the backing store; the entry it evicts parks its
    /// vector there unless it is all zero.
    fn fault_in(&mut self, page: u64) -> u64 {
        if let Some(&mbv) = self.tlb.payload(page) {
            // Touch for LRU.
            self.tlb.access(page, |_| unreachable!("resident"));
            return mbv;
        }
        let refill = self.backing.remove(page).unwrap_or(0);
        let acc = self.tlb.access(page, |_| refill);
        if let Some((evicted_page, mbv)) = acc.evicted {
            if mbv != 0 {
                self.backing.insert(evicted_page, mbv);
            }
        }
        refill
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_pages_read_zero() {
        let mut t = EnhancedTlb::new(64, 8);
        assert!(!t.mbv_bit(5, 0));
        assert!(!t.mbv_bit(5, 63));
        assert_eq!(t.mbv(5), 0);
    }

    #[test]
    fn set_and_read_bits() {
        let mut t = EnhancedTlb::new(64, 8);
        t.mbv_bit(7, 0); // fault the page in
        t.set_mbv_bit(7, 3, true);
        t.set_mbv_bit(7, 63, true);
        assert!(t.mbv_bit(7, 3));
        assert!(t.mbv_bit(7, 63));
        assert!(!t.mbv_bit(7, 4));
        assert_eq!(t.mbv(7), (1 << 3) | (1 << 63));
        t.set_mbv_bit(7, 3, false);
        assert!(!t.mbv_bit(7, 3));
    }

    #[test]
    fn bits_are_per_page() {
        let mut t = EnhancedTlb::new(64, 8);
        t.mbv_bit(1, 0);
        t.set_mbv_bit(1, 10, true);
        assert!(!t.mbv_bit(2, 10));
        assert!(t.mbv_bit(1, 10));
    }

    #[test]
    fn eviction_writes_back_and_refill_restores() {
        // 2-entry direct-mapped TLB: pages 0 and 2 conflict.
        let mut t = EnhancedTlb::new(2, 1);
        t.mbv_bit(0, 0);
        t.set_mbv_bit(0, 5, true);
        // Fault in a conflicting page -> page 0 evicted to backing store.
        t.mbv_bit(2, 0);
        assert_eq!(t.backing_len(), 1);
        // Reading page 0 again faults it back with the bit intact; page 2's
        // all-zero vector needs no backing storage.
        assert!(t.mbv_bit(0, 5));
        assert_eq!(t.backing_len(), 0);
    }

    #[test]
    fn zero_vectors_not_stored_in_backing() {
        let mut t = EnhancedTlb::new(2, 1);
        t.mbv_bit(0, 0); // all-zero vector
        t.mbv_bit(2, 0); // evicts page 0
        assert_eq!(t.backing_len(), 0, "zero MBVs need no backing storage");
    }

    #[test]
    fn set_on_non_resident_page_goes_to_backing() {
        let mut t = EnhancedTlb::new(2, 1);
        // Never touched page 9: the L3 evicts one of its lines (reset) and
        // then fills another (set) — both without TLB residency.
        t.set_mbv_bit(9, 4, true);
        assert_eq!(t.backing_len(), 1);
        assert!(t.mbv_bit(9, 4));
        t.set_mbv_bit(9, 4, false);
        assert!(!t.mbv_bit(9, 4));
    }

    #[test]
    fn clearing_last_bit_frees_backing_entry() {
        let mut t = EnhancedTlb::new(2, 1);
        t.set_mbv_bit(9, 4, true); // non-resident -> backing
        t.set_mbv_bit(9, 4, false);
        assert_eq!(t.backing_len(), 0);
    }

    #[test]
    fn fault_in_restores_the_evicted_mbv() {
        // 2-entry direct-mapped TLB: pages 0 and 2 conflict.
        let mut t = EnhancedTlb::new(2, 1);
        assert_eq!(t.fault_in(0), 0);
        t.set_mbv_bit(0, 5, true);
        assert_eq!(t.fault_in(2), 0);
        assert_eq!(t.mbv(0), 1 << 5, "evicted vector parked");
        // Faulting page 0 back evicts page 2 and restores the stored MBV.
        assert_eq!(t.fault_in(0), 1 << 5);
        assert_eq!(t.backing_len(), 0);
        // A hit returns the resident vector.
        assert_eq!(t.fault_in(0), 1 << 5);
    }

    #[test]
    fn stats_count_faults() {
        let mut t = EnhancedTlb::new(64, 8);
        t.mbv_bit(1, 0);
        t.mbv_bit(1, 1);
        t.mbv_bit(2, 0);
        let s = t.stats();
        assert_eq!(s.misses.get(), 2);
        assert_eq!(s.hits.get(), 1);
    }

    #[test]
    fn paper_overhead_is_64_bits_per_entry() {
        // 64 entries x 64-bit MBV = 512 bytes per TLB: the §IV.C overhead
        // argument. This is a documentation-level invariant: the payload
        // type is exactly u64.
        assert_eq!(std::mem::size_of::<u64>() * 64, 512);
    }
}

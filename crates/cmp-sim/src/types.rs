//! Fundamental simulator types and address arithmetic.
//!
//! Address layout: each core runs its own application in a disjoint slice of
//! the physical address space (multiprogrammed SE-mode execution, matching
//! the paper). The workload generator offsets each core's virtual addresses
//! by `core_id << CORE_ADDR_STRIDE_BITS`, giving every core a private 256 MB
//! region. All addresses inside the simulator are physical.

/// Simulation time in core clock cycles.
pub type Cycle = u64;

/// Core identifier, `0..n_cores`.
pub type CoreId = usize;

/// L3 bank identifier, `0..n_banks`.
pub type BankId = usize;

/// Program counter of a (synthetic) instruction. 32 bits is plenty for the
/// synthetic applications' loop nests and keeps ROB entries small.
pub type Pc = u32;

/// log2 of the cache line size (64 B lines, paper Table I).
pub const LINE_SHIFT: u32 = 6;

/// Cache line size in bytes.
pub const LINE_BYTES: u64 = 1 << LINE_SHIFT;

/// log2 of the page size (4 KB pages, paper §IV.C).
pub const PAGE_SHIFT: u32 = 12;

/// Page size in bytes.
pub const PAGE_BYTES: u64 = 1 << PAGE_SHIFT;

/// Cache lines per page: 64 for 4 KB pages of 64 B lines. This is the width
/// of the Re-NUCA Mapping Bit Vector.
pub const LINES_PER_PAGE: u64 = PAGE_BYTES / LINE_BYTES;

/// log2 of the per-core physical-address stride (256 MB per core).
pub const CORE_ADDR_STRIDE_BITS: u32 = 28;

/// Line address (byte address / 64) of a byte address.
#[inline]
pub const fn line_of(addr: u64) -> u64 {
    addr >> LINE_SHIFT
}

/// Page number of a byte address.
#[inline]
pub const fn page_of(addr: u64) -> u64 {
    addr >> PAGE_SHIFT
}

/// Page number containing a *line* address.
#[inline]
pub const fn page_of_line(line: u64) -> u64 {
    line >> (PAGE_SHIFT - LINE_SHIFT)
}

/// Index of a line within its page, `0..64` — the MBV bit index.
#[inline]
pub const fn line_index_in_page(line: u64) -> u64 {
    line & (LINES_PER_PAGE - 1)
}

/// The core that owns a physical *line* address.
#[inline]
pub const fn owner_of_line(line: u64) -> CoreId {
    (line >> (CORE_ADDR_STRIDE_BITS - LINE_SHIFT)) as CoreId
}

/// Translate a per-application virtual address to the core's physical slice.
#[inline]
pub const fn phys_addr(core: CoreId, vaddr: u64) -> u64 {
    ((core as u64) << CORE_ADDR_STRIDE_BITS) | (vaddr & ((1 << CORE_ADDR_STRIDE_BITS) - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_page_arithmetic() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 1);
        assert_eq!(page_of(4095), 0);
        assert_eq!(page_of(4096), 1);
        assert_eq!(LINES_PER_PAGE, 64);
    }

    #[test]
    fn page_of_line_consistent_with_page_of_addr() {
        for addr in [0u64, 64, 4032, 4096, 1 << 20] {
            assert_eq!(page_of(addr), page_of_line(line_of(addr)));
        }
    }

    #[test]
    fn line_index_in_page_covers_0_to_63() {
        assert_eq!(line_index_in_page(line_of(0)), 0);
        assert_eq!(line_index_in_page(line_of(63 * 64)), 63);
        assert_eq!(line_index_in_page(line_of(4096)), 0);
    }

    #[test]
    fn core_address_spaces_are_disjoint() {
        let a0 = phys_addr(0, 0xdead_beef);
        let a5 = phys_addr(5, 0xdead_beef);
        assert_ne!(a0, a5);
        assert_eq!(owner_of_line(line_of(a0)), 0);
        assert_eq!(owner_of_line(line_of(a5)), 5);
    }

    #[test]
    fn phys_addr_masks_overflowing_vaddrs() {
        // A vaddr that exceeds the per-core slice wraps within the slice
        // instead of bleeding into the neighbour's space.
        let a = phys_addr(1, 1 << CORE_ADDR_STRIDE_BITS);
        assert_eq!(owner_of_line(line_of(a)), 1);
    }
}

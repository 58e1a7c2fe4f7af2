//! End-to-end simulator benchmark: the workloads, the timed point runner,
//! the record/replay shims of the traced run, and the statistics the
//! `e2e` binary reports. See README.md for the metric definitions.

pub mod calib;
pub mod point;
pub mod report;
pub mod shim;
pub mod workload;

/// FNV-64 offset basis, the starting value of every hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over a whole word: `h' = (h ^ w) · prime`.
pub fn fold(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
}

/// FNV-1a 64 over `bytes`, continuing from `h`.
pub fn fnv64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| fold(h, u64::from(b)))
}

//! The seeded size-class content model and sub-block layout arithmetic.
//!
//! A 64 B line is split into `sub_blocks` equal sub-blocks (default 4 ×
//! 16 B, the granularity L2C2 compacts at). Every write of a line draws a
//! size class from a deterministic hash of `(seed, line, version)` where
//! `version` counts the writes the line has received *while resident* —
//! the class therefore changes over a line's lifetime exactly like real
//! data compressibility drifts, and a class larger than the currently
//! allocated one forces an **expansion** (the line is re-compacted into a
//! bigger allocation, an extra data-array program).
//!
//! The written sub-blocks rotate: a class-`c` write at version `v` starts
//! at sub-block `v % sub_blocks` and covers `c` consecutive sub-blocks
//! (mod `sub_blocks`). Rotation spreads cell wear across the line, which
//! is what the `wear.subblock_cv` gauge measures and the forecast's
//! uniform-wear assumption relies on.

/// Occurrence probabilities of size classes 1, 2 and 4 sub-blocks, in
/// that order. Pinned: the hash below realizes exactly this distribution
/// over its bottom two bits, and the forecast closed form integrates it.
pub const CLASS_PROBABILITIES: [(u8, f64); 3] = [(1, 0.5), (2, 0.25), (4, 0.25)];

/// A 64-bit finalizer (Murmur3 fmix64): full avalanche, so the class
/// bits are unbiased for any address stride.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Size class (compressed size in sub-blocks) of writing `line` at write
/// `version`, before clamping to the line's sub-block count: 1 with
/// probability 1/2, 2 with 1/4, 4 with 1/4 (see [`CLASS_PROBABILITIES`]).
pub fn size_class(seed: u64, line: u64, version: u32) -> u8 {
    let h = mix(seed
        ^ line.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (u64::from(version) << 1 | 1).wrapping_mul(0xd1b5_4a32_d192_ed03));
    match h & 3 {
        0 | 1 => 1,
        2 => 2,
        _ => 4,
    }
}

/// Bitmask (bit `k` = sub-block `k`) of the sub-blocks a class-`class`
/// write at `version` programs: `class` consecutive sub-blocks starting
/// at `version % sub_blocks`, wrapping.
///
/// # Panics
/// Panics if `sub_blocks` is 0 or exceeds 64.
pub fn subblock_mask(sub_blocks: usize, class: u8, version: u32) -> u64 {
    assert!(sub_blocks >= 1 && sub_blocks <= 64, "sub_blocks in 1..=64");
    let c = (class as usize).min(sub_blocks);
    let start = version as usize % sub_blocks;
    let mut mask = 0u64;
    for k in 0..c {
        mask |= 1 << ((start + k) % sub_blocks);
    }
    mask
}

/// The compression knob bundle a placement policy advertises to the
/// hierarchy (via `LlcPlacement::compression`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompressSpec {
    /// Sub-blocks per line. Must divide the 64 B line size; the config
    /// validator enforces it.
    pub sub_blocks: usize,
    /// Content-model seed: two systems with the same seed compress
    /// identically.
    pub seed: u64,
}

impl CompressSpec {
    /// A spec with the given geometry and seed.
    pub fn new(sub_blocks: usize, seed: u64) -> Self {
        CompressSpec { sub_blocks, seed }
    }

    /// Size class of writing `line` at `version`, clamped to the line's
    /// sub-block count.
    pub fn class_of(&self, line: u64, version: u32) -> u8 {
        size_class(self.seed, line, version).min(self.sub_blocks as u8)
    }

    /// Sub-block write mask of writing `line` at `version`.
    pub fn mask_of(&self, line: u64, version: u32) -> u64 {
        subblock_mask(self.sub_blocks, self.class_of(line, version), version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_deterministic_and_seeded() {
        for line in 0..64u64 {
            for v in 0..8u32 {
                assert_eq!(size_class(7, line, v), size_class(7, line, v));
            }
        }
        // A different seed must reshuffle at least one class over a small
        // sample (fails with probability ~(3/8)^64 if the seed were dead).
        let differs = (0..64u64).any(|l| size_class(1, l, 0) != size_class(2, l, 0));
        assert!(differs, "seed must influence the class");
    }

    #[test]
    fn class_distribution_matches_pin() {
        // Over a large sample the empirical distribution must sit within
        // a percent of the pinned 1/2, 1/4, 1/4.
        let n = 200_000u64;
        let mut counts = [0u64; 5];
        for i in 0..n {
            counts[size_class(0xC0DEC, i, (i % 7) as u32) as usize] += 1;
        }
        let p1 = counts[1] as f64 / n as f64;
        let p2 = counts[2] as f64 / n as f64;
        let p4 = counts[4] as f64 / n as f64;
        assert!((p1 - 0.5).abs() < 0.01, "p1 = {p1}");
        assert!((p2 - 0.25).abs() < 0.01, "p2 = {p2}");
        assert!((p4 - 0.25).abs() < 0.01, "p4 = {p4}");
        assert_eq!(counts[0] + counts[3], 0);
    }

    #[test]
    fn masks_rotate_and_wrap() {
        // Class 2 at version 0 on 4 sub-blocks: blocks {0,1}.
        assert_eq!(subblock_mask(4, 2, 0), 0b0011);
        // Version 3: starts at 3, wraps to 0 -> blocks {3,0}.
        assert_eq!(subblock_mask(4, 2, 3), 0b1001);
        // Class 4 always covers the whole line.
        assert_eq!(subblock_mask(4, 4, 2), 0b1111);
        // Clamp: class 4 on a 2-sub-block line covers both.
        assert_eq!(subblock_mask(2, 4, 1), 0b11);
    }

    #[test]
    fn mask_popcount_equals_clamped_class() {
        let spec = CompressSpec::new(4, 99);
        for line in 0..256u64 {
            for v in 0..16u32 {
                let mask = spec.mask_of(line, v);
                assert_eq!(mask.count_ones() as u8, spec.class_of(line, v));
                assert!(mask < 16, "mask within 4 sub-blocks");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sub_blocks in 1..=64")]
    fn zero_subblocks_rejected() {
        subblock_mask(0, 1, 0);
    }
}

//! Naive re-implementation of the L2C2 compression content model.
//!
//! The golden twin must not share code with `crates/compress` (the
//! comparison would be vacuous), so the size-class hash, the rotating
//! sub-block mask and the per-cell wear bookkeeping are re-derived here
//! from the documented semantics: class 1 with probability 1/2, class 2
//! with 1/4, class 4 with 1/4, drawn from a Murmur3-finalized hash of
//! `(seed, line, version)`; a class-`c` write at version `v` programs `c`
//! consecutive sub-blocks starting at `v % sub_blocks`. The differential
//! harness pins `golden_size_class == compress::size_class` over a sweep,
//! exactly like the `GOLDEN_WEC_THRESHOLD` constant pinning.

/// Size class (1, 2 or 4 sub-blocks) of writing `line` at write `version`,
/// before clamping to the line's sub-block count. Twin of
/// `compress::size_class`, re-implemented independently.
pub fn golden_size_class(seed: u64, line: u64, version: u32) -> u8 {
    // Murmur3 fmix64, written out inline.
    let mut h = seed
        ^ line.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (u64::from(version) << 1 | 1).wrapping_mul(0xd1b5_4a32_d192_ed03);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    match h & 3 {
        0 | 1 => 1,
        2 => 2,
        _ => 4,
    }
}

/// Sub-block write mask of a class-`class` write at `version`: `class`
/// consecutive sub-blocks (clamped) starting at `version % sub_blocks`,
/// wrapping. Twin of `compress::subblock_mask`.
pub fn golden_subblock_mask(sub_blocks: usize, class: u8, version: u32) -> u64 {
    assert!(sub_blocks >= 1 && sub_blocks <= 64, "sub_blocks in 1..=64");
    let c = (class as usize).min(sub_blocks);
    let start = version as usize % sub_blocks;
    let mut mask = 0u64;
    for k in 0..c {
        mask |= 1 << ((start + k) % sub_blocks);
    }
    mask
}

/// The golden compressed-data-array state: per-slot allocation class and
/// write version, per-cell (sub-block) wear and the per-bank expansion /
/// class-histogram counters the harness compares against
/// `BankCompressStats` and `WearTracker::cell_writes`.
#[derive(Clone, Debug)]
pub struct GoldenCompress {
    /// Sub-blocks per line.
    pub sub_blocks: usize,
    /// Content-model seed.
    pub seed: u64,
    /// Allocated size class per `[bank][slot]`.
    pub class: Vec<Vec<u8>>,
    /// Write version per `[bank][slot]` (resets to 0 on fill).
    pub version: Vec<Vec<u32>>,
    /// Per-cell wear, `[bank][slot * sub_blocks + k]`.
    pub cell_wear: Vec<Vec<u64>>,
    /// Expansion re-fills per bank.
    pub expansions: Vec<u64>,
    /// Class-write histogram per bank, indexed by `log2(class)`.
    pub class_writes: Vec<[u64; 3]>,
}

impl GoldenCompress {
    /// Zeroed compression state for `n_banks × slots` lines of
    /// `sub_blocks` sub-blocks each.
    pub fn new(n_banks: usize, slots: usize, sub_blocks: usize, seed: u64) -> Self {
        GoldenCompress {
            sub_blocks,
            seed,
            class: vec![vec![0; slots]; n_banks],
            version: vec![vec![0; slots]; n_banks],
            cell_wear: vec![vec![0; slots * sub_blocks]; n_banks],
            expansions: vec![0; n_banks],
            class_writes: vec![[0; 3]; n_banks],
        }
    }

    /// Account one L3 write of `line` into `(bank, slot)`. Fills reset the
    /// version and set the allocation; writebacks expand the allocation
    /// when (and only when) the new class strictly exceeds it.
    pub fn charge(&mut self, bank: usize, slot: usize, line: u64, is_fill: bool) {
        if is_fill {
            self.version[bank][slot] = 0;
        }
        let v = self.version[bank][slot];
        let c = golden_size_class(self.seed, line, v).min(self.sub_blocks as u8);
        let mask = golden_subblock_mask(self.sub_blocks, c, v);
        for k in 0..self.sub_blocks {
            if mask >> k & 1 == 1 {
                self.cell_wear[bank][slot * self.sub_blocks + k] += 1;
            }
        }
        self.class_writes[bank][c.trailing_zeros() as usize] += 1;
        self.version[bank][slot] = v + 1;
        if is_fill {
            self.class[bank][slot] = c;
        } else if c > self.class[bank][slot] {
            self.class[bank][slot] = c;
            self.expansions[bank] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_classes_hit_the_pinned_distribution() {
        let n = 100_000u64;
        let mut counts = [0u64; 5];
        for i in 0..n {
            counts[golden_size_class(0xC0DEC, i, (i % 5) as u32) as usize] += 1;
        }
        assert_eq!(counts[0] + counts[3], 0);
        let p1 = counts[1] as f64 / n as f64;
        assert!((p1 - 0.5).abs() < 0.02, "p1 = {p1}");
    }

    #[test]
    fn masks_rotate_with_version() {
        assert_eq!(golden_subblock_mask(4, 2, 0), 0b0011);
        assert_eq!(golden_subblock_mask(4, 2, 3), 0b1001);
        assert_eq!(golden_subblock_mask(2, 4, 0), 0b11, "class clamps");
    }

    #[test]
    fn fills_reset_and_writebacks_expand_strictly() {
        let mut gc = GoldenCompress::new(1, 4, 4, 7);
        // Find a line whose fill class is 1 and whose next write is class 4
        // so one writeback provably expands.
        let line = (0..10_000u64)
            .find(|&l| golden_size_class(7, l, 0) == 1 && golden_size_class(7, l, 1) == 4)
            .expect("such a line exists in the first 10k");
        gc.charge(0, 2, line, true);
        assert_eq!((gc.class[0][2], gc.version[0][2]), (1, 1));
        assert_eq!(gc.expansions[0], 0);
        gc.charge(0, 2, line, false);
        assert_eq!(gc.class[0][2], 4);
        assert_eq!(gc.expansions[0], 1);
        // Cell wear: 1 sub-block + 4 sub-blocks = 5 cell writes total.
        assert_eq!(gc.cell_wear[0].iter().sum::<u64>(), 5);
        assert_eq!(gc.class_writes[0], [1, 0, 1]);
    }
}

//! The synthetic application generator.
//!
//! An [`AppModel`] turns an [`AppSpec`] into an
//! infinite, deterministic instruction stream (it implements
//! [`cmp_sim::instr::InstrSource`]).
//!
//! Virtual-address layout inside the core's private 256 MB slice:
//!
//! ```text
//! [0 .. 8K)              hot region   (L1-resident)
//! [64K .. 64K+mid)       mid region   (L3-resident, misses the L2)
//! [128M .. 128M+big)     big region   (beyond the L3)
//! ```
//!
//! Mechanics:
//!
//! * memory ops are drawn with probability `mem_frac`, split across the
//!   regions by their weights;
//! * big-region accesses come in **bursts** of `burst` consecutive lines
//!   (the MLP knob: a burst's misses overlap in the memory system so only
//!   the leading one blocks the ROB head — isolated misses, `burst = 1`,
//!   all block);
//! * mid/big loads are followed by a store to the same line with the
//!   region's store fraction (read-modify-write — the writeback source);
//! * each region draws PCs from its own pool, giving the Criticality
//!   Predictor Table stable loop PCs to learn.

use cmp_sim::instr::{Instr, InstrSource};
use cmp_sim::types::{Pc, LINE_BYTES};
use sim_rng::{Bounded, SimRng};

use crate::spec::{AppSpec, BigPattern};

const HOT_BYTES: u64 = 8 * 1024;
const HOT_BASE: u64 = 0;
const MID_BASE: u64 = 64 * 1024;
const BIG_BASE: u64 = 128 * 1024 * 1024;

/// PC pool bases and sizes per region (word-aligned synthetic PCs).
const HOT_PCS: (Pc, u32) = (0x1000, 64);
const MID_PCS: (Pc, u32) = (0x2000, 32);
const BIG_PCS: (Pc, u32) = (0x3000, 16);
const SCAN_PCS: (Pc, u32) = (0x4000, 16);
/// Store PCs live in a disjoint range from load PCs.
const STORE_PC_OFFSET: Pc = 0x8000;

/// `⌈p · 2^53⌉`: the integer threshold `t` for which `(next_u64() >> 11)
/// < t` holds exactly when `gen_f64() < p` on the same draw.
///
/// `gen_f64` returns `m · 2^-53` for the 53-bit integer `m = next_u64() >>
/// 11`, and scaling by `2^53` is exact in `f64`, so `m · 2^-53 < p` holds
/// exactly when `m < p · 2^53`, that is when `m < ⌈p · 2^53⌉`. The cast
/// saturates, which keeps the edges exact too: `p ≤ 0` (or NaN) gives 0,
/// never true, and `p ≥ 1` gives at least `2^53`, always true.
fn draw_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// [`AppModel`]'s per-draw thresholds, one per probability of the spec.
#[derive(Clone, Copy, Debug)]
struct Thresholds {
    /// `mem_frac`: the instruction is a memory op.
    mem: u64,
    /// `w_big` over the expected burst length: a memory op starts a big
    /// burst.
    burst: u64,
    /// That burst probability plus `w_mid` (the same `f64` sum as a direct
    /// comparison would use): a memory op that starts no burst goes to
    /// the mid region.
    mid: u64,
    store_hot: u64,
    store_mid: u64,
    store_big: u64,
    scan: u64,
    alu_long: u64,
}

impl Thresholds {
    fn new(spec: &AppSpec) -> Self {
        // A burst delivers several big accesses, so the *start* probability
        // is the big weight divided by the expected burst length (given the
        // chase/scan mix) — keeping `w_big` the fraction of memory ops that
        // are big-region loads regardless of burstiness.
        let expected_burst_len =
            (1.0 - spec.scan_frac) * spec.burst as f64 + spec.scan_frac * spec.scan_burst as f64;
        let p_burst = spec.w_big / expected_burst_len;
        Thresholds {
            mem: draw_threshold(spec.mem_frac),
            burst: draw_threshold(p_burst),
            mid: draw_threshold(p_burst + spec.w_mid),
            store_hot: draw_threshold(spec.store_frac_hot),
            store_mid: draw_threshold(spec.store_frac_mid),
            store_big: draw_threshold(spec.store_frac_big),
            scan: draw_threshold(spec.scan_frac),
            alu_long: draw_threshold(spec.alu_long_frac),
        }
    }
}

/// A deterministic synthetic application.
pub struct AppModel {
    spec: AppSpec,
    rng: SimRng,
    mid_lines: u64,
    big_lines: u64,
    /// Precomputed region samplers (`gen_range` hoisted: same draws, no
    /// per-access division).
    hot_pick: Bounded,
    mid_pick: Bounded,
    big_pick: Bounded,
    /// Next big-region line of the current burst (absolute line index
    /// within the big region).
    burst_line: u64,
    burst_left: u32,
    /// Persistent stream position across bursts.
    stream_pos: u64,
    /// A store queued to follow its load (read-modify-write).
    pending_store: Option<(u64, Pc)>,
    /// Whether the current burst is a scan (separate PC pool).
    in_scan: bool,
    /// Integer draw thresholds (see [`draw_threshold`]), computed once
    /// from the spec's probabilities.
    t: Thresholds,
    /// An instruction drawn past the end of an ALU run (see
    /// [`InstrSource::next_alu_run`]), handed out by the next
    /// `next_instr` call so the stream order is unchanged.
    peeked: Option<Instr>,
    pc_counters: [u32; 4],
}

impl AppModel {
    /// Build a model from a spec with a deterministic seed.
    pub fn new(spec: AppSpec, seed: u64) -> Self {
        spec.validate();
        let hot_lines = HOT_BYTES / LINE_BYTES;
        let mid_lines = spec.mid_bytes / LINE_BYTES;
        let big_lines = spec.big_bytes / LINE_BYTES;
        AppModel {
            mid_lines,
            big_lines,
            hot_pick: Bounded::new(hot_lines.max(1)),
            mid_pick: Bounded::new(mid_lines.max(1)),
            big_pick: Bounded::new(big_lines.max(1)),
            rng: SimRng::seed_from_u64(seed ^ 0x5eed_0000),
            burst_line: 0,
            burst_left: 0,
            stream_pos: 0,
            pending_store: None,
            in_scan: false,
            t: Thresholds::new(&spec),
            peeked: None,
            pc_counters: [0; 4],
            spec,
        }
    }

    /// One Bernoulli draw against threshold `t`: the same outcome, and the
    /// same RNG step, as `self.rng.gen_f64() < p` for `t = draw_threshold(p)`.
    #[inline]
    fn draw_below(&mut self, t: u64) -> bool {
        (self.rng.next_u64() >> 11) < t
    }

    /// The spec driving this model.
    pub fn spec(&self) -> &AppSpec {
        &self.spec
    }

    #[inline]
    fn next_pc(&mut self, region: usize) -> Pc {
        let (base, n) = [HOT_PCS, MID_PCS, BIG_PCS, SCAN_PCS][region];
        let c = self.pc_counters[region];
        self.pc_counters[region] = c.wrapping_add(1);
        // Pool sizes are powers of two; the mask is the modulo.
        debug_assert!(n.is_power_of_two());
        base + (c & (n - 1)) * 4
    }

    #[inline]
    fn hot_access(&mut self) -> Instr {
        let line = self.hot_pick.sample(&mut self.rng);
        let vaddr = HOT_BASE + line * LINE_BYTES;
        let pc = self.next_pc(0);
        if self.draw_below(self.t.store_hot) {
            Instr::Store {
                vaddr,
                pc: pc + STORE_PC_OFFSET,
            }
        } else {
            Instr::Load { vaddr, pc }
        }
    }

    #[inline]
    fn mid_access(&mut self) -> Instr {
        debug_assert!(self.mid_lines > 0);
        let line = self.mid_pick.sample(&mut self.rng);
        let vaddr = MID_BASE + line * LINE_BYTES;
        let pc = self.next_pc(1);
        if self.draw_below(self.t.store_mid) {
            // Read-modify-write: the store trails the load.
            self.pending_store = Some((vaddr, pc + STORE_PC_OFFSET));
        }
        Instr::Load { vaddr, pc }
    }

    #[inline]
    fn big_access(&mut self) -> Instr {
        // `burst_line` is kept normalized to `[0, big_lines)`, so the wrap
        // is a compare instead of a per-access modulo.
        let line = self.burst_line;
        self.burst_line += 1;
        if self.burst_line == self.big_lines {
            self.burst_line = 0;
        }
        self.burst_left -= 1;
        let vaddr = BIG_BASE + line * LINE_BYTES;
        let pc = self.next_pc(if self.in_scan { 3 } else { 2 });
        if self.draw_below(self.t.store_big) {
            self.pending_store = Some((vaddr, pc + STORE_PC_OFFSET));
        }
        Instr::Load { vaddr, pc }
    }

    fn start_burst(&mut self) {
        self.in_scan = self.spec.scan_frac > 0.0 && self.draw_below(self.t.scan);
        let len = if self.in_scan {
            self.spec.scan_burst
        } else {
            self.spec.burst
        };
        self.burst_left = len;
        self.burst_line = match self.spec.big_pattern {
            BigPattern::Stream => {
                let start = self.stream_pos;
                self.stream_pos = (self.stream_pos + len as u64) % self.big_lines;
                start
            }
            BigPattern::Random => {
                debug_assert!(self.big_lines > 0);
                self.big_pick.sample(&mut self.rng)
            }
        };
    }

    /// Draw the next instruction from the generative model (ignoring any
    /// peeked instruction — callers handle that).
    fn draw(&mut self) -> Instr {
        if self.draw_below(self.t.mem) {
            if let Some((vaddr, pc)) = self.pending_store.take() {
                return Instr::Store { vaddr, pc };
            }
            if self.burst_left > 0 {
                return self.big_access();
            }
            // One draw picks the region: burst start, mid, else hot.
            let r = self.rng.next_u64() >> 11;
            if r < self.t.burst {
                self.start_burst();
                self.big_access()
            } else if r < self.t.mid {
                self.mid_access()
            } else {
                self.hot_access()
            }
        } else {
            let latency = if self.spec.alu_long_frac > 0.0 && self.draw_below(self.t.alu_long) {
                self.spec.alu_long_latency
            } else {
                1
            };
            Instr::Alu { latency }
        }
    }
}

impl InstrSource for AppModel {
    fn next_instr(&mut self) -> Instr {
        if let Some(i) = self.peeked.take() {
            return i;
        }
        self.draw()
    }

    fn next_alu_run(&mut self, max: u32) -> u32 {
        if self.peeked.is_some() {
            // The stashed instruction ended the previous run; it must be
            // delivered (via `next_instr`) before any further draws.
            return 0;
        }
        let mut n = 0;
        while n < max {
            match self.draw() {
                Instr::Alu { latency: 1 } => n += 1,
                other => {
                    self.peeked = Some(other);
                    break;
                }
            }
        }
        n
    }

    fn label(&self) -> &str {
        self.spec.name
    }

    fn warm_ranges(&self) -> Vec<(u64, u64)> {
        // The cache-resident working sets: hot (L1) and mid (L3) regions.
        // The big region is streamed/missed by construction — warming it
        // would be wrong.
        if self.spec.w_mid > 0.0 {
            vec![(HOT_BASE, HOT_BYTES), (MID_BASE, self.spec.mid_bytes)]
        } else {
            vec![(HOT_BASE, HOT_BYTES)]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `draw_threshold` agrees with the `f64` comparison it replaces for
    /// every 53-bit draw `m` tried against `p`.
    fn assert_threshold_exact(m: u64, p: f64) {
        let by_float = m as f64 * (1.0 / (1u64 << 53) as f64) < p;
        assert_eq!(m < draw_threshold(p), by_float, "m = {m}, p = {p:e}");
    }

    #[test]
    fn draw_threshold_matches_f64_comparison_at_the_edges() {
        const TOP: u64 = (1 << 53) - 1;
        let ulp = 1.0 / (1u64 << 53) as f64;
        let mut ps = vec![0.0, -0.0, 1.0, f64::MIN_POSITIVE, 5e-324, -ulp];
        // p = k · 2^-53 and its neighbouring doubles, for small, middling
        // and near-one k.
        for k in [1u64, 2, 3, 1 << 20, 1 << 52, (1 << 52) + 1, TOP - 1, TOP] {
            let p = k as f64 * ulp;
            ps.extend([
                p,
                f64::from_bits(p.to_bits() - 1),
                f64::from_bits(p.to_bits() + 1),
            ]);
        }
        ps.push(f64::from_bits(1.0f64.to_bits() - 1));
        ps.push(f64::from_bits(1.0f64.to_bits() + 1));
        for &p in &ps {
            let t = draw_threshold(p).min(TOP + 1);
            for m in [0, 1, 2, TOP - 1, TOP] {
                assert_threshold_exact(m, p);
            }
            for m in [t.saturating_sub(2), t.saturating_sub(1), t, t + 1] {
                assert_threshold_exact(m.min(TOP), p);
            }
        }
        assert_eq!(draw_threshold(0.0), 0);
        assert_eq!(draw_threshold(1.0), 1 << 53);
        assert_eq!(draw_threshold(ulp), 1);
        assert_eq!(draw_threshold(f64::MIN_POSITIVE), 1);
    }

    #[test]
    fn draw_threshold_matches_f64_comparison_on_random_pairs() {
        let mut rng = SimRng::seed_from_u64(0xD2A3);
        for i in 0..1_000_000u32 {
            let m = rng.next_u64() >> 11;
            // Alternate uniform p, p near m's own value, and spec-like
            // short decimals.
            let p = match i % 3 {
                0 => rng.gen_f64(),
                1 => f64::from_bits(
                    (m as f64 / (1u64 << 53) as f64).to_bits() ^ (rng.next_u64() & 3),
                ),
                _ => (rng.next_u64() % 1001) as f64 / 1000.0,
            };
            assert_threshold_exact(m, p);
        }
    }
    use crate::spec::{app_by_name, SPEC_TABLE};

    fn count_kinds(model: &mut AppModel, n: usize) -> (usize, usize, usize) {
        let (mut loads, mut stores, mut alus) = (0, 0, 0);
        for _ in 0..n {
            match model.next_instr() {
                Instr::Load { .. } => loads += 1,
                Instr::Store { .. } => stores += 1,
                Instr::Alu { .. } => alus += 1,
            }
        }
        (loads, stores, alus)
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = *app_by_name("mcf").unwrap();
        let mut a = AppModel::new(spec, 7);
        let mut b = AppModel::new(spec, 7);
        for _ in 0..10_000 {
            assert_eq!(a.next_instr(), b.next_instr());
        }
    }

    #[test]
    fn alu_run_batching_preserves_stream() {
        // Consuming the model through next_alu_run + next_instr must yield
        // exactly the stream next_instr alone would, for every app.
        for spec in &SPEC_TABLE {
            let mut plain = AppModel::new(*spec, 7);
            let mut batched = AppModel::new(*spec, 7);
            let mut got = Vec::with_capacity(60_000);
            while got.len() < 50_000 {
                let n = batched.next_alu_run(6);
                for _ in 0..n {
                    got.push(Instr::Alu { latency: 1 });
                }
                got.push(batched.next_instr());
            }
            for (i, want) in got.into_iter().enumerate() {
                assert_eq!(plain.next_instr(), want, "{}: instr {i}", spec.name);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let spec = *app_by_name("mcf").unwrap();
        let mut a = AppModel::new(spec, 1);
        let mut b = AppModel::new(spec, 2);
        let same = (0..1000)
            .filter(|_| a.next_instr() == b.next_instr())
            .count();
        assert!(same < 990, "streams should diverge: {same}/1000 identical");
    }

    #[test]
    fn mem_fraction_approximates_spec() {
        for name in ["mcf", "povray", "streamL"] {
            let spec = *app_by_name(name).unwrap();
            let mut m = AppModel::new(spec, 3);
            let n = 200_000;
            let (loads, stores, _) = count_kinds(&mut m, n);
            let mem_frac = (loads + stores) as f64 / n as f64;
            // Pending stores add extra memory ops beyond mem_frac draws;
            // allow a generous band.
            assert!(
                (mem_frac - spec.mem_frac).abs() < 0.08,
                "{name}: measured {mem_frac:.3} vs spec {:.3}",
                spec.mem_frac
            );
        }
    }

    #[test]
    fn streaml_stores_follow_loads() {
        // streamL has store_frac_big = 1.0: every big load is followed by a
        // store to the same line.
        let spec = *app_by_name("streamL").unwrap();
        let mut m = AppModel::new(spec, 5);
        let mut last_big_load: Option<u64> = None;
        let mut follows = 0;
        let mut big_loads = 0;
        for _ in 0..100_000 {
            match m.next_instr() {
                Instr::Load { vaddr, .. } if vaddr >= super::BIG_BASE => {
                    big_loads += 1;
                    last_big_load = Some(vaddr);
                }
                Instr::Store { vaddr, .. } if vaddr >= super::BIG_BASE => {
                    if last_big_load == Some(vaddr) {
                        follows += 1;
                    }
                }
                _ => {}
            }
        }
        assert!(big_loads > 1000);
        assert!(
            follows as f64 > big_loads as f64 * 0.9,
            "{follows}/{big_loads} stores followed their load"
        );
    }

    #[test]
    fn stream_pattern_is_sequential() {
        let spec = *app_by_name("libquantum").unwrap();
        let mut m = AppModel::new(spec, 11);
        let mut big_lines = Vec::new();
        for _ in 0..200_000 {
            if let Instr::Load { vaddr, .. } = m.next_instr() {
                if vaddr >= super::BIG_BASE {
                    big_lines.push((vaddr - super::BIG_BASE) / 64);
                }
            }
            if big_lines.len() > 500 {
                break;
            }
        }
        // Sequential: the vast majority of consecutive big loads differ by 1.
        let seq = big_lines
            .windows(2)
            .filter(|w| w[1] == w[0] + 1 || w[1] == 0)
            .count();
        assert!(
            seq as f64 > big_lines.len() as f64 * 0.9,
            "stream must be sequential: {seq}/{}",
            big_lines.len()
        );
    }

    #[test]
    fn random_pattern_is_not_sequential() {
        // mcf without its scan phases: pure pointer-chase jumps.
        let mut spec = *app_by_name("mcf").unwrap();
        spec.scan_frac = 0.0;
        let mut m = AppModel::new(spec, 11);
        let mut big_lines = Vec::new();
        for _ in 0..200_000 {
            if let Instr::Load { vaddr, .. } = m.next_instr() {
                if vaddr >= super::BIG_BASE {
                    big_lines.push((vaddr - super::BIG_BASE) / 64);
                }
            }
            if big_lines.len() > 500 {
                break;
            }
        }
        let seq = big_lines.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(
            (seq as f64) < big_lines.len() as f64 * 0.2,
            "mcf (burst=1) must jump around: {seq}/{}",
            big_lines.len()
        );
    }

    #[test]
    fn addresses_stay_in_their_regions() {
        for spec in &SPEC_TABLE {
            let mut m = AppModel::new(*spec, 1);
            for _ in 0..20_000 {
                let (vaddr, _is_store) = match m.next_instr() {
                    Instr::Load { vaddr, .. } => (vaddr, false),
                    Instr::Store { vaddr, .. } => (vaddr, true),
                    Instr::Alu { .. } => continue,
                };
                let in_hot = vaddr < HOT_BYTES;
                let in_mid = (MID_BASE..MID_BASE + spec.mid_bytes).contains(&vaddr);
                let in_big = (BIG_BASE..BIG_BASE + spec.big_bytes).contains(&vaddr);
                assert!(
                    in_hot || in_mid || in_big,
                    "{}: vaddr {vaddr:#x} outside all regions",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn pc_pools_are_disjoint_and_bounded() {
        let spec = *app_by_name("mcf").unwrap();
        let mut m = AppModel::new(spec, 1);
        let mut pcs = std::collections::HashSet::new();
        for _ in 0..100_000 {
            match m.next_instr() {
                Instr::Load { pc, .. } | Instr::Store { pc, .. } => {
                    pcs.insert(pc);
                }
                _ => {}
            }
        }
        // Bounded static footprint: ≤ 2 × (64 + 32 + 16 + 16) PCs.
        assert!(pcs.len() <= 256, "{} distinct PCs", pcs.len());
        // Load and store PCs must not collide (predictor indexes by PC).
        for pc in &pcs {
            let is_store_pc = *pc >= STORE_PC_OFFSET;
            if is_store_pc {
                assert!(pcs.contains(&(pc - STORE_PC_OFFSET)));
            }
        }
    }

    #[test]
    fn gems_generates_almost_no_memory_traffic_beyond_hot() {
        let spec = *app_by_name("GemsFDTD").unwrap();
        let mut m = AppModel::new(spec, 1);
        let mut beyond_hot = 0;
        for _ in 0..100_000 {
            match m.next_instr() {
                Instr::Load { vaddr, .. } | Instr::Store { vaddr, .. } if vaddr >= HOT_BYTES => {
                    beyond_hot += 1;
                }
                _ => {}
            }
        }
        assert!(
            beyond_hot < 50,
            "GemsFDTD beyond-hot accesses: {beyond_hot}"
        );
    }

    #[test]
    fn label_matches_spec_name() {
        let spec = *app_by_name("lbm").unwrap();
        let m = AppModel::new(spec, 1);
        assert_eq!(m.label(), "lbm");
    }
}

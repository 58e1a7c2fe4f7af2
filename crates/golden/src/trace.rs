//! Seeded workload traces and the `renuca-trace-v1` compact text format.
//!
//! A trace is a sequence of [`TraceOp`]s — one memory access each — that
//! the differential runner replays through both the real hierarchy and the
//! golden model. Every op packs into one `u64`, so shrunk counterexamples
//! serialize to one hex word per line under a single header line:
//!
//! ```text
//! renuca-trace-v1 scheme=Re-NUCA cols=2 rows=2 seed=42
//! 000000050c0e4a40
//! ...
//! ```
//!
//! Generation is fully determined by a [`TraceSpec`] and its seed, in
//! `sim-rng` style: the master seed is expanded with `splitmix64` into
//! per-concern sub-streams so changing one knob does not reshuffle the
//! others.

use cmp_sim::config::MAX_CORES;
use sim_rng::{splitmix64, SimRng};

/// Bit layout of a packed op (low to high): 32 bits physical address,
/// 16 bits PC, 5 bits core, 1 bit store, 1 bit ROB-blocked.
const PC_SHIFT: u32 = 32;
const CORE_SHIFT: u32 = 48;
const STORE_BIT: u32 = 53;
const BLOCKED_BIT: u32 = 54;

/// One replayable memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Issuing core (0..32).
    pub core: usize,
    /// Physical byte address (fits in 32 bits for ≤ 16-core machines).
    pub phys: u64,
    /// Program counter of the triggering instruction (≥ 1; 0 is reserved
    /// for the hierarchy's internal writeback metadata).
    pub pc: u32,
    /// Store (write-allocate) instead of load.
    pub is_store: bool,
    /// Whether this dynamic load blocked the ROB head (drives CPT
    /// training; ignored for stores).
    pub blocked: bool,
}

impl TraceOp {
    /// Pack into one `u64`.
    pub fn pack(self) -> u64 {
        debug_assert!(self.phys < (1u64 << 32));
        debug_assert!(self.pc >= 1 && self.pc < (1 << 16));
        debug_assert!(self.core < 32);
        self.phys
            | ((self.pc as u64) << PC_SHIFT)
            | ((self.core as u64) << CORE_SHIFT)
            | ((self.is_store as u64) << STORE_BIT)
            | ((self.blocked as u64) << BLOCKED_BIT)
    }

    /// Unpack from a `u64`.
    pub fn unpack(word: u64) -> Self {
        TraceOp {
            core: ((word >> CORE_SHIFT) & 0x1f) as usize,
            phys: word & 0xffff_ffff,
            pc: ((word >> PC_SHIFT) & 0xffff) as u32,
            is_store: word & (1 << STORE_BIT) != 0,
            blocked: word & (1 << BLOCKED_BIT) != 0,
        }
    }
}

/// Knobs of the seeded trace generator.
#[derive(Clone, Copy, Debug)]
pub struct TraceSpec {
    /// Master seed — the only source of randomness.
    pub seed: u64,
    /// Mesh columns (cores = banks = cols × rows; pow2 and non-pow2 both
    /// supported).
    pub cols: usize,
    /// Mesh rows.
    pub rows: usize,
    /// Number of ops to generate.
    pub ops: usize,
    /// Pages each core's working set spans (footprint = pages × 4 KB).
    pub footprint_pages: u64,
    /// Fraction of ops that are stores.
    pub write_ratio: f64,
    /// Fraction of load PCs that block the ROB frequently (the critical
    /// PCs); the rest block rarely. Skews the CPT's verdict mix.
    pub criticality_skew: f64,
    /// Probability an access targets another core's address region
    /// (exercises the coherence directory and cross-core MBV paths).
    pub sharing: f64,
    /// Distinct load/store PCs per core.
    pub pcs_per_core: u32,
}

impl TraceSpec {
    /// A balanced default spec for a `cols × rows` machine.
    pub fn new(seed: u64, cols: usize, rows: usize, ops: usize) -> Self {
        TraceSpec {
            seed,
            cols,
            rows,
            ops,
            footprint_pages: 8,
            write_ratio: 0.3,
            criticality_skew: 0.2,
            sharing: 0.1,
            pcs_per_core: 24,
        }
    }
}

/// Generate the op sequence of `spec`. Deterministic in `spec` alone.
pub fn generate(spec: &TraceSpec) -> Vec<TraceOp> {
    let n_cores = spec.cols * spec.rows;
    assert!(
        n_cores > 0 && n_cores <= 16,
        "packed ops carry 32-bit addresses"
    );
    assert!(spec.pcs_per_core >= 1);
    let mut master = spec.seed;
    let mut rng = SimRng::seed_from_u64(splitmix64(&mut master));
    let mut pc_rng = SimRng::seed_from_u64(splitmix64(&mut master));

    // Per-core PC sets with a fixed critical/non-critical split. PCs are
    // globally unique (core-offset) and never 0.
    let n_critical = ((spec.pcs_per_core as f64) * spec.criticality_skew).round() as u32;
    let pc_base = |core: usize| 1 + (core as u32) * spec.pcs_per_core;

    let mut ops = Vec::with_capacity(spec.ops);
    for _ in 0..spec.ops {
        let core = rng.gen_range_usize(0..n_cores);
        // Pick the address region: usually the core's own, sometimes a
        // neighbour's (sharing).
        let region = if spec.sharing > 0.0 && rng.gen_bool(spec.sharing) {
            rng.gen_range_usize(0..n_cores)
        } else {
            core
        };
        // Skewed page choice: square the uniform draw so low-numbered pages
        // are hot — realistic reuse, and it keeps the LRU stacks busy.
        let u = rng.gen_f64();
        let page = ((u * u) * spec.footprint_pages as f64) as u64;
        let page = page.min(spec.footprint_pages - 1);
        let line_in_page = rng.gen_bounded(64);
        let vaddr = page * 4096 + line_in_page * 64;
        let phys = cmp_sim::types::phys_addr(region, vaddr);

        let is_store = rng.gen_bool(spec.write_ratio);
        let pc_idx = pc_rng.gen_bounded(spec.pcs_per_core as u64) as u32;
        let pc = pc_base(core) + pc_idx;
        // Critical PCs block ~80% of the time, the rest ~1% — well clear of
        // the 3% CPT threshold on both sides.
        let block_p = if pc_idx < n_critical { 0.8 } else { 0.01 };
        let blocked = !is_store && pc_rng.gen_bool(block_p);

        ops.push(TraceOp {
            core,
            phys,
            pc,
            is_store,
            blocked,
        });
    }
    ops
}

/// Serialize a trace: header + one 16-digit hex word per op.
pub fn trace_to_text(
    scheme_name: &str,
    cols: usize,
    rows: usize,
    seed: u64,
    ops: &[TraceOp],
) -> String {
    let mut out =
        format!("renuca-trace-v1 scheme={scheme_name} cols={cols} rows={rows} seed={seed}\n");
    for op in ops {
        out.push_str(&format!("{:016x}\n", op.pack()));
    }
    out
}

/// Parse a `renuca-trace-v1` text (as [`trace_to_text`] writes it, header
/// fields in that order) back into `(scheme, cols, rows, seed, ops)`,
/// resolving the header's scheme name with `scheme_of`. Every defect is an
/// `Err` naming it: a malformed header or op line, a scheme `scheme_of`
/// does not know, a mesh outside `1..=MAX_CORES` tiles, or an op whose
/// core is not on the mesh.
pub fn parse_trace<S>(
    text: &str,
    scheme_of: impl Fn(&str) -> Option<S>,
) -> Result<(S, usize, usize, u64, Vec<TraceOp>), String> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let fields: Vec<&str> = header.split_whitespace().collect();
    let ["renuca-trace-v1", scheme, cols, rows, seed] = fields[..] else {
        return Err(format!("not a renuca-trace-v1 header: {header:?}"));
    };
    let value = |field: &'static str, kv: &str| -> Result<u64, String> {
        let v = kv.strip_prefix(field).and_then(|kv| kv.strip_prefix('='));
        v.and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad header field {kv:?}, expected {field}=<number>"))
    };
    let (cols, rows, seed) = (
        value("cols", cols)?,
        value("rows", rows)?,
        value("seed", seed)?,
    );
    let name = scheme
        .strip_prefix("scheme=")
        .ok_or_else(|| format!("bad header field {scheme:?}, expected scheme=<name>"))?;
    let scheme = scheme_of(name).ok_or_else(|| format!("unknown scheme {name:?}"))?;
    let tiles = cols.saturating_mul(rows);
    if !(1..=MAX_CORES as u64).contains(&tiles) {
        return Err(format!(
            "mesh {cols}x{rows} is outside 1..={MAX_CORES} tiles"
        ));
    }
    let mut ops = Vec::new();
    for line in lines.map(str::trim).filter(|l| !l.is_empty()) {
        let word = u64::from_str_radix(line, 16).map_err(|_| format!("bad op line {line:?}"))?;
        let op = TraceOp::unpack(word);
        if op.core as u64 >= tiles {
            return Err(format!(
                "op {} issues from core {} of a {cols}x{rows} mesh",
                ops.len(),
                op.core
            ));
        }
        ops.push(op);
    }
    Ok((scheme, cols as usize, rows as usize, seed, ops))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrips() {
        let op = TraceOp {
            core: 13,
            phys: 0xdead_bee8,
            pc: 0x1234,
            is_store: true,
            blocked: false,
        };
        assert_eq!(TraceOp::unpack(op.pack()), op);
    }

    #[test]
    fn generation_is_deterministic_and_in_bounds() {
        let spec = TraceSpec::new(7, 3, 2, 500);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        for op in &a {
            assert!(op.core < 6);
            assert!(op.phys < 1 << 32);
            assert!(op.pc >= 1);
            assert!(!op.blocked || !op.is_store);
        }
        // A different seed must produce a different stream.
        let c = generate(&TraceSpec::new(8, 3, 2, 500));
        assert_ne!(a, c);
    }

    /// The scheme names these tests accept.
    fn known(name: &str) -> Option<String> {
        ["S-NUCA", "Re-NUCA"]
            .contains(&name)
            .then(|| name.to_owned())
    }

    #[test]
    fn text_format_roundtrips() {
        let spec = TraceSpec::new(42, 2, 2, 50);
        let ops = generate(&spec);
        let text = trace_to_text("Re-NUCA", 2, 2, 42, &ops);
        let (scheme, cols, rows, seed, parsed) = parse_trace(&text, known).unwrap();
        assert_eq!(scheme, "Re-NUCA");
        assert_eq!((cols, rows, seed), (2, 2, 42));
        assert_eq!(parsed, ops);
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(parse_trace("bogus-header\n", known).is_err());
        assert!(parse_trace(
            "renuca-trace-v1 scheme=S-NUCA cols=2 rows=2 seed=1\nzz\n",
            known
        )
        .is_err());
        assert!(parse_trace("renuca-trace-v1 cols=2 rows=2 seed=1\n", known).is_err());
    }

    #[test]
    fn empty_or_oversized_meshes_are_rejected() {
        for (cols, rows) in [(0, 2), (2, 0), (0, 0), (33, 1), (8, 5), (u64::MAX, 2)] {
            let text = format!("renuca-trace-v1 scheme=S-NUCA cols={cols} rows={rows} seed=1\n");
            let err = parse_trace(&text, known).unwrap_err();
            assert!(err.contains("tiles"), "{cols}x{rows}: {err}");
        }
        let largest = "renuca-trace-v1 scheme=S-NUCA cols=8 rows=4 seed=1\n";
        assert!(parse_trace(largest, known).is_ok());
    }

    #[test]
    fn ops_from_cores_off_the_mesh_are_rejected() {
        let op = |core| TraceOp {
            core,
            phys: 0x1000,
            pc: 1,
            is_store: false,
            blocked: false,
        };
        let text = trace_to_text("S-NUCA", 2, 2, 1, &[op(3), op(5)]);
        let err = parse_trace(&text, known).unwrap_err();
        assert!(err.contains("core 5"), "{err}");
        let on_mesh = trace_to_text("S-NUCA", 2, 2, 1, &[op(0), op(3)]);
        assert_eq!(parse_trace(&on_mesh, known).unwrap().4.len(), 2);
    }

    #[test]
    fn unknown_schemes_are_rejected() {
        let text = "renuca-trace-v1 scheme=Bogus cols=2 rows=2 seed=1\n";
        let err = parse_trace(text, known).unwrap_err();
        assert!(err.contains("Bogus"), "{err}");
    }
}

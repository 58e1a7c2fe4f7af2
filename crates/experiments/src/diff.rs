//! Differential verification: the real simulator vs the golden model.
//!
//! [`replay`] drives one seeded trace through `cmp_sim::MemoryHierarchy`
//! and `golden::GoldenSystem` in lockstep and cross-checks, per access:
//!
//! * every placement event (fill / writeback → which bank), logged from
//!   the policy hooks by the harness's one policy wrapper, the `Recorder`;
//! * the acting core's [`PerCoreMemStats`] counters;
//! * the per-bank write histogram;
//! * for Re-NUCA, the issue-time criticality prediction of twin CPTs.
//!
//! At end of trace it additionally compares a full [`StatsRegistry`]
//! (per-core, hierarchy and coherence-directory counters, each side
//! registered by the real stats types' own `register`), the per-slot wear
//! counters, the bank service model's op accounting against the golden
//! wear histogram, and the policy-internal state reachable through
//! [`LlcPlacement::as_any`]: Re-NUCA's Mapping Bit Vectors and the
//! directories and write counters of Naive, WEC and Coloring. Every
//! comparison, per access and at end of trace, goes through one rule,
//! `agree`, so every mismatch reads `<what> diverged: real …, golden …`.
//!
//! On a mismatch, [`shrink`] runs classic ddmin delta debugging to find a
//! 1-minimal failing sub-trace, which [`write_shrunk_trace`] serializes in
//! the `renuca-trace-v1` format (seed in the filename) for replay with
//! `cargo run -p experiments --bin diffcheck -- --replay <file>`.
//!
//! Both sides are built from the same [`Parts`]: the real policy by
//! `renuca_core`, the golden twin by [`golden_system`].
//!
//! [`mutation_check`] proves the harness has teeth, per scheme. Every bug
//! is injected here, from outside the production types: a scheme with a
//! non-default bank part is built with that part changed (write-aware
//! replacement dropped, another content seed); any other scheme gets a
//! `Bug` that the `Recorder` applies to the policy it wraps (lines twisted
//! one bank over, WEC's redirect target skewed, Coloring's epoch one write
//! short, Re-NUCA's MBV reset on eviction lost). In every case the harness
//! must catch the injected bug and shrink it to a 1-minimal reproducer.
//!
//! The metamorphic checks ([`write_conservation`], [`snuca_shift_symmetry`],
//! [`parallel_matches_serial`]) assert relations that must hold *across*
//! runs: placement policy cannot change total write volume in an
//! eviction-free regime, S-NUCA histograms translate with the address
//! stream, and the worker pool cannot change any result.
//!
//! [`PerCoreMemStats`]: cmp_sim::hierarchy::PerCoreMemStats
//! [`LlcPlacement::as_any`]: cmp_sim::placement::LlcPlacement::as_any

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt::{Debug, Display};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use cmp_sim::cache::ReplacementKind;
use cmp_sim::coherence::CoherenceStats;
use cmp_sim::config::SystemConfig;
use cmp_sim::hierarchy::{HierarchyStats, MemoryHierarchy, PerCoreMemStats};
use cmp_sim::placement::{AccessMeta, CriticalityPredictor, LlcAccessKind, LlcPlacement};
use cmp_sim::types::{line_of, owner_of_line, page_of_line, BankId, Cycle};
use golden::hierarchy::GoldenPerCore;
use golden::{
    generate, trace_to_text, GoldenCpt, GoldenEvent, GoldenEventKind, GoldenPlacement,
    GoldenPolicy, GoldenSystem, TraceOp, TraceSpec,
};
use renuca_core::{
    Coloring, Cpt, CptConfig, NaiveOracle, Parts, Placement, ReNuca, SNuca, Scheme, Wec,
    COLORING_EPOCH,
};
use sim_stats::StatsRegistry;

use crate::pool::parallel_map_threads;

/// A divergence between the real simulator and the golden model.
#[derive(Clone, Debug)]
pub struct Mismatch {
    /// Index of the op after which the divergence was detected
    /// (`ops.len()` for end-of-trace state divergences).
    pub op_index: usize,
    /// Human-readable description of what differed.
    pub detail: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op {}: {}", self.op_index, self.detail)
    }
}

/// Order-insensitive digest of one verified replay — everything the
/// metamorphic checks compare across runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayReport {
    /// Ops replayed.
    pub ops: usize,
    /// Demand fills into the L3.
    pub l3_fills: u64,
    /// All L3 writes (fills + L2 writebacks).
    pub l3_writes: u64,
    /// Dirty L2 victims written back, summed over cores.
    pub l2_writebacks: u64,
    /// Per-bank write totals (the wear histogram).
    pub bank_totals: Vec<u64>,
}

/// The two mesh geometries every corpus run covers: placement masking is
/// only sound for power-of-two tile counts, so a non-pow2 mesh rides along
/// to catch any `& (n-1)` where a `% n` was needed.
pub fn harness_configs() -> Vec<(&'static str, SystemConfig)> {
    vec![
        ("pow2-2x2", tiny_cfg(2, 2)),
        ("nonpow2-3x2", tiny_cfg(3, 2)),
    ]
}

/// A scaled-down machine whose caches churn under the default trace
/// footprint: L1/L2/L3 evictions, writebacks, back-invalidations and TLB
/// evictions all fire within a few thousand ops.
pub fn tiny_cfg(cols: usize, rows: usize) -> SystemConfig {
    let mut cfg = SystemConfig::mesh(cols, rows);
    cfg.l1.size_bytes = 1024; // 16 lines, 2-way
    cfg.l1.assoc = 2;
    cfg.l2.size_bytes = 4 * 1024; // 64 lines, 4-way
    cfg.l2.assoc = 4;
    cfg.l3_bank.size_bytes = 8 * 1024; // 128 lines/bank, 4-way
    cfg.l3_bank.assoc = 4;
    cfg.tlb_entries = 8; // forces MBV write-back/refill traffic
    cfg.tlb_assoc = 2;
    cfg.prefetch.streams = 0;
    cfg.validate();
    cfg
}

/// A machine roomy enough that a small-footprint trace causes *no*
/// capacity evictions at any level — the regime where the metamorphic
/// invariants (write conservation, histogram translation) hold exactly.
pub fn roomy_cfg(cols: usize, rows: usize) -> SystemConfig {
    let mut cfg = SystemConfig::mesh(cols, rows);
    cfg.l3_bank.size_bytes = 512 * 1024; // 8192 lines/bank
    cfg.prefetch.streams = 0;
    cfg.validate();
    cfg
}

/// Replay `ops` through both simulators and cross-check; `Ok` carries the
/// run digest, `Err` the first divergence.
pub fn replay(
    scheme: Scheme,
    cfg: &SystemConfig,
    ops: &[TraceOp],
) -> Result<ReplayReport, Mismatch> {
    run_diff(scheme, cfg, ops, false)
}

/// [`replay`] with a deliberate per-scheme bug injected into the real
/// side — used by [`mutation_check`] to prove the harness catches real
/// divergences (see `inject_bug` for which bug each scheme gets).
pub fn replay_mutated(
    scheme: Scheme,
    cfg: &SystemConfig,
    ops: &[TraceOp],
) -> Result<ReplayReport, Mismatch> {
    run_diff(scheme, cfg, ops, true)
}

/// Which injected bug the [`Recorder`] applies to the policy it wraps.
/// Each one keeps the real hierarchy internally coherent (no inclusion
/// violations, no duplicate fills, no directory desync) — only the
/// differential comparison can notice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Bug {
    /// Lines with `line % 17 == 3` are routed one bank to the right of
    /// where the wrapped policy wants them, on lookup and fill alike.
    Twist,
    /// A fill the wrapped policy sends away from its S-NUCA home goes one
    /// bank further (WEC's redirect target skewed past the coldest bank).
    SkewRedirect,
    /// One extra write reaches the wrapped policy after every 63rd real
    /// one, so Coloring's 64-write epoch clock runs on 63 (t real writes
    /// give 64⌊t/63⌋ + t mod 63 inner ones, whose rotation is ⌊t/63⌋).
    ShortEpoch,
    /// Evictions never reach the wrapped policy, so Re-NUCA loses the
    /// §IV.C reset of an evicted line's MBV bit: later lookups of the line
    /// go to its R-NUCA bank, where it no longer is.
    StaleMbv,
}

/// Per-scheme bug injection for [`replay_mutated`], chosen from the
/// scheme's `parts`. Every mutant is built from outside the production
/// types, so no bug ships in the simulator:
///
/// * write-aware replacement is dropped: the same parts with
///   [`ReplacementKind::Lru`];
/// * a compressed array gets the same parts under content seed
///   `cfg.compress_seed ^ 1` — placement stays identical and only the
///   compression state drifts, so catching it requires the
///   compression-state comparison;
/// * otherwise the parts stay as they are and the returned [`Bug`] goes to
///   the [`Recorder`]: WEC's redirected fills are skewed one bank past the
///   coldest, Coloring's epoch clock runs on 63 writes, not 64, Re-NUCA
///   never hears of an eviction, and every other placement twists a
///   subset of lines one bank over. Twisted bank ids would trip WEC's and
///   Coloring's directory assertions on eviction, hence their bugs of
///   their own.
fn inject_bug(parts: &mut Parts) -> Option<Bug> {
    if parts.replacement == ReplacementKind::WriteAware {
        parts.replacement = ReplacementKind::Lru;
        return None;
    }
    if let Some(spec) = parts.compression.as_mut() {
        spec.seed ^= 1;
        return None;
    }
    Some(match parts.placement {
        Placement::Wec => Bug::SkewRedirect,
        Placement::Coloring => Bug::ShortEpoch,
        Placement::ReNuca => Bug::StaleMbv,
        _ => Bug::Twist,
    })
}

/// The golden twin of a real placement policy.
fn golden_placement(placement: Placement) -> GoldenPlacement {
    match placement {
        Placement::SNuca => GoldenPlacement::SNuca,
        Placement::RNuca => GoldenPlacement::RNuca,
        Placement::Private => GoldenPlacement::Private,
        Placement::Naive => GoldenPlacement::Naive,
        Placement::ReNuca => GoldenPlacement::ReNuca,
        Placement::Wec => GoldenPlacement::Wec,
        Placement::Coloring => GoldenPlacement::Coloring,
    }
}

/// The golden system built from `parts` under `cfg`: the twin placement
/// model, the same L3 victim selection, and a compressed array exactly when
/// the parts compress (geometry and seed come from `cfg` on both sides).
pub fn golden_system(parts: &Parts, cfg: &SystemConfig) -> GoldenSystem {
    let policy = GoldenPolicy::new(
        golden_placement(parts.placement),
        cfg.noc.cols,
        cfg.noc.rows,
    );
    GoldenSystem::new(cfg, policy, parts.replacement, parts.compression.is_some())
}

/// The owning core of a line, exactly as `renuca_core::mapping` computes
/// it: mask for pow2 machine sizes, modulo otherwise.
fn owner(line: u64, n: usize) -> usize {
    let raw = owner_of_line(line);
    if n.is_power_of_two() {
        raw & (n - 1)
    } else {
        raw % n
    }
}

/// The placement events one op produced, shared between a [`Recorder`]
/// inside the hierarchy and the harness that drains it after every op.
type EventLog = Rc<RefCell<Vec<GoldenEvent>>>;

/// The harness's one policy wrapper, outermost around the real policy:
/// forwards every hook to the policy it wraps, applies the injected
/// [`Bug`] if there is one, and logs the L3 writes the hierarchy reports
/// through the hooks. `on_fill(meta, bank)` is a fill; an
/// `on_l3_write(bank)` that does not directly follow an `on_fill` is an L2
/// writeback into `bank`, of the line the last writeback-kind
/// `lookup_bank` asked about.
struct Recorder {
    inner: Box<dyn LlcPlacement>,
    bug: Option<Bug>,
    n_banks: usize,
    log: EventLog,
    /// `(core, line)` of the last writeback lookup.
    writeback: (usize, u64),
    after_fill: bool,
    /// Real L3 writes seen (the [`Bug::ShortEpoch`] clock).
    writes: u64,
}

impl Recorder {
    fn new(inner: Box<dyn LlcPlacement>, bug: Option<Bug>, n_banks: usize) -> (Self, EventLog) {
        let log = EventLog::default();
        let rec = Recorder {
            inner,
            bug,
            n_banks,
            log: Rc::clone(&log),
            writeback: (0, 0),
            after_fill: false,
            writes: 0,
        };
        (rec, log)
    }

    /// `bank`, one over for the lines a [`Bug::Twist`] routes wrong.
    fn twist(&self, bank: BankId, line: u64) -> BankId {
        if self.bug == Some(Bug::Twist) && line % 17 == 3 {
            (bank + 1) % self.n_banks
        } else {
            bank
        }
    }
}

impl LlcPlacement for Recorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn lookup_bank(&mut self, meta: &AccessMeta) -> BankId {
        if meta.kind == LlcAccessKind::Writeback {
            self.writeback = (meta.core, meta.line);
        }
        let bank = self.inner.lookup_bank(meta);
        self.twist(bank, meta.line)
    }

    fn fill_bank(&mut self, meta: &AccessMeta) -> BankId {
        let bank = self.inner.fill_bank(meta);
        if self.bug == Some(Bug::SkewRedirect)
            && bank != SNuca::new(self.n_banks).bank_of(meta.line)
        {
            return (bank + 1) % self.n_banks;
        }
        self.twist(bank, meta.line)
    }

    fn on_fill(&mut self, meta: &AccessMeta, bank: BankId) {
        self.log.borrow_mut().push(GoldenEvent {
            kind: GoldenEventKind::Fill,
            core: meta.core,
            bank,
            line: meta.line,
        });
        self.after_fill = true;
        self.inner.on_fill(meta, bank);
    }

    fn on_l3_write(&mut self, bank: BankId) {
        if !std::mem::take(&mut self.after_fill) {
            let (core, line) = self.writeback;
            self.log.borrow_mut().push(GoldenEvent {
                kind: GoldenEventKind::Writeback,
                core,
                bank,
                line,
            });
        }
        self.inner.on_l3_write(bank);
        self.writes += 1;
        if self.bug == Some(Bug::ShortEpoch) && self.writes.is_multiple_of(COLORING_EPOCH - 1) {
            self.inner.on_l3_write(bank);
        }
    }

    fn on_evict(&mut self, line: u64, bank: BankId) {
        if self.bug != Some(Bug::StaleMbv) {
            self.inner.on_evict(line, bank);
        }
    }

    fn lookup_overhead(&self) -> Cycle {
        self.inner.lookup_overhead()
    }

    fn secondary_bank(&mut self, meta: &AccessMeta) -> Option<BankId> {
        self.inner.secondary_bank(meta)
    }

    fn l3_replacement(&self) -> ReplacementKind {
        self.inner.l3_replacement()
    }

    fn compression(&self) -> Option<compress::CompressSpec> {
        self.inner.compression()
    }

    /// A twisted or short-epoch policy hides its state: it is caught
    /// through placement alone. The skewed WEC's write counters and
    /// directory stay consistent under the bug, and Re-NUCA's stale MBVs
    /// are what its bug corrupts, so both stay reachable.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        match self.bug {
            Some(Bug::Twist | Bug::ShortEpoch) => None,
            _ => self.inner.as_any(),
        }
    }
}

fn run_diff(
    scheme: Scheme,
    cfg: &SystemConfig,
    ops: &[TraceOp],
    mutate: bool,
) -> Result<ReplayReport, Mismatch> {
    let (cols, rows) = (cfg.noc.cols, cfg.noc.rows);
    assert_eq!(
        cfg.n_cores,
        cols * rows,
        "harness expects one core per tile"
    );
    assert_eq!(
        cfg.n_banks, cfg.n_cores,
        "harness expects one bank per tile"
    );

    let mut parts = scheme.parts(cfg);
    let mut g = golden_system(&parts, cfg);
    let bug = if mutate { inject_bug(&mut parts) } else { None };
    let policy = parts.build_policy(scheme.name(), cfg);
    let (recorder, events) = Recorder::new(policy, bug, cfg.n_banks);
    let mut h = MemoryHierarchy::new(cfg, Box::new(recorder));

    // Twin criticality predictors (Re-NUCA placement): the real CPT feeds
    // the real hierarchy, the golden CPT feeds the golden system, and
    // their verdicts must agree at every issue.
    let renuca = parts.placement == Placement::ReNuca;
    let cpt_cfg = CptConfig::default();
    let mut cpts: Vec<Cpt> = (0..cfg.n_cores).map(|_| Cpt::new(cpt_cfg)).collect();
    let mut gcpts: Vec<GoldenCpt> = (0..cfg.n_cores)
        .map(|_| GoldenCpt::new(cpt_cfg.entries, cpt_cfg.threshold_pct, cpt_cfg.aging_cap))
        .collect();

    for (i, op) in ops.iter().enumerate() {
        // Timing is not compared, but the hierarchy wants monotone time.
        let now = i as u64 * 100;
        let (core, line) = (op.core, line_of(op.phys));

        let predicted = if renuca && !op.is_store {
            let (real, gold) = (cpts[core].predict(op.pc), gcpts[core].predict(op.pc));
            let what = format_args!("CPT verdict for pc {:#x}", op.pc);
            agree(i, what, real, gold)?;
            real
        } else {
            false
        };

        if op.is_store {
            h.store(core, op.phys, op.pc, now);
        } else {
            h.load(core, op.phys, op.pc, predicted, now);
        }
        let real_events = std::mem::take(&mut *events.borrow_mut());
        let golden_events = g.step(core, op.phys, predicted, op.is_store);
        let what = format_args!("placement events for line {line:#x} (core {core})");
        agree(i, what, real_events, golden_events)?;

        // `PerCoreMemStats` is compared through its `Debug` form, which
        // names every counter.
        let real = format!("{:?}", h.per_core_stats(core));
        let gold = format!("{:?}", per_core(&g.per_core[core]));
        agree(i, format_args!("core {core} counters"), real, gold)?;
        let what = "per-bank write histogram";
        agree(i, what, h.wear.bank_totals(), g.bank_totals().as_slice())?;

        // CPT training happens at retirement, after the access completes.
        if renuca && !op.is_store {
            if op.blocked {
                cpts[core].on_rob_block(op.pc);
                gcpts[core].on_rob_block(op.pc);
            }
            cpts[core].on_load_commit(op.pc, op.blocked);
            gcpts[core].on_load_commit(op.pc, op.blocked);
        }
    }

    final_state_compare(&h, &g, cfg, ops, &cpts, &gcpts, renuca)?;

    Ok(ReplayReport {
        ops: ops.len(),
        l3_fills: h.stats.l3_fills.get(),
        l3_writes: h.stats.l3_writes.get(),
        l2_writebacks: (0..cfg.n_cores)
            .map(|c| h.per_core_stats(c).l2_writebacks)
            .sum(),
        bank_totals: h.wear.bank_totals().to_vec(),
    })
}

/// `Ok` when the real and golden sides agree on `what` after op `op`
/// (`ops.len()` at end of trace) — the harness's one divergence rule.
fn agree<T: PartialEq + Debug>(
    op: usize,
    what: impl Display,
    real: T,
    gold: T,
) -> Result<(), Mismatch> {
    if real == gold {
        return Ok(());
    }
    Err(Mismatch {
        op_index: op,
        detail: format!("{what} diverged: real {real:?}, golden {gold:?}"),
    })
}

/// Golden per-core counters poured into the real stats type.
fn per_core(s: &GoldenPerCore) -> PerCoreMemStats {
    PerCoreMemStats {
        l1_misses: s.l1_misses,
        l3_accesses: s.l3_accesses,
        l3_hits: s.l3_hits,
        l3_misses: s.l3_misses,
        l2_writebacks: s.l2_writebacks,
    }
}

/// One side's aggregate counters, keyed and ordered by the stats types'
/// own `register`.
fn registry(
    per_core: impl Iterator<Item = PerCoreMemStats>,
    hierarchy: &HierarchyStats,
    dir: &CoherenceStats,
) -> StatsRegistry {
    let mut reg = StatsRegistry::new();
    for (c, s) in per_core.enumerate() {
        s.register(&mut reg, &format!("core{c}"));
    }
    hierarchy.register(&mut reg, "hierarchy");
    dir.register(&mut reg, "dir");
    reg
}

/// End-of-trace comparison: aggregate counters, per-slot wear, bank
/// accounting, policy internals, compression state, CPT counters.
fn final_state_compare(
    h: &MemoryHierarchy,
    g: &GoldenSystem,
    cfg: &SystemConfig,
    ops: &[TraceOp],
    cpts: &[Cpt],
    gcpts: &[GoldenCpt],
    renuca: bool,
) -> Result<(), Mismatch> {
    let end = ops.len();

    // 1. Aggregate counters, the golden ones poured into the real stats
    // types. Under the harness preconditions (no prefetch, no rotation,
    // no block-criticality, no two-probe policy) the counters golden does
    // not model stay zero on the real side, and l3_writes_noncritical is
    // only bumped on the fill path — i.e. it equals l3_fills_noncritical.
    let (gs, gd) = (&g.stats, &g.dir_stats);
    let hierarchy = HierarchyStats {
        l3_fills: gs.l3_fills.into(),
        l3_fills_noncritical: gs.l3_fills_noncritical.into(),
        l3_writes: gs.l3_writes.into(),
        l3_writes_noncritical: gs.l3_fills_noncritical.into(),
        l3_writebacks_to_dram: gs.l3_writebacks_to_dram.into(),
        back_invalidations: gs.back_invalidations.into(),
        ..HierarchyStats::default()
    };
    let dir = CoherenceStats {
        grants_exclusive: gd.grants_exclusive.into(),
        grants_shared: gd.grants_shared.into(),
        upgrades_modified: gd.upgrades_modified.into(),
        invalidations_sent: gd.invalidations_sent.into(),
        back_invalidations: gd.back_invalidations.into(),
    };
    let real_cores = (0..cfg.n_cores).map(|c| h.per_core_stats(c));
    let real_reg = registry(real_cores, &h.stats, &h.dir.stats);
    let gold_reg = registry(g.per_core.iter().map(per_core), &hierarchy, &dir);
    for ((key, real), (_, gold)) in real_reg.iter().zip(gold_reg.iter()) {
        agree(end, key, real, gold)?;
    }

    // 2. Per-slot wear counters.
    let slots = cfg.l3_bank.lines();
    for bank in 0..cfg.n_banks {
        for slot in 0..slots {
            let (real, gold) = (h.wear.slot_writes(bank, slot), g.wear[bank][slot]);
            let what = format_args!("wear at bank {bank} slot {slot}");
            agree(end, what, real, gold)?;
        }
    }

    // 3. Bank service-model accounting: every data-array write the service
    // model performed (fills + L2 writebacks) is one write of the wear
    // histogram, and the op-class transition counters chain
    // (rar+raw+war+waw == ops - 1 per bank). Golden has no timing, so the
    // second is an invariant of the real side that the harness pins on
    // every corpus trace.
    let gold_totals = g.bank_totals();
    for bank in 0..cfg.n_banks {
        let bs = h.banks.stats(bank);
        let writes = bs.fill_ops.get() + bs.write_ops.get();
        let what = format_args!("bank {bank} service-model writes (fills + writebacks)");
        agree(end, what, writes, gold_totals[bank])?;
        if bs.ops() > 0 {
            let what = format_args!("bank {bank} op transitions (golden: ops - 1)");
            agree(end, what, bs.transitions(), bs.ops() - 1)?;
        }
    }

    // 4. Policy-internal state via the as_any escape hatch.
    let gp = &g.policy;
    if let Some(any) = h.policy().as_any() {
        if let Some(real) = any.downcast_ref::<NaiveOracle>() {
            let what = "Naive write counters";
            agree(end, what, real.write_counters(), gp.naive_writes.as_slice())?;
            let what = "Naive directory size";
            agree(end, what, real.directory_len(), gp.naive_directory.len())?;
        }
        if let Some(real) = any.downcast_ref::<Wec>() {
            let what = "WEC write counters";
            agree(end, what, real.write_counters(), gp.wec_writes.as_slice())?;
            let what = "WEC redirect-directory size";
            agree(end, what, real.directory_len(), gp.wec_directory.len())?;
        }
        if let Some(real) = any.downcast_ref::<Coloring>() {
            let what = "Coloring write total";
            agree(end, what, real.total_writes(), gp.coloring_writes)?;
            let what = "Coloring directory size";
            agree(end, what, real.directory_len(), gp.coloring_directory.len())?;
        }
        if let Some(real) = any.downcast_ref::<ReNuca>() {
            compare_renuca_state(real, g, cfg, ops, end)?;
        }
    }

    // 4b. Compressed-array state: per-bank expansion and class-histogram
    // counters, the bank service model's expand ops (every expansion is
    // exactly one extra data-array program), per-slot allocation class and
    // write version, and the per-cell (sub-block) wear counters.
    let (real, gold) = (h.compression_spec(), g.compress.as_ref());
    agree(end, "compression modelled", real.is_some(), gold.is_some())?;
    if let (Some(spec), Some(gc)) = (real, gold) {
        agree(end, "sub-block geometry", spec.sub_blocks, gc.sub_blocks)?;
        for bank in 0..cfg.n_banks {
            let (real_cs, gold_expansions) = (h.compress_stats(bank), gc.expansions[bank]);
            let what = format_args!("bank {bank} expansions");
            agree(end, what, real_cs.expansions, gold_expansions)?;
            let expand_ops = h.banks.stats(bank).expand_ops.get();
            let what = format_args!("bank {bank} service-model expand ops");
            agree(end, what, expand_ops, gold_expansions)?;
            let what = format_args!("bank {bank} class-write histogram");
            agree(end, what, real_cs.class_writes, gc.class_writes[bank])?;
            for slot in 0..slots {
                let real = h.compress_slot(bank, slot);
                let gold = Some((gc.class[bank][slot], gc.version[bank][slot]));
                let what = format_args!("compressed (class, version) at bank {bank} slot {slot}");
                agree(end, what, real, gold)?;
                for k in 0..spec.sub_blocks {
                    let real = h.wear.cell_writes(bank, slot, k);
                    let gold = gc.cell_wear[bank][slot * gc.sub_blocks + k];
                    let what = format_args!("cell wear at bank {bank} slot {slot} sub-block {k}");
                    agree(end, what, real, gold)?;
                }
            }
        }
    }

    // 5. CPT lifecycle counters (Re-NUCA only).
    if renuca {
        for (c, (real, gold)) in cpts.iter().zip(gcpts).enumerate() {
            let (rs, rp) = (real.cpt_stats, real.stats());
            let what = format_args!(
                "core {c} CPT counters (hits, misses, insertions, replacements, \
                 predicted_critical, predicted_noncritical)"
            );
            let real = (
                rs.hits,
                rs.misses,
                rs.insertions,
                rs.replacements,
                rp.predicted_critical,
                rp.predicted_noncritical,
            );
            let gold = (
                gold.hits,
                gold.misses,
                gold.insertions,
                gold.replacements,
                gold.predicted_critical,
                gold.predicted_noncritical,
            );
            agree(end, what, real, gold)?;
        }
    }

    Ok(())
}

/// Compare a real `ReNuca`'s placement counters and MBV contents against
/// the golden policy model.
fn compare_renuca_state(
    real: &ReNuca,
    g: &GoldenSystem,
    cfg: &SystemConfig,
    ops: &[TraceOp],
    end: usize,
) -> Result<(), Mismatch> {
    let (rs, gs) = (&real.renuca_stats, &g.policy.renuca_stats);
    let what = "Re-NUCA placement counters (critical_fills, noncritical_fills, lookups_rnuca, \
                lookups_snuca)";
    let real_counts = (
        rs.critical_fills,
        rs.noncritical_fills,
        rs.lookups_rnuca,
        rs.lookups_snuca,
    );
    let gold_counts = (
        gs.critical_fills,
        gs.noncritical_fills,
        gs.lookups_rnuca,
        gs.lookups_snuca,
    );
    agree(end, what, real_counts, gold_counts)?;
    // MBV contents over every (owner core, page) the trace could have
    // touched, plus everything the golden map still holds — catches both
    // stale bits and lost bits.
    let mut keys: BTreeSet<(usize, u64)> = g.policy.mbv.keys().copied().collect();
    for op in ops {
        let line = line_of(op.phys);
        keys.insert((owner(line, cfg.n_cores), page_of_line(line)));
    }
    for (core, page) in keys {
        let (real, gold) = (real.tlb(core).mbv(page), g.policy.mbv_word(core, page));
        let what = format_args!("MBV for core {core} page {page:#x}");
        agree(end, what, real, gold)?;
    }
    Ok(())
}

// --- delta debugging -----------------------------------------------------

/// Classic ddmin: shrink `ops` to a 1-minimal subsequence for which
/// `still_fails` holds. `still_fails(ops)` must be true on entry.
pub fn ddmin<F>(ops: &[TraceOp], still_fails: F) -> Vec<TraceOp>
where
    F: Fn(&[TraceOp]) -> bool,
{
    assert!(still_fails(ops), "ddmin needs a failing input to shrink");
    let mut cur = ops.to_vec();
    let mut n = 2usize;
    while cur.len() >= 2 {
        let chunk = cur.len().div_ceil(n);
        let mut reduced = false;

        // Try each chunk alone.
        let mut start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let subset = cur[start..end].to_vec();
            if still_fails(&subset) {
                cur = subset;
                n = 2;
                reduced = true;
                break;
            }
            start = end;
        }
        if reduced {
            continue;
        }

        // Try each complement.
        start = 0;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let mut complement = cur[..start].to_vec();
            complement.extend_from_slice(&cur[end..]);
            if !complement.is_empty() && still_fails(&complement) {
                cur = complement;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if reduced {
            continue;
        }

        if n >= cur.len() {
            break; // at granularity 1 with nothing removable: 1-minimal
        }
        n = (n * 2).min(cur.len());
    }
    cur
}

/// Shrink a failing trace to a 1-minimal failing sub-trace with ddmin.
pub fn shrink(scheme: Scheme, cfg: &SystemConfig, ops: &[TraceOp], mutated: bool) -> Vec<TraceOp> {
    ddmin(ops, |sub| run_diff(scheme, cfg, sub, mutated).is_err())
}

/// Serialize a (shrunk) trace to `<out_dir>/<tag>_<scheme>_seed<seed>.trace`
/// in the `renuca-trace-v1` format.
pub fn write_shrunk_trace(
    out_dir: &Path,
    tag: &str,
    scheme: Scheme,
    cfg: &SystemConfig,
    seed: u64,
    ops: &[TraceOp],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(out_dir)?;
    let slug: String = scheme
        .name()
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    let path = out_dir.join(format!("{tag}_{slug}_seed{seed}.trace"));
    std::fs::write(
        &path,
        trace_to_text(scheme.name(), cfg.noc.cols, cfg.noc.rows, seed, ops),
    )?;
    Ok(path)
}

// --- corpus driver -------------------------------------------------------

/// One failing corpus cell, shrunk and serialized.
#[derive(Debug)]
pub struct CorpusFailure {
    /// Scheme that diverged.
    pub scheme: Scheme,
    /// Label of the mesh configuration (see [`harness_configs`]).
    pub config: &'static str,
    /// Generator seed.
    pub seed: u64,
    /// The first divergence on the full trace.
    pub mismatch: Mismatch,
    /// Length of the ddmin-shrunk reproducer.
    pub minimal_len: usize,
    /// Where the shrunk trace was written (`None` if the write failed).
    pub trace_path: Option<PathBuf>,
}

/// Summary of a corpus sweep.
#[derive(Debug, Default)]
pub struct CorpusReport {
    /// Traces replayed (seeds × schemes × configs).
    pub replays: usize,
    /// Total ops cross-checked.
    pub ops_checked: usize,
    /// Every divergence found, shrunk.
    pub failures: Vec<CorpusFailure>,
}

/// Replay `seeds` seeded traces of `ops_per_trace` ops through every
/// scheme on every harness config; shrink and serialize any divergence
/// into `out_dir`.
pub fn run_corpus(
    seeds: std::ops::Range<u64>,
    ops_per_trace: usize,
    out_dir: &Path,
) -> CorpusReport {
    let mut report = CorpusReport::default();
    for (label, cfg) in harness_configs() {
        for seed in seeds.clone() {
            let spec = TraceSpec::new(seed, cfg.noc.cols, cfg.noc.rows, ops_per_trace);
            let ops = generate(&spec);
            for scheme in Scheme::ALL {
                report.replays += 1;
                report.ops_checked += ops.len();
                if let Err(mismatch) = replay(scheme, &cfg, &ops) {
                    let minimal = shrink(scheme, &cfg, &ops, false);
                    let trace_path =
                        write_shrunk_trace(out_dir, "diff_mismatch", scheme, &cfg, seed, &minimal)
                            .ok();
                    report.failures.push(CorpusFailure {
                        scheme,
                        config: label,
                        seed,
                        mismatch,
                        minimal_len: minimal.len(),
                        trace_path,
                    });
                }
            }
        }
    }
    report
}

// --- mutation self-check -------------------------------------------------

/// Outcome of a successful [`mutation_check`].
#[derive(Debug)]
pub struct MutationReport {
    /// Scheme the bug was injected under.
    pub scheme: Scheme,
    /// Ops in the original failing trace.
    pub original_len: usize,
    /// Ops left after ddmin.
    pub minimal_len: usize,
    /// The first divergence the harness reported.
    pub detail: String,
    /// Where the shrunk reproducer was written.
    pub trace_path: PathBuf,
}

/// The schemes whose injected bugs the self-check exercises: one
/// stateless scheme for the line twist, the two directory-backed
/// placements and Re-NUCA with bugs of their own, and one scheme per
/// non-default bank part (see `inject_bug`).
pub const MUTATION_SCHEMES: [Scheme; 6] = [
    Scheme::SNuca,
    Scheme::Wec,
    Scheme::Coloring,
    Scheme::ReNuca,
    Scheme::Mac,
    Scheme::ReNucaC2,
];

/// Prove the harness catches bugs: inject the per-scheme bug of
/// `inject_bug` under `scheme`, demand a divergence, shrink it to a
/// 1-minimal trace and serialize it. Errors describe which leg of the
/// proof failed.
pub fn mutation_check(
    scheme: Scheme,
    seed: u64,
    ops_n: usize,
    out_dir: &Path,
) -> Result<MutationReport, String> {
    let cfg = tiny_cfg(2, 2);
    let spec = TraceSpec::new(seed, 2, 2, ops_n);
    let ops = generate(&spec);

    replay(scheme, &cfg, &ops)
        .map_err(|m| format!("harness diverges even without the mutant: {m}"))?;

    let mismatch = match replay_mutated(scheme, &cfg, &ops) {
        Ok(_) => {
            return Err(format!(
                "injected {} bug escaped the harness (seed {seed}, {ops_n} ops)",
                scheme.name()
            ))
        }
        Err(m) => m,
    };

    let minimal = shrink(scheme, &cfg, &ops, true);
    if !minimal.is_empty() && replay_mutated(scheme, &cfg, &minimal).is_ok() {
        return Err("shrunk trace no longer reproduces the divergence".to_owned());
    }
    // 1-minimality: removing any single op must make the divergence vanish.
    for i in 0..minimal.len() {
        let mut without: Vec<TraceOp> = minimal.clone();
        without.remove(i);
        if !without.is_empty() && replay_mutated(scheme, &cfg, &without).is_err() {
            return Err(format!(
                "shrunk trace is not 1-minimal: dropping op {i} still diverges"
            ));
        }
    }

    let trace_path = write_shrunk_trace(out_dir, "mutant", scheme, &cfg, seed, &minimal)
        .map_err(|e| format!("failed to write shrunk trace: {e}"))?;

    Ok(MutationReport {
        scheme,
        original_len: ops.len(),
        minimal_len: minimal.len(),
        detail: mismatch.to_string(),
        trace_path,
    })
}

// --- metamorphic invariants ----------------------------------------------

/// Placement cannot change write volume: in an eviction-free regime every
/// scheme sees the same distinct-line fills and the same writebacks, so
/// `l3_fills`, `l3_writes`, `l2_writebacks` and the histogram *total* must
/// agree across all schemes (the histograms themselves differ — that is
/// the point of the paper; write-aware replacement rides along because
/// with zero capacity evictions it never picks a victim).
pub fn write_conservation(cols: usize, rows: usize, seed: u64, ops_n: usize) -> Result<(), String> {
    let cfg = roomy_cfg(cols, rows);
    let mut spec = TraceSpec::new(seed, cols, rows, ops_n);
    spec.footprint_pages = 4; // fits every level: zero capacity evictions
    let ops = generate(&spec);

    let mut baseline: Option<(Scheme, ReplayReport)> = None;
    for scheme in Scheme::ALL {
        let report = replay(scheme, &cfg, &ops)
            .map_err(|m| format!("{} diverged during conservation check: {m}", scheme.name()))?;
        let total: u64 = report.bank_totals.iter().sum();
        if total != report.l3_writes {
            return Err(format!(
                "{}: histogram total {total} != l3_writes {}",
                scheme.name(),
                report.l3_writes
            ));
        }
        match &baseline {
            None => baseline = Some((scheme, report)),
            Some((base_scheme, base)) => {
                let same = base.l3_fills == report.l3_fills
                    && base.l3_writes == report.l3_writes
                    && base.l2_writebacks == report.l2_writebacks;
                if !same {
                    return Err(format!(
                        "write totals not conserved: {} (fills {}, writes {}, wb {}) vs {} \
                         (fills {}, writes {}, wb {})",
                        base_scheme.name(),
                        base.l3_fills,
                        base.l3_writes,
                        base.l2_writebacks,
                        scheme.name(),
                        report.l3_fills,
                        report.l3_writes,
                        report.l2_writebacks
                    ));
                }
            }
        }
    }
    Ok(())
}

/// S-NUCA striping commutes with address translation: shifting every
/// access by one line rotates the per-bank histogram by one position
/// (eviction-free, private regime, so wear is exactly the distinct-line
/// fill histogram).
pub fn snuca_shift_symmetry(
    cols: usize,
    rows: usize,
    seed: u64,
    ops_n: usize,
) -> Result<(), String> {
    let cfg = roomy_cfg(cols, rows);
    let n = cfg.n_banks;
    let mut spec = TraceSpec::new(seed, cols, rows, ops_n);
    spec.footprint_pages = 4;
    spec.sharing = 0.0; // keep each core in its own region: no coherence churn
    let ops = generate(&spec);
    let shifted: Vec<TraceOp> = ops
        .iter()
        .map(|op| TraceOp {
            phys: op.phys + 64, // one line over; stays inside the region
            ..*op
        })
        .collect();

    let base =
        replay(Scheme::SNuca, &cfg, &ops).map_err(|m| format!("base trace diverged: {m}"))?;
    let moved = replay(Scheme::SNuca, &cfg, &shifted)
        .map_err(|m| format!("shifted trace diverged: {m}"))?;

    for bank in 0..n {
        let (orig, rotated) = (base.bank_totals[bank], moved.bank_totals[(bank + 1) % n]);
        if orig != rotated {
            return Err(format!(
                "histogram did not rotate: bank {bank} wrote {orig}, shifted bank {} wrote \
                 {rotated} (base {:?}, shifted {:?})",
                (bank + 1) % n,
                base.bank_totals,
                moved.bank_totals
            ));
        }
    }
    Ok(())
}

/// The worker pool cannot change results: replaying a batch of seeds with
/// one thread and with several must produce identical digests.
pub fn parallel_matches_serial(seeds: &[u64], threads: usize, ops_n: usize) -> Result<(), String> {
    let run = |seed: &u64| -> Result<ReplayReport, String> {
        let cfg = tiny_cfg(2, 2);
        let ops = generate(&TraceSpec::new(*seed, 2, 2, ops_n));
        replay(Scheme::ReNuca, &cfg, &ops).map_err(|m| format!("seed {seed}: {m}"))
    };
    let serial = parallel_map_threads(seeds, 1, run);
    let parallel = parallel_map_threads(seeds, threads, run);
    for (s, p) in serial.iter().zip(parallel.iter()) {
        match (s, p) {
            (Err(e), _) | (_, Err(e)) => return Err(e.clone()),
            (Ok(a), Ok(b)) if a != b => {
                return Err(format!(
                    "serial and parallel digests differ: {a:?} vs {b:?}"
                ))
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddmin_finds_single_culprit() {
        // A synthetic predicate: the "bug" is op with pc == 99.
        let mut ops: Vec<TraceOp> = (0..40)
            .map(|i| TraceOp {
                core: 0,
                phys: i * 64,
                pc: 1 + i as u32,
                is_store: false,
                blocked: false,
            })
            .collect();
        ops[23].pc = 99;
        let minimal = ddmin(&ops, |sub| sub.iter().any(|op| op.pc == 99));
        assert_eq!(minimal.len(), 1);
        assert_eq!(minimal[0].pc, 99);
    }

    #[test]
    fn ddmin_keeps_interacting_pair() {
        // The failure needs *both* markers: ddmin must keep exactly the two.
        let mut ops: Vec<TraceOp> = (0..32)
            .map(|i| TraceOp {
                core: 0,
                phys: i * 64,
                pc: 1 + i as u32,
                is_store: false,
                blocked: false,
            })
            .collect();
        ops[3].pc = 77;
        ops[28].pc = 88;
        let minimal = ddmin(&ops, |sub| {
            sub.iter().any(|o| o.pc == 77) && sub.iter().any(|o| o.pc == 88)
        });
        assert_eq!(minimal.len(), 2);
        assert_eq!((minimal[0].pc, minimal[1].pc), (77, 88));
    }

    #[test]
    fn golden_constants_mirror_the_real_policies() {
        // The golden crate cannot depend on renuca-core, so WEC's redirect
        // threshold and Coloring's epoch length are duplicated there. This
        // crate depends on both — pin the twins together.
        assert_eq!(renuca_core::WEC_THRESHOLD, golden::GOLDEN_WEC_THRESHOLD);
        assert_eq!(renuca_core::COLORING_EPOCH, golden::GOLDEN_COLORING_EPOCH);
    }

    #[test]
    fn golden_compression_model_mirrors_the_real_one() {
        // Same duplication discipline for the compression content model:
        // golden re-implements the size-class hash and mask arithmetic.
        // Pin them together over a (seed, line, version) sweep.
        for seed in [0u64, 0xC0DEC, u64::MAX] {
            for line in (0..2048u64).map(|i| i.wrapping_mul(0x1234_5677)) {
                for version in 0..8u32 {
                    let real = compress::size_class(seed, line, version);
                    let gold = golden::golden_size_class(seed, line, version);
                    assert_eq!(real, gold, "class for ({seed:#x}, {line:#x}, {version})");
                    for sub_blocks in [1usize, 2, 4, 8] {
                        assert_eq!(
                            compress::subblock_mask(sub_blocks, real, version),
                            golden::golden_subblock_mask(sub_blocks, gold, version),
                            "mask for ({sub_blocks}, {real}, {version})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn recorder_keeps_policy_state_reachable() {
        // The end-of-trace policy-state comparisons downcast through
        // `as_any`; behind the recorder they must still find the policy.
        let cfg = tiny_cfg(2, 2);
        let reachable = |scheme: Scheme, is: fn(&dyn std::any::Any) -> bool| {
            let (recorder, _) = Recorder::new(scheme.build_policy(&cfg), None, cfg.n_banks);
            let h = MemoryHierarchy::new(&cfg, Box::new(recorder));
            let any = h.policy().as_any().expect("as_any forwarded");
            assert!(is(any), "{} not reachable", scheme.name());
        };
        reachable(Scheme::ReNuca, |a| a.is::<ReNuca>());
        reachable(Scheme::Naive, |a| a.is::<NaiveOracle>());
        reachable(Scheme::Wec, |a| a.is::<Wec>());
        reachable(Scheme::Coloring, |a| a.is::<Coloring>());
    }

    /// A demand access to `line` from its owning core on the 2x2 mesh.
    fn meta(line: u64) -> AccessMeta {
        AccessMeta {
            core: owner(line, 4),
            line,
            page: page_of_line(line),
            pc: 1,
            kind: LlcAccessKind::Demand,
            predicted_critical: false,
        }
    }

    /// `scheme`'s real policy behind a [`Recorder`] carrying its injected
    /// bug.
    fn mutant(scheme: Scheme, cfg: &SystemConfig) -> Recorder {
        let mut parts = scheme.parts(cfg);
        let bug = inject_bug(&mut parts);
        assert!(bug.is_some(), "{} mutates its parts", scheme.name());
        Recorder::new(parts.build_policy(scheme.name(), cfg), bug, cfg.n_banks).0
    }

    #[test]
    fn wec_bugged_twin_skews_redirects_but_stays_consistent() {
        let cfg = tiny_cfg(2, 2);
        let mut w = mutant(Scheme::Wec, &cfg);
        let home = meta(4); // S-NUCA home = bank 0 = the coldest
        assert_eq!(w.fill_bank(&home), 0, "home fills are untouched");
        for _ in 0..renuca_core::WEC_THRESHOLD {
            w.on_l3_write(1);
        }
        let hot = meta(5);
        let b = w.fill_bank(&hot);
        assert_eq!(b, 1, "bug: one past the argmin (bank 0 -> bank 1)");
        // The skewed bank equals the home here, so no directory entry is
        // needed — internal consistency holds even under the bug.
        w.on_fill(&hot, b);
        assert_eq!(w.lookup_bank(&hot), b);
        let real = w.as_any().and_then(|a| a.downcast_ref::<Wec>());
        assert_eq!(real.expect("state reachable").directory_len(), 0);
    }

    #[test]
    fn coloring_off_by_one_epoch_twin_diverges() {
        let cfg = tiny_cfg(2, 2);
        let build = || Scheme::Coloring.build_policy(&cfg);
        let (mut good, mut bad) = (build(), mutant(Scheme::Coloring, &cfg));
        let m = meta(6); // S-NUCA home = bank 2
        let epoch = COLORING_EPOCH - 1;
        for _ in 0..epoch {
            good.on_l3_write(0);
            bad.on_l3_write(0);
        }
        assert_ne!(good.fill_bank(&m), bad.fill_bank(&m));
        // Over several laps the mutant rotates exactly like an epoch-63
        // Coloring: home + ⌊t/63⌋ (mod 4) after t real writes.
        for t in epoch + 1..=9 * epoch {
            bad.on_l3_write(0);
            assert_eq!(bad.fill_bank(&m) as u64, (2 + t / epoch) % 4, "t = {t}");
        }
        assert!(bad.as_any().is_none(), "caught through placement alone");
    }

    #[test]
    fn renuca_stale_mbv_twin_keeps_evicted_lines_bits() {
        let cfg = tiny_cfg(2, 2);
        let mut good = Scheme::ReNuca.build_policy(&cfg);
        let mut bad = mutant(Scheme::ReNuca, &cfg);
        let m = AccessMeta {
            predicted_critical: true,
            ..meta(6)
        };
        let mbv_bit = |p: &dyn LlcPlacement| {
            let renuca = p.as_any().and_then(|a| a.downcast_ref::<ReNuca>());
            let word = renuca.expect("state reachable").tlb(m.core).mbv(m.page);
            word >> (m.line % 64) & 1
        };
        for p in [good.as_mut(), &mut bad as &mut dyn LlcPlacement] {
            let bank = p.fill_bank(&m);
            p.on_fill(&m, bank);
            assert_eq!(mbv_bit(p), 1, "a critical fill sets the bit");
            p.on_evict(m.line, bank);
        }
        assert_eq!(mbv_bit(good.as_ref()), 0, "eviction resets the bit");
        assert_eq!(mbv_bit(&bad), 1, "bug: the reset is lost");
    }

    #[test]
    fn tiny_config_actually_churns() {
        // The harness relies on the tiny config exercising evictions; a
        // quiet config would silently weaken every differential run.
        let cfg = tiny_cfg(2, 2);
        let ops = generate(&TraceSpec::new(11, 2, 2, 2000));
        let report = replay(Scheme::SNuca, &cfg, &ops).expect("differential mismatch");
        assert!(report.l3_fills > 0);
        assert!(
            report.l3_writes > report.l3_fills,
            "no writebacks reached the L3 — shrink the private caches"
        );
    }
}

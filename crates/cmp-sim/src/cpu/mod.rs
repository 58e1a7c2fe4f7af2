//! Trace-driven out-of-order core model.
//!
//! The model reproduces the microarchitectural behaviour the paper's
//! mechanism depends on, at a fraction of a full OoO simulator's cost:
//!
//! * a real ROB ([`rob::Rob`]) with in-order commit and configurable
//!   fetch/commit widths,
//! * loads issue to the memory hierarchy at dispatch and complete when the
//!   hierarchy returns their data — a load that reaches the ROB head before
//!   its data arrives **blocks the head**, which is exactly the signal the
//!   Re-NUCA criticality predictor consumes,
//! * memory-level parallelism is bounded by an MSHR file: at most
//!   `mshrs_per_core` outstanding L1-miss loads; a load to an
//!   already-outstanding line coalesces onto the existing miss,
//! * stores retire through a write buffer (complete one cycle after
//!   dispatch; their cache/wear side effects are applied immediately),
//! * a per-core data TLB charges page-walk latency on first touch of a page.
//!
//! Register dependences are not tracked; serialized miss chains are instead
//! produced by the workload models' burstiness parameter (see the
//! `workloads` crate and DESIGN.md §2).

pub mod rob;

use crate::feed::BlockSupply;
use crate::hierarchy::MemoryHierarchy;
use crate::instr::Instr;
use crate::placement::CriticalityPredictor;
use crate::tlb::Tlb;
use crate::types::{line_of, page_of, phys_addr, CoreId, Cycle};
use rob::{Rob, RobEntry};
use sim_stats::Counter;

/// Per-core execution statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreStats {
    /// Instructions committed.
    pub committed: Counter,
    /// Instructions dispatched.
    pub dispatched: Counter,
    /// Loads dispatched.
    pub loads: Counter,
    /// Stores dispatched.
    pub stores: Counter,
    /// Dynamic loads that blocked the ROB head at least once.
    pub loads_blocked_head: Counter,
    /// Committed loads (denominator for the non-critical-load fraction).
    pub loads_committed: Counter,
    /// Cycles the ROB head was blocked by an incomplete load.
    pub head_stall_cycles: Counter,
    /// Dispatch stalls due to a full MSHR file (cycles).
    pub mshr_stall_cycles: Counter,
    /// Criticality-prediction accuracy accounting (evaluated at commit):
    /// predicted critical & blocked head.
    pub pred_true_pos: Counter,
    /// Predicted critical & did not block.
    pub pred_false_pos: Counter,
    /// Predicted non-critical & did not block.
    pub pred_true_neg: Counter,
    /// Predicted non-critical & blocked head (a missed critical load).
    pub pred_false_neg: Counter,
}

impl CoreStats {
    /// Fraction of committed loads that never blocked the ROB head — the
    /// paper's Figure 5 metric.
    pub fn noncritical_load_fraction(&self) -> f64 {
        let blocked = self.loads_blocked_head.get() as f64;
        let total = self.loads_committed.get() as f64;
        if total == 0.0 {
            0.0
        } else {
            1.0 - blocked / total
        }
    }

    /// Recall of actually-critical loads: of the committed loads that
    /// blocked the ROB head, the fraction the predictor had marked critical
    /// at issue — the paper's Figure 7 "criticality prediction accuracy".
    pub fn critical_recall(&self) -> f64 {
        let tp = self.pred_true_pos.get() as f64;
        let fneg = self.pred_false_neg.get() as f64;
        if tp + fneg == 0.0 {
            0.0
        } else {
            tp / (tp + fneg)
        }
    }

    /// Overall prediction accuracy (both classes).
    pub fn prediction_accuracy(&self) -> f64 {
        let correct = self.pred_true_pos.get() + self.pred_true_neg.get();
        let total = correct + self.pred_false_pos.get() + self.pred_false_neg.get();
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Register every counter plus the derived criticality metrics under
    /// `<prefix>.committed`, `<prefix>.dispatched`, `<prefix>.loads`, … and
    /// `<prefix>.noncritical_load_fraction`, `<prefix>.critical_recall`,
    /// `<prefix>.prediction_accuracy`.
    pub fn register(&self, reg: &mut sim_stats::StatsRegistry, prefix: &str) {
        reg.set(format!("{prefix}.committed"), self.committed.get());
        reg.set(format!("{prefix}.dispatched"), self.dispatched.get());
        reg.set(format!("{prefix}.loads"), self.loads.get());
        reg.set(format!("{prefix}.stores"), self.stores.get());
        reg.set(
            format!("{prefix}.loads_blocked_head"),
            self.loads_blocked_head.get(),
        );
        reg.set(
            format!("{prefix}.loads_committed"),
            self.loads_committed.get(),
        );
        reg.set(
            format!("{prefix}.head_stall_cycles"),
            self.head_stall_cycles.get(),
        );
        reg.set(
            format!("{prefix}.mshr_stall_cycles"),
            self.mshr_stall_cycles.get(),
        );
        reg.set(format!("{prefix}.pred_true_pos"), self.pred_true_pos.get());
        reg.set(
            format!("{prefix}.pred_false_pos"),
            self.pred_false_pos.get(),
        );
        reg.set(format!("{prefix}.pred_true_neg"), self.pred_true_neg.get());
        reg.set(
            format!("{prefix}.pred_false_neg"),
            self.pred_false_neg.get(),
        );
        reg.set(
            format!("{prefix}.noncritical_load_fraction"),
            self.noncritical_load_fraction(),
        );
        reg.set(format!("{prefix}.critical_recall"), self.critical_recall());
        reg.set(
            format!("{prefix}.prediction_accuracy"),
            self.prediction_accuracy(),
        );
    }
}

/// An outstanding L1 miss (MSHR entry).
#[derive(Clone, Copy, Debug)]
struct Mshr {
    line: u64,
    complete_at: Cycle,
}

/// One out-of-order core.
pub struct CoreModel {
    id: CoreId,
    rob: Rob,
    fetch_width: usize,
    commit_width: usize,
    stall_threshold: Cycle,
    mshr_cap: usize,
    mshrs: Vec<Mshr>,
    dtlb: Tlb<()>,
    /// Instruction budget for the current measurement (dispatch stops when
    /// `dispatched` reaches it).
    budget: u64,
    /// Instructions drawn from the stream; `block[cursor]` dispatches
    /// next. An MSHR stall leaves the cursor where it is.
    block: Vec<Instr>,
    cursor: usize,
    /// Cycle the core finished its budget (ROB drained), if it has.
    finished_at: Option<Cycle>,
    /// Execution statistics.
    pub stats: CoreStats,
}

impl CoreModel {
    /// Build a core from the system configuration.
    pub fn new(id: CoreId, cfg: &crate::config::SystemConfig) -> Self {
        CoreModel {
            id,
            rob: Rob::new(cfg.rob_entries),
            fetch_width: cfg.fetch_width,
            commit_width: cfg.commit_width,
            stall_threshold: cfg.criticality_stall_threshold,
            mshr_cap: cfg.mshrs_per_core,
            mshrs: Vec::with_capacity(cfg.mshrs_per_core),
            dtlb: Tlb::new(cfg.tlb_entries, cfg.tlb_assoc, cfg.page_walk_latency),
            budget: 0,
            block: Vec::with_capacity(crate::feed::block_len(cfg.n_cores)),
            cursor: 0,
            finished_at: None,
            stats: CoreStats::default(),
        }
    }

    /// Core id.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Grant `n` more instructions of budget and clear the finished flag.
    pub fn add_budget(&mut self, n: u64) {
        self.budget = self.stats.dispatched.get() + n;
        self.finished_at = None;
    }

    /// Whether the budget is exhausted and the ROB has drained.
    pub fn is_done(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Cycle at which the core drained, if done.
    pub fn finished_at(&self) -> Option<Cycle> {
        self.finished_at
    }

    /// TLB statistics (hit rate, walks).
    pub fn tlb_stats(&self) -> crate::tlb::TlbStats {
        self.dtlb.stats
    }

    /// Reset measurement statistics (budget boundary). Microarchitectural
    /// state — ROB, MSHRs, TLB contents — is preserved.
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
        self.dtlb.reset_stats();
    }

    /// Advance this core by one cycle at time `now`, refilling its block
    /// of instructions from `src` when it runs out. Returns the next cycle
    /// at which the core needs attention (`Cycle::MAX` when done).
    pub fn step(
        &mut self,
        now: Cycle,
        src: &mut dyn BlockSupply,
        pred: &mut dyn CriticalityPredictor,
        mem: &mut MemoryHierarchy,
    ) -> Cycle {
        self.commit(now, pred);
        let dispatch_blocked = self.dispatch(now, src, pred, mem);

        if self.budget_done() && self.rob.is_empty() {
            if self.finished_at.is_none() {
                self.finished_at = Some(now);
            }
            return Cycle::MAX;
        }
        // When nothing can happen until a memory response arrives, skip
        // ahead: the earliest interesting cycle is the head's completion
        // (commit progress) or an MSHR release (dispatch progress).
        let can_dispatch_now = !self.budget_done() && !self.rob.is_full() && !dispatch_blocked;
        if can_dispatch_now {
            return now + 1;
        }
        let mut next = self.rob.head().map(|h| h.complete_at).unwrap_or(Cycle::MAX);
        if dispatch_blocked {
            for m in &self.mshrs {
                next = next.min(m.complete_at);
            }
        }
        next.max(now + 1)
    }

    #[inline]
    fn budget_done(&self) -> bool {
        self.stats.dispatched.get() >= self.budget
    }

    /// In-order commit of completed instructions, plus head-stall tracking.
    fn commit(&mut self, now: Cycle, pred: &mut dyn CriticalityPredictor) {
        for _ in 0..self.commit_width {
            let Some(head) = self.rob.head() else { break };
            if head.complete_at > now {
                // Head not done. If it is a load, this is a head-of-ROB
                // block — the criticality event.
                if head.is_load {
                    self.stats.head_stall_cycles.inc();
                    // A load counts as *blocking* only when the remaining
                    // stall exceeds the threshold (see
                    // `SystemConfig::criticality_stall_threshold`): brief
                    // skews between overlapped miss returns are performance
                    // noise, not criticality.
                    let threshold = self.stall_threshold;
                    let head = self.rob.head_mut().expect("head exists");
                    if !head.blocked_head && head.complete_at - now > threshold {
                        head.blocked_head = true;
                        let pc = head.pc;
                        self.stats.loads_blocked_head.inc();
                        pred.on_rob_block(pc);
                    }
                }
                break;
            }
            let e = self.rob.pop_head();
            self.stats.committed.inc();
            if e.is_load {
                self.stats.loads_committed.inc();
                pred.on_load_commit(e.pc, e.blocked_head);
                match (e.predicted_critical, e.blocked_head) {
                    (true, true) => self.stats.pred_true_pos.inc(),
                    (true, false) => self.stats.pred_false_pos.inc(),
                    (false, false) => self.stats.pred_true_neg.inc(),
                    (false, true) => self.stats.pred_false_neg.inc(),
                }
            }
        }
    }

    /// Dispatch up to `fetch_width` instructions. Returns true when
    /// dispatch stalled on a full MSHR file.
    fn dispatch(
        &mut self,
        now: Cycle,
        src: &mut dyn BlockSupply,
        pred: &mut dyn CriticalityPredictor,
        mem: &mut MemoryHierarchy,
    ) -> bool {
        // Free completed MSHRs.
        self.mshrs.retain(|m| m.complete_at > now);

        for _ in 0..self.fetch_width {
            if self.rob.is_full() || self.budget_done() {
                return false;
            }
            if self.cursor == self.block.len() {
                src.refill(&mut self.block);
                self.cursor = 0;
            }
            match self.block[self.cursor] {
                Instr::Alu { latency } => {
                    self.rob.push(RobEntry {
                        complete_at: now + latency.max(1) as Cycle,
                        pc: 0,
                        is_load: false,
                        blocked_head: false,
                        predicted_critical: false,
                    });
                }
                Instr::Store { vaddr, pc } => {
                    let phys = phys_addr(self.id, vaddr);
                    let tlb = self.dtlb.access(page_of(phys), |_| ());
                    // Stores retire through the write buffer: architectural
                    // completion is immediate; the cache/wear side effects
                    // happen now, off the critical path.
                    mem.store(self.id, phys, pc, now + tlb.latency);
                    self.rob.push(RobEntry {
                        complete_at: now + 1,
                        pc,
                        is_load: false,
                        blocked_head: false,
                        predicted_critical: false,
                    });
                    self.stats.stores.inc();
                }
                Instr::Load { vaddr, pc } => {
                    let phys = phys_addr(self.id, vaddr);
                    let line = line_of(phys);
                    // Coalesce onto an outstanding miss for the same line.
                    let coalesced = self
                        .mshrs
                        .iter()
                        .find(|m| m.line == line)
                        .map(|m| m.complete_at);
                    // A new L1 miss needs an MSHR; stall dispatch if the
                    // file is full (bounded memory-level parallelism). The
                    // L1 probe is pure, so it only runs in the full case.
                    if coalesced.is_none()
                        && self.mshrs.len() >= self.mshr_cap
                        && !mem.l1_contains(self.id, line)
                    {
                        self.stats.mshr_stall_cycles.inc();
                        return true;
                    }
                    let critical = pred.predict(pc);
                    let complete_at = coalesced.unwrap_or_else(|| {
                        let tlb = self.dtlb.access(page_of(phys), |_| ());
                        let out = mem.load(self.id, phys, pc, critical, now + tlb.latency);
                        let complete_at = now + tlb.latency + out.latency;
                        if !out.l1_hit {
                            self.mshrs.push(Mshr { line, complete_at });
                        }
                        complete_at
                    });
                    self.rob.push(RobEntry {
                        complete_at,
                        pc,
                        is_load: true,
                        blocked_head: false,
                        predicted_critical: critical,
                    });
                    self.stats.loads.inc();
                }
            }
            self.stats.dispatched.inc();
            self.cursor += 1;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::hierarchy::MemoryHierarchy;
    use crate::instr::{CyclicSource, InstrSource};
    use crate::placement::{AccessMeta, LlcPlacement, NeverCritical};
    use crate::types::Pc;

    /// Minimal static placement for substrate tests: bank 0 always.
    struct Bank0;
    impl LlcPlacement for Bank0 {
        fn name(&self) -> &'static str {
            "bank0"
        }
        fn lookup_bank(&mut self, _m: &AccessMeta) -> usize {
            0
        }
        fn fill_bank(&mut self, _m: &AccessMeta) -> usize {
            0
        }
    }

    fn setup() -> (CoreModel, MemoryHierarchy) {
        let cfg = SystemConfig::small(1);
        let core = CoreModel::new(0, &cfg);
        let mem = MemoryHierarchy::new(&cfg, Box::new(Bank0));
        (core, mem)
    }

    fn run_core(
        core: &mut CoreModel,
        mem: &mut MemoryHierarchy,
        src: &mut dyn InstrSource,
        budget: u64,
    ) -> Cycle {
        let mut pred = NeverCritical;
        core.add_budget(budget);
        let mut now = 0;
        let mut guard = 0u64;
        while !core.is_done() {
            let next = core.step(now, src, &mut pred, mem);
            now = next.min(now + 1).max(now + 1);
            if next != Cycle::MAX {
                now = next;
            }
            guard += 1;
            assert!(guard < 10_000_000, "core livelocked");
        }
        core.finished_at().unwrap()
    }

    #[test]
    fn alu_only_ipc_is_commit_width() {
        let (mut core, mut mem) = setup();
        let mut src = CyclicSource::new("alu", vec![Instr::Alu { latency: 1 }]);
        let end = run_core(&mut core, &mut mem, &mut src, 4000);
        let ipc = 4000.0 / end as f64;
        assert!(
            ipc > 3.0 && ipc <= 4.0,
            "ALU-only IPC should approach the width of 4, got {ipc}"
        );
        assert_eq!(core.stats.committed.get(), 4000);
    }

    #[test]
    fn isolated_miss_blocks_rob_head() {
        let (mut core, mut mem) = setup();
        // One load to a far line between long ALU runs: the load's DRAM
        // latency dwarfs the ROB drain time, so it must block the head.
        let mut instrs = vec![Instr::Load {
            vaddr: 1 << 20,
            pc: 42,
        }];
        instrs.extend(std::iter::repeat(Instr::Alu { latency: 1 }).take(511));
        let mut src = CyclicSource::new("miss", instrs);
        run_core(&mut core, &mut mem, &mut src, 512);
        assert_eq!(core.stats.loads.get(), 1);
        assert_eq!(
            core.stats.loads_blocked_head.get(),
            1,
            "a DRAM-latency load must block the ROB head"
        );
        // head_stall_cycles is an *observed* count (the system skips ahead
        // while fully stalled), so just require that some stall was seen.
        assert!(core.stats.head_stall_cycles.get() >= 1);
    }

    #[test]
    fn l1_hits_do_not_block_head() {
        let (mut core, mut mem) = setup();
        // Loads to a single line: first access misses, the rest hit L1.
        let mut src = CyclicSource::new(
            "hot",
            vec![
                Instr::Load { vaddr: 0, pc: 1 },
                Instr::Alu { latency: 1 },
                Instr::Alu { latency: 1 },
                Instr::Alu { latency: 1 },
            ],
        );
        run_core(&mut core, &mut mem, &mut src, 4000);
        // Only the first (cold) load should have blocked.
        assert!(
            core.stats.loads_blocked_head.get() <= 1,
            "L1-hit loads must not block: {}",
            core.stats.loads_blocked_head.get()
        );
        let frac = core.stats.noncritical_load_fraction();
        assert!(frac > 0.99, "noncritical fraction {frac}");
    }

    #[test]
    fn mshr_limits_outstanding_misses() {
        let (mut core, mut mem) = setup();
        // A pure streaming load pattern: every line distinct.
        let loads: Vec<Instr> = (0..64u64)
            .map(|i| Instr::Load {
                vaddr: i * 64 * 512,
                pc: 5,
            })
            .collect();
        let mut src = CyclicSource::new("stream", loads);
        run_core(&mut core, &mut mem, &mut src, 64);
        assert!(
            core.stats.mshr_stall_cycles.get() > 0,
            "64 distinct misses must exhaust 8 MSHRs"
        );
    }

    #[test]
    fn coalesced_loads_share_completion() {
        let (mut core, mut mem) = setup();
        // Two loads to the same line back-to-back: one miss, one coalesce.
        let mut instrs = vec![
            Instr::Load { vaddr: 4096, pc: 1 },
            Instr::Load {
                vaddr: 4096 + 8,
                pc: 2,
            },
        ];
        instrs.extend(std::iter::repeat(Instr::Alu { latency: 1 }).take(126));
        let mut src = CyclicSource::new("coal", instrs);
        run_core(&mut core, &mut mem, &mut src, 128);
        assert_eq!(core.stats.loads.get(), 2);
        // Only one hierarchy access happened for the pair: the L1 sees one
        // demand miss for that line.
        assert_eq!(mem.per_core_stats(0).l1_misses, 1);
    }

    #[test]
    fn burst_of_misses_blocks_head_once() {
        let (mut core, mut mem) = setup();
        // 8 distinct-line misses dispatched back-to-back, then ALU work.
        // They overlap in the memory system; only the first (oldest) should
        // block the head — the rest complete under its shadow.
        let mut instrs: Vec<Instr> = (0..8u64)
            .map(|i| Instr::Load {
                vaddr: (1 << 22) + i * 64,
                pc: 10 + i as Pc,
            })
            .collect();
        instrs.extend(std::iter::repeat(Instr::Alu { latency: 1 }).take(1016));
        let mut src = CyclicSource::new("burst", instrs);
        run_core(&mut core, &mut mem, &mut src, 1024);
        assert!(
            core.stats.loads_blocked_head.get() <= 3,
            "most burst loads must resolve in the shadow of the first: {} blocked",
            core.stats.loads_blocked_head.get()
        );
    }

    #[test]
    fn budget_exhaustion_finishes_core() {
        let (mut core, mut mem) = setup();
        let mut src = CyclicSource::new("alu", vec![Instr::Alu { latency: 1 }]);
        let end = run_core(&mut core, &mut mem, &mut src, 100);
        assert!(core.is_done());
        assert_eq!(core.stats.dispatched.get(), 100);
        assert_eq!(core.stats.committed.get(), 100);
        assert!(end > 0);
        // Granting more budget reactivates the core.
        core.add_budget(50);
        assert!(!core.is_done());
    }

    #[test]
    fn prediction_accounting_at_commit() {
        let (mut core, mut mem) = setup();
        struct Always(bool);
        impl CriticalityPredictor for Always {
            fn predict(&mut self, _: Pc) -> bool {
                self.0
            }
            fn on_rob_block(&mut self, _: Pc) {}
            fn on_load_commit(&mut self, _: Pc, _: bool) {}
        }
        let mut pred = Always(true);
        // One isolated DRAM miss: actually critical, predicted critical.
        let mut instrs = vec![Instr::Load {
            vaddr: 1 << 21,
            pc: 9,
        }];
        instrs.extend(std::iter::repeat(Instr::Alu { latency: 1 }).take(255));
        let mut src = CyclicSource::new("one", instrs);
        core.add_budget(256);
        let mut now = 0;
        while !core.is_done() {
            let next = core.step(now, &mut src, &mut pred, &mut mem);
            now = if next == Cycle::MAX { now + 1 } else { next };
        }
        assert_eq!(core.stats.pred_true_pos.get(), 1);
        assert_eq!(core.stats.pred_false_neg.get(), 0);
        assert!((core.stats.critical_recall() - 1.0).abs() < 1e-12);
    }
}

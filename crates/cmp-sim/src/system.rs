//! The full-system simulator: N cores stepping against a shared memory
//! hierarchy, with warm-up / measurement phases and result extraction.

use crate::config::SystemConfig;
use crate::cpu::{CoreModel, CoreStats};
use crate::feed::Feed;
use crate::hierarchy::{BankCompressStats, HierarchyStats, MemoryHierarchy, PerCoreMemStats};
use crate::instr::InstrSource;
use crate::placement::{CriticalityPredictor, LlcPlacement, NeverCritical, PredictorStats};
use crate::types::{CoreId, Cycle};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use wear_model::WearTracker;

/// Per-core results of a measured run.
#[derive(Clone, Debug)]
pub struct CoreResult {
    /// Workload label running on this core.
    pub label: String,
    /// Instructions committed during measurement.
    pub committed: u64,
    /// Cycles from measurement start to this core draining.
    pub cycles: Cycle,
    /// Committed instructions per cycle.
    pub ipc: f64,
    /// L3 misses per kilo-instruction.
    pub mpki: f64,
    /// L2→L3 writebacks per kilo-instruction.
    pub wpki: f64,
    /// L3 hit rate for this core's demand stream.
    pub l3_hit_rate: f64,
    /// Core execution counters.
    pub core_stats: CoreStats,
    /// Hierarchy counters for this core.
    pub mem_stats: PerCoreMemStats,
    /// Predictor issue-time counters.
    pub predictor: PredictorStats,
    /// Data-TLB counters for this core.
    pub tlb: crate::tlb::TlbStats,
    /// This core's private L1D counters.
    pub l1: crate::cache::CacheStats,
    /// This core's private L2 counters.
    pub l2: crate::cache::CacheStats,
}

/// Results of one measured simulation window.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Placement scheme that produced this run.
    pub scheme: &'static str,
    /// Measured window length in cycles (to the last core's drain).
    pub cycles: Cycle,
    /// Per-core results.
    pub per_core: Vec<CoreResult>,
    /// Total writes each L3 bank absorbed (index = bank).
    pub bank_writes: Vec<u64>,
    /// Full per-slot wear counters (lifetime extrapolation input), a
    /// snapshot that shares its counter arrays copy-on-write.
    pub wear: WearTracker,
    /// Global hierarchy counters.
    pub hierarchy: HierarchyStats,
    /// NoC statistics.
    pub noc: crate::noc::NocStats,
    /// DRAM statistics.
    pub dram: crate::dram::DramStats,
    /// MESI directory statistics.
    pub coherence: crate::coherence::CoherenceStats,
    /// Per-bank L3 cache counters (index = bank).
    pub l3_banks: Vec<crate::cache::CacheStats>,
    /// Per-bank data-array service/contention statistics (index = bank).
    pub bank_service: Vec<crate::bank::BankStats>,
    /// Per-bank compression counters (index = bank); empty for
    /// uncompressed schemes.
    pub compress_banks: Vec<BankCompressStats>,
    /// Echo of the configuration that produced this run.
    pub config: SystemConfig,
}

impl SimResult {
    /// System throughput: sum of per-core IPC (the paper's Figure 11
    /// metric, normalized there to S-NUCA).
    pub fn total_ipc(&self) -> f64 {
        self.per_core.iter().map(|c| c.ipc).sum()
    }

    /// Average MPKI across cores.
    pub fn avg_mpki(&self) -> f64 {
        sim_stats::amean(&self.per_core.iter().map(|c| c.mpki).collect::<Vec<_>>())
    }

    /// Average WPKI across cores.
    pub fn avg_wpki(&self) -> f64 {
        sim_stats::amean(&self.per_core.iter().map(|c| c.wpki).collect::<Vec<_>>())
    }

    /// Full hierarchical statistics snapshot under stable dotted paths,
    /// using the paper's endurance budget
    /// ([`wear_model::EnduranceSpec::PAPER`]) for the wear section.
    ///
    /// Section order (documented in EXPERIMENTS.md "Observability"):
    /// `system.*`, `config.*`, `cpu[i].*` (core counters, then derived
    /// rates, then `cpu[i].mem.*`, `cpu[i].tlb.*`, `cpu[i].l1.*`,
    /// `cpu[i].l2.*`, `cpu[i].pred.*`), `llc.bank[b].*`, `hierarchy.*`,
    /// `noc.*`, `dram.*`, `coherence.*`, `wear.*`. Two runs that execute
    /// identically produce byte-identical `to_json()` dumps.
    pub fn registry(&self) -> sim_stats::StatsRegistry {
        self.registry_with_endurance(&wear_model::EnduranceSpec::PAPER)
    }

    /// [`SimResult::registry`] with an explicit endurance budget for the
    /// `wear.bank[i].min_endurance_frac` entries.
    pub fn registry_with_endurance(
        &self,
        endurance: &wear_model::EnduranceSpec,
    ) -> sim_stats::StatsRegistry {
        let mut reg = sim_stats::StatsRegistry::new();
        reg.set("system.scheme", self.scheme);
        reg.set("system.cycles", self.cycles);
        reg.set("system.total_ipc", self.total_ipc());
        reg.set("system.avg_mpki", self.avg_mpki());
        reg.set("system.avg_wpki", self.avg_wpki());
        self.config.register(&mut reg, "config");
        for (i, c) in self.per_core.iter().enumerate() {
            let p = format!("cpu[{i}]");
            reg.set(format!("{p}.label"), c.label.as_str());
            c.core_stats.register(&mut reg, &p);
            reg.set(format!("{p}.cycles"), c.cycles);
            reg.set(format!("{p}.ipc"), c.ipc);
            reg.set(format!("{p}.mpki"), c.mpki);
            reg.set(format!("{p}.wpki"), c.wpki);
            reg.set(format!("{p}.l3_hit_rate"), c.l3_hit_rate);
            c.mem_stats.register(&mut reg, &format!("{p}.mem"));
            c.tlb.register(&mut reg, &format!("{p}.tlb"));
            c.l1.register(&mut reg, &format!("{p}.l1"));
            c.l2.register(&mut reg, &format!("{p}.l2"));
            reg.set(
                format!("{p}.pred.predicted_critical"),
                c.predictor.predicted_critical,
            );
            reg.set(
                format!("{p}.pred.predicted_noncritical"),
                c.predictor.predicted_noncritical,
            );
        }
        for (b, writes) in self.bank_writes.iter().enumerate() {
            let p = format!("llc.bank[{b}]");
            reg.set(format!("{p}.writes"), *writes);
            if let Some(cs) = self.l3_banks.get(b) {
                cs.register(&mut reg, &p);
            }
            if let Some(bs) = self.bank_service.get(b) {
                bs.register(&mut reg, &p);
            }
            // Only compressed schemes carry these banks, so uncompressed
            // manifests are unchanged.
            if let Some(cb) = self.compress_banks.get(b) {
                cb.register(&mut reg, &p);
            }
        }
        self.hierarchy.register(&mut reg, "hierarchy");
        self.noc.register(&mut reg, "noc");
        self.dram.register(&mut reg, "dram");
        self.coherence.register(&mut reg, "coherence");
        self.wear.register(&mut reg, "wear", endurance);
        // Write-variation CVs over the L3 slot geometry: inter-set (what
        // coloring-style remaps flatten) and intra-set (what write-aware
        // replacement flattens).
        let assoc = self.config.l3_bank.assoc;
        reg.set("wear.interset_cv", self.wear.interset_cv(assoc));
        reg.set("wear.intraset_cv", self.wear.intraset_cv(assoc));
        // Cell-granularity spread across sub-block positions — what the
        // rotating compressed-write mask flattens. Only meaningful (and
        // only emitted) when sub-block accounting is on.
        if self.wear.subblocks_per_slot() != 0 {
            reg.set("wear.subblock_cv", self.wear.subblock_cv());
        }
        reg
    }
}

/// The simulated machine: configuration, cores, workload sources, criticality
/// predictors and the shared memory system.
pub struct System {
    cfg: SystemConfig,
    cores: Vec<CoreModel>,
    feed: Feed,
    predictors: Vec<Box<dyn CriticalityPredictor>>,
    /// The shared memory system (public for inspection).
    pub mem: MemoryHierarchy,
    now: Cycle,
    measure_start: Cycle,
}

/// The cycle past which [`System::run`] declares a livelock: `now` plus
/// `10_000 × instr_per_core + 1_000_000`, saturating at `u64::MAX` so a
/// huge budget never wraps to a small bound.
fn livelock_bound(now: Cycle, instr_per_core: u64) -> Cycle {
    now.saturating_add(
        10_000u64
            .saturating_mul(instr_per_core)
            .saturating_add(1_000_000),
    )
}

impl System {
    /// Build a system. `sources` must provide one instruction stream per
    /// core; `predictors` one criticality predictor per core (use
    /// [`System::never_critical`] for schemes without criticality logic).
    ///
    /// When every source [forks](InstrSource::fork) and the host has more
    /// than one CPU, a generator thread fills the cores' instruction
    /// blocks from the forked copies (see [`feed`](crate::feed)); it is
    /// joined when the system drops. Otherwise the sources fill the
    /// blocks on the calling thread. Both give identical results.
    ///
    /// # Panics
    /// Panics when the source/predictor counts do not match `cfg.n_cores`.
    pub fn new(
        cfg: SystemConfig,
        policy: Box<dyn LlcPlacement>,
        sources: Vec<Box<dyn InstrSource>>,
        predictors: Vec<Box<dyn CriticalityPredictor>>,
    ) -> Self {
        cfg.validate();
        assert_eq!(
            sources.len(),
            cfg.n_cores,
            "one instruction source per core"
        );
        assert_eq!(predictors.len(), cfg.n_cores, "one predictor per core");
        System {
            cores: (0..cfg.n_cores).map(|i| CoreModel::new(i, &cfg)).collect(),
            feed: Feed::new(sources),
            predictors,
            mem: MemoryHierarchy::new(&cfg, policy),
            cfg,
            now: 0,
            measure_start: 0,
        }
    }

    /// A vector of [`NeverCritical`] predictors sized for `cfg`.
    pub fn never_critical(cfg: &SystemConfig) -> Vec<Box<dyn CriticalityPredictor>> {
        (0..cfg.n_cores)
            .map(|_| Box::new(NeverCritical) as Box<dyn CriticalityPredictor>)
            .collect()
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Whether a generator thread fills the cores' instruction blocks
    /// (see [`System::new`]).
    pub fn threaded(&self) -> bool {
        self.feed.threaded()
    }

    /// Run every core for `instr_per_core` further instructions; returns
    /// when the last core drains.
    ///
    /// Event-driven: a min-heap holds one `(wake cycle, core id)` entry per
    /// live core, and only the top core steps. Tuple order steps cores due
    /// at the same cycle in ascending core-id order — the same
    /// deterministic order the poll-everything loop used, so the two
    /// advance schemes execute identically. Time advances (and the
    /// hierarchy's calendars are floored) only when the top's cycle is
    /// past `now`; a core whose next wake is still the earliest stays on
    /// top and steps again at once.
    ///
    /// # Panics
    /// Panics if time goes backwards or a step returns a wake that is not
    /// strictly in the future (either means a substrate bug; both are
    /// checked in release builds too), or if the system livelocks, after a
    /// generous cycle bound of `10_000 × instr_per_core + 1_000_000`
    /// cycles from the start, saturating at `u64::MAX`.
    pub fn run(&mut self, instr_per_core: u64) {
        let bound = livelock_bound(self.now, instr_per_core);
        for c in &mut self.cores {
            c.add_budget(instr_per_core);
        }
        let mut wakes: BinaryHeap<Reverse<(Cycle, u32)>> = (0..self.cores.len() as u32)
            .map(|i| Reverse((self.now, i)))
            .collect();
        // Every resource reservation a step makes starts at or after the
        // dispatch cycle, and `now` is monotone — so the hierarchy's busy
        // calendars can drop everything ending before this point.
        self.mem.set_time_floor(self.now);
        while let Some(mut top) = wakes.peek_mut() {
            let Reverse((cycle, i)) = *top;
            if cycle != self.now {
                // A heap handing back the past would silently corrupt
                // timing, so this stays on in release builds.
                assert!(
                    cycle > self.now,
                    "event time must advance: cycle {cycle} at now={}",
                    self.now
                );
                self.now = cycle;
                assert!(
                    self.now < bound,
                    "simulation exceeded {bound} cycles for {instr_per_core} instructions/core — livelock?"
                );
                self.mem.set_time_floor(self.now);
            }
            let core = i as usize;
            let nxt = self.cores[core].step(
                self.now,
                self.feed.core(core),
                self.predictors[core].as_mut(),
                &mut self.mem,
            );
            if nxt == Cycle::MAX {
                PeekMut::pop(top);
            } else {
                assert!(
                    nxt > self.now,
                    "core {core} scheduled a non-future wake {nxt}"
                );
                *top = Reverse((nxt, i));
            }
        }
    }

    /// Run a warm-up phase of `instr_per_core` instructions and then reset
    /// all statistics (cache/TLB/predictor/policy *state* is preserved).
    pub fn warmup(&mut self, instr_per_core: u64) {
        self.run(instr_per_core);
        self.mem.reset_stats();
        for c in &mut self.cores {
            c.reset_stats();
        }
        self.measure_start = self.now;
    }

    /// Install each source's `warm_ranges` into the hierarchy
    /// (checkpoint-style cache warming; see [`InstrSource::warm_ranges`])
    /// through [`MemoryHierarchy::prewarm_fill`], which moves cache,
    /// directory and policy state but books no bank or mesh time and
    /// charges no wear, then reset the statistics. Call before
    /// `warmup`/`run`.
    pub fn prewarm(&mut self) {
        use crate::types::{line_of, phys_addr, LINE_BYTES};
        for core in 0..self.cores.len() {
            for (start, bytes) in self.feed.source(core).warm_ranges() {
                let first = line_of(start);
                let last = line_of(start + bytes.saturating_sub(1));
                for line in first..=last {
                    let phys = phys_addr(core, line * LINE_BYTES);
                    self.mem.prewarm_fill(core, phys);
                }
            }
        }
        self.mem.reset_stats();
    }

    /// Extract the results of the measurement window (call after `run`).
    ///
    /// The result is a snapshot: running on afterwards leaves it as it is.
    /// Its `wear` tracker shares the system's per-slot and per-cell
    /// counter arrays copy-on-write ([`WearTracker`]), so this call does
    /// not copy them. If the result is still alive at the system's next
    /// L3 write, that write copies them, once.
    pub fn result(&self) -> SimResult {
        let per_core = (0..self.cores.len())
            .map(|i| {
                let core = &self.cores[i];
                let cs = core.stats;
                let ms = self.mem.per_core_stats(i);
                let cycles = core
                    .finished_at()
                    .unwrap_or(self.now)
                    .saturating_sub(self.measure_start)
                    .max(1);
                let kinstr = cs.committed.get() as f64 / 1000.0;
                CoreResult {
                    label: self.feed.source(i).label().to_owned(),
                    committed: cs.committed.get(),
                    cycles,
                    ipc: cs.committed.get() as f64 / cycles as f64,
                    mpki: if kinstr > 0.0 {
                        ms.l3_misses as f64 / kinstr
                    } else {
                        0.0
                    },
                    wpki: if kinstr > 0.0 {
                        ms.l2_writebacks as f64 / kinstr
                    } else {
                        0.0
                    },
                    l3_hit_rate: ms.l3_hit_rate(),
                    core_stats: cs,
                    mem_stats: ms,
                    predictor: self.predictors[i].stats(),
                    tlb: core.tlb_stats(),
                    l1: self.mem.l1_stats(i),
                    l2: self.mem.l2_stats(i),
                }
            })
            .collect();
        SimResult {
            scheme: self.mem.policy_name(),
            cycles: (self.now - self.measure_start).max(1),
            per_core,
            bank_writes: self.mem.wear.bank_totals().to_vec(),
            wear: self.mem.wear.clone(),
            hierarchy: self.mem.stats,
            noc: self.mem.mesh.stats,
            dram: self.mem.dram.stats,
            coherence: self.mem.dir.stats,
            l3_banks: (0..self.cfg.n_banks)
                .map(|b| self.mem.l3_stats(b))
                .collect(),
            bank_service: self.mem.banks.stats_vec(),
            compress_banks: self.mem.compress_stats_vec(),
            config: self.cfg,
        }
    }

    /// Convenience: warm up, measure, and return results in one call.
    pub fn run_measured(&mut self, warmup: u64, measure: u64) -> SimResult {
        self.warmup(warmup);
        self.run(measure);
        self.result()
    }

    /// Per-core access to a predictor (ablation statistics).
    pub fn predictor(&self, core: CoreId) -> &dyn CriticalityPredictor {
        self.predictors[core].as_ref()
    }

    /// Per-core access to core stats.
    pub fn core_stats(&self, core: CoreId) -> CoreStats {
        self.cores[core].stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{CyclicSource, Instr};
    use crate::placement::{AccessMeta, LlcPlacement};
    use crate::types::BankId;

    struct Striped {
        nbanks: usize,
    }
    impl LlcPlacement for Striped {
        fn name(&self) -> &'static str {
            "striped"
        }
        fn lookup_bank(&mut self, m: &AccessMeta) -> BankId {
            (m.line as usize) & (self.nbanks - 1)
        }
        fn fill_bank(&mut self, m: &AccessMeta) -> BankId {
            (m.line as usize) & (self.nbanks - 1)
        }
    }

    fn alu_heavy_source() -> Box<dyn InstrSource> {
        Box::new(CyclicSource::new(
            "alu",
            vec![
                Instr::Alu { latency: 1 },
                Instr::Alu { latency: 1 },
                Instr::Alu { latency: 1 },
                Instr::Load { vaddr: 64, pc: 1 },
            ],
        ))
    }

    fn stream_source(span_lines: u64) -> Box<dyn InstrSource> {
        let instrs: Vec<Instr> = (0..span_lines)
            .flat_map(|i| {
                vec![
                    Instr::Load {
                        vaddr: i * 64,
                        pc: 2,
                    },
                    Instr::Alu { latency: 1 },
                ]
            })
            .collect();
        Box::new(CyclicSource::new("stream", instrs))
    }

    fn build(n: usize, sources: Vec<Box<dyn InstrSource>>) -> System {
        let cfg = SystemConfig::small(n);
        let preds = System::never_critical(&cfg);
        System::new(cfg, Box::new(Striped { nbanks: n }), sources, preds)
    }

    #[test]
    fn four_cores_run_to_completion() {
        let sources = (0..4).map(|_| alu_heavy_source()).collect();
        let mut sys = build(4, sources);
        sys.run(2_000);
        let r = sys.result();
        assert_eq!(r.per_core.len(), 4);
        for c in &r.per_core {
            assert_eq!(c.committed, 2_000);
            assert!(c.ipc > 0.5, "ipc {}", c.ipc);
        }
        assert!(r.total_ipc() > 2.0);
    }

    #[test]
    fn warmup_resets_statistics_but_keeps_caches() {
        let sources = (0..4).map(|_| alu_heavy_source()).collect();
        let mut sys = build(4, sources);
        sys.warmup(1_000);
        // After warm-up the hot line is cached: the measured window has
        // (nearly) no L3 misses and zero wear.
        assert_eq!(sys.mem.wear.total_writes(), 0);
        sys.run(1_000);
        let r = sys.result();
        assert_eq!(r.per_core[0].committed, 1_000);
        assert_eq!(
            r.per_core[0].mem_stats.l3_misses, 0,
            "hot line must be warm"
        );
    }

    #[test]
    fn streaming_cores_generate_misses_and_wear() {
        // Streams larger than L3: 4 cores x 1 MB L3 span... use 3x the
        // total L3 (4 banks x 2MB = 8MB -> 128K lines); span 64K lines/core
        // with 4 cores = 16 MB total footprint.
        let sources = (0..4).map(|_| stream_source(65_536)).collect();
        let mut sys = build(4, sources);
        sys.run(20_000);
        let r = sys.result();
        assert!(
            r.per_core[0].mpki > 100.0,
            "stream mpki {}",
            r.per_core[0].mpki
        );
        assert!(sys.mem.wear.total_writes() > 10_000);
        // Striped placement: bank write counts within 2x of each other.
        let totals = r.bank_writes.clone();
        let max = *totals.iter().max().unwrap() as f64;
        let min = *totals.iter().min().unwrap() as f64;
        assert!(
            max / min.max(1.0) < 2.0,
            "striping should balance: {totals:?}"
        );
    }

    #[test]
    fn result_metrics_are_consistent() {
        let sources = (0..4).map(|_| stream_source(1024)).collect();
        let mut sys = build(4, sources);
        let r = sys.run_measured(500, 2_000);
        for c in &r.per_core {
            assert_eq!(c.committed, 2_000);
            assert!(c.mpki >= 0.0 && c.wpki >= 0.0);
            assert!(c.l3_hit_rate >= 0.0 && c.l3_hit_rate <= 1.0);
            assert!(c.cycles > 0);
        }
        // Total L3 writes equal wear-tracked writes.
        assert_eq!(r.hierarchy.l3_writes.get(), r.wear.total_writes());
    }

    #[test]
    #[should_panic(expected = "one instruction source per core")]
    fn source_count_mismatch_rejected() {
        let cfg = SystemConfig::small(4);
        let preds = System::never_critical(&cfg);
        System::new(cfg, Box::new(Striped { nbanks: 4 }), vec![], preds);
    }

    #[test]
    fn single_core_system_works() {
        let mut sys = build(1, vec![alu_heavy_source()]);
        sys.run(1_000);
        assert_eq!(sys.result().per_core[0].committed, 1_000);
    }

    #[test]
    fn time_advances_monotonically_across_runs() {
        let mut sys = build(1, vec![alu_heavy_source()]);
        sys.run(100);
        let t1 = sys.now();
        sys.run(100);
        assert!(sys.now() > t1);
    }

    /// Per-core drain cycles and bank 0's read queueing when cores 1 and 2
    /// (tiles (1,0) and (0,1), both one hop from bank 0 on the 2×2 mesh)
    /// each read one L3-resident line of bank 0 in cycle 0, core 1 at
    /// `vaddr_1` and core 2 at `vaddr_2`. Cores 0 and 3 run ALU work.
    fn same_cycle_reads(vaddr_1: u64, vaddr_2: u64) -> (Vec<Cycle>, u64) {
        let alu = || -> Box<dyn InstrSource> {
            Box::new(CyclicSource::new("alu", vec![Instr::Alu { latency: 1 }]))
        };
        let reader = |vaddr: u64| -> Box<dyn InstrSource> {
            Box::new(CyclicSource::new(
                "reader",
                vec![Instr::Load { vaddr, pc: 3 }, Instr::Alu { latency: 1 }],
            ))
        };
        let mut sys = build(4, vec![alu(), reader(vaddr_1), reader(vaddr_2), alu()]);
        // Install both lines in the L3 only through core 0 (whose tile
        // holds bank 0), so neither reader finds it in its own L1 or L2.
        for (core, vaddr) in [(1, vaddr_1), (2, vaddr_2)] {
            let phys = crate::types::phys_addr(core, vaddr);
            assert_eq!(crate::types::line_of(phys) & 3, 0, "bank 0 under Striped");
            sys.mem.prewarm_fill(0, phys);
        }
        sys.mem.reset_stats();
        sys.run(64);
        let r = sys.result();
        let cycles = r.per_core.iter().map(|c| c.cycles).collect();
        (cycles, r.bank_service[0].queue_cycles.get())
    }

    #[test]
    fn same_cycle_steps_run_in_ascending_core_id_order() {
        // Two equidistant cores contend for one bank in the same cycle:
        // the lower core id steps first and gets the bank, the other
        // queues one read behind it.
        let (ab, queued) = same_cycle_reads(0, 256);
        assert!(queued > 0, "the two reads must contend for bank 0");
        assert!(ab[1] < ab[2], "core 1 must be served first: {ab:?}");
        assert_eq!(ab[2] - ab[1], queued, "core 2 waits one read behind core 1");
        // Swapping the streams swaps which stream wins, not which core:
        // the outcome follows the core id alone.
        let (ba, queued_ba) = same_cycle_reads(256, 0);
        assert_eq!(ba, ab, "the winner is the lower core id, whatever it runs");
        assert_eq!(queued_ba, queued);
    }

    #[test]
    fn livelock_bound_saturates_instead_of_wrapping() {
        assert_eq!(livelock_bound(0, 0), 1_000_000);
        assert_eq!(livelock_bound(5, 3), 5 + 30_000 + 1_000_000);
        // 10_000 × budget fits in u64, but adding the 1 M slack would not.
        let near = u64::MAX / 10_000;
        assert_eq!(livelock_bound(0, near), u64::MAX);
        assert_eq!(livelock_bound(0, u64::MAX), u64::MAX);
        assert_eq!(livelock_bound(u64::MAX, 1), u64::MAX);
        assert_eq!(livelock_bound(u64::MAX - 1, 0), u64::MAX);
    }
}

//! One simulation point: build, prewarm, warm up, run, dump — timed from
//! outside with one clock read per phase boundary — plus the exact
//! outcome checks and, for the traced run, the per-layer replay.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use cmp_sim::{CriticalityPredictor, InstrSource, LlcPlacement, SimResult, System};
use sim_stats::StatsRegistry;

use crate::shim::{Layer, Mark, Recorded, TrackRef};
use crate::workload::{build_parts, config, Point, Workload};
use crate::{fnv64, FNV_OFFSET};

/// Host seconds spent in each phase of one point.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    /// Policy, predictor and source construction plus `System::new`.
    pub setup: f64,
    /// `System::prewarm`.
    pub prewarm: f64,
    /// `System::warmup`.
    pub warmup: f64,
    /// `System::run` (the measured window).
    pub run: f64,
    /// `System::result` plus `registry().dump()`.
    pub result: f64,
}

impl Phases {
    /// The phases in call order, by name.
    pub fn named(&self) -> [(&'static str, f64); 5] {
        [
            ("setup", self.setup),
            ("prewarm", self.prewarm),
            ("warmup", self.warmup),
            ("run", self.run),
            ("result", self.result),
        ]
    }

    /// The phase called `name`.
    pub fn by_name(&mut self, name: &str) -> Option<&mut f64> {
        match name {
            "setup" => Some(&mut self.setup),
            "prewarm" => Some(&mut self.prewarm),
            "warmup" => Some(&mut self.warmup),
            "run" => Some(&mut self.run),
            "result" => Some(&mut self.result),
            _ => None,
        }
    }

    /// Sum of all phases.
    pub fn total(&self) -> f64 {
        self.named().iter().map(|(_, v)| v).sum()
    }

    /// Every phase multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> Phases {
        Phases {
            setup: self.setup * factor,
            prewarm: self.prewarm * factor,
            warmup: self.warmup * factor,
            run: self.run * factor,
            result: self.result * factor,
        }
    }

    /// Add another point's phases.
    pub fn add(&mut self, o: &Phases) {
        self.setup += o.setup;
        self.prewarm += o.prewarm;
        self.warmup += o.warmup;
        self.run += o.run;
        self.result += o.result;
    }
}

/// The three traced layers, in report order; each is named after the
/// module that implements it.
pub const LAYERS: [&str; 3] = ["workloads", "criticality", "mapping"];

/// Replay outcome of one layer over all its instances in a point.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerReplay {
    /// Calls logged in the measured window.
    pub calls: u64,
    /// Host seconds replaying them (two clock reads per layer).
    pub replay_s: f64,
    /// Pre-mark calls whose shadow result differed from the live one, plus
    /// instances whose replayed results differed from the recorded ones.
    pub mismatches: u64,
}

/// Everything a point reports.
#[derive(Clone, Debug)]
pub struct PointRun {
    /// Host time per phase.
    pub phases: Phases,
    /// FNV-64 over the [`fingerprint_keys`] of the registry.
    pub fingerprint: u64,
    /// The whole registry dump (`System::result().registry().dump()`).
    pub dump: String,
    /// Exact simulated counters of the measured window.
    pub sim: SimCounts,
    /// Invariant violations found in the result.
    pub problems: Vec<String>,
    /// Per-layer replay, in [`LAYERS`] order (traced runs only).
    pub layers: Option<[LayerReplay; 3]>,
}

/// The simulated outcome keys the exact-output gate hashes. A fixed list,
/// not the whole dump, so that adding observability keys to the registry
/// does not change the fingerprint.
pub fn fingerprint_keys(n_cores: usize, n_banks: usize) -> Vec<String> {
    let mut keys = vec!["system.cycles".to_owned()];
    for i in 0..n_cores {
        keys.push(format!("cpu[{i}].committed"));
        keys.push(format!("cpu[{i}].cycles"));
    }
    for b in 0..n_banks {
        for k in ["writes", "read_ops", "queue_cycles"] {
            keys.push(format!("llc.bank[{b}].{k}"));
        }
    }
    for k in ["noc.messages", "noc.flit_hops", "dram.reads", "dram.writes"] {
        keys.push(k.to_owned());
    }
    keys
}

fn fingerprint(reg: &StatsRegistry, keys: &[String], problems: &mut Vec<String>) -> u64 {
    let mut h = FNV_OFFSET;
    for k in keys {
        match reg.get_int(k) {
            Some(v) => h = fnv64(h, format!("{k}={v}\n").as_bytes()),
            None => problems.push(format!("fingerprint key {k} missing")),
        }
    }
    h
}

/// Exact simulated counters of one or more measured windows. Summing
/// counters (not averaging rates) keeps every derived rate exact.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimCounts {
    pub instr: u64,
    pub core_cycles: u64,
    pub head_stall: u64,
    pub mshr_stall: u64,
    pub pred_true_pos: u64,
    pub pred_false_pos: u64,
    pub l1_misses: u64,
    pub l2_misses: u64,
    pub l3_accesses: u64,
    pub l3_hits: u64,
    pub tlb_misses: u64,
    pub noc_msgs: u64,
    pub noc_hops: u64,
    pub noc_contention: u64,
    pub bank_reads: u64,
    pub bank_programs: u64,
    pub bank_expands: u64,
    pub bank_queue: u64,
    pub dram_accesses: u64,
    pub dram_row_hits: u64,
    pub dram_queue: u64,
    pub invalidations: u64,
    pub wear_writes: u64,
    /// Sum over points of `wear.interset_cv` (mean = this / `points`).
    pub interset_cv_sum: f64,
    pub points: u64,
}

impl SimCounts {
    fn of(r: &SimResult, reg: &StatsRegistry) -> Self {
        let mut s = SimCounts {
            noc_msgs: r.noc.messages.get(),
            noc_hops: r.noc.hops.get(),
            noc_contention: r.noc.contention_cycles.get(),
            dram_accesses: r.dram.reads.get() + r.dram.writes.get(),
            dram_row_hits: r.dram.row_hits.get(),
            dram_queue: r.dram.queue_cycles.get(),
            invalidations: r.coherence.invalidations_sent.get()
                + r.coherence.back_invalidations.get(),
            wear_writes: r.wear.total_writes(),
            interset_cv_sum: reg.get_float("wear.interset_cv").unwrap_or(0.0),
            points: 1,
            ..SimCounts::default()
        };
        for c in &r.per_core {
            s.instr += c.committed;
            s.core_cycles += c.cycles;
            s.head_stall += c.core_stats.head_stall_cycles.get();
            s.mshr_stall += c.core_stats.mshr_stall_cycles.get();
            s.pred_true_pos += c.core_stats.pred_true_pos.get();
            s.pred_false_pos += c.core_stats.pred_false_pos.get();
            s.l1_misses += c.l1.misses.get();
            s.l2_misses += c.l2.misses.get();
            s.l3_accesses += c.mem_stats.l3_accesses;
            s.l3_hits += c.mem_stats.l3_hits;
            s.tlb_misses += c.tlb.misses.get();
        }
        for b in &r.bank_service {
            s.bank_reads += b.read_ops.get();
            s.bank_programs += b.write_ops.get() + b.fill_ops.get() + b.expand_ops.get();
            s.bank_expands += b.expand_ops.get();
            s.bank_queue += b.queue_cycles.get();
        }
        s
    }

    /// Add another window's counters.
    pub fn add(&mut self, o: &SimCounts) {
        macro_rules! sum {
            ($($f:ident),*) => { $( self.$f += o.$f; )* };
        }
        sum!(
            instr,
            core_cycles,
            head_stall,
            mshr_stall,
            pred_true_pos,
            pred_false_pos,
            l1_misses,
            l2_misses,
            l3_accesses,
            l3_hits,
            tlb_misses,
            noc_msgs,
            noc_hops,
            noc_contention,
            bank_reads,
            bank_programs,
            bank_expands,
            bank_queue,
            dram_accesses,
            dram_row_hits,
            dram_queue,
            invalidations,
            wear_writes,
            interset_cv_sum,
            points
        );
    }

    /// The simulated per-layer metrics: `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let pki = |n: u64| ratio(n * 1000, self.instr);
        vec![
            (
                "criticality.precision",
                ratio(self.pred_true_pos, self.pred_true_pos + self.pred_false_pos),
                "fraction",
            ),
            (
                "cpu.ipc",
                ratio(self.instr, self.core_cycles),
                "instr/cycle",
            ),
            ("cpu.head_stall_cpki", pki(self.head_stall), "cycles/kinstr"),
            ("cpu.mshr_stall_cpki", pki(self.mshr_stall), "cycles/kinstr"),
            ("cache.l1_mpki", pki(self.l1_misses), "1/kinstr"),
            ("cache.l2_mpki", pki(self.l2_misses), "1/kinstr"),
            ("cache.l3_apki", pki(self.l3_accesses), "1/kinstr"),
            (
                "cache.l3_hit_rate",
                ratio(self.l3_hits, self.l3_accesses),
                "fraction",
            ),
            ("tlb.mpki", pki(self.tlb_misses), "1/kinstr"),
            ("noc.msgs_pki", pki(self.noc_msgs), "1/kinstr"),
            ("noc.avg_hops", ratio(self.noc_hops, self.noc_msgs), "hops"),
            (
                "noc.contention_per_msg",
                ratio(self.noc_contention, self.noc_msgs),
                "cycles/msg",
            ),
            ("bank.reads_pki", pki(self.bank_reads), "1/kinstr"),
            ("bank.writes_pki", pki(self.bank_programs), "1/kinstr"),
            ("bank.expand_pki", pki(self.bank_expands), "1/kinstr"),
            (
                "bank.queue_per_read",
                ratio(self.bank_queue, self.bank_reads),
                "cycles/read",
            ),
            ("dram.apki", pki(self.dram_accesses), "1/kinstr"),
            (
                "dram.row_hit_rate",
                ratio(self.dram_row_hits, self.dram_accesses),
                "fraction",
            ),
            (
                "dram.queue_per_access",
                ratio(self.dram_queue, self.dram_accesses),
                "cycles/access",
            ),
            ("coherence.inval_pki", pki(self.invalidations), "1/kinstr"),
            ("wear.writes_pki", pki(self.wear_writes), "1/kinstr"),
            (
                "wear.interset_cv",
                self.interset_cv_sum / self.points.max(1) as f64,
                "cv",
            ),
        ]
    }
}

/// Run the fixed call sequence on a built system, timing each phase.
/// `at_mark` runs between `warmup` and `run`.
fn drive(
    build: impl FnOnce() -> System,
    at_mark: impl FnOnce(),
    w: &Workload,
) -> (Phases, SimResult, StatsRegistry, String) {
    let t0 = Instant::now();
    let mut sys = build();
    let t1 = Instant::now();
    sys.prewarm();
    let t2 = Instant::now();
    sys.warmup(w.warmup);
    at_mark();
    let t3 = Instant::now();
    sys.run(w.measure);
    let t4 = Instant::now();
    let result = sys.result();
    let reg = result.registry();
    let dump = reg.dump();
    let t5 = Instant::now();
    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let phases = Phases {
        setup: s(t0, t1),
        prewarm: s(t1, t2),
        warmup: s(t2, t3),
        run: s(t3, t4),
        result: s(t4, t5),
    };
    (phases, result, reg, dump)
}

fn finish(
    phases: Phases,
    result: &SimResult,
    reg: &StatsRegistry,
    dump: String,
    w: &Workload,
) -> PointRun {
    let cfg = &result.config;
    let mut problems = Vec::new();
    let fingerprint = fingerprint(
        reg,
        &fingerprint_keys(cfg.n_cores, cfg.n_banks),
        &mut problems,
    );
    for (i, c) in result.per_core.iter().enumerate() {
        if c.committed != w.measure {
            problems.push(format!(
                "cpu[{i}] committed {} of {}",
                c.committed, w.measure
            ));
        }
    }
    if result.hierarchy.l3_writes.get() != result.wear.total_writes() {
        problems.push("L3 writes differ from wear-tracked writes".to_owned());
    }
    PointRun {
        phases,
        fingerprint,
        dump,
        sim: SimCounts::of(result, reg),
        problems,
        layers: None,
    }
}

/// Run `point` of workload `w` under benchmark seed `seed`, untraced.
pub fn run(point: Point, w: &Workload, seed: u64) -> PointRun {
    let cfg = config();
    let (phases, result, reg, dump) = drive(
        || {
            let p = build_parts(point, &cfg, seed);
            System::new(cfg, p.policy, p.sources, p.predictors)
        },
        || {},
        w,
    );
    finish(phases, &result, &reg, dump, w)
}

fn wrap<T: ?Sized + Layer>(
    live: Vec<Box<T>>,
    shadow: Vec<Box<T>>,
    mark: &Mark,
    tracks: &mut Vec<TrackRef<T>>,
) -> Vec<Recorded<T>> {
    live.into_iter()
        .zip(shadow)
        .map(|(l, s)| {
            let (shim, track) = Recorded::new(l, s, mark);
            tracks.push(track);
            shim
        })
        .collect()
}

fn replay<T: ?Sized + Layer>(tracks: &[TrackRef<T>]) -> LayerReplay {
    let calls = tracks.iter().map(|tr| tr.borrow().calls() as u64).sum();
    let t = Instant::now();
    let hashes: Vec<u64> = tracks.iter().map(|tr| tr.borrow_mut().replay()).collect();
    let replay_s = t.elapsed().as_secs_f64();
    let mut out = LayerReplay {
        calls,
        replay_s,
        mismatches: 0,
    };
    for (tr, h) in tracks.iter().zip(hashes) {
        let tr = tr.borrow();
        out.mismatches += tr.mismatches() + u64::from(h != tr.recorded_hash());
    }
    out
}

/// Run `point` with every layer instance wrapped in a recording shim, then
/// replay each layer's measured-window calls against its shadow.
pub fn run_traced(point: Point, w: &Workload, seed: u64) -> PointRun {
    let cfg = config();
    let mark: Mark = Rc::new(Cell::new(false));
    let mut src_tracks = Vec::new();
    let mut pred_tracks = Vec::new();
    let mut policy_tracks = Vec::new();
    let (phases, result, reg, dump) = drive(
        || {
            let live = build_parts(point, &cfg, seed);
            let shadow = build_parts(point, &cfg, seed);
            let sources = wrap(live.sources, shadow.sources, &mark, &mut src_tracks)
                .into_iter()
                .map(|s| Box::new(s) as Box<dyn InstrSource>)
                .collect();
            let predictors = wrap(live.predictors, shadow.predictors, &mark, &mut pred_tracks)
                .into_iter()
                .map(|p| Box::new(p) as Box<dyn CriticalityPredictor>)
                .collect();
            let policy = wrap(
                vec![live.policy],
                vec![shadow.policy],
                &mark,
                &mut policy_tracks,
            )
            .pop()
            .map(|p| Box::new(p) as Box<dyn LlcPlacement>)
            .expect("one policy");
            System::new(cfg, policy, sources, predictors)
        },
        || mark.set(true),
        w,
    );
    let mut run = finish(phases, &result, &reg, dump, w);
    run.layers = Some([
        replay(&src_tracks),
        replay(&pred_tracks),
        replay(&policy_tracks),
    ]);
    run
}

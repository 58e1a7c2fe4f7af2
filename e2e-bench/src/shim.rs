//! Record/replay shims for the three trait objects the benchmark hands to
//! `System::new`: `InstrSource`, `CriticalityPredictor` and `LlcPlacement`.
//!
//! Per-call timer spans cost more than most calls they would wrap (an
//! `Instant::now()` pair is 60–75 ns; a CPT call replays in ~10 ns), so the
//! traced run never reads the clock per call. Instead each layer instance
//! is wrapped in a [`Recorded`] shim that owns the live instance and shares
//! a [`Track`] with the benchmark. The track holds a *shadow*: a second
//! fresh instance built by the same factory.
//!
//! * Before the mark (prewarm and warm-up) every call is mirrored onto the
//!   shadow and its result compared, so at the mark the shadow is in
//!   exactly the live instance's state — the untimed prefix replay.
//! * After the mark (`System::run`) every call is appended to the track's
//!   log and its result folded into the track's hash.
//!
//! [`Track::replay`] then runs the log against the shadow; the caller
//! times all instances of a layer with two clock reads, and the replayed
//! results must hash-equal the recorded ones.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use cmp_sim::cache::ReplacementKind;
use cmp_sim::placement::PredictorStats;
use cmp_sim::{AccessMeta, BankId, CriticalityPredictor, Cycle, Instr, InstrSource};
use cmp_sim::{LlcPlacement, Pc};

use crate::{fold, FNV_OFFSET};

/// The warm-up → run boundary, shared by every shim of one point.
pub type Mark = Rc<Cell<bool>>;

/// A layer whose calls can be logged and re-applied.
pub trait Layer {
    /// One logged call with its arguments.
    type Call: Copy;
    /// Apply `call` to this instance; return its result as a hash word.
    fn apply(&mut self, call: Self::Call) -> u64;
}

/// `InstrSource` calls that change the stream position.
#[derive(Clone, Copy, Debug)]
pub enum SourceCall {
    /// `next_instr()`.
    Next,
    /// `next_alu_run(max)`.
    AluRun(u32),
}

/// `CriticalityPredictor` calls.
#[derive(Clone, Copy, Debug)]
pub enum PredictorCall {
    /// `predict(pc)`.
    Predict(Pc),
    /// `on_rob_block(pc)`.
    RobBlock(Pc),
    /// `on_load_commit(pc, blocked)`.
    Commit(Pc, bool),
}

/// `LlcPlacement` calls made per L3 access.
#[derive(Clone, Copy, Debug)]
pub enum PolicyCall {
    /// `lookup_bank(meta)`.
    Lookup(AccessMeta),
    /// `fill_bank(meta)`.
    Fill(AccessMeta),
    /// `on_fill(meta, bank)`.
    OnFill(AccessMeta, BankId),
    /// `on_l3_write(bank)`.
    Write(BankId),
    /// `on_evict(line, bank)`.
    Evict(u64, BankId),
    /// `lookup_overhead()`.
    Overhead,
    /// `secondary_bank(meta)`.
    Secondary(AccessMeta),
}

fn instr_word(i: Instr) -> u64 {
    match i {
        Instr::Alu { latency } => u64::from(latency),
        Instr::Load { vaddr, pc } => fold(fold(1 << 62, vaddr), u64::from(pc)),
        Instr::Store { vaddr, pc } => fold(fold(2 << 62, vaddr), u64::from(pc)),
    }
}

fn bank_word(b: Option<BankId>) -> u64 {
    b.map_or(0, |b| b as u64 + 1)
}

impl Layer for dyn InstrSource {
    type Call = SourceCall;
    fn apply(&mut self, call: SourceCall) -> u64 {
        match call {
            SourceCall::Next => instr_word(self.next_instr()),
            SourceCall::AluRun(max) => u64::from(self.next_alu_run(max)),
        }
    }
}

impl Layer for dyn CriticalityPredictor {
    type Call = PredictorCall;
    fn apply(&mut self, call: PredictorCall) -> u64 {
        match call {
            PredictorCall::Predict(pc) => u64::from(self.predict(pc)),
            PredictorCall::RobBlock(pc) => {
                self.on_rob_block(pc);
                0
            }
            PredictorCall::Commit(pc, blocked) => {
                self.on_load_commit(pc, blocked);
                0
            }
        }
    }
}

impl Layer for dyn LlcPlacement {
    type Call = PolicyCall;
    fn apply(&mut self, call: PolicyCall) -> u64 {
        match call {
            PolicyCall::Lookup(m) => self.lookup_bank(&m) as u64,
            PolicyCall::Fill(m) => self.fill_bank(&m) as u64,
            PolicyCall::OnFill(m, b) => {
                self.on_fill(&m, b);
                0
            }
            PolicyCall::Write(b) => {
                self.on_l3_write(b);
                0
            }
            PolicyCall::Evict(line, b) => {
                self.on_evict(line, b);
                0
            }
            PolicyCall::Overhead => self.lookup_overhead(),
            PolicyCall::Secondary(m) => bank_word(self.secondary_bank(&m)),
        }
    }
}

/// What one shim shares with the benchmark: the shadow instance, the
/// measured-segment log, and the checks made on both.
pub struct Track<T: ?Sized + Layer> {
    shadow: Box<T>,
    calls: Vec<T::Call>,
    hash: u64,
    mismatches: u64,
}

/// The benchmark's handle on one shim's [`Track`].
pub type TrackRef<T> = Rc<RefCell<Track<T>>>;

impl<T: ?Sized + Layer> Track<T> {
    /// Calls logged after the mark.
    pub fn calls(&self) -> usize {
        self.calls.len()
    }

    /// Pre-mark calls whose shadow result differed from the live one.
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    /// Hash of the results the live instance returned after the mark.
    pub fn recorded_hash(&self) -> u64 {
        self.hash
    }

    /// Re-apply the logged calls to the shadow (which sits at the mark
    /// state) and return the hash of its results. The shadow advances, so
    /// a track replays meaningfully once.
    pub fn replay(&mut self) -> u64 {
        let shadow = &mut self.shadow;
        self.calls
            .iter()
            .fold(FNV_OFFSET, |h, &c| fold(h, shadow.apply(c)))
    }
}

/// A forwarding shim around one live layer instance.
pub struct Recorded<T: ?Sized + Layer> {
    live: Box<T>,
    track: TrackRef<T>,
    mark: Mark,
}

impl<T: ?Sized + Layer> Recorded<T> {
    /// Wrap `live`, mirroring onto `shadow` until `mark` is set. `shadow`
    /// must be a fresh instance built exactly like `live`.
    pub fn new(live: Box<T>, shadow: Box<T>, mark: &Mark) -> (Self, TrackRef<T>) {
        let track = Rc::new(RefCell::new(Track {
            shadow,
            calls: Vec::new(),
            hash: FNV_OFFSET,
            mismatches: 0,
        }));
        let shim = Recorded {
            live,
            track: Rc::clone(&track),
            mark: Rc::clone(mark),
        };
        (shim, track)
    }

    fn log(&self, call: T::Call, result: u64) {
        let mut t = self.track.borrow_mut();
        if self.mark.get() {
            t.calls.push(call);
            t.hash = fold(t.hash, result);
        } else if t.shadow.apply(call) != result {
            t.mismatches += 1;
        }
    }
}

impl InstrSource for Recorded<dyn InstrSource> {
    fn next_instr(&mut self) -> Instr {
        let i = self.live.next_instr();
        self.log(SourceCall::Next, instr_word(i));
        i
    }

    fn next_alu_run(&mut self, max: u32) -> u32 {
        let n = self.live.next_alu_run(max);
        self.log(SourceCall::AluRun(max), u64::from(n));
        n
    }

    fn label(&self) -> &str {
        self.live.label()
    }

    fn warm_ranges(&self) -> Vec<(u64, u64)> {
        self.live.warm_ranges()
    }
}

impl CriticalityPredictor for Recorded<dyn CriticalityPredictor> {
    fn predict(&mut self, pc: Pc) -> bool {
        let p = self.live.predict(pc);
        self.log(PredictorCall::Predict(pc), u64::from(p));
        p
    }

    fn on_rob_block(&mut self, pc: Pc) {
        self.live.on_rob_block(pc);
        self.log(PredictorCall::RobBlock(pc), 0);
    }

    fn on_load_commit(&mut self, pc: Pc, blocked: bool) {
        self.live.on_load_commit(pc, blocked);
        self.log(PredictorCall::Commit(pc, blocked), 0);
    }

    fn stats(&self) -> PredictorStats {
        self.live.stats()
    }
}

impl LlcPlacement for Recorded<dyn LlcPlacement> {
    fn name(&self) -> &'static str {
        self.live.name()
    }

    fn lookup_bank(&mut self, meta: &AccessMeta) -> BankId {
        let b = self.live.lookup_bank(meta);
        self.log(PolicyCall::Lookup(*meta), b as u64);
        b
    }

    fn fill_bank(&mut self, meta: &AccessMeta) -> BankId {
        let b = self.live.fill_bank(meta);
        self.log(PolicyCall::Fill(*meta), b as u64);
        b
    }

    fn on_fill(&mut self, meta: &AccessMeta, bank: BankId) {
        self.live.on_fill(meta, bank);
        self.log(PolicyCall::OnFill(*meta, bank), 0);
    }

    fn on_l3_write(&mut self, bank: BankId) {
        self.live.on_l3_write(bank);
        self.log(PolicyCall::Write(bank), 0);
    }

    fn on_evict(&mut self, line: u64, bank: BankId) {
        self.live.on_evict(line, bank);
        self.log(PolicyCall::Evict(line, bank), 0);
    }

    fn lookup_overhead(&self) -> Cycle {
        let c = self.live.lookup_overhead();
        self.log(PolicyCall::Overhead, c);
        c
    }

    fn secondary_bank(&mut self, meta: &AccessMeta) -> Option<BankId> {
        let b = self.live.secondary_bank(meta);
        self.log(PolicyCall::Secondary(*meta), bank_word(b));
        b
    }

    fn l3_replacement(&self) -> ReplacementKind {
        self.live.l3_replacement()
    }

    fn compression(&self) -> Option<compress::CompressSpec> {
        self.live.compression()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.live.as_any()
    }
}

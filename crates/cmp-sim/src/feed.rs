//! Instruction supply: the blocks each core dispatches from.
//!
//! A core never asks its [`InstrSource`] for one instruction at a time. It
//! walks a block of instructions with a cursor and, when the block runs
//! out, hands it to a [`BlockSupply`] for the next one. The system's
//! supply fills the blocks in one of two ways:
//!
//! * **Threaded.** When every source can [`fork`](InstrSource::fork) a
//!   `Send` copy of itself and the host has more than one CPU, one
//!   generator thread owns the copies. Each core keeps four blocks in
//!   circulation: the one it dispatches from and three spares. A refill
//!   queues the spent block for the thread and takes the oldest filled
//!   spare, so the simulating thread only simulates.
//! * **Inline.** Otherwise the core's source fills the block on the
//!   simulating thread.
//!
//! Both give the same instructions in the same order. The streams are
//! open-loop: nothing a simulated event does ever feeds back into a draw,
//! so *when* a block is drawn cannot change *what* it holds. Each core's
//! forked source, its spent blocks and its filled spares sit together in
//! one *lane* under one lock. Whoever holds the lane draws the core's next
//! block, and the core takes its filled spares oldest first, so every
//! core sees its stream exactly as inline filling would produce it.
//!
//! The simulating thread never waits for the generator: a core with no
//! filled spare draws its block from its lane's source itself, as the
//! inline path would. So a generator that falls behind, or shares its CPU
//! with other simulations, costs at most what inline filling costs.
//! Waking a parked thread is a system call, dearer than filling a block,
//! so the generator spins between requests while its CPU is otherwise
//! idle, and parks only when requests stop or another thread wants the
//! CPU. A parked generator is woken once a batch of spent blocks has
//! piled up.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::instr::{Instr, InstrSource};

/// Bytes of instruction blocks one system keeps in circulation.
const IN_FLIGHT_BYTES: usize = 256 << 10;

/// Blocks each core keeps in circulation under a generator thread: the
/// one it dispatches from and three spares.
const BLOCKS_PER_CORE: usize = 4;

/// Instructions per block for an `n_cores` system, so that
/// [`BLOCKS_PER_CORE`] blocks per core stay within [`IN_FLIGHT_BYTES`]
/// (256 at 16 cores).
pub(crate) fn block_len(n_cores: usize) -> usize {
    IN_FLIGHT_BYTES / (BLOCKS_PER_CORE * n_cores.max(1) * std::mem::size_of::<Instr>())
}

/// Where a core's next block of instructions comes from.
pub trait BlockSupply {
    /// Replace `block` with the next instructions of the core's stream.
    /// `block` arrives spent (its cursor at the end) and leaves holding at
    /// least one instruction.
    fn refill(&mut self, block: &mut Vec<Instr>);
}

/// Any source fills the block in place, up to its capacity. This is the
/// supertrait of [`InstrSource`], so a `&mut dyn InstrSource` is a supply
/// too.
impl<S: InstrSource + ?Sized> BlockSupply for S {
    fn refill(&mut self, block: &mut Vec<Instr>) {
        block.resize(block.capacity().max(1), Instr::Alu { latency: 1 });
        let n = self.fill(block);
        assert!(
            n > 0 && n <= block.len(),
            "{}: fill returned {n} for a block of {}",
            self.label(),
            block.len()
        );
        block.truncate(n);
    }
}

/// The system's instruction supply: the cores' sources, and the generator
/// thread when there is one.
pub(crate) struct Feed {
    /// The sources as passed in. Under a generator thread they never
    /// advance and only answer `label` and `warm_ranges`.
    sources: Vec<Box<dyn InstrSource>>,
    thread: Option<Generator>,
}

impl Feed {
    /// Take the cores' sources; spawn the generator thread when every
    /// source forks and the host has more than one CPU.
    pub(crate) fn new(sources: Vec<Box<dyn InstrSource>>) -> Self {
        let parallel = thread::available_parallelism().is_ok_and(|n| n.get() > 1);
        let thread = if parallel {
            let copies: Option<Vec<_>> = sources.iter().map(|s| s.fork()).collect();
            copies.map(Generator::spawn)
        } else {
            None
        };
        Feed { sources, thread }
    }

    /// Core `core`'s source (for its label and warm ranges).
    pub(crate) fn source(&self, core: usize) -> &dyn InstrSource {
        self.sources[core].as_ref()
    }

    /// The supply that refills core `core`'s blocks.
    pub(crate) fn core(&mut self, core: usize) -> &mut dyn BlockSupply {
        match &mut self.thread {
            Some(g) => &mut g.ports[core],
            None => self.sources[core].as_mut(),
        }
    }

    /// Whether a generator thread fills the blocks.
    pub(crate) fn threaded(&self) -> bool {
        self.thread.is_some()
    }
}

/// One core's share of the generator: its forked source, and its blocks
/// waiting to be filled or taken.
struct Lane {
    source: Box<dyn InstrSource + Send>,
    /// Spent blocks to refill, oldest first.
    pending: VecDeque<Vec<Instr>>,
    /// Filled blocks, oldest first.
    ready: VecDeque<Vec<Instr>>,
    /// The panic message of a `fill` that failed on the generator.
    failure: Option<String>,
}

/// What the simulating thread and the generator thread share.
struct Shared {
    lanes: Vec<Mutex<Lane>>,
    /// Spent blocks queued in all lanes.
    pending: AtomicUsize,
    /// The generator is parked on `work`, or about to park.
    parked: AtomicBool,
    /// The system has hung up.
    closed: AtomicBool,
    /// Held while the generator decides to park and by whoever wakes it,
    /// so a wake-up cannot slip in before the wait.
    park: Mutex<()>,
    /// The generator parks here until a batch of spent blocks has piled
    /// up or the system hangs up.
    work: Condvar,
}

/// Lock `m`, taking over a poisoned lock: a panic under these locks can
/// only come from a source's `fill`, which leaves the lane's queues whole.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The generator thread and one port per core.
struct Generator {
    ports: Vec<Port>,
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

/// One core's handle on the generator.
struct Port {
    core: usize,
    shared: Arc<Shared>,
    /// Queued spent blocks that wake a parked generator.
    batch: usize,
}

impl Generator {
    fn spawn(sources: Vec<Box<dyn InstrSource + Send>>) -> Self {
        let n = sources.len();
        let len = block_len(n);
        // Every core starts with an empty block of its own (its first
        // refill returns it) and its spares queued.
        let lanes = sources
            .into_iter()
            .map(|source| {
                let mut pending = VecDeque::with_capacity(BLOCKS_PER_CORE);
                pending.extend((1..BLOCKS_PER_CORE).map(|_| Vec::with_capacity(len)));
                Mutex::new(Lane {
                    source,
                    pending,
                    ready: VecDeque::with_capacity(BLOCKS_PER_CORE),
                    failure: None,
                })
            })
            .collect();
        let shared = Arc::new(Shared {
            lanes,
            pending: AtomicUsize::new(n * (BLOCKS_PER_CORE - 1)),
            parked: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            park: Mutex::new(()),
            work: Condvar::new(),
        });
        let theirs = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("instr-gen".into())
            .spawn(move || generate(&theirs))
            .expect("spawn the instruction generator thread");
        let ports = (0..n)
            .map(|core| Port {
                core,
                shared: Arc::clone(&shared),
                batch: (n / 2).max(1),
            })
            .collect();
        Generator {
            ports,
            shared,
            handle: Some(handle),
        }
    }
}

/// How long the generator spins for work before it parks. A running
/// system returns a spent block every few tens of microseconds, so its
/// generator stays awake and no refill pays for a wake-up.
const SPIN: Duration = Duration::from_micros(200);

/// A `yield_now` that takes this long means another thread wanted the
/// CPU: the generator stops spinning and parks.
const CONTENDED: Duration = Duration::from_micros(50);

/// Spin while `idle` holds, for up to [`SPIN`] and only while this CPU
/// has nothing else to run; whether `idle` stopped holding.
fn spin_while(idle: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        for _ in 0..64 {
            if !idle() {
                return true;
            }
            std::hint::spin_loop();
        }
        let now = Instant::now();
        if now - start > SPIN {
            return false;
        }
        thread::yield_now();
        if now.elapsed() > CONTENDED {
            return !idle();
        }
    }
}

/// The generator loop: refill the spent blocks of the lane with the
/// fewest filled spares, until the system hangs up or a source panics.
fn generate(shared: &Shared) {
    let idle =
        || shared.pending.load(Ordering::SeqCst) == 0 && !shared.closed.load(Ordering::SeqCst);
    loop {
        if idle() && !spin_while(idle) {
            let mut guard = lock(&shared.park);
            shared.parked.store(true, Ordering::SeqCst);
            // Re-check after announcing the park: a refill that queued a
            // block before it could see `parked` is counted here.
            while idle() {
                guard = shared
                    .work
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            shared.parked.store(false, Ordering::SeqCst);
        }
        if shared.closed.load(Ordering::SeqCst) {
            return;
        }
        let neediest = (0..shared.lanes.len())
            .filter_map(|c| {
                let lane = shared.lanes[c].try_lock().ok()?;
                (!lane.pending.is_empty()).then_some((lane.ready.len(), c))
            })
            .min();
        let Some((_, core)) = neediest else {
            // The lanes with spent blocks are held by the simulating
            // thread right now.
            thread::yield_now();
            continue;
        };
        let mut lane = lock(&shared.lanes[core]);
        let Some(mut block) = lane.pending.pop_front() else {
            continue;
        };
        shared.pending.fetch_sub(1, Ordering::SeqCst);
        let filled = panic::catch_unwind(AssertUnwindSafe(|| lane.source.refill(&mut block)));
        match filled {
            Ok(()) => lane.ready.push_back(block),
            Err(payload) => {
                lane.failure = Some(panic_message(payload.as_ref()));
                return;
            }
        }
    }
}

impl BlockSupply for Port {
    fn refill(&mut self, block: &mut Vec<Instr>) {
        let shared = &*self.shared;
        let mut lane = lock(&shared.lanes[self.core]);
        if let Some(msg) = lane.failure.clone() {
            drop(lane);
            panic!("instruction generator panicked: {msg}");
        }
        let Some(next) = lane.ready.pop_front() else {
            // No filled spare, and none being filled (that needs this
            // lock): the next block of the stream is drawn right here.
            lane.source.refill(block);
            return;
        };
        lane.pending.push_back(std::mem::replace(block, next));
        drop(lane);
        let queued = shared.pending.fetch_add(1, Ordering::SeqCst) + 1;
        if queued >= self.batch && shared.parked.load(Ordering::SeqCst) {
            let _guard = lock(&shared.park);
            shared.work.notify_one();
        }
    }
}

impl Drop for Generator {
    /// Hang up and join the thread, which stops before its next block.
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::SeqCst);
        let _guard = lock(&self.shared.park);
        self.shared.work.notify_one();
        drop(_guard);
        if let Some(handle) = self.handle.take() {
            // The thread catches its sources' panics, so the join cannot
            // fail.
            let _ = handle.join();
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

//! A from-scratch chip-multiprocessor (CMP) simulator substrate for the
//! Re-NUCA reproduction.
//!
//! The Re-NUCA paper (Kotra et al., IPDPS 2016) evaluates its placement
//! policy on gem5: 16 out-of-order cores, a three-level cache hierarchy with
//! a 16-bank NUCA ReRAM L3 connected by a 4×4 mesh, MESI coherence, and a
//! DDR3 memory system. None of that substrate exists as reusable Rust code,
//! so this crate builds it:
//!
//! * [`bank`] — the per-bank LLC service model: asymmetric ReRAM
//!   read/write latencies and data-array occupancy calendars, so slow
//!   writes delay later reads to the same bank,
//! * [`cache`] — set-associative caches with LRU replacement, write-back /
//!   write-allocate, per-slot fill reporting (the wear model needs to know
//!   the physical (set, way) every write lands in),
//! * [`coherence`] — MESI states and a home directory with inclusive-L3
//!   back-invalidation,
//! * [`noc`] — a 2-D mesh with XY routing, per-link serialization and
//!   contention accounting,
//! * [`dram`] — a DDR3-style memory system: channels, ranks, banks, open-page
//!   row-buffer policy and bandwidth/occupancy modelling,
//! * [`tlb`] — a set-associative TLB with pluggable per-entry payload (the
//!   Re-NUCA *Mapping Bit Vector* rides in that payload),
//! * [`table`] — the bounded open-addressed address→value table backing
//!   every per-access map (coherence directory, Naive directory, Enhanced
//!   TLB backing store, block-criticality tracker),
//! * [`cpu`] — a trace-driven out-of-order core: ROB with in-order commit,
//!   head-of-ROB stall detection (the signal the criticality predictor
//!   consumes), MSHR-limited memory-level parallelism,
//! * [`feed`] — instruction supply: the blocks cores dispatch from,
//!   filled inline or on a generator thread,
//! * [`hierarchy`] — the glue: L1 → L2 → NUCA L3 → DRAM access paths with a
//!   pluggable L3 placement policy,
//! * [`system`] — the full 16-core simulation loop and results.
//!
//! The *placement policy* and *criticality predictor* are traits
//! ([`placement::LlcPlacement`], [`placement::CriticalityPredictor`]); their
//! implementations — S-NUCA, R-NUCA, Private, the Naive oracle and Re-NUCA
//! itself — live in the `renuca-core` crate, which is the paper's actual
//! contribution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod cache;
pub mod coherence;
pub mod config;
pub mod cpu;
pub mod dram;
pub mod feed;
pub mod hierarchy;
pub mod instr;
pub mod noc;
pub mod placement;
pub mod reserve;
pub mod system;
pub mod table;
pub mod tlb;
pub mod types;

pub use cache::ReplacementKind;
pub use config::SystemConfig;
pub use instr::{Instr, InstrSource};
pub use placement::{AccessMeta, CriticalityPredictor, LlcAccessKind, LlcPlacement};
pub use system::{SimResult, System};
pub use table::FixedTable;
pub use types::{BankId, CoreId, Cycle, Pc};

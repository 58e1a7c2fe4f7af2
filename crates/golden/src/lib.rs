//! A deliberately naive golden reference model for differential testing.
//!
//! This crate re-implements, from the documented semantics, everything the
//! differential harness needs to second-guess the optimized simulator:
//!
//! * [`cache`] — a stamp-based set-associative cache using per-set `Vec`s and
//!   modulo indexing,
//! * [`policy`] — all seven LLC placement policies (S-NUCA, R-NUCA,
//!   Private, Naive, Re-NUCA, WEC, Coloring) with `BTreeMap` state instead
//!   of the open-addressed tables and hardware-shaped TLB of `renuca-core`,
//! * [`cpt`] — the Criticality Prediction Table,
//! * [`compress`] — the L2C2 size-class content model, sub-block masks and
//!   per-cell wear of a compressed data array,
//! * [`hierarchy`] — a [`GoldenSystem`] replaying the L1 → L2 → L3 → DRAM
//!   state machine of `cmp_sim::hierarchy::MemoryHierarchy` step by step,
//! * [`trace`] — a seeded workload-trace generator and the compact
//!   `renuca-trace-v1` text format the harness replays and shrinks.
//!
//! The only things consumed from `cmp-sim` are configuration/geometry types
//! (including the `ReplacementKind` tag of the L3 banks)
//! and the address-layout constants; every behavioural component is written
//! here independently, with zero optimization, so that a bug in the fast
//! path and a bug in the reference are unlikely to coincide.
//!
//! The comparison contract: for any replayed trace, the golden model and the
//! real hierarchy must agree on every fill/writeback placement event (core,
//! bank, line), every per-core and hierarchy-level counter, the per-bank and
//! per-slot wear histograms, the final MBV contents (Re-NUCA), and the Naive
//! oracle's directory size and write counters. `crates/experiments/src/diff.rs`
//! hosts the runner that enforces it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod compress;
pub mod cpt;
pub mod hierarchy;
pub mod policy;
pub mod trace;

pub use cache::GoldenCache;
pub use compress::{golden_size_class, golden_subblock_mask, GoldenCompress};
pub use cpt::GoldenCpt;
pub use hierarchy::{GoldenEvent, GoldenEventKind, GoldenSystem};
pub use policy::{GoldenPlacement, GoldenPolicy, GOLDEN_COLORING_EPOCH, GOLDEN_WEC_THRESHOLD};
pub use trace::{generate, parse_trace, trace_to_text, TraceOp, TraceSpec};

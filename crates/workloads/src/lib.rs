//! Synthetic SPEC CPU2006-like application models and the multiprogrammed
//! workload mixes of the Re-NUCA evaluation.
//!
//! The paper drives its 16-core CMP with SPEC CPU2006 reference runs
//! (2 B-instruction fast-forward + 100 M simulated per core). SPEC binaries
//! and reference inputs are not redistributable, and no gem5 checkpoints
//! exist here — so, per the reproduction's substitution rule, each
//! application is replaced by a **statistical model** that reproduces the
//! properties Re-NUCA actually consumes:
//!
//! * the last-level-cache write intensity (WPKI + MPKI, Table II) that
//!   drives bank wear,
//! * the L3 hit rate (capacity behaviour),
//! * the load criticality structure: how much memory-level parallelism
//!   surrounds each miss, which decides whether the miss blocks the head of
//!   the ROB (Figure 5's ~80% non-critical loads, Figure 8's ~50%
//!   non-critical fetched blocks),
//! * the per-PC loop structure the Criticality Predictor Table indexes.
//!
//! Each model ([`model::AppModel`]) mixes accesses over three regions —
//! a *hot* set (L1-resident), a *mid* set (L3-resident, misses L2: the
//! writeback/WPKI driver) and a *big* set (exceeds the L3: the miss/MPKI
//! driver, streaming or random) — with per-region store fractions, a
//! burstiness knob for MLP, and a deterministic PC pool per region. The 22
//! parameter sets live in [`spec::SPEC_TABLE`], one per Table II row. A
//! separate synthetic family ([`wburst`]) saturates the L3 bank service
//! model with escalating write pressure — not a Table II reproduction.
//!
//! Determinism: every model is seeded; the same (app, seed) pair generates
//! the identical instruction stream on every run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mixes;
pub mod model;
pub mod spec;
pub mod wburst;

pub use mixes::{is_workload_id, workload_ids, workload_mix, WorkloadMix, N_WORKLOADS};
pub use model::AppModel;
pub use spec::{app_by_name, AppSpec, WriteIntensity, SPEC_TABLE};
pub use wburst::{N_WBURST, TRICKLE_ID, WBURST_ID_BASE, WBURST_TABLE};

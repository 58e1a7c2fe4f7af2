//! Durable, resumable experiment campaigns over the Re-NUCA stack.
//!
//! The `experiments` crate gives one-shot binaries: run a figure, print
//! it, write a manifest. A *campaign* is the production counterpart — a
//! declared grid of hundreds of simulation jobs that must survive crashes,
//! spread across shards, and still produce one deterministic aggregate:
//!
//! 1. [`spec`] parses a hermetic `renuca-campaign-v1` text file into a
//!    job grid (CPT threshold × scheme × workload) with deterministic,
//!    host-independent job ids.
//! 2. [`scheduler`] executes pending jobs over
//!    [`experiments::pool::parallel_map_threads`], journalling every
//!    completion to an append-only, CRC-framed, fsync'd log ([`journal`]).
//!    `kill -9` at any byte leaves a prefix the next invocation trusts;
//!    resume is the same code path as a first run. Failing jobs get
//!    bounded retries with deterministic exponential backoff, then
//!    quarantine with the captured panic payload.
//! 3. [`report`] folds the per-job `renuca-manifest-v1` files into one
//!    `renuca-campaign-report-v1` document in grid order. The report is a
//!    pure function of spec + manifests: interrupted, resumed and sharded
//!    executions all render byte-identical bytes, and `verify` re-proves
//!    that from cold.
//!
//! The `campaign` binary wires these into `run | resume | status |
//! verify`; ready-made specs for the paper's figures live in
//! `campaigns/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hashes;
pub mod journal;
pub mod report;
pub mod scheduler;
pub mod spec;

pub use journal::{Journal, Record};
pub use report::{render, verify, VerifyReport, REPORT_SCHEMA};
pub use scheduler::{load_state, run, status, CampaignState, RunOptions, RunOutcome};
pub use spec::{CampaignSpec, Job, SPEC_SCHEMA};

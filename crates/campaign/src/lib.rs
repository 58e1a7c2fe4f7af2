//! Resumable experiment campaigns over the Re-NUCA stack.
//!
//! The `experiments` crate gives one-shot studies (`all <study>`): run a
//! figure, print it, write a manifest. A *campaign* is a declared grid of simulation
//! jobs that survives interruption and still produces one deterministic
//! aggregate:
//!
//! 1. [`spec`] parses a hermetic `renuca-campaign-v1` text file into a
//!    job grid (CPT threshold × scheme × workload) with deterministic,
//!    host-independent job ids.
//! 2. [`scheduler`] executes the jobs that have no manifest yet over
//!    [`experiments::pool::parallel_map_threads`]. Each job writes its
//!    `renuca-manifest-v1` atomically to `jobs/<id>.json`, and that file
//!    is the job's only completion record: `kill -9` at any point leaves
//!    whole manifests or none, and resume is the same code path as a
//!    first run.
//! 3. [`report`] folds the job manifests into one
//!    `renuca-campaign-report-v2` document in grid order. The report is a
//!    pure function of spec + manifests: interrupted and resumed runs
//!    render byte-identical bytes, and `verify` re-proves that from cold.
//!
//! The `campaign` binary wires these into `run | status | verify`;
//! ready-made specs for the paper's figures live in `campaigns/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod scheduler;
pub mod spec;

pub use report::{render, verify, REPORT_SCHEMA};
pub use scheduler::{run, status, RunOutcome};
pub use spec::{CampaignSpec, Job, SPEC_SCHEMA};

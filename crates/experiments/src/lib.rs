//! Experiment harness reproducing every table and figure of the Re-NUCA
//! paper's evaluation (§III and §V).
//!
//! Each experiment is a pure function from a configuration + instruction
//! budget to a typed result struct, plus a formatter that prints the same
//! rows/series the paper plots. The binaries in `src/bin/` are thin
//! wrappers.
//!
//! Every simulation goes through one path in [`runner`]: [`run_workload`]
//! for a multiprogrammed mix, [`run_app`] for one application alone on
//! the single-core S-NUCA machine with a CPT attached. Every per-scheme
//! lifetime/IPC aggregate is a [`SchemeStudy`], derived by
//! [`SchemeStudy::new`] alone; the campaign report builds the same one.
//!
//! | paper artifact | module | binary |
//! |---|---|---|
//! | Table I (config) | `cmp_sim::config` (defaults) | — |
//! | Table II (app characteristics) | [`figures::table2`] | `table2` |
//! | Figure 2 (WPKI+MPKI) | [`figures::table2`] | `fig2` |
//! | Figure 3 (baseline lifetimes) | [`figures::lifetime`] | `fig3` |
//! | Figure 4b (perf vs lifetime) | [`figures::lifetime`] | `fig4b` |
//! | Figure 5 (ROB stalls) | [`figures::criticality`] | `fig5` |
//! | Figures 7–9 (predictor study) | [`figures::predictor_study`] | `fig7`, `fig8`, `fig9` |
//! | Figure 11 (IPC) | [`figures::lifetime`] | `fig11` |
//! | Figure 12 (Re-NUCA wearout) | [`figures::lifetime`] | `fig12` |
//! | Figures 13–18 (sensitivity) | [`figures::sensitivity`] | `fig13` … `fig18` |
//! | Table III (raw min lifetimes) | [`figures::table3`] | `table3` |
//!
//! Instruction budgets scale with the environment variables
//! `RENUCA_MEASURE` and `RENUCA_WARMUP` (instructions per core); the
//! defaults keep a full figure regeneration tractable on one CPU while the
//! statistical workload models stay in their converged steady state.
//!
//! Every binary additionally accepts `--stats <path>` (or the
//! `RENUCA_STATS` environment variable) and then writes a JSON *run
//! manifest* — config echo, stats-registry snapshot, per-bank wear
//! heatmap — through the shared [`obs`] helper; the schema is documented
//! in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod diff;
pub mod figures;
pub mod forecast;
pub mod obs;
pub mod pool;
pub mod runner;

pub use budget::Budget;
pub use diff::{replay, ReplayReport};
pub use forecast::{forecast_study, forecast_workload, ForecastRow, ForecastStudy};
pub use obs::{Manifest, StatsSink};
pub use pool::{parallel_map, parallel_map_threads};
pub use runner::{run_app, run_workload, SchemeStudy};

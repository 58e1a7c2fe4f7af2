//! Campaign scheduler: expand the grid, skip every job whose manifest is
//! already on disk, execute the rest over the experiments thread pool, and
//! aggregate the report.
//!
//! A job's `renuca-manifest-v1` file, `jobs/<id>.json`, is its only
//! completion record. It is written atomically (temp file, fsync, rename),
//! so it is either absent or whole, and resume is the same code path as a
//! first run: redo every job without a valid manifest. A job panic
//! propagates out of the pool; the next `run` redoes what is missing.

use std::fs;
use std::path::{Path, PathBuf};

use experiments::obs::StatsSink;
use experiments::pool::parallel_map_threads;
use experiments::run_workload;
use experiments::runner::lifetime_model;
use renuca_core::CptConfig;
use workloads::workload_mix;

use crate::report::read_job;
use crate::spec::{CampaignSpec, Job};

/// The jobs of the grid that have no valid manifest yet, in grid order.
/// A manifest from another spec revision is an error.
fn pending(spec: &CampaignSpec, dir: &Path) -> Result<Vec<Job>, String> {
    let mut out = Vec::new();
    for job in spec.jobs() {
        if read_job(spec, dir, &job)?.is_err() {
            out.push(job);
        }
    }
    Ok(out)
}

/// Outcome of one [`run`] invocation.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Jobs executed by this invocation.
    pub executed: usize,
    /// Jobs whose manifests were already on disk.
    pub skipped: usize,
    /// Path of the campaign report.
    pub report: PathBuf,
}

/// Execute (or resume) a campaign on `threads` workers. Idempotent:
/// completed work is skipped, missing work is redone, and the report is
/// rewritten from the manifests.
pub fn run(spec: &CampaignSpec, dir: &Path, threads: usize) -> Result<RunOutcome, String> {
    let pending = pending(spec, dir)?;
    fs::create_dir_all(dir.join("jobs")).map_err(|e| format!("mkdir jobs: {e}"))?;
    parallel_map_threads(&pending, threads, |job| simulate_and_emit(spec, dir, job));

    let report = dir.join("report.json");
    let bytes = crate::report::render(spec, dir)?;
    experiments::obs::atomic_write(&report, &bytes)
        .map_err(|e| format!("write {}: {e}", report.display()))?;
    Ok(RunOutcome {
        executed: pending.len(),
        skipped: spec.jobs().len() - pending.len(),
        report,
    })
}

/// Simulate one grid cell and write its `renuca-manifest-v1` atomically.
fn simulate_and_emit(spec: &CampaignSpec, dir: &Path, job: &Job) {
    let cfg = spec.config;
    let wl = workload_mix(job.workload, cfg.n_cores);
    let cpt = CptConfig::with_threshold(job.threshold_pct);
    let r = run_workload(&wl, job.scheme, cfg, cpt, spec.budget);
    let lifetimes = lifetime_model(&cfg).all_bank_lifetimes(&r.wear, r.cycles);

    let sink = StatsSink::to(dir.join(job.manifest_rel(&spec.name)));
    sink.emit_with("campaign", &job.key(), Some(&cfg), spec.budget, |m| {
        let reg = m.stats_mut();
        reg.set("job.index", job.index as u64);
        reg.set("job.scheme", job.scheme.name());
        reg.set("job.workload", job.workload as u64);
        reg.set("job.threshold_pct", job.threshold_pct);
        reg.set("job.spec_fingerprint", format!("{:016x}", spec.fingerprint));
        reg.set("job.ipc", r.total_ipc());
        reg.set("wear.interset_cv", r.wear.interset_cv(cfg.l3_bank.assoc));
        reg.set("wear.intraset_cv", r.wear.intraset_cv(cfg.l3_bank.assoc));
        for (b, w) in r.bank_writes.iter().enumerate() {
            reg.set(format!("job.bank_writes[{b}]"), *w);
        }
        m.push_wear_row(&job.key(), &lifetimes);
    });
}

/// Progress summary for `campaign status`.
#[derive(Clone, Debug)]
pub struct StatusSummary {
    /// Total grid size.
    pub grid: usize,
    /// Jobs with a valid manifest.
    pub done: usize,
    /// Keys of the jobs still pending, in grid order: the cells the next
    /// `run` executes (a cell that keeps failing stays here).
    pub pending: Vec<String>,
    /// Whether `report.json` exists in the out dir.
    pub report_exists: bool,
}

/// Summarise a campaign's progress without executing anything.
pub fn status(spec: &CampaignSpec, dir: &Path) -> Result<StatusSummary, String> {
    let pending: Vec<String> = pending(spec, dir)?.iter().map(Job::key).collect();
    let grid = spec.jobs().len();
    Ok(StatusSummary {
        grid,
        done: grid - pending.len(),
        pending,
        report_exists: dir.join("report.json").exists(),
    })
}

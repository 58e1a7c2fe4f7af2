//! Campaign scheduler: expand the grid, skip what the journals already
//! prove done, execute the rest over the experiments thread pool, and
//! trigger aggregation once the whole grid is covered.
//!
//! The scheduler is crash-oblivious by construction: it never *updates*
//! state, it only appends fsync'd journal records and writes job manifests
//! atomically. Resume is therefore the same code path as a first run — load
//! whatever the journals prove, do the rest.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use experiments::obs::StatsSink;
use experiments::pool::parallel_map_threads;
use experiments::run_workload;
use experiments::runner::lifetime_model;
use renuca_core::CptConfig;
use workloads::workload_mix;

use crate::hashes::fnv1a64;
use crate::journal::{journal_files, read_journal, Journal, Record};
use crate::spec::{CampaignSpec, Job};

/// How one scheduler invocation should run.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// This invocation's shard (`0..shard_count`).
    pub shard_index: usize,
    /// Total shards splitting the grid (`job.index % shard_count`).
    pub shard_count: usize,
    /// Worker threads for the experiments pool.
    pub threads: usize,
    /// Stop scheduling new jobs after this many complete in *this*
    /// invocation (crash-injection hook for tests and the CI smoke; the
    /// report is not written when the stop triggers).
    pub max_jobs: Option<usize>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            shard_index: 0,
            shard_count: 1,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            max_jobs: None,
        }
    }
}

/// What the journals currently prove about a campaign.
#[derive(Clone, Debug, Default)]
pub struct CampaignState {
    /// Completed jobs: id → (manifest rel path, manifest fnv, key).
    pub done: Vec<(String, String, u64, String)>,
    /// Quarantined jobs: id → (attempts, last panic payload).
    pub quarantined: Vec<(String, u32, String)>,
    /// Total failed attempts recorded (all jobs, all invocations).
    pub failed_attempts: usize,
}

impl CampaignState {
    fn is_done(&self, id: &str) -> bool {
        self.done.iter().any(|(i, ..)| i == id)
    }

    fn is_quarantined(&self, id: &str) -> bool {
        self.quarantined.iter().any(|(i, ..)| i == id)
    }

    /// Look up a completed job's `(manifest rel path, fnv)`.
    pub fn manifest_of(&self, id: &str) -> Option<(&str, u64)> {
        self.done
            .iter()
            .find(|(i, ..)| i == id)
            .map(|(_, rel, fnv, _)| (rel.as_str(), *fnv))
    }

    /// Look up a quarantined job's `(attempts, payload)`.
    pub fn quarantine_of(&self, id: &str) -> Option<(u32, &str)> {
        self.quarantined
            .iter()
            .find(|(i, ..)| i == id)
            .map(|(_, attempts, payload)| (*attempts, payload.as_str()))
    }
}

/// Load campaign state by merging every `journal-*.log` in `dir`.
///
/// Every journal must open with a header matching `spec` (same name,
/// fingerprint, grid size and budget) — a mismatch means the spec changed
/// under a live campaign and is a hard error, not something to paper over.
/// A `done` record is trusted only if its manifest file still exists and
/// its bytes hash to the recorded FNV; otherwise the job is demoted back to
/// pending (the crash window between manifest rename and journal append).
pub fn load_state(spec: &CampaignSpec, dir: &Path) -> Result<CampaignState, String> {
    let mut state = CampaignState::default();
    for path in journal_files(dir).map_err(|e| format!("scan {}: {e}", dir.display()))? {
        let records = read_journal(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let mut records = records.into_iter();
        match records.next() {
            None => continue, // torn before the header: an empty journal
            Some(Record::Header {
                name,
                fingerprint,
                grid,
                warmup,
                measure,
            }) => {
                if name != spec.name
                    || fingerprint != spec.fingerprint
                    || grid != spec.jobs().len()
                    || warmup != spec.budget.warmup
                    || measure != spec.budget.measure
                {
                    return Err(format!(
                        "{}: journal belongs to a different campaign or spec revision \
                         (journal: name={name} fp={fingerprint:016x} grid={grid} \
                         warmup={warmup} measure={measure}; spec: name={} fp={:016x} \
                         grid={} warmup={} measure={})",
                        path.display(),
                        spec.name,
                        spec.fingerprint,
                        spec.jobs().len(),
                        spec.budget.warmup,
                        spec.budget.measure,
                    ));
                }
            }
            Some(other) => {
                return Err(format!(
                    "{}: first record is not a header: {other:?}",
                    path.display()
                ))
            }
        }
        for record in records {
            match record {
                Record::Header { .. } => {
                    return Err(format!("{}: duplicate header", path.display()))
                }
                Record::Done {
                    id,
                    manifest,
                    fnv,
                    key,
                } => {
                    if state.is_done(&id) {
                        continue; // another shard got there first
                    }
                    match fs::read(dir.join(&manifest)) {
                        Ok(bytes) if fnv1a64(&bytes) == fnv => {
                            state.done.push((id, manifest, fnv, key));
                        }
                        _ => {} // torn or missing manifest: job stays pending
                    }
                }
                Record::Fail { .. } => state.failed_attempts += 1,
                Record::Quarantine {
                    id,
                    attempts,
                    payload,
                } => {
                    if !state.is_quarantined(&id) {
                        state.quarantined.push((id, attempts, payload));
                    }
                }
            }
        }
    }
    Ok(state)
}

/// Outcome of one [`run`] invocation.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Jobs completed by this invocation.
    pub executed: usize,
    /// Jobs newly quarantined by this invocation.
    pub quarantined: usize,
    /// Jobs the journals already proved done or quarantined.
    pub skipped: usize,
    /// True when `max_jobs` stopped scheduling before the shard finished.
    pub stopped_early: bool,
    /// Path of the campaign report, written iff the *full* grid (all
    /// shards) is covered after this invocation.
    pub report: Option<PathBuf>,
}

enum JobResult {
    Done,
    Quarantined,
    NotScheduled,
}

/// Execute (or resume) a campaign shard. Idempotent: completed work is
/// skipped, interrupted work is redone, and the final report is written by
/// whichever invocation covers the last cell of the grid.
pub fn run(spec: &CampaignSpec, dir: &Path, opts: RunOptions) -> Result<RunOutcome, String> {
    assert!(
        opts.shard_count > 0 && opts.shard_index < opts.shard_count,
        "shard {}/{} out of range",
        opts.shard_index,
        opts.shard_count
    );
    let jobs = spec.jobs();
    let state = load_state(spec, dir)?;
    fs::create_dir_all(dir.join("jobs")).map_err(|e| format!("mkdir jobs: {e}"))?;

    let header = Record::Header {
        name: spec.name.clone(),
        fingerprint: spec.fingerprint,
        grid: jobs.len(),
        warmup: spec.budget.warmup,
        measure: spec.budget.measure,
    };
    let journal = Journal::open(dir, opts.shard_index, opts.shard_count, &header)
        .map_err(|e| format!("open journal: {e}"))?;
    let journal = Mutex::new(journal);

    let shard_jobs: Vec<&Job> = jobs
        .iter()
        .filter(|j| j.index % opts.shard_count == opts.shard_index)
        .collect();
    let pending: Vec<&Job> = shard_jobs
        .iter()
        .copied()
        .filter(|j| {
            let id = j.id(&spec.name);
            !state.is_done(&id) && !state.is_quarantined(&id)
        })
        .collect();
    let skipped = shard_jobs.len() - pending.len();

    let completed = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let results = parallel_map_threads(&pending, opts.threads, |job| {
        if stop.load(Ordering::SeqCst) {
            return JobResult::NotScheduled;
        }
        let result = execute_one(spec, dir, job, &journal);
        let finished = completed.fetch_add(1, Ordering::SeqCst) + 1;
        if opts.max_jobs.is_some_and(|k| finished >= k) {
            stop.store(true, Ordering::SeqCst);
        }
        result
    });

    let executed = results
        .iter()
        .filter(|r| matches!(r, JobResult::Done))
        .count();
    let quarantined = results
        .iter()
        .filter(|r| matches!(r, JobResult::Quarantined))
        .count();
    let stopped_early = results.iter().any(|r| matches!(r, JobResult::NotScheduled));

    let mut outcome = RunOutcome {
        executed,
        quarantined,
        skipped,
        stopped_early,
        report: None,
    };
    if stopped_early {
        // Simulated crash: leave the journal as-is, write no report.
        return Ok(outcome);
    }

    // Re-scan all journals: other shards may have finished the grid, or
    // this invocation may have been the last one standing.
    let merged = load_state(spec, dir)?;
    if (merged.done.len() + merged.quarantined.len()) >= jobs.len() {
        let report_path = dir.join("report.json");
        let bytes = crate::report::render(spec, dir, &merged)?;
        experiments::obs::atomic_write(&report_path, &bytes)
            .map_err(|e| format!("write {}: {e}", report_path.display()))?;
        outcome.report = Some(report_path);
    }
    Ok(outcome)
}

/// Run one job to completion or quarantine. Returns after appending the
/// final `done`/`quarantine` record for it.
fn execute_one(spec: &CampaignSpec, dir: &Path, job: &Job, journal: &Mutex<Journal>) -> JobResult {
    let id = job.id(&spec.name);
    let injected = spec.injected_failures(job.workload);
    let mut last_payload = String::new();
    for attempt in 1..=spec.max_attempts() {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert!(
                attempt > injected,
                "injected failure: wl={} attempt={attempt}",
                job.workload
            );
            simulate_and_emit(spec, dir, job)
        }));
        match outcome {
            Ok(fnv) => {
                let record = Record::Done {
                    id: id.clone(),
                    manifest: job.manifest_rel(&spec.name),
                    fnv,
                    key: job.key(),
                };
                journal
                    .lock()
                    .unwrap()
                    .append(&record)
                    .expect("journal append");
                return JobResult::Done;
            }
            Err(payload) => {
                last_payload = panic_text(payload.as_ref());
                let record = Record::Fail {
                    id: id.clone(),
                    attempt,
                    payload: last_payload.clone(),
                };
                journal
                    .lock()
                    .unwrap()
                    .append(&record)
                    .expect("journal append");
                if attempt < spec.max_attempts() {
                    // Deterministic exponential backoff, capped at 10 s;
                    // the doubling factor saturates once it passes 2^63.
                    let factor = 1u64.checked_shl(attempt - 1).unwrap_or(u64::MAX);
                    let ms = spec.backoff_ms.saturating_mul(factor).min(10_000);
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
            }
        }
    }
    let record = Record::Quarantine {
        id: id.clone(),
        attempts: spec.max_attempts(),
        payload: last_payload,
    };
    journal
        .lock()
        .unwrap()
        .append(&record)
        .expect("journal append");
    JobResult::Quarantined
}

/// Simulate one grid cell, write its `renuca-manifest-v1` atomically, and
/// return the FNV-1a fingerprint of the manifest bytes on disk.
fn simulate_and_emit(spec: &CampaignSpec, dir: &Path, job: &Job) -> u64 {
    let cfg = spec.config;
    let wl = workload_mix(job.workload, cfg.n_cores);
    let cpt = CptConfig::with_threshold(job.threshold_pct);
    let r = run_workload(&wl, job.scheme, cfg, cpt, spec.budget);
    let lifetimes = lifetime_model(&cfg).all_bank_lifetimes(&r.wear, r.cycles);

    let manifest_path = dir.join(job.manifest_rel(&spec.name));
    let sink = StatsSink::to(&manifest_path);
    sink.emit_with("campaign", &job.key(), Some(&cfg), spec.budget, |m| {
        let reg = m.stats_mut();
        reg.set("job.index", job.index as u64);
        reg.set("job.scheme", job.scheme.name());
        reg.set("job.workload", job.workload as u64);
        reg.set("job.threshold_pct", job.threshold_pct);
        reg.set("job.ipc", r.total_ipc());
        reg.set("wear.interset_cv", r.wear.interset_cv(cfg.l3_bank.assoc));
        reg.set("wear.intraset_cv", r.wear.intraset_cv(cfg.l3_bank.assoc));
        for (b, w) in r.bank_writes.iter().enumerate() {
            reg.set(format!("job.bank_writes[{b}]"), *w);
        }
        m.push_wear_row(&job.key(), &lifetimes);
    });
    let bytes = fs::read(&manifest_path).expect("read back emitted manifest");
    fnv1a64(&bytes)
}

/// Render a panic payload as text (the common `String` / `&str` payloads;
/// anything else gets a placeholder).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Human-readable progress summary for `campaign status`.
#[derive(Clone, Debug)]
pub struct StatusSummary {
    /// Total grid size.
    pub grid: usize,
    /// Jobs proven done.
    pub done: usize,
    /// Jobs quarantined, with `(id, key, attempts, payload)`. The id and
    /// full panic payload are surfaced so `campaign status` points
    /// straight at the failing cell.
    pub quarantined: Vec<(String, String, u32, String)>,
    /// Failed attempts recorded across all invocations.
    pub failed_attempts: usize,
    /// Whether `report.json` exists in the out dir.
    pub report_exists: bool,
}

/// Summarise journal state without executing anything.
pub fn status(spec: &CampaignSpec, dir: &Path) -> Result<StatusSummary, String> {
    let state = load_state(spec, dir)?;
    let jobs = spec.jobs();
    let mut quarantined = Vec::new();
    for job in &jobs {
        let id = job.id(&spec.name);
        if let Some((attempts, payload)) = state.quarantine_of(&id) {
            quarantined.push((id, job.key(), attempts, payload.to_string()));
        }
    }
    Ok(StatusSummary {
        grid: jobs.len(),
        done: state.done.len(),
        quarantined,
        failed_attempts: state.failed_attempts,
        report_exists: dir.join("report.json").exists(),
    })
}

/// Whether any journal exists for this campaign yet (drives the
/// `resume`-refuses-to-start-fresh CLI behaviour).
pub fn has_journal(dir: &Path) -> bool {
    journal_files(dir).map_or(false, |files| !files.is_empty())
}

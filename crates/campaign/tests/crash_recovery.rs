//! End-to-end durability tests for the campaign subsystem: resume from
//! every subset of completed job manifests, a leftover temp file from a
//! torn write, real SIGKILL of the `campaign` binary, spec-revision
//! refusal and corruption detection — all pinned to the invariant that
//! the final `report.json` is byte-identical to an uninterrupted run.

use std::fs;
use std::path::{Path, PathBuf};

use campaign::{report, scheduler, CampaignSpec};
use sim_stats::json::{parse, JsonValue};

/// Tiny but non-degenerate campaign: 1 threshold × 2 schemes × 2 mixes
/// on the 4-core machine = 4 jobs, under 0.1 s together. The budget wears
/// every bank and separates the two schemes (see
/// `report_separates_lifetimes_and_schemes`), so the byte-compares below
/// can see a fault in the lifetime aggregate or in scheme dispatch.
const SPEC: &str = "\
renuca-campaign-v1
name crashkit
config small 4
budget warmup=2000 measure=20000
schemes S-NUCA Re-NUCA
workloads 1 2
thresholds 25
";

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaign-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Run `spec` to completion in a fresh dir and return the report bytes.
fn baseline(spec: &CampaignSpec, dir: &Path) -> Vec<u8> {
    let outcome = scheduler::run(spec, dir, 2).unwrap();
    assert_eq!(outcome.executed, spec.jobs().len());
    fs::read(outcome.report).unwrap()
}

#[test]
fn uninterrupted_run_is_idempotent_and_verifiable() {
    let spec = CampaignSpec::parse(SPEC).unwrap();
    let dir = tmp("plain");
    let bytes = baseline(&spec, &dir);
    assert!(bytes.starts_with(b"{\"schema\":\"renuca-campaign-report-v2\""));
    assert_eq!(report::verify(&spec, &dir).unwrap(), 4);

    // A second run does no work and reproduces the same bytes.
    let again = scheduler::run(&spec, &dir, 2).unwrap();
    assert_eq!((again.executed, again.skipped), (0, 4));
    assert_eq!(fs::read(dir.join("report.json")).unwrap(), bytes);

    let s = scheduler::status(&spec, &dir).unwrap();
    assert_eq!((s.done, s.grid), (4, 4));
    assert!(s.pending.is_empty());
    assert!(s.report_exists);
    fs::remove_dir_all(&dir).unwrap();
}

/// At this budget no group's lifetime is the model's cap and the two
/// schemes report different IPC on every workload: a report of capped
/// constants or of one scheme twice would compare equal after any fault.
#[test]
fn report_separates_lifetimes_and_schemes() {
    let spec = CampaignSpec::parse(SPEC).unwrap();
    let dir = tmp("separates");
    let doc = parse(&String::from_utf8(baseline(&spec, &dir)).unwrap()).unwrap();
    let groups = doc.get("groups").and_then(JsonValue::as_array).unwrap();
    let cap = experiments::runner::lifetime_model(&cmp_sim::SystemConfig::small(4)).cap_years;
    let ipcs: Vec<Vec<f64>> = groups
        .iter()
        .map(|g| {
            let raw_min = g.get("raw_min_years").and_then(JsonValue::as_f64).unwrap();
            assert!(
                raw_min < cap,
                "raw_min_years {raw_min} is the {cap}-year cap"
            );
            let xs = g
                .get("per_workload_ipc")
                .and_then(JsonValue::as_array)
                .unwrap();
            xs.iter().map(|x| x.as_f64().unwrap()).collect()
        })
        .collect();
    assert_eq!(ipcs.len(), 2, "one group per scheme");
    for (w, (s, r)) in ipcs[0].iter().zip(&ipcs[1]).enumerate() {
        assert_ne!(
            s, r,
            "S-NUCA and Re-NUCA report the same IPC on workload {w}"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// The tentpole property: for each of the 16 subsets of the 4 job
/// manifests left on disk (report deleted), `run` executes exactly the
/// missing jobs and writes a report byte-identical to the uninterrupted
/// run. A temp file left by a write torn before its rename is ignored.
#[test]
fn resume_from_every_manifest_subset() {
    let spec = CampaignSpec::parse(SPEC).unwrap();
    let full_dir = tmp("subset-full");
    let expected = baseline(&spec, &full_dir);
    let jobs = spec.jobs();
    let manifests: Vec<(String, Vec<u8>)> = jobs
        .iter()
        .map(|j| {
            let rel = j.manifest_rel(&spec.name);
            let bytes = fs::read(full_dir.join(&rel)).unwrap();
            (rel, bytes)
        })
        .collect();

    let dir = tmp("subset");
    for mask in 0u32..1 << jobs.len() {
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("jobs")).unwrap();
        for (i, (rel, bytes)) in manifests.iter().enumerate() {
            if mask & (1 << i) != 0 {
                fs::write(dir.join(rel), bytes).unwrap();
            } else {
                // Half a manifest under the temp name `atomic_write` uses.
                let id = jobs[i].id(&spec.name);
                let torn = dir.join(format!("jobs/.{id}.json.tmp.4242"));
                fs::write(torn, &bytes[..bytes.len() / 2]).unwrap();
            }
        }
        let kept = mask.count_ones() as usize;
        let s = scheduler::status(&spec, &dir).unwrap();
        assert_eq!((s.done, s.pending.len()), (kept, jobs.len() - kept));
        assert!(!s.report_exists);

        let outcome = scheduler::run(&spec, &dir, 2)
            .unwrap_or_else(|e| panic!("resume from subset {mask:04b}: {e}"));
        assert_eq!(
            (outcome.executed, outcome.skipped),
            (jobs.len() - kept, kept),
            "subset {mask:04b}"
        );
        assert_eq!(
            fs::read(outcome.report).unwrap(),
            expected,
            "report differs after resume from subset {mask:04b}"
        );
        report::verify(&spec, &dir).unwrap();
    }
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&full_dir).unwrap();
}

/// Editing the spec or its budget under a live campaign is refused, not
/// papered over.
#[test]
fn spec_revision_mismatch_is_refused() {
    let spec = CampaignSpec::parse(SPEC).unwrap();
    let dir = tmp("fingerprint");
    baseline(&spec, &dir);
    let edited = CampaignSpec::parse(&SPEC.replace("measure=20000", "measure=20001")).unwrap();
    let err = scheduler::run(&edited, &dir, 1).unwrap_err();
    assert!(err.contains("different campaign or spec revision"), "{err}");
    let err = scheduler::status(&edited, &dir).unwrap_err();
    assert!(err.contains("different campaign or spec revision"), "{err}");
    // Same text, other budget: what a spec without a `budget` line gets
    // when `RENUCA_WARMUP` / `RENUCA_MEASURE` change between runs.
    let mut rebudgeted = spec.clone();
    rebudgeted.budget.warmup += 1;
    let err = scheduler::run(&rebudgeted, &dir, 1).unwrap_err();
    assert!(err.contains("different campaign or spec revision"), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

/// `verify` catches bit-rot in both job manifests and the final report.
#[test]
fn verify_detects_corruption() {
    let spec = CampaignSpec::parse(SPEC).unwrap();
    let dir = tmp("verify");
    baseline(&spec, &dir);

    let manifest = dir.join(spec.jobs()[0].manifest_rel(&spec.name));
    let good = fs::read(&manifest).unwrap();
    let mut bad = good.clone();
    *bad.last_mut().unwrap() ^= 1;
    fs::write(&manifest, &bad).unwrap();
    let err = report::verify(&spec, &dir).unwrap_err();
    assert!(err.contains("parse"), "{err}");
    fs::write(&manifest, &good).unwrap();

    let report_path = dir.join("report.json");
    let good_report = fs::read(&report_path).unwrap();
    fs::write(&report_path, b"{}\n").unwrap();
    let err = report::verify(&spec, &dir).unwrap_err();
    assert!(err.contains("re-aggregation"), "{err}");
    fs::write(&report_path, &good_report).unwrap();
    report::verify(&spec, &dir).unwrap();
    fs::remove_dir_all(&dir).unwrap();
}

/// Kill the real `campaign` binary with SIGKILL mid-run, `run` it again,
/// and the report must match an uninterrupted in-process run
/// byte-for-byte and pass `verify`.
#[test]
fn sigkill_mid_run_then_resume_binary() {
    use std::process::{Command, Stdio};

    let spec = CampaignSpec::parse(SPEC).unwrap();
    let full_dir = tmp("sigkill-full");
    let expected = baseline(&spec, &full_dir);

    let dir = tmp("sigkill");
    let spec_file = tmp("sigkill-spec").with_extension("campaign");
    fs::write(&spec_file, SPEC).unwrap();
    let campaign = |command: &str| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
        cmd.arg(command)
            .arg(&spec_file)
            .arg("--out")
            .arg(&dir)
            .env("RENUCA_THREADS", "1");
        cmd
    };

    let mut child = campaign("run")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // Land somewhere inside the run if we can; correctness must not depend
    // on where (or whether) the kill hits.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let _ = child.kill(); // SIGKILL on unix
    let _ = child.wait();

    let status = campaign("run").status().unwrap();
    assert!(status.success(), "resume failed: {status:?}");
    assert_eq!(fs::read(dir.join("report.json")).unwrap(), expected);

    let status = campaign("verify").status().unwrap();
    assert!(status.success(), "verify failed: {status:?}");
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&full_dir).unwrap();
    fs::remove_file(&spec_file).unwrap();
}

/// A malformed `RENUCA_THREADS` is an error naming the variable, exit 2,
/// before any job runs — the same rule as every experiment binary.
#[test]
fn malformed_thread_count_is_refused() {
    let dir = tmp("threads");
    let spec_file = tmp("threads-spec").with_extension("campaign");
    fs::write(&spec_file, SPEC).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_campaign"))
        .arg("run")
        .arg(&spec_file)
        .arg("--out")
        .arg(&dir)
        .env("RENUCA_THREADS", "0")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("RENUCA_THREADS"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!dir.join("jobs").exists(), "no job may run");
    fs::remove_file(&spec_file).unwrap();
}

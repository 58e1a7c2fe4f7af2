//! End-to-end durability tests for the campaign subsystem: journal
//! truncation at every boundary and mid-record, `--max-jobs` simulated
//! crashes, real SIGKILL of the `campaign` binary, shard merging, and
//! retry/quarantine behaviour — all pinned to the invariant that the
//! final `report.json` is byte-identical to an uninterrupted run.

use std::fs;
use std::path::{Path, PathBuf};

use campaign::scheduler::{self, RunOptions};
use campaign::{report, CampaignSpec};

/// Tiny but non-degenerate campaign: 1 threshold × 2 schemes × 2 mixes
/// on the 4-core machine = 4 jobs, each a few hundred instructions.
const SPEC: &str = "\
renuca-campaign-v1
name crashkit
config small 4
budget warmup=50 measure=300
schemes S-NUCA Re-NUCA
workloads 1 2
thresholds 25
retries 1
backoff-ms 1
";

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaign-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(threads: usize) -> RunOptions {
    RunOptions {
        threads,
        ..RunOptions::default()
    }
}

/// Run `spec` to completion in a fresh dir and return the report bytes.
fn baseline(spec: &CampaignSpec, dir: &Path) -> Vec<u8> {
    let outcome = scheduler::run(spec, dir, opts(2)).unwrap();
    assert!(!outcome.stopped_early);
    let path = outcome.report.expect("uninterrupted run writes the report");
    fs::read(path).unwrap()
}

#[test]
fn uninterrupted_run_is_idempotent_and_verifiable() {
    let spec = CampaignSpec::parse(SPEC).unwrap();
    let dir = tmp("plain");
    let bytes = baseline(&spec, &dir);
    assert!(bytes.starts_with(b"{\"schema\":\"renuca-campaign-report-v1\""));

    let v = report::verify(&spec, &dir).unwrap();
    assert_eq!(v.manifests_checked, 4);
    assert_eq!(v.quarantined, 0);

    // A second run does no work and reproduces the same bytes.
    let again = scheduler::run(&spec, &dir, opts(2)).unwrap();
    assert_eq!(again.executed, 0);
    assert_eq!(again.skipped, 4);
    assert_eq!(fs::read(dir.join("report.json")).unwrap(), bytes);

    let s = scheduler::status(&spec, &dir).unwrap();
    assert_eq!((s.done, s.grid), (4, 4));
    assert!(s.report_exists);
    fs::remove_dir_all(&dir).unwrap();
}

/// The tentpole property: truncate the journal at *every* record boundary
/// and in the middle of every record, resume, and the final aggregate is
/// byte-identical to the uninterrupted run.
#[test]
fn journal_truncation_resumes_to_identical_report() {
    let spec = CampaignSpec::parse(SPEC).unwrap();
    let full_dir = tmp("trunc-full");
    let expected = baseline(&spec, &full_dir);
    let journal_name = "journal-shard-0-of-1.log";
    let journal = fs::read(full_dir.join(journal_name)).unwrap();
    let manifests: Vec<(String, Vec<u8>)> = fs::read_dir(full_dir.join("jobs"))
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    assert_eq!(manifests.len(), 4);

    // Cut points: 0, every line boundary, and the midpoint of every line.
    let mut cuts = vec![0usize];
    let mut start = 0;
    for (i, b) in journal.iter().enumerate() {
        if *b == b'\n' {
            cuts.push(start + (i - start) / 2); // mid-record
            cuts.push(i + 1); // boundary
            start = i + 1;
        }
    }
    assert!(cuts.len() >= 10, "expected a multi-record journal");

    let dir = tmp("trunc-resume");
    for &cut in &cuts {
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("jobs")).unwrap();
        for (name, bytes) in &manifests {
            fs::write(dir.join("jobs").join(name), bytes).unwrap();
        }
        fs::write(dir.join(journal_name), &journal[..cut]).unwrap();

        let outcome = scheduler::run(&spec, &dir, opts(2))
            .unwrap_or_else(|e| panic!("resume after cut at byte {cut}: {e}"));
        let path = outcome.report.expect("resume completes the grid");
        assert_eq!(
            fs::read(path).unwrap(),
            expected,
            "report differs after truncation at byte {cut}"
        );
        report::verify(&spec, &dir).unwrap();
    }
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&full_dir).unwrap();
}

/// `--max-jobs` stops scheduling mid-campaign (no report), and the next
/// invocation finishes with byte-identical output.
#[test]
fn max_jobs_crash_then_resume() {
    let spec = CampaignSpec::parse(SPEC).unwrap();
    let full_dir = tmp("maxjobs-full");
    let expected = baseline(&spec, &full_dir);

    let dir = tmp("maxjobs");
    let crashed = scheduler::run(
        &spec,
        &dir,
        RunOptions {
            threads: 1,
            max_jobs: Some(1),
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert!(crashed.stopped_early);
    assert!(crashed.report.is_none());
    assert!(!dir.join("report.json").exists());
    assert_eq!(crashed.executed, 1);

    let resumed = scheduler::run(&spec, &dir, opts(2)).unwrap();
    assert_eq!(resumed.skipped, 1);
    assert_eq!(resumed.executed, 3);
    let path = resumed.report.expect("resume finishes the grid");
    assert_eq!(fs::read(path).unwrap(), expected);
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&full_dir).unwrap();
}

/// Shard 0/2 and 1/2 into the same out dir merge to exactly the report an
/// unsharded run produces.
#[test]
fn shards_merge_to_unsharded_report() {
    let spec = CampaignSpec::parse(SPEC).unwrap();
    let full_dir = tmp("shard-full");
    let expected = baseline(&spec, &full_dir);

    let dir = tmp("shard");
    let shard0 = scheduler::run(
        &spec,
        &dir,
        RunOptions {
            shard_index: 0,
            shard_count: 2,
            threads: 2,
            max_jobs: None,
        },
    )
    .unwrap();
    assert_eq!(shard0.executed, 2);
    assert!(shard0.report.is_none(), "half a grid is not a campaign");

    let shard1 = scheduler::run(
        &spec,
        &dir,
        RunOptions {
            shard_index: 1,
            shard_count: 2,
            threads: 2,
            max_jobs: None,
        },
    )
    .unwrap();
    assert_eq!(shard1.executed, 2);
    let path = shard1.report.expect("last shard writes the report");
    assert_eq!(fs::read(path).unwrap(), expected);
    report::verify(&spec, &dir).unwrap();
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&full_dir).unwrap();
}

/// Injected failures exercise retry (transient) and quarantine (sticky),
/// and a quarantined job surfaces in the report instead of wedging the
/// campaign.
#[test]
fn retries_recover_and_quarantine_reports() {
    let spec_text = format!("{SPEC}inject-fail 1 1\ninject-fail 2 5\n");
    let spec = CampaignSpec::parse(&spec_text).unwrap();
    let dir = tmp("quarantine");
    let outcome = scheduler::run(&spec, &dir, opts(2)).unwrap();
    // WL1 jobs fail once then succeed on retry; WL2 jobs exhaust their two
    // attempts and land in quarantine.
    assert_eq!(outcome.executed, 2);
    assert_eq!(outcome.quarantined, 2);
    let path = outcome.report.expect("quarantine still covers the grid");
    let text = fs::read_to_string(path).unwrap();
    assert!(text.contains("\"completed\":2"), "{text}");
    assert!(text.contains("\"missing_workloads\":[2]"), "{text}");
    assert!(text.contains("injected failure: wl=2"), "{text}");

    let s = scheduler::status(&spec, &dir).unwrap();
    assert_eq!(s.quarantined.len(), 2);
    // 2 WL1 retries + 2×2 WL2 attempts.
    assert_eq!(s.failed_attempts, 6);
    let v = report::verify(&spec, &dir).unwrap();
    assert_eq!((v.manifests_checked, v.quarantined), (2, 2));
    fs::remove_dir_all(&dir).unwrap();

    // More than 64 attempts: the backoff's doubling factor must saturate,
    // not overflow its shift, so the job still ends in quarantine.
    let spec_text = SPEC
        .replace("schemes S-NUCA Re-NUCA", "schemes S-NUCA")
        .replace("workloads 1 2", "workloads 1")
        .replace("retries 1", "retries 70")
        .replace("backoff-ms 1", "backoff-ms 0")
        + "inject-fail 1 1000\n";
    let spec = CampaignSpec::parse(&spec_text).unwrap();
    let dir = tmp("quarantine-many");
    let outcome = scheduler::run(&spec, &dir, opts(1)).unwrap();
    assert_eq!((outcome.executed, outcome.quarantined), (0, 1));
    let s = scheduler::status(&spec, &dir).unwrap();
    assert_eq!((s.quarantined.len(), s.failed_attempts), (1, 71));
    fs::remove_dir_all(&dir).unwrap();
}

/// Editing the spec under a live campaign is refused, not papered over.
#[test]
fn spec_revision_mismatch_is_refused() {
    let spec = CampaignSpec::parse(SPEC).unwrap();
    let dir = tmp("fingerprint");
    baseline(&spec, &dir);
    let edited = CampaignSpec::parse(&SPEC.replace("measure=300", "measure=301")).unwrap();
    let err = scheduler::run(&edited, &dir, opts(1)).unwrap_err();
    assert!(err.contains("different campaign or spec revision"), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

/// `verify` catches bit-rot in both job manifests and the final report.
#[test]
fn verify_detects_corruption() {
    let spec = CampaignSpec::parse(SPEC).unwrap();
    let dir = tmp("verify");
    baseline(&spec, &dir);

    let manifest = fs::read_dir(dir.join("jobs"))
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let good = fs::read(&manifest).unwrap();
    let mut bad = good.clone();
    *bad.last_mut().unwrap() ^= 1;
    fs::write(&manifest, &bad).unwrap();
    let err = report::verify(&spec, &dir).unwrap_err();
    assert!(err.contains("fingerprint"), "{err}");
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

/// Kill the real `campaign` binary with SIGKILL mid-run, resume it, and
/// the report must match an uninterrupted in-process run byte-for-byte.
#[test]
fn sigkill_mid_run_then_resume_binary() {
    use std::process::{Command, Stdio};

    let spec = CampaignSpec::parse(SPEC).unwrap();
    let full_dir = tmp("sigkill-full");
    let expected = baseline(&spec, &full_dir);

    let dir = tmp("sigkill");
    let spec_file = tmp("sigkill-spec").with_extension("campaign");
    fs::write(&spec_file, SPEC).unwrap();
    let bin = env!("CARGO_BIN_EXE_campaign");

    let mut child = Command::new(bin)
        .args(["run"])
        .arg(&spec_file)
        .arg("--out")
        .arg(&dir)
        .args(["--threads", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // Land somewhere inside the run if we can; correctness must not depend
    // on where (or whether) the kill hits.
    std::thread::sleep(std::time::Duration::from_millis(30));
    let _ = child.kill(); // SIGKILL on unix
    let _ = child.wait();

    let status = Command::new(bin)
        .args(["resume"])
        .arg(&spec_file)
        .arg("--out")
        .arg(&dir)
        .status()
        .unwrap();
    assert!(status.success(), "resume failed: {status:?}");
    assert_eq!(fs::read(dir.join("report.json")).unwrap(), expected);

    let status = Command::new(bin)
        .args(["verify"])
        .arg(&spec_file)
        .arg("--out")
        .arg(&dir)
        .status()
        .unwrap();
    assert!(status.success(), "verify failed: {status:?}");
    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&full_dir).unwrap();
    fs::remove_file(&spec_file).unwrap();
}

/// `resume` on an empty out dir is an error; `run` is the way to start.
#[test]
fn resume_refuses_fresh_out_dir() {
    use std::process::Command;
    let dir = tmp("resume-fresh");
    let spec_file = tmp("resume-fresh-spec").with_extension("campaign");
    fs::write(&spec_file, SPEC).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["resume"])
        .arg(&spec_file)
        .arg("--out")
        .arg(&dir)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("nothing to resume"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    fs::remove_file(&spec_file).unwrap();
}

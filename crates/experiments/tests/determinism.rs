//! Determinism regression: a figure run must produce a byte-identical
//! `renuca-manifest-v1` regardless of the worker-pool width. The check
//! runs the real `fig3` binary in subprocesses (one per thread count, each
//! with its own `RENUCA_THREADS`) so the comparison covers the whole
//! pipeline: workload models, all five schemes, stats registry and
//! manifest serialization.

use std::path::PathBuf;
use std::process::Command;

fn run_fig3(threads: &str, out: &PathBuf) {
    let status = Command::new(env!("CARGO_BIN_EXE_fig3"))
        .args(["--stats", out.to_str().unwrap()])
        .env("RENUCA_THREADS", threads)
        // A small budget keeps the full five-scheme study under a few
        // seconds while still exercising every simulator component.
        .env("RENUCA_WARMUP", "20000")
        .env("RENUCA_MEASURE", "10000")
        .status()
        .expect("spawn fig3");
    assert!(
        status.success(),
        "fig3 with RENUCA_THREADS={threads} failed"
    );
}

#[test]
fn fig3_manifest_is_identical_across_pool_widths() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let serial = dir.join("fig3-threads1.json");
    let pooled = dir.join("fig3-threads4.json");

    run_fig3("1", &serial);
    run_fig3("4", &pooled);

    let a = std::fs::read(&serial).unwrap();
    let b = std::fs::read(&pooled).unwrap();
    assert!(!a.is_empty(), "manifest must not be empty");
    if a != b {
        // Byte-level divergence: report the first differing line so the
        // failure names the counter, not just an offset.
        let (sa, sb) = (String::from_utf8_lossy(&a), String::from_utf8_lossy(&b));
        for (la, lb) in sa.lines().zip(sb.lines()) {
            assert_eq!(la, lb, "first differing manifest line");
        }
        panic!(
            "manifests differ in length: {} vs {} bytes",
            a.len(),
            b.len()
        );
    }
}

//! The `all` entry point's argument handling, driven as a user would: an
//! unknown study, a second study, an unknown flag or `--stats` without a
//! path is an input error that exits 2 with the study list before any
//! simulation starts.

use std::process::Command;

/// Every study name `all` accepts, as its usage message lists them.
const STUDIES: &str = "studies: table2 fig2 fig3 fig4b fig5 fig7 fig8 fig9 fig11 fig12 \
                       fig13 fig14 fig15 fig16 fig17 fig18 table3 ablations capacity \
                       headtohead wburst trickle forecast";

/// `all` with `args` at a budget small enough that a regression which
/// simulates stays cheap.
fn all(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_all"))
        .args(args)
        .env("RENUCA_WARMUP", "200")
        .env("RENUCA_MEASURE", "500")
        .env_remove("RENUCA_STATS")
        .output()
        .expect("spawn all")
}

#[test]
fn bad_arguments_exit_2_with_the_study_list_and_run_nothing() {
    for args in [
        &["fig99"][..],
        &["fig3", "fig11"][..],
        &["--stat", "x", "fig3"][..],
        &["wburst", "--trickle"][..],
        &["headtohead", "--stat", "x"][..],
        &["forecast", "extra"][..],
        &["--stats"][..],
    ] {
        let out = all(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains(STUDIES),
            "{args:?} must list the studies: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not simulate");
    }
}

#[test]
fn trickle_study_writes_its_manifest_and_does_not_queue() {
    let dir = std::env::temp_dir().join(format!("study_args_{}", std::process::id()));
    let manifest = dir.join("m.json");
    let out = all(&["trickle", "--stats", manifest.to_str().expect("utf-8 path")]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    let json = std::fs::read_to_string(&manifest).expect("trickle writes its manifest");
    std::fs::remove_dir_all(&dir).ok();
    assert!(json.contains("\"binary\":\"trickle\""), "{json}");
    assert!(json.contains("\"llc.queue_cycles_total\":0"), "{json}");
}

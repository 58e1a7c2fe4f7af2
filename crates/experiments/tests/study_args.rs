//! The `all` entry point, driven as a user would: an unknown study, a
//! repeated study, an unknown flag, `--stats` without a path or `--stats`
//! with two or more studies is an input error that exits 2 with the study
//! list before any simulation starts; several studies in one call print
//! what each prints alone, in order, also when they share grid points.

use std::process::Command;

/// Every study name `all` accepts, as its usage message lists them.
const STUDIES: &str = "studies: table2 fig2 fig3 fig4b fig5 fig7 fig8 fig9 fig11 fig12 \
                       fig13 fig14 fig15 fig16 fig17 fig18 table3 ablations capacity \
                       headtohead wburst trickle forecast";

/// `all` with `args` at a `warmup`+`measure` budget.
fn all_at(args: &[&str], warmup: &str, measure: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_all"))
        .args(args)
        .env("RENUCA_WARMUP", warmup)
        .env("RENUCA_MEASURE", measure)
        .env_remove("RENUCA_STATS")
        .output()
        .expect("spawn all")
}

/// `all` with `args` at a budget small enough that a regression which
/// simulates stays cheap.
fn all(args: &[&str]) -> std::process::Output {
    all_at(args, "200", "500")
}

#[test]
fn bad_arguments_exit_2_with_the_study_list_and_run_nothing() {
    for args in [
        &["fig99"][..],
        &["fig3", "fig3"][..],
        &["fig3", "fig11", "--stats", "x"][..],
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
fn several_studies_print_what_each_prints_alone() {
    let run = |args: &[&str]| {
        let out = all(args);
        (out.status.code(), out.stdout)
    };
    // `wburst` and `forecast` share grid points (Re-NUCA and Re-NUCA-C2
    // on WB1-WB4), which the second study reads instead of simulating. At
    // this budget the forecast gate fails, so the call exits 1 like
    // `forecast` alone.
    for pair in [["fig3", "fig11"], ["wburst", "forecast"]] {
        let (code_a, mut alone) = run(&pair[..1]);
        let (code_b, stdout_b) = run(&pair[1..]);
        alone.extend(stdout_b);
        let (code, together) = run(&pair);
        assert_eq!(
            String::from_utf8_lossy(&together),
            String::from_utf8_lossy(&alone),
            "{pair:?}"
        );
        assert_eq!(code, code_a.max(code_b), "{pair:?}");
    }
}

#[test]
fn trickle_study_writes_its_manifest_and_does_not_queue() {
    // At this budget the probe makes about 600 L3 fills, so a bank model
    // that queued them would show; at 200+500 it makes none.
    let dir = std::env::temp_dir().join(format!("study_args_{}", std::process::id()));
    let manifest = dir.join("m.json");
    let path = manifest.to_str().expect("utf-8 path");
    let out = all_at(&["trickle", "--stats", path], "200000", "1000000");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    let json = std::fs::read_to_string(&manifest).expect("trickle writes its manifest");
    std::fs::remove_dir_all(&dir).ok();
    assert!(json.contains("\"binary\":\"trickle\""), "{json}");
    assert!(json.contains("\"llc.queue_cycles_total\":0"), "{json}");
    let fills: u64 = json
        .split("\"l3_fills\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no l3_fills in {json}"));
    assert!(fills >= 500, "trickle made {fills} L3 fills");
}

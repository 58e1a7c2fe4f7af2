//! The `all` entry point's argument handling, driven as a user would: an
//! unknown study, a second study or an unknown flag is an input error that
//! exits 2 with the study list before any simulation starts.

use std::process::Command;

/// Every study name `all` accepts, as its usage message lists them.
const STUDIES: &str = "studies: table2 fig2 fig3 fig4b fig5 fig7 fig8 fig9 fig11 fig12 \
                       fig13 fig14 fig15 fig16 fig17 fig18 table3 ablations capacity";

#[test]
fn bad_arguments_exit_2_with_the_study_list_and_run_nothing() {
    for args in [
        &["fig99"][..],
        &["fig3", "fig11"][..],
        &["--stat", "x", "fig3"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_all"))
            .args(args)
            // Small enough that a regression which simulates stays cheap.
            .env("RENUCA_WARMUP", "200")
            .env("RENUCA_MEASURE", "500")
            .output()
            .expect("spawn all");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains(STUDIES),
            "{args:?} must list the studies: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not simulate");
    }
}

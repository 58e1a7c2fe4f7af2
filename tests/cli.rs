//! The `renuca` binary's argument handling, driven as a user would.

use std::process::{Command, Output};

fn renuca(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_renuca"))
        .args(args)
        .env("RENUCA_WARMUP", "200")
        .env("RENUCA_MEASURE", "500")
        .output()
        .expect("spawn renuca")
}

#[test]
fn unknown_workload_ids_exit_2_naming_the_valid_ids() {
    for args in [
        ["run", "--workload", "0"],
        ["schemes", "--workload", "11"],
        ["run", "--workload", "106"],
        ["run", "--workload", "WL1"],
    ] {
        let out = renuca(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(
            err.contains(&renuca::workloads::workload_ids()),
            "{args:?} must name the valid ids: {err}"
        );
    }
}

#[test]
fn a_valid_workload_id_runs() {
    for id in ["3", "102"] {
        let out = renuca(&["run", "--scheme", "snuca", "--workload", id]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--workload {id}: {err}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("IPC"));
    }
}

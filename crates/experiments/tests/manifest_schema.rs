//! Run-manifest schema conformance and registry-snapshot stability.
//!
//! The manifest schema (`renuca-manifest-v1`) is documented in
//! EXPERIMENTS.md ("Observability: run manifests") with a committed example
//! at `docs/manifest.example.json`. These tests pin the documented shape:
//! top-level key order, budget echo, per-scheme stats paths, heatmap rows —
//! and that the committed example still matches the same skeleton.

use cmp_sim::SystemConfig;
use experiments::figures::lifetime;
use experiments::obs::{self, Manifest, MANIFEST_KEYS, MANIFEST_SCHEMA};
use experiments::runner::Points;
use experiments::{run_workload, Budget};
use renuca_core::{CptConfig, Scheme};

/// Assert every documented top-level key appears, in documented order.
fn assert_key_skeleton(json: &str, what: &str) {
    let mut pos = 0;
    for key in MANIFEST_KEYS {
        let needle = format!("\"{key}\":");
        match json[pos..].find(&needle) {
            Some(at) => pos += at + needle.len(),
            None => panic!("{what}: key {key:?} missing or out of order (after byte {pos})"),
        }
    }
}

#[test]
fn fixed_seed_fig3_manifest_matches_documented_schema() {
    let cfg = SystemConfig::default();
    let budget = Budget::test();
    let study = lifetime::run(&Points::default(), "Actual Results", cfg, budget);
    let mut m = Manifest::new("fig3", study.label, Some(&cfg), budget);
    obs::register_study(&mut m, &study);
    let json = m.to_json();

    assert!(
        json.starts_with(&format!("{{\"schema\":\"{MANIFEST_SCHEMA}\"")),
        "manifest must lead with the schema id"
    );
    assert_key_skeleton(&json, "generated manifest");
    assert!(json.contains("\"budget\":{\"warmup\":2000,\"measure\":10000}"));
    // Config echo present and non-null for a single-config run.
    assert!(json.contains("\"config.n_cores\":16"));
    // Every scheme's headline metrics under its documented dotted path.
    for s in Scheme::ALL {
        for leaf in [
            "raw_min_years",
            "hmean_lifetime_years",
            "variation",
            "mean_ipc",
        ] {
            let key = format!("\"scheme.{}.{leaf}\":", s.name());
            assert!(json.contains(&key), "missing stats key {key}");
        }
    }
    // One heatmap row per scheme, 16 banks each (16 comma-separated values).
    assert!(json.contains("\"unit\":\"years\""));
    assert_eq!(
        json.matches("\"per_bank\":[").count(),
        Scheme::ALL.len(),
        "one wear row per scheme"
    );

    // Determinism: rebuilding the manifest from the same study is
    // byte-identical (key order is part of the schema).
    let mut m2 = Manifest::new("fig3", study.label, Some(&cfg), budget);
    obs::register_study(&mut m2, &study);
    assert_eq!(json, m2.to_json());
}

#[test]
fn committed_example_manifest_matches_skeleton() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/manifest.example.json"
    );
    let example = std::fs::read_to_string(path).expect("committed example manifest exists");
    assert!(example.starts_with(&format!("{{\"schema\":\"{MANIFEST_SCHEMA}\"")));
    assert_key_skeleton(&example, "docs/manifest.example.json");
    assert!(example.contains("\"binary\":\"fig3\""));
    // Recorded at the fixed test budget, as EXPERIMENTS.md states.
    assert!(example.contains("\"budget\":{\"warmup\":2000,\"measure\":10000}"));
}

#[test]
fn registry_snapshot_key_order_is_stable_across_runs() {
    let cfg = SystemConfig::default();
    let wl = workloads::workload_mix(1, cfg.n_cores);
    let budget = Budget::test();
    let run = || {
        run_workload(&wl, Scheme::ReNuca, cfg, CptConfig::default(), budget)
            .registry()
            .to_json()
    };
    let a = run();
    assert!(a.contains("\"system.cycles\":"));
    assert!(a.contains("\"wear.bank[15].min_endurance_frac\":"));
    assert_eq!(a, run(), "identical runs must serialize byte-identically");
}

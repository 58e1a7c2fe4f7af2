//! Differential-harness integration tests: a bounded seeded corpus, the
//! metamorphic invariants, and the mutation self-check (an injected
//! placement bug must be caught and shrunk to a 1-minimal trace).
//!
//! The full acceptance sweep (100 seeds × 9 schemes × 2 configs = 1800
//! traces) runs through `cargo run --release -p experiments --bin
//! diffcheck`; these tests keep a smaller always-on corpus in `cargo test`.

use std::path::PathBuf;

use cmp_sim::hierarchy::MemoryHierarchy;
use experiments::diff;
use golden::{generate, parse_trace, TraceSpec};
use renuca_core::Scheme;

fn tmp_out() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("diff-harness")
}

#[test]
fn bounded_corpus_has_no_mismatches() {
    let report = diff::run_corpus(0..3, 1500, &tmp_out());
    assert_eq!(report.replays, 3 * Scheme::ALL.len() * 2);
    assert!(
        report.failures.is_empty(),
        "differential mismatches: {:?}",
        report.failures
    );
}

#[test]
fn every_scheme_survives_a_long_trace() {
    // One deeper run per scheme on the non-pow2 mesh, the geometry most
    // likely to expose masking bugs.
    let cfg = diff::tiny_cfg(3, 2);
    let ops = generate(&TraceSpec::new(97, 3, 2, 6000));
    for scheme in Scheme::ALL {
        diff::replay(scheme, &cfg, &ops)
            .unwrap_or_else(|m| panic!("{} diverged: {m}", scheme.name()));
    }
}

#[test]
fn injected_placement_bug_is_caught_and_shrunk() {
    let out = tmp_out();
    let report =
        diff::mutation_check(Scheme::SNuca, 42, 3000, &out).expect("mutation check must pass");
    assert!(report.minimal_len >= 1);
    assert!(
        report.minimal_len <= 5,
        "ddmin left {} ops — a single mutated fill should suffice",
        report.minimal_len
    );
    assert!(report.trace_path.exists());
    let name = report
        .trace_path
        .file_name()
        .unwrap()
        .to_string_lossy()
        .into_owned();
    assert!(
        name.contains("seed42"),
        "seed must be embedded in the reproducer filename, got {name}"
    );

    // The serialized reproducer round-trips and still reproduces the
    // divergence under the injected bug (and only under it).
    let text = std::fs::read_to_string(&report.trace_path).unwrap();
    let (scheme, cols, rows, seed, ops) =
        parse_trace(&text, Scheme::from_name).expect("valid trace file");
    assert_eq!((scheme, cols, rows, seed), (Scheme::SNuca, 2, 2, 42));
    assert_eq!(ops.len(), report.minimal_len);
    let cfg = diff::tiny_cfg(cols, rows);
    assert!(diff::replay_mutated(Scheme::SNuca, &cfg, &ops).is_err());
    assert!(diff::replay(Scheme::SNuca, &cfg, &ops).is_ok());
}

#[test]
fn injected_bugs_in_competitor_schemes_are_caught() {
    // Every mutation scheme's injected bug (wrapped mis-placement, skewed
    // WEC redirect, off-by-one Coloring epoch, write-aware replacement
    // dropped, another compression content seed) must be caught and
    // shrunk to a 1-minimal trace (mutation_check itself verifies
    // 1-minimality op by op). A directory of its own keeps the S-NUCA
    // reproducer apart from the test above.
    let out = tmp_out().join("mutation-schemes");
    for scheme in diff::MUTATION_SCHEMES {
        let report = diff::mutation_check(scheme, 42, 2000, &out)
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
        assert!(report.minimal_len >= 1);
        assert!(report.trace_path.exists());
        // The reproducer round-trips and diverges only under the bug.
        let text = std::fs::read_to_string(&report.trace_path).unwrap();
        let (parsed, cols, rows, _seed, ops) =
            parse_trace(&text, Scheme::from_name).expect("valid trace file");
        assert_eq!(parsed, scheme);
        let cfg = diff::tiny_cfg(cols, rows);
        assert!(diff::replay_mutated(scheme, &cfg, &ops).is_err());
        assert!(diff::replay(scheme, &cfg, &ops).is_ok());
    }
}

#[test]
fn real_and_golden_get_the_same_bank_parts() {
    // Both sides are built from one `Parts`: the real hierarchy learns its
    // bank parts through the policy's hooks, the golden system takes them
    // from the harness. Every preset must end up with the same L3 victim
    // selection and the same compressed-array geometry and seed on both.
    for (label, cfg) in diff::harness_configs() {
        for scheme in Scheme::ALL {
            let parts = scheme.parts(&cfg);
            let h = MemoryHierarchy::new(&cfg, scheme.build_policy(&cfg));
            let g = diff::golden_system(&parts, &cfg);
            assert_eq!(h.l3_replacement(), parts.replacement, "{scheme} {label}");
            assert_eq!(g.l3_replacement(), parts.replacement, "{scheme} {label}");
            assert_eq!(h.compression_spec(), parts.compression, "{scheme} {label}");
            assert_eq!(
                h.compression_spec().map(|c| (c.sub_blocks, c.seed)),
                g.compress.as_ref().map(|c| (c.sub_blocks, c.seed)),
                "{scheme} {label}"
            );
        }
    }
}

#[test]
fn metamorphic_write_conservation_holds() {
    diff::write_conservation(2, 2, 7, 1500).unwrap();
    diff::write_conservation(3, 2, 8, 1500).unwrap();
}

#[test]
fn metamorphic_snuca_shift_symmetry_holds() {
    diff::snuca_shift_symmetry(2, 2, 9, 1500).unwrap();
    diff::snuca_shift_symmetry(3, 2, 10, 1500).unwrap();
}

#[test]
fn metamorphic_parallel_matches_serial() {
    diff::parallel_matches_serial(&[1, 2, 3, 4], 4, 1000).unwrap();
}

//! Seeded fuzz loop for the `renuca-campaign-v1` spec parser.
//!
//! Every committed spec under `campaigns/` is mangled line- and word-wise
//! (drop, duplicate, swap, insert directives, replace numbers with edge
//! values and non-numbers). Whatever comes out, `CampaignSpec::parse`
//! must return `Ok` or a typed `Err` — never panic — and every spec it
//! accepts must be one the scheduler can actually run: the grid expands,
//! its job ids are pairwise distinct (each names one manifest), and each
//! CPT threshold builds a predictor.

use std::panic::{catch_unwind, AssertUnwindSafe};

use campaign::spec::OVERRIDES;
use campaign::CampaignSpec;
use renuca_core::{Cpt, CptConfig};

const CORPUS: [&str; 5] = [
    include_str!("../../../campaigns/compress.campaign"),
    include_str!("../../../campaigns/fig3.campaign"),
    include_str!("../../../campaigns/headtohead.campaign"),
    include_str!("../../../campaigns/wburst.campaign"),
    include_str!("../../../campaigns/xpct.campaign"),
];

/// What a number in the spec may be replaced with: small and boundary
/// integers, and words that are not numbers at all.
const NUMBERS: [&str; 8] = [
    "0",
    "1",
    "4294967295",
    "18446744073709551615",
    "abc",
    "-1",
    "2.5",
    "1e3",
];

/// Directives the mutator may insert, so `set` overrides, budgets and
/// configs are fuzzed too although the committed specs rarely use them.
const INSERTS: [&str; 5] = [
    "budget warmup=1000 measure=2000",
    "config small 4",
    "config mesh 3 2",
    "thresholds 3 25",
    "thresholds 3 3.0",
];

/// Tiny deterministic generator (xorshift64*) so the fuzz loop needs no
/// dev-dependency and reproduces exactly across runs.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Replace one maximal run of ASCII digits in `word` with a pick from
/// [`NUMBERS`] (`1..10` → `1..4294967295`, `measure=300000` →
/// `measure=abc`). Words without digits are returned unchanged.
fn replace_number(gen: &mut Gen, word: &str) -> String {
    let bytes = word.as_bytes();
    let runs: Vec<(usize, usize)> = (0..bytes.len())
        .filter(|&i| bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit()))
        .map(|start| {
            let len = bytes[start..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count();
            (start, start + len)
        })
        .collect();
    if runs.is_empty() {
        return word.to_string();
    }
    let (start, end) = runs[gen.below(runs.len())];
    format!(
        "{}{}{}",
        &word[..start],
        NUMBERS[gen.below(NUMBERS.len())],
        &word[end..]
    )
}

/// Apply one random mutation to the spec's lines.
fn mutate(gen: &mut Gen, lines: &mut Vec<Vec<String>>) {
    if lines.is_empty() {
        return;
    }
    let i = gen.below(lines.len());
    let j = gen.below(lines.len());
    match gen.below(8) {
        0 => {
            lines.remove(i);
        }
        1 => {
            let line = lines[i].clone();
            lines.insert(j, line);
        }
        2 => lines.swap(i, j),
        3 => {
            let line = if gen.below(2) == 0 {
                format!("set {} 1", OVERRIDES[gen.below(OVERRIDES.len())])
            } else {
                INSERTS[gen.below(INSERTS.len())].to_string()
            };
            lines.insert(j, line.split(' ').map(str::to_string).collect());
        }
        4 if !lines[i].is_empty() => {
            let w = gen.below(lines[i].len());
            lines[i].remove(w);
        }
        5 if !lines[i].is_empty() => {
            let w = gen.below(lines[i].len());
            let word = lines[i][w].clone();
            lines[i].insert(w, word);
        }
        6 if !lines[i].is_empty() => {
            let a = gen.below(lines[i].len());
            let b = gen.below(lines[i].len());
            lines[i].swap(a, b);
        }
        _ => {
            for word in lines[i].iter_mut() {
                if gen.below(2) == 0 {
                    *word = replace_number(gen, word);
                }
            }
        }
    }
}

#[test]
fn mutated_specs_parse_to_runnable_grids_or_typed_errors() {
    let mut gen = Gen(0x5eed_c0ff_ee00_f00d);
    let (mut accepted, mut rejected) = (0, 0);
    for trial in 0..20_000 {
        let base = CORPUS[trial % CORPUS.len()];
        let mut lines: Vec<Vec<String>> = base
            .lines()
            .map(|l| l.split_whitespace().map(str::to_string).collect())
            .collect();
        for _ in 0..1 + gen.below(4) {
            mutate(&mut gen, &mut lines);
        }
        let text: String = lines.iter().map(|l| l.join(" ") + "\n").collect();

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let spec = CampaignSpec::parse(&text)?;
            let jobs = spec.jobs();
            assert_eq!(
                jobs.len(),
                spec.thresholds.len() * spec.schemes.len() * spec.workloads.len()
            );
            let mut ids: Vec<String> = jobs.iter().map(|j| j.id(&spec.name)).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), jobs.len(), "two jobs share one manifest");
            for &t in &spec.thresholds {
                Cpt::new(CptConfig::with_threshold(t));
            }
            Ok::<_, String>(())
        }));
        match outcome {
            Ok(Ok(())) => accepted += 1,
            Ok(Err(e)) => {
                assert!(!e.is_empty(), "empty error for spec:\n{text}");
                rejected += 1;
            }
            Err(_) => panic!("trial {trial}: spec panicked the parser or its grid:\n{text}"),
        }
    }
    // The mutator must exercise both sides of the parser.
    assert!(
        accepted > 1_000 && rejected > 1_000,
        "{accepted} accepted, {rejected} rejected"
    );
}

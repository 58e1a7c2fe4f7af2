//! Property-based tests for the statistics primitives, driven by seeded
//! `sim-rng` generator loops (hermetic replacement for proptest — the
//! cases are deterministic, so a failure reproduces on every run).

use std::panic::{catch_unwind, AssertUnwindSafe};

use sim_rng::SimRng;
use sim_stats::{amean, hmean, json, min_f64, Histogram};

const CASES: usize = 64;

fn f64_vec(rng: &mut SimRng, len: std::ops::Range<usize>, lo: f64, hi: f64) -> Vec<f64> {
    let n = rng.gen_range_usize(len);
    (0..n).map(|_| rng.gen_f64_range(lo, hi)).collect()
}

fn u64_vec(rng: &mut SimRng, len: std::ops::Range<usize>, bound: u64) -> Vec<u64> {
    let n = rng.gen_range_usize(len);
    (0..n).map(|_| rng.gen_bounded(bound)).collect()
}

/// The classic mean inequality (HM ≤ AM) holds for any positive series.
#[test]
fn am_gm_hm_inequality() {
    let mut rng = SimRng::seed_from_u64(0x51A7_0001);
    for case in 0..CASES {
        let xs = f64_vec(&mut rng, 1..64, 0.001, 1e6);
        let h = hmean(&xs);
        let a = amean(&xs);
        assert!(h <= a * (1.0 + 1e-9), "case {case}: HM {h} > AM {a}");
    }
}

/// All means lie between min and max.
#[test]
fn means_bounded_by_extremes() {
    let mut rng = SimRng::seed_from_u64(0x51A7_0002);
    for case in 0..CASES {
        let xs = f64_vec(&mut rng, 1..64, 0.001, 1e6);
        let lo = min_f64(&xs).unwrap();
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for m in [hmean(&xs), amean(&xs)] {
            assert!(
                m >= lo * (1.0 - 1e-9) && m <= hi * (1.0 + 1e-9),
                "case {case}: {m} outside [{lo}, {hi}]"
            );
        }
    }
}

/// Scaling the series scales every mean linearly.
#[test]
fn means_are_homogeneous() {
    let mut rng = SimRng::seed_from_u64(0x51A7_0003);
    for case in 0..CASES {
        let xs = f64_vec(&mut rng, 1..32, 0.01, 1e4);
        let k = rng.gen_f64_range(0.01, 100.0);
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        assert!(
            (amean(&scaled) - k * amean(&xs)).abs() < 1e-6 * k * amean(&xs).max(1.0),
            "case {case}"
        );
        assert!(
            (hmean(&scaled) - k * hmean(&xs)).abs() < 1e-6 * k * hmean(&xs).max(1.0),
            "case {case}"
        );
    }
}

/// Histogram count/sum/min/max are exact regardless of bucketing.
#[test]
fn histogram_exact_aggregates() {
    let mut rng = SimRng::seed_from_u64(0x51A7_0004);
    for case in 0..CASES {
        let xs = u64_vec(&mut rng, 1..256, 1_000_000);
        let mut h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        assert_eq!(h.count(), xs.len() as u64, "case {case}");
        assert_eq!(h.sum(), xs.iter().sum::<u64>(), "case {case}");
        assert_eq!(h.min(), xs.iter().min().copied(), "case {case}");
        assert_eq!(h.max(), xs.iter().max().copied(), "case {case}");
        // Bucket counts add up.
        let bucketed: u64 = h.nonempty_buckets().map(|(_, _, n)| n).sum();
        assert_eq!(bucketed, xs.len() as u64, "case {case}");
    }
}

/// Percentiles are monotone in p.
#[test]
fn percentiles_monotone() {
    let mut rng = SimRng::seed_from_u64(0x51A7_0006);
    for case in 0..CASES {
        let xs = u64_vec(&mut rng, 1..256, 1_000_000);
        let mut h = Histogram::new();
        for &x in &xs {
            h.record(x);
        }
        let mut last = 0;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p).unwrap();
            assert!(v >= last, "case {case}: p{p}: {v} < {last}");
            last = v;
        }
    }
}

/// A committed `renuca-manifest-v1` document: the fuzz loop's seed input.
const MANIFEST: &str = include_str!("../../../docs/manifest.example.json");

/// `\u` escapes spliced into strings: well-formed, truncated, non-hex,
/// lone and reversed surrogates, and a high surrogate followed by a
/// non-surrogate.
const ESCAPES: [&str; 12] = [
    "\\u",
    "\\u00",
    "\\u00e9",
    "\\uZZZZ",
    "\\u+041",
    "\\uD800",
    "\\uDC00",
    "\\uDC00\\uD800",
    "\\uD83D\\uDE00",
    "\\uD800\\u0041",
    "\\uD800\\u+C00",
    "\\uDBFF\\uDFFF",
];

/// Replacements for a run of digits: huge, tiny, signed and malformed
/// numbers.
const NUMBERS: [&str; 12] = [
    "1e999999",
    "-1e-999999",
    "99999999999999999999999999999999",
    "18446744073709551616",
    "-0",
    "-",
    "1e",
    "1.2.3",
    "--1",
    "0x10",
    "1e+-5",
    ".5",
];

/// Tiny deterministic generator (xorshift64*), the same as the campaign
/// spec fuzz loop's.
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

    /// A random `start..end` span of a `len`-byte document, at most 64
    /// bytes long.
    fn span(&mut self, len: usize) -> (usize, usize) {
        let start = self.below(len);
        (start, (start + 1 + self.below(64)).min(len))
    }
}

/// One random mutation of `doc`, on bytes (the result may not even be
/// UTF-8; it is parsed lossily).
fn mutate(gen: &mut Gen, doc: &[u8]) -> Vec<u8> {
    let mut out = doc.to_vec();
    match gen.below(6) {
        0 => {
            let i = gen.below(out.len());
            out[i] ^= 1 << gen.below(8);
        }
        1 => {
            let (a, b) = gen.span(out.len());
            out.drain(a..b);
        }
        2 => {
            let (a, b) = gen.span(out.len());
            let copy = out[a..b].to_vec();
            let at = gen.below(out.len());
            out.splice(at..at, copy);
        }
        3 => {
            // Splice an escape right after an opening or closing quote.
            let quotes: Vec<usize> = (0..out.len()).filter(|&i| out[i] == b'"').collect();
            if quotes.is_empty() {
                return out;
            }
            let at = quotes[gen.below(quotes.len())] + 1;
            let esc = ESCAPES[gen.below(ESCAPES.len())].as_bytes();
            out.splice(at..at, esc.iter().copied());
        }
        4 => {
            // Replace one run of digits with a huge or malformed number.
            let starts: Vec<usize> = (0..out.len())
                .filter(|&i| out[i].is_ascii_digit() && (i == 0 || !out[i - 1].is_ascii_digit()))
                .collect();
            if starts.is_empty() {
                return out;
            }
            let start = starts[gen.below(starts.len())];
            let end = start
                + out[start..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count();
            let num = NUMBERS[gen.below(NUMBERS.len())].as_bytes();
            out.splice(start..end, num.iter().copied());
        }
        _ => {
            let at = gen.below(out.len());
            out.truncate(at);
        }
    }
    out
}

/// `json::parse` returns `Ok` or `Err` for any input, never a panic.
fn parse_without_panic(what: &str, text: &str) {
    let result = catch_unwind(AssertUnwindSafe(|| json::parse(text).is_ok()));
    assert!(result.is_ok(), "json::parse panicked on {what}: {text:?}");
}

/// Seeded fuzz loop over manifests read back in: truncations at every
/// 7th byte, 200-deep nesting, and 20 000 random byte flips, span deletes
/// and duplicates, `\u` splices and number swaps of the committed example
/// manifest (up to four stacked per input).
#[test]
fn manifest_parse_never_panics() {
    let doc = MANIFEST.as_bytes();
    assert!(json::parse(MANIFEST).is_ok(), "the example manifest parses");

    for at in (0..doc.len()).step_by(7) {
        parse_without_panic(&format!("truncation at {at}"), &MANIFEST[..at]);
    }
    for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
        let deep = open.repeat(200) + MANIFEST + &close.repeat(200);
        parse_without_panic("200-deep nesting", &deep);
        assert!(
            json::parse(&deep).is_err(),
            "nesting past the limit is an error"
        );
    }

    let mut gen = Gen(0x4A50_4E5F_F022);
    for trial in 0..20_000 {
        let mut bytes = mutate(&mut gen, doc);
        for _ in 0..gen.below(4) {
            if !bytes.is_empty() {
                bytes = mutate(&mut gen, &bytes);
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        parse_without_panic(&format!("trial {trial}"), &text);
    }
}

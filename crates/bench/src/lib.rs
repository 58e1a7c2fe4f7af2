//! The in-tree benchmark harness for the targets in `benches/`:
//!
//! * `micro` — micro-benchmarks of the hot substrate structures (cache
//!   arrays, CPT, mesh routing, DRAM timing, full-system throughput);
//! * `campaign_overhead` — what the campaign scheduler's durability
//!   machinery costs on top of running the same grid directly.
//!
//! Both run on the [`bench()`]/[`bench_with_setup`] harness below. Paper
//! figures and tables are regenerated by the `experiments` binaries, not
//! here (`cargo run --release -p experiments --bin all`).
//!
//! The harness is deliberately small and dependency-free (the workspace is
//! hermetic — no criterion): a warmup phase sizes an iteration batch, then
//! timed samples of that batch yield per-iteration min/mean/median/p95
//! nanoseconds, reported as one JSON line per benchmark via `sim-stats`'s
//! emitter. Set `RENUCA_BENCH_SAMPLES` (an integer of at least 2, default
//! 30) to change the sample count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::hint::black_box;
use std::time::{Duration, Instant};

use sim_stats::JsonObject;

/// Per-iteration timing statistics of one micro-benchmark.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Benchmark name (`group/case`).
    pub name: String,
    /// Number of timed samples taken.
    pub samples: usize,
    /// Iterations per sample (the batch the warmup phase sized).
    pub iters_per_sample: u64,
    /// Fastest per-iteration time over all samples, nanoseconds.
    pub min_ns: f64,
    /// Mean per-iteration time, nanoseconds.
    pub mean_ns: f64,
    /// Median per-iteration time, nanoseconds.
    pub median_ns: f64,
    /// 95th-percentile per-iteration time, nanoseconds.
    pub p95_ns: f64,
}

impl BenchReport {
    /// One JSON line (`kind: "micro"`), stable key order.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_str("bench", &self.name)
            .field_str("kind", "micro")
            .field_u64("samples", self.samples as u64)
            .field_u64("iters_per_sample", self.iters_per_sample)
            .field_f64("min_ns", self.min_ns)
            .field_f64("mean_ns", self.mean_ns)
            .field_f64("median_ns", self.median_ns)
            .field_f64("p95_ns", self.p95_ns);
        o.finish()
    }

    /// Print the JSON line to stdout.
    pub fn report(&self) {
        println!("{}", self.to_json());
    }
}

/// The sample count from `RENUCA_BENCH_SAMPLES`. A malformed value prints
/// an error naming the variable and exits with status 2.
fn n_samples() -> usize {
    let parsed = match std::env::var("RENUCA_BENCH_SAMPLES") {
        Ok(v) => samples_from(Some(&v)),
        Err(std::env::VarError::NotPresent) => samples_from(None),
        Err(std::env::VarError::NotUnicode(v)) => {
            Err(format!("RENUCA_BENCH_SAMPLES={v:?} is not UTF-8"))
        }
    };
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Parse a `RENUCA_BENCH_SAMPLES` value (`None` = unset, 30 samples): a
/// decimal count of at least 2, or an error naming the variable and value.
fn samples_from(value: Option<&str>) -> Result<usize, String> {
    let Some(v) = value else { return Ok(30) };
    match v.parse::<usize>() {
        Ok(n) if n >= 2 => Ok(n),
        _ => Err(format!(
            "RENUCA_BENCH_SAMPLES={v:?} is not a sample count (an integer of at least 2)"
        )),
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn summarize(name: &str, iters: u64, mut per_iter_ns: Vec<f64>) -> BenchReport {
    per_iter_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let samples = per_iter_ns.len();
    BenchReport {
        name: name.to_owned(),
        samples,
        iters_per_sample: iters,
        min_ns: per_iter_ns[0],
        mean_ns: per_iter_ns.iter().sum::<f64>() / samples as f64,
        median_ns: percentile_sorted(&per_iter_ns, 50.0),
        p95_ns: percentile_sorted(&per_iter_ns, 95.0),
    }
}

/// Benchmark a routine: warm up for ~100 ms to size an iteration batch,
/// then take timed samples and report per-iteration statistics.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> BenchReport {
    // Warmup: at least 3 calls, at least ~100 ms, and measure the rate.
    let warmup_for = Duration::from_millis(100);
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || start.elapsed() < warmup_for {
        black_box(f());
        calls += 1;
    }
    let per_call_ns = (start.elapsed().as_nanos() as f64 / calls as f64).max(0.5);

    // Batch so one sample spans ≈1 ms: long enough to swamp timer
    // resolution, short enough that 30 samples stay interactive.
    let iters = ((1_000_000.0 / per_call_ns) as u64).max(1);
    let samples = n_samples();
    let mut per_iter_ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        per_iter_ns.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    summarize(name, iters, per_iter_ns)
}

/// Benchmark a routine with fresh per-sample state: `setup` runs outside
/// the timed region, `routine` inside (one iteration per sample — for
/// routines that consume their input, like a full-system run).
pub fn bench_with_setup<S, R>(
    name: &str,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S) -> R,
) -> BenchReport {
    // Warm caches/branch predictors with a couple of untimed runs.
    for _ in 0..2 {
        black_box(routine(setup()));
    }
    let samples = n_samples().min(10);
    let mut per_iter_ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let input = setup();
        let t = Instant::now();
        black_box(routine(input));
        per_iter_ns.push(t.elapsed().as_nanos() as f64);
    }
    summarize(name, 1, per_iter_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&xs, 50.0), 2.0);
        assert_eq!(percentile_sorted(&xs, 95.0), 4.0);
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 50.0), 7.0);
    }

    #[test]
    fn summarize_orders_stats() {
        let r = summarize("t", 10, vec![3.0, 1.0, 2.0, 10.0]);
        assert_eq!(r.min_ns, 1.0);
        assert_eq!(r.median_ns, 2.0);
        assert_eq!(r.p95_ns, 10.0);
        assert!((r.mean_ns - 4.0).abs() < 1e-12);
        assert_eq!(r.samples, 4);
    }

    #[test]
    fn report_json_shape() {
        let r = summarize("cache/hit", 100, vec![5.0, 5.0]);
        let j = r.to_json();
        assert!(
            j.starts_with(r#"{"bench":"cache/hit","kind":"micro""#),
            "{j}"
        );
        assert!(j.contains("\"median_ns\":5"));
    }

    #[test]
    fn sample_count_rejects_malformed_values() {
        assert_eq!(samples_from(None), Ok(30));
        assert_eq!(samples_from(Some("2")), Ok(2));
        assert_eq!(samples_from(Some("100")), Ok(100));
        for bad in ["abc", "1", "0", "", "-3", "2.5", " 5"] {
            let err = samples_from(Some(bad)).unwrap_err();
            assert!(
                err.contains(&format!("RENUCA_BENCH_SAMPLES={bad:?}")),
                "{err}"
            );
        }
    }

    #[test]
    fn bench_measures_something() {
        // Keep this cheap: a trivial routine still yields positive timings.
        std::env::set_var("RENUCA_BENCH_SAMPLES", "2");
        let r = bench("noop", || std::hint::black_box(1u64 + 1));
        std::env::remove_var("RENUCA_BENCH_SAMPLES");
        assert!(r.min_ns >= 0.0);
        assert!(r.iters_per_sample >= 1);
        assert_eq!(r.samples, 2);
    }
}

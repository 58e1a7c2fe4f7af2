//! What a pass reports, how the parent process reads it back, and the
//! metrics derived from a workload's passes.
//!
//! A pass runs in a child process that prints one record per line:
//!
//! ```text
//! point <i> <fingerprint hex> <dump hash hex>
//! problem <i> <free text>
//! probe <seconds>
//! phase <setup|prewarm|warmup|run|result> <seconds> <reference seconds>
//! layer <name> <calls> <reference seconds of replay>
//! rss <peak RSS in kB>
//! sim <name> <value> <unit>
//! ```
//!
//! *Reference seconds* are host seconds scaled to the reference host
//! speed: each point's times are multiplied by `calib::REFERENCE_S` over
//! the mean of the probes taken just before and just after it.

use crate::calib;
use crate::point::{Phases, PointRun, SimCounts, LAYERS};
use crate::workload::Workload;
use crate::{fnv64, FNV_OFFSET};

/// One point's exact outcome as the parent sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PointOutcome {
    /// FNV-64 over the fingerprint keys.
    pub fingerprint: u64,
    /// FNV-64 over the whole registry dump.
    pub dump_hash: u64,
}

/// Everything one pass reported.
#[derive(Clone, Debug, Default)]
pub struct PassOut {
    /// Per point, in run order; `None` when the child never reported it.
    pub points: Vec<Option<PointOutcome>>,
    /// `(point index, text)` of every failed check.
    pub problems: Vec<(usize, String)>,
    /// Host-speed probe times, one before each point and one after the
    /// last, seconds.
    pub probes: Vec<f64>,
    /// Host seconds per phase, summed over the pass's points.
    pub phases: Phases,
    /// The same in reference seconds.
    pub scaled: Phases,
    /// `VmHWM` of the child process, kB.
    pub rss_kb: f64,
    /// `(calls, reference seconds of replay)` per traced layer, in
    /// `LAYERS` order.
    pub layers: Option<[(u64, f64); 3]>,
    /// Simulated per-layer metrics `(name, value, unit)` of the pass.
    pub sim: Vec<(String, f64, String)>,
}

/// Print a finished pass in the line format above. `probes` has one
/// entry more than `runs`.
pub fn print_pass(runs: &[PointRun], probes: &[f64], rss_kb: u64) {
    let mut phases = Phases::default();
    let mut scaled = Phases::default();
    let mut sim = SimCounts::default();
    let mut layers = [(0u64, 0f64); 3];
    for (i, r) in runs.iter().enumerate() {
        let dump_hash = fnv64(FNV_OFFSET, r.dump.as_bytes());
        println!("point {i} {:016x} {dump_hash:016x}", r.fingerprint);
        for p in &r.problems {
            println!("problem {i} {p}");
        }
        let speed = calib::REFERENCE_S / ((probes[i] + probes[i + 1]) / 2.0);
        phases.add(&r.phases);
        scaled.add(&r.phases.scaled(speed));
        sim.add(&r.sim);
        if let Some(ls) = &r.layers {
            for (j, l) in ls.iter().enumerate() {
                if l.mismatches > 0 {
                    println!(
                        "problem {i} {} replay differs from the recorded run",
                        LAYERS[j]
                    );
                }
                layers[j].0 += l.calls;
                layers[j].1 += l.replay_s * speed;
            }
        }
    }
    for p in probes {
        println!("probe {p}");
    }
    for ((name, raw), (_, s)) in phases.named().into_iter().zip(scaled.named()) {
        println!("phase {name} {raw} {s}");
    }
    println!("rss {rss_kb}");
    let traced = runs.iter().any(|r| r.layers.is_some());
    if traced {
        for (name, (calls, s)) in LAYERS.iter().zip(layers) {
            println!("layer {name} {calls} {s}");
        }
    }
    for (name, v, unit) in sim.metrics() {
        println!("sim {name} {v} {unit}");
    }
    if traced {
        let per_access = layers[2].0 as f64 / sim.l3_accesses.max(1) as f64;
        println!("sim mapping.calls_per_l3_access {per_access} calls/l3_access");
    }
}

impl PassOut {
    /// Read a child's output; `n_points` is the pass's point count.
    pub fn parse(text: &str, n_points: usize) -> Result<PassOut, String> {
        let mut out = PassOut {
            points: vec![None; n_points],
            ..PassOut::default()
        };
        let mut layers = [(0u64, 0f64); 3];
        let mut traced = false;
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("malformed pass record: {line}");
            let num = |s: &str| s.parse::<f64>().map_err(|_| bad());
            let idx = |s: &str| match s.parse::<usize>() {
                Ok(i) if i < n_points => Ok(i),
                _ => Err(bad()),
            };
            let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad());
            match f.as_slice() {
                ["point", i, fp, dump] => {
                    out.points[idx(i)?] = Some(PointOutcome {
                        fingerprint: hex(fp)?,
                        dump_hash: hex(dump)?,
                    })
                }
                ["problem", i, ..] => {
                    let text = line.splitn(3, ' ').nth(2).unwrap_or("").to_owned();
                    out.problems.push((idx(i)?, text));
                }
                ["probe", v] => out.probes.push(num(v)?),
                ["phase", name, raw, s] => {
                    *out.phases.by_name(name).ok_or_else(bad)? = num(raw)?;
                    *out.scaled.by_name(name).ok_or_else(bad)? = num(s)?;
                }
                ["rss", kb] => out.rss_kb = num(kb)?,
                ["layer", name, calls, s] => {
                    let j = LAYERS.iter().position(|l| l == name).ok_or_else(bad)?;
                    layers[j] = (calls.parse().map_err(|_| bad())?, num(s)?);
                    traced = true;
                }
                ["sim", name, v, unit] => {
                    out.sim.push((name.to_string(), num(v)?, unit.to_string()))
                }
                _ => return Err(bad()),
            }
        }
        if traced {
            out.layers = Some(layers);
        }
        Ok(out)
    }
}

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Summarize `values`; every statistic is NaN for an empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary {
            median: f64::NAN,
            q1: f64::NAN,
            q3: f64::NAN,
            n,
        };
    }
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let q = |i: usize| {
        if n < 2 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Summary {
        median,
        q1: q(1),
        q3: q(3),
        n,
    }
}

/// The end-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_mips", "Minstr/s"),
    ("warmup_mips", "Minstr/s"),
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// One pass's end-to-end values, in [`END_TO_END`] order; `scaled`
/// selects reference seconds (the reported values) or host seconds.
pub fn end_to_end(w: &Workload, n_cores: usize, p: &PassOut, scaled: bool) -> [f64; 5] {
    let t = if scaled { &p.scaled } else { &p.phases };
    let instr = |per_core: u64| (n_cores as u64 * per_core * w.points.len() as u64) as f64;
    [
        instr(w.measure) / t.run / 1e6,
        instr(w.warmup) / t.warmup / 1e6,
        t.total(),
        t.setup + t.prewarm,
        p.rss_kb / 1024.0,
    ]
}

/// The per-layer metrics of a workload: phase spans from the untraced
/// passes (medians), replay shares from the traced pass, and the traced
/// pass's exact simulated metrics; host times in reference seconds.
/// `(name, value, unit)`.
pub fn per_layer(untraced: &[&PassOut], traced: &PassOut) -> Vec<(String, f64, String)> {
    let med = |f: fn(&Phases) -> f64| {
        summarize(&untraced.iter().map(|p| f(&p.scaled)).collect::<Vec<_>>()).median
    };
    let run_s = med(|p| p.run);
    let mut m: Vec<(String, f64, String)> = Vec::new();
    let mut push = |name: &str, v: f64, unit: &str| m.push((name.to_owned(), v, unit.to_owned()));
    push("system.setup_s", med(|p| p.setup), "s");
    push("system.prewarm_s", med(|p| p.prewarm), "s");
    push("system.warmup_s", med(|p| p.warmup), "s");
    push("system.run_s", run_s, "s");
    push("system.result_s", med(|p| p.result), "s");
    let layers = traced.layers.unwrap_or_default();
    let mut residual = 1.0;
    for (name, (calls, s)) in LAYERS.iter().zip(layers) {
        let share = s / run_s;
        residual -= share;
        push(&format!("{name}.calls"), calls as f64, "count");
        push(
            &format!("{name}.ns_per_call"),
            s * 1e9 / calls.max(1) as f64,
            "ns",
        );
        push(&format!("{name}.share"), share, "fraction");
    }
    push("cmp-sim.share", residual, "fraction");
    push(
        "trace.overhead",
        traced.scaled.run / run_s - 1.0,
        "fraction",
    );
    m.extend(traced.sim.iter().cloned());
    m
}

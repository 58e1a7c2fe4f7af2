//! `e2e` — the end-to-end simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--reps N | --seconds S]
//!     [--trace 0|1 | --no-trace] [--smoke] [--bless]
//! ```
//!
//! Runs every pass in a child process (this binary re-executed with
//! `--child`), one at a time, rep-major across workloads; then, unless
//! tracing is off, one traced pass per workload. Prints every metric as
//! `workload metric value unit`, writes one JSON document to `out/bench/`,
//! prints a one-line JSON result last, and exits non-zero if any point
//! failed. See README.md.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use e2e_bench::calib;
use e2e_bench::point::{self, PointRun};
use e2e_bench::report::{self, summarize, PassOut, END_TO_END};
use e2e_bench::workload::{self, Workload};
use sim_stats::json::{escape, f64_array, raw_array, JsonObject};

/// Seed-0 fingerprints of every point, written by `--bless`.
const EXPECTED: &str = include_str!("../expected.txt");
const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.txt");
/// Reps when neither `--reps` nor `--seconds` is given.
const DEFAULT_REPS: usize = 7;
/// A traced pass takes about this many untraced passes (shim overhead,
/// doubled layer work before the mark, and the replay).
const TRACED_COST: f64 = 1.5;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    reps: Option<usize>,
    seconds: Option<f64>,
    /// `None`: untraced reps then a traced pass, both metric sets reported.
    trace: Option<bool>,
    smoke: bool,
    bless: bool,
    /// Internal: run one pass of this workload and print its records.
    child: Option<String>,
    traced_child: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 0,
        reps: None,
        seconds: None,
        trace: None,
        smoke: false,
        bless: false,
        child: None,
        traced_child: false,
    };
    fn value<T: std::str::FromStr>(
        flag: &str,
        v: Option<String>,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        match v.parse::<T>() {
            Ok(x) if ok(&x) => Ok(x),
            _ => Err(format!("bad value for {flag}: {v}")),
        }
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name: String = value(&flag, it.next(), |_| true)?;
                let w =
                    workload::by_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
                a.workloads.push(w);
            }
            "--seed" => a.seed = value(&flag, it.next(), |_| true)?,
            "--reps" => a.reps = Some(value(&flag, it.next(), |&n: &usize| n >= 1)?),
            "--seconds" => {
                a.seconds = Some(value(&flag, it.next(), |&s: &f64| {
                    s.is_finite() && s > 0.0
                })?)
            }
            "--trace" => a.trace = Some(value::<u8>(&flag, it.next(), |&t| t <= 1)? == 1),
            "--no-trace" => a.trace = Some(false),
            "--smoke" => a.smoke = true,
            "--bless" => a.bless = true,
            "--child" => a.child = Some(value(&flag, it.next(), |_| true)?),
            "--traced" => a.traced_child = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.reps.is_some() && a.seconds.is_some() {
        return Err("--reps and --seconds exclude each other".to_owned());
    }
    if a.workloads.is_empty() {
        a.workloads = workload::all();
    }
    if a.smoke {
        a.workloads = a.workloads.into_iter().map(Workload::smoke).collect();
    }
    Ok(a)
}

fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Child side: run one pass and print its records.
fn child(w: &Workload, seed: u64, traced: bool) {
    let mut probes = Vec::new();
    let runs: Vec<PointRun> = w
        .points
        .iter()
        .map(|&p| {
            probes.push(calib::probe_s());
            if traced {
                point::run_traced(p, w, seed)
            } else {
                point::run(p, w, seed)
            }
        })
        .collect();
    probes.push(calib::probe_s());
    report::print_pass(&runs, &probes, peak_rss_kb());
}

/// Parent side: run one pass in a child process. Returns the pass and its
/// wall time.
fn run_pass(w: &Workload, a: &Args, traced: bool) -> (PassOut, f64) {
    let t = Instant::now();
    let exe = std::env::current_exe().expect("path of the running benchmark binary");
    let mut cmd = Command::new(exe);
    cmd.args(["--child", w.name, "--seed", &a.seed.to_string()]);
    if traced {
        cmd.arg("--traced");
    }
    if a.smoke {
        cmd.arg("--smoke");
    }
    let n = w.points.len();
    let pass =
        match cmd.output() {
            Ok(out) => {
                let mut pass = PassOut::parse(&String::from_utf8_lossy(&out.stdout), n)
                    .unwrap_or_else(|e| PassOut {
                        points: vec![None; n],
                        problems: vec![(0, e)],
                        ..PassOut::default()
                    });
                if !out.status.success() {
                    let at = pass
                        .points
                        .iter()
                        .position(Option::is_none)
                        .unwrap_or(n - 1);
                    pass.problems
                        .push((at, format!("child process {}", out.status)));
                }
                pass
            }
            Err(e) => PassOut {
                points: vec![None; n],
                problems: vec![(0, format!("cannot start child process: {e}"))],
                ..PassOut::default()
            },
        };
    (pass, t.elapsed().as_secs_f64())
}

fn expected_fingerprints() -> HashMap<(String, String), u64> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                [w, p, fp] => Some((
                    (w.to_string(), p.to_string()),
                    u64::from_str_radix(fp, 16).ok()?,
                )),
                _ => None,
            }
        })
        .collect()
}

/// The exact-output gate over all passes of one workload (untraced reps
/// first, the traced pass last). Returns `(attempted, failures)`.
fn gate(w: &Workload, passes: &[&PassOut], seed0: bool) -> (usize, Vec<String>) {
    let expected = expected_fingerprints();
    let mut reference: Vec<Option<report::PointOutcome>> = vec![None; w.points.len()];
    let mut attempted = 0;
    let mut failures = Vec::new();
    for (rep, pass) in passes.iter().enumerate() {
        for (i, p) in w.points.iter().enumerate() {
            attempted += 1;
            let label = p.label();
            let mut why: Vec<String> = pass
                .problems
                .iter()
                .filter(|(j, _)| *j == i)
                .map(|(_, t)| t.clone())
                .collect();
            match pass.points[i] {
                None => why.push("no result".to_owned()),
                Some(o) => {
                    match reference[i] {
                        None => reference[i] = Some(o),
                        Some(r) if r.fingerprint != o.fingerprint => {
                            why.push("fingerprint differs from the first pass".to_owned())
                        }
                        Some(r) if r.dump_hash != o.dump_hash => {
                            why.push("registry dump differs from the first pass".to_owned())
                        }
                        Some(_) => {}
                    }
                    if seed0 {
                        match expected.get(&(w.name.to_owned(), label.clone())) {
                            Some(&e) if e == o.fingerprint => {}
                            Some(&e) => why.push(format!(
                                "fingerprint {:016x} != expected {e:016x}",
                                o.fingerprint
                            )),
                            None => why.push("no expected fingerprint".to_owned()),
                        }
                    }
                }
            }
            if !why.is_empty() {
                failures.push(format!(
                    "{} pass {} {label}: {}",
                    w.name,
                    rep + 1,
                    why.join("; ")
                ));
            }
        }
    }
    (attempted, failures)
}

fn command_output(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut o = JsonObject::new();
    o.field_str("cpu", &cpu)
        .field_u64("nproc", nproc as u64)
        .field_str("rustc", &command_output("rustc", &["-V"]))
        .field_str("git_head", &command_output("git", &["rev-parse", "HEAD"]));
    o.finish()
}

fn bless(a: &Args) -> ExitCode {
    if a.seed != 0 || a.smoke {
        eprintln!("--bless records seed-0 fingerprints at full budgets only");
        return ExitCode::from(2);
    }
    let mut text = String::from(
        "# Seed-0 fingerprints (FNV-64 over the gate's key list) of every point.\n\
         # Regenerate with: cargo run --release --manifest-path e2e-bench/Cargo.toml -- --bless\n",
    );
    for w in &workload::all() {
        let (pass, _) = run_pass(w, a, false);
        if !pass.problems.is_empty() || pass.points.iter().any(Option::is_none) {
            eprintln!(
                "{}: pass failed, nothing written: {:?}",
                w.name, pass.problems
            );
            return ExitCode::FAILURE;
        }
        for (p, o) in w.points.iter().zip(&pass.points) {
            let o = o.expect("checked above");
            text.push_str(&format!(
                "{} {} {:016x}\n",
                w.name,
                p.label(),
                o.fingerprint
            ));
        }
    }
    match std::fs::write(EXPECTED_PATH, text) {
        Ok(()) => {
            eprintln!("wrote {EXPECTED_PATH}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {EXPECTED_PATH}: {e}");
            ExitCode::FAILURE
        }
    }
}

struct WorkloadResult {
    attempted: usize,
    failures: Vec<String>,
    /// Per end-to-end metric: its per-pass values in reference seconds
    /// and in host seconds.
    e2e: Vec<(&'static str, Vec<f64>, Vec<f64>, &'static str)>,
    layers: Vec<(String, f64, String)>,
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &a.child {
        let Some(w) = a.workloads.iter().find(|w| w.name == name.as_str()) else {
            eprintln!("e2e: unknown workload {name}");
            return ExitCode::from(2);
        };
        child(w, a.seed, a.traced_child);
        return ExitCode::SUCCESS;
    }
    // Budget and configuration overrides would silently change what is
    // measured; the benchmark's inputs are its flags alone.
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("RENUCA_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("e2e: refusing to run with {} set", knobs.join(", "));
        return ExitCode::from(2);
    }
    if a.bless {
        return bless(&a);
    }
    let start = Instant::now();
    let traced = a.trace != Some(false);
    let reps = a.reps.unwrap_or(if a.smoke { 1 } else { DEFAULT_REPS });
    let nw = a.workloads.len();
    let mut passes: Vec<Vec<PassOut>> = vec![Vec::new(); nw];
    let mut longest = vec![0f64; nw];
    let mut rep = 0;
    loop {
        match a.seconds {
            Some(s) => {
                let one_rep: f64 = longest.iter().sum();
                let reserve = if traced { TRACED_COST * one_rep } else { 0.0 };
                let elapsed = start.elapsed().as_secs_f64();
                if rep > 0 && elapsed + one_rep + reserve > s {
                    break;
                }
            }
            None if rep == reps => break,
            None => {}
        }
        rep += 1;
        for (wi, w) in a.workloads.iter().enumerate() {
            let (pass, wall) = run_pass(w, &a, false);
            eprintln!("rep {rep} {} {wall:.2} s", w.name);
            longest[wi] = longest[wi].max(wall);
            passes[wi].push(pass);
        }
    }
    let traced_passes: Vec<Option<PassOut>> = a
        .workloads
        .iter()
        .map(|w| {
            traced.then(|| {
                let (pass, wall) = run_pass(w, &a, true);
                eprintln!("traced {} {wall:.2} s", w.name);
                pass
            })
        })
        .collect();

    let cfg = workload::config();
    let seed0 = a.seed == 0 && !a.smoke;
    let results: Vec<WorkloadResult> = a
        .workloads
        .iter()
        .enumerate()
        .map(|(wi, w)| {
            let mut all: Vec<&PassOut> = passes[wi].iter().collect();
            all.extend(traced_passes[wi].as_ref());
            let (attempted, failures) = gate(w, &all, seed0);
            // A pass that lost points has partial times; it counts only
            // as failed points.
            let complete: Vec<&PassOut> = passes[wi]
                .iter()
                .filter(|p| p.points.iter().all(Option::is_some))
                .collect();
            let values = |scaled: bool| -> Vec<[f64; 5]> {
                complete
                    .iter()
                    .map(|p| report::end_to_end(w, cfg.n_cores, p, scaled))
                    .collect()
            };
            let (scaled, raw) = (values(true), values(false));
            let e2e = END_TO_END
                .iter()
                .enumerate()
                .map(|(k, &(name, unit))| {
                    let col = |rows: &[[f64; 5]]| rows.iter().map(|v| v[k]).collect();
                    (name, col(&scaled), col(&raw), unit)
                })
                .collect();
            let layers = traced_passes[wi]
                .as_ref()
                .map(|t| report::per_layer(&complete, t))
                .unwrap_or_default();
            WorkloadResult {
                attempted,
                failures,
                e2e,
                layers,
            }
        })
        .collect();

    let mut attempted = 0;
    let mut failed = 0;
    let mut line_metrics = JsonObject::new();
    let mut doc_workloads = Vec::new();
    for ((w, r), ps) in a.workloads.iter().zip(&results).zip(&passes) {
        attempted += r.attempted;
        failed += r.failures.len();
        let prefix = if nw > 1 {
            format!("{}.", w.name)
        } else {
            String::new()
        };
        let mut metric = |name: &str, v: f64, unit: &str| {
            let mut m = JsonObject::new();
            m.field_f64("value", v).field_str("unit", unit);
            line_metrics.field_raw(&format!("{prefix}{name}"), &m.finish());
        };
        let mut e2e_doc = JsonObject::new();
        for (name, values, raw, unit) in &r.e2e {
            let s = summarize(values);
            println!(
                "{} {name} {} {unit} q1={} q3={} n={}",
                w.name, s.median, s.q1, s.q3, s.n
            );
            if a.trace != Some(true) {
                metric(name, s.median, unit);
            }
            let mut m = JsonObject::new();
            m.field_f64("median", s.median)
                .field_f64("q1", s.q1)
                .field_f64("q3", s.q3)
                .field_u64("n", s.n as u64)
                .field_str("unit", unit)
                .field_raw("values", &f64_array(values))
                .field_raw("host_values", &f64_array(raw));
            e2e_doc.field_raw(name, &m.finish());
        }
        println!(
            "{} failed_points {} count attempted={}",
            w.name,
            r.failures.len(),
            r.attempted
        );
        let mut layer_doc = JsonObject::new();
        for (name, v, unit) in &r.layers {
            println!("{} {name} {v} {unit}", w.name);
            metric(name, *v, unit);
            let mut m = JsonObject::new();
            m.field_f64("value", *v).field_str("unit", unit);
            layer_doc.field_raw(name, &m.finish());
        }
        for f in &r.failures {
            eprintln!("FAILED {f}");
        }
        let probes: Vec<f64> = ps.iter().map(|p| summarize(&p.probes).median).collect();
        let quoted = |xs: Vec<String>| {
            raw_array(
                &xs.iter()
                    .map(|x| format!("\"{}\"", escape(x)))
                    .collect::<Vec<_>>(),
            )
        };
        let mut o = JsonObject::new();
        o.field_str("name", w.name)
            .field_str("why", w.why)
            .field_u64("warmup", w.warmup)
            .field_u64("measure", w.measure)
            .field_raw(
                "points",
                &quoted(w.points.iter().map(|p| p.label()).collect()),
            )
            .field_u64("attempted", r.attempted as u64)
            .field_u64("failed_points", r.failures.len() as u64)
            .field_raw("probe_s", &f64_array(&probes))
            .field_raw("end_to_end", &e2e_doc.finish())
            .field_raw("per_layer", &layer_doc.finish())
            .field_raw("failures", &quoted(r.failures.clone()));
        doc_workloads.push(o.finish());
    }
    let wall = start.elapsed().as_secs_f64();
    let mut doc = JsonObject::new();
    doc.field_str("schema", "renuca-e2e-bench-v1")
        .field_raw("host", &host_fingerprint())
        .field_u64("seed", a.seed)
        .field_u64("reps", rep as u64)
        .field_raw("smoke", if a.smoke { "true" } else { "false" })
        .field_f64("wall_s", wall)
        .field_raw("workloads", &raw_array(&doc_workloads));
    let dir = PathBuf::from("out/bench");
    let millis = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = dir.join(format!("e2e-{millis}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.finish() + "\n")) {
        Ok(()) => eprintln!("wrote {} ({wall:.1} s)", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    let mut last = JsonObject::new();
    last.field_raw("correct", if failed == 0 { "true" } else { "false" })
        .field_u64("attempted", attempted as u64)
        .field_u64("failed", failed as u64)
        .field_raw("metrics", &line_metrics.finish());
    println!("{}", last.finish());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

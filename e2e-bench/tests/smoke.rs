//! Smoke runs of the `e2e` binary at tiny budgets: every metric that
//! BENCHMARK.json names is printed with its unit, and the one-line result
//! carries exactly the metric set of its mode.

use std::process::Command;

use sim_stats::json::{parse, JsonValue};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("string field")
                    .to_owned()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// Run the binary in a scratch directory; return stdout and the parsed
/// last line.
fn run(args: &[&str]) -> (String, JsonValue) {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line").to_owned();
    (stdout, parse(&last).expect("last line is JSON"))
}

fn metric_names(result: &JsonValue) -> Vec<String> {
    match result.get("metrics") {
        Some(JsonValue::Object(m)) => m.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("no metrics object"),
    }
}

#[test]
fn smoke_run_prints_every_declared_metric_with_its_unit() {
    let (stdout, result) = run(&["--smoke"]);
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
    let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    let names: Vec<&str> = e2e_bench::workload::all().iter().map(|w| w.name).collect();
    assert_eq!(workloads, names);
    let lines: Vec<Vec<&str>> = stdout
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    for w in &workloads {
        for (name, unit) in declared("end_to_end")
            .into_iter()
            .chain(declared("per_layer"))
        {
            let found = lines
                .iter()
                .find(|f| f.len() >= 4 && f[0] == *w && f[1] == name);
            let f = found.unwrap_or_else(|| panic!("{w} {name} not printed"));
            assert_eq!(f[3], unit, "{w} {name}");
            let v: f64 = f[2].parse().expect("numeric value");
            assert!(v.is_finite(), "{w} {name} = {v}");
        }
    }
}

#[test]
fn time_boxed_mode_reports_exactly_one_metric_set() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (_, result) = run(&[
            "--smoke",
            "--workload",
            "write-burst",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        let mut got = metric_names(&result);
        let mut want: Vec<String> = declared(section).into_iter().map(|(n, _)| n).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "--trace {trace}");
        assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
    }
}

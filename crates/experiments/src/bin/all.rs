//! Regenerate the paper's tables and figures, and run the related-work
//! studies: `all [--stats <path>] [STUDY]`.
//!
//! With no study name, run every paper study in one pass, sharing
//! simulations where possible (the main study feeds Figures 3, 4b, 11, 12
//! and Table III's first row; each sensitivity study feeds two figures and
//! one Table III row). With one study name, run that study alone; its
//! manifest's `binary` field is the study name. An unknown name, a second
//! name, an unknown flag or `--stats` without a path exits with status 2
//! before any simulation; the `forecast` study exits with status 1 when
//! its gate fails.
use cmp_sim::SystemConfig;
use experiments::figures::sensitivity::{self, Sensitivity};
use experiments::figures::{
    ablations, capacity, criticality, headtohead, lifetime, predictor_study, table2, table3, wburst,
};
use experiments::forecast::{forecast_study, format_forecast, register_forecast};
use experiments::{obs, Budget, StatsSink};
use renuca_core::CptConfig;
use std::time::Instant;

/// Every study name `all` accepts: the paper's in paper order, then the
/// related-work studies.
const STUDIES: &str = "table2 fig2 fig3 fig4b fig5 fig7 fig8 fig9 fig11 fig12 \
                       fig13 fig14 fig15 fig16 fig17 fig18 table3 ablations capacity \
                       headtohead wburst trickle forecast";

/// The command line: at most one study name from [`STUDIES`], and where
/// the manifest goes: `--stats <path>` or `--stats=<path>`, else the
/// `RENUCA_STATS` environment variable, else nowhere. Any other argument,
/// a second name, a second `--stats` or one without a path is an input
/// error.
fn parse_args() -> Result<(Option<String>, StatsSink), String> {
    let (mut study, mut stats) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let path = match a.strip_prefix("--stats=") {
            Some(p) => Some(p.to_owned()),
            None if a == "--stats" => Some(args.next().unwrap_or_default()),
            None => None,
        };
        match (path, &study) {
            (Some(p), _) if p.is_empty() => return Err("--stats requires a path".into()),
            (Some(_), _) if stats.is_some() => return Err("--stats given twice".into()),
            (Some(p), _) => stats = Some(p),
            (None, _) if !STUDIES.split_whitespace().any(|n| n == a) => {
                return Err(format!("unknown study or flag `{a}`"))
            }
            (None, Some(first)) => {
                return Err(format!("one study per run, got `{first}` and `{a}`"))
            }
            (None, None) => study = Some(a),
        }
    }
    let stats = stats.or_else(|| std::env::var("RENUCA_STATS").ok().filter(|p| !p.is_empty()));
    Ok((study, stats.map_or_else(StatsSink::default, StatsSink::to)))
}

fn main() {
    let (study, sink) = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: all [--stats <path>] [STUDY]\nstudies: {STUDIES}");
        std::process::exit(2)
    });
    let budget = Budget::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    match study {
        Some(name) => run_study(&name, &sink, budget),
        None => run_all(&sink, budget),
    }
}

/// Run the one study `name` (a member of [`STUDIES`]).
fn run_study(name: &str, sink: &StatsSink, budget: Budget) {
    match name {
        "table2" | "fig2" => {
            let rows = table2::run(budget);
            let text = match name {
                "fig2" => table2::format_fig2(&rows),
                _ => table2::format_table2(&rows),
            };
            println!("{text}");
            sink.emit_with(name, "app characteristics", None, budget, |m| {
                obs::register_table2(m.stats_mut(), &rows)
            });
        }
        "fig3" | "fig4b" | "fig11" | "fig12" | "capacity" => {
            let cfg = obs::default_config();
            let study = lifetime::run("Actual Results", cfg, budget);
            let text = match name {
                "fig3" => lifetime::format_fig3(&study),
                "fig4b" => lifetime::format_fig4b(&study),
                "fig11" => lifetime::format_fig11(&study) + "\n" + &lifetime::headline(&study),
                "fig12" => lifetime::format_fig12(&study) + "\n" + &lifetime::headline(&study),
                _ => capacity::format_retention(&study, 16.0, 9),
            };
            println!("{text}");
            obs::emit_study_manifest(sink, name, Some(&cfg), budget, &study);
        }
        "fig5" => {
            let rows = criticality::run(budget);
            println!("{}", criticality::format_fig5(&rows));
            println!("Average: {:.1}% (paper: >80%)", criticality::average(&rows));
            sink.emit_with(name, "ROB-stall criticality", None, budget, |m| {
                obs::register_fig5(m.stats_mut(), &rows, criticality::average(&rows))
            });
        }
        "fig7" | "fig8" | "fig9" => {
            let study = predictor_study::run(budget, &CptConfig::THRESHOLD_SWEEP);
            let text = match name {
                "fig7" => predictor_study::format_fig7(&study),
                "fig8" => predictor_study::format_fig8(&study),
                _ => predictor_study::format_fig9(&study),
            };
            println!("{text}");
            sink.emit_with(name, "predictor threshold sweep", None, budget, |m| {
                obs::register_predictor(m.stats_mut(), &study)
            });
        }
        "table3" => {
            let t3 = table3::run(obs::default_config(), budget);
            println!("{}", table3::format_table3(&t3));
            sink.emit_with(name, "raw minimum lifetimes", None, budget, |m| {
                obs::register_multi_study(m, &t3.studies)
            });
        }
        "ablations" => {
            let budget = budget.sweep();
            let text = ablations::run_all(budget);
            println!("{text}");
            sink.emit_with(name, "DESIGN.md §7 ablations", None, budget, |m| {
                m.stats_mut().set("output.bytes", text.len() as u64);
            });
        }
        "headtohead" => {
            let cfg = obs::default_config();
            let rows = headtohead::run(cfg, budget);
            println!("{}", headtohead::format(&rows));
            sink.emit_with(name, "Head-to-head", Some(&cfg), budget, |m| {
                headtohead::register(m, &rows)
            });
        }
        "wburst" => {
            let cfg = obs::default_config();
            let cells = wburst::run(cfg, budget);
            println!("{}", wburst::format(&cells));
            sink.emit_with(name, "Write-burst saturation", Some(&cfg), budget, |m| {
                wburst::register(m, &cells)
            });
        }
        "trickle" => {
            let cfg = SystemConfig::small(1);
            let r = wburst::run_trickle(cfg, budget);
            println!("{}", wburst::format_trickle(&r));
            sink.emit_with(name, "trickle", Some(&cfg), budget, |m| {
                wburst::register_trickle(m, &r)
            });
        }
        "forecast" => {
            let cfg = obs::default_config();
            let study = forecast_study(cfg, budget);
            println!("{}", format_forecast(&study));
            sink.emit_with(name, "Forecast vs simulation", Some(&cfg), budget, |m| {
                register_forecast(m, &study)
            });
            if !study.all_within_tolerance() {
                eprintln!(
                    "error: forecast outside the {:.0}% tolerance — the closed form no longer \
                     describes the simulated compressed cache",
                    study.tolerance * 100.0
                );
                std::process::exit(1);
            }
        }
        // fig13..fig18: each sensitivity study's wear and IPC figures.
        _ => {
            let fig = |n: u32| name == format!("fig{n}");
            let which = Sensitivity::ALL
                .into_iter()
                .find(|s| fig(s.wear_figure()) || fig(s.ipc_figure()))
                .expect("every study name has a dispatch arm");
            let base = obs::default_config();
            let study = sensitivity::run(which, base, budget);
            let text = if fig(which.wear_figure()) {
                sensitivity::format_wear(which, &study)
            } else {
                sensitivity::format_ipc(which, &study)
            };
            println!("{text}");
            obs::emit_study_manifest(sink, name, Some(&which.config(base)), budget, &study);
        }
    }
}

/// The full paper run: every study, sharing simulations.
fn run_all(sink: &StatsSink, budget: Budget) {
    let t0 = Instant::now();

    let rows = table2::run(budget);
    println!("{}", table2::format_table2(&rows));
    println!("{}", table2::format_fig2(&rows));

    let f5 = criticality::run(budget);
    println!("{}", criticality::format_fig5(&f5));

    let ps = predictor_study::run(budget, &CptConfig::THRESHOLD_SWEEP);
    println!("{}", predictor_study::format_fig7(&ps));
    println!("{}", predictor_study::format_fig8(&ps));
    println!("{}", predictor_study::format_fig9(&ps));

    let base = obs::default_config();
    let main_study = lifetime::run("Actual Results", base, budget);
    println!("{}", lifetime::format_fig3(&main_study));
    println!("{}", lifetime::format_fig4b(&main_study));
    println!("{}", lifetime::format_fig11(&main_study));
    println!("{}", lifetime::format_fig12(&main_study));
    println!("{}", lifetime::headline(&main_study));

    let mut studies = vec![main_study];
    for s in Sensitivity::ALL {
        let st = sensitivity::run(s, base, budget);
        println!("{}", sensitivity::format_wear(s, &st));
        println!("{}", sensitivity::format_ipc(s, &st));
        studies.push(st);
    }
    let t3 = table3::Table3 { studies };
    println!("{}", table3::format_table3(&t3));

    sink.emit_with("all", "full paper run", None, budget, |m| {
        obs::register_table2(m.stats_mut(), &rows);
        obs::register_fig5(m.stats_mut(), &f5, criticality::average(&f5));
        obs::register_predictor(m.stats_mut(), &ps);
        obs::register_multi_study(m, &t3.studies);
    });
    eprintln!("total wall time: {:?}", t0.elapsed());
}

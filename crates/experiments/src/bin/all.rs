//! Regenerate the paper's tables and figures, and run the related-work
//! studies: `all [--stats <path>] [STUDY ...]`.
//!
//! The named studies run in order, each printing exactly what it prints
//! alone, and share their sweeps and grid points ([`Sweeps`]). With no
//! name, `all` runs the [`PAPER`] list, the full paper run. A manifest describes one study
//! (`binary` is the study name) or the full paper run (`binary` is `all`).
//! An unknown name, a repeated name, an unknown flag, `--stats` without a
//! path or a manifest for two or more studies exits with status 2 before
//! any simulation; a failed `forecast` gate makes the call exit 1.
use cmp_sim::SystemConfig;
use experiments::figures::lifetime::{self, MainStudy};
use experiments::figures::predictor_study::{self, PredictorStudy};
use experiments::figures::sensitivity::{self, Sensitivity};
use experiments::figures::table2::{self, Table2Row};
use experiments::figures::{ablations, capacity, criticality, headtohead, table3, wburst};
use experiments::forecast::{forecast_study, format_forecast, register_forecast};
use experiments::runner::{one_core, Points};
use experiments::{obs, Budget, StatsSink};
use renuca_core::CptConfig;
use std::cell::OnceCell;
use std::time::Instant;

/// Every study name `all` accepts: the paper's in paper order, then the
/// related-work studies.
const STUDIES: &str = "table2 fig2 fig3 fig4b fig5 fig7 fig8 fig9 fig11 fig12 \
                       fig13 fig14 fig15 fig16 fig17 fig18 table3 ablations capacity \
                       headtohead wburst trickle forecast";

/// The full paper run: the studies `all` runs when no name is given.
const PAPER: &str = "table2 fig2 fig5 fig7 fig8 fig9 fig3 fig4b fig11 fig12 \
                     fig13 fig14 fig15 fig16 fig17 fig18 table3";

/// The command line: study names from [`STUDIES`], each at most once, and
/// where the manifest goes: `--stats <path>` or `--stats=<path>`, else the
/// `RENUCA_STATS` environment variable, else nowhere. Any other argument,
/// a repeated name, a second `--stats`, one without a path or a manifest
/// destination with two or more names is an input error.
fn parse_args() -> Result<(Vec<String>, StatsSink), String> {
    let (mut names, mut stats) = (Vec::<String>::new(), None);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let path = match a.strip_prefix("--stats=") {
            Some(p) => Some(p.to_owned()),
            None if a == "--stats" => Some(args.next().unwrap_or_default()),
            None => None,
        };
        match path {
            Some(p) if p.is_empty() => return Err("--stats requires a path".into()),
            Some(_) if stats.is_some() => return Err("--stats given twice".into()),
            Some(p) => stats = Some(p),
            None if !STUDIES.split_whitespace().any(|n| n == a) => {
                return Err(format!("unknown study or flag `{a}`"))
            }
            None if names.contains(&a) => return Err(format!("study `{a}` named twice")),
            None => names.push(a),
        }
    }
    let stats = stats.or_else(|| std::env::var("RENUCA_STATS").ok().filter(|p| !p.is_empty()));
    if stats.is_some() && names.len() > 1 {
        return Err("a manifest (--stats or RENUCA_STATS) describes one study".into());
    }
    Ok((names, stats.map_or_else(StatsSink::default, StatsSink::to)))
}

fn main() {
    let (names, sink) = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: all [--stats <path>] [STUDY ...]\nstudies: {STUDIES}");
        std::process::exit(2)
    });
    let budget = Budget::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    let sweeps = Sweeps {
        base: obs::default_config(),
        budget,
        apps: OnceCell::new(),
        predictor: OnceCell::new(),
        points: Points::default(),
    };
    if names.is_empty() {
        let t0 = Instant::now();
        for name in PAPER.split_whitespace() {
            run_study(name, &sweeps, &StatsSink::default());
        }
        sink.emit_with("all", "full paper run", None, budget, |m| {
            obs::register_table2(m.stats_mut(), sweeps.apps());
            obs::register_fig5(m.stats_mut(), sweeps.apps());
            obs::register_predictor(m.stats_mut(), sweeps.predictor());
            obs::register_multi_study(m, &sweeps.table3());
        });
        eprintln!("total wall time: {:?}", t0.elapsed());
    } else {
        let mut passed = true;
        for name in &names {
            passed &= run_study(name, &sweeps, &sink);
        }
        if !passed {
            std::process::exit(1);
        }
    }
}

/// What the studies read, all on one base machine, each simulated on first
/// use and so at most once per call: the 22 single-app runs (Table II,
/// Figures 2 and 5), the predictor sweep (Figures 7–9) and the multi-core
/// grid [`Points`] that every other study but `ablations` reads.
struct Sweeps {
    base: SystemConfig,
    budget: Budget,
    apps: OnceCell<Vec<Table2Row>>,
    predictor: OnceCell<PredictorStudy>,
    points: Points,
}

impl Sweeps {
    fn apps(&self) -> &[Table2Row] {
        self.apps
            .get_or_init(|| table2::run(self.base, self.budget))
    }

    fn predictor(&self) -> &PredictorStudy {
        self.predictor.get_or_init(|| {
            predictor_study::run(self.base, self.budget, &CptConfig::THRESHOLD_SWEEP)
        })
    }

    fn main(&self) -> MainStudy {
        lifetime::run(&self.points, "Actual Results", self.base, self.budget)
    }

    fn sensitivity(&self, which: Sensitivity) -> MainStudy {
        sensitivity::run(&self.points, which, self.base, self.budget)
    }

    /// Table III's rows: the main study, then each sensitivity study.
    fn table3(&self) -> Vec<MainStudy> {
        let sensitivity = Sensitivity::ALL.map(|s| self.sensitivity(s));
        std::iter::once(self.main()).chain(sensitivity).collect()
    }
}

/// Run the one study `name` (a member of [`STUDIES`]) on `sweeps`, print
/// it and write its manifest through `sink`. False when its gate failed.
fn run_study(name: &str, sweeps: &Sweeps, sink: &StatsSink) -> bool {
    let (base, budget, points) = (sweeps.base, sweeps.budget, &sweeps.points);
    match name {
        "table2" | "fig2" => {
            let rows = sweeps.apps();
            let text = match name {
                "fig2" => table2::format_fig2(rows),
                _ => table2::format_table2(rows),
            };
            println!("{text}");
            sink.emit_with(name, "app characteristics", None, budget, |m| {
                obs::register_table2(m.stats_mut(), rows)
            });
        }
        "fig5" => {
            let rows = sweeps.apps();
            println!("{}", criticality::format_fig5(rows));
            sink.emit_with(name, "ROB-stall criticality", None, budget, |m| {
                obs::register_fig5(m.stats_mut(), rows)
            });
        }
        "fig3" | "fig4b" | "fig11" | "fig12" | "capacity" => {
            let study = &sweeps.main();
            let text = match name {
                "fig3" => lifetime::format_fig3(study),
                "fig4b" => lifetime::format_fig4b(study),
                "fig11" => lifetime::format_fig11(study) + "\n" + &lifetime::headline(study),
                "fig12" => lifetime::format_fig12(study) + "\n" + &lifetime::headline(study),
                _ => capacity::format_retention(study, 16.0, 9),
            };
            println!("{text}");
            sink.emit_with(name, study.label, Some(&base), budget, |m| {
                obs::register_study(m, study)
            });
        }
        "fig7" | "fig8" | "fig9" => {
            let study = sweeps.predictor();
            let text = match name {
                "fig7" => predictor_study::format_fig7(study),
                "fig8" => predictor_study::format_fig8(study),
                _ => predictor_study::format_fig9(study),
            };
            println!("{text}");
            sink.emit_with(name, "predictor threshold sweep", None, budget, |m| {
                obs::register_predictor(m.stats_mut(), study)
            });
        }
        "table3" => {
            let studies = sweeps.table3();
            println!("{}", table3::format_table3(&studies));
            sink.emit_with(name, "raw minimum lifetimes", None, budget, |m| {
                obs::register_multi_study(m, &studies)
            });
        }
        "ablations" => {
            let budget = budget.sweep();
            let text = ablations::run_all(base, budget);
            println!("{text}");
            sink.emit_with(name, "DESIGN.md §7 ablations", None, budget, |m| {
                m.stats_mut().set("output.bytes", text.len() as u64);
            });
        }
        "headtohead" => {
            let rows = headtohead::run(points, base, budget);
            println!("{}", headtohead::format(&rows));
            sink.emit_with(name, "Head-to-head", Some(&base), budget, |m| {
                headtohead::register(m, &rows)
            });
        }
        "wburst" => {
            let cells = wburst::run(points, base, budget);
            println!("{}", wburst::format(&cells));
            sink.emit_with(name, "Write-burst saturation", Some(&base), budget, |m| {
                wburst::register(m, &cells)
            });
        }
        "trickle" => {
            let cfg = one_core(base);
            let p = wburst::trickle(points, cfg, budget);
            println!("{}", wburst::format_trickle(&p));
            sink.emit_with(name, "trickle", Some(&cfg), budget, |m| {
                wburst::register_trickle(m, &p)
            });
        }
        "forecast" => {
            let study = forecast_study(points, base, budget);
            println!("{}", format_forecast(&study));
            sink.emit_with(name, "Forecast vs simulation", Some(&base), budget, |m| {
                register_forecast(m, &study)
            });
            if !study.all_within_tolerance() {
                eprintln!(
                    "error: forecast outside the {:.0}% tolerance — the closed form no longer \
                     describes the simulated compressed cache",
                    study.tolerance * 100.0
                );
                return false;
            }
        }
        // fig13..fig18: each sensitivity study's wear and IPC figures.
        _ => {
            let fig = |n: u32| name == format!("fig{n}");
            let which = Sensitivity::ALL
                .into_iter()
                .find(|s| fig(s.wear_figure()) || fig(s.ipc_figure()))
                .expect("every study name has a dispatch arm");
            let study = &sweeps.sensitivity(which);
            let text = if fig(which.wear_figure()) {
                sensitivity::format_wear(which, study)
            } else {
                sensitivity::format_ipc(which, study)
            };
            println!("{text}");
            let cfg = which.config(base);
            sink.emit_with(name, study.label, Some(&cfg), budget, |m| {
                obs::register_study(m, study)
            });
        }
    }
    true
}

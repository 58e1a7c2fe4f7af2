//! Regenerate every table and figure of the paper in one run, sharing
//! simulations where possible (the main study feeds Figures 3, 4b, 11, 12
//! and Table III's first row; each sensitivity study feeds two figures and
//! one Table III row).
use experiments::figures::{criticality, lifetime, predictor_study, sensitivity, table2, table3};
use experiments::obs;
use renuca_core::CptConfig;
use std::time::Instant;

fn main() {
    let (sink, budget) = obs::standard_args();
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
    for s in [
        sensitivity::Sensitivity::L2Small,
        sensitivity::Sensitivity::L3Small,
        sensitivity::Sensitivity::RobLarge,
    ] {
        let st = sensitivity::run(s, base, budget);
        println!("{}", sensitivity::format_wear(s, &st));
        println!("{}", sensitivity::format_ipc(s, &st));
        studies.push(st);
    }
    let t3 = table3::Table3 { studies };
    println!("{}", table3::format_table3(&t3));

    // Persist the raw study data for external plotting/analysis.
    let mut json = String::from("{\n");
    for (i, study) in t3.studies.iter().enumerate() {
        json.push_str(&format!("  \"{}\": [", study.label));
        let docs: Vec<String> = study.studies.iter().map(|s| s.to_json()).collect();
        json.push_str(&docs.join(", "));
        json.push_str(if i + 1 < t3.studies.len() {
            "],\n"
        } else {
            "]\n"
        });
    }
    json.push_str("}\n");
    if let Err(e) = std::fs::write("results.json", &json) {
        eprintln!("could not write results.json: {e}");
    } else {
        eprintln!("raw study data written to results.json");
    }

    sink.emit_with("all", "full paper run", None, budget, |m| {
        obs::register_table2(m.stats_mut(), &rows);
        obs::register_fig5(m.stats_mut(), &f5, criticality::average(&f5));
        obs::register_predictor(m.stats_mut(), &ps);
        obs::register_multi_study(m, &t3.studies);
    });
    eprintln!("total wall time: {:?}", t0.elapsed());
}

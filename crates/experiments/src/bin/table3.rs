//! Regenerate Table III (raw minimum lifetimes, 4 configs x 5 schemes).
use experiments::figures::table3;
use experiments::obs;

fn main() {
    let (sink, budget) = obs::standard_args();
    let t3 = table3::run(obs::default_config(), budget);
    println!("{}", table3::format_table3(&t3));
    sink.emit_with("table3", "raw minimum lifetimes", None, budget, |m| {
        obs::register_multi_study(m, &t3.studies)
    });
}

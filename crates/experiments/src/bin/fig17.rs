//! Regenerate Figure 17 (sensitivity study: ROB = 168, wear).
use experiments::figures::sensitivity::{self, Sensitivity};
use experiments::obs;

fn main() {
    let (sink, budget) = obs::standard_args();
    let which = Sensitivity::RobLarge;
    let base = obs::default_config();
    let study = sensitivity::run(which, base, budget);
    println!("{}", sensitivity::format_wear(which, &study));
    obs::emit_study_manifest(&sink, "fig17", Some(&which.config(base)), budget, &study);
}

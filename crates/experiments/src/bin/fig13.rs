//! Regenerate Figure 13 (sensitivity study: L2 = 128 KB, wear).
use experiments::figures::sensitivity::{self, Sensitivity};
use experiments::obs;

fn main() {
    let (sink, budget) = obs::standard_args();
    let which = Sensitivity::L2Small;
    let base = obs::default_config();
    let study = sensitivity::run(which, base, budget);
    println!("{}", sensitivity::format_wear(which, &study));
    obs::emit_study_manifest(&sink, "fig13", Some(&which.config(base)), budget, &study);
}

//! Regenerate Figure 18 (sensitivity study: ROB = 168, IPC).
use experiments::figures::sensitivity::{self, Sensitivity};
use experiments::obs;

fn main() {
    let (sink, budget) = obs::standard_args();
    let which = Sensitivity::RobLarge;
    let base = obs::default_config();
    let study = sensitivity::run(which, base, budget);
    println!("{}", sensitivity::format_ipc(which, &study));
    obs::emit_study_manifest(&sink, "fig18", Some(&which.config(base)), budget, &study);
}

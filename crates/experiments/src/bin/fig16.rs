//! Regenerate Figure 16 (sensitivity study: L3 bank = 1 MB, IPC).
use experiments::figures::sensitivity::{self, Sensitivity};
use experiments::obs;

fn main() {
    let (sink, budget) = obs::standard_args();
    let which = Sensitivity::L3Small;
    let base = obs::default_config();
    let study = sensitivity::run(which, base, budget);
    println!("{}", sensitivity::format_ipc(which, &study));
    obs::emit_study_manifest(&sink, "fig16", Some(&which.config(base)), budget, &study);
}

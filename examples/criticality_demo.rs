//! Watch the Criticality Predictor Table learn (paper §IV.A/§IV.B).
//!
//! Runs two contrasting applications alone — `mcf` (isolated,
//! dependence-bound misses: critical) and `lbm` (deeply overlapped
//! streaming misses: non-critical) — with a CPT observing every load, and
//! prints what the predictor learned: the prediction mix, its accuracy
//! against the ROB-head ground truth, and how criticality splits the
//! fetched cache blocks.
//!
//! Run with:
//! ```text
//! cargo run --release --example criticality_demo
//! ```

use renuca::experiments::run_app;
use renuca::prelude::*;

fn main() {
    let budget = Budget {
        warmup: 50_000,
        measure: 400_000,
    };

    println!("Criticality threshold x = 3% (the paper's choice)\n");
    for name in ["mcf", "lbm", "omnetpp", "povray"] {
        let spec = app_by_name(name).expect("app in table");
        let r = run_app(spec, CptConfig::default(), budget);
        let c = &r.per_core[0];
        let cs = c.core_stats;
        let pred = c.predictor;
        let total_pred = pred.predicted_critical + pred.predicted_noncritical;
        let h = r.hierarchy;

        println!("{name}:");
        println!(
            "  loads: {} committed, {:.1}% never blocked the ROB head",
            cs.loads_committed.get(),
            cs.noncritical_load_fraction() * 100.0
        );
        println!(
            "  CPT predictions: {:.1}% critical ({} of {})",
            pred.predicted_critical as f64 * 100.0 / total_pred.max(1) as f64,
            pred.predicted_critical,
            total_pred
        );
        println!(
            "  accuracy: recall of critical loads {:.1}%, overall {:.1}%",
            cs.critical_recall() * 100.0,
            cs.prediction_accuracy() * 100.0
        );
        println!(
            "  fetched blocks predicted non-critical: {:.1}%  (these spread via S-NUCA)",
            h.l3_fills_noncritical.get() as f64 * 100.0 / h.l3_fills.get().max(1) as f64
        );
        println!(
            "  L3 writes attributed to non-critical blocks: {:.1}%\n",
            h.l3_writes_noncritical.get() as f64 * 100.0 / h.l3_writes.get().max(1) as f64
        );
    }

    println!("Expected shape: mcf's isolated misses are critical (low");
    println!("non-critical shares); lbm's overlapped stream is almost entirely");
    println!("non-critical — the write traffic Re-NUCA can spread for free.");
}

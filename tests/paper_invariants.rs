//! The paper's qualitative claims, asserted end-to-end at reduced scale.
//!
//! These are the *shape* properties the reproduction must preserve (margins
//! are deliberately generous — exact factors are measured by the benchmark
//! harness, not asserted here):
//!
//! * S-NUCA and the Naive oracle wear-level (low variation);
//! * R-NUCA and Private concentrate writes (high variation);
//! * Re-NUCA wear-levels better than R-NUCA and its minimum lifetime beats
//!   R-NUCA's (the +42% headline);
//! * the Naive oracle pays for its directory with performance;
//! * Re-NUCA's throughput stays close to R-NUCA's.

use renuca::prelude::*;
use renuca::wear::lifetime_variation;

struct Outcome {
    ipc: f64,
    variation: f64,
    min_lifetime: f64,
}

fn run(scheme: Scheme) -> Outcome {
    // The full 16-core machine, one representative workload, short window.
    // The paper's published numbers come from a flat 100-cycle L3 bank
    // (Table I, gem5 classic), so the shape claims are asserted on that
    // machine: `with_symmetric_llc` maps the per-bank service model back
    // to it exactly. The asymmetric ReRAM default is exercised by the
    // write-burst saturation scenario (EXPERIMENTS.md) instead — under
    // bank write-occupancy the schemes trade differently, which is the
    // point of that study.
    let cfg = SystemConfig::default().with_symmetric_llc();
    let wl = workload_mix(1, cfg.n_cores);
    let mut sys = System::new(
        cfg,
        scheme.build_policy(&cfg),
        wl.build_sources(),
        scheme.build_predictors(&cfg, CptConfig::default()),
    );
    sys.prewarm();
    sys.warmup(40_000);
    sys.run(40_000);
    let r = sys.result();
    let model = LifetimeModel::default();
    let lifetimes = model.all_bank_lifetimes(&r.wear, r.cycles);
    Outcome {
        ipc: r.total_ipc(),
        variation: lifetime_variation(&lifetimes),
        min_lifetime: lifetimes.iter().cloned().fold(f64::INFINITY, f64::min),
    }
}

#[test]
fn wear_leveling_and_performance_shape() {
    let naive = run(Scheme::Naive);
    let snuca = run(Scheme::SNuca);
    let renuca = run(Scheme::ReNuca);
    let rnuca = run(Scheme::RNuca);
    let private = run(Scheme::Private);

    // --- Wear-leveling ordering (Figures 3 and 12) ---
    assert!(
        naive.variation < 0.1,
        "Naive must level near-perfectly, CV={}",
        naive.variation
    );
    assert!(
        snuca.variation < 0.1,
        "S-NUCA must level, CV={}",
        snuca.variation
    );
    assert!(
        rnuca.variation > 0.5,
        "R-NUCA must concentrate writes, CV={}",
        rnuca.variation
    );
    assert!(
        private.variation > 0.5,
        "Private must concentrate writes, CV={}",
        private.variation
    );
    assert!(
        renuca.variation < rnuca.variation,
        "Re-NUCA ({}) must wear-level better than R-NUCA ({})",
        renuca.variation,
        rnuca.variation
    );

    // --- The headline: minimum lifetime (Table III ordering) ---
    assert!(
        renuca.min_lifetime > rnuca.min_lifetime,
        "Re-NUCA min lifetime ({:.2}y) must beat R-NUCA ({:.2}y)",
        renuca.min_lifetime,
        rnuca.min_lifetime
    );
    assert!(
        naive.min_lifetime >= renuca.min_lifetime * 0.9,
        "the oracle must (about) dominate everyone"
    );

    // --- Performance (Figure 11 / §V.B) ---
    assert!(
        naive.ipc < snuca.ipc,
        "Naive ({:.2}) must pay for its directory vs S-NUCA ({:.2})",
        naive.ipc,
        snuca.ipc
    );
    assert!(
        renuca.ipc > rnuca.ipc * 0.93,
        "Re-NUCA ({:.2}) must stay close to R-NUCA ({:.2})",
        renuca.ipc,
        rnuca.ipc
    );
    assert!(
        renuca.ipc > naive.ipc,
        "Re-NUCA must clearly beat the oracle on performance"
    );
}

#[test]
fn criticality_predictor_separates_app_classes() {
    // lbm (streaming) must classify far more of its fetched blocks
    // non-critical than mcf's chase-heavy stream at the paper's threshold.
    use renuca::experiments::run_app;
    let budget = Budget {
        warmup: 30_000,
        measure: 120_000,
    };
    let pct_noncrit = |name: &str| {
        let spec = app_by_name(name).unwrap();
        let r = run_app(spec, CptConfig::default(), budget);
        let h = r.hierarchy;
        h.l3_fills_noncritical.get() as f64 * 100.0 / h.l3_fills.get().max(1) as f64
    };
    let lbm = pct_noncrit("lbm");
    let mcf = pct_noncrit("mcf");
    assert!(
        lbm > 55.0,
        "lbm's stream must be mostly non-critical: {lbm:.1}%"
    );
    assert!(
        mcf < lbm,
        "mcf ({mcf:.1}%) must be more critical than lbm ({lbm:.1}%)"
    );
}

#[test]
fn table2_intensity_classes_reproduce() {
    use renuca::experiments::figures::table2;
    use renuca::workloads::WriteIntensity;
    let rows = table2::run(Budget {
        warmup: 40_000,
        measure: 150_000,
    });
    // Spot-check the anchors of each class.
    let get = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
    assert_eq!(get("mcf").intensity(), WriteIntensity::High);
    assert_eq!(get("streamL").intensity(), WriteIntensity::High);
    assert_eq!(get("povray").intensity(), WriteIntensity::Low);
    assert_eq!(get("GemsFDTD").intensity(), WriteIntensity::Low);
    // Most classes must match the paper's. Boundary apps (e.g. omnetpp,
    // whose WPKI needs several full L2 churns to reach steady state) may
    // drop a class at this reduced test budget.
    let matches = rows
        .iter()
        .filter(|r| r.intensity() == r.paper_intensity())
        .count();
    assert!(
        matches >= 17,
        "only {matches}/22 intensity classes match Table II"
    );
}

//! Forecast-vs-simulation cross-check for the compressed LLC.
//!
//! The L2C2 analytical procedure (`compress::forecast`) predicts the
//! compressed cache's per-bank lifetime from the *uncompressed* run alone:
//! `forecast(bank) = lifetime_uncompressed(bank) × S / E[c]`. This module
//! runs both sides of the prediction — Re-NUCA uncompressed as the input,
//! Re-NUCA-C2 fully simulated (sub-block wear, expansions, bank occupancy)
//! as the ground truth — and reports the relative error on the lifetime
//! aggregates (raw minimum and harmonic mean over banks) per workload.
//!
//! The comparison is **iso-timing**: simulated compressed wear is evaluated
//! over the *baseline's* cycle window, because the closed form predicts the
//! wear effect of compression under the L2C2 assumption that performance is
//! unchanged. Our simulator additionally models a performance effect the
//! closed form deliberately omits — expansion re-fills occupy the slow
//! ReRAM write ports, stretching the compressed run's wall-clock and (in a
//! rate-based lifetime model) inflating its lifetime beyond the wear gain.
//! That timing effect is surfaced separately as [`ForecastRow::slowdown`]
//! rather than being allowed to contaminate the wear cross-check.
//!
//! The `forecast` binary sweeps WL1–WL10 and WB1–WB4 and **fails** (exit 1)
//! when any workload's error exceeds [`compress::FORECAST_TOLERANCE`]; the
//! CI forecast smoke runs the same gate at a reduced budget. Together with
//! the golden-model differential check this gives the compression subsystem
//! two independent verification paths: state-exact (golden) and
//! closed-form (forecast).

use cmp_sim::config::SystemConfig;
use renuca_core::{CptConfig, Scheme};
use sim_stats::hmean;
use wear_model::LifetimeModel;
use workloads::workload_mix;

use crate::budget::Budget;
use crate::pool::parallel_map;
use crate::runner::run_workload;

/// One workload's forecast-vs-simulation comparison.
#[derive(Clone, Debug)]
pub struct ForecastRow {
    /// Workload label (`WL3`, `WB2`, `trickle`; `WorkloadMix::name`).
    pub label: String,
    /// Workload id (as accepted by `workloads::workload_mix`).
    pub id: usize,
    /// Uncompressed (Re-NUCA) raw-minimum bank lifetime in years — the
    /// forecast's only input.
    pub base_min_years: f64,
    /// Simulated compressed (Re-NUCA-C2) raw-minimum bank lifetime,
    /// evaluated over the baseline's cycle window (iso-timing; the
    /// wall-clock lifetime is this × [`ForecastRow::slowdown`]).
    pub sim_min_years: f64,
    /// Forecast raw-minimum bank lifetime (`base × gain`).
    pub forecast_min_years: f64,
    /// Simulated compressed per-bank lifetimes (iso-timing, for heatmaps).
    pub sim_per_bank: Vec<f64>,
    /// Compressed-run cycle stretch relative to the baseline
    /// (`sim.cycles / base.cycles`, > 1 when expansions slow the machine).
    /// The closed form does not predict this term; it is reported so the
    /// performance cost of expansions stays visible.
    pub slowdown: f64,
    /// Relative error of the forecast on the lifetime aggregates: the
    /// worse of the raw-minimum and harmonic-mean errors. The gate runs on
    /// aggregates, not individual banks — per-bank write counts carry
    /// finite-sample class noise *and* timing drift (expansions shift CPT
    /// training, which shifts placement), while the aggregates the study
    /// family actually reports are stable.
    pub rel_err: f64,
}

/// The full cross-check: one row per workload, plus the geometry the
/// forecast was evaluated at.
#[derive(Clone, Debug)]
pub struct ForecastStudy {
    /// Sub-blocks per line the compressed scheme ran with.
    pub sub_blocks: usize,
    /// The closed-form lifetime gain `S / E[c]`.
    pub gain: f64,
    /// The documented acceptance tolerance.
    pub tolerance: f64,
    /// Per-workload comparisons, in sweep order.
    pub rows: Vec<ForecastRow>,
}

impl ForecastStudy {
    /// The worst relative error over all workloads and banks.
    pub fn max_rel_err(&self) -> f64 {
        self.rows.iter().map(|r| r.rel_err).fold(0.0, f64::max)
    }

    /// Whether every workload is inside the tolerance — the gate the
    /// `forecast` binary and the CI smoke enforce.
    pub fn all_within_tolerance(&self) -> bool {
        self.rows.iter().all(|r| r.rel_err <= self.tolerance)
    }
}

/// Relative error that treats a shared infinity (an unwritten bank on
/// both sides) as exact agreement and a one-sided infinity as maximal
/// disagreement.
fn rel_err(forecast: f64, sim: f64) -> f64 {
    match (forecast.is_finite(), sim.is_finite()) {
        (true, true) => (forecast - sim).abs() / sim,
        (false, false) => 0.0,
        _ => f64::INFINITY,
    }
}

/// Cross-check one workload: simulate Re-NUCA (forecast input) and
/// Re-NUCA-C2 (ground truth) and apply the closed form per bank.
///
/// The comparison lifts `model`'s lifetime cap: the cap is a plotting
/// convenience that saturates lightly-written banks at `cap_years` and
/// would break the forecast's linear scaling exactly there (a capped
/// baseline forecasts past a capped simulation). Unwritten banks are
/// infinite on both sides and compare as exact agreement.
pub fn forecast_workload(
    id: usize,
    cfg: SystemConfig,
    cpt: CptConfig,
    budget: Budget,
    model: &LifetimeModel,
) -> ForecastRow {
    let wl = workload_mix(id, cfg.n_cores);
    let base = run_workload(&wl, Scheme::ReNuca, cfg, cpt, budget);
    let sim = run_workload(&wl, Scheme::ReNucaC2, cfg, cpt, budget);

    let uncapped = LifetimeModel {
        cap_years: f64::INFINITY,
        ..*model
    };
    // Iso-timing: both sides ran the same instruction budget; evaluating
    // the compressed wear over the baseline's window isolates the wear
    // effect the closed form predicts from the timing effect it omits
    // (see the module docs). The timing term survives as `slowdown`.
    let base_years = uncapped.all_bank_lifetimes(&base.wear, base.cycles);
    let sim_years = uncapped.all_bank_lifetimes(&sim.wear, base.cycles);
    let forecast_years = compress::forecast_bank_lifetimes(&base_years, cfg.l3_subblocks);

    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    // In `hmean` an unwritten (infinite-lifetime) bank adds a zero
    // reciprocal, as in every lifetime figure.
    let worst = f64::max(
        rel_err(min(&forecast_years), min(&sim_years)),
        rel_err(hmean(&forecast_years), hmean(&sim_years)),
    );
    ForecastRow {
        label: wl.name(),
        id,
        base_min_years: min(&base_years),
        sim_min_years: min(&sim_years),
        forecast_min_years: min(&forecast_years),
        sim_per_bank: sim_years,
        slowdown: sim.cycles as f64 / base.cycles as f64,
        rel_err: worst,
    }
}

/// Run the cross-check over `ids` (typically WL1–WL10 then WB1–WB4),
/// workloads in parallel.
pub fn forecast_study(
    ids: &[usize],
    cfg: SystemConfig,
    cpt: CptConfig,
    budget: Budget,
    model: &LifetimeModel,
) -> ForecastStudy {
    let rows = parallel_map(&ids.to_vec(), |&id| {
        forecast_workload(id, cfg, cpt, budget, model)
    });
    ForecastStudy {
        sub_blocks: cfg.l3_subblocks,
        gain: compress::lifetime_gain(cfg.l3_subblocks),
        tolerance: compress::FORECAST_TOLERANCE,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::lifetime_model;

    /// A budget big enough for the realized class distribution to settle
    /// but still cheap for a unit test.
    fn prop_budget() -> Budget {
        Budget {
            warmup: 5_000,
            measure: 60_000,
        }
    }

    #[test]
    fn forecast_matches_simulation_on_odd_meshes() {
        // The closed form must hold on 1-, 3-, 6- and 12-core machines,
        // including non-power-of-two meshes where placement stripes by
        // modulo — geometry must not leak into the lifetime scaling.
        for (cols, rows) in [(1usize, 1usize), (3, 1), (3, 2), (4, 3)] {
            let cfg = SystemConfig::mesh(cols, rows);
            let model = lifetime_model(&cfg);
            let row = forecast_workload(1, cfg, CptConfig::default(), prop_budget(), &model);
            assert!(
                row.rel_err <= compress::FORECAST_TOLERANCE,
                "{cols}x{rows}: forecast off by {:.1}% (> {:.0}%): {row:?}",
                row.rel_err * 100.0,
                compress::FORECAST_TOLERANCE * 100.0
            );
            assert!(
                row.sim_min_years > row.base_min_years,
                "{cols}x{rows}: compression must extend the minimum lifetime"
            );
            assert!(
                row.slowdown >= 1.0,
                "{cols}x{rows}: expansion re-fills can only add cycles"
            );
        }
    }

    #[test]
    fn subblock_writes_conserve_line_writes() {
        // Write conservation at sub-block granularity: every line write
        // appears exactly once in the per-bank class histogram, and the
        // cell-write total equals the class-weighted sum of the histogram.
        let cfg = SystemConfig::small(4);
        let wl = workload_mix(2, cfg.n_cores);
        let r = run_workload(
            &wl,
            Scheme::ReNucaC2,
            cfg,
            CptConfig::default(),
            Budget::test(),
        );
        assert_eq!(r.compress_banks.len(), cfg.n_banks);
        let mut weighted = 0u64;
        let mut lines = 0u64;
        for (b, cb) in r.compress_banks.iter().enumerate() {
            let bank_lines: u64 = cb.class_writes.iter().sum();
            let bank_weighted: u64 = cb
                .class_writes
                .iter()
                .enumerate()
                .map(|(i, &n)| n * (1u64 << i))
                .sum();
            assert_eq!(
                bank_lines,
                r.wear.bank_totals()[b],
                "bank {b}: class histogram must cover every line write"
            );
            assert_eq!(
                bank_weighted,
                r.wear.subblock_bank_writes(b),
                "bank {b}: cell writes must equal the class-weighted histogram"
            );
            weighted += bank_weighted;
            lines += bank_lines;
        }
        assert_eq!(lines, r.wear.total_writes());
        assert_eq!(weighted, r.wear.subblock_total_writes());
        assert!(weighted > lines, "some write must compress below full line");
        assert!(weighted < lines * cfg.l3_subblocks as u64);
        // Per-slot sandwich: a slot's cell writes are bounded by its line
        // writes (all class 1) and line writes × sub-blocks (all class 4).
        for b in 0..cfg.n_banks {
            for s in 0..cfg.l3_bank.lines() {
                let lw = r.wear.slot_writes(b, s);
                let cw = r.wear.subblock_slot_sum(b, s);
                assert!(lw <= cw && cw <= lw * cfg.l3_subblocks as u64);
            }
        }
    }
}

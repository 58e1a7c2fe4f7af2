//! Simulation code shared by all experiments: one simulate path, a
//! multi-core and a single-core entry point, and the per-scheme aggregate.

use cmp_sim::config::SystemConfig;
use cmp_sim::system::{SimResult, System};
use cmp_sim::{CriticalityPredictor, InstrSource, LlcPlacement};
use renuca_core::{Cpt, CptConfig, Scheme};
use wear_model::{hmean_lifetime_per_bank, lifetime_variation, raw_min_lifetime, LifetimeModel};
use workloads::{workload_mix, AppModel, AppSpec, WorkloadMix, N_WORKLOADS};

use crate::budget::Budget;
use crate::pool::parallel_map;

/// Build the machine, prewarm it, warm it up and measure it.
pub(crate) fn simulate(
    cfg: SystemConfig,
    policy: Box<dyn LlcPlacement>,
    predictors: Vec<Box<dyn CriticalityPredictor>>,
    sources: Vec<Box<dyn InstrSource>>,
    budget: Budget,
) -> SimResult {
    let mut sys = System::new(cfg, policy, sources, predictors);
    sys.prewarm();
    sys.warmup(budget.warmup);
    sys.run(budget.measure);
    sys.result()
}

/// Run one multiprogrammed workload under one scheme and configuration.
pub fn run_workload(
    wl: &WorkloadMix,
    scheme: Scheme,
    cfg: SystemConfig,
    cpt: CptConfig,
    budget: Budget,
) -> SimResult {
    let policy = scheme.build_policy(&cfg);
    let predictors = scheme.build_predictors(&cfg, cpt);
    simulate(cfg, policy, predictors, wl.build_sources(), budget)
}

/// Run one application alone on the paper's single-core machine (2 MB
/// L3) under S-NUCA, with a CPT configured by `cpt` attached and block
/// criticality tracked: the setup of Table II, Figure 2, Figure 5 and the
/// predictor characterization (Figures 7–9). S-NUCA placement ignores the
/// predictions, so the CPT only classifies loads, fills and writes.
pub fn run_app(spec: &AppSpec, cpt: CptConfig, budget: Budget) -> SimResult {
    let mut cfg = SystemConfig::small(1);
    cfg.track_block_criticality = true;
    simulate(
        cfg,
        Scheme::SNuca.build_policy(&cfg),
        vec![Box::new(Cpt::new(cpt))],
        vec![Box::new(AppModel::new(*spec, 0x51_000))],
        budget,
    )
}

/// Aggregated results of one scheme over a set of workloads.
#[derive(Clone, Debug)]
pub struct SchemeStudy {
    /// The scheme.
    pub scheme: Scheme,
    /// `[workload][bank]` lifetimes in years.
    pub per_wl_bank_lifetimes: Vec<Vec<f64>>,
    /// Total IPC (throughput) per workload.
    pub per_wl_ipc: Vec<f64>,
    /// Per-bank harmonic-mean lifetime across workloads (Figures 3/12…).
    pub hmean_per_bank: Vec<f64>,
    /// Raw minimum lifetime over all banks and workloads (Table III).
    pub raw_min: f64,
    /// Coefficient of variation of the per-bank harmonic lifetimes.
    pub variation: f64,
}

impl SchemeStudy {
    /// Derive the aggregate from per-workload bank lifetimes (years) and
    /// per-workload total IPC, both in workload order.
    pub fn new(scheme: Scheme, per_wl_bank_lifetimes: Vec<Vec<f64>>, per_wl_ipc: Vec<f64>) -> Self {
        let hmean_per_bank = hmean_lifetime_per_bank(&per_wl_bank_lifetimes);
        let raw_min = raw_min_lifetime(&per_wl_bank_lifetimes);
        let variation = lifetime_variation(&hmean_per_bank);
        SchemeStudy {
            scheme,
            per_wl_bank_lifetimes,
            per_wl_ipc,
            hmean_per_bank,
            raw_min,
            variation,
        }
    }

    /// Mean of per-workload total IPC.
    pub fn mean_ipc(&self) -> f64 {
        sim_stats::amean(&self.per_wl_ipc)
    }

    /// Harmonic mean over banks of the harmonic-mean lifetimes (one scalar
    /// per scheme, the y-coordinate of Figure 4b).
    pub fn hmean_lifetime(&self) -> f64 {
        sim_stats::hmean(&self.hmean_per_bank)
    }
}

/// Run `scheme` over workloads WL1..WL10 under `cfg` and aggregate.
pub fn scheme_study(
    scheme: Scheme,
    cfg: SystemConfig,
    cpt: CptConfig,
    budget: Budget,
    lifetime: &LifetimeModel,
) -> SchemeStudy {
    let ids: Vec<usize> = (1..=N_WORKLOADS).collect();
    let results: Vec<SimResult> = parallel_map(&ids, |&id| {
        let wl = workload_mix(id, cfg.n_cores);
        run_workload(&wl, scheme, cfg, cpt, budget)
    });
    aggregate_study(scheme, &results, lifetime)
}

/// Aggregate per-workload results into a [`SchemeStudy`].
pub fn aggregate_study(
    scheme: Scheme,
    results: &[SimResult],
    lifetime: &LifetimeModel,
) -> SchemeStudy {
    SchemeStudy::new(
        scheme,
        results
            .iter()
            .map(|r| lifetime.all_bank_lifetimes(&r.wear, r.cycles))
            .collect(),
        results.iter().map(SimResult::total_ipc).collect(),
    )
}

/// The default lifetime model at `cfg`'s clock (paper endurance, uniform
/// intra-bank wear).
pub fn lifetime_model(cfg: &SystemConfig) -> LifetimeModel {
    LifetimeModel {
        freq_hz: cfg.freq_hz,
        ..LifetimeModel::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_app_run_produces_metrics() {
        let spec = workloads::app_by_name("lbm").unwrap();
        let r = run_app(spec, CptConfig::default(), Budget::test());
        assert_eq!(r.per_core.len(), 1);
        assert!(
            r.per_core[0].mpki > 1.0,
            "lbm must miss: {}",
            r.per_core[0].mpki
        );
        assert!(r.per_core[0].ipc > 0.0);
    }

    #[test]
    fn workload_run_spreads_writes_under_snuca() {
        let cfg = SystemConfig::small(4);
        let wl = workload_mix(1, 4);
        let r = run_workload(
            &wl,
            Scheme::SNuca,
            cfg,
            CptConfig::default(),
            Budget::test(),
        );
        let total: u64 = r.bank_writes.iter().sum();
        assert!(total > 0);
        // No bank should take more than half the writes under S-NUCA.
        for &w in &r.bank_writes {
            assert!(
                w * 2 <= total + total / 2,
                "bank writes {:?}",
                r.bank_writes
            );
        }
    }

    #[test]
    fn study_aggregation_shapes() {
        let cfg = SystemConfig::small(4);
        let model = lifetime_model(&cfg);
        let results: Vec<SimResult> = (1..=2)
            .map(|id| {
                let wl = workload_mix(id, 4);
                run_workload(
                    &wl,
                    Scheme::Private,
                    cfg,
                    CptConfig::default(),
                    Budget::test(),
                )
            })
            .collect();
        let study = aggregate_study(Scheme::Private, &results, &model);
        assert_eq!(study.per_wl_bank_lifetimes.len(), 2);
        assert_eq!(study.hmean_per_bank.len(), 4);
        assert!(study.raw_min > 0.0);
        assert!(study.mean_ipc() > 0.0);
    }
}

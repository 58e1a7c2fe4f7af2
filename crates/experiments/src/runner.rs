//! Simulation code shared by all experiments: one simulate path, a
//! multi-core and a single-core entry point, the memoised grid of
//! multi-core [`Point`]s and the per-scheme aggregate.

use cmp_sim::config::SystemConfig;
use cmp_sim::system::{SimResult, System};
use cmp_sim::{CriticalityPredictor, InstrSource, LlcPlacement};
use renuca_core::{Cpt, CptConfig, Scheme};
use wear_model::{hmean_lifetime_per_bank, lifetime_variation, raw_min_lifetime, LifetimeModel};
use workloads::{
    workload_mix, AppModel, AppSpec, WorkloadMix, N_WBURST, N_WORKLOADS, WBURST_ID_BASE,
};

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

/// `base` narrowed to one tile: one core, one L3 bank, a 1×1 mesh. On the
/// default base this is `SystemConfig::small(1)`, the paper's single-core
/// machine (2 MB L3).
pub fn one_core(mut base: SystemConfig) -> SystemConfig {
    (base.n_cores, base.n_banks, base.noc.cols, base.noc.rows) = (1, 1, 1, 1);
    base
}

/// Run one application alone on [`one_core`]`(base)` under S-NUCA, with a
/// CPT configured by `cpt` attached and block criticality tracked: the
/// setup of Table II, Figure 2, Figure 5 and the predictor
/// characterization (Figures 7–9). S-NUCA placement ignores the
/// predictions, so the CPT only classifies loads, fills and writes.
pub fn run_app(spec: &AppSpec, base: SystemConfig, cpt: CptConfig, budget: Budget) -> SimResult {
    let cfg = SystemConfig {
        track_block_criticality: true,
        ..one_core(base)
    };
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

    /// Derive the aggregate from per-workload [`Point`]s in workload order,
    /// each point's lifetimes taken over its own window.
    pub fn from_points(scheme: Scheme, points: &[Point], model: &LifetimeModel) -> Self {
        let lifetimes = points.iter().map(|p| p.lifetimes(model, p.cycles));
        let ipc = points.iter().map(|p| p.ipc);
        SchemeStudy::new(scheme, lifetimes.collect(), ipc.collect())
    }
}

/// The grid's workload ids: WL1–WL10, then the write-burst family WB1–WB4.
pub fn grid_ids() -> Vec<usize> {
    let wb = (1..=N_WBURST).map(|l| WBURST_ID_BASE + l);
    (1..=N_WORKLOADS).chain(wb).collect()
}

/// What a grid study reads from one multi-core run, computed once from
/// its [`SimResult`] so the result and its wear tracker can be dropped.
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    /// Total IPC.
    pub ipc: f64,
    /// Measured cycles: the run's own lifetime window.
    pub cycles: u64,
    /// Per-bank effective slot writes under [`lifetime_model`].
    pub slot_writes: Vec<f64>,
    /// Raw minimum bank lifetime in years under [`lifetime_model`].
    pub raw_min_years: f64,
    /// Read-side queue cycles per L3 bank.
    pub queue_cycles: Vec<u64>,
    /// L3 fills.
    pub l3_fills: u64,
    /// Inter-set write-variation CV at the config's associativity.
    pub interset_cv: f64,
    /// Intra-set write-variation CV at the config's associativity.
    pub intraset_cv: f64,
}

impl Point {
    /// Per-bank lifetimes in years under `model` over `window_cycles`: bit
    /// for bit `model.all_bank_lifetimes` of the run's wear tracker.
    pub fn lifetimes(&self, model: &LifetimeModel, window_cycles: u64) -> Vec<f64> {
        let years = |&w| model.years_over_window(w, window_cycles);
        self.slot_writes.iter().map(years).collect()
    }

    /// Queue cycles summed over banks.
    pub fn queue_total(&self) -> u64 {
        self.queue_cycles.iter().sum()
    }
}

/// The [`Point`]s every grid study reads, memoised by (scheme, machine,
/// budget, workload id) so each is simulated at most once per `Points`.
#[derive(Debug, Default)]
pub struct Points(std::cell::RefCell<Vec<(PointKey, Point)>>);

type PointKey = (Scheme, SystemConfig, Budget, usize);

impl Points {
    /// `schemes` × workload `ids` on `cfg` at `budget` with the default CPT,
    /// in `[scheme][workload]` order; only points not yet held are simulated.
    pub fn grid(
        &self,
        schemes: &[Scheme],
        ids: &[usize],
        cfg: SystemConfig,
        budget: Budget,
    ) -> Vec<Vec<Point>> {
        let key = |s, id| (s, cfg, budget, id);
        let row = |&s: &Scheme| ids.iter().map(move |&id| key(s, id));
        let held = |k: &_| self.0.borrow().iter().any(|(h, _)| h == k);
        let missing: Vec<_> = schemes.iter().flat_map(row).filter(|k| !held(k)).collect();
        let fresh = parallel_map(&missing, |&(s, cfg, budget, id)| {
            let wl = workload_mix(id, cfg.n_cores);
            let r = run_workload(&wl, s, cfg, CptConfig::default(), budget);
            let (model, assoc) = (lifetime_model(&cfg), cfg.l3_bank.assoc);
            let slot_writes = (0..r.wear.nbanks()).map(|b| model.effective_slot_writes(&r.wear, b));
            let queue_cycles = r.bank_service.iter().map(|b| b.queue_cycles.get());
            Point {
                ipc: r.total_ipc(),
                cycles: r.cycles,
                slot_writes: slot_writes.collect(),
                raw_min_years: raw_min_lifetime(&[model.all_bank_lifetimes(&r.wear, r.cycles)]),
                queue_cycles: queue_cycles.collect(),
                l3_fills: r.hierarchy.l3_fills.get(),
                interset_cv: r.wear.interset_cv(assoc),
                intraset_cv: r.wear.intraset_cv(assoc),
            }
        });
        let mut memo = self.0.borrow_mut();
        memo.extend(missing.into_iter().zip(fresh));
        let point = |k| memo.iter().find(|(h, _)| *h == k).expect("held").1.clone();
        let points = |s| row(s).map(&point).collect();
        schemes.iter().map(points).collect()
    }
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
        let r = run_app(
            spec,
            SystemConfig::default(),
            CptConfig::default(),
            Budget::test(),
        );
        assert_eq!(r.per_core.len(), 1);
        assert!(
            r.per_core[0].mpki > 1.0,
            "lbm must miss: {}",
            r.per_core[0].mpki
        );
        assert!(r.per_core[0].ipc > 0.0);
    }

    #[test]
    fn one_core_of_the_default_is_the_small_machine() {
        assert_eq!(one_core(SystemConfig::default()), SystemConfig::small(1));
    }

    #[test]
    fn single_app_run_takes_the_callers_base() {
        let spec = workloads::app_by_name("lbm").unwrap();
        let run = |base| run_app(spec, base, CptConfig::default(), Budget::test());
        let (asym, sym) = (
            run(SystemConfig::default()),
            run(SystemConfig::default().with_symmetric_llc()),
        );
        assert!(sym.config.l3_bank.is_symmetric());
        assert!(!sym.config.l3_bank_occupancy);
        assert!(!asym.config.l3_bank.is_symmetric());
        assert_ne!(sym.total_ipc(), asym.total_ipc());
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
    fn grid_points_are_memoised_and_keep_lifetimes_exact() {
        use crate::figures::{headtohead, wburst};
        use crate::forecast::forecast_study;
        let (cfg, budget) = (SystemConfig::small(4), Budget::test());
        let points = Points::default();
        let held = || points.0.borrow().len();
        headtohead::run(&points, cfg, budget);
        assert_eq!(
            held(),
            6 * 14,
            "headtohead: six schemes × WL1-WL10, WB1-WB4"
        );
        let wb = wburst::run(&points, cfg, budget);
        assert_eq!(held(), 6 * 14 + 3 * 4, "wburst adds only its other schemes");
        forecast_study(&points, cfg, budget);
        assert_eq!(held(), 96, "forecast's points are all held");
        assert_eq!(wburst::run(&points, cfg, budget), wb);
        assert_eq!(held(), 96, "a repeated request simulates nothing");

        // Lifetimes rebuilt from a point equal the fresh run's, bit for bit:
        // capped over its own window and uncapped over another point's.
        let bits = |xs: Vec<f64>| xs.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let grid = points.grid(&[Scheme::ReNucaC2], &[1, WBURST_ID_BASE + 2], cfg, budget);
        let (p, other) = (&grid[0][0], &grid[0][1]);
        let r = run_workload(
            &workload_mix(1, 4),
            Scheme::ReNucaC2,
            cfg,
            CptConfig::default(),
            budget,
        );
        let capped = lifetime_model(&cfg);
        let uncapped = LifetimeModel {
            cap_years: f64::INFINITY,
            ..capped
        };
        assert_eq!((p.ipc, p.cycles), (r.total_ipc(), r.cycles));
        assert_eq!(
            bits(p.lifetimes(&capped, p.cycles)),
            bits(capped.all_bank_lifetimes(&r.wear, r.cycles))
        );
        assert_ne!(other.cycles, p.cycles);
        assert_eq!(
            bits(p.lifetimes(&uncapped, other.cycles)),
            bits(uncapped.all_bank_lifetimes(&r.wear, other.cycles))
        );
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

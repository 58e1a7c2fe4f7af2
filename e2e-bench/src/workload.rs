//! The benchmark's four workloads and the input factory they share.
//!
//! Every workload is closed-loop: one simulation point at a time, the next
//! starting when the previous one has dumped its registry. A *pass* runs
//! every point of one workload once.

use cmp_sim::{CriticalityPredictor, InstrSource, LlcPlacement, SystemConfig};
use renuca_core::{CptConfig, Scheme};
use workloads::{workload_mix, AppModel};

/// One simulation: a scheme on a workload mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Point {
    /// Placement scheme.
    pub scheme: Scheme,
    /// Workload-mix id as understood by [`workloads::workload_mix`]
    /// (1–10 for WL1–WL10, 102/104 for WB2/WB4).
    pub mix: usize,
}

impl Point {
    /// Stable label, e.g. `Re-NUCA/WL3`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}",
            self.scheme.name(),
            workload_mix(self.mix, 1).name()
        )
    }
}

/// A named set of points sharing one instruction budget.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name used on the command line and in every report.
    pub name: &'static str,
    /// One line on why the workload is in the benchmark.
    pub why: &'static str,
    /// Points of one pass, in run order.
    pub points: Vec<Point>,
    /// Warm-up instructions per core (`System::warmup`).
    pub warmup: u64,
    /// Measured instructions per core (`System::run`).
    pub measure: u64,
}

fn renuca_on(mixes: &[usize]) -> Vec<Point> {
    mixes
        .iter()
        .map(|&mix| Point {
            scheme: Scheme::ReNuca,
            mix,
        })
        .collect()
}

/// The four workloads, in report order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "paper-mix",
            why: "Re-NUCA on WL1-WL10 at 500k+300k instructions per core, the unit every figure repeats; light L3 traffic, so time goes to the core model, workloads and criticality",
            points: renuca_on(&(1..=10).collect::<Vec<_>>()),
            warmup: 500_000,
            measure: 300_000,
        },
        Workload {
            name: "write-burst",
            why: "Re-NUCA on WB2 and WB4 at 100k+500k: about 10x the L3/NoC traffic per instruction, mostly writes, so mapping, noc, bank, dram and wear do the work",
            points: renuca_on(&[102, 104]),
            warmup: 100_000,
            measure: 500_000,
        },
        Workload {
            name: "scheme-zoo",
            why: "all nine schemes on WL3 at 50k+200k: one hierarchy under nine policies, so a change tuned for Re-NUCA that costs another scheme shows; setup and RSS weigh more",
            points: Scheme::ALL.iter().map(|&scheme| Point { scheme, mix: 3 }).collect(),
            warmup: 50_000,
            measure: 200_000,
        },
        Workload {
            name: "fast-forward",
            why: "Re-NUCA on WL3 at 4M+200k, warmup:measure 20:1 like the paper's 2B:100M; warmup is most of the pass, so only a faster fast-forward moves this one",
            points: renuca_on(&[3]),
            warmup: 4_000_000,
            measure: 200_000,
        },
    ]
}

impl Workload {
    /// The same points at tiny budgets, for smoke runs and tests.
    pub fn smoke(self) -> Workload {
        Workload {
            warmup: 1_000,
            measure: 2_000,
            ..self
        }
    }
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// The simulated machine: the repository's default 16-core configuration.
pub fn config() -> SystemConfig {
    SystemConfig::default()
}

/// The value `--seed` XORs into every per-core `AppModel` seed: zero for
/// seed 0, so seed-0 points are exactly the repository's figure points.
pub fn seed_mix(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The three layers a point hands to `System::new`, built by the
/// repository's own factories. Calling it twice gives two identical
/// fresh instances, which is what the traced run relies on.
pub struct Parts {
    /// L3 placement policy (`Scheme::build_policy`).
    pub policy: Box<dyn LlcPlacement>,
    /// Per-core criticality predictors (`Scheme::build_predictors`).
    pub predictors: Vec<Box<dyn CriticalityPredictor>>,
    /// Per-core instruction sources (`AppModel`, one per core).
    pub sources: Vec<Box<dyn InstrSource>>,
}

/// Build the layers of `point` for `cfg` under benchmark seed `seed`.
/// With seed 0 the sources equal `WorkloadMix::build_sources`.
pub fn build_parts(point: Point, cfg: &SystemConfig, seed: u64) -> Parts {
    let mix = workload_mix(point.mix, cfg.n_cores);
    let salt = seed_mix(seed);
    Parts {
        policy: point.scheme.build_policy(cfg),
        predictors: point.scheme.build_predictors(cfg, CptConfig::default()),
        sources: mix
            .apps
            .iter()
            .enumerate()
            .map(|(core, spec)| {
                let seed = ((point.mix as u64) << 32 | core as u64) ^ salt;
                Box::new(AppModel::new(**spec, seed)) as Box<dyn InstrSource>
            })
            .collect(),
    }
}

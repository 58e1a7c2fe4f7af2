//! The multiprogrammed 16-core workload mixes WL1–WL10.
//!
//! Paper §V.A: *"We further formed 16-core workloads by randomly choosing
//! applications from the high write-intensive ones along with the medium-
//! and low-intensive ones … we choose workloads such that we always run
//! high memory-intensive applications with low/medium write-intensive
//! applications."* The exact mixes are not published; we generate ten
//! deterministic mixes with the same recipe: every workload combines
//! several high-intensity applications with medium/low ones, seeded so that
//! WL*k* is identical on every machine and run.

use sim_rng::SimRng;

use crate::model::AppModel;
use crate::spec::{AppSpec, WriteIntensity, SPEC_TABLE};
use crate::wburst::{wburst_level, TRICKLE, TRICKLE_ID, WBURST_ID_BASE, WBURST_TABLE};
use cmp_sim::instr::InstrSource;

/// Number of evaluation workloads (paper: 10).
pub const N_WORKLOADS: usize = 10;

/// Is `id` a valid argument to [`workload_mix`]? Covers the paper mixes
/// WL1–WL10 plus the write-burst family (WB1–WB4, trickle; see
/// [`crate::wburst`]).
pub fn is_workload_id(id: usize) -> bool {
    (1..=N_WORKLOADS).contains(&id) || wburst_level(id).is_some() || id == TRICKLE_ID
}

/// The valid workload ids as text for error messages:
/// `1..=10 or write-burst ids 101..=105`.
pub fn workload_ids() -> String {
    format!(
        "1..={N_WORKLOADS} or write-burst ids {}..={TRICKLE_ID}",
        WBURST_ID_BASE + 1
    )
}

/// One 16-core multiprogrammed workload.
#[derive(Clone, Debug)]
pub struct WorkloadMix {
    /// Workload id, 1-based ("WL1" … "WL10").
    pub id: usize,
    /// The application running on each core (index = core id).
    pub apps: Vec<&'static AppSpec>,
}

impl WorkloadMix {
    /// Display name ("WL3", "WB2", "trickle").
    pub fn name(&self) -> String {
        if self.id == TRICKLE_ID {
            "trickle".to_owned()
        } else if let Some(level) = wburst_level(self.id) {
            format!("WB{level}")
        } else {
            format!("WL{}", self.id)
        }
    }

    /// Count of apps in each intensity class `(high, medium, low)`.
    pub fn intensity_mix(&self) -> (usize, usize, usize) {
        let mut h = 0;
        let mut m = 0;
        let mut l = 0;
        for a in &self.apps {
            match a.paper_intensity() {
                WriteIntensity::High => h += 1,
                WriteIntensity::Medium => m += 1,
                WriteIntensity::Low => l += 1,
            }
        }
        (h, m, l)
    }

    /// Instantiate the per-core instruction sources. Seeds mix the workload
    /// id and core id so every (workload, core) pair is deterministic but
    /// distinct.
    pub fn build_sources(&self) -> Vec<Box<dyn InstrSource>> {
        self.apps
            .iter()
            .enumerate()
            .map(|(core, spec)| {
                let seed = (self.id as u64) << 32 | core as u64;
                Box::new(AppModel::new(**spec, seed)) as Box<dyn InstrSource>
            })
            .collect()
    }
}

/// Build workload `id` (1-based) for `n_cores` cores.
///
/// Recipe per the paper: sample `n_cores × 5/16` (≥ 2) high-intensity apps
/// and fill the rest from the medium/low pool, then shuffle core
/// assignment. Deterministic in `(id, n_cores)`.
///
/// The write-burst family rides the same id space: WB levels
/// (`WBURST_ID_BASE + 1..=WBURST_ID_BASE + 4`) and the trickle probe
/// ([`TRICKLE_ID`]) build *homogeneous* mixes — every core runs the same
/// synthetic app (distinct per-core seeds) so bank pressure scales with
/// the level and nothing else.
///
/// # Panics
/// Panics when `id` is not a valid workload id (see [`is_workload_id`]).
pub fn workload_mix(id: usize, n_cores: usize) -> WorkloadMix {
    if id == TRICKLE_ID {
        return WorkloadMix {
            id,
            apps: vec![&TRICKLE; n_cores],
        };
    }
    if let Some(level) = wburst_level(id) {
        return WorkloadMix {
            id,
            apps: vec![&WBURST_TABLE[level - 1]; n_cores],
        };
    }
    assert!(
        (1..=N_WORKLOADS).contains(&id),
        "workload id must be {}, got {id}",
        workload_ids()
    );
    let mut rng = SimRng::seed_from_u64(0xC0FFEE ^ (id as u64).wrapping_mul(0x9E3779B97F4A7C15));

    let high: Vec<&AppSpec> = SPEC_TABLE
        .iter()
        .filter(|a| a.paper_intensity() == WriteIntensity::High)
        .collect();
    let rest: Vec<&AppSpec> = SPEC_TABLE
        .iter()
        .filter(|a| a.paper_intensity() != WriteIntensity::High)
        .collect();

    let n_high = ((n_cores * 5) / 16).max(2).min(n_cores);
    let mut apps: Vec<&'static AppSpec> = Vec::with_capacity(n_cores);
    for i in 0..n_high {
        apps.push(high[(rng.gen_range_usize(0..high.len() * 2) + i) % high.len()]);
    }
    while apps.len() < n_cores {
        apps.push(rest[rng.gen_range_usize(0..rest.len())]);
    }
    rng.shuffle(&mut apps);
    WorkloadMix { id, apps }
}

/// All ten workloads for `n_cores` cores.
pub fn all_workloads(n_cores: usize) -> Vec<WorkloadMix> {
    (1..=N_WORKLOADS)
        .map(|id| workload_mix(id, n_cores))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_workloads_of_16() {
        let wls = all_workloads(16);
        assert_eq!(wls.len(), 10);
        for wl in &wls {
            assert_eq!(wl.apps.len(), 16);
        }
    }

    #[test]
    fn every_workload_mixes_high_with_low_or_medium() {
        for wl in all_workloads(16) {
            let (h, m, l) = wl.intensity_mix();
            assert!(h >= 2, "{}: needs ≥2 high apps, has {h}", wl.name());
            assert!(
                m + l >= 4,
                "{}: needs medium/low ballast, has {}",
                wl.name(),
                m + l
            );
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = workload_mix(3, 16);
        let b = workload_mix(3, 16);
        let names_a: Vec<_> = a.apps.iter().map(|s| s.name).collect();
        let names_b: Vec<_> = b.apps.iter().map(|s| s.name).collect();
        assert_eq!(names_a, names_b);
    }

    #[test]
    fn workloads_differ_from_each_other() {
        let a = workload_mix(1, 16);
        let b = workload_mix(2, 16);
        let names_a: Vec<_> = a.apps.iter().map(|s| s.name).collect();
        let names_b: Vec<_> = b.apps.iter().map(|s| s.name).collect();
        assert_ne!(names_a, names_b);
    }

    #[test]
    fn small_core_counts_supported() {
        for n in [1, 4] {
            let wl = workload_mix(1, n);
            assert_eq!(wl.apps.len(), n);
        }
    }

    #[test]
    #[should_panic(expected = "workload id")]
    fn id_zero_rejected() {
        workload_mix(0, 16);
    }

    #[test]
    fn sources_carry_app_labels() {
        let wl = workload_mix(1, 4);
        let sources = wl.build_sources();
        for (i, s) in sources.iter().enumerate() {
            assert_eq!(s.label(), wl.apps[i].name);
        }
    }

    #[test]
    fn name_formatting() {
        assert_eq!(workload_mix(7, 16).name(), "WL7");
        assert_eq!(workload_mix(102, 16).name(), "WB2");
        assert_eq!(workload_mix(105, 1).name(), "trickle");
    }

    #[test]
    fn wburst_mixes_are_homogeneous() {
        for id in 101..=104 {
            let wl = workload_mix(id, 16);
            assert_eq!(wl.apps.len(), 16);
            assert!(wl.apps.iter().all(|a| a.name == wl.apps[0].name));
            let (h, _, _) = wl.intensity_mix();
            assert_eq!(h, 16, "{}: every core must burst writes", wl.name());
        }
    }

    #[test]
    fn workload_id_validity() {
        for id in 1..=10 {
            assert!(is_workload_id(id), "{id}");
        }
        for id in 101..=105 {
            assert!(is_workload_id(id), "{id}");
        }
        for id in [0, 11, 99, 100, 106] {
            assert!(!is_workload_id(id), "{id}");
        }
    }

    #[test]
    #[should_panic(expected = "workload id")]
    fn id_between_families_rejected() {
        workload_mix(100, 16);
    }
}

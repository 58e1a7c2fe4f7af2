//! The sensitivity studies of §V.C: Figures 13/14 (L2 = 128 KB),
//! Figures 15/16 (L3 bank = 1 MB) and Figures 17/18 (ROB = 168 entries).
//!
//! Each study is the main nine-scheme × ten-workload sweep under a
//! perturbed configuration; the wear-leveling figures reuse the Figure 12
//! renderer and the IPC figures reuse Figure 11's.

use cmp_sim::config::SystemConfig;

use crate::budget::Budget;
use crate::figures::lifetime::{self, MainStudy};
use crate::runner::Points;

/// Which sensitivity knob to turn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sensitivity {
    /// Shrink the private L2 to 128 KB (more writebacks) — Figures 13/14.
    L2Small,
    /// Shrink each L3 bank to 1 MB (more misses) — Figures 15/16.
    L3Small,
    /// Grow the ROB to 168 entries (fewer head stalls) — Figures 17/18.
    RobLarge,
}

impl Sensitivity {
    /// The three studies in Table III row order.
    pub const ALL: [Sensitivity; 3] = [
        Sensitivity::L2Small,
        Sensitivity::L3Small,
        Sensitivity::RobLarge,
    ];

    /// `base` with this study's knob turned. Every other field — the L3
    /// bank model included — is `base`'s, so a study's row sits beside the
    /// "Actual Results" row run under the same `base`.
    pub fn config(self, base: SystemConfig) -> SystemConfig {
        match self {
            Sensitivity::L2Small => base.with_l2_128k(),
            Sensitivity::L3Small => base.with_l3_1m(),
            Sensitivity::RobLarge => base.with_rob_168(),
        }
    }

    /// Table III row label.
    pub fn label(self) -> &'static str {
        match self {
            Sensitivity::L2Small => "L2-128KB",
            Sensitivity::L3Small => "L3-1MB",
            Sensitivity::RobLarge => "ROB-168",
        }
    }

    /// The wear-leveling figure number this study regenerates.
    pub fn wear_figure(self) -> u32 {
        match self {
            Sensitivity::L2Small => 13,
            Sensitivity::L3Small => 15,
            Sensitivity::RobLarge => 17,
        }
    }

    /// The IPC figure number this study regenerates.
    pub fn ipc_figure(self) -> u32 {
        self.wear_figure() + 1
    }
}

/// One sensitivity study on `base` perturbed, read from `points` (uses
/// the reduced sweep budget).
pub fn run(points: &Points, which: Sensitivity, base: SystemConfig, budget: Budget) -> MainStudy {
    lifetime::run(points, which.label(), which.config(base), budget.sweep())
}

/// Render the study's wear-leveling figure (13, 15 or 17).
pub fn format_wear(which: Sensitivity, study: &MainStudy) -> String {
    let title = format!(
        "Figure {} — harmonic-mean lifetime per bank [years], {}",
        which.wear_figure(),
        which.label()
    );
    // Reuse fig12's body with a different title line.
    let body = lifetime::format_fig12(study);
    let body = body.splitn(2, '\n').nth(1).unwrap_or("").to_owned();
    format!("{title}\n{body}")
}

/// Render the study's IPC figure (14, 16 or 18).
pub fn format_ipc(which: Sensitivity, study: &MainStudy) -> String {
    lifetime::format_ipc_improvements(
        &format!(
            "Figure {} — IPC improvement over S-NUCA [%], {}",
            which.ipc_figure(),
            which.label()
        ),
        study,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_match_paper_variants() {
        let base = SystemConfig::default();
        assert_eq!(Sensitivity::L2Small.config(base).l2.size_bytes, 128 * 1024);
        assert_eq!(
            Sensitivity::L3Small.config(base).l3_bank.size_bytes,
            1024 * 1024
        );
        assert_eq!(Sensitivity::RobLarge.config(base).rob_entries, 168);
        // A symmetric-LLC base stays symmetric under every perturbation.
        let sym = base.with_symmetric_llc();
        for s in [
            Sensitivity::L2Small,
            Sensitivity::L3Small,
            Sensitivity::RobLarge,
        ] {
            let cfg = s.config(sym);
            assert!(cfg.l3_bank.is_symmetric(), "{s:?}");
            assert!(!cfg.l3_bank_occupancy, "{s:?}");
            assert_ne!(cfg, sym, "{s:?} turns its knob");
        }
    }

    #[test]
    fn labels_and_figures() {
        assert_eq!(Sensitivity::L2Small.label(), "L2-128KB");
        assert_eq!(Sensitivity::L2Small.wear_figure(), 13);
        assert_eq!(Sensitivity::L2Small.ipc_figure(), 14);
        assert_eq!(Sensitivity::RobLarge.wear_figure(), 17);
    }
}

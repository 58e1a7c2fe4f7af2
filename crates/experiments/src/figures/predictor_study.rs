//! Figures 7, 8 and 9: the criticality-predictor characterization.
//!
//! For each of the paper's eight study applications and each criticality
//! threshold x ∈ {3, 5, 10, 20, 25, 33, 50, 75, 100} %, the application
//! runs alone with a CPT observing every load (placement stays S-NUCA —
//! this is a measurement study, the predictor does not steer anything yet):
//!
//! * **Figure 7** — prediction accuracy: of the loads that actually blocked
//!   the ROB head, the fraction the CPT had marked critical at issue
//!   (recall of the critical class — the reading under which the paper's
//!   "83% at x=3%, 14.5% at x=100%" trend is reproducible: lower thresholds
//!   predict critical more aggressively and therefore catch more of the
//!   truly critical loads).
//! * **Figure 8** — the percentage of *fetched cache blocks* (L3-miss
//!   fills) whose triggering load was predicted non-critical (paper avg:
//!   ~50.3% at x=3%).
//! * **Figure 9** — the percentage of L3 *writes* (fills + writebacks)
//!   landing in blocks recorded non-critical (paper: ~50% at x=3%).

use cmp_sim::config::SystemConfig;
use renuca_core::criticality::CptConfig;
use sim_stats::Table;
use workloads::app_by_name;
use workloads::spec::PREDICTOR_STUDY_APPS;

use crate::budget::Budget;
use crate::runner::run_app;

/// Results of the full (app × threshold) sweep.
#[derive(Clone, Debug)]
pub struct PredictorStudy {
    /// Application names (paper order).
    pub apps: Vec<&'static str>,
    /// Threshold values in percent.
    pub thresholds: Vec<f64>,
    /// `recall[app][threshold]`: Figure 7's accuracy, in percent.
    pub recall: Vec<Vec<f64>>,
    /// `noncritical_blocks[app][threshold]`: Figure 8, in percent.
    pub noncritical_blocks: Vec<Vec<f64>>,
    /// `noncritical_writes[app][threshold]`: Figure 9, in percent.
    pub noncritical_writes: Vec<Vec<f64>>,
}

impl PredictorStudy {
    /// Column averages of a metric matrix.
    fn averages(matrix: &[Vec<f64>]) -> Vec<f64> {
        let nt = matrix[0].len();
        (0..nt)
            .map(|t| sim_stats::amean(&matrix.iter().map(|row| row[t]).collect::<Vec<_>>()))
            .collect()
    }

    /// Per-threshold averages of Figure 7's recall.
    pub fn avg_recall(&self) -> Vec<f64> {
        Self::averages(&self.recall)
    }

    /// Per-threshold averages of Figure 8.
    pub fn avg_noncritical_blocks(&self) -> Vec<f64> {
        Self::averages(&self.noncritical_blocks)
    }

    /// Per-threshold averages of Figure 9.
    pub fn avg_noncritical_writes(&self) -> Vec<f64> {
        Self::averages(&self.noncritical_writes)
    }
}

/// Run the sweep on `base`'s one-core machine at each of `thresholds`.
pub fn run(base: SystemConfig, budget: Budget, thresholds: &[f64]) -> PredictorStudy {
    let apps: Vec<&'static str> = PREDICTOR_STUDY_APPS.to_vec();
    let mut recall = Vec::with_capacity(apps.len());
    let mut blocks = Vec::with_capacity(apps.len());
    let mut writes = Vec::with_capacity(apps.len());
    for name in &apps {
        let spec = app_by_name(name).expect("study app in table");
        let mut r_row = Vec::with_capacity(thresholds.len());
        let mut b_row = Vec::with_capacity(thresholds.len());
        let mut w_row = Vec::with_capacity(thresholds.len());
        for &x in thresholds {
            let result = run_app(spec, base, CptConfig::with_threshold(x), budget);
            let cs = result.per_core[0].core_stats;
            r_row.push(cs.critical_recall() * 100.0);
            let h = result.hierarchy;
            b_row
                .push(h.l3_fills_noncritical.get() as f64 * 100.0 / h.l3_fills.get().max(1) as f64);
            w_row.push(
                h.l3_writes_noncritical.get() as f64 * 100.0 / h.l3_writes.get().max(1) as f64,
            );
        }
        recall.push(r_row);
        blocks.push(b_row);
        writes.push(w_row);
    }
    PredictorStudy {
        apps,
        thresholds: thresholds.to_vec(),
        recall,
        noncritical_blocks: blocks,
        noncritical_writes: writes,
    }
}

fn format_matrix(title: &str, study: &PredictorStudy, matrix: &[Vec<f64>], avg: &[f64]) -> String {
    let mut headers: Vec<String> = vec!["App".to_owned()];
    headers.extend(study.thresholds.iter().map(|t| format!("{t}%")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);
    for (i, app) in study.apps.iter().enumerate() {
        t.row_f64(app, &matrix[i], 1);
    }
    t.row_f64("Avg", avg, 1);
    format!("{title}\n{}", t.render())
}

/// Render Figure 7 (criticality prediction accuracy vs threshold).
pub fn format_fig7(study: &PredictorStudy) -> String {
    format_matrix(
        "Figure 7 — criticality prediction accuracy [%] (paper avg: 83% @3%, 14.5% @100%)",
        study,
        &study.recall,
        &study.avg_recall(),
    )
}

/// Render Figure 8 (% of fetched blocks that are non-critical).
pub fn format_fig8(study: &PredictorStudy) -> String {
    format_matrix(
        "Figure 8 — non-critical cache blocks [% of fetched blocks] (paper avg: 50.3% @3%)",
        study,
        &study.noncritical_blocks,
        &study.avg_noncritical_blocks(),
    )
}

/// Render Figure 9 (% of L3 writes to non-critical blocks).
pub fn format_fig9(study: &PredictorStudy) -> String {
    format_matrix(
        "Figure 9 — writes to non-critical blocks [% of L3 writes] (paper avg: ~50% @3%)",
        study,
        &study.noncritical_writes,
        &study.avg_noncritical_writes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shapes_and_monotonicity() {
        // Two thresholds, tiny budget: recall at 3% must be >= recall at
        // 100% for every app (lower thresholds predict critical more).
        let study = run(SystemConfig::default(), Budget::test(), &[3.0, 100.0]);
        assert_eq!(study.apps.len(), 8);
        for (i, app) in study.apps.iter().enumerate() {
            assert!(
                study.recall[i][0] >= study.recall[i][1] - 1e-9,
                "{app}: recall(3%)={} < recall(100%)={}",
                study.recall[i][0],
                study.recall[i][1]
            );
            // Non-critical block share grows with the threshold.
            assert!(
                study.noncritical_blocks[i][0] <= study.noncritical_blocks[i][1] + 1e-9,
                "{app}: blocks(3%)={} > blocks(100%)={}",
                study.noncritical_blocks[i][0],
                study.noncritical_blocks[i][1]
            );
        }
        let f7 = format_fig7(&study);
        assert!(f7.contains("mcf") && f7.contains("Avg"));
        assert!(format_fig8(&study).contains("Figure 8"));
        assert!(format_fig9(&study).contains("Figure 9"));
    }
}

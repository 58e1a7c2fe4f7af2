//! Figure 5: the fraction of loads that never stall the head of the ROB.
//!
//! Each application runs alone; the core model flags every committed load
//! with whether it blocked the ROB head (stall beyond the skew threshold).
//! The paper measures over 80% of loads non-critical on average — the
//! headroom Re-NUCA exploits.

use renuca_core::CptConfig;
use sim_stats::bar_chart;
use workloads::SPEC_TABLE;

use crate::budget::Budget;
use crate::runner::run_app;

/// Per-application non-critical load fraction.
#[derive(Clone, Debug)]
pub struct Fig5Row {
    /// Application name.
    pub name: &'static str,
    /// Percentage of committed loads that never blocked the ROB head.
    pub noncritical_pct: f64,
}

/// Run Figure 5's measurement over all applications.
pub fn run(budget: Budget) -> Vec<Fig5Row> {
    SPEC_TABLE
        .iter()
        .map(|spec| {
            let r = run_app(spec, CptConfig::default(), budget.single_core());
            Fig5Row {
                name: spec.name,
                noncritical_pct: r.per_core[0].core_stats.noncritical_load_fraction() * 100.0,
            }
        })
        .collect()
}

/// Average non-critical percentage across applications.
pub fn average(rows: &[Fig5Row]) -> f64 {
    sim_stats::amean(&rows.iter().map(|r| r.noncritical_pct).collect::<Vec<_>>())
}

/// Render Figure 5 (sorted descending, like the paper's left-to-right).
pub fn format_fig5(rows: &[Fig5Row]) -> String {
    let mut data: Vec<(String, f64)> = rows
        .iter()
        .map(|r| (r.name.to_owned(), r.noncritical_pct))
        .collect();
    data.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    data.push(("Average".to_owned(), average(rows)));
    bar_chart(
        "Figure 5 — non-critical loads [% of committed loads] (paper avg: >80%)",
        &data,
        50,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_measured() {
        let rows = run(Budget::test());
        assert_eq!(rows.len(), 22);
        for r in &rows {
            assert!(
                (0.0..=100.0).contains(&r.noncritical_pct),
                "{}: {}",
                r.name,
                r.noncritical_pct
            );
        }
        assert!(format_fig5(&rows).contains("Average"));
    }
}

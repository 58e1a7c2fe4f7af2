//! Figure 5: the share of committed loads that never stall the ROB head
//! (stall beyond the skew threshold) per application, read from Table II's
//! single-app sweep ([`table2::run`]). The paper measures over 80% on
//! average: the headroom Re-NUCA exploits.

use super::table2::{self, Table2Row};
use sim_stats::bar_chart;

/// Average non-critical load percentage across applications.
pub fn average_noncritical(rows: &[Table2Row]) -> f64 {
    sim_stats::amean(&rows.iter().map(|r| r.noncritical_pct).collect::<Vec<_>>())
}

/// Render Figure 5 and its average line.
pub fn format_fig5(rows: &[Table2Row]) -> String {
    let mut data = table2::sorted_bars(rows, |r| r.noncritical_pct);
    let average = average_noncritical(rows);
    data.push(("Average".to_owned(), average));
    let title = "Figure 5 — non-critical loads [% of committed loads] (paper avg: >80%)";
    let chart = bar_chart(title, &data, 50);
    format!("{chart}\nAverage: {average:.1}% (paper: >80%)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use cmp_sim::config::SystemConfig;

    #[test]
    fn all_apps_measured() {
        let rows = table2::run(SystemConfig::default(), Budget::test());
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

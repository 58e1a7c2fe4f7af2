//! Table III: raw minimum lifetimes for all five schemes under the actual
//! configuration and the three sensitivity variants: one row per study,
//! the "Actual Results" study first, then [`Sensitivity::ALL`] in order.
//!
//! [`Sensitivity::ALL`]: crate::figures::sensitivity::Sensitivity::ALL

use sim_stats::Table;

use crate::figures::lifetime::MainStudy;

/// The paper's Table III reference values, `[config][scheme]` in the order
/// Naive / S-NUCA / Re-NUCA / R-NUCA / Private.
pub const PAPER_TABLE3: [(&str, [f64; 5]); 4] = [
    ("Actual Results", [4.95, 3.37, 3.24, 2.38, 2.32]),
    ("L2-128KB", [7.14, 3.90, 3.09, 2.31, 2.31]),
    ("L3-1MB", [3.64, 1.67, 1.67, 1.38, 1.38]),
    ("ROB-168", [7.06, 3.26, 3.26, 2.33, 2.32]),
];

/// Render Table III, measured values alongside the paper's.
pub fn format_table3(studies: &[MainStudy]) -> String {
    let mut t = Table::new(&[
        "Config",
        "Naive",
        "S-NUCA",
        "Re-NUCA",
        "R-NUCA",
        "Private",
        "(paper) Naive",
        "S-NUCA",
        "Re-NUCA",
        "R-NUCA",
        "Private",
    ]);
    for (i, study) in studies.iter().enumerate() {
        let mut cells = vec![study.label.to_owned()];
        cells.extend(study.table3_row().iter().map(|(_, v)| format!("{v:.2}")));
        let paper = PAPER_TABLE3
            .iter()
            .find(|(l, _)| *l == study.label)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| PAPER_TABLE3[i].1);
        cells.extend(paper.iter().map(|v| format!("{v:.2}")));
        t.row(&cells);
    }
    format!(
        "Table III — raw minimum lifetimes [years] (measured | paper)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::figures::lifetime;
    use crate::runner::Points;
    use cmp_sim::config::SystemConfig;

    #[test]
    fn paper_values_ordering() {
        // In every paper row, Naive has the longest raw-min lifetime and
        // Private the shortest (or tied).
        for (label, row) in PAPER_TABLE3 {
            let naive = row[0];
            let private = row[4];
            for v in row {
                assert!(naive >= v, "{label}: Naive must dominate");
                assert!(private <= v, "{label}: Private must trail");
            }
        }
    }

    #[test]
    fn format_includes_all_rows() {
        // Formatting is cheap to test with a fabricated study set.
        let cfg = SystemConfig::small(4);
        let study = lifetime::run(&Points::default(), "Actual Results", cfg, Budget::test());
        let s = format_table3(&[study]);
        assert!(s.contains("Actual Results"));
        assert!(s.contains("4.95"), "paper reference column present");
    }
}

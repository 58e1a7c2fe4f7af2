//! Capacity-retention curves: the fraction of the 32 MB cache still alive
//! over time under each scheme.
//!
//! This extension quantifies the paper's §III.B observation that *"with
//! time, cache banks wear out and we loose cache capacity … thereby hurting
//! the performance"*: schemes are usually compared by their minimum
//! lifetime, but the full survival curve shows *how* capacity erodes —
//! S-NUCA/Naive fall off a cliff together (all banks die at once, late),
//! while Private and R-NUCA bleed banks one at a time starting years
//! earlier.

use sim_stats::Table;
use wear_model::capacity_retention;

use crate::figures::lifetime::MainStudy;

/// Render the retention table: one row per time point, one column per
/// scheme, derived from the per-bank harmonic-mean lifetimes of a main
/// study.
pub fn format_retention(study: &MainStudy, horizon_years: f64, points: usize) -> String {
    let mut headers = vec!["years".to_owned()];
    headers.extend(study.studies.iter().map(|s| s.scheme.name().to_owned()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);

    let curves: Vec<Vec<(f64, f64)>> = study
        .studies
        .iter()
        .map(|s| capacity_retention(&s.hmean_per_bank, horizon_years, points))
        .collect();
    for p in 0..points {
        let mut cells = vec![format!("{:.1}", curves[0][p].0)];
        for c in &curves {
            cells.push(format!("{:.0}%", c[p].1 * 100.0));
        }
        t.row(&cells);
    }
    format!(
        "Capacity retention — % of L3 capacity surviving over time [{}]\n{}",
        study.label,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::figures::lifetime;
    use cmp_sim::config::SystemConfig;

    #[test]
    fn retention_table_renders() {
        let points = crate::runner::Points::default();
        let study = lifetime::run(&points, "test", SystemConfig::small(4), Budget::test());
        let s = format_retention(&study, 20.0, 5);
        assert!(s.contains("Capacity retention"));
        assert!(s.contains("Re-NUCA"));
        // First row is t=0 with 100% everywhere.
        let first_data = s.lines().nth(3).unwrap();
        assert!(first_data.contains("100%"), "{first_data}");
    }
}

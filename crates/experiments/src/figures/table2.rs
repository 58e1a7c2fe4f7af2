//! Table II and Figure 2: per-application characterization.
//!
//! Each of the 22 applications runs alone on the single-core machine
//! ([`run_app`]: 256 KB L2, one 2 MB L3 bank on the default base); we
//! report WPKI, MPKI, L3 hit rate and IPC next to Table II's values, and
//! Figure 2 charts WPKI+MPKI. The rows also carry Figure 5's non-critical
//! load share, which [`super::criticality`] renders.

use cmp_sim::config::SystemConfig;
use renuca_core::CptConfig;
use sim_stats::{bar_chart, Table};
use workloads::{WriteIntensity, SPEC_TABLE};

use crate::budget::Budget;
use crate::runner::run_app;

/// One application's measured-vs-paper characterization.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Application name.
    pub name: &'static str,
    /// Measured writebacks per kilo-instruction.
    pub wpki: f64,
    /// Measured misses per kilo-instruction.
    pub mpki: f64,
    /// Measured L3 hit rate.
    pub hitrate: f64,
    /// Measured single-core IPC.
    pub ipc: f64,
    /// Table II reference WPKI.
    pub paper_wpki: f64,
    /// Table II reference MPKI.
    pub paper_mpki: f64,
    /// Table II reference hit rate.
    pub paper_hitrate: f64,
    /// Table II reference IPC.
    pub paper_ipc: f64,
    /// Percentage of committed loads that never blocked the ROB head
    /// (Figure 5).
    pub noncritical_pct: f64,
}

impl Table2Row {
    /// Measured write-intensity class (high/medium/low by WPKI+MPKI).
    pub fn intensity(&self) -> WriteIntensity {
        workloads::spec::classify(self.wpki + self.mpki)
    }

    /// Paper's class for the same app.
    pub fn paper_intensity(&self) -> WriteIntensity {
        workloads::spec::classify(self.paper_wpki + self.paper_mpki)
    }
}

/// Run the characterization for all 22 applications on `base`'s one-core
/// machine.
pub fn run(base: SystemConfig, budget: Budget) -> Vec<Table2Row> {
    SPEC_TABLE
        .iter()
        .map(|spec| {
            let r = run_app(spec, base, CptConfig::default(), budget.single_core());
            let c = &r.per_core[0];
            Table2Row {
                name: spec.name,
                wpki: c.wpki,
                mpki: c.mpki,
                hitrate: c.l3_hit_rate,
                ipc: c.ipc,
                paper_wpki: spec.paper_wpki,
                paper_mpki: spec.paper_mpki,
                paper_hitrate: spec.paper_hitrate,
                paper_ipc: spec.paper_ipc,
                noncritical_pct: c.core_stats.noncritical_load_fraction() * 100.0,
            }
        })
        .collect()
}

/// Render the Table II reproduction (measured | paper, side by side).
pub fn format_table2(rows: &[Table2Row]) -> String {
    let mut t = Table::new(&[
        "Application",
        "WPKI",
        "MPKI",
        "Hitrate",
        "IPC",
        "paper WPKI",
        "paper MPKI",
        "paper Hitrate",
        "paper IPC",
        "class (measured/paper)",
    ]);
    for r in rows {
        t.row(&[
            r.name.to_owned(),
            format!("{:.2}", r.wpki),
            format!("{:.2}", r.mpki),
            format!("{:.2}", r.hitrate),
            format!("{:.2}", r.ipc),
            format!("{:.2}", r.paper_wpki),
            format!("{:.2}", r.paper_mpki),
            format!("{:.2}", r.paper_hitrate),
            format!("{:.2}", r.paper_ipc),
            format!("{:?}/{:?}", r.intensity(), r.paper_intensity()),
        ]);
    }
    format!(
        "Table II — application characteristics (measured vs paper)\n{}",
        t.render()
    )
}

/// One bar per application, sorted descending like the paper's x-axis.
pub fn sorted_bars(rows: &[Table2Row], value: impl Fn(&Table2Row) -> f64) -> Vec<(String, f64)> {
    let mut data: Vec<(String, f64)> = rows.iter().map(|r| (r.name.to_owned(), value(r))).collect();
    data.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    data
}

/// Render Figure 2: WPKI+MPKI per application.
pub fn format_fig2(rows: &[Table2Row]) -> String {
    let data = sorted_bars(rows, |r| r.wpki + r.mpki);
    bar_chart("Figure 2 — WPKI+MPKI per application (measured)", &data, 50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_all_apps() {
        let rows = run(SystemConfig::default(), Budget::test());
        assert_eq!(rows.len(), 22);
        let table = format_table2(&rows);
        assert!(table.contains("mcf"));
        assert!(table.contains("GemsFDTD"));
        let fig = format_fig2(&rows);
        assert!(fig.contains("Figure 2"));
    }
}

//! The main evaluation: Figures 3, 4b, 11, 12 and the Table III "Actual
//! Results" row — all derived from one (scheme × workload) sweep.
//!
//! * **Figure 3** (motivation): harmonic-mean per-bank lifetime for the
//!   four baselines (S-NUCA, R-NUCA, Private, Naive).
//! * **Figure 4b**: the performance-vs-lifetime trade-off scatter.
//! * **Figure 11**: per-workload IPC improvement over S-NUCA for R-NUCA,
//!   Private and Re-NUCA.
//! * **Figure 12**: per-bank harmonic-mean lifetime for all five schemes —
//!   showing Re-NUCA lifting R-NUCA's worst banks.
//! * **Table III, "Actual Results"**: raw minimum lifetimes.

use cmp_sim::config::SystemConfig;
use renuca_core::{CptConfig, Scheme};
use sim_stats::{grouped_series, percent_change, Table};

use crate::budget::Budget;
use crate::runner::{lifetime_model, scheme_study, SchemeStudy};

/// The full all-scheme (paper five + competitors), ten-workload study
/// under one configuration.
#[derive(Clone, Debug)]
pub struct MainStudy {
    /// Configuration label ("actual", "L2-128KB", …).
    pub label: &'static str,
    /// One aggregated study per scheme (order = `Scheme::ALL`).
    pub studies: Vec<SchemeStudy>,
}

impl MainStudy {
    /// The study for one scheme.
    pub fn study(&self, scheme: Scheme) -> &SchemeStudy {
        self.studies
            .iter()
            .find(|s| s.scheme == scheme)
            .expect("scheme present in study")
    }

    /// Raw-minimum lifetimes in the paper's Table III column order (the
    /// paper's five schemes only — the competitors are reported by the
    /// head-to-head study instead).
    pub fn table3_row(&self) -> Vec<(Scheme, f64)> {
        Scheme::PAPER
            .iter()
            .map(|&s| (s, self.study(s).raw_min))
            .collect()
    }
}

/// Run the main study: every scheme in [`Scheme::ALL`] over WL1–WL10.
pub fn run(label: &'static str, cfg: SystemConfig, budget: Budget) -> MainStudy {
    let model = lifetime_model(&cfg);
    let studies = Scheme::ALL
        .iter()
        .map(|&s| scheme_study(s, cfg, CptConfig::default(), budget, &model))
        .collect();
    MainStudy { label, studies }
}

fn per_bank_table(title: &str, schemes: &[Scheme], study: &MainStudy) -> String {
    let nbanks = study.studies[0].hmean_per_bank.len();
    let groups: Vec<String> = (0..nbanks).map(|b| format!("CB-{b}")).collect();
    let names: Vec<&str> = schemes.iter().map(|s| s.name()).collect();
    let values: Vec<Vec<f64>> = schemes
        .iter()
        .map(|&s| study.study(s).hmean_per_bank.clone())
        .collect();
    let mut out = grouped_series(title, &groups, &names, &values, 2);
    out.push('\n');
    out.push_str("variation (CV of per-bank lifetimes):\n");
    for &s in schemes {
        out.push_str(&format!(
            "  {:<8} {:.3}\n",
            s.name(),
            study.study(s).variation
        ));
    }
    out
}

/// Render Figure 3 (baselines only; the motivation study).
pub fn format_fig3(study: &MainStudy) -> String {
    per_bank_table(
        "Figure 3 — harmonic-mean lifetime per cache bank [years], baselines",
        &Scheme::BASELINES,
        study,
    )
}

/// Render Figure 12 (all five schemes; Re-NUCA wear-levels R-NUCA).
pub fn format_fig12(study: &MainStudy) -> String {
    per_bank_table(
        "Figure 12 — harmonic-mean lifetime per cache bank [years], all schemes",
        &Scheme::ALL,
        study,
    )
}

/// Render Figure 4b: the lifetime-vs-IPC trade-off of each scheme.
pub fn format_fig4b(study: &MainStudy) -> String {
    let mut t = Table::new(&["Scheme", "IPC (hmean over WLs)", "Lifetime (years)"]);
    for s in &study.studies {
        t.row(&[
            s.scheme.name().to_owned(),
            format!("{:.3}", sim_stats::hmean(&s.per_wl_ipc)),
            format!("{:.2}", s.hmean_lifetime()),
        ]);
    }
    format!(
        "Figure 4b — performance vs lifetime trade-off (higher-right is better)\n{}",
        t.render()
    )
}

/// Render Figure 11: per-workload IPC improvement over S-NUCA.
pub fn format_fig11(study: &MainStudy) -> String {
    format_ipc_improvements("Figure 11 — IPC improvement over S-NUCA [%]", study)
}

/// Shared IPC-improvement renderer (Figures 11, 14, 16, 18).
pub fn format_ipc_improvements(title: &str, study: &MainStudy) -> String {
    let base = &study.study(Scheme::SNuca).per_wl_ipc;
    let schemes = [Scheme::RNuca, Scheme::Private, Scheme::ReNuca];
    let mut headers: Vec<String> = vec!["".into()];
    headers.extend(schemes.iter().map(|s| s.name().to_owned()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);
    let n = base.len();
    for wl in 0..n {
        let row: Vec<f64> = schemes
            .iter()
            .map(|&s| percent_change(study.study(s).per_wl_ipc[wl], base[wl]))
            .collect();
        t.row_f64(&format!("WL{}", wl + 1), &row, 2);
    }
    let avg: Vec<f64> = schemes
        .iter()
        .map(|&s| {
            let xs: Vec<f64> = (0..n)
                .map(|wl| percent_change(study.study(s).per_wl_ipc[wl], base[wl]))
                .collect();
            sim_stats::amean(&xs)
        })
        .collect();
    t.row_f64("Avg", &avg, 2);
    format!("{title}\n{}", t.render())
}

/// Headline numbers the paper's abstract quotes: Re-NUCA's raw-minimum
/// lifetime gain over R-NUCA and its IPC deltas vs R-NUCA / S-NUCA.
pub fn headline(study: &MainStudy) -> String {
    let re = study.study(Scheme::ReNuca);
    let r = study.study(Scheme::RNuca);
    let s = study.study(Scheme::SNuca);
    format!(
        "Headline [{}]: Re-NUCA raw-min lifetime {:.2}y vs R-NUCA {:.2}y ({:+.1}%, paper: +42%); \
         IPC vs R-NUCA {:+.1}% (paper: ~0%), vs S-NUCA {:+.1}% (paper: +5.2%)",
        study.label,
        re.raw_min,
        r.raw_min,
        percent_change(re.raw_min, r.raw_min),
        percent_change(re.mean_ipc(), r.mean_ipc()),
        percent_change(re.mean_ipc(), s.mean_ipc()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_study_runs_and_formats() {
        let cfg = SystemConfig::small(4);
        let study = run("test", cfg, Budget::test());
        assert_eq!(study.studies.len(), Scheme::ALL.len());
        assert!(format_fig3(&study).contains("CB-0"));
        assert!(format_fig12(&study).contains("Re-NUCA"));
        assert!(format_fig4b(&study).contains("Lifetime"));
        assert!(format_fig11(&study).contains("WL1"));
        assert!(headline(&study).contains("Re-NUCA"));
    }
}

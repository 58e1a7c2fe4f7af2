//! Head-to-head wear-management study: Re-NUCA and its compressed
//! Re-NUCA-C2 variant vs the related-work competitors — WEC hot-bank
//! redirection, epoch-rotated Coloring and MAC's write-aware replacement —
//! with S-NUCA as the neutral reference (DESIGN.md §14–§15, EXPERIMENTS.md
//! "Head-to-head").
//!
//! Two grids on the 16-core default machine:
//!
//! * the WL1–WL10 mix set, reported as mean IPC, harmonic-mean and
//!   raw-minimum lifetime, per-bank lifetime CV (the paper's "variation")
//!   and the inter-set / intra-set write-variation CVs that the
//!   competitors specifically target;
//! * the WB1–WB4 write-burst family, reported as IPC and raw-minimum
//!   lifetime per pressure level.
//!
//! The durable/resumable equivalent of this study is
//! `campaigns/headtohead.campaign`.

use cmp_sim::config::SystemConfig;
use renuca_core::Scheme;
use sim_stats::Table;
use workloads::N_WORKLOADS;

use crate::budget::Budget;
use crate::figures::wburst::level_table;
use crate::obs::Manifest;
use crate::runner::{grid_ids, lifetime_model, Point, Points, SchemeStudy};

/// One contender's results on both grids.
#[derive(Clone, Debug)]
pub struct Contender {
    /// The WL1–WL10 aggregate.
    pub study: SchemeStudy,
    /// Mean over WL1–WL10 of the inter-set write-variation CV.
    pub interset_cv: f64,
    /// Mean over WL1–WL10 of the intra-set write-variation CV.
    pub intraset_cv: f64,
    /// The WB1–WB4 points (index 0 = WB1).
    pub wb: Vec<Point>,
}

/// Re-NUCA, Re-NUCA-C2, S-NUCA and the competitors over both grids, in
/// that order, read from `points`.
pub fn run(points: &Points, cfg: SystemConfig, budget: Budget) -> Vec<Contender> {
    let model = lifetime_model(&cfg);
    let schemes: Vec<Scheme> = [Scheme::ReNuca, Scheme::ReNucaC2, Scheme::SNuca]
        .into_iter()
        .chain(Scheme::COMPETITORS)
        .collect();
    let grid = points.grid(&schemes, &grid_ids(), cfg, budget);
    schemes
        .into_iter()
        .zip(grid)
        .map(|(s, mut wl)| {
            let wb = wl.split_off(N_WORKLOADS);
            let mean =
                |cv: fn(&Point) -> f64| sim_stats::amean(&wl.iter().map(cv).collect::<Vec<_>>());
            Contender {
                study: SchemeStudy::from_points(s, &wl, &model),
                interset_cv: mean(|p| p.interset_cv),
                intraset_cv: mean(|p| p.intraset_cv),
                wb,
            }
        })
        .collect()
}

/// Render the WL table, the two WB tables and one verdict line per
/// rival of Re-NUCA.
pub fn format(rows: &[Contender]) -> String {
    let mut t = Table::new(&[
        "Scheme",
        "IPC (mean WLs)",
        "hmean life [y]",
        "raw-min [y]",
        "bank CV",
        "inter-set CV",
        "intra-set CV",
    ]);
    for row in rows {
        t.row(&[
            row.study.scheme.name().to_owned(),
            format!("{:.3}", row.study.mean_ipc()),
            format!("{:.2}", row.study.hmean_lifetime()),
            format!("{:.2}", row.study.raw_min),
            format!("{:.3}", row.study.variation),
            format!("{:.3}", row.interset_cv),
            format!("{:.3}", row.intraset_cv),
        ]);
    }
    let wb_table = |metric: fn(&Point) -> f64| {
        level_table(
            rows.iter().map(|r| (r.study.scheme, r.wb.as_slice())),
            metric,
            2,
        )
    };
    let mut out = format!(
        "Head-to-head — Re-NUCA vs wear-management competitors (WL1-WL10)\n{}\n\
         Head-to-head — total IPC under the WB write-burst family\n{}\n\
         Head-to-head — raw minimum lifetime [years] under the WB family\n{}",
        t.render(),
        wb_table(|c| c.ipc),
        wb_table(|c| c.raw_min_years),
    );

    // The verdict line the study exists for: does any competitor beat
    // Re-NUCA's lifetime without giving up its IPC?
    let re = &rows[0].study;
    for row in &rows[1..] {
        out += &format!(
            "\nvs {}: lifetime {:+.1}% (hmean), IPC {:+.1}%",
            row.study.scheme.name(),
            (re.hmean_lifetime() / row.study.hmean_lifetime() - 1.0) * 100.0,
            (re.mean_ipc() / row.study.mean_ipc() - 1.0) * 100.0
        );
    }
    out
}

/// Fill the study's manifest: `scheme.<s>.*` aggregates, write-variation
/// CVs and `wb[<level>]` cells, and a lifetime heatmap row per scheme.
pub fn register(m: &mut Manifest, rows: &[Contender]) {
    m.set_wear_unit("years");
    for row in rows {
        let p = format!("scheme.{}", row.study.scheme.name());
        let reg = m.stats_mut();
        reg.set(format!("{p}.mean_ipc"), row.study.mean_ipc());
        reg.set(
            format!("{p}.hmean_lifetime_years"),
            row.study.hmean_lifetime(),
        );
        reg.set(format!("{p}.raw_min_years"), row.study.raw_min);
        reg.set(format!("{p}.variation"), row.study.variation);
        reg.set(format!("{p}.interset_cv"), row.interset_cv);
        reg.set(format!("{p}.intraset_cv"), row.intraset_cv);
        for (i, c) in row.wb.iter().enumerate() {
            reg.set(format!("{p}.wb[{}].ipc", i + 1), c.ipc);
            reg.set(format!("{p}.wb[{}].raw_min_years", i + 1), c.raw_min_years);
        }
        m.push_wear_row(row.study.scheme.name(), &row.study.hmean_per_bank);
    }
}

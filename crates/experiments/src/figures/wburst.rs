//! Write-burst saturation study: every scheme under L3 bank pressure
//! (DESIGN.md §12, EXPERIMENTS.md "Write-burst saturation"), and the
//! trickle probe that must not queue.
//!
//! [`run`] races every scheme over the homogeneous WB1–WB4 workloads
//! (`workloads::wburst`), whose escalating fill/writeback pressure makes
//! reads queue behind slow ReRAM writes in the per-bank service model. It
//! reports per-level IPC, per-level total bank queueing and the raw
//! minimum lifetime, plus a per-bank queue-cycle heatmap per scheme. Its
//! points come from the shared [`Points`] memo, which the head-to-head
//! and forecast studies read too.
//!
//! [`trickle`] is the zero-contention control: the single-core
//! trickle probe (isolated read-only misses spaced far wider than the
//! write latency), on which even the asymmetric default must report
//! **zero** queue cycles in every bank. The CI smoke asserts both
//! directions.

use cmp_sim::config::SystemConfig;
use renuca_core::Scheme;
use sim_stats::Table;
use workloads::{N_WBURST, N_WORKLOADS, TRICKLE_ID};

use crate::budget::Budget;
use crate::obs::Manifest;
use crate::runner::{grid_ids, Point, Points};

/// Every scheme's WB1–WB4 points (index 0 = WB1), in [`Scheme::ALL`]
/// order, read from `points`.
pub fn run(points: &Points, cfg: SystemConfig, budget: Budget) -> Vec<(Scheme, Vec<Point>)> {
    let grid = points.grid(&Scheme::ALL, &grid_ids()[N_WORKLOADS..], cfg, budget);
    Scheme::ALL.into_iter().zip(grid).collect()
}

/// Render one per-level metric: a column per WB level, a row per scheme.
pub fn level_table<'a>(
    rows: impl IntoIterator<Item = (Scheme, &'a [Point])>,
    metric: impl Fn(&Point) -> f64,
    precision: usize,
) -> String {
    let level_names: Vec<String> = (1..=N_WBURST).map(|l| format!("WB{l}")).collect();
    let mut headers: Vec<&str> = vec![""];
    headers.extend(level_names.iter().map(String::as_str));
    let mut t = Table::new(&headers);
    for (s, cells) in rows {
        let values: Vec<f64> = cells.iter().map(&metric).collect();
        t.row_f64(s.name(), &values, precision);
    }
    t.render()
}

/// Render the study: IPC, queue-cycle and lifetime tables, then the IPC
/// spread at the saturating level.
pub fn format(cells: &[(Scheme, Vec<Point>)]) -> String {
    let table = |metric: fn(&Point) -> f64, precision| {
        level_table(
            cells.iter().map(|(s, row)| (*s, row.as_slice())),
            metric,
            precision,
        )
    };
    // The head-to-head spread at the saturating level: how much scheme
    // choice is worth once banks are the bottleneck.
    // The first scheme wins a tie.
    let last = cells
        .iter()
        .map(|(s, row)| (s.name(), row[N_WBURST - 1].ipc));
    let best = last
        .clone()
        .fold(("", f64::MIN), |a, b| if b.1 > a.1 { b } else { a });
    let worst = last.fold(("", f64::MAX), |a, b| if b.1 < a.1 { b } else { a });
    format!(
        "Write-burst saturation — total IPC under escalating bank pressure\n{}\n\
         Write-burst saturation — bank queue cycles (sum over banks)\n{}\n\
         Write-burst saturation — raw minimum lifetime [years]\n{}\n\
         WB{N_WBURST} IPC spread: {} {:.2} vs {} {:.2} ({:+.1}%)",
        table(|c| c.ipc, 2),
        table(|c| c.queue_total() as f64, 0),
        table(|c| c.raw_min_years, 2),
        best.0,
        best.1,
        worst.0,
        worst.1,
        (best.1 / worst.1 - 1.0) * 100.0
    )
}

/// Fill the study's manifest: `scheme.<s>.wb[<level>].*`, per-bank and
/// per-scheme queue totals, the grand total, and a queue-cycle heatmap
/// row per scheme.
pub fn register(m: &mut Manifest, cells: &[(Scheme, Vec<Point>)]) {
    m.set_wear_unit("queue_cycles");
    let mut grand_total = 0u64;
    for (s, row) in cells {
        let p = format!("scheme.{}", s.name());
        let reg = m.stats_mut();
        for (i, c) in row.iter().enumerate() {
            let (level, queue) = (i + 1, c.queue_total());
            reg.set(format!("{p}.wb[{level}].ipc"), c.ipc);
            reg.set(format!("{p}.wb[{level}].queue_cycles_total"), queue);
            reg.set(format!("{p}.wb[{level}].raw_min_years"), c.raw_min_years);
        }
        // Per bank, summed over the levels.
        let per_bank: Vec<u64> = (0..row[0].queue_cycles.len())
            .map(|b| row.iter().map(|c| c.queue_cycles[b]).sum())
            .collect();
        for (b, q) in per_bank.iter().enumerate() {
            reg.set(format!("{p}.llc.bank[{b}].queue_cycles"), *q);
        }
        let scheme_total: u64 = per_bank.iter().sum();
        reg.set(format!("{p}.llc.queue_cycles_total"), scheme_total);
        grand_total += scheme_total;
        let row_f64: Vec<f64> = per_bank.iter().map(|&q| q as f64).collect();
        m.push_wear_row(s.name(), &row_f64);
    }
    m.stats_mut().set("llc.queue_cycles_total", grand_total);
}

/// The trickle probe: the trickle workload alone on `cfg` under S-NUCA,
/// read from `points`.
pub fn trickle(points: &Points, cfg: SystemConfig, budget: Budget) -> Point {
    points.grid(&[Scheme::SNuca], &[TRICKLE_ID], cfg, budget)[0][0].clone()
}

/// Render the trickle probe's one line.
pub fn format_trickle(p: &Point) -> String {
    format!(
        "trickle probe (1 core, S-NUCA): ipc={:.3} fills={} llc.queue_cycles_total={}",
        p.ipc,
        p.l3_fills,
        p.queue_total()
    )
}

/// Fill the trickle probe's manifest: IPC, L3 fills and the per-bank and
/// total queue cycles.
pub fn register_trickle(m: &mut Manifest, p: &Point) {
    let reg = m.stats_mut();
    reg.set("ipc", p.ipc);
    reg.set("l3_fills", p.l3_fills);
    for (b, q) in p.queue_cycles.iter().enumerate() {
        reg.set(format!("llc.bank[{b}].queue_cycles"), *q);
    }
    reg.set("llc.queue_cycles_total", p.queue_total());
}

//! Write-burst saturation study: every scheme under L3 bank pressure
//! (DESIGN.md §12, EXPERIMENTS.md "Write-burst saturation"), and the
//! trickle probe that must not queue.
//!
//! [`run`] races every scheme over the homogeneous WB1–WB4 workloads
//! (`workloads::wburst`), whose escalating fill/writeback pressure makes
//! reads queue behind slow ReRAM writes in the per-bank service model. It
//! reports per-level IPC, per-level total bank queueing and the raw
//! minimum lifetime, plus a per-bank queue-cycle heatmap per scheme.
//! [`wb_cells`] is the one WB1–WB4 grid runner; the head-to-head study
//! reads it too.
//!
//! [`run_trickle`] is the zero-contention control: the single-core
//! trickle probe (isolated read-only misses spaced far wider than the
//! write latency), on which even the asymmetric default must report
//! **zero** queue cycles in every bank. The CI smoke asserts both
//! directions.

use cmp_sim::config::SystemConfig;
use cmp_sim::system::SimResult;
use renuca_core::{CptConfig, Scheme};
use sim_stats::Table;
use wear_model::LifetimeModel;
use workloads::{workload_mix, N_WBURST, TRICKLE_ID, WBURST_ID_BASE};

use crate::budget::Budget;
use crate::obs::Manifest;
use crate::pool::parallel_map;
use crate::runner::{lifetime_model, run_workload};

/// One scheme on one write-burst level.
#[derive(Clone, Debug)]
pub struct WbCell {
    /// Total IPC.
    pub ipc: f64,
    /// Read-side queue cycles per L3 bank.
    pub per_bank_queue: Vec<u64>,
    /// Raw minimum bank lifetime in years.
    pub raw_min_years: f64,
}

impl WbCell {
    /// Queue cycles summed over banks.
    pub fn queue_total(&self) -> u64 {
        self.per_bank_queue.iter().sum()
    }
}

/// Read-side queue cycles per L3 bank.
fn bank_queue(r: &SimResult) -> Vec<u64> {
    r.bank_service
        .iter()
        .map(|b| b.queue_cycles.get())
        .collect()
}

/// Run `scheme` on WB1–WB4 under `cfg`, the levels in parallel. Index 0
/// is WB1.
pub fn wb_cells(
    scheme: Scheme,
    cfg: SystemConfig,
    budget: Budget,
    model: &LifetimeModel,
) -> Vec<WbCell> {
    let levels: Vec<usize> = (1..=N_WBURST).collect();
    parallel_map(&levels, |&level| {
        let wl = workload_mix(WBURST_ID_BASE + level, cfg.n_cores);
        let r = run_workload(&wl, scheme, cfg, CptConfig::default(), budget);
        WbCell {
            ipc: r.total_ipc(),
            per_bank_queue: bank_queue(&r),
            raw_min_years: model
                .all_bank_lifetimes(&r.wear, r.cycles)
                .into_iter()
                .fold(f64::INFINITY, f64::min),
        }
    })
}

/// Every scheme's WB1–WB4 cells, in [`Scheme::ALL`] order.
pub fn run(cfg: SystemConfig, budget: Budget) -> Vec<(Scheme, Vec<WbCell>)> {
    let model = lifetime_model(&cfg);
    Scheme::ALL
        .iter()
        .map(|&s| (s, wb_cells(s, cfg, budget, &model)))
        .collect()
}

/// Render one per-level metric: a column per WB level, a row per scheme.
pub fn level_table<'a>(
    rows: impl IntoIterator<Item = (Scheme, &'a [WbCell])>,
    metric: impl Fn(&WbCell) -> f64,
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
pub fn format(cells: &[(Scheme, Vec<WbCell>)]) -> String {
    let table = |metric: fn(&WbCell) -> f64, precision| {
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
pub fn register(m: &mut Manifest, cells: &[(Scheme, Vec<WbCell>)]) {
    m.set_wear_unit("queue_cycles");
    let mut grand_total = 0u64;
    for (s, row) in cells {
        let p = format!("scheme.{}", s.name());
        let reg = m.stats_mut();
        for (i, c) in row.iter().enumerate() {
            let level = i + 1;
            reg.set(format!("{p}.wb[{level}].ipc"), c.ipc);
            reg.set(
                format!("{p}.wb[{level}].queue_cycles_total"),
                c.queue_total(),
            );
            reg.set(format!("{p}.wb[{level}].raw_min_years"), c.raw_min_years);
        }
        // Per bank, summed over the levels.
        let per_bank: Vec<u64> = (0..row[0].per_bank_queue.len())
            .map(|b| row.iter().map(|c| c.per_bank_queue[b]).sum())
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

/// The trickle probe: the trickle workload alone on `cfg` under S-NUCA.
pub fn run_trickle(cfg: SystemConfig, budget: Budget) -> SimResult {
    let wl = workload_mix(TRICKLE_ID, cfg.n_cores);
    run_workload(&wl, Scheme::SNuca, cfg, CptConfig::default(), budget)
}

/// Render the trickle probe's one line.
pub fn format_trickle(r: &SimResult) -> String {
    format!(
        "trickle probe (1 core, S-NUCA): ipc={:.3} fills={} llc.queue_cycles_total={}",
        r.total_ipc(),
        r.hierarchy.l3_fills.get(),
        bank_queue(r).iter().sum::<u64>()
    )
}

/// Fill the trickle probe's manifest: IPC, L3 fills and the per-bank and
/// total queue cycles.
pub fn register_trickle(m: &mut Manifest, r: &SimResult) {
    let per_bank = bank_queue(r);
    let reg = m.stats_mut();
    reg.set("ipc", r.total_ipc());
    reg.set("l3_fills", r.hierarchy.l3_fills.get());
    for (b, q) in per_bank.iter().enumerate() {
        reg.set(format!("llc.bank[{b}].queue_cycles"), *q);
    }
    reg.set("llc.queue_cycles_total", per_bank.iter().sum::<u64>());
}

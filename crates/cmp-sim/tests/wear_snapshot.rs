//! `System::result` shares the wear counters copy-on-write: the
//! `SimResult` it returns must still be a snapshot. Running on afterwards
//! must leave it unchanged, and it must equal the result of an identical
//! fresh system stopped at the same point.

use cmp_sim::config::SystemConfig;
use cmp_sim::instr::{CyclicSource, Instr, InstrSource};
use cmp_sim::placement::{AccessMeta, LlcPlacement};
use cmp_sim::system::{SimResult, System};
use cmp_sim::types::BankId;

/// Address-interleaved placement with compressed (sub-block) L3 writes.
struct CompressedStriped {
    nbanks: usize,
    spec: compress::CompressSpec,
}
impl LlcPlacement for CompressedStriped {
    fn name(&self) -> &'static str {
        "striped-c2"
    }
    fn lookup_bank(&mut self, m: &AccessMeta) -> BankId {
        (m.line as usize) % self.nbanks
    }
    fn fill_bank(&mut self, m: &AccessMeta) -> BankId {
        (m.line as usize) % self.nbanks
    }
    fn compression(&self) -> Option<compress::CompressSpec> {
        Some(self.spec)
    }
}

/// Read-modify-write over `lines` lines: fills and dirty writebacks both
/// reach the L3, so the slot and cell counters move on every run.
fn rmw_source(lines: u64, offset: u64) -> Box<dyn InstrSource> {
    let instrs: Vec<Instr> = (0..lines)
        .flat_map(|i| {
            let vaddr = offset + i * 64;
            [
                Instr::Load { vaddr, pc: 8 },
                Instr::Store { vaddr, pc: 12 },
                Instr::Alu { latency: 1 },
            ]
        })
        .collect();
    Box::new(CyclicSource::new("rmw", instrs))
}

fn compressed_system() -> System {
    let cfg = SystemConfig::small(4);
    let spec = compress::CompressSpec::new(cfg.l3_subblocks, cfg.compress_seed);
    let sources = (0..4u64)
        .map(|c| rmw_source(12_000 + 3_000 * c, c << 24))
        .collect();
    System::new(
        cfg,
        Box::new(CompressedStriped {
            nbanks: cfg.n_banks,
            spec,
        }),
        sources,
        System::never_critical(&cfg),
    )
}

const FIRST_RUN: u64 = 60_000;
const SECOND_RUN: u64 = 40_000;

/// Every wear quantity the snapshot must hold still: each slot count, each
/// cell count, and the inter-set, intra-set and sub-block CVs.
#[derive(Debug, PartialEq)]
struct WearView {
    slots: Vec<u64>,
    cells: Vec<u64>,
    interset_cv: f64,
    intraset_cv: f64,
    subblock_cv: f64,
}

fn view(r: &SimResult) -> WearView {
    let w = &r.wear;
    let assoc = r.config.l3_bank.assoc;
    let mut slots = Vec::new();
    let mut cells = Vec::new();
    for bank in 0..w.nbanks() {
        for slot in 0..w.slots_per_bank() {
            slots.push(w.slot_writes(bank, slot));
            for k in 0..w.subblocks_per_slot() {
                cells.push(w.cell_writes(bank, slot, k));
            }
        }
    }
    WearView {
        slots,
        cells,
        interset_cv: w.interset_cv(assoc),
        intraset_cv: w.intraset_cv(assoc),
        subblock_cv: w.subblock_cv(),
    }
}

#[test]
fn result_is_a_snapshot_that_later_runs_leave_unchanged() {
    let mut sys = compressed_system();
    sys.run(FIRST_RUN);
    let first = sys.result();
    let at_first = view(&first);
    assert!(first.wear.total_writes() > 0, "the run must write the L3");
    assert!(first.wear.subblocks_per_slot() > 0);

    sys.run(SECOND_RUN);
    let second = sys.result();
    assert!(
        second.wear.total_writes() > first.wear.total_writes(),
        "the second run must write the L3 again"
    );
    assert_eq!(view(&first), at_first, "running on changed the snapshot");

    // An identical fresh system stopped at the first point.
    let mut fresh = compressed_system();
    fresh.run(FIRST_RUN);
    assert_eq!(view(&fresh.result()), at_first);

    // And one that ran straight through without a snapshot between.
    let mut straight = compressed_system();
    straight.run(FIRST_RUN);
    straight.run(SECOND_RUN);
    assert_eq!(view(&straight.result()), view(&second));
}

//! The interfaces between the substrate and the NUCA placement policies.
//!
//! The Re-NUCA paper's contribution is a *placement policy* (where in the
//! 16-bank L3 each cache block lives) plus a *criticality predictor* (which
//! loads matter for performance). Both are expressed here as traits so the
//! simulator is policy-agnostic; the concrete S-NUCA / R-NUCA / Private /
//! Naive / Re-NUCA implementations live in the `renuca-core` crate.

use crate::cache::ReplacementKind;
use crate::types::{BankId, CoreId, Cycle, Pc};

/// Why the LLC is being consulted about a line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LlcAccessKind {
    /// A demand fetch after an L2 miss (load or store-allocate).
    Demand,
    /// A dirty line written back from a private L2.
    Writeback,
}

/// Everything a placement policy may consider for one LLC access.
#[derive(Clone, Copy, Debug)]
pub struct AccessMeta {
    /// Requesting core.
    pub core: CoreId,
    /// Physical line address.
    pub line: u64,
    /// Page number of the line (`line >> 6`).
    pub page: u64,
    /// PC of the triggering load/store (0 for writebacks).
    pub pc: Pc,
    /// Access kind.
    pub kind: LlcAccessKind,
    /// Criticality prediction for the triggering load, made at issue time
    /// by the core's [`CriticalityPredictor`]. Always `false` for
    /// writebacks and store-allocates.
    pub predicted_critical: bool,
}

/// A last-level-cache placement policy.
///
/// The hierarchy calls `lookup_bank` to find where a line *would* live,
/// `fill_bank` to decide where a newly fetched line *will* live, and the
/// notification hooks so stateful policies (Re-NUCA's Mapping Bit Vector,
/// Naive's write counters and directory) can stay consistent.
pub trait LlcPlacement {
    /// Human-readable scheme name ("S-NUCA", "Re-NUCA", …).
    fn name(&self) -> &'static str;

    /// The bank to search for `meta.line`.
    fn lookup_bank(&mut self, meta: &AccessMeta) -> BankId;

    /// The bank a new fill of `meta.line` should be placed in. For static
    /// schemes this must equal `lookup_bank` for the same meta.
    fn fill_bank(&mut self, meta: &AccessMeta) -> BankId;

    /// A fill of `meta.line` actually happened into `bank`.
    fn on_fill(&mut self, meta: &AccessMeta, bank: BankId) {
        let _ = (meta, bank);
    }

    /// Any write (fill or writeback) landed in `bank`.
    fn on_l3_write(&mut self, bank: BankId) {
        let _ = bank;
    }

    /// `line` was evicted from `bank` (capacity replacement). Policies
    /// holding per-line residency state must clear it here — the paper's
    /// §IV.C: "When a cache line is being evicted, the corresponding MBV
    /// bit needs to be reset back to 0."
    fn on_evict(&mut self, line: u64, bank: BankId) {
        let _ = (line, bank);
    }

    /// Extra cycles charged on every LLC lookup before the bank access
    /// (e.g. the Naive oracle's global-directory indirection).
    fn lookup_overhead(&self) -> Cycle {
        0
    }

    /// A second bank to probe when `lookup_bank`'s misses, for policies
    /// whose lines can live in one of two places and that keep no per-line
    /// residency state (the MBV-less Re-NUCA ablation). The hierarchy
    /// charges a full serialized second probe — which is exactly the cost
    /// the paper's enhanced TLB exists to avoid (§IV.C).
    fn secondary_bank(&mut self, meta: &AccessMeta) -> Option<BankId> {
        let _ = meta;
        None
    }

    /// Victim-selection policy of the L3 banks this placement drives. The
    /// hierarchy queries this once at construction; a scheme whose
    /// replacement part is not true LRU overrides it, bare placements keep
    /// the default. This keeps replacement a property of the scheme — no
    /// `SystemConfig` knob, no manifest churn.
    fn l3_replacement(&self) -> ReplacementKind {
        ReplacementKind::Lru
    }

    /// Compression model this placement drives, if any. The hierarchy
    /// queries this once at construction (like
    /// [`LlcPlacement::l3_replacement`]) and, when `Some`, keeps per-slot
    /// size-class state, charges sub-block wear masks instead of full-line
    /// writes, and services expansion re-fills through the bank model.
    /// Placement-only schemes keep the default — same pattern as the
    /// replacement hook: compression is a property of the scheme, not a
    /// `SystemConfig` switch.
    fn compression(&self) -> Option<compress::CompressSpec> {
        None
    }

    /// Concrete-type escape hatch for verification tooling: policies with
    /// inspectable internal state (Re-NUCA's Mapping Bit Vectors, the Naive
    /// oracle's directory and write counters) return `Some(self)` so the
    /// differential harness can downcast and compare that state against a
    /// reference model after a run. Stateless policies keep the default.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Statistics exposed by a criticality predictor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Loads predicted critical at issue.
    pub predicted_critical: u64,
    /// Loads predicted non-critical at issue.
    pub predicted_noncritical: u64,
}

/// A per-core load-criticality predictor.
///
/// The simulator core calls `predict` at load dispatch (the prediction
/// rides with the access down the hierarchy), `on_rob_block` the first time
/// a given dynamic load blocks the head of the ROB, and `on_load_commit`
/// when the load retires (the paper inserts new CPT entries at commit).
pub trait CriticalityPredictor {
    /// Predict whether the load at `pc` is performance-critical, and count
    /// the issue (paper: `numLoadsCount += 1` on a CPT hit).
    fn predict(&mut self, pc: Pc) -> bool;

    /// The dynamic load at `pc` blocked the ROB head (counted once per
    /// dynamic instance; paper: `robBlockCount += 1`).
    fn on_rob_block(&mut self, pc: Pc);

    /// The load at `pc` committed; `blocked` tells whether it ever blocked
    /// the ROB head. New CPT entries are inserted here.
    fn on_load_commit(&mut self, pc: Pc, blocked: bool);

    /// Issue-time prediction counters.
    fn stats(&self) -> PredictorStats {
        PredictorStats::default()
    }
}

/// The default predictor for schemes without criticality logic: predicts
/// every load non-critical and learns nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NeverCritical;

impl CriticalityPredictor for NeverCritical {
    fn predict(&mut self, _pc: Pc) -> bool {
        false
    }
    fn on_rob_block(&mut self, _pc: Pc) {}
    fn on_load_commit(&mut self, _pc: Pc, _blocked: bool) {}
}

/// A predictor that marks every load critical (turns Re-NUCA into pure
/// R-NUCA; used in ablations and tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysCritical;

impl CriticalityPredictor for AlwaysCritical {
    fn predict(&mut self, _pc: Pc) -> bool {
        true
    }
    fn on_rob_block(&mut self, _pc: Pc) {}
    fn on_load_commit(&mut self, _pc: Pc, _blocked: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_critical_predicts_false() {
        let mut p = NeverCritical;
        assert!(!p.predict(123));
        p.on_rob_block(123);
        p.on_load_commit(123, true);
        assert_eq!(p.stats(), PredictorStats::default());
    }

    #[test]
    fn always_critical_predicts_true() {
        let mut p = AlwaysCritical;
        assert!(p.predict(0));
    }

    #[test]
    fn access_meta_is_copy() {
        let m = AccessMeta {
            core: 1,
            line: 2,
            page: 0,
            pc: 3,
            kind: LlcAccessKind::Demand,
            predicted_critical: true,
        };
        let m2 = m;
        assert_eq!(m.line, m2.line); // still usable: Copy
    }
}

//! The instruction stream interface between workloads and cores.

use crate::feed::BlockSupply;
use crate::types::Pc;

/// One dynamic instruction produced by a workload model.
///
/// The simulator is trace-driven: it does not interpret opcodes, it only
/// needs to know whether an instruction touches memory (and where) and how
/// long its execution latency is. `Alu` covers every non-memory instruction
/// class; long-latency units (FP divide, etc.) are modelled by the workload
/// choosing a larger `latency`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    /// A non-memory instruction completing `latency` cycles after dispatch.
    Alu {
        /// Execution latency in cycles (≥ 1).
        latency: u8,
    },
    /// A load from `vaddr`, issued by static instruction `pc`.
    Load {
        /// Virtual (per-application) byte address.
        vaddr: u64,
        /// Program counter of the load.
        pc: Pc,
    },
    /// A store to `vaddr`, issued by static instruction `pc`.
    Store {
        /// Virtual (per-application) byte address.
        vaddr: u64,
        /// Program counter of the store.
        pc: Pc,
    },
}

impl Instr {
    /// Whether this instruction accesses memory.
    pub fn is_mem(&self) -> bool {
        matches!(self, Instr::Load { .. } | Instr::Store { .. })
    }

    /// Whether this instruction is a load.
    pub fn is_load(&self) -> bool {
        matches!(self, Instr::Load { .. })
    }
}

/// An infinite stream of instructions for one core.
///
/// Implementors are the synthetic application models in the `workloads`
/// crate; tests use small closures/arrays. The stream must be infinite —
/// the instruction *budget* is enforced by the core model, not the source.
///
/// Every source is a [`BlockSupply`] through [`fill`](Self::fill), so a
/// core can dispatch straight from it.
pub trait InstrSource: BlockSupply {
    /// Produce the next dynamic instruction.
    fn next_instr(&mut self) -> Instr;

    /// Consume a run of up to `max` consecutive single-cycle ALU
    /// instructions in one call, returning the run length (possibly 0).
    ///
    /// This is the batched path for the dominant instruction class: the
    /// default [`fill`](Self::fill) writes the `n` returned instructions
    /// as `Alu { latency: 1 }` without a call per instruction. The stream
    /// is unchanged — the source must buffer the first non-run instruction
    /// it drew past the run's end and return it from the next
    /// [`next_instr`](Self::next_instr) call. The default implementation
    /// returns 0 (no batching), which is always correct.
    fn next_alu_run(&mut self, max: u32) -> u32 {
        let _ = max;
        0
    }

    /// Write the next `block.len()` instructions of the stream into
    /// `block` and return how many were written: all of them, as the
    /// stream is infinite.
    ///
    /// Cores dispatch from blocks filled this way. The default builds the
    /// block from [`next_alu_run`](Self::next_alu_run) and
    /// [`next_instr`](Self::next_instr) calls, so a source that wraps
    /// another sees the calls a per-instruction consumer would make.
    fn fill(&mut self, block: &mut [Instr]) -> usize {
        let mut n = 0;
        while n < block.len() {
            let max = u32::try_from(block.len() - n).unwrap_or(u32::MAX);
            let run = (self.next_alu_run(max) as usize).min(block.len() - n);
            block[n..n + run].fill(Instr::Alu { latency: 1 });
            n += run;
            if n < block.len() {
                block[n] = self.next_instr();
                n += 1;
            }
        }
        n
    }

    /// A copy of this source, positioned at the stream's current point,
    /// that another thread can own.
    ///
    /// [`System::new`](crate::system::System::new) hands such copies to a
    /// generator thread that fills the cores' blocks while the simulating
    /// thread simulates; see [`feed`](crate::feed). The default `None`
    /// keeps this source's stream on the simulating thread.
    fn fork(&self) -> Option<Box<dyn InstrSource + Send>> {
        None
    }

    /// Short label for reports ("mcf", "streamL", …).
    fn label(&self) -> &str {
        "anonymous"
    }

    /// Virtual-address ranges `(start, bytes)` that should be resident in
    /// the cache hierarchy before measurement begins.
    ///
    /// The paper warms caches by simulating 100 M instructions after a 2 B
    /// fast-forward; at this reproduction's much shorter instruction
    /// budgets, cache-resident working sets (the hot and mid regions of the
    /// synthetic models) would otherwise spend the whole measured window
    /// faulting in. `System::prewarm` installs these ranges functionally —
    /// the checkpoint-restore equivalent — before the timed warm-up, and
    /// all statistics (including wear) are reset afterwards.
    fn warm_ranges(&self) -> Vec<(u64, u64)> {
        Vec::new()
    }
}

/// A trivially repeating instruction source for tests and benchmarks.
#[derive(Clone, Debug)]
pub struct CyclicSource {
    instrs: Vec<Instr>,
    pos: usize,
    name: String,
}

impl CyclicSource {
    /// Cycle through `instrs` forever.
    ///
    /// # Panics
    /// Panics on an empty instruction list.
    pub fn new(name: impl Into<String>, instrs: Vec<Instr>) -> Self {
        assert!(!instrs.is_empty(), "CyclicSource needs at least one instr");
        CyclicSource {
            instrs,
            pos: 0,
            name: name.into(),
        }
    }
}

impl InstrSource for CyclicSource {
    fn next_instr(&mut self) -> Instr {
        let i = self.instrs[self.pos];
        self.pos = (self.pos + 1) % self.instrs.len();
        i
    }

    fn label(&self) -> &str {
        &self.name
    }

    fn fork(&self) -> Option<Box<dyn InstrSource + Send>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instr_classification() {
        assert!(Instr::Load { vaddr: 0, pc: 0 }.is_mem());
        assert!(Instr::Load { vaddr: 0, pc: 0 }.is_load());
        assert!(Instr::Store { vaddr: 0, pc: 0 }.is_mem());
        assert!(!Instr::Store { vaddr: 0, pc: 0 }.is_load());
        assert!(!Instr::Alu { latency: 1 }.is_mem());
    }

    #[test]
    fn cyclic_source_repeats() {
        let mut s = CyclicSource::new(
            "t",
            vec![Instr::Alu { latency: 1 }, Instr::Load { vaddr: 64, pc: 7 }],
        );
        assert_eq!(s.next_instr(), Instr::Alu { latency: 1 });
        assert_eq!(s.next_instr(), Instr::Load { vaddr: 64, pc: 7 });
        assert_eq!(s.next_instr(), Instr::Alu { latency: 1 });
        assert_eq!(s.label(), "t");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_cyclic_source_rejected() {
        CyclicSource::new("t", vec![]);
    }
}

//! Per-bank LLC service model: asymmetric read/write latency plus
//! data-array occupancy.
//!
//! The paper's premise is that ReRAM writes are slow (§II: 4–8× the read
//! latency). Before this module, every L3 bank operation — demand read,
//! fill, writeback — charged one symmetric latency and banks had infinite
//! internal bandwidth; only NoC links serialized. [`LlcBanks`] gives each
//! bank a [`reserve`]-style busy calendar: reads occupy the data array for
//! `read_latency`, writes and fills for `write_latency`, and later
//! operations queue behind in-flight ones — the same busy-interval
//! mechanism mesh links ([`crate::noc`]) and DRAM banks ([`crate::dram`])
//! already use.
//!
//! Timing semantics (chosen so a symmetric geometry with occupancy
//! disabled reproduces the pre-split model cycle-for-cycle):
//!
//! * **Read (demand/secondary/prefetch hit)** — the SRAM tag check
//!   overlaps the data read; data is ready `read_latency` after the bank
//!   starts the operation, where the start queues behind any in-flight
//!   operation.
//! * **Tag-check miss** — only the tag array is touched; the request
//!   leaves for memory after `tag_latency` without reserving the data
//!   array (tag arrays are SRAM and effectively unlimited-bandwidth at
//!   this granularity).
//! * **Write / fill** — the operation occupies the data array for
//!   `write_latency` starting when the bank is free. Fills complete into a
//!   write buffer from the requester's point of view: the *core's* data is
//!   forwarded at arrival time, but the bank stays busy for the slow ReRAM
//!   program, which is exactly how write latency hurts — by delaying
//!   *later* reads (RAW turnaround), not the write's own requester.
//!   Consequently `queue_cycles` counts **read** waiting only: it is the
//!   cycles of real stall the bank inflicted, while posted-write backlog
//!   shows up in the `write_service` residency histogram.
//!
//! Each bank also tracks the Sniper-style op-history transition counters
//! (read-after-read / read-after-write / write-after-read /
//! write-after-write); RAW is the expensive turnaround on ReRAM. The
//! transition counters sum to `ops - 1` per bank.

use crate::config::CacheGeometry;
use crate::reserve::{gc, reserve, Calendar};
use crate::types::{BankId, Cycle};
use sim_stats::{Counter, Histogram, StatsRegistry};

/// Reservations older than this many cycles behind the newest observed
/// request time are garbage-collected (same slack as [`crate::dram`]).
/// This drops live reservations too (see [`crate::reserve`]).
const GC_SLACK: Cycle = 100_000;

/// Operation class for occupancy and transition accounting. Fills count
/// as writes: they program the ReRAM array exactly like a writeback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpClass {
    Read,
    Write,
}

/// Contention and service statistics for one LLC bank.
#[derive(Clone, Debug, Default)]
pub struct BankStats {
    /// Data-array reads (demand hits, secondary-probe hits, prefetch hits).
    pub read_ops: Counter,
    /// Data-array writes from L2 writebacks.
    pub write_ops: Counter,
    /// Data-array writes from fills (demand, prefetch, write-allocate).
    pub fill_ops: Counter,
    /// Data-array programs from compression *expansion re-fills*: a
    /// resident line's size class grew past its allocation and the line
    /// was re-compacted into a bigger one. Kept separate from `fill_ops`
    /// because expansions re-program sub-blocks the triggering write
    /// already aged — the wear model charges them zero extra line wear,
    /// so the `fill_ops + write_ops == wear` accounting identity the
    /// differential harness pins stays intact.
    pub expand_ops: Counter,
    /// Cycles *reads* spent queued behind a busy data array. Writes and
    /// fills are posted (write-buffer semantics): a deferred write start
    /// delays no requester, so their waiting is not a stall and is
    /// reported only through the `write_service` residency histogram.
    /// This counter is therefore exactly the performance lost to bank
    /// contention.
    pub queue_cycles: Counter,
    /// Read issued while the previous operation was a read.
    pub rar: Counter,
    /// Read issued while the previous operation was a write — the
    /// expensive ReRAM turnaround the asymmetric model exists to expose.
    pub raw: Counter,
    /// Write issued while the previous operation was a read.
    pub war: Counter,
    /// Write issued while the previous operation was a write.
    pub waw: Counter,
    /// Total bank residency (queue + service) of read operations.
    pub read_service: Histogram,
    /// Total bank residency (queue + service) of write and fill operations.
    pub write_service: Histogram,
}

impl BankStats {
    /// Total operations the bank served.
    pub fn ops(&self) -> u64 {
        self.read_ops.get() + self.write_ops.get() + self.fill_ops.get() + self.expand_ops.get()
    }

    /// Sum of the four op-transition counters; `ops() - 1` when the bank
    /// served at least one operation (the first op has no predecessor).
    pub fn transitions(&self) -> u64 {
        self.rar.get() + self.raw.get() + self.war.get() + self.waw.get()
    }

    /// Register the counters plus service-time summaries under
    /// `<prefix>.read_ops`, `.write_ops`, `.fill_ops`, `.queue_cycles`,
    /// `.rar`, `.raw`, `.war`, `.waw`, and
    /// `.{read,write}_service.{count,mean_cycles,max_cycles,p95_cycles}`.
    pub fn register(&self, reg: &mut StatsRegistry, prefix: &str) {
        reg.set(format!("{prefix}.read_ops"), self.read_ops.get());
        reg.set(format!("{prefix}.write_ops"), self.write_ops.get());
        reg.set(format!("{prefix}.fill_ops"), self.fill_ops.get());
        if self.expand_ops.get() != 0 {
            reg.set(format!("{prefix}.expand_ops"), self.expand_ops.get());
        }
        reg.set(format!("{prefix}.queue_cycles"), self.queue_cycles.get());
        reg.set(format!("{prefix}.rar"), self.rar.get());
        reg.set(format!("{prefix}.raw"), self.raw.get());
        reg.set(format!("{prefix}.war"), self.war.get());
        reg.set(format!("{prefix}.waw"), self.waw.get());
        for (name, h) in [
            ("read_service", &self.read_service),
            ("write_service", &self.write_service),
        ] {
            reg.set(format!("{prefix}.{name}.count"), h.count());
            reg.set(format!("{prefix}.{name}.mean_cycles"), h.mean());
            reg.set(format!("{prefix}.{name}.max_cycles"), h.max().unwrap_or(0));
            reg.set(
                format!("{prefix}.{name}.p95_cycles"),
                h.percentile(95.0).unwrap_or(0),
            );
        }
    }
}

#[derive(Clone, Debug, Default)]
struct BankState {
    busy: Calendar,
    last: Option<OpClass>,
    stats: BankStats,
}

/// All LLC banks' data-array calendars and statistics.
#[derive(Clone, Debug)]
pub struct LlcBanks {
    banks: Vec<BankState>,
    read_latency: Cycle,
    write_latency: Cycle,
    occupancy: bool,
    /// Reservations strictly before this time can never be contended again.
    floor: Cycle,
    /// Largest `now` observed; drives the amortized slack-horizon GC for
    /// every caller, floored or not.
    max_now: Cycle,
    last_gc: Cycle,
}

impl LlcBanks {
    /// Build the service model for `n_banks` banks of geometry `geo`.
    /// With `occupancy` false the calendars are bypassed: operations
    /// still pay their service latency but never queue (the legacy
    /// infinite-internal-bandwidth model).
    pub fn new(n_banks: usize, geo: &CacheGeometry, occupancy: bool) -> Self {
        LlcBanks {
            banks: vec![BankState::default(); n_banks],
            read_latency: geo.read_latency,
            write_latency: geo.write_latency,
            occupancy,
            floor: 0,
            max_now: 0,
            last_gc: 0,
        }
    }

    /// Number of banks.
    pub fn n_banks(&self) -> usize {
        self.banks.len()
    }

    /// A data-array read issued at `now`: returns the cycle the data is
    /// available, after queueing behind any in-flight operation.
    pub fn read(&mut self, bank: BankId, now: Cycle) -> Cycle {
        let done = self.service(bank, OpClass::Read, now);
        self.banks[bank].stats.read_ops.inc();
        done
    }

    /// A writeback arriving at `now`: the bank programs the line for
    /// `write_latency`. Returns the completion cycle (nothing waits on it
    /// directly — it matters by occupying the array).
    pub fn write(&mut self, bank: BankId, now: Cycle) -> Cycle {
        let done = self.service(bank, OpClass::Write, now);
        self.banks[bank].stats.write_ops.inc();
        done
    }

    /// A fill arriving at `now`: identical occupancy to a write, separate
    /// accounting. The requester's data forwards at `now` (write-buffer
    /// semantics); the returned completion is when the array frees up.
    pub fn fill(&mut self, bank: BankId, now: Cycle) -> Cycle {
        let done = self.service(bank, OpClass::Write, now);
        self.banks[bank].stats.fill_ops.inc();
        done
    }

    /// A compression expansion re-fill arriving at `now`: identical
    /// write-class occupancy (the re-compaction programs the data array
    /// like any write), posted like a fill, counted separately — see
    /// [`BankStats::expand_ops`] for why it stays out of `fill_ops`.
    pub fn expand(&mut self, bank: BankId, now: Cycle) -> Cycle {
        let done = self.service(bank, OpClass::Write, now);
        self.banks[bank].stats.expand_ops.inc();
        done
    }

    fn service(&mut self, bank: BankId, class: OpClass, now: Cycle) -> Cycle {
        if now > self.max_now {
            self.max_now = now;
            if self.max_now - self.last_gc > GC_SLACK {
                let horizon = self.floor.max(self.max_now.saturating_sub(GC_SLACK));
                for b in &mut self.banks {
                    gc(&mut b.busy, horizon);
                }
                self.last_gc = self.max_now;
            }
        }
        let hold = match class {
            OpClass::Read => self.read_latency,
            OpClass::Write => self.write_latency,
        };
        let b = &mut self.banks[bank];
        let start = if self.occupancy {
            reserve(&mut b.busy, now, hold, self.floor)
        } else {
            now
        };
        // Only reads stall anyone on a deferred start; posted writes show
        // their waiting in the residency histogram instead.
        if class == OpClass::Read {
            b.stats.queue_cycles.add(start - now);
        }
        match (b.last, class) {
            (Some(OpClass::Read), OpClass::Read) => b.stats.rar.inc(),
            (Some(OpClass::Write), OpClass::Read) => b.stats.raw.inc(),
            (Some(OpClass::Read), OpClass::Write) => b.stats.war.inc(),
            (Some(OpClass::Write), OpClass::Write) => b.stats.waw.inc(),
            (None, _) => {}
        }
        b.last = Some(class);
        let done = start + hold;
        match class {
            OpClass::Read => b.stats.read_service.record(done - now),
            OpClass::Write => b.stats.write_service.record(done - now),
        }
        done
    }

    /// Statistics of one bank.
    pub fn stats(&self, bank: BankId) -> &BankStats {
        &self.banks[bank].stats
    }

    /// Clone out every bank's statistics (for [`crate::system::SimResult`]).
    pub fn stats_vec(&self) -> Vec<BankStats> {
        self.banks.iter().map(|b| b.stats.clone()).collect()
    }

    /// Advance the contention floor: no future operation will be issued
    /// with `now` earlier than this. Monotone.
    pub fn set_floor(&mut self, now: Cycle) {
        self.floor = self.floor.max(now);
    }

    /// Reset statistics, calendars, op history and the time floor (used
    /// between warmup and measurement).
    pub fn reset_stats(&mut self) {
        for b in &mut self.banks {
            b.stats = BankStats::default();
            b.busy.clear();
            b.last = None;
        }
        self.floor = 0;
        self.max_now = 0;
        self.last_gc = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asym() -> LlcBanks {
        let geo = CacheGeometry {
            size_bytes: 2 * 1024 * 1024,
            assoc: 16,
            tag_latency: 20,
            read_latency: 100,
            write_latency: 400,
        };
        LlcBanks::new(4, &geo, true)
    }

    #[test]
    fn idle_read_costs_read_latency() {
        let mut b = asym();
        assert_eq!(b.read(0, 1000), 1100);
        assert_eq!(b.stats(0).queue_cycles.get(), 0);
    }

    #[test]
    fn read_queues_behind_inflight_write() {
        let mut b = asym();
        // Write occupies [1000, 1400); a read at 1100 starts at 1400.
        assert_eq!(b.write(0, 1000), 1400);
        assert_eq!(b.read(0, 1100), 1500);
        assert_eq!(b.stats(0).queue_cycles.get(), 300);
        assert_eq!(b.stats(0).raw.get(), 1);
    }

    #[test]
    fn banks_are_independent() {
        let mut b = asym();
        b.write(0, 1000);
        assert_eq!(b.read(1, 1100), 1200);
        assert_eq!(b.stats(1).queue_cycles.get(), 0);
    }

    #[test]
    fn occupancy_off_never_queues() {
        let geo = CacheGeometry {
            size_bytes: 2 * 1024 * 1024,
            assoc: 16,
            tag_latency: 20,
            read_latency: 100,
            write_latency: 400,
        };
        let mut b = LlcBanks::new(2, &geo, false);
        assert_eq!(b.write(0, 1000), 1400);
        assert_eq!(b.read(0, 1001), 1101);
        assert_eq!(b.stats(0).queue_cycles.get(), 0);
    }

    #[test]
    fn transition_counters_sum_to_ops_minus_one() {
        let mut b = asym();
        let mut t = 0;
        for i in 0..37u64 {
            t += 50;
            match i % 3 {
                0 => b.read(2, t),
                1 => b.write(2, t),
                _ => b.fill(2, t),
            };
        }
        let s = b.stats(2);
        assert_eq!(s.ops(), 37);
        assert_eq!(s.transitions(), 36);
    }

    #[test]
    fn posted_writes_do_not_count_as_queueing() {
        let mut b = asym();
        assert_eq!(b.write(0, 1000), 1400);
        // A second write arriving mid-program is deferred to 1400 but
        // stalls nobody: the backlog lands in the residency histogram,
        // not in queue_cycles.
        assert_eq!(b.fill(0, 1100), 1800);
        let s = b.stats(0);
        assert_eq!(s.queue_cycles.get(), 0);
        assert_eq!(s.write_service.max(), Some(700));
        assert_eq!(s.waw.get(), 1);
    }

    #[test]
    fn service_histograms_include_queueing() {
        let mut b = asym();
        b.write(0, 1000); // busy until 1400
        b.read(0, 1100); // waits 300, served 100 -> residency 400
        let s = b.stats(0);
        assert_eq!(s.write_service.count(), 1);
        assert_eq!(s.write_service.max(), Some(400));
        assert_eq!(s.read_service.count(), 1);
        assert_eq!(s.read_service.max(), Some(400));
    }

    #[test]
    fn expand_occupies_like_a_write_but_counts_separately() {
        let mut b = asym();
        assert_eq!(b.expand(0, 1000), 1400);
        // Posted like a write: a queued expansion stalls nobody.
        assert_eq!(b.expand(0, 1100), 1800);
        let s = b.stats(0);
        assert_eq!(s.expand_ops.get(), 2);
        assert_eq!(s.fill_ops.get(), 0);
        assert_eq!(s.queue_cycles.get(), 0);
        assert_eq!(s.ops(), 2);
        assert_eq!(s.waw.get(), 1);
        assert_eq!(s.transitions(), 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut b = asym();
        b.write(0, 1000);
        b.set_floor(5000);
        b.reset_stats();
        assert_eq!(b.stats(0).ops(), 0);
        // Calendar cleared: a read at an overlapping time does not queue.
        assert_eq!(b.read(0, 1001), 1101);
    }
}

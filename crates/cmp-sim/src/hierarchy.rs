//! The three-level memory hierarchy: private L1D and L2 per core, a shared
//! 16-bank NUCA L3 over the mesh, and DRAM behind it.
//!
//! This module owns every *state* effect of a memory access — cache
//! contents, inclusion, coherence-directory updates, ReRAM wear, DRAM row
//! buffers — and computes the *timing* of loads functionally: one call
//! returns the full latency of the access, with shared-resource contention
//! (mesh links, L3 banks, DRAM banks/buses) carried in busy calendars.
//!
//! Each L3 install (fill, eviction, rotation flush) runs in two halves. The
//! *state* half moves lines, compression and policy state; the *charge*
//! half books bank and mesh calendars and DRAM writebacks and charges wear
//! and counters. Prewarm runs the state half alone (see `prewarm_fill`).
//!
//! Writes into the L3 — the quantity whose spatial distribution the whole
//! paper is about — happen on exactly two paths, matching §III of the
//! paper: *"writes to the L3 caches come from both write backs from L2 and
//! a cache line fetch upon a L3 miss."* Both paths charge the
//! [`wear_model::WearTracker`] at the physical (set, way) slot that absorbs
//! the write, and notify the placement policy.
//!
//! Inclusion: L2 ⊇ L1 and L3 ⊇ L2. L3 evictions back-invalidate the private
//! copies through the MESI directory (and trigger the policy's `on_evict`,
//! which is what resets Re-NUCA's Mapping Bit Vector).

use crate::bank::LlcBanks;
use crate::cache::{LookupResult, SetAssocCache};
use crate::coherence::{cores_of, Directory};
use crate::config::{PrefetchConfig, SystemConfig};
use crate::dram::Dram;
use crate::noc::Mesh;
use crate::placement::{AccessMeta, LlcAccessKind, LlcPlacement};
use crate::table::FixedTable;
use crate::types::{page_of_line, BankId, CoreId, Cycle, Pc};
use sim_stats::Counter;
use wear_model::WearTracker;

/// Timing outcome of one core-side memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Total latency from issue to data return, in cycles.
    pub latency: Cycle,
    /// Whether the access hit in the L1 (MSHR allocation gate).
    pub l1_hit: bool,
}

/// Per-core hierarchy counters (the paper's WPKI / MPKI / hit-rate inputs).
#[derive(Clone, Copy, Debug, Default)]
pub struct PerCoreMemStats {
    /// L1 demand misses.
    pub l1_misses: u64,
    /// L2 demand misses (accesses that reached the L3).
    pub l3_accesses: u64,
    /// L3 hits for this core's demands.
    pub l3_hits: u64,
    /// L3 misses (lines fetched from memory) — MPKI numerator.
    pub l3_misses: u64,
    /// Dirty L2 lines written back into the L3 — WPKI numerator.
    pub l2_writebacks: u64,
}

impl PerCoreMemStats {
    /// L3 hit rate for this core.
    pub fn l3_hit_rate(&self) -> f64 {
        if self.l3_accesses == 0 {
            0.0
        } else {
            self.l3_hits as f64 / self.l3_accesses as f64
        }
    }

    /// Register every counter under `<prefix>.l1_misses`,
    /// `<prefix>.l3_accesses`, `<prefix>.l3_hits`, `<prefix>.l3_misses`,
    /// `<prefix>.l2_writebacks`.
    pub fn register(&self, reg: &mut sim_stats::StatsRegistry, prefix: &str) {
        reg.set(format!("{prefix}.l1_misses"), self.l1_misses);
        reg.set(format!("{prefix}.l3_accesses"), self.l3_accesses);
        reg.set(format!("{prefix}.l3_hits"), self.l3_hits);
        reg.set(format!("{prefix}.l3_misses"), self.l3_misses);
        reg.set(format!("{prefix}.l2_writebacks"), self.l2_writebacks);
    }
}

/// Global hierarchy counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct HierarchyStats {
    /// Fills into L3 banks (one per L3 miss).
    pub l3_fills: Counter,
    /// Fills whose triggering load was predicted non-critical (or was a
    /// store/writeback path) — Figure 8's numerator.
    pub l3_fills_noncritical: Counter,
    /// All writes into L3 banks (fills + L2 writebacks).
    pub l3_writes: Counter,
    /// L3 writes that landed in blocks recorded non-critical — Figure 9's
    /// numerator (requires `track_block_criticality`).
    pub l3_writes_noncritical: Counter,
    /// Dirty L3 victims written back to DRAM.
    pub l3_writebacks_to_dram: Counter,
    /// Lines invalidated in private caches by inclusive-L3 evictions.
    pub back_invalidations: Counter,
    /// Prefetches issued by the stride prefetchers.
    pub prefetches_issued: Counter,
    /// Prefetches that fetched a line from DRAM into L3+L2.
    pub prefetch_fills: Counter,
    /// Prefetches satisfied by an L3 hit (promoted into the L2).
    pub prefetch_l3_hits: Counter,
    /// Intra-bank set-mapping rotations performed.
    pub set_rotations: Counter,
    /// Lines flushed by rotations.
    pub rotation_flushes: Counter,
    /// Two-probe lookups issued (MBV-less policies).
    pub secondary_probes: Counter,
    /// Two-probe lookups that hit at the second bank.
    pub secondary_hits: Counter,
}

impl HierarchyStats {
    /// Register every counter under `<prefix>.<field>` (e.g.
    /// `hierarchy.l3_fills`), in declaration order.
    pub fn register(&self, reg: &mut sim_stats::StatsRegistry, prefix: &str) {
        let fields = [
            ("l3_fills", self.l3_fills),
            ("l3_fills_noncritical", self.l3_fills_noncritical),
            ("l3_writes", self.l3_writes),
            ("l3_writes_noncritical", self.l3_writes_noncritical),
            ("l3_writebacks_to_dram", self.l3_writebacks_to_dram),
            ("back_invalidations", self.back_invalidations),
            ("prefetches_issued", self.prefetches_issued),
            ("prefetch_fills", self.prefetch_fills),
            ("prefetch_l3_hits", self.prefetch_l3_hits),
            ("set_rotations", self.set_rotations),
            ("rotation_flushes", self.rotation_flushes),
            ("secondary_probes", self.secondary_probes),
            ("secondary_hits", self.secondary_hits),
        ];
        for (name, counter) in fields {
            reg.set(format!("{prefix}.{name}"), counter.get());
        }
    }
}

/// Per-bank compression counters, populated only when the placement policy
/// drives a [`compress::CompressSpec`] (see [`LlcPlacement::compression`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BankCompressStats {
    /// Writes (fills and writebacks) whose content compressed to each size
    /// class, indexed by `log2(class)`: `[class-1, class-2, class-4]`.
    pub class_writes: [u64; 3],
    /// In-place expansions: writebacks whose size class outgrew the slot's
    /// allocation, re-programming the line through an extra bank operation.
    pub expansions: u64,
}

impl BankCompressStats {
    /// Register every counter under `<prefix>.compress.<field>`.
    pub fn register(&self, reg: &mut sim_stats::StatsRegistry, prefix: &str) {
        for (i, &w) in self.class_writes.iter().enumerate() {
            reg.set(format!("{prefix}.compress.class{}_writes", 1u32 << i), w);
        }
        reg.set(format!("{prefix}.compress.expansions"), self.expansions);
    }
}

/// Per-slot compression bookkeeping for a compressed L3 (L2C2-style).
///
/// Each physical slot records the size class its resident line was last
/// *allocated* at and a write version (reset on fill) that drives both the
/// content model and the rotating sub-block mask. Allocation only grows in
/// place — a write that compresses smaller leaves the allocation alone (no
/// re-compaction), one that compresses larger triggers an expansion.
struct CompressState {
    spec: compress::CompressSpec,
    /// Allocated size class per physical slot, `[bank][slot]`.
    class: Vec<Vec<u8>>,
    /// Write version per physical slot, `[bank][slot]`.
    version: Vec<Vec<u32>>,
    stats: Vec<BankCompressStats>,
}

/// An L3 data-array write its state half left to price: the slot and,
/// under compression, the class and version written and any expansion.
#[derive(Clone, Copy)]
struct SlotWrite {
    bank: BankId,
    slot: usize,
    line: u64,
    class: u8,
    version: u32,
    expand: bool,
}

/// An L3 line its state half evicted: the cores whose copies it
/// back-invalidated (one bit each) and whether its data goes to DRAM.
struct Victim {
    line: u64,
    holders: u32,
    dirty: bool,
}

/// One stride-detector entry of a per-core prefetcher.
#[derive(Clone, Copy, Debug, Default)]
struct StreamEntry {
    last: u64,
    stride: i64,
    confidence: u8,
    lru: u64,
}

/// A non-critical L3 request without a PC (prefetch, prewarm, writeback).
fn bare_meta(core: CoreId, line: u64, kind: LlcAccessKind) -> AccessMeta {
    AccessMeta {
        core,
        line,
        page: page_of_line(line),
        pc: 0,
        kind,
        predicted_critical: false,
    }
}

/// The full memory system below the cores.
pub struct MemoryHierarchy {
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    l3: Vec<SetAssocCache>,
    /// The mesh interconnect (public for traffic statistics).
    pub mesh: Mesh,
    /// The DRAM model (public for row-buffer statistics).
    pub dram: Dram,
    /// Per-bank L3 data-array service model: asymmetric read/write
    /// latencies plus busy-calendar occupancy (public for contention
    /// statistics).
    pub banks: LlcBanks,
    /// The MESI home directory.
    pub dir: Directory,
    /// ReRAM wear counters for the L3 banks.
    pub wear: WearTracker,
    /// Compressed-placement state, present iff the policy drives one.
    compress: Option<CompressState>,
    policy: Box<dyn LlcPlacement>,
    per_core: Vec<PerCoreMemStats>,
    /// Global counters.
    pub stats: HierarchyStats,
    /// Criticality recorded per resident L3 line (Figure 9 bookkeeping),
    /// enabled by `SystemConfig::track_block_criticality`. Bounded by the
    /// L3 capacity (entries are removed on eviction).
    block_criticality: Option<FixedTable<bool>>,
    prefetch_cfg: PrefetchConfig,
    /// Per-core stride tables.
    streams: Vec<Vec<StreamEntry>>,
    stream_clock: u64,
    /// Intra-bank set-rotation threshold (writes per bank per step).
    rotation_writes: Option<u64>,
    /// Writes into each bank since its last rotation.
    writes_since_rotation: Vec<u64>,
    /// Banks whose rotation budget ran out during the access in flight,
    /// one bit per bank (`n_banks == n_cores <= MAX_CORES`).
    rotations_due: u32,
    l1_latency: Cycle,
    l2_latency: Cycle,
    /// SRAM tag-check cost of an L3 bank: what a *miss* pays at the bank
    /// (hits overlap it with the data read, which `banks` times).
    l3_tag_latency: Cycle,
    ctrl_flits: u32,
    data_flits: u32,
    /// Mesh tile of each memory controller, indexed by DRAM channel.
    mc_tiles: Vec<usize>,
}

impl MemoryHierarchy {
    /// Build the hierarchy for `cfg` with the given L3 placement policy.
    pub fn new(cfg: &SystemConfig, policy: Box<dyn LlcPlacement>) -> Self {
        cfg.validate();
        let mesh = Mesh::new(cfg.noc);
        // Memory controllers sit at the mesh corners (or fewer tiles on
        // small test meshes), one per DRAM channel.
        let n = cfg.n_cores;
        let corners = [0, cfg.noc.cols - 1, n - cfg.noc.cols, n - 1];
        let mc_tiles = (0..cfg.dram.channels)
            .map(|c| corners[c % corners.len()])
            .collect();
        // Queried once at construction, like `l3_replacement` below: a
        // compressed policy switches the wear model to per-cell sub-block
        // accounting for the whole run.
        let compression = policy.compression();
        MemoryHierarchy {
            l1: (0..cfg.n_cores)
                .map(|_| SetAssocCache::new(cfg.l1, false))
                .collect(),
            l2: (0..cfg.n_cores)
                .map(|_| SetAssocCache::new(cfg.l2, false))
                .collect(),
            // The placement policy reports the scheme's L3 victim
            // selection (true LRU unless its replacement part differs).
            l3: (0..cfg.n_banks)
                .map(|_| {
                    SetAssocCache::with_replacement(cfg.l3_bank, true, policy.l3_replacement())
                })
                .collect(),
            mesh,
            dram: Dram::new(cfg.dram),
            banks: LlcBanks::new(cfg.n_banks, &cfg.l3_bank, cfg.l3_bank_occupancy),
            // Directory bound: the inclusive hierarchy caps tracked lines
            // at Σ L2 lines, plus one in-flight grant per core (a line is
            // granted before its L2 victim is evicted).
            dir: Directory::with_capacity(cfg.n_cores * cfg.l2.lines() + cfg.n_cores),
            wear: match compression {
                Some(spec) => {
                    WearTracker::with_subblocks(cfg.n_banks, cfg.l3_bank.lines(), spec.sub_blocks)
                }
                None => WearTracker::new(cfg.n_banks, cfg.l3_bank.lines()),
            },
            compress: compression.map(|spec| CompressState {
                spec,
                class: vec![vec![0; cfg.l3_bank.lines()]; cfg.n_banks],
                version: vec![vec![0; cfg.l3_bank.lines()]; cfg.n_banks],
                stats: vec![BankCompressStats::default(); cfg.n_banks],
            }),
            policy,
            per_core: vec![PerCoreMemStats::default(); cfg.n_cores],
            stats: HierarchyStats::default(),
            // Criticality-tracker bound: one entry per resident L3 line,
            // plus one in-flight fill per bank (the fill is recorded
            // before its victim is evicted).
            block_criticality: cfg.track_block_criticality.then(|| {
                let bound = cfg.n_banks * cfg.l3_bank.lines() + cfg.n_banks;
                FixedTable::with_capacity(bound.min(4096), bound)
            }),
            prefetch_cfg: cfg.prefetch,
            streams: vec![vec![StreamEntry::default(); cfg.prefetch.streams]; cfg.n_cores],
            stream_clock: 0,
            rotation_writes: cfg.intra_bank_rotation_writes,
            writes_since_rotation: vec![0; cfg.n_banks],
            rotations_due: 0,
            l1_latency: cfg.l1.read_latency,
            l2_latency: cfg.l2.read_latency,
            l3_tag_latency: cfg.l3_bank.tag_latency,
            ctrl_flits: cfg.noc.ctrl_flits,
            data_flits: cfg.noc.data_flits,
            mc_tiles,
        }
    }

    /// The placement policy's display name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Access to the policy (ablation statistics).
    pub fn policy(&self) -> &dyn LlcPlacement {
        self.policy.as_ref()
    }

    /// Per-core counters.
    pub fn per_core_stats(&self, core: CoreId) -> PerCoreMemStats {
        self.per_core[core]
    }

    /// Whether `line` currently resides in `core`'s L1 (MSHR gating; no
    /// statistics or LRU side effects).
    pub fn l1_contains(&self, core: CoreId, line: u64) -> bool {
        self.l1[core].contains(line)
    }

    /// Promise that no future access will be dispatched before `now`
    /// (see [`crate::reserve::reserve`]). The event-driven run loop calls
    /// this on every time advance so mesh-link and DRAM calendars shed
    /// dead history inline instead of scanning past it on every
    /// reservation. Monotone and idempotent; resets with the stats.
    pub fn set_time_floor(&mut self, now: Cycle) {
        self.mesh.set_floor(now);
        self.dram.set_floor(now);
        self.banks.set_floor(now);
    }

    /// Whether `line` is present in L3 bank `bank` (invariant checks).
    pub fn l3_bank_contains(&self, bank: BankId, line: u64) -> bool {
        self.l3[bank].contains(line)
    }

    /// The victim-selection policy the placement policy drives in every
    /// L3 bank.
    pub fn l3_replacement(&self) -> crate::cache::ReplacementKind {
        self.l3[0].replacement()
    }

    /// The compression spec the placement policy drives, if any.
    pub fn compression_spec(&self) -> Option<compress::CompressSpec> {
        self.compress.as_ref().map(|c| c.spec)
    }

    /// One bank's compression counters (default/zero when compression is
    /// off).
    pub fn compress_stats(&self, bank: BankId) -> BankCompressStats {
        self.compress
            .as_ref()
            .map(|c| c.stats[bank])
            .unwrap_or_default()
    }

    /// All banks' compression counters; empty when compression is off.
    pub fn compress_stats_vec(&self) -> Vec<BankCompressStats> {
        self.compress
            .as_ref()
            .map(|c| c.stats.clone())
            .unwrap_or_default()
    }

    /// The `(allocated size class, write version)` of one physical L3
    /// slot, or `None` when compression is off (differential-harness
    /// state comparison; slots never filled read `(0, 0)`).
    pub fn compress_slot(&self, bank: BankId, slot: usize) -> Option<(u8, u32)> {
        self.compress
            .as_ref()
            .map(|c| (c.class[bank][slot], c.version[bank][slot]))
    }

    /// State half of one L3 data-array write of `line` at `(bank, slot)`:
    /// a compressed slot's version advances (a fill restarts it) and its
    /// allocation takes a fill's size class or grows in place (expands).
    fn write_slot(&mut self, bank: BankId, slot: usize, line: u64, is_fill: bool) -> SlotWrite {
        let (mut class, mut version, mut expand) = (0, 0, false);
        if let Some(cs) = self.compress.as_mut() {
            version = if is_fill { 0 } else { cs.version[bank][slot] };
            class = cs.spec.class_of(line, version);
            cs.version[bank][slot] = version + 1;
            expand = !is_fill && class > cs.class[bank][slot];
            if is_fill || expand {
                cs.class[bank][slot] = class;
            }
        }
        SlotWrite {
            bank,
            slot,
            line,
            class,
            version,
            expand,
        }
    }

    /// Charge half of one L3 data-array write: wear (compressed, only the
    /// write's sub-block mask ages; an expansion adds none) and counters.
    fn charge_l3_write(&mut self, w: SlotWrite) {
        self.stats.l3_writes.inc();
        let Some(cs) = self.compress.as_mut() else {
            self.wear.record_write(w.bank, w.slot);
            return;
        };
        let mask = cs.spec.mask_of(w.line, w.version);
        self.wear.record_subblock_write(w.bank, w.slot, mask);
        cs.stats[w.bank].class_writes[w.class.trailing_zeros() as usize] += 1;
        cs.stats[w.bank].expansions += w.expand as u64;
    }

    /// A demand load from `core` for physical address `phys`.
    pub fn load(
        &mut self,
        core: CoreId,
        phys: u64,
        pc: Pc,
        predicted_critical: bool,
        now: Cycle,
    ) -> AccessOutcome {
        self.access(core, phys, pc, predicted_critical, false, now)
    }

    /// A store from `core` to physical address `phys` (write-allocate; the
    /// returned latency is off the critical path — stores retire through
    /// the write buffer).
    pub fn store(&mut self, core: CoreId, phys: u64, pc: Pc, now: Cycle) -> AccessOutcome {
        self.access(core, phys, pc, false, true, now)
    }

    fn access(
        &mut self,
        core: CoreId,
        phys: u64,
        pc: Pc,
        predicted_critical: bool,
        is_store: bool,
        now: Cycle,
    ) -> AccessOutcome {
        let line = crate::types::line_of(phys);

        // L1.
        if let LookupResult::Hit { .. } = self.l1[core].access(line, is_store) {
            return AccessOutcome {
                latency: self.l1_latency,
                l1_hit: true,
            };
        }
        self.per_core[core].l1_misses += 1;
        let mut latency = self.l1_latency + self.l2_latency;

        // L2.
        if let LookupResult::Hit { .. } = self.l2[core].access(line, false) {
            self.fill_l1(core, line, is_store);
            return AccessOutcome {
                latency,
                l1_hit: false,
            };
        }

        // L3 (NUCA).
        self.per_core[core].l3_accesses += 1;
        let meta = AccessMeta {
            core,
            line,
            page: page_of_line(line),
            pc,
            kind: LlcAccessKind::Demand,
            predicted_critical: predicted_critical && !is_store,
        };
        latency += self.policy.lookup_overhead();
        let bank = self.policy.lookup_bank(&meta);
        let t_req = self
            .mesh
            .traverse(core, bank, self.ctrl_flits, now + latency);
        // Reply and invalidation traffic originate at the bank that sources
        // the data, not necessarily at the lookup bank.
        let (serving_bank, t_data, hit) = self.l3_fetch(&meta, bank, t_req);
        if hit {
            self.per_core[core].l3_hits += 1;
        }
        let data_at_core = self
            .mesh
            .traverse(serving_bank, core, self.data_flits, t_data);

        // Coherence: grant the line to this core's private caches. A store
        // invalidates every other sharer's private copy; their dirty data
        // (if any) is superseded by the incoming store, exactly as a
        // dirty-forwarding MESI transfer would — it is never written back.
        // Leaving those copies resident would break L3 inclusion: a later
        // bank eviction back-invalidates only the cores the directory
        // lists, and an untracked dirty copy would eventually write back a
        // line the L3 no longer holds.
        if is_store {
            for holder in cores_of(self.dir.write(line, core)) {
                self.l1[holder].invalidate(line);
                self.l2[holder].invalidate(line);
                self.mesh
                    .traverse(serving_bank, holder, self.ctrl_flits, data_at_core);
            }
        } else {
            self.dir.read(line, core);
        }
        self.fill_l2(core, line, data_at_core);
        self.fill_l1(core, line, is_store);

        // Train the stride prefetcher on demand loads that left the L1.
        if !is_store {
            self.train_prefetcher(core, line, now);
        }
        // Only this path writes the L3 (an L2 hit neither fills nor evicts
        // the L2), so only it can leave a rotation due.
        if self.rotations_due != 0 {
            let flushed = self.rotate_due_banks();
            self.charge_rotations(flushed, data_at_core);
        }

        AccessOutcome {
            latency: data_at_core - now,
            l1_hit: false,
        }
    }

    /// The L3 route of a request that left the private caches and reached
    /// lookup bank `bank` at `t_req`: a hit there, else the serialized
    /// second probe of a two-probe policy, else a DRAM fetch filled at the
    /// policy's fill bank. Demand requests and prefetches both take it.
    /// Returns the bank that sources the data, when the data leaves it,
    /// and whether the L3 hit.
    fn l3_fetch(&mut self, meta: &AccessMeta, bank: BankId, t_req: Cycle) -> (BankId, Cycle, bool) {
        let line = meta.line;
        if let LookupResult::Hit { .. } = self.l3[bank].access(line, false) {
            // Hit: the SRAM tag check overlaps the data-array read; the
            // read queues behind any in-flight bank operation.
            return (bank, self.banks.read(bank, t_req), true);
        }
        // The miss is known after the tag check alone — no data-array
        // operation happens at the lookup bank.
        let t_miss = t_req + self.l3_tag_latency;
        if let Some(second) = self.policy.secondary_bank(meta).filter(|&b| b != bank) {
            // A residency-state-free policy forwards a serialized probe to
            // its second candidate bank.
            self.stats.secondary_probes.inc();
            let t_fwd = self.mesh.traverse(bank, second, self.ctrl_flits, t_miss);
            if let LookupResult::Hit { .. } = self.l3[second].access(line, false) {
                self.stats.secondary_hits.inc();
                return (second, self.banks.read(second, t_fwd), true);
            }
        }
        // L3 miss: fetch from DRAM, fill at the policy's fill bank.
        self.per_core[meta.core].l3_misses += 1;
        let fill_bank = self.policy.fill_bank(meta);
        let mc = self.mc_tiles[self.dram.coord_of(line).channel];
        let t_mc = self.mesh.traverse(bank, mc, self.ctrl_flits, t_miss);
        let t_dram = self.dram.access(line, false, t_mc);
        let t_fill = self.mesh.traverse(mc, fill_bank, self.data_flits, t_dram);
        let fill = self.fill_l3(meta, fill_bank);
        self.charge_l3_fill(fill, meta.predicted_critical, t_fill);
        (fill_bank, t_fill, false)
    }

    /// Count a write into `bank` against its rotation budget and mark the
    /// bank due when the threshold is reached. The flush waits for
    /// [`Self::rotate_due_banks`] at the end of the access: flushing in the
    /// middle of one would back-invalidate the line being installed before
    /// it reaches the L1, leaving it there alone.
    fn note_bank_write(&mut self, bank: BankId) {
        let Some(threshold) = self.rotation_writes else {
            return;
        };
        self.writes_since_rotation[bank] += 1;
        if self.writes_since_rotation[bank] >= threshold {
            self.writes_since_rotation[bank] = 0;
            self.rotations_due |= 1 << bank;
        }
    }

    /// State half of the rotations due, run when every level holds a
    /// consistent copy: rotate each due bank's set mapping and evict the
    /// lines it flushes. Returns the banks (one bit each) and the victims.
    fn rotate_due_banks(&mut self) -> (u32, Vec<(BankId, Victim)>) {
        let due = std::mem::take(&mut self.rotations_due);
        let mut flushed = Vec::new();
        for bank in cores_of(due) {
            for ev in self.l3[bank].rotate_set_mapping() {
                flushed.push((bank, self.evict_l3_victim(ev.line, ev.dirty, bank)));
            }
        }
        (due, flushed)
    }

    /// Charge half of [`Self::rotate_due_banks`] at `now`.
    fn charge_rotations(&mut self, (due, flushed): (u32, Vec<(BankId, Victim)>), now: Cycle) {
        self.stats.set_rotations.add(due.count_ones() as u64);
        self.stats.rotation_flushes.add(flushed.len() as u64);
        for (bank, v) in flushed {
            self.charge_l3_victim(v, bank, now);
        }
    }

    /// Checkpoint-style prewarm: install a line in the L3, the directory
    /// and the core's L2/L1 through the state halves alone, skipping what
    /// [`Self::reset_stats`] wipes (bank and mesh calendars, wear,
    /// counters); that reset must follow. A dirty victim still goes to
    /// DRAM, whose open rows survive it and do not depend on time.
    pub fn prewarm_fill(&mut self, core: CoreId, phys: u64) {
        let line = crate::types::line_of(phys);
        if self.l1[core].contains(line) {
            return;
        }
        let meta = bare_meta(core, line, LlcAccessKind::Demand);
        let bank = self.policy.lookup_bank(&meta);
        let mut victim = None;
        if !matches!(self.l3[bank].access(line, false), LookupResult::Hit { .. }) {
            let fill_bank = self.policy.fill_bank(&meta);
            victim = self.fill_l3(&meta, fill_bank).1;
        }
        self.dir.read(line, core);
        if !self.l2[core].contains(line) {
            self.fill_l2(core, line, 0);
        }
        self.fill_l1(core, line, false);
        let flushed = self.rotate_due_banks().1.into_iter().map(|(_, v)| v);
        for v in victim.into_iter().chain(flushed).filter(|v| v.dirty) {
            self.dram.access(v.line, true, 0);
        }
    }

    /// Stride detection + confidence-gated prefetch issue (see
    /// [`PrefetchConfig`]).
    fn train_prefetcher(&mut self, core: CoreId, line: u64, now: Cycle) {
        // An empty stream table leaves nothing to train: no streams means
        // no prefetcher.
        if self.prefetch_cfg.streams == 0 {
            return;
        }
        self.stream_clock += 1;
        let clock = self.stream_clock;
        let table = &mut self.streams[core];
        // Match an existing stream tracking this address neighbourhood.
        let hit = table.iter().position(|e| {
            e.confidence > 0 && e.last != line && (line as i64 - e.last as i64).abs() <= 64
        });
        match hit {
            Some(i) => {
                let e = &mut table[i];
                let stride = line as i64 - e.last as i64;
                if stride == e.stride {
                    e.confidence = (e.confidence + 1).min(4);
                } else {
                    e.stride = stride;
                    e.confidence = 1;
                }
                e.last = line;
                e.lru = clock;
                if e.confidence >= 2 {
                    let stride = e.stride;
                    let degree = self.prefetch_cfg.degree;
                    for k in 1..=degree as i64 {
                        let target = line as i64 + stride * k;
                        if target > 0 {
                            self.prefetch_line(core, target as u64, now);
                        }
                    }
                }
            }
            None => {
                // Allocate the LRU entry for a new candidate stream.
                let victim = table
                    .iter_mut()
                    .min_by_key(|e| e.lru)
                    .expect("stream table non-empty");
                *victim = StreamEntry {
                    last: line,
                    stride: 0,
                    confidence: 1,
                    lru: clock,
                };
            }
        }
    }

    /// Fetch `line` into this core's L2 ahead of demand. Off the critical
    /// path; state effects (L3 placement, wear, DRAM/NoC occupancy) are
    /// identical to a non-critical demand fill.
    fn prefetch_line(&mut self, core: CoreId, line: u64, now: Cycle) {
        if self.l1[core].contains(line) || self.l2[core].contains(line) {
            return;
        }
        self.stats.prefetches_issued.inc();
        let meta = bare_meta(core, line, LlcAccessKind::Demand);
        let bank = self.policy.lookup_bank(&meta);
        let t_req = self.mesh.traverse(core, bank, self.ctrl_flits, now);
        let (serving_bank, t_data, hit) = self.l3_fetch(&meta, bank, t_req);
        if hit {
            self.stats.prefetch_l3_hits.inc();
        } else {
            // The memory fetch counts against the core's MPKI (`l3_fetch`
            // charged it): a prefetch fill replaces the demand miss it hides.
            self.stats.prefetch_fills.inc();
        }
        let t_at_core = self
            .mesh
            .traverse(serving_bank, core, self.data_flits, t_data);
        self.dir.read(line, core);
        self.fill_l2(core, line, t_at_core);
    }

    /// State half of an L3 fill into `bank`: tags, slot compression,
    /// criticality, the policy's fill and write hooks, the rotation budget
    /// and the victim's eviction. [`Self::charge_l3_fill`] prices the rest.
    fn fill_l3(&mut self, meta: &AccessMeta, bank: BankId) -> (SlotWrite, Option<Victim>) {
        #[cfg(debug_assertions)]
        for (b, l3) in self.l3.iter().enumerate() {
            debug_assert!(
                !l3.contains(meta.line),
                "line {:#x} already in bank {b}; fill into {bank} would duplicate",
                meta.line
            );
        }
        let out = self.l3[bank].fill(meta.line, false);
        let slot = self.l3[bank].slot_index(out.set, out.way);
        let write = self.write_slot(bank, slot, meta.line, true);
        if let Some(map) = self.block_criticality.as_mut() {
            map.insert(meta.line, meta.predicted_critical);
        }
        self.policy.on_fill(meta, bank);
        self.policy.on_l3_write(bank);
        self.note_bank_write(bank);
        let victim = out
            .evicted
            .map(|ev| self.evict_l3_victim(ev.line, ev.dirty, bank));
        (write, victim)
    }

    /// Charge half of an L3 fill at `now`: the data forwards at `now`
    /// (write-buffer semantics) but the bank stays busy for the slow write.
    fn charge_l3_fill(&mut self, fill: (SlotWrite, Option<Victim>), critical: bool, now: Cycle) {
        let (write, victim) = fill;
        self.banks.fill(write.bank, now);
        self.charge_l3_write(write);
        self.stats.l3_fills.inc();
        if !critical {
            self.stats.l3_fills_noncritical.inc();
            self.stats.l3_writes_noncritical.inc();
        }
        if let Some(v) = victim {
            self.charge_l3_victim(v, write.bank, now);
        }
    }

    /// State half of an L3 eviction from `bank`: back-invalidate private
    /// copies via the directory, drop its criticality, notify the policy.
    fn evict_l3_victim(&mut self, line: u64, l3_dirty: bool, bank: BankId) -> Victim {
        let holders = self.dir.back_invalidate(line);
        let mut dirty = l3_dirty;
        for holder in cores_of(holders) {
            let d1 = self.l1[holder].invalidate(line).unwrap_or(false);
            let d2 = self.l2[holder].invalidate(line).unwrap_or(false);
            dirty |= d1 || d2;
        }
        if let Some(map) = self.block_criticality.as_mut() {
            map.remove(line);
        }
        self.policy.on_evict(line, bank);
        Victim {
            line,
            holders,
            dirty,
        }
    }

    /// Charge half of an L3 eviction from `bank` at `now`: an invalidation
    /// message to each holder tile, and the dirty data's trip to DRAM.
    fn charge_l3_victim(&mut self, v: Victim, bank: BankId, now: Cycle) {
        for holder in cores_of(v.holders) {
            self.stats.back_invalidations.inc();
            self.mesh.traverse(bank, holder, self.ctrl_flits, now);
        }
        if v.dirty {
            let mc = self.mc_tiles[self.dram.coord_of(v.line).channel];
            let t_mc = self.mesh.traverse(bank, mc, self.data_flits, now);
            self.dram.access(v.line, true, t_mc);
            self.stats.l3_writebacks_to_dram.inc();
        }
    }

    /// Install a line the core's L2 does not hold (a prefetch stops here),
    /// handling inclusion and the dirty writeback of the victim. Demand
    /// fills and prefetches saw the L2 miss the line on their way out, and
    /// nothing on the L3 route installs it.
    fn fill_l2(&mut self, core: CoreId, line: u64, now: Cycle) {
        let out = self.l2[core].fill(line, false);
        if let Some(ev) = out.evicted {
            // Inclusion: the L2 victim's L1 copy must go too.
            let l1_dirty = self.l1[core].invalidate(ev.line).unwrap_or(false);
            self.dir.evict(ev.line, core);
            if ev.dirty || l1_dirty {
                self.writeback_to_l3(core, ev.line, now);
            }
        }
    }

    /// Install a line into a core's L1 once the L2 holds it. The L1 has
    /// just missed the line and nothing since installs it, which
    /// [`SetAssocCache::fill`] debug-asserts. A dirty L1 victim merges into
    /// the inclusive L2.
    fn fill_l1(&mut self, core: CoreId, line: u64, is_store: bool) {
        let out = self.l1[core].fill(line, is_store);
        if let Some(ev) = out.evicted.filter(|ev| ev.dirty) {
            let present = self.l2[core].mark_dirty(ev.line);
            debug_assert!(present, "L1 victim {:#x} not in the L2", ev.line);
        }
    }

    /// A dirty L2 victim is written back into the L3 bank that holds the
    /// line — the second of the paper's two L3 write sources.
    fn writeback_to_l3(&mut self, core: CoreId, line: u64, now: Cycle) {
        let meta = bare_meta(core, line, LlcAccessKind::Writeback);
        let mut bank = self.policy.lookup_bank(&meta);
        let mut found = self.l3[bank].probe(line);
        // Residency-state-free policies may hold the line at their second
        // candidate bank.
        if found == LookupResult::Miss {
            if let Some(second) = self.policy.secondary_bank(&meta) {
                let at_second = self.l3[second].probe(line);
                if at_second != LookupResult::Miss {
                    (bank, found) = (second, at_second);
                }
            }
        }
        let LookupResult::Hit { set, way } = found else {
            panic!("writeback {line:#x} missed the inclusive L3");
        };
        // The dirty line arrives at the bank when the data message lands,
        // then programs the ReRAM array (occupying it for the write
        // latency — nothing waits on the completion, but later reads of
        // this bank queue behind it).
        let t_arrive = self.mesh.traverse(core, bank, self.data_flits, now);
        self.banks.write(bank, t_arrive);
        self.per_core[core].l2_writebacks += 1;
        self.l3[bank].mark_dirty_at(set, way);
        let write = self.write_slot(bank, self.l3[bank].slot_index(set, way), line, false);
        if write.expand {
            self.banks.expand(bank, t_arrive);
        }
        self.charge_l3_write(write);
        if let Some(map) = self.block_criticality.as_ref() {
            if !map.get(line).copied().unwrap_or(false) {
                self.stats.l3_writes_noncritical.inc();
            }
        }
        self.policy.on_l3_write(bank);
        self.note_bank_write(bank);
    }

    /// Reset every statistic, wear and bank/mesh/DRAM calendar (warm-up
    /// boundary). Kept: cache, directory, policy and DRAM open-row state,
    /// the rotation budget, slot compression and block criticality.
    pub fn reset_stats(&mut self) {
        for c in self
            .l1
            .iter_mut()
            .chain(self.l2.iter_mut())
            .chain(self.l3.iter_mut())
        {
            c.reset_stats();
        }
        self.mesh.reset_stats();
        self.dram.reset_stats();
        self.banks.reset_stats();
        self.dir.reset_stats();
        self.wear.reset();
        // Compression *counters* reset; per-slot class/version is cache
        // state and survives the warm-up boundary like the tags do.
        if let Some(cs) = self.compress.as_mut() {
            cs.stats.fill(BankCompressStats::default());
        }
        self.per_core.fill(PerCoreMemStats::default());
        self.stats = HierarchyStats::default();
    }

    /// Statistics of one core's L1D.
    pub fn l1_stats(&self, core: CoreId) -> crate::cache::CacheStats {
        self.l1[core].stats
    }

    /// Statistics of one core's private L2.
    pub fn l2_stats(&self, core: CoreId) -> crate::cache::CacheStats {
        self.l2[core].stats
    }

    /// Statistics of one L3 NUCA bank.
    pub fn l3_stats(&self, bank: BankId) -> crate::cache::CacheStats {
        self.l3[bank].stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::NeverCritical;
    use crate::types::phys_addr;

    /// Address-interleaved static placement (an S-NUCA stand-in defined
    /// locally so the substrate tests don't depend on `renuca-core`).
    struct Striped {
        nbanks: usize,
    }
    impl LlcPlacement for Striped {
        fn name(&self) -> &'static str {
            "striped"
        }
        fn lookup_bank(&mut self, m: &AccessMeta) -> BankId {
            (m.line as usize) & (self.nbanks - 1)
        }
        fn fill_bank(&mut self, m: &AccessMeta) -> BankId {
            (m.line as usize) & (self.nbanks - 1)
        }
    }

    fn hier(n: usize) -> MemoryHierarchy {
        let cfg = SystemConfig::small(n);
        MemoryHierarchy::new(&cfg, Box::new(Striped { nbanks: n }))
    }

    #[test]
    fn first_touch_misses_everywhere_then_hits_l1() {
        let mut h = hier(4);
        let a = h.load(0, phys_addr(0, 0x1000), 1, false, 0);
        assert!(!a.l1_hit);
        assert!(a.latency > 100, "cold miss must pay DRAM: {}", a.latency);
        assert_eq!(h.per_core_stats(0).l3_misses, 1);
        let b = h.load(0, phys_addr(0, 0x1000), 1, false, 1000);
        assert!(b.l1_hit);
        assert_eq!(b.latency, 2);
    }

    #[test]
    fn l3_hit_cheaper_than_miss_dearer_than_l2() {
        // Ordering sanity of the timing plumbing, on the legacy symmetric
        // model where it is unconditional: a miss pays the full bank
        // latency before departing, so it can never undercut a hit. (Under
        // the asymmetric default a 20-cycle tag check plus a best-case
        // open-row DRAM access can rival a 100-cycle ReRAM read — see
        // DESIGN.md §12 — so the ordering there holds only under load.)
        let cfg = SystemConfig::small(4).with_symmetric_llc();
        let mut h = MemoryHierarchy::new(&cfg, Box::new(Striped { nbanks: 4 }));
        let phys = phys_addr(1, 0x8000);
        let miss = h.load(1, phys, 1, false, 0);
        // A second load from the same core hits L1; to measure an L3 hit,
        // invalidate private copies via back-door.
        h.l1[1].invalidate(crate::types::line_of(phys));
        h.l2[1].invalidate(crate::types::line_of(phys));
        let l3hit = h.load(1, phys, 1, false, 10_000);
        assert!(l3hit.latency > 100, "L3 bank read is 100 cycles plus NoC");
        assert!(
            l3hit.latency < miss.latency,
            "L3 hit {} must beat DRAM miss {}",
            l3hit.latency,
            miss.latency
        );
        assert_eq!(h.per_core_stats(1).l3_hits, 1);

        // Asymmetric default: an uncontended hit still pays at least the
        // full ReRAM read latency.
        let mut h = hier(4);
        h.load(1, phys, 1, false, 0);
        h.l1[1].invalidate(crate::types::line_of(phys));
        h.l2[1].invalidate(crate::types::line_of(phys));
        let hit = h.load(1, phys, 1, false, 10_000);
        assert!(hit.latency > 100, "asymmetric hit pays the read latency");
    }

    #[test]
    fn store_allocates_and_dirties() {
        let mut h = hier(4);
        let phys = phys_addr(0, 0x2000);
        h.store(0, phys, 7, 0);
        let line = crate::types::line_of(phys);
        assert!(h.l1_contains(0, line));
        // The dirty data eventually writes back: force the L1+L2 eviction
        // by filling conflicting lines.
        let before = h.stats.l3_writes.get();
        // L2 of small cfg: 256KB 8-way, 512 sets. Thrash the set of `line`.
        for i in 1..=64u64 {
            let conflict = phys + i * (512 * 64 * 8); // same L2 set, different tags
            h.load(0, conflict, 8, false, i * 10_000);
        }
        assert!(
            h.stats.l3_writes.get() > before + 32,
            "writebacks must land in L3"
        );
        assert!(h.per_core_stats(0).l2_writebacks >= 1);
    }

    #[test]
    fn wear_charged_on_fill_and_writeback() {
        let mut h = hier(4);
        assert_eq!(h.wear.total_writes(), 0);
        h.load(0, phys_addr(0, 0), 1, false, 0);
        assert_eq!(h.wear.total_writes(), 1, "fill charges one wear write");
        assert_eq!(h.stats.l3_fills.get(), 1);
    }

    #[test]
    fn striped_placement_spreads_fills() {
        let mut h = hier(4);
        for i in 0..64u64 {
            h.load(0, phys_addr(0, i * 64), 1, false, i * 2000);
        }
        let totals = h.wear.bank_totals();
        assert_eq!(totals.iter().sum::<u64>(), 64);
        for (b, &t) in totals.iter().enumerate() {
            assert_eq!(t, 16, "bank {b} should get a quarter of the stripes");
        }
    }

    #[test]
    fn l3_inclusion_back_invalidates() {
        // 1-core system: L3 bank 2MB 16-way; produce L3 conflict evictions
        // of lines still resident in L2 and verify they are invalidated.
        let cfg = SystemConfig::small(1);
        let mut h = MemoryHierarchy::new(&cfg, Box::new(Striped { nbanks: 1 }));
        // Fill one L3 set beyond capacity: lines with identical hashed set.
        // Use the same stride as the L3 set hash: brute-force collect lines
        // that land in set 0 of bank 0.
        let mut colliders = Vec::new();
        let probe_cache = SetAssocCache::new(cfg.l3_bank, true);
        let mut line = 0u64;
        while colliders.len() < 20 {
            if probe_cache.set_of(line) == 0 {
                colliders.push(line);
            }
            line += 1;
        }
        for (i, &l) in colliders.iter().enumerate() {
            h.load(0, l * 64, 1, false, (i as u64) * 5_000);
        }
        // 20 lines into a 16-way set: at least 4 back-invalidations of
        // L2-resident lines.
        assert!(
            h.stats.back_invalidations.get() >= 4,
            "got {}",
            h.stats.back_invalidations.get()
        );
        // And inclusion holds: everything in L2 is somewhere in L3.
        for &l in &colliders {
            if h.l2[0].contains(l) {
                assert!(h.l3[0].contains(l), "L2-resident {l:#x} missing from L3");
            }
        }
    }

    #[test]
    fn noncritical_fill_accounting() {
        let mut h = hier(4);
        h.load(0, phys_addr(0, 0), 1, true, 0); // predicted critical
        h.load(0, phys_addr(0, 1 << 16), 2, false, 5_000); // non-critical
        assert_eq!(h.stats.l3_fills.get(), 2);
        assert_eq!(h.stats.l3_fills_noncritical.get(), 1);
    }

    #[test]
    fn block_criticality_tracking_feeds_write_attribution() {
        let mut cfg = SystemConfig::small(4);
        cfg.track_block_criticality = true;
        let mut h = MemoryHierarchy::new(&cfg, Box::new(Striped { nbanks: 4 }));
        // Critical fill, then dirty it and force writeback: the writeback
        // must NOT count as non-critical.
        let phys = phys_addr(0, 0x4000);
        h.load(0, phys, 1, true, 0);
        h.store(0, phys, 1, 10);
        let wb_noncrit_before = h.stats.l3_writes_noncritical.get();
        for i in 1..=40u64 {
            let conflict = phys + i * (512 * 64 * 8);
            h.load(0, conflict, 2, false, 1_000 + i * 10_000);
        }
        // The critical line's writeback happened (l3_writes grew) but the
        // non-critical write counter only grew by the non-critical fills.
        let fills_noncrit = h.stats.l3_fills_noncritical.get();
        assert_eq!(
            h.stats.l3_writes_noncritical.get() - wb_noncrit_before,
            fills_noncrit,
            "critical block's writeback must not be attributed non-critical"
        );
    }

    #[test]
    fn intra_bank_rotation_levels_slots() {
        // Hammer one line repeatedly: without rotation, one physical slot
        // absorbs every writeback; with rotation the writes migrate.
        let run = |rotation: Option<u64>| {
            let mut cfg = SystemConfig::small(1);
            cfg.intra_bank_rotation_writes = rotation;
            let mut h = MemoryHierarchy::new(&cfg, Box::new(Striped { nbanks: 1 }));
            let phys = phys_addr(0, 0x4000);
            h.load(0, phys, 1, false, 0);
            for i in 0..400u64 {
                // Dirty the line, then force its writeback with enough
                // same-set conflicts to defeat the L2's LRU protection of
                // the freshly-touched line (2x associativity).
                h.store(0, phys, 1, i * 6_000);
                for j in 1..=16u64 {
                    let conflict = phys + j * (512 * 64 * 8);
                    h.load(0, conflict, 2, false, i * 6_000 + j * 300);
                }
            }
            h.wear.max_slot_writes(0)
        };
        let unleveled = run(None);
        let leveled = run(Some(50));
        assert!(
            leveled * 2 < unleveled,
            "rotation must spread the hot slot: {leveled} vs {unleveled}"
        );
    }

    #[test]
    fn rotation_preserves_inclusion_and_policy_state() {
        let mut cfg = SystemConfig::small(1);
        cfg.intra_bank_rotation_writes = Some(20);
        let mut h = MemoryHierarchy::new(&cfg, Box::new(Striped { nbanks: 1 }));
        for i in 0..200u64 {
            h.load(0, phys_addr(0, i * 64), 1, false, i * 2_000);
        }
        assert!(h.stats.set_rotations.get() > 0, "rotations must fire");
        // Inclusion after flushes: anything in L2 is in L3.
        for i in 0..200u64 {
            let line = crate::types::line_of(phys_addr(0, i * 64));
            if h.l2[0].contains(line) {
                assert!(h.l3[0].contains(line), "inclusion broken for {line:#x}");
            }
        }
    }

    #[test]
    fn rotation_keeps_private_copies_inclusive() {
        // 24 lines 256 KiB apart share one L1 set and one L2 set, so L2
        // writebacks are frequent; with a 40-write rotation budget some
        // of them trigger a flush while another line is being installed.
        // Every L1 line must stay in the L2 and every L2 line in the L3.
        let mut cfg = SystemConfig::small(1);
        cfg.prefetch.streams = 0;
        cfg.intra_bank_rotation_writes = Some(40);
        let mut h = MemoryHierarchy::new(&cfg, Box::new(Striped { nbanks: 1 }));
        let lines: Vec<u64> = (0..24u64)
            .map(|i| crate::types::line_of(phys_addr(0, i << 18)))
            .collect();
        let mut rng = sim_rng::SimRng::seed_from_u64(0x0807);
        for i in 0..20_000u64 {
            let phys = *rng.choose(&lines).unwrap() * 64;
            if rng.gen_bool(0.5) {
                h.store(0, phys, 1, i * 1_000);
            } else {
                h.load(0, phys, 1, false, i * 1_000);
            }
            for &l in &lines {
                if h.l1[0].contains(l) {
                    assert!(h.l2[0].contains(l), "access {i}: L1 line {l:#x} not in L2");
                }
                if h.l2[0].contains(l) {
                    assert!(h.l3[0].contains(l), "access {i}: L2 line {l:#x} not in L3");
                }
            }
        }
        assert!(h.stats.set_rotations.get() > 0, "rotations must fire");
    }

    #[test]
    fn coherence_directory_tracks_private_residency() {
        let mut h = hier(4);
        let phys = phys_addr(2, 0x1234_5678);
        h.load(2, phys, 1, false, 0);
        let line = crate::types::line_of(phys);
        assert!(h.dir.entry(line).is_some());
        assert_eq!(h.dir.entry(line).unwrap().n_sharers(), 1);
    }

    /// A policy whose primary lookup bank never holds the line: lines live
    /// at the secondary bank (two-probe path) — the shape that exposed the
    /// invalidation-origin bug.
    struct TwoBank;
    impl LlcPlacement for TwoBank {
        fn name(&self) -> &'static str {
            "twobank"
        }
        fn lookup_bank(&mut self, _m: &AccessMeta) -> BankId {
            0
        }
        fn fill_bank(&mut self, _m: &AccessMeta) -> BankId {
            3
        }
        fn secondary_bank(&mut self, _m: &AccessMeta) -> Option<BankId> {
            Some(3)
        }
    }

    #[test]
    fn invalidation_originates_from_serving_bank() {
        // 2x2 mesh: tiles 0 and 3 are diagonal (2 hops apart). Core 3
        // loads a line that fills at bank 3; core 0 then stores to it,
        // finding it via the secondary probe at bank 3. The invalidation
        // to holder core 3 must originate at the serving bank 3 (0 hops),
        // not the primary lookup bank 0 (2 hops).
        let cfg = SystemConfig::small(4);
        let mut h = MemoryHierarchy::new(&cfg, Box::new(TwoBank));
        let phys = phys_addr(3, 0x7000);
        h.load(3, phys, 1, false, 0);
        assert_eq!(h.per_core_stats(3).l3_misses, 1);

        let hops_before = h.mesh.stats.hops.get();
        h.store(0, phys, 2, 50_000);
        let delta = h.mesh.stats.hops.get() - hops_before;
        assert_eq!(h.stats.secondary_hits.get(), 1, "store must hit at bank 3");
        // Request core0->bank0: 0 hops; probe bank0->bank3: 2; data reply
        // bank3->core0: 2; invalidation bank3->core3(tile 3): 0. Charging
        // the invalidation to the primary bank would add 2 more.
        assert_eq!(
            delta, 4,
            "invalidation must originate at the serving bank (total store hops {delta})"
        );
        // And the holder really was invalidated.
        assert!(!h.l1_contains(3, crate::types::line_of(phys)));
    }

    /// A two-probe policy whose fills go to the secondary bank only when
    /// critical, like the MBV-less Re-NUCA ablation.
    struct CriticalAtSecondary;
    impl LlcPlacement for CriticalAtSecondary {
        fn name(&self) -> &'static str {
            "critical-at-secondary"
        }
        fn lookup_bank(&mut self, _m: &AccessMeta) -> BankId {
            0
        }
        fn fill_bank(&mut self, m: &AccessMeta) -> BankId {
            if m.predicted_critical {
                3
            } else {
                0
            }
        }
        fn secondary_bank(&mut self, _m: &AccessMeta) -> Option<BankId> {
            Some(3)
        }
    }

    #[test]
    fn prefetch_probes_the_secondary_bank() {
        // A critical load fills at bank 3. Once the core's private copies
        // are gone, a (non-critical) prefetch of the same line must find
        // it there, not fill a second copy at bank 0.
        let cfg = SystemConfig::small(4);
        let mut h = MemoryHierarchy::new(&cfg, Box::new(CriticalAtSecondary));
        let phys = phys_addr(1, 0x7000);
        let line = crate::types::line_of(phys);
        h.load(1, phys, 1, true, 0);
        assert!(h.l3_bank_contains(3, line));
        h.l1[1].invalidate(line);
        h.l2[1].invalidate(line);
        h.dir.evict(line, 1);

        h.prefetch_line(1, line, 50_000);
        assert_eq!(h.stats.prefetch_l3_hits.get(), 1);
        assert_eq!(h.stats.prefetch_fills.get(), 0);
        assert_eq!(h.stats.secondary_hits.get(), 1);
        assert!(!h.l3_bank_contains(0, line), "prefetch duplicated the line");
        assert!(h.l2[1].contains(line), "prefetch installs into the L2");
        assert!(!h.l1_contains(1, line), "prefetch stops at the L2");
    }

    #[test]
    fn bank_occupancy_delays_reads_behind_write_bursts() {
        // Identical access streams against the asymmetric default (bank
        // occupancy on) and the same latencies with occupancy off: L3 hits
        // issued right behind a fill's slow ReRAM write must queue, and
        // only the occupancy model may accumulate queue cycles.
        let drive = |occupancy: bool| -> (u64, u64) {
            let mut cfg = SystemConfig::small(4);
            cfg.l3_bank_occupancy = occupancy;
            let mut h = MemoryHierarchy::new(&cfg, Box::new(Striped { nbanks: 4 }));
            // Phase 1: park 64 lines of bank 0 in the L3.
            for i in 0..64u64 {
                h.load(0, 4 * i * 64, 1, false, i * 2_000);
            }
            // Phase 2: a miss whose fill occupies bank 0, then an L3 hit
            // to the same bank timed to land inside the write window.
            let mut hit_latency = 0;
            for i in 0..32u64 {
                let t = 200_000 + i * 4_000;
                h.load(0, (4_000 + 4 * i) * 64, 1, false, t);
                let b = 4 * i * 64;
                let line = crate::types::line_of(b);
                h.l1[0].invalidate(line);
                h.l2[0].invalidate(line);
                let out = h.load(0, b, 1, false, t + 300);
                assert!(!out.l1_hit);
                hit_latency += out.latency;
            }
            let queued: u64 = (0..4).map(|b| h.banks.stats(b).queue_cycles.get()).sum();
            (hit_latency, queued)
        };
        let (hits_on, queued_on) = drive(true);
        let (hits_off, queued_off) = drive(false);
        assert_eq!(queued_off, 0, "occupancy off must never queue");
        assert!(queued_on > 0, "hits behind fills must queue");
        assert!(
            hits_on > hits_off,
            "queued hits must be slower: {hits_on} vs {hits_off}"
        );
    }

    #[test]
    fn bank_op_accounting_matches_wear_model() {
        let mut h = hier(4);
        // Mixed traffic: fills, hits, writebacks.
        for i in 0..128u64 {
            h.load(
                (i % 4) as usize,
                phys_addr((i % 4) as usize, i * 64 * 131),
                1,
                false,
                i * 3_000,
            );
            if i % 3 == 0 {
                h.store(
                    (i % 4) as usize,
                    phys_addr((i % 4) as usize, i * 64 * 131),
                    2,
                    i * 3_000 + 500,
                );
            }
        }
        for b in 0..4 {
            let s = h.banks.stats(b);
            assert_eq!(
                s.fill_ops.get() + s.write_ops.get(),
                h.wear.bank_totals()[b],
                "bank {b}: every data-array write charges wear exactly once"
            );
            if s.ops() > 0 {
                assert_eq!(s.transitions(), s.ops() - 1, "bank {b} transition sum");
            }
        }
    }

    /// Striped placement driving the compression model (the substrate-level
    /// stand-in for Re-NUCA-C2, defined locally like `Striped`).
    struct CompressedStriped {
        nbanks: usize,
        spec: compress::CompressSpec,
    }
    impl LlcPlacement for CompressedStriped {
        fn name(&self) -> &'static str {
            "striped-c2"
        }
        fn lookup_bank(&mut self, m: &AccessMeta) -> BankId {
            (m.line as usize) & (self.nbanks - 1)
        }
        fn fill_bank(&mut self, m: &AccessMeta) -> BankId {
            (m.line as usize) & (self.nbanks - 1)
        }
        fn compression(&self) -> Option<compress::CompressSpec> {
            Some(self.spec)
        }
    }

    fn compressed_hier(n: usize) -> MemoryHierarchy {
        let cfg = SystemConfig::small(n);
        let spec = compress::CompressSpec::new(cfg.l3_subblocks, cfg.compress_seed);
        MemoryHierarchy::new(&cfg, Box::new(CompressedStriped { nbanks: n, spec }))
    }

    #[test]
    fn compressed_fills_charge_subblock_wear() {
        let mut h = compressed_hier(4);
        for i in 0..256u64 {
            h.load(0, phys_addr(0, i * 64), 1, false, i * 2_000);
        }
        // Line-level accounting is untouched by compression: every fill
        // still counts one line write.
        assert_eq!(h.wear.total_writes(), h.stats.l3_fills.get());
        // Cell-level accounting is compacted: between 1 (class-1) and 4
        // (class-4) sub-blocks per line write, strictly fewer than the
        // full-line 4x in aggregate (E[class] = 2).
        let sb = h.wear.subblock_total_writes();
        let lines = h.wear.total_writes();
        assert!(sb >= lines && sb < 4 * lines, "sb {sb} vs lines {lines}");
        // Class histogram covers all three classes and sums to the writes.
        let mut hist = [0u64; 3];
        for b in 0..4 {
            let s = h.compress_stats(b);
            for (i, w) in s.class_writes.iter().enumerate() {
                hist[i] += w;
            }
        }
        assert_eq!(hist.iter().sum::<u64>(), lines);
        assert!(hist.iter().all(|&w| w > 0), "all classes used: {hist:?}");
        // Slot state is live: the last-filled line's slot has version 1.
        assert!(h.compress_slot(0, 0).is_some());
    }

    #[test]
    fn expansions_match_bank_ops_and_charge_no_extra_wear() {
        let mut h = compressed_hier(4);
        // Mixed traffic with writebacks so in-place updates (and hence
        // expansions) occur.
        for i in 0..128u64 {
            let c = (i % 4) as usize;
            h.load(c, phys_addr(c, i * 64 * 131), 1, false, i * 3_000);
            h.store(c, phys_addr(c, i * 64 * 131), 2, i * 3_000 + 500);
            for j in 1..=16u64 {
                let conflict = phys_addr(c, i * 64 * 131 + j * (512 * 64 * 8));
                h.load(c, conflict, 3, false, i * 3_000 + 600 + j * 100);
            }
        }
        let expansions: u64 = (0..4).map(|b| h.compress_stats(b).expansions).sum();
        assert!(expansions > 0, "writeback traffic must expand some slots");
        for b in 0..4 {
            let s = h.banks.stats(b);
            // Every expansion is serviced as exactly one extra bank op,
            // kept out of fill_ops so the wear identity is preserved.
            assert_eq!(s.expand_ops.get(), h.compress_stats(b).expansions);
            assert_eq!(
                s.fill_ops.get() + s.write_ops.get(),
                h.wear.bank_totals()[b],
                "bank {b}: line wear counts logical writes only"
            );
        }
        // Expansions charge no line wear: the global write identity holds.
        assert_eq!(h.stats.l3_writes.get(), h.wear.total_writes());
    }

    /// `n` distinct lines from `first` up that all map to bank 0 and one
    /// L3 set under `Striped`, so installing them evicts from the L3.
    fn l3_set_colliders(cfg: &SystemConfig, first: u64, n: usize) -> Vec<u64> {
        let probe = SetAssocCache::new(cfg.l3_bank, true);
        (first..)
            .filter(|&l| l % cfg.n_banks as u64 == 0 && probe.set_of(l) == 0)
            .take(n)
            .collect()
    }

    /// Prewarm 256 fresh lines of core 1 into `h` with no `reset_stats`:
    /// each line lands in its fill bank, the core's L2 and L1 and the
    /// directory, while no bank, mesh, wear or DRAM work is charged. Then
    /// L3-set colliders force evictions that back-invalidate private
    /// copies, still without a mesh message.
    fn assert_prewarm_installs_state_only(h: &mut MemoryHierarchy) {
        let charged = |h: &MemoryHierarchy| {
            let bank_ops: u64 = (0..4).map(|b| h.banks.stats(b).ops()).sum();
            let dram = h.dram.stats.reads.get() + h.dram.stats.writes.get();
            (
                bank_ops,
                h.mesh.stats.messages.get(),
                h.wear.total_writes(),
                dram,
            )
        };
        let lines: Vec<u64> = (0..256u64)
            .map(|i| crate::types::line_of(phys_addr(1, i * 64)))
            .collect();
        for &l in &lines {
            h.prewarm_fill(1, l * 64);
        }
        assert_eq!(charged(h), (0, 0, 0, 0), "(bank ops, messages, wear, dram)");
        for &l in &lines {
            assert!(h.l3_bank_contains((l & 3) as usize, l), "{l:#x} not in L3");
            assert!(
                h.l2[1].contains(l) && h.l1_contains(1, l),
                "{l:#x} not private"
            );
            assert_eq!(h.dir.entry(l).map(|e| e.n_sharers()), Some(1), "{l:#x}");
        }
        // Core 1's tile is one hop from bank 0: a charged eviction would
        // send it an invalidation message.
        let first = crate::types::line_of(phys_addr(1, 1 << 26));
        for l in l3_set_colliders(&SystemConfig::small(4), first, 24) {
            h.prewarm_fill(1, l * 64);
        }
        assert!(
            h.dir.stats.back_invalidations.get() > 0,
            "no L3 victim was held"
        );
        assert_eq!(charged(h), (0, 0, 0, 0), "(bank ops, messages, wear, dram)");
    }

    #[test]
    fn prewarm_installs_state_without_charges() {
        assert_prewarm_installs_state_only(&mut hier(4));
    }

    #[test]
    fn compressed_prewarm_still_advances_slot_state() {
        let mut h = compressed_hier(4);
        assert_prewarm_installs_state_only(&mut h);
        let spec = h.compression_spec().unwrap();
        // Every resident line's slot holds its fill's size class at
        // version 1, exactly as a charged fill leaves it.
        for b in 0..4 {
            for line in (0..256u64).map(|i| crate::types::line_of(phys_addr(1, i * 64))) {
                let LookupResult::Hit { set, way } = h.l3[b].probe(line) else {
                    continue;
                };
                let slot = h.l3[b].slot_index(set, way);
                assert_eq!(h.compress_slot(b, slot), Some((spec.class_of(line, 0), 1)));
            }
        }
    }

    #[test]
    fn prewarm_leaves_the_state_a_load_leaves() {
        // Fresh lines, each touched once, no prefetcher and a single-probe
        // policy: the state half alone must reproduce a demand load's L3,
        // L2/L1 residency and slot compression state, through L1, L2 and
        // L3 evictions alike.
        let mut cfg = SystemConfig::small(4);
        cfg.prefetch.streams = 0;
        let build = || {
            let spec = compress::CompressSpec::new(cfg.l3_subblocks, cfg.compress_seed);
            MemoryHierarchy::new(&cfg, Box::new(CompressedStriped { nbanks: 4, spec }))
        };
        let (mut warm, mut loaded) = (build(), build());
        let mut lines: Vec<u64> = (1u64 << 20..(1 << 20) + 2_000).collect();
        lines.extend(l3_set_colliders(&cfg, 0, 40));
        for (i, &l) in lines.iter().enumerate() {
            warm.prewarm_fill(0, l * 64);
            loaded.load(0, l * 64, 1, false, i as u64 * 1_000);
        }
        assert!(
            warm.dir.stats.back_invalidations.get() > 0,
            "no L3 eviction"
        );
        for &l in &lines {
            for b in 0..4 {
                assert_eq!(warm.l3_bank_contains(b, l), loaded.l3_bank_contains(b, l));
            }
            assert_eq!(warm.l2[0].contains(l), loaded.l2[0].contains(l), "{l:#x}");
            assert_eq!(warm.l1_contains(0, l), loaded.l1_contains(0, l), "{l:#x}");
        }
        for b in 0..4 {
            for slot in 0..cfg.l3_bank.lines() {
                assert_eq!(warm.compress_slot(b, slot), loaded.compress_slot(b, slot));
            }
        }
    }

    #[test]
    fn uncompressed_policies_see_no_compression_state() {
        let h = hier(4);
        assert!(h.compression_spec().is_none());
        assert!(h.compress_slot(0, 0).is_none());
        assert_eq!(h.compress_stats_vec(), vec![]);
        assert_eq!(h.wear.subblocks_per_slot(), 0);
    }

    #[test]
    fn never_critical_predictor_compiles_with_hierarchy() {
        // Smoke: the placement/predictor traits interoperate.
        let mut h = hier(4);
        let mut p = NeverCritical;
        use crate::placement::CriticalityPredictor;
        let c = p.predict(5);
        h.load(0, phys_addr(0, 64), 5, c, 0);
        assert_eq!(h.stats.l3_fills_noncritical.get(), 1);
    }
}

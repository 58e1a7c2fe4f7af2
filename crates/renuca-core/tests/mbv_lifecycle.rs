//! Mapping Bit Vector lifecycle tests (paper §IV.C): the MBV bit of a
//! critical line must survive a TLB eviction of its page (carried to the
//! page-table backing store and restored on refill), be cleared when the
//! line leaves the L3, and never route a post-eviction lookup to the
//! R-NUCA bank — a stale bit would make the controller probe a bank the
//! line no longer occupies.

use cmp_sim::hierarchy::MemoryHierarchy;
use cmp_sim::placement::{AccessMeta, LlcAccessKind, LlcPlacement};
use cmp_sim::types::{line_index_in_page, line_of, page_of_line, phys_addr, PAGE_BYTES};
use cmp_sim::SystemConfig;
use renuca_core::mapping::ReNucaStats;
use renuca_core::{ReNuca, Scheme};

fn meta(core: usize, line: u64, critical: bool) -> AccessMeta {
    AccessMeta {
        core,
        line,
        page: page_of_line(line),
        pc: 1,
        kind: LlcAccessKind::Demand,
        predicted_critical: critical,
    }
}

/// Policy-level lifecycle: fill sets the bit, TLB pressure carries it
/// through the backing store, `on_evict` clears it and the next lookup
/// falls back to the S-NUCA route.
#[test]
fn mbv_bit_survives_tlb_eviction_and_clears_on_l3_evict() {
    // 4-entry 2-way TLB so a handful of pages forces evictions.
    let mut r = ReNuca::new(2, 2, 4, 2);

    // A line owned by core 1 (address-space slice encodes the owner).
    let line = line_of(phys_addr(1, 0x1000));
    let (core, page, bit) = (1usize, page_of_line(line), line_index_in_page(line) as u32);

    // Critical fill: placed with the R-NUCA mapping, MBV bit set.
    let m = meta(core, line, true);
    let bank = r.fill_bank(&m);
    r.on_fill(&m, bank);
    assert_eq!(r.renuca_stats.critical_fills, 1);
    assert_eq!(r.tlb(core).mbv(page) >> bit & 1, 1, "fill must set the bit");

    // Lookup routes through the R-NUCA side while the bit is set.
    r.lookup_bank(&meta(core, line, false));
    assert_eq!(r.renuca_stats.lookups_rnuca, 1);

    // Evict the page from the 4-entry TLB by translating 8 other pages of
    // the same core. The non-zero MBV must be written back to the
    // page-table side structure, not dropped.
    for k in 2..10u64 {
        r.lookup_bank(&meta(core, line_of(phys_addr(1, k * PAGE_BYTES)), false));
    }
    assert_eq!(
        r.tlb(core).backing_len(),
        1,
        "the evicted page's non-zero MBV must be parked in the backing store"
    );
    assert_eq!(
        r.tlb(core).mbv(page) >> bit & 1,
        1,
        "bit readable from backing"
    );

    // The refilled translation restores the bit: lookups still route R-NUCA.
    r.lookup_bank(&meta(core, line, false));
    assert_eq!(
        r.renuca_stats.lookups_rnuca, 2,
        "carried bit must still route R-NUCA"
    );
    assert_eq!(
        r.tlb(core).backing_len(),
        0,
        "refill reclaims the backing entry"
    );

    // L3 eviction clears the bit; the next lookup takes the S-NUCA route.
    let snuca_lookups = r.renuca_stats.lookups_snuca;
    r.on_evict(line, bank);
    assert_eq!(
        r.tlb(core).mbv(page) >> bit & 1,
        0,
        "eviction must clear the bit"
    );
    r.lookup_bank(&meta(core, line, false));
    assert_eq!(r.renuca_stats.lookups_rnuca, 2, "no stale R-NUCA routing");
    assert_eq!(r.renuca_stats.lookups_snuca, snuca_lookups + 1);

    // With the vector now all-zero, renewed TLB pressure must not park it
    // in the backing store again (zero vectors are pruned, not stored).
    for k in 2..10u64 {
        r.lookup_bank(&meta(core, line_of(phys_addr(1, k * PAGE_BYTES)), false));
    }
    assert_eq!(
        r.tlb(core).backing_len(),
        0,
        "all-zero MBV needs no backing entry"
    );
}

/// An L3 eviction of a line whose page is *not* TLB-resident must clear
/// the bit straight in the backing store (the remap-while-parked case).
#[test]
fn evict_clears_bit_parked_in_backing_store() {
    let mut r = ReNuca::new(2, 2, 4, 2);
    let line = line_of(phys_addr(0, 0x3000));
    let (core, page) = (0usize, page_of_line(line));

    let m = meta(core, line, true);
    let bank = r.fill_bank(&m);
    r.on_fill(&m, bank);
    for k in 4..12u64 {
        r.lookup_bank(&meta(core, line_of(phys_addr(0, k * PAGE_BYTES)), false));
    }
    assert_eq!(r.tlb(core).backing_len(), 1, "page parked with its bit set");

    // The line leaves the L3 while the page translation is evicted.
    r.on_evict(line, bank);
    assert_eq!(r.tlb(core).mbv(page), 0);
    assert_eq!(
        r.tlb(core).backing_len(),
        0,
        "clearing the last bit must free the parked entry"
    );
}

/// Downcast the hierarchy's placement policy to Re-NUCA.
fn renuca(h: &MemoryHierarchy) -> &ReNuca {
    h.policy()
        .as_any()
        .and_then(|a| a.downcast_ref::<ReNuca>())
        .expect("policy is Re-NUCA")
}

fn mbv_bit(h: &MemoryHierarchy, core: usize, page: u64, bit: u32) -> u64 {
    renuca(h).tlb(core).mbv(page) >> bit & 1
}

fn stats(h: &MemoryHierarchy) -> ReNucaStats {
    renuca(h).renuca_stats
}

/// Hierarchy-level: after L3 capacity pressure evicts a critical line, the
/// post-eviction L2 miss must route S-NUCA — the MBV bit was cleared by
/// `on_evict` — and the refill (now predicted non-critical) lands in the
/// S-NUCA home bank.
#[test]
fn no_stale_mapping_after_post_eviction_l2_miss() {
    let mut cfg = SystemConfig::mesh(2, 2);
    cfg.l1.size_bytes = 1024;
    cfg.l1.assoc = 2;
    cfg.l2.size_bytes = 4 * 1024;
    cfg.l2.assoc = 4;
    cfg.l3_bank.size_bytes = 4 * 1024; // 64 lines/bank: quick to thrash
    cfg.l3_bank.assoc = 4;
    cfg.tlb_entries = 8;
    cfg.tlb_assoc = 2;
    cfg.prefetch.enabled = false;
    cfg.validate();

    let mut h = MemoryHierarchy::new(&cfg, Scheme::ReNuca.build_policy(&cfg));
    let core = 1usize;
    let target = phys_addr(core, 0x8000);
    let line = line_of(target);
    let (page, bit) = (page_of_line(line), line_index_in_page(line) as u32);

    // Critical load: the line fills at its R-NUCA bank and sets the bit.
    let mut now = 0u64;
    h.load(core, target, 0x400, true, now);
    assert_eq!(
        mbv_bit(&h, core, page, bit),
        1,
        "critical fill must set the MBV bit"
    );

    // Thrash the L3 with other critical loads from the same core until the
    // target's MBV bit is cleared by the eviction callback. The loads are
    // clean (no stores), so no writeback lookups muddy the counters below.
    let mut evicted = false;
    for k in 0..4096u64 {
        now += 100;
        h.load(core, phys_addr(core, 0x40_0000 + k * 64), 0x404, true, now);
        if mbv_bit(&h, core, page, bit) == 0 {
            evicted = true;
            break;
        }
    }
    assert!(
        evicted,
        "capacity pressure must evict the target and clear its bit"
    );

    // The back-invalidation that accompanied the L3 eviction emptied the
    // private caches too, so this access is an L2 miss. It must consult
    // the (cleared) MBV and take the S-NUCA route — exactly one lookup.
    let before = stats(&h);
    now += 100;
    h.load(core, target, 0x400, false, now);
    let after = stats(&h);
    assert_eq!(
        after.lookups_rnuca, before.lookups_rnuca,
        "stale R-NUCA route taken"
    );
    assert_eq!(after.lookups_snuca, before.lookups_snuca + 1);

    // The non-critical refill lands in the S-NUCA home (line % n_banks).
    let snuca_bank = (line % 4) as usize;
    assert!(
        h.l3_bank_contains(snuca_bank, line),
        "refill must use the S-NUCA mapping"
    );
}

//! The real cache's 32-bit LRU clock is renormalised before it reaches
//! `u32::MAX`; the golden cache counts stamps in `u64` and never wraps.
//! Starting the real clock just below the limit and replaying one seeded
//! op stream into both caches must give the same hits, fill slots and
//! victims across the renormalisation, for every replacement kind. The
//! stream marks lines dirty right after touching their set, so
//! `mark_dirty` ties with the clock are frequent.

use cmp_sim::cache::{LookupResult, ReplacementKind, SetAssocCache};
use cmp_sim::config::CacheGeometry;
use golden::cache::GoldenCache;
use sim_rng::SimRng;

/// Ops replayed per run. Each run starts the clock at most `OPS / 4`
/// ticks below the limit; about two thirds of the ops tick it, so the
/// renormalisation falls early in the stream (and the run asserts it ran).
const OPS: usize = 6_000;

fn replay(kind: ReplacementKind, sets: usize, assoc: usize, hash: bool, seed: u64) {
    let prefer_dirty = match kind {
        ReplacementKind::Lru => None,
        ReplacementKind::WriteAware => Some(false),
        ReplacementKind::DirtyFirst => Some(true),
    };
    let lines = sets * assoc;
    let geo = CacheGeometry::symmetric((lines * 64) as u64, assoc, 1);
    let mut real = SetAssocCache::with_replacement(geo, hash, kind);
    let mut gold = GoldenCache::with_preference(lines, assoc, hash, prefer_dirty);
    let mut rng = SimRng::seed_from_u64(seed);
    let lead = rng.gen_range_usize(1..OPS / 4) as u32;
    let start = u32::MAX - 1 - lead;
    real.start_clock_at(start);

    // Lines of the top core's slice, four times the capacity.
    let base = 31u64 << 22;
    let pool = 4 * lines as u64;
    let mut last = base;
    for op in 0..OPS {
        let ctx = format!("{kind:?} {sets}x{assoc} seed {seed:#x} op {op} (lead {lead})");
        let roll = rng.gen_bounded(100);
        if roll < 25 {
            // Restamp a resident line with the current clock: a tie with
            // the line just touched when both share a set.
            let line = if rng.gen_bool(0.5) {
                last
            } else {
                base + rng.gen_bounded(pool)
            };
            if real.contains(line) {
                assert!(real.mark_dirty(line), "{ctx}");
                gold.mark_dirty(line);
            }
            continue;
        }
        let line = base + rng.gen_bounded(pool);
        if roll < 35 {
            assert_eq!(real.invalidate(line), gold.invalidate(line), "{ctx}");
            continue;
        }
        last = line;
        let write = rng.gen_bool(0.4);
        let hit = matches!(real.access(line, write), LookupResult::Hit { .. });
        assert_eq!(hit, gold.access(line, write), "{ctx}: hit");
        if !hit {
            let dirty = rng.gen_bool(0.3);
            let r = real.fill(line, dirty);
            let g = gold.fill(line, dirty);
            assert_eq!((r.set, r.way), (g.set, g.way), "{ctx}: fill slot");
            assert_eq!(
                r.evicted.map(|e| (e.line, e.dirty)),
                g.victim.map(|v| (v.line, v.dirty)),
                "{ctx}: victim"
            );
        }
    }
    assert!(
        real.clock() < start,
        "{kind:?} {sets}x{assoc} seed {seed:#x}: clock never renormalised (lead {lead})"
    );
}

#[test]
fn victims_match_golden_across_the_stamp_renormalisation() {
    let kinds = [
        ReplacementKind::Lru,
        ReplacementKind::WriteAware,
        ReplacementKind::DirtyFirst,
    ];
    for kind in kinds {
        for seed in 0..8u64 {
            // Private-cache shape (raw index) and L3-bank shape (16 ways,
            // XOR-folded index).
            replay(kind, 16, 4, false, 0x57A3_0000 + seed);
            replay(kind, 8, 16, true, 0x57A3_1000 + seed);
        }
    }
}

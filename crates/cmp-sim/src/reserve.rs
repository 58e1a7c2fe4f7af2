//! Busy-interval reservation for shared timed resources.
//!
//! The hierarchy computes an access's timing functionally: path segments
//! (mesh links, DRAM banks, channel buses) are reserved at *future* times,
//! and accesses from different cores interleave in dispatch order, not in
//! resource-time order. A single `next_free` scalar per resource would make
//! an earlier-time request queue behind a later-time reservation; keeping
//! the (few) busy intervals per resource and inserting into the earliest
//! fitting gap models the queueing correctly.
//!
//! Intervals are sorted, disjoint, and merged when touching. Intervals
//! ending at or before the caller's time floor are dropped inline by
//! [`reserve`]. The owners (mesh, DRAM, LLC banks) also sweep with [`gc`]
//! 100 000 cycles behind the newest request time they have seen, and that
//! horizon is *not* a bound on future requests. Requests reach the mesh
//! and the banks up to 0.75 M (paper-mix) and 1.07 M (scheme-zoo) cycles
//! ahead of the time floor, so a sweep can drop a reservation a later,
//! earlier-starting request should have queued behind: 31 681 link and
//! 1 647 bank reservations in one seed-0 paper-mix benchmark pass. DRAM
//! requests stay within ~2 300 cycles of the floor there, and its sweeps
//! drop nothing live. The defect stays until the frozen benchmark
//! fingerprints can be re-blessed (ROADMAP, "Slack-horizon sweeps").

use crate::types::Cycle;

/// One resource's reservation calendar: sorted, disjoint busy intervals.
pub type Calendar = Vec<(Cycle, Cycle)>;

/// Backward-scan budget before falling back to a binary search for the
/// live boundary: the tail of intervals still relevant at `now` is almost
/// always just the handful of in-flight reservations, so a short reverse
/// walk from the end beats a `log n` probe over the (mostly dead) history.
const TAIL_SCAN: usize = 64;

/// Reserve the earliest `hold`-cycle gap at or after `now`. Returns the
/// start of the granted slot. Zero-length holds return `now` untouched.
///
/// `floor` is the caller's promise that no future call on this calendar
/// will use a smaller `now`: intervals ending at or before it are dead and
/// are dropped inline, so a floor that tracks simulation time (see
/// [`MemoryHierarchy::set_time_floor`](crate::hierarchy::MemoryHierarchy::set_time_floor))
/// keeps each calendar down to its handful of live in-flight reservations.
/// Callers without such a promise pass 0 and rely on the owner's
/// slack-horizon [`gc`] instead; dead history is then skipped per call —
/// reservations arrive in near-time-order, so the live boundary is found
/// with a short backward scan from the end (binary-search fallback for
/// pathological tails).
pub fn reserve(busy: &mut Calendar, now: Cycle, hold: Cycle, floor: Cycle) -> Cycle {
    // A floor ahead of `now` breaks the promise the floor encodes: an
    // interval that ends in (now, floor] is still live for this request
    // but would be dropped as dead history, silently un-queueing it.
    debug_assert!(
        floor <= now,
        "reserve: floor {floor} > now {now} would drop live intervals"
    );
    if hold == 0 {
        return now;
    }
    // Append fast path: the request starts at or after every booked
    // interval, so the grant is immediate — no gap scan, no shifting
    // insert. With a live floor this is the overwhelmingly common case
    // (reservations arrive in near-time-order).
    match busy.last() {
        None => {
            busy.push((now, now + hold));
            return now;
        }
        Some(&(_, end)) if end <= now => {
            if end <= floor {
                // Whole calendar is dead history: truncate in place, no
                // element shifting.
                busy.clear();
                busy.push((now, now + hold));
                return now;
            }
            if busy[0].1 <= floor {
                let dead = busy.iter().take_while(|&&(_, e)| e <= floor).count();
                busy.drain(..dead);
            }
            match busy.last_mut() {
                // Touching intervals merge, exactly as the slow path does.
                Some(last) if last.1 == now => last.1 = now + hold,
                _ => busy.push((now, now + hold)),
            }
            return now;
        }
        _ => {}
    }
    let dead = busy.iter().take_while(|&&(_, end)| end <= floor).count();
    if dead > 0 {
        busy.drain(..dead);
    }
    let mut t = now;
    let scan_floor = busy.len().saturating_sub(TAIL_SCAN);
    let mut first = busy.len();
    while first > scan_floor && busy[first - 1].1 > now {
        first -= 1;
    }
    if first == scan_floor && first > 0 && busy[first - 1].1 > now {
        first = busy.partition_point(|&(_, end)| end <= now);
    }
    let mut idx = busy.len();
    for (i, &(start, end)) in busy.iter().enumerate().skip(first) {
        if end <= t {
            continue;
        }
        if t + hold <= start {
            idx = i;
            break;
        }
        t = end;
    }
    busy.insert(idx, (t, t + hold));
    // Merge touching neighbours to keep calendars compact.
    if idx + 1 < busy.len() && busy[idx].1 >= busy[idx + 1].0 {
        busy[idx].1 = busy[idx].1.max(busy[idx + 1].1);
        busy.remove(idx + 1);
    }
    if idx > 0 && busy[idx - 1].1 >= busy[idx].0 {
        busy[idx - 1].1 = busy[idx - 1].1.max(busy[idx].1);
        busy.remove(idx);
    }
    t
}

/// Drop intervals that ended before `horizon`. This only drops dead
/// history when no future request can start before `horizon`; the
/// slack-horizon callers cannot promise that (see the module doc).
pub fn gc(busy: &mut Calendar, horizon: Cycle) {
    let keep_from = busy.partition_point(|&(_, end)| end < horizon);
    if keep_from > 0 {
        busy.drain(..keep_from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal(intervals: &[(Cycle, Cycle)]) -> Calendar {
        intervals.to_vec()
    }

    #[test]
    fn empty_calendar_grants_immediately() {
        let mut c = Calendar::new();
        assert_eq!(reserve(&mut c, 100, 10, 0), 100);
        assert_eq!(c, cal(&[(100, 110)]));
    }

    #[test]
    fn fits_into_gap_before_future_reservation() {
        let mut c = cal(&[(1000, 1010)]);
        assert_eq!(reserve(&mut c, 0, 10, 0), 0);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0], (0, 10));
    }

    #[test]
    fn too_small_gap_skipped() {
        let mut c = cal(&[(5, 10), (12, 20)]);
        // A 3-cycle hold at t=10 fits in [10,12)? No: 10+3 > 12 -> after 20.
        assert_eq!(reserve(&mut c, 10, 3, 0), 20);
    }

    #[test]
    fn exact_gap_used() {
        let mut c = cal(&[(5, 10), (12, 20)]);
        assert_eq!(reserve(&mut c, 10, 2, 0), 10);
        // Touching intervals merged: (5,10)+(10,12)+(12,20) -> one.
        assert_eq!(c, cal(&[(5, 20)]));
    }

    #[test]
    fn queues_behind_overlapping_interval() {
        let mut c = cal(&[(0, 50)]);
        assert_eq!(reserve(&mut c, 10, 5, 0), 50);
        assert_eq!(c, cal(&[(0, 55)]));
    }

    #[test]
    fn zero_hold_is_free() {
        let mut c = cal(&[(0, 50)]);
        assert_eq!(reserve(&mut c, 10, 0, 0), 10);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn gc_drops_stale_intervals() {
        let mut c = cal(&[(0, 10), (20, 30), (40, 50)]);
        gc(&mut c, 35);
        assert_eq!(c, cal(&[(40, 50)]));
        gc(&mut c, 1000);
        assert!(c.is_empty());
    }

    #[test]
    fn floor_drops_dead_prefix_without_changing_grants() {
        // Two calendars fed the same requests, one with a tracking floor:
        // grants must agree while the floored calendar stays short.
        let mut plain = Calendar::new();
        let mut floored = Calendar::new();
        let mut x: u64 = 0x5DEECE66D;
        let mut now = 0u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            now += (x >> 33) % 30;
            let ahead = (x >> 50) % 200; // future path-segment reservation
            let hold = 1 + (x >> 40) % 20;
            assert_eq!(
                reserve(&mut plain, now + ahead, hold, 0),
                reserve(&mut floored, now + ahead, hold, now),
            );
        }
        assert!(plain.len() >= floored.len());
        assert!(
            floored.len() < 64,
            "floored calendar must stay near its live set: {}",
            floored.len()
        );
    }

    #[test]
    fn append_fast_path_drains_partially_dead_calendar() {
        // busy[0] is dead history (ends at or before the floor) but the
        // tail is live: the append fast path must drop exactly the dead
        // prefix and keep the live tail intact.
        let mut c = cal(&[(0, 10), (20, 30)]);
        assert_eq!(reserve(&mut c, 40, 5, 15), 40);
        assert_eq!(c, cal(&[(20, 30), (40, 45)]));

        // Same shape, but the new reservation touches the live tail: the
        // drain must compose with the touching-interval merge.
        let mut c = cal(&[(0, 10), (20, 30)]);
        assert_eq!(reserve(&mut c, 30, 5, 15), 30);
        assert_eq!(c, cal(&[(20, 35)]));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "floor")]
    fn floor_ahead_of_now_is_rejected() {
        let mut c = cal(&[(0, 50)]);
        reserve(&mut c, 10, 5, 20);
    }

    #[test]
    fn reservations_never_overlap_property() {
        // Deterministic pseudo-random stress: invariants hold throughout.
        let mut c = Calendar::new();
        let mut x: u64 = 0x12345;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let now = (x >> 33) % 10_000;
            let hold = 1 + (x >> 50) % 40;
            let t = reserve(&mut c, now, hold, 0);
            assert!(t >= now);
            for w in c.iter().zip(c.iter().skip(1)) {
                assert!(w.0 .1 <= w.1 .0, "overlap: {:?} then {:?}", w.0, w.1);
                assert!(w.0 .0 < w.0 .1);
            }
        }
    }
}

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
//! Intervals are sorted, disjoint, and merged when touching. [`reserve`]
//! makes one pass per request: it drops the dead prefix (intervals ending
//! at or before the caller's time floor), scans back from the end to the
//! first interval still busy at `now` (reservations arrive in near-time
//! order, so that takes a step or two and an append stops at once), walks
//! forward to the first gap the hold fits, and then either widens a
//! neighbour the new interval touches, in place, or inserts it. The owners (mesh, DRAM, LLC banks) also sweep with [`gc`]
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

/// Reserve the earliest `hold`-cycle gap at or after `now`. Returns the
/// start of the granted slot. Zero-length holds return `now` untouched.
///
/// `floor` is the caller's promise that no future call on this calendar
/// will use a smaller `now`: intervals ending at or before it are dead and
/// are dropped inline, so a floor that tracks simulation time (see
/// [`MemoryHierarchy::set_time_floor`](crate::hierarchy::MemoryHierarchy::set_time_floor))
/// keeps each calendar down to its handful of live in-flight reservations.
/// Callers without such a promise pass 0 and rely on the owner's
/// slack-horizon [`gc`] instead.
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
    if busy.first().is_some_and(|&(_, end)| end <= floor) {
        let dead = busy.iter().take_while(|&&(_, end)| end <= floor).count();
        busy.drain(..dead);
    }
    // Live boundary: the first interval still busy at `now`.
    let mut idx = busy.len();
    while idx > 0 && busy[idx - 1].1 > now {
        idx -= 1;
    }
    // Earliest gap: queue behind every interval the hold would overlap.
    let mut t = now;
    while idx < busy.len() && t + hold > busy[idx].0 {
        t = busy[idx].1;
        idx += 1;
    }
    let end = t + hold;
    let touches_prev = idx > 0 && busy[idx - 1].1 == t;
    let touches_next = idx < busy.len() && busy[idx].0 == end;
    match (touches_prev, touches_next) {
        (true, true) => busy[idx - 1].1 = busy.remove(idx).1,
        (true, false) => busy[idx - 1].1 = end,
        (false, true) => busy[idx].0 = t,
        (false, false) => busy.insert(idx, (t, end)),
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

    /// The calendar algorithm before the one-pass rewrite, kept as the
    /// oracle `reserve` must match grant for grant and calendar for
    /// calendar: an append fast path, a dead-prefix drain, a backward scan
    /// bounded at 64 intervals with a binary-search fallback, a gap scan,
    /// and an insert followed by removals to merge touching neighbours.
    fn reference_reserve(busy: &mut Calendar, now: Cycle, hold: Cycle, floor: Cycle) -> Cycle {
        const TAIL_SCAN: usize = 64;
        if hold == 0 {
            return now;
        }
        match busy.last() {
            None => {
                busy.push((now, now + hold));
                return now;
            }
            Some(&(_, end)) if end <= now => {
                if end <= floor {
                    busy.clear();
                    busy.push((now, now + hold));
                    return now;
                }
                if busy[0].1 <= floor {
                    let dead = busy.iter().take_while(|&&(_, e)| e <= floor).count();
                    busy.drain(..dead);
                }
                match busy.last_mut() {
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

    #[test]
    fn one_pass_reserve_matches_the_reference_algorithm() {
        // 120 000 seeded requests in rounds that alternate a moving floor
        // with floor 0 (history piles up, so calendars pass the old
        // 64-interval scan budget). Requests go up to 3 000 cycles ahead
        // of simulated time, and two fifths of them aim at an exact touch
        // with a booked interval's end (one in three) or start.
        let mut ours = Calendar::new();
        let mut theirs = Calendar::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let (mut clock, mut floor) = (0u64, 0u64);
        let mut seen = [0u32; 5]; // future, touch before, touch after, both, long tail
        for i in 0..120_000u64 {
            let moving_floor = (i / 4_000) % 2 == 0;
            clock += next() % 40;
            if moving_floor {
                floor = floor.max(clock.saturating_sub(next() % 50));
            } else {
                floor = 0;
            }
            let hold = 1 + next() % 16;
            let mut now = clock + next() % if next() % 4 == 0 { 3_000 } else { 60 };
            let pick = next();
            if pick % 5 < 2 && !theirs.is_empty() {
                let (s, e) = theirs[(pick / 5) as usize % theirs.len()];
                now = match (pick / 7) % 3 {
                    0 => e,
                    _ => s.saturating_sub(hold),
                };
            }
            let now = now.max(floor);
            let live: Vec<_> = theirs
                .iter()
                .filter(|&&(_, e)| e > floor)
                .copied()
                .collect();
            let granted = reference_reserve(&mut theirs, now, hold, floor);
            assert_eq!(reserve(&mut ours, now, hold, floor), granted, "request {i}");
            assert_eq!(
                ours, theirs,
                "request {i}: now {now} hold {hold} floor {floor}"
            );
            let before = live.iter().any(|&(_, e)| e == granted);
            let after = live.iter().any(|&(s, _)| s == granted + hold);
            seen[0] += u32::from(live.iter().any(|&(s, _)| s > now));
            seen[1] += u32::from(before && !after);
            seen[2] += u32::from(after && !before);
            seen[3] += u32::from(before && after);
            seen[4] += u32::from(live.iter().filter(|&&(_, e)| e > now).count() > 64);
        }
        for (what, &n) in ["future", "touch before", "touch after", "both", "long tail"]
            .iter()
            .zip(&seen)
        {
            assert!(n >= 100, "only {n} requests of kind {what:?}");
        }
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

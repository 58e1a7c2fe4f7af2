//! 2-D mesh network-on-chip with XY routing and link contention.
//!
//! The paper's CMP connects 16 tiles (one core + one L3 bank each) with a
//! 4×4 mesh. NUCA access latency is dominated by hop count — S-NUCA pays an
//! average of ~3 hops to a random bank while R-NUCA stays within one hop —
//! so the mesh model must charge per-hop latency faithfully and account for
//! serialization when multiple messages contend for a link.
//!
//! The model: each directed link keeps a short, sorted list of **busy
//! intervals**. A message of `f` flits traversing a link reserves the
//! earliest gap of `f × cycles_per_flit` cycles at or after its arrival;
//! each hop additionally costs the router pipeline latency. Interval
//! reservation (rather than a single `next_free` scalar) matters because
//! the functional-timing hierarchy reserves path segments at *future*
//! times out of order — a request departing now must not queue behind a
//! response reserved thousands of cycles ahead. Intervals older than a
//! generous path-latency horizon are garbage-collected, and adjacent
//! reservations merge, so lists stay short at realistic loads.

use crate::config::NocConfig;
use crate::reserve::{gc, reserve, Calendar};
use crate::types::Cycle;
use sim_stats::Counter;

/// Reservations ending this many cycles before the newest observed arrival
/// time are dropped. Some `traverse` calls arrive far ahead of the time
/// floor, so this drops live link reservations too (see [`crate::reserve`]).
const GC_SLACK: Cycle = 100_000;

/// Mesh tile coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tile {
    /// Column, `0..cols`.
    pub x: usize,
    /// Row, `0..rows`.
    pub y: usize,
}

/// NoC traffic statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct NocStats {
    /// Messages injected.
    pub messages: Counter,
    /// Total flits moved across all links (flit-hops).
    pub flit_hops: Counter,
    /// Total hop count over all messages.
    pub hops: Counter,
    /// Cycles spent waiting for busy links.
    pub contention_cycles: Counter,
}

impl NocStats {
    /// Mean hops per message (0 for an idle mesh).
    pub fn avg_hops(&self) -> f64 {
        self.hops.per(self.messages.get(), 1)
    }

    /// Register every counter plus the derived mean hop count under
    /// `<prefix>.messages`, `<prefix>.hops`, `<prefix>.flit_hops`,
    /// `<prefix>.contention_cycles`, `<prefix>.avg_hops`.
    pub fn register(&self, reg: &mut sim_stats::StatsRegistry, prefix: &str) {
        reg.set(format!("{prefix}.messages"), self.messages.get());
        reg.set(format!("{prefix}.hops"), self.hops.get());
        reg.set(format!("{prefix}.flit_hops"), self.flit_hops.get());
        reg.set(
            format!("{prefix}.contention_cycles"),
            self.contention_cycles.get(),
        );
        reg.set(format!("{prefix}.avg_hops"), self.avg_hops());
    }
}

/// A 2-D mesh interconnect.
#[derive(Clone, Debug)]
pub struct Mesh {
    cfg: NocConfig,
    /// Busy intervals per directed link; 4 links (N/E/S/W output) per node.
    links: Vec<Calendar>,
    /// Largest arrival time seen (garbage-collection horizon driver).
    max_now: Cycle,
    /// Horizon of the last GC sweep (amortization).
    last_gc: Cycle,
    /// Monotone lower bound on all future `traverse` times (simulation
    /// time, fed by [`Mesh::set_floor`]); lets `reserve` drop dead
    /// intervals inline. The slack-horizon sweep runs as well.
    floor: Cycle,
    /// Traffic counters.
    pub stats: NocStats,
}

/// Output directions from a router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    North = 0,
    East = 1,
    South = 2,
    West = 3,
}

impl Mesh {
    /// Build a mesh from its configuration.
    pub fn new(cfg: NocConfig) -> Self {
        Mesh {
            links: vec![Calendar::new(); cfg.cols * cfg.rows * 4],
            max_now: 0,
            last_gc: 0,
            floor: 0,
            cfg,
            stats: NocStats::default(),
        }
    }

    /// Promise that no future [`Mesh::traverse`] will start before `now`.
    /// The event-driven system loop calls this as simulation time advances;
    /// reservations ending at or before the floor are reclaimed inline.
    pub fn set_floor(&mut self, now: Cycle) {
        self.floor = self.floor.max(now);
    }

    /// The configuration in use.
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Tile of a node id (row-major).
    #[inline]
    pub fn tile_of(&self, node: usize) -> Tile {
        Tile {
            x: node % self.cfg.cols,
            y: node / self.cfg.cols,
        }
    }

    /// Node id of a tile.
    #[inline]
    pub fn node_of(&self, t: Tile) -> usize {
        t.y * self.cfg.cols + t.x
    }

    /// Manhattan hop distance between two nodes.
    pub fn hop_distance(&self, src: usize, dst: usize) -> u64 {
        let a = self.tile_of(src);
        let b = self.tile_of(dst);
        (a.x.abs_diff(b.x) + a.y.abs_diff(b.y)) as u64
    }

    #[inline]
    fn link_index(&self, node: usize, dir: Dir) -> usize {
        node * 4 + dir as usize
    }

    /// Send a message of `flits` flits from `src` to `dst`, starting at
    /// `now`. Returns the arrival cycle. Zero-hop messages (src == dst, the
    /// local bank) arrive immediately.
    pub fn traverse(&mut self, src: usize, dst: usize, flits: u32, now: Cycle) -> Cycle {
        self.stats.messages.inc();
        if src == dst {
            return now;
        }
        if now > self.max_now {
            self.max_now = now;
            let horizon = self.max_now.saturating_sub(GC_SLACK);
            if horizon > self.last_gc + GC_SLACK / 4 {
                self.last_gc = horizon;
                for link in &mut self.links {
                    gc(link, horizon);
                }
            }
        }
        let mut t = now;
        let mut cur = self.tile_of(src);
        let dst_t = self.tile_of(dst);
        let hold = flits as u64 * self.cfg.cycles_per_flit;
        let mut hops = 0u64;
        // Dimension-ordered (XY) routing: fully resolve x, then y.
        while cur.x != dst_t.x || cur.y != dst_t.y {
            let dir = if cur.x < dst_t.x {
                Dir::East
            } else if cur.x > dst_t.x {
                Dir::West
            } else if cur.y < dst_t.y {
                Dir::South
            } else {
                Dir::North
            };
            let link = self.link_index(self.node_of(cur), dir);
            let depart = reserve(&mut self.links[link], t, hold, self.floor);
            self.stats.contention_cycles.add(depart - t);
            t = depart + self.cfg.hop_cycles;
            cur = match dir {
                Dir::East => Tile {
                    x: cur.x + 1,
                    ..cur
                },
                Dir::West => Tile {
                    x: cur.x - 1,
                    ..cur
                },
                Dir::South => Tile {
                    y: cur.y + 1,
                    ..cur
                },
                Dir::North => Tile {
                    y: cur.y - 1,
                    ..cur
                },
            };
            hops += 1;
        }
        self.stats.hops.add(hops);
        self.stats.flit_hops.add(hops * flits as u64);
        t
    }

    /// Reset statistics and link state (warm-up boundary).
    pub fn reset_stats(&mut self) {
        self.stats = NocStats::default();
        self.links.iter_mut().for_each(|l| l.clear());
        self.max_now = 0;
        self.last_gc = 0;
        self.floor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh4x4() -> Mesh {
        Mesh::new(NocConfig::default())
    }

    #[test]
    fn tile_node_roundtrip() {
        let m = mesh4x4();
        for node in 0..16 {
            assert_eq!(m.node_of(m.tile_of(node)), node);
        }
        assert_eq!(m.tile_of(5), Tile { x: 1, y: 1 });
    }

    #[test]
    fn hop_distance_manhattan() {
        let m = mesh4x4();
        assert_eq!(m.hop_distance(0, 0), 0);
        assert_eq!(m.hop_distance(0, 3), 3);
        assert_eq!(m.hop_distance(0, 15), 6); // (0,0) -> (3,3)
        assert_eq!(m.hop_distance(5, 6), 1);
    }

    #[test]
    fn zero_hop_message_is_free() {
        let mut m = mesh4x4();
        assert_eq!(m.traverse(7, 7, 5, 100), 100);
        assert_eq!(m.stats.hops.get(), 0);
    }

    #[test]
    fn uncontended_latency_is_hops_times_hop_cycles() {
        let mut m = mesh4x4();
        let t = m.traverse(0, 15, 1, 0);
        assert_eq!(t, 6 * m.config().hop_cycles); // 6 uncontended hops
        assert_eq!(m.stats.hops.get(), 6);
        assert_eq!(m.stats.flit_hops.get(), 6);
    }

    #[test]
    fn xy_routing_is_deterministic_and_minimal() {
        let mut m = mesh4x4();
        // Any src->dst pair takes exactly manhattan-many hops.
        for src in 0..16 {
            for dst in 0..16 {
                let before = m.stats.hops.get();
                m.traverse(src, dst, 1, 0);
                assert_eq!(
                    m.stats.hops.get() - before,
                    m.hop_distance(src, dst),
                    "{src}->{dst} not minimal"
                );
            }
        }
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        let mut m = mesh4x4();
        // Two 5-flit messages over the same single link (0 -> 1) at the
        // same cycle: the second waits for the first's serialization.
        let t1 = m.traverse(0, 1, 5, 0);
        let t2 = m.traverse(0, 1, 5, 0);
        let hop = m.config().hop_cycles;
        assert_eq!(t1, hop);
        assert_eq!(t2, 5 + hop); // waits 5 flit-cycles then one hop
        assert_eq!(m.stats.contention_cycles.get(), 5);
    }

    #[test]
    fn disjoint_paths_do_not_contend() {
        let mut m = mesh4x4();
        let t1 = m.traverse(0, 1, 5, 0);
        let t2 = m.traverse(4, 5, 5, 0); // different row, different links
        assert_eq!(t1, t2);
        assert_eq!(m.stats.contention_cycles.get(), 0);
    }

    #[test]
    fn later_message_sees_freed_link() {
        let mut m = mesh4x4();
        m.traverse(0, 1, 5, 0); // link busy until cycle 5
        let t = m.traverse(0, 1, 1, 100); // long after
        assert_eq!(t, 100 + m.config().hop_cycles);
    }

    #[test]
    fn reset_clears_link_state() {
        let mut m = mesh4x4();
        m.traverse(0, 1, 50, 0);
        m.reset_stats();
        assert_eq!(m.traverse(0, 1, 1, 0), m.config().hop_cycles);
        assert_eq!(m.stats.messages.get(), 1);
    }

    #[test]
    fn earlier_message_slips_before_future_reservation() {
        // A response reserved far in the future must not delay a request
        // departing now — the gap before the reservation is usable.
        let mut m = mesh4x4();
        m.traverse(0, 1, 5, 10_000); // future reservation on link 0->1
        let t = m.traverse(0, 1, 1, 0); // present-time request
        assert_eq!(
            t,
            m.config().hop_cycles,
            "present message must use the idle link now"
        );
        assert_eq!(m.stats.contention_cycles.get(), 0);
    }

    #[test]
    fn gap_too_small_queues_after() {
        let mut m = mesh4x4();
        m.traverse(0, 1, 5, 4); // busy [4, 9)
                                // A 5-flit message at t=0 does not fit in [0,4); departs at 9.
        let t = m.traverse(0, 1, 5, 0);
        assert_eq!(t, 9 + m.config().hop_cycles);
        assert_eq!(m.stats.contention_cycles.get(), 9);
    }

    #[test]
    fn interval_lists_stay_bounded_under_load() {
        let mut m = mesh4x4();
        for i in 0..200_000u64 {
            m.traverse(0, 3, 5, i * 2);
        }
        let worst = m.links.iter().map(|l| l.len()).max().unwrap();
        assert!(worst < 10_000, "interval GC failed: {worst} entries");
    }

    #[test]
    fn non_square_mesh_supported() {
        let mut m = Mesh::new(NocConfig {
            cols: 2,
            rows: 1,
            ..NocConfig::default()
        });
        assert_eq!(m.hop_distance(0, 1), 1);
        assert_eq!(m.traverse(0, 1, 1, 0), m.config().hop_cycles);
    }
}

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
    /// Link indices of every XY route, in hop order: the route from `src`
    /// to `dst` is `routes[route_start[p]..route_start[p + 1]]` with
    /// `p = src * nodes + dst`.
    routes: Vec<u16>,
    /// Offsets into `routes`, one per (src, dst) pair plus the end.
    route_start: Vec<u32>,
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

impl Mesh {
    /// Build a mesh from its configuration, with the dimension-ordered
    /// (XY) route of every (src, dst) pair: x is resolved first, then y.
    /// Nodes are numbered row-major, and the output link of a router
    /// toward north, east, south or west is `node * 4 + 0, 1, 2 or 3`.
    pub fn new(cfg: NocConfig) -> Self {
        let (cols, nodes) = (cfg.cols, cfg.cols * cfg.rows);
        let mut routes = Vec::new();
        let mut route_start = vec![0u32];
        for src in 0..nodes {
            for dst in 0..nodes {
                let (mut x, mut y) = (src % cols, src / cols);
                let (dx, dy) = (dst % cols, dst / cols);
                while (x, y) != (dx, dy) {
                    let here = y * cols + x;
                    let port = if x < dx {
                        x += 1;
                        1
                    } else if x > dx {
                        x -= 1;
                        3
                    } else if y < dy {
                        y += 1;
                        2
                    } else {
                        y -= 1;
                        0
                    };
                    routes.push(u16::try_from(here * 4 + port).expect("mesh link index fits u16"));
                }
                route_start.push(routes.len() as u32);
            }
        }
        Mesh {
            links: vec![Calendar::new(); nodes * 4],
            routes,
            route_start,
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

    /// The links of the XY route from `src` to `dst`, in hop order.
    #[inline]
    fn route(&self, src: usize, dst: usize) -> std::ops::Range<usize> {
        let p = src * self.cfg.cols * self.cfg.rows + dst;
        self.route_start[p] as usize..self.route_start[p + 1] as usize
    }

    /// Manhattan hop distance between two nodes.
    pub fn hop_distance(&self, src: usize, dst: usize) -> u64 {
        self.route(src, dst).len() as u64
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
        let route = self.route(src, dst);
        let hops = route.len() as u64;
        let hold = flits as u64 * self.cfg.cycles_per_flit;
        let mut t = now;
        for &link in &self.routes[route] {
            t = reserve(&mut self.links[link as usize], t, hold, self.floor) + self.cfg.hop_cycles;
        }
        // Whatever the hops did not spend in the router pipeline, the
        // message spent waiting for busy links.
        self.stats
            .contention_cycles
            .add(t - now - hops * self.cfg.hop_cycles);
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
    use std::cmp::Ordering;

    fn mesh4x4() -> Mesh {
        Mesh::new(NocConfig::default())
    }

    /// The per-hop XY walk the route table replaced: at each router,
    /// step east or west until the column matches, then south or north,
    /// and take that router's output link (N/E/S/W = 0..4).
    fn xy_walk(cols: usize, src: usize, dst: usize) -> Vec<usize> {
        let (mut x, mut y) = (src % cols, src / cols);
        let (dx, dy) = (dst % cols, dst / cols);
        let mut links = Vec::new();
        while x != dx || y != dy {
            let node = y * cols + x;
            let (dir, nx, ny) = match (x.cmp(&dx), y.cmp(&dy)) {
                (Ordering::Less, _) => (1, x + 1, y),
                (Ordering::Greater, _) => (3, x - 1, y),
                (_, Ordering::Less) => (2, x, y + 1),
                _ => (0, x, y - 1),
            };
            links.push(node * 4 + dir);
            (x, y) = (nx, ny);
        }
        links
    }

    fn mesh(cols: usize, rows: usize) -> Mesh {
        Mesh::new(NocConfig {
            cols,
            rows,
            ..NocConfig::default()
        })
    }

    #[test]
    fn route_table_lists_the_xy_walk() {
        for (cols, rows) in [(4, 4), (2, 1), (3, 2)] {
            let m = mesh(cols, rows);
            let n = cols * rows;
            for src in 0..n {
                for dst in 0..n {
                    let table: Vec<usize> = m.routes[m.route(src, dst)]
                        .iter()
                        .map(|&l| l as usize)
                        .collect();
                    assert_eq!(
                        table,
                        xy_walk(cols, src, dst),
                        "{cols}x{rows}: {src}->{dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn contended_replay_matches_per_hop_accounting() {
        // The same seeded message stream through the table-driven mesh and
        // through a per-hop replay of the XY walk (its own calendars,
        // contention charged hop by hop, the same slack-horizon sweeps):
        // arrivals, hops, flit-hops and contention cycles all agree.
        for (cols, rows) in [(4, 4), (2, 1), (3, 2)] {
            let mut m = mesh(cols, rows);
            let cfg = *m.config();
            let n = cols * rows;
            let mut links = vec![Calendar::new(); n * 4];
            let (mut max_now, mut last_gc) = (0, 0);
            let (mut hops, mut flit_hops, mut contention) = (0u64, 0u64, 0u64);
            let mut x: u64 = 0xC0FF_EE00 + n as u64;
            let mut clock = 0u64;
            for i in 0..40_000u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                clock += (x >> 60) % 4;
                let (src, dst) = ((x >> 20) as usize % n, (x >> 30) as usize % n);
                let flits = 1 + (x >> 40) as u32 % 5;
                // One message in eight is booked far ahead, past the sweeps.
                let ahead = (x >> 48) % 150_000 * u64::from((x >> 45) % 8 == 0);
                let now = clock + ahead;
                if i % 64 == 0 {
                    m.set_floor(clock);
                }
                let got = m.traverse(src, dst, flits, now);
                let mut t = now;
                if src != dst {
                    if now > max_now {
                        max_now = now;
                        let horizon = max_now.saturating_sub(GC_SLACK);
                        if horizon > last_gc + GC_SLACK / 4 {
                            last_gc = horizon;
                            links.iter_mut().for_each(|l| gc(l, horizon));
                        }
                    }
                    for link in xy_walk(cols, src, dst) {
                        let depart = reserve(
                            &mut links[link],
                            t,
                            flits as u64 * cfg.cycles_per_flit,
                            m.floor,
                        );
                        contention += depart - t;
                        t = depart + cfg.hop_cycles;
                        hops += 1;
                        flit_hops += flits as u64;
                    }
                }
                assert_eq!(got, t, "{cols}x{rows} message {i}: {src}->{dst}");
            }
            assert_eq!(m.stats.hops.get(), hops);
            assert_eq!(m.stats.flit_hops.get(), flit_hops);
            assert_eq!(m.stats.contention_cycles.get(), contention);
            assert!(contention > 0, "{cols}x{rows}: the replay never contended");
        }
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

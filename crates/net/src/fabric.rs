//! The interconnect fabric: delivery-time computation with optional
//! per-link contention and loss.
//!
//! [`Fabric`] turns "node A sends `bytes` to node B at time T" into arrival
//! times, in one of two modes:
//!
//! * **Cut-through** (default, [`ContentionModel::None`]) — the paper's
//!   model: one serialization delay plus 200 ns per hop, no queueing.
//! * **Store-and-forward** ([`ContentionModel::StoreAndForward`]) — each
//!   directed link is a FIFO resource: a packet waits for the link to free,
//!   occupies it for the serialization time, then incurs the hop latency.
//!   Used by the contention ablation bench.
//!
//! Packet loss (for exercising the reliable-multicast recovery path) is one
//! Bernoulli trial per multicast member delivery, rolled by the caller
//! through [`Fabric::roll_loss`] on a deterministic seeded RNG; unicasts are
//! never lost.
//!
//! The fabric's two tables — per-path FIFO floors and per-link occupancy —
//! hold what is in flight, not every path and link a run ever used: a
//! fabric that is told the simulation clock ([`Fabric::advance`]) forgets
//! entries the clock has passed, which can no longer delay anything.

use std::collections::HashMap;
use std::hash::Hash;

use sesame_sim::{DetRng, SimDur, SimTime};

use crate::{LinkId, LinkTiming, NodeId, RouteRef, SpanningTree, Topology};

/// How the fabric accounts for link occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContentionModel {
    /// Contention-free cut-through delivery (the paper's model).
    #[default]
    None,
    /// Store-and-forward with FIFO queueing on every directed link.
    StoreAndForward,
}

/// Traffic accounting for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Packets accepted for transmission.
    pub packets: u64,
    /// Payload bytes accepted for transmission.
    pub bytes: u64,
    /// Total link traversals (packets x hops, counting tree fan-out).
    pub link_traversals: u64,
    /// Packets dropped by the loss model.
    pub losses: u64,
    /// Total link occupancy: serialization time summed over every link
    /// traversal, in nanoseconds. Divided by the run length this yields the
    /// mean number of busy links — the link-utilization figure telemetry
    /// reports.
    pub ser_ns: u64,
}

/// Per-key instants before which something may not happen, of which only
/// the ones still ahead of the clock are worth keeping.
///
/// Every reader takes `max(t, entry)` for a `t` at or after the clock, so
/// an entry at or before the clock reads exactly like a missing one
/// (`SimTime::ZERO`) and may be dropped. A full table therefore sweeps its
/// expired entries out before it grows, and its size follows the live set
/// instead of the count of keys ever seen. With the clock at zero nothing
/// ever expires and this is a plain growing map.
#[derive(Debug)]
struct Expiring<K> {
    map: HashMap<K, SimTime>,
    /// Survivors of a sweep on their way back into `map`, retained so a
    /// sweep allocates nothing.
    survivors: Vec<(K, SimTime)>,
    /// Entries examined by sweeps so far — the cost that inserts must
    /// amortise.
    scanned: u64,
}

impl<K: Copy + Eq + Hash> Expiring<K> {
    fn new() -> Self {
        Expiring {
            map: HashMap::new(),
            survivors: Vec::new(),
            scanned: 0,
        }
    }

    /// The instant stored under `key` (zero if none is), for the caller to
    /// read and raise.
    fn slot(&mut self, key: K, clock: SimTime) -> &mut SimTime {
        if self.map.len() == self.map.capacity() && clock > SimTime::ZERO {
            self.sweep(clock);
        }
        self.map.entry(key).or_insert(SimTime::ZERO)
    }

    /// Drops every entry at or before `clock` from a full table, without
    /// releasing its storage. Emptying the map and re-inserting the
    /// survivors (rather than `retain`) leaves no tombstones behind, so
    /// capacity stays a function of the entry count alone.
    fn sweep(&mut self, clock: SimTime) {
        let full = self.map.len();
        self.scanned += full as u64;
        self.survivors
            .extend(self.map.drain().filter(|&(_, at)| at > clock));
        self.map.extend(self.survivors.drain(..));
        // A sweep scanned `full` entries, so it must buy room for a
        // comparable number of inserts: if fewer than half expired, grow.
        // (Sweeping again the moment the table refills would be quadratic
        // for a live set just under a power of two.)
        self.map.reserve(full / 2);
    }
}

/// Computes packet delivery times over a topology.
#[derive(Debug)]
pub struct Fabric {
    timing: LinkTiming,
    contention: ContentionModel,
    loss_probability: f64,
    /// The simulation clock as last reported through [`Fabric::advance`];
    /// zero on a fabric nobody advances.
    clock: SimTime,
    /// Per-link instant at which the link is free again (store-and-forward
    /// only).
    busy_until: Expiring<LinkId>,
    /// Per-(src, dst) last delivery time: packets on the same path never
    /// overtake earlier ones (same routing priority), even when a shorter
    /// serialization would otherwise let them.
    path_fifo: Expiring<(NodeId, NodeId)>,
    rng: DetRng,
    stats: FabricStats,
    /// Per-position arrival-time scratch reused across multicasts, so the
    /// steady-state dispatch path performs no per-call allocation.
    arrival_scratch: Vec<SimTime>,
    /// Path scratch reused across unicasts, for the same reason: one
    /// protocol message = one unicast, and routes must not allocate.
    route_scratch: Vec<LinkId>,
}

impl Fabric {
    /// Creates a contention-free, loss-free fabric with the given timing.
    pub fn new(timing: LinkTiming) -> Self {
        Fabric {
            timing,
            contention: ContentionModel::None,
            loss_probability: 0.0,
            clock: SimTime::ZERO,
            busy_until: Expiring::new(),
            path_fifo: Expiring::new(),
            rng: DetRng::new(0x5e5a_11e7),
            stats: FabricStats::default(),
            arrival_scratch: Vec::new(),
            route_scratch: Vec::new(),
        }
    }

    /// Selects the contention model.
    pub fn set_contention(&mut self, model: ContentionModel) {
        self.contention = model;
    }

    /// Sets the per-delivery loss probability (clamped to `[0, 1]`)
    /// and the seed of the loss RNG.
    pub fn set_loss(&mut self, probability: f64, seed: u64) {
        self.loss_probability = probability.clamp(0.0, 1.0);
        self.rng = DetRng::new(seed);
    }

    /// Tells the fabric the simulation clock. Sends must never leave
    /// before it (`now >= clock` on every later call, which an event
    /// engine's non-decreasing clock gives for free); in exchange the
    /// fabric forgets FIFO floors and link occupancy the clock has passed.
    /// That is unobservable: a packet arrives no earlier than it leaves, so
    /// a floor at or before the clock can never bind again.
    ///
    /// Pass the current instant, not a send instant that runs ahead of it.
    /// A fabric that is never advanced keeps everything.
    pub fn advance(&mut self, now: SimTime) {
        self.clock = self.clock.max(now);
    }

    /// How many per-path FIFO floors the fabric has room for — the size of
    /// its largest run-grown table, for footprint budgets.
    pub fn floor_capacity(&self) -> usize {
        self.path_fifo.map.capacity()
    }

    /// The link timing in use.
    pub fn timing(&self) -> LinkTiming {
        self.timing
    }

    /// The contention model in use. The `sesame-check` explorer requires
    /// [`ContentionModel::None`]: store-and-forward queueing couples all
    /// senders through shared link-occupancy state, which would invalidate
    /// its target-node independence relation.
    pub fn contention(&self) -> ContentionModel {
        self.contention
    }

    /// The per-delivery loss probability. The `sesame-check`
    /// explorer requires zero: the loss RNG is shared by every send, so a
    /// lossy fabric makes delivery outcomes depend on event order.
    pub fn loss_probability(&self) -> f64 {
        self.loss_probability
    }

    /// Traffic counters.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Rolls the loss die once: `true` (and counted as a loss) with the
    /// configured probability. Used by callers that manage their own
    /// delivery bookkeeping, e.g. per-member multicast loss.
    pub fn roll_loss(&mut self) -> bool {
        if self.loss_probability > 0.0 && self.rng.chance(self.loss_probability) {
            self.stats.losses += 1;
            true
        } else {
            false
        }
    }

    /// Bills `links` link traversals of a packet that serializes in `ser`.
    fn bill_links(&mut self, links: u64, ser: SimDur) {
        self.stats.link_traversals += links;
        self.stats.ser_ns += links * ser.as_nanos();
    }

    /// Store-and-forward over one link: a packet ready at `t` waits for the
    /// link to free, occupies it for `ser`, then pays the hop latency.
    /// Returns its arrival at the link's far end.
    fn occupy(&mut self, link: LinkId, t: SimTime, ser: SimDur) -> SimTime {
        let busy = self.busy_until.slot(link, self.clock);
        let start = t.max(*busy);
        *busy = start + ser;
        start + ser + self.timing.hop_latency
    }

    /// Sends `bytes` from `src` to `dst`, returning the arrival time.
    ///
    /// A zero-hop send (to self) arrives after one serialization delay.
    pub fn unicast(
        &mut self,
        now: SimTime,
        topo: &dyn Topology,
        src: NodeId,
        dst: NodeId,
        bytes: u32,
    ) -> SimTime {
        debug_assert!(now >= self.clock, "a send leaves before the clock");
        self.stats.packets += 1;
        self.stats.bytes += bytes as u64;
        let ser = self.timing.serialization(bytes);
        let raw = if src == dst {
            now + ser
        } else {
            match self.contention {
                // Cut-through: one serialization plus a hop latency per
                // link. Only the path's length matters, and every topology
                // knows that without walking the path.
                ContentionModel::None => {
                    let hops = u64::from(topo.hops(src, dst));
                    self.bill_links(hops, ser);
                    now + ser + self.timing.hop_latency * hops
                }
                ContentionModel::StoreAndForward => {
                    let mut links = std::mem::take(&mut self.route_scratch);
                    topo.route_into(src, dst, &mut links);
                    self.bill_links(links.len() as u64, ser);
                    let t = links.iter().fold(now, |t, &l| self.occupy(l, t, ser));
                    self.route_scratch = links;
                    t
                }
            }
        };
        // Per-path FIFO: never deliver before an earlier packet on the
        // same (src, dst) path.
        let floor = self.path_fifo.slot((src, dst), self.clock);
        *floor = raw.max(*floor);
        *floor
    }

    /// Propagates one packet down a group's spanning tree from its root,
    /// returning the arrival time at every requested member.
    ///
    /// Each tree edge is traversed once no matter how many members sit below
    /// it — the bandwidth advantage of tree multicast over unicast fan-out.
    /// The root itself "receives" at `now` if it is in `members`.
    pub fn multicast(
        &mut self,
        now: SimTime,
        tree: &SpanningTree,
        bytes: u32,
        members: &[NodeId],
    ) -> Vec<(NodeId, SimTime)> {
        let mut out = Vec::with_capacity(members.len());
        self.multicast_into(now, tree, bytes, members, &mut out);
        out
    }

    /// Like [`Fabric::multicast`], but writes the arrival list into a
    /// caller-provided buffer (cleared first) instead of allocating one —
    /// the dispatch hot path reuses a single buffer across every fan-out.
    pub fn multicast_into(
        &mut self,
        now: SimTime,
        tree: &SpanningTree,
        bytes: u32,
        members: &[NodeId],
        out: &mut Vec<(NodeId, SimTime)>,
    ) {
        debug_assert!(now >= self.clock, "a send leaves before the clock");
        self.stats.packets += 1;
        self.stats.bytes += bytes as u64;
        // Arrival time per position, computed in BFS order so parents are
        // final before children. The scratch is a fabric field: steady
        // state re-fills it in place.
        self.arrival_scratch.clear();
        self.arrival_scratch.resize(tree.len(), SimTime::MAX);
        let ser = self.timing.serialization(bytes);
        self.arrival_scratch[tree.root().index()] = now;
        for pos in tree.bfs_order() {
            let t_here = self.arrival_scratch[pos.index()];
            for &child in tree.children(pos) {
                self.stats.link_traversals += 1;
                self.stats.ser_ns += ser.as_nanos();
                self.arrival_scratch[child.index()] = match self.contention {
                    // Cut-through: the root clocks the packet out once, then
                    // the wavefront advances one hop latency per tree edge.
                    ContentionModel::None => {
                        let base = if pos == tree.root() {
                            t_here + ser
                        } else {
                            t_here
                        };
                        base + self.timing.hop_latency
                    }
                    // Store-and-forward: every tree edge re-serializes and
                    // queues behind earlier traffic on that link.
                    ContentionModel::StoreAndForward => {
                        self.occupy(LinkId::between(pos, child), t_here, ser)
                    }
                };
            }
        }
        out.clear();
        out.extend(
            members
                .iter()
                .map(|&m| (m, self.arrival_scratch[m.index()])),
        );
    }

    /// Propagates one packet down a member-pruned route — a
    /// [`MulticastRoute`](crate::MulticastRoute) by reference or a
    /// [`RouteRef`] out of a [`RouteArena`](crate::RouteArena) —
    /// producing arrival times in the route's declared member order.
    ///
    /// Semantics match [`Fabric::multicast`] over the full spanning tree —
    /// under cut-through timing each member's arrival depends only on its
    /// shortest-path depth, so the two produce identical arrival lists —
    /// but only the pruned edge set is traversed (and billed to
    /// [`FabricStats::link_traversals`] / [`FabricStats::ser_ns`]): work is
    /// `O(route nodes)` instead of `O(topology positions)`. The root
    /// "receives" its own echo at `now`. The arrival list is written into
    /// the caller's buffer (cleared first), as [`Fabric::multicast_into`]
    /// does.
    pub fn multicast_route_into<'r>(
        &mut self,
        now: SimTime,
        route: impl Into<RouteRef<'r>>,
        bytes: u32,
        out: &mut Vec<(NodeId, SimTime)>,
    ) {
        debug_assert!(now >= self.clock, "a send leaves before the clock");
        let route = route.into();
        self.bill_multicast_route(route, bytes);
        let ser = self.timing.serialization(bytes);
        // Local index 0 is the root; every parent precedes its children, so
        // one forward pass finalizes arrivals wave by wave.
        self.arrival_scratch.clear();
        self.arrival_scratch.push(now);
        for i in 1..route.len() {
            let p = route.parent_of(i);
            let t_here = self.arrival_scratch[p];
            let at = match self.contention {
                // Cut-through: the root clocks the packet out once, then the
                // wavefront advances one hop latency per route edge.
                ContentionModel::None => {
                    let base = if p == 0 { t_here + ser } else { t_here };
                    base + self.timing.hop_latency
                }
                // Store-and-forward: every route edge re-serializes and
                // queues behind earlier traffic on that link.
                ContentionModel::StoreAndForward => {
                    self.occupy(LinkId::between(route.node(p), route.node(i)), t_here, ser)
                }
            };
            self.arrival_scratch.push(at);
        }
        out.clear();
        out.extend(
            route
                .member_indices()
                .map(|i| (route.node(i), self.arrival_scratch[i])),
        );
    }

    /// Bills one multicast over `route` to the traffic counters without
    /// computing arrival times: exactly the accounting
    /// [`Fabric::multicast_route_into`] performs (one packet, every pruned
    /// edge traversed once). The dispatch fast path uses this when arrivals
    /// are determined by the route's precomputed waves alone — i.e. under
    /// cut-through timing, where a member's arrival is a pure function of
    /// its hop depth.
    pub fn bill_multicast_route<'r>(&mut self, route: impl Into<RouteRef<'r>>, bytes: u32) {
        self.stats.packets += 1;
        self.stats.bytes += bytes as u64;
        let ser = self.timing.serialization(bytes);
        self.bill_links(route.into().edge_count() as u64, ser);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FullMesh, Line, MeshTorus2d, Ring};

    fn n(id: u32) -> NodeId {
        NodeId::new(id)
    }

    fn paper_fabric() -> Fabric {
        Fabric::new(LinkTiming::paper_1994())
    }

    #[test]
    fn unicast_cut_through_time() {
        let topo = MeshTorus2d::new(4, 4);
        let mut f = paper_fabric();
        // 0 -> 5 is 2 hops; 125 bytes serialize in 1us.
        let arr = f.unicast(SimTime::ZERO, &topo, n(0), n(5), 125);
        assert_eq!(arr, SimTime::from_nanos(1_000 + 2 * 200));
    }

    #[test]
    fn self_send_costs_one_serialization() {
        let topo = Ring::new(4);
        let mut f = paper_fabric();
        let arr = f.unicast(SimTime::ZERO, &topo, n(2), n(2), 125);
        assert_eq!(arr, SimTime::from_nanos(1_000));
    }

    #[test]
    fn store_and_forward_queues_on_shared_link() {
        let topo = Line::new(3);
        let mut f = paper_fabric();
        f.set_contention(ContentionModel::StoreAndForward);
        // Two simultaneous packets over the same 0->1 link: the second waits
        // for the first's serialization.
        let a = f.unicast(SimTime::ZERO, &topo, n(0), n(1), 125);
        let b = f.unicast(SimTime::ZERO, &topo, n(0), n(1), 125);
        assert_eq!(a, SimTime::from_nanos(1_200));
        assert_eq!(b, SimTime::from_nanos(2_200));
    }

    #[test]
    fn store_and_forward_accumulates_per_hop_serialization() {
        let topo = Line::new(3);
        let mut f = paper_fabric();
        f.set_contention(ContentionModel::StoreAndForward);
        // 2 hops: each hop costs ser + latency when idle.
        let arr = f.unicast(SimTime::ZERO, &topo, n(0), n(2), 125);
        assert_eq!(arr, SimTime::from_nanos(2 * (1_000 + 200)));
    }

    #[test]
    fn multicast_arrival_matches_tree_depth() {
        let topo = MeshTorus2d::new(4, 4);
        let tree = SpanningTree::build(&topo, n(5));
        let mut f = paper_fabric();
        let members: Vec<NodeId> = (0..16).map(n).collect();
        let arrivals = f.multicast(SimTime::ZERO, &tree, 125, &members);
        for (m, t) in arrivals {
            let expect = if m == n(5) {
                SimTime::ZERO
            } else {
                SimTime::from_nanos(1_000 + 200 * tree.depth(m) as u64)
            };
            assert_eq!(t, expect, "member {m}");
        }
    }

    #[test]
    fn multicast_counts_each_tree_edge_once() {
        let topo = Ring::new(8);
        let tree = SpanningTree::build(&topo, n(0));
        let mut f = paper_fabric();
        let members: Vec<NodeId> = (0..8).map(n).collect();
        f.multicast(SimTime::ZERO, &tree, 64, &members);
        // A ring spanning tree has exactly 7 edges.
        assert_eq!(f.stats().link_traversals, 7);
        assert_eq!(f.stats().packets, 1);
    }

    #[test]
    fn unicast_fanout_uses_more_traversals_than_multicast() {
        let topo = MeshTorus2d::new(4, 4);
        let tree = SpanningTree::build(&topo, n(0));
        let members: Vec<NodeId> = (1..16).map(n).collect();

        let mut mc = paper_fabric();
        mc.multicast(SimTime::ZERO, &tree, 64, &members);

        let mut uc = paper_fabric();
        for &m in &members {
            uc.unicast(SimTime::ZERO, &topo, n(0), m, 64);
        }
        assert!(
            uc.stats().link_traversals > mc.stats().link_traversals,
            "unicast {} vs multicast {}",
            uc.stats().link_traversals,
            mc.stats().link_traversals
        );
    }

    #[test]
    fn lossy_send_eventually_loses() {
        let mut f = paper_fabric();
        f.set_loss(0.5, 7);
        let lost = (0..200).filter(|_| f.roll_loss()).count() as u64;
        assert!(lost > 50 && lost < 150, "lost={lost} of 200");
        assert_eq!(f.stats().losses, lost);
    }

    #[test]
    fn zero_loss_never_loses() {
        let mut f = paper_fabric();
        assert!((0..100).all(|_| !f.roll_loss()));
        assert_eq!(f.stats().losses, 0);
    }

    #[test]
    fn stats_accumulate() {
        let topo = Ring::new(4);
        let mut f = paper_fabric();
        f.unicast(SimTime::ZERO, &topo, n(0), n(2), 100);
        f.unicast(SimTime::ZERO, &topo, n(1), n(0), 50);
        let s = f.stats();
        assert_eq!(s.packets, 2);
        assert_eq!(s.bytes, 150);
        assert_eq!(s.link_traversals, 3);
        // Each traversal occupies a link for one serialization time.
        let expect =
            2 * f.timing().serialization(100).as_nanos() + f.timing().serialization(50).as_nanos();
        assert_eq!(s.ser_ns, expect);
    }

    /// The `i`-th distinct ordered pair of a `nodes`-wide full mesh.
    fn pair(i: u32, nodes: u32) -> (NodeId, NodeId) {
        let (src, k) = (i / (nodes - 1) % nodes, i % (nodes - 1));
        (n(src), n(if k >= src { k + 1 } else { k }))
    }

    #[test]
    fn an_unadvanced_fabric_keeps_every_floor() {
        let topo = FullMesh::new(64);
        let mut f = paper_fabric();
        for i in 0..4_000u32 {
            let (src, dst) = pair(i, 64);
            f.unicast(SimTime::from_nanos(1_000 * i as u64), &topo, src, dst, 16);
        }
        assert_eq!(f.path_fifo.map.len(), 4_000);
        assert_eq!(
            f.path_fifo.scanned, 0,
            "nothing can expire, so nothing is swept"
        );
    }

    #[test]
    fn sweeps_hold_the_table_to_the_live_set_at_amortised_cost() {
        // Steady traffic, every send on a path of its own: a 16-byte packet
        // is in flight for 328 ns and the clock moves 4 ns per send, so the
        // live set — floors still ahead of the clock — is L = 82 paths
        // however many paths the run has used.
        const L: usize = 82;
        let sends = 100 * L as u32;
        let topo = FullMesh::new(128);
        let mut f = paper_fabric();
        for i in 0..sends {
            let now = SimTime::from_nanos(1_000 + 4 * i as u64);
            f.advance(now);
            let (src, dst) = pair(i, 128);
            let at = f.unicast(now, &topo, src, dst, 16);
            assert_eq!(at, now + SimDur::from_nanos(328));
            assert!(
                f.floor_capacity() <= 4 * L,
                "capacity {} after {i} sends",
                f.floor_capacity()
            );
        }
        // Each sweep scans a full table and must be paid for by at least
        // half a table of inserts.
        assert!(f.path_fifo.scanned > 0, "the table was never full");
        assert!(
            f.path_fifo.scanned <= 3 * sends as u64,
            "{} entries scanned over {sends} sends",
            f.path_fifo.scanned
        );
    }
}

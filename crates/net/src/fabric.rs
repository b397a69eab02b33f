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

use std::collections::HashMap;

use sesame_sim::{DetRng, SimTime};

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

/// Computes packet delivery times over a topology.
#[derive(Debug)]
pub struct Fabric {
    timing: LinkTiming,
    contention: ContentionModel,
    loss_probability: f64,
    busy_until: HashMap<LinkId, SimTime>,
    /// Per-(src, dst) last delivery time: packets on the same path never
    /// overtake earlier ones (same routing priority), even when a shorter
    /// serialization would otherwise let them.
    path_fifo: HashMap<(NodeId, NodeId), SimTime>,
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
            busy_until: HashMap::new(),
            path_fifo: HashMap::new(),
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

    fn traverse_links(&mut self, now: SimTime, links: &[LinkId], bytes: u32) -> SimTime {
        self.stats.link_traversals += links.len() as u64;
        self.stats.ser_ns += links.len() as u64 * self.timing.serialization(bytes).as_nanos();
        match self.contention {
            ContentionModel::None => now + self.timing.transfer(links.len() as u32, bytes),
            ContentionModel::StoreAndForward => {
                let ser = self.timing.serialization(bytes);
                let mut t = now;
                for &l in links {
                    let free = self.busy_until.get(&l).copied().unwrap_or(SimTime::ZERO);
                    let start = t.max(free);
                    self.busy_until.insert(l, start + ser);
                    t = start + ser + self.timing.hop_latency;
                }
                t
            }
        }
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
        self.stats.packets += 1;
        self.stats.bytes += bytes as u64;
        let raw = if src == dst {
            now + self.timing.serialization(bytes)
        } else {
            let mut links = std::mem::take(&mut self.route_scratch);
            topo.route_into(src, dst, &mut links);
            let t = self.traverse_links(now, &links, bytes);
            self.route_scratch = links;
            t
        };
        // Per-path FIFO: never deliver before an earlier packet on the
        // same (src, dst) path.
        let floor = self
            .path_fifo
            .get(&(src, dst))
            .copied()
            .unwrap_or(SimTime::ZERO);
        let at = raw.max(floor);
        self.path_fifo.insert((src, dst), at);
        at
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
                        let link = LinkId::between(pos, child);
                        let free = self.busy_until.get(&link).copied().unwrap_or(SimTime::ZERO);
                        let start = t_here.max(free);
                        self.busy_until.insert(link, start + ser);
                        start + ser + self.timing.hop_latency
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
        let route = route.into();
        self.bill_multicast_route(route, bytes);
        let ser = self.timing.serialization(bytes);
        // Local index 0 is the root; every parent precedes its children, so
        // one forward pass finalizes arrivals wave by wave.
        self.arrival_scratch.clear();
        let arrival = &mut self.arrival_scratch;
        arrival.push(now);
        for i in 1..route.len() {
            let p = route.parent_of(i);
            let t_here = arrival[p];
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
                    let link = LinkId::between(route.node(p), route.node(i));
                    let free = self.busy_until.get(&link).copied().unwrap_or(SimTime::ZERO);
                    let start = t_here.max(free);
                    self.busy_until.insert(link, start + ser);
                    start + ser + self.timing.hop_latency
                }
            };
            arrival.push(at);
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
        let route = route.into();
        self.stats.packets += 1;
        self.stats.bytes += bytes as u64;
        let edges = route.edge_count() as u64;
        self.stats.link_traversals += edges;
        self.stats.ser_ns += edges * self.timing.serialization(bytes).as_nanos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Line, MeshTorus2d, Ring};

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
}

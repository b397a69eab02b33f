//! The interconnect fabric: delivery-time computation and loss.
//!
//! [`Fabric`] turns "node A sends `bytes` to node B at time T" into arrival
//! times under the paper's cut-through model: one serialization delay plus
//! 200 ns per hop, with no queueing. A packet's arrival therefore depends
//! only on how many hops it crosses, and every multicast reads a member's
//! arrival off its hop depth from the root with one rule,
//! [`Fabric::arrival`].
//!
//! Packet loss (for exercising the reliable-multicast recovery path) is one
//! Bernoulli trial per multicast member delivery, rolled by the caller
//! through [`Fabric::roll_loss`] on a deterministic seeded RNG; unicasts are
//! never lost.
//!
//! The fabric's one table — per-path FIFO floors — holds what is in
//! flight, not every path a run ever used: a fabric that is told the
//! simulation clock ([`Fabric::advance`]) forgets floors the clock has
//! passed, which can no longer delay anything.

use std::collections::HashMap;
use std::hash::Hash;

use sesame_sim::{DetRng, SimTime};

use crate::{LinkTiming, NodeId, RouteRef, SpanningTree, Topology};

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
    loss_probability: f64,
    /// The simulation clock as last reported through [`Fabric::advance`];
    /// zero on a fabric nobody advances.
    clock: SimTime,
    /// Per-(src, dst) last delivery time: packets on the same path never
    /// overtake earlier ones (same routing priority), even when a shorter
    /// serialization would otherwise let them.
    path_fifo: Expiring<(NodeId, NodeId)>,
    rng: DetRng,
    stats: FabricStats,
}

impl Fabric {
    /// Creates a loss-free fabric with the given timing.
    pub fn new(timing: LinkTiming) -> Self {
        Fabric {
            timing,
            loss_probability: 0.0,
            clock: SimTime::ZERO,
            path_fifo: Expiring::new(),
            rng: DetRng::new(0x5e5a_11e7),
            stats: FabricStats::default(),
        }
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
    /// fabric forgets FIFO floors the clock has passed. That is
    /// unobservable: a packet arrives no earlier than it leaves, so a
    /// floor at or before the clock can never bind again.
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

    /// When a packet multicast at `now` reaches a member `depth` hops from
    /// the root: the root's own echo (depth 0) is local and immediate, and
    /// depth `d` costs one serialization plus `d` hop latencies — the root
    /// clocks the packet out once, then the wavefront advances one hop
    /// latency per edge.
    pub fn arrival(&self, now: SimTime, depth: u32, bytes: u32) -> SimTime {
        match depth {
            0 => now,
            d => now + self.timing.transfer(d, bytes),
        }
    }

    /// Bills one packet of `bytes` that crosses `links` links, each
    /// occupied for one serialization time.
    fn bill(&mut self, bytes: u32, links: u64) {
        self.stats.packets += 1;
        self.stats.bytes += u64::from(bytes);
        self.stats.link_traversals += links;
        self.stats.ser_ns += links * self.timing.serialization(bytes).as_nanos();
    }

    /// Sends `bytes` from `src` to `dst`, returning the arrival time: one
    /// serialization plus a hop latency per link of the shortest path.
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
        let hops = topo.hops(src, dst);
        self.bill(bytes, u64::from(hops));
        let raw = now + self.timing.transfer(hops, bytes);
        // Per-path FIFO: never deliver before an earlier packet on the
        // same (src, dst) path.
        let floor = self.path_fifo.slot((src, dst), self.clock);
        *floor = raw.max(*floor);
        *floor
    }

    /// Propagates one packet down a group's spanning tree from its root,
    /// writing the arrival time at every requested member into a
    /// caller-provided buffer (cleared first).
    ///
    /// Each tree edge is traversed once no matter how many members sit below
    /// it — the bandwidth advantage of tree multicast over unicast fan-out —
    /// so the call bills `tree.len() − 1` link traversals. A member arrives
    /// at its [`SpanningTree::depth`] ([`Fabric::arrival`]); the root itself
    /// "receives" at `now` if it is in `members`. Nothing is allocated once
    /// `out` has reached its size.
    pub fn multicast_into(
        &mut self,
        now: SimTime,
        tree: &SpanningTree,
        bytes: u32,
        members: &[NodeId],
        out: &mut Vec<(NodeId, SimTime)>,
    ) {
        debug_assert!(now >= self.clock, "a send leaves before the clock");
        self.bill(bytes, tree.len() as u64 - 1);
        out.clear();
        out.extend(
            members
                .iter()
                .map(|&m| (m, self.arrival(now, tree.depth(m), bytes))),
        );
    }

    /// Floods one packet from `root` to every position of `topo`, returning
    /// the arrival time at every requested member without building a tree.
    ///
    /// A member's depth in a breadth-first tree from `root` is its
    /// shortest-path distance, [`Topology::hops`], so this equals
    /// [`Fabric::multicast_into`] over a [`SpanningTree`] from `root`, and
    /// bills as it does: one packet, and each of the `positions − 1` tree
    /// edges traversed once. Work is `O(members)`. The arrival list is
    /// written into the caller's buffer (cleared first).
    pub fn flood_into(
        &mut self,
        now: SimTime,
        topo: &dyn Topology,
        root: NodeId,
        bytes: u32,
        members: &[NodeId],
        out: &mut Vec<(NodeId, SimTime)>,
    ) {
        debug_assert!(now >= self.clock, "a send leaves before the clock");
        self.bill(bytes, topo.positions() as u64 - 1);
        out.clear();
        out.extend(
            members
                .iter()
                .map(|&m| (m, self.arrival(now, topo.hops(root, m), bytes))),
        );
    }

    /// Propagates one packet down a member-pruned route — a
    /// [`MulticastRoute`](crate::MulticastRoute) by reference or a
    /// [`RouteRef`] out of a [`RouteArena`](crate::RouteArena) —
    /// producing arrival times in the route's declared member order.
    ///
    /// A member's route depth is its shortest-path depth, so the arrival
    /// list equals [`Fabric::multicast_into`]'s over the full spanning
    /// tree, but only the pruned edge set is billed to
    /// [`FabricStats::link_traversals`] / [`FabricStats::ser_ns`]. Work is
    /// `O(members)`. The root "receives" its own echo at `now`. The arrival
    /// list is written into the caller's buffer (cleared first).
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
        out.clear();
        out.extend(
            route
                .members()
                .map(|(m, depth)| (m, self.arrival(now, depth, bytes))),
        );
    }

    /// Bills one multicast over `route` to the traffic counters without
    /// computing arrival times: exactly the accounting
    /// [`Fabric::multicast_route_into`] performs (one packet, every pruned
    /// edge traversed once). The dispatch fast path uses this when the
    /// route's precomputed waves carry the arrivals.
    pub fn bill_multicast_route<'r>(&mut self, route: impl Into<RouteRef<'r>>, bytes: u32) {
        self.bill(bytes, route.into().edge_count() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::reference::{shapes, ReferenceTree};
    use crate::{FullMesh, Line, LinkId, MeshTorus2d, Ring};
    use sesame_sim::SimDur;
    use std::collections::BTreeSet;

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
    fn multicast_arrival_matches_tree_depth() {
        let topo = MeshTorus2d::new(4, 4);
        let tree = SpanningTree::build(&topo, n(5));
        let mut f = paper_fabric();
        let members: Vec<NodeId> = (0..16).map(n).collect();
        let mut arrivals = Vec::new();
        f.multicast_into(SimTime::ZERO, &tree, 125, &members, &mut arrivals);
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
        f.multicast_into(SimTime::ZERO, &tree, 64, &members, &mut Vec::new());
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
        mc.multicast_into(SimTime::ZERO, &tree, 64, &members, &mut Vec::new());

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

    /// The fan-out over the reference tree: a fresh BFS order per call,
    /// then a per-edge walk — the root clocks the packet out once, and
    /// the wavefront advances one hop latency per tree edge, billing each.
    fn reference_multicast(
        f: &mut Fabric,
        now: SimTime,
        tree: &ReferenceTree,
        bytes: u32,
        members: &[NodeId],
    ) -> Vec<(NodeId, SimTime)> {
        f.stats.packets += 1;
        f.stats.bytes += bytes as u64;
        let ser = f.timing.serialization(bytes);
        let mut arrival = vec![SimTime::MAX; tree.depth.len()];
        arrival[tree.root.index()] = now;
        for pos in tree.bfs_order() {
            let t_here = arrival[pos.index()];
            let base = if pos == tree.root {
                t_here + ser
            } else {
                t_here
            };
            for &child in &tree.children[pos.index()] {
                f.stats.link_traversals += 1;
                f.stats.ser_ns += ser.as_nanos();
                arrival[child.index()] = base + f.timing.hop_latency;
            }
        }
        members.iter().map(|&m| (m, arrival[m.index()])).collect()
    }

    /// The fan-out over a pruned route, read off the topology alone: one
    /// packet that crosses each distinct link of the root-to-member paths
    /// once, and reaches each member one serialization plus a hop latency
    /// per link of its path after `now` (the root's echo at `now`).
    fn reference_route_multicast(
        f: &mut Fabric,
        now: SimTime,
        topo: &dyn Topology,
        root: NodeId,
        bytes: u32,
        members: &[NodeId],
    ) -> Vec<(NodeId, SimTime)> {
        let paths: Vec<Vec<LinkId>> = members.iter().map(|&m| topo.route(root, m)).collect();
        let links: BTreeSet<LinkId> = paths.iter().flatten().copied().collect();
        let ser = f.timing.serialization(bytes);
        f.stats.packets += 1;
        f.stats.bytes += bytes as u64;
        f.stats.link_traversals += links.len() as u64;
        f.stats.ser_ns += links.len() as u64 * ser.as_nanos();
        let arrival = |path: &Vec<LinkId>| match path.len() {
            0 => now,
            hops => now + ser + f.timing.hop_latency * hops as u64,
        };
        members
            .iter()
            .copied()
            .zip(paths.iter().map(arrival))
            .collect()
    }

    #[test]
    fn the_flood_walk_equals_the_nested_reference() {
        let topos: [Box<dyn Topology>; 4] = [
            Box::new(MeshTorus2d::with_nodes(128)),
            Box::new(MeshTorus2d::new(4, 4)),
            Box::new(Ring::new(9)),
            Box::new(FullMesh::new(65)),
        ];
        let mut rng = DetRng::new(0x5EED_7EE5);
        for topo in &topos {
            let topo = topo.as_ref();
            let positions = topo.positions() as u64;
            for timing in [LinkTiming::paper_1994(), LinkTiming::zero_delay()] {
                let (mut flat, mut nested) = (Fabric::new(timing), Fabric::new(timing));
                let mut out = Vec::new();
                let mut now = SimTime::ZERO;
                for call in 0..24 {
                    let root = n(rng.next_below(positions) as u32);
                    let members: Vec<NodeId> = (0..positions as u32)
                        .map(n)
                        .filter(|_| rng.chance(0.4))
                        .collect();
                    let bytes = 16 + rng.next_below(200) as u32;
                    let tree = SpanningTree::build(topo, root);
                    flat.multicast_into(now, &tree, bytes, &members, &mut out);
                    let want = reference_multicast(
                        &mut nested,
                        now,
                        &ReferenceTree::build(topo, root),
                        bytes,
                        &members,
                    );
                    assert_eq!(out, want, "call {call}, {timing:?}, {topo:?}");
                    assert_eq!(flat.stats(), nested.stats(), "call {call}, {timing:?}");
                    now += SimDur::from_nanos(rng.next_below(2_000));
                }
            }
        }
    }

    #[test]
    fn the_route_depth_lookup_equals_the_path_walk() {
        let topos: [Box<dyn Topology>; 4] = [
            Box::new(MeshTorus2d::with_nodes(128)),
            Box::new(Ring::new(9)),
            Box::new(Line::new(7)),
            Box::new(FullMesh::new(65)),
        ];
        let mut rng = DetRng::new(0x207E_DA7A);
        for topo in &topos {
            let topo = topo.as_ref();
            let positions = topo.positions() as u64;
            for timing in [LinkTiming::paper_1994(), LinkTiming::zero_delay()] {
                let (mut looked_up, mut walked) = (Fabric::new(timing), Fabric::new(timing));
                let (mut got, mut now) = (Vec::new(), SimTime::ZERO);
                for call in 0..24 {
                    let root = n(rng.next_below(positions) as u32);
                    let members: Vec<NodeId> = (0..positions as u32)
                        .map(n)
                        .filter(|_| rng.chance(0.3))
                        .collect();
                    let bytes = 16 + rng.next_below(200) as u32;
                    let route = crate::MulticastRoute::build(topo, root, &members);
                    looked_up.multicast_route_into(now, &route, bytes, &mut got);
                    let want =
                        reference_route_multicast(&mut walked, now, topo, root, bytes, &members);
                    assert_eq!(got, want, "call {call}, {timing:?}, {topo:?}");
                    assert_eq!(looked_up.stats(), walked.stats(), "call {call}, {timing:?}");
                    now += SimDur::from_nanos(rng.next_below(2_000));
                }
            }
        }
    }

    #[test]
    fn the_tree_free_flood_equals_the_tree_walk() {
        let mut topos = Vec::from(shapes());
        topos.push(Box::new(MeshTorus2d::with_nodes(128)));
        let mut rng = DetRng::new(0xF100_D5ED);
        for topo in &topos {
            let topo = topo.as_ref();
            let positions = topo.positions() as u32;
            for timing in [LinkTiming::paper_1994(), LinkTiming::zero_delay()] {
                let (mut free, mut walked) = (Fabric::new(timing), Fabric::new(timing));
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let mut now = SimTime::ZERO;
                for r in 0..positions {
                    let root = n(r);
                    let tree = SpanningTree::build(topo, root);
                    for m in 0..positions {
                        assert_eq!(
                            topo.hops(root, n(m)),
                            tree.depth(n(m)),
                            "root {r}, position {m}, {topo:?}"
                        );
                    }
                    let all: Vec<NodeId> = (0..positions).map(n).collect();
                    let hand_off = [root, n((r + 1) % positions)];
                    let subset: Vec<NodeId> =
                        (0..positions).map(n).filter(|_| rng.chance(0.4)).collect();
                    for members in [&all[..], &hand_off, &subset] {
                        let bytes = 16 + rng.next_below(200) as u32;
                        free.flood_into(now, topo, root, bytes, members, &mut got);
                        walked.multicast_into(now, &tree, bytes, members, &mut want);
                        assert_eq!(got, want, "root {r}, {timing:?}, {topo:?}");
                        assert_eq!(free.stats(), walked.stats(), "root {r}, {timing:?}");
                        now += SimDur::from_nanos(rng.next_below(2_000));
                    }
                }
            }
        }
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

//! Randomized tests of the interconnect layer over every topology: route
//! validity, hop symmetry, spanning-tree shortest paths, fabric timing
//! monotonicity, per-link FIFO under store-and-forward contention, and
//! the unobservability of expiring FIFO floors.
//!
//! Cases are drawn from the kernel's own deterministic [`DetRng`] so the
//! suite needs no external property-testing crate and replays identically
//! on every run.

use sesame_net::{
    ContentionModel, Fabric, FullMesh, Hypercube, Line, LinkTiming, MeshTorus2d, MulticastRoute,
    NodeId, Ring, SpanningTree, Star, Topology,
};
use sesame_sim::{DetRng, SimDur, SimTime};

fn n(id: u32) -> NodeId {
    NodeId::new(id)
}

/// Instantiates topology `kind` (0..5) with `nodes` CPUs.
fn make_topology(kind: u8, nodes: usize) -> Box<dyn Topology> {
    match kind % 6 {
        0 => Box::new(MeshTorus2d::with_nodes(nodes)),
        1 => Box::new(Ring::new(nodes)),
        2 => Box::new(Line::new(nodes)),
        3 => Box::new(Star::new(nodes)),
        4 => Box::new(Hypercube::with_at_least(nodes)),
        _ => Box::new(FullMesh::new(nodes)),
    }
}

/// Routes are connected, end at the destination, and have exactly
/// `hops` links; hops are symmetric; self-distance is zero.
#[test]
fn routes_are_valid_on_every_topology() {
    let mut rng = DetRng::new(0xA11CE);
    for _ in 0..48 {
        let kind = rng.next_below(6) as u8;
        let nodes = rng.next_range(2, 29) as usize;
        let a = n(rng.next_below(nodes as u64) as u32);
        let b = n(rng.next_below(nodes as u64) as u32);
        let topo = make_topology(kind, nodes);
        let links = topo.route(a, b);
        assert_eq!(links.len() as u32, topo.hops(a, b));
        let mut at = a;
        for l in &links {
            assert_eq!(l.from_node(), at);
            // Each link connects adjacent positions.
            assert!(
                topo.neighbors(l.from_node()).contains(&l.to_node()),
                "non-adjacent link {l}"
            );
            at = l.to_node();
        }
        assert_eq!(at, b);
        assert_eq!(topo.hops(a, b), topo.hops(b, a));
        assert_eq!(topo.hops(a, a), 0);
        assert!(topo.hops(a, b) <= topo.diameter().max(1) * 2);
    }
}

/// Spanning trees reach every position at shortest-path depth with
/// consistent parent/child links, from any root.
#[test]
fn spanning_trees_are_shortest_path_trees() {
    let mut rng = DetRng::new(0xB0B);
    for _ in 0..48 {
        let kind = rng.next_below(6) as u8;
        let nodes = rng.next_range(2, 24) as usize;
        let root = n(rng.next_below(nodes as u64) as u32);
        let topo = make_topology(kind, nodes);
        let tree = SpanningTree::build(topo.as_ref(), root);
        assert_eq!(tree.len(), topo.positions());
        for m in 0..topo.len() as u32 {
            let m = n(m);
            assert_eq!(tree.depth(m), topo.hops(root, m));
            if m != root {
                let p = tree.parent(m).expect("non-root parent");
                assert_eq!(tree.depth(m), tree.depth(p) + 1);
                assert!(tree.children(p).contains(&m));
            }
        }
        let order = tree.bfs_order();
        assert_eq!(order.len(), topo.positions());
        assert_eq!(order[0], root);
    }
}

/// Cut-through delivery time is now + hops*latency + serialization;
/// arrival never precedes departure; bigger payloads never arrive
/// sooner.
#[test]
fn fabric_timing_is_monotone() {
    let mut rng = DetRng::new(0xC0FFEE);
    for _ in 0..48 {
        let kind = rng.next_below(6) as u8;
        let nodes = rng.next_range(2, 19) as usize;
        let a = n(rng.next_below(nodes as u64) as u32);
        let b = n(rng.next_below(nodes as u64) as u32);
        let bytes = rng.next_range(1, 9_999) as u32;
        let start = rng.next_below(1_000_000);
        let topo = make_topology(kind, nodes);
        let now = SimTime::from_nanos(start);
        let timing = LinkTiming::paper_1994();
        let mut f = Fabric::new(timing);
        let arr = f.unicast(now, topo.as_ref(), a, b, bytes);
        assert!(arr >= now);
        let expect = now + timing.transfer(topo.hops(a, b), bytes);
        if a != b {
            assert_eq!(arr, expect);
        }
        let mut f2 = Fabric::new(timing);
        let arr_bigger = f2.unicast(now, topo.as_ref(), a, b, bytes + 64);
        assert!(arr_bigger >= arr);
    }
}

/// Under store-and-forward contention, packets entering the same first
/// link in order leave in order (per-link FIFO), and contention never
/// makes anything *faster* than the contention-free model.
#[test]
fn store_and_forward_is_fifo_and_never_faster() {
    let mut rng = DetRng::new(0xF1F0);
    for _ in 0..48 {
        let nodes = rng.next_range(3, 11) as usize;
        let count = rng.next_range(1, 29) as usize;
        let mut sends: Vec<(u64, u32)> = (0..count)
            .map(|_| (rng.next_below(5_000), rng.next_range(1, 1_999) as u32))
            .collect();
        sends.sort_by_key(|&(t, _)| t);
        let topo = Line::new(nodes);
        let dst = n(nodes as u32 - 1);
        let timing = LinkTiming::paper_1994();
        let mut contended = Fabric::new(timing);
        contended.set_contention(ContentionModel::StoreAndForward);
        let mut arrivals = Vec::new();
        for &(t, bytes) in &sends {
            let now = SimTime::from_nanos(t);
            let arr = contended.unicast(now, &topo, n(0), dst, bytes);
            let mut free = Fabric::new(timing);
            let free_arr = free.unicast(now, &topo, n(0), dst, bytes);
            assert!(arr >= free_arr, "contention made delivery faster");
            arrivals.push(arr);
        }
        for w in arrivals.windows(2) {
            assert!(w[0] <= w[1], "per-link FIFO violated: {w:?}");
        }
    }
}

/// Multicast arrivals are ordered by tree depth and each member's
/// arrival is no earlier than a direct unicast could make it.
#[test]
fn multicast_arrivals_follow_tree_depth() {
    let mut rng = DetRng::new(0xD00D);
    for _ in 0..48 {
        let kind = rng.next_below(6) as u8;
        let nodes = rng.next_range(2, 19) as usize;
        let root = n(rng.next_below(nodes as u64) as u32);
        let bytes = rng.next_range(1, 999) as u32;
        let topo = make_topology(kind, nodes);
        let tree = SpanningTree::build(topo.as_ref(), root);
        let members: Vec<NodeId> = (0..topo.len() as u32).map(n).collect();
        let mut f = Fabric::new(LinkTiming::paper_1994());
        let arrivals = f.multicast(SimTime::ZERO, &tree, bytes, &members);
        assert_eq!(arrivals.len(), members.len());
        for (m, at) in &arrivals {
            if *m == root {
                assert_eq!(*at, SimTime::ZERO);
            } else {
                let expect = SimTime::ZERO
                    + LinkTiming::paper_1994().serialization(bytes)
                    + sesame_sim::SimDur::from_nanos(200) * tree.depth(*m) as u64;
                assert_eq!(*at, expect, "member {m}");
            }
        }
    }
}

/// A fabric that is told the clock and forgets what the clock has passed
/// computes exactly what a fabric that remembers everything computes:
/// same arrival for every unicast and every multicast member, same
/// traffic counters — on every topology, under both contention models,
/// with mixed packet sizes (so FIFO floors bind), self-sends, and send
/// instants that run ahead of the clock.
#[test]
fn expiring_fabric_matches_one_that_never_forgets() {
    const SIZES: [u32; 4] = [16, 64, 125, 1_500];
    for case in 0..96u64 {
        let mut rng = DetRng::new(0xF100_0045 ^ case);
        let kind = (case % 6) as u8;
        let nodes = rng.next_range(2, 41) as usize;
        let topo = make_topology(kind, nodes);
        let contention = if case % 2 == 0 {
            ContentionModel::None
        } else {
            ContentionModel::StoreAndForward
        };
        let mut expiring = Fabric::new(LinkTiming::paper_1994());
        let mut keeping = Fabric::new(LinkTiming::paper_1994());
        expiring.set_contention(contention);
        keeping.set_contention(contention);
        // Most traffic stays among three nodes, so packets follow each
        // other down the same paths closely enough for floors to bind; the
        // rest roams the machine, and its one-off paths are what fills the
        // table and forces sweeps.
        let node = |rng: &mut DetRng| {
            let among = if rng.chance(0.6) { nodes.min(3) } else { nodes };
            n(rng.next_below(among as u64) as u32)
        };
        let routes: Vec<MulticastRoute> = (0..3)
            .map(|_| {
                let root = node(&mut rng);
                let members: Vec<NodeId> =
                    (0..rng.next_range(1, 6)).map(|_| node(&mut rng)).collect();
                MulticastRoute::build(topo.as_ref(), root, &members)
            })
            .collect();

        let mut now = SimTime::ZERO;
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for op in 0..1_500 {
            // The clock stalls, creeps or jumps; a send leaves at the clock
            // or up to a few microseconds after it.
            now += SimDur::from_nanos(match rng.next_below(4) {
                0 => 0,
                1 => rng.next_below(50),
                2 => rng.next_below(2_000),
                _ => rng.next_below(40_000),
            });
            let extra = match rng.next_below(3) {
                0 => 0,
                _ => rng.next_below(6_000),
            };
            let leaves = now + SimDur::from_nanos(extra);
            let bytes = SIZES[rng.next_below(4) as usize];
            expiring.advance(now);
            if rng.chance(0.2) {
                let route = &routes[rng.next_below(3) as usize];
                expiring.multicast_route_into(leaves, route, bytes, &mut got);
                keeping.multicast_route_into(leaves, route, bytes, &mut want);
                assert_eq!(got, want, "case {case} op {op}: multicast");
            } else {
                let src = node(&mut rng);
                let dst = if rng.chance(0.1) { src } else { node(&mut rng) };
                let a = expiring.unicast(leaves, topo.as_ref(), src, dst, bytes);
                let b = keeping.unicast(leaves, topo.as_ref(), src, dst, bytes);
                assert_eq!(a, b, "case {case} op {op}: {src} -> {dst}, {bytes} bytes");
            }
            assert_eq!(expiring.stats(), keeping.stats(), "case {case} op {op}");
        }
        if nodes >= 16 {
            // Not vacuous: the run used more paths than the expiring fabric
            // ended up with room for.
            assert!(
                expiring.floor_capacity() < keeping.floor_capacity(),
                "case {case}: {} vs {}",
                expiring.floor_capacity(),
                keeping.floor_capacity()
            );
        }
    }
}

/// The cut-through FIFO floor binds — a 16-byte packet sent 10 ns after a
/// 1500-byte one on the same path would arrive 12 µs earlier without it —
/// and keeps binding when the table is swept between the two sends.
#[test]
fn fifo_floor_binds_before_and_across_sweeps() {
    let topo = FullMesh::new(64);
    let timing = LinkTiming::paper_1994();
    let mut f = Fabric::new(timing);
    let mut fresh = (0..64u32).flat_map(|a| {
        (0..64u32)
            .filter(move |&b| b != a)
            .map(move |b| (n(a), n(b)))
    });
    let mut used = 0;
    // Round r: a big packet on a path of its own, then `r` small packets
    // on other fresh paths (all in flight, so a sweep keeps them), then a
    // small packet behind the big one. Rounds are 20 µs apart, so each
    // finds the table full of the previous rounds' expired floors: as `r`
    // sweeps its range, the table fills — and is swept — at every point
    // between the two sends.
    for r in 0..60u64 {
        let now = SimTime::from_nanos(20_000 * (r + 1));
        f.advance(now);
        let (src, dst) = fresh.next().expect("a fresh path");
        let big = f.unicast(now, &topo, src, dst, 1_500);
        assert_eq!(big, now + timing.transfer(1, 1_500));
        for _ in 0..r {
            let (a, b) = fresh.next().expect("a fresh path");
            f.unicast(now, &topo, a, b, 16);
        }
        used += 1 + r as usize;
        let later = now + SimDur::from_nanos(10);
        f.advance(later);
        let small = f.unicast(later, &topo, src, dst, 16);
        assert!(
            later + timing.transfer(1, 16) < big,
            "the floor is what holds it back"
        );
        assert_eq!(small, big, "round {r}: overtook the packet ahead of it");
    }
    // Sweeps did happen: far fewer floors are kept than paths were used.
    assert!(
        f.floor_capacity() * 4 < used,
        "capacity {} after {used} paths",
        f.floor_capacity()
    );
}

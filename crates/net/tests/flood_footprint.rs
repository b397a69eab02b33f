//! Counting-allocator bounds on the flood multicast: what a spanning tree
//! holds, and that a warmed fan-out down it touches the heap zero times.
//!
//! The shape is Fig. 8's largest point: 128 nodes on a 12 x 11 mesh, 132
//! positions. A machine caches one such tree per hand-off root, so the
//! bytes per position are what a figure point pays for its trees.

use sesame_alloc_probe::{allocations, live_bytes, CountingAlloc};
use sesame_net::{Fabric, LinkTiming, MeshTorus2d, NodeId, SpanningTree, Topology};
use sesame_sim::SimTime;

// Per-thread counters: sibling tests cannot leak into a measured window.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn a_spanning_tree_holds_at_most_twenty_bytes_per_position() {
    let topo = MeshTorus2d::with_nodes(128);
    assert_eq!(topo.positions(), 132);
    let before = live_bytes();
    let tree = SpanningTree::build(&topo, NodeId::new(57));
    let held = live_bytes() - before;
    assert_eq!(tree.len(), 132);
    assert!(
        held <= 20 * tree.len() + 64,
        "{held} B for {} positions ({:.1} B/position)",
        tree.len(),
        held as f64 / tree.len() as f64
    );
}

#[test]
fn a_warmed_flood_fan_out_allocates_nothing() {
    let topo = MeshTorus2d::with_nodes(128);
    let tree = SpanningTree::build(&topo, NodeId::new(57));
    let members: Vec<NodeId> = (0..128).map(NodeId::new).collect();
    let mut fabric = Fabric::new(LinkTiming::paper_1994());
    let mut out = Vec::new();
    // Warm-up: the fabric's arrival scratch and the caller's buffer reach
    // their sizes.
    fabric.multicast_into(SimTime::ZERO, &tree, 16, &members, &mut out);

    let before = allocations();
    for i in 1..=100 {
        let now = SimTime::from_nanos(1_000 * i);
        fabric.multicast_into(now, &tree, 16, &members, &mut out);
    }
    let made = allocations() - before;
    assert_eq!(made, 0, "100 warmed fan-outs made {made} allocations");
    assert_eq!(out.len(), 128);
    assert_eq!(fabric.stats().packets, 101);
}

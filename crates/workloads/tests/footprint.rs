//! Heap-footprint budgets for the sharded-mesh scenario, measured with the
//! per-thread byte-counting allocator: what a built machine holds per
//! node, what a whole run peaks at, and what a route costs to add. The
//! machine has more sharing groups than nodes, so any per-group heap
//! vector that creeps back in shows up here as bytes per node.
//!
//! Budgets are requested bytes (no allocator headers) and sit about 25 %
//! above the readings in `docs/performance.md` ("Bytes per node"), which
//! are these tests' own numbers (release build): 368 built, 561 at the
//! run's peak, 192 added by the run. The wider per-node records before
//! them (120-byte memories, 72-byte CPU meters, the checker-only
//! `slot_meta` array, a hashed `var → group` index) read 479 built and
//! 674 at the peak; the struct-of-vectors group state read 910 built;
//! scheduling every wave of a fan-out (and every node's start) up front,
//! instead of one car at a time, read 1285 at the peak; keeping a FIFO
//! floor for every path ever used, a doubling route buffer and a
//! four-slot history block per root read 813 at the peak and 339 added.
//! The built budget is below every built reading there on purpose, and
//! the run budgets below the grow-only stores'.

use sesame_alloc_probe::{allocations, live_bytes, peak_bytes, reset_peak, CountingAlloc};
use sesame_dsm::{MachineConfig, RunOptions};
use sesame_net::{MeshTorus2d, NodeId, RouteArena};
use sesame_sim::RunOutcome;
use sesame_workloads::bigmesh::{build_bigmesh_machine, run_bigmesh, BigMeshConfig};
use sesame_workloads::canonical::{build_canonical, CanonicalConfig};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const NODES: usize = 10_000;

fn mesh() -> BigMeshConfig {
    BigMeshConfig {
        nodes: NODES,
        ..BigMeshConfig::default()
    }
}

#[test]
fn built_machine_fits_its_bytes_per_node_budget() {
    let before = live_bytes();
    let machine = build_bigmesh_machine(mesh());
    let per_node = (live_bytes() - before) / NODES;
    assert!(machine.groups().len() > NODES, "more groups than nodes");
    assert!(
        per_node <= 460,
        "a built bigmesh machine holds {per_node} bytes per node, budget 460"
    );
}

#[test]
fn full_run_peak_heap_fits_its_budget() {
    let before = live_bytes();
    let built = {
        let machine = build_bigmesh_machine(mesh());
        assert_eq!(machine.node_count(), NODES);
        live_bytes() - before
    };
    reset_peak();
    let run = run_bigmesh(mesh());
    assert_eq!(run.outcome, RunOutcome::Drained);
    assert_eq!(run.visits, NODES as u64);
    let peak = peak_bytes() - before;
    assert!(
        peak / NODES <= 700,
        "a bigmesh run peaks at {} heap bytes per node, budget 700",
        peak / NODES
    );
    // What running adds to the built machine: programs, routes, the
    // retransmission histories, and whatever is in flight — not a record
    // of everything the run ever touched.
    let added = (peak - built) / NODES;
    assert!(
        added <= 240,
        "a bigmesh run adds {added} heap bytes per node to the built machine, budget 240"
    );
}

#[test]
fn flood_machine_holds_no_route_storage() {
    // The default configuration floods spanning trees; it must not pay
    // for routes it never builds — before the run or after it.
    assert!(!MachineConfig::default().pruned_multicast);
    let machine = build_canonical(CanonicalConfig::default());
    assert_eq!(machine.route_heap_bytes(), 0);
    let result = sesame_dsm::run(machine, RunOptions::default());
    assert_eq!(result.outcome, RunOutcome::Drained);
    assert_eq!(result.machine.route_heap_bytes(), 0);
}

#[test]
fn appending_routes_costs_only_new_arena_blocks() {
    let topo = MeshTorus2d::new(100, 100);
    let pair = |i: usize| {
        let me = i as u32;
        [
            NodeId::new(me),
            NodeId::new(me / 100 * 100 + (me + 1) % 100),
        ]
    };
    let mut arena = RouteArena::with_routes(2_000);
    for i in 0..1_000 {
        arena.get_or_build(i, &topo, NodeId::new(i as u32), &pair(i));
    }
    let before = allocations();
    for i in 1_000..2_000 {
        let route = arena.get_or_build(i, &topo, NodeId::new(i as u32), &pair(i));
        assert_eq!(route.member_count(), 2);
    }
    let calls = allocations() - before;
    assert!(
        calls < 32,
        "1000 more two-member routes made {calls} allocating calls"
    );
}

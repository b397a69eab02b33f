//! Heap-footprint budgets for the sharded-mesh scenario, measured with the
//! per-thread byte-counting allocator: what a built machine holds per
//! node, what a whole run peaks at, what its routes hold, and what a route
//! costs to add. The machine has more sharing groups than nodes, so any
//! per-group heap vector that creeps back in shows up here as bytes per
//! node.
//!
//! Budgets are requested bytes (no allocator headers) and sit about 25 %
//! above the readings in `docs/performance.md` ("Bytes per node"), which
//! are these tests' own numbers (release build): 203 built, 250 at the
//! run's peak, 47 added by the run, and 1 189 allocating calls for a whole
//! run. A 24-byte group head, a sorted 8-byte `(var, group)` pair per
//! variable and an 8-byte `(shape, root)` route handle per group read 222
//! built and 270 at the peak: the route budget and the head's size assert
//! catch it. A 16-byte program pointer per node, idle or not, and a 24-byte
//! box per running node holding an `Rc` of its row's constants read 234
//! built, 298 at the peak, 63 added and 11 096 calls: the added and call
//! budgets catch it.
//! Node memories that each carried the shared init image's 16-byte `Arc`
//! read 250 built and 314 at the peak; a 40-byte sharing-interface record
//! per node, an 80-byte node memory and 32-byte row programs 296 built,
//! 368 at the peak and 71 added; a 56-byte root record per group holding
//! its history for the whole run 356 built and 438 at the peak (the root
//! record's size assert and the drained-run test below catch it); a route
//! stored per group instead of once per shape 561 at the peak and 192
//! added; scheduling every wave of a fan-out up front 1285 at the peak.
//! The per-node size checks in `gwc.rs`, `machine.rs` and `bigmesh.rs`
//! catch a record that grows by less than these budgets' slack.

use sesame_alloc_probe::{allocations, live_bytes, peak_bytes, reset_peak, CountingAlloc};
use sesame_dsm::{MachineConfig, RunOptions};
use sesame_net::{Line, MeshTorus2d, NodeId, RouteArena};
use sesame_sim::RunOutcome;
use sesame_workloads::bigmesh::{build_bigmesh_machine, run_bigmesh, BigMeshConfig};
use sesame_workloads::canonical::{build_canonical, CanonicalConfig};
use sesame_workloads::pipeline::{run_pipeline, MutexMethod, PipelineConfig};
use sesame_workloads::scenario::{Outcome, Scenario};

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
        per_node <= 254,
        "a built bigmesh machine holds {per_node} bytes per node, budget 254"
    );
}

#[test]
fn a_machine_build_makes_a_bounded_number_of_allocations() {
    // Groups are copied into the flat table from one refilled spec and the
    // per-node arrays are allocated whole, so what remains is a few dozen
    // growing arrays. A fresh member list and variable list per group
    // made 20 375 allocating calls here.
    let before = allocations();
    let machine = build_bigmesh_machine(mesh());
    let calls = allocations() - before;
    assert!(machine.groups().len() > NODES, "more groups than nodes");
    assert!(
        calls <= 200,
        "building a {NODES}-node bigmesh machine made {calls} allocating calls, budget 200"
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
        peak / NODES <= 313,
        "a bigmesh run peaks at {} heap bytes per node, budget 313",
        peak / NODES
    );
    // What running adds to the built machine: programs, routes, the
    // retransmission histories, and whatever is in flight — not a record
    // of everything the run ever touched.
    let added = (peak - built) / NODES;
    assert!(
        added <= 59,
        "a bigmesh run adds {added} heap bytes per node to the built machine, budget 59"
    );
}

#[test]
fn a_run_makes_a_bounded_number_of_allocations() {
    // One program per row, not per node: what a whole run allocates
    // (building included) is a few per row plus the growing arrays, and
    // does not grow with the node count. A boxed program per node made
    // 11 096 allocating calls here.
    let before = allocations();
    let run = run_bigmesh(mesh());
    let calls = allocations() - before;
    assert_eq!(run.visits, NODES as u64);
    assert!(
        calls <= 1_500,
        "a {NODES}-node bigmesh run made {calls} allocating calls, budget 1 500"
    );
}

#[test]
fn a_run_stores_each_route_shape_once() {
    // The machine's routes are two shapes — the row and the hand-off pair
    // — shifted over the torus, so what grows with the machine is one
    // 4-byte shape index per group; the shapes' words, their records and
    // their index fit in a constant.
    let Ok(Outcome::BigMesh(run, result)) = Scenario::BigMesh(mesh()).run(None) else {
        panic!("a bigmesh scenario ends as a bigmesh outcome");
    };
    assert_eq!(run.visits, NODES as u64);
    let groups = result.machine.groups().len();
    let bytes = result.machine.route_heap_bytes();
    assert!(
        bytes <= 4 * groups + 16 * 1024,
        "{groups} groups' routes hold {bytes} heap bytes, budget 4 per group + 16 KiB"
    );
}

#[test]
fn a_drained_run_leaves_no_root_holding_sequencing_state() {
    // A root keeps a write only while a NACK can still name it, in a
    // record it holds only while its group has a write in flight. Every
    // write of a drained run was applied by every member, so no group
    // holds a record or a history entry, and what the pool made is what
    // one lap needed: a second lap leaves the same.
    let drained = |laps| {
        let cfg = BigMeshConfig {
            nodes: 2_500,
            laps,
            ..BigMeshConfig::default()
        };
        let Ok(Outcome::BigMesh(run, result)) = Scenario::BigMesh(cfg).run(None) else {
            panic!("a bigmesh scenario ends as a bigmesh outcome");
        };
        assert_eq!(run.visits, 2_500 * u64::from(laps));
        let gwc = result.machine.model().as_gwc().expect("bigmesh is GWC");
        let groups = result.machine.groups();
        let held: usize = groups.iter().map(|g| gwc.history_len(g.id())).sum();
        let (in_flight, pooled) = gwc.flight_records();
        assert_eq!(
            (held, in_flight),
            (0, 0),
            "laps {laps}: history entries, records held"
        );
        pooled
    };
    let (one, two) = (drained(1), drained(2));
    assert_eq!(one, two, "the second lap grew the record pool");
}

#[test]
fn flood_machine_holds_no_route_storage() {
    // The default configuration floods every position; it must not pay
    // for routes it never builds — before the run or after it.
    assert!(!MachineConfig::default().pruned_multicast);
    let machine = build_canonical(CanonicalConfig::default());
    assert_eq!(machine.route_heap_bytes(), 0);
    let result = sesame_dsm::run(machine, RunOptions::default());
    assert_eq!(result.outcome, RunOutcome::Drained);
    assert_eq!(result.machine.route_heap_bytes(), 0);
}

#[test]
fn figure8_gwc_point_peak_heap_fits_its_budget() {
    // Fig. 8's largest point (128 nodes, 1 024 visits) floods every write
    // over cut-through links: each member's arrival is its hop distance
    // from the root, so the machine holds no spanning tree at all. It
    // peaks at 628 324 B, of which 40 KB is the variable index: a word per
    // id up to the largest, and the ids stride 64 per node. One
    // 132-position tree per hand-off root read 995 644 B.
    let before = live_bytes();
    reset_peak();
    let run = run_pipeline(128, MutexMethod::OptimisticGwc, PipelineConfig::default());
    assert_eq!(run.result.outcome, RunOutcome::Stopped);
    let peak = peak_bytes() - before;
    assert!(
        peak <= 710_000,
        "a 128-node Fig. 8 GWC run peaks at {peak} heap bytes, budget 710 000"
    );
}

#[test]
fn appending_routes_costs_only_new_arena_blocks() {
    let pair = |i: usize| {
        let me = i as u32;
        [
            NodeId::new(me),
            NodeId::new(me / 100 * 100 + (me + 1) % 100),
        ]
    };
    // On a line no two roots share a route, so every pair is a shape of
    // its own and is walked and stored.
    let line = Line::new(10_000);
    let mut arena = RouteArena::with_routes(2_000);
    for i in 0..1_000 {
        arena.get_or_build(i, &line, NodeId::new(i as u32), &pair(i));
    }
    let before = allocations();
    for i in 1_000..2_000 {
        let route = arena.get_or_build(i, &line, NodeId::new(i as u32), &pair(i));
        assert_eq!(route.member_count(), 2);
    }
    let calls = allocations() - before;
    assert!(
        calls < 32,
        "1000 more two-member routes made {calls} allocating calls"
    );
    // On a torus the same pairs are one shape, {root, one step right}
    // (a row's last pair wraps to its first node, one step right too), so
    // after the first every route finds it and only fills in a handle the
    // arena already has room for.
    let torus = MeshTorus2d::new(100, 100);
    let mut arena = RouteArena::with_routes(2_000);
    arena.get_or_build(0, &torus, NodeId::new(0), &pair(0));
    let before = allocations();
    for i in 1..1_001 {
        let route = arena.get_or_build(i, &torus, NodeId::new(i as u32), &pair(i));
        assert_eq!(route.member_count(), 2);
    }
    let calls = allocations() - before;
    assert_eq!(
        calls, 0,
        "1000 more same-shape routes made {calls} allocating calls"
    );
}

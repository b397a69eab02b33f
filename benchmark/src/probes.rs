//! Layer probes: N timed calls into one layer's public API, at shapes
//! taken from the workload (node count, topology, multicast discipline,
//! group size) and from the queue depth the traced run just saw.
//!
//! A probe is shaped like the workload but is not the workload: it says
//! what one call costs in isolation, with warm caches and no neighbours.
//! It runs in the traced pass only, after the measured phase.

use std::hint::black_box;
use std::sync::Arc;

use sesame_dsm::{GroupSpec, GroupTable, LocalMemory, VarId, Word};
use sesame_net::{
    Fabric, FullMesh, LinkTiming, MeshTorus2d, MulticastRoute, NodeId, SpanningTree, Topology,
};
use sesame_sim::{DetRng, EventQueue, SimTime};
use sesame_verify::check_trace;
use sesame_workloads::contention::{run_contention, ContentionConfig};

use crate::sample::Rec;
use crate::workloads::Shape;

/// Calls per probe: enough to swamp the two clock reads, small enough
/// that all probes of a sample fit in about a second.
const CALLS: u64 = 200_000;

/// Times `f` inside a span and returns nanoseconds per `per` units.
fn timed(rec: &mut Rec, name: &str, layer: &str, per: u64, f: impl FnOnce()) -> f64 {
    let ((), s) = rec.span(name, layer, f);
    s * 1e9 / per.max(1) as f64
}

pub fn run(rec: &mut Rec, shape: Shape, seed: u64) {
    let depth = (rec.prof.queue_depth_max as usize).max(1);
    queue(rec, depth);
    net(rec, shape, seed);
    memory(rec);
    group_table(rec, shape);
    verify(rec, shape, seed);
}

/// `EventQueue` held at the workload's deepest backlog (the idiom of
/// `crates/bench/benches/queue.rs`).
fn queue(rec: &mut Rec, depth: usize) {
    let pending = depth as u64;
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth);
    for i in 0..pending {
        q.push(SimTime::from_nanos(i), i);
    }
    let ns = timed(rec, "probe.queue.churn", "sim", CALLS, || {
        for _ in 0..CALLS {
            let (t, payload) = q.pop().expect("backlog never drains");
            q.push(SimTime::from_nanos(t.as_nanos() + pending), payload);
        }
    });
    black_box(q.len());
    rec.set("sim.queue.churn_ns_per_op", ns);

    let rounds = (CALLS / pending).max(1);
    let ns = timed(
        rec,
        "probe.queue.filldrain",
        "sim",
        rounds * pending,
        || {
            for _ in 0..rounds {
                let mut q: EventQueue<u64> = EventQueue::with_capacity(depth);
                for i in 0..pending {
                    q.push(SimTime::from_nanos(i % 64), i);
                }
                let mut sum = 0u64;
                while let Some((_, p)) = q.pop() {
                    sum = sum.wrapping_add(p);
                }
                black_box(sum);
            }
        },
    );
    rec.set("sim.queue.filldrain_ns_per_op", ns);
}

fn net(rec: &mut Rec, shape: Shape, seed: u64) {
    let topo: Box<dyn Topology> = if shape.mesh {
        Box::new(MeshTorus2d::with_nodes(shape.nodes))
    } else {
        Box::new(FullMesh::new(shape.nodes))
    };
    let topo = topo.as_ref();
    let mut rng = DetRng::new(seed ^ 0x7072_6f62_6573);
    let n = shape.nodes as u64;
    // A bounded set of endpoint pairs: the fabric keeps per-path FIFO
    // state, as it does for a workload's recurring paths.
    let pairs: Vec<(NodeId, NodeId)> = (0..256)
        .map(|_| {
            (
                NodeId::new(rng.next_below(n) as u32),
                NodeId::new(rng.next_below(n) as u32),
            )
        })
        .collect();
    let mut fabric = Fabric::new(LinkTiming::paper_1994());
    if shape.loss > 0.0 {
        fabric.set_loss(shape.loss, seed);
    }
    let ns = timed(rec, "probe.fabric.unicast", "net", CALLS, || {
        let mut now = SimTime::ZERO;
        for i in 0..CALLS {
            let (src, dst) = pairs[(i % 256) as usize];
            now = now.max(black_box(fabric.unicast(now, topo, src, dst, 16)));
        }
    });
    rec.set("net.unicast_ns_per_call", ns);

    // The sharing group: `members` consecutive nodes from a seeded start,
    // rooted at the first (a bigmesh row, or the whole small machine).
    let first = if shape.members >= shape.nodes {
        0
    } else {
        let rows = (shape.nodes / shape.members) as u64;
        rng.next_below(rows) as usize * shape.members
    };
    let members: Vec<NodeId> = (first..first + shape.members)
        .map(|i| NodeId::new(i as u32))
        .collect();
    let root = members[0];

    let builds = if shape.nodes > 1_000 { 20 } else { 2_000 };
    let mut route = MulticastRoute::build(topo, root, &members);
    let ns = timed(rec, "probe.mroute.build", "net", builds, || {
        for _ in 0..builds {
            route = black_box(MulticastRoute::build(topo, root, &members));
        }
    });
    rec.set("net.mroute_build_us", ns / 1e3);
    let mut tree = SpanningTree::build(topo, root);
    let ns = timed(rec, "probe.tree.build", "net", builds, || {
        for _ in 0..builds {
            tree = black_box(SpanningTree::build(topo, root));
        }
    });
    rec.set("net.tree_build_us", ns / 1e3);

    let mut out = Vec::with_capacity(members.len());
    let ns = if shape.pruned {
        timed(
            rec,
            "probe.fabric.multicast_route_into",
            "net",
            CALLS,
            || {
                for i in 0..CALLS {
                    fabric.multicast_route_into(SimTime::from_nanos(i), &route, 16, &mut out);
                    black_box(out.len());
                }
            },
        )
    } else {
        // The flood path costs O(positions) per call; keep the probe's
        // total work level across machine sizes.
        let calls = (CALLS * 16 / shape.nodes as u64).clamp(1_000, CALLS);
        timed(rec, "probe.fabric.multicast_into", "net", calls, || {
            let mut lost = 0u64;
            for i in 0..calls {
                fabric.multicast_into(SimTime::from_nanos(i), &tree, 16, &members, &mut out);
                if shape.loss > 0.0 {
                    // The generic dispatch path rolls once per member.
                    for _ in &out {
                        lost += u64::from(fabric.roll_loss());
                    }
                }
                black_box(out.len());
            }
            black_box(lost);
        })
    };
    rec.set("net.mcast_ns_per_call", ns);
}

/// `LocalMemory` the two ways nodes use it: a few words held inline, and
/// reads falling through to a shared `set_base` image.
fn memory(rec: &mut Rec) {
    let image: Arc<[(VarId, Word)]> = (0..4096u32)
        .map(|v| (VarId::new(v), Word::from(v)))
        .collect();
    let mut inline = LocalMemory::new();
    let mut based = LocalMemory::new();
    based.set_base(image);
    let ns = timed(rec, "probe.memory", "dsm", 4 * CALLS, || {
        let mut acc: Word = 0;
        for i in 0..CALLS {
            let v = (i % 4) as u32;
            acc = acc.wrapping_add(inline.read(VarId::new(v)));
            inline.write(VarId::new(v), acc);
            let b = ((i * 37) % 4096) as u32;
            acc = acc.wrapping_add(based.read(VarId::new(b)));
            based.write(VarId::new(v), acc);
        }
        black_box(acc);
    });
    rec.set("dsm.memory.ns_per_op", ns);
}

/// `GroupTable::new` at the workload's group population: one mutex group
/// of `members` per row plus a two-member hand-off group per node on the
/// pruned mesh, one mutex group otherwise.
fn group_table(rec: &mut Rec, shape: Shape) {
    fn specs(shape: Shape) -> Vec<GroupSpec> {
        let ids = |a: usize, b: usize| (a..b).map(|i| NodeId::new(i as u32)).collect::<Vec<_>>();
        if !shape.pruned {
            return vec![GroupSpec {
                root: NodeId::new(0),
                members: ids(0, shape.members),
                vars: vec![VarId::new(0), VarId::new(1)],
                mutex_lock: Some(VarId::new(0)),
            }];
        }
        let rows = shape.nodes / shape.members;
        let flag_off = 2 * rows as u32;
        let mut specs = Vec::with_capacity(rows + shape.nodes);
        for r in 0..rows {
            let start = r * shape.members;
            let lock = VarId::new(2 * r as u32);
            specs.push(GroupSpec {
                root: NodeId::new(start as u32),
                members: ids(start, start + shape.members),
                vars: vec![lock, VarId::new(2 * r as u32 + 1)],
                mutex_lock: Some(lock),
            });
            for i in 0..shape.members {
                let me = start + i;
                let next = start + (i + 1) % shape.members;
                specs.push(GroupSpec {
                    root: NodeId::new(me as u32),
                    members: vec![NodeId::new(me as u32), NodeId::new(next as u32)],
                    vars: vec![VarId::new(flag_off + me as u32)],
                    mutex_lock: None,
                });
            }
        }
        specs
    }
    let builds: u64 = if shape.pruned { 3 } else { 2_000 };
    let inputs = vec![specs(shape); builds as usize];
    let ns = timed(rec, "probe.group_table.build", "dsm", builds, || {
        for input in inputs {
            black_box(GroupTable::new(input).expect("valid probe groups").len());
        }
    });
    rec.set("dsm.group_table.build_ms", ns / 1e6);
}

/// `check_trace` over a trace recorded from a short contention run.
fn verify(rec: &mut Rec, shape: Shape, seed: u64) {
    let run = run_contention(ContentionConfig {
        contenders: shape.contenders,
        rounds: 200,
        seed,
        tracing: true,
        ..ContentionConfig::default()
    });
    let entries = run.result.trace.entries();
    let (violations, s) = rec.span("probe.check_trace", "verify", || check_trace(entries).len());
    rec.check(violations == 0, || {
        format!("offline verifier reported {violations} violations on a clean trace")
    });
    if s > 0.0 {
        rec.set("verify.offline_records_per_s", entries.len() as f64 / s);
    }
}

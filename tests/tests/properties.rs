//! Randomized tests of the core protocol invariants, over randomized
//! workloads, topologies, timings, and failure injection:
//!
//! * **GWC total ordering** — every group member observes the same
//!   sequence of applied writes, whatever the writers, timings, and
//!   (injected) packet loss;
//! * **mutual exclusion safety** — optimistic locking with arbitrary
//!   history parameters never lets critical sections overlap and never
//!   loses a counter increment;
//! * **pipeline liveness and mutex-method ordering** under random sizes
//!   and computation grain;
//! * **task conservation** in the bounded queue under random capacities
//!   and both memory models.
//!
//! Random cases are drawn from the kernel's own deterministic [`DetRng`]
//! so the suite needs no external property-testing crate and replays
//! identically on every run.

#![allow(clippy::type_complexity)]

use std::cell::RefCell;
use std::rc::Rc;

use sesame_core::builder::ModelChoice;
use sesame_core::OptimisticConfig;
use sesame_dsm::{
    run, AppEvent, GroupSpec, GroupTable, GwcModel, Machine, MachineConfig, NodeApi, Program,
    RunOptions, VarId, Word,
};
use sesame_net::{LinkTiming, MeshTorus2d, NodeId, Ring, Topology};
use sesame_sim::{DetRng, SimDur, SimTime};
use sesame_workloads::contention::{run_contention, ContentionConfig};
use sesame_workloads::pipeline::{run_pipeline, MutexMethod, PipelineConfig};
use sesame_workloads::task_queue::{run_task_queue, TaskQueueConfig};

fn n(id: u32) -> NodeId {
    NodeId::new(id)
}

/// One randomized write: (writer, delay ns, var, value).
#[derive(Debug, Clone)]
struct WritePlan {
    writer: u32,
    delay_ns: u64,
    var: u32,
    value: Word,
}

fn random_plan(rng: &mut DetRng, nodes: u32, vars: u32) -> Vec<WritePlan> {
    let count = rng.next_range(1, 24) as usize;
    (0..count)
        .map(|_| WritePlan {
            writer: rng.next_below(nodes as u64) as u32,
            delay_ns: rng.next_below(50_000),
            var: rng.next_below(vars as u64) as u32,
            value: rng.next_range(0, 2000) as Word - 1000,
        })
        .collect()
}

/// Runs a randomized eagersharing workload and returns each node's
/// observed (var, value) sequence plus final memories.
fn run_gwc_order_experiment(
    nodes: u32,
    vars: u32,
    plan: &[WritePlan],
    loss: f64,
    seed: u64,
) -> (Vec<Vec<(u32, Word)>>, Vec<Vec<Word>>) {
    let observed: Rc<RefCell<Vec<Vec<(u32, Word)>>>> =
        Rc::new(RefCell::new(vec![Vec::new(); nodes as usize]));
    let groups = GroupTable::new(vec![GroupSpec {
        root: n(0),
        members: (0..nodes).map(n).collect(),
        vars: (0..vars).map(VarId::new).collect(),
        mutex_lock: None,
    }])
    .unwrap();
    let mut programs: Vec<Box<dyn Program>> = Vec::new();
    for node in 0..nodes {
        let mut my_writes: Vec<(u64, u32, Word)> = plan
            .iter()
            .filter(|w| w.writer == node)
            .map(|w| (w.delay_ns, w.var, w.value))
            .collect();
        // Flush writes so loss recovery always has follow-up traffic; they
        // are value-tagged so the checker can ignore them.
        if node == 0 {
            for i in 0..12 {
                my_writes.push((60_000 + i * 3_000, 0, FLUSH_BASE + i as Word));
            }
        }
        let obs = observed.clone();
        programs.push(Box::new(
            move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
                AppEvent::Started => {
                    for (i, &(delay, _, _)) in my_writes.iter().enumerate() {
                        api.set_timer(SimDur::from_nanos(delay), i as u64);
                    }
                }
                AppEvent::TimerFired { tag } => {
                    let (_, var, value) = my_writes[tag as usize];
                    api.write(VarId::new(var), value);
                }
                AppEvent::Updated { var, value, .. } => {
                    obs.borrow_mut()[api.id().index()].push((var.get(), value));
                }
                _ => {}
            },
        ));
    }
    let model = GwcModel::new(&groups, nodes as usize);
    let mut machine = Machine::new(
        Box::new(MeshTorus2d::with_nodes(nodes as usize)),
        LinkTiming::paper_1994(),
        groups,
        programs,
        model,
        MachineConfig::default(),
    );
    if loss > 0.0 {
        machine.fabric_mut().set_loss(loss, seed);
    }
    let result = run(machine, RunOptions::default());
    let mems = (0..nodes)
        .map(|node| {
            (0..vars)
                .map(|v| result.machine.mem(n(node)).read(VarId::new(v)))
                .collect()
        })
        .collect();
    let observed = observed.borrow().clone();
    (observed, mems)
}

const FLUSH_BASE: Word = 1_000_000;

/// GWC total ordering: all members observe identical write sequences.
#[test]
fn gwc_total_order_holds() {
    let mut rng = DetRng::new(0x670C);
    for _ in 0..24 {
        let nodes = rng.next_range(2, 7) as u32;
        let vars = rng.next_range(1, 3) as u32;
        let plan = random_plan(&mut rng, nodes, vars);
        let (observed, mems) = run_gwc_order_experiment(nodes, vars, &plan, 0.0, 0);
        let reference = &observed[0];
        assert_eq!(reference.len(), plan.len() + 12, "all writes observed");
        for (node, seq) in observed.iter().enumerate().skip(1) {
            assert_eq!(seq, reference, "node {node} diverged");
        }
        for (node, mem) in mems.iter().enumerate().skip(1) {
            assert_eq!(mem, &mems[0], "memory {node} diverged");
        }
    }
}

/// The same invariant under packet loss: nack-based retransmission
/// restores total order for every write that precedes the flush tail.
#[test]
fn gwc_total_order_survives_loss() {
    let mut rng = DetRng::new(0x1055);
    for _ in 0..24 {
        let nodes = rng.next_range(2, 5) as u32;
        let vars = 2;
        let plan = random_plan(&mut rng, nodes, vars);
        let loss = 0.05 + rng.next_f64() * 0.25;
        let seed = rng.next_below(1000);
        let (observed, _) = run_gwc_order_experiment(nodes, vars, &plan, loss, seed);
        // Sequences agree on the common prefix, and every node saw at
        // least all non-flush writes.
        let min_len = observed.iter().map(Vec::len).min().unwrap();
        assert!(
            min_len >= plan.len(),
            "a node missed real writes: saw {min_len} of {}",
            plan.len()
        );
        for node in 1..nodes as usize {
            assert_eq!(
                &observed[node][..min_len],
                &observed[0][..min_len],
                "node {node} diverged under loss"
            );
        }
    }
}

/// Optimistic mutual exclusion is safe for arbitrary history
/// parameters, contention levels, and timing grain. The contention
/// driver asserts internally that every section completed and the
/// shared counter equals the section count.
#[test]
fn optimistic_mutex_is_always_safe() {
    let mut rng = DetRng::new(0x5AFE);
    for _ in 0..24 {
        let run = run_contention(ContentionConfig {
            contenders: rng.next_range(2, 6) as u32,
            rounds: rng.next_range(3, 14) as u32,
            section: SimDur::from_nanos(rng.next_range(500, 10_000)),
            mean_think: SimDur::from_us(rng.next_range(1, 99)),
            mutex: OptimisticConfig {
                alpha: 0.01 + rng.next_f64() * 0.89,
                threshold: 0.05 + rng.next_f64() * 0.90,
                optimistic: true,
            },
            seed: rng.next_below(10_000),
            ..ContentionConfig::default()
        });
        assert_eq!(run.counter, run.sections as Word);
        assert_eq!(
            run.stats.completions,
            run.stats.optimistic_attempts + run.stats.regular_attempts
        );
    }
}

/// The pipeline completes under every mutex method at random scales,
/// never rolls back, and preserves the paper's method ordering.
#[test]
fn pipeline_liveness_and_ordering() {
    let mut rng = DetRng::new(0x9199);
    for _ in 0..8 {
        let nodes = rng.next_range(2, 9) as usize;
        let cfg = PipelineConfig {
            total_visits: rng.next_range(16, 79) as u32,
            local_calc: SimDur::from_us(rng.next_range(2, 19)),
            ..PipelineConfig::default()
        };
        let opt = run_pipeline(nodes, MutexMethod::OptimisticGwc, cfg);
        let reg = run_pipeline(nodes, MutexMethod::RegularGwc, cfg);
        let ent = run_pipeline(nodes, MutexMethod::Entry, cfg);
        assert_eq!(opt.rollbacks, 0);
        let bound = cfg.ideal_power();
        for (label, p) in [("opt", opt.power), ("reg", reg.power), ("ent", ent.power)] {
            assert!(
                p > 0.0 && p <= bound + 1e-9,
                "{label} power {p} out of range"
            );
        }
        assert!(
            opt.power + 1e-9 >= reg.power,
            "optimism must never lose: {} vs {}",
            opt.power,
            reg.power
        );
        assert!(
            reg.power > ent.power,
            "GWC must beat entry: {} vs {}",
            reg.power,
            ent.power
        );
    }
}

/// The bounded task queue conserves tasks for random capacities and
/// both memory models.
#[test]
fn task_queue_conserves_tasks() {
    let mut rng = DetRng::new(0x7A5C);
    for _ in 0..8 {
        let nodes = rng.next_range(2, 7) as usize;
        let cfg = TaskQueueConfig {
            total_tasks: rng.next_range(8, 59) as u32,
            capacity: rng.next_range(2, 31) as u32,
            exec_time: SimDur::from_us(rng.next_range(50, 399)),
            ..TaskQueueConfig::default()
        };
        // Conservation is asserted inside run_task_queue.
        let gwc = run_task_queue(nodes, ModelChoice::Gwc, cfg);
        assert!(gwc.speedup <= nodes as f64 + 1e-9);
        let entry = run_task_queue(nodes, ModelChoice::Entry, cfg);
        assert!(entry.speedup <= nodes as f64 + 1e-9);
    }
}

/// Torus routing invariants: path length equals hop count, hops are
/// symmetric, and the spanning tree reaches everything at shortest
/// depth from any root.
#[test]
fn torus_routing_invariants() {
    let mut rng = DetRng::new(0x7040);
    for _ in 0..32 {
        let nodes = rng.next_range(2, 39) as usize;
        let topo = MeshTorus2d::with_nodes(nodes);
        let a = n(rng.next_below(nodes as u64) as u32);
        let b = n(rng.next_below(nodes as u64) as u32);
        assert_eq!(topo.route(a, b).len() as u32, topo.hops(a, b));
        assert_eq!(topo.hops(a, b), topo.hops(b, a));
        let root = n(rng.next_below(nodes as u64) as u32);
        let tree = sesame_net::SpanningTree::build(&topo, root);
        for m in 0..nodes as u32 {
            assert_eq!(tree.depth(n(m)), topo.hops(root, n(m)));
        }
    }
}

/// Ring routes are valid end to end and never longer than half the ring.
#[test]
fn ring_routes_are_valid() {
    let mut rng = DetRng::new(0x0416);
    for _ in 0..32 {
        let nodes = rng.next_range(2, 29) as usize;
        let topo = Ring::new(nodes);
        let a = n(rng.next_below(nodes as u64) as u32);
        let b = n(rng.next_below(nodes as u64) as u32);
        let links = topo.route(a, b);
        let mut at = a;
        for l in &links {
            assert_eq!(l.from_node(), at);
            at = l.to_node();
        }
        assert_eq!(at, b);
        assert!(links.len() as u32 <= nodes as u32 / 2);
    }
}

/// Determinism meta-property: any fixed contention configuration produces
/// identical outcomes across repeated runs (one pair suffices per
/// configuration, exercised with three seeds).
#[test]
fn contention_runs_are_deterministic_across_seeds() {
    for seed in [1u64, 99, 12345] {
        let cfg = ContentionConfig {
            contenders: 5,
            rounds: 10,
            seed,
            ..ContentionConfig::default()
        };
        let a = run_contention(cfg);
        let b = run_contention(cfg);
        assert_eq!(a.result.end, b.result.end);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.mean_section_latency, b.mean_section_latency);
    }
}

/// The simulated end time never precedes the last observed event.
#[test]
fn makespan_is_monotone_in_workload_size() {
    let mut last = SimTime::ZERO;
    for rounds in [2u32, 6, 12] {
        let cfg = ContentionConfig {
            contenders: 3,
            rounds,
            ..ContentionConfig::default()
        };
        let r = run_contention(cfg);
        assert!(r.result.end > last, "more rounds must take longer");
        last = r.result.end;
    }
}

//! Reference-model suite for the multicast fan-out. The default flood
//! path — every member's copy a separate `Packet` event, flooded to every
//! position — is the reference; the pruned machine
//! ([`MachineConfig::pruned_multicast`]) must be observably the same
//! machine whichever way its fan-outs are emitted: as static waves where
//! the fabric's timing allows it, or member by member where loss or a
//! zero hop latency rules that out. Same loss seed, same trace,
//! same memories; only the traffic accounting (pruned routes bill fewer
//! edges) and, on the wave path, the event count may differ.

use sesame_dsm::{
    lockval, run, AppEvent, GroupSpec, GroupTable, GwcModel, Machine, MachineConfig, NodeApi,
    Program, RunOptions, RunResult, VarId,
};
use sesame_net::{Fabric, LinkTiming, MeshTorus2d, NodeId, Topology};
use sesame_sim::{RunOutcome, SimDur, TraceDetail, TraceKind};

fn n(id: u32) -> NodeId {
    NodeId::new(id)
}
fn v(id: u32) -> VarId {
    VarId::new(id)
}

const LOCK: u32 = 0;
const COUNTER: u32 = 1;
const DATA: u32 = 2;
const ROUNDS: u32 = 3;

/// A mutex contender: acquires, bumps the shared counter, writes a data
/// word, releases, thinks for a node-staggered delay, and goes again.
fn contender(rounds: u32, think_ns: u64) -> Box<dyn Program> {
    let mut left = rounds;
    Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
        AppEvent::Started => api.acquire(v(LOCK)),
        AppEvent::Acquired { lock } if lock == v(LOCK) => {
            let c = api.read(v(COUNTER));
            api.write(v(COUNTER), c + 1);
            api.write(v(DATA), i64::from(api.id().get()) * 1000 + i64::from(left));
            api.release(v(LOCK));
            left -= 1;
            if left > 0 {
                api.set_timer(
                    SimDur::from_nanos(think_ns + 13 * u64::from(api.id().get())),
                    0,
                );
            }
        }
        AppEvent::TimerFired { .. } => api.acquire(v(LOCK)),
        _ => {}
    })
}

/// A 4x4 mesh torus where every node is a member of one mutex group and
/// a handful of nodes contend: multi-wave pruned multicasts on every
/// sequenced write (grants, counter updates, data words, frees).
fn build(cfg: MachineConfig, timing: LinkTiming) -> Machine<GwcModel> {
    let topo: Box<dyn Topology> = Box::new(MeshTorus2d::new(4, 4));
    let nodes = topo.len();
    let groups = GroupTable::new(vec![GroupSpec {
        root: n(0),
        members: (0..nodes as u32).map(n).collect(),
        vars: vec![v(LOCK), v(COUNTER), v(DATA)],
        mutex_lock: Some(v(LOCK)),
    }])
    .unwrap();
    let model = GwcModel::new(&groups, nodes);
    let mut programs: Vec<Box<dyn Program>> = Vec::new();
    for i in 0..nodes as u32 {
        if i % 5 == 1 {
            programs.push(contender(ROUNDS, 400 + 7 * u64::from(i)));
        } else {
            programs.push(Box::new(|_: AppEvent, _: &mut NodeApi<'_>| {}));
        }
    }
    let mut machine = Machine::new(topo, timing, groups, programs, model, cfg);
    machine.init_var(v(LOCK), lockval::FREE);
    machine
}

const PAPER: LinkTiming = LinkTiming::paper_1994();

/// One traced run of the scenario: flood or pruned multicast, over
/// `timing`, after `fabric` has set loss up.
fn run_with(
    pruned_multicast: bool,
    timing: LinkTiming,
    fabric: impl FnOnce(&mut Fabric),
) -> RunResult<GwcModel> {
    let cfg = MachineConfig {
        pruned_multicast,
        ..MachineConfig::default()
    };
    let mut machine = build(cfg, timing);
    fabric(machine.fabric_mut());
    let opts = RunOptions {
        tracing: true,
        ..RunOptions::default()
    };
    run(machine, opts)
}

/// Asserts two runs are observably identical: trace (byte for byte),
/// makespan, every node's memory, and the packets and bytes put on the
/// fabric. Event count and edge accounting are the caller's to compare.
fn assert_same_behaviour(a: &RunResult<GwcModel>, b: &RunResult<GwcModel>, what: &str) {
    assert_eq!(a.end, b.end, "{what}: makespan");
    let (fa, fb) = (a.machine.fabric_stats(), b.machine.fabric_stats());
    assert_eq!(fa.packets, fb.packets, "{what}: packets");
    assert_eq!(fa.bytes, fb.bytes, "{what}: bytes");
    let entries_a = a.trace.entries();
    let entries_b = b.trace.entries();
    assert_eq!(entries_a.len(), entries_b.len(), "{what}: trace length");
    for (i, (ea, eb)) in entries_a.iter().zip(entries_b).enumerate() {
        assert_eq!(ea, eb, "{what}: trace entry {i}");
    }
    for node in 0..a.machine.node_count() as u32 {
        let ma: Vec<_> = a.machine.mem(n(node)).iter().collect();
        let mb: Vec<_> = b.machine.mem(n(node)).iter().collect();
        assert_eq!(ma, mb, "{what}: node {node} memory");
    }
}

/// Loss-free cut-through timing, where the pruned machine rides static
/// waves: same behaviour as the flood, in fewer events over fewer edges.
#[test]
fn wave_path_matches_the_flood_reference() {
    let waves = run_with(true, PAPER, |_| {});
    let flood = run_with(false, PAPER, |_| {});
    assert!(
        flood.trace.count_of(TraceKind::PktMcast) > 0,
        "scenario produced no multicasts"
    );
    assert_same_behaviour(&waves, &flood, "waves");
    // Per-member emission costs exactly the flood's events, so a
    // strictly smaller count is the evidence that `McastWave` events
    // were scheduled — without them this test proves nothing.
    assert!(waves.events < flood.events, "no wave ran");
    let (fw, ff) = (waves.machine.fabric_stats(), flood.machine.fabric_stats());
    assert!(fw.link_traversals <= ff.link_traversals);
}

/// Two plain sharing groups on the 4x4 torus, picked so that fan-outs of
/// both land on the same nodes in the same nanosecond: members 2 and 5 sit
/// two hops from root 0 (group A, which also reaches node 1 at one hop)
/// and two hops from root 10 (group B, which has nobody at one hop).
/// Nodes 2 and 5 write one variable of each group in the same handler,
/// round after round; both roots are two hops away, so they sequence and
/// multicast at the same instant, and A's depth-2 wave ties with B's.
fn build_tied_groups(cfg: MachineConfig) -> Machine<GwcModel> {
    const VAR_A: u32 = 0;
    const VAR_B: u32 = 1;
    let topo: Box<dyn Topology> = Box::new(MeshTorus2d::new(4, 4));
    for member in [2, 5] {
        assert_eq!(topo.hops(n(0), n(member)), 2, "premise: root A to {member}");
        assert_eq!(
            topo.hops(n(10), n(member)),
            2,
            "premise: root B to {member}"
        );
    }
    assert_eq!(topo.hops(n(0), n(1)), 1, "premise: A has a depth-1 member");
    let nodes = topo.len();
    let groups = GroupTable::new(vec![
        GroupSpec {
            root: n(0),
            members: vec![n(0), n(1), n(2), n(5)],
            vars: vec![v(VAR_A)],
            mutex_lock: None,
        },
        GroupSpec {
            root: n(10),
            members: vec![n(10), n(2), n(5)],
            vars: vec![v(VAR_B)],
            mutex_lock: None,
        },
    ])
    .unwrap();
    let model = GwcModel::new(&groups, nodes);
    let writer = |rounds: u32| -> Box<dyn Program> {
        let mut left = rounds;
        Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| {
            if matches!(ev, AppEvent::Started | AppEvent::TimerFired { .. }) && left > 0 {
                let stamp = i64::from(api.id().get()) * 100 + i64::from(left);
                api.write(v(VAR_A), stamp);
                api.write(v(VAR_B), -stamp);
                left -= 1;
                // The same period on both writers: every round collides.
                api.set_timer(SimDur::from_nanos(900), 0);
            }
        })
    };
    let programs = (0..nodes as u32)
        .map(|i| match i {
            2 | 5 => writer(4),
            _ => Box::new(|_: AppEvent, _: &mut NodeApi<'_>| {}) as Box<dyn Program>,
        })
        .collect();
    Machine::new(topo, PAPER, groups, programs, model, cfg)
}

/// Waves of different fan-outs arriving at one node in one nanosecond
/// must be delivered in the order the flood delivers its per-member
/// copies — the order the multicasts were sent in. A wave scheduled only
/// when the one before it is dispatched keeps that order because it takes
/// the queue place reserved at the send instant; here group B's depth-2
/// wave is scheduled (from its depth-0 wave) *before* group A's (from its
/// depth-1 wave) although A multicast first, so any other numbering
/// flips them.
#[test]
fn same_instant_waves_of_two_groups_match_the_flood_reference() {
    let run_tied = |pruned_multicast: bool| {
        let cfg = MachineConfig {
            pruned_multicast,
            ..MachineConfig::default()
        };
        let opts = RunOptions {
            tracing: true,
            ..RunOptions::default()
        };
        run(build_tied_groups(cfg), opts)
    };
    let (waves, flood) = (run_tied(true), run_tied(false));
    assert_eq!(flood.outcome, RunOutcome::Drained);
    // The premise, read off the reference: some node applies sequenced
    // writes of both groups in one nanosecond.
    let mut applies: Vec<(u64, usize, u32)> = Vec::new();
    for e in flood.trace.entries() {
        if let TraceDetail::Apply { group, .. } = e.detail {
            applies.push((e.time.as_nanos(), e.actor, group));
        }
    }
    let ties = applies
        .iter()
        .filter(|&&(t, node, g)| applies.contains(&(t, node, 1 - g)))
        .count();
    assert!(ties >= 8, "only {ties} same-instant cross-group deliveries");
    assert_same_behaviour(&waves, &flood, "tied groups");
    assert!(waves.events < flood.events, "no wave ran");
}

/// Under loss both machines emit member by member and roll the loss die
/// in declared member order, so they lose the same copies and recover the
/// same way, event for event.
#[test]
fn pruned_matches_the_flood_reference_under_loss() {
    for (loss_seed, p) in [(42u64, 0.2f64), (7, 0.35), (3, 0.1)] {
        let lossy = |f: &mut Fabric| f.set_loss(p, loss_seed);
        let pruned = run_with(true, PAPER, lossy);
        let flood = run_with(false, PAPER, lossy);
        let what = format!("loss seed {loss_seed} loss {p}");
        assert_same_behaviour(&pruned, &flood, &what);
        assert_eq!(pruned.events, flood.events, "{what}: event count");
        let (fp, ff) = (pruned.machine.fabric_stats(), flood.machine.fabric_stats());
        assert!(fp.losses > 0, "{what}: nothing was dropped");
        assert_eq!(fp.losses, ff.losses, "{what}: losses");
        // Pruned routes bill member-path edges only — never more than the
        // flood (and no fewer here, where every node is a member).
        assert!(fp.link_traversals <= ff.link_traversals, "{what}");
        assert!(fp.ser_ns <= ff.ser_ns, "{what}");
    }
}

/// A pruned run that must drain with every critical section counted.
fn assert_completed(r: &RunResult<GwcModel>, what: &str) {
    assert_eq!(r.outcome, RunOutcome::Drained, "{what}");
    let contenders = (0..r.machine.node_count() as u32).filter(|i| i % 5 == 1);
    let sections = i64::from(ROUNDS) * contenders.count() as i64;
    for node in 0..r.machine.node_count() as u32 {
        let counter = r.machine.mem(n(node)).read(v(COUNTER));
        assert_eq!(counter, sections, "{what}: node {node}");
    }
}

/// With a zero hop latency all depths land at one instant, so depth waves
/// would reorder members; the pruned machine must emit per member, which
/// makes it the flood event for event.
#[test]
fn zero_hop_latency_pruned_machine_leaves_the_wave_path() {
    let timing = LinkTiming {
        hop_latency: SimDur::ZERO,
        ..PAPER
    };
    let a = run_with(true, timing, |_| {});
    assert_completed(&a, "zero hop latency");
    let flood = run_with(false, timing, |_| {});
    assert_same_behaviour(&a, &flood, "zero hop latency vs flood");
    assert_eq!(a.events, flood.events, "a wave event was scheduled");
    let b = run_with(true, timing, |_| {});
    assert_same_behaviour(&a, &b, "zero hop latency, run twice");
    assert_eq!(a.events, b.events);
}

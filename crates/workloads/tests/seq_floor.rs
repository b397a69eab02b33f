//! The producer's side of the applied-floor contract
//! (`TraceObserver::on_seq_floor`): whatever the machine runs — every GWC
//! scenario, a lossy fabric with its NACKs, retransmissions and watchdog
//! timers, optimistic sections that suspend insharing, a schedule no clock
//! would produce — a group's floor `s` arrives only after every member's
//! `gwc-apply` of the group's writes 1 through `s`, floors only rise, and
//! no apply of a write at or below the floor follows it. And the floor is
//! the machine's own, not the observer's: an untraced machine keeps the
//! same floors, retires its roots' histories through them the same way,
//! and outputs the same.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use sesame_core::builder::{ModelChoice, ModelInstance};
use sesame_dsm::{run, run_observed, DsmEvent, GroupTable, MachineMsg, RunOptions, RunResult};
use sesame_net::NodeId;
use sesame_sim::{
    ApplyMode, DetRng, PendingEvent, RunOutcome, SimDur, SimTime, Simulation, TraceDetail,
    TraceEntry, TraceKind, TraceObserver,
};
use sesame_workloads::bigmesh::BigMeshConfig;
use sesame_workloads::canonical::{build_canonical, CanonicalConfig};
use sesame_workloads::contention::ContentionConfig;
use sesame_workloads::pipeline::{MutexMethod, PipelineConfig};
use sesame_workloads::scenario::Scenario;
use sesame_workloads::task_queue::TaskQueueConfig;

/// Fails on a floor that rises past an apply not yet made, and on an
/// apply at or below its group's floor.
#[derive(Default)]
struct FloorContract {
    /// Members that applied each `(group, seq)` so far.
    applies: HashMap<(u32, u64), u32>,
    /// The last floor each group was told.
    floors: BTreeMap<u32, u64>,
    /// For every write a floor covered: how many members had applied it
    /// when the floor arrived, to hold against the group's member count.
    covered: Vec<(u32, u64, u32)>,
    /// Applies made with the interrupt that suspends insharing.
    interrupts: u32,
}

impl TraceObserver for FloorContract {
    fn on_record(&mut self, entry: &TraceEntry) {
        if let (
            TraceKind::GwcApply,
            &TraceDetail::Apply {
                group, seq, mode, ..
            },
        ) = (entry.kind, &entry.detail)
        {
            let floor = self.floors.get(&group).copied().unwrap_or(0);
            assert!(
                seq > floor,
                "node{} applied group {group} seq={seq} after the floor {floor}",
                entry.actor
            );
            *self.applies.entry((group, seq)).or_default() += 1;
            self.interrupts += u32::from(mode == ApplyMode::Interrupt);
        }
    }

    fn on_seq_floor(&mut self, group: u32, floor: u64) {
        let last = self.floors.insert(group, floor).unwrap_or(0);
        assert!(floor > last, "group {group}: floor {floor} after {last}");
        for seq in last + 1..=floor {
            let applied = self.applies.remove(&(group, seq)).unwrap_or(0);
            self.covered.push((group, seq, applied));
        }
    }
}

impl FloorContract {
    /// Every write a floor covered had been applied by every member of
    /// its group; returns how many writes the floors covered.
    fn check(&self, groups: &GroupTable, label: &str) -> usize {
        let members: HashMap<u32, u32> = groups
            .iter()
            .map(|g| (g.id().get(), g.members().len() as u32))
            .collect();
        for &(group, seq, applied) in &self.covered {
            assert_eq!(
                applied, members[&group],
                "{label}: group {group}'s floor passed seq={seq} after {applied} applies"
            );
        }
        self.covered.len()
    }
}

fn contract() -> Rc<RefCell<FloorContract>> {
    Rc::new(RefCell::new(FloorContract::default()))
}

#[test]
fn every_gwc_scenario_publishes_floors_only_behind_every_members_apply() {
    let smoke = |name| Scenario::parse(name).expect("a listed name");
    let Scenario::Contention(contention) = smoke("contention") else {
        unreachable!()
    };
    let Scenario::TaskQueue { cfg: tasks, .. } = smoke("task-queue") else {
        unreachable!()
    };
    let Scenario::Pipeline { cfg: ring, .. } = smoke("pipeline") else {
        unreachable!()
    };
    let mut scenarios = vec![
        smoke("three-cpu"),
        Scenario::Contention(ContentionConfig {
            contenders: 8,
            rounds: 60,
            ..contention
        }),
        Scenario::BigMesh(BigMeshConfig {
            nodes: 400,
            ..BigMeshConfig::default()
        }),
        Scenario::Canonical(CanonicalConfig {
            contenders: 6,
            rounds: 40,
            ..CanonicalConfig::default()
        }),
        Scenario::TaskQueue {
            nodes: 5,
            model: ModelChoice::Gwc,
            cfg: TaskQueueConfig {
                total_tasks: 256,
                ..tasks
            },
        },
    ];
    for method in [MutexMethod::OptimisticGwc, MutexMethod::RegularGwc] {
        scenarios.push(Scenario::Pipeline {
            nodes: 8,
            method,
            cfg: PipelineConfig {
                total_visits: 512,
                ..ring
            },
        });
    }
    let mut suspended = 0;
    for scenario in scenarios {
        let c = contract();
        let outcome = scenario
            .run(Some(c.clone()))
            .unwrap_or_else(|e| panic!("{e}"));
        let c = c.borrow();
        let covered = c.check(outcome.result().machine.groups(), scenario.name());
        assert!(covered > 0, "{}: no floor moved", scenario.name());
        suspended += c.interrupts;
    }
    assert!(suspended > 0, "an optimistic section suspended insharing");
}

/// The ledger's `lossy_mutex` machine, smaller: lost multicasts leave
/// gaps that members NACK and roots retransmit, and lost grants come back
/// through the watchdog. A floor must wait for the retransmitted apply.
#[test]
fn a_lossy_fabric_publishes_floors_only_behind_retransmitted_applies() {
    let cfg = CanonicalConfig {
        contenders: 24,
        rounds: 6,
        ..CanonicalConfig::default()
    };
    let mut machine = build_canonical(cfg);
    machine.fabric_mut().set_loss(0.05, 7);
    let gwc = machine.model_mut().as_gwc_mut().expect("canonical is GWC");
    gwc.set_grant_watchdog(Some(SimDur::from_us(50)));
    let c = contract();
    let result = run_observed(machine, RunOptions::default(), Some(c.clone()));
    assert_eq!(result.outcome, RunOutcome::Drained);
    let stats = result.machine.model().as_gwc().expect("GWC").stats();
    assert!(stats.nacks > 0 && stats.retransmissions > 0, "{stats:?}");
    let c = c.borrow();
    assert!(c.check(result.machine.groups(), "lossy") > 0);
    assert!(
        c.interrupts > 0,
        "an optimistic section suspended insharing"
    );
    // A drained run's floors reach every write every group sequenced.
    assert!(
        c.applies.is_empty(),
        "{} applies behind no floor",
        c.applies.len()
    );
}

/// Picks any deliverable event at random, a root's packets out of their
/// link's order among them: the orders the schedule explorer walks with
/// relaxed root links.
fn any_deliverable(
    pending: &[PendingEvent<'_, MachineMsg>],
    roots: &HashSet<NodeId>,
    rng: &mut DetRng,
) -> u64 {
    let (mut links, mut locals) = (HashSet::new(), HashSet::new());
    let deliverable = |p: &&PendingEvent<'_, MachineMsg>| match p.msg {
        (_, DsmEvent::Packet(pkt, _)) => {
            roots.contains(&pkt.from) || links.insert((pkt.from, pkt.to))
        }
        (node, _) => locals.insert(*node),
    };
    let enabled: Vec<u64> = pending.iter().filter(deliverable).map(|p| p.seq).collect();
    enabled[rng.next_below(enabled.len() as u64) as usize]
}

#[test]
fn reordered_deliveries_publish_floors_only_behind_every_members_apply() {
    let mut gaps = 0;
    for seed in 0..8 {
        let cfg = CanonicalConfig {
            contenders: 3,
            rounds: 20,
            ..CanonicalConfig::default()
        };
        let machine = build_canonical(cfg);
        let nodes = machine.node_count();
        let roots: HashSet<NodeId> = machine.groups().iter().map(|g| g.root()).collect();
        let mut sim = Simulation::new(machine);
        let c = contract();
        sim.set_trace_observer(c.clone());
        for node in 0..nodes as u32 {
            let start = (NodeId::new(node), DsmEvent::Start { more: 0 });
            sim.schedule(SimTime::ZERO, start);
        }
        let mut rng = DetRng::new(seed);
        loop {
            let pending = sim.pending();
            if pending.is_empty() {
                break;
            }
            let seq = any_deliverable(&pending, &roots, &mut rng);
            assert!(sim.step_seq(seq), "seq {seq} was pending");
        }
        let machine = sim.actor();
        gaps += machine.model().as_gwc().expect("GWC").stats().nacks;
        let c = c.borrow();
        assert!(c.check(machine.groups(), "reordered") > 0);
        assert!(c.applies.is_empty(), "seed {seed}: applies behind no floor");
    }
    assert!(
        gaps > 0,
        "some schedule delivered a root's writes out of order"
    );
}

/// The canonical mutex with 16 contenders × 50 sections on a fabric that
/// loses `loss` of its multicast deliveries, with the 50 µs grant
/// watchdog on.
fn lossy_canonical(loss: f64, seed: u64) -> sesame_dsm::Machine<ModelInstance> {
    let mut machine = build_canonical(CanonicalConfig {
        contenders: 16,
        rounds: 50,
        ..CanonicalConfig::default()
    });
    machine.fabric_mut().set_loss(loss, seed);
    let gwc = machine.model_mut().as_gwc_mut().expect("canonical is GWC");
    gwc.set_grant_watchdog(Some(SimDur::from_us(50)));
    machine
}

/// Everything a run outputs, on one line: the protocol and fabric
/// counters, the event count, the end time and a hash of every node's
/// memory.
fn outputs(result: &RunResult<ModelInstance>) -> String {
    let m = &result.machine;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for i in 0..m.node_count() {
        for (var, word) in m.mem(NodeId::new(i as u32)).iter() {
            (i, var.get(), word).hash(&mut h);
        }
    }
    format!(
        "{:?} {:?} events={} end={} mem={:016x}",
        m.model().as_gwc().expect("GWC").stats(),
        m.fabric_stats(),
        result.events,
        result.end.as_nanos(),
        h.finish()
    )
}

/// Holds an untraced run against the same run under `floors`: equal
/// outputs, and per group the floor last published, on both machines,
/// and the same history.
fn assert_one_floor(
    label: &str,
    bare: &RunResult<ModelInstance>,
    traced: &RunResult<ModelInstance>,
    floors: &FloorContract,
) {
    assert_eq!(outputs(bare), outputs(traced), "{label}");
    let bare_gwc = bare.machine.model().as_gwc().expect("GWC");
    let traced_gwc = traced.machine.model().as_gwc().expect("GWC");
    for g in bare.machine.groups().iter() {
        let id = g.id();
        let published = floors.floors.get(&id.get()).copied().unwrap_or(0);
        assert_eq!(traced_gwc.applied_floor(id), published, "{label}: {id}");
        assert_eq!(bare_gwc.applied_floor(id), published, "{label}: {id}");
        let held = (bare_gwc.history_len(id), traced_gwc.history_len(id));
        assert_eq!(held.0, held.1, "{label}: {id} holds untraced / traced");
    }
    let records = (bare_gwc.flight_records(), traced_gwc.flight_records());
    assert_eq!(
        records.0, records.1,
        "{label}: in-flight records untraced / traced"
    );
    assert!(floors.check(traced.machine.groups(), label) > 0, "{label}");
}

#[test]
fn traced_and_untraced_machines_keep_one_floor_and_one_history() {
    for loss in [0.05, 0.20] {
        for seed in [1, 7, 23] {
            let label = format!("lossy {loss} seed {seed}");
            let bare = run(lossy_canonical(loss, seed), RunOptions::default());
            let c = contract();
            let traced = run_observed(
                lossy_canonical(loss, seed),
                RunOptions::default(),
                Some(c.clone()),
            );
            let stats = bare.machine.model().as_gwc().expect("GWC").stats();
            assert!(stats.retransmissions > 0, "{label}: {stats:?}");
            assert_one_floor(&label, &bare, &traced, &c.borrow());
        }
    }
    let Scenario::Contention(cfg) = Scenario::parse("contention").expect("a listed name") else {
        unreachable!()
    };
    let contention = Scenario::Contention(ContentionConfig {
        contenders: 8,
        rounds: 60,
        tracing: false,
        ..cfg
    });
    let bare = contention.run(None).unwrap_or_else(|e| panic!("{e}"));
    let c = contract();
    let traced = contention
        .run(Some(c.clone()))
        .unwrap_or_else(|e| panic!("{e}"));
    assert_one_floor("contention", bare.result(), traced.result(), &c.borrow());
}

//! The producer's side of the cause-floor contract
//! (`TraceObserver::on_cause_floor`): whatever the machine runs — every
//! scenario, a lossy fabric with its retransmissions and watchdog timers,
//! a schedule no clock would produce — no `"cause"` record names a parent
//! below the last floor the observer was told, floors only rise, and the
//! machine holds exactly one id per pending event that carries a cause.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use sesame_core::builder::ModelChoice;
use sesame_dsm::{run_observed, DsmEvent, MachineMsg, RunOptions};
use sesame_net::NodeId;
use sesame_sim::{
    DetRng, PendingEvent, RunOutcome, SimDur, SimTime, Simulation, TraceDetail, TraceEntry,
    TraceObserver,
};
use sesame_workloads::bigmesh::BigMeshConfig;
use sesame_workloads::canonical::{build_canonical, CanonicalConfig};
use sesame_workloads::contention::ContentionConfig;
use sesame_workloads::pipeline::{MutexMethod, PipelineConfig};
use sesame_workloads::scenario::Scenario;
use sesame_workloads::task_queue::TaskQueueConfig;

/// Fails on the first record that cites below the floor.
#[derive(Default)]
struct FloorContract {
    floor: u64,
    floors: u32,
    causes: u64,
}

impl TraceObserver for FloorContract {
    fn on_record(&mut self, entry: &TraceEntry) {
        if let TraceDetail::Cause { id, cause, .. } = entry.detail {
            self.causes += 1;
            assert!(
                cause == 0 || cause >= self.floor,
                "#{id} cites #{cause}, below the floor {}",
                self.floor
            );
        }
    }

    fn on_cause_floor(&mut self, floor: u64) {
        assert!(floor > self.floor, "floor {floor} after {}", self.floor);
        self.floor = floor;
        self.floors += 1;
    }
}

/// Runs `scenario` under the contract observer and returns the observer.
/// A drained run handled every event it scheduled, so it must have taken
/// back every hold; a run its program stopped (the pipeline) still holds
/// what was pending.
fn check(scenario: Scenario) -> FloorContract {
    let contract = Rc::new(RefCell::new(FloorContract::default()));
    let outcome = scenario
        .run(Some(contract.clone()))
        .unwrap_or_else(|e| panic!("{e}"));
    let result = outcome.result();
    if result.outcome == RunOutcome::Drained {
        assert_eq!(result.machine.causes().held(), 0, "{scenario:?}");
    }
    let contract = Rc::try_unwrap(contract).ok().expect("the run is over");
    contract.into_inner()
}

#[test]
fn no_scenario_cites_below_the_floor_and_drained_runs_release_every_hold() {
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
    ];
    for model in [ModelChoice::Gwc, ModelChoice::Entry, ModelChoice::Release] {
        scenarios.push(Scenario::TaskQueue {
            nodes: 5,
            model,
            cfg: TaskQueueConfig {
                total_tasks: 256,
                ..tasks
            },
        });
    }
    for method in [
        MutexMethod::OptimisticGwc,
        MutexMethod::RegularGwc,
        MutexMethod::Entry,
    ] {
        scenarios.push(Scenario::Pipeline {
            nodes: 8,
            method,
            cfg: PipelineConfig {
                total_visits: 512,
                ..ring
            },
        });
    }
    for scenario in scenarios {
        let contract = check(scenario);
        // A floor moves a block of 4 096 ids at a time: every run longer
        // than a few blocks must have been told some.
        assert!(
            contract.causes < 3 * 4_096 || contract.floors > 0,
            "{}: {} causes and no floor",
            scenario.name(),
            contract.causes
        );
    }
}

/// The ledger's `lossy_mutex` machine, smaller: per-member fan-out with
/// loss rolls, NACKs, retransmissions and the grant watchdog's timers.
#[test]
fn a_lossy_fabric_with_its_timers_keeps_the_contract() {
    let cfg = CanonicalConfig {
        contenders: 24,
        rounds: 6,
        ..CanonicalConfig::default()
    };
    let mut machine = build_canonical(cfg);
    machine.fabric_mut().set_loss(0.05, 7);
    let gwc = machine.model_mut().as_gwc_mut().expect("canonical is GWC");
    gwc.set_grant_watchdog(Some(SimDur::from_us(50)));
    let contract = Rc::new(RefCell::new(FloorContract::default()));
    let result = run_observed(machine, RunOptions::default(), Some(contract.clone()));
    assert_eq!(result.outcome, RunOutcome::Drained);
    assert!(result.machine.fabric_stats().losses > 0);
    assert_eq!(result.machine.causes().held(), 0);
    assert!(contract.borrow().floors > 0, "the run is blocks long");
}

/// Picks any deliverable event — the oldest packet of a link, the next
/// local event of a node — at random: the orders the schedule explorer
/// walks, late deliveries and all.
fn any_deliverable(pending: &[PendingEvent<'_, MachineMsg>], rng: &mut DetRng) -> u64 {
    let (mut links, mut locals) = (HashSet::new(), HashSet::new());
    let deliverable = |p: &&PendingEvent<'_, MachineMsg>| match p.msg {
        (_, DsmEvent::Packet(pkt, _)) => links.insert((pkt.from, pkt.to)),
        (node, _) => locals.insert(*node),
    };
    let enabled: Vec<u64> = pending.iter().filter(deliverable).map(|p| p.seq).collect();
    enabled[rng.next_below(enabled.len() as u64) as usize]
}

#[test]
fn a_scheduled_execution_keeps_the_contract_and_an_abandoned_one_keeps_its_holds() {
    let run = |picks: u64| {
        let cfg = CanonicalConfig {
            contenders: 3,
            rounds: 150,
            ..CanonicalConfig::default()
        };
        let machine = build_canonical(cfg);
        let nodes = machine.node_count();
        let mut sim = Simulation::new(machine);
        let contract = Rc::new(RefCell::new(FloorContract::default()));
        sim.set_trace_observer(contract.clone());
        for node in 0..nodes as u32 {
            let start = (NodeId::new(node), DsmEvent::Start { more: 0 });
            sim.schedule(SimTime::ZERO, start);
        }
        // Stops after `picks` deliveries, the rest left pending. Before
        // each one, the machine holds one id per pending event that
        // carries a cause: none for a start.
        let mut rng = DetRng::new(picks);
        let mut left = picks;
        let outcome = loop {
            let pending = sim.pending();
            let carriers = pending.iter().filter(|p| p.msg.1.cause().is_some());
            assert_eq!(sim.actor().causes().held(), carriers.count() as u64);
            if pending.is_empty() {
                break RunOutcome::Drained;
            }
            if left == 0 {
                break RunOutcome::Stopped;
            }
            left -= 1;
            let seq = any_deliverable(&pending, &mut rng);
            assert!(sim.step_seq(seq), "seq {seq} was pending");
        };
        let pending = sim.pending().len() as u64;
        let floors = contract.borrow().floors;
        (outcome, pending, sim.actor().causes().held(), floors)
    };
    let (outcome, pending, held, floors) = run(u64::MAX);
    assert_eq!((outcome, pending, held), (RunOutcome::Drained, 0, 0));
    assert!(floors > 0, "the run is blocks long");
    // Cut short, what is still pending is still held.
    let (outcome, pending, held, _) = run(2_000);
    assert_eq!(outcome, RunOutcome::Stopped);
    assert!(
        held > 0 && held <= pending,
        "{held} held, {pending} pending"
    );
}

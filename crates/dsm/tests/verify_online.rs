//! Online verification of the GWC machine: the `sesame-verify` checkers
//! ride along with a live simulation as a [`sesame_sim::TraceObserver`],
//! with trace recording itself switched **off** — no event retention.

use std::cell::RefCell;
use std::rc::Rc;

use sesame_dsm::{
    lockval, run_observed, AppEvent, GroupSpec, GroupTable, GwcModel, GwcMutation, Machine,
    MachineConfig, NodeApi, Program, RunOptions, VarId,
};
use sesame_net::{LinkTiming, MeshTorus2d, NodeId, Topology};
use sesame_verify::Verifier;

fn n(id: u32) -> NodeId {
    NodeId::new(id)
}
fn v(id: u32) -> VarId {
    VarId::new(id)
}

const LOCK: u32 = 0;
const COUNTER: u32 = 1;

fn mutex_group_machine(programs: Vec<Box<dyn Program>>) -> Machine<GwcModel> {
    let topo: Box<dyn Topology> = Box::new(MeshTorus2d::new(2, 2));
    let nodes = topo.len();
    let groups = GroupTable::new(vec![GroupSpec {
        root: n(0),
        members: (0..nodes as u32).map(n).collect(),
        vars: vec![v(LOCK), v(COUNTER)],
        mutex_lock: Some(v(LOCK)),
    }])
    .expect("valid group table");
    let model = GwcModel::new(&groups, nodes);
    let mut machine = Machine::new(
        topo,
        LinkTiming::paper_1994(),
        groups,
        programs,
        model,
        MachineConfig::default(),
    );
    machine.init_var(v(LOCK), lockval::FREE);
    machine
}

/// A worker that performs `rounds` locked increments of the shared
/// counter through the queue-based lock at the group root.
fn locked_incrementer(rounds: u32) -> Box<dyn Program> {
    let mut left = rounds;
    Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
        AppEvent::Started if left > 0 => {
            api.acquire(v(LOCK));
        }
        AppEvent::Acquired { lock } if lock == v(LOCK) => {
            let c = api.read(v(COUNTER));
            api.write(v(COUNTER), c + 1);
            api.release(v(LOCK));
        }
        AppEvent::Released { lock } if lock == v(LOCK) => {
            left -= 1;
            if left > 0 {
                api.acquire(v(LOCK));
            }
        }
        _ => {}
    })
}

/// Locked increments from every non-root node, checked online: the
/// verifier observes the trace stream directly off the simulator and the
/// run keeps **no** trace in memory.
#[test]
fn online_checking_of_locked_increments_is_clean_without_trace_retention() {
    const ROUNDS: u32 = 8;
    let mut programs: Vec<Box<dyn Program>> = vec![Box::new(|_: AppEvent, _: &mut NodeApi<'_>| {})];
    for _ in 1..4 {
        programs.push(locked_incrementer(ROUNDS));
    }
    let machine = mutex_group_machine(programs);

    let verifier = Rc::new(RefCell::new(Verifier::new()));
    let result = run_observed(
        machine,
        RunOptions {
            tracing: false, // observer only: nothing retained in memory
            ..RunOptions::default()
        },
        Some(verifier.clone()),
    );

    assert!(
        result.trace.entries().is_empty(),
        "online mode must not retain the trace"
    );
    assert_eq!(result.machine.mem(n(0)).read(v(COUNTER)), 3 * ROUNDS as i64);

    let mut verifier = verifier.borrow_mut();
    verifier.finish();
    assert!(
        verifier.violations().is_empty(),
        "online verification found:\n{}",
        verifier.report()
    );
}

/// The same online hookup must still *detect* faults: disabling the
/// Figure 6 hardware blocking makes every writer apply the root echo of
/// its own mutex-group data writes, which the mutex checker reports.
#[test]
fn online_checking_catches_disabled_hardware_blocking() {
    let mut programs: Vec<Box<dyn Program>> = vec![Box::new(|_: AppEvent, _: &mut NodeApi<'_>| {})];
    for _ in 1..4 {
        programs.push(locked_incrementer(4));
    }
    let topo: Box<dyn Topology> = Box::new(MeshTorus2d::new(2, 2));
    let nodes = topo.len();
    let groups = GroupTable::new(vec![GroupSpec {
        root: n(0),
        members: (0..nodes as u32).map(n).collect(),
        vars: vec![v(LOCK), v(COUNTER)],
        mutex_lock: Some(v(LOCK)),
    }])
    .expect("valid group table");
    let mut model = GwcModel::new(&groups, nodes);
    model.set_mutation(GwcMutation::NoHwBlock);
    let mut machine = Machine::new(
        topo,
        LinkTiming::paper_1994(),
        groups,
        programs,
        model,
        MachineConfig::default(),
    );
    machine.init_var(v(LOCK), lockval::FREE);

    let verifier = Rc::new(RefCell::new(Verifier::new()));
    run_observed(machine, RunOptions::default(), Some(verifier.clone()));

    let mut verifier = verifier.borrow_mut();
    verifier.finish();
    assert!(
        verifier
            .violations()
            .iter()
            .any(|viol| viol.message.contains("echo of its own")),
        "disabled hardware blocking must be reported; got:\n{}",
        verifier.report()
    );
}

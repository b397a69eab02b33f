//! Demonstrates the checkers *catching* a protocol fault at runtime: the
//! same locked-increment workload is run twice, once with the paper's
//! Figure 6 hardware blocking enabled (verifies clean) and once with it
//! disabled (every writer applies the root echo of its own mutex-group
//! data writes — the mutual-exclusion checker reports it).
//!
//! ```text
//! cargo run -p sesame-verify --example catch_fault
//! ```

use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;

use sesame_dsm::{
    lockval, run_observed, AppEvent, GroupSpec, GroupTable, GwcModel, GwcMutation, Machine,
    MachineConfig, NodeApi, Program, RunOptions, VarId,
};
use sesame_net::{LinkTiming, MeshTorus2d, NodeId, Topology};
use sesame_verify::Verifier;

const LOCK: VarId = VarId::new(0);
const COUNTER: VarId = VarId::new(1);

/// A worker that performs `rounds` locked increments of the shared counter.
fn locked_incrementer(rounds: u32) -> Box<dyn Program> {
    let mut left = rounds;
    Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
        AppEvent::Started if left > 0 => api.acquire(LOCK),
        AppEvent::Acquired { lock } if lock == LOCK => {
            let c = api.read(COUNTER);
            api.write(COUNTER, c + 1);
            api.release(LOCK);
        }
        AppEvent::Released { lock } if lock == LOCK => {
            left -= 1;
            if left > 0 {
                api.acquire(LOCK);
            }
        }
        _ => {}
    })
}

/// Runs the workload with `mutation` planted under online checking and
/// returns the number of violations found.
fn checked_run(mutation: GwcMutation) -> usize {
    let topo: Box<dyn Topology> = Box::new(MeshTorus2d::new(2, 2));
    let nodes = topo.len();
    let groups = GroupTable::new(vec![GroupSpec {
        root: NodeId::new(0),
        members: (0..nodes as u32).map(NodeId::new).collect(),
        vars: vec![LOCK, COUNTER],
        mutex_lock: Some(LOCK),
    }])
    .expect("valid group table");
    let mut model = GwcModel::new(&groups, nodes);
    model.set_mutation(mutation);
    let mut programs: Vec<Box<dyn Program>> = vec![Box::new(|_: AppEvent, _: &mut NodeApi<'_>| {})];
    for _ in 1..nodes {
        programs.push(locked_incrementer(6));
    }
    let timing = LinkTiming::paper_1994();
    let mut machine = Machine::new(
        topo,
        timing,
        groups,
        programs,
        model,
        MachineConfig::default(),
    );
    machine.init_var(LOCK, lockval::FREE);

    let verifier = Rc::new(RefCell::new(Verifier::new()));
    run_observed(machine, RunOptions::default(), Some(verifier.clone()));
    let mut verifier = verifier.borrow_mut();
    verifier.finish();
    if verifier.violations().is_empty() {
        println!("  clean: no violations");
    } else {
        println!("{}", verifier.report());
    }
    verifier.violations().len()
}

fn main() -> ExitCode {
    println!("with Figure 6 hardware blocking (the paper's design):");
    let clean = checked_run(GwcMutation::None);

    println!("\nwith hardware blocking disabled (planted fault):");
    let faulty = checked_run(GwcMutation::NoHwBlock);

    if clean == 0 && faulty > 0 {
        println!("\nthe checkers caught the planted fault and only the planted fault");
        ExitCode::SUCCESS
    } else {
        println!("\nunexpected: clean run had {clean} violations, faulty run {faulty}");
        ExitCode::FAILURE
    }
}

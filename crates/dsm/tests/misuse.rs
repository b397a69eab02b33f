//! Protocol-misuse tests: the machine fails fast and loudly on programs
//! that break the sharing rules, instead of silently corrupting state.

use sesame_dsm::{
    lockval, run, AppEvent, GroupSpec, GroupTable, GwcModel, IdleProgram, Machine, MachineConfig,
    NodeApi, Program, RunOptions, VarId,
};
use sesame_net::{LinkTiming, NodeId, Ring};
use sesame_sim::SimDur;

fn n(id: u32) -> NodeId {
    NodeId::new(id)
}
fn v(id: u32) -> VarId {
    VarId::new(id)
}

fn machine_with(programs: Vec<Box<dyn Program>>, members: &[u32]) -> Machine<GwcModel> {
    let groups = GroupTable::new(vec![GroupSpec {
        root: n(0),
        members: members.iter().copied().map(n).collect(),
        vars: vec![v(0), v(1)],
        mutex_lock: Some(v(0)),
    }])
    .unwrap();
    let model = GwcModel::new(&groups, programs.len());
    let mut m = Machine::new(
        Box::new(Ring::new(programs.len())),
        LinkTiming::paper_1994(),
        groups,
        programs,
        model,
        MachineConfig::default(),
    );
    m.init_var(v(0), lockval::FREE);
    m
}

#[test]
#[should_panic(expected = "no sharing group")]
fn writing_an_unmapped_variable_panics() {
    let programs: Vec<Box<dyn Program>> = vec![Box::new(|ev: AppEvent, api: &mut NodeApi<'_>| {
        if ev == AppEvent::Started {
            api.write(v(99), 1);
        }
    })];
    run(machine_with(programs, &[0]), RunOptions::default());
}

#[test]
#[should_panic(expected = "neither member nor root")]
fn writing_from_outside_the_group_panics() {
    let programs: Vec<Box<dyn Program>> = vec![
        Box::new(sesame_dsm::IdleProgram),
        Box::new(|ev: AppEvent, api: &mut NodeApi<'_>| {
            if ev == AppEvent::Started {
                api.write(v(1), 1); // node 1 is not a member
            }
        }),
    ];
    run(machine_with(programs, &[0]), RunOptions::default());
}

#[test]
#[should_panic(expected = "released lock v0 it does not hold")]
fn releasing_an_unheld_lock_panics_at_the_root() {
    let programs: Vec<Box<dyn Program>> = vec![Box::new(|ev: AppEvent, api: &mut NodeApi<'_>| {
        if ev == AppEvent::Started {
            api.release(v(0));
        }
    })];
    run(machine_with(programs, &[0]), RunOptions::default());
}

#[test]
#[should_panic(expected = "invalid lock value")]
fn garbage_lock_values_panic_at_the_root() {
    let programs: Vec<Box<dyn Program>> = vec![Box::new(|ev: AppEvent, api: &mut NodeApi<'_>| {
        if ev == AppEvent::Started {
            api.write(v(0), 42); // neither request, grant, nor FREE
        }
    })];
    run(machine_with(programs, &[0]), RunOptions::default());
}

#[test]
#[should_panic(expected = "while one is in flight")]
fn overlapping_compute_phases_panic() {
    let programs: Vec<Box<dyn Program>> = vec![Box::new(|ev: AppEvent, api: &mut NodeApi<'_>| {
        if ev == AppEvent::Started {
            api.compute(SimDur::from_us(10), 1);
            api.set_timer(SimDur::from_us(5), 2);
        } else if matches!(ev, AppEvent::TimerFired { tag: 2 }) {
            api.compute(SimDur::from_us(10), 3); // still busy with phase 1
        }
    })];
    run(machine_with(programs, &[0]), RunOptions::default());
}

#[test]
#[should_panic(expected = "group g0 names node n9, which this 4-CPU machine does not have")]
fn a_group_member_past_the_last_cpu_panics_at_assembly() {
    // `GroupTable::new` is not told the machine's size; the machine is.
    let programs: Vec<Box<dyn Program>> = (0..4).map(|_| Box::new(IdleProgram) as _).collect();
    machine_with(programs, &[0, 1, 9]);
}

/// Node 1 does `act` once it starts, in a machine whose one group (lock
/// v0, data v1) has `members`.
fn node_one_does(act: fn(&mut NodeApi<'_>), members: &[u32]) {
    let programs: Vec<Box<dyn Program>> = vec![
        Box::new(IdleProgram),
        Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| {
            if ev == AppEvent::Started {
                act(api);
            }
        }),
    ];
    run(machine_with(programs, members), RunOptions::default());
}

// Arming or awaiting a lock no grant or change of which will ever reach
// the node fails at the action: the interrupt would never fire, the
// acquire never complete.
#[test]
#[should_panic(expected = "n1 armed v0, which is not the mutex lock of a group it belongs to")]
fn arming_the_lock_of_a_group_one_is_not_in_panics() {
    node_one_does(|api| api.arm_lock_interrupt(v(0)), &[0]);
}

#[test]
#[should_panic(expected = "n1 acquired v0, which is not the mutex lock of a group it belongs to")]
fn acquiring_the_lock_of_a_group_one_is_not_in_panics() {
    node_one_does(|api| api.acquire(v(0)), &[0]);
}

#[test]
#[should_panic(expected = "n1 armed v1, which is not the mutex lock of a group it belongs to")]
fn arming_a_data_variable_panics() {
    node_one_does(|api| api.arm_lock_interrupt(v(1)), &[0, 1]);
}

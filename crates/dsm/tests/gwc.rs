//! Integration tests of the GWC machine: eagersharing, write ordering,
//! queue-based locks at the group root, mutex-group filtering, hardware
//! blocking, armed interrupts with insharing suspension, and loss recovery.

#![allow(clippy::type_complexity)]

use std::cell::RefCell;
use std::rc::Rc;

use sesame_dsm::{
    lockval, run, AppEvent, GroupSpec, GroupTable, GwcModel, GwcMutation, Machine, MachineConfig,
    NodeApi, Program, RunOptions, RunResult, VarId, Word,
};
use sesame_net::{LinkTiming, MeshTorus2d, NodeId, Ring, Topology};
use sesame_sim::{SimDur, SimTime};

fn n(id: u32) -> NodeId {
    NodeId::new(id)
}
fn v(id: u32) -> VarId {
    VarId::new(id)
}

/// Builds a machine over `topo` with one group holding `vars` (and an
/// optional mutex lock), all nodes members, rooted at `root`.
fn one_group_machine(
    topo: Box<dyn Topology>,
    root: u32,
    vars: &[u32],
    mutex_lock: Option<u32>,
    programs: Vec<Box<dyn Program>>,
    cfg: MachineConfig,
) -> Machine<GwcModel> {
    let nodes = topo.len();
    let groups = GroupTable::new(vec![GroupSpec {
        root: n(root),
        members: (0..nodes as u32).map(n).collect(),
        vars: vars.iter().copied().map(v).collect(),
        mutex_lock: mutex_lock.map(v),
    }])
    .unwrap();
    let model = GwcModel::new(&groups, nodes);
    let mut machine = Machine::new(topo, LinkTiming::paper_1994(), groups, programs, model, cfg);
    if let Some(lock) = mutex_lock {
        machine.init_var(v(lock), lockval::FREE);
    }
    machine
}

type Log = Rc<RefCell<Vec<(u32, SimTime, Word)>>>;

/// A program that records every `Updated` for one variable.
fn recorder(var: VarId, log: Log) -> Box<dyn Program> {
    Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| {
        if let AppEvent::Updated { var: u, value, .. } = ev {
            if u == var {
                log.borrow_mut().push((api.id().get(), api.now(), value));
            }
        }
    })
}

#[test]
fn eagersharing_propagates_writes_to_all_members_in_order() {
    let var = v(1);
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    let mut programs: Vec<Box<dyn Program>> = Vec::new();
    // Node 0 writes 10, 20, 30 back to back.
    programs.push(Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| {
        if ev == AppEvent::Started && api.id() == n(0) {
            api.write(var, 10);
            api.write(var, 20);
            api.write(var, 30);
        }
    }));
    for _ in 1..5 {
        programs.push(recorder(var, log.clone()));
    }
    let machine = one_group_machine(
        Box::new(Ring::new(5)),
        0,
        &[1],
        None,
        programs,
        MachineConfig::default(),
    );
    let result = run(machine, RunOptions::default());
    for i in 0..5 {
        assert_eq!(result.machine.mem(n(i)).read(var), 30, "node {i}");
    }
    // Every recording member saw exactly 10, 20, 30 in that order.
    let log = log.borrow();
    for i in 1..5 {
        let seen: Vec<Word> = log
            .iter()
            .filter(|(node, _, _)| *node == i)
            .map(|&(_, _, w)| w)
            .collect();
        assert_eq!(seen, vec![10, 20, 30], "node {i}");
    }
}

#[test]
fn concurrent_writers_are_seen_in_the_same_order_everywhere() {
    let var = v(0);
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    let mut programs: Vec<Box<dyn Program>> = Vec::new();
    // Nodes 0..4 each write their id+1 several times at staggered moments;
    // node 5..8 record.
    for w in 0..4u32 {
        let lg = log.clone();
        programs.push(Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| {
            match ev {
                AppEvent::Started => {
                    // Fire three writes at w-dependent offsets.
                    api.set_timer(SimDur::from_nanos(100 + 37 * w as u64), 0);
                    api.set_timer(SimDur::from_nanos(900 + 11 * w as u64), 1);
                    api.set_timer(SimDur::from_nanos(2100 + 23 * w as u64), 2);
                }
                AppEvent::TimerFired { tag } => {
                    api.write(var, (w as Word + 1) * 100 + tag as Word);
                }
                AppEvent::Updated { var: u, value, .. } if u == var => {
                    lg.borrow_mut().push((api.id().get(), api.now(), value));
                }
                _ => {}
            }
        }));
    }
    for _ in 4..9 {
        programs.push(recorder(var, log.clone()));
    }
    let machine = one_group_machine(
        Box::new(MeshTorus2d::with_nodes(9)),
        4,
        &[0],
        None,
        programs,
        MachineConfig::default(),
    );
    let result = run(machine, RunOptions::default());
    let log = log.borrow();
    // Every node observed the same sequence of values (GWC total order).
    let reference: Vec<Word> = log
        .iter()
        .filter(|(node, _, _)| *node == 4)
        .map(|&(_, _, w)| w)
        .collect();
    assert_eq!(reference.len(), 12, "root sees all 12 writes");
    for i in 0..9u32 {
        let seen: Vec<Word> = log
            .iter()
            .filter(|(node, _, _)| *node == i)
            .map(|&(_, _, w)| w)
            .collect();
        assert_eq!(seen, reference, "node {i} diverged from GWC order");
    }
    // And all memories agree at the end.
    let last = *reference.last().unwrap();
    for i in 0..9 {
        assert_eq!(result.machine.mem(n(i)).read(var), last);
    }
}

/// Program used by the mutual-exclusion tests: loops `rounds` times through
/// acquire -> compute -> increment counter -> release.
struct Contender {
    lock: VarId,
    counter: VarId,
    rounds: u32,
    section: SimDur,
    spans: Rc<RefCell<Vec<(u32, SimTime, SimTime)>>>,
    grants: Rc<RefCell<Vec<u32>>>,
    entered_at: SimTime,
}

impl Program for Contender {
    fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
        match ev {
            AppEvent::Started if self.rounds > 0 => {
                api.acquire(self.lock);
            }
            AppEvent::Acquired { lock } if lock == self.lock => {
                self.entered_at = api.now();
                self.grants.borrow_mut().push(api.id().get());
                api.compute(self.section, 0);
            }
            AppEvent::ComputeDone { .. } => {
                let c = api.read(self.counter);
                api.write(self.counter, c + 1);
                api.release(self.lock);
            }
            AppEvent::Released { lock } if lock == self.lock => {
                self.spans
                    .borrow_mut()
                    .push((api.id().get(), self.entered_at, api.now()));
                self.rounds -= 1;
                if self.rounds > 0 {
                    api.acquire(self.lock);
                }
            }
            _ => {}
        }
    }
}

fn contention_run(
    nodes: u32,
    rounds: u32,
    cfg: MachineConfig,
) -> (RunResult<GwcModel>, Vec<(u32, SimTime, SimTime)>, Vec<u32>) {
    let lock = v(0);
    let counter = v(1);
    let spans = Rc::new(RefCell::new(Vec::new()));
    let grants = Rc::new(RefCell::new(Vec::new()));
    let programs: Vec<Box<dyn Program>> = (0..nodes)
        .map(|_| {
            Box::new(Contender {
                lock,
                counter,
                rounds,
                section: SimDur::from_us(5),
                spans: spans.clone(),
                grants: grants.clone(),
                entered_at: SimTime::ZERO,
            }) as Box<dyn Program>
        })
        .collect();
    let machine = one_group_machine(
        Box::new(MeshTorus2d::with_nodes(nodes as usize)),
        0,
        &[0, 1],
        Some(0),
        programs,
        cfg,
    );
    let result = run(machine, RunOptions::default());
    let spans = spans.borrow().clone();
    let grants = grants.borrow().clone();
    (result, spans, grants)
}

#[test]
fn mutual_exclusion_holds_under_contention() {
    let (result, spans, _) = contention_run(6, 4, MachineConfig::default());
    assert_eq!(spans.len(), 24, "every round completed");
    // Critical sections never overlap.
    let mut sorted = spans.clone();
    sorted.sort_by_key(|&(_, enter, _)| enter);
    for w in sorted.windows(2) {
        assert!(
            w[0].2 <= w[1].1,
            "sections overlap: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    // The shared counter counted every section exactly once.
    let counter_final = result.machine.mem(n(0)).read(v(1));
    assert_eq!(counter_final, 24);
    // The root's lock state is clean at the end.
    let model = result.machine.model();
    assert_eq!(model.lock_holder(sesame_dsm::GroupId::new(0)), None);
    assert_eq!(model.lock_queue_len(sesame_dsm::GroupId::new(0)), 0);
    assert_eq!(model.stats().grants, 24);
}

#[test]
fn queued_requests_are_granted_fifo() {
    // With equal round counts and deterministic arrival order, grants cycle
    // through the contenders in a stable order after the first round.
    let (_, _, grants) = contention_run(4, 3, MachineConfig::default());
    assert_eq!(grants.len(), 12);
    // After the initial requests queue up, the grant order must repeat the
    // same FIFO cycle.
    let first_cycle: Vec<u32> = grants[..4].to_vec();
    assert_eq!(grants[4..8], first_cycle[..], "second cycle differs");
    assert_eq!(grants[8..12], first_cycle[..], "third cycle differs");
}

#[test]
fn root_drops_data_writes_from_non_holders() {
    let lock = v(0);
    let data = v(1);
    // Node 1 writes guarded data without ever taking the lock.
    let programs: Vec<Box<dyn Program>> = vec![
        Box::new(sesame_dsm::IdleProgram),
        Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| {
            if ev == AppEvent::Started {
                api.write(data, 666);
            }
        }),
        Box::new(sesame_dsm::IdleProgram),
    ];
    let machine = one_group_machine(
        Box::new(Ring::new(3)),
        0,
        &[0, 1],
        Some(0),
        programs,
        MachineConfig::default(),
    );
    let result = run(machine, RunOptions::default());
    assert_eq!(result.machine.model().stats().root_drops, 1);
    // Other members never saw the value; the writer's own local copy keeps
    // its optimistic value until rolled back by the application.
    assert_eq!(result.machine.mem(n(0)).read(data), 0);
    assert_eq!(result.machine.mem(n(2)).read(data), 0);
    assert_eq!(result.machine.mem(n(1)).read(data), 666);
    let _ = lock;
}

#[test]
fn hardware_blocking_drops_own_echo_only() {
    let lock = v(0);
    let data = v(1);
    let updates_seen: Log = Rc::new(RefCell::new(Vec::new()));
    let programs: Vec<Box<dyn Program>> = vec![
        Box::new({
            move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
                AppEvent::Started => api.acquire(lock),
                AppEvent::Acquired { .. } => {
                    api.write(data, 7);
                    api.release(lock);
                }
                AppEvent::Updated { var, .. } => {
                    assert_ne!(var, data, "own mutex-group data echo must be dropped");
                }
                _ => {}
            }
        }),
        recorder(data, updates_seen.clone()),
        recorder(data, updates_seen.clone()),
    ];
    let machine = one_group_machine(
        Box::new(Ring::new(3)),
        1,
        &[0, 1],
        Some(0),
        programs,
        MachineConfig::default(),
    );
    let result = run(machine, RunOptions::default());
    assert_eq!(result.machine.model().stats().hw_block_drops, 1);
    // The writer keeps its locally stored value; others received the echo.
    for i in 0..3 {
        assert_eq!(result.machine.mem(n(i)).read(data), 7, "node {i}");
    }
    assert_eq!(updates_seen.borrow().len(), 2, "both remote members saw it");
}

#[test]
fn hardware_blocking_can_be_disabled_for_ablation() {
    let lock = v(0);
    let data = v(1);
    let programs: Vec<Box<dyn Program>> = vec![
        Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
            AppEvent::Started => api.acquire(lock),
            AppEvent::Acquired { .. } => {
                api.write(data, 7);
                api.release(lock);
            }
            _ => {}
        }),
        Box::new(sesame_dsm::IdleProgram),
    ];
    let cfg = MachineConfig::default();
    let mut machine = one_group_machine(Box::new(Ring::new(2)), 1, &[0, 1], Some(0), programs, cfg);
    machine.model_mut().set_mutation(GwcMutation::NoHwBlock);
    let result = run(machine, RunOptions::default());
    assert_eq!(result.machine.model().stats().hw_block_drops, 0);
}

#[test]
fn armed_interrupt_fires_and_suspends_insharing() {
    let lock = v(0);
    let data = v(1);
    let observed: Log = Rc::new(RefCell::new(Vec::new()));
    let lock_changes: Log = Rc::new(RefCell::new(Vec::new()));

    // Node 2 arms the interrupt at start, resumes insharing 20us after the
    // interrupt fires. Node 1 acquires the lock (changing node 2's local
    // lock copy) and then writes data, which must buffer at node 2 until
    // resume.
    let obs = observed.clone();
    let lchg = lock_changes.clone();
    let watcher = move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
        AppEvent::Started => api.arm_lock_interrupt(lock),
        AppEvent::LockChanged { var, value } => {
            assert_eq!(var, lock);
            lchg.borrow_mut().push((api.id().get(), api.now(), value));
            api.set_timer(SimDur::from_us(20), 99);
        }
        AppEvent::TimerFired { tag: 99 } => api.resume_insharing(),
        AppEvent::Updated { var, value, .. } if var == data => {
            obs.borrow_mut().push((api.id().get(), api.now(), value));
        }
        _ => {}
    };
    let programs: Vec<Box<dyn Program>> = vec![
        Box::new(sesame_dsm::IdleProgram),
        Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
            AppEvent::Started => api.acquire(lock),
            AppEvent::Acquired { .. } => {
                api.write(data, 55);
                api.release(lock);
            }
            _ => {}
        }),
        Box::new(watcher),
    ];
    let machine = one_group_machine(
        Box::new(Ring::new(3)),
        0,
        &[0, 1],
        Some(0),
        programs,
        MachineConfig::default(),
    );
    let result = run(machine, RunOptions::default());

    let lock_changes = lock_changes.borrow();
    assert_eq!(lock_changes.len(), 1, "interrupt fired once");
    let (_, t_intr, val) = lock_changes[0];
    assert_eq!(val, lockval::grant(n(1)), "saw node 1's grant");

    let observed = observed.borrow();
    assert_eq!(observed.len(), 1, "data applied after resume");
    let (_, t_data, val) = observed[0];
    assert_eq!(val, 55);
    assert!(
        t_data >= t_intr + SimDur::from_us(20),
        "data was applied before insharing resumed: intr {t_intr}, data {t_data}"
    );
    // Memory is consistent after resume.
    assert_eq!(result.machine.mem(n(2)).read(data), 55);
    assert!(!result.machine.model().is_suspended(n(2)));
}

#[test]
fn insharing_suspension_ablation_applies_data_immediately() {
    let lock = v(0);
    let data = v(1);
    let observed: Log = Rc::new(RefCell::new(Vec::new()));
    let lock_changes: Log = Rc::new(RefCell::new(Vec::new()));
    let obs = observed.clone();
    let lchg = lock_changes.clone();
    let watcher = move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
        AppEvent::Started => api.arm_lock_interrupt(lock),
        AppEvent::LockChanged { value, .. } => {
            lchg.borrow_mut().push((api.id().get(), api.now(), value));
        }
        AppEvent::Updated { var, value, .. } if var == data => {
            obs.borrow_mut().push((api.id().get(), api.now(), value));
        }
        _ => {}
    };
    let programs: Vec<Box<dyn Program>> = vec![
        Box::new(sesame_dsm::IdleProgram),
        Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
            AppEvent::Started => api.acquire(lock),
            AppEvent::Acquired { .. } => {
                api.write(data, 55);
                api.release(lock);
            }
            _ => {}
        }),
        Box::new(watcher),
    ];
    let cfg = MachineConfig::default();
    let mut machine = one_group_machine(Box::new(Ring::new(3)), 0, &[0, 1], Some(0), programs, cfg);
    machine
        .model_mut()
        .set_mutation(GwcMutation::NoInsharingSuspension);
    let result = run(machine, RunOptions::default());
    // Without suspension the data applies as soon as it arrives, even
    // though the watcher never resumed insharing.
    assert_eq!(observed.borrow().len(), 1);
    assert_eq!(result.machine.mem(n(2)).read(data), 55);
}

#[test]
fn release_and_fetch_complete_immediately_under_gwc() {
    let lock = v(0);
    let data = v(1);
    let times: Rc<RefCell<Vec<(String, SimTime)>>> = Rc::new(RefCell::new(Vec::new()));
    let t2 = times.clone();
    let programs: Vec<Box<dyn Program>> = vec![Box::new(
        move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
            AppEvent::Started => api.acquire(lock),
            AppEvent::Acquired { .. } => {
                t2.borrow_mut().push(("acquired".into(), api.now()));
                api.write(data, 1);
                api.release(lock);
                api.fetch(data);
            }
            AppEvent::Released { .. } => {
                t2.borrow_mut().push(("released".into(), api.now()));
            }
            AppEvent::ValueReady { value, .. } => {
                t2.borrow_mut().push((format!("value={value}"), api.now()));
            }
            _ => {}
        },
    )];
    let machine = one_group_machine(
        Box::new(Ring::new(1)),
        0,
        &[0, 1],
        Some(0),
        programs,
        MachineConfig::default(),
    );
    run(machine, RunOptions::default());
    let times = times.borrow();
    let acquired = times.iter().find(|(k, _)| k == "acquired").unwrap().1;
    let released = times.iter().find(|(k, _)| k == "released").unwrap().1;
    let value = times.iter().find(|(k, _)| k.starts_with("value")).unwrap();
    assert_eq!(released, acquired, "GWC release is non-blocking");
    assert_eq!(value.0, "value=1");
    assert_eq!(value.1, acquired, "GWC fetch is local");
}

/// Node 0 writes `1..=writes` to one variable every 5 µs over a ring of
/// four that loses `loss` of its multicast deliveries; nodes 1–3 record
/// what they apply.
fn lossy_writer(writes: u64, loss: f64, seed: u64) -> (Machine<GwcModel>, Log) {
    let var = v(1);
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    let mut programs: Vec<Box<dyn Program>> = Vec::new();
    programs.push(Box::new(
        move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
            AppEvent::Started => api.set_timer(SimDur::from_us(1), 1),
            AppEvent::TimerFired { tag } if tag <= writes => {
                api.write(var, tag as Word);
                api.set_timer(SimDur::from_us(5), tag + 1);
            }
            _ => {}
        },
    ));
    for _ in 1..4 {
        programs.push(recorder(var, log.clone()));
    }
    let mut machine = one_group_machine(
        Box::new(Ring::new(4)),
        0,
        &[1],
        None,
        programs,
        MachineConfig::default(),
    );
    machine.fabric_mut().set_loss(loss, seed);
    (machine, log)
}

/// Asserts every recorder in `log` applied `1..=writes`, in order.
fn assert_every_member_saw(log: &Log, writes: u64) {
    let log = log.borrow();
    for i in 1..4u32 {
        let seen: Vec<Word> = log
            .iter()
            .filter(|(node, _, _)| *node == i)
            .map(|&(_, _, w)| w)
            .collect();
        assert_eq!(
            seen,
            (1..=writes as Word).collect::<Vec<Word>>(),
            "node {i} missed or reordered writes"
        );
    }
}

#[test]
fn lost_multicasts_recover_via_nack_and_retransmission() {
    let (machine, log) = lossy_writer(40, 0.25, 42);
    let result = run(machine, RunOptions::default());
    let stats = result.machine.model().stats();
    assert!(stats.nacks > 0, "loss at 25% must trigger nacks");
    assert!(stats.retransmissions > 0);
    assert!(result.machine.fabric_stats().losses > 0);
    // In spite of losses every member applied every write, in order.
    assert_every_member_saw(&log, 40);
}

/// Everything a run outputs, on one line: the protocol and fabric
/// counters, the event count, the end time and a hash of every node's
/// memory.
fn outputs(result: &RunResult<GwcModel>) -> String {
    use std::hash::{Hash, Hasher};
    let m = &result.machine;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for i in 0..m.node_count() {
        for (var, word) in m.mem(n(i as u32)).iter() {
            (i, var.get(), word).hash(&mut h);
        }
    }
    format!(
        "{:?} {:?} events={} end={} mem={:016x}",
        m.model().stats(),
        m.fabric_stats(),
        result.events,
        result.end.as_nanos(),
        h.finish()
    )
}

#[test]
fn lossy_runs_repeat_the_outputs_of_a_root_that_kept_every_write() {
    // Pinned from the code whose roots held every write they ever
    // sequenced: retiring the ones no NACK can name moves nothing.
    let got = [
        lossy_writer(40, 0.25, 42).0,
        lossy_writer(60, 0.15, 5).0,
        lossy_contention(0.20, 99),
    ]
    .map(|machine| outputs(&run(machine, RunOptions::default())));
    let want = [
        "GwcStats { root_drops: 0, hw_block_drops: 0, grants: 0, queued_requests: 0, nacks: 25, retransmissions: 58, grant_retransmissions: 0 } FabricStats { packets: 163, bytes: 2408, link_traversals: 232, losses: 33, ser_ns: 27520 } events=295 end=201000 mem=c27bd45076198ba7",
        "GwcStats { root_drops: 0, hw_block_drops: 0, grants: 0, queued_requests: 0, nacks: 22, retransmissions: 47, grant_retransmissions: 0 } FabricStats { packets: 189, bytes: 2848, link_traversals: 275, losses: 25, ser_ns: 33280 } events=409 end=301000 mem=6947e527ed3a96a5",
        "GwcStats { root_drops: 0, hw_block_drops: 20, grants: 20, queued_requests: 19, nacks: 23, retransmissions: 66, grant_retransmissions: 3 } FabricStats { packets: 193, bytes: 2904, link_traversals: 320, losses: 24, ser_ns: 38784 } events=339 end=308728 mem=8abf1c168a8dfa20",
    ];
    assert_eq!(got, want);
}

#[test]
fn runs_are_deterministic() {
    let run_once = || {
        let (result, spans, grants) = contention_run(5, 3, MachineConfig::default());
        (result.end, result.events, spans, grants)
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn efficiency_metering_tracks_compute_time() {
    let programs: Vec<Box<dyn Program>> = vec![
        Box::new(|ev: AppEvent, api: &mut NodeApi<'_>| {
            if ev == AppEvent::Started {
                api.compute(SimDur::from_us(30), 0);
            }
        }),
        Box::new(|ev: AppEvent, api: &mut NodeApi<'_>| {
            if ev == AppEvent::Started {
                // Busy for 10us then idle: schedule nothing more.
                api.compute(SimDur::from_us(10), 0);
            }
        }),
    ];
    let machine = one_group_machine(
        Box::new(Ring::new(2)),
        0,
        &[0],
        None,
        programs,
        MachineConfig::default(),
    );
    let result = run(machine, RunOptions::default());
    assert_eq!(result.end, SimTime::ZERO + SimDur::from_us(30));
    assert!((result.efficiency(n(0)) - 1.0).abs() < 1e-9);
    assert!((result.efficiency(n(1)) - 1.0 / 3.0).abs() < 1e-9);
    assert!((result.network_power() - (1.0 + 1.0 / 3.0)).abs() < 1e-9);
    assert_eq!(result.machine.total_busy(), SimDur::from_us(40));
}

/// Four contenders on a 2×2 torus, five sections each, on a fabric that
/// loses `loss` of its multicast deliveries, with the 50 µs grant
/// watchdog on.
fn lossy_contention(loss: f64, seed: u64) -> Machine<GwcModel> {
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|_| {
            Box::new(Contender {
                lock: v(0),
                counter: v(1),
                rounds: 5,
                section: SimDur::from_us(5),
                spans: Rc::default(),
                grants: Rc::default(),
                entered_at: SimTime::ZERO,
            }) as Box<dyn Program>
        })
        .collect();
    let mut machine = one_group_machine(
        Box::new(MeshTorus2d::with_nodes(4)),
        0,
        &[0, 1],
        Some(0),
        programs,
        MachineConfig::default(),
    );
    machine.fabric_mut().set_loss(loss, seed);
    machine
        .model_mut()
        .set_grant_watchdog(Some(SimDur::from_us(50)));
    machine
}

#[test]
fn lost_grants_recover_via_the_grant_watchdog() {
    // Heavy loss on the multicast fabric: without the watchdog a lost
    // grant to a quiescent group would deadlock the lock; with it, every
    // section still completes and the counter stays exact.
    let result = run(lossy_contention(0.20, 99), RunOptions::default());
    assert_eq!(
        result.machine.mem(n(0)).read(v(1)),
        20,
        "all 20 sections completed despite 20% loss"
    );
    let stats = result.machine.model().stats();
    assert!(
        stats.grant_retransmissions > 0,
        "the watchdog must have fired at this loss rate: {stats:?}"
    );
    assert_eq!(
        result
            .machine
            .model()
            .lock_queue_len(sesame_dsm::GroupId::new(0)),
        0
    );
}

#[test]
fn watchdog_is_quiet_on_a_healthy_fabric() {
    let result_end;
    let retrans;
    {
        let lock = v(0);
        let counter = v(1);
        let spans = Rc::new(RefCell::new(Vec::new()));
        let grants = Rc::new(RefCell::new(Vec::new()));
        let programs: Vec<Box<dyn Program>> = (0..3)
            .map(|_| {
                Box::new(Contender {
                    lock,
                    counter,
                    rounds: 3,
                    section: SimDur::from_us(5),
                    spans: spans.clone(),
                    grants: grants.clone(),
                    entered_at: SimTime::ZERO,
                }) as Box<dyn Program>
            })
            .collect();
        let mut machine = one_group_machine(
            Box::new(Ring::new(3)),
            0,
            &[0, 1],
            Some(0),
            programs,
            MachineConfig::default(),
        );
        machine
            .model_mut()
            .set_grant_watchdog(Some(SimDur::from_us(200)));
        let result = run(machine, RunOptions::default());
        result_end = result.end;
        retrans = result.machine.model().stats().grant_retransmissions;
        assert_eq!(result.machine.mem(n(0)).read(counter), 9);
    }
    assert_eq!(retrans, 0, "no loss, no spurious grant retransmissions");
    assert!(result_end > SimTime::ZERO);
}

#[test]
fn the_root_forgets_the_writes_every_member_has_applied() {
    // 200 loss-free writes, 2 µs apart: each has reached every member
    // before the next is sequenced, so the root's history never holds
    // more than the write just sequenced, the last apply retires it, and
    // everyone still converges.
    let var = v(1);
    let writes = 200;
    let mut programs: Vec<Box<dyn Program>> = Vec::new();
    programs.push(Box::new(
        move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
            AppEvent::Started => api.set_timer(SimDur::from_nanos(100), 1),
            AppEvent::TimerFired { tag } if tag <= writes => {
                api.write(var, tag as Word);
                api.set_timer(SimDur::from_us(2), tag + 1);
            }
            _ => {}
        },
    ));
    programs.push(Box::new(sesame_dsm::IdleProgram));
    programs.push(Box::new(sesame_dsm::IdleProgram));
    let machine = one_group_machine(
        Box::new(Ring::new(3)),
        0,
        &[1],
        None,
        programs,
        MachineConfig::default(),
    );
    let result = run(machine, RunOptions::default());
    assert_eq!(
        result
            .machine
            .model()
            .history_len(sesame_dsm::GroupId::new(0)),
        0,
        "the history holds nothing once every member applied the last write"
    );
    for i in 0..3 {
        assert_eq!(
            result.machine.mem(n(i)).read(var),
            writes as Word,
            "node {i}"
        );
    }
}

#[test]
fn retirement_keeps_every_write_a_loss_can_still_need() {
    // No window to size: whatever a NACK names, the root still holds.
    let (machine, log) = lossy_writer(60, 0.15, 5);
    let result = run(machine, RunOptions::default());
    assert!(result.machine.model().stats().retransmissions > 0);
    assert_every_member_saw(&log, 60);
}

#[test]
fn a_suspended_member_pins_the_history_until_it_drains() {
    // Node 2 suspends insharing at the start and resumes after the root
    // has sequenced 200 of node 0's writes (2 µs apart). Until then every
    // one of them is a write node 2 has not applied, so the root keeps
    // them all; its applies, once it drains, retire them.
    let var = v(1);
    let (writes, resume_after) = (300, 200);
    let mut programs: Vec<Box<dyn Program>> = Vec::new();
    programs.push(Box::new(
        move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
            AppEvent::Started => api.set_timer(SimDur::from_nanos(100), 1),
            AppEvent::TimerFired { tag } if tag <= writes => {
                api.write(var, tag as Word);
                api.set_timer(SimDur::from_us(2), tag + 1);
            }
            _ => {}
        },
    ));
    programs.push(Box::new(sesame_dsm::IdleProgram));
    programs.push(Box::new(
        move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
            AppEvent::Started => {
                api.suspend_insharing();
                api.set_timer(SimDur::from_us(2 * resume_after + 1), 0);
            }
            AppEvent::TimerFired { .. } => api.resume_insharing(),
            _ => {}
        },
    ));
    let machine = one_group_machine(
        Box::new(Ring::new(3)),
        0,
        &[1],
        None,
        programs,
        MachineConfig::default(),
    );
    let group = sesame_dsm::GroupId::new(0);
    let mut sim = sesame_sim::Simulation::new(machine);
    for i in 0..3 {
        sim.schedule(
            SimTime::ZERO,
            (n(i), sesame_dsm::DsmEvent::Start { more: 0 }),
        );
    }
    let (mut pinned, mut after) = (0, usize::MAX);
    while sim.step() {
        let m = sim.actor().model();
        if m.is_suspended(n(2)) {
            pinned = pinned.max(m.history_len(group));
        } else if sim.actor().mem(n(2)).read(var) > resume_after as Word {
            after = after.min(m.history_len(group));
        }
    }
    assert!(
        pinned >= resume_after as usize,
        "held {pinned} while suspended"
    );
    assert!(after <= 8, "held {after} after the member drained");
    let machine = sim.actor();
    assert_eq!(machine.mem(n(2)).read(var), writes as Word);
}

#[test]
fn compute_cancellation_credits_only_elapsed_work() {
    // A node computes 100us, cancels at 40us via a timer, then idles; the
    // meter must credit exactly 40us of occupied time. (The cancelled
    // phase's stale ComputeDone still arrives at t=100us and is ignored —
    // programs identify their own completions by tag.)
    let programs: Vec<Box<dyn Program>> =
        vec![Box::new(|ev: AppEvent, api: &mut NodeApi<'_>| match ev {
            AppEvent::Started => {
                api.compute(SimDur::from_us(100), 1);
                api.set_timer(SimDur::from_us(40), 2);
            }
            AppEvent::TimerFired { tag: 2 } => api.cancel_compute(),
            _ => {}
        })];
    let machine = one_group_machine(
        Box::new(Ring::new(1)),
        0,
        &[0],
        None,
        programs,
        MachineConfig::default(),
    );
    let result = run(machine, RunOptions::default());
    assert_eq!(
        result.machine.total_busy(),
        SimDur::from_us(40),
        "only the elapsed 40us counts as occupied"
    );
}

#[test]
fn grant_watchdog_finds_its_group_above_sixteen_bit_ids() {
    // A sharded machine has more groups than nodes, so group ids outgrow
    // 16 bits long before node ids do. 65 536 one-member filler groups
    // push the two-node mutex group's id past what the watchdog tag once
    // reserved for it; a timer that decodes to the wrong group never
    // retransmits, and the first lost grant deadlocks the lock.
    const FILLERS: u32 = 1 << 16;
    let lock = v(FILLERS);
    let counter = v(FILLERS + 1);
    let mut specs: Vec<GroupSpec> = (0..FILLERS)
        .map(|i| GroupSpec {
            root: n(0),
            members: vec![n(0)],
            vars: vec![v(i)],
            mutex_lock: None,
        })
        .collect();
    specs.push(GroupSpec {
        root: n(0),
        members: vec![n(0), n(1)],
        vars: vec![lock, counter],
        mutex_lock: Some(lock),
    });
    let groups = GroupTable::new(specs).unwrap();
    let mutex_group = groups.group_of(lock).unwrap().id();
    assert!(mutex_group.get() >= FILLERS);

    let spans = Rc::new(RefCell::new(Vec::new()));
    let grants = Rc::new(RefCell::new(Vec::new()));
    let programs: Vec<Box<dyn Program>> = (0..2)
        .map(|_| {
            Box::new(Contender {
                lock,
                counter,
                rounds: 6,
                section: SimDur::from_us(5),
                spans: spans.clone(),
                grants: grants.clone(),
                entered_at: SimTime::ZERO,
            }) as Box<dyn Program>
        })
        .collect();
    let model = GwcModel::new(&groups, 2);
    let mut machine = Machine::new(
        Box::new(Ring::new(2)),
        LinkTiming::paper_1994(),
        groups,
        programs,
        model,
        MachineConfig::default(),
    );
    machine.init_var(lock, lockval::FREE);
    machine.fabric_mut().set_loss(0.25, 99);
    machine
        .model_mut()
        .set_grant_watchdog(Some(SimDur::from_us(50)));
    let result = run(machine, RunOptions::default());

    let stats = result.machine.model().stats();
    assert!(
        stats.grant_retransmissions > 0,
        "a grant must have been lost at this loss rate: {stats:?}"
    );
    assert_eq!(
        result.machine.mem(n(0)).read(counter),
        12,
        "every section ran: each lost grant was retransmitted to its holder"
    );
    // The retransmissions reached node 1, the only member a grant can be
    // lost on the way to, and it entered once per round.
    assert_eq!(grants.borrow().iter().filter(|&&g| g == 1).count(), 6);
    assert_eq!(result.machine.model().lock_holder(mutex_group), None);
    assert_eq!(result.machine.model().lock_queue_len(mutex_group), 0);
}

//! Integration tests of the entry- and release-consistency baselines: the
//! same contention workload that validates GWC must also hold mutual
//! exclusion and converge under both baselines, and each model's signature
//! costs (demand fetches, invalidations, blocked releases, forwards) must
//! appear where the paper charges them.

#![allow(clippy::type_complexity)]

use std::cell::RefCell;
use std::rc::Rc;

use sesame_consistency::{EntryModel, ReleaseModel};
use sesame_dsm::{
    run, AppEvent, GroupSpec, GroupTable, Machine, MachineConfig, Model, NodeApi, Program,
    RunOptions, RunResult, VarId, Word,
};
use sesame_net::{Line, LinkTiming, MeshTorus2d, NodeId, Topology};
use sesame_sim::{SimDur, SimTime};

fn n(id: u32) -> NodeId {
    NodeId::new(id)
}
fn v(id: u32) -> VarId {
    VarId::new(id)
}

const LOCK: VarId = VarId::new(0);
const COUNTER: VarId = VarId::new(1);

/// Acquire -> compute -> read+increment counter -> release, `rounds` times.
/// Reads go through `fetch` so the workload is model-agnostic (local under
/// GWC/release, possibly a demand fetch under entry consistency).
struct Contender {
    rounds: u32,
    section: SimDur,
    spans: Rc<RefCell<Vec<(u32, SimTime, SimTime)>>>,
    entered: SimTime,
}

impl Program for Contender {
    fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
        match ev {
            AppEvent::Started if self.rounds > 0 => {
                api.acquire(LOCK);
            }
            AppEvent::Acquired { lock } if lock == LOCK => {
                self.entered = api.now();
                api.compute(self.section, 0);
            }
            AppEvent::ComputeDone { .. } => {
                api.fetch(COUNTER);
            }
            AppEvent::ValueReady { var, value } if var == COUNTER => {
                api.write(COUNTER, value + 1);
                api.release(LOCK);
            }
            AppEvent::Released { lock } if lock == LOCK => {
                self.spans
                    .borrow_mut()
                    .push((api.id().get(), self.entered, api.now()));
                self.rounds -= 1;
                if self.rounds > 0 {
                    api.acquire(LOCK);
                }
            }
            _ => {}
        }
    }
}

fn contention_machine<M: Model>(
    nodes: u32,
    rounds: u32,
    make_model: impl FnOnce(&GroupTable, usize) -> M,
) -> (Machine<M>, Rc<RefCell<Vec<(u32, SimTime, SimTime)>>>) {
    let topo: Box<dyn Topology> = Box::new(MeshTorus2d::with_nodes(nodes as usize));
    let groups = GroupTable::new(vec![GroupSpec {
        root: n(0),
        members: (0..nodes).map(n).collect(),
        vars: vec![LOCK, COUNTER],
        mutex_lock: Some(LOCK),
    }])
    .unwrap();
    let spans = Rc::new(RefCell::new(Vec::new()));
    let programs: Vec<Box<dyn Program>> = (0..nodes)
        .map(|_| {
            Box::new(Contender {
                rounds,
                section: SimDur::from_us(3),
                spans: spans.clone(),
                entered: SimTime::ZERO,
            }) as Box<dyn Program>
        })
        .collect();
    let model = make_model(&groups, nodes as usize);
    let machine = Machine::new(
        topo,
        LinkTiming::paper_1994(),
        groups,
        programs,
        model,
        MachineConfig::default(),
    );
    (machine, spans)
}

fn assert_exclusion_and_count<M: Model>(
    result: &RunResult<M>,
    spans: &[(u32, SimTime, SimTime)],
    expected_sections: usize,
) {
    assert_eq!(spans.len(), expected_sections, "every round completed");
    let mut sorted = spans.to_vec();
    sorted.sort_by_key(|&(_, enter, _)| enter);
    for w in sorted.windows(2) {
        assert!(
            w[0].2 <= w[1].1,
            "critical sections overlap: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    // The counter's authoritative copy reflects every increment. Under
    // entry consistency the authoritative copy lives with the token owner;
    // query the memory of the node that finished last.
    let last_node = sorted.last().unwrap().0;
    assert_eq!(
        result.machine.mem(n(last_node)).read(COUNTER),
        expected_sections as Word
    );
}

#[test]
fn entry_consistency_preserves_mutual_exclusion() {
    let (machine, spans) = contention_machine(5, 4, EntryModel::new);
    let result = run(machine, RunOptions::default());
    assert_exclusion_and_count(&result, &spans.borrow(), 20);
    let stats = result.machine.model().stats();
    assert!(stats.transfers > 0, "the token moved between nodes");
    assert!(
        stats.data_bytes_shipped > 0,
        "guarded data ships with the lock"
    );
}

#[test]
fn release_consistency_preserves_mutual_exclusion() {
    let (machine, spans) = contention_machine(5, 4, ReleaseModel::new);
    let result = run(machine, RunOptions::default());
    assert_exclusion_and_count(&result, &spans.borrow(), 20);
    let stats = result.machine.model().stats();
    assert!(stats.updates > 0);
    assert_eq!(stats.acks, stats.updates, "every update acknowledged");
    assert!(
        stats.blocked_releases > 0,
        "releases block on outstanding updates"
    );
    assert!(stats.forwards > 0, "requests forwarded to the owner");
    // All copies converge under the update protocol.
    for i in 0..5 {
        assert_eq!(result.machine.mem(n(i)).read(COUNTER), 20, "node {i}");
    }
}

#[test]
fn entry_demand_fetch_costs_a_round_trip_then_caches() {
    // Node 2 reads a home-based (non-guarded) variable owned by node 0's
    // group root across 4 hops; the first read is remote, the second local.
    let data = v(5);
    let times: Rc<RefCell<Vec<SimTime>>> = Rc::new(RefCell::new(Vec::new()));
    let t = times.clone();
    let reader = move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
        AppEvent::Started => api.fetch(data),
        AppEvent::ValueReady { var, .. } if var == data => {
            t.borrow_mut().push(api.now());
            if t.borrow().len() == 1 {
                api.fetch(data); // second read: now cached
            }
        }
        _ => {}
    };
    let topo: Box<dyn Topology> = Box::new(Line::new(5));
    let groups = GroupTable::new(vec![GroupSpec {
        root: n(0),
        members: (0..5).map(n).collect(),
        vars: vec![data],
        mutex_lock: None,
    }])
    .unwrap();
    let mut programs: Vec<Box<dyn Program>> = vec![
        Box::new(sesame_dsm::IdleProgram),
        Box::new(sesame_dsm::IdleProgram),
        Box::new(sesame_dsm::IdleProgram),
        Box::new(sesame_dsm::IdleProgram),
        Box::new(reader),
    ];
    let model = EntryModel::new(&groups, 5);
    let machine = Machine::new(
        topo,
        LinkTiming::paper_1994(),
        groups,
        std::mem::take(&mut programs),
        model,
        MachineConfig::default(),
    );
    let result = run(machine, RunOptions::default());
    let times = times.borrow();
    assert_eq!(times.len(), 2);
    // First read: request (16B over 4 hops = 128 + 800) + reply the same:
    // 1856ns round trip.
    assert_eq!(times[0], SimTime::from_nanos(1856));
    // Second read: local, same timestamp as the first completion cascade.
    assert_eq!(times[1], times[0]);
    assert_eq!(result.machine.model().stats().fetches, 1);
}

#[test]
fn entry_invalidation_forces_refetch_after_remote_write() {
    let data = v(5);
    let seen: Rc<RefCell<Vec<(SimTime, Word)>>> = Rc::new(RefCell::new(Vec::new()));
    let s = seen.clone();
    // Node 2 reads, waits, reads again after node 0 (the home) rewrote.
    let reader = move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
        AppEvent::Started => api.fetch(data),
        AppEvent::ValueReady { var, value } if var == data => {
            s.borrow_mut().push((api.now(), value));
            if s.borrow().len() == 1 {
                api.set_timer(SimDur::from_us(50), 1);
            }
        }
        AppEvent::TimerFired { .. } => api.fetch(data),
        _ => {}
    };
    let writer = move |ev: AppEvent, api: &mut NodeApi<'_>| {
        if ev == AppEvent::Started {
            api.write(data, 9); // home writes before the reader's re-read
            api.set_timer(SimDur::from_us(10), 1);
        } else if matches!(ev, AppEvent::TimerFired { .. }) {
            api.write(data, 44);
        }
    };
    let topo: Box<dyn Topology> = Box::new(Line::new(3));
    let groups = GroupTable::new(vec![GroupSpec {
        root: n(0),
        members: (0..3).map(n).collect(),
        vars: vec![data],
        mutex_lock: None,
    }])
    .unwrap();
    let programs: Vec<Box<dyn Program>> = vec![
        Box::new(writer),
        Box::new(sesame_dsm::IdleProgram),
        Box::new(reader),
    ];
    let model = EntryModel::new(&groups, 3);
    let machine = Machine::new(
        topo,
        LinkTiming::paper_1994(),
        groups,
        programs,
        model,
        MachineConfig::default(),
    );
    let result = run(machine, RunOptions::default());
    let seen = seen.borrow();
    assert_eq!(seen.len(), 2);
    assert_eq!(seen[0].1, 9, "first read sees the initial write");
    assert_eq!(seen[1].1, 44, "re-read after invalidation sees the rewrite");
    assert_eq!(
        result.machine.model().stats().fetches,
        2,
        "both reads remote"
    );
    assert!(result.machine.model().stats().invalidations >= 1);
}

#[test]
fn release_updates_reach_all_members_eagerly() {
    let data = v(5);
    let seen: Rc<RefCell<Vec<(u32, Word)>>> = Rc::new(RefCell::new(Vec::new()));
    let mk_recorder = || {
        let s = seen.clone();
        move |ev: AppEvent, api: &mut NodeApi<'_>| {
            if let AppEvent::Updated { var, value, .. } = ev {
                if var == data {
                    s.borrow_mut().push((api.id().get(), value));
                }
            }
        }
    };
    let topo: Box<dyn Topology> = Box::new(Line::new(4));
    let groups = GroupTable::new(vec![GroupSpec {
        root: n(0),
        members: (0..4).map(n).collect(),
        vars: vec![data],
        mutex_lock: None,
    }])
    .unwrap();
    let programs: Vec<Box<dyn Program>> = vec![
        Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| {
            if ev == AppEvent::Started {
                api.write(data, 31);
            }
        }),
        Box::new(mk_recorder()),
        Box::new(mk_recorder()),
        Box::new(mk_recorder()),
    ];
    let model = ReleaseModel::new(&groups, 4);
    let machine = Machine::new(
        topo,
        LinkTiming::paper_1994(),
        groups,
        programs,
        model,
        MachineConfig::default(),
    );
    let result = run(machine, RunOptions::default());
    let mut got: Vec<u32> = seen.borrow().iter().map(|&(node, _)| node).collect();
    got.sort_unstable();
    assert_eq!(got, vec![1, 2, 3], "every other member got the update");
    for i in 0..4 {
        assert_eq!(result.machine.mem(n(i)).read(data), 31);
    }
    assert_eq!(result.machine.model().stats().updates, 3);
    assert_eq!(result.machine.model().stats().acks, 3);
}

#[test]
fn entry_and_release_runs_are_deterministic() {
    let once_entry = || {
        let (machine, spans) = contention_machine(4, 3, EntryModel::new);
        let r = run(machine, RunOptions::default());
        let s = spans.borrow().clone();
        (r.end, r.events, s)
    };
    assert_eq!(once_entry(), once_entry());
    let once_rel = || {
        let (machine, spans) = contention_machine(4, 3, ReleaseModel::new);
        let r = run(machine, RunOptions::default());
        let s = spans.borrow().clone();
        (r.end, r.events, s)
    };
    assert_eq!(once_rel(), once_rel());
}

/// Release consistency: a request forwarded to a stale owner chases the
/// handoff breadcrumb to the current owner — three holders in a row.
#[test]
fn release_forward_chases_direct_handoffs() {
    let (machine, spans) = contention_machine(4, 2, ReleaseModel::new);
    let result = run(machine, RunOptions::default());
    let spans = spans.borrow();
    assert_eq!(spans.len(), 8, "every section completed despite chasing");
    // Forward traffic happened (manager -> owner at least once).
    assert!(result.machine.model().stats().forwards >= 1);
    // And the final owner pointer is coherent: someone owns it or nobody.
    let _ = result.machine.model().owner_of(LOCK);
}

/// Release consistency's signature cost: the release completes only after
/// the update's acknowledgement round trip.
#[test]
fn release_blocks_for_exactly_one_ack_round_trip() {
    let data = v(5);
    let release_time: Rc<RefCell<Option<SimTime>>> = Rc::new(RefCell::new(None));
    let rt = release_time.clone();
    let topo: Box<dyn Topology> = Box::new(Line::new(3));
    let groups = GroupTable::new(vec![GroupSpec {
        root: n(0),
        members: (0..3).map(n).collect(),
        vars: vec![LOCK, data],
        mutex_lock: Some(LOCK),
    }])
    .unwrap();
    let programs: Vec<Box<dyn Program>> = vec![
        Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
            AppEvent::Started => api.acquire(LOCK),
            AppEvent::Acquired { .. } => {
                api.write(data, 9);
                api.release(LOCK);
            }
            AppEvent::Released { .. } => {
                *rt.borrow_mut() = Some(api.now());
            }
            _ => {}
        }),
        Box::new(sesame_dsm::IdleProgram),
        Box::new(sesame_dsm::IdleProgram),
    ];
    let model = ReleaseModel::new(&groups, 3);
    let machine = sesame_dsm::Machine::new(
        topo,
        LinkTiming::paper_1994(),
        groups,
        programs,
        model,
        MachineConfig::default(),
    );
    let result = run(machine, RunOptions::default());
    // Node 0 is the manager: acquire is local at t=0. The write fans out
    // to nodes 1 (1 hop) and 2 (2 hops); the farthest ack returns after
    // (128+400) + (64+400) = 992ns, which is when the release completes.
    assert_eq!(
        release_time.borrow().expect("released"),
        SimTime::from_nanos(992)
    );
    assert_eq!(result.machine.model().stats().blocked_releases, 1);
}

/// Entry consistency: an owner that gave up the token forwards late
/// requests to the current owner (token chasing terminates).
#[test]
fn entry_requests_chase_a_moving_token() {
    let (machine, spans) = contention_machine(5, 3, EntryModel::new);
    let result = run(machine, RunOptions::default());
    assert_eq!(spans.borrow().len(), 15);
    let stats = result.machine.model().stats();
    assert!(
        stats.transfers >= 5,
        "token moved between owners: {stats:?}"
    );
}

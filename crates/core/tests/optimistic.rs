//! Integration tests of the optimistic mutual exclusion engine on the GWC
//! machine, including the paper's Figure 7 "most complex rollback
//! interaction" and the hardware-blocking hazard it motivates.

use std::cell::RefCell;
use std::rc::Rc;

use sesame_core::{Completion, MutexSignal, OptimisticConfig, OptimisticMutex, Path};
use sesame_dsm::{
    lockval, run, AppEvent, GroupSpec, GroupTable, GwcModel, GwcMutation, Machine, MachineConfig,
    NodeApi, Program, RunOptions, RunResult, VarId, Word,
};
use sesame_net::{Line, LinkTiming, NodeId, Topology};
use sesame_sim::{SimDur, SimTime, TraceKind};

fn n(id: u32) -> NodeId {
    NodeId::new(id)
}

const LOCK: VarId = VarId::new(0);
const DATA: VarId = VarId::new(1);
const ENTER_TAG: u64 = 7000;

type DoneLog = Rc<RefCell<Vec<(u32, Completion, SimTime)>>>;

/// A worker that enters the mutex after `start_delay`, computes `section`,
/// then executes the body `a = a*10 + contribution`, `rounds` times.
struct Worker {
    mutex: OptimisticMutex,
    start_delay: SimDur,
    section: SimDur,
    contribution: Word,
    rounds: u32,
    done: DoneLog,
}

impl Worker {
    fn new(
        config: OptimisticConfig,
        start_delay: SimDur,
        section: SimDur,
        contribution: Word,
        rounds: u32,
        done: DoneLog,
    ) -> Self {
        Worker {
            mutex: OptimisticMutex::new(LOCK, vec![DATA], config),
            start_delay,
            section,
            contribution,
            rounds,
            done,
        }
    }
}

impl Program for Worker {
    fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
        match &ev {
            AppEvent::Started => {
                if self.rounds > 0 {
                    api.set_timer(self.start_delay, ENTER_TAG);
                }
                return;
            }
            AppEvent::TimerFired { tag: ENTER_TAG } => {
                self.mutex.enter(api, self.section).expect("not nested");
                return;
            }
            _ => {}
        }
        match self.mutex.on_event(&ev, api) {
            Some(MutexSignal::ExecuteBody) => {
                let a = api.read(DATA);
                api.write(DATA, (a * 10 + self.contribution) % 1_000_000_007);
                let done = self.mutex.body_done(api);
                assert!(done.is_none(), "completion arrives via Released");
            }
            Some(MutexSignal::Completed(c)) => {
                self.done.borrow_mut().push((api.id().get(), c, api.now()));
                self.rounds -= 1;
                if self.rounds > 0 {
                    api.set_timer(SimDur::from_nanos(1), ENTER_TAG);
                }
            }
            None => {}
        }
    }
}

/// One sharing group over all nodes with LOCK (mutex) and DATA, rooted at
/// `root`; DATA initialized to 1 everywhere, LOCK to FREE.
fn build(
    topo: Box<dyn Topology>,
    root: u32,
    programs: Vec<Box<dyn Program>>,
    cfg: MachineConfig,
) -> Machine<GwcModel> {
    let nodes = topo.len();
    let groups = GroupTable::new(vec![GroupSpec {
        root: n(root),
        members: (0..nodes as u32).map(n).collect(),
        vars: vec![LOCK, DATA],
        mutex_lock: Some(LOCK),
    }])
    .unwrap();
    let model = GwcModel::new(&groups, nodes);
    let mut machine = Machine::new(topo, LinkTiming::paper_1994(), groups, programs, model, cfg);
    machine.init_var(LOCK, lockval::FREE);
    machine.init_var(DATA, 1);
    machine
}

fn idle() -> Box<dyn Program> {
    Box::new(sesame_dsm::IdleProgram)
}

#[test]
fn uncontended_optimistic_overlaps_lock_round_trip() {
    let run_one = |optimistic: bool| -> (SimTime, Completion) {
        let done: DoneLog = Rc::new(RefCell::new(Vec::new()));
        let cfg = OptimisticConfig {
            optimistic,
            ..OptimisticConfig::default()
        };
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(Worker::new(
                cfg,
                SimDur::ZERO,
                SimDur::from_nanos(2000),
                7,
                1,
                done.clone(),
            )),
            idle(),
            idle(), // root, 2 hops from the worker
        ];
        let machine = build(
            Box::new(Line::new(3)),
            2,
            programs,
            MachineConfig::default(),
        );
        let result = run(machine, RunOptions::default());
        let log = done.borrow();
        assert_eq!(log.len(), 1);
        let _ = result;
        (log[0].2, log[0].1)
    };

    let (t_opt, c_opt) = run_one(true);
    let (t_reg, c_reg) = run_one(false);
    assert_eq!(c_opt.path, Path::Optimistic);
    assert_eq!(c_opt.rollbacks, 0);
    assert!(
        c_opt.fully_overlapped,
        "grant should arrive mid-computation"
    );
    assert_eq!(c_reg.path, Path::Regular);
    assert!(
        t_opt < t_reg,
        "optimistic ({t_opt}) must beat regular ({t_reg})"
    );
    // Request round trip: 2 hops out (128 + 400) + grant multicast back
    // (128 + 400) = 1056ns; the 2000ns section hides all of it.
    assert_eq!(t_opt.as_nanos(), 2000);
    assert_eq!(t_reg.as_nanos(), 1056 + 2000);
    // The paper's "halving" claim: speedup here is 3056/2000 = 1.53.
    let speedup = t_reg.as_nanos() as f64 / t_opt.as_nanos() as f64;
    assert!((speedup - 1.528).abs() < 0.01, "speedup {speedup}");
}

/// The paper's Figure 7: a far-away optimistic requester loses the race to
/// a near-root competitor whose entire lock session reaches the root before
/// the optimist's request does. The optimist's in-flight update is then
/// *accepted* (it holds the lock by arrival time), so the stale echo must
/// be dropped by hardware blocking lest it corrupt the re-execution.
fn figure7(mutation: GwcMutation) -> (RunResult<GwcModel>, Vec<(u32, Completion, SimTime)>) {
    let done: DoneLog = Rc::new(RefCell::new(Vec::new()));
    // Line of 7: optimist A at node 0, root at node 5, competitor B at 6.
    let a = Worker::new(
        OptimisticConfig::default(),
        SimDur::ZERO,
        SimDur::from_nanos(1100),
        7,
        1,
        done.clone(),
    );
    let b = Worker::new(
        OptimisticConfig {
            optimistic: false,
            ..OptimisticConfig::default()
        },
        SimDur::ZERO,
        SimDur::from_nanos(100),
        2,
        1,
        done.clone(),
    );
    let programs: Vec<Box<dyn Program>> = vec![
        Box::new(a),
        idle(),
        idle(),
        idle(),
        idle(),
        idle(),
        Box::new(b),
    ];
    let mut machine = build(
        Box::new(Line::new(7)),
        5,
        programs,
        MachineConfig::default(),
    );
    machine.model_mut().set_mutation(mutation);
    let result = run(
        machine,
        RunOptions {
            tracing: true,
            ..RunOptions::default()
        },
    );
    let log = done.borrow().clone();
    (result, log)
}

#[test]
fn figure7_rollback_with_hardware_blocking_produces_correct_values() {
    let (result, log) = figure7(GwcMutation::None);
    assert_eq!(log.len(), 2);
    let b_done = log.iter().find(|(node, _, _)| *node == 6).unwrap();
    let a_done = log.iter().find(|(node, _, _)| *node == 0).unwrap();
    assert_eq!(b_done.1.path, Path::Regular);
    assert_eq!(b_done.1.rollbacks, 0);
    assert_eq!(a_done.1.path, Path::Optimistic);
    assert_eq!(a_done.1.rollbacks, 1, "A must roll back exactly once");

    // B first: 1 -> 12; A re-executes after rollback: 12 -> 127.
    for i in 0..7 {
        assert_eq!(result.machine.mem(n(i)).read(DATA), 127, "node {i}");
    }

    let stats = result.machine.model().stats();
    // A's optimistic write arrived after its own grant and was accepted, so
    // the root dropped nothing...
    assert_eq!(stats.root_drops, 0);
    // ...and the poisonous echo (plus each holder's legitimate echoes) was
    // dropped locally by hardware blocking: B's write, A's stale write,
    // A's correct write.
    assert_eq!(stats.hw_block_drops, 3);
    assert_eq!(stats.grants, 2);
    // The trace records the rollback on node 0.
    let rollbacks = result.trace.of_kind(TraceKind::MutexRollback);
    assert_eq!(rollbacks.map(|e| e.actor).collect::<Vec<_>>(), [0]);
}

#[test]
fn figure7_without_hardware_blocking_corrupts_the_reexecution() {
    let (result, log) = figure7(GwcMutation::NoHwBlock);
    assert_eq!(log.len(), 2);
    // The stale echo a=17 (A's rolled-back optimistic value, accepted by
    // the root because A held the lock by then) lands on A after its
    // rollback restored a=1 and after B's valid a=12 arrived; A's
    // re-execution then reads 17 and produces 177 instead of 127.
    for i in 0..7 {
        assert_eq!(
            result.machine.mem(n(i)).read(DATA),
            177,
            "node {i}: the hazard the paper's Figure 6 exists to prevent"
        );
    }
    assert_eq!(result.machine.model().stats().hw_block_drops, 0);
}

#[test]
fn contended_optimistic_write_is_discarded_at_root() {
    // A and B are both near the root; B wins; A's optimistic write arrives
    // while B still holds the lock and is discarded there (stats.root_drops).
    let done: DoneLog = Rc::new(RefCell::new(Vec::new()));
    let a = Worker::new(
        OptimisticConfig::default(),
        SimDur::from_nanos(50), // request later than B's
        SimDur::from_nanos(600),
        7,
        1,
        done.clone(),
    );
    let b = Worker::new(
        OptimisticConfig {
            optimistic: false,
            ..OptimisticConfig::default()
        },
        SimDur::ZERO,
        SimDur::from_us(20), // holds long enough for A's write to arrive
        2,
        1,
        done.clone(),
    );
    let programs: Vec<Box<dyn Program>> = vec![Box::new(a), idle(), Box::new(b)];
    let machine = build(
        Box::new(Line::new(3)),
        1,
        programs,
        MachineConfig::default(),
    );
    let result = run(machine, RunOptions::default());

    let log = done.borrow();
    let a_done = log.iter().find(|(node, _, _)| *node == 0).unwrap();
    assert_eq!(a_done.1.rollbacks, 1);
    let stats = result.machine.model().stats();
    assert_eq!(stats.root_drops, 1, "A's optimistic write dropped at root");
    // Correct final value: B then A, 1 -> 12 -> 127.
    for i in 0..3 {
        assert_eq!(result.machine.mem(n(i)).read(DATA), 127, "node {i}");
    }
}

#[test]
fn sustained_contention_drives_the_regular_path() {
    // Two hammering contenders: after enough rollback/grant observations
    // the usage history crosses the threshold and the engine goes regular,
    // adding no optimistic traffic under heavy contention.
    let done: DoneLog = Rc::new(RefCell::new(Vec::new()));
    let rounds = 30;
    let mk = |delay: u64| {
        Worker::new(
            OptimisticConfig::default(),
            SimDur::from_nanos(delay),
            SimDur::from_nanos(400),
            3,
            rounds,
            done.clone(),
        )
    };
    let programs: Vec<Box<dyn Program>> = vec![Box::new(mk(0)), idle(), Box::new(mk(10))];
    let machine = build(
        Box::new(Line::new(3)),
        1,
        programs,
        MachineConfig::default(),
    );
    let result = run(machine, RunOptions::default());

    assert_eq!(done.borrow().len(), 2 * rounds as usize, "all rounds ran");
    // Mutual exclusion held: every section multiplied by 10 and added 3, so
    // the final value is consistent everywhere.
    let final_val = result.machine.mem(n(0)).read(DATA);
    for i in 0..3 {
        assert_eq!(result.machine.mem(n(i)).read(DATA), final_val);
    }
    // Both paths were exercised and the later entries were regular.
    let paths: Vec<Path> = done.borrow().iter().map(|(_, c, _)| c.path).collect();
    assert!(paths.contains(&Path::Optimistic));
    assert!(paths.contains(&Path::Regular));
    let later = &paths[paths.len() / 2..];
    assert!(
        later.iter().filter(|p| **p == Path::Regular).count() > later.len() / 2,
        "sustained contention should mostly take the regular path: {paths:?}"
    );
}

#[test]
fn reentering_an_active_mutex_is_an_error() {
    let errored = Rc::new(RefCell::new(false));
    let flag = errored.clone();
    let program = move |ev: AppEvent, api: &mut NodeApi<'_>| {
        if ev == AppEvent::Started {
            let mut m = OptimisticMutex::new(LOCK, vec![DATA], OptimisticConfig::default());
            m.enter(api, SimDur::from_us(1)).unwrap();
            *flag.borrow_mut() = m.enter(api, SimDur::from_us(1)).is_err();
        }
    };
    let programs: Vec<Box<dyn Program>> = vec![Box::new(program), idle()];
    let machine = build(
        Box::new(Line::new(2)),
        1,
        programs,
        MachineConfig::default(),
    );
    run(machine, RunOptions::default());
    assert!(*errored.borrow(), "nested enter must fail");
}

#[test]
fn figure7_is_deterministic() {
    let once = || {
        let (result, log) = figure7(GwcMutation::None);
        (result.end, result.events, log)
    };
    assert_eq!(once(), once());
}

#[test]
fn reentering_during_own_free_echo_causes_a_flicker() {
    // A node that releases and immediately re-enters sees its own FREE
    // echo arrive while the new request's interrupt is armed: the paper's
    // "lock flicker" (Figure 5's free branch). The engine re-arms and the
    // following grant completes the section.
    let done: DoneLog = Rc::new(RefCell::new(Vec::new()));
    let worker = Worker::new(
        OptimisticConfig::default(),
        SimDur::ZERO,
        SimDur::from_nanos(400),
        3,
        2, // two back-to-back sections (1ns apart, well inside the echo RTT)
        done.clone(),
    );
    let programs: Vec<Box<dyn Program>> = vec![Box::new(worker), idle()];
    let machine = build(
        Box::new(Line::new(2)),
        1,
        programs,
        MachineConfig::default(),
    );
    let result = run(machine, RunOptions::default());
    assert_eq!(done.borrow().len(), 2, "both sections completed");
    // The flicker is visible in the engine stats via the trace? The
    // Worker owns the engine; infer from the run outcome instead: the
    // second completion must exist and nothing rolled back.
    for (_, c, _) in done.borrow().iter() {
        assert_eq!(c.rollbacks, 0);
        assert_eq!(c.path, Path::Optimistic);
    }
    assert_eq!(result.machine.model().stats().grants, 2);
}

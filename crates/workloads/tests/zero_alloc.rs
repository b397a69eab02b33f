//! Counting-allocator proof that steady-state dispatch allocates
//! nothing: once a mutex-contention run has warmed up (routes built,
//! queue slab and scratch buffers at their high-water marks), every
//! further round of acquire → write → release — multicast fan-out,
//! sequenced deliveries, lock hand-off and all — must touch the heap
//! zero times. That includes the root's retransmission history: nothing
//! caps its length; retiring the writes every member has applied keeps it
//! in the block it already has.
//!
//! Method: run the identical scenario twice, differing only in how many
//! rounds each contender performs. Both runs share the same warm-up
//! (byte-identical schedules until the short run's contenders stop), so
//! the long run's extra rounds are pure steady state — its allocation
//! total must EQUAL the short run's, not merely stay close.
//!
//! The same holds with tracing on: every trace record is `Copy` data, so
//! with an observer attached that keeps nothing, the extra rounds still
//! add zero allocations.

use std::cell::RefCell;
use std::rc::Rc;

use sesame_alloc_probe::{allocations, CountingAlloc};
use sesame_dsm::{
    lockval, run_observed, AppEvent, GroupSpec, GroupTable, GwcModel, Machine, MachineConfig,
    NodeApi, Program, RunOptions, VarId,
};
use sesame_net::{LinkTiming, NodeId, Ring, Topology};
use sesame_sim::{SimDur, TraceEntry, TraceObserver};

// Per-thread counters: sibling tests cannot leak into a measured window.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const LOCK: u32 = 0;
const COUNTER: u32 = 1;

fn n(id: u32) -> NodeId {
    NodeId::new(id)
}
fn v(id: u32) -> VarId {
    VarId::new(id)
}

/// A plain acquire → bump counter → release contender (no latency
/// bookkeeping, no per-completion state — the pure protocol hot loop).
fn contender(rounds: u32, think_ns: u64) -> Box<dyn Program> {
    let mut left = rounds;
    Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
        AppEvent::Started => api.acquire(v(LOCK)),
        AppEvent::Acquired { lock } if lock == v(LOCK) => {
            let c = api.read(v(COUNTER));
            api.write(v(COUNTER), c + 1);
            api.release(v(LOCK));
            left -= 1;
            if left > 0 {
                api.set_timer(
                    SimDur::from_nanos(think_ns + 17 * u64::from(api.id().get())),
                    0,
                );
            }
        }
        AppEvent::TimerFired { .. } => api.acquire(v(LOCK)),
        _ => {}
    })
}

type Observer = Option<Rc<RefCell<dyn TraceObserver>>>;

/// Sees every record and keeps none of them.
struct Discard;

impl TraceObserver for Discard {
    fn on_record(&mut self, _: &TraceEntry) {}
}

/// Runs `contenders` hammers for `rounds` rounds each over the flattened
/// dispatch path, feeding `observer` if one is given, and returns
/// (allocations during the run, final counter).
fn measured_run(contenders: u32, rounds: u32, observer: Observer) -> (u64, u64) {
    let topo: Box<dyn Topology> = Box::new(Ring::new(contenders as usize + 1));
    let nodes = topo.len();
    let groups = GroupTable::new(vec![GroupSpec {
        root: n(0),
        members: (0..nodes as u32).map(n).collect(),
        vars: vec![v(LOCK), v(COUNTER)],
        mutex_lock: Some(v(LOCK)),
    }])
    .unwrap();
    let model = GwcModel::new(&groups, nodes);
    let mut programs: Vec<Box<dyn Program>> = Vec::new();
    programs.push(Box::new(|_: AppEvent, _: &mut NodeApi<'_>| {}));
    for _ in 0..contenders {
        programs.push(contender(rounds, 500));
    }
    let cfg = MachineConfig {
        pruned_multicast: true,
    };
    let mut machine = Machine::new(topo, LinkTiming::paper_1994(), groups, programs, model, cfg);
    machine.init_var(v(LOCK), lockval::FREE);

    let before = allocations();
    let result = run_observed(machine, RunOptions::default(), observer);
    let allocs = allocations() - before;
    let counter = result.machine.mem(n(1)).read(v(COUNTER));
    assert_eq!(
        counter,
        i64::from(contenders) * i64::from(rounds),
        "every round must complete"
    );
    (allocs, counter as u64)
}

/// Asserts that 50 extra rounds per contender add no allocation, under
/// the observer `observer()` builds.
fn assert_steady_state_allocates_nothing(observer: impl Fn() -> Observer) {
    let (short_allocs, short_count) = measured_run(4, 10, observer());
    let (long_allocs, long_count) = measured_run(4, 60, observer());
    assert!(long_count > short_count * 5, "long run really ran longer");
    // Warm-up (route construction, queue slab growth, scratch capacity)
    // is identical in both runs; the 200 extra critical sections of the
    // long run must not add a single allocation.
    assert_eq!(
        long_allocs,
        short_allocs,
        "steady-state dispatch allocated: {} allocations over {} extra rounds",
        long_allocs.saturating_sub(short_allocs),
        long_count - short_count,
    );
}

#[test]
fn steady_state_dispatch_allocates_nothing() {
    assert_steady_state_allocates_nothing(|| None);
}

#[test]
fn steady_state_tracing_into_an_observer_allocates_nothing() {
    assert_steady_state_allocates_nothing(|| Some(Rc::new(RefCell::new(Discard))));
}

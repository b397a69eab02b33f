//! Integration tests of the paper's §2 synchronization patterns on the
//! GWC machine: the single-writer seqlock (ordinary shared variables as
//! reader/writer locks) and multi-group mutual exclusion.

#![allow(clippy::type_complexity)]

use std::cell::RefCell;
use std::rc::Rc;

use sesame_core::builder::SystemBuilder;
use sesame_core::{MultiMutex, MultiMutexSignal, SeqReader, SeqWriter, Snapshot};
use sesame_dsm::{run, AppEvent, GroupSpec, NodeApi, Program, RunOptions, VarId, Word};
use sesame_net::NodeId;
use sesame_sim::{SimDur, SimTime};

fn n(id: u32) -> NodeId {
    NodeId::new(id)
}
// ---------------------------------------------------------------------
// Seqlock (single-writer) pattern
// ---------------------------------------------------------------------

const VERSION: VarId = VarId::new(0);
const FIELD_A: VarId = VarId::new(1);
const FIELD_B: VarId = VarId::new(2);
const FIELD_C: VarId = VarId::new(3);

/// The writer publishes `rounds` updates; field values are deterministic
/// functions of the round so readers can detect torn snapshots.
struct Publisher {
    writer: SeqWriter,
    rounds: Word,
    published: Word,
}

impl Program for Publisher {
    fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
        match ev {
            AppEvent::Started => api.set_timer(SimDur::from_us(3), 1),
            AppEvent::TimerFired { .. } => {
                let r = self.published + 1;
                self.writer.begin(api);
                self.writer.write(api, FIELD_A, r * 100 + 1);
                self.writer.write(api, FIELD_B, r * 100 + 2);
                self.writer.write(api, FIELD_C, r * 100 + 3);
                self.writer.publish(api);
                self.published = r;
                if self.published < self.rounds {
                    api.set_timer(SimDur::from_us(7), 1);
                }
            }
            _ => {}
        }
    }
}

/// Readers attempt a snapshot on every observed write in the group and
/// record the outcome.
struct Observer {
    reader: SeqReader,
    snapshots: Rc<RefCell<Vec<(u32, Snapshot)>>>,
}

impl Program for Observer {
    fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
        if let AppEvent::Updated { .. } = ev {
            let snap = self.reader.snapshot(api, &[FIELD_A, FIELD_B, FIELD_C]);
            self.snapshots.borrow_mut().push((api.id().get(), snap));
        }
    }
}

#[test]
fn seqlock_readers_never_see_torn_snapshots() {
    let snapshots: Rc<RefCell<Vec<(u32, Snapshot)>>> = Rc::new(RefCell::new(Vec::new()));
    let rounds = 8;
    let mut builder = SystemBuilder::new(5)
        .shared_group(n(0), vec![VERSION, FIELD_A, FIELD_B, FIELD_C])
        .program(
            n(0),
            Box::new(Publisher {
                writer: SeqWriter::new(VERSION),
                rounds,
                published: 0,
            }),
        );
    for i in 1..5 {
        builder = builder.program(
            n(i),
            Box::new(Observer {
                reader: SeqReader::new(VERSION),
                snapshots: snapshots.clone(),
            }),
        );
    }
    let machine = builder.build().unwrap();
    let result = run(machine, RunOptions::default());

    let snapshots = snapshots.borrow();
    let mut consistent = 0;
    let mut retries = 0;
    for (node, snap) in snapshots.iter() {
        match snap {
            Snapshot::Consistent { version, values } => {
                consistent += 1;
                assert_eq!(version % 2, 0, "published versions are even");
                let r = version / 2;
                if r > 0 {
                    assert_eq!(
                        values,
                        &vec![r * 100 + 1, r * 100 + 2, r * 100 + 3],
                        "node {node} saw a torn snapshot at version {version}"
                    );
                }
            }
            Snapshot::Retry => retries += 1,
        }
    }
    assert!(consistent > 0, "some snapshots must validate");
    assert!(
        retries > 0,
        "mid-update (odd version) snapshots must occur: readers observe the \
         begin-write before the publish-write thanks to GWC ordering"
    );
    // Final state: every node converged to the last version's fields.
    for i in 0..5 {
        assert_eq!(
            result.machine.mem(n(i)).read(VERSION),
            rounds * 2,
            "node {i}"
        );
        assert_eq!(result.machine.mem(n(i)).read(FIELD_B), rounds * 100 + 2);
    }
}

// ---------------------------------------------------------------------
// Multi-group mutual exclusion
// ---------------------------------------------------------------------

const LOCK_X: VarId = VarId::new(10);
const DATA_X: VarId = VarId::new(11);
const LOCK_Y: VarId = VarId::new(20);
const DATA_Y: VarId = VarId::new(21);

/// A contender that takes a set of group locks, increments the guarded
/// counters, and records its critical-section span.
struct MultiWorker {
    mutex: MultiMutex,
    data: Vec<VarId>,
    rounds: u32,
    spans: Rc<RefCell<Vec<(u32, SimTime, SimTime)>>>,
    entered: SimTime,
}

impl Program for MultiWorker {
    fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
        if ev == AppEvent::Started {
            if self.rounds > 0 {
                self.mutex.enter(api).unwrap();
            }
            return;
        }
        match self.mutex.on_event(&ev, api) {
            Some(MultiMutexSignal::EnterSection) => {
                self.entered = api.now();
                for &d in &self.data {
                    let x = api.read(d);
                    api.write(d, x + 1);
                }
                self.mutex.release(api);
            }
            Some(MultiMutexSignal::Completed) => {
                self.spans
                    .borrow_mut()
                    .push((api.id().get(), self.entered, api.now()));
                self.rounds -= 1;
                if self.rounds > 0 {
                    self.mutex.enter(api).unwrap();
                }
            }
            None => {}
        }
    }
}

fn build_two_group_system(
    workers: Vec<(u32, Vec<VarId>, Vec<VarId>)>, // (node, locks, data)
    rounds: u32,
) -> (
    sesame_dsm::Machine<sesame_core::builder::ModelInstance>,
    Rc<RefCell<Vec<(u32, SimTime, SimTime)>>>,
) {
    let spans = Rc::new(RefCell::new(Vec::new()));
    let mut builder = SystemBuilder::new(6)
        // Two mutex groups with *different roots* — two independent lock
        // managers, as the paper prescribes for overlapping groups.
        .group(GroupSpec {
            root: n(0),
            members: (0..6).map(n).collect(),
            vars: vec![LOCK_X, DATA_X],
            mutex_lock: Some(LOCK_X),
        })
        .group(GroupSpec {
            root: n(1),
            members: (0..6).map(n).collect(),
            vars: vec![LOCK_Y, DATA_Y],
            mutex_lock: Some(LOCK_Y),
        })
        .init_var(LOCK_X, sesame_dsm::lockval::FREE)
        .init_var(LOCK_Y, sesame_dsm::lockval::FREE);
    for (node, locks, data) in workers {
        builder = builder.program(
            n(node),
            Box::new(MultiWorker {
                mutex: MultiMutex::new(locks),
                data,
                rounds,
                spans: spans.clone(),
                entered: SimTime::ZERO,
            }),
        );
    }
    (builder.build().unwrap(), spans)
}

#[test]
fn multi_group_sections_exclude_each_other_without_deadlock() {
    // Three contenders all take {X, Y}; sections must serialize globally.
    let rounds = 4;
    let (machine, spans) = build_two_group_system(
        vec![
            (2, vec![LOCK_X, LOCK_Y], vec![DATA_X, DATA_Y]),
            (3, vec![LOCK_Y, LOCK_X], vec![DATA_X, DATA_Y]), // reversed input order
            (4, vec![LOCK_X, LOCK_Y], vec![DATA_X, DATA_Y]),
        ],
        rounds,
    );
    let result = run(machine, RunOptions::default());
    let spans = spans.borrow();
    assert_eq!(spans.len(), 12, "no deadlock: every round completed");
    let mut sorted = spans.clone();
    sorted.sort_by_key(|&(_, enter, _)| enter);
    for w in sorted.windows(2) {
        assert!(w[0].2 <= w[1].1, "sections overlap: {w:?}");
    }
    assert_eq!(result.machine.mem(n(0)).read(DATA_X), 12);
    assert_eq!(result.machine.mem(n(1)).read(DATA_Y), 12);
}

#[test]
fn overlapping_lock_sets_stay_safe() {
    // One worker takes both groups; another only Y. Y's counter must
    // serialize across both; X's belongs to the first worker alone.
    let rounds = 5;
    let (machine, spans) = build_two_group_system(
        vec![
            (2, vec![LOCK_X, LOCK_Y], vec![DATA_X, DATA_Y]),
            (5, vec![LOCK_Y], vec![DATA_Y]),
        ],
        rounds,
    );
    let result = run(machine, RunOptions::default());
    assert_eq!(spans.borrow().len(), 10, "both workers finished");
    assert_eq!(result.machine.mem(n(0)).read(DATA_X), 5);
    assert_eq!(result.machine.mem(n(1)).read(DATA_Y), 10);
}

#[test]
fn canonical_order_prevents_the_classic_abba_deadlock() {
    // Workers constructed with opposite lock orders hammer both locks with
    // zero think time; with canonical ordering the run must drain.
    let rounds = 10;
    let (machine, spans) = build_two_group_system(
        vec![
            (2, vec![LOCK_X, LOCK_Y], vec![DATA_X]),
            (3, vec![LOCK_Y, LOCK_X], vec![DATA_X]),
        ],
        rounds,
    );
    let result = run(machine, RunOptions::default());
    assert_eq!(
        result.outcome,
        sesame_sim::RunOutcome::Drained,
        "the system must quiesce (no deadlock)"
    );
    assert_eq!(spans.borrow().len(), 20);
    assert_eq!(result.machine.mem(n(0)).read(DATA_X), 20);
}

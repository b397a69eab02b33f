//! Proof that the collector's steady state allocates nothing per record:
//! once every metric key exists, `Telemetry::observe` reaches metrics by
//! slot and appends causal nodes to a slab, so feeding it twice as many
//! records costs a handful of allocations per pass of the slab (its
//! doublings, and a collection behind the floor each time it has filled) —
//! not one `format!` per metric touch and one map node per cause record.
//!
//! And the bytes it holds: told the floor as a machine tells it, a slab no
//! larger than the collection window however long the run, not 24 bytes
//! per recorded cause; a 32-byte span per sequenced write while the run
//! lasts; the explained set at 40 bytes a node once it has finished.

use sesame_alloc_probe::{allocations, live_bytes, CountingAlloc};
use sesame_sim::{
    ApplyMode, CauseOp, SimDur, SimTime, TraceDetail, TraceEntry, TraceKind as K, TraceObserver,
};
use sesame_telemetry::Telemetry;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const NODES: usize = 8;

/// The slab length from which the collector shrinks behind a floor
/// (`COLLECT_FROM` in `causal.rs`): with little explained, the window.
const WINDOW: u64 = 64 << 10;

/// Emits mutex sections the way a contention run does: every canonical
/// record the observer turns into metrics, each protocol action followed
/// by its `"cause"` record, the occasional rollback with its blame — and,
/// between sections, the floor: a section cites only its own ids.
#[derive(Default)]
struct Feeder {
    now: u64,
    /// Cause records emitted so far (ids count up from 1).
    causes: u64,
    /// `root-seq` records emitted so far.
    sequenced: u64,
    records: u64,
}

impl Feeder {
    fn emit(&mut self, t: &mut Telemetry, actor: usize, kind: K, detail: TraceDetail) {
        t.observe(&TraceEntry {
            time: SimTime::from_nanos(self.now),
            actor,
            kind,
            detail,
        });
        self.records += 1;
    }

    /// A canonical record plus the cause record annotating it; returns the
    /// new causal id.
    fn act(
        &mut self,
        t: &mut Telemetry,
        actor: usize,
        kind: K,
        detail: TraceDetail,
        (cause, op): (u64, CauseOp),
    ) -> u64 {
        self.emit(t, actor, kind, detail);
        self.causes += 1;
        let id = self.causes;
        self.emit(t, actor, K::Cause, TraceDetail::Cause { id, cause, op });
        id
    }

    fn sections(&mut self, t: &mut Telemetry, count: u64) {
        for section in 0..count {
            let node = 1 + (section as usize % (NODES - 1));
            let var = TraceDetail::Var { var: 0 };
            // A root numbers its writes 1, 2, 3, … for as long as it runs.
            let seq = self.sequenced + 1;
            self.sequenced = seq;
            let (group, val, origin) = (0, section as i64, node as u32);
            t.on_cause_floor(self.causes + 1);
            self.now += 7;
            self.act(t, node, K::MutexEnter, var.clone(), (0, CauseOp::Acquire));
            self.emit(t, node, K::OptEnter, var.clone());
            self.emit(t, node, K::AccRead, var.clone());
            let write = self.act(t, node, K::AccWrite, var.clone(), (0, CauseOp::Write));
            self.emit(t, node, K::AccWriteLocal, var.clone());
            let packet = TraceDetail::Packet {
                from: origin,
                to: 0,
                bytes: 16,
                hops: 2,
                arrival_ns: self.now + 40,
            };
            let send = self.act(t, node, K::PktSend, packet, (write, CauseOp::Send));
            self.now += 40;
            let sequenced = TraceDetail::Seq {
                group,
                seq,
                var: 0,
                val,
                origin,
            };
            let seq_id = self.act(t, 0, K::RootSeq, sequenced, (send, CauseOp::Seq));
            self.emit(
                t,
                0,
                K::RootQueue,
                TraceDetail::QueueDepth { var: 0, depth: 2 },
            );
            self.emit(
                t,
                0,
                K::EcQueue,
                TraceDetail::QueueDepth { var: 0, depth: 1 },
            );
            let filtered = TraceDetail::Filtered {
                group,
                var: 0,
                val,
                origin,
            };
            self.emit(t, 0, K::RootFiltered, filtered);
            let fan_out = TraceDetail::Multicast {
                group,
                bytes: 16,
                members: NODES as u32,
                last_ns: self.now + 60,
            };
            let mcast = self.act(t, 0, K::PktMcast, fan_out, (seq_id, CauseOp::Mcast));
            self.now += 60;
            let mut apply_at_victim = 0;
            for member in 0..NODES {
                let applied = TraceDetail::Apply {
                    group,
                    seq,
                    var: 0,
                    val,
                    origin,
                    mode: ApplyMode::Applied,
                };
                apply_at_victim =
                    self.act(t, member, K::GwcApply, applied, (mcast, CauseOp::Apply));
            }
            // Optimism mostly wins: one section in a hundred rolls back
            // (the blame side map grows per rollback, not per record).
            if section % 100 == 0 {
                let victim = NODES - 1;
                let rollback = (apply_at_victim, CauseOp::Rollback);
                self.act(t, victim, K::OptRollback, var.clone(), rollback);
                let blame = TraceDetail::Conflict {
                    var: 0,
                    writer: origin,
                };
                self.emit(t, victim, K::OptConflict, blame);
            }
            self.emit(t, node, K::HwBlockDrop, TraceDetail::None);
            self.act(
                t,
                node,
                K::MutexGranted,
                var.clone(),
                (mcast, CauseOp::Acquired),
            );
            self.now += 25;
            self.emit(t, node, K::EvReleased, var.clone());
            self.emit(t, node, K::MutexRegular, var.clone());
            let done = TraceDetail::Complete {
                var: 0,
                optimistic: true,
                rollbacks: 0,
                overlapped: true,
            };
            self.act(t, node, K::MutexComplete, done, (mcast, CauseOp::Complete));
            for kind in [
                K::EcGrantArrived,
                K::EcInvalidated,
                K::EcFetchServe,
                K::EcLocalReacquire,
            ] {
                self.emit(t, node, kind, TraceDetail::None);
            }
        }
    }
}

#[test]
fn steady_state_observe_allocates_per_doubling_not_per_record() {
    // Series on (one wide window: its cost is per window, not per record),
    // timeline off — the configuration the ledger's tracing-on workload runs.
    let mut t = Telemetry::new("no-alloc", 7).with_series(SimDur::from_ms(1_000));
    let mut feed = Feeder::default();
    // Warm-up: long enough for every node to have been the section's
    // owner and the blamed writer, so every metric key exists.
    const WARM_UP: u64 = 700;
    feed.sections(&mut t, WARM_UP);
    let keys = t.registry().len();

    const N: u64 = 4_000;
    let start = (allocations(), feed.records);
    feed.sections(&mut t, N);
    let mid = (allocations(), feed.records);
    feed.sections(&mut t, 2 * N);
    let end = (allocations(), feed.records);

    let (first, second) = (mid.0 - start.0, end.0 - mid.0);
    let (first_records, second_records) = (mid.1 - start.1, end.1 - mid.1);
    assert_eq!(second_records, 2 * first_records);
    assert!(
        first_records > 100_000,
        "{first_records} records in the first pass"
    );
    assert_eq!(t.registry().len(), keys, "the warm-up created every key");
    assert!(
        first < 64 && second < 64 && first.abs_diff(second) < 64,
        "{first} allocations for {first_records} records, {second} for {second_records}: \
         the collector allocates per record"
    );
    // The records did land: one DAG node per cause record — those out of
    // every later record's reach collected since — and counters moved.
    assert_eq!(t.causes().recorded() as u64, feed.causes);
    assert!(feed.causes > 2 * WINDOW, "{} causes", feed.causes);
    assert!(
        (t.causes().len() as u64) < WINDOW,
        "{} held",
        t.causes().len()
    );
    assert_eq!(
        t.registry().sum_counters("node", "gwc/applies"),
        (WARM_UP + 3 * N) * NODES as u64
    );
}

#[test]
fn collector_holds_a_slab_while_recording_and_the_explained_set_after_finish() {
    /// Everything the collector holds that is not per cause or per write:
    /// the registry's keys, one series window, the pairing maps.
    const FIXED: usize = 256 << 10;
    // `(bytes held after finish, nodes retained)` for a run of `sections`.
    let run = |sections: u64| {
        let before = live_bytes();
        let mut t = Telemetry::new("footprint", 7).with_series(SimDur::from_ms(1_000));
        let mut feed = Feeder::default();
        feed.sections(&mut t, sections);
        // Both stores double as they grow, so each is under twice its
        // contents: a power of two of 32-byte spans, and of 24-byte slab
        // entries up to the window — the run is several windows long, and
        // what the rollbacks explain is a few hundred nodes.
        let held = live_bytes() - before;
        assert!(feed.causes > 4 * WINDOW, "{} causes", feed.causes);
        let budget = 24 * 2 * WINDOW + 32 * sections.next_power_of_two();
        assert!(
            held <= budget as usize + FIXED,
            "{held} bytes held for {} causes and {sections} sequenced writes",
            feed.causes
        );
        t.finish(SimTime::from_nanos(feed.now));
        let (dag, held) = (t.causes(), live_bytes() - before);
        assert_eq!(dag.recorded() as u64, feed.causes);
        // One rollback a hundred sections: six nodes each, plus the path
        // to the last completion.
        assert_eq!(dag.rollbacks().len() as u64, sections.div_ceil(100));
        assert!(dag.len() * 20 < dag.recorded(), "{} retained", dag.len());
        assert!(
            held <= 40 * dag.len() + FIXED,
            "{held} bytes held for {} retained nodes",
            dag.len()
        );
        (held, dag.len())
    };
    // The fixed part cancels between two sizes: what is left is per node.
    let (small, large) = (run(20_000), run(32_000));
    let (bytes, nodes) = (large.0 - small.0, large.1 - small.1);
    assert!(nodes > 500, "{nodes} more nodes retained");
    assert!(
        bytes <= 40 * nodes,
        "{bytes} more bytes held for {nodes} more retained nodes"
    );
}

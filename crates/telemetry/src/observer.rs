//! The trace-stream observer: turns the canonical structured protocol
//! trace into registry metrics and timeline spans.
//!
//! [`Telemetry`] implements [`TraceObserver`], so it plugs into
//! `sesame_sim::TraceRecorder::set_observer` (via `sesame_dsm::run_observed`)
//! and sees every record online without the run retaining its trace in
//! memory. A record's kind is a `TraceKind` and its payload a typed
//! [`TraceDetail`], so the observer dispatches on an enum byte and
//! destructures fields directly — no string is compared or parsed per
//! record. Span construction is a
//! small set of per-`(node, lock)` state machines over the event stream:
//!
//! * **wait** — `mutex-enter` / `lock-acquire` → `ev-acquired` /
//!   `mutex-granted`;
//! * **hold** (the lock section) — grant → `ev-released`;
//! * **optimistic section** — `opt-enter` → `opt-rollback` (rolled back)
//!   or `mutex-complete` (committed), with an instant per rollback;
//! * **message in flight** — `pkt-send` / `pkt-mcast` async intervals;
//! * **root sequencing** — `root-seq` → last `gwc-apply` of the same
//!   `(group, seq)`, closed when the run finishes.
//!
//! The one `match` in [`Telemetry::observe`] is the only place a record is
//! classified: the arms that close a lock wait, count an optimistic
//! attempt, rollback or completion, record a queue depth or count a packet
//! or multicast also bump the time-series window the record falls in, and
//! the causal records go through the same pairing rules as
//! [`CausalDag::from_trace`](crate::CausalDag::from_trace).
//!
//! Every metric a record touches is named by a [`Name`] template over
//! `(node[, lock | group])`. The first touch renders the key and resolves
//! it to a registry slot; every later record goes to the slot through a
//! small integer-keyed map — no key is formatted or compared per record.

use std::collections::BTreeMap;

use sesame_sim::{
    ApplyMode, Counter, Histogram, SeqTable, SimTime, TimeWeighted, TraceDetail, TraceEntry,
    TraceKind as K, TraceObserver,
};

use crate::registry::MetricKind;
use crate::timeline::cat;
use crate::{SeriesWindow, Telemetry};

/// The registry keys the observer writes per record, as templates over two
/// numbers: `a` is the node (the group for `Group*`, the variable for
/// `Blame`), `b` the lock variable (the writer for `Blame`, unused where
/// the key has one number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Name {
    LockWait,
    LockHold,
    RegAttempts,
    OptAttempts,
    OptRollbacks,
    OptWins,
    OptOverlapped,
    Completions,
    RootQueueDepth,
    EcQueueDepth,
    GwcApplies,
    HwBlockDrops,
    MemReads,
    MemWrites,
    MemLocalWrites,
    NetPackets,
    NetBytes,
    NetHops,
    NetFlight,
    NetMcasts,
    NetMcastBytes,
    EcGrants,
    EcInvalidations,
    EcFetchServes,
    EcLocalReacquires,
    GroupSequenced,
    GroupFiltered,
    GroupSeqLatency,
    Blame,
}

impl Name {
    /// The registry key this template names for `(a, b)`.
    fn key(self, a: usize, b: u32) -> String {
        match self {
            Name::LockWait => format!("node/{a}/lock/{b}/wait"),
            Name::LockHold => format!("node/{a}/lock/{b}/hold"),
            Name::RegAttempts => format!("node/{a}/lock/{b}/reg/attempts"),
            Name::OptAttempts => format!("node/{a}/lock/{b}/opt/attempts"),
            Name::OptRollbacks => format!("node/{a}/lock/{b}/opt/rollbacks"),
            Name::OptWins => format!("node/{a}/lock/{b}/opt/wins"),
            Name::OptOverlapped => format!("node/{a}/lock/{b}/opt/overlapped"),
            Name::Completions => format!("node/{a}/lock/{b}/completions"),
            Name::RootQueueDepth => format!("node/{a}/lock/{b}/root-queue-depth"),
            Name::EcQueueDepth => format!("node/{a}/lock/{b}/ec-queue-depth"),
            Name::GwcApplies => format!("node/{a}/gwc/applies"),
            Name::HwBlockDrops => format!("node/{a}/gwc/hw-block-drops"),
            Name::MemReads => format!("node/{a}/mem/reads"),
            Name::MemWrites => format!("node/{a}/mem/writes"),
            Name::MemLocalWrites => format!("node/{a}/mem/local-writes"),
            Name::NetPackets => format!("node/{a}/net/packets"),
            Name::NetBytes => format!("node/{a}/net/bytes"),
            Name::NetHops => format!("node/{a}/net/hops"),
            Name::NetFlight => format!("node/{a}/net/flight"),
            Name::NetMcasts => format!("node/{a}/net/mcasts"),
            Name::NetMcastBytes => format!("node/{a}/net/mcast-bytes"),
            Name::EcGrants => format!("node/{a}/ec/grants"),
            Name::EcInvalidations => format!("node/{a}/ec/invalidations"),
            Name::EcFetchServes => format!("node/{a}/ec/fetch-serves"),
            Name::EcLocalReacquires => format!("node/{a}/ec/local-reacquires"),
            Name::GroupSequenced => format!("group/{a}/sequenced"),
            Name::GroupFiltered => format!("group/{a}/filtered"),
            Name::GroupSeqLatency => format!("group/{a}/seq-latency"),
            Name::Blame => format!("blame/var/{a}/writer/{b}"),
        }
    }
}

/// Registry slots already resolved, by `(template, a, b)`.
pub(crate) type SlotCache = BTreeMap<(Name, usize, u32), usize>;

/// Open wait/hold/optimistic sections, keyed by `(node, lock)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpanState {
    pub(crate) wait_start: BTreeMap<(usize, u32), SimTime>,
    pub(crate) hold_start: BTreeMap<(usize, u32), SimTime>,
    pub(crate) opt_start: BTreeMap<(usize, u32), SimTime>,
    /// Root-sequenced writes by group, then by sequence number: the writes
    /// some member has yet to apply, or, with the timeline on, every one.
    pub(crate) seq_pending: BTreeMap<u32, SeqTable<SeqSpan>>,
}

/// One root-sequenced write awaiting its member applications.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeqSpan {
    start: SimTime,
    last_apply: Option<SimTime>,
    /// The sequencing node.
    root: u32,
}

const _: () = assert!(std::mem::size_of::<Option<SeqSpan>>() <= 32);

impl TraceObserver for Telemetry {
    fn on_record(&mut self, entry: &TraceEntry) {
        self.observe(entry);
    }

    fn on_cause_floor(&mut self, floor: u64) {
        self.causal.dag.collect(self.explained, floor);
    }

    /// Every member of `group` has applied its writes through `floor`, so
    /// no later apply closes one of their sequencing spans. Without a
    /// timeline the spans are read only by those applies and go; with one
    /// they stay for [`Telemetry::finish`] to draw.
    fn on_seq_floor(&mut self, group: u32, floor: u64) {
        if self.timeline_enabled {
            return;
        }
        if let Some(run) = self.state.seq_pending.get_mut(&group) {
            run.retire_through(floor);
        }
    }
}

impl Telemetry {
    /// The `T` metric `name` names for `(a, b)`: resolved by key on first
    /// touch — created then if absent, panicking if the key holds another
    /// kind, exactly as the registry's name-based accessors do — and by
    /// slot from then on.
    fn metric<T: MetricKind>(&mut self, name: Name, a: usize, b: u32) -> &mut T {
        let slot = match self.slots.get(&(name, a, b)) {
            Some(&slot) => slot,
            None => {
                let slot = self.registry.slot::<T>(&name.key(a, b));
                self.slots.insert((name, a, b), slot);
                slot
            }
        };
        self.registry.at(slot)
    }

    fn count(&mut self, name: Name, a: usize, b: u32) -> &mut Counter {
        self.metric(name, a, b)
    }

    /// The series window `t` falls in, when the series is on.
    fn window(&mut self, t: SimTime) -> Option<&mut SeriesWindow> {
        self.series.as_mut().map(|series| series.window_at(t))
    }

    /// Records `node`'s queue depth for `v` at `t` in the `name` gauge and
    /// in the window's per-variable maximum.
    fn queue_depth(&mut self, name: Name, node: usize, v: u32, t: SimTime, depth: u32) {
        self.metric::<TimeWeighted>(name, node, v)
            .set(t, f64::from(depth));
        if let Some(series) = self.series.as_mut() {
            series.record_depth(t, v, depth);
        }
    }

    /// Processes one trace record (the [`TraceObserver`] entry point).
    ///
    /// A kind paired with a [`TraceDetail`] shape it is not emitted with is
    /// ignored, exactly like a kind the observer has no use for.
    pub fn observe(&mut self, e: &TraceEntry) {
        let node = e.actor;
        let t = e.time;
        if self.timeline_enabled {
            self.timeline.touch_track(node);
        }
        let flow_src = self.causal.feed(e);
        match (e.kind, &e.detail) {
            (K::Cause, &TraceDetail::Cause { id, .. }) => {
                if let Some(src) = flow_src.filter(|_| self.timeline_enabled) {
                    let name = format!("cause #{id}");
                    self.timeline
                        .add_flow(src, (node, t), cat::CAUSAL, name, id);
                }
            }
            (K::OptConflict, &TraceDetail::Conflict { var, writer }) => {
                self.count(Name::Blame, var as usize, writer).incr();
            }
            (K::MutexEnter | K::LockAcquire, &TraceDetail::Var { var: v }) => {
                self.state.wait_start.insert((node, v), t);
            }
            (K::EvAcquired | K::MutexGranted, &TraceDetail::Var { var: v }) => {
                if let Some(start) = self.state.wait_start.remove(&(node, v)) {
                    let wait = t.saturating_since(start);
                    self.metric::<Histogram>(Name::LockWait, node, v)
                        .record(wait);
                    if let Some(w) = self.window(t) {
                        w.lock_waits += 1;
                        w.lock_wait_ns += wait.as_nanos();
                    }
                    if self.timeline_enabled {
                        self.timeline
                            .add_complete(node, cat::LOCK, format!("wait v{v}"), start, t);
                    }
                }
                self.state.hold_start.insert((node, v), t);
            }
            (K::EvReleased, &TraceDetail::Var { var: v }) => {
                if let Some(start) = self.state.hold_start.remove(&(node, v)) {
                    self.metric::<Histogram>(Name::LockHold, node, v)
                        .record(t.saturating_since(start));
                    if self.timeline_enabled {
                        self.timeline
                            .add_complete(node, cat::LOCK, format!("hold v{v}"), start, t);
                    }
                }
            }
            (K::MutexRegular, &TraceDetail::Var { var: v }) => {
                self.count(Name::RegAttempts, node, v).incr();
            }
            (K::OptEnter, &TraceDetail::Var { var: v }) => {
                self.count(Name::OptAttempts, node, v).incr();
                if let Some(w) = self.window(t) {
                    w.opt_attempts += 1;
                }
                self.state.opt_start.insert((node, v), t);
            }
            (K::OptRollback, &TraceDetail::Var { var: v }) => {
                self.count(Name::OptRollbacks, node, v).incr();
                if let Some(w) = self.window(t) {
                    w.rollbacks += 1;
                }
                if self.timeline_enabled {
                    self.timeline
                        .add_instant(node, cat::OPTIMISM, format!("rollback v{v}"), t);
                    if let Some(start) = self.state.opt_start.remove(&(node, v)) {
                        self.timeline.add_complete(
                            node,
                            cat::OPTIMISM,
                            format!("optimistic v{v} (rolled back)"),
                            start,
                            t,
                        );
                    }
                } else {
                    self.state.opt_start.remove(&(node, v));
                }
            }
            (
                K::MutexComplete,
                &TraceDetail::Complete {
                    var: v,
                    optimistic,
                    rollbacks,
                    overlapped,
                },
            ) => {
                self.count(Name::Completions, node, v).incr();
                if let Some(w) = self.window(t) {
                    w.completions += 1;
                    w.opt_wins += u64::from(optimistic && rollbacks == 0);
                }
                if optimistic {
                    if rollbacks == 0 {
                        self.count(Name::OptWins, node, v).incr();
                    }
                    if overlapped {
                        self.count(Name::OptOverlapped, node, v).incr();
                    }
                    if let Some(start) = self.state.opt_start.remove(&(node, v)) {
                        if self.timeline_enabled {
                            self.timeline.add_complete(
                                node,
                                cat::OPTIMISM,
                                format!("optimistic v{v}"),
                                start,
                                t,
                            );
                        }
                    }
                }
            }
            (K::RootQueue, &TraceDetail::QueueDepth { var: v, depth }) => {
                self.queue_depth(Name::RootQueueDepth, node, v, t, depth);
            }
            (K::EcQueue, &TraceDetail::QueueDepth { var: v, depth }) => {
                self.queue_depth(Name::EcQueueDepth, node, v, t, depth);
            }
            (K::RootSeq, &TraceDetail::Seq { group: g, seq, .. }) => {
                self.count(Name::GroupSequenced, g as usize, 0).incr();
                let span = SeqSpan {
                    start: t,
                    last_apply: None,
                    root: u32::try_from(node).expect("trace actors are u32 node ids"),
                };
                let run = self.state.seq_pending.entry(g).or_default();
                run.insert(seq, span);
            }
            (K::RootFiltered, &TraceDetail::Filtered { group: g, .. }) => {
                self.count(Name::GroupFiltered, g as usize, 0).incr();
            }
            (
                K::GwcApply,
                &TraceDetail::Apply {
                    group: g,
                    seq,
                    mode,
                    ..
                },
            ) => {
                if mode == ApplyMode::HwBlocked {
                    self.count(Name::HwBlockDrops, node, 0).incr();
                }
                self.count(Name::GwcApplies, node, 0).incr();
                let run = self.state.seq_pending.get_mut(&g);
                if let Some(span) = run.and_then(|run| run.get_mut(seq)) {
                    span.last_apply = Some(t);
                    let start = span.start;
                    self.metric::<Histogram>(Name::GroupSeqLatency, g as usize, 0)
                        .record(t.saturating_since(start));
                }
            }
            (K::AccRead, TraceDetail::Var { .. }) => {
                self.count(Name::MemReads, node, 0).incr();
            }
            (K::AccWrite, TraceDetail::VarVal { .. }) => {
                self.count(Name::MemWrites, node, 0).incr();
            }
            (K::AccWriteLocal, TraceDetail::VarVal { .. }) => {
                self.count(Name::MemLocalWrites, node, 0).incr();
            }
            (
                K::PktSend,
                &TraceDetail::Packet {
                    to,
                    bytes,
                    hops,
                    arrival_ns,
                    ..
                },
            ) => {
                self.count(Name::NetPackets, node, 0).incr();
                if let Some(w) = self.window(t) {
                    w.packets += 1;
                }
                self.count(Name::NetBytes, node, 0).add(u64::from(bytes));
                self.count(Name::NetHops, node, 0).add(u64::from(hops));
                let arrival = SimTime::from_nanos(arrival_ns);
                self.metric::<Histogram>(Name::NetFlight, node, 0)
                    .record(arrival.saturating_since(t));
                if self.timeline_enabled {
                    self.timeline.add_async(
                        node,
                        cat::NET,
                        format!("pkt {node}->{to}"),
                        t,
                        arrival,
                    );
                }
            }
            (
                K::PktMcast,
                &TraceDetail::Multicast {
                    group: g,
                    bytes,
                    members,
                    last_ns,
                },
            ) => {
                self.count(Name::NetMcasts, node, 0).incr();
                if let Some(w) = self.window(t) {
                    w.mcasts += 1;
                }
                self.count(Name::NetMcastBytes, node, 0)
                    .add(u64::from(bytes) * u64::from(members));
                if self.timeline_enabled {
                    self.timeline.add_async(
                        node,
                        cat::NET,
                        format!("mcast g{g}"),
                        t,
                        SimTime::from_nanos(last_ns),
                    );
                }
            }
            (K::EcGrantArrived, TraceDetail::Var { .. }) => {
                self.count(Name::EcGrants, node, 0).incr();
            }
            (K::EcInvalidated, TraceDetail::Var { .. }) => {
                self.count(Name::EcInvalidations, node, 0).incr();
            }
            (K::EcFetchServe, TraceDetail::VarNode { .. }) => {
                self.count(Name::EcFetchServes, node, 0).incr();
            }
            (K::EcLocalReacquire, TraceDetail::Var { .. }) => {
                self.count(Name::EcLocalReacquires, node, 0).incr();
            }
            _ => {}
        }
    }

    /// Closes cross-record state at the simulated end of the run: emits
    /// the root-sequencing async spans, records the end time used by
    /// [`Telemetry::snapshot`](crate::Telemetry::snapshot), and cuts the
    /// causal DAG down to the explained set (see
    /// [`Telemetry::causes`](crate::Telemetry::causes)). Call after the
    /// run; a second call changes nothing.
    ///
    /// Sections still open at end-of-run (a sequenced write no member had
    /// applied yet, a wait/hold/optimistic section that never closed) are
    /// emitted as spans ending at `end` with a `(truncated)` marker rather
    /// than dropped silently — a run cut short mid-protocol still shows
    /// where every node was stuck.
    pub fn finish(&mut self, end: SimTime) {
        self.end = end;
        if let Some(series) = self.series.as_mut() {
            series.finish(end);
        }
        self.causal.dag.shrink(self.explained, u64::MAX);
        let pending = std::mem::take(&mut self.state.seq_pending);
        let waits = std::mem::take(&mut self.state.wait_start);
        let holds = std::mem::take(&mut self.state.hold_start);
        let opts = std::mem::take(&mut self.state.opt_start);
        if !self.timeline_enabled {
            return;
        }
        let spans = pending
            .iter()
            .flat_map(|(g, run)| run.iter().map(move |s| (g, s)));
        for (g, (seq, span)) in spans {
            let root = span.root as usize;
            match span.last_apply {
                Some(last) => self.timeline.add_async(
                    root,
                    cat::GWC,
                    format!("seq g{g}#{seq}"),
                    span.start,
                    last,
                ),
                None => self.timeline.add_async(
                    root,
                    cat::GWC,
                    format!("seq g{g}#{seq} (truncated)"),
                    span.start,
                    end,
                ),
            }
        }
        for ((node, v), start) in waits {
            self.timeline.add_complete(
                node,
                cat::LOCK,
                format!("wait v{v} (truncated)"),
                start,
                end,
            );
        }
        for ((node, v), start) in holds {
            self.timeline.add_complete(
                node,
                cat::LOCK,
                format!("hold v{v} (truncated)"),
                start,
                end,
            );
        }
        for ((node, v), start) in opts {
            self.timeline.add_complete(
                node,
                cat::OPTIMISM,
                format!("optimistic v{v} (truncated)"),
                start,
                end,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesame_sim::ApplyMode;

    fn entry(ns: u64, actor: usize, kind: K, detail: TraceDetail) -> TraceEntry {
        TraceEntry {
            time: SimTime::from_nanos(ns),
            actor,
            kind,
            detail,
        }
    }

    fn feed(t: &mut Telemetry, events: Vec<(u64, usize, K, TraceDetail)>) {
        for (ns, actor, kind, detail) in events {
            t.observe(&entry(ns, actor, kind, detail));
        }
    }

    fn var(var: u32) -> TraceDetail {
        TraceDetail::Var { var }
    }

    fn complete(var: u32, optimistic: bool, rollbacks: u32, overlapped: bool) -> TraceDetail {
        TraceDetail::Complete {
            var,
            optimistic,
            rollbacks,
            overlapped,
        }
    }

    #[test]
    fn wait_and_hold_histograms_from_lock_events() {
        let mut t = Telemetry::new("t", 0).with_timeline(true);
        feed(
            &mut t,
            vec![
                (100, 1, K::LockAcquire, var(0)),
                (400, 1, K::EvAcquired, var(0)),
                (900, 1, K::EvReleased, var(0)),
            ],
        );
        t.finish(SimTime::from_nanos(1000));
        let snap = t.snapshot();
        match &snap.metrics["node/1/lock/0/wait"] {
            crate::SnapshotValue::Histogram { count, mean_ns, .. } => {
                assert_eq!((*count, *mean_ns), (1, 300));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &snap.metrics["node/1/lock/0/hold"] {
            crate::SnapshotValue::Histogram { mean_ns, .. } => assert_eq!(*mean_ns, 500),
            other => panic!("unexpected {other:?}"),
        }
        let trace = t.chrome_trace();
        assert!(trace.contains("wait v0"));
        assert!(trace.contains("hold v0"));
    }

    #[test]
    fn optimism_counters_wins_and_rollbacks() {
        let mut t = Telemetry::new("t", 0).with_timeline(true);
        // One clean optimistic completion, one rolled-back one.
        feed(
            &mut t,
            vec![
                (10, 2, K::MutexEnter, var(0)),
                (11, 2, K::OptEnter, var(0)),
                (50, 2, K::MutexGranted, var(0)),
                (60, 2, K::EvReleased, var(0)),
                (60, 2, K::MutexComplete, complete(0, true, 0, true)),
                (100, 2, K::MutexEnter, var(0)),
                (101, 2, K::OptEnter, var(0)),
                (150, 2, K::OptRollback, var(0)),
                (300, 2, K::MutexGranted, var(0)),
                (400, 2, K::EvReleased, var(0)),
                (400, 2, K::MutexComplete, complete(0, true, 1, false)),
            ],
        );
        t.finish(SimTime::from_nanos(500));
        let snap = t.snapshot();
        assert_eq!(snap.counter("node/2/lock/0/opt/attempts"), 2);
        assert_eq!(snap.counter("node/2/lock/0/opt/wins"), 1);
        assert_eq!(snap.counter("node/2/lock/0/opt/rollbacks"), 1);
        assert_eq!(snap.counter("node/2/lock/0/opt/overlapped"), 1);
        assert_eq!(snap.counter("node/2/lock/0/completions"), 2);
        let trace = t.chrome_trace();
        assert!(trace.contains("rollback v0"));
        assert!(trace.contains("optimistic v0 (rolled back)"));
    }

    #[test]
    fn sequencing_latency_and_async_span() {
        let mut t = Telemetry::new("t", 0).with_timeline(true);
        let seq = TraceDetail::Seq {
            group: 0,
            seq: 1,
            var: 3,
            val: 9,
            origin: 2,
        };
        let apply = TraceDetail::Apply {
            group: 0,
            seq: 1,
            var: 3,
            val: 9,
            origin: 2,
            mode: ApplyMode::Applied,
        };
        feed(
            &mut t,
            vec![
                (100, 1, K::RootSeq, seq),
                (300, 0, K::GwcApply, apply),
                (500, 2, K::GwcApply, apply),
            ],
        );
        t.finish(SimTime::from_nanos(600));
        let snap = t.snapshot();
        assert_eq!(snap.counter("group/0/sequenced"), 1);
        match &snap.metrics["group/0/seq-latency"] {
            crate::SnapshotValue::Histogram { count, max_ns, .. } => {
                assert_eq!((*count, *max_ns), (2, 400));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(t.chrome_trace().contains("seq g0#1"));
    }

    #[test]
    fn packet_events_accumulate_per_node() {
        let mut t = Telemetry::new("t", 0);
        let pkt = |to, bytes, hops, arrival_ns| TraceDetail::Packet {
            from: 0,
            to,
            bytes,
            hops,
            arrival_ns,
        };
        feed(
            &mut t,
            vec![
                (10, 0, K::PktSend, pkt(1, 32, 2, 300)),
                (20, 0, K::PktSend, pkt(2, 16, 1, 100)),
            ],
        );
        t.finish(SimTime::from_nanos(400));
        let snap = t.snapshot();
        assert_eq!(snap.counter("node/0/net/packets"), 2);
        assert_eq!(snap.counter("node/0/net/bytes"), 48);
        assert_eq!(snap.counter("node/0/net/hops"), 3);
    }

    #[test]
    fn dangling_spans_close_with_truncated_markers() {
        let mut t = Telemetry::new("t", 0).with_timeline(true);
        let seq = TraceDetail::Seq {
            group: 0,
            seq: 4,
            var: 1,
            val: 2,
            origin: 1,
        };
        feed(
            &mut t,
            vec![
                // A sequenced write nobody applied, an unanswered acquire,
                // a hold and an optimistic section never released.
                (100, 0, K::RootSeq, seq),
                (200, 1, K::LockAcquire, var(0)),
                (250, 2, K::EvAcquired, var(1)),
                (260, 2, K::OptEnter, var(1)),
            ],
        );
        t.finish(SimTime::from_nanos(500));
        let trace = t.chrome_trace();
        assert!(trace.contains("seq g0#4 (truncated)"), "{trace}");
        assert!(trace.contains("wait v0 (truncated)"), "{trace}");
        assert!(trace.contains("hold v1 (truncated)"), "{trace}");
        assert!(trace.contains("optimistic v1 (truncated)"), "{trace}");
    }

    #[test]
    fn cause_records_build_the_dag_and_emit_flow_arrows() {
        use sesame_sim::CauseOp;
        let mut t = Telemetry::new("t", 0).with_timeline(true);
        let cause = |id, cause, op| TraceDetail::Cause { id, cause, op };
        feed(
            &mut t,
            vec![
                (10, 1, K::PktSend, TraceDetail::None),
                (10, 1, K::Cause, cause(1, 0, CauseOp::Send)),
                (300, 0, K::Cause, cause(2, 1, CauseOp::Apply)),
            ],
        );
        t.finish(SimTime::from_nanos(400));
        let dag = t.causes();
        assert_eq!(dag.len(), 2);
        assert_eq!(dag.get(1).unwrap().kind, Some(K::PktSend));
        assert_eq!(dag.get(2).unwrap().cause, 1);
        let trace = t.chrome_trace();
        assert!(trace.contains("\"ph\":\"s\""), "{trace}");
        assert!(trace.contains("\"ph\":\"f\",\"bp\":\"e\""), "{trace}");
        // Cause records feed the DAG, not the metric registry.
        assert_eq!(t.snapshot().metrics.len(), 0);
    }

    #[test]
    fn finish_keeps_the_explained_set_and_may_be_repeated() {
        use sesame_sim::CauseOp;
        let cause = |id, cause, op| TraceDetail::Cause { id, cause, op };
        let events = || {
            vec![
                (10, 1, K::Cause, cause(1, 0, CauseOp::Write)),
                (10, 1, K::PktSend, TraceDetail::None),
                (10, 1, K::Cause, cause(2, 1, CauseOp::Send)),
                // Two applies nothing descends from, one that rolls back.
                (300, 0, K::Cause, cause(3, 2, CauseOp::Apply)),
                (300, 2, K::Cause, cause(4, 2, CauseOp::Apply)),
                (310, 3, K::Cause, cause(5, 2, CauseOp::Apply)),
                (310, 3, K::Cause, cause(6, 5, CauseOp::Rollback)),
                // The run's last action: a root of its own.
                (900, 2, K::Cause, cause(7, 0, CauseOp::Complete)),
            ]
        };
        let mut t = Telemetry::new("t", 0).with_timeline(true);
        feed(&mut t, events());
        assert_eq!(t.causes().len(), 7);
        t.finish(SimTime::from_nanos(1000));
        let exports = |t: &Telemetry| {
            (
                t.causes_json(),
                t.causes_dot(),
                t.chrome_trace(),
                t.snapshot(),
            )
        };
        let first = exports(&t);
        let ids = |t: &Telemetry| t.causes().iter().map(|n| n.id).collect::<Vec<_>>();
        assert_eq!(ids(&t), vec![1, 2, 5, 6, 7]);
        assert_eq!((t.causes().len(), t.causes().recorded()), (5, 7));
        assert_eq!(first.0.matches("\n  {\"id\":").count(), 5);
        t.finish(SimTime::from_nanos(1000));
        assert_eq!(exports(&t), first, "a second finish changes nothing");

        // An asked-for event joins the set with its ancestors.
        let mut asked = Telemetry::new("t", 0).with_explained_event(4);
        feed(&mut asked, events());
        asked.finish(SimTime::from_nanos(1000));
        assert_eq!(ids(&asked), vec![1, 2, 4, 5, 6, 7]);
        let chain = asked.causes().chain(4).expect("asked for");
        assert_eq!(chain.iter().map(|n| n.id).collect::<Vec<_>>(), [1, 2, 4]);

        // Records after the finish — past the end, citing a dropped
        // parent, re-recording a dropped id — land and resolve.
        feed(
            &mut t,
            vec![
                (1100, 0, K::Cause, cause(8, 3, CauseOp::Send)),
                (1100, 0, K::Cause, cause(4, 2, CauseOp::Apply)),
                (1200, 1, K::Cause, cause(9, 8, CauseOp::Apply)),
            ],
        );
        assert_eq!(ids(&t), vec![1, 2, 4, 5, 6, 7, 8, 9]);
        let chain = |id| -> Vec<u64> {
            let chain = t.causes().chain(id).expect("stored id");
            chain.iter().map(|n| n.id).collect()
        };
        assert_eq!(chain(9), [8, 9], "#8 cites #3, which is gone");
        assert_eq!(chain(4), [1, 2, 4]);
        assert_eq!(chain(6), [1, 2, 5, 6]);
        assert!(t.causes().get(3).is_none());
        assert_eq!(t.causes().critical_path().unwrap().ids, [8, 9]);
    }

    fn seq(group: u32, seq: u64) -> TraceDetail {
        TraceDetail::Seq {
            group,
            seq,
            var: 0,
            val: 0,
            origin: 1,
        }
    }

    fn apply(group: u32, seq: u64) -> TraceDetail {
        TraceDetail::Apply {
            group,
            seq,
            var: 0,
            val: 0,
            origin: 1,
            mode: ApplyMode::Applied,
        }
    }

    /// The names of the sequencing spans in `t`'s Chrome trace, in order.
    fn seq_span_names(t: &Telemetry) -> Vec<String> {
        let trace = t.chrome_trace();
        let names: Vec<String> = trace
            .match_indices("\"name\":\"seq g")
            .map(|(at, _)| trace[at + 8..].split('"').next().unwrap().to_string())
            .filter(|name| !name.is_empty())
            .collect();
        names.into_iter().step_by(2).collect()
    }

    #[test]
    fn sequencing_spans_keep_group_then_seq_order_over_gaps_and_late_low_numbers() {
        let mut t = Telemetry::new("t", 0).with_timeline(true);
        feed(
            &mut t,
            vec![
                (100, 0, K::RootSeq, seq(2, 9)),
                (110, 0, K::RootSeq, seq(0, 6)),
                (120, 0, K::RootSeq, seq(0, 9)),
                (130, 0, K::RootSeq, seq(0, 4)),
                // Applies of numbers nobody sequenced: below the base, in
                // a gap, past the end, in an unknown group.
                (200, 1, K::GwcApply, apply(0, 3)),
                (200, 1, K::GwcApply, apply(0, 7)),
                (200, 1, K::GwcApply, apply(0, 10)),
                (200, 1, K::GwcApply, apply(5, 1)),
                (250, 1, K::GwcApply, apply(0, 6)),
                // A re-sequenced number starts over.
                (300, 0, K::RootSeq, seq(2, 9)),
            ],
        );
        t.finish(SimTime::from_nanos(400));
        assert_eq!(
            seq_span_names(&t),
            [
                "seq g0#4 (truncated)",
                "seq g0#6",
                "seq g0#9 (truncated)",
                "seq g2#9 (truncated)"
            ]
        );
        match &t.snapshot().metrics["group/0/seq-latency"] {
            crate::SnapshotValue::Histogram { count, max_ns, .. } => {
                assert_eq!((*count, *max_ns), (1, 140));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Sequence numbers far above the first one seen, far below it and
    /// at `u64::MAX` are spanned like near ones. Seq 10^9 after seq 1 used
    /// to size an array for a billion spans (the process aborted on the
    /// 32 GB allocation), and `u64::MAX` overflowed its capacity.
    #[test]
    fn far_sequence_numbers_are_spanned_like_near_ones() {
        let mut t = Telemetry::new("t", 0).with_timeline(true);
        let far = 1_000_000_000;
        feed(
            &mut t,
            vec![
                (100, 0, K::RootSeq, seq(0, 1)),
                (110, 0, K::RootSeq, seq(0, far)),
                (120, 0, K::RootSeq, seq(0, u64::MAX)),
                // Far below the first number seen.
                (130, 0, K::RootSeq, seq(1, far)),
                (140, 0, K::RootSeq, seq(1, 1)),
                (200, 1, K::GwcApply, apply(0, far)),
                (210, 1, K::GwcApply, apply(0, u64::MAX)),
                (220, 1, K::GwcApply, apply(1, 1)),
                (230, 1, K::GwcApply, apply(1, far + 1)),
            ],
        );
        t.finish(SimTime::from_nanos(400));
        assert_eq!(
            seq_span_names(&t),
            [
                "seq g0#1 (truncated)",
                "seq g0#1000000000",
                "seq g0#18446744073709551615",
                "seq g1#1",
                "seq g1#1000000000 (truncated)",
            ]
        );
        match &t.snapshot().metrics["group/0/seq-latency"] {
            crate::SnapshotValue::Histogram { count, max_ns, .. } => {
                assert_eq!((*count, *max_ns), (2, 90));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn conflicts_count_blame_and_annotate_the_rollback_node() {
        use sesame_sim::CauseOp;
        let mut t = Telemetry::new("t", 0);
        feed(
            &mut t,
            vec![
                (50, 2, K::OptRollback, var(0)),
                (
                    50,
                    2,
                    K::Cause,
                    TraceDetail::Cause {
                        id: 9,
                        cause: 0,
                        op: CauseOp::Rollback,
                    },
                ),
                (
                    50,
                    2,
                    K::OptConflict,
                    TraceDetail::Conflict { var: 0, writer: 1 },
                ),
            ],
        );
        t.finish(SimTime::from_nanos(60));
        assert_eq!(t.causes().get(9).unwrap().conflict, Some((0, 1)));
        let snap = t.snapshot();
        assert_eq!(snap.counter("blame/var/0/writer/1"), 1);
    }

    #[test]
    fn unknown_kinds_and_mismatched_details_are_ignored() {
        let mut t = Telemetry::new("t", 0);
        feed(
            &mut t,
            vec![
                // A kind the observer has no use for: never counted.
                (10, 0, K::LockQueued, var(1)),
                // Canonical kinds with the wrong detail shape: ignored
                // rather than misread.
                (20, 0, K::PktSend, var(1)),
                (30, 0, K::EvAcquired, TraceDetail::None),
                (35, 0, K::AccRead, TraceDetail::None),
                (36, 0, K::EcGrantArrived, TraceDetail::None),
                (40, 0, K::MutexComplete, var(0)),
                (50, 0, K::RootSeq, var(0)),
            ],
        );
        t.finish(SimTime::from_nanos(60));
        assert_eq!(t.snapshot().metrics.len(), 0);
    }
}

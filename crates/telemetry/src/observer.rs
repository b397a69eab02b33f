//! The trace-stream observer: turns the canonical structured protocol
//! trace into per-record metrics and timeline spans.
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
//! The metrics a record touches are fields of typed [`Rows`]: one per node
//! (indexed by node), one per `(node, lock)` beside that lock's open
//! sections, one per group beside its open sequencing spans, and a count
//! per `(var, writer)` blamed for a rollback. No key is formatted while the
//! run lasts; [`Telemetry::snapshot`](crate::Telemetry::snapshot) renders
//! each row's keys — a counter once it is nonzero, `net/bytes` and
//! `net/hops` with `net/packets`, `net/mcast-bytes` with `net/mcasts`, a
//! histogram once sampled, a queue-depth gauge once set.

use std::collections::BTreeMap;

use sesame_sim::{
    ApplyMode, Histogram, SeqTable, SimTime, TimeWeighted, TraceDetail, TraceEntry, TraceKind as K,
    TraceObserver,
};

use crate::timeline::cat;
use crate::{SeriesWindow, SnapshotValue, Telemetry};

/// The collector's per-record metrics and open sections.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rows {
    /// `node/<n>/{mem,net,gwc,ec}/…`, indexed by node.
    nodes: Vec<NodeRow>,
    /// `node/<n>/lock/<l>/…` and the sections open on the lock.
    locks: BTreeMap<(usize, u32), LockRow>,
    /// `group/<g>/…` and the group's open sequencing spans.
    pub(crate) groups: BTreeMap<u32, GroupRow>,
    /// `blame/var/<v>/writer/<w>`: the rollbacks a writer caused on a var.
    blame: BTreeMap<(u32, u32), u64>,
}

/// One node's traffic, memory and protocol counters.
#[derive(Debug, Clone, Default)]
struct NodeRow {
    mem_reads: u64,
    mem_writes: u64,
    mem_local_writes: u64,
    net_packets: u64,
    net_bytes: u64,
    net_hops: u64,
    net_flight: Histogram,
    net_mcasts: u64,
    net_mcast_bytes: u64,
    gwc_applies: u64,
    hw_block_drops: u64,
    ec_grants: u64,
    ec_invalidations: u64,
    ec_fetch_serves: u64,
    ec_local_reacquires: u64,
}

/// One node's metrics on one lock, and its sections open there.
#[derive(Debug, Clone, Default)]
struct LockRow {
    wait: Histogram,
    hold: Histogram,
    reg_attempts: u64,
    opt_attempts: u64,
    opt_rollbacks: u64,
    opt_wins: u64,
    opt_overlapped: u64,
    completions: u64,
    root_queue_depth: Option<TimeWeighted>,
    ec_queue_depth: Option<TimeWeighted>,
    wait_start: Option<SimTime>,
    hold_start: Option<SimTime>,
    opt_start: Option<SimTime>,
}

/// One group's sequencing metrics and spans.
#[derive(Debug, Clone, Default)]
pub(crate) struct GroupRow {
    sequenced: u64,
    filtered: u64,
    seq_latency: Histogram,
    /// Root-sequenced writes by sequence number: the writes some member
    /// has yet to apply, or, with the timeline on, every one.
    pub(crate) pending: SeqTable<SeqSpan>,
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

impl Rows {
    fn node(&mut self, node: usize) -> &mut NodeRow {
        if node >= self.nodes.len() {
            self.nodes.resize_with(node + 1, NodeRow::default);
        }
        &mut self.nodes[node]
    }

    fn lock(&mut self, node: usize, lock: u32) -> &mut LockRow {
        self.locks.entry((node, lock)).or_default()
    }

    /// Hands every row metric that exists to `emit` as `(key, value)`,
    /// time-weighted gauges averaged up to `end`.
    pub(crate) fn render(&self, end: SimTime, mut emit: impl FnMut(String, SnapshotValue)) {
        let counter = |v: u64| (v > 0).then_some(SnapshotValue::Counter(v));
        // A counter that exists with another one, zero or not.
        let along = |v: u64, with: u64| (with > 0).then_some(SnapshotValue::Counter(v));
        let histogram = |h: &Histogram| (h.count() > 0).then(|| SnapshotValue::histogram(h));
        let gauge =
            |tw: &Option<TimeWeighted>| tw.as_ref().map(|tw| SnapshotValue::time_weighted(tw, end));
        for (n, row) in self.nodes.iter().enumerate() {
            for (name, value) in [
                ("ec/fetch-serves", counter(row.ec_fetch_serves)),
                ("ec/grants", counter(row.ec_grants)),
                ("ec/invalidations", counter(row.ec_invalidations)),
                ("ec/local-reacquires", counter(row.ec_local_reacquires)),
                ("gwc/applies", counter(row.gwc_applies)),
                ("gwc/hw-block-drops", counter(row.hw_block_drops)),
                ("mem/local-writes", counter(row.mem_local_writes)),
                ("mem/reads", counter(row.mem_reads)),
                ("mem/writes", counter(row.mem_writes)),
                ("net/bytes", along(row.net_bytes, row.net_packets)),
                ("net/flight", histogram(&row.net_flight)),
                ("net/hops", along(row.net_hops, row.net_packets)),
                (
                    "net/mcast-bytes",
                    along(row.net_mcast_bytes, row.net_mcasts),
                ),
                ("net/mcasts", counter(row.net_mcasts)),
                ("net/packets", counter(row.net_packets)),
            ] {
                if let Some(value) = value {
                    emit(format!("node/{n}/{name}"), value);
                }
            }
        }
        for (&(n, l), row) in &self.locks {
            for (name, value) in [
                ("completions", counter(row.completions)),
                ("ec-queue-depth", gauge(&row.ec_queue_depth)),
                ("hold", histogram(&row.hold)),
                ("opt/attempts", counter(row.opt_attempts)),
                ("opt/overlapped", counter(row.opt_overlapped)),
                ("opt/rollbacks", counter(row.opt_rollbacks)),
                ("opt/wins", counter(row.opt_wins)),
                ("reg/attempts", counter(row.reg_attempts)),
                ("root-queue-depth", gauge(&row.root_queue_depth)),
                ("wait", histogram(&row.wait)),
            ] {
                if let Some(value) = value {
                    emit(format!("node/{n}/lock/{l}/{name}"), value);
                }
            }
        }
        for (g, row) in &self.groups {
            for (name, value) in [
                ("filtered", counter(row.filtered)),
                ("seq-latency", histogram(&row.seq_latency)),
                ("sequenced", counter(row.sequenced)),
            ] {
                if let Some(value) = value {
                    emit(format!("group/{g}/{name}"), value);
                }
            }
        }
        for (&(var, writer), &count) in &self.blame {
            emit(
                format!("blame/var/{var}/writer/{writer}"),
                SnapshotValue::Counter(count),
            );
        }
    }
}

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
        if let Some(row) = self.rows.groups.get_mut(&group) {
            row.pending.retire_through(floor);
        }
    }
}

impl Telemetry {
    /// The series window `t` falls in, when the series is on.
    fn window(&mut self, t: SimTime) -> Option<&mut SeriesWindow> {
        self.series.as_mut().map(|series| series.window_at(t))
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
                *self.rows.blame.entry((var, writer)).or_default() += 1;
            }
            (K::MutexEnter | K::LockAcquire, &TraceDetail::Var { var: v }) => {
                self.rows.lock(node, v).wait_start = Some(t);
            }
            (K::EvAcquired | K::MutexGranted, &TraceDetail::Var { var: v }) => {
                let row = self.rows.lock(node, v);
                row.hold_start = Some(t);
                if let Some(start) = row.wait_start.take() {
                    let wait = t.saturating_since(start);
                    row.wait.record(wait);
                    if let Some(w) = self.window(t) {
                        w.lock_waits += 1;
                        w.lock_wait_ns += wait.as_nanos();
                    }
                    if self.timeline_enabled {
                        self.timeline
                            .add_complete(node, cat::LOCK, format!("wait v{v}"), start, t);
                    }
                }
            }
            (K::EvReleased, &TraceDetail::Var { var: v }) => {
                let row = self.rows.lock(node, v);
                if let Some(start) = row.hold_start.take() {
                    row.hold.record(t.saturating_since(start));
                    if self.timeline_enabled {
                        self.timeline
                            .add_complete(node, cat::LOCK, format!("hold v{v}"), start, t);
                    }
                }
            }
            (K::MutexRegular, &TraceDetail::Var { var: v }) => {
                self.rows.lock(node, v).reg_attempts += 1;
            }
            (K::OptEnter, &TraceDetail::Var { var: v }) => {
                let row = self.rows.lock(node, v);
                row.opt_attempts += 1;
                row.opt_start = Some(t);
                if let Some(w) = self.window(t) {
                    w.opt_attempts += 1;
                }
            }
            (K::OptRollback, &TraceDetail::Var { var: v }) => {
                let row = self.rows.lock(node, v);
                row.opt_rollbacks += 1;
                let start = row.opt_start.take();
                if let Some(w) = self.window(t) {
                    w.rollbacks += 1;
                }
                if self.timeline_enabled {
                    self.timeline
                        .add_instant(node, cat::OPTIMISM, format!("rollback v{v}"), t);
                    if let Some(start) = start {
                        self.timeline.add_complete(
                            node,
                            cat::OPTIMISM,
                            format!("optimistic v{v} (rolled back)"),
                            start,
                            t,
                        );
                    }
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
                let row = self.rows.lock(node, v);
                row.completions += 1;
                let start = if optimistic {
                    row.opt_wins += u64::from(rollbacks == 0);
                    row.opt_overlapped += u64::from(overlapped);
                    row.opt_start.take()
                } else {
                    None
                };
                if let Some(w) = self.window(t) {
                    w.completions += 1;
                    w.opt_wins += u64::from(optimistic && rollbacks == 0);
                }
                if let Some(start) = start.filter(|_| self.timeline_enabled) {
                    self.timeline.add_complete(
                        node,
                        cat::OPTIMISM,
                        format!("optimistic v{v}"),
                        start,
                        t,
                    );
                }
            }
            (K::RootQueue | K::EcQueue, &TraceDetail::QueueDepth { var: v, depth }) => {
                let row = self.rows.lock(node, v);
                let gauge = if e.kind == K::RootQueue {
                    &mut row.root_queue_depth
                } else {
                    &mut row.ec_queue_depth
                };
                gauge
                    .get_or_insert_with(TimeWeighted::default)
                    .set(t, f64::from(depth));
                if let Some(series) = self.series.as_mut() {
                    series.record_depth(t, v, depth);
                }
            }
            (K::RootSeq, &TraceDetail::Seq { group: g, seq, .. }) => {
                let row = self.rows.groups.entry(g).or_default();
                row.sequenced += 1;
                let span = SeqSpan {
                    start: t,
                    last_apply: None,
                    root: u32::try_from(node).expect("trace actors are u32 node ids"),
                };
                row.pending.insert(seq, span);
            }
            (K::RootFiltered, &TraceDetail::Filtered { group: g, .. }) => {
                self.rows.groups.entry(g).or_default().filtered += 1;
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
                let row = self.rows.node(node);
                row.hw_block_drops += u64::from(mode == ApplyMode::HwBlocked);
                row.gwc_applies += 1;
                if let Some(row) = self.rows.groups.get_mut(&g) {
                    if let Some(span) = row.pending.get_mut(seq) {
                        span.last_apply = Some(t);
                        row.seq_latency.record(t.saturating_since(span.start));
                    }
                }
            }
            (K::AccRead, TraceDetail::Var { .. }) => self.rows.node(node).mem_reads += 1,
            (K::AccWrite, TraceDetail::VarVal { .. }) => self.rows.node(node).mem_writes += 1,
            (K::AccWriteLocal, TraceDetail::VarVal { .. }) => {
                self.rows.node(node).mem_local_writes += 1;
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
                let arrival = SimTime::from_nanos(arrival_ns);
                let row = self.rows.node(node);
                row.net_packets += 1;
                row.net_bytes += u64::from(bytes);
                row.net_hops += u64::from(hops);
                row.net_flight.record(arrival.saturating_since(t));
                if let Some(w) = self.window(t) {
                    w.packets += 1;
                }
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
                let row = self.rows.node(node);
                row.net_mcasts += 1;
                row.net_mcast_bytes += u64::from(bytes) * u64::from(members);
                if let Some(w) = self.window(t) {
                    w.mcasts += 1;
                }
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
            (K::EcGrantArrived, TraceDetail::Var { .. }) => self.rows.node(node).ec_grants += 1,
            (K::EcInvalidated, TraceDetail::Var { .. }) => {
                self.rows.node(node).ec_invalidations += 1;
            }
            (K::EcFetchServe, TraceDetail::VarNode { .. }) => {
                self.rows.node(node).ec_fetch_serves += 1;
            }
            (K::EcLocalReacquire, TraceDetail::Var { .. }) => {
                self.rows.node(node).ec_local_reacquires += 1;
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
        let drawn = self.timeline_enabled;
        for (g, row) in &mut self.rows.groups {
            for (seq, span) in std::mem::take(&mut row.pending).iter().filter(|_| drawn) {
                let (name, last) = match span.last_apply {
                    Some(last) => (format!("seq g{g}#{seq}"), last),
                    None => (format!("seq g{g}#{seq} (truncated)"), end),
                };
                let root = span.root as usize;
                self.timeline
                    .add_async(root, cat::GWC, name, span.start, last);
            }
        }
        type Open = fn(&mut LockRow) -> &mut Option<SimTime>;
        let sections: [(Open, _, _); 3] = [
            (|row| &mut row.wait_start, cat::LOCK, "wait"),
            (|row| &mut row.hold_start, cat::LOCK, "hold"),
            (|row| &mut row.opt_start, cat::OPTIMISM, "optimistic"),
        ];
        for (open, category, what) in sections {
            for (&(node, v), row) in &mut self.rows.locks {
                if let Some(start) = open(row).take().filter(|_| drawn) {
                    let name = format!("{what} v{v} (truncated)");
                    self.timeline.add_complete(node, category, name, start, end);
                }
            }
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
        // Cause records feed the DAG, not the metrics.
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
                {
                    let mut dot = Vec::new();
                    t.causes().write_dot(&mut dot).unwrap();
                    dot
                },
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

    /// One stream fed to the collector and to the reference path.
    struct Both {
        rows: Telemetry,
        reference: reference::Collector,
    }

    impl TraceObserver for Both {
        fn on_record(&mut self, entry: &TraceEntry) {
            self.rows.on_record(entry);
            self.reference.on_record(entry);
        }

        fn on_cause_floor(&mut self, floor: u64) {
            self.rows.on_cause_floor(floor);
        }

        fn on_seq_floor(&mut self, group: u32, floor: u64) {
            self.rows.on_seq_floor(group, floor);
            self.reference.on_seq_floor(group, floor);
        }
    }

    impl Both {
        fn new() -> Self {
            Both {
                rows: Telemetry::new("diff", 7),
                reference: reference::Collector::default(),
            }
        }

        /// Names metrics as the workload glue does — keys that sort among
        /// the rows' — finishes both at `end`, and asserts the snapshots
        /// equal: the same keys in the same order, kinds and values.
        fn assert_equal(mut self, end: SimTime) {
            self.rows.add_counter("gwc/grants", 3);
            *self.reference.counter("gwc/grants") += 3;
            for node in [0, 2, 9] {
                let key = format!("node/{node}/cpu/efficiency");
                self.rows.set_gauge(&key, 0.25 * node as f64);
                *self.reference.gauge(&key) = 0.25 * node as f64;
            }
            self.rows.finish(end);
            self.reference.finish(end);
            let (rows, reference) = (self.rows.snapshot(), self.reference.snapshot("diff", 7));
            let differs = rows
                .metrics
                .iter()
                .zip(&reference.metrics)
                .find(|(a, b)| a != b);
            assert_eq!(differs, None);
            assert_eq!(rows, reference);
            assert!(rows.metrics.len() > 4, "{} keys", rows.metrics.len());
        }
    }

    #[test]
    fn rows_render_the_reference_snapshot_on_every_scenario() {
        use sesame_workloads::scenario::Scenario;
        use std::cell::RefCell;
        use std::rc::Rc;
        for name in Scenario::NAMES {
            let both = Rc::new(RefCell::new(Both::new()));
            let scenario = Scenario::parse(name).expect("a listed name");
            let outcome = scenario.run(Some(both.clone())).expect("a clean run");
            let end = outcome.result().end;
            drop(outcome);
            let both = Rc::try_unwrap(both).ok().expect("the run let go");
            both.into_inner().assert_equal(end);
        }
    }

    #[test]
    fn rows_render_the_reference_snapshot_on_edge_records() {
        let pkt = |to, bytes, hops, arrival_ns| TraceDetail::Packet {
            from: 0,
            to,
            bytes,
            hops,
            arrival_ns,
        };
        let mcast = |group, bytes, members| TraceDetail::Multicast {
            group,
            bytes,
            members,
            last_ns: 900,
        };
        let depth = |var, depth| TraceDetail::QueueDepth { var, depth };
        let blame = |var, writer| TraceDetail::Conflict { var, writer };
        let hw = TraceDetail::Apply {
            group: 1,
            seq: 2,
            var: 0,
            val: 0,
            origin: 4,
            mode: ApplyMode::HwBlocked,
        };
        let filtered = TraceDetail::Filtered {
            group: 3,
            var: 0,
            val: 0,
            origin: 1,
        };
        let events = vec![
            // Zero-byte and zero-hop packets, and a zero-byte multicast.
            (10, 4, K::PktSend, pkt(1, 0, 0, 10)),
            (10, 5, K::PktSend, pkt(1, 0, 3, 50)),
            (10, 6, K::PktSend, pkt(1, 8, 0, 5)),
            (11, 4, K::PktMcast, mcast(0, 0, 4)),
            (11, 6, K::PktMcast, mcast(0, 16, 0)),
            (12, 5, K::PktMcast, mcast(1, 16, 3)),
            // Depth-0 queue samples, then a deeper one.
            (20, 2, K::RootQueue, depth(0, 0)),
            (20, 3, K::EcQueue, depth(1, 0)),
            (25, 3, K::EcQueue, depth(1, 4)),
            // 0 ns waits and holds, and a wait that closes later.
            (30, 1, K::LockAcquire, var(0)),
            (30, 1, K::EvAcquired, var(0)),
            (30, 1, K::EvReleased, var(0)),
            (31, 2, K::MutexEnter, var(7)),
            (31, 2, K::OptEnter, var(7)),
            (31, 2, K::MutexGranted, var(7)),
            (31, 2, K::MutexComplete, complete(7, true, 0, false)),
            (40, 3, K::MutexEnter, var(2)),
            (41, 3, K::MutexRegular, var(2)),
            (90, 3, K::MutexGranted, var(2)),
            (95, 3, K::MutexComplete, complete(2, false, 0, false)),
            // Blame on var ids at and above 2^16.
            (50, 2, K::OptRollback, var(7)),
            (50, 2, K::OptConflict, blame(1 << 16, 3)),
            (50, 2, K::OptConflict, blame(u32::MAX, 1_000)),
            (51, 2, K::OptConflict, blame(1 << 16, 3)),
            // A node id above every earlier one, then a low one again.
            (60, 1_000, K::AccRead, var(0)),
            (
                60,
                1_000,
                K::AccWrite,
                TraceDetail::VarVal { var: 0, val: 1 },
            ),
            (
                61,
                0,
                K::AccWriteLocal,
                TraceDetail::VarVal { var: 0, val: 1 },
            ),
            (62, 1_000, K::OptEnter, var(1)),
            (63, 1_000, K::MutexComplete, complete(1, true, 2, true)),
            // Sequencing, a filtered write, an echo blocked by hardware,
            // applies of an unknown group and of a number never sequenced.
            (70, 0, K::RootSeq, seq(1, 2)),
            (70, 0, K::RootFiltered, filtered),
            (71, 4, K::GwcApply, hw),
            (72, 5, K::GwcApply, apply(1, 2)),
            (73, 5, K::GwcApply, apply(9, 1)),
            (74, 5, K::GwcApply, apply(1, 3)),
            // Entry-consistency counters.
            (80, 7, K::EcGrantArrived, var(0)),
            (80, 7, K::EcInvalidated, var(0)),
            (
                80,
                7,
                K::EcFetchServe,
                TraceDetail::VarNode { var: 0, node: 1 },
            ),
            (80, 7, K::EcLocalReacquire, var(0)),
            // Mismatched details count nothing.
            (85, 8, K::PktSend, var(1)),
            (85, 8, K::RootQueue, var(1)),
        ];
        let mut both = Both::new();
        for (ns, actor, kind, detail) in events {
            both.on_record(&entry(ns, actor, kind, detail));
        }
        both.on_seq_floor(1, 2);
        both.on_record(&entry(99, 6, K::GwcApply, apply(1, 2)));
        both.assert_equal(SimTime::from_nanos(100));
    }

    #[test]
    #[should_panic(expected = "metric 'node/3/net/packets' is both a registry key")]
    fn a_registry_key_that_is_also_a_row_key_panics_at_snapshot() {
        let mut t = Telemetry::new("t", 0);
        t.observe(&entry(
            10,
            3,
            K::PktSend,
            TraceDetail::Packet {
                from: 3,
                to: 0,
                bytes: 8,
                hops: 1,
                arrival_ns: 20,
            },
        ));
        t.add_counter("node/3/net/packets", 1);
        t.finish(SimTime::from_nanos(30));
        t.snapshot();
    }

    #[test]
    fn a_counter_exists_from_its_first_add_and_a_gauge_is_overwritten() {
        let mut t = Telemetry::new("t", 0);
        t.add_counter("net/losses", 0);
        t.add_counter("a/b", 2);
        t.add_counter("a/b", 1);
        t.set_gauge("g", 1.0);
        t.set_gauge("g", 2.5);
        let snap = t.snapshot();
        assert_eq!(
            snap.metrics.get("net/losses"),
            Some(&SnapshotValue::Counter(0))
        );
        assert_eq!(snap.counter("a/b"), 3);
        assert_eq!(snap.metrics.get("g"), Some(&SnapshotValue::Gauge(2.5)));
        assert_eq!(snap.metrics.len(), 3);
    }

    #[test]
    fn named_keys_export_in_key_order_among_row_keys() {
        let mut t = Telemetry::new("t", 0);
        t.add_counter("z", 1);
        t.set_gauge("node/3/cpu/efficiency", 0.5);
        t.add_counter("a", 1);
        t.observe(&entry(10, 3, K::AccRead, var(0)));
        t.observe(&entry(10, 2, K::AccRead, var(0)));
        t.finish(SimTime::from_nanos(30));
        let snap = t.snapshot();
        let keys: Vec<&str> = snap.metrics.keys().map(String::as_str).collect();
        let want = [
            "a",
            "node/2/mem/reads",
            "node/3/cpu/efficiency",
            "node/3/mem/reads",
            "z",
        ];
        assert_eq!(keys, want);
        let json = snap.to_json();
        let at = |key: &str| json.find(&format!("\"{key}\":")).expect("exported");
        assert!(want.windows(2).all(|w| at(w[0]) < at(w[1])), "{json}");
    }

    #[test]
    #[should_panic(expected = "metric 'k' is a counter")]
    fn a_counter_key_set_as_a_gauge_panics() {
        let mut t = Telemetry::new("t", 0);
        t.add_counter("k", 1);
        t.set_gauge("k", 1.0);
    }

    /// The collector before typed rows, kept as the reference the rows are
    /// compared against: every per-record metric named by a template over
    /// `(node[, lock | group])`, resolved to a slot on first touch and by
    /// slot from then on, beside name-keyed metrics in the same slots.
    /// Metrics only: no timeline, series or causal DAG.
    mod reference {
        use std::collections::BTreeMap;

        use sesame_sim::{
            ApplyMode, Histogram, SeqTable, SimTime, TimeWeighted, TraceDetail, TraceEntry,
            TraceKind as K, TraceObserver,
        };

        use crate::{Snapshot, SnapshotValue};

        /// One slot's metric.
        #[derive(Debug)]
        enum Metric {
            Counter(u64),
            Gauge(f64),
            Histogram(Histogram),
            TimeWeighted(TimeWeighted),
        }

        impl Metric {
            fn kind(&self) -> &'static str {
                match self {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                    Metric::TimeWeighted(_) => "timeweighted",
                }
            }

            /// The exported value in a run that ended at `end`.
            fn value(&self, end: SimTime) -> SnapshotValue {
                match self {
                    Metric::Counter(c) => SnapshotValue::Counter(*c),
                    Metric::Gauge(g) => SnapshotValue::Gauge(*g),
                    Metric::Histogram(h) => SnapshotValue::histogram(h),
                    Metric::TimeWeighted(tw) => SnapshotValue::time_weighted(tw, end),
                }
            }
        }

        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        enum Name {
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

        #[derive(Debug, Clone, Copy)]
        struct SeqSpan {
            start: SimTime,
        }

        #[derive(Debug, Default)]
        pub struct Collector {
            slots: Vec<Metric>,
            names: BTreeMap<String, usize>,
            cache: BTreeMap<(Name, usize, u32), usize>,
            wait_start: BTreeMap<(usize, u32), SimTime>,
            hold_start: BTreeMap<(usize, u32), SimTime>,
            opt_start: BTreeMap<(usize, u32), SimTime>,
            seq_pending: BTreeMap<u32, SeqTable<SeqSpan>>,
            end: SimTime,
        }

        macro_rules! by_key {
            ($fn_name:ident, $ty:ty, $variant:ident, $fresh:expr) => {
                /// The name-keyed metric at `key`, created on first use.
                pub fn $fn_name(&mut self, key: &str) -> &mut $ty {
                    let slot = self.slot(key, || Metric::$variant($fresh));
                    match &mut self.slots[slot] {
                        Metric::$variant(m) => m,
                        other => panic!("metric '{key}' is a {}", other.kind()),
                    }
                }
            };
        }

        macro_rules! by_name {
            ($fn_name:ident, $ty:ty, $variant:ident, $fresh:expr) => {
                /// The metric `name` names for `(a, b)`: resolved by key
                /// on first touch, by slot from then on.
                fn $fn_name(&mut self, name: Name, a: usize, b: u32) -> &mut $ty {
                    let slot = match self.cache.get(&(name, a, b)) {
                        Some(&slot) => slot,
                        None => {
                            let slot = self.slot(&name.key(a, b), || Metric::$variant($fresh));
                            self.cache.insert((name, a, b), slot);
                            slot
                        }
                    };
                    match &mut self.slots[slot] {
                        Metric::$variant(m) => m,
                        other => panic!("{name:?} is a {}", other.kind()),
                    }
                }
            };
        }

        impl Collector {
            /// The slot of `key`, created with `fresh` if absent.
            fn slot(&mut self, key: &str, fresh: fn() -> Metric) -> usize {
                if let Some(&slot) = self.names.get(key) {
                    return slot;
                }
                self.slots.push(fresh());
                self.names.insert(key.to_string(), self.slots.len() - 1);
                self.slots.len() - 1
            }

            by_key!(counter, u64, Counter, 0);
            by_key!(gauge, f64, Gauge, 0.0);
            by_name!(count, u64, Counter, 0);
            by_name!(record, Histogram, Histogram, Histogram::new());
            by_name!(depth, TimeWeighted, TimeWeighted, TimeWeighted::default());

            pub fn finish(&mut self, end: SimTime) {
                self.end = end;
                self.seq_pending.clear();
                self.wait_start.clear();
                self.hold_start.clear();
                self.opt_start.clear();
            }

            pub fn snapshot(&self, scenario: &str, seed: u64) -> Snapshot {
                let metrics = self
                    .names
                    .iter()
                    .map(|(key, &slot)| (key.clone(), self.slots[slot].value(self.end)));
                Snapshot {
                    scenario: scenario.to_string(),
                    seed,
                    end_ns: self.end.as_nanos(),
                    metrics: metrics.collect(),
                }
            }
        }

        impl TraceObserver for Collector {
            fn on_seq_floor(&mut self, group: u32, floor: u64) {
                if let Some(run) = self.seq_pending.get_mut(&group) {
                    run.retire_through(floor);
                }
            }

            fn on_record(&mut self, e: &TraceEntry) {
                let node = e.actor;
                let t = e.time;
                match (e.kind, &e.detail) {
                    (K::OptConflict, &TraceDetail::Conflict { var, writer }) => {
                        *self.count(Name::Blame, var as usize, writer) += 1;
                    }
                    (K::MutexEnter | K::LockAcquire, &TraceDetail::Var { var: v }) => {
                        self.wait_start.insert((node, v), t);
                    }
                    (K::EvAcquired | K::MutexGranted, &TraceDetail::Var { var: v }) => {
                        if let Some(start) = self.wait_start.remove(&(node, v)) {
                            self.record(Name::LockWait, node, v)
                                .record(t.saturating_since(start));
                        }
                        self.hold_start.insert((node, v), t);
                    }
                    (K::EvReleased, &TraceDetail::Var { var: v }) => {
                        if let Some(start) = self.hold_start.remove(&(node, v)) {
                            self.record(Name::LockHold, node, v)
                                .record(t.saturating_since(start));
                        }
                    }
                    (K::MutexRegular, &TraceDetail::Var { var: v }) => {
                        *self.count(Name::RegAttempts, node, v) += 1;
                    }
                    (K::OptEnter, &TraceDetail::Var { var: v }) => {
                        *self.count(Name::OptAttempts, node, v) += 1;
                        self.opt_start.insert((node, v), t);
                    }
                    (K::OptRollback, &TraceDetail::Var { var: v }) => {
                        *self.count(Name::OptRollbacks, node, v) += 1;
                        self.opt_start.remove(&(node, v));
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
                        *self.count(Name::Completions, node, v) += 1;
                        if optimistic {
                            if rollbacks == 0 {
                                *self.count(Name::OptWins, node, v) += 1;
                            }
                            if overlapped {
                                *self.count(Name::OptOverlapped, node, v) += 1;
                            }
                            self.opt_start.remove(&(node, v));
                        }
                    }
                    (K::RootQueue, &TraceDetail::QueueDepth { var: v, depth }) => {
                        self.depth(Name::RootQueueDepth, node, v)
                            .set(t, f64::from(depth));
                    }
                    (K::EcQueue, &TraceDetail::QueueDepth { var: v, depth }) => {
                        self.depth(Name::EcQueueDepth, node, v)
                            .set(t, f64::from(depth));
                    }
                    (K::RootSeq, &TraceDetail::Seq { group: g, seq, .. }) => {
                        *self.count(Name::GroupSequenced, g as usize, 0) += 1;
                        let run = self.seq_pending.entry(g).or_default();
                        run.insert(seq, SeqSpan { start: t });
                    }
                    (K::RootFiltered, &TraceDetail::Filtered { group: g, .. }) => {
                        *self.count(Name::GroupFiltered, g as usize, 0) += 1;
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
                            *self.count(Name::HwBlockDrops, node, 0) += 1;
                        }
                        *self.count(Name::GwcApplies, node, 0) += 1;
                        let run = self.seq_pending.get_mut(&g);
                        if let Some(span) = run.and_then(|run| run.get_mut(seq)) {
                            let start = span.start;
                            self.record(Name::GroupSeqLatency, g as usize, 0)
                                .record(t.saturating_since(start));
                        }
                    }
                    (K::AccRead, TraceDetail::Var { .. }) => {
                        *self.count(Name::MemReads, node, 0) += 1;
                    }
                    (K::AccWrite, TraceDetail::VarVal { .. }) => {
                        *self.count(Name::MemWrites, node, 0) += 1;
                    }
                    (K::AccWriteLocal, TraceDetail::VarVal { .. }) => {
                        *self.count(Name::MemLocalWrites, node, 0) += 1;
                    }
                    (
                        K::PktSend,
                        &TraceDetail::Packet {
                            bytes,
                            hops,
                            arrival_ns,
                            ..
                        },
                    ) => {
                        *self.count(Name::NetPackets, node, 0) += 1;
                        *self.count(Name::NetBytes, node, 0) += u64::from(bytes);
                        *self.count(Name::NetHops, node, 0) += u64::from(hops);
                        let arrival = SimTime::from_nanos(arrival_ns);
                        self.record(Name::NetFlight, node, 0)
                            .record(arrival.saturating_since(t));
                    }
                    (K::PktMcast, &TraceDetail::Multicast { bytes, members, .. }) => {
                        *self.count(Name::NetMcasts, node, 0) += 1;
                        *self.count(Name::NetMcastBytes, node, 0) +=
                            u64::from(bytes) * u64::from(members);
                    }
                    (K::EcGrantArrived, TraceDetail::Var { .. }) => {
                        *self.count(Name::EcGrants, node, 0) += 1;
                    }
                    (K::EcInvalidated, TraceDetail::Var { .. }) => {
                        *self.count(Name::EcInvalidations, node, 0) += 1;
                    }
                    (K::EcFetchServe, TraceDetail::VarNode { .. }) => {
                        *self.count(Name::EcFetchServes, node, 0) += 1;
                    }
                    (K::EcLocalReacquire, TraceDetail::Var { .. }) => {
                        *self.count(Name::EcLocalReacquires, node, 0) += 1;
                    }
                    _ => {}
                }
            }
        }
    }
}

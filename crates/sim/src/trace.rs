//! Event tracing and timeline extraction.
//!
//! A [`TraceRecorder`] captures `(time, actor, kind, detail)` records while a
//! simulation runs. Tracing is how the reproduction renders the paper's
//! Figure 1 and Figure 7 timing diagrams, and the stream its verifier and
//! telemetry collector read.
//!
//! Both halves of a record are typed. The kind is a [`TraceKind`]: one
//! closed, fieldless enum of the protocol's actions, a byte in the record,
//! whose [`TraceKind::as_str`] is the only place a spelling lives. The
//! payload is a [`TraceDetail`]: the *shape* a kind carries (sequence
//! numbers, variable ids, values, origins, holders) in `Copy` variants,
//! several kinds sharing one shape. Recording a protocol event therefore
//! never formats text, a record never owns heap data, and consumers such
//! as `sesame-verify` and `sesame-telemetry` match `(kind, &detail)` pairs
//! of enum variants: no string is compared per record, and a misspelt
//! kind does not compile. The text forms exist only in the
//! [`fmt::Display`] impls used for human-readable rendering.
//!
//! Recording is disabled by default and costs a single branch when off.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::SimTime;

/// How a group-wide-consistent update was handled at a member interface
/// (the `mode` field of `gwc-apply` records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyMode {
    /// Written straight to local memory.
    Applied,
    /// Discarded by the Figure 6 hardware blocking (own echo).
    HwBlocked,
    /// Applied with a lock-change interrupt armed (insharing suspension).
    Interrupt,
}

impl ApplyMode {
    /// The single-letter wire code used in rendered traces
    /// (`a` / `h` / `i`).
    pub fn code(self) -> &'static str {
        match self {
            ApplyMode::Applied => "a",
            ApplyMode::HwBlocked => "h",
            ApplyMode::Interrupt => "i",
        }
    }
}

impl fmt::Display for ApplyMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// What kind of protocol action a causal id labels (the `op` field of
/// `"cause"` records).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CauseOp {
    /// A program issued a shared write.
    Write,
    /// A program requested the group lock.
    Acquire,
    /// A program released the group lock.
    Release,
    /// A unicast packet left a node.
    Send,
    /// A multicast fan-out left the group root.
    Mcast,
    /// The root assigned a global sequence number.
    Seq,
    /// The root discarded a losing optimistic write.
    Filter,
    /// The root granted the lock.
    Grant,
    /// A sequenced update was applied at a member interface.
    Apply,
    /// A program scheduled local compute.
    Compute,
    /// An optimistic section rolled back.
    Rollback,
    /// A program observed lock acquisition.
    Acquired,
    /// A mutex section completed.
    Complete,
}

impl CauseOp {
    /// Every op, in declaration order: `ALL[op as usize] == op`.
    pub const ALL: [CauseOp; 13] = [
        CauseOp::Write,
        CauseOp::Acquire,
        CauseOp::Release,
        CauseOp::Send,
        CauseOp::Mcast,
        CauseOp::Seq,
        CauseOp::Filter,
        CauseOp::Grant,
        CauseOp::Apply,
        CauseOp::Compute,
        CauseOp::Rollback,
        CauseOp::Acquired,
        CauseOp::Complete,
    ];

    /// The short wire name used in rendered traces and exports.
    pub fn as_str(self) -> &'static str {
        match self {
            CauseOp::Write => "write",
            CauseOp::Acquire => "acquire",
            CauseOp::Release => "release",
            CauseOp::Send => "send",
            CauseOp::Mcast => "mcast",
            CauseOp::Seq => "seq",
            CauseOp::Filter => "filter",
            CauseOp::Grant => "grant",
            CauseOp::Apply => "apply",
            CauseOp::Compute => "compute",
            CauseOp::Rollback => "rollback",
            CauseOp::Acquired => "acquired",
            CauseOp::Complete => "complete",
        }
    }
}

impl fmt::Display for CauseOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Defines [`TraceKind`] from one table, so a variant, its place in
/// [`TraceKind::ALL`] and its spelling cannot drift apart.
macro_rules! trace_kinds {
    ($($(#[$doc:meta])* $variant:ident = $text:literal,)*) => {
        /// What a [`TraceEntry`] records: the closed vocabulary of the
        /// protocol's actions, one byte per record. The payload *shape* a
        /// kind carries is its [`TraceDetail`] variant, named in each doc
        /// line below; consumers match `(kind, &detail)` and ignore a
        /// kind that arrives with another shape.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        pub enum TraceKind {
            $($(#[$doc])* $variant,)*
        }

        impl TraceKind {
            /// Every kind, in declaration order: `ALL[k as usize] == k`.
            pub const ALL: [TraceKind; 34] = [$(TraceKind::$variant,)*];

            /// The kind as rendered traces, exports and diagnostics spell
            /// it — the only place a spelling lives.
            pub const fn as_str(self) -> &'static str {
                match self {
                    $(TraceKind::$variant => $text,)*
                }
            }
        }
    };
}

trace_kinds! {
    /// A program read a shared variable (`Var`).
    AccRead = "acc-read",
    /// A program wrote a shared variable (`VarVal`).
    AccWrite = "acc-write",
    /// A local-only write: a rollback restoring a saved value (`VarVal`).
    AccWriteLocal = "acc-write-local",
    /// A program issued a blocking lock acquire (`Var`).
    LockAcquire = "lock-acquire",
    /// A program released a lock (`Var`).
    LockRelease = "lock-release",
    /// A program was told it holds the lock (`Var`).
    EvAcquired = "ev-acquired",
    /// A program was told its release completed (`Var`).
    EvReleased = "ev-released",
    /// The mutex engine began an entry (`Var`).
    MutexEnter = "mutex-enter",
    /// The engine took the regular, queue-for-the-grant path (`Var`).
    MutexRegular = "mutex-regular",
    /// The engine started the section body optimistically (`Var`).
    MutexOptimistic = "mutex-optimistic",
    /// The engine observed its own grant (`Var`).
    MutexGranted = "mutex-granted",
    /// The engine restored the saved values and now waits (`Var`).
    MutexRollback = "mutex-rollback",
    /// A mutex section completed (`Complete`).
    MutexComplete = "mutex-complete",
    /// Speculation began: accesses are tentative until grant or rollback
    /// (`Var`).
    OptEnter = "opt-enter",
    /// The engine saved a variable's pre-section value (`VarVal`).
    OptSave = "opt-save",
    /// The speculation lost; the saved values are restored next (`Var`).
    OptRollback = "opt-rollback",
    /// The remote write a rollback is blamed on (`Conflict`).
    OptConflict = "opt-conflict",
    /// The group root assigned a sequence number (`Seq`).
    RootSeq = "root-seq",
    /// The root discarded a non-holder's write (`Filtered`).
    RootFiltered = "root-filtered",
    /// The root granted the lock (`Grant`).
    RootGrant = "root-grant",
    /// A release reached the root (`Release`).
    RootRelease = "root-release",
    /// The root's lock queue changed length (`QueueDepth`).
    RootQueue = "root-queue",
    /// The root queued a lock request; `node` is the requester
    /// (`VarNode`).
    LockQueued = "lock-queued",
    /// The root's watchdog re-sent a grant (`Grant`).
    GrantRetransmit = "grant-retransmit",
    /// A member interface consumed a sequenced write (`Apply`); `mode=h`
    /// is the Figure 6 hardware blocking discarding an own echo.
    GwcApply = "gwc-apply",
    /// A unicast packet left a node (`Packet`).
    PktSend = "pkt-send",
    /// A multicast left a group root (`Multicast`).
    PktMcast = "pkt-mcast",
    /// The causal edge of the record before it (`Cause`).
    Cause = "cause",
    /// Entry consistency: an owner began handing a lock over; `node` is
    /// the new owner (`VarNode`).
    EcBeginTransfer = "ec-begin-transfer",
    /// Entry consistency: a lock grant arrived at its new owner (`Var`).
    EcGrantArrived = "ec-grant-arrived",
    /// Entry consistency: the owner re-acquired its own lock locally
    /// (`Var`).
    EcLocalReacquire = "ec-local-reacquire",
    /// Entry consistency: an owner's wait queue changed length
    /// (`QueueDepth`).
    EcQueue = "ec-queue",
    /// Entry consistency: a cached copy was invalidated (`Var`).
    EcInvalidated = "ec-invalidated",
    /// Entry consistency: the owner served a data fetch; `var` is the
    /// fetched variable, `node` the requester (`VarNode`).
    EcFetchServe = "ec-fetch-serve",
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.as_str())
    }
}

/// The structured payload of a [`TraceEntry`].
///
/// Every protocol event maps to one typed variant of plain `Copy` data,
/// so constructing one is free and recording it allocates nothing beyond
/// the trace vector itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceDetail {
    /// No payload.
    #[default]
    None,
    /// A single lock/variable id (`v=<var>`): lock and mutex lifecycle
    /// events, reads.
    Var {
        /// The lock or shared variable.
        var: u32,
    },
    /// A variable and the value involved (`v=<var> val=<val>`): writes,
    /// restores, speculative saves.
    VarVal {
        /// The shared variable.
        var: u32,
        /// The value written or saved.
        val: i64,
    },
    /// A lock or variable and the node it concerns (`v=<var> node=<node>`):
    /// a queued requester, a transfer's new owner, a fetch's requester.
    VarNode {
        /// The lock or shared variable.
        var: u32,
        /// The node involved.
        node: u32,
    },
    /// A lock queue observation (`v=<var> q=<depth>`).
    QueueDepth {
        /// The lock variable.
        var: u32,
        /// Waiters queued after this event.
        depth: u32,
    },
    /// A root sequencing decision
    /// (`g=<group> seq=<seq> v=<var> val=<val> origin=<origin>`).
    Seq {
        /// The sharing group.
        group: u32,
        /// The global sequence number assigned.
        seq: u64,
        /// The shared variable.
        var: u32,
        /// The sequenced value.
        val: i64,
        /// The node whose write was sequenced.
        origin: u32,
    },
    /// A root-filtered (discarded losing optimistic) write
    /// (`g=<group> v=<var> val=<val> origin=<origin>`).
    Filtered {
        /// The sharing group.
        group: u32,
        /// The shared variable.
        var: u32,
        /// The discarded value.
        val: i64,
        /// The losing writer.
        origin: u32,
    },
    /// A sequenced update arriving at a member interface
    /// (`g=… seq=… v=… val=… origin=… mode=<a|h|i>`).
    Apply {
        /// The sharing group.
        group: u32,
        /// The global sequence number.
        seq: u64,
        /// The shared variable.
        var: u32,
        /// The applied value.
        val: i64,
        /// The originating node.
        origin: u32,
        /// How the interface handled the update.
        mode: ApplyMode,
    },
    /// The root granting a lock (`g=<group> v=<var> holder=<holder>`).
    Grant {
        /// The sharing group.
        group: u32,
        /// The lock variable.
        var: u32,
        /// The node granted the lock.
        holder: u32,
    },
    /// A lock release reaching the root (`g=<group> v=<var> from=<from>`).
    Release {
        /// The sharing group.
        group: u32,
        /// The lock variable.
        var: u32,
        /// The node that released.
        from: u32,
    },
    /// A mutex section completing (`v=… path=<o|r> rb=… ov=<0|1>`).
    Complete {
        /// The mutex variable.
        var: u32,
        /// Whether the optimistic path committed (`path=o`) or the
        /// section fell back to the regular queue (`path=r`).
        optimistic: bool,
        /// Rollbacks taken before completing.
        rollbacks: u32,
        /// Whether the grant round trip was fully overlapped by the body.
        overlapped: bool,
    },
    /// A unicast packet send
    /// (`from=… to=… bytes=… hops=… at=<arrival-ns>`).
    Packet {
        /// Sending node.
        from: u32,
        /// Destination node.
        to: u32,
        /// Payload size on the wire.
        bytes: u32,
        /// Topology hop count.
        hops: u32,
        /// Scheduled arrival, nanoseconds.
        arrival_ns: u64,
    },
    /// A group multicast (`g=… bytes=… n=<members> last=<ns>`).
    Multicast {
        /// The destination group.
        group: u32,
        /// Payload size on the wire.
        bytes: u32,
        /// Member interfaces reached.
        members: u32,
        /// Last arrival, nanoseconds.
        last_ns: u64,
    },
    /// A causal edge (`id=<id> cause=<parent> op=<op>`): the action with
    /// causal id `id` happened because of the action with id `cause`
    /// (0 = no recorded cause). Emitted immediately after the canonical
    /// record it annotates, on the same actor at the same time.
    Cause {
        /// The causal id assigned to this action.
        id: u64,
        /// The causal id of the action that caused it (0 for roots).
        cause: u64,
        /// What kind of action this is.
        op: CauseOp,
    },
    /// A rollback's conflict attribution (`v=<var> writer=<writer>`): the
    /// remote write that invalidated the optimistic section.
    Conflict {
        /// The lock variable whose change triggered the rollback.
        var: u32,
        /// The node whose conflicting write won.
        writer: u32,
    },
}

impl fmt::Display for TraceDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceDetail::None => Ok(()),
            TraceDetail::Var { var } => write!(f, "v={var}"),
            TraceDetail::VarVal { var, val } => write!(f, "v={var} val={val}"),
            TraceDetail::VarNode { var, node } => write!(f, "v={var} node={node}"),
            TraceDetail::QueueDepth { var, depth } => write!(f, "v={var} q={depth}"),
            TraceDetail::Seq {
                group,
                seq,
                var,
                val,
                origin,
            } => write!(f, "g={group} seq={seq} v={var} val={val} origin={origin}"),
            TraceDetail::Filtered {
                group,
                var,
                val,
                origin,
            } => write!(f, "g={group} v={var} val={val} origin={origin}"),
            TraceDetail::Apply {
                group,
                seq,
                var,
                val,
                origin,
                mode,
            } => write!(
                f,
                "g={group} seq={seq} v={var} val={val} origin={origin} mode={mode}"
            ),
            TraceDetail::Grant { group, var, holder } => {
                write!(f, "g={group} v={var} holder={holder}")
            }
            TraceDetail::Release { group, var, from } => {
                write!(f, "g={group} v={var} from={from}")
            }
            TraceDetail::Complete {
                var,
                optimistic,
                rollbacks,
                overlapped,
            } => write!(
                f,
                "v={var} path={} rb={rollbacks} ov={}",
                if *optimistic { "o" } else { "r" },
                u32::from(*overlapped)
            ),
            TraceDetail::Packet {
                from,
                to,
                bytes,
                hops,
                arrival_ns,
            } => write!(
                f,
                "from={from} to={to} bytes={bytes} hops={hops} at={arrival_ns}"
            ),
            TraceDetail::Multicast {
                group,
                bytes,
                members,
                last_ns,
            } => write!(f, "g={group} bytes={bytes} n={members} last={last_ns}"),
            TraceDetail::Cause { id, cause, op } => {
                write!(f, "id={id} cause={cause} op={op}")
            }
            TraceDetail::Conflict { var, writer } => write!(f, "v={var} writer={writer}"),
        }
    }
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the event happened.
    pub time: SimTime,
    /// Which actor (node) it happened on.
    pub actor: usize,
    /// What happened.
    pub kind: TraceKind,
    /// The typed payload.
    pub detail: TraceDetail,
}

// What a retained trace costs per event: time, actor, the kind's byte and
// the 32-byte detail. A record that owned heap data must fail to compile.
const _: () = assert!(std::mem::size_of::<TraceEntry>() <= 56);
const fn _assert_copy<T: Copy>() {}
const _: () = _assert_copy::<TraceDetail>();
const _: () = _assert_copy::<TraceEntry>();

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12} node{:<3} {:<24} {}",
            format!("{}", self.time),
            self.actor,
            self.kind,
            self.detail
        )
    }
}

/// Receives every trace record the moment it is made.
///
/// This is the hook through which online checkers (e.g. `sesame-verify`)
/// watch a running simulation without waiting for the run to finish or
/// requiring the recorder to retain the whole trace in memory.
pub trait TraceObserver {
    /// Called once per record, in simulation-time order.
    fn on_record(&mut self, entry: &TraceEntry);

    /// The producer's liveness signal for causal ids: no later `"cause"`
    /// record names a parent below `floor` (0, "no cause", aside). Floors
    /// never decrease. It is a call, not a record — the record stream is
    /// the same with or without it — and the default ignores it.
    fn on_cause_floor(&mut self, floor: u64) {
        let _ = floor;
    }

    /// The producer's liveness signal for sequenced writes: every member
    /// of `group` has applied every write its root numbered through
    /// `floor`, so no later `"gwc-apply"` record names one of them. A
    /// group's floors only rise. Like [`TraceObserver::on_cause_floor`] it
    /// is a call, not a record, and the default ignores it.
    fn on_seq_floor(&mut self, group: u32, floor: u64) {
        let _ = (group, floor);
    }
}

/// Collects [`TraceEntry`] records during a run and feeds an optional
/// online [`TraceObserver`].
#[derive(Default, Clone)]
pub struct TraceRecorder {
    enabled: bool,
    entries: Vec<TraceEntry>,
    observer: Option<Rc<RefCell<dyn TraceObserver>>>,
}

impl fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("enabled", &self.enabled)
            .field("entries", &self.entries.len())
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl TraceRecorder {
    /// Creates a recorder; pass `enabled = false` for zero-overhead runs.
    pub fn new(enabled: bool) -> Self {
        TraceRecorder {
            enabled,
            entries: Vec::new(),
            observer: None,
        }
    }

    /// Whether records are being made, either into the in-memory trace or
    /// to an attached observer. Call sites use this to skip work that only
    /// a record needs; a detail itself is `Copy` and free to build.
    pub fn is_enabled(&self) -> bool {
        self.enabled || self.observer.is_some()
    }

    /// Turns in-memory recording on or off mid-run. An attached observer
    /// keeps receiving records regardless.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Attaches an online observer that sees every subsequent record, even
    /// when in-memory recording stays off.
    pub fn set_observer(&mut self, observer: Rc<RefCell<dyn TraceObserver>>) {
        self.observer = Some(observer);
    }

    /// Lets go of the observer: what [`Simulation::into_parts`] hands back
    /// is the records alone.
    ///
    /// [`Simulation::into_parts`]: crate::Simulation::into_parts
    pub(crate) fn detach_observer(&mut self) {
        self.observer = None;
    }

    /// Appends a record if recording is enabled, and forwards it to the
    /// observer if one is attached. With recording off and no observer,
    /// this is a branch — no allocation, no formatting.
    pub fn record(&mut self, time: SimTime, actor: usize, kind: TraceKind, detail: TraceDetail) {
        if !self.is_enabled() {
            return;
        }
        #[cfg(feature = "hostprof")]
        let trace_started = crate::hostprof::clock_start();
        let entry = TraceEntry {
            time,
            actor,
            kind,
            detail,
        };
        if let Some(observer) = &self.observer {
            #[cfg(feature = "hostprof")]
            let observer_started = crate::hostprof::clock_start();
            observer.borrow_mut().on_record(&entry);
            #[cfg(feature = "hostprof")]
            crate::hostprof::observer_done(observer_started);
        }
        if self.enabled {
            self.entries.push(entry);
        }
        #[cfg(feature = "hostprof")]
        crate::hostprof::trace_done(trace_started);
    }

    /// Tells the attached observer, if any, that no later `"cause"` record
    /// names a parent below `floor` ([`TraceObserver::on_cause_floor`]).
    /// Nothing is recorded.
    pub fn cause_floor(&mut self, floor: u64) {
        if let Some(observer) = &self.observer {
            #[cfg(feature = "hostprof")]
            let observer_started = crate::hostprof::clock_start();
            observer.borrow_mut().on_cause_floor(floor);
            #[cfg(feature = "hostprof")]
            crate::hostprof::observer_done(observer_started);
        }
    }

    /// Tells the attached observer, if any, that every member of `group`
    /// has applied the writes numbered through `floor`
    /// ([`TraceObserver::on_seq_floor`]). Nothing is recorded.
    pub fn seq_floor(&mut self, group: u32, floor: u64) {
        if let Some(observer) = &self.observer {
            #[cfg(feature = "hostprof")]
            let observer_started = crate::hostprof::clock_start();
            observer.borrow_mut().on_seq_floor(group, floor);
            #[cfg(feature = "hostprof")]
            crate::hostprof::observer_done(observer_started);
        }
    }

    /// All records, in the order they were made (which is time order, since
    /// the simulator's clock never goes backwards).
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Records whose kind equals `kind`.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(move |e| e.kind == kind)
    }

    /// Number of records with the given kind.
    pub fn count_of(&self, kind: TraceKind) -> usize {
        self.of_kind(kind).count()
    }

    /// Drops all records.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut tr = TraceRecorder::new(false);
        tr.record(t(1), 0, TraceKind::AccRead, TraceDetail::None);
        assert!(tr.entries().is_empty());
        assert!(!tr.is_enabled());
    }

    #[test]
    fn enabled_recorder_keeps_everything() {
        let mut tr = TraceRecorder::new(true);
        tr.record(t(1), 0, TraceKind::LockAcquire, TraceDetail::Var { var: 7 });
        tr.record(t(5), 2, TraceKind::EvAcquired, TraceDetail::Var { var: 7 });
        assert_eq!(tr.entries().len(), 2);
        assert_eq!(tr.count_of(TraceKind::EvAcquired), 1);
    }

    #[test]
    fn filters_by_actor_and_kind() {
        let mut tr = TraceRecorder::new(true);
        tr.record(t(1), 0, TraceKind::AccRead, TraceDetail::None);
        tr.record(t(2), 1, TraceKind::AccRead, TraceDetail::None);
        tr.record(t(3), 0, TraceKind::AccWrite, TraceDetail::None);
        let on: Vec<usize> = tr.of_kind(TraceKind::AccRead).map(|e| e.actor).collect();
        assert_eq!(on, vec![0, 1]);
        assert_eq!(tr.of_kind(TraceKind::Cause).count(), 0);
    }

    #[test]
    fn render_contains_all_fields() {
        let mut tr = TraceRecorder::new(true);
        let detail = TraceDetail::VarNode { var: 9, node: 4 };
        tr.record(t(1500), 3, TraceKind::LockQueued, detail);
        let s = tr.entries()[0].to_string();
        assert!(s.contains("t=1.500us"), "{s}");
        assert!(s.contains("node3"), "{s}");
        assert!(s.contains("lock-queued"), "{s}");
        assert!(s.contains("v=9 node=4"), "{s}");
    }

    /// The compatibility contract of every golden file, digest pin and
    /// export: these 34 spellings, no more, no fewer.
    #[test]
    fn the_vocabulary_is_these_thirty_four_spellings() {
        const SPELLINGS: [&str; 34] = [
            "acc-read",
            "acc-write",
            "acc-write-local",
            "lock-acquire",
            "lock-release",
            "ev-acquired",
            "ev-released",
            "mutex-enter",
            "mutex-regular",
            "mutex-optimistic",
            "mutex-granted",
            "mutex-rollback",
            "mutex-complete",
            "opt-enter",
            "opt-save",
            "opt-rollback",
            "opt-conflict",
            "root-seq",
            "root-filtered",
            "root-grant",
            "root-release",
            "root-queue",
            "lock-queued",
            "grant-retransmit",
            "gwc-apply",
            "pkt-send",
            "pkt-mcast",
            "cause",
            "ec-begin-transfer",
            "ec-grant-arrived",
            "ec-local-reacquire",
            "ec-queue",
            "ec-invalidated",
            "ec-fetch-serve",
        ];
        let rendered: Vec<String> = TraceKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(rendered, SPELLINGS);
        for (i, kind) in TraceKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind} is ALL[{i}]");
        }
        let distinct: std::collections::BTreeSet<&str> = SPELLINGS.into_iter().collect();
        assert_eq!(distinct.len(), 34);
    }

    #[test]
    fn every_cause_op_is_its_place_in_all() {
        for (i, op) in CauseOp::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "{op} is ALL[{i}]");
            // Each variant once: the match below names all of them.
            let named = match op {
                CauseOp::Write => 0,
                CauseOp::Acquire => 1,
                CauseOp::Release => 2,
                CauseOp::Send => 3,
                CauseOp::Mcast => 4,
                CauseOp::Seq => 5,
                CauseOp::Filter => 6,
                CauseOp::Grant => 7,
                CauseOp::Apply => 8,
                CauseOp::Compute => 9,
                CauseOp::Rollback => 10,
                CauseOp::Acquired => 11,
                CauseOp::Complete => 12,
            };
            assert_eq!(CauseOp::ALL[named], op);
        }
    }

    #[test]
    fn entries_render_in_fixed_columns_up_to_the_longest_kind() {
        let kinds = TraceKind::ALL.into_iter();
        let longest = kinds.max_by_key(|k| k.as_str().len()).unwrap();
        assert_eq!(longest, TraceKind::EcLocalReacquire);
        let mut tr = TraceRecorder::new(true);
        tr.record(t(1500), 3, longest, TraceDetail::Var { var: 7 });
        tr.record(t(1500), 3, TraceKind::Cause, TraceDetail::Var { var: 7 });
        let lines: Vec<String> = tr.entries().iter().map(|e| e.to_string()).collect();
        assert_eq!(
            lines,
            [
                "   t=1.500us node3   ec-local-reacquire       v=7",
                "   t=1.500us node3   cause                    v=7",
            ]
        );
    }

    #[test]
    fn details_render_the_canonical_kv_text() {
        let cases: Vec<(TraceDetail, &str)> = vec![
            (TraceDetail::None, ""),
            (TraceDetail::Var { var: 3 }, "v=3"),
            (TraceDetail::VarVal { var: 3, val: -7 }, "v=3 val=-7"),
            (TraceDetail::VarNode { var: 3, node: 6 }, "v=3 node=6"),
            (TraceDetail::QueueDepth { var: 1, depth: 4 }, "v=1 q=4"),
            (
                TraceDetail::Seq {
                    group: 0,
                    seq: 12,
                    var: 5,
                    val: 9,
                    origin: 2,
                },
                "g=0 seq=12 v=5 val=9 origin=2",
            ),
            (
                TraceDetail::Filtered {
                    group: 0,
                    var: 5,
                    val: 9,
                    origin: 2,
                },
                "g=0 v=5 val=9 origin=2",
            ),
            (
                TraceDetail::Apply {
                    group: 0,
                    seq: 12,
                    var: 5,
                    val: 9,
                    origin: 2,
                    mode: ApplyMode::HwBlocked,
                },
                "g=0 seq=12 v=5 val=9 origin=2 mode=h",
            ),
            (
                TraceDetail::Grant {
                    group: 0,
                    var: 5,
                    holder: 2,
                },
                "g=0 v=5 holder=2",
            ),
            (
                TraceDetail::Release {
                    group: 0,
                    var: 5,
                    from: 2,
                },
                "g=0 v=5 from=2",
            ),
            (
                TraceDetail::Complete {
                    var: 5,
                    optimistic: true,
                    rollbacks: 1,
                    overlapped: false,
                },
                "v=5 path=o rb=1 ov=0",
            ),
            (
                TraceDetail::Packet {
                    from: 1,
                    to: 2,
                    bytes: 32,
                    hops: 3,
                    arrival_ns: 4500,
                },
                "from=1 to=2 bytes=32 hops=3 at=4500",
            ),
            (
                TraceDetail::Multicast {
                    group: 0,
                    bytes: 32,
                    members: 7,
                    last_ns: 9000,
                },
                "g=0 bytes=32 n=7 last=9000",
            ),
            (
                TraceDetail::Cause {
                    id: 41,
                    cause: 17,
                    op: CauseOp::Mcast,
                },
                "id=41 cause=17 op=mcast",
            ),
            (TraceDetail::Conflict { var: 5, writer: 2 }, "v=5 writer=2"),
        ];
        for (detail, want) in cases {
            assert_eq!(detail.to_string(), want);
        }
        assert_eq!(ApplyMode::Applied.code(), "a");
        assert_eq!(ApplyMode::Interrupt.code(), "i");
    }

    #[test]
    fn observer_sees_records_even_when_recording_is_off() {
        struct Counter(Vec<TraceKind>);
        impl TraceObserver for Counter {
            fn on_record(&mut self, entry: &TraceEntry) {
                self.0.push(entry.kind);
            }
        }
        let observer = Rc::new(RefCell::new(Counter(Vec::new())));
        let mut tr = TraceRecorder::new(false);
        tr.set_observer(observer.clone());
        assert!(tr.is_enabled(), "observer forces detail generation on");
        tr.record(t(1), 0, TraceKind::AccRead, TraceDetail::None);
        tr.record(t(2), 1, TraceKind::AccWrite, TraceDetail::None);
        assert!(tr.entries().is_empty(), "recording itself stays off");
        assert_eq!(
            observer.borrow().0,
            vec![TraceKind::AccRead, TraceKind::AccWrite]
        );
    }

    #[test]
    fn observer_and_recording_can_run_together() {
        struct Counter(usize);
        impl TraceObserver for Counter {
            fn on_record(&mut self, _: &TraceEntry) {
                self.0 += 1;
            }
        }
        let observer = Rc::new(RefCell::new(Counter(0)));
        let mut tr = TraceRecorder::new(true);
        tr.set_observer(observer.clone());
        tr.record(t(1), 0, TraceKind::AccRead, TraceDetail::None);
        assert_eq!(tr.entries().len(), 1);
        assert_eq!(observer.borrow().0, 1);
    }

    #[test]
    fn toggle_and_clear() {
        let mut tr = TraceRecorder::new(false);
        tr.set_enabled(true);
        tr.record(t(1), 0, TraceKind::AccRead, TraceDetail::None);
        assert_eq!(tr.entries().len(), 1);
        tr.clear();
        assert!(tr.entries().is_empty());
    }
}

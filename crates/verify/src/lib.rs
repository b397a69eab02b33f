//! # sesame-verify — trace-level race detection and protocol invariant
//! checking for the `sesame-rs` reproduction of *Hermannsson & Wittie,
//! "Optimistic Synchronization in Distributed Shared Memory" (ICDCS 1994)*.
//!
//! The simulation layers emit trace records (`acc-write`, `root-seq`,
//! `gwc-apply`, `opt-rollback`, …) whose kind is a
//! [`sesame_sim::TraceKind`] and whose payload is a typed
//! [`sesame_sim::TraceDetail`] variant. This crate consumes that stream —
//! **online**, as a [`sesame_sim::TraceObserver`] hooked into a running
//! simulation, or **offline**, over a recorded
//! [`sesame_sim::TraceRecorder`] — matches `(kind, &detail)` pairs (no
//! string is compared or parsed anywhere), and reports structured
//! [`Violation`]s.
//!
//! Three checkers run together in a [`Verifier`]:
//!
//! * [`RaceChecker`] — vector-clock happens-before data-race detection
//!   over shared reads and writes, with lock grant/release and GWC root
//!   sequencing as the synchronization edges;
//! * [`MutexChecker`] — mutual exclusion (at most one holder per lock,
//!   root-side and node-side) and rollback completeness (no optimistic
//!   write survives a discarded section — the paper's Figure 6 hazard);
//! * [`SeqChecker`] — GWC sequencing: every member observes root-ordered
//!   writes gaplessly, in the same order, with identical payloads.
//!
//! ```
//! use sesame_sim::{SimTime, TraceDetail, TraceEntry, TraceKind::RootGrant};
//! use sesame_verify::check_trace;
//!
//! // A root that grants a lock twice without a release in between:
//! let t = |ns| SimTime::from_nanos(ns);
//! let g = |holder| TraceDetail::Grant { group: 0, var: 0, holder };
//! let trace = vec![
//!     TraceEntry { time: t(10), actor: 0, kind: RootGrant, detail: g(1) },
//!     TraceEntry { time: t(20), actor: 0, kind: RootGrant, detail: g(2) },
//! ];
//! let violations = check_trace(&trace);
//! assert_eq!(violations.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod linear;
mod mutex;
mod race;
mod seq;

use std::fmt;

use sesame_sim::{SimTime, TraceEntry, TraceObserver, TraceRecorder};

pub use clock::VectorClock;
pub use linear::LinearChecker;
pub use mutex::MutexChecker;
pub use race::RaceChecker;
pub use seq::SeqChecker;

/// Which checker produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckKind {
    /// Happens-before data race between shared accesses.
    DataRace,
    /// Mutual-exclusion or rollback-completeness failure.
    MutualExclusion,
    /// GWC sequencing (total store order) failure.
    Sequencing,
    /// Critical-section effects diverge from the sequential counter
    /// specification.
    Linearizability,
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CheckKind::DataRace => "data-race",
            CheckKind::MutualExclusion => "mutual-exclusion",
            CheckKind::Sequencing => "sequencing",
            CheckKind::Linearizability => "linearizability",
        };
        f.write_str(s)
    }
}

/// One structured diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Simulation time of the record that triggered the diagnostic.
    pub time: SimTime,
    /// The node (trace actor) the triggering record is attributed to.
    pub node: usize,
    /// Which invariant failed.
    pub check: CheckKind,
    /// Human-readable description of the failure.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} node{}: {}",
            self.check, self.time, self.node, self.message
        )
    }
}

/// All three checkers over one trace stream.
///
/// Feed records in simulation-time order — either by attaching the
/// verifier as a [`TraceObserver`] (online) or via [`Verifier::feed`] /
/// [`check_trace`] (offline) — then call [`Verifier::finish`] once.
#[derive(Debug, Default)]
pub struct Verifier {
    race: RaceChecker,
    mutex: MutexChecker,
    seq: SeqChecker,
    linear: Option<LinearChecker>,
    violations: Vec<Violation>,
    finished: bool,
}

impl Verifier {
    /// Creates a verifier with all structural checkers enabled.
    pub fn new() -> Self {
        Verifier::default()
    }

    /// Like [`Verifier::new`], additionally checking critical-section
    /// effects against the sequential counter specification on `counter`
    /// (each section reads the counter and writes it plus one) — the
    /// linearizability oracle of the `sesame-check` explorer.
    pub fn with_counter_spec(counter: u32) -> Self {
        Verifier {
            linear: Some(LinearChecker::new(counter)),
            ..Verifier::default()
        }
    }

    /// Processes one trace record. Each checker reads the kinds it knows
    /// in the payload shape they are emitted with; everything else (the
    /// human-readable records, packets, `cause` edges, a kind carrying
    /// another kind's shape) is ignored.
    pub fn feed(&mut self, entry: &TraceEntry) {
        self.race.feed(entry, &mut self.violations);
        self.mutex.feed(entry, &mut self.violations);
        self.seq.feed(entry, &mut self.violations);
        if let Some(linear) = self.linear.as_mut() {
            linear.feed(entry, &mut self.violations);
        }
    }

    /// Finalizes end-of-trace checks (e.g. a rollback still awaiting its
    /// restores). Idempotent.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.race.finish(&mut self.violations);
        self.mutex.finish(&mut self.violations);
        self.seq.finish(&mut self.violations);
        if let Some(linear) = self.linear.as_mut() {
            linear.finish(&mut self.violations);
        }
    }

    /// Finalizes a **truncated** trace (a recording cut mid-run): runs
    /// only the checks that stay valid on a prefix, and returns notes
    /// describing protocol activity still open at the cut — an open
    /// optimistic section or rollback, sequenced writes not yet applied
    /// everywhere (packets mid-flight), an uncommitted critical section.
    ///
    /// Unlike [`Verifier::finish`], this never reports a rollback as
    /// incomplete or a history as non-contiguous merely because the tail
    /// of the trace is missing. Idempotent; returns no notes if the trace
    /// was already finalized.
    pub fn finish_partial(&mut self) -> Vec<String> {
        if self.finished {
            return Vec::new();
        }
        self.finished = true;
        self.race.finish(&mut self.violations);
        self.seq.finish(&mut self.violations);
        // Deliberately NOT mutex.finish(): it would flag open rollbacks as
        // incomplete restores, a false alarm on a truncated trace.
        let mut notes = self.mutex.open_notes();
        notes.extend(self.seq.pending_notes());
        if let Some(linear) = self.linear.as_mut() {
            notes.extend(linear.finish_partial(&mut self.violations));
        }
        notes
    }

    /// Diagnostics reported so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Finalizes and returns all diagnostics.
    pub fn into_violations(mut self) -> Vec<Violation> {
        self.finish();
        self.violations
    }

    /// Renders every diagnostic, one per line (empty string when clean).
    pub fn report(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }
}

impl TraceObserver for Verifier {
    fn on_record(&mut self, entry: &TraceEntry) {
        self.feed(entry);
    }
}

/// Checks a recorded trace offline and returns all diagnostics.
pub fn check_trace(entries: &[TraceEntry]) -> Vec<Violation> {
    let mut v = Verifier::new();
    for e in entries {
        v.feed(e);
    }
    v.into_violations()
}

/// Outcome of checking a truncated (mid-run) trace.
#[derive(Debug)]
pub struct PartialOutcome {
    /// Diagnostics that are valid even without the trace's tail.
    pub violations: Vec<Violation>,
    /// Protocol activity still open where the trace was cut.
    pub incomplete: Vec<String>,
}

/// Checks a **truncated** trace offline: prefix-safe diagnostics plus
/// notes about in-flight protocol activity, instead of false alarms about
/// the missing tail.
pub fn check_trace_partial(entries: &[TraceEntry]) -> PartialOutcome {
    let mut v = Verifier::new();
    for e in entries {
        v.feed(e);
    }
    let incomplete = v.finish_partial();
    PartialOutcome {
        violations: v.violations,
        incomplete,
    }
}

/// Checks everything a [`TraceRecorder`] retained.
pub fn check_recorder(recorder: &TraceRecorder) -> Vec<Violation> {
    check_trace(recorder.entries())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesame_sim::{ApplyMode, TraceDetail, TraceKind as K};

    fn e(ns: u64, actor: usize, kind: K, detail: TraceDetail) -> TraceEntry {
        TraceEntry {
            time: SimTime::from_nanos(ns),
            actor,
            kind,
            detail,
        }
    }

    fn var(var: u32) -> TraceDetail {
        TraceDetail::Var { var }
    }

    fn vv(var: u32, val: i64) -> TraceDetail {
        TraceDetail::VarVal { var, val }
    }

    fn grant(group: u32, var: u32, holder: u32) -> TraceDetail {
        TraceDetail::Grant { group, var, holder }
    }

    fn rel(group: u32, var: u32, from: u32) -> TraceDetail {
        TraceDetail::Release { group, var, from }
    }

    fn rseq(group: u32, seq: u64, var: u32, val: i64, origin: u32) -> TraceDetail {
        TraceDetail::Seq {
            group,
            seq,
            var,
            val,
            origin,
        }
    }

    fn apply(
        group: u32,
        seq: u64,
        var: u32,
        val: i64,
        origin: u32,
        mode: ApplyMode,
    ) -> TraceDetail {
        TraceDetail::Apply {
            group,
            seq,
            var,
            val,
            origin,
            mode,
        }
    }

    #[test]
    fn clean_locked_exchange_has_no_violations() {
        // node1 takes the lock, writes, releases; node2 then takes it and
        // reads — everything ordered through the lock and the root.
        let trace = vec![
            e(1, 1, K::LockAcquire, var(0)),
            e(2, 0, K::RootGrant, grant(0, 0, 1)),
            e(3, 0, K::RootSeq, rseq(0, 1, 0, 2, 0)),
            e(4, 1, K::GwcApply, apply(0, 1, 0, 2, 0, ApplyMode::Applied)),
            e(4, 2, K::GwcApply, apply(0, 1, 0, 2, 0, ApplyMode::Applied)),
            e(4, 1, K::EvAcquired, var(0)),
            e(5, 1, K::AccWrite, vv(5, 42)),
            e(6, 0, K::RootSeq, rseq(0, 2, 5, 42, 1)),
            e(
                7,
                1,
                K::GwcApply,
                apply(0, 2, 5, 42, 1, ApplyMode::HwBlocked),
            ),
            e(7, 2, K::GwcApply, apply(0, 2, 5, 42, 1, ApplyMode::Applied)),
            e(8, 1, K::LockRelease, var(0)),
            e(9, 0, K::RootRelease, rel(0, 0, 1)),
            e(9, 0, K::RootGrant, grant(0, 0, 2)),
            e(10, 0, K::RootSeq, rseq(0, 3, 0, 3, 0)),
            e(11, 1, K::GwcApply, apply(0, 3, 0, 3, 0, ApplyMode::Applied)),
            e(11, 2, K::GwcApply, apply(0, 3, 0, 3, 0, ApplyMode::Applied)),
            e(11, 2, K::EvAcquired, var(0)),
            e(12, 2, K::AccRead, var(5)),
            e(13, 2, K::LockRelease, var(0)),
            e(14, 0, K::RootRelease, rel(0, 0, 2)),
        ];
        let violations = check_trace(&trace);
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn concurrent_unsynchronized_writes_race() {
        let trace = vec![
            e(1, 1, K::AccWrite, vv(9, 1)),
            e(1, 2, K::AccWrite, vv(9, 2)),
        ];
        let violations = check_trace(&trace);
        assert_eq!(violations.len(), 1, "got: {violations:?}");
        assert_eq!(violations[0].check, CheckKind::DataRace);
    }

    #[test]
    fn gwc_delivery_edge_orders_writes() {
        // node2 writes v9 only after applying node1's sequenced write: the
        // delivery edge orders the two writes, so no race.
        let trace = vec![
            e(1, 1, K::AccWrite, vv(9, 1)),
            e(2, 0, K::RootSeq, rseq(0, 1, 9, 1, 1)),
            e(3, 2, K::GwcApply, apply(0, 1, 9, 1, 1, ApplyMode::Applied)),
            e(4, 2, K::AccWrite, vv(9, 2)),
        ];
        let violations = check_trace(&trace);
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn double_grant_is_reported_once() {
        let trace = vec![
            e(10, 0, K::RootGrant, grant(0, 0, 1)),
            e(20, 0, K::RootGrant, grant(0, 0, 2)),
            e(30, 0, K::RootGrant, grant(0, 0, 3)),
        ];
        let violations = check_trace(&trace);
        assert_eq!(violations.len(), 1, "got: {violations:?}");
        assert_eq!(violations[0].check, CheckKind::MutualExclusion);
    }

    #[test]
    fn release_by_non_holder_is_reported() {
        let trace = vec![
            e(10, 0, K::RootGrant, grant(0, 0, 1)),
            e(20, 0, K::RootRelease, rel(0, 0, 2)),
        ];
        let violations = check_trace(&trace);
        assert_eq!(violations.len(), 1, "got: {violations:?}");
        assert_eq!(violations[0].check, CheckKind::MutualExclusion);
    }

    #[test]
    fn completed_rollback_is_clean() {
        let trace = vec![
            e(1, 1, K::MutexEnter, var(0)),
            e(1, 1, K::OptEnter, var(0)),
            e(1, 1, K::OptSave, vv(5, 7)),
            e(2, 1, K::AccWrite, vv(5, 42)),
            e(3, 1, K::OptRollback, var(0)),
            e(3, 1, K::AccWriteLocal, vv(5, 7)),
        ];
        let violations = check_trace(&trace);
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn surviving_optimistic_write_is_reported() {
        let trace = vec![
            e(1, 1, K::MutexEnter, var(0)),
            e(1, 1, K::OptEnter, var(0)),
            e(1, 1, K::OptSave, vv(5, 7)),
            e(2, 1, K::AccWrite, vv(5, 42)),
            e(3, 1, K::OptRollback, var(0)),
            // No restore of v5: the speculative write survives.
        ];
        let violations = check_trace(&trace);
        assert_eq!(violations.len(), 1, "got: {violations:?}");
        assert_eq!(violations[0].check, CheckKind::MutualExclusion);
        assert!(violations[0].message.contains("survived"));
    }

    #[test]
    fn out_of_order_apply_is_reported_once() {
        let trace = vec![
            e(1, 0, K::RootSeq, rseq(0, 1, 1, 7, 0)),
            e(2, 0, K::RootSeq, rseq(0, 2, 1, 8, 0)),
            e(3, 1, K::GwcApply, apply(0, 1, 1, 7, 0, ApplyMode::Applied)),
            e(4, 1, K::GwcApply, apply(0, 2, 1, 8, 0, ApplyMode::Applied)),
            e(5, 2, K::GwcApply, apply(0, 2, 1, 8, 0, ApplyMode::Applied)),
            e(6, 2, K::GwcApply, apply(0, 1, 1, 7, 0, ApplyMode::Applied)),
        ];
        let violations = check_trace(&trace);
        assert_eq!(violations.len(), 1, "got: {violations:?}");
        assert_eq!(violations[0].check, CheckKind::Sequencing);
        assert_eq!(violations[0].node, 2);
    }

    #[test]
    fn payload_mismatch_is_reported() {
        let trace = vec![
            e(1, 0, K::RootSeq, rseq(0, 1, 1, 7, 0)),
            e(3, 1, K::GwcApply, apply(0, 1, 1, 99, 0, ApplyMode::Applied)),
        ];
        let violations = check_trace(&trace);
        assert_eq!(violations.len(), 1, "got: {violations:?}");
        assert_eq!(violations[0].check, CheckKind::Sequencing);
    }

    /// What the trace also carries — the human-readable records, and a
    /// kind paired with a shape it is not emitted with — is skipped rather
    /// than misread: nothing below races, or ends the rollback window
    /// before its restore.
    #[test]
    fn non_canonical_records_are_ignored() {
        let trace = vec![
            e(1, 1, K::MutexEnter, var(0)),
            e(1, 1, K::OptEnter, var(0)),
            e(1, 1, K::OptSave, vv(5, 7)),
            e(2, 1, K::AccWrite, vv(5, 42)),
            e(3, 1, K::OptRollback, var(0)),
            e(3, 1, K::LockGrant, TraceDetail::text("v3 -> node1")),
            e(3, 1, K::AccWrite, TraceDetail::text("garbage")),
            e(3, 1, K::AccWrite, var(1)),
            e(3, 2, K::AccWrite, var(5)),
            e(3, 1, K::RootGrant, var(0)),
            e(3, 1, K::MutexRollback, var(0)),
            e(3, 1, K::AccWriteLocal, vv(5, 7)),
        ];
        let mut v = Verifier::with_counter_spec(5);
        for entry in &trace {
            v.feed(entry);
        }
        v.finish();
        assert!(v.violations().is_empty(), "unexpected: {}", v.report());
    }

    #[test]
    fn verifier_works_as_trace_observer() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let verifier = Rc::new(RefCell::new(Verifier::new()));
        let mut recorder = TraceRecorder::new(false);
        recorder.set_observer(verifier.clone());
        recorder.record(SimTime::from_nanos(10), 0, K::RootGrant, grant(0, 0, 1));
        recorder.record(SimTime::from_nanos(20), 0, K::RootGrant, grant(0, 0, 2));
        verifier.borrow_mut().finish();
        assert_eq!(verifier.borrow().violations().len(), 1);
        assert!(
            recorder.entries().is_empty(),
            "no in-memory retention needed"
        );
    }

    #[test]
    fn report_renders_one_line_per_violation() {
        let trace = vec![
            e(10, 0, K::RootGrant, grant(0, 0, 1)),
            e(20, 0, K::RootGrant, grant(0, 0, 2)),
        ];
        let mut v = Verifier::new();
        for entry in &trace {
            v.feed(entry);
        }
        v.finish();
        let report = v.report();
        assert_eq!(report.lines().count(), 1);
        assert!(report.contains("mutual-exclusion"));
    }
}

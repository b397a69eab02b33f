//! Offline checking of truncated traces: a recording cut mid-run must
//! yield "incomplete" notes about in-flight protocol activity, never a
//! false violation about the missing tail.

use sesame_sim::{ApplyMode, SimTime, TraceDetail, TraceEntry, TraceKind as K};
use sesame_verify::{check_trace, check_trace_partial, CheckKind};

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

fn rseq(group: u32, seq: u64, var: u32, val: i64, origin: u32) -> TraceDetail {
    TraceDetail::Seq {
        group,
        seq,
        var,
        val,
        origin,
    }
}

fn apply(group: u32, seq: u64, var: u32, val: i64, origin: u32) -> TraceDetail {
    TraceDetail::Apply {
        group,
        seq,
        var,
        val,
        origin,
        mode: ApplyMode::Applied,
    }
}

#[test]
fn mid_flight_packet_reports_incomplete_not_a_violation() {
    // The root sequenced write 2 but the member only applied write 1: the
    // second delivery was mid-flight when the recording was cut.
    let trace = vec![
        e(1, 0, K::RootSeq, rseq(0, 1, 5, 7, 1)),
        e(2, 1, K::GwcApply, apply(0, 1, 5, 7, 1)),
        e(3, 0, K::RootSeq, rseq(0, 2, 5, 8, 1)),
    ];
    let outcome = check_trace_partial(&trace);
    assert!(
        outcome.violations.is_empty(),
        "false alarm: {:?}",
        outcome.violations
    );
    assert!(
        outcome
            .incomplete
            .iter()
            .any(|n| n.contains("deliveries in flight")),
        "missing in-flight note: {:?}",
        outcome.incomplete
    );
}

#[test]
fn open_optimistic_section_reports_incomplete_not_a_violation() {
    // Cut inside a speculation: the save and speculative write happened,
    // but neither a grant nor a rollback was recorded.
    let trace = vec![
        e(1, 1, K::MutexEnter, var(0)),
        e(1, 1, K::OptEnter, var(0)),
        e(1, 1, K::OptSave, vv(5, 7)),
        e(2, 1, K::AccWrite, vv(5, 42)),
    ];
    let outcome = check_trace_partial(&trace);
    assert!(
        outcome.violations.is_empty(),
        "false alarm: {:?}",
        outcome.violations
    );
    assert!(
        outcome
            .incomplete
            .iter()
            .any(|n| n.contains("open optimistic section")),
        "missing open-section note: {:?}",
        outcome.incomplete
    );
}

#[test]
fn truncation_mid_rollback_is_incomplete_not_a_lost_restore() {
    // Cut between the rollback mark and its restoring writes. The full
    // checker (rightly) treats a never-restored rollback as a violation;
    // the partial checker must not.
    let trace = vec![
        e(1, 1, K::MutexEnter, var(0)),
        e(1, 1, K::OptEnter, var(0)),
        e(1, 1, K::OptSave, vv(5, 7)),
        e(2, 1, K::AccWrite, vv(5, 42)),
        e(3, 1, K::OptRollback, var(0)),
        // ...the acc-write-local restore was cut off.
    ];
    let full = check_trace(&trace);
    assert!(
        full.iter().any(|v| v.check == CheckKind::MutualExclusion),
        "sanity: the full checker flags the unrestored rollback"
    );

    let outcome = check_trace_partial(&trace);
    assert!(
        outcome.violations.is_empty(),
        "false alarm: {:?}",
        outcome.violations
    );
    assert!(
        outcome
            .incomplete
            .iter()
            .any(|n| n.contains("rollback") && n.contains("in progress")),
        "missing rollback note: {:?}",
        outcome.incomplete
    );
}

#[test]
fn real_violations_still_surface_on_truncated_traces() {
    // A genuine double grant is prefix-safe evidence: it must be reported
    // even in partial mode.
    let g = |holder| TraceDetail::Grant {
        group: 0,
        var: 0,
        holder,
    };
    let trace = vec![e(10, 0, K::RootGrant, g(1)), e(20, 0, K::RootGrant, g(2))];
    let outcome = check_trace_partial(&trace);
    assert_eq!(outcome.violations.len(), 1, "{:?}", outcome.violations);
    assert_eq!(outcome.violations[0].check, CheckKind::MutualExclusion);
}

#[test]
fn complete_trace_yields_no_notes() {
    let trace = vec![
        e(1, 0, K::RootSeq, rseq(0, 1, 5, 7, 1)),
        e(2, 1, K::GwcApply, apply(0, 1, 5, 7, 1)),
    ];
    let outcome = check_trace_partial(&trace);
    assert!(outcome.violations.is_empty());
    assert!(
        outcome.incomplete.is_empty(),
        "spurious notes: {:?}",
        outcome.incomplete
    );
}

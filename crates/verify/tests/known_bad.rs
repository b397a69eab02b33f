//! Planted-fault traces: each known-bad trace must produce **exactly one**
//! diagnostic from the matching checker, and mutated real traces must not
//! verify clean. This guards against the checkers passing vacuously.

use sesame_sim::{ApplyMode, SimTime, TraceDetail, TraceEntry, TraceKind as K};
use sesame_verify::{check_recorder, check_trace, CheckKind};
use sesame_workloads::contention::{run_contention, ContentionConfig};

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

fn rseq(group: u32, seq: u64, var: u32, val: i64, origin: u32) -> TraceDetail {
    TraceDetail::Seq {
        group,
        seq,
        var,
        val,
        origin,
    }
}

fn apply(group: u32, seq: u64, var: u32, val: i64, origin: u32, mode: ApplyMode) -> TraceDetail {
    TraceDetail::Apply {
        group,
        seq,
        var,
        val,
        origin,
        mode,
    }
}

/// Known-bad trace 1: the root grants a held lock a second time.
#[test]
fn two_simultaneous_holders_yield_one_diagnostic() {
    let trace = vec![
        e(10, 0, K::RootGrant, grant(0, 0, 1)),
        e(20, 0, K::RootGrant, grant(0, 0, 2)),
    ];
    let violations = check_trace(&trace);
    assert_eq!(violations.len(), 1, "got: {violations:?}");
    assert_eq!(violations[0].check, CheckKind::MutualExclusion);
    assert!(violations[0].message.contains("while node1 still holds"));
}

/// The node-side view of the same fault: two nodes observe grants with no
/// release in between.
#[test]
fn two_believing_holders_yield_one_diagnostic() {
    let trace = vec![
        e(10, 1, K::EvAcquired, var(0)),
        e(20, 2, K::EvAcquired, var(0)),
    ];
    let violations = check_trace(&trace);
    assert_eq!(violations.len(), 1, "got: {violations:?}");
    assert_eq!(violations[0].check, CheckKind::MutualExclusion);
}

/// Known-bad trace 2: an optimistic section rolls back but one of its
/// speculative writes is never restored — the Figure 6 insharing-
/// suspension hazard the paper's mechanisms exist to prevent.
#[test]
fn optimistic_write_surviving_rollback_yields_one_diagnostic() {
    let trace = vec![
        e(1, 1, K::MutexEnter, var(0)),
        e(1, 1, K::OptEnter, var(0)),
        e(1, 1, K::OptSave, vv(5, 0)),
        e(2, 1, K::AccWrite, vv(5, 42)),
        e(3, 1, K::OptRollback, var(0)),
        // No acc-write-local restore: the write survives the discard.
    ];
    let violations = check_trace(&trace);
    assert_eq!(violations.len(), 1, "got: {violations:?}");
    assert_eq!(violations[0].check, CheckKind::MutualExclusion);
    assert!(violations[0].message.contains("survived"));
}

/// Known-bad trace 3: one member applies sequenced writes out of root
/// order while another applies them correctly.
#[test]
fn out_of_order_gwc_delivery_yields_one_diagnostic() {
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

/// Mutating a *real* recorded trace must break verification: drop every
/// rollback restoration from a contention run and the rollback-
/// completeness checker has to notice. This proves the seed scenarios do
/// not pass because the checkers see nothing.
#[test]
fn real_trace_with_restores_removed_fails_verification() {
    let cfg = ContentionConfig {
        contenders: 4,
        rounds: 30,
        tracing: true,
        ..ContentionConfig::default()
    };
    let run = run_contention(cfg);
    assert!(run.stats.rollbacks > 0, "want rollbacks exercised");
    assert!(
        check_recorder(&run.result.trace).is_empty(),
        "pristine trace must be clean"
    );
    let mutated: Vec<TraceEntry> = run
        .result
        .trace
        .entries()
        .iter()
        .filter(|t| t.kind != K::AccWriteLocal)
        .cloned()
        .collect();
    assert!(
        mutated.len() < run.result.trace.entries().len(),
        "trace must contain restores to remove"
    );
    let violations = check_trace(&mutated);
    assert!(
        !violations.is_empty(),
        "dropping restores must produce diagnostics"
    );
    assert!(violations
        .iter()
        .all(|v| v.check == CheckKind::MutualExclusion));
}

/// Reordering two sequenced applies in a real trace must trip the
/// sequencing checker.
#[test]
fn real_trace_with_swapped_applies_fails_verification() {
    let cfg = ContentionConfig {
        contenders: 3,
        rounds: 10,
        tracing: true,
        ..ContentionConfig::default()
    };
    let run = run_contention(cfg);
    let mut entries: Vec<TraceEntry> = run.result.trace.entries().to_vec();
    // Swap the first two gwc-apply records observed by the same node.
    let mut first: Option<usize> = None;
    let mut pair: Option<(usize, usize)> = None;
    for (i, t) in entries.iter().enumerate() {
        if t.kind != K::GwcApply {
            continue;
        }
        match first {
            Some(j) if entries[j].actor == t.actor => {
                pair = Some((j, i));
                break;
            }
            Some(_) => {}
            None => first = Some(i),
        }
    }
    let (a, b) = pair.expect("trace contains two applies at one node");
    let detail_a = entries[a].detail.clone();
    let detail_b = entries[b].detail.clone();
    entries[a].detail = detail_b;
    entries[b].detail = detail_a;
    let violations = check_trace(&entries);
    assert!(
        violations.iter().any(|v| v.check == CheckKind::Sequencing),
        "swapped applies must trip the sequencing checker; got: {violations:?}"
    );
}

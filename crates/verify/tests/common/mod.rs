//! Trace builders and the planted-fault traces of `known_bad.rs`, shared
//! with the test that replays them against the reference tables.

#![allow(dead_code)]

use sesame_sim::{ApplyMode, SimTime, TraceDetail, TraceEntry, TraceKind as K};
use sesame_workloads::contention::{run_contention, ContentionConfig};

pub fn e(ns: u64, actor: usize, kind: K, detail: TraceDetail) -> TraceEntry {
    TraceEntry {
        time: SimTime::from_nanos(ns),
        actor,
        kind,
        detail,
    }
}

pub fn var(var: u32) -> TraceDetail {
    TraceDetail::Var { var }
}

pub fn vv(var: u32, val: i64) -> TraceDetail {
    TraceDetail::VarVal { var, val }
}

pub fn grant(group: u32, var: u32, holder: u32) -> TraceDetail {
    TraceDetail::Grant { group, var, holder }
}

pub fn rseq(group: u32, seq: u64, var: u32, val: i64, origin: u32) -> TraceDetail {
    TraceDetail::Seq {
        group,
        seq,
        var,
        val,
        origin,
    }
}

pub fn apply(
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

/// The root grants a held lock a second time.
pub fn double_root_grant() -> Vec<TraceEntry> {
    vec![
        e(10, 0, K::RootGrant, grant(0, 0, 1)),
        e(20, 0, K::RootGrant, grant(0, 0, 2)),
    ]
}

/// The node-side view of the same fault: two nodes observe grants with no
/// release in between.
pub fn double_node_grant() -> Vec<TraceEntry> {
    vec![
        e(10, 1, K::EvAcquired, var(0)),
        e(20, 2, K::EvAcquired, var(0)),
    ]
}

/// An optimistic section rolls back but one of its speculative writes is
/// never restored — the Figure 6 insharing-suspension hazard the paper's
/// mechanisms exist to prevent.
pub fn unrestored_rollback() -> Vec<TraceEntry> {
    vec![
        e(1, 1, K::MutexEnter, var(0)),
        e(1, 1, K::OptEnter, var(0)),
        e(1, 1, K::OptSave, vv(5, 0)),
        e(2, 1, K::AccWrite, vv(5, 42)),
        e(3, 1, K::OptRollback, var(0)),
        // No acc-write-local restore: the write survives the discard.
    ]
}

/// One member applies sequenced writes out of root order while another
/// applies them correctly.
pub fn out_of_order_delivery() -> Vec<TraceEntry> {
    vec![
        e(1, 0, K::RootSeq, rseq(0, 1, 1, 7, 0)),
        e(2, 0, K::RootSeq, rseq(0, 2, 1, 8, 0)),
        e(3, 1, K::GwcApply, apply(0, 1, 1, 7, 0, ApplyMode::Applied)),
        e(4, 1, K::GwcApply, apply(0, 2, 1, 8, 0, ApplyMode::Applied)),
        e(5, 2, K::GwcApply, apply(0, 2, 1, 8, 0, ApplyMode::Applied)),
        e(6, 2, K::GwcApply, apply(0, 1, 1, 7, 0, ApplyMode::Applied)),
    ]
}

/// The recorded trace of a traced contention run.
pub fn contention_trace(contenders: u32, rounds: u32) -> Vec<TraceEntry> {
    let cfg = ContentionConfig {
        contenders,
        rounds,
        tracing: true,
        ..ContentionConfig::default()
    };
    run_contention(cfg).result.trace.entries().to_vec()
}

/// `trace` with every rollback restoration dropped.
pub fn without_restores(trace: &[TraceEntry]) -> Vec<TraceEntry> {
    let kept = trace.iter().filter(|t| t.kind != K::AccWriteLocal);
    kept.cloned().collect()
}

/// `trace` with the payloads of the first two `gwc-apply` records one
/// node observed swapped.
pub fn with_swapped_applies(trace: &[TraceEntry]) -> Vec<TraceEntry> {
    let mut entries = trace.to_vec();
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
    let detail_a = entries[a].detail;
    entries[a].detail = entries[b].detail;
    entries[b].detail = detail_a;
    entries
}

/// Every planted-fault trace `known_bad.rs` checks, by name.
pub fn planted() -> Vec<(&'static str, Vec<TraceEntry>)> {
    vec![
        ("double root grant", double_root_grant()),
        ("double node grant", double_node_grant()),
        ("unrestored rollback", unrestored_rollback()),
        ("out-of-order delivery", out_of_order_delivery()),
        (
            "real trace without restores",
            without_restores(&contention_trace(4, 30)),
        ),
        (
            "real trace with swapped applies",
            with_swapped_applies(&contention_trace(3, 10)),
        ),
    ]
}

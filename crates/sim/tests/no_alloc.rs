//! Proof of the zero-allocation tracing contract: recording canonical
//! protocol events into a **disabled** recorder performs no heap
//! allocation at all, because every canonical [`TraceDetail`] variant is
//! plain `Copy` data and the recorder's enable check precedes any store.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! drives the same record calls the simulation hot path makes and asserts
//! the allocation counter does not move. The counter is per thread
//! (`sesame-alloc-probe`), so the sibling `#[test]` that libtest runs in
//! parallel cannot land its allocations inside the measured window.

use sesame_alloc_probe::{allocations, CountingAlloc};
use sesame_sim::{ApplyMode, CauseOp, SimTime, TraceDetail, TraceKind, TraceRecorder};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One of each canonical (typed, `Copy`) detail the protocol layers emit.
fn canonical_details() -> [TraceDetail; 13] {
    [
        TraceDetail::None,
        TraceDetail::Var { var: 3 },
        TraceDetail::VarVal { var: 3, val: -42 },
        TraceDetail::QueueDepth { var: 3, depth: 7 },
        TraceDetail::Seq {
            group: 0,
            seq: 12,
            var: 3,
            val: 9,
            origin: 2,
        },
        TraceDetail::Filtered {
            group: 0,
            var: 3,
            val: 9,
            origin: 2,
        },
        TraceDetail::Apply {
            group: 0,
            seq: 12,
            var: 3,
            val: 9,
            origin: 2,
            mode: ApplyMode::Applied,
        },
        TraceDetail::Grant {
            group: 0,
            var: 3,
            holder: 1,
        },
        TraceDetail::Release {
            group: 0,
            var: 3,
            from: 1,
        },
        TraceDetail::Complete {
            var: 3,
            optimistic: true,
            rollbacks: 0,
            overlapped: true,
        },
        TraceDetail::Packet {
            from: 0,
            to: 1,
            bytes: 32,
            hops: 2,
            arrival_ns: 300,
        },
        TraceDetail::Cause {
            id: 41,
            cause: 17,
            op: CauseOp::Send,
        },
        TraceDetail::Conflict { var: 3, writer: 2 },
    ]
}

#[test]
fn disabled_recorder_records_canonical_details_without_allocating() {
    let mut recorder = TraceRecorder::new(false);
    assert!(!recorder.is_enabled());
    let details = canonical_details(); // built before the measured window

    let before = allocations();
    for round in 0..1_000u64 {
        for detail in &details {
            recorder.record(
                SimTime::from_nanos(round),
                (round % 8) as usize,
                TraceKind::AccWrite,
                detail.clone(),
            );
        }
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "disabled tracing must not touch the allocator"
    );
    assert!(recorder.entries().is_empty());
}

#[test]
fn enabled_recorder_stores_typed_details_without_formatting() {
    // The enabled path allocates only the entry vector's growth — the
    // typed details themselves are stored as-is, never rendered to text.
    let mut recorder = TraceRecorder::new(true);
    for detail in canonical_details() {
        recorder.record(SimTime::from_nanos(1), 0, TraceKind::AccWrite, detail);
    }
    assert_eq!(recorder.entries().len(), canonical_details().len());
    // Rendering happens only on demand, via Display.
    assert_eq!(
        recorder.entries()[4].detail.to_string(),
        "g=0 seq=12 v=3 val=9 origin=2"
    );
}

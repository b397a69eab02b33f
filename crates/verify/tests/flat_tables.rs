//! The verifier keeps its per-sequence state — the payload the root bound
//! to each sequence number, the writer's clock bound to it — in flat
//! per-group tables. This test holds them to the `(group, seq)` hash maps
//! they replaced (`reference/`): the same violations, in the same order,
//! with the same text, and the same notes on a truncated trace, over every
//! scenario, the planted-fault traces, and generated streams with gaps,
//! duplicates, late lower numbers, applies before their number is
//! sequenced, and far numbers.

mod common;
mod reference;

use std::cell::RefCell;
use std::rc::Rc;

use sesame_sim::{ApplyMode, DetRng, TraceDetail, TraceEntry, TraceKind as K, TraceObserver};
use sesame_verify::{check_trace, check_trace_partial};
use sesame_workloads::scenario::Scenario;

use common::{apply, e, rseq, var, vv};

/// Asserts both verifiers report the same over `entries`, finished and
/// as a truncated trace, and returns how many violations that is.
fn same_verdicts(what: &str, entries: &[TraceEntry]) -> usize {
    let flat = check_trace(entries);
    assert_eq!(flat, reference::check_trace(entries), "{what}");
    let partial = check_trace_partial(entries);
    assert_eq!(
        (partial.violations, partial.incomplete),
        reference::check_trace_partial(entries),
        "{what} (truncated)"
    );
    flat.len()
}

/// Keeps every record a run emits.
#[derive(Default)]
struct Recording(Vec<TraceEntry>);

impl TraceObserver for Recording {
    fn on_record(&mut self, entry: &TraceEntry) {
        self.0.push(*entry);
    }
}

/// A sequence number far from any a root assigns.
fn far(rng: &mut DetRng) -> u64 {
    [0, 1_000_000_000, u64::MAX, u64::MAX - 1][rng.next_below(4) as usize]
}

/// `trace` with a few sequencing faults planted at random: an apply or a
/// sequencing decision renumbered (near or far), two applies' payloads
/// swapped, a decision repeated later, records dropped.
fn perturbed(trace: &[TraceEntry], rng: &mut DetRng) -> Vec<TraceEntry> {
    let mut t = trace.to_vec();
    let sequencing: Vec<usize> = (0..t.len())
        .filter(|&i| matches!(t[i].kind, K::RootSeq | K::GwcApply))
        .collect();
    for _ in 0..1 + rng.next_below(4) {
        let at = sequencing[rng.next_below(sequencing.len() as u64) as usize];
        match rng.next_below(5) {
            0 | 1 => {
                let (near, step, far) = (rng.chance(0.7), rng.next_below(8), far(rng));
                if let TraceDetail::Seq { seq, .. } | TraceDetail::Apply { seq, .. } =
                    &mut t[at].detail
                {
                    *seq = if near { seq.saturating_add(step) } else { far };
                }
            }
            2 => {
                let other = sequencing[rng.next_below(sequencing.len() as u64) as usize];
                let detail = t[other].detail;
                if t[at].kind == t[other].kind {
                    t[other].detail = std::mem::replace(&mut t[at].detail, detail);
                }
            }
            3 => {
                let mut again = t[at];
                again.time = t.last().map_or(again.time, |last| last.time);
                t.push(again);
            }
            _ => {
                t.remove(at);
                return t;
            }
        }
    }
    t
}

#[test]
fn every_scenario_gets_the_reference_verdict_clean_and_perturbed() {
    let mut flagged = 0;
    for name in [
        "three-cpu",
        "contention",
        "task-queue",
        "pipeline",
        "bigmesh",
        "canonical",
    ] {
        let scenario = Scenario::parse(name).expect("a listed scenario");
        let recording = Rc::new(RefCell::new(Recording::default()));
        if let Err(e) = scenario.run(Some(recording.clone())) {
            panic!("{e}");
        }
        let trace = std::mem::take(&mut recording.borrow_mut().0);
        assert!(
            trace.iter().any(|e| e.kind == K::RootSeq),
            "{name} sequences writes"
        );
        assert_eq!(same_verdicts(name, &trace), 0, "{name} is clean");
        let mut rng = DetRng::new(name.len() as u64);
        for round in 0..6 {
            let what = format!("{name} perturbed #{round}");
            flagged += same_verdicts(&what, &perturbed(&trace, &mut rng));
        }
    }
    assert!(
        flagged >= 12,
        "perturbed traces raised {flagged} violations"
    );
}

#[test]
fn the_planted_faults_get_the_reference_verdict() {
    for (name, trace) in common::planted() {
        assert!(same_verdicts(name, &trace) > 0, "{name} is caught");
    }
}

/// One write's payload: `(var, val, origin)`.
type Payload = (u32, i64, u32);

/// A stream of root decisions, member applies and the accesses and lock
/// edges around them, with sequence numbers no root would assign.
fn stream(rng: &mut DetRng) -> Vec<TraceEntry> {
    const GROUPS: [u32; 3] = [0, 1, 70_000];
    let mut next = [0u64; 3];
    let mut writes: Vec<Payload> = Vec::new();
    let mut sequenced: Vec<(u32, u64, Payload)> = Vec::new();
    let mut t = Vec::new();
    for ns in 0..200 {
        let node = 1 + rng.next_below(4) as usize;
        let g = rng.next_below(3) as usize;
        let group = GROUPS[g];
        let (kind, detail) = match rng.next_below(12) {
            0..=2 => {
                let (v, val) = (1 + rng.next_below(3) as u32, rng.next_below(4) as i64);
                writes.push((v, val, node as u32));
                (K::AccWrite, vv(v, val))
            }
            3..=5 => {
                let payload = match writes.len() {
                    0 => (1, 0, 1),
                    n => writes[rng.next_below(n as u64) as usize],
                };
                let seq = match rng.next_below(20) {
                    0..=13 => {
                        next[g] += 1;
                        next[g]
                    }
                    14 => next[g],
                    15 => next[g].saturating_sub(1 + rng.next_below(5)),
                    16 | 17 => {
                        next[g] += 2 + rng.next_below(6);
                        next[g]
                    }
                    _ => far(rng),
                };
                sequenced.push((group, seq, payload));
                let (v, val, origin) = payload;
                (K::RootSeq, rseq(group, seq, v, val, origin))
            }
            6 => {
                let (v, val, origin) = match writes.len() {
                    0 => (1, 0, 1),
                    n => writes[rng.next_below(n as u64) as usize],
                };
                let filtered = TraceDetail::Filtered {
                    group,
                    var: v,
                    val,
                    origin,
                };
                (K::RootFiltered, filtered)
            }
            7..=9 => {
                let (group, seq, (v, val, origin)) = match (sequenced.len(), rng.next_below(6)) {
                    (0, _) | (_, 0) => (group, next[g] + 1, (1, 0, 1)),
                    (_, 1) => (group, far(rng), (1, 0, 1)),
                    (n, _) => sequenced[rng.next_below(n as u64) as usize],
                };
                let val = if rng.chance(0.05) { val + 1 } else { val };
                let mode = [
                    ApplyMode::Applied,
                    ApplyMode::HwBlocked,
                    ApplyMode::Interrupt,
                ][rng.next_below(3) as usize];
                (K::GwcApply, apply(group, seq, v, val, origin, mode))
            }
            10 => (K::AccRead, var(1 + rng.next_below(3) as u32)),
            _ => {
                let kind =
                    [K::EvAcquired, K::LockRelease, K::EvReleased][rng.next_below(3) as usize];
                (kind, var(0))
            }
        };
        t.push(e(ns, node, kind, detail));
    }
    t
}

#[test]
fn generated_sequencing_streams_get_the_reference_verdict() {
    let mut rng = DetRng::new(28);
    let mut flagged = 0;
    for round in 0..300 {
        let trace = stream(&mut rng);
        flagged += usize::from(same_verdicts(&format!("stream #{round}"), &trace) > 0);
    }
    assert!(flagged > 150, "{flagged} of 300 streams raised a violation");
}

/// A number far above the first one seen, far below it, and `u64::MAX`
/// (the collector asked for a 32 GB array on the first and overflowed on
/// the last) are checked like near ones: each apply is matched to its
/// payload and joins its writer's clock.
#[test]
fn far_sequence_numbers_are_checked_like_near_ones() {
    let far = 1_000_000_000;
    let applied = |node, group, seq, v, val, origin| {
        e(
            100,
            node,
            K::GwcApply,
            apply(group, seq, v, val, origin, ApplyMode::Applied),
        )
    };
    let trace = vec![
        // Group 0 numbers 1, then far above it, then the top of the range.
        e(10, 1, K::AccWrite, vv(5, 0)),
        e(11, 0, K::RootSeq, rseq(0, 1, 5, 0, 1)),
        e(20, 1, K::AccWrite, vv(5, 1)),
        e(21, 0, K::RootSeq, rseq(0, far, 5, 1, 1)),
        e(30, 1, K::AccWrite, vv(5, 2)),
        e(31, 0, K::RootSeq, rseq(0, u64::MAX, 5, 2, 1)),
        // Group 1 numbers far, then 1: far below the first number seen.
        e(40, 3, K::AccWrite, vv(6, 0)),
        e(41, 0, K::RootSeq, rseq(1, far, 6, 0, 3)),
        e(50, 3, K::AccWrite, vv(6, 1)),
        e(51, 0, K::RootSeq, rseq(1, 1, 6, 1, 3)),
        // Group 2's first number is the top of the range: the next one
        // expected saturates there instead of overflowing.
        e(60, 3, K::AccWrite, vv(7, 0)),
        e(61, 0, K::RootSeq, rseq(2, u64::MAX, 7, 0, 3)),
        applied(2, 0, 1, 5, 0, 1),
        applied(2, 0, far, 5, 1, 1),
        applied(2, 0, u64::MAX, 5, 2, 1),
        applied(4, 1, far, 6, 0, 3),
        applied(4, 1, 1, 6, 1, 3),
        applied(4, 2, u64::MAX, 7, 0, 3),
        // Ordered after the writes they applied: no race.
        e(200, 2, K::AccWrite, vv(5, 9)),
        e(200, 4, K::AccWrite, vv(6, 9)),
        e(200, 4, K::AccWrite, vv(7, 9)),
    ];
    let violations = check_trace(&trace);
    let messages: Vec<&str> = violations.iter().map(|v| v.message.as_str()).collect();
    assert_eq!(
        messages,
        [
            "group 0's root assigned sequence number 1000000000 but 2 was expected: root \
             numbering has a gap",
            "group 1's root assigned sequence number 1000000000 but 1 was expected: root \
             numbering has a gap",
            "group 2's root assigned sequence number 18446744073709551615 but 1 was expected: \
             root numbering has a gap",
            "node2 applied group 0 write seq=1000000000 out of order: expected seq=2",
            "node4 applied group 1 write seq=1000000000 out of order: expected seq=1",
            "node4 applied group 2 write seq=18446744073709551615 out of order: expected seq=1",
        ]
    );
    same_verdicts("far numbers", &trace);
    // Without the applies, nothing orders the last writes: both race.
    let unapplied: Vec<TraceEntry> = trace
        .into_iter()
        .filter(|e| e.kind != K::GwcApply)
        .collect();
    let races = check_trace(&unapplied);
    assert_eq!(races.len(), 6, "{races:#?}");
    assert!(races[3..]
        .iter()
        .all(|v| v.message.starts_with("write-write race")));
    same_verdicts("far numbers, unapplied", &unapplied);
}

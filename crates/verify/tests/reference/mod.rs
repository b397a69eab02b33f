//! The verifier's `(group, seq)`-hashed tables, kept as the reference the
//! flat per-group tables are compared against: the race detector and the
//! sequencing checker as they were, composed the way
//! `sesame_verify::Verifier` composes them.

mod race;
mod seq;

use sesame_sim::TraceEntry;
use sesame_verify::{MutexChecker, Violation};

/// The three checkers after one stream, fed in `Verifier::feed`'s order.
struct Fed {
    race: race::RaceChecker,
    mutex: MutexChecker,
    seq: seq::SeqChecker,
    out: Vec<Violation>,
}

fn feed(entries: &[TraceEntry]) -> Fed {
    let mut fed = Fed {
        race: race::RaceChecker::new(),
        mutex: MutexChecker::new(),
        seq: seq::SeqChecker::new(),
        out: Vec::new(),
    };
    for e in entries {
        fed.race.feed(e, &mut fed.out);
        fed.mutex.feed(e, &mut fed.out);
        fed.seq.feed(e, &mut fed.out);
    }
    fed
}

/// What `sesame_verify::check_trace` reports over `entries`.
pub fn check_trace(entries: &[TraceEntry]) -> Vec<Violation> {
    let mut fed = feed(entries);
    fed.race.finish(&mut fed.out);
    fed.mutex.finish(&mut fed.out);
    fed.seq.finish(&mut fed.out);
    fed.out
}

/// What `sesame_verify::check_trace_partial` reports over `entries`: the
/// violations and the notes on what was still open.
pub fn check_trace_partial(entries: &[TraceEntry]) -> (Vec<Violation>, Vec<String>) {
    let mut fed = feed(entries);
    fed.race.finish(&mut fed.out);
    fed.seq.finish(&mut fed.out);
    let mut notes = fed.mutex.open_notes();
    notes.extend(fed.seq.pending_notes());
    (fed.out, notes)
}

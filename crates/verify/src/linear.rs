//! Linearizability checking of critical-section effects against a
//! sequential counter specification.
//!
//! The canonical checking workloads (and the paper's own Figure 8-style
//! experiments) have every critical section read one shared counter and
//! write back its value plus one. Against that sequential spec, a
//! completed history is linearizable iff:
//!
//! * every completed section committed exactly one counter value;
//! * the committed values are pairwise distinct and — over a complete
//!   run starting from zero — form exactly `1..=n`;
//! * real time is respected: if section A's release completed before
//!   section B was invoked, A's committed value is smaller than B's.
//!
//! This is deliberately a *specification-level* oracle: it knows nothing
//! about grants, rollbacks, or sequencing, so it catches any protocol
//! failure whose effect is a lost or duplicated increment — including
//! failures the structural invariant checkers were not written for.
//!
//! Section boundaries come from the canonical mutex-engine records: an op
//! is invoked at `mutex-enter`, commits the value of its last shared
//! counter write (`opt-rollback` discards the pending value — the engine
//! re-executes the body after it wins the lock), and takes its response at
//! `ev-released`.

use sesame_sim::{SimTime, TraceDetail as D, TraceEntry, TraceKind as K};

use crate::{CheckKind, Violation};

/// One in-flight critical section at a node.
#[derive(Debug)]
struct OpenOp {
    invoked: SimTime,
    pending: Option<i64>,
}

/// One completed critical section.
#[derive(Debug, Clone, Copy)]
struct DoneOp {
    node: usize,
    invoked: SimTime,
    responded: SimTime,
    value: Option<i64>,
}

/// The counter-spec linearizability checker.
#[derive(Debug)]
pub struct LinearChecker {
    /// The shared counter variable the sequential spec is about.
    counter: u32,
    /// The counter's initial value (zero in the canonical workloads).
    initial: i64,
    open: Vec<Option<OpenOp>>,
    done: Vec<DoneOp>,
}

impl LinearChecker {
    /// Creates a checker for sections incrementing `counter` from 0.
    pub fn new(counter: u32) -> Self {
        LinearChecker {
            counter,
            initial: 0,
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    fn open(&mut self, node: usize) -> &mut Option<OpenOp> {
        if self.open.len() <= node {
            self.open.resize_with(node + 1, || None);
        }
        &mut self.open[node]
    }

    /// Processes one record; only the four section-boundary kinds below,
    /// in their own shapes, are read.
    pub fn feed(&mut self, entry: &TraceEntry, _out: &mut Vec<Violation>) {
        let (time, node) = (entry.time, entry.actor);
        match (entry.kind, &entry.detail) {
            (K::MutexEnter, D::Var { .. }) => {
                *self.open(node) = Some(OpenOp {
                    invoked: time,
                    pending: None,
                });
            }
            (K::AccWrite, &D::VarVal { var, val }) if var == self.counter => {
                if let Some(op) = self.open(node).as_mut() {
                    op.pending = Some(val);
                }
            }
            // The speculation lost: its counter write was discarded at the
            // root; the engine re-executes the body after winning the lock.
            (K::OptRollback, D::Var { .. }) => {
                if let Some(op) = self.open(node).as_mut() {
                    op.pending = None;
                }
            }
            (K::EvReleased, D::Var { .. }) => {
                if let Some(op) = self.open(node).take() {
                    self.done.push(DoneOp {
                        node,
                        invoked: op.invoked,
                        responded: time,
                        value: op.pending,
                    });
                }
            }
            _ => {}
        }
    }

    /// Checks invariants that are valid even on a truncated history:
    /// every completed section wrote the counter, committed values are
    /// distinct, and real-time order is respected.
    fn check_prefix_safe(&self, out: &mut Vec<Violation>) {
        for a in &self.done {
            let Some(va) = a.value else {
                out.push(Violation {
                    time: a.responded,
                    node: a.node,
                    check: CheckKind::Linearizability,
                    message: format!(
                        "critical section at node{} completed without committing a counter \
                         write: an increment was lost",
                        a.node
                    ),
                });
                continue;
            };
            for b in &self.done {
                if std::ptr::eq(a, b) {
                    continue;
                }
                let Some(vb) = b.value else { continue };
                if va == vb && (a.node, a.invoked) < (b.node, b.invoked) {
                    out.push(Violation {
                        time: b.responded,
                        node: b.node,
                        check: CheckKind::Linearizability,
                        message: format!(
                            "sections at node{} and node{} both committed counter value {va}: \
                             a duplicated increment (lost update)",
                            a.node, b.node
                        ),
                    });
                }
                if a.responded < b.invoked && va >= vb {
                    out.push(Violation {
                        time: b.responded,
                        node: b.node,
                        check: CheckKind::Linearizability,
                        message: format!(
                            "real-time order violated: node{}'s section committed {va} and \
                             completed before node{}'s began, yet the later section committed \
                             {vb}",
                            a.node, b.node
                        ),
                    });
                }
            }
        }
    }

    /// End-of-trace finalization over the *complete* history: additionally
    /// requires the committed values to be exactly
    /// `initial+1..=initial+n`.
    pub fn finish(&mut self, out: &mut Vec<Violation>) {
        self.check_prefix_safe(out);
        let mut values: Vec<i64> = self.done.iter().filter_map(|o| o.value).collect();
        values.sort_unstable();
        values.dedup();
        let expected: Vec<i64> = (1..=self.done.len() as i64)
            .map(|i| self.initial + i)
            .collect();
        // Only report a permutation failure when every section committed a
        // distinct value — missing or duplicated values were already
        // reported per section above.
        if values.len() == expected.len() && values != expected {
            let last = self
                .done
                .iter()
                .map(|o| o.responded)
                .max()
                .unwrap_or(SimTime::ZERO);
            out.push(Violation {
                time: last,
                node: 0,
                check: CheckKind::Linearizability,
                message: format!(
                    "committed counter values {values:?} are not the expected contiguous \
                     sequence {expected:?}"
                ),
            });
        }
    }

    /// Prefix-safe finalization for truncated traces: skips the
    /// contiguity requirement (later sections may be missing) and reports
    /// still-open sections as notes.
    pub fn finish_partial(&mut self, out: &mut Vec<Violation>) -> Vec<String> {
        self.check_prefix_safe(out);
        self.open
            .iter()
            .enumerate()
            .filter_map(|(node, op)| {
                op.as_ref().map(|op| {
                    format!(
                        "node{node} has an uncommitted critical section invoked at {}",
                        op.invoked
                    )
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Ev = (K, D);

    fn feed_all(lc: &mut LinearChecker, evs: &[(u64, usize, Ev)]) -> Vec<Violation> {
        let mut out = Vec::new();
        for (ns, actor, (kind, detail)) in evs.iter().cloned() {
            let time = SimTime::from_nanos(ns);
            let entry = TraceEntry {
                time,
                actor,
                kind,
                detail,
            };
            lc.feed(&entry, &mut out);
        }
        out
    }

    fn enter() -> Ev {
        (K::MutexEnter, D::Var { var: 0 })
    }

    fn write(val: i64) -> Ev {
        (K::AccWrite, D::VarVal { var: 1, val })
    }

    fn rollback() -> Ev {
        (K::OptRollback, D::Var { var: 0 })
    }

    fn released() -> Ev {
        (K::EvReleased, D::Var { var: 0 })
    }

    #[test]
    fn clean_alternating_history_passes() {
        let mut lc = LinearChecker::new(1);
        let mut out = feed_all(
            &mut lc,
            &[
                (1, 1, enter()),
                (2, 1, write(1)),
                (3, 1, released()),
                (4, 2, enter()),
                (5, 2, write(2)),
                (6, 2, released()),
            ],
        );
        lc.finish(&mut out);
        assert!(out.is_empty(), "unexpected: {out:?}");
    }

    #[test]
    fn duplicated_increment_is_reported() {
        let mut lc = LinearChecker::new(1);
        let mut out = feed_all(
            &mut lc,
            &[
                (1, 1, enter()),
                (1, 2, enter()),
                (2, 1, write(1)),
                (2, 2, write(1)), // both read 0: lost update
                (3, 1, released()),
                (3, 2, released()),
            ],
        );
        lc.finish(&mut out);
        assert!(
            out.iter()
                .any(|v| v.message.contains("duplicated increment")),
            "got: {out:?}"
        );
    }

    #[test]
    fn real_time_order_is_enforced() {
        let mut lc = LinearChecker::new(1);
        let mut out = feed_all(
            &mut lc,
            &[
                (1, 1, enter()),
                (2, 1, write(2)),
                (3, 1, released()),
                // Node 2 starts strictly after node 1 finished but commits
                // a smaller value.
                (5, 2, enter()),
                (6, 2, write(1)),
                (7, 2, released()),
            ],
        );
        lc.finish(&mut out);
        assert!(
            out.iter().any(|v| v.message.contains("real-time order")),
            "got: {out:?}"
        );
    }

    #[test]
    fn rollback_discards_pending_value() {
        let mut lc = LinearChecker::new(1);
        let mut out = feed_all(
            &mut lc,
            &[
                (1, 1, enter()),
                (2, 1, write(1)), // speculative, will be discarded
                (3, 1, rollback()),
                (4, 1, write(2)), // re-executed body commits this
                (5, 1, released()),
                (6, 2, enter()),
                (7, 2, write(1)),
                (8, 2, released()),
            ],
        );
        // Values {1, 2} with real-time: node2 entered at 6 > node1's
        // release at 5 but committed 1 < 2 — that IS a real-time breach.
        lc.finish(&mut out);
        assert!(!out.is_empty());

        // The clean variant: node2's section committed before node1's.
        let mut lc = LinearChecker::new(1);
        let mut out = feed_all(
            &mut lc,
            &[
                (1, 1, enter()),
                (2, 1, write(1)),
                (3, 1, rollback()),
                (4, 2, enter()),
                (5, 2, write(1)),
                (6, 2, released()),
                (7, 1, write(2)),
                (8, 1, released()),
            ],
        );
        lc.finish(&mut out);
        assert!(out.is_empty(), "unexpected: {out:?}");
    }

    #[test]
    fn section_without_counter_write_is_reported() {
        let mut lc = LinearChecker::new(1);
        let mut out = feed_all(&mut lc, &[(1, 1, enter()), (2, 1, released())]);
        lc.finish(&mut out);
        assert!(
            out.iter().any(|v| v.message.contains("without committing")),
            "got: {out:?}"
        );
    }

    #[test]
    fn partial_mode_skips_contiguity_and_notes_open_sections() {
        let mut lc = LinearChecker::new(1);
        // Truncated: only the value-2 section's completion survived the
        // cut; node 2's section is still open.
        let mut out = feed_all(
            &mut lc,
            &[
                (1, 1, enter()),
                (2, 1, write(2)),
                (3, 1, released()),
                (4, 2, enter()),
            ],
        );
        let notes = lc.finish_partial(&mut out);
        assert!(out.is_empty(), "no false alarm on a prefix: {out:?}");
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("uncommitted critical section"));
    }
}

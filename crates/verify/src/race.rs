//! Vector-clock happens-before data-race detection over shared accesses.
//!
//! Synchronization edges come from two sources:
//!
//! * **Locks** — a release joins the releaser's clock into the lock's
//!   clock; observing one's grant (or a high-level `Acquired`) joins the
//!   lock's clock into the acquirer's.
//! * **GWC delivery** — a sequenced write applied at a member joins the
//!   writer's clock (snapshotted when the write was issued) into the
//!   member's. Writes are matched to sequence numbers through the root:
//!   `acc-write` at the origin enqueues a snapshot; `root-seq` binds the
//!   oldest matching snapshot to `(group, seq)`; `root-filtered` discards
//!   one (failed optimistic update); `gwc-apply` joins the bound snapshot.
//!
//! Speculative accesses made inside an optimistic section (between
//! `opt-enter` and grant/rollback) are buffered: a rollback discards them
//! (the paper's rollback makes them logically never-happened), a grant
//! flushes them as critical-section accesses at grant time.
//!
//! Reported races: concurrent writes to the same data variable from
//! different nodes, and concurrent read/write pairs where **both** accesses
//! are inside critical sections. Out-of-section reads are polling by
//! design under GWC (e.g. a task queue consumer watching a flag) and are
//! not reported.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};

use sesame_sim::{ApplyMode, SimTime, TraceDetail as D, TraceEntry, TraceKind as K};

use crate::clock::VectorClock;
use crate::{CheckKind, Violation};

/// One remembered access to a variable (the last by its node).
#[derive(Debug, Clone)]
struct Access {
    vc: VectorClock,
    in_section: bool,
    time: SimTime,
}

/// A buffered speculative access.
#[derive(Debug, Clone, Copy)]
enum SpecAccess {
    Read { var: u32 },
    Write { var: u32 },
}

/// Per-node state.
#[derive(Debug, Default)]
struct NodeState {
    vc: VectorClock,
    /// Locks this node currently believes it holds.
    held: HashSet<u32>,
    /// `Some(lock)` while inside an optimistic speculation window.
    speculating: Option<u32>,
    spec_buf: Vec<SpecAccess>,
}

/// The happens-before race detector.
#[derive(Debug, Default)]
pub struct RaceChecker {
    nodes: Vec<NodeState>,
    /// Variables known to be lock words (never data-race-checked).
    lock_vars: HashSet<u32>,
    /// Per-lock clock carrying release-to-acquire edges.
    lock_clocks: HashMap<u32, VectorClock>,
    /// Write snapshots awaiting a root sequence number; a key lives only
    /// while its queue is non-empty.
    pending: HashMap<(u32, u32, i64), VecDeque<VectorClock>>,
    /// Snapshot bound to each sequenced write.
    seq_clocks: HashMap<(u32, u64), VectorClock>,
    /// Last write per (var, node).
    writes: HashMap<u32, HashMap<usize, Access>>,
    /// Last in-section read per (var, node).
    reads: HashMap<u32, HashMap<usize, Access>>,
    /// Variables already reported (one diagnostic per racy variable).
    latched: HashSet<u32>,
}

impl RaceChecker {
    /// Creates an empty detector.
    pub fn new() -> Self {
        RaceChecker::default()
    }

    fn node(&mut self, node: usize) -> &mut NodeState {
        if self.nodes.len() <= node {
            self.nodes.resize_with(node + 1, NodeState::default);
        }
        &mut self.nodes[node]
    }

    fn mark_lock(&mut self, var: u32) {
        self.lock_vars.insert(var);
    }

    /// Processes one record; kinds the detector does not read, and kinds
    /// in a shape they are not emitted with, are ignored.
    pub fn feed(&mut self, entry: &TraceEntry, out: &mut Vec<Violation>) {
        let (time, node) = (entry.time, entry.actor);
        match (entry.kind, &entry.detail) {
            (K::AccRead, &D::Var { var }) => {
                if self.lock_vars.contains(&var) {
                    return;
                }
                let st = self.node(node);
                st.vc.tick(node);
                if st.speculating.is_some() {
                    st.spec_buf.push(SpecAccess::Read { var });
                } else if !st.held.is_empty() {
                    self.record_read(time, node, var, out);
                }
            }
            (K::AccWrite, &D::VarVal { var, val }) => {
                let st = self.node(node);
                st.vc.tick(node);
                let snapshot = st.vc.clone();
                if self.lock_vars.contains(&var) {
                    return;
                }
                // The write travels to the root regardless of speculation;
                // the snapshot must be queued now so `root-seq` can bind it.
                self.pending
                    .entry((node as u32, var, val))
                    .or_default()
                    .push_back(snapshot);
                let st = self.node(node);
                if st.speculating.is_some() {
                    st.spec_buf.push(SpecAccess::Write { var });
                } else {
                    let in_section = !st.held.is_empty();
                    self.record_write(time, node, var, in_section, out);
                }
            }
            (K::AccWriteLocal | K::OptSave, D::VarVal { .. }) => {
                self.node(node).vc.tick(node);
            }
            (K::LockAcquire, &D::Var { var }) => {
                self.mark_lock(var);
                self.node(node).vc.tick(node);
            }
            (K::LockRelease, &D::Var { var }) => {
                self.mark_lock(var);
                let st = self.node(node);
                st.vc.tick(node);
                st.held.remove(&var);
                let vc = st.vc.clone();
                self.lock_clocks.entry(var).or_default().join(&vc);
            }
            (K::EvAcquired | K::MutexGranted, &D::Var { var }) => {
                self.mark_lock(var);
                let st = self.node(node);
                st.vc.tick(node);
                st.held.insert(var);
                if let Some(lc) = self.lock_clocks.get(&var) {
                    let lc = lc.clone();
                    self.node(node).vc.join(&lc);
                }
                // A grant commits the speculation: flush buffered accesses
                // as critical-section accesses at grant time.
                let st = self.node(node);
                if st.speculating == Some(var) {
                    st.speculating = None;
                    let buf = std::mem::take(&mut st.spec_buf);
                    for acc in buf {
                        match acc {
                            SpecAccess::Read { var } => self.record_read(time, node, var, out),
                            SpecAccess::Write { var } => {
                                self.record_write(time, node, var, true, out)
                            }
                        }
                    }
                }
            }
            (K::EvReleased, &D::Var { var }) => {
                self.node(node).held.remove(&var);
            }
            (K::MutexEnter, &D::Var { var }) => {
                self.mark_lock(var);
            }
            (K::OptEnter, &D::Var { var }) => {
                self.mark_lock(var);
                let st = self.node(node);
                st.speculating = Some(var);
                st.spec_buf.clear();
            }
            (K::OptRollback, D::Var { .. }) => {
                // The speculation logically never happened.
                let st = self.node(node);
                st.speculating = None;
                st.spec_buf.clear();
            }
            (
                K::RootSeq,
                &D::Seq {
                    group,
                    seq,
                    var,
                    val,
                    origin,
                },
            ) => {
                if self.lock_vars.contains(&var) {
                    return;
                }
                if let Some(snapshot) = self.take_pending(origin, var, val) {
                    self.seq_clocks.insert((group, seq), snapshot);
                }
            }
            (
                K::RootFiltered,
                &D::Filtered {
                    var, val, origin, ..
                },
            ) => {
                self.take_pending(origin, var, val);
            }
            (
                K::GwcApply,
                &D::Apply {
                    group, seq, mode, ..
                },
            ) => {
                self.node(node).vc.tick(node);
                if mode != ApplyMode::HwBlocked {
                    if let Some(w) = self.seq_clocks.get(&(group, seq)) {
                        let w = w.clone();
                        self.node(node).vc.join(&w);
                    }
                }
            }
            (K::RootGrant, &D::Grant { var, .. }) | (K::RootRelease, &D::Release { var, .. }) => {
                self.mark_lock(var);
            }
            _ => {}
        }
    }

    /// Takes the oldest snapshot awaiting the root's verdict on
    /// `origin`'s write of `val` to `var`, and the key with it once its
    /// queue is empty: a counter writes every value once, so a kept key is
    /// an emptied queue (buffer and all) per write for the rest of the run.
    fn take_pending(&mut self, origin: u32, var: u32, val: i64) -> Option<VectorClock> {
        let Entry::Occupied(mut queue) = self.pending.entry((origin, var, val)) else {
            return None;
        };
        let snapshot = queue.get_mut().pop_front();
        if queue.get().is_empty() {
            queue.remove();
        }
        snapshot
    }

    fn record_read(&mut self, time: SimTime, node: usize, var: u32, out: &mut Vec<Violation>) {
        let vc = self.nodes[node].vc.clone();
        if !self.latched.contains(&var) {
            if let Some(ws) = self.writes.get(&var) {
                for (&m, w) in ws {
                    if m != node && w.in_section && !w.vc.leq(&vc) {
                        self.latched.insert(var);
                        out.push(Violation {
                            time,
                            node,
                            check: CheckKind::DataRace,
                            message: format!(
                                "read-write race on v{var}: in-section read at node{node} is \
                                 concurrent with in-section write at node{m} (t={})",
                                w.time
                            ),
                        });
                        break;
                    }
                }
            }
        }
        self.reads.entry(var).or_default().insert(
            node,
            Access {
                vc,
                in_section: true,
                time,
            },
        );
    }

    fn record_write(
        &mut self,
        time: SimTime,
        node: usize,
        var: u32,
        in_section: bool,
        out: &mut Vec<Violation>,
    ) {
        let vc = self.nodes[node].vc.clone();
        if !self.latched.contains(&var) {
            let mut report: Option<String> = None;
            if let Some(ws) = self.writes.get(&var) {
                for (&m, w) in ws {
                    if m != node && !w.vc.leq(&vc) {
                        report = Some(format!(
                            "write-write race on v{var}: write at node{node} is concurrent \
                             with write at node{m} (t={})",
                            w.time
                        ));
                        break;
                    }
                }
            }
            if report.is_none() && in_section {
                if let Some(rs) = self.reads.get(&var) {
                    for (&m, r) in rs {
                        if m != node && r.in_section && !r.vc.leq(&vc) {
                            report = Some(format!(
                                "read-write race on v{var}: in-section write at node{node} is \
                                 concurrent with in-section read at node{m} (t={})",
                                r.time
                            ));
                            break;
                        }
                    }
                }
            }
            if let Some(message) = report {
                self.latched.insert(var);
                out.push(Violation {
                    time,
                    node,
                    check: CheckKind::DataRace,
                    message,
                });
            }
        }
        self.writes.entry(var).or_default().insert(
            node,
            Access {
                vc,
                in_section,
                time,
            },
        );
    }

    /// End-of-trace finalization (nothing pending for the race detector).
    pub fn finish(&mut self, _out: &mut Vec<Violation>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter writes every value once: the root's verdict on a write —
    /// sequenced or filtered — must take its key out of `pending`, not
    /// leave an emptied queue behind per write.
    #[test]
    fn pending_holds_only_writes_awaiting_their_verdict() {
        let mut rc = RaceChecker::new();
        let mut out = Vec::new();
        let entry = |actor, kind, detail| TraceEntry {
            time: SimTime::ZERO,
            actor,
            kind,
            detail,
        };
        for val in 0..100 {
            let write = entry(1, K::AccWrite, D::VarVal { var: 5, val });
            rc.feed(&write, &mut out);
            // The same write twice in flight shares a key.
            if val % 10 == 0 {
                rc.feed(&write, &mut out);
                assert_eq!(rc.pending[&(1, 5, val)].len(), 2);
            }
        }
        assert_eq!(rc.pending.len(), 100);
        for val in 0..100 {
            let (group, var, origin) = (0, 5, 1);
            let seq = val as u64 + 1;
            let filtered = |val| D::Filtered {
                group,
                var,
                val,
                origin,
            };
            let verdict = if val % 3 == 0 {
                entry(0, K::RootFiltered, filtered(val))
            } else {
                let sequenced = D::Seq {
                    group,
                    seq,
                    var,
                    val,
                    origin,
                };
                entry(0, K::RootSeq, sequenced)
            };
            rc.feed(&verdict, &mut out);
            assert_eq!(rc.seq_clocks.contains_key(&(group, seq)), val % 3 != 0);
            // A verdict on a write nobody has pending changes nothing.
            let stray = entry(0, K::RootFiltered, filtered(val + 1_000));
            rc.feed(&stray, &mut out);
        }
        let doubled: Vec<_> = rc.pending.keys().map(|&(_, _, val)| val).collect();
        assert_eq!(rc.pending.len(), 10, "{doubled:?}");
        assert!(rc.pending.values().all(|q| q.len() == 1));
        assert!(out.is_empty());
    }
}

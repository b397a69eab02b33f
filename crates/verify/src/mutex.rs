//! Mutual-exclusion and rollback-completeness invariant checking.
//!
//! Three protocol invariants from the paper:
//!
//! * **At most one holder** — the root's lock manager never grants a lock
//!   that is already held, never accepts a release from a non-holder
//!   (root-side view), and no two nodes simultaneously believe they hold
//!   the same lock (node-side view).
//! * **Rollback completeness** — when an optimistic section rolls back,
//!   every variable it speculatively wrote is restored by a local write
//!   before the node does anything else: no write survives a discarded
//!   section. An optimistic section that releases its lock without ever
//!   observing a grant is likewise reported.
//! * **Figure 6 hardware blocking** — a node never *applies* the
//!   root-echoed copy of its own mutex-group data write (which would
//!   overwrite rollback state with stale data).

use std::collections::{HashMap, HashSet};

use sesame_sim::{ApplyMode, SimTime, TraceDetail as D, TraceEntry, TraceKind as K};

use crate::{CheckKind, Violation};

/// Speculation state for one node's optimistic section.
#[derive(Debug, Default)]
struct Speculation {
    lock: u32,
    /// Pre-section values saved by the engine (`opt-save`).
    saved: HashMap<u32, i64>,
    /// Variables written during the speculation window.
    written: HashSet<u32>,
}

/// An in-progress rollback: restores observed so far.
#[derive(Debug)]
struct Rollback {
    time: SimTime,
    spec: Speculation,
    restored: HashMap<u32, i64>,
}

/// Per-node state.
#[derive(Debug, Default)]
struct NodeState {
    speculating: Option<Speculation>,
    rolling_back: Option<Rollback>,
}

/// Whether `entry` shows its node past its rollback's restores: any record
/// a checker reads, in the shape it is emitted with, other than a restore.
/// The records the engine makes around the restores (`cause`,
/// `opt-conflict`, `mutex-rollback`) are none of them.
fn moves_on(entry: &TraceEntry) -> bool {
    matches!(
        (entry.kind, &entry.detail),
        (
            K::AccRead
                | K::LockAcquire
                | K::LockRelease
                | K::EvAcquired
                | K::EvReleased
                | K::MutexEnter
                | K::MutexGranted
                | K::OptEnter
                | K::OptRollback,
            D::Var { .. }
        ) | (K::AccWrite | K::OptSave, D::VarVal { .. })
            | (K::RootSeq, D::Seq { .. })
            | (K::RootFiltered, D::Filtered { .. })
            | (K::GwcApply, D::Apply { .. })
            | (K::RootGrant, D::Grant { .. })
            | (K::RootRelease, D::Release { .. })
    )
}

/// The mutual-exclusion invariant checker.
#[derive(Debug, Default)]
pub struct MutexChecker {
    /// Root-side authoritative holder per lock variable.
    root_holder: HashMap<u32, Option<u32>>,
    /// Node-side believers per lock variable.
    believers: HashMap<u32, HashSet<usize>>,
    /// Lock variable of each known mutex group (learned from grants).
    group_locks: HashMap<u32, u32>,
    nodes: Vec<NodeState>,
    /// Locks already reported, one diagnostic per lock per failure class.
    latched_root: HashSet<u32>,
    latched_believers: HashSet<u32>,
    latched_hw: HashSet<usize>,
}

impl MutexChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        MutexChecker::default()
    }

    fn node(&mut self, node: usize) -> &mut NodeState {
        if self.nodes.len() <= node {
            self.nodes.resize_with(node + 1, NodeState::default);
        }
        &mut self.nodes[node]
    }

    /// Ends a pending rollback (the node moved on) and checks completeness:
    /// every variable the section saved or speculatively wrote must have
    /// been restored — to its saved pre-section value where one is known.
    fn finish_rollback(&mut self, node: usize, out: &mut Vec<Violation>) {
        let Some(rb) = self.node(node).rolling_back.take() else {
            return;
        };
        let mut vars: Vec<u32> = rb
            .spec
            .written
            .iter()
            .chain(rb.spec.saved.keys())
            .copied()
            .collect();
        vars.sort_unstable();
        vars.dedup();
        for var in vars {
            match rb.restored.get(&var) {
                None if rb.spec.written.contains(&var) => {
                    out.push(Violation {
                        time: rb.time,
                        node,
                        check: CheckKind::MutualExclusion,
                        message: format!(
                            "optimistic write to v{var} at node{node} survived the discarded \
                             section: rollback restored no value for it"
                        ),
                    });
                }
                None => {
                    out.push(Violation {
                        time: rb.time,
                        node,
                        check: CheckKind::MutualExclusion,
                        message: format!(
                            "rollback at node{node} did not restore saved variable v{var}"
                        ),
                    });
                }
                Some(&restored) => {
                    if let Some(&saved) = rb.spec.saved.get(&var) {
                        if restored != saved {
                            out.push(Violation {
                                time: rb.time,
                                node,
                                check: CheckKind::MutualExclusion,
                                message: format!(
                                    "rollback at node{node} restored v{var}={restored} but the \
                                     saved pre-section value was {saved}"
                                ),
                            });
                        }
                    }
                }
            }
        }
    }

    /// Processes one record; kinds the checker does not read, and kinds
    /// in a shape they are not emitted with, are ignored.
    pub fn feed(&mut self, entry: &TraceEntry, out: &mut Vec<Violation>) {
        let (time, node) = (entry.time, entry.actor);
        let rolling_back = |n: &NodeState| n.rolling_back.is_some();
        if self.nodes.get(node).is_some_and(rolling_back) && moves_on(entry) {
            self.finish_rollback(node, out);
        }
        match (entry.kind, &entry.detail) {
            (K::RootGrant, &D::Grant { group, var, holder }) => {
                self.group_locks.insert(group, var);
                let prev = self.root_holder.entry(var).or_default();
                if let Some(prev_holder) = *prev {
                    if !self.latched_root.contains(&var) {
                        self.latched_root.insert(var);
                        out.push(Violation {
                            time,
                            node,
                            check: CheckKind::MutualExclusion,
                            message: format!(
                                "root granted lock v{var} to node{holder} while node{prev_holder} \
                                 still holds it"
                            ),
                        });
                    }
                }
                *prev = Some(holder);
            }
            (K::RootRelease, &D::Release { group, var, from }) => {
                self.group_locks.insert(group, var);
                let prev = self.root_holder.entry(var).or_default();
                if *prev != Some(from) && !self.latched_root.contains(&var) {
                    self.latched_root.insert(var);
                    let holder = match *prev {
                        Some(h) => format!("node{h} holds it"),
                        None => "it is free".to_string(),
                    };
                    out.push(Violation {
                        time,
                        node,
                        check: CheckKind::MutualExclusion,
                        message: format!("node{from} released lock v{var} but {holder}"),
                    });
                }
                *prev = None;
            }
            (K::EvAcquired | K::MutexGranted, &D::Var { var }) => {
                let holders = self.believers.entry(var).or_default();
                if !holders.is_empty()
                    && !holders.contains(&node)
                    && !self.latched_believers.contains(&var)
                {
                    self.latched_believers.insert(var);
                    let other = *holders.iter().next().expect("non-empty holder set");
                    out.push(Violation {
                        time,
                        node,
                        check: CheckKind::MutualExclusion,
                        message: format!(
                            "two simultaneous holders of lock v{var}: node{node} granted while \
                             node{other} has not released"
                        ),
                    });
                }
                holders.insert(node);
                // A grant legitimizes the speculation; its writes commit.
                if self
                    .node(node)
                    .speculating
                    .as_ref()
                    .is_some_and(|s| s.lock == var)
                {
                    self.node(node).speculating = None;
                }
            }
            (K::LockRelease | K::EvReleased, &D::Var { var }) => {
                self.believers.entry(var).or_default().remove(&node);
                if let Some(spec) = self.node(node).speculating.take() {
                    if spec.lock == var {
                        out.push(Violation {
                            time,
                            node,
                            check: CheckKind::MutualExclusion,
                            message: format!(
                                "optimistic section on lock v{var} at node{node} released \
                                 without ever observing a grant or rolling back"
                            ),
                        });
                    } else {
                        self.node(node).speculating = Some(spec);
                    }
                }
            }
            (K::OptEnter, &D::Var { var }) => {
                self.node(node).speculating = Some(Speculation {
                    lock: var,
                    ..Speculation::default()
                });
            }
            (K::OptSave, &D::VarVal { var, val }) => {
                if let Some(spec) = self.node(node).speculating.as_mut() {
                    spec.saved.insert(var, val);
                }
            }
            (K::AccWrite, &D::VarVal { var, .. }) => {
                if let Some(spec) = self.node(node).speculating.as_mut() {
                    if var != spec.lock {
                        spec.written.insert(var);
                    }
                }
            }
            (K::OptRollback, D::Var { .. }) => {
                if let Some(spec) = self.node(node).speculating.take() {
                    self.node(node).rolling_back = Some(Rollback {
                        time,
                        spec,
                        restored: HashMap::new(),
                    });
                }
            }
            (K::AccWriteLocal, &D::VarVal { var, val }) => {
                if let Some(rb) = self.node(node).rolling_back.as_mut() {
                    rb.restored.insert(var, val);
                }
            }
            // Figure 6: an applied own-echo of mutex-group data means
            // hardware blocking failed.
            (
                K::GwcApply,
                &D::Apply {
                    group,
                    var,
                    origin,
                    mode,
                    ..
                },
            ) if mode == ApplyMode::Applied
                && origin as usize == node
                && self
                    .group_locks
                    .get(&group)
                    .is_some_and(|&lock| lock != var)
                && !self.latched_hw.contains(&node) =>
            {
                self.latched_hw.insert(node);
                out.push(Violation {
                    time,
                    node,
                    check: CheckKind::MutualExclusion,
                    message: format!(
                        "node{node} applied the echo of its own mutex-group data write to \
                         v{var}: Figure 6 hardware blocking failed"
                    ),
                });
            }
            _ => {}
        }
    }

    /// End-of-trace finalization: closes any rollback still in progress.
    pub fn finish(&mut self, out: &mut Vec<Violation>) {
        for node in 0..self.nodes.len() {
            self.finish_rollback(node, out);
        }
    }

    /// Describes protocol activity still open — for truncated traces,
    /// where an open speculation or rollback is expected mid-run state,
    /// not a violation.
    pub fn open_notes(&self) -> Vec<String> {
        let mut notes = Vec::new();
        for (node, st) in self.nodes.iter().enumerate() {
            if let Some(spec) = &st.speculating {
                notes.push(format!(
                    "node{node} has an open optimistic section on lock v{}",
                    spec.lock
                ));
            }
            if let Some(rb) = &st.rolling_back {
                notes.push(format!(
                    "node{node} has a rollback of lock v{} still in progress",
                    rb.spec.lock
                ));
            }
        }
        notes
    }
}

//! Weak and release consistency with eager (cache-update) sharing, as the
//! paper compares against them in Figures 1 and 2.
//!
//! Shared writes fan out as point-to-point updates to every other group
//! member (no root sequencing), each individually acknowledged. The costs
//! relative to GWC (paper §3):
//!
//! * a **release blocks** until every outstanding update has been
//!   acknowledged by every sharer ("lock release to CPU3 is blocked until
//!   the updates reach all nodes");
//! * lock transfer may take **three one-way messages**: request to the
//!   home manager, forward to the current owner, grant from the owner.
//!
//! In the paper's scenarios weak consistency behaves identically to release
//! consistency ("each processor locks, reads or updates, and releases only
//! once"), so one model serves both.

use std::collections::{BTreeMap, VecDeque};

use sesame_dsm::{sizes, AppEvent, GroupTable, Model, ModelAction, Mx, Packet, PacketKind, VarId};
use sesame_net::NodeId;

use crate::slab::{sset_has, sset_insert, sset_remove, LockSlab};

/// Counters exposed for tests and the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReleaseStats {
    /// Point-to-point update messages sent.
    pub updates: u64,
    /// Update acknowledgements received.
    pub acks: u64,
    /// Releases that had to wait for outstanding acknowledgements.
    pub blocked_releases: u64,
    /// Lock requests forwarded from the manager to the current owner.
    pub forwards: u64,
    /// Grants issued.
    pub grants: u64,
}

/// Manager-side view of one lock.
#[derive(Debug)]
struct RcLock {
    manager: NodeId,
    owner: Option<NodeId>,
}

/// Per-node protocol state (sorted vectors / `BTreeMap`s: deterministic
/// iteration, no hashing on the protocol path).
#[derive(Debug, Default)]
struct RcNode {
    /// Updates sent but not yet acknowledged by every receiver.
    outstanding_acks: u64,
    /// A release waiting for `outstanding_acks` to drain.
    pending_release: Option<VarId>,
    /// Locks this node currently holds (sorted).
    holding: Vec<VarId>,
    /// Requests forwarded to this node while it owned the lock.
    local_queue: BTreeMap<VarId, VecDeque<NodeId>>,
    /// Where this node last handed each lock (to chase stale forwards).
    last_granted: BTreeMap<VarId, NodeId>,
}

/// The weak/release-consistency memory model. Per-lock manager state is
/// index-addressed via `slab::LockSlab`.
#[derive(Debug)]
pub struct ReleaseModel {
    locks: LockSlab<RcLock>,
    nodes: Vec<RcNode>,
    next_write_id: u64,
    stats: ReleaseStats,
}

impl ReleaseModel {
    /// Creates the model. Each mutex group's lock is managed at the group
    /// root.
    pub fn new(groups: &GroupTable, nodes: usize) -> Self {
        let locks = groups
            .iter()
            .filter_map(|g| {
                g.mutex_lock().map(|lock| {
                    (
                        lock,
                        RcLock {
                            manager: g.root(),
                            owner: None,
                        },
                    )
                })
            })
            .collect();
        ReleaseModel {
            locks: LockSlab::build(locks),
            nodes: (0..nodes).map(|_| RcNode::default()).collect(),
            next_write_id: 0,
            stats: ReleaseStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> ReleaseStats {
        self.stats
    }

    /// The manager's view of who owns `lock`.
    pub fn owner_of(&self, lock: VarId) -> Option<NodeId> {
        self.locks.get(lock).and_then(|l| l.owner)
    }

    fn grant(&mut self, lock: VarId, from: NodeId, to: NodeId, mx: &mut Mx<'_, '_>) {
        self.stats.grants += 1;
        if from == to {
            sset_insert(&mut self.nodes[to.index()].holding, lock);
            mx.deliver(to, AppEvent::Acquired { lock });
        } else {
            mx.send(Packet {
                from,
                to,
                bytes: sizes::CTRL,
                kind: PacketKind::RcGrant { lock },
            });
        }
    }

    /// Completes a release whose acknowledgements have drained: hand the
    /// lock to a queued waiter or return it to the manager.
    fn complete_release(&mut self, node: NodeId, lock: VarId, mx: &mut Mx<'_, '_>) {
        let st = &mut self.nodes[node.index()];
        sset_remove(&mut st.holding, &lock);
        mx.deliver(node, AppEvent::Released { lock });
        let next = st.local_queue.get_mut(&lock).and_then(|q| q.pop_front());
        let manager = self.locks.expect(lock, "complete_release").manager;
        match next {
            Some(next) => {
                self.nodes[node.index()].last_granted.insert(lock, next);
                // The rest of the waiter queue piggybacks on the grant and
                // re-queues at the new owner (costs no extra messages).
                let rest = self.nodes[node.index()]
                    .local_queue
                    .get_mut(&lock)
                    .map(std::mem::take)
                    .unwrap_or_default();
                self.nodes[next.index()]
                    .local_queue
                    .entry(lock)
                    .or_default()
                    .extend(rest);
                // Tell the manager where the lock went (non-blocking), then
                // hand the token directly to the waiter.
                if manager == node {
                    self.locks.expect_mut(lock, "complete_release").owner = Some(next);
                } else {
                    mx.send(Packet {
                        from: node,
                        to: manager,
                        bytes: sizes::CTRL,
                        kind: PacketKind::RcRelease {
                            lock,
                            new_owner: Some(next),
                        },
                    });
                }
                self.grant(lock, node, next, mx);
            }
            None => {
                // Clear the handoff breadcrumb: forwards that still chase
                // through this node must bounce to the manager, never a
                // stale grantee (prevents chase cycles).
                self.nodes[node.index()].last_granted.remove(&lock);
                if manager == node {
                    self.locks.expect_mut(lock, "complete_release").owner = None;
                } else {
                    mx.send(Packet {
                        from: node,
                        to: manager,
                        bytes: sizes::CTRL,
                        kind: PacketKind::RcRelease {
                            lock,
                            new_owner: None,
                        },
                    });
                }
            }
        }
    }
}

impl Model for ReleaseModel {
    fn name(&self) -> &'static str {
        "release"
    }

    fn on_action(&mut self, node: NodeId, action: ModelAction, mx: &mut Mx<'_, '_>) {
        match action {
            ModelAction::Write { var, value } => {
                let targets: Vec<NodeId> = {
                    let g = mx
                        .groups()
                        .group_of(var)
                        .unwrap_or_else(|| panic!("write to {var} which is in no sharing group"));
                    g.members().iter().copied().filter(|&m| m != node).collect()
                };
                mx.mem(node).write(var, value);
                let write_id = self.next_write_id;
                self.next_write_id += 1;
                self.nodes[node.index()].outstanding_acks += targets.len() as u64;
                self.stats.updates += targets.len() as u64;
                for m in targets {
                    mx.send(Packet {
                        from: node,
                        to: m,
                        bytes: sizes::WRITE,
                        kind: PacketKind::RcUpdate {
                            var,
                            value,
                            origin: node,
                            write_id,
                        },
                    });
                }
            }
            ModelAction::WriteLocal { var, value } => {
                mx.mem(node).write(var, value);
            }
            ModelAction::Acquire { lock } => {
                let manager = self.locks.expect(lock, "acquire").manager;
                if manager == node {
                    // Local request to the manager.
                    let owner = self.locks.expect(lock, "acquire").owner;
                    match owner {
                        None => {
                            self.locks.expect_mut(lock, "acquire").owner = Some(node);
                            self.grant(lock, node, node, mx);
                        }
                        Some(o) => {
                            self.stats.forwards += 1;
                            mx.send(Packet {
                                from: node,
                                to: o,
                                bytes: sizes::CTRL,
                                kind: PacketKind::RcForward {
                                    lock,
                                    requester: node,
                                },
                            });
                        }
                    }
                } else {
                    mx.send(Packet {
                        from: node,
                        to: manager,
                        bytes: sizes::CTRL,
                        kind: PacketKind::RcAcquire {
                            lock,
                            requester: node,
                        },
                    });
                }
            }
            ModelAction::Release { lock } => {
                assert!(
                    sset_has(&self.nodes[node.index()].holding, &lock),
                    "{node} released {lock} it does not hold"
                );
                if self.nodes[node.index()].outstanding_acks == 0 {
                    self.complete_release(node, lock, mx);
                } else {
                    // The release blocks until all updates are acknowledged.
                    self.stats.blocked_releases += 1;
                    self.nodes[node.index()].pending_release = Some(lock);
                }
            }
            ModelAction::Fetch { var } => {
                // Cache-update sharing keeps copies fresh locally.
                let value = mx.mem(node).read(var);
                mx.deliver(node, AppEvent::ValueReady { var, value });
            }
            ModelAction::ArmLockInterrupt { .. }
            | ModelAction::SuspendInsharing
            | ModelAction::ResumeInsharing => {
                panic!("optimistic GWC control actions are not available under release consistency")
            }
        }
    }

    fn on_packet(&mut self, node: NodeId, pkt: Packet, mx: &mut Mx<'_, '_>) {
        match pkt.kind {
            PacketKind::RcUpdate {
                var,
                value,
                origin,
                write_id,
            } => {
                mx.mem(node).write(var, value);
                mx.deliver(node, AppEvent::Updated { var, value, origin });
                mx.send(Packet {
                    from: node,
                    to: origin,
                    bytes: sizes::ACK,
                    kind: PacketKind::RcUpdateAck { write_id },
                });
            }
            PacketKind::RcUpdateAck { .. } => {
                let st = &mut self.nodes[node.index()];
                st.outstanding_acks -= 1;
                self.stats.acks += 1;
                if st.outstanding_acks == 0 {
                    if let Some(lock) = st.pending_release.take() {
                        self.complete_release(node, lock, mx);
                    }
                }
            }
            PacketKind::RcAcquire { lock, requester } => {
                // At the manager.
                let owner = self.locks.expect(lock, "RcAcquire").owner;
                match owner {
                    None => {
                        self.locks.expect_mut(lock, "RcAcquire").owner = Some(requester);
                        self.grant(lock, node, requester, mx);
                    }
                    Some(o) => {
                        self.stats.forwards += 1;
                        self.locks.expect_mut(lock, "RcAcquire").owner = Some(o);
                        mx.send(Packet {
                            from: node,
                            to: o,
                            bytes: sizes::CTRL,
                            kind: PacketKind::RcForward { lock, requester },
                        });
                    }
                }
            }
            PacketKind::RcForward { lock, requester } => {
                let st = &mut self.nodes[node.index()];
                if sset_has(&st.holding, &lock) || st.pending_release == Some(lock) {
                    st.local_queue.entry(lock).or_default().push_back(requester);
                } else if let Some(&next) = st.last_granted.get(&lock) {
                    // The token moved on; chase it.
                    mx.send(Packet {
                        from: node,
                        to: next,
                        bytes: sizes::CTRL,
                        kind: PacketKind::RcForward { lock, requester },
                    });
                } else {
                    // Never owned or already returned to the manager; the
                    // manager will re-route.
                    let manager = self.locks.expect(lock, "RcForward").manager;
                    mx.send(Packet {
                        from: node,
                        to: manager,
                        bytes: sizes::CTRL,
                        kind: PacketKind::RcAcquire { lock, requester },
                    });
                }
            }
            PacketKind::RcGrant { lock } => {
                sset_insert(&mut self.nodes[node.index()].holding, lock);
                mx.deliver(node, AppEvent::Acquired { lock });
            }
            PacketKind::RcRelease { lock, new_owner } => {
                self.locks.expect_mut(lock, "RcRelease").owner = new_owner;
            }
            PacketKind::App { tag } => {
                mx.deliver(
                    node,
                    AppEvent::MessageReceived {
                        from: pkt.from,
                        tag,
                        bytes: pkt.bytes,
                    },
                );
            }
            other => panic!("release-consistency model received foreign packet {other:?}"),
        }
    }
}

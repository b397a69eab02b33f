//! Entry consistency (Bershad & Zekauskas, *Midway*), as the paper compares
//! against it.
//!
//! Entry consistency associates guarded data with locks and requires
//! consistency only when entering a guarded section. Its costs, relative to
//! GWC with eagersharing (paper §3):
//!
//! * the guarded data is **shipped with the lock** — extra transmission
//!   time after every remote transfer;
//! * moving from non-exclusive (reader) to exclusive mode needs an
//!   **invalidation round trip** to every reader;
//! * reads of data that is not locally valid need a **demand fetch** round
//!   trip (under eagersharing the value is already present).
//!
//! Following the paper's own generosity, this is the *fast* variant: every
//! requester magically knows the current lock owner, so no time is lost
//! relaying requests, and all releases are local.
//!
//! Variables in mutex groups are guarded by the group's lock; variables in
//! groups without a lock use a home-based write-through/invalidate protocol
//! at the group root (the demand-fetch traffic the paper charges entry
//! consistency for in Figure 2).

use std::collections::{BTreeMap, VecDeque};

use sesame_dsm::{
    sizes, AppEvent, GroupTable, Model, ModelAction, Mx, Packet, PacketKind, TraceDetail,
    TraceKind, VarId,
};
use sesame_net::NodeId;

use crate::slab::{sset_has, sset_insert, sset_remove, LockSlab};

/// Counters exposed for tests and the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EntryStats {
    /// Lock-token transfers between nodes.
    pub transfers: u64,
    /// Bytes of guarded data shipped with lock grants.
    pub data_bytes_shipped: u64,
    /// Invalidation messages sent.
    pub invalidations: u64,
    /// Demand fetches issued.
    pub fetches: u64,
    /// Local (owner-cached) lock reacquisitions.
    pub local_reacquires: u64,
}

/// An in-flight lock transfer: invalidations outstanding, then the grant.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    from: NodeId,
    to: NodeId,
    pending_acks: usize,
}

/// Per-lock token state. The reader and dirty sets are sorted vectors:
/// iteration (and therefore invalidation fan-out order) is ascending
/// node order, a deterministic function of the set contents.
#[derive(Debug)]
struct EcLock {
    owner: NodeId,
    held: bool,
    queue: VecDeque<NodeId>,
    readers: Vec<NodeId>,
    transfer: Option<Transfer>,
    /// Guarded vars written since the token last moved; their bytes ship
    /// with the next grant.
    dirty: Vec<VarId>,
}

/// Per-node validity state (sorted vectors probed by binary search).
#[derive(Debug, Default)]
struct EcNode {
    valid: Vec<VarId>,
    pending_fetch: Vec<VarId>,
    /// Fetches whose reply must not cache: an invalidation overtook them
    /// while in flight.
    poisoned: Vec<VarId>,
}

/// Home state for one non-mutex group (write-through/invalidate at the
/// root): per-variable reader sets, sorted for deterministic
/// invalidation order.
#[derive(Debug, Default)]
struct EcHome {
    readers: BTreeMap<VarId, Vec<NodeId>>,
}

/// The entry-consistency memory model.
///
/// Protocol state is index-addressed (see `slab::LockSlab`): per-lock state
/// lives in a slab keyed by a sorted lock-var index, and per-group home
/// state in a dense `Vec` indexed by [`sesame_dsm::GroupId`].
#[derive(Debug)]
pub struct EntryModel {
    locks: LockSlab<EcLock>,
    nodes: Vec<EcNode>,
    /// Home state, indexed by `GroupId::index()`; `None` for mutex
    /// groups (which are lock-managed, not home-managed).
    homes: Vec<Option<EcHome>>,
    stats: EntryStats,
    /// Software protocol-handler time charged before each outgoing
    /// protocol message. Sesame's GWC runs in hardware interfaces; entry
    /// consistency (Midway) is a software DSM whose handlers execute on
    /// the host CPU. Zero by default; the Figure 2 reproduction sets it
    /// (see DESIGN.md).
    handler_time: sesame_sim::SimDur,
}

impl EntryModel {
    /// Creates the model: every mutex group's lock token starts at the
    /// group root, which also starts with valid copies of the guarded
    /// data.
    pub fn new(groups: &GroupTable, nodes: usize) -> Self {
        let mut locks = Vec::new();
        let mut homes: Vec<Option<EcHome>> = (0..groups.len()).map(|_| None).collect();
        let mut node_state: Vec<EcNode> = (0..nodes).map(|_| EcNode::default()).collect();
        for g in groups.iter() {
            if let Some(lock) = g.mutex_lock() {
                locks.push((
                    lock,
                    EcLock {
                        owner: g.root(),
                        held: false,
                        queue: VecDeque::new(),
                        readers: Vec::new(),
                        transfer: None,
                        dirty: Vec::new(),
                    },
                ));
                if g.root().index() < nodes {
                    for &v in g.vars() {
                        sset_insert(&mut node_state[g.root().index()].valid, v);
                    }
                }
            } else {
                homes[g.id().index()] = Some(EcHome::default());
            }
        }
        EntryModel {
            locks: LockSlab::build(locks),
            nodes: node_state,
            homes,
            stats: EntryStats::default(),
            handler_time: sesame_sim::SimDur::ZERO,
        }
    }

    /// Sets the software protocol-handler occupancy charged before each
    /// outgoing protocol message (invalidations, grants, fetch replies,
    /// home updates).
    pub fn set_handler_time(&mut self, handler_time: sesame_sim::SimDur) {
        self.handler_time = handler_time;
    }

    /// Counters so far.
    pub fn stats(&self) -> EntryStats {
        self.stats
    }

    /// The current owner of `lock`'s token.
    pub fn owner_of(&self, lock: VarId) -> Option<NodeId> {
        self.locks.get(lock).map(|l| l.owner)
    }

    fn guarded_vars(groups: &GroupTable, lock: VarId) -> Vec<VarId> {
        groups
            .group_of(lock)
            .map(|g| g.vars().iter().copied().filter(|&v| v != lock).collect())
            .unwrap_or_default()
    }

    /// Start moving the token to `to`: invalidate every other reader, then
    /// grant.
    fn begin_transfer(&mut self, lock: VarId, to: NodeId, mx: &mut Mx<'_, '_>) {
        let li = self
            .locks
            .index_of(lock)
            .unwrap_or_else(|| panic!("begin_transfer: unknown lock {lock}"));
        let l = self.locks.at_mut(li);
        debug_assert!(l.transfer.is_none() && !l.held);
        let from = l.owner;
        let targets: Vec<NodeId> = l
            .readers
            .iter()
            .copied()
            .filter(|&r| r != to && r != from)
            .collect();
        l.transfer = Some(Transfer {
            from,
            to,
            pending_acks: targets.len(),
        });
        // Each target's `ec-invalidated` names it; this record names the
        // new owner.
        mx.trace(
            from,
            TraceKind::EcBeginTransfer,
            TraceDetail::VarNode {
                var: lock.get(),
                node: to.get(),
            },
        );
        self.stats.invalidations += targets.len() as u64;
        for r in &targets {
            sset_remove(&mut self.locks.at_mut(li).readers, r);
            mx.send_after(
                self.handler_time,
                Packet {
                    from,
                    to: *r,
                    bytes: sizes::CTRL,
                    kind: PacketKind::EcInvalidate { lock },
                },
            );
        }
        if targets.is_empty() {
            self.finish_transfer(lock, mx);
        }
    }

    /// All invalidations acknowledged: ship the lock plus the dirty guarded
    /// data.
    fn finish_transfer(&mut self, lock: VarId, mx: &mut Mx<'_, '_>) {
        let l = self.locks.expect_mut(lock, "finish_transfer");
        let t = l.transfer.expect("transfer in flight");
        let data_bytes = sizes::WRITE * l.dirty.len() as u32;
        l.dirty.clear();
        self.stats.transfers += 1;
        self.stats.data_bytes_shipped += data_bytes as u64;
        if t.to == t.from {
            // Local reacquire that only needed invalidations; no wire
            // transfer of the token.
            self.grant_arrived(lock, t.to, mx);
            return;
        }
        mx.send_after(
            self.handler_time,
            Packet {
                from: t.from,
                to: t.to,
                bytes: sizes::CTRL + data_bytes,
                kind: PacketKind::EcGrant { lock },
            },
        );
    }

    /// The token (with its data) reached `node`.
    fn grant_arrived(&mut self, lock: VarId, node: NodeId, mx: &mut Mx<'_, '_>) {
        let detail = TraceDetail::Var { var: lock.get() };
        mx.trace(node, TraceKind::EcGrantArrived, detail);
        let guarded = Self::guarded_vars(mx.groups(), lock);
        let l = self.locks.expect_mut(lock, "grant_arrived");
        let t = l.transfer.take().expect("transfer in flight");
        debug_assert_eq!(t.to, node);
        let prev = l.owner;
        l.owner = node;
        l.held = true;
        // The previous owner gives up validity with the token; readers who
        // registered after the transfer's invalidation round stay
        // registered, so the *next* transfer invalidates them with real
        // messages (never silently — see the in-flight reply race below).
        sset_remove(&mut l.readers, &prev);
        sset_remove(&mut l.readers, &node);
        if prev != node {
            for &v in &guarded {
                sset_remove(&mut self.nodes[prev.index()].valid, &v);
            }
        }
        // The shipped data materializes at the new owner.
        for &v in &guarded {
            let value = mx.mem(prev).read(v);
            mx.mem(node).write(v, value);
            sset_insert(&mut self.nodes[node.index()].valid, v);
        }
        mx.deliver(node, AppEvent::Acquired { lock });
    }

    fn acquire(&mut self, node: NodeId, lock: VarId, mx: &mut Mx<'_, '_>) {
        let l = self.locks.expect_mut(lock, "acquire");
        if l.owner == node && !l.held && l.transfer.is_none() && l.queue.is_empty() {
            // Owner-cached reacquire: local, unless readers must be
            // invalidated first.
            if l.readers.iter().all(|&r| r == node) {
                l.held = true;
                self.stats.local_reacquires += 1;
                let detail = TraceDetail::Var { var: lock.get() };
                mx.trace(node, TraceKind::EcLocalReacquire, detail);
                mx.deliver(node, AppEvent::Acquired { lock });
            } else {
                self.begin_transfer(lock, node, mx);
            }
            return;
        }
        let owner = l.owner;
        mx.send_after(
            self.handler_time,
            Packet {
                from: node,
                to: owner,
                bytes: sizes::CTRL,
                kind: PacketKind::EcAcquire {
                    lock,
                    requester: node,
                },
            },
        );
    }

    fn owner_receives_request(
        &mut self,
        node: NodeId,
        lock: VarId,
        requester: NodeId,
        mx: &mut Mx<'_, '_>,
    ) {
        let l = self.locks.expect_mut(lock, "owner_receives_request");
        if l.owner != node {
            // The token moved while the request was in flight; chase it.
            let owner = l.owner;
            mx.send_after(
                self.handler_time,
                Packet {
                    from: node,
                    to: owner,
                    bytes: sizes::CTRL,
                    kind: PacketKind::EcAcquire { lock, requester },
                },
            );
            return;
        }
        if l.held || l.transfer.is_some() || !l.queue.is_empty() {
            l.queue.push_back(requester);
            if mx.tracing() {
                // Canonical owner-queue-depth event (telemetry's
                // ec-queue-depth time-weighted signal).
                let qlen = self
                    .locks
                    .expect(lock, "owner_receives_request")
                    .queue
                    .len();
                mx.trace(
                    node,
                    TraceKind::EcQueue,
                    TraceDetail::QueueDepth {
                        var: lock.get(),
                        depth: qlen as u32,
                    },
                );
            }
            return;
        }
        self.begin_transfer(lock, requester, mx);
    }
}

impl Model for EntryModel {
    fn name(&self) -> &'static str {
        "entry"
    }

    fn on_action(&mut self, node: NodeId, action: ModelAction, mx: &mut Mx<'_, '_>) {
        match action {
            ModelAction::Write { var, value } => {
                let (mutex_lock, home, gid) = {
                    let g = mx
                        .groups()
                        .group_of(var)
                        .unwrap_or_else(|| panic!("write to {var} which is in no sharing group"));
                    (g.mutex_lock(), g.root(), g.id())
                };
                mx.mem(node).write(var, value);
                if let Some(lock) = mutex_lock {
                    let l = self.locks.expect_mut(lock, "guarded write");
                    assert!(
                        l.owner == node && l.held,
                        "{node} wrote guarded {var} without holding {lock}"
                    );
                    sset_insert(&mut l.dirty, var);
                    sset_insert(&mut self.nodes[node.index()].valid, var);
                } else {
                    // Non-guarded: write through to the home, which
                    // invalidates cached readers.
                    sset_insert(&mut self.nodes[node.index()].valid, var);
                    if home == node {
                        self.invalidate_home_readers(gid, var, node, mx);
                    } else {
                        mx.send_after(
                            self.handler_time,
                            Packet {
                                from: node,
                                to: home,
                                bytes: sizes::WRITE,
                                kind: PacketKind::EcHomeUpdate { var, value },
                            },
                        );
                    }
                }
            }
            ModelAction::WriteLocal { var, value } => {
                mx.mem(node).write(var, value);
            }
            ModelAction::Acquire { lock } => self.acquire(node, lock, mx),
            ModelAction::Release { lock } => {
                let l = self.locks.expect_mut(lock, "release");
                assert!(
                    l.owner == node && l.held,
                    "{node} released {lock} it does not hold"
                );
                l.held = false;
                // All releases are local in the fast variant.
                mx.deliver(node, AppEvent::Released { lock });
                let l = self.locks.expect_mut(lock, "release");
                if let Some(next) = l.queue.pop_front() {
                    if mx.tracing() {
                        let qlen = self.locks.expect(lock, "release").queue.len();
                        mx.trace(
                            node,
                            TraceKind::EcQueue,
                            TraceDetail::QueueDepth {
                                var: lock.get(),
                                depth: qlen as u32,
                            },
                        );
                    }
                    self.begin_transfer(lock, next, mx);
                }
            }
            ModelAction::Fetch { var } => {
                let g = mx
                    .groups()
                    .group_of(var)
                    .unwrap_or_else(|| panic!("fetch of {var} which is in no sharing group"));
                let locally_valid = sset_has(&self.nodes[node.index()].valid, &var)
                    || g.mutex_lock()
                        .and_then(|l| self.locks.get(l))
                        .is_some_and(|l| l.owner == node)
                    || (g.mutex_lock().is_none() && g.root() == node);
                if locally_valid {
                    let value = mx.mem(node).read(var);
                    mx.deliver(node, AppEvent::ValueReady { var, value });
                    return;
                }
                if !sset_insert(&mut self.nodes[node.index()].pending_fetch, var) {
                    return; // a fetch for this var is already in flight
                }
                self.stats.fetches += 1;
                let target = match g.mutex_lock() {
                    Some(lock) => self.locks.expect(lock, "fetch").owner,
                    None => g.root(),
                };
                mx.send_after(
                    self.handler_time,
                    Packet {
                        from: node,
                        to: target,
                        bytes: sizes::CTRL,
                        kind: PacketKind::EcFetch {
                            var,
                            requester: node,
                        },
                    },
                );
            }
            ModelAction::ArmLockInterrupt { .. }
            | ModelAction::SuspendInsharing
            | ModelAction::ResumeInsharing => {
                panic!("optimistic GWC control actions are not available under entry consistency")
            }
        }
    }

    fn on_packet(&mut self, node: NodeId, pkt: Packet, mx: &mut Mx<'_, '_>) {
        match pkt.kind {
            PacketKind::EcAcquire { lock, requester } => {
                self.owner_receives_request(node, lock, requester, mx);
            }
            PacketKind::EcInvalidate { lock } => {
                let detail = TraceDetail::Var { var: lock.get() };
                mx.trace(node, TraceKind::EcInvalidated, detail);
                for v in Self::guarded_vars(mx.groups(), lock) {
                    let st = &mut self.nodes[node.index()];
                    sset_remove(&mut st.valid, &v);
                    // A reply racing this invalidation must not re-cache.
                    if sset_has(&st.pending_fetch, &v) {
                        sset_insert(&mut st.poisoned, v);
                    }
                }
                let l = self.locks.expect(lock, "invalidate");
                let back = l.transfer.map(|t| t.from).unwrap_or(l.owner);
                mx.send_after(
                    self.handler_time,
                    Packet {
                        from: node,
                        to: back,
                        bytes: sizes::ACK,
                        kind: PacketKind::EcInvalidateAck { lock },
                    },
                );
            }
            PacketKind::EcInvalidateAck { lock } => {
                let l = self.locks.expect_mut(lock, "invalidate-ack");
                let t = l.transfer.as_mut().expect("transfer in flight");
                t.pending_acks -= 1;
                if t.pending_acks == 0 {
                    self.finish_transfer(lock, mx);
                }
            }
            PacketKind::EcGrant { lock } => self.grant_arrived(lock, node, mx),
            PacketKind::EcFetch { var, requester } => {
                let detail = TraceDetail::VarNode {
                    var: var.get(),
                    node: requester.get(),
                };
                mx.trace(node, TraceKind::EcFetchServe, detail);
                let g = mx.groups().group_of(var).expect("known var");
                // If the token moved, chase it.
                if let Some(lock) = g.mutex_lock() {
                    let owner = self.locks.expect(lock, "fetch-serve").owner;
                    if owner != node {
                        mx.send_after(
                            self.handler_time,
                            Packet {
                                from: node,
                                to: owner,
                                bytes: sizes::CTRL,
                                kind: PacketKind::EcFetch { var, requester },
                            },
                        );
                        return;
                    }
                    sset_insert(
                        &mut self.locks.expect_mut(lock, "fetch-serve").readers,
                        requester,
                    );
                } else {
                    sset_insert(
                        self.homes[g.id().index()]
                            .as_mut()
                            .expect("home group")
                            .readers
                            .entry(var)
                            .or_default(),
                        requester,
                    );
                }
                let value = mx.mem(node).read(var);
                mx.send_after(
                    self.handler_time,
                    Packet {
                        from: node,
                        to: requester,
                        bytes: sizes::WRITE,
                        kind: PacketKind::EcFetchReply { var, value },
                    },
                );
            }
            PacketKind::EcFetchReply { var, value } => {
                mx.mem(node).write(var, value);
                let st = &mut self.nodes[node.index()];
                sset_remove(&mut st.pending_fetch, &var);
                if !sset_remove(&mut st.poisoned, &var) {
                    sset_insert(&mut st.valid, var);
                }
                mx.deliver(node, AppEvent::ValueReady { var, value });
            }
            PacketKind::EcHomeUpdate { var, value } => {
                mx.mem(node).write(var, value);
                let g = mx.groups().group_of(var).expect("known var");
                let gid = g.id();
                self.invalidate_home_readers(gid, var, pkt.from, mx);
            }
            PacketKind::EcHomeInval { var } => {
                let st = &mut self.nodes[node.index()];
                sset_remove(&mut st.valid, &var);
                if sset_has(&st.pending_fetch, &var) {
                    sset_insert(&mut st.poisoned, var);
                }
            }
            other => panic!("entry-consistency model received foreign packet {other:?}"),
        }
    }
}

impl EntryModel {
    fn invalidate_home_readers(
        &mut self,
        group: sesame_dsm::GroupId,
        var: VarId,
        writer: NodeId,
        mx: &mut Mx<'_, '_>,
    ) {
        let home = self.homes[group.index()].as_mut().expect("home group");
        let set = home.readers.entry(var).or_default();
        // Reader sets are sorted, so the invalidation fan-out goes out in
        // ascending node order — deterministically.
        let targets: Vec<NodeId> = std::mem::take(set)
            .into_iter()
            .filter(|&r| r != writer)
            .collect();
        set.push(writer);
        let root = mx.groups().group(group).root();
        self.stats.invalidations += targets.len() as u64;
        for r in targets {
            sset_remove(&mut self.nodes[r.index()].valid, &var);
            mx.send_after(
                self.handler_time,
                Packet {
                    from: root,
                    to: r,
                    bytes: sizes::CTRL,
                    kind: PacketKind::EcHomeInval { var },
                },
            );
        }
    }
}

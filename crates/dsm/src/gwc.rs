//! Group write consistency with eagersharing — the Sesame memory system.
//!
//! This is the paper's substrate (§1.2, §2): every shared write is
//! intercepted by the local sharing interface and forwarded to the group
//! root, which assigns it a group sequence number and multicasts it down the
//! group's spanning tree. All members apply writes in root sequence order,
//! giving total store ordering *within the group* without any round-trip
//! waits at the writer.
//!
//! The root is also the group's **lock manager** (§2): writes to the
//! group's mutex lock variable are interpreted as queue-based lock protocol
//! operations —
//!
//! * a negated processor number requests the lock (granted immediately when
//!   free, queued otherwise);
//! * the `FREE` sentinel releases it (the root grants to the next queued
//!   requester, or propagates `FREE`).
//!
//! Two mechanisms make optimistic synchronization safe (§4):
//!
//! * **Root filtering** — data writes in a mutex group from a node that
//!   does not hold the lock are discarded at the root, so optimistic
//!   updates from a loser never reach other members.
//! * **Hardware blocking** (Figure 6) — each sharing interface drops
//!   root-echoed copies of its *own* mutex-group data writes, so stale
//!   echoes cannot overwrite rollback state. Echoed lock changes are never
//!   dropped.
//!
//! The interfaces also implement the armed lock-change interrupt with
//! atomic insharing suspension (Figures 4–5) and nack-based recovery for
//! lost sequenced packets.

use std::collections::{BTreeMap, VecDeque};

use sesame_net::{CauseId, NodeId};
use sesame_sim::{CauseOp, TraceKind};

use crate::addr::lockval;
use crate::protocol::sizes;
use crate::{
    AppEvent, ApplyMode, GroupId, GroupTable, Model, ModelAction, Mx, Packet, PacketKind,
    TraceDetail, VarId, Word,
};

/// Encodes a grant watchdog timer tag: the group id in the low 32 bits
/// (group ids are `u32`, and a sharded machine has more groups than
/// nodes), the grant's sequence number above.
fn watchdog_tag(group: GroupId, seq: u64) -> u64 {
    assert!(
        seq < 1 << 32,
        "grant sequence number {seq} overflows the watchdog tag"
    );
    (seq << 32) | u64::from(group.get())
}

/// Inverse of [`watchdog_tag`].
fn watchdog_untag(tag: u64) -> (GroupId, u64) {
    (GroupId::new(tag as u32), tag >> 32)
}

/// One sequenced write traveling (or buffered) within a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SeqItem {
    group: GroupId,
    var: VarId,
    value: Word,
    origin: NodeId,
    seq: u64,
}

/// Per-node sharing-interface state.
///
/// The hot per-`(group, member)` counter (the next expected sequence
/// number) lives outside this struct, in [`GwcModel::expected`] —
/// a dense member-slot-indexed array (see [`GroupTable::member_slot`])
/// so the apply loop of a 100k-node machine never hashes. What remains
/// here is genuinely per-node: one record per CPU, so it is kept small —
/// the flag and the two tiny sets inline, the buffers that only loss or
/// suspension populate behind one pointer.
#[derive(Debug, Default)]
struct IfaceState {
    /// Whether insharing is suspended (arrivals buffer in `held`).
    suspended: bool,
    /// Lock variables with an armed change interrupt.
    armed: VarSet,
    /// Locks with an outstanding high-level acquire.
    pending_acquire: VarSet,
    /// Reorder and suspension buffers, created on first use.
    cold: Option<Box<IfaceBuffers>>,
}

/// The rarely populated part of [`IfaceState`].
#[derive(Debug, Default)]
struct IfaceBuffers {
    /// Out-of-order arrivals awaiting their turn (populated only on
    /// loss-induced gaps). `BTreeMap` keeps group iteration order
    /// deterministic when [`GwcModel::resume`] drains it.
    reorder: BTreeMap<GroupId, BTreeMap<u64, SeqItem>>,
    /// Arrivals buffered during suspension, in arrival order.
    held: VecDeque<SeqItem>,
}

impl IfaceState {
    fn buffers(&mut self) -> &mut IfaceBuffers {
        self.cold.get_or_insert_with(Box::default)
    }

    /// Whether any out-of-order arrival is buffered.
    fn has_reordered(&self) -> bool {
        self.cold.as_ref().is_some_and(|c| !c.reorder.is_empty())
    }
}

/// A small sorted set of lock variables. These sets hold at most a
/// handful of vars (a node arms and awaits the locks of the sections it is
/// in), so up to [`VarSet::INLINE`] live in the struct itself — no heap
/// block per node — and a larger set moves to a sorted `Vec` for good.
#[derive(Debug, Default)]
struct VarSet {
    /// Number of vars in `inline`; unused once `spilled` exists.
    len: u8,
    inline: [VarId; VarSet::INLINE],
    /// Boxed so the rare spill costs every node 8 bytes, not a 24-byte
    /// `Vec` header.
    #[allow(clippy::box_collection)]
    spilled: Option<Box<Vec<VarId>>>,
}

impl VarSet {
    const INLINE: usize = 3;

    /// The members, ascending.
    fn as_slice(&self) -> &[VarId] {
        match &self.spilled {
            Some(vars) => vars,
            None => &self.inline[..self.len as usize],
        }
    }

    fn insert(&mut self, var: VarId) {
        let Err(at) = self.as_slice().binary_search(&var) else {
            return;
        };
        let len = self.len as usize;
        if let Some(vars) = &mut self.spilled {
            vars.insert(at, var);
        } else if len < Self::INLINE {
            self.inline.copy_within(at..len, at + 1);
            self.inline[at] = var;
            self.len += 1;
        } else {
            let mut vars = self.inline.to_vec();
            vars.insert(at, var);
            self.spilled = Some(Box::new(vars));
        }
    }

    fn remove(&mut self, var: VarId) -> bool {
        let Ok(at) = self.as_slice().binary_search(&var) else {
            return false;
        };
        let len = self.len as usize;
        if let Some(vars) = &mut self.spilled {
            vars.remove(at);
        } else {
            self.inline.copy_within(at + 1..len, at);
            self.len -= 1;
        }
        true
    }
}

/// Lock-manager state for one mutex group, kept at the group root — in
/// [`GwcModel::locks`], reached through [`RootGroup::lock`], so the groups
/// that have no lock (most of a sharded machine) pay nothing for it.
#[derive(Debug)]
struct LockState {
    var: VarId,
    holder: Option<NodeId>,
    queue: VecDeque<NodeId>,
    /// Outstanding grant watchdog (lossy-fabric recovery).
    watchdog: Option<GrantWatchdog>,
}

/// Root state for one group.
#[derive(Debug)]
struct RootGroup {
    next_seq: u64,
    /// Sequenced writes kept for retransmission; seq `s` lives at
    /// `history[s - 1 - history_base]`. Pruned to the retransmission
    /// window when one is configured.
    history: VecDeque<(VarId, Word, NodeId)>,
    /// Sequence number of the write *before* `history[0]` (0 = nothing
    /// pruned yet).
    history_base: u64,
    /// Index of the group's [`LockState`] in [`GwcModel::locks`], or
    /// [`NO_LOCK`] for a plain group.
    lock: u32,
}

/// [`RootGroup::lock`] of a group without a mutex lock.
const NO_LOCK: u32 = u32::MAX;

impl RootGroup {
    /// Appends the write just sequenced to the retransmission history and
    /// prunes the history to `window` entries, if one is configured.
    fn record(&mut self, write: (VarId, Word, NodeId), window: Option<u64>) {
        // Most roots of a sharded machine sequence exactly one write, so
        // the first entry gets a block of its own size; a second write
        // moves the history onto the deque's usual growth.
        if self.history.capacity() == 0 {
            self.history.reserve_exact(1);
        }
        self.history.push_back(write);
        if let Some(window) = window {
            while self.history.len() as u64 > window {
                self.history.pop_front();
                self.history_base += 1;
            }
        }
    }

    /// The sequenced write numbered `seq`, if the history still holds it.
    fn sequenced(&self, seq: u64) -> Option<(VarId, Word, NodeId)> {
        let at = seq.checked_sub(self.history_base + 1)?;
        self.history.get(usize::try_from(at).ok()?).copied()
    }
}

/// Tracks one issued grant until the holder shows signs of life; on
/// timeout the root retransmits the grant directly to the holder. This is
/// the software stand-in for Sesame's hardware-reliable multicast: without
/// it, a lost grant to a fully quiescent group would deadlock the lock.
#[derive(Debug, Clone, Copy)]
struct GrantWatchdog {
    seq: u64,
    holder: NodeId,
}

/// Protocol counters exposed for tests and the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GwcStats {
    /// Data writes discarded at a root because the writer did not hold the
    /// mutex-group lock (failed optimistic updates).
    pub root_drops: u64,
    /// Own-echo data packets dropped by the Figure 6 hardware blocking.
    pub hw_block_drops: u64,
    /// Lock grants issued.
    pub grants: u64,
    /// Lock requests queued because the lock was busy.
    pub queued_requests: u64,
    /// Gap-detection nacks sent by members.
    pub nacks: u64,
    /// Sequenced writes retransmitted by roots.
    pub retransmissions: u64,
    /// Grants retransmitted by the watchdog after holder silence.
    pub grant_retransmissions: u64,
}

/// A deliberately planted protocol bug, used as a regression fixture for
/// the `sesame-check` model checker: each mutation breaks one safety
/// mechanism the paper depends on, and the checker must find a schedule
/// exposing it within its budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum GwcMutation {
    /// The correct protocol.
    #[default]
    None,
    /// The root grants a busy lock to a new requester instead of queueing
    /// it — two holders can believe they own the critical section.
    StaleGrantReuse,
    /// Members apply out-of-order sequenced writes immediately instead of
    /// buffering them in the reorder window — the root's total store order
    /// is no longer respected at members.
    SeqGap,
}

/// The group-write-consistency memory model.
///
/// Protocol state is index-addressed: root state is a `Vec` indexed by
/// the dense [`GroupId`]s (with the lock manager's share in a side `Vec`
/// that only mutex groups have an entry in), and the per-`(group, member)`
/// expected-sequence counters live in one flat array indexed by
/// [`GroupTable::member_slot`]. All layouts are pure functions of the
/// validated group table, so they cannot perturb event order — the
/// determinism contract that keeps traces byte-identical.
#[derive(Debug)]
pub struct GwcModel {
    ifaces: Vec<IfaceState>,
    /// Root state, indexed by `GroupId::index()` (group ids are dense).
    roots: Vec<RootGroup>,
    /// Lock-manager state of the mutex groups, in group-id order.
    locks: Vec<LockState>,
    /// Next sequence number to apply per member slot; `0` means the slot
    /// was never touched and reads as the protocol's starting value `1`.
    expected: Vec<u64>,
    stats: GwcStats,
    /// Grant-watchdog timeout; `None` disables the watchdog (fine on
    /// loss-free fabrics).
    grant_timeout: Option<sesame_sim::SimDur>,
    /// Retransmission window: how many sequenced writes each root keeps.
    /// `None` keeps everything (exact recovery, unbounded memory).
    history_window: Option<u64>,
    /// Planted bug for checker regression fixtures.
    mutation: GwcMutation,
}

impl GwcModel {
    /// Creates the model for a machine with `nodes` CPUs over `groups`.
    pub fn new(groups: &GroupTable, nodes: usize) -> Self {
        let mut locks = Vec::new();
        let roots = groups
            .iter()
            .map(|g| RootGroup {
                next_seq: 1,
                history: VecDeque::new(),
                history_base: 0,
                lock: g.mutex_lock().map_or(NO_LOCK, |var| {
                    locks.push(LockState {
                        var,
                        holder: None,
                        queue: VecDeque::new(),
                        watchdog: None,
                    });
                    (locks.len() - 1) as u32
                }),
            })
            .collect();
        GwcModel {
            ifaces: (0..nodes).map(|_| IfaceState::default()).collect(),
            roots,
            locks,
            expected: vec![0; groups.member_slots()],
            stats: GwcStats::default(),
            grant_timeout: None,
            history_window: None,
            mutation: GwcMutation::None,
        }
    }

    /// The member slot of `(group, node)`, panicking on a protocol
    /// violation (a sequenced write handled at a non-member).
    fn slot(groups: &GroupTable, group: GroupId, node: NodeId) -> usize {
        groups.member_slot(group, node).unwrap_or_else(|| {
            panic!("{node} handled a sequenced write for {group} it is not a member of")
        })
    }

    /// `group`'s lock-manager state, if it is a mutex group.
    fn lock(&self, group: GroupId) -> Option<&LockState> {
        let rg = self.roots.get(group.index())?;
        self.locks.get(rg.lock as usize)
    }

    fn lock_mut(&mut self, group: GroupId) -> Option<&mut LockState> {
        let rg = self.roots.get(group.index())?;
        self.locks.get_mut(rg.lock as usize)
    }

    /// Plants `mutation` into the protocol (checker regression fixtures).
    pub fn set_mutation(&mut self, mutation: GwcMutation) {
        self.mutation = mutation;
    }

    /// The currently planted mutation.
    pub fn mutation(&self) -> GwcMutation {
        self.mutation
    }

    /// Order-independent hash of all protocol state (sharing interfaces
    /// and root groups), for the `sesame-check` explorer's state-revisit
    /// pruning. Statistics counters are excluded: they never influence
    /// protocol behavior.
    pub fn state_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        fn hash_item(item: &SeqItem, h: &mut impl Hasher) {
            (
                item.group.get(),
                item.var.get(),
                item.value,
                item.origin.get(),
                item.seq,
            )
                .hash(h);
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        // The touched (slot, next-expected-seq) pairs, in slot order;
        // untouched slots (0) are omitted so the digest matches states
        // where the counter was never advanced. A slot is one
        // `(group, node)` pair of a table fixed for the exploration, so
        // this names the same state as per-node `(group, seq)` lists.
        // Counted first, as a `Vec` would be, so the list cannot run into
        // what follows.
        let touched = || {
            self.expected
                .iter()
                .enumerate()
                .filter(|&(_, &seq)| seq != 0)
        };
        touched().count().hash(&mut h);
        for (slot, seq) in touched() {
            (slot, seq).hash(&mut h);
        }
        for (i, st) in self.ifaces.iter().enumerate() {
            i.hash(&mut h);
            // An interface without buffers hashes like one whose buffers
            // are empty.
            let cold = st.cold.as_deref();
            for (g, buffer) in cold.iter().flat_map(|c| &c.reorder) {
                g.get().hash(&mut h);
                for item in buffer.values() {
                    hash_item(item, &mut h);
                }
            }
            st.suspended.hash(&mut h);
            for item in cold.iter().flat_map(|c| &c.held) {
                hash_item(item, &mut h);
            }
            let armed: Vec<u32> = st.armed.as_slice().iter().map(|v| v.get()).collect();
            armed.hash(&mut h);
            let pending: Vec<u32> = (st.pending_acquire.as_slice().iter())
                .map(|v| v.get())
                .collect();
            pending.hash(&mut h);
        }
        for (i, rg) in self.roots.iter().enumerate() {
            (i as u32, rg.next_seq, rg.history_base).hash(&mut h);
            for (var, value, origin) in &rg.history {
                (var.get(), *value, origin.get()).hash(&mut h);
            }
            let lock = self.locks.get(rg.lock as usize);
            match lock {
                None => 0u8.hash(&mut h),
                Some(l) => {
                    (1u8, l.var.get(), l.holder.map(|n| n.get())).hash(&mut h);
                    for n in &l.queue {
                        n.get().hash(&mut h);
                    }
                }
            }
            lock.and_then(|l| l.watchdog)
                .map(|w| (w.seq, w.holder.get()))
                .hash(&mut h);
        }
        h.finish()
    }

    /// Bounds each root's retransmission history to the last `window`
    /// sequenced writes. A nack asking for anything older is a fatal
    /// protocol error (the window was sized too small for the loss rate),
    /// reported by panic with a sizing hint.
    pub fn set_history_window(&mut self, window: Option<u64>) {
        self.history_window = window;
    }

    /// Number of sequenced writes currently retained by `group`'s root.
    pub fn history_len(&self, group: GroupId) -> usize {
        self.roots.get(group.index()).map_or(0, |r| r.history.len())
    }

    /// Enables the root-side grant watchdog: an issued grant whose holder
    /// shows no activity within `timeout` is retransmitted directly to the
    /// holder. Required for liveness on lossy fabrics; unnecessary (and
    /// off by default) otherwise.
    pub fn set_grant_watchdog(&mut self, timeout: Option<sesame_sim::SimDur>) {
        self.grant_timeout = timeout;
    }

    /// Protocol counters.
    pub fn stats(&self) -> GwcStats {
        self.stats
    }

    /// The current holder of `group`'s mutex lock, per the root's
    /// authoritative state.
    pub fn lock_holder(&self, group: GroupId) -> Option<NodeId> {
        self.lock(group).and_then(|l| l.holder)
    }

    /// Number of requesters queued on `group`'s mutex lock.
    pub fn lock_queue_len(&self, group: GroupId) -> usize {
        self.lock(group).map_or(0, |l| l.queue.len())
    }

    /// Whether `node`'s insharing is currently suspended.
    pub fn is_suspended(&self, node: NodeId) -> bool {
        self.ifaces[node.index()].suspended
    }

    fn forward_to_root(&mut self, node: NodeId, var: VarId, value: Word, mx: &mut Mx<'_, '_>) {
        let g = mx
            .groups()
            .group_of(var)
            .unwrap_or_else(|| panic!("write to {var} which is in no sharing group"));
        assert!(
            g.is_member(node) || g.root() == node,
            "{node} wrote {var} but is neither member nor root of {}",
            g.id()
        );
        let root = g.root();
        let group = g.id();
        mx.send(Packet {
            from: node,
            to: root,
            bytes: sizes::WRITE,
            kind: PacketKind::GwcToRoot {
                group,
                var,
                value,
                origin: node,
            },
            cause: CauseId::NONE,
        });
    }

    fn sequence_and_multicast(
        &mut self,
        group: GroupId,
        var: VarId,
        value: Word,
        origin: NodeId,
        mx: &mut Mx<'_, '_>,
    ) {
        let rg = &mut self.roots[group.index()];
        let seq = rg.next_seq;
        rg.next_seq += 1;
        if mx.tracing() {
            let root = mx.groups().group(group).root();
            mx.trace(
                root,
                TraceKind::RootSeq,
                TraceDetail::Seq {
                    group: group.get(),
                    seq,
                    var: var.get(),
                    val: value,
                    origin: origin.get(),
                },
            );
        }
        // The sequencing decision is a causal point of its own: the fan-out
        // (and every member apply) chains from it.
        let root = mx.groups().group(group).root();
        mx.cause_point(root, CauseOp::Seq);
        self.roots[group.index()].record((var, value, origin), self.history_window);
        mx.multicast(
            group,
            sizes::WRITE,
            PacketKind::GwcSeq {
                group,
                var,
                value,
                origin,
                seq,
            },
        );
    }

    /// Root-side processing of one write arriving for sequencing.
    fn root_receive(
        &mut self,
        node: NodeId,
        group: GroupId,
        var: VarId,
        value: Word,
        origin: NodeId,
        mx: &mut Mx<'_, '_>,
    ) {
        debug_assert_eq!(
            mx.groups().group(group).root(),
            node,
            "GwcToRoot delivered to non-root"
        );
        // Any traffic from the current holder proves the grant arrived.
        if let Some(lock) = self.lock_mut(group) {
            if lock.watchdog.is_some_and(|w| w.holder == origin) {
                lock.watchdog = None;
            }
            if lock.var == var {
                self.root_lock_write(group, var, value, origin, mx);
                return;
            }
            // Data write: mutex groups accept data only from the lock
            // holder.
            if lock.holder != Some(origin) {
                self.stats.root_drops += 1;
                if mx.tracing() {
                    mx.trace(
                        node,
                        TraceKind::RootDrop,
                        TraceDetail::text(format!("{var}={value} from {origin}")),
                    );
                    // Canonical twin of "root-drop" for the checkers: the
                    // write was consumed at the root without a sequence
                    // number (failed optimistic update).
                    mx.trace(
                        node,
                        TraceKind::RootFiltered,
                        TraceDetail::Filtered {
                            group: group.get(),
                            var: var.get(),
                            val: value,
                            origin: origin.get(),
                        },
                    );
                }
                mx.cause_point(node, CauseOp::Filter);
                return;
            }
        }
        self.sequence_and_multicast(group, var, value, origin, mx);
    }

    /// Root-side lock protocol (§2): request, grant, queue, release.
    fn root_lock_write(
        &mut self,
        group: GroupId,
        var: VarId,
        value: Word,
        origin: NodeId,
        mx: &mut Mx<'_, '_>,
    ) {
        enum Outcome {
            Grant(NodeId),
            Free,
            Queued,
        }
        if mx.tracing() && lockval::is_free(value) {
            let root = mx.groups().group(group).root();
            mx.trace(
                root,
                TraceKind::RootRelease,
                TraceDetail::Release {
                    group: group.get(),
                    var: var.get(),
                    from: origin.get(),
                },
            );
        }
        let outcome = {
            let mutation = self.mutation;
            let lock = self.lock_mut(group).expect("mutex group");
            if let Some(requester) = lockval::as_request(value) {
                match lock.holder {
                    None => {
                        lock.holder = Some(requester);
                        Outcome::Grant(requester)
                    }
                    Some(_) if mutation == GwcMutation::StaleGrantReuse => {
                        // PLANTED BUG: grant over the live holder.
                        lock.holder = Some(requester);
                        Outcome::Grant(requester)
                    }
                    Some(_) => {
                        lock.queue.push_back(requester);
                        Outcome::Queued
                    }
                }
            } else if lockval::is_free(value) {
                assert_eq!(
                    lock.holder,
                    Some(origin),
                    "{origin} released lock {var} it does not hold"
                );
                lock.holder = lock.queue.pop_front();
                match lock.holder {
                    Some(next) => Outcome::Grant(next),
                    None => Outcome::Free,
                }
            } else {
                panic!("invalid lock value {value} written to {var} by {origin}");
            }
        };
        let root = mx.groups().group(group).root();
        if mx.tracing() {
            // Canonical queue-depth event after every root lock operation;
            // telemetry turns it into a time-weighted root-queue-depth
            // signal per lock.
            let qlen = self.lock_queue_len(group);
            mx.trace(
                root,
                TraceKind::RootQueue,
                TraceDetail::QueueDepth {
                    var: var.get(),
                    depth: qlen as u32,
                },
            );
        }
        match outcome {
            Outcome::Grant(holder) => {
                self.stats.grants += 1;
                if mx.tracing() {
                    mx.trace(
                        root,
                        TraceKind::LockGrant,
                        TraceDetail::text(format!("{var} -> {holder}")),
                    );
                    mx.trace(
                        root,
                        TraceKind::RootGrant,
                        TraceDetail::Grant {
                            group: group.get(),
                            var: var.get(),
                            holder: holder.get(),
                        },
                    );
                }
                // The grant decision precedes its sequencing, so the Seq
                // point (and the whole grant multicast) chains from it.
                mx.cause_point(root, CauseOp::Grant);
                self.sequence_and_multicast(group, var, lockval::grant(holder), root, mx);
                if let Some(timeout) = self.grant_timeout {
                    let seq = self.roots[group.index()].next_seq - 1;
                    self.lock_mut(group).expect("mutex group").watchdog =
                        Some(GrantWatchdog { seq, holder });
                    mx.set_model_timer(root, timeout, watchdog_tag(group, seq));
                }
            }
            Outcome::Free => {
                if mx.tracing() {
                    mx.trace(
                        root,
                        TraceKind::LockFree,
                        TraceDetail::text(var.to_string()),
                    );
                }
                self.lock_mut(group).expect("mutex group").watchdog = None;
                self.sequence_and_multicast(group, var, lockval::FREE, root, mx);
            }
            Outcome::Queued => {
                self.stats.queued_requests += 1;
                if mx.tracing() {
                    mx.trace(
                        root,
                        TraceKind::LockQueued,
                        TraceDetail::text(format!("{var} <- {origin}")),
                    );
                }
            }
        }
    }

    fn apply_chain(&mut self, node: NodeId, group: GroupId, slot: usize, mx: &mut Mx<'_, '_>) {
        if !self.ifaces[node.index()].has_reordered() {
            // Nothing was ever buffered out of order at this node (the
            // steady state of loss-free runs) — skip the per-group probe.
            return;
        }
        loop {
            if self.ifaces[node.index()].suspended && mx.config().insharing_suspension {
                return;
            }
            let expected = self.expected[slot].max(1);
            let next = self.ifaces[node.index()]
                .cold
                .as_mut()
                .and_then(|c| c.reorder.get_mut(&group))
                .and_then(|b| b.remove(&expected));
            match next {
                Some(item) => self.apply_item(node, slot, item, mx),
                None => return,
            }
        }
    }

    /// Applies one in-order sequenced write at `node`, advancing the
    /// expected counter.
    fn apply_item(&mut self, node: NodeId, slot: usize, item: SeqItem, mx: &mut Mx<'_, '_>) {
        self.expected[slot] = item.seq + 1;
        let st = &mut self.ifaces[node.index()];
        let g = mx.groups().group(item.group);
        let is_lock_var = g.mutex_lock() == Some(item.var);
        // Canonical in-order receipt event for the checkers; `mode` says
        // what happened to the payload: applied, hardware-blocked (Figure 6
        // own-echo drop), or applied via armed lock interrupt.
        let gwc_apply = |mx: &mut Mx<'_, '_>, mode: ApplyMode| {
            mx.trace(
                node,
                TraceKind::GwcApply,
                TraceDetail::Apply {
                    group: item.group.get(),
                    seq: item.seq,
                    var: item.var.get(),
                    val: item.value,
                    origin: item.origin.get(),
                    mode,
                },
            );
        };

        // Figure 6 hardware blocking: drop echoed own mutex-group data.
        if mx.config().hw_block && g.is_mutex_group() && item.origin == node && !is_lock_var {
            self.stats.hw_block_drops += 1;
            if mx.tracing() {
                mx.trace(
                    node,
                    TraceKind::HwBlockDrop,
                    TraceDetail::text(format!("{}={}", item.var, item.value)),
                );
                gwc_apply(mx, ApplyMode::HwBlocked);
            }
            mx.cause_point(node, CauseOp::Apply);
            return;
        }

        // Armed lock interrupt: suspend insharing atomically with delivery
        // (Figure 5 line P1).
        if st.armed.remove(item.var) {
            if mx.config().insharing_suspension {
                st.suspended = true;
            }
            if mx.tracing() {
                gwc_apply(mx, ApplyMode::Interrupt);
            }
            mx.cause_point(node, CauseOp::Apply);
            mx.mem(node).write(item.var, item.value);
            mx.deliver(
                node,
                AppEvent::LockChanged {
                    var: item.var,
                    value: item.value,
                },
            );
            return;
        }

        if mx.tracing() {
            gwc_apply(mx, ApplyMode::Applied);
        }
        mx.cause_point(node, CauseOp::Apply);
        mx.mem(node).write(item.var, item.value);
        if item.value == lockval::grant(node) && st.pending_acquire.remove(item.var) {
            mx.deliver(node, AppEvent::Acquired { lock: item.var });
        } else {
            mx.deliver(
                node,
                AppEvent::Updated {
                    var: item.var,
                    value: item.value,
                    origin: item.origin,
                },
            );
        }
    }

    /// Member-side arrival of a sequenced write: buffer under suspension,
    /// reorder on gaps (with a nack to the root), apply in order otherwise.
    fn member_receive(&mut self, node: NodeId, item: SeqItem, mx: &mut Mx<'_, '_>) {
        let slot = Self::slot(mx.groups(), item.group, node);
        let st = &mut self.ifaces[node.index()];
        if st.suspended && mx.config().insharing_suspension {
            st.buffers().held.push_back(item);
            return;
        }
        let expected = self.expected[slot].max(1);
        if item.seq < expected {
            return; // duplicate retransmission
        }
        if item.seq > expected {
            if self.mutation == GwcMutation::SeqGap {
                // PLANTED BUG: apply over the gap instead of buffering.
                self.apply_item(node, slot, item, mx);
                return;
            }
            st.buffers()
                .reorder
                .entry(item.group)
                .or_default()
                .insert(item.seq, item);
            self.stats.nacks += 1;
            let root = mx.groups().group(item.group).root();
            mx.send(Packet {
                from: node,
                to: root,
                bytes: sizes::ACK,
                kind: PacketKind::GwcNack {
                    group: item.group,
                    have: expected - 1,
                },
                cause: CauseId::NONE,
            });
            return;
        }
        self.apply_item(node, slot, item, mx);
        self.apply_chain(node, item.group, slot, mx);
    }

    /// Resume insharing at `node`: re-inject writes buffered during
    /// suspension, stopping early if an armed interrupt re-suspends.
    fn resume(&mut self, node: NodeId, mx: &mut Mx<'_, '_>) {
        self.ifaces[node.index()].suspended = false;
        loop {
            if self.ifaces[node.index()].suspended {
                return; // an armed interrupt re-suspended mid-drain
            }
            let st = &mut self.ifaces[node.index()];
            let Some(item) = st.cold.as_mut().and_then(|c| c.held.pop_front()) else {
                break;
            };
            self.member_receive(node, item, mx);
        }
        // Anything already in the reorder buffer may now be applicable.
        let cold = self.ifaces[node.index()].cold.as_deref();
        let groups: Vec<GroupId> = cold
            .iter()
            .flat_map(|c| c.reorder.keys().copied())
            .collect();
        for g in groups {
            let slot = Self::slot(mx.groups(), g, node);
            self.apply_chain(node, g, slot, mx);
        }
    }
}

impl Model for GwcModel {
    fn name(&self) -> &'static str {
        "gwc"
    }

    fn digest(&self) -> Option<u64> {
        Some(self.state_digest())
    }

    fn on_action(&mut self, node: NodeId, action: ModelAction, mx: &mut Mx<'_, '_>) {
        match action {
            ModelAction::Write { var, value } => {
                mx.mem(node).write(var, value);
                self.forward_to_root(node, var, value, mx);
            }
            ModelAction::WriteLocal { var, value } => {
                mx.mem(node).write(var, value);
            }
            ModelAction::Acquire { lock } => {
                self.ifaces[node.index()].pending_acquire.insert(lock);
                mx.mem(node).write(lock, lockval::request(node));
                self.forward_to_root(node, lock, lockval::request(node), mx);
            }
            ModelAction::Release { lock } => {
                mx.mem(node).write(lock, lockval::FREE);
                self.forward_to_root(node, lock, lockval::FREE, mx);
                // GWC release is non-blocking: the local write completes it.
                mx.deliver(node, AppEvent::Released { lock });
            }
            ModelAction::Fetch { var } => {
                // Eagersharing keeps remote data present locally.
                let value = mx.mem(node).read(var);
                mx.deliver(node, AppEvent::ValueReady { var, value });
            }
            ModelAction::ArmLockInterrupt { var } => {
                self.ifaces[node.index()].armed.insert(var);
            }
            ModelAction::DisarmLockInterrupt { var } => {
                self.ifaces[node.index()].armed.remove(var);
            }
            ModelAction::SuspendInsharing => {
                self.ifaces[node.index()].suspended = true;
            }
            ModelAction::ResumeInsharing => {
                self.resume(node, mx);
            }
        }
    }

    fn on_packet(&mut self, node: NodeId, pkt: Packet, mx: &mut Mx<'_, '_>) {
        match pkt.kind {
            PacketKind::GwcToRoot {
                group,
                var,
                value,
                origin,
            } => self.root_receive(node, group, var, value, origin, mx),
            PacketKind::GwcSeq {
                group,
                var,
                value,
                origin,
                seq,
            } => self.member_receive(
                node,
                SeqItem {
                    group,
                    var,
                    value,
                    origin,
                    seq,
                },
                mx,
            ),
            PacketKind::GwcNack { group, have } => {
                let rg = &self.roots[group.index()];
                let member = pkt.from;
                assert!(
                    have >= rg.history_base,
                    "member {member} nacked seq {} but {group}'s root pruned through                      {}: retransmission window too small for the loss rate",
                    have + 1,
                    rg.history_base
                );
                let resend: Vec<(u64, (VarId, Word, NodeId))> = ((have + 1)..rg.next_seq)
                    .map(|s| (s, rg.sequenced(s).expect("history covers the nacked range")))
                    .collect();
                self.stats.retransmissions += resend.len() as u64;
                for (seq, (var, value, origin)) in resend {
                    mx.send(Packet {
                        from: node,
                        to: member,
                        bytes: sizes::WRITE,
                        kind: PacketKind::GwcSeq {
                            group,
                            var,
                            value,
                            origin,
                            seq,
                        },
                        cause: CauseId::NONE,
                    });
                }
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
            other => panic!("GWC model received foreign packet kind {other:?}"),
        }
    }

    /// Grant watchdog expiry: if the granted holder has shown no activity,
    /// retransmit the grant's sequenced write directly to it and re-arm.
    fn on_timer(&mut self, node: NodeId, tag: u64, mx: &mut Mx<'_, '_>) {
        let (group, seq) = watchdog_untag(tag);
        let Some(w) = self.lock(group).and_then(|l| l.watchdog) else {
            return; // the holder spoke up; nothing to do
        };
        if w.seq != seq {
            return; // a newer grant superseded this watchdog
        }
        // A grant the retransmission window already pruned is as good as
        // superseded: that many later writes were sequenced after it.
        let Some((var, value, origin)) = self.roots[group.index()].sequenced(seq) else {
            return;
        };
        self.stats.grant_retransmissions += 1;
        if mx.tracing() {
            mx.trace(
                node,
                TraceKind::GrantRetransmit,
                TraceDetail::text(format!("{var} seq {seq} -> {}", w.holder)),
            );
        }
        mx.send(Packet {
            from: node,
            to: w.holder,
            bytes: sizes::WRITE,
            kind: PacketKind::GwcSeq {
                group,
                var,
                value,
                origin,
                seq,
            },
            cause: CauseId::NONE,
        });
        if let Some(timeout) = self.grant_timeout {
            mx.set_model_timer(node, timeout, tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_tags_round_trip_above_sixteen_bit_group_ids() {
        // A sharded machine has more groups than nodes: the stock 100k
        // bigmesh has 100 316 of them.
        for (group, seq) in [(0, 1), (70_000, 3), (65_536, 1), (u32::MAX, (1 << 32) - 1)] {
            let tag = watchdog_tag(GroupId::new(group), seq);
            assert_eq!(watchdog_untag(tag), (GroupId::new(group), seq));
        }
        assert_ne!(
            watchdog_tag(GroupId::new(70_000), 3),
            watchdog_tag(GroupId::new(70_000 & 0xffff), 4),
            "a group id must not bleed into the sequence bits"
        );
    }

    #[test]
    #[should_panic(expected = "overflows the watchdog tag")]
    fn watchdog_tag_rejects_a_sequence_number_it_cannot_hold() {
        let _ = watchdog_tag(GroupId::new(1), 1 << 32);
    }

    #[test]
    fn per_group_and_per_node_records_stay_small() {
        // One of each per group / per node of a machine that may have a
        // million of both (docs/performance.md, "Bytes per node").
        assert!(std::mem::size_of::<RootGroup>() <= 56);
        assert!(std::mem::size_of::<IfaceState>() <= 64);
    }

    #[test]
    fn a_single_write_root_holds_a_one_entry_history() {
        let write = |seq: u64| (VarId::new(7), seq as Word * 10, NodeId::new(seq as u32));
        for window in [None, Some(3)] {
            let mut rg = RootGroup {
                next_seq: 1,
                history: VecDeque::new(),
                history_base: 0,
                lock: NO_LOCK,
            };
            assert_eq!(rg.history.capacity(), 0, "a silent root owns no heap");
            rg.record(write(1), window);
            // One 16-byte entry, not the deque's four-slot first block.
            assert_eq!(rg.history.capacity(), 1);
            assert_eq!(std::mem::size_of::<(VarId, Word, NodeId)>(), 16);
            assert_eq!(rg.sequenced(1), Some(write(1)));
            assert_eq!(rg.sequenced(2), None);
            // Across the growth and (with a window) the pruning, every
            // retained write answers a NACK under its own number and every
            // pruned or future one is absent.
            for seq in 2..=9u64 {
                rg.record(write(seq), window);
                let kept = window.map_or(seq, |w| w.min(seq));
                assert_eq!(rg.history.len() as u64, kept);
                assert_eq!(rg.history_base, seq - kept);
                for s in 0..=seq + 1 {
                    let want = (s > seq - kept && s <= seq).then(|| write(s));
                    assert_eq!(rg.sequenced(s), want, "seq {s} of {seq}, window {window:?}");
                }
            }
            assert!(
                rg.history.capacity() >= 3,
                "the second write moved it to the usual growth"
            );
        }
    }

    #[test]
    fn var_set_matches_a_btree_set_inline_and_spilled() {
        let mut rng = sesame_sim::DetRng::new(0x7661_7273);
        for universe in [3u64, 4, 9] {
            let mut set = VarSet::default();
            let mut model = std::collections::BTreeSet::new();
            for _ in 0..400 {
                let var = VarId::new(rng.next_below(universe) as u32);
                if rng.chance(0.55) {
                    set.insert(var);
                    model.insert(var);
                } else {
                    assert_eq!(set.remove(var), model.remove(&var));
                }
                assert!(
                    set.as_slice().iter().eq(model.iter()),
                    "{set:?} vs {model:?}"
                );
            }
            // Three vars fit inline; more must have moved to the heap.
            assert_eq!(set.spilled.is_some(), universe > VarSet::INLINE as u64);
        }
    }
}

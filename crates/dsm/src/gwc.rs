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

use sesame_net::NodeId;
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

/// The hash [`GwcModel::state_digest`] sums over every sequenced write.
fn write_hash(group: GroupId, seq: u64, var: VarId, value: Word, origin: NodeId) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (group.get(), seq, var.get(), value, origin.get()).hash(&mut h);
    h.finish()
}

/// One sequenced write traveling (or buffered) within a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SeqItem {
    group: GroupId,
    var: VarId,
    value: Word,
    origin: NodeId,
    seq: u64,
}

/// [`GwcModel::status`] bit: the node's insharing is suspended, so
/// arrivals queue in its held buffer.
const SUSPENDED: u8 = 1;

/// [`GwcModel::status`] bit: the node's reorder buffer may hold a write.
/// Cleared once a drain finds every group's buffer empty, so a loss-free
/// run never probes the buffer map.
const REORDERED: u8 = 2;

/// [`GwcModel::interest`] bit of a member slot: the member armed the
/// change interrupt on its group's mutex lock.
const ARMED: u8 = 1;

/// [`GwcModel::interest`] bit of a member slot: the member awaits a grant
/// of its group's mutex lock.
const PENDING_ACQUIRE: u8 = 2;

/// Member slots per [`GwcModel::interest`] byte, two bits each.
const SLOTS_PER_BYTE: usize = 4;

/// The buffers of a node whose insharing met a gap or a suspension,
/// created on first use and kept, so a node that fills them again
/// allocates nothing new.
#[derive(Debug, Default)]
struct IfaceBuffers {
    /// Out-of-order arrivals awaiting their turn. `BTreeMap` keeps group
    /// iteration order deterministic when [`GwcModel::resume`] drains it.
    reorder: BTreeMap<GroupId, BTreeMap<u64, SeqItem>>,
    /// Arrivals buffered during suspension, in arrival order.
    held: VecDeque<SeqItem>,
}

impl IfaceBuffers {
    /// Each group's non-empty reorder buffer, in group order.
    fn gaps(&self) -> impl Iterator<Item = (&GroupId, &BTreeMap<u64, SeqItem>)> + Clone {
        self.reorder.iter().filter(|(_, b)| !b.is_empty())
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

/// Root state for one group: its next sequence number and two indices, 16
/// bytes whatever the group has sequenced, so a quiet group costs only
/// this.
#[derive(Debug)]
struct RootGroup {
    next_seq: u64,
    /// Index of the group's [`LockState`] in [`GwcModel::locks`], or
    /// [`NO_LOCK`] for a plain group.
    lock: u32,
    /// Index of the group's [`Flight`] in [`GwcModel::flights`] while it
    /// has a sequenced write not yet retired, or [`NO_FLIGHT`].
    flight: u32,
}

/// [`RootGroup::lock`] of a group without a mutex lock.
const NO_LOCK: u32 = u32::MAX;

/// [`RootGroup::flight`] of a group whose every write is retired.
const NO_FLIGHT: u32 = u32::MAX;

/// What a root keeps about its group's writes while one is in flight —
/// sequenced and not yet retired. The first write a quiet group sequences
/// takes a record from [`GwcModel::idle_flights`]; the retirement of its
/// last write hands the record back, its buffers' capacity kept for the
/// next group.
#[derive(Debug, Default)]
struct Flight {
    /// The sequenced writes a NACK can still name; seq `s` lives at
    /// `history[s - 1 - base]`.
    history: VecDeque<(VarId, Word, NodeId)>,
    /// Retired through: every write numbered up to here was applied by
    /// every member, and no NACK in flight asks for it.
    base: u64,
    /// The applied floor: every member has applied every write numbered
    /// through here. It retires the history and is handed to the trace
    /// observer, if one is attached
    /// ([`TraceObserver::on_seq_floor`](sesame_sim::TraceObserver::on_seq_floor)).
    ///
    /// Members apply a group's writes in sequence order, each once, so the
    /// writes past the floor are a ring of apply counts: the floor
    /// advances while the count at its front reaches the member count.
    /// That is O(1) amortised per apply, with no scan over the members.
    /// The floor reads every member's progress, which no real root sees:
    /// it drives reclamation and observation only, never a protocol
    /// message.
    through: u64,
    /// `counts[i]`: the members that have applied write `through + 1 + i`.
    counts: VecDeque<u32>,
}

impl Flight {
    /// Counts one member's apply of write `seq`, and returns the new floor
    /// if it moved.
    fn applied(&mut self, seq: u64, members: u32) -> Option<u64> {
        // A member applies each write once, after every earlier one, so
        // nothing at or below the floor can arrive here.
        let at = usize::try_from(seq - self.through - 1).expect("a write in flight fits");
        self.counts.resize(self.counts.len().max(at + 1), 0);
        self.counts[at] += 1;
        let before = self.through;
        while self.counts.front() == Some(&members) {
            self.counts.pop_front();
            self.through += 1;
        }
        (self.through > before).then_some(self.through)
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

/// A deliberately planted protocol fault: each mutation breaks one safety
/// mechanism the paper depends on. They are the safety-mechanism
/// ablations, and the `sesame-check` model checker's regression fixtures:
/// it finds `NoHwBlock`, `StaleGrantReuse` and `SeqGap` on the canonical
/// mutex workload. That workload never lets remote data reach an
/// optimistic section that rolls back, so `NoInsharingSuspension` is
/// exercised by direct tests instead, and `sesame check` refuses it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum GwcMutation {
    /// The correct protocol.
    #[default]
    None,
    /// No Figure 6 hardware blocking: a sharing interface applies the
    /// root's echo of its own mutex-group data write, which can overwrite
    /// a newer local value.
    NoHwBlock,
    /// No Figure 4/5 insharing suspension: an armed lock interrupt and an
    /// explicit suspend leave insharing on, so remote data applies under
    /// an optimistic section (the lost-update hazard).
    NoInsharingSuspension,
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
    /// One byte per node: [`SUSPENDED`] and [`REORDERED`].
    status: Vec<u8>,
    /// Two bits per member slot, [`ARMED`] and [`PENDING_ACQUIRE`], slot
    /// `s` at bits `2 * (s % 4)` of byte `s / 4`. Both concern the group's
    /// mutex lock; every variable belongs to one group, so a slot's bits
    /// say all that a per-node list of lock variables would.
    interest: Vec<u8>,
    /// The reorder and held buffers of the nodes that ever needed one.
    buffers: BTreeMap<NodeId, IfaceBuffers>,
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
    /// The NACKs in flight, as `(group, have)`: pushed by the member that
    /// sends one, removed by the root that receives it. Unicasts are never
    /// lost, so the list is exact; it holds a handful of entries.
    nacks_in_flight: Vec<(GroupId, u64)>,
    /// Wrapping sum of [`write_hash`] over every write ever sequenced: the
    /// digest's stand-in for the histories retirement trims.
    sequenced: u64,
    /// The in-flight records, one per group with a write not yet
    /// retired, plus those in `idle_flights`.
    flights: Vec<Flight>,
    /// Indices of the records no group holds, reused last-in first-out.
    idle_flights: Vec<u32>,
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
                flight: NO_FLIGHT,
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
            status: vec![0; nodes],
            interest: vec![0; groups.member_slots().div_ceil(SLOTS_PER_BYTE)],
            buffers: BTreeMap::new(),
            roots,
            locks,
            expected: vec![0; groups.member_slots()],
            stats: GwcStats::default(),
            grant_timeout: None,
            nacks_in_flight: Vec::new(),
            sequenced: 0,
            flights: Vec::new(),
            idle_flights: Vec::new(),
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

    /// The member slot of `node` in the group whose mutex lock is `var`,
    /// panicking where `what` (arming, acquiring) names any other variable:
    /// no grant or lock change would ever reach the node.
    fn lock_slot(groups: &GroupTable, node: NodeId, var: VarId, what: &str) -> usize {
        (groups.group_of(var))
            .filter(|g| g.mutex_lock() == Some(var))
            .and_then(|g| groups.member_slot(g.id(), node))
            .unwrap_or_else(|| {
                panic!("{node} {what} {var}, which is not the mutex lock of a group it belongs to")
            })
    }

    /// Sets `bit` of `slot`'s lock interest.
    fn add_interest(&mut self, slot: usize, bit: u8) {
        self.interest[slot / SLOTS_PER_BYTE] |= bit << (2 * (slot % SLOTS_PER_BYTE));
    }

    /// Clears `bit` of `slot`'s lock interest, returning whether it was set.
    fn take_interest(&mut self, slot: usize, bit: u8) -> bool {
        let mask = bit << (2 * (slot % SLOTS_PER_BYTE));
        let byte = &mut self.interest[slot / SLOTS_PER_BYTE];
        let was = *byte & mask != 0;
        *byte &= !mask;
        was
    }

    /// Suspends or resumes `node`'s insharing.
    fn set_suspended(&mut self, node: NodeId, suspended: bool) {
        let status = &mut self.status[node.index()];
        *status = (*status & !SUSPENDED) | if suspended { SUSPENDED } else { 0 };
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
        self.state_digest_over(self.sequenced)
    }

    /// [`GwcModel::state_digest`] with `sequenced` in place of the sum
    /// over every write ever sequenced, so a test can check that the sum
    /// parts states exactly as the full write histories do.
    #[doc(hidden)]
    pub fn state_digest_over(&self, sequenced: u64) -> u64 {
        use std::hash::{Hash, Hasher};
        // Each run hashed as a `Vec` of its items would be, counted first,
        // so it cannot run into what follows.
        fn hash_run<T: Hash>(run: impl Iterator<Item = T> + Clone, h: &mut impl Hasher) {
            run.clone().count().hash(h);
            run.for_each(|item| item.hash(h));
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        // The touched (slot, next-expected-seq) pairs, in slot order;
        // untouched slots (0) are omitted so the digest matches states
        // where the counter was never advanced. A slot is one
        // `(group, node)` pair of a table fixed for the exploration, so
        // this names the same state as per-node `(group, seq)` lists. The
        // lock interest likewise: each nonzero byte is up to four slots'
        // bits, and a slot's bit is its node's interest in its group's
        // lock, so this names the same state as per-node lists of armed
        // and awaited locks.
        let touched = self
            .expected
            .iter()
            .enumerate()
            .filter(|&(_, &seq)| seq != 0);
        hash_run(touched, &mut h);
        hash_run(
            self.interest.iter().enumerate().filter(|&(_, &b)| b != 0),
            &mut h,
        );
        let suspended = (0..self.status.len()).filter(|&i| self.status[i] & SUSPENDED != 0);
        hash_run(suspended, &mut h);
        // The buffers of each node that holds a write: an emptied buffer
        // hashes like one never made.
        let holding =
            (self.buffers.iter()).filter(|(_, b)| !b.held.is_empty() || b.gaps().next().is_some());
        holding.clone().count().hash(&mut h);
        for (node, b) in holding {
            node.get().hash(&mut h);
            hash_run(b.gaps().map(|(g, buffer)| (g.get(), buffer.len())), &mut h);
            hash_run(b.gaps().flat_map(|(_, buffer)| buffer.values()), &mut h);
            hash_run(b.held.iter(), &mut h);
        }
        // Every write ever sequenced, as one sum: what the histories held
        // before retirement trimmed them. Left out: the retired-through
        // numbers, since retiring changes what a root stores and never
        // what it does, and the NACKs in flight, which are pending packets
        // the explorer hashes itself.
        sequenced.hash(&mut h);
        for (i, rg) in self.roots.iter().enumerate() {
            (i as u32, rg.next_seq).hash(&mut h);
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

    /// `group`'s in-flight record, if it has a write not yet retired.
    fn flight(&self, group: GroupId) -> Option<&Flight> {
        let rg = self.roots.get(group.index())?;
        self.flights.get(rg.flight as usize)
    }

    /// Number of sequenced writes currently retained by `group`'s root:
    /// those a NACK can still name.
    pub fn history_len(&self, group: GroupId) -> usize {
        self.flight(group).map_or(0, |f| f.history.len())
    }

    /// The in-flight records: how many groups hold one, and how many
    /// the pool has ever made.
    pub fn flight_records(&self) -> (usize, usize) {
        let held = self.flights.len() - self.idle_flights.len();
        (held, self.flights.len())
    }

    /// `group`'s applied floor: every member has applied every write
    /// numbered through it.
    pub fn applied_floor(&self, group: GroupId) -> u64 {
        self.flight(group)
            .map_or(self.roots[group.index()].next_seq - 1, |f| f.through)
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
        self.status[node.index()] & SUSPENDED != 0
    }

    /// Numbers `write` as `group`'s next write and appends it to the
    /// history, taking an idle in-flight record if the group holds none.
    fn sequence(&mut self, group: GroupId, write: (VarId, Word, NodeId)) -> u64 {
        let rg = &mut self.roots[group.index()];
        let seq = rg.next_seq;
        rg.next_seq += 1;
        if rg.flight == NO_FLIGHT {
            rg.flight = self.idle_flights.pop().unwrap_or_else(|| {
                self.flights.push(Flight::default());
                u32::try_from(self.flights.len() - 1).expect("group ids are u32")
            });
            let f = &mut self.flights[rg.flight as usize];
            (f.base, f.through) = (seq - 1, seq - 1);
        }
        self.flights[rg.flight as usize].history.push_back(write);
        seq
    }

    /// Retires `group`'s history through the highest sequence number a
    /// NACK can no longer name: the lower of the applied floor and the
    /// lowest `have` among the group's NACKs in flight. A member's NACK
    /// names the writes after its `have`, which was its applied prefix
    /// when it sent it; applied prefixes only grow. So no NACK yet to be
    /// sent can reach back that far, and the root may forget those
    /// writes. Once every write is retired the group hands its record
    /// back.
    fn retire(&mut self, group: GroupId) {
        let rg = &mut self.roots[group.index()];
        let f = &mut self.flights[rg.flight as usize];
        let through = (self.nacks_in_flight.iter())
            .filter(|&&(nacked, _)| nacked == group)
            .fold(f.through, |floor, &(_, have)| floor.min(have));
        let retired = through.checked_sub(f.base).expect("floors never fall");
        f.history.drain(..retired as usize);
        f.base = through;
        if through == rg.next_seq - 1 {
            self.idle_flights.push(rg.flight);
            rg.flight = NO_FLIGHT;
        }
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
        let seq = self.sequence(group, (var, value, origin));
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
        self.sequenced = self
            .sequenced
            .wrapping_add(write_hash(group, seq, var, value, origin));
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
                // The write is consumed at the root without a sequence
                // number (a failed optimistic update).
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
                mx.trace(
                    root,
                    TraceKind::RootGrant,
                    TraceDetail::Grant {
                        group: group.get(),
                        var: var.get(),
                        holder: holder.get(),
                    },
                );
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
                self.lock_mut(group).expect("mutex group").watchdog = None;
                self.sequence_and_multicast(group, var, lockval::FREE, root, mx);
            }
            Outcome::Queued => {
                self.stats.queued_requests += 1;
                mx.trace(
                    root,
                    TraceKind::LockQueued,
                    TraceDetail::VarNode {
                        var: var.get(),
                        node: origin.get(),
                    },
                );
            }
        }
    }

    fn apply_chain(&mut self, node: NodeId, group: GroupId, slot: usize, mx: &mut Mx<'_, '_>) {
        loop {
            // Nothing buffered out of order at this node (the steady state
            // of loss-free runs), or insharing suspended: no probe.
            if self.status[node.index()] & (SUSPENDED | REORDERED) != REORDERED {
                return;
            }
            let expected = self.expected[slot].max(1);
            let buffers = self
                .buffers
                .get_mut(&node)
                .expect("a reordered node has buffers");
            let next = buffers.reorder.get_mut(&group).and_then(|b| {
                // A write whose retransmitted copy was held during a
                // suspension and applied on resume is already behind.
                while b.first_key_value().is_some_and(|(&seq, _)| seq < expected) {
                    b.pop_first();
                }
                b.remove(&expected)
            });
            match next {
                Some(item) => self.apply_item(node, slot, item, mx),
                None => {
                    if buffers.gaps().next().is_none() {
                        self.status[node.index()] &= !REORDERED;
                    }
                    return;
                }
            }
        }
    }

    /// Applies one in-order sequenced write at `node`, advancing the
    /// expected counter, then counts it towards the group's applied floor
    /// — after its `gwc-apply` record, so an observer told the floor has
    /// already seen every apply through it.
    fn apply_item(&mut self, node: NodeId, slot: usize, item: SeqItem, mx: &mut Mx<'_, '_>) {
        self.apply_payload(node, slot, item, mx);
        if let Some(floor) = self.count_apply(item.group, item.seq, mx.groups()) {
            mx.seq_floor(item.group, floor);
        }
    }

    /// Counts one member's apply of `group`'s write `seq`. If that moved
    /// the group's applied floor, retires the history behind it and
    /// returns the new floor.
    fn count_apply(&mut self, group: GroupId, seq: u64, groups: &GroupTable) -> Option<u64> {
        let members = groups.group(group).members().len() as u32;
        let flight = self.roots[group.index()].flight as usize;
        let floor = self.flights[flight].applied(seq, members);
        floor.inspect(|_| self.retire(group))
    }

    /// [`GwcModel::apply_item`]'s protocol half: the payload's effect and
    /// its record.
    fn apply_payload(&mut self, node: NodeId, slot: usize, item: SeqItem, mx: &mut Mx<'_, '_>) {
        self.expected[slot] = item.seq + 1;
        let g = mx.groups().group(item.group);
        let is_lock_var = g.mutex_lock() == Some(item.var);
        // Canonical in-order receipt event for the checkers; `mode` says
        // what happened to the payload: applied, hardware-blocked (Figure 6
        // own-echo drop), or applied via armed lock interrupt.
        let gwc_apply = |mx: &mut Mx<'_, '_>, mode: ApplyMode| {
            if mx.tracing() {
                let detail = TraceDetail::Apply {
                    group: item.group.get(),
                    seq: item.seq,
                    var: item.var.get(),
                    val: item.value,
                    origin: item.origin.get(),
                    mode,
                };
                mx.trace(node, TraceKind::GwcApply, detail);
            }
        };

        // Figure 6 hardware blocking: drop echoed own mutex-group data.
        let blocks = self.mutation != GwcMutation::NoHwBlock;
        if blocks && g.is_mutex_group() && item.origin == node && !is_lock_var {
            self.stats.hw_block_drops += 1;
            gwc_apply(mx, ApplyMode::HwBlocked);
            mx.cause_point(node, CauseOp::Apply);
            return;
        }

        // Armed lock interrupt: suspend insharing atomically with delivery
        // (Figure 5 line P1).
        if is_lock_var && self.take_interest(slot, ARMED) {
            self.set_suspended(node, self.mutation != GwcMutation::NoInsharingSuspension);
            gwc_apply(mx, ApplyMode::Interrupt);
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

        gwc_apply(mx, ApplyMode::Applied);
        mx.cause_point(node, CauseOp::Apply);
        mx.mem(node).write(item.var, item.value);
        if is_lock_var
            && item.value == lockval::grant(node)
            && self.take_interest(slot, PENDING_ACQUIRE)
        {
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
        if self.status[node.index()] & SUSPENDED != 0 {
            self.buffers.entry(node).or_default().held.push_back(item);
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
            (self
                .buffers
                .entry(node)
                .or_default()
                .reorder
                .entry(item.group))
            .or_default()
            .insert(item.seq, item);
            self.status[node.index()] |= REORDERED;
            self.stats.nacks += 1;
            self.nacks_in_flight.push((item.group, expected - 1));
            let root = mx.groups().group(item.group).root();
            mx.send(Packet {
                from: node,
                to: root,
                bytes: sizes::ACK,
                kind: PacketKind::GwcNack {
                    group: item.group,
                    have: expected - 1,
                },
            });
            return;
        }
        self.apply_item(node, slot, item, mx);
        self.apply_chain(node, item.group, slot, mx);
    }

    /// Resume insharing at `node`: re-inject writes buffered during
    /// suspension, stopping early if an armed interrupt re-suspends.
    fn resume(&mut self, node: NodeId, mx: &mut Mx<'_, '_>) {
        self.set_suspended(node, false);
        loop {
            if self.status[node.index()] & SUSPENDED != 0 {
                return; // an armed interrupt re-suspended mid-drain
            }
            let held = self.buffers.get_mut(&node).map(|b| &mut b.held);
            let Some(item) = held.and_then(VecDeque::pop_front) else {
                break;
            };
            self.member_receive(node, item, mx);
        }
        // Anything already in the reorder buffer may now be applicable.
        if self.status[node.index()] & REORDERED == 0 {
            return;
        }
        let groups: Vec<GroupId> = self.buffers[&node].gaps().map(|(&g, _)| g).collect();
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
                let slot = Self::lock_slot(mx.groups(), node, lock, "acquired");
                self.add_interest(slot, PENDING_ACQUIRE);
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
                let slot = Self::lock_slot(mx.groups(), node, var, "armed");
                self.add_interest(slot, ARMED);
            }
            ModelAction::SuspendInsharing => {
                self.set_suspended(node, self.mutation != GwcMutation::NoInsharingSuspension);
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
                let member = pkt.from;
                let at = (self.nacks_in_flight.iter())
                    .position(|&nack| nack == (group, have))
                    .expect("a NACK arrives once, after it was sent");
                self.nacks_in_flight.swap_remove(at);
                // A NACK's `have` is below the last write sequenced, so
                // while it was in flight the group kept its record.
                let f = &self.flights[self.roots[group.index()].flight as usize];
                assert!(
                    have >= f.base,
                    "retirement is exact: member {member} of {group} nacked from seq {} \
                     but the root retired through {}",
                    have + 1,
                    f.base
                );
                let resend = f.history.range((have - f.base) as usize..);
                self.stats.retransmissions += resend.len() as u64;
                for (seq, &(var, value, origin)) in (have + 1..).zip(resend) {
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
                    });
                }
                // With the NACK served, the writes only it held may go.
                self.retire(group);
            }
            other => panic!("GWC model received foreign packet kind {other:?}"),
        }
    }

    /// Grant watchdog expiry: if the granted holder has shown no activity,
    /// retransmit the grant's sequenced write directly to it and re-arm.
    fn on_timer(&mut self, node: NodeId, tag: u64, mx: &mut Mx<'_, '_>) {
        let (group, seq) = watchdog_untag(tag);
        let Some(lock) = self.lock(group) else {
            return;
        };
        let Some(w) = lock.watchdog else {
            return; // the holder spoke up; nothing to do
        };
        if w.seq != seq {
            return; // a newer grant superseded this watchdog
        }
        // The grant exactly as `root_lock_write` sequenced it, rebuilt from
        // the lock: the history may have retired it already.
        let root = mx.groups().group(group).root();
        let (var, value, origin) = (lock.var, lockval::grant(w.holder), root);
        self.stats.grant_retransmissions += 1;
        mx.trace(
            node,
            TraceKind::GrantRetransmit,
            TraceDetail::Grant {
                group: group.get(),
                var: var.get(),
                holder: w.holder.get(),
            },
        );
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
        // million of both (docs/performance.md, "Bytes per node"): a
        // 16-byte root record per group, a status byte per node, two bits
        // per member slot, and no buffers until a node needs them.
        assert!(std::mem::size_of::<RootGroup>() <= 16);
        let (groups, m) = two_groups();
        assert_eq!(m.status.len(), 7);
        assert_eq!((groups.member_slots(), m.interest.len()), (7, 2));
        assert!(m.buffers.is_empty());
    }

    /// How many writes `node` holds out of order, and how many under
    /// suspension.
    fn buffered(m: &GwcModel, node: NodeId) -> (usize, usize) {
        m.buffers.get(&node).map_or((0, 0), |b| {
            (b.gaps().map(|(_, buffer)| buffer.len()).sum(), b.held.len())
        })
    }

    /// `slot`'s two lock-interest bits.
    fn interest_bits(m: &GwcModel, slot: usize) -> u8 {
        (m.interest[slot / SLOTS_PER_BYTE] >> (2 * (slot % SLOTS_PER_BYTE)))
            & (ARMED | PENDING_ACQUIRE)
    }

    #[test]
    fn an_emptied_buffer_digests_like_one_never_made() {
        let item = SeqItem {
            group: GroupId::new(0),
            var: VarId::new(0),
            value: 5,
            origin: NodeId::new(0),
            seq: 2,
        };
        // Node 1 holds `item`; in `emptied` it also met a gap in each group
        // and a suspension before, all drained.
        let (_, mut never) = two_groups();
        let (_, mut emptied) = two_groups();
        assert_eq!(never.state_digest(), emptied.state_digest());
        let buffers = emptied.buffers.entry(NodeId::new(1)).or_default();
        buffers.reorder.entry(GroupId::new(0)).or_default();
        buffers.reorder.entry(GroupId::new(1)).or_default();
        buffers.held.reserve(4);
        assert_eq!(never.state_digest(), emptied.state_digest());
        for m in [&mut never, &mut emptied] {
            m.buffers
                .entry(NodeId::new(1))
                .or_default()
                .held
                .push_back(item);
        }
        let held = never.state_digest();
        assert_eq!(emptied.state_digest(), held);
        // The same write out of order instead of held is another state.
        let buffers = emptied.buffers.get_mut(&NodeId::new(1)).unwrap();
        buffers.held.clear();
        buffers
            .reorder
            .get_mut(&GroupId::new(0))
            .unwrap()
            .insert(2, item);
        assert_ne!(emptied.state_digest(), held);
    }

    #[test]
    fn lock_interest_bits_match_a_btree_set() {
        // Both bits of every slot, against a set of (slot, bit): the four
        // slots that share a byte must not disturb one another.
        let (groups, mut m) = two_groups();
        let slots = groups.member_slots();
        let mut rng = sesame_sim::DetRng::new(0x7661_7273);
        let mut model = std::collections::BTreeSet::new();
        let mut most = 0;
        for _ in 0..4_000 {
            let slot = rng.next_below(slots as u64) as usize;
            let bit = [ARMED, PENDING_ACQUIRE][rng.next_below(2) as usize];
            if rng.chance(0.55) {
                m.add_interest(slot, bit);
                model.insert((slot, bit));
            } else {
                assert_eq!(m.take_interest(slot, bit), model.remove(&(slot, bit)));
            }
            for slot in 0..slots {
                let want =
                    (model.range((slot, 0)..(slot + 1, 0))).fold(0, |bits, &(_, b)| bits | b);
                assert_eq!(interest_bits(&m, slot), want, "slot {slot}");
            }
            most = most.max(model.len());
        }
        assert!(
            most > 2 * slots - 3,
            "nearly every bit was set at once: {most}"
        );
    }

    #[test]
    fn the_applied_floor_advances_once_every_member_applied_in_order() {
        // Three members apply writes 1..=4 in interleaved order; the floor
        // is the lowest member's prefix after every apply.
        let mut floor = Flight::default();
        let mut prefix = [0u64; 3];
        let order = [0, 1, 0, 0, 2, 1, 2, 0, 2, 1, 1, 2];
        let mut published = Vec::new();
        for member in order {
            prefix[member] += 1;
            let moved = floor.applied(prefix[member], 3);
            let lowest = *prefix.iter().min().unwrap();
            assert_eq!(floor.through, lowest);
            assert_eq!(
                moved.is_some(),
                published.last() != Some(&lowest) && lowest > 0
            );
            published.extend(moved);
            assert!(floor.counts.len() as u64 <= prefix.iter().max().unwrap() - lowest);
        }
        assert_eq!(published, [1, 2, 3, 4]);
        assert!(floor.counts.is_empty());
    }

    fn write(seq: u64) -> (VarId, Word, NodeId) {
        (VarId::new(7), seq as Word * 10, NodeId::new(seq as u32))
    }

    /// Two plain groups, of three and of four members, over seven nodes:
    /// a NACK from one group's member slots must not hold the other's
    /// history.
    fn two_groups() -> (GroupTable, GwcModel) {
        let group = |root: u32, members: std::ops::Range<u32>, var: u32| crate::GroupSpec {
            root: NodeId::new(root),
            members: members.map(NodeId::new).collect(),
            vars: vec![VarId::new(var)],
            mutex_lock: None,
        };
        let groups = GroupTable::new(vec![group(0, 0..3, 0), group(3, 3..7, 1)]).expect("valid");
        let model = GwcModel::new(&groups, 7);
        (groups, model)
    }

    /// `group`'s retired-through number: its record's base, or its last
    /// write while it holds none.
    fn retired_through(m: &GwcModel, group: GroupId) -> u64 {
        let last = m.roots[group.index()].next_seq - 1;
        m.flight(group).map_or(last, |f| f.base)
    }

    #[test]
    fn a_single_write_root_holds_nothing_once_every_member_applied() {
        let (groups, mut m) = two_groups();
        let g = GroupId::new(0);
        assert!(m.flights.is_empty(), "a silent machine owns no record");
        for seq in 1..=3u64 {
            assert_eq!(m.sequence(g, write(seq)), seq);
            assert_eq!(m.history_len(g), 1);
            // The floor moves, and the history retires, on the last
            // member's apply.
            for member in 0..3 {
                let moved = m.count_apply(g, seq, &groups);
                assert_eq!(moved, (member == 2).then_some(seq));
            }
            assert_eq!(m.roots[g.index()].flight, NO_FLIGHT);
            assert_eq!((m.history_len(g), m.applied_floor(g)), (0, seq));
            // The one record is back in the pool, its block kept.
            assert_eq!((m.flights.len(), m.idle_flights.as_slice()), (1, &[0][..]));
            assert!(m.flights[0].history.capacity() > 0);
        }
        // The other group's first write takes the same record.
        m.sequence(GroupId::new(1), write(1));
        assert_eq!((m.roots[1].flight, m.flights.len()), (0, 1));
    }

    #[test]
    fn retirement_tracks_the_floor_and_the_nacks_in_flight_exactly() {
        let (groups, mut m) = two_groups();
        let mut rng = sesame_sim::DetRng::new(0x666c_6f6f);
        // Each member slot's applied prefix.
        let mut prefix = vec![0u64; groups.member_slots()];
        let (mut quiet, mut held_back, mut served) = (0, 0, 0);
        for step in 0..40_000 {
            let group = GroupId::new(rng.next_below(2) as u32);
            let base = groups.slot_base(group);
            let slots = base..base + groups.group(group).members().len();
            let slot = rng.next_range(slots.start as u64, slots.end as u64 - 1) as usize;
            let last = m.roots[group.index()].next_seq - 1;
            let nacked: Vec<usize> = (0..m.nacks_in_flight.len())
                .filter(|&at| m.nacks_in_flight[at].0 == group)
                .collect();
            match rng.next_below(20) {
                // The root sequences a write.
                0 => assert_eq!(m.sequence(group, write(last + 1)), last + 1),
                // A member behind the root NACKs what follows its prefix.
                1 | 2 if prefix[slot] < last => m.nacks_in_flight.push((group, prefix[slot])),
                // The root receives one of the group's NACKs.
                3..=5 if !nacked.is_empty() => {
                    let at = nacked[rng.next_below(nacked.len() as u64) as usize];
                    let (_, have) = m.nacks_in_flight.swap_remove(at);
                    let f = m.flight(group).expect("a NACKed group holds its record");
                    assert!(have >= f.base, "step {step}: retirement is exact");
                    m.retire(group);
                    served += 1;
                }
                // A member applies its next write.
                _ if prefix[slot] < last => {
                    prefix[slot] += 1;
                    m.count_apply(group, prefix[slot], &groups);
                }
                _ => {}
            }
            for g in 0..2 {
                let group = GroupId::new(g);
                let base = groups.slot_base(group);
                let slots = base..base + groups.group(group).members().len();
                let floor = *prefix[slots.clone()].iter().min().unwrap();
                let asked = (m.nacks_in_flight.iter())
                    .filter(|&&(nacked, _)| nacked == group)
                    .map(|&(_, have)| have)
                    .min();
                let want = asked.map_or(floor, |have| have.min(floor));
                assert_eq!(m.applied_floor(group), floor, "step {step}, group {g}");
                assert_eq!(retired_through(&m, group), want, "step {step}, group {g}");
                let next = m.roots[g as usize].next_seq;
                match m.flight(group) {
                    None => quiet += 1,
                    Some(f) => {
                        assert!(
                            want < next - 1,
                            "step {step}: group {g} retired all it wrote"
                        );
                        let held = (want + 1..next).map(write);
                        assert!(f.history.iter().copied().eq(held), "step {step}, group {g}");
                    }
                }
                held_back += usize::from(asked.is_some_and(|have| have < floor));
            }
            assert!(m.flights.len() <= 2, "one record per group at most");
        }
        assert!(quiet > 1_000, "groups went quiet {quiet} times");
        assert!(
            held_back > 1_000,
            "NACKs held retirement back {held_back} times"
        );
        assert!(served > 500, "{served} NACKs served");
    }

    /// [`GwcModel::state_digest`] as it was while each interface kept its
    /// own sorted lists of armed and awaited lock variables beside its
    /// buffers, and every root kept every write it ever sequenced (rebuilt
    /// from the `RootSeq` records of the run so far).
    fn per_node_list_digest(
        m: &GwcModel,
        groups: &GroupTable,
        histories: &BTreeMap<u32, Vec<(u32, Word, u32)>>,
    ) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let touched = || m.expected.iter().enumerate().filter(|&(_, &seq)| seq != 0);
        touched().count().hash(&mut h);
        for (slot, seq) in touched() {
            (slot, seq).hash(&mut h);
        }
        // Each node's armed and pending-acquire lists, from its slots.
        let mut lists = vec![[Vec::new(), Vec::new()]; m.status.len()];
        for g in groups.iter() {
            let Some(lock) = g.mutex_lock() else { continue };
            for (rank, node) in g.members().iter().enumerate() {
                let bits = interest_bits(m, groups.slot_base(g.id()) + rank);
                for (list, bit) in lists[node.index()].iter_mut().zip([ARMED, PENDING_ACQUIRE]) {
                    if bits & bit != 0 {
                        list.push(lock.get());
                    }
                }
            }
        }
        for (i, [armed, pending]) in lists.iter_mut().enumerate() {
            i.hash(&mut h);
            let buffers = m.buffers.get(&NodeId::new(i as u32));
            for (g, buffer) in buffers.iter().flat_map(|b| &b.reorder) {
                if !buffer.is_empty() {
                    g.get().hash(&mut h);
                    buffer.values().for_each(|item| item.hash(&mut h));
                }
            }
            (m.status[i] & SUSPENDED != 0).hash(&mut h);
            for item in buffers.iter().flat_map(|b| &b.held) {
                item.hash(&mut h);
            }
            armed.sort_unstable();
            armed.hash(&mut h);
            pending.sort_unstable();
            pending.hash(&mut h);
        }
        for (i, rg) in m.roots.iter().enumerate() {
            // Nothing was pruned while every write was kept.
            (i as u32, rg.next_seq, 0u64).hash(&mut h);
            for write in histories.get(&(i as u32)).into_iter().flatten() {
                write.hash(&mut h);
            }
            let lock = m.locks.get(rg.lock as usize);
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

    /// What [`digests_part_alike`] saw: the states, the distinct ones,
    /// and whether an armed interrupt, a pending acquire, a reordered write
    /// and a held write were each ever present.
    struct Parted {
        states: usize,
        distinct: usize,
        filled: [bool; 4],
    }

    /// Runs `program(node, seed)` on every node over `groups` (each mutex
    /// lock initially free) for each seed, under a random schedule in which
    /// any sequenced write may overtake another — what the reorder buffer
    /// is for — while every other link and each node's own events stay in
    /// order. At every state the digest and [`per_node_list_digest`] must
    /// part states alike: each digest maps to one digest of the other, in
    /// both directions.
    fn digests_part_alike(
        groups: &GroupTable,
        nodes: u32,
        program: impl Fn(u32, u64) -> Box<dyn crate::Program>,
        seeds: std::ops::Range<u64>,
    ) -> Parted {
        use crate::{DsmEvent, Machine, MachineConfig};
        use sesame_net::{FullMesh, LinkTiming};
        use sesame_sim::{DetRng, PendingEvent, SimTime, Simulation, TraceDetail};
        use std::collections::HashMap;

        let (mut to_ref, mut to_new) = (HashMap::new(), HashMap::new());
        let (mut states, mut filled) = (0, [false; 4]);
        for seed in seeds {
            let mut machine = Machine::new(
                Box::new(FullMesh::new(nodes as usize)),
                LinkTiming::unit(),
                groups.clone(),
                (0..nodes).map(|i| program(i, seed)).collect::<Vec<_>>(),
                GwcModel::new(groups, nodes as usize),
                MachineConfig::default(),
            );
            for lock in groups.iter().filter_map(|g| g.mutex_lock()) {
                machine.init_var(lock, lockval::FREE);
            }
            let mut sim = Simulation::new(machine);
            sim.set_tracing(true);
            for i in 0..nodes {
                sim.schedule(SimTime::ZERO, (NodeId::new(i), DsmEvent::Start { more: 0 }));
            }
            let mut rng = DetRng::new(seed);
            let (mut histories, mut read) = (BTreeMap::new(), 0);
            loop {
                let entries = sim.trace().entries();
                for e in &entries[read..] {
                    if let TraceDetail::Seq {
                        group,
                        seq,
                        var,
                        val,
                        origin,
                    } = e.detail
                    {
                        let history: &mut Vec<_> = histories.entry(group).or_default();
                        assert_eq!(seq, history.len() as u64 + 1, "records in order");
                        history.push((var, val, origin));
                    }
                }
                read = entries.len();
                let m = sim.actor().model();
                let (new, reference) = (
                    m.state_digest(),
                    per_node_list_digest(m, groups, &histories),
                );
                assert_eq!(
                    *to_ref.entry(new).or_insert(reference),
                    reference,
                    "seed {seed}"
                );
                assert_eq!(*to_new.entry(reference).or_insert(new), new, "seed {seed}");
                states += 1;
                for slot in 0..groups.member_slots() {
                    filled[0] |= interest_bits(m, slot) & ARMED != 0;
                    filled[1] |= interest_bits(m, slot) & PENDING_ACQUIRE != 0;
                }
                for node in 0..nodes {
                    let (reordered, held) = buffered(m, NodeId::new(node));
                    filled[2] |= reordered > 0;
                    filled[3] |= held > 0;
                }
                let pending = sim.pending();
                let key = |p: &PendingEvent<'_, (NodeId, DsmEvent)>| match p.msg {
                    (_, DsmEvent::Packet(pkt, _)) => (pkt.from, pkt.to),
                    (node, _) => (*node, *node),
                };
                let choices: Vec<u64> = (pending.iter().enumerate())
                    .filter(|&(i, p)| {
                        matches!(p.msg.1, DsmEvent::Packet(pkt, _)
                            if matches!(pkt.kind, PacketKind::GwcSeq { .. }))
                            || pending[..i].iter().all(|o| key(o) != key(p))
                    })
                    .map(|(_, p)| p.seq)
                    .collect();
                drop(pending);
                if choices.is_empty() {
                    break;
                }
                let pick = choices[rng.next_below(choices.len() as u64) as usize];
                assert!(sim.step_seq(pick));
            }
        }
        Parted {
            states,
            distinct: to_new.len(),
            filled,
        }
    }

    #[test]
    fn the_digest_parts_reordered_runs_as_the_full_histories_did() {
        use crate::{GroupSpec, NodeApi, Program};
        use sesame_sim::SimDur;

        // Three contenders and a root, as in the checker's canonical
        // workload; each arms the lock interrupt on its way out, which
        // suspends its insharing for a moment when the next grant lands,
        // so every list and buffer the digest covers fills.
        let (lock, data) = (VarId::new(0), VarId::new(1));
        let nodes = 4u32;
        let program = |i: u32, _seed: u64| -> Box<dyn Program> {
            Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
                AppEvent::Started if i > 0 => api.acquire(lock),
                AppEvent::Acquired { .. } => {
                    api.write(data, Word::from(i));
                    api.write(data, Word::from(10 + i));
                    api.arm_lock_interrupt(lock);
                    api.release(lock);
                }
                AppEvent::LockChanged { .. } => api.set_timer(SimDur::from_nanos(1), 0),
                AppEvent::TimerFired { .. } => api.resume_insharing(),
                _ => {}
            })
        };
        let groups = GroupTable::new(vec![GroupSpec {
            root: NodeId::new(0),
            members: (0..nodes).map(NodeId::new).collect(),
            vars: vec![lock, data],
            mutex_lock: Some(lock),
        }])
        .expect("one group");
        let parted = digests_part_alike(&groups, nodes, program, 0..16);
        assert!(parted.states > 1_000, "{} states", parted.states);
        assert!(
            parted.distinct < parted.states,
            "some states repeat, so the partition is tested, not just distinctness: \
             {} distinct of {}",
            parted.distinct,
            parted.states
        );
        assert_eq!(
            parted.filled, [true; 4],
            "armed, pending-acquire, reorder and held lists all filled"
        );
    }

    #[test]
    fn the_digest_parts_random_action_runs_as_per_node_lists_did() {
        use crate::{GroupSpec, NodeApi, Program};
        use sesame_sim::{DetRng, SimDur};

        // Two mutex groups that share three members, and a plain group,
        // over five nodes. Every node arms, acquires, writes, releases,
        // suspends and resumes at random, so a node holds interest in two
        // locks at once, and any of it can meet a reordered or held write.
        let var = VarId::new;
        let spec = |root: u32, members: &[u32], vars: Vec<VarId>, mutex_lock| GroupSpec {
            root: NodeId::new(root),
            members: members.iter().copied().map(NodeId::new).collect(),
            vars,
            mutex_lock,
        };
        let groups = GroupTable::new(vec![
            spec(0, &[0, 1, 2, 3], vec![var(0), var(1)], Some(var(0))),
            spec(4, &[1, 2, 3, 4], vec![var(2), var(3)], Some(var(2))),
            spec(2, &[0, 2, 4], vec![var(4)], None),
        ])
        .expect("three groups");
        let program = |i: u32, seed: u64| -> Box<dyn Program> {
            // The (lock, data) pairs of the node's mutex groups, each with
            // what the node has asked of it: armed, pending, held.
            let mine: Vec<(VarId, VarId)> = [(var(0), var(1), 0..4), (var(2), var(3), 1..5)]
                .into_iter()
                .filter(|(_, _, members)| members.contains(&i))
                .map(|(lock, data, _)| (lock, data))
                .collect();
            let mut asked = vec![[false; 3]; mine.len()];
            let mut rng = DetRng::new(seed << 8 | u64::from(i));
            let mut steps = 12;
            Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| {
                let at = |var| mine.iter().position(|&(lock, _)| lock == var).unwrap();
                match ev {
                    AppEvent::Acquired { lock } => asked[at(lock)] = [false, false, true],
                    AppEvent::LockChanged { var, .. } => asked[at(var)][0] = false,
                    AppEvent::Started | AppEvent::TimerFired { .. } => {}
                    _ => return,
                }
                if steps == 0 {
                    for (k, &(lock, _)) in mine.iter().enumerate() {
                        if std::mem::take(&mut asked[k][2]) {
                            api.release(lock);
                        }
                    }
                    api.resume_insharing();
                    return;
                }
                steps -= 1;
                let k = rng.next_below(mine.len() as u64) as usize;
                let ((lock, data), [armed, pending, held]) = (mine[k], &mut asked[k]);
                let idle = !*armed && !*pending && !*held;
                match rng.next_below(7) {
                    0 if idle => {
                        api.acquire(lock);
                        *pending = true;
                    }
                    1 if idle => {
                        api.arm_lock_interrupt(lock);
                        *armed = true;
                    }
                    2 => api.suspend_insharing(),
                    3 => api.resume_insharing(),
                    4 => api.write(data, rng.next_below(3) as Word),
                    5 if *held => {
                        api.release(lock);
                        *held = false;
                    }
                    _ if [0, 2, 4].contains(&i) => api.write(var(4), rng.next_below(3) as Word),
                    _ => {}
                }
                api.set_timer(SimDur::from_nanos(1 + rng.next_below(300)), 0);
            })
        };
        let parted = digests_part_alike(&groups, 5, program, 0..24);
        assert!(parted.states > 2_000, "{} states", parted.states);
        assert!(
            parted.distinct < parted.states,
            "{} distinct of {}",
            parted.distinct,
            parted.states
        );
        assert_eq!(
            parted.filled, [true; 4],
            "armed, pending-acquire, reorder and held lists all filled"
        );
    }

    #[test]
    fn retirement_is_exact_under_heavy_loss_and_stale_nacks() {
        use crate::{DsmEvent, GroupSpec, Machine, MachineConfig, NodeApi, Program};
        use sesame_net::{FullMesh, LinkTiming};
        use sesame_sim::{DetRng, SimDur, SimTime, Simulation, TraceDetail, TraceKind};

        // Small groups at 30-50 % loss: gaps, NACKs, retransmissions and
        // watchdog grants all the time, and histories only a few writes
        // long, so they fill and retire while NACKs are still in flight.
        // A holder spreads its writes over a section longer than a NACK's
        // round trip, so a member behind a lost write sees more writes
        // arrive after its first NACK's retransmission: the NACKs those
        // send are stale.
        let (lock, data, count) = (VarId::new(0), VarId::new(1), VarId::new(2));
        let (mut stale, mut grant_retransmissions, mut held_back) = (0u64, 0u64, 0u64);
        for seed in 0..16u64 {
            let mut rng = DetRng::new(seed);
            let nodes = 2 + rng.next_below(3) as u32;
            let loss = 0.3 + 0.2 * rng.next_f64();
            let rounds = 4;
            let program = |i: u32| -> Box<dyn Program> {
                let mut left = rounds;
                Box::new(move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
                    AppEvent::Started if i > 0 => api.acquire(lock),
                    AppEvent::Acquired { .. } => {
                        let c = api.read(count);
                        api.write(count, c + 1);
                        api.set_timer(SimDur::from_nanos(100), 0);
                    }
                    AppEvent::TimerFired { tag } if tag < 32 => {
                        api.write(data, (tag as Word) << 8 | Word::from(i));
                        api.set_timer(SimDur::from_nanos(100), tag + 1);
                    }
                    AppEvent::TimerFired { .. } => api.release(lock),
                    AppEvent::Released { .. } => {
                        left -= 1;
                        if left > 0 {
                            api.acquire(lock);
                        }
                    }
                    _ => {}
                })
            };
            let groups = GroupTable::new(vec![GroupSpec {
                root: NodeId::new(0),
                members: (0..nodes).map(NodeId::new).collect(),
                vars: vec![lock, data, count],
                mutex_lock: Some(lock),
            }])
            .expect("one group");
            let mut model = GwcModel::new(&groups, nodes as usize);
            model.set_grant_watchdog(Some(SimDur::from_us(50)));
            let mut machine = Machine::new(
                Box::new(FullMesh::new(nodes as usize)),
                LinkTiming::paper_1994(),
                groups,
                (0..nodes).map(program).collect::<Vec<_>>(),
                model,
                MachineConfig::default(),
            );
            machine.init_var(lock, lockval::FREE);
            machine.fabric_mut().set_loss(loss, seed);
            let mut sim = Simulation::new(machine);
            sim.set_tracing(true);
            for i in 0..nodes {
                sim.schedule(SimTime::ZERO, (NodeId::new(i), DsmEvent::Start { more: 0 }));
            }
            loop {
                // A NACK about to arrive for a gap its member has already
                // filled: the root must still hold what it names.
                if let Some(p) = sim.pending().first() {
                    if let (_, DsmEvent::Packet(pkt, _)) = p.msg {
                        if let PacketKind::GwcNack { group, have } = pkt.kind {
                            let m = sim.actor().model();
                            let slot = sim.actor().groups().member_slot(group, pkt.from);
                            stale += u64::from(m.expected[slot.unwrap()].max(1) - 1 > have);
                        }
                    }
                }
                let base = retired_through(sim.actor().model(), GroupId::new(0));
                if !sim.step() {
                    break;
                }
                // A retirement the NACKs in flight held back: without
                // them it would have gone past what one of them names.
                let m = sim.actor().model();
                let through = retired_through(m, GroupId::new(0));
                if through > base {
                    let applied = m.expected[..nodes as usize].iter().map(|&e| e.max(1) - 1);
                    let asked = m.nacks_in_flight.iter().map(|&(_, have)| have).min();
                    held_back += u64::from(
                        asked.is_some_and(|a| a == through && applied.min().is_some_and(|p| p > a)),
                    );
                }
            }
            let (machine, trace) = sim.into_parts();
            let want = Word::from((nodes - 1) * rounds);
            assert_eq!(machine.mem(NodeId::new(0)).read(count), want, "seed {seed}");
            grant_retransmissions += machine.model().stats().grant_retransmissions;
            // Every copy a member applied, retransmitted or not, is the
            // write the root sequenced under that number.
            let mut sequenced = BTreeMap::new();
            for e in trace.entries() {
                match (e.kind, &e.detail) {
                    (
                        TraceKind::RootSeq,
                        &TraceDetail::Seq {
                            seq,
                            var,
                            val,
                            origin,
                            ..
                        },
                    ) => {
                        sequenced.insert(seq, (var, val, origin));
                    }
                    (
                        TraceKind::GwcApply,
                        &TraceDetail::Apply {
                            seq,
                            var,
                            val,
                            origin,
                            ..
                        },
                    ) => assert_eq!(
                        sequenced.get(&seq),
                        Some(&(var, val, origin)),
                        "seed {seed}: node {} applied seq {seq} unlike the root sequenced it",
                        e.actor
                    ),
                    _ => {}
                }
            }
        }
        assert!(stale > 0, "the sweep reached no stale NACK");
        assert!(
            held_back > 0,
            "no retirement was held back by a NACK in flight, so dropping that term \
             would go unnoticed"
        );
        assert!(grant_retransmissions > 0, "nor a watchdog grant");
    }

    /// The optimistic contenders' lock, counter and data, and the
    /// streamed variable, of the lossy optimistic run below.
    const LOCK: VarId = VarId::new(0);
    const COUNT: VarId = VarId::new(1);
    const DATA: VarId = VarId::new(2);
    const STREAM: VarId = VarId::new(3);

    /// An optimistic contender at the interface level (Figures 4–5): it
    /// arms the lock interrupt, requests the lock and writes its data at
    /// once, then learns from the interrupt, which suspends its insharing,
    /// whether it won. It keeps insharing suspended for `RESTORE` — the
    /// time a rollback's restores take — so what arrives meanwhile is held.
    struct Optimist {
        rounds: u32,
        /// The lock value the last interrupt delivered.
        changed: Word,
        /// Waiting for its own grant after losing a race.
        waiting: bool,
    }

    const RESTORE: sesame_sim::SimDur = sesame_sim::SimDur::from_nanos(3_000);
    const TAG_RESUME: u64 = 1;
    const TAG_ENTER: u64 = 2;

    impl Optimist {
        fn enter(&mut self, api: &mut crate::NodeApi<'_>) {
            api.arm_lock_interrupt(LOCK);
            api.lock_exchange(LOCK);
            api.write(DATA, Word::from(api.id().get())); // filtered unless granted
        }

        fn section(&mut self, api: &mut crate::NodeApi<'_>) {
            self.waiting = false;
            let count = api.read(COUNT);
            api.write(COUNT, count + 1);
            api.release(LOCK);
            self.rounds -= 1;
            if self.rounds > 0 {
                api.set_timer(sesame_sim::SimDur::from_us(2), TAG_ENTER);
            }
        }
    }

    impl crate::Program for Optimist {
        fn on_event(&mut self, ev: AppEvent, api: &mut crate::NodeApi<'_>) {
            let mine = lockval::grant(api.id());
            match ev {
                AppEvent::Started | AppEvent::TimerFired { tag: TAG_ENTER } => self.enter(api),
                AppEvent::LockChanged { value, .. } => {
                    self.changed = value;
                    api.set_timer(RESTORE, TAG_RESUME);
                }
                AppEvent::TimerFired { tag: TAG_RESUME } => {
                    api.resume_insharing();
                    if self.changed == mine {
                        self.section(api);
                    } else if lockval::is_free(self.changed) {
                        api.arm_lock_interrupt(LOCK); // a flicker: watch again
                    } else {
                        self.waiting = true; // rolled back: wait for the grant
                    }
                }
                AppEvent::Updated { var, value, .. }
                    if self.waiting && var == LOCK && value == mine =>
                {
                    self.section(api);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn a_lossy_optimistic_run_holds_reordered_and_held_writes_at_one_node_in_order() {
        use crate::{DsmEvent, GroupSpec, Machine, MachineConfig, NodeApi, Program};
        use sesame_net::{FullMesh, LinkTiming};
        use sesame_sim::{SimDur, SimTime, Simulation, TraceDetail};

        // Nodes 1-3 contend optimistically for LOCK while node 4 streams
        // writes to STREAM in a second group, on a fabric that loses 10 %
        // of its multicast deliveries. A lost write leaves a gap the
        // reorder buffer holds later writes behind; an interrupt suspends
        // insharing, and what arrives meanwhile is held. A node with both
        // at once must still apply every write of each group in order.
        let (rounds, stream) = (6u32, 400u64);
        let mut both = 0;
        for seed in 0..4 {
            let mut programs: Vec<Box<dyn Program>> = vec![Box::new(crate::IdleProgram)];
            for _ in 1..4 {
                programs.push(Box::new(Optimist {
                    rounds,
                    changed: 0,
                    waiting: false,
                }));
            }
            programs.push(Box::new(
                move |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
                    AppEvent::Started => api.set_timer(SimDur::from_nanos(500), 1),
                    AppEvent::TimerFired { tag } if tag <= stream => {
                        api.write(STREAM, tag as Word);
                        api.set_timer(SimDur::from_nanos(500), tag + 1);
                    }
                    _ => {}
                },
            ));
            let all: Vec<NodeId> = (0..5).map(NodeId::new).collect();
            let spec = |vars, mutex_lock| GroupSpec {
                root: NodeId::new(0),
                members: all.clone(),
                vars,
                mutex_lock,
            };
            let groups = GroupTable::new(vec![
                spec(vec![LOCK, COUNT, DATA], Some(LOCK)),
                spec(vec![STREAM], None),
            ])
            .expect("two groups");
            let mut model = GwcModel::new(&groups, 5);
            model.set_grant_watchdog(Some(SimDur::from_us(50)));
            let mut machine = Machine::new(
                Box::new(FullMesh::new(5)),
                LinkTiming::paper_1994(),
                groups,
                programs,
                model,
                MachineConfig::default(),
            );
            machine.init_var(LOCK, lockval::FREE);
            machine.fabric_mut().set_loss(0.1, seed);
            let mut sim = Simulation::new(machine);
            sim.set_tracing(true);
            for i in 0..5 {
                sim.schedule(SimTime::ZERO, (NodeId::new(i), DsmEvent::Start { more: 0 }));
            }
            while sim.step() {
                let m = sim.actor().model();
                both += (0..5)
                    .map(|i| buffered(m, NodeId::new(i)))
                    .filter(|&(reordered, held)| reordered > 0 && held > 0)
                    .count();
            }
            let (machine, trace) = sim.into_parts();
            // Each (node, group) applied 1, 2, 3, … with no gap or repeat.
            let mut next = std::collections::HashMap::new();
            for e in trace.entries() {
                if let TraceDetail::Apply { group, seq, .. } = e.detail {
                    let want = next.entry((e.actor, group)).or_insert(1);
                    assert_eq!(seq, *want, "seed {seed}: node{} in g{group}", e.actor);
                    *want += 1;
                }
            }
            // (A member that lost a group's last write keeps the one
            // before: no later write reveals the gap. The root sees every
            // write.)
            let root = machine.mem(NodeId::new(0));
            assert_eq!(root.read(COUNT), Word::from(3 * rounds), "seed {seed}");
            assert_eq!(root.read(STREAM), stream as Word, "seed {seed}");
            for i in 0..5 {
                assert_eq!(
                    buffered(machine.model(), NodeId::new(i)),
                    (0, 0),
                    "seed {seed}"
                );
            }
            assert!(machine.model().stats().nacks > 0, "seed {seed}: no gap");
        }
        assert!(both > 0, "no node held reordered and held writes at once");
    }
}

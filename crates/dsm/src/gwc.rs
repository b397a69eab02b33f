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
/// the flag and the two tiny lock lists inline, what only loss,
/// suspension or a list of more than [`INLINE`] locks populates behind
/// one pointer.
#[derive(Debug, Default)]
struct IfaceState {
    /// Whether insharing is suspended (arrivals buffer in `held`).
    suspended: bool,
    /// Each [`LockList`]'s length while it is inline, or [`SPILLED`].
    lens: [u8; 2],
    /// Each [`LockList`]'s vars, ascending, while it is inline.
    inline: [[VarId; INLINE]; 2],
    /// Reorder and suspension buffers and spilled lists, created on first
    /// use.
    cold: Option<Box<IfaceBuffers>>,
}

/// An interface's two small sorted sets of lock variables. They hold at
/// most a handful of vars (a node arms and awaits the locks of the
/// sections it is in), so up to [`INLINE`] live in the interface itself —
/// no heap block per node — and a larger list moves to
/// [`IfaceBuffers::spilled`] for good.
#[derive(Debug, Clone, Copy)]
enum LockList {
    /// Lock variables with an armed change interrupt.
    Armed,
    /// Locks with an outstanding high-level acquire.
    PendingAcquire,
}

/// Vars a [`LockList`] holds inline.
const INLINE: usize = 3;

/// [`IfaceState::lens`] of a list that lives in [`IfaceBuffers::spilled`].
const SPILLED: u8 = u8::MAX;

/// The rarely populated part of [`IfaceState`].
#[derive(Debug, Default)]
struct IfaceBuffers {
    /// Out-of-order arrivals awaiting their turn (populated only on
    /// loss-induced gaps). `BTreeMap` keeps group iteration order
    /// deterministic when [`GwcModel::resume`] drains it.
    reorder: BTreeMap<GroupId, BTreeMap<u64, SeqItem>>,
    /// Arrivals buffered during suspension, in arrival order.
    held: VecDeque<SeqItem>,
    /// Each [`LockList`] that outgrew its inline room, ascending.
    spilled: [Vec<VarId>; 2],
}

impl IfaceState {
    fn buffers(&mut self) -> &mut IfaceBuffers {
        self.cold.get_or_insert_with(Box::default)
    }

    /// Whether any out-of-order arrival is buffered.
    fn has_reordered(&self) -> bool {
        self.cold.as_ref().is_some_and(|c| !c.reorder.is_empty())
    }

    /// The vars of `list`, ascending.
    fn locks(&self, list: LockList) -> &[VarId] {
        let i = list as usize;
        match self.lens[i] {
            SPILLED => {
                &self
                    .cold
                    .as_ref()
                    .expect("a spilled list is buffered")
                    .spilled[i]
            }
            len => &self.inline[i][..len as usize],
        }
    }

    fn insert_lock(&mut self, list: LockList, var: VarId) {
        let Err(at) = self.locks(list).binary_search(&var) else {
            return;
        };
        let i = list as usize;
        match self.lens[i] {
            SPILLED => self.buffers().spilled[i].insert(at, var),
            len if (len as usize) < INLINE => {
                let inline = &mut self.inline[i];
                inline.copy_within(at..len as usize, at + 1);
                inline[at] = var;
                self.lens[i] += 1;
            }
            _ => {
                let mut vars = self.inline[i].to_vec();
                vars.insert(at, var);
                self.buffers().spilled[i] = vars;
                self.lens[i] = SPILLED;
            }
        }
    }

    fn remove_lock(&mut self, list: LockList, var: VarId) -> bool {
        let Ok(at) = self.locks(list).binary_search(&var) else {
            return false;
        };
        let i = list as usize;
        match self.lens[i] {
            SPILLED => {
                self.buffers().spilled[i].remove(at);
            }
            len => {
                self.inline[i].copy_within(at + 1..len as usize, at);
                self.lens[i] -= 1;
            }
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
            ifaces: (0..nodes).map(|_| IfaceState::default()).collect(),
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
            // Each list hashed as the `Vec<u32>` it stands for, without
            // building one: the length, then the ids.
            for list in [
                st.locks(LockList::Armed),
                st.locks(LockList::PendingAcquire),
            ] {
                list.len().hash(&mut h);
                for v in list {
                    v.get().hash(&mut h);
                }
            }
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
        self.ifaces[node.index()].suspended
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
        if !self.ifaces[node.index()].has_reordered() {
            // Nothing was ever buffered out of order at this node (the
            // steady state of loss-free runs) — skip the per-group probe.
            return;
        }
        loop {
            if self.ifaces[node.index()].suspended {
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
        let st = &mut self.ifaces[node.index()];
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
        if st.remove_lock(LockList::Armed, item.var) {
            st.suspended = self.mutation != GwcMutation::NoInsharingSuspension;
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
        if item.value == lockval::grant(node) && st.remove_lock(LockList::PendingAcquire, item.var)
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
        let st = &mut self.ifaces[node.index()];
        if st.suspended {
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
                self.ifaces[node.index()].insert_lock(LockList::PendingAcquire, lock);
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
                self.ifaces[node.index()].insert_lock(LockList::Armed, var);
            }
            ModelAction::SuspendInsharing => {
                let suspends = self.mutation != GwcMutation::NoInsharingSuspension;
                self.ifaces[node.index()].suspended = suspends;
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
        // million of both (docs/performance.md, "Bytes per node").
        assert!(std::mem::size_of::<RootGroup>() <= 16);
        assert!(std::mem::size_of::<IfaceState>() <= 40);
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

    #[test]
    fn var_set_matches_a_btree_set_inline_and_spilled() {
        let mut rng = sesame_sim::DetRng::new(0x7661_7273);
        for universe in [3u64, 4, 9] {
            // Both lists of one interface, each against its own model.
            let mut st = IfaceState::default();
            let mut models = [std::collections::BTreeSet::new(), Default::default()];
            for _ in 0..800 {
                let list = [LockList::Armed, LockList::PendingAcquire][rng.next_below(2) as usize];
                let model = &mut models[list as usize];
                let var = VarId::new(rng.next_below(universe) as u32);
                if rng.chance(0.55) {
                    st.insert_lock(list, var);
                    model.insert(var);
                } else {
                    assert_eq!(st.remove_lock(list, var), model.remove(&var));
                }
                assert!(
                    st.locks(list).iter().eq(model.iter()),
                    "{st:?} vs {model:?}"
                );
            }
            // Three vars fit inline; more must have moved to the buffers.
            let spills = universe > INLINE as u64;
            assert_eq!(st.lens.map(|len| len == SPILLED), [spills; 2]);
            assert_eq!(st.cold.is_some(), spills);
        }
    }

    /// [`GwcModel::state_digest`] as it was while every root kept every
    /// write it ever sequenced (and the armed and pending-acquire lists
    /// were collected into a `Vec` to hash), with those histories rebuilt
    /// from the `RootSeq` records of the run so far.
    fn full_history_digest(m: &GwcModel, histories: &BTreeMap<u32, Vec<(u32, Word, u32)>>) -> u64 {
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
        let touched = || m.expected.iter().enumerate().filter(|&(_, &seq)| seq != 0);
        touched().count().hash(&mut h);
        for (slot, seq) in touched() {
            (slot, seq).hash(&mut h);
        }
        for (i, st) in m.ifaces.iter().enumerate() {
            i.hash(&mut h);
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
            let armed: Vec<u32> = st.locks(LockList::Armed).iter().map(|v| v.get()).collect();
            armed.hash(&mut h);
            let pending: Vec<u32> = (st.locks(LockList::PendingAcquire).iter())
                .map(|v| v.get())
                .collect();
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

    #[test]
    fn the_digest_parts_reordered_runs_as_the_full_histories_did() {
        use crate::{DsmEvent, GroupSpec, Machine, MachineConfig, NodeApi, Program};
        use sesame_net::{FullMesh, LinkTiming};
        use sesame_sim::{DetRng, SimDur, SimTime, Simulation, TraceDetail};
        use std::collections::HashMap;

        // Three contenders and a root, as in the checker's canonical
        // workload; each arms the lock interrupt on its way out, which
        // suspends its insharing for a moment when the next grant lands,
        // so every list and buffer the digest covers fills.
        let (lock, data) = (VarId::new(0), VarId::new(1));
        let root = NodeId::new(0);
        let nodes = 4u32;
        let program = |i: u32| -> Box<dyn Program> {
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
        // Each digest, new and reference, to the other it came with: a
        // partition test in both directions.
        let (mut to_ref, mut to_new) = (HashMap::new(), HashMap::new());
        let (mut states, mut filled) = (0, [false; 4]);
        for seed in 0..16 {
            let groups = GroupTable::new(vec![GroupSpec {
                root,
                members: (0..nodes).map(NodeId::new).collect(),
                vars: vec![lock, data],
                mutex_lock: Some(lock),
            }])
            .expect("one group");
            let model = GwcModel::new(&groups, nodes as usize);
            let mut machine = Machine::new(
                Box::new(FullMesh::new(nodes as usize)),
                LinkTiming::unit(),
                groups,
                (0..nodes).map(program).collect(),
                model,
                MachineConfig::default(),
            );
            machine.init_var(lock, lockval::FREE);
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
                let (new, reference) = (m.state_digest(), full_history_digest(m, &histories));
                assert_eq!(
                    *to_ref.entry(new).or_insert(reference),
                    reference,
                    "seed {seed}"
                );
                assert_eq!(*to_new.entry(reference).or_insert(new), new, "seed {seed}");
                states += 1;
                for st in &m.ifaces {
                    filled[0] |= !st.locks(LockList::Armed).is_empty();
                    filled[1] |= !st.locks(LockList::PendingAcquire).is_empty();
                    filled[2] |= st.has_reordered();
                    filled[3] |= st.cold.as_ref().is_some_and(|c| !c.held.is_empty());
                }
                // The root's fan-out may arrive in any order (what the
                // reorder buffer is for); every other link, and each
                // node's own events, stay in order.
                let pending = sim.pending();
                let key = |p: &sesame_sim::PendingEvent<'_, (NodeId, DsmEvent)>| match p.msg {
                    (_, DsmEvent::Packet(pkt, _)) => (pkt.from, pkt.to),
                    (node, _) => (*node, *node),
                };
                let choices: Vec<u64> = (pending.iter().enumerate())
                    .filter(|&(i, p)| {
                        matches!(p.msg.1, DsmEvent::Packet(pkt, _) if pkt.from == root)
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
        assert!(states > 1_000, "{states} states");
        assert!(
            to_new.len() < states,
            "some states repeat, so the partition is tested, not just distinctness: \
             {} distinct of {states}",
            to_new.len()
        );
        assert_eq!(
            filled, [true; 4],
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
                (0..nodes).map(program).collect(),
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
}

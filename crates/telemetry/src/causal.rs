//! The causal DAG: cross-node cause→effect chains rebuilt from the
//! trace stream.
//!
//! The simulation side emits one `"cause"` record per protocol action
//! (see `sesame_dsm::CauseCtx`), carrying the action's [`CauseId`] raw
//! value, its parent id, and a typed [`CauseOp`]. By convention each
//! `"cause"` record follows the canonical record it annotates on the same
//! actor at the same simulated time, so the builder here pairs the two and
//! labels every DAG node with the canonical event kind. Rollback nodes
//! additionally absorb the `"opt-conflict"` record that names the shared
//! variable and the remote writer whose sequenced write invalidated the
//! optimistic section — the blame report.
//!
//! The DAG is a forest: ids count up deterministically from 1, parents
//! always precede children in the stream, and `cause = 0` marks a root
//! (a spontaneous program start, or an action whose provenance was not
//! tracked). Exports (JSON and Graphviz DOT) iterate in id order, so two
//! same-seed runs produce byte-identical bytes.
//!
//! Storage is sized for runs with millions of actions: one 16-byte packed
//! record per id in a slab (see [`CausalDag`]), handed out by value as
//! [`CausalNode`] views, and 4 bytes more per id a shrink has kept. A
//! record whose time or distance to its cause needs more bits than that
//! (none in a run this repo can hold in memory) keeps them in a side map,
//! as rollback blame does. The collector holds what can still be cited: the
//! machine announces a *cause floor* — no later record names a parent
//! below it ([`TraceObserver::on_cause_floor`]) — and behind the floor the
//! store keeps what its questions read, the ancestors of the rollbacks,
//! of the latest action and of whatever is at or above the floor (and,
//! until the run's last pass, of what was there at an earlier pass). A
//! finished run is that with the floor at infinity: exactly the
//! ancestors of its rollbacks and of its critical path. What this does not
//! bound is a run whose every in-flight action drags a chain back to time
//! zero (the sharded mesh): there the kept set is the run.
//!
//! [`TraceObserver::on_cause_floor`]: sesame_sim::TraceObserver::on_cause_floor
//! [`CauseId`]: sesame_net::CauseId

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

use sesame_sim::{CauseOp, SimTime, TraceDetail, TraceEntry, TraceKind};

/// One action in the causal forest — the by-value view of a stored node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalNode {
    /// This action's causal id (raw; never 0).
    pub id: u64,
    /// The parent action's id, or 0 for a root.
    pub cause: u64,
    /// What kind of protocol action this was.
    pub op: CauseOp,
    /// The node (trace actor) that performed the action.
    pub actor: usize,
    /// When the action happened.
    pub time: SimTime,
    /// The kind of the record this cause annotates (the one emitted
    /// immediately before it), or `None` when no record paired; the
    /// exports write `""` then.
    pub kind: Option<TraceKind>,
    /// For rollback nodes: the conflicting shared variable and the remote
    /// writer whose sequenced write forced the rollback.
    pub conflict: Option<(u32, u32)>,
}

/// One stored node: everything a [`CausalNode`] carries except the id
/// (its slab position) and the rare blame (a side map).
#[derive(Debug, Clone, Copy)]
struct Packed {
    /// The time in nanoseconds above the low [`TAG_BITS`] (or [`WIDE`]);
    /// below it, the paired [`TraceKind`] byte (or one of the two marks
    /// below) over the [`CauseOp`] in [`OP_BITS`].
    word: u64,
    /// `id − cause`, or 0 for a root: a shrink moves a record without
    /// rewriting it.
    gap: u32,
    actor: u32,
}

const _: () = assert!(std::mem::size_of::<Packed>() <= 16);

/// The low bits of `Packed::word` that hold the op.
const OP_BITS: u32 = 4;
/// The low bits of `Packed::word` that hold the op and the kind.
const TAG_BITS: u32 = 10;
/// The time field of a record that does not fit: a time of `WIDE`
/// nanoseconds or more (about 208 simulated days), or a gap of 2^32 or
/// more. Its time and cause are in [`CausalDag`]'s `wide` map.
const WIDE: u64 = u64::MAX >> TAG_BITS;

/// The kind field of a slab entry no record has filled.
const VACANT: u8 = (1 << (TAG_BITS - OP_BITS)) - 1;
/// The kind field of a node no record paired with.
const UNPAIRED: u8 = VACANT - 1;

const _: () = assert!(TraceKind::ALL.len() <= UNPAIRED as usize);
const _: () = assert!(CauseOp::ALL.len() <= 1 << OP_BITS);

impl Packed {
    const EMPTY: Packed = Packed::new(0, VACANT, CauseOp::Write, 0, 0);

    const fn new(time: u64, kind: u8, op: CauseOp, gap: u32, actor: u32) -> Packed {
        let tag = (kind as u64) << OP_BITS | op as u64;
        Packed {
            word: time << TAG_BITS | tag,
            gap,
            actor,
        }
    }

    fn op(self) -> CauseOp {
        CauseOp::ALL[(self.word & ((1 << OP_BITS) - 1)) as usize]
    }

    fn kind(self) -> u8 {
        (self.word >> OP_BITS) as u8 & VACANT
    }

    fn vacant(self) -> bool {
        self.kind() == VACANT
    }

    /// The time field: the time, or [`WIDE`].
    fn time(self) -> u64 {
        self.word >> TAG_BITS
    }
}

/// The smallest slab worth collecting behind the floor; past it, a
/// collection runs each time the slab has doubled since the last one, so
/// the passes cost a constant per record and the slab stays within twice
/// what a pass keeps.
const COLLECT_FROM: usize = 64 << 10;

/// The most vacant entries one record may open past the end of the dense
/// tail (1 MiB of slab). A producer records its ids as it allocates them,
/// so the tail grows one entry at a time; an id further ahead is refused
/// and counted ([`CausalDag::refused`]) rather than sizing the slab.
const MAX_JUMP: usize = 1 << 16;

/// Export size hint: above what real runs write per node, so the buffer
/// is allocated once (untouched capacity costs address space, not memory).
const JSON_BYTES_PER_NODE: usize = 128;

/// The ascending ids of the compacted front in 4 bytes each: their low
/// halves, and the positions where the high half rises. Ids ascend, so it
/// only rises; a run of fewer than 2^32 actions has no rise.
#[derive(Debug, Clone, Default)]
struct FrontIds {
    low: Vec<u32>,
    /// `(position, high half)`: the high half from that position on. It
    /// is 0 before the first rise.
    rises: Vec<(usize, u32)>,
}

/// The high half at position `at` under `rises`.
fn high_at(rises: &[(usize, u32)], at: usize) -> u32 {
    let i = rises.partition_point(|&(from, _)| from <= at);
    i.checked_sub(1).map_or(0, |i| rises[i].1)
}

impl FrontIds {
    fn len(&self) -> usize {
        self.low.len()
    }

    fn get(&self, at: usize) -> u64 {
        u64::from(high_at(&self.rises, at)) << 32 | u64::from(self.low[at])
    }

    /// The position of `id`, or where it would go to keep the ids
    /// ascending.
    fn search(&self, id: u64) -> Result<usize, usize> {
        let high = (id >> 32) as u32;
        let starts = |i: usize| self.rises.get(i).map_or(self.len(), |&(at, _)| at);
        let i = self.rises.partition_point(|&(_, h)| h < high);
        let found = self.rises.get(i).is_some_and(|&(_, h)| h == high);
        let start = match (found, high) {
            (true, _) => starts(i),
            (false, 0) => 0,
            (false, _) => return Err(starts(i)),
        };
        let end = starts(i + usize::from(found));
        let low = self.low[start..end].binary_search(&(id as u32));
        low.map(|k| start + k).map_err(|k| start + k)
    }

    /// Notes that the high half is `high` from position `at` on, the
    /// last position so far.
    fn rise_to(&mut self, at: usize, high: u32) {
        if high != self.rises.last().map_or(0, |&(_, h)| h) {
            self.rises.push((at, high));
        }
    }

    /// Appends `id`, which is above every id held.
    fn push(&mut self, id: u64) {
        self.rise_to(self.len(), (id >> 32) as u32);
        self.low.push(id as u32);
    }

    /// Inserts `id` at `at`, where [`FrontIds::search`] says it goes: the
    /// ids above it are pushed again (none in a real run).
    fn insert(&mut self, at: usize, id: u64) {
        let above: Vec<u64> = (at..self.len()).map(|k| self.get(k)).collect();
        self.retain_from(at, |_| false);
        for id in std::iter::once(id).chain(above) {
            self.push(id);
        }
    }

    /// Keeps the ids from position `from` on that `keep` names, in order,
    /// closed up in place.
    fn retain_from(&mut self, from: usize, mut keep: impl FnMut(usize) -> bool) {
        let rises = std::mem::take(&mut self.rises);
        self.rises
            .extend(rises.iter().take_while(|&&(at, _)| at < from));
        let mut to = from;
        for at in (from..self.len()).filter(|&at| keep(at)) {
            self.rise_to(to, high_at(&rises, at));
            self.low[to] = self.low[at];
            to += 1;
        }
        self.low.truncate(to);
    }

    fn shrink_to_fit(&mut self) {
        self.low.shrink_to_fit();
        self.rises.shrink_to_fit();
    }
}

/// The assembled causal forest.
///
/// One slab in two regions, ascending by id throughout. The *dense tail*
/// holds id `behind + 1 + k` at offset `k`: the simulation hands out ids
/// 1, 2, 3, … and records each as it allocates it, so the tail fills in
/// order with no holes. Ids that arrive out of order, twice, or with gaps
/// (a hand-assembled trace) still work — gaps are vacant entries — at 16
/// bytes per id up to the largest one seen, so a record more than 2^16
/// entries ahead of the tail is refused. The *compacted front* holds the
/// survivors of a shrink back to back, `ids` naming them in 4 bytes each.
///
/// The collector shrinks behind each cause floor it is told and once more
/// in [`Telemetry::finish`](crate::Telemetry::finish), which leaves the
/// nodes its answers read and an empty tail. [`CausalDag::from_trace`] is
/// told no floor and never shrinks: its slab is all tail.
#[derive(Debug, Clone, Default)]
pub struct CausalDag {
    slab: Vec<Packed>,
    /// The id of each entry of the compacted front, ascending; the front
    /// is `slab[..ids.len()]`.
    ids: FrontIds,
    /// Ids below the dense tail: every id in `ids` is at most this.
    behind: u64,
    /// Slab entries the last shrink left (the next one waits for twice
    /// as many).
    kept: usize,
    /// Occupied slab entries.
    len: usize,
    /// Entries ever occupied: `len` plus what shrinking dropped.
    recorded: usize,
    /// Records refused for an id too far past the dense tail.
    refused: usize,
    /// Rollback blame by node id: `(var, writer)`.
    conflicts: BTreeMap<u64, (u32, u32)>,
    /// `(time, cause)` by node id of the records whose time field is
    /// [`WIDE`].
    wide: BTreeMap<u64, (u64, u64)>,
}

/// The longest cause→effect chain in the DAG, with its simulated time
/// split into edge categories.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Node ids from the chain's root to its final action.
    pub ids: Vec<u64>,
    /// Time of the first action on the chain.
    pub start: SimTime,
    /// Time of the last action on the chain.
    pub end: SimTime,
    /// Time under message transmission (parent was a send or multicast).
    pub flight_ns: u64,
    /// Time under an optimistic/compute section (parent was a compute).
    pub hold_ns: u64,
    /// Time waiting on root-side ordering (child is a sequencing decision).
    pub sequencing_ns: u64,
    /// Everything else: queueing and scheduling waits — including the lead
    /// from run start (t = 0) to the chain's first action.
    pub wait_ns: u64,
}

impl CriticalPath {
    /// Total simulated time from run start (t = 0) to the chain's last
    /// action. The per-category splits telescope:
    /// `flight + hold + sequencing + wait == total` — and when the chain
    /// ends at the run's final event, `total` equals the run's final
    /// simulated time.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.end.as_nanos()
    }
}

/// How one parent→child edge on the critical path spends its time.
fn edge_category(parent: CauseOp, child: CauseOp) -> &'static str {
    match parent {
        CauseOp::Send | CauseOp::Mcast => "flight",
        CauseOp::Compute => "hold",
        _ => match child {
            CauseOp::Seq | CauseOp::Grant | CauseOp::Filter => "sequencing",
            _ => "wait",
        },
    }
}

impl CausalDag {
    /// Rebuilds the DAG offline from a recorded trace (e.g. a
    /// model-checking counterexample replay), every node kept. The
    /// streaming observer in [`Telemetry`](crate::Telemetry) feeds each
    /// record through the same pairing rules.
    #[must_use]
    pub fn from_trace(entries: &[TraceEntry]) -> CausalDag {
        let mut state = CausalState::default();
        for e in entries {
            state.feed(e);
        }
        state.dag
    }

    /// Number of actions in the forest.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of actions recorded: [`CausalDag::len`] plus the nodes a
    /// finished collector dropped as read by none of its answers.
    #[must_use]
    pub fn recorded(&self) -> usize {
        self.recorded
    }

    /// Number of records refused because their id lay more than 2^16
    /// entries past the end of the dense tail.
    #[must_use]
    pub fn refused(&self) -> usize {
        self.refused
    }

    /// Whether no causal records were observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slab position holding `id`, if a node with that id is stored:
    /// arithmetic in the dense tail, a search in the compacted front.
    fn position(&self, id: u64) -> Option<usize> {
        let at = match id.checked_sub(self.behind + 1) {
            Some(k) => self.ids.len().checked_add(usize::try_from(k).ok()?)?,
            None => self.ids.search(id).ok()?,
        };
        (!self.slab.get(at)?.vacant()).then_some(at)
    }

    /// The stored record for `id`, if one is stored.
    fn packed(&self, id: u64) -> Option<Packed> {
        self.position(id).map(|at| self.slab[at])
    }

    /// The id of the slab entry at `at`.
    fn id_at(&self, at: usize) -> u64 {
        match at.checked_sub(self.ids.len()) {
            Some(k) => self.behind + 1 + k as u64,
            None => self.ids.get(at),
        }
    }

    /// `(time, cause)` of the record `p` stored for `id`.
    fn time_cause(&self, id: u64, p: Packed) -> (u64, u64) {
        match (p.time(), p.gap) {
            (WIDE, _) => self.wide[&id],
            (time, 0) => (time, 0),
            (time, gap) => (time, id - u64::from(gap)),
        }
    }

    /// The cause of the record stored at slab position `at`.
    fn cause_at(&self, at: usize) -> u64 {
        self.time_cause(self.id_at(at), self.slab[at]).1
    }

    /// Every stored `(position, record)` from slab position `from` on —
    /// in position order, which is id order.
    fn stored(&self, from: usize) -> impl Iterator<Item = (usize, Packed)> + '_ {
        let entries = self.slab.iter().copied().enumerate().skip(from);
        entries.filter(|(_, p)| !p.vacant())
    }

    /// Every stored `(id, record)` in id order.
    fn occupied(&self) -> impl Iterator<Item = (u64, Packed)> + '_ {
        self.stored(0).map(|(at, p)| (self.id_at(at), p))
    }

    fn view(&self, id: u64, p: Packed) -> CausalNode {
        let (time, cause) = self.time_cause(id, p);
        CausalNode {
            id,
            cause,
            op: p.op(),
            actor: p.actor as usize,
            time: SimTime::from_nanos(time),
            kind: TraceKind::ALL.get(usize::from(p.kind())).copied(),
            conflict: self.conflicts.get(&id).copied(),
        }
    }

    /// Stores one node, replacing any earlier node with the same id. The
    /// forest invariant "parents precede children" is enforced here: a
    /// `cause` that is not a smaller id is stored as a root, so walking
    /// parent links always terminates. `id == 0` (the "no cause" value)
    /// names no node and is ignored; an id more than [`MAX_JUMP`] entries
    /// past the tail is refused. Returns the parent id as stored, or
    /// `None` for an ignored or refused record.
    fn insert(
        &mut self,
        id: u64,
        cause: u64,
        op: CauseOp,
        actor: usize,
        time: SimTime,
        kind: Option<TraceKind>,
    ) -> Option<u64> {
        if id == 0 {
            return None;
        }
        let (time, cause) = (time.as_nanos(), if cause < id { cause } else { 0 });
        let gap = u32::try_from(if cause == 0 { 0 } else { id - cause });
        // What does not fit keeps its time and cause in the side map.
        let fits = gap.is_ok() && time < WIDE;
        let packed = Packed::new(
            if fits { time } else { WIDE },
            kind.map_or(UNPAIRED, |k| k as u8),
            op,
            gap.unwrap_or(0),
            u32::try_from(actor).expect("trace actors are u32 node ids"),
        );
        let at = match id.checked_sub(self.behind + 1) {
            Some(k) => {
                let at = usize::try_from(k)
                    .ok()
                    .and_then(|k| k.checked_add(self.ids.len()));
                let Some(at) = at.filter(|&at| at.saturating_sub(self.slab.len()) < MAX_JUMP)
                else {
                    self.refused += 1;
                    return None;
                };
                if at >= self.slab.len() {
                    self.slab.resize(at + 1, Packed::EMPTY);
                }
                at
            }
            // A record behind the tail (none in a real run) keeps `ids`
            // sorted.
            None => self.ids.search(id).unwrap_or_else(|at| {
                self.ids.insert(at, id);
                self.slab.insert(at, Packed::EMPTY);
                at
            }),
        };
        let was = std::mem::replace(&mut self.slab[at], packed);
        if was.vacant() {
            self.len += 1;
            self.recorded += 1;
        } else {
            // A repeated id starts over: the earlier node's blame goes
            // with it.
            self.conflicts.remove(&id);
        }
        if !fits {
            self.wide.insert(id, (time, cause));
        } else if was.time() == WIDE {
            self.wide.remove(&id);
        }
        Some(cause)
    }

    /// Looks up one action by raw id.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<CausalNode> {
        self.packed(id).map(|p| self.view(id, p))
    }

    /// All nodes in id (allocation) order.
    pub fn iter(&self) -> impl Iterator<Item = CausalNode> + '_ {
        self.occupied().map(|(id, p)| self.view(id, p))
    }

    /// Ids of every rollback action, in allocation order.
    #[must_use]
    pub fn rollbacks(&self) -> Vec<u64> {
        self.occupied()
            .filter(|(_, p)| matches!(p.op(), CauseOp::Rollback))
            .map(|(id, _)| id)
            .collect()
    }

    /// The latest action by `(time, id)`: where the critical path ends.
    fn latest(&self) -> Option<u64> {
        let by_time = self
            .occupied()
            .map(|(id, p)| (self.time_cause(id, p).0, id));
        by_time.max().map(|(_, id)| id)
    }

    /// Shrinks the forest to the *explained set*: every rollback, the
    /// latest action, every id in `asked`, every node at or above `floor`,
    /// and all their ancestors. The producer's floor says no later record
    /// cites below it, so what goes is out of every later record's reach;
    /// `u64::MAX` — the run is over — leaves what the answers read.
    ///
    /// The set is closed under `cause`, so `rollbacks`, the `chain` to any
    /// kept id and `critical_path` read the same nodes before and after,
    /// and the exports differ only in how many node lines they carry. One
    /// walk down the parent links per root, stopping at the first node an
    /// earlier walk marked; one pass moves the marked records to the front.
    /// Entries from the floor up move as they are, vacancies included: the
    /// new dense tail.
    ///
    /// While anything is left above the floor, a shrink is one of many and
    /// leaves alone what it need not touch: the front an earlier shrink
    /// compacted, roots and all — it was explained then, and going over it
    /// again costs a pass and a search per node each time — and the slab's
    /// capacity, which the run is about to fill again. A node of the front
    /// that was kept for an action in flight at the time, since dropped,
    /// waits for the shrink that leaves nothing above the floor: the run's
    /// last, which marks everything again and gives the room back.
    pub(crate) fn shrink(&mut self, asked: impl IntoIterator<Item = u64>, floor: u64) {
        // The slab ascends by id, so the floor cuts it at one position;
        // from there up everything stays, and only its parents need a walk.
        // The front is behind every floor told so far, and those stay true.
        let (front, tail) = (self.ids.len(), self.slab.len() - self.ids.len());
        let below = usize::try_from(floor.saturating_sub(self.behind + 1));
        let cut = front + below.map_or(tail, |k| k.min(tail));
        let last = cut == self.slab.len();
        // What is marked starts at slab position `from`; ids up to
        // `left_alone` lie in a front that is not, and need no finding.
        let (from, left_alone) = if last { (0, 0) } else { (front, self.behind) };
        let find = |id: u64| {
            if id > left_alone {
                self.position(id)
            } else {
                None
            }
        };
        // One pass finds the roots in what is marked: the rollbacks, and
        // the latest action by `(time, position)`.
        let (mut roots, mut latest) = (Vec::new(), None);
        for (at, p) in self.stored(from) {
            if matches!(p.op(), CauseOp::Rollback) {
                roots.push(at);
            }
            let (time, _) = self.time_cause(self.id_at(at), p);
            if latest.is_none_or(|(latest, _)| time >= latest) {
                latest = Some((time, at));
            }
        }
        roots.extend(latest.map(|(_, at)| at));
        let cited = asked
            .into_iter()
            .chain(self.stored(cut).map(|(at, _)| self.cause_at(at)));
        let mut keep = vec![false; cut - from];
        for root in roots.into_iter().chain(cited.filter_map(find)) {
            let mut next = Some(root);
            while let Some(at) = next.filter(|&at| (from..cut).contains(&at) && !keep[at - from]) {
                keep[at - from] = true;
                next = find(self.cause_at(at));
            }
        }
        // The marked entries close up: those of the front in place, what
        // was tail below the floor behind them. A record moves as it is:
        // its gap to its cause does not change with its position.
        let marked = (from..front).filter(|&at| keep[at - from]);
        for (to, at) in (from..).zip(marked) {
            self.slab[to] = self.slab[at];
        }
        self.ids.retain_from(from, |at| keep[at - from]);
        for at in (front..cut).filter(|&at| keep[at - from]) {
            self.slab[self.ids.len()] = self.slab[at];
            self.ids.push(self.behind + 1 + (at - front) as u64);
        }
        self.behind += (cut - front) as u64;
        self.slab.copy_within(cut.., self.ids.len());
        self.slab.truncate(self.ids.len() + self.slab.len() - cut);
        if last {
            self.slab.shrink_to_fit();
            self.ids.shrink_to_fit();
        }
        self.kept = self.slab.len();
        self.len = self.ids.len() + self.stored(self.ids.len()).count();
        let (ids, behind) = (&self.ids, self.behind);
        let stays = |id: &u64| *id > behind || ids.search(*id).is_ok();
        self.conflicts.retain(|id, _| stays(id));
        self.wide.retain(|id, _| stays(id));
    }

    /// [`CausalDag::shrink`] behind `floor`, once the slab has doubled
    /// since the last shrink.
    pub(crate) fn collect(&mut self, asked: impl IntoIterator<Item = u64>, floor: u64) {
        if self.slab.len() >= (2 * self.kept).max(COLLECT_FROM) {
            self.shrink(asked, floor);
        }
    }

    /// The cause→effect chain ending at `id`, root first. `None` when the
    /// id is unknown.
    #[must_use]
    pub fn chain(&self, id: u64) -> Option<Vec<CausalNode>> {
        let mut chain = vec![self.get(id)?];
        // Terminates: every stored `cause` is smaller than its node's id.
        while let Some(parent) = self.get(chain[chain.len() - 1].cause) {
            chain.push(parent);
        }
        chain.reverse();
        Some(chain)
    }

    /// The critical path: the chain ending at the latest action in the
    /// forest (ties broken toward the highest id), split into per-edge
    /// time categories. `None` for an empty DAG.
    #[must_use]
    pub fn critical_path(&self) -> Option<CriticalPath> {
        let chain = self.chain(self.latest()?)?;
        let mut path = CriticalPath {
            ids: chain.iter().map(|n| n.id).collect(),
            start: chain.first()?.time,
            end: chain.last()?.time,
            flight_ns: 0,
            hold_ns: 0,
            sequencing_ns: 0,
            wait_ns: 0,
        };
        path.wait_ns += path.start.as_nanos();
        for pair in chain.windows(2) {
            let (parent, child) = (pair[0], pair[1]);
            let dt = child.time.saturating_since(parent.time).as_nanos();
            match edge_category(parent.op, child.op) {
                "flight" => path.flight_ns += dt,
                "hold" => path.hold_ns += dt,
                "sequencing" => path.sequencing_ns += dt,
                _ => path.wait_ns += dt,
            }
        }
        Some(path)
    }

    /// Renders the chain ending at `id` as text, one action per line —
    /// the `sesame explain` output. Long program-order prefixes are elided
    /// so the cross-node tail stays readable. `None` when the id is
    /// unknown.
    #[must_use]
    pub fn render_chain(&self, id: u64) -> Option<String> {
        let chain = self.chain(id)?;
        let len = chain.len();
        // Keep the root and the last 20 hops; elide the middle.
        let (head, tail_from) = if len > 24 { (2, len - 20) } else { (len, len) };
        let mut out = String::new();
        for (i, n) in chain.iter().enumerate() {
            if i >= head && i < tail_from {
                if i == head {
                    let _ = writeln!(
                        out,
                        "  └─ … {} intermediate events elided …",
                        tail_from - head
                    );
                }
                continue;
            }
            let arrow = if i == 0 { "  " } else { "  └─ " };
            let _ = write!(
                out,
                "{arrow}#{} {:<9} node {} @ {}ns",
                n.id,
                n.op.as_str(),
                n.actor,
                n.time.as_nanos(),
            );
            if let Some(kind) = n.kind {
                let _ = write!(out, "  ({kind})");
            }
            if let Some((var, writer)) = n.conflict {
                let _ = write!(out, "  conflict: v{var} written by node {writer}");
            }
            out.push('\n');
        }
        Some(out)
    }

    /// Streams the deterministic JSON export (`sesame-causes/v1`) into
    /// `out`: every node in id order with its parent edge, op, actor,
    /// time, paired kind, and (for rollbacks) the conflict blame. Hand it
    /// a buffered writer; nothing is materialised here.
    ///
    /// # Errors
    ///
    /// Returns the first error `out` reports.
    pub fn write_json(&self, out: &mut impl io::Write) -> io::Result<()> {
        out.write_all(b"{\"schema\":\"sesame-causes/v1\",\"nodes\":[")?;
        let mut sep = "";
        for n in self.iter() {
            write!(
                out,
                "{sep}\n  {{\"id\":{},\"cause\":{},\"op\":\"{}\",\"node\":{},\"t_ns\":{},\"kind\":\"{}\"",
                n.id,
                n.cause,
                n.op,
                n.actor,
                n.time.as_nanos(),
                n.kind.map_or("", TraceKind::as_str),
            )?;
            if let Some((var, writer)) = n.conflict {
                write!(out, ",\"conflict\":{{\"var\":{var},\"writer\":{writer}}}")?;
            }
            out.write_all(b"}")?;
            sep = ",";
        }
        out.write_all(b"\n]}\n")
    }

    /// Streams the deterministic Graphviz DOT export into `out`: one node
    /// per action (rollbacks highlighted), one edge per cause→effect link.
    ///
    /// # Errors
    ///
    /// Returns the first error `out` reports.
    pub fn write_dot(&self, out: &mut impl io::Write) -> io::Result<()> {
        out.write_all(b"digraph causes {\n  rankdir=LR;\n  node [shape=box,fontsize=10];\n")?;
        for (id, p) in self.occupied() {
            let (time, _) = self.time_cause(id, p);
            write!(
                out,
                "  n{id} [label=\"#{id} {}\\nnode {} @ {time}ns\"",
                p.op(),
                p.actor,
            )?;
            if matches!(p.op(), CauseOp::Rollback) {
                out.write_all(b",color=red")?;
            }
            out.write_all(b"];\n")?;
        }
        for (id, p) in self.occupied() {
            let (_, cause) = self.time_cause(id, p);
            if self.position(cause).is_some() {
                writeln!(out, "  n{cause} -> n{id};")?;
            }
        }
        out.write_all(b"}\n")
    }

    /// The JSON export ([`CausalDag::write_json`]) as one string.
    #[must_use]
    pub fn to_json(&self) -> String {
        export_string(self.len * JSON_BYTES_PER_NODE, |buf| self.write_json(buf))
    }
}

/// Runs a streaming exporter into a buffer pre-sized for `body` bytes.
fn export_string(body: usize, write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut buf = Vec::with_capacity(body + 128);
    write(&mut buf).expect("writing into a Vec cannot fail");
    String::from_utf8(buf).expect("the exporters write UTF-8")
}

/// Streaming builder state: the DAG plus the pairing bookkeeping the
/// observer needs (last canonical record per actor, last cause per actor
/// for conflict attachment).
#[derive(Debug, Clone, Default)]
pub(crate) struct CausalState {
    pub(crate) dag: CausalDag,
    /// Last canonical record per actor, neither `cause` nor
    /// `opt-conflict`: `(kind, time)`.
    last_record: BTreeMap<usize, (TraceKind, SimTime)>,
    /// Last cause id recorded per actor (for `opt-conflict` attachment).
    last_cause: BTreeMap<usize, u64>,
}

impl CausalState {
    /// Applies the pairing rules to one record of a stream: a `cause`
    /// record becomes a node, an `opt-conflict` blames the actor's last
    /// node, and any other record is the actor's last canonical record, the
    /// one a `cause` at the same time pairs with.
    ///
    /// Returns where (actor, time) a new node's parent originated when
    /// that parent is a send or multicast — the source anchor of a
    /// timeline flow arrow.
    pub(crate) fn feed(&mut self, e: &TraceEntry) -> Option<(usize, SimTime)> {
        match (e.kind, &e.detail) {
            (TraceKind::Cause, &TraceDetail::Cause { id, cause, op }) => {
                return self.record_cause(e.actor, e.time, id, cause, op);
            }
            (TraceKind::OptConflict, &TraceDetail::Conflict { var, writer }) => {
                self.record_conflict(e.actor, var, writer);
            }
            _ => {
                self.last_record.insert(e.actor, (e.kind, e.time));
            }
        }
        None
    }

    /// Inserts one causal node, pairing it with the immediately preceding
    /// canonical record on the same actor at the same time (if any).
    fn record_cause(
        &mut self,
        actor: usize,
        t: SimTime,
        id: u64,
        cause: u64,
        op: CauseOp,
    ) -> Option<(usize, SimTime)> {
        let paired = self.last_record.get(&actor).filter(|&&(_, rt)| rt == t);
        let kind = paired.map(|&(kind, _)| kind);
        // The arrow follows the edge as stored: a non-preceding `cause`
        // became a root and anchors nothing.
        let parent = self.dag.insert(id, cause, op, actor, t, kind)?;
        self.last_cause.insert(actor, id);
        let p = self.dag.packed(parent)?;
        matches!(p.op(), CauseOp::Send | CauseOp::Mcast).then(|| {
            let (time, _) = self.dag.time_cause(parent, p);
            (p.actor as usize, SimTime::from_nanos(time))
        })
    }

    /// Attaches rollback blame to the actor's most recent causal node.
    fn record_conflict(&mut self, actor: usize, var: u32, writer: u32) {
        // The actor's last node may have gone in a collection since (a
        // rollback's blame follows its node at once; a hand-fed stream
        // need not).
        if let Some(&id) = self.last_cause.get(&actor) {
            if self.dag.position(id).is_some() {
                self.dag.conflicts.insert(id, (var, writer));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesame_sim::DetRng;
    use std::collections::BTreeSet;

    /// The DOT export, streamed into a string.
    fn dot(dag: &CausalDag) -> String {
        let mut out = Vec::new();
        dag.write_dot(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn cause(ns: u64, actor: usize, id: u64, parent: u64, op: CauseOp) -> TraceEntry {
        TraceEntry {
            time: SimTime::from_nanos(ns),
            actor,
            kind: TraceKind::Cause,
            detail: TraceDetail::Cause {
                id,
                cause: parent,
                op,
            },
        }
    }

    fn canonical(ns: u64, actor: usize, kind: TraceKind) -> TraceEntry {
        TraceEntry {
            time: SimTime::from_nanos(ns),
            actor,
            kind,
            detail: TraceDetail::Var { var: 0 },
        }
    }

    /// A small cross-node story: node 1 writes (root-sequenced, multicast),
    /// node 2's apply interrupts its optimistic section and rolls back.
    fn sample() -> Vec<TraceEntry> {
        vec![
            canonical(0, 1, TraceKind::AccWrite),
            cause(0, 1, 1, 0, CauseOp::Write),
            canonical(0, 1, TraceKind::PktSend),
            cause(0, 1, 2, 1, CauseOp::Send),
            canonical(400, 0, TraceKind::RootSeq),
            cause(400, 0, 3, 2, CauseOp::Seq),
            canonical(400, 0, TraceKind::PktMcast),
            cause(400, 0, 4, 3, CauseOp::Mcast),
            canonical(900, 2, TraceKind::GwcApply),
            cause(900, 2, 5, 4, CauseOp::Apply),
            canonical(900, 2, TraceKind::OptRollback),
            cause(900, 2, 6, 5, CauseOp::Rollback),
            TraceEntry {
                time: SimTime::from_nanos(900),
                actor: 2,
                kind: TraceKind::OptConflict,
                detail: TraceDetail::Conflict { var: 0, writer: 1 },
            },
        ]
    }

    #[test]
    fn chains_walk_back_to_the_remote_write() {
        let dag = CausalDag::from_trace(&sample());
        assert_eq!(dag.len(), 6);
        assert_eq!(dag.rollbacks(), vec![6]);
        let chain = dag.chain(6).expect("known id");
        let ops: Vec<CauseOp> = chain.iter().map(|n| n.op).collect();
        assert_eq!(
            ops,
            vec![
                CauseOp::Write,
                CauseOp::Send,
                CauseOp::Seq,
                CauseOp::Mcast,
                CauseOp::Apply,
                CauseOp::Rollback,
            ]
        );
        assert_eq!(chain[0].actor, 1);
        assert_eq!(chain[5].conflict, Some((0, 1)));
        assert!(dag.chain(99).is_none());
    }

    #[test]
    fn pairing_labels_nodes_with_the_preceding_canonical_kind() {
        let dag = CausalDag::from_trace(&sample());
        assert_eq!(dag.get(3).unwrap().kind, Some(TraceKind::RootSeq));
        assert_eq!(dag.get(6).unwrap().kind, Some(TraceKind::OptRollback));
    }

    #[test]
    fn critical_path_splits_time_by_edge_category() {
        let dag = CausalDag::from_trace(&sample());
        let path = dag.critical_path().expect("non-empty");
        assert_eq!(path.ids, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(path.total_ns(), 900);
        // write→send (wait 0), send→seq (flight 400), seq→mcast
        // (sequencing-free: parent seq, child mcast → wait 0), mcast→apply
        // (flight 500), apply→rollback (wait 0).
        assert_eq!(path.flight_ns, 900);
        assert_eq!(path.hold_ns + path.sequencing_ns + path.wait_ns, 0);
        assert_eq!(
            path.flight_ns + path.hold_ns + path.sequencing_ns + path.wait_ns,
            path.total_ns()
        );
    }

    #[test]
    fn exports_are_deterministic_and_carry_the_blame() {
        let dag = CausalDag::from_trace(&sample());
        let json = dag.to_json();
        assert!(json.contains("\"schema\":\"sesame-causes/v1\""));
        assert!(json.contains("\"conflict\":{\"var\":0,\"writer\":1}"));
        assert_eq!(json, CausalDag::from_trace(&sample()).to_json());
        let dot = dot(&dag);
        assert!(dot.contains("n5 -> n6;"));
        assert!(dot.contains("color=red"));
    }

    #[test]
    fn render_chain_prints_every_hop_and_errors_on_unknown_ids() {
        let dag = CausalDag::from_trace(&sample());
        let text = dag.render_chain(6).expect("known id");
        assert!(text.contains("#1 write"));
        assert!(text.contains("conflict: v0 written by node 1"));
        assert!(dag.render_chain(12345).is_none());
    }

    #[test]
    fn non_preceding_causes_become_roots_so_chains_terminate() {
        // A self-loop, a two-node cycle and a forward edge — what a
        // hand-edited replay can contain. Each would have sent the old
        // `chain` walk round forever (or, for the forward edge, against
        // "parents precede children").
        let dag = CausalDag::from_trace(&[
            cause(10, 0, 1, 1, CauseOp::Write),
            cause(20, 0, 2, 3, CauseOp::Send),
            cause(30, 1, 3, 2, CauseOp::Apply),
            cause(40, 1, 0, 3, CauseOp::Apply),
            cause(50, 1, 5, 9, CauseOp::Rollback),
        ]);
        assert_eq!(dag.len(), 4, "id 0 names no node");
        assert_eq!(dag.get(1).unwrap().cause, 0, "self-loop cut");
        assert_eq!(dag.get(2).unwrap().cause, 0, "forward edge cut");
        assert_eq!(dag.get(3).unwrap().cause, 2, "backward edge kept");
        assert_eq!(dag.get(5).unwrap().cause, 0, "edge to a later id cut");
        let ids = |id| -> Vec<u64> { dag.chain(id).unwrap().iter().map(|n| n.id).collect() };
        assert_eq!(ids(1), vec![1]);
        assert_eq!(ids(3), vec![2, 3]);
        assert_eq!(ids(5), vec![5]);
        assert_eq!(dag.critical_path().unwrap().ids, vec![5]);
        assert!(dag.render_chain(3).unwrap().contains("#2 send"));
    }

    #[test]
    fn streamed_exports_equal_the_string_exports() {
        let dag = CausalDag::from_trace(&sample());
        let mut json = Vec::new();
        dag.write_json(&mut json).unwrap();
        assert_eq!(json, dag.to_json().into_bytes());
        let empty = CausalDag::default();
        assert_eq!(
            empty.to_json(),
            "{\"schema\":\"sesame-causes/v1\",\"nodes\":[\n]}\n"
        );
    }

    /// The store this module replaced — one `BTreeMap` entry per node,
    /// every query written the obvious way — kept as the reference the
    /// packed slab is checked against.
    #[derive(Default)]
    struct Naive {
        nodes: BTreeMap<u64, CausalNode>,
        last_record: BTreeMap<usize, (TraceKind, SimTime)>,
        last_cause: BTreeMap<usize, u64>,
    }

    impl Naive {
        fn from_trace(entries: &[TraceEntry]) -> Naive {
            let mut m = Naive::default();
            for e in entries {
                m.feed(e);
            }
            m
        }

        fn feed(&mut self, e: &TraceEntry) {
            match (e.kind, &e.detail) {
                (TraceKind::Cause, &TraceDetail::Cause { id, cause, op }) => {
                    if id == 0 {
                        return;
                    }
                    let kind = match self.last_record.get(&e.actor) {
                        Some(&(kind, rt)) if rt == e.time => Some(kind),
                        _ => None,
                    };
                    self.last_cause.insert(e.actor, id);
                    self.nodes.insert(
                        id,
                        CausalNode {
                            id,
                            cause: if cause < id { cause } else { 0 },
                            op,
                            actor: e.actor,
                            time: e.time,
                            kind,
                            conflict: None,
                        },
                    );
                }
                (TraceKind::OptConflict, &TraceDetail::Conflict { var, writer }) => {
                    if let Some(id) = self.last_cause.get(&e.actor) {
                        self.nodes.get_mut(id).unwrap().conflict = Some((var, writer));
                    }
                }
                _ => {
                    self.last_record.insert(e.actor, (e.kind, e.time));
                }
            }
        }

        fn rollbacks(&self) -> Vec<u64> {
            let rolled = |n: &&CausalNode| matches!(n.op, CauseOp::Rollback);
            self.nodes.values().filter(rolled).map(|n| n.id).collect()
        }

        /// The explained set the obvious way: every rollback, the latest
        /// node, every asked-for id and every node from `floor` up, each
        /// followed to its root.
        fn explained(&self, asked: &[u64], floor: u64) -> BTreeSet<u64> {
            fn visit(nodes: &BTreeMap<u64, CausalNode>, id: u64, set: &mut BTreeSet<u64>) {
                if let Some(n) = nodes.get(&id) {
                    set.insert(id);
                    visit(nodes, n.cause, set);
                }
            }
            let mut roots = self.rollbacks();
            roots.extend(
                self.nodes
                    .values()
                    .max_by_key(|n| (n.time, n.id))
                    .map(|n| n.id),
            );
            roots.extend(asked);
            roots.extend(self.nodes.range(floor..).map(|(&id, _)| id));
            let mut set = BTreeSet::new();
            for root in roots {
                visit(&self.nodes, root, &mut set);
            }
            set
        }

        fn chain(&self, id: u64) -> Option<Vec<CausalNode>> {
            let mut chain = vec![*self.nodes.get(&id)?];
            while let Some(parent) = self.nodes.get(&chain[chain.len() - 1].cause) {
                chain.push(*parent);
            }
            chain.reverse();
            Some(chain)
        }

        /// `(ids, flight, hold, sequencing, wait)` of the critical path.
        fn critical_path(&self) -> Option<(Vec<u64>, u64, u64, u64, u64)> {
            let last = self.nodes.values().max_by_key(|n| (n.time, n.id))?;
            let chain = self.chain(last.id)?;
            let mut split = BTreeMap::from([("wait", chain[0].time.as_nanos())]);
            for pair in chain.windows(2) {
                let dt = pair[1].time.saturating_since(pair[0].time).as_nanos();
                *split
                    .entry(edge_category(pair[0].op, pair[1].op))
                    .or_default() += dt;
            }
            let ns = |cat| split.get(cat).copied().unwrap_or(0);
            Some((
                chain.iter().map(|n| n.id).collect(),
                ns("flight"),
                ns("hold"),
                ns("sequencing"),
                ns("wait"),
            ))
        }

        fn to_json(&self) -> String {
            let mut out = String::from("{\"schema\":\"sesame-causes/v1\",\"nodes\":[");
            for (i, n) in self.nodes.values().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n  {{\"id\":{},\"cause\":{},\"op\":\"{}\",\"node\":{},\"t_ns\":{},\"kind\":\"{}\"",
                    n.id,
                    n.cause,
                    n.op,
                    n.actor,
                    n.time.as_nanos(),
                    n.kind.map_or("", TraceKind::as_str),
                );
                if let Some((var, writer)) = n.conflict {
                    let _ = write!(out, ",\"conflict\":{{\"var\":{var},\"writer\":{writer}}}");
                }
                out.push('}');
            }
            out.push_str("\n]}\n");
            out
        }

        fn to_dot(&self) -> String {
            let mut out =
                String::from("digraph causes {\n  rankdir=LR;\n  node [shape=box,fontsize=10];\n");
            for n in self.nodes.values() {
                let _ = write!(
                    out,
                    "  n{} [label=\"#{} {}\\nnode {} @ {}ns\"",
                    n.id,
                    n.id,
                    n.op,
                    n.actor,
                    n.time.as_nanos(),
                );
                if matches!(n.op, CauseOp::Rollback) {
                    out.push_str(",color=red");
                }
                out.push_str("];\n");
            }
            for n in self.nodes.values() {
                if n.cause != 0 && self.nodes.contains_key(&n.cause) {
                    let _ = writeln!(out, "  n{} -> n{};", n.cause, n.id);
                }
            }
            out.push_str("}\n");
            out
        }
    }

    /// A random record stream: mostly dense ascending ids the way a run
    /// emits them, salted with gaps, late and repeated ids, id 0, causes
    /// that do not precede their node, unpaired causes, and conflicts
    /// after any kind of node. The first half cites and re-records
    /// anything earlier, which pins a floor where it is; the second half
    /// stays near the newest ids, as a run does, so a floor can follow.
    fn random_stream(rng: &mut DetRng, records: usize, kinds: &[TraceKind]) -> Vec<TraceEntry> {
        let mut out = Vec::with_capacity(records * 2);
        let (mut now, mut next_id) = (0u64, 1u64);
        for i in 0..records {
            let wild = i < records / 2;
            now += rng.next_below(3) * 100;
            let actor = rng.next_below(6) as usize;
            let id = match rng.next_below(20) {
                0 if wild => rng.next_below(next_id + 2),
                0 => (next_id + 1).saturating_sub(rng.next_below(30)),
                1 => {
                    next_id += rng.next_below(40);
                    next_id
                }
                _ => next_id,
            };
            next_id = next_id.max(id + 1);
            let parent = match rng.next_below(12) {
                0 => 0,
                1 => id + rng.next_below(3),
                _ if wild => rng.next_below(id.max(1)),
                _ => id.saturating_sub(1 + rng.next_below(24)),
            };
            if !rng.chance(0.1) {
                let kind = kinds[rng.next_below(kinds.len() as u64) as usize];
                let late = u64::from(rng.chance(0.05));
                out.push(canonical(now - late.min(now), actor, kind));
            }
            let op = CauseOp::ALL[rng.next_below(CauseOp::ALL.len() as u64) as usize];
            out.push(cause(now, actor, id, parent, op));
            if rng.chance(0.1) {
                out.push(TraceEntry {
                    time: SimTime::from_nanos(now),
                    actor,
                    kind: TraceKind::OptConflict,
                    detail: TraceDetail::Conflict {
                        var: rng.next_below(4) as u32,
                        writer: rng.next_below(6) as u32,
                    },
                });
            }
        }
        out
    }

    /// `entries` with every id and cited cause passed through `id` (0, no
    /// node, stays 0) and every time moved `dt` later.
    fn relabel(entries: &[TraceEntry], id: impl Fn(u64) -> u64, dt: u64) -> Vec<TraceEntry> {
        let moved = |raw| if raw == 0 { 0 } else { id(raw) };
        let relabelled = entries.iter().map(|e| {
            let detail = match e.detail {
                TraceDetail::Cause { id, cause, op } => TraceDetail::Cause {
                    id: moved(id),
                    cause: moved(cause),
                    op,
                },
                detail => detail,
            };
            let time = SimTime::from_nanos(e.time.as_nanos() + dt);
            TraceEntry { time, detail, ..*e }
        });
        relabelled.collect()
    }

    /// A store whose dense tail starts above `behind`, as if a shrink had
    /// passed it, fed `entries`.
    fn state_behind(entries: &[TraceEntry], behind: u64) -> CausalState {
        let mut state = CausalState::default();
        state.dag.behind = behind;
        for e in entries {
            state.feed(e);
        }
        state
    }

    /// Streams `entries` into a store that is told a floor now and then
    /// and shrinks behind each one, checking every time that what it kept
    /// holds the model's explained set — is exactly that set once nothing
    /// is left above the floor — and answers as the model, which drops
    /// nothing, does. Returns the store and the nodes it should count as
    /// recorded: one per id that was not stored when its record came.
    fn collected_behind_floors(
        entries: &[TraceEntry],
        asked: &[u64],
        behind: u64,
    ) -> (CausalDag, usize) {
        // The lowest parent the stream cites from record `i` on: a floor
        // up to `reach[i]` is one a producer may announce there.
        let mut reach = vec![u64::MAX; entries.len() + 1];
        for (i, e) in entries.iter().enumerate().rev() {
            reach[i] = match e.detail {
                TraceDetail::Cause { id, cause, .. } if (1..id).contains(&cause) => {
                    reach[i + 1].min(cause)
                }
                _ => reach[i + 1],
            };
        }
        let mut rng = DetRng::new(entries.len() as u64);
        let (mut state, mut naive) = (state_behind(&[], behind), Naive::default());
        let (mut stored, mut recorded, mut floor) = (BTreeSet::new(), 0, 0);
        for (i, e) in entries.iter().enumerate() {
            // Now and then, and once near the end: a stream that ends in
            // roots lets that floor go past the last id.
            if rng.chance(0.03) || i + 3 == entries.len() {
                // As high as the producer may go, short of it, or no
                // higher than the last one.
                floor = floor.max(match rng.next_below(4) {
                    0 => 0,
                    1 => reach[i] / 2,
                    _ => reach[i],
                });
                // A floor no higher than where the store starts says
                // nothing a producer has not said already.
                if floor > behind {
                    state.dag.shrink(asked.iter().copied(), floor);
                }
                let (had, explained) = (stored, naive.explained(asked, floor));
                stored = state.dag.iter().map(|n| n.id).collect();
                let at = format!("behind floor {floor} at record {i}");
                assert!(
                    stored.is_superset(&explained),
                    "{at}: an explained node is gone"
                );
                assert!(stored.is_subset(&had), "{at}: kept what was not stored");
                if naive.nodes.range(floor..).next().is_none() {
                    assert_eq!(stored, explained, "{at}: the last shrink is exact");
                }
                for &id in &stored {
                    assert_eq!(state.dag.get(id), naive.nodes.get(&id).copied());
                    assert_eq!(state.dag.chain(id), naive.chain(id), "chain({id})");
                }
            }
            state.feed(e);
            naive.feed(e);
            if let TraceDetail::Cause { id, .. } = e.detail {
                recorded += usize::from(id != 0 && stored.insert(id));
            }
        }
        (state.dag, recorded)
    }

    /// Checks the packed store against the model on `entries` — as
    /// recorded, then shrunk to the explained set (the model filtered to
    /// the same closure) in one go and by way of floors announced along
    /// the stream, then with records arriving after the shrink. The store
    /// starts with its tail above `behind`.
    fn assert_matches_the_naive_store(entries: &[TraceEntry], behind: u64) {
        let (dag, naive) = (
            state_behind(entries, behind).dag,
            Naive::from_trace(entries),
        );
        let top = naive
            .nodes
            .keys()
            .next_back()
            .copied()
            .unwrap_or(0)
            .max(behind);
        // Every id up to past the end, or, where that is billions, every
        // id within two of one the stream names.
        let probes: Vec<u64> = if top < 1 << 16 {
            (0..top + 3).collect()
        } else {
            let named = entries.iter().flat_map(|e| match e.detail {
                TraceDetail::Cause { id, cause, .. } => vec![id, cause],
                _ => vec![],
            });
            let near = named
                .chain([0, top])
                .flat_map(|id| id.saturating_sub(2)..id + 3);
            let mut probes: Vec<u64> = near.collect();
            probes.sort_unstable();
            probes.dedup();
            probes
        };
        assert_same_answers(&dag, &naive, &probes);
        assert_eq!(dag.recorded(), dag.len());
        // Nothing asked for; a mid-stream id (kept, dropped or vacant as
        // the stream has it) with one past the end; the same, shrunk twice.
        let part = |k: u64| behind + (top - behind) / k;
        let asked = [
            (vec![], 1),
            (vec![part(2), top + 1, 0], 1),
            (vec![part(3)], 2),
        ];
        for ((asked, times), floors) in asked.iter().flat_map(|a| [(a, false), (a, true)]) {
            let (mut dag, recorded) = match floors {
                true => collected_behind_floors(entries, asked, behind),
                false => (dag.clone(), dag.len()),
            };
            let mut naive = Naive::from_trace(entries);
            let keep = naive.explained(asked, u64::MAX);
            naive.nodes.retain(|id, _| keep.contains(id));
            for _ in 0..*times {
                dag.shrink(asked.iter().copied(), u64::MAX);
            }
            assert_same_answers(&dag, &naive, &probes);
            assert_eq!(dag.recorded(), recorded);
            assert_eq!(dag.slab.capacity(), dag.len(), "the slab was given back");
            assert_eq!(dag.ids.low.capacity(), dag.len(), "so were the ids");
            assert!(dag.conflicts.keys().all(|id| keep.contains(id)));
            assert!(dag.wide.keys().all(|id| keep.contains(id)));
            // After the shrink: a new id past the end, a dropped or vacant
            // id in the middle, a kept id replaced.
            let kept = keep.iter().next().copied().unwrap_or(1);
            for (id, parent, op) in [
                (top + 2, kept, CauseOp::Apply),
                (part(2) + 1, part(4), CauseOp::Send),
                (kept, 0, CauseOp::Rollback),
            ] {
                let (actor, time) = (3, SimTime::from_nanos(id));
                let kind = Some(TraceKind::GrantRetransmit);
                dag.insert(id, parent, op, actor, time, kind);
                let node = CausalNode {
                    id,
                    cause: if parent < id { parent } else { 0 },
                    op,
                    actor,
                    time,
                    kind,
                    conflict: None,
                };
                naive.nodes.insert(id, node);
            }
            let probes = probes.iter().copied().chain([top + 3, top + 4]);
            assert_same_answers(&dag, &naive, &probes.collect::<Vec<_>>());
        }
    }

    /// Every query and export agrees, for every id in `probes`.
    fn assert_same_answers(dag: &CausalDag, naive: &Naive, probes: &[u64]) {
        assert_eq!(dag.len(), naive.nodes.len());
        assert_eq!(dag.is_empty(), naive.nodes.is_empty());
        assert_eq!(dag.rollbacks(), naive.rollbacks());
        assert!(dag.iter().eq(naive.nodes.values().copied()));
        for &id in probes {
            assert_eq!(dag.get(id), naive.nodes.get(&id).copied(), "get({id})");
            assert_eq!(dag.chain(id), naive.chain(id), "chain({id})");
        }
        let path = dag
            .critical_path()
            .map(|p| (p.ids, p.flight_ns, p.hold_ns, p.sequencing_ns, p.wait_ns));
        assert_eq!(path, naive.critical_path());
        assert_eq!(dag.to_json(), naive.to_json());
        assert_eq!(dot(dag), naive.to_dot());
    }

    #[test]
    fn packed_store_matches_the_naive_store_on_random_streams() {
        // Every kind: each byte goes into the packed record and comes back.
        let kinds = TraceKind::ALL;
        for seed in 0..40 {
            let mut rng = DetRng::new(seed);
            let records = 1 + rng.next_below(400) as usize;
            assert_matches_the_naive_store(&random_stream(&mut rng, records, &kinds), 0);
        }
        assert_matches_the_naive_store(&[], 0);
        assert_matches_the_naive_store(&sample(), 0);
        // No rollback anywhere: only the critical path survives a shrink.
        let mut calm = random_stream(&mut DetRng::new(7), 300, &kinds);
        for e in &mut calm {
            if let TraceDetail::Cause { op, .. } = &mut e.detail {
                if matches!(op, CauseOp::Rollback) {
                    *op = CauseOp::Apply;
                }
            }
        }
        assert_matches_the_naive_store(&calm, 0);
        let mut dag = CausalDag::from_trace(&calm);
        dag.shrink(None, u64::MAX);
        let path = dag.critical_path().expect("non-empty");
        assert!(dag.iter().map(|n| n.id).eq(path.ids.iter().copied()));
    }

    #[test]
    fn packed_store_matches_the_naive_store_past_every_packing_limit() {
        let kinds = TraceKind::ALL;
        for seed in 0..12 {
            let mut rng = DetRng::new(seed);
            let records = 100 + rng.next_below(300) as usize;
            let stream = random_stream(&mut rng, records, &kinds);
            // Ids that cross 2^32 a hundred in, into a store whose tail
            // starts just below.
            let start = (1 << 32) - 100;
            let crossing = relabel(&stream, |id| start + id, 0);
            assert_matches_the_naive_store(&crossing, start);
            let mut dag = state_behind(&crossing, start).dag;
            dag.shrink(None, u64::MAX);
            assert!(dag.ids.rises.len() == 1 && dag.wide.is_empty());
            // The first forty ids small, behind a tail far past 2^32: what
            // cites them lies 2^32 and more above its cause.
            let far = 5 << 32;
            let split = relabel(&stream, |id| if id <= 40 { id } else { far + id }, 0);
            assert_matches_the_naive_store(&split, far);
            assert!(!state_behind(&split, far).dag.wide.is_empty());
            // Times that cross 2^54 nanoseconds halfway.
            let late = relabel(&stream, |id| id, WIDE - 100 * records as u64 / 2);
            assert_matches_the_naive_store(&late, 0);
            let dag = CausalDag::from_trace(&late);
            assert!(!dag.wide.is_empty() && dag.wide.len() < dag.len());
        }
        // A repeated id that fits replaces one that did not, and back.
        let mut dag = CausalDag {
            behind: (1 << 40) - 1,
            ..CausalDag::default()
        };
        let time = |ns| SimTime::from_nanos(ns);
        dag.insert(1 << 40, 1, CauseOp::Send, 0, time(WIDE), None);
        dag.insert(1 << 40, 0, CauseOp::Apply, 1, time(5), None);
        assert!(dag.wide.is_empty());
        dag.insert(1 << 40, 1, CauseOp::Seq, 2, time(5), None);
        assert_eq!(dag.wide.len(), 1);
        let node = dag.get(1 << 40).unwrap();
        assert_eq!((node.cause, node.op, node.actor), (1, CauseOp::Seq, 2));
    }

    #[test]
    fn front_ids_answer_as_a_sorted_list_of_ids() {
        for seed in 0..20 {
            let mut rng = DetRng::new(seed);
            let (mut front, mut model) = (FrontIds::default(), Vec::<u64>::new());
            let mut next = rng.next_below(3) << 32;
            for _ in 0..200 {
                match rng.next_below(10) {
                    // Ids a little or 2^32 and more above the last.
                    0..=5 => {
                        next += 1 + rng.next_below(3) + ((rng.next_below(8) / 7) << 32);
                        front.push(next);
                        model.push(next);
                    }
                    // A gap filled, or an id behind all of them.
                    6 | 7 => {
                        let id = rng.next_below(next + 1);
                        if let Err(at) = front.search(id) {
                            front.insert(at, id);
                            model.insert(at, id);
                        }
                    }
                    _ => {
                        let from = rng.next_below(model.len() as u64 + 1) as usize;
                        let drop: Vec<bool> = (0..model.len()).map(|_| rng.chance(0.3)).collect();
                        front.retain_from(from, |at| !drop[at]);
                        let mut at = 0;
                        model.retain(|_| {
                            at += 1;
                            at - 1 < from || !drop[at - 1]
                        });
                    }
                }
                assert_eq!(front.len(), model.len());
                for (at, &id) in model.iter().enumerate() {
                    assert_eq!(front.get(at), id);
                    for probe in [id.wrapping_sub(1), id, id + 1, id ^ (1 << 32)] {
                        assert_eq!(front.search(probe), model.binary_search(&probe));
                    }
                }
                assert!(front
                    .rises
                    .windows(2)
                    .all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
            }
        }
    }
}

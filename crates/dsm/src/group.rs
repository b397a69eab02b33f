//! Sharing groups: the unit of eagersharing and write ordering.
//!
//! Group write consistency guarantees strict ordering of all shared writes
//! *within a processor group* (paper §1.2). Every shared variable belongs to
//! exactly one group; one node is the group **root** — the spanning-tree
//! root that routes, sequences, and retransmits all hidden sharing messages
//! of the group, and also acts as the group's lock manager.
//!
//! A group with an associated mutex lock variable is a **mutex group**: the
//! root discards data writes from nodes that do not hold the lock (the basis
//! of optimistic synchronization), and the sharing interfaces apply the
//! paper's Figure 6 hardware blocking to it.

use std::error::Error;
use std::fmt;

use sesame_net::NodeId;

use crate::{GroupId, VarId};

/// Declarative description of one sharing group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSpec {
    /// The group root: sequencing arbiter and lock manager.
    pub root: NodeId,
    /// Nodes that eagerly receive every write in the group.
    pub members: Vec<NodeId>,
    /// Variables owned by the group.
    pub vars: Vec<VarId>,
    /// The group's mutex lock variable, if the group is a mutex group. Must
    /// be listed in `vars`.
    pub mutex_lock: Option<VarId>,
}

/// Variable ids a [`GroupTable`] accepts: `0..VAR_ID_BOUND`. The
/// variable-to-group index holds a word per id up to the highest one
/// declared, so the bound caps it at 64 MiB; a larger id is refused with
/// [`GroupConfigError::VarOutOfRange`] before anything is sized by it.
pub const VAR_ID_BOUND: u32 = 1 << 24;

/// Errors detected while validating group specifications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupConfigError {
    /// A group listed no members.
    EmptyMembers(GroupId),
    /// A group listed no variables.
    EmptyVars(GroupId),
    /// The named variable appears in more than one group.
    DuplicateVar(VarId),
    /// The same node appears twice in one group's member list.
    DuplicateMember(GroupId, NodeId),
    /// A mutex lock variable is not listed among the group's variables.
    LockNotInGroup(GroupId, VarId),
    /// A group's root or member is not a node of the system.
    NodeOutOfRange(GroupId, NodeId),
    /// A group's variable id is not below [`VAR_ID_BOUND`].
    VarOutOfRange(GroupId, VarId),
}

impl fmt::Display for GroupConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupConfigError::EmptyMembers(g) => write!(f, "group {g} has no members"),
            GroupConfigError::EmptyVars(g) => write!(f, "group {g} has no variables"),
            GroupConfigError::DuplicateVar(v) => {
                write!(f, "variable {v} belongs to more than one group")
            }
            GroupConfigError::DuplicateMember(g, n) => {
                write!(f, "node {n} listed twice in group {g}")
            }
            GroupConfigError::LockNotInGroup(g, v) => {
                write!(f, "mutex lock {v} of group {g} is not among its variables")
            }
            GroupConfigError::NodeOutOfRange(g, n) => {
                write!(
                    f,
                    "group {g} names node {n}, which the system does not have"
                )
            }
            GroupConfigError::VarOutOfRange(g, v) => {
                write!(f, "group {g} names variable {v}, not below {VAR_ID_BOUND}")
            }
        }
    }
}

impl Error for GroupConfigError {}

/// Fixed-size record of one group in a [`GroupTable`]. Member and variable
/// counts are not stored: group `g`'s lists end where group `g + 1`'s
/// start (compressed sparse rows).
#[derive(Debug, Clone, Copy)]
struct GroupHead {
    root: NodeId,
    /// Start of the group's members in [`GroupTable::members`] — and, since
    /// that array is in group order, the group's first member slot.
    members_at: u32,
    /// Start of the group's variables in [`GroupTable::vars`].
    vars_at: u32,
    /// The mutex lock variable's id, or [`NO_LOCK`].
    mutex_lock: u32,
    /// Start of the group's sorted `(node, rank)` pairs in
    /// [`GroupTable::ranks`], or [`CONTIGUOUS`] when none are stored.
    ranks_at: u32,
}

/// [`GroupHead::ranks_at`] of a group whose declared member list is one
/// ascending run `first, first+1, ..`: rank queries are one subtraction
/// instead of a binary search, and no pairs are stored. The common shape
/// for machine-generated groups (e.g. the bigmesh row and hand-off
/// groups), and the rank lookup sits on the per-delivery protocol hot
/// path.
const CONTIGUOUS: u32 = u32::MAX;

/// [`GroupHead::mutex_lock`] of a group without a lock: no variable id,
/// since every id is below [`VAR_ID_BOUND`].
const NO_LOCK: u32 = u32::MAX;

/// [`GroupTable::var_group`] of a variable no group claims.
const UNCLAIMED: u32 = u32::MAX;

// A head per group: the mesh's groups outnumber its nodes.
const _: () = assert!(std::mem::size_of::<GroupHead>() <= 20);

/// One validated sharing group: a `Copy` view into its [`GroupTable`].
#[derive(Clone, Copy)]
pub struct SharingGroup<'a> {
    table: &'a GroupTable,
    id: GroupId,
}

impl fmt::Debug for SharingGroup<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharingGroup")
            .field("id", &self.id)
            .field("root", &self.root())
            .field("members", &self.members())
            .field("vars", &self.vars())
            .field("mutex_lock", &self.mutex_lock())
            .finish()
    }
}

impl<'a> SharingGroup<'a> {
    fn head(self) -> &'a GroupHead {
        &self.table.heads[self.id.index()]
    }

    /// This group's run in a flat array of `total` entries, given where a
    /// head says its run starts: it ends where the next group's starts.
    fn run(self, start: impl Fn(&GroupHead) -> u32, total: usize) -> std::ops::Range<usize> {
        let next = self.table.heads.get(self.id.index() + 1);
        start(self.head()) as usize..next.map_or(total, |h| start(h) as usize)
    }

    /// The group's id.
    pub fn id(self) -> GroupId {
        self.id
    }

    /// The group root (sequencer and lock manager).
    pub fn root(self) -> NodeId {
        self.head().root
    }

    /// The group's member nodes.
    pub fn members(self) -> &'a [NodeId] {
        &self.table.members[self.run(|h| h.members_at, self.table.members.len())]
    }

    /// Whether `node` is a member (`O(log m)`).
    pub fn is_member(self, node: NodeId) -> bool {
        self.member_rank(node).is_some()
    }

    /// The member rank of `node`: its index in [`SharingGroup::members`],
    /// or `None` if it is not a member. Ranks are dense (`0..m`) and
    /// follow the *declared* member order, so rank-addressed state never
    /// observes a different order than the multicast fan-out does —
    /// the invariant that keeps slot-indexed protocol state (see
    /// [`GroupTable::member_slot`]) deterministic.
    fn member_rank(self, node: NodeId) -> Option<u32> {
        let members = self.members();
        let ranks_at = self.head().ranks_at;
        if ranks_at == CONTIGUOUS {
            let rank = node.get().wrapping_sub(members[0].get());
            return ((rank as usize) < members.len()).then_some(rank);
        }
        let ranks = &self.table.ranks[ranks_at as usize..ranks_at as usize + members.len()];
        ranks
            .binary_search_by_key(&node, |&(n, _)| n)
            .ok()
            .map(|i| ranks[i].1)
    }

    /// The group's variables.
    pub fn vars(self) -> &'a [VarId] {
        &self.table.vars[self.run(|h| h.vars_at, self.table.vars.len())]
    }

    /// The mutex lock variable, if this is a mutex group.
    pub fn mutex_lock(self) -> Option<VarId> {
        let lock = self.head().mutex_lock;
        (lock != NO_LOCK).then_some(VarId::new(lock))
    }

    /// Whether the group has an associated mutex lock.
    pub fn is_mutex_group(self) -> bool {
        self.mutex_lock().is_some()
    }
}

/// The validated set of all sharing groups plus the variable-to-group
/// index.
///
/// Stored flat: one fixed-size head per group over one machine-wide member
/// array and one variable array, so a machine with more groups than nodes
/// pays per *member*, not a set of heap vectors per group; the
/// variable-to-group index is one word per variable id. Groups are read
/// through [`SharingGroup`] views returned by value.
#[derive(Debug, Clone, Default)]
pub struct GroupTable {
    heads: Vec<GroupHead>,
    /// Every group's members, in group-id order and, within a group, in
    /// declared order. An index into this array is a *member slot*: group
    /// `g`'s member of rank `r` owns slot `heads[g].members_at + r`.
    members: Vec<NodeId>,
    /// Every group's variables, in group-id order.
    vars: Vec<VarId>,
    /// `(node, rank)` pairs sorted by node, for the groups whose members
    /// are not one ascending run. Backs `O(log m)` membership and rank
    /// queries without touching the declared member order (which the
    /// multicast fan-out depends on).
    ranks: Vec<(NodeId, u32)>,
    /// The group owning each variable, indexed by variable id, up to the
    /// highest id declared; [`UNCLAIMED`] for an id no group names.
    var_group: Vec<u32>,
    /// The highest node any group names as root or member, with the first
    /// group that names it: a machine checks its size against this alone.
    highest: Option<(GroupId, NodeId)>,
}

/// Incremental construction of a [`GroupTable`]: each
/// [`push`](GroupTableBuilder::push) validates one group and appends it to
/// the flat table, so no list of specs is accumulated. The first error is
/// kept and reported by [`finish`](GroupTableBuilder::finish).
#[derive(Debug)]
pub struct GroupTableBuilder {
    table: GroupTable,
    error: Option<GroupConfigError>,
    /// Roots and members must be below this.
    nodes: usize,
}

impl GroupTableBuilder {
    /// An empty builder for a system of `nodes` CPUs.
    pub fn new(nodes: usize) -> Self {
        GroupTableBuilder {
            table: GroupTable::default(),
            error: None,
            nodes,
        }
    }

    /// Number of groups accepted so far.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether no group has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Validates `spec` and appends it as the next group id. After the
    /// first invalid group every further push is ignored.
    pub fn push(&mut self, spec: &GroupSpec) {
        if self.error.is_none() {
            self.error = self.table.push(spec, self.nodes).err();
        }
    }

    /// The table, or the first [`GroupConfigError`] a push found: empty
    /// member or variable lists, a root or member that is not a node,
    /// duplicate members, a mutex lock missing from its own group, or a
    /// variable id past [`VAR_ID_BOUND`] or claimed twice.
    ///
    /// # Errors
    ///
    /// Returns that first error.
    pub fn finish(mut self) -> Result<GroupTable, GroupConfigError> {
        match self.error {
            None => {
                // The index grew by doubling: up to as many unused words
                // again as the ids need.
                self.table.var_group.shrink_to_fit();
                Ok(self.table)
            }
            Some(e) => Err(e),
        }
    }
}

impl GroupTable {
    /// Validates `specs` and builds the table. Group ids are assigned in
    /// order of the input.
    ///
    /// # Errors
    ///
    /// Returns the first [`GroupConfigError`] found, as
    /// [`GroupTableBuilder::finish`] does.
    pub fn new(specs: Vec<GroupSpec>) -> Result<Self, GroupConfigError> {
        // Not told the system's size, so no node is out of range.
        let mut builder = GroupTableBuilder::new(usize::MAX);
        for spec in &specs {
            builder.push(spec);
        }
        builder.finish()
    }

    /// Validates and appends one group of a system of `nodes` CPUs,
    /// claiming its variables in declared order. On error the table is
    /// left half-updated; [`GroupTableBuilder`] never hands such a table
    /// out.
    fn push(&mut self, spec: &GroupSpec, nodes: usize) -> Result<(), GroupConfigError> {
        let id = GroupId::new(self.heads.len() as u32);
        let Some(&first) = spec.members.first() else {
            return Err(GroupConfigError::EmptyMembers(id));
        };
        if spec.vars.is_empty() {
            return Err(GroupConfigError::EmptyVars(id));
        }
        let highest = spec.members.iter().fold(spec.root, |a, &m| a.max(m));
        if highest.index() >= nodes {
            let mut named = std::iter::once(&spec.root).chain(&spec.members);
            let &node = named.find(|n| n.index() >= nodes).expect("the highest is");
            return Err(GroupConfigError::NodeOutOfRange(id, node));
        }
        let contiguous = spec
            .members
            .iter()
            .enumerate()
            .all(|(rank, &m)| m.get().wrapping_sub(first.get()) == rank as u32);
        let ranks_at = if contiguous {
            CONTIGUOUS // an ascending run cannot repeat a node
        } else {
            let at = self.ranks.len();
            self.ranks.extend(
                spec.members
                    .iter()
                    .enumerate()
                    .map(|(rank, &n)| (n, rank as u32)),
            );
            let ranks = &mut self.ranks[at..];
            ranks.sort_unstable();
            // Equal nodes now sit side by side in rank order; the first
            // offender is the earliest-declared repeat.
            let repeat = ranks
                .windows(2)
                .filter(|w| w[0].0 == w[1].0)
                .map(|w| w[1].1)
                .min();
            if let Some(rank) = repeat {
                let node = spec.members[rank as usize];
                return Err(GroupConfigError::DuplicateMember(id, node));
            }
            u32::try_from(at).expect("more than 2^32 member slots")
        };
        if let Some(lock) = spec.mutex_lock {
            if !spec.vars.contains(&lock) {
                return Err(GroupConfigError::LockNotInGroup(id, lock));
            }
        }
        for &var in &spec.vars {
            if var.get() >= VAR_ID_BOUND {
                return Err(GroupConfigError::VarOutOfRange(id, var));
            }
            if var.index() >= self.var_group.len() {
                self.var_group.resize(var.index() + 1, UNCLAIMED);
            }
            if self.var_group[var.index()] != UNCLAIMED {
                return Err(GroupConfigError::DuplicateVar(var));
            }
            self.var_group[var.index()] = id.get();
        }
        self.heads.push(GroupHead {
            root: spec.root,
            members_at: u32::try_from(self.members.len()).expect("more than 2^32 member slots"),
            vars_at: u32::try_from(self.vars.len()).expect("more than 2^32 group variables"),
            mutex_lock: spec.mutex_lock.map_or(NO_LOCK, VarId::get),
            ranks_at,
        });
        self.members.extend_from_slice(&spec.members);
        self.vars.extend_from_slice(&spec.vars);
        if self.highest.is_none_or(|(_, node)| highest > node) {
            self.highest = Some((id, highest));
        }
        Ok(())
    }

    /// The highest node any group names as root or member, with the first
    /// group that names it; `None` for a table without groups.
    pub(crate) fn highest_node(&self) -> Option<(GroupId, NodeId)> {
        self.highest
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether no groups are defined.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// The group with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn group(&self, id: GroupId) -> SharingGroup<'_> {
        assert!(id.index() < self.heads.len(), "no group {id}");
        SharingGroup { table: self, id }
    }

    /// The group owning `var`, if any.
    pub fn group_of(&self, var: VarId) -> Option<SharingGroup<'_>> {
        let id = *self.var_group.get(var.index())?;
        (id != UNCLAIMED).then_some(SharingGroup {
            table: self,
            id: GroupId::new(id),
        })
    }

    /// Iterates over all groups.
    pub fn iter(&self) -> impl Iterator<Item = SharingGroup<'_>> {
        (0..self.heads.len() as u32).map(|i| SharingGroup {
            table: self,
            id: GroupId::new(i),
        })
    }

    /// Total number of member slots: one per `(group, member)` pair,
    /// summed over all groups. Sizes the dense arrays that protocol
    /// models use for per-membership state (struct-of-arrays storage on
    /// the GWC hot loop).
    pub fn member_slots(&self) -> usize {
        self.members.len()
    }

    /// The machine-wide member slot of `node` in `group`:
    /// `slot_base(group) + rank`, or `None` if `node` is not a member.
    ///
    /// Slots are dense in `0..member_slots()`, assigned in group-id order
    /// and, within a group, in declared member order — a pure function of
    /// the validated group specs, so slot-indexed state is as
    /// deterministic as the specs themselves.
    pub fn member_slot(&self, group: GroupId, node: NodeId) -> Option<usize> {
        self.group(group)
            .member_rank(node)
            .map(|rank| self.slot_base(group) + rank as usize)
    }

    /// The first member slot of `group`; the group's members occupy
    /// `slot_base(group) .. slot_base(group) + members.len()` in rank
    /// order.
    pub fn slot_base(&self, group: GroupId) -> usize {
        self.heads[group.index()].members_at as usize
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    fn n(id: u32) -> NodeId {
        NodeId::new(id)
    }
    fn v(id: u32) -> VarId {
        VarId::new(id)
    }

    fn spec(root: u32, members: &[u32], vars: &[u32], lock: Option<u32>) -> GroupSpec {
        GroupSpec {
            root: n(root),
            members: members.iter().copied().map(n).collect(),
            vars: vars.iter().copied().map(v).collect(),
            mutex_lock: lock.map(v),
        }
    }

    #[test]
    fn builds_and_indexes() {
        let t = GroupTable::new(vec![
            spec(0, &[0, 1, 2], &[0, 1], Some(0)),
            spec(1, &[1, 2], &[2], None),
        ])
        .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.group_of(v(1)).unwrap().id(), GroupId::new(0));
        assert_eq!(t.group_of(v(2)).unwrap().id(), GroupId::new(1));
        assert!(t.group_of(v(9)).is_none());
        assert!(t.group(GroupId::new(0)).is_mutex_group());
        assert!(!t.group(GroupId::new(1)).is_mutex_group());
        assert_eq!(t.group(GroupId::new(0)).mutex_lock(), Some(v(0)));
        // Both groups name n2; the first does so first.
        assert_eq!(t.highest_node(), Some((GroupId::new(0), n(2))));
    }

    #[test]
    fn membership_queries() {
        let t = GroupTable::new(vec![
            spec(0, &[0, 1], &[0], None),
            spec(2, &[1, 2], &[1], None),
        ])
        .unwrap();
        assert!(t.group(GroupId::new(0)).is_member(n(1)));
        assert!(!t.group(GroupId::new(0)).is_member(n(2)));
    }

    #[test]
    fn member_ranks_and_slots_follow_declared_order() {
        let t = GroupTable::new(vec![
            spec(0, &[2, 0, 1], &[0], None),
            spec(1, &[3, 1], &[1], None),
        ])
        .unwrap();
        let g0 = t.group(GroupId::new(0));
        assert_eq!(g0.member_rank(n(2)), Some(0));
        assert_eq!(g0.member_rank(n(0)), Some(1));
        assert_eq!(g0.member_rank(n(1)), Some(2));
        assert_eq!(g0.member_rank(n(9)), None);
        assert_eq!(t.member_slots(), 5);
        assert_eq!(t.slot_base(GroupId::new(1)), 3);
        assert_eq!(t.member_slot(GroupId::new(0), n(1)), Some(2));
        assert_eq!(t.member_slot(GroupId::new(1), n(3)), Some(3));
        assert_eq!(t.member_slot(GroupId::new(1), n(1)), Some(4));
        assert_eq!(t.member_slot(GroupId::new(1), n(0)), None);
    }

    #[test]
    fn contiguous_member_runs_rank_like_any_other_group() {
        let t = GroupTable::new(vec![spec(5, &[5, 6, 7, 8], &[0], None)]).unwrap();
        let g = t.group(GroupId::new(0));
        for (rank, id) in (5..9).enumerate() {
            assert_eq!(g.member_rank(n(id)), Some(rank as u32));
        }
        assert_eq!(g.member_rank(n(4)), None);
        assert_eq!(g.member_rank(n(9)), None);
        assert_eq!(g.member_rank(n(0)), None);
        assert_eq!(t.member_slot(GroupId::new(0), n(7)), Some(2));
    }

    #[test]
    fn rejects_duplicate_var() {
        let err = GroupTable::new(vec![spec(0, &[0], &[5], None), spec(1, &[1], &[5], None)])
            .unwrap_err();
        assert_eq!(err, GroupConfigError::DuplicateVar(v(5)));
        assert!(err.to_string().contains("more than one group"));
    }

    #[test]
    fn rejects_empty_lists() {
        assert_eq!(
            GroupTable::new(vec![spec(0, &[], &[1], None)]).unwrap_err(),
            GroupConfigError::EmptyMembers(GroupId::new(0))
        );
        assert_eq!(
            GroupTable::new(vec![spec(0, &[0], &[], None)]).unwrap_err(),
            GroupConfigError::EmptyVars(GroupId::new(0))
        );
    }

    #[test]
    fn rejects_duplicate_member() {
        assert_eq!(
            GroupTable::new(vec![spec(0, &[1, 1], &[0], None)]).unwrap_err(),
            GroupConfigError::DuplicateMember(GroupId::new(0), n(1))
        );
    }

    #[test]
    fn rejects_lock_outside_group() {
        assert_eq!(
            GroupTable::new(vec![spec(0, &[0], &[1], Some(9))]).unwrap_err(),
            GroupConfigError::LockNotInGroup(GroupId::new(0), v(9))
        );
    }

    #[test]
    fn rejects_a_root_or_member_past_the_last_node() {
        let built = |specs: &[GroupSpec]| {
            let mut b = GroupTableBuilder::new(4);
            for spec in specs {
                b.push(spec);
            }
            b.finish().map(|t| t.len())
        };
        let ok = spec(3, &[0, 3], &[0], None);
        assert_eq!(built(std::slice::from_ref(&ok)), Ok(1));
        // The root is checked before the members, and the first member
        // past the end is the one named.
        let err = built(&[ok.clone(), spec(9, &[1, 7, 4], &[1], None)]).unwrap_err();
        assert_eq!(err, GroupConfigError::NodeOutOfRange(GroupId::new(1), n(9)));
        assert!(err.to_string().contains("names node n9"), "{err}");
        assert_eq!(
            built(&[ok, spec(1, &[1, 7, 4], &[1], None)]),
            Err(GroupConfigError::NodeOutOfRange(GroupId::new(1), n(7)))
        );
    }

    /// The table as it was before it went flat: validation over the spec
    /// list in the original order, queries by scanning the specs.
    fn model_validate(specs: &[GroupSpec]) -> Result<(), GroupConfigError> {
        let mut seen = std::collections::HashSet::new();
        for (i, spec) in specs.iter().enumerate() {
            let id = GroupId::new(i as u32);
            if spec.members.is_empty() {
                return Err(GroupConfigError::EmptyMembers(id));
            }
            if spec.vars.is_empty() {
                return Err(GroupConfigError::EmptyVars(id));
            }
            for (j, &m) in spec.members.iter().enumerate() {
                if spec.members[..j].contains(&m) {
                    return Err(GroupConfigError::DuplicateMember(id, m));
                }
            }
            if let Some(lock) = spec.mutex_lock {
                if !spec.vars.contains(&lock) {
                    return Err(GroupConfigError::LockNotInGroup(id, lock));
                }
            }
            for &var in &spec.vars {
                if var.get() >= VAR_ID_BOUND {
                    return Err(GroupConfigError::VarOutOfRange(id, var));
                }
                if !seen.insert(var) {
                    return Err(GroupConfigError::DuplicateVar(var));
                }
            }
        }
        Ok(())
    }

    const NODES: u32 = 14;
    const VARS: u32 = 40;

    /// Random specs: ascending runs and scrambled member lists, fresh
    /// variables (half the time sparse ids, from 0 up and from 2^16 down,
    /// declared out of order) — and, one time in three, one or two
    /// planted faults.
    fn random_specs(rng: &mut sesame_sim::DetRng) -> Vec<GroupSpec> {
        let sparse = rng.chance(0.5);
        let var = |k: u32| match (sparse, k % 2) {
            (false, _) => v(k),
            (true, 0) => v(0xffff - k),
            (true, _) => v((k - 1) * 0x3ff),
        };
        let mut next_var = 0u32;
        let mut specs: Vec<GroupSpec> = (0..1 + rng.next_below(7))
            .map(|_| {
                let len = 1 + rng.next_below(6) as u32;
                let first = rng.next_below(u64::from(NODES - len + 1)) as u32;
                let mut members: Vec<NodeId> = (first..first + len).map(n).collect();
                if rng.chance(0.5) {
                    let mut pool: Vec<u32> = (0..NODES).collect();
                    rng.shuffle(&mut pool);
                    members = pool[..len as usize].iter().copied().map(n).collect();
                }
                let vars: Vec<VarId> = (0..1 + rng.next_below(3) as u32)
                    .map(|k| var(next_var + k))
                    .collect();
                next_var += vars.len() as u32;
                let lock = rng
                    .chance(0.4)
                    .then(|| vars[rng.next_below(vars.len() as u64) as usize]);
                GroupSpec {
                    root: n(rng.next_below(u64::from(NODES)) as u32),
                    members,
                    vars,
                    mutex_lock: lock,
                }
            })
            .collect();
        let faults = if rng.chance(1.0 / 3.0) {
            1 + rng.next_below(2)
        } else {
            0
        };
        for _ in 0..faults {
            let at = rng.next_below(specs.len() as u64) as usize;
            let earlier = specs[rng.next_below(at as u64 + 1) as usize]
                .vars
                .first()
                .map_or(v(VARS + 3), |&var| var);
            let spec = &mut specs[at];
            match rng.next_below(7) {
                0 => spec.members.clear(),
                1 => spec.vars.clear(),
                2 => {
                    // Repeat a member, possibly twice over.
                    if !spec.members.is_empty() {
                        let dup = spec.members[rng.next_below(spec.members.len() as u64) as usize];
                        spec.members.push(dup);
                        if rng.chance(0.5) {
                            spec.members.insert(0, *spec.members.last().unwrap());
                        }
                    }
                }
                3 => spec.mutex_lock = Some(v(VARS + 1)),
                4 => spec.vars.push(earlier), // claimed by an earlier group, or twice by this one
                5 => spec
                    .vars
                    .insert(0, v(VAR_ID_BOUND + rng.next_below(2) as u32)),
                _ => {
                    // Two faults in one group: the earlier check wins.
                    if let Some(&first) = spec.members.first() {
                        spec.members.push(first);
                    }
                    spec.mutex_lock = Some(v(VARS + 2));
                }
            }
        }
        specs
    }

    #[test]
    fn flat_table_matches_the_spec_list_model() {
        let (mut valid, mut invalid) = (0, 0);
        for stream in 0..400u64 {
            let mut rng = sesame_sim::DetRng::new(0x6373_7274_6162 ^ stream);
            let specs = random_specs(&mut rng);
            let mut builder = GroupTableBuilder::new(NODES as usize);
            for spec in &specs {
                builder.push(spec);
            }
            let built = builder.finish();
            let table = GroupTable::new(specs.clone());
            assert_eq!(
                built.as_ref().err(),
                table.as_ref().err(),
                "stream {stream}: builder and new() disagree"
            );
            if let Err(want) = model_validate(&specs) {
                assert_eq!(table.unwrap_err(), want, "stream {stream}: {specs:?}");
                invalid += 1;
                continue;
            }
            valid += 1;
            let t = table.unwrap_or_else(|e| panic!("stream {stream}: {e} for {specs:?}"));
            assert_eq!(t.len(), specs.len());
            let mut base = 0;
            for (i, spec) in specs.iter().enumerate() {
                let id = GroupId::new(i as u32);
                let g = t.group(id);
                assert_eq!(
                    (g.id(), g.root(), g.members(), g.vars(), g.mutex_lock()),
                    (
                        id,
                        spec.root,
                        &spec.members[..],
                        &spec.vars[..],
                        spec.mutex_lock
                    ),
                    "stream {stream} group {i}"
                );
                assert_eq!(g.is_mutex_group(), spec.mutex_lock.is_some());
                assert_eq!(t.slot_base(id), base, "stream {stream} group {i}");
                for node in (0..NODES + 2).map(n) {
                    let rank = spec.members.iter().position(|&m| m == node);
                    assert_eq!(
                        g.member_rank(node),
                        rank.map(|r| r as u32),
                        "{node} in {spec:?}"
                    );
                    assert_eq!(g.is_member(node), rank.is_some());
                    assert_eq!(t.member_slot(id, node), rank.map(|r| base + r));
                }
                base += spec.members.len();
            }
            assert_eq!(t.member_slots(), base);
            // The index answers like the map it replaced: every declared
            // variable, its neighbours (one past the largest among them),
            // and both ends of the id space.
            let map: HashMap<VarId, usize> = (specs.iter().enumerate())
                .flat_map(|(i, s)| s.vars.iter().map(move |&var| (var, i)))
                .collect();
            let probes = map.keys().flat_map(|var| {
                let id = var.get();
                [id.saturating_sub(1), id, id.saturating_add(1)]
            });
            for var in probes.chain([0, u32::MAX]).map(v) {
                assert_eq!(
                    t.group_of(var).map(|g| g.id().index()),
                    map.get(&var).copied(),
                    "stream {stream}: owner of {var}"
                );
            }
        }
        assert!(
            valid > 100 && invalid > 50,
            "{valid} valid, {invalid} invalid"
        );
    }

    #[test]
    fn a_variable_claimed_twice_is_reported_before_a_later_fault() {
        // A duplicate var in group 3 and an empty var list in group 5: the
        // per-push check stopped at group 3, so the index must too.
        let mut specs: Vec<GroupSpec> = (0..7).map(|g| spec(0, &[0], &[g], None)).collect();
        specs[3].vars.push(v(1));
        specs[5].vars.clear();
        assert_eq!(
            GroupTable::new(specs.clone()).unwrap_err(),
            GroupConfigError::DuplicateVar(v(1))
        );
        // With the order swapped, the structural fault comes first.
        specs[1].vars.clear();
        assert_eq!(
            GroupTable::new(specs).unwrap_err(),
            GroupConfigError::EmptyVars(GroupId::new(1))
        );
        // A group with both a repeated member and a repeated var reports
        // the member, which its own checks reach first.
        assert_eq!(
            GroupTable::new(vec![
                spec(0, &[0], &[1], None),
                spec(0, &[2, 1, 2], &[1], None)
            ])
            .unwrap_err(),
            GroupConfigError::DuplicateMember(GroupId::new(1), n(2))
        );
    }

    #[test]
    fn the_earliest_declared_repeat_is_the_one_reported() {
        let dup = |specs: Vec<GroupSpec>| match GroupTable::new(specs).unwrap_err() {
            GroupConfigError::DuplicateVar(var) => var.get(),
            e => panic!("{e}"),
        };
        // Inside one spec: 7 repeats before 5 does.
        assert_eq!(dup(vec![spec(0, &[0], &[5, 7, 7, 5], None)]), 7);
        // Across specs: group 1 repeats 2 before 1, though 1 sorts first.
        assert_eq!(
            dup(vec![
                spec(0, &[0], &[1, 2], None),
                spec(0, &[0], &[3, 2, 1], None)
            ]),
            2
        );
        // A repeat inside the later spec that precedes one across specs.
        assert_eq!(
            dup(vec![
                spec(0, &[0], &[1], None),
                spec(0, &[0], &[8, 8, 1], None)
            ]),
            8
        );
    }

    #[test]
    fn a_var_id_at_the_bound_is_refused_before_it_sizes_the_index() {
        let top = VAR_ID_BOUND - 1;
        let t = GroupTable::new(vec![spec(0, &[0], &[top, 0], Some(top))]).unwrap();
        assert_eq!(t.group_of(v(top)).map(|g| g.id()), Some(GroupId::new(0)));
        assert_eq!(t.group(GroupId::new(0)).mutex_lock(), Some(v(top)));
        assert!(t.group_of(v(VAR_ID_BOUND)).is_none());
        // The id at the bound: the group's earlier variable is claimed,
        // and the index stays as long as that one needs.
        let mut b = GroupTableBuilder::new(1);
        b.push(&spec(0, &[0], &[3, VAR_ID_BOUND, u32::MAX], None));
        assert!(b.table.var_group.capacity() <= 8);
        let err = b.finish().unwrap_err();
        assert_eq!(
            err,
            GroupConfigError::VarOutOfRange(GroupId::new(0), v(VAR_ID_BOUND))
        );
        assert!(err.to_string().contains("not below 16777216"), "{err}");
    }

    #[test]
    fn group_head_is_twenty_bytes() {
        assert_eq!(std::mem::size_of::<GroupHead>(), 20);
    }

    #[test]
    fn builder_keeps_the_first_error_and_ignores_later_groups() {
        let mut b = GroupTableBuilder::new(4);
        assert!(b.is_empty());
        b.push(&spec(0, &[0, 1], &[0], None));
        b.push(&spec(0, &[3, 2, 3], &[1], None)); // first error
        b.push(&spec(0, &[], &[2], None)); // would be another
        assert_eq!(b.len(), 1, "only the valid group was accepted");
        assert_eq!(
            b.finish().unwrap_err(),
            GroupConfigError::DuplicateMember(GroupId::new(1), n(3))
        );
    }
}

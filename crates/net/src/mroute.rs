//! Member-pruned multicast routes, built from unicast paths and stored
//! packed.
//!
//! [`SpanningTree`](crate::SpanningTree) materializes a full BFS tree over
//! *every* position of the topology — `O(positions)` memory per distinct
//! root, and `O(positions)` work per multicast to walk it. That is the
//! right structure when a group spans the whole machine, but a 100k-node
//! mesh hosting thousands of small groups would spend almost all of its
//! memory and multicast time on positions that never receive anything.
//!
//! A pruned route is the alternative: the union of the topology's
//! deterministic shortest paths from the root to each *member*, stored
//! over a compact local index space that contains only the positions those
//! paths touch. Construction costs `O(sum of member path lengths)` and a
//! multicast walks exactly the pruned edge set.
//!
//! # One layout, two owners
//!
//! A machine that scales by sharding has more groups than nodes, so a
//! route is stored as **one run of 32-bit words**, not as a struct of
//! vectors:
//!
//! ```text
//! nodes[n] | parent[n] | depth[n] | members[m] | wave_nodes[m] | wave_offsets[w + 1] | wave_depths[w]
//! ```
//!
//! (`n` positions, `m` members, `w` waves — 15 words for a two-member
//! hand-off group.) [`RouteArena`] packs every route of a machine into
//! append-only storage with a fixed-size header per route and builds them
//! lazily through retained scratch; [`MulticastRoute`] is the same layout
//! owning a single route. Both hand out the borrowed [`RouteRef`] view,
//! which carries all the accessors.
//!
//! # Determinism and equivalence
//!
//! * Construction is a pure function of `(topology, root, member order)`:
//!   [`Topology::route_into`] is deterministic, members are walked in
//!   declared order, and first-wins parent assignment breaks any tie the
//!   same way every run. No hashing, no RNG.
//! * Under cut-through timing (the paper's model) a member's arrival time
//!   depends only on its hop depth, and every route is a shortest path — so
//!   arrival times equal what [`Fabric::multicast`](crate::Fabric::multicast)
//!   computes over the full BFS tree. Only the *traffic accounting*
//!   differs: the pruned route traverses (and bills) only edges that lead
//!   to members, while the full tree floods every position.

use crate::{LinkId, NodeId, Topology};

/// Section lengths of one packed route; with the section order fixed they
/// determine where every section starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    /// Positions the route materializes (root included).
    nodes: u32,
    /// Members delivered to (duplicates counted).
    members: u32,
    /// Distinct member hop depths.
    waves: u32,
}

impl Shape {
    /// Total words of a route of this shape.
    fn words(self) -> usize {
        3 * self.nodes as usize + 2 * self.members as usize + 2 * self.waves as usize + 1
    }
}

/// A borrowed view of one packed route — out of a [`RouteArena`] or a
/// [`MulticastRoute`] — split into its sections once, so every accessor
/// is a plain slice index.
///
/// Local index `0` is always the root; every other node's parent appears
/// at a smaller local index, so walking `1..len` visits parents before
/// children — the order a downstream multicast wave advances.
#[derive(Debug, Clone, Copy)]
pub struct RouteRef<'a> {
    /// Local index -> position. `nodes[0]` is the root.
    nodes: &'a [u32],
    /// Local parent index; `parent[0] == 0` (the root is its own parent).
    parent: &'a [u32],
    /// Hop depth from the root (equals the topology's shortest-path hops).
    depth: &'a [u32],
    /// Local indices of the group members, in declared member order.
    members: &'a [u32],
    /// Member positions regrouped into fan-out waves: positions sharing
    /// one hop depth, waves in ascending depth order, members inside a
    /// wave in declared member order. Sliced by `wave_offsets`.
    wave_nodes: &'a [u32],
    /// `wave_offsets[w]..wave_offsets[w + 1]` indexes wave `w` in
    /// `wave_nodes`; always one longer than `wave_depths`.
    wave_offsets: &'a [u32],
    /// Hop depth of each wave, strictly ascending.
    wave_depths: &'a [u32],
}

impl<'a> RouteRef<'a> {
    fn new(words: &'a [u32], shape: Shape) -> Self {
        let (n, m) = (shape.nodes as usize, shape.members as usize);
        let (nodes, rest) = words.split_at(n);
        let (parent, rest) = rest.split_at(n);
        let (depth, rest) = rest.split_at(n);
        let (members, rest) = rest.split_at(m);
        let (wave_nodes, rest) = rest.split_at(m);
        let (wave_offsets, wave_depths) = rest.split_at(shape.waves as usize + 1);
        debug_assert_eq!(wave_depths.len(), shape.waves as usize);
        RouteRef {
            nodes,
            parent,
            depth,
            members,
            wave_nodes,
            wave_offsets,
            wave_depths,
        }
    }

    /// The route's root (the group's sequencing arbiter).
    pub fn root(self) -> NodeId {
        self.node(0)
    }

    /// Number of positions the pruned route materializes (root included).
    pub fn len(self) -> usize {
        self.nodes.len()
    }

    /// Whether the route is empty (never true: the root is always present).
    pub fn is_empty(self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of directed edges a multicast traverses — one per non-root
    /// position, since the union of root-anchored paths is a tree.
    pub fn edge_count(self) -> usize {
        self.len() - 1
    }

    /// Number of members the route delivers to.
    pub fn member_count(self) -> usize {
        self.members.len()
    }

    /// The position at local index `i` (`0` is the root).
    pub fn node(self, i: usize) -> NodeId {
        NodeId::new(self.nodes[i])
    }

    /// The local parent index of local index `i`; parents always have
    /// smaller indices, so `1..len` walks parents before children.
    pub fn parent_of(self, i: usize) -> usize {
        self.parent[i] as usize
    }

    /// Hop depth of local index `i` from the root (equals the topology's
    /// shortest-path distance).
    pub fn depth_of(self, i: usize) -> u32 {
        self.depth[i]
    }

    /// The members' local indices in declared member order — the order
    /// arrival lists are produced in, mirroring
    /// [`Fabric::multicast`](crate::Fabric::multicast)'s member order.
    pub fn member_indices(self) -> impl ExactSizeIterator<Item = usize> + 'a {
        self.members.iter().map(|&i| i as usize)
    }

    /// Number of fan-out waves: distinct member hop depths. Under
    /// cut-through timing with a nonzero hop latency every member of one
    /// wave receives the multicast at the same instant, and no two waves
    /// share an instant — so a fan-out is exactly one queue event per wave.
    pub fn wave_count(self) -> usize {
        self.wave_depths.len()
    }

    /// Hop depth of wave `w` (waves are ordered by strictly ascending
    /// depth, so this is also ascending arrival order).
    pub fn wave_depth(self, w: usize) -> u32 {
        self.wave_depths[w]
    }

    /// The members of wave `w`, in declared member order, read straight
    /// out of the packed route: iterating a fan-out materializes nothing.
    pub fn wave(self, w: usize) -> impl ExactSizeIterator<Item = NodeId> + 'a {
        let (start, end) = (self.wave_offsets[w], self.wave_offsets[w + 1]);
        self.wave_nodes[start as usize..end as usize]
            .iter()
            .map(|&n| NodeId::new(n))
    }

    /// The largest member hop depth (0 when the only member is the root,
    /// or when there are no members at all) — the depth of the last wave,
    /// which determines the end of the whole fan-out interval.
    pub fn max_depth(self) -> u32 {
        self.wave_depths.last().copied().unwrap_or(0)
    }
}

/// Build-time state of the route builder, retained between builds so the
/// N-th route of an arena allocates nothing.
#[derive(Debug, Default)]
struct RouteScratch {
    /// Sorted `(position, local index)` pairs: membership lookup while the
    /// path union grows.
    index: Vec<(NodeId, u32)>,
    /// The unicast path being walked.
    path: Vec<LinkId>,
    nodes: Vec<u32>,
    parent: Vec<u32>,
    depth: Vec<u32>,
    members: Vec<u32>,
    /// Distinct member depths, ascending.
    wave_depths: Vec<u32>,
    /// Wave start offsets, then per-wave write cursors.
    wave_cursor: Vec<u32>,
}

impl RouteScratch {
    /// Builds the pruned route for `members` rooted at `root` — walking
    /// `topo`'s deterministic shortest path to each member in declared
    /// order and unioning the paths (first-wins parent assignment) — and
    /// leaves its sections in the scratch for [`RouteScratch::pack_into`].
    /// The shape says how many words that will take, so the caller can
    /// choose where they go.
    fn walk(&mut self, topo: &dyn Topology, root: NodeId, members: &[NodeId]) -> Shape {
        assert!(root.index() < topo.positions(), "root out of range");
        self.index.clear();
        self.nodes.clear();
        self.parent.clear();
        self.depth.clear();
        self.members.clear();
        self.index.push((root, 0));
        self.nodes.push(root.get());
        self.parent.push(0);
        self.depth.push(0);
        for &member in members {
            assert!(member.index() < topo.positions(), "member out of range");
            topo.route_into(root, member, &mut self.path);
            let mut at = 0u32; // local index of the walk position (starts at root)
            for link in &self.path {
                debug_assert_eq!(link.from_node().get(), self.nodes[at as usize]);
                let next = link.to_node();
                at = match self.index.binary_search_by_key(&next, |&(n, _)| n) {
                    Ok(found) => {
                        // Already reached along an earlier member's path.
                        // Both paths are shortest, so the depths must agree.
                        let existing = self.index[found].1;
                        debug_assert_eq!(
                            self.depth[existing as usize],
                            self.depth[at as usize] + 1
                        );
                        existing
                    }
                    Err(pos) => {
                        let idx = u32::try_from(self.nodes.len()).expect("route too large");
                        self.nodes.push(next.get());
                        self.parent.push(at);
                        self.depth.push(self.depth[at as usize] + 1);
                        self.index.insert(pos, (next, idx));
                        idx
                    }
                };
            }
            self.members.push(at);
        }

        // Waves: members regrouped by hop depth, waves in ascending depth
        // order, members inside a wave in declared order (a stable
        // counting sort over the distinct depths).
        let depth = &self.depth;
        self.wave_depths.clear();
        self.wave_depths
            .extend(self.members.iter().map(|&i| depth[i as usize]));
        self.wave_depths.sort_unstable();
        self.wave_depths.dedup();
        self.wave_cursor.clear();
        self.wave_cursor.resize(self.wave_depths.len() + 1, 0);
        for &i in &self.members {
            self.wave_cursor[wave_of(&self.wave_depths, depth[i as usize]) + 1] += 1;
        }
        for w in 1..self.wave_cursor.len() {
            self.wave_cursor[w] += self.wave_cursor[w - 1];
        }

        Shape {
            nodes: self.nodes.len() as u32,
            members: u32::try_from(self.members.len()).expect("route too large"),
            waves: self.wave_depths.len() as u32,
        }
    }

    /// Appends the packed words of the route last walked to `out`, which
    /// the caller has sized for them.
    fn pack_into(&mut self, out: &mut Vec<u32>) {
        let start = out.len();
        out.extend_from_slice(&self.nodes);
        out.extend_from_slice(&self.parent);
        out.extend_from_slice(&self.depth);
        out.extend_from_slice(&self.members);
        let wave_nodes = out.len();
        out.resize(wave_nodes + self.members.len(), 0);
        out.extend_from_slice(&self.wave_cursor);
        out.extend_from_slice(&self.wave_depths);
        for &i in &self.members {
            let cursor = &mut self.wave_cursor[wave_of(&self.wave_depths, self.depth[i as usize])];
            out[wave_nodes + *cursor as usize] = self.nodes[i as usize];
            *cursor += 1;
        }
        debug_assert_eq!(
            out.len() - start,
            3 * self.nodes.len() + 2 * self.members.len() + 2 * self.wave_depths.len() + 1
        );
    }
}

/// The wave — index into the ascending distinct member depths — of a
/// member at hop depth `depth`.
fn wave_of(wave_depths: &[u32], depth: u32) -> usize {
    wave_depths
        .binary_search(&depth)
        .expect("every member depth is a wave depth")
}

/// One pruned route, owned: the union of deterministic shortest paths from
/// one root to each group member, indexed compactly over just the positions
/// those paths visit. Same packed layout as a [`RouteArena`] entry; read
/// it through [`MulticastRoute::view`].
///
/// ```
/// use sesame_net::{MeshTorus2d, MulticastRoute, NodeId};
///
/// let topo = MeshTorus2d::new(32, 32); // 1024 positions
/// let members = [NodeId::new(0), NodeId::new(1), NodeId::new(2)];
/// let route = MulticastRoute::build(&topo, NodeId::new(0), &members);
/// // Only the positions on the root->member paths are materialized.
/// assert_eq!(route.view().len(), 3);
/// assert_eq!(route.view().edge_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct MulticastRoute {
    words: Vec<u32>,
    shape: Shape,
}

impl MulticastRoute {
    /// Builds the pruned route for `members` rooted at `root` by walking
    /// `topo`'s deterministic shortest path to each member in declared
    /// order and unioning the paths (first-wins parent assignment).
    ///
    /// # Panics
    ///
    /// Panics if `root` or a member is not a valid topology position, or if
    /// a route step is inconsistent with the path walked so far (both
    /// indicate a broken [`Topology::route_into`] implementation).
    pub fn build(topo: &dyn Topology, root: NodeId, members: &[NodeId]) -> Self {
        let mut scratch = RouteScratch::default();
        let shape = scratch.walk(topo, root, members);
        let mut words = Vec::with_capacity(shape.words());
        scratch.pack_into(&mut words);
        MulticastRoute { words, shape }
    }

    /// The borrowed view carrying the accessors.
    pub fn view(&self) -> RouteRef<'_> {
        RouteRef::new(&self.words, self.shape)
    }
}

impl<'a> From<&'a MulticastRoute> for RouteRef<'a> {
    fn from(route: &'a MulticastRoute) -> Self {
        route.view()
    }
}

/// Where one route of a [`RouteArena`] lives.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The block holding the route; [`NO_BLOCK`] until its first use.
    block: u32,
    /// First word of the route within its block.
    at: u32,
    shape: Shape,
}

/// The block index that names no block.
const NO_BLOCK: u32 = u32::MAX;

impl Slot {
    const UNBUILT: Slot = Slot {
        block: NO_BLOCK,
        at: 0,
        shape: Shape {
            nodes: 0,
            members: 0,
            waves: 0,
        },
    };
}

/// Every pruned route of one machine, packed.
///
/// Routes are addressed by a dense caller-chosen id (the machine uses the
/// group id) and built lazily on first use. The arena is **append-only**:
/// a built route never moves and is never dropped, so an id — or a
/// `(id, wave)` pair queued in an event — stays valid for the arena's
/// lifetime. Building reuses retained scratch, so after warm-up a new
/// route costs no allocation beyond the occasional new block.
///
/// Storage **grows to fit**: routes are appended to blocks that are never
/// reallocated, and a new block is sized so that the arena as a whole
/// holds at most 9/8 of the words its routes use (see
/// [`RouteArena::get_or_build`]). A million routes therefore cost their
/// own words plus an eighth — not the up-to-double of a doubling buffer,
/// and nothing is ever copied or left behind for the allocator to strand.
#[derive(Debug, Default)]
pub struct RouteArena {
    /// Route words. A route lies whole inside one block.
    blocks: Vec<Vec<u32>>,
    /// The block being filled with routes of `2^k..2^(k+1)` words, by `k`
    /// ([`NO_BLOCK`] until one exists). One per size class, so a wide
    /// route that does not fit where narrow ones are being packed opens a
    /// block of its own instead of closing theirs half full.
    open: Vec<u32>,
    /// Words held by routes, over all blocks.
    used: usize,
    /// Words allocated, over all blocks.
    capacity: usize,
    slots: Vec<Slot>,
    scratch: RouteScratch,
}

impl RouteArena {
    /// An arena with headers for route ids `0..routes` (none built yet).
    /// Ids beyond that still work; their headers are added on demand.
    pub fn with_routes(routes: usize) -> Self {
        RouteArena {
            slots: vec![Slot::UNBUILT; routes],
            ..RouteArena::default()
        }
    }

    /// The route with the given id, if it has been built.
    pub fn get(&self, id: usize) -> Option<RouteRef<'_>> {
        let slot = *self.slots.get(id)?;
        let block = self.blocks.get(slot.block as usize)?;
        let at = slot.at as usize;
        Some(RouteRef::new(
            &block[at..at + slot.shape.words()],
            slot.shape,
        ))
    }

    /// The route with the given id, built now from `(topo, root, members)`
    /// if this is its first use (see [`MulticastRoute::build`], including
    /// the panics). Later calls ignore the arguments: a route is a pure
    /// function of the topology and its group, both fixed for a machine.
    pub fn get_or_build(
        &mut self,
        id: usize,
        topo: &dyn Topology,
        root: NodeId,
        members: &[NodeId],
    ) -> RouteRef<'_> {
        if id >= self.slots.len() {
            self.slots.resize(id + 1, Slot::UNBUILT);
        }
        if self.slots[id].block == NO_BLOCK {
            let shape = self.scratch.walk(topo, root, members);
            let need = shape.words();
            let class = need.ilog2() as usize;
            if class >= self.open.len() {
                self.open.resize(class + 1, NO_BLOCK);
            }
            // Its own class's block first, then any other open block.
            let into = std::iter::once(self.open[class])
                .chain(self.open.iter().copied())
                .find(|&b| {
                    let block = self.blocks.get(b as usize);
                    block.is_some_and(|b| b.capacity() - b.len() >= need)
                });
            let into = into.unwrap_or_else(|| {
                // A new block: room for this route and as many more like it
                // as keep the whole arena within 9/8 of the words in use
                // once this one is in. (Whole routes, because a tail that
                // nothing fits into would be charged to that eighth for
                // good.) `capacity <= 9/8 * used` then holds after every
                // build, by induction.
                let within = (self.used + need) * 9 / 8;
                let spare = within.saturating_sub(self.capacity + need);
                let block = need * (1 + spare / need);
                let new = u32::try_from(self.blocks.len()).expect("fewer than 2^32 blocks");
                self.open[class] = new;
                self.blocks.push(Vec::with_capacity(block));
                self.capacity += block;
                new
            });
            let block = &mut self.blocks[into as usize];
            self.slots[id] = Slot {
                block: into,
                at: u32::try_from(block.len()).expect("route block exceeds 2^32 words"),
                shape,
            };
            self.scratch.pack_into(block);
            self.used += need;
        }
        self.get(id).expect("route was just built")
    }

    /// Heap bytes of route storage the arena holds — packed words and
    /// per-route headers, by capacity. Zero until a header or route exists.
    pub fn heap_bytes(&self) -> usize {
        (self.capacity + self.open.capacity()) * std::mem::size_of::<u32>()
            + self.blocks.capacity() * std::mem::size_of::<Vec<u32>>()
            + self.slots.capacity() * std::mem::size_of::<Slot>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fabric, Hypercube, LinkTiming, MeshTorus2d, Ring, SpanningTree, Star};
    use sesame_sim::{DetRng, SimTime};

    fn n(id: u32) -> NodeId {
        NodeId::new(id)
    }

    #[test]
    fn union_of_paths_is_a_tree_with_shortest_depths() {
        let topo = MeshTorus2d::new(6, 6);
        let members: Vec<NodeId> = [0u32, 7, 14, 21, 35].map(n).to_vec();
        let route = MulticastRoute::build(&topo, n(0), &members);
        let route = route.view();
        assert_eq!(route.edge_count(), route.len() - 1);
        for i in 0..route.len() {
            assert_eq!(
                route.depth_of(i),
                topo.hops(n(0), route.node(i)),
                "node {}",
                route.node(i)
            );
            if i > 0 {
                assert!(route.parent_of(i) < i, "parents precede children");
                assert_eq!(route.depth_of(route.parent_of(i)) + 1, route.depth_of(i));
            }
        }
    }

    #[test]
    fn prunes_positions_off_the_member_paths() {
        let topo = MeshTorus2d::new(32, 32);
        // A row-local group touches only its own row.
        let members: Vec<NodeId> = (0..4).map(n).collect();
        let route = MulticastRoute::build(&topo, n(0), &members);
        let route = route.view();
        assert_eq!(route.len(), 4);
        assert_eq!(route.member_count(), 4);
        assert!(route.len() < topo.positions());
    }

    #[test]
    fn arrival_times_match_full_tree_multicast() {
        for topo in [
            &MeshTorus2d::new(5, 4) as &dyn Topology,
            &Ring::new(9),
            &Star::new(7),
        ] {
            let root = n(1);
            let members: Vec<NodeId> = (0..topo.len() as u32).step_by(2).map(n).collect();
            let tree = SpanningTree::build(topo, root);
            let route = MulticastRoute::build(topo, root, &members);

            let mut full = Fabric::new(LinkTiming::paper_1994());
            let want = full.multicast(SimTime::ZERO, &tree, 125, &members);
            let mut pruned = Fabric::new(LinkTiming::paper_1994());
            let mut got = Vec::new();
            pruned.multicast_route_into(SimTime::ZERO, &route, 125, &mut got);

            assert_eq!(got, want, "topo {topo:?}");
            // The pruned route never traverses more edges than the flood.
            assert!(
                pruned.stats().link_traversals <= full.stats().link_traversals,
                "topo {topo:?}"
            );
        }
    }

    #[test]
    fn waves_group_members_by_depth_in_declared_order() {
        let topo = MeshTorus2d::new(8, 8);
        // Declared order deliberately scrambles depths so the arena has to
        // regroup without reordering within a depth.
        let members: Vec<NodeId> = [3u32, 0, 1, 11, 2, 19].map(n).to_vec();
        let route = MulticastRoute::build(&topo, n(0), &members);
        let route = route.view();

        // Reference grouping: declared order filtered per depth.
        let mut by_depth: std::collections::BTreeMap<u32, Vec<NodeId>> =
            std::collections::BTreeMap::new();
        for &m in &members {
            by_depth.entry(topo.hops(n(0), m)).or_default().push(m);
        }
        assert_eq!(route.wave_count(), by_depth.len());
        for (w, (depth, want)) in by_depth.iter().enumerate() {
            assert_eq!(route.wave_depth(w), *depth);
            assert!(
                route.wave(w).eq(want.iter().copied()),
                "wave at depth {depth}"
            );
        }
        let total: usize = (0..route.wave_count()).map(|w| route.wave(w).len()).sum();
        assert_eq!(total, route.member_count());
        assert_eq!(route.max_depth(), *by_depth.keys().last().unwrap());
    }

    #[test]
    fn waves_match_arrival_time_grouping() {
        // The contract the dispatch fast path relies on: with cut-through
        // timing and nonzero hop latency, grouping members by arrival time
        // (what the event layer used to compute per multicast) equals
        // grouping by hop depth (what the arena precomputes once).
        for topo in [
            &MeshTorus2d::new(6, 5) as &dyn Topology,
            &Ring::new(11),
            &Star::new(6),
        ] {
            let root = n(2);
            let members: Vec<NodeId> = (0..topo.len() as u32).rev().map(n).collect();
            let route = MulticastRoute::build(topo, root, &members);
            let route = route.view();
            let mut fabric = Fabric::new(LinkTiming::paper_1994());
            let mut arrivals = Vec::new();
            fabric.multicast_route_into(SimTime::ZERO, route, 125, &mut arrivals);

            let mut by_time: std::collections::BTreeMap<SimTime, Vec<NodeId>> =
                std::collections::BTreeMap::new();
            for (m, at) in arrivals {
                by_time.entry(at).or_default().push(m);
            }
            assert_eq!(route.wave_count(), by_time.len(), "topo {topo:?}");
            for (w, wave) in by_time.values().enumerate() {
                assert!(
                    route.wave(w).eq(wave.iter().copied()),
                    "topo {topo:?} wave {w}"
                );
            }
        }
    }

    #[test]
    fn duplicate_members_appear_in_their_wave_twice() {
        let topo = Ring::new(8);
        let route = MulticastRoute::build(&topo, n(0), &[n(1), n(1), n(0)]);
        let route = route.view();
        assert_eq!(route.member_count(), 3);
        assert_eq!(route.wave_count(), 2);
        assert!(route.wave(0).eq([n(0)]));
        assert!(route.wave(1).eq([n(1), n(1)]));
    }

    #[test]
    fn empty_member_list_has_no_waves() {
        let topo = Ring::new(4);
        let route = MulticastRoute::build(&topo, n(1), &[]);
        let route = route.view();
        assert_eq!(route.wave_count(), 0);
        assert_eq!(route.max_depth(), 0);
    }

    #[test]
    fn root_member_is_depth_zero() {
        let topo = Ring::new(6);
        let route = MulticastRoute::build(&topo, n(2), &[n(2), n(4)]);
        let route = route.view();
        let idxs: Vec<usize> = route.member_indices().collect();
        assert_eq!(idxs[0], 0);
        assert_eq!(route.depth_of(idxs[0]), 0);
    }

    /// The representation this module used before routes were packed — a
    /// struct of vectors grown member by member, with waves spliced in as
    /// they appear — kept as the reference model the packed builder is
    /// compared against.
    #[derive(Debug, Default)]
    struct ReferenceRoute {
        nodes: Vec<NodeId>,
        index: Vec<(NodeId, u32)>,
        parent: Vec<u32>,
        depth: Vec<u32>,
        members: Vec<u32>,
        wave_nodes: Vec<NodeId>,
        wave_offsets: Vec<u32>,
        wave_depths: Vec<u32>,
    }

    impl ReferenceRoute {
        fn build(topo: &dyn Topology, root: NodeId, members: &[NodeId]) -> Self {
            let mut route = ReferenceRoute {
                nodes: vec![root],
                index: vec![(root, 0)],
                parent: vec![0],
                depth: vec![0],
                wave_offsets: vec![0],
                ..ReferenceRoute::default()
            };
            for &m in members {
                route.add_member(topo, root, m);
            }
            route
        }

        fn add_member(&mut self, topo: &dyn Topology, root: NodeId, member: NodeId) {
            let mut at = 0u32;
            for link in topo.route(root, member) {
                let next = link.to_node();
                at = match self.index.binary_search_by_key(&next, |&(n, _)| n) {
                    Ok(i) => self.index[i].1,
                    Err(pos) => {
                        let idx = self.nodes.len() as u32;
                        self.nodes.push(next);
                        self.parent.push(at);
                        self.depth.push(self.depth[at as usize] + 1);
                        self.index.insert(pos, (next, idx));
                        idx
                    }
                };
            }
            self.members.push(at);
            let d = self.depth[at as usize];
            let node = self.nodes[at as usize];
            match self.wave_depths.binary_search(&d) {
                Ok(w) => {
                    let end = self.wave_offsets[w + 1] as usize;
                    self.wave_nodes.insert(end, node);
                    for off in &mut self.wave_offsets[w + 1..] {
                        *off += 1;
                    }
                }
                Err(w) => {
                    let start = self.wave_offsets[w] as usize;
                    self.wave_nodes.insert(start, node);
                    self.wave_depths.insert(w, d);
                    self.wave_offsets.insert(w + 1, self.wave_offsets[w] + 1);
                    for off in &mut self.wave_offsets[w + 2..] {
                        *off += 1;
                    }
                }
            }
        }

        fn assert_matches(&self, got: RouteRef<'_>, what: &str) {
            assert_eq!(got.len(), self.nodes.len(), "{what}: len");
            assert_eq!(got.edge_count(), self.nodes.len() - 1, "{what}: edges");
            assert_eq!(got.root(), self.nodes[0], "{what}: root");
            for i in 0..self.nodes.len() {
                assert_eq!(got.node(i), self.nodes[i], "{what}: node {i}");
                assert_eq!(
                    got.parent_of(i),
                    self.parent[i] as usize,
                    "{what}: parent {i}"
                );
                assert_eq!(got.depth_of(i), self.depth[i], "{what}: depth {i}");
            }
            assert_eq!(got.member_count(), self.members.len(), "{what}: members");
            assert!(
                got.member_indices()
                    .eq(self.members.iter().map(|&i| i as usize)),
                "{what}: member indices"
            );
            assert_eq!(got.wave_count(), self.wave_depths.len(), "{what}: waves");
            for w in 0..self.wave_depths.len() {
                assert_eq!(got.wave_depth(w), self.wave_depths[w], "{what}: wave {w}");
                let (a, b) = (self.wave_offsets[w], self.wave_offsets[w + 1]);
                assert!(
                    got.wave(w)
                        .eq(self.wave_nodes[a as usize..b as usize].iter().copied()),
                    "{what}: wave {w} members"
                );
            }
            assert_eq!(
                got.max_depth(),
                self.wave_depths.last().copied().unwrap_or(0),
                "{what}: max depth"
            );
        }
    }

    /// A random `(root, member list)` over `topo`: members drawn with
    /// replacement (so duplicates occur), sometimes the root itself,
    /// sometimes nobody.
    fn random_group(rng: &mut DetRng, topo: &dyn Topology) -> (NodeId, Vec<NodeId>) {
        let positions = topo.positions() as u64;
        let root = n(rng.next_below(positions) as u32);
        let count = match rng.next_below(8) {
            0 => 0,
            1 => 1,
            _ => rng.next_below(2 * positions.min(24)) as usize,
        };
        let mut members: Vec<NodeId> = (0..count)
            .map(|_| n(rng.next_below(positions) as u32))
            .collect();
        if count > 0 && rng.chance(0.3) {
            let at = rng.next_below(count as u64) as usize;
            members[at] = root;
        }
        (root, members)
    }

    #[test]
    fn packed_routes_match_the_reference_builder() {
        let topos: [Box<dyn Topology>; 5] = [
            Box::new(MeshTorus2d::new(7, 5)),
            Box::new(MeshTorus2d::with_nodes(10)), // trailing router-only positions
            Box::new(Ring::new(13)),
            Box::new(Star::new(9)),
            Box::new(Hypercube::new(4)),
        ];
        for stream in 0..24u64 {
            let mut rng = DetRng::new(0x6d72_6f75_7465 ^ stream);
            let topo = topos[(stream % topos.len() as u64) as usize].as_ref();
            let groups: Vec<(NodeId, Vec<NodeId>)> =
                (0..40).map(|_| random_group(&mut rng, topo)).collect();
            let refs: Vec<ReferenceRoute> = groups
                .iter()
                .map(|(root, members)| ReferenceRoute::build(topo, *root, members))
                .collect();

            for (g, (root, members)) in groups.iter().enumerate() {
                let owned = MulticastRoute::build(topo, *root, members);
                refs[g].assert_matches(owned.view(), &format!("stream {stream} owned {g}"));
            }

            // The same routes appended to one arena in shuffled group
            // order, every earlier route re-read after each append.
            let mut order: Vec<usize> = (0..groups.len()).collect();
            rng.shuffle(&mut order);
            let mut arena = RouteArena::with_routes(groups.len() / 2); // headers grow on demand
            for (k, &g) in order.iter().enumerate() {
                assert!(arena.get(g).is_none(), "stream {stream}: {g} not built yet");
                let (root, members) = &groups[g];
                let built = arena.get_or_build(g, topo, *root, members);
                refs[g].assert_matches(built, &format!("stream {stream} arena {g}"));
                for &earlier in &order[..k] {
                    let again = arena.get(earlier).expect("append-only");
                    refs[earlier].assert_matches(again, &format!("stream {stream} reread"));
                }
            }
            // A second request is a lookup: the arguments are ignored.
            let again = arena.get_or_build(order[0], topo, n(0), &[]);
            refs[order[0]].assert_matches(again, "second get_or_build");
        }
    }

    #[test]
    fn two_member_route_packs_into_fifteen_words() {
        let topo = MeshTorus2d::new(6, 6);
        let route = MulticastRoute::build(&topo, n(3), &[n(3), n(4)]);
        assert_eq!(route.words.len(), 15);
        assert_eq!(std::mem::size_of::<Slot>(), 20, "header per group");
        let mut arena = RouteArena::default();
        assert_eq!(arena.heap_bytes(), 0, "an unused arena owns no heap");
        arena.get_or_build(0, &topo, n(3), &[n(3), n(4)]);
        assert_eq!(arena.used, 15);
        assert!(arena.heap_bytes() > 0);
    }

    #[test]
    fn arena_grows_to_fit_and_never_moves_a_route() {
        // A sharded mesh in miniature: one wide route per row, one
        // two-member route per node.
        let topo = MeshTorus2d::new(40, 40);
        let mut groups: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        for row in 0..40u32 {
            groups.push((n(row * 40), (0..40).map(|c| n(row * 40 + c)).collect()));
            for c in 0..40 {
                let me = row * 40 + c;
                groups.push((n(me), vec![n(me), n(row * 40 + (c + 1) % 40)]));
            }
        }
        // Built in group order — a wide route, forty narrow ones, and
        // again, the order in which a narrow block closed for every wide
        // route would spend the whole eighth on tails — and in a shuffled
        // order.
        let in_order: Vec<usize> = (0..groups.len()).collect();
        let mut shuffled = in_order.clone();
        DetRng::new(0x6172_656e).shuffle(&mut shuffled);
        for order in [in_order, shuffled] {
            let mut arena = RouteArena::with_routes(groups.len());
            let mut homes: Vec<(*const u32, usize)> = Vec::new();
            for &g in &order {
                let (root, members) = &groups[g];
                arena.get_or_build(g, &topo, *root, members);
                // Never more than an eighth of slack, at any point.
                assert!(
                    arena.capacity * 8 <= arena.used * 9,
                    "{} words allocated for {} in use",
                    arena.capacity,
                    arena.used
                );
                // A block, once allocated, is never reallocated.
                let new = &arena.blocks[homes.len()..];
                homes.extend(new.iter().map(|b| (b.as_ptr(), b.capacity())));
                let mut blocks = arena.blocks.iter().zip(&homes);
                assert!(blocks.all(|(b, &home)| (b.as_ptr(), b.capacity()) == home));
            }
            let held: usize = arena.blocks.iter().map(Vec::capacity).sum();
            assert_eq!(held, arena.capacity);
            assert_eq!(arena.blocks.iter().map(Vec::len).sum::<usize>(), arena.used);
            // Fitting is not paid for in allocator calls: blocks grow with
            // the arena, so 1640 routes take a few dozen of them.
            assert!(arena.blocks.len() <= 64, "{} blocks", arena.blocks.len());
            for (g, (root, members)) in groups.iter().enumerate() {
                let owned = MulticastRoute::build(&topo, *root, members);
                let (got, want) = (arena.get(g).expect("built"), owned.view());
                assert_eq!(got.nodes, want.nodes, "route {g}");
                assert_eq!(got.wave_nodes, want.wave_nodes, "route {g}");
            }
        }
    }
}

//! Member-pruned multicast routes, built from unicast paths and stored
//! packed, once per shape.
//!
//! [`SpanningTree`](crate::SpanningTree) keeps a BFS depth for *every*
//! position of the topology — `O(positions)` memory and build work per
//! distinct root, and a multicast bills every one of its edges. That is the
//! right structure when a group spans the whole machine, but a 100k-node
//! mesh hosting thousands of small groups would spend almost all of its
//! memory and multicast time on positions that never receive anything.
//!
//! A pruned route is the alternative: the union of the topology's
//! deterministic shortest paths from the root to each *member*.
//! Construction costs `O(sum of member path lengths)` and a multicast
//! bills exactly the pruned edge set.
//!
//! # One layout, in the topology's frame
//!
//! A route is stored as **one run of 32-bit words** holding only what a
//! fan-out reads:
//!
//! ```text
//! root | members[m] | depths[m] | wave_nodes[m] | wave_offsets[w + 1] | wave_depths[w]
//! ```
//!
//! (`m` members, `w` waves — 12 words for a two-member hand-off group.
//! The path union the builder walks is scratch; of it the route keeps
//! only its edge count, beside the words, which is what a fan-out bills.)
//! Positions (`root`, `members`, `wave_nodes`) are stored as offsets
//! from the root in the topology's [`Frame`]; depths and wave offsets are
//! not positions, and no shift changes them. On a torus or a ring,
//! routing commutes with shifting every position the same way, so two
//! groups whose root and members sit at the same offsets have the same
//! words: a machine that scales by sharding has more groups than nodes
//! but only a handful of group *shapes*.
//!
//! [`RouteArena`] therefore stores each shape once, appended to one
//! vector, finds it again by its first `m + 1` words (the offsets of the
//! root and the members), and keeps a 4-byte shape index per group; the
//! caller, which knows the group's root, supplies it to place the shape.
//! [`MulticastRoute`] is the same layout owning a single route.
//! Both hand out the borrowed [`RouteRef`] view, which carries the root
//! and the frame and places every position as it is read.
//!
//! # Determinism and equivalence
//!
//! * Construction is a pure function of `(topology, root, member order)`:
//!   [`Topology::route_into`] is deterministic and members are walked in
//!   declared order. No RNG; the shape index hashes, but a lookup
//!   compares the offsets themselves, so what it finds is exact.
//! * Placed through its frame, a shared shape reads exactly as the route
//!   built for the group itself would (the frame's contract, see
//!   [`Frame`]).
//! * Under cut-through timing (the paper's model) a member's arrival time
//!   depends only on its hop depth, and every route is a shortest path — so
//!   arrival times equal what
//!   [`Fabric::multicast_into`](crate::Fabric::multicast_into) computes
//!   over the full BFS tree. Only the *traffic accounting*
//!   differs: the pruned route traverses (and bills) only edges that lead
//!   to members, while the full tree floods every position.

use crate::{Frame, LinkId, NodeId, Topology};

/// Section lengths of one packed route, which with the section order
/// fixed determine where every section starts, and the edge count a
/// fan-out bills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shape {
    /// Links a fan-out crosses: the positions the path union reaches, the
    /// root not counted.
    edges: u32,
    /// Members delivered to (duplicates counted).
    members: u32,
    /// Distinct member hop depths.
    waves: u32,
}

impl Shape {
    /// Total words of a route of this shape.
    fn words(self) -> usize {
        3 * self.members as usize + 2 * self.waves as usize + 2
    }

    /// What a route of this shape is looked up by, read out of its own
    /// `words`: the root's offset, then each member's in declared order.
    fn key(self, words: &[u32]) -> &[u32] {
        &words[..=self.members as usize]
    }
}

/// A borrowed view of one packed route — out of a [`RouteArena`] or a
/// [`MulticastRoute`] — split into its sections once, so every accessor
/// is a slice index, plus a [`Frame::place`] for a position.
#[derive(Debug, Clone, Copy)]
pub struct RouteRef<'a> {
    /// Where offsets are measured from.
    root: NodeId,
    /// How offsets become positions.
    frame: Frame,
    /// Links a fan-out crosses.
    edges: u32,
    /// Member offsets, in declared member order.
    members: &'a [u32],
    /// Each member's hop depth from the root (the topology's
    /// shortest-path hops), beside `members`.
    depths: &'a [u32],
    /// Member offsets regrouped into fan-out waves: members sharing one
    /// hop depth, waves in ascending depth order, members inside a wave in
    /// declared member order. Sliced by `wave_offsets`.
    wave_nodes: &'a [u32],
    /// `wave_offsets[w]..wave_offsets[w + 1]` indexes wave `w` in
    /// `wave_nodes`; always one longer than `wave_depths`.
    wave_offsets: &'a [u32],
    /// Hop depth of each wave, strictly ascending.
    wave_depths: &'a [u32],
}

impl<'a> RouteRef<'a> {
    fn new(words: &'a [u32], shape: Shape, root: NodeId, frame: Frame) -> Self {
        let m = shape.members as usize;
        let (members, rest) = words[1..].split_at(m);
        let (depths, rest) = rest.split_at(m);
        let (wave_nodes, rest) = rest.split_at(m);
        let (wave_offsets, wave_depths) = rest.split_at(shape.waves as usize + 1);
        debug_assert_eq!(wave_depths.len(), shape.waves as usize);
        RouteRef {
            root,
            frame,
            edges: shape.edges,
            members,
            depths,
            wave_nodes,
            wave_offsets,
            wave_depths,
        }
    }

    /// The route's root (the group's sequencing arbiter).
    pub fn root(self) -> NodeId {
        self.root
    }

    /// Number of directed edges a multicast traverses: the links of the
    /// union of the root-to-member paths, each counted once.
    pub fn edge_count(self) -> usize {
        self.edges as usize
    }

    /// Number of members the route delivers to.
    pub fn member_count(self) -> usize {
        self.members.len()
    }

    /// Each member with its hop depth from the root, in declared member
    /// order — the order arrival lists are produced in, mirroring
    /// [`Fabric::multicast_into`](crate::Fabric::multicast_into)'s member
    /// order.
    pub fn members(self) -> impl ExactSizeIterator<Item = (NodeId, u32)> + 'a {
        self.members
            .iter()
            .zip(self.depths)
            .map(move |(&off, &depth)| (self.frame.place(self.root, off), depth))
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

    /// The members of wave `w`, in declared member order, placed as they
    /// are read out of the packed route: iterating a fan-out materializes
    /// nothing.
    pub fn wave(self, w: usize) -> impl ExactSizeIterator<Item = NodeId> + 'a {
        let (start, end) = (self.wave_offsets[w], self.wave_offsets[w + 1]);
        self.wave_nodes[start as usize..end as usize]
            .iter()
            .map(move |&off| self.frame.place(self.root, off))
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
    /// The path union: local index -> position, and its hop depth.
    nodes: Vec<u32>,
    depth: Vec<u32>,
    /// The members' local indices, in declared order.
    members: Vec<u32>,
    /// Distinct member depths, ascending.
    wave_depths: Vec<u32>,
    /// Wave start offsets, then per-wave write cursors.
    wave_cursor: Vec<u32>,
}

impl RouteScratch {
    /// Builds the pruned route for `members` rooted at `root` — walking
    /// `topo`'s deterministic shortest path to each member in declared
    /// order and unioning the paths — and leaves it in the scratch for
    /// [`RouteScratch::pack_into`]. The shape says how many words that
    /// will take, so the caller can choose where they go.
    fn walk(&mut self, topo: &dyn Topology, root: NodeId, members: &[NodeId]) -> Shape {
        assert!(root.index() < topo.positions(), "root out of range");
        self.index.clear();
        self.nodes.clear();
        self.depth.clear();
        self.members.clear();
        self.index.push((root, 0));
        self.nodes.push(root.get());
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
            edges: self.nodes.len() as u32 - 1,
            members: u32::try_from(self.members.len()).expect("route too large"),
            waves: self.wave_depths.len() as u32,
        }
    }

    /// Appends the packed words of the route last walked to `out`, with
    /// every position turned into its offset from `root` in `frame`.
    fn pack_into(&mut self, frame: Frame, root: NodeId, out: &mut Vec<u32>) {
        let members = out.len() + 1;
        let offset = |i: &u32| frame.offset(root, NodeId::new(self.nodes[*i as usize]));
        out.push(frame.offset(root, root));
        out.extend(self.members.iter().map(offset));
        out.extend(self.members.iter().map(|&i| self.depth[i as usize]));
        let wave_nodes = out.len();
        out.resize(wave_nodes + self.members.len(), 0);
        out.extend_from_slice(&self.wave_cursor);
        out.extend_from_slice(&self.wave_depths);
        for (k, &i) in self.members.iter().enumerate() {
            let cursor = &mut self.wave_cursor[wave_of(&self.wave_depths, self.depth[i as usize])];
            out[wave_nodes + *cursor as usize] = out[members + k];
            *cursor += 1;
        }
        debug_assert_eq!(
            out.len() + 1 - members,
            3 * self.members.len() + 2 * self.wave_depths.len() + 2
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
/// one root to each group member, kept as what a fan-out over it reads.
/// Same packed layout as a [`RouteArena`] shape; read it through
/// [`MulticastRoute::view`].
///
/// ```
/// use sesame_net::{MeshTorus2d, MulticastRoute, NodeId};
///
/// let topo = MeshTorus2d::new(32, 32); // 1024 positions
/// let members = [NodeId::new(0), NodeId::new(1), NodeId::new(2)];
/// let route = MulticastRoute::build(&topo, NodeId::new(0), &members);
/// // Only the links on the root->member paths are billed.
/// assert_eq!(route.view().edge_count(), 2);
/// assert!(route.view().members().map(|(_, depth)| depth).eq([0, 1, 2]));
/// ```
#[derive(Debug, Clone)]
pub struct MulticastRoute {
    words: Vec<u32>,
    shape: Shape,
    root: NodeId,
    frame: Frame,
}

impl MulticastRoute {
    /// Builds the pruned route for `members` rooted at `root` by walking
    /// `topo`'s deterministic shortest path to each member in declared
    /// order and unioning the paths.
    ///
    /// # Panics
    ///
    /// Panics if `root` or a member is not a valid topology position. A
    /// route step that does not continue the path walked so far (a broken
    /// [`Topology::route_into`]) fails only a debug assertion.
    pub fn build(topo: &dyn Topology, root: NodeId, members: &[NodeId]) -> Self {
        Self::build_in(topo.frame(), topo, root, members)
    }

    /// [`MulticastRoute::build`] with the positions stored in `frame`.
    fn build_in(frame: Frame, topo: &dyn Topology, root: NodeId, members: &[NodeId]) -> Self {
        let mut scratch = RouteScratch::default();
        let shape = scratch.walk(topo, root, members);
        let mut words = Vec::with_capacity(shape.words());
        scratch.pack_into(frame, root, &mut words);
        MulticastRoute {
            words,
            shape,
            root,
            frame,
        }
    }

    /// The borrowed view carrying the accessors.
    pub fn view(&self) -> RouteRef<'_> {
        RouteRef::new(&self.words, self.shape, self.root, self.frame)
    }
}

impl<'a> From<&'a MulticastRoute> for RouteRef<'a> {
    fn from(route: &'a MulticastRoute) -> Self {
        route.view()
    }
}

/// Where one stored shape of a [`RouteArena`] lives.
#[derive(Debug, Clone, Copy)]
struct Stored {
    /// First word of the shape in the arena's words.
    at: u32,
    shape: Shape,
}

/// The index that names no shape or index entry.
const NONE: u32 = u32::MAX;

/// Every pruned route of one machine, stored once per shape.
///
/// Routes are addressed by a dense caller-chosen id (the machine uses the
/// group id) and built lazily on first use. A first use looks the group's
/// shape up by the offsets of its root and members (see [`Frame`]), and
/// walks and stores the route only if no group before it had that shape;
/// either way the id keeps the 4-byte index of its shape. The arena is
/// **append-only**: a stored shape's words are appended to one vector and
/// are never rewritten or dropped, and its place in that vector never
/// changes, so an id — or a `(id, wave)` pair queued in an event — stays
/// valid for the arena's lifetime. Building reuses retained scratch, so
/// after warm-up a route of a known shape allocates nothing, and a new
/// shape nothing beyond the vectors' amortized growth.
#[derive(Debug, Default)]
pub struct RouteArena {
    /// The frame of the topology the routes were built over.
    frame: Frame,
    /// Every stored shape's words, back to back.
    words: Vec<u32>,
    shapes: Vec<Stored>,
    /// Open-addressed hash index over `shapes`: a power-of-two table of
    /// shape indices ([`NONE`] for a free entry), at most half full.
    index: Vec<u32>,
    /// Each route id's shape: an index into `shapes`, [`NONE`] until
    /// first use.
    handles: Vec<u32>,
    /// The lookup key of the group being built.
    key: Vec<u32>,
    scratch: RouteScratch,
}

impl RouteArena {
    /// An arena with handles for route ids `0..routes` (none built yet).
    /// Ids beyond that still work; their handles are added on demand.
    pub fn with_routes(routes: usize) -> Self {
        RouteArena {
            handles: vec![NONE; routes],
            ..RouteArena::default()
        }
    }

    /// The stored words of shape `s`.
    fn stored(&self, s: u32) -> (&[u32], Shape) {
        let Stored { at, shape } = self.shapes[s as usize];
        let at = at as usize;
        (&self.words[at..at + shape.words()], shape)
    }

    /// The route with the given id, placed at `root` — the root it was
    /// built for — if it has been built.
    pub fn get(&self, id: usize, root: NodeId) -> Option<RouteRef<'_>> {
        let s = *self.handles.get(id)?;
        if s == NONE {
            return None;
        }
        let (words, shape) = self.stored(s);
        Some(RouteRef::new(words, shape, root, self.frame))
    }

    /// The route with the given id, built now from `(topo, root, members)`
    /// if this is its first use (see [`MulticastRoute::build`], including
    /// the panics). Later calls read only `root`, which places the stored
    /// shape: a route is a pure function of the topology and its group,
    /// both fixed for a machine.
    ///
    /// # Panics
    ///
    /// Also panics if `topo`'s frame differs from the one earlier routes
    /// were built in: an arena serves one topology.
    pub fn get_or_build(
        &mut self,
        id: usize,
        topo: &dyn Topology,
        root: NodeId,
        members: &[NodeId],
    ) -> RouteRef<'_> {
        if id >= self.handles.len() {
            self.handles.resize(id + 1, NONE);
        }
        if self.handles[id] == NONE {
            let frame = topo.frame();
            assert!(
                self.shapes.is_empty() || frame == self.frame,
                "an arena serves one topology"
            );
            self.frame = frame;
            let positions = topo.positions();
            let offset = |pos: NodeId| {
                assert!(pos.index() < positions, "position out of range");
                frame.offset(root, pos)
            };
            self.key.clear();
            self.key.push(offset(root));
            self.key.extend(members.iter().map(|&m| offset(m)));
            let shape = match self.find() {
                Ok(s) => s,
                Err(free) => self.store(topo, root, members, free),
            };
            self.handles[id] = shape;
        }
        self.get(id, root).expect("route was just built")
    }

    /// The stored shape whose key equals `self.key`, or else the index
    /// entry a new one goes into.
    fn find(&self) -> Result<u32, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let mask = self.index.len() - 1;
        let mut at = hash(&self.key) & mask;
        loop {
            match self.index[at] {
                NONE => return Err(at),
                s => {
                    let (words, shape) = self.stored(s);
                    if shape.key(words) == self.key {
                        return Ok(s);
                    }
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// Walks and stores the route of `(topo, root, members)` as a new
    /// shape, indexed at `free` (from [`RouteArena::find`]), and returns
    /// its index.
    fn store(&mut self, topo: &dyn Topology, root: NodeId, members: &[NodeId], free: usize) -> u32 {
        let shape = self.scratch.walk(topo, root, members);
        let s = u32::try_from(self.shapes.len()).expect("fewer than 2^32 shapes");
        let at = u32::try_from(self.words.len()).expect("route words exceed 2^32");
        self.shapes.push(Stored { at, shape });
        self.words.reserve(shape.words());
        self.scratch.pack_into(self.frame, root, &mut self.words);
        if 2 * self.shapes.len() > self.index.len() {
            self.reindex();
        } else {
            self.index[free] = s;
        }
        s
    }

    /// Doubles the shape index (from nothing to 8 entries at first) and
    /// re-enters every stored shape by the key read from its own words.
    fn reindex(&mut self) {
        let size = (2 * self.index.len()).max(8);
        let mut index = std::mem::take(&mut self.index);
        index.clear();
        index.resize(size, NONE);
        for s in 0..self.shapes.len() as u32 {
            let (words, shape) = self.stored(s);
            let mut at = hash(shape.key(words)) & (size - 1);
            while index[at] != NONE {
                at = (at + 1) & (size - 1);
            }
            index[at] = s;
        }
        self.index = index;
    }

    /// Heap bytes of route storage the arena holds — shape words, shape
    /// records, the shape index and the per-route shape indices, by
    /// capacity. Zero until a handle or route exists.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.words.capacity() + self.index.capacity() + self.handles.capacity()) * size_of::<u32>()
            + self.shapes.capacity() * size_of::<Stored>()
    }
}

/// A deterministic hash of a lookup key (an Fx-style fold with a
/// finalizing mix, so the index's low bits depend on every word).
fn hash(key: &[u32]) -> usize {
    let h = key.iter().fold(0u64, |h, &w| {
        (h.rotate_left(5) ^ u64::from(w)).wrapping_mul(0x517c_c1b7_2722_0a95)
    });
    (h ^ (h >> 29)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fabric, FullMesh, Line, LinkTiming, MeshTorus2d, Ring, SpanningTree};
    use sesame_sim::{DetRng, SimDur, SimTime};
    use std::collections::BTreeSet;

    fn n(id: u32) -> NodeId {
        NodeId::new(id)
    }

    #[test]
    fn union_of_paths_is_a_tree_with_shortest_depths() {
        let topo = MeshTorus2d::new(6, 6);
        let members: Vec<NodeId> = [0u32, 7, 14, 21, 35].map(n).to_vec();
        let route = MulticastRoute::build(&topo, n(0), &members);
        let route = route.view();
        // The fan-out bills each link of the path union once, and the
        // union is a tree: no position is reached over two links.
        let links: BTreeSet<LinkId> = members.iter().flat_map(|&m| topo.route(n(0), m)).collect();
        assert_eq!(route.edge_count(), links.len());
        let reached: BTreeSet<NodeId> = links.iter().map(|l| l.to_node()).collect();
        assert_eq!(reached.len(), links.len(), "a position reached twice");
        assert_eq!(route.member_count(), members.len());
        for (&want, (got, depth)) in members.iter().zip(route.members()) {
            assert_eq!(got, want);
            assert_eq!(depth, topo.hops(n(0), want), "member {want}");
        }
    }

    #[test]
    fn prunes_positions_off_the_member_paths() {
        let topo = MeshTorus2d::new(32, 32);
        // A row-local group touches only its own row.
        let members: Vec<NodeId> = (0..4).map(n).collect();
        let route = MulticastRoute::build(&topo, n(0), &members);
        let route = route.view();
        assert_eq!(route.edge_count(), 3);
        assert_eq!(route.member_count(), 4);
        assert!(route.edge_count() < topo.positions() - 1);
    }

    #[test]
    fn arrival_times_match_full_tree_multicast() {
        for topo in [
            &MeshTorus2d::new(5, 4) as &dyn Topology,
            &Ring::new(9),
            &Line::new(7),
        ] {
            let root = n(1);
            let members: Vec<NodeId> = (0..topo.len() as u32).step_by(2).map(n).collect();
            let tree = SpanningTree::build(topo, root);
            let route = MulticastRoute::build(topo, root, &members);

            let mut full = Fabric::new(LinkTiming::paper_1994());
            let mut want = Vec::new();
            full.multicast_into(SimTime::ZERO, &tree, 125, &members, &mut want);
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
            &Line::new(6),
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
        assert_eq!(route.view().members().next(), Some((n(2), 0)));
    }

    /// The representation this module used before routes were packed — a
    /// struct of vectors grown member by member, with waves spliced in as
    /// they appear — kept as the reference model the packed builder is
    /// compared against.
    #[derive(Debug, Default)]
    struct ReferenceRoute {
        nodes: Vec<NodeId>,
        index: Vec<(NodeId, u32)>,
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
            assert_eq!(got.root(), self.nodes[0], "{what}: root");
            assert_eq!(got.edge_count(), self.nodes.len() - 1, "{what}: edges");
            assert_eq!(got.member_count(), self.members.len(), "{what}: members");
            let members = self.members.iter().map(|&i| i as usize);
            assert!(
                got.members()
                    .eq(members.map(|i| (self.nodes[i], self.depth[i]))),
                "{what}: members and depths"
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
            Box::new(Line::new(9)),
            Box::new(MeshTorus2d::with_nodes(7)),
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
            let mut arena = RouteArena::with_routes(groups.len() / 2); // handles grow on demand
            for (k, &g) in order.iter().enumerate() {
                let (root, members) = &groups[g];
                assert!(
                    arena.get(g, *root).is_none(),
                    "stream {stream}: {g} not built yet"
                );
                let built = arena.get_or_build(g, topo, *root, members);
                refs[g].assert_matches(built, &format!("stream {stream} arena {g}"));
                for &earlier in &order[..k] {
                    let again = arena.get(earlier, groups[earlier].0).expect("append-only");
                    refs[earlier].assert_matches(again, &format!("stream {stream} reread"));
                }
            }
            // A second request is a lookup: the members are ignored.
            let again = arena.get_or_build(order[0], topo, groups[order[0]].0, &[]);
            refs[order[0]].assert_matches(again, "second get_or_build");
        }
    }

    #[test]
    fn two_member_route_packs_into_twelve_words() {
        let topo = MeshTorus2d::new(6, 6);
        let route = MulticastRoute::build(&topo, n(3), &[n(3), n(4)]);
        assert_eq!(route.words.len(), 12);
        assert_eq!(std::mem::size_of::<Stored>(), 16, "record per shape");
        let handles = RouteArena::with_routes(100).heap_bytes();
        assert_eq!(handles, 400, "a 4-byte handle per route");
        let mut arena = RouteArena::default();
        assert_eq!(arena.heap_bytes(), 0, "an unused arena owns no heap");
        arena.get_or_build(0, &topo, n(3), &[n(3), n(4)]);
        assert_eq!(arena.words, route.words);
        assert!(arena.heap_bytes() > 0);
    }

    #[test]
    fn arena_appends_each_shape_once_and_never_moves_a_route() {
        // A sharded mesh in miniature: one wide route per row, one
        // two-member route per node — on a torus, where the rows share a
        // shape and so do the pairs, and on a line, where no two roots
        // share one and every route is stored.
        let topos: [Box<dyn Topology>; 2] = [
            Box::new(MeshTorus2d::new(40, 40)),
            Box::new(Line::new(1600)),
        ];
        let mut groups: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        for row in 0..40u32 {
            groups.push((n(row * 40), (0..40).map(|c| n(row * 40 + c)).collect()));
            for c in 0..40 {
                let me = row * 40 + c;
                groups.push((n(me), vec![n(me), n(row * 40 + (c + 1) % 40)]));
            }
        }
        // Built in group order — a wide route, forty narrow ones, and
        // again — and in a shuffled order.
        let in_order: Vec<usize> = (0..groups.len()).collect();
        let mut shuffled = in_order.clone();
        DetRng::new(0x6172_656e).shuffle(&mut shuffled);
        for (topo, order) in topos
            .iter()
            .flat_map(|t| [(t, in_order.clone()), (t, shuffled.clone())])
        {
            let topo = topo.as_ref();
            let mut arena = RouteArena::with_routes(groups.len());
            let mut homes: Vec<u32> = Vec::new();
            for &g in &order {
                let (root, members) = &groups[g];
                let end = arena.words.len();
                arena.get_or_build(g, topo, *root, members);
                // A new shape goes after every stored one, which keep
                // their places.
                if let Some(new) = arena.shapes.get(homes.len()) {
                    assert_eq!(new.at as usize, end, "route {g}");
                    homes.push(new.at);
                }
                assert!(arena.shapes.iter().map(|s| s.at).eq(homes.iter().copied()));
            }
            let used: usize = arena.shapes.iter().map(|s| s.shape.words()).sum();
            assert_eq!(arena.words.len(), used);
            for (g, (root, members)) in groups.iter().enumerate() {
                let owned = MulticastRoute::build(topo, *root, members);
                let (got, want) = (arena.get(g, *root).expect("built"), owned.view());
                assert_eq!(got.members, want.members, "route {g}");
                assert_eq!(got.depths, want.depths, "route {g}");
                assert_eq!(got.wave_nodes, want.wave_nodes, "route {g}");
            }
            let stored = if topo.frame() == Frame::Absolute {
                groups.len()
            } else {
                2
            };
            assert_eq!(arena.shapes.len(), stored, "{topo:?}");
        }
    }

    /// Asserts that two views read the same placed route: the edge count,
    /// every member with its depth, and every wave.
    fn assert_same_route(got: RouteRef<'_>, want: RouteRef<'_>, what: &str) {
        assert_eq!(got.root(), want.root(), "{what}: root");
        assert_eq!(got.edge_count(), want.edge_count(), "{what}: edges");
        assert!(got.members().eq(want.members()), "{what}: members");
        assert_eq!(got.wave_count(), want.wave_count(), "{what}: waves");
        for w in 0..want.wave_count() {
            assert_eq!(got.wave_depth(w), want.wave_depth(w), "{what}: wave {w}");
            assert!(got.wave(w).eq(want.wave(w)), "{what}: wave {w} members");
        }
    }

    /// Random groups over `topo`, and each of them again shifted to other
    /// roots through the topology's frame (on an absolute frame the shift
    /// moves nothing, so the copies are the same group at other roots).
    fn shifted_groups(rng: &mut DetRng, topo: &dyn Topology) -> Vec<(NodeId, Vec<NodeId>)> {
        let frame = topo.frame();
        let positions = topo.positions() as u64;
        let mut groups = Vec::new();
        for _ in 0..12 {
            let (root, members) = random_group(rng, topo);
            for _ in 0..4 {
                let to = n(rng.next_below(positions) as u32);
                let shift = |m: NodeId| frame.place(to, frame.offset(root, m));
                groups.push((to, members.iter().map(|&m| shift(m)).collect()));
            }
            groups.push((root, members));
        }
        groups
    }

    #[test]
    fn shared_shapes_place_as_the_per_group_absolute_build() {
        let topos: [Box<dyn Topology>; 7] = [
            Box::new(MeshTorus2d::new(6, 6)),
            Box::new(MeshTorus2d::new(7, 4)),
            Box::new(MeshTorus2d::with_nodes(10)), // trailing router-only positions
            Box::new(MeshTorus2d::new(1, 9)),
            Box::new(Ring::new(11)),
            Box::new(FullMesh::new(9)),
            Box::new(Line::new(9)),
        ];
        for (t, topo) in topos.iter().enumerate() {
            let topo = topo.as_ref();
            let mut rng = DetRng::new(0x0066_7261_6d65 ^ t as u64);
            let groups = shifted_groups(&mut rng, topo);
            // The reference: one route per group, every position stored
            // as itself.
            let absolute: Vec<MulticastRoute> = groups
                .iter()
                .map(|(root, members)| {
                    MulticastRoute::build_in(Frame::Absolute, topo, *root, members)
                })
                .collect();
            let mut arena = RouteArena::with_routes(groups.len());
            for (g, (root, members)) in groups.iter().enumerate() {
                let got = arena.get_or_build(g, topo, *root, members);
                assert_same_route(got, absolute[g].view(), &format!("{topo:?} group {g}"));
            }

            // Sharing: a symmetric frame stores fewer shapes than groups,
            // and the absolute frame never lets two roots share one.
            let roots_of = |s: u32| {
                let mut roots: Vec<NodeId> = (arena.handles.iter().zip(&groups))
                    .filter(|&(&h, _)| h == s)
                    .map(|(_, &(root, _))| root)
                    .collect();
                roots.sort_unstable();
                roots.dedup();
                roots
            };
            if topo.frame() == Frame::Absolute {
                for s in 0..arena.shapes.len() as u32 {
                    assert_eq!(roots_of(s).len(), 1, "shape {s} on {topo:?}");
                }
            } else {
                assert!(arena.shapes.len() < groups.len(), "{topo:?} shares nothing");
            }

            // The same multicasts over both, in one shuffled order.
            let mut order: Vec<usize> = (0..groups.len()).collect();
            rng.shuffle(&mut order);
            for timing in [LinkTiming::paper_1994(), LinkTiming::zero_delay()] {
                let (mut framed, mut reference) = (Fabric::new(timing), Fabric::new(timing));
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let mut now = SimTime::ZERO;
                for &g in &order {
                    let bytes = 16 + rng.next_below(200) as u32;
                    let route = arena.get(g, groups[g].0).expect("built");
                    framed.multicast_route_into(now, route, bytes, &mut got);
                    reference.multicast_route_into(now, &absolute[g], bytes, &mut want);
                    assert_eq!(got, want, "{topo:?} {timing:?} group {g}");
                    assert_eq!(framed.stats(), reference.stats(), "{topo:?} {timing:?}");
                    now += SimDur::from_nanos(rng.next_below(2_000));
                }
            }
        }
    }
}

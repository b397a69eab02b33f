//! Network topologies and deterministic shortest-path routing.
//!
//! The paper's Figure 8 evaluates on a **square mesh torus** with 200 ns
//! hops; [`MeshTorus2d`] reproduces that geometry for any CPU count by
//! embedding the CPUs in the smallest enclosing rectangle (extra positions
//! act as routers). The other machines the paper draws are a [`Ring`] of
//! three (Figure 1) and a [`Line`] of seven (Figure 7); the model checker
//! runs a [`FullMesh`].

use std::fmt;

use crate::{LinkId, NodeId};

/// A static interconnect: positions, adjacency, and deterministic routing.
///
/// Implementations must guarantee that [`Topology::route`] follows a
/// shortest path whose length equals [`Topology::hops`], and that routing is
/// deterministic (same inputs, same path) so simulation runs reproduce.
pub trait Topology: fmt::Debug {
    /// Number of CPU-hosting nodes.
    fn len(&self) -> usize;

    /// Whether the topology hosts no CPUs.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of positions including router-only positions.
    fn positions(&self) -> usize {
        self.len()
    }

    /// Positions adjacent to `n` (each shares one physical link with `n`).
    fn neighbors(&self, n: NodeId) -> Vec<NodeId>;

    /// Shortest-path hop count between two positions.
    fn hops(&self, a: NodeId, b: NodeId) -> u32;

    /// Replaces the contents of `out` with the directed links along the
    /// deterministic shortest path from `a` to `b` (empty when `a == b`).
    ///
    /// This is the allocation-free form of [`Topology::route`]: hot paths
    /// (one unicast per protocol message) pass a reusable scratch buffer
    /// so steady-state routing never touches the heap.
    fn route_into(&self, a: NodeId, b: NodeId, out: &mut Vec<LinkId>);

    /// The directed links along the deterministic shortest path from `a` to
    /// `b` (empty when `a == b`). Convenience wrapper over
    /// [`Topology::route_into`] that allocates a fresh path.
    fn route(&self, a: NodeId, b: NodeId) -> Vec<LinkId> {
        let mut links = Vec::new();
        self.route_into(a, b, &mut links);
        links
    }

    /// The translation frame routing commutes with (see [`Frame`]), so
    /// that a multicast route can be stored once per shape, relative to
    /// its root, instead of once per group. The default claims no
    /// symmetry, which is correct for any topology.
    fn frame(&self) -> Frame {
        Frame::Absolute
    }
}

/// The shifts under which a topology's routing is unchanged, and the
/// arithmetic that expresses a position as an *offset* from a root and
/// places an offset back at a root.
///
/// A topology may return a frame other than [`Frame::Absolute`] only if,
/// for every `root`, `member` and shift, routing from the shifted root to
/// the shifted member walks the links of the route from `root` to
/// `member`, each end shifted the same way. Two groups whose root and
/// members have the same offsets then have routes that are one another
/// shifted, and a route stored in offsets serves both.
///
/// ```
/// use sesame_net::{Frame, MeshTorus2d, NodeId, Topology};
///
/// let t = MeshTorus2d::new(4, 3);
/// let frame = t.frame();
/// assert_eq!(frame, Frame::Torus { w: 4, h: 3 });
/// // One step right of (3, 2) wraps to (0, 2) ...
/// let off = frame.offset(NodeId::new(11), NodeId::new(8));
/// assert_eq!(off, 1);
/// // ... just as one step right of (0, 0) is (1, 0).
/// assert_eq!(frame.place(NodeId::new(0), off), NodeId::new(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Frame {
    /// No symmetry: a position's offset is the position itself, so every
    /// root has routes of its own.
    #[default]
    Absolute,
    /// Positions `0..n` on a cycle, shifted modulo `n` ([`Ring`],
    /// [`FullMesh`]).
    Cyclic {
        /// Number of positions.
        n: u32,
    },
    /// Position `y * w + x` of a `w x h` torus, shifted modulo `w` along x
    /// and modulo `h` along y ([`MeshTorus2d`]). An offset `(dx, dy)` is
    /// packed the same way, as `dy * w + dx`.
    Torus {
        /// Width.
        w: u32,
        /// Height.
        h: u32,
    },
}

impl Frame {
    /// The offset of `pos` from `root`: the shift that takes `root` to
    /// position zero takes `pos` to the offset.
    pub fn offset(self, root: NodeId, pos: NodeId) -> u32 {
        let (r, p) = (root.get(), pos.get());
        match self {
            Frame::Absolute => p,
            Frame::Cyclic { n } => sub_mod(p, r, n),
            Frame::Torus { w, h } => sub_mod(p / w, r / w, h) * w + sub_mod(p % w, r % w, w),
        }
    }

    /// The position at `offset` from `root` — the inverse of
    /// [`Frame::offset`].
    pub fn place(self, root: NodeId, offset: u32) -> NodeId {
        let r = root.get();
        NodeId::new(match self {
            Frame::Absolute => offset,
            Frame::Cyclic { n } => add_mod(r, offset, n),
            Frame::Torus { w, h } => {
                add_mod(r / w, offset / w, h) * w + add_mod(r % w, offset % w, w)
            }
        })
    }
}

/// `(a - b) mod n` for `a, b < n`, without overflow.
fn sub_mod(a: u32, b: u32, n: u32) -> u32 {
    if a >= b {
        a - b
    } else {
        a + (n - b)
    }
}

/// `(a + b) mod n` for `a, b < n`, without overflow.
fn add_mod(a: u32, b: u32, n: u32) -> u32 {
    if b == 0 {
        a
    } else {
        sub_mod(a, n - b, n)
    }
}

/// Walks `route` one hop at a time using a next-hop function, replacing
/// `out` with the directed links. Shared by the concrete topologies.
fn route_by_next_hop(
    mut at: NodeId,
    to: NodeId,
    out: &mut Vec<LinkId>,
    mut next_hop: impl FnMut(NodeId, NodeId) -> NodeId,
) {
    out.clear();
    while at != to {
        let nxt = next_hop(at, to);
        assert_ne!(nxt, at, "routing made no progress at {at}");
        out.push(LinkId::between(at, nxt));
        at = nxt;
    }
}

/// A 2-D mesh torus (wrap-around grid) with XY dimension-ordered routing.
///
/// This is the interconnect of the paper's Figure 8 simulations (square mesh
/// torus, 200 ns per hop). CPU `i` sits at `(i % width, i / width)`; when the
/// CPU count does not fill the rectangle, the trailing positions route
/// packets but host no CPU.
///
/// ```
/// use sesame_net::{MeshTorus2d, NodeId, Topology};
///
/// let t = MeshTorus2d::with_nodes(16); // a 4x4 torus
/// assert_eq!(t.hops(NodeId::new(0), NodeId::new(5)), 2);
/// // Wrap-around: corner to corner is 2 hops, not 6.
/// assert_eq!(t.hops(NodeId::new(0), NodeId::new(15)), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshTorus2d {
    nodes: usize,
    width: u32,
    height: u32,
}

impl MeshTorus2d {
    /// Creates a `width x height` torus hosting `width * height` CPUs.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "torus dimensions must be positive");
        MeshTorus2d {
            nodes: (width * height) as usize,
            width,
            height,
        }
    }

    /// Creates the most nearly square torus hosting `nodes` CPUs, padding
    /// with router-only positions when `nodes` is not a perfect rectangle.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn with_nodes(nodes: usize) -> Self {
        assert!(nodes > 0, "node count must be positive");
        let width = (nodes as f64).sqrt().ceil() as u32;
        let height = (nodes as u32).div_ceil(width);
        MeshTorus2d {
            nodes,
            width,
            height,
        }
    }

    /// Grid width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> u32 {
        self.height
    }

    fn coords(&self, n: NodeId) -> (u32, u32) {
        let id = n.get();
        debug_assert!(id < self.width * self.height, "position out of range");
        (id % self.width, id / self.width)
    }

    fn id_at(&self, x: u32, y: u32) -> NodeId {
        NodeId::new(y * self.width + x)
    }

    /// Signed shortest step along one torus dimension: -1, 0, or +1 applied
    /// to `from` moves toward `to` along the shorter arc (ties go positive).
    fn step_toward(from: u32, to: u32, size: u32) -> i64 {
        if from == to {
            return 0;
        }
        let fwd = (to + size - from) % size; // steps going +
        let back = (from + size - to) % size; // steps going -
        if fwd <= back {
            1
        } else {
            -1
        }
    }

    fn axis_hops(a: u32, b: u32, size: u32) -> u32 {
        let fwd = (b + size - a) % size;
        let back = (a + size - b) % size;
        fwd.min(back)
    }

    fn next_hop(&self, from: NodeId, to: NodeId) -> NodeId {
        let (fx, fy) = self.coords(from);
        let (tx, ty) = self.coords(to);
        // XY routing: resolve the x dimension first, then y.
        let dx = Self::step_toward(fx, tx, self.width);
        if dx != 0 {
            let nx = ((fx as i64 + dx).rem_euclid(self.width as i64)) as u32;
            return self.id_at(nx, fy);
        }
        let dy = Self::step_toward(fy, ty, self.height);
        let ny = ((fy as i64 + dy).rem_euclid(self.height as i64)) as u32;
        self.id_at(fx, ny)
    }
}

impl Topology for MeshTorus2d {
    fn len(&self) -> usize {
        self.nodes
    }

    fn positions(&self) -> usize {
        (self.width * self.height) as usize
    }

    fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        let (x, y) = self.coords(n);
        let w = self.width;
        let h = self.height;
        let mut out = vec![
            self.id_at((x + 1) % w, y),
            self.id_at((x + w - 1) % w, y),
            self.id_at(x, (y + 1) % h),
            self.id_at(x, (y + h - 1) % h),
        ];
        out.sort_unstable();
        out.dedup(); // degenerate 1-wide or 1-tall tori repeat neighbors
        out.retain(|&m| m != n);
        out
    }

    fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        Self::axis_hops(ax, bx, self.width) + Self::axis_hops(ay, by, self.height)
    }

    fn route_into(&self, a: NodeId, b: NodeId, out: &mut Vec<LinkId>) {
        route_by_next_hop(a, b, out, |at, to| self.next_hop(at, to))
    }

    /// XY routing steps by the signed per-axis distances alone, so it
    /// commutes with any shift of the torus — padded positions included,
    /// which route like any other.
    fn frame(&self) -> Frame {
        Frame::Torus {
            w: self.width,
            h: self.height,
        }
    }
}

/// A unidirectional-distance ring (links are bidirectional; routing takes
/// the shorter arc).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring {
    nodes: usize,
}

impl Ring {
    /// Creates a ring of `nodes` CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "node count must be positive");
        Ring { nodes }
    }
}

impl Topology for Ring {
    fn len(&self) -> usize {
        self.nodes
    }

    fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        let k = self.nodes as u32;
        if k == 1 {
            return Vec::new();
        }
        let mut out = vec![
            NodeId::new((n.get() + 1) % k),
            NodeId::new((n.get() + k - 1) % k),
        ];
        out.sort_unstable();
        out.dedup();
        out
    }

    fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        MeshTorus2d::axis_hops(a.get(), b.get(), self.nodes as u32)
    }

    fn route_into(&self, a: NodeId, b: NodeId, out: &mut Vec<LinkId>) {
        let k = self.nodes as u32;
        route_by_next_hop(a, b, out, |at, to| {
            let step = MeshTorus2d::step_toward(at.get(), to.get(), k);
            NodeId::new(((at.get() as i64 + step).rem_euclid(k as i64)) as u32)
        })
    }

    fn frame(&self) -> Frame {
        Frame::Cyclic {
            n: self.nodes as u32,
        }
    }
}

/// A line (path graph): node `i` links to `i-1` and `i+1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    nodes: usize,
}

impl Line {
    /// Creates a line of `nodes` CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "node count must be positive");
        Line { nodes }
    }
}

impl Topology for Line {
    fn len(&self) -> usize {
        self.nodes
    }

    fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        if n.get() > 0 {
            out.push(NodeId::new(n.get() - 1));
        }
        if (n.index() + 1) < self.nodes {
            out.push(NodeId::new(n.get() + 1));
        }
        out
    }

    fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        a.get().abs_diff(b.get())
    }

    fn route_into(&self, a: NodeId, b: NodeId, out: &mut Vec<LinkId>) {
        route_by_next_hop(a, b, out, |at, to| {
            if to.get() > at.get() {
                NodeId::new(at.get() + 1)
            } else {
                NodeId::new(at.get() - 1)
            }
        })
    }
}

/// A fully connected network: every pair of nodes shares a direct link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullMesh {
    nodes: usize,
}

impl FullMesh {
    /// Creates a full mesh of `nodes` CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "node count must be positive");
        FullMesh { nodes }
    }
}

impl Topology for FullMesh {
    fn len(&self) -> usize {
        self.nodes
    }

    fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        (0..self.nodes as u32)
            .map(NodeId::new)
            .filter(|&m| m != n)
            .collect()
    }

    fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        u32::from(a != b)
    }

    fn route_into(&self, a: NodeId, b: NodeId, out: &mut Vec<LinkId>) {
        out.clear();
        if a != b {
            out.push(LinkId::between(a, b));
        }
    }

    /// A direct link between every pair is symmetric under any
    /// relabelling, so under the cyclic shift too.
    fn frame(&self) -> Frame {
        Frame::Cyclic {
            n: self.nodes as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(id: u32) -> NodeId {
        NodeId::new(id)
    }

    fn check_route_consistency(t: &dyn Topology) {
        let k = t.positions() as u32;
        for a in 0..k {
            for b in 0..k {
                let links = t.route(n(a), n(b));
                if a < t.len() as u32 && b < t.len() as u32 {
                    assert_eq!(
                        links.len() as u32,
                        t.hops(n(a), n(b)),
                        "route len != hops for {a}->{b} on {t:?}"
                    );
                }
                // The path must be connected and end at b.
                let mut at = n(a);
                for l in &links {
                    assert_eq!(l.from_node(), at);
                    at = l.to_node();
                }
                assert_eq!(at, n(b));
            }
        }
    }

    /// Every route of `t`, shifted by every root's frame, is the route
    /// between the shifted ends; and `place` inverts `offset`.
    fn check_frame_commutes_with_routing(t: &dyn Topology) {
        let frame = t.frame();
        let k = t.positions() as u32;
        for r in 0..k {
            for p in 0..k {
                assert_eq!(frame.place(n(r), frame.offset(n(r), n(p))), n(p));
            }
        }
        if frame == Frame::Absolute {
            return;
        }
        for a in 0..k {
            for b in 0..k {
                let links = t.route(n(a), n(b));
                for r in 0..k {
                    let shift = |x: NodeId| frame.place(n(r), frame.offset(n(a), x));
                    let shifted: Vec<LinkId> = links
                        .iter()
                        .map(|l| LinkId::between(shift(l.from_node()), shift(l.to_node())))
                        .collect();
                    assert_eq!(
                        t.route(n(r), shift(n(b))),
                        shifted,
                        "{a}->{b} shifted to root {r} on {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn frames_commute_with_routing() {
        check_frame_commutes_with_routing(&MeshTorus2d::new(4, 4));
        check_frame_commutes_with_routing(&MeshTorus2d::new(5, 3));
        check_frame_commutes_with_routing(&MeshTorus2d::with_nodes(7));
        check_frame_commutes_with_routing(&MeshTorus2d::new(1, 6));
        check_frame_commutes_with_routing(&Ring::new(7));
        check_frame_commutes_with_routing(&FullMesh::new(5));
        check_frame_commutes_with_routing(&Line::new(6));
        assert_eq!(Line::new(6).frame(), Frame::Absolute);
    }

    #[test]
    fn torus_route_matches_hops() {
        check_route_consistency(&MeshTorus2d::new(4, 4));
        check_route_consistency(&MeshTorus2d::new(3, 5));
        check_route_consistency(&MeshTorus2d::with_nodes(7));
    }

    #[test]
    fn ring_line_full_route_matches_hops() {
        check_route_consistency(&Ring::new(7));
        check_route_consistency(&Line::new(6));
        check_route_consistency(&FullMesh::new(5));
    }

    #[test]
    fn torus_wraps_around() {
        let t = MeshTorus2d::new(4, 4);
        assert_eq!(t.hops(n(0), n(3)), 1, "x wrap");
        assert_eq!(t.hops(n(0), n(12)), 1, "y wrap");
        assert_eq!(t.hops(n(0), n(15)), 2, "corner wrap");
        assert_eq!(t.hops(n(0), n(10)), 4, "farthest position");
    }

    #[test]
    fn torus_with_padding_positions() {
        let t = MeshTorus2d::with_nodes(7); // 3x3 rectangle, 2 router-only
        assert_eq!(t.len(), 7);
        assert_eq!(t.positions(), 9);
        assert_eq!(t.width(), 3);
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn torus_neighbors_degree() {
        let t = MeshTorus2d::new(4, 4);
        for i in 0..16 {
            assert_eq!(t.neighbors(n(i)).len(), 4);
        }
        // Degenerate 2-wide torus dedups the wrap neighbor.
        let t2 = MeshTorus2d::new(2, 2);
        for i in 0..4 {
            assert_eq!(t2.neighbors(n(i)).len(), 2);
        }
    }

    #[test]
    fn torus_hops_symmetric() {
        let t = MeshTorus2d::new(5, 3);
        for a in 0..15 {
            for b in 0..15 {
                assert_eq!(t.hops(n(a), n(b)), t.hops(n(b), n(a)));
            }
        }
    }

    #[test]
    fn ring_takes_shorter_arc() {
        let r = Ring::new(10);
        assert_eq!(r.hops(n(0), n(3)), 3);
        assert_eq!(r.hops(n(0), n(7)), 3);
        assert_eq!(r.hops(n(2), n(7)), 5, "antipodes");
    }

    #[test]
    fn line_distance_is_absolute_difference() {
        let l = Line::new(5);
        assert_eq!(l.hops(n(0), n(4)), 4);
        assert_eq!(l.hops(n(3), n(1)), 2);
        assert_eq!(l.neighbors(n(0)), vec![n(1)]);
        assert_eq!(l.neighbors(n(4)), vec![n(3)]);
        assert_eq!(l.neighbors(n(2)), vec![n(1), n(3)]);
    }

    #[test]
    fn full_mesh_is_single_hop() {
        let f = FullMesh::new(6);
        assert_eq!(f.hops(n(1), n(4)), 1);
        assert_eq!(f.hops(n(3), n(3)), 0);
        assert_eq!(f.neighbors(n(2)).len(), 5);
    }
}

//! Spanning trees for root-sequenced group multicast.
//!
//! Sesame routes, sequences, and retransmits all sharing messages of a group
//! through a spanning tree rooted at the group root. [`SpanningTree`] builds
//! that tree by breadth-first search over the topology's physical links, so
//! every tree edge is exactly one hop and every root-to-member path is a
//! shortest path.

use crate::{NodeId, Topology};

/// A BFS spanning tree over every position of a topology, rooted at one
/// node.
///
/// The tree is its BFS order — every position once, root first — plus
/// three flat per-position tables: parent, depth, and the position's
/// children as a range into that order. BFS discovers a position's
/// children one after another, so they are contiguous in the order and
/// [`children`](Self::children) and [`bfs_order`](Self::bfs_order) are both
/// borrowed slices. A tree holds 20 bytes per position in four
/// allocations, and a fan-out over it ([`Fabric::multicast_into`] reads
/// each member's [`depth`](Self::depth)) allocates nothing.
///
/// [`Fabric::multicast_into`]: crate::Fabric::multicast_into
///
/// ```
/// use sesame_net::{MeshTorus2d, NodeId, SpanningTree, Topology};
///
/// let topo = MeshTorus2d::new(3, 3);
/// let tree = SpanningTree::build(&topo, NodeId::new(4));
/// assert_eq!(tree.root(), NodeId::new(4));
/// assert_eq!(tree.depth(NodeId::new(4)), 0);
/// // Every position is reachable at its shortest-path depth.
/// assert_eq!(tree.depth(NodeId::new(0)), topo.hops(NodeId::new(4), NodeId::new(0)));
/// ```
#[derive(Debug, Clone)]
pub struct SpanningTree {
    /// Every position in BFS order, root first.
    order: Vec<NodeId>,
    /// Per position: its parent; the root is its own.
    parent: Vec<NodeId>,
    /// Per position: hop distance from the root (`u32::MAX` while
    /// undiscovered during the build).
    depth: Vec<u32>,
    /// Per position: its children, as the range `start..end` of `order`.
    children: Vec<(u32, u32)>,
}

impl SpanningTree {
    /// Builds the BFS tree of `topo` rooted at `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a valid position, or if the topology is
    /// disconnected (every provided topology is connected).
    pub fn build(topo: &dyn Topology, root: NodeId) -> Self {
        let positions = topo.positions();
        assert!(root.index() < positions, "root out of range");
        let mut order = Vec::with_capacity(positions);
        let mut parent = vec![root; positions];
        let mut depth = vec![u32::MAX; positions];
        let mut children = vec![(0, 0); positions];
        depth[root.index()] = 0;
        order.push(root);
        // The order doubles as the BFS queue: `head` is its front.
        let mut head = 0;
        while let Some(&at) = order.get(head) {
            head += 1;
            let start = order.len() as u32;
            for nb in topo.neighbors(at) {
                if depth[nb.index()] == u32::MAX {
                    depth[nb.index()] = depth[at.index()] + 1;
                    parent[nb.index()] = at;
                    order.push(nb);
                }
            }
            children[at.index()] = (start, order.len() as u32);
        }
        assert_eq!(order.len(), positions, "topology is disconnected");
        SpanningTree {
            order,
            parent,
            depth,
            children,
        }
    }

    /// The tree root (the group's sequencing arbiter and lock manager).
    pub fn root(&self) -> NodeId {
        self.order[0]
    }

    /// Number of positions in the tree.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the tree is empty (never true for a built tree).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The parent of `n`, or `None` for the root.
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        Some(self.parent[n.index()]).filter(|&p| p != n)
    }

    /// The children of `n` in BFS discovery order.
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        let (start, end) = self.children[n.index()];
        &self.order[start as usize..end as usize]
    }

    /// Hop distance from the root to `n`.
    pub fn depth(&self, n: NodeId) -> u32 {
        self.depth[n.index()]
    }

    /// All positions in BFS order (root first); the order a downstream
    /// multicast wave visits them.
    pub fn bfs_order(&self) -> &[NodeId] {
        &self.order
    }
}

/// The straightforward layout, one children `Vec` per position and a BFS
/// order rebuilt by a queue walk per call: the oracle the differential
/// tests (here and in the fabric) hold [`SpanningTree`] against.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::VecDeque;

    use crate::{FullMesh, Line, MeshTorus2d, NodeId, Ring, Topology};

    /// The shapes the depth and differential tests build every root of.
    pub(crate) fn shapes() -> [Box<dyn Topology>; 6] {
        [
            Box::new(MeshTorus2d::new(4, 4)),
            Box::new(MeshTorus2d::with_nodes(7)),
            Box::new(Ring::new(9)),
            Box::new(Line::new(6)),
            Box::new(MeshTorus2d::with_nodes(10)),
            Box::new(FullMesh::new(5)),
        ]
    }

    pub(crate) struct ReferenceTree {
        pub(crate) root: NodeId,
        pub(crate) parent: Vec<Option<NodeId>>,
        pub(crate) children: Vec<Vec<NodeId>>,
        pub(crate) depth: Vec<u32>,
    }

    impl ReferenceTree {
        pub(crate) fn build(topo: &dyn Topology, root: NodeId) -> Self {
            let positions = topo.positions();
            let mut parent = vec![None; positions];
            let mut children = vec![Vec::new(); positions];
            let mut depth = vec![u32::MAX; positions];
            depth[root.index()] = 0;
            let mut queue = VecDeque::from([root]);
            while let Some(at) = queue.pop_front() {
                for nb in topo.neighbors(at) {
                    if depth[nb.index()] == u32::MAX {
                        depth[nb.index()] = depth[at.index()] + 1;
                        parent[nb.index()] = Some(at);
                        children[at.index()].push(nb);
                        queue.push_back(nb);
                    }
                }
            }
            ReferenceTree {
                root,
                parent,
                children,
                depth,
            }
        }

        pub(crate) fn bfs_order(&self) -> Vec<NodeId> {
            let mut order = Vec::with_capacity(self.children.len());
            let mut queue = VecDeque::from([self.root]);
            while let Some(at) = queue.pop_front() {
                order.push(at);
                queue.extend(self.children[at.index()].iter().copied());
            }
            order
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{shapes, ReferenceTree};
    use super::*;
    use crate::{FullMesh, MeshTorus2d};

    fn n(id: u32) -> NodeId {
        NodeId::new(id)
    }

    #[test]
    fn depths_equal_shortest_paths() {
        for topo in shapes() {
            let topo = topo.as_ref();
            for r in 0..topo.len() as u32 {
                let tree = SpanningTree::build(topo, n(r));
                for m in 0..topo.len() as u32 {
                    assert_eq!(
                        tree.depth(n(m)),
                        topo.hops(n(r), n(m)),
                        "root {r}, member {m}, topo {topo:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn parent_child_relations_are_consistent() {
        let topo = MeshTorus2d::new(4, 4);
        let tree = SpanningTree::build(&topo, n(5));
        for m in 0..16 {
            if m == 5 {
                assert_eq!(tree.parent(n(m)), None);
            } else {
                let p = tree.parent(n(m)).expect("non-root has parent");
                assert!(tree.children(p).contains(&n(m)));
                assert_eq!(tree.depth(n(m)), tree.depth(p) + 1);
            }
        }
    }

    #[test]
    fn bfs_order_visits_every_position_once_root_first() {
        let topo = MeshTorus2d::with_nodes(10); // 4x3 rectangle, 12 positions
        let tree = SpanningTree::build(&topo, n(2));
        let order = tree.bfs_order();
        assert_eq!(order.len(), topo.positions());
        assert_eq!(order[0], n(2));
        let mut sorted: Vec<u32> = order.iter().map(|m| m.get()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
        // BFS order is non-decreasing in depth.
        for w in order.windows(2) {
            assert!(tree.depth(w[0]) <= tree.depth(w[1]));
        }
    }

    #[test]
    fn the_flat_layout_equals_the_nested_reference() {
        let mut topos = Vec::from(shapes());
        topos.push(Box::new(MeshTorus2d::with_nodes(128)));
        topos.push(Box::new(FullMesh::new(65)));
        for topo in &topos {
            let topo = topo.as_ref();
            for r in 0..topo.positions() as u32 {
                let tree = SpanningTree::build(topo, n(r));
                let want = ReferenceTree::build(topo, n(r));
                assert_eq!(tree.root(), want.root);
                assert_eq!(tree.len(), want.parent.len());
                assert_eq!(tree.bfs_order(), want.bfs_order(), "root {r}, {topo:?}");
                for m in 0..topo.positions() {
                    let at = n(m as u32);
                    assert_eq!(tree.parent(at), want.parent[m], "root {r}, member {m}");
                    assert_eq!(tree.children(at), want.children[m], "root {r}, member {m}");
                    assert_eq!(tree.depth(at), want.depth[m], "root {r}, member {m}");
                }
            }
        }
    }
}

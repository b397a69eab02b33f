//! Spanning trees for root-sequenced group multicast.
//!
//! Sesame routes, sequences, and retransmits all sharing messages of a group
//! through a spanning tree rooted at the group root. [`SpanningTree`] builds
//! that tree by breadth-first search over the topology's physical links, so
//! every tree edge is exactly one hop and every root-to-member path is a
//! shortest path.

use std::collections::VecDeque;

use crate::{NodeId, Topology};

/// A BFS spanning tree over every position of a topology, rooted at one
/// node.
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
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    depth: Vec<u32>,
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
        assert!(
            depth.iter().all(|&d| d != u32::MAX),
            "topology is disconnected"
        );
        SpanningTree {
            root,
            parent,
            children,
            depth,
        }
    }

    /// The tree root (the group's sequencing arbiter and lock manager).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of positions in the tree.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree is empty (never true for a built tree).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The parent of `n`, or `None` for the root.
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.parent[n.index()]
    }

    /// The children of `n` in BFS discovery order.
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.children[n.index()]
    }

    /// Hop distance from the root to `n`.
    pub fn depth(&self, n: NodeId) -> u32 {
        self.depth[n.index()]
    }

    /// All positions in BFS order (root first); the order a downstream
    /// multicast wave visits them.
    pub fn bfs_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.len());
        let mut queue = VecDeque::from([self.root]);
        while let Some(at) = queue.pop_front() {
            order.push(at);
            queue.extend(self.children(at).iter().copied());
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FullMesh, Line, MeshTorus2d, Ring};

    fn n(id: u32) -> NodeId {
        NodeId::new(id)
    }

    #[test]
    fn depths_equal_shortest_paths() {
        for topo in [
            &MeshTorus2d::new(4, 4) as &dyn Topology,
            &MeshTorus2d::with_nodes(7),
            &Ring::new(9),
            &Line::new(6),
            &MeshTorus2d::with_nodes(10),
            &FullMesh::new(5),
        ] {
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
}

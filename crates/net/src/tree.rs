//! Spanning trees for root-sequenced group multicast.
//!
//! In the paper, Sesame routes, sequences, and retransmits all sharing
//! messages of a group through a spanning tree rooted at the group root.
//! [`SpanningTree`] builds that tree by breadth-first search over the
//! topology's physical links, so every tree edge is exactly one hop and
//! every root-to-member path is a shortest path. Machines build none: their
//! flood reads the same depths off [`Topology::hops`], and the tree is the
//! reference tests hold it to.

use crate::{NodeId, Topology};

/// A BFS spanning tree over every position of a topology, rooted at one
/// node.
///
/// A fan-out reads nothing of the tree but each member's hop depth
/// ([`Fabric::multicast_into`] turns it into an arrival through
/// [`Fabric::arrival`]), so the tree keeps its root and one flat depth
/// table: 4 bytes per position in one allocation, and a fan-out over it
/// allocates nothing.
///
/// [`Fabric::multicast_into`]: crate::Fabric::multicast_into
/// [`Fabric::arrival`]: crate::Fabric::arrival
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
    /// Per position: hop distance from the root (`u32::MAX` while
    /// undiscovered during the build).
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
        let mut depth = vec![u32::MAX; positions];
        depth[root.index()] = 0;
        // Every position enters the queue once; `head` is its front.
        let mut queue = Vec::with_capacity(positions);
        queue.push(root);
        let mut head = 0;
        while let Some(&at) = queue.get(head) {
            head += 1;
            for nb in topo.neighbors(at) {
                if depth[nb.index()] == u32::MAX {
                    depth[nb.index()] = depth[at.index()] + 1;
                    queue.push(nb);
                }
            }
        }
        assert_eq!(queue.len(), positions, "topology is disconnected");
        SpanningTree { root, depth }
    }

    /// The tree root (the group's sequencing arbiter and lock manager).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of positions in the tree.
    pub fn len(&self) -> usize {
        self.depth.len()
    }

    /// Whether the tree is empty (never true for a built tree).
    pub fn is_empty(&self) -> bool {
        self.depth.is_empty()
    }

    /// Hop distance from the root to `n`.
    pub fn depth(&self, n: NodeId) -> u32 {
        self.depth[n.index()]
    }
}

/// The straightforward tree, one children `Vec` per position and a BFS
/// order rebuilt by a queue walk per call: the depth oracle
/// [`SpanningTree`] is held against, and the edge-by-edge walk the
/// fabric's multicast tests replay.
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
        pub(crate) children: Vec<Vec<NodeId>>,
        pub(crate) depth: Vec<u32>,
    }

    impl ReferenceTree {
        pub(crate) fn build(topo: &dyn Topology, root: NodeId) -> Self {
            let positions = topo.positions();
            let mut children = vec![Vec::new(); positions];
            let mut depth = vec![u32::MAX; positions];
            depth[root.index()] = 0;
            let mut queue = VecDeque::from([root]);
            while let Some(at) = queue.pop_front() {
                for nb in topo.neighbors(at) {
                    if depth[nb.index()] == u32::MAX {
                        depth[nb.index()] = depth[at.index()] + 1;
                        children[at.index()].push(nb);
                        queue.push_back(nb);
                    }
                }
            }
            ReferenceTree {
                root,
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
                assert_eq!(tree.len(), want.depth.len());
                for m in 0..topo.positions() {
                    let depth = tree.depth(n(m as u32));
                    assert_eq!(depth, want.depth[m], "root {r}, member {m}, {topo:?}");
                }
            }
        }
    }
}

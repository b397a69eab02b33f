//! Node and link identifiers.

use std::fmt;

/// Identifies a network position.
///
/// Positions `0..Topology::len()` host simulated CPUs. In rectangular mesh
/// tori whose CPU count is not a perfect rectangle, positions
/// `len()..positions()` exist purely as routers: they forward packets and
/// appear in spanning trees but host no CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id.
    pub const fn new(id: u32) -> Self {
        NodeId(id)
    }

    /// The raw id.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// The id as a `usize` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(id: u32) -> Self {
        NodeId(id)
    }
}

impl From<NodeId> for u32 {
    fn from(id: NodeId) -> u32 {
        id.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies one *directed* link between adjacent positions.
///
/// Equal values denote the same physical channel direction: the steps of
/// [`Topology::route_into`](crate::Topology::route_into), from which
/// multicast routes are unioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(u64);

impl LinkId {
    /// A directed link from `from` to `to`.
    pub fn between(from: NodeId, to: NodeId) -> Self {
        LinkId(((from.get() as u64) << 32) | to.get() as u64)
    }

    /// The transmitting endpoint.
    pub fn from_node(self) -> NodeId {
        NodeId::new((self.0 >> 32) as u32)
    }

    /// The receiving endpoint.
    pub fn to_node(self) -> NodeId {
        NodeId::new(self.0 as u32)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.from_node(), self.to_node())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips() {
        let n = NodeId::new(42);
        assert_eq!(n.get(), 42);
        assert_eq!(n.index(), 42);
        assert_eq!(u32::from(n), 42);
        assert_eq!(NodeId::from(42u32), n);
        assert_eq!(n.to_string(), "n42");
    }

    #[test]
    fn link_id_encodes_both_endpoints() {
        let l = LinkId::between(NodeId::new(3), NodeId::new(9));
        assert_eq!(l.from_node(), NodeId::new(3));
        assert_eq!(l.to_node(), NodeId::new(9));
        assert_eq!(l.to_string(), "n3->n9");
    }

    #[test]
    fn link_directions_are_distinct() {
        let ab = LinkId::between(NodeId::new(1), NodeId::new(2));
        let ba = LinkId::between(NodeId::new(2), NodeId::new(1));
        assert_ne!(ab, ba);
    }
}

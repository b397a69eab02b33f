//! # sesame-net — interconnect models for the Sesame DSM reproduction
//!
//! Topologies, deterministic routing, spanning trees, and link timing for
//! the `sesame-rs` reproduction of *Hermannsson & Wittie, ICDCS 1994*. The
//! paper's simulations assume a square mesh torus with 200 ns hops and
//! 1 Gbit/s point-to-point fiber links; [`MeshTorus2d`] plus
//! [`LinkTiming::paper_1994`] reproduce that configuration, and
//! [`SpanningTree`] provides the per-group reliable multicast trees that
//! Sesame's sharing hardware routes all hidden sharing messages through.
//!
//! ```
//! use sesame_net::{Fabric, LinkTiming, MeshTorus2d, NodeId, SpanningTree};
//! use sesame_sim::SimTime;
//!
//! let topo = MeshTorus2d::with_nodes(9);
//! let tree = SpanningTree::build(&topo, NodeId::new(4));
//! let mut fabric = Fabric::new(LinkTiming::paper_1994());
//! let arrivals = fabric.multicast(
//!     SimTime::ZERO,
//!     &tree,
//!     64,
//!     &[NodeId::new(0), NodeId::new(8)],
//! );
//! assert_eq!(arrivals.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod causal;
mod fabric;
mod hypercube;
mod link;
mod mroute;
mod node;
mod topology;
mod tree;

pub use causal::{CauseAlloc, CauseId};
pub use fabric::{ContentionModel, Fabric, FabricStats};
pub use hypercube::Hypercube;
pub use link::LinkTiming;
pub use mroute::{MulticastRoute, RouteArena, RouteRef};
pub use node::{LinkId, NodeId};
pub use topology::{FullMesh, Line, MeshTorus2d, Ring, Star, Topology};
pub use tree::SpanningTree;

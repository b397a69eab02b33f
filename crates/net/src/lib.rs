//! # sesame-net — interconnect models for the Sesame DSM reproduction
//!
//! Topologies, deterministic routing, multicast fan-outs and link timing
//! for the `sesame-rs` reproduction of *Hermannsson & Wittie, ICDCS 1994*.
//! [`MeshTorus2d`] plus [`LinkTiming::paper_1994`] reproduce the paper's
//! square mesh torus with 200 ns hops and 1 Gbit/s fiber links.
//!
//! A machine sends a group write down one of two fan-outs. By default
//! [`Fabric::flood_into`] floods every position and reads each member's
//! arrival off its hop distance; with pruned multicast a [`RouteArena`]
//! route bills only the links on the member paths and delivers one wave
//! per hop depth. A member arrives at the same instant either way. Only
//! tests and the benchmark's probes build a [`SpanningTree`].
//!
//! ```
//! use sesame_net::{Fabric, LinkTiming, MeshTorus2d, NodeId, RouteArena};
//! use sesame_sim::SimTime;
//!
//! let topo = MeshTorus2d::with_nodes(9);
//! let (root, members) = (NodeId::new(4), [NodeId::new(0), NodeId::new(8)]);
//! let mut fabric = Fabric::new(LinkTiming::paper_1994());
//! let mut flood = Vec::new();
//! fabric.flood_into(SimTime::ZERO, &topo, root, 64, &members, &mut flood);
//! let mut routes = RouteArena::with_routes(1);
//! let route = routes.get_or_build(0, &topo, root, &members);
//! fabric.bill_multicast_route(route, 64);
//! let at = fabric.arrival(SimTime::ZERO, route.wave_depth(0), 64);
//! assert_eq!(route.wave_count(), 1);
//! assert!(route.wave(0).all(|m| flood.contains(&(m, at))));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod causal;
mod fabric;
mod link;
mod mroute;
mod node;
mod topology;
mod tree;

pub use causal::{CauseAlloc, CauseId};
pub use fabric::{Fabric, FabricStats};
pub use link::LinkTiming;
pub use mroute::{MulticastRoute, RouteArena, RouteRef};
pub use node::{LinkId, NodeId};
pub use topology::{Frame, FullMesh, Line, MeshTorus2d, Ring, Topology};
pub use tree::SpanningTree;

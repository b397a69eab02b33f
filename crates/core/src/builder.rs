//! High-level assembly of complete simulated systems.
//!
//! [`SystemBuilder`] wires a topology, link timing, sharing groups, node
//! programs, and a memory model into a ready-to-run
//! [`Machine`] — the API the examples, workloads, and
//! benches build on.
//!
//! ```
//! use sesame_core::builder::{ModelChoice, SystemBuilder, TopologyChoice};
//! use sesame_dsm::{run, RunOptions, VarId};
//! use sesame_net::NodeId;
//!
//! let lock = VarId::new(0);
//! let counter = VarId::new(1);
//! let machine = SystemBuilder::new(9)
//!     .topology(TopologyChoice::MeshTorus)
//!     .model(ModelChoice::Gwc)
//!     .mutex_group(NodeId::new(0), vec![lock, counter], lock)
//!     .build()?;
//! let result = sesame_dsm::run(machine, RunOptions::default());
//! assert_eq!(result.machine.node_count(), 9);
//! # Ok::<(), sesame_core::builder::BuildError>(())
//! ```

use std::error::Error;
use std::fmt;

use sesame_consistency::{EntryModel, ReleaseModel};
use sesame_dsm::{
    lockval, GroupConfigError, GroupSpec, GroupTableBuilder, GwcModel, Machine, MachineConfig,
    Model, ModelAction, Mx, NodeApi, Packet, Program, VarId, Word,
};
use sesame_net::{FullMesh, Line, LinkTiming, MeshTorus2d, NodeId, Ring, Star, Topology};

/// Which memory model the system runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelChoice {
    /// Sesame group write consistency with eagersharing (the paper's
    /// system).
    #[default]
    Gwc,
    /// Entry consistency (fast variant).
    Entry,
    /// Release consistency with eager cache-update sharing.
    Release,
    /// Weak consistency (identical behavior to release in the paper's
    /// scenarios).
    Weak,
}

/// Which interconnect geometry the system uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologyChoice {
    /// Square 2-D mesh torus (the paper's Figure 8 network).
    #[default]
    MeshTorus,
    /// Bidirectional ring.
    Ring,
    /// Line (path graph).
    Line,
    /// Star with node 0 as hub.
    Star,
    /// Binary hypercube (rounded up to the next power of two; the extra
    /// vertices idle).
    Hypercube,
    /// Fully connected.
    FullMesh,
}

impl TopologyChoice {
    /// Instantiates the topology for `nodes` CPUs.
    pub fn instantiate(self, nodes: usize) -> Box<dyn Topology> {
        match self {
            TopologyChoice::MeshTorus => Box::new(MeshTorus2d::with_nodes(nodes)),
            TopologyChoice::Ring => Box::new(Ring::new(nodes)),
            TopologyChoice::Line => Box::new(Line::new(nodes)),
            TopologyChoice::Star => Box::new(Star::new(nodes)),
            TopologyChoice::Hypercube => Box::new(sesame_net::Hypercube::with_at_least(nodes)),
            TopologyChoice::FullMesh => Box::new(FullMesh::new(nodes)),
        }
    }
}

/// A memory model chosen at runtime; dispatches to the concrete
/// implementation.
#[derive(Debug)]
pub enum ModelInstance {
    /// Group write consistency.
    Gwc(GwcModel),
    /// Entry consistency.
    Entry(EntryModel),
    /// Weak/release consistency.
    Release(ReleaseModel),
}

impl ModelInstance {
    /// The GWC model, if that is what was built.
    pub fn as_gwc(&self) -> Option<&GwcModel> {
        match self {
            ModelInstance::Gwc(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable GWC access (pre-run configuration, e.g. planting checker
    /// mutations).
    pub fn as_gwc_mut(&mut self) -> Option<&mut GwcModel> {
        match self {
            ModelInstance::Gwc(m) => Some(m),
            _ => None,
        }
    }

    /// The entry-consistency model, if that is what was built.
    pub fn as_entry(&self) -> Option<&EntryModel> {
        match self {
            ModelInstance::Entry(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable entry-consistency access (pre-run configuration).
    pub fn as_entry_mut(&mut self) -> Option<&mut EntryModel> {
        match self {
            ModelInstance::Entry(m) => Some(m),
            _ => None,
        }
    }

    /// The release-consistency model, if that is what was built.
    pub fn as_release(&self) -> Option<&ReleaseModel> {
        match self {
            ModelInstance::Release(m) => Some(m),
            _ => None,
        }
    }
}

impl Model for ModelInstance {
    fn name(&self) -> &'static str {
        match self {
            ModelInstance::Gwc(m) => m.name(),
            ModelInstance::Entry(m) => m.name(),
            ModelInstance::Release(m) => m.name(),
        }
    }

    fn on_action(&mut self, node: NodeId, action: ModelAction, mx: &mut Mx<'_, '_>) {
        match self {
            ModelInstance::Gwc(m) => m.on_action(node, action, mx),
            ModelInstance::Entry(m) => m.on_action(node, action, mx),
            ModelInstance::Release(m) => m.on_action(node, action, mx),
        }
    }

    fn on_packet(&mut self, node: NodeId, pkt: Packet, mx: &mut Mx<'_, '_>) {
        match self {
            ModelInstance::Gwc(m) => m.on_packet(node, pkt, mx),
            ModelInstance::Entry(m) => m.on_packet(node, pkt, mx),
            ModelInstance::Release(m) => m.on_packet(node, pkt, mx),
        }
    }

    fn on_timer(&mut self, node: NodeId, tag: u64, mx: &mut Mx<'_, '_>) {
        match self {
            ModelInstance::Gwc(m) => m.on_timer(node, tag, mx),
            ModelInstance::Entry(m) => m.on_timer(node, tag, mx),
            ModelInstance::Release(m) => m.on_timer(node, tag, mx),
        }
    }

    fn digest(&self) -> Option<u64> {
        match self {
            ModelInstance::Gwc(m) => m.digest(),
            ModelInstance::Entry(m) => m.digest(),
            ModelInstance::Release(m) => m.digest(),
        }
    }
}

/// Errors from [`SystemBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The group specifications were inconsistent.
    Groups(GroupConfigError),
    /// The system has zero nodes.
    NoNodes,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Groups(e) => write!(f, "invalid group configuration: {e}"),
            BuildError::NoNodes => write!(f, "system must have at least one node"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Groups(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<GroupConfigError> for BuildError {
    fn from(e: GroupConfigError) -> Self {
        BuildError::Groups(e)
    }
}

/// Assembles a complete simulated DSM system.
///
/// This is a consuming builder (programs transfer ownership); every method
/// takes and returns `self`. See the [module documentation](self) for an
/// example.
pub struct SystemBuilder {
    nodes: usize,
    topology: TopologyChoice,
    topo_override: Option<Box<dyn Topology>>,
    timing: LinkTiming,
    model: ModelChoice,
    config: MachineConfig,
    /// Groups are validated and packed as they are added; the first
    /// error surfaces from [`SystemBuilder::build`].
    groups: GroupTableBuilder,
    programs: Vec<Option<Box<dyn Program>>>,
    init: Vec<(VarId, Word)>,
}

impl fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("nodes", &self.nodes)
            .field("topology", &self.topology)
            .field("model", &self.model)
            .field("groups", &self.groups.len())
            .finish()
    }
}

impl SystemBuilder {
    /// Starts a builder for a system of `nodes` CPUs on the paper's
    /// defaults: mesh torus, 200 ns hops, 1 Gbit/s links, GWC.
    pub fn new(nodes: usize) -> Self {
        SystemBuilder {
            nodes,
            topology: TopologyChoice::default(),
            topo_override: None,
            timing: LinkTiming::paper_1994(),
            model: ModelChoice::default(),
            config: MachineConfig::default(),
            groups: GroupTableBuilder::new(),
            programs: (0..nodes).map(|_| None).collect(),
            init: Vec::new(),
        }
    }

    /// Selects the interconnect geometry.
    pub fn topology(mut self, topology: TopologyChoice) -> Self {
        self.topology = topology;
        self
    }

    /// Installs a concrete topology instance, overriding
    /// [`SystemBuilder::topology`] — for geometries a [`TopologyChoice`]
    /// cannot express, such as a deliberately non-square mesh torus
    /// (`sesame bigmesh --rows/--cols`).
    pub fn topology_instance(mut self, topo: Box<dyn Topology>) -> Self {
        self.topo_override = Some(topo);
        self
    }

    /// Selects the link timing.
    pub fn timing(mut self, timing: LinkTiming) -> Self {
        self.timing = timing;
        self
    }

    /// Selects the memory model.
    pub fn model(mut self, model: ModelChoice) -> Self {
        self.model = model;
        self
    }

    /// Sets the protocol feature toggles (hardware blocking, insharing
    /// suspension).
    pub fn machine_config(mut self, config: MachineConfig) -> Self {
        self.config = config;
        self
    }

    /// Adds a sharing group.
    pub fn group(mut self, spec: GroupSpec) -> Self {
        self.groups.push(&spec);
        self
    }

    /// Adds a mutex group whose members are **all** nodes, rooted at
    /// `root`, guarding `vars` with `lock` (appended to `vars` if absent).
    /// The lock is initialized to the FREE sentinel on every node.
    pub fn mutex_group(mut self, root: NodeId, mut vars: Vec<VarId>, lock: VarId) -> Self {
        if !vars.contains(&lock) {
            vars.push(lock);
        }
        self.init.push((lock, lockval::FREE));
        self.groups.push(&GroupSpec {
            root,
            members: (0..self.nodes as u32).map(NodeId::new).collect(),
            vars,
            mutex_lock: Some(lock),
        });
        self
    }

    /// Adds a plain (non-mutex) sharing group over all nodes, rooted at
    /// `root`.
    pub fn shared_group(mut self, root: NodeId, vars: Vec<VarId>) -> Self {
        self.groups.push(&GroupSpec {
            root,
            members: (0..self.nodes as u32).map(NodeId::new).collect(),
            vars,
            mutex_lock: None,
        });
        self
    }

    /// Installs the program for one node (nodes default to
    /// [`IdleProgram`](sesame_dsm::IdleProgram)).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn program(mut self, node: NodeId, program: Box<dyn Program>) -> Self {
        assert!(
            node.index() < self.programs.len(),
            "program for {node} but system has {} nodes",
            self.programs.len()
        );
        self.programs[node.index()] = Some(program);
        self
    }

    /// Installs a closure program for one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn program_fn(
        self,
        node: NodeId,
        f: impl FnMut(sesame_dsm::AppEvent, &mut NodeApi<'_>) + 'static,
    ) -> Self {
        self.program(node, Box::new(f))
    }

    /// Initializes `var` to `value` in every node's memory before the run.
    pub fn init_var(mut self, var: VarId, value: Word) -> Self {
        self.init.push((var, value));
        self
    }

    /// Builds the machine.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the system has no nodes or the group
    /// specifications are inconsistent.
    pub fn build(self) -> Result<Machine<ModelInstance>, BuildError> {
        if self.nodes == 0 {
            return Err(BuildError::NoNodes);
        }
        let groups = self.groups.finish()?;
        let model = match self.model {
            ModelChoice::Gwc => ModelInstance::Gwc(GwcModel::new(&groups, self.nodes)),
            ModelChoice::Entry => ModelInstance::Entry(EntryModel::new(&groups, self.nodes)),
            ModelChoice::Release => ModelInstance::Release(ReleaseModel::new(&groups, self.nodes)),
            ModelChoice::Weak => ModelInstance::Release(ReleaseModel::weak(&groups, self.nodes)),
        };
        let topo = match self.topo_override {
            Some(topo) => topo,
            None => self.topology.instantiate(self.nodes),
        };
        // Topologies that round the CPU count up (hypercubes) get idle
        // programs on the extra vertices.
        let mut programs: Vec<Box<dyn Program>> = self
            .programs
            .into_iter()
            .map(|p| p.unwrap_or_else(|| Box::new(sesame_dsm::IdleProgram)))
            .collect();
        while programs.len() < topo.len() {
            programs.push(Box::new(sesame_dsm::IdleProgram));
        }
        let mut machine = Machine::new(topo, self.timing, groups, programs, model, self.config);
        machine.init_image(&self.init);
        Ok(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesame_dsm::{run, AppEvent, RunOptions};

    #[test]
    fn builds_each_model() {
        for (choice, name) in [
            (ModelChoice::Gwc, "gwc"),
            (ModelChoice::Entry, "entry"),
            (ModelChoice::Release, "release"),
            (ModelChoice::Weak, "weak"),
        ] {
            let machine = SystemBuilder::new(4)
                .model(choice)
                .mutex_group(NodeId::new(0), vec![VarId::new(1)], VarId::new(0))
                .build()
                .unwrap();
            assert_eq!(machine.model().name(), name, "{choice:?}");
        }
    }

    #[test]
    fn builds_each_topology() {
        for t in [
            TopologyChoice::MeshTorus,
            TopologyChoice::Ring,
            TopologyChoice::Line,
            TopologyChoice::Star,
            TopologyChoice::Hypercube,
            TopologyChoice::FullMesh,
        ] {
            let machine = SystemBuilder::new(5)
                .topology(t)
                .shared_group(NodeId::new(0), vec![VarId::new(0)])
                .build()
                .unwrap();
            // Hypercubes round the vertex count up to a power of two.
            assert!(machine.node_count() >= 5, "{t:?}");
        }
    }

    #[test]
    fn mutex_group_initializes_lock_free() {
        let machine = SystemBuilder::new(3)
            .mutex_group(NodeId::new(1), vec![VarId::new(1)], VarId::new(0))
            .build()
            .unwrap();
        for i in 0..3 {
            assert_eq!(
                machine.mem(NodeId::new(i)).read(VarId::new(0)),
                lockval::FREE
            );
        }
    }

    #[test]
    fn zero_nodes_is_an_error() {
        assert_eq!(
            SystemBuilder::new(0).build().unwrap_err(),
            BuildError::NoNodes
        );
    }

    #[test]
    fn bad_groups_surface_as_build_errors() {
        let err = SystemBuilder::new(2)
            .shared_group(NodeId::new(0), vec![VarId::new(0)])
            .shared_group(NodeId::new(1), vec![VarId::new(0)])
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::Groups(_)));
        assert!(err.to_string().contains("invalid group configuration"));
        assert!(Error::source(&err).is_some());
    }

    #[test]
    fn built_system_runs_programs() {
        let machine = SystemBuilder::new(2)
            .shared_group(NodeId::new(0), vec![VarId::new(0)])
            .program_fn(NodeId::new(0), |ev, api| {
                if ev == AppEvent::Started {
                    api.write(VarId::new(0), 5);
                }
            })
            .build()
            .unwrap();
        let result = run(machine, RunOptions::default());
        assert_eq!(result.machine.mem(NodeId::new(1)).read(VarId::new(0)), 5);
    }

    #[test]
    fn model_instance_accessors() {
        let gwc = SystemBuilder::new(2)
            .shared_group(NodeId::new(0), vec![VarId::new(0)])
            .build()
            .unwrap();
        assert!(gwc.model().as_gwc().is_some());
        assert!(gwc.model().as_entry().is_none());
        assert!(gwc.model().as_release().is_none());
    }

    #[test]
    #[should_panic(expected = "program for n9")]
    fn out_of_range_program_panics() {
        let _ = SystemBuilder::new(2).program(NodeId::new(9), Box::new(sesame_dsm::IdleProgram));
    }
}

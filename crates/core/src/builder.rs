//! High-level assembly of complete simulated systems.
//!
//! [`SystemBuilder`] wires a topology, link timing, sharing groups, node
//! programs, and a memory model into a ready-to-run
//! [`Machine`] — the API the examples, workloads, and
//! benches build on.
//!
//! ```
//! use sesame_core::builder::{ModelChoice, SystemBuilder};
//! use sesame_dsm::{run, RunOptions, VarId};
//! use sesame_net::{NodeId, Ring};
//!
//! let lock = VarId::new(0);
//! let counter = VarId::new(1);
//! let machine = SystemBuilder::new(9)
//!     .topology(Ring::new(9))
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
    Model, ModelAction, Mx, Packet, Program, VarId, Word,
};
use sesame_net::{LinkTiming, MeshTorus2d, NodeId, Topology};

/// Which memory model the system runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ModelChoice {
    /// Sesame group write consistency with eagersharing (the paper's
    /// system).
    #[default]
    Gwc,
    /// Entry consistency (fast variant).
    Entry,
    /// Weak/release consistency with eager cache-update sharing (one
    /// model: the two behave identically in the paper's scenarios).
    Release,
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
    /// The topology hosts a different number of CPUs than the system has
    /// nodes.
    TopologySize {
        /// The system's node count.
        nodes: usize,
        /// The CPUs the topology hosts.
        topology: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Groups(e) => write!(f, "invalid group configuration: {e}"),
            BuildError::NoNodes => write!(f, "system must have at least one node"),
            BuildError::TopologySize { nodes, topology } => write!(
                f,
                "the topology hosts {topology} CPUs but the system has {nodes} nodes"
            ),
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
/// The settings and the all-node groups chain by value. What callers add
/// in loops — [`group`](Self::group), [`program`](Self::program) and
/// [`init_var`](Self::init_var) — takes `&mut self`, so a machine of
/// thousands of groups does not move the builder once per group. See the
/// [module documentation](self) for an example.
pub struct SystemBuilder {
    nodes: usize,
    /// `None`: the paper's mesh torus, sized to `nodes`.
    topology: Option<Box<dyn Topology>>,
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
            topology: None,
            timing: LinkTiming::paper_1994(),
            model: ModelChoice::default(),
            config: MachineConfig::default(),
            groups: GroupTableBuilder::new(nodes),
            programs: (0..nodes).map(|_| None).collect(),
            init: Vec::new(),
        }
    }

    /// Selects the interconnect, which must host exactly the system's
    /// nodes (the default is [`MeshTorus2d::with_nodes`]).
    pub fn topology(mut self, topology: impl Topology + 'static) -> Self {
        self.topology = Some(Box::new(topology));
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

    /// Adds a sharing group. The spec is copied into the group table, so
    /// one spec can be refilled for every group.
    pub fn group(&mut self, spec: &GroupSpec) -> &mut Self {
        self.groups.push(spec);
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
    pub fn program(&mut self, node: NodeId, program: Box<dyn Program>) -> &mut Self {
        assert!(
            node.index() < self.programs.len(),
            "program for {node} but system has {} nodes",
            self.programs.len()
        );
        self.programs[node.index()] = Some(program);
        self
    }

    /// Initializes `var` to `value` in every node's memory before the run.
    pub fn init_var(&mut self, var: VarId, value: Word) -> &mut Self {
        self.init.push((var, value));
        self
    }

    /// Builds the machine.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the system has no nodes, the topology
    /// hosts a different number of CPUs, or the group specifications are
    /// inconsistent or name a node the system does not have.
    pub fn build(self) -> Result<Machine<ModelInstance>, BuildError> {
        if self.nodes == 0 {
            return Err(BuildError::NoNodes);
        }
        let topo = match self.topology {
            Some(topo) => topo,
            None => Box::new(MeshTorus2d::with_nodes(self.nodes)),
        };
        if topo.len() != self.nodes {
            let (nodes, topology) = (self.nodes, topo.len());
            return Err(BuildError::TopologySize { nodes, topology });
        }
        let groups = self.groups.finish()?;
        let model = match self.model {
            ModelChoice::Gwc => ModelInstance::Gwc(GwcModel::new(&groups, self.nodes)),
            ModelChoice::Entry => ModelInstance::Entry(EntryModel::new(&groups, self.nodes)),
            ModelChoice::Release => ModelInstance::Release(ReleaseModel::new(&groups, self.nodes)),
        };
        let programs: Vec<Box<dyn Program>> = self
            .programs
            .into_iter()
            .map(|p| p.unwrap_or_else(|| Box::new(sesame_dsm::IdleProgram)))
            .collect();
        let mut machine = Machine::new(topo, self.timing, groups, programs, model, self.config);
        machine.init_image(&self.init);
        Ok(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesame_dsm::{run, AppEvent, NodeApi, RunOptions};

    #[test]
    fn builds_each_model() {
        for (choice, name) in [
            (ModelChoice::Gwc, "gwc"),
            (ModelChoice::Entry, "entry"),
            (ModelChoice::Release, "release"),
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
        use sesame_net::{FullMesh, Line, Ring};
        let five = |b: SystemBuilder| b.build().unwrap().node_count();
        assert_eq!(five(SystemBuilder::new(5)), 5, "the default mesh torus");
        assert_eq!(five(SystemBuilder::new(5).topology(Ring::new(5))), 5);
        assert_eq!(five(SystemBuilder::new(5).topology(Line::new(5))), 5);
        assert_eq!(five(SystemBuilder::new(5).topology(FullMesh::new(5))), 5);
    }

    #[test]
    fn a_topology_smaller_than_the_system_is_an_error() {
        let err = SystemBuilder::new(9)
            .topology(MeshTorus2d::new(2, 2))
            .build();
        let msg = "the topology hosts 4 CPUs but the system has 9 nodes";
        assert_eq!(err.unwrap_err().to_string(), msg);
    }

    #[test]
    fn a_topology_larger_than_the_system_is_an_error() {
        let err = SystemBuilder::new(3)
            .topology(MeshTorus2d::new(2, 2))
            .build();
        let (nodes, topology) = (3, 4);
        assert_eq!(
            err.unwrap_err(),
            BuildError::TopologySize { nodes, topology }
        );
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

    fn group_naming(root: u32, members: &[u32]) -> GroupSpec {
        GroupSpec {
            root: NodeId::new(root),
            members: members.iter().copied().map(NodeId::new).collect(),
            vars: vec![VarId::new(0)],
            mutex_lock: None,
        }
    }

    #[test]
    fn a_member_past_the_last_node_is_an_error() {
        let mut builder = SystemBuilder::new(4);
        builder.group(&group_naming(0, &[0, 9]));
        let err = builder.build().unwrap_err();
        let g0 = sesame_dsm::GroupId::new(0);
        assert_eq!(
            err,
            BuildError::Groups(GroupConfigError::NodeOutOfRange(g0, NodeId::new(9)))
        );
        let msg =
            "invalid group configuration: group g0 names node n9, which the system does not have";
        assert_eq!(err.to_string(), msg);
    }

    #[test]
    fn a_root_past_the_last_node_is_an_error() {
        let mut builder = SystemBuilder::new(4);
        builder.group(&group_naming(0, &[0, 1]));
        builder.group(&group_naming(9, &[2, 3]));
        let g1 = sesame_dsm::GroupId::new(1);
        assert_eq!(
            builder.build().unwrap_err(),
            BuildError::Groups(GroupConfigError::NodeOutOfRange(g1, NodeId::new(9)))
        );
    }

    #[test]
    fn built_system_runs_programs() {
        let mut builder = SystemBuilder::new(2).shared_group(NodeId::new(0), vec![VarId::new(0)]);
        builder.program(
            NodeId::new(0),
            Box::new(|ev, api: &mut NodeApi<'_>| {
                if ev == AppEvent::Started {
                    api.write(VarId::new(0), 5);
                }
            }),
        );
        let machine = builder.build().unwrap();
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
        SystemBuilder::new(2).program(NodeId::new(9), Box::new(sesame_dsm::IdleProgram));
    }
}

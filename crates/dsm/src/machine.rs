//! The DSM machine: nodes, programs, a memory model, and the interconnect,
//! assembled into one deterministic simulation.
//!
//! The [`Machine`] is a single [`Actor`] whose messages are
//! `(node, DsmEvent)` pairs: packet arrivals, computation completions, and
//! timers. On every event it runs the memory [`Model`]'s protocol logic
//! and/or the node's [`Program`], buffering follow-on work so that
//! same-timestamp cascades resolve deterministically.
//!
//! The [`Model`] trait is the seam between this substrate and the
//! consistency protocols: group write consistency lives in this crate
//! ([`GwcModel`](crate::GwcModel)); entry and release consistency live in
//! `sesame-consistency`. All of them speak the shared
//! [`Packet`](crate::Packet) wire protocol, so identical programs run under
//! every model.

use std::collections::{HashMap, VecDeque};

use sesame_net::{
    CauseId, ContentionModel, Fabric, LinkTiming, NodeId, RouteArena, SpanningTree, Topology,
};
use sesame_sim::{
    Actor, CauseOp, Context, RunOutcome, SimDur, SimTime, Simulation, TraceDetail, TraceKind,
    TraceRecorder,
};

use crate::causal::CauseCtx;
use crate::protocol::sizes;
use crate::{
    Action, AppEvent, GroupId, GroupTable, LocalMemory, ModelAction, NodeApi, Packet, PacketKind,
    Program,
};

/// Machine-level events targeted at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DsmEvent {
    /// Deliver [`AppEvent::Started`] (once per node at time zero).
    Start {
        /// How many higher-numbered nodes start after this one as cars of
        /// the same event train: the handler passes `Start { more - 1 }`
        /// on to the next node, so a machine's time-zero burst is one
        /// pending event, not one per node. Zero for a `Start` scheduled
        /// on its own (the schedule explorer's, where each node's start
        /// must be its own choice point).
        more: u32,
    },
    /// A packet arrived off the interconnect.
    Packet(Packet),
    /// A modeled computation phase finished.
    ComputeDone {
        /// Correlation tag from [`NodeApi::compute`].
        tag: u64,
    },
    /// A timer fired.
    TimerFired {
        /// Correlation tag from [`NodeApi::set_timer`].
        tag: u64,
    },
    /// A memory-model timer fired (protocol timeouts such as grant
    /// watchdogs), routed to [`Model::on_timer`].
    ModelTimer {
        /// Correlation tag from [`Mx::set_model_timer`].
        tag: u64,
    },
    /// One wavefront of a pruned-multicast fan-out: the same payload
    /// arriving at several members at one instant, delivered as a single
    /// queue event instead of one event per member
    /// ([`MachineConfig::pruned_multicast`]). Members are processed in
    /// declared group-member order, each with its own application-event
    /// cascade, exactly as if they had been separate events at this time.
    ///
    /// The member list is an index into the group's packed route in the
    /// machine's [`RouteArena`]: under contention-free, loss-free timing
    /// every fan-out over a route reaches exactly the topology-static wave
    /// at its depth-determined instant, so the event only needs
    /// `(group, wave)` — dispatch iterates the precomputed slice and
    /// allocates nothing.
    ///
    /// A fan-out's waves are the cars of one event train
    /// ([`Context::send_train_at`]): the multicast schedules wave 0 only,
    /// and dispatching wave `k` schedules wave `k + 1` in the place
    /// reserved for it, so a write in flight is one pending event walking
    /// the route depth by depth — in the order, to the tie, that
    /// scheduling every wave at the send instant would give.
    McastWave {
        /// The group whose route holds the wave. The arena is append-only,
        /// so the index stays valid however long the event is queued.
        group: GroupId,
        /// Index of the wavefront within the route
        /// ([`RouteRef::wave`](sesame_net::RouteRef::wave)).
        wave: u32,
        /// The shared packet; [`Packet::to`] is overridden per member.
        pkt: Packet,
    },
}

/// The message type of the machine actor.
pub type MachineMsg = (NodeId, DsmEvent);

// One `MachineMsg` is stored per pending event in each of the queue's
// arrays, so a variant that grows it, or owns heap data, must fail to
// compile. The queue holds the message itself under its 16-byte
// (time, seq) key: a pending record of <= 88 bytes.
const _: () = assert!(std::mem::size_of::<MachineMsg>() <= 72);
const _: () = assert!(sesame_sim::EventQueue::<MachineMsg>::RECORD_BYTES <= 88);
const fn _assert_copy<T: Copy>() {}
const _: () = _assert_copy::<DsmEvent>();
const _: () = _assert_copy::<Packet>();
// One of each per node of a machine that may have a million
// (docs/performance.md, "Bytes per node").
const _: () = assert!(std::mem::size_of::<CpuMeter>() <= 32);
const _: () = assert!(std::mem::size_of::<LocalMemory>() <= 80);

/// Feature toggles for protocol ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// The paper's Figure 6 hardware blocking: sharing interfaces drop
    /// root-echoed copies of their own mutex-group data writes.
    pub hw_block: bool,
    /// Honor insharing suspension requests (Figure 4/5); disabling it
    /// demonstrates the lost-update hazard the paper describes.
    pub insharing_suspension: bool,
    /// Route group multicasts over member-pruned routes
    /// ([`RouteArena`]) instead of flooding the full per-root
    /// [`SpanningTree`]. Where the fabric's timing makes a member's arrival
    /// a pure function of its hop depth (no contention, no loss, a nonzero
    /// hop latency) the fan-out additionally rides the route's static
    /// waves: one [`DsmEvent::McastWave`] queue event per wavefront instead
    /// of one per member.
    ///
    /// Off by default: under cut-through timing member arrival *times* are
    /// identical either way, but the traffic accounting differs (pruned
    /// routes bill only member-path edges to `link_traversals`/`ser_ns`,
    /// the flood bills every topology edge) and waves change the event
    /// count — so the default stays byte-compatible with recorded
    /// baselines. Turn it on for large sparse meshes (the 100k-node
    /// scenario), where per-group flooding is quadratic in machine size.
    pub pruned_multicast: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            hw_block: true,
            insharing_suspension: true,
            pruned_multicast: false,
        }
    }
}

/// The memory model's view of the machine during protocol processing.
///
/// Provides local memories, group metadata, packet transmission with
/// fabric-computed arrival times, and application-event delivery.
pub struct Mx<'a, 'b> {
    now: SimTime,
    mems: &'a mut [LocalMemory],
    groups: &'a GroupTable,
    topo: &'a dyn Topology,
    trees: &'a mut HashMap<NodeId, SpanningTree>,
    routes: &'a mut RouteArena,
    fabric: &'a mut Fabric,
    cfg: &'a MachineConfig,
    ctx: &'a mut Context<'b, MachineMsg>,
    app_outbox: &'a mut VecDeque<(NodeId, AppEvent, CauseId)>,
    causes: &'a mut CauseCtx,
    arrivals: &'a mut Vec<(NodeId, SimTime)>,
}

impl Mx<'_, '_> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes in the machine.
    pub fn node_count(&self) -> usize {
        self.mems.len()
    }

    /// The local memory of `node`.
    pub fn mem(&mut self, node: NodeId) -> &mut LocalMemory {
        &mut self.mems[node.index()]
    }

    /// The sharing-group table.
    pub fn groups(&self) -> &GroupTable {
        self.groups
    }

    /// Protocol feature toggles.
    pub fn config(&self) -> &MachineConfig {
        self.cfg
    }

    /// Sends a packet; it arrives at the fabric-computed time (self-sends
    /// arrive after one serialization delay).
    pub fn send(&mut self, pkt: Packet) {
        self.send_after(SimDur::ZERO, pkt);
    }

    /// Sends a packet after an extra processing delay at the sender —
    /// software protocol-handler occupancy in models that are not
    /// hardware-assisted.
    pub fn send_after(&mut self, extra: SimDur, mut pkt: Packet) {
        // The clock, not the send instant: floors up to `now + extra`
        // could still bind a send that leaves before then.
        self.fabric.advance(self.now);
        let at = self
            .fabric
            .unicast(self.now + extra, self.topo, pkt.from, pkt.to, pkt.bytes);
        if self.ctx.tracing() {
            // Canonical message-in-flight event (telemetry builds per-node
            // packet/hop counters and flight spans from it): `arrival_ns` is
            // the fabric-computed arrival time in nanoseconds.
            let hops = self.topo.hops(pkt.from, pkt.to);
            self.ctx.trace_for(
                pkt.from.index(),
                TraceKind::PktSend,
                TraceDetail::Packet {
                    from: pkt.from.get(),
                    to: pkt.to.get(),
                    bytes: pkt.bytes,
                    hops,
                    arrival_ns: at.as_nanos(),
                },
            );
        }
        // Stamp the packet with a fresh send id chaining from the current
        // cause; the receiver restores it as its causal context.
        pkt.cause = self.causes.stage(self.ctx, pkt.from, CauseOp::Send);
        self.causes.hold(pkt.cause);
        self.ctx.send_at(at, (pkt.to, DsmEvent::Packet(pkt)));
    }

    /// Multicasts one sequenced write down `group`'s multicast route to
    /// every member; each member's copy arrives at its hop-depth-determined
    /// time. The root member (if any) receives its echo immediately.
    ///
    /// Routing structures are built lazily on a group's first multicast and
    /// cached: full [`SpanningTree`]s are shared between all groups with
    /// the same root (the default), member-pruned routes are per group,
    /// packed into one [`RouteArena`]
    /// ([`MachineConfig::pruned_multicast`]). Both are pure functions of
    /// the topology and the validated group specs, so lazy construction
    /// cannot perturb determinism.
    pub fn multicast(&mut self, group: GroupId, bytes: u32, kind: PacketKind) {
        let g = self.groups.group(group);
        let root = g.root();
        let now = self.now;
        self.fabric.advance(now);
        let timing = self.fabric.timing();
        // How arrivals are known. Under contention-free, loss-free timing
        // with a nonzero hop latency a member's arrival instant is a pure
        // function of its hop depth, so a pruned route's topology-static
        // waves ARE the fan-out and nothing is computed per multicast.
        // (Nonzero hop latency guarantees distinct depths land at distinct
        // instants; zero loss means no per-member roll is owed.) Anywhere
        // else the fabric computes an arrival per member.
        let waves = if self.cfg.pruned_multicast {
            let route = self
                .routes
                .get_or_build(group.index(), self.topo, root, g.members());
            if self.fabric.contention() == ContentionModel::None
                && self.fabric.loss_probability() == 0.0
                && timing.hop_latency > SimDur::ZERO
            {
                self.fabric.bill_multicast_route(route, bytes);
                Some(route)
            } else {
                self.fabric
                    .multicast_route_into(now, route, bytes, self.arrivals);
                None
            }
        } else {
            let tree = self
                .trees
                .entry(root)
                .or_insert_with(|| SpanningTree::build(self.topo, root));
            self.fabric
                .multicast_into(now, tree, bytes, g.members(), self.arrivals);
            None
        };
        // The root echo (depth 0) is local and immediate; depth d >= 1
        // costs one serialization plus d hop latencies.
        let depth_at = |d: u32| {
            if d == 0 {
                now
            } else {
                now + timing.transfer(d, bytes)
            }
        };
        if self.ctx.tracing() {
            // Canonical multicast event: `last_ns` is the latest member
            // arrival, the end of the whole fan-out interval.
            let (members, last) = match waves {
                Some(route) => (route.member_count(), depth_at(route.max_depth())),
                None => (
                    self.arrivals.len(),
                    self.arrivals.iter().map(|&(_, at)| at).max().unwrap_or(now),
                ),
            };
            self.ctx.trace_for(
                root.index(),
                TraceKind::PktMcast,
                TraceDetail::Multicast {
                    group: group.get(),
                    bytes,
                    members: members as u32,
                    last_ns: last.as_nanos(),
                },
            );
        }
        // One mcast id covers the whole fan-out: every member's packet
        // carries it, so each arrival chains back to this decision.
        let cause = self.causes.stage(self.ctx, root, CauseOp::Mcast);
        let packet_to = |to: NodeId| Packet {
            from: root,
            to,
            bytes,
            kind,
            cause,
        };
        match waves {
            // Wave 0 heads a train of one car per wave (a group has a
            // member, so a route has a wave); dispatching a wave sends the
            // next.
            Some(route) => {
                let first = route.wave(0).next().expect("a wave has a member");
                let ev = DsmEvent::McastWave {
                    group,
                    wave: 0,
                    pkt: packet_to(first),
                };
                // One hold for the whole train, released by its last car.
                self.causes.hold(cause);
                self.ctx.send_train_at(
                    depth_at(route.wave_depth(0)),
                    route.wave_count() as u64,
                    (first, ev),
                );
            }
            None => {
                for i in 0..self.arrivals.len() {
                    let (member, at) = self.arrivals[i];
                    // Per-member loss, rolled in declared member order (the
                    // root's own echo is a local operation and never lost);
                    // members recover via nack-triggered retransmission.
                    if member != root && self.fabric.roll_loss() {
                        continue;
                    }
                    self.causes.hold(cause);
                    self.ctx
                        .send_at(at, (member, DsmEvent::Packet(packet_to(member))));
                }
            }
        }
    }

    /// Schedules a protocol timer: [`Model::on_timer`] fires at `node`
    /// after `delay`.
    pub fn set_model_timer(&mut self, node: NodeId, delay: SimDur, tag: u64) {
        self.causes.park_model_timer(node, tag);
        self.ctx
            .send_at(self.now + delay, (node, DsmEvent::ModelTimer { tag }));
    }

    /// Queues an application event for delivery to `node`'s program in the
    /// current cascade (zero simulated delay). The event captures the
    /// delivering protocol action's causal context.
    pub fn deliver(&mut self, node: NodeId, event: AppEvent) {
        self.app_outbox
            .push_back((node, event, self.causes.current()));
    }

    /// Records a causal point attributed to `node`: a fresh id chaining
    /// from the current cause, which becomes the new current cause. No-op
    /// (returns [`CauseId::NONE`]) when tracing is detached.
    pub fn cause_point(&mut self, node: NodeId, op: CauseOp) -> CauseId {
        self.causes.point(self.ctx, node, op)
    }

    /// Records a trace entry attributed to `node`.
    pub fn trace(&mut self, node: NodeId, kind: TraceKind, detail: TraceDetail) {
        self.ctx.trace_for(node.index(), kind, detail);
    }

    /// Whether tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.ctx.tracing()
    }
}

/// A memory consistency model: the protocol logic between programs and the
/// interconnect.
pub trait Model {
    /// A short human-readable model name (for reports).
    fn name(&self) -> &'static str;

    /// Handles a program-issued action on `node`.
    fn on_action(&mut self, node: NodeId, action: ModelAction, mx: &mut Mx<'_, '_>);

    /// Handles a protocol packet arriving at `node`.
    fn on_packet(&mut self, node: NodeId, pkt: Packet, mx: &mut Mx<'_, '_>);

    /// Handles a protocol timer set with [`Mx::set_model_timer`]. The
    /// default ignores it.
    fn on_timer(&mut self, node: NodeId, tag: u64, mx: &mut Mx<'_, '_>) {
        let _ = (node, tag, mx);
    }

    /// An order-independent hash of the model's protocol state, used by the
    /// `sesame-check` explorer to recognize revisited states. `None` (the
    /// default) means the model does not support state-revisit pruning.
    fn digest(&self) -> Option<u64> {
        None
    }
}

impl<M: Model + ?Sized> Model for Box<M> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn on_action(&mut self, node: NodeId, action: ModelAction, mx: &mut Mx<'_, '_>) {
        (**self).on_action(node, action, mx)
    }
    fn on_packet(&mut self, node: NodeId, pkt: Packet, mx: &mut Mx<'_, '_>) {
        (**self).on_packet(node, pkt, mx)
    }
    fn on_timer(&mut self, node: NodeId, tag: u64, mx: &mut Mx<'_, '_>) {
        (**self).on_timer(node, tag, mx)
    }
    fn digest(&self) -> Option<u64> {
        (**self).digest()
    }
}

/// Per-node CPU accounting: busy intervals and total useful work.
///
/// Work is credited when a compute phase *completes* (or the elapsed part
/// when it is cancelled), so a run stopped mid-phase never counts work
/// that was not performed.
///
/// Four integer words per node: the phase in flight and two nanosecond
/// sums. Efficiency is the average of a busy signal that rises when a
/// phase starts and falls when it is finished or cancelled; `occupied`
/// integrates it over the stretches already closed. It parts from
/// `total_busy` only where the signal does not follow the phase — a
/// `ComputeDone` handled after the phase's end, or a phase started at the
/// instant the previous one ends, before its `ComputeDone` is handled.
/// Sums of integer nanoseconds are exact in an `f64` below 2^53 ns (104
/// simulated days), so `efficiency` returns what a floating-point
/// time-weighted average of the signal returns, to the bit.
#[derive(Debug, Clone)]
pub struct CpuMeter {
    /// Start of the phase in flight; `start > end` marks an idle CPU.
    start: SimTime,
    /// End of the phase in flight.
    end: SimTime,
    total_busy: SimDur,
    /// Time the busy signal was high, over the stretches it has closed.
    occupied: SimDur,
}

impl Default for CpuMeter {
    fn default() -> Self {
        CpuMeter {
            start: SimTime::MAX,
            end: SimTime::ZERO,
            total_busy: SimDur::ZERO,
            occupied: SimDur::ZERO,
        }
    }
}

impl CpuMeter {
    /// The phase in flight, `(start, end)`.
    fn phase(&self) -> Option<(SimTime, SimTime)> {
        (self.start <= self.end).then_some((self.start, self.end))
    }

    /// Ends the phase in flight: the busy signal falls at `now`.
    fn close(&mut self, now: SimTime, start: SimTime) {
        self.occupied += now.saturating_since(start);
        (self.start, self.end) = (SimTime::MAX, SimTime::ZERO);
    }

    fn start(&mut self, now: SimTime, dur: SimDur) {
        if let Some((start, end)) = self.phase() {
            assert!(
                now >= end,
                "program started a compute phase while one is in flight"
            );
            // The signal stays high into the new phase, whose end alone
            // a `ComputeDone` can now credit.
            self.occupied += now.saturating_since(start);
        }
        (self.start, self.end) = (now, now + dur);
    }

    fn finish(&mut self, now: SimTime) {
        if let Some((start, end)) = self.phase() {
            if now >= end {
                self.total_busy += end - start;
                self.close(now, start);
            }
        }
    }

    /// Aborts the current busy interval: the elapsed (occupied) portion
    /// counts, the remaining portion does not.
    fn cancel(&mut self, now: SimTime) {
        if let Some((start, _)) = self.phase() {
            self.total_busy += now.saturating_since(start);
            self.close(now, start);
        }
    }

    /// Total CPU-busy time accumulated.
    pub fn total_busy(&self) -> SimDur {
        self.total_busy
    }

    /// Busy fraction (efficiency) over `[0, end]`; at `end == 0`, whether
    /// a phase is in flight.
    pub fn efficiency(&self, end: SimTime) -> f64 {
        let phase = self.phase();
        if end == SimTime::ZERO {
            return if phase.is_some() { 1.0 } else { 0.0 };
        }
        let open = phase.map_or(SimDur::ZERO, |(start, _)| end.saturating_since(start));
        (self.occupied + open).as_nanos() as f64 / end.as_nanos() as f64
    }
}

/// The assembled DSM machine.
pub struct Machine<M: Model> {
    topo: Box<dyn Topology>,
    fabric: Fabric,
    groups: GroupTable,
    /// Full spanning trees, built lazily on first multicast and shared by
    /// every group with the same root (a tree depends only on the root).
    trees: HashMap<NodeId, SpanningTree>,
    /// Member-pruned routes, built lazily per group when
    /// [`MachineConfig::pruned_multicast`] is on and packed into one
    /// arena addressed by the dense group index: wave dispatch resolves
    /// its route with one header load instead of a hash probe per event.
    routes: RouteArena,
    mems: Vec<LocalMemory>,
    cpus: Vec<CpuMeter>,
    programs: Vec<Box<dyn Program>>,
    model: M,
    cfg: MachineConfig,
    causes: CauseCtx,
    /// Arrival-list scratch reused by every multicast, so steady-state
    /// dispatch performs no per-call allocation.
    arrivals: Vec<(NodeId, SimTime)>,
    /// Wave-member scratch for [`DsmEvent::McastWave`] dispatch: the wave
    /// slice is copied out of the route arena so member delivery can borrow
    /// the machine mutably.
    wave_scratch: Vec<NodeId>,
    /// The application-event cascade queue, a field so its capacity
    /// survives across events.
    app_q: VecDeque<(NodeId, AppEvent, CauseId)>,
    /// Program-action scratch reused by every cascade step.
    actions: Vec<Action>,
}

impl<M: Model> std::fmt::Debug for Machine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("nodes", &self.mems.len())
            .field("groups", &self.groups.len())
            .field("model", &self.model.name())
            .finish()
    }
}

impl<M: Model> Machine<M> {
    /// Assembles a machine.
    ///
    /// # Panics
    ///
    /// Panics if the number of programs does not equal the topology's CPU
    /// count, or if a group root is not a valid topology position.
    pub fn new(
        topo: Box<dyn Topology>,
        timing: LinkTiming,
        groups: GroupTable,
        programs: Vec<Box<dyn Program>>,
        model: M,
        cfg: MachineConfig,
    ) -> Self {
        assert_eq!(
            programs.len(),
            topo.len(),
            "one program per CPU node is required"
        );
        // Trees and routes are built lazily (on a group's first multicast),
        // but root validity is still checked eagerly so a bad group spec
        // fails at assembly, not mid-run.
        for g in groups.iter() {
            assert!(
                g.root().index() < topo.positions(),
                "group {} root {} is not a valid topology position",
                g.id(),
                g.root()
            );
        }
        let n = topo.len();
        let n_groups = groups.len();
        Machine {
            topo,
            fabric: Fabric::new(timing),
            groups,
            trees: HashMap::new(),
            // Route headers only where routes will be built: the default
            // flood machine holds no route storage at all.
            routes: RouteArena::with_routes(if cfg.pruned_multicast { n_groups } else { 0 }),
            mems: vec![LocalMemory::new(); n],
            cpus: vec![CpuMeter::default(); n],
            programs,
            model,
            cfg,
            causes: CauseCtx::new(),
            arrivals: Vec::new(),
            wave_scratch: Vec::new(),
            app_q: VecDeque::new(),
            actions: Vec::new(),
        }
    }

    /// Number of CPU nodes.
    pub fn node_count(&self) -> usize {
        self.mems.len()
    }

    /// The local memory of `node` (post-run inspection, or pre-run
    /// initialization of shared variables).
    pub fn mem(&self, node: NodeId) -> &LocalMemory {
        &self.mems[node.index()]
    }

    /// Mutable local memory access (pre-run initialization).
    pub fn mem_mut(&mut self, node: NodeId) -> &mut LocalMemory {
        &mut self.mems[node.index()]
    }

    /// Initializes `var` to `value` in every node's local copy — how shared
    /// segments (and lock FREE sentinels) are set up before a run.
    ///
    /// Writes the value into each memory, so cost is O(nodes). Bulk
    /// initialization of a freshly built machine should prefer
    /// [`Machine::init_image`], which shares one sorted image across all
    /// nodes instead.
    pub fn init_var(&mut self, var: crate::VarId, value: crate::Word) {
        for m in &mut self.mems {
            m.write(var, value);
        }
    }

    /// Installs the pre-run initialization image: `pairs` applied in order
    /// (later entries win), observed by every node's memory. Equivalent to
    /// calling [`Machine::init_var`] per entry, but O(pairs log pairs +
    /// nodes) instead of O(pairs × nodes): all memories share one sorted
    /// image and consult it on local misses, so a 100k-group mesh no
    /// longer materializes every lock sentinel in every node.
    ///
    /// # Panics
    ///
    /// Panics if any node memory has already been written (the image must
    /// be installed before initialization writes, not after).
    pub fn init_image(&mut self, pairs: &[(crate::VarId, crate::Word)]) {
        if pairs.is_empty() {
            return;
        }
        let mut image = pairs.to_vec();
        // Stable sort keeps duplicate vars in application order; collapse
        // each run to its final value.
        image.sort_by_key(|&(v, _)| v);
        let mut merged: Vec<(crate::VarId, crate::Word)> = Vec::with_capacity(image.len());
        for (var, value) in image {
            match merged.last_mut() {
                Some(last) if last.0 == var => last.1 = value,
                _ => merged.push((var, value)),
            }
        }
        let base: std::sync::Arc<[(crate::VarId, crate::Word)]> = merged.into();
        for m in &mut self.mems {
            m.set_base(base.clone());
        }
    }

    /// The CPU meter of `node`.
    pub fn cpu(&self, node: NodeId) -> &CpuMeter {
        &self.cpus[node.index()]
    }

    /// The sharing-group table (e.g. for conflict-footprint computation).
    pub fn groups(&self) -> &GroupTable {
        &self.groups
    }

    /// The causal bookkeeping (post-run inspection of what is still held).
    pub fn causes(&self) -> &CauseCtx {
        &self.causes
    }

    /// Heap bytes of pruned-multicast route storage (packed routes and
    /// per-group headers). Zero on a machine that floods spanning trees,
    /// which builds no routes.
    pub fn route_heap_bytes(&self) -> usize {
        self.routes.heap_bytes()
    }

    /// Combined digest of the machine's logical state — model protocol
    /// state, every node's local memory, and every program's state — for
    /// the `sesame-check` explorer's state-revisit pruning. `None` if the
    /// model or any program does not implement digests.
    ///
    /// Timestamps (CPU meters, fabric statistics) are deliberately
    /// excluded: under the explorer's time-free enabledness semantics they
    /// never influence future transitions, and including them would make
    /// every interleaving look like a fresh state.
    pub fn state_digest(&self) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.model.digest()?.hash(&mut h);
        for (i, mem) in self.mems.iter().enumerate() {
            let mut words: Vec<(u32, crate::Word)> =
                mem.iter().map(|(v, w)| (v.get(), w)).collect();
            words.sort_unstable();
            (i, words).hash(&mut h);
        }
        for p in &self.programs {
            p.digest()?.hash(&mut h);
        }
        Some(h.finish())
    }

    /// The interconnect fabric (to inspect its loss and contention
    /// configuration, e.g. the schedule explorer's preconditions).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The interconnect fabric (to set loss or contention before a run, or
    /// to read traffic stats after).
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// Traffic statistics.
    pub fn fabric_stats(&self) -> sesame_net::FabricStats {
        self.fabric.stats()
    }

    /// The memory model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable memory-model access (pre-run configuration).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// The program running on `node`, downcast-free access for tests that
    /// own the concrete type is available via [`Machine::into_parts`].
    pub fn program(&self, node: NodeId) -> &dyn Program {
        self.programs[node.index()].as_ref()
    }

    /// Sum of all nodes' busy time (useful work), for network-power
    /// computation.
    pub fn total_busy(&self) -> SimDur {
        self.cpus.iter().map(|c| c.total_busy()).sum()
    }

    /// Decomposes the machine for post-run inspection of programs.
    pub fn into_parts(self) -> (Vec<Box<dyn Program>>, Vec<LocalMemory>, M) {
        (self.programs, self.mems, self.model)
    }

    /// The car that follows wave `wave` of `group`'s fan-out of `pkt`, and
    /// how much later it lands; `None` after the last wave. The gap is
    /// counted from the wave being dispatched rather than from the send
    /// instant, because the schedule explorer may deliver a car late.
    fn wave_after(&self, group: GroupId, wave: u32, pkt: Packet) -> Option<(SimDur, MachineMsg)> {
        let route = self.routes.get(group.index())?;
        let (this, next) = (wave as usize, wave as usize + 1);
        if next == route.wave_count() {
            return None;
        }
        // Waves past the root's immediate echo (depth 0) all pay the one
        // serialization, so they lie whole hop latencies apart.
        let timing = self.fabric.timing();
        let gap = match (route.wave_depth(this), route.wave_depth(next)) {
            (0, d) => timing.transfer(d, pkt.bytes),
            (d0, d1) => timing.hop_latency * u64::from(d1 - d0),
        };
        let to = route.wave(next).next().expect("a wave has a member");
        let car = DsmEvent::McastWave {
            group,
            wave: wave + 1,
            pkt: Packet { to, ..pkt },
        };
        Some((gap, (to, car)))
    }

    fn with_mx<R>(
        &mut self,
        ctx: &mut Context<'_, MachineMsg>,
        app_q: &mut VecDeque<(NodeId, AppEvent, CauseId)>,
        f: impl FnOnce(&mut M, &mut Mx<'_, '_>) -> R,
    ) -> R {
        let Machine {
            topo,
            fabric,
            groups,
            trees,
            routes,
            mems,
            model,
            cfg,
            causes,
            arrivals,
            ..
        } = self;
        let mut mx = Mx {
            now: ctx.now(),
            mems,
            groups,
            topo: topo.as_ref(),
            trees,
            routes,
            fabric,
            cfg,
            ctx,
            app_outbox: app_q,
            causes,
            arrivals,
        };
        f(model, &mut mx)
    }

    fn drain(
        &mut self,
        app_q: &mut VecDeque<(NodeId, AppEvent, CauseId)>,
        ctx: &mut Context<'_, MachineMsg>,
    ) {
        while let Some((node, event, cause)) = app_q.pop_front() {
            self.causes.set_current(cause);
            if ctx.tracing() {
                // Canonical lock-transfer events for trace-level checkers
                // (`sesame-verify`): a node now believes it holds / has
                // given up the lock.
                match &event {
                    AppEvent::Acquired { lock } => {
                        ctx.trace_for(
                            node.index(),
                            TraceKind::EvAcquired,
                            TraceDetail::Var { var: lock.get() },
                        );
                    }
                    AppEvent::Released { lock } => {
                        ctx.trace_for(
                            node.index(),
                            TraceKind::EvReleased,
                            TraceDetail::Var { var: lock.get() },
                        );
                    }
                    _ => {}
                }
            }
            if let AppEvent::Acquired { .. } = &event {
                // The program's actions inside the critical section chain
                // from the acquisition, not from the delivering apply.
                self.causes.point(ctx, node, CauseOp::Acquired);
            }
            // The action buffer is a machine field so its capacity survives
            // across cascade steps; it is taken out while in use because
            // the loop body re-borrows the machine (`with_mx`).
            let mut actions = std::mem::take(&mut self.actions);
            debug_assert!(actions.is_empty());
            {
                let mem = &self.mems[node.index()];
                let mut api = NodeApi::new(node, ctx.now(), mem, &mut actions, ctx.tracing());
                self.programs[node.index()].on_event(event, &mut api);
            }
            for action in actions.drain(..) {
                match action {
                    Action::Model(ma) => {
                        if ctx.tracing() {
                            // Canonical shared-access events, in program
                            // issue order (interleaved with `acc-read`
                            // records pushed by `NodeApi::read`).
                            match &ma {
                                ModelAction::Write { var, value } => ctx.trace_for(
                                    node.index(),
                                    TraceKind::AccWrite,
                                    TraceDetail::VarVal {
                                        var: var.get(),
                                        val: *value,
                                    },
                                ),
                                ModelAction::WriteLocal { var, value } => ctx.trace_for(
                                    node.index(),
                                    TraceKind::AccWriteLocal,
                                    TraceDetail::VarVal {
                                        var: var.get(),
                                        val: *value,
                                    },
                                ),
                                ModelAction::Acquire { lock } => ctx.trace_for(
                                    node.index(),
                                    TraceKind::LockAcquire,
                                    TraceDetail::Var { var: lock.get() },
                                ),
                                ModelAction::Release { lock } => ctx.trace_for(
                                    node.index(),
                                    TraceKind::LockRelease,
                                    TraceDetail::Var { var: lock.get() },
                                ),
                                _ => {}
                            }
                        }
                        match &ma {
                            ModelAction::Write { .. } => {
                                self.causes.point(ctx, node, CauseOp::Write);
                            }
                            ModelAction::Acquire { .. } => {
                                self.causes.point(ctx, node, CauseOp::Acquire);
                            }
                            ModelAction::Release { .. } => {
                                self.causes.point(ctx, node, CauseOp::Release);
                            }
                            _ => {}
                        }
                        self.with_mx(ctx, app_q, |model, mx| model.on_action(node, ma, mx));
                    }
                    Action::Compute { dur, tag } => {
                        self.cpus[node.index()].start(ctx.now(), dur);
                        let id = self.causes.stage(ctx, node, CauseOp::Compute);
                        self.causes.park_compute(node, tag, id);
                        ctx.send(dur, (node, DsmEvent::ComputeDone { tag }));
                    }
                    Action::CancelCompute => {
                        self.cpus[node.index()].cancel(ctx.now());
                    }
                    Action::Timer { dur, tag } => {
                        self.causes.park_timer(node, tag);
                        ctx.send(dur, (node, DsmEvent::TimerFired { tag }));
                    }
                    Action::SendMessage {
                        to,
                        payload_bytes,
                        tag,
                    } => {
                        let pkt = Packet {
                            from: node,
                            to,
                            bytes: payload_bytes + sizes::APP_HEADER,
                            kind: PacketKind::App { tag },
                            cause: CauseId::NONE,
                        };
                        self.with_mx(ctx, app_q, |_, mx| mx.send(pkt));
                    }
                    Action::Stop => ctx.stop(),
                    Action::Trace { kind, detail } => {
                        ctx.trace_for(node.index(), kind, detail);
                        // Program-level causal milestones: rollbacks and
                        // section completions announce themselves through
                        // trace actions; pair them with a causal point so
                        // chains run through them.
                        match kind {
                            TraceKind::OptRollback => {
                                self.causes.point(ctx, node, CauseOp::Rollback);
                            }
                            TraceKind::MutexComplete => {
                                self.causes.point(ctx, node, CauseOp::Complete);
                            }
                            _ => {}
                        }
                    }
                }
            }
            self.actions = actions;
        }
    }
}

impl<M: Model> Actor for Machine<M> {
    type Msg = MachineMsg;

    fn handle(&mut self, (node, event): MachineMsg, ctx: &mut Context<'_, MachineMsg>) {
        // The cascade queue is a machine field so its capacity survives
        // across events (steady-state dispatch allocates nothing); it is
        // taken out while in use because handling re-borrows the machine.
        let mut app_q = std::mem::take(&mut self.app_q);
        debug_assert!(app_q.is_empty());
        // While the cause this event carries is still held: the arms below
        // release it, and what they cite is at or above the floor.
        self.causes.publish_floor(ctx);
        match event {
            DsmEvent::Start { more } => {
                if more > 0 {
                    let next = NodeId::new(node.get() + 1);
                    let car = DsmEvent::Start { more: more - 1 };
                    ctx.send_next_car_at(ctx.now(), (next, car));
                }
                // Spontaneous: a root of the causal forest.
                self.causes.set_current(CauseId::NONE);
                app_q.push_back((node, AppEvent::Started, CauseId::NONE));
            }
            DsmEvent::ComputeDone { tag } => {
                self.cpus[node.index()].finish(ctx.now());
                self.causes.resume_compute(node, tag);
                app_q.push_back((node, AppEvent::ComputeDone { tag }, self.causes.current()));
            }
            DsmEvent::TimerFired { tag } => {
                self.causes.resume_timer(node, tag);
                app_q.push_back((node, AppEvent::TimerFired { tag }, self.causes.current()));
            }
            DsmEvent::Packet(pkt) => {
                // The packet carried its sender's causal context.
                self.causes.release(pkt.cause);
                self.causes.set_current(pkt.cause);
                self.with_mx(ctx, &mut app_q, |model, mx| model.on_packet(node, pkt, mx));
            }
            DsmEvent::McastWave { group, wave, pkt } => {
                // One queue event carries a whole fan-out wavefront; each
                // member still gets its own packet delivery and cascade, in
                // declared member order, as if they were separate events at
                // this instant. The route's wave is copied into scratch
                // first because delivering to a member borrows the whole
                // machine mutably.
                let route = self
                    .routes
                    .get(group.index())
                    .expect("McastWave event for a group whose route was never built");
                self.wave_scratch.clear();
                self.wave_scratch.extend(route.wave(wave as usize));
                for i in 0..self.wave_scratch.len() {
                    let m = self.wave_scratch[i];
                    self.causes.set_current(pkt.cause);
                    let p = Packet { to: m, ..pkt };
                    self.with_mx(ctx, &mut app_q, |model, mx| model.on_packet(m, p, mx));
                    self.drain(&mut app_q, ctx);
                }
                match self.wave_after(group, wave, pkt) {
                    Some((gap, car)) => ctx.send_next_car_at(ctx.now() + gap, car),
                    None => self.causes.release(pkt.cause),
                }
            }
            DsmEvent::ModelTimer { tag } => {
                self.causes.resume_model_timer(node, tag);
                self.with_mx(ctx, &mut app_q, |model, mx| model.on_timer(node, tag, mx));
            }
        }
        self.drain(&mut app_q, ctx);
        self.app_q = app_q;
    }
}

/// Options for [`run`].
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Whether to record a trace.
    pub tracing: bool,
    /// Hard wall on simulated time.
    pub until: SimTime,
    /// Runaway protection: maximum events processed.
    pub event_limit: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            tracing: false,
            until: SimTime::MAX,
            event_limit: sesame_sim::DEFAULT_EVENT_LIMIT,
        }
    }
}

/// The outcome of one machine run.
#[derive(Debug)]
pub struct RunResult<M: Model> {
    /// The machine, for memory / meter / model inspection.
    pub machine: Machine<M>,
    /// The recorded trace (empty unless tracing was enabled).
    pub trace: TraceRecorder,
    /// Simulated completion time (makespan).
    pub end: SimTime,
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// Events processed.
    pub events: u64,
}

impl<M: Model> RunResult<M> {
    /// Busy fraction of `node` over the whole run.
    pub fn efficiency(&self, node: NodeId) -> f64 {
        self.machine.cpu(node).efficiency(self.end)
    }

    /// Network power: average efficiency times node count, equivalently
    /// total useful work divided by makespan. This is the paper's speedup
    /// metric for Figures 2 and 8.
    pub fn network_power(&self) -> f64 {
        if self.end == SimTime::ZERO {
            return 0.0;
        }
        self.machine.total_busy().as_nanos() as f64 / self.end.as_nanos() as f64
    }
}

/// Runs a machine to completion (or to the configured limits), scheduling
/// [`AppEvent::Started`] on every node at time zero.
pub fn run<M: Model>(machine: Machine<M>, opts: RunOptions) -> RunResult<M> {
    run_observed(machine, opts, None)
}

/// Like [`run`], but with an optional online [`sesame_sim::TraceObserver`]
/// that sees
/// every trace record as it is made (e.g. the `sesame-verify` checkers).
/// The observer receives records even when `opts.tracing` is false, in
/// which case no in-memory trace is retained.
pub fn run_observed<M: Model>(
    machine: Machine<M>,
    opts: RunOptions,
    observer: Option<std::rc::Rc<std::cell::RefCell<dyn sesame_sim::TraceObserver>>>,
) -> RunResult<M> {
    let n = machine.node_count();
    let mut sim = Simulation::new(machine);
    sim.set_tracing(opts.tracing);
    sim.set_event_limit(opts.event_limit);
    if let Some(observer) = observer {
        sim.set_trace_observer(observer);
    }
    if n > 0 {
        // One train, a car per node: each node's `Start` schedules the
        // next, in the queue places n separate events would have taken.
        let more = u32::try_from(n - 1).expect("node ids are 32-bit");
        sim.schedule_train(
            SimTime::ZERO,
            (NodeId::new(0), DsmEvent::Start { more }),
            n as u64,
        );
    }
    let outcome = sim.run_until(opts.until);
    let end = sim.now();
    let events = sim.events_processed();
    let (machine, trace) = sim.into_parts();
    RunResult {
        machine,
        trace,
        end,
        outcome,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesame_sim::{DetRng, TimeWeighted};

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Start(u64),
        Finish,
        Cancel,
    }

    impl CpuMeter {
        fn apply(&mut self, now: SimTime, op: Op) {
            match op {
                Op::Start(dur) => self.start(now, SimDur::from_nanos(dur)),
                Op::Finish => self.finish(now),
                Op::Cancel => self.cancel(now),
            }
        }
    }

    /// The meter as it was: a floating-point time-weighted average of the
    /// busy signal next to the phase bookkeeping.
    struct RefMeter {
        busy_until: SimTime,
        current: Option<(SimTime, SimTime)>,
        total_busy: SimDur,
        meter: TimeWeighted,
    }

    impl RefMeter {
        fn new() -> Self {
            RefMeter {
                busy_until: SimTime::ZERO,
                current: None,
                total_busy: SimDur::ZERO,
                meter: TimeWeighted::new(SimTime::ZERO, 0.0),
            }
        }

        fn apply(&mut self, now: SimTime, op: Op) {
            match op {
                Op::Start(dur) => {
                    assert!(now >= self.busy_until);
                    let dur = SimDur::from_nanos(dur);
                    self.busy_until = now + dur;
                    self.current = Some((now, now + dur));
                    self.meter.set(now, 1.0);
                }
                Op::Finish => {
                    if let Some((start, end)) = self.current {
                        if now >= end {
                            self.total_busy += end - start;
                            self.current = None;
                            self.meter.set(now, 0.0);
                        }
                    }
                }
                Op::Cancel => {
                    if let Some((start, _end)) = self.current.take() {
                        self.total_busy += now.saturating_since(start);
                        self.busy_until = now;
                        self.meter.set(now, 0.0);
                    }
                }
            }
        }
    }

    /// Drives both meters through `ops` (instants never go backwards) and
    /// compares them at `end == 0` and wherever a run could stop: at each
    /// step and a little after it.
    fn same_meters(ops: &[(u64, Op)]) {
        let (mut new, mut old) = (CpuMeter::default(), RefMeter::new());
        let agree = |new: &CpuMeter, old: &RefMeter, end: SimTime| {
            assert_eq!(
                new.efficiency(end).to_bits(),
                old.meter.average(end).to_bits(),
                "efficiency at {end} after {ops:?}"
            );
            assert_eq!(new.total_busy(), old.total_busy, "after {ops:?}");
        };
        for &(at, op) in ops {
            let now = SimTime::from_nanos(at);
            new.apply(now, op);
            old.apply(now, op);
            for end in [SimTime::ZERO, now, now + SimDur::from_nanos(7)] {
                agree(&new, &old, end);
            }
        }
    }

    #[test]
    fn efficiency_matches_the_time_weighted_meter_on_the_edge_cases() {
        use Op::*;
        // A phase started at the instant the previous one ends, before its
        // `ComputeDone` is handled: the late one credits nothing.
        same_meters(&[(0, Start(10)), (10, Start(5)), (10, Finish), (15, Finish)]);
        // The same with a zero-length second phase, which that late
        // `ComputeDone` does finish.
        same_meters(&[(0, Start(10)), (10, Start(0)), (10, Finish), (10, Finish)]);
        // A cancel followed by a late `ComputeDone`, alone and after the
        // next phase has started.
        same_meters(&[(3, Start(10)), (7, Cancel), (13, Finish)]);
        same_meters(&[
            (0, Start(10)),
            (4, Cancel),
            (6, Start(4)),
            (10, Finish),
            (12, Finish),
        ]);
        // `end == 0`, mid-phase and idle; a run that stops mid-phase.
        same_meters(&[(0, Start(5))]);
        same_meters(&[(0, Start(0)), (0, Finish)]);
        same_meters(&[(2, Start(100)), (40, Finish)]);
        // A `ComputeDone` handled after its phase's end.
        same_meters(&[(1, Start(4)), (9, Finish), (9, Cancel)]);
    }

    #[test]
    fn efficiency_matches_the_time_weighted_meter_on_random_runs() {
        for stream in 0..500u64 {
            let mut rng = DetRng::new(0x6370_756d ^ stream);
            // Tracks when a start is legal (no phase in flight, or its
            // end reached).
            let mut gate = RefMeter::new();
            let mut now = 0u64;
            let mut ops = Vec::new();
            for _ in 0..1 + rng.next_below(24) {
                // Ties are common: a step at the previous step's instant is
                // how a phase starts as the last one ends.
                now += [0, 0, 1, rng.next_below(50), rng.next_below(1 << 40)]
                    [rng.next_below(5) as usize];
                let at = SimTime::from_nanos(now);
                let op = match rng.next_below(3) {
                    0 if at >= gate.busy_until => {
                        Op::Start([0, 1, rng.next_below(40)][rng.next_below(3) as usize])
                    }
                    1 => Op::Cancel,
                    _ => Op::Finish,
                };
                gate.apply(at, op);
                ops.push((now, op));
            }
            same_meters(&ops);
        }
    }
}

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

use std::collections::VecDeque;

use sesame_net::{CauseId, Fabric, LinkTiming, NodeId, RouteArena, Topology};
use sesame_sim::{
    Actor, CauseOp, Context, RunOutcome, SimDur, SimTime, Simulation, TraceDetail, TraceKind,
    TraceRecorder,
};

use crate::causal::{Carried, CauseCtx};
use crate::{
    Action, AppEvent, GroupId, GroupTable, LocalMemory, ModelAction, NodeApi, NodeMem, Packet,
    PacketKind, Program, ProgramTable, VarId, Word,
};

/// Machine-level events targeted at one node. Every event but `Start`
/// carries the cause it was scheduled under ([`DsmEvent::cause`]).
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
    /// A packet arrived off the interconnect, carrying the id of the send
    /// or multicast that sent it.
    Packet(Packet, Carried),
    /// A modeled computation phase finished.
    ComputeDone {
        /// Correlation tag from [`NodeApi::compute`].
        tag: u64,
        /// The phase's `compute` id.
        cause: Carried,
    },
    /// A timer fired.
    TimerFired {
        /// Correlation tag from [`NodeApi::set_timer`].
        tag: u64,
        /// The cause current when the timer was armed.
        cause: Carried,
    },
    /// A memory-model timer fired (protocol timeouts such as grant
    /// watchdogs), routed to [`Model::on_timer`].
    ModelTimer {
        /// Correlation tag from [`Mx::set_model_timer`].
        tag: u64,
        /// The cause current when the timer was armed.
        cause: Carried,
    },
    /// One wavefront of a pruned-multicast fan-out: the same payload
    /// arriving at several members at one instant, delivered as a single
    /// queue event instead of one event per member
    /// ([`MachineConfig::pruned_multicast`]). Members are processed in
    /// declared group-member order, each with its own application-event
    /// cascade, exactly as if they had been separate events at this time.
    ///
    /// The member list is an index into the group's route in the
    /// machine's [`RouteArena`]: under loss-free timing every fan-out over
    /// a route reaches exactly the topology-static wave at its
    /// depth-determined instant, so the event only needs
    /// `(group, wave)` — dispatch reads the wave out of the route's shape,
    /// which groups of one shape share, placing each member at the
    /// group's root as it goes, and allocates nothing.
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
        /// The multicast's id, shared by every car of the train.
        cause: Carried,
    },
}

impl DsmEvent {
    /// The causal id the event carries: handling it restores this as the
    /// current cause. [`CauseId::NONE`] for a `Start` (a root of the causal
    /// forest) and for every event of an untraced run.
    pub fn cause(&self) -> CauseId {
        match *self {
            DsmEvent::Start { .. } => CauseId::NONE,
            DsmEvent::Packet(_, cause)
            | DsmEvent::ComputeDone { cause, .. }
            | DsmEvent::TimerFired { cause, .. }
            | DsmEvent::ModelTimer { cause, .. }
            | DsmEvent::McastWave { cause, .. } => cause.0,
        }
    }
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
const _: () = assert!(std::mem::size_of::<LocalMemory>() <= 56);

/// How the machine routes group multicasts. The protocol ablations are
/// planted through [`GwcMutation`](crate::GwcMutation), not here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineConfig {
    /// Route group multicasts over member-pruned routes
    /// ([`RouteArena`]) instead of flooding every position
    /// ([`Fabric::flood_into`]). Where every member's copy is delivered (no
    /// loss) and distinct depths land at distinct instants (a nonzero hop
    /// latency) the fan-out additionally rides the route's static waves:
    /// one [`DsmEvent::McastWave`] queue event per wavefront instead of one
    /// per member.
    ///
    /// Off by default: member arrival *times* are identical either way,
    /// but the traffic accounting differs (pruned routes bill only
    /// member-path edges to `link_traversals`/`ser_ns`, the flood bills
    /// every topology edge) and waves change the event count — so the
    /// default stays byte-compatible with recorded baselines. Turn it on
    /// for large sparse meshes (the 100k-node scenario), where per-group
    /// flooding is quadratic in machine size.
    pub pruned_multicast: bool,
}

/// The memory model's view of the machine during protocol processing.
///
/// Provides local memories, group metadata, packet transmission with
/// fabric-computed arrival times, and application-event delivery.
pub struct Mx<'a, 'b> {
    now: SimTime,
    mems: &'a mut [LocalMemory],
    image: &'a [(VarId, Word)],
    groups: &'a GroupTable,
    topo: &'a dyn Topology,
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

    /// The local memory of `node`, over the machine's init image.
    pub fn mem(&mut self, node: NodeId) -> NodeMem<'_, &mut LocalMemory> {
        NodeMem::new(&mut self.mems[node.index()], self.image)
    }

    /// The sharing-group table.
    pub fn groups(&self) -> &GroupTable {
        self.groups
    }

    /// Sends a packet; it arrives at the fabric-computed time (self-sends
    /// arrive after one serialization delay).
    pub fn send(&mut self, pkt: Packet) {
        self.send_after(SimDur::ZERO, pkt);
    }

    /// Sends a packet after an extra processing delay at the sender —
    /// software protocol-handler occupancy in models that are not
    /// hardware-assisted.
    pub fn send_after(&mut self, extra: SimDur, pkt: Packet) {
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
        // The delivery carries a fresh send id chaining from the current
        // cause; the receiver restores it as its causal context.
        let cause = self.causes.stage(self.ctx, pkt.from, CauseOp::Send);
        let ev = DsmEvent::Packet(pkt, self.causes.carry(cause));
        self.ctx.send_at(at, (pkt.to, ev));
    }

    /// Multicasts one sequenced write down `group`'s multicast route to
    /// every member; each member's copy arrives at its hop-depth-determined
    /// time. The root member (if any) receives its echo immediately.
    ///
    /// By default the write floods every position: a member's arrival is
    /// read off its hop distance from the root ([`Fabric::flood_into`]) and
    /// no routing structure exists. With
    /// [`MachineConfig::pruned_multicast`] the write follows a
    /// member-pruned route instead, built lazily on a group's first
    /// multicast and shared between all groups with the same shape — the
    /// same root and member offsets in the topology's
    /// [`Frame`](sesame_net::Frame) — stored once each in one
    /// [`RouteArena`]. Routes are pure functions of the topology and the
    /// validated group specs, so lazy construction cannot perturb
    /// determinism.
    pub fn multicast(&mut self, group: GroupId, bytes: u32, kind: PacketKind) {
        let g = self.groups.group(group);
        let root = g.root();
        let now = self.now;
        self.fabric.advance(now);
        // How arrivals are known. A member's arrival instant is a pure
        // function of its hop depth, so under loss-free timing with a
        // nonzero hop latency a pruned route's topology-static waves ARE
        // the fan-out and nothing is computed per multicast. (Nonzero hop
        // latency guarantees distinct depths land at distinct instants;
        // zero loss means no per-member roll is owed.) Anywhere else the
        // fabric lists an arrival per member.
        let waves = if self.cfg.pruned_multicast {
            let route = self
                .routes
                .get_or_build(group.index(), self.topo, root, g.members());
            if self.fabric.loss_probability() == 0.0
                && self.fabric.timing().hop_latency > SimDur::ZERO
            {
                self.fabric.bill_multicast_route(route, bytes);
                Some(route)
            } else {
                self.fabric
                    .multicast_route_into(now, route, bytes, self.arrivals);
                None
            }
        } else {
            self.fabric
                .flood_into(now, self.topo, root, bytes, g.members(), self.arrivals);
            None
        };
        let depth_at = |d: u32| self.fabric.arrival(now, d, bytes);
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
        // One mcast id covers the whole fan-out: every member's delivery
        // carries it, so each arrival chains back to this decision.
        let cause = self.causes.stage(self.ctx, root, CauseOp::Mcast);
        let packet_to = |to: NodeId| Packet {
            from: root,
            to,
            bytes,
            kind,
        };
        match waves {
            // Wave 0 heads a train of one car per wave (a group has a
            // member, so a route has a wave); dispatching a wave sends the
            // next.
            Some(route) => {
                let first = route.wave(0).next().expect("a wave has a member");
                // One hold for the whole train: each car hands it on to
                // the next.
                let ev = DsmEvent::McastWave {
                    group,
                    wave: 0,
                    pkt: packet_to(first),
                    cause: self.causes.carry(cause),
                };
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
                    let ev = DsmEvent::Packet(packet_to(member), self.causes.carry(cause));
                    self.ctx.send_at(at, (member, ev));
                }
            }
        }
    }

    /// Schedules a protocol timer: [`Model::on_timer`] fires at `node`
    /// after `delay`, under the cause current now.
    pub fn set_model_timer(&mut self, node: NodeId, delay: SimDur, tag: u64) {
        let cause = self.causes.carry(self.causes.current());
        let ev = DsmEvent::ModelTimer { tag, cause };
        self.ctx.send_at(self.now + delay, (node, ev));
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

    /// Tells the trace observer that every member of `group` has applied
    /// the writes numbered through `floor`
    /// ([`TraceObserver::on_seq_floor`](sesame_sim::TraceObserver::on_seq_floor)).
    pub fn seq_floor(&mut self, group: GroupId, floor: u64) {
        self.ctx.seq_floor(group.get(), floor);
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
    /// Member-pruned routes, built lazily per group when
    /// [`MachineConfig::pruned_multicast`] is on, stored once per shape in
    /// one arena addressed by the dense group index: wave dispatch
    /// resolves its route with one 8-byte handle load instead of a hash
    /// probe per event.
    routes: RouteArena,
    mems: Vec<LocalMemory>,
    /// The init image every memory starts from (sorted, unique), held
    /// once for all nodes: a node's written words shadow it.
    image: Vec<(VarId, Word)>,
    cpus: Vec<CpuMeter>,
    /// Dispatch resolves a node's program through this table: one `u32`
    /// per node, so a program serving a range of nodes is boxed once.
    programs: ProgramTable,
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
    /// Panics if the program table's node count does not equal the
    /// topology's CPU count, or if a group names a root or member that is
    /// not one of those CPUs.
    pub fn new(
        topo: Box<dyn Topology>,
        timing: LinkTiming,
        groups: GroupTable,
        programs: impl Into<ProgramTable>,
        model: M,
        cfg: MachineConfig,
    ) -> Self {
        let programs = programs.into();
        assert_eq!(
            programs.len(),
            topo.len(),
            "one program per CPU node is required"
        );
        let n = topo.len();
        // Memories, programs and the model's per-node state are indexed
        // by node: a bad group spec fails at assembly, not mid-run.
        if let Some((group, node)) = groups.highest_node() {
            assert!(
                node.index() < n,
                "group {group} names node {node}, which this {n}-CPU machine does not have"
            );
        }
        let n_groups = groups.len();
        Machine {
            topo,
            fabric: Fabric::new(timing),
            groups,
            // Route handles only where routes will be built: the default
            // flood machine holds no route storage at all.
            routes: RouteArena::with_routes(if cfg.pruned_multicast { n_groups } else { 0 }),
            mems: vec![LocalMemory::new(); n],
            image: Vec::new(),
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

    /// The local memory of `node`, over the machine's init image
    /// (post-run inspection).
    pub fn mem(&self, node: NodeId) -> NodeMem<'_> {
        NodeMem::new(&self.mems[node.index()], &self.image)
    }

    /// Initializes `var` to `value` in every node's local copy — how shared
    /// segments (and lock FREE sentinels) are set up before a run. Same as
    /// [`Machine::init_image`] with the one pair.
    pub fn init_var(&mut self, var: VarId, value: Word) {
        self.init_image(&[(var, value)]);
    }

    /// Initializes every node's copy of each variable in `pairs`, applied
    /// in order (later entries win), as if each pair were written into
    /// every memory. The machine holds one sorted image for all nodes,
    /// read where a node has written nothing, so each node's 56-byte
    /// [`LocalMemory`] holds only its own writes and this costs
    /// O(image log image), not O(pairs × nodes); only a memory already
    /// written before the call gets the pairs written in as well.
    pub fn init_image(&mut self, pairs: &[(VarId, Word)]) {
        // Reversed, a stable sort puts each variable's latest pair first,
        // and that is the one the dedup keeps.
        self.image.extend_from_slice(pairs);
        self.image.reverse();
        self.image.sort_by_key(|&(v, _)| v);
        self.image.dedup_by_key(|&mut (v, _)| v);
        for mem in self.mems.iter_mut().filter(|m| m.local_len() > 0) {
            for &(var, value) in pairs {
                mem.write(var, value);
            }
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

    /// Heap bytes of pruned-multicast route storage (shapes, their index
    /// and per-group handles). Zero on a machine that floods, which builds
    /// no routes.
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
    ///
    /// Nothing is collected: each memory is hashed as the `(i, Vec<(u32,
    /// Word)>)` it stands for — index, length, then the words, which
    /// [`NodeMem::iter`] already yields in ascending variable order.
    pub fn state_digest(&self) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.model.digest()?.hash(&mut h);
        for (i, words) in self.mems.iter().enumerate() {
            let mem = NodeMem::new(words, &self.image);
            (i, mem.len()).hash(&mut h);
            for (v, w) in mem.iter() {
                (v.get(), w).hash(&mut h);
            }
        }
        for node in 0..self.mems.len() as u32 {
            self.programs.get(NodeId::new(node)).digest()?.hash(&mut h);
        }
        Some(h.finish())
    }

    /// The interconnect fabric (to inspect its loss configuration, e.g. the
    /// schedule explorer's preconditions).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The interconnect fabric (to set loss before a run, or to read
    /// traffic stats after).
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

    /// The program running on `node`.
    pub fn program(&self, node: NodeId) -> &dyn Program {
        self.programs.get(node)
    }

    /// Sum of all nodes' busy time (useful work), for network-power
    /// computation.
    pub fn total_busy(&self) -> SimDur {
        self.cpus.iter().map(|c| c.total_busy()).sum()
    }

    /// How much later than wave `wave` of a `bytes`-long fan-out over
    /// `group`'s route the next wave lands, and that wave's first member;
    /// `None` after the last wave. The gap is counted from the wave being
    /// dispatched rather than from the send instant, because the schedule
    /// explorer may deliver a car late.
    fn wave_after(&self, group: GroupId, wave: u32, bytes: u32) -> Option<(SimDur, NodeId)> {
        let route = self.routes.get(group.index())?;
        let (this, next) = (wave as usize, wave as usize + 1);
        if next == route.wave_count() {
            return None;
        }
        let at = |w| {
            self.fabric
                .arrival(SimTime::ZERO, route.wave_depth(w), bytes)
        };
        let gap = at(next) - at(this);
        Some((gap, route.wave(next).next().expect("a wave has a member")))
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
            routes,
            mems,
            image,
            model,
            cfg,
            causes,
            arrivals,
            ..
        } = self;
        let mut mx = Mx {
            now: ctx.now(),
            mems,
            image,
            groups,
            topo: topo.as_ref(),
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
            if let Some(program) = self.programs.get_mut(node) {
                let mem = NodeMem::new(&self.mems[node.index()], &self.image);
                let mut api = NodeApi::new(node, ctx.now(), mem, &mut actions, ctx.tracing());
                program.on_event(event, &mut api);
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
                        let cause = self.causes.carry(id);
                        ctx.send(dur, (node, DsmEvent::ComputeDone { tag, cause }));
                    }
                    Action::CancelCompute => {
                        self.cpus[node.index()].cancel(ctx.now());
                    }
                    Action::Timer { dur, tag } => {
                        let cause = self.causes.carry(self.causes.current());
                        ctx.send(dur, (node, DsmEvent::TimerFired { tag, cause }));
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
        // While the cause this event carries is still held, so what the
        // handler cites is at or above the floor; then the event gives its
        // hold back and its cause becomes the current one.
        self.causes.publish_floor(ctx);
        let cause = event.cause();
        self.causes.release(cause);
        self.causes.set_current(cause);
        match event {
            DsmEvent::Start { more } => {
                if more > 0 {
                    let next = NodeId::new(node.get() + 1);
                    let car = DsmEvent::Start { more: more - 1 };
                    ctx.send_next_car_at(ctx.now(), (next, car));
                }
                // Spontaneous: a root of the causal forest.
                app_q.push_back((node, AppEvent::Started, cause));
            }
            DsmEvent::ComputeDone { tag, .. } => {
                self.cpus[node.index()].finish(ctx.now());
                app_q.push_back((node, AppEvent::ComputeDone { tag }, cause));
            }
            DsmEvent::TimerFired { tag, .. } => {
                app_q.push_back((node, AppEvent::TimerFired { tag }, cause));
            }
            DsmEvent::Packet(pkt, _) => {
                self.with_mx(ctx, &mut app_q, |model, mx| model.on_packet(node, pkt, mx));
            }
            DsmEvent::McastWave {
                group, wave, pkt, ..
            } => {
                // One queue event carries a whole fan-out wavefront; each
                // member still gets its own packet delivery and cascade, in
                // declared member order, as if they were separate events at
                // this instant. The route's wave is placed at the group's
                // root and copied into scratch first, because delivering to
                // a member borrows the whole machine mutably.
                let route = self
                    .routes
                    .get(group.index())
                    .expect("McastWave event for a group whose route was never built");
                self.wave_scratch.clear();
                self.wave_scratch.extend(route.wave(wave as usize));
                for i in 0..self.wave_scratch.len() {
                    let m = self.wave_scratch[i];
                    self.causes.set_current(cause);
                    let p = Packet { to: m, ..pkt };
                    self.with_mx(ctx, &mut app_q, |model, mx| model.on_packet(m, p, mx));
                    self.drain(&mut app_q, ctx);
                }
                if let Some((gap, to)) = self.wave_after(group, wave, pkt.bytes) {
                    // This car hands its hold on to the next.
                    let car = DsmEvent::McastWave {
                        group,
                        wave: wave + 1,
                        pkt: Packet { to, ..pkt },
                        cause: self.causes.carry(cause),
                    };
                    ctx.send_next_car_at(ctx.now() + gap, (to, car));
                }
            }
            DsmEvent::ModelTimer { tag, .. } => {
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
    /// Runaway protection: maximum events processed.
    pub event_limit: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            tracing: false,
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
    let outcome = sim.run_to_completion();
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

    /// A 5-node GWC machine of idle programs and one group, with no
    /// variable initialized.
    fn idle_machine() -> Machine<crate::GwcModel> {
        machine_of(ProgramTable::idle(5))
    }

    /// [`idle_machine`] running `programs`.
    fn machine_of(programs: impl Into<ProgramTable>) -> Machine<crate::GwcModel> {
        let groups = GroupTable::new(vec![crate::GroupSpec {
            root: NodeId::new(0),
            members: (0..3).map(NodeId::new).collect(),
            vars: vec![VarId::new(0), VarId::new(1)],
            mutex_lock: Some(VarId::new(0)),
        }])
        .expect("valid group");
        Machine::new(
            Box::new(sesame_net::FullMesh::new(5)),
            LinkTiming::unit(),
            groups.clone(),
            programs,
            crate::GwcModel::new(&groups, 5),
            MachineConfig::default(),
        )
    }

    /// Serves a range of nodes: on `Started` each CPU logs its id and
    /// arms a timer, and re-arms it until it has fired as often as the
    /// CPU's id, counting in its own slot.
    struct Ticker {
        first: u32,
        fired: Vec<u64>,
        log: std::rc::Rc<std::cell::RefCell<Vec<(u32, u64)>>>,
    }

    impl Program for Ticker {
        fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
            let id = api.id().get();
            let fired = &mut self.fired[(id - self.first) as usize];
            match ev {
                AppEvent::Started => api.set_timer(SimDur::from_nanos(1), 0),
                AppEvent::TimerFired { .. } => {
                    *fired += 1;
                    if *fired < u64::from(id) {
                        api.set_timer(SimDur::from_nanos(1), 0);
                    }
                }
                _ => return,
            }
            self.log.borrow_mut().push((id, *fired));
        }

        fn digest(&self) -> Option<u64> {
            Some(self.fired.iter().sum())
        }
    }

    #[test]
    fn a_range_program_sees_each_node_it_serves_and_keeps_its_state_apart() {
        let log = std::rc::Rc::default();
        let mut table = ProgramTable::idle(5);
        let ticker = Ticker {
            first: 1,
            fired: vec![0; 3],
            log: std::rc::Rc::clone(&log),
        };
        table.install(NodeId::new(1)..NodeId::new(4), Box::new(ticker));
        let result = run(machine_of(table), RunOptions::default());
        assert_eq!(result.outcome, RunOutcome::Drained);
        let log = log.borrow();
        for id in 1..4u32 {
            // Started, then one entry per firing, counting up to the id.
            let seen: Vec<u64> = log.iter().filter(|e| e.0 == id).map(|e| e.1).collect();
            assert_eq!(seen, (0..=u64::from(id)).collect::<Vec<_>>(), "n{id}");
        }
        assert!(
            log.iter().all(|e| (1..4).contains(&e.0)),
            "idle nodes ran nothing"
        );
        // The one program answers for each node it serves: 1 + 2 + 3.
        let digests: Vec<_> = (0..5)
            .map(|i| result.machine.program(NodeId::new(i)).digest())
            .collect();
        assert_eq!(digests, [Some(0), Some(6), Some(6), Some(6), Some(0)]);
    }

    #[test]
    fn unboxed_idle_nodes_digest_as_a_boxed_idle_program_each() {
        let stateful = || {
            Box::new(Ticker {
                first: 2,
                fired: vec![5],
                log: std::rc::Rc::default(),
            }) as Box<dyn Program>
        };
        let mut table = ProgramTable::idle(5);
        table.install(NodeId::new(2)..NodeId::new(3), stateful());
        let boxed: Vec<Box<dyn Program>> = (0..5)
            .map(|i| match i {
                2 => stateful(),
                _ => Box::new(crate::IdleProgram) as Box<dyn Program>,
            })
            .collect();
        let (mut got, mut want) = (machine_of(table), machine_of(boxed));
        assert!(got.state_digest().is_some());
        assert_eq!(got.state_digest(), want.state_digest());
        got.init_var(VarId::new(1), 3);
        want.init_var(VarId::new(1), 3);
        assert_eq!(got.state_digest(), want.state_digest());
    }

    #[test]
    #[should_panic(expected = "n2 already has a program")]
    fn a_range_over_a_node_with_a_program_panics_naming_it() {
        let mut table = ProgramTable::idle(5);
        table.install(NodeId::new(2)..NodeId::new(3), Box::new(crate::IdleProgram));
        table.install(NodeId::new(0)..NodeId::new(4), Box::new(crate::IdleProgram));
    }

    #[test]
    #[should_panic(expected = "program for n5 but the system has 5 nodes")]
    fn a_range_past_the_last_node_panics_naming_the_first_missing_one() {
        let mut table = ProgramTable::idle(5);
        table.install(NodeId::new(3)..NodeId::new(7), Box::new(crate::IdleProgram));
    }

    #[test]
    #[should_panic(expected = "one program per CPU node is required")]
    fn a_table_for_another_node_count_panics() {
        machine_of(ProgramTable::idle(4));
    }

    #[test]
    fn init_image_after_init_var_applies_both_in_order() {
        let mut m = idle_machine();
        m.init_var(VarId::new(0), 7);
        m.init_image(&[(VarId::new(2), 3), (VarId::new(0), 8), (VarId::new(2), 4)]);
        m.init_var(VarId::new(5), 1);
        for i in 0..5 {
            let mem = m.mem(NodeId::new(i));
            let words: Vec<_> = mem.iter().map(|(v, w)| (v.get(), w)).collect();
            assert_eq!(words, [(0, 8), (2, 4), (5, 1)], "node {i}");
        }
    }

    /// Inits held once by the machine must read, write, count, iterate and
    /// digest exactly as a machine whose every memory had each init pair
    /// written into it in order, however `init_var`, `init_image` and the
    /// nodes' own writes interleave.
    #[test]
    fn the_machine_image_equals_writing_every_init_into_every_node() {
        let var = |rng: &mut DetRng| VarId::new(rng.next_below(12) as u32);
        for seed in 0..64u64 {
            let mut rng = DetRng::new(0x0069_6d61_6765 ^ seed);
            let (mut got, mut want) = (idle_machine(), idle_machine());
            for step in 0..rng.next_range(1, 40) {
                match rng.next_below(4) {
                    0 => {
                        let (v, value) = (var(&mut rng), rng.next_below(100) as Word);
                        got.init_var(v, value);
                        want.mems.iter_mut().for_each(|m| _ = m.write(v, value));
                    }
                    1 => {
                        let pairs: Vec<(VarId, Word)> = (0..rng.next_below(8))
                            .map(|_| (var(&mut rng), rng.next_below(100) as Word))
                            .collect();
                        got.init_image(&pairs);
                        for m in &mut want.mems {
                            pairs.iter().for_each(|&(v, value)| _ = m.write(v, value));
                        }
                    }
                    _ => {
                        let node = rng.next_below(5) as usize;
                        let (v, value) = (var(&mut rng), -(rng.next_below(100) as Word));
                        let mut view = NodeMem::new(&mut got.mems[node], &got.image);
                        assert_eq!(
                            view.write(v, value),
                            want.mems[node].write(v, value),
                            "seed {seed} step {step}: previous value of {v} at node {node}"
                        );
                    }
                }
                assert_eq!(
                    got.state_digest(),
                    want.state_digest(),
                    "seed {seed} step {step}"
                );
            }
            assert!(want.image.is_empty() && got.state_digest().is_some());
            for i in 0..5 {
                let (g, w) = (got.mem(NodeId::new(i)), want.mem(NodeId::new(i)));
                for v in 0..13 {
                    assert_eq!(g.read(VarId::new(v)), w.read(VarId::new(v)), "seed {seed}");
                }
                assert_eq!(g.len(), w.len(), "seed {seed} node {i}");
                assert_eq!(g.is_empty(), w.is_empty(), "seed {seed} node {i}");
                assert!(g.iter().eq(w.iter()), "seed {seed} node {i}");
            }
        }
    }
}

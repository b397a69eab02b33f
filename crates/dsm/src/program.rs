//! Node application programs and their API onto the simulated machine.
//!
//! A [`Program`] is the application code running on one simulated CPU. It is
//! written in event-driven style: the machine calls
//! [`Program::on_event`] with an [`AppEvent`], and the program reacts
//! through the [`NodeApi`] — reading and writing shared variables, acquiring
//! locks, modeling computation time, setting timers, and sending messages.
//!
//! The same program runs unchanged under any memory model (GWC,
//! entry consistency, release consistency), which is how the reproduction
//! compares models on identical workloads, exactly as the paper does.

use sesame_net::NodeId;
use sesame_sim::{SimDur, SimTime, TraceDetail, TraceKind};

use crate::addr::lockval;
use crate::{LocalMemory, VarId, Word};

/// Events delivered to a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppEvent {
    /// The simulation started (delivered once to every node at time zero).
    Started,
    /// A shared write (remote or echoed) was applied to local memory.
    Updated {
        /// The written variable.
        var: VarId,
        /// The new local value.
        value: Word,
        /// The node whose CPU performed the write.
        origin: NodeId,
    },
    /// An armed lock interrupt fired: the lock variable changed and — per
    /// the paper's Figure 5 — insharing is now suspended. The program must
    /// eventually resume insharing.
    LockChanged {
        /// The lock variable.
        var: VarId,
        /// Its new value.
        value: Word,
    },
    /// A high-level [`NodeApi::acquire`] completed: this node holds the
    /// lock.
    Acquired {
        /// The acquired lock.
        lock: VarId,
    },
    /// A high-level [`NodeApi::release`] completed (immediately under GWC
    /// and entry consistency; after update acknowledgements under release
    /// consistency).
    Released {
        /// The released lock.
        lock: VarId,
    },
    /// An asynchronous [`NodeApi::fetch`] completed.
    ValueReady {
        /// The fetched variable.
        var: VarId,
        /// Its value.
        value: Word,
    },
    /// A modeled computation phase finished.
    ComputeDone {
        /// The tag passed to [`NodeApi::compute`].
        tag: u64,
    },
    /// A timer set with [`NodeApi::set_timer`] fired.
    TimerFired {
        /// The tag passed to `set_timer`.
        tag: u64,
    },
    /// An application message arrived.
    MessageReceived {
        /// The sending node.
        from: NodeId,
        /// The tag passed to [`NodeApi::send_message`].
        tag: u64,
        /// Total bytes on the wire.
        bytes: u32,
    },
}

/// Application code for one simulated CPU.
pub trait Program {
    /// Reacts to one event. All interaction with the machine goes through
    /// `api`.
    fn on_event(&mut self, event: AppEvent, api: &mut NodeApi<'_>);

    /// A hash of the program's internal state, used by the `sesame-check`
    /// explorer to recognize revisited machine states. `None` (the
    /// default) means this program does not support state-revisit pruning.
    fn digest(&self) -> Option<u64> {
        None
    }
}

/// A no-op program for nodes that only serve as roots or routers.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdleProgram;

impl Program for IdleProgram {
    fn on_event(&mut self, _event: AppEvent, _api: &mut NodeApi<'_>) {}

    fn digest(&self) -> Option<u64> {
        Some(0) // stateless
    }
}

/// Closures are programs, which keeps tests and small experiments concise.
impl<F: FnMut(AppEvent, &mut NodeApi<'_>)> Program for F {
    fn on_event(&mut self, event: AppEvent, api: &mut NodeApi<'_>) {
        self(event, api)
    }
}

/// Memory-model actions a program can request; routed to the active
/// [`Model`](crate::Model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelAction {
    /// A shared write (applied locally and propagated per the model).
    Write {
        /// The written variable.
        var: VarId,
        /// The new value.
        value: Word,
    },
    /// A local-only write (rollback restoration; never propagated).
    WriteLocal {
        /// The restored variable.
        var: VarId,
        /// The restored value.
        value: Word,
    },
    /// High-level blocking lock acquire.
    Acquire {
        /// The lock variable.
        lock: VarId,
    },
    /// High-level lock release.
    Release {
        /// The lock variable.
        lock: VarId,
    },
    /// Asynchronous read; answers with [`AppEvent::ValueReady`].
    Fetch {
        /// The variable to read.
        var: VarId,
    },
    /// GWC: watch the lock variable; on its next change, suspend insharing
    /// and deliver [`AppEvent::LockChanged`].
    ArmLockInterrupt {
        /// The lock variable to watch.
        var: VarId,
    },
    /// GWC: cancel a previously armed lock interrupt.
    DisarmLockInterrupt {
        /// The lock variable.
        var: VarId,
    },
    /// GWC: stop applying incoming shared writes (they buffer in arrival
    /// order).
    SuspendInsharing,
    /// GWC: apply buffered incoming writes and resume normal insharing.
    ResumeInsharing,
}

/// Everything a program can ask of the machine, buffered and applied after
/// the event handler returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// An action handled by the memory model.
    Model(ModelAction),
    /// Occupy the CPU for `dur`, then deliver [`AppEvent::ComputeDone`].
    Compute {
        /// How long the CPU is busy.
        dur: SimDur,
        /// Correlation tag echoed in the completion event.
        tag: u64,
    },
    /// Abort the in-flight compute phase, if any: the CPU goes idle now and
    /// the phase's eventual [`AppEvent::ComputeDone`] must be ignored by
    /// its issuer (rollback of an optimistic critical section).
    CancelCompute,
    /// Deliver [`AppEvent::TimerFired`] after `dur` without occupying the
    /// CPU.
    Timer {
        /// The delay.
        dur: SimDur,
        /// Correlation tag echoed when the timer fires.
        tag: u64,
    },
    /// Send an application message over the interconnect.
    SendMessage {
        /// Destination node.
        to: NodeId,
        /// Payload size in bytes (header added by the machine).
        payload_bytes: u32,
        /// Correlation tag delivered with the message.
        tag: u64,
    },
    /// Stop the whole simulation after this event cascade settles.
    Stop,
    /// Record a trace entry attributed to this node.
    Trace {
        /// Machine-readable kind.
        kind: TraceKind,
        /// Structured payload.
        detail: TraceDetail,
    },
}

/// The program's handle onto its node.
///
/// Reads are served from the node's local memory immediately; every other
/// operation is buffered as an [`Action`] and applied in order after the
/// handler returns. Because the simulator delivers one event at a time, a
/// read-then-write sequence within one handler is atomic — which is how the
/// paper's `atomic_exchange` (Figure 4 line 04) is realized by
/// [`NodeApi::lock_exchange`].
#[derive(Debug)]
pub struct NodeApi<'a> {
    node: NodeId,
    now: SimTime,
    mem: &'a LocalMemory,
    actions: &'a mut Vec<Action>,
    tracing: bool,
}

impl<'a> NodeApi<'a> {
    /// Creates the API for one event dispatch. Called by the machine.
    pub(crate) fn new(
        node: NodeId,
        now: SimTime,
        mem: &'a LocalMemory,
        actions: &'a mut Vec<Action>,
        tracing: bool,
    ) -> Self {
        NodeApi {
            node,
            now,
            mem,
            actions,
            tracing,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Reads the local copy of a shared variable.
    ///
    /// When tracing is on, the read is recorded as a canonical `acc-read`
    /// event so trace-level checkers (`sesame-verify`) can include reads in
    /// happens-before analysis.
    pub fn read(&mut self, var: VarId) -> Word {
        if self.tracing {
            self.trace(TraceKind::AccRead, TraceDetail::Var { var: var.get() });
        }
        self.mem.read(var)
    }

    /// Writes a shared variable: applied locally at once and propagated
    /// according to the active memory model.
    pub fn write(&mut self, var: VarId, value: Word) {
        self.actions
            .push(Action::Model(ModelAction::Write { var, value }));
    }

    /// Restores a local copy without propagating (rollback restoration).
    pub fn write_local(&mut self, var: VarId, value: Word) {
        self.actions
            .push(Action::Model(ModelAction::WriteLocal { var, value }));
    }

    /// Requests the lock and returns the *previous* local lock value — the
    /// paper's `atomic_exchange(old_val, local_copy)`. Under GWC this both
    /// sets the local copy to this node's request value and sends the
    /// request to the group root.
    pub fn lock_exchange(&mut self, lock: VarId) -> Word {
        let old = self.mem.read(lock);
        self.write(lock, lockval::request(self.node));
        old
    }

    /// Begins a blocking acquire; [`AppEvent::Acquired`] follows when this
    /// node holds the lock.
    pub fn acquire(&mut self, lock: VarId) {
        self.actions
            .push(Action::Model(ModelAction::Acquire { lock }));
    }

    /// Releases a held lock; [`AppEvent::Released`] follows when the
    /// release completes.
    pub fn release(&mut self, lock: VarId) {
        self.actions
            .push(Action::Model(ModelAction::Release { lock }));
    }

    /// Asynchronously reads a shared variable with whatever traffic the
    /// model requires (local under GWC; a demand fetch under entry
    /// consistency); answers with [`AppEvent::ValueReady`].
    pub fn fetch(&mut self, var: VarId) {
        self.actions.push(Action::Model(ModelAction::Fetch { var }));
    }

    /// Arms the GWC lock-change interrupt on `var` (Figure 4 line 06).
    pub fn arm_lock_interrupt(&mut self, var: VarId) {
        self.actions
            .push(Action::Model(ModelAction::ArmLockInterrupt { var }));
    }

    /// Disarms the GWC lock-change interrupt on `var` (Figure 4 line 08).
    pub fn disarm_lock_interrupt(&mut self, var: VarId) {
        self.actions
            .push(Action::Model(ModelAction::DisarmLockInterrupt { var }));
    }

    /// Suspends insharing: incoming shared writes buffer in arrival order.
    pub fn suspend_insharing(&mut self) {
        self.actions
            .push(Action::Model(ModelAction::SuspendInsharing));
    }

    /// Resumes insharing, applying buffered writes in order (Figure 4 line
    /// 25).
    pub fn resume_insharing(&mut self) {
        self.actions
            .push(Action::Model(ModelAction::ResumeInsharing));
    }

    /// Occupies the CPU for `dur`; [`AppEvent::ComputeDone`] echoes `tag`.
    pub fn compute(&mut self, dur: SimDur, tag: u64) {
        self.actions.push(Action::Compute { dur, tag });
    }

    /// Aborts the in-flight compute phase (rollback): the CPU goes idle
    /// immediately. The phase's already-scheduled
    /// [`AppEvent::ComputeDone`] still arrives and must be ignored by tag.
    pub fn cancel_compute(&mut self) {
        self.actions.push(Action::CancelCompute);
    }

    /// Schedules [`AppEvent::TimerFired`] after `dur` (CPU stays free).
    pub fn set_timer(&mut self, dur: SimDur, tag: u64) {
        self.actions.push(Action::Timer { dur, tag });
    }

    /// Sends `payload_bytes` of application data to `to`.
    pub fn send_message(&mut self, to: NodeId, payload_bytes: u32, tag: u64) {
        self.actions.push(Action::SendMessage {
            to,
            payload_bytes,
            tag,
        });
    }

    /// Stops the whole simulation once the current event cascade settles.
    pub fn stop(&mut self) {
        self.actions.push(Action::Stop);
    }

    /// Whether tracing is on (lets callers skip building
    /// [`TraceDetail::Text`] payloads; the typed variants are free).
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Records a trace entry attributed to this node.
    pub fn trace(&mut self, kind: TraceKind, detail: TraceDetail) {
        if self.tracing {
            self.actions.push(Action::Trace { kind, detail });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_come_from_memory() {
        let mut mem = LocalMemory::new();
        mem.write(VarId::new(3), 77);
        let mut actions = Vec::new();
        let mut api = NodeApi::new(NodeId::new(1), SimTime::ZERO, &mem, &mut actions, false);
        assert_eq!(api.read(VarId::new(3)), 77);
        assert_eq!(api.id(), NodeId::new(1));
        assert!(!api.tracing());
    }

    #[test]
    fn writes_and_locks_buffer_actions_in_order() {
        let mem = LocalMemory::new();
        let mut actions = Vec::new();
        let mut api = NodeApi::new(NodeId::new(2), SimTime::ZERO, &mem, &mut actions, true);
        api.write(VarId::new(1), 5);
        api.acquire(VarId::new(0));
        api.release(VarId::new(0));
        api.compute(SimDur::from_us(3), 9);
        api.stop();
        assert_eq!(actions.len(), 5);
        assert!(matches!(
            actions[0],
            Action::Model(ModelAction::Write { value: 5, .. })
        ));
        assert!(matches!(
            actions[1],
            Action::Model(ModelAction::Acquire { .. })
        ));
        assert!(matches!(actions[3], Action::Compute { tag: 9, .. }));
        assert!(matches!(actions[4], Action::Stop));
    }

    #[test]
    fn lock_exchange_returns_old_and_requests() {
        let mut mem = LocalMemory::new();
        let lock = VarId::new(0);
        mem.write(lock, lockval::FREE);
        let mut actions = Vec::new();
        let me = NodeId::new(3);
        let mut api = NodeApi::new(me, SimTime::ZERO, &mem, &mut actions, false);
        let old = api.lock_exchange(lock);
        assert_eq!(old, lockval::FREE);
        assert_eq!(
            actions,
            vec![Action::Model(ModelAction::Write {
                var: lock,
                value: lockval::request(me),
            })]
        );
    }

    #[test]
    fn trace_respects_enablement() {
        let mem = LocalMemory::new();
        let mut actions = Vec::new();
        let mut api = NodeApi::new(NodeId::new(0), SimTime::ZERO, &mem, &mut actions, false);
        api.trace(TraceKind::MutexEnter, TraceDetail::text("ignored"));
        assert!(actions.is_empty());
        let mut actions2 = Vec::new();
        let mut api2 = NodeApi::new(NodeId::new(0), SimTime::ZERO, &mem, &mut actions2, true);
        api2.trace(TraceKind::MutexEnter, TraceDetail::text("kept"));
        assert_eq!(actions2.len(), 1);
    }

    #[test]
    fn idle_program_does_nothing() {
        let mem = LocalMemory::new();
        let mut actions = Vec::new();
        let mut api = NodeApi::new(NodeId::new(0), SimTime::ZERO, &mem, &mut actions, true);
        IdleProgram.on_event(AppEvent::Started, &mut api);
        assert!(actions.is_empty());
    }

    #[test]
    fn optimistic_control_actions_buffer() {
        let mem = LocalMemory::new();
        let mut actions = Vec::new();
        let mut api = NodeApi::new(NodeId::new(0), SimTime::ZERO, &mem, &mut actions, false);
        api.arm_lock_interrupt(VarId::new(0));
        api.suspend_insharing();
        api.resume_insharing();
        api.disarm_lock_interrupt(VarId::new(0));
        api.write_local(VarId::new(4), -2);
        assert_eq!(actions.len(), 5);
        assert!(matches!(
            actions[4],
            Action::Model(ModelAction::WriteLocal { value: -2, .. })
        ));
    }
}

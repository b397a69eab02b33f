//! The discrete-event engine.
//!
//! A simulation is one [`Actor`] — the simulated machine — sending itself
//! timestamped messages through a deterministic
//! [`EventQueue`](crate::EventQueue). The engine pops the earliest event,
//! advances the clock, and hands the message to the actor together with a
//! [`Context`] through which it may send further messages, consult the
//! clock, record trace entries, and stop the run. An actor that models
//! several nodes routes inside its own message, as `sesame-dsm`'s machine
//! does with its `(NodeId, DsmEvent)`.
//!
//! ```
//! use sesame_sim::{Actor, Context, SimDur, SimTime, Simulation};
//!
//! /// Two players; the message names the one the token is for.
//! struct PingPong { hits: [u32; 2] }
//!
//! impl Actor for PingPong {
//!     type Msg = usize;
//!     fn handle(&mut self, player: usize, ctx: &mut Context<'_, usize>) {
//!         self.hits[player] += 1;
//!         if self.hits[player] < 3 {
//!             // Bounce the token to the other player 10ns from now.
//!             ctx.send(SimDur::from_nanos(10), 1 - player);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(PingPong { hits: [0, 0] });
//! sim.schedule(SimTime::ZERO, 0);
//! sim.run_to_completion();
//! assert_eq!(sim.actor().hits, [3, 2]);
//! ```

use std::fmt;

use crate::{EventQueue, SimDur, SimTime, TraceDetail, TraceKind, TraceRecorder};

/// The simulated entity: reacts to timestamped messages.
pub trait Actor {
    /// The message type this actor sends itself.
    type Msg;

    /// Reacts to one message delivered at `ctx.now()`.
    fn handle(&mut self, msg: Self::Msg, ctx: &mut Context<'_, Self::Msg>);
}

/// Which tie-break sequence number the queue gives an outgoing message.
#[derive(Debug, Clone, Copy)]
enum SeqPlan {
    /// The next fresh number, reserving this many in all: one for an
    /// ordinary send, `cars` for the head of a train.
    Reserve(u64),
    /// The number after the handled event's own — reserved for this car
    /// when the train's head was sent.
    NextCar,
}

/// One buffered send: enqueued when the handler that made it returns.
#[derive(Debug)]
struct Outgoing<M> {
    at: SimTime,
    msg: M,
    seq: SeqPlan,
}

/// The actor's handle onto the running simulation.
///
/// Messages sent through the context are buffered and enqueued after the
/// handler returns, preserving deterministic FIFO order for same-time events.
#[derive(Debug)]
pub struct Context<'a, M> {
    now: SimTime,
    /// Whether this handler already sent its train's next car (there is
    /// one reserved number to send it under).
    next_car_sent: bool,
    outbox: &'a mut Vec<Outgoing<M>>,
    trace: &'a mut TraceRecorder,
    stop: &'a mut bool,
}

impl<M> Context<'_, M> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg`, arriving `delay` after now.
    pub fn send(&mut self, delay: SimDur, msg: M) {
        self.send_at(self.now + delay, msg);
    }

    /// Sends `msg`, arriving at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn send_at(&mut self, at: SimTime, msg: M) {
        self.enqueue(at, msg, SeqPlan::Reserve(1));
    }

    /// Sends `msg` as the first car of an event *train*: a chain of `cars`
    /// events, each sent by the handler of the one before it
    /// ([`Context::send_next_car_at`]), that nevertheless pop in exactly
    /// the order `cars` sends made right here would — the tie-break
    /// numbers of the later cars are reserved now. The fan-out stays one
    /// pending event instead of `cars`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `cars` is zero.
    pub fn send_train_at(&mut self, at: SimTime, cars: u64, msg: M) {
        assert!(cars >= 1, "a train has at least one car");
        self.enqueue(at, msg, SeqPlan::Reserve(cars));
    }

    /// Sends the car after the one being handled, arriving at `at`. Only
    /// the handler of a train's car may call this, once, and not from the
    /// last car: the engine numbers the message one past the handled
    /// event, which is this car's reserved place only under that
    /// contract.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or the handler already sent a next
    /// car.
    pub fn send_next_car_at(&mut self, at: SimTime, msg: M) {
        assert!(!self.next_car_sent, "one next car per handled event");
        self.next_car_sent = true;
        self.enqueue(at, msg, SeqPlan::NextCar);
    }

    fn enqueue(&mut self, at: SimTime, msg: M, seq: SeqPlan) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.outbox.push(Outgoing { at, msg, seq });
    }

    /// Records a trace entry attributed to `node`: the index of whichever
    /// of the nodes the actor simulates the entry is about.
    pub fn trace_for(&mut self, node: usize, kind: TraceKind, detail: TraceDetail) {
        self.trace.record(self.now, node, kind, detail);
    }

    /// Whether tracing is enabled (lets callers skip work only a record
    /// needs).
    pub fn tracing(&self) -> bool {
        self.trace.is_enabled()
    }

    /// Passes a causal-id floor to the trace observer
    /// ([`TraceObserver::on_cause_floor`](crate::TraceObserver::on_cause_floor)).
    pub fn cause_floor(&mut self, floor: u64) {
        self.trace.cause_floor(floor);
    }

    /// Passes a group's applied floor to the trace observer
    /// ([`TraceObserver::on_seq_floor`](crate::TraceObserver::on_seq_floor)).
    pub fn seq_floor(&mut self, group: u32, floor: u64) {
        self.trace.seq_floor(group, floor);
    }

    /// Requests that the run stop after this handler returns.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// One entry of [`Simulation::pending`]: a choice point for a caller that
/// delivers events out of order with [`Simulation::step_seq`].
///
/// The `seq` is the queue's monotone push-sequence number. Because every
/// push is a deterministic consequence of the events delivered so far, seq
/// numbers are stable across identical replays — a schedule serializes as
/// the list of chosen seqs.
#[derive(Debug)]
pub struct PendingEvent<'a, M> {
    /// The time the event was scheduled to occur.
    pub time: SimTime,
    /// The queue push-sequence number identifying this event.
    pub seq: u64,
    /// The message payload.
    pub msg: &'a M,
}

/// Why a call to one of the run methods returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// No pending events remain.
    Drained,
    /// The time limit passed to [`Simulation::run_until`] was reached.
    ReachedTimeLimit,
    /// The actor called [`Context::stop`].
    Stopped,
    /// The safety event limit was hit (runaway simulation).
    EventLimitExceeded,
}

/// Default cap on processed events, guarding against livelocked models.
pub const DEFAULT_EVENT_LIMIT: u64 = 500_000_000;

/// A deterministic discrete-event simulation of one actor.
pub struct Simulation<A: Actor> {
    actor: A,
    queue: EventQueue<A::Msg>,
    now: SimTime,
    trace: TraceRecorder,
    outbox: Vec<Outgoing<A::Msg>>,
    events_processed: u64,
    event_limit: u64,
    stop_requested: bool,
}

impl<A: Actor> fmt::Debug for Simulation<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl<A: Actor> Simulation<A> {
    /// Creates a simulation of `actor` with the clock at zero and nothing
    /// pending.
    pub fn new(actor: A) -> Self {
        Simulation {
            actor,
            // A starting hint only: the calendar re-tunes itself to
            // whatever backlog the run builds up.
            queue: EventQueue::with_capacity(16),
            now: SimTime::ZERO,
            trace: TraceRecorder::new(false),
            outbox: Vec::new(),
            events_processed: 0,
            event_limit: DEFAULT_EVENT_LIMIT,
            stop_requested: false,
        }
    }

    /// Turns trace recording on or off.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    /// Attaches an online [`TraceObserver`](crate::TraceObserver) that sees
    /// every trace record as it is made, independent of whether the
    /// in-memory trace is kept.
    pub fn set_trace_observer(
        &mut self,
        observer: std::rc::Rc<std::cell::RefCell<dyn crate::TraceObserver>>,
    ) {
        self.trace.set_observer(observer);
    }

    /// The trace collected so far.
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// Replaces the runaway-protection event limit.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Current simulation time (the timestamp of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The actor.
    pub fn actor(&self) -> &A {
        &self.actor
    }

    /// Consumes the simulation, returning its actor for inspection and the
    /// trace it recorded — moved, not copied, and holding no observer.
    pub fn into_parts(mut self) -> (A, TraceRecorder) {
        self.trace.detach_observer();
        (self.actor, self.trace)
    }

    /// Schedules an external message (typically the initial events).
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule(&mut self, at: SimTime, msg: A::Msg) {
        self.schedule_train(at, msg, 1);
    }

    /// Schedules an external message as the first car of a train of
    /// `cars` events (see [`Context::send_train_at`]): its handler, and
    /// each car's after it, sends the next with
    /// [`Context::send_next_car_at`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time or `cars` is zero.
    pub fn schedule_train(&mut self, at: SimTime, msg: A::Msg, cars: u64) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push_train(at, msg, cars);
    }

    /// Delivers one already-popped event — queued under tie-break number
    /// `seq` — to the actor and enqueues everything the handler sent.
    fn dispatch(&mut self, time: SimTime, seq: u64, msg: A::Msg) {
        debug_assert!(time >= self.now, "event queue returned stale event");
        self.now = time;
        self.events_processed += 1;
        let mut ctx = Context {
            now: self.now,
            next_car_sent: false,
            outbox: &mut self.outbox,
            trace: &mut self.trace,
            stop: &mut self.stop_requested,
        };
        self.actor.handle(msg, &mut ctx);
        for out in self.outbox.drain(..) {
            match out.seq {
                SeqPlan::Reserve(cars) => self.queue.push_train(out.at, out.msg, cars),
                SeqPlan::NextCar => self.queue.push_car(out.at, seq + 1, out.msg),
            }
        }
    }

    /// The tie-break number of the event the queue just handed out.
    fn popped_seq(&self) -> u64 {
        self.queue
            .last_popped_seq()
            .expect("an event was just popped")
    }

    /// Processes a single event. Returns `false` when no event was pending.
    pub fn step(&mut self) -> bool {
        let Some((time, msg)) = self.queue.pop() else {
            return false;
        };
        self.dispatch(time, self.popped_seq(), msg);
        true
    }

    /// Runs until the queue drains, the actor stops the run, or the event
    /// limit trips.
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// Runs until `limit` (exclusive): events at `limit` or later stay
    /// queued.
    pub fn run_until(&mut self, limit: SimTime) -> RunOutcome {
        loop {
            if self.stop_requested {
                return RunOutcome::Stopped;
            }
            if self.events_processed >= self.event_limit {
                return RunOutcome::EventLimitExceeded;
            }
            // One heap inspection per event instead of a peek + pop pair.
            #[cfg(feature = "hostprof")]
            let pop_started = crate::hostprof::clock_start();
            let popped = self.queue.pop_if_before(limit);
            #[cfg(feature = "hostprof")]
            crate::hostprof::pop_done(
                pop_started,
                self.queue.len(),
                self.queue.total_pushed(),
                self.queue.total_popped(),
            );
            let Some((time, msg)) = popped else {
                if self.queue.is_empty() {
                    return RunOutcome::Drained;
                }
                self.now = self.now.max(limit);
                return RunOutcome::ReachedTimeLimit;
            };
            #[cfg(feature = "hostprof")]
            let dispatch_started = crate::hostprof::clock_start();
            self.dispatch(time, self.popped_seq(), msg);
            #[cfg(feature = "hostprof")]
            crate::hostprof::dispatch_done(dispatch_started);
        }
    }

    /// Whether the actor has requested a stop (via [`Context::stop`]).
    pub fn stopped(&self) -> bool {
        self.stop_requested
    }

    /// The current pending-event set in deterministic `(time, seq)` order:
    /// what a schedule explorer picks its next [`Simulation::step_seq`]
    /// from, instead of the engine's fixed earliest-first order.
    pub fn pending(&self) -> Vec<PendingEvent<'_, A::Msg>> {
        self.queue
            .pending_sorted()
            .into_iter()
            .map(|(time, seq, msg)| PendingEvent { time, seq, msg })
            .collect()
    }

    /// The pending-event set in no particular order, without allocating:
    /// [`Simulation::pending`] for a caller that sorts into a buffer it
    /// reuses across states.
    pub fn pending_unordered(&self) -> impl Iterator<Item = PendingEvent<'_, A::Msg>> {
        self.queue
            .iter_pending()
            .map(|(time, seq, msg)| PendingEvent { time, seq, msg })
    }

    /// Delivers the pending event with push-sequence `seq`, out of order if
    /// need be: an event whose timestamp has already passed is delivered at
    /// the current clock (the reordering reads as extra network delay, and
    /// the clock stays monotone). Returns `false` if no such event is
    /// pending.
    pub fn step_seq(&mut self, seq: u64) -> bool {
        let Some((time, msg)) = self.queue.remove_seq(seq) else {
            return false;
        };
        self.dispatch(time.max(self.now), seq, msg);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring of `n` stations forwarding a hop-counted token, all inside
    /// one actor: the message names the station it is for.
    struct Ring {
        received: Vec<Vec<SimTime>>,
    }

    #[derive(Debug)]
    struct Token {
        station: usize,
        hops: u32,
    }

    impl Actor for Ring {
        type Msg = Token;
        fn handle(&mut self, Token { station, hops }: Token, ctx: &mut Context<'_, Token>) {
            self.received[station].push(ctx.now());
            if hops > 0 {
                let next = Token {
                    station: (station + 1) % self.received.len(),
                    hops: hops - 1,
                };
                ctx.send(SimDur::from_nanos(100), next);
            } else {
                ctx.stop();
            }
        }
    }

    fn ring(n: usize) -> Simulation<Ring> {
        Simulation::new(Ring {
            received: vec![Vec::new(); n],
        })
    }

    /// A token for station 0 with `hops` forwards left.
    fn token(hops: u32) -> Token {
        Token { station: 0, hops }
    }

    #[test]
    fn token_ring_timing() {
        let mut sim = ring(4);
        sim.schedule(SimTime::ZERO, token(8));
        let outcome = sim.run_to_completion();
        assert_eq!(outcome, RunOutcome::Stopped);
        // 8 forwards of 100ns each.
        assert_eq!(sim.now(), SimTime::from_nanos(800));
        assert_eq!(sim.events_processed(), 9);
        // Station 0 saw the token at t=0, 400, 800.
        assert_eq!(
            sim.actor().received[0],
            vec![
                SimTime::ZERO,
                SimTime::from_nanos(400),
                SimTime::from_nanos(800)
            ]
        );
    }

    #[test]
    fn drains_when_no_stop() {
        let mut sim = ring(2);
        sim.schedule(SimTime::ZERO, token(0));
        // A token with no hops left stops immediately; schedule nothing
        // else.
        assert_eq!(sim.run_to_completion(), RunOutcome::Stopped);
        assert!(sim.stopped());
        let mut sim2 = ring(2);
        assert_eq!(sim2.run_to_completion(), RunOutcome::Drained);
        assert!(!sim2.stopped());
    }

    #[test]
    fn run_until_leaves_future_events() {
        let mut sim = ring(3);
        sim.schedule(SimTime::ZERO, token(10));
        let outcome = sim.run_until(SimTime::from_nanos(250));
        assert_eq!(outcome, RunOutcome::ReachedTimeLimit);
        // Events at 0, 100, 200 ran; 300 is pending.
        assert_eq!(sim.events_processed(), 3);
        assert_eq!(sim.run_to_completion(), RunOutcome::Stopped);
    }

    #[test]
    fn event_limit_trips() {
        struct Loopy;
        impl Actor for Loopy {
            type Msg = ();
            fn handle(&mut self, _: (), ctx: &mut Context<'_, ()>) {
                ctx.send(SimDur::from_nanos(1), ());
            }
        }
        let mut sim = Simulation::new(Loopy);
        sim.set_event_limit(1000);
        sim.schedule(SimTime::ZERO, ());
        assert_eq!(sim.run_to_completion(), RunOutcome::EventLimitExceeded);
        assert_eq!(sim.events_processed(), 1000);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let mut sim = ring(5);
            sim.set_tracing(true);
            sim.schedule(SimTime::ZERO, token(20));
            sim.run_to_completion();
            (sim.now(), sim.events_processed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_records_via_context() {
        struct Tracer;
        impl Actor for Tracer {
            type Msg = ();
            fn handle(&mut self, _: (), ctx: &mut Context<'_, ()>) {
                assert!(ctx.tracing());
                ctx.trace_for(3, TraceKind::AccRead, TraceDetail::Var { var: 9 });
            }
        }
        let mut sim = Simulation::new(Tracer);
        sim.set_tracing(true);
        sim.schedule(SimTime::from_nanos(7), ());
        sim.run_to_completion();
        let ticks: Vec<_> = sim.trace().of_kind(TraceKind::AccRead).collect();
        assert_eq!(ticks.len(), 1);
        assert_eq!((ticks[0].time, ticks[0].actor), (SimTime::from_nanos(7), 3));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = ring(2);
        sim.schedule(SimTime::ZERO, token(2));
        sim.run_to_completion();
        sim.schedule(SimTime::ZERO, token(0));
    }

    #[test]
    #[should_panic(expected = "one next car per handled event")]
    fn a_handler_sends_at_most_one_next_car() {
        struct Greedy;
        impl Actor for Greedy {
            type Msg = ();
            fn handle(&mut self, _: (), ctx: &mut Context<'_, ()>) {
                ctx.send_next_car_at(ctx.now(), ());
                ctx.send_next_car_at(ctx.now(), ());
            }
        }
        let mut sim = Simulation::new(Greedy);
        sim.schedule_train(SimTime::ZERO, (), 3);
        sim.step();
    }

    #[test]
    fn step_seq_clamps_stale_events_to_now() {
        struct Recorder {
            seen: Vec<(SimTime, u32)>,
        }
        impl Actor for Recorder {
            type Msg = u32;
            fn handle(&mut self, msg: u32, ctx: &mut Context<'_, u32>) {
                self.seen.push((ctx.now(), msg));
            }
        }
        let mut sim = Simulation::new(Recorder { seen: Vec::new() });
        sim.schedule(SimTime::from_nanos(10), 1);
        sim.schedule(SimTime::from_nanos(20), 2);
        let pending = sim.pending();
        assert_eq!(pending.len(), 2);
        assert_eq!(
            (pending[0].time, pending[0].seq, *pending[0].msg),
            (SimTime::from_nanos(10), 0, 1)
        );
        // Deliver the later event first, then the earlier one: the earlier
        // event's delivery time clamps up to the clock.
        assert!(sim.step_seq(1));
        assert!(sim.step_seq(0));
        assert!(!sim.step_seq(0), "already delivered");
        assert_eq!(
            sim.actor().seen,
            vec![(SimTime::from_nanos(20), 2), (SimTime::from_nanos(20), 1)]
        );
    }

    #[test]
    fn into_parts_returns_state_and_a_trace_that_holds_no_observer() {
        struct Ignore;
        impl crate::TraceObserver for Ignore {
            fn on_record(&mut self, _: &crate::TraceEntry) {}
        }
        let observer = std::rc::Rc::new(std::cell::RefCell::new(Ignore));
        let mut sim = ring(2);
        sim.set_trace_observer(observer.clone());
        sim.schedule(SimTime::ZERO, token(1));
        sim.run_to_completion();
        let (ring, trace) = sim.into_parts();
        assert_eq!(
            ring.received,
            [vec![SimTime::ZERO], vec![SimTime::from_nanos(100)]]
        );
        assert!(!trace.is_enabled());
        assert_eq!(std::rc::Rc::strong_count(&observer), 1);
    }
}

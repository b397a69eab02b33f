//! Causal-context propagation for the machine.
//!
//! A [`CauseCtx`] rides along with the [`Machine`](crate::Machine) and
//! threads "what caused the action I am performing right now" across the
//! seams where the simulator loses that information:
//!
//! * **send → deliver**: outgoing packets are stamped with the sender's
//!   current cause ([`Packet::cause`](crate::Packet)); packet arrival
//!   restores it as the receiver's context.
//! * **compute / timer scheduling → firing**: `ComputeDone`, `TimerFired`
//!   and `ModelTimer` events carry no provenance on the wire, so the
//!   context is parked in side maps keyed by `(node, tag)` and restored
//!   when the event fires.
//! * **protocol → program**: application events queued by
//!   [`Mx::deliver`](crate::Mx) capture the delivering protocol action's
//!   cause.
//!
//! Every causal step is emitted as a `"cause"` trace record (a
//! [`TraceDetail::Cause`](sesame_sim::TraceDetail) edge) *immediately
//! after* the canonical record it annotates — same actor, same timestamp —
//! which is the pairing contract `sesame-telemetry`'s DAG builder relies
//! on. All of it is gated on tracing: with tracing detached nothing is
//! allocated, stamped ids stay [`CauseId::NONE`], and the simulation is
//! bit-for-bit unchanged.
//!
//! **Which ids can still be cited.** A later `"cause"` record names an id
//! as its parent only if something carried the id there: a scheduled packet
//! or wave train ([`Packet::cause`](crate::Packet)), or one of the three
//! park maps. The context counts those *holds* per block of 4 096 ids —
//! [`CauseCtx::hold`] where an id is handed out, [`CauseCtx::release`]
//! where the event that carried it is handled — and at the top of every
//! event, while the event's own id is still held, publishes the first id of
//! the oldest block still held whenever that has moved
//! ([`CauseCtx::publish_floor`] →
//! [`TraceObserver::on_cause_floor`](sesame_sim::TraceObserver::on_cause_floor)):
//! *no later record names a parent below it*. An event the run never
//! handles (a timer pending when the program stops, an event the schedule
//! explorer removed) keeps its hold, which pins the floor and never breaks
//! it. The signal is a call, not a record, so the trace stream is the same
//! with or without a listener.
//!
//! The context is deliberately **not** part of
//! [`Machine::state_digest`](crate::Machine::state_digest): causal ids are
//! provenance metadata, and the model checker must not distinguish states
//! by them.

use std::collections::{HashMap, VecDeque};

use sesame_net::{CauseAlloc, CauseId, NodeId};
use sesame_sim::{CauseOp, Context, TraceDetail, TraceKind};

use crate::machine::MachineMsg;

/// Ids per hold-count block, as a shift: the floor moves a block at a time.
const BLOCK_SHIFT: u32 = 12;

/// The cause parked under each `(node, tag)`.
type Parked = HashMap<(u32, u64), CauseId>;

/// The machine's causal bookkeeping: an id allocator, the cause of the
/// action currently being processed, side maps carrying context across
/// self-scheduled events, and the count of who still carries which ids.
#[derive(Debug, Default)]
pub struct CauseCtx {
    alloc: CauseAlloc,
    cur: CauseId,
    compute: Parked,
    timer: Parked,
    model_timer: Parked,
    /// Outstanding holds per block of ids, `held[0]` counting block
    /// `held_from`. Blocks that drain are popped by
    /// [`CauseCtx::publish_floor`] alone, so an id released and held again
    /// within one event still finds its block. A handful of entries in
    /// steady state; empty for as long as ids are [`CauseId::NONE`].
    held: VecDeque<u32>,
    held_from: u64,
    /// The last floor published.
    floor: u64,
}

impl CauseCtx {
    /// A fresh context.
    #[must_use]
    pub fn new() -> CauseCtx {
        CauseCtx::default()
    }

    /// The cause of the action currently being processed
    /// ([`CauseId::NONE`] at the roots: `Start` events, untraced runs).
    #[must_use]
    pub fn current(&self) -> CauseId {
        self.cur
    }

    /// Restores the current cause (entering an event handler whose
    /// provenance was carried on a packet or queue item).
    pub fn set_current(&mut self, cause: CauseId) {
        self.cur = cause;
    }

    /// Records a causal point: allocates an id, emits the `"cause"` edge,
    /// and makes the new id the current cause so subsequent actions in the
    /// same handler chain from it. Returns [`CauseId::NONE`] (and does
    /// nothing) when tracing is detached.
    pub fn point(
        &mut self,
        ctx: &mut Context<'_, MachineMsg>,
        node: NodeId,
        op: CauseOp,
    ) -> CauseId {
        let id = self.stage(ctx, node, op);
        if id.is_some() {
            self.cur = id;
        }
        id
    }

    /// Like [`CauseCtx::point`] but without advancing the current cause:
    /// used for fan-out actions (sends, multicasts, compute scheduling)
    /// where several children must all chain from the same parent.
    pub fn stage(
        &mut self,
        ctx: &mut Context<'_, MachineMsg>,
        node: NodeId,
        op: CauseOp,
    ) -> CauseId {
        if !ctx.tracing() {
            return CauseId::NONE;
        }
        debug_assert!(
            !self.cur.is_some() || self.cur.raw() >= self.floor,
            "citing {} below the published floor {}",
            self.cur,
            self.floor
        );
        let id = self.alloc.fresh();
        ctx.trace_for(
            node.index(),
            TraceKind::Cause,
            TraceDetail::Cause {
                id: id.raw(),
                cause: self.cur.raw(),
                op,
            },
        );
        id
    }

    /// Counts one more carrier of `cause`: a packet or wave train
    /// scheduled with it, or a park-map entry. [`CauseId::NONE`] is never
    /// counted.
    pub fn hold(&mut self, cause: CauseId) {
        if !cause.is_some() {
            return;
        }
        let block = cause.raw() >> BLOCK_SHIFT;
        if self.held.is_empty() {
            self.held_from = block;
        }
        // Every id an event can hand out is its own or newer, and its own
        // block was still counted when the floor was last published.
        let at = block
            .checked_sub(self.held_from)
            .expect("a held id precedes the oldest block still held") as usize;
        if at >= self.held.len() {
            self.held.resize(at + 1, 0);
        }
        self.held[at] += 1;
    }

    /// Takes back one [`CauseCtx::hold`] of `cause`: the event that carried
    /// it is being handled.
    pub fn release(&mut self, cause: CauseId) {
        if cause.is_some() {
            let at = (cause.raw() >> BLOCK_SHIFT) - self.held_from;
            self.held[at as usize] -= 1;
        }
    }

    /// Tells the trace observer how far the oldest id still held has moved,
    /// if it crossed a block boundary. The machine calls this at the top of
    /// every event, before the event's own id is released — so everything
    /// the handler can cite is at or above what is published here. One
    /// failed comparison on an untraced run.
    pub fn publish_floor(&mut self, ctx: &mut Context<'_, MachineMsg>) {
        if let Some(floor) = self.advance_floor() {
            ctx.cause_floor(floor);
        }
    }

    /// Drops the drained blocks at the front and returns the new floor —
    /// the first id of the oldest block still held — if it moved.
    fn advance_floor(&mut self) -> Option<u64> {
        while self.held.front() == Some(&0) {
            self.held.pop_front();
            self.held_from += 1;
        }
        let floor = self.held_from << BLOCK_SHIFT;
        (!self.held.is_empty() && floor > self.floor).then(|| {
            self.floor = floor;
            floor
        })
    }

    /// Outstanding holds: scheduled carriers not yet handled plus parked
    /// causes not yet resumed.
    #[must_use]
    pub fn held(&self) -> u64 {
        self.held.iter().map(|&n| u64::from(n)).sum()
    }

    /// Causes waiting in the park maps — after a drained run, timers and
    /// compute phases that were scheduled and never fired.
    #[must_use]
    pub fn parked(&self) -> usize {
        self.compute.len() + self.timer.len() + self.model_timer.len()
    }

    /// Parks the given cause for a scheduled compute phase.
    pub fn park_compute(&mut self, node: NodeId, tag: u64, cause: CauseId) {
        let replaced = park(&mut self.compute, node, tag, cause);
        self.hold(cause);
        self.release(replaced);
    }

    /// Restores the cause parked for a completing compute phase.
    pub fn resume_compute(&mut self, node: NodeId, tag: u64) {
        self.cur = unpark(&mut self.compute, node, tag);
        self.release(self.cur);
    }

    /// Parks the current cause for a program timer.
    pub fn park_timer(&mut self, node: NodeId, tag: u64) {
        let replaced = park(&mut self.timer, node, tag, self.cur);
        self.hold(self.cur);
        self.release(replaced);
    }

    /// Restores the cause parked for a firing program timer.
    pub fn resume_timer(&mut self, node: NodeId, tag: u64) {
        self.cur = unpark(&mut self.timer, node, tag);
        self.release(self.cur);
    }

    /// Parks the current cause for a protocol (model) timer.
    pub fn park_model_timer(&mut self, node: NodeId, tag: u64) {
        let replaced = park(&mut self.model_timer, node, tag, self.cur);
        self.hold(self.cur);
        self.release(replaced);
    }

    /// Restores the cause parked for a firing protocol timer.
    pub fn resume_model_timer(&mut self, node: NodeId, tag: u64) {
        self.cur = unpark(&mut self.model_timer, node, tag);
        self.release(self.cur);
    }
}

/// Parks `cause` under `(node, tag)` and returns the cause it replaced — a
/// timer re-armed before it fired — or [`CauseId::NONE`]. An untraced run
/// parks nothing.
fn park(parked: &mut Parked, node: NodeId, tag: u64, cause: CauseId) -> CauseId {
    if !cause.is_some() {
        return CauseId::NONE;
    }
    let replaced = parked.insert((node.get(), tag), cause);
    replaced.unwrap_or(CauseId::NONE)
}

/// Takes the cause parked under `(node, tag)` out of `parked`. An untraced
/// run parks nothing, and `HashMap::remove` hashes its key before it looks
/// at the table, so the empty case is answered without it.
fn unpark(parked: &mut Parked, node: NodeId, tag: u64) -> CauseId {
    if parked.is_empty() {
        return CauseId::NONE;
    }
    parked.remove(&(node.get(), tag)).unwrap_or(CauseId::NONE)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With tracing detached every stamped id is [`CauseId::NONE`], so the
    /// park calls must skip their map inserts entirely — the side maps
    /// never allocate a single bucket over an untraced run.
    #[test]
    fn detached_parking_never_touches_the_heap() {
        let mut c = CauseCtx::new();
        for tag in 0..1000 {
            let node = NodeId::new((tag % 7) as u32);
            c.park_compute(node, tag, CauseId::NONE);
            c.park_timer(node, tag);
            c.park_model_timer(node, tag);
            c.resume_compute(node, tag);
            c.resume_timer(node, tag);
            c.resume_model_timer(node, tag);
            assert_eq!(c.current(), CauseId::NONE);
        }
        assert_eq!(c.alloc.allocated(), 0);
        assert_eq!(c.compute.capacity(), 0, "no compute-map allocation");
        assert_eq!(c.timer.capacity(), 0, "no timer-map allocation");
        assert_eq!(c.model_timer.capacity(), 0, "no model-timer-map allocation");
        c.hold(CauseId::NONE);
        c.release(CauseId::NONE);
        assert_eq!(c.advance_floor(), None);
        assert_eq!(c.held.capacity(), 0, "no hold-count allocation");
    }

    /// With a live cause the park/resume pair round-trips it.
    #[test]
    fn live_causes_round_trip_through_parking() {
        let mut c = CauseCtx::new();
        let node = NodeId::new(3);
        c.park_compute(node, 9, CauseId::from_raw(41));
        c.set_current(CauseId::from_raw(7));
        c.park_timer(node, 5);
        c.resume_compute(node, 9);
        assert_eq!(c.current(), CauseId::from_raw(41));
        c.resume_timer(node, 5);
        assert_eq!(c.current(), CauseId::from_raw(7));
        c.resume_timer(node, 5);
        assert_eq!(c.current(), CauseId::NONE, "parked causes are one-shot");
        assert_eq!((c.held(), c.parked()), (0, 0));
    }

    /// The floor is the first id of the oldest block something still
    /// carries, published when it moves and never while nothing is held.
    #[test]
    fn the_floor_follows_the_oldest_block_still_held() {
        const BLOCK: u64 = 1 << BLOCK_SHIFT;
        let id = |block: u64, k: u64| CauseId::from_raw(block * BLOCK + k);
        let mut c = CauseCtx::new();
        assert_eq!(c.advance_floor(), None, "nothing held, nothing to say");
        c.hold(id(0, 1));
        c.hold(id(0, 9));
        c.hold(id(2, 0));
        assert_eq!(
            c.advance_floor(),
            None,
            "block 0 starts at the default floor"
        );
        c.release(id(0, 1));
        assert_eq!(c.advance_floor(), None, "#9 still pins block 0");
        c.release(id(0, 9));
        // Released and held again inside one event: the block is not gone
        // until the floor is next worked out.
        c.hold(id(0, 9));
        c.release(id(0, 9));
        assert_eq!(c.advance_floor(), Some(2 * BLOCK), "block 1 was never held");
        assert_eq!(c.advance_floor(), None, "told once");
        c.hold(id(2, 7));
        c.release(id(2, 0));
        c.release(id(2, 7));
        assert_eq!(c.held(), 0);
        assert_eq!(
            c.advance_floor(),
            None,
            "nothing held: the last floor stands"
        );
        c.hold(id(5, 3));
        assert_eq!(c.advance_floor(), Some(5 * BLOCK));
        assert_eq!(c.held.len(), 1, "drained blocks are dropped");
    }

    /// Re-arming a timer before it fires replaces the parked cause; the
    /// hold on the replaced one goes with it.
    #[test]
    fn parking_over_a_live_entry_releases_what_it_replaces() {
        let mut c = CauseCtx::new();
        let node = NodeId::new(1);
        for (park, resume) in [
            (
                CauseCtx::park_timer as fn(&mut CauseCtx, NodeId, u64),
                CauseCtx::resume_timer as fn(&mut CauseCtx, NodeId, u64),
            ),
            (CauseCtx::park_model_timer, CauseCtx::resume_model_timer),
        ] {
            c.set_current(CauseId::from_raw(3));
            park(&mut c, node, 8);
            c.set_current(CauseId::from_raw(5_000));
            park(&mut c, node, 8);
            assert_eq!((c.held(), c.parked()), (1, 1));
            // A re-arm with no cause leaves the parked one in place.
            c.set_current(CauseId::NONE);
            park(&mut c, node, 8);
            assert_eq!((c.held(), c.parked()), (1, 1));
            resume(&mut c, node, 8);
            assert_eq!(c.current(), CauseId::from_raw(5_000));
            assert_eq!((c.held(), c.parked()), (0, 0));
        }
        c.park_compute(node, 2, CauseId::from_raw(4));
        c.park_compute(node, 2, CauseId::from_raw(6));
        assert_eq!((c.held(), c.parked()), (1, 1));
        c.resume_compute(node, 2);
        assert_eq!(c.current(), CauseId::from_raw(6));
        assert_eq!(c.held(), 0);
    }
}

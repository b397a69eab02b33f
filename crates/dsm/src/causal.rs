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
//! The context is deliberately **not** part of
//! [`Machine::state_digest`](crate::Machine::state_digest): causal ids are
//! provenance metadata, and the model checker must not distinguish states
//! by them.

use std::collections::HashMap;

use sesame_net::{CauseAlloc, CauseId, NodeId};
use sesame_sim::{CauseOp, Context, TraceDetail};

use crate::machine::MachineMsg;

/// The machine's causal bookkeeping: an id allocator, the cause of the
/// action currently being processed, and side maps carrying context across
/// self-scheduled events.
#[derive(Debug, Default)]
pub struct CauseCtx {
    alloc: CauseAlloc,
    cur: CauseId,
    compute: HashMap<(u32, u64), CauseId>,
    timer: HashMap<(u32, u64), CauseId>,
    model_timer: HashMap<(u32, u64), CauseId>,
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
        let id = self.alloc.fresh();
        ctx.trace_for(
            node.index(),
            "cause",
            TraceDetail::Cause {
                id: id.raw(),
                cause: self.cur.raw(),
                op,
            },
        );
        id
    }

    /// Parks the given cause for a scheduled compute phase.
    pub fn park_compute(&mut self, node: NodeId, tag: u64, cause: CauseId) {
        if cause.is_some() {
            self.compute.insert((node.get(), tag), cause);
        }
    }

    /// Restores the cause parked for a completing compute phase.
    pub fn resume_compute(&mut self, node: NodeId, tag: u64) {
        self.cur = unpark(&mut self.compute, node, tag);
    }

    /// Parks the current cause for a program timer.
    pub fn park_timer(&mut self, node: NodeId, tag: u64) {
        if self.cur.is_some() {
            self.timer.insert((node.get(), tag), self.cur);
        }
    }

    /// Restores the cause parked for a firing program timer.
    pub fn resume_timer(&mut self, node: NodeId, tag: u64) {
        self.cur = unpark(&mut self.timer, node, tag);
    }

    /// Parks the current cause for a protocol (model) timer.
    pub fn park_model_timer(&mut self, node: NodeId, tag: u64) {
        if self.cur.is_some() {
            self.model_timer.insert((node.get(), tag), self.cur);
        }
    }

    /// Restores the cause parked for a firing protocol timer.
    pub fn resume_model_timer(&mut self, node: NodeId, tag: u64) {
        self.cur = unpark(&mut self.model_timer, node, tag);
    }
}

/// Takes the cause parked under `(node, tag)` out of `parked`. An untraced
/// run parks nothing, and `HashMap::remove` hashes its key before it looks
/// at the table, so the empty case is answered without it.
fn unpark(parked: &mut HashMap<(u32, u64), CauseId>, node: NodeId, tag: u64) -> CauseId {
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
    }
}

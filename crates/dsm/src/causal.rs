//! Causal-context propagation for the machine.
//!
//! A [`CauseCtx`] rides along with the [`Machine`](crate::Machine) and
//! threads "what caused the action I am performing right now" across the
//! seams where the simulator loses that information:
//!
//! * **schedule → handle**: every queue event the machine schedules
//!   carries the cause it was scheduled under ([`DsmEvent::cause`]) — a
//!   packet or wave train a fresh send or multicast id, a compute phase its
//!   `compute` id, a program or protocol timer the cause current when it
//!   was armed — and handling the event restores it as the current cause.
//!   A timer re-armed before it fires is a second event with its own cause.
//! * **protocol → program**: application events queued by
//!   [`Mx::deliver`](crate::Mx) capture the delivering protocol action's
//!   cause.
//!
//! Every causal step is emitted as a `"cause"` trace record (a
//! [`TraceDetail::Cause`](sesame_sim::TraceDetail) edge) *immediately
//! after* the canonical record it annotates — same actor, same timestamp —
//! which is the pairing contract `sesame-telemetry`'s DAG builder relies
//! on. All of it is gated on tracing: with tracing detached nothing is
//! allocated, carried ids stay [`CauseId::NONE`], and the simulation is
//! bit-for-bit unchanged.
//!
//! **Which ids can still be cited.** A later `"cause"` record names an id
//! as its parent only if a pending event carries it. The context counts
//! those *holds* per block of 4 096 ids — [`CauseCtx::carry`] where an event
//! carrying an id is scheduled, [`CauseCtx::release`] at the top of its
//! handling — so [`CauseCtx::held`] is the number of pending events that
//! carry a cause (a wave train is one: each car hands its hold to the
//! next). At the top of every event, while the event's own id is still
//! held, the context publishes the first id of the oldest block still held
//! whenever that has moved ([`CauseCtx::publish_floor`] →
//! [`TraceObserver::on_cause_floor`](sesame_sim::TraceObserver::on_cause_floor)):
//! *no later record names a parent below it*. An event the run never
//! handles (a timer pending when the program stops, an event the schedule
//! explorer removed) keeps its hold, which pins the floor and never breaks
//! it. The signal is a call, not a record, so the trace stream is the same
//! with or without a listener.
//!
//! The context is deliberately **not** part of
//! [`Machine::state_digest`](crate::Machine::state_digest), and a carried
//! id is invisible to event equality and hashing ([`Carried`]): causal ids
//! are provenance metadata, and the model checker must not distinguish
//! states by them.
//!
//! [`DsmEvent::cause`]: crate::DsmEvent::cause

use std::collections::VecDeque;

use sesame_net::{CauseAlloc, CauseId, NodeId};
use sesame_sim::{CauseOp, Context, TraceDetail, TraceKind};

use crate::machine::MachineMsg;

/// Ids per hold-count block, as a shift: the floor moves a block at a time.
const BLOCK_SHIFT: u32 = 12;

/// The causal id a queue event carries ([`DsmEvent::cause`]).
///
/// Any two compare equal and hash alike: the id is provenance the
/// protocol never reads, so the schedule explorer's folding and state
/// digests must not tell events apart by it.
///
/// [`DsmEvent::cause`]: crate::DsmEvent::cause
#[derive(Debug, Clone, Copy, Default)]
pub struct Carried(pub CauseId);

impl PartialEq for Carried {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Carried {}

impl std::hash::Hash for Carried {
    fn hash<H: std::hash::Hasher>(&self, _: &mut H) {}
}

/// The machine's causal bookkeeping: an id allocator, the cause of the
/// action currently being processed, and the count of pending events
/// still carrying which ids.
#[derive(Debug, Default)]
pub struct CauseCtx {
    alloc: CauseAlloc,
    cur: CauseId,
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
    /// provenance was carried on the event or a cascade item).
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
    /// used for fan-out actions (sends, multicasts, compute phases)
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

    /// Counts one more carrier of `cause`: an event scheduled with it
    /// ([`CauseCtx::carry`]). [`CauseId::NONE`] is never counted.
    fn hold(&mut self, cause: CauseId) {
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

    /// Holds `cause` for an event about to be scheduled with it, and
    /// returns it as that event carries it.
    pub fn carry(&mut self, cause: CauseId) -> Carried {
        self.hold(cause);
        Carried(cause)
    }

    /// Takes back one [`CauseCtx::carry`] of `cause`: the event that carried
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

    /// Outstanding holds: the pending events that carry a cause.
    #[must_use]
    pub fn held(&self) -> u64 {
        self.held.iter().map(|&n| u64::from(n)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}

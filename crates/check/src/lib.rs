//! # sesame-check — exhaustive schedule-space model checking
//!
//! The simulator normally delivers events in one fixed `(time, seq)`
//! order, so a passing run certifies exactly one interleaving. This crate
//! replaces that fixed order with *controlled nondeterminism*: a DFS
//! driver re-executes a small deterministic workload (the
//! [`sesame_workloads::canonical`] configurations) under **every**
//! meaningfully different delivery schedule, running the `sesame-verify`
//! invariant checkers plus a linearizability oracle online in each one.
//!
//! ## Semantics of a schedule
//!
//! A schedule is the list of queue sequence numbers chosen at each step.
//! At every state the explorer may pick:
//!
//! * any pending **packet** that is the oldest on its `(from, to)` link —
//!   links stay FIFO (the fabric guarantees per-path ordering) but
//!   cross-link delays are arbitrary: this is the *asynchronous closure*
//!   of the timed model, covering every assignment of network latencies;
//! * the earliest pending **local** event (timer, compute completion) of
//!   each node — a node's own timeline is deterministic, only its
//!   interleaving with message arrivals varies.
//!
//! Delivering an event "late" clamps its delivery time to the current
//! clock, so the clock stays monotone and the trace the checkers see is a
//! real timed execution.
//!
//! ## Reduction
//!
//! Exploring all interleavings verbatim is factorial; the explorer prunes
//! with two classic techniques:
//!
//! * **sleep sets** (partial-order reduction): after fully exploring
//!   event `e` at a state, sibling subtrees inherit `e` in their sleep
//!   set and skip re-exploring it until a *dependent* event fires.
//!   Dependence is conservative footprint overlap
//!   ([`sesame_dsm::independent`]): events touching disjoint nodes and
//!   group roots commute, so only one of their two orders is explored.
//! * **state hashing** (on by default): states whose machine digest and
//!   pending event set were already fully explored (with an empty sleep
//!   set) are not revisited. The digest covers protocol state but not
//!   checker history, so hashing may fold prefixes that differ only in
//!   their real-time ordering history; switch it off when the
//!   linearizability oracle's real-time check must be exhaustive.
//!
//! Three budgets keep every run bounded: schedule depth, completed (or
//! depth-truncated) schedules, and total explored tree leaves of any
//! kind — the last one charges for sleep-blocked and pruned branches, so
//! even a configuration dominated by abandoned branches terminates.
//!
//! A violating schedule is reported as a replayable counterexample: the
//! chosen seq list plus the workload parameters serialize to a small text
//! file, and [`replay`] re-executes it deterministically, handing the full
//! trace to the `sesame-verify` offline checkers for diagnostics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digest_set;
mod explore;
mod replay;

#[doc(hidden)]
pub use explore::check_with_replay_hook;
pub use explore::{check, CheckOptions, CheckReport, Counterexample, LinkMode};
pub use replay::{
    parse_gwc_mutation, parse_mutex_mutation, parse_replay, replay, to_replay_string, ReplayOutcome,
};

pub use sesame_core::MutexMutation;
pub use sesame_dsm::GwcMutation;
pub use sesame_workloads::canonical::{CanonicalConfig, COUNTER, LOCK};

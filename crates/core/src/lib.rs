//! # sesame-core — optimistic mutual exclusion under group write consistency
//!
//! The primary contribution of *Hermannsson & Wittie, "Optimistic
//! Synchronization in Distributed Shared Memory" (ICDCS 1994)*, reproduced
//! on the `sesame-dsm` substrate:
//!
//! * [`UsageHistory`] — the EWMA lock-usage estimator
//!   (`old = 0.95*old + 0.05*new`) that gates optimistic attempts;
//! * [`OptimisticMutex`] — the compiler-generated code of the paper's
//!   Figures 4 and 5 as an explicit state machine: atomic exchange of the
//!   local lock copy, non-blocking lock request, immediate execution of the
//!   critical section overlapping the request's round trip, armed
//!   lock-change interrupts with atomic insharing suspension, and rollback
//!   with re-execution when another processor wins the lock;
//! * [`builder`] — a high-level API that assembles complete simulated
//!   systems (topology, sharing groups, memory model, programs) in a few
//!   lines.
//!
//! In the best case, useful computation totally overlaps lock
//! confirmation: the processor finishes the section exactly when (or
//! before) permission arrives, halving the total time for synchronization
//! plus exclusive execution. When another processor wins, the group root
//! has already discarded the loser's optimistic writes, and a local
//! rollback restores the saved state before re-execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
mod history;
mod optimistic;

pub use history::UsageHistory;
pub use optimistic::{
    Completion, MutexMutation, MutexSignal, NestedMutexError, OptimisticConfig, OptimisticMutex,
    OptimisticStats, Path, MUTEX_TAG_BASE,
};

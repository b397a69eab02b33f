//! # sesame-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the `sesame-rs` reproduction of
//! *Hermannsson & Wittie, "Optimistic Synchronization in Distributed Shared
//! Memory" (ICDCS 1994)*. The paper's evaluation is simulation-based; this
//! kernel provides the clock, the deterministic pending-event queue, the
//! engine that runs one simulated machine over it, reproducible randomness
//! for the models that want it, measurement collectors, and the trace
//! recorder used to regenerate the paper's timing diagrams.
//!
//! ## Example
//!
//! ```
//! use sesame_sim::{Actor, Context, SimDur, SimTime, Simulation};
//!
//! /// Relays a message once, 200ns later (one "network hop").
//! struct Relay { delivered: u32 }
//!
//! impl Actor for Relay {
//!     type Msg = u32;
//!     fn handle(&mut self, hops: u32, ctx: &mut Context<'_, u32>) {
//!         self.delivered += 1;
//!         if hops > 0 {
//!             ctx.send(SimDur::from_nanos(200), hops - 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Relay { delivered: 0 });
//! sim.schedule(SimTime::ZERO, 3);
//! sim.run_to_completion();
//! assert_eq!(sim.now(), SimTime::from_nanos(600));
//! assert_eq!(sim.actor().delivered, 4);
//! ```
//!
//! Determinism guarantee: for a fixed actor program and inputs, every run
//! produces identical event orders, timings, traces, and statistics. This is
//! load-bearing for the golden files (`tests/golden/`) and the ledger's
//! digest pins (`benchmark/pins.txt`), which hold runs to recorded bytes.

// The `hostprof` feature's counting allocator is the sole unsafe code in
// the crate: two forwarding calls into the system allocator, each behind an
// explicit allow with a SAFETY comment.
#![cfg_attr(not(feature = "hostprof"), forbid(unsafe_code))]
#![cfg_attr(feature = "hostprof", deny(unsafe_code))]
#![warn(missing_docs)]

mod engine;
#[cfg(feature = "hostprof")]
pub mod hostprof;
mod queue;
mod rng;
mod seq_table;
mod stats;
mod time;
mod trace;

pub use engine::{Actor, Context, PendingEvent, RunOutcome, Simulation, DEFAULT_EVENT_LIMIT};
pub use queue::EventQueue;
pub use rng::DetRng;
pub use seq_table::SeqTable;
pub use stats::{Histogram, Point, Series, TimeWeighted};
pub use time::{SimDur, SimTime};
pub use trace::{
    ApplyMode, CauseOp, TraceDetail, TraceEntry, TraceKind, TraceObserver, TraceRecorder,
};

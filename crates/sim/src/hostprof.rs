//! Host-side simulator profiling (the `hostprof` feature).
//!
//! Where the rest of the crate measures *simulated* time, this module
//! measures where the *host* spends wall-clock while running the simulator:
//! event-queue pops, actor dispatch, trace emission, observer callbacks,
//! queue depth and churn, and heap-allocation counts. It answers "where
//! does kernel time go?" for scaling work (ROADMAP items 1–2) without
//! touching the deterministic simulated-time domain — the accumulators are
//! read out of band and never influence event order.
//!
//! The module only exists when the `hostprof` feature is on; with it off
//! the engine and trace recorder compile to exactly the code they had
//! before (zero code, zero overhead), and `#![forbid(unsafe_code)]` stays
//! in force. Wall-clock reads here are the sanctioned exception to the
//! workspace clippy ban on `Instant::now` (see `clippy.toml`).
//!
//! Accumulators are thread-local (each sweep worker profiles its own runs);
//! allocation counters are process-global atomics fed by [`CountingAlloc`],
//! which a binary opts into with `#[global_allocator]` — without it the
//! allocation rows read 0.
//!
//! ```
//! use sesame_sim::{hostprof, Actor, Context, SimDur, SimTime, Simulation};
//!
//! struct Tick;
//! impl Actor for Tick {
//!     type Msg = u32;
//!     fn handle(&mut self, n: u32, ctx: &mut Context<'_, u32>) {
//!         if n > 0 {
//!             ctx.send(SimDur::from_nanos(10), n - 1);
//!         }
//!     }
//! }
//!
//! hostprof::reset();
//! let mut sim = Simulation::new(Tick);
//! sim.schedule(SimTime::ZERO, 99);
//! sim.run_to_completion();
//! let report = hostprof::report();
//! assert_eq!(report.events, 100);
//! assert!(report.to_json().contains("\"schema\":\"sesame-hostprof/v1\""));
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Schema identifier written into every host-profile export.
pub const HOSTPROF_SCHEMA: &str = "sesame-hostprof/v1";

thread_local! {
    static POP_NS: Cell<u64> = const { Cell::new(0) };
    static DISPATCH_NS: Cell<u64> = const { Cell::new(0) };
    static TRACE_NS: Cell<u64> = const { Cell::new(0) };
    static OBSERVER_NS: Cell<u64> = const { Cell::new(0) };
    static EVENTS: Cell<u64> = const { Cell::new(0) };
    static TRACE_RECORDS: Cell<u64> = const { Cell::new(0) };
    static QUEUE_DEPTH_LAST: Cell<u64> = const { Cell::new(0) };
    static QUEUE_DEPTH_MAX: Cell<u64> = const { Cell::new(0) };
    static QUEUE_PUSHED: Cell<u64> = const { Cell::new(0) };
    static QUEUE_POPPED: Cell<u64> = const { Cell::new(0) };
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Reads the host clock. The one sanctioned wall-clock source in the
/// library crates; everything it feeds stays outside simulated time.
#[allow(clippy::disallowed_methods)]
pub fn clock_start() -> Instant {
    Instant::now()
}

#[allow(clippy::disallowed_methods)]
fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Accounts one event-queue pop attempt and refreshes the queue gauges.
/// Called by the engine's hot loop after `pop_if_before`.
pub fn pop_done(started: Instant, depth: usize, pushed: u64, popped: u64) {
    POP_NS.with(|c| c.set(c.get().saturating_add(elapsed_ns(started))));
    let depth = depth as u64;
    QUEUE_DEPTH_LAST.with(|c| c.set(depth));
    QUEUE_DEPTH_MAX.with(|c| c.set(c.get().max(depth)));
    QUEUE_PUSHED.with(|c| c.set(pushed));
    QUEUE_POPPED.with(|c| c.set(popped));
}

/// Accounts one actor dispatch (handler plus outbox drain).
pub fn dispatch_done(started: Instant) {
    DISPATCH_NS.with(|c| c.set(c.get().saturating_add(elapsed_ns(started))));
    EVENTS.with(|c| c.set(c.get() + 1));
}

/// Accounts one trace-record emission. The interval includes any observer
/// callback inside it, so `trace_ns >= observer_ns`.
pub fn trace_done(started: Instant) {
    TRACE_NS.with(|c| c.set(c.get().saturating_add(elapsed_ns(started))));
    TRACE_RECORDS.with(|c| c.set(c.get() + 1));
}

/// Accounts one observer callback (the `on_record` body alone).
pub fn observer_done(started: Instant) {
    OBSERVER_NS.with(|c| c.set(c.get().saturating_add(elapsed_ns(started))));
}

/// Clears this thread's accumulators and the global allocation counters.
/// Call before the region to profile.
pub fn reset() {
    POP_NS.with(|c| c.set(0));
    DISPATCH_NS.with(|c| c.set(0));
    TRACE_NS.with(|c| c.set(0));
    OBSERVER_NS.with(|c| c.set(0));
    EVENTS.with(|c| c.set(0));
    TRACE_RECORDS.with(|c| c.set(0));
    QUEUE_DEPTH_LAST.with(|c| c.set(0));
    QUEUE_DEPTH_MAX.with(|c| c.set(0));
    QUEUE_PUSHED.with(|c| c.set(0));
    QUEUE_POPPED.with(|c| c.set(0));
    ALLOCATIONS.store(0, Ordering::Relaxed);
    DEALLOCATIONS.store(0, Ordering::Relaxed);
    ALLOC_BYTES.store(0, Ordering::Relaxed);
}

/// A point-in-time host profile of this thread (plus the process-wide
/// allocation counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostProfReport {
    /// Wall time inside `EventQueue::pop_if_before`, in nanoseconds.
    pub pop_ns: u64,
    /// Wall time inside actor dispatch (handler + outbox drain).
    pub dispatch_ns: u64,
    /// Wall time emitting trace records (includes `observer_ns`).
    pub trace_ns: u64,
    /// Wall time inside observer `on_record` callbacks.
    pub observer_ns: u64,
    /// Events dispatched since [`reset`].
    pub events: u64,
    /// Trace records emitted since [`reset`].
    pub trace_records: u64,
    /// Queue depth after the most recent pop.
    pub queue_depth_last: u64,
    /// Maximum queue depth observed at a pop.
    pub queue_depth_max: u64,
    /// The queue's lifetime push total at the most recent pop.
    pub queue_pushed: u64,
    /// The queue's lifetime pop total at the most recent pop.
    pub queue_popped: u64,
    /// Heap allocations counted by [`CountingAlloc`] (0 if not installed).
    pub allocations: u64,
    /// Heap deallocations counted by [`CountingAlloc`].
    pub deallocations: u64,
    /// Bytes allocated, counted by [`CountingAlloc`].
    pub alloc_bytes: u64,
}

/// Snapshots the accumulators into a report.
pub fn report() -> HostProfReport {
    HostProfReport {
        pop_ns: POP_NS.with(Cell::get),
        dispatch_ns: DISPATCH_NS.with(Cell::get),
        trace_ns: TRACE_NS.with(Cell::get),
        observer_ns: OBSERVER_NS.with(Cell::get),
        events: EVENTS.with(Cell::get),
        trace_records: TRACE_RECORDS.with(Cell::get),
        queue_depth_last: QUEUE_DEPTH_LAST.with(Cell::get),
        queue_depth_max: QUEUE_DEPTH_MAX.with(Cell::get),
        queue_pushed: QUEUE_PUSHED.with(Cell::get),
        queue_popped: QUEUE_POPPED.with(Cell::get),
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
        deallocations: DEALLOCATIONS.load(Ordering::Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

impl HostProfReport {
    /// Renders the report as `sesame-hostprof/v1` JSON (one trailing
    /// newline). All fields are integers, so the format is trivially
    /// deterministic for fixed counter values.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"schema\":\"{}\",",
                "\"pop_ns\":{},\"dispatch_ns\":{},\"trace_ns\":{},\"observer_ns\":{},",
                "\"events\":{},\"trace_records\":{},",
                "\"queue_depth_last\":{},\"queue_depth_max\":{},",
                "\"queue_pushed\":{},\"queue_popped\":{},",
                "\"allocations\":{},\"deallocations\":{},\"alloc_bytes\":{}}}\n"
            ),
            HOSTPROF_SCHEMA,
            self.pop_ns,
            self.dispatch_ns,
            self.trace_ns,
            self.observer_ns,
            self.events,
            self.trace_records,
            self.queue_depth_last,
            self.queue_depth_max,
            self.queue_pushed,
            self.queue_popped,
            self.allocations,
            self.deallocations,
            self.alloc_bytes,
        )
    }
}

/// A counting wrapper around the system allocator. Install in a binary with
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: sesame_sim::hostprof::CountingAlloc = sesame_sim::hostprof::CountingAlloc;
/// ```
///
/// to populate the allocation rows of [`HostProfReport`]; the counters are
/// relaxed atomics, so the overhead per allocation is one fetch-add.
pub struct CountingAlloc;

#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwards the caller's contract to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's contract to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Actor, Context, SimDur, SimTime, Simulation, TraceDetail, TraceKind};

    struct Chatty;
    impl Actor for Chatty {
        type Msg = u32;
        fn handle(&mut self, n: u32, ctx: &mut Context<'_, u32>) {
            ctx.trace_for(0, TraceKind::AccRead, TraceDetail::Var { var: 0 });
            if n > 0 {
                ctx.send(SimDur::from_nanos(5), n - 1);
            }
        }
    }

    #[test]
    fn phases_accumulate_and_reset_clears() {
        reset();
        let mut sim = Simulation::new(Chatty);
        sim.set_tracing(true);
        sim.schedule(SimTime::ZERO, 49);
        // A far-future sentinel keeps the queue non-empty after each pop,
        // so the depth gauge (measured post-pop) registers.
        sim.schedule(SimTime::from_nanos(1_000_000), 0);
        sim.run_to_completion();
        let r = report();
        assert_eq!(r.events, 51);
        assert_eq!(r.trace_records, 51);
        assert!(r.trace_ns >= r.observer_ns);
        assert_eq!(r.queue_popped, 51);
        assert_eq!(r.queue_pushed, 51);
        assert!(r.queue_depth_max >= 1);
        assert_eq!(r.queue_depth_last, 0);
        reset();
        let cleared = report();
        assert_eq!(cleared.events, 0);
        assert_eq!(cleared.pop_ns, 0);
    }

    #[test]
    fn json_is_tagged_and_integer_only() {
        reset();
        let text = report().to_json();
        assert!(text.starts_with("{\"schema\":\"sesame-hostprof/v1\""));
        assert!(text.ends_with("}\n"));
        assert!(text.contains("\"dispatch_ns\":0"));
        assert!(text.contains("\"allocations\":0"));
    }
}

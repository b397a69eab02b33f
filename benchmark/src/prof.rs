//! The one door to the simulator's host profiler.
//!
//! With the `traced` feature the benchmark reads `sesame_sim::hostprof`
//! (`reset` / `report`) and installs its counting allocator; without it
//! every field reads 0 and the program under test contains no profiling
//! code at all.

/// The profiler fields the ledger reads, accumulated over run calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Prof {
    pub pop_ns: u64,
    pub dispatch_ns: u64,
    pub trace_ns: u64,
    pub observer_ns: u64,
    pub events: u64,
    pub trace_records: u64,
    pub queue_depth_max: u64,
    pub queue_pushed: u64,
    pub allocations: u64,
    pub alloc_bytes: u64,
}

impl Prof {
    /// Folds `other` in: times and counts add, the depth gauge keeps its
    /// maximum, and `queue_pushed` (a per-queue lifetime total) keeps the
    /// latest run's value.
    pub fn absorb(&mut self, other: Prof) {
        self.pop_ns += other.pop_ns;
        self.dispatch_ns += other.dispatch_ns;
        self.trace_ns += other.trace_ns;
        self.observer_ns += other.observer_ns;
        self.events += other.events;
        self.trace_records += other.trace_records;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.queue_pushed = other.queue_pushed;
        self.allocations += other.allocations;
        self.alloc_bytes += other.alloc_bytes;
    }
}

/// Whether this binary is the traced build.
pub const TRACED: bool = cfg!(feature = "traced");

#[cfg(feature = "traced")]
#[global_allocator]
static ALLOC: sesame_sim::hostprof::CountingAlloc = sesame_sim::hostprof::CountingAlloc;

/// Clears the profiler before a run call.
pub fn reset() {
    #[cfg(feature = "traced")]
    sesame_sim::hostprof::reset();
}

/// Reads the profiler after a run call.
pub fn report() -> Prof {
    #[cfg(feature = "traced")]
    {
        let r = sesame_sim::hostprof::report();
        Prof {
            pop_ns: r.pop_ns,
            dispatch_ns: r.dispatch_ns,
            trace_ns: r.trace_ns,
            observer_ns: r.observer_ns,
            events: r.events,
            trace_records: r.trace_records,
            queue_depth_max: r.queue_depth_max,
            queue_pushed: r.queue_pushed,
            allocations: r.allocations,
            alloc_bytes: r.alloc_bytes,
        }
    }
    #[cfg(not(feature = "traced"))]
    Prof::default()
}

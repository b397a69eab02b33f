//! Phase-scoped kernel profile bench: where does the simulator's wall
//! time go (queue pops, actor dispatch, trace recording, the telemetry
//! observer) while running the contention scenario with full tracing?
//!
//! Emits one `--bench-out` row per phase (group `hostprof`), so the
//! `sesame bench diff` gate can catch a single phase regressing even
//! when the end-to-end bench medians stay inside their thresholds.
//!
//! The same group also carries the allocation trajectory of the run:
//! `contention/alloc_bytes` and `contention/alloc_count` record the
//! scenario's cumulative heap traffic (counted by the sim kernel's
//! [`sesame_sim::hostprof::CountingAlloc`], installed as this binary's
//! global allocator). The value rides in `median_ns` — the diff gate
//! compares medians dimensionlessly, so a 1.5x threshold on the group
//! catches allocation regressions exactly like time regressions.
//!
//! Requires the sim kernel's `hostprof` feature:
//! `cargo bench --features hostprof --bench hostprof`. Without it the
//! binary prints a notice and exits cleanly so plain `cargo bench` runs
//! stay green.

fn main() {
    #[cfg(not(feature = "hostprof"))]
    println!(
        "hostprof: skipped (phase timers are compiled out; \
         rerun with `cargo bench --features hostprof --bench hostprof`)"
    );
    #[cfg(feature = "hostprof")]
    with_profiler::run();
}

#[cfg(feature = "hostprof")]
mod with_profiler {
    use sesame_bench::{append_record, BenchRecord};
    use sesame_sim::hostprof;
    use sesame_telemetry::Telemetry;
    use sesame_workloads::scenario::Scenario;
    use sesame_workloads::telemetry::observe;
    use std::path::PathBuf;

    // Count this binary's heap traffic so the alloc_* rows are real.
    #[global_allocator]
    static ALLOC: hostprof::CountingAlloc = hostprof::CountingAlloc;

    const SAMPLES: u32 = 10;
    const PHASES: [&str; 4] = ["pop", "dispatch", "trace", "observer"];
    const ALLOC_METRICS: [&str; 2] = ["alloc_bytes", "alloc_count"];

    fn phase_ns(r: &hostprof::HostProfReport, phase: &str) -> u64 {
        match phase {
            "pop" => r.pop_ns,
            "dispatch" => r.dispatch_ns,
            "trace" => r.trace_ns,
            "observer" => r.observer_ns,
            _ => unreachable!("unknown phase {phase}"),
        }
    }

    pub fn run() {
        let args: Vec<String> = std::env::args().collect();
        let out: Option<PathBuf> = args
            .iter()
            .position(|a| a == "--bench-out")
            .map(|i| PathBuf::from(args.get(i + 1).expect("--bench-out needs a path")));

        // What `sesame run --scenario contention` runs: 4 x 25, seed 7.
        let scenario = Scenario::parse("contention").expect("a listed name");
        let profile = || {
            hostprof::reset();
            let _ = observe(&scenario, Telemetry::new("contention", 7)).expect("a clean run");
            hostprof::report()
        };
        // Warmup pass: pre-faults allocator arenas and caches, and pins
        // the (deterministic) event count all samples share.
        let events = profile().events;
        let samples: Vec<hostprof::HostProfReport> = (0..SAMPLES).map(|_| profile()).collect();

        for phase in PHASES {
            let mut times: Vec<u64> = samples.iter().map(|r| phase_ns(r, phase)).collect();
            times.sort_unstable();
            let median_ns = times[times.len() / 2];
            let record = BenchRecord {
                group: "hostprof".to_string(),
                case: format!("contention/{phase}"),
                samples: SAMPLES,
                median_ns,
                min_ns: times[0],
                max_ns: times[times.len() - 1],
                events: Some(events),
                events_per_sec: (median_ns > 0).then(|| events as f64 / (median_ns as f64 / 1e9)),
            };
            println!(
                "hostprof/{}: {}ns median (min {}ns .. max {}ns, n={SAMPLES}) | {events} events",
                record.case, record.median_ns, record.min_ns, record.max_ns
            );
            if let Some(path) = &out {
                append_record(path, &record);
            }
        }

        // Allocation trajectory: the scenario's cumulative heap traffic,
        // medianed across the same samples as the phase timers. These are
        // counts, not times — `events_per_sec` stays unset so the diff
        // gate only compares the medians.
        for metric in ALLOC_METRICS {
            let mut values: Vec<u64> = samples
                .iter()
                .map(|r| match metric {
                    "alloc_bytes" => r.alloc_bytes,
                    "alloc_count" => r.allocations,
                    _ => unreachable!("unknown alloc metric {metric}"),
                })
                .collect();
            values.sort_unstable();
            let record = BenchRecord {
                group: "hostprof".to_string(),
                case: format!("contention/{metric}"),
                samples: SAMPLES,
                median_ns: values[values.len() / 2],
                min_ns: values[0],
                max_ns: values[values.len() - 1],
                events: Some(events),
                events_per_sec: None,
            };
            println!(
                "hostprof/{}: {} median (min {} .. max {}, n={SAMPLES}) | {events} events",
                record.case, record.median_ns, record.min_ns, record.max_ns
            );
            if let Some(path) = &out {
                append_record(path, &record);
            }
        }
    }
}

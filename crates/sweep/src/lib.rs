//! # sesame-sweep — deterministic parallel execution of experiment sweeps
//!
//! The figures of *Hermannsson & Wittie, "Optimistic Synchronization in
//! Distributed Shared Memory" (ICDCS 1994)* are produced by sweeping a
//! scenario over system sizes and configurations. Every sweep point is an
//! **independent, deterministic simulation**: it shares no state with the
//! other points and produces the same result every run. That makes the
//! sweep embarrassingly parallel — and this crate is the one place in the
//! workspace that exploits it.
//!
//! [`run_sweep`] executes `points` closures on a few scoped worker threads
//! ([`std::thread::scope`]; no external dependencies, no unsafe code) and
//! reassembles the results **in point-index order**. Because
//! each point is deterministic and the output order is fixed by index —
//! never by completion order — a sweep run with `--jobs 8` is
//! byte-identical to the same sweep run serially. Parallelism changes
//! wall-clock time and nothing else.
//!
//! ```
//! let squares = sesame_sweep::run_sweep(8, 4, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```
//!
//! ## Scheduling
//!
//! The workers share one atomic next-point cursor: a worker that finishes
//! a point takes the lowest index nobody has taken yet. No worker idles
//! while a point is untaken, so the only imbalance is the tail, when the
//! last points run and the other workers are done.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The parallelism the host offers (`std::thread::available_parallelism`),
/// or 1 if it cannot be determined. This is what a `--jobs 0` request
/// resolves to.
fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a user-facing `--jobs` value: `0` means "use every available
/// core"; anything else is taken literally.
fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        available_jobs()
    } else {
        jobs
    }
}

/// Runs `f(0)`, `f(1)`, …, `f(points - 1)` on up to `jobs` worker threads
/// and returns the results **ordered by point index** — exactly the vector
/// the serial loop `(0..points).map(f).collect()` produces.
///
/// `jobs == 0` uses every core the host offers; `jobs <= 1` (or a sweep of
/// one point) runs inline on the caller's thread with no pool at all, so
/// the serial path stays allocation- and synchronization-free. Worker
/// threads are scoped: they are joined before `run_sweep` returns, and a
/// panic in any point propagates to the caller.
///
/// Determinism contract: if each `f(i)` depends only on `i` (true of every
/// simulation sweep in this workspace — the simulator is single-threaded
/// and seeded per point), the returned vector is identical for every
/// `jobs` value.
pub fn run_sweep<T, F>(points: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = resolve_jobs(jobs).min(points);
    if jobs <= 1 {
        return (0..points).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(points));

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= points {
                    return;
                }
                let out = f(idx);
                results.lock().unwrap().push((idx, out));
            });
        }
    });

    let mut collected = results.into_inner().unwrap();
    debug_assert_eq!(collected.len(), points);
    // Completion order is nondeterministic; index order is the contract.
    collected.sort_unstable_by_key(|&(idx, _)| idx);
    collected.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_results_are_identical() {
        let serial: Vec<usize> = (0..37).map(|i| i * i + 1).collect();
        for jobs in [0, 1, 2, 3, 4, 8, 64] {
            assert_eq!(run_sweep(37, jobs, |i| i * i + 1), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn every_point_runs_exactly_once() {
        let calls: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let out = run_sweep(100, 4, |i| {
            calls[i].fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert!(calls.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn uneven_point_costs_still_return_index_order() {
        // Every fourth point is vastly more expensive than the rest, so
        // points complete far out of index order; the results must come
        // back in index order regardless.
        let out = run_sweep(16, 4, |i| {
            if i % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            i * 3
        });
        assert_eq!(out, (0..16).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn more_jobs_than_points_is_fine() {
        assert_eq!(run_sweep(3, 100, |i| i), vec![0, 1, 2]);
        assert_eq!(run_sweep(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_sweep(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn zero_jobs_resolves_to_the_host_parallelism() {
        assert!(available_jobs() >= 1);
        assert_eq!(resolve_jobs(0), available_jobs());
        assert_eq!(resolve_jobs(5), 5);
    }

    #[test]
    fn panics_in_a_point_propagate() {
        let result = std::panic::catch_unwind(|| {
            run_sweep(8, 2, |i| {
                if i == 5 {
                    panic!("point 5 exploded");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}

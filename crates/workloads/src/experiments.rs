//! Experiment drivers that regenerate every figure of the paper.
//!
//! Each `figure*` function sweeps the paper's parameter range and returns
//! labelled [`Series`] ready for printing; `sesame fig1|fig2|fig8` call
//! these and print the tables recorded in EXPERIMENTS.md.
//!
//! Every sweep point is an independent, deterministic simulation, so the
//! sweeps run points concurrently through [`sesame_sweep::run_sweep`] and
//! reassemble the series in point-index order: the output is
//! byte-identical for every `jobs` value, only wall-clock time changes.

use sesame_core::builder::ModelChoice;
use sesame_net::LinkTiming;
use sesame_sim::Series;

use crate::pipeline::{run_pipeline, MutexMethod, Optimism, PipelineConfig};
use crate::task_queue::{run_task_queue, TaskQueueConfig};
use crate::three_cpu::{run_figure1_all, Figure1Config, Figure1Run};

/// The network sizes of Figure 2: powers of two plus one, "to eliminate
/// load balancing effects" (one producer + 2^k consumers).
pub fn figure2_sizes() -> Vec<usize> {
    vec![3, 5, 9, 17, 33, 65, 129]
}

/// The network sizes of Figure 8: 2 to 128 processors.
pub fn figure8_sizes() -> Vec<usize> {
    vec![2, 4, 8, 16, 32, 64, 128]
}

/// The three series of Figure 2.
#[derive(Debug, Clone)]
pub struct Figure2Data {
    /// Maximum speedup with zero network delays (the top line).
    pub ideal: Series,
    /// Sesame GWC with eagersharing.
    pub gwc: Series,
    /// Entry consistency.
    pub entry: Series,
}

/// Runs the Figure 2 sweep over `sizes` on up to `jobs` worker threads
/// (`0` = all cores). Each `(size, series)` pair is one sweep point, so a
/// seven-size sweep exposes 21 independent simulations to the pool. The
/// returned data is identical for every `jobs` value.
pub fn figure2_jobs(cfg: TaskQueueConfig, sizes: &[usize], jobs: usize) -> Figure2Data {
    let speedups = sesame_sweep::run_sweep(sizes.len() * 3, jobs, |i| {
        let n = sizes[i / 3];
        match i % 3 {
            0 => {
                let zero_cfg = TaskQueueConfig {
                    timing: LinkTiming::zero_delay(),
                    ..cfg
                };
                run_task_queue(n, ModelChoice::Gwc, zero_cfg).speedup
            }
            1 => run_task_queue(n, ModelChoice::Gwc, cfg).speedup,
            _ => run_task_queue(n, ModelChoice::Entry, cfg).speedup,
        }
    });
    let mut ideal = Series::new("ideal (zero network delay)");
    let mut gwc = Series::new("Sesame GWC eagersharing");
    let mut entry = Series::new("entry consistency");
    for (i, &n) in sizes.iter().enumerate() {
        ideal.push(n as f64, speedups[i * 3]);
        gwc.push(n as f64, speedups[i * 3 + 1]);
        entry.push(n as f64, speedups[i * 3 + 2]);
    }
    Figure2Data { ideal, gwc, entry }
}

/// The four series of Figure 8.
#[derive(Debug, Clone)]
pub struct Figure8Data {
    /// The zero-delay bound (≈ 1.89).
    pub ideal: Series,
    /// Optimistic mutual exclusion under GWC.
    pub optimistic: Series,
    /// Non-optimistic GWC queue locks.
    pub regular: Series,
    /// Entry consistency.
    pub entry: Series,
}

impl Figure8Data {
    /// The paper's §4.1 headline ratios, measured at the leftmost network
    /// size: optimistic over non-optimistic GWC, and optimistic / regular
    /// over entry consistency.
    pub fn headline_ratios(&self) -> HeadlineRatios {
        let x = self.optimistic.points[0].x;
        let opt = self.optimistic.y_at(x).unwrap_or(f64::NAN);
        let reg = self.regular.y_at(x).unwrap_or(f64::NAN);
        let ent = self.entry.y_at(x).unwrap_or(f64::NAN);
        HeadlineRatios {
            nodes: x as usize,
            optimistic_over_regular: opt / reg,
            optimistic_over_entry: opt / ent,
            regular_over_entry: reg / ent,
        }
    }
}

/// The §4.1 speedup ratios (paper: ≈1.1, ≈2.1, and ≈1.9 respectively at 2
/// CPUs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadlineRatios {
    /// Network size the ratios are taken at.
    pub nodes: usize,
    /// Optimistic over non-optimistic GWC.
    pub optimistic_over_regular: f64,
    /// Optimistic GWC over entry consistency.
    pub optimistic_over_entry: f64,
    /// Non-optimistic GWC over entry consistency.
    pub regular_over_entry: f64,
}

/// Runs the Figure 8 sweep over `sizes` on up to `jobs` worker threads
/// (`0` = all cores). Each `(size, series)` pair is one sweep point — 28
/// independent simulations for the paper's seven sizes. The returned data
/// is identical for every `jobs` value.
pub fn figure8_jobs(cfg: PipelineConfig, sizes: &[usize], jobs: usize) -> Figure8Data {
    figure8_with_optimism(cfg, sizes, jobs).0
}

/// [`figure8_jobs`] with the optimistic line's counters, one per network
/// size in `sizes` order, read off the same runs: what `sesame fig8`
/// prints under the network power table.
pub fn figure8_with_optimism(
    cfg: PipelineConfig,
    sizes: &[usize],
    jobs: usize,
) -> (Figure8Data, Vec<Optimism>) {
    let runs = sesame_sweep::run_sweep(sizes.len() * 4, jobs, |i| {
        let n = sizes[i / 4];
        match i % 4 {
            0 => {
                let zero_cfg = PipelineConfig {
                    timing: LinkTiming::zero_delay(),
                    ..cfg
                };
                (
                    run_pipeline(n, MutexMethod::RegularGwc, zero_cfg).power,
                    None,
                )
            }
            1 => {
                let run = run_pipeline(n, MutexMethod::OptimisticGwc, cfg);
                (run.power, Some(run.optimism))
            }
            2 => (run_pipeline(n, MutexMethod::RegularGwc, cfg).power, None),
            _ => (run_pipeline(n, MutexMethod::Entry, cfg).power, None),
        }
    });
    let mut ideal = Series::new("no network delay bound");
    let mut optimistic = Series::new("optimistic GWC");
    let mut regular = Series::new("non-optimistic GWC");
    let mut entry = Series::new("entry consistency");
    for (i, &n) in sizes.iter().enumerate() {
        ideal.push(n as f64, runs[i * 4].0);
        optimistic.push(n as f64, runs[i * 4 + 1].0);
        regular.push(n as f64, runs[i * 4 + 2].0);
        entry.push(n as f64, runs[i * 4 + 3].0);
    }
    let data = Figure8Data {
        ideal,
        optimistic,
        regular,
        entry,
    };
    (data, runs.into_iter().filter_map(|r| r.1).collect())
}

/// Runs the Figure 1 scenario under all models and renders the comparison
/// table (completion and per-CPU lock waits).
pub fn figure1(cfg: Figure1Config) -> (Vec<Figure1Run>, String) {
    let runs = run_figure1_all(cfg);
    let mut table =
        String::from("model      completion   wait(cpu0)   wait(cpu2)   wait(cpu1=root)\n");
    for r in &runs {
        table.push_str(&format!(
            "{:<10} {:>12} {:>12} {:>12} {:>12}\n",
            r.model,
            r.completion.to_string(),
            r.lock_waits[0].to_string(),
            r.lock_waits[1].to_string(),
            r.lock_waits[2].to_string(),
        ));
    }
    (runs, table)
}

/// Renders a figure's series as an aligned text table, one block per line.
pub fn render_series(series: &[&Series]) -> String {
    let mut out = String::new();
    for s in series {
        out.push_str(&s.to_table());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sweep_sizes_are_as_published() {
        assert_eq!(figure2_sizes(), vec![3, 5, 9, 17, 33, 65, 129]);
        assert!(figure2_sizes().iter().all(|&n| (n - 1).is_power_of_two()));
        assert_eq!(figure8_sizes(), vec![2, 4, 8, 16, 32, 64, 128]);
        assert!(figure8_sizes().iter().all(|&n| n.is_power_of_two()));
    }

    #[test]
    fn headline_ratios_divide_the_leftmost_points() {
        let mut d = Figure8Data {
            ideal: Series::new("ideal"),
            optimistic: Series::new("opt"),
            regular: Series::new("reg"),
            entry: Series::new("ent"),
        };
        d.optimistic.push(2.0, 1.68);
        d.regular.push(2.0, 1.53);
        d.entry.push(2.0, 0.81);
        let r = d.headline_ratios();
        assert_eq!(r.nodes, 2);
        assert!((r.optimistic_over_regular - 1.68 / 1.53).abs() < 1e-12);
        assert!((r.optimistic_over_entry - 1.68 / 0.81).abs() < 1e-12);
        assert!((r.regular_over_entry - 1.53 / 0.81).abs() < 1e-12);
    }

    #[test]
    fn figure8_optimism_is_rollback_free_with_full_hit_rate() {
        let cfg = PipelineConfig {
            total_visits: 32,
            ..PipelineConfig::default()
        };
        let points = figure8_with_optimism(cfg, &[2, 4], 1).1;
        assert_eq!(points.len(), 2);
        for p in points {
            // The pipeline is contention-free: every attempt wins.
            assert!(p.attempts > 0, "{p:?}");
            assert_eq!(p.rollbacks, 0, "{p:?}");
            assert_eq!(p.wins, p.attempts, "{p:?}");
            assert!((p.hit_rate() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_figure8_sweep_is_byte_identical_to_serial() {
        let cfg = PipelineConfig {
            total_visits: 32,
            ..PipelineConfig::default()
        };
        let sizes = [2, 4, 8];
        let serial = figure8_jobs(cfg, &sizes, 1);
        for jobs in [2, 4, 0] {
            let par = figure8_jobs(cfg, &sizes, jobs);
            assert_eq!(serial.ideal, par.ideal, "jobs={jobs}");
            assert_eq!(serial.optimistic, par.optimistic, "jobs={jobs}");
            assert_eq!(serial.regular, par.regular, "jobs={jobs}");
            assert_eq!(serial.entry, par.entry, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_figure2_and_optimism_sweeps_match_serial() {
        let tq = TaskQueueConfig {
            total_tasks: 24,
            ..TaskQueueConfig::default()
        };
        let sizes = [3, 5];
        let serial = figure2_jobs(tq, &sizes, 1);
        let par = figure2_jobs(tq, &sizes, 3);
        assert_eq!(serial.ideal, par.ideal);
        assert_eq!(serial.gwc, par.gwc);
        assert_eq!(serial.entry, par.entry);

        let pipe = PipelineConfig {
            total_visits: 32,
            ..PipelineConfig::default()
        };
        assert_eq!(
            figure8_with_optimism(pipe, &[2, 4], 1).1,
            figure8_with_optimism(pipe, &[2, 4], 2).1
        );
    }

    #[test]
    fn render_series_concatenates_tables() {
        let mut a = Series::new("first");
        a.push(1.0, 2.0);
        let mut b = Series::new("second");
        b.push(3.0, 4.0);
        let out = render_series(&[&a, &b]);
        assert!(out.contains("# first"));
        assert!(out.contains("# second"));
        let first_pos = out.find("# first").unwrap();
        let second_pos = out.find("# second").unwrap();
        assert!(first_pos < second_pos);
    }
}

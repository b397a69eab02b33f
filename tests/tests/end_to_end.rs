//! End-to-end scenarios spanning every crate: the figure reproductions at
//! reduced scale, with the paper's qualitative claims asserted.

use sesame_consistency::analysis::Figure1Params;
use sesame_core::builder::{ModelChoice, SystemBuilder};
use sesame_core::OptimisticConfig;
use sesame_dsm::{run, AppEvent, NodeApi, Program, RunOptions, VarId};
use sesame_net::NodeId;
use sesame_sim::SimDur;
use sesame_workloads::contention::ContentionConfig;
use sesame_workloads::experiments::{figure1, figure2_jobs, figure8_jobs};
use sesame_workloads::pipeline::PipelineConfig;
use sesame_workloads::scenario::{Outcome, Scenario};
use sesame_workloads::task_queue::{run_task_queue, TaskQueueConfig};
use sesame_workloads::three_cpu::Figure1Config;

#[test]
fn figure1_reproduces_the_papers_ordering_and_closed_forms() {
    let cfg = Figure1Config::default();
    let (runs, table) = figure1(cfg);
    assert_eq!(runs.len(), 3);
    let gwc = &runs[0];
    let entry = &runs[1];
    let release = &runs[2];
    assert_eq!(gwc.model, "gwc");
    assert!(gwc.completion < entry.completion, "{table}");
    assert!(gwc.completion < release.completion, "{table}");
    // Simulation equals analysis exactly for all three models.
    let pred = Figure1Params {
        hops: 1,
        timing: sesame_workloads::three_cpu::TIMING,
        section: cfg.section,
        guarded_bytes: cfg.data_words * 16,
    }
    .predict();
    assert_eq!(gwc.completion, pred.gwc);
    assert_eq!(entry.completion, pred.entry);
    assert_eq!(release.completion, pred.release);
    assert!(table.contains("gwc"), "rendered table lists the models");
}

#[test]
fn figure2_mini_sweep_preserves_the_papers_shape() {
    let cfg = TaskQueueConfig {
        total_tasks: 96,
        exec_time: SimDur::from_us(400),
        ..TaskQueueConfig::default()
    };
    let data = figure2_jobs(cfg, &[3, 5, 9], 1);
    for (i, &n) in [3.0f64, 5.0, 9.0].iter().enumerate() {
        let ideal = data.ideal.points[i].y;
        let gwc = data.gwc.points[i].y;
        let entry = data.entry.points[i].y;
        assert!(
            ideal >= gwc && gwc > entry,
            "at {n} CPUs: ideal {ideal}, gwc {gwc}, entry {entry}"
        );
        // Speedup grows with network size in this range.
        assert!(gwc > n - 2.0, "gwc {gwc} too low at {n} CPUs");
    }
}

#[test]
fn figure2_peaks_where_the_fine_grid_puts_them() {
    // Between the paper's sizes (2^k + 1) each curve peaks and then drops
    // off a cliff: on every odd size from 3 to 135 at 1 024 tasks, GWC
    // peaks at 119 CPUs and entry consistency at 41 (EXPERIMENTS.md,
    // "Figure 2 on a fine grid"). A slice around each cliff pins it.
    let cfg = TaskQueueConfig::default();
    assert_eq!(cfg.total_tasks, 1_024);
    for (model, sizes, peak) in [
        (ModelChoice::Gwc, [117, 119, 121], 119), // 100.9, 102.1, 98.8
        (ModelChoice::Entry, [39, 41, 43], 41),   // 26.7, 30.4, 17.0
    ] {
        let speedups = sizes.map(|n| run_task_queue(n, model, cfg).speedup);
        let best = (0..3).max_by(|&a, &b| speedups[a].total_cmp(&speedups[b]));
        assert_eq!(
            best.map(|i| sizes[i]),
            Some(peak),
            "{model:?} over {sizes:?}: {speedups:?}"
        );
    }
}

#[test]
fn figure8_mini_sweep_preserves_the_papers_shape() {
    let cfg = PipelineConfig {
        total_visits: 128,
        ..PipelineConfig::default()
    };
    let data = figure8_jobs(cfg, &[2, 8], 1);
    // The bound sits at 17/9 for every size.
    for p in &data.ideal.points {
        assert!((p.y - cfg.ideal_power()).abs() < 0.02, "bound {p:?}");
    }
    // Ordering: optimistic > regular > entry at both sizes; all below the
    // bound.
    for i in 0..2 {
        let (o, r, e) = (
            data.optimistic.points[i].y,
            data.regular.points[i].y,
            data.entry.points[i].y,
        );
        assert!(o > r && r > e, "ordering broke: {o} {r} {e}");
        assert!(o <= cfg.ideal_power());
    }
    // Decline with network size for the GWC methods.
    assert!(data.optimistic.points[0].y > data.optimistic.points[1].y);
    assert!(data.regular.points[0].y > data.regular.points[1].y);
    // Headline ratios in the paper's ballpark at 2 CPUs.
    let ratios = data.headline_ratios();
    assert!(
        (1.0..=1.3).contains(&ratios.optimistic_over_regular),
        "opt/reg {ratios:?}"
    );
    assert!(
        (1.6..=2.6).contains(&ratios.optimistic_over_entry),
        "opt/entry {ratios:?}"
    );
}

/// The contention ablation (EXPERIMENTS.md, `sesame contention`'s sizes):
/// optimism hides the lock round trip while the lock is usually free, and
/// the usage history takes it off the table before it can cost anything.
#[test]
fn optimistic_locking_wins_when_idle_and_never_loses_under_contention() {
    let latency = |think_us, optimistic| {
        let cfg = ContentionConfig {
            contenders: 6,
            rounds: 50,
            mean_think: SimDur::from_us(think_us),
            mutex: OptimisticConfig {
                optimistic,
                ..OptimisticConfig::default()
            },
            ..ContentionConfig::default()
        };
        match Scenario::Contention(cfg).run(None).unwrap() {
            Outcome::Contention(run) => run.mean_section_latency,
            other => unreachable!("a contention scenario ended as {other:?}"),
        }
    };
    // Regular over optimistic mean section latency: 1.401 / 1.256 / 1.001.
    for (think_us, at_least) in [(500, 1.35), (50, 0.99), (5, 0.99)] {
        let ratio = latency(think_us, false) / latency(think_us, true);
        assert!(
            ratio >= at_least,
            "at {think_us} us think time regular/optimistic is {ratio:.3}, want >= {at_least}"
        );
    }
}

/// The same counter-increment program runs under every memory model and
/// produces the same final value — the machine's model seam works.
#[test]
fn one_program_runs_under_every_model() {
    const LOCK: VarId = VarId::new(0);
    const COUNTER: VarId = VarId::new(1);

    struct Incr {
        rounds: u32,
    }
    impl Program for Incr {
        fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
            match ev {
                AppEvent::Started => api.acquire(LOCK),
                AppEvent::Acquired { .. } => api.fetch(COUNTER),
                AppEvent::ValueReady { value, .. } => {
                    api.write(COUNTER, value + 1);
                    api.release(LOCK);
                }
                AppEvent::Released { .. } => {
                    self.rounds -= 1;
                    if self.rounds > 0 {
                        api.acquire(LOCK);
                    }
                }
                _ => {}
            }
        }
    }

    for model in [ModelChoice::Gwc, ModelChoice::Entry, ModelChoice::Release] {
        let mut builder =
            SystemBuilder::new(4)
                .model(model)
                .mutex_group(NodeId::new(0), vec![COUNTER], LOCK);
        for i in 0..4 {
            builder.program(NodeId::new(i), Box::new(Incr { rounds: 5 }));
        }
        let machine = builder.build().unwrap();
        let result = run(machine, RunOptions::default());
        // The authoritative copy shows all 20 increments. Under entry
        // consistency only the final token owner is guaranteed current, so
        // check the maximum across nodes.
        let max = (0..4)
            .map(|i| result.machine.mem(NodeId::new(i)).read(COUNTER))
            .max()
            .unwrap();
        assert_eq!(max, 20, "under {model:?}");
    }
}

/// Workspace-wide determinism: every figure driver produces bit-identical
/// results across runs.
#[test]
fn figure_drivers_are_deterministic() {
    let f1 = || {
        let (runs, _) = figure1(Figure1Config::default());
        runs.iter().map(|r| r.completion).collect::<Vec<_>>()
    };
    assert_eq!(f1(), f1());

    let cfg2 = TaskQueueConfig {
        total_tasks: 48,
        ..TaskQueueConfig::default()
    };
    let f2 = || {
        let d = figure2_jobs(cfg2, &[5], 1);
        (d.ideal.points[0].y, d.gwc.points[0].y, d.entry.points[0].y)
    };
    assert_eq!(f2(), f2());

    let cfg8 = PipelineConfig {
        total_visits: 32,
        ..PipelineConfig::default()
    };
    let f8 = || {
        let d = figure8_jobs(cfg8, &[4], 1);
        (
            d.ideal.points[0].y,
            d.optimistic.points[0].y,
            d.regular.points[0].y,
            d.entry.points[0].y,
        )
    };
    assert_eq!(f8(), f8());
}

/// Full-scale Figure 2 sanity at 129 nodes: one GWC point, a few seconds
/// in a debug build.
#[test]
fn full_scale_task_management_conserves_tasks() {
    use sesame_workloads::task_queue::run_task_queue;
    let cfg = TaskQueueConfig::default();
    let r = run_task_queue(129, ModelChoice::Gwc, cfg);
    assert_eq!(r.executed.iter().sum::<u32>(), cfg.total_tasks);
    assert!(r.speedup > 60.0, "speedup {}", r.speedup);
}

/// The test profile is optimised (`[profile.dev]` in the workspace
/// `Cargo.toml`), but its checks stay on: debug assertions, and integer
/// overflow panics instead of wrapping.
#[test]
#[allow(clippy::assertions_on_constants)] // the profile's setting is the subject
fn the_test_profile_keeps_debug_assertions_and_overflow_checks() {
    assert!(cfg!(debug_assertions), "tests run without debug assertions");
    let overflowed =
        std::panic::catch_unwind(|| std::hint::black_box(u64::MAX) + std::hint::black_box(1));
    assert!(overflowed.is_err(), "an overflowing add wrapped silently");
}

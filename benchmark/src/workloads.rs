//! The six workloads. Each drives the library crates through their public
//! entry points only, checks every output it gets back, and writes one
//! sample into a [`Rec`].
//!
//! Load shape: closed loop, one process, one thread — `paper_figs_par`
//! alone runs its sweep on `min(nproc, 4)` workers. `--seed` feeds think
//! times, the loss stream and the probe endpoints; the library receives
//! only the generated configs.

use std::cell::RefCell;
use std::rc::Rc;

use sesame_check::{check, CheckOptions, LinkMode};
use sesame_core::builder::{ModelChoice, ModelInstance};
use sesame_core::OptimisticStats;
use sesame_dsm::{GwcStats, RunOptions, RunResult};
use sesame_net::{FabricStats, LinkTiming, MeshTorus2d, NodeId};
use sesame_sim::{RunOutcome, Series, SimDur, TraceObserver};
use sesame_telemetry::{SeriesExport, Snapshot, Telemetry};
use sesame_verify::Verifier;
use sesame_workloads::bigmesh::{build_bigmesh_machine, run_bigmesh, BigMeshConfig};
use sesame_workloads::canonical::{build_canonical, CanonicalConfig, COUNTER};
use sesame_workloads::contention::{run_contention_observed, ContentionConfig, ContentionRun};
use sesame_workloads::experiments::{
    figure2_jobs, figure2_sizes, figure8_jobs, figure8_sizes, Figure2Data, Figure8Data,
};
use sesame_workloads::pipeline::{run_pipeline, MutexMethod, PipelineConfig};
use sesame_workloads::task_queue::{build_task_queue, run_task_queue, TaskQueueConfig};
use sesame_workloads::telemetry::absorb_run;
use sesame_workloads::three_cpu::{run_figure1_all, Figure1Config, Figure1Run};

use crate::prof::TRACED;
use crate::sample::Rec;

/// One workload: its name and why it was chosen.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// The six workloads, in round-robin order.
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "bigmesh_32k",
        why: "scale path: 32 400-node mesh, deep event queue, static multicast waves, slab state; core and observers idle",
    },
    WorkloadDef {
        name: "paper_figs",
        why: "what a reproducer runs: every point of Fig. 1, 2 and 8 serially; shallow queues, flood multicast, all three models; carries the accuracy metric",
    },
    WorkloadDef {
        name: "paper_figs_par",
        why: "the same points through the sweep engine on min(nproc,4) workers: isolates sweep, digest must equal paper_figs",
    },
    WorkloadDef {
        name: "lossy_mutex",
        why: "the generic path: 64 contenders under 5% loss, per-call multicast with loss rolls, NACK, retransmit and watchdog timers",
    },
    WorkloadDef {
        name: "observed_contention",
        why: "the tracing-on path: one contention run plain, under the telemetry collector with exports, and under the online verifier; optimism wins and rolls back",
    },
    WorkloadDef {
        name: "check_mutex",
        why: "the model checker: pending/step_seq/remove_seq, repeated machine builds and state digests, verifier online per execution",
    },
];

pub fn is_known(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// Sweep workers for `paper_figs_par`.
pub fn par_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// The operations one sample of `name` attempts — what a child that died
/// before reporting is charged with.
pub fn expected_ops(name: &str, quick: bool) -> u64 {
    let size = Sizes::of(quick);
    match name {
        "bigmesh_32k" => size.bigmesh_nodes as u64,
        "paper_figs" | "paper_figs_par" => size.sweep_points(),
        "lossy_mutex" => u64::from(size.lossy.0) * u64::from(size.lossy.1),
        "observed_contention" => 3 * u64::from(size.observed.0) * u64::from(size.observed.1),
        "check_mutex" => size.check_work,
        _ => 1,
    }
}

/// Every size the workloads use; `--quick` shrinks them all for a smoke
/// run whose numbers are never compared.
struct Sizes {
    bigmesh_nodes: usize,
    fig2_sizes: Vec<usize>,
    fig8_sizes: Vec<usize>,
    tasks: u32,
    visits: u32,
    /// (contenders, rounds)
    lossy: (u32, u32),
    observed: (u32, u32),
    check_work: u64,
    quick: bool,
}

impl Sizes {
    fn of(quick: bool) -> Sizes {
        if quick {
            Sizes {
                bigmesh_nodes: 2_500,
                fig2_sizes: vec![3, 5, 9],
                fig8_sizes: vec![2, 4, 8],
                tasks: 128,
                visits: 128,
                lossy: (8, 200),
                observed: (8, 200),
                check_work: 3_000,
                quick,
            }
        } else {
            Sizes {
                bigmesh_nodes: 32_400,
                fig2_sizes: figure2_sizes(),
                fig8_sizes: figure8_sizes(),
                tasks: 1024,
                visits: 1024,
                lossy: (64, 2000),
                observed: (16, 2000),
                check_work: 100_000,
                quick,
            }
        }
    }

    /// Fig. 1's three models, Fig. 2's three series and Fig. 8's four.
    fn sweep_points(&self) -> u64 {
        (3 + 3 * self.fig2_sizes.len() + 4 * self.fig8_sizes.len()) as u64
    }

    fn task_queue(&self) -> TaskQueueConfig {
        TaskQueueConfig {
            total_tasks: self.tasks,
            ..TaskQueueConfig::default()
        }
    }

    fn pipeline(&self) -> PipelineConfig {
        PipelineConfig {
            total_visits: self.visits,
            ..PipelineConfig::default()
        }
    }
}

/// `lossy_mutex`'s per-traversal loss probability.
const LOSS: f64 = 0.05;

/// The machine shape the layer probes imitate.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub nodes: usize,
    /// Mesh torus (else full mesh).
    pub mesh: bool,
    /// Pruned multicast routes (else spanning-tree flood).
    pub pruned: bool,
    /// Members of the workload's largest sharing group.
    pub members: usize,
    /// Per-traversal loss probability of the workload's fabric.
    pub loss: f64,
    /// Contenders of the trace the offline-verifier probe records.
    pub contenders: u32,
}

pub fn shape(name: &str, quick: bool) -> Shape {
    let size = Sizes::of(quick);
    match name {
        "bigmesh_32k" => {
            let width = MeshTorus2d::with_nodes(size.bigmesh_nodes).width() as usize;
            Shape {
                nodes: size.bigmesh_nodes,
                mesh: true,
                pruned: true,
                members: width,
                loss: 0.0,
                contenders: 4,
            }
        }
        "lossy_mutex" => Shape {
            nodes: size.lossy.0 as usize + 1,
            mesh: false,
            pruned: false,
            members: size.lossy.0 as usize + 1,
            loss: LOSS,
            contenders: size.lossy.0.min(16),
        },
        "observed_contention" => Shape {
            nodes: size.observed.0 as usize + 1,
            mesh: true,
            pruned: false,
            members: size.observed.0 as usize + 1,
            loss: 0.0,
            contenders: size.observed.0,
        },
        "check_mutex" => Shape {
            nodes: 4,
            mesh: false,
            pruned: false,
            members: 4,
            loss: 0.0,
            contenders: 3,
        },
        _ => {
            let n = *size.fig2_sizes.last().expect("fig2 sizes");
            Shape {
                nodes: n,
                mesh: true,
                pruned: false,
                members: n,
                loss: 0.0,
                contenders: 8,
            }
        }
    }
}

/// Runs one sample of `name` into `rec`.
pub fn run(name: &str, seed: u64, quick: bool, rec: &mut Rec) {
    let size = Sizes::of(quick);
    let measured = match name {
        "bigmesh_32k" => bigmesh(rec, &size),
        "paper_figs" => paper_figs(rec, &size),
        "paper_figs_par" => paper_figs_par(rec, &size),
        "lossy_mutex" => lossy_mutex(rec, &size, seed),
        "observed_contention" => observed_contention(rec, &size, seed),
        "check_mutex" => check_mutex(rec, &size),
        other => unreachable!("unknown workload {other}: checked by the caller"),
    };
    finalize(rec, measured);
}

/// What a workload hands to [`finalize`].
struct Measured {
    /// Seconds of the measured phase.
    wall_s: f64,
    /// Completed application operations.
    ops: u64,
}

/// Derives the ratios and copies the host-profiler totals into metrics.
fn finalize(rec: &mut Rec, m: Measured) {
    rec.set("wall_s", m.wall_s);
    rec.set("workloads.ops", m.ops as f64);
    if m.wall_s > 0.0 {
        rec.set("ops_per_s", m.ops as f64 / m.wall_s);
    }
    let run_s = rec.get("workloads.run_s");
    let events = rec.get("sim.events");
    if run_s > 0.0 && events > 0.0 && rec.get("sim.events_per_s") == 0.0 {
        rec.set("sim.events_per_s", events / run_s);
    }
    if rec.get("sweep.jobs") == 0.0 {
        rec.set("sweep.jobs", 1.0);
    }
    let packets = rec.get("net.packets");
    if packets > 0.0 {
        rec.set("net.loss_share", rec.get("net.losses") / packets);
    }
    let grants = rec.get("dsm.gwc.grants");
    if grants > 0.0 {
        let retx = rec.get("dsm.gwc.retransmissions") + rec.get("dsm.gwc.grant_retransmissions");
        rec.set("dsm.gwc.retx_per_grant", retx / grants);
    }
    let attempts = rec.get("core.opt.attempts");
    if attempts > 0.0 {
        rec.set(
            "core.opt.hit_rate",
            (attempts - rec.get("core.opt.rollbacks")) / attempts,
        );
    }
    let entry_events = rec.get("consistency.entry.events");
    if entry_events > 0.0 {
        rec.set(
            "consistency.entry.ns_per_event",
            rec.get("consistency.entry.run_s") * 1e9 / entry_events,
        );
    }
    if TRACED {
        let p = rec.prof;
        rec.set("sim.pop_s", p.pop_ns as f64 / 1e9);
        rec.set(
            "sim.trace_s",
            p.trace_ns.saturating_sub(p.observer_ns) as f64 / 1e9,
        );
        rec.set("sim.trace.records", p.trace_records as f64);
        rec.set("sim.queue.depth_max", p.queue_depth_max as f64);
        rec.set("sim.queue.pushed", p.queue_pushed as f64);
        rec.set("sim.alloc.count", p.allocations as f64);
        rec.set("sim.alloc.mb", p.alloc_bytes as f64 / 1e6);
        // Trace records are emitted from inside handlers, so the
        // profiler's dispatch interval contains its trace interval; the
        // ledger's four terms (pop, dispatch, trace, observer) are disjoint.
        let dispatch_ns = p.dispatch_ns.saturating_sub(p.trace_ns);
        rec.set("dsm.dispatch_s", dispatch_ns as f64 / 1e9);
        if p.events > 0 {
            rec.set(
                "dsm.dispatch_ns_per_event",
                dispatch_ns as f64 / p.events as f64,
            );
        }
    }
}

fn add_fabric(rec: &mut Rec, fs: FabricStats) {
    rec.add("net.packets", fs.packets as f64);
    rec.add("net.bytes", fs.bytes as f64);
    rec.add("net.link_traversals", fs.link_traversals as f64);
    rec.add("net.losses", fs.losses as f64);
    rec.add("net.ser_ms", fs.ser_ns as f64 / 1e6);
}

fn add_gwc(rec: &mut Rec, s: GwcStats) {
    rec.add("dsm.gwc.grants", s.grants as f64);
    rec.add("dsm.gwc.queued_requests", s.queued_requests as f64);
    rec.add("dsm.gwc.root_drops", s.root_drops as f64);
    rec.add("dsm.gwc.hw_block_drops", s.hw_block_drops as f64);
    rec.add("dsm.gwc.nacks", s.nacks as f64);
    rec.add("dsm.gwc.retransmissions", s.retransmissions as f64);
    rec.add(
        "dsm.gwc.grant_retransmissions",
        s.grant_retransmissions as f64,
    );
}

fn add_opt(rec: &mut Rec, s: OptimisticStats) {
    rec.add("core.opt.attempts", s.optimistic_attempts as f64);
    rec.add("core.opt.regular_attempts", s.regular_attempts as f64);
    rec.add("core.opt.rollbacks", s.rollbacks as f64);
    rec.add("core.opt.fully_overlapped", s.fully_overlapped as f64);
}

// ---- bigmesh_32k -----------------------------------------------------------

fn bigmesh(rec: &mut Rec, size: &Sizes) -> Measured {
    let cfg = BigMeshConfig {
        nodes: size.bigmesh_nodes,
        ..BigMeshConfig::default()
    };
    // Both sizes are perfect squares, so every CPU sits in a full row.
    let expected = cfg.nodes as u64;
    if let Some((nodes, s)) = rec.op(0, "build_bigmesh_machine", "workloads", || {
        build_bigmesh_machine(cfg).node_count()
    }) {
        rec.set("workloads.build_s", s);
        rec.check(nodes == cfg.nodes, || format!("built {nodes} nodes"));
    }
    rec.ready();

    let Some((run, run_s, _)) =
        rec.run_op(expected, "run_bigmesh", "workloads", || run_bigmesh(cfg))
    else {
        return Measured {
            wall_s: 0.0,
            ops: 0,
        };
    };
    rec.set("workloads.run_s", run_s);
    rec.set("dsm.gwc.run_s", run_s);
    let check = rec.enter("check", "workloads");
    let visits = run.visits.min(expected);
    if visits < expected {
        rec.fail(
            expected - visits,
            format!("{} of {expected} visits done", run.visits),
        );
    }
    rec.check(run.outcome == RunOutcome::Drained, || {
        format!("outcome {:?}", run.outcome)
    });
    rec.check(run.completed_rows as usize == run.rows, || {
        format!("{} of {} rows completed", run.completed_rows, run.rows)
    });
    let check_s = rec.exit(check);
    rec.set("workloads.check_s", check_s);
    rec.set("sim.events", run.events as f64);
    rec.set("sim_makespan_ms", run.end.as_nanos() as f64 / 1e6);
    add_fabric(rec, run.fabric);
    rec.sim("nodes", run.nodes);
    rec.sim("rows", run.rows);
    rec.sim("visits", run.visits);
    rec.sim("end_ns", run.end.as_nanos());
    rec.sim("events", run.events);
    rec.sim("power_bits", run.power.to_bits());
    rec.sim("fabric", format_args!("{:?}", run.fabric));
    Measured {
        wall_s: run_s,
        ops: visits,
    }
}

// ---- paper_figs / paper_figs_par -------------------------------------------

/// The figure series both sweep workloads produce: the digest and the
/// accuracy metric read these and nothing else, so the serial and the
/// parallel run can be compared byte for byte.
struct Figures {
    fig1: Vec<Figure1Run>,
    fig2: Figure2Data,
    fig8: Figure8Data,
}

/// The paper's values (EXPERIMENTS.md) beside the simulator's.
fn paper_comparisons(f: &Figures) -> Option<Vec<(&'static str, f64, f64)>> {
    let peak = |s: &Series| s.points.iter().map(|p| p.y).fold(f64::NAN, f64::max);
    let gwc_129 = f.fig2.gwc.y_at(129.0)?;
    let entry_33 = f.fig2.entry.y_at(33.0)?;
    let bound = f.fig8.ideal.y_at(128.0)?;
    let entry_end = f.fig8.entry.y_at(128.0)?;
    if f.fig8.optimistic.points.first()?.x != 2.0 {
        return None;
    }
    let r = f.fig8.headline_ratios();
    Some(vec![
        ("fig2.gwc_peak_at_129", 84.1, gwc_129),
        ("fig2.entry_peak_at_33", 22.5, entry_33),
        (
            "fig2.peak_ratio",
            3.7,
            peak(&f.fig2.gwc) / peak(&f.fig2.entry),
        ),
        ("fig8.bound", 1.89, bound),
        ("fig8.opt_over_regular_at_2", 1.1, r.optimistic_over_regular),
        ("fig8.opt_over_entry_at_2", 2.1, r.optimistic_over_entry),
        ("fig8.regular_over_entry_at_2", 1.9, r.regular_over_entry),
        ("fig8.entry_at_128", 0.64, entry_end),
    ])
}

/// Digest text, accuracy and shape checks over the figure series.
fn record_figures(rec: &mut Rec, size: &Sizes, f: &Figures) {
    for r in &f.fig1 {
        rec.sim(
            &format!("fig1.{}", r.model),
            format_args!(
                "{} {} {} {}",
                r.completion.as_nanos(),
                r.lock_waits[0].as_nanos(),
                r.lock_waits[1].as_nanos(),
                r.lock_waits[2].as_nanos()
            ),
        );
    }
    rec.check(f.fig1.len() == 3, || {
        format!("fig1 ran {} models", f.fig1.len())
    });
    let all: [(&str, &Series, usize); 7] = [
        ("fig2.ideal", &f.fig2.ideal, size.fig2_sizes.len()),
        ("fig2.gwc", &f.fig2.gwc, size.fig2_sizes.len()),
        ("fig2.entry", &f.fig2.entry, size.fig2_sizes.len()),
        ("fig8.ideal", &f.fig8.ideal, size.fig8_sizes.len()),
        ("fig8.optimistic", &f.fig8.optimistic, size.fig8_sizes.len()),
        ("fig8.regular", &f.fig8.regular, size.fig8_sizes.len()),
        ("fig8.entry", &f.fig8.entry, size.fig8_sizes.len()),
    ];
    for (name, s, want) in all {
        for p in &s.points {
            rec.sim(
                &format!("{name}@{}", p.x),
                format_args!("{:016x}", p.y.to_bits()),
            );
        }
        let ok = s.points.len() == want && s.points.iter().all(|p| p.y.is_finite() && p.y > 0.0);
        if !ok {
            rec.fail(
                want as u64,
                format!("{name}: {} of {want} points usable", s.points.len()),
            );
        }
    }
    if size.quick {
        return;
    }
    match paper_comparisons(f) {
        Some(rows) => {
            let mut sum = 0.0;
            for (name, paper, ours) in &rows {
                let err = 100.0 * ((ours - paper) / paper).abs();
                rec.set(&format!("paper_err_pct.{name}"), err);
                sum += err;
            }
            rec.set("paper_err_pct", sum / rows.len() as f64);
        }
        None => rec.fail(1, "figure series lack the paper's reference points".into()),
    }
}

/// Where a sweep point's time is attributed: the span's layer and the
/// per-model `run_s` metric, by the memory model the point exercises.
fn attribution(entry: bool, optimistic: bool) -> (&'static str, &'static str) {
    if entry {
        ("consistency", "consistency.entry.run_s")
    } else if optimistic {
        ("core", "core.opt.run_s")
    } else {
        ("dsm", "dsm.gwc.run_s")
    }
}

/// Runs one serial sweep point as one op and folds its time in.
fn point<T>(
    rec: &mut Rec,
    total: &mut Measured,
    name: &str,
    (layer, model_metric): (&str, &str),
    f: impl FnOnce() -> T,
) -> Option<T> {
    let (out, s, _) = rec.run_op(1, name, layer, f)?;
    total.wall_s += s;
    total.ops += 1;
    rec.add(model_metric, s);
    rec.add("workloads.run_s", s);
    Some(out)
}

/// Folds one sweep point's simulated outputs into the sums.
fn account(rec: &mut Rec, name: &str, entry: bool, result: &RunResult<ModelInstance>) {
    rec.add("sim.events", result.events as f64);
    rec.add("sim_makespan_ms", result.end.as_nanos() as f64 / 1e6);
    if entry {
        rec.add("consistency.entry.events", result.events as f64);
    }
    add_fabric(rec, result.machine.fabric_stats());
    if let Some(gwc) = result.machine.model().as_gwc() {
        add_gwc(rec, gwc.stats());
    }
    rec.check(result.outcome != RunOutcome::EventLimitExceeded, || {
        format!("{name}: event limit exceeded")
    });
}

fn sweep_setup(rec: &mut Rec, size: &Sizes) {
    let nodes = *size.fig2_sizes.last().expect("fig2 sizes");
    let cfg = size.task_queue();
    if let Some((built, s)) = rec.op(0, "build_task_queue", "workloads", || {
        build_task_queue(nodes, ModelChoice::Gwc, cfg)
            .0
            .node_count()
    }) {
        rec.set("workloads.build_s", s);
        rec.check(built == nodes, || format!("built {built} nodes"));
    }
    rec.ready();
}

/// Fig. 1 under all three models, as three ops.
fn fig1(rec: &mut Rec, total: &mut Measured) -> Vec<Figure1Run> {
    match rec.op(3, "fig1", "workloads", || {
        run_figure1_all(Figure1Config::default())
    }) {
        Some((runs, s)) => {
            total.wall_s += s;
            total.ops += runs.len() as u64;
            rec.add("workloads.run_s", s);
            runs
        }
        None => Vec::new(),
    }
}

fn empty_fig2() -> Figure2Data {
    Figure2Data {
        ideal: Series::new("ideal (zero network delay)"),
        gwc: Series::new("Sesame GWC eagersharing"),
        entry: Series::new("entry consistency"),
    }
}

fn empty_fig8() -> Figure8Data {
    Figure8Data {
        ideal: Series::new("no network delay bound"),
        optimistic: Series::new("optimistic GWC"),
        regular: Series::new("non-optimistic GWC"),
        entry: Series::new("entry consistency"),
    }
}

fn finish_figures(rec: &mut Rec, size: &Sizes, figures: &Figures, total: &Measured) {
    let check = rec.enter("check", "workloads");
    record_figures(rec, size, figures);
    let check_s = rec.exit(check);
    rec.set("workloads.check_s", check_s);
    rec.set("sweep.points", total.ops as f64);
}

fn paper_figs(rec: &mut Rec, size: &Sizes) -> Measured {
    sweep_setup(rec, size);
    let mut total = Measured {
        wall_s: 0.0,
        ops: 0,
    };
    // Fig. 1 always records its three-CPU timeline trace, so it runs as a
    // plain op, outside the host-profiler totals: `sim.trace.records`
    // then says whether the *sweep* points emit records (they must not).
    let fig1 = fig1(rec, &mut total);

    let tq = size.task_queue();
    let zero = LinkTiming::zero_delay();
    let mut fig2 = empty_fig2();
    for &n in &size.fig2_sizes {
        let ideal_cfg = TaskQueueConfig { timing: zero, ..tq };
        for (label, model, cfg, series) in [
            ("ideal", ModelChoice::Gwc, ideal_cfg, &mut fig2.ideal),
            ("gwc", ModelChoice::Gwc, tq, &mut fig2.gwc),
            ("entry", ModelChoice::Entry, tq, &mut fig2.entry),
        ] {
            let name = format!("fig2.{label}@{n}");
            let entry = model == ModelChoice::Entry;
            let run = point(rec, &mut total, &name, attribution(entry, false), || {
                run_task_queue(n, model, cfg)
            });
            if let Some(run) = run {
                account(rec, &name, entry, &run.result);
                series.push(n as f64, run.speedup);
            }
        }
    }

    let pipe = size.pipeline();
    let mut fig8 = empty_fig8();
    for &n in &size.fig8_sizes {
        let ideal_cfg = PipelineConfig {
            timing: zero,
            ..pipe
        };
        for (label, method, cfg, series) in [
            ("ideal", MutexMethod::RegularGwc, ideal_cfg, &mut fig8.ideal),
            (
                "optimistic",
                MutexMethod::OptimisticGwc,
                pipe,
                &mut fig8.optimistic,
            ),
            ("regular", MutexMethod::RegularGwc, pipe, &mut fig8.regular),
            ("entry", MutexMethod::Entry, pipe, &mut fig8.entry),
        ] {
            let name = format!("fig8.{label}@{n}");
            let entry = method == MutexMethod::Entry;
            let optimistic = method == MutexMethod::OptimisticGwc;
            let run = point(
                rec,
                &mut total,
                &name,
                attribution(entry, optimistic),
                || run_pipeline(n, method, cfg),
            );
            if let Some(run) = run {
                account(rec, &name, entry, &run.result);
                series.push(n as f64, run.power);
                if optimistic {
                    // The pipeline is contention-free: each visit is one
                    // optimistic attempt (the public result has no count).
                    rec.add("core.opt.attempts", f64::from(cfg.total_visits));
                    rec.add("core.opt.fully_overlapped", run.fully_overlapped as f64);
                    rec.add("core.opt.rollbacks", run.rollbacks as f64);
                }
            }
        }
    }

    finish_figures(rec, size, &Figures { fig1, fig2, fig8 }, &total);
    total
}

fn paper_figs_par(rec: &mut Rec, size: &Sizes) -> Measured {
    sweep_setup(rec, size);
    let jobs = par_jobs();
    rec.set("sweep.jobs", jobs as f64);
    let mut total = Measured {
        wall_s: 0.0,
        ops: 0,
    };
    let fig1 = fig1(rec, &mut total);

    // One op per figure call: the sweep engine hands back whole series,
    // so a panic in any point fails the figure's points together.
    let tq = size.task_queue();
    let points = 3 * size.fig2_sizes.len() as u64;
    let fig2 = rec.run_op(points, "figure2_jobs", "sweep", || {
        figure2_jobs(tq, &size.fig2_sizes, jobs)
    });
    let pipe = size.pipeline();
    let points8 = 4 * size.fig8_sizes.len() as u64;
    let fig8 = rec.run_op(points8, "figure8_jobs", "sweep", || {
        figure8_jobs(pipe, &size.fig8_sizes, jobs)
    });
    for (ops, s) in [
        (points, fig2.as_ref().map(|r| r.1)),
        (points8, fig8.as_ref().map(|r| r.1)),
    ] {
        if let Some(s) = s {
            total.wall_s += s;
            total.ops += ops;
            rec.add("workloads.run_s", s);
        }
    }
    let figures = Figures {
        fig1,
        fig2: fig2.map_or_else(empty_fig2, |r| r.0),
        fig8: fig8.map_or_else(empty_fig8, |r| r.0),
    };
    finish_figures(rec, size, &figures, &total);
    total
}

// ---- lossy_mutex -------------------------------------------------------------

fn lossy_mutex(rec: &mut Rec, size: &Sizes, seed: u64) -> Measured {
    let cfg = CanonicalConfig {
        contenders: size.lossy.0,
        rounds: size.lossy.1,
        ..CanonicalConfig::default()
    };
    let expected = u64::from(cfg.contenders) * u64::from(cfg.rounds);
    let built = rec.op(0, "build_canonical", "workloads", || {
        let mut machine = build_canonical(cfg);
        machine.fabric_mut().set_loss(LOSS, seed);
        machine
            .model_mut()
            .as_gwc_mut()
            .expect("canonical model is GWC")
            .set_grant_watchdog(Some(SimDur::from_us(50)));
        machine
    });
    rec.ready();
    let Some((machine, build_s)) = built else {
        rec.op(expected, "run", "dsm", || {
            panic!("no machine to run: the build failed")
        });
        return Measured {
            wall_s: 0.0,
            ops: 0,
        };
    };
    rec.set("workloads.build_s", build_s);

    let Some((result, run_s, _)) = rec.run_op(expected, "run", "dsm", || {
        sesame_dsm::run(machine, RunOptions::default())
    }) else {
        return Measured {
            wall_s: 0.0,
            ops: 0,
        };
    };
    rec.set("workloads.run_s", run_s);
    rec.set("dsm.gwc.run_s", run_s);

    // The root's copy is the oracle. A member whose last update was lost
    // may lag at the drain: nothing later arrives to reveal the gap, so
    // it is a simulated output, not a failure.
    let ((root, lagging), check_s) = rec.span("check", "workloads", || {
        let read = |n: usize| result.machine.mem(NodeId::new(n as u32)).read(COUNTER);
        let root = read(0);
        let lagging = (1..result.machine.node_count())
            .filter(|&n| read(n) != root)
            .count();
        (root, lagging)
    });
    rec.set("workloads.check_s", check_s);
    let done = u64::try_from(root).unwrap_or(0).min(expected);
    if done < expected {
        rec.fail(
            expected - done,
            format!("root counter {root} of {expected}"),
        );
    }
    rec.check(result.outcome == RunOutcome::Drained, || {
        format!("outcome {:?}", result.outcome)
    });
    let fabric = result.machine.fabric_stats();
    let gwc = result
        .machine
        .model()
        .as_gwc()
        .map(|g| g.stats())
        .unwrap_or_default();
    rec.set("sim.events", result.events as f64);
    rec.set("sim_makespan_ms", result.end.as_nanos() as f64 / 1e6);
    add_fabric(rec, fabric);
    add_gwc(rec, gwc);
    rec.sim("end_ns", result.end.as_nanos());
    rec.sim("events", result.events);
    rec.sim("counter", root);
    rec.sim("lagging_members", lagging);
    rec.sim("fabric", format_args!("{fabric:?}"));
    rec.sim("gwc", format_args!("{gwc:?}"));
    Measured {
        wall_s: run_s,
        ops: done,
    }
}

// ---- observed_contention -------------------------------------------------------

/// The simulated outputs of one contention run, for the "an observer
/// must not perturb the run" check and the digest.
fn contention_outputs(run: &ContentionRun) -> String {
    format!(
        "end_ns={} events={} counter={} stats={:?} mean_latency_ns={} fabric={:?} gwc={:?}",
        run.result.end.as_nanos(),
        run.result.events,
        run.counter,
        run.stats,
        run.mean_section_latency.as_nanos(),
        run.result.machine.fabric_stats(),
        run.result.machine.model().as_gwc().map(|g| g.stats()),
    )
}

/// The collector's three exports.
struct Exports {
    snapshot: String,
    series: String,
    causes: String,
    cause_nodes: usize,
}

impl Exports {
    fn bytes(&self) -> usize {
        self.snapshot.len() + self.series.len() + self.causes.len()
    }

    /// The library's `from_json` validators for the snapshot and the
    /// series. The causal DAG has none, and a generic parse of its 190 MB
    /// costs 17 s and 1.9 GB, so it gets a structural check: the schema
    /// header, the trailer, and one line per DAG node.
    fn validate(&self) -> [(&'static str, Result<(), String>); 3] {
        let node_lines = self
            .causes
            .lines()
            .filter(|l| l.starts_with("  {\"id\":"))
            .count();
        let causes = if !self
            .causes
            .starts_with("{\"schema\":\"sesame-causes/v1\",\"nodes\":[")
        {
            Err("missing sesame-causes/v1 header".to_string())
        } else if !self.causes.ends_with("\n]}\n") {
            Err("missing trailer".to_string())
        } else if node_lines != self.cause_nodes {
            Err(format!(
                "{node_lines} node lines for {} DAG nodes",
                self.cause_nodes
            ))
        } else {
            Ok(())
        };
        [
            ("snapshot", Snapshot::from_json(&self.snapshot).map(|_| ())),
            ("series", SeriesExport::from_json(&self.series).map(|_| ())),
            ("causes", causes),
        ]
    }
}

fn observed_contention(rec: &mut Rec, size: &Sizes, seed: u64) -> Measured {
    let cfg = ContentionConfig {
        contenders: size.observed.0,
        rounds: size.observed.1,
        mean_think: SimDur::from_us(400),
        seed,
        ..ContentionConfig::default()
    };
    let sections = u64::from(cfg.contenders) * u64::from(cfg.rounds);
    // The contention driver builds its machine inside the run call, so
    // set-up is the observers alone.
    let (observers, build_s) = rec.span("build_observers", "workloads", || {
        let telemetry = Telemetry::new("observed_contention", seed)
            .with_series(SimDur::from_us(100))
            .shared();
        let verifier = Rc::new(RefCell::new(Verifier::new()));
        (telemetry, verifier)
    });
    rec.set("workloads.build_s", build_s);
    let (telemetry, verifier) = observers;
    rec.ready();

    let mut wall_s = 0.0;
    let mut done = 0;
    let mut outputs: Vec<String> = Vec::new();

    // (a) plain
    let mut plain_s = 0.0;
    if let Some((run, s, _)) = rec.run_op(sections, "run_plain", "core", || {
        run_contention_observed(cfg, None)
    }) {
        wall_s += s;
        plain_s = s;
        done += run.sections;
        rec.set("core.opt.run_s", s);
        rec.set("dsm.gwc.run_s", s);
        add_opt(rec, run.stats);
        add_fabric(rec, run.result.machine.fabric_stats());
        if let Some(g) = run.result.machine.model().as_gwc() {
            add_gwc(rec, g.stats());
        }
        // Counts are the plain run's: the observed runs must repeat them
        // exactly (checked below), so summing would only triple them.
        rec.set("sim.events", run.result.events as f64);
        rec.set("sim.events_per_s", run.result.events as f64 / s);
        rec.set("sim_makespan_ms", run.result.end.as_nanos() as f64 / 1e6);
        rec.check(run.result.outcome == RunOutcome::Drained, || {
            format!("plain outcome {:?}", run.result.outcome)
        });
        outputs.push(contention_outputs(&run));
    }

    // (b) under the telemetry collector, then its exports and validators
    let observer: Rc<RefCell<dyn TraceObserver>> = telemetry.clone();
    if let Some((run, s, p)) = rec.run_op(sections, "run_telemetry", "telemetry", || {
        run_contention_observed(cfg, Some(observer))
    }) {
        wall_s += s;
        done += run.sections;
        rec.set("telemetry.observed_run_s", s);
        if plain_s > 0.0 {
            rec.set("telemetry.overhead_x", s / plain_s);
        }
        if TRACED {
            rec.set("telemetry.observer_s", p.observer_ns as f64 / 1e9);
        }
        outputs.push(contention_outputs(&run));
        if let Some((exports, s)) = rec.op(3, "export", "telemetry", || {
            absorb_run(&mut telemetry.borrow_mut(), &run.result);
            drop(run);
            let t = telemetry.borrow();
            Exports {
                snapshot: t.snapshot().to_json(),
                series: t.series_json().expect("series were enabled"),
                causes: t.causes_json(),
                cause_nodes: t.causes().len(),
            }
        }) {
            wall_s += s;
            rec.set("telemetry.export_s", s);
            rec.set("telemetry.export_mb", exports.bytes() as f64 / 1e6);
            match rec.op(0, "validate", "telemetry", || exports.validate()) {
                Some((verdicts, s)) => {
                    wall_s += s;
                    rec.set("telemetry.validate_s", s);
                    for (what, verdict) in verdicts {
                        if let Err(e) = verdict {
                            rec.fail(1, format!("{what} export does not validate: {e}"));
                        }
                    }
                }
                None => rec.fail(3, "the validators panicked".into()),
            }
        }
    }

    // (c) under the online verifier
    let observer: Rc<RefCell<dyn TraceObserver>> = verifier.clone();
    if let Some((run, s, p)) = rec.run_op(sections, "run_verify", "verify", || {
        let run = run_contention_observed(cfg, Some(observer));
        verifier.borrow_mut().finish();
        run
    }) {
        wall_s += s;
        done += run.sections;
        rec.set("verify.observed_run_s", s);
        if plain_s > 0.0 {
            rec.set("verify.overhead_x", s / plain_s);
        }
        if TRACED {
            rec.set("verify.observer_s", p.observer_ns as f64 / 1e9);
        }
        outputs.push(contention_outputs(&run));
        let violations = verifier.borrow().violations().len() as u64;
        rec.set("verify.violations", violations as f64);
        if violations > 0 {
            rec.fail(violations.min(sections), verifier.borrow().report());
        }
    }
    rec.set(
        "workloads.run_s",
        rec.get("core.opt.run_s")
            + rec.get("telemetry.observed_run_s")
            + rec.get("verify.observed_run_s"),
    );

    let check = rec.enter("check", "workloads");
    rec.check(outputs.len() == 3, || {
        format!("{} of 3 runs finished", outputs.len())
    });
    rec.check(outputs.windows(2).all(|w| w[0] == w[1]), || {
        format!("an observer perturbed the run: {outputs:?}")
    });
    let check_s = rec.exit(check);
    rec.set("workloads.check_s", check_s);
    if let Some(first) = outputs.first() {
        rec.sim("run", first);
    }
    Measured { wall_s, ops: done }
}

// ---- check_mutex -----------------------------------------------------------------

fn check_mutex(rec: &mut Rec, size: &Sizes) -> Measured {
    let cfg = CanonicalConfig {
        contenders: 3,
        rounds: 1,
        ..CanonicalConfig::default()
    };
    let opts = CheckOptions {
        work_max: size.check_work,
        links: LinkMode::Fifo,
        ..CheckOptions::default()
    };
    if let Some((nodes, s)) = rec.op(0, "build_canonical", "workloads", || {
        build_canonical(cfg).node_count()
    }) {
        rec.set("workloads.build_s", s);
        rec.check(nodes == 4, || format!("built {nodes} nodes"));
    }
    rec.ready();

    let Some((report, run_s, _)) = rec.run_op(opts.work_max, "check", "check", || check(cfg, opts))
    else {
        return Measured {
            wall_s: 0.0,
            ops: 0,
        };
    };
    rec.set("workloads.run_s", run_s);
    let leaves = report.schedules + report.truncated + report.sleep_blocked + report.pruned;
    // The work budget is what was attempted; the search may also end
    // early because it covered the whole space.
    let owed = if report.complete {
        leaves
    } else {
        opts.work_max
    };
    if leaves < owed {
        rec.fail(owed - leaves, format!("{leaves} of {owed} leaves explored"));
    }
    if let Some(cx) = &report.counterexample {
        rec.fail(1, format!("counterexample: {:?}", cx.violations));
        rec.set("verify.violations", cx.violations.len() as f64);
    }
    rec.set("check.leaves", leaves as f64);
    rec.set("check.schedules", report.schedules as f64);
    rec.set("check.sleep_blocked", report.sleep_blocked as f64);
    rec.set("check.pruned", report.pruned as f64);
    rec.set("check.max_depth", report.max_depth as f64);
    if leaves > 0 {
        rec.set(
            "check.prune_share",
            (report.sleep_blocked + report.pruned) as f64 / leaves as f64,
        );
        rec.set("check.leaves_per_s", leaves as f64 / run_s);
    }
    rec.sim("schedules", report.schedules);
    rec.sim("complete", report.complete);
    rec.sim("truncated", report.truncated);
    rec.sim("sleep_blocked", report.sleep_blocked);
    rec.sim("pruned", report.pruned);
    rec.sim("max_depth", report.max_depth);
    rec.sim("counterexample", report.counterexample.is_some());
    Measured {
        wall_s: run_s,
        ops: leaves.min(owed),
    }
}

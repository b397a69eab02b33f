//! `sesame` — the command-line interface to the sesame-rs experiment
//! suite: reproduce any figure of *Hermannsson & Wittie, "Optimistic
//! Synchronization in Distributed Shared Memory" (ICDCS 1994)* with custom
//! parameters.
//!
//! ```text
//! sesame fig1 [--section-us N] [--words N]
//! sesame fig2 [--sizes 3,5,9] [--tasks N] [--exec-us N] [--ratio F] [--jobs N]
//! sesame fig7
//! sesame fig8 [--sizes 2,4,8] [--visits N] [--local-us N] [--jobs N]
//! sesame bigmesh [--nodes N | --rows N --cols N] [--laps N] [--local-us N]
//! sesame contention [--contenders N] [--rounds N] [--think-us N]
//! sesame run --scenario contention --metrics-out m.json --timeline-out t.trace.json
//! sesame report --metrics-in m.json
//! sesame explain --scenario contention [--event 42]
//! sesame verify [--scenario all]
//! sesame check [--cpus N] [--mutation stale-grant-reuse] [--out cx.replay]
//! sesame check --replay cx.replay
//! ```
//!
//! Every command that runs a workload builds a
//! [`Scenario`] from its flags and hands it to the one driver,
//! [`Scenario::run`]; what differs between commands is what they attach
//! (the telemetry collector, the online verifier, nothing) and what they
//! print.

mod args;
mod flags;

use std::cell::RefCell;
use std::io::Write as _;
use std::process::ExitCode;
use std::rc::Rc;

use args::{ArgError, Args};
use flags::{
    bigmesh_flags, canonical_flags, contention_flags, figure1_flags, flags_of, pipeline_flags,
    scenario_flag_set, scenario_flags, task_queue_flags,
};
use sesame_consistency::analysis::Figure1Params;
use sesame_core::builder::ModelChoice;
use sesame_core::OptimisticConfig;
use sesame_sim::{SimDur, TraceEntry, TraceObserver};
use sesame_telemetry::{
    render_report, render_series_report, CausalDag, SeriesExport, Snapshot, Telemetry,
};
use sesame_verify::{check_trace, Verifier, Violation};
use sesame_workloads::bigmesh::BigMeshConfig;
use sesame_workloads::canonical::CanonicalConfig;
use sesame_workloads::contention::{ContentionConfig, ContentionRun};
use sesame_workloads::experiments::{
    figure1, figure2_jobs, figure2_sizes, figure8_jobs, figure8_optimism_jobs, figure8_sizes,
    render_series,
};
use sesame_workloads::pipeline::{MutexMethod, PipelineConfig};
use sesame_workloads::scenario::{Outcome, Scenario};
use sesame_workloads::task_queue::TaskQueueConfig;
use sesame_workloads::telemetry::observe;
use sesame_workloads::three_cpu::Figure1Config;
use sesame_workloads::timeline::render_figure1_timeline;

// With the profiler compiled in, count this binary's heap traffic so
// `--hostprof-out` reports real allocation numbers.
#[cfg(feature = "hostprof")]
#[global_allocator]
static ALLOC: sesame_sim::hostprof::CountingAlloc = sesame_sim::hostprof::CountingAlloc;

/// What every command returns: `?` converts [`ArgError`], the driver's
/// `RunError`, I/O errors and plain messages alike.
type CliResult<T = ()> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

const USAGE: &str = "\
sesame — experiments from 'Optimistic Synchronization in Distributed Shared Memory' (ICDCS 1994)

USAGE:
    sesame <command> [flags]

COMMANDS:
    fig1          three-CPU locking comparison (GWC / entry / release), with
                  ASCII timelines and the closed forms it is held to
                    --section-us <N=5>   in-section computation time
                    --words <N=16>       guarded data words per holder
    fig2          task-management speedup sweep (ideal / GWC / entry)
                    --sizes <list=3,5,9,17,33,65,129>
                    --tasks <N=1024>  --exec-us <N=1000>  --ratio <F=0.0078125>
                    --format <table|csv>
                    --jobs <N=1>      sweep worker threads (0 = all cores);
                                      output is identical for every N
    fig7          optimistic rollback under contention, with protocol stats
    fig8          mutex-method network power sweep, headline ratios and the
                  optimistic line's hit rates
                    --sizes <list=2,4,8,16,32,64,128>
                    --visits <N=1024>  --local-us <N=5>
                    --format <table|csv>
                    --jobs <N=1>      sweep worker threads (0 = all cores);
                                      output is identical for every N
    bigmesh       100k-node scaling scenario: per-row token pipelines with
                  row-local mutexes over pruned multicast routes
                    --nodes <N=100000>  --laps <N=1>  --local-us <N=5>
                    --rows <N> --cols <N>  explicit mesh geometry (overrides
                                      --nodes; 100000x10 is the 1M-node run)
                    --shared-words <N=1>  --event-limit <N=500000000>
                    --hostprof-out <file.json>  host-side simulator profile
                                      (needs a build with --features hostprof)
                  exits nonzero unless the run drains with every visit done;
                  prints an exact `throughput N events/s` line for CI floors
    contention    optimistic vs regular locking across think times
                    --contenders <N=6>  --rounds <N=50>  --think-us <N=50>
    run           run one scenario with telemetry and export metrics
                    --scenario <name>  (default contention) with that
                                      scenario's flags; any other is an error:
                      three-cpu   --section-us <N=5>  --words <N=16>  --seed <N=7>
                      contention  --contenders <N=4>  --rounds <N=25>
                                  --think-us <N=50>  --seed <N=7>
                      task-queue  --nodes <N=5>  --tasks <N=48>  --exec-us <N=1000>
                                  --ratio <F=0.0078125>  --seed <N=7>
                      pipeline    --nodes <N=8>  --visits <N=128>  --local-us <N=5>
                                  (under the optimistic method)
                      bigmesh     --nodes <N=400> and bigmesh's other flags
                      canonical   --cpus <N=3>  --rounds <N=2>
                    --metrics-out <file.json>   JSON metrics snapshot
                    --csv-out <file.csv>        CSV metrics export
                    --timeline-out <file.json>  Chrome trace-event timeline
                                      (with cross-node causal flow arrows)
                    --causes-out <file>         causal DAG: the ancestors of
                                      every rollback and of the critical path
                                      (.dot → Graphviz, anything else →
                                      sesame-causes/v1 JSON)
                    --series-out <file>         windowed time series (.csv →
                                      CSV, anything else → sesame-series/v1
                                      JSON); also prints the per-window table
                    --window <ns=100000>        series window width in
                                      simulated nanoseconds (implies a series)
                    --hostprof-out <file.json>  host-side simulator profile
                                      (sesame-hostprof/v1; needs a build with
                                      --features hostprof)
                    --jobs <N=1>      run N redundant copies concurrently and
                                      assert their exports are byte-identical
    report        render a human-readable report from a metrics snapshot
                  (includes wait percentiles and rollback attribution)
                    --metrics-in <file.json>  (or --scenario to run fresh)
                    --series-in <file.json>   append the per-window time-series
                                      table from a sesame-series/v1 export
                    --window <ns>     on a fresh run, collect and print the
                                      per-window table directly
    explain       re-run a scenario and print cause→effect chains: why each
                  rollback happened (the remote write, its multicast, the
                  interrupting apply) and the run's critical path
                    --scenario <name> and its flags, as for run
                    --event <id>      explain one causal event id instead
                                      (exits nonzero if the id is unknown)
    verify        run scenarios under the online sesame-verify checkers, once
                  per model or method each one compares
                    --scenario <all|planted-bad|name>  (default all) and the
                                      scenario flags as for run, without --seed
                                      (contention starts from 30 rounds,
                                      task-queue from 96 tasks on 4 CPUs)
    check         model-check the canonical mutex workload: explore every
                  meaningfully different delivery schedule under the
                  sesame-verify checkers plus a linearizability oracle
                    --cpus <N=2>      contending CPUs  --rounds <N=1>
                    --links <fifo|relax-roots|relax>  (default fifo)
                    --mutation <none|stale-grant-reuse|seq-gap|drop-rollback>
                                      plant a protocol bug to find
                                      (seq-gap needs --links relax-roots)
                    --depth <N=500>   schedule-length budget
                    --schedules-max <N=50000>  completed-schedule budget
                    --work-max <N=500000>      total explored-state budget
                    --hash-states <true|false=true>  fold revisited states
                    --out <file>      where to write the counterexample
                                      replay file (default sesame-check
                                      prints it to stdout)
                    --replay <file>   re-run a recorded counterexample
                                      deterministically instead of exploring
    help          print this message
";

/// Whether `--format csv` was asked for (`table`, the default, is not).
fn csv_format(args: &Args) -> CliResult<bool> {
    match args.get_str("--format") {
        None | Some("table") => Ok(false),
        Some("csv") => Ok(true),
        Some(other) => Err(format!("unknown --format {other:?} (use table or csv)").into()),
    }
}

/// Renders series as CSV or as aligned tables.
fn render(series: &[&sesame_sim::Series], csv: bool) -> String {
    if csv {
        let blocks: Vec<String> = series.iter().map(|s| s.to_csv()).collect();
        blocks.join("\n")
    } else {
        render_series(series)
    }
}

/// `--sizes a,b,c`, or the figure's published sizes.
fn parse_sizes(args: &Args, published: fn() -> Vec<usize>) -> CliResult<Vec<usize>> {
    let Some(spec) = args.get_str("--sizes") else {
        return Ok(published());
    };
    let sizes = spec.split(',').map(|s| {
        s.trim()
            .parse::<usize>()
            .map_err(|_| format!("bad size {s:?} in --sizes"))
    });
    Ok(sizes.collect::<Result<_, _>>()?)
}

/// The named scenario at its smoke size. (`dispatch` has already
/// rejected names that are not scenarios, to know which flags to allow.)
fn smoke(name: &str) -> CliResult<Scenario> {
    Ok(Scenario::parse(name).ok_or_else(|| format!("unknown --scenario {name:?}"))?)
}

/// What `run`, `report` and `explain` were asked for: the `--scenario`
/// (default contention) with its flags applied, and the collector to
/// attach — named and seeded for the snapshot, with what the command's
/// output flags need.
fn chosen(args: &Args) -> CliResult<(Scenario, Telemetry)> {
    let base = smoke(args.get_str("--scenario").unwrap_or("contention"))?;
    let scenario = scenario_flags(args, base)?;
    let seed = args.get_or("--seed", 7u64, "integer")?;
    let mut telemetry = Telemetry::new(scenario.name(), seed)
        .with_timeline(args.get_str("--timeline-out").is_some());
    if let Some(window) = parse_window(args)? {
        telemetry = telemetry.with_series(window);
    }
    if let Some(id) = parse_event(args)? {
        telemetry = telemetry.with_explained_event(id);
    }
    Ok((scenario, telemetry))
}

fn cmd_fig1(args: &Args) -> CliResult {
    let cfg = figure1_flags(args, Figure1Config::default())?;
    let model = ModelChoice::Gwc;
    Scenario::ThreeCpu { model, cfg }.validate()?;
    let (runs, table) = figure1(cfg);
    println!("# Figure 1 — Locking Comparison (3 CPUs, 3 successive mutex accesses)");
    println!(
        "# section {} x3, {} guarded words, ring of 3 (1 hop), paper link timing",
        cfg.section, cfg.data_words
    );
    println!("{table}");
    for r in &runs {
        println!("{}", render_figure1_timeline(r, 64));
    }
    let pred = Figure1Params {
        hops: 1,
        timing: cfg.timing,
        section: cfg.section,
        guarded_bytes: cfg.data_words * sesame_dsm::sizes::WRITE,
    }
    .predict();
    // `figure1` runs the models in the paper's order: gwc, entry, release.
    println!(
        "# closed forms: gwc 5m+3u = {}\n\
         #               entry 5m+a+3d+3u = {}\n\
         #               release 7m+3a+3u = {}\n\
         # entry/gwc = {:.3}, release/gwc = {:.3}",
        pred.gwc,
        pred.entry,
        pred.release,
        runs[1].completion / runs[0].completion,
        runs[2].completion / runs[0].completion
    );
    Ok(())
}

fn cmd_fig2(args: &Args) -> CliResult {
    let sizes = parse_sizes(args, figure2_sizes)?;
    let cfg = task_queue_flags(args, TaskQueueConfig::default())?;
    let csv = csv_format(args)?;
    let jobs = args.get_or("--jobs", 1usize, "integer")?;
    let model = ModelChoice::Gwc;
    for &nodes in &sizes {
        Scenario::TaskQueue { nodes, model, cfg }.validate()?;
    }
    if !csv {
        eprintln!(
            "figure 2: {} tasks, exec {}, produce ratio {:.5}, queue capacity {}",
            cfg.total_tasks, cfg.exec_time, cfg.produce_ratio, cfg.capacity
        );
        println!("# Figure 2 — Speedup for Task Management (paper: GWC peak ~84.1 @129, entry peak ~22.5 @33)");
    }
    let data = figure2_jobs(cfg, &sizes, jobs);
    println!("{}", render(&[&data.ideal, &data.gwc, &data.entry], csv));
    if !csv {
        let gwc_peak = data.gwc.y_max().unwrap_or(0.0);
        let entry_peak = data.entry.y_max().unwrap_or(0.0);
        println!(
            "# GWC peak speedup:   {gwc_peak:.1}\n\
             # entry peak speedup: {entry_peak:.1}\n\
             # GWC/entry at peak sizes: {:.2}",
            gwc_peak / entry_peak
        );
    }
    Ok(())
}

/// Runs one contention point through the driver.
fn run_contention(cfg: ContentionConfig) -> CliResult<ContentionRun> {
    match Scenario::Contention(cfg).run(None)? {
        Outcome::Contention(run) => Ok(run),
        other => unreachable!("a contention scenario ended as {other:?}"),
    }
}

fn cmd_fig7(_args: &Args) -> CliResult {
    // The deterministic Figure 7 interaction is asserted step by step in
    // crates/core/tests/optimistic.rs; this is the same regime under
    // randomized contention.
    let run = run_contention(ContentionConfig {
        contenders: 3,
        rounds: 40,
        mean_think: SimDur::from_us(8),
        ..ContentionConfig::default()
    })?;
    let s = run.stats;
    println!("# Figure 7 regime — optimistic locking under contention (GWC)");
    println!("sections completed:   {}", run.sections);
    println!("optimistic attempts:  {}", s.optimistic_attempts);
    println!("regular attempts:     {}", s.regular_attempts);
    println!("rollbacks:            {}", s.rollbacks);
    println!("free flickers:        {}", s.free_flickers);
    println!("fully overlapped:     {}", s.fully_overlapped);
    println!("mean section latency: {}", run.mean_section_latency);
    let gwc = run.result.machine.model().as_gwc().expect("gwc model");
    println!("root drops:           {}", gwc.stats().root_drops);
    println!("hw-blocking drops:    {}", gwc.stats().hw_block_drops);
    println!(
        "counter {} == sections {}: mutual exclusion held through every rollback",
        run.counter, run.sections
    );
    Ok(())
}

fn cmd_fig8(args: &Args) -> CliResult {
    let sizes = parse_sizes(args, figure8_sizes)?;
    let cfg = pipeline_flags(args, PipelineConfig::default())?;
    let csv = csv_format(args)?;
    let jobs = args.get_or("--jobs", 1usize, "integer")?;
    let method = MutexMethod::OptimisticGwc;
    for &nodes in &sizes {
        Scenario::Pipeline { nodes, method, cfg }.validate()?;
    }
    if !csv {
        eprintln!(
            "figure 8: {} visits, L {}, M {}, token {} words",
            cfg.total_visits,
            cfg.local_calc,
            cfg.section(),
            cfg.token_words
        );
        println!("# Figure 8 — Mutex Methods, Network Power in CPUs");
        println!(
            "# paper: bound 1.89; optimistic 1.68->1.15; non-optimistic 1.53->1.03; entry 0.81->0.64"
        );
    }
    let data = figure8_jobs(cfg, &sizes, jobs);
    let lines = [&data.ideal, &data.optimistic, &data.regular, &data.entry];
    println!("{}", render(&lines, csv));
    let r = data.headline_ratios();
    if csv {
        println!(
            "# at {} CPUs: opt/reg {:.2}, opt/entry {:.2}, reg/entry {:.2}",
            r.nodes, r.optimistic_over_regular, r.optimistic_over_entry, r.regular_over_entry
        );
        return Ok(());
    }
    println!(
        "# headline ratios at {} CPUs (paper: 1.1x, 2.1x, 1.9x):\n\
         #   optimistic / non-optimistic GWC: {:.2}\n\
         #   optimistic / entry:              {:.2}\n\
         #   non-optimistic / entry:          {:.2}",
        r.nodes, r.optimistic_over_regular, r.optimistic_over_entry, r.regular_over_entry
    );
    // The optimism columns, sourced from the telemetry registry: what
    // fraction of mutex entries the optimistic engine won outright.
    println!("\n# optimism telemetry (optimistic GWC line)");
    println!("# cpus   attempts   wins   rollbacks   hit-rate   overlapped");
    for p in figure8_optimism_jobs(cfg, &sizes, jobs) {
        println!(
            "{:>6} {:>10} {:>6} {:>11} {:>9.1}% {:>12}",
            p.nodes,
            p.attempts,
            p.wins,
            p.rollbacks,
            100.0 * p.hit_rate(),
            p.overlapped
        );
    }
    Ok(())
}

/// Runs `f` under the host profiler when `--hostprof-out` is given: the
/// (thread-local) profile is reset first, so it covers exactly `f`, and
/// written after.
fn with_hostprof<T>(args: &Args, f: impl FnOnce() -> CliResult<T>) -> CliResult<T> {
    let Some(path) = args.get_str("--hostprof-out") else {
        return f();
    };
    #[cfg(not(feature = "hostprof"))]
    {
        let _ = (path, f);
        Err("--hostprof-out requires the host profiler: rebuild with \
             `cargo run -p sesame-cli --features hostprof -- ...`"
            .into())
    }
    #[cfg(feature = "hostprof")]
    {
        sesame_sim::hostprof::reset();
        let value = f()?;
        let profile = sesame_sim::hostprof::report();
        write_file(path, &profile.to_json())?;
        println!(
            "wrote host profile ({} events, {} trace records, queue depth max {}) to {path}",
            profile.events, profile.trace_records, profile.queue_depth_max
        );
        Ok(value)
    }
}

// Wall-clock reads report host throughput only; simulated results never
// depend on them (the determinism guard in clippy.toml bans them elsewhere).
#[allow(clippy::disallowed_methods)]
fn cmd_bigmesh(args: &Args) -> CliResult {
    let cfg = bigmesh_flags(args, BigMeshConfig::default())?;
    let wall = std::time::Instant::now();
    let outcome = with_hostprof(args, || Ok(Scenario::BigMesh(cfg).run(None)?))?;
    let wall = wall.elapsed();
    let Outcome::BigMesh(run, _) = outcome else {
        unreachable!("a bigmesh scenario ended as {outcome:?}")
    };
    println!(
        "nodes {} in {} rows; {} token visits over {} laps",
        run.nodes, run.rows, run.visits, cfg.laps
    );
    println!(
        "makespan {}  events {}  network power {:.2}",
        run.end, run.events, run.power
    );
    println!(
        "fabric: {} packets, {} bytes, {} link traversals, {} losses",
        run.fabric.packets, run.fabric.bytes, run.fabric.link_traversals, run.fabric.losses
    );
    println!(
        "host: {:.2}s wall, {:.1}M events/s",
        wall.as_secs_f64(),
        run.events as f64 / wall.as_secs_f64() / 1e6
    );
    // Exact-integer line for CI floors to grep.
    println!(
        "throughput {} events/s",
        (run.events as f64 / wall.as_secs_f64()) as u64
    );
    // Likewise for CI memory ceilings; absent off Linux.
    if let Some(kb) = peak_rss_kb() {
        println!("peak_rss_kb {kb}");
        println!("bytes_per_node {}", kb * 1024 / run.nodes as u64);
    }
    Ok(())
}

/// This process's peak resident set in KiB: the `VmHWM` line of
/// `/proc/self/status`, or `None` where that file does not exist.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

fn cmd_contention(args: &Args) -> CliResult {
    let base = contention_flags(
        args,
        ContentionConfig {
            contenders: 6,
            ..ContentionConfig::default()
        },
    )?;
    let opt = run_contention(base)?;
    let reg = run_contention(ContentionConfig {
        mutex: OptimisticConfig {
            optimistic: false,
            ..OptimisticConfig::default()
        },
        ..base
    })?;
    println!(
        "optimistic: mean latency {}, rollbacks {}, {}% optimistic path",
        opt.mean_section_latency,
        opt.stats.rollbacks,
        100 * opt.stats.optimistic_attempts
            / (opt.stats.optimistic_attempts + opt.stats.regular_attempts).max(1)
    );
    println!("regular:    mean latency {}", reg.mean_section_latency);
    println!(
        "speedup of optimistic over regular: {:.3}",
        reg.mean_section_latency / opt.mean_section_latency
    );
    Ok(())
}

/// Parses `explain`'s `--event <id>` (a leading `#` is accepted).
fn parse_event(args: &Args) -> CliResult<Option<u64>> {
    let Some(spec) = args.get_str("--event") else {
        return Ok(None);
    };
    let id = spec
        .trim_start_matches('#')
        .parse()
        .map_err(|_| format!("invalid --event {spec:?} (expected a causal event id)"))?;
    Ok(Some(id))
}

/// Parses the series window: `--window <ns>` enables the series directly;
/// `--series-out` without `--window` uses a 100 µs default.
fn parse_window(args: &Args) -> CliResult<Option<SimDur>> {
    let ns = match args.get_str("--window") {
        Some(_) => args.get_or("--window", 0u64, "integer")?,
        None if args.get_str("--series-out").is_some() => 100_000,
        None => return Ok(None),
    };
    if ns == 0 {
        return Err("flag --window: window width must be > 0 ns".into());
    }
    Ok(Some(SimDur::from_nanos(ns)))
}

fn read_file(path: &str) -> CliResult<String> {
    Ok(std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?)
}

fn write_file(path: &str, contents: &str) -> CliResult {
    Ok(std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))?)
}

/// Runs one scenario with the telemetry collector attached and exports
/// the requested snapshot/timeline files.
///
/// With `--jobs N` (N > 1) the scenario is executed N times concurrently
/// and every export is asserted byte-identical across the copies before
/// the first one is used — a built-in determinism check: simulated time
/// is fully decoupled from host scheduling.
fn cmd_run(args: &Args) -> CliResult {
    let (scenario, blank) = chosen(args)?;
    let jobs = args.get_or("--jobs", 1usize, "integer")?.max(1);
    if jobs > 1 {
        let exports = sesame_sweep::run_sweep(jobs, jobs, |_| {
            observe(&scenario, blank.clone()).map(|t| {
                (
                    t.snapshot().to_json(),
                    t.chrome_trace(),
                    t.causes_json(),
                    t.series_json().unwrap_or_default(),
                )
            })
        });
        let exports = exports.into_iter().collect::<Result<Vec<_>, _>>()?;
        if let Some(i) = exports.iter().position(|copy| copy != &exports[0]) {
            return Err(format!("nondeterminism: concurrent run {i} diverged from run 0").into());
        }
        println!("{jobs} concurrent runs produced byte-identical exports");
    }
    // Profiled alone: the exported run, not the redundant copies above.
    let telemetry = with_hostprof(args, || Ok(observe(&scenario, blank)?))?;
    let snapshot = telemetry.snapshot();
    if let Some(path) = args.get_str("--metrics-out") {
        write_file(path, &snapshot.to_json())?;
        println!("wrote metrics snapshot to {path}");
    }
    if let Some(path) = args.get_str("--csv-out") {
        write_file(path, &snapshot.to_csv())?;
        println!("wrote metrics CSV to {path}");
    }
    if let Some(path) = args.get_str("--timeline-out") {
        write_file(path, &telemetry.chrome_trace())?;
        println!(
            "wrote Chrome trace ({} events) to {path} — open in chrome://tracing or ui.perfetto.dev",
            telemetry.timeline().len()
        );
    }
    if let Some(path) = args.get_str("--causes-out") {
        // Streamed: the document is never held in memory.
        let dag = telemetry.causes();
        std::fs::File::create(path)
            .and_then(|file| {
                let mut out = std::io::BufWriter::new(file);
                if path.ends_with(".dot") {
                    dag.write_dot(&mut out)?;
                } else {
                    dag.write_json(&mut out)?;
                }
                out.flush()
            })
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "wrote causal DAG ({} of {} recorded events: the ancestors of {} rollbacks and of the critical path) to {path}",
            dag.len(),
            dag.recorded(),
            dag.rollbacks().len()
        );
    }
    if let Some(path) = args.get_str("--series-out") {
        let contents = if path.ends_with(".csv") {
            telemetry.series_csv()
        } else {
            telemetry.series_json()
        }
        .expect("--series-out implies a series window");
        write_file(path, &contents)?;
        let series = telemetry.series_export().expect("series enabled");
        println!(
            "wrote time series ({} windows of {} ns) to {path}",
            series.windows.len(),
            series.window_ns
        );
    }
    print!("{}", render_report(&snapshot));
    if let Some(series) = telemetry.series_export() {
        print!("{}", render_series_report(&series));
    }
    Ok(())
}

/// Prints the cause→effect chains a causal DAG holds: one chain per
/// rollback (with its blame line), or — when nothing rolled back — the
/// chain ending at the latest recorded action.
fn print_causal_chains(dag: &CausalDag) {
    let rollbacks = dag.rollbacks();
    if rollbacks.is_empty() {
        println!("no rollbacks recorded");
        if let Some(path) = dag.critical_path() {
            if let Some(&last) = path.ids.last() {
                if let Some(text) = dag.render_chain(last) {
                    println!("chain to the last recorded action:");
                    print!("{text}");
                }
            }
        }
    }
    for id in rollbacks {
        let node = dag.get(id).expect("listed id");
        match node.conflict {
            Some((var, writer)) => println!(
                "rollback #{id} on node {} @ {}ns — invalidated by node {writer}'s write to v{var}:",
                node.actor,
                node.time.as_nanos()
            ),
            None => println!(
                "rollback #{id} on node {} @ {}ns:",
                node.actor,
                node.time.as_nanos()
            ),
        }
        if let Some(text) = dag.render_chain(id) {
            print!("{text}");
        }
    }
    if let Some(path) = dag.critical_path() {
        println!(
            "critical path: {} events, {}ns total = {}ns flight + {}ns sequencing + {}ns hold + {}ns wait",
            path.ids.len(),
            path.total_ns(),
            path.flight_ns,
            path.sequencing_ns,
            path.hold_ns,
            path.wait_ns,
        );
    }
}

/// Re-runs a scenario with causal tracing and explains its rollbacks (or
/// one specific causal event id via `--event`).
fn cmd_explain(args: &Args) -> CliResult {
    let (scenario, collector) = chosen(args)?;
    let telemetry = observe(&scenario, collector)?;
    let dag = telemetry.causes();
    if let Some(id) = parse_event(args)? {
        let text = dag.render_chain(id).ok_or_else(|| {
            format!(
                "unknown event id #{id}: this run recorded {} causal events",
                dag.recorded()
            )
        })?;
        println!("causal chain to #{id}:");
        print!("{text}");
        return Ok(());
    }
    println!(
        "{} causal events recorded over {}ns",
        dag.recorded(),
        telemetry.end().as_nanos()
    );
    print_causal_chains(dag);
    Ok(())
}

/// Renders a report from a saved metrics snapshot (validating the schema),
/// or from a fresh run when `--metrics-in` is absent.
fn cmd_report(args: &Args) -> CliResult {
    let mut series = None;
    let snapshot = match args.get_str("--metrics-in") {
        Some(path) => Snapshot::from_json(&read_file(path)?).map_err(|e| format!("{path}: {e}"))?,
        None => {
            let (scenario, collector) = chosen(args)?;
            let t = observe(&scenario, collector)?;
            series = t.series_export();
            t.snapshot()
        }
    };
    if let Some(path) = args.get_str("--series-in") {
        series =
            Some(SeriesExport::from_json(&read_file(path)?).map_err(|e| format!("{path}: {e}"))?);
    }
    print!("{}", render_report(&snapshot));
    if let Some(series) = &series {
        print!("{}", render_series_report(series));
    }
    Ok(())
}

/// The online verifier, counting the records it is fed — the "events" of
/// an `ok`/`FAIL` line.
#[derive(Default)]
struct CountingVerifier {
    verifier: Verifier,
    records: usize,
}

impl TraceObserver for CountingVerifier {
    fn on_record(&mut self, entry: &TraceEntry) {
        self.records += 1;
        self.verifier.feed(entry);
    }
}

/// The runs `verify` makes of one scenario — every model or method the
/// workload compares — labelled as the `ok`/`FAIL` lines print them.
/// Contention and the task queue start from verify's own sizes (4 x 30
/// rounds; 96 tasks on 4 CPUs) before the flags apply.
fn verify_runs(args: &Args, name: &str) -> CliResult<Vec<(String, Scenario)>> {
    use ModelChoice::{Entry, Gwc, Release};
    use MutexMethod::{OptimisticGwc, RegularGwc};
    let base = match smoke(name)? {
        Scenario::Contention(cfg) => Scenario::Contention(ContentionConfig { rounds: 30, ..cfg }),
        Scenario::TaskQueue { model, cfg, .. } => Scenario::TaskQueue {
            nodes: 4,
            model,
            cfg: TaskQueueConfig {
                total_tasks: 96,
                ..cfg
            },
        },
        other => other,
    };
    let runs = match scenario_flags(args, base)? {
        Scenario::ThreeCpu { cfg, .. } => [("gwc", Gwc), ("entry", Entry), ("release", Release)]
            .map(|(label, model)| (label, Scenario::ThreeCpu { model, cfg }))
            .to_vec(),
        Scenario::Contention(cfg) => [("optimistic", true), ("regular", false)]
            .map(|(label, optimistic)| {
                let mutex = OptimisticConfig {
                    optimistic,
                    ..cfg.mutex
                };
                (
                    label,
                    Scenario::Contention(ContentionConfig { mutex, ..cfg }),
                )
            })
            .to_vec(),
        Scenario::Pipeline { nodes, cfg, .. } => [
            ("optimistic", OptimisticGwc),
            ("regular", RegularGwc),
            ("entry", MutexMethod::Entry),
        ]
        .map(|(label, method)| (label, Scenario::Pipeline { nodes, method, cfg }))
        .to_vec(),
        Scenario::TaskQueue { nodes, cfg, .. } => [("gwc", Gwc), ("entry", Entry)]
            .map(|(label, model)| (label, Scenario::TaskQueue { nodes, model, cfg }))
            .to_vec(),
        one => vec![("gwc", one)],
    };
    let labelled = runs.into_iter().map(|(l, s)| (format!("{name}/{l}"), s));
    Ok(labelled.collect())
}

/// Runs the scenarios under the online `sesame-verify` checkers — no
/// trace is retained — and fails if any diagnostic is produced.
fn cmd_verify(args: &Args) -> CliResult {
    let mut checked: Vec<(String, usize, Vec<Violation>)> = Vec::new();
    let runs = match args.get_str("--scenario").unwrap_or("all") {
        "planted-bad" => {
            // A deliberately corrupt trace — the root grants the same lock to
            // two holders with no intervening release — so the failure path
            // (diagnostics printed, nonzero exit) can be exercised end to end.
            use sesame_sim::{SimTime, TraceDetail, TraceKind};
            let grant = |ns, holder| TraceEntry {
                time: SimTime::from_nanos(ns),
                actor: 0,
                kind: TraceKind::RootGrant,
                detail: TraceDetail::Grant {
                    group: 0,
                    var: 0,
                    holder,
                },
            };
            let entries = [grant(10, 1), grant(20, 2)];
            let name = "planted-bad/double-grant".to_string();
            checked.push((name, entries.len(), check_trace(&entries)));
            Vec::new()
        }
        "all" => {
            let mut runs = Vec::new();
            for name in Scenario::NAMES {
                runs.extend(verify_runs(args, name)?);
            }
            runs
        }
        name => verify_runs(args, name)?,
    };
    for (name, scenario) in runs {
        let observer = Rc::new(RefCell::new(CountingVerifier::default()));
        scenario.run(Some(observer.clone()))?;
        let mut counted = observer.borrow_mut();
        counted.verifier.finish();
        let violations = counted.verifier.violations().to_vec();
        checked.push((name, counted.records, violations));
    }

    let mut bad = 0usize;
    for (name, events, violations) in &checked {
        if violations.is_empty() {
            println!("ok   {name}: {events} events, 0 violations");
        } else {
            bad += violations.len();
            println!(
                "FAIL {name}: {events} events, {} violations",
                violations.len()
            );
            for v in violations {
                println!("     {v}");
            }
        }
    }
    if bad > 0 {
        return Err(format!("{bad} protocol violations detected").into());
    }
    println!(
        "verified {} scenario(s): races, mutual exclusion, GWC sequencing all clean",
        checked.len()
    );
    Ok(())
}

fn cmd_check(args: &Args) -> CliResult {
    use sesame_check::{
        check, parse_replay, replay, to_replay_string, CheckOptions, GwcMutation, LinkMode,
        MutexMutation,
    };

    if let Some(path) = args.get_str("--replay") {
        let (cfg, choices) = parse_replay(&read_file(path)?)?;
        let outcome = replay(cfg, &choices)?;
        println!(
            "replayed {} choices over {} CPUs: {} trace events, {}",
            choices.len(),
            cfg.contenders,
            outcome.trace_len,
            if outcome.drained {
                "run drained"
            } else {
                "run cut mid-flight"
            }
        );
        for note in &outcome.incomplete {
            println!("note {note}");
        }
        if outcome.violations.is_empty() {
            println!("no violations on the replayed schedule");
            return Ok(());
        }
        for v in &outcome.violations {
            println!("FAIL {v}");
        }
        let dag = CausalDag::from_trace(&outcome.trace);
        if !dag.is_empty() {
            print_causal_chains(&dag);
        }
        return Err(format!(
            "{} violation(s) reproduced from {path}",
            outcome.violations.len()
        )
        .into());
    }

    let mut cfg = canonical_flags(args, CanonicalConfig::default())?;
    // Checked before a bug is planted: the driver refuses mutants (its
    // default schedule runs them into the protocol's own asserts).
    Scenario::Canonical(cfg).validate()?;
    match args.get_str("--mutation").unwrap_or("none") {
        "none" => {}
        "stale-grant-reuse" => cfg.gwc_mutation = GwcMutation::StaleGrantReuse,
        "seq-gap" => cfg.gwc_mutation = GwcMutation::SeqGap,
        "drop-rollback" => cfg.mutex_mutation = MutexMutation::DropRollback,
        other => {
            return Err(format!(
                "unknown --mutation {other:?} \
                 (use none, stale-grant-reuse, seq-gap or drop-rollback)"
            )
            .into())
        }
    }
    let links = match args.get_str("--links").unwrap_or("fifo") {
        "fifo" => LinkMode::Fifo,
        "relax-roots" => LinkMode::RelaxFromRoots,
        "relax" => LinkMode::Relax,
        other => {
            return Err(
                format!("unknown --links {other:?} (use fifo, relax-roots or relax)").into(),
            )
        }
    };
    let defaults = CheckOptions::default();
    let opts = CheckOptions {
        depth_max: args.get_or("--depth", defaults.depth_max, "integer")?,
        schedules_max: args.get_or("--schedules-max", defaults.schedules_max, "integer")?,
        work_max: args.get_or("--work-max", defaults.work_max, "integer")?,
        hash_states: args.get_or("--hash-states", defaults.hash_states, "true or false")?,
        links,
    };

    let report = check(cfg, opts);
    println!(
        "explored {} schedule(s): {} truncated, {} sleep-blocked, {} pruned, max depth {}",
        report.schedules, report.truncated, report.sleep_blocked, report.pruned, report.max_depth
    );
    match &report.counterexample {
        None => {
            if report.complete {
                println!(
                    "complete: every schedule (up to reduction) is violation-free \
                     for {} CPUs x {} round(s)",
                    cfg.contenders, cfg.rounds
                );
            } else {
                println!("bounded search exhausted its budget without finding a violation");
            }
            Ok(())
        }
        Some(cx) => {
            println!(
                "counterexample after {} schedule(s), {} choices deep:",
                report.schedules,
                cx.choices.len()
            );
            for v in &cx.violations {
                println!("FAIL {v}");
            }
            let dag = CausalDag::from_trace(&cx.trace);
            if !dag.is_empty() {
                print_causal_chains(&dag);
            }
            let file = to_replay_string(cx);
            match args.get_str("--out") {
                Some(path) => {
                    write_file(path, &file)?;
                    println!(
                        "replay file written to {path} (re-run: sesame check --replay {path})"
                    );
                }
                None => print!("{file}"),
            }
            Err(format!(
                "{} violation(s) found by schedule exploration",
                cx.violations.len()
            )
            .into())
        }
    }
}

/// A subcommand implementation.
type Command = fn(&Args) -> CliResult;

fn dispatch(cmd: &str, rest: &[String]) -> CliResult {
    // The command's own flags, the scenario whose flags it also reads
    // (`--scenario`: the one that flag names), and its implementation.
    let (own, shares, f): (&str, &str, Command) = match cmd {
        "fig1" => ("", "three-cpu", cmd_fig1),
        "fig2" => (
            "--sizes --tasks --exec-us --ratio --format --jobs",
            "",
            cmd_fig2,
        ),
        "fig7" => ("", "", cmd_fig7),
        "fig8" => ("--sizes --visits --local-us --format --jobs", "", cmd_fig8),
        "bigmesh" => ("--hostprof-out", "bigmesh", cmd_bigmesh),
        "contention" => ("", "contention", cmd_contention),
        "run" => (
            "--scenario --metrics-out --csv-out --timeline-out --causes-out --series-out \
             --window --hostprof-out --jobs",
            "--scenario",
            cmd_run,
        ),
        "report" => (
            "--scenario --metrics-in --series-in --window",
            "--scenario",
            cmd_report,
        ),
        "explain" => ("--scenario --event", "--scenario", cmd_explain),
        "verify" => ("--scenario", "--scenario", cmd_verify),
        "check" => (
            "--links --mutation --depth --schedules-max --work-max --hash-states --out --replay",
            "canonical",
            cmd_check,
        ),
        _ => return Err(format!("unknown command {cmd:?}\n\n{USAGE}").into()),
    };
    let mut allowed: Vec<&str> = own.split_whitespace().collect();
    let mut whose = String::new();
    if shares == "--scenario" {
        // Resolved before the flags are parsed: which flags are known
        // depends on it.
        let default = if cmd == "verify" { "all" } else { "contention" };
        let at = rest.iter().position(|a| a == "--scenario");
        let name = at.and_then(|i| rest.get(i + 1)).map_or(default, |n| n);
        allowed.extend(scenario_flag_set(cmd, name)?);
        whose = format!(" for scenario {name}");
    } else {
        allowed.extend(flags_of(shares).unwrap_or_default().split_whitespace());
    }
    let args = Args::parse(rest, &allowed).map_err(|e| match e {
        ArgError::Unknown(_) => format!("{e}{whose}\n\n{USAGE}"),
        _ => format!("{e}\n\n{USAGE}"),
    })?;
    f(&args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(cmd) => match dispatch(cmd, &argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
    }
}

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
//! sesame check [--cpus N] [--mutation stale-grant-reuse] [--out cx.replay]
//! sesame check --replay cx.replay
//! ```

mod args;

use std::io::Write as _;
use std::process::ExitCode;

use args::Args;
use sesame_core::OptimisticConfig;
use sesame_sim::SimDur;
use sesame_telemetry::{render_report, render_series_report, CausalDag, SeriesExport, Snapshot};
use sesame_workloads::bigmesh::{run_bigmesh, BigMeshConfig};
use sesame_workloads::contention::{run_contention, ContentionConfig};
use sesame_workloads::experiments::{
    figure1, figure2_jobs, figure2_sizes, figure8_jobs, figure8_sizes, render_series,
};
use sesame_workloads::pipeline::PipelineConfig;
use sesame_workloads::task_queue::TaskQueueConfig;
use sesame_workloads::telemetry::{run_with_telemetry, Scenario, ScenarioOptions};
use sesame_workloads::three_cpu::Figure1Config;
use sesame_workloads::timeline::render_figure1_timeline;

// With the profiler compiled in, count this binary's heap traffic so
// `run --hostprof-out` reports real allocation numbers.
#[cfg(feature = "hostprof")]
#[global_allocator]
static ALLOC: sesame_sim::hostprof::CountingAlloc = sesame_sim::hostprof::CountingAlloc;

const USAGE: &str = "\
sesame — experiments from 'Optimistic Synchronization in Distributed Shared Memory' (ICDCS 1994)

USAGE:
    sesame <command> [flags]

COMMANDS:
    fig1          three-CPU locking comparison (GWC / entry / release)
                    --section-us <N=5>   in-section computation time
                    --words <N=16>       guarded data words per holder
    fig2          task-management speedup sweep (ideal / GWC / entry)
                    --sizes <list=3,5,9,17,33,65,129>
                    --tasks <N=1024>  --exec-us <N=1000>  --ratio <F=0.0078125>
                    --format <table|csv>
                    --jobs <N=1>      sweep worker threads (0 = all cores);
                                      output is identical for every N
    fig7          optimistic rollback under contention, with protocol stats
    fig8          mutex-method network power sweep
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
                    --scenario <three-cpu|contention|task-queue>  (default contention)
                    --contenders <N=4>  --rounds <N=25>  --tasks <N=48>
                    --nodes <N=5>  --seed <N=7>
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
                    --scenario/--contenders/--rounds/--tasks/--nodes/--seed
                                      as for run
                    --event <id>      explain one causal event id instead
                                      (exits nonzero if the id is unknown)
    verify        replay scenarios under the sesame-verify checkers
                    --scenario <all|three-cpu|contention|task-queue|planted-bad>
                    --contenders <N=4>  --rounds <N=30>
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
    bench         compare two bench --bench-out files (regression gate)
                  usage: sesame bench diff <base.json> <new.json>
                    --threshold <F=1.5>   allowed growth ratio of median_ns
                                      (and allowed shrink of events_per_sec)
                    --thresholds <g=F,...>  per-group threshold overrides
                    --groups <a,b>    compare only these bench groups
                  prints the per-case table and exits nonzero when any
                  case regressed past its threshold
    help          print this message
";

/// Renders series as a table or CSV depending on `--format`.
fn render(args: &Args, series: &[&sesame_sim::Series]) -> Result<String, String> {
    match args.get_str("--format") {
        None | Some("table") => Ok(render_series(series)),
        Some("csv") => Ok(series
            .iter()
            .map(|s| s.to_csv())
            .collect::<Vec<_>>()
            .join("\n")),
        Some(other) => Err(format!("unknown --format {other:?} (use table or csv)")),
    }
}

/// Parses the shared `--jobs` flag (sweep worker threads; 0 = all cores).
fn parse_jobs(args: &Args) -> Result<usize, String> {
    args.get_or("--jobs", 1usize, "integer")
        .map_err(|e| e.to_string())
}

fn parse_sizes(spec: &str) -> Result<Vec<usize>, String> {
    spec.split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|_| format!("bad size {s:?} in --sizes"))
        })
        .collect()
}

fn cmd_fig1(args: &Args) -> Result<(), String> {
    let section_us = args
        .get_or("--section-us", 5u64, "integer")
        .map_err(|e| e.to_string())?;
    let words = args
        .get_or("--words", 16u32, "integer")
        .map_err(|e| e.to_string())?;
    let cfg = Figure1Config {
        section: SimDur::from_us(section_us),
        data_words: words,
        ..Figure1Config::default()
    };
    let (runs, table) = figure1(cfg);
    println!("{table}");
    for r in &runs {
        println!("{}", render_figure1_timeline(r, 64));
    }
    Ok(())
}

fn cmd_fig2(args: &Args) -> Result<(), String> {
    let sizes = match args.get_str("--sizes") {
        Some(spec) => parse_sizes(spec)?,
        None => figure2_sizes(),
    };
    let cfg = TaskQueueConfig {
        total_tasks: args
            .get_or("--tasks", 1024u32, "integer")
            .map_err(|e| e.to_string())?,
        exec_time: SimDur::from_us(
            args.get_or("--exec-us", 1000u64, "integer")
                .map_err(|e| e.to_string())?,
        ),
        produce_ratio: args
            .get_or("--ratio", 1.0 / 128.0, "float")
            .map_err(|e| e.to_string())?,
        ..TaskQueueConfig::default()
    };
    let data = figure2_jobs(cfg, &sizes, parse_jobs(args)?);
    println!("{}", render(args, &[&data.ideal, &data.gwc, &data.entry])?);
    Ok(())
}

fn cmd_fig7(_args: &Args) -> Result<(), String> {
    let cfg = ContentionConfig {
        contenders: 3,
        rounds: 40,
        mean_think: SimDur::from_us(8),
        ..ContentionConfig::default()
    };
    let run = run_contention(cfg);
    let s = run.stats;
    println!("sections completed:   {}", run.sections);
    println!("optimistic attempts:  {}", s.optimistic_attempts);
    println!("regular attempts:     {}", s.regular_attempts);
    println!("rollbacks:            {}", s.rollbacks);
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

fn cmd_fig8(args: &Args) -> Result<(), String> {
    let sizes = match args.get_str("--sizes") {
        Some(spec) => parse_sizes(spec)?,
        None => figure8_sizes(),
    };
    let cfg = PipelineConfig {
        total_visits: args
            .get_or("--visits", 1024u32, "integer")
            .map_err(|e| e.to_string())?,
        local_calc: SimDur::from_us(
            args.get_or("--local-us", 5u64, "integer")
                .map_err(|e| e.to_string())?,
        ),
        ..PipelineConfig::default()
    };
    let data = figure8_jobs(cfg, &sizes, parse_jobs(args)?);
    println!(
        "{}",
        render(
            args,
            &[&data.ideal, &data.optimistic, &data.regular, &data.entry]
        )?
    );
    let r = data.headline_ratios();
    println!(
        "# at {} CPUs: opt/reg {:.2}, opt/entry {:.2}, reg/entry {:.2}",
        r.nodes, r.optimistic_over_regular, r.optimistic_over_entry, r.regular_over_entry
    );
    Ok(())
}

// Wall-clock reads report host throughput only; simulated results never
// depend on them (the determinism guard in clippy.toml bans them elsewhere).
#[allow(clippy::disallowed_methods)]
fn cmd_bigmesh(args: &Args) -> Result<(), String> {
    let defaults = BigMeshConfig::default();
    let cfg = BigMeshConfig {
        nodes: args
            .get_or("--nodes", defaults.nodes, "integer")
            .map_err(|e| e.to_string())?,
        laps: args
            .get_or("--laps", defaults.laps, "integer")
            .map_err(|e| e.to_string())?,
        local_calc: SimDur::from_us(
            args.get_or("--local-us", 5u64, "integer")
                .map_err(|e| e.to_string())?,
        ),
        shared_words: args
            .get_or("--shared-words", defaults.shared_words, "integer")
            .map_err(|e| e.to_string())?,
        event_limit: args
            .get_or("--event-limit", defaults.event_limit, "integer")
            .map_err(|e| e.to_string())?,
        rows: args
            .get_or("--rows", defaults.rows, "integer")
            .map_err(|e| e.to_string())?,
        cols: args
            .get_or("--cols", defaults.cols, "integer")
            .map_err(|e| e.to_string())?,
        ..defaults
    };
    if (cfg.rows == 0) != (cfg.cols == 0) {
        return Err("--rows and --cols must be given together".to_string());
    }
    let hostprof_out = args.get_str("--hostprof-out");
    #[cfg(not(feature = "hostprof"))]
    if hostprof_out.is_some() {
        return Err("--hostprof-out requires the host profiler: rebuild with \
             `cargo run -p sesame-cli --features hostprof -- bigmesh ...`"
            .to_string());
    }
    #[cfg(feature = "hostprof")]
    if hostprof_out.is_some() {
        sesame_sim::hostprof::reset();
    }
    let wall = std::time::Instant::now();
    let run = run_bigmesh(cfg);
    let wall = wall.elapsed();
    #[cfg(feature = "hostprof")]
    if let Some(path) = hostprof_out {
        let profile = sesame_sim::hostprof::report();
        write_file(path, &profile.to_json())?;
        println!(
            "wrote host profile ({} events, queue depth max {}) to {path}",
            profile.events, profile.queue_depth_max
        );
    }
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
    let expected = cfg.laps as u64 * run.nodes as u64;
    if run.outcome != sesame_sim::RunOutcome::Drained || run.visits != expected {
        return Err(format!(
            "bigmesh run did not complete: outcome {:?}, {} of {} visits, {} of {} rows",
            run.outcome, run.visits, expected, run.completed_rows, run.rows
        ));
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

fn cmd_contention(args: &Args) -> Result<(), String> {
    let contenders = args
        .get_or("--contenders", 6u32, "integer")
        .map_err(|e| e.to_string())?;
    let rounds = args
        .get_or("--rounds", 50u32, "integer")
        .map_err(|e| e.to_string())?;
    let think_us = args
        .get_or("--think-us", 50u64, "integer")
        .map_err(|e| e.to_string())?;
    let base = ContentionConfig {
        contenders,
        rounds,
        mean_think: SimDur::from_us(think_us),
        ..ContentionConfig::default()
    };
    let opt = run_contention(base);
    let reg = run_contention(ContentionConfig {
        mutex: OptimisticConfig {
            optimistic: false,
            ..OptimisticConfig::default()
        },
        ..base
    });
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

/// Parses the scenario options shared by `run` and `report`.
fn scenario_options(args: &Args) -> Result<(Scenario, ScenarioOptions), String> {
    let name = args.get_str("--scenario").unwrap_or("contention");
    let scenario = Scenario::parse(name).ok_or_else(|| {
        format!("unknown --scenario {name:?} (use three-cpu, contention or task-queue)")
    })?;
    let defaults = ScenarioOptions::default();
    let opts = ScenarioOptions {
        contenders: args
            .get_or("--contenders", defaults.contenders, "integer")
            .map_err(|e| e.to_string())?,
        rounds: args
            .get_or("--rounds", defaults.rounds, "integer")
            .map_err(|e| e.to_string())?,
        tasks: args
            .get_or("--tasks", defaults.tasks, "integer")
            .map_err(|e| e.to_string())?,
        nodes: args
            .get_or("--nodes", defaults.nodes, "integer")
            .map_err(|e| e.to_string())?,
        seed: args
            .get_or("--seed", defaults.seed, "integer")
            .map_err(|e| e.to_string())?,
        timeline: args.get_str("--timeline-out").is_some(),
        window: parse_window(args)?,
        explain: parse_event(args)?,
    };
    Ok((scenario, opts))
}

/// Parses `explain`'s `--event <id>` (a leading `#` is accepted).
fn parse_event(args: &Args) -> Result<Option<u64>, String> {
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
fn parse_window(args: &Args) -> Result<Option<SimDur>, String> {
    let ns = match args.get_str("--window") {
        Some(spec) => spec
            .parse::<u64>()
            .map_err(|_| format!("flag --window: cannot parse {spec:?} as integer"))?,
        None if args.get_str("--series-out").is_some() => 100_000,
        None => return Ok(None),
    };
    if ns == 0 {
        return Err("flag --window: window width must be > 0 ns".to_string());
    }
    Ok(Some(SimDur::from_nanos(ns)))
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Runs one scenario with the telemetry collector attached and exports
/// the requested snapshot/timeline files.
///
/// With `--jobs N` (N > 1) the scenario is executed N times concurrently
/// and every export is asserted byte-identical across the copies before
/// the first one is used — a built-in determinism check: simulated time
/// is fully decoupled from host scheduling.
fn cmd_run(args: &Args) -> Result<(), String> {
    let (scenario, opts) = scenario_options(args)?;
    let jobs = parse_jobs(args)?.max(1);
    let hostprof_out = args.get_str("--hostprof-out");
    #[cfg(not(feature = "hostprof"))]
    if hostprof_out.is_some() {
        return Err("--hostprof-out requires the host profiler: rebuild with \
             `cargo run -p sesame-cli --features hostprof -- run ...`"
            .to_string());
    }
    if jobs > 1 {
        let exports = sesame_sweep::run_sweep(jobs, jobs, |_| {
            let t = run_with_telemetry(scenario, &opts);
            (
                t.snapshot().to_json(),
                t.chrome_trace(),
                t.causes_json(),
                t.series_json().unwrap_or_default(),
            )
        });
        for (i, copy) in exports.iter().enumerate().skip(1) {
            if copy != &exports[0] {
                return Err(format!(
                    "nondeterminism: concurrent run {i} diverged from run 0"
                ));
            }
        }
        println!("{jobs} concurrent runs produced byte-identical exports");
    }
    // Reset the (thread-local) host profile so it covers exactly the
    // exported single run, not the redundant determinism copies.
    #[cfg(feature = "hostprof")]
    if hostprof_out.is_some() {
        sesame_sim::hostprof::reset();
    }
    let telemetry = run_with_telemetry(scenario, &opts);
    #[cfg(feature = "hostprof")]
    if let Some(path) = hostprof_out {
        let profile = sesame_sim::hostprof::report();
        write_file(path, &profile.to_json())?;
        println!(
            "wrote host profile ({} events, {} trace records) to {path}",
            profile.events, profile.trace_records
        );
    }
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
fn cmd_explain(args: &Args) -> Result<(), String> {
    let (scenario, opts) = scenario_options(args)?;
    let telemetry = run_with_telemetry(scenario, &opts);
    let dag = telemetry.causes();
    if let Some(id) = opts.explain {
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
fn cmd_report(args: &Args) -> Result<(), String> {
    let mut series = None;
    let snapshot = match args.get_str("--metrics-in") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Snapshot::from_json(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => {
            let (scenario, opts) = scenario_options(args)?;
            let t = run_with_telemetry(scenario, &opts);
            series = t.series_export();
            t.snapshot()
        }
    };
    if let Some(path) = args.get_str("--series-in") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        series = Some(SeriesExport::from_json(&text).map_err(|e| format!("{path}: {e}"))?);
    }
    print!("{}", render_report(&snapshot));
    if let Some(series) = &series {
        print!("{}", render_series_report(series));
    }
    Ok(())
}

/// Replays the seed scenarios with tracing on, runs every `sesame-verify`
/// checker over each trace, and fails if any diagnostic is produced.
fn cmd_verify(args: &Args) -> Result<(), String> {
    use sesame_core::builder::ModelChoice;
    use sesame_verify::{check_recorder, check_trace, Violation};
    use sesame_workloads::task_queue::run_task_queue;
    use sesame_workloads::three_cpu::run_figure1;

    let scenario = args.get_str("--scenario").unwrap_or("all");
    let contenders = args
        .get_or("--contenders", 4u32, "integer")
        .map_err(|e| e.to_string())?;
    let rounds = args
        .get_or("--rounds", 30u32, "integer")
        .map_err(|e| e.to_string())?;

    let mut checked: Vec<(String, usize, Vec<Violation>)> = Vec::new();
    let mut check = |name: String, trace: &sesame_sim::TraceRecorder| {
        checked.push((name, trace.entries().len(), check_recorder(trace)));
    };

    if matches!(scenario, "all" | "three-cpu") {
        for model in [ModelChoice::Gwc, ModelChoice::Entry, ModelChoice::Release] {
            let run = run_figure1(model, Figure1Config::default());
            check(format!("three-cpu/{}", run.model), &run.trace);
        }
    }
    if matches!(scenario, "all" | "contention") {
        for optimistic in [true, false] {
            let run = run_contention(ContentionConfig {
                contenders,
                rounds,
                mutex: OptimisticConfig {
                    optimistic,
                    ..OptimisticConfig::default()
                },
                tracing: true,
                ..ContentionConfig::default()
            });
            let name = if optimistic { "optimistic" } else { "regular" };
            check(format!("contention/{name}"), &run.result.trace);
        }
    }
    if matches!(scenario, "all" | "task-queue") {
        let run = run_task_queue(
            4,
            ModelChoice::Gwc,
            TaskQueueConfig {
                total_tasks: 96,
                tracing: true,
                ..TaskQueueConfig::default()
            },
        );
        check("task-queue/gwc".to_string(), &run.result.trace);
    }
    if scenario == "planted-bad" {
        // A deliberately corrupt trace — the root grants the same lock to
        // two holders with no intervening release — so the failure path
        // (diagnostics printed, nonzero exit) can be exercised end to end.
        use sesame_sim::{SimTime, TraceDetail, TraceEntry};
        let entries = vec![
            TraceEntry {
                time: SimTime::from_nanos(10),
                actor: 0,
                kind: "root-grant",
                detail: TraceDetail::Grant {
                    group: 0,
                    var: 0,
                    holder: 1,
                },
            },
            TraceEntry {
                time: SimTime::from_nanos(20),
                actor: 0,
                kind: "root-grant",
                detail: TraceDetail::Grant {
                    group: 0,
                    var: 0,
                    holder: 2,
                },
            },
        ];
        checked.push((
            "planted-bad/double-grant".to_string(),
            entries.len(),
            check_trace(&entries),
        ));
    }
    if checked.is_empty() {
        return Err(format!(
            "unknown --scenario {scenario:?} \
             (use all, three-cpu, contention, task-queue or planted-bad)"
        ));
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
        return Err(format!("{bad} protocol violations detected"));
    }
    println!(
        "verified {} scenario(s): races, mutual exclusion, GWC sequencing all clean",
        checked.len()
    );
    Ok(())
}

fn cmd_check(args: &Args) -> Result<(), String> {
    use sesame_check::{
        check, parse_replay, replay, to_replay_string, CanonicalConfig, CheckOptions, GwcMutation,
        LinkMode, MutexMutation,
    };

    if let Some(path) = args.get_str("--replay") {
        let contents =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let (cfg, choices) = parse_replay(&contents)?;
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
        ));
    }

    let mut cfg = CanonicalConfig {
        contenders: args
            .get_or("--cpus", 2u32, "integer")
            .map_err(|e| e.to_string())?,
        rounds: args
            .get_or("--rounds", 1u32, "integer")
            .map_err(|e| e.to_string())?,
        ..CanonicalConfig::default()
    };
    match args.get_str("--mutation").unwrap_or("none") {
        "none" => {}
        "stale-grant-reuse" => cfg.gwc_mutation = GwcMutation::StaleGrantReuse,
        "seq-gap" => cfg.gwc_mutation = GwcMutation::SeqGap,
        "drop-rollback" => cfg.mutex_mutation = MutexMutation::DropRollback,
        other => {
            return Err(format!(
                "unknown --mutation {other:?} \
                 (use none, stale-grant-reuse, seq-gap or drop-rollback)"
            ))
        }
    }
    let links = match args.get_str("--links").unwrap_or("fifo") {
        "fifo" => LinkMode::Fifo,
        "relax-roots" => LinkMode::RelaxFromRoots,
        "relax" => LinkMode::Relax,
        other => {
            return Err(format!(
                "unknown --links {other:?} (use fifo, relax-roots or relax)"
            ))
        }
    };
    let defaults = CheckOptions::default();
    let opts = CheckOptions {
        depth_max: args
            .get_or("--depth", defaults.depth_max, "integer")
            .map_err(|e| e.to_string())?,
        schedules_max: args
            .get_or("--schedules-max", defaults.schedules_max, "integer")
            .map_err(|e| e.to_string())?,
        work_max: args
            .get_or("--work-max", defaults.work_max, "integer")
            .map_err(|e| e.to_string())?,
        hash_states: args
            .get_or("--hash-states", defaults.hash_states, "true or false")
            .map_err(|e| e.to_string())?,
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
                    std::fs::write(path, &file).map_err(|e| format!("cannot write {path}: {e}"))?;
                    println!(
                        "replay file written to {path} (re-run: sesame check --replay {path})"
                    );
                }
                None => print!("{file}"),
            }
            Err(format!(
                "{} violation(s) found by schedule exploration",
                cx.violations.len()
            ))
        }
    }
}

/// `sesame bench diff <base.json> <new.json>` — the bench-trajectory
/// regression gate. Takes positional file arguments, so it bypasses the
/// flag-only [`Args::parse`] until the paths are peeled off.
fn cmd_bench(rest: &[String]) -> Result<(), String> {
    match rest.first().map(String::as_str) {
        Some("diff") => {}
        Some(other) => {
            return Err(format!(
                "unknown bench subcommand {other:?} (expected diff)\n\n{USAGE}"
            ))
        }
        None => {
            return Err(format!(
                "bench needs a subcommand: diff <base.json> <new.json>\n\n{USAGE}"
            ))
        }
    }
    let mut paths = Vec::new();
    let mut flags = Vec::new();
    for a in &rest[1..] {
        if a.starts_with("--") || !flags.is_empty() {
            flags.push(a.clone());
        } else {
            paths.push(a.clone());
        }
    }
    let [base_path, new_path] = paths.as_slice() else {
        return Err(format!(
            "bench diff takes exactly two files (base, new), got {}\n\n{USAGE}",
            paths.len()
        ));
    };
    let args = Args::parse(&flags, &["--threshold", "--thresholds", "--groups"])
        .map_err(|e| format!("{e}\n\n{USAGE}"))?;

    let mut opts = sesame_bench::DiffOptions {
        default_threshold: args
            .get_or("--threshold", 1.5f64, "number")
            .map_err(|e| e.to_string())?,
        ..sesame_bench::DiffOptions::default()
    };
    if opts.default_threshold <= 0.0 {
        return Err("--threshold must be positive".to_string());
    }
    if let Some(spec) = args.get_str("--thresholds") {
        for part in spec.split(',') {
            let (group, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad --thresholds entry {part:?} (want group=ratio)"))?;
            let ratio: f64 = value
                .parse()
                .map_err(|_| format!("bad ratio {value:?} in --thresholds"))?;
            if ratio <= 0.0 {
                return Err(format!("--thresholds ratio for {group:?} must be positive"));
            }
            opts.group_thresholds
                .insert(group.trim().to_string(), ratio);
        }
    }
    if let Some(spec) = args.get_str("--groups") {
        opts.groups = spec.split(',').map(|g| g.trim().to_string()).collect();
    }

    let load = |path: &str| -> Result<Vec<sesame_bench::BenchRecord>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        sesame_bench::parse_bench_lines(&text).map_err(|e| format!("{path}: {e}"))
    };
    let base = load(base_path)?;
    let new = load(new_path)?;
    let report = sesame_bench::diff(&base, &new, &opts);
    print!("{}", report.render());
    match report.regressions() {
        0 => Ok(()),
        n => Err(format!("{n} bench case(s) regressed against {base_path}")),
    }
}

/// A subcommand implementation.
type Command = fn(&Args) -> Result<(), String>;

fn dispatch(cmd: &str, rest: &[String]) -> Result<(), String> {
    // `bench` takes positional arguments, which Args::parse does not
    // model — it routes around the flag table.
    if cmd == "bench" {
        return cmd_bench(rest);
    }
    let (allowed, f): (&[&'static str], Command) = match cmd {
        "fig1" => (&["--section-us", "--words"], cmd_fig1),
        "fig2" => (
            &[
                "--sizes",
                "--tasks",
                "--exec-us",
                "--ratio",
                "--format",
                "--jobs",
            ],
            cmd_fig2,
        ),
        "fig7" => (&[], cmd_fig7),
        "fig8" => (
            &["--sizes", "--visits", "--local-us", "--format", "--jobs"],
            cmd_fig8,
        ),
        "bigmesh" => (
            &[
                "--nodes",
                "--rows",
                "--cols",
                "--laps",
                "--local-us",
                "--shared-words",
                "--event-limit",
                "--hostprof-out",
            ],
            cmd_bigmesh,
        ),
        "contention" => (&["--contenders", "--rounds", "--think-us"], cmd_contention),
        "run" => (
            &[
                "--scenario",
                "--contenders",
                "--rounds",
                "--tasks",
                "--nodes",
                "--seed",
                "--metrics-out",
                "--csv-out",
                "--timeline-out",
                "--causes-out",
                "--series-out",
                "--window",
                "--hostprof-out",
                "--jobs",
            ],
            cmd_run,
        ),
        "report" => (
            &[
                "--metrics-in",
                "--series-in",
                "--window",
                "--scenario",
                "--contenders",
                "--rounds",
                "--tasks",
                "--nodes",
                "--seed",
            ],
            cmd_report,
        ),
        "explain" => (
            &[
                "--scenario",
                "--contenders",
                "--rounds",
                "--tasks",
                "--nodes",
                "--seed",
                "--event",
            ],
            cmd_explain,
        ),
        "verify" => (&["--scenario", "--contenders", "--rounds"], cmd_verify),
        "check" => (
            &[
                "--cpus",
                "--rounds",
                "--links",
                "--mutation",
                "--depth",
                "--schedules-max",
                "--work-max",
                "--hash-states",
                "--out",
                "--replay",
            ],
            cmd_check,
        ),
        _ => return Err(format!("unknown command {cmd:?}\n\n{USAGE}")),
    };
    let args = Args::parse(rest, allowed).map_err(|e| format!("{e}\n\n{USAGE}"))?;
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

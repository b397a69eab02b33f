//! Scenario flags: which `--flag`s each scenario reads, and the one
//! function per scenario that reads them into its typed config.
//!
//! Each parser is shared by the scenario's dedicated command and by
//! `--scenario`; the caller passes its own defaults, so `run --scenario
//! contention` keeps 4 x 25 where `contention` keeps 6 x 50.

use sesame_sim::SimDur;
use sesame_workloads::bigmesh::BigMeshConfig;
use sesame_workloads::canonical::CanonicalConfig;
use sesame_workloads::contention::ContentionConfig;
use sesame_workloads::pipeline::PipelineConfig;
use sesame_workloads::scenario::Scenario;
use sesame_workloads::task_queue::TaskQueueConfig;
use sesame_workloads::three_cpu::Figure1Config;

use crate::args::{ArgError, Args};
use crate::CliResult;

/// `--flag <µs>` as a duration, or `default` when the flag is absent.
fn micros(args: &Args, flag: &'static str, default: SimDur) -> Result<SimDur, ArgError> {
    match args.get_str(flag) {
        None => Ok(default),
        Some(_) => args.get_or(flag, 0u64, "integer").map(SimDur::from_us),
    }
}

/// The flags the named scenario's parser reads, space-separated.
pub fn flags_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "three-cpu" => "--section-us --words",
        "contention" => "--contenders --rounds --think-us",
        "task-queue" => "--nodes --tasks --exec-us --ratio",
        "pipeline" => "--nodes --visits --local-us",
        "bigmesh" => "--nodes --rows --cols --laps --local-us --shared-words --event-limit",
        "canonical" => "--cpus --rounds",
        _ => return None,
    })
}

/// The scenarios whose telemetry snapshot records `--seed` (only
/// contention also draws from it).
const SEEDED: [&str; 3] = ["three-cpu", "contention", "task-queue"];

pub fn figure1_flags(args: &Args, d: Figure1Config) -> Result<Figure1Config, ArgError> {
    Ok(Figure1Config {
        section: micros(args, "--section-us", d.section)?,
        data_words: args.get_or("--words", d.data_words, "integer")?,
        ..d
    })
}

pub fn contention_flags(args: &Args, d: ContentionConfig) -> Result<ContentionConfig, ArgError> {
    Ok(ContentionConfig {
        contenders: args.get_or("--contenders", d.contenders, "integer")?,
        rounds: args.get_or("--rounds", d.rounds, "integer")?,
        mean_think: micros(args, "--think-us", d.mean_think)?,
        seed: args.get_or("--seed", d.seed, "integer")?,
        ..d
    })
}

pub fn task_queue_flags(args: &Args, d: TaskQueueConfig) -> Result<TaskQueueConfig, ArgError> {
    Ok(TaskQueueConfig {
        total_tasks: args.get_or("--tasks", d.total_tasks, "integer")?,
        exec_time: micros(args, "--exec-us", d.exec_time)?,
        produce_ratio: args.get_or("--ratio", d.produce_ratio, "float")?,
        ..d
    })
}

pub fn pipeline_flags(args: &Args, d: PipelineConfig) -> Result<PipelineConfig, ArgError> {
    Ok(PipelineConfig {
        total_visits: args.get_or("--visits", d.total_visits, "integer")?,
        local_calc: micros(args, "--local-us", d.local_calc)?,
        ..d
    })
}

pub fn bigmesh_flags(args: &Args, d: BigMeshConfig) -> Result<BigMeshConfig, ArgError> {
    Ok(BigMeshConfig {
        nodes: args.get_or("--nodes", d.nodes, "integer")?,
        rows: args.get_or("--rows", d.rows, "integer")?,
        cols: args.get_or("--cols", d.cols, "integer")?,
        laps: args.get_or("--laps", d.laps, "integer")?,
        local_calc: micros(args, "--local-us", d.local_calc)?,
        shared_words: args.get_or("--shared-words", d.shared_words, "integer")?,
        event_limit: args.get_or("--event-limit", d.event_limit, "integer")?,
        ..d
    })
}

pub fn canonical_flags(args: &Args, d: CanonicalConfig) -> Result<CanonicalConfig, ArgError> {
    Ok(CanonicalConfig {
        contenders: args.get_or("--cpus", d.contenders, "integer")?,
        rounds: args.get_or("--rounds", d.rounds, "integer")?,
        ..d
    })
}

/// Applies the scenario's own flags to `base`, the command's default
/// instance of it.
pub fn scenario_flags(args: &Args, base: Scenario) -> Result<Scenario, ArgError> {
    Ok(match base {
        Scenario::ThreeCpu { model, cfg } => Scenario::ThreeCpu {
            model,
            cfg: figure1_flags(args, cfg)?,
        },
        Scenario::Contention(cfg) => Scenario::Contention(contention_flags(args, cfg)?),
        Scenario::TaskQueue { nodes, model, cfg } => Scenario::TaskQueue {
            nodes: args.get_or("--nodes", nodes, "integer")?,
            model,
            cfg: task_queue_flags(args, cfg)?,
        },
        Scenario::Pipeline { nodes, method, cfg } => Scenario::Pipeline {
            nodes: args.get_or("--nodes", nodes, "integer")?,
            method,
            cfg: pipeline_flags(args, cfg)?,
        },
        Scenario::BigMesh(cfg) => Scenario::BigMesh(bigmesh_flags(args, cfg)?),
        Scenario::Canonical(cfg) => Scenario::Canonical(canonical_flags(args, cfg)?),
    })
}

/// The scenario flags `run|report|explain|verify --scenario <name>` may
/// carry: the named scenario's, plus `--seed` where a telemetry snapshot
/// records it. `verify` also takes `all` (every scenario's flags, each
/// read by the scenarios that know it) and `planted-bad` (none).
pub fn scenario_flag_set(cmd: &str, name: &str) -> CliResult<Vec<&'static str>> {
    let verify = cmd == "verify";
    let names: &[&str] = match name {
        "all" if verify => &Scenario::NAMES,
        "planted-bad" if verify => &[],
        _ if flags_of(name).is_some() => std::slice::from_ref(&name),
        _ => {
            let extra = if verify { "all, planted-bad, " } else { "" };
            let names = Scenario::NAMES.join(", ");
            return Err(format!("unknown --scenario {name:?} (use {extra}{names})").into());
        }
    };
    let mut flags: Vec<&'static str> = names
        .iter()
        .filter_map(|name| flags_of(name))
        .flat_map(str::split_whitespace)
        .collect();
    if !verify && SEEDED.contains(&name) {
        flags.push("--seed");
    }
    Ok(flags)
}

//! The CLI's one table — every command's flags and every scenario's, with
//! defaults and help — the help rendered from it, and the parsers that
//! read scenario flags into typed configs. Each parser is shared by the
//! scenario's dedicated command and by `--scenario`, with the caller's
//! defaults: `run --scenario contention` keeps 4 x 25 where `contention`
//! (whose row restates both) keeps 6 x 50.

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

/// A flag as help states it: its name, the value it takes (after a `=`,
/// its default) and what it does.
pub type Flag = (&'static str, &'static str, &'static str);

/// A subcommand: its name, what it does, its own flags (one the shared
/// scenario also has restates only its default), the scenario whose flags
/// it also reads (with a `--scenario` flag: the one that names), its code.
pub struct Command {
    pub name: &'static str,
    pub about: &'static str,
    pub flags: &'static [Flag],
    pub shares: &'static str,
    pub run: fn(&Args) -> CliResult,
}

const SEED: Flag = ("--seed", "N=7", "");

/// Every scenario's flags at `Scenario::parse`'s smoke sizes. `--seed` is
/// for `run`, `report` and `explain`: the snapshot records it (contention
/// also draws from it).
#[rustfmt::skip]
pub const SCENARIOS: [(&str, &[Flag]); 6] = [
    ("three-cpu", &[("--section-us", "N=5", "in-section computation time"),
        ("--words", "N=16", "guarded data words per holder"), SEED]),
    ("contention", &[("--contenders", "N=4", ""), ("--rounds", "N=25", ""),
        ("--think-us", "N=50", ""), SEED]),
    ("task-queue", &[("--nodes", "N=5", ""), ("--tasks", "N=48", ""), ("--exec-us", "N=1000", ""),
        ("--ratio", "F=0.0078125", ""), SEED]),
    ("pipeline", &[("--nodes", "N=8", ""), ("--visits", "N=128", ""), ("--local-us", "N=5", "")]),
    ("bigmesh", &[("--nodes", "N=400", ""), ("--laps", "N=1", ""), ("--local-us", "N=5", ""),
        ("--rows", "N", "explicit mesh geometry, with --cols\n\
                         (overrides --nodes; 100000x10 is\nthe 1M-node run)"),
        ("--cols", "N", ""), ("--shared-words", "N=1", ""), ("--event-limit", "N=500000000", "")]),
    ("canonical", &[("--cpus", "N=3", "contending CPUs"), ("--rounds", "N=2", "")]),
];

/// The default a flag's value states: what follows its `=`.
pub fn default_of(flag: &Flag) -> Option<&'static str> {
    flag.1.split_once('=').map(|(_, default)| default)
}

impl Command {
    /// The flags this command's block lists: the shared scenario's (with
    /// any default this command restates), then its own.
    pub fn listed(&self) -> Vec<Flag> {
        let shared = SCENARIOS.iter().filter(|s| s.0 == self.shares);
        let mut flags: Vec<Flag> = shared.flat_map(|s| s.1).copied().collect();
        flags.retain(|f| f.0 != "--seed");
        for &own in self.flags {
            match flags.iter_mut().find(|f| f.0 == own.0) {
                Some(shared) => shared.1 = own.1,
                None => flags.push(own),
            }
        }
        flags
    }

    /// The flags `rest` may carry, and what an unknown one's error adds:
    /// the listed ones and, with a `--scenario` flag, those of the
    /// scenario it names — resolved first, since which flags are known
    /// depends on it (`all`: every scenario's, each read by the scenarios
    /// that know it). `verify` never takes `--seed`.
    pub fn accepted(&self, rest: &[String]) -> (Vec<&'static str>, String) {
        let mut names: Vec<&'static str> = self.listed().iter().map(|f| f.0).collect();
        let Some(flag) = self.flags.iter().find(|f| f.0 == "--scenario") else {
            return (names, String::new());
        };
        let at = rest.iter().position(|a| a == "--scenario");
        let given = at.and_then(|i| rest.get(i + 1));
        let name = given.map_or(default_of(flag).unwrap_or_default(), |n| n);
        let chosen = SCENARIOS.iter().filter(|s| s.0 == name || name == "all");
        let flags = chosen.flat_map(|s| s.1).map(|f| f.0);
        names.extend(flags.filter(|&f| self.name != "verify" || f != "--seed"));
        (names, format!(" for scenario {name}"))
    }

    /// This command's block of the help: its name and summary, then each
    /// flag it lists, one a line, its help from column 38 (a `\n` in a text
    /// starts a new line there).
    fn block(&self) -> String {
        let indented = |text: &str, col| text.replace('\n', &format!("\n{:col$}", ""));
        let mut out = format!("    {:<14}{}\n", self.name, indented(self.about, 18));
        for (name, value, help) in self.listed() {
            let spec = format!("{:20}{name} <{value}>", "");
            let gap = match help.chars().next() {
                None | Some('\n') => 0,
                _ => 38usize.saturating_sub(spec.len()).max(2),
            };
            out += &format!("{spec}{:gap$}{}\n", "", indented(help, 38));
        }
        out
    }

    /// What `sesame <command> --help` prints: the command's block, and the
    /// scenarios when it takes `--scenario`.
    pub fn help(&self) -> String {
        match self.flags.iter().any(|f| f.0 == "--scenario") {
            true => format!("{}\n{}", self.block(), scenarios()),
            false => self.block(),
        }
    }
}

/// The scenarios `--scenario` names, each with its flags, three a line.
fn scenarios() -> String {
    let mut out = String::from("SCENARIOS (the names --scenario takes, with their flags):\n");
    for (name, flags) in SCENARIOS {
        let specs: Vec<String> = flags.iter().map(|(n, v, _)| format!("{n} <{v}>")).collect();
        let lines: Vec<String> = specs.chunks(3).map(|line| line.join("  ")).collect();
        out += &format!("    {name:<14}{}\n", lines.join(&format!("\n{:18}", "")));
    }
    out
}

/// `sesame help`: every command's block, then the scenarios.
pub fn usage(commands: &[Command]) -> String {
    let blocks: String = commands.iter().map(Command::block).collect();
    format!(
        "sesame — experiments from 'Optimistic Synchronization in Distributed Shared Memory' \
         (ICDCS 1994)\n\nUSAGE:\n    sesame <command> [flags]\n    sesame <command> --help\n    \
         sesame help\n\n\
         COMMANDS:\n{blocks}\n{}",
        scenarios()
    )
}

/// `--flag <µs>` as a duration, or `default` when the flag is absent.
fn micros(args: &Args, flag: &'static str, default: SimDur) -> Result<SimDur, ArgError> {
    match args.get_str(flag) {
        None => Ok(default),
        Some(_) => args.get_or(flag, 0u64, "integer").map(SimDur::from_us),
    }
}

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

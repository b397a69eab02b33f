//! One way to run a scenario.
//!
//! The paper's evaluation is one program run unchanged under each
//! consistency model and each mutex method, then compared — a comparison
//! only as trustworthy as the harness that runs every variant. This is
//! that harness: a closed [`Scenario`] enum whose variants carry each
//! workload's own typed config, and one driver, [`Scenario::run`], that
//! validates the parameters, builds the machine, runs it (with an optional
//! online observer), applies the workload's oracle and returns both the
//! machine-level [`RunResult`] and the workload's typed run — or a
//! [`RunError`] saying which of those steps failed. Every front end (the
//! `sesame` CLI, the benches, the typed `run_x` functions of the workload
//! modules) goes through it.
//!
//! Each workload module supplies the two halves the driver pairs: *build*
//! (config → machine plus the probe its programs report into) and *finish*
//! (result plus probe → typed run, the oracle's verdict as `Err`).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use sesame_core::builder::{BuildError, ModelChoice, ModelInstance};
use sesame_core::{MutexMutation, OptimisticConfig};
use sesame_dsm::{run_observed, GwcMutation, RunOptions, RunResult};
use sesame_net::MeshTorus2d;
use sesame_sim::{RunOutcome, TraceObserver, DEFAULT_EVENT_LIMIT};

use crate::bigmesh::{self, BigMeshConfig, BigMeshRun};
use crate::canonical::{self, CanonicalConfig};
use crate::contention::{self, ContentionConfig, ContentionRun};
use crate::pipeline::{self, MutexMethod, PipelineConfig, PipelineRun};
use crate::task_queue::{self, TaskQueueConfig, TaskQueueRun};
use crate::three_cpu::{self, Figure1Config, Figure1Run};

/// A workload with everything needed to run it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// Figure 1: three CPUs, three successive mutex accesses.
    ThreeCpu {
        /// The consistency model under comparison.
        model: ModelChoice,
        /// Section length, guarded words, timing.
        cfg: Figure1Config,
    },
    /// K contenders hammering one lock with the optimistic engine (the
    /// Figure 7 regime at scale).
    Contention(ContentionConfig),
    /// Figure 2: task management through a lock-protected shared queue.
    TaskQueue {
        /// System size: one producer plus `nodes - 1` consumers.
        nodes: usize,
        /// The consistency model under comparison.
        model: ModelChoice,
        /// Task count, times, queue shape.
        cfg: TaskQueueConfig,
    },
    /// Figure 8: the single-token ring pipeline.
    Pipeline {
        /// Ring size.
        nodes: usize,
        /// The mutual exclusion method under comparison.
        method: MutexMethod,
        /// Visit count, computation times, word counts.
        cfg: PipelineConfig,
    },
    /// The scaling scenario: one token pipeline per mesh row.
    BigMesh(BigMeshConfig),
    /// The model checker's canonical mutex, on its default schedule.
    Canonical(CanonicalConfig),
}

/// Why a scenario did not produce a run. The first field of every variant
/// is the scenario's name.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A parameter the workload cannot honour: the config field, and what
    /// it must be.
    Param(&'static str, &'static str, &'static str),
    /// The system builder rejected the configuration.
    Build(&'static str, BuildError),
    /// The run ended (how) before the workload finished — an exhausted
    /// event budget, a queue that drained early — leaving what undone.
    Incomplete(&'static str, RunOutcome, String),
    /// The run finished and the workload's oracle disagrees with it: a
    /// protocol bug (or a deliberately disabled safety mechanism), never a
    /// bad parameter. What the oracle expected and found.
    Violated(&'static str, String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Param(scenario, field, bound) => {
                write!(f, "{scenario}: {field} must be {bound}")
            }
            RunError::Build(scenario, error) => write!(f, "{scenario}: {error}"),
            RunError::Incomplete(scenario, outcome, left) => {
                write!(
                    f,
                    "{scenario}: run did not complete: outcome {outcome:?}, {left}"
                )
            }
            RunError::Violated(scenario, what) => write!(f, "{scenario}: oracle violated: {what}"),
        }
    }
}

impl std::error::Error for RunError {}

/// A finished run: the workload's typed run (what printers read), with
/// the machine-level [`RunResult`] beside it where the typed run does not
/// own it.
#[derive(Debug)]
pub enum Outcome {
    /// Of [`Scenario::ThreeCpu`]. The run's trace has moved into the
    /// [`Figure1Run`].
    ThreeCpu(Figure1Run, RunResult<ModelInstance>),
    /// Of [`Scenario::Contention`].
    Contention(ContentionRun),
    /// Of [`Scenario::TaskQueue`].
    TaskQueue(TaskQueueRun),
    /// Of [`Scenario::Pipeline`].
    Pipeline(PipelineRun),
    /// Of [`Scenario::BigMesh`].
    BigMesh(BigMeshRun, RunResult<ModelInstance>),
    /// Of [`Scenario::Canonical`]: the oracle's counter is in the root's
    /// memory, there is nothing else to report.
    Canonical(RunResult<ModelInstance>),
}

impl Outcome {
    /// The machine-level result (what
    /// [`absorb_run`](crate::telemetry::absorb_run) reads).
    pub fn result(&self) -> &RunResult<ModelInstance> {
        match self {
            Outcome::ThreeCpu(_, result) | Outcome::BigMesh(_, result) => result,
            Outcome::Canonical(result) => result,
            Outcome::Contention(run) => &run.result,
            Outcome::TaskQueue(run) => &run.result,
            Outcome::Pipeline(run) => &run.result,
        }
    }
}

impl Scenario {
    /// Every scenario name, in CLI listing order.
    pub const NAMES: [&'static str; 6] = [
        "three-cpu",
        "contention",
        "task-queue",
        "pipeline",
        "bigmesh",
        "canonical",
    ];

    /// The named scenario at its smoke size — what `sesame run --scenario
    /// <name>` runs before any flag applies: Figure 1 under GWC, 4
    /// contenders x 25 rounds, 48 tasks on 5 CPUs, 128 visits round an
    /// 8-CPU ring under the optimistic method, a 400-CPU mesh, the
    /// canonical mutex at 3 CPUs x 2 rounds.
    pub fn parse(name: &str) -> Option<Scenario> {
        let (model, method) = (ModelChoice::Gwc, MutexMethod::OptimisticGwc);
        Some(match name {
            "three-cpu" => Scenario::ThreeCpu {
                model,
                cfg: Figure1Config::default(),
            },
            "contention" => Scenario::Contention(ContentionConfig {
                rounds: 25,
                ..ContentionConfig::default()
            }),
            "task-queue" => Scenario::TaskQueue {
                nodes: 5,
                model,
                cfg: TaskQueueConfig {
                    total_tasks: 48,
                    ..TaskQueueConfig::default()
                },
            },
            "pipeline" => Scenario::Pipeline {
                nodes: 8,
                method,
                cfg: PipelineConfig {
                    total_visits: 128,
                    ..PipelineConfig::default()
                },
            },
            "bigmesh" => Scenario::BigMesh(BigMeshConfig {
                nodes: 400,
                ..BigMeshConfig::default()
            }),
            "canonical" => Scenario::Canonical(CanonicalConfig {
                contenders: 3,
                rounds: 2,
                ..CanonicalConfig::default()
            }),
            _ => return None,
        })
    }

    /// The scenario's name: the CLI's `--scenario` value and the
    /// `scenario` field of a telemetry snapshot.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::ThreeCpu { .. } => "three-cpu",
            Scenario::Contention(_) => "contention",
            Scenario::TaskQueue { .. } => "task-queue",
            Scenario::Pipeline { .. } => "pipeline",
            Scenario::BigMesh(_) => "bigmesh",
            Scenario::Canonical(_) => "canonical",
        }
    }

    /// Checks every parameter the workload cannot honour — the driver's
    /// first step, public so a sweep can reject its whole parameter range
    /// before it runs the first point.
    ///
    /// # Errors
    ///
    /// Returns the first [`RunError::Param`] found.
    pub fn validate(&self) -> Result<(), RunError> {
        // What `UsageHistory::new` asserts of the optimistic engine.
        let engine = |m: &OptimisticConfig| {
            let (alpha, threshold) = (m.alpha > 0.0 && m.alpha <= 1.0, m.threshold);
            [
                (alpha, "mutex.alpha", "in (0, 1]"),
                (
                    (0.0..=1.0).contains(&threshold),
                    "mutex.threshold",
                    "in [0, 1]",
                ),
            ]
        };
        // Each line: what must hold, the field it binds, the bound as the
        // error words it.
        let checks: Vec<(bool, &'static str, &'static str)> = match self {
            Scenario::ThreeCpu { cfg, .. } => {
                vec![(cfg.data_words >= 1, "data_words", "at least 1")]
            }
            Scenario::Contention(cfg) => {
                let mut checks = vec![
                    (cfg.contenders >= 1, "contenders", "at least 1"),
                    (cfg.rounds >= 1, "rounds", "at least 1"),
                ];
                checks.extend(engine(&cfg.mutex));
                checks
            }
            Scenario::TaskQueue { nodes, cfg, .. } => {
                let ratio = cfg.produce_ratio;
                vec![
                    (
                        *nodes >= 2,
                        "nodes",
                        "at least 2: a producer and at least one consumer",
                    ),
                    (cfg.total_tasks >= 1, "total_tasks", "at least 1"),
                    (
                        cfg.exec_time.as_nanos() > 0,
                        "exec_time",
                        "positive: power is the task time executed",
                    ),
                    (cfg.capacity >= 1, "capacity", "at least 1"),
                    (
                        ratio.is_finite() && ratio >= 0.0,
                        "produce_ratio",
                        "finite and non-negative",
                    ),
                ]
            }
            Scenario::Pipeline { nodes, cfg, .. } => vec![
                (*nodes >= 1, "nodes", "at least 1"),
                (cfg.total_visits >= 1, "total_visits", "at least 1"),
                (
                    cfg.local_calc.as_nanos() > 0,
                    "local_calc",
                    "positive: power divides by it",
                ),
            ],
            Scenario::BigMesh(cfg) => {
                let explicit = cfg.rows > 0 || cfg.cols > 0;
                let paired = (cfg.rows == 0) == (cfg.cols == 0);
                let cpus = match explicit {
                    true => u64::from(cfg.rows) * u64::from(cfg.cols),
                    false => cfg.nodes as u64,
                };
                let width = match explicit {
                    true => cfg.cols,
                    false => MeshTorus2d::with_nodes(cfg.nodes.max(1)).width(),
                };
                vec![
                    (paired, "rows and cols", "set together"),
                    (
                        !explicit || cfg.cols >= 2,
                        "cols",
                        "at least 2: a row of one cannot pipeline",
                    ),
                    (
                        explicit || cfg.nodes >= 2,
                        "nodes",
                        "at least 2: need at least one two-node row",
                    ),
                    (
                        cpus <= u64::from(u32::MAX),
                        "nodes",
                        "at most 2^32 - 1: node ids are 32-bit",
                    ),
                    (cfg.laps >= 1, "laps", "at least 1"),
                    (
                        u64::from(cfg.laps) * u64::from(width) <= u64::from(u32::MAX),
                        "laps",
                        "at most 2^32 - 1 visits per row: a CPU counts them in 32 bits",
                    ),
                    (cfg.shared_words >= 1, "shared_words", "at least 1"),
                ]
            }
            Scenario::Canonical(cfg) => {
                // On the default schedule a planted bug runs into the
                // protocol's own misuse asserts (stale-grant-reuse does at
                // every size); `sesame-check` stops at the first violation
                // instead, and builds its mutants itself.
                let clean = cfg.gwc_mutation == GwcMutation::None
                    && cfg.mutex_mutation == MutexMutation::None;
                let mut checks = vec![
                    (cfg.contenders >= 1, "contenders", "at least 1"),
                    (cfg.rounds >= 1, "rounds", "at least 1"),
                    (
                        clean,
                        "gwc_mutation and mutex_mutation",
                        "none: sesame-check plants bugs",
                    ),
                ];
                checks.extend(engine(&cfg.mutex));
                checks
            }
        };
        match checks.into_iter().find(|check| !check.0) {
            Some((_, field, bound)) => Err(RunError::Param(self.name(), field, bound)),
            None => Ok(()),
        }
    }

    /// Runs the scenario: validate, build, run under `observer` (which
    /// sees every trace record, whether or not a trace is retained),
    /// apply the workload's oracle.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] naming the step that failed; nothing
    /// reachable from a parameter value panics.
    pub fn run(
        &self,
        observer: Option<Rc<RefCell<dyn TraceObserver>>>,
    ) -> Result<Outcome, RunError> {
        self.validate()?;
        let rejected = |error| RunError::Build(self.name(), error);
        let go = |machine, tracing, event_limit| {
            let options = RunOptions {
                tracing,
                event_limit,
            };
            run_observed(machine, options, observer)
        };
        match *self {
            Scenario::ThreeCpu { model, cfg } => {
                let (machine, marks) = three_cpu::build(model, &cfg).map_err(rejected)?;
                // Always traced: the ASCII timelines are drawn from it.
                let mut result = go(machine, true, DEFAULT_EVENT_LIMIT);
                let run = three_cpu::finish(&mut result, &marks)?;
                Ok(Outcome::ThreeCpu(run, result))
            }
            Scenario::Contention(cfg) => {
                let (machine, stats) = contention::build(&cfg).map_err(rejected)?;
                let result = go(machine, cfg.tracing, DEFAULT_EVENT_LIMIT);
                contention::finish(&cfg, result, &stats).map(Outcome::Contention)
            }
            Scenario::TaskQueue { nodes, model, cfg } => {
                let (machine, executed) =
                    task_queue::build(nodes, model, &cfg).map_err(rejected)?;
                let result = go(machine, false, DEFAULT_EVENT_LIMIT);
                task_queue::finish(&cfg, result, &executed).map(Outcome::TaskQueue)
            }
            Scenario::Pipeline { nodes, method, cfg } => {
                let (machine, stats) = pipeline::build(nodes, method, &cfg).map_err(rejected)?;
                let result = go(machine, false, DEFAULT_EVENT_LIMIT);
                pipeline::finish(method, &cfg, result, &stats).map(Outcome::Pipeline)
            }
            Scenario::BigMesh(cfg) => {
                let (machine, probe) = bigmesh::build(&cfg).map_err(rejected)?;
                let result = go(machine, false, cfg.event_limit);
                let run = bigmesh::finish(&cfg, &result, &probe)?;
                Ok(Outcome::BigMesh(run, result))
            }
            Scenario::Canonical(cfg) => {
                let machine = canonical::build(&cfg).map_err(rejected)?;
                let result = go(machine, false, DEFAULT_EVENT_LIMIT);
                canonical::finish(&cfg, result).map(Outcome::Canonical)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // The driver's public behaviour — every name runs, every bad
    // parameter is an error value — is tested from outside, in
    // `tests/scenario.rs`; here are the two tests that need a workload's
    // private halves.
    use super::*;

    /// The named scenario at its smoke size, for the `..` of a variant.
    fn smoke(name: &str) -> Scenario {
        Scenario::parse(name).expect("a listed name")
    }

    #[test]
    fn a_failed_oracle_on_a_valid_config_says_violated() {
        use sesame_dsm::run;
        // No valid config makes the protocol lose a task, so doctor the
        // claim instead: finish a 48-task run as if 49 had been produced.
        let Scenario::TaskQueue { nodes, model, cfg } = smoke("task-queue") else {
            unreachable!()
        };
        let (machine, executed) = task_queue::build(nodes, model, &cfg).unwrap();
        let result = run(machine, RunOptions::default());
        let claimed = TaskQueueConfig {
            total_tasks: cfg.total_tasks + 1,
            ..cfg
        };
        let err = task_queue::finish(&claimed, result, &executed).expect_err("one task short");
        assert!(matches!(err, RunError::Violated(..)), "{err:?}");
        assert_eq!(
            err.to_string(),
            "task-queue: oracle violated: tasks lost or duplicated: \
             48 of 49 tasks executed under gwc at 5 nodes"
        );
    }

    #[test]
    fn the_pipeline_oracle_reads_the_copy_that_is_current() {
        use sesame_dsm::run;
        // Under entry consistency data ships with the lock: the last
        // visitor holds all 128 increments, node 0 only those up to its
        // own last visit — which is what the root-copy rule of the GWC
        // methods would read, and reject.
        let Scenario::Pipeline { nodes, cfg, .. } = smoke("pipeline") else {
            unreachable!()
        };
        let entry = MutexMethod::Entry;
        let (machine, stats) = pipeline::build(nodes, entry, &cfg).unwrap();
        let result = run(machine, RunOptions::default());
        pipeline::finish(entry, &cfg, result, &stats).expect("the last visitor's copy");
        let (machine, stats) = pipeline::build(nodes, entry, &cfg).unwrap();
        let result = run(machine, RunOptions::default());
        let err = pipeline::finish(MutexMethod::RegularGwc, &cfg, result, &stats)
            .expect_err("node 0's copy is 7 visits old");
        assert!(
            err.to_string()
                .contains("the shared word reads 121 at node 0 after 128 visits"),
            "{err}"
        );
    }
}

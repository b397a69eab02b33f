//! The scenario driver from outside: every listed scenario runs clean,
//! and a parameter the workload cannot honour — or a budget too small to
//! finish in — comes back as a [`RunError`] value, never a panic.

use sesame_core::OptimisticConfig;
use sesame_dsm::GwcMutation;
use sesame_sim::{RunOutcome, SimDur};
use sesame_workloads::bigmesh::BigMeshConfig;
use sesame_workloads::canonical::CanonicalConfig;
use sesame_workloads::contention::ContentionConfig;
use sesame_workloads::pipeline::PipelineConfig;
use sesame_workloads::scenario::{RunError, Scenario};
use sesame_workloads::task_queue::TaskQueueConfig;
use sesame_workloads::three_cpu::Figure1Config;

/// The named scenario at its smoke size, for the `..` of a variant.
fn smoke(name: &str) -> Scenario {
    Scenario::parse(name).expect("a listed name")
}

fn param_error(scenario: Scenario) -> (&'static str, &'static str) {
    match scenario.run(None) {
        Err(RunError::Param(scenario, field, _)) => (scenario, field),
        other => panic!("expected a parameter error, got {other:?}"),
    }
}

#[test]
fn every_smoke_scenario_runs_clean() {
    for name in Scenario::NAMES {
        let outcome = smoke(name).run(None).unwrap_or_else(|e| panic!("{e}"));
        assert!(outcome.result().events > 0, "{name} ran");
    }
}

#[test]
fn parameters_a_workload_cannot_honour_are_errors_not_panics() {
    let Scenario::ThreeCpu { model, cfg } = smoke("three-cpu") else {
        unreachable!()
    };
    let words = Figure1Config {
        data_words: 0,
        ..cfg
    };
    assert_eq!(
        param_error(Scenario::ThreeCpu { model, cfg: words }),
        ("three-cpu", "data_words")
    );

    let Scenario::Contention(cfg) = smoke("contention") else {
        unreachable!()
    };
    for (bad, field) in [
        (
            ContentionConfig {
                contenders: 0,
                ..cfg
            },
            "contenders",
        ),
        (ContentionConfig { rounds: 0, ..cfg }, "rounds"),
    ] {
        assert_eq!(
            param_error(Scenario::Contention(bad)),
            ("contention", field)
        );
    }

    let Scenario::TaskQueue { nodes, model, cfg } = smoke("task-queue") else {
        unreachable!()
    };
    assert_eq!(
        param_error(Scenario::TaskQueue {
            nodes: 1,
            model,
            cfg
        }),
        ("task-queue", "nodes")
    );
    for (bad, field) in [
        (
            TaskQueueConfig {
                total_tasks: 0,
                ..cfg
            },
            "total_tasks",
        ),
        (TaskQueueConfig { capacity: 0, ..cfg }, "capacity"),
        (
            TaskQueueConfig {
                produce_ratio: -1.0,
                ..cfg
            },
            "produce_ratio",
        ),
        (
            TaskQueueConfig {
                produce_ratio: f64::NAN,
                ..cfg
            },
            "produce_ratio",
        ),
    ] {
        let scenario = Scenario::TaskQueue {
            nodes,
            model,
            cfg: bad,
        };
        assert_eq!(param_error(scenario), ("task-queue", field));
    }

    let Scenario::Pipeline { nodes, method, cfg } = smoke("pipeline") else {
        unreachable!()
    };
    assert_eq!(
        param_error(Scenario::Pipeline {
            nodes: 0,
            method,
            cfg
        }),
        ("pipeline", "nodes")
    );
    for (bad, field) in [
        (
            PipelineConfig {
                total_visits: 0,
                ..cfg
            },
            "total_visits",
        ),
        (
            PipelineConfig {
                local_calc: SimDur::ZERO,
                ..cfg
            },
            "local_calc",
        ),
    ] {
        let scenario = Scenario::Pipeline {
            nodes,
            method,
            cfg: bad,
        };
        assert_eq!(param_error(scenario), ("pipeline", field));
    }

    let Scenario::BigMesh(cfg) = smoke("bigmesh") else {
        unreachable!()
    };
    for (bad, field) in [
        (BigMeshConfig { nodes: 0, ..cfg }, "nodes"),
        (BigMeshConfig { nodes: 1, ..cfg }, "nodes"),
        (BigMeshConfig { laps: 0, ..cfg }, "laps"),
        (
            BigMeshConfig {
                shared_words: 0,
                ..cfg
            },
            "shared_words",
        ),
        (BigMeshConfig { rows: 12, ..cfg }, "rows and cols"),
        (BigMeshConfig { cols: 4, ..cfg }, "rows and cols"),
        (
            BigMeshConfig {
                rows: 5,
                cols: 1,
                ..cfg
            },
            "cols",
        ),
    ] {
        assert_eq!(param_error(Scenario::BigMesh(bad)), ("bigmesh", field));
    }

    let Scenario::Canonical(cfg) = smoke("canonical") else {
        unreachable!()
    };
    let nobody = CanonicalConfig {
        contenders: 0,
        ..cfg
    };
    assert_eq!(
        param_error(Scenario::Canonical(nobody)),
        ("canonical", "contenders")
    );
    let mutant = CanonicalConfig {
        gwc_mutation: GwcMutation::StaleGrantReuse,
        ..cfg
    };
    assert_eq!(
        param_error(Scenario::Canonical(mutant)),
        ("canonical", "gwc_mutation and mutex_mutation")
    );
    let eager = CanonicalConfig {
        mutex: OptimisticConfig {
            threshold: 2.0,
            ..cfg.mutex
        },
        ..cfg
    };
    assert_eq!(
        param_error(Scenario::Canonical(eager)),
        ("canonical", "mutex.threshold")
    );
}

#[test]
fn an_exhausted_event_budget_is_an_error_value() {
    let Scenario::BigMesh(cfg) = smoke("bigmesh") else {
        unreachable!()
    };
    let starved = Scenario::BigMesh(BigMeshConfig {
        event_limit: 1_000,
        ..cfg
    });
    let err = starved.run(None).expect_err("1000 events cannot finish");
    assert!(
        matches!(
            err,
            RunError::Incomplete(_, RunOutcome::EventLimitExceeded, _)
        ),
        "{err:?}"
    );
    assert_eq!(
        err.to_string(),
        "bigmesh: run did not complete: outcome EventLimitExceeded, \
         20 of 400 visits, 0 of 20 rows"
    );
}

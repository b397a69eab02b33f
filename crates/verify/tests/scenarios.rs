//! The checkers over the repository's own seed workloads: the paper's
//! three-CPU timing scenario (Figure 1), the mutex contention sweep, and
//! the Figure 2 task queue. All of them must verify clean — zero
//! diagnostics — under every checker.

use std::cell::RefCell;
use std::rc::Rc;

use sesame_core::builder::ModelChoice;
use sesame_verify::{check_trace, Verifier};
use sesame_workloads::contention::{run_contention, ContentionConfig};
use sesame_workloads::scenario::Scenario;
use sesame_workloads::task_queue::TaskQueueConfig;
use sesame_workloads::three_cpu::{run_figure1, Figure1Config};

#[test]
fn three_cpu_gwc_verifies_clean() {
    let run = run_figure1(ModelChoice::Gwc, Figure1Config::default());
    let violations = check_trace(run.trace.entries());
    assert!(
        violations.is_empty(),
        "three_cpu/gwc: {}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn three_cpu_entry_and_release_verify_clean() {
    for model in [ModelChoice::Entry, ModelChoice::Release] {
        let run = run_figure1(model, Figure1Config::default());
        let violations = check_trace(run.trace.entries());
        assert!(
            violations.is_empty(),
            "three_cpu/{model:?}: {}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn contention_optimistic_verifies_clean() {
    let cfg = ContentionConfig {
        contenders: 4,
        rounds: 30,
        tracing: true,
        ..ContentionConfig::default()
    };
    let run = run_contention(cfg);
    assert!(run.stats.rollbacks > 0, "want rollbacks exercised");
    let violations = check_trace(run.result.trace.entries());
    assert!(
        violations.is_empty(),
        "contention/optimistic: {}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn contention_regular_verifies_clean() {
    let cfg = ContentionConfig {
        contenders: 3,
        rounds: 20,
        mutex: sesame_core::OptimisticConfig {
            optimistic: false,
            ..sesame_core::OptimisticConfig::default()
        },
        tracing: true,
        ..ContentionConfig::default()
    };
    let run = run_contention(cfg);
    let violations = check_trace(run.result.trace.entries());
    assert!(
        violations.is_empty(),
        "contention/regular: {}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn task_queue_gwc_verifies_clean() {
    let cfg = TaskQueueConfig {
        total_tasks: 96,
        ..TaskQueueConfig::default()
    };
    let model = ModelChoice::Gwc;
    let verifier = Rc::new(RefCell::new(Verifier::new()));
    let scenario = Scenario::TaskQueue {
        nodes: 4,
        model,
        cfg,
    };
    scenario.run(Some(verifier.clone())).expect("a clean run");
    verifier.borrow_mut().finish();
    let violations = verifier.borrow().violations().to_vec();
    assert!(
        violations.is_empty(),
        "task_queue/gwc: {}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

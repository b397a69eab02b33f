//! Planted-fault traces: each known-bad trace must produce **exactly one**
//! diagnostic from the matching checker, and mutated real traces must not
//! verify clean. This guards against the checkers passing vacuously.

mod common;

use sesame_verify::{check_recorder, check_trace, CheckKind};
use sesame_workloads::contention::{run_contention, ContentionConfig};

/// Known-bad trace 1: the root grants a held lock a second time.
#[test]
fn two_simultaneous_holders_yield_one_diagnostic() {
    let violations = check_trace(&common::double_root_grant());
    assert_eq!(violations.len(), 1, "got: {violations:?}");
    assert_eq!(violations[0].check, CheckKind::MutualExclusion);
    assert!(violations[0].message.contains("while node1 still holds"));
}

/// The node-side view of the same fault: two nodes observe grants with no
/// release in between.
#[test]
fn two_believing_holders_yield_one_diagnostic() {
    let violations = check_trace(&common::double_node_grant());
    assert_eq!(violations.len(), 1, "got: {violations:?}");
    assert_eq!(violations[0].check, CheckKind::MutualExclusion);
}

/// Known-bad trace 2: an optimistic section rolls back but one of its
/// speculative writes is never restored — the Figure 6 insharing-
/// suspension hazard the paper's mechanisms exist to prevent.
#[test]
fn optimistic_write_surviving_rollback_yields_one_diagnostic() {
    let violations = check_trace(&common::unrestored_rollback());
    assert_eq!(violations.len(), 1, "got: {violations:?}");
    assert_eq!(violations[0].check, CheckKind::MutualExclusion);
    assert!(violations[0].message.contains("survived"));
}

/// Known-bad trace 3: one member applies sequenced writes out of root
/// order while another applies them correctly.
#[test]
fn out_of_order_gwc_delivery_yields_one_diagnostic() {
    let violations = check_trace(&common::out_of_order_delivery());
    assert_eq!(violations.len(), 1, "got: {violations:?}");
    assert_eq!(violations[0].check, CheckKind::Sequencing);
    assert_eq!(violations[0].node, 2);
}

/// Mutating a *real* recorded trace must break verification: drop every
/// rollback restoration from a contention run and the rollback-
/// completeness checker has to notice. This proves the seed scenarios do
/// not pass because the checkers see nothing.
#[test]
fn real_trace_with_restores_removed_fails_verification() {
    let cfg = ContentionConfig {
        contenders: 4,
        rounds: 30,
        tracing: true,
        ..ContentionConfig::default()
    };
    let run = run_contention(cfg);
    assert!(run.stats.rollbacks > 0, "want rollbacks exercised");
    assert!(
        check_recorder(&run.result.trace).is_empty(),
        "pristine trace must be clean"
    );
    let mutated = common::without_restores(run.result.trace.entries());
    assert!(
        mutated.len() < run.result.trace.entries().len(),
        "trace must contain restores to remove"
    );
    let violations = check_trace(&mutated);
    assert!(
        !violations.is_empty(),
        "dropping restores must produce diagnostics"
    );
    assert!(violations
        .iter()
        .all(|v| v.check == CheckKind::MutualExclusion));
}

/// Reordering two sequenced applies in a real trace must trip the
/// sequencing checker.
#[test]
fn real_trace_with_swapped_applies_fails_verification() {
    let trace = common::contention_trace(3, 10);
    let violations = check_trace(&common::with_swapped_applies(&trace));
    assert!(
        violations.iter().any(|v| v.check == CheckKind::Sequencing),
        "swapped applies must trip the sequencing checker; got: {violations:?}"
    );
}

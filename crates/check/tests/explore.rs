//! End-to-end model-checking runs: exhaustive clean exploration, planted
//! mutants caught within budget, and counterexample replay round trips.

use sesame_check::{
    check, parse_replay, replay, to_replay_string, CanonicalConfig, CheckOptions, CheckReport,
    GwcMutation, LinkMode, MutexMutation,
};

fn two_cpu() -> CanonicalConfig {
    CanonicalConfig {
        contenders: 2,
        rounds: 1,
        ..CanonicalConfig::default()
    }
}

#[test]
fn clean_two_cpu_exploration_is_complete_and_violation_free() {
    let report = check(two_cpu(), CheckOptions::default());
    assert!(
        report.counterexample.is_none(),
        "clean protocol violated: {:#?}",
        report.counterexample.map(|cx| cx.violations)
    );
    assert!(report.complete, "exploration hit a budget: {report:?}");
    assert!(
        report.schedules > 1,
        "expected real branching, got {report:?}"
    );
}

#[test]
fn state_hashing_prunes_and_unhashed_search_agrees_within_budget() {
    // Hashing (the default) makes the clean 2-CPU space exhaustible;
    // without it the same space exceeds any practical budget, but a
    // bounded unhashed search must still find nothing and must honestly
    // report its incompleteness.
    let hashed = check(two_cpu(), CheckOptions::default());
    assert!(
        hashed.counterexample.is_none() && hashed.complete,
        "{hashed:?}"
    );
    assert!(
        hashed.pruned > 0,
        "state hashing never folded a revisit: {hashed:?}"
    );
    let unhashed = check(
        two_cpu(),
        CheckOptions {
            hash_states: false,
            work_max: 10_000,
            ..CheckOptions::default()
        },
    );
    assert!(
        unhashed.counterexample.is_none(),
        "unhashed search disagreed: {:#?}",
        unhashed.counterexample.map(|cx| cx.violations)
    );
    assert!(!unhashed.complete, "{unhashed:?}");
    assert_eq!(unhashed.pruned, 0, "{unhashed:?}");
}

#[test]
fn clean_protocol_tolerates_root_fanout_reordering() {
    // The member reorder/NACK machinery must absorb arbitrary reordering
    // of the root's sequenced-write fan-out. Reordering triggers NACKs
    // and resends, which can themselves reorder, so this space is
    // unbounded — a bounded search that finds no violation is the
    // strongest available statement.
    let report = check(
        two_cpu(),
        CheckOptions {
            links: LinkMode::RelaxFromRoots,
            work_max: 10_000,
            depth_max: 120,
            ..CheckOptions::default()
        },
    );
    assert!(
        report.counterexample.is_none(),
        "reorder machinery failed: {:#?}",
        report.counterexample.map(|cx| cx.violations)
    );
    assert!(
        report.schedules > 0,
        "no schedule ran to completion: {report:?}"
    );
}

#[test]
fn stale_grant_reuse_mutant_is_caught() {
    let cfg = CanonicalConfig {
        gwc_mutation: GwcMutation::StaleGrantReuse,
        ..two_cpu()
    };
    let report = check(cfg, CheckOptions::default());
    let cx = report
        .counterexample
        .expect("the double grant must be found");
    assert!(
        cx.violations
            .iter()
            .any(|v| v.message.contains("while node") && v.message.contains("still holds")),
        "unexpected diagnosis: {:#?}",
        cx.violations
    );
}

#[test]
fn seq_gap_mutant_is_caught_under_fanout_reordering() {
    // Applying over a sequence gap requires an out-of-order fan-out
    // delivery, which only the relaxed root links make reachable.
    let cfg = CanonicalConfig {
        gwc_mutation: GwcMutation::SeqGap,
        ..two_cpu()
    };
    let report = check(
        cfg,
        CheckOptions {
            links: LinkMode::RelaxFromRoots,
            ..CheckOptions::default()
        },
    );
    let cx = report
        .counterexample
        .expect("the out-of-order apply must be found");
    assert!(
        cx.violations
            .iter()
            .any(|v| v.message.contains("out of order")),
        "unexpected diagnosis: {:#?}",
        cx.violations
    );
}

#[test]
fn drop_rollback_mutant_is_caught() {
    let cfg = CanonicalConfig {
        mutex_mutation: MutexMutation::DropRollback,
        ..two_cpu()
    };
    let report = check(cfg, CheckOptions::default());
    let cx = report
        .counterexample
        .expect("the dropped rollback must be found");
    assert!(
        cx.violations.iter().any(|v| {
            v.message.contains("survived the discarded section")
                || v.message.contains("did not restore")
                || v.message.contains("increments were lost")
        }),
        "unexpected diagnosis: {:#?}",
        cx.violations
    );
}

#[test]
fn no_hw_block_mutant_is_caught_and_replays() {
    // Without Figure 6 hardware blocking the first writer applies the
    // root's echo of its own counter write: the first schedule shows it.
    let cfg = CanonicalConfig {
        gwc_mutation: GwcMutation::NoHwBlock,
        ..two_cpu()
    };
    let report = check(cfg, CheckOptions::default());
    assert_eq!(report.schedules, 0, "{report:?}");
    let cx = report
        .counterexample
        .expect("the applied own echo must be found");
    assert!(
        cx.violations
            .iter()
            .any(|v| v.message.contains("Figure 6 hardware blocking failed")),
        "unexpected diagnosis: {:#?}",
        cx.violations
    );
    let file = to_replay_string(&cx);
    assert!(file.contains("\ngwc_mutation=no-hw-block\n"), "{file}");
    let (parsed_cfg, choices) = parse_replay(&file).expect("well-formed replay file");
    assert_eq!((parsed_cfg, &choices), (cfg, &cx.choices));
    let outcome = replay(parsed_cfg, &choices).expect("schedule applies");
    assert!(
        !outcome.violations.is_empty(),
        "replay lost the violation: {outcome:?}"
    );
}

#[test]
fn counterexample_replays_deterministically() {
    let cfg = CanonicalConfig {
        gwc_mutation: GwcMutation::StaleGrantReuse,
        ..two_cpu()
    };
    let report = check(cfg, CheckOptions::default());
    let cx = report.counterexample.expect("counterexample");

    // Serialize, parse back, re-execute: the offline checkers must
    // rediscover a violation on the replayed trace.
    let file = to_replay_string(&cx);
    let (parsed_cfg, choices) = parse_replay(&file).expect("well-formed replay file");
    assert_eq!(parsed_cfg, cfg);
    assert_eq!(choices, cx.choices);
    let outcome = replay(parsed_cfg, &choices).expect("schedule applies");
    assert!(
        !outcome.violations.is_empty(),
        "replay lost the violation: {outcome:?}"
    );
}

/// `(schedules, sleep-blocked, pruned, max depth)`, the counts a change to
/// how the search stores or computes things must leave alone.
fn counts(report: &CheckReport) -> (u64, u64, u64, usize) {
    (
        report.schedules,
        report.sleep_blocked,
        report.pruned,
        report.max_depth,
    )
}

#[test]
fn the_two_cpu_search_folds_the_states_it_always_folded() {
    let report = check(two_cpu(), CheckOptions::default());
    assert!(report.complete, "{report:?}");
    assert_eq!(counts(&report), (16, 4_097, 7_582, 34), "{report:?}");
}

#[test]
fn the_unhashed_three_cpu_search_is_the_same_search() {
    // The hashed 3-CPU search at this budget (the ledger's `check_mutex`)
    // is pinned beside its footprint budgets, in tests/footprint.rs.
    let cfg = CanonicalConfig {
        contenders: 3,
        ..two_cpu()
    };
    let opts = CheckOptions {
        work_max: 100_000,
        hash_states: false,
        ..CheckOptions::default()
    };
    let report = check(cfg, opts);
    assert_eq!(counts(&report), (567, 99_433, 0, 52), "{report:?}");
    assert_eq!(report.stored_digests, 0, "{report:?}");
}

#[test]
fn schedule_budget_reports_incompleteness() {
    let report = check(
        two_cpu(),
        CheckOptions {
            schedules_max: 2,
            ..CheckOptions::default()
        },
    );
    assert!(!report.complete);
    assert!(report.schedules <= 2);
    assert!(report.counterexample.is_none());
}

#[test]
fn depth_budget_reports_incompleteness() {
    let report = check(
        two_cpu(),
        CheckOptions {
            depth_max: 5,
            ..CheckOptions::default()
        },
    );
    assert!(!report.complete);
    assert!(report.truncated > 0);
    assert!(report.counterexample.is_none());
}

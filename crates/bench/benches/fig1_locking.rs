//! Bench over the Figure 1 scenario: simulation cost of the
//! three-CPU locking comparison per consistency model, plus an assertion
//! that the simulated completions still match the closed forms (a protocol
//! regression here is a correctness bug, not just a slowdown).

use sesame_bench::Harness;
use sesame_consistency::analysis::Figure1Params;
use sesame_core::builder::ModelChoice;
use sesame_workloads::scenario::{Outcome, Scenario};
use sesame_workloads::three_cpu::{run_figure1, Figure1Config};

fn verify_against_closed_forms() {
    let cfg = Figure1Config::default();
    let params = Figure1Params {
        hops: 1,
        timing: cfg.timing,
        section: cfg.section,
        guarded_bytes: cfg.data_words * 16,
    };
    let pred = params.predict();
    assert_eq!(run_figure1(ModelChoice::Gwc, cfg).completion, pred.gwc);
    assert_eq!(run_figure1(ModelChoice::Entry, cfg).completion, pred.entry);
    assert_eq!(
        run_figure1(ModelChoice::Release, cfg).completion,
        pred.release
    );
}

fn main() {
    verify_against_closed_forms();
    let group = Harness::group("fig1_locking");
    for (name, model) in [
        ("gwc", ModelChoice::Gwc),
        ("entry", ModelChoice::Entry),
        ("release", ModelChoice::Release),
    ] {
        let cfg = Figure1Config::default();
        group.bench_events(name, || {
            match (Scenario::ThreeCpu { model, cfg }).run(None) {
                Ok(Outcome::ThreeCpu(fig, result)) => (fig.completion, result.events),
                other => panic!("figure 1 under {name}: {other:?}"),
            }
        });
    }
}

//! Golden-file regression for the export formats: the kernel rewrite
//! (calendar queue, slab state, lazy multicast routes) must leave every
//! published artifact byte-identical to the pre-change captures in
//! `tests/golden/`.
//!
//! The goldens were produced by the CLI from the commit before the
//! rewrite:
//!
//! ```text
//! sesame fig8 --sizes 2,4,8 --visits 128 --format csv > fig8_small.csv
//! sesame run --scenario contention --contenders 4 --rounds 15 \
//!     --metrics-out contention_metrics.json \
//!     --causes-out contention_causes.json \
//!     --series-out contention_series.json --window 100000
//! ```
//!
//! Each test below rebuilds the same artifact through the same library
//! calls the CLI makes and compares bytes. A diff here means the change
//! under review altered simulated behaviour (event order, timing, or
//! serialization) — not just performance — and must be treated as a
//! regression unless the goldens are deliberately regenerated with an
//! explanation.
//!
//! `contention_causes.json` was regenerated once, with the command above,
//! when the collector began to keep only the explained set at `finish`
//! (every rollback and the end of the critical path, with their
//! ancestors): 194 of the 1 743 node lines remain, each byte-for-byte a
//! line of the file it replaced (`comm -13 <(sort old) <(sort new)` is
//! empty), header and trailer unchanged. The other three files did not
//! move.

use sesame_sim::SimDur;
use sesame_telemetry::Telemetry;
use sesame_workloads::contention::ContentionConfig;
use sesame_workloads::experiments::figure8_jobs;
use sesame_workloads::pipeline::PipelineConfig;
use sesame_workloads::scenario::Scenario;
use sesame_workloads::telemetry::observe;

/// Rebuilds the exact stdout of `sesame fig8 --sizes 2,4,8 --visits 128
/// --format csv`: the four CSV series joined as the CLI's `render` does,
/// plus the headline-ratios comment line.
fn fig8_csv() -> String {
    let cfg = PipelineConfig {
        total_visits: 128,
        ..PipelineConfig::default()
    };
    let data = figure8_jobs(cfg, &[2, 4, 8], 1);
    let csv = [&data.ideal, &data.optimistic, &data.regular, &data.entry]
        .iter()
        .map(|s| s.to_csv())
        .collect::<Vec<_>>()
        .join("\n");
    let r = data.headline_ratios();
    format!(
        "{}\n# at {} CPUs: opt/reg {:.2}, opt/entry {:.2}, reg/entry {:.2}\n",
        csv, r.nodes, r.optimistic_over_regular, r.optimistic_over_entry, r.regular_over_entry
    )
}

/// The contention run behind the three JSON goldens: `sesame run
/// --scenario contention --contenders 4 --rounds 15 --window 100000`.
fn contention_run() -> Telemetry {
    let scenario = Scenario::Contention(ContentionConfig {
        contenders: 4,
        rounds: 15,
        ..ContentionConfig::default()
    });
    let series = Telemetry::new("contention", 7).with_series(SimDur::from_nanos(100_000));
    observe(&scenario, series).expect("a clean run")
}

#[test]
fn fig8_series_csv_matches_prechange_golden() {
    assert_eq!(
        fig8_csv(),
        include_str!("../golden/fig8_small.csv"),
        "fig8 CSV export diverged from the pre-rewrite golden"
    );
}

#[test]
fn contention_metrics_snapshot_matches_prechange_golden() {
    let t = contention_run();
    assert_eq!(
        t.snapshot().to_json(),
        include_str!("../golden/contention_metrics.json"),
        "metrics snapshot diverged from the pre-rewrite golden"
    );
}

#[test]
fn contention_causes_export_matches_prechange_golden() {
    let t = contention_run();
    assert_eq!(
        t.causes_json(),
        include_str!("../golden/contention_causes.json"),
        "causal DAG export diverged from the pre-rewrite golden"
    );
}

#[test]
fn contention_series_export_matches_prechange_golden() {
    let t = contention_run();
    assert_eq!(
        t.series_json().expect("window enables the series"),
        include_str!("../golden/contention_series.json"),
        "time-series export diverged from the pre-rewrite golden"
    );
}

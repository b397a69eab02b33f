//! Determinism regression for the parallel sweep engine: the Figure 8
//! sweep run with `--jobs 1` and `--jobs 4` must produce identical series
//! — and the telemetry snapshot behind `--metrics-out` must serialize to
//! byte-identical JSON no matter how many copies run concurrently.
//!
//! This is the contract that makes `--jobs` safe to use everywhere: host
//! scheduling may reorder *completion*, never *results*.

use sesame_telemetry::Telemetry;
use sesame_workloads::contention::ContentionConfig;
use sesame_workloads::experiments::{figure8_jobs, figure8_with_optimism};
use sesame_workloads::pipeline::PipelineConfig;
use sesame_workloads::scenario::Scenario;
use sesame_workloads::telemetry::observe;

fn cfg() -> PipelineConfig {
    PipelineConfig {
        total_visits: 128,
        ..PipelineConfig::default()
    }
}

#[test]
fn figure8_sweep_is_identical_with_one_and_four_jobs() {
    let sizes = [2, 4, 8, 16];
    let serial = figure8_jobs(cfg(), &sizes, 1);
    let parallel = figure8_jobs(cfg(), &sizes, 4);
    assert_eq!(serial.ideal, parallel.ideal);
    assert_eq!(serial.optimistic, parallel.optimistic);
    assert_eq!(serial.regular, parallel.regular);
    assert_eq!(serial.entry, parallel.entry);
    assert_eq!(
        serial.headline_ratios(),
        parallel.headline_ratios(),
        "derived ratios must agree too"
    );
}

#[test]
fn figure8_optimism_telemetry_is_identical_with_one_and_four_jobs() {
    let sizes = [2, 4, 8];
    assert_eq!(
        figure8_with_optimism(cfg(), &sizes, 1).1,
        figure8_with_optimism(cfg(), &sizes, 4).1
    );
}

#[test]
fn metrics_snapshot_json_is_byte_identical_across_concurrent_runs() {
    // The exact artifact `sesame run --metrics-out` writes, produced by
    // four concurrent copies of the same scenario plus one serial run:
    // all five JSON strings must be byte-for-byte equal.
    let scenario = Scenario::Contention(ContentionConfig {
        contenders: 4,
        rounds: 15,
        ..ContentionConfig::default()
    });
    let snapshot_json = || {
        let telemetry = observe(&scenario, Telemetry::new("contention", 7));
        telemetry.expect("a clean run").snapshot().to_json()
    };
    let reference = snapshot_json();
    let copies = sesame_sweep::run_sweep(4, 4, |_| snapshot_json());
    for (i, copy) in copies.iter().enumerate() {
        assert_eq!(copy, &reference, "concurrent copy {i} diverged");
    }
}

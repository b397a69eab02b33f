//! The glue between the scenario driver and `sesame-telemetry`.
//!
//! [`observe`] attaches a [`Telemetry`] collector to a [`Scenario`] as its
//! online trace observer (per-event metrics, timeline spans, the causal
//! DAG), then folds the post-run machine statistics — fabric traffic,
//! per-node CPU efficiency, memory-model counters — and the workload's own
//! results as named counters and gauges beside them. The result is one self-contained
//! [`Telemetry`] whose snapshot and Chrome trace are byte-identical across
//! same-seed runs.

use sesame_core::builder::ModelInstance;
use sesame_dsm::RunResult;
use sesame_net::NodeId;
use sesame_telemetry::Telemetry;

use crate::canonical::COUNTER;
use crate::scenario::{Outcome, RunError, Scenario};

/// Runs `scenario` with `telemetry` attached as its observer and returns
/// the finished collector: spans closed, post-run statistics absorbed
/// ([`absorb_run`]), and the workload's results under `run/`:
///
/// | scenario | keys |
/// |---|---|
/// | `three-cpu` | `run/completion-ns`, `run/lock-wait-{0,1,2}-ns` |
/// | `contention` | `run/sections`, `run/mean-section-latency-ns` |
/// | `task-queue` | `run/tasks`, `run/speedup` |
/// | `pipeline` | `run/fully-overlapped`, `run/power` |
/// | `bigmesh` | `run/visits`, `run/rows`, `run/power` |
/// | `canonical` | `run/counter` |
///
/// Build the collector with what the exports need — e.g.
/// `Telemetry::new(scenario.name(), seed).with_timeline(true)`.
///
/// # Errors
///
/// Returns the driver's [`RunError`] if the scenario did not run clean,
/// and a [`RunError::Param`] if the collector's series window is too
/// narrow for the run (`SeriesExport::truncated`).
pub fn observe(scenario: &Scenario, telemetry: Telemetry) -> Result<Telemetry, RunError> {
    let shared = telemetry.shared();
    let outcome = scenario.run(Some(shared.clone()))?;
    {
        let mut t = shared.borrow_mut();
        absorb_run(&mut t, outcome.result());
        if t.series().is_some_and(|series| series.truncated()) {
            let bound = "wide enough for the run to fit in 1048576 windows";
            return Err(RunError::Param(scenario.name(), "series window", bound));
        }
        match &outcome {
            Outcome::ThreeCpu(fig, _) => {
                t.set_gauge("run/completion-ns", fig.completion.as_nanos() as f64);
                for (i, wait) in fig.lock_waits.iter().enumerate() {
                    t.set_gauge(&format!("run/lock-wait-{i}-ns"), wait.as_nanos() as f64);
                }
            }
            Outcome::Contention(run) => {
                t.add_counter("run/sections", run.sections);
                let latency = run.mean_section_latency.as_nanos() as f64;
                t.set_gauge("run/mean-section-latency-ns", latency);
            }
            Outcome::TaskQueue(run) => {
                let tasks: u32 = run.executed.iter().sum();
                t.add_counter("run/tasks", u64::from(tasks));
                t.set_gauge("run/speedup", run.speedup);
            }
            Outcome::Pipeline(run) => {
                t.add_counter("run/fully-overlapped", run.fully_overlapped);
                t.set_gauge("run/power", run.power);
            }
            Outcome::BigMesh(run, _) => {
                t.add_counter("run/visits", run.visits);
                t.add_counter("run/rows", run.rows as u64);
                t.set_gauge("run/power", run.power);
            }
            Outcome::Canonical(result) => {
                let counter = result.machine.mem(NodeId::new(0)).read(COUNTER);
                t.set_gauge("run/counter", counter as f64);
            }
        }
    }
    Ok(Telemetry::unwrap_shared(shared))
}

/// Folds a finished run's machine statistics into named counters and
/// gauges and closes the telemetry (span drain + end time).
///
/// Adds: `net/*` fabric traffic counters and the mean-busy-links gauge,
/// per-node `node/<i>/cpu/efficiency` gauges, memory-model counters under
/// `gwc/`, `ec/`, or `rc/`, and the `run/events` counter.
pub fn absorb_run(t: &mut Telemetry, result: &RunResult<ModelInstance>) {
    let end = result.end;
    let fs = result.machine.fabric_stats();
    t.add_counter("net/packets", fs.packets);
    t.add_counter("net/bytes", fs.bytes);
    t.add_counter("net/link-traversals", fs.link_traversals);
    t.add_counter("net/losses", fs.losses);
    t.add_counter("net/ser-ns", fs.ser_ns);
    if end.as_nanos() > 0 {
        t.set_gauge(
            "net/mean-busy-links",
            fs.ser_ns as f64 / end.as_nanos() as f64,
        );
    }
    for i in 0..result.machine.node_count() {
        let efficiency = result.efficiency(NodeId::new(i as u32));
        t.set_gauge(&format!("node/{i}/cpu/efficiency"), efficiency);
    }
    for (key, value) in model_counters(result.machine.model()) {
        t.add_counter(key, value);
    }
    t.add_counter("run/events", result.events);
    t.finish(end);
}

/// The memory model's protocol counters as `(key, value)` pairs, prefixed
/// `gwc/`, `ec/`, or `rc/` by model.
fn model_counters(model: &ModelInstance) -> Vec<(&'static str, u64)> {
    if let Some(gwc) = model.as_gwc() {
        let s = gwc.stats();
        return vec![
            ("gwc/root-drops", s.root_drops),
            ("gwc/hw-block-drops", s.hw_block_drops),
            ("gwc/grants", s.grants),
            ("gwc/queued-requests", s.queued_requests),
            ("gwc/nacks", s.nacks),
            ("gwc/retransmissions", s.retransmissions),
            ("gwc/grant-retransmissions", s.grant_retransmissions),
        ];
    }
    if let Some(ec) = model.as_entry() {
        let s = ec.stats();
        return vec![
            ("ec/transfers", s.transfers),
            ("ec/data-bytes-shipped", s.data_bytes_shipped),
            ("ec/invalidations", s.invalidations),
            ("ec/fetches", s.fetches),
            ("ec/local-reacquires", s.local_reacquires),
        ];
    }
    if let Some(rc) = model.as_release() {
        let s = rc.stats();
        return vec![
            ("rc/updates", s.updates),
            ("rc/acks", s.acks),
            ("rc/blocked-releases", s.blocked_releases),
            ("rc/forwards", s.forwards),
            ("rc/grants", s.grants),
        ];
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::ContentionConfig;
    use sesame_sim::SimDur;

    /// The contention scenario at its smoke size: 4 contenders x 25
    /// rounds, seed 7.
    fn contention() -> ContentionConfig {
        match Scenario::parse("contention") {
            Some(Scenario::Contention(cfg)) => cfg,
            other => unreachable!("{other:?}"),
        }
    }

    fn collect(scenario: Scenario, telemetry: Telemetry) -> Telemetry {
        observe(&scenario, telemetry).expect("a clean run")
    }

    /// A plain collector on the contention scenario at `cfg`.
    fn observed(cfg: ContentionConfig) -> Telemetry {
        collect(Scenario::Contention(cfg), Telemetry::new("contention", 7))
    }

    #[test]
    fn scenario_names_round_trip() {
        for name in Scenario::NAMES {
            let s = Scenario::parse(name).expect("a listed name");
            assert_eq!(s.name(), name);
            assert_eq!(Scenario::parse(s.name()), Some(s));
        }
        assert_eq!(Scenario::parse("nope"), None);
    }

    /// A finished run hands back its records, not its observer: the
    /// caller's `Rc` is the only one left while the outcome is still alive.
    #[test]
    fn a_finished_run_lets_go_of_its_observer() {
        let obs = Telemetry::new("contention", 7).shared();
        let outcome = Scenario::Contention(contention())
            .run(Some(obs.clone()))
            .expect("a clean run");
        assert_eq!(std::rc::Rc::strong_count(&obs), 1);
        assert!(outcome.result().events > 0);
    }

    #[test]
    fn contention_telemetry_counts_optimism_and_traffic() {
        let t = observed(ContentionConfig {
            rounds: 10,
            ..contention()
        });
        let snap = t.snapshot();
        assert_eq!(snap.scenario, "contention");
        assert_eq!(snap.counter("run/sections"), 40);
        assert!(snap.counter("net/packets") > 0);
        // Every completed section shows up as a per-node mutex completion.
        assert_eq!(snap.sum_counters("node/", "/completions"), 40);
        let attempts = snap.sum_counters("node/", "/opt/attempts")
            + snap.sum_counters("node/", "/reg/attempts");
        assert_eq!(attempts, 40);
        assert!(snap.counter("gwc/grants") > 0);
        // Wait histograms exist for the contenders.
        let mut keys = snap.metrics.keys();
        assert!(keys.any(|k| k.starts_with("node/") && k.ends_with("/wait")));
    }

    #[test]
    fn timeline_collects_spans_when_enabled() {
        let scenario = Scenario::Contention(ContentionConfig {
            rounds: 5,
            ..contention()
        });
        let t = collect(
            scenario,
            Telemetry::new("contention", 7).with_timeline(true),
        );
        assert!(!t.timeline().is_empty());
        let trace = t.chrome_trace();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("hold v0"));
    }

    #[test]
    fn three_cpu_and_task_queue_produce_snapshots() {
        let three_cpu = Scenario::parse("three-cpu").unwrap();
        let a = collect(three_cpu, Telemetry::new("three-cpu", 7));
        assert!(a.snapshot().counter("net/packets") > 0);
        assert!(a.snapshot().metrics.contains_key("run/completion-ns"));
        let Some(Scenario::TaskQueue { nodes, model, cfg }) = Scenario::parse("task-queue") else {
            unreachable!()
        };
        let cfg = crate::task_queue::TaskQueueConfig {
            total_tasks: 16,
            ..cfg
        };
        let b = collect(
            Scenario::TaskQueue { nodes, model, cfg },
            Telemetry::new("task-queue", 7),
        );
        assert_eq!(b.snapshot().counter("run/tasks"), 16);
        assert!(b.snapshot().counter("gwc/grants") > 0);
    }

    #[test]
    fn observer_does_not_change_the_simulation() {
        let observed = observed(contention());
        let bare = crate::contention::run_contention(contention());
        assert_eq!(observed.end(), bare.result.end);
        assert_eq!(
            observed.snapshot().counter("run/events"),
            bare.result.events
        );
        // Causal tracking rode along on the observed run (the bare run,
        // tracing detached, recorded nothing) — and changed nothing above.
        assert!(!observed.causes().is_empty());
    }

    #[test]
    fn causal_chains_connect_every_rollback_to_its_remote_write() {
        use sesame_sim::CauseOp;
        let t = observed(contention());
        let dag = t.causes();
        let rollbacks = dag.rollbacks();
        assert!(!rollbacks.is_empty(), "contention must roll back");
        for id in rollbacks {
            let node = dag.get(id).expect("listed id");
            let (var, writer) = node.conflict.expect("rollback carries blame");
            let chain = dag.chain(id).expect("chain exists");
            // The chain crosses the network: the interrupting apply on the
            // victim, the multicast fan-out at the root, and a write by
            // the blamed remote node.
            assert!(chain
                .iter()
                .any(|n| matches!(n.op, CauseOp::Apply) && n.actor == node.actor));
            assert!(chain.iter().any(|n| matches!(n.op, CauseOp::Mcast)));
            assert!(chain
                .iter()
                .any(|n| matches!(n.op, CauseOp::Write) && n.actor == writer as usize));
            let _ = var;
        }
    }

    #[test]
    fn critical_path_reaches_the_run_end() {
        let t = observed(contention());
        let path = t.causes().critical_path().expect("non-empty DAG");
        // The chain ending at the run's final causal event accounts for
        // the whole run, and its category split telescopes exactly.
        assert_eq!(path.total_ns(), t.end().as_nanos());
        assert_eq!(
            path.flight_ns + path.hold_ns + path.sequencing_ns + path.wait_ns,
            path.total_ns()
        );
    }

    #[test]
    fn time_series_covers_the_run_and_sums_match_the_snapshot() {
        let windowed = || {
            let series = Telemetry::new("contention", 7).with_series(SimDur::from_us(100));
            collect(Scenario::Contention(contention()), series)
        };
        let t = windowed();
        let series = t.series().expect("series enabled");
        let snap = t.snapshot();
        // The padded series covers [0, end) exactly.
        let window_ns = series.window_ns;
        let covered = series.windows.len() as u64 * window_ns;
        assert!(covered >= snap.end_ns && covered < snap.end_ns + window_ns);
        // Summing the windows reproduces the end-of-run totals.
        let sum = |f: fn(&sesame_telemetry::SeriesWindow) -> u64| {
            series.windows.iter().map(f).sum::<u64>()
        };
        assert_eq!(
            sum(|w| w.rollbacks),
            snap.sum_counters("node/", "/opt/rollbacks")
        );
        assert_eq!(
            sum(|w| w.opt_attempts),
            snap.sum_counters("node/", "/opt/attempts")
        );
        assert_eq!(sum(|w| w.opt_wins), snap.sum_counters("node/", "/opt/wins"));
        assert_eq!(
            sum(|w| w.completions),
            snap.sum_counters("node/", "/completions")
        );
        assert!(sum(|w| w.packets) > 0);
        // Same seed → byte-identical series exports; riding along changes
        // nothing about the run itself.
        let again = windowed();
        assert_eq!(again.series_json(), t.series_json());
        assert_eq!(again.series_csv(), t.series_csv());
        let bare = observed(contention());
        assert!(bare.series().is_none());
        assert_eq!(bare.snapshot(), snap);
        // A window the run does not fit 2^20 of is refused, not exported.
        let narrow = Telemetry::new("contention", 7).with_series(SimDur::from_nanos(1));
        let refused = observe(&Scenario::Contention(contention()), narrow).unwrap_err();
        assert!(matches!(refused, RunError::Param(_, "series window", _)));
    }

    #[test]
    fn causal_exports_are_byte_identical_for_same_seed_runs() {
        let spans = || {
            let timeline = Telemetry::new("contention", 7).with_timeline(true);
            collect(Scenario::Contention(contention()), timeline)
        };
        let (a, b) = (spans(), spans());
        assert_eq!(a.causes_json(), b.causes_json());
        assert_eq!(a.causes_dot(), b.causes_dot());
        // Flow-event arrows live in the Chrome trace.
        let trace = a.chrome_trace();
        assert_eq!(trace, b.chrome_trace());
        assert!(trace.contains("\"ph\":\"s\""));
        assert!(trace.contains("\"ph\":\"f\",\"bp\":\"e\""));
    }
}

//! Telemetry-instrumented scenario drivers — the glue between the
//! workload runners and `sesame-telemetry`.
//!
//! [`run_with_telemetry`] wires a [`Telemetry`] collector into a workload
//! as an online trace observer (per-event metrics and timeline spans),
//! then folds the post-run machine statistics — fabric traffic, per-node
//! CPU efficiency, memory-model counters — into the same registry. The
//! result is one self-contained [`Telemetry`] whose snapshot and Chrome
//! trace are byte-identical across same-seed runs.

use std::cell::RefCell;
use std::rc::Rc;

use sesame_core::builder::{ModelChoice, ModelInstance};
use sesame_dsm::RunResult;
use sesame_net::NodeId;
use sesame_sim::{SimDur, TraceObserver};
use sesame_telemetry::Telemetry;

use crate::contention::{run_contention_observed, ContentionConfig};
use crate::task_queue::{run_task_queue_observed, TaskQueueConfig};
use crate::three_cpu::{run_figure1_observed, Figure1Config};

/// A workload selectable by name (the CLI's `--scenario`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Figure 1: three CPUs, three successive mutex accesses under GWC.
    ThreeCpu,
    /// The contention sweep's single point: K hammers on one lock with
    /// the optimistic engine.
    Contention,
    /// Figure 2: task management through a lock-protected shared queue.
    TaskQueue,
}

impl Scenario {
    /// Every scenario, in CLI listing order.
    pub const ALL: [Scenario; 3] = [
        Scenario::ThreeCpu,
        Scenario::Contention,
        Scenario::TaskQueue,
    ];

    /// Parses a CLI scenario name.
    pub fn parse(name: &str) -> Option<Scenario> {
        match name {
            "three-cpu" => Some(Scenario::ThreeCpu),
            "contention" => Some(Scenario::Contention),
            "task-queue" => Some(Scenario::TaskQueue),
            _ => None,
        }
    }

    /// The CLI name (also the snapshot's `scenario` field).
    pub fn name(self) -> &'static str {
        match self {
            Scenario::ThreeCpu => "three-cpu",
            Scenario::Contention => "contention",
            Scenario::TaskQueue => "task-queue",
        }
    }
}

/// Knobs for the telemetry-instrumented scenarios. Fields irrelevant to a
/// scenario are ignored (e.g. `contenders` for the task queue).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioOptions {
    /// Contending nodes (contention scenario).
    pub contenders: u32,
    /// Critical sections per contender (contention scenario).
    pub rounds: u32,
    /// Total tasks produced (task-queue scenario).
    pub tasks: u32,
    /// System size (task-queue scenario; three-cpu is fixed at 3 and
    /// contention uses `contenders + 1`).
    pub nodes: usize,
    /// Workload seed (think times of the contention scenario; recorded in
    /// the snapshot for all scenarios).
    pub seed: u64,
    /// Whether to collect timeline spans for the Chrome-trace export.
    pub timeline: bool,
    /// When set, collect a windowed time series with this window width
    /// (the `sesame-series/v1` export).
    pub window: Option<SimDur>,
    /// A causal event id whose chain will be asked for (`sesame explain
    /// --event`): the collector keeps it and its ancestors alongside the
    /// rollbacks' and the critical path's.
    pub explain: Option<u64>,
}

impl Default for ScenarioOptions {
    fn default() -> Self {
        ScenarioOptions {
            contenders: 4,
            rounds: 25,
            tasks: 48,
            nodes: 5,
            seed: 7,
            timeline: false,
            window: None,
            explain: None,
        }
    }
}

/// Runs `scenario` with an attached telemetry collector and returns the
/// finished collector (spans closed, post-run statistics absorbed).
pub fn run_with_telemetry(scenario: Scenario, opts: &ScenarioOptions) -> Telemetry {
    let mut telemetry = Telemetry::new(scenario.name(), opts.seed).with_timeline(opts.timeline);
    if let Some(window) = opts.window {
        telemetry = telemetry.with_series(window);
    }
    if let Some(id) = opts.explain {
        telemetry = telemetry.with_explained_event(id);
    }
    let shared = telemetry.shared();
    let observer: Rc<RefCell<dyn TraceObserver>> = shared.clone();
    match scenario {
        Scenario::ThreeCpu => {
            let (fig, result) =
                run_figure1_observed(ModelChoice::Gwc, Figure1Config::default(), Some(observer));
            let mut t = shared.borrow_mut();
            absorb_run(&mut t, &result);
            let reg = t.registry_mut();
            *reg.gauge("run/completion-ns") = fig.completion.as_nanos() as f64;
            for (i, wait) in fig.lock_waits.iter().enumerate() {
                *reg.gauge(&format!("run/lock-wait-{i}-ns")) = wait.as_nanos() as f64;
            }
        }
        Scenario::Contention => {
            let cfg = ContentionConfig {
                contenders: opts.contenders,
                rounds: opts.rounds,
                seed: opts.seed,
                ..ContentionConfig::default()
            };
            let run = run_contention_observed(cfg, Some(observer));
            let mut t = shared.borrow_mut();
            absorb_run(&mut t, &run.result);
            let reg = t.registry_mut();
            reg.counter("run/sections").add(run.sections);
            *reg.gauge("run/mean-section-latency-ns") = run.mean_section_latency.as_nanos() as f64;
        }
        Scenario::TaskQueue => {
            let cfg = TaskQueueConfig {
                total_tasks: opts.tasks,
                ..TaskQueueConfig::default()
            };
            let run = run_task_queue_observed(opts.nodes, ModelChoice::Gwc, cfg, Some(observer));
            let mut t = shared.borrow_mut();
            absorb_run(&mut t, &run.result);
            let reg = t.registry_mut();
            reg.counter("run/tasks").add(u64::from(cfg.total_tasks));
            *reg.gauge("run/speedup") = run.speedup;
        }
    }
    Telemetry::unwrap_shared(shared)
}

/// Folds a finished run's machine statistics into the registry and closes
/// the telemetry (span drain + end time).
///
/// Adds: `net/*` fabric traffic counters and the mean-busy-links gauge,
/// per-node `node/<i>/cpu/efficiency` gauges, memory-model counters under
/// `gwc/`, `ec/`, or `rc/`, and the `run/events` counter.
pub fn absorb_run(t: &mut Telemetry, result: &RunResult<ModelInstance>) {
    let end = result.end;
    {
        let reg = t.registry_mut();
        let fs = result.machine.fabric_stats();
        reg.counter("net/packets").add(fs.packets);
        reg.counter("net/bytes").add(fs.bytes);
        reg.counter("net/link-traversals").add(fs.link_traversals);
        reg.counter("net/losses").add(fs.losses);
        reg.counter("net/ser-ns").add(fs.ser_ns);
        if end.as_nanos() > 0 {
            *reg.gauge("net/mean-busy-links") = fs.ser_ns as f64 / end.as_nanos() as f64;
        }
        for i in 0..result.machine.node_count() {
            *reg.gauge(&format!("node/{i}/cpu/efficiency")) =
                result.efficiency(NodeId::new(i as u32));
        }
        for (key, value) in model_counters(result.machine.model()) {
            reg.counter(key).add(value);
        }
        reg.counter("run/events").add(result.events);
    }
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

    #[test]
    fn scenario_names_round_trip() {
        for s in Scenario::ALL {
            assert_eq!(Scenario::parse(s.name()), Some(s));
        }
        assert_eq!(Scenario::parse("nope"), None);
    }

    #[test]
    fn contention_telemetry_counts_optimism_and_traffic() {
        let opts = ScenarioOptions {
            rounds: 10,
            ..ScenarioOptions::default()
        };
        let t = run_with_telemetry(Scenario::Contention, &opts);
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
        assert!(snap.keys_matching("node/", "/wait").count() > 0);
    }

    #[test]
    fn timeline_collects_spans_when_enabled() {
        let opts = ScenarioOptions {
            rounds: 5,
            timeline: true,
            ..ScenarioOptions::default()
        };
        let t = run_with_telemetry(Scenario::Contention, &opts);
        assert!(!t.timeline().is_empty());
        let trace = t.chrome_trace();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("hold v0"));
    }

    #[test]
    fn three_cpu_and_task_queue_produce_snapshots() {
        let opts = ScenarioOptions {
            tasks: 16,
            ..ScenarioOptions::default()
        };
        let a = run_with_telemetry(Scenario::ThreeCpu, &opts);
        assert!(a.snapshot().counter("net/packets") > 0);
        assert!(a.registry().get("run/completion-ns").is_some());
        let b = run_with_telemetry(Scenario::TaskQueue, &opts);
        assert_eq!(b.snapshot().counter("run/tasks"), 16);
        assert!(b.snapshot().counter("gwc/grants") > 0);
    }

    #[test]
    fn observer_does_not_change_the_simulation() {
        let opts = ScenarioOptions::default();
        let observed = run_with_telemetry(Scenario::Contention, &opts);
        let bare = crate::contention::run_contention(ContentionConfig {
            contenders: opts.contenders,
            rounds: opts.rounds,
            seed: opts.seed,
            ..ContentionConfig::default()
        });
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
        let opts = ScenarioOptions::default();
        let t = run_with_telemetry(Scenario::Contention, &opts);
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
        let opts = ScenarioOptions::default();
        let t = run_with_telemetry(Scenario::Contention, &opts);
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
        let opts = ScenarioOptions {
            window: Some(SimDur::from_us(100)),
            ..ScenarioOptions::default()
        };
        let t = run_with_telemetry(Scenario::Contention, &opts);
        let series = t.series_export().expect("series enabled");
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
        let again = run_with_telemetry(Scenario::Contention, &opts);
        assert_eq!(again.series_json(), t.series_json());
        assert_eq!(again.series_csv(), t.series_csv());
        let bare = run_with_telemetry(
            Scenario::Contention,
            &ScenarioOptions {
                window: None,
                ..opts
            },
        );
        assert!(bare.series_export().is_none());
        assert_eq!(bare.snapshot(), snap);
    }

    #[test]
    fn causal_exports_are_byte_identical_for_same_seed_runs() {
        let opts = ScenarioOptions {
            timeline: true,
            ..ScenarioOptions::default()
        };
        let a = run_with_telemetry(Scenario::Contention, &opts);
        let b = run_with_telemetry(Scenario::Contention, &opts);
        assert_eq!(a.causes_json(), b.causes_json());
        assert_eq!(a.causes_dot(), b.causes_dot());
        // Flow-event arrows live in the Chrome trace.
        let trace = a.chrome_trace();
        assert_eq!(trace, b.chrome_trace());
        assert!(trace.contains("\"ph\":\"s\""));
        assert!(trace.contains("\"ph\":\"f\",\"bp\":\"e\""));
    }
}

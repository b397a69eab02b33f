//! Determinism and non-interference tests for the telemetry layer.
//!
//! Two runs with the same seed must export byte-identical JSON snapshots,
//! CSV files, and Chrome traces; attaching the collector must not change
//! the simulation timeline.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use sesame_sim::SimDur;
use sesame_telemetry::{CausalDag, Telemetry};
use sesame_verify::Verifier;
use sesame_workloads::contention::{run_contention, run_contention_observed, ContentionConfig};
use sesame_workloads::scenario::Scenario;
use sesame_workloads::task_queue::TaskQueueConfig;
use sesame_workloads::telemetry::{absorb_run, observe};

/// The contention scenario every single-scenario test here runs: 4
/// contenders x 15 rounds on seed 11.
fn contention() -> ContentionConfig {
    ContentionConfig {
        contenders: 4,
        rounds: 15,
        seed: 11,
        ..ContentionConfig::default()
    }
}

/// All six scenarios: contention and the task queue at this suite's sizes
/// (15 rounds, 32 tasks), the rest at the smoke sizes `sesame verify
/// --scenario all` runs (a 400-CPU mesh, 128 visits round 8 CPUs, the
/// canonical mutex at 3 x 2).
fn scenarios() -> Vec<Scenario> {
    let sized = |name| match Scenario::parse(name).expect("a listed name") {
        Scenario::Contention(_) => Scenario::Contention(contention()),
        Scenario::TaskQueue { nodes, model, cfg } => {
            let total_tasks = 32;
            let cfg = TaskQueueConfig { total_tasks, ..cfg };
            Scenario::TaskQueue { nodes, model, cfg }
        }
        other => other,
    };
    Scenario::NAMES.into_iter().map(sized).collect()
}

/// A collector with a timeline, as `sesame run --timeline-out` builds it.
fn collect(scenario: &Scenario) -> Telemetry {
    let telemetry = Telemetry::new(scenario.name(), 11).with_timeline(true);
    observe(scenario, telemetry).expect("a clean run")
}

#[test]
fn every_scenario_name_round_trips_through_the_parser() {
    let names: Vec<&str> = scenarios().iter().map(Scenario::name).collect();
    assert_eq!(names, Scenario::NAMES);
}

#[test]
fn same_seed_exports_are_byte_identical() {
    for scenario in scenarios() {
        let name = scenario.name();
        let (a, b) = (collect(&scenario), collect(&scenario));
        assert_eq!(
            a.snapshot().to_json(),
            b.snapshot().to_json(),
            "snapshot JSON differs for {name}"
        );
        assert_eq!(
            a.snapshot().to_csv(),
            b.snapshot().to_csv(),
            "snapshot CSV differs for {name}"
        );
        assert_eq!(
            a.chrome_trace(),
            b.chrome_trace(),
            "Chrome trace differs for {name}"
        );
        assert_eq!(a.causes_json(), b.causes_json(), "causes differ for {name}");
        assert!(!a.timeline().is_empty(), "{name} timeline");
    }
}

#[test]
fn snapshot_json_round_trips_exactly() {
    let t = collect(&Scenario::Contention(contention()));
    let json = t.snapshot().to_json();
    let parsed = sesame_telemetry::Snapshot::from_json(&json).expect("valid snapshot");
    assert_eq!(parsed.to_json(), json);
    assert_eq!(parsed.scenario, "contention");
    assert_eq!(parsed.seed, 11);
}

#[test]
fn telemetry_observer_does_not_perturb_the_simulation() {
    // The acceptance bar: disabling telemetry changes no simulation
    // timeline. Compare an observed run against a bare run of the same
    // configuration.
    let bare = run_contention(contention());
    let observed = collect(&Scenario::Contention(contention()));
    assert_eq!(observed.end(), bare.result.end, "simulated end drifted");
    assert_eq!(
        observed.snapshot().counter("run/events"),
        bare.result.events,
        "event count drifted"
    );
    assert_eq!(
        observed.snapshot().counter("run/sections"),
        bare.sections,
        "section count drifted"
    );
}

#[test]
fn no_observer_perturbs_any_scenario_and_every_one_verifies_clean() {
    // Plain, under the collector, under the online verifier: the same
    // makespan, event count and fabric traffic three times, and not one
    // diagnostic.
    for scenario in scenarios() {
        let name = scenario.name();
        let plain = scenario.run(None).expect("a clean run");
        let plain = plain.result();
        let collected = collect(&scenario).snapshot();
        assert_eq!(collected.end_ns, plain.end.as_nanos(), "{name}");
        assert_eq!(collected.counter("run/events"), plain.events, "{name}");
        let fabric = plain.machine.fabric_stats();
        assert_eq!(collected.counter("net/packets"), fabric.packets, "{name}");
        assert_eq!(collected.counter("net/bytes"), fabric.bytes, "{name}");
        assert_eq!(
            collected.counter("net/link-traversals"),
            fabric.link_traversals,
            "{name}"
        );

        let verifier = Rc::new(RefCell::new(Verifier::new()));
        let verified = scenario.run(Some(verifier.clone())).expect("a clean run");
        let verified = verified.result();
        assert_eq!((verified.end, verified.events), (plain.end, plain.events));
        assert_eq!(verified.machine.fabric_stats(), fabric, "{name}");
        verifier.borrow_mut().finish();
        assert_eq!(verifier.borrow().report(), "", "{name} violations");
    }
}

#[test]
fn chrome_trace_contains_all_span_families() {
    let t = collect(&Scenario::Contention(contention()));
    let trace = t.chrome_trace();
    // Lock sections, optimistic sections, and network flights all appear.
    assert!(trace.contains("\"wait v0\""), "lock wait spans");
    assert!(trace.contains("\"hold v0\""), "lock hold spans");
    assert!(trace.contains("optimistic v0"), "optimistic sections");
    assert!(trace.contains("\"cat\":\"net\""), "message-in-flight spans");
    assert!(trace.contains("\"cat\":\"gwc\""), "root sequencing spans");
    // Valid JSON end to end.
    sesame_telemetry::json::parse(&trace).expect("trace parses");
}

/// The node lines of a `sesame-causes/v1` document, without the comma that
/// joins each to the next.
fn node_lines(json: &str) -> impl Iterator<Item = &str> {
    let nodes = json.lines().filter(|l| l.starts_with("  {\"id\":"));
    nodes.map(|l| l.trim_end_matches(','))
}

#[test]
fn finished_collector_answers_like_the_full_dag_of_the_same_run() {
    // The ledger's `observed_contention` shape at a fraction of its
    // length, trace retained: the collector's DAG — cut to the explained
    // set by `finish` — against the full DAG rebuilt from the trace.
    for seed in [1, 7, 23] {
        let cfg = ContentionConfig {
            contenders: 16,
            rounds: 150,
            mean_think: SimDur::from_us(400),
            seed,
            tracing: true,
            ..ContentionConfig::default()
        };
        let shared = Telemetry::new("contention", seed).shared();
        let run = run_contention_observed(cfg, Some(shared.clone()));
        absorb_run(&mut shared.borrow_mut(), &run.result);
        let full = CausalDag::from_trace(run.result.trace.entries());
        let t = shared.borrow();
        let kept = t.causes();

        assert_eq!(kept.recorded(), full.len(), "seed {seed}");
        assert_eq!(full.recorded(), full.len());
        assert!(
            kept.len() * 20 < kept.recorded(),
            "seed {seed}: {} of {} nodes kept",
            kept.len(),
            kept.recorded()
        );
        let rollbacks = kept.rollbacks();
        assert!(!rollbacks.is_empty(), "seed {seed} must roll back");
        assert_eq!(rollbacks, full.rollbacks());
        for id in rollbacks {
            assert_eq!(kept.render_chain(id), full.render_chain(id), "#{id}");
        }
        let path = |dag: &CausalDag| format!("{:?}", dag.critical_path());
        assert_eq!(path(kept), path(&full), "seed {seed}");

        // The export: one line per kept node, each a line of the full one
        // (but for the comma that joins it to the next).
        let (kept_json, full_json) = (kept.to_json(), full.to_json());
        let kept_lines: Vec<&str> = node_lines(&kept_json).collect();
        assert_eq!(kept_lines.len(), kept.len());
        let full_lines: BTreeSet<&str> = node_lines(&full_json).collect();
        assert!(kept_lines.iter().all(|l| full_lines.contains(l)));
    }
}

/// The observers did not change their minds: one contention run (the
/// goldens' 4 x 15 on seed 7, `--window 100000`, timeline on) exports the
/// bytes of the three committed goldens and of the Chrome trace as
/// captured before the trace kind became an enum, and the same run
/// without Figure 6 hardware blocking draws the verifier's diagnostics
/// word for word.
#[test]
fn observers_report_what_they_reported_before_kinds_were_an_enum() {
    let cfg = ContentionConfig {
        contenders: 4,
        rounds: 15,
        ..ContentionConfig::default()
    };
    let collector = Telemetry::new("contention", 7)
        .with_timeline(true)
        .with_series(SimDur::from_nanos(100_000));
    let t = observe(&Scenario::Contention(cfg), collector).expect("a clean run");
    assert_eq!(
        t.snapshot().to_json(),
        include_str!("../golden/contention_metrics.json")
    );
    assert_eq!(
        t.series_json().expect("series enabled"),
        include_str!("../golden/contention_series.json")
    );
    assert_eq!(
        t.causes_json(),
        include_str!("../golden/contention_causes.json")
    );
    let trace = t.chrome_trace();
    let fnv1a = |text: &str| {
        let step = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        text.as_bytes().iter().fold(0xcbf2_9ce4_8422_2325, step)
    };
    assert_eq!((trace.len(), fnv1a(&trace)), CHROME_TRACE, "Chrome trace");

    let machine = sesame_dsm::MachineConfig {
        hw_block: false,
        ..cfg.machine
    };
    let unblocked = ContentionConfig {
        machine,
        check_counter: false,
        ..cfg
    };
    let verifier = Rc::new(RefCell::new(Verifier::new()));
    run_contention_observed(unblocked, Some(verifier.clone()));
    verifier.borrow_mut().finish();
    assert_eq!(verifier.borrow().report(), UNBLOCKED_REPORT);
}

/// Length and FNV-1a of the Chrome trace above.
const CHROME_TRACE: (usize, u64) = (301_366, 4_092_084_763_910_990_437);

/// What the verifier says of the run above with hardware blocking off.
const UNBLOCKED_REPORT: &str = "\
[mutual-exclusion] t=14.979us node3: node3 applied the echo of its own mutex-group data write to v1: Figure 6 hardware blocking failed
[mutual-exclusion] t=17.635us node2: node2 applied the echo of its own mutex-group data write to v1: Figure 6 hardware blocking failed
[mutual-exclusion] t=30.901us node1: node1 applied the echo of its own mutex-group data write to v1: Figure 6 hardware blocking failed
[mutual-exclusion] t=56.228us node4: node4 applied the echo of its own mutex-group data write to v1: Figure 6 hardware blocking failed
";

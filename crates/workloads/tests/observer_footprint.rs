//! Heap-footprint budgets for the two observers on the ledger's
//! `observed_contention` run (16 contenders x 2 000 rounds, 400 us mean
//! think, seed 7), measured with the per-thread byte-counting allocator.
//!
//! * The series export is written straight into its string and read back
//!   one window at a time: each step peaks at most at twice the text plus
//!   256 KiB. Building and walking `Json` trees peaked at about 7x and
//!   8.6x the text.
//! * After `finish` the verifier holds, in flat per-group tables, at most
//!   8 bytes per node per clock and 64 bytes of table per sequenced write,
//!   plus 64 KiB. One heap clock per write in `(group, seq)` hash maps held
//!   11.4 MB on this run, about 356 bytes per clock, against a 10.4 MB
//!   budget.
//! * Told each group's applied floor, the verifier and the collector keep
//!   per-write state only for the writes in flight: the same at 1 000 and
//!   2 000 rounds, and the verifier 24 KB after `finish` (9.7 MB when it
//!   kept every write's payload and clock until the end).
//! * After `absorb_run` the collector's causal DAG holds the ancestors of
//!   the run's rollbacks and critical path at 20 bytes a node (a 16-byte
//!   record and a 4-byte front id) plus 64 KiB for the rollback blame:
//!   1.64 MB for 79 785 nodes. A 24-byte record and a `u64` id held
//!   2.60 MB.
//! * The collector on a 2 500-node `bigmesh`, through `snapshot().to_json()`,
//!   peaks within its budget: its metrics are typed rows rendered into
//!   keys at the snapshot, and the export is written straight into its
//!   string: 15.0 MB. A registry slot of about 560 bytes per key, reached
//!   through a slot cache, and a `Json` tree built at export peaked at
//!   62.8 MB.

use std::cell::RefCell;
use std::rc::Rc;

use sesame_alloc_probe::{live_bytes, peak_bytes, reset_peak, CountingAlloc};
use sesame_sim::{SimDur, TraceEntry, TraceKind, TraceObserver};
use sesame_telemetry::{SeriesExport, Telemetry};
use sesame_verify::Verifier;
use sesame_workloads::bigmesh::BigMeshConfig;
use sesame_workloads::contention::{run_contention_observed, ContentionConfig};
use sesame_workloads::scenario::Scenario;
use sesame_workloads::telemetry::{absorb_run, observe};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn ledger_run() -> ContentionConfig {
    ContentionConfig {
        contenders: 16,
        rounds: 2_000,
        mean_think: SimDur::from_us(400),
        seed: 7,
        ..ContentionConfig::default()
    }
}

#[test]
fn the_series_export_and_its_validator_peak_within_twice_the_text() {
    let telemetry = Telemetry::new("observed_contention", 7)
        .with_series(SimDur::from_us(100))
        .shared();
    let run = run_contention_observed(ledger_run(), Some(telemetry.clone()));
    absorb_run(&mut telemetry.borrow_mut(), &run.result);
    drop(run);
    let t = telemetry.borrow();

    let before = live_bytes();
    reset_peak();
    let text = t.series_json().expect("series enabled");
    let written = peak_bytes() - before;

    let before = live_bytes();
    reset_peak();
    let series = SeriesExport::from_json(&text).expect("the export validates");
    let read = peak_bytes() - before;

    assert!(
        series.windows.len() > 5_000,
        "{} windows",
        series.windows.len()
    );
    let budget = 2 * text.len() + 256 * 1024;
    for (step, peak) in [("series_json", written), ("from_json", read)] {
        assert!(
            peak <= budget,
            "{step} peaked at {peak} heap bytes for a {} byte export, budget {budget}",
            text.len()
        );
    }
}

/// What the collector's causal DAG holds after `finish`, measured as the
/// heap a copy of it allocates: 20 bytes a kept node, plus the rollback
/// blame within a fixed 64 KiB.
#[test]
fn the_causal_dag_holds_twenty_bytes_per_kept_node_after_finish() {
    let telemetry = Telemetry::new("observed_contention", 7)
        .with_series(SimDur::from_us(100))
        .shared();
    let run = run_contention_observed(ledger_run(), Some(telemetry.clone()));
    absorb_run(&mut telemetry.borrow_mut(), &run.result);
    drop(run);
    let t = telemetry.borrow();
    let dag = t.causes();
    let before = live_bytes();
    let copy = dag.clone();
    let held = live_bytes() - before;
    assert_eq!(copy.len(), dag.len());
    assert!(dag.len() > 50_000, "{} nodes kept", dag.len());
    let budget = 20 * dag.len() + 64 * 1024;
    assert!(
        held <= budget,
        "the causal DAG holds {held} heap bytes for {} kept nodes, budget {budget}",
        dag.len()
    );
}

/// The verifier, counting the sequenced writes it is shown.
#[derive(Default)]
struct Counted {
    verifier: Verifier,
    sequenced: usize,
}

impl TraceObserver for Counted {
    fn on_record(&mut self, entry: &TraceEntry) {
        self.sequenced += usize::from(entry.kind == TraceKind::RootSeq);
        self.verifier.on_record(entry);
    }

    fn on_seq_floor(&mut self, group: u32, floor: u64) {
        self.verifier.on_seq_floor(group, floor);
    }
}

#[test]
fn the_verifier_holds_a_clock_per_data_write_and_a_payload_per_sequenced_write() {
    let cfg = ledger_run();
    let before = live_bytes();
    let counted = Rc::new(RefCell::new(Counted::default()));
    let run = run_contention_observed(cfg, Some(counted.clone()));
    let nodes = run.result.machine.node_count();
    drop(run);
    let mut counted = counted.borrow_mut();
    counted.verifier.finish();
    assert!(counted.verifier.violations().is_empty());
    let held = live_bytes() - before;
    // Each section writes the shared counter once, and that write's clock
    // is bound to its sequence number; the lock word's sequenced writes
    // carry none.
    let clocks = (cfg.contenders * cfg.rounds) as usize;
    let sequenced = counted.sequenced;
    assert!(sequenced > 2 * clocks, "{sequenced} sequenced writes");
    let budget = 8 * nodes * clocks + 64 * sequenced + 64 * 1024;
    assert!(
        held <= budget,
        "the verifier holds {held} heap bytes after {sequenced} sequenced writes, {clocks} \
         of them with a clock, on {nodes} nodes; budget {budget}"
    );
}

/// The verifier's heap after `finish` on a `rounds`-round ledger run.
fn verifier_held(rounds: u32) -> usize {
    let cfg = ContentionConfig {
        rounds,
        ..ledger_run()
    };
    let before = live_bytes();
    let verifier = Rc::new(RefCell::new(Verifier::new()));
    drop(run_contention_observed(cfg, Some(verifier.clone())));
    let mut verifier = verifier.borrow_mut();
    verifier.finish();
    assert!(verifier.violations().is_empty());
    live_bytes() - before
}

/// The collector's sequencing spans just before `finish` on a
/// `rounds`-round ledger run.
fn spans_held(rounds: u32) -> usize {
    let cfg = ContentionConfig {
        rounds,
        ..ledger_run()
    };
    let telemetry = Telemetry::new("observed_contention", 7)
        .with_series(SimDur::from_us(100))
        .shared();
    drop(run_contention_observed(cfg, Some(telemetry.clone())));
    let bytes = telemetry.borrow().seq_spans_heap_bytes();
    bytes
}

/// What the verifier and the collector keep per sequenced write retires at
/// the group's applied floor, so it is bounded by the writes in flight,
/// not by the run's length: doubling the run moves neither by 64 KiB, and
/// the verifier ends the ledger run within 256 KiB. Kept until the end of
/// the run, the verifier held 9.7 MB here.
#[test]
fn per_write_observer_state_is_bounded_by_the_writes_in_flight() {
    let (short, long) = (verifier_held(1_000), verifier_held(2_000));
    assert!(
        short.abs_diff(long) < 64 * 1024,
        "the verifier holds {short} heap bytes after 1 000 rounds, {long} after 2 000"
    );
    assert!(
        long <= 256 * 1024,
        "the verifier holds {long} heap bytes after 2 000 rounds"
    );
    let (short, long) = (spans_held(1_000), spans_held(2_000));
    assert!(
        short.abs_diff(long) < 64 * 1024,
        "the collector's spans hold {short} heap bytes after 1 000 rounds, {long} after 2 000"
    );
}

/// The collector's heap peak over a 2 500-node mesh run and its metrics
/// export: 15 029 692 bytes when written; 62 807 422 with a registry slot
/// per key and a `Json` tree at export.
#[test]
fn the_collector_on_a_mesh_peaks_within_its_budget() {
    const BUDGET: usize = 20 << 20;
    let scenario = Scenario::BigMesh(BigMeshConfig {
        nodes: 2_500,
        ..BigMeshConfig::default()
    });
    let before = live_bytes();
    reset_peak();
    let t = observe(&scenario, Telemetry::new("bigmesh", 7)).expect("a clean run");
    let text = t.snapshot().to_json();
    let peak = peak_bytes() - before;
    assert!(text.len() > 1_000_000, "a {} byte export", text.len());
    assert!(
        peak <= BUDGET,
        "the collector peaked at {peak} heap bytes for a {} byte export, budget {BUDGET}",
        text.len()
    );
}

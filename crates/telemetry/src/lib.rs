//! # sesame-telemetry — metrics, spans, and timeline export
//!
//! The observability layer of the `sesame-rs` reproduction. It turns the
//! structured protocol trace stream (`sesame_sim::TraceKind` kinds with
//! typed `sesame_sim::TraceDetail` payloads; `docs/verify.md` tabulates
//! the vocabulary) plus post-run machine statistics into:
//!
//! * metrics under hierarchical keys (`node/<n>/lock/<l>/...`): the
//!   observer's per-record counts in typed rows, rendered beside the
//!   named counters and gauges the post-run and workload glue sets
//!   ([`Telemetry::add_counter`], [`Telemetry::set_gauge`]) into one
//!   [`Snapshot`];
//! * simulated-time spans on a [`Timeline`] (lock sections, optimistic
//!   sections, rollback instants, message-in-flight and root-sequencing
//!   intervals);
//! * a cross-node [`CausalDag`] (cause→effect chains, rollback blame,
//!   critical-path extraction) assembled from the `"cause"` records the
//!   machine emits while tracing, and cut down at the end of the run to
//!   the nodes those answers read;
//! * a windowed [`SeriesExport`] (per-window rollbacks, optimism, lock
//!   waits, traffic and queue depths), bumped by the same records;
//! * deterministic exporters: a stable JSON [`Snapshot`] schema, CSV,
//!   Chrome trace-event / Perfetto JSON (including cross-track causal
//!   flow arrows), and causal-DAG JSON / Graphviz DOT.
//!
//! [`Telemetry`] is the façade: it implements
//! [`TraceObserver`](sesame_sim::TraceObserver), so a run wired through
//! `sesame_dsm::run_observed` feeds it online with zero cost when no
//! observer is attached (a trace record is `Copy` data: no call site
//! formats or allocates, observed or not).
//! Everything is deterministic — two runs with the same seed produce
//! byte-identical exports.
//!
//! ```
//! use sesame_sim::{SimTime, TraceDetail, TraceEntry, TraceKind as K};
//! use sesame_telemetry::Telemetry;
//!
//! let mut t = Telemetry::new("demo", 7).with_timeline(true);
//! for (ns, kind) in [(10, K::LockAcquire), (40, K::EvAcquired), (90, K::EvReleased)] {
//!     t.observe(&TraceEntry {
//!         time: SimTime::from_nanos(ns),
//!         actor: 0,
//!         kind,
//!         detail: TraceDetail::Var { var: 0 },
//!     });
//! }
//! t.finish(SimTime::from_nanos(100));
//! let snapshot = t.snapshot();
//! assert_eq!(snapshot.metrics.len(), 2); // wait + hold histograms
//! assert!(t.chrome_trace().contains("hold v0"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod causal;
pub mod json;
mod observer;
mod report;
mod series;
mod snapshot;
mod timeline;

use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::rc::Rc;

use sesame_sim::{SimDur, SimTime};

pub use causal::{CausalDag, CausalNode, CriticalPath};
pub use report::render_report;
pub use series::{render_series_report, SeriesExport, SeriesWindow, SERIES_SCHEMA};
pub use snapshot::{Snapshot, SnapshotValue, SCHEMA};
pub use timeline::{cat, Timeline};

/// The observability façade: named metrics, the timeline and the
/// trace-observer state that builds rows and spans from the event stream.
#[derive(Debug, Clone)]
pub struct Telemetry {
    scenario: String,
    seed: u64,
    /// The counters and gauges set by key: the workload glue's and
    /// `absorb_run`'s, beside the observer's rows.
    named: BTreeMap<String, SnapshotValue>,
    timeline: Timeline,
    timeline_enabled: bool,
    end: SimTime,
    rows: observer::Rows,
    causal: causal::CausalState,
    /// A causal id [`Telemetry::finish`] keeps with its ancestors.
    explained: Option<u64>,
    series: Option<SeriesExport>,
}

impl Telemetry {
    /// Creates telemetry for one run of `scenario` with workload `seed`.
    /// Timeline collection starts disabled; see [`Telemetry::with_timeline`].
    pub fn new(scenario: &str, seed: u64) -> Self {
        Telemetry {
            scenario: scenario.to_string(),
            seed,
            named: BTreeMap::new(),
            timeline: Timeline::new(),
            timeline_enabled: false,
            end: SimTime::ZERO,
            rows: observer::Rows::default(),
            causal: causal::CausalState::default(),
            explained: None,
            series: None,
        }
    }

    /// Enables (or disables) timeline span collection.
    pub fn with_timeline(mut self, enabled: bool) -> Self {
        self.timeline_enabled = enabled;
        self
    }

    /// Enables windowed time-series collection with the given window width.
    ///
    /// # Panics
    ///
    /// Panics on a zero-width window.
    pub fn with_series(mut self, window: SimDur) -> Self {
        self.series = Some(SeriesExport::new(&self.scenario, self.seed, window));
        self
    }

    /// Names one causal event whose chain will be asked for after the run
    /// (`sesame explain --event`): [`Telemetry::finish`] keeps it and its
    /// ancestors whether or not a rollback or the critical path descends
    /// from it.
    pub fn with_explained_event(mut self, id: u64) -> Self {
        self.explained = Some(id);
        self
    }

    /// Wraps this telemetry for use as a shared
    /// [`TraceObserver`](sesame_sim::TraceObserver) (what
    /// `sesame_dsm::run_observed` takes). Unwrap with
    /// [`Telemetry::unwrap_shared`] after the run.
    pub fn shared(self) -> Rc<RefCell<Telemetry>> {
        Rc::new(RefCell::new(self))
    }

    /// Recovers the telemetry from its shared wrapper.
    ///
    /// # Panics
    ///
    /// Panics while other clones of the `Rc` are still alive. A finished
    /// run holds none: its `RunResult` carries the records, not the
    /// observer.
    pub fn unwrap_shared(shared: Rc<RefCell<Telemetry>>) -> Telemetry {
        Rc::try_unwrap(shared)
            .expect("telemetry still shared: a run is still attached to it")
            .into_inner()
    }

    /// Adds `n` to the counter at `key`, created at 0 on first use (so
    /// `add_counter(key, 0)` still exports `key`).
    ///
    /// # Panics
    ///
    /// Panics if `key` holds a gauge.
    pub fn add_counter(&mut self, key: &str, n: u64) {
        let slot = self
            .named
            .entry(key.to_string())
            .or_insert(SnapshotValue::Counter(0));
        match slot {
            SnapshotValue::Counter(v) => *v += n,
            _ => panic!("metric '{key}' is a gauge, added to as a counter"),
        }
    }

    /// Sets the gauge at `key` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `key` holds a counter.
    pub fn set_gauge(&mut self, key: &str, value: f64) {
        let slot = self
            .named
            .entry(key.to_string())
            .or_insert(SnapshotValue::Gauge(value));
        match slot {
            SnapshotValue::Gauge(v) => *v = value,
            _ => panic!("metric '{key}' is a counter, set as a gauge"),
        }
    }

    /// The collected timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// The scenario label given at construction.
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// The simulated end time recorded by [`Telemetry::finish`].
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Takes the JSON-exportable snapshot of every metric: the named ones
    /// and the observer's rows. Call after [`Telemetry::finish`] so
    /// time-weighted averages cover the full run.
    ///
    /// # Panics
    ///
    /// Panics if a named key is also the key of an observer metric.
    pub fn snapshot(&self) -> Snapshot {
        let mut metrics = self.named.clone();
        self.rows.render(self.end, |key, value| {
            match metrics.entry(key) {
                Entry::Vacant(slot) => slot.insert(value),
                Entry::Occupied(slot) => panic!(
                    "metric '{}' is both a registry key and an observer metric",
                    slot.key()
                ),
            };
        });
        Snapshot {
            scenario: self.scenario.clone(),
            seed: self.seed,
            end_ns: self.end.as_nanos(),
            metrics,
        }
    }

    /// Renders the timeline as Chrome trace-event JSON.
    pub fn chrome_trace(&self) -> String {
        self.timeline.to_chrome_trace()
    }

    /// The causal DAG assembled from the run's `"cause"` records. After
    /// [`Telemetry::finish`] it holds the explained set — the ancestors of
    /// every rollback, of the critical path's end and of the event named
    /// by [`Telemetry::with_explained_event`] — and
    /// [`CausalDag::recorded`] says how many actions the run recorded;
    /// [`CausalDag::from_trace`] over a retained trace builds all of them.
    pub fn causes(&self) -> &CausalDag {
        &self.causal.dag
    }

    /// The causal DAG as deterministic `sesame-causes/v1` JSON.
    pub fn causes_json(&self) -> String {
        self.causal.dag.to_json()
    }

    /// The causal DAG as deterministic Graphviz DOT.
    pub fn causes_dot(&self) -> String {
        self.causal.dag.to_dot()
    }

    /// Heap bytes held by the open sequencing spans until
    /// [`Telemetry::finish`]: one per root-sequenced write some member has
    /// yet to apply, or, with the timeline on, one per write.
    pub fn seq_spans_heap_bytes(&self) -> usize {
        self.rows
            .groups
            .values()
            .map(|group| group.pending.heap_bytes())
            .sum()
    }

    /// The time series, when enabled. [`Telemetry::finish`] pads it with
    /// empty windows to cover the whole run.
    pub fn series(&self) -> Option<&SeriesExport> {
        self.series.as_ref()
    }

    /// The time series as deterministic `sesame-series/v1` JSON, when
    /// enabled.
    pub fn series_json(&self) -> Option<String> {
        self.series.as_ref().map(SeriesExport::to_json)
    }

    /// The time series as deterministic CSV, when enabled.
    pub fn series_csv(&self) -> Option<String> {
        self.series.as_ref().map(SeriesExport::to_csv)
    }
}

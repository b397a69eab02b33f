//! # sesame-telemetry — metrics, spans, and timeline export
//!
//! The observability layer of the `sesame-rs` reproduction. It turns the
//! structured protocol trace stream (`sesame_sim::TraceKind` kinds with
//! typed `sesame_sim::TraceDetail` payloads; `docs/verify.md` tabulates
//! the vocabulary) plus post-run machine statistics into:
//!
//! * a hierarchical [`MetricRegistry`] (`node/<n>/lock/<l>/...` keys over
//!   the `sesame-sim` measurement primitives);
//! * simulated-time spans on a [`Timeline`] (lock sections, optimistic
//!   sections, rollback instants, message-in-flight and root-sequencing
//!   intervals);
//! * a cross-node [`CausalDag`] (cause→effect chains, rollback blame,
//!   critical-path extraction) assembled from the `"cause"` records the
//!   machine emits while tracing, and cut down at the end of the run to
//!   the nodes those answers read;
//! * deterministic exporters: a stable JSON [`Snapshot`] schema, CSV,
//!   Chrome trace-event / Perfetto JSON (including cross-track causal
//!   flow arrows), and causal-DAG JSON / Graphviz DOT.
//!
//! [`Telemetry`] is the façade: it implements
//! [`TraceObserver`](sesame_sim::TraceObserver), so a run wired through
//! `sesame_dsm::run_observed` feeds it online with zero cost when no
//! observer is attached (trace call sites never format or allocate).
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
mod registry;
mod report;
mod series;
mod snapshot;
mod timeline;

use std::cell::RefCell;
use std::rc::Rc;

use sesame_sim::{SimDur, SimTime};

pub use causal::{CausalDag, CausalNode, CriticalPath};
pub use registry::{Metric, MetricRegistry};
pub use report::render_report;
pub use series::{render_series_report, SeriesExport, SeriesWindow, TimeSeries, SERIES_SCHEMA};
pub use snapshot::{Snapshot, SnapshotValue, SCHEMA};
pub use timeline::{cat, Timeline};

/// The observability façade: registry + timeline + the trace-observer
/// state that builds spans from the event stream.
#[derive(Debug, Clone)]
pub struct Telemetry {
    scenario: String,
    seed: u64,
    registry: MetricRegistry,
    /// Registry slots the observer has resolved so far.
    slots: observer::SlotCache,
    timeline: Timeline,
    timeline_enabled: bool,
    end: SimTime,
    state: observer::SpanState,
    causal: causal::CausalState,
    /// A causal id [`Telemetry::finish`] keeps with its ancestors.
    explained: Option<u64>,
    series: Option<TimeSeries>,
}

impl Telemetry {
    /// Creates telemetry for one run of `scenario` with workload `seed`.
    /// Timeline collection starts disabled; see [`Telemetry::with_timeline`].
    pub fn new(scenario: &str, seed: u64) -> Self {
        Telemetry {
            scenario: scenario.to_string(),
            seed,
            registry: MetricRegistry::new(),
            slots: observer::SlotCache::new(),
            timeline: Timeline::new(),
            timeline_enabled: false,
            end: SimTime::ZERO,
            state: observer::SpanState::default(),
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
    /// Panics on a zero-width window (see [`TimeSeries::new`]).
    pub fn with_series(mut self, window: SimDur) -> Self {
        self.series = Some(TimeSeries::new(window));
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

    /// The metric registry (for direct post-run instrumentation).
    pub fn registry_mut(&mut self) -> &mut MetricRegistry {
        &mut self.registry
    }

    /// The metric registry, read-only.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// The collected timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Whether timeline span collection is on.
    pub fn timeline_enabled(&self) -> bool {
        self.timeline_enabled
    }

    /// The scenario label given at construction.
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// The simulated end time recorded by [`Telemetry::finish`].
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Takes the JSON-exportable snapshot of every metric. Call after
    /// [`Telemetry::finish`] so time-weighted averages cover the full run.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot(&self.scenario, self.seed, self.end)
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

    /// The live time-series aggregator, when enabled.
    pub fn series(&self) -> Option<&TimeSeries> {
        self.series.as_ref()
    }

    /// The exportable time series (call after [`Telemetry::finish`] so
    /// empty-window padding covers the full run), when enabled.
    pub fn series_export(&self) -> Option<SeriesExport> {
        self.series
            .as_ref()
            .map(|s| s.export(&self.scenario, self.seed))
    }

    /// The time series as deterministic `sesame-series/v1` JSON, when enabled.
    pub fn series_json(&self) -> Option<String> {
        self.series_export().map(|e| e.to_json())
    }

    /// The time series as deterministic CSV, when enabled.
    pub fn series_csv(&self) -> Option<String> {
        self.series_export().map(|e| e.to_csv())
    }
}

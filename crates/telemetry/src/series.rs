//! Windowed time-series telemetry: the time dimension of observability.
//!
//! The snapshot exporter collapses a run to end-of-run scalars; this module
//! keeps the trajectory. A [`TimeSeries`] rides along inside [`Telemetry`]
//! (see [`Telemetry::with_series`](crate::Telemetry::with_series)) and
//! buckets selected trace events into fixed simulated-time windows:
//! rollbacks, optimism attempts/wins, completions, lock-wait closures (count
//! and total wait time, bucketed at grant time), packet and multicast sends,
//! and the per-variable maximum root/EC queue depth seen in the window.
//!
//! The export schema (`sesame-series/v1`) is stable and deterministic —
//! two same-seed runs produce byte-identical JSON and CSV. Top level:
//!
//! ```json
//! {
//!   "schema": "sesame-series/v1",
//!   "scenario": "contention",
//!   "seed": 7,
//!   "window_ns": 100000,
//!   "end_ns": 1234567,
//!   "windows": [ { "start_ns": 0, "rollbacks": 1, ...,
//!                  "queue_depth_max": { "0": 3 } }, ... ]
//! }
//! ```
//!
//! Empty windows are materialized (not skipped), so the series always covers
//! `[0, end)` with `ceil(end / window)` rows and plotting needs no gap
//! handling.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sesame_sim::{SimDur, SimTime, TraceDetail, TraceEntry, TraceKind as K};

use crate::json::{self, Json};

/// Schema identifier written into (and required from) every series export.
pub const SERIES_SCHEMA: &str = "sesame-series/v1";

/// Aggregates for one fixed simulated-time window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesWindow {
    /// Optimistic rollbacks (`opt-rollback`) in the window.
    pub rollbacks: u64,
    /// Optimistic section entries (`opt-enter`).
    pub opt_attempts: u64,
    /// Optimistic completions with zero rollbacks, bucketed at completion.
    pub opt_wins: u64,
    /// Mutex completions (`mutex-complete`), optimistic or regular.
    pub completions: u64,
    /// Lock waits that *closed* in this window (bucketed at grant time).
    pub lock_waits: u64,
    /// Total simulated wait time of those closed waits, in nanoseconds.
    pub lock_wait_ns: u64,
    /// Point-to-point packet sends (`pkt-send`).
    pub packets: u64,
    /// Multicast sends (`pkt-mcast`).
    pub mcasts: u64,
    /// Maximum root/EC queue depth observed per variable.
    pub queue_depth_max: BTreeMap<u32, u32>,
}

/// The most windows a series grows to. Each window owns a map, and the
/// width comes from outside (`--window`): a few nanoseconds on a long run
/// would otherwise ask for as many windows as the run has nanoseconds.
const MAX_WINDOWS: usize = 1 << 20;

/// The live windowed aggregator fed by the trace observer.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    window: SimDur,
    windows: Vec<SeriesWindow>,
    wait_start: BTreeMap<(usize, u32), SimTime>,
    end: SimTime,
    truncated: bool,
}

impl TimeSeries {
    /// Creates an aggregator with the given window width.
    ///
    /// # Panics
    ///
    /// Panics on a zero-width window.
    pub fn new(window: SimDur) -> Self {
        assert!(window.as_nanos() > 0, "series window must be > 0 ns");
        TimeSeries {
            window,
            windows: Vec::new(),
            wait_start: BTreeMap::new(),
            end: SimTime::ZERO,
            truncated: false,
        }
    }

    /// The configured window width.
    pub fn window(&self) -> SimDur {
        self.window
    }

    /// Whether the run outgrew the series: it needed more than 2^20
    /// windows, and everything past them was put in the last one. Such a
    /// series is not worth exporting; run again with a wider window.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// `wanted` windows, or as many as the series holds.
    fn capped(&mut self, wanted: u64) -> usize {
        self.truncated |= wanted > MAX_WINDOWS as u64;
        wanted.min(MAX_WINDOWS as u64) as usize
    }

    fn bucket(&mut self, t: SimTime) -> &mut SeriesWindow {
        let at = t.as_nanos() / self.window.as_nanos();
        let idx = self.capped(at.saturating_add(1)) - 1;
        if self.windows.len() <= idx {
            self.windows.resize(idx + 1, SeriesWindow::default());
        }
        &mut self.windows[idx]
    }

    /// Buckets one trace record. Kinds the series does not track (including
    /// the `"cause"` stream) are ignored.
    pub fn observe(&mut self, e: &TraceEntry) {
        let t = e.time;
        match (e.kind, &e.detail) {
            (K::MutexEnter | K::LockAcquire, &TraceDetail::Var { var }) => {
                self.wait_start.insert((e.actor, var), t);
            }
            (K::EvAcquired | K::MutexGranted, &TraceDetail::Var { var }) => {
                if let Some(start) = self.wait_start.remove(&(e.actor, var)) {
                    let w = self.bucket(t);
                    w.lock_waits += 1;
                    w.lock_wait_ns += t.saturating_since(start).as_nanos();
                }
            }
            (K::OptEnter, &TraceDetail::Var { .. }) => self.bucket(t).opt_attempts += 1,
            (K::OptRollback, &TraceDetail::Var { .. }) => self.bucket(t).rollbacks += 1,
            (
                K::MutexComplete,
                &TraceDetail::Complete {
                    optimistic,
                    rollbacks,
                    ..
                },
            ) => {
                let w = self.bucket(t);
                w.completions += 1;
                if optimistic && rollbacks == 0 {
                    w.opt_wins += 1;
                }
            }
            (K::RootQueue | K::EcQueue, &TraceDetail::QueueDepth { var, depth }) => {
                let w = self.bucket(t);
                let entry = w.queue_depth_max.entry(var).or_insert(0);
                *entry = (*entry).max(depth);
            }
            (K::PktSend, &TraceDetail::Packet { .. }) => self.bucket(t).packets += 1,
            (K::PktMcast, &TraceDetail::Multicast { .. }) => self.bucket(t).mcasts += 1,
            _ => {}
        }
    }

    /// Records the simulated end of the run and pads the series with empty
    /// windows so it covers `[0, end)`. Call once, after the run.
    pub fn finish(&mut self, end: SimTime) {
        self.end = end;
        let needed = self.capped(end.as_nanos().div_ceil(self.window.as_nanos()));
        if self.windows.len() < needed {
            self.windows.resize(needed, SeriesWindow::default());
        }
    }

    /// Freezes the aggregator into its exportable form.
    pub fn export(&self, scenario: &str, seed: u64) -> SeriesExport {
        self.view(scenario, seed).to_export()
    }

    /// The aggregator as the export it would freeze into, borrowed.
    pub(crate) fn view<'a>(&'a self, scenario: &'a str, seed: u64) -> SeriesView<'a> {
        SeriesView {
            scenario,
            seed,
            window_ns: self.window.as_nanos(),
            end_ns: self.end.as_nanos(),
            windows: &self.windows,
        }
    }
}

/// What a series export holds, borrowed from a live [`TimeSeries`] or a
/// [`SeriesExport`]: the one place both are written out from.
pub(crate) struct SeriesView<'a> {
    scenario: &'a str,
    seed: u64,
    window_ns: u64,
    end_ns: u64,
    windows: &'a [SeriesWindow],
}

impl SeriesView<'_> {
    fn to_export(&self) -> SeriesExport {
        SeriesExport {
            scenario: self.scenario.to_string(),
            seed: self.seed,
            window_ns: self.window_ns,
            end_ns: self.end_ns,
            windows: self.windows.to_vec(),
        }
    }

    /// Every variable in any window's queue-depth map, sorted.
    fn vars(&self) -> Vec<u32> {
        let mut vars: Vec<u32> = self
            .windows
            .iter()
            .flat_map(|w| w.queue_depth_max.keys().copied())
            .collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Schema-`v1` JSON text, written straight into one string: the bytes
    /// `Json::render` gives for the document, numbers through `f64` and
    /// strings escaped alike, without building the document.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::new();
        let num = |out: &mut String, key: &str, x: u64| {
            out.push_str(key);
            json::write_num(x as f64, out);
        };
        out.push_str("{\"schema\":");
        json::write_escaped(SERIES_SCHEMA, &mut out);
        out.push_str(",\"scenario\":");
        json::write_escaped(self.scenario, &mut out);
        num(&mut out, ",\"seed\":", self.seed);
        num(&mut out, ",\"window_ns\":", self.window_ns);
        num(&mut out, ",\"end_ns\":", self.end_ns);
        out.push_str(",\"windows\":[");
        for (i, w) in self.windows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            num(&mut out, "{\"start_ns\":", i as u64 * self.window_ns);
            num(&mut out, ",\"rollbacks\":", w.rollbacks);
            num(&mut out, ",\"opt_attempts\":", w.opt_attempts);
            num(&mut out, ",\"opt_wins\":", w.opt_wins);
            num(&mut out, ",\"completions\":", w.completions);
            num(&mut out, ",\"lock_waits\":", w.lock_waits);
            num(&mut out, ",\"lock_wait_ns\":", w.lock_wait_ns);
            num(&mut out, ",\"packets\":", w.packets);
            num(&mut out, ",\"mcasts\":", w.mcasts);
            out.push_str(",\"queue_depth_max\":{");
            for (j, (var, depth)) in w.queue_depth_max.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{var}\":");
                json::write_num(f64::from(*depth), &mut out);
            }
            out.push_str("}}");
        }
        out.push_str("]}\n");
        out
    }

    /// CSV text (see [`SeriesExport::to_csv`]).
    pub(crate) fn to_csv(&self) -> String {
        let vars = self.vars();
        let mut out = String::from(
            "window,start_ns,rollbacks,opt_attempts,opt_wins,completions,\
             lock_waits,lock_wait_ns,packets,mcasts",
        );
        for var in &vars {
            let _ = write!(out, ",qmax_v{var}");
        }
        out.push('\n');
        for (i, w) in self.windows.iter().enumerate() {
            let _ = write!(
                out,
                "{},{},{},{},{},{},{},{},{},{}",
                i,
                i as u64 * self.window_ns,
                w.rollbacks,
                w.opt_attempts,
                w.opt_wins,
                w.completions,
                w.lock_waits,
                w.lock_wait_ns,
                w.packets,
                w.mcasts,
            );
            for var in &vars {
                let depth = w.queue_depth_max.get(var).copied().unwrap_or(0);
                let _ = write!(out, ",{depth}");
            }
            out.push('\n');
        }
        out
    }
}

/// A parsed or freshly exported time series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesExport {
    /// Scenario label (e.g. `"contention"`).
    pub scenario: String,
    /// Workload seed the run used.
    pub seed: u64,
    /// Window width in nanoseconds.
    pub window_ns: u64,
    /// Simulated end time of the run, in nanoseconds.
    pub end_ns: u64,
    /// Per-window aggregates, oldest first, covering `[0, end_ns)`.
    pub windows: Vec<SeriesWindow>,
}

impl SeriesExport {
    fn view(&self) -> SeriesView<'_> {
        SeriesView {
            scenario: &self.scenario,
            seed: self.seed,
            window_ns: self.window_ns,
            end_ns: self.end_ns,
            windows: &self.windows,
        }
    }

    /// Every variable that appears in any window's queue-depth map, sorted.
    pub fn vars(&self) -> Vec<u32> {
        self.view().vars()
    }

    /// Renders the series as schema-`v1` JSON text (one trailing newline).
    pub fn to_json(&self) -> String {
        self.view().to_json()
    }

    /// Renders the series as CSV: one row per window, one fixed column per
    /// scalar aggregate, and one `qmax_v<var>` column per variable that
    /// appears anywhere in the series.
    pub fn to_csv(&self) -> String {
        self.view().to_csv()
    }

    /// Parses and validates schema-`v1` JSON text back into a series.
    ///
    /// Rejects a wrong/missing schema tag, missing top-level members, and
    /// window objects with missing or mistyped fields — the series
    /// counterpart of [`Snapshot::from_json`](crate::Snapshot::from_json).
    ///
    /// The windows are read one at a time as the parser reaches them, so
    /// the document never exists as one tree. The verdict is the one a
    /// whole-tree read gives: a malformed document fails with its parse
    /// error, then the top-level members are checked, then the windows in
    /// order, each `start_ns` against a `window_ns` that may come after
    /// the windows in the text.
    pub fn from_json(text: &str) -> Result<SeriesExport, String> {
        let mut windows = Vec::new();
        // Every window's `start_ns`, up to and including the first window
        // that fails a check of its own; that failure.
        let mut starts = Vec::new();
        let mut failed: Option<String> = None;
        let root = json::parse_streaming(text, "windows", |obj| {
            if failed.is_some() {
                return;
            }
            match read_window(windows.len(), &obj) {
                Ok((start_ns, window)) => {
                    starts.push(start_ns);
                    match window {
                        Ok(window) => windows.push(window),
                        Err(e) => failed = Some(e),
                    }
                }
                Err(e) => failed = Some(e),
            }
        })?;
        let schema = root
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing 'schema'")?;
        if schema != SERIES_SCHEMA {
            return Err(format!(
                "unsupported schema '{schema}' (want '{SERIES_SCHEMA}')"
            ));
        }
        let scenario = root
            .get("scenario")
            .and_then(Json::as_str)
            .ok_or("missing 'scenario'")?
            .to_string();
        let seed = root
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or("missing 'seed'")?;
        let window_ns = root
            .get("window_ns")
            .and_then(Json::as_u64)
            .ok_or("missing 'window_ns'")?;
        if window_ns == 0 {
            return Err("'window_ns' must be > 0".to_string());
        }
        let end_ns = root
            .get("end_ns")
            .and_then(Json::as_u64)
            .ok_or("missing 'end_ns'")?;
        root.get("windows")
            .and_then(Json::elements)
            .ok_or("missing 'windows' array")?;
        for (i, &start_ns) in starts.iter().enumerate() {
            if (i as u64).checked_mul(window_ns) != Some(start_ns) {
                return Err(format!(
                    "window {i}: start_ns {start_ns} != index * window_ns"
                ));
            }
        }
        if let Some(e) = failed {
            return Err(e);
        }
        Ok(SeriesExport {
            scenario,
            seed,
            window_ns,
            end_ns,
            windows,
        })
    }
}

/// Reads window `i` of a series document: its `start_ns` (or why it has
/// none), then the window (or the first of its fields that fails). The
/// check of `start_ns` against `window_ns` is the caller's, between the
/// two.
fn read_window(i: usize, obj: &Json) -> Result<(u64, Result<SeriesWindow, String>), String> {
    let u64_of = |field: &str| {
        obj.get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("window {i}: missing field '{field}'"))
    };
    let start_ns = u64_of("start_ns")?;
    let window = || {
        let members = obj
            .get("queue_depth_max")
            .and_then(Json::members)
            .ok_or_else(|| format!("window {i}: missing 'queue_depth_max' object"))?;
        let mut queue_depth_max = BTreeMap::new();
        for (key, value) in members {
            let var: u32 = key
                .parse()
                .map_err(|_| format!("window {i}: bad variable key '{key}'"))?;
            let depth = value
                .as_u64()
                .and_then(|d| u32::try_from(d).ok())
                .ok_or_else(|| format!("window {i}: bad depth for variable '{key}'"))?;
            queue_depth_max.insert(var, depth);
        }
        Ok(SeriesWindow {
            rollbacks: u64_of("rollbacks")?,
            opt_attempts: u64_of("opt_attempts")?,
            opt_wins: u64_of("opt_wins")?,
            completions: u64_of("completions")?,
            lock_waits: u64_of("lock_waits")?,
            lock_wait_ns: u64_of("lock_wait_ns")?,
            packets: u64_of("packets")?,
            mcasts: u64_of("mcasts")?,
            queue_depth_max,
        })
    };
    Ok((start_ns, window()))
}

/// Renders the series as a plain-text per-window table — the time-resolved
/// companion of [`render_report`](crate::render_report), appended to
/// `sesame report` output when a series is available.
pub fn render_series_report(series: &SeriesExport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "\ntime series: {} windows of {} ns (scenario: {}, seed: {})\n",
        series.windows.len(),
        series.window_ns,
        series.scenario,
        series.seed
    ));
    if series.windows.is_empty() {
        return out;
    }
    out.push_str(&format!(
        "{:>4} {:>12} {:>8} {:>6} {:>6} {:>9} {:>9} {:>6} {:>12} {:>6} {:>6}\n",
        "win",
        "start-ns",
        "opt-try",
        "wins",
        "hit%",
        "rolls",
        "complete",
        "waits",
        "wait-mean",
        "pkts",
        "qmax"
    ));
    for (i, w) in series.windows.iter().enumerate() {
        let hit = if w.opt_attempts > 0 {
            format!("{:.0}%", 100.0 * w.opt_wins as f64 / w.opt_attempts as f64)
        } else {
            "-".to_string()
        };
        let wait_mean = w
            .lock_wait_ns
            .checked_div(w.lock_waits)
            .map_or_else(|| "-".to_string(), |mean| format!("{mean}ns"));
        let qmax = w.queue_depth_max.values().copied().max().unwrap_or(0);
        out.push_str(&format!(
            "{:>4} {:>12} {:>8} {:>6} {:>6} {:>9} {:>9} {:>6} {:>12} {:>6} {:>6}\n",
            i,
            i as u64 * series.window_ns,
            w.opt_attempts,
            w.opt_wins,
            hit,
            w.rollbacks,
            w.completions,
            w.lock_waits,
            wait_mean,
            w.packets,
            qmax,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesame_sim::DetRng;

    fn entry(ns: u64, actor: usize, kind: K, detail: TraceDetail) -> TraceEntry {
        TraceEntry {
            time: SimTime::from_nanos(ns),
            actor,
            kind,
            detail,
        }
    }

    fn sample_series() -> TimeSeries {
        let mut s = TimeSeries::new(SimDur::from_nanos(100));
        let var = |var| TraceDetail::Var { var };
        // Window 0: an attempt that rolls back; queue builds up.
        s.observe(&entry(10, 0, K::OptEnter, var(0)));
        s.observe(&entry(20, 1, K::PktSend, pkt()));
        s.observe(&entry(
            30,
            0,
            K::RootQueue,
            TraceDetail::QueueDepth { var: 0, depth: 2 },
        ));
        s.observe(&entry(40, 0, K::OptRollback, var(0)));
        // Window 1: wait opened in window 0 closes here (bucketed at grant),
        // then a clean optimistic completion.
        s.observe(&entry(90, 2, K::LockAcquire, var(1)));
        s.observe(&entry(130, 2, K::EvAcquired, var(1)));
        s.observe(&entry(
            180,
            2,
            K::MutexComplete,
            TraceDetail::Complete {
                var: 1,
                optimistic: true,
                rollbacks: 0,
                overlapped: false,
            },
        ));
        s.finish(SimTime::from_nanos(420));
        s
    }

    fn pkt() -> TraceDetail {
        TraceDetail::Packet {
            from: 1,
            to: 0,
            bytes: 16,
            hops: 1,
            arrival_ns: 60,
        }
    }

    #[test]
    fn buckets_by_window_and_pads_to_end() {
        let s = sample_series();
        let e = s.export("demo", 7);
        // finish(420) with 100 ns windows → 5 windows covering [0, 500).
        assert_eq!(e.windows.len(), 5);
        assert_eq!(e.windows[0].opt_attempts, 1);
        assert_eq!(e.windows[0].rollbacks, 1);
        assert_eq!(e.windows[0].packets, 1);
        assert_eq!(e.windows[0].queue_depth_max.get(&0), Some(&2));
        // The wait closed at t=130 → window 1, with the full 40 ns of wait.
        assert_eq!(e.windows[1].lock_waits, 1);
        assert_eq!(e.windows[1].lock_wait_ns, 40);
        assert_eq!(e.windows[1].completions, 1);
        assert_eq!(e.windows[1].opt_wins, 1);
        assert_eq!(e.windows[2], SeriesWindow::default());
        assert_eq!(e.vars(), vec![0]);
    }

    #[test]
    fn a_run_too_long_for_its_window_stops_growing_and_says_so() {
        let var = TraceDetail::Var { var: 0 };
        let last = MAX_WINDOWS as u64 - 1;
        let mut s = TimeSeries::new(SimDur::from_nanos(1));
        s.observe(&entry(last, 0, K::OptEnter, var.clone()));
        s.finish(SimTime::from_nanos(last + 1));
        assert!(!s.truncated(), "2^20 windows still fit");
        assert_eq!(s.windows.len(), MAX_WINDOWS);
        // One more, asked for by the end of the run or by a record.
        s.finish(SimTime::from_nanos(last + 2));
        assert!(s.truncated());
        s.truncated = false;
        s.observe(&entry(u64::MAX, 0, K::OptRollback, var));
        assert!(s.truncated());
        assert_eq!(s.windows.len(), MAX_WINDOWS);
        assert_eq!(s.windows[last as usize].rollbacks, 1);
    }

    #[test]
    fn json_round_trips_exactly() {
        let e = sample_series().export("demo", 7);
        let text = e.to_json();
        assert!(text.contains(r#""schema":"sesame-series/v1""#));
        let back = SeriesExport::from_json(&text).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn validation_rejects_bad_schema_and_shape() {
        assert!(SeriesExport::from_json("{}").is_err());
        assert!(SeriesExport::from_json(r#"{"schema":"other/v9"}"#).is_err());
        let missing = format!(
            r#"{{"schema":"{SERIES_SCHEMA}","scenario":"s","seed":1,"window_ns":100,"end_ns":50,"windows":[{{"start_ns":0,"rollbacks":1,"opt_wins":0,"completions":0,"lock_waits":0,"lock_wait_ns":0,"packets":0,"mcasts":0,"queue_depth_max":{{}}}}]}}"#
        );
        let err = SeriesExport::from_json(&missing).unwrap_err();
        assert!(err.contains("opt_attempts"), "err: {err}");
        let bad_start = format!(
            r#"{{"schema":"{SERIES_SCHEMA}","scenario":"s","seed":1,"window_ns":100,"end_ns":50,"windows":[{{"start_ns":7,"rollbacks":0,"opt_attempts":0,"opt_wins":0,"completions":0,"lock_waits":0,"lock_wait_ns":0,"packets":0,"mcasts":0,"queue_depth_max":{{}}}}]}}"#
        );
        let err = SeriesExport::from_json(&bad_start).unwrap_err();
        assert!(err.contains("start_ns"), "err: {err}");
        let zero_window = format!(
            r#"{{"schema":"{SERIES_SCHEMA}","scenario":"s","seed":1,"window_ns":0,"end_ns":50,"windows":[]}}"#
        );
        assert!(SeriesExport::from_json(&zero_window).is_err());
    }

    #[test]
    fn csv_has_fixed_and_per_var_columns() {
        let e = sample_series().export("demo", 7);
        let csv = e.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("window,start_ns,rollbacks"), "{header}");
        assert!(header.ends_with("qmax_v0"), "{header}");
        assert_eq!(lines.next().unwrap(), "0,0,1,1,0,0,0,0,1,0,2");
        assert_eq!(lines.next().unwrap(), "1,100,0,0,1,1,1,40,0,0,0");
        assert_eq!(csv.lines().count(), 6);
    }

    #[test]
    fn report_table_renders_hit_rate_and_wait_mean() {
        let e = sample_series().export("demo", 7);
        let table = render_series_report(&e);
        assert!(table.contains("5 windows of 100 ns"), "{table}");
        // Window 0: the lone attempt rolled back → 0% hit rate; window 1
        // has a win but no attempt (bucketed at completion) → "-".
        assert!(table.contains("0%"), "{table}");
        assert!(table.contains("40ns"), "{table}");
        // Empty windows render with "-" placeholders, not division by zero.
        assert!(table.lines().count() > 6, "{table}");
    }

    #[test]
    fn empty_series_has_no_windows_until_finish() {
        let mut s = TimeSeries::new(SimDur::from_nanos(100));
        s.finish(SimTime::ZERO);
        let e = s.export("empty", 0);
        assert!(e.windows.is_empty());
        assert_eq!(e.vars(), Vec::<u32>::new());
        let back = SeriesExport::from_json(&e.to_json()).unwrap();
        assert_eq!(back, e);
        assert_eq!(e.to_csv().lines().count(), 1);
        assert!(render_series_report(&e).contains("0 windows"));
    }

    /// The writer and validator this module had before it wrote and read
    /// series text directly: a `Json` tree built and rendered, a whole
    /// document parsed and walked, a `format!` per CSV cell. Kept as the
    /// reference the direct ones are compared against.
    mod reference {
        use super::*;

        pub fn to_json(e: &SeriesExport) -> String {
            let mut windows = Vec::with_capacity(e.windows.len());
            for (i, w) in e.windows.iter().enumerate() {
                let depths = w
                    .queue_depth_max
                    .iter()
                    .map(|(var, depth)| (var.to_string(), Json::Num(f64::from(*depth))))
                    .collect();
                windows.push(Json::Obj(vec![
                    (
                        "start_ns".into(),
                        Json::Num((i as u64 * e.window_ns) as f64),
                    ),
                    ("rollbacks".into(), Json::Num(w.rollbacks as f64)),
                    ("opt_attempts".into(), Json::Num(w.opt_attempts as f64)),
                    ("opt_wins".into(), Json::Num(w.opt_wins as f64)),
                    ("completions".into(), Json::Num(w.completions as f64)),
                    ("lock_waits".into(), Json::Num(w.lock_waits as f64)),
                    ("lock_wait_ns".into(), Json::Num(w.lock_wait_ns as f64)),
                    ("packets".into(), Json::Num(w.packets as f64)),
                    ("mcasts".into(), Json::Num(w.mcasts as f64)),
                    ("queue_depth_max".into(), Json::Obj(depths)),
                ]));
            }
            let root = Json::Obj(vec![
                ("schema".into(), Json::Str(SERIES_SCHEMA.into())),
                ("scenario".into(), Json::Str(e.scenario.clone())),
                ("seed".into(), Json::Num(e.seed as f64)),
                ("window_ns".into(), Json::Num(e.window_ns as f64)),
                ("end_ns".into(), Json::Num(e.end_ns as f64)),
                ("windows".into(), Json::Arr(windows)),
            ]);
            let mut text = root.render();
            text.push('\n');
            text
        }

        pub fn to_csv(e: &SeriesExport) -> String {
            let vars = e.vars();
            let mut out = String::from(
                "window,start_ns,rollbacks,opt_attempts,opt_wins,completions,\
                 lock_waits,lock_wait_ns,packets,mcasts",
            );
            for var in &vars {
                out.push_str(&format!(",qmax_v{var}"));
            }
            out.push('\n');
            for (i, w) in e.windows.iter().enumerate() {
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{},{}",
                    i,
                    i as u64 * e.window_ns,
                    w.rollbacks,
                    w.opt_attempts,
                    w.opt_wins,
                    w.completions,
                    w.lock_waits,
                    w.lock_wait_ns,
                    w.packets,
                    w.mcasts,
                ));
                for var in &vars {
                    out.push_str(&format!(
                        ",{}",
                        w.queue_depth_max.get(var).copied().unwrap_or(0)
                    ));
                }
                out.push('\n');
            }
            out
        }

        pub fn from_json(text: &str) -> Result<SeriesExport, String> {
            let root = json::parse(text)?;
            let schema = root
                .get("schema")
                .and_then(Json::as_str)
                .ok_or("missing 'schema'")?;
            if schema != SERIES_SCHEMA {
                return Err(format!(
                    "unsupported schema '{schema}' (want '{SERIES_SCHEMA}')"
                ));
            }
            let scenario = root
                .get("scenario")
                .and_then(Json::as_str)
                .ok_or("missing 'scenario'")?
                .to_string();
            let seed = root
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("missing 'seed'")?;
            let window_ns = root
                .get("window_ns")
                .and_then(Json::as_u64)
                .ok_or("missing 'window_ns'")?;
            if window_ns == 0 {
                return Err("'window_ns' must be > 0".to_string());
            }
            let end_ns = root
                .get("end_ns")
                .and_then(Json::as_u64)
                .ok_or("missing 'end_ns'")?;
            let elements = root
                .get("windows")
                .and_then(Json::elements)
                .ok_or("missing 'windows' array")?;
            let mut windows = Vec::with_capacity(elements.len());
            for (i, obj) in elements.iter().enumerate() {
                let u64_of = |field: &str| {
                    obj.get(field)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("window {i}: missing field '{field}'"))
                };
                let start_ns = u64_of("start_ns")?;
                if start_ns != i as u64 * window_ns {
                    return Err(format!(
                        "window {i}: start_ns {start_ns} != index * window_ns"
                    ));
                }
                let members = obj
                    .get("queue_depth_max")
                    .and_then(Json::members)
                    .ok_or_else(|| format!("window {i}: missing 'queue_depth_max' object"))?;
                let mut queue_depth_max = BTreeMap::new();
                for (key, value) in members {
                    let var: u32 = key
                        .parse()
                        .map_err(|_| format!("window {i}: bad variable key '{key}'"))?;
                    let depth = value
                        .as_u64()
                        .and_then(|d| u32::try_from(d).ok())
                        .ok_or_else(|| format!("window {i}: bad depth for variable '{key}'"))?;
                    queue_depth_max.insert(var, depth);
                }
                windows.push(SeriesWindow {
                    rollbacks: u64_of("rollbacks")?,
                    opt_attempts: u64_of("opt_attempts")?,
                    opt_wins: u64_of("opt_wins")?,
                    completions: u64_of("completions")?,
                    lock_waits: u64_of("lock_waits")?,
                    lock_wait_ns: u64_of("lock_wait_ns")?,
                    packets: u64_of("packets")?,
                    mcasts: u64_of("mcasts")?,
                    queue_depth_max,
                });
            }
            Ok(SeriesExport {
                scenario,
                seed,
                window_ns,
                end_ns,
                windows,
            })
        }
    }

    /// A count that is small, zero, or past `f64`'s 2^53 integers.
    fn count(rng: &mut DetRng) -> u64 {
        match rng.next_below(8) {
            0 => 0,
            1 => (1 << 53) + rng.next_below(1 << 12),
            2 => u64::MAX - rng.next_below(1 << 12),
            3 => rng.next_u64(),
            _ => rng.next_below(1_000),
        }
    }

    fn random_export(rng: &mut DetRng) -> SeriesExport {
        const SCENARIOS: [&str; 5] = [
            "contention",
            "",
            "a \"quoted\" \\ name",
            "tab\there\nline\u{1}\u{1f}",
            "ünïcödé 😀",
        ];
        let scenario = SCENARIOS[rng.next_below(5) as usize].to_string();
        let window_ns = match rng.next_below(4) {
            0 => (1 << 53) + 1 + rng.next_below(1 << 10),
            _ => 1 + rng.next_below(1 << 20),
        };
        let windows = (0..rng.next_below(12))
            .map(|_| {
                let mut w = SeriesWindow::default();
                if rng.chance(0.3) {
                    return w;
                }
                for field in [
                    &mut w.rollbacks,
                    &mut w.opt_attempts,
                    &mut w.opt_wins,
                    &mut w.completions,
                    &mut w.lock_waits,
                    &mut w.lock_wait_ns,
                    &mut w.packets,
                    &mut w.mcasts,
                ] {
                    *field = count(rng);
                }
                for _ in 0..rng.next_below(5) {
                    let var = match rng.next_below(4) {
                        0 => u32::MAX,
                        _ => rng.next_below(40) as u32,
                    };
                    w.queue_depth_max.insert(var, count(rng) as u32);
                }
                w
            })
            .collect();
        SeriesExport {
            scenario,
            seed: count(rng),
            window_ns,
            end_ns: count(rng),
            windows,
        }
    }

    #[test]
    fn the_direct_writer_matches_the_tree_writer_byte_for_byte() {
        let mut rng = DetRng::new(28);
        for _ in 0..400 {
            let e = random_export(&mut rng);
            let text = e.to_json();
            assert_eq!(text, reference::to_json(&e));
            assert_eq!(e.to_csv(), reference::to_csv(&e));
            assert_eq!(SeriesExport::from_json(&text), reference::from_json(&text));
        }
        // A live series writes what its frozen export writes.
        let live = sample_series();
        let e = live.export("demo \"x\"", 7);
        assert_eq!(live.view("demo \"x\"", 7).to_json(), reference::to_json(&e));
        assert_eq!(live.view("demo \"x\"", 7).to_csv(), reference::to_csv(&e));
    }

    /// Both readers' verdicts on `text`: equal values, or equal errors.
    fn same_verdict(text: &str) {
        assert_eq!(
            SeriesExport::from_json(text),
            reference::from_json(text),
            "{text}"
        );
    }

    /// A series the collector wrote, with windows of every shape.
    fn real_export() -> String {
        let mut rng = DetRng::new(7);
        let mut s = TimeSeries::new(SimDur::from_nanos(1_000));
        for i in 0..60 {
            let t = i * 180 + rng.next_below(100);
            let (node, v) = (rng.next_below(4) as usize, rng.next_below(3) as u32);
            let var = TraceDetail::Var { var: v };
            let (kind, detail) = match rng.next_below(6) {
                0 => (K::OptEnter, var),
                1 => (K::OptRollback, var),
                2 => (K::LockAcquire, var),
                3 => (K::EvAcquired, var),
                4 => (K::PktSend, pkt()),
                _ => (
                    K::RootQueue,
                    TraceDetail::QueueDepth {
                        var: v,
                        depth: rng.next_below(5) as u32,
                    },
                ),
            };
            s.observe(&entry(t, node, kind, detail));
        }
        s.finish(SimTime::from_nanos(13_500));
        s.export("contention", 7).to_json()
    }

    /// Re-renders `doc` with its object members shuffled, unknown members
    /// and duplicates of known ones slipped in, and whitespace between
    /// tokens.
    fn scrambled(doc: &Json, rng: &mut DetRng) -> String {
        fn scramble(doc: &Json, rng: &mut DetRng) -> Json {
            match doc {
                Json::Obj(members) => {
                    let mut members: Vec<(String, Json)> = members
                        .iter()
                        .map(|(k, v)| (k.clone(), scramble(v, rng)))
                        .collect();
                    rng.shuffle(&mut members);
                    if rng.chance(0.3) {
                        let at = rng.next_below(members.len() as u64 + 1) as usize;
                        let extra = Json::Arr(vec![Json::Null, Json::Str("x".into())]);
                        members.insert(at, ("unknown".into(), extra));
                    }
                    if !members.is_empty() && rng.chance(0.3) {
                        let (key, _) =
                            members[rng.next_below(members.len() as u64) as usize].clone();
                        let at = rng.next_below(members.len() as u64 + 1) as usize;
                        members.insert(at, (key, Json::Num(3.0)));
                    }
                    Json::Obj(members)
                }
                Json::Arr(items) => Json::Arr(items.iter().map(|v| scramble(v, rng)).collect()),
                other => other.clone(),
            }
        }
        let text = scramble(doc, rng).render();
        let mut out = String::new();
        let (mut in_string, mut escaped) = (false, false);
        for c in text.chars() {
            out.push(c);
            if in_string {
                (in_string, escaped) = (escaped || c != '"', !escaped && c == '\\');
            } else if c == '"' {
                in_string = true;
            } else if "{}[],:".contains(c) {
                out.push_str([" ", "\n", "\t", "\r\n", ""][rng.next_below(5) as usize]);
            }
        }
        out
    }

    #[test]
    fn the_streaming_reader_agrees_with_the_tree_reader_on_any_document() {
        let text = real_export();
        let doc = json::parse(&text).unwrap();
        assert!(doc.get("windows").unwrap().elements().unwrap().len() >= 10);
        same_verdict(&text);
        let mut rng = DetRng::new(5);
        for _ in 0..200 {
            same_verdict(&scrambled(&doc, &mut rng));
        }
        // Random series, including ones whose rounded counts no longer
        // validate, reordered and padded.
        for _ in 0..200 {
            let e = random_export(&mut rng);
            let doc = json::parse(&e.to_json()).unwrap();
            same_verdict(&scrambled(&doc, &mut rng));
        }
        for cut in 0..text.len() {
            same_verdict(&text[..cut]);
        }
        let mut bytes = text.clone().into_bytes();
        for at in 0..bytes.len() {
            let was = bytes[at];
            for b in *b"0-9.e\"{}[],x " {
                bytes[at] = b;
                same_verdict(std::str::from_utf8(&bytes).unwrap());
            }
            bytes[at] = was;
        }
    }

    #[test]
    fn a_window_fails_on_its_start_before_its_fields_even_if_window_ns_comes_last() {
        let window = |start: u64, fields: &str| {
            format!(
                r#"{{"start_ns":{start},"rollbacks":0,"opt_attempts":0,"opt_wins":0,"completions":0,"lock_waits":0,"lock_wait_ns":0,"packets":0{fields},"queue_depth_max":{{}}}}"#
            )
        };
        let doc = |windows: &[String]| {
            format!(
                r#"{{"windows":[{}],"schema":"{SERIES_SCHEMA}","scenario":"s","seed":1,"end_ns":5,"window_ns":10}}"#,
                windows.join(",")
            )
        };
        let good = |i: u64| window(10 * i, r#","mcasts":0"#);
        // Window 1 starts wrong, window 2 lacks a field: window 1 is named.
        let text = doc(&[good(0), window(11, r#","mcasts":0"#), window(20, "")]);
        let err = SeriesExport::from_json(&text).unwrap_err();
        assert!(err.starts_with("window 1: start_ns 11"), "{err}");
        same_verdict(&text);
        // Window 1 both starts wrong and lacks a field: the start is named.
        let text = doc(&[good(0), window(11, "")]);
        let err = SeriesExport::from_json(&text).unwrap_err();
        assert!(err.starts_with("window 1: start_ns 11"), "{err}");
        same_verdict(&text);
        // Only the field is missing.
        let text = doc(&[good(0), good(1), window(20, "")]);
        assert_eq!(
            SeriesExport::from_json(&text).unwrap_err(),
            "window 2: missing field 'mcasts'"
        );
        same_verdict(&text);
        let ok = doc(&[good(0), good(1), good(2)]);
        assert_eq!(SeriesExport::from_json(&ok).unwrap().windows.len(), 3);
        same_verdict(&ok);
    }
}

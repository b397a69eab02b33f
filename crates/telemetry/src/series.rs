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
        SeriesExport {
            scenario: scenario.to_string(),
            seed,
            window_ns: self.window.as_nanos(),
            end_ns: self.end.as_nanos(),
            windows: self.windows.clone(),
        }
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
    /// Every variable that appears in any window's queue-depth map, sorted.
    pub fn vars(&self) -> Vec<u32> {
        let mut vars: Vec<u32> = self
            .windows
            .iter()
            .flat_map(|w| w.queue_depth_max.keys().copied())
            .collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Renders the series as schema-`v1` JSON text (one trailing newline).
    pub fn to_json(&self) -> String {
        let mut windows = Vec::with_capacity(self.windows.len());
        for (i, w) in self.windows.iter().enumerate() {
            let depths = w
                .queue_depth_max
                .iter()
                .map(|(var, depth)| (var.to_string(), Json::Num(f64::from(*depth))))
                .collect();
            windows.push(Json::Obj(vec![
                (
                    "start_ns".into(),
                    Json::Num((i as u64 * self.window_ns) as f64),
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
            ("scenario".into(), Json::Str(self.scenario.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("window_ns".into(), Json::Num(self.window_ns as f64)),
            ("end_ns".into(), Json::Num(self.end_ns as f64)),
            ("windows".into(), Json::Arr(windows)),
        ]);
        let mut text = root.render();
        text.push('\n');
        text
    }

    /// Renders the series as CSV: one row per window, one fixed column per
    /// scalar aggregate, and one `qmax_v<var>` column per variable that
    /// appears anywhere in the series.
    pub fn to_csv(&self) -> String {
        let vars = self.vars();
        let mut out = String::from(
            "window,start_ns,rollbacks,opt_attempts,opt_wins,completions,\
             lock_waits,lock_wait_ns,packets,mcasts",
        );
        for var in &vars {
            out.push_str(&format!(",qmax_v{var}"));
        }
        out.push('\n');
        for (i, w) in self.windows.iter().enumerate() {
            out.push_str(&format!(
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

    /// Parses and validates schema-`v1` JSON text back into a series.
    ///
    /// Rejects a wrong/missing schema tag, missing top-level members, and
    /// window objects with missing or mistyped fields — the series
    /// counterpart of [`Snapshot::from_json`](crate::Snapshot::from_json).
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
}

//! Windowed time-series telemetry: the time dimension of observability.
//!
//! The snapshot exporter collapses a run to end-of-run scalars; this module
//! keeps the trajectory. One type, [`SeriesExport`], holds it. The
//! collector fills one live (see
//! [`Telemetry::with_series`](crate::Telemetry::with_series)): the arms of
//! its trace match that count rollbacks, optimism attempts/wins,
//! completions, lock-wait closures (count and total wait time, bucketed at
//! grant time), packet and multicast sends, and the per-variable maximum
//! root/EC queue depth also bump the window the record's time falls in.
//! [`SeriesExport::from_json`] parses an export back into the same type.
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

use sesame_sim::{SimDur, SimTime};

use crate::json::{self, Json};

/// Schema identifier written into (and required from) every series export.
pub const SERIES_SCHEMA: &str = "sesame-series/v1";

/// Aggregates for one fixed simulated-time window. The window's maximum
/// queue depths are in [`SeriesExport::queue_depth_max`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
}

/// The most windows a series grows to. The width comes from outside
/// (`--window`): a few nanoseconds on a long run would otherwise ask for
/// as many windows as the run has nanoseconds.
const MAX_WINDOWS: u64 = 1 << 20;

/// A run's time series: filled live by the collector (see
/// [`Telemetry::with_series`](crate::Telemetry::with_series)), or parsed
/// back from its JSON by [`SeriesExport::from_json`].
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
    /// Maximum root/EC queue depth per window and variable, as
    /// `(window, var, depth)`: one entry per pair a depth was observed
    /// for, sorted by window, then variable. Most windows see one
    /// variable or none, so the column costs 12 bytes per pair where a
    /// map per window would cost a node.
    pub queue_depth_max: Vec<(u32, u32, u32)>,
}

/// One window's row of a series: its index, its aggregates and its
/// `(window, var, depth)` entries.
type Row<'a> = (usize, &'a SeriesWindow, &'a [(u32, u32, u32)]);

impl SeriesExport {
    /// An empty series of `window`-wide windows.
    ///
    /// # Panics
    ///
    /// Panics on a zero-width window.
    pub(crate) fn new(scenario: &str, seed: u64, window: SimDur) -> Self {
        assert!(window.as_nanos() > 0, "series window must be > 0 ns");
        SeriesExport {
            scenario: scenario.to_string(),
            seed,
            window_ns: window.as_nanos(),
            end_ns: 0,
            windows: Vec::new(),
            queue_depth_max: Vec::new(),
        }
    }

    /// Whether the run outgrew the series: it needed more than 2^20
    /// windows, by its end or by a record past them, which went to one
    /// overflow window. Such a series is not worth exporting; run again
    /// with a wider window.
    pub fn truncated(&self) -> bool {
        self.windows.len() as u64 > MAX_WINDOWS
            || self.end_ns.div_ceil(self.window_ns) > MAX_WINDOWS
    }

    /// The index of the window `t` falls in, the series grown to reach
    /// it; past the 2^20 windows the series holds, the overflow window
    /// after them.
    fn grow_to(&mut self, t: SimTime) -> usize {
        let at = (t.as_nanos() / self.window_ns).min(MAX_WINDOWS) as usize;
        if self.windows.len() <= at {
            self.windows.resize(at + 1, SeriesWindow::default());
        }
        at
    }

    /// The window `t` falls in (see [`SeriesExport::grow_to`]).
    pub(crate) fn window_at(&mut self, t: SimTime) -> &mut SeriesWindow {
        let at = self.grow_to(t);
        &mut self.windows[at]
    }

    /// Raises `var`'s maximum queue depth in the window `t` falls in to at
    /// least `depth`. Records arrive in time order, so the entry is almost
    /// always the column's last or a new one after it; a record fed out of
    /// order is inserted in its place.
    pub(crate) fn record_depth(&mut self, t: SimTime, var: u32, depth: u32) {
        let window = self.grow_to(t) as u32;
        let column = &mut self.queue_depth_max;
        let at = column.partition_point(|&(w, v, _)| (w, v) < (window, var));
        match column.get_mut(at) {
            Some(entry) if (entry.0, entry.1) == (window, var) => entry.2 = entry.2.max(depth),
            _ => column.insert(at, (window, var, depth)),
        }
    }

    /// Ends the series at `end`, padded with empty windows to cover
    /// `[0, end)`.
    pub(crate) fn finish(&mut self, end: SimTime) {
        self.end_ns = end.as_nanos();
        let needed = self.end_ns.div_ceil(self.window_ns).min(MAX_WINDOWS) as usize;
        if self.windows.len() < needed {
            self.windows.resize(needed, SeriesWindow::default());
        }
    }

    /// Every variable that has a queue depth in any window, sorted.
    pub fn vars(&self) -> Vec<u32> {
        let mut vars: Vec<u32> = self.queue_depth_max.iter().map(|e| e.1).collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Every window with its entries of the queue-depth column, read off
    /// the column with one cursor.
    fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        let mut rest = &self.queue_depth_max[..];
        self.windows.iter().enumerate().map(move |(i, w)| {
            let (here, after) = rest.split_at(rest.partition_point(|e| e.0 as usize <= i));
            rest = after;
            (i, w, here)
        })
    }

    /// Renders the series as schema-`v1` JSON text (one trailing newline),
    /// written straight into one string: the bytes `Json::render` gives
    /// for the document, numbers through `f64` and strings escaped alike,
    /// without building the document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let num = |out: &mut String, key: &str, x: u64| {
            out.push_str(key);
            json::write_num(x as f64, out);
        };
        out.push_str("{\"schema\":");
        json::write_escaped(SERIES_SCHEMA, &mut out);
        out.push_str(",\"scenario\":");
        json::write_escaped(&self.scenario, &mut out);
        num(&mut out, ",\"seed\":", self.seed);
        num(&mut out, ",\"window_ns\":", self.window_ns);
        num(&mut out, ",\"end_ns\":", self.end_ns);
        out.push_str(",\"windows\":[");
        for (i, w, depths) in self.rows() {
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
            for (j, &(_, var, depth)) in depths.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{var}\":");
                json::write_num(f64::from(depth), &mut out);
            }
            out.push_str("}}");
        }
        out.push_str("]}\n");
        out
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
            let _ = write!(out, ",qmax_v{var}");
        }
        out.push('\n');
        for (i, w, depths) in self.rows() {
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
            // The window's entries are a sorted subset of `vars`.
            let mut depths = depths.iter().peekable();
            for &var in &vars {
                let depth = depths.next_if(|e| e.1 == var).map_or(0, |e| e.2);
                let _ = write!(out, ",{depth}");
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
    ///
    /// The windows are read one at a time as the parser reaches them, so
    /// the document never exists as one tree. The verdict is the one a
    /// whole-tree read gives: a malformed document fails with its parse
    /// error, then the top-level members are checked, then the windows in
    /// order, each `start_ns` against a `window_ns` that may come after
    /// the windows in the text.
    pub fn from_json(text: &str) -> Result<SeriesExport, String> {
        let mut windows = Vec::new();
        let mut queue_depth_max = Vec::new();
        // Every window's `start_ns`, up to and including the first window
        // that fails a check of its own; that failure.
        let mut starts = Vec::new();
        let mut failed: Option<String> = None;
        let root = json::parse_streaming(text, "windows", |obj| {
            if failed.is_some() {
                return;
            }
            match read_window(windows.len(), &obj, &mut queue_depth_max) {
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
            queue_depth_max,
        })
    }
}

/// Reads window `i` of a series document: its `start_ns` (or why it has
/// none), then the window (or the first of its fields that fails), its
/// queue depths appended to `depths`. The check of `start_ns` against
/// `window_ns` is the caller's, between the two.
fn read_window(
    i: usize,
    obj: &Json,
    depths: &mut Vec<(u32, u32, u32)>,
) -> Result<(u64, Result<SeriesWindow, String>), String> {
    let u64_of = |field: &str| {
        obj.get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("window {i}: missing field '{field}'"))
    };
    let start_ns = u64_of("start_ns")?;
    let mut window = || {
        let members = obj
            .get("queue_depth_max")
            .and_then(Json::members)
            .ok_or_else(|| format!("window {i}: missing 'queue_depth_max' object"))?;
        // Sorted, and the last of a repeated key wins.
        let mut by_var = BTreeMap::new();
        for (key, value) in members {
            let var: u32 = key
                .parse()
                .map_err(|_| format!("window {i}: bad variable key '{key}'"))?;
            let depth = value
                .as_u64()
                .and_then(|d| u32::try_from(d).ok())
                .ok_or_else(|| format!("window {i}: bad depth for variable '{key}'"))?;
            by_var.insert(var, depth);
        }
        let window = SeriesWindow {
            rollbacks: u64_of("rollbacks")?,
            opt_attempts: u64_of("opt_attempts")?,
            opt_wins: u64_of("opt_wins")?,
            completions: u64_of("completions")?,
            lock_waits: u64_of("lock_waits")?,
            lock_wait_ns: u64_of("lock_wait_ns")?,
            packets: u64_of("packets")?,
            mcasts: u64_of("mcasts")?,
        };
        let at = u32::try_from(i).map_err(|_| format!("window {i}: too many windows"))?;
        depths.extend(by_var.into_iter().map(|(var, depth)| (at, var, depth)));
        Ok(window)
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
    for (i, w, depths) in series.rows() {
        let hit = if w.opt_attempts > 0 {
            format!("{:.0}%", 100.0 * w.opt_wins as f64 / w.opt_attempts as f64)
        } else {
            "-".to_string()
        };
        let wait_mean = w
            .lock_wait_ns
            .checked_div(w.lock_waits)
            .map_or_else(|| "-".to_string(), |mean| format!("{mean}ns"));
        let qmax = depths.iter().map(|e| e.2).max().unwrap_or(0);
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
    use crate::Telemetry;
    use sesame_sim::{DetRng, TraceDetail, TraceEntry, TraceKind as K};

    fn entry(ns: u64, actor: usize, kind: K, detail: TraceDetail) -> TraceEntry {
        TraceEntry {
            time: SimTime::from_nanos(ns),
            actor,
            kind,
            detail,
        }
    }

    /// A collector fed a few records of every kind the series counts.
    fn sample_run(scenario: &str) -> Telemetry {
        let mut s = Telemetry::new(scenario, 7).with_series(SimDur::from_nanos(100));
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

    fn sample_series() -> SeriesExport {
        sample_run("demo").series().expect("series enabled").clone()
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
        let e = sample_series();
        // finish(420) with 100 ns windows → 5 windows covering [0, 500).
        assert_eq!(e.windows.len(), 5);
        assert_eq!(e.windows[0].opt_attempts, 1);
        assert_eq!(e.windows[0].rollbacks, 1);
        assert_eq!(e.windows[0].packets, 1);
        assert_eq!(e.queue_depth_max, [(0, 0, 2)]);
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
        fn series(t: &Telemetry) -> &SeriesExport {
            t.series().expect("series enabled")
        }
        let var = TraceDetail::Var { var: 0 };
        let last = MAX_WINDOWS - 1;
        let mut t = Telemetry::new("t", 0).with_series(SimDur::from_nanos(1));
        t.observe(&entry(last, 0, K::OptEnter, var));
        t.finish(SimTime::from_nanos(last + 1));
        assert!(!series(&t).truncated(), "2^20 windows still fit");
        assert_eq!(series(&t).windows.len() as u64, MAX_WINDOWS);
        // One more, asked for by the end of the run.
        t.finish(SimTime::from_nanos(last + 2));
        assert!(series(&t).truncated());
        assert_eq!(series(&t).windows.len() as u64, MAX_WINDOWS);
        drop(t);
        // Or by a record: one stamped at the end of a run whose windows
        // all fit, then one at the end of time, land in one overflow
        // window.
        let mut t = Telemetry::new("t", 0).with_series(SimDur::from_nanos(1));
        t.observe(&entry(last + 1, 0, K::OptRollback, var));
        t.finish(SimTime::from_nanos(last + 1));
        assert!(series(&t).truncated());
        t.observe(&entry(u64::MAX, 0, K::OptRollback, var));
        let s = series(&t);
        assert!(s.truncated());
        assert_eq!(s.windows.len() as u64, MAX_WINDOWS + 1);
        assert_eq!(s.windows[MAX_WINDOWS as usize].rollbacks, 2);
    }

    #[test]
    fn json_round_trips_exactly() {
        let e = sample_series();
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
        let e = sample_series();
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
        let e = sample_series();
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
        let mut t = Telemetry::new("empty", 0).with_series(SimDur::from_nanos(100));
        assert!(t.series().expect("series enabled").windows.is_empty());
        t.finish(SimTime::ZERO);
        let e = t.series().expect("series enabled");
        assert!(e.windows.is_empty());
        assert_eq!(e.vars(), Vec::<u32>::new());
        let back = SeriesExport::from_json(&e.to_json()).unwrap();
        assert_eq!(&back, e);
        assert_eq!(e.to_csv().lines().count(), 1);
        assert!(render_series_report(e).contains("0 windows"));
    }

    /// The layout, writers and validator this module had before the
    /// queue depths moved to one column and the text was written and read
    /// directly: a map per window, a `Json` tree built and rendered, a
    /// whole document parsed and walked, a `format!` per CSV cell. Kept as
    /// the reference the column and the direct writers are compared
    /// against.
    mod reference {
        use super::*;

        /// A series with a depth map per window.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct Layout {
            pub scenario: String,
            pub seed: u64,
            pub window_ns: u64,
            pub end_ns: u64,
            pub windows: Vec<(SeriesWindow, BTreeMap<u32, u32>)>,
        }

        impl Layout {
            pub fn new(window_ns: u64) -> Self {
                Layout {
                    scenario: "stream".into(),
                    seed: 7,
                    window_ns,
                    end_ns: 0,
                    windows: Vec::new(),
                }
            }

            pub fn window_at(&mut self, t: SimTime) -> &mut (SeriesWindow, BTreeMap<u32, u32>) {
                let at = (t.as_nanos() / self.window_ns).min(MAX_WINDOWS) as usize;
                if self.windows.len() <= at {
                    self.windows.resize(at + 1, Default::default());
                }
                &mut self.windows[at]
            }

            pub fn record_depth(&mut self, t: SimTime, var: u32, depth: u32) {
                let max = self.window_at(t).1.entry(var).or_insert(0);
                *max = (*max).max(depth);
            }

            pub fn finish(&mut self, end: SimTime) {
                self.end_ns = end.as_nanos();
                let needed = self.end_ns.div_ceil(self.window_ns).min(MAX_WINDOWS) as usize;
                if self.windows.len() < needed {
                    self.windows.resize(needed, Default::default());
                }
            }

            /// The same series in the column layout.
            pub fn flatten(&self) -> SeriesExport {
                let column = self
                    .windows
                    .iter()
                    .enumerate()
                    .flat_map(|(i, (_, depths))| {
                        depths
                            .iter()
                            .map(move |(&var, &depth)| (i as u32, var, depth))
                    });
                SeriesExport {
                    scenario: self.scenario.clone(),
                    seed: self.seed,
                    window_ns: self.window_ns,
                    end_ns: self.end_ns,
                    windows: self.windows.iter().map(|(w, _)| *w).collect(),
                    queue_depth_max: column.collect(),
                }
            }

            /// A column-layout series in this layout.
            pub fn of(e: &SeriesExport) -> Self {
                let mut windows: Vec<_> = e.windows.iter().map(|w| (*w, BTreeMap::new())).collect();
                for &(i, var, depth) in &e.queue_depth_max {
                    windows[i as usize].1.insert(var, depth);
                }
                Layout {
                    scenario: e.scenario.clone(),
                    seed: e.seed,
                    window_ns: e.window_ns,
                    end_ns: e.end_ns,
                    windows,
                }
            }

            fn vars(&self) -> Vec<u32> {
                let mut vars: Vec<u32> = self
                    .windows
                    .iter()
                    .flat_map(|(_, depths)| depths.keys().copied())
                    .collect();
                vars.sort_unstable();
                vars.dedup();
                vars
            }
        }

        pub fn to_json(e: &Layout) -> String {
            let mut windows = Vec::with_capacity(e.windows.len());
            for (i, (w, queue_depth_max)) in e.windows.iter().enumerate() {
                let depths = queue_depth_max
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

        pub fn to_csv(e: &Layout) -> String {
            let vars = e.vars();
            let mut out = String::from(
                "window,start_ns,rollbacks,opt_attempts,opt_wins,completions,\
                 lock_waits,lock_wait_ns,packets,mcasts",
            );
            for var in &vars {
                out.push_str(&format!(",qmax_v{var}"));
            }
            out.push('\n');
            for (i, (w, queue_depth_max)) in e.windows.iter().enumerate() {
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
                        queue_depth_max.get(var).copied().unwrap_or(0)
                    ));
                }
                out.push('\n');
            }
            out
        }

        pub fn render_series_report(series: &Layout) -> String {
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
            for (i, (w, queue_depth_max)) in series.windows.iter().enumerate() {
                let hit = if w.opt_attempts > 0 {
                    format!("{:.0}%", 100.0 * w.opt_wins as f64 / w.opt_attempts as f64)
                } else {
                    "-".to_string()
                };
                let wait_mean = w
                    .lock_wait_ns
                    .checked_div(w.lock_waits)
                    .map_or_else(|| "-".to_string(), |mean| format!("{mean}ns"));
                let qmax = queue_depth_max.values().copied().max().unwrap_or(0);
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

        pub fn from_json(text: &str) -> Result<Layout, String> {
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
                let window = SeriesWindow {
                    rollbacks: u64_of("rollbacks")?,
                    opt_attempts: u64_of("opt_attempts")?,
                    opt_wins: u64_of("opt_wins")?,
                    completions: u64_of("completions")?,
                    lock_waits: u64_of("lock_waits")?,
                    lock_wait_ns: u64_of("lock_wait_ns")?,
                    packets: u64_of("packets")?,
                    mcasts: u64_of("mcasts")?,
                };
                windows.push((window, queue_depth_max));
            }
            Ok(Layout {
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

    /// The eight counters of `w`, in export order.
    fn fields(w: &mut SeriesWindow) -> [&mut u64; 8] {
        [
            &mut w.rollbacks,
            &mut w.opt_attempts,
            &mut w.opt_wins,
            &mut w.completions,
            &mut w.lock_waits,
            &mut w.lock_wait_ns,
            &mut w.packets,
            &mut w.mcasts,
        ]
    }

    fn random_export(rng: &mut DetRng) -> reference::Layout {
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
                let mut depths = BTreeMap::new();
                if rng.chance(0.3) {
                    return (w, depths);
                }
                for field in fields(&mut w) {
                    *field = count(rng);
                }
                for _ in 0..rng.next_below(5) {
                    let var = match rng.next_below(4) {
                        0 => u32::MAX,
                        _ => rng.next_below(40) as u32,
                    };
                    depths.insert(var, count(rng) as u32);
                }
                (w, depths)
            })
            .collect();
        reference::Layout {
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
            let layout = random_export(&mut rng);
            let e = layout.flatten();
            let text = e.to_json();
            assert_eq!(text, reference::to_json(&layout));
            assert_eq!(e.to_csv(), reference::to_csv(&layout));
            same_verdict(&text);
        }
        // The collector writes its live series alike.
        let t = sample_run("demo \"x\"");
        let live = reference::Layout::of(t.series().expect("series enabled"));
        assert_eq!(t.series_json(), Some(reference::to_json(&live)));
        assert_eq!(t.series_csv(), Some(reference::to_csv(&live)));
    }

    /// Both readers' verdicts on `text`: equal values, or equal errors.
    fn same_verdict(text: &str) {
        assert_eq!(
            SeriesExport::from_json(text),
            reference::from_json(text).map(|layout| layout.flatten()),
            "{text}"
        );
    }

    /// Random record streams fill the column and the map per window
    /// alike, and the two layouts render the same JSON, CSV and report:
    /// times mostly rising but some fed out of order, several variables in
    /// one window, and repeated depths for one pair.
    #[test]
    fn the_depth_column_renders_as_a_map_per_window_did() {
        let mut rng = DetRng::new(36);
        for _ in 0..300 {
            let window_ns = 1 + rng.next_below(50);
            let mut flat = SeriesExport::new("stream", 7, SimDur::from_nanos(window_ns));
            let mut layout = reference::Layout::new(window_ns);
            let mut now = 0;
            for _ in 0..rng.next_below(200) {
                now += rng.next_below(3 * window_ns);
                let t = match rng.next_below(10) {
                    0 => now.saturating_sub(rng.next_below(20 * window_ns)),
                    _ => now,
                };
                let t = SimTime::from_nanos(t);
                if rng.chance(0.5) {
                    let (var, depth) = (rng.next_below(6) as u32, rng.next_below(9) as u32);
                    flat.record_depth(t, var, depth);
                    layout.record_depth(t, var, depth);
                } else {
                    let field = rng.next_below(8) as usize;
                    let by = 1 + rng.next_below(5);
                    *fields(flat.window_at(t))[field] += by;
                    *fields(&mut layout.window_at(t).0)[field] += by;
                }
            }
            let end = SimTime::from_nanos(now + rng.next_below(4 * window_ns));
            flat.finish(end);
            layout.finish(end);
            assert_eq!(flat, layout.flatten());
            let text = flat.to_json();
            assert_eq!(text, reference::to_json(&layout));
            assert_eq!(flat.to_csv(), reference::to_csv(&layout));
            assert_eq!(
                render_series_report(&flat),
                reference::render_series_report(&layout)
            );
            assert_eq!(SeriesExport::from_json(&text).as_ref(), Ok(&flat));
        }
    }

    /// Depths recorded past the 2^20 windows land in the overflow window,
    /// in the column's order whatever order they came in. (A rendering of
    /// 2^20 windows is hundreds of megabytes, so this reads the rows.)
    #[test]
    fn depths_past_the_last_window_land_in_the_overflow_window() {
        let mut e = SeriesExport::new("t", 0, SimDur::from_nanos(1));
        e.record_depth(SimTime::from_nanos(5), 2, 1);
        e.record_depth(SimTime::from_nanos(u64::MAX), 9, 4);
        e.record_depth(SimTime::from_nanos(MAX_WINDOWS + 7), 3, 2);
        e.record_depth(SimTime::from_nanos(MAX_WINDOWS - 1), 9, 6);
        e.record_depth(SimTime::from_nanos(MAX_WINDOWS), 9, 3);
        let last = MAX_WINDOWS as u32;
        assert_eq!(
            e.queue_depth_max,
            [(5, 2, 1), (last - 1, 9, 6), (last, 3, 2), (last, 9, 4)]
        );
        assert!(e.truncated());
        let rows: Vec<(usize, usize)> = (e.rows())
            .filter(|(_, _, depths)| !depths.is_empty())
            .map(|(i, _, depths)| (i, depths.len()))
            .collect();
        let last = last as usize;
        assert_eq!(rows, [(5, 1), (last - 1, 1), (last, 2)]);
        let (i, _, depths) = e.rows().last().expect("the overflow window");
        assert_eq!((i, depths), (last, &e.queue_depth_max[2..]));
        assert_eq!(e.vars(), [2, 3, 9]);
    }

    /// A series the collector wrote, with windows of every shape.
    fn real_export() -> String {
        let mut rng = DetRng::new(7);
        let mut s = Telemetry::new("contention", 7).with_series(SimDur::from_nanos(1_000));
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
        s.series_json().expect("series enabled")
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
            let e = random_export(&mut rng).flatten();
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

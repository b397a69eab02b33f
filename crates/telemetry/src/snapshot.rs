//! Point-in-time export of a run's metrics: the named counters and gauges
//! and the observer's rendered rows (see [`Telemetry::snapshot`](crate::Telemetry::snapshot)).
//!
//! The JSON schema (`sesame-telemetry/v1`) is stable: bench trajectories and
//! CI smoke checks parse it back with [`Snapshot::from_json`]. Top level:
//!
//! ```json
//! {
//!   "schema": "sesame-telemetry/v1",
//!   "scenario": "contention",
//!   "seed": 42,
//!   "end_ns": 123456,
//!   "metrics": { "<key>": { "kind": "...", ... }, ... }
//! }
//! ```
//!
//! Per-kind metric members:
//! * `counter` — `value`
//! * `gauge` — `value`
//! * `histogram` — `count`, `mean_ns`, `p50_ns`, `p90_ns`, `p99_ns`, `max_ns`
//! * `timeweighted` — `average`, `current`

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sesame_sim::{Histogram, SimTime, TimeWeighted};

use crate::json::{self, Json};

/// Schema identifier written into (and required from) every snapshot.
pub const SCHEMA: &str = "sesame-telemetry/v1";

/// Exported value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram summary (nanosecond durations).
    Histogram {
        /// Number of samples.
        count: u64,
        /// Mean sample.
        mean_ns: u64,
        /// Approximate median.
        p50_ns: u64,
        /// Approximate 90th percentile.
        p90_ns: u64,
        /// Approximate 99th percentile.
        p99_ns: u64,
        /// Largest sample.
        max_ns: u64,
    },
    /// Time-weighted signal summary.
    TimeWeighted {
        /// Average over the run.
        average: f64,
        /// Final value.
        current: f64,
    },
}

/// Every kind's tag and fields, in export order — the one table the JSON
/// and CSV writers and the validator read. A field is `(name, integer)`:
/// an integer field is a `u64`, the others `f64`.
const KINDS: [(&str, &[(&str, bool)]); 4] = [
    ("counter", &[("value", true)]),
    ("gauge", &[("value", false)]),
    (
        "histogram",
        &[
            ("count", true),
            ("mean_ns", true),
            ("p50_ns", true),
            ("p90_ns", true),
            ("p99_ns", true),
            ("max_ns", true),
        ],
    ),
    ("timeweighted", &[("average", false), ("current", false)]),
];

/// One field's value, as [`KINDS`] types it.
#[derive(Debug, Clone, Copy)]
enum Num {
    Int(u64),
    Float(f64),
}

impl Num {
    fn int(self) -> u64 {
        match self {
            Num::Int(v) => v,
            Num::Float(x) => x as u64,
        }
    }

    fn float(self) -> f64 {
        match self {
            Num::Int(v) => v as f64,
            Num::Float(x) => x,
        }
    }
}

impl SnapshotValue {
    /// The summary of `h`.
    pub(crate) fn histogram(h: &Histogram) -> Self {
        SnapshotValue::Histogram {
            count: h.count(),
            mean_ns: h.mean().as_nanos(),
            p50_ns: h.quantile(0.5).as_nanos(),
            p90_ns: h.quantile(0.9).as_nanos(),
            p99_ns: h.quantile(0.99).as_nanos(),
            max_ns: h.max().as_nanos(),
        }
    }

    /// The summary of `tw` over a run that ended at `end`.
    pub(crate) fn time_weighted(tw: &TimeWeighted, end: SimTime) -> Self {
        SnapshotValue::TimeWeighted {
            average: tw.average(end),
            current: tw.current(),
        }
    }

    /// This value's row of [`KINDS`] and its fields in the row's order.
    fn fields(&self) -> (usize, [Num; 6]) {
        use Num::{Float as F, Int as I};
        let z = I(0);
        match *self {
            SnapshotValue::Counter(v) => (0, [I(v), z, z, z, z, z]),
            SnapshotValue::Gauge(v) => (1, [F(v), z, z, z, z, z]),
            SnapshotValue::Histogram {
                count,
                mean_ns,
                p50_ns,
                p90_ns,
                p99_ns,
                max_ns,
            } => (
                2,
                [
                    I(count),
                    I(mean_ns),
                    I(p50_ns),
                    I(p90_ns),
                    I(p99_ns),
                    I(max_ns),
                ],
            ),
            SnapshotValue::TimeWeighted { average, current } => {
                (3, [F(average), F(current), z, z, z, z])
            }
        }
    }

    /// The value [`SnapshotValue::fields`] lists as `(kind, f)`.
    fn from_fields(kind: usize, f: &[Num; 6]) -> Self {
        let (int, float) = (|i: usize| f[i].int(), |i: usize| f[i].float());
        match kind {
            0 => SnapshotValue::Counter(int(0)),
            1 => SnapshotValue::Gauge(float(0)),
            2 => SnapshotValue::Histogram {
                count: int(0),
                mean_ns: int(1),
                p50_ns: int(2),
                p90_ns: int(3),
                p99_ns: int(4),
                max_ns: int(5),
            },
            _ => SnapshotValue::TimeWeighted {
                average: float(0),
                current: float(1),
            },
        }
    }
}

/// A parsed or freshly taken metrics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Scenario label (e.g. `"contention"`).
    pub scenario: String,
    /// Workload seed the run used.
    pub seed: u64,
    /// Simulated end time of the run, in nanoseconds.
    pub end_ns: u64,
    /// Metric values, key-sorted.
    pub metrics: BTreeMap<String, SnapshotValue>,
}

impl Snapshot {
    /// Renders the snapshot as schema-`v1` JSON text (one trailing newline),
    /// written straight into the string.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 * self.metrics.len() + 128);
        out.push_str("{\"schema\":");
        json::write_escaped(SCHEMA, &mut out);
        out.push_str(",\"scenario\":");
        json::write_escaped(&self.scenario, &mut out);
        out.push_str(",\"seed\":");
        json::write_num(self.seed as f64, &mut out);
        out.push_str(",\"end_ns\":");
        json::write_num(self.end_ns as f64, &mut out);
        out.push_str(",\"metrics\":{");
        for (i, (key, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_escaped(key, &mut out);
            let (kind, values) = value.fields();
            let (tag, fields) = KINDS[kind];
            out.push_str(":{\"kind\":");
            json::write_escaped(tag, &mut out);
            for (&(field, _), value) in fields.iter().zip(values) {
                out.push_str(",\"");
                out.push_str(field);
                out.push_str("\":");
                json::write_num(value.float(), &mut out);
            }
            out.push('}');
        }
        out.push_str("}}\n");
        out
    }

    /// Renders the snapshot as CSV rows `key,kind,field,value`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("key,kind,field,value\n");
        for (key, value) in &self.metrics {
            let (kind, values) = value.fields();
            let (tag, fields) = KINDS[kind];
            for (&(field, _), value) in fields.iter().zip(values) {
                let _ = write!(out, "{key},{tag},{field},");
                match value {
                    Num::Int(v) => {
                        let _ = write!(out, "{v}");
                    }
                    Num::Float(x) => json::write_num(x, &mut out),
                }
                out.push('\n');
            }
        }
        out
    }

    /// Parses and validates schema-`v1` JSON text back into a snapshot.
    ///
    /// Rejects a wrong/missing schema tag, missing top-level members, a
    /// metric key given twice, and metric objects whose members don't
    /// match their declared kind — this doubles as the snapshot validator
    /// used by CI.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let root = json::parse(text)?;
        let schema = root
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing 'schema'")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema '{schema}' (want '{SCHEMA}')"));
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
        let end_ns = root
            .get("end_ns")
            .and_then(Json::as_u64)
            .ok_or("missing 'end_ns'")?;
        let members = root
            .get("metrics")
            .and_then(Json::members)
            .ok_or("missing 'metrics' object")?;
        let mut metrics = BTreeMap::new();
        for (key, obj) in members {
            let tag = obj
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric '{key}': missing 'kind'"))?;
            let kind = KINDS
                .iter()
                .position(|&(known, _)| known == tag)
                .ok_or_else(|| format!("metric '{key}': unknown kind '{tag}'"))?;
            let mut values = [Num::Int(0); 6];
            for (value, &(field, integer)) in values.iter_mut().zip(KINDS[kind].1) {
                let member = obj.get(field);
                *value = if integer {
                    member.and_then(Json::as_u64).map(Num::Int)
                } else {
                    member.and_then(Json::as_f64).map(Num::Float)
                }
                .ok_or_else(|| format!("metric '{key}': missing {tag} field '{field}'"))?;
            }
            let value = SnapshotValue::from_fields(kind, &values);
            if metrics.insert(key.clone(), value).is_some() {
                return Err(format!("metric '{key}': given twice"));
            }
        }
        Ok(Snapshot {
            scenario,
            seed,
            end_ns,
            metrics,
        })
    }

    /// The counter value at `key`, or 0 when absent or not a counter.
    pub fn counter(&self, key: &str) -> u64 {
        match self.metrics.get(key) {
            Some(SnapshotValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Sums counters whose keys start with `prefix` and end with `suffix`.
    pub fn sum_counters(&self, prefix: &str, suffix: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| match v {
                SnapshotValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesame_sim::SimDur;

    /// One metric of each kind, in a run that ended at `end`.
    fn sample(scenario: &str, seed: u64, end: SimTime) -> Snapshot {
        let mut wait = Histogram::new();
        wait.record(SimDur::from_nanos(300));
        let mut q = TimeWeighted::default();
        q.set(SimTime::from_nanos(50), 1.0);
        let metrics = [
            ("node/0/lock/0/opt/attempts", SnapshotValue::Counter(4)),
            ("node/1/lock/0/opt/attempts", SnapshotValue::Counter(6)),
            ("node/0/cpu/efficiency", SnapshotValue::Gauge(0.875)),
            ("node/0/lock/0/wait", SnapshotValue::histogram(&wait)),
            ("q", SnapshotValue::time_weighted(&q, end)),
        ];
        Snapshot {
            scenario: scenario.to_string(),
            seed,
            end_ns: end.as_nanos(),
            metrics: metrics.map(|(k, v)| (k.to_string(), v)).into(),
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let snap = sample("contention", 42, SimTime::from_nanos(100));
        let text = snap.to_json();
        let back = Snapshot::from_json(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn validation_rejects_bad_schema_and_shape() {
        assert!(Snapshot::from_json("{}").is_err());
        assert!(Snapshot::from_json(r#"{"schema":"other/v9"}"#).is_err());
        let missing_field = format!(
            r#"{{"schema":"{SCHEMA}","scenario":"s","seed":1,"end_ns":2,"metrics":{{"k":{{"kind":"histogram","count":1}}}}}}"#
        );
        let err = Snapshot::from_json(&missing_field).unwrap_err();
        assert!(err.contains("mean_ns"), "err: {err}");
    }

    /// Named metrics are counters and gauges and the rows render the
    /// rest, so no snapshot holds a mean/variance summary any more.
    #[test]
    fn validation_rejects_a_meanvar_metric() {
        let doc = format!(
            r#"{{"schema":"{SCHEMA}","scenario":"s","seed":1,"end_ns":2,"metrics":{{"x":{{"kind":"meanvar","count":1,"mean":2,"std_dev":0,"min":2,"max":2}}}}}}"#
        );
        let err = Snapshot::from_json(&doc).unwrap_err();
        assert_eq!(err, "metric 'x': unknown kind 'meanvar'");
    }

    /// `json::parse` keeps both members of a duplicated key; a snapshot
    /// holds one value per key, so no `to_json` writes such a document.
    #[test]
    fn validation_rejects_a_metric_key_given_twice() {
        let counter = r#"{"kind":"counter","value":1}"#;
        let doc = |metrics: &str| {
            format!(
                r#"{{"schema":"{SCHEMA}","scenario":"s","seed":1,"end_ns":2,"metrics":{{{metrics}}}}}"#
            )
        };
        let once = doc(&format!(r#""a":{counter},"b":{counter}"#));
        assert_eq!(Snapshot::from_json(&once).unwrap().to_json(), once + "\n");
        let twice = doc(&format!(r#""a":{counter},"a":{counter}"#));
        let err = Snapshot::from_json(&twice).unwrap_err();
        assert_eq!(err, "metric 'a': given twice");
    }

    #[test]
    fn counter_helpers_aggregate() {
        let snap = sample("s", 1, SimTime::ZERO);
        assert_eq!(snap.counter("node/0/lock/0/opt/attempts"), 4);
        assert_eq!(snap.sum_counters("node/", "opt/attempts"), 10);
        let attempts = snap
            .metrics
            .keys()
            .filter(|k| k.starts_with("node/") && k.ends_with("opt/attempts"));
        assert_eq!(attempts.count(), 2);
    }

    #[test]
    fn csv_lists_every_field() {
        let snap = sample("s", 1, SimTime::from_nanos(100));
        let csv = snap.to_csv();
        assert!(csv.starts_with("key,kind,field,value\n"));
        assert!(csv.contains("node/0/lock/0/wait,histogram,p99_ns,"));
        assert!(csv.contains("node/0/cpu/efficiency,gauge,value,0.875\n"));
        assert!(csv.contains("q,timeweighted,average,"));
    }
}

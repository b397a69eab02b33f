//! The ledger: samples folded into per-metric medians and quartiles, the
//! `sesame-ledger/v1` file, and the table `run` prints.

use std::collections::BTreeMap;

use sesame_telemetry::json::{self, Json};

use crate::metric::{self, Pass, METRICS};
use crate::sample::{hex, parse_hex, Sample};
use crate::spans::{self_time_by_layer, Span};
use crate::stats::Summary;

pub const SCHEMA: &str = "sesame-ledger/v1";

/// One metric of one workload: its summary and the raw per-sample values
/// (`compare` needs them to tell whether two captures are separated).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub unit: String,
    pub layer: String,
    pub summary: Summary,
    pub values: Vec<f64>,
}

impl Row {
    pub fn new(name: &str, values: Vec<f64>) -> Option<Row> {
        // Sub-rows such as `paper_err_pct.fig8.bound` take the unit and
        // layer of the metric they break down.
        let def = metric::find(name).or_else(|| {
            name.split_once('.')
                .and_then(|(head, _)| metric::find(head))
        });
        Some(Row {
            name: name.to_string(),
            unit: def.map_or("", |d| d.unit).to_string(),
            layer: def.map_or("", |d| d.layer).to_string(),
            summary: Summary::of(&values)?,
            values,
        })
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("unit".into(), Json::Str(self.unit.clone())),
            ("layer".into(), Json::Str(self.layer.clone())),
            ("median".into(), Json::Num(self.summary.median)),
            ("q1".into(), Json::Num(self.summary.q1)),
            ("q3".into(), Json::Num(self.summary.q3)),
            ("n".into(), Json::Num(self.summary.n as f64)),
            (
                "values".into(),
                Json::Arr(self.values.iter().map(|v| Json::Num(*v)).collect()),
            ),
        ])
    }

    fn from_json(j: &Json) -> Result<Row, String> {
        let text = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("row: missing {k}"))
        };
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("row: missing {k}"))
        };
        let values = j
            .get("values")
            .and_then(Json::elements)
            .ok_or("row: missing values")?
            .iter()
            .map(|v| v.as_f64().ok_or("row: non-numeric value"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Row {
            name: text("name")?,
            unit: text("unit")?,
            layer: text("layer")?,
            summary: Summary {
                median: num("median")?,
                q1: num("q1")?,
                q3: num("q3")?,
                n: num("n")? as usize,
            },
            values,
        })
    }
}

/// One workload's part of the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRows {
    pub name: String,
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub rows: Vec<Row>,
    /// Self time per layer from the traced sample's spans.
    pub self_time_s: Vec<(String, f64)>,
    /// The traced sample's own `workloads.run_s` and the share of it that
    /// the host profiler (and, on `bigmesh_32k`, one machine build)
    /// explains.
    pub accounted_share: Option<(f64, f64)>,
}

impl WorkloadRows {
    pub fn row(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.row(name).map(|r| r.summary.median)
    }
}

/// A whole capture.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    pub seed: u64,
    pub samples: usize,
    pub quick: bool,
    pub traced: bool,
    pub nproc: usize,
    pub workloads: Vec<WorkloadRows>,
    /// Metrics derived across workloads (`sweep.speedup`, ...).
    pub derived: Vec<Row>,
}

/// What one workload's children produced.
pub struct Collected {
    pub name: String,
    pub untraced: Vec<Sample>,
    /// Parent-measured spawn-to-ready seconds, one per child that got there.
    pub setup_s: Vec<f64>,
    pub traced: Option<Sample>,
}

impl Collected {
    pub fn new(name: &str) -> Collected {
        Collected {
            name: name.to_string(),
            untraced: Vec::new(),
            setup_s: Vec::new(),
            traced: None,
        }
    }
}

/// Order of rows: dictionary order first, then any sub-rows by name.
fn row_names(samples: &[&Sample]) -> Vec<String> {
    let mut extra: Vec<&String> = samples
        .iter()
        .flat_map(|s| s.metrics.keys())
        .filter(|k| metric::find(k).is_none())
        .collect();
    extra.sort();
    extra.dedup();
    METRICS
        .iter()
        .filter(|m| m.layer != "run")
        .map(|m| m.name.to_string())
        .chain(extra.into_iter().cloned())
        .collect()
}

/// Folds one workload's samples into rows and runs the cross-sample
/// checks: identical digests, exact metrics that repeat exactly, and the
/// pinned digest when there is one.
pub fn fold(c: &Collected, pin: Option<u64>) -> WorkloadRows {
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let all: Vec<&Sample> = c.untraced.iter().chain(&c.traced).collect();
    let digest = all.first().map_or(0, |s| s.digest);
    for s in &all {
        attempted += s.attempted;
        failed += s.failed;
        failures.extend(s.failures.iter().cloned());
        // A digest mismatch fails every op of the sample that disagrees.
        if s.digest != digest {
            failed += s.attempted - s.failed.min(s.attempted);
            failures.push(format!(
                "digest {} differs from the first sample's {}",
                hex(s.digest),
                hex(digest)
            ));
        }
    }
    if let Some(pin) = pin {
        if pin != digest && failed < attempted {
            failed = attempted;
            failures.push(format!(
                "digest {} is not the pinned {}",
                hex(digest),
                hex(pin)
            ));
        }
    }

    let mut rows = Vec::new();
    for name in row_names(&all) {
        let def = metric::find(&name);
        // Profiler- and probe-based metrics exist in the traced sample
        // only; everything else comes from the untraced samples, and from
        // the traced one when there are none.
        let traced_only = def.is_some_and(|d| d.pass != Pass::Untraced);
        let source: Vec<&Sample> = if traced_only || c.untraced.is_empty() {
            c.traced.iter().collect()
        } else {
            c.untraced.iter().collect()
        };
        let values: Vec<f64> = match name.as_str() {
            "setup_s" => c.setup_s.clone(),
            "fail_share" => source
                .iter()
                .map(|s| s.failed as f64 / s.attempted.max(1) as f64)
                .collect(),
            _ => source.iter().filter_map(|s| s.metric(&name)).collect(),
        };
        if def.is_some_and(|d| d.domain.exact()) && values.windows(2).any(|w| w[0] != w[1]) {
            failed += 1;
            attempted += 1;
            failures.push(format!("exact metric {name} does not repeat: {values:?}"));
        }
        rows.extend(Row::new(&name, values));
    }
    WorkloadRows {
        name: c.name.clone(),
        digest,
        attempted,
        failed,
        failures,
        rows,
        self_time_s: c
            .traced
            .as_ref()
            .map(|s| self_time_by_layer(&s.spans))
            .unwrap_or_default(),
        accounted_share: c.traced.as_ref().and_then(accounted_share),
    }
}

/// How much of a traced sample's `workloads.run_s` its own profile
/// explains: `sim.pop_s + dsm.dispatch_s + sim.trace_s + observer time`,
/// and one machine build where the run call builds its own machine
/// (`run_bigmesh`; the build is timed alone as `workloads.build_s`).
fn accounted_share(traced: &Sample) -> Option<(f64, f64)> {
    let get = |n: &str| traced.metric(n).unwrap_or(0.0);
    let run_s = traced.metric("workloads.run_s").filter(|s| *s > 0.0)?;
    let profiled = get("sim.pop_s")
        + get("dsm.dispatch_s")
        + get("sim.trace_s")
        + get("telemetry.observer_s")
        + get("verify.observer_s");
    let build = if traced.workload == "bigmesh_32k" {
        get("workloads.build_s")
    } else {
        0.0
    };
    (profiled > 0.0).then(|| (run_s, (profiled + build) / run_s))
}

impl Ledger {
    pub fn workload(&self, name: &str) -> Option<&WorkloadRows> {
        self.workloads.iter().find(|w| w.name == name)
    }

    pub fn failed(&self) -> u64 {
        self.workloads.iter().map(|w| w.failed).sum()
    }

    /// Adds the rows that need more than one workload, and the cross-
    /// workload digest check.
    pub fn derive(&mut self, traced_wall: &BTreeMap<String, f64>) {
        let med = |l: &Ledger, w: &str, m: &str| l.workload(w).and_then(|w| w.median(m));
        if let (Some(serial), Some(par), Some(jobs)) = (
            med(self, "paper_figs", "wall_s"),
            med(self, "paper_figs_par", "wall_s"),
            med(self, "paper_figs_par", "sweep.jobs"),
        ) {
            if par > 0.0 && jobs > 0.0 {
                self.derived
                    .extend(Row::new("sweep.speedup", vec![serial / par]));
                self.derived
                    .extend(Row::new("sweep.efficiency", vec![serial / par / jobs]));
            }
        }
        for (workload, traced) in traced_wall {
            if let Some(untraced) = med(self, workload, "wall_s").filter(|m| *m > 0.0) {
                let mut row = Row::new(
                    "trace_overhead_pct",
                    vec![100.0 * (traced / untraced - 1.0)],
                )
                .expect("one value");
                row.name = format!("trace_overhead_pct.{workload}");
                self.derived.push(row);
            }
        }
        let digests = (
            self.workload("paper_figs").map(|w| w.digest),
            self.workload("paper_figs_par").map(|w| w.digest),
        );
        if let (Some(serial), Some(par)) = digests {
            if serial != par {
                let w = self
                    .workloads
                    .iter_mut()
                    .find(|w| w.name == "paper_figs_par")
                    .expect("just looked up");
                w.failed = w.attempted;
                w.failures.push(format!(
                    "digest {} differs from paper_figs's {}",
                    hex(par),
                    hex(serial)
                ));
            }
        }
    }

    pub fn to_json(&self) -> String {
        let rows = |rows: &[Row]| Json::Arr(rows.iter().map(Row::to_json).collect());
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Str(SCHEMA.into())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("samples".into(), Json::Num(self.samples as f64)),
            ("quick".into(), Json::Bool(self.quick)),
            ("traced".into(), Json::Bool(self.traced)),
            ("nproc".into(), Json::Num(self.nproc as f64)),
            (
                "workloads".into(),
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(w.name.clone())),
                                ("digest".into(), Json::Str(hex(w.digest))),
                                ("attempted".into(), Json::Num(w.attempted as f64)),
                                ("failed".into(), Json::Num(w.failed as f64)),
                                (
                                    "failures".into(),
                                    Json::Arr(w.failures.iter().cloned().map(Json::Str).collect()),
                                ),
                                ("metrics".into(), rows(&w.rows)),
                                (
                                    "traced_run_s".into(),
                                    w.accounted_share.map_or(Json::Null, |a| Json::Num(a.0)),
                                ),
                                (
                                    "accounted_share".into(),
                                    w.accounted_share.map_or(Json::Null, |a| Json::Num(a.1)),
                                ),
                                (
                                    "self_time_s".into(),
                                    Json::Obj(
                                        w.self_time_s
                                            .iter()
                                            .map(|(l, s)| (l.clone(), Json::Num(*s)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("derived".into(), rows(&self.derived)),
        ]);
        let mut text = doc.render();
        text.push('\n');
        text
    }

    pub fn from_json(text: &str) -> Result<Ledger, String> {
        let j = json::parse(text)?;
        if j.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} file"));
        }
        let num = |j: &Json, k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("ledger: missing integer {k}"))
        };
        let flag = |k: &str| match j.get(k) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("ledger: missing flag {k}")),
        };
        let rows = |j: &Json, k: &str| -> Result<Vec<Row>, String> {
            j.get(k)
                .and_then(Json::elements)
                .ok_or_else(|| format!("ledger: missing array {k}"))?
                .iter()
                .map(Row::from_json)
                .collect()
        };
        let workloads = j
            .get("workloads")
            .and_then(Json::elements)
            .ok_or("ledger: missing workloads")?
            .iter()
            .map(|w| {
                Ok(WorkloadRows {
                    name: w
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("workload: missing name")?
                        .to_string(),
                    digest: parse_hex(
                        w.get("digest")
                            .and_then(Json::as_str)
                            .ok_or("workload: missing digest")?,
                    )?,
                    attempted: num(w, "attempted")?,
                    failed: num(w, "failed")?,
                    failures: w
                        .get("failures")
                        .and_then(Json::elements)
                        .ok_or("workload: missing failures")?
                        .iter()
                        .filter_map(|f| f.as_str().map(str::to_string))
                        .collect(),
                    rows: rows(w, "metrics")?,
                    accounted_share: w
                        .get("traced_run_s")
                        .and_then(Json::as_f64)
                        .zip(w.get("accounted_share").and_then(Json::as_f64)),
                    self_time_s: w
                        .get("self_time_s")
                        .and_then(Json::members)
                        .ok_or("workload: missing self_time_s")?
                        .iter()
                        .filter_map(|(l, s)| s.as_f64().map(|s| (l.clone(), s)))
                        .collect(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Ledger {
            seed: num(&j, "seed")?,
            samples: num(&j, "samples")? as usize,
            quick: flag("quick")?,
            traced: flag("traced")?,
            nproc: num(&j, "nproc")? as usize,
            workloads,
            derived: rows(&j, "derived")?,
        })
    }

    /// Every metric by name with its unit, as median / q1 / q3 / n.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{SCHEMA}  seed {}  samples {}  nproc {}{}{}",
            self.seed,
            self.samples,
            self.nproc,
            if self.quick {
                "  QUICK (never compare)"
            } else {
                ""
            },
            if self.traced { "  +traced pass" } else { "" },
        );
        for w in &self.workloads {
            let _ = writeln!(
                out,
                "\n== {}  digest {}  attempted {}  failed {}",
                w.name,
                hex(w.digest),
                w.attempted,
                w.failed
            );
            for f in &w.failures {
                let _ = writeln!(out, "   FAILED: {f}");
            }
            let _ = writeln!(
                out,
                "   {:<38} {:<6} {:>16} {:>16} {:>16} {:>3}",
                "metric", "unit", "median", "q1", "q3", "n"
            );
            for r in &w.rows {
                let _ = writeln!(out, "   {}", render_row(r));
            }
            if !w.self_time_s.is_empty() {
                let _ = writeln!(out, "   -- self time by layer (traced sample)");
                for (layer, s) in &w.self_time_s {
                    let _ = writeln!(out, "   {layer:<38} {:<6} {:>16}", "s", fmt(*s));
                }
                if let Some((run_s, share)) = w.accounted_share {
                    let _ = writeln!(
                        out,
                        "   {:<38} {:<6} {:>16}\n   {:<38} {:<6} {:>16}",
                        "traced workloads.run_s",
                        "s",
                        fmt(run_s),
                        "accounted share of it",
                        "%",
                        fmt(100.0 * share)
                    );
                }
            }
        }
        if !self.derived.is_empty() {
            let _ = writeln!(out, "\n== derived across workloads");
            for r in &self.derived {
                let _ = writeln!(out, "   {}", render_row(r));
            }
        }
        out
    }
}

fn fmt(x: f64) -> String {
    if x == 0.0 || (x.fract() == 0.0 && x.abs() < 1e15) {
        format!("{x:.0}")
    } else if x.abs() >= 100.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.6}")
    }
}

fn render_row(r: &Row) -> String {
    format!(
        "{:<38} {:<6} {:>16} {:>16} {:>16} {:>3}",
        r.name,
        r.unit,
        fmt(r.summary.median),
        fmt(r.summary.q1),
        fmt(r.summary.q3),
        r.summary.n
    )
}

/// Spans of the traced samples, for the Chrome trace.
pub fn traced_spans(collected: &[Collected]) -> Vec<(String, Vec<Span>)> {
    collected
        .iter()
        .filter_map(|c| c.traced.as_ref().map(|s| (c.name.clone(), s.spans.clone())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::Rec;
    use std::time::Instant;

    fn sample(wall: f64, events: f64, digest_text: &str) -> Sample {
        let mut rec = Rec::new("w", 7, Instant::now());
        rec.op(10, "run", "workloads", || ());
        rec.set("wall_s", wall);
        rec.set("sim.events", events);
        rec.sim("out", digest_text);
        rec.finish()
    }

    fn collected(samples: Vec<Sample>) -> Collected {
        Collected {
            name: "w".into(),
            setup_s: samples.iter().map(|_| 0.25).collect(),
            untraced: samples,
            traced: None,
        }
    }

    #[test]
    fn fold_summarises_and_passes_clean_samples() {
        let c = collected(vec![
            sample(1.0, 50.0, "a"),
            sample(3.0, 50.0, "a"),
            sample(2.0, 50.0, "a"),
        ]);
        let w = fold(&c, Some(c.untraced[0].digest));
        assert_eq!((w.attempted, w.failed), (30, 0));
        assert_eq!(w.median("wall_s"), Some(2.0));
        assert_eq!(w.median("setup_s"), Some(0.25));
        assert_eq!(w.median("fail_share"), Some(0.0));
        assert_eq!(w.row("sim.events").unwrap().summary.n, 3);
    }

    #[test]
    fn fold_fails_digest_drift_unrepeatable_counts_and_a_wrong_pin() {
        let drift = fold(
            &collected(vec![sample(1.0, 50.0, "a"), sample(1.0, 50.0, "b")]),
            None,
        );
        assert_eq!(drift.failed, 10, "{:?}", drift.failures);
        let counts = fold(
            &collected(vec![sample(1.0, 50.0, "a"), sample(1.0, 51.0, "a")]),
            None,
        );
        assert_eq!(counts.failed, 1, "{:?}", counts.failures);
        let pin = fold(&collected(vec![sample(1.0, 50.0, "a")]), Some(1));
        assert_eq!(pin.failed, pin.attempted);
    }

    #[test]
    fn ledger_json_round_trips() {
        let c = collected(vec![sample(1.5, 50.0, "a"), sample(1.25, 50.0, "a")]);
        let mut w = fold(&c, None);
        w.failures.push("a \"quoted\" failure".into());
        w.self_time_s = vec![("dsm".into(), 0.125), ("sim".into(), 0.5)];
        w.accounted_share = Some((6.5, 0.96875));
        let mut ledger = Ledger {
            seed: 7,
            samples: 2,
            quick: true,
            traced: false,
            nproc: 2,
            workloads: vec![w],
            derived: Vec::new(),
        };
        ledger
            .derived
            .extend(Row::new("sweep.speedup", vec![1.875]));
        let text = ledger.to_json();
        assert_eq!(Ledger::from_json(&text).unwrap(), ledger);
        assert!(Ledger::from_json("{\"schema\":\"other\"}").is_err());
        assert!(ledger.render().contains("wall_s"));
    }

    #[test]
    fn paper_figs_par_must_match_paper_figs() {
        let mk = |name: &str, text: &str| {
            let mut w = fold(&collected(vec![sample(1.0, 5.0, text)]), None);
            w.name = name.into();
            w
        };
        let mut ledger = Ledger {
            seed: 7,
            samples: 1,
            quick: false,
            traced: false,
            nproc: 2,
            workloads: vec![mk("paper_figs", "a"), mk("paper_figs_par", "b")],
            derived: Vec::new(),
        };
        ledger.derive(&BTreeMap::new());
        assert_eq!(ledger.failed(), 10);
    }
}

//! Benchmark-side spans: one around every call the benchmark makes into
//! a layer (build, run, each sweep point, each observed phase, export,
//! validate, check, each probe). Spans live in memory until the sample
//! ends; nothing is recorded inside the program under test.

use std::time::Instant;

use sesame_telemetry::json::Json;

/// One closed span. Times are nanoseconds since the child process began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub layer: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same sample, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("layer".into(), Json::Str(self.layer.clone())),
            ("start_ns".into(), Json::Num(self.start_ns as f64)),
            ("end_ns".into(), Json::Num(self.end_ns as f64)),
            (
                "parent".into(),
                self.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Span, String> {
        let text = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("span: missing string {k}"))
        };
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("span: missing integer {k}"))
        };
        Ok(Span {
            name: text("name")?,
            layer: text("layer")?,
            start_ns: num("start_ns")?,
            end_ns: num("end_ns")?,
            parent: j.get("parent").and_then(Json::as_u64).map(|p| p as usize),
        })
    }
}

/// Records nested spans against one process-wide origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Tracer::exit`]. Returns the span's index.
    pub fn enter(&mut self, name: &str, layer: &str) -> usize {
        let idx = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            layer: layer.to_string(),
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx` (and any span left open inside it, which is how
    /// a span whose body panicked gets its end) and returns its seconds.
    pub fn exit(&mut self, idx: usize) -> f64 {
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == idx {
                break;
            }
        }
        self.spans[idx].dur_s()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per layer: each span's duration minus the part its children
/// cover, summed by layer. Probe spans (`probe.*`) are kept apart as
/// `<layer> (probes)`: they run after the measured phase. Sorted by name.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(String, f64)> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    let mut by_layer = std::collections::BTreeMap::<String, f64>::new();
    for (s, c) in spans.iter().zip(&covered) {
        let own = (s.end_ns - s.start_ns).saturating_sub(*c);
        let key = if s.name.starts_with("probe.") {
            format!("{} (probes)", s.layer)
        } else {
            s.layer.clone()
        };
        *by_layer.entry(key).or_default() += own as f64 / 1e9;
    }
    by_layer.into_iter().collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one process
/// per workload, complete (`ph:"X"`) events in microseconds, the layer as
/// category and the sample id and parent in `args`.
pub fn chrome_trace(samples: &[(String, Vec<Span>)]) -> String {
    let mut events = Vec::new();
    for (pid, (workload, spans)) in samples.iter().enumerate() {
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str("process_name".into())),
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::Num(pid as f64)),
            ("tid".into(), Json::Num(0.0)),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::Str(workload.clone()))]),
            ),
        ]));
        for (i, s) in spans.iter().enumerate() {
            events.push(Json::Obj(vec![
                ("name".into(), Json::Str(s.name.clone())),
                ("cat".into(), Json::Str(s.layer.clone())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                (
                    "dur".into(),
                    Json::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                ),
                ("pid".into(), Json::Num(pid as f64)),
                ("tid".into(), Json::Num(0.0)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("sample".into(), Json::Str(format!("{workload}#{pid}"))),
                        ("span".into(), Json::Num(i as f64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ]),
                ),
            ]));
        }
    }
    let doc = Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ]);
    let mut text = doc.render();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: format!("{layer}-{start}"),
            layer: layer.into(),
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("workloads", 0, 1_000_000_000, None),
            span("dsm", 100_000_000, 400_000_000, Some(0)),
            span("net", 150_000_000, 250_000_000, Some(1)),
            span("dsm", 500_000_000, 600_000_000, Some(0)),
        ];
        let by = self_time_by_layer(&spans);
        let get = |l: &str| by.iter().find(|(k, _)| k == l).unwrap().1;
        assert!((get("workloads") - 0.6).abs() < 1e-12);
        assert!((get("dsm") - 0.3).abs() < 1e-12);
        assert!((get("net") - 0.1).abs() < 1e-12);
        let total: f64 = by.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12, "self times tile the root span");
    }

    #[test]
    fn tracer_nests_and_closes_abandoned_children() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.enter("outer", "workloads");
        let _inner = t.enter("inner", "dsm"); // never exited: its body "panicked"
        t.exit(outer);
        let after = t.enter("after", "net");
        t.exit(after);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].end_ns, spans[0].end_ns);
        assert_eq!(spans[2].parent, None);
    }

    #[test]
    fn chrome_trace_parses_and_span_round_trips() {
        let s = span("sim", 5, 2_005, Some(3));
        assert_eq!(Span::from_json(&s.to_json()).unwrap(), s);
        let text = chrome_trace(&[("w".into(), vec![span("sim", 0, 2_000, None)])]);
        let doc = sesame_telemetry::json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().elements().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(2.0));
    }
}

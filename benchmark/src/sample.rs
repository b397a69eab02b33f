//! One sample: what a child process measures and hands back.
//!
//! [`Rec`] is the recorder a workload writes into — spans, metrics,
//! attempted/failed operation counts and the canonical text of every
//! simulated output — and [`Sample`] is its finished, serialisable form.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use sesame_telemetry::json::Json;

use crate::prof::{self, Prof};
use crate::spans::{Span, Tracer};

/// A finished sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub workload: String,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages (the count is `failed`).
    pub failures: Vec<String>,
    /// FNV-1a over the canonical text of every simulated output.
    pub digest: u64,
    pub metrics: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
}

impl Sample {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// The stand-in for a child that died: every op it owed has failed.
    pub fn dead(workload: &str, seed: u64, attempted: u64, why: String) -> Sample {
        Sample {
            workload: workload.to_string(),
            seed,
            attempted,
            failed: attempted,
            failures: vec![why],
            digest: 0,
            metrics: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "failures".into(),
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("digest".into(), Json::Str(hex(self.digest))),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "spans".into(),
                Json::Arr(self.spans.iter().map(Span::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Sample, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("sample: missing integer {k}"))
        };
        let list = |k: &str| {
            j.get(k)
                .and_then(Json::elements)
                .ok_or_else(|| format!("sample: missing array {k}"))
        };
        Ok(Sample {
            workload: j
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("sample: missing workload")?
                .to_string(),
            seed: num("seed")?,
            attempted: num("attempted")?,
            failed: num("failed")?,
            failures: list("failures")?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            digest: parse_hex(
                j.get("digest")
                    .and_then(Json::as_str)
                    .ok_or("sample: missing digest")?,
            )?,
            metrics: j
                .get("metrics")
                .and_then(Json::members)
                .ok_or("sample: missing metrics")?
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|x| (k.clone(), x))
                        .ok_or_else(|| format!("sample: metric {k} is not a number"))
                })
                .collect::<Result<_, _>>()?,
            spans: list("spans")?
                .iter()
                .map(Span::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// `0x`-prefixed 16-digit hex, the form digests take in every file.
pub fn hex(x: u64) -> String {
    format!("0x{x:016x}")
}

pub fn parse_hex(s: &str) -> Result<u64, String> {
    s.strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("bad digest {s:?}"))
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The message of the most recent panic, left by [`install_panic_hook`].
static LAST_PANIC: Mutex<Option<String>> = Mutex::new(None);

/// Routes panic messages into [`LAST_PANIC`] (and one stderr line), so a
/// library `assert!` inside an op becomes a counted failure that carries
/// its message.
pub fn install_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        let msg = info.to_string();
        eprintln!("sesame-ledger: op panicked: {msg}");
        if let Ok(mut slot) = LAST_PANIC.lock() {
            *slot = Some(msg);
        }
    }));
}

const FAILURES_KEPT: usize = 8;

/// The recorder a workload writes one sample into.
pub struct Rec {
    workload: String,
    seed: u64,
    tracer: Tracer,
    metrics: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    sim_text: String,
    /// Host-profiler totals over every [`Rec::run_op`] so far.
    pub prof: Prof,
}

impl Rec {
    pub fn new(workload: &str, seed: u64, origin: Instant) -> Rec {
        Rec {
            workload: workload.to_string(),
            seed,
            tracer: Tracer::new(origin),
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            sim_text: String::new(),
            prof: Prof::default(),
        }
    }

    /// Opens a span by hand, for a stretch of code that needs the
    /// recorder itself; close it with [`Rec::exit`].
    pub fn enter(&mut self, name: &str, layer: &str) -> usize {
        self.tracer.enter(name, layer)
    }

    /// Closes a span opened with [`Rec::enter`] and returns its seconds.
    pub fn exit(&mut self, idx: usize) -> f64 {
        self.tracer.exit(idx)
    }

    /// Times `f` as a span and returns its value and seconds.
    pub fn span<T>(&mut self, name: &str, layer: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let idx = self.enter(name, layer);
        let out = f();
        (out, self.exit(idx))
    }

    /// Runs `f` as `ops` attempted operations inside a span and under
    /// `catch_unwind`: a panic counts all `ops` as failed, keeps its
    /// message and yields `None`.
    pub fn op<T>(
        &mut self,
        ops: u64,
        name: &str,
        layer: &str,
        f: impl FnOnce() -> T,
    ) -> Option<(T, f64)> {
        self.attempted += ops;
        let idx = self.enter(name, layer);
        let out = catch_unwind(AssertUnwindSafe(f));
        let secs = self.exit(idx);
        match out {
            Ok(v) => Some((v, secs)),
            Err(_) => {
                let msg = LAST_PANIC
                    .lock()
                    .ok()
                    .and_then(|mut m| m.take())
                    .unwrap_or_else(|| "panic without a message".into());
                self.fail(ops, format!("{name}: {msg}"));
                None
            }
        }
    }

    /// [`Rec::op`] around a call that runs the simulator: resets the host
    /// profiler first and folds its report into [`Rec::prof`] after.
    /// Returns the value, the seconds and this call's own profile.
    pub fn run_op<T>(
        &mut self,
        ops: u64,
        name: &str,
        layer: &str,
        f: impl FnOnce() -> T,
    ) -> Option<(T, f64, Prof)> {
        prof::reset();
        let out = self.op(ops, name, layer, f);
        let p = prof::report();
        self.prof.absorb(p);
        out.map(|(v, s)| (v, s, p))
    }

    /// Counts `n` already-attempted operations as failed.
    pub fn fail(&mut self, n: u64, msg: String) {
        self.failed += n;
        if self.failures.len() < FAILURES_KEPT {
            self.failures.push(msg);
        }
    }

    /// Counts one failed operation unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, msg());
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.metrics.entry(name.to_string()).or_default() += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Appends one simulated output to the text the digest covers.
    pub fn sim(&mut self, key: &str, value: impl Display) {
        use std::fmt::Write as _;
        let _ = writeln!(self.sim_text, "{key}={value}");
    }

    /// Tells the parent that set-up is over: it stops the `setup_s` clock
    /// when it reads this line.
    pub fn ready(&self) {
        let mut out = std::io::stdout().lock();
        let _ = writeln!(out, "ready");
        let _ = out.flush();
    }

    pub fn finish(mut self) -> Sample {
        // A failure may never exceed what was attempted.
        self.failed = self.failed.min(self.attempted.max(1));
        self.attempted = self.attempted.max(1);
        Sample {
            workload: self.workload,
            seed: self.seed,
            attempted: self.attempted,
            failed: self.failed,
            failures: self.failures,
            digest: fnv1a(self.sim_text.as_bytes()),
            metrics: self.metrics,
            spans: self.tracer.into_spans(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(parse_hex(&hex(0xdead_beef)).unwrap(), 0xdead_beef);
        assert!(parse_hex("beef").is_err());
    }

    #[test]
    fn a_panicking_op_is_a_counted_failure_with_its_message() {
        install_panic_hook();
        let mut rec = Rec::new("t", 1, Instant::now());
        let ok = rec.op(3, "fine", "workloads", || 41 + 1);
        assert_eq!(ok.map(|(v, _)| v), Some(42));
        let bad = rec.op(5, "broken", "dsm", || {
            assert_eq!(1 + 1, 3, "planted library assert");
        });
        assert!(bad.is_none());
        rec.sim("x", 1);
        let s = rec.finish();
        assert_eq!((s.attempted, s.failed), (8, 5));
        assert!(
            s.failures[0].contains("planted library assert"),
            "{:?}",
            s.failures
        );
        // The panicked span still got its end.
        assert!(s.spans.iter().all(|sp| sp.end_ns >= sp.start_ns));
    }

    #[test]
    fn sample_json_round_trips() {
        let mut rec = Rec::new("w", 7, Instant::now());
        rec.op(2, "a", "sim", || ());
        rec.set("wall_s", 1.234_567_890_123);
        rec.add("sim.events", 10.0);
        rec.add("sim.events", 5.0);
        rec.sim("end_ns", 99);
        rec.fail(1, "a \"quoted\"\nmessage".into());
        let s = rec.finish();
        assert_eq!(s.metric("sim.events"), Some(15.0));
        let text = s.to_json().render();
        let back = Sample::from_json(&sesame_telemetry::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(s.digest, fnv1a(b"end_ns=99\n"));
    }
}

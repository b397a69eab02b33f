//! The capture protocol, and its two callers: `run`, every workload into
//! a ledger, and the contract driver's `--workload W --seed N --seconds S
//! --trace T`, one workload into one line.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use sesame_telemetry::json::Json;

use crate::child::{setup_reading, spawn, ChildSpec};
use crate::ledger::{fold, traced_spans, Collected, Ledger, WorkloadRows};
use crate::metric::{self, MetricDef, CONTRACT_E2E};
use crate::prof::TRACED;
use crate::sample::parse_hex;
use crate::spans::chrome_trace;
use crate::workloads::{is_known, WORKLOADS};

/// Seed-7 digests of every workload (and, for the workloads no seed
/// reaches, of every seed): the determinism guard's fixed point.
/// Seed 11 is the hold-out seed — nothing here is tuned against it.
const PINS: &str = include_str!("../pins.txt");

/// The pinned digest of `workload` at `seed`, full size only.
pub fn pin_for(workload: &str, seed: u64, quick: bool) -> Option<u64> {
    if quick {
        return None;
    }
    PINS.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let mut parts = l.split_whitespace();
        let (w, s, d) = (parts.next()?, parts.next()?, parts.next()?);
        (w == workload && (s == "*" || s.parse() == Ok(seed))).then(|| parse_hex(d).ok())?
    })
}

/// Builds (or refreshes) the traced twin of this binary and returns its
/// path: `--features traced`, in its own target directory beside this
/// build's. Only a traced pass calls this.
fn traced_exe() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let profile_dir = exe.parent().ok_or("binary has no directory")?;
    let target = profile_dir
        .parent()
        .ok_or("binary is not in a target dir")?;
    let profile = profile_dir
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or("odd profile directory")?;
    let traced_target = target.join("traced");
    // `cargo run` names the package directory at run time, so a checkout
    // that moved after the build still finds its manifest.
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("Cargo.toml");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.args(["build", "--quiet", "--offline", "--features", "traced"]);
    if profile == "release" {
        cmd.arg("--release");
    }
    cmd.arg("--manifest-path")
        .arg(&manifest)
        .arg("--target-dir")
        .arg(&traced_target);
    let status = cmd.status().map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "the traced build of {} failed: {status}",
            manifest.display()
        ));
    }
    Ok(traced_target
        .join(profile)
        .join(exe.file_name().ok_or("binary has no name")?))
}

/// How many untraced samples each workload gets.
#[derive(Debug, Clone, Copy)]
pub enum Samples {
    Count(usize),
    /// As many rounds as end within this many seconds of the capture's
    /// start, going by the rounds so far, and never fewer than
    /// [`MIN_TIMED_SAMPLES`].
    Seconds(f64),
}

/// Two children at the least, so that every metric has been seen to repeat.
const MIN_TIMED_SAMPLES: usize = 2;

/// Set-up readings taken after every sample besides the sample's own:
/// set-up is milliseconds, so its median wants more readings than the
/// seconds-long samples give.
const EXTRA_SETUPS: usize = 4;

/// One capture: what `run` and the contract driver both ask for.
pub struct Capture<'a> {
    pub seed: u64,
    pub samples: Samples,
    pub quick: bool,
    pub traced: bool,
    pub workloads: &'a [&'a str],
}

/// The one capture protocol. Every workload gets its untraced samples,
/// one freshly re-executed child each, in round-robin order so that
/// host-load drift spreads evenly over the workloads; then, if asked, one
/// traced child each with the layer probes. The ledger holds medians and
/// quartiles over the samples, `setup_s` among them.
pub fn capture(args: &Capture<'_>) -> Result<(Ledger, Vec<Collected>), String> {
    if TRACED {
        return Err(
            "run this from the untraced build; it builds and runs the traced one itself".into(),
        );
    }
    if let Some(bad) = args.workloads.iter().find(|n| !is_known(n)) {
        return Err(format!("unknown workload {bad}"));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    fn spec<'a>(args: &Capture<'_>, workload: &'a str) -> ChildSpec<'a> {
        ChildSpec {
            workload,
            seed: args.seed,
            quick: args.quick,
            probes: false,
        }
    }
    let mut collected: Vec<Collected> = args.workloads.iter().map(|n| Collected::new(n)).collect();
    let started = Instant::now();
    // A timed capture takes another round while, going by the rounds so
    // far, that round would still end inside the time.
    let wants_more = |samples: usize| match args.samples {
        Samples::Count(n) => samples < n,
        Samples::Seconds(seconds) => {
            let spent = started.elapsed().as_secs_f64();
            samples < MIN_TIMED_SAMPLES || spent + spent / samples as f64 <= seconds
        }
    };
    let mut samples = 0;
    while wants_more(samples) {
        samples += 1;
        for c in &mut collected {
            eprintln!("sample {samples} {}", c.name);
            let out = spawn(&exe, spec(args, &c.name));
            c.setup_s.extend(out.setup_s);
            c.untraced.push(out.sample);
            for _ in 0..EXTRA_SETUPS {
                c.setup_s.extend(setup_reading(&exe, spec(args, &c.name)));
            }
        }
    }
    let mut traced_wall = BTreeMap::new();
    if args.traced {
        let traced = traced_exe()?;
        for c in &mut collected {
            eprintln!("traced sample {}", c.name);
            let out = spawn(
                &traced,
                ChildSpec {
                    probes: true,
                    ..spec(args, &c.name)
                },
            );
            if let Some(w) = out.sample.metric("wall_s") {
                traced_wall.insert(c.name.clone(), w);
            }
            if samples == 0 {
                c.setup_s.extend(out.setup_s);
            }
            c.traced = Some(out.sample);
        }
    }
    let mut ledger = Ledger {
        seed: args.seed,
        samples,
        quick: args.quick,
        traced: args.traced,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        workloads: collected
            .iter()
            .map(|c| fold(c, pin_for(&c.name, args.seed, args.quick)))
            .collect(),
        derived: Vec::new(),
    };
    ledger.derive(&traced_wall);
    Ok((ledger, collected))
}

pub struct RunArgs {
    pub seed: u64,
    pub samples: usize,
    pub quick: bool,
    pub traced: bool,
    pub out: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
}

/// `run`: every workload; prints every metric, writes the ledger and the
/// Chrome trace, and fails when any check did.
pub fn run(args: &RunArgs) -> Result<ExitCode, String> {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let (ledger, collected) = capture(&Capture {
        seed: args.seed,
        samples: Samples::Count(args.samples),
        quick: args.quick,
        traced: args.traced,
        workloads: &names,
    })?;
    print!("{}", ledger.render());
    if let Some(path) = &args.out {
        std::fs::write(path, ledger.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, chrome_trace(&traced_spans(&collected)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let failed = ledger.failed();
    if failed > 0 {
        eprintln!("sesame-ledger: {failed} operations failed their checks");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

pub struct DriveArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The contract driver's entry: the same capture for one workload and one
/// JSON object on the last line of stdout. Untraced, it samples for
/// `seconds`; traced, it takes one untraced sample, so that the metrics
/// every build yields come from the build users run, and the traced pass.
pub fn drive(args: &DriveArgs) -> Result<ExitCode, String> {
    let (ledger, _) = capture(&Capture {
        seed: args.seed,
        samples: if args.trace {
            Samples::Count(1)
        } else {
            Samples::Seconds(args.seconds)
        },
        quick: false,
        traced: args.trace,
        workloads: &[&args.workload],
    })?;
    let rows = &ledger.workloads[0];
    for name in ["wall_s", "setup_s"] {
        if let Some(row) = rows.row(name) {
            eprintln!("sesame-ledger: {name} readings {:?}", row.values);
        }
    }
    for f in &rows.failures {
        eprintln!("sesame-ledger: FAILED: {f}");
    }
    println!("{}", contract_line(rows, args.trace));
    Ok(ExitCode::SUCCESS)
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics` — every `end_to_end` metric of `BENCHMARK.json` untraced,
/// every `per_layer` metric traced (0 where the workload has none), each
/// the median over the run's samples.
fn contract_line(rows: &WorkloadRows, trace: bool) -> String {
    let defs: Vec<&MetricDef> = if trace {
        metric::contract_per_layer().collect()
    } else {
        CONTRACT_E2E
            .iter()
            .map(|(name, _)| metric::find(name).expect("contract metric is in the dictionary"))
            .collect()
    };
    let metrics = defs
        .iter()
        .map(|m| {
            let median = Json::Num(rows.median(m.name).unwrap_or(0.0));
            let unit = Json::Str(m.unit.into());
            let value = Json::Obj(vec![("value".into(), median), ("unit".into(), unit)]);
            (m.name.to_string(), value)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(rows.failed == 0)),
        ("attempted".into(), Json::Num(rows.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(rows.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{install_panic_hook, Rec, Sample};

    #[test]
    fn pins_parse_and_cover_every_workload_at_seed_7() {
        for w in &WORKLOADS {
            assert!(
                pin_for(w.name, 7, false).is_some(),
                "{} has no seed-7 pin",
                w.name
            );
            assert!(
                pin_for(w.name, 7, true).is_none(),
                "quick runs are never pinned"
            );
        }
        // Seed 11 is the hold-out: only seed-independent workloads are pinned there.
        assert!(pin_for("lossy_mutex", 11, false).is_none());
        assert_eq!(
            pin_for("bigmesh_32k", 11, false),
            pin_for("bigmesh_32k", 7, false)
        );
    }

    fn names(j: &Json, key: &str) -> Vec<String> {
        j.get(key)
            .and_then(Json::elements)
            .unwrap_or_else(|| panic!("BENCHMARK.json: no {key}"))
            .iter()
            .map(|e| {
                e.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` is the contract the acceptance driver reads; this
    /// keeps it in step with what the binary prints.
    #[test]
    fn benchmark_json_lists_exactly_what_the_driver_mode_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = sesame_telemetry::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let listed = doc.get("workloads").and_then(Json::elements).unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (l, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(l.get("name").and_then(Json::as_str), Some(w.name));
            assert_eq!(l.get("why").and_then(Json::as_str), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }

        for key in ["end_to_end", "per_layer"] {
            for m in doc.get(key).and_then(Json::elements).unwrap() {
                let name = m.get("name").and_then(Json::as_str).unwrap();
                let def =
                    metric::find(name).unwrap_or_else(|| panic!("{name} not in the dictionary"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{name}"
                );
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(def.better.as_str()),
                    "{name}"
                );
                let bound = m.get("bound").and_then(Json::as_f64);
                let contract = CONTRACT_E2E.iter().find(|(n, _)| *n == name);
                assert_eq!(bound, contract.map(|(_, b)| *b), "{name} under {key}");
                // The driver's bound is never tighter than the ledger's.
                assert!(bound.is_none_or(|b| b >= def.bound.unwrap() && b <= 0.25));
            }
        }

        let rows = fold(&Collected::new("w"), None);
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let line = sesame_telemetry::json::parse(&contract_line(&rows, trace)).unwrap();
            let keys: Vec<&str> = line
                .members()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let printed: Vec<String> = line
                .get("metrics")
                .and_then(Json::members)
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(printed, names(&doc, key), "--trace {}", u8::from(trace));
        }
    }

    #[test]
    fn the_driver_reports_medians_over_the_samples() {
        let sample = |rss: f64| {
            let mut s = Sample::dead("w", 1, 1, String::new());
            s.failed = 0;
            s.metrics.insert("peak_rss_mb".into(), rss);
            s
        };
        let c = Collected {
            name: "w".into(),
            untraced: vec![sample(5.0), sample(4.0), sample(8.0)],
            setup_s: vec![0.003, 0.001, 0.002],
            traced: None,
        };
        let j = sesame_telemetry::json::parse(&contract_line(&fold(&c, None), false)).unwrap();
        let metric = |n: &str| {
            j.get("metrics")
                .and_then(|m| m.get(n))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(metric("peak_rss_mb"), Some(5.0));
        assert_eq!(metric("setup_s"), Some(0.002));
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
    }

    /// A library `assert!` inside an op, all the way to what makes `run`
    /// exit nonzero: a counted failure, `fail_share > 0`, `failed() > 0`.
    #[test]
    fn a_planted_failing_op_fails_the_capture() {
        install_panic_hook();
        let mut rec = Rec::new("check_mutex", 7, std::time::Instant::now());
        rec.op(1, "fine", "workloads", || 2 + 2);
        rec.op(1, "planted", "check", || {
            assert_eq!(2 + 2, 5, "planted failure: this op is meant to fail");
        });
        let mut c = Collected::new("check_mutex");
        c.untraced.push(rec.finish());
        let rows = fold(&c, None);
        assert_eq!(rows.median("fail_share"), Some(0.5));
        assert!(rows.failures[0].contains("planted failure"), "{rows:?}");
        let line = sesame_telemetry::json::parse(&contract_line(&rows, false)).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
        let ledger = Ledger {
            seed: 7,
            samples: 1,
            quick: true,
            traced: false,
            nproc: 1,
            workloads: vec![rows],
            derived: Vec::new(),
        };
        assert_eq!(ledger.failed(), 1);
        assert!(ledger.render().contains("FAILED: planted: "));
    }
}

//! `sesame-ledger` — one six-workload, layer-attributed benchmark of the
//! sesame-rs simulator. See `benchmark/README.md`.
//!
//! ```text
//! sesame-ledger run [--seed N] [--samples N] [--quick] [--traced]
//!                   [--out FILE] [--trace-out FILE]
//! sesame-ledger compare <a.json> <b.json>
//! sesame-ledger metrics                       # the dictionary, as Markdown
//! sesame-ledger --workload W --seed N --seconds S --trace 0|1   # contract driver
//! ```

// The repository bans wall-clock reads (clippy.toml) everywhere but the
// benchmark harness, and this is the harness.
#![allow(clippy::disallowed_methods)]

mod child;
mod compare;
mod ledger;
mod metric;
mod probes;
mod prof;
mod run;
mod sample;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use child::ChildSpec;
use ledger::Ledger;
use run::{DriveArgs, RunArgs};

const USAGE: &str = "usage:
  sesame-ledger run [--seed N] [--samples N] [--quick] [--traced] [--out FILE] [--trace-out FILE]
  sesame-ledger compare <a.json> <b.json>
  sesame-ledger metrics
  sesame-ledger --workload W --seed N --seconds S --trace 0|1";

/// `--flag value` pairs and bare `--switch`es, in any order.
struct Flags {
    args: Vec<String>,
}

impl Flags {
    fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(i) = self.args.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 >= self.args.len() {
            return Err(format!("{flag} needs a value"));
        }
        self.args.remove(i);
        Ok(Some(self.args.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag)? {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot read {v:?}")),
            None => Ok(None),
        }
    }

    fn switch(&mut self, flag: &str) -> bool {
        match self.args.iter().position(|a| a == flag) {
            Some(i) => {
                self.args.remove(i);
                true
            }
            None => false,
        }
    }

    fn done(self) -> Result<Vec<String>, String> {
        match self.args.iter().find(|a| a.starts_with("--")) {
            Some(stray) => Err(format!("unknown flag {stray}")),
            None => Ok(self.args),
        }
    }
}

fn read_ledger(path: &str) -> Result<Ledger, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ledger::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(origin: Instant) -> Result<ExitCode, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first() {
        Some(first) if !first.starts_with("--") => args.remove(0),
        Some(_) => "drive".to_string(),
        None => return Err(USAGE.into()),
    };
    let mut flags = Flags { args };
    match command.as_str() {
        "child" => {
            let workload = flags.value("--workload")?.ok_or("child: --workload")?;
            let spec = ChildSpec {
                workload: &workload,
                seed: flags.parsed("--seed")?.ok_or("child: --seed")?,
                quick: flags.switch("--quick"),
                probes: flags.switch("--probes"),
            };
            flags.done()?;
            if !workloads::is_known(spec.workload) {
                return Err(format!("unknown workload {workload}"));
            }
            child::child_main(spec, origin);
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let run_args = RunArgs {
                seed: flags.parsed("--seed")?.unwrap_or(7),
                samples: flags.parsed("--samples")?.unwrap_or(5),
                quick: flags.switch("--quick"),
                traced: flags.switch("--traced"),
                out: flags.value("--out")?.map(Into::into),
                trace_out: flags.value("--trace-out")?.map(Into::into),
            };
            flags.done()?;
            if run_args.samples == 0 && !run_args.traced {
                return Err("--samples 0 measures nothing without --traced".into());
            }
            run::run(&run_args)
        }
        "compare" => {
            let files = flags.done()?;
            let [a, b] = files.as_slice() else {
                return Err(USAGE.into());
            };
            let (table, bad) = compare::compare(&read_ledger(a)?, &read_ledger(b)?);
            print!("{table}");
            Ok(if bad {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        "metrics" => {
            flags.done()?;
            print!("{}", metric::render_markdown());
            Ok(ExitCode::SUCCESS)
        }
        "drive" => {
            let drive_args = DriveArgs {
                workload: flags.value("--workload")?.ok_or(USAGE)?,
                seed: flags.parsed("--seed")?.ok_or(USAGE)?,
                seconds: flags.parsed("--seconds")?.ok_or(USAGE)?,
                trace: match flags.parsed::<u8>("--trace")?.ok_or(USAGE)? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                },
            };
            flags.done()?;
            run::drive(&drive_args)
        }
        other => Err(format!("unknown command {other}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    // Taken first: span times and the child's clock count from here.
    let origin = Instant::now();
    match dispatch(origin) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("sesame-ledger: {msg}");
            ExitCode::from(2)
        }
    }
}

//! Child-process isolation: every (workload, sample) runs in a freshly
//! re-executed copy of the benchmark binary, so `peak_rss_mb` (`VmHWM`)
//! and allocator state belong to that sample alone.
//!
//! Protocol, child to parent on stdout: the line `ready` when set-up is
//! over (the parent stops the `setup_s` clock on it), then one line of
//! JSON, the [`Sample`]. A child that dies without the JSON line has all
//! the ops it owed counted as failed.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use sesame_telemetry::json;

use crate::sample::{install_panic_hook, Rec, Sample};
use crate::{probes, workloads};

/// What the parent asks of one child.
#[derive(Debug, Clone, Copy)]
pub struct ChildSpec<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub quick: bool,
    /// Run the layer probes after the measured phase (traced pass).
    pub probes: bool,
}

/// The child side: runs one sample and prints it. `origin` is the first
/// instant `main` took.
pub fn child_main(spec: ChildSpec<'_>, origin: Instant) {
    install_panic_hook();
    let mut rec = Rec::new(spec.workload, spec.seed, origin);
    workloads::run(spec.workload, spec.seed, spec.quick, &mut rec);
    if spec.probes {
        probes::run(
            &mut rec,
            workloads::shape(spec.workload, spec.quick),
            spec.seed,
        );
    }
    rec.set("peak_rss_mb", vm_hwm_kb().unwrap_or(0) as f64 / 1024.0);
    let sample = rec.finish();
    println!("{}", sample.to_json().render());
}

/// Peak resident set of this process in kB, from `/proc/self/status`.
pub fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// What the parent learns from one child.
pub struct ChildOutcome {
    pub sample: Sample,
    /// Spawn to `ready`, in seconds; `None` if the child never got there.
    pub setup_s: Option<f64>,
}

/// The command line of one child of `exe`.
fn command(exe: &Path, spec: ChildSpec<'_>) -> Command {
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", spec.workload, "--seed"])
        .arg(spec.seed.to_string());
    for (flag, on) in [("--quick", spec.quick), ("--probes", spec.probes)] {
        if on {
            cmd.arg(flag);
        }
    }
    cmd.stdin(Stdio::null()).stdout(Stdio::piped());
    cmd
}

/// One more `setup_s` reading: starts a child, stops the clock on its
/// `ready` line and ends it there. `None` if it never got that far.
pub fn setup_reading(exe: &Path, spec: ChildSpec<'_>) -> Option<f64> {
    let mut cmd = command(exe, spec);
    let started = Instant::now();
    let mut child = cmd.spawn().ok()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let ready = BufReader::new(stdout)
        .lines()
        .map_while(Result::ok)
        .any(|line| line == "ready");
    let setup_s = started.elapsed().as_secs_f64();
    let _ = child.kill();
    let _ = child.wait();
    ready.then_some(setup_s)
}

/// The parent side: runs one sample in a fresh child of `exe` and waits
/// for it. A child that dies, or ends without a sample, owes every op of
/// the sample as failed.
pub fn spawn(exe: &Path, spec: ChildSpec<'_>) -> ChildOutcome {
    let dead = |why: String| {
        let owed = workloads::expected_ops(spec.workload, spec.quick);
        Sample::dead(spec.workload, spec.seed, owed, why)
    };
    let mut cmd = command(exe, spec);
    let started = Instant::now();
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => {
            return ChildOutcome {
                sample: dead(format!("cannot start {}: {e}", exe.display())),
                setup_s: None,
            }
        }
    };
    let mut setup_s = None;
    let mut sample = Err("child ended without a sample".to_string());
    let stdout = child.stdout.take().expect("stdout was piped");
    for line in BufReader::new(stdout).lines() {
        let Ok(line) = line else { break };
        if line == "ready" {
            setup_s.get_or_insert(started.elapsed().as_secs_f64());
        } else if line.starts_with('{') {
            sample = json::parse(&line)
                .and_then(|j| Sample::from_json(&j))
                .map_err(|e| format!("unreadable sample: {e}"));
        }
    }
    let sample = match child.wait() {
        Ok(status) if status.success() => sample,
        Ok(status) => Err(format!("child died: {status}")),
        Err(e) => Err(format!("cannot wait for child: {e}")),
    };
    ChildOutcome {
        sample: sample.unwrap_or_else(dead),
        setup_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_from_proc_status() {
        let status =
            "Name:\tsesame-ledger\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(12345));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert!(vm_hwm_kb().unwrap() > 0, "this process has a resident set");
    }

    #[test]
    fn a_child_that_cannot_start_owes_all_its_ops() {
        let out = spawn(
            Path::new("/nonexistent/sesame-ledger"),
            ChildSpec {
                workload: "check_mutex",
                seed: 1,
                quick: true,
                probes: false,
            },
        );
        assert_eq!(out.sample.attempted, out.sample.failed);
        assert_eq!(
            out.sample.attempted,
            workloads::expected_ops("check_mutex", true)
        );
        assert!(out.setup_s.is_none());
    }
}

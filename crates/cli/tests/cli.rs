//! End-to-end tests of the `sesame` binary: exit codes, metric exports,
//! and the report round trip.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sesame(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sesame"))
        .args(args)
        .output()
        .expect("spawn sesame")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sesame-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = sesame(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("--metrics-out"));
    // Every command it lists prints its own block on `--help`.
    let listed = text.lines().skip_while(|l| *l != "COMMANDS:").skip(1);
    let commands: Vec<&str> = listed
        .take_while(|l| !l.is_empty())
        .filter_map(|l| l.strip_prefix("    ")?.split(' ').next())
        .filter(|name| !name.is_empty())
        .collect();
    assert_eq!(commands.len(), 11, "{text}");
    for cmd in commands {
        let out = sesame(&[cmd, "--help"]);
        let block = String::from_utf8_lossy(&out.stdout);
        let head = format!("    {cmd} ");
        assert!(out.status.success() && block.starts_with(&head), "{block}");
    }
}

#[test]
fn unknown_command_fails() {
    let out = sesame(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn verify_clean_scenario_exits_zero() {
    let out = sesame(&["verify", "--scenario", "three-cpu"]);
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 violations"));
}

#[test]
fn verify_planted_bad_exits_nonzero_with_diagnostic() {
    let out = sesame(&["verify", "--scenario", "planted-bad"]);
    assert!(!out.status.success(), "planted violation must fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL planted-bad/double-grant"));
    assert!(stdout.contains("mutual-exclusion"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("protocol violations detected"));
}

#[test]
fn run_exports_validate_and_report_round_trips() {
    let metrics = tmp("m.json");
    let csv = tmp("m.csv");
    let timeline = tmp("t.trace.json");
    let out = sesame(&[
        "run",
        "--scenario",
        "contention",
        "--rounds",
        "10",
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--csv-out",
        csv.to_str().unwrap(),
        "--timeline-out",
        timeline.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("optimism:"));

    // The snapshot parses back under the schema validator.
    let text = std::fs::read_to_string(&metrics).unwrap();
    let snap = sesame_telemetry::Snapshot::from_json(&text).expect("valid snapshot");
    assert_eq!(snap.scenario, "contention");
    assert_eq!(snap.counter("run/sections"), 40);

    // CSV has the header and one row per exported field.
    let csv_text = std::fs::read_to_string(&csv).unwrap();
    assert!(csv_text.starts_with("key,kind,field,value\n"));
    assert!(csv_text.lines().count() > 10);

    // The Chrome trace is valid JSON with lock sections, optimistic
    // sections, and rollback instants.
    let trace = std::fs::read_to_string(&timeline).unwrap();
    sesame_telemetry::json::parse(&trace).expect("valid trace JSON");
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("hold v0"));
    assert!(trace.contains("optimistic v0"));
    assert!(trace.contains("rollback v0") || snap.sum_counters("node/", "/opt/rollbacks") == 0);

    // `report --metrics-in` renders the same snapshot.
    let rep = sesame(&["report", "--metrics-in", metrics.to_str().unwrap()]);
    assert!(rep.status.success());
    let rep_text = String::from_utf8_lossy(&rep.stdout);
    assert!(rep_text.contains("scenario: contention"));
    assert!(rep_text.contains("optimism:"));

    for p in [metrics, csv, timeline] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn run_exports_causal_dag_and_flow_events() {
    let causes = tmp("c.json");
    let dot = tmp("c.dot");
    let timeline = tmp("c.trace.json");
    let out = sesame(&[
        "run",
        "--rounds",
        "10",
        "--causes-out",
        causes.to_str().unwrap(),
        "--timeline-out",
        timeline.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&causes).unwrap();
    assert!(json.contains("\"schema\":\"sesame-causes/v1\""));
    assert!(json.contains("\"op\":\"mcast\""));
    assert!(json.contains("\"op\":\"rollback\""));
    assert!(json.contains("\"conflict\":{"));

    // A .dot path selects the Graphviz export.
    let out = sesame(&[
        "run",
        "--rounds",
        "10",
        "--causes-out",
        dot.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let dot_text = std::fs::read_to_string(&dot).unwrap();
    assert!(dot_text.starts_with("digraph causes {"));
    assert!(dot_text.contains("color=red"), "rollbacks highlighted");

    // The Chrome trace carries causal flow arrows as s/f pairs.
    let trace = std::fs::read_to_string(&timeline).unwrap();
    assert!(trace.contains("\"ph\":\"s\""), "flow start events");
    assert!(
        trace.contains("\"ph\":\"f\",\"bp\":\"e\""),
        "flow finish events"
    );

    for p in [causes, dot, timeline] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn causal_exports_are_identical_serial_and_concurrent() {
    let serial = tmp("causes-serial.json");
    let jobs = tmp("causes-jobs.json");
    let out = sesame(&[
        "run",
        "--rounds",
        "8",
        "--causes-out",
        serial.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    // --jobs N runs N redundant copies concurrently, asserts all exports
    // (snapshot, timeline, causal DAG) match internally, then exports.
    let out = sesame(&[
        "run",
        "--rounds",
        "8",
        "--jobs",
        "3",
        "--causes-out",
        jobs.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("byte-identical"));
    assert_eq!(
        std::fs::read(&serial).unwrap(),
        std::fs::read(&jobs).unwrap(),
        "causal DAG must not depend on host scheduling"
    );
    for p in [serial, jobs] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn explain_walks_every_rollback_back_to_the_remote_write() {
    let out = sesame(&["explain", "--rounds", "10"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let rollback_headers = text.matches("rollback #").count();
    assert!(
        rollback_headers > 0,
        "contention run must roll back:\n{text}"
    );
    // Every rollback chain crosses the network: remote write, multicast
    // fan-out, interrupting apply, then the rollback with its blame.
    assert_eq!(
        text.matches("invalidated by node").count(),
        rollback_headers
    );
    assert!(
        text.matches(" mcast ").count() >= rollback_headers,
        "{text}"
    );
    assert!(
        text.matches(" apply ").count() >= rollback_headers,
        "{text}"
    );
    assert!(
        text.matches("conflict: v").count() >= rollback_headers,
        "{text}"
    );
    assert!(text.contains("critical path:"), "{text}");
}

#[test]
fn explain_single_event_and_unknown_id() {
    let out = sesame(&["explain", "--rounds", "5", "--event", "1"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("causal chain to #1:"));

    let out = sesame(&["explain", "--rounds", "5", "--event", "999999999"]);
    assert!(!out.status.success(), "unknown event ids must exit nonzero");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown event id"));
}

#[test]
fn explain_event_reaches_ids_the_export_leaves_out() {
    // #10 is an apply nothing descends from: neither a rollback nor the
    // critical path needs it or the multicast behind it, so the export
    // drops both …
    let causes = tmp("explained.json");
    let out = sesame(&["run", "--causes-out", causes.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(
            "wrote causal DAG (228 of 2921 recorded events: the ancestors of 6 rollbacks"
        ),
        "{stdout}"
    );
    let json = std::fs::read_to_string(&causes).unwrap();
    assert_eq!(json.matches("\n  {\"id\":").count(), 228);
    assert!(json.contains("{\"id\":1,"));
    assert!(!json.contains("{\"id\":6,") && !json.contains("{\"id\":10,"));
    let _ = std::fs::remove_file(causes);

    // … and asking for it still prints the chain the full DAG gave.
    let out = sesame(&["explain", "--event", "10"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "causal chain to #10:\n  \
         #1 write     node 3 @ 12323ns  (acc-write)\n  \
         └─ #2 send      node 3 @ 12323ns  (pkt-send)\n  \
         └─ #4 grant     node 0 @ 12651ns  (root-grant)\n  \
         └─ #5 seq       node 0 @ 12651ns  (root-seq)\n  \
         └─ #6 mcast     node 0 @ 12651ns  (pkt-mcast)\n  \
         └─ #10 apply     node 3 @ 12979ns  (gwc-apply)\n"
    );
    // The summary still counts what the run recorded, not what it kept.
    let out = sesame(&["explain"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("2921 causal events recorded over 1593505ns\n"));
}

#[test]
fn report_rejects_malformed_snapshots() {
    let path = tmp("bad.json");
    std::fs::write(&path, "{\"schema\":\"wrong/v0\",\"metrics\":{}}").unwrap();
    let out = sesame(&["report", "--metrics-in", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let _ = std::fs::remove_file(path);
}

#[test]
fn same_seed_runs_export_identical_bytes() {
    let a = tmp("det-a.json");
    let b = tmp("det-b.json");
    for p in [&a, &b] {
        let out = sesame(&[
            "run",
            "--scenario",
            "contention",
            "--rounds",
            "5",
            "--seed",
            "42",
            "--metrics-out",
            p.to_str().unwrap(),
        ]);
        assert!(out.status.success());
    }
    let bytes_a = std::fs::read(&a).unwrap();
    let bytes_b = std::fs::read(&b).unwrap();
    assert_eq!(
        bytes_a, bytes_b,
        "same-seed snapshots must be byte-identical"
    );
    for p in [a, b] {
        let _ = std::fs::remove_file(p);
    }
}

/// Splits a command line on spaces and runs it.
fn sesame_line(line: &str) -> Output {
    sesame(&line.split(' ').collect::<Vec<_>>())
}

#[test]
fn bad_parameters_exit_one_with_an_error_line_and_no_panic() {
    // Ten lines that used to end in a panic and a backtrace (exit 101),
    // four that printed NaN ratios or a vacuous "complete" with exit 0,
    // two that panicked in the figure binaries' own parsers, and four
    // replay files: a hostile `alpha` or `threshold` panicked in the build,
    // zero contenders or rounds "replayed 0 choices ... no violations". And
    // a 1 ns series window, which wrote a 249 MB file and 1.6 M table rows.
    let replays: Vec<(PathBuf, String)> = ["alpha=7", "threshold=2", "contenders=0", "rounds=0"]
        .iter()
        .map(|bad| {
            let path = tmp(&format!("{bad}.replay"));
            let file = format!("sesame-check counterexample v1\n{bad}\nchoices=\n");
            std::fs::write(&path, file).expect("write replay file");
            let line = format!("check --replay {}", path.display());
            (path, line)
        })
        .collect();
    let series = tmp("narrow-window.json");
    let narrow = format!(
        "run --scenario contention --window 1 --series-out {}",
        series.display()
    );
    let lines = [
        "bigmesh --nodes 1",
        "bigmesh --nodes 0",
        "bigmesh --nodes 64 --laps 0",
        "bigmesh --nodes 64 --shared-words 0",
        "run --scenario task-queue --nodes 1",
        "fig2 --sizes 1",
        "fig2 --sizes 3 --tasks 0",
        "fig2 --sizes 3 --tasks 16 --ratio -1",
        "fig8 --sizes 0",
        "fig1 --words 0",
        "contention --contenders 0",
        "contention --rounds 0",
        "fig8 --local-us 0",
        "check --cpus 0",
        "fig2 --jobs x",
        "run --scenario pipeline --window 0",
        "bigmesh --rows 4",
        "bigmesh --nodes 400 --event-limit 1000",
        "report --scenario contention --window 1",
        &narrow,
    ];
    for line in lines
        .into_iter()
        .chain(replays.iter().map(|r| r.1.as_str()))
    {
        let out = sesame_line(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`{line}`: {stderr}");
        assert!(stderr.starts_with("error: "), "`{line}`: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "`{line}`: {stderr}");
        assert!(!stderr.contains("panicked"), "`{line}`: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("NaN"), "`{line}`: {stdout}");
    }
    for (path, _) in &replays {
        let _ = std::fs::remove_file(path);
    }
    assert!(!series.exists(), "a refused series is not written");
    // A parameter error names the scenario, the field and the bound.
    let out = sesame_line("bigmesh --nodes 1");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: bigmesh: nodes must be at least 2: need at least one two-node row\n"
    );
}

#[test]
fn a_seq_gap_mutant_on_fifo_links_is_refused_before_any_search() {
    // FIFO links hand every member the root's writes in sequence, so the
    // planted gap cannot arise: the search used to run to the end and call
    // the bug "violation-free".
    for line in [
        "check --mutation seq-gap",
        "check --mutation seq-gap --links fifo",
    ] {
        let out = sesame_line(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`{line}`: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "`{line}`: {stderr}");
        assert!(stderr.starts_with("error: "), "`{line}`: {stderr}");
        assert!(stderr.contains("--links relax-roots"), "`{line}`: {stderr}");
        assert!(out.stdout.is_empty(), "`{line}` explored before refusing");
    }
}

#[test]
fn an_insharing_mutant_the_canonical_workload_cannot_reach_is_refused() {
    // No canonical schedule delivers remote data into an optimistic
    // section that rolls back, so a search would call the bug
    // "violation-free".
    for line in [
        "check --mutation no-insharing-suspension",
        "check --mutation no-insharing-suspension --rounds 2 --links relax",
    ] {
        let out = sesame_line(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`{line}`: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "`{line}`: {stderr}");
        assert!(stderr.starts_with("error: "), "`{line}`: {stderr}");
        assert!(stderr.contains("out of reach"), "`{line}`: {stderr}");
        assert!(out.stdout.is_empty(), "`{line}` explored before refusing");
    }
}

#[test]
fn flags_the_chosen_scenario_does_not_read_are_errors() {
    for (line, complaint) in [
        (
            "run --scenario task-queue --contenders 9 --rounds 3",
            "unknown flag --contenders for scenario task-queue",
        ),
        (
            "explain --scenario task-queue --contenders 12",
            "unknown flag --contenders for scenario task-queue",
        ),
        (
            "run --scenario pipeline --seed 3",
            "unknown flag --seed for scenario pipeline",
        ),
        (
            "verify --scenario bigmesh --visits 3",
            "unknown flag --visits for scenario bigmesh",
        ),
        ("report --scenario nope", "unknown --scenario \"nope\""),
        // A flag error prints the command's block, not the whole usage.
        (
            "run --bogus 1",
            "unknown flag --bogus for scenario contention\n\n    run ",
        ),
    ] {
        let out = sesame_line(line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`{line}`: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {complaint}")),
            "`{line}`: {stderr}"
        );
        assert_eq!(stderr.matches("error:").count(), 1, "`{line}`: {stderr}");
        assert!(!stderr.contains("COMMANDS:"), "`{line}`: {stderr}");
    }
}

#[test]
fn every_scenario_runs_reports_explains_and_verifies() {
    // The third column: what `verify` runs the scenario under, one `ok`
    // line each — every model or method the paper compares on it.
    for (name, size, verified) in [
        ("three-cpu", "--words 8", "gwc entry release"),
        ("contention", "--rounds 5", "optimistic regular"),
        ("task-queue", "--tasks 16", "gwc entry"),
        (
            "pipeline",
            "--nodes 4 --visits 32",
            "optimistic regular entry",
        ),
        ("bigmesh", "--nodes 48", "gwc"),
        ("canonical", "--cpus 2 --rounds 2", "gwc"),
    ] {
        for cmd in ["run", "report", "explain", "verify"] {
            let out = sesame_line(&format!("{cmd} --scenario {name} {size}"));
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "`{cmd} --scenario {name}`: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let says = match cmd {
                "verify" => format!("ok   {name}/"),
                "explain" => "causal events recorded over".to_string(),
                _ => format!("scenario: {name} "),
            };
            assert!(
                stdout.contains(&says),
                "`{cmd} --scenario {name}`: {stdout}"
            );
            if cmd == "verify" {
                let ok: Vec<&str> = stdout
                    .lines()
                    .filter_map(|l| l.strip_prefix(says.as_str())?.split(':').next())
                    .collect();
                let want: Vec<&str> = verified.split(' ').collect();
                assert_eq!(ok, want, "`verify --scenario {name}`: {stdout}");
            }
        }
    }
}

#[test]
fn bigmesh_under_the_collector_exports_the_same_bytes_at_any_jobs() {
    let (serial, jobs) = (tmp("mesh-serial.json"), tmp("mesh-jobs.json"));
    for (path, n) in [(&serial, "1"), (&jobs, "3")] {
        let out = sesame(&[
            "run",
            "--scenario",
            "bigmesh",
            "--nodes",
            "100",
            "--jobs",
            n,
            "--series-out",
            path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let series = std::fs::read_to_string(&serial).unwrap();
    assert!(series.contains("\"schema\":\"sesame-series/v1\""));
    assert_eq!(series, std::fs::read_to_string(&jobs).unwrap());
    for p in [serial, jobs] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn figure_commands_print_what_the_repro_binaries_printed() {
    let text = |line: &str| {
        let out = sesame_line(line);
        assert!(out.status.success(), "`{line}`");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let fig1 = text("fig1");
    assert!(fig1.starts_with("# Figure 1 — Locking Comparison"));
    assert!(fig1.contains("# closed forms: gwc 5m+3u = 16.640us"));
    assert!(fig1.contains("# entry/gwc = 1.385, release/gwc = 1.087"));
    let fig2 = text("fig2 --sizes 3,5 --tasks 32");
    assert!(fig2.starts_with("# Figure 2 — Speedup for Task Management"));
    assert!(fig2.contains("# GWC peak speedup:"));
    let fig8 = text("fig8 --sizes 2,4 --visits 32");
    assert!(fig8.starts_with("# Figure 8 — Mutex Methods, Network Power in CPUs"));
    assert!(fig8.contains("# headline ratios at 2 CPUs (paper: 1.1x, 2.1x, 1.9x):"));
    assert!(fig8.contains("# optimism telemetry (optimistic GWC line)"));
    assert!(fig8.contains("     4         32     32           0     100.0%"));
    // CSV mode is the machine-readable contract: no headers, one ratio line.
    let csv = text("fig8 --sizes 2,4 --visits 32 --format csv");
    assert!(csv.starts_with("# no network delay bound\n"), "{csv}");
    assert!(csv.contains("\n# at 2 CPUs: opt/reg "), "{csv}");
    assert!(!csv.contains("optimism telemetry"));
}

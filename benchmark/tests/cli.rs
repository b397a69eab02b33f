//! Drives the built binary: failed ops must surface as `fail_share > 0`
//! and a nonzero exit; a clean quick run must exit zero and write a ledger
//! `compare` accepts, until a digest in it changes.

use std::path::PathBuf;
use std::process::Command;

fn ledger() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sesame-ledger"))
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Failed ops at the process level. With room for one more open file the
/// binary loads but cannot make a child's pipes, so every child fails to
/// start and owes all its ops. (The unit tests plant a failing `assert!`
/// inside one op and follow it to the same `failed` count.)
#[test]
fn failed_ops_fail_the_run() {
    let out = Command::new("sh")
        .args(["-c", "ulimit -n 4; exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_sesame-ledger"))
        .args(["run", "--quick", "--samples", "1"])
        .output()
        .expect("sh runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "a failed check must exit nonzero"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAILED: cannot start "), "{stdout}");
    assert_eq!(stdout.matches(" failed 0\n").count(), 0, "{stdout}");
    let fail_shares: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("fail_share"))
        .collect();
    assert_eq!(fail_shares.len(), 6, "{stdout}");
    for line in fail_shares {
        let median = line.split_whitespace().nth(2);
        assert_eq!(median, Some("1"), "{line}");
    }
}

#[test]
fn a_clean_quick_run_exits_zero_and_compares_with_itself() {
    let out_file = tmp("quick.json");
    let out = ledger()
        .args(["run", "--quick", "--samples", "2", "--out"])
        .arg(&out_file)
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for needle in [
        "== bigmesh_32k",
        "== paper_figs_par",
        "== check_mutex",
        "wall_s",
        "check.leaves",
        "net.losses",
        "sweep.speedup",
    ] {
        assert!(stdout.contains(needle), "missing {needle}:\n{stdout}");
    }
    let cmp = ledger()
        .arg("compare")
        .arg(&out_file)
        .arg(&out_file)
        .output()
        .expect("binary runs");
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{table}");
    assert!(!table.contains("regressed"), "{table}");

    // The same capture with one digest changed no longer compares clean.
    let text = std::fs::read_to_string(&out_file).unwrap();
    let at = text.find("\"digest\":\"0x").expect("a digest") + "\"digest\":\"0x".len();
    let flipped = if &text[at..at + 1] == "0" { "1" } else { "0" };
    let changed = tmp("quick-changed.json");
    std::fs::write(&changed, [&text[..at], flipped, &text[at + 1..]].concat()).unwrap();
    let cmp = ledger()
        .arg("compare")
        .arg(&out_file)
        .arg(&changed)
        .output()
        .expect("binary runs");
    assert_eq!(cmp.status.code(), Some(1));
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(
        table.contains("bigmesh_32k          digest 0x") && table.contains(": regressed"),
        "{table}"
    );
}

#[test]
fn bad_usage_exits_two_without_a_result() {
    for args in [
        &[
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["run", "--bogus"][..],
        &["compare", "only-one.json"][..],
    ] {
        let out = ledger().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

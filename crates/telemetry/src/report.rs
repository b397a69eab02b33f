//! Human-readable per-node / per-lock summary of a [`Snapshot`] — the
//! output of `sesame report`.

use std::collections::BTreeSet;

use crate::snapshot::{Snapshot, SnapshotValue};

/// Renders the snapshot as a plain-text report: a run header, a per-node /
/// per-lock table (optimism attempts/wins/rollbacks, wait/hold means, and
/// wait-latency percentiles), the rollback-attribution table (which shared
/// variables and remote writers caused the rollbacks), and the global
/// counters.
pub fn render_report(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "scenario: {}   seed: {}   simulated end: {} ns\n",
        snap.scenario, snap.seed, snap.end_ns
    ));

    // Collect the (node, lock) pairs that have any per-lock metric.
    let mut pairs: BTreeSet<(u64, u64)> = BTreeSet::new();
    for key in snap.metrics.keys() {
        if let Some((node, lock)) = parse_node_lock(key) {
            pairs.insert((node, lock));
        }
    }
    if !pairs.is_empty() {
        out.push_str(&format!(
            "\n{:>5} {:>5} {:>9} {:>9} {:>6} {:>6} {:>10} {:>13} {:>13} {:>10} {:>10} {:>10}\n",
            "node",
            "lock",
            "opt-try",
            "reg-try",
            "wins",
            "rolls",
            "complete",
            "wait-mean",
            "hold-mean",
            "wait-p50",
            "wait-p90",
            "wait-p99"
        ));
        for (node, lock) in pairs {
            let k = |leaf: &str| format!("node/{node}/lock/{lock}/{leaf}");
            let (p50, p90, p99) = hist_quantiles(snap, &k("wait"));
            out.push_str(&format!(
                "{:>5} {:>5} {:>9} {:>9} {:>6} {:>6} {:>10} {:>13} {:>13} {:>10} {:>10} {:>10}\n",
                node,
                lock,
                snap.counter(&k("opt/attempts")),
                snap.counter(&k("reg/attempts")),
                snap.counter(&k("opt/wins")),
                snap.counter(&k("opt/rollbacks")),
                snap.counter(&k("completions")),
                hist_mean(snap, &k("wait")),
                hist_mean(snap, &k("hold")),
                p50,
                p90,
                p99,
            ));
        }
    }

    // Rollback attribution: which (variable, remote writer) pairs forced
    // rollbacks, heaviest first.
    let mut blame: Vec<(u64, u64, u64)> = Vec::new();
    for (key, value) in &snap.metrics {
        if let (Some((var, writer)), SnapshotValue::Counter(n)) = (parse_blame(key), value) {
            blame.push((*n, var, writer));
        }
    }
    if !blame.is_empty() {
        blame.sort_by(|a, b| (b.0, a.1, a.2).cmp(&(a.0, b.1, b.2)));
        out.push_str("\nrollback attribution (conflicting writes, heaviest first):\n");
        out.push_str(&format!(
            "{:>5} {:>7} {:>10}\n",
            "var", "writer", "rollbacks"
        ));
        for (count, var, writer) in blame.iter().take(10) {
            out.push_str(&format!("{var:>5} {writer:>7} {count:>10}\n"));
        }
    }

    let opt_attempts = snap.sum_counters("node/", "/opt/attempts");
    if opt_attempts > 0 {
        let wins = snap.sum_counters("node/", "/opt/wins");
        let rolls = snap.sum_counters("node/", "/opt/rollbacks");
        out.push_str(&format!(
            "\noptimism: {opt_attempts} attempts, {wins} wins ({:.1}% hit rate), {rolls} rollbacks\n",
            100.0 * wins as f64 / opt_attempts as f64
        ));
    }

    // Global (non-node, non-group) scalars.
    let mut wrote_header = false;
    for (key, value) in &snap.metrics {
        if key.starts_with("node/") || key.starts_with("group/") || key.starts_with("blame/") {
            continue;
        }
        if !wrote_header {
            out.push_str("\nglobals:\n");
            wrote_header = true;
        }
        let rendered = match value {
            SnapshotValue::Counter(v) => v.to_string(),
            SnapshotValue::Gauge(v) => format!("{v:.4}"),
            SnapshotValue::Histogram { count, mean_ns, .. } => {
                format!("n={count} mean={mean_ns}ns")
            }
            SnapshotValue::TimeWeighted { average, .. } => format!("avg={average:.3}"),
        };
        out.push_str(&format!("  {key:<32} {rendered}\n"));
    }
    out
}

/// Extracts `(node, lock)` from a `node/<n>/lock/<l>/...` key.
fn parse_node_lock(key: &str) -> Option<(u64, u64)> {
    let rest = key.strip_prefix("node/")?;
    let (node, rest) = rest.split_once('/')?;
    let rest = rest.strip_prefix("lock/")?;
    let (lock, _) = rest.split_once('/')?;
    Some((node.parse().ok()?, lock.parse().ok()?))
}

/// Extracts `(var, writer)` from a `blame/var/<v>/writer/<w>` key.
fn parse_blame(key: &str) -> Option<(u64, u64)> {
    let rest = key.strip_prefix("blame/var/")?;
    let (var, rest) = rest.split_once('/')?;
    let writer = rest.strip_prefix("writer/")?;
    Some((var.parse().ok()?, writer.parse().ok()?))
}

/// The mean of the histogram at `key` as `"<n>ns"`, or `"-"` when absent.
fn hist_mean(snap: &Snapshot, key: &str) -> String {
    match snap.metrics.get(key) {
        Some(SnapshotValue::Histogram { mean_ns, .. }) => format!("{mean_ns}ns"),
        _ => "-".to_string(),
    }
}

/// The p50/p90/p99 of the histogram at `key` as `"<n>ns"` triples, or
/// `"-"` when absent.
fn hist_quantiles(snap: &Snapshot, key: &str) -> (String, String, String) {
    match snap.metrics.get(key) {
        Some(SnapshotValue::Histogram {
            p50_ns,
            p90_ns,
            p99_ns,
            ..
        }) => (
            format!("{p50_ns}ns"),
            format!("{p90_ns}ns"),
            format!("{p99_ns}ns"),
        ),
        _ => ("-".to_string(), "-".to_string(), "-".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesame_sim::{Histogram, SimDur};

    /// A snapshot of `metrics` from a run of `scenario` that ended at
    /// `end_ns`.
    fn snapshot(
        scenario: &str,
        seed: u64,
        end_ns: u64,
        metrics: impl IntoIterator<Item = (String, SnapshotValue)>,
    ) -> Snapshot {
        Snapshot {
            scenario: scenario.to_string(),
            seed,
            end_ns,
            metrics: metrics.into_iter().collect(),
        }
    }

    fn counter(key: &str, value: u64) -> (String, SnapshotValue) {
        (key.to_string(), SnapshotValue::Counter(value))
    }

    /// The histogram of `samples_ns` at `key`.
    fn histogram(key: &str, samples_ns: &[u64]) -> (String, SnapshotValue) {
        let mut h = Histogram::new();
        for &ns in samples_ns {
            h.record(SimDur::from_nanos(ns));
        }
        (key.to_string(), SnapshotValue::histogram(&h))
    }

    #[test]
    fn report_has_table_rows_and_totals() {
        let metrics = [
            counter("node/0/lock/0/opt/attempts", 4),
            counter("node/0/lock/0/opt/wins", 3),
            counter("node/0/lock/0/opt/rollbacks", 1),
            counter("node/0/lock/0/completions", 4),
            counter("node/3/lock/0/reg/attempts", 2),
            histogram("node/0/lock/0/wait", &[200]),
            counter("net/packets", 17),
        ];
        let snap = snapshot("contention", 9, 5000, metrics);
        let report = render_report(&snap);
        assert!(report.contains("scenario: contention"));
        assert!(report.contains("200ns"), "{report}");
        assert!(report.contains("75.0% hit rate"), "{report}");
        assert!(report.contains("net/packets"), "{report}");
        // Two table rows: (0,0) and (3,0).
        assert!(report.contains("\n    0     0"), "{report}");
        assert!(report.contains("\n    3     0"), "{report}");
    }

    #[test]
    fn percentile_columns_and_blame_table() {
        let metrics = [
            histogram("node/1/lock/0/wait", &[100, 200, 400, 800]),
            counter("blame/var/0/writer/2", 5),
            counter("blame/var/1/writer/0", 2),
        ];
        let snap = snapshot("contention", 9, 5000, metrics);
        let report = render_report(&snap);
        assert!(report.contains("wait-p50"), "{report}");
        assert!(report.contains("wait-p99"), "{report}");
        assert!(report.contains("rollback attribution"), "{report}");
        // Heaviest blame row first; blame keys stay out of the globals.
        let heavy = report.find("    0       2          5").expect("blame row");
        let light = report.find("    1       0          2").expect("blame row");
        assert!(heavy < light, "{report}");
        assert!(!report.contains("blame/var"), "{report}");
    }

    #[test]
    fn node_lock_key_parsing() {
        assert_eq!(parse_node_lock("node/3/lock/0/wait"), Some((3, 0)));
        assert_eq!(parse_node_lock("node/3/net/packets"), None);
        assert_eq!(parse_node_lock("gwc/grants"), None);
    }

    #[test]
    fn empty_snapshot_renders_only_the_header() {
        let snap = snapshot("contention", 9, 0, []);
        let report = render_report(&snap);
        assert!(report.starts_with("scenario: contention"), "{report}");
        assert!(!report.contains("wait-p50"), "{report}");
        assert!(!report.contains("rollback attribution"), "{report}");
        assert!(!report.contains("optimism:"), "{report}");
        assert!(!report.contains("globals:"), "{report}");
        assert_eq!(report.lines().count(), 1, "{report}");
    }

    #[test]
    fn zero_optimistic_attempts_suppress_the_optimism_line() {
        // A purely regular-locking run: the per-lock table renders, but
        // there is no optimism summary (it would divide by zero) and no
        // attribution table (nothing rolled back).
        let metrics = [
            counter("node/0/lock/0/reg/attempts", 6),
            counter("node/0/lock/0/completions", 6),
        ];
        let snap = snapshot("three-cpu", 1, 100, metrics);
        let report = render_report(&snap);
        assert!(report.contains("reg-try"), "{report}");
        assert!(!report.contains("optimism:"), "{report}");
        assert!(!report.contains("rollback attribution"), "{report}");
    }

    #[test]
    fn blame_table_truncates_to_the_ten_heaviest_rows() {
        let blame = (0..14u64).map(|var| counter(&format!("blame/var/{var}/writer/1"), 100 - var));
        let snap = snapshot("contention", 9, 100, blame);
        let report = render_report(&snap);
        let start = report.find("rollback attribution").expect("attribution");
        // Title + column header, then exactly the 10 heaviest data rows;
        // vars 10..13 (counts 90..87) are cut.
        let rows: Vec<&str> = report[start..]
            .lines()
            .skip(2)
            .take_while(|l| !l.trim().is_empty())
            .collect();
        assert_eq!(rows.len(), 10, "{report}");
        assert!(report.contains(" 100\n"), "{report}");
        assert!(!report.contains(" 90\n"), "{report}");
    }
}

//! `compare <a.json> <b.json>`: for every (end-to-end metric, workload),
//! both medians and quartiles, the ratio with its base, and a verdict.
//!
//! * exact metrics (simulated values and counts) compare with `==`;
//! * a host metric is `regressed` when b's median is worse than a's by
//!   more than the metric's bound; `improved` when b wins at least nine
//!   tenths of all (a, b) pairs of runs and the medians differ by more
//!   than both captures' interquartile distance; `unchanged` otherwise;
//! * it is `unresolved` when either capture's interquartile distance is
//!   wider than the bound (as a share of the median; for `setup_s` also
//!   wider than its 5 ms floor) and the two sets of runs are not strictly
//!   separated — raise `--samples` and capture again, never the bound;
//! * a workload whose `digest` differs between the captures has
//!   `regressed`, whatever its metrics say: the digest is the only guard
//!   of the simulated outputs no exact metric covers.

use crate::ledger::{Ledger, Row};
use crate::metric::{self, Better, MetricDef, SETUP_FLOOR_S};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges metric `def`, with regression bound `bound`, from capture `a`
/// (the base) to `b`.
pub fn judge(def: &MetricDef, bound: f64, a: &Row, b: &Row) -> Verdict {
    let (ma, mb) = (a.summary.median, b.summary.median);
    if def.domain.exact() {
        return if a.values.iter().chain(&b.values).all(|v| *v == ma) {
            Verdict::Unchanged
        } else {
            Verdict::Regressed
        };
    }
    let floor = if def.name == "setup_s" {
        SETUP_FLOOR_S
    } else {
        0.0
    };
    // Positive = b is worse.
    let worse_by = match def.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let b_wins = |y: f64, x: f64| match def.better {
        Better::Lower => y < x,
        Better::Higher => y > x,
    };
    let pairs = (a.values.len() * b.values.len()).max(1) as f64;
    let count = |f: &dyn Fn(f64, f64) -> bool| {
        b.values
            .iter()
            .map(|y| a.values.iter().filter(|x| f(*y, **x)).count())
            .sum::<usize>() as f64
            / pairs
    };
    let (b_win_share, a_win_share) = (count(&b_wins), count(&|y, x| b_wins(x, y)));
    let separated = b_win_share == 1.0 || a_win_share == 1.0;
    let iqr = a.summary.iqr().max(b.summary.iqr());
    if iqr > (bound * ma.abs().min(mb.abs())).max(floor) && !separated {
        return Verdict::Unresolved;
    }
    if worse_by > (bound * ma.abs()).max(floor) {
        Verdict::Regressed
    } else if b_win_share >= 0.9 && -worse_by > iqr.max(floor) {
        // The guide's rule for a gain: b wins nine tenths of the pairs and
        // the medians differ by more than the runs' own spread.
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The comparison table and whether the exit code must be nonzero
/// (a `regressed` verdict, a changed digest or a higher `fail_share`).
pub fn compare(a: &Ledger, b: &Ledger) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut bad = false;
    let _ = writeln!(
        out,
        "base a: seed {} samples {} nproc {}   b: seed {} samples {} nproc {}",
        a.seed, a.samples, a.nproc, b.seed, b.samples, b.nproc
    );
    if a.quick || b.quick {
        let _ = writeln!(out, "WARNING: a --quick capture is never comparable");
    }
    if (a.seed, a.nproc) != (b.seed, b.nproc) {
        let _ = writeln!(
            out,
            "WARNING: seeds or core counts differ; exact metrics will too"
        );
    }
    let _ = writeln!(
        out,
        "{:<20} {:<16} {:>34} {:>34} {:>22}  verdict",
        "workload", "metric", "a median [q1, q3]", "b median [q1, q3]", "b/a (base a)"
    );
    for wa in &a.workloads {
        let Some(wb) = b.workload(&wa.name) else {
            let _ = writeln!(out, "{:<20} missing from b: regressed", wa.name);
            bad = true;
            continue;
        };
        if wa.digest != wb.digest {
            let _ = writeln!(
                out,
                "{:<20} digest {:#018x} -> {:#018x}: simulated outputs changed: regressed",
                wa.name, wa.digest, wb.digest
            );
            bad = true;
        }
        for def in metric::e2e_metrics() {
            let (Some(ra), Some(rb)) = (wa.row(def.name), wb.row(def.name)) else {
                continue;
            };
            let verdict = judge(def, metric::bound_on(def, &wa.name), ra, rb);
            let worse_fail_share =
                def.name == "fail_share" && rb.summary.median > ra.summary.median;
            bad |= verdict == Verdict::Regressed || worse_fail_share;
            let cell = |r: &Row| {
                format!(
                    "{:.6} [{:.6}, {:.6}]",
                    r.summary.median, r.summary.q1, r.summary.q3
                )
            };
            let ratio = if ra.summary.median == 0.0 {
                "-".to_string()
            } else {
                format!(
                    "{:.4} (a={:.6})",
                    rb.summary.median / ra.summary.median,
                    ra.summary.median
                )
            };
            let _ = writeln!(
                out,
                "{:<20} {:<16} {:>34} {:>34} {:>22}  {}",
                wa.name,
                def.name,
                cell(ra),
                cell(rb),
                ratio,
                verdict.as_str()
            );
        }
    }
    for wb in &b.workloads {
        if a.workload(&wb.name).is_none() {
            let _ = writeln!(out, "{:<20} only in b: not compared", wb.name);
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::WorkloadRows;

    fn row(name: &str, values: &[f64]) -> Row {
        Row::new(name, values.to_vec()).unwrap()
    }

    fn judge_named(name: &str, a: &[f64], b: &[f64]) -> Verdict {
        judge_on("bigmesh_32k", name, a, b)
    }

    fn judge_on(workload: &str, name: &str, a: &[f64], b: &[f64]) -> Verdict {
        let def = metric::find(name).unwrap();
        let bound = metric::bound_on(def, workload);
        judge(def, bound, &row(name, a), &row(name, b))
    }

    const BASE: [f64; 5] = [6.40, 6.42, 6.38, 6.45, 6.41];

    #[test]
    fn a_twelve_percent_slowdown_regresses() {
        let slow: Vec<f64> = BASE.iter().map(|v| v * 1.12).collect();
        assert_eq!(judge_named("wall_s", &BASE, &slow), Verdict::Regressed);
        assert_eq!(judge_named("peak_rss_mb", &BASE, &slow), Verdict::Regressed);
        // paper_figs_par alone has 15 % on wall_s.
        let on_par = |b: &[f64]| judge_on("paper_figs_par", "wall_s", &BASE, b);
        assert_eq!(on_par(&slow), Verdict::Unchanged);
        let slower: Vec<f64> = BASE.iter().map(|v| v * 1.16).collect();
        assert_eq!(on_par(&slower), Verdict::Regressed);
        // For a higher-is-better metric the same move is an improvement,
        // and its mirror image a regression.
        assert_eq!(judge_named("ops_per_s", &BASE, &slow), Verdict::Improved);
        assert_eq!(judge_named("ops_per_s", &slow, &BASE), Verdict::Regressed);
    }

    #[test]
    fn pure_noise_is_unchanged_when_tight_and_unresolved_when_wide() {
        let tight = [6.43, 6.39, 6.41, 6.44, 6.40];
        assert_eq!(judge_named("wall_s", &BASE, &tight), Verdict::Unchanged);
        let wide_a = [4.0, 6.4, 9.9, 5.0, 8.0];
        let wide_b = [9.5, 4.2, 6.6, 5.1, 8.2];
        assert_eq!(judge_named("wall_s", &wide_a, &wide_b), Verdict::Unresolved);
        // Wide but strictly separated runs still resolve.
        let far: Vec<f64> = wide_a.iter().map(|v| v * 5.0).collect();
        assert_eq!(judge_named("wall_s", &wide_a, &far), Verdict::Regressed);
        assert_eq!(judge_named("wall_s", &far, &wide_a), Verdict::Improved);
    }

    #[test]
    fn a_clear_speedup_improves_and_a_small_one_does_not() {
        let fast: Vec<f64> = BASE.iter().map(|v| v * 0.9).collect();
        assert_eq!(judge_named("wall_s", &BASE, &fast), Verdict::Improved);
        let barely: Vec<f64> = BASE.iter().map(|v| v * 0.999).collect();
        assert_eq!(judge_named("wall_s", &BASE, &barely), Verdict::Unchanged);
    }

    #[test]
    fn exact_metrics_compare_with_equality() {
        let same = [11.3; 5];
        assert_eq!(
            judge_named("sim_makespan_ms", &same, &same),
            Verdict::Unchanged
        );
        let moved = [11.3, 11.3, 11.3, 11.3, 11.300001];
        assert_eq!(
            judge_named("sim_makespan_ms", &same, &moved),
            Verdict::Regressed
        );
        // Even a "better" simulated value is a change a host-speed PR may not make.
        assert_eq!(
            judge_named("sim_makespan_ms", &same, &[11.0; 5]),
            Verdict::Regressed
        );
    }

    #[test]
    fn setup_has_an_absolute_floor() {
        // 1.0 ms -> 1.4 ms is +40 % but under the 5 ms floor.
        let a = [0.0010, 0.0011, 0.0010, 0.0010, 0.0011];
        let b = [0.0014, 0.0014, 0.0015, 0.0014, 0.0014];
        assert_eq!(judge_named("setup_s", &a, &b), Verdict::Unchanged);
        let big_a = [0.50, 0.51, 0.50, 0.49, 0.50];
        let big_b = [0.70, 0.71, 0.70, 0.69, 0.70];
        assert_eq!(judge_named("setup_s", &big_a, &big_b), Verdict::Regressed);
    }

    fn ledger(wall: &[f64], fail_share: f64) -> Ledger {
        ledger_with_digest(wall, fail_share, 1)
    }

    fn ledger_with_digest(wall: &[f64], fail_share: f64, digest: u64) -> Ledger {
        Ledger {
            seed: 7,
            samples: wall.len(),
            quick: false,
            traced: false,
            nproc: 2,
            workloads: vec![WorkloadRows {
                name: "bigmesh_32k".into(),
                digest,
                attempted: 10,
                failed: 0,
                failures: Vec::new(),
                rows: vec![
                    row("wall_s", wall),
                    row("fail_share", &vec![fail_share; wall.len()]),
                ],
                self_time_s: Vec::new(),
                accounted_share: None,
            }],
            derived: Vec::new(),
        }
    }

    #[test]
    fn compare_exits_nonzero_on_regression_or_more_failures() {
        let slow: Vec<f64> = BASE.iter().map(|v| v * 1.12).collect();
        let (table, bad) = compare(&ledger(&BASE, 0.0), &ledger(&slow, 0.0));
        assert!(bad && table.contains("regressed"), "{table}");
        assert!(table.contains("(a=6.41"), "ratio names its base: {table}");
        let (_, bad) = compare(&ledger(&BASE, 0.0), &ledger(&BASE, 0.0));
        assert!(!bad);
        let (_, bad) = compare(&ledger(&BASE, 0.0), &ledger(&BASE, 0.01));
        assert!(bad, "a higher fail_share fails the comparison");
    }

    #[test]
    fn a_changed_digest_regresses_even_when_every_metric_agrees() {
        let (table, bad) = compare(&ledger(&BASE, 0.0), &ledger_with_digest(&BASE, 0.0, 2));
        assert!(bad, "{table}");
        assert!(
            table.contains("simulated outputs changed: regressed"),
            "{table}"
        );
        assert!(!table.contains(" wall_s ") || table.contains("unchanged"));
    }

    #[test]
    fn workloads_in_one_capture_only_are_named() {
        let mut other = ledger(&BASE, 0.0);
        other.workloads[0].name = "check_mutex".into();
        let (table, bad) = compare(&ledger(&BASE, 0.0), &other);
        assert!(bad && table.contains("bigmesh_32k          missing from b: regressed"));
        assert!(table.contains("check_mutex          only in b: not compared"));
    }
}

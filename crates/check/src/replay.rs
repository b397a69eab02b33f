//! Counterexample serialization and deterministic replay.
//!
//! A counterexample file is a small line-oriented text format:
//!
//! ```text
//! sesame-check counterexample v1
//! contenders=2
//! rounds=1
//! alpha=0.05
//! threshold=0.3
//! optimistic=true
//! gwc_mutation=stale-grant-reuse
//! mutex_mutation=none
//! choices=3,1,7,12
//! ```
//!
//! [`replay`] rebuilds the exact workload, steps the recorded choices
//! through the simulator, and hands the resulting trace to the
//! `sesame-verify` offline checkers — the full checks when the schedule
//! runs to completion, the truncation-aware partial checks when it stops
//! mid-run (a counterexample cut at the first violation usually does).

use sesame_core::{MutexMutation, OptimisticConfig};
use sesame_dsm::GwcMutation;
use sesame_sim::TraceEntry;
use sesame_verify::{check_trace, check_trace_partial, Violation};
use sesame_workloads::canonical::CanonicalConfig;
use sesame_workloads::scenario::Scenario;

use crate::explore::{canonical_sim, Counterexample};

const HEADER: &str = "sesame-check counterexample v1";

fn gwc_mutation_str(m: GwcMutation) -> &'static str {
    match m {
        GwcMutation::None => "none",
        GwcMutation::StaleGrantReuse => "stale-grant-reuse",
        GwcMutation::SeqGap => "seq-gap",
    }
}

fn parse_gwc_mutation(s: &str) -> Result<GwcMutation, String> {
    match s {
        "none" => Ok(GwcMutation::None),
        "stale-grant-reuse" => Ok(GwcMutation::StaleGrantReuse),
        "seq-gap" => Ok(GwcMutation::SeqGap),
        other => Err(format!("unknown gwc_mutation `{other}`")),
    }
}

fn mutex_mutation_str(m: MutexMutation) -> &'static str {
    match m {
        MutexMutation::None => "none",
        MutexMutation::DropRollback => "drop-rollback",
    }
}

fn parse_mutex_mutation(s: &str) -> Result<MutexMutation, String> {
    match s {
        "none" => Ok(MutexMutation::None),
        "drop-rollback" => Ok(MutexMutation::DropRollback),
        other => Err(format!("unknown mutex_mutation `{other}`")),
    }
}

/// Serializes a counterexample to the replay file format.
pub fn to_replay_string(cx: &Counterexample) -> String {
    let choices: Vec<String> = cx.choices.iter().map(|c| c.to_string()).collect();
    format!(
        "{HEADER}\ncontenders={}\nrounds={}\nalpha={}\nthreshold={}\noptimistic={}\n\
         gwc_mutation={}\nmutex_mutation={}\nchoices={}\n",
        cx.config.contenders,
        cx.config.rounds,
        cx.config.mutex.alpha,
        cx.config.mutex.threshold,
        cx.config.mutex.optimistic,
        gwc_mutation_str(cx.config.gwc_mutation),
        mutex_mutation_str(cx.config.mutex_mutation),
        choices.join(",")
    )
}

/// Parses a replay file into the workload it applies to and the recorded
/// schedule.
pub fn parse_replay(contents: &str) -> Result<(CanonicalConfig, Vec<u64>), String> {
    let mut lines = contents.lines();
    if lines.next().map(str::trim) != Some(HEADER) {
        return Err(format!("not a replay file: expected `{HEADER}` header"));
    }
    let mut cfg = CanonicalConfig::default();
    let mut mutex = OptimisticConfig::default();
    let mut choices: Option<Vec<u64>> = None;
    for line in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("malformed line `{line}`"))?;
        let bad = |what: &str| format!("invalid {what} `{value}`");
        match key {
            "contenders" => cfg.contenders = value.parse().map_err(|_| bad("contenders"))?,
            "rounds" => cfg.rounds = value.parse().map_err(|_| bad("rounds"))?,
            "alpha" => mutex.alpha = value.parse().map_err(|_| bad("alpha"))?,
            "threshold" => mutex.threshold = value.parse().map_err(|_| bad("threshold"))?,
            "optimistic" => mutex.optimistic = value.parse().map_err(|_| bad("optimistic"))?,
            "gwc_mutation" => cfg.gwc_mutation = parse_gwc_mutation(value)?,
            "mutex_mutation" => cfg.mutex_mutation = parse_mutex_mutation(value)?,
            "choices" => {
                let parsed: Result<Vec<u64>, _> = if value.is_empty() {
                    Ok(Vec::new())
                } else {
                    value.split(',').map(|c| c.trim().parse()).collect()
                };
                choices = Some(parsed.map_err(|_| bad("choices"))?);
            }
            other => return Err(format!("unknown key `{other}`")),
        }
    }
    cfg.mutex = mutex;
    let choices = choices.ok_or("missing `choices=` line")?;
    Ok((cfg, choices))
}

/// What a deterministic re-execution of a recorded schedule produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Violations from the `sesame-verify` offline checkers.
    pub violations: Vec<Violation>,
    /// Incomplete-trace notes (in-flight packets, open sections) when the
    /// schedule stops mid-run; empty for a drained execution.
    pub incomplete: Vec<String>,
    /// Whether the schedule ran the workload to completion.
    pub drained: bool,
    /// Trace records produced.
    pub trace_len: usize,
    /// The full recorded trace, for downstream annotation (e.g. the CLI's
    /// causal-chain rendering of a counterexample).
    pub trace: Vec<TraceEntry>,
}

/// Re-executes a recorded schedule and checks its trace offline.
///
/// # Errors
///
/// Returns the reason when `cfg` is outside the bounds `sesame check`
/// explores within (a replay file is input like any other), or when the
/// schedule names an event that is not pending.
pub fn replay(cfg: CanonicalConfig, choices: &[u64]) -> Result<ReplayOutcome, String> {
    // The driver's bounds refuse a planted bug; a counterexample
    // legitimately carries one.
    let bounds = Scenario::Canonical(CanonicalConfig {
        gwc_mutation: GwcMutation::None,
        mutex_mutation: MutexMutation::None,
        ..cfg
    });
    bounds.validate().map_err(|e| e.to_string())?;
    let mut sim = canonical_sim(cfg);
    for (step, &seq) in choices.iter().enumerate() {
        if !sim.step_seq(seq) {
            return Err(format!(
                "schedule does not apply: step {step} chose seq {seq}, which is not pending \
                 (wrong workload parameters?)"
            ));
        }
    }
    let drained = sim.pending().is_empty();
    let entries = sim.trace().entries();
    let (violations, incomplete) = if drained {
        (check_trace(entries), Vec::new())
    } else {
        let outcome = check_trace_partial(entries);
        (outcome.violations, outcome.incomplete)
    };
    Ok(ReplayOutcome {
        violations,
        incomplete,
        drained,
        trace_len: entries.len(),
        trace: entries.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesame_sim::TraceEntry;

    fn cx(config: CanonicalConfig, choices: Vec<u64>) -> Counterexample {
        Counterexample {
            config,
            choices,
            violations: Vec::new(),
            trace: Vec::<TraceEntry>::new(),
        }
    }

    #[test]
    fn replay_format_round_trips() {
        let config = CanonicalConfig {
            contenders: 3,
            rounds: 2,
            gwc_mutation: GwcMutation::SeqGap,
            mutex_mutation: MutexMutation::DropRollback,
            ..CanonicalConfig::default()
        };
        let s = to_replay_string(&cx(config, vec![3, 1, 7]));
        let (parsed, choices) = parse_replay(&s).expect("round trip");
        assert_eq!(parsed, config);
        assert_eq!(choices, vec![3, 1, 7]);
    }

    #[test]
    fn junk_is_rejected() {
        assert!(parse_replay("not a header\n").is_err());
        let s = format!("{HEADER}\nchoices=1,2\nbogus=3\n");
        assert!(parse_replay(&s).is_err());
        let s = format!("{HEADER}\ncontenders=2\n");
        assert!(parse_replay(&s).is_err(), "missing choices");
        // Well-formed lines, values no workload can be built from: an
        // error from `replay`, not a panic inside the build.
        for (line, names) in [
            ("alpha=7", "mutex.alpha"),
            ("alpha=nan", "mutex.alpha"),
            ("threshold=2", "mutex.threshold"),
            ("contenders=0", "contenders"),
            ("rounds=0", "rounds"),
        ] {
            let s = format!("{HEADER}\n{line}\ngwc_mutation=seq-gap\nchoices=\n");
            let (cfg, choices) = parse_replay(&s).expect("parses");
            let err = replay(cfg, &choices).expect_err(line);
            assert!(err.contains(names), "{line}: {err}");
        }
    }

    #[test]
    fn inapplicable_schedule_is_an_error_not_a_panic() {
        let cfg = CanonicalConfig::default();
        let err = replay(cfg, &[9999]).expect_err("seq 9999 is never pending");
        assert!(err.contains("not pending"), "got: {err}");
    }
}

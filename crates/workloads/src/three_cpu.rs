//! The paper's Figure 1 scenario: three successive mutually exclusive
//! accesses by three CPUs, compared across consistency models.
//!
//! CPU 0 and CPU 2 request the lock at a common start instant (CPU 0
//! marginally earlier, so the service order is deterministic); CPU 1 — the
//! group root, initial lock owner, and manager — requests later and is
//! served last. Each holder computes for the section time, writes the
//! guarded data words, and releases. The scenario completion time is the
//! root's release.
//!
//! A warmup phase before the measured window reproduces Figure 1's initial
//! conditions: the owner has written the guarded data (so entry
//! consistency must ship it with the first grant) and the other CPUs hold
//! non-exclusive copies (so the first grant needs an invalidation round
//! trip).
//!
//! The integration tests check the simulated completion times against the
//! closed forms in [`sesame_consistency::analysis`] *exactly*.

use std::cell::RefCell;
use std::rc::Rc;

use sesame_core::builder::{BuildError, ModelChoice, ModelInstance, SystemBuilder, TopologyChoice};
use sesame_dsm::{AppEvent, Machine, Model, NodeApi, Program, RunResult, VarId, Word};
use sesame_net::{LinkTiming, NodeId};
use sesame_sim::{SimDur, SimTime, TraceRecorder};

use crate::scenario::{Outcome, RunError, Scenario};

/// Parameters of the Figure 1 scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure1Config {
    /// In-section computation time per CPU.
    pub section: SimDur,
    /// Guarded data words each holder writes.
    pub data_words: u32,
    /// Link timing.
    pub timing: LinkTiming,
    /// Start of the measured window (warmup settles before it).
    pub start_at: SimDur,
}

impl Default for Figure1Config {
    fn default() -> Self {
        Figure1Config {
            section: SimDur::from_us(5),
            data_words: 16,
            timing: LinkTiming::paper_1994(),
            start_at: SimDur::from_us(200),
        }
    }
}

/// Measured outcome of one Figure 1 run.
#[derive(Debug, Clone)]
pub struct Figure1Run {
    /// The model's reported name (`"gwc"`, `"entry"`, `"release"`).
    pub model: &'static str,
    /// Time from the measured-window start to the root's release.
    pub completion: SimDur,
    /// Per-CPU wait from lock request to grant, in scenario order
    /// `[cpu0, cpu2 (second), cpu1 (root, last)]`.
    pub lock_waits: [SimDur; 3],
    /// Raw scenario marks: `(cpu, "request"|"granted"|"released", time)`.
    pub marks: Vec<(u32, &'static str, SimTime)>,
    /// The protocol trace of the run (for timeline rendering).
    pub trace: TraceRecorder,
}

/// Shared log of `(cpu, mark, time)` scenario events.
pub(crate) type MarkLog = Rc<RefCell<Vec<(u32, &'static str, SimTime)>>>;

const LOCK: VarId = VarId::new(0);
const DATA_BASE: u32 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Armed,
    InSection,
    Done,
}

struct ScenarioCpu {
    /// Extra delay after the window start before requesting.
    request_offset: SimDur,
    /// Whether this CPU performs the warmup writes (the initial owner).
    warmup_writer: bool,
    section: SimDur,
    data_words: u32,
    start_at: SimDur,
    phase: Phase,
    requested: SimTime,
    log: MarkLog,
}

const TAG_START: u64 = 1;

impl Program for ScenarioCpu {
    fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
        match ev {
            AppEvent::Started => {
                if self.warmup_writer {
                    // Dirty the guarded data under the lock so entry
                    // consistency must ship it with the first grant.
                    api.acquire(LOCK);
                } else {
                    // Take non-exclusive copies (matters under entry
                    // consistency).
                    api.fetch(VarId::new(DATA_BASE));
                }
                api.set_timer(self.start_at + self.request_offset, TAG_START);
            }
            AppEvent::Acquired { lock } if lock == LOCK && self.phase == Phase::Warmup => {
                for w in 0..self.data_words {
                    api.write(VarId::new(DATA_BASE + w), w as Word + 1);
                }
                api.release(LOCK);
            }
            AppEvent::TimerFired { tag: TAG_START } => {
                self.phase = Phase::Armed;
                self.requested = api.now();
                self.log
                    .borrow_mut()
                    .push((api.id().get(), "request", api.now()));
                api.acquire(LOCK);
            }
            AppEvent::Acquired { lock } if lock == LOCK && self.phase == Phase::Armed => {
                self.phase = Phase::InSection;
                self.log
                    .borrow_mut()
                    .push((api.id().get(), "granted", api.now()));
                api.compute(self.section, 0);
            }
            AppEvent::ComputeDone { .. } if self.phase == Phase::InSection => {
                for w in 0..self.data_words {
                    api.write(
                        VarId::new(DATA_BASE + w),
                        api.id().get() as Word * 1000 + w as Word,
                    );
                }
                api.release(LOCK);
            }
            AppEvent::Released { lock } if lock == LOCK && self.phase == Phase::InSection => {
                self.phase = Phase::Done;
                self.log
                    .borrow_mut()
                    .push((api.id().get(), "released", api.now()));
            }
            _ => {}
        }
    }
}

/// Builds the Figure 1 machine under `model` and the mark log its CPUs
/// write.
pub(crate) fn build(
    model: ModelChoice,
    cfg: &Figure1Config,
) -> Result<(Machine<ModelInstance>, MarkLog), BuildError> {
    let log: MarkLog = Rc::new(RefCell::new(Vec::new()));
    let mk = |request_offset: SimDur, warmup_writer: bool| ScenarioCpu {
        request_offset,
        warmup_writer,
        section: cfg.section,
        data_words: cfg.data_words,
        start_at: cfg.start_at,
        phase: Phase::Warmup,
        requested: SimTime::ZERO,
        log: log.clone(),
    };
    let vars: Vec<VarId> = std::iter::once(LOCK)
        .chain((0..cfg.data_words).map(|w| VarId::new(DATA_BASE + w)))
        .collect();
    let machine = SystemBuilder::new(3)
        .topology(TopologyChoice::Ring) // all pairs 1 hop apart
        .timing(cfg.timing)
        .model(model)
        .mutex_group(NodeId::new(1), vars, LOCK)
        .program(NodeId::new(0), Box::new(mk(SimDur::ZERO, false)))
        .program(NodeId::new(1), Box::new(mk(SimDur::from_nanos(500), true)))
        .program(NodeId::new(2), Box::new(mk(SimDur::from_nanos(10), false)))
        .build()?;
    Ok((machine, log))
}

/// Reads the marks into a [`Figure1Run`], which takes the run's trace
/// with it. The scenario has no oracle of its own (the tests hold its
/// completion times to the closed forms); a CPU that never logged a mark
/// means the run did not complete.
pub(crate) fn finish(
    cfg: &Figure1Config,
    result: &mut RunResult<ModelInstance>,
    log: &MarkLog,
) -> Result<Figure1Run, RunError> {
    let (name, outcome) = (result.machine.model().name(), result.outcome);
    let log = log.borrow();
    let start = SimTime::ZERO + cfg.start_at;
    let time_of = |cpu: u32, what: &str| -> Result<SimTime, RunError> {
        let mark = log.iter().find(|&&(c, w, _)| c == cpu && w == what);
        mark.map(|m| m.2).ok_or_else(|| {
            let left = format!("cpu{cpu} never logged '{what}' under {name}");
            RunError::Incomplete("three-cpu", outcome, left)
        })
    };
    let wait_of = |cpu: u32| Ok(time_of(cpu, "granted")? - time_of(cpu, "request")?);
    Ok(Figure1Run {
        model: name,
        completion: time_of(1, "released")?.saturating_since(start),
        lock_waits: [wait_of(0)?, wait_of(2)?, wait_of(1)?],
        marks: log.clone(),
        trace: std::mem::take(&mut result.trace),
    })
}

/// Runs the Figure 1 scenario under one model.
///
/// # Panics
///
/// Panics with the [`RunError`]'s text on an invalid configuration or if
/// the scenario does not complete (a protocol bug).
pub fn run_figure1(model: ModelChoice, cfg: Figure1Config) -> Figure1Run {
    match (Scenario::ThreeCpu { model, cfg }).run(None) {
        Ok(Outcome::ThreeCpu(run, _)) => run,
        Ok(other) => unreachable!("a three-cpu scenario ended as {other:?}"),
        Err(e) => panic!("{e}"),
    }
}

/// Runs the scenario under all three models, in the paper's order.
pub fn run_figure1_all(cfg: Figure1Config) -> Vec<Figure1Run> {
    vec![
        run_figure1(ModelChoice::Gwc, cfg),
        run_figure1(ModelChoice::Entry, cfg),
        run_figure1(ModelChoice::Release, cfg),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesame_consistency::analysis::Figure1Params;

    fn analysis_params(cfg: Figure1Config) -> Figure1Params {
        Figure1Params {
            hops: 1,
            timing: cfg.timing,
            section: cfg.section,
            guarded_bytes: cfg.data_words * sesame_dsm::sizes::WRITE,
        }
    }

    #[test]
    fn gwc_simulation_matches_closed_form_exactly() {
        let cfg = Figure1Config::default();
        let sim = run_figure1(ModelChoice::Gwc, cfg);
        let predicted = analysis_params(cfg).predict().gwc;
        assert_eq!(sim.completion, predicted, "5m + 3u");
    }

    #[test]
    fn entry_simulation_matches_closed_form_exactly() {
        let cfg = Figure1Config::default();
        let sim = run_figure1(ModelChoice::Entry, cfg);
        let predicted = analysis_params(cfg).predict().entry;
        assert_eq!(sim.completion, predicted, "6m + 3d + 3u");
    }

    #[test]
    fn release_simulation_matches_closed_form_exactly() {
        let cfg = Figure1Config::default();
        let sim = run_figure1(ModelChoice::Release, cfg);
        let predicted = analysis_params(cfg).predict().release;
        assert_eq!(sim.completion, predicted, "10m + 3u");
    }

    #[test]
    fn gwc_wins_and_lock_waits_are_ordered() {
        let cfg = Figure1Config::default();
        let runs = run_figure1_all(cfg);
        assert!(runs[0].completion < runs[1].completion, "GWC beats entry");
        assert!(runs[0].completion < runs[2].completion, "GWC beats release");
        for r in &runs {
            assert!(
                r.lock_waits[0] < r.lock_waits[1],
                "{}: first-served waits least",
                r.model
            );
            assert!(
                r.lock_waits[1] < r.lock_waits[2],
                "{}: root (last) waits most",
                r.model
            );
        }
    }

    #[test]
    fn larger_sections_stretch_all_models_equally() {
        let short = Figure1Config::default();
        let long = Figure1Config {
            section: SimDur::from_us(50),
            ..short
        };
        for model in [ModelChoice::Gwc, ModelChoice::Entry, ModelChoice::Release] {
            let a = run_figure1(model, short);
            let b = run_figure1(model, long);
            assert_eq!(
                b.completion - a.completion,
                (long.section - short.section) * 3,
                "{model:?}: exactly 3 extra sections"
            );
        }
    }
}

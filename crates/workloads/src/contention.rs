//! Contention sweeps for optimistic mutual exclusion — the regime between
//! Figure 8 (no contention, optimism always pays) and the paper's claim
//! that the usage-frequency history makes optimism "add no network traffic
//! when the lock is heavily contended".
//!
//! `K` contending nodes repeatedly think for a configurable time, then
//! enter a critical section on one shared lock. Sweeping the think time
//! moves the system from idle-lock (optimism wins) to saturated-lock
//! (history pushes everyone onto the regular path). The ablation benches
//! also sweep the history constants (`alpha`, `threshold`) and disable
//! optimism outright.

use std::cell::RefCell;
use std::rc::Rc;

use sesame_core::builder::{BuildError, ModelInstance, SystemBuilder};
use sesame_core::{MutexSignal, OptimisticConfig, OptimisticMutex, OptimisticStats};
use sesame_dsm::{AppEvent, Machine, NodeApi, Program, RunResult, VarId, Word};
use sesame_net::{LinkTiming, NodeId};
use sesame_sim::{DetRng, SimDur, SimTime, TraceObserver};

use crate::scenario::{Outcome, RunError, Scenario};

/// Link timing.
const TIMING: LinkTiming = LinkTiming::paper_1994();

/// Parameters of one contention-sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionConfig {
    /// Number of contending nodes (the system adds one root node).
    pub contenders: u32,
    /// Critical sections each contender executes.
    pub rounds: u32,
    /// In-section computation time.
    pub section: SimDur,
    /// Mean think time between sections (exponentially distributed).
    pub mean_think: SimDur,
    /// Optimistic-engine configuration (set `optimistic: false` for the
    /// regular-locking baseline).
    pub mutex: OptimisticConfig,
    /// RNG seed for think times.
    pub seed: u64,
    /// Whether to record a trace (`result.trace`), e.g. for the
    /// `sesame-verify` checkers.
    pub tracing: bool,
}

impl Default for ContentionConfig {
    fn default() -> Self {
        ContentionConfig {
            contenders: 4,
            rounds: 50,
            section: SimDur::from_us(2),
            mean_think: SimDur::from_us(50),
            mutex: OptimisticConfig::default(),
            seed: 7,
            tracing: false,
        }
    }
}

/// Aggregate outcome of one contention run.
#[derive(Debug)]
pub struct ContentionRun {
    /// The underlying machine-run result.
    pub result: RunResult<ModelInstance>,
    /// Summed optimistic-engine statistics over all contenders.
    pub stats: OptimisticStats,
    /// Mean latency from mutex entry to completed release.
    pub mean_section_latency: SimDur,
    /// Total sections completed (contenders x rounds).
    pub sections: u64,
    /// Final value of the shared counter (must equal `sections`).
    pub counter: Word,
}

/// Shared registry of per-contender (stats, latency) outcomes.
pub(crate) type StatsOut = Rc<RefCell<Vec<(OptimisticStats, Vec<SimDur>)>>>;

const LOCK: VarId = VarId::new(0);
const COUNTER: VarId = VarId::new(1);
const TAG_ENTER: u64 = 1;

struct Hammer {
    mutex: OptimisticMutex,
    rounds: u32,
    section: SimDur,
    mean_think: SimDur,
    rng: DetRng,
    entered: SimTime,
    stats_out: StatsOut,
}

impl Hammer {
    fn think_then_enter(&mut self, api: &mut NodeApi<'_>) {
        let t = self.rng.next_exp(self.mean_think.as_nanos() as f64);
        api.set_timer(SimDur::from_nanos(t as u64), TAG_ENTER);
    }

    /// Records a completed section's latency and the statistics so far in
    /// this hammer's slot of the registry.
    fn publish(&mut self, latency: SimDur, api: &mut NodeApi<'_>) {
        let idx = api.id().index() - 1;
        let (stats, latencies) = &mut self.stats_out.borrow_mut()[idx];
        *stats = self.mutex.stats();
        latencies.push(latency);
    }
}

impl Program for Hammer {
    fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
        match &ev {
            AppEvent::Started => {
                if self.rounds > 0 {
                    self.think_then_enter(api);
                }
                return;
            }
            AppEvent::TimerFired { tag: TAG_ENTER } => {
                self.entered = api.now();
                self.mutex
                    .enter(api, self.section)
                    .expect("hammer never nests");
                return;
            }
            _ => {}
        }
        match self.mutex.on_event(&ev, api) {
            Some(MutexSignal::ExecuteBody) => {
                let c = api.read(COUNTER);
                api.write(COUNTER, c + 1);
                let done = self.mutex.body_done(api);
                debug_assert!(done.is_none());
            }
            Some(MutexSignal::Completed(_)) => {
                self.rounds -= 1;
                self.publish(api.now() - self.entered, api);
                if self.rounds > 0 {
                    self.think_then_enter(api);
                }
            }
            None => {}
        }
    }
}

/// Builds the contention system and the registry its hammers publish
/// their statistics into.
pub(crate) fn build(
    cfg: &ContentionConfig,
) -> Result<(Machine<ModelInstance>, StatsOut), BuildError> {
    let nodes = cfg.contenders as usize + 1; // node 0 is the root/manager
    let stats_out = Rc::new(RefCell::new(vec![
        (OptimisticStats::default(), Vec::new());
        cfg.contenders as usize
    ]));
    let mut builder = SystemBuilder::new(nodes).timing(TIMING).mutex_group(
        NodeId::new(0),
        vec![LOCK, COUNTER],
        LOCK,
    );
    let mut seeder = DetRng::new(cfg.seed);
    for i in 1..=cfg.contenders {
        builder.program(
            NodeId::new(i),
            Box::new(Hammer {
                mutex: OptimisticMutex::new(LOCK, vec![COUNTER], cfg.mutex),
                rounds: cfg.rounds,
                section: cfg.section,
                mean_think: cfg.mean_think,
                rng: seeder.split(i as u64),
                entered: SimTime::ZERO,
                stats_out: stats_out.clone(),
            }),
        );
    }
    let machine = builder.build()?;
    Ok((machine, stats_out))
}

/// Sums the hammers' statistics; the oracle is the shared counter, which
/// every section incremented once under the lock.
pub(crate) fn finish(
    cfg: &ContentionConfig,
    result: RunResult<ModelInstance>,
    stats_out: &StatsOut,
) -> Result<ContentionRun, RunError> {
    let mut stats = OptimisticStats::default();
    let mut all_latencies: Vec<SimDur> = Vec::new();
    for (s, lats) in stats_out.borrow().iter() {
        stats.optimistic_attempts += s.optimistic_attempts;
        stats.regular_attempts += s.regular_attempts;
        stats.rollbacks += s.rollbacks;
        stats.free_flickers += s.free_flickers;
        stats.completions += s.completions;
        stats.fully_overlapped += s.fully_overlapped;
        all_latencies.extend_from_slice(lats);
    }
    let sections = cfg.contenders as u64 * cfg.rounds as u64;
    if stats.completions != sections {
        let left = format!("{} of {sections} sections completed", stats.completions);
        return Err(RunError::Incomplete("contention", result.outcome, left));
    }
    let counter = result.machine.mem(NodeId::new(0)).read(COUNTER);
    if counter != sections as Word {
        let what = format!(
            "mutual exclusion: the shared counter reads {counter} after {sections} sections"
        );
        return Err(RunError::Violated("contention", what));
    }
    let mean_section_latency = if all_latencies.is_empty() {
        SimDur::ZERO
    } else {
        all_latencies.iter().copied().sum::<SimDur>() / all_latencies.len() as u64
    };
    Ok(ContentionRun {
        result,
        stats,
        mean_section_latency,
        sections,
        counter,
    })
}

/// Runs one contention point.
///
/// # Panics
///
/// Panics with the [`RunError`]'s text if the configuration is invalid, a
/// section did not complete, or mutual exclusion was violated (the shared
/// counter missed increments).
pub fn run_contention(cfg: ContentionConfig) -> ContentionRun {
    run_contention_observed(cfg, None)
}

/// Like [`run_contention`], but with an optional online trace observer
/// (e.g. the `sesame-telemetry` collector or the `sesame-verify`
/// checkers). The observer sees every trace record even when
/// `cfg.tracing` is false.
pub fn run_contention_observed(
    cfg: ContentionConfig,
    observer: Option<Rc<RefCell<dyn TraceObserver>>>,
) -> ContentionRun {
    match Scenario::Contention(cfg).run(observer) {
        Ok(Outcome::Contention(run)) => run,
        Ok(other) => unreachable!("a contention scenario ended as {other:?}"),
        Err(e) => panic!("{e}"),
    }
}

//! The paper's Figure 8 workload: a linear pipeline of events comparing
//! mutual exclusion methods.
//!
//! A single token circulates a ring of processors. On receiving the token,
//! processor `i`:
//!
//! 1. reads the hand-off data written by `i-1` (eagerly present under GWC;
//!    a demand fetch under entry consistency),
//! 2. computes locally for `L/2`,
//! 3. enters a mutually exclusive section of computation `M = L/8` that
//!    updates shared data guarded by one global lock (rooted at node 0, so
//!    the request distance grows with the network),
//! 4. computes locally for `L/2`, writes its hand-off data and bumps the
//!    token flag for `i+1` (the flag is an ordinary eagerly-shared
//!    variable; GWC write ordering makes flag-after-data safe),
//! 5. continues with `L` of overlapped local calculation while `i+1`
//!    works.
//!
//! Useful work per visit is `2L + M`; the per-stage critical path is
//! `L + M` plus whatever lock and data latency the mutual exclusion method
//! fails to hide — so the zero-delay network power is
//! `(2L+M)/(L+M) = 17/9 ≈ 1.89`, the paper's top line. There is no
//! contention, hence no rollbacks: the experiment isolates how much of the
//! lock round trip each method hides.

use std::cell::RefCell;
use std::rc::Rc;

use sesame_core::builder::{BuildError, ModelChoice, ModelInstance, SystemBuilder, TopologyChoice};
use sesame_core::{MutexSignal, OptimisticConfig, OptimisticMutex};
use sesame_dsm::{AppEvent, GroupSpec, Machine, NodeApi, Program, RunResult, VarId, Word};
use sesame_net::{LinkTiming, NodeId};
use sesame_sim::{RunOutcome, SimDur};

use crate::scenario::{Outcome, RunError, Scenario};

/// Which mutual exclusion method the pipeline uses — the three lines of
/// Figure 8 (the fourth, the no-delay bound, is [`MutexMethod::RegularGwc`]
/// on a zero-delay network).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutexMethod {
    /// Optimistic mutual exclusion under GWC (the paper's contribution).
    OptimisticGwc,
    /// Non-optimistic queue locks under GWC.
    RegularGwc,
    /// Entry consistency.
    Entry,
}

impl MutexMethod {
    /// The memory model the method runs on.
    pub fn model(self) -> ModelChoice {
        match self {
            MutexMethod::OptimisticGwc | MutexMethod::RegularGwc => ModelChoice::Gwc,
            MutexMethod::Entry => ModelChoice::Entry,
        }
    }

    /// Display label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            MutexMethod::OptimisticGwc => "optimistic GWC",
            MutexMethod::RegularGwc => "non-optimistic GWC",
            MutexMethod::Entry => "entry consistency",
        }
    }
}

/// Parameters of the Figure 8 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Total token visits ("data size"; the paper uses 1024, giving
    /// 1024/P iterations per processor).
    pub total_visits: u32,
    /// The local computation time `L`; the mutex section is `L/8`.
    pub local_calc: SimDur,
    /// Hand-off data words written for the successor each visit.
    pub token_words: u32,
    /// Shared words written inside the mutex section.
    pub shared_words: u32,
    /// Poll interval for entry consistency's flag test.
    pub poll_interval: SimDur,
    /// Link timing.
    pub timing: LinkTiming,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            total_visits: 1024,
            local_calc: SimDur::from_us(5),
            token_words: 8,
            shared_words: 4,
            poll_interval: SimDur::from_nanos(500),
            timing: LinkTiming::paper_1994(),
        }
    }
}

impl PipelineConfig {
    /// The mutex-section computation time `M = L/8` (the paper's ratio).
    pub fn section(&self) -> SimDur {
        self.local_calc / 8
    }

    /// The zero-delay network-power bound `(2L+M)/(L+M) = 17/9`.
    pub fn ideal_power(&self) -> f64 {
        let l = self.local_calc.as_nanos() as f64;
        let m = self.section().as_nanos() as f64;
        (2.0 * l + m) / (l + m)
    }
}

/// Outcome of one Figure 8 run.
#[derive(Debug)]
pub struct PipelineRun {
    /// The underlying machine-run result.
    pub result: RunResult<ModelInstance>,
    /// Network power = total useful work / makespan.
    pub power: f64,
    /// Rollbacks observed (must be zero: the pipeline has no contention).
    pub rollbacks: u64,
    /// Optimistic completions whose grant was fully overlapped.
    pub fully_overlapped: u64,
}

const LOCK: VarId = VarId::new(0);
const SH_BASE: u32 = 1;
const FLAG_BASE: u32 = 1_000;
const DATA_BASE: u32 = 2_000;
const DATA_STRIDE: u32 = 64;

fn flag_var(node: u32) -> VarId {
    VarId::new(FLAG_BASE + node)
}
fn data_var(node: u32, w: u32) -> VarId {
    VarId::new(DATA_BASE + node * DATA_STRIDE + w)
}

const TAG_CALC_A: u64 = 1;
const TAG_CALC_B: u64 = 2;
const TAG_CALC_C: u64 = 3;
const TAG_POLL: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    WaitToken,
    FetchData,
    CalcA,
    Mutex,
    CalcB,
    CalcC,
}

struct PipelineCpu {
    cfg: PipelineConfig,
    method: MutexMethod,
    nodes: u32,
    /// Optimistic engine (used only by `OptimisticGwc`).
    mutex: OptimisticMutex,
    stage: Stage,
    visit: Word,
    last_flag_seen: Word,
    pending_fetches: u32,
    stats_out: StatsOut,
}

impl PipelineCpu {
    fn me(&self, api: &NodeApi<'_>) -> u32 {
        api.id().get()
    }

    fn prev(&self, api: &NodeApi<'_>) -> u32 {
        (self.me(api) + self.nodes - 1) % self.nodes
    }

    fn token_arrived(&mut self, visit: Word, api: &mut NodeApi<'_>) {
        debug_assert_eq!(self.stage, Stage::WaitToken);
        self.visit = visit;
        self.last_flag_seen = visit;
        // Read the predecessor's hand-off data one dependent word at a
        // time (free under eagersharing; a demand-fetch round trip per
        // word under entry consistency).
        self.stage = Stage::FetchData;
        self.pending_fetches = self.cfg.token_words;
        let prev = self.prev(api);
        api.fetch(data_var(prev, 0));
    }

    fn start_calc_a(&mut self, api: &mut NodeApi<'_>) {
        self.stage = Stage::CalcA;
        api.compute(self.cfg.local_calc / 2, TAG_CALC_A);
    }

    fn enter_mutex(&mut self, api: &mut NodeApi<'_>) {
        self.stage = Stage::Mutex;
        match self.method {
            MutexMethod::OptimisticGwc => {
                self.mutex
                    .enter(api, self.cfg.section())
                    .expect("pipeline never nests");
            }
            MutexMethod::RegularGwc | MutexMethod::Entry => {
                api.acquire(LOCK);
            }
        }
    }

    fn mutex_body(&mut self, api: &mut NodeApi<'_>) {
        for w in 0..self.cfg.shared_words {
            let var = VarId::new(SH_BASE + w);
            let old = api.read(var);
            api.write(var, old + 1);
        }
    }

    fn section_finished(&mut self, api: &mut NodeApi<'_>) {
        self.stage = Stage::CalcB;
        api.compute(self.cfg.local_calc / 2, TAG_CALC_B);
    }

    fn hand_off(&mut self, api: &mut NodeApi<'_>) {
        let me = self.me(api);
        if (self.visit as u32) < self.cfg.total_visits {
            // Data first, flag last: GWC write ordering publishes safely.
            for w in 0..self.cfg.token_words {
                api.write(data_var(me, w), self.visit * 100 + w as Word);
            }
            api.write(flag_var(me), self.visit + 1);
        }
        self.stage = Stage::CalcC;
        api.compute(self.cfg.local_calc, TAG_CALC_C);
    }

    fn iteration_done(&mut self, api: &mut NodeApi<'_>) {
        if self.visit as u32 >= self.cfg.total_visits {
            api.stop();
            return;
        }
        self.stage = Stage::WaitToken;
        if self.method == MutexMethod::Entry {
            api.set_timer(self.cfg.poll_interval, TAG_POLL);
        }
        // Under GWC the next flag write arrives as an Updated event; it may
        // also already be present locally if it arrived mid-iteration.
        let prev = self.prev(api);
        let flag = api.read(flag_var(prev));
        if flag > self.last_flag_seen {
            self.token_arrived(flag, api);
        }
    }
}

impl Program for PipelineCpu {
    fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
        // The optimistic engine sees every event first and owns its own
        // compute tags.
        if self.method == MutexMethod::OptimisticGwc {
            match self.mutex.on_event(&ev, api) {
                Some(MutexSignal::ExecuteBody) => {
                    self.mutex_body(api);
                    let done = self.mutex.body_done(api);
                    debug_assert!(done.is_none());
                    return;
                }
                Some(MutexSignal::Completed(c)) => {
                    let mut s = self.stats_out.borrow_mut();
                    s.0 += c.rollbacks as u64;
                    s.1 += u64::from(c.fully_overlapped);
                    drop(s);
                    self.section_finished(api);
                    return;
                }
                None => {
                    if matches!(ev, AppEvent::ComputeDone { tag } if tag >= sesame_core::MUTEX_TAG_BASE)
                    {
                        return; // consumed (or stale) engine compute
                    }
                    if matches!(ev, AppEvent::LockChanged { .. }) {
                        return;
                    }
                }
            }
        }
        match ev {
            AppEvent::Started => {
                if api.id().get() == 0 {
                    // Node 0 injects the token: visit 1.
                    self.visit = 1;
                    self.last_flag_seen = 1;
                    self.start_calc_a(api);
                    self.stage = Stage::CalcA;
                } else if self.method == MutexMethod::Entry {
                    api.set_timer(self.cfg.poll_interval, TAG_POLL);
                }
            }
            // GWC / release: the predecessor's flag write is pushed.
            AppEvent::Updated { var, value, .. }
                if self.stage == Stage::WaitToken
                    && var == flag_var(self.prev(api))
                    && value > self.last_flag_seen =>
            {
                self.token_arrived(value, api);
            }
            // Entry consistency: poll the predecessor's flag.
            AppEvent::TimerFired { tag: TAG_POLL } if self.stage == Stage::WaitToken => {
                api.fetch(flag_var(self.prev(api)));
            }
            AppEvent::ValueReady { var, value } => {
                let prev = self.prev(api);
                if var == flag_var(prev) {
                    if self.stage == Stage::WaitToken {
                        if value > self.last_flag_seen {
                            self.token_arrived(value, api);
                        } else {
                            api.set_timer(self.cfg.poll_interval, TAG_POLL);
                        }
                    }
                } else if self.stage == Stage::FetchData {
                    self.pending_fetches -= 1;
                    if self.pending_fetches == 0 {
                        self.start_calc_a(api);
                    } else {
                        let next = self.cfg.token_words - self.pending_fetches;
                        api.fetch(data_var(prev, next));
                    }
                }
            }
            AppEvent::ComputeDone { tag: TAG_CALC_A } => self.enter_mutex(api),
            AppEvent::ComputeDone { tag: TAG_CALC_B } => self.hand_off(api),
            AppEvent::ComputeDone { tag: TAG_CALC_C } => self.iteration_done(api),
            // Regular / entry mutex path.
            AppEvent::Acquired { lock } if lock == LOCK => {
                api.compute(self.cfg.section(), TAG_SECTION);
            }
            AppEvent::ComputeDone { tag: TAG_SECTION } => {
                self.mutex_body(api);
                api.release(LOCK);
            }
            AppEvent::Released { lock }
                if lock == LOCK && self.method != MutexMethod::OptimisticGwc =>
            {
                self.section_finished(api);
            }
            _ => {}
        }
    }
}

const TAG_SECTION: u64 = 5;

/// Summed `(rollbacks, fully overlapped completions)` of the optimistic
/// engines, written as sections complete.
pub(crate) type StatsOut = Rc<RefCell<(u64, u64)>>;

/// Builds the Figure 8 ring and the counters its CPUs report into.
pub(crate) fn build(
    nodes: usize,
    method: MutexMethod,
    cfg: &PipelineConfig,
) -> Result<(Machine<ModelInstance>, StatsOut), BuildError> {
    let cfg = *cfg;
    let stats_out = Rc::new(RefCell::new((0u64, 0u64)));
    let sh_vars: Vec<VarId> = std::iter::once(LOCK)
        .chain((0..cfg.shared_words).map(|w| VarId::new(SH_BASE + w)))
        .collect();
    let mut builder = SystemBuilder::new(nodes)
        .topology(TopologyChoice::MeshTorus)
        .timing(cfg.timing)
        .model(method.model())
        .mutex_group(NodeId::new(0), sh_vars, LOCK);
    // All token flags live in one coordination region homed at node 0, so
    // flag propagation (and entry consistency's flag polling) crosses a
    // distance that grows with the network — the growing coordination cost
    // of Figure 8.
    let flag_vars: Vec<VarId> = (0..nodes as u32).map(flag_var).collect();
    builder = builder.shared_group(NodeId::new(0), flag_vars);
    // One hand-off data group per node: {i, i+1} rooted at the writer i.
    for i in 0..nodes as u32 {
        let next = (i + 1) % nodes as u32;
        let mut members = vec![NodeId::new(i)];
        if next != i {
            members.push(NodeId::new(next));
        }
        let vars: Vec<VarId> = (0..cfg.token_words).map(|w| data_var(i, w)).collect();
        builder = builder.group(GroupSpec {
            root: NodeId::new(i),
            members,
            vars,
            mutex_lock: None,
        });
    }
    for i in 0..nodes as u32 {
        builder = builder.program(
            NodeId::new(i),
            Box::new(PipelineCpu {
                cfg,
                method,
                nodes: nodes as u32,
                mutex: OptimisticMutex::new(
                    LOCK,
                    (0..cfg.shared_words)
                        .map(|w| VarId::new(SH_BASE + w))
                        .collect(),
                    OptimisticConfig::default(),
                ),
                stage: Stage::WaitToken,
                visit: 0,
                last_flag_seen: 0,
                pending_fetches: 0,
                stats_out: stats_out.clone(),
            }),
        );
    }
    Ok((builder.build()?, stats_out))
}

/// Reads the counters; the oracle is the first shared word, incremented
/// once per visit by whoever held the lock.
pub(crate) fn finish(
    method: MutexMethod,
    cfg: &PipelineConfig,
    result: RunResult<ModelInstance>,
    stats_out: &StatsOut,
) -> Result<PipelineRun, RunError> {
    let nodes = result.machine.node_count();
    if result.outcome != RunOutcome::Stopped {
        let left = format!(
            "not all {} visits done under {} at {nodes} nodes (ended at {} after {} events)",
            cfg.total_visits,
            method.label(),
            result.end,
            result.events
        );
        return Err(RunError::Incomplete("pipeline", result.outcome, left));
    }
    // GWC keeps the authoritative copy at the group root. Under entry
    // consistency data ships with the lock, so the current copy is the
    // last visitor's; node 0 holds the value of its own last visit.
    let holder = match method {
        MutexMethod::OptimisticGwc | MutexMethod::RegularGwc => 0,
        MutexMethod::Entry => (cfg.total_visits - 1) % nodes as u32,
    };
    let counted = result
        .machine
        .mem(NodeId::new(holder))
        .read(VarId::new(SH_BASE));
    if counted != cfg.total_visits as Word {
        let what = format!(
            "mutual exclusion: the shared word reads {counted} at node {holder} after {} \
             visits under {} at {nodes} nodes",
            cfg.total_visits,
            method.label()
        );
        return Err(RunError::Violated("pipeline", what));
    }
    let (rollbacks, fully_overlapped) = *stats_out.borrow();
    let power = result.network_power();
    Ok(PipelineRun {
        result,
        power,
        rollbacks,
        fully_overlapped,
    })
}

/// Runs Figure 8 for one `(nodes, method)` point.
///
/// # Panics
///
/// Panics with the [`RunError`]'s text on an invalid configuration, if
/// the pipeline deadlocks (not all visits complete), or if the shared
/// word missed an increment.
pub fn run_pipeline(nodes: usize, method: MutexMethod, cfg: PipelineConfig) -> PipelineRun {
    match (Scenario::Pipeline { nodes, method, cfg }).run(None) {
        Ok(Outcome::Pipeline(run)) => run,
        Ok(other) => unreachable!("a pipeline scenario ended as {other:?}"),
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> PipelineConfig {
        PipelineConfig {
            total_visits: 64,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn ideal_power_is_17_over_9() {
        assert!((PipelineConfig::default().ideal_power() - 17.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn zero_delay_run_approaches_the_bound() {
        let cfg = PipelineConfig {
            timing: LinkTiming::zero_delay(),
            ..small()
        };
        let run = run_pipeline(4, MutexMethod::RegularGwc, cfg);
        let ideal = cfg.ideal_power();
        assert!(
            run.power > 0.95 * ideal && run.power <= ideal + 1e-9,
            "power {} vs bound {}",
            run.power,
            ideal
        );
    }

    #[test]
    fn optimistic_beats_regular_beats_entry() {
        let cfg = small();
        let opt = run_pipeline(4, MutexMethod::OptimisticGwc, cfg);
        let reg = run_pipeline(4, MutexMethod::RegularGwc, cfg);
        let ent = run_pipeline(4, MutexMethod::Entry, cfg);
        assert!(
            opt.power > reg.power,
            "optimistic {} must beat regular {}",
            opt.power,
            reg.power
        );
        assert!(
            reg.power > ent.power,
            "regular {} must beat entry {}",
            reg.power,
            ent.power
        );
        assert_eq!(opt.rollbacks, 0, "pipeline is contention-free");
        assert!(opt.fully_overlapped > 0, "small net fully hides the lock");
    }

    #[test]
    fn power_declines_with_network_size() {
        let cfg = small();
        let small_net = run_pipeline(2, MutexMethod::OptimisticGwc, cfg);
        let big_net = run_pipeline(16, MutexMethod::OptimisticGwc, cfg);
        assert!(
            small_net.power > big_net.power,
            "2 CPUs {} vs 16 CPUs {}",
            small_net.power,
            big_net.power
        );
    }

    #[test]
    fn mutex_updates_count_once_per_visit() {
        let cfg = small();
        let run = run_pipeline(4, MutexMethod::OptimisticGwc, cfg);
        // Every visit increments SH_BASE exactly once; check the root's
        // authoritative copy.
        let v = run
            .result
            .machine
            .mem(NodeId::new(0))
            .read(VarId::new(SH_BASE));
        assert_eq!(v, cfg.total_visits as Word);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_pipeline(4, MutexMethod::OptimisticGwc, small());
        let b = run_pipeline(4, MutexMethod::OptimisticGwc, small());
        assert_eq!(a.result.end, b.result.end);
        assert_eq!(a.result.events, b.result.events);
    }
}

//! The paper's Figure 2 workload: task management through a shared,
//! lock-protected queue.
//!
//! One producer (node 0, which is also the group root / lock manager)
//! generates `total_tasks` tasks, each taking `produce_ratio * exec_time`
//! to create, and enqueues them into a bounded circular queue guarded by
//! one mutex. Every other node is a consumer: dequeue under the lock,
//! execute for `exec_time`, repeat. The producer also publishes a
//! single-writer `PROD_DONE` flag (an ordinary eagerly-shared variable —
//! the paper's "ordinary shared variables can be reader-writer locks"
//! pattern) so consumers know when to stop.
//!
//! How idle consumers learn of new work is the experiment's crux:
//!
//! * [`NotifyMode::Push`] — eagersharing (GWC) and cache-update (release
//!   consistency) deliver the queue-count write to every node, so waiting
//!   is event-driven and free;
//! * [`NotifyMode::Poll`] — entry consistency must *fetch and test* the
//!   count, a demand-fetch round trip per poll, "causing network traffic
//!   and delays" exactly as the paper charges it.
//!
//! The paper's production/execution time-ratio glyph is illegible in the
//! scan; `produce_ratio` defaults to 1/128, the value consistent with both
//! of the paper's statements ("the time to generate 1024 tasks is
//! negligible" and "with over 100 processors there are not enough tasks
//! produced"); see DESIGN.md.

use std::cell::RefCell;
use std::rc::Rc;

use sesame_core::builder::{BuildError, ModelChoice, ModelInstance, SystemBuilder};
use sesame_dsm::{AppEvent, Machine, Model, NodeApi, Program, RunResult, VarId, Word};
use sesame_net::{LinkTiming, NodeId};
use sesame_sim::{RunOutcome, SimDur};

use crate::scenario::{Outcome, RunError, Scenario};

/// Poll interval for [`NotifyMode::Poll`].
const POLL_INTERVAL: SimDur = SimDur::from_us(10);
/// Maximum random stagger before an awakened consumer requests the lock.
/// Re-checking the eagerly-shared count after the stagger lets most of a
/// wake-up herd stand down locally instead of queueing futile lock
/// requests (the local-copy test the paper builds on).
const STAGGER_MAX: SimDur = SimDur::from_us(5);
/// Software protocol-handler time for entry consistency. Sesame's GWC
/// runs in dedicated sharing hardware; entry consistency (Midway) is a
/// software DSM whose handlers execute on the 33-MFLOPS host CPUs. The
/// paper gives no figure; 6 µs is calibrated so that EC peaks at 33 CPUs
/// with the published link constants. See DESIGN.md.
pub const EC_HANDLER: SimDur = SimDur::from_us(6);

/// How idle nodes learn that shared state changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifyMode {
    /// Wait for pushed updates (eagersharing / cache update).
    Push,
    /// Re-fetch on a timer (demand-fetch models).
    Poll {
        /// Interval between polls.
        interval: SimDur,
    },
}

impl NotifyMode {
    /// The natural mode for a memory model: push for GWC and
    /// weak/release, poll for entry consistency.
    fn for_model(model: ModelChoice) -> Self {
        match model {
            ModelChoice::Entry => NotifyMode::Poll {
                interval: POLL_INTERVAL,
            },
            _ => NotifyMode::Push,
        }
    }
}

/// Parameters of the Figure 2 task-management experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskQueueConfig {
    /// Total tasks the producer generates (the paper uses 1024).
    pub total_tasks: u32,
    /// Task execution time.
    pub exec_time: SimDur,
    /// Production time as a fraction of execution time (see module docs).
    pub produce_ratio: f64,
    /// Bounded queue capacity.
    pub capacity: u32,
    /// Link timing.
    pub timing: LinkTiming,
}

impl Default for TaskQueueConfig {
    fn default() -> Self {
        TaskQueueConfig {
            total_tasks: 1024,
            exec_time: SimDur::from_ms(1),
            produce_ratio: 1.0 / 128.0,
            capacity: 64,
            timing: LinkTiming::paper_1994(),
        }
    }
}

/// Outcome of one task-management run.
#[derive(Debug)]
pub struct TaskQueueRun {
    /// The underlying machine-run result.
    pub result: RunResult<ModelInstance>,
    /// Tasks executed per consumer node (index 0 is consumer node 1).
    pub executed: Vec<u32>,
    /// Network power = total useful work / makespan — the paper's speedup
    /// metric.
    pub speedup: f64,
}

const LOCK: VarId = VarId::new(0);
const Q_COUNT: VarId = VarId::new(1);
const Q_HEAD: VarId = VarId::new(2);
const Q_TAIL: VarId = VarId::new(3);
const PROD_DONE: VarId = VarId::new(4);
const SLOT_BASE: u32 = 100;

fn slot(idx: Word, capacity: u32) -> VarId {
    VarId::new(SLOT_BASE + (idx as u64 % capacity as u64) as u32)
}

const TAG_PRODUCE: u64 = 1;
const TAG_EXEC: u64 = 2;
const TAG_POLL: u64 = 3;
const TAG_STAGGER: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProducerState {
    Producing,
    WantLock,
    WaitingSpace,
    Finished,
}

struct Producer {
    cfg: TaskQueueConfig,
    notify: NotifyMode,
    produced: u32,
    state: ProducerState,
}

impl Producer {
    fn produce_time(&self) -> SimDur {
        self.cfg.exec_time.mul_f64(self.cfg.produce_ratio)
    }
}

impl Program for Producer {
    fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
        match ev {
            AppEvent::Started => {
                api.compute(self.produce_time(), TAG_PRODUCE);
            }
            AppEvent::ComputeDone { tag: TAG_PRODUCE } => {
                self.state = ProducerState::WantLock;
                api.acquire(LOCK);
            }
            AppEvent::Acquired { lock } if lock == LOCK => {
                let count = api.read(Q_COUNT);
                if count >= self.cfg.capacity as Word {
                    // Queue full: release and wait for space.
                    self.state = ProducerState::WaitingSpace;
                    api.release(LOCK);
                    if let NotifyMode::Poll { interval } = self.notify {
                        api.set_timer(interval, TAG_POLL);
                    }
                    return;
                }
                let tail = api.read(Q_TAIL);
                api.write(slot(tail, self.cfg.capacity), self.produced as Word + 1);
                api.write(Q_TAIL, tail + 1);
                api.write(Q_COUNT, count + 1);
                api.release(LOCK);
                self.produced += 1;
                if self.produced < self.cfg.total_tasks {
                    self.state = ProducerState::Producing;
                    api.compute(self.produce_time(), TAG_PRODUCE);
                } else {
                    self.state = ProducerState::Finished;
                    api.write(PROD_DONE, 1);
                }
            }
            // Space opened up (push mode): retry the enqueue.
            AppEvent::Updated { var, value, .. }
                if var == Q_COUNT
                    && value < self.cfg.capacity as Word
                    && self.state == ProducerState::WaitingSpace =>
            {
                self.state = ProducerState::WantLock;
                api.acquire(LOCK);
            }
            AppEvent::TimerFired { tag: TAG_POLL } if self.state == ProducerState::WaitingSpace => {
                self.state = ProducerState::WantLock;
                api.acquire(LOCK);
            }
            _ => {}
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConsumerState {
    Idle,
    Staggering,
    CheckingCount,
    CheckingDone,
    WantLock,
    Executing,
    Finished,
}

struct Consumer {
    cfg: TaskQueueConfig,
    notify: NotifyMode,
    executed: u32,
    state: ConsumerState,
    rng: sesame_sim::DetRng,
    /// Current backoff ceiling: doubles on futile attempts and stand-downs
    /// (up to the task execution time), resets on a successful dequeue.
    backoff: SimDur,
    /// Lets the harness read results after the run.
    executed_out: ExecutedOut,
}

impl Consumer {
    fn check(&mut self, api: &mut NodeApi<'_>) {
        self.state = ConsumerState::CheckingCount;
        api.fetch(Q_COUNT);
    }

    fn go_idle(&mut self, api: &mut NodeApi<'_>) {
        self.state = ConsumerState::Idle;
        if let NotifyMode::Poll { interval } = self.notify {
            let wait = interval.max(SimDur::from_nanos(
                self.rng.next_below(self.backoff.as_nanos().max(1)),
            ));
            api.set_timer(wait, TAG_POLL);
        }
        // Push mode: an Updated(Q_COUNT) will wake us.
    }

    /// A futile attempt (lost the race, or stood down after the stagger):
    /// double the backoff ceiling. Push mode keeps the ceiling small (the
    /// wake-up stagger must not delay real work); poll mode backs off much
    /// further because every futile attempt costs a full token transfer.
    fn widen_backoff(&mut self) {
        let cap = match self.notify {
            NotifyMode::Push => self.cfg.exec_time,
            NotifyMode::Poll { .. } => self.cfg.exec_time * 8,
        };
        self.backoff = (self.backoff * 2).min(cap);
    }

    /// A successful dequeue: contention is being served, reset.
    fn reset_backoff(&mut self) {
        self.backoff = STAGGER_MAX;
    }
}

impl Program for Consumer {
    fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
        match ev {
            AppEvent::Started => {
                // Stagger initial checks slightly to break the start herd.
                api.set_timer(SimDur::from_nanos(50 * api.id().get() as u64), TAG_POLL);
                self.state = ConsumerState::Idle;
            }
            AppEvent::TimerFired { tag: TAG_POLL } if self.state == ConsumerState::Idle => {
                self.check(api);
            }
            AppEvent::Updated { var, value, .. }
                if var == Q_COUNT && value > 0 && self.state == ConsumerState::Idle =>
            {
                // Stand by for a random beat, then re-check the local copy:
                // most of the wake-up herd sees the queue already drained
                // and stands down without any network traffic.
                self.state = ConsumerState::Staggering;
                let max = self.backoff.as_nanos().max(1);
                let wait = SimDur::from_nanos(self.rng.next_below(max));
                api.set_timer(wait, TAG_STAGGER);
            }
            AppEvent::TimerFired { tag: TAG_STAGGER }
                if self.state == ConsumerState::Staggering =>
            {
                if api.read(Q_COUNT) > 0 {
                    self.state = ConsumerState::WantLock;
                    api.acquire(LOCK);
                } else {
                    self.widen_backoff();
                    self.go_idle(api);
                }
            }
            AppEvent::ValueReady { var, value } if var == Q_COUNT => {
                if self.state != ConsumerState::CheckingCount {
                    return;
                }
                if value > 0 {
                    self.state = ConsumerState::WantLock;
                    api.acquire(LOCK);
                } else {
                    self.state = ConsumerState::CheckingDone;
                    api.fetch(PROD_DONE);
                }
            }
            AppEvent::ValueReady { var, value } if var == PROD_DONE => {
                if self.state != ConsumerState::CheckingDone {
                    return;
                }
                if value == 1 {
                    // No work left and none coming: stop scheduling events.
                    self.state = ConsumerState::Finished;
                } else {
                    self.go_idle(api);
                }
            }
            AppEvent::Acquired { lock } if lock == LOCK => {
                let count = api.read(Q_COUNT);
                if count == 0 {
                    // Lost the race for the last task.
                    self.widen_backoff();
                    api.release(LOCK);
                    return;
                }
                let head = api.read(Q_HEAD);
                let _task = api.read(slot(head, self.cfg.capacity));
                api.write(Q_HEAD, head + 1);
                api.write(Q_COUNT, count - 1);
                self.state = ConsumerState::Executing;
                self.reset_backoff();
                api.release(LOCK);
            }
            AppEvent::Released { lock } if lock == LOCK => {
                if self.state == ConsumerState::Executing {
                    api.compute(self.cfg.exec_time, TAG_EXEC);
                } else {
                    // Futile section: re-check the queue state.
                    self.check(api);
                }
            }
            AppEvent::ComputeDone { tag: TAG_EXEC } => {
                self.executed += 1;
                self.executed_out.borrow_mut()[api.id().index() - 1] = self.executed;
                self.check(api);
            }
            _ => {}
        }
    }
}

/// The per-consumer execution counts the consumers report into, indexed
/// by `node - 1`.
pub(crate) type ExecutedOut = Rc<RefCell<Vec<u32>>>;

/// Builds the Figure 2 system and the registry its consumers report into.
pub(crate) fn build(
    nodes: usize,
    model: ModelChoice,
    cfg: &TaskQueueConfig,
) -> Result<(Machine<ModelInstance>, ExecutedOut), BuildError> {
    let cfg = *cfg;
    let executed_out = Rc::new(RefCell::new(vec![0u32; nodes - 1]));
    let notify = NotifyMode::for_model(model);
    let queue_vars: Vec<VarId> = [LOCK, Q_COUNT, Q_HEAD, Q_TAIL]
        .into_iter()
        .chain((0..cfg.capacity).map(|i| VarId::new(SLOT_BASE + i)))
        .collect();
    let mut builder = SystemBuilder::new(nodes)
        .timing(cfg.timing)
        .model(model)
        .mutex_group(NodeId::new(0), queue_vars, LOCK)
        .shared_group(NodeId::new(0), vec![PROD_DONE]);
    builder.program(
        NodeId::new(0),
        Box::new(Producer {
            cfg,
            notify,
            produced: 0,
            state: ProducerState::Producing,
        }),
    );
    for i in 1..nodes {
        builder.program(
            NodeId::new(i as u32),
            Box::new(Consumer {
                cfg,
                notify,
                executed: 0,
                state: ConsumerState::Idle,
                rng: sesame_sim::DetRng::new(0x0005_1ea6 ^ ((i as u64) << 8)),
                backoff: STAGGER_MAX,
                executed_out: executed_out.clone(),
            }),
        );
    }
    let mut machine = builder.build()?;
    if let Some(ec) = machine.model_mut().as_entry_mut() {
        ec.set_handler_time(EC_HANDLER);
    }
    Ok((machine, executed_out))
}

/// Reads the execution counts; the oracle is task conservation — every
/// produced task executed exactly once.
pub(crate) fn finish(
    cfg: &TaskQueueConfig,
    result: RunResult<ModelInstance>,
    executed_out: &ExecutedOut,
) -> Result<TaskQueueRun, RunError> {
    let executed = executed_out.borrow().clone();
    let done: u32 = executed.iter().sum();
    if done != cfg.total_tasks {
        let detail = format!(
            "{done} of {} tasks executed under {} at {} nodes",
            cfg.total_tasks,
            result.machine.model().name(),
            result.machine.node_count()
        );
        return Err(match result.outcome {
            RunOutcome::Drained => {
                RunError::Violated("task-queue", format!("tasks lost or duplicated: {detail}"))
            }
            cut_short => RunError::Incomplete("task-queue", cut_short, detail),
        });
    }
    let speedup = result.network_power();
    Ok(TaskQueueRun {
        result,
        executed,
        speedup,
    })
}

/// Builds the Figure 2 system for `nodes` CPUs under `model`, returning
/// the machine and the shared per-consumer execution-count registry.
///
/// # Panics
///
/// Panics with the [`RunError`]'s text on an invalid configuration, e.g.
/// `nodes < 2` (one producer plus at least one consumer).
pub fn build_task_queue(
    nodes: usize,
    model: ModelChoice,
    cfg: TaskQueueConfig,
) -> (Machine<ModelInstance>, Rc<RefCell<Vec<u32>>>) {
    let scenario = Scenario::TaskQueue { nodes, model, cfg };
    scenario.validate().unwrap_or_else(|e| panic!("{e}"));
    build(nodes, model, &cfg).expect("valid figure-2 system")
}

/// Runs Figure 2 for one `(nodes, model)` point and reports the paper's
/// speedup metric.
///
/// # Panics
///
/// Panics with the [`RunError`]'s text on an invalid configuration or if
/// tasks were lost (executed counts must sum to the total).
pub fn run_task_queue(nodes: usize, model: ModelChoice, cfg: TaskQueueConfig) -> TaskQueueRun {
    match (Scenario::TaskQueue { nodes, model, cfg }).run(None) {
        Ok(Outcome::TaskQueue(run)) => run,
        Ok(other) => unreachable!("a task-queue scenario ended as {other:?}"),
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TaskQueueConfig {
        TaskQueueConfig {
            total_tasks: 48,
            exec_time: SimDur::from_us(100),
            ..TaskQueueConfig::default()
        }
    }

    #[test]
    fn gwc_conserves_tasks_and_speeds_up() {
        let run = run_task_queue(5, ModelChoice::Gwc, small());
        assert_eq!(run.executed.iter().sum::<u32>(), 48);
        assert!(run.speedup > 1.0, "speedup {}", run.speedup);
        assert!(run.speedup < 5.0);
        // With 4 consumers of equal speed, work spreads out.
        assert!(run.executed.iter().all(|&e| e > 0), "{:?}", run.executed);
    }

    #[test]
    fn entry_conserves_tasks_but_is_slower() {
        let gwc = run_task_queue(5, ModelChoice::Gwc, small());
        let entry = run_task_queue(5, ModelChoice::Entry, small());
        assert_eq!(entry.executed.iter().sum::<u32>(), 48);
        assert!(
            entry.speedup < gwc.speedup,
            "entry {} must trail gwc {}",
            entry.speedup,
            gwc.speedup
        );
    }

    #[test]
    fn zero_delay_beats_real_network() {
        let real = run_task_queue(5, ModelChoice::Gwc, small());
        let ideal_cfg = TaskQueueConfig {
            timing: LinkTiming::zero_delay(),
            ..small()
        };
        let ideal = run_task_queue(5, ModelChoice::Gwc, ideal_cfg);
        assert!(ideal.speedup >= real.speedup);
    }

    #[test]
    fn bounded_queue_capacity_is_respected() {
        // A tiny queue with slow consumers forces the producer to wait for
        // space; everything must still drain.
        let cfg = TaskQueueConfig {
            total_tasks: 24,
            capacity: 2,
            exec_time: SimDur::from_us(200),
            produce_ratio: 1.0 / 128.0,
            ..TaskQueueConfig::default()
        };
        let run = run_task_queue(3, ModelChoice::Gwc, cfg);
        assert_eq!(run.executed.iter().sum::<u32>(), 24);
        let run_ec = run_task_queue(3, ModelChoice::Entry, cfg);
        assert_eq!(run_ec.executed.iter().sum::<u32>(), 24);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_task_queue(4, ModelChoice::Gwc, small());
        let b = run_task_queue(4, ModelChoice::Gwc, small());
        assert_eq!(a.result.end, b.result.end);
        assert_eq!(a.executed, b.executed);
    }
}

//! The optimistic mutual exclusion engine — the paper's Figures 4 and 5 as
//! an explicit state machine.
//!
//! A program embeds one [`OptimisticMutex`] per lock it uses and drives it
//! with three calls:
//!
//! 1. [`OptimisticMutex::enter`] when it wants the critical section — the
//!    engine performs the atomic exchange of the local lock copy, updates
//!    the usage-frequency history, and picks the optimistic or regular path
//!    (Figure 4 lines 01–07);
//! 2. [`OptimisticMutex::on_event`] for **every** [`AppEvent`] the program
//!    receives — the engine consumes its own compute completions and lock
//!    changes, and tells the program when to act;
//! 3. [`OptimisticMutex::body_done`] after the program has executed its
//!    section body (the shared reads and writes) in response to
//!    [`MutexSignal::ExecuteBody`].
//!
//! On the optimistic path the engine saves the declared write set, starts
//! the section's computation immediately, and lets the optimistic shared
//! writes stream to the group root, which discards them if another
//! processor got the lock first. If the armed lock-change interrupt
//! delivers another processor's grant, the engine rolls back: it cancels
//! the in-flight computation, restores the saved values (insharing stays
//! suspended so newly arrived valid data cannot be clobbered — the hazard
//! the paper's Figure 6 hardware blocking addresses), resumes insharing,
//! and re-executes the section once its own grant arrives.

use std::error::Error;
use std::fmt;

use sesame_dsm::{lockval, AppEvent, NodeApi, VarId, Word};
use sesame_sim::{SimDur, TraceDetail, TraceKind};

use crate::UsageHistory;

/// Compute tags at or above this value are reserved for mutex engines;
/// programs must keep their own tags below it.
pub const MUTEX_TAG_BASE: u64 = 1 << 62;

/// Configuration of one optimistic mutex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimisticConfig {
    /// EWMA smoothing factor (the paper uses 0.05).
    pub alpha: f64,
    /// Usage threshold above which the regular path is taken (the paper
    /// suggests 0.30).
    pub threshold: f64,
    /// When `false`, every entry takes the regular path — the
    /// non-optimistic GWC locking baseline of Figure 8.
    pub optimistic: bool,
}

impl Default for OptimisticConfig {
    fn default() -> Self {
        OptimisticConfig {
            alpha: 0.05,
            threshold: 0.30,
            optimistic: true,
        }
    }
}

/// A deliberately planted engine bug, used as a regression fixture for
/// the `sesame-check` model checker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MutexMutation {
    /// The correct engine.
    #[default]
    None,
    /// Rollback skips restoring the saved write-set values: the discarded
    /// optimistic section's writes survive in local memory after the
    /// rollback — exactly the lost-update hazard lines 22–24 of Figure 4
    /// exist to prevent.
    DropRollback,
}

/// Which path [`OptimisticMutex::enter`] chose (Figure 4 line 07).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Execution of the critical section started immediately; the lock
    /// request is in flight.
    Optimistic,
    /// The local evidence indicated recent lock usage; the engine waits for
    /// the grant before executing.
    Regular,
}

/// What the program must do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutexSignal {
    /// Execute the section body now — read the shared inputs and perform
    /// the shared writes through the [`NodeApi`] — then call
    /// [`OptimisticMutex::body_done`]. May be signalled twice for one entry
    /// if a rollback forced re-execution.
    ExecuteBody,
    /// The section completed and the lock was released.
    Completed(Completion),
}

/// Details of a completed critical-section entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The path chosen at entry.
    pub path: Path,
    /// Number of rollbacks suffered before success.
    pub rollbacks: u32,
    /// Whether the lock grant had already arrived when the optimistic
    /// computation finished (the fully overlapped best case).
    pub fully_overlapped: bool,
}

/// Counters over the life of one mutex.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimisticStats {
    /// Entries that took the optimistic path.
    pub optimistic_attempts: u64,
    /// Entries that took the regular path.
    pub regular_attempts: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Free "flickers" observed while waiting optimistically (the lock
    /// freed and the interrupt re-armed).
    pub free_flickers: u64,
    /// Completed entries.
    pub completions: u64,
    /// Optimistic completions whose grant arrived before the computation
    /// finished.
    pub fully_overlapped: u64,
}

/// Error returned when a program re-enters a mutex it is already inside
/// (the paper's Figure 4 line 28).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NestedMutexError;

impl fmt::Display for NestedMutexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot safely nest mutex lock requests")
    }
}

impl Error for NestedMutexError {}

#[derive(Debug, Clone, PartialEq)]
enum State {
    /// Not inside the protocol.
    Idle,
    /// Optimistic execution in progress (Figure 4 lines 14–19).
    Optimistic {
        computing: bool,
        body_ran: bool,
        granted: bool,
        rollbacks: u32,
    },
    /// Waiting for the grant without executing: the regular path, or
    /// `reg-wait` after a rollback.
    Waiting { path: Path, rollbacks: u32 },
    /// Grant received on the regular/rollback path; section computation
    /// running (Figure 4 lines 10–12).
    PostGrantCompute { path: Path, rollbacks: u32 },
    /// Body signalled on the regular/rollback path; waiting for
    /// `body_done`.
    AwaitBody { path: Path, rollbacks: u32 },
    /// Release issued; waiting for its completion event.
    Releasing(Completion),
}

/// The optimistic mutual exclusion engine for one lock on one node.
#[derive(Debug)]
pub struct OptimisticMutex {
    lock: VarId,
    config: OptimisticConfig,
    history: UsageHistory,
    state: State,
    section: SimDur,
    write_set: Vec<VarId>,
    saved: Vec<(VarId, Word)>,
    epoch: u64,
    stats: OptimisticStats,
    mutation: MutexMutation,
}

impl OptimisticMutex {
    /// Creates the engine for `lock`, declaring the shared variables the
    /// section writes (`write_set`) so they can be saved for rollback.
    pub fn new(lock: VarId, write_set: Vec<VarId>, config: OptimisticConfig) -> Self {
        let history = UsageHistory::new(config.alpha, config.threshold);
        OptimisticMutex {
            lock,
            config,
            history,
            state: State::Idle,
            section: SimDur::ZERO,
            write_set,
            saved: Vec::new(),
            epoch: 0,
            stats: OptimisticStats::default(),
            mutation: MutexMutation::None,
        }
    }

    /// Plants `mutation` into the engine (checker regression fixtures).
    pub fn set_mutation(&mut self, mutation: MutexMutation) {
        self.mutation = mutation;
    }

    /// Hash of the engine's logical state — protocol state machine, saved
    /// write set, usage history — for `sesame-check` state-revisit pruning
    /// (building block for [`sesame_dsm::Program::digest`]
    /// implementations). Statistics are excluded; the history estimate is
    /// included because it steers the optimistic/regular path choice.
    pub fn state_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.lock.get().hash(&mut h);
        self.history.value().to_bits().hash(&mut h);
        match &self.state {
            State::Idle => 0u8.hash(&mut h),
            State::Optimistic {
                computing,
                body_ran,
                granted,
                rollbacks,
            } => (1u8, computing, body_ran, granted, rollbacks).hash(&mut h),
            State::Waiting { path, rollbacks } => {
                (2u8, *path == Path::Optimistic, rollbacks).hash(&mut h)
            }
            State::PostGrantCompute { path, rollbacks } => {
                (3u8, *path == Path::Optimistic, rollbacks).hash(&mut h)
            }
            State::AwaitBody { path, rollbacks } => {
                (4u8, *path == Path::Optimistic, rollbacks).hash(&mut h)
            }
            State::Releasing(c) => (
                5u8,
                c.path == Path::Optimistic,
                c.rollbacks,
                c.fully_overlapped,
            )
                .hash(&mut h),
        }
        for &(var, val) in &self.saved {
            (var.get(), val).hash(&mut h);
        }
        self.epoch.hash(&mut h);
        h.finish()
    }

    /// The lock this engine manages.
    pub fn lock(&self) -> VarId {
        self.lock
    }

    /// Counters so far.
    pub fn stats(&self) -> OptimisticStats {
        self.stats
    }

    /// The usage-frequency history.
    pub fn history(&self) -> &UsageHistory {
        &self.history
    }

    /// Whether the engine is between [`OptimisticMutex::enter`] and
    /// [`MutexSignal::Completed`].
    pub fn is_active(&self) -> bool {
        self.state != State::Idle
    }

    fn compute_tag(&self) -> u64 {
        MUTEX_TAG_BASE | self.epoch
    }

    fn start_compute(&mut self, api: &mut NodeApi<'_>) {
        self.epoch += 1;
        api.compute(self.section, self.compute_tag());
    }

    /// Begins one critical-section entry whose computation lasts
    /// `section`; Figure 4 lines 01–16.
    ///
    /// Returns the chosen [`Path`].
    ///
    /// # Errors
    ///
    /// Returns [`NestedMutexError`] if the engine is already active.
    pub fn enter(
        &mut self,
        api: &mut NodeApi<'_>,
        section: SimDur,
    ) -> Result<Path, NestedMutexError> {
        if self.state != State::Idle {
            return Err(NestedMutexError); // line 28
        }
        self.section = section;
        self.saved.clear(); // line 02: variables_saved = NO

        // Canonical entry event for trace-level checkers, before the
        // request write so they learn the lock variable first.
        if api.tracing() {
            api.trace(
                TraceKind::MutexEnter,
                TraceDetail::Var {
                    var: self.lock.get(),
                },
            );
        }

        // Lines 03–04: atomically exchange the request value into the local
        // lock copy, keeping the previous value.
        let old_val = api.lock_exchange(self.lock);

        // Line 05: update the usage-frequency history from local evidence.
        let held_by_other = lockval::as_grant(old_val)
            .map(|holder| holder != api.id())
            .unwrap_or(false);
        self.history.observe(held_by_other);

        // Line 07: does the local copy, the old value, or the history
        // indicate usage?
        let usage_indicated = held_by_other || !self.history.is_quiet();
        if !self.config.optimistic || usage_indicated {
            // Lines 08–10: regular path; the interrupt is never armed and
            // the engine waits for the grant before executing.
            self.stats.regular_attempts += 1;
            self.state = State::Waiting {
                path: Path::Regular,
                rollbacks: 0,
            };
            if api.tracing() {
                api.trace(
                    TraceKind::MutexRegular,
                    TraceDetail::Var {
                        var: self.lock.get(),
                    },
                );
            }
            return Ok(Path::Regular);
        }

        // Line 06: watch for any lock change, atomically coupled with
        // insharing suspension when it fires.
        if api.tracing() {
            api.trace(
                TraceKind::OptEnter,
                TraceDetail::Var {
                    var: self.lock.get(),
                },
            );
        }
        api.arm_lock_interrupt(self.lock);

        // Lines 14–16: save the variables the section will change.
        self.saved = self
            .write_set
            .iter()
            .map(|&var| (var, api.read(var)))
            .collect();
        if api.tracing() {
            for &(var, val) in &self.saved {
                api.trace(
                    TraceKind::OptSave,
                    TraceDetail::VarVal {
                        var: var.get(),
                        val,
                    },
                );
            }
        }

        // Line 17 onward: compute immediately, overlapping the lock
        // request's round trip.
        self.stats.optimistic_attempts += 1;
        self.state = State::Optimistic {
            computing: true,
            body_ran: false,
            granted: false,
            rollbacks: 0,
        };
        self.start_compute(api);
        if api.tracing() {
            api.trace(
                TraceKind::MutexOptimistic,
                TraceDetail::Var {
                    var: self.lock.get(),
                },
            );
        }
        Ok(Path::Optimistic)
    }

    /// Feeds one application event to the engine. Returns a signal when the
    /// program must act; `None` when the event was consumed internally or
    /// is not the engine's concern.
    pub fn on_event(&mut self, event: &AppEvent, api: &mut NodeApi<'_>) -> Option<MutexSignal> {
        match (event, &self.state) {
            // ---- Section computation finished -------------------------
            (&AppEvent::ComputeDone { tag }, _) if tag >= MUTEX_TAG_BASE => {
                if tag != self.compute_tag() {
                    return None; // a cancelled epoch's stale completion
                }
                match self.state.clone() {
                    State::Optimistic {
                        computing: true,
                        body_ran: false,
                        granted,
                        rollbacks,
                    } => {
                        // Lines 17–18: the computation is done; the program
                        // now performs the (optimistic) shared writes.
                        self.state = State::Optimistic {
                            computing: false,
                            body_ran: false,
                            granted,
                            rollbacks,
                        };
                        Some(MutexSignal::ExecuteBody)
                    }
                    State::PostGrantCompute { path, rollbacks } => {
                        // Lines 11–12 on the regular path.
                        self.state = State::AwaitBody { path, rollbacks };
                        Some(MutexSignal::ExecuteBody)
                    }
                    other => {
                        debug_assert!(
                            false,
                            "mutex compute completed in unexpected state {other:?}"
                        );
                        None
                    }
                }
            }

            // ---- Armed interrupt fired (Figure 5); insharing suspended --
            (&AppEvent::LockChanged { var, value }, _) if var == self.lock => {
                self.handle_lock_interrupt(value, api)
            }

            // ---- Ordinary lock-copy updates while waiting ---------------
            (&AppEvent::Updated { var, value, .. }, State::Waiting { path, rollbacks })
                if var == self.lock =>
            {
                let (path, rollbacks) = (*path, *rollbacks);
                if value == lockval::grant(api.id()) {
                    // Line 10: the wait is over; execute the section.
                    if api.tracing() {
                        api.trace(
                            TraceKind::MutexGranted,
                            TraceDetail::Var {
                                var: self.lock.get(),
                            },
                        );
                    }
                    self.state = State::PostGrantCompute { path, rollbacks };
                    self.start_compute(api);
                } else if lockval::as_grant(value).is_some() {
                    self.history.observe(true);
                }
                None
            }

            // ---- Release completed --------------------------------------
            (&AppEvent::Released { lock }, State::Releasing(done)) if lock == self.lock => {
                let done = *done;
                self.state = State::Idle;
                self.stats.completions += 1;
                // Canonical completion event: which path won, how many
                // rollbacks it took, and whether communication was fully
                // overlapped — the per-entry record telemetry aggregates
                // into optimism win/hit-rate counters.
                if api.tracing() {
                    api.trace(
                        TraceKind::MutexComplete,
                        TraceDetail::Complete {
                            var: self.lock.get(),
                            optimistic: done.path == Path::Optimistic,
                            rollbacks: done.rollbacks,
                            overlapped: done.fully_overlapped,
                        },
                    );
                }
                Some(MutexSignal::Completed(done))
            }

            _ => None,
        }
    }

    /// Figure 5: the lock changed while the interrupt was armed; insharing
    /// is suspended until the engine resumes it.
    fn handle_lock_interrupt(&mut self, value: Word, api: &mut NodeApi<'_>) -> Option<MutexSignal> {
        let State::Optimistic {
            computing,
            body_ran,
            granted: _,
            rollbacks,
        } = self.state.clone()
        else {
            // An interrupt can only fire while optimistic; a stale interrupt
            // after completion is ignored (it was disarmed on first fire).
            api.resume_insharing();
            return None;
        };

        if value == lockval::grant(api.id()) {
            // P2: permission for the local CPU. Resume insharing and either
            // release (body already ran) or keep computing.
            if api.tracing() {
                api.trace(
                    TraceKind::MutexGranted,
                    TraceDetail::Var {
                        var: self.lock.get(),
                    },
                );
            }
            api.resume_insharing();
            if body_ran {
                return self.release(api, Path::Optimistic, rollbacks, true);
            }
            self.state = State::Optimistic {
                computing,
                body_ran,
                granted: true,
                rollbacks,
            };
            return None;
        }

        if lockval::is_free(value) {
            // P2: the lock flickered free (its previous user released before
            // our request reached the root). Re-arm and continue.
            self.stats.free_flickers += 1;
            api.arm_lock_interrupt(self.lock);
            api.resume_insharing();
            return None;
        }

        // Another processor got the lock: roll back (lines 22–26).
        debug_assert!(lockval::as_grant(value).is_some(), "unexpected lock value");
        self.history.observe(true); // P9
        self.stats.rollbacks += 1;
        // Canonical rollback event, before the restores so the checkers
        // see the `acc-write-local` restorations as part of the rollback.
        if api.tracing() {
            api.trace(
                TraceKind::OptRollback,
                TraceDetail::Var {
                    var: self.lock.get(),
                },
            );
            // Blame attribution: the lock value names the winner whose
            // remote write invalidated this section. Telemetry pairs this
            // with the rollback's causal point for per-rollback reports.
            if let Some(writer) = lockval::as_grant(value) {
                api.trace(
                    TraceKind::OptConflict,
                    TraceDetail::Conflict {
                        var: self.lock.get(),
                        writer: writer.get(),
                    },
                );
            }
        }
        if computing {
            api.cancel_compute();
            self.epoch += 1; // invalidate the in-flight completion
        }
        // Restore saved values while insharing is still suspended, so the
        // other processor's incoming valid data cannot be overwritten.
        if self.mutation != MutexMutation::DropRollback {
            for &(var, val) in &self.saved {
                api.write_local(var, val);
            }
        }
        self.saved.clear(); // line 24: variables_saved = NO
        api.resume_insharing(); // line 25
        if api.tracing() {
            api.trace(
                TraceKind::MutexRollback,
                TraceDetail::Var {
                    var: self.lock.get(),
                },
            );
        }
        self.state = State::Waiting {
            path: Path::Optimistic,
            rollbacks: rollbacks + 1,
        };
        None
    }

    /// The program finished executing the section body (its shared reads
    /// and writes). Returns a signal if the entry completed.
    ///
    /// # Panics
    ///
    /// Panics if called when no body execution was requested.
    pub fn body_done(&mut self, api: &mut NodeApi<'_>) -> Option<MutexSignal> {
        match self.state.clone() {
            State::Optimistic {
                computing: false,
                body_ran: false,
                granted,
                rollbacks,
            } => {
                if granted {
                    // Grant already arrived: communication fully overlapped.
                    self.release(api, Path::Optimistic, rollbacks, true)
                } else {
                    // Line 19: wait until the lock answer arrives.
                    self.state = State::Optimistic {
                        computing: false,
                        body_ran: true,
                        granted: false,
                        rollbacks,
                    };
                    None
                }
            }
            State::AwaitBody { path, rollbacks } => self.release(api, path, rollbacks, false),
            other => panic!("body_done called in state {other:?}"),
        }
    }

    /// Line 27: release the lock and await the completion event.
    fn release(
        &mut self,
        api: &mut NodeApi<'_>,
        path: Path,
        rollbacks: u32,
        fully_overlapped: bool,
    ) -> Option<MutexSignal> {
        if fully_overlapped {
            self.stats.fully_overlapped += 1;
        }
        api.release(self.lock);
        self.state = State::Releasing(Completion {
            path,
            rollbacks,
            fully_overlapped,
        });
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_error_displays() {
        let e = NestedMutexError;
        assert_eq!(e.to_string(), "cannot safely nest mutex lock requests");
    }

    #[test]
    fn new_engine_is_idle() {
        let m = OptimisticMutex::new(
            VarId::new(0),
            vec![VarId::new(1)],
            OptimisticConfig::default(),
        );
        assert!(!m.is_active());
        assert_eq!(m.stats(), OptimisticStats::default());
        assert_eq!(m.lock(), VarId::new(0));
        assert!(m.history().is_quiet());
    }

    #[test]
    fn default_config_matches_paper() {
        let c = OptimisticConfig::default();
        assert_eq!(c.alpha, 0.05);
        assert_eq!(c.threshold, 0.30);
        assert!(c.optimistic);
    }

    #[test]
    fn tag_space_is_reserved() {
        let m = OptimisticMutex::new(VarId::new(0), vec![], OptimisticConfig::default());
        assert!(m.compute_tag() >= MUTEX_TAG_BASE);
    }
}

//! Canonical model-checking configurations for `sesame-check`.
//!
//! Tiny, fully deterministic systems — 2–3 contending CPUs plus a root,
//! one lock and one shared counter, no RNG and no think timers — whose
//! entire nondeterminism is the event *order*, exactly what the schedule
//! explorer controls. Each contender enters its critical section the
//! moment it starts, increments the shared counter, and re-enters
//! immediately on completion until its round budget is spent.
//!
//! The programs implement [`Program::digest`] so the whole machine is
//! state-hashable: the explorer can fold identical interleaving prefixes
//! together. Planted bugs from [`sesame_core::MutexMutation`] and
//! [`sesame_dsm::GwcMutation`] are threaded through [`CanonicalConfig`]
//! so the checker's regression suite can assert each one is caught.

use sesame_core::builder::{BuildError, ModelChoice, ModelInstance, SystemBuilder, TopologyChoice};
use sesame_core::{MutexMutation, MutexSignal, OptimisticConfig, OptimisticMutex};
use sesame_dsm::{
    AppEvent, GwcMutation, Machine, MachineConfig, NodeApi, Program, RunResult, VarId, Word,
};
use sesame_net::{LinkTiming, NodeId};
use sesame_sim::{RunOutcome, SimDur};

use crate::scenario::RunError;

/// The lock variable of the canonical mutex group.
pub const LOCK: VarId = VarId::new(0);
/// The shared counter protected by [`LOCK`].
pub const COUNTER: VarId = VarId::new(1);

/// Parameters of one canonical checking configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CanonicalConfig {
    /// Number of contending CPUs (the system adds one root node, so the
    /// canonical "2-CPU" config is `contenders: 2` on a 3-node system).
    pub contenders: u32,
    /// Critical sections each contender executes.
    pub rounds: u32,
    /// Optimistic-engine configuration.
    pub mutex: OptimisticConfig,
    /// Planted protocol bug in the GWC model (root + member interfaces).
    pub gwc_mutation: GwcMutation,
    /// Planted engine bug in every contender's optimistic mutex.
    pub mutex_mutation: MutexMutation,
}

impl Default for CanonicalConfig {
    fn default() -> Self {
        CanonicalConfig {
            contenders: 2,
            rounds: 1,
            mutex: OptimisticConfig::default(),
            gwc_mutation: GwcMutation::None,
            mutex_mutation: MutexMutation::None,
        }
    }
}

impl CanonicalConfig {
    /// The counter value every correct interleaving must end with.
    pub fn expected_counter(&self) -> Word {
        self.contenders as Word * self.rounds as Word
    }
}

/// A contender with no think time: enter on start, re-enter on completion.
struct CanonicalHammer {
    mutex: OptimisticMutex,
    rounds: u32,
}

impl CanonicalHammer {
    fn enter(&mut self, api: &mut NodeApi<'_>) {
        self.mutex
            .enter(api, SimDur::ZERO)
            .expect("canonical hammer never nests");
    }
}

impl Program for CanonicalHammer {
    fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
        if ev == AppEvent::Started {
            if self.rounds > 0 {
                self.enter(api);
            }
            return;
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
                if self.rounds > 0 {
                    self.enter(api);
                }
            }
            None => {}
        }
    }

    fn digest(&self) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.mutex.state_digest().hash(&mut h);
        self.rounds.hash(&mut h);
        Some(h.finish())
    }
}

/// Builds the canonical system: node 0 is the mutex-group root, nodes
/// `1..=contenders` run the counter-hammering contender program, links
/// are unit-cost full mesh, and any planted mutations are installed.
pub(crate) fn build(cfg: &CanonicalConfig) -> Result<Machine<ModelInstance>, BuildError> {
    let nodes = cfg.contenders as usize + 1;
    let mut builder = SystemBuilder::new(nodes)
        .topology(TopologyChoice::FullMesh)
        .timing(LinkTiming::unit())
        .model(ModelChoice::Gwc)
        .machine_config(MachineConfig::default())
        .mutex_group(NodeId::new(0), vec![LOCK, COUNTER], LOCK);
    for i in 1..=cfg.contenders {
        let mut mutex = OptimisticMutex::new(LOCK, vec![COUNTER], cfg.mutex);
        mutex.set_mutation(cfg.mutex_mutation);
        builder = builder.program(
            NodeId::new(i),
            Box::new(CanonicalHammer {
                mutex,
                rounds: cfg.rounds,
            }),
        );
    }
    let mut machine = builder.build()?;
    machine
        .model_mut()
        .as_gwc_mut()
        .expect("canonical model is GWC")
        .set_mutation(cfg.gwc_mutation);
    Ok(machine)
}

/// The oracle of a drained run: the root's counter equals the section
/// count. (The programs report nothing, so there is no probe, and nothing
/// to add to the result.)
pub(crate) fn finish(
    cfg: &CanonicalConfig,
    result: RunResult<ModelInstance>,
) -> Result<RunResult<ModelInstance>, RunError> {
    let counter = result.machine.mem(NodeId::new(0)).read(COUNTER);
    let want = cfg.expected_counter();
    if result.outcome != RunOutcome::Drained {
        let left = format!("the counter reads {counter} of {want}");
        return Err(RunError::Incomplete("canonical", result.outcome, left));
    }
    if counter != want {
        let what =
            format!("mutual exclusion: the shared counter reads {counter} after {want} sections");
        return Err(RunError::Violated("canonical", what));
    }
    Ok(result)
}

/// Builds the canonical machine for a caller that drives it itself (the
/// `sesame-check` explorer steps it event by event, and may build zero
/// rounds or planted mutations on purpose, so nothing is validated here).
///
/// # Panics
///
/// Panics if the builder rejects the configuration (it never does: a
/// system of `contenders + 1` nodes always has its root).
pub fn build_canonical(cfg: CanonicalConfig) -> Machine<ModelInstance> {
    build(&cfg).expect("valid canonical system")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesame_dsm::{run, RunOptions};

    #[test]
    fn default_schedule_is_correct_and_counts_sections() {
        let cfg = CanonicalConfig {
            contenders: 3,
            rounds: 2,
            ..CanonicalConfig::default()
        };
        let machine = build_canonical(cfg);
        let result = run(machine, RunOptions::default());
        let counter = result.machine.mem(NodeId::new(0)).read(COUNTER);
        assert_eq!(counter, cfg.expected_counter());
    }

    #[test]
    fn machine_is_fully_digestible() {
        let machine = build_canonical(CanonicalConfig::default());
        assert!(
            machine.state_digest().is_some(),
            "every model and program must implement digest()"
        );
    }

    #[test]
    fn digests_distinguish_progress() {
        let cfg = CanonicalConfig::default();
        let before = build_canonical(cfg).state_digest();
        let result = run(build_canonical(cfg), RunOptions::default());
        assert_ne!(before, result.machine.state_digest());
    }
}

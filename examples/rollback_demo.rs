//! The paper's Figure 7 interaction, narrated: a far-away optimistic
//! requester loses the race, rolls back, and re-executes — while the
//! Figure 6 hardware blocking drops the poisonous echo of its rolled-back
//! optimistic write. Runs twice, with and without hardware blocking, to
//! show the corruption the mechanism prevents.
//!
//! Run with: `cargo run -p sesame-examples --bin rollback_demo`

use sesame_core::builder::{ModelChoice, SystemBuilder};
use sesame_core::{MutexSignal, OptimisticConfig, OptimisticMutex};
use sesame_dsm::{lockval, run, AppEvent, GwcMutation, NodeApi, Program, RunOptions, VarId, Word};
use sesame_net::{Line, NodeId};
use sesame_sim::{ApplyMode, SimDur, TraceDetail, TraceKind as K};

const LOCK: VarId = VarId::new(0);
const DATA: VarId = VarId::new(1);

struct Actor9 {
    mutex: Option<OptimisticMutex>, // None = plain acquire/release
    section: SimDur,
    contribution: Word,
}

impl Program for Actor9 {
    fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
        match &mut self.mutex {
            Some(m) => {
                if ev == AppEvent::Started {
                    m.enter(api, self.section).unwrap();
                    return;
                }
                match m.on_event(&ev, api) {
                    Some(MutexSignal::ExecuteBody) => {
                        let a = api.read(DATA);
                        api.write(DATA, a * 10 + self.contribution);
                        m.body_done(api);
                    }
                    Some(MutexSignal::Completed(c)) => {
                        println!(
                            "optimist finished at {}: {} rollback(s)",
                            api.now(),
                            c.rollbacks
                        );
                    }
                    None => {}
                }
            }
            None => match ev {
                AppEvent::Started => api.acquire(LOCK),
                AppEvent::Acquired { .. } => api.compute(self.section, 1),
                AppEvent::ComputeDone { .. } => {
                    let a = api.read(DATA);
                    api.write(DATA, a * 10 + self.contribution);
                    api.release(LOCK);
                }
                _ => {}
            },
        }
    }
}

fn scenario(mutation: GwcMutation) -> Word {
    // Line of 7: the optimist at node 0 is 5 hops from the root at node 5;
    // the competitor at node 6 sits right next to it. The competitor's
    // whole lock session reaches the root before the optimist's request
    // does, so the optimist's in-flight update is *accepted* — and its
    // echo must be dropped at the source.
    let mut builder = SystemBuilder::new(7)
        .topology(Line::new(7))
        .model(ModelChoice::Gwc)
        .mutex_group(NodeId::new(5), vec![DATA], LOCK);
    builder
        .init_var(DATA, 1)
        .program(
            NodeId::new(0),
            Box::new(Actor9 {
                mutex: Some(OptimisticMutex::new(
                    LOCK,
                    vec![DATA],
                    OptimisticConfig::default(),
                )),
                section: SimDur::from_nanos(1100),
                contribution: 7,
            }),
        )
        .program(
            NodeId::new(6),
            Box::new(Actor9 {
                mutex: None,
                section: SimDur::from_nanos(100),
                contribution: 2,
            }),
        );
    let mut machine = builder.build().expect("valid system");
    machine
        .model_mut()
        .as_gwc_mut()
        .expect("a GWC machine")
        .set_mutation(mutation);
    let result = run(
        machine,
        RunOptions {
            tracing: true,
            ..RunOptions::default()
        },
    );
    println!("--- protocol trace ---");
    for e in result.trace.entries() {
        // The mutex engine's steps, the lock's life at the root, and every
        // discarded write: filtered at the root, or hardware-blocked at
        // its writer.
        let hw_blocked = matches!(
            e.detail,
            TraceDetail::Apply {
                mode: ApplyMode::HwBlocked,
                ..
            }
        );
        if hw_blocked
            || matches!(
                e.kind,
                K::MutexEnter
                    | K::MutexRegular
                    | K::MutexOptimistic
                    | K::MutexGranted
                    | K::MutexRollback
                    | K::MutexComplete
                    | K::LockAcquire
                    | K::LockRelease
                    | K::RootGrant
                    | K::RootRelease
                    | K::RootQueue
                    | K::LockQueued
                    | K::RootFiltered
            )
        {
            println!("{e}");
        }
    }
    result.machine.mem(NodeId::new(0)).read(DATA)
}

fn main() {
    assert_eq!(lockval::FREE, -99_999_999, "the paper's free sentinel");
    println!("=== with hardware blocking (Figure 6) ===");
    let good = scenario(GwcMutation::None);
    println!("final value everywhere: {good}  (competitor 1->12, optimist 12->127)\n");
    println!("=== without hardware blocking ===");
    let bad = scenario(GwcMutation::NoHwBlock);
    println!("final value everywhere: {bad}  (the stale echo 17 corrupted the re-execution)");
    assert_eq!(good, 127);
    assert_eq!(bad, 177);
}

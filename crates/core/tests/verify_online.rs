//! Online verification of the optimistic mutual-exclusion engine: the
//! `sesame-verify` checkers attach to a live contention run as a
//! [`sesame_sim::TraceObserver`] and must stay silent across optimistic
//! entries, rollbacks, and free-flicker re-arms — without the run
//! retaining any trace in memory.

use std::cell::RefCell;
use std::rc::Rc;

use sesame_core::builder::SystemBuilder;
use sesame_core::{MutexSignal, OptimisticConfig, OptimisticMutex, OptimisticStats};
use sesame_dsm::{run_observed, AppEvent, NodeApi, Program, RunOptions, VarId, Word};
use sesame_net::NodeId;
use sesame_sim::SimDur;
use sesame_verify::Verifier;

const LOCK: VarId = VarId::new(0);
const COUNTER: VarId = VarId::new(1);
const TAG_ENTER: u64 = 1;

type StatsOut = Rc<RefCell<OptimisticStats>>;

/// A contender that repeatedly enters the optimistic mutex and increments
/// the shared counter, back to back, to force overlap and rollbacks.
struct Contender {
    mutex: OptimisticMutex,
    rounds: u32,
    section: SimDur,
    gap: SimDur,
    stats_out: StatsOut,
}

impl Program for Contender {
    fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
        match &ev {
            AppEvent::Started => {
                if self.rounds > 0 {
                    api.set_timer(self.gap, TAG_ENTER);
                }
                return;
            }
            AppEvent::TimerFired { tag: TAG_ENTER } => {
                self.mutex.enter(api, self.section).expect("never nested");
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
                *self.stats_out.borrow_mut() = self.mutex.stats();
                if self.rounds > 0 {
                    api.set_timer(self.gap, TAG_ENTER);
                }
            }
            None => {}
        }
    }
}

/// Three contenders hammer one optimistic lock while the verifier watches
/// the live event stream. Rollbacks must occur and nothing may be flagged.
#[test]
fn online_checking_of_optimistic_contention_is_clean() {
    const CONTENDERS: u32 = 3;
    const ROUNDS: u32 = 12;
    let stats: Vec<StatsOut> = (0..CONTENDERS)
        .map(|_| Rc::new(RefCell::new(OptimisticStats::default())))
        .collect();
    let mut builder = SystemBuilder::new(CONTENDERS as usize + 1).mutex_group(
        NodeId::new(0),
        vec![LOCK, COUNTER],
        LOCK,
    );
    for i in 1..=CONTENDERS {
        builder.program(
            NodeId::new(i),
            Box::new(Contender {
                mutex: OptimisticMutex::new(LOCK, vec![COUNTER], OptimisticConfig::default()),
                rounds: ROUNDS,
                section: SimDur::from_us(2),
                // Staggered short gaps keep the lock contended enough to
                // exercise both the optimistic and regular paths.
                gap: SimDur::from_us(3 * i as u64),
                stats_out: stats[i as usize - 1].clone(),
            }),
        );
    }
    let machine = builder.build().expect("valid system");

    let verifier = Rc::new(RefCell::new(Verifier::new()));
    let result = run_observed(
        machine,
        RunOptions {
            tracing: false, // observer only: nothing retained in memory
            ..RunOptions::default()
        },
        Some(verifier.clone()),
    );

    assert!(
        result.trace.entries().is_empty(),
        "online mode must not retain the trace"
    );
    assert_eq!(
        result.machine.mem(NodeId::new(0)).read(COUNTER),
        (CONTENDERS * ROUNDS) as Word,
        "mutual exclusion must hold"
    );
    let attempts: u64 = stats.iter().map(|s| s.borrow().optimistic_attempts).sum();
    assert!(attempts > 0, "optimistic path must be exercised");

    let mut verifier = verifier.borrow_mut();
    verifier.finish();
    assert!(
        verifier.violations().is_empty(),
        "online verification found:\n{}",
        verifier.report()
    );
}

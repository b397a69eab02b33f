//! Quickstart: build a small Sesame system, take a lock optimistically,
//! and watch the communication delay disappear under the computation.
//!
//! Run with: `cargo run -p sesame-examples --bin quickstart`

use sesame_core::builder::{ModelChoice, SystemBuilder};
use sesame_core::{MutexSignal, OptimisticConfig, OptimisticMutex, Path};
use sesame_dsm::{run, AppEvent, NodeApi, Program, RunOptions, VarId};
use sesame_net::NodeId;
use sesame_sim::SimDur;

const LOCK: VarId = VarId::new(0);
const DATA: VarId = VarId::new(1);

/// A node that enters one optimistic critical section at start, increments
/// the shared datum, and reports what happened.
struct Quick {
    mutex: OptimisticMutex,
}

impl Program for Quick {
    fn on_event(&mut self, ev: AppEvent, api: &mut NodeApi<'_>) {
        if ev == AppEvent::Started {
            // A 2us section; the lock lives at a root two hops away, so the
            // request round trip is ~1.1us — fully hidden by the section.
            let path = self
                .mutex
                .enter(api, SimDur::from_us(2))
                .expect("first entry cannot nest");
            println!(
                "entered the critical section on the {path:?} path at {}",
                api.now()
            );
            return;
        }
        match self.mutex.on_event(&ev, api) {
            Some(MutexSignal::ExecuteBody) => {
                let v = api.read(DATA);
                api.write(DATA, v + 1);
                self.mutex.body_done(api);
            }
            Some(MutexSignal::Completed(c)) => {
                println!(
                    "section complete at {}: path {:?}, rollbacks {}, grant fully overlapped: {}",
                    api.now(),
                    c.path,
                    c.rollbacks,
                    c.fully_overlapped
                );
                assert_eq!(c.path, Path::Optimistic);
                // No stop(): let the run drain so the write finishes
                // propagating to every member before we inspect memories.
            }
            None => {}
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Nine CPUs on a 3x3 mesh torus with the paper's link timing; one
    // mutex group guarding DATA, rooted (lock-managed) at node 4.
    let mut builder =
        SystemBuilder::new(9)
            .model(ModelChoice::Gwc)
            .mutex_group(NodeId::new(4), vec![DATA], LOCK);
    builder.program(
        NodeId::new(0),
        Box::new(Quick {
            mutex: OptimisticMutex::new(LOCK, vec![DATA], OptimisticConfig::default()),
        }),
    );
    let machine = builder.build()?;

    let result = run(machine, RunOptions::default());
    println!(
        "simulation ended at {} after {} events",
        result.end, result.events
    );
    for n in 0..9 {
        assert_eq!(result.machine.mem(NodeId::new(n)).read(DATA), 1);
    }
    println!("every node's eagerly shared copy of DATA is 1 — consistent.");
    Ok(())
}

//! A group root keeps only the sequenced writes a NACK can still name.
//! These runs of the canonical mutex under loss pin that down twice: the
//! outputs equal those of roots that kept every write they ever
//! sequenced, and the history left at the end is a handful of writes, not
//! one per write.

use std::hash::{Hash, Hasher};

use sesame_core::builder::ModelInstance;
use sesame_dsm::{run, GroupId, Machine, RunOptions, RunResult};
use sesame_net::NodeId;
use sesame_sim::SimDur;
use sesame_workloads::canonical::{build_canonical, CanonicalConfig};

/// The canonical mutex with `contenders` × `rounds` sections on a fabric
/// that loses `loss` of its multicast deliveries, with the 50 µs grant
/// watchdog on.
fn lossy_canonical(contenders: u32, rounds: u32, loss: f64, seed: u64) -> Machine<ModelInstance> {
    let mut machine = build_canonical(CanonicalConfig {
        contenders,
        rounds,
        ..CanonicalConfig::default()
    });
    machine.fabric_mut().set_loss(loss, seed);
    machine
        .model_mut()
        .as_gwc_mut()
        .expect("canonical model is GWC")
        .set_grant_watchdog(Some(SimDur::from_us(50)));
    machine
}

/// Everything a run outputs, on one line: the protocol and fabric
/// counters, the event count, the end time and a hash of every node's
/// memory.
fn outputs(result: &RunResult<ModelInstance>) -> String {
    let m = &result.machine;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for i in 0..m.node_count() {
        for (var, word) in m.mem(NodeId::new(i as u32)).iter() {
            (i, var.get(), word).hash(&mut h);
        }
    }
    format!(
        "{:?} {:?} events={} end={} mem={:016x}",
        m.model().as_gwc().expect("GWC").stats(),
        m.fabric_stats(),
        result.events,
        result.end.as_nanos(),
        h.finish()
    )
}

#[test]
fn lossy_canonical_runs_repeat_the_outputs_of_roots_that_kept_every_write() {
    let mut got = Vec::new();
    for loss in [0.05, 0.20] {
        for seed in [1, 7, 23] {
            let result = run(lossy_canonical(16, 200, loss, seed), RunOptions::default());
            got.push(format!("{loss} {seed} {}", outputs(&result)));
        }
    }
    let want = [
        "0.05 1 GwcStats { root_drops: 23, hw_block_drops: 3200, grants: 3200, queued_requests: 3199, nacks: 6512, retransmissions: 17437, grant_retransmissions: 168 } FabricStats { packets: 40141, bytes: 590160, link_traversals: 136156, losses: 5028, ser_ns: 0 } events=144137 end=8457037 mem=402840c8dbf42726",
        "0.05 7 GwcStats { root_drops: 23, hw_block_drops: 3200, grants: 3200, queued_requests: 3199, nacks: 6695, retransmissions: 17962, grant_retransmissions: 155 } FabricStats { packets: 40836, bytes: 599816, link_traversals: 136851, losses: 5100, ser_ns: 0 } events=144747 end=7806967 mem=5b5a100768cc956e",
        "0.05 23 GwcStats { root_drops: 23, hw_block_drops: 3200, grants: 3200, queued_requests: 3199, nacks: 6782, retransmissions: 18312, grant_retransmissions: 156 } FabricStats { packets: 41274, bytes: 606128, link_traversals: 137289, losses: 5175, ser_ns: 0 } events=145111 end=7856997 mem=2083ba9c7e6376c1",
        "0.2 1 GwcStats { root_drops: 23, hw_block_drops: 3200, grants: 3200, queued_requests: 3199, nacks: 20212, retransmissions: 57366, grant_retransmissions: 590 } FabricStats { packets: 94192, bytes: 1345376, link_traversals: 190207, losses: 20391, ser_ns: 0 } events=183247 end=29558557 mem=9ebab9c1024b1762",
        "0.2 7 GwcStats { root_drops: 23, hw_block_drops: 3200, grants: 3200, queued_requests: 3199, nacks: 20347, retransmissions: 57871, grant_retransmissions: 547 } FabricStats { packets: 94789, bytes: 1353848, link_traversals: 190804, losses: 20510, ser_ns: 0 } events=183682 end=27408567 mem=ee6374f5a9b1438a",
        "0.2 23 GwcStats { root_drops: 23, hw_block_drops: 3200, grants: 3200, queued_requests: 3199, nacks: 20143, retransmissions: 57304, grant_retransmissions: 593 } FabricStats { packets: 94064, bytes: 1343880, link_traversals: 190079, losses: 20394, ser_ns: 0 } events=183119 end=29708565 mem=f5251dfbfc6dced3",
    ];
    assert_eq!(got, want);
}

#[test]
fn a_lossy_run_ends_with_a_short_history() {
    // A root that kept every write would hold about three per section
    // here, 24 000 of them.
    let result = run(lossy_canonical(16, 500, 0.05, 7), RunOptions::default());
    let gwc = result.machine.model().as_gwc().expect("GWC");
    assert!(gwc.stats().retransmissions > 0, "the run lost writes");
    let held = gwc.history_len(GroupId::new(0));
    assert!(held <= 64, "the root holds {held} writes after the run");
}

//! A timer re-armed under the same tag before it fires is a second queue
//! event with its own cause: each firing chains from its own arming, for
//! program timers and protocol timers alike.

use sesame_dsm::{
    run, AppEvent, GroupTable, Machine, MachineConfig, Model, ModelAction, Mx, NodeApi, Packet,
    Program, RunOptions, VarId,
};
use sesame_net::{FullMesh, LinkTiming, NodeId};
use sesame_sim::{CauseOp, SimDur, TraceDetail};

/// The tag every timer in the test is armed under.
const TAG: u64 = 7;

/// A model that arms a protocol timer for each write, `value` ns out,
/// and records an `apply` causal point when one fires.
struct Rearm;

impl Model for Rearm {
    fn name(&self) -> &'static str {
        "rearm"
    }

    fn on_action(&mut self, node: NodeId, action: ModelAction, mx: &mut Mx<'_, '_>) {
        let ModelAction::Write { value, .. } = action else {
            panic!("unexpected action {action:?}");
        };
        mx.set_model_timer(node, SimDur::from_nanos(value as u64), TAG);
    }

    fn on_packet(&mut self, _node: NodeId, pkt: Packet, _mx: &mut Mx<'_, '_>) {
        panic!("unexpected packet {pkt:?}");
    }

    fn on_timer(&mut self, node: NodeId, _tag: u64, mx: &mut Mx<'_, '_>) {
        mx.cause_point(node, CauseOp::Apply);
    }
}

#[test]
fn each_firing_of_a_rearmed_timer_chains_from_its_own_arming() {
    // Two causal points (the writes), each followed by an arming of the
    // program timer and, through the model, of the protocol timer, both
    // under `TAG`. The first arming fires first; a firing starts a compute
    // phase, whose `compute` record cites the timer's cause.
    let program = |ev: AppEvent, api: &mut NodeApi<'_>| match ev {
        AppEvent::Started => {
            for ns in [100, 200] {
                api.write(VarId::new(0), ns);
                api.set_timer(SimDur::from_nanos(ns as u64), TAG);
            }
        }
        AppEvent::TimerFired { tag } => api.compute(SimDur::from_nanos(1), tag),
        _ => {}
    };
    let programs: Vec<Box<dyn Program>> = vec![Box::new(program)];
    let machine = Machine::new(
        Box::new(FullMesh::new(1)),
        LinkTiming::paper_1994(),
        GroupTable::new(Vec::new()).expect("no groups"),
        programs,
        Rearm,
        MachineConfig::default(),
    );
    let opts = RunOptions {
        tracing: true,
        ..RunOptions::default()
    };
    let result = run(machine, opts);
    assert_eq!(result.machine.causes().held(), 0, "every timer fired");
    // `(id, parent)` of each causal record of kind `op`, in trace order.
    let edges = |want: CauseOp| -> Vec<(u64, u64)> {
        let records = result.trace.entries().iter();
        records
            .filter_map(|e| match e.detail {
                TraceDetail::Cause { id, cause, op } if op == want => Some((id, cause)),
                _ => None,
            })
            .collect()
    };
    let parents = |op| -> Vec<u64> { edges(op).into_iter().map(|(_, parent)| parent).collect() };
    let [(w1, 0), (w2, parent)] = edges(CauseOp::Write)[..] else {
        panic!("two writes, the first a root: {:?}", edges(CauseOp::Write));
    };
    assert_eq!(parent, w1, "the second write chains from the first");
    assert_eq!(parents(CauseOp::Compute), vec![w1, w2], "program timers");
    assert_eq!(parents(CauseOp::Apply), vec![w1, w2], "protocol timers");
}

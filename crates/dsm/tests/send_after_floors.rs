//! The machine tells its fabric the clock, never a send instant: a model
//! whose sends leave after a handler-occupancy delay (`Mx::send_after`)
//! gets exactly the arrivals a fabric that forgets nothing computes, even
//! when delayed sends run microseconds ahead of the clock and prompt ones
//! follow them down the same path.

use std::cell::RefCell;
use std::rc::Rc;

use sesame_dsm::{
    run, AppEvent, GroupTable, IdleProgram, Machine, MachineConfig, Model, ModelAction, Mx,
    NodeApi, Packet, PacketKind, Program, RunOptions, VarId, Word,
};
use sesame_net::{CauseId, Fabric, FullMesh, LinkTiming, NodeId};
use sesame_sim::{DetRng, SimDur, SimTime};

const NODES: usize = 400;
const SENDS: u64 = 3_000;
/// Scripted sends are 40 ns apart.
const STEP: u64 = 40;

/// One scripted send from node 0.
#[derive(Clone, Copy)]
struct Send {
    to: NodeId,
    extra: SimDur,
    bytes: u32,
}

fn script() -> Vec<Send> {
    let mut rng = DetRng::new(0x5e4d_af7e);
    (0..SENDS)
        .map(|k| Send {
            // Mostly three hot destinations, so packets follow each other
            // closely; otherwise a destination of the send's own, whose
            // one-off floor is what fills the table and forces sweeps.
            to: NodeId::new(if rng.chance(0.5) {
                1 + rng.next_below(3) as u32
            } else {
                4 + (k % (NODES as u64 - 4)) as u32
            }),
            extra: SimDur::from_nanos(match rng.next_below(3) {
                0 => 0,
                _ => rng.next_below(9_000),
            }),
            bytes: [16, 125, 1_500][rng.next_below(3) as usize],
        })
        .collect()
}

/// A model that turns `write(v_k, _)` at node 0 into scripted send `k`
/// and logs when each arrives.
struct Scripted {
    script: Vec<Send>,
    arrivals: Rc<RefCell<Vec<(u64, SimTime)>>>,
}

impl Model for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn on_action(&mut self, node: NodeId, action: ModelAction, mx: &mut Mx<'_, '_>) {
        let ModelAction::Write { var, .. } = action else {
            panic!("unscripted action {action:?}");
        };
        let send = self.script[var.index()];
        mx.send_after(
            send.extra,
            Packet {
                from: node,
                to: send.to,
                bytes: send.bytes,
                kind: PacketKind::App {
                    tag: var.get().into(),
                },
                cause: CauseId::NONE,
            },
        );
    }

    fn on_packet(&mut self, _node: NodeId, pkt: Packet, mx: &mut Mx<'_, '_>) {
        let PacketKind::App { tag } = pkt.kind else {
            panic!("unscripted packet {pkt:?}");
        };
        self.arrivals.borrow_mut().push((tag, mx.now()));
    }
}

#[test]
fn delayed_sends_arrive_as_on_a_fabric_that_forgets_nothing() {
    let script = script();
    let arrivals = Rc::new(RefCell::new(Vec::new()));
    let mut programs: Vec<Box<dyn Program>> =
        vec![Box::new(|ev: AppEvent, api: &mut NodeApi<'_>| match ev {
            AppEvent::Started => {
                for k in 0..SENDS {
                    api.set_timer(SimDur::from_nanos(STEP * (k + 1)), k);
                }
            }
            AppEvent::TimerFired { tag } => api.write(VarId::new(tag as u32), 0 as Word),
            _ => {}
        })];
    programs.resize_with(NODES, || Box::new(IdleProgram));
    let machine = Machine::new(
        Box::new(FullMesh::new(NODES)),
        LinkTiming::paper_1994(),
        GroupTable::new(Vec::new()).expect("no groups"),
        programs,
        Scripted {
            script: script.clone(),
            arrivals: arrivals.clone(),
        },
        MachineConfig::default(),
    );
    let result = run(machine, RunOptions::default());

    // The same sends, in the same order, through a fabric that is never
    // told the clock and so keeps every floor.
    let topo = FullMesh::new(NODES);
    let timing = LinkTiming::paper_1994();
    let mut keeping = Fabric::new(timing);
    let mut waited = 0;
    let mut got = arrivals.borrow().clone();
    got.sort_unstable();
    assert_eq!(got.len(), script.len());
    for ((send, k), got) in script.iter().zip(0u64..).zip(got) {
        let leaves = SimTime::from_nanos(STEP * (k + 1)) + send.extra;
        let at = keeping.unicast(leaves, &topo, NodeId::new(0), send.to, send.bytes);
        waited += usize::from(at > leaves + timing.transfer(1, send.bytes));
        assert_eq!(
            got,
            (k, at),
            "send {k}: {} bytes to {}",
            send.bytes,
            send.to
        );
    }
    // Not vacuous: floors did bind, and the machine's fabric did forget.
    assert!(waited > script.len() / 4, "only {waited} sends met a floor");
    assert!(result.machine.fabric().floor_capacity() < keeping.floor_capacity());
}

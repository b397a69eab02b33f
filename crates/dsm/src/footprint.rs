//! Conflict footprints: which machine resources one pending [`DsmEvent`]
//! reads or writes.
//!
//! The `sesame-check` explorer turns the simulator's fixed event order
//! into choice points wherever two pending events *commute* — executing
//! them in either order reaches the same machine state. Commutativity is
//! approximated by resource disjointness: handling an event mutates only
//! the state reachable from its target node (that node's local memory,
//! sharing-interface state, program, and CPU meter) plus, for root-bound
//! packets, the root-side group state — and all of those partition cleanly
//! by [`Resource`].
//!
//! Two caveats, both enforced by the explorer rather than here:
//!
//! * The interconnect fabric is shared by all sends. Its statistics are
//!   commutative counters and its per-path FIFO floors are keyed by
//!   source, so it drops out of the footprint **provided** loss and
//!   store-and-forward contention are disabled (both consult shared RNG /
//!   link-occupancy state). The explorer only accepts loss-free,
//!   contention-free configurations.
//! * Event *timestamps* shift when deliveries are reordered. The explorer
//!   therefore uses time-free enabledness (the asynchronous closure over
//!   packet delays), so footprints never need to mention time.

use sesame_net::NodeId;

use crate::{DsmEvent, GroupId, GroupTable, PacketKind, VarId};

/// A unit of mutable machine state touched while handling one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// Everything keyed by one node: its local memory, sharing-interface
    /// state, program, and CPU meter.
    Node(NodeId),
    /// The manager-side state of one sharing group, held at its root: the
    /// sequence counter, retransmission history, and lock queue. (For the
    /// home-based protocols in `sesame-consistency`, the analogous
    /// manager state of the home node.)
    GroupRoot(GroupId),
}

/// The conflict footprint of one pending event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Machine resources read or written while handling the event.
    pub resources: Vec<Resource>,
    /// Shared variables the event names. Informational — the resource set
    /// is what the independence relation uses — but handy for diagnostics
    /// and for future variable-granular reductions.
    pub vars: Vec<VarId>,
}

impl Footprint {
    /// Whether the two footprints touch no common resource.
    pub fn disjoint(&self, other: &Footprint) -> bool {
        self.resources.iter().all(|r| !other.resources.contains(r))
    }
}

/// Whether `event` is node-local (no packet involved): program starts,
/// compute completions, and timers. Local events at one node execute in
/// their original per-node order; only packet deliveries are reorderable.
pub fn is_local(event: &DsmEvent) -> bool {
    match event {
        DsmEvent::Start { .. }
        | DsmEvent::ComputeDone { .. }
        | DsmEvent::TimerFired { .. }
        | DsmEvent::ModelTimer { .. } => true,
        DsmEvent::Packet(_) | DsmEvent::McastWave { .. } => false,
    }
}

/// Computes the conflict footprint of `event` pending for `target`.
pub fn event_footprint(target: NodeId, event: &DsmEvent, groups: &GroupTable) -> Footprint {
    let mut fp = Footprint {
        resources: vec![Resource::Node(target)],
        vars: Vec::new(),
    };
    let pkt = match event {
        DsmEvent::Start { .. }
        | DsmEvent::ComputeDone { .. }
        | DsmEvent::TimerFired { .. }
        | DsmEvent::ModelTimer { .. } => return fp,
        DsmEvent::Packet(pkt) => pkt,
        // A wave delivers to several members in one event. Which ones
        // depends on the route, so the footprint takes the sound superset:
        // every member of the group. Two cars of one group therefore always
        // conflict, and a reduction can never commute a wave past a delivery
        // its successor makes.
        DsmEvent::McastWave { group, pkt, .. } => {
            fp.resources = groups
                .group(*group)
                .members()
                .iter()
                .map(|&m| Resource::Node(m))
                .collect();
            pkt
        }
    };
    match pkt.kind {
        PacketKind::GwcToRoot { group, var, .. } => {
            fp.resources.push(Resource::GroupRoot(group));
            fp.vars.push(var);
        }
        PacketKind::GwcSeq { var, .. } => {
            fp.vars.push(var);
        }
        PacketKind::GwcNack { group, .. } => {
            fp.resources.push(Resource::GroupRoot(group));
        }
        PacketKind::EcAcquire { lock, .. }
        | PacketKind::EcInvalidate { lock }
        | PacketKind::EcInvalidateAck { lock }
        | PacketKind::EcGrant { lock }
        | PacketKind::RcGrant { lock } => {
            fp.vars.push(lock);
        }
        PacketKind::EcFetch { var, .. }
        | PacketKind::EcFetchReply { var, .. }
        | PacketKind::EcHomeInval { var } => {
            fp.vars.push(var);
        }
        PacketKind::EcHomeUpdate { var, .. } | PacketKind::RcUpdate { var, .. } => {
            fp.vars.push(var);
            if let Some(g) = groups.group_of(var) {
                fp.resources.push(Resource::GroupRoot(g.id()));
            }
        }
        PacketKind::RcAcquire { lock, .. }
        | PacketKind::RcForward { lock, .. }
        | PacketKind::RcRelease { lock, .. } => {
            fp.vars.push(lock);
            if let Some(g) = groups.group_of(lock) {
                fp.resources.push(Resource::GroupRoot(g.id()));
            }
        }
        PacketKind::RcUpdateAck { .. } | PacketKind::App { .. } => {}
    }
    fp
}

/// Whether two pending events commute: their conflict footprints are
/// resource-disjoint, so executing them in either order reaches the same
/// machine state. This is the independence relation of the `sesame-check`
/// partial-order reduction.
pub fn independent(
    a_target: NodeId,
    a: &DsmEvent,
    b_target: NodeId,
    b: &DsmEvent,
    groups: &GroupTable,
) -> bool {
    event_footprint(a_target, a, groups).disjoint(&event_footprint(b_target, b, groups))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::sizes;
    use crate::{GroupSpec, Packet, Word};

    fn groups() -> GroupTable {
        GroupTable::new(vec![GroupSpec {
            root: NodeId::new(0),
            members: vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
            vars: vec![VarId::new(0), VarId::new(1)],
            mutex_lock: Some(VarId::new(0)),
        }])
        .expect("valid group")
    }

    fn to_root(from: u32, var: u32, value: Word) -> DsmEvent {
        DsmEvent::Packet(Packet {
            from: NodeId::new(from),
            to: NodeId::new(0),
            bytes: sizes::WRITE,
            kind: PacketKind::GwcToRoot {
                group: GroupId::new(0),
                var: VarId::new(var),
                value,
                origin: NodeId::new(from),
            },
            cause: crate::CauseId::NONE,
        })
    }

    fn seq_write(to: u32, var: u32, seq: u64) -> DsmEvent {
        DsmEvent::Packet(Packet {
            from: NodeId::new(0),
            to: NodeId::new(to),
            bytes: sizes::WRITE,
            kind: PacketKind::GwcSeq {
                group: GroupId::new(0),
                var: VarId::new(var),
                value: 7,
                origin: NodeId::new(0),
                seq,
            },
            cause: crate::CauseId::NONE,
        })
    }

    /// Wave `wave` of a fan-out of [`seq_write`]'s packet, queued for its
    /// first member `to`.
    fn wave_event(wave: u32, to: u32) -> DsmEvent {
        let DsmEvent::Packet(pkt) = seq_write(to, 1, 3) else {
            unreachable!()
        };
        DsmEvent::McastWave {
            group: GroupId::new(0),
            wave,
            pkt,
        }
    }

    #[test]
    fn local_events_have_node_footprints() {
        let g = groups();
        let ev = DsmEvent::ComputeDone { tag: 1 };
        assert!(is_local(&ev));
        let fp = event_footprint(NodeId::new(1), &ev, &g);
        assert_eq!(fp.resources, vec![Resource::Node(NodeId::new(1))]);
    }

    #[test]
    fn deliveries_to_different_members_are_independent() {
        let g = groups();
        assert!(independent(
            NodeId::new(1),
            &seq_write(1, 1, 3),
            NodeId::new(2),
            &seq_write(2, 1, 3),
            &g,
        ));
    }

    #[test]
    fn deliveries_to_the_same_member_conflict() {
        let g = groups();
        assert!(!independent(
            NodeId::new(1),
            &seq_write(1, 1, 3),
            NodeId::new(1),
            &seq_write(1, 1, 4),
            &g,
        ));
    }

    #[test]
    fn root_bound_writes_conflict_through_the_group_root() {
        let g = groups();
        let a = to_root(1, 1, 5);
        let b = to_root(2, 1, 6);
        // Both target node 0, and both touch GroupRoot(0): dependent twice
        // over.
        let fa = event_footprint(NodeId::new(0), &a, &g);
        let fb = event_footprint(NodeId::new(0), &b, &g);
        assert!(fa.resources.contains(&Resource::GroupRoot(GroupId::new(0))));
        assert!(!fa.disjoint(&fb));
    }

    #[test]
    fn a_wave_conflicts_with_every_member_it_may_deliver_to() {
        let g = groups();
        // Queued for its first member (node 1), delivered to node 2 as well.
        let wave = wave_event(1, 1);
        assert!(!is_local(&wave));
        let fp = event_footprint(NodeId::new(1), &wave, &g);
        assert!(fp.resources.contains(&Resource::Node(NodeId::new(2))));
        assert_eq!(fp.vars, vec![VarId::new(1)]);
        assert!(!independent(
            NodeId::new(1),
            &wave,
            NodeId::new(2),
            &DsmEvent::ComputeDone { tag: 4 },
            &g,
        ));
    }

    #[test]
    fn two_cars_of_one_group_conflict() {
        let g = groups();
        // Different waves, queued for different first members.
        assert!(!independent(
            NodeId::new(1),
            &wave_event(1, 1),
            NodeId::new(2),
            &wave_event(2, 2),
            &g,
        ));
    }

    #[test]
    fn local_event_independent_of_remote_delivery() {
        let g = groups();
        assert!(independent(
            NodeId::new(2),
            &DsmEvent::TimerFired { tag: 9 },
            NodeId::new(1),
            &seq_write(1, 1, 3),
            &g,
        ));
    }
}

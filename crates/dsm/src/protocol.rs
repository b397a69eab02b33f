//! The simulated wire protocol.
//!
//! One [`Packet`] enum carries every protocol's messages so that the same
//! machine and workloads run under each memory model:
//!
//! * `Gwc*` — Sesame group write consistency with eagersharing (this
//!   crate).
//! * `Ec*` — entry consistency (implemented in `sesame-consistency`).
//! * `Rc*` — weak/release consistency (implemented in `sesame-consistency`).
//! * [`PacketKind::App`] — application-level point-to-point data.

use sesame_net::NodeId;

use crate::{GroupId, VarId, Word};

/// Nominal on-wire sizes in bytes, used for serialization-delay modeling.
pub mod sizes {
    /// A sharing write: header + variable id + 64-bit value.
    pub const WRITE: u32 = 16;
    /// A lock protocol control message.
    pub const CTRL: u32 = 16;
    /// A bare acknowledgement.
    pub const ACK: u32 = 8;
    /// Header overhead of an application message.
    pub const APP_HEADER: u32 = 16;
}

/// What a packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// GWC: a locally captured write traveling up to the group root for
    /// sequencing. Lock requests and releases are ordinary writes to the
    /// lock variable and travel as this kind too.
    GwcToRoot {
        /// The owning group.
        group: GroupId,
        /// The written variable.
        var: VarId,
        /// The written value.
        value: Word,
        /// The node whose CPU performed the write.
        origin: NodeId,
    },
    /// GWC: a root-sequenced write propagating down the group's spanning
    /// tree to all members.
    GwcSeq {
        /// The owning group.
        group: GroupId,
        /// The written variable.
        var: VarId,
        /// The written value.
        value: Word,
        /// The node whose CPU performed the write (the root for lock grants
        /// and frees it synthesizes).
        origin: NodeId,
        /// The group sequence number; members apply strictly in this order.
        seq: u64,
    },
    /// GWC: a member detected a sequence gap and asks the root to
    /// retransmit everything after `have`.
    GwcNack {
        /// The owning group.
        group: GroupId,
        /// Highest sequence number applied contiguously at the sender.
        have: u64,
    },
    /// Entry consistency: acquire request sent to the current lock owner.
    EcAcquire {
        /// The lock being acquired.
        lock: VarId,
        /// The node that wants the lock.
        requester: NodeId,
    },
    /// Entry consistency: owner invalidates a non-exclusive (reader) copy
    /// before granting exclusive mode.
    EcInvalidate {
        /// The lock whose guarded data is invalidated.
        lock: VarId,
    },
    /// Entry consistency: a reader acknowledges invalidation.
    EcInvalidateAck {
        /// The lock whose guarded data was invalidated.
        lock: VarId,
    },
    /// Entry consistency: the lock token plus the guarded data shipped with
    /// it (the bytes field of the enclosing packet includes the data).
    EcGrant {
        /// The lock being granted.
        lock: VarId,
    },
    /// Entry consistency: demand fetch of one guarded variable.
    EcFetch {
        /// The variable to fetch.
        var: VarId,
        /// Who wants the value.
        requester: NodeId,
    },
    /// Entry consistency: demand-fetch reply.
    EcFetchReply {
        /// The fetched variable.
        var: VarId,
        /// Its value at the owner.
        value: Word,
    },
    /// Entry consistency: write-through of a non-guarded variable to its
    /// home node (the group root).
    EcHomeUpdate {
        /// The written variable.
        var: VarId,
        /// The new value.
        value: Word,
    },
    /// Entry consistency: the home invalidates a cached reader copy of a
    /// non-guarded variable.
    EcHomeInval {
        /// The invalidated variable.
        var: VarId,
    },
    /// Release consistency: acquire request sent to the lock's home
    /// manager.
    RcAcquire {
        /// The lock being acquired.
        lock: VarId,
        /// The node that wants the lock.
        requester: NodeId,
    },
    /// Release consistency: the manager forwards a request to the current
    /// owner.
    RcForward {
        /// The lock being acquired.
        lock: VarId,
        /// The node that wants the lock.
        requester: NodeId,
    },
    /// Release consistency: the lock token moving to a requester.
    RcGrant {
        /// The lock being granted.
        lock: VarId,
    },
    /// Release consistency: an eager update of one variable fanned out to a
    /// sharer.
    RcUpdate {
        /// The written variable.
        var: VarId,
        /// The written value.
        value: Word,
        /// The writing node.
        origin: NodeId,
        /// Identifies the write for acknowledgement accounting.
        write_id: u64,
    },
    /// Release consistency: a sharer acknowledges an update (release blocks
    /// until all acknowledgements arrive).
    RcUpdateAck {
        /// The write being acknowledged.
        write_id: u64,
    },
    /// Release consistency: the owner informs the home manager of the
    /// lock's new state — free (`new_owner` is `None`) or handed directly
    /// to a queued waiter.
    RcRelease {
        /// The lock being returned or handed off.
        lock: VarId,
        /// The node now owning the lock, if any.
        new_owner: Option<NodeId>,
    },
    /// An application-level message (the pipeline workload's hand-off
    /// data).
    App {
        /// Application-chosen tag.
        tag: u64,
    },
}

/// One message in flight. Its causal id travels beside it, on the queue
/// event that delivers it ([`DsmEvent::cause`](crate::DsmEvent::cause)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Packet {
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Size on the wire, in bytes (drives serialization delay).
    pub bytes: u32,
    /// The payload.
    pub kind: PacketKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_is_copyable_and_comparable() {
        let p = Packet {
            from: NodeId::new(0),
            to: NodeId::new(1),
            bytes: sizes::WRITE,
            kind: PacketKind::GwcToRoot {
                group: GroupId::new(0),
                var: VarId::new(2),
                value: 7,
                origin: NodeId::new(0),
            },
        };
        let q = p;
        assert_eq!(p, q);
        assert_eq!(q.bytes, 16);
    }

    #[test]
    fn equality_and_hashing_ignore_the_causal_id() {
        use crate::{Carried, CauseId, DsmEvent};
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let pkt = Packet {
            from: NodeId::new(0),
            to: NodeId::new(1),
            bytes: sizes::CTRL,
            kind: PacketKind::GwcNack {
                group: GroupId::new(0),
                have: 3,
            },
        };
        let events = |id| {
            let cause = Carried(id);
            [
                DsmEvent::Packet(pkt, cause),
                DsmEvent::ComputeDone { tag: 1, cause },
                DsmEvent::TimerFired { tag: 1, cause },
                DsmEvent::ModelTimer { tag: 1, cause },
            ]
        };
        let digest = |ev: &DsmEvent| {
            let mut h = DefaultHasher::new();
            ev.hash(&mut h);
            h.finish()
        };
        for (a, b) in events(CauseId::NONE)
            .iter()
            .zip(&events(CauseId::from_raw(99)))
        {
            assert_eq!(a, b);
            assert_eq!(digest(a), digest(b));
        }
    }

    #[test]
    fn sizes_are_ordered_sensibly() {
        let (ack, ctrl, write) = (sizes::ACK, sizes::CTRL, sizes::WRITE);
        assert!(ack < ctrl);
        assert_eq!(ctrl, write);
    }
}

//! Group-write-consistency sequencing checker.
//!
//! GWC's contract (§2 of the paper) is total store ordering within a
//! group: the root assigns consecutive sequence numbers and every member
//! applies sequenced writes in exactly that order. The checker verifies:
//!
//! * the root's assignment is gapless per group (1, 2, 3, …);
//! * every member's applied stream is gapless and in root order — an
//!   out-of-order or skipped apply is a protocol violation (the member
//!   interfaces must reorder/nack, never deliver early);
//! * the payload a member applies for `(group, seq)` is byte-identical to
//!   what the root sequenced under that number.
//!
//! Diagnostics latch per (member, group) and per group so one planted
//! fault yields one report.

use std::collections::{HashMap, HashSet};

use sesame_sim::{TraceDetail as D, TraceEntry, TraceKind as K};

use crate::{CheckKind, Violation};

/// The sequencing checker.
#[derive(Debug, Default)]
pub struct SeqChecker {
    /// Next sequence number each root should assign.
    root_next: HashMap<u32, u64>,
    /// Payload the root bound to each (group, seq).
    payloads: HashMap<(u32, u64), (u32, i64, u32)>,
    /// Next sequence number each (member, group) should apply.
    member_next: HashMap<(usize, u32), u64>,
    latched_groups: HashSet<u32>,
    latched_members: HashSet<(usize, u32)>,
}

impl SeqChecker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        SeqChecker::default()
    }

    /// Processes one record; only `root-seq` and `gwc-apply` in their own
    /// shapes are read.
    pub fn feed(&mut self, entry: &TraceEntry, out: &mut Vec<Violation>) {
        let (time, node) = (entry.time, entry.actor);
        match (entry.kind, &entry.detail) {
            (
                K::RootSeq,
                &D::Seq {
                    group,
                    seq,
                    var,
                    val,
                    origin,
                },
            ) => {
                self.payloads.insert((group, seq), (var, val, origin));
                if self.latched_groups.contains(&group) {
                    return;
                }
                let next = self.member_root_next(group);
                if seq != next {
                    self.latched_groups.insert(group);
                    out.push(Violation {
                        time,
                        node,
                        check: CheckKind::Sequencing,
                        message: format!(
                            "group {group}'s root assigned sequence number {seq} but {next} \
                             was expected: root numbering has a gap"
                        ),
                    });
                }
                self.root_next.insert(group, seq.max(next) + 1);
            }
            (
                K::GwcApply,
                &D::Apply {
                    group,
                    seq,
                    var,
                    val,
                    origin,
                    ..
                },
            ) => {
                let key = (node, group);
                if self.latched_members.contains(&key) {
                    return;
                }
                let next = *self.member_next.entry(key).or_insert(1);
                if seq != next {
                    self.latched_members.insert(key);
                    out.push(Violation {
                        time,
                        node,
                        check: CheckKind::Sequencing,
                        message: format!(
                            "node{node} applied group {group} write seq={seq} out of order: \
                             expected seq={next}"
                        ),
                    });
                    return;
                }
                self.member_next.insert(key, next + 1);
                match self.payloads.get(&(group, seq)) {
                    None => {
                        self.latched_members.insert(key);
                        out.push(Violation {
                            time,
                            node,
                            check: CheckKind::Sequencing,
                            message: format!(
                                "node{node} applied group {group} seq={seq} which the root \
                                 never sequenced"
                            ),
                        });
                    }
                    Some(&(pv, pval, porigin)) => {
                        if (pv, pval, porigin) != (var, val, origin) {
                            self.latched_members.insert(key);
                            out.push(Violation {
                                time,
                                node,
                                check: CheckKind::Sequencing,
                                message: format!(
                                    "node{node} applied v{var}={val} from node{origin} as group \
                                     {group} seq={seq}, but the root sequenced v{pv}={pval} \
                                     from node{porigin}"
                                ),
                            });
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn member_root_next(&mut self, group: u32) -> u64 {
        *self.root_next.entry(group).or_insert(1)
    }

    /// End-of-trace finalization (nothing pending for sequencing).
    pub fn finish(&mut self, _out: &mut Vec<Violation>) {}

    /// Describes sequenced writes not yet observed by every member — for
    /// truncated traces, where a member that lags the root means packets
    /// were mid-flight at the cut, not that ordering failed.
    pub fn pending_notes(&self) -> Vec<String> {
        let mut keys: Vec<(usize, u32)> = self.member_next.keys().copied().collect();
        keys.sort_unstable();
        let mut notes = Vec::new();
        for key in keys {
            let (node, group) = key;
            let applied = self.member_next[&key] - 1;
            let sequenced = self.root_next.get(&group).copied().unwrap_or(1) - 1;
            if applied < sequenced {
                notes.push(format!(
                    "node{node} applied group {group} writes through seq {applied} but the \
                     root sequenced through {sequenced}: deliveries in flight"
                ));
            }
        }
        notes
    }
}

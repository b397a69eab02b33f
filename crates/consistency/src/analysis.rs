//! Closed-form timing analysis of the paper's Figure 1 scenario.
//!
//! Figure 1 compares wasted idle time for **three successive mutually
//! exclusive accesses** — CPU1, then CPU3, then CPU2 — where CPU2 is the
//! group root / lock owner / manager and the two others request at time
//! zero. This module derives completion times per consistency model for a
//! symmetric geometry (every pair of CPUs `h` hops apart) and the paper's
//! link timing. The `sesame-workloads` Figure 1 driver *simulates* the same
//! scenario; the integration tests check simulation against these formulas.
//!
//! Notation: `m` is a one-way control/write message time
//! (`ser(16B) + h * hop`), `a` a one-way acknowledgement time
//! (`ser(8B) + h * hop`), `d` the guarded-data payload serialization time,
//! and `u` the in-section computation time.
//!
//! * **GWC** (Figure 1a): request to root `m`, grant multicast back `m`;
//!   each handoff is release-to-root `m` plus grant-to-next `m` (the root
//!   appends the grant directly to the previous holder's last datum); the
//!   final grant to CPU2 (the root itself) is local. Completion:
//!   `2m + u  +  2m + u  +  m + u  =  5m + 3u`.
//! * **Entry consistency** (Figure 1b, the paper's *fast* variant): the
//!   owner ships lock + data directly to the next holder after its local
//!   release (`m + d` per transfer), but the first grant needs an
//!   invalidation round trip `m + a` to the other non-exclusive reader.
//!   Completion: `m + (m + a) + (m + d) + u + (m + d) + u + (m + d) + u
//!   = 5m + a + 3d + 3u`.
//! * **Weak/release consistency** (Figure 1c): each release blocks for an
//!   update-acknowledgement round trip `m + a`; handing off needs the
//!   grant message `m`; the first grant needs request `m` + grant `m`.
//!   Completion: `2m + (u + m + a + m) + (u + m + a + m) + (u + m + a)
//!   = 7m + 3a + 3u` (CPU2's own grant is local after CPU3's blocked
//!   release).

use sesame_net::LinkTiming;
use sesame_sim::SimDur;

/// Parameters of the symmetric three-CPU scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure1Params {
    /// Hop distance between every pair of CPUs.
    pub hops: u32,
    /// Link timing (per-hop latency and bandwidth).
    pub timing: LinkTiming,
    /// In-section computation time per CPU.
    pub section: SimDur,
    /// Guarded-data payload shipped with an entry-consistency lock
    /// transfer, in bytes.
    pub guarded_bytes: u32,
}

impl Default for Figure1Params {
    fn default() -> Self {
        Figure1Params {
            hops: 2,
            timing: LinkTiming::paper_1994(),
            section: SimDur::from_us(5),
            guarded_bytes: 256,
        }
    }
}

/// Completion times of the three successive sections under each model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure1Prediction {
    /// Sesame group write consistency (Figure 1a).
    pub gwc: SimDur,
    /// Entry consistency, fast variant (Figure 1b).
    pub entry: SimDur,
    /// Weak/release consistency (Figure 1c).
    pub release: SimDur,
}

impl Figure1Params {
    /// One-way time of a 16-byte control/write message.
    pub fn message(&self) -> SimDur {
        self.timing.transfer(self.hops, sesame_dsm::sizes::WRITE)
    }

    /// One-way time of an 8-byte acknowledgement.
    fn ack_message(&self) -> SimDur {
        self.timing.transfer(self.hops, sesame_dsm::sizes::ACK)
    }

    /// Extra serialization of the guarded-data payload on a lock transfer.
    fn data_extra(&self) -> SimDur {
        self.timing.serialization(self.guarded_bytes)
    }

    /// Closed-form completion times (see the module docs for derivations).
    pub fn predict(&self) -> Figure1Prediction {
        let m = self.message();
        let a = self.ack_message();
        let d = self.data_extra();
        let u = self.section;
        Figure1Prediction {
            gwc: m * 5 + u * 3,
            entry: m * 5 + a + d * 3 + u * 3,
            release: m * 7 + a * 3 + u * 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_prediction_matches_hand_computation() {
        let p = Figure1Params::default();
        // m = ser(16B) + 2 hops = 128 + 400 = 528ns; a = 64 + 400 = 464ns;
        // d = ser(256B) = 2048ns.
        assert_eq!(p.message(), SimDur::from_nanos(528));
        assert_eq!(p.ack_message(), SimDur::from_nanos(464));
        assert_eq!(p.data_extra(), SimDur::from_nanos(2048));
        let pred = p.predict();
        assert_eq!(pred.gwc, SimDur::from_nanos(5 * 528 + 3 * 5_000), "5m + 3u");
        assert_eq!(
            pred.entry,
            SimDur::from_nanos(5 * 528 + 464 + 3 * 2048 + 3 * 5_000),
            "5m + a + 3d + 3u"
        );
        assert_eq!(
            pred.release,
            SimDur::from_nanos(7 * 528 + 3 * 464 + 3 * 5_000),
            "7m + 3a + 3u"
        );
    }

    #[test]
    fn gwc_always_wins_the_scenario() {
        for hops in [1, 2, 4, 8] {
            for bytes in [0, 64, 1024] {
                for us in [1, 5, 50] {
                    let p = Figure1Params {
                        hops,
                        guarded_bytes: bytes,
                        section: SimDur::from_us(us),
                        ..Figure1Params::default()
                    };
                    let pred = p.predict();
                    assert!(
                        pred.gwc < pred.entry && pred.gwc < pred.release,
                        "GWC must win: {pred:?} at hops={hops} bytes={bytes} us={us}"
                    );
                }
            }
        }
    }

    #[test]
    fn entry_beats_release_when_data_is_small() {
        // 5m + a + 3d < 7m + 3a iff 3d < 2m + 2a.
        let p = Figure1Params {
            guarded_bytes: 16,
            ..Figure1Params::default()
        };
        let pred = p.predict();
        assert!(pred.entry < pred.release);
        // ...and loses once the shipped payload dominates.
        let p2 = Figure1Params {
            guarded_bytes: 64 * 1024,
            ..Figure1Params::default()
        };
        let pred2 = p2.predict();
        assert!(pred2.entry > pred2.release);
    }

    #[test]
    fn zero_delay_network_collapses_to_pure_compute() {
        let p = Figure1Params {
            timing: LinkTiming::zero_delay(),
            ..Figure1Params::default()
        };
        let pred = p.predict();
        assert_eq!(pred.gwc, p.section * 3);
        assert_eq!(pred.entry, p.section * 3);
        assert_eq!(pred.release, p.section * 3);
    }
}

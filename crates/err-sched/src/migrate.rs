//! Portable scheduler-side flow state for cross-shard migration.
//!
//! DESIGN.md §8: when a flow is stolen from one shard's scheduler and
//! handed to another's, everything the flow *is* scheduler-side must
//! travel with it — its FIFO packet queue, its ERR surplus count, and,
//! if the steal caught it mid-visit, the suspended visit including the
//! mid-packet cursor. [`MigratedFlow`] is that package:
//! [`ErrScheduler::extract_flow`] produces it on the donor and
//! [`ErrScheduler::absorb_flow`] installs it on the thief.
//!
//! The contract (enforced by the ERR implementation with debug
//! assertions):
//!
//! * extract requires the flow to be **parked** on the donor — the
//!   runtime's quiesce phase guarantees nothing of the flow is in
//!   service when the package is cut;
//! * absorb requires the flow to be **parked** on the thief, and
//!   *prepends* the migrated queue to any packets that already arrived
//!   at the thief under the new routing epoch (old epoch before new —
//!   per-flow FIFO across the steal);
//! * the surplus count is copied verbatim, never recomputed, so
//!   migration conserves ERR's fairness debt (§8.4).
//!
//! [`ErrScheduler::extract_flow`]: crate::err::ErrScheduler::extract_flow
//! [`ErrScheduler::absorb_flow`]: crate::err::ErrScheduler::absorb_flow

use std::collections::VecDeque;

use crate::Packet;

/// A packet interrupted mid-wormhole by a park, frozen at the flit it
/// would emit next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MidPacket {
    /// The interrupted packet.
    pub packet: Packet,
    /// 0-based index of the next flit to emit (`< packet.len`).
    pub next_flit: u32,
}

/// A service opportunity suspended by parking, in portable form
/// (mirrors `err::Visit` plus the optional mid-packet cursor).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigratedVisit {
    /// The visit's allowance `A_i(r)` as granted on the donor.
    pub allowance: u64,
    /// Units already charged to the visit (`Sent_i` so far).
    pub sent: u64,
    /// The interrupted packet, if the park hit mid-packet (`None` when
    /// it hit a packet boundary within the visit).
    pub cursor: Option<MidPacket>,
}

/// Everything a flow is, scheduler-side: the package produced by
/// [`extract_flow`] and consumed by [`absorb_flow`].
///
/// [`extract_flow`]: crate::err::ErrScheduler::extract_flow
/// [`absorb_flow`]: crate::err::ErrScheduler::absorb_flow
#[derive(Clone, Debug)]
pub struct MigratedFlow {
    /// The flow's waiting packets, in FIFO order (head first). Does not
    /// include the interrupted packet, which rides in `resume`.
    pub packets: VecDeque<Packet>,
    /// The flow's surplus count `SC_i` at extraction.
    pub surplus: u64,
    /// The suspended visit, if the flow was parked mid-visit.
    pub resume: Option<MigratedVisit>,
}

impl MigratedFlow {
    /// Total flits in the package: queued packets plus the unsent
    /// remainder of the interrupted packet.
    pub fn flits(&self) -> u64 {
        let queued: u64 = self.packets.iter().map(|p| p.len as u64).sum();
        let mid = self
            .resume
            .and_then(|v| v.cursor)
            .map_or(0, |c| (c.packet.len - c.next_flit) as u64);
        queued + mid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flits_counts_queue_and_cursor() {
        let mut packets = VecDeque::new();
        packets.push_back(Packet::new(1, 0, 4, 0));
        packets.push_back(Packet::new(2, 0, 6, 0));
        let m = MigratedFlow {
            packets,
            surplus: 3,
            resume: Some(MigratedVisit {
                allowance: 5,
                sent: 2,
                cursor: Some(MidPacket {
                    packet: Packet::new(0, 0, 8, 0),
                    next_flit: 2,
                }),
            }),
        };
        assert_eq!(m.flits(), 4 + 6 + 6);
        let empty = MigratedFlow {
            packets: VecDeque::new(),
            surplus: 0,
            resume: None,
        };
        assert_eq!(empty.flits(), 0);
    }
}

//! The flit-clocked scheduler interface shared by every discipline.

use desim::Cycle;

use crate::{FlowId, Packet, PacketId};

/// One flit leaving the scheduler, with enough context for measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServedFlit {
    /// Flow the flit belongs to.
    pub flow: FlowId,
    /// Packet the flit belongs to.
    pub packet: PacketId,
    /// Arrival cycle of the packet (for delay measurement).
    pub arrival: Cycle,
    /// Total length of the packet in flits.
    pub len: u32,
    /// 0-based index of this flit within its packet.
    pub flit_index: u32,
}

impl ServedFlit {
    /// Builds the flit record for `pkt`'s flit number `flit_index`.
    pub fn of(pkt: &Packet, flit_index: u32) -> Self {
        Self {
            flow: pkt.flow,
            packet: pkt.id,
            arrival: pkt.arrival,
            len: pkt.len,
            flit_index,
        }
    }

    /// Whether this is the packet's head flit (carries routing info in a
    /// wormhole network).
    pub fn is_head(&self) -> bool {
        self.flit_index == 0
    }

    /// Whether this is the packet's tail flit — the instant the paper
    /// measures packet departure ("the instant its last flit is
    /// dequeued").
    pub fn is_tail(&self) -> bool {
        self.flit_index + 1 == self.len
    }
}

/// A flit-clocked packet scheduler.
///
/// The contract, matching the paper's abstraction in §1:
///
/// * Packets arrive into per-flow FIFO queues via [`enqueue`].
/// * Each cycle the link can carry one flit; the harness calls
///   [`service_flit`], and the discipline picks the flit.
/// * The scheduler must be **work-conserving**: `service_flit` returns
///   `Some` whenever any flit is backlogged. The single exception is
///   [`ErrScheduler`]'s flow parking: while every backlogged flow is
///   parked, `service_flit` returns `None` even though
///   `backlog_flits() > 0`.
/// * Per-flow FIFO order must be preserved.
/// * Packet-granular disciplines must not interleave packets: between a
///   head flit and its tail flit, every served flit belongs to the same
///   packet (the wormhole output-queue constraint). FBRR and GPS are
///   exempt — they model flit-tagged virtual-channel scheduling where
///   interleaving is legal.
///
/// [`enqueue`]: Scheduler::enqueue
/// [`service_flit`]: Scheduler::service_flit
/// [`ErrScheduler`]: crate::err::ErrScheduler
pub trait Scheduler {
    /// Adds a packet to its flow's queue at cycle `now`.
    fn enqueue(&mut self, pkt: Packet, now: Cycle);

    /// Serves one flit at cycle `now`, or `None` if idle.
    fn service_flit(&mut self, now: Cycle) -> Option<ServedFlit>;

    /// Serves up to `max_flits` flits starting at cycle `now`, one flit
    /// per cycle (the paper's egress-link model), appending them to
    /// `out`. Returns the number served; fewer than `max_flits` means
    /// the scheduler went idle.
    ///
    /// This is the batched entry point the multi-shard runtime drives:
    /// it makes exactly the same decisions as `max_flits` single calls
    /// to [`service_flit`](Scheduler::service_flit) at cycles `now`,
    /// `now + 1`, … — batching amortizes call overhead, it never
    /// changes the discipline's schedule.
    fn service_batch(&mut self, now: Cycle, max_flits: usize, out: &mut Vec<ServedFlit>) -> usize {
        let mut served = 0;
        while served < max_flits {
            match self.service_flit(now + served as Cycle) {
                Some(f) => {
                    out.push(f);
                    served += 1;
                }
                None => break,
            }
        }
        served
    }

    /// Flits currently backlogged (queued + in service but unsent).
    fn backlog_flits(&self) -> u64;

    /// Whether the scheduler has nothing to send.
    fn is_idle(&self) -> bool {
        self.backlog_flits() == 0
    }

    /// Human-readable discipline name (as used in the paper's figures).
    fn name(&self) -> &'static str;
}

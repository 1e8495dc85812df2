//! Packet and flow identities, and the two views of a packet in
//! service: the [`FlitStream`] a packet-granular scheduler holds while
//! the wormhole pins its output to the packet, and the [`FlitRun`]s it
//! takes from that stream — one flit at a time, or as many as the
//! caller can accept in one go.

use desim::Cycle;
use serde::{Deserialize, Serialize};

use crate::ServedFlit;

/// Index of a traffic flow (a queue at the scheduler).
///
/// In a wormhole switch a flow is an input queue contending for an output
/// queue; in an Internet router it is a source–destination pair. The
/// abstraction is the paper's §1: *n* flows, each with a FIFO queue.
pub type FlowId = usize;

/// Unique identity of a packet within one simulation.
pub type PacketId = u64;

/// A packet: `len` flits belonging to `flow`, enqueued at `arrival`.
///
/// Lengths are measured in flits ("we measure the length of a packet in
/// terms of flits"); a length of zero is not a valid packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Unique packet id (assigned by the workload generator).
    pub id: PacketId,
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Length in flits; always ≥ 1.
    pub len: u32,
    /// Cycle at which the packet was placed in its queue.
    pub arrival: Cycle,
}

impl Packet {
    /// Creates a packet. Panics if `len == 0` — a packet has at least its
    /// head flit.
    pub fn new(id: PacketId, flow: FlowId, len: u32, arrival: Cycle) -> Self {
        assert!(len >= 1, "a packet has at least one flit");
        Self {
            id,
            flow,
            len,
            arrival,
        }
    }
}

/// A packet in the middle of being transmitted flit by flit.
///
/// Packet-granular disciplines hold one of these per output while the
/// wormhole constraint pins the output to the packet.
#[derive(Clone, Copy, Debug)]
pub struct FlitStream {
    pkt: Packet,
    next_flit: u32,
}

impl FlitStream {
    /// Begins streaming `pkt`.
    pub fn new(pkt: Packet) -> Self {
        Self { pkt, next_flit: 0 }
    }

    /// 0-based index of the next flit to emit.
    pub fn position(&self) -> u32 {
        self.next_flit
    }

    /// The packet being streamed.
    pub fn packet(&self) -> &Packet {
        &self.pkt
    }

    /// Flits not yet emitted.
    pub fn remaining(&self) -> u32 {
        self.pkt.len - self.next_flit
    }

    /// Takes the next `n` flits, or what is left if fewer: returns the
    /// run they make. Never crosses the tail; `n == 0` takes nothing.
    pub fn take(&mut self, n: u32) -> FlitRun {
        let first = self.next_flit;
        let count = n.min(self.remaining());
        self.next_flit += count;
        FlitRun {
            packet: self.pkt,
            first,
            count,
        }
    }

    /// Emits the next flit — a [`take`](Self::take) of one; returns its
    /// 0-based index and whether it was the tail flit. Panics if the
    /// stream is exhausted.
    pub fn emit(&mut self) -> (u32, bool) {
        assert!(self.next_flit < self.pkt.len, "flit stream exhausted");
        let run = self.take(1);
        (run.first, run.ends_packet())
    }
}

/// Consecutive flits of one packet, served in one go: flits `first ..
/// first + count` of `packet`. A run never crosses a packet's tail, so
/// it ends the packet at most once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlitRun {
    /// The packet the flits belong to.
    pub packet: Packet,
    /// 0-based index of the run's first flit within the packet.
    pub first: u32,
    /// Flits in the run.
    pub count: u32,
}

impl FlitRun {
    /// Whether the run's last flit is the packet's tail.
    pub fn ends_packet(&self) -> bool {
        self.count > 0 && self.first + self.count == self.packet.len
    }

    /// The run's flits, in order.
    pub fn flits(&self) -> impl ExactSizeIterator<Item = ServedFlit> {
        let pkt = self.packet;
        (self.first..self.first + self.count).map(move |i| ServedFlit::of(&pkt, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_construction() {
        let p = Packet::new(7, 2, 5, 100);
        assert_eq!(p.id, 7);
        assert_eq!(p.flow, 2);
        assert_eq!(p.len, 5);
        assert_eq!(p.arrival, 100);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_rejected() {
        Packet::new(0, 0, 0, 0);
    }

    #[test]
    fn flit_stream_emits_all_flits() {
        let mut s = FlitStream::new(Packet::new(1, 0, 3, 0));
        assert_eq!(s.remaining(), 3);
        assert_eq!(s.emit(), (0, false));
        assert_eq!(s.emit(), (1, false));
        assert_eq!(s.remaining(), 1);
        assert_eq!(s.emit(), (2, true));
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn take_stops_at_the_tail() {
        let mut s = FlitStream::new(Packet::new(1, 0, 5, 0));
        let run = s.take(3);
        assert_eq!((run.first, run.count, run.ends_packet()), (0, 3, false));
        assert_eq!(s.take(0).count, 0);
        let run = s.take(9);
        assert_eq!((run.first, run.count, run.ends_packet()), (3, 2, true));
        let idx: Vec<u32> = run.flits().map(|f| f.flit_index).collect();
        assert_eq!(idx, [3, 4]);
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.take(1).count, 0);
    }

    #[test]
    fn single_flit_packet_head_is_tail() {
        let mut s = FlitStream::new(Packet::new(1, 0, 1, 0));
        assert_eq!(s.emit(), (0, true));
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn emit_past_end_panics() {
        let mut s = FlitStream::new(Packet::new(1, 0, 1, 0));
        s.emit();
        s.emit();
    }
}

//! Per-flow FIFO packet queues with backlog accounting.

use std::collections::VecDeque;

use crate::{FlowId, Packet};

/// One FIFO queue per flow, plus aggregate backlog counters.
///
/// All disciplines in this crate keep their waiting packets here; the
/// flits-in-backlog counter lets harnesses detect work-conservation
/// violations cheaply (a work-conserving scheduler must serve a flit
/// whenever `backlog_flits() > 0`).
#[derive(Clone, Debug, Default)]
pub struct FlowQueues {
    queues: Vec<VecDeque<Packet>>,
    /// Per-flow waiting flits (parallel to `queues`), so a flow's
    /// backlog is O(1) to read.
    flits: Vec<u64>,
    backlog_flits: u64,
    backlog_pkts: u64,
}

impl FlowQueues {
    /// Creates queues for `n_flows` flows (grows on demand).
    pub fn new(n_flows: usize) -> Self {
        Self {
            queues: (0..n_flows).map(|_| VecDeque::new()).collect(),
            flits: vec![0; n_flows],
            backlog_flits: 0,
            backlog_pkts: 0,
        }
    }

    fn ensure(&mut self, flow: FlowId) {
        if flow >= self.queues.len() {
            self.queues.resize_with(flow + 1, VecDeque::new);
            self.flits.resize(flow + 1, 0);
        }
    }

    /// Number of flows provisioned.
    pub fn n_flows(&self) -> usize {
        self.queues.len()
    }

    /// Appends `pkt` to its flow's queue.
    pub fn push(&mut self, pkt: Packet) {
        self.ensure(pkt.flow);
        self.backlog_flits += pkt.len as u64;
        self.backlog_pkts += 1;
        self.flits[pkt.flow] += pkt.len as u64;
        self.queues[pkt.flow].push_back(pkt);
    }

    /// Removes and returns the head packet of `flow`.
    pub fn pop(&mut self, flow: FlowId) -> Option<Packet> {
        let pkt = self.queues.get_mut(flow)?.pop_front()?;
        self.backlog_flits -= pkt.len as u64;
        self.backlog_pkts -= 1;
        self.flits[flow] -= pkt.len as u64;
        Some(pkt)
    }

    /// Removes and returns `flow`'s entire queue in FIFO order,
    /// adjusting the backlog counters (forced-abort extraction).
    pub fn take(&mut self, flow: FlowId) -> VecDeque<Packet> {
        let Some(q) = self.queues.get_mut(flow) else {
            return VecDeque::new();
        };
        let q = std::mem::take(q);
        let flits = std::mem::take(&mut self.flits[flow]);
        self.backlog_flits -= flits;
        self.backlog_pkts -= q.len() as u64;
        q
    }

    /// Flits waiting in `flow`'s queue (excludes any packet in service).
    pub fn flow_flits(&self, flow: FlowId) -> u64 {
        self.flits.get(flow).copied().unwrap_or(0)
    }

    /// Length in flits of the head packet of `flow`, if any.
    ///
    /// Only DRR and the timestamp schedulers may call this: ERR is
    /// forbidden by construction from looking at lengths before service
    /// (the wormhole constraint), and its implementation does not.
    pub fn head_len(&self, flow: FlowId) -> Option<u32> {
        self.queues.get(flow)?.front().map(|p| p.len)
    }

    /// Arrival time of the head packet of `flow`, if any.
    pub fn head_arrival(&self, flow: FlowId) -> Option<u64> {
        self.queues.get(flow)?.front().map(|p| p.arrival)
    }

    /// Whether `flow` has no waiting packets.
    pub fn is_empty(&self, flow: FlowId) -> bool {
        self.queues.get(flow).is_none_or(|q| q.is_empty())
    }

    /// Packets waiting in `flow`'s queue.
    pub fn len(&self, flow: FlowId) -> usize {
        self.queues.get(flow).map_or(0, |q| q.len())
    }

    /// Total flits waiting across all queues (excludes any packet already
    /// in service at the discipline).
    pub fn backlog_flits(&self) -> u64 {
        self.backlog_flits
    }

    /// Total packets waiting across all queues.
    pub fn backlog_pkts(&self) -> u64 {
        self.backlog_pkts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, flow: FlowId, len: u32) -> Packet {
        Packet::new(id, flow, len, 0)
    }

    #[test]
    fn fifo_per_flow() {
        let mut q = FlowQueues::new(2);
        q.push(pkt(1, 0, 4));
        q.push(pkt(2, 0, 2));
        q.push(pkt(3, 1, 1));
        assert_eq!(q.pop(0).unwrap().id, 1);
        assert_eq!(q.pop(0).unwrap().id, 2);
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1).unwrap().id, 3);
    }

    #[test]
    fn backlog_accounting() {
        let mut q = FlowQueues::new(2);
        assert_eq!(q.backlog_flits(), 0);
        q.push(pkt(1, 0, 4));
        q.push(pkt(2, 1, 6));
        assert_eq!(q.backlog_flits(), 10);
        assert_eq!(q.backlog_pkts(), 2);
        q.pop(1);
        assert_eq!(q.backlog_flits(), 4);
        assert_eq!(q.backlog_pkts(), 1);
    }

    #[test]
    fn head_inspection() {
        let mut q = FlowQueues::new(1);
        assert_eq!(q.head_len(0), None);
        q.push(Packet::new(1, 0, 7, 42));
        q.push(Packet::new(2, 0, 9, 43));
        assert_eq!(q.head_len(0), Some(7));
        assert_eq!(q.head_arrival(0), Some(42));
    }

    #[test]
    fn grows_on_demand() {
        let mut q = FlowQueues::new(1);
        q.push(pkt(1, 5, 3));
        assert_eq!(q.n_flows(), 6);
        assert_eq!(q.len(5), 1);
        assert!(q.is_empty(100)); // out of range == empty
    }

    #[test]
    fn pop_unknown_flow_is_none() {
        let mut q = FlowQueues::new(1);
        assert_eq!(q.pop(9), None);
    }

    #[test]
    fn take_empties_flow_and_fixes_counters() {
        let mut q = FlowQueues::new(2);
        q.push(pkt(1, 0, 4));
        q.push(pkt(2, 0, 2));
        q.push(pkt(3, 1, 5));
        assert_eq!(q.flow_flits(0), 6);
        let taken = q.take(0);
        assert_eq!(taken.iter().map(|p| p.id).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(q.flow_flits(0), 0);
        assert_eq!(q.backlog_flits(), 5);
        assert_eq!(q.backlog_pkts(), 1);
        assert!(q.is_empty(0));
        assert!(q.take(7).is_empty(), "out of range takes nothing");
    }
}

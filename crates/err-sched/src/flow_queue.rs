//! Per-flow FIFO packet queues over one shared packet pool, with backlog
//! accounting.
//!
//! Every waiting packet of every flow lives in one `Vec` of 24-byte
//! slots; a flow owns only the `head`/`tail` indices of its singly
//! linked list through that pool, plus its waiting-flit count. A slot
//! does not name its flow — the list it sits on does — so [`pop`]
//! rebuilds the [`Packet`]. Freed slots go on a free list threaded
//! through the same `next` field and are reused first, so a steady
//! backlog allocates nothing. Slot index 0 is a sentinel (`NIL`): an
//! idle flow's `head`/`tail` are zero, which lets the per-flow tables
//! come from zeroed allocations. The pool itself is allocated by the
//! first push.
//!
//! [`pop`]: FlowQueues::pop

use std::collections::VecDeque;

use desim::Cycle;

use crate::{FlowId, Packet};

/// The empty list, and the index of the sentinel slot that heads every
/// allocated pool.
const NIL: u32 = 0;

/// One waiting packet, minus its flow.
#[derive(Clone, Copy, Debug)]
struct Slot {
    id: u64,
    arrival: Cycle,
    len: u32,
    /// The next packet of the same flow, or the next free slot.
    next: u32,
}

const SENTINEL: Slot = Slot {
    id: 0,
    arrival: 0,
    len: 0,
    next: NIL,
};

/// One FIFO queue per flow, plus aggregate backlog counters.
///
/// All disciplines in this crate keep their waiting packets here; the
/// flits-in-backlog counter lets harnesses detect work-conservation
/// violations cheaply (a work-conserving scheduler must serve a flit
/// whenever `backlog_flits() > 0`). At most `u32::MAX` packets wait at
/// once; [`push`](Self::push) panics past that.
#[derive(Clone, Debug, Default)]
pub struct FlowQueues {
    /// The packet pool; `slots[0]` is the `NIL` sentinel once the first
    /// packet arrives.
    slots: Vec<Slot>,
    /// Head of the free-slot list.
    free: u32,
    /// Per flow: oldest waiting packet's slot, or `NIL`.
    head: Vec<u32>,
    /// Per flow: newest waiting packet's slot, or `NIL`.
    tail: Vec<u32>,
    /// Per-flow waiting flits, so a flow's backlog is O(1) to read.
    flits: Vec<u64>,
    backlog_flits: u64,
    backlog_pkts: u64,
}

impl FlowQueues {
    /// Creates queues for `n_flows` flows (grows on demand).
    pub fn new(n_flows: usize) -> Self {
        Self {
            slots: Vec::new(),
            free: NIL,
            head: vec![NIL; n_flows],
            tail: vec![NIL; n_flows],
            flits: vec![0; n_flows],
            backlog_flits: 0,
            backlog_pkts: 0,
        }
    }

    fn ensure(&mut self, flow: FlowId) {
        if flow >= self.head.len() {
            self.head.resize(flow + 1, NIL);
            self.tail.resize(flow + 1, NIL);
            self.flits.resize(flow + 1, 0);
        }
    }

    /// Number of flows provisioned.
    pub fn n_flows(&self) -> usize {
        self.head.len()
    }

    /// Slots the pool has ever needed at once: its high-water mark of
    /// waiting packets. A backlog that stays at or below it allocates
    /// nothing.
    pub fn pool_slots(&self) -> usize {
        self.slots.len().saturating_sub(1)
    }

    /// Appends `pkt` to its flow's queue.
    pub fn push(&mut self, pkt: Packet) {
        self.ensure(pkt.flow);
        let slot = Slot {
            id: pkt.id,
            arrival: pkt.arrival,
            len: pkt.len,
            next: NIL,
        };
        let idx = if self.free != NIL {
            let idx = self.free;
            self.free = self.slots[idx as usize].next;
            self.slots[idx as usize] = slot;
            idx
        } else {
            // The first push allocates the pool (sentinel included), so
            // its memory comes from the thread that fills it: in a
            // runtime, the shard worker, not the thread that built the
            // scheduler.
            if self.slots.is_empty() {
                self.slots.push(SENTINEL);
            }
            let idx = u32::try_from(self.slots.len())
                .expect("FlowQueues holds at most u32::MAX waiting packets");
            self.slots.push(slot);
            idx
        };
        let tail = self.tail[pkt.flow];
        if tail == NIL {
            self.head[pkt.flow] = idx;
        } else {
            self.slots[tail as usize].next = idx;
        }
        self.tail[pkt.flow] = idx;
        self.backlog_flits += u64::from(pkt.len);
        self.backlog_pkts += 1;
        self.flits[pkt.flow] += u64::from(pkt.len);
    }

    /// Removes and returns the head packet of `flow`.
    pub fn pop(&mut self, flow: FlowId) -> Option<Packet> {
        let idx = *self.head.get(flow)?;
        if idx == NIL {
            return None;
        }
        let slot = self.slots[idx as usize];
        self.head[flow] = slot.next;
        if slot.next == NIL {
            self.tail[flow] = NIL;
        }
        self.slots[idx as usize].next = self.free;
        self.free = idx;
        self.backlog_flits -= u64::from(slot.len);
        self.backlog_pkts -= 1;
        self.flits[flow] -= u64::from(slot.len);
        Some(Packet {
            id: slot.id,
            flow,
            len: slot.len,
            arrival: slot.arrival,
        })
    }

    /// Removes and returns `flow`'s entire queue in FIFO order,
    /// adjusting the backlog counters (forced-abort extraction).
    pub fn take(&mut self, flow: FlowId) -> VecDeque<Packet> {
        let mut out = VecDeque::new();
        while let Some(pkt) = self.pop(flow) {
            out.push_back(pkt);
        }
        out
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
        match self.head.get(flow).copied() {
            None | Some(NIL) => None,
            Some(idx) => Some(self.slots[idx as usize].len),
        }
    }

    /// Whether `flow` has no waiting packets.
    pub fn is_empty(&self, flow: FlowId) -> bool {
        self.head.get(flow).is_none_or(|&h| h == NIL)
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
    fn slot_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 24);
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
        assert_eq!(q.pop(0), Some(Packet::new(1, 0, 7, 42)));
        assert_eq!(q.head_len(0), Some(9));
    }

    #[test]
    fn grows_on_demand() {
        let mut q = FlowQueues::new(1);
        q.push(pkt(1, 5, 3));
        assert_eq!(q.n_flows(), 6);
        assert!(!q.is_empty(5));
        assert_eq!(q.flow_flits(5), 3);
        assert!(q.is_empty(100)); // out of range == empty
    }

    #[test]
    fn pop_unknown_flow_is_none() {
        let mut q = FlowQueues::new(1);
        assert_eq!(q.pop(9), None);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut q = FlowQueues::new(3);
        for id in 0..6 {
            q.push(pkt(id, (id % 3) as usize, 1));
        }
        assert_eq!(q.pool_slots(), 6);
        for id in 6..1000 {
            let flow = (id % 3) as usize;
            assert!(q.pop(flow).is_some());
            q.push(pkt(id, flow, 1));
        }
        assert_eq!(q.pool_slots(), 6, "a steady backlog reuses its slots");
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

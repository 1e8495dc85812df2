//! The benchmark's end of the wire: the `Egress` every runtime workload
//! installs. It counts what arrives, checks per-flow order flit by flit,
//! and — for packets that carry a stamp in `Packet::arrival` — records
//! when their head and tail flits arrived. One instance per runtime
//! (every runtime workload uses one shard), written by one thread (the
//! shard worker under `Sync`, the flusher under `Buffered`) and read by
//! the generator.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use err_egress::Egress;
use err_sched::ServedFlit;

use crate::host::now_ns;

/// Time slots, indexed by `packet id & (SLOTS - 1)`. A timed phase must
/// submit fewer packets than this, or late packets overwrite early ones.
pub const SLOTS: usize = 1 << 18;

pub struct SinkShared {
    /// Flits / packets received so far. Stored (not added to) by the
    /// single writer after each tail flit.
    flits: AtomicU64,
    packets: AtomicU64,
    /// Flits that arrived out of per-flow order (wrong flit index, or a
    /// packet id not above its flow's previous one).
    order_violations: AtomicU64,
    /// Also clock the head flit (trace runs only: one more clock read
    /// per packet on the path being measured).
    pub time_heads: AtomicBool,
    head_ns: Box<[AtomicU64]>,
    tail_ns: Box<[AtomicU64]>,
}

impl SinkShared {
    pub fn new() -> Arc<Self> {
        let slots = || (0..SLOTS).map(|_| AtomicU64::new(0)).collect();
        Arc::new(Self {
            flits: AtomicU64::new(0),
            packets: AtomicU64::new(0),
            order_violations: AtomicU64::new(0),
            time_heads: AtomicBool::new(false),
            head_ns: slots(),
            tail_ns: slots(),
        })
    }

    pub fn packets(&self) -> u64 {
        // ordering: Acquire pairs with the sink's Release store after
        // the tail flit, so a reader that sees packet `n` counted also
        // sees its time slots and the flit count.
        self.packets.load(Ordering::Acquire)
    }

    pub fn flits(&self) -> u64 {
        self.flits.load(Ordering::Relaxed)
    }

    pub fn order_violations(&self) -> u64 {
        self.order_violations.load(Ordering::Relaxed)
    }

    /// `(head, tail)` arrival times of packet `id`, ns on the `now_ns`
    /// clock; valid once `packets()` has counted it.
    pub fn times(&self, id: u64) -> (u64, u64) {
        let slot = id as usize & (SLOTS - 1);
        (
            self.head_ns[slot].load(Ordering::Relaxed),
            self.tail_ns[slot].load(Ordering::Relaxed),
        )
    }
}

pub struct Sink {
    shared: Arc<SinkShared>,
    flits: u64,
    packets: u64,
    /// Per flow: the next flit index expected, and the lowest packet id
    /// the next head flit may carry.
    expect: Vec<(u32, u64)>,
}

impl Sink {
    pub fn new(shared: Arc<SinkShared>, n_flows: usize) -> Self {
        Self {
            shared,
            flits: 0,
            packets: 0,
            expect: vec![(0, 0); n_flows],
        }
    }
}

impl Egress for Sink {
    fn emit(&mut self, _shard: usize, f: &ServedFlit) {
        self.flits += 1;
        let (idx, min_id) = &mut self.expect[f.flow];
        if f.flit_index != *idx || (f.is_head() && f.packet < *min_id) {
            self.shared.order_violations.fetch_add(1, Ordering::Relaxed);
        }
        let timed = f.arrival != 0;
        let slot = f.packet as usize & (SLOTS - 1);
        if f.is_head() {
            *min_id = f.packet + 1;
            if timed && self.shared.time_heads.load(Ordering::Relaxed) {
                self.shared.head_ns[slot].store(now_ns(), Ordering::Relaxed);
            }
        }
        if f.is_tail() {
            *idx = 0;
            if timed {
                self.shared.tail_ns[slot].store(now_ns(), Ordering::Relaxed);
            }
            self.packets += 1;
            self.shared.flits.store(self.flits, Ordering::Relaxed);
            // ordering: Release — see `SinkShared::packets`.
            self.shared.packets.store(self.packets, Ordering::Release);
        } else {
            *idx = f.flit_index + 1;
        }
    }

    fn try_emit(&mut self, shard: usize, f: &ServedFlit) -> bool {
        self.emit(shard, f);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(flow: usize, packet: u64, idx: u32, len: u32, arrival: u64) -> ServedFlit {
        ServedFlit {
            flow,
            packet,
            arrival,
            len,
            flit_index: idx,
        }
    }

    #[test]
    fn counts_and_times_in_order_traffic() {
        let shared = SinkShared::new();
        shared.time_heads.store(true, Ordering::Relaxed);
        let mut sink = Sink::new(Arc::clone(&shared), 2);
        let stamp = now_ns() + 1;
        for (p, flow) in [(0u64, 0usize), (1, 1), (2, 0)] {
            for i in 0..3 {
                sink.emit(0, &flit(flow, p, i, 3, stamp));
            }
        }
        assert_eq!((shared.packets(), shared.flits()), (3, 9));
        assert_eq!(shared.order_violations(), 0);
        let (head, tail) = shared.times(2);
        assert!(head >= stamp && tail >= head);
    }

    #[test]
    fn flags_reordered_packets_and_flits() {
        let shared = SinkShared::new();
        let mut sink = Sink::new(Arc::clone(&shared), 1);
        sink.emit(0, &flit(0, 5, 0, 1, 0));
        sink.emit(0, &flit(0, 4, 0, 1, 0)); // older packet after newer
        sink.emit(0, &flit(0, 6, 1, 2, 0)); // tail without its head
        assert_eq!(shared.order_violations(), 2);
        assert_eq!(shared.times(5), (0, 0), "unstamped packets are not clocked");
    }
}

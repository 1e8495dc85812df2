//! The fabric's per-flow end-to-end ledger (DESIGN.md §11.3).
//!
//! Monotone counters only, updated with `Relaxed` ordering: readers
//! take statistical snapshots, never synchronize through them, and the
//! conservation identity is asserted only after the fabric has drained
//! (when every writer thread has been joined). The one doubling as a
//! clock — total ejected packets — orders chaos events (§11.4), which
//! needs monotonicity, not cross-counter consistency: each ejection
//! gets its own clock value, and the ejecting worker whose value
//! reaches the next due event applies it.
//!
//! **One writer per cell where the route allows it.** A flow is served
//! at every node by the worker of its home shard (DESIGN.md §8), so the
//! cells only one node ever writes for a flow have one writing thread:
//! the flow's eject-side fields (node `dst`) and its per-hop cells
//! (node `path[p]` for cell `p`). Those take a `Relaxed` load and a
//! store instead of a locked read-modify-write. Counters several nodes
//! or the producer bump keep their RMWs.

use std::sync::atomic::{AtomicU64, Ordering};

/// Adds `n` to a counter only one thread writes: a load and a store,
/// no locked RMW. Readers on other threads see the old or new value.
#[inline]
fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// Raises a maximum only one thread writes.
#[inline]
fn raise(cell: &AtomicU64, v: u64) {
    if v > cell.load(Ordering::Relaxed) {
        cell.store(v, Ordering::Relaxed);
    }
}

/// Per-flow counters, all `Relaxed` (see module docs).
#[derive(Default)]
pub(crate) struct FlowLedger {
    /// Written by any producer thread: RMW.
    submitted: AtomicU64,
    /// Written only by the flow's home-shard worker at node `dst`.
    ejected_packets: AtomicU64,
    /// Written only by the flow's home-shard worker at node `dst`.
    ejected_flits: AtomicU64,
    /// Written by the producer and by any node's worker: RMW.
    dropped: AtomicU64,
    /// Written by any node's worker: RMW.
    dead_lettered: AtomicU64,
    /// Written by any node's worker: RMW.
    rerouted: AtomicU64,
    /// Written only by the flow's home-shard worker at node `dst`.
    latency_sum_us: AtomicU64,
    /// Written only by the flow's home-shard worker at node `dst`.
    latency_max_us: AtomicU64,
    /// One cell per node on the flow's fault-free path (§11.8).
    hops: Vec<HopCell>,
}

/// Per-hop latency accumulators of one path node (§11.8): written
/// once per packet tail served there, in both the node's service
/// clock (flits served between entry and tail — wall-noise-free) and
/// wall microseconds (which telescope to the end-to-end figure). Cell
/// `p` is written only by the flow's home-shard worker at node
/// `path[p]`.
#[derive(Default)]
struct HopCell {
    packets: AtomicU64,
    sum_cycles: AtomicU64,
    sum_us: AtomicU64,
    max_cycles: AtomicU64,
}

/// One path node's per-hop accumulators at a point in time (§11.8).
#[derive(Clone, Copy, Debug, Default)]
pub struct HopSnapshot {
    /// Packet tails attributed to this hop.
    pub packets: u64,
    /// Summed service-clock deltas (flits the node served between the
    /// packet's post-admission entry and its tail service here).
    pub sum_cycles: u64,
    /// Summed wall-clock deltas, microseconds.
    pub sum_us: u64,
    /// Largest single service-clock delta.
    pub max_cycles: u64,
}

impl HopSnapshot {
    /// Mean per-packet service-clock delay at this hop (0 when empty).
    pub fn mean_cycles(&self) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        self.sum_cycles as f64 / self.packets as f64
    }

    /// Mean per-packet wall-clock delay at this hop, microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        self.sum_us as f64 / self.packets as f64
    }
}

/// One flow's ledger at a point in time.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowSnapshot {
    /// Packets accepted into the fabric at the source node.
    pub submitted: u64,
    /// Packets delivered at the destination's eject end.
    pub ejected_packets: u64,
    /// Flits delivered at the destination's eject end.
    pub ejected_flits: u64,
    /// Packets dropped or rejected by admission at any hop.
    pub dropped: u64,
    /// Packets killed because no live next hop existed (§11.2).
    pub dead_lettered: u64,
    /// Packets that crossed at least one alternate link (§11.4).
    pub rerouted: u64,
    /// Sum of end-to-end ejection latencies, microseconds.
    pub latency_sum_us: u64,
    /// Largest end-to-end ejection latency, microseconds.
    pub latency_max_us: u64,
}

impl FlowSnapshot {
    /// Mean end-to-end latency in microseconds (0 when nothing ejected).
    pub fn mean_latency_us(&self) -> f64 {
        if self.ejected_packets == 0 {
            return 0.0;
        }
        self.latency_sum_us as f64 / self.ejected_packets as f64
    }
}

/// The fabric-wide ledger: one set of counters per flow plus the
/// global ejection clock and the lost count (killed nodes' residuals,
/// §11.4).
pub struct FabricLedger {
    flows: Vec<FlowLedger>,
    ejected_total: AtomicU64,
    lost: AtomicU64,
}

impl FabricLedger {
    /// A zeroed ledger with `hop_counts[flow]` per-hop cells per flow
    /// (one per node on the flow's fault-free path, §11.8).
    pub(crate) fn with_hops(hop_counts: &[usize]) -> Self {
        Self {
            flows: hop_counts
                .iter()
                .map(|&h| FlowLedger {
                    hops: (0..h).map(|_| HopCell::default()).collect(),
                    ..FlowLedger::default()
                })
                .collect(),
            ejected_total: AtomicU64::new(0),
            lost: AtomicU64::new(0),
        }
    }

    /// Number of flows.
    pub fn n_flows(&self) -> usize {
        self.flows.len()
    }

    /// Records a packet accepted at its source node.
    pub(crate) fn on_submitted(&self, flow: usize) {
        self.flows[flow].submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one flit delivered at the destination eject end. Only
    /// the flow's home-shard worker at `dst` calls this.
    pub(crate) fn on_flit_ejected(&self, flow: usize) {
        bump(&self.flows[flow].ejected_flits, 1);
    }

    /// Records a packet fully ejected (its tail flit delivered), with
    /// its end-to-end latency. Only the flow's home-shard worker at
    /// `dst` calls this. Returns the new ejection-clock value, which no
    /// other ejection shares (§11.4): the clock is every node's, so it
    /// keeps its RMW.
    pub(crate) fn on_packet_ejected(&self, flow: usize, latency_us: u64) -> u64 {
        let f = &self.flows[flow];
        bump(&f.ejected_packets, 1);
        bump(&f.latency_sum_us, latency_us);
        raise(&f.latency_max_us, latency_us);
        self.ejected_total.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records an admission drop/reject at any hop.
    pub(crate) fn on_dropped(&self, flow: usize) {
        self.flows[flow].dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a no-live-next-hop kill (§11.2).
    pub(crate) fn on_dead_lettered(&self, flow: usize) {
        self.flows[flow]
            .dead_lettered
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a packet crossing an alternate link (§11.4).
    pub(crate) fn on_rerouted(&self, flow: usize) {
        self.flows[flow].rerouted.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` packets lost inside a killed or force-drained node.
    pub(crate) fn on_lost(&self, n: u64) {
        self.lost.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one packet tail served at path node `hop` of `flow`:
    /// `cycles` on the node's service clock, `us` on the wall clock
    /// (§11.8). Only the flow's home-shard worker at node `path[hop]`
    /// calls this. Out-of-range hops (a ledger built without hop cells)
    /// are ignored.
    pub(crate) fn on_hop(&self, flow: usize, hop: usize, cycles: u64, us: u64) {
        let Some(cell) = self.flows[flow].hops.get(hop) else {
            return;
        };
        bump(&cell.packets, 1);
        bump(&cell.sum_cycles, cycles);
        bump(&cell.sum_us, us);
        raise(&cell.max_cycles, cycles);
    }

    /// Snapshot of one flow's per-hop accumulators, in path order
    /// (empty when the ledger was built without hop cells).
    pub fn hop_snapshot(&self, flow: usize) -> Vec<HopSnapshot> {
        self.flows[flow]
            .hops
            .iter()
            .map(|c| HopSnapshot {
                packets: c.packets.load(Ordering::Relaxed),
                sum_cycles: c.sum_cycles.load(Ordering::Relaxed),
                sum_us: c.sum_us.load(Ordering::Relaxed),
                max_cycles: c.max_cycles.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// The ejection clock: total packets ejected fabric-wide.
    pub fn ejected_total(&self) -> u64 {
        self.ejected_total.load(Ordering::Relaxed)
    }

    /// Total packets lost to killed/force-drained nodes.
    pub fn lost(&self) -> u64 {
        self.lost.load(Ordering::Relaxed)
    }

    /// Snapshot of one flow.
    pub fn flow(&self, flow: usize) -> FlowSnapshot {
        let f = &self.flows[flow];
        FlowSnapshot {
            submitted: f.submitted.load(Ordering::Relaxed),
            ejected_packets: f.ejected_packets.load(Ordering::Relaxed),
            ejected_flits: f.ejected_flits.load(Ordering::Relaxed),
            dropped: f.dropped.load(Ordering::Relaxed),
            dead_lettered: f.dead_lettered.load(Ordering::Relaxed),
            rerouted: f.rerouted.load(Ordering::Relaxed),
            latency_sum_us: f.latency_sum_us.load(Ordering::Relaxed),
            latency_max_us: f.latency_max_us.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of every flow, indexed by flow id.
    pub fn snapshot(&self) -> Vec<FlowSnapshot> {
        (0..self.flows.len()).map(|f| self.flow(f)).collect()
    }
}

/// Per-node forwarder counters (all `Relaxed`; read for reporting and,
/// after a node's threads are joined, for the §11.4 lost computation —
/// a packet that entered a node and never shows in these left it).
#[derive(Default)]
pub(crate) struct NodeCounters {
    ejected_packets: AtomicU64,
    forwarded_packets: AtomicU64,
    dropped_downstream: AtomicU64,
    dead_lettered: AtomicU64,
    refusals: AtomicU64,
}

impl NodeCounters {
    /// Records a packet ejected at this node.
    pub(crate) fn on_ejected(&self) {
        self.ejected_packets.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a packet handed to a downstream node's ingress.
    pub(crate) fn on_forwarded(&self) {
        self.forwarded_packets.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a packet dropped/rejected by downstream admission.
    pub(crate) fn on_dropped_downstream(&self) {
        self.dropped_downstream.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a packet dead-lettered at this node.
    pub(crate) fn on_dead_lettered(&self) {
        self.dead_lettered.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a refused tail handoff (downstream ingress full, or a
    /// §14.2 hold). The node's worker offers a refused tail again once
    /// per wake or 100 µs poll — never from its idle looks — so the
    /// count is backpressure events on this node's cables, not the
    /// retries of a busy-wait.
    pub(crate) fn on_refusal(&self) {
        self.refusals.fetch_add(1, Ordering::Relaxed);
    }

    /// Packets that reached a terminal-or-next-hop outcome here:
    /// ejected, forwarded, dropped downstream, or dead-lettered.
    pub(crate) fn departed_packets(&self) -> u64 {
        self.ejected_packets.load(Ordering::Relaxed)
            + self.forwarded_packets.load(Ordering::Relaxed)
            + self.dropped_downstream.load(Ordering::Relaxed)
            + self.dead_lettered.load(Ordering::Relaxed)
    }

    /// Refused tail handoffs (each is one backpressure observation).
    pub(crate) fn refusals(&self) -> u64 {
        self.refusals.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_and_clock() {
        let l = FabricLedger::with_hops(&[0, 0]);
        l.on_submitted(0);
        l.on_submitted(0);
        l.on_flit_ejected(0);
        assert_eq!(l.on_packet_ejected(0, 10), 1);
        assert_eq!(l.on_packet_ejected(1, 30), 2);
        l.on_dropped(0);
        l.on_dead_lettered(1);
        l.on_rerouted(1);
        l.on_lost(3);
        let s = l.flow(0);
        assert_eq!(s.submitted, 2);
        assert_eq!(s.ejected_packets, 1);
        assert_eq!(s.ejected_flits, 1);
        assert_eq!(s.dropped, 1);
        assert_eq!(s.mean_latency_us(), 10.0);
        assert_eq!(l.flow(1).latency_max_us, 30);
        assert_eq!(l.ejected_total(), 2);
        assert_eq!(l.lost(), 3);
    }

    #[test]
    fn hop_cells_accumulate_and_ignore_out_of_range() {
        let l = FabricLedger::with_hops(&[2, 0]);
        l.on_hop(0, 0, 10, 3);
        l.on_hop(0, 0, 20, 5);
        l.on_hop(0, 1, 7, 1);
        l.on_hop(0, 5, 99, 99); // reroute detour: no cell, ignored
        l.on_hop(1, 0, 99, 99); // hopless ledger entry: ignored
        let h = l.hop_snapshot(0);
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].packets, 2);
        assert_eq!(h[0].mean_cycles(), 15.0);
        assert_eq!(h[0].sum_us, 8);
        assert_eq!(h[0].max_cycles, 20);
        assert_eq!(h[1].packets, 1);
        assert_eq!(h[1].mean_us(), 1.0);
        assert!(l.hop_snapshot(1).is_empty());
    }

    #[test]
    fn node_counters_departures() {
        let c = NodeCounters::default();
        c.on_ejected();
        c.on_forwarded();
        c.on_dropped_downstream();
        c.on_dead_lettered();
        c.on_refusal();
        assert_eq!(c.departed_packets(), 4);
        assert_eq!(c.refusals(), 1);
    }
}

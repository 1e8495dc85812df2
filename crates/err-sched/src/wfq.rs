//! Weighted Fair Queuing (Demers, Keshav, Shenker 1989) — packetized
//! emulation of GPS with per-packet virtual finish tags.
//!
//! Each arriving packet is stamped with the virtual time at which it
//! would finish under fluid GPS:
//!
//! ```text
//! S = max(V(now), F_i)        F = S + len / w_i
//! ```
//!
//! where `V` is the GPS virtual time (advancing at rate `1 / Σ w_j` over
//! the backlogged set per unit of real service) and `F_i` is the flow's
//! previous finish tag. Packets are served in increasing `F`.
//!
//! WFQ achieves a relative fairness measure of `m` (paper Table 1) but
//! pays **O(log n)** per packet for the sorted queue — and, like DRR, it
//! needs the packet length at *arrival* to compute the tag, so it is
//! inapplicable to wormhole scheduling. It is implemented here to anchor
//! the fairness/complexity trade-off that Table 1 (and our
//! `work_complexity` bench) reports.

use desim::Cycle;

use crate::packet::FlitStream;
use crate::timestamp::TagHeap;
use crate::traits::{Scheduler, ServedFlit};
use crate::{FlowId, Packet};

/// Weighted Fair Queuing scheduler.
#[derive(Default)]
pub struct WfqScheduler {
    heap: TagHeap,
    /// Virtual time of the emulated GPS server.
    virtual_time: f64,
    /// Last finish tag per flow.
    last_finish: Vec<f64>,
    weight: Vec<f64>,
    /// Packets pending per flow (queued + in flight), for backlog-set
    /// weight tracking.
    pending: Vec<u64>,
    /// Σ weights of backlogged flows.
    active_weight: f64,
    backlog_flits: u64,
    in_flight: Option<FlitStream>,
}

impl WfqScheduler {
    /// Creates a WFQ scheduler with equal weights for `n_flows` flows.
    pub fn new(n_flows: usize) -> Self {
        Self::with_weights(vec![1.0; n_flows])
    }

    /// Creates a WFQ scheduler with the given positive per-flow weights.
    pub fn with_weights(weights: Vec<f64>) -> Self {
        assert!(weights.iter().all(|&w| w > 0.0), "weights must be positive");
        let n = weights.len();
        Self {
            heap: TagHeap::new(),
            virtual_time: 0.0,
            last_finish: vec![0.0; n],
            weight: weights,
            pending: vec![0; n],
            active_weight: 0.0,
            backlog_flits: 0,
            in_flight: None,
        }
    }

    fn ensure(&mut self, flow: FlowId) {
        if flow >= self.weight.len() {
            self.weight.resize(flow + 1, 1.0);
            self.last_finish.resize(flow + 1, 0.0);
            self.pending.resize(flow + 1, 0);
        }
    }
}

impl Scheduler for WfqScheduler {
    fn enqueue(&mut self, pkt: Packet, _now: Cycle) {
        self.ensure(pkt.flow);
        if self.backlog_flits == 0 {
            // New busy period: GPS restarts; all stale tags are obsolete.
            self.virtual_time = 0.0;
            self.last_finish.iter_mut().for_each(|f| *f = 0.0);
        }
        if self.pending[pkt.flow] == 0 {
            self.active_weight += self.weight[pkt.flow];
        }
        self.pending[pkt.flow] += 1;
        self.backlog_flits += pkt.len as u64;
        let start = self.virtual_time.max(self.last_finish[pkt.flow]);
        let finish = start + pkt.len as f64 / self.weight[pkt.flow];
        self.last_finish[pkt.flow] = finish;
        self.heap.push(finish, pkt);
    }

    fn service_flit(&mut self, _now: Cycle) -> Option<ServedFlit> {
        if self.in_flight.is_none() {
            let (_, pkt) = self.heap.pop()?;
            self.in_flight = Some(FlitStream::new(pkt));
        }
        let stream = self.in_flight.as_mut().expect("just loaded");
        let pkt = *stream.packet();
        let (idx, done) = stream.emit();
        self.backlog_flits -= 1;
        // GPS virtual time advances per unit of real service at rate
        // 1 / (sum of backlogged weights).
        if self.active_weight > 0.0 {
            self.virtual_time += 1.0 / self.active_weight;
        }
        if done {
            self.in_flight = None;
            self.pending[pkt.flow] -= 1;
            if self.pending[pkt.flow] == 0 {
                self.active_weight -= self.weight[pkt.flow];
                if self.active_weight < 1e-9 {
                    self.active_weight = 0.0;
                }
            }
        }
        Some(ServedFlit::of(&pkt, idx))
    }

    fn backlog_flits(&self) -> u64 {
        self.backlog_flits
    }

    fn name(&self) -> &'static str {
        "WFQ"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, flow: FlowId, len: u32) -> Packet {
        Packet::new(id, flow, len, 0)
    }

    fn drain(s: &mut WfqScheduler) -> Vec<ServedFlit> {
        let mut out = Vec::new();
        let mut now = 0;
        while let Some(f) = s.service_flit(now) {
            out.push(f);
            now += 1;
        }
        out
    }

    #[test]
    fn equal_flows_share_equally() {
        let mut s = WfqScheduler::new(2);
        for k in 0..50u64 {
            s.enqueue(pkt(k, 0, 2), 0);
            s.enqueue(pkt(100 + k, 1, 2), 0);
        }
        let flits = drain(&mut s);
        // At any prefix the flit split is near-even.
        for end in (10..=flits.len()).step_by(10) {
            let f0 = flits[..end].iter().filter(|f| f.flow == 0).count() as i64;
            let f1 = end as i64 - f0;
            assert!((f0 - f1).abs() <= 4, "prefix {end}: {f0} vs {f1}");
        }
    }

    #[test]
    fn short_packets_not_starved_by_long() {
        // Flow 0 sends 32-flit packets, flow 1 sends 2-flit packets.
        // Under WFQ flow 1's packets finish early in virtual time and are
        // not stuck behind all of flow 0's backlog (as FCFS would do).
        let mut s = WfqScheduler::new(2);
        for k in 0..4u64 {
            s.enqueue(pkt(k, 0, 32), 0);
        }
        for k in 0..16u64 {
            s.enqueue(pkt(100 + k, 1, 2), 0);
        }
        let flits = drain(&mut s);
        // In the first 64 flits, flow 1 should have sent ~32.
        let f1_early = flits[..64].iter().filter(|f| f.flow == 1).count();
        assert!(
            f1_early >= 28,
            "flow 1 served only {f1_early}/64 early flits"
        );
    }

    #[test]
    fn weights_bias_service() {
        let mut s = WfqScheduler::with_weights(vec![3.0, 1.0]);
        for k in 0..200u64 {
            s.enqueue(pkt(k, 0, 4), 0);
            s.enqueue(pkt(1000 + k, 1, 4), 0);
        }
        let mut f0 = 0u64;
        for now in 0..400u64 {
            if let Some(f) = s.service_flit(now) {
                if f.flow == 0 {
                    f0 += 1;
                }
            }
        }
        let ratio = f0 as f64 / (400.0 - f0 as f64);
        assert!((2.3..3.8).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn work_conserving_and_complete() {
        let mut s = WfqScheduler::new(3);
        let mut total = 0u64;
        for k in 0..30u64 {
            let len = 1 + (k % 6) as u32;
            total += len as u64;
            s.enqueue(pkt(k, (k % 3) as usize, len), 0);
        }
        assert_eq!(drain(&mut s).len() as u64, total);
        assert!(s.is_idle());
    }

    #[test]
    fn virtual_time_resets_between_busy_periods() {
        let mut s = WfqScheduler::new(1);
        s.enqueue(pkt(0, 0, 4), 0);
        drain(&mut s);
        let v_end = s.virtual_time;
        assert!(v_end > 0.0);
        s.enqueue(pkt(1, 0, 4), 100);
        assert_eq!(s.virtual_time, 0.0);
        drain(&mut s);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_weight() {
        WfqScheduler::with_weights(vec![1.0, 0.0]);
    }
}

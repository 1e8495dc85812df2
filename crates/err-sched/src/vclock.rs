//! Virtual Clock (Zhang, SIGCOMM 1990) — the paper's reference \[20\].
//!
//! Where WFQ emulates GPS, Virtual Clock emulates *time-division
//! multiplexing*: each flow has a reserved rate `r_i` (its weight share
//! of the link), and each arriving packet is stamped with the completion
//! time it would have under TDM:
//!
//! ```text
//! VC_i = max(now, VC_i) + len / r_i
//! ```
//!
//! Packets are served in increasing stamp order (O(log n) per packet).
//! Virtual Clock's known weakness — a flow that idles can be punished
//! later, since its clock is compared against *real* time — is visible in
//! the tests below. Like the other timestamp disciplines it needs packet
//! lengths at arrival and is therefore not wormhole-deployable.

use desim::Cycle;

use crate::packet::FlitStream;
use crate::timestamp::TagHeap;
use crate::traits::{Scheduler, ServedFlit};
use crate::{FlowId, Packet};

/// Virtual Clock scheduler.
pub struct VclockScheduler {
    heap: TagHeap,
    vclock: Vec<f64>,
    /// Reserved service rate per flow, in flits per cycle.
    rate: Vec<f64>,
    backlog_flits: u64,
    in_flight: Option<FlitStream>,
}

impl VclockScheduler {
    /// Creates a Virtual Clock scheduler with the link split evenly:
    /// every flow reserves `1 / n_flows` of the capacity.
    pub fn new(n_flows: usize) -> Self {
        assert!(n_flows > 0, "need at least one flow");
        Self::with_rates(vec![1.0 / n_flows as f64; n_flows])
    }

    /// Creates a Virtual Clock scheduler with explicit per-flow reserved
    /// rates (flits per cycle, each positive; they should sum to ≤ 1 for
    /// the reservations to be feasible).
    fn with_rates(rates: Vec<f64>) -> Self {
        assert!(rates.iter().all(|&r| r > 0.0), "rates must be positive");
        let n = rates.len();
        Self {
            heap: TagHeap::new(),
            vclock: vec![0.0; n],
            rate: rates,
            backlog_flits: 0,
            in_flight: None,
        }
    }

    fn ensure(&mut self, flow: FlowId) {
        if flow >= self.rate.len() {
            let default = 1.0 / (flow + 1) as f64;
            self.rate.resize(flow + 1, default);
            self.vclock.resize(flow + 1, 0.0);
        }
    }
}

impl Scheduler for VclockScheduler {
    fn enqueue(&mut self, pkt: Packet, now: Cycle) {
        self.ensure(pkt.flow);
        self.backlog_flits += pkt.len as u64;
        let start = (now as f64).max(self.vclock[pkt.flow]);
        let finish = start + pkt.len as f64 / self.rate[pkt.flow];
        self.vclock[pkt.flow] = finish;
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
        if done {
            self.in_flight = None;
        }
        Some(ServedFlit::of(&pkt, idx))
    }

    fn backlog_flits(&self) -> u64 {
        self.backlog_flits
    }

    fn name(&self) -> &'static str {
        "VirtualClock"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u64, flow: FlowId, len: u32, arrival: u64) -> Packet {
        Packet::new(id, flow, len, arrival)
    }

    #[test]
    fn equal_rates_share_equally() {
        let mut s = VclockScheduler::new(2);
        for k in 0..50u64 {
            s.enqueue(pkt(k, 0, 2, 0), 0);
            s.enqueue(pkt(100 + k, 1, 2, 0), 0);
        }
        let mut f0 = 0u64;
        let mut served = 0u64;
        let mut now = 0;
        while let Some(f) = s.service_flit(now) {
            if f.flow == 0 {
                f0 += 1;
            }
            served += 1;
            now += 1;
        }
        assert_eq!(served, 200);
        assert_eq!(f0, 100);
    }

    #[test]
    fn reserved_rate_biases_service() {
        let mut s = VclockScheduler::with_rates(vec![0.75, 0.25]);
        for k in 0..100u64 {
            s.enqueue(pkt(k, 0, 2, 0), 0);
            s.enqueue(pkt(1000 + k, 1, 2, 0), 0);
        }
        let mut f0 = 0u64;
        for now in 0..200u64 {
            if s.service_flit(now).is_some_and(|f| f.flow == 0) {
                f0 += 1;
            }
        }
        let ratio = f0 as f64 / (200.0 - f0 as f64);
        assert!((2.2..4.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn idle_flow_can_be_punished_on_return() {
        // The classic Virtual Clock pathology: flow 0 bursts alone for a
        // long time, building its clock far past real time; when flow 1
        // appears, flow 0 is locked out until its clock catches up.
        let mut s = VclockScheduler::new(2);
        // Flow 0 sends 100 flits while alone: clock_0 ≈ 200 (rate 0.5).
        for k in 0..50u64 {
            s.enqueue(pkt(k, 0, 2, 0), 0);
        }
        let mut now = 0u64;
        for _ in 0..100 {
            s.service_flit(now);
            now += 1;
        }
        // At t=100 both flows enqueue; flow 1's stamps start near 100,
        // flow 0's continue from ~200.
        for k in 0..20u64 {
            s.enqueue(pkt(500 + k, 0, 2, now), now);
            s.enqueue(pkt(600 + k, 1, 2, now), now);
        }
        let mut first_20 = Vec::new();
        for _ in 0..20 {
            first_20.push(s.service_flit(now).unwrap().flow);
            now += 1;
        }
        assert!(
            first_20.iter().all(|&f| f == 1),
            "flow 1 should drain first: {first_20:?}"
        );
    }

    #[test]
    fn conservation() {
        let mut s = VclockScheduler::new(2);
        let mut total = 0u64;
        for k in 0..20u64 {
            let len = 1 + (k % 4) as u32;
            total += len as u64;
            s.enqueue(pkt(k, (k % 2) as usize, len, 0), 0);
        }
        let mut served = 0u64;
        let mut now = 0;
        while s.service_flit(now).is_some() {
            served += 1;
            now += 1;
        }
        assert_eq!(served, total);
    }
}

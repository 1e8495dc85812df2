//! A standalone input-queued wormhole switch.
//!
//! This models the scheduling point the paper's abstraction is drawn
//! from: `n` input queues (the paper's logical queues — possibly virtual
//! channels sharing a buffer) feeding `m` output queues. Entry into an
//! output queue is wormhole-constrained: once a packet's head flit is
//! granted the output, the output accepts only that packet's flits until
//! its tail passes, and a per-output [`OutputArbiter`] decides who goes
//! next. Downstream back-pressure is modeled by [`Sink`]s, so a packet's
//! *occupancy* of the output (charged to the arbiter per cycle) can far
//! exceed its length — the central premise of the paper.

use std::collections::VecDeque;

use desim::Cycle;
use err_sched::{FlowId, Packet, PacketId};
use serde::{Deserialize, Serialize};

use crate::arbiter::OutputArbiter;
use crate::flit::{packetize, Flit};
use crate::sink::Sink;

/// Occupancy record for one packet that traversed an output.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OccupancyRecord {
    /// Packet identity.
    pub packet: PacketId,
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// Input queue it was served from.
    pub queue: usize,
    /// Output it traversed.
    pub output: usize,
    /// Packet length in flits.
    pub len: u32,
    /// Cycles the packet held the output (≥ `len` with a ready sink;
    /// strictly more under downstream congestion).
    pub held: u64,
    /// Cycle the tail flit left.
    pub departed: Cycle,
}

/// An input-queued wormhole switch with pluggable per-output arbitration.
pub struct WormholeSwitch {
    queues: Vec<VecDeque<Flit>>,
    /// Output each queue's current head packet is committed to.
    q_target: Vec<Option<usize>>,
    /// Queue currently holding each output.
    out_lock: Vec<Option<usize>>,
    /// Cycles the current holder has held each output.
    held: Vec<u64>,
    arbiters: Vec<Box<dyn OutputArbiter>>,
    sinks: Vec<Box<dyn Sink>>,
    /// Flits forwarded per input queue (for fairness accounting).
    served_flits: Vec<u64>,
    occupancy_log: Vec<OccupancyRecord>,
}

impl WormholeSwitch {
    /// Creates a switch with `n_queues` input queues; output `o` is
    /// arbitrated by `arbiters[o]` and drains into `sinks[o]`.
    pub fn new(
        n_queues: usize,
        arbiters: Vec<Box<dyn OutputArbiter>>,
        sinks: Vec<Box<dyn Sink>>,
    ) -> Self {
        assert_eq!(
            arbiters.len(),
            sinks.len(),
            "one sink per arbitrated output"
        );
        assert!(!arbiters.is_empty(), "need at least one output");
        let n_outputs = arbiters.len();
        Self {
            queues: (0..n_queues).map(|_| VecDeque::new()).collect(),
            q_target: vec![None; n_queues],
            out_lock: vec![None; n_outputs],
            held: vec![0; n_outputs],
            arbiters,
            sinks,
            served_flits: vec![0; n_queues],
            occupancy_log: Vec::new(),
        }
    }

    /// Number of input queues.
    pub fn n_queues(&self) -> usize {
        self.queues.len()
    }

    /// Number of outputs.
    fn n_outputs(&self) -> usize {
        self.sinks.len()
    }

    /// Injects a packet into input queue `queue`, destined for output
    /// `output`.
    pub fn inject(&mut self, queue: usize, pkt: &Packet, output: usize) {
        assert!(output < self.n_outputs(), "no such output {output}");
        self.queues[queue].extend(packetize(pkt, output));
    }

    /// Flits waiting (or in transfer) in input queue `queue`.
    pub fn backlog(&self, queue: usize) -> usize {
        self.queues[queue].len()
    }

    /// Whether every queue is drained.
    pub fn is_idle(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Flits forwarded so far from each input queue.
    pub fn served_flits(&self) -> &[u64] {
        &self.served_flits
    }

    /// Per-packet output-occupancy records.
    pub fn occupancy_log(&self) -> &[OccupancyRecord] {
        &self.occupancy_log
    }

    /// Access to an output's sink.
    pub fn sink(&self, output: usize) -> &dyn Sink {
        self.sinks[output].as_ref()
    }

    /// Access to an output's arbiter.
    pub fn arbiter(&self, output: usize) -> &dyn OutputArbiter {
        self.arbiters[output].as_ref()
    }

    /// Advances the switch one cycle.
    pub fn step(&mut self, now: Cycle) {
        for sink in &mut self.sinks {
            sink.tick(now);
        }
        // 1. Route: queues whose head-of-line flit is an unrouted head
        //    register with the target output's arbiter.
        for q in 0..self.queues.len() {
            if self.q_target[q].is_none() {
                if let Some(f) = self.queues[q].front() {
                    let o = f.dest().expect("head of an idle queue must be a head flit");
                    assert!(o < self.n_outputs(), "routed to missing output");
                    self.q_target[q] = Some(o);
                    self.arbiters[o].flow_activated(q);
                }
            }
        }
        // 2. Grant free outputs.
        for o in 0..self.out_lock.len() {
            if self.out_lock[o].is_none() {
                if let Some(q) = self.arbiters[o].grant() {
                    debug_assert_eq!(self.q_target[q], Some(o), "grant to non-requester");
                    self.out_lock[o] = Some(q);
                    self.held[o] = 0;
                }
            }
        }
        // 3. Transfer one flit per output; charge occupancy regardless of
        //    whether the downstream accepted (the output is blocked for
        //    everyone else either way).
        for o in 0..self.out_lock.len() {
            let Some(q) = self.out_lock[o] else { continue };
            self.arbiters[o].charge();
            self.held[o] += 1;
            if !self.sinks[o].can_accept(now) {
                continue; // stalled by downstream congestion
            }
            let Some(&front) = self.queues[q].front() else {
                continue; // input starved (flits still arriving upstream)
            };
            let flit = self.queues[q].pop_front().expect("front exists");
            debug_assert_eq!(front, flit);
            self.served_flits[q] += 1;
            let is_tail = flit.is_tail();
            let (packet, flow) = (flit.packet, flit.flow);
            self.sinks[o].accept(flit, now);
            if is_tail {
                // Wormhole path released: does the next packet in this
                // queue request the same output?
                self.q_target[q] = None;
                let still = self.queues[q]
                    .front()
                    .and_then(|nf| nf.dest())
                    .is_some_and(|d| d == o);
                if still {
                    self.q_target[q] = Some(o);
                }
                self.arbiters[o].packet_done(still);
                self.occupancy_log.push(OccupancyRecord {
                    packet,
                    flow,
                    queue: q,
                    output: o,
                    len: front.index + 1,
                    held: self.held[o],
                    departed: now,
                });
                self.out_lock[o] = None;
            }
        }
    }

    /// Runs until idle or `max_cycles`, starting at cycle `start`.
    /// Returns the first idle cycle.
    pub fn run_until_idle(&mut self, start: Cycle, max_cycles: u64) -> Cycle {
        let mut now = start;
        while !self.is_idle() && now < start + max_cycles {
            self.step(now);
            now += 1;
        }
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterKind;
    use crate::sink::{BlockingSink, PerfectSink, ThrottledSink};

    fn switch(kind: ArbiterKind, n_queues: usize, sinks: Vec<Box<dyn Sink>>) -> WormholeSwitch {
        let arbiters = (0..sinks.len()).map(|_| kind.build(n_queues)).collect();
        WormholeSwitch::new(n_queues, arbiters, sinks)
    }

    #[test]
    fn single_packet_occupancy_equals_len_with_perfect_sink() {
        let mut sw = switch(ArbiterKind::Err, 1, vec![Box::new(PerfectSink::new())]);
        sw.inject(0, &Packet::new(0, 0, 5, 0), 0);
        sw.run_until_idle(0, 100);
        let log = sw.occupancy_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].len, 5);
        assert_eq!(log[0].held, 5);
        assert_eq!(sw.sink(0).delivered(), 5);
    }

    #[test]
    fn occupancy_exceeds_len_under_downstream_throttle() {
        // The paper's premise: with a slow downstream, a packet of length
        // L holds the output for ~3L cycles — unknowable at grant time.
        let mut sw = switch(ArbiterKind::Err, 1, vec![Box::new(ThrottledSink::new(3))]);
        sw.inject(0, &Packet::new(0, 0, 4, 0), 0);
        sw.run_until_idle(0, 1000);
        let rec = sw.occupancy_log()[0];
        assert_eq!(rec.len, 4);
        assert!(rec.held >= 10, "held {} should be ~3x len", rec.held);
    }

    #[test]
    fn wormhole_no_interleaving_at_output() {
        let mut sw = switch(ArbiterKind::Rr, 3, vec![Box::new(PerfectSink::new())]);
        for q in 0..3usize {
            for k in 0..4u64 {
                sw.inject(q, &Packet::new(q as u64 * 10 + k, q, 3 + k as u32, 0), 0);
            }
        }
        sw.run_until_idle(0, 10_000);
        // Check the delivered stream at the sink via occupancy log order
        // plus per-record contiguity (the sink received len flits of each
        // packet contiguously by construction if no panic fired); verify
        // total conservation here.
        let total: u64 = (0..3).map(|q| sw.served_flits()[q]).sum();
        let expect: u64 = (0..3).flat_map(|_| (0..4u64).map(|k| 3 + k)).sum();
        assert_eq!(total, expect);
        assert_eq!(sw.occupancy_log().len(), 12);
    }

    #[test]
    fn outputs_operate_independently() {
        let mut sw = switch(
            ArbiterKind::Err,
            2,
            vec![Box::new(PerfectSink::new()), Box::new(PerfectSink::new())],
        );
        sw.inject(0, &Packet::new(0, 0, 4, 0), 0);
        sw.inject(1, &Packet::new(1, 1, 4, 0), 1);
        let end = sw.run_until_idle(0, 100);
        // Both packets transfer in parallel: done in ~5 cycles, not ~9.
        assert!(end <= 6, "finished at {end}");
        assert_eq!(sw.sink(0).delivered(), 4);
        assert_eq!(sw.sink(1).delivered(), 4);
    }

    #[test]
    fn err_arbitration_time_fair_under_blocking() {
        // Queue 0 sends long packets (16 flits), queue 1 short (2 flits),
        // both to output 0 whose sink randomly blocks. ERR should even
        // out *occupancy time* between the queues.
        let mut sw = switch(
            ArbiterKind::Err,
            2,
            vec![Box::new(BlockingSink::new(7, 0.1, 0.2))],
        );
        for k in 0..120u64 {
            sw.inject(0, &Packet::new(k, 0, 16, 0), 0);
        }
        for k in 0..960u64 {
            sw.inject(1, &Packet::new(1000 + k, 1, 2, 0), 0);
        }
        // Run long enough for both to stay backlogged a while.
        for now in 0..4000u64 {
            sw.step(now);
        }
        let held: [u64; 2] = [0, 1].map(|q| {
            sw.occupancy_log()
                .iter()
                .filter(|r| r.queue == q)
                .map(|r| r.held)
                .sum()
        });
        assert!(held[0] > 0 && held[1] > 0);
        let ratio = held[0] as f64 / held[1] as f64;
        assert!(
            (0.7..1.4).contains(&ratio),
            "ERR occupancy-time ratio {ratio} ({held:?})"
        );
    }

    #[test]
    fn rr_arbitration_is_packet_fair_not_time_fair() {
        let mut sw = switch(ArbiterKind::Rr, 2, vec![Box::new(PerfectSink::new())]);
        for k in 0..200u64 {
            sw.inject(0, &Packet::new(k, 0, 16, 0), 0);
            sw.inject(1, &Packet::new(1000 + k, 1, 2, 0), 0);
        }
        for now in 0..3000u64 {
            sw.step(now);
        }
        let held: [u64; 2] = [0, 1].map(|q| {
            sw.occupancy_log()
                .iter()
                .filter(|r| r.queue == q)
                .map(|r| r.held)
                .sum()
        });
        let ratio = held[0] as f64 / held[1] as f64;
        assert!(ratio > 5.0, "RR should skew time 8:1, got {ratio}");
    }

    #[test]
    fn occupancy_log_len_field_is_packet_len() {
        let mut sw = switch(ArbiterKind::Fcfs, 1, vec![Box::new(PerfectSink::new())]);
        sw.inject(0, &Packet::new(0, 0, 7, 0), 0);
        sw.inject(0, &Packet::new(1, 0, 2, 0), 0);
        sw.run_until_idle(0, 100);
        let lens: Vec<u32> = sw.occupancy_log().iter().map(|r| r.len).collect();
        assert_eq!(lens, vec![7, 2]);
    }
}

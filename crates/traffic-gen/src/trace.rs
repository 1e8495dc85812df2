//! Packet-trace record and replay.
//!
//! The comparison methodology of the paper feeds *identical* traffic to
//! every discipline. [`Workload`] already guarantees
//! that via seeding; traces additionally let a workload be captured once,
//! inspected, and replayed — useful for debugging a single scheduling
//! decision and for regression tests pinned to an exact packet sequence.

use desim::Cycle;
use err_sched::Packet;

use crate::workload::Workload;

/// A recorded packet arrival sequence, ordered by arrival cycle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PacketTrace {
    packets: Vec<Packet>,
    cursor: usize,
}

impl PacketTrace {
    /// Records a workload's first `horizon` cycles of arrivals.
    pub fn capture(workload: &mut Workload, horizon: Cycle) -> Self {
        let mut packets = Vec::new();
        for now in 0..horizon {
            workload.poll(now, &mut packets);
        }
        Self { packets, cursor: 0 }
    }

    /// All packets in the trace.
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Number of distinct flows referenced.
    pub fn n_flows(&self) -> usize {
        self.packets.iter().map(|p| p.flow + 1).max().unwrap_or(0)
    }

    /// Appends to `out` the packets arriving at exactly `now` (replay
    /// analogue of [`Workload::poll`]). Call with non-decreasing `now`.
    pub fn poll(&mut self, now: Cycle, out: &mut Vec<Packet>) {
        while let Some(p) = self.packets.get(self.cursor) {
            if p.arrival > now {
                break;
            }
            out.push(*p);
            self.cursor += 1;
        }
    }

    /// Whether replay has delivered every packet.
    pub fn exhausted(&self) -> bool {
        self.cursor >= self.packets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use crate::dist::LenDist;
    use crate::flows::FlowSpec;

    fn sample_workload() -> Workload {
        Workload::new(
            vec![
                FlowSpec {
                    arrivals: ArrivalProcess::Bernoulli { rate: 0.2 },
                    lengths: LenDist::Uniform { lo: 1, hi: 9 },
                },
                FlowSpec {
                    arrivals: ArrivalProcess::Cbr {
                        period: 11,
                        phase: 2,
                    },
                    lengths: LenDist::Constant(4),
                },
            ],
            99,
        )
    }

    #[test]
    fn capture_then_replay_matches_workload() {
        let mut w1 = sample_workload();
        let trace = PacketTrace::capture(&mut w1, 500);
        let mut w2 = sample_workload();
        let mut direct = Vec::new();
        let mut replayed = Vec::new();
        let mut t = trace.clone();
        for now in 0..500 {
            w2.poll(now, &mut direct);
            t.poll(now, &mut replayed);
        }
        assert_eq!(direct, replayed);
        assert!(t.exhausted());
    }
}

//! Packet delay measurement (paper Figure 5).

use desim::{Cycle, OnlineStats};
use err_sched::ServedFlit;

/// Records per-packet delays, overall and per flow.
///
/// Delay follows the paper's definition: "the number of cycles between
/// the instant it is placed in the queue for scheduling, to the instant
/// its last flit is dequeued" — i.e. `tail_service_cycle - arrival`.
#[derive(Clone, Debug)]
pub struct DelayRecorder {
    overall: OnlineStats,
    per_flow: Vec<OnlineStats>,
}

impl DelayRecorder {
    /// Creates a recorder for `n_flows` flows.
    pub fn new(n_flows: usize) -> Self {
        Self {
            overall: OnlineStats::new(),
            per_flow: vec![OnlineStats::new(); n_flows],
        }
    }

    /// Feeds a served flit; only tail flits record a delay sample.
    pub fn on_flit(&mut self, flit: &ServedFlit, now: Cycle) {
        if !flit.is_tail() {
            return;
        }
        debug_assert!(now >= flit.arrival, "departure before arrival");
        let delay = now - flit.arrival;
        self.overall.push(delay as f64);
        if let Some(s) = self.per_flow.get_mut(flit.flow) {
            s.push(delay as f64);
        }
    }

    /// Mean delay across all packets, in cycles.
    pub fn mean(&self) -> f64 {
        self.overall.mean()
    }

    /// Number of packets measured.
    pub fn count(&self) -> u64 {
        self.overall.count()
    }

    /// Mean delay of one flow's packets.
    pub fn flow_mean(&self, flow: usize) -> f64 {
        self.per_flow.get(flow).map_or(0.0, |s| s.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use err_sched::Packet;

    fn tail(flow: usize, arrival: u64, len: u32) -> ServedFlit {
        ServedFlit::of(&Packet::new(0, flow, len, arrival), len - 1)
    }

    #[test]
    fn only_tail_flits_count() {
        let mut d = DelayRecorder::new(1);
        let p = Packet::new(0, 0, 3, 5);
        d.on_flit(&ServedFlit::of(&p, 0), 6);
        d.on_flit(&ServedFlit::of(&p, 1), 7);
        assert_eq!(d.count(), 0);
        d.on_flit(&ServedFlit::of(&p, 2), 8);
        assert_eq!(d.count(), 1);
        assert_eq!(d.mean(), 3.0); // 8 - 5
    }

    #[test]
    fn per_flow_and_overall_means() {
        let mut d = DelayRecorder::new(2);
        d.on_flit(&tail(0, 0, 1), 4); // delay 4
        d.on_flit(&tail(0, 10, 1), 16); // delay 6
        d.on_flit(&tail(1, 0, 1), 10); // delay 10
        assert_eq!(d.flow_mean(0), 5.0);
        assert_eq!(d.flow_mean(1), 10.0);
        assert!((d.mean() - 20.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.count(), 3);
    }
}

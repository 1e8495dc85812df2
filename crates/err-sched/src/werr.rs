//! Weighted Elastic Round Robin — the differentiated-service extension.
//!
//! The paper motivates fair scheduling partly by "the increasing demand
//! for customer-specific differentiated services" (§1). The natural
//! weighted generalization of ERR (developed by the same authors in
//! follow-up work) scales each flow's entitlement by an integer weight:
//!
//! ```text
//! A_i(r) = w_i · (1 + MaxSC(r-1)) - SC_i(r-1)
//! ```
//!
//! With all `w_i = 1` this reduces exactly to Eq. (2) of the paper. A
//! flow of weight `w` receives `w×` the long-run service of a weight-1
//! flow while both are backlogged, and the scheduler retains the two
//! properties that matter for wormhole networks: O(1) work per packet
//! and no a-priori knowledge of packet lengths.
//!
//! The implementation reuses [`ErrCore`] (which carries the weights); this
//! module provides the weighted constructor plus the scheduler wrapper.

use desim::Cycle;

use crate::err::{ErrCore, ErrScheduler};
use crate::traits::{Scheduler, ServedFlit};
use crate::Packet;

/// Weighted ERR scheduler.
///
/// # Example
///
/// ```
/// use err_sched::{Packet, Scheduler, werr::WerrScheduler};
///
/// // Flow 0 is entitled to 3x the bandwidth of flow 1.
/// let mut s = WerrScheduler::new(vec![3, 1]);
/// for k in 0..300 {
///     s.enqueue(Packet::new(k, 0, 4, 0), 0);
///     s.enqueue(Packet::new(1000 + k, 1, 4, 0), 0);
/// }
/// // Serve 400 flits and compare shares.
/// let mut f0 = 0u64;
/// for now in 0..400 {
///     if let Some(f) = s.service_flit(now) {
///         if f.flow == 0 { f0 += 1; }
///     }
/// }
/// let ratio = f0 as f64 / (400.0 - f0 as f64);
/// assert!((2.0..4.5).contains(&ratio), "ratio {ratio}");
/// ```
#[derive(Clone, Debug)]
pub struct WerrScheduler {
    inner: ErrScheduler,
}

impl WerrScheduler {
    /// Creates a weighted ERR scheduler; `weights[i]` is flow `i`'s
    /// integer weight (≥ 1).
    pub fn new(weights: Vec<u64>) -> Self {
        let n = weights.len();
        Self {
            inner: ErrScheduler::from_core(ErrCore::with_weights(weights), n),
        }
    }

    /// Read access to the decision engine.
    pub fn core(&self) -> &ErrCore {
        self.inner.core()
    }

    /// Mutable access to the decision engine (tracing).
    pub fn core_mut(&mut self) -> &mut ErrCore {
        self.inner.core_mut()
    }
}

impl Scheduler for WerrScheduler {
    fn enqueue(&mut self, pkt: Packet, now: Cycle) {
        self.inner.enqueue(pkt, now);
    }

    fn service_flit(&mut self, now: Cycle) -> Option<ServedFlit> {
        self.inner.service_flit(now)
    }

    fn backlog_flits(&self) -> u64 {
        self.inner.backlog_flits()
    }

    fn name(&self) -> &'static str {
        "WERR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowId;

    fn pkt(id: u64, flow: FlowId, len: u32) -> Packet {
        Packet::new(id, flow, len, 0)
    }

    /// Serve `n` flits, returning per-flow counts.
    fn serve_n(s: &mut WerrScheduler, n: u64, flows: usize) -> Vec<u64> {
        let mut counts = vec![0u64; flows];
        for now in 0..n {
            if let Some(f) = s.service_flit(now) {
                counts[f.flow] += 1;
            }
        }
        counts
    }

    #[test]
    fn unit_weights_match_plain_err() {
        use crate::err::ErrScheduler;
        let mut w = WerrScheduler::new(vec![1, 1, 1]);
        let mut e = ErrScheduler::new(3);
        for k in 0..60u64 {
            let p = pkt(k, (k % 3) as usize, 1 + (k % 9) as u32);
            w.enqueue(p, 0);
            e.enqueue(p, 0);
        }
        let mut now = 0;
        loop {
            let a = w.service_flit(now);
            let b = e.service_flit(now);
            assert_eq!(a, b, "divergence at cycle {now}");
            if a.is_none() {
                break;
            }
            now += 1;
        }
    }

    #[test]
    fn weights_split_bandwidth_proportionally() {
        let mut s = WerrScheduler::new(vec![1, 2, 4]);
        // Each flow gets ~9000 flits of backlog so even the weight-4 flow
        // (entitled to 4/7 of the 12000 measured flits ≈ 6857) never runs
        // dry during measurement.
        for k in 0..3000u64 {
            for f in 0..3usize {
                s.enqueue(pkt(k * 3 + f as u64, f, 1 + (k % 5) as u32), 0);
            }
        }
        let counts = serve_n(&mut s, 12_000, 3);
        let total: u64 = counts.iter().sum();
        assert_eq!(total, 12_000, "work conserving while backlogged");
        let share = |f: usize| counts[f] as f64 / total as f64;
        assert!(
            (share(0) - 1.0 / 7.0).abs() < 0.02,
            "w=1 share {}",
            share(0)
        );
        assert!(
            (share(1) - 2.0 / 7.0).abs() < 0.02,
            "w=2 share {}",
            share(1)
        );
        assert!(
            (share(2) - 4.0 / 7.0).abs() < 0.02,
            "w=4 share {}",
            share(2)
        );
    }

    #[test]
    fn weighted_allowance_formula() {
        // Directly check A_i = w_i * (1 + MaxSC(r-1)) - SC_i(r-1).
        let mut s = WerrScheduler::new(vec![2, 1]);
        s.core_mut().set_trace(true);
        // Round 1 (PrevMaxSC=0): flow 0 allowance 2, flow 1 allowance 1.
        // Flow 0 sends one 5-flit packet (surplus 3); flow 1 one 9-flit
        // (surplus 8 → MaxSC). Keep queues non-empty.
        s.enqueue(pkt(0, 0, 5), 0);
        s.enqueue(pkt(1, 0, 1), 0);
        s.enqueue(pkt(2, 1, 9), 0);
        s.enqueue(pkt(3, 1, 1), 0);
        let mut now = 0;
        while s.service_flit(now).is_some() {
            now += 1;
        }
        let t = s.core_mut().take_trace();
        assert_eq!((t[0].flow, t[0].allowance, t[0].surplus), (0, 2, 3));
        assert_eq!((t[1].flow, t[1].allowance, t[1].surplus), (1, 1, 8));
        // Round 2: MaxSC(1)=8 → A_0 = 2*9 - 3 = 15, A_1 = 1*9 - 8 = 1.
        assert_eq!((t[2].flow, t[2].allowance), (0, 15));
        assert_eq!((t[3].flow, t[3].allowance), (1, 1));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_weight_rejected() {
        WerrScheduler::new(vec![1, 0]);
    }
}

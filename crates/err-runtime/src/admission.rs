//! Bounded per-flow admission control.
//!
//! Under overload a work-conserving scheduler's queues grow without
//! bound; the admission controller caps each flow's outstanding backlog
//! (in flits — the same unit ERR charges service in) and applies one of
//! three policies when a flow exceeds its cap:
//!
//! * [`AdmissionPolicy::DropTail`] — silently drop the packet, counting
//!   it, like a switch input buffer;
//! * [`AdmissionPolicy::Reject`] — fail the submit call so the producer
//!   can react (load-shedding at the API boundary);
//! * [`AdmissionPolicy::Backpressure`] — make the producer wait until
//!   the flow's backlog shrinks (ingress-rate coupling).
//!
//! Accounting is a single cache-padded atomic per flow: producers
//! `fetch_add` at submit, shards `fetch_sub` when a packet's tail flit
//! leaves. No locks anywhere on the admission path, so admission cost
//! stays O(1) per packet — matching the paper's argument that the
//! scheduling decision itself must be O(1) to run at link rate.

use std::sync::atomic::{AtomicU64, Ordering};

/// What to do when a flow exceeds its backlog cap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// No per-flow cap; producers only ever wait for ingress-ring space.
    Unlimited,
    /// Drop over-cap packets, counting them (`max_backlog` in flits).
    DropTail {
        /// Per-flow outstanding-flit cap.
        max_backlog: u64,
    },
    /// Refuse over-cap packets with
    /// [`SubmitError::Rejected`](crate::SubmitError::Rejected).
    Reject {
        /// Per-flow outstanding-flit cap.
        max_backlog: u64,
    },
    /// Block the producer until the flow fits under its cap again.
    Backpressure {
        /// Per-flow outstanding-flit cap.
        max_backlog: u64,
    },
}

impl AdmissionPolicy {
    /// The per-flow cap, if the policy has one.
    pub fn max_backlog(&self) -> Option<u64> {
        match *self {
            AdmissionPolicy::Unlimited => None,
            AdmissionPolicy::DropTail { max_backlog }
            | AdmissionPolicy::Reject { max_backlog }
            | AdmissionPolicy::Backpressure { max_backlog } => Some(max_backlog),
        }
    }
}

/// Immediate verdict on one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitDecision {
    /// The packet may enter; its flits are already accounted.
    Admit,
    /// Drop silently (drop-tail policy).
    Drop,
    /// Refuse with an error (reject policy).
    Reject,
    /// The flow is over cap and the policy says wait (backpressure).
    Wait,
}

#[derive(Debug, Default)]
#[repr(align(64))]
struct FlowBacklog(AtomicU64);

/// Tracks per-flow outstanding flits and applies an [`AdmissionPolicy`].
#[derive(Debug)]
pub struct AdmissionController {
    policy: AdmissionPolicy,
    backlog: Vec<FlowBacklog>,
}

impl AdmissionController {
    /// Creates a controller for flows `0..n_flows`.
    pub fn new(policy: AdmissionPolicy, n_flows: usize) -> Self {
        Self {
            policy,
            backlog: (0..n_flows).map(|_| FlowBacklog::default()).collect(),
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Current outstanding flits of `flow`.
    pub fn flow_backlog(&self, flow: usize) -> u64 {
        self.backlog
            .get(flow)
            .map(|b| b.0.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Decides whether a `len`-flit packet of `flow` may enter. On
    /// [`AdmitDecision::Admit`] the flits are charged to the flow and the
    /// caller **must** eventually release them via
    /// [`on_packet_served`](Self::on_packet_served) (or
    /// [`revoke`](Self::revoke) if the packet never reaches a shard).
    pub fn try_admit(&self, flow: usize, len: u32) -> AdmitDecision {
        let Some(cap) = self.policy.max_backlog() else {
            self.charge(flow, len);
            return AdmitDecision::Admit;
        };
        let b = &self.backlog[flow].0;
        let mut cur = b.load(Ordering::Relaxed);
        loop {
            // Admit while the flow is strictly under its cap (a single
            // packet may overshoot it, mirroring ERR's elastic visits:
            // the decision is made before the packet's length is known
            // to be "too big" — we only require room for the head).
            if cur >= cap {
                return match self.policy {
                    AdmissionPolicy::DropTail { .. } => AdmitDecision::Drop,
                    AdmissionPolicy::Reject { .. } => AdmitDecision::Reject,
                    AdmissionPolicy::Backpressure { .. } => AdmitDecision::Wait,
                    AdmissionPolicy::Unlimited => unreachable!("cap implies limited policy"),
                };
            }
            match b.compare_exchange_weak(
                cur,
                cur + len as u64,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return AdmitDecision::Admit,
                Err(now) => cur = now,
            }
        }
    }

    /// Charges `len` flits to `flow` unconditionally.
    fn charge(&self, flow: usize, len: u32) {
        self.backlog[flow]
            .0
            .fetch_add(len as u64, Ordering::Relaxed);
    }

    /// Releases a fully-served packet's flits.
    pub fn on_packet_served(&self, flow: usize, len: u32) {
        let prev = self.backlog[flow]
            .0
            .fetch_sub(len as u64, Ordering::Relaxed);
        debug_assert!(prev >= len as u64, "admission accounting went negative");
    }

    /// Un-charges an admitted packet that never entered a shard (e.g.
    /// the submit was abandoned because the runtime closed).
    pub fn revoke(&self, flow: usize, len: u32) {
        self.on_packet_served(flow, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_admits() {
        let a = AdmissionController::new(AdmissionPolicy::Unlimited, 2);
        for _ in 0..1000 {
            assert_eq!(a.try_admit(0, 64), AdmitDecision::Admit);
        }
        assert_eq!(a.flow_backlog(0), 64_000);
    }

    #[test]
    fn drop_tail_drops_over_cap_and_recovers() {
        let a = AdmissionController::new(AdmissionPolicy::DropTail { max_backlog: 100 }, 1);
        // Backlog may overshoot the cap by one packet (elastic head-of-
        // line admission), after which everything drops.
        assert_eq!(a.try_admit(0, 90), AdmitDecision::Admit);
        assert_eq!(a.try_admit(0, 90), AdmitDecision::Admit);
        assert_eq!(a.flow_backlog(0), 180);
        assert_eq!(a.try_admit(0, 1), AdmitDecision::Drop);
        a.on_packet_served(0, 90);
        assert_eq!(a.try_admit(0, 5), AdmitDecision::Admit);
        assert_eq!(a.flow_backlog(0), 95);
    }

    #[test]
    fn reject_and_backpressure_report_their_verdicts() {
        let r = AdmissionController::new(AdmissionPolicy::Reject { max_backlog: 10 }, 1);
        assert_eq!(r.try_admit(0, 10), AdmitDecision::Admit);
        assert_eq!(r.try_admit(0, 1), AdmitDecision::Reject);
        let b = AdmissionController::new(AdmissionPolicy::Backpressure { max_backlog: 10 }, 1);
        assert_eq!(b.try_admit(0, 10), AdmitDecision::Admit);
        assert_eq!(b.try_admit(0, 1), AdmitDecision::Wait);
        b.on_packet_served(0, 10);
        assert_eq!(b.try_admit(0, 1), AdmitDecision::Admit);
    }

    #[test]
    fn caps_are_per_flow() {
        let a = AdmissionController::new(AdmissionPolicy::DropTail { max_backlog: 8 }, 3);
        assert_eq!(a.try_admit(0, 8), AdmitDecision::Admit);
        assert_eq!(a.try_admit(0, 1), AdmitDecision::Drop);
        assert_eq!(a.try_admit(1, 8), AdmitDecision::Admit);
        assert_eq!(a.try_admit(2, 8), AdmitDecision::Admit);
    }
}

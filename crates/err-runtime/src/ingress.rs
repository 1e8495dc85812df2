//! The producer-facing side of the runtime: flow→shard partitioning and
//! the lock-free submit path.
//!
//! Flows are hash-partitioned across shards with a SplitMix64 finalizer,
//! so every packet of a flow lands on the same shard (preserving per-flow
//! FIFO through the shard's private scheduler) while distinct flows
//! spread evenly. The partition is [`home_shard`], fixed for the life
//! of the runtime: nothing moves a flow (DESIGN.md §8). The submit path
//! is: admission check (one atomic RMW) → ring push (one CAS) → stats
//! bump. No locks, no allocation.
//!
//! A plain push never wakes the shard worker (that would hand the CPU
//! back and forth once per packet); the producer wakes it only where
//! it is itself about to wait on the worker — a backpressure `Wait` or
//! a full ring, the zero-deadline refusals included (DESIGN.md §6).

use std::sync::Arc;

use err_egress::WakeCell;
use err_sched::Packet;

use crate::admission::{AdmissionController, AdmitDecision};
use crate::channel::MpscRing;
use crate::fault::{FaultPlan, FaultRuntime};
use crate::gate::DrainGate;
use crate::stats::{RuntimeStats, ShardStats};
use crate::RuntimeConfig;

/// Why a submit did not accept a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The runtime is shutting down; no new packets are admitted.
    Closed,
    /// The flow is over its admission cap under the reject policy.
    Rejected,
    /// A [`submit_within`](RuntimeHandle::submit_within) deadline
    /// expired while waiting (backpressure or ring space); the packet
    /// never entered a ring and its admission charge, if any, was
    /// revoked (DESIGN.md §9.4).
    TimedOut,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Closed => write!(f, "runtime is draining; admission closed"),
            SubmitError::Rejected => write!(f, "flow over admission cap"),
            SubmitError::TimedOut => write!(f, "submit deadline expired while waiting"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What happened to a submitted packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Submitted {
    /// The packet entered its shard's ingress ring.
    Enqueued,
    /// The packet was dropped by drop-tail admission (and counted).
    Dropped,
}

/// SplitMix64 finalizer: maps flow ids to well-mixed u64s so consecutive
/// flow ids do not land on consecutive shards.
#[inline]
pub(crate) fn mix_flow(flow: usize) -> u64 {
    let mut z = (flow as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shard `flow` lives on in a runtime of `shards` shards: the
/// static SplitMix64 partition, the same for the runtime's whole life.
#[inline]
pub fn home_shard(flow: usize, shards: usize) -> usize {
    (mix_flow(flow) % shards as u64) as usize
}

/// State shared between producers and shard workers.
pub(crate) struct Shared {
    pub(crate) rings: Vec<MpscRing<Packet>>,
    /// One wake cell per shard: where that shard's worker sleeps when
    /// it has nothing to do. Producers wake it at their own blocking
    /// points, flushers (through the `LinkSet`) when credits return.
    pub(crate) wakes: Vec<Arc<WakeCell>>,
    pub(crate) stats: Vec<ShardStats>,
    pub(crate) admission: AdmissionController,
    /// Fault-tolerance state: the board and any compiled `FaultPlan`.
    /// A dead shard resumes in place, so no flow moves (DESIGN.md §9.2).
    pub(crate) fault: FaultRuntime,
    /// The shutdown gate: `closed` flag + in-flight submit counter as a
    /// Dekker-style pair, so workers never take their *final* look at
    /// the ingress rings while a producer that missed the close is
    /// mid-push. Extracted to [`crate::gate`] (and model-checked by
    /// err-check) in PR 5. Its state word also carries the
    /// forced-shutdown latch (DESIGN.md §9.4) and the down bit (§14.1).
    pub(crate) gate: DrainGate,
}

impl Shared {
    /// The block `config`'s shards share, with `plan` compiled per
    /// shard; no worker yet.
    pub(crate) fn new(config: &RuntimeConfig, plan: &FaultPlan) -> Self {
        let shards = config.shards;
        Self {
            rings: (0..shards)
                .map(|_| MpscRing::with_capacity(config.ring_capacity))
                .collect(),
            wakes: (0..shards).map(|_| Arc::new(WakeCell::new())).collect(),
            stats: (0..shards).map(|_| ShardStats::default()).collect(),
            admission: AdmissionController::new(config.admission, config.n_flows),
            fault: FaultRuntime::new(shards, plan),
            gate: DrainGate::new(),
        }
    }

    /// The shard `flow` routes to: [`home_shard`].
    #[inline]
    pub(crate) fn shard_of(&self, flow: usize) -> usize {
        home_shard(flow, self.rings.len())
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.gate.is_closed()
    }

    /// Whether a worker is allowed to exit once its own ring and
    /// scheduler are empty; see [`DrainGate::can_finish`].
    pub(crate) fn can_finish(&self) -> bool {
        self.gate.can_finish()
    }

    /// Producer → worker wake, for a producer about to wait on
    /// `shard`'s worker: unparks it if it sleeps while its ingress ring
    /// holds packets. A worker asleep over an empty ring waits for
    /// credits, which only a flusher can bring. The *claimed* count is
    /// the right one here: a slot claimed and not yet published makes
    /// the woken worker yield to its producer (`run_shard`), where the
    /// pop predicate would have left a full ring's waiters unannounced.
    fn wake_worker_for_intake(&self, shard: usize) {
        if !self.rings[shard].is_empty() {
            self.wakes[shard].wake();
        }
    }
}

/// How long a submit may wait for admission or ring space.
#[derive(Clone, Copy)]
enum Patience {
    /// [`RuntimeHandle::submit`]: until there is room.
    Forever,
    /// A zero deadline: refuse at the first wait.
    None,
    /// Until the deadline, fixed when the call started.
    Until(std::time::Instant),
}

impl Patience {
    /// Whether a submit about to wait must refuse instead.
    fn exhausted(self) -> bool {
        match self {
            Patience::Forever => false,
            Patience::None => true,
            Patience::Until(deadline) => std::time::Instant::now() >= deadline,
        }
    }
}

/// Cloneable producer handle: submit packets from any thread.
#[derive(Clone)]
pub struct RuntimeHandle {
    pub(crate) shared: Arc<Shared>,
}

impl RuntimeHandle {
    /// Submits one packet, applying admission control and routing it to
    /// its flow's shard.
    ///
    /// * `Ok(Submitted::Enqueued)` — accepted, will be served.
    /// * `Ok(Submitted::Dropped)` — counted drop (drop-tail policy).
    /// * `Err(SubmitError::Rejected)` — over cap (reject policy).
    /// * `Err(SubmitError::Closed)` — the runtime is draining.
    ///
    /// Under the backpressure policy (and for ingress-ring space under
    /// every policy) the call spins/yields until there is room, so it
    /// may block the producer — that is the point of backpressure.
    pub fn submit(&self, pkt: Packet) -> Result<Submitted, SubmitError> {
        self.submit_inner(pkt, Patience::Forever)
    }

    /// Like [`submit`](Self::submit), but any wait — the backpressure
    /// spin or a full ingress ring — gives up when `timeout` elapses,
    /// returning [`SubmitError::TimedOut`] with the packet's admission
    /// charge revoked and the attempt counted in `timedout_packets`
    /// (DESIGN.md §9.4). A zero timeout makes the call non-blocking: it
    /// refuses at its first wait and reads no clock.
    pub fn submit_within(
        &self,
        pkt: Packet,
        timeout: std::time::Duration,
    ) -> Result<Submitted, SubmitError> {
        let patience = if timeout.is_zero() {
            Patience::None
        } else {
            Patience::Until(std::time::Instant::now() + timeout)
        };
        self.submit_inner(pkt, patience)
    }

    fn submit_inner(&self, pkt: Packet, patience: Patience) -> Result<Submitted, SubmitError> {
        let shared = &*self.shared;
        // Announce the in-flight submit *before* the closed check (the
        // Dekker pairing inside `DrainGate::enter`): once a worker has
        // seen `closed && in_flight == 0`, any producer arriving here
        // must observe the closed gate and bail without touching a
        // ring. The permit is held across every exit path below.
        let Some(_permit) = shared.gate.enter() else {
            return Err(SubmitError::Closed);
        };
        // Admission first, then the push, both on the flow's one shard.
        let shard = shared.shard_of(pkt.flow);
        let stats = &shared.stats[shard].producer;
        loop {
            match shared.admission.try_admit(pkt.flow, pkt.len) {
                AdmitDecision::Admit => break,
                AdmitDecision::Drop => {
                    stats.dropped_packets.add(1);
                    stats.dropped_flits.add(pkt.len as u64);
                    return Ok(Submitted::Dropped);
                }
                AdmitDecision::Reject => {
                    stats.rejected_packets.add(1);
                    return Err(SubmitError::Rejected);
                }
                AdmitDecision::Wait => {
                    if shared.gate.refuses() {
                        return Err(SubmitError::Closed);
                    }
                    // About to wait (or, past the deadline, to refuse)
                    // until the worker serves this flow.
                    shared.wake_worker_for_intake(shard);
                    if patience.exhausted() {
                        stats.timedout_packets.add(1);
                        return Err(SubmitError::TimedOut);
                    }
                    std::thread::yield_now();
                }
            }
        }
        // A dead shard's ring stays put: its worker resumes draining it
        // (§9.2), so a full ring is waited out the same whether the
        // worker is behind or resuming.
        // Ring push: one CAS. Full ring means the shard is behind;
        // wait for space (drop-tail drops instead, shedding at the
        // ring too).
        let ring = &shared.rings[shard];
        loop {
            match ring.push(pkt) {
                Ok(()) => {
                    stats.enqueued_packets.add(1);
                    stats.enqueued_flits.add(pkt.len as u64);
                    return Ok(Submitted::Enqueued);
                }
                Err(crate::channel::RingFull) => {
                    if matches!(
                        shared.admission.policy(),
                        crate::admission::AdmissionPolicy::DropTail { .. }
                    ) {
                        shared.admission.revoke(pkt.flow, pkt.len);
                        stats.dropped_packets.add(1);
                        stats.dropped_flits.add(pkt.len as u64);
                        return Ok(Submitted::Dropped);
                    }
                    if shared.gate.refuses() {
                        shared.admission.revoke(pkt.flow, pkt.len);
                        return Err(SubmitError::Closed);
                    }
                    // About to wait (or refuse) until the worker
                    // frees a slot.
                    shared.wake_worker_for_intake(shard);
                    if patience.exhausted() {
                        shared.admission.revoke(pkt.flow, pkt.len);
                        stats.timedout_packets.add(1);
                        return Err(SubmitError::TimedOut);
                    }
                    // `Packet` is `Copy`; retry with the same value.
                    std::thread::yield_now();
                }
            }
        }
    }

    /// A live statistics snapshot (merged across shards).
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats::collect(&self.shared.stats, None)
    }

    /// Total flits served across all shards so far — the runtime's
    /// **service clock**: a monotone flit-time that advances only
    /// while workers serve, cheap enough to read per packet-hop
    /// (no snapshot allocation, `Relaxed` counter loads only).
    pub fn served_flits(&self) -> u64 {
        let stats = self.shared.stats.iter();
        stats.map(|s| s.worker.served_flits.get()).sum()
    }

    /// Whether `shutdown()` has been called.
    pub fn is_closed(&self) -> bool {
        self.shared.is_closed()
    }

    /// Takes the runtime down (`true`) or brings it back up (`false`):
    /// a crash in place (DESIGN.md §14.1). A down runtime refuses every
    /// submit with [`SubmitError::Closed`]. At its next intake boundary
    /// each worker waits until no producer is inside `submit`, counts
    /// what it holds lost exactly as a forced abort does (§9.4), and
    /// idles without serving until the runtime is up again, with an
    /// empty scheduler. Returns whether the runtime is down and every
    /// worker has swept since it went down; taking a down runtime down
    /// again only asks that.
    pub fn set_down(&self, down: bool) -> bool {
        let shared = &*self.shared;
        let epoch = shared.gate.set_down(down);
        for cell in &shared.wakes {
            cell.wake();
        }
        let board = &shared.fault.board;
        epoch.is_some_and(|e| (0..board.shards()).all(|s| board.swept(s) == e))
    }

    /// The shard a flow maps to: [`home_shard`]. Stable for the
    /// runtime's lifetime.
    pub fn shard_of(&self, flow: usize) -> usize {
        self.shared.shard_of(flow)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shared.rings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::{home_shard, mix_flow};
    use crate::{Runtime, RuntimeConfig};
    use err_sched::Packet;

    #[test]
    fn flow_mixing_spreads_consecutive_flows() {
        // 64 consecutive flow ids over 4 shards: every shard must get a
        // reasonable share (the uniform-workload scaling property
        // depends on this).
        let mut counts = [0usize; 4];
        for flow in 0..64 {
            counts[(mix_flow(flow) % 4) as usize] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(
                (8..=24).contains(&c),
                "shard {shard} got {c}/64 flows — partitioning is badly skewed"
            );
        }
    }

    #[test]
    fn a_flow_stays_on_its_home_shard_for_the_runtimes_life() {
        const FLOWS: usize = 64;
        let (rt, handle) = Runtime::start(RuntimeConfig {
            shards: 3,
            n_flows: FLOWS,
            ..RuntimeConfig::default()
        });
        let homes = |when: &str| {
            for flow in 0..FLOWS {
                assert_eq!(
                    handle.shard_of(flow),
                    home_shard(flow, 3),
                    "{when}: flow {flow}"
                );
            }
        };
        homes("before");
        // Skewed on purpose: flow 0 carries most of the burst.
        for id in 0..2_000u64 {
            let flow = if id % 4 == 0 {
                (id as usize / 4) % FLOWS
            } else {
                0
            };
            handle.submit(Packet::new(id, flow, 8, 0)).unwrap();
        }
        homes("after");
        let report = rt.shutdown();
        assert_eq!(report.served_packets(), 2_000);
        homes("after shutdown");
    }

    #[test]
    fn mixing_is_deterministic() {
        for f in 0..100 {
            assert_eq!(mix_flow(f), mix_flow(f));
        }
    }
}

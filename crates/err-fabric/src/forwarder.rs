//! The Forwarder: a node's egress sink, running on its shard workers,
//! that turns served flits into fabric hops (DESIGN.md §11.2).
//!
//! Body flits of a transit flow always cross (the link credit models
//! the downstream flit buffer); on the **tail** flit the whole packet
//! has crossed the link and is handed to the neighbor runtime with a
//! non-blocking submit. Nothing here ever waits, so the Forwarder runs
//! unwrapped in each worker's flusher step, after every service chunk:
//! a node is one thread per shard. A refused tail stays in the link's pending queue
//! with its credit held — as flits pile behind it the pool drains and
//! the upstream scheduler parks exactly the flows routed over that link
//! (§7): wormhole backpressure, hop by hop.
//!
//! A wormhole route is fixed per flow and per hop, so nothing here
//! routes: each flit reads its flow's entry in the node's hop table,
//! compiled once at `Fabric::start` (§11.1). A tail hand-off reads its
//! peer's handle from the fixed slice `Fabric::start` installed, pays
//! one `HopTracker` lock trip (two when refused) and one clock read; the
//! topology is asked for alternates only once the primary link is not
//! viable.
//!
//! The ejection that reaches a chaos event applies it in place (§11.4):
//! flag flips, a node's runtime taken down or back up, and wakes —
//! nothing that waits, whatever the event.
//!
//! The `Egress` entry points run under a catch-unwind supervisor
//! (DESIGN.md §14.4): a panicking forwarder body poisons the flit's
//! next-hop cable (declared dead — honest accounting takes over) and
//! charges the flit's packet as dead-lettered, instead of unwinding
//! into the worker and wedging the fabric gate.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use err_egress::{DeadLinkPolicy, Egress};
use err_runtime::{SubmitError, Submitted};
use err_sched::{Packet, ServedFlit};

use crate::chaos::ForwarderExit;
use crate::fabric::{ExitLog, FabricGate, Faults};
use crate::hops::{HopEntry, HopTracker};
use crate::stats::{FabricLedger, NodeCounters};
use crate::topology::{FlowSpec, Hop, Step, Topology};

/// The Forwarder's verdict for one served flit (DESIGN.md §11.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForwardOutcome {
    /// The flow's route here is `Eject`: delivered locally; on the
    /// tail flit the ledger records the packet and its latency.
    Ejected,
    /// No live next hop exists and the fabric holds for recovery
    /// (§14.2): like [`Refused`](Self::Refused), the tail stays
    /// pending with its credit held, waiting for a heal instead of
    /// dying.
    Held,
    /// The handoff completed over the primary link — body flits
    /// always, the tail by downstream accepting the packet (or
    /// terminally accounting it as an admission drop).
    Forwarded,
    /// The neighbor's ingress has no room: the tail flit stays
    /// pending and its credit stays taken (backpressure).
    Refused,
    /// The primary next hop was dead; the packet crossed an alternate
    /// link instead (mesh: the YX step; fat-tree: the next ECMP
    /// up-link).
    Rerouted,
    /// No live next hop exists: the packet is dropped *and counted*
    /// in the fabric ledger (fail-stop with an honest ledger).
    DeadLettered,
}

/// Per-node egress sink; one clone serves each of the node's shards
/// (the shard's worker owns it, so `Send` suffices).
#[derive(Clone)]
pub struct Forwarder {
    node: usize,
    /// Asked only for reroute alternates, once the primary link is not
    /// viable.
    topo: Arc<Topology>,
    specs: Arc<Vec<FlowSpec>>,
    /// This node's compiled verdict per flow (§11.1): the primary step,
    /// its peer, and the node's position on the flow's path (§11.8).
    hops: Arc<[Hop]>,
    ledger: Arc<FabricLedger>,
    counters: Arc<NodeCounters>,
    gate: Arc<FabricGate>,
    /// Liveness flags, panic switches, the dead-link policy (§14.2),
    /// every node's ingress handle, and the chaos schedule each
    /// ejection drives (§11.4).
    faults: Arc<Faults>,
    /// Per-packet entry stamps for §11.8 hop attribution.
    tracker: Arc<HopTracker>,
    epoch: Instant,
    /// Where the §14.4 supervisor records caught unwinds.
    exits: Arc<ExitLog>,
}

impl Forwarder {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        node: usize,
        topo: Arc<Topology>,
        specs: Arc<Vec<FlowSpec>>,
        ledger: Arc<FabricLedger>,
        counters: Arc<NodeCounters>,
        gate: Arc<FabricGate>,
        faults: Arc<Faults>,
        tracker: Arc<HopTracker>,
        hops: Arc<[Hop]>,
        epoch: Instant,
        exits: Arc<ExitLog>,
    ) -> Self {
        Self {
            node,
            topo,
            specs,
            hops,
            ledger,
            counters,
            gate,
            faults,
            tracker,
            epoch,
            exits,
        }
    }

    /// Turns a taken entry stamp into a hop record at this node's
    /// `position` on the flow's path (skipped off-path, §11.7):
    /// service-clock and wall deltas from post-admission entry to tail
    /// service. Entries stamped for a different node (a lost stamping
    /// race, see `hops`) are dropped.
    fn record_hop(&self, flow: usize, position: Option<usize>, entry: HopEntry, now_us: u64) {
        let Some(hop) = position.filter(|_| entry.node == self.node) else {
            return;
        };
        let handle = &self.faults.handles()[self.node];
        let cycles = handle
            .served_flits()
            .saturating_sub(entry.entry_served_flits);
        self.ledger
            .on_hop(flow, hop, cycles, now_us.saturating_sub(entry.entry_us));
    }

    /// Classifies and applies one served flit. Everything except
    /// [`ForwardOutcome::Refused`] consumes the flit.
    pub fn on_flit(&mut self, flit: &ServedFlit) -> ForwardOutcome {
        let flow = flit.flow;
        let hop = self.hops[flow];
        match hop.step {
            Step::Eject => {
                self.ledger.on_flit_ejected(flow);
                if flit.is_tail() {
                    let now_us = self.epoch.elapsed().as_micros() as u64;
                    let clock = self
                        .ledger
                        .on_packet_ejected(flow, now_us.saturating_sub(flit.arrival));
                    if let Some(entry) = self.tracker.take(flit.packet) {
                        self.record_hop(flow, hop.position, entry, now_us);
                    }
                    self.counters.on_ejected();
                    // Before the departure, so no drain sees the fabric
                    // empty while an event this ejection reached waits.
                    self.faults.reach(clock);
                    self.gate.depart(1);
                }
                ForwardOutcome::Ejected
            }
            Step::Forward { link, peer } => {
                if !flit.is_tail() {
                    return ForwardOutcome::Forwarded;
                }
                self.hand_off(flit, hop.position, link, peer)
            }
        }
    }

    /// Tail-flit packet handoff: non-blocking submit over the primary
    /// `link` to `peer`, then, if that is not viable, to the first live
    /// alternate (DESIGN.md §11.2, §11.4).
    fn hand_off(
        &mut self,
        flit: &ServedFlit,
        position: Option<usize>,
        link: usize,
        peer: usize,
    ) -> ForwardOutcome {
        let flow = flit.flow;
        if self.faults.panic_arm.take(self.node) {
            panic!(
                "FabricFaultPlan: injected forwarder panic at node {} (flow {}, packet {})",
                self.node, flow, flit.packet
            );
        }
        let pkt = Packet {
            id: flit.packet,
            flow,
            len: flit.len,
            arrival: flit.arrival,
        };
        // One clock read per attempt, whatever the candidate count.
        let now_us = self.epoch.elapsed().as_micros() as u64;
        if let Some(outcome) = self.offer(pkt, position, (link, peer), false, now_us) {
            return outcome;
        }
        // Cold: the primary is dead (or its peer closed under us).
        let topo = Arc::clone(&self.topo);
        for link in topo
            .candidate_links(self.node, flow, self.specs[flow])
            .skip(1)
        {
            let peer = topo.peer(self.node, link).expect("transit link has a peer");
            if let Some(outcome) = self.offer(pkt, position, (link, peer), true, now_us) {
                return outcome;
            }
        }
        if self.faults.policy == DeadLinkPolicy::HoldForRecovery {
            // §14.2: no live next hop, but the fabric holds for
            // recovery — keep the tail pending (credit held) so a
            // later heal replays it instead of losing it.
            self.counters.on_refusal();
            return ForwardOutcome::Held;
        }
        self.tracker.take(flit.packet);
        self.ledger.on_dead_lettered(flow);
        self.counters.on_dead_lettered();
        self.gate.depart(1);
        ForwardOutcome::DeadLettered
    }

    /// Offers `pkt` to `peer` across `link` (an `alternate` one when the
    /// primary was not viable). `None` when the link is not viable or
    /// the peer's runtime closed between the liveness check and the
    /// submit: the caller tries its next candidate.
    fn offer(
        &mut self,
        pkt: Packet,
        position: Option<usize>,
        (link, peer): (usize, usize),
        alternate: bool,
        now_us: u64,
    ) -> Option<ForwardOutcome> {
        if !self.faults.dead.viable(self.node, link, Some(peer)) {
            return None;
        }
        let peer_handle = &self.faults.handles()[peer];
        // Pre-stamp the peer entry: the instant the submit lands in the
        // peer's ring its tail may be served there, and the stamp must
        // already be visible (§11.8). The one lock trip hands back this
        // node's stamp, restored on a refusal.
        let stamp = HopEntry {
            node: peer,
            entry_us: now_us,
            entry_served_flits: peer_handle.served_flits(),
        };
        let prev = self.tracker.replace(pkt.id, stamp);
        let flow = pkt.flow;
        match peer_handle.submit_within(pkt, Duration::ZERO) {
            Ok(Submitted::Enqueued) => {
                if let Some(entry) = prev {
                    self.record_hop(flow, position, entry, now_us);
                }
                self.counters.on_forwarded();
                Some(if alternate {
                    self.ledger.on_rerouted(flow);
                    ForwardOutcome::Rerouted
                } else {
                    ForwardOutcome::Forwarded
                })
            }
            Ok(Submitted::Dropped) | Err(SubmitError::Rejected) => {
                // Downstream admission accounted it: terminal.
                self.tracker.take(pkt.id);
                self.ledger.on_dropped(flow);
                self.counters.on_dropped_downstream();
                self.gate.depart(1);
                Some(ForwardOutcome::Forwarded)
            }
            Err(SubmitError::TimedOut) => {
                // No room right now: hold the flit (and its credit) and
                // retry on the next flusher step; the entry stamp goes
                // back to this node.
                self.restore(pkt.id, prev);
                self.counters.on_refusal();
                Some(ForwardOutcome::Refused)
            }
            Err(SubmitError::Closed) => {
                // The peer died between the liveness check and the
                // submit, or was revived but reopens only at its
                // settlement, which this refusal may complete (§14.1):
                // try the next candidate.
                self.restore(pkt.id, prev);
                self.faults.settle();
                None
            }
        }
    }

    /// Puts back the stamp a refused hand-off replaced.
    fn restore(&self, packet: u64, prev: Option<HopEntry>) {
        match prev {
            Some(entry) => {
                self.tracker.replace(packet, entry);
            }
            None => {
                self.tracker.take(packet);
            }
        }
    }

    /// §14.4 supervisor: runs `on_flit` under `catch_unwind` and, on a
    /// panic, converts the unwind into honest accounting: the flit's
    /// next-hop cable is declared dead (routes fail over or hold), a
    /// tail flit's packet is charged as dead-lettered and departed from
    /// the gate, and the exit is recorded for the drain report. Returns
    /// whether the flit was consumed (a caught panic always consumes).
    fn supervised(&mut self, flit: &ServedFlit) -> bool {
        let body = AssertUnwindSafe(|| self.on_flit(flit));
        match catch_unwind(body) {
            Ok(outcome) => !matches!(outcome, ForwardOutcome::Refused | ForwardOutcome::Held),
            Err(payload) => {
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                let flow = flit.flow;
                let poisoned_link = match self.hops[flow].step {
                    Step::Forward { link, .. } => {
                        self.faults.dead.kill_link(self.node, link);
                        Some(link)
                    }
                    Step::Eject => None,
                };
                if flit.is_tail() {
                    self.tracker.take(flit.packet);
                    self.ledger.on_dead_lettered(flow);
                    self.counters.on_dead_lettered();
                    self.gate.depart(1);
                }
                self.exits.record(ForwarderExit {
                    node: self.node,
                    flow,
                    packet: flit.packet,
                    poisoned_link,
                    message,
                });
                true
            }
        }
    }
}

impl Egress for Forwarder {
    fn emit(&mut self, _shard: usize, flit: &ServedFlit) {
        // Unconditional delivery: spin out a transient refusal (or a
        // §14.2 hold, which only a concurrent heal resolves). The
        // flusher step never calls this (it uses `try_emit`); it exists
        // for direct-driven tests.
        while !self.supervised(flit) {
            std::thread::yield_now();
        }
    }

    /// Accepts or refuses at once: a hand-off submits with a zero
    /// deadline and is refused when the peer has no room, and a chaos
    /// event an ejection reaches is applied without waiting (§11.4).
    /// So the node's worker runs it in its flusher step and the node is
    /// one thread per shard (DESIGN.md §11.2).
    fn try_emit(&mut self, _shard: usize, flit: &ServedFlit) -> bool {
        self.supervised(flit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, Ordering};

    use err_runtime::{AdmissionPolicy, Runtime, RuntimeConfig};

    thread_local! {
        /// Heap requests made by this thread.
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// The system allocator, counting requests per calling thread so
    /// the other tests of this binary (and the peer runtime's threads)
    /// do not show in a test's own count.
    struct CountingAlloc;

    // SAFETY: every method forwards its arguments unchanged to
    // `System`, which upholds the `GlobalAlloc` contract; the counter
    // is a const-initialised thread-local `Cell` without a destructor,
    // so touching it from inside the allocator allocates nothing.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            // SAFETY: the caller's contract, passed through.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: the caller's contract, passed through.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            // SAFETY: the caller's contract, passed through.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    /// Node 0 of a 2x1 mesh, forwarding flow 0 to node 1: a real
    /// runtime whose sink the test can block. A blocked worker lets the
    /// ingress ring fill, and a full ring refuses.
    struct Harness {
        fwd: Forwarder,
        peer: Runtime,
        blocked: Arc<AtomicBool>,
        /// Set by node 1's sink once it waits on `blocked`: its worker
        /// pops nothing more until the sink is unblocked.
        waiting: Arc<AtomicBool>,
        tracker: Arc<HopTracker>,
        ledger: Arc<FabricLedger>,
        counters: Arc<NodeCounters>,
    }

    const RING: usize = 4096;

    /// The harness; `take_stamps` makes node 1's sink retire each
    /// packet's stamp when it serves the tail, as its own forwarder
    /// would on eject.
    fn harness(take_stamps: bool) -> Harness {
        let blocked = Arc::new(AtomicBool::new(false));
        let waiting = Arc::new(AtomicBool::new(false));
        let tracker = Arc::new(HopTracker::new());
        let (peer, peer_handle) = {
            let (blocked, waiting, tracker) = (
                Arc::clone(&blocked),
                Arc::clone(&waiting),
                Arc::clone(&tracker),
            );
            Runtime::start_with_egress(
                RuntimeConfig {
                    shards: 1,
                    n_flows: 1,
                    ring_capacity: RING,
                    admission: AdmissionPolicy::Backpressure {
                        max_backlog: 1 << 30,
                    },
                    ..RuntimeConfig::default()
                },
                move |_shard| {
                    let (blocked, waiting, tracker) = (
                        Arc::clone(&blocked),
                        Arc::clone(&waiting),
                        Arc::clone(&tracker),
                    );
                    Some(move |_s: usize, f: &ServedFlit| {
                        while blocked.load(Ordering::Acquire) {
                            waiting.store(true, Ordering::Release);
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        if take_stamps {
                            tracker.take(f.packet);
                        }
                    })
                },
            )
        };
        let topo = Arc::new(Topology::mesh(2, 1));
        let specs = vec![FlowSpec { src: 0, dst: 1 }];
        let routes = topo.compile(&specs);
        let counters = Arc::new(NodeCounters::default());
        let ledger = Arc::new(FabricLedger::with_hops(&routes.path_lens));
        let gate = Arc::new(FabricGate::new());
        let faults = Faults::new(
            Arc::clone(&topo),
            DeadLinkPolicy::DropAndAccount,
            None,
            vec![Arc::clone(&counters), Arc::default()],
            Arc::clone(&ledger),
            Arc::clone(&gate),
        );
        faults.install(vec![peer_handle.clone(), peer_handle], Vec::new());
        let fwd = Forwarder::new(
            0,
            Arc::clone(&topo),
            Arc::new(specs),
            Arc::clone(&ledger),
            Arc::clone(&counters),
            gate,
            Arc::new(faults),
            Arc::clone(&tracker),
            Arc::clone(&routes.hops[0]),
            Instant::now(),
            Arc::new(ExitLog::default()),
        );
        Harness {
            fwd,
            peer,
            blocked,
            waiting,
            tracker,
            ledger,
            counters,
        }
    }

    fn tail(packet: u64) -> ServedFlit {
        ServedFlit {
            flow: 0,
            packet,
            arrival: 0,
            len: 1,
            flit_index: 0,
        }
    }

    impl Harness {
        /// Blocks node 1's sink and hands tails over from `id` on until
        /// a refusal that lasts; returns the refused id. A refusal before
        /// the worker waits in the sink does not: the refusal's wake can
        /// still let the worker pop a batch and free ring slots.
        fn fill_until_refused(&mut self, mut id: u64) -> u64 {
            self.waiting.store(false, Ordering::Release);
            self.blocked.store(true, Ordering::Release);
            loop {
                match self.fwd.on_flit(&tail(id)) {
                    ForwardOutcome::Forwarded => id += 1,
                    _ if self.waiting.load(Ordering::Acquire) => return id,
                    _ => std::thread::yield_now(),
                }
                assert!(id < 4 * RING as u64, "a blocked peer never refused");
            }
        }
    }

    /// The tail hand-off is paid once per packet per hop on a shard
    /// worker: it must not touch the heap — no `Vec` of candidate
    /// links, nothing in the refusal path — once the `HopTracker` maps
    /// have their capacity.
    #[test]
    fn tail_hand_offs_allocate_nothing_after_warm_up() {
        let mut h = harness(true);
        // Warm-up: the maps keep the capacity of the most stamps they
        // ever held, and no more than a ring's worth is ever in flight.
        let entry = HopEntry {
            node: 1,
            entry_us: 0,
            entry_served_flits: 0,
        };
        (0..4 * RING as u64).for_each(|id| {
            h.tracker.replace(id, entry);
        });
        assert!((0..4 * RING as u64).all(|id| h.tracker.take(id).is_some()));
        let allocs = || ALLOCS.with(Cell::get);

        // Accepted: the peer drains as fast as we hand over.
        let mut id = 0u64;
        let mut accept = |n: u64| {
            for _ in 0..n {
                while h.fwd.on_flit(&tail(id)) != ForwardOutcome::Forwarded {
                    std::thread::yield_now();
                }
                id += 1;
            }
        };
        accept(256);
        let before = allocs();
        accept(1_000);
        assert_eq!(allocs() - before, 0, "an accepted hand-off allocated");

        // Refused: block the sink, fill the ring to the first refusal.
        let id = h.fill_until_refused(id);
        let (before, refused) = (allocs(), h.counters.refusals());
        for _ in 0..1_000 {
            assert_eq!(h.fwd.on_flit(&tail(id)), ForwardOutcome::Refused);
        }
        assert_eq!(allocs() - before, 0, "a refused hand-off allocated");
        assert_eq!(h.counters.refusals() - refused, 1_000);

        h.blocked.store(false, Ordering::Release);
        let report = h.peer.shutdown();
        assert!(report.is_conserving(), "{report:?}");
    }

    /// A refusal hands the holder's stamp back: a tail refused N times
    /// and then accepted records exactly one hop sample for the
    /// refusing node, and leaves exactly the peer's stamp behind.
    #[test]
    fn a_refused_tail_keeps_its_stamp_until_a_hand_off_lands() {
        const REFUSALS: u64 = 5;
        let mut h = harness(false);
        let probe = h.fill_until_refused(0);
        // What the source submit stamped when node 0 took the packet.
        let source = HopEntry {
            node: 0,
            entry_us: 0,
            entry_served_flits: 0,
        };
        h.tracker.replace(probe, source);
        let refused = h.counters.refusals();
        for _ in 0..REFUSALS {
            assert_eq!(h.fwd.on_flit(&tail(probe)), ForwardOutcome::Refused);
        }
        assert_eq!(h.counters.refusals() - refused, REFUSALS);
        assert_eq!(h.ledger.hop_snapshot(0)[0].packets, 0, "no sample yet");

        h.blocked.store(false, Ordering::Release);
        while h.fwd.on_flit(&tail(probe)) != ForwardOutcome::Forwarded {
            std::thread::yield_now();
        }
        let hops = h.ledger.hop_snapshot(0);
        assert_eq!(hops[0].packets, 1, "one sample for the refusing node");
        assert_eq!(hops[1].packets, 0, "node 1's sink records nothing");
        let left = h.tracker.take(probe).expect("the peer's stamp");
        assert_eq!(left.node, 1, "the stamp left behind is the peer's");
        let report = h.peer.shutdown();
        assert!(report.is_conserving(), "{report:?}");
    }
}

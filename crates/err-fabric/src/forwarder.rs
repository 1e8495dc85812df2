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
//! peer's handle from the fixed slice `Fabric::start` installed, and
//! reads and writes the packet's `HopTracker` slot without a lock (one
//! more write when refused, §11.8); the topology is asked for
//! alternates only once the primary link is not viable. The wall clock
//! is read once per flusher step, at its first tail, and that reading
//! stamps every eject and hand-off of the step ([`Egress::step_begins`]);
//! a Forwarder no step drives (a sync runtime's, a unit test's) reads
//! it for every tail. One that a step has driven is driven only by
//! steps: a direct call between two would reuse the last step's reading.
//!
//! The ejection that reaches a chaos event applies it in place (§11.4):
//! flag flips, a link frozen or thawed, a node's runtime taken down or
//! back up, and wakes — nothing that waits, whatever the event.
//!
//! A panic in here unwinds into the worker's fence like any sink's
//! (DESIGN.md §9.2, §14.4). The flusher step dead-letters the flit in
//! hand, and the next step tells the Forwarder
//! ([`Egress::dead_lettered`]), which charges a tail's packet as
//! dead-lettered and departs it from the fabric gate, as a tail with no
//! live next hop is charged.

use std::sync::Arc;
use std::time::{Duration, Instant};

use err_egress::{DeadLinkPolicy, Egress};
use err_runtime::{SubmitError, Submitted};
use err_sched::{Packet, ServedFlit};

use crate::fabric::{FabricGate, Faults};
use crate::hops::{HopEntry, HopTracker};
use crate::stats::{FabricLedger, NodeCounters};
use crate::topology::{FlowSpec, Hop, Step, Topology};

/// The Forwarder's verdict for one served flit (DESIGN.md §11.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ForwardOutcome {
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
pub(crate) struct Forwarder {
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
    /// Liveness flags, the dead-link policy (§14.2), every node's
    /// ingress handle, and the chaos schedule each ejection drives
    /// (§11.4).
    faults: Arc<Faults>,
    /// Per-packet entry stamps for §11.8 hop attribution.
    tracker: Arc<HopTracker>,
    epoch: Instant,
    /// Whether a flusher step is under way, and the wall µs its first
    /// tail read, which every later stamp of the step reuses (§11.8).
    in_step: bool,
    step_us: Option<u64>,
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
            in_step: false,
            step_us: None,
        }
    }

    /// Wall µs since the epoch: once a step has begun, the reading of
    /// its first tail; before any step, a fresh reading. Every tail a
    /// step delivers entered this node before the step began, so a
    /// stamp never reads earlier than its packet's previous one, and
    /// reads at most one step's length early.
    fn now_us(&mut self) -> u64 {
        if let Some(us) = self.step_us {
            return us;
        }
        let us = self.epoch.elapsed().as_micros() as u64;
        if self.in_step {
            self.step_us = Some(us);
        }
        us
    }

    /// Turns this node's entry stamp into a hop record at its
    /// `position` on the flow's path (skipped off-path, §11.7):
    /// service-clock and wall deltas from entry to tail service.
    fn record_hop(&self, flow: usize, position: Option<usize>, entry: HopEntry, now_us: u64) {
        let Some(hop) = position else {
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
    pub(crate) fn on_flit(&mut self, flit: &ServedFlit) -> ForwardOutcome {
        let flow = flit.flow;
        let hop = self.hops[flow];
        match hop.step {
            Step::Eject => {
                self.ledger.on_flit_ejected(flow);
                if flit.is_tail() {
                    let now_us = self.now_us();
                    let clock = self
                        .ledger
                        .on_packet_ejected(flow, now_us.saturating_sub(flit.arrival));
                    if let Some(entry) = self.tracker.read(flit.packet) {
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
        let pkt = Packet {
            id: flit.packet,
            flow,
            len: flit.len,
            arrival: flit.arrival,
        };
        // One stamp per attempt, whatever the candidate count.
        let now_us = self.now_us();
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
        self.dead_letter(flit);
        ForwardOutcome::DeadLettered
    }

    /// The one dead-letter path of a tail (§11.4, §14.4): whether no
    /// live next hop exists or the flusher step dead-lettered it when
    /// this Forwarder unwound, its packet is charged as dead-lettered
    /// and departs the fabric gate.
    fn dead_letter(&self, flit: &ServedFlit) {
        self.ledger.on_dead_lettered(flit.flow);
        self.counters.on_dead_lettered();
        self.gate.depart(1);
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
        // peer's ring its tail may be served there, and the ring's push
        // carries the stamp across (§11.8). This node's stamp is read
        // first, and restored on a refusal.
        let stamp = HopEntry {
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
                // Downstream admission accounted it: terminal. Its stale
                // stamp matches no later packet.
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

    /// Puts back the stamp a refused hand-off replaced, or clears the
    /// peer's if this node had none: the packet stays here.
    fn restore(&self, packet: u64, prev: Option<HopEntry>) {
        match prev {
            Some(entry) => {
                self.tracker.stamp(packet, entry);
            }
            None => {
                self.tracker.take(packet);
            }
        }
    }
}

impl Egress for Forwarder {
    fn emit(&mut self, shard: usize, flit: &ServedFlit) {
        // Unconditional delivery: spin out a transient refusal (or a
        // §14.2 hold, which only a concurrent heal resolves). The
        // flusher step never calls this (it uses `try_emit`); it exists
        // for direct-driven tests.
        while !self.try_emit(shard, flit) {
            std::thread::yield_now();
        }
    }

    /// Accepts or refuses at once: a hand-off submits with a zero
    /// deadline and is refused when the peer has no room, and a chaos
    /// event an ejection reaches is applied without waiting (§11.4).
    /// So the node's worker runs it in its flusher step and the node is
    /// one thread per shard (DESIGN.md §11.2).
    fn try_emit(&mut self, _shard: usize, flit: &ServedFlit) -> bool {
        !matches!(
            self.on_flit(flit),
            ForwardOutcome::Refused | ForwardOutcome::Held
        )
    }

    fn dead_lettered(&mut self, _shard: usize, flit: &ServedFlit) {
        if flit.is_tail() {
            self.dead_letter(flit);
        }
    }

    fn step_begins(&mut self, _shard: usize) {
        (self.in_step, self.step_us) = (true, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicBool, Ordering};

    use err_runtime::{AdmissionPolicy, Runtime, RuntimeConfig};

    use crate::hops::SLOTS;

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

    /// Node 0 of a 2x1 mesh, forwarding flow 0 to node 1 and ejecting
    /// flow 1, node 1's: a real runtime whose sink the test can block.
    /// A blocked worker lets the ingress ring fill, and a full ring
    /// refuses.
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
        gate: Arc<FabricGate>,
    }

    const RING: usize = 4096;

    /// The harness; `take_stamps` makes node 1's sink take each
    /// packet's stamp when it serves the tail, where its own forwarder
    /// would read it on eject.
    fn harness(take_stamps: bool) -> Harness {
        let blocked = Arc::new(AtomicBool::new(false));
        let waiting = Arc::new(AtomicBool::new(false));
        let tracker = Arc::new(HopTracker::with_slots(SLOTS));
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
        let specs = vec![FlowSpec { src: 0, dst: 1 }, FlowSpec { src: 1, dst: 0 }];
        let routes = topo.compile(&specs);
        let counters = Arc::new(NodeCounters::default());
        let ledger = Arc::new(FabricLedger::with_hops(&routes.path_lens));
        let gate = Arc::new(FabricGate::new());
        let faults = Faults::new(
            Arc::clone(&topo),
            DeadLinkPolicy::DropAndAccount,
            err_runtime::Schedule::new([]),
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
            Arc::clone(&gate),
            Arc::new(faults),
            Arc::clone(&tracker),
            Arc::clone(&routes.hops[0]),
            Instant::now(),
        );
        Harness {
            fwd,
            peer,
            blocked,
            waiting,
            tracker,
            ledger,
            counters,
            gate,
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
    /// links, nothing in the refusal path, no stamp: the `HopTracker`
    /// slots are allocated whole when the table is built.
    #[test]
    fn tail_hand_offs_allocate_nothing_after_warm_up() {
        let mut h = harness(true);
        // Warm-up: the slot table has nothing to grow. An id that
        // shares a slot with a stamped one reads nothing, never the
        // other packet's stamp; the stamp itself survives the read.
        let stamped = 1u64 << 40;
        let entry = HopEntry {
            entry_us: 7,
            entry_served_flits: 9,
        };
        assert!(h.tracker.stamp(stamped, entry));
        assert!(h.tracker.read(stamped + SLOTS as u64).is_none());
        assert_eq!(h.tracker.take(stamped), Some(entry));
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
        assert!(left.entry_us > 0, "the stamp left behind is the peer's");
        let report = h.peer.shutdown();
        assert!(report.is_conserving(), "{report:?}");
    }

    /// Inside a flusher step every tail, ejected or handed off, is
    /// stamped with the one clock reading of the step's first tail; the
    /// next step reads the clock again (DESIGN.md §11.8).
    #[test]
    fn every_tail_of_a_flusher_step_shares_one_stamp() {
        /// Takes ≥ 2 µs per tail, so no two tails could read one µs.
        struct Slow<'a>(&'a mut Forwarder);
        impl Egress for Slow<'_> {
            fn emit(&mut self, shard: usize, f: &ServedFlit) {
                self.0.emit(shard, f);
            }
            fn try_emit(&mut self, shard: usize, f: &ServedFlit) -> bool {
                std::thread::sleep(Duration::from_micros(2));
                self.0.try_emit(shard, f)
            }
            fn step_begins(&mut self, shard: usize) {
                self.0.step_begins(shard);
            }
        }
        let mut h = harness(false);
        let links = err_egress::LinkSet::new(1, 16);
        let (mut tx, rx) = err_egress::spsc_ring(16);
        let mut core = err_egress::FlusherCore::new(0, rx, 1);
        // Flow 0's tails are handed off, flow 1's ejected here, each
        // with arrival 0: an eject's latency is its stamp.
        let mut step = |tails: &[(usize, u64)]| {
            for &(flow, packet) in tails {
                assert!(links.try_acquire(0));
                if flow == 1 {
                    assert!(h.gate.enter());
                }
                let flit = ServedFlit {
                    flow,
                    ..tail(packet)
                };
                tx.push(flit).unwrap();
            }
            let stepped = core.step(&links, None, &mut Slow(&mut h.fwd));
            assert_eq!(stepped, tails.len() as u64);
        };
        let stamp = |packet| h.tracker.read(packet).expect("handed off").entry_us;
        step(&[(1, 100), (0, 0), (0, 1), (1, 101), (0, 2)]);
        let first = stamp(0);
        assert_eq!((stamp(1), stamp(2)), (first, first), "one hand-off stamp");
        let ejected = h.ledger.flow(1);
        assert_eq!(ejected.latency_max_us, first, "ejects share it too");
        assert_eq!(ejected.latency_sum_us, 2 * first);

        std::thread::sleep(Duration::from_micros(2));
        step(&[(0, 3), (1, 102)]);
        let second = stamp(3);
        assert!(second > first, "a later step reads the clock again");
        assert_eq!(h.ledger.flow(1).latency_sum_us, 2 * first + second);
        let report = h.peer.shutdown();
        assert!(report.is_conserving(), "{report:?}");
    }

    /// A Forwarder that unwinds on a tail inside the flusher step
    /// (DESIGN.md §14.4): the step dead-letters the flit in hand, and
    /// the next step tells the Forwarder, which charges the packet as
    /// dead-lettered and departs it from the fabric gate — the one
    /// dead-letter path a tail with no live next hop takes too.
    #[test]
    fn a_tail_the_flusher_step_dead_letters_departs_the_gate() {
        struct Unwinding(Forwarder);
        impl Egress for Unwinding {
            fn emit(&mut self, shard: usize, f: &ServedFlit) {
                self.0.emit(shard, f);
            }
            fn try_emit(&mut self, shard: usize, f: &ServedFlit) -> bool {
                if f.packet == 1 {
                    panic!("forwarder: gone (injected by the test)");
                }
                self.0.try_emit(shard, f)
            }
            fn dead_lettered(&mut self, shard: usize, f: &ServedFlit) {
                self.0.dead_lettered(shard, f);
            }
        }
        let h = harness(true);
        let links = err_egress::LinkSet::new(1, 8);
        let (mut tx, rx) = err_egress::spsc_ring(16);
        let mut core = err_egress::FlusherCore::new(0, rx, 1);
        for packet in 0..2 {
            assert!(h.gate.enter());
            assert!(links.try_acquire(0));
            tx.push(tail(packet)).unwrap();
        }
        let mut sink = Unwinding(h.fwd.clone());
        let unwound =
            std::panic::catch_unwind(AssertUnwindSafe(|| core.step(&links, None, &mut sink)));
        assert!(unwound.is_err());
        assert_eq!(h.counters.departed_packets(), 1, "packet 0 went on");
        assert_eq!(h.ledger.flow(0).dead_lettered, 0, "not inside the unwind");
        assert_eq!(h.gate.in_flight(), 2);
        core.step(&links, None, &mut sink);
        assert_eq!(h.ledger.flow(0).dead_lettered, 1, "charged");
        assert_eq!(h.counters.departed_packets(), 2);
        assert_eq!(h.gate.in_flight(), 1, "departed the gate");
        assert_eq!(links.snapshot()[0].dead_letter_flits, 1);
        core.step(&links, None, &mut sink);
        assert_eq!(h.ledger.flow(0).dead_lettered, 1, "told once");
        let report = h.peer.shutdown();
        assert!(report.is_conserving(), "{report:?}");
    }
}

//! The shard worker: a private scheduler driven in batched service loops.
//!
//! Each shard owns one `ErrScheduler` and never shares it — there is no
//! lock around scheduling state, which is what keeps the per-flit
//! decision O(1) end to end. The loop alternates between two
//! batched phases:
//!
//! 1. **Intake** — drain up to `batch_packets` arrivals from the ingress
//!    ring into the scheduler's per-flow queues;
//! 2. **Service** — serve up to `batch_flits` flits, advancing the
//!    shard's flit clock by one cycle per flit (the paper's model: the
//!    egress link carries one flit per cycle).
//!
//! Batching amortizes ring traffic and stats updates over many flits
//! without changing the discipline's decisions: ERR is defined per
//! visit/round, and `service_batch` replays exactly the per-flit
//! sequence the single-stepped scheduler would produce.
//!
//! There is one loop (`run_shard`). Where served flits go is the
//! business of the shard's `EgressStage`, which the loop calls at
//! two points and the fault and steal layers query about link state
//! (DESIGN.md §6):
//!
//! * `SyncStage` — every served flit passes through the caller's sink
//!   inline, on the worker thread. It holds no link state, so it gives
//!   the trait's degenerate answers; a slow sink stalls the shard's
//!   whole flit clock.
//! * `BufferedStage` — served flits are committed to a per-shard SPSC
//!   ring under per-link credit flow control (`err-egress`); a flusher
//!   thread delivers them. A link with no credit to grant has its
//!   flows *parked* in the scheduler before they are visited, so the
//!   shard keeps serving everyone else — the decoupling the paper's
//!   stalled-downstream argument calls for.
//!
//! The loop runs inside a `catch_unwind` fence with the worker's whole
//! state — scheduler, migration driver, flit clock and stage, i.e. a
//! `Bequest` — owned *outside* the closure (DESIGN.md §9.2): a panic
//! unwinds out of the loop, the fence catches it, and the epilogue
//! takes one of two paths:
//!
//! * **bequeath** (supervision) — the intact state is posted as the
//!   `Bequest` it already is; the supervisor spawns a successor worker
//!   that adopts it, and no flow moves;
//! * **re-throw** (no supervision) — the join observes the panic and
//!   shutdown reports it as [`ShardExit::Panicked`](crate::ShardExit).
//!
//! After a loop that moved nothing the worker idles on its shard's
//! [`WakeCell`](err_egress::WakeCell) (`idle_unless`, DESIGN.md §6).
//! Its wake predicate is "a pop would succeed, or the stage can
//! progress (a parked link's credit came back)": it looks at that —
//! never at a whole loop — twice, then announces itself, re-checks the
//! same predicate, and parks. A ring
//! that is non-empty while its head is unpublished holds a producer
//! caught mid-push: runnable, and possibly kept off this very CPU by
//! us, so the worker yields to it instead. Its peers end the park at
//! *their* batch boundaries — a producer about to wait on this worker,
//! a credit-returner whose pool had run empty — never per packet or per
//! flit. A lone worker whose every link is credit-parked waits for
//! announced events only: its sleep is *covered*, its timer a mere
//! `BACKSTOP`. Any other park polls for what nobody announces — a plain
//! push; a heartbeat, a thief's request or a credit other shards may
//! take first — and keeps `PARK_TIMEOUT`.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use desim::Cycle;
use err_egress::{Egress, FlushProgress, LinkSet, Producer, ShardEgressStats, Sleep, BACKSTOP};
use err_sched::err::ErrScheduler;
use err_sched::{Packet, Scheduler, ServedFlit};

use crate::fault::{abort_residuals, fault_tick, Bequest, ShardHealth};
use crate::ingress::Shared;

/// Park duration of a sleep that polls; bounds wake-up latency after
/// an idle period nobody's wake ended.
const PARK_TIMEOUT: Duration = Duration::from_micros(100);

/// Per-shard configuration handed to the worker thread.
pub(crate) struct ShardConfig {
    pub(crate) shard: usize,
    pub(crate) batch_packets: usize,
    pub(crate) batch_flits: usize,
    /// Flow-id space, needed by forced-abort residue accounting.
    pub(crate) n_flows: usize,
}

/// The shard's output side: where served flits go, and the link state
/// only that side knows. The worker loop calls `serve`, and
/// `can_progress` before it parks; the fault and steal layers put
/// their four questions to it instead of borrowing its fields.
/// Dispatch is per loop or per protocol step, never per flit. Every
/// method but `serve` defaults to the answer of a stage that buffers
/// nothing — never parked, always retired, no-op — which is the whole
/// of [`SyncStage`]'s link state.
pub(crate) trait EgressStage: Send {
    /// The service phase: serves up to `batch_flits` flits from
    /// `scheduler` starting at flit-clock `now` and sends each on its
    /// way. Returns `(flits, tail flits, starved)`. `starved`: every
    /// link that carries a flow is credit-parked — no arrival can be
    /// served before a credit returns, which is announced.
    fn serve(
        &mut self,
        shared: &Shared,
        scheduler: &mut ErrScheduler,
        now: Cycle,
        batch_flits: usize,
    ) -> (u64, u64, bool);

    /// Park re-check: whether `serve` would release a parked link now.
    fn can_progress(&self) -> bool {
        false
    }

    /// Whether `flow`'s link is credit-parked: a mover must then leave
    /// the flow parked for the link's release in `serve` (§8.7).
    fn link_parked(&self, _flow: usize) -> bool {
        false
    }

    /// An injected `KillLink` (§9.5); a stage without links ignores it.
    fn declare_link_dead(&self, _link: usize) {}

    /// Cumulative flits committed downstream — the snapshot the
    /// donor-side retire fence takes (§8.7).
    fn pushed(&self) -> u64 {
        0
    }

    /// Whether every flit of `flow` committed before the `snapshot`
    /// push count has left the egress path (§8.7).
    fn flow_retired(&self, _flow: usize, _snapshot: u64) -> bool {
        true
    }
}

/// Synchronous egress: the worker calls the optional sink inline.
///
/// The batch and its cursor live here, outside the panic fence, and
/// ride the [`Bequest`] (§9.2): a sink that unwinds mid-batch leaves
/// `served[next..]` pulled from the scheduler but not yet handed over,
/// and nothing of the batch counted; the successor's first `serve`
/// finishes it instead of pulling a new one. The flit the sink unwound
/// on is not offered twice.
pub(crate) struct SyncStage<E> {
    shard: usize,
    sink: Option<E>,
    /// The service batch, reused across loops.
    served: Vec<ServedFlit>,
    /// Flits of `served` already handed to the sink.
    next: usize,
    /// Tail flits among them.
    tails: u64,
}

impl<E: Egress> SyncStage<E> {
    pub(crate) fn new(shard: usize, sink: Option<E>, batch_flits: usize) -> Self {
        Self {
            shard,
            sink,
            served: Vec::with_capacity(batch_flits),
            next: 0,
            tails: 0,
        }
    }
}

impl<E: Egress> EgressStage for SyncStage<E> {
    fn serve(
        &mut self,
        shared: &Shared,
        scheduler: &mut ErrScheduler,
        now: Cycle,
        batch_flits: usize,
    ) -> (u64, u64, bool) {
        if self.next == self.served.len() {
            self.served.clear();
            (self.next, self.tails) = (0, 0);
            scheduler.service_batch(now, batch_flits, &mut self.served);
        }
        for flit in &self.served[self.next..] {
            self.next += 1;
            if flit.is_tail() {
                self.tails += 1;
                shared.admission.on_packet_served(flit.flow, flit.len);
            }
            if let Some(sink) = self.sink.as_mut() {
                sink.emit(self.shard, flit);
            }
        }
        (self.served.len() as u64, self.tails, false)
    }
}

/// Buffered egress: flit-by-flit service against per-link credit
/// grants (DESIGN.md §7).
///
/// * a batch takes a *grant* per link — one CAS for `min(available,
///   what it can still emit)` — before it serves a flit, spends it
///   from a local counter, tops it up when it runs out, and gives the
///   rest back before `serve` returns: a served flit always has its
///   credit, and no link ever buffers more flits than its pool;
/// * a link with backlog and no credit to grant has every flow parked
///   in the scheduler *before* another of its flits can be visited —
///   mid-packet, if a top-up comes back empty then — and the scheduler
///   keeps serving the other links' flows at full rate;
/// * each batch, parked links whose credits returned are released.
///
/// The stage is owned *outside* the panic fence and travels in the
/// [`Bequest`] (§9.2): its parking marks and `pushed` count (§8.7's
/// fence numerator) must survive the worker. A grant never does.
pub(crate) struct BufferedStage {
    tx: Producer<ServedFlit>,
    links: Arc<LinkSet>,
    estats: Arc<ShardEgressStats>,
    /// This shard's flusher retire cursor.
    progress: Arc<FlushProgress>,
    /// Link → flows, in flow order, from the routing fn (a fabric
    /// route table (§11.1) maps arbitrary flow sets onto a link).
    /// Built once: parking or releasing a link costs O(flows on it).
    link_flows: Vec<Vec<usize>>,
    /// Credits in hand per link; all zero outside `serve`.
    grant: Vec<u64>,
    link_parked: Vec<bool>,
    /// Cumulative flits this shard has committed to its egress ring —
    /// compared against the flusher's [`FlushProgress`] cursor by the
    /// donor-side retire fence (§8.7).
    pushed: u64,
}

impl BufferedStage {
    pub(crate) fn new(
        tx: Producer<ServedFlit>,
        links: Arc<LinkSet>,
        estats: Arc<ShardEgressStats>,
        progress: Arc<FlushProgress>,
        n_flows: usize,
    ) -> Self {
        let n_links = links.n_links();
        let mut link_flows: Vec<Vec<usize>> = vec![Vec::new(); n_links];
        for flow in 0..n_flows {
            link_flows[links.route(flow)].push(flow);
        }
        Self {
            tx,
            links,
            estats,
            progress,
            link_flows,
            grant: vec![0; n_links],
            link_parked: vec![false; n_links],
            pushed: 0,
        }
    }

    /// Commits `flit` to the output ring, waiting while it is full.
    /// Bounded wait: the flusher always makes progress (a blocked
    /// link's flits move to its bounded pending queue) — once it runs.
    /// It may sleep over a ring it last saw empty, and on a shared core
    /// cannot run while this thread spins: each retry wakes it, yields.
    fn push_ring(&mut self, flit: ServedFlit) {
        let mut item = flit;
        let mut first = true;
        while let Err(back) = self.tx.push(item) {
            item = back;
            if first {
                self.estats.ring_full_spins.fetch_add(1, Ordering::Relaxed);
                self.estats.note_ring_occupancy(self.tx.occupancy() as u64);
                first = false;
            }
            self.tx.wake_consumer();
            std::thread::yield_now();
        }
        self.pushed += 1;
    }

    /// Takes `link`'s grant for a batch that can still emit `want`
    /// flits. A parked link that gets one is released; one that gets
    /// none is parked. A link none of whose flows has backlog gets
    /// neither: arrivals enter at intake, before `serve`, so "no flit
    /// is served on a zero grant" holds without it, and a grant nobody
    /// can spend only starves the other shards.
    fn refill(&mut self, link: usize, want: u64, shared: &Shared, scheduler: &mut ErrScheduler) {
        let flows = &self.link_flows[link];
        let idle = || flows.iter().all(|&f| scheduler.flow_backlog_flits(f) == 0);
        if !self.link_parked[link] && idle() {
            return;
        }
        self.grant[link] = self.links.acquire(link, want);
        if self.grant[link] == 0 {
            if self.link_parked[link] {
                return;
            }
            self.estats
                .credit_exhaustions
                .fetch_add(1, Ordering::Relaxed);
            self.link_parked[link] = true;
            for &flow in flows {
                // unpark: the `refill` at the top of the batch that
                // finds a credit for this link again, just below.
                let _ = scheduler.park_flow(flow);
            }
        } else if self.link_parked[link] {
            self.link_parked[link] = false;
            // A flow some migration slot names (§8.2) stays parked: a
            // quiesced steal victim unparked here would be served past
            // the §8.7 retire fence. Its mover unparks it when the slot
            // resolves.
            for &flow in flows {
                if shared.steal.as_ref().is_none_or(|st| !st.moving(flow)) {
                    // unpark: the release `unpark_respecting_links`
                    // defers to for credit-parked links — the authority
                    // itself; the `moving` guard above keeps a victim
                    // parked (§8.7).
                    scheduler.unpark_flow(flow);
                }
            }
        }
    }
}

impl EgressStage for BufferedStage {
    /// Flit by flit: a grant can run out between two flits, and the
    /// link must be parked before the scheduler visits it again. A drop
    /// guard settles the batch, unwinding or not: the grants go back
    /// (an idle one would starve the other shards and run the link's
    /// dead-link deadline), ring occupancy is noted and the flusher
    /// woken once, after the last push.
    fn serve(
        &mut self,
        shared: &Shared,
        scheduler: &mut ErrScheduler,
        now: Cycle,
        batch_flits: usize,
    ) -> (u64, u64, bool) {
        struct Settle<'a>(u64, &'a mut BufferedStage);
        impl Drop for Settle<'_> {
            fn drop(&mut self) {
                let stage = &mut *self.1;
                stage.links.return_grants(&mut stage.grant);
                if stage.pushed != self.0 {
                    let occupancy = stage.tx.occupancy() as u64;
                    stage.estats.note_ring_occupancy(occupancy);
                    stage.tx.wake_consumer();
                }
            }
        }
        let settle = Settle(self.pushed, self);
        let stage = &mut *settle.1;
        let batch = batch_flits as u64;
        // Availability at visit time: every link has its grant, or is
        // parked, before a flit is served (idle links: neither).
        let busy = !scheduler.is_idle();
        for link in 0..stage.grant.len() {
            if busy || stage.link_parked[link] {
                stage.refill(link, batch, shared, scheduler);
            }
        }
        let (mut flits, mut tails) = (0u64, 0u64);
        while flits < batch {
            let Some(flit) = scheduler.service_flit(now + flits) else {
                break;
            };
            flits += 1;
            if flit.is_tail() {
                tails += 1;
                shared.admission.on_packet_served(flit.flow, flit.len);
            }
            let link = stage.links.route(flit.flow);
            debug_assert!(stage.grant[link] > 0, "link {link}: no grant");
            stage.grant[link] -= 1;
            stage.push_ring(flit);
            if stage.grant[link] == 0 && flits < batch {
                // Top up; if that comes back empty, park before the visit.
                stage.refill(link, batch - flits, shared, scheduler);
            }
        }
        drop(settle);
        let mut links = self.link_parked.iter().zip(&self.link_flows);
        let starved = self.link_parked.contains(&true) && links.all(|(&p, f)| p || f.is_empty());
        (flits, tails, starved)
    }

    /// A credit for a parked link (a credit-returner wakes for it).
    fn can_progress(&self) -> bool {
        (0..self.grant.len()).any(|l| self.link_parked[l] && self.links.has_credit(l))
    }

    fn link_parked(&self, flow: usize) -> bool {
        self.link_parked[self.links.route(flow)]
    }

    fn declare_link_dead(&self, link: usize) {
        if link < self.links.n_links() {
            self.links.declare_dead(link);
        }
    }

    fn pushed(&self) -> u64 {
        self.pushed
    }

    /// The flusher's pending-free watermark passed the snapshot.
    fn flow_retired(&self, _flow: usize, snapshot: u64) -> bool {
        self.progress.retired() >= snapshot
    }
}

/// Runs one shard to completion: serves until `shutdown()` has been
/// called *and* the ring, the scheduler and the stage are fully
/// drained. Returns the shard's final flit clock.
///
/// `w` comes from the spawner: fresh (clock 0) for a first-generation
/// worker, its predecessor's for a successor (§9.2) — the clock
/// continues, it never rewinds.
pub(crate) fn run_shard(shared: Arc<Shared>, mut w: Bequest) -> Cycle {
    let result = panic::catch_unwind(AssertUnwindSafe(|| run_loop(&shared, &mut w)));
    let Err(payload) = result else {
        if let Some(fr) = shared.fault.as_ref() {
            fr.board.set_health(w.cfg.shard, ShardHealth::Exited);
        }
        return w.now;
    };
    let now = w.now;
    match shared.fault.as_ref() {
        Some(fr) => fr.bequeath(w.cfg.shard, w),
        None => panic::resume_unwind(payload),
    }
    now
}

fn run_loop(shared: &Shared, w: &mut Bequest) {
    let Bequest {
        cfg,
        scheduler,
        driver,
        now,
        stage,
    } = w;
    let shard = cfg.shard;
    let ring = &shared.rings[shard];
    let stats = &shared.stats[shard];
    let mut arrivals: Vec<Packet> = Vec::with_capacity(cfg.batch_packets);
    // A successor (§9.2) replaces its predecessor's thread handle.
    shared.wakes[shard].register();
    // Exit-gate forensics, paired with the drain-side dump in
    // `Runtime::drain_within` (same `ERR_DRAIN_DEBUG` switch): a worker
    // that idles without exiting names the predicate holding it.
    let debug_exit = std::env::var_os("ERR_DRAIN_DEBUG").is_some();
    let mut debug_parks: u64 = 0;

    // Nobody announces when a heartbeat is due, a thief asks, or that
    // a returned credit is still there once another shard has looked.
    let polls = shared.fault.is_some() || shared.steal.is_some() || shared.wakes.len() > 1;
    loop {
        // Fault phase (DESIGN.md §9): forced-shutdown abort, heartbeat,
        // quarantine, injected events. The stage holds neither flit nor
        // credit between service phases — but for a sync batch a sink's
        // unwind interrupted, which an abort that beats the successor's
        // first `serve` leaves uncounted (§9.4) — so a forced abort has
        // only the scheduler's residue to count.
        // ordering: Acquire pairs with the Release `abort` store in
        // `Runtime::drain_within` (forced-shutdown latch).
        if shared.abort.load(Ordering::Acquire) {
            abort_residuals(shared, shard, cfg.n_flows, scheduler);
            return;
        }
        fault_tick(shared, shard, *now, stage.as_ref());

        // Intake phase.
        arrivals.clear();
        let pulled = ring.pop_batch(&mut arrivals, cfg.batch_packets);
        for pkt in arrivals.drain(..) {
            scheduler.enqueue(pkt, *now);
        }
        // LoadBoard input, sampled here rather than at the tick below:
        // a shard that drains each intake batch within its own loop
        // would otherwise always report an empty queue — the backlog
        // it is absorbing lives in flight between producer and service
        // phase, never at a post-service instant (DESIGN.md §8.1).
        // `len` counts claimed slots: a packet mid-push is load that is
        // about to arrive, which is what the estimate wants.
        let pre_backlog = scheduler.backlog_flits() + ring.len() as u64;

        // Service phase: one flit per cycle of the shard's flit clock.
        let (n, tails, starved) = stage.serve(shared, scheduler, *now, cfg.batch_flits);
        *now += n;
        if n > 0 {
            stats.served_flits.add(n);
            stats.served_packets.add(tails);
        }
        stats.backlog_flits.set(scheduler.backlog_flits());

        // Migration phase: advance whatever roles (thief/donor) this
        // shard plays across the per-thief slots, and evaluate the
        // stealing policy at poll boundaries (DESIGN.md §8).
        // Ticked after intake so the ring's dequeue cursor only covers
        // packets already enqueued into the scheduler; the stage lends
        // the donor-side retire fence its pushed count and flusher
        // cursor (§8.7).
        let mut hot_handoff = false;
        let mut migrating = false;
        if let Some(d) = driver.as_mut() {
            d.tick(
                shared,
                scheduler,
                pulled == 0 && n == 0,
                *now,
                pre_backlog,
                stage.as_ref(),
            );
            if let Some(st) = shared.steal.as_ref() {
                migrating = st.involves(shard);
                // Requested can stay pending behind the donor's
                // serve-chunk guard (§8.5) — a thief spinning hot
                // through that would only steal CPU from the very
                // shard it is waiting on. Spin hot from Quiescing on,
                // where the peer needs our next protocol step fast.
                hot_handoff = st.hot_handoff(shard);
            }
        }

        if pulled == 0 && n == 0 {
            // Nothing moved. Exit only when shutdown has been
            // requested, no producer is still inside
            // `submit` (see `Shared::can_finish` — a mid-submit
            // producer could still push), everything this shard owns
            // is drained, no migration in flight names this shard
            // (DESIGN.md §8.6 — a mid-handoff exit would strand the
            // victim's packets). The ring check must come after
            // `can_finish`: once that returns true no further push can
            // happen, so empty is stable — and exact: `is_empty` counts
            // claimed slots, and with no producer inside `submit` none
            // is claimed but unpublished.
            if !migrating && shared.can_finish() && ring.is_empty() && scheduler.is_idle() {
                break;
            }
            stats.idle_loops.add(1);
            let has_work = || ring.head_ready() || stage.can_progress();
            if hot_handoff {
                // A hot handoff never sleeps and loops on: the peer
                // worker is waiting on our next protocol step (a
                // parked donor mid-quiesce would stall the thief's
                // fence), and a timed park would add up to PARK_TIMEOUT
                // to every transition.
                std::hint::spin_loop();
            } else if !ring.is_empty() && !has_work() {
                // A producer claimed the head slot and has not
                // published it: no pop can succeed until it runs again.
                // It is runnable — if it shares our CPU, we are what
                // keeps it off — so neither spin against it nor park on
                // a timer: hand it the CPU.
                std::thread::yield_now();
            } else {
                debug_parks += 1;
                if debug_exit && debug_parks.is_multiple_of(100_000) {
                    eprintln!(
                        "[exit-debug] shard {shard} starved={starved} migrating={migrating} \
                         can_finish={} ring_empty={} sched_idle={}",
                        shared.can_finish(),
                        ring.is_empty(),
                        scheduler.is_idle(),
                    );
                }
                let cell = &shared.wakes[shard];
                let how = if starved && !polls {
                    // backstop: covered by `wake_credit_waiters` (a
                    // credit return), `wake_worker_for_intake` (a full
                    // ingress ring) and `drain_within`'s wakes (drain,
                    // abort) — no arrival could be served meanwhile.
                    cell.idle_unless(has_work, BACKSTOP)
                } else {
                    // backstop: polls arrivals (a plain push never wakes),
                    // heartbeat, thieves, credits other shards may take.
                    cell.idle_unless(has_work, PARK_TIMEOUT)
                };
                stats.parks.add(u64::from(how != Sleep::Ready));
                stats.park_timeouts.add(u64::from(how == Sleep::TimedOut));
            }
        } else {
            stats.busy_loops.add(1);
        }
    }
    stats.backlog_flits.set(0);
}

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
//! visit/round, and it serves a packet in runs (`service_run`), each
//! charged and checked for the packet boundary once, that replay
//! exactly the per-flit sequence the single-stepped scheduler would
//! produce.
//!
//! There is one loop (`run_shard`). Where served flits go is the
//! business of the shard's `EgressStage`, which the loop calls at
//! its service, idle and exit points and the fault layer hands its
//! `KillLink` events (DESIGN.md §6):
//!
//! * `SyncStage` — every served flit passes through the caller's sink
//!   inline, on the worker thread. It holds no link state, so it gives
//!   the trait's degenerate answers; a slow sink stalls the shard's
//!   whole flit clock.
//! * `BufferedStage` — served flits are committed to a per-shard SPSC
//!   ring under per-link credit flow control (`err-egress`), one run
//!   per packet as long as the grant, the batch and the ring's free
//!   slots allow, in chunks that end at a spent grant or a full ring;
//!   after each the worker runs the flusher step that delivers them
//!   itself (`EgressStage::flush`), so no chunk waits on credits its
//!   own ring holds. The sink accepts or refuses at once and never
//!   blocks (the one sink contract, `err_egress::Egress`). A link whose
//!   pool is empty at the top of a chunk has its flows *parked* before
//!   they are visited, so the shard keeps serving everyone else — the
//!   decoupling the paper's stalled-downstream argument calls for.
//!
//! The loop runs inside a `catch_unwind` fence with the worker's whole
//! state — scheduler, flit clock and stage, i.e. a
//! `WorkerState` — owned *outside* the closure (DESIGN.md §9.2): a panic
//! unwinds out of the loop, the fence catches it, and the worker records
//! the death on the fault board and re-enters the loop on the same
//! thread with the same state. No flow moves, and shutdown reports the
//! death as [`ShardExit::Panicked`](crate::ShardExit).
//!
//! After a loop that moved nothing the worker idles on its shard's
//! [`WakeCell`](err_egress::WakeCell) (`idle_unless`, DESIGN.md §6).
//! Its wake predicate is "a pop would succeed, or the stage can
//! progress (a parked link's credit came back, or a link its flusher
//! step holds flits behind opened)": it looks at that —
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
//! push; a credit other shards may take first; a
//! sink that refused a flit finding room — and keeps `PARK_TIMEOUT`. A
//! refused flit is offered again once per such park (or wake), never
//! per look.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use desim::Cycle;
use err_egress::{Egress, FlusherCore, LinkSet, Producer, ShardEgressStats, Sleep, BACKSTOP};
use err_sched::err::ErrScheduler;
use err_sched::{Packet, Scheduler, ServedFlit};

use crate::fault::{abort_residuals, fault_tick, ShardHealth, WorkerState};
use crate::gate::Stop;
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
/// only that side knows. The worker loop calls `serve` and `flush`,
/// `starved` and `can_progress` before it parks, `drained` before it
/// exits and `abort` when it is aborted; the fault layer hands it its
/// `KillLink` events instead of borrowing its fields. Dispatch is per
/// chunk or per fault event, never per flit. Every method but `serve`
/// defaults to the answer of a stage that buffers nothing — never
/// parked, always drained, no-op — which is the whole of
/// [`SyncStage`]'s link state.
pub(crate) trait EgressStage: Send {
    /// One service chunk: serves up to `batch_flits` flits from
    /// `scheduler` starting at flit-clock `now` and sends each on its
    /// way. Returns `(flits, tail flits, more)`: `more` if it stopped on
    /// its own backlog (a spent grant, a full ring), which `flush` frees.
    fn serve(
        &mut self,
        shared: &Shared,
        scheduler: &mut ErrScheduler,
        now: Cycle,
        batch_flits: usize,
    ) -> (u64, u64, bool);

    /// The stage's flusher step, after every `serve` — once the loop
    /// has counted the chunk, so a sink that reads the shard's served
    /// clock (the fabric's §11.8 hop records) sees the flits it
    /// delivers counted. Returns whether it moved anything: the loop
    /// did work even if it served nothing.
    fn flush(&mut self) -> bool {
        false
    }

    /// Every link that carries a flow is credit-parked, and no flit
    /// waits on a sink that refused it: no arrival can be served before
    /// a credit returns or a link opens, both of which are announced.
    fn starved(&self) -> bool {
        false
    }

    /// Park re-check: whether `serve` would release a parked link, or
    /// `flush` move a flit held behind a link that has opened, now.
    fn can_progress(&self) -> bool {
        false
    }

    /// Exit-gate clause, asked once the drain gate lets the worker go
    /// and its ring and scheduler are empty: whether the stage holds no
    /// flit it still has to deliver itself.
    fn drained(&mut self) -> bool {
        true
    }

    /// Forced-abort settlement (§9.4), run where the scheduler's residue
    /// is counted lost — at a forced abort and at a down runtime's sweep
    /// (§14.1): disposes of every flit the stage still has to deliver
    /// itself, so none is dropped uncounted with its credit, and leaves
    /// the stage ready for an empty scheduler.
    fn abort(&mut self) {}

    /// The links a plan's link events act on (§9.5); a stage without
    /// links has none.
    fn links(&self) -> Option<&LinkSet> {
        None
    }
}

/// Synchronous egress: the worker calls the optional sink inline.
///
/// The batch and its cursor live here, in the [`WorkerState`] outside
/// the panic fence (§9.2): a sink that unwinds mid-batch leaves
/// `served[next..]` pulled from the scheduler but not yet handed over,
/// and nothing of the batch counted; the resumed loop's first `serve`
/// finishes and counts it instead of pulling a new one — also when the
/// sink unwound on the batch's last flit, since a batch is cleared only
/// once counted. The flit the sink unwound on is not offered twice.
pub(crate) struct SyncStage<E> {
    shard: usize,
    sink: Option<E>,
    /// The service batch, reused across loops; empty once counted.
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
        if self.served.is_empty() {
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
        let counted = (self.served.len() as u64, self.tails, false);
        self.served.clear();
        (self.next, self.tails) = (0, 0);
        counted
    }
}

/// Buffered egress: run-by-run service against per-link credit
/// grants (DESIGN.md §7).
///
/// * a chunk takes a *grant* per link — one CAS for `min(available,
///   what it can still emit)` — before it serves a flit, serves each
///   packet as one run of at most the grant's flits (`service_run`),
///   spends it once per run from a local counter, ends when one runs
///   out, and gives the rest back before `serve` returns: a served
///   flit always has its credit, and no link ever buffers more flits
///   than its pool;
/// * a link with backlog whose pool is empty at the top of a chunk (a
///   frozen, dead or refusing downstream, or another shard, holds it)
///   has every flow parked before the scheduler visits it, and the
///   scheduler keeps serving the other links' flows at full rate;
/// * each chunk, parked links whose credits returned are released.
///
/// * a chunk also ends at a full output ring, so `serve` never calls
///   the sink; after every `serve` the worker runs one `FlusherCore::step`
///   on the shard's own core and sink ([`EgressStage::flush`]), which
///   frees the ring and returns what the sink accepted before the next
///   chunk's grants. One thread writes and reads the SPSC ring.
///
/// The stage is owned *outside* the panic fence, in the
/// [`WorkerState`] (§9.2): its parking marks, flusher core and sink
/// must survive a panic. A grant never does.
pub(crate) struct BufferedStage<E> {
    tx: Producer<ServedFlit>,
    links: Arc<LinkSet>,
    estats: Arc<ShardEgressStats>,
    /// Link → flows, in flow order, from the routing fn (a fabric
    /// route table (§11.1) maps arbitrary flow sets onto a link).
    /// Built once: parking or releasing a link costs O(flows on it).
    link_flows: Vec<Vec<usize>>,
    /// Credits in hand per link; all zero outside `serve`.
    grant: Vec<u64>,
    link_parked: Vec<bool>,
    core: FlusherCore,
    sink: E,
    /// Per link: flits were pending behind it while it was blocked when
    /// the last step ended. Whoever opens a link says so
    /// (`LinkSet::wake_workers`), so waiting for one of these is covered.
    held: Vec<bool>,
}

impl<E: Egress> BufferedStage<E> {
    pub(crate) fn new(
        (tx, core): (Producer<ServedFlit>, FlusherCore),
        sink: E,
        links: Arc<LinkSet>,
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
            estats: Arc::new(ShardEgressStats::default()),
            link_flows,
            grant: vec![0; n_links],
            link_parked: vec![false; n_links],
            core,
            sink,
            held: vec![false; n_links],
        }
    }

    /// The counters this stage writes, for the runtime's controller.
    pub(crate) fn stats(&self) -> Arc<ShardEgressStats> {
        Arc::clone(&self.estats)
    }

    /// One `FlusherCore::step`, settled. Returns whether the step
    /// popped, delivered or dead-lettered anything.
    fn step(&mut self) -> bool {
        let popped = self.core.popped();
        let links = &*self.links;
        self.core.step(links, None, &mut self.sink);
        let (delivered, dead) = self.core.settle(links, &self.estats);
        for (link, held) in self.held.iter_mut().enumerate() {
            *held = self.core.pending_len(link) > 0 && links.blocked(link);
        }
        delivered + dead > 0 || self.core.popped() != popped
    }

    /// Whether a flit is pending behind an open link: the sink refused
    /// it, and nobody announces the sink finding room.
    fn refused(&self) -> bool {
        (0..self.held.len()).any(|l| self.core.pending_len(l) > 0 && !self.links.blocked(l))
    }

    /// Takes `link`'s grant for a batch that can still emit `want`
    /// flits. A parked link that gets one is released; one that gets
    /// none is parked. A link none of whose flows has backlog gets
    /// neither: arrivals enter at intake, before `serve`, so "no flit
    /// is served on a zero grant" holds without it, and a grant nobody
    /// can spend only starves the other shards.
    fn refill(&mut self, link: usize, want: u64, scheduler: &mut ErrScheduler) {
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
                // unpark: the `refill` at the top of the chunk that
                // finds a credit for this link again, just below.
                let _ = scheduler.park_flow(flow);
            }
        } else if self.link_parked[link] {
            self.link_parked[link] = false;
            for &flow in flows {
                // unpark: `refill` itself — the one authority over a
                // credit-parked link's flows, releasing them with the
                // credit it just took.
                scheduler.unpark_flow(flow);
            }
        }
    }
}

impl<E: Egress + 'static> EgressStage for BufferedStage<E> {
    /// Run by run — one per packet, each as long as its link's grant,
    /// the batch and the ring's free slots allow — until a grant runs
    /// out or the ring fills: the link's next flit needs the credits its
    /// own ring holds, which the `flush` after this chunk returns. A
    /// drop guard settles the chunk, unwinding or not: the grants go
    /// back (an idle one would starve the other shards and run the
    /// link's dead-link deadline), and ring occupancy is noted once,
    /// after the last push, if the chunk pushed any.
    fn serve(
        &mut self,
        shared: &Shared,
        scheduler: &mut ErrScheduler,
        _now: Cycle,
        batch_flits: usize,
    ) -> (u64, u64, bool) {
        // Whether the chunk pushed, and the stage.
        struct Settle<'a, E>(bool, &'a mut BufferedStage<E>);
        impl<E> Drop for Settle<'_, E> {
            fn drop(&mut self) {
                let stage = &mut *self.1;
                stage.links.return_grants(&mut stage.grant);
                if self.0 {
                    let occupancy = stage.tx.occupancy() as u64;
                    stage.estats.note_ring_occupancy(occupancy);
                }
            }
        }
        let mut settle = Settle(false, self);
        let stage = &mut *settle.1;
        let batch = batch_flits as u64;
        // Availability at visit time: every link has its grant, or is
        // parked, before a flit is served (idle links: neither).
        let busy = !scheduler.is_idle();
        for link in 0..stage.grant.len() {
            if busy || stage.link_parked[link] {
                stage.refill(link, batch, scheduler);
            }
        }
        let (mut flits, mut tails, mut more) = (0u64, 0u64, false);
        while flits < batch && !more {
            let free = stage.tx.free_slots() as u64;
            if free == 0 {
                // The flusher step after this chunk frees it.
                stage.estats.ring_full_spins.fetch_add(1, Ordering::Relaxed);
                more = true;
                break;
            }
            // One run per packet: as many of its flits as the grant,
            // the batch and the ring all still take.
            let left = (batch - flits).min(free);
            let (links, grant, mut link) = (&*stage.links, &stage.grant, 0);
            let Some(run) = scheduler.service_run(|flow| {
                link = links.route(flow);
                debug_assert!(grant[link] > 0, "link {link}: no grant");
                u32::try_from(grant[link].min(left)).unwrap_or(u32::MAX)
            }) else {
                break;
            };
            let n = u64::from(run.count);
            flits += n;
            if run.ends_packet() {
                tails += 1;
                shared
                    .admission
                    .on_packet_served(run.packet.flow, run.packet.len);
            }
            stage.grant[link] -= n;
            for flit in run.flits() {
                let pushed = stage.tx.push(flit);
                debug_assert!(pushed.is_ok(), "the ring had room");
            }
            settle.0 = true;
            more = stage.grant[link] == 0;
        }
        drop(settle);
        (flits, tails, more)
    }

    fn flush(&mut self) -> bool {
        self.step()
    }

    fn starved(&self) -> bool {
        let mut links = self.link_parked.iter().zip(&self.link_flows);
        !self.refused()
            && self.link_parked.contains(&true)
            && links.all(|(&p, f)| p || f.is_empty())
    }

    /// A credit for a parked link (a credit-returner wakes for it), or
    /// a link that held flits of the flusher step opened (whoever
    /// opened it woke the worker).
    fn can_progress(&self) -> bool {
        let links = &self.links;
        (0..self.grant.len()).any(|l| {
            (self.link_parked[l] && links.has_credit(l)) || (self.held[l] && !links.blocked(l))
        })
    }

    /// Nothing is left to serve, and what a dead `HoldForRecovery`
    /// link holds waits for a heal: dead-letter it (§9.3). The worker
    /// leaves once its flusher core is empty.
    fn drained(&mut self) -> bool {
        self.core.finish(&self.links)
    }

    /// A forced abort ends delivery: what the flusher core still holds
    /// — ring flits, and flits pending behind a dead, frozen or
    /// refusing link — is dead-lettered, every credit back. Never calls
    /// the sink.
    fn abort(&mut self) {
        self.core.dead_letter_all(&self.links);
        self.core.settle(&self.links, &self.estats);
        // The scheduler whose flows the marks parked is gone.
        self.link_parked.fill(false);
    }

    fn links(&self) -> Option<&LinkSet> {
        Some(&self.links)
    }
}

/// Runs one shard to completion: serves until `shutdown()` has been
/// called *and* the ring, the scheduler and the stage are fully
/// drained. Returns the shard's final flit clock.
///
/// A caught panic resumes the loop on this thread with the same `w`
/// (§9.2): the clock continues, it never rewinds.
pub(crate) fn run_shard(shared: Arc<Shared>, mut w: WorkerState) -> Cycle {
    let shard = w.cfg.shard;
    // Once for life: a resumed loop runs on this same thread.
    shared.wakes[shard].register();
    while panic::catch_unwind(AssertUnwindSafe(|| run_loop(&shared, &mut w))).is_err() {
        shared.fault.resume(shard);
    }
    shared.fault.board.set_health(shard, ShardHealth::Exited);
    w.now
}

fn run_loop(shared: &Shared, w: &mut WorkerState) {
    let WorkerState {
        cfg,
        scheduler,
        now,
        stage,
    } = w;
    let shard = cfg.shard;
    let ring = &shared.rings[shard];
    let stats = &shared.stats[shard];
    let mut arrivals: Vec<Packet> = Vec::with_capacity(cfg.batch_packets);
    // Exit-gate forensics, paired with the drain-side dump in
    // `Runtime::drain_within` (same `ERR_DRAIN_DEBUG` switch): a worker
    // that idles without exiting names the predicate holding it.
    let debug_exit = std::env::var_os("ERR_DRAIN_DEBUG").is_some();
    let mut debug_parks: u64 = 0;

    // Nobody announces that a returned credit is still there once
    // another shard has looked.
    let polls = shared.wakes.len() > 1;
    loop {
        // Fault phase (DESIGN.md §9): forced-shutdown abort or down
        // runtime, heartbeat, injected events — the abort check first,
        // also in a resumed loop, in the same load as the down check
        // (§14.1). The stage holds no credit between service phases,
        // and no flit — but for a sync batch a sink's unwind
        // interrupted, which an abort that beats the resumed loop's
        // first `serve` leaves uncounted (§9.4), and what the flusher
        // core holds, which `abort` dead-letters — so a forced abort has
        // only the scheduler's residue to count lost.
        match shared.gate.stop() {
            Stop::Run => {}
            Stop::Abort => {
                abort_residuals(shared, shard, cfg.n_flows, scheduler);
                stage.abort();
                return;
            }
            Stop::Down(epoch) => {
                if down(shared, cfg, scheduler, stage.as_mut(), epoch) {
                    break;
                }
                continue;
            }
        }
        fault_tick(shared, shard, *now, stage.as_ref());

        // Intake phase.
        arrivals.clear();
        let pulled = ring.pop_batch(&mut arrivals, cfg.batch_packets);
        for pkt in arrivals.drain(..) {
            scheduler.enqueue(pkt, *now);
        }

        // Service phase: one flit per cycle of the shard's flit clock,
        // chunk by chunk, each counted before its flusher step.
        let (mut n, mut flushed) = (0u64, false);
        loop {
            let budget = cfg.batch_flits - n as usize;
            let (chunk, tails, more) = stage.serve(shared, scheduler, *now, budget);
            *now += chunk;
            n += chunk;
            if chunk > 0 {
                stats.served_flits.add(chunk);
                stats.served_packets.add(tails);
            }
            flushed |= stage.flush();
            if !more || chunk == 0 || n as usize == cfg.batch_flits {
                break;
            }
        }
        stats.backlog_flits.set(scheduler.backlog_flits());

        if pulled == 0 && n == 0 && !flushed {
            // Nothing moved. Exit only when shutdown has been
            // requested, no producer is still inside
            // `submit` (see `Shared::can_finish` — a mid-submit
            // producer could still push), and everything this shard
            // owns is drained — its stage's flusher core included. The
            // ring check must come after
            // `can_finish`: once that returns true no further push can
            // happen, so empty is stable — and exact: `is_empty` counts
            // claimed slots, and with no producer inside `submit` none
            // is claimed but unpublished.
            if shared.can_finish() && ring.is_empty() && scheduler.is_idle() && stage.drained() {
                break;
            }
            stats.idle_loops.add(1);
            let has_work = || ring.head_ready() || stage.can_progress();
            if !ring.is_empty() && !has_work() {
                // A producer claimed the head slot and has not
                // published it: no pop can succeed until it runs again.
                // It is runnable — if it shares our CPU, we are what
                // keeps it off — so neither spin against it nor park on
                // a timer: hand it the CPU.
                std::thread::yield_now();
            } else {
                debug_parks += 1;
                let starved = stage.starved();
                if debug_exit && debug_parks.is_multiple_of(100_000) {
                    eprintln!(
                        "[exit-debug] shard {shard} starved={starved} \
                         can_finish={} ring_empty={} sched_idle={}",
                        shared.can_finish(),
                        ring.is_empty(),
                        scheduler.is_idle(),
                    );
                }
                let cell = &shared.wakes[shard];
                let how = if starved && !polls {
                    // backstop: covered by `wake_credit_waiters` (a
                    // credit return), `wake_workers` (a link opening
                    // under flits the flusher step holds),
                    // `wake_worker_for_intake` (a full ingress ring) and
                    // `drain_within`'s wakes (drain, abort) — no arrival
                    // could be served meanwhile.
                    cell.idle_unless(has_work, BACKSTOP)
                } else {
                    // backstop: polls arrivals (a plain push never wakes),
                    // credits other shards may take, and a sink that
                    // refused a flit finding room.
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

/// One loop of a worker whose runtime is down in `epoch` (DESIGN.md
/// §14.1). Once per epoch, as soon as no producer is inside `submit`,
/// it counts what it holds lost exactly as a forced abort does, starts
/// over with an empty scheduler and publishes the sweep; then it idles,
/// serving nothing, until the runtime comes up, is aborted or may exit.
/// Returns whether the worker exits.
#[cold]
fn down(
    shared: &Shared,
    cfg: &ShardConfig,
    scheduler: &mut ErrScheduler,
    stage: &mut dyn EgressStage,
    epoch: u64,
) -> bool {
    let board = &shared.fault.board;
    if board.swept(cfg.shard) != epoch {
        if !shared.gate.can_sweep() {
            // A producer is mid-submit and may still push: let it run.
            std::thread::yield_now();
            return false;
        }
        abort_residuals(shared, cfg.shard, cfg.n_flows, scheduler);
        stage.abort();
        *scheduler = ErrScheduler::new(cfg.n_flows);
        board.mark_swept(cfg.shard, epoch);
    }
    if shared.can_finish() {
        return true;
    }
    // backstop: covered by `set_down` (up again, or a new epoch) and
    // `drain_within`'s wakes (drain, abort).
    shared.wakes[cfg.shard].idle_unless(
        || shared.gate.stop() != Stop::Down(epoch) || shared.can_finish(),
        BACKSTOP,
    );
    false
}

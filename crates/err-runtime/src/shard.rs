//! The shard worker: a private scheduler, a step that never waits and a
//! driver that does every wait (DESIGN.md §6).
//!
//! Each shard owns one `ErrScheduler` and never shares it, so no lock
//! guards scheduling state and the per-flit decision stays O(1).
//! [`WorkerState::step`] makes one round of decisions and returns a
//! [`Step`]: the fault phase, intake of up to `batch_packets` arrivals,
//! service of up to `batch_flits` flits in chunks (one flit per cycle
//! of the shard's flit clock, in `service_run` runs that replay the
//! single-stepped schedule exactly), stats, the exit gate. It never
//! sleeps, parks, yields or spins; err-check's `step-never-waits` pass
//! holds it and everything it calls to that.
//!
//! [`run_shard`] is the one driver: it steps, and on an idle or down
//! step it yields or idles on the shard's
//! [`WakeCell`](err_egress::WakeCell) — covered, with a `BACKSTOP`
//! timer, where every event it waits for is announced, else polling
//! with `PARK_TIMEOUT`. Its loop of steps runs inside the one
//! `catch_unwind` fence, the [`WorkerState`] outside it (§9.2): a panic
//! unwinds out of a step, and the driver steps on, on the same thread
//! with the same state.
//!
//! Where served flits go is the shard's `EgressStage`'s business:
//! `SyncStage` hands each to the caller's sink inline; `BufferedStage`
//! commits them to a per-shard SPSC ring under per-link credits, parks
//! the flows of a link whose pool is empty, and runs the flusher step
//! that delivers them (DESIGN.md §7).

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use desim::Cycle;
use err_egress::{Egress, FlusherCore, LinkSet, Producer, Sleep, BACKSTOP};
use err_sched::err::ErrScheduler;
use err_sched::{Packet, Scheduler, ServedFlit};

use crate::fault::{abort_residuals, fault_tick};
use crate::gate::Stop;
use crate::ingress::Shared;
use crate::stats::WorkerStats;
use crate::RuntimeConfig;

/// Park duration of a sleep that polls; bounds wake-up latency after
/// an idle period nobody's wake ended.
const PARK_TIMEOUT: Duration = Duration::from_micros(100);

/// Everything a worker thread owns (§9.2): a worker starts from one
/// with a fresh scheduler and clock 0 and steps on with the same one
/// after a panic. It lives outside the driver's panic fence, so it
/// survives the unwind whole; injected panics fire only at an intake
/// boundary and a sink's unwind leaves its interrupted batch in the
/// stage, so the state is consistent by construction. The ingress ring
/// is *not* here: it lives in `Shared` and the resumed driver simply
/// goes on draining it.
pub(crate) struct WorkerState {
    pub(crate) shard: usize,
    /// `RuntimeConfig`'s batch sizes, and its flow-id space, which
    /// forced-abort residue accounting walks.
    batch_packets: usize,
    batch_flits: usize,
    n_flows: usize,
    scheduler: ErrScheduler,
    /// The shard flit clock; a resumed driver continues it.
    now: Cycle,
    /// The output side, whole: the sync stage's sink and interrupted
    /// batch, or the buffered stage's ring producer, parking marks,
    /// flusher core and sink.
    stage: Box<dyn EgressStage>,
    /// The intake buffer, reused by every step; empty between steps.
    arrivals: Vec<Packet>,
}

/// What one [`WorkerState::step`] found, for the driver to act on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Something moved: step again.
    Busy,
    /// Nothing moved and the worker may not exit yet. `starved`: every
    /// link that carries a flow is credit-parked and no flit waits on a
    /// refusing sink (`EgressStage::starved`).
    Idle { starved: bool },
    /// The runtime is down in `epoch` (§14.1). Not `swept`: a producer
    /// inside `submit` holds up the sweep.
    Down { epoch: u64, swept: bool },
    /// Done: aborted, or shutdown asked and everything drained.
    Exit,
}

impl WorkerState {
    /// `shard`'s worker under `config`: a fresh scheduler, clock 0.
    pub(crate) fn new(shard: usize, config: &RuntimeConfig, stage: Box<dyn EgressStage>) -> Self {
        Self {
            shard,
            batch_packets: config.batch_packets,
            batch_flits: config.batch_flits,
            n_flows: config.n_flows,
            scheduler: ErrScheduler::new(config.n_flows),
            now: 0,
            stage,
            arrivals: Vec::with_capacity(config.batch_packets),
        }
    }

    /// One round of the worker's decisions, in order: the fault phase
    /// (DESIGN.md §9) — forced-shutdown abort or down runtime, checked
    /// first and in one load (§14.1), then `fault_tick` — intake,
    /// service chunk by chunk, stats, the exit gate. Returns without
    /// waiting: every wait is the driver's ([`run_shard`]).
    pub(crate) fn step(&mut self, shared: &Shared) -> Step {
        let shard = self.shard;
        let ring = &shared.rings[shard];
        let stats = &shared.stats[shard].worker;
        // The stage holds no credit between service phases, and no flit
        // — but for a sync batch a sink's unwind interrupted, which an
        // abort that beats the resumed step's first `serve` leaves
        // uncounted (§9.4), and what the flusher core holds, which
        // `abort` dead-letters — so a forced abort has only the
        // scheduler's residue to count lost.
        match shared.gate.stop() {
            Stop::Run => {}
            Stop::Abort => {
                abort_residuals(shared, shard, self.n_flows, &mut self.scheduler);
                self.stage.abort(stats);
                return Step::Exit;
            }
            Stop::Down(epoch) => return self.down(shared, epoch),
        }
        fault_tick(shared, shard, self.now, self.stage.as_ref());

        let pulled = ring.pop_batch(&mut self.arrivals, self.batch_packets);
        for pkt in self.arrivals.drain(..) {
            self.scheduler.enqueue(pkt, self.now);
        }

        // Service: one flit per cycle of the shard's flit clock, chunk
        // by chunk, each counted before its flusher step.
        let (mut n, mut flushed) = (0u64, false);
        loop {
            let budget = self.batch_flits - n as usize;
            let (chunk, tails, more) =
                self.stage
                    .serve(shared, stats, &mut self.scheduler, self.now, budget);
            self.now += chunk;
            n += chunk;
            if chunk > 0 {
                stats.served_flits.add(chunk);
                stats.served_packets.add(tails);
            }
            flushed |= self.stage.flush(stats);
            if !more || chunk == 0 || n as usize == self.batch_flits {
                break;
            }
        }
        stats.backlog_flits.set(self.scheduler.backlog_flits());
        if pulled > 0 || n > 0 || flushed {
            return Step::Busy;
        }
        // Exit only when shutdown has been requested, no producer is
        // still inside `submit` (see `Shared::can_finish` — a
        // mid-submit producer could still push), and everything this
        // shard owns is drained, its stage's flusher core included. The
        // ring check must come after `can_finish`: once that returns
        // true no further push can happen, so empty is stable — and
        // exact: `is_empty` counts claimed slots, and with no producer
        // inside `submit` none is claimed but unpublished.
        if shared.can_finish()
            && ring.is_empty()
            && self.scheduler.is_idle()
            && self.stage.drained()
        {
            stats.backlog_flits.set(0);
            return Step::Exit;
        }
        Step::Idle {
            starved: self.stage.starved(),
        }
    }

    /// The step of a worker whose runtime is down in `epoch` (DESIGN.md
    /// §14.1). Once per epoch, as soon as no producer is inside
    /// `submit`, it counts what it holds lost exactly as a forced abort
    /// does, starts over with an empty scheduler and publishes the
    /// sweep; then it serves nothing until the runtime comes up, is
    /// aborted or may exit.
    #[cold]
    fn down(&mut self, shared: &Shared, epoch: u64) -> Step {
        let (shard, board) = (self.shard, &shared.fault.board);
        if board.swept(shard) != epoch {
            if !shared.gate.can_sweep() {
                return Step::Down {
                    epoch,
                    swept: false,
                };
            }
            abort_residuals(shared, shard, self.n_flows, &mut self.scheduler);
            self.stage.abort(&shared.stats[shard].worker);
            self.scheduler = ErrScheduler::new(self.n_flows);
            board.mark_swept(shard, epoch);
        }
        if shared.can_finish() {
            return Step::Exit;
        }
        Step::Down { epoch, swept: true }
    }
}

/// The shard's output side: where served flits go, and the link state
/// only that side knows. Dispatch is per chunk or per fault event,
/// never per flit. Every method but `serve` defaults to the answer of
/// a stage that buffers nothing — never parked, always drained, no-op
/// — which is the whole of [`SyncStage`]'s link state. A stage counts
/// its ring and credit events into the `stats` it is handed, the
/// worker's own counters.
pub(crate) trait EgressStage: Send {
    /// One service chunk: serves up to `batch_flits` flits from
    /// `scheduler` starting at flit-clock `now` and sends each on its
    /// way. Returns `(flits, tail flits, more)`: `more` if it stopped on
    /// its own backlog (a spent grant, a full ring), which `flush` frees.
    fn serve(
        &mut self,
        shared: &Shared,
        stats: &WorkerStats,
        scheduler: &mut ErrScheduler,
        now: Cycle,
        batch_flits: usize,
    ) -> (u64, u64, bool);

    /// The stage's flusher step, after every `serve` and once the step
    /// has counted the chunk (a sink may read the shard's served clock,
    /// §11.8). Returns whether it moved anything.
    fn flush(&mut self, _stats: &WorkerStats) -> bool {
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

    /// Forced-abort settlement (§9.4), where the scheduler's residue is
    /// counted lost (also a down runtime's sweep, §14.1): disposes of
    /// every flit the stage still has to deliver, none uncounted.
    fn abort(&mut self, _stats: &WorkerStats) {}

    /// The links a plan's link events act on (§9.5); a stage without
    /// links has none.
    fn links(&self) -> Option<&LinkSet> {
        None
    }
}

/// Synchronous egress: the worker calls the sink inline.
///
/// The batch and its cursor live here, in the [`WorkerState`] outside
/// the panic fence (§9.2): a sink that unwinds mid-batch leaves
/// `served[next..]` pulled from the scheduler but not yet handed over,
/// and nothing of the batch counted; the resumed driver's first `serve`
/// finishes and counts it instead of pulling a new one — also when the
/// sink unwound on the batch's last flit, since a batch is cleared only
/// once counted. The flit the sink unwound on is not offered twice.
pub(crate) struct SyncStage<E> {
    shard: usize,
    sink: E,
    /// The service batch, reused across steps; empty once counted.
    served: Vec<ServedFlit>,
    /// Flits of `served` already handed to the sink.
    next: usize,
    /// Tail flits among them.
    tails: u64,
}

impl<E: Egress> SyncStage<E> {
    pub(crate) fn new(shard: usize, sink: E, batch_flits: usize) -> Self {
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
        _stats: &WorkerStats,
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
            self.sink.emit(self.shard, flit);
        }
        let counted = (self.served.len() as u64, self.tails, false);
        self.served.clear();
        (self.next, self.tails) = (0, 0);
        counted
    }
}

/// Buffered egress: run-by-run service against per-link credit
/// grants (DESIGN.md §7). A chunk takes a *grant* per link with backlog
/// before it serves a flit — or parks the link's flows if the pool is
/// empty, so the scheduler serves the other links' flows at full rate,
/// and releases them once a grant comes back — and gives what it did
/// not spend back before `serve` returns: a served flit always has its
/// credit. A chunk ends at a spent grant or a full output ring, so
/// `serve` never calls the sink; the step's `flush` runs the shard's
/// own `FlusherCore`, which frees the ring. The stage lives in the
/// [`WorkerState`], outside the panic fence (§9.2); a grant never
/// outlives its `serve`.
pub(crate) struct BufferedStage<E> {
    tx: Producer<ServedFlit>,
    links: Arc<LinkSet>,
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
            link_flows,
            grant: vec![0; n_links],
            link_parked: vec![false; n_links],
            core,
            sink,
            held: vec![false; n_links],
        }
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
    fn refill(
        &mut self,
        link: usize,
        want: u64,
        scheduler: &mut ErrScheduler,
        stats: &WorkerStats,
    ) {
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
            stats.credit_exhaustions.add(1);
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
        stats: &WorkerStats,
        scheduler: &mut ErrScheduler,
        _now: Cycle,
        batch_flits: usize,
    ) -> (u64, u64, bool) {
        // Whether the chunk pushed, the stage, and where its ring peak
        // goes.
        struct Settle<'a, E>(bool, &'a mut BufferedStage<E>, &'a WorkerStats);
        impl<E> Drop for Settle<'_, E> {
            fn drop(&mut self) {
                let stage = &mut *self.1;
                stage.links.return_grants(&mut stage.grant);
                if self.0 {
                    self.2.ring_peak.raise(stage.tx.occupancy() as u64);
                }
            }
        }
        let mut settle = Settle(false, self, stats);
        let stage = &mut *settle.1;
        let batch = batch_flits as u64;
        // Availability at visit time: every link has its grant, or is
        // parked, before a flit is served (idle links: neither).
        let busy = !scheduler.is_idle();
        for link in 0..stage.grant.len() {
            if busy || stage.link_parked[link] {
                stage.refill(link, batch, scheduler, stats);
            }
        }
        let (mut flits, mut tails, mut more) = (0u64, 0u64, false);
        while flits < batch && !more {
            let free = stage.tx.free_slots() as u64;
            if free == 0 {
                // The flusher step after this chunk frees it.
                stats.ring_full_spins.add(1);
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

    /// One `FlusherCore::step`, settled: whether it popped, delivered
    /// or dead-lettered anything.
    fn flush(&mut self, stats: &WorkerStats) -> bool {
        let popped = self.core.popped();
        let links = &*self.links;
        self.core.step(links, None, &mut self.sink);
        let (delivered, dead) = self.core.settle(links);
        stats.flushed_flits.add(delivered);
        for (link, held) in self.held.iter_mut().enumerate() {
            *held = self.core.pending_len(link) > 0 && links.blocked(link);
        }
        delivered + dead > 0 || self.core.popped() != popped
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
    fn abort(&mut self, stats: &WorkerStats) {
        self.core.dead_letter_all(&self.links);
        stats.flushed_flits.add(self.core.settle(&self.links).0);
        // The scheduler whose flows the marks parked is gone.
        self.link_parked.fill(false);
    }

    fn links(&self) -> Option<&LinkSet> {
        Some(&self.links)
    }
}

/// The driver: runs one shard to completion — until `shutdown()` has
/// been called *and* the ring, the scheduler and the stage are fully
/// drained, or a forced abort — and returns the shard's final flit
/// clock. Every wait of the worker is here, between two steps.
///
/// A caught panic steps on, on this thread with the same `w` (§9.2):
/// the clock continues, it never rewinds.
pub(crate) fn run_shard(shared: Arc<Shared>, mut w: WorkerState) -> Cycle {
    let shard = w.shard;
    let (ring, stats) = (&shared.rings[shard], &shared.stats[shard].worker);
    let cell = &*shared.wakes[shard];
    // Nobody announces that a returned credit is still there once
    // another shard has looked.
    let polls = shared.wakes.len() > 1;
    // Once for life: a resumed driver runs on this same thread.
    cell.register();
    let mut drive = || loop {
        match w.step(&shared) {
            Step::Busy => stats.busy_loops.add(1),
            Step::Exit => return,
            Step::Idle { starved } => {
                stats.idle_loops.add(1);
                let has_work = || ring.head_ready() || w.stage.can_progress();
                if !ring.is_empty() && !has_work() {
                    // A producer claimed the head slot and has not
                    // published it: no pop can succeed until it runs
                    // again. It is runnable — if it shares our CPU, we
                    // are what keeps it off — so neither spin against it
                    // nor park on a timer: hand it the CPU.
                    std::thread::yield_now();
                    continue;
                }
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
            // A producer is mid-submit and may still push: let it run.
            Step::Down { swept: false, .. } => std::thread::yield_now(),
            Step::Down { epoch, swept: true } => {
                // backstop: covered by `set_down` (up again, or a new
                // epoch) and `drain_within`'s wakes (drain, abort).
                cell.idle_unless(
                    || shared.gate.stop() != Stop::Down(epoch) || shared.can_finish(),
                    BACKSTOP,
                );
            }
        }
    };
    while panic::catch_unwind(AssertUnwindSafe(&mut drive)).is_err() {
        shared.fault.resume(shard);
    }
    w.now
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use crate::fault::FaultPlan;
    use crate::ingress::RuntimeHandle;

    type Log = Arc<Mutex<Vec<ServedFlit>>>;

    /// A one-shard runtime with no thread: a producer handle on its
    /// shared block, and its worker over a sync sink that records.
    fn one_shard(plan: &FaultPlan) -> (RuntimeHandle, WorkerState, Log) {
        let config = RuntimeConfig {
            n_flows: 4,
            batch_packets: 8,
            batch_flits: 16,
            ..RuntimeConfig::default()
        };
        let shared = Arc::new(Shared::new(&config, plan));
        let log = Log::default();
        let rec = Arc::clone(&log);
        let sink = move |_: usize, f: &ServedFlit| rec.lock().unwrap().push(*f);
        let stage = Box::new(SyncStage::new(0, sink, config.batch_flits));
        let w = WorkerState::new(0, &config, stage);
        (RuntimeHandle { shared }, w, log)
    }

    /// Figure 4's mix on four flows: flow 2's packets twice as long,
    /// flow 3 sending twice as many. Returns each packet submitted.
    fn submit_figure_4_mix(handle: &RuntimeHandle) -> Vec<Packet> {
        let flows = (0..6).flat_map(|_| [0, 1, 2, 3, 3]).enumerate();
        let mix = flows.map(|(id, flow)| {
            let len = (1 + id as u32 * 5 % 8) * if flow == 2 { 2 } else { 1 };
            Packet::new(id as u64, flow, len, 0)
        });
        let sent: Vec<Packet> = mix.collect();
        for &pkt in &sent {
            handle.submit(pkt).unwrap();
        }
        sent
    }

    /// Every flit of `sent` served once, in per-flow FIFO order, and
    /// the clock at the flits served.
    fn assert_served_once_in_order(sent: &[Packet], log: &Log, w: &WorkerState) {
        let log = log.lock().unwrap();
        for flow in 0..4 {
            let want: Vec<(u64, u32)> = (sent.iter().filter(|p| p.flow == flow))
                .flat_map(|p| (0..p.len).map(move |i| (p.id, i)))
                .collect();
            let got: Vec<(u64, u32)> = (log.iter().filter(|f| f.flow == flow))
                .map(|f| (f.packet, f.flit_index))
                .collect();
            assert_eq!(got, want, "flow {flow}");
        }
        let flits: u64 = sent.iter().map(|p| u64::from(p.len)).sum();
        assert_eq!((log.len() as u64, w.now), (flits, flits));
    }

    #[test]
    fn a_step_serves_the_figure_4_mix_on_the_test_thread_and_exits() {
        let (handle, mut w, log) = one_shard(&FaultPlan::new());
        let shared = &*handle.shared;
        assert_eq!(w.step(shared), Step::Idle { starved: false });
        let sent = submit_figure_4_mix(&handle);
        while w.step(shared) == Step::Busy {}
        assert_served_once_in_order(&sent, &log, &w);
        shared.gate.close();
        assert_eq!(w.step(shared), Step::Exit);
    }

    #[test]
    fn a_panic_unwinds_out_of_a_step_and_the_next_step_goes_on() {
        let (handle, mut w, log) = one_shard(&FaultPlan::new().panic_shard_at(0, 0, 40));
        let shared = &*handle.shared;
        let sent = submit_figure_4_mix(&handle);
        let clock = loop {
            let at = w.now;
            match panic::catch_unwind(AssertUnwindSafe(|| w.step(shared))) {
                Ok(Step::Busy) => {}
                Ok(other) => panic!("{other:?} before the injected panic"),
                Err(_) => break at,
            }
        };
        assert!(clock >= 40 && w.now == clock, "{clock} {}", w.now);
        assert_eq!(log.lock().unwrap().len() as u64, clock);
        while w.step(shared) == Step::Busy {}
        assert_served_once_in_order(&sent, &log, &w);
    }
}

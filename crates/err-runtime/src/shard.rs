//! The shard worker: a private scheduler driven in batched service loops.
//!
//! Each shard owns one discipline instance (usually ERR) and never shares
//! it — there is no lock around scheduling state, which is what keeps the
//! per-flit decision O(1) end to end. The loop alternates between two
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
//! four points and the fault and steal layers query about link state
//! (DESIGN.md §6):
//!
//! * `SyncStage` — every served flit passes through the caller's sink
//!   inline, on the worker thread. It buffers nothing, so it gives the
//!   trait's degenerate answers; a slow sink stalls the shard's whole
//!   flit clock.
//! * `BufferedStage` — served flits are committed to a per-shard SPSC
//!   ring under per-link credit flow control (`err-egress`); a flusher
//!   thread delivers them. A credit-starved link *parks* its flows in
//!   the scheduler (when the discipline supports it), so the shard
//!   keeps serving everyone else — the decoupling the paper's
//!   stalled-downstream argument calls for.
//!
//! The loop runs inside a `catch_unwind` fence with the worker's whole
//! state — scheduler, migration driver, flit clock and stage, i.e. a
//! `Bequest` — owned *outside* the closure (DESIGN.md §9.2): a panic
//! unwinds out of the loop, the fence catches it, and the epilogue
//! picks one of three paths:
//!
//! * **resurrection** (supervision with
//!   [`SupervisionConfig::resurrection`](crate::SupervisionConfig), §13.6)
//!   — the intact state is posted as the `Bequest` it already is; the
//!   supervisor spawns a successor worker that adopts it, and the flow
//!   map never moves;
//! * **salvage** (supervision without resurrection) — the salvage path
//!   re-homes the dead shard's flows, on this same thread, with the
//!   scheduler state still owned here;
//! * **re-throw** (no supervision) — the join observes the panic and
//!   shutdown reports it as [`ShardExit::Panicked`](crate::ShardExit).
//!
//! When there is nothing to do the worker spins briefly, then sleeps on
//! its shard's [`WakeCell`](err_egress::WakeCell) (DESIGN.md §6): it
//! announces itself, re-checks its ingress ring and whether its stage
//! can progress (a stashed link's credit came back), and parks. Its
//! peers end the park at *their* batch boundaries — a producer about
//! to wait on this worker, a flusher whose step returned credits —
//! never per packet or per flit. The park keeps its `PARK_TIMEOUT`, so
//! a wake that never comes (a plain push into an idle shard) costs
//! what it always did: at most `PARK_TIMEOUT` of added latency on an
//! idle→busy transition.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use desim::Cycle;
use err_egress::{Egress, FlushProgress, LinkSet, Producer, ShardEgressStats, Sleep};
use err_sched::{Packet, Scheduler, ServedFlit};

use crate::fault::{abort_residuals, fault_tick, salvage_shard, try_exit, Bequest};
use crate::ingress::Shared;
use crate::ownership::OwnerState;

/// Spins this many empty loops before parking.
const SPIN_BEFORE_PARK: u32 = 64;
/// Idle park duration; bounds wake-up latency after an idle period
/// nobody's wake ended.
const PARK_TIMEOUT: Duration = Duration::from_micros(100);

/// The idle park: sleeps on the shard's wake cell unless `has_work`
/// holds on the re-check, and counts how the park ended.
fn park_idle(shared: &Shared, shard: usize, has_work: impl FnOnce() -> bool) {
    let stats = &shared.stats[shard];
    let how = shared.wakes[shard].sleep_unless(has_work, PARK_TIMEOUT);
    if how != Sleep::Ready {
        stats.parks.add(1);
    }
    if how == Sleep::TimedOut {
        stats.park_timeouts.add(1);
    }
}

/// Per-shard configuration handed to the worker thread.
pub(crate) struct ShardConfig {
    pub(crate) shard: usize,
    pub(crate) batch_packets: usize,
    pub(crate) batch_flits: usize,
    /// Flow-id space, needed by forced-abort residue accounting.
    pub(crate) n_flows: usize,
}

/// The shard's output side: where served flits go, and the link state
/// only that side knows. The worker loop calls it at four points per
/// iteration (`unstick`, `serve`, `holds_flits`, `can_progress`); the
/// fault and steal layers put their five questions to it instead of
/// borrowing its fields. Dispatch is per loop or per protocol step,
/// never per flit.
///
/// Every method but `serve` defaults to the answer of a stage that
/// buffers nothing — never parked, always retired, no-op — which is
/// the whole of [`SyncStage`]'s link state.
pub(crate) trait EgressStage: Send {
    /// Top of the loop: commit what an earlier `serve` had to hold
    /// back, for every link that can take it now, and unpark the flows
    /// that waited on it.
    fn unstick(&mut self, _shared: &Shared, _scheduler: &mut Box<dyn Scheduler + Send>) {}

    /// The service phase: serves up to `batch_flits` flits from
    /// `scheduler` starting at flit-clock `now` and sends each on its
    /// way. Returns `(flits, tail flits)` served.
    fn serve(
        &mut self,
        shared: &Shared,
        scheduler: &mut Box<dyn Scheduler + Send>,
        now: Cycle,
        batch_flits: usize,
    ) -> (u64, u64);

    /// Exit gate: whether a served flit is still held on the worker.
    fn holds_flits(&self) -> bool {
        false
    }

    /// Park re-check: whether `unstick` would commit something now.
    fn can_progress(&self) -> bool {
        false
    }

    /// Whether `flow`'s link is credit-parked: a mover must then leave
    /// the flow parked for the `unstick` sweep to release (§13.5).
    fn link_parked(&self, _flow: usize) -> bool {
        false
    }

    /// Marks (`true`) or clears `flow`'s pre-park on behalf of a
    /// pending salvage (§9.2): the `unstick` sweep must not release it
    /// before its package lands.
    fn set_salvage_parked(&mut self, _flow: usize, _parked: bool) {}

    /// An injected `KillLink` (§9.5); a stage without links ignores it.
    fn declare_link_dead(&self, _link: usize) {}

    /// Cumulative flits committed downstream — the snapshot the
    /// donor-side retire fence takes (§13.5).
    fn pushed(&self) -> u64 {
        0
    }

    /// Whether every flit of `flow` committed before the `snapshot`
    /// push count has left the egress path (§13.5).
    fn flow_retired(&self, _flow: usize, _snapshot: u64) -> bool {
        true
    }
}

/// Synchronous egress: the worker calls the optional sink inline.
pub(crate) struct SyncStage<E> {
    shard: usize,
    sink: Option<E>,
    /// The service batch, reused across loops.
    served: Vec<ServedFlit>,
}

impl<E: Egress> SyncStage<E> {
    pub(crate) fn new(shard: usize, sink: Option<E>, batch_flits: usize) -> Self {
        Self {
            shard,
            sink,
            served: Vec::with_capacity(batch_flits),
        }
    }
}

impl<E: Egress> EgressStage for SyncStage<E> {
    fn serve(
        &mut self,
        shared: &Shared,
        scheduler: &mut Box<dyn Scheduler + Send>,
        now: Cycle,
        batch_flits: usize,
    ) -> (u64, u64) {
        self.served.clear();
        let n = scheduler.service_batch(now, batch_flits, &mut self.served);
        let mut tails = 0u64;
        for flit in &self.served {
            if flit.is_tail() {
                tails += 1;
                shared.admission.on_packet_served(flit.flow, flit.len);
            }
            if let Some(sink) = self.sink.as_mut() {
                sink.emit(self.shard, flit);
            }
        }
        (n as u64, tails)
    }
}

/// Buffered egress: flit-by-flit service with per-link credit flow
/// control.
///
/// * a credit is acquired *before* a flit is committed to the ring, so
///   the flits buffered anywhere for one link never exceed the credit
///   pool (plus the single stashed flit below);
/// * on credit exhaustion the already-served flit is stashed (at most
///   one per link — parked flows produce no more) and every flow of
///   that link is parked in the scheduler, which keeps serving the
///   other links' flows at full rate;
/// * each loop, stashed flits retry; success unparks the link's flows.
///
/// Disciplines without parking support fall back to blocking on the
/// exhausted pool — the legacy coupling, kept because skipping without
/// scheduler cooperation would either reorder flows or buffer
/// unboundedly.
///
/// The stage is owned *outside* the panic fence and travels in the
/// [`Bequest`] (§13.6): the stash holds served flits that already
/// passed accounting, so dropping it on a panic would un-conserve them;
/// the `pushed` count is the numerator of the §13.5 egress-retire fence
/// and must survive the worker that advanced it.
pub(crate) struct BufferedStage {
    tx: Producer<ServedFlit>,
    links: Arc<LinkSet>,
    estats: Arc<ShardEgressStats>,
    /// This shard's flusher retire cursor.
    progress: Arc<FlushProgress>,
    /// Link → flows, in flow order, from the routing fn (not a modulo
    /// stride: a fabric route table (§11.1) maps arbitrary flow sets
    /// onto a link). Built once, so parking or releasing a link costs
    /// O(flows on it) rather than a sweep of the flow-id space.
    link_flows: Vec<Vec<usize>>,
    /// At most one served-but-uncommitted flit per link.
    stash: Vec<Option<ServedFlit>>,
    stash_count: usize,
    link_parked: Vec<bool>,
    /// Flows pre-parked on behalf of a pending salvage (§9.2).
    salvage_parked: Vec<bool>,
    /// Cumulative flits this shard has committed to its egress ring —
    /// compared against the flusher's [`FlushProgress`] cursor by the
    /// donor-side retire fence (§13.5).
    pushed: u64,
    /// `pushed` as of the last worker → flusher wake.
    woken_at: u64,
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
            stash: vec![None; n_links],
            stash_count: 0,
            link_parked: vec![false; n_links],
            salvage_parked: vec![false; n_flows],
            pushed: 0,
            woken_at: 0,
        }
    }

    /// Commits `flit` to the output ring, waiting while it is full.
    /// Bounded wait: the flusher always makes progress (a blocked
    /// link's flits move to its bounded pending queue), so ring slots
    /// keep freeing up — once it runs. It may be asleep over a ring
    /// that was empty when it last looked, and on a shared core it
    /// cannot run while this thread spins, so each retry wakes it and
    /// yields.
    fn push_ring(&mut self, flit: ServedFlit) {
        let mut item = flit;
        let mut first = true;
        while let Err(back) = self.tx.push(item) {
            item = back;
            if first {
                self.estats.ring_full_spins.fetch_add(1, Ordering::Relaxed);
                first = false;
            }
            self.tx.wake_consumer();
            std::thread::yield_now();
        }
        self.estats.note_ring_occupancy(self.tx.occupancy() as u64);
        self.pushed += 1;
    }
}

impl EgressStage for BufferedStage {
    /// Links whose credits returned get their stashed flit committed
    /// and their flows unparked.
    fn unstick(&mut self, shared: &Shared, scheduler: &mut Box<dyn Scheduler + Send>) {
        if self.stash_count == 0 {
            return;
        }
        for link in 0..self.stash.len() {
            if self.stash[link].is_none() || !self.links.try_acquire(link) {
                continue;
            }
            let flit = self.stash[link].take().expect("stash checked non-empty");
            self.stash_count -= 1;
            self.push_ring(flit);
            if !self.link_parked[link] {
                continue;
            }
            self.link_parked[link] = false;
            // Flows a pending salvage pre-parked stay parked (their
            // package has not landed), and so does a flow under an
            // active ownership claim (§13.1): a quiesced steal victim
            // unparked here would be served past the §13.5 retire
            // fence. Its mover unparks it when the claim resolves —
            // or, if the claim aborted while the link was stashed,
            // the next sweep sees it `Settled` and releases it.
            for &flow in &self.link_flows[link] {
                if !self.salvage_parked[flow]
                    && shared
                        .steal
                        .as_ref()
                        .is_none_or(|sr| sr.own.owner_state(flow) == OwnerState::Settled)
                {
                    // unpark: the sweep `unpark_respecting_links`
                    // defers to for credit-parked links — the
                    // authority itself — and the `salvage_parked` /
                    // `owner_state` guards above keep claimed flows
                    // parked (§13.5).
                    scheduler.unpark_flow(flow);
                }
            }
        }
    }

    /// Flit by flit: the credit check must sit between serving a flit
    /// and serving the next, or a stalled link could strand a whole
    /// batch of already-served flits.
    fn serve(
        &mut self,
        shared: &Shared,
        scheduler: &mut Box<dyn Scheduler + Send>,
        now: Cycle,
        batch_flits: usize,
    ) -> (u64, u64) {
        let parking = scheduler.supports_parking();
        let mut n = 0u64;
        let mut tails = 0u64;
        while (n as usize) < batch_flits {
            let Some(flit) = scheduler.service_flit(now + n) else {
                break;
            };
            n += 1;
            if flit.is_tail() {
                tails += 1;
                shared.admission.on_packet_served(flit.flow, flit.len);
            }
            let link = self.links.route(flit.flow);
            if self.links.try_acquire(link) {
                self.push_ring(flit);
                continue;
            }
            self.estats
                .credit_exhaustions
                .fetch_add(1, Ordering::Relaxed);
            if parking {
                debug_assert!(self.stash[link].is_none(), "second stash for link {link}");
                self.stash[link] = Some(flit);
                self.stash_count += 1;
                self.link_parked[link] = true;
                for &flow in &self.link_flows[link] {
                    // unpark: the `link_parked` sweep in `unstick`, at
                    // the top of the loop, when a credit frees the
                    // link's stash.
                    let _ = scheduler.park_flow(flow);
                }
                continue;
            }
            // Blocking fallback: couples the shard's clock to the slow
            // link until a credit frees. A forced abort releases the
            // wait (the flit is discarded — it was served; delivery is
            // what the abort cuts).
            loop {
                if self.links.try_acquire(link) {
                    self.push_ring(flit);
                    break;
                }
                // ordering: Acquire pairs with the Release `abort`
                // store in `Runtime::drain_within` — the only exit
                // from this credit-wait spin besides the credit itself.
                if shared.abort.load(Ordering::Acquire) {
                    break;
                }
                // The credit comes from the flusher: make sure it is
                // awake, and let it have the core.
                self.tx.wake_consumer();
                std::thread::yield_now();
            }
        }
        // Worker → flusher wake: once per loop that committed flits
        // (the `unstick` sweep's included), after the last of them —
        // never per push.
        if self.pushed != self.woken_at {
            self.woken_at = self.pushed;
            self.tx.wake_consumer();
        }
        (n, tails)
    }

    /// No flit may sit in a stash at exit. Parked flows keep
    /// `is_idle()` false, so a stalled link holds the worker until
    /// drain mode releases the credits (see `Runtime::drain` ordering).
    fn holds_flits(&self) -> bool {
        self.stash_count > 0
    }

    /// A credit for a stashed link (a flusher wakes for it).
    fn can_progress(&self) -> bool {
        (0..self.stash.len()).any(|l| self.stash[l].is_some() && self.links.has_credit(l))
    }

    fn link_parked(&self, flow: usize) -> bool {
        self.link_parked[self.links.route(flow)]
    }

    fn set_salvage_parked(&mut self, flow: usize, parked: bool) {
        self.salvage_parked[flow] = parked;
    }

    fn declare_link_dead(&self, link: usize) {
        if link < self.links.n_links() {
            self.links.declare_dead(link);
        }
    }

    fn pushed(&self) -> u64 {
        self.pushed
    }

    /// The flusher's pending-free watermark passed the snapshot, and
    /// no flit of the flow sits stashed on the worker.
    fn flow_retired(&self, flow: usize, snapshot: u64) -> bool {
        let stash_clear = self.stash[self.links.route(flow)].is_none_or(|f| f.flow != flow);
        stash_clear && self.progress.retired() >= snapshot
    }
}

/// Runs one shard to completion: serves until `shutdown()` has been
/// called *and* the ring, the scheduler and the stage are fully
/// drained. Returns the shard's final flit clock.
///
/// `w` comes from the spawner: fresh (clock 0) for a first-generation
/// worker, its predecessor's for a successor (§13.6) — the clock
/// continues, it never rewinds.
pub(crate) fn run_shard(shared: Arc<Shared>, mut w: Bequest) -> Cycle {
    let result = panic::catch_unwind(AssertUnwindSafe(|| run_loop(&shared, &mut w)));
    let Err(payload) = result else {
        return w.now;
    };
    let now = w.now;
    match shared.fault.as_ref() {
        Some(fr) if fr.config.resurrection => fr.bequeath(w.cfg.shard, w),
        Some(_) => {
            // Salvage runs on this same thread, so the scheduler state
            // is still owned here. A panic *inside* salvage (double
            // fault) abandons conservation for this shard — documented
            // in DESIGN.md §9.2; the fence keeps the worker from
            // aborting the process under panic=unwind.
            let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                salvage_shard(&shared, w.cfg.shard, &mut w.scheduler);
            }));
        }
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
    let mut idle_spins: u32 = 0;
    // A successor (§13.6) replaces its predecessor's thread handle.
    shared.wakes[shard].register();
    // Exit-gate forensics, paired with the drain-side dump in
    // `Runtime::drain_within` (same `ERR_DRAIN_DEBUG` switch): a worker
    // that idles without exiting names the predicate holding it.
    let debug_exit = std::env::var_os("ERR_DRAIN_DEBUG").is_some();
    let mut debug_parks: u64 = 0;

    loop {
        // Fault phase (DESIGN.md §9): forced-shutdown abort, heartbeat,
        // salvage inbox, quarantine, injected events. On forced abort
        // whatever the stage holds is discarded, not counted lost: its
        // flits were already counted served, and they hold no credits
        // (flits are stashed exactly when the acquire failed).
        // ordering: Acquire pairs with the Release `abort` store in
        // `Runtime::drain_within` (forced-shutdown latch).
        if shared.abort.load(Ordering::Acquire) {
            abort_residuals(shared, shard, cfg.n_flows, scheduler);
            return;
        }
        fault_tick(shared, shard, scheduler, *now, stage.as_mut());

        stage.unstick(shared, scheduler);

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
        let pre_backlog = scheduler.backlog_flits() + ring.len() as u64;

        // Service phase: one flit per cycle of the shard's flit clock.
        let (n, tails) = stage.serve(shared, scheduler, *now, cfg.batch_flits);
        *now += n;
        if n > 0 {
            stats.served_flits.add(n);
            stats.served_packets.add(tails);
        }
        stats.backlog_flits.set(scheduler.backlog_flits());

        // Migration phase: advance whatever roles (thief/donor) this
        // shard plays across the per-thief slots, and evaluate the
        // stealing policy at poll boundaries (DESIGN.md §8, §13.4).
        // Ticked after intake so the ring's dequeue cursor only covers
        // packets already enqueued into the scheduler; the stage lends
        // the donor-side retire fence its pushed count, stash and
        // flusher cursor (§13.5).
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
            // Nothing moved. Exit only when the stage holds no flit,
            // shutdown has been requested, no producer is still inside
            // `submit` (see `Shared::can_finish` — a mid-submit
            // producer could still push), everything this shard owns
            // is drained, no migration in flight names this shard
            // (DESIGN.md §8.6 — a mid-handoff exit would strand the
            // victim's packets), *and* — under supervision — the
            // Exited transition wins the salvage lock with an empty
            // inbox (§9.2). The ring check must come after
            // `can_finish`: once that returns true no further push can
            // happen, so empty is stable.
            if !stage.holds_flits()
                && !migrating
                && shared.can_finish()
                && ring.is_empty()
                && scheduler.is_idle()
                && try_exit(shared, shard)
            {
                break;
            }
            idle_spins += 1;
            // A hot handoff must keep spinning past SPIN_BEFORE_PARK:
            // the peer worker is waiting on our next protocol step (a
            // parked donor mid-quiesce would stall the thief's fence),
            // and a timed park would add up to PARK_TIMEOUT to every
            // transition.
            if hot_handoff || idle_spins < SPIN_BEFORE_PARK {
                std::hint::spin_loop();
            } else {
                debug_parks += 1;
                if debug_exit && debug_parks.is_multiple_of(100_000) {
                    eprintln!(
                        "[exit-debug] shard {shard} holds_flits={} migrating={migrating} \
                         can_finish={} ring_empty={} sched_idle={}",
                        stage.holds_flits(),
                        shared.can_finish(),
                        ring.is_empty(),
                        scheduler.is_idle(),
                    );
                }
                // Work for a parked worker is an arrival (a producer
                // wakes) or a stage that can progress (a flusher
                // wakes).
                park_idle(shared, shard, || !ring.is_empty() || stage.can_progress());
            }
        } else {
            idle_spins = 0;
            stats.busy_loops.add(1);
        }
    }
    stats.backlog_flits.set(0);
}

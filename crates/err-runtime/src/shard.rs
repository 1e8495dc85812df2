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
//! Two egress couplings exist:
//!
//! * `run_shard` — **sync**: every served flit passes through the
//!   caller's sink inline, on the worker thread. Simple, but a slow
//!   sink stalls the shard's whole flit clock.
//! * `run_shard_buffered` — **buffered**: served flits are committed
//!   to a per-shard SPSC ring under per-link credit flow control
//!   (`err-egress`); a flusher thread delivers them. A credit-starved
//!   link *parks* its flows in the scheduler (when the discipline
//!   supports it), so the shard keeps serving everyone else — the
//!   decoupling the paper's stalled-downstream argument calls for.
//!
//! Both loops run inside a `catch_unwind` fence with the scheduler (and
//! under buffered egress, the `BufferedWorkerState`) owned *outside*
//! the closure (DESIGN.md §9.2): a panic unwinds out of the loop, the
//! fence catches it, and the epilogue picks one of three paths:
//!
//! * **resurrection** (supervision with
//!   [`SupervisionConfig::resurrection`](crate::SupervisionConfig), §13.6)
//!   — the intact scheduler, migration driver, and egress state are
//!   posted as a `Bequest`; the supervisor spawns a successor worker
//!   that adopts them, and the flow map never moves;
//! * **salvage** (supervision without resurrection) — the salvage path
//!   re-homes the dead shard's flows, on this same thread, with the
//!   scheduler state still owned here;
//! * **re-throw** (no supervision) — the join observes the panic and
//!   shutdown reports it as [`ShardExit::Panicked`](crate::ShardExit).
//!
//! When there is nothing to do the worker spins briefly, then sleeps on
//! its shard's [`WakeCell`](err_egress::WakeCell) (DESIGN.md §6): it
//! announces itself, re-checks its ingress ring (and, buffered, its
//! stashed links' credits), and parks. Its peers end the park at *their* batch
//! boundaries — a producer about to wait on this worker, a flusher
//! whose step returned credits — never per packet or per flit. The
//! park keeps its `PARK_TIMEOUT`, so a wake that never comes (a plain
//! push into an idle shard) costs what it always did: at most
//! `PARK_TIMEOUT` of added latency on an idle→busy transition.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use desim::Cycle;
use err_egress::{Egress, FlushProgress, LinkSet, Producer, ShardEgressStats, Sleep};
use err_sched::{Packet, Scheduler, ServedFlit};

use crate::fault::{abort_residuals, fault_tick, salvage_shard, try_exit, Bequest, BequestEgress};
use crate::ingress::Shared;
use crate::migrate::{BufferedStealCtx, MigrationDriver};
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
    /// Flow-id space, needed by the buffered worker to index each
    /// link's flows and by forced-abort residue accounting.
    pub(crate) n_flows: usize,
}

/// The buffered worker's link-local state, owned *outside* the panic
/// fence so it can travel in a [`Bequest`] (§13.6): the stash holds
/// served flits that already passed accounting, so dropping it on a
/// panic would un-conserve them; the `pushed` count is the numerator of
/// the §13.5 egress-retire fence and must survive the worker that
/// advanced it.
pub(crate) struct BufferedWorkerState {
    /// At most one served-but-uncommitted flit per link.
    pub(crate) stash: Vec<Option<ServedFlit>>,
    pub(crate) stash_count: usize,
    pub(crate) link_parked: Vec<bool>,
    /// Flows pre-parked on behalf of a pending salvage (§9.2); the
    /// unstick sweep must not release them before their package lands.
    pub(crate) salvage_parked: Vec<bool>,
    /// Cumulative flits this shard has committed to its egress ring —
    /// compared against the flusher's [`FlushProgress`] cursor by the
    /// donor-side retire fence (§13.5).
    pub(crate) pushed: u64,
}

impl BufferedWorkerState {
    pub(crate) fn new(n_links: usize, salvage_flows: usize) -> Self {
        Self {
            stash: vec![None; n_links],
            stash_count: 0,
            link_parked: vec![false; n_links],
            salvage_parked: vec![false; salvage_flows],
            pushed: 0,
        }
    }
}

/// Whether a caught panic should become a [`Bequest`] (§13.6) instead
/// of a salvage or a re-throw.
fn resurrection_on(shared: &Shared) -> bool {
    shared
        .fault
        .as_ref()
        .is_some_and(|fr| fr.config.resurrection)
}

/// The non-resurrection panic epilogue: salvage under supervision (on
/// this same thread, so the scheduler state is still owned here),
/// re-throw without it.
fn salvage_or_rethrow(
    shared: &Shared,
    cfg: &ShardConfig,
    scheduler: &mut Box<dyn Scheduler + Send>,
    payload: Box<dyn std::any::Any + Send>,
    now: Cycle,
) -> Cycle {
    if shared.fault.is_some() {
        // A panic *inside* salvage (double fault) abandons
        // conservation for this shard — documented in DESIGN.md
        // §9.2; the fence keeps the worker from aborting the
        // process under panic=unwind.
        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
            salvage_shard(shared, cfg.shard, scheduler);
        }));
        now
    } else {
        panic::resume_unwind(payload)
    }
}

/// Runs one shard to completion with **synchronous** egress: serves
/// until `shutdown()` has been called *and* the ring plus the scheduler
/// are fully drained. Returns the shard's final flit clock.
///
/// `driver` and `start` come from the spawner: fresh for a first-
/// generation worker, inherited from a [`Bequest`] for a successor
/// (§13.6) — the clock continues, it never rewinds.
pub(crate) fn run_shard<E: Egress + 'static>(
    shared: Arc<Shared>,
    cfg: ShardConfig,
    mut scheduler: Box<dyn Scheduler + Send>,
    mut egress: Option<E>,
    mut driver: Option<MigrationDriver>,
    start: Cycle,
) -> Cycle {
    let mut now: Cycle = start;
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        run_sync_loop(
            &shared,
            &cfg,
            &mut scheduler,
            &mut egress,
            &mut driver,
            &mut now,
        )
    }));
    match result {
        Ok(()) => now,
        Err(payload) => {
            if resurrection_on(&shared) {
                let fr = shared
                    .fault
                    .as_ref()
                    .expect("resurrection_on checked fault");
                fr.bequeath(
                    cfg.shard,
                    Bequest {
                        scheduler,
                        driver,
                        now,
                        egress: BequestEgress::Sync(Box::new(egress)),
                    },
                );
                now
            } else {
                salvage_or_rethrow(&shared, &cfg, &mut scheduler, payload, now)
            }
        }
    }
}

fn run_sync_loop<E: Egress>(
    shared: &Shared,
    cfg: &ShardConfig,
    scheduler: &mut Box<dyn Scheduler + Send>,
    egress: &mut Option<E>,
    driver: &mut Option<MigrationDriver>,
    now: &mut Cycle,
) {
    let ring = &shared.rings[cfg.shard];
    let stats = &shared.stats[cfg.shard];
    let mut arrivals: Vec<Packet> = Vec::with_capacity(cfg.batch_packets);
    let mut served: Vec<ServedFlit> = Vec::with_capacity(cfg.batch_flits);
    let mut idle_spins: u32 = 0;
    // A successor (§13.6) replaces its predecessor's thread handle.
    shared.wakes[cfg.shard].register();

    loop {
        // Fault phase (DESIGN.md §9): forced-shutdown abort, heartbeat,
        // salvage inbox, quarantine, injected events. KillLink events
        // are meaningless under sync egress (`None`).
        // ordering: Acquire pairs with the Release `abort` store in
        // `Runtime::drain_within` (forced-shutdown latch).
        if shared.abort.load(Ordering::Acquire) {
            abort_residuals(shared, cfg.shard, cfg.n_flows, scheduler);
            return;
        }
        fault_tick(shared, cfg.shard, scheduler, *now, None);

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
        served.clear();
        let n = scheduler.service_batch(*now, cfg.batch_flits, &mut served);
        *now += n as u64;
        if n > 0 {
            let mut tail_count = 0u64;
            for flit in &served {
                if flit.is_tail() {
                    tail_count += 1;
                    shared.admission.on_packet_served(flit.flow, flit.len);
                }
                if let Some(sink) = egress.as_mut() {
                    sink.emit(cfg.shard, flit);
                }
            }
            stats.served_flits.add(n as u64);
            stats.served_packets.add(tail_count);
        }
        stats.backlog_flits.set(scheduler.backlog_flits());

        // Migration phase: advance whatever roles (thief/donor) this
        // shard plays across the per-thief slots, and evaluate the
        // stealing policy at poll boundaries (DESIGN.md §8, §13.4).
        // Ticked after intake so the ring's dequeue cursor only covers
        // packets already enqueued into the scheduler.
        let mut hot_handoff = false;
        let mut migrating = false;
        if let Some(d) = driver.as_mut() {
            d.tick(
                shared,
                scheduler,
                pulled == 0 && n == 0,
                *now,
                pre_backlog,
                None,
            );
            if let Some(st) = shared.steal.as_ref() {
                migrating = st.involves(cfg.shard);
                // Requested can stay pending behind the donor's
                // serve-chunk guard (§8.5) — a thief spinning hot
                // through that would only steal CPU from the very
                // shard it is waiting on. Spin hot from Quiescing on,
                // where the peer needs our next protocol step fast.
                hot_handoff = st.hot_handoff(cfg.shard);
            }
        }

        if pulled == 0 && n == 0 {
            // Nothing moved. Exit only when shutdown has been requested,
            // no producer is still inside `submit` (see
            // `Shared::can_finish` — a mid-submit producer could still
            // push), everything this shard owns is drained, no migration
            // in flight names this shard (DESIGN.md §8.6 — a mid-handoff
            // exit would strand the victim's packets), *and* — under
            // supervision — the Exited transition wins the salvage lock
            // with an empty inbox (§9.2). The ring check must come after
            // `can_finish`: once that returns true no further push can
            // happen, so empty is stable.
            if !migrating
                && shared.can_finish()
                && ring.is_empty()
                && scheduler.is_idle()
                && try_exit(shared, cfg.shard)
            {
                break;
            }
            idle_spins += 1;
            if hot_handoff {
                // Stay hot: the peer worker is waiting on our next
                // protocol step; a timed park would add up to
                // PARK_TIMEOUT to every transition.
                std::hint::spin_loop();
            } else if idle_spins < SPIN_BEFORE_PARK {
                std::hint::spin_loop();
            } else {
                park_idle(shared, cfg.shard, || !ring.is_empty());
            }
        } else {
            idle_spins = 0;
            stats.busy_loops.add(1);
        }
    }
    stats.backlog_flits.set(0);
}

/// Commits `flit` to the output ring, waiting while it is full. Bounded
/// wait: the flusher always makes progress (a blocked link's flits move
/// to its bounded pending queue), so ring slots keep freeing up — once
/// it runs. It may be asleep over a ring that was empty when it last
/// looked, and on a shared core it cannot run while this thread spins,
/// so each retry wakes it and yields.
fn push_ring(tx: &mut Producer<ServedFlit>, estats: &ShardEgressStats, flit: ServedFlit) {
    let mut item = flit;
    let mut first = true;
    loop {
        match tx.push(item) {
            Ok(()) => break,
            Err(back) => {
                item = back;
                if first {
                    estats.ring_full_spins.fetch_add(1, Ordering::Relaxed);
                    first = false;
                }
                tx.wake_consumer();
                std::thread::yield_now();
            }
        }
    }
    estats.note_ring_occupancy(tx.occupancy() as u64);
}

/// Runs one shard to completion with **buffered** egress.
///
/// Flit-by-flit service with per-link credit flow control:
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
/// `state`, `driver`, and `start` come from the spawner: fresh for a
/// first-generation worker, inherited from a [`Bequest`] for a
/// successor (§13.6).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_shard_buffered(
    shared: Arc<Shared>,
    cfg: ShardConfig,
    mut scheduler: Box<dyn Scheduler + Send>,
    mut tx: Producer<ServedFlit>,
    links: Arc<LinkSet>,
    estats: Arc<ShardEgressStats>,
    progress: Arc<FlushProgress>,
    mut state: BufferedWorkerState,
    mut driver: Option<MigrationDriver>,
    start: Cycle,
) -> Cycle {
    let mut now: Cycle = start;
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        run_buffered_loop(
            &shared,
            &cfg,
            &mut scheduler,
            &mut tx,
            &links,
            &estats,
            &progress,
            &mut state,
            &mut driver,
            &mut now,
        )
    }));
    match result {
        Ok(()) => now,
        Err(payload) => {
            if resurrection_on(&shared) {
                let fr = shared
                    .fault
                    .as_ref()
                    .expect("resurrection_on checked fault");
                fr.bequeath(
                    cfg.shard,
                    Bequest {
                        scheduler,
                        driver,
                        now,
                        egress: BequestEgress::Buffered { tx, state },
                    },
                );
                now
            } else {
                salvage_or_rethrow(&shared, &cfg, &mut scheduler, payload, now)
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_buffered_loop(
    shared: &Shared,
    cfg: &ShardConfig,
    scheduler: &mut Box<dyn Scheduler + Send>,
    tx: &mut Producer<ServedFlit>,
    links: &Arc<LinkSet>,
    estats: &ShardEgressStats,
    progress: &FlushProgress,
    st: &mut BufferedWorkerState,
    driver: &mut Option<MigrationDriver>,
    now: &mut Cycle,
) {
    let ring = &shared.rings[cfg.shard];
    let stats = &shared.stats[cfg.shard];
    let n_links = links.n_links();
    let parking = scheduler.supports_parking();
    let mut arrivals: Vec<Packet> = Vec::with_capacity(cfg.batch_packets);
    let mut idle_spins: u32 = 0;
    // Link → flows, in flow order, from the routing fn (not a modulo
    // stride: a fabric route table (§11.1) maps arbitrary flow sets
    // onto a link). Built once, so parking or releasing a link costs
    // O(flows on it) rather than a sweep of the flow-id space.
    let mut link_flows: Vec<Vec<usize>> = vec![Vec::new(); n_links];
    for flow in 0..cfg.n_flows {
        link_flows[links.route(flow)].push(flow);
    }
    // A successor (§13.6) replaces its predecessor's thread handle.
    shared.wakes[cfg.shard].register();
    // Exit-gate forensics, paired with the drain-side dump in
    // `Runtime::drain_within` (same `ERR_DRAIN_DEBUG` switch): a worker
    // that idles without exiting names the predicate holding it.
    let debug_exit = std::env::var_os("ERR_DRAIN_DEBUG").is_some();
    let mut debug_parks: u64 = 0;

    loop {
        // Fault phase (DESIGN.md §9). On forced abort the stash is
        // discarded, not counted lost: its flits were already counted
        // served, and they hold no credits (flits are stashed exactly
        // when the acquire failed).
        // ordering: Acquire pairs with the Release `abort` store in
        // `Runtime::drain_within` (forced-shutdown latch).
        if shared.abort.load(Ordering::Acquire) {
            abort_residuals(shared, cfg.shard, cfg.n_flows, scheduler);
            return;
        }
        fault_tick(
            shared,
            cfg.shard,
            scheduler,
            *now,
            Some(crate::fault::BufferedFaultCtx {
                links,
                link_parked: &st.link_parked,
                salvage_parked: &mut st.salvage_parked,
            }),
        );

        let pushed_before = st.pushed;

        // Unstick phase: links whose credits returned get their stashed
        // flit committed and their flows unparked (except flows a
        // pending salvage pre-parked — their package has not landed).
        if st.stash_count > 0 {
            for (link, flows) in link_flows.iter().enumerate() {
                if st.stash[link].is_some() && links.try_acquire(link) {
                    let flit = st.stash[link].take().expect("stash checked non-empty");
                    st.stash_count -= 1;
                    push_ring(tx, estats, flit);
                    st.pushed += 1;
                    if st.link_parked[link] {
                        st.link_parked[link] = false;
                        // Flows a pending salvage pre-parked stay
                        // parked (their package has not landed), and so
                        // does a flow under an active ownership claim
                        // (§13.1): a quiesced steal victim unparked
                        // here would be served past the §13.5 retire
                        // fence. Its mover unparks it when the claim
                        // resolves — or, if the claim aborted while the
                        // link was stashed, the next sweep sees it
                        // `Settled` and releases it.
                        for &flow in flows {
                            if !st.salvage_parked.get(flow).copied().unwrap_or(false)
                                && shared.steal.as_ref().is_none_or(|sr| {
                                    sr.own.owner_state(flow) == OwnerState::Settled
                                })
                            {
                                // unpark: the sweep `unpark_respecting_links`
                                // defers to for credit-parked links —
                                // the authority itself — and the
                                // `salvage_parked` / `owner_state`
                                // guards above keep claimed flows
                                // parked (§13.5).
                                scheduler.unpark_flow(flow);
                            }
                        }
                    }
                }
            }
        }

        // Intake phase.
        arrivals.clear();
        let pulled = ring.pop_batch(&mut arrivals, cfg.batch_packets);
        for pkt in arrivals.drain(..) {
            scheduler.enqueue(pkt, *now);
        }
        // LoadBoard input (same sampling argument as the sync loop).
        let pre_backlog = scheduler.backlog_flits() + ring.len() as u64;

        // Service phase, flit by flit: the credit check must sit
        // between serving a flit and serving the next, or a stalled
        // link could strand a whole batch of already-served flits.
        let mut n = 0u64;
        let mut tail_count = 0u64;
        while (n as usize) < cfg.batch_flits {
            let Some(flit) = scheduler.service_flit(*now + n) else {
                break;
            };
            n += 1;
            if flit.is_tail() {
                tail_count += 1;
                shared.admission.on_packet_served(flit.flow, flit.len);
            }
            let link = links.route(flit.flow);
            if links.try_acquire(link) {
                push_ring(tx, estats, flit);
                st.pushed += 1;
            } else {
                estats.credit_exhaustions.fetch_add(1, Ordering::Relaxed);
                if parking {
                    debug_assert!(st.stash[link].is_none(), "second stash for link {link}");
                    st.stash[link] = Some(flit);
                    st.stash_count += 1;
                    st.link_parked[link] = true;
                    for &flow in &link_flows[link] {
                        // unpark: the `link_parked` unstick sweep at
                        // the top of the loop, when a credit frees the
                        // link's stash.
                        let _ = scheduler.park_flow(flow);
                    }
                } else {
                    // Blocking fallback: couples the shard's clock to
                    // the slow link until a credit frees. A forced
                    // abort releases the wait (the flit is discarded —
                    // it was served; delivery is what the abort cuts).
                    loop {
                        if links.try_acquire(link) {
                            push_ring(tx, estats, flit);
                            st.pushed += 1;
                            break;
                        }
                        // ordering: Acquire pairs with the Release
                        // `abort` store in `Runtime::drain_within` —
                        // the only exit from this credit-wait spin
                        // besides the credit itself.
                        if shared.abort.load(Ordering::Acquire) {
                            break;
                        }
                        // The credit comes from the flusher: make sure
                        // it is awake, and let it have the core.
                        tx.wake_consumer();
                        std::thread::yield_now();
                    }
                }
            }
        }
        *now += n;
        if n > 0 {
            stats.served_flits.add(n);
            stats.served_packets.add(tail_count);
        }
        stats.backlog_flits.set(scheduler.backlog_flits());
        // Worker → flusher wake: once per loop that committed flits,
        // after the last of them — never per push.
        if st.pushed != pushed_before {
            tx.wake_consumer();
        }

        // Migration phase (§13.5): same placement as the sync loop; the
        // context lends the donor-side retire fence this worker's
        // pushed count, stash, and its flusher's progress cursor.
        let mut hot_handoff = false;
        let mut migrating = false;
        if let Some(d) = driver.as_mut() {
            let ctx = BufferedStealCtx {
                links,
                link_parked: &st.link_parked,
                pushed: st.pushed,
                progress,
                stash: &st.stash,
            };
            d.tick(
                shared,
                scheduler,
                pulled == 0 && n == 0,
                *now,
                pre_backlog,
                Some(&ctx),
            );
            if let Some(sr) = shared.steal.as_ref() {
                migrating = sr.involves(cfg.shard);
                hot_handoff = sr.hot_handoff(cfg.shard);
            }
        }

        if pulled == 0 && n == 0 {
            // Same exit protocol as the sync worker, plus: no flit may
            // sit in a stash. Parked flows keep `is_idle()` false, so a
            // stalled link holds the worker here until drain mode
            // releases the credits (see `Runtime::drain` ordering).
            if st.stash_count == 0
                && !migrating
                && shared.can_finish()
                && ring.is_empty()
                && scheduler.is_idle()
                && try_exit(shared, cfg.shard)
            {
                break;
            }
            idle_spins += 1;
            // A hot handoff must keep spinning past SPIN_BEFORE_PARK: a
            // parked donor mid-quiesce would stall the thief's fence.
            if hot_handoff || idle_spins < SPIN_BEFORE_PARK {
                std::hint::spin_loop();
            } else {
                debug_parks += 1;
                if debug_exit && debug_parks.is_multiple_of(100_000) {
                    eprintln!(
                        "[exit-debug] shard {} stash_count={} migrating={} \
                         can_finish={} ring_empty={} sched_idle={}",
                        cfg.shard,
                        st.stash_count,
                        migrating,
                        shared.can_finish(),
                        ring.is_empty(),
                        scheduler.is_idle(),
                    );
                }
                // Work for a parked worker is an arrival (a producer
                // wakes) or a credit for a stashed link (a flusher
                // wakes).
                park_idle(shared, cfg.shard, || {
                    !ring.is_empty()
                        || (0..n_links).any(|l| st.stash[l].is_some() && links.has_credit(l))
                });
            }
        } else {
            idle_spins = 0;
            stats.busy_loops.add(1);
        }
    }
    stats.backlog_flits.set(0);
}

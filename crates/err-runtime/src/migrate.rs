//! Work stealing / flow movement between shards (DESIGN.md §8).
//!
//! The scheme in one paragraph: every shard publishes its projected
//! finish time and backlog on a lock-free [`LoadBoard`]. A near-idle
//! shard (the *thief*) requests a flow through its own
//! [`MigrationSlot`], naming the donor with the largest backlog; the
//! donor picks its heaviest backlogged flow that no slot names, writes
//! it into the slot and hands it over through the five-phase protocol
//! ([`MigrationPhase`], `Idle → Requested → Quiescing → Draining →
//! InTransit → Idle`) whose linearization point is the donor's
//! [`FlowMap::flip`]. The slot *is* the claim (§8.2): a flow named by a
//! slot is on the move and nothing else may pick it, and only a flow's
//! home shard can pick it — so there is one slot per thief, several
//! thieves can pull from one hot donor concurrently, and no two slots
//! ever name the same flow. Under buffered egress the donor
//! additionally waits out the egress-retire fence (§8.7) before the
//! flip: every flit it pushed for the victim must have been delivered
//! or dead-lettered by its flusher, or two flushers could interleave
//! the flow's packets on one link.
//!
//! The scheduler-side state package ([`MigratedFlow`]) and the
//! extract/absorb operations live in `err_sched::migrate`; the routing
//! map and submit windows in [`FlowMap`]. This module owns the
//! *orchestration*: when to steal, how to quiesce, and why no packet is
//! lost or reordered while a flow changes homes.
//!
//! Locking note: all slot *transitions* serialize through the slot's
//! package mutex (cold path — a handful per migration), so an abort
//! racing a grant can never clobber the other side's cell writes. Slot
//! *reads* (`phase`, `involves`, `moving`) stay lock-free atomics.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use desim::Cycle;
use err_sched::err::ErrScheduler;
use err_sched::migrate::MigratedFlow;

use crate::flow_map::FlowMap;
use crate::ingress::Shared;
use crate::shard::EgressStage;

/// Locks `m`, treating poisoning as benign: a slot's package is whole
/// or absent whatever critical section panicked, and a panicking
/// worker is §9's business, not an anomaly.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sentinel for "no shard / no flow" in the slot's atomic cells.
const NONE: usize = usize::MAX;
/// Sentinel for "unset" in the slot's u64 cells (drain/fence targets).
const UNSET: u64 = u64::MAX;
/// Donor ticks a buffered-egress fence may pend before the steal
/// aborts (§8.7). Generous: the fence only stalls behind a frozen or
/// dead link, and an abort is cheap (the map never flipped).
const FENCE_BUDGET: u64 = 1 << 16;

/// Policy knobs for work stealing (DESIGN.md §8.5). The defaults are
/// deliberately conservative: near-balanced shards must never trade
/// flows back and forth.
#[derive(Clone, Copy, Debug)]
pub struct StealingConfig {
    /// Worker loop iterations between steal evaluations while busy
    /// (idle workers evaluate every loop; the LoadBoard entry is
    /// refreshed every loop either way).
    pub poll_interval: u32,
    /// A shard requests a steal only when its own backlog (flits) is
    /// below a quarter of this; a donor must carry at least this much
    /// backlog to be asked, and withdraws a request once below it.
    pub steal_threshold: u64,
    /// Hysteresis in flits, twice over: the donor's projected finish
    /// must exceed the thief's by at least this, and a donor serves at
    /// least this many cycles between grants (the serve-chunk guard,
    /// §8.5).
    pub min_gap: u64,
    /// Worker loops during which a thief that just absorbed a flow
    /// requests nothing — its own board entry must refresh before it
    /// reasons from the board again.
    pub cooldown_polls: u32,
}

impl Default for StealingConfig {
    fn default() -> Self {
        Self {
            poll_interval: 16,
            steal_threshold: 512,
            min_gap: 1024,
            cooldown_polls: 8,
        }
    }
}

/// Lock-free per-shard load summary: projected finish time and backlog
/// flits, updated by each worker once per service loop (DESIGN.md §8.1).
pub struct LoadBoard {
    finish: Vec<AtomicU64>,
    backlog: Vec<AtomicU64>,
}

impl LoadBoard {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            finish: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            backlog: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Publishes `shard`'s current projected finish and backlog.
    pub(crate) fn update(&self, shard: usize, now: Cycle, backlog: u64) {
        // ordering: Relaxed — the board is a heuristic input to the
        // stealing policy; a stale read costs at most one deferred or
        // spurious steal attempt, never correctness (§8.1).
        self.finish[shard].store(now + backlog, Ordering::Relaxed);
        self.backlog[shard].store(backlog, Ordering::Relaxed);
    }

    /// Projected finish time (flit clock + backlog) of `shard`.
    pub fn load(&self, shard: usize) -> u64 {
        // ordering: Relaxed — heuristic read, see `update`.
        self.finish[shard].load(Ordering::Relaxed)
    }

    /// Last published backlog of `shard`.
    pub fn backlog(&self, shard: usize) -> u64 {
        // ordering: Relaxed — heuristic read, see `update`.
        self.backlog[shard].load(Ordering::Relaxed)
    }

    /// The shard with the largest backlog at least `min_backlog`,
    /// excluding `me`; `None` when nobody qualifies.
    pub(crate) fn richest_donor(&self, me: usize, min_backlog: u64) -> Option<usize> {
        let mut best: Option<(usize, u64)> = None;
        for s in 0..self.backlog.len() {
            if s == me {
                continue;
            }
            let b = self.backlog(s);
            if b >= min_backlog && best.map(|(_, bb)| b > bb).unwrap_or(true) {
                best = Some((s, b));
            }
        }
        best.map(|(s, _)| s)
    }
}

/// Phases of one migration handoff (DESIGN.md §8.2). The slot steps
/// `Idle → Requested → Quiescing → Draining → InTransit → Idle`; each
/// arrow is owned by exactly one side (thief or donor).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum MigrationPhase {
    /// No handoff in progress on this slot.
    Idle = 0,
    /// The slot's thief has named a donor and waits for a grant.
    Requested = 1,
    /// The donor picked a victim flow and named it in the slot; both
    /// sides park it.
    Quiescing = 2,
    /// The commit phase: the donor flips the map, waits out the submit
    /// window, and drains its ring past the flip point.
    Draining = 3,
    /// The extracted package is published; the thief absorbs it.
    InTransit = 4,
}

impl MigrationPhase {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => Self::Idle,
            1 => Self::Requested,
            2 => Self::Quiescing,
            3 => Self::Draining,
            4 => Self::InTransit,
            _ => unreachable!("invalid migration phase {v}"),
        }
    }
}

/// One thief's migration slot (§8.1): the rendezvous cell for a single
/// in-flight handoff, and the claim on the flow it names (§8.2). The
/// runtime holds one slot per shard, indexed by the thief, so distinct
/// thieves never contend for a slot.
pub struct MigrationSlot {
    phase: AtomicU8,
    thief: AtomicUsize,
    donor: AtomicUsize,
    flow: AtomicUsize,
    /// Thief→donor signal that the victim is parked at the new home.
    thief_ack: AtomicBool,
    /// Donor-side ring-drain cursor (enqueue position at flip time).
    drain_target: AtomicU64,
    /// Donor-side egress-retire fence snapshot (§8.7).
    fence_target: AtomicU64,
    /// Donor ticks spent waiting on the fence (abort budget).
    fence_ticks: AtomicU64,
    /// The extracted flow state, donor → thief; doubles as the slot's
    /// transition lock (see the module docs).
    package: Mutex<Option<MigratedFlow>>,
}

impl MigrationSlot {
    fn new() -> Self {
        Self {
            phase: AtomicU8::new(MigrationPhase::Idle as u8),
            thief: AtomicUsize::new(NONE),
            donor: AtomicUsize::new(NONE),
            flow: AtomicUsize::new(NONE),
            thief_ack: AtomicBool::new(false),
            drain_target: AtomicU64::new(UNSET),
            fence_target: AtomicU64::new(UNSET),
            fence_ticks: AtomicU64::new(0),
            package: Mutex::new(None),
        }
    }

    /// Current phase.
    pub fn phase(&self) -> MigrationPhase {
        // ordering: SeqCst — the phase byte sequences every cross-side
        // protocol step; both sides' reads must agree with the
        // transitions in one total order (§8.2).
        MigrationPhase::from_u8(self.phase.load(Ordering::SeqCst))
    }

    /// The requesting shard, or `None` outside a handoff.
    pub fn thief(&self) -> Option<usize> {
        // ordering: SeqCst — read against the phase protocol.
        match self.thief.load(Ordering::SeqCst) {
            NONE => None,
            s => Some(s),
        }
    }

    /// The donating shard, or `None` outside a handoff.
    pub fn donor(&self) -> Option<usize> {
        // ordering: SeqCst — read against the phase protocol.
        match self.donor.load(Ordering::SeqCst) {
            NONE => None,
            s => Some(s),
        }
    }

    /// The victim flow, from the grant until the slot resets.
    pub fn flow(&self) -> Option<usize> {
        // ordering: SeqCst — read against the phase protocol.
        match self.flow.load(Ordering::SeqCst) {
            NONE => None,
            f => Some(f),
        }
    }

    /// Whether `shard` is a party (thief or donor) to this handoff.
    pub(crate) fn involves(&self, shard: usize) -> bool {
        self.phase() != MigrationPhase::Idle
            && (self.thief() == Some(shard) || self.donor() == Some(shard))
    }

    /// Thief-side request: `Idle → Requested` naming a donor.
    pub(crate) fn request(&self, thief: usize, donor: usize) -> bool {
        let _guard = lock_unpoisoned(&self.package);
        if self.phase() != MigrationPhase::Idle {
            return false;
        }
        // ordering: SeqCst — the role cells must be visible before the
        // phase store publishes the request (phase is the guard word).
        self.thief.store(thief, Ordering::SeqCst);
        self.donor.store(donor, Ordering::SeqCst);
        self.thief_ack.store(false, Ordering::SeqCst);
        self.drain_target.store(UNSET, Ordering::SeqCst);
        // ordering: SeqCst — same publish-before-phase rule as above.
        self.fence_target.store(UNSET, Ordering::SeqCst);
        self.fence_ticks.store(0, Ordering::SeqCst);
        self.store_phase(MigrationPhase::Requested);
        true
    }

    fn store_phase(&self, to: MigrationPhase) {
        // ordering: SeqCst — every phase transition must land in the
        // single total order both sides' phase reads observe.
        self.phase.store(to as u8, Ordering::SeqCst);
    }

    /// Withdraws a pending request (`Requested → Idle`) unless the
    /// other side moved the slot on first; returns whether it did.
    fn withdraw(&self) -> bool {
        let _guard = lock_unpoisoned(&self.package);
        let pending = self.phase() == MigrationPhase::Requested;
        if pending {
            self.reset_locked();
        }
        pending
    }

    /// Resets the slot to `Idle`, releasing the flow it named (§8.2).
    fn reset(&self) {
        let _guard = lock_unpoisoned(&self.package);
        self.reset_locked();
    }

    /// [`reset`](Self::reset), for a caller holding the package mutex.
    fn reset_locked(&self) {
        // ordering: SeqCst — role cells cleared before the phase store
        // re-opens the slot.
        self.thief.store(NONE, Ordering::SeqCst);
        self.donor.store(NONE, Ordering::SeqCst);
        self.flow.store(NONE, Ordering::SeqCst);
        self.thief_ack.store(false, Ordering::SeqCst);
        self.store_phase(MigrationPhase::Idle);
    }
}

/// Work-stealing state hung off the runtime's `Shared` block.
pub(crate) struct StealRuntime {
    /// The routing map and its submit windows (§8.1, §8.3).
    pub(crate) map: FlowMap,
    pub(crate) board: LoadBoard,
    /// One slot per thief shard (§8.1).
    pub(crate) slots: Vec<MigrationSlot>,
    pub(crate) config: StealingConfig,
}

impl StealRuntime {
    pub(crate) fn new(n_flows: usize, shards: usize, config: StealingConfig) -> Self {
        Self {
            map: FlowMap::new(n_flows, shards),
            board: LoadBoard::new(shards),
            slots: (0..shards).map(|_| MigrationSlot::new()).collect(),
            config,
        }
    }

    /// Whether any in-flight handoff names `shard` (exit guard, §8.6).
    pub(crate) fn involves(&self, shard: usize) -> bool {
        self.slots.iter().any(|s| s.involves(shard))
    }

    /// Whether any handoff naming `shard` is past `Requested` — the
    /// hot-spin condition (a pending request can legitimately wait out
    /// the donor's serve-chunk guard; later phases cannot).
    pub(crate) fn hot_handoff(&self, shard: usize) -> bool {
        self.slots
            .iter()
            .any(|s| s.involves(shard) && s.phase() != MigrationPhase::Requested)
    }

    /// Whether some slot names `flow`: the flow is on the move, and the
    /// slot holds it until it resets (§8.2).
    pub(crate) fn moving(&self, flow: usize) -> bool {
        self.slots.iter().any(|s| s.flow() == Some(flow))
    }

    /// Donor @ Requested, under `slot`'s package mutex: picks the
    /// heaviest backlogged flow homed at `donor` that no slot names,
    /// parks it, names it in the slot and moves the slot to
    /// `Quiescing`. `None` — the slot left `Requested`, or no flow
    /// qualifies — changes nothing.
    fn grant(
        &self,
        slot: &MigrationSlot,
        donor: usize,
        scheduler: &mut ErrScheduler,
    ) -> Option<usize> {
        let _guard = lock_unpoisoned(&slot.package);
        if slot.phase() != MigrationPhase::Requested {
            return None;
        }
        let mut best: Option<(usize, u64)> = None;
        for flow in 0..self.map.n_flows() {
            if self.map.shard_of(flow) != Some(donor) {
                continue;
            }
            let b = scheduler.flow_backlog_flits(flow);
            if b > 0 && best.is_none_or(|(_, bb)| b > bb) && !self.moving(flow) {
                best = Some((flow, b));
            }
        }
        let (flow, _) = best?;
        // unpark: `thief_absorb` at the flow's new home; a fence abort
        // in `donor_fence` restores it here through
        // `unpark_respecting_links`.
        let _ = scheduler.park_flow(flow);
        // ordering: SeqCst — the victim must be visible before the
        // phase store publishes Quiescing to the thief.
        slot.flow.store(flow, Ordering::SeqCst);
        slot.store_phase(MigrationPhase::Quiescing);
        Some(flow)
    }
}

/// Per-worker migration driver: the worker-thread half of the stealing
/// protocol. Owns the thief-side policy state (poll pacing, cooldown)
/// and the donor-side pacing (serve-chunk guard); everything shared
/// lives in [`StealRuntime`]. Part of the §9.2 `WorkerState`, so a
/// worker that resumes after a panic continues its in-flight handoffs
/// instead of stranding them.
pub(crate) struct MigrationDriver {
    shard: usize,
    loops_since_poll: u32,
    cooldown: u32,
    last_handoff_clock: Cycle,
    /// Victim this thief parked locally for a pending handoff; unparked
    /// if the donor aborts the slot back to `Idle`.
    thief_parked: Option<usize>,
}

impl MigrationDriver {
    pub(crate) fn new(shard: usize) -> Self {
        Self {
            shard,
            loops_since_poll: 0,
            cooldown: 0,
            last_handoff_clock: 0,
            thief_parked: None,
        }
    }

    /// Advances this worker's role in every handoff that names it, and
    /// evaluates the stealing policy at poll boundaries (DESIGN.md §8).
    /// `egress` is the worker's stage (§8.7): the donor's retire fence
    /// reads its pushed count and asks it whether the victim's flits
    /// have retired; every unpark respects its per-link credit parking.
    pub(crate) fn tick(
        &mut self,
        shared: &Shared,
        scheduler: &mut ErrScheduler,
        idle: bool,
        now: Cycle,
        pre_backlog: u64,
        egress: &dyn EgressStage,
    ) {
        let Some(st) = shared.steal.as_ref() else {
            return;
        };
        st.board.update(self.shard, now, pre_backlog);

        // Thief side: advance our own slot.
        match st.slots[self.shard].phase() {
            MigrationPhase::Idle => {
                // A donor abort (fence timeout or withdrawal) reset
                // the slot; unpark the victim we parked for it.
                if let Some(flow) = self.thief_parked.take() {
                    unpark_respecting_links(scheduler, flow, egress);
                }
            }
            MigrationPhase::Requested => {
                // §8.6: no new handoffs once draining; withdraw.
                if shared.is_closed() && st.slots[self.shard].withdraw() {
                    shared.stats[self.shard].steal_aborts.add(1);
                }
            }
            MigrationPhase::Quiescing => self.thief_quiescing(st, scheduler),
            MigrationPhase::Draining => {}
            MigrationPhase::InTransit => self.thief_absorb(shared, st, scheduler, egress),
        }

        // Donor side: advance every slot that names us as donor. Each
        // slot runs its own phase machine on its own victim (§8.2).
        for slot in &st.slots {
            if slot.donor() != Some(self.shard) {
                continue;
            }
            match slot.phase() {
                MigrationPhase::Requested => {
                    self.donor_grant(shared, st, slot, scheduler, now, pre_backlog)
                }
                MigrationPhase::Quiescing => self.donor_fence(shared, slot, scheduler, egress),
                MigrationPhase::Draining => self.donor_drain(shared, st, slot, scheduler, now),
                _ => {}
            }
        }

        // Policy: should *we* go steal?
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return;
        }
        self.loops_since_poll += 1;
        if !idle && self.loops_since_poll < st.config.poll_interval {
            return;
        }
        self.loops_since_poll = 0;
        self.maybe_request(shared, st, now, pre_backlog);
    }

    /// Thief policy (DESIGN.md §8.5): request a steal when near-empty
    /// while some donor is rich enough that moving a flow helps.
    fn maybe_request(&mut self, shared: &Shared, st: &StealRuntime, now: Cycle, backlog: u64) {
        if shared.is_closed() || st.slots[self.shard].phase() != MigrationPhase::Idle {
            return;
        }
        // Near-empty check: we are about to go idle.
        if backlog >= st.config.steal_threshold / 4 {
            return;
        }
        let Some(donor) = st
            .board
            .richest_donor(self.shard, st.config.steal_threshold)
        else {
            return;
        };
        // Gap check: the imbalance must be worth a handoff.
        if st.board.load(donor).saturating_sub(now + backlog) < st.config.min_gap {
            return;
        }
        st.slots[self.shard].request(self.shard, donor);
    }

    /// Donor @ Requested: withdraw if no longer a worthwhile donor,
    /// else — paced by the serve-chunk guard (§8.5) — grant a victim.
    fn donor_grant(
        &mut self,
        shared: &Shared,
        st: &StealRuntime,
        slot: &MigrationSlot,
        scheduler: &mut ErrScheduler,
        now: Cycle,
        backlog: u64,
    ) {
        // Withdraw when we have stopped being a worthwhile donor: the
        // thief would otherwise camp on this slot forever.
        if shared.is_closed() || backlog < st.config.steal_threshold {
            if slot.withdraw() {
                shared.stats[self.shard].steal_aborts.add(1);
            }
            return;
        }
        // Serve-chunk guard: grant at most one handoff per `min_gap`
        // flits of local service (§8.5) — with per-thief slots this
        // paces *grants*; granted handoffs overlap freely. No eligible
        // flow: retry next tick.
        if now.wrapping_sub(self.last_handoff_clock) >= st.config.min_gap
            && st.grant(slot, self.shard, scheduler).is_some()
        {
            self.last_handoff_clock = now;
        }
    }

    /// Thief @ Quiescing: park the victim at the new home and ack, so
    /// no arrival at the new home can be served before the package
    /// lands.
    fn thief_quiescing(&mut self, st: &StealRuntime, scheduler: &mut ErrScheduler) {
        let slot = &st.slots[self.shard];
        if slot.thief() != Some(self.shard) {
            return;
        }
        // ordering: SeqCst — the ack is the donor's go signal, read
        // against the phase protocol.
        if slot.thief_ack.load(Ordering::SeqCst) {
            return;
        }
        let Some(flow) = slot.flow() else { return };
        // unpark: `unpark_respecting_links` in `thief_absorb` once the
        // package lands, or in `tick`'s Idle arm (the `thief_parked`
        // take) when a donor abort resets the slot first.
        let _ = scheduler.park_flow(flow);
        self.thief_parked = Some(flow);
        // ordering: SeqCst — the ack store, same total order as the
        // load above and the donor's fence read.
        slot.thief_ack.store(true, Ordering::SeqCst);
    }

    /// Donor @ Quiescing: wait for the thief's ack and — under buffered
    /// egress — the egress-retire fence (§8.7), then commit the phase:
    /// `Quiescing → Draining`. The flip itself happens at the top of
    /// the Draining handler (phase first, flip second, §8.2), so a
    /// donor resurrected mid-commit replays the flip.
    fn donor_fence(
        &mut self,
        shared: &Shared,
        slot: &MigrationSlot,
        scheduler: &mut ErrScheduler,
        egress: &dyn EgressStage,
    ) {
        // ordering: SeqCst — pairs with the thief's ack store.
        if !slot.thief_ack.load(Ordering::SeqCst) {
            return;
        }
        let Some(flow) = slot.flow() else { return };
        // Egress-retire fence: snapshot our pushed count on first
        // entry, then wait until the flusher's pending-free watermark
        // passes it. A stage that buffers nothing is always retired.
        // ordering: SeqCst — donor-written cells, kept in the phase
        // protocol's order for the §9.2 resurrection handover.
        let snap = match slot.fence_target.load(Ordering::SeqCst) {
            UNSET => {
                let pushed = egress.pushed();
                slot.fence_target.store(pushed, Ordering::SeqCst);
                pushed
            }
            s => s,
        };
        if !egress.flow_retired(flow, snap) {
            // ordering: SeqCst — donor-only tick counter.
            let ticks = slot.fence_ticks.fetch_add(1, Ordering::SeqCst) + 1;
            if ticks >= FENCE_BUDGET {
                // Abort: the link is wedged. The map never flipped,
                // so unwinding is local. Reset before the unpark, so a
                // victim left parked on a credit-parked link is no
                // longer `moving` when the link's release reaches it
                // (§8.7).
                slot.reset();
                unpark_respecting_links(scheduler, flow, egress);
                shared.stats[self.shard].steal_aborts.add(1);
            }
            return;
        }
        let _guard = lock_unpoisoned(&slot.package);
        if slot.phase() == MigrationPhase::Quiescing {
            slot.store_phase(MigrationPhase::Draining);
        }
    }

    /// Donor @ Draining: flip the map if not yet flipped (the handoff's
    /// linearization point, §8.2), wait out the victim's submit window,
    /// drain our ring past the flip point, then extract and publish the
    /// package.
    fn donor_drain(
        &mut self,
        shared: &Shared,
        st: &StealRuntime,
        slot: &MigrationSlot,
        scheduler: &mut ErrScheduler,
        now: Cycle,
    ) {
        let (Some(flow), Some(thief)) = (slot.flow(), slot.thief()) else {
            return;
        };
        if st.map.shard_of(flow) == Some(self.shard) {
            // Flip not yet landed: first pass, or a resurrected donor
            // replaying a death between the phase commit and the flip.
            // Only this slot's donor flips its flow (§8.2).
            st.map.flip(flow, thief);
        }
        // Submit-window wait (§8.3): any producer that read the map
        // before the flip is still inside its window; once clear, every
        // old-home push is in our ring.
        if !st.map.window_clear(flow) {
            return;
        }
        let ring = &shared.rings[self.shard];
        // ordering: SeqCst — donor-written cursor cell, kept in the
        // phase protocol's order for the §9.2 resurrection handover.
        let target = match slot.drain_target.load(Ordering::SeqCst) {
            UNSET => {
                let t = ring.enqueue_pos() as u64;
                slot.drain_target.store(t, Ordering::SeqCst);
                t
            }
            t => t,
        };
        // Wait until the intake loop has consumed past the flip point;
        // the worker's intake phase runs before this tick, so progress
        // is guaranteed while the ring holds pre-flip packets.
        if (ring.dequeue_pos().wrapping_sub(target as usize) as isize) < 0 {
            return;
        }
        let stats = &shared.stats[self.shard];
        let pkg = scheduler
            .extract_flow(flow)
            .unwrap_or_else(|| MigratedFlow {
                packets: VecDeque::new(),
                surplus: 0,
                resume: None,
            });
        stats.donated_out.add(1);
        stats.migrated_flits.add(pkg.flits());
        let mut guard = lock_unpoisoned(&slot.package);
        *guard = Some(pkg);
        self.last_handoff_clock = now;
        slot.store_phase(MigrationPhase::InTransit);
    }

    /// Thief @ InTransit: absorb the package and reset the slot — the
    /// steal's last act, which releases the flow (§8.2).
    fn thief_absorb(
        &mut self,
        shared: &Shared,
        st: &StealRuntime,
        scheduler: &mut ErrScheduler,
        egress: &dyn EgressStage,
    ) {
        let slot = &st.slots[self.shard];
        if slot.thief() != Some(self.shard) {
            return;
        }
        let Some(flow) = slot.flow() else { return };
        let Some(pkg) = lock_unpoisoned(&slot.package).take() else {
            return;
        };
        // unpark: `unpark_respecting_links` four lines down, after the
        // absorb — same tick, same thread.
        let _ = scheduler.park_flow(flow); // idempotent; parked at ack
        let absorbed = scheduler.absorb_flow(flow, pkg);
        debug_assert!(absorbed, "thief failed to absorb flow {flow}");
        self.thief_parked = None;
        unpark_respecting_links(scheduler, flow, egress);
        shared.stats[self.shard].stolen_in.add(1);
        self.cooldown = st.config.cooldown_polls;
        slot.reset();
    }
}

/// Unparks `flow` unless its egress link is credit-parked (§8.7): the
/// link's release will unpark it with the rest, so that no flit is
/// served on a zero grant. The one unpark authority of the mover —
/// steal unwinds and absorbs both end here.
pub(crate) fn unpark_respecting_links(
    scheduler: &mut ErrScheduler,
    flow: usize,
    egress: &dyn EgressStage,
) {
    if !egress.link_parked(flow) {
        // unpark: this *is* the authority — `unpark_respecting_links`
        // is the one place a mover may wake a flow, because only here
        // is the credit-park check guaranteed (§8.7).
        scheduler.unpark_flow(flow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use err_sched::Scheduler;

    #[test]
    fn load_board_orders_projected_finishes() {
        let b = LoadBoard::new(3);
        b.update(0, 100, 50);
        b.update(1, 100, 500);
        b.update(2, 100, 5);
        assert_eq!(b.load(1), 600);
        assert_eq!(b.backlog(2), 5);
        assert_eq!(b.richest_donor(0, 100), Some(1));
        assert_eq!(b.richest_donor(1, 1000), None, "threshold respected");
    }

    #[test]
    fn slot_request_is_exclusive_until_reset() {
        let slot = MigrationSlot::new();
        assert!(slot.request(2, 0));
        assert_eq!(slot.phase(), MigrationPhase::Requested);
        assert_eq!(slot.thief(), Some(2));
        assert_eq!(slot.donor(), Some(0));
        assert!(!slot.request(1, 0), "slot held");
        assert!(slot.involves(2));
        assert!(slot.involves(0));
        assert!(!slot.involves(1));
        slot.reset();
        assert_eq!(slot.phase(), MigrationPhase::Idle);
        assert!(!slot.involves(2));
        assert!(slot.request(1, 0), "reset reopens the slot");
    }

    #[test]
    fn per_thief_slots_are_independent() {
        let st = StealRuntime::new(8, 4, StealingConfig::default());
        assert_eq!(st.slots.len(), 4, "one slot per thief");
        assert!(st.slots[1].request(1, 0));
        assert!(st.slots[2].request(2, 0), "second thief, same donor");
        assert!(st.involves(0));
        assert!(st.involves(1));
        assert!(st.involves(2));
        assert!(!st.involves(3));
        assert!(!st.hot_handoff(1), "Requested is not a hot phase");
    }

    /// The slot is the claim (§8.2): three thieves ask one donor whose
    /// only backlogged flow is F; one grant pass names F in exactly one
    /// slot, and F is eligible again once that slot resets.
    #[test]
    fn one_flow_is_granted_to_one_slot() {
        const SHARDS: usize = 4;
        let st = StealRuntime::new(16, SHARDS, StealingConfig::default());
        let flow = 0;
        let donor = st.map.shard_of(flow).unwrap();
        let mut scheduler = ErrScheduler::new(16);
        scheduler.enqueue(err_sched::Packet::new(0, flow, 8, 0), 0);
        let thieves: Vec<usize> = (0..SHARDS).filter(|&s| s != donor).collect();
        for &t in &thieves {
            assert!(st.slots[t].request(t, donor));
        }
        let granted: Vec<usize> = thieves
            .iter()
            .filter(|&&t| st.grant(&st.slots[t], donor, &mut scheduler) == Some(flow))
            .copied()
            .collect();
        assert_eq!(granted.len(), 1, "flow {flow} granted to {granted:?}");
        let winner = granted[0];
        for &t in &thieves {
            let (phase, named) = (st.slots[t].phase(), st.slots[t].flow());
            if t == winner {
                assert_eq!((phase, named), (MigrationPhase::Quiescing, Some(flow)));
            } else {
                assert_eq!((phase, named), (MigrationPhase::Requested, None));
            }
        }
        assert!(st.moving(flow));
        st.slots[winner].reset();
        assert!(!st.moving(flow), "a reset slot names nothing");
        let next = thieves.iter().find(|&&t| t != winner).copied().unwrap();
        assert_eq!(st.grant(&st.slots[next], donor, &mut scheduler), Some(flow));
    }

    #[test]
    fn phase_roundtrip() {
        for p in [
            MigrationPhase::Idle,
            MigrationPhase::Requested,
            MigrationPhase::Quiescing,
            MigrationPhase::Draining,
            MigrationPhase::InTransit,
        ] {
            assert_eq!(MigrationPhase::from_u8(p as u8), p);
        }
    }
}

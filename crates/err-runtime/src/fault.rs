//! Worker resumption in place and the deterministic chaos harness
//! (DESIGN.md §9).
//!
//! The fault model is *fail-stop with an honest ledger*, and death
//! never moves a flow: a shard worker that panics is caught by its own
//! fence, calls `FaultRuntime::resume`, and re-enters its loop on the
//! same thread with its whole `WorkerState` — scheduler, flit clock,
//! egress stage (§9.2: *catch → resume*).
//! The ingress ring stays where it is and the resumed loop goes on
//! draining it, so nothing is re-homed and nothing is lost; only a
//! forced abort (§9.4) counts residue `lost`, with its admission charge
//! revoked, never silently leaked. The [`FaultBoard`] records
//! heartbeats, health transitions, and death/recovery timestamps; a
//! seeded [`FaultPlan`] replays shard panics and link deaths on the
//! shard flit clocks, which is what makes the chaos bench an experiment
//! rather than an anecdote (§9.5).

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::Instant;

use desim::{Cycle, SimRng};
use err_sched::err::ErrScheduler;

use crate::admission::AdmissionController;
use crate::ingress::Shared;
use crate::shard::{EgressStage, ShardConfig};
use crate::stats::{PaddedCounter, ShardStats};

/// Lifecycle state of one shard worker (DESIGN.md §9.1). Only the
/// shard's own worker writes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ShardHealth {
    /// Serving normally.
    Running = 0,
    /// The worker panicked (organically or by injection) and is
    /// resuming: its fence caught the unwind, and its loop has not yet
    /// been re-entered on the same thread.
    Dead = 1,
    /// The worker drained cleanly and returned.
    Exited = 2,
}

impl ShardHealth {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => Self::Running,
            1 => Self::Dead,
            2 => Self::Exited,
            _ => unreachable!("invalid shard health {v}"),
        }
    }
}

/// Sentinel for "never stamped" in the timestamp cells.
const NEVER: u64 = u64::MAX;

struct BoardCell {
    heartbeat: PaddedCounter,
    health: AtomicU8,
    death_at: AtomicU64,
    recovered_at: AtomicU64,
    /// The last down epoch this shard's worker swept (§14.1); 0: none.
    swept: AtomicU64,
}

impl Default for BoardCell {
    fn default() -> Self {
        Self {
            heartbeat: PaddedCounter::default(),
            health: AtomicU8::new(ShardHealth::Running as u8),
            death_at: AtomicU64::new(NEVER),
            recovered_at: AtomicU64::new(NEVER),
            swept: AtomicU64::new(0),
        }
    }
}

/// Per-shard health, heartbeat, and death/recovery timestamps —
/// relaxed atomics, one cache-padded entry per shard
/// (DESIGN.md §9.1). The timestamps are microseconds since runtime
/// start and are the raw material of the chaos bench's recovery-time
/// distribution.
pub struct FaultBoard {
    cells: Vec<BoardCell>,
    start: Instant,
}

impl FaultBoard {
    pub(crate) fn new(shards: usize) -> Self {
        Self {
            cells: (0..shards).map(|_| BoardCell::default()).collect(),
            start: Instant::now(),
        }
    }

    /// Number of shards on the board.
    pub fn shards(&self) -> usize {
        self.cells.len()
    }

    /// Bumped by `shard`'s worker once per service loop, idle loops
    /// included: a plain counter nobody acts on, which a reader can
    /// watch for a shard that stopped looping.
    pub(crate) fn beat(&self, shard: usize) {
        self.cells[shard].heartbeat.add(1);
    }

    /// Current heartbeat count of `shard`.
    pub fn heartbeat(&self, shard: usize) -> u64 {
        self.cells[shard].heartbeat.get()
    }

    /// Current health of `shard`.
    pub fn health(&self, shard: usize) -> ShardHealth {
        // ordering: Acquire — a reader that sees `Running` after a
        // death, or `Exited`, also sees the stamps the worker stored
        // before it. [pair: board-health @ self]
        ShardHealth::from_u8(self.cells[shard].health.load(Ordering::Acquire))
    }

    pub(crate) fn set_health(&self, shard: usize, health: ShardHealth) {
        // ordering: Release — the byte has one writer, its own worker;
        // this publishes the stamps stored before the transition.
        // [pair: board-health @ self]
        self.cells[shard]
            .health
            .store(health as u8, Ordering::Release);
    }

    fn now_micros(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    pub(crate) fn stamp_death(&self, shard: usize) {
        // ordering: Relaxed — published by the `Dead` store and the
        // recovery stamp that follow it; the drain reads it after its
        // join. [pair: board-recovery @ self]
        self.cells[shard]
            .death_at
            .store(self.now_micros(), Ordering::Relaxed);
    }

    pub(crate) fn stamp_recovery(&self, shard: usize) {
        // ordering: Release — a poller that sees the recovery stamp
        // (the chaos bench waits for it) sees the death stamp too.
        // [pair: board-recovery @ self]
        self.cells[shard]
            .recovered_at
            .store(self.now_micros(), Ordering::Release);
    }

    /// Publishes that `shard`'s worker has swept what it held in down
    /// `epoch` (§14.1).
    pub(crate) fn mark_swept(&self, shard: usize, epoch: u64) {
        // ordering: Release — a reader that sees the epoch sees the
        // worker's lost and departure counts from before the sweep.
        // [pair: board-sweep @ self]
        self.cells[shard].swept.store(epoch, Ordering::Release);
    }

    /// The last down epoch `shard`'s worker swept.
    pub(crate) fn swept(&self, shard: usize) -> u64 {
        // ordering: Acquire pairs with the Release in `mark_swept`.
        // [pair: board-sweep @ self]
        self.cells[shard].swept.load(Ordering::Acquire)
    }

    /// Microseconds (since runtime start) at which `shard` last died,
    /// if it did.
    pub fn death_micros(&self, shard: usize) -> Option<u64> {
        // ordering: Relaxed — read after an `Acquire` of the recovery
        // stamp, or after the join. [pair: board-recovery @ self]
        match self.cells[shard].death_at.load(Ordering::Relaxed) {
            NEVER => None,
            t => Some(t),
        }
    }

    /// Microseconds (since runtime start) at which `shard`'s worker
    /// last resumed after a death, if it did.
    pub fn recovery_micros(&self, shard: usize) -> Option<u64> {
        // ordering: Acquire — a `Some` here makes the death stamp
        // stored before it visible. [pair: board-recovery @ self]
        match self.cells[shard].recovered_at.load(Ordering::Acquire) {
            NEVER => None,
            t => Some(t),
        }
    }
}

/// One injected fault (DESIGN.md §9.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic the shard worker (unwinds into its fence, §9.2).
    PanicShard,
    /// Declare the given egress link dead (buffered mode only; ignored
    /// under sync egress, which has no links).
    KillLink(usize),
}

/// A planned fault: `kind` fires on `shard`'s flit clock at the first
/// intake boundary at or after cycle `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Shard whose worker observes the event.
    pub shard: usize,
    /// Shard-local flit-clock cycle at which the event is due.
    pub at: Cycle,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, replayable chaos schedule — the fault-injection
/// analogue of [`StallPlan`](err_egress::StallPlan): explicit
/// constructors or a seeded [`from_rng`](Self::from_rng), compiled by
/// `FaultInjector` into per-shard sorted event lists consumed by
/// cursor. Events fire on each shard's own flit clock, so a plan
/// replays identically for a given seed and workload (DESIGN.md §9.5).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan; chain the `*_at` builders onto it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Panics `shard`'s worker at cycle `at`.
    pub fn kill_shard_at(mut self, shard: usize, at: Cycle) -> Self {
        self.events.push(FaultEvent {
            shard,
            at,
            kind: FaultKind::PanicShard,
        });
        self
    }

    /// Declares egress `link` dead when `shard`'s clock reaches `at`.
    pub fn kill_link_at(mut self, shard: usize, link: usize, at: Cycle) -> Self {
        self.events.push(FaultEvent {
            shard,
            at,
            kind: FaultKind::KillLink(link),
        });
        self
    }

    /// Seeded random plan: each shard independently draws at most one
    /// fault, at a geometric time with per-cycle rate `fault_rate`,
    /// kept only if it lands inside `horizon` cycles: a shard panic,
    /// or with even odds a link death when there are links. Derivation uses
    /// a per-shard stream of the workspace [`SimRng`], so adding
    /// shards never perturbs the other shards' draws.
    pub fn from_rng(
        rng: &SimRng,
        shards: usize,
        n_links: usize,
        fault_rate: f64,
        horizon: Cycle,
    ) -> Self {
        let mut events = Vec::new();
        for shard in 0..shards {
            let mut r = rng.derive(0xFA17_0000 + shard as u64);
            let at = r.geometric_gap(fault_rate);
            if at > horizon {
                continue;
            }
            let kind = match r.uniform_u32(0, 1) {
                1 if n_links > 0 => {
                    FaultKind::KillLink(r.uniform_u32(0, n_links as u32 - 1) as usize)
                }
                _ => FaultKind::PanicShard,
            };
            events.push(FaultEvent { shard, at, kind });
        }
        Self { events }
    }

    /// The planned events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Compiled [`FaultPlan`]: per-shard event lists sorted by due cycle,
/// consumed by a per-shard cursor. Each cursor has a single consumer
/// (the shard's own worker), mirroring
/// [`StallInjector`](err_egress::StallInjector).
pub(crate) struct FaultInjector {
    events: Vec<Vec<FaultEvent>>,
    cursors: Vec<AtomicUsize>,
}

impl FaultInjector {
    /// Compiles `plan` for a runtime with `shards` shards; events
    /// naming an out-of-range shard are dropped.
    pub fn new(plan: &FaultPlan, shards: usize) -> Self {
        let mut events: Vec<Vec<FaultEvent>> = vec![Vec::new(); shards];
        for ev in plan.events() {
            if ev.shard < shards {
                events[ev.shard].push(*ev);
            }
        }
        for list in &mut events {
            list.sort_by_key(|e| e.at);
        }
        Self {
            cursors: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            events,
        }
    }

    /// The next event due on `shard` at flit-clock `now`, consuming it.
    pub fn next_due(&self, shard: usize, now: Cycle) -> Option<FaultKind> {
        let cur = self.cursors[shard].load(Ordering::Relaxed);
        let ev = self.events[shard].get(cur)?;
        if ev.at <= now {
            self.cursors[shard].store(cur + 1, Ordering::Relaxed);
            Some(ev.kind)
        } else {
            None
        }
    }
}

/// Everything a worker thread owns (§9.2): a worker starts from one
/// with a fresh scheduler and clock 0 and re-enters its loop with the
/// same one after a panic. It lives outside the
/// loop's panic fence, so it survives the unwind whole; injected
/// panics fire only at an intake boundary and a sink's unwind leaves
/// its interrupted batch in the stage, so the state is consistent by
/// construction. The ingress ring is *not* here: it lives in `Shared`
/// and the resumed loop simply goes on draining it.
pub(crate) struct WorkerState {
    pub(crate) cfg: ShardConfig,
    pub(crate) scheduler: ErrScheduler,
    /// The shard flit clock; a resumed loop continues it.
    pub(crate) now: Cycle,
    /// The output side, whole: the sync stage's sink and interrupted
    /// batch, or the buffered stage's ring producer, parking marks,
    /// flusher core and sink.
    pub(crate) stage: Box<dyn EgressStage>,
}

/// Fault-tolerance state every runtime's `Shared` block carries: the
/// board, and the compiled plan when `RuntimeConfig::fault_plan` is set.
pub(crate) struct FaultRuntime {
    pub(crate) board: FaultBoard,
    pub(crate) injector: Option<FaultInjector>,
}

impl FaultRuntime {
    pub(crate) fn new(shards: usize, injector: Option<FaultInjector>) -> Self {
        Self {
            board: FaultBoard::new(shards),
            injector,
        }
    }

    /// A caught worker's one call before it re-enters its loop on the
    /// same thread (§9.2): stamp the death, pass through `Dead`, stamp
    /// the recovery, store `Running`.
    pub(crate) fn resume(&self, shard: usize) {
        self.board.stamp_death(shard);
        self.board.set_health(shard, ShardHealth::Dead);
        self.board.stamp_recovery(shard);
        self.board.set_health(shard, ShardHealth::Running);
    }
}

/// Per-loop fault hook, called by the worker loop at the intake
/// boundary: beat the heartbeat and fire due injected events. `stage`
/// takes the `KillLink` events; a stage without links ignores them.
pub(crate) fn fault_tick(shared: &Shared, shard: usize, now: Cycle, stage: &dyn EgressStage) {
    let fr = &shared.fault;
    fr.board.beat(shard);
    if let Some(inj) = fr.injector.as_ref() {
        while let Some(kind) = inj.next_due(shard, now) {
            match kind {
                FaultKind::PanicShard => {
                    panic!("shard {shard}: injected panic at cycle {now} (FaultPlan)")
                }
                FaultKind::KillLink(link) => stage.declare_link_dead(link),
            }
        }
    }
}

/// Counts one packet as lost and releases its admission charge.
fn lose_packet(stats: &ShardStats, admission: &AdmissionController, flow: usize, len: u32) {
    stats.lost_packets.add(1);
    stats.lost_flits.add(len as u64);
    admission.revoke(flow, len);
}

/// Forced-shutdown residue accounting (DESIGN.md §9.4): when the abort
/// flag fires, a worker stops serving and counts its residual state —
/// ring contents and each flow's extracted residue — as lost, with admission
/// charges revoked. Exact: every flow's residue is extracted and
/// counted packet by packet.
pub(crate) fn abort_residuals(
    shared: &Shared,
    shard: usize,
    n_flows: usize,
    scheduler: &mut ErrScheduler,
) {
    let stats = &shared.stats[shard];
    while let Some(pkt) = shared.rings[shard].pop() {
        lose_packet(stats, &shared.admission, pkt.flow, pkt.len);
    }
    for flow in 0..n_flows {
        // unpark: never — `abort_residuals` is the forced-abort
        // accounting sweep; the scheduler serves nothing after it
        // and is dropped with the aborted runtime.
        let _ = scheduler.park_flow(flow);
        if let Some(residue) = scheduler.extract_flow(flow) {
            if let Some((packet, next_flit)) = residue.interrupted {
                stats.lost_packets.add(1);
                stats.lost_flits.add((packet.len - next_flit) as u64);
                shared.admission.revoke(flow, packet.len);
            }
            for p in &residue.packets {
                lose_packet(stats, &shared.admission, flow, p.len);
            }
        }
    }
    stats.backlog_flits.set(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_transitions_and_stamps() {
        let b = FaultBoard::new(2);
        assert_eq!(b.shards(), 2);
        assert_eq!(b.health(0), ShardHealth::Running);
        assert_eq!(b.death_micros(0), None);
        b.stamp_death(0);
        b.set_health(0, ShardHealth::Dead);
        assert_eq!(b.health(0), ShardHealth::Dead);
        b.stamp_recovery(0);
        b.set_health(0, ShardHealth::Running);
        let (d, r) = (b.death_micros(0).unwrap(), b.recovery_micros(0).unwrap());
        assert!(r >= d, "recovery postdates death");
        assert_eq!(b.recovery_micros(1), None);
        b.beat(1);
        b.beat(1);
        assert_eq!(b.heartbeat(1), 2);
        assert_eq!(b.heartbeat(0), 0);
    }

    #[test]
    fn plan_builders_compile_sorted_per_shard() {
        let plan = FaultPlan::new()
            .kill_shard_at(1, 500)
            .kill_shard_at(0, 100)
            .kill_link_at(1, 3, 200)
            .kill_shard_at(7, 10); // out of range, dropped by compile
        assert_eq!(plan.events().len(), 4);
        let inj = FaultInjector::new(&plan, 2);
        assert_eq!(inj.next_due(0, 99), None, "not due yet");
        assert_eq!(inj.next_due(0, 100), Some(FaultKind::PanicShard));
        assert_eq!(inj.next_due(0, 100_000), None, "consumed");
        // Shard 1's two events fire in `at` order regardless of
        // insertion order, both due at once.
        assert_eq!(inj.next_due(1, 1_000), Some(FaultKind::KillLink(3)));
        assert_eq!(inj.next_due(1, 1_000), Some(FaultKind::PanicShard));
        assert!((0..2).all(|s| inj.next_due(s, u64::MAX).is_none()));
    }

    #[test]
    fn from_rng_is_deterministic_and_bounded() {
        let rng = SimRng::new(42);
        let a = FaultPlan::from_rng(&rng, 8, 4, 0.001, 10_000);
        let b = FaultPlan::from_rng(&rng, 8, 4, 0.001, 10_000);
        assert_eq!(a.events(), b.events(), "same seed, same plan");
        for ev in a.events() {
            assert!(ev.shard < 8);
            assert!(ev.at <= 10_000, "events land inside the horizon");
            if let FaultKind::KillLink(l) = ev.kind {
                assert!(l < 4);
            }
        }
        // A wider horizon with certain rate faults every shard.
        let all = FaultPlan::from_rng(&rng, 4, 2, 1.0, 10);
        assert_eq!(all.events().len(), 4);
        // Different seeds diverge (overwhelmingly likely with 8 shards).
        let c = FaultPlan::from_rng(&SimRng::new(43), 8, 4, 1.0, 10_000);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn empty_plan_and_injector_are_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        let inj = FaultInjector::new(&plan, 4);
        assert!((0..4).all(|s| inj.next_due(s, u64::MAX).is_none()));
        assert_eq!(inj.next_due(0, u64::MAX), None);
    }
}

//! Shard supervision, panic salvage, and the deterministic chaos
//! harness (DESIGN.md §9).
//!
//! The fault model is *fail-stop with an honest ledger*: a shard worker
//! that panics (or is quarantined for a frozen heartbeat) salvages its
//! own state on the way down — every flow the
//! [`FlowMap`](crate::ownership::FlowMap) homes on the dead shard is
//! extracted, its ingress ring drained, and the resulting
//! packages re-homed to a live rescue shard through a salvage inbox.
//! What cannot be saved (a mid-packet wormhole cursor, or everything
//! when no live shard remains) is counted `lost` with its admission
//! charge revoked, never silently leaked. The [`FaultBoard`] records
//! heartbeats, health transitions, and death/recovery timestamps; a
//! supervisor thread applies the single quarantine rule; a seeded
//! [`FaultPlan`] replays shard panics, wedges, and link deaths on the
//! shard flit clocks, which is what makes the chaos bench an experiment
//! rather than an anecdote (§9.5).
//!
//! Concurrency note (§9.2): salvage passes still serialize through one
//! global salvage mutex (death is rare; the lock is never on a hot
//! path), but *per-flow* arbitration — a salvage racing a steal —
//! resolves through the §13 ownership authority: claim (or seize), then
//! win or lose the epoch CAS. With
//! [`SupervisionConfig::resurrection`] on, a dead shard is not salvaged
//! at all: the dying worker posts a whole-state `Bequest` and the
//! supervisor spawns a fresh worker thread that adopts the shard's
//! ring, scheduler, and in-flight migration state (§13.6) — the
//! [`FlowMap`](crate::ownership::FlowMap) never moves.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use desim::{Cycle, SimRng};
use err_sched::migrate::MigratedFlow;
use err_sched::Scheduler;

use crate::admission::AdmissionController;
use crate::ingress::Shared;
use crate::migrate::{unpark_respecting_links, MigrationDriver};
use crate::ownership::{ClaimToken, OwnerState, Ownership};
use crate::shard::{EgressStage, ShardConfig};
use crate::stats::{PaddedCounter, ShardStats};

/// Locks `m`, treating poisoning as benign: the protected state is a
/// token or a message queue whose invariants do not depend on the
/// panicking critical section having completed (and panics are this
/// module's business, not an anomaly).
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Supervisor policy knobs (DESIGN.md §9.1).
#[derive(Clone, Copy, Debug)]
pub struct SupervisionConfig {
    /// How often the supervisor thread scans the [`FaultBoard`].
    pub poll: Duration,
    /// A `Running` shard whose heartbeat has not advanced for this long
    /// is marked [`ShardHealth::Quarantined`]. Must comfortably exceed
    /// the worker's idle park timeout (100µs) — the default leaves two
    /// orders of magnitude of slack.
    pub heartbeat_deadline: Duration,
    /// True shard resurrection (DESIGN.md §13.6): a dead shard's worker
    /// is replaced by a fresh thread adopting its ring, scheduler, and
    /// migration state, instead of its flows being permanently re-homed
    /// by salvage. Required when stealing and supervision compose
    /// (`Runtime::start` asserts it): a mid-handoff peer waits on the
    /// dead shard's next protocol step, which only a successor can
    /// take.
    pub resurrection: bool,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        Self {
            poll: Duration::from_millis(2),
            heartbeat_deadline: Duration::from_millis(50),
            resurrection: false,
        }
    }
}

/// Lifecycle state of one shard worker (DESIGN.md §9.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ShardHealth {
    /// Serving normally.
    Running = 0,
    /// The supervisor saw a frozen heartbeat; the worker's own fault
    /// hook honors the flag by panicking into the salvage path.
    Quarantined = 1,
    /// The worker panicked (organically, by injection, or honoring a
    /// quarantine); its flows were salvaged or counted lost.
    Dead = 2,
    /// The worker drained cleanly and returned.
    Exited = 3,
}

impl ShardHealth {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => Self::Running,
            1 => Self::Quarantined,
            2 => Self::Dead,
            3 => Self::Exited,
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
}

impl Default for BoardCell {
    fn default() -> Self {
        Self {
            heartbeat: PaddedCounter::default(),
            health: AtomicU8::new(ShardHealth::Running as u8),
            death_at: AtomicU64::new(NEVER),
            recovered_at: AtomicU64::new(NEVER),
        }
    }
}

/// Per-shard health, heartbeat, and death/recovery timestamps —
/// LoadBoard-style atomics, one cache-padded entry per shard
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

    /// Bumped by `shard`'s worker once per service loop (idle loops
    /// included — a parked worker wakes at the park timeout and beats).
    pub(crate) fn beat(&self, shard: usize) {
        self.cells[shard].heartbeat.add(1);
    }

    /// Current heartbeat count of `shard`.
    pub fn heartbeat(&self, shard: usize) -> u64 {
        self.cells[shard].heartbeat.get()
    }

    /// Current health of `shard`.
    pub fn health(&self, shard: usize) -> ShardHealth {
        // ordering: SeqCst — the health byte arbitrates between the
        // supervisor's quarantine CAS, the dying worker's Dead store,
        // and salvagers' rescue checks; every observer must agree on
        // one total order of transitions (a racing death beats a
        // quarantine everywhere, not per-thread).
        ShardHealth::from_u8(self.cells[shard].health.load(Ordering::SeqCst))
    }

    pub(crate) fn set_health(&self, shard: usize, health: ShardHealth) {
        // ordering: SeqCst — same single-total-order contract as
        // `health` (this is the Dead/Exited side of the arbitration).
        self.cells[shard]
            .health
            .store(health as u8, Ordering::SeqCst);
    }

    /// Supervisor-only `Running → Quarantined` transition; returns
    /// whether this call made it (a racing death wins).
    pub(crate) fn quarantine(&self, shard: usize) -> bool {
        // ordering: SeqCst/SeqCst — the supervisor's half of the
        // health arbitration (see `health`): the CAS loses to a racing
        // Dead store in the same total order every observer sees.
        self.cells[shard]
            .health
            .compare_exchange(
                ShardHealth::Running as u8,
                ShardHealth::Quarantined as u8,
                // ordering: SeqCst/SeqCst — see above.
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    fn now_micros(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    pub(crate) fn stamp_death(&self, shard: usize) {
        // ordering: SeqCst — stamped inside the salvage protocol and
        // read against the health bytes; keeping it in the same total
        // order means a reader that saw Dead also sees the timestamp.
        self.cells[shard]
            .death_at
            .store(self.now_micros(), Ordering::SeqCst);
    }

    pub(crate) fn stamp_recovery(&self, shard: usize) {
        // ordering: SeqCst — see `stamp_death`.
        self.cells[shard]
            .recovered_at
            .store(self.now_micros(), Ordering::SeqCst);
    }

    /// Microseconds (since runtime start) at which `shard` died, if it
    /// did.
    pub fn death_micros(&self, shard: usize) -> Option<u64> {
        // ordering: SeqCst — reader side of `stamp_death`.
        match self.cells[shard].death_at.load(Ordering::SeqCst) {
            NEVER => None,
            t => Some(t),
        }
    }

    /// Microseconds (since runtime start) at which `shard`'s salvage
    /// completed, if it did.
    pub fn recovery_micros(&self, shard: usize) -> Option<u64> {
        // ordering: SeqCst — reader side of `stamp_recovery`.
        match self.cells[shard].recovered_at.load(Ordering::SeqCst) {
            NEVER => None,
            t => Some(t),
        }
    }
}

/// One injected fault (DESIGN.md §9.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic the shard worker (unwinds into the salvage path).
    PanicShard,
    /// Wedge the worker: it stops beating without unwinding, until the
    /// supervisor quarantines it and the wedge loop honors the flag.
    StickShard,
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
/// [`FaultInjector`] into per-shard sorted event lists consumed by
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

    /// Wedges `shard`'s worker (heartbeat freeze) at cycle `at`.
    pub fn stick_shard_at(mut self, shard: usize, at: Cycle) -> Self {
        self.events.push(FaultEvent {
            shard,
            at,
            kind: FaultKind::StickShard,
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
    /// kept only if it lands inside `horizon` cycles. Derivation uses
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
            let kind = match r.uniform_u32(0, 2) {
                0 => FaultKind::PanicShard,
                1 => FaultKind::StickShard,
                _ if n_links > 0 => {
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
pub struct FaultInjector {
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

    /// Whether every planned event has fired.
    pub fn exhausted(&self) -> bool {
        self.cursors
            .iter()
            .zip(&self.events)
            .all(|(c, e)| c.load(Ordering::Relaxed) >= e.len())
    }
}

/// Traffic on a shard's salvage inbox (DESIGN.md §9.2).
pub(crate) enum SalvageMsg {
    /// Pre-park request: the dying shard asks its chosen rescue to park
    /// these flows *before* the FlowMap flips, so no new-epoch arrival
    /// can be served ahead of the salvaged old-epoch packets (the same
    /// fence the §8 thief provides by parking before its ack). The
    /// handler bumps the global ack counter once per message.
    Park { flows: Vec<usize> },
    /// A salvaged flow package; the handler parks (idempotent), absorbs
    /// (old epoch prepends ahead of new, §8.3), and unparks. Delivered
    /// for *every* re-homed flow, even empty — absorption is also what
    /// clears any pre-park left behind by an abandoned rescue attempt.
    Package {
        /// The re-homed flow.
        flow: usize,
        /// Its scheduler-side state.
        pkg: MigratedFlow,
    },
}

/// Everything a worker thread owns, and so everything a successor
/// needs to adopt a dead shard (§13.6): a first-generation worker is
/// started from one with a fresh scheduler and clock 0, and a dying
/// worker's epilogue posts its own. Panics fire only at an intake
/// boundary, so arrival batches are empty and the state is consistent
/// by construction. The ingress ring is *not* here: it lives in
/// `Shared` and the successor simply resumes draining it.
pub(crate) struct Bequest {
    pub(crate) cfg: ShardConfig,
    pub(crate) scheduler: Box<dyn Scheduler + Send>,
    pub(crate) driver: Option<MigrationDriver>,
    /// The shard flit clock at death; the successor continues it.
    pub(crate) now: Cycle,
    /// The output side, whole: the sync stage's sink, or the buffered
    /// stage's ring producer, parking marks and pushed count.
    pub(crate) stage: Box<dyn EgressStage>,
}

/// Fault-tolerance state hung off the runtime's `Shared` block when
/// `RuntimeConfig::supervision` is set.
pub(crate) struct FaultRuntime {
    pub(crate) board: FaultBoard,
    /// The §13 ownership authority (map + windows + claims), shared
    /// with the stealing layer when both overlays are on.
    pub(crate) own: Arc<Ownership>,
    inboxes: Vec<Mutex<VecDeque<SalvageMsg>>>,
    /// Cheap hot-path signal that a shard's inbox is non-empty.
    inbox_flags: Vec<AtomicBool>,
    /// Bumped once per handled `Park` message. Only one salvage runs at
    /// a time (the salvage lock), so the waiter reads a private delta.
    park_acks: AtomicU64,
    pub(crate) injector: Option<FaultInjector>,
    /// The global salvage lock (see the module docs): serializes every
    /// salvage and the `Dead`/`Exited` transitions that race them.
    salvage: Mutex<()>,
    /// Per-shard bequest slot (§13.6): the dying worker posts, the
    /// supervisor takes.
    bequests: Vec<Mutex<Option<Bequest>>>,
    /// Successor worker threads, `(shard, handle)`, pushed by the
    /// supervisor under this mutex — `drain_within` reads the same lock
    /// so it can never miss a successor that is mid-spawn.
    pub(crate) successors: Mutex<Vec<(usize, JoinHandle<Cycle>)>>,
    pub(crate) config: SupervisionConfig,
}

impl FaultRuntime {
    pub(crate) fn new(
        own: Arc<Ownership>,
        shards: usize,
        config: SupervisionConfig,
        injector: Option<FaultInjector>,
    ) -> Self {
        Self {
            board: FaultBoard::new(shards),
            own,
            inboxes: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            inbox_flags: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            park_acks: AtomicU64::new(0),
            injector,
            salvage: Mutex::new(()),
            bequests: (0..shards).map(|_| Mutex::new(None)).collect(),
            successors: Mutex::new(Vec::new()),
            config,
        }
    }

    /// The dying worker's last act under resurrection (§13.6): post the
    /// whole-state bequest, then flip to `Dead` — in that order, so a
    /// supervisor that observes the bequest always finds it complete.
    pub(crate) fn bequeath(&self, shard: usize, bequest: Bequest) {
        *lock_unpoisoned(&self.bequests[shard]) = Some(bequest);
        self.board.set_health(shard, ShardHealth::Dead);
        self.board.stamp_death(shard);
    }

    /// Takes `shard`'s pending bequest, if any (supervisor side).
    pub(crate) fn take_bequest(&self, shard: usize) -> Option<Bequest> {
        lock_unpoisoned(&self.bequests[shard]).take()
    }

    /// Whether any shard has posted a bequest the supervisor has not
    /// yet turned into a successor (`drain_within` waits this out).
    pub(crate) fn resurrection_pending(&self) -> bool {
        self.bequests.iter().any(|b| lock_unpoisoned(b).is_some())
    }

    /// Pushes messages to `shard`'s inbox and raises its flag.
    fn post(&self, shard: usize, msgs: impl IntoIterator<Item = SalvageMsg>) {
        let mut inbox = lock_unpoisoned(&self.inboxes[shard]);
        inbox.extend(msgs);
        // ordering: Release pairs with the Acquire flag load in
        // `fault_tick` (the messages themselves travel under the inbox
        // lock; the flag is the cheap "look inside" hint). `try_exit`
        // reads it SeqCst for its flag→lock→flag fence.
        self.inbox_flags[shard].store(true, Ordering::Release);
    }

    /// The rescue candidate: the first `Running` shard after `from` in
    /// ring order, skipping `exclude` (candidates that timed out).
    fn next_alive(&self, from: usize, exclude: &[usize]) -> Option<usize> {
        let n = self.board.shards();
        (1..=n)
            .map(|d| (from + d) % n)
            .find(|&s| !exclude.contains(&s) && self.board.health(s) == ShardHealth::Running)
    }
}

/// Per-loop fault hook, called by the worker loop at the intake
/// boundary: beat the heartbeat, absorb salvage traffic, honor a
/// quarantine (by panicking into the salvage path), and fire due
/// injected events. `stage` is asked where salvage parks/unparks must
/// compose with per-link credit parking (§9.3) and takes the `KillLink`
/// events; a stage without links answers "never parked" and ignores
/// them.
pub(crate) fn fault_tick(
    shared: &Shared,
    shard: usize,
    scheduler: &mut Box<dyn Scheduler + Send>,
    now: Cycle,
    stage: &mut dyn EgressStage,
) {
    let Some(fr) = shared.fault.as_ref() else {
        return;
    };
    fr.board.beat(shard);
    // ordering: Acquire pairs with the Release flag store in `post`.
    if fr.inbox_flags[shard].load(Ordering::Acquire) {
        drain_inbox(fr, shard, scheduler, stage);
    }
    if fr.board.health(shard) == ShardHealth::Quarantined {
        panic!("shard {shard}: quarantine honored (heartbeat stalled past deadline)");
    }
    if let Some(inj) = fr.injector.as_ref() {
        while let Some(kind) = inj.next_due(shard, now) {
            match kind {
                FaultKind::PanicShard => {
                    panic!("shard {shard}: injected panic at cycle {now} (FaultPlan)")
                }
                FaultKind::StickShard => stick(shared, fr, shard),
                FaultKind::KillLink(link) => stage.declare_link_dead(link),
            }
        }
    }
}

/// Handles everything queued on `shard`'s salvage inbox.
fn drain_inbox(
    fr: &FaultRuntime,
    shard: usize,
    scheduler: &mut Box<dyn Scheduler + Send>,
    stage: &mut dyn EgressStage,
) {
    let msgs: Vec<SalvageMsg> = {
        let mut inbox = lock_unpoisoned(&fr.inboxes[shard]);
        // ordering: Release — cleared under the inbox lock before the
        // drain; a `post` that lands after this store re-raises the
        // flag, so no message is left behind with the flag down.
        fr.inbox_flags[shard].store(false, Ordering::Release);
        inbox.drain(..).collect()
    };
    for msg in msgs {
        match msg {
            SalvageMsg::Park { flows } => {
                for flow in flows {
                    // unpark: the `Package` arm below when the flow's
                    // salvage package arrives — absorption is what
                    // clears the pre-park; the `salvage_parked` mark
                    // keeps a link release from jumping the gun
                    // (credits returning must not let new-epoch
                    // arrivals be served ahead of the package in
                    // flight).
                    let _ = scheduler.park_flow(flow);
                    stage.set_salvage_parked(flow, true);
                }
                // ordering: SeqCst — the ack side of the pre-park
                // fence: the salvager reads `park_acks` (SeqCst) while
                // racing health transitions; one total order keeps
                // "acked" and "candidate died" mutually exclusive
                // verdicts.
                fr.park_acks.fetch_add(1, Ordering::SeqCst);
            }
            SalvageMsg::Package { flow, pkg } => {
                // unpark: `unpark_respecting_links` just below —
                // same tick, same thread.
                let _ = scheduler.park_flow(flow);
                let absorbed = scheduler.absorb_flow(flow, pkg);
                debug_assert!(absorbed, "salvage target failed to absorb flow {flow}");
                // The flow is home; it only resumes service if its link
                // has credits — a credit-parked link keeps it parked,
                // for the link's release to unpark with the rest.
                stage.set_salvage_parked(flow, false);
                unpark_respecting_links(scheduler, flow, stage);
            }
        }
    }
}

/// The injected wedge: spin without beating until the supervisor
/// quarantines this shard (or the runtime aborts), then panic into the
/// salvage path — modelling a wedge that a watchdog kill eventually
/// reaches (DESIGN.md §9.2).
fn stick(shared: &Shared, fr: &FaultRuntime, shard: usize) {
    loop {
        if fr.board.health(shard) == ShardHealth::Quarantined {
            panic!("shard {shard}: quarantine honored (injected wedge)");
        }
        // ordering: Acquire pairs with the Release `abort` store in
        // `Runtime::drain_within`.
        if shared.abort.load(Ordering::Acquire) {
            panic!("shard {shard}: injected wedge aborted by shutdown");
        }
        // backstop: polls quarantine and abort; nobody wakes a wedge.
        std::thread::park_timeout(Duration::from_micros(200));
    }
}

/// An empty package: what an untouched flow's state looks like.
fn empty_package() -> MigratedFlow {
    MigratedFlow {
        packets: VecDeque::new(),
        surplus: 0,
        resume: None,
    }
}

/// Strips a mid-packet cursor from an extracted package, counting its
/// unserved remainder as lost and revoking the packet's admission
/// charge: its head flits already left on the dead shard's link, and
/// replaying the tail elsewhere would corrupt the wormhole (§9.2).
fn strip_cursor(
    stats: &ShardStats,
    admission: &AdmissionController,
    flow: usize,
    pkg: &mut MigratedFlow,
) {
    if let Some(cursor) = pkg.resume.take().and_then(|v| v.cursor) {
        stats.lost_packets.add(1);
        stats
            .lost_flits
            .add((cursor.packet.len - cursor.next_flit) as u64);
        admission.revoke(flow, cursor.packet.len);
    }
}

/// FIFO-merges `pkg` behind whatever `slot` already holds (older
/// material merges first: forwarded inbox packages, then the local
/// extraction, then the ring drain).
fn merge_package(slot: &mut Option<MigratedFlow>, mut pkg: MigratedFlow) {
    debug_assert!(pkg.resume.is_none(), "cursor must be stripped before merge");
    match slot {
        None => *slot = Some(pkg),
        Some(base) => {
            base.packets.append(&mut pkg.packets);
            base.surplus += pkg.surplus;
        }
    }
}

/// Counts one packet as lost and releases its admission charge.
fn lose_packet(stats: &ShardStats, admission: &AdmissionController, flow: usize, len: u32) {
    stats.lost_packets.add(1);
    stats.lost_flits.add(len as u64);
    admission.revoke(flow, len);
}

/// Salvage, run on the dying worker's own thread after its
/// `catch_unwind` caught the panic (DESIGN.md §9.2): mark `Dead`,
/// re-home every flow the map puts here (pre-parking them at the
/// rescue), drain the dead ingress ring, deliver the packages, and
/// account every packet as salvaged or lost.
pub(crate) fn salvage_shard(
    shared: &Shared,
    shard: usize,
    scheduler: &mut Box<dyn Scheduler + Send>,
) {
    let Some(fr) = shared.fault.as_ref() else {
        return;
    };
    let _guard = lock_unpoisoned(&fr.salvage);
    // Dead before anything else: producers spinning on this shard's
    // full ring observe it and re-route once the map flips below, and
    // other salvages stop considering this shard a rescue.
    fr.board.set_health(shard, ShardHealth::Dead);
    fr.board.stamp_death(shard);
    let stats = &shared.stats[shard];

    // Our own inbox first: forwarded packages from an earlier death sit
    // here unabsorbed. Stale pre-park requests die with us — their
    // salvager already timed out and moved on.
    let pending: Vec<SalvageMsg> = {
        let mut inbox = lock_unpoisoned(&fr.inboxes[shard]);
        // ordering: Release — same clear-under-lock pattern as
        // `drain_inbox`.
        fr.inbox_flags[shard].store(false, Ordering::Release);
        inbox.drain(..).collect()
    };
    let n_flows = fr.own.map.n_flows();
    let mut packages: Vec<Option<MigratedFlow>> = (0..n_flows).map(|_| None).collect();
    for msg in pending {
        if let SalvageMsg::Package { flow, pkg } = msg {
            merge_package(&mut packages[flow], pkg);
        }
    }

    let owned: Vec<usize> = (0..n_flows)
        .filter(|&f| fr.own.shard_of(f) == Some(shard))
        .collect();

    // Choose a rescue and pre-park the flows there (the §8 thief-side
    // fence). A candidate that does not ack within the heartbeat
    // deadline is itself dying, wedged, or blocked — move on.
    let mut excluded = vec![shard];
    let rescue = loop {
        let Some(candidate) = fr.next_alive(shard, &excluded) else {
            break None;
        };
        // ordering: SeqCst — baseline for the ack wait below; see the
        // fence note on the `park_acks` increment in `drain_inbox`.
        let base = fr.park_acks.load(Ordering::SeqCst);
        fr.post(
            candidate,
            [SalvageMsg::Park {
                flows: owned.clone(),
            }],
        );
        let deadline = Instant::now() + fr.config.heartbeat_deadline;
        let acked = loop {
            // ordering: SeqCst — pairs with the SeqCst `park_acks`
            // increment; ordered against the SeqCst health reads so an
            // ack and a death verdict cannot both be concluded.
            if fr.park_acks.load(Ordering::SeqCst) > base {
                break true;
            }
            // ordering: Acquire `abort` — shutdown latch pairing with
            // `Runtime::drain_within`.
            if fr.board.health(candidate) != ShardHealth::Running
                || shared.abort.load(Ordering::Acquire)
                || Instant::now() >= deadline
            {
                break false;
            }
            std::thread::yield_now();
        };
        if acked {
            break Some(candidate);
        }
        // ordering: Acquire — shutdown latch pairing as above.
        if shared.abort.load(Ordering::Acquire) {
            break None;
        }
        excluded.push(candidate);
    };

    // Per-flow arbitration (§13.1), then extract and drain the ring
    // into the packages. With a rescue, each flow is *claimed* — or an
    // in-flight steal's claim is *seized*, since the steal's donor is
    // this very dying thread and can never advance it — the map flips
    // by epoch CAS, and the submit window is waited out, so the ring
    // drain covers every old-epoch push (§13.3). A flow whose reroute
    // loses the epoch race already lives at its thief: it is dropped
    // from the salvage set and its claim released untouched.
    let mut rehomed: Vec<(usize, ClaimToken)> = Vec::new();
    if let Some(r) = rescue {
        for &flow in &owned {
            let mut tok = None;
            for _ in 0..64 {
                tok = fr
                    .own
                    .try_claim(flow, OwnerState::Salvaging, shard)
                    .or_else(|| fr.own.seize_for_salvage(flow, shard));
                if tok.is_some() {
                    break;
                }
                std::thread::yield_now();
            }
            let Some(tok) = tok else { continue };
            if fr.own.try_reroute(&tok, r) {
                rehomed.push((flow, tok));
            } else {
                fr.own.release(&tok);
            }
        }
        for &(flow, _) in &rehomed {
            // ordering: SeqCst inside `window_clear` — the salvager's
            // half of the submit-window Dekker (ownership.rs
            // WindowGuard): window enter (SeqCst fetch_add) then map
            // read, versus map flip then this SeqCst zero-check; one
            // total order means any submit the flip missed is still
            // counted in the window here.
            while !fr.own.window_clear(flow) {
                std::thread::yield_now();
            }
        }
        for &(flow, _) in &rehomed {
            // unpark: at the rescue target's `Package` arm in
            // `drain_inbox` — never on this scheduler; the
            // shard is dying and the extracted flow is absorbed (and
            // unparked) at its new home.
            let _ = scheduler.park_flow(flow);
            if let Some(mut pkg) = scheduler.extract_flow(flow) {
                strip_cursor(stats, &shared.admission, flow, &mut pkg);
                merge_package(&mut packages[flow], pkg);
            }
        }
    } else {
        for &flow in &owned {
            // unpark: never — no rescue target exists; `extract_flow`
            // empties the flow, the package is accounted as
            // salvage-lost, and the scheduler is dropped with the
            // dying shard.
            let _ = scheduler.park_flow(flow);
            if let Some(mut pkg) = scheduler.extract_flow(flow) {
                strip_cursor(stats, &shared.admission, flow, &mut pkg);
                merge_package(&mut packages[flow], pkg);
            }
        }
    }
    while let Some(pkt) = shared.rings[shard].pop() {
        packages[pkt.flow]
            .get_or_insert_with(empty_package)
            .packets
            .push_back(pkt);
    }

    match rescue {
        Some(r) => {
            // Deliver a package for every pre-parked flow — even an
            // empty one, since absorption is what unparks the pre-park
            // — and account the contents as salvaged at this (dying)
            // shard. A dropped flow (reroute lost to a thief) gets an
            // empty package to clear its pre-park; any ring residue it
            // left here is old-epoch material the thief's drain already
            // covered or will cover, but we saw it post-claim, so count
            // it lost rather than mis-home it.
            let kept: Vec<usize> = rehomed.iter().map(|&(f, _)| f).collect();
            let msgs: Vec<SalvageMsg> = owned
                .iter()
                .map(|&flow| {
                    let pkg = if kept.contains(&flow) {
                        packages[flow].take().unwrap_or_else(empty_package)
                    } else {
                        if let Some(stale) = packages[flow].take() {
                            for p in &stale.packets {
                                lose_packet(stats, &shared.admission, flow, p.len);
                            }
                        }
                        empty_package()
                    };
                    stats.salvaged_packets.add(pkg.packets.len() as u64);
                    stats.salvaged_flits.add(pkg.flits());
                    SalvageMsg::Package { flow, pkg }
                })
                .collect();
            fr.post(r, msgs);
            for (_, tok) in &rehomed {
                fr.own.release(tok);
            }
        }
        None => {
            // Total failure: no live rescuer (every shard dead, or the
            // shutdown abort fired mid-salvage). Close the runtime
            // *first* so producers fail fast, then quiesce *all*
            // in-flight submits — not just the windowed ones: a
            // producer past admission but before the window can still
            // land a push in our ring (the map never flipped), and the
            // ledger would leak it. Every submit path re-checks
            // `closed` on its blocking loops, so `in_flight` drains
            // promptly. Then re-drain, count everything lost, and
            // revoke the charges — an honest shutdown, not a hang
            // (§9.2).
            shared.gate.close();
            while !shared.can_finish() {
                std::thread::yield_now();
            }
            while let Some(pkt) = shared.rings[shard].pop() {
                packages[pkt.flow]
                    .get_or_insert_with(empty_package)
                    .packets
                    .push_back(pkt);
            }
            for (flow, slot) in packages.iter_mut().enumerate() {
                if let Some(pkg) = slot.take() {
                    for p in &pkg.packets {
                        lose_packet(stats, &shared.admission, flow, p.len);
                    }
                }
            }
        }
    }
    fr.board.stamp_recovery(shard);
    stats.backlog_flits.set(0);
}

/// Final exit gate for a supervised worker that has drained: refuses if
/// salvage traffic is (or is about to be) queued, otherwise transitions
/// to `Exited` under the salvage lock so no salvager can pick this
/// shard as a rescue afterwards. Uses `try_lock` — a worker blocked
/// here could not beat, and the supervisor would quarantine it.
pub(crate) fn try_exit(shared: &Shared, shard: usize) -> bool {
    let Some(fr) = shared.fault.as_ref() else {
        return true;
    };
    // ordering: SeqCst — cheap pre-check of the flag→lock→flag exit
    // fence (full argument on the recheck below).
    if fr.inbox_flags[shard].load(Ordering::SeqCst) {
        return false;
    }
    let _guard = match fr.salvage.try_lock() {
        Ok(g) => g,
        Err(TryLockError::Poisoned(e)) => e.into_inner(),
        Err(TryLockError::WouldBlock) => return false,
    };
    // ordering: SeqCst — under the salvage lock no new salvager can
    // start; SeqCst orders this recheck against a concurrent salvager
    // posting a package just before it released the lock, so an exit
    // can never strand a posted package.
    if fr.inbox_flags[shard].load(Ordering::SeqCst) {
        return false;
    }
    fr.board.set_health(shard, ShardHealth::Exited);
    true
}

/// Forced-shutdown residue accounting (DESIGN.md §9.4): when the abort
/// flag fires, a worker stops serving and counts its residual state —
/// ring contents and extracted flow packages — as lost, with admission
/// charges revoked. Exact for migratable disciplines; others can only
/// report an aggregate flit count (the report's `forced` flag marks the
/// accounting as lossy).
pub(crate) fn abort_residuals(
    shared: &Shared,
    shard: usize,
    n_flows: usize,
    scheduler: &mut Box<dyn Scheduler + Send>,
) {
    let stats = &shared.stats[shard];
    while let Some(pkt) = shared.rings[shard].pop() {
        lose_packet(stats, &shared.admission, pkt.flow, pkt.len);
    }
    if scheduler.supports_migration() {
        for flow in 0..n_flows {
            // unpark: never — `abort_residuals` is the forced-abort
            // accounting sweep; the scheduler serves nothing after it
            // and is dropped with the aborted runtime.
            let _ = scheduler.park_flow(flow);
            if let Some(pkg) = scheduler.extract_flow(flow) {
                if let Some(cursor) = pkg.resume.and_then(|v| v.cursor) {
                    stats.lost_packets.add(1);
                    stats
                        .lost_flits
                        .add((cursor.packet.len - cursor.next_flit) as u64);
                    shared.admission.revoke(flow, cursor.packet.len);
                }
                for p in &pkg.packets {
                    lose_packet(stats, &shared.admission, flow, p.len);
                }
            }
        }
    } else {
        stats.lost_flits.add(scheduler.backlog_flits());
    }
    stats.backlog_flits.set(0);
    if let Some(fr) = shared.fault.as_ref() {
        let _guard = lock_unpoisoned(&fr.salvage);
        // Packages that raced the abort into our inbox are lost too.
        let pending: Vec<SalvageMsg> = {
            let mut inbox = lock_unpoisoned(&fr.inboxes[shard]);
            // ordering: Release — clear-under-lock pattern as in
            // `drain_inbox`.
            fr.inbox_flags[shard].store(false, Ordering::Release);
            inbox.drain(..).collect()
        };
        for msg in pending {
            if let SalvageMsg::Package { flow, pkg } = msg {
                for p in &pkg.packets {
                    lose_packet(stats, &shared.admission, flow, p.len);
                }
            }
        }
        fr.board.set_health(shard, ShardHealth::Exited);
    }
}

/// The supervisor loop (DESIGN.md §9.1): every `poll`, quarantine any
/// `Running` shard whose heartbeat has not advanced for
/// `heartbeat_deadline`. Never touches a scheduler — quarantine is a
/// flag the worker's own fault hook honors. Under resurrection
/// (§13.6), the scan also turns posted bequests into successor worker
/// threads.
pub(crate) fn run_supervisor(shared: Arc<Shared>, stop: Arc<AtomicBool>) {
    let Some(fr) = shared.fault.as_ref() else {
        return;
    };
    let shards = fr.board.shards();
    let mut last_beat: Vec<u64> = (0..shards).map(|s| fr.board.heartbeat(s)).collect();
    let mut last_change: Vec<Instant> = vec![Instant::now(); shards];
    let mut generation: Vec<u64> = vec![0; shards];
    // ordering: Acquire pairs with the Release `stop` store in
    // `Runtime::drain_within` (supervisor shutdown latch).
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(fr.config.poll);
        for s in 0..shards {
            let beat = fr.board.heartbeat(s);
            if beat != last_beat[s] {
                last_beat[s] = beat;
                last_change[s] = Instant::now();
            } else if fr.board.health(s) == ShardHealth::Running
                && last_change[s].elapsed() >= fr.config.heartbeat_deadline
            {
                fr.board.quarantine(s);
            }
            if !fr.config.resurrection {
                continue;
            }
            // Resurrection (§13.6): adopt a posted bequest. The whole
            // take→spawn→push runs under the successors lock so
            // `drain_within`, which reads the same lock, can never
            // observe "no bequest, no successor" for a shard that is
            // mid-resurrection.
            let mut successors = lock_unpoisoned(&fr.successors);
            // ordering: Acquire pairs with the Release `abort` store in
            // `Runtime::drain_within` — no successor may spawn after
            // the forced-abort residue accounting starts.
            if shared.abort.load(Ordering::Acquire) {
                continue;
            }
            if let Some(bequest) = fr.take_bequest(s) {
                generation[s] += 1;
                fr.board.stamp_recovery(s);
                fr.board.set_health(s, ShardHealth::Running);
                // A fresh grace window: the successor's first beat may
                // lag thread spawn, and the stale pre-death timestamp
                // would instantly re-quarantine it.
                last_beat[s] = fr.board.heartbeat(s);
                last_change[s] = Instant::now();
                let handle = crate::spawn_worker(Arc::clone(&shared), generation[s], bequest);
                successors.push((s, handle));
            }
        }
    }
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
        assert!(b.quarantine(0), "Running → Quarantined");
        assert_eq!(b.health(0), ShardHealth::Quarantined);
        assert!(!b.quarantine(0), "CAS only fires from Running");
        b.set_health(0, ShardHealth::Dead);
        b.stamp_death(0);
        b.stamp_recovery(0);
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
            .stick_shard_at(0, 100)
            .kill_link_at(1, 3, 200)
            .kill_shard_at(7, 10); // out of range, dropped by compile
        assert_eq!(plan.events().len(), 4);
        let inj = FaultInjector::new(&plan, 2);
        assert_eq!(inj.next_due(0, 99), None, "not due yet");
        assert_eq!(inj.next_due(0, 100), Some(FaultKind::StickShard));
        assert_eq!(inj.next_due(0, 100_000), None, "consumed");
        // Shard 1's two events fire in `at` order regardless of
        // insertion order, both due at once.
        assert_eq!(inj.next_due(1, 1_000), Some(FaultKind::KillLink(3)));
        assert_eq!(inj.next_due(1, 1_000), Some(FaultKind::PanicShard));
        assert!(inj.exhausted());
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
        assert!(inj.exhausted());
        assert_eq!(inj.next_due(0, u64::MAX), None);
    }
}

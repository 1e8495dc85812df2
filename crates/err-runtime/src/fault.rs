//! Shard supervision, in-place resurrection, and the deterministic
//! chaos harness (DESIGN.md §9).
//!
//! The fault model is *fail-stop with an honest ledger*, and death
//! never moves a flow: a shard worker that panics (or is quarantined
//! for a frozen heartbeat) is caught by its own fence, posts its whole
//! state — scheduler, flit clock, egress stage, in-flight migration
//! driver — as a `Bequest`, and the supervisor spawns a successor
//! thread that adopts it (§9.2: *catch → bequeath → adopt*). The
//! ingress ring stays where it is and the successor resumes draining
//! it, so nothing is re-homed and nothing is lost; only a forced abort
//! (§9.4) counts residue `lost`, with its admission charge revoked,
//! never silently leaked. The [`FaultBoard`] records heartbeats, health
//! transitions, and death/recovery timestamps; a supervisor thread
//! applies the single quarantine rule and adopts bequests; a seeded
//! [`FaultPlan`] replays shard panics, wedges, and link deaths on the
//! shard flit clocks, which is what makes the chaos bench an experiment
//! rather than an anecdote (§9.5).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use desim::{Cycle, SimRng};
use err_sched::err::ErrScheduler;

use crate::admission::AdmissionController;
use crate::ingress::Shared;
use crate::migrate::MigrationDriver;
use crate::shard::{EgressStage, ShardConfig};
use crate::stats::{PaddedCounter, ShardStats};

/// Locks `m`, treating poisoning as benign: the protected state is a
/// slot or a handle list whose invariants do not depend on the
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
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        Self {
            poll: Duration::from_millis(2),
            heartbeat_deadline: Duration::from_millis(50),
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
    /// hook honors the flag by panicking into its fence.
    Quarantined = 1,
    /// The worker panicked (organically, by injection, or honoring a
    /// quarantine); its `Bequest` waits for the supervisor to adopt it.
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
        // supervisor's quarantine CAS and adoption, and the dying
        // worker's Dead store; every observer must agree on one total
        // order of transitions (a racing death beats a quarantine
        // everywhere, not per-thread).
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
        // ordering: SeqCst — stamped beside the Dead store and read
        // against the health bytes; keeping it in the same total
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

    /// Microseconds (since runtime start) at which a successor adopted
    /// `shard`'s bequest, if one did.
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
    /// Panic the shard worker (unwinds into its fence, §9.2).
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

/// Everything a worker thread owns, and so everything a successor
/// needs to adopt a dead shard (§9.2): a first-generation worker is
/// started from one with a fresh scheduler and clock 0, and a dying
/// worker's epilogue posts its own. Injected panics fire only at an
/// intake boundary and a sink's unwind leaves its interrupted batch in
/// the stage, so the state is consistent by construction. The ingress
/// ring is *not* here: it lives in `Shared` and the successor simply
/// resumes draining it.
pub(crate) struct Bequest {
    pub(crate) cfg: ShardConfig,
    pub(crate) scheduler: ErrScheduler,
    pub(crate) driver: Option<MigrationDriver>,
    /// The shard flit clock at death; the successor continues it.
    pub(crate) now: Cycle,
    /// The output side, whole: the sync stage's sink and interrupted
    /// batch, or the buffered stage's ring producer, parking marks and
    /// pushed count.
    pub(crate) stage: Box<dyn EgressStage>,
}

/// Fault-tolerance state hung off the runtime's `Shared` block when
/// `RuntimeConfig::supervision` is set.
pub(crate) struct FaultRuntime {
    pub(crate) board: FaultBoard,
    pub(crate) injector: Option<FaultInjector>,
    /// Per-shard bequest slot (§9.2): the dying worker posts, the
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
        shards: usize,
        config: SupervisionConfig,
        injector: Option<FaultInjector>,
    ) -> Self {
        Self {
            board: FaultBoard::new(shards),
            injector,
            bequests: (0..shards).map(|_| Mutex::new(None)).collect(),
            successors: Mutex::new(Vec::new()),
            config,
        }
    }

    /// The dying worker's last act (§9.2): post the whole-state
    /// bequest, then flip to `Dead` — in that order, so a supervisor
    /// that observes the bequest always finds it complete.
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
}

/// Per-loop fault hook, called by the worker loop at the intake
/// boundary: beat the heartbeat, honor a quarantine (by panicking into
/// the worker's fence), and fire due injected events. `stage` takes the
/// `KillLink` events; a stage without links ignores them.
pub(crate) fn fault_tick(shared: &Shared, shard: usize, now: Cycle, stage: &dyn EgressStage) {
    let Some(fr) = shared.fault.as_ref() else {
        return;
    };
    fr.board.beat(shard);
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

/// The injected wedge: spin without beating until the supervisor
/// quarantines this shard (or the runtime aborts), then panic into the
/// worker's fence — modelling a wedge that a watchdog kill eventually
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

/// Counts one packet as lost and releases its admission charge.
fn lose_packet(stats: &ShardStats, admission: &AdmissionController, flow: usize, len: u32) {
    stats.lost_packets.add(1);
    stats.lost_flits.add(len as u64);
    admission.revoke(flow, len);
}

/// Forced-shutdown residue accounting (DESIGN.md §9.4): when the abort
/// flag fires, a worker stops serving and counts its residual state —
/// ring contents and extracted flow packages — as lost, with admission
/// charges revoked; `drain_within` does the same for a bequest the
/// abort beat the supervisor to. Exact: every flow's residue is
/// extracted and counted packet by packet.
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
    stats.backlog_flits.set(0);
}

/// The supervisor loop (DESIGN.md §9.1–9.2): every `poll`, quarantine
/// any `Running` shard whose heartbeat has not advanced for
/// `heartbeat_deadline`, and turn posted bequests into successor worker
/// threads. Never touches a scheduler — quarantine is a flag the
/// worker's own fault hook honors, and a bequest is adopted whole.
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
            // Adopt a posted bequest (§9.2). The whole take→spawn→push
            // runs under the successors lock so `drain_within`, which
            // reads the same lock, can never observe "no bequest, no
            // successor" for a shard that is mid-resurrection.
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

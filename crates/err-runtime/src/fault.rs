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
//! heartbeats, health transitions, and death/recovery timestamps. One
//! [`FaultPlan`] — checked by `validate`, compiled into [`Schedule`]s —
//! replays shard panics and link freezes, deaths and heals on the shard
//! flit clocks, and a fabric's link and node events on its ejection
//! clock, which is what makes chaos an experiment rather than an
//! anecdote (§9.5).

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

/// What an injected event does (DESIGN.md §9.5). A runtime applies the
/// first four on a shard's flit clock; a fabric applies all but
/// `PanicShard` on its ejection clock and hands `PanicShard` to the
/// node's runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Freezes the target link at `at` and thaws it at `until`
    /// (`Cycle::MAX`: never, but a drain overrides it, §7).
    Freeze {
        /// Clock value at which the link thaws.
        until: Cycle,
    },
    /// Declares the target link dead (§9.3); in a fabric, cuts the
    /// cable (§11.4).
    KillLink,
    /// Resurrects the target link, replaying what it held (§14.1).
    HealLink,
    /// Panics the target shard's worker at an intake boundary; its
    /// fence catches the unwind and it resumes in place (§9.2).
    PanicShard,
    /// Kills the target fabric node in place (§14.1).
    KillNode,
    /// Revives the target fabric node (§14.1).
    ReviveNode,
}

/// Where an event lands. A runtime is node 0; a field the kind does not
/// read is 0. A runtime event fires on `shard`'s flit clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Target {
    /// Fabric node (0 in a runtime).
    pub node: usize,
    /// Shard of the node's runtime.
    pub shard: usize,
    /// Egress link of the node; in a fabric, link 0 is the eject end.
    pub link: usize,
}

/// A planned event: `kind` happens to `target` at clock value `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Clock value at which the event is due.
    pub at: Cycle,
    /// What it lands on.
    pub target: Target,
    /// What happens.
    pub kind: FaultKind,
}

/// What a plan's events may name: a runtime is one node whose links
/// are its egress links (none under sync egress); a fabric's nodes are
/// its topology's, link 0 of each its eject end.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shape {
    /// Links per node.
    pub links: Vec<usize>,
    /// Shards per node.
    pub shards: usize,
    /// Whether the nodes are a fabric's.
    pub fabric: bool,
}

/// Why a fault plan cannot run on a [`Shape`] (DESIGN.md §9.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `(node, shard)`: the node has no such shard.
    NoSuchShard(usize, usize),
    /// `node`: no such node, or a node event planned for a runtime.
    NoSuchNode(usize),
    /// `(node, link)`: the node has no such link.
    NoSuchLink(usize, usize),
    /// `node`: a fabric cable event names link 0, the eject end.
    EjectEnd(usize),
    /// `(at, until)`: a freeze that thaws no later than it freezes.
    EmptyFreeze(Cycle, Cycle),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::NoSuchShard(node, shard) => write!(f, "node {node} has no shard {shard}"),
            Self::NoSuchNode(node) => write!(f, "no node {node} to kill or revive"),
            Self::NoSuchLink(node, link) => write!(f, "node {node} has no link {link}"),
            Self::EjectEnd(node) => write!(f, "node {node}: link 0 is the eject end, no cable"),
            Self::EmptyFreeze(at, until) => write!(f, "a freeze at {at} thaws at {until}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A deterministic, replayable chaos schedule (DESIGN.md §9.5):
/// explicit builders or a seeded [`from_rng`](Self::from_rng), checked
/// by [`validate`](Self::validate) and compiled into [`Schedule`]s at
/// start. One plan serves a runtime (`RuntimeConfig::fault_plan`) and a
/// fabric (`FabricConfig::fault_plan`).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan; chain the `*_at` builders onto it.
    pub fn new() -> Self {
        Self::default()
    }

    fn with(mut self, at: Cycle, t: (usize, usize, usize), kind: FaultKind) -> Self {
        let (node, shard, link) = t;
        let target = Target { node, shard, link };
        self.events.push(FaultEvent { at, target, kind });
        self
    }

    /// Panics `shard` of `node` at `at` (a runtime is node 0).
    pub fn panic_shard_at(self, node: usize, shard: usize, at: Cycle) -> Self {
        self.with(at, (node, shard, 0), FaultKind::PanicShard)
    }

    /// Kills `node`'s `link` at `at` (in a runtime, on shard 0's clock).
    pub fn kill_link_at(self, node: usize, link: usize, at: Cycle) -> Self {
        self.with(at, (node, 0, link), FaultKind::KillLink)
    }

    /// Heals `node`'s `link` at `at`.
    pub fn heal_link_at(self, node: usize, link: usize, at: Cycle) -> Self {
        self.with(at, (node, 0, link), FaultKind::HealLink)
    }

    /// Freezes `node`'s `link` from `at` until `until`.
    pub fn freeze_at(self, node: usize, link: usize, at: Cycle, until: Cycle) -> Self {
        self.with(at, (node, 0, link), FaultKind::Freeze { until })
    }

    /// Kills fabric `node` at `at`.
    pub fn kill_node_at(self, node: usize, at: Cycle) -> Self {
        self.with(at, (node, 0, 0), FaultKind::KillNode)
    }

    /// Revives fabric `node` at `at`.
    pub fn revive_node_at(self, node: usize, at: Cycle) -> Self {
        self.with(at, (node, 0, 0), FaultKind::ReviveNode)
    }

    /// Seeded random plan for `shape`, deterministic in `rng`'s seed.
    /// Each shard of each node draws at most one event, at a geometric
    /// time with per-cycle rate `rate`, kept if it lands inside
    /// `horizon`: a shard panic or, with even odds where there are
    /// links, a link death — in a fabric a cable cut healed a geometric
    /// gap later, or (a third choice) a node killed and revived.
    /// Every link then draws freeze windows: geometric gaps and lengths
    /// at `rate`, starting inside `horizon`. Each draw reads its own
    /// stream of the workspace [`SimRng`], so adding shards or links
    /// never perturbs the others' draws.
    pub fn from_rng(rng: &SimRng, shape: &Shape, rate: f64, horizon: Cycle) -> Self {
        let mut plan = Self::new();
        let cables = usize::from(shape.fabric);
        for (node, &links) in shape.links.iter().enumerate() {
            for shard in 0..shape.shards {
                let unit = (node * shape.shards + shard) as u64;
                let mut r = rng.derive(0xFA17_0000 + unit);
                let at = r.geometric_gap(rate);
                if at > horizon {
                    continue;
                }
                plan = match r.uniform_u32(0, 1 + u32::from(shape.fabric)) {
                    1 if links > cables => {
                        let link = cables + r.index(links - cables);
                        let plan = plan.with(at, (node, shard, link), FaultKind::KillLink);
                        match shape.fabric {
                            true => plan.heal_link_at(node, link, at + r.geometric_gap(rate)),
                            false => plan,
                        }
                    }
                    2 => {
                        let later = at + r.geometric_gap(rate);
                        plan.kill_node_at(node, at).revive_node_at(node, later)
                    }
                    _ => plan.panic_shard_at(node, shard, at),
                };
            }
            for link in 0..links {
                let mut r = rng.derive(0x57A1_0000_0000 + ((node as u64) << 16) + link as u64);
                let target = (node, link % shape.shards, link);
                let mut t = r.geometric_gap(rate);
                while t < horizon {
                    let until = t.saturating_add(r.geometric_gap(rate));
                    plan = plan.with(t, target, FaultKind::Freeze { until });
                    t = until.saturating_add(r.geometric_gap(rate));
                }
            }
        }
        plan
    }

    /// Keeps only the events `keep` accepts.
    pub fn retain(mut self, keep: impl FnMut(&FaultEvent) -> bool) -> Self {
        self.events.retain(keep);
        self
    }

    /// The planned events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The first event `shape` cannot carry: an out-of-range node,
    /// shard or link, a node event outside a fabric, a fabric cable
    /// event on link 0, or a freeze with `until <= at`. `Runtime::start`
    /// and `Fabric::start` panic with its message.
    pub fn validate(&self, shape: &Shape) -> Result<(), ConfigError> {
        for ev in &self.events {
            let Target { node, shard, link } = ev.target;
            let node_event = matches!(ev.kind, FaultKind::KillNode | FaultKind::ReviveNode);
            let links = match shape.links.get(node) {
                Some(&links) if shape.fabric || !node_event => links,
                _ => return Err(ConfigError::NoSuchNode(node)),
            };
            if shard >= shape.shards {
                return Err(ConfigError::NoSuchShard(node, shard));
            }
            match ev.kind {
                FaultKind::PanicShard | FaultKind::KillNode | FaultKind::ReviveNode => {}
                _ if link >= links => return Err(ConfigError::NoSuchLink(node, link)),
                FaultKind::Freeze { until } if until <= ev.at => {
                    return Err(ConfigError::EmptyFreeze(ev.at, until))
                }
                FaultKind::KillLink | FaultKind::HealLink if shape.fabric && link == 0 => {
                    return Err(ConfigError::EjectEnd(node))
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// A compiled plan (DESIGN.md §9.5): its events sorted by when they are
/// due, plan order kept among equal dues, with a cursor and a next-due
/// word. A `Freeze` is due twice: at `at`, freezing, and at `until`,
/// thawing. A tick reads the word once, `Relaxed`; one consumer at a
/// time (a shard's worker, or the fabric's fault lock) moves the
/// cursor. The word only grows unless [`hold`](Self::hold) is set, so a
/// stale read costs a look, never an event.
pub struct Schedule {
    due: Vec<(Cycle, FaultEvent)>,
    cursor: AtomicUsize,
    next_due: AtomicU64,
}

impl Schedule {
    /// Compiles `events`.
    pub fn new(events: impl IntoIterator<Item = FaultEvent>) -> Self {
        let mut due: Vec<(Cycle, FaultEvent)> = Vec::new();
        for ev in events {
            due.push((ev.at, ev));
            if let FaultKind::Freeze { until } = ev.kind {
                if until != Cycle::MAX {
                    due.push((until, ev));
                }
            }
        }
        due.sort_by_key(|&(at, _)| at);
        Self {
            next_due: AtomicU64::new(due.first().map_or(Cycle::MAX, |d| d.0)),
            cursor: AtomicUsize::new(0),
            due,
        }
    }

    /// Whether clock value `now` may have reached an event: the one
    /// compare a tick pays.
    #[inline]
    pub fn reached(&self, now: Cycle) -> bool {
        now >= self.next_due.load(Ordering::Relaxed)
    }

    /// The next event due at `now` and the value it was due at,
    /// consumed. One consumer at a time.
    pub fn pop(&self, now: Cycle) -> Option<(Cycle, FaultEvent)> {
        let cur = self.cursor.load(Ordering::Relaxed);
        let next = *self.due.get(cur).filter(|d| d.0 <= now)?;
        self.cursor.store(cur + 1, Ordering::Relaxed);
        self.hold(false);
        Some(next)
    }

    /// `held`: every tick looks (the word reads 0) until a later
    /// `hold(false)` publishes the next due value again.
    pub fn hold(&self, held: bool) {
        let cur = self.cursor.load(Ordering::Relaxed);
        let next = match held {
            true => 0,
            false => self.due.get(cur).map_or(Cycle::MAX, |d| d.0),
        };
        self.next_due.store(next, Ordering::Relaxed);
    }

    /// Whether the schedule is held.
    pub fn held(&self) -> bool {
        self.next_due.load(Ordering::Relaxed) == 0
    }

    /// Ends the schedule: nothing is due from now on.
    pub fn stop(&self) {
        self.cursor.store(self.due.len(), Ordering::Relaxed);
        self.hold(false);
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
/// board, and each shard's compiled share of `RuntimeConfig::fault_plan`.
pub(crate) struct FaultRuntime {
    pub(crate) board: FaultBoard,
    schedules: Vec<Schedule>,
}

impl FaultRuntime {
    /// The board, and `plan` compiled per shard: each shard's worker
    /// applies the events that target it, on its own flit clock.
    pub(crate) fn new(shards: usize, plan: &FaultPlan) -> Self {
        let of = |shard| {
            plan.events()
                .iter()
                .filter(move |e| e.target.shard == shard)
        };
        Self {
            board: FaultBoard::new(shards),
            schedules: (0..shards).map(|s| Schedule::new(of(s).copied())).collect(),
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
/// boundary: beat the heartbeat and apply the events `now` reached,
/// link events to the stage's links.
pub(crate) fn fault_tick(shared: &Shared, shard: usize, now: Cycle, stage: &dyn EgressStage) {
    let fr = &shared.fault;
    fr.board.beat(shard);
    let schedule = &fr.schedules[shard];
    if !schedule.reached(now) {
        return;
    }
    while let Some((due, ev)) = schedule.pop(now) {
        let link = ev.target.link;
        match (ev.kind, stage.links()) {
            (FaultKind::PanicShard, _) => {
                panic!("shard {shard}: injected panic at cycle {now} (FaultPlan)")
            }
            (FaultKind::Freeze { until }, Some(links)) if due < until => links.freeze(link),
            (FaultKind::Freeze { .. }, Some(links)) => links.release_stall(link),
            (FaultKind::KillLink, Some(links)) => links.declare_dead(link),
            (FaultKind::HealLink, Some(links)) => links.resurrect(link),
            // `FaultPlan::validate` admits no node event into a runtime
            // plan, and no link event into one without links.
            _ => {}
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

    fn shape(links: &[usize], shards: usize, fabric: bool) -> Shape {
        let links = links.to_vec();
        Shape {
            links,
            shards,
            fabric,
        }
    }

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

    fn kinds(s: &Schedule, now: Cycle) -> Vec<(Cycle, FaultKind)> {
        std::iter::from_fn(|| s.pop(now).map(|(due, e)| (due, e.kind))).collect()
    }

    #[test]
    fn plan_builders_compile_sorted_per_shard() {
        let plan = FaultPlan::new()
            .panic_shard_at(0, 1, 500)
            .panic_shard_at(0, 0, 100)
            .freeze_at(0, 3, 200, 300);
        assert_eq!(plan.events().len(), 3);
        let fr = FaultRuntime::new(2, &plan);
        let (zero, one) = (&fr.schedules[0], &fr.schedules[1]);
        assert!(!zero.reached(99), "not due yet");
        assert_eq!(kinds(zero, 99), []);
        // Shard 0's events fire in due order regardless of insertion
        // order; the freeze is due twice.
        let freeze = FaultKind::Freeze { until: 300 };
        assert_eq!(
            kinds(zero, 250),
            [(100, FaultKind::PanicShard), (200, freeze)]
        );
        assert_eq!(kinds(zero, 100_000), [(300, freeze)], "the thaw");
        assert!(!zero.reached(u64::MAX - 1), "consumed");
        assert_eq!(kinds(one, 1_000), [(500, FaultKind::PanicShard)]);
        // An empty plan compiles to schedules nothing is ever due on.
        let none = FaultRuntime::new(4, &FaultPlan::new());
        assert!(none.schedules.iter().all(|s| s.pop(u64::MAX).is_none()));
    }

    #[test]
    fn a_forever_freeze_is_due_once_and_a_held_schedule_looks_every_tick() {
        let s = Schedule::new(
            FaultPlan::new()
                .freeze_at(0, 0, 5, Cycle::MAX)
                .events()
                .to_vec(),
        );
        assert!(s.reached(5) && !s.reached(4));
        s.hold(true);
        assert!(s.held() && s.reached(0));
        assert_eq!(s.pop(4), None, "held, not due");
        s.hold(false);
        assert_eq!(kinds(&s, Cycle::MAX).len(), 1, "no thaw scheduled");
        let stopped = Schedule::new(FaultPlan::new().panic_shard_at(0, 0, 1).events().to_vec());
        stopped.stop();
        assert_eq!(stopped.pop(Cycle::MAX), None);
    }

    #[test]
    fn from_rng_is_deterministic_and_bounded() {
        let rng = SimRng::new(42);
        let eight = shape(&[4], 8, false);
        let a = FaultPlan::from_rng(&rng, &eight, 0.001, 10_000);
        let b = FaultPlan::from_rng(&rng, &eight, 0.001, 10_000);
        assert_eq!(a.events(), b.events(), "same seed, same plan");
        for ev in a.events() {
            assert!(ev.target.shard < 8 && ev.target.link < 4);
            assert!(ev.at <= 10_000, "events land inside the horizon");
        }
        // Certain rate: every shard faults, at cycle 1.
        let sure = shape(&[0], 4, false);
        let all = FaultPlan::from_rng(&rng, &sure, 1.0, 10);
        assert_eq!(all.events().len(), 4);
        // Different seeds diverge.
        let c = FaultPlan::from_rng(&SimRng::new(43), &eight, 1.0, 10_000);
        assert_ne!(a.events(), c.events());
        // Freeze windows on one link never overlap.
        for link in 0..4 {
            let mut last_end = 0;
            for ev in a.events().iter().filter(|e| e.target.link == link) {
                if let FaultKind::Freeze { until } = ev.kind {
                    assert!(ev.at > last_end, "overlapping freezes on link {link}");
                    last_end = until;
                }
            }
        }
    }

    #[test]
    fn every_seeded_plan_validates() {
        let shapes = [
            shape(&[0], 3, false),
            shape(&[4], 2, false),
            shape(&[3, 3, 3, 3], 2, true),
        ];
        for seed in 1..=200 {
            for shape in &shapes {
                let plan = FaultPlan::from_rng(&SimRng::new(seed), shape, 1.0 / 50.0, 500);
                assert_eq!(plan.validate(shape), Ok(()), "seed {seed}, {shape:?}");
            }
        }
    }

    fn rejects(plan: FaultPlan, shape: &Shape) -> ConfigError {
        plan.validate(shape).expect_err("the plan is invalid")
    }

    #[test]
    fn validate_rejects_an_out_of_range_shard() {
        let runtime = shape(&[2], 2, false);
        let err = rejects(FaultPlan::new().panic_shard_at(0, 7, 10), &runtime);
        assert_eq!(err, ConfigError::NoSuchShard(0, 7));
    }

    #[test]
    fn validate_rejects_an_out_of_range_node() {
        let fabric = shape(&[3, 3], 1, true);
        let err = rejects(FaultPlan::new().kill_node_at(2, 10), &fabric);
        assert_eq!(err, ConfigError::NoSuchNode(2));
        // A runtime is one node, and nothing kills it.
        let runtime = shape(&[2], 1, false);
        let err = rejects(FaultPlan::new().kill_node_at(0, 10), &runtime);
        assert_eq!(err, ConfigError::NoSuchNode(0));
    }

    #[test]
    fn validate_rejects_an_out_of_range_link() {
        // Sync egress has no links at all.
        let sync = shape(&[0], 1, false);
        let err = rejects(FaultPlan::new().kill_link_at(0, 0, 10), &sync);
        assert_eq!(err, ConfigError::NoSuchLink(0, 0));
    }

    #[test]
    fn validate_rejects_a_cable_event_on_the_eject_end() {
        let fabric = shape(&[3, 3], 1, true);
        let err = rejects(FaultPlan::new().heal_link_at(1, 0, 10), &fabric);
        assert_eq!(err, ConfigError::EjectEnd(1));
        // A freeze of the eject end is a slow sink, which is fine.
        let frozen = FaultPlan::new().freeze_at(1, 0, 10, 20);
        assert_eq!(frozen.validate(&fabric), Ok(()));
    }

    #[test]
    fn validate_rejects_a_freeze_that_never_starts() {
        let runtime = shape(&[2], 1, false);
        let err = rejects(FaultPlan::new().freeze_at(0, 1, 10, 10), &runtime);
        assert_eq!(err, ConfigError::EmptyFreeze(10, 10));
    }
}

#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! `err-runtime` — a sharded multi-core scheduling runtime around
//! `err-sched`'s Elastic Round Robin scheduler.
//!
//! The paper's case for Elastic Round Robin is that its O(1),
//! length-oblivious decision rule is cheap enough to run at link rate in
//! switch hardware. This crate is the serving substrate that claim
//! implies: many producers submitting packets concurrently, scheduled
//! across several independent egress links, with bounded memory under
//! overload and a deterministic way to stop.
//!
//! # Architecture
//!
//! ```text
//!  producers (any thread)
//!     │  submit(Packet)          O(1): admission RMW + ring CAS
//!     ▼
//!  [AdmissionController]         per-flow flit caps: drop / reject / wait
//!     │
//!     ├── hash(flow) ──► shard 0: [MpscRing] ─► worker: ErrScheduler ─► egress
//!     ├───────────────► shard 1: [MpscRing] ─► worker: ErrScheduler ─► egress
//!     └───────────────► shard N: [MpscRing] ─► worker: ErrScheduler ─► egress
//!                                  │
//!                                  └─ one ShardStats per shard ─► RuntimeStats
//!                                     (a producers' line, two worker lines)
//! ```
//!
//! * Flows are hash-partitioned ([`home_shard`]) for the life of the
//!   runtime, so each flow's packets always meet the same scheduler:
//!   per-flow FIFO and ERR's fairness guarantees hold per shard with no
//!   cross-shard coordination, and nothing ever moves a flow (DESIGN.md
//!   §8).
//! * Each shard worker steps a private `ErrScheduler` through batched
//!   intake and service, one flit per cycle of the shard's flit clock
//!   (the paper's egress-link model); a driver per thread does every
//!   wait. ERR decides without knowing what a packet will cost, which
//!   in a wormhole switch is unknown until its tail leaves.
//! * [`AdmissionController`] bounds each flow's outstanding flits;
//!   [`RuntimeStats`] merges each shard's one block of lock-free
//!   counters, and the links' watchdog results, on demand;
//!   [`Runtime::shutdown`] drains to empty and joins every worker.
//! * [`EgressMode::Buffered`] puts `err-egress` between scheduler and
//!   sink: per-shard SPSC output rings, per-link credits, and flow
//!   parking so a stalled downstream freezes only its own flows.
//! * Every submit is one attempt that never waits — an admission try,
//!   a ring push, and a wake of the shard's worker where it stops short
//!   — run once by [`RuntimeHandle::try_submit`], which a fabric hop
//!   hands a packet on with, and retried with a yield by
//!   [`RuntimeHandle::submit`] and [`RuntimeHandle::submit_within`]
//!   (DESIGN.md §9.4). No worker step reaches a wait.
//! * Fault tolerance (DESIGN.md §9): workers that catch their own panic
//!   and step on in place, nothing lost; dead-link failover; bounded
//!   shutdown ([`Runtime::shutdown_within`]) and submit
//!   ([`RuntimeHandle::submit_within`]); and a seeded [`FaultPlan`]
//!   that replays shard and link faults deterministically.
//!
//! # Quick example
//!
//! ```
//! use err_runtime::{Runtime, RuntimeConfig};
//! use err_sched::Packet;
//!
//! let (runtime, handle) = Runtime::start(RuntimeConfig {
//!     shards: 2,
//!     n_flows: 8,
//!     ..RuntimeConfig::default()
//! });
//! for id in 0..64 {
//!     let flow = (id % 8) as usize;
//!     handle.submit(Packet::new(id, flow, 4, 0)).unwrap();
//! }
//! let report = runtime.shutdown();
//! assert_eq!(report.served_packets(), 64);
//! assert!(report.is_conserving());
//! ```

mod admission;
pub mod channel;
mod drain;
mod fault;
pub mod gate;
mod ingress;
mod shard;
mod stats;
mod sync;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use err_egress::{spsc_ring, FlusherCore, LinkSet};
use err_sched::{Discipline, ServedFlit};

pub use admission::{AdmissionController, AdmissionPolicy, AdmitDecision};
pub use drain::{DrainReport, ShardExit};
pub use err_egress::{BufferedConfig, DeadLinkPolicy, Egress, EgressController, LinkState};
pub use fault::{
    ConfigError, FaultBoard, FaultEvent, FaultKind, FaultPlan, Schedule, Shape, Target,
};
pub use ingress::{home_shard, RuntimeHandle, SubmitError, Submitted};
pub use stats::{EgressSnapshot, RuntimeStats, ShardSnapshot};

use ingress::Shared;

/// Wraps a per-shard sink that may be absent; the flusher step requires
/// a concrete [`Egress`] value either way.
struct OptionalSink<E>(Option<E>);

impl<E: Egress> Egress for OptionalSink<E> {
    fn emit(&mut self, shard: usize, flit: &ServedFlit) {
        if let Some(sink) = self.0.as_mut() {
            sink.emit(shard, flit);
        }
    }

    // Must forward rather than inherit the default: the default
    // delegates to `emit`, and a refusing sink (a fabric forwarder)
    // implements refusal by *blocking* in `emit` — which would wedge
    // the worker on one flit and starve its other links.
    fn try_emit(&mut self, shard: usize, flit: &ServedFlit) -> bool {
        match self.0.as_mut() {
            Some(sink) => sink.try_emit(shard, flit),
            None => true,
        }
    }

    fn dead_lettered(&mut self, shard: usize, flit: &ServedFlit) {
        if let Some(sink) = self.0.as_mut() {
            sink.dead_lettered(shard, flit);
        }
    }

    // Must forward too: behind the default no-op a fabric forwarder
    // never learns a step began, and reads the clock for every tail.
    fn step_begins(&mut self, shard: usize) {
        if let Some(sink) = self.0.as_mut() {
            sink.step_begins(shard);
        }
    }
}

/// How served flits reach the downstream sink.
#[derive(Clone, Debug, Default)]
pub enum EgressMode {
    /// Legacy path: the worker calls the sink inline for every flit. A
    /// slow or stalled sink freezes the shard's whole flit clock.
    #[default]
    Sync,
    /// Credit-based asynchronous path (`err-egress`): per-shard output
    /// rings drained by a flusher step each worker runs after every
    /// service chunk, per-link credits, flow parking on stall.
    Buffered(BufferedConfig),
}

/// Configuration of a [`Runtime`].
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of shards (worker threads / independent egress links).
    pub shards: usize,
    /// Size of the flow-id space; flows are `0..n_flows`.
    pub n_flows: usize,
    /// Must be [`Discipline::Err`], the default: every shard runs ERR,
    /// and [`Runtime::start`] panics on anything else. Removed when the
    /// benchmark stops naming it.
    pub discipline: Discipline,
    /// Per-shard ingress ring capacity (rounded up to a power of two).
    pub ring_capacity: usize,
    /// Max packets pulled from the ring per worker step.
    pub batch_packets: usize,
    /// Max flits served per worker step.
    pub batch_flits: usize,
    /// Overload policy; [`AdmissionPolicy::Unlimited`] turns capping off.
    pub admission: AdmissionPolicy,
    /// Egress coupling; [`EgressMode::Sync`] is the legacy inline path.
    pub egress: EgressMode,
    /// Deterministic fault injection (DESIGN.md §9.5), each event on its
    /// target shard's flit clock, but a link event due at 0 before any
    /// worker starts; [`Runtime::start`] panics on a plan
    /// [`FaultPlan::validate`] rejects for [`shape`](Self::shape).
    pub fault_plan: Option<FaultPlan>,
}

impl RuntimeConfig {
    /// What a fault plan may name here: one node of `shards` shards,
    /// whose links are the buffered stage's (none under sync egress).
    pub fn shape(&self) -> Shape {
        let links = match &self.egress {
            EgressMode::Sync => 0,
            EgressMode::Buffered(bc) => bc.n_links,
        };
        Shape {
            links: vec![links],
            shards: self.shards,
            fabric: false,
        }
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            n_flows: 64,
            discipline: Discipline::Err,
            ring_capacity: 1024,
            batch_packets: 64,
            batch_flits: 256,
            admission: AdmissionPolicy::Unlimited,
            egress: EgressMode::Sync,
            fault_plan: None,
        }
    }
}

/// A running sharded scheduling runtime. Dropping it without calling
/// [`shutdown`](Self::shutdown) also drains cleanly (via `Drop`), but
/// `shutdown` is the API that returns the final accounting.
pub struct Runtime {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<u64>>,
    /// Buffered-mode state; `None` under [`EgressMode::Sync`].
    egress: Option<EgressController>,
    drained: AtomicBool,
}

/// Interval at which the deadline drain polls worker exits
/// (DESIGN.md §9.4: `shutdown_within` returns within the deadline plus
/// at most one of these).
const DRAIN_POLL: Duration = Duration::from_millis(1);

impl Runtime {
    /// Starts the runtime: spawns one worker per shard, each owning a
    /// fresh `ErrScheduler`. Returns the runtime and a cloneable
    /// producer handle.
    pub fn start(config: RuntimeConfig) -> (Self, RuntimeHandle) {
        // `fn` item: any no-op sink type works, `E` just needs naming.
        Self::start_with_egress(config, |_shard| None::<fn(usize, &ServedFlit)>)
    }

    /// Like [`start`](Self::start), but `egress(shard)` may return a
    /// sink every served flit of that shard is fed through (e.g. to
    /// forward downstream or record departures for delay measurement).
    /// Any `FnMut(usize, &ServedFlit) + Send` closure is a sink; so is
    /// any [`Egress`] implementation.
    ///
    /// Under [`EgressMode::Sync`] the shard worker calls the sink
    /// inline. Under [`EgressMode::Buffered`] the worker commits flits
    /// to the output ring and, after every service chunk, runs the
    /// flusher step that offers them to the sink's `try_emit`, which
    /// accepts or refuses at once and never blocks (DESIGN.md §7): a
    /// sink whose downstream may block refuses the flit and feeds that
    /// downstream from a thread of its own ([`Egress`] shows the
    /// pattern). Either way the runtime starts one thread per shard and
    /// no other.
    pub fn start_with_egress<E: Egress + 'static>(
        config: RuntimeConfig,
        mut egress: impl FnMut(usize) -> Option<E>,
    ) -> (Self, RuntimeHandle) {
        assert!(config.shards >= 1, "need at least one shard");
        assert!(config.batch_flits >= 1 && config.batch_packets >= 1);
        assert!(
            config.discipline == Discipline::Err,
            "the runtime runs ERR only, got {:?}",
            config.discipline
        );
        let plan = config.fault_plan.clone().unwrap_or_default();
        if let Err(e) = plan.validate(&config.shape()) {
            panic!("fault plan: {e}");
        }
        let shared = Arc::new(Shared::new(&config, &plan));
        let mut controller = None;
        // The one place an `EgressMode` is matched: each shard gets the
        // stage that mode means, and nothing downstream asks again.
        let stages: Vec<Box<dyn shard::EgressStage>> = match &config.egress {
            EgressMode::Sync => (0..config.shards)
                .map(|shard| {
                    let sink = OptionalSink(egress(shard));
                    let stage = shard::SyncStage::new(shard, sink, config.batch_flits);
                    Box::new(stage) as Box<dyn shard::EgressStage>
                })
                .collect(),
            EgressMode::Buffered(bc) => {
                let mut links = LinkSet::with_routing(
                    bc.n_links,
                    bc.credits,
                    bc.dead_link_deadline,
                    bc.dead_link_policy,
                    bc.route_table.clone(),
                );
                // Every shard's flusher step returns credits to this
                // one set, and every worker steps past its links, so
                // each must be able to wake every worker.
                links.set_credit_waiters(shared.wakes.clone());
                let links = Arc::new(links);
                let mut stages = Vec::with_capacity(config.shards);
                for shard in 0..config.shards {
                    let (tx, rx) = spsc_ring::<ServedFlit>(bc.ring_capacity);
                    let stage = shard::BufferedStage::new(
                        (tx, FlusherCore::new(shard, rx, bc.n_links)),
                        OptionalSink(egress(shard)),
                        Arc::clone(&links),
                        config.n_flows,
                    );
                    stages.push(Box::new(stage) as Box<dyn shard::EgressStage>);
                }
                controller = Some(EgressController::new(links));
                stages
            }
        };
        // Link events at 0 fire before traffic starts.
        for (shard, stage) in stages.iter().enumerate() {
            shared.fault.apply_at_start(shard, stage.links());
        }
        let workers = stages
            .into_iter()
            .enumerate()
            .map(|(shard, stage)| {
                let state = shard::WorkerState::new(shard, &config, stage);
                spawn_worker(Arc::clone(&shared), state)
            })
            .collect();

        let handle = RuntimeHandle {
            shared: Arc::clone(&shared),
        };
        (
            Self {
                shared,
                workers,
                egress: controller,
                drained: AtomicBool::new(false),
            },
            handle,
        )
    }

    /// A cloneable producer handle.
    pub fn handle(&self) -> RuntimeHandle {
        RuntimeHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Live merged statistics (egress counters included in buffered
    /// mode).
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats::collect(&self.shared.stats, self.links())
    }

    /// The buffered stage's link set; `None` under [`EgressMode::Sync`].
    fn links(&self) -> Option<&LinkSet> {
        self.egress.as_ref().map(|ctrl| &**ctrl.links())
    }

    /// The egress controller: freeze/thaw links while running. `None`
    /// under [`EgressMode::Sync`].
    pub fn egress_controller(&self) -> Option<&EgressController> {
        self.egress.as_ref()
    }

    /// Gracefully drains and stops the runtime: closes admission, lets
    /// every shard serve its residual backlog to completion, joins all
    /// workers in shard order, and returns the final accounting. Worker
    /// panics are reported in [`DrainReport::exits`], never re-thrown.
    pub fn shutdown(mut self) -> DrainReport {
        self.drain_within(None)
    }

    /// Bounded shutdown (DESIGN.md §9.4): the three-rung ladder
    /// *graceful drain → forced abort → abandon*. The runtime drains
    /// gracefully until the deadline minus a small grace budget, then
    /// raises the abort flag (workers stop serving and count residuals
    /// lost, [`DrainReport::forced`]), and any worker still running at
    /// the deadline is left behind as [`ShardExit::Abandoned`]. Returns
    /// within `deadline` plus at most one drain poll (~1 ms) under any
    /// fault pattern — the call that must come back even when links or
    /// shards never will.
    pub fn shutdown_within(mut self, deadline: Duration) -> DrainReport {
        self.drain_within(Some(deadline))
    }

    /// The fault board: per-shard death/recovery timestamps
    /// (DESIGN.md §9.1).
    pub fn fault_board(&self) -> &FaultBoard {
        &self.shared.fault.board
    }

    fn drain_within(&mut self, timeout: Option<Duration>) -> DrainReport {
        self.drained.store(true, Ordering::Relaxed);
        // Dekker pairing with the in-flight counter in `submit` (see
        // `DrainGate`) so workers never miss a late producer.
        self.shared.gate.close();
        // Buffered mode: enter drain *before* joining workers. Frozen
        // links stop blocking, so the flusher steps deliver their
        // pending flits, credits flow back, and workers can unpark
        // stalled flows and serve out their backlog — without this
        // ordering an indefinitely stalled link would deadlock the join
        // below.
        // (Dead links are *not* released by draining — §9.3.)
        if let Some(ctrl) = &self.egress {
            ctrl.links().set_draining(true);
        }
        let start = Instant::now();
        // Reserve a slice of the budget for the forced-abort rung, so
        // workers have time to run their residue accounting before the
        // abandon rung fires.
        let graceful_deadline = timeout.map(|t| {
            let grace = (t / 2).min(Duration::from_millis(50));
            start + (t - grace)
        });
        let final_deadline = timeout.map(|t| start + t);
        let mut forced = false;
        loop {
            // Wake idle workers; they would wake at the park timeout
            // anyway, this shaves the last <=100us per shard.
            for cell in &self.shared.wakes {
                cell.wake();
            }
            if self.workers.iter().all(|w| w.is_finished()) {
                break;
            }
            let now = Instant::now();
            if let Some(g) = graceful_deadline {
                if !forced && now >= g {
                    forced = true;
                    self.shared.gate.abort();
                }
            }
            if let Some(f) = final_deadline {
                if now >= f {
                    break;
                }
            }
            if timeout.is_some() {
                std::thread::sleep(DRAIN_POLL);
            } else {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        let mut shard_cycles = Vec::with_capacity(self.workers.len());
        let mut exits = Vec::with_capacity(self.workers.len());
        for (shard, worker) in self.workers.drain(..).enumerate() {
            // A worker that panicked resumed and returned normally; the
            // death stamp remembers it (§9.2).
            let died = || self.shared.fault.board.death_micros(shard).is_some();
            let (exit, cycles) = if timeout.is_some() && !worker.is_finished() {
                // Abandon rung: the thread is wedged past the deadline;
                // detach it and record the hole in the accounting.
                (ShardExit::Abandoned, 0)
            } else {
                match worker.join() {
                    Ok(cycles) if died() => (ShardExit::Panicked, cycles),
                    Ok(cycles) => (ShardExit::Clean, cycles),
                    Err(_) => (ShardExit::Panicked, 0),
                }
            };
            exits.push(exit);
            shard_cycles.push(cycles);
        }
        if let Some(links) = self.links() {
            // Close any still-open stall windows so the watchdog
            // accounts for stalls that outlived the run.
            links.release_all_stalls();
        }
        DrainReport {
            stats: self.stats(),
            shard_cycles,
            exits,
            forced,
        }
    }
}

/// Spawns `state.shard`'s worker thread, the shard's only one for
/// the life of the runtime (§9.2).
fn spawn_worker(shared: Arc<Shared>, state: shard::WorkerState) -> JoinHandle<u64> {
    // panic-policy: a worker panic is a modeled fault (§9), caught by
    // `run_shard`'s own fence: the driver steps on, on this thread, and
    // drain records `ShardExit::Panicked` from the death stamp.
    std::thread::Builder::new()
        .name(format!("err-shard-{}", state.shard))
        .spawn(move || {
            set_timer_slack();
            shard::run_shard(shared, state)
        })
        .expect("spawning shard worker")
}

/// Timer slack of a shard worker, ns: how late the kernel may end the
/// worker's timed parks (DESIGN.md §6). Linux's default, 50 µs, is paid
/// in full on every `PARK_TIMEOUT` arrival poll that no wake ends.
#[cfg(target_os = "linux")]
const WORKER_TIMER_SLACK_NS: std::ffi::c_ulong = 1_000;

/// Sets the calling thread's timer slack to [`WORKER_TIMER_SLACK_NS`].
/// Best effort: a kernel that refuses leaves the default.
#[cfg(target_os = "linux")]
fn set_timer_slack() {
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned-long argument, the
    // slack in ns, and changes only the calling thread's timer slack;
    // no pointer crosses the call.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, WORKER_TIMER_SLACK_NS) };
}

#[cfg(not(target_os = "linux"))]
fn set_timer_slack() {}

/// How long a runtime dropped during a panic drains before the forced
/// abort and then the abandon rung (§9.4). A test that fails while a
/// worker is wedged — a sink that refuses forever, a link frozen past
/// the drain — must report its failure, not hang its runner; a second
/// is far beyond the drain of any runtime a passing test drops.
const PANIC_DROP_DEADLINE: Duration = Duration::from_secs(1);

impl Drop for Runtime {
    fn drop(&mut self) {
        if !self.drained.load(Ordering::Relaxed) {
            let bound = std::thread::panicking().then_some(PANIC_DROP_DEADLINE);
            self.drain_within(bound);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use err_sched::Packet;

    #[cfg(target_os = "linux")]
    #[test]
    fn a_worker_thread_sets_its_timer_slack() {
        extern "C" {
            fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
        }
        const PR_GET_TIMERSLACK: std::ffi::c_int = 30;
        let slack = std::thread::spawn(|| {
            set_timer_slack();
            // SAFETY: PR_GET_TIMERSLACK takes no argument and returns
            // the calling thread's timer slack in ns.
            unsafe { prctl(PR_GET_TIMERSLACK) }
        })
        .join()
        .unwrap();
        assert_eq!(slack as std::ffi::c_ulong, WORKER_TIMER_SLACK_NS);
    }

    #[test]
    fn start_submit_drain_conserves() {
        let (rt, handle) = Runtime::start(RuntimeConfig {
            shards: 2,
            n_flows: 8,
            ..RuntimeConfig::default()
        });
        let mut flits = 0u64;
        for id in 0..500u64 {
            let len = 1 + (id % 7) as u32;
            flits += len as u64;
            assert_eq!(
                handle.submit(Packet::new(id, (id % 8) as usize, len, 0)),
                Ok(Submitted::Enqueued)
            );
        }
        let report = rt.shutdown();
        assert!(report.is_conserving(), "{report:?}");
        assert_eq!(report.served_packets(), 500);
        assert_eq!(report.stats.served_flits(), flits);
        assert_eq!(report.dropped_packets(), 0);
    }

    #[test]
    fn buffered_mode_conserves_and_reports_egress() {
        use std::sync::atomic::AtomicU64;
        let delivered = Arc::new(AtomicU64::new(0));
        let d2 = Arc::clone(&delivered);
        let (rt, handle) = Runtime::start_with_egress(
            RuntimeConfig {
                shards: 2,
                n_flows: 8,
                egress: EgressMode::Buffered(BufferedConfig {
                    ring_capacity: 64,
                    credits: 8,
                    n_links: 2,
                    ..BufferedConfig::default()
                }),
                ..RuntimeConfig::default()
            },
            move |_shard| {
                let d = Arc::clone(&d2);
                Some(move |_s: usize, f: &err_sched::ServedFlit| {
                    d.fetch_add(f.is_tail() as u64, Ordering::Relaxed);
                })
            },
        );
        let mut flits = 0u64;
        for id in 0..800u64 {
            let len = 1 + (id % 6) as u32;
            flits += len as u64;
            handle
                .submit(Packet::new(id, (id % 8) as usize, len, 0))
                .unwrap();
        }
        let report = rt.shutdown();
        assert!(report.is_conserving(), "{report:?}");
        assert_eq!(report.served_packets(), 800);
        assert_eq!(
            delivered.load(Ordering::Relaxed),
            800,
            "every tail delivered"
        );
        let egress = report
            .stats
            .egress
            .as_ref()
            .expect("buffered mode snapshots egress");
        assert_eq!(
            report.stats.flushed_flits(),
            flits,
            "no flit stranded in a ring"
        );
        assert!(egress.peak_ring_occupancy() <= 64 + 1);
        let per_link: u64 = egress.links.iter().map(|l| l.delivered_flits).sum();
        assert_eq!(per_link, flits, "link accounting matches");
        let per_shard = report.stats.shards.iter().map(|s| s.flushed_flits);
        assert_eq!(
            per_shard.sum::<u64>(),
            per_link,
            "shards flushed what links delivered"
        );
        for l in &egress.links {
            assert_eq!(l.credits_available, 8, "all credits returned");
            assert!(l.outstanding_peak <= 8, "credit pool bound respected");
        }
        // Human-readable Display covers the egress section.
        assert!(report.stats.to_string().contains("egress:"));
    }

    #[test]
    #[should_panic(expected = "the runtime runs ERR only")]
    fn start_rejects_a_non_err_discipline() {
        let _ = Runtime::start(RuntimeConfig {
            discipline: Discipline::Drr { quantum: 8 },
            ..RuntimeConfig::default()
        });
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let (rt, handle) = Runtime::start(RuntimeConfig::default());
        handle.submit(Packet::new(0, 0, 3, 0)).unwrap();
        let report = rt.shutdown();
        assert_eq!(report.served_packets(), 1);
        assert_eq!(
            handle.submit(Packet::new(1, 0, 3, 0)),
            Err(SubmitError::Closed)
        );
    }

    #[test]
    fn drop_without_shutdown_joins_workers() {
        let (rt, handle) = Runtime::start(RuntimeConfig {
            shards: 3,
            ..RuntimeConfig::default()
        });
        for id in 0..50u64 {
            handle
                .submit(Packet::new(id, (id % 5) as usize, 2, 0))
                .unwrap();
        }
        drop(rt); // must not hang or leak threads
        assert!(handle.is_closed());
    }

    #[test]
    fn drop_while_panicking_drains_within_a_bound() {
        // A sink that refuses every flit, and no dead-link deadline to
        // declare its link dead: a graceful drain never ends.
        struct Refuse;
        impl Egress for Refuse {
            fn emit(&mut self, _shard: usize, _flit: &err_sched::ServedFlit) {}
            fn try_emit(&mut self, _shard: usize, _flit: &err_sched::ServedFlit) -> bool {
                false
            }
        }
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let unwound = std::panic::catch_unwind(|| {
                let (_rt, handle) = Runtime::start_with_egress(
                    RuntimeConfig {
                        shards: 2,
                        n_flows: 4,
                        egress: EgressMode::Buffered(BufferedConfig {
                            credits: 4,
                            n_links: 2,
                            dead_link_deadline: None,
                            ..BufferedConfig::default()
                        }),
                        ..RuntimeConfig::default()
                    },
                    |_shard| Some(Refuse),
                );
                for id in 0..16u64 {
                    handle
                        .submit(Packet::new(id, (id % 4) as usize, 2, 0))
                        .unwrap();
                }
                panic!("a failing assertion with the runtime in scope");
            });
            let _ = done.send(unwound.is_err());
        });
        let unwound = finished
            .recv_timeout(Duration::from_secs(30))
            .expect("a runtime dropped during a panic hung its drain past 30 s");
        assert!(unwound);
    }

    #[test]
    fn an_optional_sink_forwards_every_step_begins() {
        struct Recording(Arc<std::sync::atomic::AtomicU64>);
        impl Egress for Recording {
            fn emit(&mut self, _shard: usize, _flit: &ServedFlit) {}
            fn try_emit(&mut self, _shard: usize, _flit: &ServedFlit) -> bool {
                true
            }
            fn step_begins(&mut self, _shard: usize) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let steps = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut sink = OptionalSink(Some(Recording(Arc::clone(&steps))));
        let links = LinkSet::new(1, 8);
        let (mut tx, rx) = spsc_ring(8);
        let mut core = FlusherCore::new(0, rx, 1);
        for step in 1..=5u64 {
            assert!(links.try_acquire(0));
            tx.push(ServedFlit::of(&Packet::new(step, 0, 1, 0), 0))
                .unwrap();
            assert_eq!(core.step(&links, None, &mut sink), 1);
            assert_eq!(steps.load(Ordering::Relaxed), step, "one call per step");
        }
        core.step(&links, None, &mut sink);
        assert_eq!(steps.load(Ordering::Relaxed), 6, "an empty step too");
    }

    #[test]
    fn egress_sees_every_flit_in_order_per_shard() {
        use std::sync::{Arc, Mutex};
        let seen: Arc<Mutex<Vec<Vec<err_sched::ServedFlit>>>> =
            Arc::new(Mutex::new(vec![Vec::new(); 2]));
        let seen2 = Arc::clone(&seen);
        let (rt, handle) = Runtime::start_with_egress(
            RuntimeConfig {
                shards: 2,
                n_flows: 4,
                ..RuntimeConfig::default()
            },
            move |shard| {
                let seen = Arc::clone(&seen2);
                Some(move |_s: usize, flit: &err_sched::ServedFlit| {
                    seen.lock().unwrap()[shard].push(*flit);
                })
            },
        );
        let mut total = 0u64;
        for id in 0..100u64 {
            let len = 1 + (id % 5) as u32;
            total += len as u64;
            handle
                .submit(Packet::new(id, (id % 4) as usize, len, 0))
                .unwrap();
        }
        rt.shutdown();
        let seen = seen.lock().unwrap();
        let flits: usize = seen.iter().map(|v| v.len()).sum();
        assert_eq!(flits as u64, total);
        // Within a shard, a packet's flits are contiguous and ordered
        // (the wormhole constraint holds per egress link).
        for shard in seen.iter() {
            let mut open: Option<(u64, u32)> = None;
            for f in shard {
                match open {
                    None => assert!(f.is_head(), "packet must start at flit 0"),
                    Some((p, i)) => {
                        assert_eq!(f.packet, p, "flits of packets interleaved");
                        assert_eq!(f.flit_index, i + 1);
                    }
                }
                open = if f.is_tail() {
                    None
                } else {
                    Some((f.packet, f.flit_index))
                };
            }
            assert!(open.is_none(), "last packet incomplete");
        }
    }
}

//! Integration tests for the credit-based buffered egress stage: stall
//! isolation (the tentpole claim), drain conservation under an active
//! stall, bounded buffering, and sync/buffered equivalence.
//!
//! The isolation test measures wall-clock delivered flits because the
//! claim under test is about *decoupling real threads*: a frozen
//! downstream must not slow the other links' delivery rate. Ratios are
//! taken between back-to-back runs on the same machine, so absolute
//! machine speed cancels out.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use err_runtime::{
    AdmissionPolicy, BufferedConfig, DeadLinkPolicy, DrainReport, Egress, EgressMode, FaultKind,
    FaultPlan, Runtime, RuntimeConfig, RuntimeHandle, RuntimeStats, Shape, ShardExit, Threaded,
};
use err_sched::{Packet, ServedFlit};

// 64 flows over 4 links: every shard's partition contains flows of
// every link, so a dead link 0 touches all shards in both modes.
const N_LINKS: usize = 4;
const N_FLOWS: usize = 64;
const PACKET_LEN: u32 = 4;

/// Held by every test in this file. Several verdicts here are a
/// wall-clock ratio or a count of timeouts, and the harness runs a
/// file's tests on parallel threads: a second saturating runtime on a
/// shared core skews them (it also starves the producer of the
/// hand-off test, whose worker then idles on its timer by design).
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner())
}

fn buffered() -> EgressMode {
    EgressMode::Buffered(BufferedConfig {
        ring_capacity: 256,
        credits: 32,
        n_links: N_LINKS,
        ..BufferedConfig::default()
    })
}

/// Link 0 frozen from shard 0's flit-clock 0, for good.
fn link0_frozen() -> FaultPlan {
    FaultPlan::new().freeze_at(0, 0, 0, u64::MAX)
}

/// Runs a saturating workload for `window`, returning flits delivered
/// per link during that window. `sync_frozen` (sync mode only) makes
/// the sink block on link-0 flits while set — the synchronous
/// equivalent of a dead downstream.
fn measure_delivered(
    egress: EgressMode,
    fault_plan: Option<FaultPlan>,
    sync_frozen: Option<Arc<AtomicBool>>,
    window: Duration,
) -> Vec<u64> {
    let delivered: Arc<Vec<AtomicU64>> =
        Arc::new((0..N_LINKS).map(|_| AtomicU64::new(0)).collect());
    let d2 = Arc::clone(&delivered);
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 4,
            n_flows: N_FLOWS,
            // Drop-tail keeps producers non-blocking when the stalled
            // link's flows stop being served.
            admission: AdmissionPolicy::DropTail { max_backlog: 64 },
            egress,
            fault_plan,
            ..RuntimeConfig::default()
        },
        move |_shard| {
            let delivered = Arc::clone(&d2);
            let frozen = sync_frozen.clone();
            Some(move |_s: usize, f: &ServedFlit| {
                let link = f.flow % N_LINKS;
                if link == 0 {
                    if let Some(flag) = &frozen {
                        while flag.load(Ordering::Acquire) {
                            std::thread::sleep(Duration::from_micros(100));
                        }
                    }
                }
                delivered[link].fetch_add(1, Ordering::Relaxed);
            })
        },
    );
    let deadline = Instant::now() + window;
    let mut id = 0u64;
    while Instant::now() < deadline {
        for _ in 0..64 {
            let _ = handle.submit(Packet::new(
                id,
                (id % N_FLOWS as u64) as usize,
                PACKET_LEN,
                0,
            ));
            id += 1;
        }
    }
    let counts: Vec<u64> = delivered
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect();
    rt.shutdown();
    counts
}

fn unstalled_sum(counts: &[u64]) -> u64 {
    counts.iter().skip(1).sum()
}

/// The buffered stage's acceptance check: with 1 of 4 links dead under
/// buffered egress, the other links keep >= 90% of their no-stall
/// throughput; the legacy sync path collapses in the same scenario.
#[test]
fn stalled_link_isolation_buffered_while_sync_collapses() {
    let _alone = one_at_a_time();
    let window = Duration::from_millis(250);

    // Buffered: baseline, then with link 0 frozen from flit-clock 0.
    let base_buf = measure_delivered(buffered(), None, None, window);
    let stall_buf = measure_delivered(buffered(), Some(link0_frozen()), None, window);
    let (base, stalled) = (unstalled_sum(&base_buf), unstalled_sum(&stall_buf));
    assert!(
        base > 10_000,
        "baseline too slow to be meaningful: {base_buf:?}"
    );
    assert!(
        stalled as f64 >= 0.9 * base as f64,
        "buffered isolation failed: unstalled links delivered {stalled} with link 0 \
         frozen vs {base} baseline (< 90%)"
    );
    assert!(
        stall_buf[0] <= 256 + 32,
        "frozen link 0 delivered {} flits, beyond ring + credit bound",
        stall_buf[0]
    );

    // Sync: the same dead downstream freezes entire shards.
    let base_sync = measure_delivered(EgressMode::Sync, None, None, window);
    let frozen = Arc::new(AtomicBool::new(true));
    let f2 = Arc::clone(&frozen);
    // Unfreeze from a watchdog thread after the window so shutdown
    // completes; measurement has already ended by then.
    let unfreezer = std::thread::spawn(move || {
        std::thread::sleep(window + Duration::from_millis(50));
        f2.store(false, Ordering::Release);
    });
    let stall_sync = measure_delivered(EgressMode::Sync, None, Some(frozen), window);
    unfreezer.join().unwrap();
    let (base_s, stalled_s) = (unstalled_sum(&base_sync), unstalled_sum(&stall_sync));
    assert!(
        (stalled_s as f64) < 0.5 * base_s as f64,
        "sync mode should collapse: unstalled links delivered {stalled_s} of {base_s} \
         baseline with link 0 blocking"
    );
}

/// Shutdown in the middle of an indefinite stall strands nothing: every
/// accepted flit reaches the sink, per-(shard, link) wormhole
/// contiguity holds across the stall, and the watchdog accounts for the
/// never-released stall.
#[test]
fn drain_with_active_stall_strands_no_flit() {
    let _alone = one_at_a_time();
    const SHARDS: usize = 2;
    let streams: Arc<Vec<Mutex<Vec<ServedFlit>>>> =
        Arc::new((0..SHARDS).map(|_| Mutex::new(Vec::new())).collect());
    let s2 = Arc::clone(&streams);
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: SHARDS,
            n_flows: N_FLOWS,
            egress: EgressMode::Buffered(BufferedConfig {
                ring_capacity: 64,
                credits: 8,
                n_links: N_LINKS,
                ..BufferedConfig::default()
            }),
            fault_plan: Some(link0_frozen()),
            ..RuntimeConfig::default()
        },
        move |shard| {
            let streams = Arc::clone(&s2);
            Some(move |_s: usize, f: &ServedFlit| {
                streams[shard].lock().unwrap().push(*f);
            })
        },
    );
    let mut flits = 0u64;
    for id in 0..2_000u64 {
        let len = 1 + (id % 5) as u32;
        flits += len as u64;
        handle
            .submit(Packet::new(id, (id % N_FLOWS as u64) as usize, len, 0))
            .unwrap();
    }
    // Let the stall bite (some link-0 flows must park) before draining.
    std::thread::sleep(Duration::from_millis(30));
    let report = rt.shutdown();

    assert!(report.is_conserving(), "{report:?}");
    assert_eq!(report.served_packets(), 2_000);
    let egress = report.stats.egress.as_ref().expect("buffered snapshot");
    assert_eq!(
        egress.flushed_flits(),
        flits,
        "drain left flits in a ring or pending queue"
    );
    let seen: usize = streams.iter().map(|s| s.lock().unwrap().len()).sum();
    assert_eq!(seen as u64, flits, "sink saw fewer flits than were served");

    // Watchdog: the stall began, never released, and was closed out at
    // shutdown with a positive duration.
    let link0 = &egress.links[0];
    assert_eq!(link0.stall_events, 1);
    assert_eq!(
        link0.stalls_completed, 1,
        "drain must close the open window"
    );
    assert!(
        link0.max_stall_cycles > 0,
        "stall spanned deliveries on other links, duration must be positive"
    );
    assert!(link0.mean_stall_cycles > 0.0);

    // Per (shard, link): packets contiguous head..tail — parking whole
    // links preserves wormhole non-interleaving on each output channel.
    for (shard, stream) in streams.iter().enumerate() {
        let stream = stream.lock().unwrap();
        for link in 0..N_LINKS {
            let mut open: Option<(u64, u32)> = None;
            for f in stream.iter().filter(|f| f.flow % N_LINKS == link) {
                match open {
                    None => assert!(
                        f.is_head(),
                        "shard {shard} link {link}: packet {} started at flit {}",
                        f.packet,
                        f.flit_index
                    ),
                    Some((p, i)) => {
                        assert_eq!(
                            f.packet, p,
                            "shard {shard} link {link}: interleaved packets"
                        );
                        assert_eq!(f.flit_index, i + 1);
                    }
                }
                open = if f.is_tail() {
                    None
                } else {
                    Some((f.packet, f.flit_index))
                };
            }
            assert!(
                open.is_none(),
                "shard {shard} link {link}: unfinished packet"
            );
        }
    }
}

/// The bounded-buffering check: under a churning stall schedule
/// with a tiny credit pool, no link ever has more than `credits`
/// outstanding flits (so at most `ring_capacity + credits` buffered
/// anywhere), and everything still conserves.
#[test]
fn credit_pool_bounds_buffered_flits_per_link() {
    let _alone = one_at_a_time();
    const CREDITS: u64 = 4;
    let rng = desim::SimRng::new(0xE65);
    // Frequent short stalls across all links over the whole run.
    let shape = Shape {
        links: vec![N_LINKS],
        shards: 2,
        fabric: false,
    };
    let plan = FaultPlan::from_rng(&rng, &shape, 0.005, 200_000)
        .retain(|e| matches!(e.kind, FaultKind::Freeze { .. }));
    assert!(!plan.is_empty());
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 2,
            n_flows: N_FLOWS,
            egress: EgressMode::Buffered(BufferedConfig {
                ring_capacity: 32,
                credits: CREDITS,
                n_links: N_LINKS,
                ..BufferedConfig::default()
            }),
            fault_plan: Some(plan),
            ..RuntimeConfig::default()
        },
        |_shard| Some(|_s: usize, _f: &ServedFlit| {}),
    );
    let mut flits = 0u64;
    for id in 0..5_000u64 {
        let len = 1 + (id % 7) as u32;
        flits += len as u64;
        handle
            .submit(Packet::new(id, (id % N_FLOWS as u64) as usize, len, 0))
            .unwrap();
    }
    let report = rt.shutdown();
    assert!(report.is_conserving(), "{report:?}");
    let egress = report.stats.egress.as_ref().expect("buffered snapshot");
    assert_eq!(egress.flushed_flits(), flits);
    assert!(egress.stall_events() > 0, "the plan must actually stall");
    for (i, l) in egress.links.iter().enumerate() {
        assert!(
            l.outstanding_peak <= CREDITS,
            "link {i}: {} flits outstanding at once, credit pool is {CREDITS}",
            l.outstanding_peak
        );
        assert_eq!(l.credits_available, CREDITS, "link {i}: credits leaked");
    }
}

/// A sink that records every flit: bare, so the worker's flusher step
/// calls it, or behind a [`Threaded`] adapter, which hands it each flit
/// on a thread of its own (DESIGN.md §7).
enum Recorder {
    Bare(Arc<Mutex<Vec<ServedFlit>>>),
    Threaded(Threaded),
}

impl Recorder {
    fn new(seen: Arc<Mutex<Vec<ServedFlit>>>, threaded: bool) -> Self {
        if !threaded {
            return Self::Bare(seen);
        }
        Self::Threaded(Threaded::new(move |_s: usize, f: &ServedFlit| {
            seen.lock().unwrap().push(*f);
        }))
    }
}

impl Egress for Recorder {
    fn emit(&mut self, shard: usize, f: &ServedFlit) {
        match self {
            Self::Bare(seen) => seen.lock().unwrap().push(*f),
            Self::Threaded(adapter) => adapter.emit(shard, f),
        }
    }

    fn try_emit(&mut self, shard: usize, f: &ServedFlit) -> bool {
        match self {
            Self::Bare(seen) => {
                seen.lock().unwrap().push(*f);
                true
            }
            Self::Threaded(adapter) => adapter.try_emit(shard, f),
        }
    }
}

/// What happens to link 0 of the buffered runs while the workload runs.
#[derive(Clone, Copy, PartialEq)]
enum Link0 {
    Healthy,
    /// Frozen from flit-clock 0; only the drain lets its flits out.
    FrozenForever,
    /// Dead under `HoldForRecovery` while the middle third of the
    /// workload is submitted, then resurrected: its held flits replay.
    HeldOutage,
}

/// Buffered egress must not change *what* is scheduled, only how it is
/// delivered: for one shard and an identical pre-loaded workload, every
/// flow sees the identical flit sequence under sync and buffered modes
/// — the sink bare in the worker's flusher step, or behind a `Threaded`
/// adapter — whatever link 0 goes through. With a `fault_plan` the
/// same holds across a worker death: the worker resumes in place with
/// the egress stage of either mode (DESIGN.md §9.2).
fn assert_buffered_matches_sync(fault_plan: Option<FaultPlan>, link0: Link0) {
    const CREDITS: u64 = 32;
    let faulted = fault_plan.is_some();
    let run = |egress: EgressMode, threaded: bool| -> (Vec<ServedFlit>, DrainReport) {
        let fault_plan = match (&egress, link0) {
            (EgressMode::Buffered(_), Link0::FrozenForever) => {
                let plan = fault_plan.clone().unwrap_or_default();
                Some(plan.freeze_at(0, 0, 0, u64::MAX))
            }
            _ => fault_plan.clone(),
        };
        let seen: Arc<Mutex<Vec<ServedFlit>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        let (rt, handle) = Runtime::start_with_egress(
            RuntimeConfig {
                shards: 1,
                n_flows: 8,
                egress,
                fault_plan,
                ..RuntimeConfig::default()
            },
            move |_shard| Some(Recorder::new(Arc::clone(&s2), threaded)),
        );
        let outage = rt
            .egress_controller()
            .filter(|_| link0 == Link0::HeldOutage);
        for id in 0..1_000u64 {
            if let Some(ctrl) = outage {
                if id == 333 {
                    ctrl.declare_dead(0);
                } else if id == 667 {
                    // Time for the worker to serve the middle third and
                    // fill link 0's credit window with held flits.
                    std::thread::sleep(Duration::from_millis(50));
                    ctrl.resurrect(0);
                }
            }
            handle
                .submit(Packet::new(id, (id % 8) as usize, 1 + (id % 6) as u32, 0))
                .unwrap();
        }
        let report = rt.shutdown();
        (Arc::try_unwrap(seen).unwrap().into_inner().unwrap(), report)
    };
    let buffered = EgressMode::Buffered(BufferedConfig {
        ring_capacity: 256,
        credits: CREDITS,
        n_links: N_LINKS,
        dead_link_policy: DeadLinkPolicy::HoldForRecovery,
        ..BufferedConfig::default()
    });

    let (sync, sync_report) = run(EgressMode::Sync, false);
    let (bare, bare_report) = run(buffered.clone(), false);
    let (threaded, threaded_report) = run(buffered, true);
    let exit = if faulted {
        ShardExit::Panicked
    } else {
        ShardExit::Clean
    };
    for report in [&sync_report, &bare_report, &threaded_report] {
        assert!(report.is_conserving(), "{report:?}");
        assert_eq!(report.served_packets(), 1_000, "{report:?}");
        assert_eq!(report.lost_packets(), 0, "{report:?}");
        assert_eq!(report.exits, [exit], "{report:?}");
        assert_eq!(report.all_clean(), !faulted, "{report:?}");
    }
    for report in [&bare_report, &threaded_report] {
        let egress = report.stats.egress.as_ref().expect("buffered snapshot");
        assert_eq!(egress.flushed_flits(), sync.len() as u64, "{egress:?}");
        for (i, l) in egress.links.iter().enumerate() {
            assert_eq!(l.credits_available, CREDITS, "link {i}: credits leaked");
            assert_eq!(l.dead_letter_flits, 0, "link {i} dead-lettered");
        }
        if link0 == Link0::HeldOutage {
            assert!(egress.links[0].replayed > 0, "nothing was held: {egress:?}");
        }
    }
    for (mode, buf) in [("bare", &bare), ("threaded", &threaded)] {
        assert_eq!(sync.len(), buf.len(), "{mode}: flit counts differ");
        for flow in 0..8usize {
            let a: Vec<(u64, u32)> = sync
                .iter()
                .filter(|f| f.flow == flow)
                .map(|f| (f.packet, f.flit_index))
                .collect();
            let b: Vec<(u64, u32)> = buf
                .iter()
                .filter(|f| f.flow == flow)
                .map(|f| (f.packet, f.flit_index))
                .collect();
            assert_eq!(
                a, b,
                "flow {flow} diverged between sync and {mode} buffered"
            );
        }
    }
}

#[test]
fn buffered_matches_sync_per_flow_sequences() {
    let _alone = one_at_a_time();
    assert_buffered_matches_sync(None, Link0::Healthy);
}

/// The same equivalence across a shard death: one seeded kill in the
/// middle of the ~3 500-flit run, and the resumed worker carries on
/// with its own stage — the sync stage's sink or the buffered stage's
/// ring, parking marks, pushed count, flusher core and sink (a
/// `Threaded` adapter and its thread included) — with nothing lost in
/// any mode.
#[test]
fn buffered_matches_sync_across_a_resurrection() {
    let _alone = one_at_a_time();
    let at = desim::SimRng::new(0x5EED).uniform_u32(500, 2_500);
    assert_buffered_matches_sync(
        Some(FaultPlan::new().panic_shard_at(0, 0, u64::from(at))),
        Link0::Healthy,
    );
}

/// Link 0 never thaws: its flows park on the first credit window, the
/// rest keep being served, and the drain delivers what the pending
/// queue holds — in each flow's order.
#[test]
fn buffered_matches_sync_behind_a_link_frozen_until_the_drain() {
    let _alone = one_at_a_time();
    assert_buffered_matches_sync(None, Link0::FrozenForever);
}

/// Link 0 dies and is resurrected under `HoldForRecovery`: the flits
/// held across the outage replay in flow-FIFO order, nothing is
/// dead-lettered, and every credit comes back.
#[test]
fn buffered_matches_sync_across_a_held_link_outage() {
    let _alone = one_at_a_time();
    assert_buffered_matches_sync(None, Link0::HeldOutage);
}

/// A sink that panics behind a [`Threaded`] adapter (DESIGN.md §14.4)
/// must not wedge the drain: the adapter's thread never calls it again,
/// and from then on takes each flit off its ring and counts it lost, so
/// credits keep returning and the worker drains. `shutdown` is the drain
/// under test; both callers must see it finish gracefully.
fn drain_after_a_sink_panic(shutdown: impl FnOnce(Runtime) -> DrainReport) {
    const PACKETS: u64 = 500;
    const SURVIVES: u64 = 100;
    let emitted = Arc::new(AtomicU64::new(0));
    let e2 = Arc::clone(&emitted);
    let adapter = Threaded::new(move |_s: usize, _f: &ServedFlit| {
        if e2.fetch_add(1, Ordering::Relaxed) == SURVIVES {
            panic!("sink: downstream went away (injected by the test)");
        }
    });
    let adapter_stats = adapter.stats();
    let mut adapter = Some(adapter);
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: N_FLOWS,
            egress: EgressMode::Buffered(BufferedConfig {
                ring_capacity: 64,
                credits: 8,
                n_links: N_LINKS,
                ..BufferedConfig::default()
            }),
            ..RuntimeConfig::default()
        },
        move |_shard| adapter.take(),
    );
    for id in 0..PACKETS {
        let flow = (id % N_FLOWS as u64) as usize;
        handle.submit(Packet::new(id, flow, PACKET_LEN, 0)).unwrap();
    }
    let report = shutdown(rt);
    assert!(
        !report.forced,
        "the drain must finish gracefully: {report:?}"
    );
    assert!(report.is_conserving(), "{report:?}");
    assert_eq!(report.served_packets(), PACKETS, "{report:?}");
    assert_eq!(report.exits, [ShardExit::Clean]);
    assert!(report.all_clean());
    // The inner sink took 100 flits and died on the next; never called
    // again, the adapter counted that one and every flit after it lost.
    // A link's ledger counts the hand-over to the adapter.
    let flits = PACKETS * u64::from(PACKET_LEN);
    assert_eq!(emitted.load(Ordering::Relaxed), SURVIVES + 1);
    let adapter = adapter_stats.snapshot();
    assert!(adapter.panicked, "{adapter:?}");
    assert_eq!(adapter.took, SURVIVES, "{adapter:?}");
    assert_eq!(adapter.took + adapter.lost, flits, "{adapter:?}");
    let egress = report.stats.egress.as_ref().expect("buffered snapshot");
    let delivered: u64 = egress.links.iter().map(|l| l.delivered_flits).sum();
    assert_eq!(delivered, flits);
    assert_eq!(egress.flushed_flits(), delivered);
    for (i, l) in egress.links.iter().enumerate() {
        assert_eq!(l.credits_available, 8, "link {i}: credits leaked");
    }
}

#[test]
fn sink_panic_on_the_flusher_does_not_wedge_shutdown() {
    let _alone = one_at_a_time();
    drain_after_a_sink_panic(Runtime::shutdown);
}

#[test]
fn sink_panic_on_the_flusher_is_reported_by_shutdown_within() {
    let _alone = one_at_a_time();
    drain_after_a_sink_panic(|rt| rt.shutdown_within(Duration::from_millis(500)));
}

/// A bare sink that panics in `try_emit` unwinds the worker, whose
/// flusher step called it (DESIGN.md §14.4). The worker resumes in
/// place with the stage, its flusher core and the sink whole (§9.2):
/// the flit in hand is dead-lettered, every other one delivered, every
/// credit returns, the drain conserves, and `shutdown` finishes
/// unforced.
fn drain_after_a_bare_sink_panic(shutdown: impl FnOnce(Runtime) -> DrainReport) {
    const PACKETS: u64 = 500;
    const CREDITS: u64 = 8;
    struct Panicky {
        calls: Arc<AtomicU64>,
    }
    impl Egress for Panicky {
        fn emit(&mut self, _shard: usize, _f: &ServedFlit) {
            unreachable!("the flusher step delivers through `try_emit`");
        }
        fn try_emit(&mut self, _shard: usize, _f: &ServedFlit) -> bool {
            if self.calls.fetch_add(1, Ordering::Relaxed) == 100 {
                panic!("sink: downstream went away (injected by the test)");
            }
            true
        }
    }
    let calls = Arc::new(AtomicU64::new(0));
    let c2 = Arc::clone(&calls);
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: N_FLOWS,
            egress: EgressMode::Buffered(BufferedConfig {
                ring_capacity: 64,
                credits: CREDITS,
                n_links: N_LINKS,
                ..BufferedConfig::default()
            }),
            ..RuntimeConfig::default()
        },
        move |_shard| {
            let calls = Arc::clone(&c2);
            Some(Panicky { calls })
        },
    );
    for id in 0..PACKETS {
        let flow = (id % N_FLOWS as u64) as usize;
        handle.submit(Packet::new(id, flow, PACKET_LEN, 0)).unwrap();
    }
    let report = shutdown(rt);
    assert!(!report.forced, "the drain must finish unforced: {report:?}");
    assert_eq!(report.exits, [ShardExit::Panicked], "{report:?}");
    let egress = report.stats.egress.as_ref().expect("buffered snapshot");
    let delivered: u64 = egress.links.iter().map(|l| l.delivered_flits).sum();
    let dead: u64 = egress.links.iter().map(|l| l.dead_letter_flits).sum();
    for (i, l) in egress.links.iter().enumerate() {
        assert_eq!(l.credits_available, CREDITS, "link {i}: credits leaked");
    }
    let served = report.stats.served_flits();
    assert_eq!(delivered + dead, served, "a served flit went uncounted");
    assert_eq!(egress.flushed_flits(), delivered);
    assert!(report.is_conserving(), "{report:?}");
    assert_eq!(report.served_packets(), PACKETS, "{report:?}");
    assert_eq!(dead, 1, "only the flit in hand is dead-lettered");
    assert_eq!(calls.load(Ordering::Relaxed), served);
}

#[test]
fn a_bare_sink_panic_bequeaths_the_flusher_core_to_the_successor() {
    let _alone = one_at_a_time();
    drain_after_a_bare_sink_panic(Runtime::shutdown);
    drain_after_a_bare_sink_panic(|rt| rt.shutdown_within(Duration::from_millis(500)));
}

/// A transient link death under `DeadLinkPolicy::HoldForRecovery`
/// (DESIGN.md §14.2): flits bound for the dead link are held with
/// their credits pinned and replay FIFO when `resurrect` revives it —
/// nothing is dead-lettered, nothing is reordered within a flow, and
/// traffic from phases before, during, and after the outage arrives
/// as one seamless per-flow sequence.
#[test]
fn held_flits_replay_in_flow_fifo_order_across_an_outage() {
    let _alone = one_at_a_time();
    const CREDITS: u64 = 8;
    const PHASE: u64 = 10; // packets per flow per phase
    const LEN: u32 = 2;
    let seen: Arc<Mutex<Vec<ServedFlit>>> = Arc::new(Mutex::new(Vec::new()));
    let s2 = Arc::clone(&seen);
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: 8,
            admission: AdmissionPolicy::DropTail { max_backlog: 256 },
            egress: EgressMode::Buffered(BufferedConfig {
                ring_capacity: 64,
                credits: CREDITS,
                n_links: N_LINKS,
                dead_link_policy: DeadLinkPolicy::HoldForRecovery,
                ..BufferedConfig::default()
            }),
            ..RuntimeConfig::default()
        },
        move |_shard| {
            let seen = Arc::clone(&s2);
            Some(move |_s: usize, f: &ServedFlit| seen.lock().unwrap().push(*f))
        },
    );
    let mut next_id = 0u64;
    let mut submit_phase = || {
        for _ in 0..PHASE {
            for flow in 0..8usize {
                handle.submit(Packet::new(next_id, flow, LEN, 0)).unwrap();
                next_id += 1;
            }
        }
    };
    let controller = rt.egress_controller().expect("buffered mode").clone();
    submit_phase();
    std::thread::sleep(Duration::from_millis(20));
    // The outage: link 0 dies under traffic, holding (not dropping)
    // whatever is bound for it.
    controller.declare_dead(0);
    submit_phase();
    std::thread::sleep(Duration::from_millis(50));
    controller.resurrect(0);
    submit_phase();
    let report = rt.shutdown();
    assert!(report.is_conserving(), "{report:?}");
    assert_eq!(report.dropped_packets(), 0, "volumes stay under backlog");
    let egress = report.stats.egress.as_ref().expect("buffered snapshot");
    assert_eq!(
        egress.links[0].dead_letter_flits, 0,
        "a healed outage dead-letters nothing"
    );
    assert!(
        egress.links[0].replayed > 0,
        "flits held across the outage must be counted as replays"
    );
    assert_eq!(egress.links[0].credits_available, CREDITS, "credits leaked");
    // Per-flow FIFO across all three phases: every flow's delivered
    // sequence is exactly its submitted packets, in order, with flit
    // indexes in order within each packet.
    let seen = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
    for flow in 0..8usize {
        let got: Vec<(u64, u32)> = seen
            .iter()
            .filter(|f| f.flow == flow)
            .map(|f| (f.packet, f.flit_index))
            .collect();
        let expect: Vec<(u64, u32)> = (0..3 * PHASE)
            .map(|k| k * 8 + flow as u64)
            .flat_map(|id| (0..LEN).map(move |ix| (id, ix)))
            .collect();
        assert_eq!(got, expect, "flow {flow} reordered across the outage");
    }
}

/// A worker that runs its flusher step hears every link that opens
/// (DESIGN.md §7): with one link, one credit and the link frozen,
/// the first flit waits behind the stall and the second has no credit,
/// so the worker is starved and sleeps covered, on the 10 ms backstop.
/// The thaw must end that sleep — `release_stall` wakes whoever steps
/// past the link — not the backstop.
#[test]
fn a_thaw_wakes_a_worker_that_runs_its_own_flusher_step() {
    let _alone = one_at_a_time();
    const ROUNDS: u64 = 10;
    let seen: Arc<Mutex<Vec<ServedFlit>>> = Arc::new(Mutex::new(Vec::new()));
    let s2 = Arc::clone(&seen);
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: 1,
            egress: EgressMode::Buffered(BufferedConfig {
                ring_capacity: 16,
                credits: 1,
                n_links: 1,
                ..BufferedConfig::default()
            }),
            ..RuntimeConfig::default()
        },
        move |_shard| Some(Recorder::new(Arc::clone(&s2), false)),
    );
    let controller = rt.egress_controller().expect("buffered mode").clone();
    let delivered = || seen.lock().unwrap().len() as u64;
    let mut woken_by_thaw = 0;
    for round in 0..ROUNDS {
        controller.freeze(0);
        for k in 0..2 {
            handle.submit(Packet::new(2 * round + k, 0, 1, 0)).unwrap();
        }
        // Long enough to serve, park the link and sleep; far shorter
        // than the backstop.
        std::thread::sleep(Duration::from_millis(3));
        let before = woken_parks(&handle.stats(), 0);
        controller.release_stall(0);
        let deadline = Instant::now() + Duration::from_secs(20);
        while delivered() < 2 * (round + 1) {
            assert!(Instant::now() < deadline, "round {round}: stranded");
            std::thread::yield_now();
        }
        woken_by_thaw += u64::from(woken_parks(&handle.stats(), 0) > before);
    }
    let report = rt.shutdown();
    assert!(report.is_conserving(), "{report:?}");
    // The thaw can catch the worker between two parks; it cannot do so
    // round after round.
    assert!(
        woken_by_thaw >= ROUNDS / 2,
        "the thaw ended the worker's park in only {woken_by_thaw} of {ROUNDS} rounds"
    );
}

/// The worker's exit duty (DESIGN.md §7): with the drain gate closed and nothing left to serve, what a
/// dead `HoldForRecovery` link holds can wait for no heal. The worker
/// dead-letters it at its exit gate — counted, every credit back — and
/// leaves; nothing reaches the sink.
#[test]
fn a_worker_dead_letters_what_a_dead_link_holds_before_it_exits() {
    let _alone = one_at_a_time();
    const CREDITS: u64 = 8;
    const HELD: u64 = 3;
    let seen: Arc<Mutex<Vec<ServedFlit>>> = Arc::new(Mutex::new(Vec::new()));
    let s2 = Arc::clone(&seen);
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: 1,
            egress: EgressMode::Buffered(BufferedConfig {
                ring_capacity: 16,
                credits: CREDITS,
                n_links: 1,
                dead_link_policy: DeadLinkPolicy::HoldForRecovery,
                ..BufferedConfig::default()
            }),
            ..RuntimeConfig::default()
        },
        move |_shard| Some(Recorder::new(Arc::clone(&s2), false)),
    );
    rt.egress_controller()
        .expect("buffered mode")
        .declare_dead(0);
    for id in 0..HELD {
        handle.submit(Packet::new(id, 0, 1, 0)).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while handle.stats().served_flits() < HELD {
        assert!(Instant::now() < deadline, "never served");
        std::thread::yield_now();
    }
    let report = rt.shutdown();
    assert!(report.is_conserving(), "{report:?}");
    assert!(report.all_clean(), "{report:?}");
    let link = &report.stats.egress.as_ref().expect("buffered").links[0];
    assert_eq!(link.dead_letter_flits, HELD, "{link:?}");
    assert_eq!(link.credits_available, CREDITS, "{link:?}");
    assert!(seen.lock().unwrap().is_empty());
}

/// A worker leaves only once its flusher core is empty (DESIGN.md §7):
/// a flit its sink refused is still the worker's to deliver when the
/// drain comes, so `shutdown` waits for the sink to take it — here
/// 20 ms after start, long after the drain began.
#[test]
fn shutdown_waits_for_a_flit_the_sink_refused() {
    let _alone = one_at_a_time();
    struct Reluctant {
        until: Instant,
        taken: Arc<AtomicU64>,
    }
    impl Egress for Reluctant {
        fn emit(&mut self, _shard: usize, _f: &ServedFlit) {
            unreachable!("the flusher step delivers through `try_emit`");
        }
        fn try_emit(&mut self, _shard: usize, _f: &ServedFlit) -> bool {
            let now = Instant::now() >= self.until;
            self.taken.fetch_add(u64::from(now), Ordering::Relaxed);
            now
        }
    }
    let taken = Arc::new(AtomicU64::new(0));
    let t2 = Arc::clone(&taken);
    let until = Instant::now() + Duration::from_millis(20);
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: 1,
            egress: EgressMode::Buffered(BufferedConfig {
                ring_capacity: 16,
                credits: 4,
                n_links: 1,
                ..BufferedConfig::default()
            }),
            ..RuntimeConfig::default()
        },
        move |_shard| {
            let taken = Arc::clone(&t2);
            Some(Reluctant { until, taken })
        },
    );
    handle.submit(Packet::new(0, 0, 1, 0)).unwrap();
    let report = rt.shutdown();
    assert_eq!(
        taken.load(Ordering::Relaxed),
        1,
        "the refused flit was stranded"
    );
    assert!(report.is_conserving() && report.all_clean(), "{report:?}");
    let egress = report.stats.egress.as_ref().expect("buffered");
    assert_eq!(egress.flushed_flits(), 1);
    assert_eq!(egress.links[0].credits_available, 4);
}

/// A forced abort (DESIGN.md §9.4) leaves no flit uncounted, with the
/// sink bare or behind a `Threaded` adapter. Link 0 dies under
/// `HoldForRecovery` before anything is served: its one flow fills the
/// credit window with held flits and parks with the rest of its
/// backlog, so the graceful drain cannot finish and `shutdown_within`
/// aborts. The backlog is counted lost; the held flits are
/// dead-lettered by the aborting worker that held them, and every
/// credit comes back.
#[test]
fn a_forced_abort_dead_letters_what_a_dead_link_holds_in_either_mode() {
    let _alone = one_at_a_time();
    const CREDITS: u64 = 4;
    const PACKETS: u64 = 10;
    for threaded in [false, true] {
        let seen: Arc<Mutex<Vec<ServedFlit>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        let (rt, handle) = Runtime::start_with_egress(
            RuntimeConfig {
                shards: 1,
                n_flows: 1,
                egress: EgressMode::Buffered(BufferedConfig {
                    ring_capacity: 16,
                    credits: CREDITS,
                    n_links: 1,
                    dead_link_policy: DeadLinkPolicy::HoldForRecovery,
                    ..BufferedConfig::default()
                }),
                ..RuntimeConfig::default()
            },
            move |_shard| Some(Recorder::new(Arc::clone(&s2), threaded)),
        );
        rt.egress_controller()
            .expect("buffered mode")
            .declare_dead(0);
        for id in 0..PACKETS {
            handle.submit(Packet::new(id, 0, 1, 0)).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while handle.stats().served_flits() < CREDITS {
            assert!(Instant::now() < deadline, "never served");
            std::thread::yield_now();
        }
        let report = rt.shutdown_within(Duration::from_millis(200));
        let mode = if threaded { "threaded" } else { "bare" };
        assert!(report.forced, "{mode}: {report:?}");
        assert!(report.is_conserving(), "{mode}: {report:?}");
        assert_eq!(report.lost_packets(), PACKETS - CREDITS, "{mode}");
        let link = &report.stats.egress.as_ref().expect("buffered").links[0];
        assert_eq!(link.dead_letter_flits, CREDITS, "{mode}: {link:?}");
        assert_eq!(link.credits_available, CREDITS, "{mode}: {link:?}");
        assert!(seen.lock().unwrap().is_empty(), "{mode}");
    }
}

/// Parks of `shard`'s worker that a peer's wake ended (not the timer).
fn woken_parks(stats: &RuntimeStats, shard: usize) -> u64 {
    let s = &stats.shards[shard];
    s.parks - s.park_timeouts
}

/// Per-flow FIFO as a sink sees it, for a producer that sends packet
/// ids round-robin over the flows, `len` flits each: per flow, the
/// count of flits delivered so far says which (packet, flit) must come
/// next. Counts a flit out of place in `disorder`.
fn expect_flow_fifo(next: &[AtomicU64], disorder: &AtomicU64, len: u64, f: &ServedFlit) {
    let k = next[f.flow].fetch_add(1, Ordering::Relaxed);
    let expect = (f.flow as u64 + (k / len) * N_FLOWS as u64, (k % len) as u32);
    if (f.packet, f.flit_index) != expect {
        disorder.fetch_add(1, Ordering::Relaxed);
    }
}

/// The hand-off edges at work (DESIGN.md §6, §7): one shard whose
/// sink sits behind a `Threaded` adapter, an adapter thread that sleeps
/// whenever its ring is empty, and a producer blocked on backpressure.
/// Everything conserves in per-flow order, and the adapter's parks are
/// ended by the worker's wakes — the timeout is the exception.
#[test]
fn event_driven_handoffs_conserve_and_rarely_time_out() {
    let _alone = one_at_a_time();
    // Long packets keep the producer ahead of the worker on every
    // build: a submit costs the producer once per packet, the worker
    // and the adapter pay per flit.
    const LEN: u64 = 16;
    /// 320 k flits in a debug build, whose worker is the slow side and
    /// fills the adapter's ring less often.
    const PACKETS: u64 = if cfg!(debug_assertions) {
        80_000
    } else {
        20_000
    };
    // A sink light enough that the adapter empties its ring far
    // faster than the worker's park timeout.
    let next: Arc<Vec<AtomicU64>> = Arc::new((0..N_FLOWS).map(|_| AtomicU64::new(0)).collect());
    let disorder = Arc::new(AtomicU64::new(0));
    let (n2, d2) = (Arc::clone(&next), Arc::clone(&disorder));
    let adapter =
        Threaded::new(move |_s: usize, f: &ServedFlit| expect_flow_fifo(&n2, &d2, LEN, f));
    let adapter_stats = adapter.stats();
    let mut adapter = Some(adapter);
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: N_FLOWS,
            admission: AdmissionPolicy::Backpressure { max_backlog: 64 },
            egress: buffered(),
            ..RuntimeConfig::default()
        },
        move |_shard| adapter.take(),
    );
    for id in 0..PACKETS {
        let flow = (id % N_FLOWS as u64) as usize;
        handle
            .submit(Packet::new(id, flow, LEN as u32, 0))
            .expect("backpressure blocks, never refuses");
    }
    let report = rt.shutdown();
    assert!(report.is_conserving(), "{report:?}");
    assert_eq!(report.served_packets(), PACKETS);
    let flits = PACKETS * LEN;
    assert_eq!(report.stats.flushed_flits(), flits, "no flit stranded");
    let sunk: u64 = next.iter().map(|n| n.load(Ordering::Relaxed)).sum();
    assert_eq!(sunk, flits, "every flit reached the sink");
    assert_eq!(disorder.load(Ordering::Relaxed), 0, "per-flow FIFO broken");
    // The worker waits on the adapter only when the adapter's ring is
    // full: a refusal, which nobody announces, so those parks poll
    // (DESIGN.md §6) and no ratio is asked of them. The adapter's sleep
    // is covered, so a timeout there is no poll but a wake that got
    // lost and a 10 ms hiccup. A debug build's worker is the slow side
    // and hands over less often, so the few timeouts a busy host forces
    // weigh more.
    let share = if cfg!(debug_assertions) { 4 } else { 10 };
    let adapter = adapter_stats.snapshot();
    assert!(adapter.parks > 50, "{adapter:?}");
    assert!(
        adapter.park_timeouts <= adapter.parks / share,
        "the adapter's sleeps must end by the worker's wake: {} of {} timed out",
        adapter.park_timeouts,
        adapter.parks
    );
}

/// The idle path where spinning never pays (DESIGN.md §6): a producer
/// that sleeps 200 µs after every packet keeps the worker waiting on
/// it, and the worker keeps its sink's `Threaded` adapter waiting in
/// turn, and no look at a wake predicate is ever answered — the peer
/// each waits for is asleep. An idle loop must be a park (plus the odd
/// look or re-check that found work), not 64 whole loops per park. The
/// slow producer, not the host's core count, is what makes the spin
/// futile: this holds anywhere.
#[test]
fn idle_threads_do_not_spin_where_spinning_never_pays() {
    let _alone = one_at_a_time();
    const LEN: u64 = PACKET_LEN as u64;
    const PACKETS: u64 = 2_000;
    let next: Arc<Vec<AtomicU64>> = Arc::new((0..N_FLOWS).map(|_| AtomicU64::new(0)).collect());
    let disorder = Arc::new(AtomicU64::new(0));
    let (n2, d2) = (Arc::clone(&next), Arc::clone(&disorder));
    let adapter = Threaded::new(move |_s: usize, f: &ServedFlit| {
        expect_flow_fifo(&n2, &d2, LEN, f);
    });
    let adapter_stats = adapter.stats();
    let mut adapter = Some(adapter);
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: N_FLOWS,
            admission: AdmissionPolicy::Backpressure { max_backlog: 8 },
            egress: EgressMode::Buffered(BufferedConfig {
                ring_capacity: 64,
                credits: 4,
                n_links: N_LINKS,
                ..BufferedConfig::default()
            }),
            ..RuntimeConfig::default()
        },
        move |_shard| adapter.take(),
    );
    // (idle loops or rounds, parks) of the worker and of the adapter.
    let idleness = |stats: &RuntimeStats| {
        let (w, a) = (&stats.shards[0], adapter_stats.snapshot());
        [(w.idle_loops, w.parks), (a.idle_rounds, a.parks)]
    };
    // Start-up is not steady state: each thread's first fifty parks
    // are left out of the ratio.
    const SETTLE: u64 = 50;
    let mut settled = [None; 2];
    for id in 0..PACKETS {
        let flow = (id % N_FLOWS as u64) as usize;
        handle
            .submit(Packet::new(id, flow, LEN as u32, 0))
            .expect("backpressure blocks, never refuses");
        std::thread::sleep(Duration::from_micros(200));
        if settled.contains(&None) {
            let now = idleness(&rt.stats());
            for (settled, now) in settled.iter_mut().zip(now) {
                *settled = settled.or((now.1 >= SETTLE).then_some(now));
            }
        }
    }
    let report = rt.shutdown();
    assert!(report.is_conserving(), "{report:?}");
    assert_eq!(report.served_packets(), PACKETS);
    assert_eq!(
        report.stats.flushed_flits(),
        PACKETS * LEN,
        "a flit stranded"
    );
    assert_eq!(disorder.load(Ordering::Relaxed), 0, "per-flow FIFO broken");
    let end = idleness(&report.stats);
    for (who, (settled, end)) in ["worker", "adapter"].iter().zip(settled.iter().zip(end)) {
        let settled = settled.unwrap_or_else(|| panic!("the {who} parked {} times", end.1));
        let (idle, parks) = (end.0 - settled.0, end.1 - settled.1);
        assert!(
            parks >= 20,
            "the {who} parked {parks} times after {settled:?}"
        );
        assert!(
            idle <= 3 * parks,
            "the {who} went idle {idle} times for {parks} parks: it spins where no spin is answered"
        );
    }
}

/// The sleep taxonomy, idle side (DESIGN.md §6): a `Threaded` adapter
/// with an empty ring waits for two announced events — a ring push, the
/// adapter's drop at the worker's exit — so it sleeps on the 10 ms
/// backstop, not on a 100 µs timer (~1 000 parks in 100 ms), and still
/// learns of the shutdown at once: the drop is announced too.
#[test]
fn idle_flushers_sleep_on_the_backstop_and_hear_the_shutdown() {
    let _alone = one_at_a_time();
    let mut fastest = Duration::MAX;
    for _ in 0..3 {
        let adapters = Arc::new(Mutex::new(Vec::new()));
        let a2 = Arc::clone(&adapters);
        let (rt, _handle) = Runtime::start_with_egress(
            RuntimeConfig {
                shards: 2,
                n_flows: N_FLOWS,
                egress: buffered(),
                ..RuntimeConfig::default()
            },
            move |_shard| {
                let adapter = Threaded::new(|_s: usize, _f: &ServedFlit| {});
                a2.lock().unwrap().push(adapter.stats());
                Some(adapter)
            },
        );
        std::thread::sleep(Duration::from_millis(100));
        for (shard, s) in adapters.lock().unwrap().iter().enumerate() {
            let s = s.snapshot();
            assert!(
                s.parks <= 30,
                "shard {shard}: an idle adapter parked {} times in 100 ms",
                s.parks
            );
        }
        let t = Instant::now();
        let report = rt.shutdown();
        fastest = fastest.min(t.elapsed());
        assert!(report.is_conserving(), "{report:?}");
        assert!(report.all_clean(), "{report:?}");
    }
    // Unannounced, each adapter would sit out what is left of its
    // backstop: 5 ms an adapter on average, joined one after the other.
    assert!(
        fastest < Duration::from_millis(5),
        "the best of three idle shutdowns took {fastest:?}"
    );
}

/// Grants under sharing (DESIGN.md §7): two shards, one link, four
/// credits, and a producer that keeps every flow of both shards
/// backlogged. A grant is the whole pool more often than not, so each
/// worker keeps finding it empty, and is woken by whoever refills it —
/// the other worker giving back an unspent grant included. The
/// backpressured producer offers both shards the same load, so a shard
/// the other could starve would hold everything to its pace: both
/// progress alike, no grant is mistaken for a silent downstream, and
/// every credit is back at the end.
#[test]
fn two_shards_share_one_link_by_grants() {
    let _alone = one_at_a_time();
    const CREDITS: u64 = 4;
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 2,
            n_flows: N_FLOWS,
            admission: AdmissionPolicy::Backpressure { max_backlog: 64 },
            egress: EgressMode::Buffered(BufferedConfig {
                ring_capacity: 16,
                credits: CREDITS,
                n_links: 1,
                dead_link_deadline: Some(64),
                ..BufferedConfig::default()
            }),
            ..RuntimeConfig::default()
        },
        |_shard| Some(|_s: usize, _f: &ServedFlit| {}),
    );
    let deadline = Instant::now() + Duration::from_millis(200);
    let mut id = 0u64;
    while Instant::now() < deadline {
        for _ in 0..64 {
            let flow = (id % N_FLOWS as u64) as usize;
            handle.submit(Packet::new(id, flow, PACKET_LEN, 0)).unwrap();
            id += 1;
        }
    }
    let live = handle.stats();
    let served: Vec<u64> = live.shards.iter().map(|s| s.served_flits).collect();
    let report = rt.shutdown();
    assert!(report.is_conserving(), "{report:?}");
    assert!(report.all_clean(), "{report:?}");
    assert_eq!(report.served_packets(), id);
    let (lo, hi) = (served[0].min(served[1]), served[0].max(served[1]));
    assert!(
        lo > 1_000 && hi <= 2 * lo,
        "both shards must progress on the shared link: {served:?}"
    );
    let link = &report.stats.egress.as_ref().expect("buffered").links[0];
    assert_eq!(link.deaths, 0, "a held grant is not a dead link");
    assert_eq!(link.dead_letter_flits, 0);
    assert_eq!(link.credits_available, CREDITS, "a grant leaked");
    assert!(link.outstanding_peak <= CREDITS);
}

/// Regression: with the ring smaller than the credit window (8 < 4 x
/// 32) the worker fills the ring long before it runs out of credits.
/// A full ring ends the service batch, and the flusher step after it
/// frees the ring (DESIGN.md §7): nothing spins, nothing strands.
#[test]
fn ring_smaller_than_the_credit_window_completes_and_conserves() {
    let _alone = one_at_a_time();
    const PACKETS: u64 = 5_000;
    let delivered = Arc::new(AtomicU64::new(0));
    let d2 = Arc::clone(&delivered);
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: N_FLOWS,
            admission: AdmissionPolicy::Backpressure { max_backlog: 64 },
            egress: EgressMode::Buffered(BufferedConfig {
                ring_capacity: 8,
                credits: 32,
                n_links: N_LINKS,
                ..BufferedConfig::default()
            }),
            ..RuntimeConfig::default()
        },
        move |_shard| {
            let delivered = Arc::clone(&d2);
            Some(move |_s: usize, _f: &ServedFlit| {
                delivered.fetch_add(1, Ordering::Relaxed);
            })
        },
    );
    for id in 0..PACKETS {
        let flow = (id % N_FLOWS as u64) as usize;
        handle.submit(Packet::new(id, flow, PACKET_LEN, 0)).unwrap();
    }
    let report = rt.shutdown();
    assert!(report.is_conserving(), "{report:?}");
    let flits = PACKETS * u64::from(PACKET_LEN);
    assert_eq!(report.stats.flushed_flits(), flits);
    assert_eq!(delivered.load(Ordering::Relaxed), flits);
    let egress = report.stats.egress.as_ref().expect("buffered snapshot");
    assert!(
        egress.shards[0].ring_full_spins > 0,
        "the scenario must actually fill the ring: {egress:?}"
    );
    assert!(
        egress.peak_ring_occupancy() <= 15,
        "capacity 8 rounds to 15"
    );
}

/// Regression: in the ledger's buffered shape (a 256-flit batch wider
/// than 4 links x 32 credits) a batch used to spend each link's whole
/// pool into a ring its own flusher step had not drained yet, find the
/// pool empty, and park the link's flows — one park and one unpark call
/// per two flits served. A chunk now ends at the first spent grant and
/// the flusher step after it returns the credits (DESIGN.md §7), so a
/// sink that always accepts never leaves a pool empty at a refill.
#[test]
fn a_batch_wider_than_the_credit_window_never_parks_on_its_own_ring() {
    let _alone = one_at_a_time();
    const PACKETS: u64 = 200_000;
    const LEN: u32 = 8;
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: N_FLOWS,
            admission: AdmissionPolicy::Backpressure { max_backlog: 64 },
            egress: buffered(),
            ..RuntimeConfig::default()
        },
        |_shard| Some(|_s: usize, _f: &ServedFlit| {}),
    );
    for id in 0..PACKETS {
        let flow = (id % N_FLOWS as u64) as usize;
        handle.submit(Packet::new(id, flow, LEN, 0)).unwrap();
    }
    let report = rt.shutdown();
    assert!(report.is_conserving(), "{report:?}");
    assert_eq!(report.stats.flushed_flits(), PACKETS * u64::from(LEN));
    let egress = report.stats.egress.as_ref().expect("buffered snapshot");
    assert_eq!(
        egress.shards[0].credit_exhaustions, 0,
        "a link was parked on credits its own ring held: {egress:?}"
    );
}

/// A packet longer than the credit window (8 flits against 3 credits)
/// is served in grant-sized runs: every run stops inside the packet at
/// a spent grant, and the flusher step after the chunk returns the
/// credits the next run continues on. With the ring-capacity test above
/// this covers both limits on a run. Each flow's flits reach the sink
/// in packet order and, within a packet, in flit order; nothing is lost;
/// and no link ever has more flits out than its pool.
#[test]
fn a_packet_longer_than_the_credit_window_is_served_in_grant_sized_runs() {
    let _alone = one_at_a_time();
    const PACKETS: u64 = 20_000;
    const LEN: u32 = 8;
    const CREDITS: u64 = 3;
    let seen = Arc::new(Mutex::new(Vec::new()));
    let s2 = Arc::clone(&seen);
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: N_FLOWS,
            admission: AdmissionPolicy::Backpressure { max_backlog: 64 },
            egress: EgressMode::Buffered(BufferedConfig {
                credits: CREDITS,
                n_links: N_LINKS,
                ..BufferedConfig::default()
            }),
            ..RuntimeConfig::default()
        },
        move |_shard| {
            let seen = Arc::clone(&s2);
            Some(move |_s: usize, f: &ServedFlit| seen.lock().unwrap().push(*f))
        },
    );
    for id in 0..PACKETS {
        let flow = (id % N_FLOWS as u64) as usize;
        handle.submit(Packet::new(id, flow, LEN, 0)).unwrap();
    }
    let report = rt.shutdown();
    assert!(report.is_conserving(), "{report:?}");
    let flits = PACKETS * u64::from(LEN);
    assert_eq!(report.stats.flushed_flits(), flits);
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len() as u64, flits, "the sink saw every flit once");
    // Per flow: packet ids rise (submission order), and each packet's
    // flits arrive 0..LEN without a gap or a foreign flit between.
    let mut next: Vec<Option<(u64, u32)>> = vec![None; N_FLOWS];
    let mut last: Vec<Option<u64>> = vec![None; N_FLOWS];
    for f in seen.iter() {
        match next[f.flow] {
            Some((pkt, idx)) => {
                assert_eq!((f.packet, f.flit_index), (pkt, idx), "flow {}", f.flow);
            }
            None => {
                assert_eq!(f.flit_index, 0, "flow {} packet began mid-flit", f.flow);
                assert!(
                    last[f.flow].is_none_or(|p| f.packet > p),
                    "flow {} FIFO",
                    f.flow
                );
                last[f.flow] = Some(f.packet);
            }
        }
        next[f.flow] = (!f.is_tail()).then_some((f.packet, f.flit_index + 1));
    }
    assert!(
        next.iter().all(Option::is_none),
        "a packet was left unfinished"
    );
    let egress = report.stats.egress.as_ref().expect("buffered snapshot");
    for (link, l) in egress.links.iter().enumerate() {
        assert!(
            l.outstanding_peak <= CREDITS,
            "link {link}: {} flits out on a {CREDITS}-credit pool",
            l.outstanding_peak
        );
        assert_eq!(l.credits_available, CREDITS, "link {link}: a grant leaked");
    }
}

/// The cross-shard wake (DESIGN.md §7): two shards share one link with
/// a single credit. Shard B's flit holds the credit inside a sink the
/// test keeps shut; shard A's worker takes in a packet, finds the pool
/// empty, parks the link's flows and itself. Only B's flusher step can
/// return that credit — and it is B's worker that must wake A. Between
/// the moment A is starved and the moment A's flit reaches the sink, no
/// other waker exists (no producer blocks, A's own flusher step has
/// nothing to deliver), so a park of A ended by a wake in that window
/// is the cross-shard edge.
#[test]
fn credit_returned_by_another_shards_flusher_wakes_the_starved_worker() {
    let _alone = one_at_a_time();
    const ROUNDS: u64 = 20;
    struct Gate {
        /// B-flits the sink may let through.
        permits: AtomicU64,
        /// B-flits that have reached the sink (and wait there).
        b_arrived: AtomicU64,
        a_delivered: AtomicU64,
        /// A's woken parks as read by the sink when A's flit arrives.
        a_woken_at_delivery: AtomicU64,
        handle: std::sync::OnceLock<RuntimeHandle>,
    }
    let gate = Arc::new(Gate {
        permits: AtomicU64::new(0),
        b_arrived: AtomicU64::new(0),
        a_delivered: AtomicU64::new(0),
        a_woken_at_delivery: AtomicU64::new(0),
        handle: std::sync::OnceLock::new(),
    });
    let g2 = Arc::clone(&gate);
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 2,
            n_flows: N_FLOWS,
            egress: EgressMode::Buffered(BufferedConfig {
                ring_capacity: 16,
                credits: 1,
                n_links: 1,
                ..BufferedConfig::default()
            }),
            ..RuntimeConfig::default()
        },
        move |_shard| {
            let g = Arc::clone(&g2);
            Some(move |_s: usize, f: &ServedFlit| {
                let handle = g.handle.get().expect("set before traffic");
                if handle.shard_of(f.flow) == 1 {
                    g.b_arrived.fetch_add(1, Ordering::Release);
                    while g
                        .permits
                        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| p.checked_sub(1))
                        .is_err()
                    {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                } else {
                    g.a_woken_at_delivery
                        .store(woken_parks(&handle.stats(), 0), Ordering::Release);
                    g.a_delivered.fetch_add(1, Ordering::Release);
                }
            })
        },
    );
    gate.handle.set(handle.clone()).ok().expect("set once");
    let flow_on = |shard| {
        (0..N_FLOWS)
            .find(|&f| handle.shard_of(f) == shard)
            .expect("64 flows cover both shards")
    };
    let (flow_a, flow_b) = (flow_on(0), flow_on(1));
    let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_micros(100));
        }
    };
    let starved = |rt: &Runtime| rt.stats().egress.expect("buffered").shards[0].credit_exhaustions;

    let mut woken_across = 0u64;
    for round in 0..ROUNDS {
        // B takes the only credit and its flit sticks in the sink.
        handle.submit(Packet::new(2 * round, flow_b, 1, 0)).unwrap();
        wait_for("B's flit to reach the shut sink", &|| {
            gate.b_arrived.load(Ordering::Acquire) == round + 1
        });
        // A finds no credit for its flit, parks the flow and goes idle.
        let before = starved(&rt);
        handle
            .submit(Packet::new(2 * round + 1, flow_a, 1, 0))
            .unwrap();
        wait_for("A to run out of credits", &|| starved(&rt) > before);
        std::thread::sleep(Duration::from_millis(1));
        let woken_before = woken_parks(&handle.stats(), 0);
        // Open the gate: B's flusher step returns the credit.
        gate.permits.fetch_add(1, Ordering::Release);
        wait_for("A's flit to be delivered", &|| {
            gate.a_delivered.load(Ordering::Acquire) == round + 1
        });
        if gate.a_woken_at_delivery.load(Ordering::Acquire) > woken_before {
            woken_across += 1;
        }
    }
    let report = rt.shutdown();
    assert!(report.is_conserving(), "{report:?}");
    assert_eq!(report.served_packets(), 2 * ROUNDS);
    assert_eq!(report.stats.flushed_flits(), 2 * ROUNDS);
    let egress = report.stats.egress.as_ref().expect("buffered snapshot");
    assert_eq!(egress.links[0].credits_available, 1, "credit leaked");
    assert_eq!(egress.links[0].outstanding_peak, 1);
    // A wake can miss a worker that is awake for the few microseconds
    // between two parks; it cannot miss it twenty times.
    assert!(
        woken_across >= ROUNDS / 2,
        "B's flusher woke the starved worker of shard A in only {woken_across} of {ROUNDS} rounds"
    );
}

/// A resumed worker (DESIGN.md §9.2) sleeps on the same wake cell
/// under the thread handle it registered once: after a planned kill
/// and resume, producers blocked on backpressure still end its parks,
/// and nothing strands.
#[test]
fn resurrected_worker_is_woken_through_its_reregistered_handle() {
    let _alone = one_at_a_time();
    const LEN: u32 = 4;
    let delivered = Arc::new(AtomicU64::new(0));
    let d2 = Arc::clone(&delivered);
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: 8,
            admission: AdmissionPolicy::Backpressure { max_backlog: 8 },
            egress: EgressMode::Buffered(BufferedConfig {
                ring_capacity: 64,
                credits: 16,
                n_links: 2,
                ..BufferedConfig::default()
            }),
            fault_plan: Some(FaultPlan::new().panic_shard_at(0, 0, 200)),
            ..RuntimeConfig::default()
        },
        move |_shard| {
            let delivered = Arc::clone(&d2);
            Some(move |_s: usize, f: &ServedFlit| {
                delivered.fetch_add(u64::from(f.is_tail()), Ordering::Relaxed);
            })
        },
    );
    let mut id = 0u64;
    let mut burst = |handle: &RuntimeHandle| {
        // Three packets of one flow against a two-packet cap: the
        // third submit waits for the worker, waking it if it sleeps.
        for _ in 0..3 {
            handle
                .submit(Packet::new(id, (id / 3 % 8) as usize, LEN, 0))
                .unwrap();
            id += 1;
        }
    };
    // Drive the flit clock past the planned kill.
    let board = rt.fault_board();
    let deadline = Instant::now() + Duration::from_secs(20);
    while board.recovery_micros(0).is_none() {
        assert!(Instant::now() < deadline, "kill never fired / no successor");
        burst(&handle);
    }
    // The successor is in charge. Let it go idle between bursts, so
    // that each burst finds it parked.
    let woken_before = woken_parks(&handle.stats(), 0);
    for _ in 0..50 {
        std::thread::sleep(Duration::from_micros(500));
        burst(&handle);
    }
    let woken = woken_parks(&handle.stats(), 0) - woken_before;
    let report = rt.shutdown();
    assert!(report.is_conserving(), "{report:?}");
    assert_eq!(report.lost_packets(), 0, "{report:?}");
    assert_eq!(report.served_packets(), id, "no strand: {report:?}");
    assert_eq!(delivered.load(Ordering::Relaxed), id);
    assert!(
        woken >= 10,
        "the successor's parks must be ended by wakes (a stale thread \
         handle would leave every one to the timer): {woken} woken of 50 bursts"
    );
}

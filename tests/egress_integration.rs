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
    AdmissionPolicy, BufferedConfig, DeadLinkPolicy, DrainReport, EgressMode, FaultPlan, Runtime,
    RuntimeConfig, RuntimeHandle, RuntimeStats, ShardExit, StallPlan, SupervisionConfig,
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

fn buffered(stall_plan: Option<StallPlan>) -> EgressMode {
    EgressMode::Buffered(BufferedConfig {
        ring_capacity: 256,
        credits: 32,
        n_links: N_LINKS,
        stall_plan,
        ..BufferedConfig::default()
    })
}

/// Runs a saturating workload for `window`, returning flits delivered
/// per link during that window. `sync_frozen` (sync mode only) makes
/// the sink block on link-0 flits while set — the synchronous
/// equivalent of a dead downstream.
fn measure_delivered(
    egress: EgressMode,
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

/// The tentpole acceptance criterion: with 1 of 4 links dead under
/// buffered egress, the other links keep >= 90% of their no-stall
/// throughput; the legacy sync path collapses in the same scenario.
#[test]
fn stalled_link_isolation_buffered_while_sync_collapses() {
    let _alone = one_at_a_time();
    let window = Duration::from_millis(250);

    // Buffered: baseline, then with link 0 frozen from flush-clock 0.
    let base_buf = measure_delivered(buffered(None), None, window);
    let stall_buf = measure_delivered(
        buffered(Some(StallPlan::freeze_forever(0, 0))),
        None,
        window,
    );
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
    let base_sync = measure_delivered(EgressMode::Sync, None, window);
    let frozen = Arc::new(AtomicBool::new(true));
    let f2 = Arc::clone(&frozen);
    // Unfreeze from a watchdog thread after the window so shutdown
    // completes; measurement has already ended by then.
    let unfreezer = std::thread::spawn(move || {
        std::thread::sleep(window + Duration::from_millis(50));
        f2.store(false, Ordering::Release);
    });
    let stall_sync = measure_delivered(EgressMode::Sync, Some(frozen), window);
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
                stall_plan: Some(StallPlan::freeze_forever(0, 0)),
                ..BufferedConfig::default()
            }),
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

/// The bounded-buffering criterion: under a churning stall schedule
/// with a tiny credit pool, no link ever has more than `credits`
/// outstanding flits (so at most `ring_capacity + credits` buffered
/// anywhere), and everything still conserves.
#[test]
fn credit_pool_bounds_buffered_flits_per_link() {
    let _alone = one_at_a_time();
    const CREDITS: u64 = 4;
    let rng = desim::SimRng::new(0xE65);
    // Frequent short stalls across all links over the whole run.
    let plan = StallPlan::from_rng(&rng, N_LINKS, 200_000, 0.005, 20, 200);
    assert!(!plan.is_empty());
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 2,
            n_flows: N_FLOWS,
            egress: EgressMode::Buffered(BufferedConfig {
                ring_capacity: 32,
                credits: CREDITS,
                n_links: N_LINKS,
                stall_plan: Some(plan),
                ..BufferedConfig::default()
            }),
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

/// Buffered egress must not change *what* is scheduled, only how it is
/// delivered: for one shard and an identical pre-loaded workload, every
/// flow sees the identical flit sequence under sync and buffered modes.
/// With a `fault_plan` the shard runs under supervision (DESIGN.md
/// §9.2), so the same holds across a worker death whose successor
/// adopts the egress stage of either mode.
fn assert_buffered_matches_sync(fault_plan: Option<FaultPlan>) {
    let faulted = fault_plan.is_some();
    let run = |egress: EgressMode| -> (Vec<ServedFlit>, DrainReport) {
        let seen: Arc<Mutex<Vec<ServedFlit>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        let (rt, handle) = Runtime::start_with_egress(
            RuntimeConfig {
                shards: 1,
                n_flows: 8,
                egress,
                supervision: faulted.then(SupervisionConfig::default),
                fault_plan: fault_plan.clone(),
                ..RuntimeConfig::default()
            },
            move |_shard| {
                let seen = Arc::clone(&s2);
                Some(move |_s: usize, f: &ServedFlit| seen.lock().unwrap().push(*f))
            },
        );
        for id in 0..1_000u64 {
            handle
                .submit(Packet::new(id, (id % 8) as usize, 1 + (id % 6) as u32, 0))
                .unwrap();
        }
        let report = rt.shutdown();
        (Arc::try_unwrap(seen).unwrap().into_inner().unwrap(), report)
    };

    let (sync, sync_report) = run(EgressMode::Sync);
    let (buf, buf_report) = run(buffered(None));
    for report in [&sync_report, &buf_report] {
        assert!(report.is_conserving(), "{report:?}");
        assert_eq!(report.served_packets(), 1_000, "{report:?}");
        assert_eq!(report.lost_packets(), 0, "{report:?}");
        let exit = if faulted {
            ShardExit::Panicked
        } else {
            ShardExit::Clean
        };
        assert_eq!(report.exits, [exit], "{report:?}");
    }
    assert_eq!(sync.len(), buf.len(), "flit counts differ");
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
        assert_eq!(a, b, "flow {flow} diverged between sync and buffered");
    }
}

#[test]
fn buffered_matches_sync_per_flow_sequences() {
    let _alone = one_at_a_time();
    assert_buffered_matches_sync(None);
}

/// The same equivalence across a shard death: one seeded kill in the
/// middle of the ~3 500-flit run, and the successor carries on from the
/// bequeathed stage — the sync stage's sink or the buffered stage's
/// ring, parking marks and pushed count — with nothing lost in either mode.
#[test]
fn buffered_matches_sync_across_a_resurrection() {
    let _alone = one_at_a_time();
    let at = desim::SimRng::new(0x5EED).uniform_u32(500, 2_500);
    assert_buffered_matches_sync(Some(FaultPlan::new().kill_shard_at(0, u64::from(at))));
}

/// A sink that panics on the flusher thread (DESIGN.md §14.4) must not
/// wedge the drain: the flusher keeps its core, dead-letters whatever
/// the shard still commits so the credits keep returning, and the
/// report says `Panicked`. `shutdown` is the drain under test; both
/// callers must see it finish gracefully.
fn drain_after_a_sink_panic(shutdown: impl FnOnce(Runtime) -> DrainReport) {
    const PACKETS: u64 = 500;
    const SURVIVES: u64 = 100;
    let emitted = Arc::new(AtomicU64::new(0));
    let e2 = Arc::clone(&emitted);
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
        move |_shard| {
            let emitted = Arc::clone(&e2);
            Some(move |_s: usize, _f: &ServedFlit| {
                if emitted.fetch_add(1, Ordering::Relaxed) == SURVIVES {
                    panic!("sink: downstream went away (injected by the test)");
                }
            })
        },
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
    assert_eq!(report.flusher_exits, [ShardExit::Panicked]);
    assert!(!report.all_clean());
    let egress = report.stats.egress.as_ref().expect("buffered snapshot");
    assert_eq!(egress.flusher_panics(), 1);
    // The sink took 100 flits and died on the next; that one and every
    // flit after it is dead-lettered, none is called delivered — and
    // the per-shard count agrees with the per-link ledger: the step
    // that unwound still reports what it delivered.
    let flits = PACKETS * u64::from(PACKET_LEN);
    assert_eq!(emitted.load(Ordering::Relaxed), SURVIVES + 1);
    let delivered: u64 = egress.links.iter().map(|l| l.delivered_flits).sum();
    let dead: u64 = egress.links.iter().map(|l| l.dead_letter_flits).sum();
    assert_eq!((delivered, dead), (SURVIVES, flits - SURVIVES));
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
/// worker runs out of credits every 128 flits, a flusher that sleeps
/// whenever its ring is empty, and a producer blocked on backpressure.
/// Everything conserves in per-flow order, and the worker's parks are
/// ended by its peers' wakes — the timeout is the exception.
#[test]
fn event_driven_handoffs_conserve_and_rarely_time_out() {
    let _alone = one_at_a_time();
    // Long packets keep the producer ahead of the worker on every
    // build: a submit costs the producer once per packet, the worker
    // and the flusher pay per flit. (With 4-flit packets a debug
    // build's producer is the slow side; its worker then idles and is
    // refilled by plain pushes — the path that deliberately never
    // wakes — and most parks run to the timer by design.)
    const LEN: u64 = 16;
    /// 320 k flits, over the 200 k asked. A debug build's worker is
    /// the slow side and seldom starves, the more seldom the fewer
    /// cycles its flusher wastes: over 80 lone debug
    /// runs of 20 000 packets the worker parked 79–1 889 times at PR 18
    /// and 26–2 052 times once an idle flusher stopped spinning (PR 20),
    /// under the 50 parks asked below in 12 of them. Four times the
    /// traffic, the same thresholds: 166–8 216 parks over 60 runs.
    const PACKETS: u64 = if cfg!(debug_assertions) {
        80_000
    } else {
        20_000
    };
    // A sink light enough that a flusher step stays far below the
    // worker's park timeout.
    let next: Arc<Vec<AtomicU64>> = Arc::new((0..N_FLOWS).map(|_| AtomicU64::new(0)).collect());
    let disorder = Arc::new(AtomicU64::new(0));
    let (n2, d2) = (Arc::clone(&next), Arc::clone(&disorder));
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: N_FLOWS,
            admission: AdmissionPolicy::Backpressure { max_backlog: 64 },
            egress: buffered(None),
            ..RuntimeConfig::default()
        },
        move |_shard| {
            let (next, disorder) = (Arc::clone(&n2), Arc::clone(&d2));
            Some(move |_s: usize, f: &ServedFlit| expect_flow_fifo(&next, &disorder, LEN, f))
        },
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
    let shard = &report.stats.shards[0];
    assert!(
        shard.parks > 50,
        "32 credits x 4 links must starve the worker over and over: {shard:?}"
    );
    // A debug build parks ten times less often (its worker is the
    // slow side), so the few timeouts a busy host forces — the
    // producer loses its core, the worker idles — weigh more: worst
    // seen 10.1 % in 45 debug runs, 1.2 % in release.
    let share = if cfg!(debug_assertions) { 4 } else { 10 };
    assert!(
        shard.park_timeouts <= shard.parks / share,
        "parks must end by a peer's wake, not by the timer: {} of {} timed out",
        shard.park_timeouts,
        shard.parks
    );
    // The flusher's side of the same hand-off. Both sleeps are covered
    // at saturation (DESIGN.md §6), so a timeout here is no longer a
    // 100 µs poll but a wake that got lost and a 10 ms hiccup.
    let flusher = &report.stats.egress.as_ref().expect("buffered").shards[0];
    assert!(flusher.flusher_parks > 50, "{flusher:?}");
    assert!(
        flusher.flusher_park_timeouts <= flusher.flusher_parks / share,
        "the flusher's sleeps must end by the worker's wake: {} of {} timed out",
        flusher.flusher_park_timeouts,
        flusher.flusher_parks
    );
}

/// The idle path where spinning never pays (DESIGN.md §6): a sink
/// that sleeps 200 µs per flit behind four 4-credit links keeps worker
/// and flusher handing over to each other every few flits, and no look
/// at a wake predicate is ever answered — the peer it waits for is
/// asleep in the sink or waiting on us. An idle loop must be a park
/// (plus the odd look or re-check that found work), not 64 whole loops
/// per park. The slow sink, not the host's
/// core count, is what makes the spin futile: this holds anywhere.
#[test]
fn idle_threads_do_not_spin_where_spinning_never_pays() {
    let _alone = one_at_a_time();
    const LEN: u64 = PACKET_LEN as u64;
    const PACKETS: u64 = 2_000;
    let next: Arc<Vec<AtomicU64>> = Arc::new((0..N_FLOWS).map(|_| AtomicU64::new(0)).collect());
    let disorder = Arc::new(AtomicU64::new(0));
    let (n2, d2) = (Arc::clone(&next), Arc::clone(&disorder));
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: N_FLOWS,
            // Two packets a flow: the producer waits on the worker for
            // the whole run, as the worker waits on the flusher.
            admission: AdmissionPolicy::Backpressure { max_backlog: 8 },
            egress: EgressMode::Buffered(BufferedConfig {
                ring_capacity: 64,
                credits: 4,
                n_links: N_LINKS,
                ..BufferedConfig::default()
            }),
            ..RuntimeConfig::default()
        },
        move |_shard| {
            let (next, disorder) = (Arc::clone(&n2), Arc::clone(&d2));
            Some(move |_s: usize, f: &ServedFlit| {
                std::thread::sleep(Duration::from_micros(200));
                expect_flow_fifo(&next, &disorder, LEN, f);
            })
        },
    );
    // (idle loops or rounds, parks) of the worker and of the flusher.
    let idleness = |stats: &RuntimeStats| {
        let (w, f) = (
            &stats.shards[0],
            &stats.egress.as_ref().expect("buffered").shards[0],
        );
        [
            (w.idle_loops, w.parks),
            (f.flusher_idle_rounds, f.flusher_parks),
        ]
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
    for (who, (settled, end)) in ["worker", "flusher"].iter().zip(settled.iter().zip(end)) {
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

/// The sleep taxonomy, idle side (DESIGN.md §6): a flusher with an
/// empty ring and nothing pending waits for two announced events — a
/// ring push, the shutdown latch — so it sleeps on the 10 ms backstop,
/// not on a 100 µs timer (~1 000 parks in 100 ms before), and still
/// learns of the shutdown at once: the latch is announced too.
#[test]
fn idle_flushers_sleep_on_the_backstop_and_hear_the_shutdown() {
    let _alone = one_at_a_time();
    let mut fastest = Duration::MAX;
    for _ in 0..3 {
        let (rt, _handle) = Runtime::start_with_egress(
            RuntimeConfig {
                shards: 2,
                n_flows: N_FLOWS,
                egress: buffered(None),
                ..RuntimeConfig::default()
            },
            |_shard| Some(|_s: usize, _f: &ServedFlit| {}),
        );
        std::thread::sleep(Duration::from_millis(100));
        let egress = rt.stats().egress.expect("buffered");
        for (shard, s) in egress.shards.iter().enumerate() {
            assert!(
                s.flusher_parks <= 30,
                "shard {shard}: an idle flusher parked {} times in 100 ms",
                s.flusher_parks
            );
        }
        let t = Instant::now();
        let report = rt.shutdown();
        fastest = fastest.min(t.elapsed());
        assert!(report.is_conserving(), "{report:?}");
        assert!(report.all_clean(), "{report:?}");
    }
    // Unannounced, each flusher would sit out what is left of its
    // backstop: 5 ms a flusher on average, joined one after the other.
    assert!(
        fastest < Duration::from_millis(5),
        "the best of three idle shutdowns took {fastest:?}"
    );
}

/// The overlay gate of the covered sleep (DESIGN.md §6): a supervised
/// worker owes the supervisor a heartbeat nobody announces, so even
/// with every link credit-parked it keeps the short park. Fifty
/// milliseconds of total stall against a 5 ms heartbeat deadline must
/// not get the shard quarantined. (A worker asleep on the 10 ms
/// backstop would be, every time; the host freezing the whole process
/// for longer than the deadline looks the same to the supervisor and
/// happens now and then, so one clean attempt in three is the verdict.)
#[test]
fn starved_worker_under_supervision_keeps_beating() {
    let _alone = one_at_a_time();
    const PACKETS: u64 = 200;
    let attempt = || -> DrainReport {
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
                supervision: Some(SupervisionConfig {
                    poll: Duration::from_millis(1),
                    heartbeat_deadline: Duration::from_millis(5),
                }),
                ..RuntimeConfig::default()
            },
            |_shard| Some(|_s: usize, _f: &ServedFlit| {}),
        );
        let controller = rt.egress_controller().expect("buffered mode").clone();
        for link in 0..N_LINKS {
            controller.freeze(link);
        }
        for id in 0..PACKETS {
            let flow = (id % N_FLOWS as u64) as usize;
            handle.submit(Packet::new(id, flow, PACKET_LEN, 0)).unwrap();
        }
        std::thread::sleep(Duration::from_millis(50));
        let starved = rt.stats().egress.expect("buffered").shards[0].credit_exhaustions;
        assert!(
            starved >= N_LINKS as u64,
            "every link must have run out of credits: {starved}"
        );
        for link in 0..N_LINKS {
            controller.release_stall(link);
        }
        rt.shutdown()
    };
    let report = (0..3)
        .map(|_| attempt())
        .find(|report| report.exits == [ShardExit::Clean])
        .expect("the starved worker was quarantined three times out of three");
    assert!(report.is_conserving(), "{report:?}");
    assert_eq!(report.served_packets(), PACKETS);
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
/// It used to spin on the full ring, which on a shared core burnt its
/// whole timeslice against a flusher that was asleep; now it wakes
/// the flusher and yields between retries.
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

/// The cross-shard wake (DESIGN.md §7): two shards share one link with
/// a single credit. Shard B's flit holds the credit inside a sink the
/// test keeps shut; shard A's worker takes in a packet, finds the pool
/// empty, parks the link's flows and itself. Only B's flusher can return that
/// credit — and it is B's flusher that must wake A. Between the
/// moment A is starved and the moment A's flit reaches the sink, no
/// other waker exists (no producer blocks, A's own flusher has
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
        // Open the gate: B's flusher returns the credit.
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

/// A successor worker (DESIGN.md §9.2) sleeps on the same wake cell
/// as the worker it replaces, under its own thread handle: after a
/// planned kill and adoption, producers blocked on backpressure still
/// end its parks, and nothing strands.
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
            supervision: Some(SupervisionConfig::default()),
            fault_plan: Some(FaultPlan::new().kill_shard_at(0, 200)),
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
    let board = rt.fault_board().expect("supervision publishes a board");
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

//! Tier-1 acceptance for the fault-tolerance layer (DESIGN.md §9).
//!
//! Six parts:
//!
//! * doc–code drift tests:
//!   DESIGN.md §9 is a normative spec, so it must keep naming exactly
//!   the lifecycle variants and protocol vocabulary the code exports;
//! * a chaos integration run: a seeded `FaultPlan` kills 1 of 4 shards
//!   mid-run, the runtime finishes without panicking, nothing is
//!   `lost`, and every flow's emit log is identical to a fault-free
//!   run's — the worker resumed its scheduler between two flits;
//! * a sink that panics once mid-batch under sync egress: the resumed
//!   loop finishes the interrupted batch, so the ledger still balances;
//! * a killed shard resumes on its own thread, under sync and buffered
//!   egress, and a wedged one is abandoned at a bounded forced shutdown
//!   with an exact deficit;
//! * `shutdown_within` under a forever-stalled link: returns within
//!   the deadline instead of hanging, with the abandoned backlog
//!   reported as losses;
//! * a regression for the pre-§9 bug where `Runtime::shutdown`
//!   re-panicked on a panicked worker join.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use desim::SimRng;
use err_runtime::{
    AdmissionPolicy, BufferedConfig, DeadLinkPolicy, EgressMode, FaultKind, FaultPlan, LinkState,
    Runtime, RuntimeConfig, RuntimeHandle, Shape, ShardExit, Submitted,
};
use err_sched::{Packet, ServedFlit};

/// Every worker catches its own panics with `catch_unwind`, which is
/// only possible under unwinding — if a profile ever flips to
/// `panic=abort`, every §9 recovery path silently becomes a crash.
#[test]
// The value is constant *per build* — asserting a build-config
// invariant is the entire point of this test.
#[allow(clippy::assertions_on_constants)]
fn panics_unwind_in_this_build() {
    assert!(
        cfg!(panic = "unwind"),
        "fault tolerance requires -C panic=unwind (catch_unwind is the worker's fence)"
    );
}

/// DESIGN.md §9, as written.
fn design_section_9() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md");
    let text = std::fs::read_to_string(path).expect("DESIGN.md readable");
    let start = text
        .find("## 9")
        .expect("DESIGN.md must contain a section 9");
    match text[start + 4..].find("\n## ") {
        Some(end) => text[start..start + 4 + end].to_owned(),
        None => text[start..].to_owned(),
    }
}

/// The spec names every lifecycle variant of the real enums, derived
/// via `Debug` so a code rename breaks this test until DESIGN.md §9
/// follows.
#[test]
fn design_section_9_names_the_lifecycle_variants() {
    let spec = design_section_9();
    for exit in [ShardExit::Clean, ShardExit::Panicked, ShardExit::Abandoned] {
        let name = format!("{exit:?}");
        assert!(
            spec.contains(&name),
            "DESIGN.md §9 no longer names shard exit `{name}`"
        );
    }
    for state in [LinkState::Alive, LinkState::Stalled, LinkState::Dead] {
        let name = format!("{state:?}");
        assert!(
            spec.contains(&name),
            "DESIGN.md §9 no longer names link state `{name}`"
        );
    }
    for policy in [
        DeadLinkPolicy::DropAndAccount,
        DeadLinkPolicy::HoldForRecovery,
    ] {
        let name = format!("{policy:?}");
        assert!(
            spec.contains(&name),
            "DESIGN.md §9 no longer names dead-link policy `{name}`"
        );
    }
}

/// The spec names the public types and verbs the protocol is built
/// from.
#[test]
fn design_section_9_names_the_protocol_vocabulary() {
    let spec = design_section_9();
    for name in [
        "FaultPlan",
        "FaultBoard",
        "shutdown_within",
        "TimedOut",
        "WorkerState",
        "resume",
        "spawn_worker",
        "lost",
        "resurrect",
        "dead_letter",
    ] {
        assert!(
            spec.contains(name),
            "DESIGN.md §9 no longer mentions `{name}`"
        );
    }
}

const CHAOS_FLOWS: usize = 8;
const CHAOS_PACKETS: u64 = 24_000;
const CHAOS_LEN: u32 = 8;

/// First seed whose `FaultPlan::from_rng` draw is exactly one shard
/// panic due inside the run — the chaos scenario of the acceptance
/// criteria, reached through the seeded path rather than the explicit
/// builder. The search is deterministic, so the test replays the same
/// plan forever.
fn seeded_kill_plan(shards: usize) -> FaultPlan {
    for seed in 0..20_000u64 {
        let rng = SimRng::new(seed);
        let shape = Shape {
            links: vec![0],
            shards,
            fabric: false,
        };
        let plan = FaultPlan::from_rng(&rng, &shape, 1.0 / 800.0, 2_000);
        let events = plan.events();
        if events.len() == 1 && events[0].kind == FaultKind::PanicShard && events[0].at >= 200 {
            return plan;
        }
    }
    unreachable!("no seed under 20k yields a lone mid-run shard kill");
}

type FlowLog = Vec<Mutex<Vec<(u64, u32)>>>;

/// Runs the fixed chaos workload, capturing per-flow emissions, and
/// returns (per-flow logs, drain report). With `draining` every sink
/// holds its first flit until `shutdown` has closed the gate, so the
/// whole run — planned kill and resume included — happens while the
/// runtime drains.
fn chaos_workload(
    plan: Option<FaultPlan>,
    draining: bool,
) -> (Vec<Vec<(u64, u32)>>, err_runtime::DrainReport) {
    let planned_victims: Vec<usize> = plan
        .as_ref()
        .map(|p| {
            p.events()
                .iter()
                .filter(|e| e.kind == FaultKind::PanicShard)
                .map(|e| e.target.shard)
                .collect()
        })
        .unwrap_or_default();
    let captured: Arc<FlowLog> =
        Arc::new((0..CHAOS_FLOWS).map(|_| Mutex::new(Vec::new())).collect());
    let gate: Arc<OnceLock<RuntimeHandle>> = Arc::new(OnceLock::new());
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 4,
            n_flows: CHAOS_FLOWS,
            ring_capacity: 1 << 14,
            fault_plan: plan,
            ..RuntimeConfig::default()
        },
        {
            let (captured, gate) = (Arc::clone(&captured), Arc::clone(&gate));
            move |_shard| {
                let (captured, gate) = (Arc::clone(&captured), Arc::clone(&gate));
                Some(move |_s: usize, f: &ServedFlit| {
                    while draining && !gate.get().is_some_and(|h| h.is_closed()) {
                        std::thread::yield_now();
                    }
                    // A flow never leaves its shard, whose one thread
                    // serves it for life, so one lock per flow records
                    // a well-defined per-flow order.
                    captured[f.flow]
                        .lock()
                        .unwrap()
                        .push((f.packet, f.flit_index));
                })
            }
        },
    );
    assert!(gate.set(handle.clone()).is_ok());
    for id in 0..CHAOS_PACKETS {
        let flow = (id % CHAOS_FLOWS as u64) as usize;
        assert_eq!(
            handle.submit(Packet::new(id, flow, CHAOS_LEN, 0)),
            Ok(Submitted::Enqueued)
        );
    }
    // Mid-run: wait for every planned kill to fire *and* its worker to
    // resume before closing, so the run exercises mid-run resumption
    // rather than a death racing shutdown.
    if !draining {
        let board = rt.fault_board();
        let deadline = Instant::now() + Duration::from_secs(10);
        while planned_victims
            .iter()
            .any(|&v| board.recovery_micros(v).is_none())
        {
            assert!(
                Instant::now() < deadline,
                "planned kill never fired / successor never adopted"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let report = rt.shutdown();
    let logs = captured.iter().map(|m| m.lock().unwrap().clone()).collect();
    (logs, report)
}

/// The expected fault-free per-flow emission: submission order, flit
/// indices contiguous per packet.
fn expected_flow_log(flow: usize) -> Vec<(u64, u32)> {
    let mut v = Vec::new();
    let mut id = flow as u64;
    while id < CHAOS_PACKETS {
        for idx in 0..CHAOS_LEN {
            v.push((id, idx));
        }
        id += CHAOS_FLOWS as u64;
    }
    v
}

/// Seeded `FaultPlan` kills 1 of 4 shards (DESIGN.md §9.2), once
/// mid-run and once with the gate already closed: no panic escapes,
/// the dying worker's fence catches it and the loop resumes on the same
/// thread with the same scheduler — so *nothing* is lost, not even the
/// wormhole in flight: the scheduler resumes between two flit
/// emissions, every flow's emit log is identical to the fault-free
/// run's, and a worker resumed mid-drain finishes the drain.
#[test]
fn resurrection_recovers_a_killed_shard_with_zero_loss() {
    let (clean_logs, clean_report) = chaos_workload(None, false);
    assert!(clean_report.is_conserving(), "{clean_report:?}");
    assert_eq!(clean_report.served_packets(), CHAOS_PACKETS);
    for (flow, log) in clean_logs.iter().enumerate() {
        assert_eq!(log, &expected_flow_log(flow), "fault-free flow {flow}");
    }

    for draining in [false, true] {
        let plan = seeded_kill_plan(4);
        let victim = plan.events()[0].target.shard;
        let (logs, report) = chaos_workload(Some(plan), draining);

        assert!(report.is_conserving(), "{report:?}");
        assert_eq!(
            report.lost_packets(),
            0,
            "resurrection adopts the scheduler whole — no wormhole is cut: {report:?}"
        );
        assert_eq!(report.served_packets(), CHAOS_PACKETS, "{report:?}");
        for (shard, exit) in report.exits.iter().enumerate() {
            // The shard's death stays on the record even though its
            // lineage recovered.
            let expected = if shard == victim {
                ShardExit::Panicked
            } else {
                ShardExit::Clean
            };
            assert_eq!(*exit, expected, "shard {shard}: {:?}", report.exits);
        }
        for (flow, log) in logs.iter().enumerate() {
            assert_eq!(
                log, &clean_logs[flow],
                "flow {flow} diverged from the fault-free run (draining: {draining})"
            );
        }
    }
}

/// A sink bug under sync egress: the sink panics once, on the 101st
/// flit it is offered — mid-batch, with the rest of that
/// `service_batch` already pulled out of the scheduler. The batch stays
/// in the stage and the resumed loop's first `serve` finishes it
/// (DESIGN.md §9.2), so every flit reaches the sink exactly once,
/// nothing is lost, and no admission charge leaks to wedge a
/// backpressured producer.
#[test]
fn sink_panic_mid_batch_is_finished_by_the_successor() {
    use std::sync::atomic::{AtomicU64, Ordering};

    const FLOWS: usize = 4;
    const PACKETS: u64 = 2_000;
    const LEN: u32 = 8;
    let captured: Arc<FlowLog> = Arc::new((0..FLOWS).map(|_| Mutex::new(Vec::new())).collect());
    let offered = Arc::new(AtomicU64::new(0));
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: FLOWS,
            admission: AdmissionPolicy::Backpressure { max_backlog: 128 },
            ..RuntimeConfig::default()
        },
        {
            let (captured, offered) = (Arc::clone(&captured), Arc::clone(&offered));
            move |_shard| {
                let (captured, offered) = (Arc::clone(&captured), Arc::clone(&offered));
                Some(move |_s: usize, f: &ServedFlit| {
                    captured[f.flow]
                        .lock()
                        .unwrap()
                        .push((f.packet, f.flit_index));
                    if offered.fetch_add(1, Ordering::Relaxed) == 100 {
                        panic!("sink bug: the 101st flit is cursed");
                    }
                })
            }
        },
    );
    for id in 0..PACKETS {
        let flow = (id % FLOWS as u64) as usize;
        // Bounded: a leaked admission charge would otherwise hang the
        // test here instead of failing it.
        assert_eq!(
            handle.submit_within(Packet::new(id, flow, LEN, 0), Duration::from_secs(10)),
            Ok(Submitted::Enqueued),
            "packet {id}: a backpressured submit starved"
        );
    }
    let report = rt.shutdown();
    assert!(report.is_conserving(), "{report:?}");
    assert_eq!(report.served_packets(), PACKETS, "{report:?}");
    assert_eq!(report.stats.served_flits(), PACKETS * LEN as u64);
    assert_eq!(report.lost_packets(), 0, "{report:?}");
    assert_eq!(report.exits, [ShardExit::Panicked]);
    for (flow, log) in captured.iter().enumerate() {
        let expected: Vec<(u64, u32)> = (0..PACKETS)
            .filter(|id| (id % FLOWS as u64) as usize == flow)
            .flat_map(|id| (0..LEN).map(move |idx| (id, idx)))
            .collect();
        assert_eq!(
            *log.lock().unwrap(),
            expected,
            "flow {flow}: a flit was skipped or offered twice"
        );
    }
}

/// A sink that unwinds on the *last* flit of a batch (DESIGN.md §9.2):
/// with one-flit batches every flit is its batch's last, so the
/// interrupted batch has nothing left to offer, and the resumed loop's
/// first `serve` must still count it before pulling the next. Every
/// flit is counted once, on the ledger and on the flit clock.
#[test]
fn sink_panic_on_a_batchs_last_flit_still_counts_the_batch() {
    use std::sync::atomic::{AtomicU64, Ordering};

    const PACKETS: u64 = 50;
    const LEN: u32 = 2;
    let offered = Arc::new(AtomicU64::new(0));
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: 4,
            batch_flits: 1,
            ..RuntimeConfig::default()
        },
        {
            let offered = Arc::clone(&offered);
            move |_shard| {
                let offered = Arc::clone(&offered);
                Some(move |_s: usize, _f: &ServedFlit| {
                    if offered.fetch_add(1, Ordering::Relaxed) % 7 == 6 {
                        panic!("sink bug: every seventh flit is cursed");
                    }
                })
            }
        },
    );
    for id in 0..PACKETS {
        assert_eq!(
            handle.submit(Packet::new(id, (id % 4) as usize, LEN, 0)),
            Ok(Submitted::Enqueued)
        );
    }
    let report = rt.shutdown();
    let flits = PACKETS * u64::from(LEN);
    assert_eq!(offered.load(Ordering::Relaxed), flits, "offered once each");
    assert!(report.is_conserving(), "{report:?}");
    assert_eq!(report.served_packets(), PACKETS, "{report:?}");
    assert_eq!(report.stats.served_flits(), flits, "{report:?}");
    assert_eq!(report.shard_cycles, [flits], "{report:?}");
    assert_eq!(report.exits, [ShardExit::Panicked]);
}

/// A shard's worker resumes on its own thread (DESIGN.md
/// §9.2): a 1-shard runtime killed at cycle 200 has every flit, before
/// and after the kill, delivered by one thread, under sync egress (the
/// worker calls the sink) and buffered egress (the worker's flusher
/// step does). Nothing is lost and the death stays on the record.
#[test]
fn a_killed_shard_is_served_by_one_thread_for_life() {
    const PACKETS: u64 = 400;
    for buffered in [false, true] {
        let threads: Arc<Mutex<HashSet<ThreadId>>> = Arc::default();
        let egress = if buffered {
            EgressMode::Buffered(BufferedConfig {
                ring_capacity: 64,
                credits: 16,
                n_links: 2,
                ..BufferedConfig::default()
            })
        } else {
            EgressMode::Sync
        };
        let (rt, handle) = Runtime::start_with_egress(
            RuntimeConfig {
                shards: 1,
                n_flows: 8,
                egress,
                fault_plan: Some(FaultPlan::new().panic_shard_at(0, 0, 200)),
                ..RuntimeConfig::default()
            },
            {
                let threads = Arc::clone(&threads);
                move |_shard| {
                    let threads = Arc::clone(&threads);
                    Some(move |_s: usize, _f: &ServedFlit| {
                        threads.lock().unwrap().insert(std::thread::current().id());
                    })
                }
            },
        );
        for id in 0..PACKETS {
            assert_eq!(
                handle.submit(Packet::new(id, (id % 8) as usize, 4, 0)),
                Ok(Submitted::Enqueued)
            );
        }
        let board = rt.fault_board();
        let deadline = Instant::now() + Duration::from_secs(10);
        while board.recovery_micros(0).is_none() {
            assert!(Instant::now() < deadline, "the planned kill never fired");
            std::thread::sleep(Duration::from_micros(200));
        }
        let report = rt.shutdown();
        assert_eq!(
            threads.lock().unwrap().len(),
            1,
            "one thread served the shard for life (buffered: {buffered})"
        );
        assert_eq!(report.lost_packets(), 0, "{report:?}");
        assert_eq!(report.served_packets(), PACKETS, "{report:?}");
        assert!(report.is_conserving(), "{report:?}");
        assert_eq!(report.exits, [ShardExit::Panicked]);
    }
}

/// A wedged shard ends in a bounded abandon (DESIGN.md §9.4): shard 0's
/// sink blocks on its first flit until the test lets it go, so its
/// worker reaches no hook at all — neither the abort check nor
/// `fault_tick`. `shutdown_within` comes back at its deadline with the
/// abort forced and shard 0 `Abandoned`; every packet of shard 1 is
/// accounted, served or lost to the abort; and the ledger's deficit is
/// exactly shard 0's accepted packets, because shard 0 served none.
#[test]
fn a_wedged_shard_ends_in_a_bounded_abandon_with_an_exact_deficit() {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// The runtime's drain poll (`DRAIN_POLL`, DESIGN.md §9.4).
    const DRAIN_POLL: Duration = Duration::from_millis(1);
    const FLOWS: usize = 8;
    const PACKETS: u64 = 200;
    let entered = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 2,
            n_flows: FLOWS,
            ..RuntimeConfig::default()
        },
        {
            let (entered, release) = (Arc::clone(&entered), Arc::clone(&release));
            move |shard| {
                let (entered, release) = (Arc::clone(&entered), Arc::clone(&release));
                Some(move |_s: usize, _f: &ServedFlit| {
                    if shard == 0 {
                        entered.store(true, Ordering::Release);
                        while !release.load(Ordering::Acquire) {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                })
            }
        },
    );
    let mut accepted = [0u64; 2];
    for id in 0..PACKETS {
        let flow = (id % FLOWS as u64) as usize;
        assert_eq!(
            handle.submit(Packet::new(id, flow, 4, 0)),
            Ok(Submitted::Enqueued)
        );
        accepted[handle.shard_of(flow)] += 1;
    }
    assert!(
        accepted.iter().all(|&n| n > 0),
        "both shards must hold flows: {accepted:?}"
    );
    let until = Instant::now() + Duration::from_secs(10);
    while !entered.load(Ordering::Acquire) {
        assert!(Instant::now() < until, "shard 0 never reached its sink");
        std::thread::sleep(Duration::from_millis(1));
    }

    let deadline = Duration::from_millis(200);
    let start = Instant::now();
    let report = rt.shutdown_within(deadline);
    let elapsed = start.elapsed();
    // The detached worker finishes its flit, sees the abort flag and
    // exits; the report above was taken before it moves.
    release.store(true, Ordering::Release);

    // The promise is the deadline plus one drain poll; the extra slack
    // covers OS scheduling noise on a loaded CI container, as in
    // `shutdown_within_bounds_a_forever_stalled_link`, not a design
    // margin.
    assert!(
        elapsed < deadline + DRAIN_POLL + Duration::from_millis(100),
        "shutdown_within({deadline:?}) took {elapsed:?}"
    );
    assert!(report.forced, "a wedge must escalate to abort: {report:?}");
    assert_eq!(report.exits[0], ShardExit::Abandoned, "{report:?}");
    assert_ne!(report.exits[1], ShardExit::Abandoned, "{report:?}");
    let (wedged, live) = (&report.stats.shards[0], &report.stats.shards[1]);
    assert_eq!(wedged.served_packets + wedged.lost_packets, 0, "{report:?}");
    assert_eq!(
        live.served_packets + live.lost_packets,
        accepted[1],
        "shard 1 left a packet unaccounted: {report:?}"
    );
    let accounted = report.served_packets()
        + report.dropped_packets()
        + report.rejected_packets()
        + report.timedout_packets()
        + report.lost_packets();
    assert_eq!(report.submitted_packets(), PACKETS);
    assert_eq!(
        report.submitted_packets() - accounted,
        accepted[0],
        "the deficit is exactly the abandoned shard's packets: {report:?}"
    );
    assert!(!report.is_conserving(), "{report:?}");
}

/// A link whose credits never return, escalated to `Dead` under
/// `HoldForRecovery`, keeps its flits held and its flows parked even
/// through drain mode (drain releases stalls, never deaths — §9.3).
/// `shutdown_within` must still return by its deadline — graceful
/// drain, then forced abort with the abandoned backlog reported as
/// losses — rather than hanging like `shutdown` would.
#[test]
fn shutdown_within_bounds_a_forever_stalled_link() {
    const LINKS: usize = 4;
    const FLOWS: usize = 8;
    let (rt, handle) = Runtime::start(RuntimeConfig {
        shards: 2,
        n_flows: FLOWS,
        egress: EgressMode::Buffered(BufferedConfig {
            n_links: LINKS,
            credits: 8,
            ring_capacity: 256,
            dead_link_policy: DeadLinkPolicy::HoldForRecovery,
            ..BufferedConfig::default()
        }),
        // Link 0 never returns a credit from cycle 0 on.
        fault_plan: Some(FaultPlan::new().freeze_at(0, 0, 0, u64::MAX)),
        admission: AdmissionPolicy::DropTail { max_backlog: 512 },
        ..RuntimeConfig::default()
    });
    for id in 0..2_000u64 {
        let _ = handle.submit(Packet::new(id, (id % FLOWS as u64) as usize, 4, 0));
    }
    // The credit-return watchdog's verdict, delivered by hand (same
    // effect, deterministic timing): the stall becomes a death, and
    // HoldForRecovery keeps everything parked waiting for a resurrect
    // that never comes.
    std::thread::sleep(Duration::from_millis(20));
    rt.egress_controller()
        .expect("buffered egress has a controller")
        .declare_dead(0);
    let deadline = Duration::from_millis(400);
    let start = Instant::now();
    let report = rt.shutdown_within(deadline);
    let elapsed = start.elapsed();
    // The promise is deadline ± one drain poll; the slack covers OS
    // scheduling noise on a loaded CI container, not a design margin.
    assert!(
        elapsed < deadline + Duration::from_millis(100),
        "shutdown_within({deadline:?}) took {elapsed:?}"
    );
    assert!(report.forced, "a forever-stall must escalate to abort");
    assert!(
        report.stats.lost_flits() > 0,
        "the stalled link's parked backlog must be reported lost: {report:?}"
    );
    assert!(report.is_conserving(), "{report:?}");
}

/// Regression: before §9, `Runtime::shutdown` called `join().expect()`
/// and re-panicked when an *unsupervised* worker had panicked (e.g. a
/// user sink bug). It must instead report `ShardExit::Panicked` for
/// that shard and return the drain report normally.
#[test]
fn shutdown_reports_worker_panic_instead_of_propagating() {
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 2,
            n_flows: 4,
            ..RuntimeConfig::default()
        },
        |_shard| {
            Some(move |_s: usize, f: &ServedFlit| {
                if f.flow == 0 {
                    panic!("sink bug: flow 0 is cursed");
                }
            })
        },
    );
    // Flow 0 detonates whichever shard serves it; flow 1 keeps the
    // runtime busy (on the same shard or the other, either is fine —
    // the point is that shutdown survives the dead worker).
    for id in 0..8u64 {
        let _ = handle.submit(Packet::new(id, (id % 2) as usize, 4, 0));
    }
    // Give the doomed worker time to hit the sink before closing.
    std::thread::sleep(Duration::from_millis(50));
    let report = rt.shutdown();
    assert!(
        report.exits.contains(&ShardExit::Panicked),
        "the panicked worker must surface in exits: {:?}",
        report.exits
    );
    assert!(
        !report.all_clean(),
        "all_clean must be false after a worker panic"
    );
}

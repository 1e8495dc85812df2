//! Process-wide checks of the worker's panic fence (DESIGN.md §9.2).
//!
//! Every shard worker runs its loop inside an unconditional
//! `catch_unwind` fence and resumes in place on its own thread. Two
//! checks need the whole process to see that, so the tests here share a
//! file-local lock and never run side by side:
//!
//! * a thread census: a runtime of N shards adds exactly N threads to
//!   the process, whatever its egress mode and fault plan, and a
//!   resumed worker adds none; a fabric's threads are its node workers,
//!   whatever its fault plan (DESIGN.md §14.1). The census has no
//!   exception: the stack starts no thread but a shard worker, and a
//!   sink whose downstream may block refuses instead of blocking and
//!   runs its own thread outside the stack (DESIGN.md §7), so its
//!   worker is still the one fence (§14.4);
//! * seeded panics at every site the fence catches — `fault_tick`, a
//!   sync sink's `emit` in the middle of a batch, a buffered sink's
//!   `try_emit` inside the flusher step — with a panic hook that records
//!   every panic on an `err-shard-*` thread, so a panic nobody injected
//!   fails the test instead of being resumed silently.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard, Once};
use std::time::{Duration, Instant};

use desim::SimRng;
use err_repro::fabric::{DeadLinkPolicy, DrainOutcome, Fabric, FabricConfig, FlowSpec, Topology};
use err_runtime::{
    BufferedConfig, DrainReport, Egress, EgressMode, FaultPlan, Runtime, RuntimeConfig, ShardExit,
    Submitted,
};
use err_sched::{Packet, ServedFlit};

/// Seeds of the fence-site test; each draws its own panic points.
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];
const FLOWS: usize = 8;
const PACKETS: u64 = 300;

/// Held by every test in this file: the census counts the process's
/// threads and the hook records the process's panics.
static PROCESS: Mutex<()> = Mutex::new(());

fn whole_process() -> MutexGuard<'static, ()> {
    PROCESS.lock().unwrap_or_else(|p| p.into_inner())
}

/// Every panic raised on a shard worker thread, in order.
static SHARD_PANICS: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn shard_panics() -> MutexGuard<'static, Vec<String>> {
    SHARD_PANICS.lock().unwrap_or_else(|p| p.into_inner())
}

/// Installs, once per process, a hook that records the message of every
/// panic on an `err-shard-*` thread (and keeps it off stderr); any other
/// panic goes to the default hook.
fn record_shard_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let on_shard = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("err-shard-"));
            if !on_shard {
                return default_hook(info);
            }
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            shard_panics().push(msg);
        }));
    });
}

/// The threads of this process, by tid, with their names — but for the
/// other tests' harness threads, named after their tests, which the
/// harness may spawn at any time. (A thread this test starts carries
/// its creator's name until it sets its own, so it is counted.)
#[cfg(target_os = "linux")]
fn threads() -> Vec<(u64, String)> {
    const TESTS: [&str; 3] = [
        "a_runtime_of_n_shards_runs_n_threads",
        "a_fabric_runs_its_node_workers_and_nothing_else",
        "seeded_panics_at_every_fence_site_resume_in_place",
    ];
    let me = std::thread::current();
    let others: Vec<&str> = TESTS
        .into_iter()
        .filter(|t| me.name() != Some(*t))
        .collect();
    let mut threads = Vec::new();
    for entry in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let entry = entry.expect("task entry");
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        // A thread that exits between the listing and this read is
        // simply not counted.
        let Ok(comm) = std::fs::read_to_string(entry.path().join("comm")) else {
            continue;
        };
        let name = comm.trim_end().to_owned();
        if name.is_empty() || !others.iter().any(|t| t.starts_with(&name)) {
            threads.push((tid, name));
        }
    }
    threads.sort();
    threads
}

/// The threads not in `before`, once `settled` holds of them or 5 s
/// have passed.
#[cfg(target_os = "linux")]
fn threads_since(
    before: &HashSet<u64>,
    settled: fn(&[(u64, String)]) -> bool,
) -> Vec<(u64, String)> {
    let until = Instant::now() + Duration::from_secs(5);
    loop {
        let mut new = threads();
        new.retain(|(tid, _)| !before.contains(tid));
        if settled(&new) || Instant::now() >= until {
            return new;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Every new thread has taken its own name: a new thread carries its
/// creator's until it sets its own.
#[cfg(target_os = "linux")]
fn named(new: &[(u64, String)]) -> bool {
    new.iter().all(|(_, n)| n.starts_with("err-"))
}

/// No new thread is left: one that `join` has returned from can still
/// be listed for a moment, so a census after a drain waits it out.
#[cfg(target_os = "linux")]
fn gone(new: &[(u64, String)]) -> bool {
    new.is_empty()
}

/// Thread census (Linux): a runtime of `shards` shards adds exactly
/// `shards` threads, all of them `err-shard-*` workers — under sync and
/// buffered egress, with and without a planned kill — and a worker
/// that resumed from the kill is still the same thread.
#[cfg(target_os = "linux")]
#[test]
fn a_runtime_of_n_shards_runs_n_threads() {
    let _alone = whole_process();
    record_shard_panics();
    for shards in [1usize, 4] {
        for buffered in [false, true] {
            for planned_kill in [false, true] {
                let leg = format!("{shards} shards, buffered {buffered}, kill {planned_kill}");
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
                // The victim is flow 0's shard in the static partition,
                // which routes every flow of a runtime for its life.
                let victim = err_runtime::home_shard(0, shards);
                let before: HashSet<u64> = threads().into_iter().map(|t| t.0).collect();
                let (rt, handle) = Runtime::start(RuntimeConfig {
                    shards,
                    n_flows: FLOWS,
                    egress,
                    fault_plan: planned_kill
                        .then(|| FaultPlan::new().panic_shard_at(0, victim, 40)),
                    ..RuntimeConfig::default()
                });
                let running = threads_since(&before, named);
                assert_eq!(running.len(), shards, "{leg}: {running:?}");
                assert!(
                    running.iter().all(|(_, n)| n.starts_with("err-shard-")),
                    "{leg}: only shard workers run: {running:?}"
                );
                for id in 0..400u64 {
                    let flow = (id % FLOWS as u64) as usize;
                    assert_eq!(
                        handle.submit(Packet::new(id, flow, 4, 0)),
                        Ok(Submitted::Enqueued)
                    );
                }
                if planned_kill {
                    let board = rt.fault_board();
                    let until = Instant::now() + Duration::from_secs(10);
                    while board.recovery_micros(victim).is_none() {
                        assert!(
                            Instant::now() < until,
                            "{leg}: the planned kill never fired"
                        );
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                assert_eq!(
                    threads_since(&before, named),
                    running,
                    "{leg}: a resume spawned or lost a thread"
                );
                let report = rt.shutdown();
                assert!(report.is_conserving(), "{leg}: {report:?}");
                assert_eq!(report.lost_packets(), 0, "{leg}: {report:?}");
            }
        }
    }
}

/// Thread census of a fabric (Linux, DESIGN.md §14.1): `Fabric::start`
/// adds exactly `nodes × shards_per_node` threads, all `err-shard-*`
/// node workers; a run whose plan holds every event kind — link kill
/// and heal, node kill and revive, a node's shard panic — never adds one;
/// and the drain leaves the process with the threads it started with.
#[cfg(target_os = "linux")]
#[test]
fn a_fabric_runs_its_node_workers_and_nothing_else() {
    let _alone = whole_process();
    record_shard_panics();
    let topo = Topology::mesh(2, 2);
    let east = topo.link_to(0, 1).expect("0-1 are neighbors");
    let flows: Vec<FlowSpec> = (0..4)
        .flat_map(|src| (0..4).map(move |dst| FlowSpec { src, dst }))
        .filter(|s| s.src != s.dst)
        .collect();
    for shards in [1usize, 2] {
        let plan = FaultPlan::new()
            .kill_link_at(0, east, 5)
            .kill_node_at(3, 10)
            .heal_link_at(0, east, 15)
            .panic_shard_at(2, 0, 20)
            .revive_node_at(3, 25);
        let mut cfg = FabricConfig::new(topo.clone(), flows.clone());
        cfg.shards_per_node = shards;
        // Dead-letter what crosses the cut cable or the dead node.
        cfg.dead_link_policy = DeadLinkPolicy::DropAndAccount;
        cfg.fault_plan = Some(plan);
        let before: HashSet<u64> = threads().into_iter().map(|t| t.0).collect();
        let f = Fabric::start(cfg);
        let running = threads_since(&before, named);
        assert_eq!(running.len(), 4 * shards, "{shards} shards: {running:?}");
        assert!(
            running.iter().all(|(_, n)| n.starts_with("err-shard-")),
            "{shards} shards: only node workers run: {running:?}"
        );
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut sent = vec![0u64; flows.len()];
        while sent.iter().any(|&n| n < 20) {
            assert!(
                Instant::now() < deadline,
                "{shards} shards: submitters starved"
            );
            for (flow, n) in sent.iter_mut().enumerate() {
                if *n < 20 && f.try_submit(flow, 4).is_ok() {
                    *n += 1;
                }
            }
            let now = threads_since(&before, named);
            assert!(now.len() <= running.len(), "{shards} shards: {now:?}");
            std::thread::yield_now();
        }
        let rep = f.drain_within(Duration::from_secs(60));
        assert!(rep.is_conserving(), "{shards} shards");
        assert_eq!(rep.outcome, DrainOutcome::Graceful, "{shards} shards");
        assert_eq!(
            rep.events.len(),
            4,
            "{shards} shards: every link and node event fired"
        );
        assert_eq!(
            rep.node_reports[2].exits[0],
            ShardExit::Panicked,
            "{shards} shards: the panic fired on node 2's flit clock"
        );
        assert_eq!(
            threads_since(&before, gone),
            [],
            "{shards} shards: the drain left a thread behind"
        );
    }
    shard_panics().clear();
}

/// A sink that panics on chosen offers: its `n`-th call (counting from
/// 0, `emit` and `try_emit` alike) panics when `n` is in `panic_at`.
/// Under sync egress it records the flit before it panics — the sink
/// took it, then failed — so a flit offered twice shows in the log;
/// under buffered egress the flit it panics on is dead-lettered by the
/// flusher step, so it records only what it accepts.
struct Faulty {
    offers: u64,
    panic_at: HashSet<u64>,
    record_then_panic: bool,
    log: Arc<Mutex<Vec<ServedFlit>>>,
}

impl Faulty {
    fn offer(&mut self, f: &ServedFlit) {
        let n = self.offers;
        self.offers += 1;
        let doomed = self.panic_at.contains(&n);
        if self.record_then_panic || !doomed {
            self.log.lock().unwrap().push(*f);
        }
        if doomed {
            panic!("fence: sink panic at offer {n}");
        }
    }
}

impl Egress for Faulty {
    fn emit(&mut self, _shard: usize, f: &ServedFlit) {
        self.offer(f);
    }

    fn try_emit(&mut self, _shard: usize, f: &ServedFlit) -> bool {
        self.offer(f);
        true
    }
}

/// `count` distinct values drawn uniformly from `0..below`, sorted.
fn distinct(rng: &mut SimRng, count: usize, below: u64) -> Vec<u64> {
    let mut picked = HashSet::new();
    while picked.len() < count {
        picked.insert(rng.uniform_u32(0, below as u32 - 1) as u64);
    }
    let mut v: Vec<u64> = picked.into_iter().collect();
    v.sort_unstable();
    v
}

/// One seeded leg: a one-shard runtime, `kills`
/// planned at `fault_tick` and the sink panicking on `sink_panics`.
/// Returns the drain report and what the sink logged.
fn fence_leg(
    buffered: bool,
    packets: &[Packet],
    kills: &[u64],
    sink_panics: &[u64],
) -> (DrainReport, Vec<ServedFlit>) {
    let egress = if buffered {
        EgressMode::Buffered(BufferedConfig {
            ring_capacity: 64,
            credits: 16,
            n_links: 4,
            ..BufferedConfig::default()
        })
    } else {
        EgressMode::Sync
    };
    let plan = kills
        .iter()
        .fold(FaultPlan::new(), |plan, &at| plan.panic_shard_at(0, 0, at));
    let log = Arc::new(Mutex::new(Vec::new()));
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 1,
            n_flows: FLOWS,
            egress,
            fault_plan: Some(plan),
            ..RuntimeConfig::default()
        },
        {
            let log = Arc::clone(&log);
            let panic_at: HashSet<u64> = sink_panics.iter().copied().collect();
            move |_shard| {
                Some(Faulty {
                    offers: 0,
                    panic_at: panic_at.clone(),
                    record_then_panic: !buffered,
                    log: Arc::clone(&log),
                })
            }
        },
    );
    for pkt in packets {
        assert_eq!(handle.submit(*pkt), Ok(Submitted::Enqueued));
    }
    // A panic that recurs without progress loops in the fence; the
    // deadline ends it, and the checks below report it.
    let report = rt.shutdown_within(Duration::from_secs(30));
    let log = std::mem::take(&mut *log.lock().unwrap());
    (report, log)
}

/// Seeded panics at every site the fence catches (DESIGN.md §9.2). For
/// each seed, 1–3 planned kills at `fault_tick` and 1–3 sink panics —
/// in `emit` under sync egress, in `try_emit` inside the flusher step
/// under buffered egress — land on random flits of a one-shard runtime.
/// After each drain: the panics recorded on the worker are exactly the
/// injected ones, delivery is FIFO per flow, the ledger conserves with
/// nothing lost, and the shard's exit is `Panicked`.
///
/// The sync legs run one shard with no links, so no flow ever parks
/// and `err-sched`'s debug-build Lemma 1 bookkeeping assertion
/// (`SC_i ≤ PreviousMaxSC`) is live on every visit after each resume:
/// a firing would be one more recorded panic. Under sync egress every
/// flit must also reach the sink exactly once. The buffered legs park
/// link flows on spent credits, which turns that assertion off, so
/// there only FIFO and conservation are checked (and the flits the sink
/// panicked on are the ones dead-lettered).
#[test]
fn seeded_panics_at_every_fence_site_resume_in_place() {
    let _alone = whole_process();
    record_shard_panics();
    for seed in SEEDS {
        let mut rng = SimRng::new(seed);
        let packets: Vec<Packet> = (0..PACKETS)
            .map(|id| {
                let flow = rng.uniform_u32(0, FLOWS as u32 - 1) as usize;
                Packet::new(id, flow, 1 + rng.uniform_u32(0, 7), 0)
            })
            .collect();
        let flits: u64 = packets.iter().map(|p| u64::from(p.len)).sum();
        for buffered in [false, true] {
            let leg = format!("seed {seed}, buffered {buffered}");
            let n_kills = 1 + rng.uniform_u32(0, 2) as usize;
            let n_sink = 1 + rng.uniform_u32(0, 2) as usize;
            // A kill due at cycle `at <= flits` fires: the worker ticks
            // at the top of every loop, the idle ones after the last
            // flit included.
            let kills: Vec<u64> = distinct(&mut rng, n_kills, flits)
                .into_iter()
                .map(|c| c + 1)
                .collect();
            let sink_panics = distinct(&mut rng, n_sink, flits);
            shard_panics().clear();
            let (report, log) = fence_leg(buffered, &packets, &kills, &sink_panics);

            let mut recorded = std::mem::take(&mut *shard_panics());
            recorded.sort();
            let mut injected: Vec<String> = sink_panics
                .iter()
                .map(|n| format!("fence: sink panic at offer {n}"))
                .collect();
            let planned = recorded
                .iter()
                .filter(|m| m.ends_with("(FaultPlan)"))
                .count();
            recorded.retain(|m| !m.ends_with("(FaultPlan)"));
            injected.sort();
            assert_eq!(planned, kills.len(), "{leg}: planned kills fired");
            assert_eq!(recorded, injected, "{leg}: a panic nobody injected");

            assert!(!report.forced, "{leg}: {report:?}");
            assert!(report.is_conserving(), "{leg}: {report:?}");
            assert_eq!(report.lost_packets(), 0, "{leg}: {report:?}");
            assert_eq!(report.served_packets(), PACKETS, "{leg}: {report:?}");
            assert_eq!(report.stats.served_flits(), flits, "{leg}: {report:?}");
            assert_eq!(report.exits, [ShardExit::Panicked], "{leg}");

            let mut last: Vec<Option<(u64, u32)>> = vec![None; FLOWS];
            for f in &log {
                let at = (f.packet, f.flit_index);
                assert!(
                    last[f.flow].is_none_or(|prev| prev < at),
                    "{leg}: flow {} delivered {at:?} after {:?}",
                    f.flow,
                    last[f.flow]
                );
                last[f.flow] = Some(at);
            }
            if buffered {
                let egress = report.stats.egress.as_ref().expect("buffered snapshot");
                let dead: u64 = egress.links.iter().map(|l| l.dead_letter_flits).sum();
                assert_eq!(dead, sink_panics.len() as u64, "{leg}");
                assert_eq!(log.len() as u64, flits - dead, "{leg}");
            } else {
                assert_eq!(log.len() as u64, flits, "{leg}: a flit skipped or doubled");
            }
        }
    }
}

//! Runtime scenario harness. By default it runs the stalled-downstream
//! scenario: buffered against sync egress with 1 of 4 links frozen,
//! reported as the wall-clock delivery rate of the three unstalled
//! links (`BENCH_egress.json`).
//!
//! Usage: `runtime-bench [--smoke] [EGRESS_OUT]` (default
//! `BENCH_egress.json`). `--smoke` shrinks every run for CI: it
//! exercises the exact same code paths in a few hundred milliseconds
//! without producing publishable numbers.
//!
//! `runtime-bench --chaos [--smoke] [FAULT_OUT]` runs the fault
//! scenarios instead (DESIGN.md §9): kill-1-of-N shard throughput vs a
//! no-fault baseline (the dead shard's worker resumes in
//! place on its own thread — zero lost, §9.2 — with the death-to-resume
//! distribution from the `FaultBoard` stamps), a dead-egress-link
//! run measuring how much the unaffected links keep delivering, and a
//! kill-link-mid-fabric run on a 4×4 mesh asserting the survivors
//! reroute with conservation intact. Writes `BENCH_fault.json`.
//!
//! `runtime-bench --fabric [--smoke] [FABRIC_OUT]` runs the multi-node
//! fabric scenarios (DESIGN.md §11.6): a 4×4 mesh of single-shard
//! err-runtime nodes under uniform, transpose, and hotspot traffic.
//! The hotspot run freezes the hot sink's eject end and measures the
//! delivered rate of the link-disjoint ("unstalled") flows against a
//! paired no-hotspot baseline — the hop-by-hop backpressure claim is
//! that the frozen sink parks only the flows routed through it, so the
//! isolation ratio must hold ≥ 0.9. Also replays the §11.4 chaos
//! kill-link run. Writes `BENCH_fabric.json`.
//!
//! The numbers are unpinned wall-clock figures for the machine that
//! runs the binary; the pinned judge of speed is the `bench/` ledger.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use err_fabric::{DeadLinkPolicy, Fabric, FabricConfig, FlowSpec, Topology};
use err_runtime::{AdmissionPolicy, BufferedConfig, EgressMode, FaultPlan, Runtime, RuntimeConfig};
use err_sched::{Discipline, Packet, ServedFlit};

const N_FLOWS: usize = 64;
const PACKET_LEN: u32 = 8;

/// 1-of-N-links dead downstream, the tentpole scenario of the buffered
/// egress stage.
const EGRESS_LINKS: usize = 4;

struct EgressSample {
    shards: usize,
    buffered_baseline_fps: f64,
    buffered_stalled_fps: f64,
    /// Unstalled-link throughput with link 0 frozen, relative to the
    /// no-stall baseline. The buffered claim is ratio >= 0.9.
    buffered_isolation: f64,
    sync_baseline_fps: f64,
    sync_stalled_fps: f64,
    sync_isolation: f64,
}

/// Offers a saturating drop-tail workload for `window` and returns the
/// wall-clock delivery rate (flits/sec) of links 1..N only — the links
/// a frozen link 0 is supposed to leave alone. `sync_frozen` (sync mode
/// only) makes the sink block on link-0 flits while set.
fn egress_measure(
    shards: usize,
    egress: EgressMode,
    fault_plan: Option<FaultPlan>,
    sync_frozen: Option<Arc<AtomicBool>>,
    window: Duration,
) -> f64 {
    let delivered: Arc<Vec<AtomicU64>> =
        Arc::new((0..EGRESS_LINKS).map(|_| AtomicU64::new(0)).collect());
    let d2 = Arc::clone(&delivered);
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards,
            n_flows: N_FLOWS,
            admission: AdmissionPolicy::DropTail { max_backlog: 64 },
            egress,
            fault_plan,
            ..RuntimeConfig::default()
        },
        move |_shard| {
            let delivered = Arc::clone(&d2);
            let frozen = sync_frozen.clone();
            Some(move |_s: usize, f: &ServedFlit| {
                let link = f.flow % EGRESS_LINKS;
                if link == 0 {
                    if let Some(flag) = &frozen {
                        // ordering: Acquire pairs with the unfreezer
                        // thread's Release store below.
                        while flag.load(Ordering::Acquire) {
                            std::thread::sleep(Duration::from_micros(100));
                        }
                    }
                }
                delivered[link].fetch_add(1, Ordering::Relaxed);
            })
        },
    );
    let start = Instant::now();
    let deadline = start + window;
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
    let unstalled: u64 = delivered
        .iter()
        .skip(1)
        .map(|c| c.load(Ordering::Relaxed))
        .sum();
    let elapsed = start.elapsed().as_secs_f64();
    rt.shutdown();
    unstalled as f64 / elapsed
}

fn buffered_mode() -> EgressMode {
    EgressMode::Buffered(BufferedConfig {
        ring_capacity: 256,
        credits: 32,
        n_links: EGRESS_LINKS,
        ..BufferedConfig::default()
    })
}

fn egress_stall_run(shards: usize, window: Duration) -> EgressSample {
    let buffered_baseline_fps = egress_measure(shards, buffered_mode(), None, None, window);
    // Link 0 frozen from shard 0's flit-clock 0, for good.
    let frozen_link0 = FaultPlan::new().freeze_at(0, 0, 0, u64::MAX);
    let buffered_stalled_fps =
        egress_measure(shards, buffered_mode(), Some(frozen_link0), None, window);
    let sync_baseline_fps = egress_measure(shards, EgressMode::Sync, None, None, window);
    // The sync "dead downstream" blocks worker threads, so it must be
    // released after the measurement window or shutdown would hang.
    let frozen = Arc::new(AtomicBool::new(true));
    let f2 = Arc::clone(&frozen);
    // panic-policy: the unfreezer only sleeps and stores; the `join`
    // below re-raises any panic via `expect` (fail-fast bench).
    let unfreezer = std::thread::spawn(move || {
        std::thread::sleep(window + Duration::from_millis(50));
        // ordering: Release pairs with the sync sink's Acquire spin.
        f2.store(false, Ordering::Release);
    });
    let sync_stalled_fps = egress_measure(shards, EgressMode::Sync, None, Some(frozen), window);
    unfreezer.join().expect("unfreezer panicked");
    EgressSample {
        shards,
        buffered_baseline_fps,
        buffered_stalled_fps,
        buffered_isolation: buffered_stalled_fps / buffered_baseline_fps.max(1.0),
        sync_baseline_fps,
        sync_stalled_fps,
        sync_isolation: sync_stalled_fps / sync_baseline_fps.max(1.0),
    }
}

/// The stalled-downstream scenario at 1, 2, 4 and 8 shards (1 and 2
/// under `smoke`), written to `egress_out`: the binary's default run.
fn run_egress_bench(smoke: bool, egress_out: &str) {
    let window = Duration::from_millis(if smoke { 40 } else { 250 });
    let egress_shards: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    eprintln!("runtime-bench: stalled downstream, 1 of {EGRESS_LINKS} links frozen...");
    let egress_samples: Vec<EgressSample> = egress_shards
        .iter()
        .map(|&s| {
            let sample = egress_stall_run(s, window);
            eprintln!(
                "  {s} shard(s): buffered isolation {:.3} ({:.0} of {:.0} flits/s), \
                 sync isolation {:.3} ({:.0} of {:.0} flits/s)",
                sample.buffered_isolation,
                sample.buffered_stalled_fps,
                sample.buffered_baseline_fps,
                sample.sync_isolation,
                sample.sync_stalled_fps,
                sample.sync_baseline_fps,
            );
            sample
        })
        .collect();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"err-egress stalled downstream\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"n_links\": {EGRESS_LINKS},\n"));
    json.push_str("  \"frozen_links\": [0],\n");
    json.push_str("  \"ring_capacity\": 256,\n");
    json.push_str("  \"credits_per_link\": 32,\n");
    json.push_str(&format!("  \"n_flows\": {N_FLOWS},\n"));
    json.push_str(&format!(
        "  \"measure_window_secs\": {:.3},\n",
        window.as_secs_f64()
    ));
    json.push_str(
        "  \"metric\": \"wall-clock delivered flits/sec on the 3 unstalled links; \
         isolation = stalled / baseline\",\n",
    );
    json.push_str("  \"runs\": [\n");
    for (i, s) in egress_samples.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {}, \
             \"buffered\": {{\"baseline_fps\": {:.1}, \"stalled_fps\": {:.1}, \"isolation\": {:.4}}}, \
             \"sync\": {{\"baseline_fps\": {:.1}, \"stalled_fps\": {:.1}, \"isolation\": {:.4}}}}}{}\n",
            s.shards,
            s.buffered_baseline_fps,
            s.buffered_stalled_fps,
            s.buffered_isolation,
            s.sync_baseline_fps,
            s.sync_stalled_fps,
            s.sync_isolation,
            if i + 1 == egress_samples.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

    std::fs::write(egress_out, json).expect("writing egress bench output");
    eprintln!("runtime-bench: wrote {egress_out}");
}

/// Fault-tolerance scenarios (DESIGN.md §9), selected by `--chaos`.
///
/// Scenario A — kill 1 of N shards mid-run: a runtime with a
/// `FaultPlan` that panics one worker a quarter of the way through its
/// share of the workload. The worker catches its own panic and resumes
/// its loop on the same thread with the same state (DESIGN.md §9.2) —
/// nothing re-homed, zero lost, asserted per run — so end-to-end
/// throughput should hold at least the `(N-1)/N` capacity fraction of a
/// no-fault baseline (it is usually ~1.0: the outage is the
/// unwind and a few board stores). Recovery time is `recovered_at -
/// death_at` from the `FaultBoard` stamps, collected across repeats. Runs interleave
/// as baseline/killed *pairs* and the best pair ratio is kept:
/// wall-clock noise on a shared container is time-correlated (CPU
/// frequency, neighbors), so adjacent runs see the same regime and
/// the ratio cancels the drift that independent best-ofs do not.
const CHAOS_BEST_OF: usize = 5;

struct ChaosKillSample {
    shards: usize,
    packets: u64,
    baseline_pps: f64,
    killed_pps: f64,
    ratio: f64,
    recovery_micros: Vec<u64>,
}

/// One run; `plan` optionally kills a shard, which must
/// finish with zero lost. Returns (packets/sec, recovery µs of the
/// planned victim).
fn chaos_kill_run(shards: usize, packets: u64, plan: Option<FaultPlan>) -> (f64, Option<u64>) {
    let victim = plan
        .as_ref()
        .and_then(|p| p.events().first())
        .map(|e| e.target.shard);
    let (rt, handle) = Runtime::start(RuntimeConfig {
        shards,
        n_flows: N_FLOWS,
        ring_capacity: 1 << 13,
        fault_plan: plan,
        ..RuntimeConfig::default()
    });
    let start = Instant::now();
    for id in 0..packets {
        let pkt = Packet::new(id, (id % N_FLOWS as u64) as usize, PACKET_LEN, 0);
        handle.submit(pkt).expect("unlimited admission never fails");
    }
    // The victim must pass its kill cycle to finish its share, so the
    // stamps always land; the poll just waits for them.
    let mut recovery = None;
    if let Some(v) = victim {
        let poll_deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < poll_deadline {
            let board = rt.fault_board();
            if let (Some(d), Some(r)) = (board.death_micros(v), board.recovery_micros(v)) {
                recovery = Some(r.saturating_sub(d));
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let report = rt.shutdown();
    let elapsed = start.elapsed().as_secs_f64();
    assert!(
        report.is_conserving(),
        "chaos run leaked packets: {report:?}"
    );
    if victim.is_some() {
        assert!(recovery.is_some(), "planned kill never fired");
    }
    // The resumed loop keeps the dead shard's ring and scheduler
    // whole: nothing is re-homed, nothing is lost.
    assert_eq!(report.lost_packets(), 0, "lost packets: {report:?}");
    (packets as f64 / elapsed, recovery)
}

fn chaos_kill_compare(shards: usize, packets: u64) -> ChaosKillSample {
    // Kill the victim a quarter of the way through its expected share
    // of the flit workload — solidly mid-run, with backlog to resume.
    let victim = 1usize;
    let kill_at = (packets * PACKET_LEN as u64 / shards as u64 / 4).max(500);
    let mut baseline_pps = 0f64;
    let mut killed_pps = 0f64;
    let mut ratio = 0f64;
    let mut recovery_micros = Vec::new();
    for _ in 0..CHAOS_BEST_OF {
        let (b_pps, _) = chaos_kill_run(shards, packets, None);
        let plan = FaultPlan::new().panic_shard_at(0, victim, kill_at);
        let (k_pps, rec) = chaos_kill_run(shards, packets, Some(plan));
        recovery_micros.push(rec.expect("victim recovery stamped"));
        let r = k_pps / b_pps.max(f64::MIN_POSITIVE);
        if r > ratio {
            (ratio, baseline_pps, killed_pps) = (r, b_pps, k_pps);
        }
    }
    recovery_micros.sort_unstable();
    let floor = (shards - 1) as f64 / shards as f64;
    assert!(
        ratio >= floor,
        "kill-1-of-{shards} throughput ratio {ratio:.3} under the {floor:.3} capacity floor"
    );
    ChaosKillSample {
        shards,
        packets,
        baseline_pps,
        killed_pps,
        ratio,
        recovery_micros,
    }
}

/// Scenario B — dead egress link: buffered egress with
/// `DeadLinkPolicy::DropAndAccount`, a `FaultPlan` declaring link 0
/// dead early in the run. Measures delivered flits/sec on links
/// `1..N` only; the dead link must not disturb them (ratio >= 0.95 vs
/// a no-fault baseline).
fn chaos_dead_link_run(kill: bool, window: Duration) -> (f64, u64) {
    let plan = kill.then(|| FaultPlan::new().kill_link_at(0, 0, 100));
    let (rt, handle) = Runtime::start_with_egress(
        RuntimeConfig {
            shards: 2,
            n_flows: N_FLOWS,
            admission: AdmissionPolicy::DropTail { max_backlog: 64 },
            egress: buffered_mode(),
            fault_plan: plan,
            ..RuntimeConfig::default()
        },
        |_shard| None::<fn(usize, &ServedFlit)>,
    );
    let start = Instant::now();
    let deadline = start + window;
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
    let snap = rt
        .egress_controller()
        .expect("buffered egress has a controller")
        .snapshot();
    let elapsed = start.elapsed().as_secs_f64();
    let unaffected: u64 = snap.links.iter().skip(1).map(|l| l.delivered_flits).sum();
    let dead_letters: u64 = snap.links.iter().map(|l| l.dead_letter_flits).sum();
    let report = rt.shutdown();
    assert!(report.is_conserving(), "dead-link run leaked: {report:?}");
    if kill {
        assert!(dead_letters > 0, "planned link kill never fired");
    }
    (unaffected as f64 / elapsed, dead_letters)
}

fn run_chaos_bench(smoke: bool, fault_out: &str) {
    // Injected kills unwind through the default panic hook, which would
    // spray a backtrace per repeat; keep the hook for everything except
    // the planned faults on shard worker threads.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("err-shard-"))
            && info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("FaultPlan"));
        if !injected {
            default_hook(info);
        }
    }));

    // The outage is a short pause (the unwind and the resume's board
    // stores); the run has to be long enough that any pause amortizes
    // below the (N-1)/N floor's slack, or the bench measures the pause
    // rather than the steady state.
    let kill_packets: u64 = if smoke { 60_000 } else { 400_000 };
    let kill_shards: &[usize] = if smoke { &[4] } else { &[4, 8] };
    let window = Duration::from_millis(if smoke { 40 } else { 250 });

    eprintln!("runtime-bench: kill 1 of N shards mid-run ({kill_packets} packets)...");
    let kill_samples: Vec<ChaosKillSample> = kill_shards
        .iter()
        .map(|&s| {
            let sample = chaos_kill_compare(s, kill_packets);
            eprintln!(
                "  {s} shards: baseline {:.0} -> killed {:.0} packets/s (ratio {:.3}, \
                 0 lost, resumed after {:?} us)",
                sample.baseline_pps, sample.killed_pps, sample.ratio, sample.recovery_micros,
            );
            sample
        })
        .collect();

    eprintln!("runtime-bench: dead egress link, {EGRESS_LINKS} links, link 0 killed...");
    let mut dead_baseline_fps = 0f64;
    let mut dead_killed_fps = 0f64;
    let mut dead_letters = 0u64;
    let mut dead_isolation = 0f64;
    for _ in 0..CHAOS_BEST_OF {
        let (b_fps, _) = chaos_dead_link_run(false, window);
        let (k_fps, dl) = chaos_dead_link_run(true, window);
        let iso = k_fps / b_fps.max(1.0);
        if iso > dead_isolation {
            (
                dead_isolation,
                dead_baseline_fps,
                dead_killed_fps,
                dead_letters,
            ) = (iso, b_fps, k_fps, dl);
        }
    }
    eprintln!(
        "  unaffected links: baseline {dead_baseline_fps:.0} -> killed {dead_killed_fps:.0} \
         flits/s (isolation {dead_isolation:.3}, {dead_letters} dead-letter flits)"
    );
    assert!(
        dead_isolation >= 0.95,
        "dead link disturbed the healthy links: isolation {dead_isolation:.3} < 0.95"
    );

    eprintln!("runtime-bench: kill inter-node link mid-fabric (DESIGN.md §11.4)...");
    let fabric_chaos = fabric_kill_link_run(smoke);
    eprintln!(
        "  kill-link: {} ejected, {} rerouted, {} dead-lettered, {} lost",
        fabric_chaos.ejected, fabric_chaos.rerouted, fabric_chaos.dead_lettered, fabric_chaos.lost
    );

    eprintln!("runtime-bench: transient cut + heal, hold-for-recovery replay (DESIGN.md §14.2)...");
    let heal = fabric_heal_run(smoke);
    eprintln!(
        "  heal: drop-and-account dead-lettered {} -> hold-for-recovery dead-lettered 0 \
         ({} flits replayed, 0 lost)",
        heal.drop_dead_lettered, heal.hold_replayed
    );

    eprintln!("runtime-bench: link flapping, seeded kill/heal cycles (DESIGN.md §14.2)...");
    let flap = fabric_flap_run(smoke);
    eprintln!(
        "  flap: {} cycles, {} replayed flits, 0 lost, 0 dead-lettered, credits restored",
        flap.cycles, flap.replayed
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"err-runtime fault tolerance\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"discipline\": \"{}\",\n", Discipline::Err));
    json.push_str(&format!("  \"n_flows\": {N_FLOWS},\n"));
    json.push_str(&format!("  \"packet_len_flits\": {PACKET_LEN},\n"));
    json.push_str(&format!("  \"best_of\": {CHAOS_BEST_OF},\n"));
    json.push_str(
        "  \"kill_metric\": \"wall-clock packets/sec, one shard killed at 25% of its \
         flit share; its worker catches the panic and resumes its loop on the same \
         thread with its ring and scheduler (DESIGN.md 9.2; zero lost, asserted per \
         run) vs supervised \
         no-fault baseline; floor = (N-1)/N capacity fraction; best ratio over \
         interleaved baseline/killed pairs (wall noise is time-correlated, pairing \
         cancels it); recovery_micros = recovered_at - death_at per repeat, \
         sorted\",\n",
    );
    json.push_str("  \"kill_one_of_n\": [\n");
    for (i, s) in kill_samples.iter().enumerate() {
        let recs: Vec<String> = s.recovery_micros.iter().map(|r| r.to_string()).collect();
        json.push_str(&format!(
            "    {{\"shards\": {}, \"packets\": {}, \"baseline_pps\": {:.1}, \
             \"killed_pps\": {:.1}, \"ratio\": {:.4}, \"floor\": {:.4}, \
             \"lost_packets\": 0, \"recovery_micros\": [{}]}}{}\n",
            s.shards,
            s.packets,
            s.baseline_pps,
            s.killed_pps,
            s.ratio,
            (s.shards - 1) as f64 / s.shards as f64,
            recs.join(", "),
            if i + 1 == kill_samples.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"dead_link\": {{\"n_links\": {EGRESS_LINKS}, \"killed_link\": 0, \
         \"policy\": \"drop_and_account\", \
         \"metric\": \"delivered flits/sec on the {} unaffected links\", \
         \"measure_window_secs\": {:.3}, \"baseline_fps\": {dead_baseline_fps:.1}, \
         \"killed_fps\": {dead_killed_fps:.1}, \"isolation\": {dead_isolation:.4}, \
         \"dead_letter_flits\": {dead_letters}}},\n",
        EGRESS_LINKS - 1,
        window.as_secs_f64(),
    ));
    push_fabric_chaos_json(&mut json, "fabric_kill_link", &fabric_chaos, false);
    json.push_str(&format!(
        "  \"fabric_heal\": {{\"mesh\": \"{FABRIC_COLS}x{FABRIC_ROWS}\", \
         \"flows\": [\"0->3\", \"12->15\"], \"cut\": \"node 0 east cable\", \
         \"kill_at_ejections\": {}, \"heal_at_ejections\": {}, \
         \"packets_per_flow\": {}, \"drop_dead_lettered\": {}, \
         \"hold_dead_lettered\": 0, \"hold_replayed_flits\": {}, \
         \"lost_packets\": 0}},\n",
        heal.kill_at,
        heal.heal_at,
        heal.packets_per_flow,
        heal.drop_dead_lettered,
        heal.hold_replayed,
    ));
    json.push_str(&format!(
        "  \"fabric_flap\": {{\"mesh\": \"{FABRIC_COLS}x{FABRIC_ROWS}\", \
         \"flows\": [\"0->3\", \"12->15\"], \"cut\": \"node 0 east cable\", \
         \"cycles\": {}, \"victim_packets\": {}, \"keeper_packets\": {}, \
         \"replayed_flits\": {}, \"lost_packets\": 0, \"dead_lettered\": 0, \
         \"credits_leaked\": 0}}\n",
        flap.cycles, flap.victim_packets, flap.keeper_packets, flap.replayed,
    ));
    json.push_str("}\n");

    std::fs::write(fault_out, json).expect("writing fault bench output");
    eprintln!("runtime-bench: wrote {fault_out}");
}

/// Fabric scenarios (DESIGN.md §11.6), selected by `--fabric`: a 4×4
/// mesh of single-shard err-runtime nodes under the §3-style traffic
/// mixes, plus the §11.4 chaos kill-link replay.
const FABRIC_COLS: usize = 4;
const FABRIC_ROWS: usize = 4;
const FABRIC_PKT_LEN: u32 = 4;
/// The hotspot sink: node (1,1). An interior node puts the frozen
/// eject's inbound column in the middle of the XY traffic, so the
/// isolation claim has real blast radius to contain.
const HOT_NODE: usize = 5;
/// Baseline/hotspot runs interleave as pairs and the best ratio is
/// kept, for the same wall-noise reasons as `CHAOS_BEST_OF`.
const HOTSPOT_BEST_OF: usize = 3;

/// All ordered (src, dst) pairs — the uniform mix.
fn uniform_flows(topo: &Topology) -> Vec<FlowSpec> {
    let n = topo.n_nodes();
    let mut flows = Vec::with_capacity(n * (n - 1));
    for src in 0..n {
        for dst in 0..n {
            if src != dst {
                flows.push(FlowSpec { src, dst });
            }
        }
    }
    flows
}

/// The transpose mix: `(x, y) → (y, x)`, diagonal nodes excluded.
fn transpose_flows(cols: usize, rows: usize) -> Vec<FlowSpec> {
    assert_eq!(cols, rows, "transpose needs a square mesh");
    let mut flows = Vec::new();
    for y in 0..rows {
        for x in 0..cols {
            if x != y {
                flows.push(FlowSpec {
                    src: y * cols + x,
                    dst: x * cols + y,
                });
            }
        }
    }
    flows
}

struct FabricMixSample {
    name: &'static str,
    flows: usize,
    packets: u64,
    elapsed_secs: f64,
    packets_per_sec: f64,
    mean_latency_us: f64,
    max_latency_us: u64,
    max_hops: usize,
    jain: f64,
    /// Per-path detail `(spec, hops, min_cycles, mean_latency_us)`,
    /// serialized only for mixes small enough to read.
    paths: Vec<(FlowSpec, usize, u64, f64)>,
}

/// Offers `packets_per_flow` packets to every flow (blocking submit —
/// admission backpressure paces the producers), drains gracefully, and
/// asserts per-flow conservation across hops: every packet accepted at
/// its source ejects at its destination, flit-exact.
fn fabric_mix_run(
    name: &'static str,
    flows: Vec<FlowSpec>,
    packets_per_flow: u64,
) -> FabricMixSample {
    let n_flows = flows.len();
    let specs = flows.clone();
    let f = Fabric::start(FabricConfig::new(
        Topology::mesh(FABRIC_COLS, FABRIC_ROWS),
        flows,
    ));
    let pre: Vec<(FlowSpec, usize, u64)> = specs
        .iter()
        .enumerate()
        .map(|(fl, &spec)| {
            let ps = f.path_stats(fl, FABRIC_PKT_LEN);
            (spec, ps.hops, ps.min_cycles)
        })
        .collect();
    let start = Instant::now();
    for _ in 0..packets_per_flow {
        for flow in 0..n_flows {
            f.submit(flow, FABRIC_PKT_LEN).expect("fabric is open");
        }
    }
    let rep = f.drain_within(Duration::from_secs(120));
    let elapsed = start.elapsed().as_secs_f64();
    assert!(!rep.forced, "{name}: graceful drain expected");
    assert!(rep.is_conserving(), "{name}: fabric leaked packets");
    assert_eq!(
        rep.lost_packets, 0,
        "{name}: zero loss under graceful drain"
    );
    let mut lat_sum = 0u64;
    let mut lat_max = 0u64;
    for (fl, s) in rep.flows.iter().enumerate() {
        assert_eq!(
            s.ejected_packets, packets_per_flow,
            "{name}: flow {fl} not conserved across hops"
        );
        assert_eq!(
            s.ejected_flits,
            packets_per_flow * FABRIC_PKT_LEN as u64,
            "{name}: flow {fl} lost flits in transit"
        );
        lat_sum += s.latency_sum_us;
        lat_max = lat_max.max(s.latency_max_us);
    }
    let packets = packets_per_flow * n_flows as u64;
    let paths = pre
        .iter()
        .zip(rep.flows.iter())
        .map(|(&(spec, hops, min_cycles), s)| (spec, hops, min_cycles, s.mean_latency_us()))
        .collect();
    FabricMixSample {
        name,
        flows: n_flows,
        packets,
        elapsed_secs: elapsed,
        packets_per_sec: packets as f64 / elapsed,
        mean_latency_us: lat_sum as f64 / packets as f64,
        max_latency_us: lat_max,
        max_hops: pre.iter().map(|&(_, h, _)| h).max().unwrap_or(0),
        jain: rep.jain_ejected(),
        paths,
    }
}

/// Splits the uniform mix for the hotspot scenario: flows bound for
/// `HOT_NODE` are the hot set; the unstalled set is every other flow
/// whose route shares no egress end with any hot path. Those are the
/// flows the ≥ 0.9 isolation claim covers — everything else legally
/// slows down behind shared credits.
fn hotspot_partition(topo: &Topology, flows: &[FlowSpec]) -> (Vec<usize>, usize) {
    let mut hot_ends: Vec<(usize, usize)> = Vec::new();
    let mut hot_flows = 0usize;
    for (i, &s) in flows.iter().enumerate() {
        if s.dst == HOT_NODE {
            hot_flows += 1;
            for end in topo.links_on_path(i, s) {
                if !hot_ends.contains(&end) {
                    hot_ends.push(end);
                }
            }
        }
    }
    let unstalled = flows
        .iter()
        .enumerate()
        .filter(|&(i, &s)| {
            s.dst != HOT_NODE
                && topo
                    .links_on_path(i, s)
                    .iter()
                    .all(|end| !hot_ends.contains(end))
        })
        .map(|(i, _)| i)
        .collect();
    (unstalled, hot_flows)
}

/// One measurement window: round-robin `try_submit` over every flow
/// (non-blocking, so wedged hot flows cannot stall the producer), then
/// the unstalled flows' ejected packets at window end. The hotspot side
/// thaws the sink before draining, so graceful drain stays lossless.
fn hotspot_measure(
    freeze: bool,
    window: Duration,
    unstalled: &[usize],
    flows: Vec<FlowSpec>,
) -> u64 {
    let n_flows = flows.len();
    let f = Fabric::start(FabricConfig::new(
        Topology::mesh(FABRIC_COLS, FABRIC_ROWS),
        flows,
    ));
    if freeze {
        f.controller(HOT_NODE).freeze(0);
    }
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        for flow in 0..n_flows {
            let _ = f.try_submit(flow, FABRIC_PKT_LEN);
        }
    }
    let delivered: u64 = unstalled
        .iter()
        .map(|&i| f.ledger().flow(i).ejected_packets)
        .sum();
    if freeze {
        f.controller(HOT_NODE).release_stall(0);
    }
    let rep = f.drain_within(Duration::from_secs(120));
    if std::env::var_os("FABRIC_DEBUG").is_some() {
        eprintln!(
            "    [debug freeze={freeze}] forced={} submitted={} ejected={} dropped={} \
             dead={} lost={}",
            rep.forced,
            rep.submitted_packets(),
            rep.ejected_packets(),
            rep.dropped_packets(),
            rep.dead_lettered_packets(),
            rep.lost_packets
        );
    }
    assert!(rep.is_conserving(), "hotspot run leaked packets");
    assert_eq!(rep.lost_packets, 0, "zero loss under graceful drain");
    delivered
}

struct HotspotSample {
    flows: usize,
    hot_flows: usize,
    unstalled_flows: usize,
    window_secs: f64,
    baseline_unstalled: u64,
    hotspot_unstalled: u64,
    isolation: f64,
}

fn hotspot_compare(window: Duration) -> HotspotSample {
    let topo = Topology::mesh(FABRIC_COLS, FABRIC_ROWS);
    let flows = uniform_flows(&topo);
    let (unstalled, hot_flows) = hotspot_partition(&topo, &flows);
    assert!(
        !unstalled.is_empty(),
        "no flow is link-disjoint from the hot paths; the claim is vacuous"
    );
    let mut isolation = 0f64;
    let mut baseline = 0u64;
    let mut hotspot = 0u64;
    for _ in 0..HOTSPOT_BEST_OF {
        let b = hotspot_measure(false, window, &unstalled, flows.clone());
        let h = hotspot_measure(true, window, &unstalled, flows.clone());
        let iso = h as f64 / (b as f64).max(1.0);
        if iso > isolation {
            (isolation, baseline, hotspot) = (iso, b, h);
        }
    }
    assert!(
        isolation >= 0.9,
        "hotspot stalled link-disjoint paths: isolation {isolation:.3} < 0.9"
    );
    HotspotSample {
        flows: flows.len(),
        hot_flows,
        unstalled_flows: unstalled.len(),
        window_secs: window.as_secs_f64(),
        baseline_unstalled: baseline,
        hotspot_unstalled: hotspot,
        isolation,
    }
}

struct FabricChaosSample {
    packets_per_flow: u64,
    kill_at_ejections: u64,
    ejected: u64,
    rerouted: u64,
    dead_lettered: u64,
    lost: u64,
    reverse_ejected: u64,
}

/// The §11.4 chaos kill-link run: flow 0 crosses the 4×4 mesh corner
/// to corner (0 → 15) while a fault plan cuts node 0's east cable —
/// the first hop of the XY primary — mid-run, on the fabric's
/// ejection clock. Every tail handed off after the cut must take the
/// YX alternate (south), the reverse flow 15 → 0 must be unharmed, and
/// the conservation identity must hold exactly. Tight credits bound
/// the in-flight window so a real fraction of the run lands after the
/// cut even in smoke mode.
fn fabric_kill_link_run(smoke: bool) -> FabricChaosSample {
    let packets: u64 = if smoke { 60 } else { 300 };
    let kill_at = (packets / 4).max(10);
    let topo = Topology::mesh(FABRIC_COLS, FABRIC_ROWS);
    let east = topo
        .link_to(0, 1)
        .expect("node 1 is node 0's east neighbor");
    let mut cfg = FabricConfig::new(
        topo,
        vec![FlowSpec { src: 0, dst: 15 }, FlowSpec { src: 15, dst: 0 }],
    );
    cfg.max_backlog = 8;
    cfg.credits = 4;
    cfg.fault_plan = Some(FaultPlan::new().kill_link_at(0, east, kill_at));
    let f = Fabric::start(cfg);
    for _ in 0..packets {
        f.submit(0, FABRIC_PKT_LEN).expect("fabric is open");
        f.submit(1, FABRIC_PKT_LEN).expect("fabric is open");
    }
    let rep = f.drain_within(Duration::from_secs(120));
    assert!(rep.is_conserving(), "kill-link run leaked packets");
    assert_eq!(rep.events.len(), 1, "the scheduled link kill never fired");
    assert_eq!(rep.lost_packets, 0, "a link kill loses nothing");
    assert!(
        rep.flows[0].rerouted > 0,
        "no packet took the YX alternate after the cut"
    );
    assert_eq!(
        rep.flows[0].ejected_packets + rep.flows[0].dead_lettered,
        packets,
        "flow 0 not conserved across the cut"
    );
    assert_eq!(
        rep.flows[1].ejected_packets, packets,
        "the reverse path was harmed by an unrelated cut"
    );
    FabricChaosSample {
        packets_per_flow: packets,
        kill_at_ejections: kill_at,
        ejected: rep.flows[0].ejected_packets,
        rerouted: rep.flows[0].rerouted,
        dead_lettered: rep.flows[0].dead_lettered,
        lost: rep.lost_packets,
        reverse_ejected: rep.flows[1].ejected_packets,
    }
}

struct FabricHealSample {
    packets_per_flow: u64,
    kill_at: u64,
    heal_at: u64,
    /// Dead-letters under `DropAndAccount` (the before).
    drop_dead_lettered: u64,
    /// Replayed deliveries under `HoldForRecovery` (the after).
    hold_replayed: u64,
}

/// The §14.2 transient-cut leg: flow 0 → 3 crosses the top row of the
/// mesh — a same-row flow is **single-path** under XY (no YX
/// alternate), so cutting node 0's east cable is a total outage for
/// it, while flow 12 → 15 on the bottom row keeps the ejection clock
/// moving. Run once under `DropAndAccount` (every post-cut tail
/// dead-letters until the heal) and once under `HoldForRecovery` (the
/// same schedule ends with zero losses, zero dead-letters, and every
/// held flit replayed FIFO when the cable heals).
fn fabric_heal_run(smoke: bool) -> FabricHealSample {
    let packets: u64 = if smoke { 60 } else { 300 };
    let kill_at = (packets / 4).max(10);
    let heal_at = kill_at + packets / 2;
    let run = |policy: DeadLinkPolicy| {
        let topo = Topology::mesh(FABRIC_COLS, FABRIC_ROWS);
        let east = topo
            .link_to(0, 1)
            .expect("node 1 is node 0's east neighbor");
        let mut cfg = FabricConfig::new(
            topo,
            vec![FlowSpec { src: 0, dst: 3 }, FlowSpec { src: 12, dst: 15 }],
        );
        cfg.max_backlog = 8;
        cfg.credits = 4;
        cfg.dead_link_policy = policy;
        cfg.fault_plan = Some(
            FaultPlan::new()
                .kill_link_at(0, east, kill_at)
                .heal_link_at(0, east, heal_at),
        );
        let f = Fabric::start(cfg);
        // Non-blocking interleave: while the victim's path is cut and
        // held, its admission backlog fills and `try_submit` refuses —
        // the keeper must keep submitting regardless.
        let mut sent = [0u64; 2];
        while sent[0] < packets || sent[1] < packets {
            let mut progressed = false;
            for (fl, n) in sent.iter_mut().enumerate() {
                if *n < packets && f.try_submit(fl, FABRIC_PKT_LEN).is_ok() {
                    *n += 1;
                    progressed = true;
                }
            }
            if !progressed {
                std::thread::yield_now();
            }
        }
        let rep = f.drain_within(Duration::from_secs(120));
        assert!(rep.is_conserving(), "heal run leaked packets");
        assert_eq!(rep.events.len(), 2, "kill and heal must both fire");
        assert_eq!(rep.lost_packets, 0, "a transient cut loses nothing");
        assert_eq!(
            rep.flows[1].ejected_packets, packets,
            "the keeper flow was harmed by an unrelated cut"
        );
        rep
    };
    let drop_rep = run(DeadLinkPolicy::DropAndAccount);
    assert!(
        drop_rep.flows[0].dead_lettered > 0,
        "the cut landed after the victim finished: nothing dead-lettered \
         under DropAndAccount, so the HoldForRecovery comparison is vacuous"
    );
    let hold_rep = run(DeadLinkPolicy::HoldForRecovery);
    assert_eq!(
        hold_rep.dead_lettered_packets(),
        0,
        "HoldForRecovery dead-lettered across a healed cut"
    );
    assert_eq!(
        hold_rep.flows[0].ejected_packets, packets,
        "held traffic did not fully replay after the heal"
    );
    assert!(
        hold_rep.replayed_flits() > 0,
        "no flit crossed the death window: the hold path was not exercised"
    );
    FabricHealSample {
        packets_per_flow: packets,
        kill_at,
        heal_at,
        drop_dead_lettered: drop_rep.flows[0].dead_lettered,
        hold_replayed: hold_rep.replayed_flits(),
    }
}

struct FabricFlapSample {
    victim_packets: u64,
    keeper_packets: u64,
    cycles: u64,
    replayed: u64,
}

/// The §14.2 flap leg: the same single-path victim flow, but the cable
/// is cut and healed `cycles` times on a seeded schedule. Every cycle
/// must conserve — no lost packets, no dead-letters, no leaked credits
/// — with the held backlog replaying across each heal.
fn fabric_flap_run(smoke: bool) -> FabricFlapSample {
    let packets: u64 = if smoke { 60 } else { 300 };
    let keeper_packets = packets * 2;
    let cycles: u64 = if smoke { 3 } else { 5 };
    let topo = Topology::mesh(FABRIC_COLS, FABRIC_ROWS);
    let east = topo
        .link_to(0, 1)
        .expect("node 1 is node 0's east neighbor");
    // The keeper's ejections alone must reach the last heal: space the
    // 2·cycles events across half the keeper's quota.
    let step = keeper_packets / (2 * cycles + 2);
    let mut plan = FaultPlan::new();
    for i in 0..cycles {
        plan = plan.kill_link_at(0, east, step * (2 * i + 1)).heal_link_at(
            0,
            east,
            step * (2 * i + 2),
        );
    }
    let mut cfg = FabricConfig::new(
        topo,
        vec![FlowSpec { src: 0, dst: 3 }, FlowSpec { src: 12, dst: 15 }],
    );
    cfg.max_backlog = 8;
    cfg.credits = 4;
    cfg.dead_link_policy = DeadLinkPolicy::HoldForRecovery;
    cfg.fault_plan = Some(plan);
    let f = Fabric::start(cfg);
    let quota = [packets, keeper_packets];
    let mut sent = [0u64; 2];
    while sent[0] < quota[0] || sent[1] < quota[1] {
        let mut progressed = false;
        for (fl, n) in sent.iter_mut().enumerate() {
            if *n < quota[fl] && f.try_submit(fl, FABRIC_PKT_LEN).is_ok() {
                *n += 1;
                progressed = true;
            }
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    let rep = f.drain_within(Duration::from_secs(120));
    assert!(rep.is_conserving(), "flap run leaked packets");
    assert_eq!(rep.events.len(), (2 * cycles) as usize, "every flap fired");
    assert_eq!(rep.lost_packets, 0, "a flapping cable loses nothing");
    assert_eq!(rep.dead_lettered_packets(), 0, "flaps dead-lettered");
    assert_eq!(rep.flows[0].ejected_packets, packets);
    assert_eq!(rep.flows[1].ejected_packets, keeper_packets);
    assert!(rep.replayed_flits() > 0, "no flap window held any traffic");
    // Credit-leak check: after the drain every credit of the flapped
    // cable is back in its pool.
    let east_snap = rep.node_reports[0]
        .stats
        .egress
        .as_ref()
        .expect("buffered mode has egress stats")
        .links[east]
        .clone();
    assert_eq!(
        east_snap.credits_available, 4,
        "flap cycles leaked credits on the flapped cable"
    );
    FabricFlapSample {
        victim_packets: packets,
        keeper_packets,
        cycles,
        replayed: rep.replayed_flits(),
    }
}

fn push_fabric_chaos_json(json: &mut String, key: &str, c: &FabricChaosSample, last: bool) {
    json.push_str(&format!(
        "  \"{key}\": {{\"mesh\": \"{FABRIC_COLS}x{FABRIC_ROWS}\", \
         \"flows\": [\"0->15\", \"15->0\"], \"cut\": \"node 0 east cable\", \
         \"kill_at_ejections\": {}, \"packets_per_flow\": {}, \
         \"ejected\": {}, \"rerouted\": {}, \"dead_lettered\": {}, \
         \"lost_packets\": {}, \"reverse_ejected\": {}}}{}\n",
        c.kill_at_ejections,
        c.packets_per_flow,
        c.ejected,
        c.rerouted,
        c.dead_lettered,
        c.lost,
        c.reverse_ejected,
        if last { "" } else { "," }
    ));
}

fn run_fabric_bench(smoke: bool, fabric_out: &str) {
    let packets_uniform: u64 = if smoke { 5 } else { 40 };
    let packets_transpose: u64 = if smoke { 40 } else { 400 };
    let window = Duration::from_millis(if smoke { 80 } else { 400 });
    let topo = Topology::mesh(FABRIC_COLS, FABRIC_ROWS);

    eprintln!(
        "runtime-bench: fabric {FABRIC_COLS}x{FABRIC_ROWS} mesh, uniform mix \
         ({packets_uniform} packets/flow)..."
    );
    let uniform = fabric_mix_run("uniform", uniform_flows(&topo), packets_uniform);
    eprintln!(
        "  uniform: {} flows, {:.0} packets/s, mean latency {:.0} us, jain {:.4}",
        uniform.flows, uniform.packets_per_sec, uniform.mean_latency_us, uniform.jain
    );
    eprintln!("runtime-bench: fabric transpose mix ({packets_transpose} packets/flow)...");
    let transpose = fabric_mix_run(
        "transpose",
        transpose_flows(FABRIC_COLS, FABRIC_ROWS),
        packets_transpose,
    );
    eprintln!(
        "  transpose: {} flows, {:.0} packets/s, mean latency {:.0} us, jain {:.4}",
        transpose.flows, transpose.packets_per_sec, transpose.mean_latency_us, transpose.jain
    );
    eprintln!("runtime-bench: fabric hotspot, node {HOT_NODE} eject frozen...");
    let hotspot = hotspot_compare(window);
    eprintln!(
        "  hotspot: {} unstalled of {} flows held {} of {} baseline packets \
         (isolation {:.3})",
        hotspot.unstalled_flows,
        hotspot.flows,
        hotspot.hotspot_unstalled,
        hotspot.baseline_unstalled,
        hotspot.isolation
    );
    eprintln!("runtime-bench: fabric chaos kill-link replay...");
    let chaos = fabric_kill_link_run(smoke);
    eprintln!(
        "  kill-link: {} ejected, {} rerouted, {} dead-lettered, {} lost",
        chaos.ejected, chaos.rerouted, chaos.dead_lettered, chaos.lost
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"err-fabric multi-node wormhole mesh\",\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!(
        "  \"topology\": \"{FABRIC_COLS}x{FABRIC_ROWS} mesh, XY routing, YX fallback\",\n"
    ));
    json.push_str(&format!("  \"packet_len_flits\": {FABRIC_PKT_LEN},\n"));
    json.push_str(
        "  \"mix_metric\": \"blocking submit of packets_per_flow to every flow, \
         graceful drain; per-flow conservation across hops asserted exactly; \
         latency is source-submit to destination-eject wall microseconds\",\n",
    );
    json.push_str("  \"mixes\": [\n");
    for (i, m) in [&uniform, &transpose].into_iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mix\": \"{}\", \"flows\": {}, \"packets\": {}, \
             \"elapsed_secs\": {:.6}, \"packets_per_sec\": {:.1}, \
             \"mean_latency_us\": {:.1}, \"max_latency_us\": {}, \
             \"max_hops\": {}, \"jain_ejected_flits\": {:.6}}}{}\n",
            m.name,
            m.flows,
            m.packets,
            m.elapsed_secs,
            m.packets_per_sec,
            m.mean_latency_us,
            m.max_latency_us,
            m.max_hops,
            m.jain,
            if i == 0 { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"transpose_paths\": [\n");
    for (i, (spec, hops, min_cycles, mean_us)) in transpose.paths.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"src\": {}, \"dst\": {}, \"hops\": {}, \"min_cycles\": {}, \
             \"mean_latency_us\": {:.1}}}{}\n",
            spec.src,
            spec.dst,
            hops,
            min_cycles,
            mean_us,
            if i + 1 == transpose.paths.len() {
                ""
            } else {
                ","
            }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"hotspot\": {{\"hot_node\": {HOT_NODE}, \"frozen\": \"eject end\", \
         \"best_of\": {HOTSPOT_BEST_OF}, \"flows\": {}, \"hot_flows\": {}, \
         \"unstalled_flows\": {}, \"measure_window_secs\": {:.3}, \
         \"metric\": \"ejected packets of flows sharing no egress end with any \
         hot-bound path, at window end, hotspot vs paired baseline\", \
         \"baseline_unstalled\": {}, \"hotspot_unstalled\": {}, \
         \"isolation\": {:.4}, \"floor\": 0.9}},\n",
        hotspot.flows,
        hotspot.hot_flows,
        hotspot.unstalled_flows,
        hotspot.window_secs,
        hotspot.baseline_unstalled,
        hotspot.hotspot_unstalled,
        hotspot.isolation,
    ));
    push_fabric_chaos_json(&mut json, "chaos_kill_link", &chaos, true);
    json.push_str("}\n");

    std::fs::write(fabric_out, json).expect("writing fabric bench output");
    eprintln!("runtime-bench: wrote {fabric_out}");
}

fn main() {
    let mut smoke = false;
    let mut paths: Vec<String> = Vec::new();
    let mut chaos = false;
    let mut fabric = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--chaos" => chaos = true,
            "--fabric" => fabric = true,
            _ => paths.push(arg),
        }
    }
    let out = |default: &str| paths.first().cloned().unwrap_or_else(|| default.to_owned());
    if fabric {
        run_fabric_bench(smoke, &out("BENCH_fabric.json"));
    } else if chaos {
        run_chaos_bench(smoke, &out("BENCH_fault.json"));
    } else {
        run_egress_bench(smoke, &out("BENCH_egress.json"));
    }
}

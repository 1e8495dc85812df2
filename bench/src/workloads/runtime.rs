//! The three runtime workloads: one `Runtime`, one shard, 64 flows, one
//! generator thread, the benchmark's sink at the far end.
//!
//! * `runtime_sync` — `EgressMode::Sync`, `Backpressure{64}`: ingress
//!   ring, admission, gate and shard loop; err-egress bypassed. Paced at
//!   350 000 pkts/s, the buffered modes at 35 000.
//! * `runtime_buffered` — same inputs, `Buffered{ring 256, credits 32,
//!   links 4}`: credit CAS, SPSC commit and flusher on top.
//! * `runtime_buffered_stalls` — the same stage used differently:
//!   `Reject{64}`, the generator skips refused flows, and every 2 048
//!   accepted packets the frozen link moves among links 0–2 in seeded
//!   order. (A flush-clock `StallPlan` with a blocking producer wedges —
//!   head-of-line in the generator — hence freeze/release from outside.)

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use err_runtime::{
    AdmissionPolicy, BufferedConfig, EgressMode, Runtime, RuntimeConfig, RuntimeHandle,
    RuntimeStats, SubmitError, Submitted,
};
use err_sched::{Discipline, Packet};

use super::{finish_trace, p50_us, timed_setup, Ctx, SPAN_PACKETS, WINDOW};
use crate::gen::{Inputs, TABLE};
use crate::host::{self, delta_by_prefix, now_ns, peak_rss_mb, process_cpu_ns, ThreadStat};
use crate::report::Report;
use crate::sink::{Sink, SinkShared, SLOTS};
use crate::stats::{median, percentile};
use crate::trace::{Spans, ROOT};
use crate::{layers, pace, watchdog};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Sync,
    Buffered,
    Stalls,
}

const N_FLOWS: usize = 64;
const LINKS: usize = 4;
/// Links the stall rotates over; link 3 never freezes.
const STALL_LINKS: u8 = 3;
const ROTATE_EVERY: u64 = 2048;
/// Paced rates: a quarter to a half of what each mode saturates at
/// (≈ 1.3 M, 78 k and 62 k pkts/s). `Sync` was first paced at the
/// buffered modes' 35 000: at 3 % load its p50 was two timer wake-ups
/// (generator, parked worker) and nothing of the program — windows
/// flipped between 85 and 160 µs with the host's mood.
const PACED_PPS_SYNC: u64 = 350_000;
const PACED_PPS_BUFFERED: u64 = 35_000;

impl Mode {
    fn config(self) -> RuntimeConfig {
        let buffered = || {
            EgressMode::Buffered(BufferedConfig {
                ring_capacity: 256,
                credits: 32,
                n_links: LINKS,
                ..BufferedConfig::default()
            })
        };
        let (admission, egress) = match self {
            Mode::Sync => (
                AdmissionPolicy::Backpressure { max_backlog: 64 },
                EgressMode::Sync,
            ),
            Mode::Buffered => (
                AdmissionPolicy::Backpressure { max_backlog: 64 },
                buffered(),
            ),
            Mode::Stalls => (AdmissionPolicy::Reject { max_backlog: 64 }, buffered()),
        };
        RuntimeConfig {
            shards: 1,
            n_flows: N_FLOWS,
            discipline: Discipline::Err,
            admission,
            egress,
            ..RuntimeConfig::default()
        }
    }

    /// Fixed warm-up count, sized so set-up is tens of milliseconds on
    /// every mode rather than thread-spawn noise.
    fn warm_packets(self) -> u64 {
        match self {
            Mode::Sync => 100_000,
            Mode::Buffered | Mode::Stalls => 20_000,
        }
    }
}

/// What to remember about each accepted packet of a phase.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Log {
    Off,
    /// Its due stamp (paced phases).
    Due,
    /// Also when the `submit` call started and returned (traced phases).
    Calls,
}

#[derive(Clone, Copy)]
struct Logged {
    id: u64,
    stamp: u64,
    call_start: u64,
    call_end: u64,
}

struct World {
    mode: Mode,
    rt: Runtime,
    handle: RuntimeHandle,
    sink: Arc<SinkShared>,
    inputs: Inputs,
    /// Ids are dense: a packet takes the next id when it is accepted.
    next_id: u64,
    cursor: usize,
    accepted_flits: u64,
    rejects: u64,
    log_mode: Log,
    log: Vec<Logged>,
    /// Whether accepted packets advance the stall rotation (off while a
    /// phase flushes and settles, so nothing re-freezes behind it).
    stalling: bool,
    frozen: Option<usize>,
    since_rotate: u64,
    rotor: usize,
    /// Paced stalls only: packets refused when due, per flow, waiting
    /// for the next tick's retry with their original due time.
    deferred: Vec<VecDeque<(u32, u64)>>,
    deferred_total: usize,
}

impl World {
    fn setup(mode: Mode, seed: u64) -> Self {
        let inputs = Inputs::new(seed, N_FLOWS, STALL_LINKS);
        let sink = SinkShared::new();
        let shared = Arc::clone(&sink);
        let (rt, handle) = Runtime::start_with_egress(mode.config(), move |_shard| {
            Some(Sink::new(Arc::clone(&shared), N_FLOWS))
        });
        let mut w = Self {
            mode,
            rt,
            handle,
            sink,
            inputs,
            next_id: 0,
            cursor: 0,
            accepted_flits: 0,
            rejects: 0,
            log_mode: Log::Off,
            log: Vec::new(),
            stalling: mode == Mode::Stalls,
            frozen: None,
            since_rotate: 0,
            rotor: 0,
            deferred: vec![VecDeque::new(); N_FLOWS],
            deferred_total: 0,
        };
        while w.next_id < mode.warm_packets() {
            if !w.offer(0) {
                std::thread::yield_now();
            }
        }
        w.settle();
        w
    }

    /// Next `(flow, len)` of the seeded tables.
    fn next_entry(&mut self) -> (usize, u32) {
        let i = self.cursor & (TABLE - 1);
        self.cursor += 1;
        (self.inputs.flows[i] as usize, self.inputs.lens[i])
    }

    fn offer(&mut self, stamp: u64) -> bool {
        let (flow, len) = self.next_entry();
        self.submit(flow, len, stamp)
    }

    /// One `submit`. Blocks under `Backpressure`; under `Reject` a
    /// refusal is a layer count, not a failure, and returns false.
    fn submit(&mut self, flow: usize, len: u32, stamp: u64) -> bool {
        let calls = self.log_mode == Log::Calls;
        let pkt = Packet::new(self.next_id, flow, len, stamp);
        let call_start = if calls { now_ns() } else { 0 };
        let res = self.handle.submit(pkt);
        let call_end = if calls { now_ns() } else { 0 };
        match res {
            Ok(Submitted::Enqueued) => {}
            Err(SubmitError::Rejected) if self.mode == Mode::Stalls => {
                self.rejects += 1;
                return false;
            }
            other => panic!("submit of packet {} failed: {other:?}", pkt.id),
        }
        self.next_id += 1;
        self.accepted_flits += u64::from(len);
        if self.log_mode != Log::Off {
            self.log.push(Logged {
                id: pkt.id,
                stamp,
                call_start,
                call_end,
            });
        }
        if self.stalling {
            self.since_rotate += 1;
            if self.since_rotate >= ROTATE_EVERY {
                self.rotate();
            }
        }
        true
    }

    fn rotate(&mut self) {
        let ctrl = self.rt.egress_controller().expect("stalls run buffered");
        if let Some(l) = self.frozen {
            ctrl.release_stall(l);
        }
        let order = &self.inputs.stall_order;
        let l = usize::from(order[self.rotor % order.len()]);
        self.rotor += 1;
        ctrl.freeze(l);
        self.frozen = Some(l);
        self.since_rotate = 0;
    }

    /// Ends a phase: stops the stall rotation, thaws the frozen link,
    /// submits what the paced generator had to defer, and waits until
    /// every accepted packet has reached the sink.
    fn settle(&mut self) {
        self.stalling = false;
        if let Some(l) = self.frozen.take() {
            self.rt
                .egress_controller()
                .expect("stalls run buffered")
                .release_stall(l);
        }
        while self.deferred_total > 0 {
            self.retry_deferred();
            std::thread::yield_now();
        }
        while self.sink.packets() < self.next_id {
            watchdog::progress(self.next_id, self.sink.packets());
            std::thread::sleep(Duration::from_micros(50));
        }
        watchdog::progress(self.next_id, self.sink.packets());
        self.stalling = self.mode == Mode::Stalls;
    }

    fn retry_deferred(&mut self) {
        for flow in 0..N_FLOWS {
            while let Some(&(len, due)) = self.deferred[flow].front() {
                if !self.submit(flow, len, due) {
                    break;
                }
                self.deferred[flow].pop_front();
                self.deferred_total -= 1;
            }
        }
    }

    /// Closed loop: submits as fast as the runtime accepts for `dur`
    /// (or until a traced phase runs out of time slots), then settles.
    fn saturate(&mut self, dur: Duration, log: Log) -> Saturated {
        self.log_mode = log;
        self.log.clear();
        let stamped = log != Log::Off;
        let (id0, flits0, rejects0) = (self.next_id, self.accepted_flits, self.rejects);
        let (t0, cpu0) = (Instant::now(), process_cpu_ns());
        let (mut in_sweep, mut progress) = (0, false);
        'phase: while t0.elapsed() < dur {
            for _ in 0..64 {
                if stamped && self.next_id - id0 >= SLOTS as u64 - 1 {
                    break 'phase;
                }
                let stamp = if stamped { now_ns() } else { 0 };
                progress |= self.offer(stamp);
                in_sweep += 1;
                // Every flow refused across a whole sweep: let the
                // runtime's threads have the core.
                if in_sweep == N_FLOWS {
                    if !progress {
                        std::thread::yield_now();
                    }
                    (in_sweep, progress) = (0, false);
                }
            }
        }
        self.settle();
        self.log_mode = Log::Off;
        Saturated {
            packets: self.next_id - id0,
            flits: self.accepted_flits - flits0,
            rejects: self.rejects - rejects0,
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_ns: process_cpu_ns() - cpu0,
        }
    }

    /// Open loop at the mode's paced rate; returns each packet's due → tail-at-sink
    /// time, ns. Logs per `log` (`Due` at least).
    fn paced(&mut self, dur: Duration, log: Log) -> (Vec<u64>, pace::Paced) {
        self.log_mode = log;
        self.log.clear();
        let id0 = self.next_id;
        let stalls = self.mode == Mode::Stalls;
        let rate = match self.mode {
            Mode::Sync => PACED_PPS_SYNC,
            Mode::Buffered | Mode::Stalls => PACED_PPS_BUFFERED,
        };
        let paced = pace::run(rate, dur, pace::Wait::Sleep, |due, i, _| {
            if !stalls {
                self.offer(due);
                return;
            }
            if i == 0 {
                self.retry_deferred();
            }
            let (flow, len) = self.next_entry();
            // Per-flow FIFO: never overtake a deferred packet.
            if !self.deferred[flow].is_empty() || !self.submit(flow, len, due) {
                self.deferred[flow].push_back((len, due));
                self.deferred_total += 1;
            }
        });
        self.settle();
        self.log_mode = Log::Off;
        assert!(
            self.next_id - id0 < SLOTS as u64,
            "paced phase outran the time slots"
        );
        let sojourn = self
            .log
            .iter()
            .map(|l| self.sink.times(l.id).1.saturating_sub(l.stamp))
            .collect();
        (sojourn, paced)
    }

    /// Turns the current log into spans and per-stage samples.
    fn harvest(&self, spans: &mut Spans, stages: &mut Stages) {
        for (k, l) in self.log.iter().enumerate() {
            let (head, tail) = self.sink.times(l.id);
            stages.submit_ns.push(l.call_end - l.call_start);
            stages.queue_wait_ns.push(head.saturating_sub(l.call_end));
            stages.serialize_ns.push(tail.saturating_sub(head));
            if k < SPAN_PACKETS {
                let root = spans.push("packet", l.stamp, tail, ROOT, l.id);
                spans.push("submit", l.call_start, l.call_end, root, l.id);
                spans.push("queue_wait", l.call_end, head, root, l.id);
                spans.push("serialize", head, tail, root, l.id);
            }
        }
    }

    /// Shuts the runtime down and runs the conservation checks; folds
    /// this world's egress counters into `egress` and returns the drain
    /// time, ms.
    fn teardown(self, rep: &mut Report, label: &str, egress: &mut EgressTally) -> f64 {
        let (accepted, flits) = (self.next_id, self.accepted_flits);
        let (sunk_packets, sunk_flits, disorder) = (
            self.sink.packets(),
            self.sink.flits(),
            self.sink.order_violations(),
        );
        if let Some(e) = self.rt.stats().egress {
            egress.peak_ring_occupancy = egress.peak_ring_occupancy.max(e.peak_ring_occupancy());
            egress.stall_events += e.stall_events();
            egress.max_stall_cycles = egress.max_stall_cycles.max(e.max_stall_cycles());
        }
        let t = Instant::now();
        let report = self.rt.shutdown();
        let drain_ms = t.elapsed().as_secs_f64() * 1e3;
        rep.check(
            &format!("{label}:sink==submitted"),
            sunk_packets == accepted && sunk_flits == flits,
            format!("sink {sunk_packets} pkts / {sunk_flits} flits, accepted {accepted} / {flits}"),
        );
        rep.check(
            &format!("{label}:drain-report"),
            report.is_conserving() && report.all_clean() && report.served_packets() == accepted,
            format!(
                "served {} of {accepted}, clean {}",
                report.served_packets(),
                report.all_clean()
            ),
        );
        rep.check(
            &format!("{label}:fifo"),
            disorder == 0,
            format!("{disorder} flits out of per-flow order"),
        );
        rep.attempted += accepted;
        rep.undelivered += accepted.saturating_sub(sunk_packets);
        drain_ms
    }
}

/// `err-egress` counters over every world of a run.
#[derive(Default)]
struct EgressTally {
    peak_ring_occupancy: u64,
    stall_events: u64,
    max_stall_cycles: u64,
}

struct Saturated {
    packets: u64,
    flits: u64,
    rejects: u64,
    wall_s: f64,
    cpu_ns: u64,
}

#[derive(Default)]
struct Stages {
    submit_ns: Vec<u64>,
    queue_wait_ns: Vec<u64>,
    serialize_ns: Vec<u64>,
}

/// Per-thread CPU and switches, and the runtime's own counters, before
/// and after a phase.
struct Probe {
    threads: Vec<ThreadStat>,
    stats: RuntimeStats,
}

impl Probe {
    fn take(w: &World) -> Self {
        Self {
            threads: host::threads(),
            stats: w.rt.stats(),
        }
    }

    /// Samples the in-situ per-layer metrics of a phase that delivered
    /// `sat.flits` flits.
    fn report(&self, after: &Probe, sat: &Saturated, rep: &mut Report, buffered: bool) {
        let flits = sat.flits.max(1) as f64;
        let delta = |prefix: &str| delta_by_prefix(&self.threads, &after.threads, prefix);
        let (shard_cpu, shard_switches) = delta("err-shard");
        rep.sample("err-runtime.shard_cpu_ns_per_flit", shard_cpu / flits);
        rep.sample(
            "err-runtime.shard_ctx_switches_per_kflit",
            shard_switches / flits * 1e3,
        );
        rep.sample(
            "err-runtime.producer_cpu_ns_per_flit",
            delta("err-ledger").0 / flits,
        );
        let (s0, s1) = (&self.stats.shards[0], &after.stats.shards[0]);
        rep.sample(
            "err-runtime.busy_loops_per_kflit",
            (s1.busy_loops - s0.busy_loops) as f64 / flits * 1e3,
        );
        rep.sample(
            "err-runtime.idle_parks_per_kflit",
            (s1.parks - s0.parks) as f64 / flits * 1e3,
        );
        rep.sample(
            "err-runtime.rejects_per_packet",
            sat.rejects as f64 / sat.packets.max(1) as f64,
        );
        if buffered {
            let (cpu, switches) = delta("err-flusher");
            rep.sample("err-egress.flusher_cpu_ns_per_flit", cpu / flits);
            rep.sample(
                "err-egress.flusher_ctx_switches_per_kflit",
                switches / flits * 1e3,
            );
        }
    }
}

pub fn run(mode: Mode, ctx: &Ctx, rep: &mut Report) {
    let buffered = mode != Mode::Sync;
    if ctx.trace {
        // Before any runtime thread exists: unit costs want a quiet host.
        watchdog::phase("layers");
        let inputs = Inputs::new(ctx.seed, N_FLOWS, STALL_LINKS);
        layers::sched(rep, &inputs);
        layers::runtime(rep, &inputs);
        if buffered {
            layers::egress(rep);
        }
        layers::clock(rep);
    }
    let setup = || {
        let w = World::setup(mode, ctx.seed);
        w.sink.time_heads.store(ctx.trace, Ordering::Relaxed);
        w
    };
    let mut w = timed_setup(rep, setup);
    let mut egress = EgressTally::default();

    let mut spans = Spans::default();
    let mut stages = Stages::default();
    let mut paced_stages = Stages::default();
    let (mut fps, mut traced_fps, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    let mut sojourn_all = Vec::new();
    for r in 0..ctx.repeats() {
        if ctx.setup_due(r) {
            watchdog::phase(&format!("teardown@{r}"));
            w.teardown(rep, &format!("world@{r}"), &mut egress);
            w = timed_setup(rep, setup);
        }
        // A traced run alternates plain and span-recording saturate
        // phases: their ratio is the tracing overhead, and the plain
        // ones carry the per-thread CPU figures.
        let record = ctx.trace && r % 2 == 1;
        watchdog::phase(&format!("saturate#{r}"));
        let before = ctx.trace.then(|| Probe::take(&w));
        let sat = w.saturate(WINDOW, if record { Log::Calls } else { Log::Off });
        let rate = sat.flits as f64 / sat.wall_s;
        if record {
            traced_fps.push(rate);
            w.harvest(&mut spans, &mut stages);
        } else {
            fps.push(rate);
            cpu.push(sat.cpu_ns as f64 / sat.flits as f64);
            rep.sample("flits_per_s", rate);
            rep.sample("cpu_ns_per_flit", sat.cpu_ns as f64 / sat.flits as f64);
            if let Some(before) = before {
                before.report(&Probe::take(&w), &sat, rep, buffered);
            }
        }

        watchdog::phase(&format!("paced#{r}"));
        let (mut sojourn, paced) = w.paced(WINDOW, if ctx.trace { Log::Calls } else { Log::Due });
        rep.sample("paced_latency_us", p50_us(&mut sojourn));
        if ctx.trace {
            rep.sample("gen.late_max_us", paced.late_max_us);
            w.harvest(&mut spans, &mut paced_stages);
            sojourn_all.append(&mut sojourn);
        }
    }

    watchdog::phase("teardown");
    rep.snapshot_threads();
    let mean_len = w.inputs.mean_len();
    let drain_ms = w.teardown(rep, "final", &mut egress);
    rep.sample("peak_rss_mb", peak_rss_mb());

    if ctx.trace {
        rep.sample("err-runtime.drain_ms", drain_ms);
        rep.sample(
            "err-runtime.submit_call_ns_p50",
            percentile(&mut stages.submit_ns, 0.5) as f64,
        );
        rep.sample(
            "err-runtime.queue_wait_us_p50",
            p50_us(&mut paced_stages.queue_wait_ns),
        );
        rep.sample(
            "err-runtime.serialize_us_p50",
            p50_us(&mut paced_stages.serialize_ns),
        );
        rep.sample("err-runtime.sojourn_samples", sojourn_all.len() as f64);
        rep.sample(
            "err-runtime.sojourn_p99_us",
            percentile(&mut sojourn_all, 0.99) as f64 / 1e3,
        );
        if buffered {
            rep.sample(
                "err-egress.peak_ring_occupancy",
                egress.peak_ring_occupancy as f64,
            );
            rep.sample("err-egress.stall_events", egress.stall_events as f64);
            rep.sample(
                "err-egress.max_stall_cycles",
                egress.max_stall_cycles as f64,
            );
        }
        finish_trace(
            rep,
            &layers::Path {
                ingress: true,
                egress: buffered,
                nodes: 1.0,
            },
            1.0 / mean_len,
            median(&cpu),
            (&fps, &traced_fps),
            &spans,
        );
    }
}

//! `fabric_mesh`: a `Fabric` on `Topology::mesh(2, 2)`, all 12 ordered
//! pairs, 4-flit packets, `FabricConfig::new` defaults. Forwarder
//! hand-offs, refusals and per-hop flusher wake-ups dominate. The fabric
//! ejects internally, so everything here is read from its public ledger:
//! delivered flits, and a packet's latency as the ledger's
//! `Σ latency_sum_us ÷ ejected` (submit → eject) over the phase.

use std::time::{Duration, Instant};

use err_fabric::{Fabric, FabricConfig, FlowSnapshot, FlowSpec, Topology};
use err_runtime::Submitted;

use super::{finish_trace, timed_setup, Ctx, SPAN_PACKETS, WINDOW};
use crate::gen::{Inputs, TABLE};
use crate::host::{self, delta_by_prefix, now_ns, peak_rss_mb, process_cpu_ns};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::{Spans, ROOT};
use crate::{layers, pace, watchdog};

const PKT_LEN: u32 = 4;
const PACED_PPS: u64 = 20_000;
const WARM_PACKETS: u64 = 6_000;

fn mesh() -> (Topology, Vec<FlowSpec>) {
    let topo = Topology::mesh(2, 2);
    let n = topo.n_nodes();
    let flows = (0..n)
        .flat_map(|src| {
            (0..n)
                .filter(move |&dst| dst != src)
                .map(move |dst| FlowSpec { src, dst })
        })
        .collect();
    (topo, flows)
}

/// Ledger totals at an instant: `(submitted, ejected packets, ejected
/// flits, latency sum µs)`.
fn totals(flows: &[FlowSnapshot]) -> (u64, u64, u64, u64) {
    flows.iter().fold((0, 0, 0, 0), |a, f| {
        (
            a.0 + f.submitted,
            a.1 + f.ejected_packets,
            a.2 + f.ejected_flits,
            a.3 + f.latency_sum_us,
        )
    })
}

struct World {
    fabric: Fabric,
    inputs: Inputs,
    n_flows: usize,
    cursor: usize,
    submitted: u64,
}

impl World {
    fn setup(seed: u64) -> Self {
        let (topo, flows) = mesh();
        let n_flows = flows.len();
        let inputs = Inputs::new(seed, n_flows, 0);
        let fabric = Fabric::start(FabricConfig::new(topo, flows));
        let mut w = Self {
            fabric,
            inputs,
            n_flows,
            cursor: 0,
            submitted: 0,
        };
        for _ in 0..WARM_PACKETS {
            w.submit();
        }
        w.settle();
        w
    }

    /// One blocking submit on the next flow of the seeded order.
    fn submit(&mut self) {
        let flow = self.inputs.flows[self.cursor & (TABLE - 1)] as usize;
        self.cursor += 1;
        match self.fabric.submit(flow, PKT_LEN) {
            Ok(Submitted::Enqueued) => self.submitted += 1,
            other => panic!("fabric submit on flow {flow} failed: {other:?}"),
        }
    }

    fn settle(&self) {
        while self.fabric.in_flight() > 0 {
            watchdog::progress(self.submitted, self.fabric.ledger().ejected_total());
            std::thread::sleep(Duration::from_micros(50));
        }
        watchdog::progress(self.submitted, self.fabric.ledger().ejected_total());
    }

    fn refusals(&self) -> u64 {
        (0..self.fabric.topology().n_nodes())
            .map(|n| self.fabric.refusals(n))
            .sum()
    }

    fn teardown(self, rep: &mut Report, label: &str) -> (f64, err_fabric::FabricReport) {
        let submitted = self.submitted;
        let t = Instant::now();
        let report = self.fabric.drain_within(Duration::from_secs(30));
        let drain_ms = t.elapsed().as_secs_f64() * 1e3;
        let ejected = report.ejected_packets();
        rep.check(
            &format!("{label}:fabric-report"),
            report.is_conserving() && !report.forced && report.lost_packets == 0,
            format!("forced {}, lost {}", report.forced, report.lost_packets),
        );
        rep.check(
            &format!("{label}:ejected==submitted"),
            ejected == submitted
                && report.flows.iter().all(|f| {
                    f.ejected_packets == f.submitted
                        && f.ejected_flits == f.submitted * u64::from(PKT_LEN)
                }),
            format!("ejected {ejected} of {submitted}"),
        );
        rep.check(
            &format!("{label}:node-reports"),
            report
                .node_reports
                .iter()
                .all(|r| r.is_conserving() && r.all_clean()),
            "a node's DrainReport is not conserving or clean".into(),
        );
        rep.attempted += submitted;
        rep.undelivered += submitted.saturating_sub(ejected);
        (drain_ms, report)
    }
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    if ctx.trace {
        // Before any fabric thread exists: unit costs want a quiet host.
        watchdog::phase("layers");
        let (topo, specs) = mesh();
        let inputs = Inputs::new(ctx.seed, specs.len(), 0);
        layers::sched(rep, &inputs);
        layers::runtime(rep, &inputs);
        layers::egress(rep);
        layers::fabric(rep, &topo, &specs);
        layers::clock(rep);
    }
    let mut w = timed_setup(rep, || World::setup(ctx.seed));

    let mut spans = Spans::default();
    let mut submit_ns = Vec::new();
    let (mut fps, mut traced_fps, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..ctx.repeats() {
        if ctx.setup_due(r) {
            watchdog::phase(&format!("teardown@{r}"));
            w.teardown(rep, &format!("world@{r}"));
            w = timed_setup(rep, || World::setup(ctx.seed));
        }
        let record = ctx.trace && r % 2 == 1;
        watchdog::phase(&format!("saturate#{r}"));
        let before = totals(&w.fabric.ledger().snapshot());
        let threads0 = ctx.trace.then(host::threads);
        let refusals0 = w.refusals();
        let (t0, cpu0) = (Instant::now(), process_cpu_ns());
        let mut logged = 0usize;
        while t0.elapsed() < WINDOW {
            for _ in 0..w.n_flows {
                if record {
                    let s0 = now_ns();
                    w.submit();
                    let s1 = now_ns();
                    submit_ns.push(s1 - s0);
                    if logged < SPAN_PACKETS {
                        spans.push("submit", s0, s1, ROOT, w.submitted - 1);
                        logged += 1;
                    }
                } else {
                    w.submit();
                }
            }
        }
        w.settle();
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_ns = process_cpu_ns() - cpu0;
        let after = totals(&w.fabric.ledger().snapshot());
        let (packets, flits) = (after.1 - before.1, after.2 - before.2);
        let rate = flits as f64 / wall_s;
        if record {
            traced_fps.push(rate);
        } else {
            fps.push(rate);
            cpu.push(cpu_ns as f64 / flits as f64);
            rep.sample("flits_per_s", rate);
            rep.sample("cpu_ns_per_flit", cpu_ns as f64 / flits as f64);
            if let Some(t0) = threads0 {
                let t1 = host::threads();
                let per_flit = |prefix: &str| {
                    let (cpu, switches) = delta_by_prefix(&t0, &t1, prefix);
                    (cpu / flits as f64, switches / flits as f64 * 1e3)
                };
                let (shard, flusher, producer) = (
                    per_flit("err-shard"),
                    per_flit("err-flusher"),
                    per_flit("err-ledger"),
                );
                rep.sample("err-runtime.shard_cpu_ns_per_flit", shard.0);
                rep.sample("err-runtime.shard_ctx_switches_per_kflit", shard.1);
                rep.sample("err-runtime.producer_cpu_ns_per_flit", producer.0);
                rep.sample("err-egress.flusher_cpu_ns_per_flit", flusher.0);
                rep.sample("err-egress.flusher_ctx_switches_per_kflit", flusher.1);
                rep.sample(
                    "err-fabric.refusals_per_packet",
                    (w.refusals() - refusals0) as f64 / packets.max(1) as f64,
                );
            }
        }

        watchdog::phase(&format!("paced#{r}"));
        // The ledger only sums. Read it once per tick: the mean latency
        // of the packets ejected in that millisecond; the phase reports
        // the median tick, which a descheduled generator cannot drag.
        let mut last = totals(&w.fabric.ledger().snapshot());
        let mut tick_mean_us = Vec::new();
        let mut tick = |w: &World| {
            let now = totals(&w.fabric.ledger().snapshot());
            if now.1 > last.1 {
                tick_mean_us.push((now.3 - last.3) as f64 / (now.1 - last.1) as f64);
            }
            last = now;
        };
        let paced = pace::run(PACED_PPS, WINDOW, pace::Wait::Sleep, |_, i, _| {
            if i == 0 {
                tick(&w);
            }
            w.submit();
        });
        w.settle();
        tick(&w);
        rep.sample(
            "paced_latency_us",
            if tick_mean_us.is_empty() {
                0.0
            } else {
                median(&tick_mean_us)
            },
        );
        if ctx.trace {
            rep.sample("gen.late_max_us", paced.late_max_us);
        }
    }

    watchdog::phase("teardown");
    rep.snapshot_threads();
    let mean_nodes = {
        let (topo, specs) = mesh();
        specs
            .iter()
            .enumerate()
            .map(|(f, s)| topo.path(f, *s).len())
            .sum::<usize>() as f64
            / specs.len() as f64
    };
    let (drain_ms, report) = w.teardown(rep, "final");
    let jain = report.jain_ejected();
    rep.check(
        "jain>=0.99",
        jain >= 0.99,
        format!("Jain over ejected flits {jain:.4}"),
    );
    rep.sample("peak_rss_mb", peak_rss_mb());

    if ctx.trace {
        rep.sample("err-fabric.drain_ms", drain_ms);
        rep.sample("err-fabric.jain_ejected", jain);
        rep.sample(
            "err-fabric.submit_call_ns_p50",
            percentile(&mut submit_ns, 0.5) as f64,
        );
        // Per-hop means over all flows, by position on the path.
        let (names_us, names_cycles) = (
            [
                "err-fabric.hop_mean_us.h0",
                "err-fabric.hop_mean_us.h1",
                "err-fabric.hop_mean_us.h2",
            ],
            [
                "err-fabric.hop_mean_cycles.h0",
                "err-fabric.hop_mean_cycles.h1",
                "err-fabric.hop_mean_cycles.h2",
            ],
        );
        for h in 0..3 {
            let (mut packets, mut us, mut cycles) = (0u64, 0u64, 0u64);
            for hops in &report.flow_hops {
                if let Some(s) = hops.get(h) {
                    packets += s.packets;
                    us += s.sum_us;
                    cycles += s.sum_cycles;
                }
            }
            rep.sample(names_us[h], us as f64 / packets.max(1) as f64);
            rep.sample(names_cycles[h], cycles as f64 / packets.max(1) as f64);
        }
        let egress = report
            .node_reports
            .iter()
            .filter_map(|r| r.stats.egress.as_ref());
        rep.sample(
            "err-egress.peak_ring_occupancy",
            egress
                .clone()
                .map(|e| e.peak_ring_occupancy())
                .max()
                .unwrap_or(0) as f64,
        );
        rep.sample(
            "err-egress.stall_events",
            egress.map(|e| e.stall_events()).sum::<u64>() as f64,
        );
        finish_trace(
            rep,
            &layers::Path {
                ingress: true,
                egress: true,
                nodes: mean_nodes,
            },
            1.0 / f64::from(PKT_LEN),
            median(&cpu),
            (&fps, &traced_fps),
            &spans,
        );
    }
}

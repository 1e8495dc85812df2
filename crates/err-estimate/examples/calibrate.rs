//! Calibration harness: run a 4×4 mesh mix through the real fabric
//! and the §12 estimator, and print per-hop and per-path predictions
//! against the measured §11.8 attribution. Usage:
//!
//! ```text
//! cargo run --release -p err-estimate --example calibrate \
//!     [mix] [packets] [max_backlog] [single|per-source]
//! ```
//!
//! Mixes: `uniform-rand`, `transpose`, `hotspot-rand` (the §12.5
//! validation set), plus `uniform` (all pairs), `hotspot` (all
//! sources), and `hotspot2` (sources within two hops) as calibration
//! probes. The last argument picks the injection style: one blocking
//! round-robin producer (`single`) or one racing producer per source
//! node (`per-source`, the default and the bench's ground truth).

use std::time::{Duration, Instant};

use err_estimate::{estimate, EstimatorConfig, FlowLoad};
use err_fabric::{Fabric, FabricConfig, FlowSpec, Topology};

const COLS: usize = 4;
const ROWS: usize = 4;
const LEN: u32 = 4;
const HOT: usize = 5;

fn mix_flows(mix: &str, topo: &Topology) -> Vec<FlowSpec> {
    match mix {
        // The three validation mixes (DESIGN.md §12.5), seeded as in
        // `runtime-bench --estimate`.
        "uniform-rand" => err_estimate::mixes::uniform_random(topo, 0x5eed_0001),
        "hotspot-rand" => err_estimate::mixes::hotspot_random(topo, HOT, 0x5eed_0002),
        "transpose" => err_estimate::mixes::transpose(COLS, ROWS),
        // Extra probes for calibration work.
        "uniform" => (0..topo.n_nodes())
            .flat_map(|src| {
                (0..topo.n_nodes())
                    .filter(move |&dst| dst != src)
                    .map(move |dst| FlowSpec { src, dst })
            })
            .collect(),
        "hotspot" => (0..topo.n_nodes())
            .filter(|&src| src != HOT)
            .map(|src| FlowSpec { src, dst: HOT })
            .collect(),
        // Moderate convergecast: only sources within two hops of the
        // hot node, keeping the funnel shallow.
        "hotspot2" => (0..topo.n_nodes())
            .filter(|&src| {
                let (sx, sy) = (src % COLS, src / COLS);
                let (hx, hy) = (HOT % COLS, HOT / COLS);
                let dist = sx.abs_diff(hx) + sy.abs_diff(hy);
                src != HOT && dist <= 2
            })
            .map(|src| FlowSpec { src, dst: HOT })
            .collect(),
        other => panic!("unknown mix {other:?}"),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mix = args.next().unwrap_or_else(|| "transpose".to_owned());
    let packets: u64 = args
        .next()
        .map(|p| p.parse().expect("packets must be a number"))
        .unwrap_or(400);
    let max_backlog: u64 = args
        .next()
        .map(|p| p.parse().expect("max_backlog must be a number"))
        .unwrap_or(8);
    let producer = args.next().unwrap_or_else(|| "per-source".to_owned());

    let topo = Topology::mesh(COLS, ROWS);
    let flows = mix_flows(&mix, &topo);
    let n_flows = flows.len();

    // Ground truth: the real fabric.
    let mut cfg = FabricConfig::new(Topology::mesh(COLS, ROWS), flows.clone());
    cfg.max_backlog = max_backlog;
    let f = Fabric::start(cfg);
    let wall = Instant::now();
    if producer == "single" {
        for _ in 0..packets {
            for flow in 0..n_flows {
                f.submit(flow, LEN).expect("fabric is open");
            }
        }
    } else {
        // One producer per source node, as a real fabric injects: a
        // single round-robin producer couples all flows through its
        // blocking submits and skews per-flow delays by submit order.
        std::thread::scope(|s| {
            for src in 0..COLS * ROWS {
                let mine: Vec<usize> = flows
                    .iter()
                    .enumerate()
                    .filter(|(_, spec)| spec.src == src)
                    .map(|(fl, _)| fl)
                    .collect();
                if mine.is_empty() {
                    continue;
                }
                let f = &f;
                s.spawn(move || {
                    for _ in 0..packets {
                        for &flow in &mine {
                            f.submit(flow, LEN).expect("fabric is open");
                        }
                    }
                });
            }
        });
    }
    let rep = f.drain_within(Duration::from_secs(120));
    assert!(rep.is_conserving(), "calibration run leaked packets");
    let fabric_wall = wall.elapsed().as_secs_f64();

    // Prediction: the estimator.
    let loads: Vec<FlowLoad> = flows
        .iter()
        .map(|&spec| FlowLoad {
            spec,
            len: LEN,
            packets,
        })
        .collect();
    let est_cfg = EstimatorConfig {
        max_backlog,
        ..EstimatorConfig::default()
    };
    let wall = Instant::now();
    let est = estimate(&topo, &loads, &est_cfg);
    let est_wall = wall.elapsed().as_secs_f64();

    println!(
        "mix={mix} flows={n_flows} packets/flow={packets} len={LEN} \
         max_backlog={max_backlog} fabric={fabric_wall:.3}s est={est_wall:.6}s \
         speedup={:.0}x interval={}",
        fabric_wall / est_wall.max(1e-9),
        est.interval
    );

    // Per-node aggregate: packet-weighted measured vs predicted mean
    // delta, against the node's demand round.
    let mut node_meas: Vec<(f64, u64)> = vec![(0.0, 0); COLS * ROWS];
    let mut node_pred: Vec<(f64, u64)> = vec![(0.0, 0); COLS * ROWS];
    for (fl, &spec) in flows.iter().enumerate() {
        let path = topo.path(fl, spec);
        for (node, h) in path.iter().zip(rep.flow_hops[fl].iter()) {
            node_meas[*node].0 += h.mean_cycles() * h.packets as f64;
            node_meas[*node].1 += h.packets;
        }
        for h in &est.paths[fl].per_hop {
            node_pred[h.node].0 += h.mean_cycles * h.samples as f64;
            node_pred[h.node].1 += h.samples;
        }
    }
    let mut round = [0u64; COLS * ROWS];
    for (fl, &spec) in flows.iter().enumerate() {
        for node in topo.path(fl, spec) {
            round[node] += u64::from(LEN);
        }
        let _ = fl;
    }
    for n in 0..COLS * ROWS {
        if node_meas[n].1 > 0 {
            println!(
                "node {n:2} round={:3} meas={:6.1} pred={:6.1}",
                round[n],
                node_meas[n].0 / node_meas[n].1 as f64,
                node_pred[n].0 / node_pred[n].1.max(1) as f64
            );
        }
    }

    let mut errs: Vec<f64> = Vec::new();
    for (fl, &spec) in flows.iter().enumerate() {
        let path = topo.path(fl, spec);
        let meas: f64 = rep.flow_hops[fl].iter().map(|h| h.mean_cycles()).sum();
        let pred = est.paths[fl].cycles;
        let err = (pred - meas) / meas;
        errs.push(err.abs());
        let hops: Vec<String> = path
            .iter()
            .zip(rep.flow_hops[fl].iter().zip(est.paths[fl].per_hop.iter()))
            .map(|(node, (m, p))| format!("n{node}:{:.1}/{:.1}", m.mean_cycles(), p.mean_cycles))
            .collect();
        println!(
            "flow {fl:3} {:2}->{:2} meas={meas:7.1} pred={pred:7.1} err={:+6.1}%  {}",
            spec.src,
            spec.dst,
            err * 100.0,
            hops.join(" ")
        );
    }
    errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = errs[errs.len() / 2];
    let p90 = errs[(errs.len() * 9 / 10).min(errs.len() - 1)];
    println!(
        "abs rel err: p50={:.1}% p90={:.1}% max={:.1}%",
        p50 * 100.0,
        p90 * 100.0,
        errs.last().unwrap() * 100.0
    );
}

//! Estimator-vs-fabric cross-validation at integration-test scale
//! (DESIGN.md §12.5): run a seeded mix through the real fabric with
//! one racing producer per source node, and check the err-estimate
//! prediction for every path lands inside its analytical envelope and
//! near the measured §11.8 per-hop attribution. The publishable
//! accuracy gates (p50 ≤ 10% at 800 packets, mean of 3 runs) live in
//! `runtime-bench --estimate`; this test keeps the same machinery
//! honest in seconds, with bounds slack enough for one short run.

use std::time::Duration;

use err_repro::estimate::{estimate, mixes, EstimatorConfig, FlowLoad};
use err_repro::fabric::{Fabric, FabricConfig, FlowSpec, Topology};

const LEN: u32 = 4;
const MAX_BACKLOG: u64 = 8;
const PACKETS: u64 = 150;

/// Measured per-path cycles: the sum of per-hop mean service deltas
/// from one fabric run under racing per-source producers.
fn fabric_path_cycles(flows: &[FlowSpec]) -> Vec<f64> {
    let mut cfg = FabricConfig::new(Topology::mesh(4, 4), flows.to_vec());
    cfg.max_backlog = MAX_BACKLOG;
    let f = Fabric::start(cfg);
    std::thread::scope(|s| {
        for src in 0..16 {
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
                for _ in 0..PACKETS {
                    for &flow in &mine {
                        f.submit(flow, LEN).expect("fabric is open");
                    }
                }
            });
        }
    });
    let rep = f.drain_within(Duration::from_secs(60));
    assert!(rep.is_conserving(), "validation run leaked packets");
    (0..flows.len())
        .map(|fl| rep.flow_hops[fl].iter().map(|h| h.mean_cycles()).sum())
        .collect()
}

fn check_mix(name: &str, flows: Vec<FlowSpec>, p50_bound: f64) {
    let topo = Topology::mesh(4, 4);
    let measured = fabric_path_cycles(&flows);
    let loads: Vec<FlowLoad> = flows
        .iter()
        .map(|&spec| FlowLoad {
            spec,
            len: LEN,
            packets: PACKETS,
        })
        .collect();
    let cfg = EstimatorConfig {
        max_backlog: MAX_BACKLOG,
        ..EstimatorConfig::default()
    };
    let est = estimate(&topo, &loads, &cfg);

    let mut errs: Vec<f64> = Vec::new();
    for (fl, p) in est.paths.iter().enumerate() {
        assert!(
            p.within_envelope(),
            "{name}: flow {fl} prediction escapes its floor/ceiling envelope"
        );
        assert!(
            measured[fl] >= p.floor_cycles as f64 - 1e-9,
            "{name}: flow {fl} measured {} under the physical floor {}",
            measured[fl],
            p.floor_cycles
        );
        errs.push(((p.cycles - measured[fl]) / measured[fl]).abs());
    }
    errs.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
    let p50 = errs[errs.len() / 2];
    // Ground truth is a live-thread measurement: debug builds serve
    // flits slowly relative to the racing producers, so queues sit
    // deeper than the release-calibrated model expects. Hold the
    // calibrated bound in release; in debug only catch gross breakage
    // (the hotspot mix measures p50 ≈ 0.6 in debug on a loaded host,
    // so ×3 sat exactly on the noise and flickered).
    let bound = if cfg!(debug_assertions) {
        p50_bound * 4.0
    } else {
        p50_bound
    };
    assert!(
        p50 <= bound,
        "{name}: p50 abs path error {p50:.3} over the {bound} integration bound"
    );
}

#[test]
fn transpose_prediction_tracks_the_fabric() {
    check_mix("transpose", mixes::transpose(4, 4), 0.20);
}

#[test]
fn seeded_hotspot_prediction_tracks_the_fabric() {
    let topo = Topology::mesh(4, 4);
    check_mix(
        "hotspot",
        mixes::hotspot_random(&topo, 5, 0x5eed_0002),
        0.20,
    );
}

#[test]
fn estimator_is_deterministic_across_calls() {
    let topo = Topology::mesh(4, 4);
    let loads: Vec<FlowLoad> = mixes::uniform_random(&topo, 0x5eed_0001)
        .into_iter()
        .map(|spec| FlowLoad {
            spec,
            len: LEN,
            packets: PACKETS,
        })
        .collect();
    let cfg = EstimatorConfig::default();
    let a = estimate(&topo, &loads, &cfg);
    let b = estimate(&topo, &loads, &cfg);
    assert_eq!(a.interval, b.interval);
    for (pa, pb) in a.paths.iter().zip(&b.paths) {
        assert_eq!(pa.cycles, pb.cycles);
        assert_eq!(pa.wormhole_cycles, pb.wormhole_cycles);
    }
}

//! Cross-validation of err-fabric against the wormhole-net simulator
//! (DESIGN.md §11.5): on a small single-VC mesh the fabric's published
//! per-path latency model must agree, cycle-exact, with what the
//! discrete simulator measures for the same paths, and a deterministic
//! fabric run must account for every flit at every hop. Under racing
//! producers on a 4×4 mesh the fabric must still conserve every packet,
//! and no flow's measured §11.8 path delay may undercut its floor.

use std::time::Duration;

use err_repro::fabric::{Fabric, FabricConfig, FlowSpec, Topology};
use err_repro::sched::Packet;
use err_repro::wormhole::{ArbiterKind, Mesh2D, Network};

const COLS: usize = 2;
const ROWS: usize = 2;

/// All ordered pairs including the diagonal (a local flow ejects
/// without crossing a cable — hops = 0 — and both models cover it).
fn all_pairs() -> Vec<FlowSpec> {
    let n = COLS * ROWS;
    let mut flows = Vec::with_capacity(n * n);
    for src in 0..n {
        for dst in 0..n {
            flows.push(FlowSpec { src, dst });
        }
    }
    flows
}

/// A packet alone in the network is the serialized workload: its
/// latency is the analytic wormhole minimum `hops + len − 1` (the head
/// pipelines one hop per cycle, the tail trails `len − 1` flit cycles
/// behind). The simulator measures it; the fabric publishes it as
/// [`PathStats::min_cycles`]. They must agree exactly for every
/// (src, dst, len) on the mesh.
///
/// [`PathStats::min_cycles`]: err_repro::fabric::PathStats
#[test]
fn serialized_per_path_latency_matches_the_simulator() {
    let flows = all_pairs();
    let fabric = Fabric::start(FabricConfig::new(Topology::mesh(COLS, ROWS), flows.clone()));
    for (flow, spec) in flows.iter().enumerate() {
        for len in [1u32, 3, 5] {
            let mut net = Network::new(Mesh2D::new(COLS, ROWS), 3, ArbiterKind::Err);
            net.inject(spec.src, &Packet::new(0, flow, len, 0), spec.dst);
            net.run(0, 10_000);
            assert!(net.is_idle(), "simulator did not drain {spec:?}");
            let delivery = &net.deliveries()[0];
            assert_eq!(delivery.node, spec.dst);
            let stats = fabric.path_stats(flow, len);
            assert_eq!(
                delivery.delivered_at, stats.min_cycles,
                "{}->{} len {len}: simulator delivered at cycle {} but the fabric \
                 models hops({}) + len - 1 = {}",
                spec.src, spec.dst, delivery.delivered_at, stats.hops, stats.min_cycles,
            );
        }
    }
    let rep = fabric.drain_within(Duration::from_secs(20));
    assert!(rep.is_conserving());
}

/// A deterministic workload on the same mesh, and on a 4×4 mesh under
/// the uniform mix (every ordered pair of distinct nodes) and the
/// transpose mix `(x, y) → (y, x)`: with blocking submits and no faults
/// nothing can drop, dead-letter, or reroute, so the drain is graceful,
/// the ledger is flit-exact per flow and each node's scheduler serves
/// exactly the flits of the flows whose XY path crosses it.
#[test]
fn deterministic_run_accounts_for_every_flit_at_every_hop() {
    const LEN: u32 = 4;
    const SIDE: usize = 4;
    let uniform: Vec<FlowSpec> = (0..SIDE * SIDE)
        .flat_map(|src| (0..SIDE * SIDE).map(move |dst| FlowSpec { src, dst }))
        .filter(|spec| spec.src != spec.dst)
        .collect();
    let transpose: Vec<FlowSpec> = (0..SIDE * SIDE)
        .map(|src| FlowSpec {
            src,
            dst: (src % SIDE) * SIDE + src / SIDE,
        })
        .filter(|spec| spec.src != spec.dst)
        .collect();
    let mixes = [
        (Topology::mesh(COLS, ROWS), all_pairs(), 25u64),
        (Topology::mesh(SIDE, SIDE), uniform, 5),
        (Topology::mesh(SIDE, SIDE), transpose, 40),
    ];
    for (topo, flows, packets) in mixes {
        // Per-node expected service: every node on a flow's path
        // (source through destination inclusive) serves each of its
        // flits once.
        let mut expected_served = vec![0u64; topo.n_nodes()];
        for (flow, &spec) in flows.iter().enumerate() {
            for node in topo.path(flow, spec) {
                expected_served[node] += packets * u64::from(LEN);
            }
        }
        let fabric = Fabric::start(FabricConfig::new(topo, flows.clone()));
        for _ in 0..packets {
            for flow in 0..flows.len() {
                fabric.submit(flow, LEN).expect("fabric is open");
            }
        }
        let rep = fabric.drain_within(Duration::from_secs(20));
        assert!(!rep.forced, "graceful drain expected");
        assert!(rep.is_conserving());
        assert_eq!(rep.lost_packets, 0);
        for (flow, snap) in rep.flows.iter().enumerate() {
            assert_eq!(snap.submitted, packets, "flow {flow}");
            assert_eq!(snap.ejected_packets, packets, "flow {flow}");
            assert_eq!(
                snap.ejected_flits,
                packets * u64::from(LEN),
                "flow {flow} lost flits in transit"
            );
            assert_eq!(snap.dropped, 0, "flow {flow}");
            assert_eq!(snap.dead_lettered, 0, "flow {flow}");
            assert_eq!(snap.rerouted, 0, "no faults, no reroutes (flow {flow})");
        }
        for (node, rep) in rep.node_reports.iter().enumerate() {
            assert_eq!(
                rep.stats.served_flits(),
                expected_served[node],
                "node {node} served a different flit count than its path membership"
            );
        }
    }
}

/// One racing producer per source node on a 4×4 mesh with a shallow
/// backlog cap, so refusals and parked flows are the common case: the
/// drain must conserve every packet, and each flow's measured path
/// delay (the sum of its §11.8 per-hop mean cycles) must be at least
/// the fabric's own floor, [`PathStats::min_cycles`]. Two mixes:
/// transpose `(x, y) → (y, x)`, and every other node converging on
/// node 5.
///
/// [`PathStats::min_cycles`]: err_repro::fabric::PathStats
#[test]
fn racing_mesh_conserves_and_no_path_undercuts_its_floor() {
    const SIDE: usize = 4;
    const LEN: u32 = 4;
    const PACKETS: u64 = 150;
    const HOT: usize = 5;
    let transpose: Vec<FlowSpec> = (0..SIDE * SIDE)
        .map(|src| FlowSpec {
            src,
            dst: (src % SIDE) * SIDE + src / SIDE,
        })
        .filter(|spec| spec.src != spec.dst)
        .collect();
    let convergecast: Vec<FlowSpec> = (0..SIDE * SIDE)
        .filter(|&src| src != HOT)
        .map(|src| FlowSpec { src, dst: HOT })
        .collect();
    for (mix, flows) in [("transpose", transpose), ("convergecast", convergecast)] {
        let mut cfg = FabricConfig::new(Topology::mesh(SIDE, SIDE), flows.clone());
        cfg.max_backlog = 8;
        let fabric = Fabric::start(cfg);
        // The floor depends only on the route; read it before the drain
        // consumes the fabric.
        let floors: Vec<u64> = (0..flows.len())
            .map(|flow| fabric.path_stats(flow, LEN).min_cycles)
            .collect();
        std::thread::scope(|s| {
            for src in 0..SIDE * SIDE {
                let mine: Vec<usize> = (0..flows.len())
                    .filter(|&flow| flows[flow].src == src)
                    .collect();
                let fabric = &fabric;
                s.spawn(move || {
                    for _ in 0..PACKETS {
                        for &flow in &mine {
                            fabric.submit(flow, LEN).expect("fabric is open");
                        }
                    }
                });
            }
        });
        let rep = fabric.drain_within(Duration::from_secs(60));
        assert!(rep.is_conserving(), "{mix}: racing run leaked packets");
        for (flow, &floor) in floors.iter().enumerate() {
            let measured: f64 = rep.flow_hops[flow].iter().map(|h| h.mean_cycles()).sum();
            assert!(
                measured >= floor as f64,
                "{mix}: flow {flow} ({:?}) measured {measured:.2} cycles under its floor {floor}",
                flows[flow]
            );
        }
    }
}

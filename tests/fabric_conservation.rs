//! Property: the fabric ledger conserves end-to-end under random
//! topologies, routing functions, and seeded egress stalls
//! (DESIGN.md §11.3).
//!
//! For random mesh shapes and fat-tree arities crossed with random
//! flow sets, credit pools, and seeded `FaultPlan` freezes, every packet
//! the fabric accepts must reach exactly one terminal outcome. With
//! no kill faults and no dead-link watchdog, stalls can only delay —
//! so the identity sharpens to `submitted == ejected`, flit-exact per
//! flow. A forwarder or drain path that leaks even one flit across a
//! hop fails here.

use std::time::Duration;

use desim::SimRng;
use err_repro::fabric::{Fabric, FabricConfig, FaultKind, FaultPlan, FlowSpec, Topology};
use proptest::prelude::*;

/// Small shapes only: each case boots one runtime (two threads) per
/// node, so a 3×3 mesh is already 27 threads.
const MESH_SHAPES: [(usize, usize); 6] = [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (3, 3)];

fn build_topology(pick: u8) -> Topology {
    match pick {
        0..=5 => {
            let (cols, rows) = MESH_SHAPES[pick as usize];
            Topology::mesh(cols, rows)
        }
        6 => Topology::fat_tree(2),
        _ => Topology::fat_tree(4),
    }
}

proptest! {
    // Each case boots a whole multi-node fabric; keep the count modest.
    #![proptest_config(ProptestConfig { cases: 12 })]

    #[test]
    fn ledger_conserves_across_random_fabrics(
        seed in 0..u64::MAX,
        topo_pick in 0..8u8,
        n_flows in 2..=6usize,
        packets in 8..32u64,
    ) {
        let topo = build_topology(topo_pick);
        // Fat-tree core switches are transit-only; sources and sinks
        // must be endpoints (every mesh node qualifies).
        let endpoints: Vec<usize> =
            (0..topo.n_nodes()).filter(|&n| topo.is_endpoint(n)).collect();
        let mut rng = SimRng::new(seed);
        let flows: Vec<FlowSpec> = (0..n_flows)
            .map(|_| FlowSpec {
                src: endpoints[rng.index(endpoints.len())],
                dst: endpoints[rng.index(endpoints.len())],
            })
            .collect();

        // Seeded stalls on one or two random nodes, any link including
        // eject. Durations are bounded, but a stall window expires on
        // the fabric's ejection clock — a stall that parks the traffic
        // freezes the very clock that would thaw it, so only the drain,
        // which lets frozen links through, restores liveness; the
        // property under test is the ledger, not stall self-expiry.
        let n_stalled = 1 + rng.index(2.min(topo.n_nodes()));
        let mut stalled_nodes = Vec::new();
        while stalled_nodes.len() < n_stalled {
            let node = rng.index(topo.n_nodes());
            if !stalled_nodes.contains(&node) {
                stalled_nodes.push(node);
            }
        }
        let horizon = packets * n_flows as u64 * 4;
        let mut cfg = FabricConfig::new(topo, flows.clone());
        let plan = FaultPlan::from_rng(&rng.derive(0xFAB0), &cfg.shape(), 1.0 / 64.0, horizon);
        cfg.fault_plan = Some(plan.retain(|e| {
            matches!(e.kind, FaultKind::Freeze { .. }) && stalled_nodes.contains(&e.target.node)
        }));
        cfg.credits = 4 + rng.index(12) as u64;
        cfg.max_backlog = 8 + rng.index(56) as u64;
        let fabric = Fabric::start(cfg);

        // Bounded submits: a stalled source sheds backpressure as
        // refusals, so give each packet a few retries and then move on
        // — an unsubmitted packet is simply absent from the ledger.
        let mut submitted_packets = vec![0u64; n_flows];
        let mut submitted_flits = vec![0u64; n_flows];
        let mut rng = rng.derive(0xC0DE);
        for _ in 0..packets {
            for flow in 0..n_flows {
                let len = 1 + rng.uniform_u32(0, 5);
                for attempt in 0..50 {
                    if fabric.try_submit(flow, len).is_ok() {
                        submitted_packets[flow] += 1;
                        submitted_flits[flow] += u64::from(len);
                        break;
                    }
                    if attempt % 10 == 9 {
                        std::thread::sleep(Duration::from_micros(500));
                    }
                }
            }
        }

        let rep = fabric.drain_within(Duration::from_secs(20));
        prop_assert!(!rep.forced, "graceful drain expected");
        prop_assert!(rep.is_conserving(), "ledger out of balance");
        prop_assert_eq!(rep.lost_packets, 0);
        for (flow, snap) in rep.flows.iter().enumerate() {
            // No kills and no dead-link watchdog: stalls delay, they
            // never drop, dead-letter, or reroute.
            prop_assert_eq!(snap.submitted, submitted_packets[flow], "flow {}", flow);
            prop_assert_eq!(snap.ejected_packets, submitted_packets[flow], "flow {}", flow);
            prop_assert_eq!(snap.ejected_flits, submitted_flits[flow], "flow {}", flow);
            prop_assert_eq!(snap.dropped, 0, "flow {}", flow);
            prop_assert_eq!(snap.dead_lettered, 0, "flow {}", flow);
            prop_assert_eq!(snap.rerouted, 0, "flow {}", flow);
        }
    }
}

//! Estimator integration properties: decomposition conservation under
//! randomized meshes and flow sets (proptest), and cross-validation of
//! the composed lone-flow prediction against the independent
//! `wormhole-net` flit-level simulator — two codebases, one number.

use std::collections::HashMap;

use err_estimate::{decompose, estimate, EstimatorConfig, FlowLoad};
use err_fabric::{FlowSpec, Topology};
use err_sched::Packet;
use proptest::prelude::*;
use wormhole_net::{ArbiterKind, Mesh2D, MeshNetwork};

/// (len, packets) of one flow's placement on one link end.
type PlacedLoad = (u32, u64);

proptest! {
    /// Decomposition conserves flow placements exactly: every flow
    /// appears on precisely the `(node, link)` ends `links_on_path`
    /// names for its route, once each, with its length and packet
    /// count intact — and on no other link.
    #[test]
    fn decomposition_conserves_flow_placements(
        cols in 2usize..6,
        rows in 1usize..6,
        seed in 0u64..u64::MAX,
        n_flows in 1usize..12,
        len in 1u32..9,
        packets in 1u64..500,
    ) {
        let topo = Topology::mesh(cols, rows);
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize
        };
        let loads: Vec<FlowLoad> = (0..n_flows)
            .map(|fl| {
                let src = next() % topo.n_nodes();
                let mut dst = src;
                while dst == src {
                    dst = next() % topo.n_nodes();
                }
                FlowLoad {
                    spec: FlowSpec { src, dst },
                    len,
                    // Distinct per flow, so a placement that swapped
                    // two flows' loads would show.
                    packets: packets + fl as u64,
                }
            })
            .collect();

        let links = decompose(&topo, &loads);

        // Index the decomposition: (node, link) -> flow -> load.
        let mut placed: HashMap<(usize, usize), HashMap<usize, PlacedLoad>> = HashMap::new();
        let mut total_placements = 0usize;
        for link in &links {
            prop_assert!(!link.flows.is_empty(), "empty link survived decomposition");
            let entry = placed.entry((link.node, link.link)).or_default();
            for f in &link.flows {
                prop_assert!(
                    entry.insert(f.flow, (f.len, f.packets)).is_none(),
                    "flow {} placed twice on node {} link {}",
                    f.flow, link.node, link.link,
                );
                total_placements += 1;
            }
        }

        // Every flow sits on exactly the links of its route...
        let mut expected = 0usize;
        for (fl, load) in loads.iter().enumerate() {
            for (node, out) in topo.links_on_path(fl, load.spec) {
                let on_link = placed
                    .get(&(node, out))
                    .and_then(|m| m.get(&fl))
                    .copied();
                prop_assert_eq!(
                    on_link,
                    Some((load.len, load.packets)),
                    "flow {} missing or mangled on node {} link {}",
                    fl, node, out,
                );
                expected += 1;
            }
        }
        // ...and nowhere else.
        prop_assert_eq!(total_placements, expected);
    }
}

/// A lone flow's composed estimate is cycle-exact against the
/// independent `wormhole-net` flit simulator: with no contention both
/// must produce the pure pipeline transit `hops + len - 1`, where hops
/// counts every switch traversal including ejection. The two
/// implementations share no code — err-fabric's service-clock fabric
/// and wormhole-net's staged-link mesh were built in different PRs —
/// so agreement here pins the estimator's floor to physical cycles.
#[test]
fn lone_flow_estimate_matches_wormhole_net_exactly() {
    for (cols, rows, src, dst, len) in [
        (4usize, 1usize, 0usize, 3usize, 4u32),
        (4, 4, 0, 15, 4),
        (4, 4, 5, 6, 1),
        (2, 3, 4, 1, 7),
    ] {
        let topo = Topology::mesh(cols, rows);
        let spec = FlowSpec { src, dst };
        let loads = vec![FlowLoad {
            spec,
            len,
            packets: 50,
        }];
        let est = estimate(&topo, &loads, &EstimatorConfig::default());
        let hops = est.paths[0].hops;

        // Independent ground truth: one packet through wormhole-net.
        let mesh = Mesh2D::new(cols, rows);
        let mut net = MeshNetwork::new(mesh, 4, ArbiterKind::Err);
        net.inject(src, &Packet::new(0, 0, len, 0), dst);
        net.run(0, 100_000);
        assert!(net.is_idle(), "lone packet failed to drain");
        let d = net.deliveries()[0];
        let measured = d.delivered_at - d.injected_at;

        assert_eq!(
            est.paths[0].wormhole_cycles, measured as f64,
            "{cols}x{rows} {src}->{dst} len {len}: estimator wormhole \
             projection disagrees with wormhole-net"
        );
        assert_eq!(est.paths[0].floor_cycles, hops as u64 + u64::from(len) - 1);
        assert_eq!(measured, hops as u64 + u64::from(len) - 1);
    }
}

/// The composed store-and-forward estimate for a lone flow is exactly
/// `(hops + 1) * len`: every contention domain on the route (source
/// included, so one more than the inter-node hop count) serves the
/// packet at line rate with no queueing, and composition adds nothing.
#[test]
fn lone_flow_store_and_forward_is_line_rate_at_every_domain() {
    let topo = Topology::mesh(4, 4);
    let loads = vec![FlowLoad {
        spec: FlowSpec { src: 0, dst: 15 },
        len: 4,
        packets: 50,
    }];
    let est = estimate(&topo, &loads, &EstimatorConfig::default());
    let p = &est.paths[0];
    assert_eq!(p.per_hop.len(), p.hops + 1);
    assert_eq!(p.cycles, (p.hops + 1) as f64 * 4.0);
    assert!(p.within_envelope());
}

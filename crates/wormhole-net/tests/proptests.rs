//! Property-based tests over the wormhole substrate: conservation,
//! drain (no deadlock), ordering, and occupancy invariants on random
//! topologies, traffic, and configurations.

use err_sched::Packet;
use proptest::prelude::*;
use wormhole_net::{
    ArbiterKind, LinkSched, Mesh2D, Network, PerfectSink, Sink, Torus2D, VcSwitch, WormholeSwitch,
};

fn arb_kind() -> impl Strategy<Value = ArbiterKind> {
    prop_oneof![
        Just(ArbiterKind::Err),
        Just(ArbiterKind::Rr),
        Just(ArbiterKind::Fcfs),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any mesh, any traffic, any arbiter: everything injected is
    /// delivered, and the network drains (no deadlock/livelock).
    #[test]
    fn mesh_conserves_and_drains(
        cols in 2usize..5,
        rows in 1usize..4,
        capacity in 2usize..6,
        kind in arb_kind(),
        traffic in prop::collection::vec((0usize..20, 0usize..20, 1u32..12), 1..60),
    ) {
        let mesh = Mesh2D::new(cols, rows);
        let n = mesh.n_nodes();
        let mut net = Network::new(mesh, capacity, kind);
        let mut id = 0u64;
        let mut expect = 0usize;
        for &(src, dest, len) in &traffic {
            let (src, dest) = (src % n, dest % n);
            if src == dest {
                continue;
            }
            net.inject(src, &Packet::new(id, src, len, 0), dest);
            id += 1;
            expect += 1;
        }
        let injected = net.injected_flits();
        net.run(0, 3_000_000);
        prop_assert!(net.is_idle(), "{kind:?} {cols}x{rows} cap {capacity}: stuck");
        prop_assert_eq!(net.delivered_flits(), injected);
        prop_assert_eq!(net.deliveries().len(), expect);
        prop_assert_eq!(net.in_flight_flits(), 0);
    }

    /// Any torus, any traffic, any arbiter: the dateline scheme keeps
    /// the network deadlock-free and every flit is delivered.
    #[test]
    fn torus_conserves_and_drains(
        cols in 2usize..5,
        rows in 2usize..4,
        capacity in 1usize..5,
        kind in arb_kind(),
        traffic in prop::collection::vec((0usize..20, 0usize..20, 1u32..10), 1..50),
    ) {
        let torus = Torus2D::new(cols, rows);
        let n = torus.n_nodes();
        let mut net = Network::new(torus, capacity, kind);
        let mut id = 0u64;
        let mut expect = 0usize;
        for &(src, dest, len) in &traffic {
            let (src, dest) = (src % n, dest % n);
            if src == dest {
                continue;
            }
            net.inject(src, &Packet::new(id, src, len, 0), dest);
            id += 1;
            expect += 1;
        }
        let injected = net.injected_flits();
        net.run(0, 3_000_000);
        prop_assert!(net.is_idle(), "{kind:?} {cols}x{rows} cap {capacity}: torus stuck");
        prop_assert_eq!(net.delivered_flits(), injected);
        prop_assert_eq!(net.deliveries().len(), expect);
    }

    /// Per (src, dest) pair, packets arrive in injection order under any
    /// arbiter (single path + wormhole ordering).
    #[test]
    fn mesh_pairwise_order(
        kind in arb_kind(),
        lens in prop::collection::vec(1u32..10, 2..20),
    ) {
        let mesh = Mesh2D::new(4, 2);
        let mut net = Network::new(mesh, 3, kind);
        for (k, &len) in lens.iter().enumerate() {
            net.inject(0, &Packet::new(k as u64, 0, len, 0), 7);
        }
        net.run(0, 1_000_000);
        prop_assert!(net.is_idle());
        let order: Vec<u64> = net.deliveries().iter().map(|d| d.packet).collect();
        let expect: Vec<u64> = (0..lens.len() as u64).collect();
        prop_assert_eq!(order, expect);
    }

    /// Single switch: occupancy >= length for every packet, and the
    /// per-queue flit counts add up.
    #[test]
    fn switch_occupancy_and_accounting(
        kind in arb_kind(),
        traffic in prop::collection::vec((0usize..3, 1u32..16), 1..40),
    ) {
        let sink: Box<dyn Sink> = Box::new(PerfectSink::new());
        let mut sw = WormholeSwitch::new(3, vec![kind.build(3)], vec![sink]);
        let mut per_queue = [0u64; 3];
        for (k, &(q, len)) in traffic.iter().enumerate() {
            sw.inject(q, &Packet::new(k as u64, q, len, 0), 0);
            per_queue[q] += len as u64;
        }
        sw.run_until_idle(0, 200_000);
        prop_assert!(sw.is_idle());
        for (q, &expect) in per_queue.iter().enumerate() {
            prop_assert_eq!(sw.served_flits()[q], expect);
        }
        for rec in sw.occupancy_log() {
            prop_assert!(rec.held >= rec.len as u64,
                "packet {} held {} < len {}", rec.packet, rec.held, rec.len);
        }
        prop_assert_eq!(sw.occupancy_log().len(), traffic.len());
    }

    /// VC switch: conservation and per-VC FIFO order under random
    /// configurations and both link schedulers.
    #[test]
    fn vc_switch_conserves_and_orders(
        n_vcs in 1usize..4,
        oq_cap in 1usize..6,
        kind in arb_kind(),
        link_err in any::<bool>(),
        traffic in prop::collection::vec((0usize..2, 0usize..4, 1u32..10), 1..50),
    ) {
        let link = if link_err { LinkSched::Err } else { LinkSched::FlitRr };
        let mut sw = VcSwitch::new(2, n_vcs, kind, link, oq_cap);
        let mut total = 0u64;
        let mut count = 0usize;
        for (k, &(port, vc, len)) in traffic.iter().enumerate() {
            let vc = vc % n_vcs;
            sw.inject(port, vc, &Packet::new(k as u64, port, len, 0));
            total += len as u64;
            count += 1;
        }
        sw.run_until_idle(0, 500_000);
        prop_assert!(sw.is_idle(), "vc switch stuck ({n_vcs} vcs, cap {oq_cap}, {link:?})");
        prop_assert_eq!(sw.delivered_flits(), total);
        prop_assert_eq!(sw.deliveries().len(), count);
        // Per (port, vc) stream, packet ids depart in order.
        for port in 0..2usize {
            for vc in 0..n_vcs {
                let ids: Vec<u64> = sw
                    .deliveries()
                    .iter()
                    .filter(|d| d.vc == vc && d.input == port)
                    .map(|d| d.packet)
                    .collect();
                let mut sorted = ids.clone();
                sorted.sort_unstable();
                prop_assert_eq!(ids, sorted, "port {} vc {} out of order", port, vc);
            }
        }
    }
}

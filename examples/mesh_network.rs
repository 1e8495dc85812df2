//! A 4×4 wormhole mesh: XY routing, credit flow control, and the effect
//! of output arbitration on end-to-end latency under a hotspot.
//!
//! Run with: `cargo run --example mesh_network`

use err_repro::desim::SimRng;
use err_repro::sched::Packet;
use err_repro::wormhole::{ArbiterKind, Mesh2D, Network};

fn run(kind: ArbiterKind, seed: u64) -> (f64, f64, usize, u64) {
    let mesh = Mesh2D::new(4, 4);
    let mut net = Network::new(mesh, 4, kind);
    let mut rng = SimRng::new(seed);
    let hotspot = mesh.node(1, 1);
    let mut id = 0;
    // Mixed workload: 40% of packets target the hotspot, the rest are
    // uniform; lengths 2-16 flits.
    for src in 0..mesh.n_nodes() {
        for _ in 0..80 {
            let dest = if rng.bernoulli(0.4) {
                hotspot
            } else {
                rng.index(mesh.n_nodes())
            };
            if dest == src {
                continue;
            }
            net.inject(
                src,
                &Packet::new(id, src, 2 + rng.uniform_u32(0, 14), 0),
                dest,
            );
            id += 1;
        }
    }
    let end = net.run(0, 5_000_000);
    assert!(net.is_idle(), "mesh did not drain");
    let lat = net.latency();
    (
        lat.mean(),
        lat.max().unwrap_or(0.0),
        net.deliveries().len(),
        end,
    )
}

fn main() {
    println!("4x4 wormhole mesh, XY routing, 4-flit input buffers, hotspot at (1,1).\n");
    println!(
        "{:<8} {:>16} {:>14} {:>12} {:>12}",
        "arbiter", "mean latency", "max latency", "delivered", "drain cycle"
    );
    for kind in [ArbiterKind::Err, ArbiterKind::Rr, ArbiterKind::Fcfs] {
        let mut mean = 0.0;
        let mut max: f64 = 0.0;
        let mut delivered = 0;
        let mut drain = 0;
        const SEEDS: u64 = 3;
        for seed in 1..=SEEDS {
            let (m, mx, d, e) = run(kind, seed);
            mean += m / SEEDS as f64;
            max = max.max(mx);
            delivered += d;
            drain = drain.max(e);
        }
        println!(
            "{:<8} {:>10.1} cyc {:>10.0} cyc {:>12} {:>12}",
            format!("{kind:?}"),
            mean,
            max,
            delivered,
            drain
        );
    }
    println!(
        "\nEvery arbiter drains the same traffic (wormhole + XY is deadlock-free);\n\
         the interesting part is *who waits*: ERR keeps port time fair per input\n\
         under back-pressure, where a blocked long packet would otherwise hold\n\
         shared links while cheaper traffic starves."
    );
}

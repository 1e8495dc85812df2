//! Torus vs mesh, and why the dateline virtual channel exists.
//!
//! A 6×6 torus halves worst-case distances relative to a mesh — but its
//! wrap-around links close a channel-dependency cycle that deadlocks
//! naive wormhole routing. The dateline scheme (packets switch to VC 1
//! when they cross a dimension's wrap link) breaks the cycle; this
//! example measures the latency win and then demonstrates the deadlock
//! by switching the dateline off.
//!
//! Run with: `cargo run --release --example torus_network`

use err_repro::desim::SimRng;
use err_repro::sched::Packet;
use err_repro::wormhole::{ArbiterKind, Mesh2D, Network, Torus2D};

fn main() {
    // Uniform random traffic on 6x6.
    let (cols, rows) = (6usize, 6usize);
    let mut rng = SimRng::new(42);
    let mut pairs = Vec::new();
    for src in 0..cols * rows {
        for _ in 0..20 {
            let dest = rng.index(cols * rows);
            if dest != src {
                pairs.push((src, dest, 2 + rng.uniform_u32(0, 10)));
            }
        }
    }

    let tm = Torus2D::new(cols, rows);
    let mut torus = Network::new(tm, 4, ArbiterKind::Err);
    let mm = Mesh2D::new(cols, rows);
    let mut mesh = Network::new(mm, 4, ArbiterKind::Err);
    for (k, &(s, d, len)) in pairs.iter().enumerate() {
        torus.inject(s, &Packet::new(k as u64, s, len, 0), d);
        mesh.inject(s, &Packet::new(k as u64, s, len, 0), d);
    }
    torus.run(0, 5_000_000);
    mesh.run(0, 5_000_000);
    assert!(torus.is_idle() && mesh.is_idle());

    println!(
        "6x6, uniform random traffic, {} packets, ERR arbitration:\n",
        pairs.len()
    );
    println!(
        "  mesh : mean latency {:>7.1} cycles ({} delivered)",
        mesh.latency().mean(),
        mesh.deliveries().len()
    );
    println!(
        "  torus: mean latency {:>7.1} cycles ({} delivered)  <- wrap links halve distances",
        torus.latency().mean(),
        torus.deliveries().len()
    );

    // The deadlock demo: same ring-pressure traffic, dateline on vs off.
    let t = Torus2D::new(6, 2);
    let build = |dateline: bool| {
        let mut net = Network::new(t, 1, ArbiterKind::Rr);
        if !dateline {
            net.disable_dateline_for_ablation();
        }
        let mut id = 0;
        for x in 0..6usize {
            for _ in 0..6 {
                net.inject(
                    t.node(x, 0),
                    &Packet::new(id, x, 6, 0),
                    t.node((x + 3) % 6, 0),
                );
                id += 1;
            }
        }
        net
    };
    let mut with = build(true);
    with.run(0, 200_000);
    let mut without = build(false);
    without.run(0, 200_000);
    println!("\nring-pressure workload (36 packets around one ring, 1-flit buffers):");
    println!(
        "  dateline ON : drained = {:5}, delivered {} / 36",
        with.is_idle(),
        with.deliveries().len()
    );
    println!(
        "  dateline OFF: drained = {:5}, delivered {} / 36   <- wormhole deadlock",
        without.is_idle(),
        without.deliveries().len()
    );
}

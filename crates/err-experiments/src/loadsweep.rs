//! Extension: the load–latency saturation sweep.
//!
//! The canonical interconnection-network figure: offered load (flits
//! per node per cycle, uniform traffic) on the x-axis, mean packet
//! latency on the y — flat at low load, a knee near saturation, then a
//! blow-up. The torus, with twice the mesh's bisection bandwidth,
//! saturates at a visibly higher load. Injection is open-loop (source
//! queues grow without bound past saturation), so *accepted* throughput
//! is reported alongside: below saturation it tracks the offered load;
//! past it, it flattens at the network's capacity.

use desim::SimRng;
use err_sched::Packet;
use traffic_gen::TrafficPattern;
use wormhole_net::{ArbiterKind, Mesh2D, Network, Torus2D};

use crate::report::{fnum, Table};
use crate::runner::parallel_sweep;

/// Configuration for the load sweep.
#[derive(Clone, Debug)]
pub struct LoadSweepConfig {
    /// Grid side.
    pub side: usize,
    /// Offered loads to sweep (flits per node per cycle).
    pub loads: Vec<f64>,
    /// Injection horizon (cycles).
    pub horizon: u64,
    /// Packet length (flits).
    pub len: u32,
    /// Master seed.
    pub seed: u64,
}

impl Default for LoadSweepConfig {
    fn default() -> Self {
        Self {
            side: 6,
            loads: vec![0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50],
            horizon: 30_000,
            len: 4,
            seed: 51,
        }
    }
}

/// One measured point.
pub struct LoadPoint {
    /// Offered load (flits/node/cycle).
    pub offered: f64,
    /// Mesh mean latency over delivered packets (cycles).
    pub mesh_latency: f64,
    /// Mesh accepted throughput (flits/node/cycle).
    pub mesh_accepted: f64,
    /// Torus mean latency (cycles).
    pub torus_latency: f64,
    /// Torus accepted throughput (flits/node/cycle).
    pub torus_accepted: f64,
}

/// The sweep result.
pub struct LoadSweepResult {
    /// One point per offered load.
    pub points: Vec<LoadPoint>,
}

/// Open-loop drive for `horizon` cycles (no drain — saturation is the
/// point). Returns (mean latency of delivered packets, accepted flits).
fn drive(net: &mut Network, load: f64, cfg: &LoadSweepConfig) -> (f64, u64) {
    let side = cfg.side;
    let n_nodes = side * side;
    let rate = load / cfg.len as f64; // packets per node per cycle
    let root = SimRng::new(cfg.seed);
    let mut rngs: Vec<SimRng> = (0..n_nodes).map(|i| root.derive(i as u64)).collect();
    let mut id = 0u64;
    for now in 0..cfg.horizon {
        for (src, rng) in rngs.iter_mut().enumerate() {
            if rng.bernoulli(rate) {
                let dest = TrafficPattern::Uniform.dest(src, side, side, rng);
                net.inject(src, &Packet::new(id, src, cfg.len, now), dest);
                id += 1;
            }
        }
        net.step(now);
    }
    (net.latency().mean(), net.delivered_flits())
}

/// Runs the sweep.
pub fn run(cfg: &LoadSweepConfig) -> LoadSweepResult {
    let jobs: Vec<_> = cfg
        .loads
        .iter()
        .map(|&load| {
            let cfg = cfg.clone();
            move || {
                let n_nodes = (cfg.side * cfg.side) as f64;
                let norm = n_nodes * cfg.horizon as f64;
                let mut mesh = Network::new(Mesh2D::new(cfg.side, cfg.side), 4, ArbiterKind::Err);
                let (mesh_latency, mesh_flits) = drive(&mut mesh, load, &cfg);
                let mut torus = Network::new(Torus2D::new(cfg.side, cfg.side), 4, ArbiterKind::Err);
                let (torus_latency, torus_flits) = drive(&mut torus, load, &cfg);
                LoadPoint {
                    offered: load,
                    mesh_latency,
                    mesh_accepted: mesh_flits as f64 / norm,
                    torus_latency,
                    torus_accepted: torus_flits as f64 / norm,
                }
            }
        })
        .collect();
    LoadSweepResult {
        points: parallel_sweep(jobs, 8),
    }
}

/// Renders the sweep table.
pub fn table(r: &LoadSweepResult) -> Table {
    let mut t = Table::new(
        "Load sweep — uniform traffic, 6x6, ERR arbitration (open loop)",
        &[
            "offered (flits/node/cyc)",
            "mesh latency",
            "mesh accepted",
            "torus latency",
            "torus accepted",
        ],
    );
    for p in &r.points {
        t.row(vec![
            format!("{:.2}", p.offered),
            fnum(p.mesh_latency),
            format!("{:.3}", p.mesh_accepted),
            fnum(p.torus_latency),
            format!("{:.3}", p.torus_accepted),
        ]);
    }
    t
}

/// Checks the canonical curve shapes (empty = ok).
pub fn check_shapes(r: &LoadSweepResult) -> Vec<String> {
    let mut fails = Vec::new();
    let first = &r.points[0];
    let last = r.points.last().expect("points");
    // At the lightest load both networks accept ~everything.
    for (label, acc) in [
        ("mesh", first.mesh_accepted),
        ("torus", first.torus_accepted),
    ] {
        if acc < first.offered * 0.85 {
            fails.push(format!(
                "{label}: accepted {acc:.3} far below offered {:.3} at light load",
                first.offered
            ));
        }
    }
    // Latency grows with load on both.
    if last.mesh_latency <= first.mesh_latency * 1.5 {
        fails.push(format!(
            "mesh latency barely grew: {:.1} -> {:.1}",
            first.mesh_latency, last.mesh_latency
        ));
    }
    if last.torus_latency <= first.torus_latency * 1.2 {
        fails.push(format!(
            "torus latency barely grew: {:.1} -> {:.1}",
            first.torus_latency, last.torus_latency
        ));
    }
    // Past the mesh's saturation the torus accepts more and is faster.
    if last.torus_accepted <= last.mesh_accepted {
        fails.push(format!(
            "at offered {:.2}: torus accepted {:.3} not above mesh {:.3}",
            last.offered, last.torus_accepted, last.mesh_accepted
        ));
    }
    if last.torus_latency >= last.mesh_latency {
        fails.push(format!(
            "at offered {:.2}: torus latency {:.0} not below mesh {:.0}",
            last.offered, last.torus_latency, last.mesh_latency
        ));
    }
    // Mesh saturates within the sweep: accepted stops tracking offered.
    if last.mesh_accepted > last.offered * 0.95 {
        fails.push(format!(
            "mesh did not saturate by offered {:.2} (accepted {:.3})",
            last.offered, last.mesh_accepted
        ));
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_load_sweep_shapes() {
        let cfg = LoadSweepConfig {
            side: 6,
            loads: vec![0.05, 0.25, 0.50],
            horizon: 10_000,
            len: 4,
            seed: 3,
        };
        let r = run(&cfg);
        let fails = check_shapes(&r);
        assert!(fails.is_empty(), "{fails:#?}");
    }

    #[test]
    fn table_rows_match_loads() {
        let cfg = LoadSweepConfig {
            side: 4,
            loads: vec![0.1, 0.3],
            horizon: 3_000,
            len: 4,
            seed: 1,
        };
        assert_eq!(table(&run(&cfg)).n_rows(), 2);
    }
}

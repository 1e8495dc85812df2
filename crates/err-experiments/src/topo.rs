//! Extension: topology × traffic-pattern study (mesh vs torus).
//!
//! The interconnection-network evaluation the paper's domain expects:
//! drive the 6×6 mesh and the 6×6 dateline-VC torus with the standard
//! synthetic patterns (uniform, transpose, bit-complement, tornado,
//! hotspot, neighbor) at a fixed moderate injection rate, with ERR
//! output arbitration everywhere, and compare end-to-end latency.
//! Wrap-around links pay off exactly where theory says they should
//! (bit-complement halves its distances) and buy nothing where they
//! shouldn't: tornado — *designed* as the torus's adversarial pattern —
//! leaves distances equal while piling all traffic into one ring
//! direction, erasing the torus's edge.

use desim::{Cycle, SimRng};
use err_sched::Packet;
use traffic_gen::TrafficPattern;
use wormhole_net::{ArbiterKind, Mesh2D, Network, Torus2D};

use crate::report::{fnum, Table};
use crate::runner::parallel_sweep;

/// Configuration for the topology study.
#[derive(Clone, Debug)]
pub struct TopoConfig {
    /// Grid side (cols = rows).
    pub side: usize,
    /// Injection horizon in cycles.
    pub horizon: u64,
    /// Packet injection probability per node per cycle.
    pub rate: f64,
    /// Packet length in flits.
    pub len: u32,
    /// Master seed.
    pub seed: u64,
}

impl Default for TopoConfig {
    fn default() -> Self {
        Self {
            side: 6,
            horizon: 50_000,
            rate: 0.02,
            len: 4,
            seed: 37,
        }
    }
}

/// One measured cell of the study.
pub struct TopoRow {
    /// Pattern label.
    pub pattern: &'static str,
    /// Mean latency on the mesh (cycles).
    pub mesh_mean: f64,
    /// Mean latency on the torus (cycles).
    pub torus_mean: f64,
    /// Packets delivered (identical traffic on both topologies).
    pub delivered: usize,
}

/// The study result.
pub struct TopoResult {
    /// One row per pattern.
    pub rows: Vec<TopoRow>,
}

/// The patterns swept.
pub fn patterns(side: usize) -> Vec<TrafficPattern> {
    vec![
        TrafficPattern::Uniform,
        TrafficPattern::Transpose,
        TrafficPattern::BitComplement,
        TrafficPattern::Tornado,
        TrafficPattern::Hotspot {
            node: side + 1, // (1, 1)
            fraction: 0.3,
        },
        TrafficPattern::Neighbor,
    ]
}

/// Drives one (topology, pattern) cell with open-loop timed injection.
fn run_cell(mut net: Network, pattern: TrafficPattern, cfg: &TopoConfig) -> (f64, usize) {
    let side = cfg.side;
    let n_nodes = side * side;
    // One RNG per node so the generated traffic is identical across
    // topologies (the networks consume no randomness).
    let root = SimRng::new(cfg.seed);
    let mut rngs: Vec<SimRng> = (0..n_nodes).map(|i| root.derive(i as u64)).collect();
    let mut id = 0u64;
    let mut now: Cycle = 0;
    while now < cfg.horizon {
        for (src, rng) in rngs.iter_mut().enumerate() {
            if rng.bernoulli(cfg.rate) {
                let dest = pattern.dest(src, side, side, rng);
                if dest != src {
                    net.inject(src, &Packet::new(id, src, cfg.len, now), dest);
                    id += 1;
                }
            }
        }
        net.step(now);
        now += 1;
    }
    // Drain.
    let deadline = cfg.horizon * 20;
    while !net.is_idle() && now < deadline {
        net.step(now);
        now += 1;
    }
    assert!(net.is_idle(), "{}: did not drain", pattern.label());
    (net.latency().mean(), net.deliveries().len())
}

/// Runs the study.
pub fn run(cfg: &TopoConfig) -> TopoResult {
    let jobs: Vec<_> = patterns(cfg.side)
        .into_iter()
        .map(|p| {
            let cfg = cfg.clone();
            move || {
                let mesh = Network::new(Mesh2D::new(cfg.side, cfg.side), 4, ArbiterKind::Err);
                let torus = Network::new(Torus2D::new(cfg.side, cfg.side), 4, ArbiterKind::Err);
                let (mesh_mean, mesh_n) = run_cell(mesh, p, &cfg);
                let (torus_mean, torus_n) = run_cell(torus, p, &cfg);
                assert_eq!(mesh_n, torus_n, "traffic must be identical");
                TopoRow {
                    pattern: p.label(),
                    mesh_mean,
                    torus_mean,
                    delivered: mesh_n,
                }
            }
        })
        .collect();
    TopoResult {
        rows: parallel_sweep(jobs, 6),
    }
}

/// Renders the study table.
pub fn table(r: &TopoResult) -> Table {
    let mut t = Table::new(
        "Topology study — mean latency (cycles) by traffic pattern, 6x6, ERR arbitration",
        &[
            "pattern",
            "mesh",
            "torus (dateline VCs)",
            "torus/mesh",
            "packets",
        ],
    );
    for row in &r.rows {
        t.row(vec![
            row.pattern.to_string(),
            fnum(row.mesh_mean),
            fnum(row.torus_mean),
            format!("{:.2}", row.torus_mean / row.mesh_mean),
            row.delivered.to_string(),
        ]);
    }
    t
}

/// Checks the expected topology effects (empty = ok).
pub fn check_shapes(r: &TopoResult) -> Vec<String> {
    let mut fails = Vec::new();
    let get = |label: &str| r.rows.iter().find(|x| x.pattern == label).expect("row");
    // Long-haul pattern: wrap links halve bit-complement's distances.
    let bc = get("bit-complement");
    if bc.torus_mean >= bc.mesh_mean * 0.9 {
        fails.push(format!(
            "bit-complement: torus {:.1} not clearly below mesh {:.1}",
            bc.torus_mean, bc.mesh_mean
        ));
    }
    // Tornado is the torus's adversarial pattern: distances stay equal
    // (halfway around) and all its traffic shares one ring direction, so
    // the torus's advantage must vanish.
    let tor = get("tornado");
    if tor.torus_mean < tor.mesh_mean * 0.85 {
        fails.push(format!(
            "tornado: torus {:.1} unexpectedly beats mesh {:.1} on its worst case",
            tor.torus_mean, tor.mesh_mean
        ));
    }
    // Nearest-neighbor traffic is cheapest everywhere.
    let neighbor = get("neighbor");
    let uniform = get("uniform");
    type MeanSel = fn(&TopoRow) -> f64;
    let selectors: [(&str, MeanSel); 2] = [("mesh", |r| r.mesh_mean), ("torus", |r| r.torus_mean)];
    for (label, row) in selectors {
        if row(neighbor) >= row(uniform) {
            fails.push(format!(
                "{label}: neighbor latency {:.1} not below uniform {:.1}",
                row(neighbor),
                row(uniform)
            ));
        }
    }
    // Hotspot concentration costs latency vs uniform.
    let hotspot = get("hotspot");
    if hotspot.mesh_mean <= uniform.mesh_mean {
        fails.push(format!(
            "mesh: hotspot {:.1} not above uniform {:.1}",
            hotspot.mesh_mean, uniform.mesh_mean
        ));
    }
    // Everything delivered something.
    for row in &r.rows {
        if row.delivered == 0 {
            fails.push(format!("{}: nothing delivered", row.pattern));
        }
    }
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_topo_shapes() {
        let cfg = TopoConfig {
            side: 6,
            horizon: 12_000,
            rate: 0.02,
            len: 4,
            seed: 9,
        };
        let r = run(&cfg);
        let fails = check_shapes(&r);
        assert!(fails.is_empty(), "{fails:#?}");
    }

    #[test]
    fn table_has_all_patterns() {
        let cfg = TopoConfig {
            side: 4,
            horizon: 4_000,
            rate: 0.02,
            len: 3,
            seed: 1,
        };
        assert_eq!(table(&run(&cfg)).n_rows(), 6);
    }
}

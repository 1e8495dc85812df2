//! Path composition and the analytical envelope (DESIGN.md §12.4):
//! folding per-node delay estimates into end-to-end predictions.

use std::collections::HashMap;

use err_fabric::{FlowSpec, Topology};
use err_sched::Discipline;
use fairness_metrics::{jain_index, p99, percentile};

use crate::decompose::{decompose, FlowLoad};
use crate::linksim::{simulate_node, NodeFlowDelays, SimFlow, SimParams};

/// Tolerance for floating-point envelope comparisons.
const EPS: f64 = 1e-9;

/// Standing-inventory headroom beyond the raw credit share (§12.4):
/// a flow's own admitted packet at the node sits on top of what the
/// upstream credit buffer sustains. Calibrated against §11.8 fabric
/// attribution on 4×4 mesh mixes.
const SHARE_HEADROOM: f64 = 0.1;

/// Cap on the inventory scale: under open per-source injection the
/// refill loop sustains a bit less than one standing packet per flow
/// at a loaded node — arrivals spread out and the queue breathes.
const SHARE_CAP: f64 = 0.8;

/// Boundary handoff overhead per hop, in cycles: credit turnaround
/// and forwarder scheduling jitter that every packet pays at every
/// node once the fabric as a whole is contended. Not charged on an
/// idle fabric, where a hop costs exactly the packet length.
const HOP_OVERHEAD: f64 = 2.5;

/// Convergecast detector (§12.4): a flow is funnel-saturated when its
/// destination's round dwarfs every other round on its path by this
/// factor — the destination rations the whole tree and backpressure
/// keeps each upstream admission window topped up.
const FUNNEL_RATIO: f64 = 2.0;

/// Standing inventory at a funnel source hop, in packets: the
/// admission window refills faster than the rationed drain, so a
/// packet finds about half a window of its own ahead of it.
const FUNNEL_BASE: f64 = 1.5;

/// Inventory growth per hop down the funnel: windows fill deeper as
/// the credit chain nears the rationing destination.
const FUNNEL_SLOPE: f64 = 0.3;

/// Round multiplier at the rationing destination itself: a packet
/// waits a bit over half a round there, plus a little more for every
/// upstream hop its flow funnels through (deep arms deliver burstier
/// arrivals). Was 1.2 while a refused hand-off left the destination's
/// worker to its park timer; now the refusal wakes it (DESIGN.md §6)
/// and it drains its queue before the upstream retries. Provisional:
/// the one constant moved, the rest of the funnel fit is still the
/// timer-era one (ROADMAP item 6b).
const FUNNEL_DST_BASE: f64 = 0.6;

/// Destination-round growth per upstream funnel hop.
const FUNNEL_DST_SLOPE: f64 = 0.15;

/// Estimator configuration; [`EstimatorConfig::default`] matches the
/// fabric runtime's shipped settings.
pub struct EstimatorConfig {
    /// Discipline every node runs.
    pub discipline: Discipline,
    /// Per-flow admission backlog cap in flits (the runtime default).
    pub max_backlog: u64,
    /// Per-link credit pool in flits (the fabric's `credits` knob):
    /// sets how much standing inventory a link can sustain, which
    /// scales how much of a node's round each crossing flow waits.
    pub credits: u64,
    /// Post-warmup packets sampled per flow per node. The speedup
    /// lever: the full fabric serves every packet of every flow; the
    /// estimator only needs enough tails for a stable mean.
    pub sample_packets: u64,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        Self {
            discipline: Discipline::Err,
            max_backlog: 64,
            credits: 16,
            sample_packets: 48,
        }
    }
}

/// One node's contribution to a path estimate.
#[derive(Clone, Debug)]
pub struct HopEstimate {
    /// The node traversed.
    pub node: usize,
    /// Mean inclusive-of-service delay at this node, in cycles.
    pub mean_cycles: f64,
    /// 99th-percentile delay at this node, in cycles.
    pub p99_cycles: f64,
    /// Tail samples backing the estimate.
    pub samples: u64,
}

/// End-to-end prediction for one flow (DESIGN.md §12.4).
#[derive(Clone, Debug)]
pub struct PathEstimate {
    /// Global flow id.
    pub flow: usize,
    /// Endpoints.
    pub spec: FlowSpec,
    /// Packet length in flits.
    pub len: u32,
    /// Inter-node hops on the route (`path.len() − 1`).
    pub hops: usize,
    /// Per-node estimates in route order, destination eject last.
    pub per_hop: Vec<HopEstimate>,
    /// Store-and-forward prediction: the sum of per-node mean delays.
    /// Comparable to the fabric's measured per-hop sum (§11.8), whose
    /// hops also complete before the tail is handed on.
    pub cycles: f64,
    /// Wormhole projection: per-node queueing excesses plus one
    /// pipelined traversal, `Σ(dₙ − len) + hops + len − 1`. Equals
    /// the textbook `hops + len − 1` when every node is idle.
    pub wormhole_cycles: f64,
    /// Analytical floor: no wormhole traversal beats
    /// `hops + len − 1` cycles.
    pub floor_cycles: u64,
    /// Analytical ceiling from the ERR service bound (paper Lemma 1):
    /// at each node a packet waits at most its windowed backlog times
    /// the node's maximal round, `Σₙ (W+1)·Σ_g 2·len_g`.
    pub ceiling_cycles: f64,
    /// Predicted steady-state throughput in flits per cycle
    /// (`len / lockstep interval`).
    pub flit_rate: f64,
}

impl PathEstimate {
    /// Whether the prediction chain respects the analytical envelope:
    /// `floor ≤ wormhole ≤ store-and-forward ≤ ceiling`.
    pub fn within_envelope(&self) -> bool {
        self.floor_cycles as f64 <= self.wormhole_cycles + EPS
            && self.wormhole_cycles <= self.cycles + EPS
            && self.cycles <= self.ceiling_cycles + EPS
    }
}

/// The estimator's answer for a whole load set.
#[derive(Clone, Debug)]
pub struct EstimateReport {
    /// One prediction per input flow, in input order.
    pub paths: Vec<PathEstimate>,
    /// Lockstep pace: the busiest node's total demand in flits, the
    /// cycles between any flow's consecutive packets.
    pub interval: u64,
    /// Jain's index over predicted per-flow flit rates.
    pub jain_predicted: f64,
}

impl EstimateReport {
    /// p50 of store-and-forward path predictions, in cycles.
    pub fn p50_cycles(&self) -> Option<f64> {
        let cycles: Vec<f64> = self.paths.iter().map(|p| p.cycles).collect();
        percentile(&cycles, 0.5)
    }
}

/// Runs the full §12 pipeline: decompose `loads` over `topo`,
/// simulate each loaded node on a virtual clock, compose per-node
/// means into path predictions, and check every prediction against
/// the analytical envelope.
///
/// # Panics
///
/// If any composed prediction violates the envelope — that is a bug
/// in the estimator, not a property of the input.
pub fn estimate(topo: &Topology, loads: &[FlowLoad], cfg: &EstimatorConfig) -> EstimateReport {
    let links = decompose(topo, loads);

    // Union each node's link ends: the node scheduler is the
    // contention domain, serving one flit per cycle across all links.
    let mut node_flows: HashMap<usize, Vec<crate::decompose::LinkFlowLoad>> = HashMap::new();
    for link in &links {
        node_flows
            .entry(link.node)
            .or_default()
            .extend(link.flows.iter().copied());
    }
    let mut nodes: Vec<usize> = node_flows.keys().copied().collect();
    nodes.sort_unstable();
    for flows in node_flows.values_mut() {
        flows.sort_by_key(|f| f.flow);
    }

    // Per-node demand per producer round, in flits. The busiest
    // node's demand is the throughput bottleneck: every flow's packet
    // rate is one per that interval.
    let demand: HashMap<usize, u64> = nodes
        .iter()
        .map(|&n| {
            (
                n,
                node_flows[&n]
                    .iter()
                    .map(|f| u64::from(f.len))
                    .sum::<u64>()
                    .max(1),
            )
        })
        .collect();
    let interval = demand.values().copied().max().unwrap_or(1);

    // Flows per link end: how many flows share each link's credit
    // pool, straight from the decomposition.
    let link_width: HashMap<(usize, usize), usize> = links
        .iter()
        .map(|l| ((l.node, l.link), l.flows.len()))
        .collect();

    let mut delays: HashMap<(usize, usize), NodeFlowDelays> = HashMap::new();
    for &node in &nodes {
        // Each node is simulated at its own local saturation pace
        // (§12.3): credit buffering keeps every loaded node busy at
        // its own round rate. Phases stagger arrivals in flow-id
        // order — the producer's round-robin submit order.
        let params = SimParams {
            discipline: cfg.discipline.clone(),
            sample_packets: cfg.sample_packets,
            interval: demand[&node],
        };
        let mut phase = 0u64;
        let sim_flows: Vec<SimFlow> = node_flows[&node]
            .iter()
            .map(|f| {
                let sf = SimFlow {
                    flow: f.flow,
                    len: f.len,
                    packets: f.packets,
                    phase,
                };
                phase += u64::from(f.len);
                sf
            })
            .collect();
        for d in simulate_node(&sim_flows, loads.len(), &params) {
            delays.insert((node, d.flow), d);
        }
    }

    let mut paths = Vec::with_capacity(loads.len());
    let mut rates = Vec::with_capacity(loads.len());
    for (flow, load) in loads.iter().enumerate() {
        let route = topo.path(flow, load.spec);
        let ends = topo.links_on_path(flow, load.spec);
        let hops = route.len() - 1;
        let len = f64::from(load.len);
        let window = (cfg.max_backlog / u64::from(load.len.max(1))).max(1);

        // Contended-fabric regime: boundary overhead is only paid once
        // the mix keeps nodes busier than a lone flow would.
        let overhead = if interval as f64 >= 2.0 * len {
            HOP_OVERHEAD
        } else {
            0.0
        };
        // Convergecast detection: does the destination's round dwarf
        // every other round on this flow's path?
        let dst_round = demand[route.last().expect("route is never empty")];
        let max_other = route[..route.len() - 1]
            .iter()
            .map(|n| demand[n])
            .max()
            .unwrap_or(1);
        let funnel = route.len() > 1 && dst_round as f64 >= FUNNEL_RATIO * max_other as f64;

        let mut per_hop = Vec::with_capacity(route.len());
        let mut cycles = 0.0;
        let mut excess = 0.0;
        let mut ceiling = 0.0;
        for (k, &node) in route.iter().enumerate() {
            let d = &delays[&(node, flow)];
            let (mean, p99_cycles, samples) = if funnel && k < route.len() - 1 {
                // Funnel regime (§12.4): every hop above the rationing
                // destination keeps its admission window topped up, so
                // a packet waits its standing inventory times the
                // local round; inventory deepens down the funnel.
                let inventory = (FUNNEL_BASE + FUNNEL_SLOPE * k as f64).min((window + 1) as f64);
                let mean = len + inventory * demand[&node] as f64;
                (mean, mean, d.samples.len() as u64)
            } else if funnel {
                // The rationing destination: one full round per
                // packet, deeper arms a bit more.
                let scale = (FUNNEL_DST_BASE + FUNNEL_DST_SLOPE * (hops as f64 - 1.0))
                    .min((window + 1) as f64);
                let mean = len + scale * (demand[&node] as f64 - len).max(0.0);
                (mean, mean, d.samples.len() as u64)
            } else {
                // Inventory scale (§12.4): the fraction of the
                // simulated round a packet actually waits is set by
                // the standing inventory the flow's feeding link
                // sustains — its share of the link's credit pool, in
                // packets. At the source the flow's own egress link
                // stands in for the producer.
                let feed = ends[k.saturating_sub(1)];
                let width = link_width.get(&feed).copied().unwrap_or(1).max(1);
                let share = cfg.credits as f64 / len / width as f64;
                let scale = (share + SHARE_HEADROOM).min(SHARE_CAP);
                let scaled: Vec<f64> = d
                    .samples
                    .iter()
                    .map(|&s| len + (s - len) * scale + overhead)
                    .collect();
                // A flow with no packets to sample is predicted idle:
                // exactly its serialized service time at every node.
                let mean = if scaled.is_empty() {
                    len
                } else {
                    scaled.iter().sum::<f64>() / scaled.len() as f64
                };
                (mean, p99(&scaled).unwrap_or(mean), scaled.len() as u64)
            };
            per_hop.push(HopEstimate {
                node,
                mean_cycles: mean,
                p99_cycles,
                samples,
            });
            cycles += mean;
            excess += mean - len;
            let round: u64 = node_flows[&node].iter().map(|f| 2 * u64::from(f.len)).sum();
            ceiling += ((window + 1) * round) as f64;
        }

        let floor_cycles = hops as u64 + u64::from(load.len) - 1;
        let wormhole_cycles = excess + floor_cycles as f64;
        let flit_rate = len / interval as f64;
        let path = PathEstimate {
            flow,
            spec: load.spec,
            len: load.len,
            hops,
            per_hop,
            cycles,
            wormhole_cycles,
            floor_cycles,
            ceiling_cycles: ceiling,
            flit_rate,
        };
        assert!(
            path.within_envelope(),
            "estimator bug: flow {flow} prediction escapes its envelope \
             (floor {floor_cycles} ≤ wormhole {wormhole_cycles:.2} ≤ \
             cycles {cycles:.2} ≤ ceiling {ceiling:.2} violated)",
        );
        // Scaled to flits-per-interval so the u64 Jain input keeps
        // precision.
        rates.push((flit_rate * interval as f64 * 1024.0).round() as u64);
        paths.push(path);
    }

    let jain_predicted = if rates.is_empty() {
        1.0
    } else {
        jain_index(&rates)
    };
    EstimateReport {
        paths,
        interval,
        jain_predicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(src: usize, dst: usize, len: u32) -> FlowLoad {
        FlowLoad {
            spec: FlowSpec { src, dst },
            len,
            packets: 100,
        }
    }

    #[test]
    fn lone_flow_transit_hops_serve_at_line_rate() {
        let topo = Topology::mesh(4, 4);
        let rep = estimate(&topo, &[load(0, 15, 6)], &EstimatorConfig::default());
        assert_eq!(rep.paths.len(), 1);
        let p = &rep.paths[0];
        assert_eq!(p.hops, 6);
        assert_eq!(p.floor_cycles, 6 + 6 - 1);
        // A lone flow's blocking producer keeps the source admission
        // window full — the source hop predicts a standing queue —
        // but every transit hop serves at line rate: exactly len.
        assert!(p.per_hop[0].mean_cycles >= 6.0);
        for hop in &p.per_hop[1..] {
            assert!(
                (hop.mean_cycles - 6.0).abs() < EPS,
                "transit node {} mean {} ≠ len",
                hop.node,
                hop.mean_cycles
            );
        }
        assert!((p.cycles - (p.per_hop[0].mean_cycles + 6.0 * 6.0)).abs() < EPS);
        assert!(p.within_envelope());
        assert!((rep.jain_predicted - 1.0).abs() < EPS);
    }

    #[test]
    fn contended_paths_sit_between_floor_and_ceiling() {
        let topo = Topology::mesh(4, 4);
        // Transpose-style crossing mix plus a hotspot flow.
        let loads = vec![
            load(0, 15, 4),
            load(15, 0, 4),
            load(3, 12, 4),
            load(12, 3, 4),
            load(1, 5, 8),
            load(2, 5, 8),
        ];
        let rep = estimate(&topo, &loads, &EstimatorConfig::default());
        assert_eq!(rep.paths.len(), loads.len());
        for p in &rep.paths {
            assert!(p.within_envelope());
            assert!(p.cycles >= p.floor_cycles as f64);
            assert!(p.per_hop.len() == p.hops + 1);
        }
        assert!(rep.p50_cycles().is_some());
        assert!(rep.jain_predicted > 0.0 && rep.jain_predicted <= 1.0);
    }

    #[test]
    fn shared_node_inflates_the_estimate() {
        let topo = Topology::mesh(3, 1);
        let lone = estimate(&topo, &[load(0, 2, 4)], &EstimatorConfig::default());
        let shared = estimate(
            &topo,
            &[load(0, 2, 4), load(1, 2, 4)],
            &EstimatorConfig::default(),
        );
        // Flow 0 crosses node 1 and 2 with flow 1 in the way.
        assert!(shared.paths[0].cycles > lone.paths[0].cycles);
    }
}

//! One wormhole network over a 2-D grid: a mesh or a dateline-VC torus.
//!
//! Each node has a router with five ports ([`Port`]) — four grid links
//! plus a local injection/ejection interface — and `n_vcs` virtual
//! channels per port. Every buffer, lock and arbiter is indexed by
//! channel, `port × n_vcs + vc`. A mesh has one VC and routes XY; a
//! torus has two and routes with the dateline rule ([`Torus2D::route`]).
//! Nothing else in the router loop depends on the grid.
//!
//! Links carry one flit per cycle with one-cycle latency, round robin
//! over the VCs of each physical link; each input channel buffers up to
//! `capacity` flits, and an upstream output channel only forwards when
//! the downstream buffer has room (credit-based flow control). Packets
//! wormhole through: an input channel is pinned to its current packet's
//! output channel until the tail flit passes, so a packet blocked deep
//! in the network stalls its whole path — the unpredictable occupancy
//! the paper's §1 describes, here arising *naturally* from the network
//! rather than from a scripted sink.

use std::collections::VecDeque;

use desim::{Cycle, OnlineStats};
use err_sched::{FlowId, Packet, PacketId};

use crate::arbiter::{ArbiterKind, OutputArbiter};
use crate::flit::{packetize, Flit};
use crate::mesh::{Mesh2D, Port, N_PORTS};
use crate::torus::Torus2D;

/// The grid a [`Network`] runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grid {
    /// A mesh: one VC, XY routing.
    Mesh(Mesh2D),
    /// A torus: two VCs, dateline routing.
    Torus(Torus2D),
}

impl From<Mesh2D> for Grid {
    fn from(mesh: Mesh2D) -> Self {
        Grid::Mesh(mesh)
    }
}

impl From<Torus2D> for Grid {
    fn from(torus: Torus2D) -> Self {
        Grid::Torus(torus)
    }
}

impl Grid {
    fn n_nodes(&self) -> usize {
        match self {
            Grid::Mesh(m) => m.n_nodes(),
            Grid::Torus(t) => t.n_nodes(),
        }
    }

    /// Virtual channels per port.
    fn n_vcs(&self) -> usize {
        match self {
            Grid::Mesh(_) => 1,
            Grid::Torus(_) => 2,
        }
    }

    fn neighbor(&self, node: usize, port: Port) -> Option<usize> {
        match self {
            Grid::Mesh(m) => m.neighbor(node, port),
            Grid::Torus(t) => t.neighbor(node, port),
        }
    }

    /// Output `(port, vc)` at `node` for a head flit to `dest` that
    /// arrived on `(in_port, in_vc)`.
    fn route(&self, node: usize, dest: usize, in_port: Port, in_vc: usize) -> (Port, usize) {
        match self {
            Grid::Mesh(m) => (m.route_xy(node, dest), 0),
            Grid::Torus(t) => t.route(node, dest, in_port, in_vc),
        }
    }
}

/// One router's state: everything indexed by channel `port × n_vcs + vc`.
struct Router {
    /// Input buffers per channel.
    inputs: Vec<VecDeque<Flit>>,
    /// Output channel each input channel's packet is committed to.
    in_target: Vec<Option<usize>>,
    /// Input channel holding each output channel (wormhole lock).
    out_lock: Vec<Option<usize>>,
    /// Arbiter per output channel over the input channels.
    arbiters: Vec<Box<dyn OutputArbiter>>,
    /// Round-robin pointer per physical output port (VC link mux).
    link_ptr: Vec<usize>,
}

impl Router {
    fn new(kind: ArbiterKind, n_ch: usize) -> Self {
        Self {
            inputs: (0..n_ch).map(|_| VecDeque::new()).collect(),
            in_target: vec![None; n_ch],
            out_lock: vec![None; n_ch],
            arbiters: (0..n_ch).map(|_| kind.build(n_ch)).collect(),
            link_ptr: vec![0; N_PORTS],
        }
    }
}

/// A delivered packet: who, from where, and how long it took.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Packet identity.
    pub packet: PacketId,
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// Destination node that ejected it.
    pub node: usize,
    /// Injection cycle.
    pub injected_at: Cycle,
    /// Cycle the tail flit was ejected.
    pub delivered_at: Cycle,
}

/// A 2-D network of wormhole routers over a [`Grid`].
pub struct Network {
    grid: Grid,
    /// Dateline VC switching on (the deadlock-free torus). Disabled only
    /// by the ablation that demonstrates the deadlock.
    dateline: bool,
    routers: Vec<Router>,
    /// Node-local injection queues (unbounded; the source NIC).
    inject_q: Vec<VecDeque<Flit>>,
    capacity: usize,
    /// Flits staged on links this cycle (node, input channel, flit),
    /// committed at cycle end.
    staged: Vec<(usize, usize, Flit)>,
    deliveries: Vec<Delivery>,
    latency: OnlineStats,
    injected_flits: u64,
    delivered_flits: u64,
}

impl Network {
    /// Creates a network over `grid` (a [`Mesh2D`] or a [`Torus2D`]) with
    /// per-input-channel buffers of `capacity` flits (≥ 2 recommended)
    /// and the given arbitration at every output channel.
    pub fn new(grid: impl Into<Grid>, capacity: usize, arbiter: ArbiterKind) -> Self {
        assert!(capacity >= 1, "need at least one buffer slot");
        let grid = grid.into();
        let n_ch = N_PORTS * grid.n_vcs();
        Self {
            grid,
            dateline: true,
            routers: (0..grid.n_nodes())
                .map(|_| Router::new(arbiter, n_ch))
                .collect(),
            inject_q: (0..grid.n_nodes()).map(|_| VecDeque::new()).collect(),
            capacity,
            staged: Vec::new(),
            deliveries: Vec::new(),
            latency: OnlineStats::new(),
            injected_flits: 0,
            delivered_flits: 0,
        }
    }

    /// Disables dateline VC switching (every packet stays on VC 0).
    ///
    /// **This makes a torus deadlock-prone** — the wrap-around links
    /// close the channel-dependency cycle that the dateline exists to
    /// break. Exposed for the ablation test/demo only; a mesh routes on
    /// VC 0 either way.
    pub fn disable_dateline_for_ablation(&mut self) {
        self.dateline = false;
    }

    /// Queues `pkt` for injection at `src`, destined for node `dest`
    /// (carried in the head flit).
    pub fn inject(&mut self, src: usize, pkt: &Packet, dest: usize) {
        assert!(src < self.grid.n_nodes() && dest < self.grid.n_nodes());
        let flits = packetize(pkt, dest);
        self.injected_flits += flits.len() as u64;
        self.inject_q[src].extend(flits);
    }

    /// Completed deliveries.
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// End-to-end packet latency statistics (injection to tail ejection).
    pub fn latency(&self) -> &OnlineStats {
        &self.latency
    }

    /// Flits injected so far.
    pub fn injected_flits(&self) -> u64 {
        self.injected_flits
    }

    /// Flits ejected so far.
    pub fn delivered_flits(&self) -> u64 {
        self.delivered_flits
    }

    /// Flits currently inside the network (buffers + injection queues).
    pub fn in_flight_flits(&self) -> u64 {
        let buffered: usize = self
            .routers
            .iter()
            .flat_map(|r| r.inputs.iter())
            .map(|q| q.len())
            .sum();
        let injecting: usize = self.inject_q.iter().map(|q| q.len()).sum();
        (buffered + injecting) as u64
    }

    /// Whether nothing is left to move.
    pub fn is_idle(&self) -> bool {
        self.in_flight_flits() == 0
    }

    /// The output channel at `node` for a head flit to `dest` waiting on
    /// input channel `ic`.
    fn route(&self, node: usize, dest: usize, ic: usize) -> usize {
        let n_vcs = self.grid.n_vcs();
        let (port, vc) = self
            .grid
            .route(node, dest, Port::from_index(ic / n_vcs), ic % n_vcs);
        port as usize * n_vcs + if self.dateline { vc } else { 0 }
    }

    /// Advances the network one cycle.
    pub fn step(&mut self, now: Cycle) {
        debug_assert!(self.staged.is_empty());
        let n_vcs = self.grid.n_vcs();
        for node in 0..self.grid.n_nodes() {
            // Injection: the NIC feeds the local port's VC 0 at line rate.
            let local0 = Port::Local as usize * n_vcs;
            if self.routers[node].inputs[local0].len() < self.capacity {
                if let Some(flit) = self.inject_q[node].pop_front() {
                    self.routers[node].inputs[local0].push_back(flit);
                }
            }
            // Route computation for new heads on every input channel.
            for ic in 0..N_PORTS * n_vcs {
                if self.routers[node].in_target[ic].is_none() {
                    if let Some(f) = self.routers[node].inputs[ic].front() {
                        let dest = f.dest().expect("head flit leads each packet");
                        let oc = self.route(node, dest, ic);
                        self.routers[node].in_target[ic] = Some(oc);
                        self.routers[node].arbiters[oc].flow_activated(ic);
                    }
                }
            }
            // Switch allocation: grant free output channels.
            for oc in 0..N_PORTS * n_vcs {
                if self.routers[node].out_lock[oc].is_none() {
                    if let Some(ic) = self.routers[node].arbiters[oc].grant() {
                        debug_assert_eq!(self.routers[node].in_target[ic], Some(oc));
                        self.routers[node].out_lock[oc] = Some(ic);
                    }
                }
            }
            // Traversal, per physical port: one flit per cycle, round
            // robin over the port's VCs with an active transfer.
            for (port, p) in Port::ALL.into_iter().enumerate() {
                let ptr = self.routers[node].link_ptr[port];
                let mut sent = false;
                for k in 0..n_vcs {
                    let vc = (ptr + k) % n_vcs;
                    let oc = port * n_vcs + vc;
                    let Some(ic) = self.routers[node].out_lock[oc] else {
                        continue;
                    };
                    // Occupancy charging (incl. stall cycles).
                    self.routers[node].arbiters[oc].charge();
                    if sent {
                        continue; // link already used this cycle
                    }
                    // Credit check: room downstream? Ejection always
                    // drains. One staged flit max per link per cycle, so
                    // a current-length check bounds the buffer.
                    let next = match p {
                        Port::Local => None,
                        _ => {
                            let nb = self
                                .grid
                                .neighbor(node, p)
                                .expect("locked output must have a link");
                            Some((nb, p.opposite() as usize * n_vcs + vc))
                        }
                    };
                    let room = next.is_none_or(|(nb, in_ch)| {
                        self.routers[nb].inputs[in_ch].len() < self.capacity
                    });
                    if !room {
                        continue;
                    }
                    let Some(flit) = self.routers[node].inputs[ic].pop_front() else {
                        continue; // flits still in flight upstream
                    };
                    let is_tail = flit.is_tail();
                    match next {
                        None => {
                            self.delivered_flits += 1;
                            if is_tail {
                                self.latency.push((now - flit.injected_at) as f64);
                                self.deliveries.push(Delivery {
                                    packet: flit.packet,
                                    flow: flit.flow,
                                    node,
                                    injected_at: flit.injected_at,
                                    delivered_at: now,
                                });
                            }
                        }
                        Some((nb, in_ch)) => self.staged.push((nb, in_ch, flit)),
                    }
                    sent = true;
                    self.routers[node].link_ptr[port] = (vc + 1) % n_vcs;
                    if is_tail {
                        // Same-output continuation for the next packet?
                        let still = self.routers[node].inputs[ic]
                            .front()
                            .and_then(|nf| nf.dest())
                            .is_some_and(|d| self.route(node, d, ic) == oc);
                        self.routers[node].in_target[ic] = still.then_some(oc);
                        self.routers[node].arbiters[oc].packet_done(still);
                        self.routers[node].out_lock[oc] = None;
                    }
                }
            }
        }
        // Link latency: staged flits land next cycle.
        for (node, in_ch, flit) in self.staged.drain(..) {
            let buf = &mut self.routers[node].inputs[in_ch];
            debug_assert!(buf.len() < self.capacity + 1, "credit overflow");
            buf.push_back(flit);
        }
    }

    /// Runs until idle or for `max_cycles`, returning the cycle reached.
    pub fn run(&mut self, start: Cycle, max_cycles: u64) -> Cycle {
        let mut now = start;
        let end = start + max_cycles;
        while now < end && !self.is_idle() {
            self.step(now);
            now += 1;
        }
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(cols: usize, rows: usize, kind: ArbiterKind) -> Network {
        Network::new(Mesh2D::new(cols, rows), 4, kind)
    }

    #[test]
    fn single_packet_crosses_the_mesh() {
        let mut n = net(4, 4, ArbiterKind::Err);
        let src = 0;
        let dest = 15; // (3,3): 6 hops
        n.inject(src, &Packet::new(0, 0, 5, 0), dest);
        let end = n.run(0, 1000);
        assert!(n.is_idle(), "not drained by {end}");
        assert_eq!(n.deliveries().len(), 1);
        let d = n.deliveries()[0];
        assert_eq!(d.node, dest);
        // Latency at least len + hops.
        assert!(d.delivered_at >= 5 + 6 - 1, "latency {}", d.delivered_at);
        assert_eq!(n.delivered_flits(), 5);
        assert_eq!(n.injected_flits(), 5);
    }

    #[test]
    fn local_delivery_works() {
        let mut n = net(2, 2, ArbiterKind::Rr);
        n.inject(1, &Packet::new(0, 0, 3, 0), 1);
        n.run(0, 100);
        assert_eq!(n.deliveries().len(), 1);
        assert_eq!(n.deliveries()[0].node, 1);
    }

    #[test]
    fn all_to_all_conserves_flits() {
        let mut n = net(3, 3, ArbiterKind::Err);
        let mut id = 0u64;
        for src in 0..9usize {
            for dest in 0..9usize {
                if src != dest {
                    n.inject(src, &Packet::new(id, src, 4, 0), dest);
                    id += 1;
                }
            }
        }
        let injected = n.injected_flits();
        let end = n.run(0, 50_000);
        assert!(n.is_idle(), "deadlock or livelock: still busy at {end}");
        assert_eq!(n.delivered_flits(), injected);
        assert_eq!(n.deliveries().len(), 72);
    }

    #[test]
    fn hotspot_contention_drains() {
        // Everyone sends to node 0: heavy contention at its ejection and
        // surrounding links; XY routing must still drain.
        let mut n = net(4, 4, ArbiterKind::Err);
        let mut id = 0u64;
        for src in 1..16usize {
            for k in 0..5u64 {
                n.inject(src, &Packet::new(id + k, src, 6, 0), 0);
            }
            id += 5;
        }
        let end = n.run(0, 200_000);
        assert!(n.is_idle(), "hotspot did not drain by {end}");
        assert_eq!(n.deliveries().len(), 75);
        assert!(n.deliveries().iter().all(|d| d.node == 0));
    }

    #[test]
    fn per_flow_flit_order_preserved_end_to_end() {
        // Packets from one source to one dest must arrive in order
        // (single path under XY routing).
        let mut n = net(4, 2, ArbiterKind::Fcfs);
        for k in 0..10u64 {
            n.inject(0, &Packet::new(k, 0, 3, 0), 7);
        }
        n.run(0, 10_000);
        let pids: Vec<u64> = n.deliveries().iter().map(|d| d.packet).collect();
        assert_eq!(pids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn latency_reflects_congestion() {
        // The same traffic takes longer under a hotspot than uncontended.
        let mut quiet = net(4, 4, ArbiterKind::Err);
        quiet.inject(5, &Packet::new(0, 0, 8, 0), 6);
        quiet.run(0, 10_000);
        let uncontended = quiet.latency().mean();

        let mut busy = net(4, 4, ArbiterKind::Err);
        for src in 0..16usize {
            if src != 6 {
                for k in 0..3u64 {
                    busy.inject(src, &Packet::new(src as u64 * 10 + k, src, 8, 0), 6);
                }
            }
        }
        busy.run(0, 100_000);
        assert!(busy.is_idle());
        assert!(
            busy.latency().mean() > uncontended * 2.0,
            "hotspot mean {} vs quiet {}",
            busy.latency().mean(),
            uncontended
        );
    }

    #[test]
    fn arbiter_kinds_all_drain_the_same_traffic() {
        for kind in [ArbiterKind::Err, ArbiterKind::Rr, ArbiterKind::Fcfs] {
            let mut n = net(3, 3, kind);
            for src in 0..9usize {
                n.inject(src, &Packet::new(src as u64, src, 5, 0), (src + 4) % 9);
            }
            n.run(0, 20_000);
            assert!(n.is_idle(), "{kind:?} failed to drain");
            assert_eq!(n.deliveries().len(), 9);
        }
    }
}

//! A 2-D torus network with dateline virtual channels.
//!
//! The torus is the topology of the paper's reference \[5\] (Dally &
//! Seitz's torus routing chip) and the setting where virtual channels
//! earn their keep: wormhole dimension-order routing on a *ring* has a
//! cyclic channel dependency (the wrap-around link closes the cycle), so
//! a single-VC torus can deadlock. The classic fix is the **dateline**
//! scheme: every packet travels a dimension on VC 0 until it crosses
//! that dimension's wrap-around link, then continues on VC 1 — breaking
//! the cycle while keeping minimal (shortest-way-around) routes.
//!
//! [`Torus2D`] is the topology and its routing function; the router
//! loop is [`crate::network::Network`]'s, with two VCs per port.

use crate::mesh::Port;

/// A `cols × rows` 2-D torus. Node `(x, y)` has id `y * cols + x`; every
/// row and column closes into a ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Torus2D {
    /// Width (x dimension).
    pub cols: usize,
    /// Height (y dimension).
    pub rows: usize,
}

impl Torus2D {
    /// Creates a torus. Both dimensions must be at least 2 (a ring needs
    /// two nodes).
    pub fn new(cols: usize, rows: usize) -> Self {
        assert!(cols >= 2 && rows >= 2, "torus dimensions must be >= 2");
        Self { cols, rows }
    }

    /// Total nodes.
    pub fn n_nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// Node id of `(x, y)`.
    pub fn node(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.cols && y < self.rows);
        y * self.cols + x
    }

    /// Coordinates of `node`.
    pub fn coords(&self, node: usize) -> (usize, usize) {
        debug_assert!(node < self.n_nodes());
        (node % self.cols, node / self.cols)
    }

    /// The neighbor through `port` (every link exists on a torus).
    pub fn neighbor(&self, node: usize, port: Port) -> Option<usize> {
        let (x, y) = self.coords(node);
        match port {
            Port::Local => None,
            Port::East => Some(self.node((x + 1) % self.cols, y)),
            Port::West => Some(self.node((x + self.cols - 1) % self.cols, y)),
            Port::North => Some(self.node(x, (y + self.rows - 1) % self.rows)),
            Port::South => Some(self.node(x, (y + 1) % self.rows)),
        }
    }

    /// Shortest-way-around hop count of the dimension-order route.
    pub fn distance(&self, src: usize, dest: usize) -> usize {
        let (sx, sy) = self.coords(src);
        let (dx, dy) = self.coords(dest);
        let ring = |a: usize, b: usize, n: usize| {
            let fwd = (b + n - a) % n;
            fwd.min(n - fwd)
        };
        ring(sx, dx, self.cols) + ring(sy, dy, self.rows)
    }

    /// Dimension-order (x then y), shortest-way-around routing with
    /// dateline VC selection.
    ///
    /// `in_port`/`in_vc` identify the channel the head flit arrived on
    /// (`Port::Local` for injection). Returns the output `(port, vc)`:
    /// a packet stays on its current VC within a dimension, switches to
    /// VC 1 on the hop that crosses the dimension's wrap-around link,
    /// and resets to VC 0 when it turns into a new dimension.
    pub fn route(&self, cur: usize, dest: usize, in_port: Port, in_vc: usize) -> (Port, usize) {
        let (cx, cy) = self.coords(cur);
        let (dx, dy) = self.coords(dest);
        if cx != dx {
            // Travel x, shortest way around (ties go east).
            let fwd = (dx + self.cols - cx) % self.cols;
            let port = if fwd <= self.cols - fwd {
                Port::East
            } else {
                Port::West
            };
            let wraps = match port {
                Port::East => cx == self.cols - 1,
                Port::West => cx == 0,
                _ => unreachable!(),
            };
            let carried = match in_port {
                Port::East | Port::West => in_vc,
                _ => 0, // injected: fresh dimension
            };
            (port, if wraps { 1 } else { carried })
        } else if cy != dy {
            let fwd = (dy + self.rows - cy) % self.rows;
            let port = if fwd <= self.rows - fwd {
                Port::South
            } else {
                Port::North
            };
            let wraps = match port {
                Port::South => cy == self.rows - 1,
                Port::North => cy == 0,
                _ => unreachable!(),
            };
            let carried = match in_port {
                Port::North | Port::South => in_vc,
                _ => 0, // turned from x (or injected): fresh dimension
            };
            (port, if wraps { 1 } else { carried })
        } else {
            (Port::Local, 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterKind;
    use crate::network::Network;
    use err_sched::Packet;

    #[test]
    fn routing_is_minimal_and_terminates() {
        let t = Torus2D::new(5, 4);
        for src in 0..t.n_nodes() {
            for dest in 0..t.n_nodes() {
                let mut cur = src;
                let mut in_port = Port::Local;
                let mut in_vc = 0;
                let mut hops = 0;
                loop {
                    let (p, v) = t.route(cur, dest, in_port, in_vc);
                    if p == Port::Local {
                        break;
                    }
                    let nb = t.neighbor(cur, p).expect("torus link");
                    in_port = p.opposite();
                    in_vc = v;
                    cur = nb;
                    hops += 1;
                    assert!(hops <= t.cols + t.rows, "route loops {src}->{dest}");
                }
                assert_eq!(cur, dest);
                assert_eq!(hops, t.distance(src, dest), "{src}->{dest} not minimal");
            }
        }
    }

    #[test]
    fn dateline_vc_rules() {
        let t = Torus2D::new(4, 4);
        // Node (3,0) -> (0,0) going east wraps: hop must be VC 1.
        let (p, v) = t.route(t.node(3, 0), t.node(0, 0), Port::Local, 0);
        assert_eq!((p, v), (Port::East, 1));
        // Node (1,0) -> (3,0): west is shorter? fwd = 2, back = 2, tie ->
        // east; no wrap at x=1.
        let (p, v) = t.route(t.node(1, 0), t.node(3, 0), Port::Local, 0);
        assert_eq!((p, v), (Port::East, 0));
        // A packet already on VC 1 in x stays on VC 1 within x...
        let (p, v) = t.route(t.node(0, 0), t.node(1, 0), Port::West, 1);
        assert_eq!((p, v), (Port::East, 1));
        // ...but resets to VC 0 when it turns into y (no wrap).
        let (p, v) = t.route(t.node(1, 0), t.node(1, 1), Port::West, 1);
        assert_eq!((p, v), (Port::South, 0));
    }

    #[test]
    fn wraparound_shortcut_is_used() {
        // (0,0) -> (3,0) on a 4-wide torus: 1 hop west, not 3 east.
        let t = Torus2D::new(4, 2);
        assert_eq!(t.distance(t.node(0, 0), t.node(3, 0)), 1);
        let (p, _) = t.route(t.node(0, 0), t.node(3, 0), Port::Local, 0);
        assert_eq!(p, Port::West);
    }

    #[test]
    fn single_packet_crosses_with_wraparound() {
        let t = Torus2D::new(4, 4);
        let mut net = Network::new(t, 3, ArbiterKind::Err);
        // (3,3) -> (0,0): 1 hop east (wrap) + 1 hop south (wrap) = 2 hops.
        let src = t.node(3, 3);
        let dest = t.node(0, 0);
        assert_eq!(t.distance(src, dest), 2);
        net.inject(src, &Packet::new(0, 0, 5, 0), dest);
        net.run(0, 1000);
        assert!(net.is_idle());
        assert_eq!(net.deliveries().len(), 1);
        assert_eq!(net.deliveries()[0].node, dest);
        assert_eq!(net.delivered_flits(), 5);
    }

    #[test]
    fn all_to_all_drains_no_deadlock() {
        // The acid test for the dateline scheme: every node sends to
        // every other node, including the wrap-heavy pairs that deadlock
        // a single-VC torus.
        let t = Torus2D::new(4, 4);
        let mut net = Network::new(t, 2, ArbiterKind::Err);
        let mut id = 0;
        for src in 0..16usize {
            for dest in 0..16usize {
                if src != dest {
                    net.inject(src, &Packet::new(id, src, 4, 0), dest);
                    id += 1;
                }
            }
        }
        let injected = net.injected_flits();
        let end = net.run(0, 300_000);
        assert!(net.is_idle(), "torus deadlocked or livelocked at {end}");
        assert_eq!(net.delivered_flits(), injected);
        assert_eq!(net.deliveries().len(), 240);
    }

    #[test]
    fn ring_pressure_drains() {
        // Everyone on one ring sends the long way-ish: saturates the ring
        // channels in one direction, the classic deadlock producer.
        let t = Torus2D::new(6, 2);
        let mut net = Network::new(t, 2, ArbiterKind::Rr);
        let mut id = 0;
        for x in 0..6usize {
            let src = t.node(x, 0);
            let dest = t.node((x + 3) % 6, 0); // half-way around
            for _ in 0..6 {
                net.inject(src, &Packet::new(id, src, 6, 0), dest);
                id += 1;
            }
        }
        let end = net.run(0, 200_000);
        assert!(net.is_idle(), "ring deadlocked at {end}");
        assert_eq!(net.deliveries().len(), 36);
    }

    #[test]
    fn torus_beats_mesh_on_edge_to_edge_latency() {
        use crate::mesh::Mesh2D;
        // Corner-to-corner on 6x6: mesh needs 10 hops, torus 2.
        let tm = Torus2D::new(6, 6);
        let mut torus = Network::new(tm, 4, ArbiterKind::Err);
        torus.inject(tm.node(0, 0), &Packet::new(0, 0, 6, 0), tm.node(5, 5));
        torus.run(0, 10_000);
        assert!(torus.is_idle());

        let mm = Mesh2D::new(6, 6);
        let mut mesh = Network::new(mm, 4, ArbiterKind::Err);
        mesh.inject(mm.node(0, 0), &Packet::new(0, 0, 6, 0), mm.node(5, 5));
        mesh.run(0, 10_000);
        assert!(mesh.is_idle());

        assert!(
            torus.latency().mean() + 4.0 < mesh.latency().mean(),
            "torus {} vs mesh {}",
            torus.latency().mean(),
            mesh.latency().mean()
        );
    }

    #[test]
    fn per_pair_order_preserved_across_wrap() {
        let t = Torus2D::new(4, 2);
        let mut net = Network::new(t, 3, ArbiterKind::Fcfs);
        for k in 0..12u64 {
            net.inject(t.node(3, 0), &Packet::new(k, 0, 3, 0), t.node(1, 1));
        }
        net.run(0, 10_000);
        assert!(net.is_idle());
        let order: Vec<u64> = net.deliveries().iter().map(|d| d.packet).collect();
        assert_eq!(order, (0..12).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = ">= 2")]
    fn tiny_torus_rejected() {
        Torus2D::new(1, 4);
    }

    #[test]
    fn without_dateline_the_ring_deadlocks() {
        // The ablation that proves the dateline is load-bearing: the
        // same ring-pressure workload that drains fine above wedges when
        // every packet stays on VC 0 — the wrap link closes the channel
        // dependency cycle. (Small buffers so the cycle fills fast.)
        let t = Torus2D::new(6, 2);
        let mut net = Network::new(t, 1, ArbiterKind::Rr);
        net.disable_dateline_for_ablation();
        let mut id = 0;
        for x in 0..6usize {
            let src = t.node(x, 0);
            let dest = t.node((x + 3) % 6, 0);
            for _ in 0..6 {
                net.inject(src, &Packet::new(id, src, 6, 0), dest);
                id += 1;
            }
        }
        net.run(0, 100_000);
        assert!(!net.is_idle(), "expected a deadlock without the dateline");
        // And it is a true deadlock, not slow progress: delivered flits
        // stop increasing.
        let before = net.delivered_flits();
        for now in 100_000..110_000u64 {
            net.step(now);
        }
        assert_eq!(net.delivered_flits(), before, "still progressing?");
    }
}

//! Topologies, flows, and per-node route tables (DESIGN.md §11.1).
//!
//! A [`Topology`] is an explicit port graph: per node, an ordered list
//! of links, where link `0` is always the [`LinkEnd::Eject`] end (the
//! node's local delivery interface) and every other link is a
//! [`LinkEnd::Neighbor`] end naming the peer node. Routing is a pure
//! function of `(node, flow)` — compiled once per node into a
//! flow-indexed link table installed via `BufferedConfig::route_table`,
//! so the egress crate's credit accounting, parking sweeps, and fault
//! handling all follow fabric routing with no new mechanism, and in the
//! same pass into the hop table the node's Forwarder reads instead
//! of routing each flit again.

use std::sync::Arc;

/// An end-to-end fabric flow: a `(src, dst)` stream. Flow ids are
/// global — every node's runtime is sized to the same flow space, and
/// a node only ever sees the flows routed through it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowSpec {
    /// Node where the flow's packets are submitted.
    pub src: usize,
    /// Node where the flow's packets eject.
    pub dst: usize,
}

/// What one link of a node connects to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkEnd {
    /// The node's local delivery interface; always link `0`.
    Eject,
    /// A cable to the named peer node.
    Neighbor(usize),
}

/// The resolved routing verdict at one node for one flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NextHop {
    /// The flow terminates here: deliver locally over link `0`.
    Eject,
    /// The flow transits: cross `link` to its peer node.
    Forward {
        /// Index into the node's link list (never `0`).
        link: usize,
    },
}

/// One node's compiled verdict for one flow (DESIGN.md §11.1): the
/// primary step, resolved to its peer, and the node's position on the
/// flow's fault-free path. A wormhole route is fixed per flow and per
/// hop, so `Fabric::start` compiles it once and the Forwarder reads it
/// per flit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Hop {
    pub(crate) step: Step,
    /// Index of this node in `path(flow)`; `None` off-path (a node only
    /// a rerouted packet reaches).
    pub(crate) position: Option<usize>,
}

/// [`NextHop`] with the peer across the link resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    Eject,
    Forward { link: usize, peer: usize },
}

/// Everything `Fabric::start` compiles from the flows, in one pass.
pub(crate) struct Routes {
    /// Per node, the flow-indexed link table for
    /// `BufferedConfig::route_table`.
    pub(crate) tables: Vec<Arc<[u32]>>,
    /// Per node, the flow-indexed [`Hop`] table: every (node, flow)
    /// pair, off-path nodes included.
    pub(crate) hops: Vec<Arc<[Hop]>>,
    /// Per flow, the number of nodes on its fault-free path.
    pub(crate) path_lens: Vec<usize>,
}

/// SplitMix64 finalizer — the same mix the runtime's flow→shard
/// partition uses; here it picks ECMP up-links deterministically per
/// flow (DESIGN.md §11.1).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    // Routing only needs the width: node (x, y) has id y*cols + x.
    Mesh { cols: usize },
    FatTree { k: usize },
}

/// A routed port graph of fabric nodes (DESIGN.md §11.1).
#[derive(Clone, Debug)]
pub struct Topology {
    kind: Kind,
    links: Vec<Vec<LinkEnd>>,
}

impl Topology {
    /// A `cols × rows` 2-D mesh; node `(x, y)` has id `y * cols + x`,
    /// links to E/W/N/S neighbors where they exist, and
    /// **dimension-order** (XY) routing — correct X first, then Y,
    /// [`NextHop::Eject`] on arrival. This is the same rule
    /// `wormhole_net::Mesh2D::route_xy` implements, which is what
    /// makes the §11.5 cross-validation meaningful.
    pub fn mesh(cols: usize, rows: usize) -> Self {
        assert!(cols >= 1 && rows >= 1, "mesh dimensions must be nonzero");
        let node = |x: usize, y: usize| y * cols + x;
        let mut links = Vec::with_capacity(cols * rows);
        for y in 0..rows {
            for x in 0..cols {
                let mut l = vec![LinkEnd::Eject];
                // Fixed E, W, N, S order (N is toward smaller y, as in
                // wormhole-net); absent edges are skipped, so interior
                // nodes have 5 links and corners 3.
                if x + 1 < cols {
                    l.push(LinkEnd::Neighbor(node(x + 1, y)));
                }
                if x > 0 {
                    l.push(LinkEnd::Neighbor(node(x - 1, y)));
                }
                if y > 0 {
                    l.push(LinkEnd::Neighbor(node(x, y - 1)));
                }
                if y + 1 < rows {
                    l.push(LinkEnd::Neighbor(node(x, y + 1)));
                }
                links.push(l);
            }
        }
        Self {
            kind: Kind::Mesh { cols },
            links,
        }
    }

    /// A k-ary fat-tree (`k` even): the classic three-tier Clos with
    /// `k` pods of `k/2` edge and `k/2` aggregation switches plus
    /// `(k/2)²` cores. Endpoints live on edge switches; routing is
    /// up/down with **ECMP** — the up-link at each tier is chosen by a
    /// SplitMix64 hash of the flow id, the down path is unique.
    ///
    /// Node ids: edges `pod*(k/2)+e` for `0..k²/2`, then aggregations
    /// for `k²/2..k²`, then cores.
    pub fn fat_tree(k: usize) -> Self {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree arity must be even and ≥ 2"
        );
        let half = k / 2;
        let n_edge = k * half;
        let edge = |pod: usize, e: usize| pod * half + e;
        let agg = |pod: usize, a: usize| n_edge + pod * half + a;
        let core = |c: usize| 2 * n_edge + c;
        let mut links = Vec::with_capacity(2 * n_edge + half * half);
        for pod in 0..k {
            for _e in 0..half {
                let mut l = vec![LinkEnd::Eject];
                for a in 0..half {
                    l.push(LinkEnd::Neighbor(agg(pod, a)));
                }
                links.push(l);
            }
        }
        for pod in 0..k {
            for a in 0..half {
                let mut l = vec![LinkEnd::Eject];
                for e in 0..half {
                    l.push(LinkEnd::Neighbor(edge(pod, e)));
                }
                // Aggregation `a` owns cores `a*half..(a+1)*half`.
                for j in 0..half {
                    l.push(LinkEnd::Neighbor(core(a * half + j)));
                }
                links.push(l);
            }
        }
        for c in 0..half * half {
            let mut l = vec![LinkEnd::Eject];
            for pod in 0..k {
                l.push(LinkEnd::Neighbor(agg(pod, c / half)));
            }
            links.push(l);
        }
        Self {
            kind: Kind::FatTree { k },
            links,
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.links.len()
    }

    /// Number of links at `node`, the eject end included.
    pub fn n_links(&self, node: usize) -> usize {
        self.links[node].len()
    }

    /// The peer across `link` of `node`; `None` for the eject end.
    pub fn peer(&self, node: usize, link: usize) -> Option<usize> {
        match self.links[node][link] {
            LinkEnd::Eject => None,
            LinkEnd::Neighbor(p) => Some(p),
        }
    }

    /// The link of `node` whose peer is `neighbor`, if any.
    pub fn link_to(&self, node: usize, neighbor: usize) -> Option<usize> {
        self.links[node]
            .iter()
            .position(|e| *e == LinkEnd::Neighbor(neighbor))
    }

    /// Whether endpoints may live on `node` (mesh: everywhere;
    /// fat-tree: edge switches only).
    pub fn is_endpoint(&self, node: usize) -> bool {
        match self.kind {
            Kind::Mesh { .. } => true,
            Kind::FatTree { k } => node < k * (k / 2),
        }
    }

    /// The primary routing verdict at `node` for `flow` with endpoints
    /// `spec` (DESIGN.md §11.1).
    pub(crate) fn next_hop(&self, node: usize, flow: usize, spec: FlowSpec) -> NextHop {
        if node == spec.dst {
            return NextHop::Eject;
        }
        NextHop::Forward {
            link: self.primary_link(node, flow, spec),
        }
    }

    fn primary_link(&self, node: usize, flow: usize, spec: FlowSpec) -> usize {
        debug_assert_ne!(node, spec.dst);
        match self.kind {
            Kind::Mesh { cols, .. } => {
                let (cx, cy) = (node % cols, node / cols);
                let (dx, dy) = (spec.dst % cols, spec.dst / cols);
                let next = if cx < dx {
                    node + 1
                } else if cx > dx {
                    node - 1
                } else if cy > dy {
                    node - cols
                } else {
                    node + cols
                };
                self.link_to(node, next).expect("mesh neighbor must exist")
            }
            Kind::FatTree { k } => self.fat_tree_link(k, node, flow, spec, 0),
        }
    }

    /// Fat-tree up/down step; `salt` rotates the ECMP choice so
    /// reroute can try the other up-links in a fixed order.
    fn fat_tree_link(
        &self,
        k: usize,
        node: usize,
        flow: usize,
        spec: FlowSpec,
        salt: u64,
    ) -> usize {
        let half = k / 2;
        let n_edge = k * half;
        if node < n_edge {
            // Edge switch: every non-local destination goes up to one
            // of the pod's aggregations, hash-picked per flow.
            let h = (mix(flow as u64 ^ 0x11) + salt) as usize % half;
            1 + h
        } else if node < 2 * n_edge {
            let pod = (node - n_edge) / half;
            if spec.dst / half == pod {
                // Destination edge is below: the down path is unique.
                1 + spec.dst % half
            } else {
                let h = (mix(flow as u64 ^ 0x22) + salt) as usize % half;
                1 + half + h
            }
        } else {
            // Core: one down-link per pod, the destination's pod.
            1 + spec.dst / half
        }
    }

    /// Candidate links at `node` for a transit `flow`, primary first,
    /// then the reroute alternates (mesh: the YX step; fat-tree: the
    /// other ECMP up-links in rotation). Down-tier fat-tree steps and
    /// final mesh dimension steps have no alternate (DESIGN.md §11.4).
    /// An iterator, not a `Vec`: the forwarder asks once per tail
    /// hand-off and almost always takes the first.
    pub(crate) fn candidate_links(
        &self,
        node: usize,
        flow: usize,
        spec: FlowSpec,
    ) -> impl Iterator<Item = usize> + '_ {
        debug_assert_ne!(node, spec.dst, "eject has no link candidates");
        let primary = self.primary_link(node, flow, spec);
        let (yx_step, k, salts) = match self.kind {
            Kind::Mesh { cols, .. } => {
                // If both dimensions still need correction, the YX step
                // (correct Y first) is a legal alternate.
                let (cx, cy) = (node % cols, node / cols);
                let (dx, dy) = (spec.dst % cols, spec.dst / cols);
                let yx_step = (cx != dx && cy != dy).then(|| {
                    let next = if cy > dy { node - cols } else { node + cols };
                    self.link_to(node, next)
                });
                (yx_step.flatten(), 0, 1..1)
            }
            Kind::FatTree { k } => {
                let half = k / 2;
                let n_edge = k * half;
                let is_up = node < n_edge
                    || (node < 2 * n_edge && spec.dst / half != (node - n_edge) / half);
                // `(hash + salt) % half` visits each up-link once.
                (None, k, 1..if is_up { half as u64 } else { 1 })
            }
        };
        std::iter::once(primary)
            .chain(yx_step)
            .chain(salts.map(move |salt| self.fat_tree_link(k, node, flow, spec, salt)))
    }

    /// The fault-free node path of `flow`, source through destination.
    pub fn path(&self, flow: usize, spec: FlowSpec) -> Vec<usize> {
        let mut nodes = vec![spec.src];
        let mut cur = spec.src;
        while cur != spec.dst {
            let NextHop::Forward { link } = self.next_hop(cur, flow, spec) else {
                unreachable!("non-destination nodes forward");
            };
            cur = self.peer(cur, link).expect("forward link has a peer");
            nodes.push(cur);
            assert!(nodes.len() <= self.n_nodes() + 1, "routing loop");
        }
        nodes
    }

    /// Every egress end a flow's fault-free route occupies, as
    /// `(node, link)` pairs in path order: the `Forward` cable end at
    /// each transit node, then the destination's eject end
    /// `(dst, 0)`. Each direction of a cable is its own link with its
    /// own credits, so directed pairs are the granularity of the
    /// hotspot partition in `fabric_integration`'s stalled-path test: a
    /// flow is link-disjoint from a frozen sink when it shares no pair
    /// with any hot-bound path.
    pub fn links_on_path(&self, flow: usize, spec: FlowSpec) -> Vec<(usize, usize)> {
        self.path(flow, spec)
            .into_iter()
            .map(|node| match self.next_hop(node, flow, spec) {
                NextHop::Eject => (node, 0),
                NextHop::Forward { link } => (node, link),
            })
            .collect()
    }

    /// Compiles the per-node, flow-indexed link tables installed via
    /// `BufferedConfig::route_table`. Flows not routed through a node
    /// map to its eject end (they never arrive there).
    pub fn compile_route_tables(&self, specs: &[FlowSpec]) -> Vec<Arc<[u32]>> {
        self.compile(specs).tables
    }

    /// The route tables, the [`Hop`] tables and the path lengths of
    /// `specs`, in one pass over every (node, flow) pair.
    pub(crate) fn compile(&self, specs: &[FlowSpec]) -> Routes {
        for (f, s) in specs.iter().enumerate() {
            assert!(
                s.src < self.n_nodes() && s.dst < self.n_nodes(),
                "flow {f} endpoints out of range"
            );
            assert!(
                self.is_endpoint(s.src) && self.is_endpoint(s.dst),
                "flow {f} endpoints must be endpoint-capable nodes"
            );
        }
        let mut tables: Vec<Vec<u32>> = (0..self.n_nodes()).map(|_| vec![0; specs.len()]).collect();
        let mut hops: Vec<Vec<Hop>> = (0..self.n_nodes())
            .map(|node| {
                let hop = |(flow, &spec): (usize, &FlowSpec)| Hop {
                    step: match self.next_hop(node, flow, spec) {
                        NextHop::Eject => Step::Eject,
                        NextHop::Forward { link } => Step::Forward {
                            link,
                            peer: self.peer(node, link).expect("forward link has a peer"),
                        },
                    },
                    position: None,
                };
                specs.iter().enumerate().map(hop).collect()
            })
            .collect();
        let mut path_lens = Vec::with_capacity(specs.len());
        for (flow, spec) in specs.iter().enumerate() {
            let path = self.path(flow, *spec);
            for (i, &node) in path.iter().enumerate() {
                let hop = &mut hops[node][flow];
                hop.position = Some(i);
                if let Step::Forward { link, .. } = hop.step {
                    tables[node][flow] = link as u32;
                }
            }
            path_lens.push(path.len());
        }
        Routes {
            tables: tables.into_iter().map(Arc::from).collect(),
            hops: hops.into_iter().map(Arc::from).collect(),
            path_lens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_links_match_wormhole_net() {
        let t = Topology::mesh(3, 3);
        let m = wormhole_net::Mesh2D::new(3, 3);
        assert_eq!(t.n_nodes(), 9);
        for node in 0..9 {
            // Same neighbor set as the simulator's mesh.
            let mut peers: Vec<usize> = (1..t.n_links(node))
                .map(|l| t.peer(node, l).unwrap())
                .collect();
            peers.sort_unstable();
            let mut expect: Vec<usize> = wormhole_net::mesh::Port::ALL
                .iter()
                .filter_map(|p| m.neighbor(node, *p))
                .collect();
            expect.sort_unstable();
            assert_eq!(peers, expect, "node {node}");
        }
    }

    #[test]
    fn mesh_paths_follow_xy_distance() {
        let t = Topology::mesh(4, 4);
        let m = wormhole_net::Mesh2D::new(4, 4);
        for src in 0..16 {
            for dst in 0..16 {
                let spec = FlowSpec { src, dst };
                let path = t.path(0, spec);
                assert_eq!(path.len(), m.distance(src, dst) + 1, "{src}->{dst}");
                assert_eq!(*path.last().unwrap(), dst);
                // Step for step, the same output as route_xy.
                for w in path.windows(2) {
                    let port = m.route_xy(w[0], dst);
                    assert_eq!(m.neighbor(w[0], port), Some(w[1]));
                }
            }
        }
    }

    #[test]
    fn mesh_alternate_is_the_yx_step() {
        let t = Topology::mesh(3, 3);
        // 0 -> 8 needs both dimensions: primary East, alternate South.
        let c: Vec<_> = t
            .candidate_links(0, 0, FlowSpec { src: 0, dst: 8 })
            .collect();
        assert_eq!(c.len(), 2);
        assert_eq!(t.peer(0, c[0]), Some(1));
        assert_eq!(t.peer(0, c[1]), Some(3));
        // 6 -> 8 is a single-dimension route: no alternate.
        let c = t.candidate_links(6, 0, FlowSpec { src: 6, dst: 8 });
        assert_eq!(c.count(), 1);
    }

    #[test]
    fn fat_tree_shape_and_paths() {
        let k = 4;
        let t = Topology::fat_tree(k);
        assert_eq!(t.n_nodes(), 8 + 8 + 4);
        for src in 0..8 {
            for dst in 0..8 {
                if src == dst {
                    continue;
                }
                for flow in 0..5 {
                    let spec = FlowSpec { src, dst };
                    let path = t.path(flow, spec);
                    let same_pod = src / 2 == dst / 2;
                    // edge-agg-edge within a pod, edge-agg-core-agg-edge
                    // across pods.
                    assert_eq!(path.len(), if same_pod { 3 } else { 5 }, "{src}->{dst}");
                }
            }
        }
    }

    #[test]
    fn fat_tree_up_links_have_ecmp_alternates() {
        let t = Topology::fat_tree(4);
        let spec = FlowSpec { src: 0, dst: 7 };
        let c: Vec<_> = t.candidate_links(0, 3, spec).collect();
        assert_eq!(c.len(), 2, "k/2 distinct up-links at the edge tier");
        assert_ne!(c[0], c[1]);
        // The core's down step is unique: no alternates.
        let path = t.path(3, spec);
        let core = path[2];
        assert_eq!(t.candidate_links(core, 3, spec).count(), 1);
    }

    #[test]
    fn route_tables_cover_paths() {
        let t = Topology::mesh(2, 2);
        let specs = [FlowSpec { src: 0, dst: 3 }, FlowSpec { src: 3, dst: 0 }];
        let tables = t.compile_route_tables(&specs);
        for (flow, spec) in specs.iter().enumerate() {
            for w in t.path(flow, *spec).windows(2) {
                let link = tables[w[0]][flow] as usize;
                assert_eq!(t.peer(w[0], link), Some(w[1]));
            }
            assert_eq!(tables[spec.dst][flow], 0, "destination ejects");
        }
    }

    /// The compiled [`Hop`] tables say what the routing functions say,
    /// at every node for every flow, off-path nodes included, and the
    /// route tables come out as they did before the hop tables joined
    /// the pass.
    #[test]
    fn compiled_hops_equal_the_routing_functions() {
        let topologies = [
            (Topology::mesh(2, 2), 4),
            (Topology::mesh(4, 4), 16),
            (Topology::mesh(3, 1), 3),
            (Topology::fat_tree(4), 8),
        ];
        for (t, endpoints) in topologies {
            let specs: Vec<FlowSpec> = (0..endpoints)
                .flat_map(|src| (0..endpoints).map(move |dst| FlowSpec { src, dst }))
                .collect();
            let routes = t.compile(&specs);
            for (flow, &spec) in specs.iter().enumerate() {
                let path = t.path(flow, spec);
                assert_eq!(routes.path_lens[flow], path.len());
                for node in 0..t.n_nodes() {
                    let hop = routes.hops[node][flow];
                    let at = format!("node {node}, flow {flow} ({spec:?})");
                    match (hop.step, t.next_hop(node, flow, spec)) {
                        (Step::Eject, NextHop::Eject) => {}
                        (Step::Forward { link, peer }, NextHop::Forward { link: next }) => {
                            assert_eq!(link, next, "{at}");
                            let first = t.candidate_links(node, flow, spec).next();
                            assert_eq!(Some(link), first, "{at}");
                            assert_eq!(Some(peer), t.peer(node, link), "{at}");
                        }
                        (step, next) => panic!("{at}: compiled {step:?}, routed {next:?}"),
                    }
                    let position = path.iter().position(|&n| n == node);
                    assert_eq!(hop.position, position, "{at}");
                }
            }
            // The route tables, as they were compiled on their own.
            let mut expect: Vec<Vec<u32>> = vec![vec![0; specs.len()]; t.n_nodes()];
            for (flow, spec) in specs.iter().enumerate() {
                for &node in &t.path(flow, *spec) {
                    if let NextHop::Forward { link } = t.next_hop(node, flow, *spec) {
                        expect[node][flow] = link as u32;
                    }
                }
            }
            let tables = t.compile_route_tables(&specs);
            let tables: Vec<Vec<u32>> = tables.iter().map(|t| t.to_vec()).collect();
            assert_eq!(tables, expect);
        }
    }
}

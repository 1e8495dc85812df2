//! Flow-to-link decomposition (DESIGN.md §12.2): from an end-to-end
//! flow mix to the per-link flow sets the per-node simulators run.

use std::collections::BTreeMap;

use err_fabric::{FlowSpec, Topology};

/// A planned end-to-end flow: endpoints plus its packet mix. This is
/// the estimator's input unit — what a capacity planner adds to a
/// topology to ask "what if".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowLoad {
    /// Source and destination nodes.
    pub spec: FlowSpec,
    /// Packet length in flits.
    pub len: u32,
    /// Packets the flow intends to send (caps the simulated sample).
    pub packets: u64,
}

/// One flow's appearance on one link end, as preserved by
/// [`decompose`]: the identity and mix of [`FlowLoad`], keyed by
/// global flow id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFlowLoad {
    /// Global flow id (index into the decomposed `loads`).
    pub flow: usize,
    /// Packet length in flits.
    pub len: u32,
    /// Planned packet count.
    pub packets: u64,
}

/// One `(node, link)` egress end and every flow traversing it — the
/// decomposition output unit. Link `0` is the node's eject end.
#[derive(Clone, Debug)]
pub struct LinkLoad {
    /// Node owning the link.
    pub node: usize,
    /// Link index at the node (`0` = eject).
    pub link: usize,
    /// Flows crossing this end, in ascending flow-id order.
    pub flows: Vec<LinkFlowLoad>,
}

impl LinkLoad {
    /// Flits per lockstep interval this end must carry: the sum of
    /// its flows' packet lengths (each flow lands one packet per
    /// interval under the equal-rate closed loop, §12.3).
    pub fn demand_flits(&self) -> u64 {
        self.flows.iter().map(|f| u64::from(f.len)).sum()
    }
}

/// Decomposes `loads` over `topo`: every flow is placed on exactly
/// the `(node, link)` ends of its fault-free route
/// ([`Topology::links_on_path`]), destination eject end included,
/// with its length and count preserved verbatim — the conservation
/// property the §12 proptests pin. Output is ordered by
/// `(node, link)` and flows within a link by flow id, so equal inputs
/// decompose identically.
pub fn decompose(topo: &Topology, loads: &[FlowLoad]) -> Vec<LinkLoad> {
    let mut by_end: BTreeMap<(usize, usize), Vec<LinkFlowLoad>> = BTreeMap::new();
    for (flow, load) in loads.iter().enumerate() {
        for (node, link) in topo.links_on_path(flow, load.spec) {
            by_end.entry((node, link)).or_default().push(LinkFlowLoad {
                flow,
                len: load.len,
                packets: load.packets,
            });
        }
    }
    by_end
        .into_iter()
        .map(|((node, link), mut flows)| {
            flows.sort_by_key(|f| f.flow);
            LinkLoad { node, link, flows }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(src: usize, dst: usize, len: u32) -> FlowLoad {
        FlowLoad {
            spec: FlowSpec { src, dst },
            len,
            packets: 10,
        }
    }

    #[test]
    fn a_flow_lands_on_exactly_its_route() {
        let topo = Topology::mesh(3, 3);
        // 0 -> 8 routes XY: 0,1,2,5,8.
        let links = decompose(&topo, &[load(0, 8, 4)]);
        let ends: Vec<(usize, usize)> = links.iter().map(|l| (l.node, l.link)).collect();
        assert_eq!(ends, topo.links_on_path(0, FlowSpec { src: 0, dst: 8 }));
        for l in &links {
            assert_eq!(l.flows.len(), 1);
            assert_eq!(l.flows[0].flow, 0);
            assert_eq!(l.flows[0].len, 4);
            assert_eq!(l.demand_flits(), 4);
        }
        // The last end is the destination's eject.
        let last = links.iter().find(|l| l.node == 8).expect("dst end");
        assert_eq!(last.link, 0);
    }

    #[test]
    fn shared_links_merge_flows_in_id_order() {
        let topo = Topology::mesh(3, 1);
        // Both flows cross node 1's east link toward node 2.
        let links = decompose(&topo, &[load(1, 2, 2), load(0, 2, 3)]);
        let mid = links
            .iter()
            .find(|l| l.node == 1 && l.link != 0)
            .expect("shared cable");
        let ids: Vec<usize> = mid.flows.iter().map(|f| f.flow).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(mid.demand_flits(), 5);
    }

    #[test]
    fn local_flow_is_only_its_eject_end() {
        let topo = Topology::mesh(2, 2);
        let links = decompose(&topo, &[load(3, 3, 5)]);
        assert_eq!(links.len(), 1);
        assert_eq!((links[0].node, links[0].link), (3, 0));
    }
}

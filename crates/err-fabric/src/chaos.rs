//! Chaos at fabric scope: killing cables and whole nodes mid-run, and
//! healing them back (DESIGN.md §11.4 fail-stop half, §14 recovery
//! half).
//!
//! A fabric's plan is the runtime's `FaultPlan`. Its link, node and
//! freeze events fire on the fabric's **ejection clock** — total
//! packets delivered — which is deterministic under a deterministic
//! workload and monotone under any. The ejection whose clock value
//! reaches the next due event applies it itself, on its node's shard
//! worker, in plan order (§11.4), node kills and revives included,
//! since a node dies in place on its own threads (§14.1). A
//! `PanicShard` goes to its node's runtime, on that node's flit clock
//! (§9.5).

use std::sync::atomic::{AtomicBool, Ordering};

use err_runtime::FaultEvent;

/// A fired event, as recorded where it was applied.
#[derive(Clone, Copy, Debug)]
pub struct FabricFaultEvent {
    /// What fired. A `Freeze` is recorded twice: when it freezes and
    /// when it thaws.
    pub fault: FaultEvent,
    /// Ejection-clock value when it was applied (≥ its due value): that
    /// of the ejection that applied it — exactly the due value with one
    /// ejecting worker, node events included.
    pub fired_at: u64,
    /// Packets the killed node still held, settled once its workers
    /// swept (§14.1); 0 for everything but `KillNode`, and for a kill
    /// that joined an earlier kill's settlement.
    pub lost_packets: u64,
}

/// Shared liveness flags the Forwarders consult on every tail handoff:
/// one per inter-node cable and one per node. Set (false → true) by a
/// kill and cleared back by a heal (§14.1); read by the nodes' shard
/// workers.
pub(crate) struct DeadMap {
    links: Vec<Vec<AtomicBool>>,
    nodes: Vec<AtomicBool>,
}

impl DeadMap {
    /// All-alive flags for a fabric whose node `i` has `n_links[i]`
    /// links.
    pub(crate) fn new(n_links: &[usize]) -> Self {
        Self {
            links: n_links
                .iter()
                .map(|&n| (0..n).map(|_| AtomicBool::new(false)).collect())
                .collect(),
            nodes: n_links.iter().map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Sets (a cut) or clears (a heal) one cable's dead flag (§14.1).
    pub(crate) fn set_link(&self, node: usize, link: usize, dead: bool) {
        // ordering: Release pairs with the Acquire loads in
        // `link_dead`/`node_dead` — a forwarder that observes the flag
        // also observes every write made before the cut or the heal,
        // the replay side's included. [pair: chaos-dead-map @ self]
        self.links[node][link].store(dead, Ordering::Release);
    }

    /// Sets (a kill) or clears (a revive) a node's dead flag (§14.1).
    pub(crate) fn set_node(&self, node: usize, dead: bool) {
        // ordering: Release; see `set_link`.
        // [pair: chaos-dead-map @ self]
        self.nodes[node].store(dead, Ordering::Release);
    }

    /// Whether any cable or node is currently dead — the drain's
    /// held-for-recovery check (§14.3).
    pub(crate) fn any_dead(&self) -> bool {
        // ordering: Acquire pairs with the Release stores in `set_link`
        // and `set_node` — same pairing as `link_dead`/`node_dead`.
        // [pair: chaos-dead-map @ self]
        self.links
            .iter()
            .flatten()
            .any(|l| l.load(Ordering::Acquire))
            || self.nodes.iter().any(|n| n.load(Ordering::Acquire))
    }

    /// Whether `node`'s cable `link` has been cut.
    pub(crate) fn link_dead(&self, node: usize, link: usize) -> bool {
        // ordering: Acquire pairs with the Release stores above.
        // [pair: chaos-dead-map @ self]
        self.links[node][link].load(Ordering::Acquire)
    }

    /// Whether `node` has been killed.
    pub(crate) fn node_dead(&self, node: usize) -> bool {
        // ordering: Acquire pairs with the Release stores above.
        // [pair: chaos-dead-map @ self]
        self.nodes[node].load(Ordering::Acquire)
    }

    /// Whether crossing `link` from `node` is still viable: the cable
    /// is intact and the peer (if `Some`) alive.
    pub(crate) fn viable(&self, node: usize, link: usize, peer: Option<usize>) -> bool {
        !self.link_dead(node, link) && peer.is_none_or(|p| !self.node_dead(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_map_flags() {
        let d = DeadMap::new(&[3, 2]);
        assert!(d.viable(0, 1, Some(1)));
        d.set_link(0, 1, true);
        assert!(d.link_dead(0, 1));
        assert!(!d.viable(0, 1, Some(1)));
        assert!(d.viable(0, 2, Some(1)));
        d.set_node(1, true);
        assert!(!d.viable(0, 2, Some(1)));
        assert!(d.viable(0, 2, None));
    }

    #[test]
    fn heal_and_revive_restore_viability() {
        let d = DeadMap::new(&[3, 2]);
        d.set_link(0, 1, true);
        d.set_node(1, true);
        assert!(d.any_dead());
        d.set_link(0, 1, false);
        assert!(!d.link_dead(0, 1));
        assert!(!d.viable(0, 1, Some(1)), "peer still dead");
        d.set_node(1, false);
        assert!(d.viable(0, 1, Some(1)));
        assert!(!d.any_dead());
    }
}

//! Chaos at fabric scope: killing cables and whole nodes mid-run, and
//! healing them back (DESIGN.md §11.4 fail-stop half, §14 recovery
//! half).
//!
//! Events fire on the fabric's **ejection clock** — total packets
//! delivered — which is deterministic under a deterministic workload
//! and monotone under any. The ejection whose clock value reaches the
//! next due event applies it itself, on its node's shard worker, in
//! plan order (§11.4): link and panic events, and node kills and
//! revives too, since a node dies in place on its own threads (§14.1).

use std::sync::atomic::{AtomicBool, Ordering};

/// One scheduled fabric fault (or heal — §14.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FabricFault {
    /// Cuts one inter-node cable: the upstream Forwarder sees the dead
    /// flag and handles everything routed over it per the fabric's
    /// dead-link policy — reroute/dead-letter under `DropAndAccount`
    /// (§11.4), hold for replay under `HoldForRecovery` (§14.2).
    KillLink {
        /// Upstream node owning the cable.
        node: usize,
        /// That node's link index (never `0`, the eject end).
        link: usize,
        /// Ejection-clock value at which the cut happens.
        at: u64,
    },
    /// Kills a node in place (§14.1): its runtime goes down and
    /// refuses new submits, its workers count what they hold lost as a
    /// forced abort would (§9.4), and every neighbor treats links
    /// toward it as dead. The loss settles into the event's
    /// `lost_packets` once every worker has swept.
    KillNode {
        /// The node to kill.
        node: usize,
        /// Ejection-clock value at which the kill happens.
        at: u64,
    },
    /// Heals a cut cable (§14.1): clears the `DeadMap` flag — tail
    /// handoffs go back to the primary path — and, under
    /// `HoldForRecovery`, resurrects the upstream egress link so its
    /// death-held flits replay in FIFO order.
    HealLink {
        /// Upstream node owning the cable.
        node: usize,
        /// That node's link index (never `0`, the eject end).
        link: usize,
        /// Ejection-clock value at which the heal happens.
        at: u64,
    },
    /// Brings a killed node back (§14.1): clears its dead flag, brings
    /// back its neighbors' egress links toward it unless a link event
    /// cut the cable, and reopens its runtime, with an empty scheduler,
    /// once the kill has settled. A no-op if the node is alive.
    ReviveNode {
        /// The node to revive.
        node: usize,
        /// Ejection-clock value at which the revival happens.
        at: u64,
    },
    /// Arms a one-shot panic in `node`'s forwarder (§14.4): the next
    /// transit tail handed off at that node panics inside the
    /// forwarder body, exercising the catch-unwind supervision and the
    /// poisoned-cable path.
    PanicForwarder {
        /// The node whose forwarder will panic.
        node: usize,
        /// Ejection-clock value at which the panic is armed.
        at: u64,
    },
}

impl FabricFault {
    /// The ejection-clock deadline of the event.
    pub fn at(&self) -> u64 {
        match *self {
            FabricFault::KillLink { at, .. }
            | FabricFault::KillNode { at, .. }
            | FabricFault::HealLink { at, .. }
            | FabricFault::ReviveNode { at, .. }
            | FabricFault::PanicForwarder { at, .. } => at,
        }
    }
}

/// A deterministic schedule of fabric faults.
#[derive(Clone, Debug, Default)]
pub struct FabricFaultPlan {
    events: Vec<FabricFault>,
}

impl FabricFaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a cable cut at ejection-clock `at`.
    pub fn kill_link_at(mut self, node: usize, link: usize, at: u64) -> Self {
        assert!(link > 0, "link 0 is the eject end, not a cable");
        self.events.push(FabricFault::KillLink { node, link, at });
        self
    }

    /// Schedules a node kill at ejection-clock `at`.
    pub fn kill_node_at(mut self, node: usize, at: u64) -> Self {
        self.events.push(FabricFault::KillNode { node, at });
        self
    }

    /// Schedules a cable heal at ejection-clock `at` (§14.1).
    pub fn heal_link_at(mut self, node: usize, link: usize, at: u64) -> Self {
        assert!(link > 0, "link 0 is the eject end, not a cable");
        self.events.push(FabricFault::HealLink { node, link, at });
        self
    }

    /// Schedules a node revival at ejection-clock `at` (§14.1).
    pub fn revive_node_at(mut self, node: usize, at: u64) -> Self {
        self.events.push(FabricFault::ReviveNode { node, at });
        self
    }

    /// Schedules a one-shot forwarder panic at ejection-clock `at`
    /// (§14.4).
    pub fn panic_forwarder_at(mut self, node: usize, at: u64) -> Self {
        self.events.push(FabricFault::PanicForwarder { node, at });
        self
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FabricFault] {
        &self.events
    }

    /// Whether the plan schedules anything.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A fired fault, as recorded where it was applied.
#[derive(Clone, Copy, Debug)]
pub struct FabricFaultEvent {
    /// What fired.
    pub fault: FabricFault,
    /// Ejection-clock value when it was applied (≥ `at`): that of the
    /// ejection that applied it — exactly `at` with one ejecting
    /// worker, node events included.
    pub fired_at: u64,
    /// Packets the killed node still held, settled once its workers
    /// swept (§14.1); 0 for everything but `KillNode`, and for a kill
    /// that joined an earlier kill's settlement.
    pub lost_packets: u64,
}

/// One caught forwarder unwind (§14.4): what the supervisor salvaged
/// when a forwarder body panicked mid-flit instead of letting the
/// panic wedge the node's worker and the fabric gate.
#[derive(Clone, Debug)]
pub struct ForwarderExit {
    /// The node whose forwarder unwound.
    pub node: usize,
    /// Flow of the flit being processed when the panic hit.
    pub flow: usize,
    /// Packet id of that flit.
    pub packet: u64,
    /// The cable declared dead by the supervisor (the flit's next hop),
    /// or `None` when the flit was ejecting locally.
    pub poisoned_link: Option<usize>,
    /// The panic payload, when it was a string.
    pub message: String,
}

/// One-shot per-node panic triggers for [`FabricFault::PanicForwarder`]
/// (§14.4): armed when the event fires, consumed by the first transit tail
/// handed off at that node.
pub struct PanicSwitch {
    armed: Vec<AtomicBool>,
}

impl PanicSwitch {
    /// All-disarmed switches for `n_nodes` nodes.
    pub fn new(n_nodes: usize) -> Self {
        Self {
            armed: (0..n_nodes).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Arms `node`'s forwarder to panic on its next tail handoff.
    pub fn arm(&self, node: usize) {
        // ordering: Release pairs with the Acquire/AcqRel reads in
        // `take` — the forwarder that fires the panic observes every
        // write its armer made before the arming.
        // [pair: chaos-panic-arm @ self]
        self.armed[node].store(true, Ordering::Release);
    }

    /// Consumes `node`'s armed trigger, if set. The disarmed fast path
    /// is a plain load so the per-tail check costs no RMW.
    pub fn take(&self, node: usize) -> bool {
        // ordering: Acquire pairs with the Release store in `arm`.
        // [pair: chaos-panic-arm @ self]
        if !self.armed[node].load(Ordering::Acquire) {
            return false;
        }
        // ordering: AcqRel — exactly one forwarder thread consumes the
        // trigger even when several race the armed window.
        // [pair: chaos-panic-arm @ self]
        self.armed[node].swap(false, Ordering::AcqRel)
    }
}

/// Shared liveness flags the Forwarders consult on every tail handoff:
/// one per inter-node cable and one per node. Set (false → true) by a
/// kill and cleared back by a heal (§14.1); read by the nodes' shard
/// workers.
pub struct DeadMap {
    links: Vec<Vec<AtomicBool>>,
    nodes: Vec<AtomicBool>,
}

impl DeadMap {
    /// All-alive flags for a fabric whose node `i` has `n_links[i]`
    /// links.
    pub fn new(n_links: &[usize]) -> Self {
        Self {
            links: n_links
                .iter()
                .map(|&n| (0..n).map(|_| AtomicBool::new(false)).collect())
                .collect(),
            nodes: n_links.iter().map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Marks one cable dead.
    pub fn kill_link(&self, node: usize, link: usize) {
        // ordering: Release pairs with the Acquire loads in
        // `link_dead`/`node_dead` — a forwarder that observes the flag
        // also observes every write the killer made before the kill.
        // [pair: chaos-dead-map @ self]
        self.links[node][link].store(true, Ordering::Release);
    }

    /// Marks a node dead.
    pub fn kill_node(&self, node: usize) {
        // ordering: Release; see `kill_link`.
        // [pair: chaos-dead-map @ self]
        self.nodes[node].store(true, Ordering::Release);
    }

    /// Clears a cable's dead flag (§14.1): the next tail handoff may
    /// cross it again.
    pub fn heal_link(&self, node: usize, link: usize) {
        // ordering: Release pairs with the Acquire loads in
        // `link_dead`/`node_dead` — a forwarder that observes the heal
        // also observes every replay-side write made before it.
        // [pair: chaos-dead-map @ self]
        self.links[node][link].store(false, Ordering::Release);
    }

    /// Clears a node's dead flag (§14.1).
    pub fn revive_node(&self, node: usize) {
        // ordering: Release; see `heal_link`.
        // [pair: chaos-dead-map @ self]
        self.nodes[node].store(false, Ordering::Release);
    }

    /// Whether any cable or node is currently dead — the drain's
    /// held-for-recovery check (§14.3).
    pub fn any_dead(&self) -> bool {
        // ordering: Acquire pairs with the Release stores in the
        // kill/heal methods — same pairing as `link_dead`/`node_dead`.
        // [pair: chaos-dead-map @ self]
        self.links
            .iter()
            .flatten()
            .any(|l| l.load(Ordering::Acquire))
            || self.nodes.iter().any(|n| n.load(Ordering::Acquire))
    }

    /// Whether `node`'s cable `link` has been cut.
    pub fn link_dead(&self, node: usize, link: usize) -> bool {
        // ordering: Acquire pairs with the Release stores above.
        // [pair: chaos-dead-map @ self]
        self.links[node][link].load(Ordering::Acquire)
    }

    /// Whether `node` has been killed.
    pub fn node_dead(&self, node: usize) -> bool {
        // ordering: Acquire pairs with the Release stores above.
        // [pair: chaos-dead-map @ self]
        self.nodes[node].load(Ordering::Acquire)
    }

    /// Whether crossing `link` from `node` is still viable: the cable
    /// is intact and the peer (if `Some`) alive.
    pub fn viable(&self, node: usize, link: usize, peer: Option<usize>) -> bool {
        !self.link_dead(node, link) && peer.is_none_or(|p| !self.node_dead(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_orders_events() {
        let p = FabricFaultPlan::new()
            .kill_link_at(1, 2, 50)
            .kill_node_at(3, 100);
        assert_eq!(p.events().len(), 2);
        assert_eq!(p.events()[0].at(), 50);
        assert!(matches!(
            p.events()[1],
            FabricFault::KillNode { node: 3, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "eject end")]
    fn killing_the_eject_end_is_rejected() {
        let _ = FabricFaultPlan::new().kill_link_at(0, 0, 1);
    }

    #[test]
    fn dead_map_flags() {
        let d = DeadMap::new(&[3, 2]);
        assert!(d.viable(0, 1, Some(1)));
        d.kill_link(0, 1);
        assert!(d.link_dead(0, 1));
        assert!(!d.viable(0, 1, Some(1)));
        assert!(d.viable(0, 2, Some(1)));
        d.kill_node(1);
        assert!(!d.viable(0, 2, Some(1)));
        assert!(d.viable(0, 2, None));
    }

    #[test]
    fn heal_and_revive_restore_viability() {
        let d = DeadMap::new(&[3, 2]);
        d.kill_link(0, 1);
        d.kill_node(1);
        assert!(d.any_dead());
        d.heal_link(0, 1);
        assert!(!d.link_dead(0, 1));
        assert!(!d.viable(0, 1, Some(1)), "peer still dead");
        d.revive_node(1);
        assert!(d.viable(0, 1, Some(1)));
        assert!(!d.any_dead());
    }

    #[test]
    fn heal_plan_builders_order_and_validate() {
        let p = FabricFaultPlan::new()
            .kill_link_at(0, 1, 10)
            .heal_link_at(0, 1, 20)
            .kill_node_at(2, 30)
            .revive_node_at(2, 40)
            .panic_forwarder_at(1, 50);
        assert_eq!(p.events().len(), 5);
        assert_eq!(
            p.events().iter().map(|e| e.at()).collect::<Vec<_>>(),
            [10, 20, 30, 40, 50]
        );
        assert!(matches!(
            p.events()[1],
            FabricFault::HealLink {
                node: 0,
                link: 1,
                ..
            }
        ));
        assert!(matches!(
            p.events()[3],
            FabricFault::ReviveNode { node: 2, .. }
        ));
        assert!(matches!(
            p.events()[4],
            FabricFault::PanicForwarder { node: 1, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "eject end")]
    fn healing_the_eject_end_is_rejected() {
        let _ = FabricFaultPlan::new().heal_link_at(0, 0, 1);
    }

    #[test]
    fn panic_switch_is_one_shot() {
        let s = PanicSwitch::new(2);
        assert!(!s.take(0), "disarmed");
        s.arm(0);
        assert!(!s.take(1), "per-node");
        assert!(s.take(0));
        assert!(!s.take(0), "consumed");
    }
}

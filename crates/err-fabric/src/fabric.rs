//! The `Fabric` handle: boot, submit, drain, queries (DESIGN.md
//! §11.3), chaos on the ejection clock (§11.4), and fabric healing —
//! heal/revive events, a node's crash in place, and dead-letter replay
//! (§14).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use err_egress::{BufferedConfig, DeadLinkPolicy, EgressController};
use err_runtime::{
    AdmissionPolicy, DrainReport, EgressMode, FaultEvent, FaultKind, FaultPlan, Runtime,
    RuntimeConfig, RuntimeHandle, Schedule, Shape, SubmitError, Submitted,
};
use err_sched::Packet;

use crate::chaos::{DeadMap, FabricFaultEvent};
use crate::forwarder::Forwarder;
use crate::hops::{HopEntry, HopTracker, SLOTS};
use crate::stats::{FabricLedger, FlowSnapshot, HopSnapshot, NodeCounters};
use crate::topology::{FlowSpec, Topology};

/// The fabric-level closed+in-flight Dekker pair (the §10 `DrainGate`
/// shape): `close` is race-free against concurrent producers — once
/// the drain has seen `closed && in_flight == 0`, any later submit
/// must observe the closed flag and bail.
pub(crate) struct FabricGate {
    closed: AtomicBool,
    in_flight: AtomicU64,
}

impl FabricGate {
    pub(crate) fn new() -> Self {
        Self {
            closed: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
        }
    }

    /// Announces one in-flight packet; `false` if the fabric is closed
    /// (the announcement is rolled back).
    pub(crate) fn enter(&self) -> bool {
        // ordering: SeqCst Dekker with `close` — the increment must be
        // globally visible before the closed check, so either this
        // producer sees `closed` or the drain sees `in_flight > 0`.
        // [pair: fabric-gate @ self]
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        if self.closed.load(Ordering::SeqCst) {
            // ordering: SeqCst; rollback of the announcement above.
            // [pair: fabric-gate @ self]
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        true
    }

    /// Retires `n` in-flight packets (terminal outcome reached).
    pub(crate) fn depart(&self, n: u64) {
        // ordering: AcqRel RMW — Release publishes the packet's
        // terminal-outcome writes to the drain's Acquire-or-stronger
        // `in_flight` read; Acquire joins earlier departures on the
        // same counter. Downgraded from SeqCst: depart is not a side of
        // the `enter`/`close` Dekker (it never checks `closed`), so RMW
        // coherence on the one counter plus the Release edge is the
        // whole contract. [pair: fabric-gate @ self]
        let prev = self.in_flight.fetch_sub(n, Ordering::AcqRel);
        debug_assert!(prev >= n, "gate underflow");
    }

    /// Closes the fabric to new submits.
    pub(crate) fn close(&self) {
        // ordering: SeqCst Dekker with `enter`; see `enter`.
        // [pair: fabric-gate @ self]
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Packets submitted but not yet terminal.
    pub(crate) fn in_flight(&self) -> u64 {
        // ordering: SeqCst; pairs with `enter`/`depart` above.
        // [pair: fabric-gate @ self]
        self.in_flight.load(Ordering::SeqCst)
    }
}

/// Configuration of a [`Fabric`]: one buffered runtime per topology
/// node, same knobs fabric-wide (DESIGN.md §11.3).
#[derive(Clone)]
pub struct FabricConfig {
    /// The port graph and routing rule.
    pub topology: Topology,
    /// End-to-end flows, indexed by global flow id.
    pub flows: Vec<FlowSpec>,
    /// Shards (worker threads) per node.
    pub shards_per_node: usize,
    /// Per-shard ingress and egress ring capacity.
    pub ring_capacity: usize,
    /// Credits per link: the downstream flit buffer each cable models.
    pub credits: u64,
    /// Per-flow outstanding-flit cap at every node
    /// (`AdmissionPolicy::Backpressure`): the bound that turns a full
    /// downstream into refusals instead of unbounded queueing.
    pub max_backlog: u64,
    /// Chaos schedule (§9.5, §11.4): shard panics on their node's flit
    /// clock, the rest on the ejection clock; [`Fabric::start`] panics on
    /// a plan [`FaultPlan::validate`] rejects for [`shape`](Self::shape).
    pub fault_plan: Option<FaultPlan>,
    /// What a node does with flits bound for a dead cable (§14.2):
    /// `DropAndAccount` dead-letters them (the §11.4 fail-stop
    /// default); `HoldForRecovery` holds them — credits pinned
    /// upstream, flows parked — and replays them in FIFO order when
    /// the cable heals.
    pub dead_link_policy: DeadLinkPolicy,
}

impl FabricConfig {
    /// A fabric over `topology` with the given flows and defaults
    /// tuned for tests: 1 shard/node, modest rings and credits.
    pub fn new(topology: Topology, flows: Vec<FlowSpec>) -> Self {
        Self {
            topology,
            flows,
            shards_per_node: 1,
            ring_capacity: 256,
            credits: 16,
            max_backlog: 64,
            fault_plan: None,
            dead_link_policy: DeadLinkPolicy::default(),
        }
    }

    /// What a fault plan may name here: the topology's nodes and links
    /// (link 0 of each, its eject end, is no cable), `shards_per_node`
    /// shards each.
    pub fn shape(&self) -> Shape {
        let topo = &self.topology;
        Shape {
            links: (0..topo.n_nodes()).map(|n| topo.n_links(n)).collect(),
            shards: self.shards_per_node,
            fabric: true,
        }
    }
}

/// How a [`Fabric::drain_within`] ended (§14.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrainOutcome {
    /// Every in-flight packet reached a terminal outcome before the
    /// deadline.
    Graceful,
    /// Progress stalled while a `HoldForRecovery` link or node was
    /// still dead: the held flits are waiting for a heal that cannot
    /// arrive during a drain, so the drain exited early (bounded)
    /// into forced per-node shutdown with honest lost accounting,
    /// instead of spinning to the full deadline.
    HeldForRecovery,
    /// The deadline expired with packets still in flight.
    Forced,
}

/// Per-path facts for one flow (DESIGN.md §11.3, §11.5).
#[derive(Clone, Debug)]
pub struct PathStats {
    /// Inter-node hops on the fault-free route (0 when `src == dst`).
    pub hops: usize,
    /// Analytic minimum wormhole latency in cycles for a `len`-flit
    /// packet on an idle fabric: `hops + len − 1` — head pipelines one
    /// hop per cycle, the tail trails `len − 1` flit cycles behind,
    /// and ejection at the destination drains at line rate. This is
    /// exactly what `wormhole_net` measures on a serialized workload
    /// (§11.5), pinned by `tests/fabric_cross_validation.rs`.
    pub min_cycles: u64,
    /// The fault-free node path, source through destination.
    pub path: Vec<usize>,
    /// Per-hop latency attribution (§11.8), parallel to [`path`]:
    /// measured post-admission delay at each node on the route, in
    /// the node's service clock and in wall µs.
    ///
    /// [`path`]: PathStats::path
    pub per_hop: Vec<HopSnapshot>,
    /// The flow's ledger snapshot (latency here is measured in µs on
    /// the fabric's wall clock, not cycles).
    pub ledger: FlowSnapshot,
}

/// Final accounting returned by [`Fabric::drain_within`].
pub struct FabricReport {
    /// Per-node drain reports, indexed by node id: each node runs one
    /// runtime for the fabric's life, killed and revived in place
    /// (§14.1).
    pub node_reports: Vec<DrainReport>,
    /// Per-flow ledger at the end.
    pub flows: Vec<FlowSnapshot>,
    /// Per-flow per-hop attribution at the end (§11.8), indexed by
    /// flow then by hop position along the fault-free route. The
    /// ledger reads its hop means (`err-fabric.hop_mean_cycles.*`),
    /// and `tests/fabric_cross_validation.rs` checks that a flow's
    /// summed hop means never undercut [`PathStats::min_cycles`].
    pub flow_hops: Vec<Vec<HopSnapshot>>,
    /// Chaos events that fired (§11.4, §14.1).
    pub events: Vec<FabricFaultEvent>,
    /// Packets lost in killed or force-drained nodes.
    pub lost_packets: u64,
    /// Whether the drain deadline forced per-node aborts (`outcome !=
    /// Graceful` — kept alongside [`outcome`](Self::outcome) for
    /// existing call sites).
    pub forced: bool,
    /// How the drain ended (§14.3).
    pub outcome: DrainOutcome,
}

impl FabricReport {
    /// Total packets accepted at source nodes.
    pub fn submitted_packets(&self) -> u64 {
        self.flows.iter().map(|f| f.submitted).sum()
    }

    /// Total packets ejected at their destinations.
    pub fn ejected_packets(&self) -> u64 {
        self.flows.iter().map(|f| f.ejected_packets).sum()
    }

    /// Total admission drops across hops.
    pub fn dropped_packets(&self) -> u64 {
        self.flows.iter().map(|f| f.dropped).sum()
    }

    /// Total no-live-next-hop kills.
    pub fn dead_lettered_packets(&self) -> u64 {
        self.flows.iter().map(|f| f.dead_lettered).sum()
    }

    /// The fabric conservation identity (DESIGN.md §11.3): the
    /// per-node ledgers telescope into
    /// `submitted = ejected + dropped + dead_lettered + lost`.
    pub fn is_conserving(&self) -> bool {
        self.submitted_packets()
            == self.ejected_packets()
                + self.dropped_packets()
                + self.dead_lettered_packets()
                + self.lost_packets
    }

    /// Total flits delivered out of a backlog that crossed a death
    /// window (§14.2), summed over every node's egress links. Nonzero
    /// exactly when a heal replayed held traffic.
    pub fn replayed_flits(&self) -> u64 {
        self.node_reports
            .iter()
            .filter_map(|r| r.stats.egress.as_ref())
            .flat_map(|e| e.links.iter())
            .map(|l| l.replayed)
            .sum()
    }

    /// Jain's fairness index over per-flow ejected flits, restricted
    /// to flows that submitted anything — the blast-radius metric.
    pub fn jain_ejected(&self) -> f64 {
        let alloc: Vec<u64> = self
            .flows
            .iter()
            .filter(|f| f.submitted > 0)
            .map(|f| f.ejected_flits)
            .collect();
        fairness_metrics::jain_index(&alloc)
    }
}

/// Locks a cold-path table, poisoned or not: none is left half-written
/// by a panic, and a worker that panics holding one resumes (§9.2).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The fabric's fault state (§11.4, §14): the liveness flags the
/// Forwarders read, every node's ingress handle and egress controller,
/// the plan's ejection-clock events compiled into one schedule, and the
/// settlement of each killed node's loss (§14.1). Shared by the
/// `Fabric` and every `Forwarder`.
pub(crate) struct Faults {
    pub(crate) dead: DeadMap,
    pub(crate) policy: DeadLinkPolicy,
    topo: Arc<Topology>,
    /// Every node's ingress handle, installed once `Fabric::start` has
    /// booted every runtime: a Forwarder is built before the runtimes
    /// it hands off to. A tail hand-off reads its peer's here.
    handles: OnceLock<Vec<RuntimeHandle>>,
    /// Every node's egress controller, installed with `handles`.
    controllers: OnceLock<Vec<EgressController>>,
    /// What a killed node's settlement reads and departs (§14.1).
    counters: Vec<Arc<NodeCounters>>,
    ledger: Arc<FabricLedger>,
    gate: Arc<FabricGate>,
    /// The ejection-clock events: one compare per ejection, held while
    /// a kill awaits settlement, so every ejection looks. Its cursor
    /// moves under `state`'s lock.
    schedule: Schedule,
    state: Mutex<FireState>,
}

/// What firing and settling change, under the cold-path lock.
struct FireState {
    /// The events applied, in plan order.
    log: Vec<FabricFaultEvent>,
    /// Per node: the packets its kills have settled lost, over its life.
    settled: Vec<u64>,
    /// Per node: the `log` index of the kill whose loss is not settled
    /// yet.
    pending: Vec<Option<usize>>,
}

impl Faults {
    /// All-alive fault state for `topo`, with `schedule` to apply. Its
    /// events were validated at start, so applying one on a shard
    /// worker cannot panic.
    pub(crate) fn new(
        topo: Arc<Topology>,
        policy: DeadLinkPolicy,
        schedule: Schedule,
        counters: Vec<Arc<NodeCounters>>,
        ledger: Arc<FabricLedger>,
        gate: Arc<FabricGate>,
    ) -> Self {
        let n_nodes = topo.n_nodes();
        let link_counts: Vec<usize> = (0..n_nodes).map(|n| topo.n_links(n)).collect();
        Self {
            dead: DeadMap::new(&link_counts),
            policy,
            handles: OnceLock::new(),
            controllers: OnceLock::new(),
            counters,
            ledger,
            gate,
            schedule,
            topo,
            state: Mutex::new(FireState {
                log: Vec::new(),
                settled: vec![0; n_nodes],
                pending: vec![None; n_nodes],
            }),
        }
    }

    /// Installs every node's handle and controller, exactly once.
    pub(crate) fn install(&self, handles: Vec<RuntimeHandle>, controllers: Vec<EgressController>) {
        let fresh = self.handles.set(handles).is_ok() & self.controllers.set(controllers).is_ok();
        assert!(fresh, "nodes are installed exactly once");
    }

    /// Every node's ingress handle. Traffic flows only once `start` has
    /// installed them.
    #[inline]
    pub(crate) fn handles(&self) -> &[RuntimeHandle] {
        self.handles.get().expect("nodes are installed at start")
    }

    /// Cuts (`cut`) or heals one cable's `DeadMap` flag, then brings its
    /// upstream egress link in line ([`sync_egress`](Self::sync_egress)).
    fn set_link(&self, node: usize, link: usize, cut: bool) {
        self.dead.set_link(node, link, cut);
        self.sync_egress(node, link);
    }

    /// Sets `node`'s dead flag, then brings every neighbour's egress
    /// link toward it in line. A cable's own flag belongs to link events
    /// and stays as it is, so a revive never heals a cut cable (§14.1).
    fn set_node(&self, node: usize, dead: bool) {
        self.dead.set_node(node, dead);
        for link in 1..self.topo.n_links(node) {
            let peer = self.topo.peer(node, link).expect("cable has a peer");
            if let Some(back) = self.topo.link_to(peer, node) {
                self.sync_egress(peer, back);
            }
        }
    }

    /// `node`'s egress controller.
    fn controller(&self, node: usize) -> &EgressController {
        &self
            .controllers
            .get()
            .expect("nodes are installed at start")[node]
    }

    /// Brings `node`'s egress `link` in line with the `DeadMap`: under
    /// `HoldForRecovery` declared dead while the cable or its peer is,
    /// so its flits hold their credits (§14.2), and resurrected once
    /// both are alive, replaying them. Atomic swaps and a wake: it never
    /// blocks.
    fn sync_egress(&self, node: usize, link: usize) {
        let controller = self.controller(node);
        if self.dead.viable(node, link, self.topo.peer(node, link)) {
            controller.resurrect(link);
        } else if self.policy == DeadLinkPolicy::HoldForRecovery {
            controller.declare_dead(link);
        }
    }

    /// Applies the event `st.log` ends with, due at `due` (§11.4,
    /// §14.1): flag flips, a link frozen or thawed, a runtime taken down
    /// or back up, and wakes — nothing that waits.
    fn apply(&self, st: &mut FireState, due: u64, fault: FaultEvent) {
        let (node, link) = (fault.target.node, fault.target.link);
        match fault.kind {
            FaultKind::KillLink => self.set_link(node, link, true),
            FaultKind::HealLink => self.set_link(node, link, false),
            FaultKind::Freeze { until } if due < until => self.controller(node).freeze(link),
            FaultKind::Freeze { .. } => self.controller(node).release_stall(link),
            FaultKind::KillNode if !self.dead.node_dead(node) => {
                self.set_node(node, true);
                // A kill before the last one settled joins that
                // settlement: the runtime has not reopened since.
                st.pending[node].get_or_insert(st.log.len() - 1);
                self.handles()[node].set_down(true);
            }
            FaultKind::ReviveNode if self.dead.node_dead(node) => {
                self.set_node(node, false);
                // Otherwise the runtime reopens at its settlement, so no
                // packet is both counted lost and departed.
                if st.pending[node].is_none() {
                    self.handles()[node].set_down(false);
                }
            }
            // A kill of a dead node, a revive of a live one; a panic
            // goes to the node's runtime instead (`Fabric::start`).
            FaultKind::KillNode | FaultKind::ReviveNode | FaultKind::PanicShard => {}
        }
    }

    /// Called by each ejection with its clock value, before the packet
    /// departs the gate (§11.4): applies every event that value reached.
    #[inline]
    pub(crate) fn reach(&self, clock: u64) {
        if self.schedule.reached(clock) {
            self.fire(clock);
        }
    }

    /// Applies the events `clock` reached, in plan order, each recorded
    /// at `clock`, then settles what it can.
    #[cold]
    fn fire(&self, clock: u64) {
        let mut st = lock(&self.state);
        while let Some((due, fault)) = self.schedule.pop(clock) {
            st.log.push(FabricFaultEvent {
                fault,
                fired_at: clock,
                lost_packets: 0,
            });
            self.apply(&mut st, due, fault);
        }
        self.settle_locked(&mut st);
    }

    /// Settles every killed node whose workers have all swept (§14.1);
    /// a load and nothing more while no kill awaits settlement.
    pub(crate) fn settle(&self) {
        if self.schedule.held() {
            self.settle_locked(&mut lock(&self.state));
        }
    }

    /// Settlement: once every worker of a killed node has swept, what
    /// the node took in and never passed on — `enqueued − departed −
    /// settled` over its life — is lost, in the ledger, at the gate and
    /// in the kill's event. The runtime reopens if the node was revived
    /// meanwhile. Then holds the schedule while a kill is unsettled.
    fn settle_locked(&self, st: &mut FireState) {
        let FireState {
            log,
            settled,
            pending,
        } = st;
        for (node, kill) in pending.iter_mut().enumerate() {
            let Some(event) = *kill else { continue };
            let handle = &self.handles()[node];
            if !handle.set_down(true) {
                continue; // a worker has not swept yet
            }
            let lost = handle
                .stats()
                .enqueued_packets()
                .saturating_sub(self.counters[node].departed_packets() + settled[node]);
            settled[node] += lost;
            log[event].lost_packets = lost;
            *kill = None;
            if lost > 0 {
                self.ledger.on_lost(lost);
                self.gate.depart(lost);
            }
            if !self.dead.node_dead(node) {
                handle.set_down(false);
            }
        }
        self.schedule.hold(pending.iter().any(Option::is_some));
    }

    /// Ends the schedule before the drain shuts the nodes down (§14.3):
    /// no event fires after this, and a loss still unsettled is left to
    /// the forced drain's residual. Returns what each node has settled.
    fn stop(&self) -> Vec<u64> {
        let mut st = lock(&self.state);
        st.pending.fill(None);
        self.schedule.stop();
        st.settled.clone()
    }
}

/// A running multi-node fabric (DESIGN.md §11.3).
pub struct Fabric {
    topo: Arc<Topology>,
    specs: Arc<Vec<FlowSpec>>,
    /// One runtime per node for the fabric's life: a kill takes it down
    /// in place and a revive brings it back up (§14.1).
    nodes: Vec<Runtime>,
    counters: Vec<Arc<NodeCounters>>,
    ledger: Arc<FabricLedger>,
    gate: Arc<FabricGate>,
    faults: Arc<Faults>,
    tracker: Arc<HopTracker>,
    epoch: Instant,
    next_packet: AtomicU64,
}

impl Fabric {
    /// Boots one buffered runtime per node, compiles the route tables
    /// and the fault plan, and wires every Forwarder to every node's
    /// ingress handle. No thread is started or joined after this
    /// returns: a fabric runs its nodes' workers and nothing else
    /// (§14.1).
    pub fn start(cfg: FabricConfig) -> Self {
        let n_nodes = cfg.topology.n_nodes();
        assert!(n_nodes >= 1, "a fabric needs at least one node");
        assert!(!cfg.flows.is_empty(), "a fabric needs at least one flow");
        let shape = cfg.shape();
        let plan = cfg.fault_plan.unwrap_or_default();
        if let Err(e) = plan.validate(&shape) {
            panic!("fault plan: {e}");
        }
        // A panic fires on its node's flit clock, in the node's runtime;
        // every other event on the ejection clock.
        let on_nodes = |e: &FaultEvent| e.kind == FaultKind::PanicShard;
        let node_plan = |node| {
            let panics = plan
                .events()
                .iter()
                .filter(|e| on_nodes(e) && e.target.node == node);
            panics.fold(FaultPlan::new(), |p, e| {
                p.panic_shard_at(0, e.target.shard, e.at)
            })
        };
        let topo = Arc::new(cfg.topology);
        let specs = Arc::new(cfg.flows);
        // One pass: each node's route table for its egress stage, and
        // its hop table — verdict, peer and path position per flow —
        // for its Forwarder; the ledger gets one accumulator cell per
        // path node (§11.8).
        let routes = topo.compile(&specs);
        let tracker = Arc::new(HopTracker::with_slots(SLOTS));
        let ledger = Arc::new(FabricLedger::with_hops(&routes.path_lens));
        let gate = Arc::new(FabricGate::new());
        let policy = cfg.dead_link_policy;
        let counters: Vec<Arc<NodeCounters>> = (0..n_nodes)
            .map(|_| Arc::new(NodeCounters::default()))
            .collect();
        let ejection = plan.events().iter().filter(|e| !on_nodes(e));
        let faults = Arc::new(Faults::new(
            Arc::clone(&topo),
            policy,
            Schedule::new(ejection.copied()),
            counters.clone(),
            Arc::clone(&ledger),
            Arc::clone(&gate),
        ));
        let epoch = Instant::now();

        let mut nodes = Vec::with_capacity(n_nodes);
        let mut handles = Vec::with_capacity(n_nodes);
        for (node, node_counters) in counters.iter().enumerate() {
            let rc = RuntimeConfig {
                shards: cfg.shards_per_node,
                n_flows: specs.len(),
                ring_capacity: cfg.ring_capacity,
                batch_packets: 32,
                batch_flits: 128,
                admission: AdmissionPolicy::Backpressure {
                    max_backlog: cfg.max_backlog,
                },
                egress: EgressMode::Buffered(BufferedConfig {
                    ring_capacity: cfg.ring_capacity,
                    credits: cfg.credits,
                    n_links: topo.n_links(node),
                    route_table: Some(Arc::clone(&routes.tables[node])),
                    dead_link_deadline: None,
                    dead_link_policy: policy,
                }),
                fault_plan: Some(node_plan(node)),
                ..RuntimeConfig::default()
            };
            let fwd = Forwarder::new(
                node,
                Arc::clone(&topo),
                Arc::clone(&specs),
                Arc::clone(&ledger),
                Arc::clone(node_counters),
                Arc::clone(&gate),
                Arc::clone(&faults),
                Arc::clone(&tracker),
                Arc::clone(&routes.hops[node]),
                epoch,
            );
            let (rt, handle) = Runtime::start_with_egress(rc, move |_shard| Some(fwd.clone()));
            handles.push(handle);
            nodes.push(rt);
        }
        let controllers = nodes
            .iter()
            .map(|rt: &Runtime| {
                rt.egress_controller()
                    .expect("buffered mode always has a controller")
                    .clone()
            })
            .collect();
        faults.install(handles, controllers);
        // Events at 0 fire before traffic starts.
        faults.reach(0);

        Self {
            topo,
            specs,
            nodes,
            counters,
            ledger,
            gate,
            faults,
            tracker,
            epoch,
            next_packet: AtomicU64::new(0),
        }
    }

    /// Submits one `len`-flit packet on `flow`, stamping its arrival
    /// with the fabric's microsecond clock. Blocks under source-node
    /// admission backpressure.
    pub fn submit(&self, flow: usize, len: u32) -> Result<Submitted, SubmitError> {
        self.submit_inner(flow, len, None)
    }

    /// Like [`submit`](Self::submit) but non-blocking: a full source
    /// ingress returns `Err(SubmitError::TimedOut)` instead of
    /// waiting (nothing is counted; the caller may retry).
    pub fn try_submit(&self, flow: usize, len: u32) -> Result<Submitted, SubmitError> {
        self.submit_inner(flow, len, Some(Duration::ZERO))
    }

    fn submit_inner(
        &self,
        flow: usize,
        len: u32,
        timeout: Option<Duration>,
    ) -> Result<Submitted, SubmitError> {
        assert!(flow < self.specs.len(), "unknown flow {flow}");
        if !self.gate.enter() {
            return Err(SubmitError::Closed);
        }
        let src = self.specs[flow].src;
        let handle = &self.faults.handles()[src];
        let pkt = Packet {
            id: self.next_packet.fetch_add(1, Ordering::Relaxed),
            flow,
            len,
            arrival: self.epoch.elapsed().as_micros() as u64,
        };
        // §11.8 entry stamp at the source node, before the submit that
        // makes the packet visible there (the ingress ring's push
        // carries it to the worker): entry is the arrival, so hop 0
        // includes any wait in source admission and the hop µs sum to
        // the end-to-end latency. A packet that never enters leaves a
        // stale stamp no later id matches.
        self.tracker.stamp(
            pkt.id,
            HopEntry {
                entry_us: pkt.arrival,
                entry_served_flits: handle.served_flits(),
            },
        );
        let res = match timeout {
            Some(t) => handle.submit_within(pkt, t),
            None => handle.submit(pkt),
        };
        match &res {
            Ok(Submitted::Enqueued) => self.ledger.on_submitted(flow),
            Ok(Submitted::Dropped) => {
                // Source admission accounted it: submitted and
                // terminally dropped in one step.
                self.ledger.on_submitted(flow);
                self.ledger.on_dropped(flow);
                self.gate.depart(1);
            }
            Err(e) => {
                // Rejected / timed out / source node down: the packet
                // never entered the fabric; roll the announcement back.
                self.gate.depart(1);
                if *e == SubmitError::Closed {
                    // A down node reopens at its settlement (§14.1).
                    self.faults.settle();
                }
            }
        }
        res
    }

    /// Packets submitted but not yet at a terminal outcome. Settles a
    /// killed node's loss first if its workers have swept (§14.1).
    pub fn in_flight(&self) -> u64 {
        self.faults.settle();
        self.gate.in_flight()
    }

    /// The live per-flow ledger.
    pub fn ledger(&self) -> &FabricLedger {
        &self.ledger
    }

    /// The topology the fabric realizes.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The egress controller of `node` (freeze/thaw its links; link
    /// `0` is the node's eject end).
    pub fn controller(&self, node: usize) -> &EgressController {
        self.nodes[node]
            .egress_controller()
            .expect("buffered mode always has a controller")
    }

    /// Refused tail handoffs observed at `node`. Each one is a
    /// backpressure event on some outgoing cable — a tail offered once
    /// per wake or 100 µs poll of the node's worker and turned away —
    /// not a retry count: an idle worker looks at its wake predicate,
    /// it does not re-offer (DESIGN.md §7).
    pub fn refusals(&self, node: usize) -> u64 {
        self.counters[node].refusals()
    }

    /// Per-path facts for `flow` (DESIGN.md §11.3): fault-free hop
    /// count, the analytic minimum latency for `len`-flit packets,
    /// and the flow's current ledger.
    pub fn path_stats(&self, flow: usize, len: u32) -> PathStats {
        let spec = self.specs[flow];
        let path = self.topo.path(flow, spec);
        let hops = path.len() - 1;
        PathStats {
            hops,
            min_cycles: hops as u64 + u64::from(len) - 1,
            per_hop: self.ledger.hop_snapshot(flow),
            path,
            ledger: self.ledger.flow(flow),
        }
    }

    /// Jain's index over per-flow ejected flits so far (flows that
    /// submitted nothing are excluded).
    pub fn jain_ejected(&self) -> f64 {
        let alloc: Vec<u64> = (0..self.specs.len())
            .map(|f| self.ledger.flow(f))
            .filter(|f| f.submitted > 0)
            .map(|f| f.ejected_flits)
            .collect();
        fairness_metrics::jain_index(&alloc)
    }

    /// Whether the drain's wait can no longer make progress because a
    /// `HoldForRecovery` cable or node is still dead: the held flits
    /// are waiting for a heal the closed fabric can't deliver (§14.3).
    /// An egress link is held dead only while a `DeadMap` flag says so
    /// (`Faults::sync_egress`), so the flags tell.
    fn held_for_recovery(&self) -> bool {
        self.faults.policy == DeadLinkPolicy::HoldForRecovery && self.faults.dead.any_dead()
    }

    /// Graceful multi-node drain (DESIGN.md §11.3): close the gate,
    /// put every node's egress in drain mode (a frozen link stops
    /// blocking, as in a runtime's own drain; a dead one still holds,
    /// §9.3), wait for in-flight to reach zero, then shut every node
    /// down — by then all are empty, so zero flits are lost on this
    /// path. A deadline miss falls back to forced per-node
    /// `shutdown_within`, honestly reported (`forced`, extra
    /// `lost_packets`). Under `HoldForRecovery` with a cable still
    /// dead, the wait exits as soon as progress stops instead of
    /// spinning to the deadline — the held flits need a heal that
    /// cannot arrive once the fabric is closed (§14.3,
    /// `DrainOutcome::HeldForRecovery`).
    pub fn drain_within(self, deadline: Duration) -> FabricReport {
        /// How long ejections and departures may stand still before a
        /// dead held link is judged permanent for this drain.
        const HELD_STAGNATION: Duration = Duration::from_millis(150);
        self.gate.close();
        // A freeze whose thaw is due at an ejection the frozen traffic
        // would have to make never thaws: drain mode lets it through.
        for node in 0..self.nodes.len() {
            self.controller(node).links().set_draining(true);
        }
        let end = Instant::now() + deadline;
        let mut outcome = DrainOutcome::Graceful;
        let mut last_progress = (self.gate.in_flight(), self.ledger.ejected_total());
        let mut stagnant_since = Instant::now();
        // Traffic ejects through the wait, and an event it reaches
        // fires, a kill's settlement included (§14.3).
        while self.in_flight() > 0 {
            if Instant::now() >= end {
                outcome = DrainOutcome::Forced;
                break;
            }
            let progress = (self.gate.in_flight(), self.ledger.ejected_total());
            if progress != last_progress {
                last_progress = progress;
                stagnant_since = Instant::now();
            } else if stagnant_since.elapsed() >= HELD_STAGNATION && self.held_for_recovery() {
                outcome = DrainOutcome::HeldForRecovery;
                break;
            }
            std::thread::yield_now();
        }
        let forced = outcome != DrainOutcome::Graceful;
        let settled = self.faults.stop();
        let node_reports = self
            .nodes
            .into_iter()
            .enumerate()
            .map(|(node, rt)| {
                if !forced {
                    return rt.shutdown();
                }
                let rep = rt.shutdown_within(Duration::from_millis(200));
                // Joined workers: the node's counters are final, so what
                // it took in and neither passed on nor settled at a kill
                // is what the forced drain cost it.
                let residual = rep
                    .stats
                    .enqueued_packets()
                    .saturating_sub(self.counters[node].departed_packets() + settled[node]);
                if residual > 0 {
                    self.ledger.on_lost(residual);
                    self.gate.depart(residual);
                }
                rep
            })
            .collect();
        let events = std::mem::take(&mut lock(&self.faults.state).log);
        FabricReport {
            node_reports,
            flow_hops: (0..self.specs.len())
                .map(|fl| self.ledger.hop_snapshot(fl))
                .collect(),
            flows: self.ledger.snapshot(),
            events,
            lost_packets: self.ledger.lost(),
            forced,
            outcome,
        }
    }
}

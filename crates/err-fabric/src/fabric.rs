//! The `Fabric` handle: boot, submit, drain, queries (DESIGN.md
//! §11.3), the chaos monitor (§11.4), and fabric healing — heal/revive
//! events, dead-letter replay, and forwarder supervision (§14).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

// The handle-table lock routes through the loom shim so the §14.1
// incarnation-swap edges are model-checkable (err-check model suite).
use crate::sync::RwLock;
use std::time::{Duration, Instant};

use err_egress::{BufferedConfig, DeadLinkPolicy, EgressController, StallPlan};
use err_runtime::{
    AdmissionPolicy, DrainReport, EgressMode, Runtime, RuntimeConfig, RuntimeHandle, SubmitError,
    Submitted,
};
use err_sched::Packet;

use crate::chaos::{
    DeadMap, FabricFault, FabricFaultEvent, FabricFaultPlan, ForwarderExit, PanicSwitch,
};
use crate::forwarder::Forwarder;
use crate::hops::{HopEntry, HopTracker};
use crate::stats::{FabricLedger, FlowSnapshot, HopSnapshot, NodeCounters};
use crate::topology::{FlowSpec, Topology};

/// The fabric-level closed+in-flight Dekker pair (the §10 `DrainGate`
/// shape): `close` is race-free against concurrent producers — once
/// the drain has seen `closed && in_flight == 0`, any later submit
/// must observe the closed flag and bail.
pub struct FabricGate {
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
    /// Deterministic egress stall schedules, per node id.
    pub node_stalls: Vec<(usize, StallPlan)>,
    /// Chaos schedule on the ejection clock (§11.4, §14.1).
    pub fault_plan: Option<FabricFaultPlan>,
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
            node_stalls: Vec::new(),
            fault_plan: None,
            dead_link_policy: DeadLinkPolicy::default(),
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

/// Per-node ingress handles behind swappable slots (§14.1): set once
/// at boot — resolving the Forwarder↔Runtime wiring cycle — and
/// swapped only by the chaos monitor when a `ReviveNode` boots a
/// node's successor runtime. Readers clone the handle (an `Arc` bump)
/// instead of borrowing, so a revive never invalidates a reference
/// another thread holds. The `RwLock` is read-locked once per tail
/// handoff / submit — never per flit — and write-locked once per
/// revive.
///
/// Generic over the handle type so the err-check model suite can
/// drive the *shipped* swap protocol with a miniature handle whose
/// payload lives in a tracked cell; the fabric instantiates the
/// default `RuntimeHandle`. The happens-before contract: everything
/// the monitor wrote booting the successor before [`swap`] is visible
/// to any reader whose [`get`] clones the new incarnation (write-
/// unlock `Release` → read-lock `Acquire` on the slot), and a clone
/// taken from the dying incarnation mid-handoff stays valid — `get`
/// hands out owned clones, never references into the slot.
///
/// [`swap`]: HandleTable::swap
/// [`get`]: HandleTable::get
pub struct HandleTable<H = RuntimeHandle> {
    slots: OnceLock<Vec<RwLock<H>>>,
}

impl<H: Clone> HandleTable<H> {
    /// An empty table; [`install`](HandleTable::install) arms it once.
    pub fn new() -> Self {
        Self {
            slots: OnceLock::new(),
        }
    }

    /// Installs the boot-time handles, exactly once.
    pub fn install(&self, handles: Vec<H>) {
        self.slots
            .set(handles.into_iter().map(RwLock::new).collect())
            .unwrap_or_else(|_| unreachable!("handles are installed exactly once"));
    }

    /// The current handle of `node`; `None` only during the boot race
    /// (a forwarder asking before `install` ran).
    pub fn get(&self, node: usize) -> Option<H> {
        self.slots
            .get()
            .map(|s| s[node].read().expect("handle slot poisoned").clone())
    }

    /// Replaces `node`'s handle with its successor's (§14.1).
    pub fn swap(&self, node: usize, handle: H) {
        let slots = self.slots.get().expect("swap before install");
        *slots[node].write().expect("handle slot poisoned") = handle;
    }
}

impl<H: Clone> Default for HandleTable<H> {
    fn default() -> Self {
        Self::new()
    }
}

/// Forwarder unwind reports (§14.4). Lives here rather than in the
/// forwarder so the cold-path lock stays out of the hot module; it is
/// touched once per caught panic and once at drain.
#[derive(Default)]
pub(crate) struct ExitLog {
    exits: Mutex<Vec<ForwarderExit>>,
}

impl ExitLog {
    pub(crate) fn record(&self, exit: ForwarderExit) {
        self.exits.lock().expect("exit log poisoned").push(exit);
    }

    fn take(&self) -> Vec<ForwarderExit> {
        std::mem::take(&mut *self.exits.lock().expect("exit log poisoned"))
    }
}

/// Everything needed to boot (or re-boot) one node's runtime: its
/// immutable config and its Forwarder prototype. `ReviveNode` replays
/// this recipe for the successor runtime (§14.1).
struct NodeBoot {
    rc: RuntimeConfig,
    fwd: Forwarder,
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
    /// Per-node drain reports, indexed by node id.
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
    /// Forwarder unwinds caught by the §14.4 supervisor.
    pub forwarder_exits: Vec<ForwarderExit>,
    /// Drain reports of node incarnations that were killed and later
    /// revived (§14.1), as `(node, report)` — `node_reports[node]`
    /// holds each node's *final* incarnation; earlier ones land here
    /// so their enqueue/serve counts stay auditable.
    pub prior_reports: Vec<(usize, DrainReport)>,
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

    /// Total packets that crossed an alternate link.
    pub fn rerouted_packets(&self) -> u64 {
        self.flows.iter().map(|f| f.rerouted).sum()
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
    /// window (§14.2), summed over every node incarnation's egress
    /// links. Nonzero exactly when a heal replayed held traffic.
    pub fn replayed_flits(&self) -> u64 {
        self.node_reports
            .iter()
            .chain(self.prior_reports.iter().map(|(_, r)| r))
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

struct Monitor {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

/// A running multi-node fabric (DESIGN.md §11.3).
pub struct Fabric {
    topo: Arc<Topology>,
    specs: Arc<Vec<FlowSpec>>,
    /// Node runtimes; an entry goes `None` when chaos kills the node
    /// (its report moves into `killed`) and is refilled by a
    /// `ReviveNode` (§14.1). Control-plane only — the hot path uses
    /// `handles`.
    nodes: Arc<Mutex<Vec<Option<Runtime>>>>,
    killed: Arc<Mutex<Vec<(usize, DrainReport)>>>,
    handles: Arc<HandleTable>,
    /// Per-node egress controllers; a slot is swapped when a revive
    /// boots a successor runtime, so access goes through the lock and
    /// callers get clones.
    controllers: Arc<Mutex<Vec<EgressController>>>,
    counters: Vec<Arc<NodeCounters>>,
    /// Per node: `departed_packets()` reading at its last kill, so a
    /// revived node's residual is judged against its own incarnation's
    /// enqueues, not its predecessors' departures (§14.1).
    departed_base: Arc<Vec<AtomicU64>>,
    ledger: Arc<FabricLedger>,
    gate: Arc<FabricGate>,
    dead: Arc<DeadMap>,
    panic_arm: Arc<PanicSwitch>,
    exits: Arc<ExitLog>,
    policy: DeadLinkPolicy,
    tracker: Arc<HopTracker>,
    epoch: Instant,
    next_packet: AtomicU64,
    events: Arc<Mutex<Vec<FabricFaultEvent>>>,
    monitor: Option<Monitor>,
}

impl Fabric {
    /// Boots one buffered runtime per node, compiles the route tables,
    /// and wires every Forwarder to every node's ingress handle.
    pub fn start(cfg: FabricConfig) -> Self {
        let n_nodes = cfg.topology.n_nodes();
        assert!(n_nodes >= 1, "a fabric needs at least one node");
        assert!(!cfg.flows.is_empty(), "a fabric needs at least one flow");
        let topo = Arc::new(cfg.topology);
        let specs = Arc::new(cfg.flows);
        let tables = topo.compile_route_tables(&specs);
        // Per-flow path membership for §11.8 hop attribution:
        // `hop_index[flow * n_nodes + node]` is the node's position on
        // the flow's fault-free path (u16::MAX off-path), and the
        // ledger gets one accumulator cell per path node.
        let mut hop_index = vec![u16::MAX; specs.len() * n_nodes];
        let mut hop_counts = vec![0usize; specs.len()];
        for (flow, spec) in specs.iter().enumerate() {
            let path = topo.path(flow, *spec);
            hop_counts[flow] = path.len();
            for (i, &node) in path.iter().enumerate() {
                hop_index[flow * n_nodes + node] =
                    u16::try_from(i).expect("paths are far shorter than u16::MAX");
            }
        }
        let hop_index = Arc::new(hop_index);
        let tracker = Arc::new(HopTracker::new());
        let ledger = Arc::new(FabricLedger::with_hops(&hop_counts));
        let gate = Arc::new(FabricGate::new());
        let link_counts: Vec<usize> = (0..n_nodes).map(|n| topo.n_links(n)).collect();
        let dead = Arc::new(DeadMap::new(&link_counts));
        let panic_arm = Arc::new(PanicSwitch::new(n_nodes));
        let exits = Arc::new(ExitLog::default());
        let policy = cfg.dead_link_policy;
        let epoch = Instant::now();
        let handle_table = Arc::new(HandleTable::new());
        let counters: Vec<Arc<NodeCounters>> = (0..n_nodes)
            .map(|_| Arc::new(NodeCounters::default()))
            .collect();

        let mut nodes = Vec::with_capacity(n_nodes);
        let mut handles = Vec::with_capacity(n_nodes);
        let mut controllers = Vec::with_capacity(n_nodes);
        let mut boots = Vec::with_capacity(n_nodes);
        for node in 0..n_nodes {
            let stall_plan = cfg
                .node_stalls
                .iter()
                .find(|(n, _)| *n == node)
                .map(|(_, p)| p.clone());
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
                    route_table: Some(tables[node].clone()),
                    stall_plan,
                    dead_link_deadline: None,
                    dead_link_policy: policy,
                }),
                ..RuntimeConfig::default()
            };
            let fwd = Forwarder::new(
                node,
                Arc::clone(&topo),
                Arc::clone(&specs),
                Arc::clone(&handle_table),
                Arc::clone(&ledger),
                Arc::clone(&counters[node]),
                Arc::clone(&gate),
                Arc::clone(&dead),
                Arc::clone(&tracker),
                Arc::clone(&hop_index),
                epoch,
                policy,
                Arc::clone(&panic_arm),
                Arc::clone(&exits),
            );
            let (rt, handle) = {
                let fwd = fwd.clone();
                Runtime::start_with_egress(rc.clone(), move |_shard| Some(fwd.clone()))
            };
            controllers.push(
                rt.egress_controller()
                    .expect("buffered mode always has a controller")
                    .clone(),
            );
            handles.push(handle);
            nodes.push(Some(rt));
            boots.push(NodeBoot { rc, fwd });
        }
        handle_table.install(handles);

        let nodes = Arc::new(Mutex::new(nodes));
        let killed = Arc::new(Mutex::new(Vec::new()));
        let events = Arc::new(Mutex::new(Vec::new()));
        let controllers = Arc::new(Mutex::new(controllers));
        let departed_base = Arc::new((0..n_nodes).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
        let monitor = cfg.fault_plan.filter(|p| !p.is_empty()).map(|plan| {
            let stop = Arc::new(AtomicBool::new(false));
            let shared = MonitorShared {
                ledger: Arc::clone(&ledger),
                dead: Arc::clone(&dead),
                nodes: Arc::clone(&nodes),
                killed: Arc::clone(&killed),
                gate: Arc::clone(&gate),
                topo: Arc::clone(&topo),
                counters: counters.clone(),
                events: Arc::clone(&events),
                controllers: Arc::clone(&controllers),
                handles: Arc::clone(&handle_table),
                boots: Arc::new(boots),
                panic_arm: Arc::clone(&panic_arm),
                departed_base: Arc::clone(&departed_base),
                policy,
            };
            let (registered, on_registered) = std::sync::mpsc::channel();
            let handle = {
                let stop = Arc::clone(&stop);
                // panic-policy: the monitor only injects faults; if it
                // panics, unfired plan events are lost, the data path
                // keeps running, and the drain-time `join` absorbs the
                // unwind without poisoning anything.
                std::thread::Builder::new()
                    .name("err-fabric-monitor".into())
                    .spawn(move || run_monitor(plan, stop, shared, registered))
                    .expect("spawning fabric monitor")
            };
            // Traffic starts when `start` returns. Until the monitor is
            // armed for its first event, that event fires whenever the
            // monitor next gets a CPU, however far the clock has run by
            // then. (`Err`: the monitor died first; nothing fires.)
            let _ = on_registered.recv();
            Monitor { stop, handle }
        });

        Self {
            topo,
            specs,
            nodes,
            killed,
            handles: handle_table,
            controllers,
            counters,
            departed_base,
            ledger,
            gate,
            dead,
            panic_arm,
            exits,
            policy,
            tracker,
            epoch,
            next_packet: AtomicU64::new(0),
            events,
            monitor,
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
        let handle = self
            .handles
            .get(src)
            .expect("handles are installed before the fabric is handed out");
        let pkt = Packet {
            id: self.next_packet.fetch_add(1, Ordering::Relaxed),
            flow,
            len,
            arrival: self.epoch.elapsed().as_micros() as u64,
        };
        let res = match timeout {
            Some(t) => handle.submit_within(pkt, t),
            None => handle.submit(pkt),
        };
        match &res {
            Ok(Submitted::Enqueued) => {
                self.ledger.on_submitted(flow);
                // §11.8 entry stamp at the source node, post-admission
                // (a pre-submit stamp would charge admission-blocked
                // time to the source hop). Losing the race against an
                // idle node serving the whole packet first costs one
                // hop sample, never a misattributed one.
                self.tracker.stamp(
                    pkt.id,
                    HopEntry {
                        node: src,
                        entry_us: self.epoch.elapsed().as_micros() as u64,
                        entry_served_flits: handle.served_flits(),
                    },
                );
            }
            Ok(Submitted::Dropped) => {
                // Source admission accounted it: submitted and
                // terminally dropped in one step.
                self.ledger.on_submitted(flow);
                self.ledger.on_dropped(flow);
                self.gate.depart(1);
            }
            Err(_) => {
                // Rejected / timed out / source node dead: the packet
                // never entered the fabric; roll the announcement back.
                self.gate.depart(1);
            }
        }
        res
    }

    /// Packets submitted but not yet at a terminal outcome.
    pub fn in_flight(&self) -> u64 {
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
    /// `0` is the node's eject end). Returns a clone because a
    /// `ReviveNode` can swap the slot for the successor runtime's
    /// controller at any moment (§14.1).
    pub fn controller(&self, node: usize) -> EgressController {
        self.controllers.lock().expect("controller table poisoned")[node].clone()
    }

    /// Refused tail handoffs observed at `node`. Each one is a
    /// backpressure event on some outgoing cable — a tail offered once
    /// per wake or 100 µs poll of the node's worker and turned away —
    /// not a retry count: an idle worker looks at its wake predicate,
    /// it does not re-offer (DESIGN.md §7).
    pub fn refusals(&self, node: usize) -> u64 {
        self.counters[node].refusals()
    }

    /// Cuts one inter-node cable immediately — the deterministic
    /// equivalent of a `FabricFault::KillLink` without monitor timing
    /// (link `0`, the eject end, is not a cable). Under
    /// `HoldForRecovery` the upstream egress link is declared dead
    /// too, so its flits hold their credits instead of spinning
    /// against refusals (§14.2).
    pub fn cut_link(&self, node: usize, link: usize) {
        assert!(link > 0 && link < self.topo.n_links(node), "not a cable");
        self.dead.kill_link(node, link);
        if self.policy == DeadLinkPolicy::HoldForRecovery {
            self.controller(node).declare_dead(link);
        }
    }

    /// Heals a cable cut by [`cut_link`](Self::cut_link) or a
    /// `KillLink` — the deterministic equivalent of a
    /// `FabricFault::HealLink` (§14.1): clears the `DeadMap` flag so
    /// tails take the primary path again and resurrects the upstream
    /// egress link, replaying any death-held flits in FIFO order.
    pub fn heal_link(&self, node: usize, link: usize) {
        assert!(link > 0 && link < self.topo.n_links(node), "not a cable");
        self.dead.heal_link(node, link);
        self.controller(node).resurrect(link);
    }

    /// Arms a one-shot panic in `node`'s forwarder — the deterministic
    /// equivalent of a `FabricFault::PanicForwarder` (§14.4).
    pub fn arm_forwarder_panic(&self, node: usize) {
        self.panic_arm.arm(node);
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
    fn held_for_recovery(&self) -> bool {
        if self.policy != DeadLinkPolicy::HoldForRecovery {
            return false;
        }
        if self.dead.any_dead() {
            return true;
        }
        let controllers = self.controllers.lock().expect("controller table poisoned");
        controllers.iter().any(|c| {
            let links = c.links();
            (0..links.n_links()).any(|l| links.is_dead(l))
        })
    }

    /// Graceful multi-node drain (DESIGN.md §11.3): close the gate,
    /// wait for in-flight to reach zero, then shut every node down —
    /// by then all are empty, so zero flits are lost on this path. A
    /// deadline miss falls back to forced per-node `shutdown_within`,
    /// honestly reported (`forced`, extra `lost_packets`). Under
    /// `HoldForRecovery` with a cable still dead, the wait exits as
    /// soon as progress stops instead of spinning to the deadline —
    /// the held flits need a heal that cannot arrive once the fabric
    /// is closed (§14.3, `DrainOutcome::HeldForRecovery`).
    pub fn drain_within(mut self, deadline: Duration) -> FabricReport {
        /// How long ejections and departures may stand still before a
        /// dead held link is judged permanent for this drain.
        const HELD_STAGNATION: Duration = Duration::from_millis(150);
        self.gate.close();
        let end = Instant::now() + deadline;
        let mut outcome = DrainOutcome::Graceful;
        let mut last_progress = (self.gate.in_flight(), self.ledger.ejected_total());
        let mut stagnant_since = Instant::now();
        while self.gate.in_flight() > 0 {
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
        if let Some(m) = self.monitor.take() {
            // ordering: Release pairs with the monitor's Acquire stop
            // check; the join is the real synchronization point.
            // [pair: monitor-stop @ self]
            m.stop.store(true, Ordering::Release);
            self.ledger.wake_monitor();
            let _ = m.handle.join();
        }
        let mut slots = self.nodes.lock().expect("fabric node table poisoned");
        let mut drains: Vec<Option<DrainReport>> = (0..slots.len()).map(|_| None).collect();
        for (node, slot) in slots.iter_mut().enumerate() {
            if let Some(rt) = slot.take() {
                let report = if forced {
                    let rep = rt.shutdown_within(Duration::from_millis(200));
                    let base = self.departed_base[node].load(Ordering::Relaxed);
                    let residual = node_residual(&rep, &self.counters[node], base);
                    if residual > 0 {
                        self.ledger.on_lost(residual);
                        self.gate.depart(residual);
                    }
                    rep
                } else {
                    rt.shutdown()
                };
                drains[node] = Some(report);
            }
        }
        drop(slots);
        // Killed incarnations: a node that was killed and never
        // revived contributes its kill-time report as the node report;
        // one that was revived keeps the successor's report in place
        // and the predecessors' land in `prior_reports` (§14.1).
        let mut prior: Vec<(usize, DrainReport)> = self
            .killed
            .lock()
            .expect("kill log poisoned")
            .drain(..)
            .collect();
        for (node, slot) in drains.iter_mut().enumerate() {
            if slot.is_none() {
                let last = prior
                    .iter()
                    .rposition(|(n, _)| *n == node)
                    .expect("every node drained exactly once");
                *slot = Some(prior.remove(last).1);
            }
        }
        let events = std::mem::take(&mut *self.events.lock().expect("event log poisoned"));
        FabricReport {
            node_reports: drains
                .into_iter()
                .map(|d| d.expect("every node drained exactly once"))
                .collect(),
            flow_hops: (0..self.specs.len())
                .map(|fl| self.ledger.hop_snapshot(fl))
                .collect(),
            flows: self.ledger.snapshot(),
            events,
            lost_packets: self.ledger.lost(),
            forced,
            outcome,
            forwarder_exits: self.exits.take(),
            prior_reports: prior,
        }
    }
}

/// Packets that entered `rep`'s node and never departed through its
/// Forwarder: the §11.4 lost computation (valid only after the node's
/// workers are joined, so the counters are final).
/// `departed_base` is the counter reading when the node's previous
/// incarnation died (0 for a never-killed node), since `NodeCounters`
/// accumulates across revives while `rep` counts one incarnation
/// (§14.1).
fn node_residual(rep: &DrainReport, counters: &NodeCounters, departed_base: u64) -> u64 {
    rep.stats
        .enqueued_packets()
        .saturating_sub(counters.departed_packets().saturating_sub(departed_base))
}

/// Everything the chaos monitor shares with the fabric: the fault
/// targets (dead map, node table, controllers, handles) plus the §14.1
/// boot recipes a `ReviveNode` replays.
struct MonitorShared {
    ledger: Arc<FabricLedger>,
    dead: Arc<DeadMap>,
    nodes: Arc<Mutex<Vec<Option<Runtime>>>>,
    killed: Arc<Mutex<Vec<(usize, DrainReport)>>>,
    gate: Arc<FabricGate>,
    topo: Arc<Topology>,
    counters: Vec<Arc<NodeCounters>>,
    events: Arc<Mutex<Vec<FabricFaultEvent>>>,
    controllers: Arc<Mutex<Vec<EgressController>>>,
    handles: Arc<HandleTable>,
    boots: Arc<Vec<NodeBoot>>,
    panic_arm: Arc<PanicSwitch>,
    departed_base: Arc<Vec<AtomicU64>>,
    policy: DeadLinkPolicy,
}

impl MonitorShared {
    fn controller(&self, node: usize) -> EgressController {
        self.controllers.lock().expect("controller table poisoned")[node].clone()
    }
}

fn run_monitor(
    plan: FabricFaultPlan,
    stop: Arc<AtomicBool>,
    shared: MonitorShared,
    registered: std::sync::mpsc::Sender<()>,
) {
    shared.ledger.register_monitor();
    let mut registered = Some(registered);
    let mut pending: Vec<FabricFault> = plan.events().to_vec();
    // ordering: Acquire pairs with the Release store in
    // drain_within. [pair: monitor-stop @ self]
    let stopped = || stop.load(Ordering::Acquire);
    // Asleep until the ejection that brings the clock to the next due
    // event, or the drain's stop. The drain stops the monitor only once
    // nothing is in flight: traffic keeps ejecting through a drain, and
    // a heal scheduled inside that window must still fire (§14.3).
    while let Some(due) = pending.iter().map(FabricFault::at).min() {
        shared.ledger.arm_monitor(due);
        if let Some(registered) = registered.take() {
            let _ = registered.send(());
        }
        shared.ledger.sleep_until(due, stopped);
        if stopped() {
            return;
        }
        let clock = shared.ledger.ejected_total();
        let mut fired = Vec::new();
        pending.retain(|f| {
            if f.at() <= clock {
                fired.push(*f);
                false
            } else {
                true
            }
        });
        for fault in fired {
            let lost = apply_fault(fault, &shared);
            shared
                .events
                .lock()
                .expect("event log poisoned")
                .push(FabricFaultEvent {
                    fault,
                    fired_at: clock,
                    lost_packets: lost,
                });
        }
    }
}

fn apply_fault(fault: FabricFault, shared: &MonitorShared) -> u64 {
    let MonitorShared {
        dead, topo, policy, ..
    } = shared;
    let hold = *policy == DeadLinkPolicy::HoldForRecovery;
    match fault {
        FabricFault::KillLink { node, link, .. } => {
            dead.kill_link(node, link);
            if hold {
                // The upstream egress link dies with the cable, so its
                // flits hold their credits in the flusher core's pending
                // queue instead of polling against forwarder refusals
                // (§14.2).
                shared.controller(node).declare_dead(link);
            }
            0
        }
        FabricFault::HealLink { node, link, .. } => {
            dead.heal_link(node, link);
            // Resurrect unconditionally: a no-op unless the egress
            // link was declared dead (the Hold path above, or a
            // deadline watchdog).
            shared.controller(node).resurrect(link);
            0
        }
        FabricFault::KillNode { node, .. } => {
            // Cut every cable touching the node first, so neighbors
            // reroute instead of queueing against a corpse, then
            // force-drain it (§9.4 ladder). The handle refuses new
            // submits the moment the runtime closes its gate.
            dead.kill_node(node);
            for link in 1..topo.n_links(node) {
                dead.kill_link(node, link);
                if hold {
                    // The corpse's own cables die at the egress layer
                    // too: its workers then dead-letter their held
                    // flits at shutdown and exit, instead of polling
                    // refused tails until the forced abort (§14.1).
                    shared.controller(node).declare_dead(link);
                }
                let peer = topo.peer(node, link).expect("cable has a peer");
                if let Some(back) = topo.link_to(peer, node) {
                    dead.kill_link(peer, back);
                    if hold {
                        // Neighbors hold (rather than dead-letter)
                        // what they owe the corpse, pending a revival
                        // (§14.2).
                        shared.controller(peer).declare_dead(back);
                    }
                }
            }
            let rt = shared
                .nodes
                .lock()
                .expect("fabric node table poisoned")
                .get_mut(node)
                .and_then(Option::take);
            let Some(rt) = rt else {
                return 0; // already killed
            };
            let rep = rt.shutdown_within(Duration::from_millis(50));
            // Joined workers: the node's counters are final, so
            // entered − departed is exactly what it ate.
            let base = shared.departed_base[node].load(Ordering::Relaxed);
            let lost = node_residual(&rep, &shared.counters[node], base);
            // Re-base for a possible successor incarnation (§14.1):
            // its residual is judged on departures made after this
            // point.
            shared.departed_base[node]
                .store(shared.counters[node].departed_packets(), Ordering::Relaxed);
            if lost > 0 {
                shared.ledger.on_lost(lost);
                shared.gate.depart(lost);
            }
            shared
                .killed
                .lock()
                .expect("kill log poisoned")
                .push((node, rep));
            lost
        }
        FabricFault::ReviveNode { node, .. } => {
            let mut slots = shared.nodes.lock().expect("fabric node table poisoned");
            if slots[node].is_some() {
                return 0; // alive: nothing to revive
            }
            // Boot the successor from the §14.1 recipe. Forwarders of
            // other nodes never take this lock, so holding it across
            // the boot cannot deadlock the data plane; the drain takes
            // it only after stopping this monitor.
            let boot = &shared.boots[node];
            let (rt, handle) = {
                let fwd = boot.fwd.clone();
                Runtime::start_with_egress(boot.rc.clone(), move |_shard| Some(fwd.clone()))
            };
            let controller = rt
                .egress_controller()
                .expect("buffered mode always has a controller")
                .clone();
            shared
                .controllers
                .lock()
                .expect("controller table poisoned")[node] = controller;
            shared.handles.swap(node, handle);
            slots[node] = Some(rt);
            drop(slots);
            // Liveness flags last: a tail handed off the instant the
            // flags clear must find the successor's handle installed.
            shared.dead.revive_node(node);
            for link in 1..topo.n_links(node) {
                dead.heal_link(node, link);
                shared.controller(node).resurrect(link);
                let peer = topo.peer(node, link).expect("cable has a peer");
                if let Some(back) = topo.link_to(peer, node) {
                    dead.heal_link(peer, back);
                    // Replays whatever the neighbor held for the
                    // corpse (§14.2); a no-op under DropAndAccount.
                    shared.controller(peer).resurrect(back);
                }
            }
            0
        }
        FabricFault::PanicForwarder { node, .. } => {
            shared.panic_arm.arm(node);
            0
        }
    }
}

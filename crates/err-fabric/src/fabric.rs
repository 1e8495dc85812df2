//! The `Fabric` handle: boot, submit, drain, queries (DESIGN.md
//! §11.3), chaos on the ejection clock (§11.4), and fabric healing —
//! heal/revive events, dead-letter replay, and forwarder supervision
//! (§14).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, OnceLock, PoisonError};

// The handle table's lock and generation counter route through the
// loom shim so the §14.1 incarnation-swap edges are model-checkable
// (err-check model suite).
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
/// swapped only by the node-event thread when a `ReviveNode` boots a
/// node's successor runtime. Readers clone the handle (an `Arc` bump)
/// instead of borrowing, so a revive never invalidates a reference
/// another thread holds. Every write bumps a **generation** counter
/// after the slot write. A Forwarder reads the slots through its own
/// [`HandleCache`], which re-reads them only when the generation has
/// moved: a tail hand-off pays one `Acquire` load, not a read lock. The
/// `RwLock`s are read-locked per source submit ([`get`]) and per cache
/// refresh, and write-locked once per revive.
///
/// Generic over the handle type so the err-check model suite can
/// drive the *shipped* swap protocol with a miniature handle whose
/// payload lives in a tracked cell; the fabric instantiates the
/// default `RuntimeHandle`. The happens-before contract: everything
/// the node-event thread wrote booting the successor before [`swap`]
/// is visible to any reader whose [`get`] clones the new incarnation
/// (write-unlock `Release` → read-lock `Acquire` on the slot), and to
/// any cache that sees the bump and refreshes (generation `Release`
/// bump → `Acquire` load); a clone taken from the dying incarnation
/// mid-handoff stays valid — `get` hands out owned clones, never
/// references into the slot.
///
/// [`swap`]: HandleTable::swap
/// [`get`]: HandleTable::get
pub struct HandleTable<H = RuntimeHandle> {
    slots: OnceLock<Vec<RwLock<H>>>,
    /// Slot writes so far: 0 before [`install`](HandleTable::install),
    /// then one more per [`swap`](HandleTable::swap).
    generation: crate::sync::AtomicU64,
}

impl<H: Clone> HandleTable<H> {
    /// An empty table; [`install`](HandleTable::install) arms it once.
    pub fn new() -> Self {
        Self {
            slots: OnceLock::new(),
            generation: crate::sync::AtomicU64::new(0),
        }
    }

    /// Installs the boot-time handles, exactly once.
    pub fn install(&self, handles: Vec<H>) {
        self.slots
            .set(handles.into_iter().map(RwLock::new).collect())
            .unwrap_or_else(|_| unreachable!("handles are installed exactly once"));
        self.bump();
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
        self.bump();
    }

    /// Publishes a slot write to the caches.
    fn bump(&self) {
        // ordering: Release, after the slot write — a cache whose
        // Acquire `generation` load reads this bump re-reads the slots
        // and sees the write, the successor's boot writes with it.
        // [pair: handle-generation @ self]
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// The number of slot writes so far; a [`HandleCache`] refreshes
    /// when it moves.
    pub fn generation(&self) -> u64 {
        // ordering: Acquire, pairs with the Release bump in `bump`:
        // reading a bump orders this thread's slot reads after the
        // write it published. [pair: handle-generation @ self]
        self.generation.load(Ordering::Acquire)
    }
}

impl<H: Clone> Default for HandleTable<H> {
    fn default() -> Self {
        Self::new()
    }
}

/// One reader's copy of a [`HandleTable`]'s slots (§14.1), re-read
/// only when the table's generation has moved. Each Forwarder clone
/// owns one, so a tail hand-off finds its peer's handle without a lock
/// or an `Arc` clone. A handle cached from a dying incarnation stays a
/// valid clone: its submit ends in `SubmitError::Closed`, exactly as a
/// clone `get` handed out just before the swap would.
#[derive(Clone)]
pub struct HandleCache<H = RuntimeHandle> {
    /// The generation the slots were read at; 0 before the first read
    /// after `install`.
    generation: u64,
    handles: Vec<H>,
}

impl<H: Clone> HandleCache<H> {
    /// An empty cache: every [`get`](HandleCache::get) is `None` until a
    /// [`refresh`](HandleCache::refresh) after the table's `install`.
    pub fn new() -> Self {
        Self {
            generation: 0,
            handles: Vec::new(),
        }
    }

    /// Re-reads every slot of `table` if its generation has moved since
    /// the last read. The generation is loaded before the slots, so a
    /// swap racing the re-read leaves the cache a generation behind —
    /// it re-reads on the next call — never a generation ahead.
    pub fn refresh(&mut self, table: &HandleTable<H>) {
        let generation = table.generation();
        if generation == self.generation {
            return;
        }
        self.handles.clear();
        if let Some(slots) = table.slots.get() {
            let read = |slot: &RwLock<H>| slot.read().expect("handle slot poisoned").clone();
            self.handles.extend(slots.iter().map(read));
        }
        self.generation = generation;
    }

    /// `node`'s handle as of the last [`refresh`](HandleCache::refresh).
    pub fn get(&self, node: usize) -> Option<&H> {
        self.handles.get(node)
    }
}

impl<H: Clone> Default for HandleCache<H> {
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
        lock(&self.exits).push(exit);
    }

    fn take(&self) -> Vec<ForwarderExit> {
        std::mem::take(&mut *lock(&self.exits))
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

/// Locks a cold-path table, poisoned or not: none is left half-written
/// by a panic, and link events lock them inside the §14.4 fence, where
/// a panic would read as a forwarder exit.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Panics unless `link` is one of `node`'s cables (link `0`, the eject
/// end, is not one).
fn assert_cable(topo: &Topology, node: usize, link: usize) {
    assert!(
        node < topo.n_nodes() && (1..topo.n_links(node)).contains(&link),
        "not a cable"
    );
}

/// The fabric's fault state (§11.4, §14): the liveness flags and panic
/// switches the Forwarders read, the node controllers a link event
/// drives, and the fault plan compiled onto the ejection clock. Shared
/// by the `Fabric`, every `Forwarder` and the node-event thread.
pub(crate) struct Faults {
    pub(crate) dead: DeadMap,
    pub(crate) panic_arm: PanicSwitch,
    pub(crate) policy: DeadLinkPolicy,
    topo: Arc<Topology>,
    /// Per-node egress controllers, handed out as clones: a revive
    /// swaps in its successor's.
    controllers: Mutex<Vec<EgressController>>,
    /// The plan, sorted by `at` (plan order kept among equal `at`).
    plan: Vec<FabricFault>,
    /// `at` of the first event not yet reached (`u64::MAX`: none left),
    /// the one compare an ejection pays. It only grows, so a stale
    /// `Relaxed` read costs a look under the lock, never an event.
    next_due: AtomicU64,
    state: Mutex<FireState>,
}

/// What firing changes, under the cold-path lock.
struct FireState {
    /// Index in `plan` of the first event not yet reached.
    cursor: usize,
    /// Events on the node-event thread's queue, not yet applied: while
    /// any is, every event reached joins the queue behind it.
    queued: usize,
    /// The node-event thread's queue: `None` when the plan has no node
    /// event, and once the drain has stopped the thread.
    node_events: Option<mpsc::Sender<FabricFault>>,
    /// The events applied, in plan order.
    log: Vec<FabricFaultEvent>,
}

impl Faults {
    /// All-alive fault state for `topo`, with `plan` compiled. Every
    /// event is checked here, before traffic starts, so applying one
    /// on a shard worker cannot panic.
    pub(crate) fn new(
        topo: Arc<Topology>,
        policy: DeadLinkPolicy,
        plan: Option<FabricFaultPlan>,
    ) -> Self {
        let mut plan = plan.map(|p| p.events().to_vec()).unwrap_or_default();
        for fault in &plan {
            match *fault {
                FabricFault::KillLink { node, link, .. }
                | FabricFault::HealLink { node, link, .. } => assert_cable(&topo, node, link),
                FabricFault::KillNode { node, .. }
                | FabricFault::ReviveNode { node, .. }
                | FabricFault::PanicForwarder { node, .. } => {
                    assert!(node < topo.n_nodes(), "no such node");
                }
            }
        }
        plan.sort_by_key(FabricFault::at);
        let link_counts: Vec<usize> = (0..topo.n_nodes()).map(|n| topo.n_links(n)).collect();
        Self {
            dead: DeadMap::new(&link_counts),
            panic_arm: PanicSwitch::new(topo.n_nodes()),
            policy,
            controllers: Mutex::new(Vec::with_capacity(topo.n_nodes())),
            next_due: AtomicU64::new(plan.first().map_or(u64::MAX, FabricFault::at)),
            plan,
            topo,
            state: Mutex::new(FireState {
                cursor: 0,
                queued: 0,
                node_events: None,
                log: Vec::new(),
            }),
        }
    }

    fn controller(&self, node: usize) -> EgressController {
        lock(&self.controllers)[node].clone()
    }

    /// Cuts (`cut`) or heals one cable's `DeadMap` flag and its upstream
    /// egress link: declared dead under `HoldForRecovery`, so its flits
    /// hold their credits (§14.2), and resurrected on a heal, replaying
    /// them. Flag flips, atomic swaps and a wake: it never blocks.
    pub(crate) fn set_link(&self, node: usize, link: usize, cut: bool) {
        assert_cable(&self.topo, node, link);
        let controller = self.controller(node);
        if cut {
            self.dead.kill_link(node, link);
            if self.policy == DeadLinkPolicy::HoldForRecovery {
                controller.declare_dead(link);
            }
        } else {
            self.dead.heal_link(node, link);
            controller.resurrect(link);
        }
    }

    /// [`set_link`](Self::set_link) on every cable touching `node`, in
    /// both directions.
    fn set_node_cables(&self, node: usize, cut: bool) {
        for link in 1..self.topo.n_links(node) {
            self.set_link(node, link, cut);
            let peer = self.topo.peer(node, link).expect("cable has a peer");
            if let Some(back) = self.topo.link_to(peer, node) {
                self.set_link(peer, back, cut);
            }
        }
    }

    /// Applies a link or panic event; `false` for a node event, which
    /// only the node-event thread applies.
    fn apply_inline(&self, fault: FabricFault) -> bool {
        match fault {
            FabricFault::KillLink { node, link, .. } => self.set_link(node, link, true),
            FabricFault::HealLink { node, link, .. } => self.set_link(node, link, false),
            FabricFault::PanicForwarder { node, .. } => self.panic_arm.arm(node),
            FabricFault::KillNode { .. } | FabricFault::ReviveNode { .. } => return false,
        }
        true
    }

    /// Called by each ejection with its clock value, before the packet
    /// departs the gate (§11.4): applies every event that value reached.
    #[inline]
    pub(crate) fn reach(&self, clock: u64) {
        if clock >= self.next_due.load(Ordering::Relaxed) {
            self.fire(clock);
        }
    }

    /// Applies the events `clock` reached, in plan order: a link or
    /// panic event here, recorded at `clock`; a node event, and every
    /// event reached while one is queued, on the node-event thread.
    #[cold]
    fn fire(&self, clock: u64) {
        let mut st = lock(&self.state);
        while let Some(&fault) = self.plan.get(st.cursor).filter(|f| f.at() <= clock) {
            st.cursor += 1;
            if st.queued == 0 && self.apply_inline(fault) {
                st.log.push(FabricFaultEvent {
                    fault,
                    fired_at: clock,
                    lost_packets: 0,
                });
            } else if st
                .node_events
                .as_ref()
                .is_some_and(|q| q.send(fault).is_ok())
            {
                st.queued += 1;
            }
            // Otherwise the drain has stopped the node-event thread (or
            // it died): the event never fires.
        }
        let next = self.plan.get(st.cursor).map_or(u64::MAX, FabricFault::at);
        self.next_due.store(next, Ordering::Relaxed);
    }
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
    counters: Vec<Arc<NodeCounters>>,
    /// Per node: `departed_packets()` reading at its last kill, so a
    /// revived node's residual is judged against its own incarnation's
    /// enqueues, not its predecessors' departures (§14.1).
    departed_base: Arc<Vec<AtomicU64>>,
    ledger: Arc<FabricLedger>,
    gate: Arc<FabricGate>,
    faults: Arc<Faults>,
    exits: Arc<ExitLog>,
    tracker: Arc<HopTracker>,
    epoch: Instant,
    next_packet: AtomicU64,
    /// Applies `KillNode` / `ReviveNode` (§11.4); spawned only when
    /// the plan has one.
    node_thread: Option<std::thread::JoinHandle<()>>,
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
        // One pass: each node's route table for its egress stage, and
        // its hop table — verdict, peer and path position per flow —
        // for its Forwarder; the ledger gets one accumulator cell per
        // path node (§11.8).
        let routes = topo.compile(&specs);
        let tracker = Arc::new(HopTracker::new());
        let ledger = Arc::new(FabricLedger::with_hops(&routes.path_lens));
        let gate = Arc::new(FabricGate::new());
        let policy = cfg.dead_link_policy;
        let faults = Arc::new(Faults::new(Arc::clone(&topo), policy, cfg.fault_plan));
        let exits = Arc::new(ExitLog::default());
        let epoch = Instant::now();
        let handle_table = Arc::new(HandleTable::new());
        let counters: Vec<Arc<NodeCounters>> = (0..n_nodes)
            .map(|_| Arc::new(NodeCounters::default()))
            .collect();

        let mut nodes = Vec::with_capacity(n_nodes);
        let mut handles = Vec::with_capacity(n_nodes);
        let mut boots = Vec::with_capacity(n_nodes);
        for (node, node_counters) in counters.iter().enumerate() {
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
                    route_table: Some(Arc::clone(&routes.tables[node])),
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
                Arc::clone(node_counters),
                Arc::clone(&gate),
                Arc::clone(&faults),
                Arc::clone(&tracker),
                Arc::clone(&routes.hops[node]),
                epoch,
                Arc::clone(&exits),
            );
            let (rt, handle) = {
                let fwd = fwd.clone();
                Runtime::start_with_egress(rc.clone(), move |_shard| Some(fwd.clone()))
            };
            lock(&faults.controllers).push(
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
        let departed_base = Arc::new((0..n_nodes).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
        let node_event = |f: &FabricFault| {
            matches!(
                f,
                FabricFault::KillNode { .. } | FabricFault::ReviveNode { .. }
            )
        };
        let node_events = faults.plan.iter().any(node_event).then(|| {
            let (queue, events) = mpsc::channel();
            lock(&faults.state).node_events = Some(queue);
            let shared = NodeEvents {
                faults: Arc::clone(&faults),
                ledger: Arc::clone(&ledger),
                nodes: Arc::clone(&nodes),
                killed: Arc::clone(&killed),
                gate: Arc::clone(&gate),
                counters: counters.clone(),
                handles: Arc::clone(&handle_table),
                boots,
                departed_base: Arc::clone(&departed_base),
            };
            (events, shared)
        });
        // Events at 0 fire before traffic starts: the link events here,
        // and whatever the node-event queue took, on this thread too.
        faults.reach(0);
        let node_thread = node_events.map(|(events, shared)| {
            events
                .try_iter()
                .for_each(|fault| apply_queued(fault, &shared));
            // panic-policy: the thread only injects faults; if it
            // panics, the events still queued and every one reached
            // after are lost, the data path keeps running, and the
            // drain-time `join` absorbs the unwind without poisoning
            // anything.
            std::thread::Builder::new()
                .name("err-fabric-node-events".into())
                .spawn(move || events.iter().for_each(|fault| apply_queued(fault, &shared)))
                .expect("spawning the fabric node-event thread")
        });

        Self {
            topo,
            specs,
            nodes,
            killed,
            handles: handle_table,
            counters,
            departed_base,
            ledger,
            gate,
            faults,
            exits,
            tracker,
            epoch,
            next_packet: AtomicU64::new(0),
            node_thread,
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
                self.tracker.replace(
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
        self.faults.controller(node)
    }

    /// Refused tail handoffs observed at `node`. Each one is a
    /// backpressure event on some outgoing cable — a tail offered once
    /// per wake or 100 µs poll of the node's worker and turned away —
    /// not a retry count: an idle worker looks at its wake predicate,
    /// it does not re-offer (DESIGN.md §7).
    pub fn refusals(&self, node: usize) -> u64 {
        self.counters[node].refusals()
    }

    /// Cuts one inter-node cable now, as a `FabricFault::KillLink`
    /// would (link `0`, the eject end, is not a cable). Under
    /// `HoldForRecovery` the upstream egress link is declared dead
    /// too, so its flits hold their credits instead of spinning
    /// against refusals (§14.2).
    pub fn cut_link(&self, node: usize, link: usize) {
        self.faults.set_link(node, link, true);
    }

    /// Heals a cable cut by [`cut_link`](Self::cut_link) or a
    /// `KillLink` — the deterministic equivalent of a
    /// `FabricFault::HealLink` (§14.1): clears the `DeadMap` flag so
    /// tails take the primary path again and resurrects the upstream
    /// egress link, replaying any death-held flits in FIFO order.
    pub fn heal_link(&self, node: usize, link: usize) {
        self.faults.set_link(node, link, false);
    }

    /// Arms a one-shot panic in `node`'s forwarder — the deterministic
    /// equivalent of a `FabricFault::PanicForwarder` (§14.4).
    pub fn arm_forwarder_panic(&self, node: usize) {
        self.faults.panic_arm.arm(node);
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
        if self.faults.policy != DeadLinkPolicy::HoldForRecovery {
            return false;
        }
        if self.faults.dead.any_dead() {
            return true;
        }
        lock(&self.faults.controllers).iter().any(|c| {
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
        // The node-event thread outlives the wait loop: traffic ejects
        // through a drain, and an event it reaches there still fires
        // (§14.3). Without its sender the queue ends once it is empty.
        drop(lock(&self.faults.state).node_events.take());
        if let Some(thread) = self.node_thread.take() {
            let _ = thread.join();
        }
        let mut slots = lock(&self.nodes);
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
        let mut prior = std::mem::take(&mut *lock(&self.killed));
        for (node, slot) in drains.iter_mut().enumerate() {
            if slot.is_none() {
                let last = prior
                    .iter()
                    .rposition(|(n, _)| *n == node)
                    .expect("every node drained exactly once");
                *slot = Some(prior.remove(last).1);
            }
        }
        let events = std::mem::take(&mut lock(&self.faults.state).log);
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

/// What the node-event thread needs to kill and revive nodes: the
/// fault state, the node table, and the §14.1 boot recipes a
/// `ReviveNode` replays.
struct NodeEvents {
    faults: Arc<Faults>,
    ledger: Arc<FabricLedger>,
    nodes: Arc<Mutex<Vec<Option<Runtime>>>>,
    killed: Arc<Mutex<Vec<(usize, DrainReport)>>>,
    gate: Arc<FabricGate>,
    counters: Vec<Arc<NodeCounters>>,
    handles: Arc<HandleTable>,
    boots: Vec<NodeBoot>,
    departed_base: Arc<Vec<AtomicU64>>,
}

/// Applies one event off the node-event queue and records it at the
/// clock when the thread got to it; once none is queued, reached events
/// fire inline again.
fn apply_queued(fault: FabricFault, shared: &NodeEvents) {
    let fired_at = shared.ledger.ejected_total();
    let lost = match fault {
        FabricFault::KillNode { node, .. } => kill_node(node, shared),
        FabricFault::ReviveNode { node, .. } => {
            revive_node(node, shared);
            0
        }
        _ => {
            shared.faults.apply_inline(fault);
            0
        }
    };
    let mut st = lock(&shared.faults.state);
    st.queued -= 1;
    st.log.push(FabricFaultEvent {
        fault,
        fired_at,
        lost_packets: lost,
    });
}

/// Cuts every cable touching `node` first, so neighbors reroute (or
/// hold, §14.2) instead of queueing against a corpse, then force-drains
/// it (§9.4 ladder); the handle refuses new submits the moment the
/// runtime closes its gate. Under `HoldForRecovery` the corpse's own
/// cables die at the egress layer too: its workers then dead-letter
/// their held flits at shutdown and exit, instead of polling refused
/// tails until the forced abort (§14.1). Returns the packets lost.
fn kill_node(node: usize, shared: &NodeEvents) -> u64 {
    shared.faults.dead.kill_node(node);
    shared.faults.set_node_cables(node, true);
    let Some(rt) = lock(&shared.nodes)[node].take() else {
        return 0; // already killed
    };
    let rep = rt.shutdown_within(Duration::from_millis(50));
    // Joined workers: the node's counters are final, so entered −
    // departed is exactly what it ate.
    let base = shared.departed_base[node].load(Ordering::Relaxed);
    let lost = node_residual(&rep, &shared.counters[node], base);
    // Re-base for a possible successor incarnation (§14.1): its
    // residual is judged on departures made after this point.
    shared.departed_base[node].store(shared.counters[node].departed_packets(), Ordering::Relaxed);
    if lost > 0 {
        shared.ledger.on_lost(lost);
        shared.gate.depart(lost);
    }
    lock(&shared.killed).push((node, rep));
    lost
}

/// Boots `node`'s successor from its §14.1 recipe, then heals every
/// cable touching it in both directions, replaying what its neighbors
/// held for the corpse. A no-op while the node is alive.
fn revive_node(node: usize, shared: &NodeEvents) {
    let faults = &shared.faults;
    let mut slots = lock(&shared.nodes);
    if slots[node].is_some() {
        return;
    }
    // Forwarders never take this lock, so holding it across the boot
    // cannot deadlock the data plane; the drain takes it only after
    // joining this thread.
    let boot = &shared.boots[node];
    let (rt, handle) = {
        let fwd = boot.fwd.clone();
        Runtime::start_with_egress(boot.rc.clone(), move |_shard| Some(fwd.clone()))
    };
    lock(&faults.controllers)[node] = rt
        .egress_controller()
        .expect("buffered mode always has a controller")
        .clone();
    shared.handles.swap(node, handle);
    slots[node] = Some(rt);
    drop(slots);
    // Liveness flags last: a tail handed off the instant the flags
    // clear must find the successor's handle installed.
    faults.dead.revive_node(node);
    faults.set_node_cables(node, false);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Link and panic events fire on the ejecting worker, so only a
    /// plan with a node kill or revive has a thread of its own.
    #[test]
    fn only_a_node_event_spawns_a_thread() {
        let links = FabricFaultPlan::new().kill_link_at(0, 1, 3);
        for (plan, thread) in [(links.clone(), false), (links.kill_node_at(1, 7), true)] {
            let flows = vec![FlowSpec { src: 0, dst: 1 }];
            let mut cfg = FabricConfig::new(Topology::mesh(2, 1), flows);
            cfg.fault_plan = Some(plan.heal_link_at(0, 1, 5).panic_forwarder_at(1, 9));
            let f = Fabric::start(cfg);
            assert_eq!(f.node_thread.is_some(), thread);
            f.drain_within(Duration::from_secs(20));
        }
    }
}

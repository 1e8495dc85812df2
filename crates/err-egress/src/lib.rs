//! Credit-based asynchronous egress for the sharded ERR runtime.
//!
//! The paper's opening argument is that wormhole links stall: "a packet
//! which has begun transmission may be stalled due to lack of buffer
//! space downstream", for a time no scheduler can predict (§1). A
//! synchronous egress callback couples the scheduler's flit clock to
//! that unpredictable downstream — one dead link freezes an entire
//! shard, fairness state and all. This crate decouples them with the
//! standard wormhole machinery, in three pieces:
//!
//! * **Per-shard output ring** ([`spsc`]): the shard worker pushes
//!   served flits into a bounded SPSC ring, and after each service
//!   batch runs the flusher step ([`flusher`]) that drains it toward
//!   the downstream sink. The sink accepts or refuses at once, so the
//!   scheduler's clock never waits on delivery; a sink that may block
//!   brings its own thread by wrapping itself in a [`Threaded`]
//!   adapter ([`threaded`]).
//! * **Per-link credits** ([`link`]): each downstream link advertises a
//!   credit pool, virtual-channel style. A worker takes a grant of
//!   credits before it serves the link and spends one per flit it
//!   commits; the flusher step returns the credits of what it delivered. A
//!   stalled link stops returning credits, so its backlog anywhere in
//!   the egress path is bounded by the pool — and the worker, finding
//!   no credit to grant itself, *parks* the link's flows in the
//!   scheduler
//!   ([`ErrScheduler::park_flow`](err_sched::err::ErrScheduler::park_flow))
//!   before it visits them, and keeps serving everyone else.
//! * **Deterministic stalls**: `err-runtime`'s seeded `FaultPlan`
//!   drives [`LinkSet::freeze`] / [`LinkSet::release_stall`] on a
//!   shard's flit clock, and a per-link watchdog
//!   ([`link::LinkSnapshot`]) reports stall durations on the flush
//!   clock: the paper's stalled downstream as a replayable experiment.
//!
//! The runtime integration (`err-runtime`'s `EgressMode::Buffered`)
//! wires these together; this crate is freestanding and each piece is
//! testable on its own.

#![warn(missing_docs)]

pub mod credit;
pub mod flusher;
pub mod link;
pub mod spsc;
pub mod stats;
pub(crate) mod sync;
pub mod threaded;
pub mod wake;

use std::sync::Arc;

pub use credit::CreditPool;
pub use err_sched::ServedFlit;
pub use flusher::FlusherCore;
pub use link::{DeadLinkPolicy, LinkSet, LinkSnapshot, LinkState};
pub use spsc::{spsc_ring, Consumer, Producer};
pub use stats::{EgressSnapshot, ShardEgressSnapshot, ShardEgressStats};
pub use threaded::{Threaded, ThreadedSnapshot, ThreadedStats};
pub use wake::{Sleep, WakeCell, BACKSTOP};

/// The downstream sink: where flits go when they leave the scheduler.
///
/// `shard` identifies the shard whose scheduler served the flit.
/// Implementations must be `Send` (the shard's worker thread owns the
/// sink) but need not be `Sync` — each shard gets its own sink value.
///
/// Under buffered egress the worker calls [`try_emit`](Egress::try_emit)
/// from its own flusher step, between two service chunks, so
/// `try_emit` must accept or refuse at once. A sink that may block
/// wraps itself in a [`Threaded`] adapter instead of blocking there.
///
/// Any `FnMut(usize, &ServedFlit) + Send` closure is an `Egress` via
/// the blanket impl, so callback-style callers keep working unchanged:
///
/// ```
/// use err_egress::Egress;
/// use err_sched::ServedFlit;
///
/// fn takes_egress(mut e: impl Egress, f: &ServedFlit) {
///     e.emit(0, f);
/// }
///
/// let mut n = 0u64;
/// takes_egress(
///     |_shard: usize, _flit: &ServedFlit| n += 1,
///     &ServedFlit { flow: 0, packet: 0, arrival: 0, len: 1, flit_index: 0 },
/// );
/// ```
pub trait Egress: Send {
    /// Consumes one flit served by `shard`'s scheduler.
    fn emit(&mut self, shard: usize, flit: &ServedFlit);

    /// Refusable delivery (DESIGN.md §11.2): the flusher step calls
    /// this and returns the flit's link credit **only on acceptance**. Returning
    /// `false` leaves the flit in the link's pending queue with its
    /// credit held — the hook a fabric forwarder uses to withhold
    /// credits while the downstream node's ingress has no room, which
    /// is what propagates wormhole backpressure hop by hop.
    ///
    /// The default accepts unconditionally by delegating to
    /// [`emit`](Egress::emit). An implementation that refuses must
    /// eventually accept (or the flit's link must die / enter drain
    /// dead-lettering), or the egress drain cannot complete.
    fn try_emit(&mut self, shard: usize, flit: &ServedFlit) -> bool {
        self.emit(shard, flit);
        true
    }

    /// Told of a flit `shard`'s flusher step dead-lettered because this
    /// sink unwound while it held it (DESIGN.md §14.4): once, at the
    /// top of the step after the unwind — never inside it. The default
    /// does nothing; a sink that accounts packets end to end (a fabric
    /// forwarder) charges the flit's packet here.
    fn dead_lettered(&mut self, _shard: usize, _flit: &ServedFlit) {}
}

impl<F: FnMut(usize, &ServedFlit) + Send> Egress for F {
    fn emit(&mut self, shard: usize, flit: &ServedFlit) {
        self(shard, flit)
    }

    fn try_emit(&mut self, shard: usize, flit: &ServedFlit) -> bool {
        // A bare closure sink has no refusal signal: it always accepts,
        // so the non-blocking path is `emit` spelled out — never the
        // trait default's blocking delegation (which this override
        // exists to make explicit; see the try-emit-override lint).
        self(shard, flit);
        true
    }
}

/// Configuration of the buffered egress path.
#[derive(Clone, Debug)]
pub struct BufferedConfig {
    /// Capacity of each shard's output ring, in flits. Every flit in it
    /// holds a credit, so capacity above `n_links × credits` is never
    /// used; a smaller ring ends a service chunk when it fills
    /// (`ShardEgressStats::ring_full_spins`).
    pub ring_capacity: usize,
    /// Credits per downstream link — the most flits that can be
    /// committed-but-undelivered to one link at a time.
    pub credits: u64,
    /// Number of downstream links. Flows map to links statically:
    /// `link = flow % n_links`, unless `route_table` overrides it.
    pub n_links: usize,
    /// Optional flow-indexed routing table (DESIGN.md §11.1): entry
    /// `flow` names the link carrying that flow, overriding the modulo
    /// default. Flows past the table's end fall back to the modulo
    /// rule. The fabric compiles one table per node from its topology.
    pub route_table: Option<Arc<[u32]>>,
    /// Flush-clock cycles without a credit return (while credits are
    /// outstanding) before a link is declared [`LinkState::Dead`];
    /// `None` disables the dead-link watchdog (DESIGN.md §9.3).
    pub dead_link_deadline: Option<u64>,
    /// What happens to flits bound for a dead link.
    pub dead_link_policy: DeadLinkPolicy,
}

impl Default for BufferedConfig {
    fn default() -> Self {
        Self {
            ring_capacity: 1024,
            credits: 64,
            n_links: 4,
            route_table: None,
            dead_link_deadline: None,
            dead_link_policy: DeadLinkPolicy::default(),
        }
    }
}

/// Handle over a running buffered-egress stage: freeze/thaw links and
/// snapshot the counters while the runtime is live. Cloneable; all
/// clones view the same links.
#[derive(Clone)]
pub struct EgressController {
    links: Arc<LinkSet>,
    shard_stats: Vec<Arc<ShardEgressStats>>,
}

impl EgressController {
    /// Bundles the shared egress state into a controller.
    pub fn new(links: Arc<LinkSet>, shard_stats: Vec<Arc<ShardEgressStats>>) -> Self {
        Self { links, shard_stats }
    }

    /// The shared link set.
    pub fn links(&self) -> &Arc<LinkSet> {
        &self.links
    }

    /// Manually freezes `link` (same effect as a fault plan's `Freeze`).
    pub fn freeze(&self, link: usize) {
        self.links.freeze(link);
    }

    /// Manually thaws `link`.
    pub fn release_stall(&self, link: usize) {
        self.links.release_stall(link);
    }

    /// Manually declares `link` dead (same effect as the deadline
    /// watchdog firing).
    pub fn declare_dead(&self, link: usize) {
        self.links.declare_dead(link);
    }

    /// Revives a dead `link`: under
    /// [`DeadLinkPolicy::HoldForRecovery`] its held flits deliver and
    /// its parked flows resume.
    pub fn resurrect(&self, link: usize) {
        self.links.resurrect(link);
    }

    /// Snapshots per-shard and per-link egress counters.
    pub fn snapshot(&self) -> EgressSnapshot {
        EgressSnapshot {
            shards: self.shard_stats.iter().map(|s| s.snapshot()).collect(),
            links: self.links.snapshot(),
        }
    }
}

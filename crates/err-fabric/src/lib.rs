//! A multi-node wormhole fabric with hop-by-hop credit backpressure
//! (DESIGN.md §11).
//!
//! Everything up to `err-runtime` is **one switch**: a single runtime
//! arbitrating its own egress links. The paper's core premise — a
//! blocked tail flit stalls the whole wormhole path, and ERR's
//! fairness must hold *at every hop* — only becomes observable when
//! several switches are chained with credit flow control between
//! them. This crate composes N independent buffered runtimes into a
//! routed [`Topology`]:
//!
//! * each node's egress links feed neighbor nodes' ingress rings via
//!   Forwarders (its shards' sinks), which never block, so each node's shard workers
//!   run them themselves: a node is one thread per shard;
//! * a refused tail handoff keeps its link credit
//!   ([`Egress::try_emit`](err_egress::Egress::try_emit)), so a
//!   stalled downstream starves credits upstream and parks exactly
//!   the flows routed through it — never unrelated traffic;
//! * [`Fabric`] gives end-to-end submit, graceful multi-node drain,
//!   per-path latency/fairness queries, and chaos (killing cables and
//!   whole nodes mid-run, §11.4): a killed node dies in place on its
//!   own threads, so a fabric runs its nodes' workers and nothing else
//!   (§14.1).
//!
//! The 2×2 serialized workload is cross-validated flit-for-flit
//! against the single-threaded `wormhole-net` simulator (§11.5).

#![warn(missing_docs)]

mod chaos;
pub mod fabric;
mod forwarder;
mod hops;
mod stats;
pub mod topology;

pub use chaos::FabricFaultEvent;
pub use err_egress::DeadLinkPolicy;
pub use err_runtime::{ConfigError, FaultEvent, FaultKind, FaultPlan, Shape, Target};
pub use fabric::{DrainOutcome, Fabric, FabricConfig, FabricReport, PathStats};
pub use stats::{FabricLedger, FlowSnapshot, HopSnapshot};
pub use topology::{FlowSpec, LinkEnd, NextHop, Topology};

/// The §11.8 slot table, exported only for `err-check`'s model suite.
#[cfg(feature = "loom")]
#[doc(hidden)]
pub use hops::{HopEntry, HopTracker};

#![warn(missing_docs)]

//! `err-estimate` — the per-link decomposition estimator
//! (DESIGN.md §12): fast what-if queries against an `err-fabric`
//! topology without standing up threads, rings, or flushers.
//!
//! The full fabric answers "what latency does this flow mix see?" by
//! actually running it — accurate, but seconds of wall clock per
//! query. Following the decomposition idea of Parsimon-style
//! estimators, this crate answers the same question in milliseconds:
//!
//! 1. [`decompose()`] places every flow on exactly the `(node, link)`
//!    ends of its route, preserving lengths and counts;
//! 2. [`linksim::simulate_node`] runs the *shipped*
//!    ERR scheduler (not a model of it) over each loaded node's flow
//!    set on a virtual flit clock, producing per-flow per-node delay
//!    distributions;
//! 3. [`estimate`] composes the per-node means into end-to-end
//!    [`PathEstimate`]s — a store-and-forward prediction comparable
//!    to the fabric's §11.8 per-hop attribution, a wormhole
//!    projection, and an analytical floor/ceiling envelope every
//!    prediction is checked against.
//!
//! Accuracy and speed are validated by `runtime-bench --estimate`,
//! which replays seeded 4×4 mesh mixes through both the estimator and
//! the real fabric and reports per-path relative error and wall-clock
//! speedup (`BENCH_estimate.json`).
//!
//! What the estimator cannot see — cross-link backpressure coupling,
//! fault reroutes, wall-clock microseconds — is catalogued in
//! DESIGN.md §12.6.
//!
//! ```
//! use err_estimate::{estimate, EstimatorConfig, FlowLoad};
//! use err_fabric::{FlowSpec, Topology};
//!
//! let topo = Topology::mesh(4, 4);
//! let loads = vec![FlowLoad {
//!     spec: FlowSpec { src: 0, dst: 15 },
//!     len: 4,
//!     packets: 100,
//! }];
//! let report = estimate(&topo, &loads, &EstimatorConfig::default());
//! assert_eq!(report.paths[0].floor_cycles, 6 + 4 - 1);
//! assert!(report.paths[0].within_envelope());
//! ```

pub mod compose;
pub mod decompose;
pub mod linksim;
pub mod mixes;

pub use compose::{estimate, EstimateReport, EstimatorConfig, HopEstimate, PathEstimate};
pub use decompose::{decompose, FlowLoad, LinkFlowLoad, LinkLoad};
pub use linksim::{simulate_node, NodeFlowDelays, SimFlow, SimParams};

#![warn(missing_docs)]

//! `wormhole-net` — a flit-level wormhole network simulator.
//!
//! This crate is the *context* substrate of the reproduction: the paper
//! designs ERR specifically for wormhole switches, whose defining
//! property is that once a packet's head flit enters an output queue, the
//! output is pinned to that packet until its tail flit passes — and
//! downstream congestion can stall the packet mid-transfer, so **the time
//! a packet occupies the output is not determined by its length and is
//! unknown until the tail flit leaves** (paper §1).
//!
//! The crate provides:
//!
//! * [`flit`] — flits (head/body/tail) and packetization.
//! * [`arbiter`] — pluggable output-port arbiters: [`arbiter::ErrArbiter`]
//!   charges [`err_sched::err::ErrCore`] **per cycle of output occupancy**
//!   (including stall cycles), which is exactly the time-based fairness
//!   §1 argues for; [`arbiter::RrArbiter`] (PBRR-style) and
//!   [`arbiter::FcfsArbiter`] are the baselines real switches use.
//! * [`sink`] — downstream models: always-ready, throttled, and
//!   scripted-blocking sinks that create the unpredictable occupancy
//!   times ERR is designed to tolerate.
//! * [`switch`] — an input-queued wormhole switch with per-queue
//!   wormhole locking, head-flit routing, and per-output arbitration.
//!   The paper's "queue" abstraction (a logical entity, possibly a
//!   virtual channel) maps to this switch's input queues.
//! * [`mesh`] / [`torus`] / [`network`] — one [`Network`] of wormhole
//!   routers over a mesh or a dateline-VC torus: [`Mesh2D`] with XY
//!   routing on one VC, [`Torus2D`] with dateline routing on two, and
//!   one router loop for both, with credit-bounded input buffers,
//!   single-cycle links and end-to-end packet latency accounting.

pub mod arbiter;
pub mod flit;
pub mod mesh;
pub mod network;
pub mod sink;
pub mod switch;
pub mod torus;
pub mod vc_switch;

pub use arbiter::{ArbiterKind, OutputArbiter};
pub use flit::{Flit, FlitPayload};
pub use mesh::Mesh2D;
pub use network::Network;
pub use sink::{BlockingSink, PerfectSink, Sink, ThrottledSink};
pub use switch::WormholeSwitch;
pub use torus::Torus2D;
pub use vc_switch::{LinkSched, VcSwitch};

#![warn(missing_docs)]

//! `err-sched` — the Elastic Round Robin (ERR) packet scheduler and the
//! disciplines it is evaluated against.
//!
//! This crate is the core of the reproduction of
//! *Fair and Efficient Packet Scheduling in Wormhole Networks*
//! (S. Kanhere, A. Parekh, H. Sethu; IPDPS 2000). It implements:
//!
//! * [`err`] — **Elastic Round Robin**, the paper's contribution: an O(1)
//!   round-robin scheduler whose per-round *allowances* adapt to the
//!   *surplus* each flow overdrew in the previous round, and which never
//!   needs to know a packet's length (or service time) before serving it —
//!   the property that makes it deployable in wormhole switches.
//! * [`werr`] — weighted ERR, the natural differentiated-service extension.
//! * [`drr`] — Deficit Round Robin (Shreedhar & Varghese), the closest
//!   O(1) competitor; requires a-priori packet lengths.
//! * [`fbrr`] / [`pbrr`] / [`fcfs`] — flit-based round robin, packet-based
//!   round robin, and first-come-first-served: the disciplines deployed in
//!   real wormhole switches that the paper's Figures 4–5 compare against.
//! * [`wfq`] / [`scfq`] / [`vclock`] — timestamp-based fair queuing
//!   (Weighted Fair Queuing, Self-Clocked Fair Queuing, Virtual Clock),
//!   the O(log n) alternatives of the paper's Table 1.
//! * [`gps`] — a flit-granular Generalized Processor Sharing reference
//!   used as the fairness gold standard.
//!
//! # The scheduling model
//!
//! All disciplines implement the flit-clocked [`Scheduler`] trait: packets
//! (sequences of flits) are [`Scheduler::enqueue`]d into per-flow FIFO
//! queues, and each cycle the owner of the output resource calls
//! [`Scheduler::service_flit`], which transmits exactly one flit of the
//! discipline's choice. This matches the paper's measurement model ("the
//! scheduler dequeues one flit from one of the queues in each cycle") and
//! lets flit-interleaving (FBRR, GPS) and packet-granular disciplines run
//! under one harness.
//!
//! Packet-granular disciplines additionally respect the wormhole
//! constraint: once a packet's head flit is served, every subsequent flit
//! served for that *output* belongs to the same packet until its tail
//! flit passes.
//!
//! The decision logic of ERR is factored into [`err::ErrCore`], which is
//! charged in abstract *units*. The flit-clocked [`err::ErrScheduler`]
//! charges one unit per flit; the wormhole switch arbiter in
//! `wormhole-net` charges one unit per cycle of output-port occupancy
//! (including stall cycles) — the paper's §1 argues fairness must be over
//! occupancy time, and the core supports both without modification.
//!
//! # Quick example
//!
//! ```
//! use err_sched::{Packet, Scheduler, err::ErrScheduler};
//!
//! let mut s = ErrScheduler::new(2);
//! s.enqueue(Packet::new(0, 0, 3, 0), 0); // flow 0: one 3-flit packet
//! s.enqueue(Packet::new(1, 1, 5, 0), 0); // flow 1: one 5-flit packet
//! let mut served = Vec::new();
//! let mut now = 0;
//! while let Some(f) = s.service_flit(now) {
//!     served.push(f.flow);
//!     now += 1;
//! }
//! assert_eq!(served.len(), 8); // all flits of both packets
//! ```

pub mod active_list;
pub mod drr;
pub mod err;
pub mod factory;
pub mod fbrr;
pub mod fcfs;
pub mod flow_queue;
pub mod gps;
pub mod packet;
pub mod pbrr;
pub mod reference;
pub mod scfq;
pub(crate) mod timestamp;
pub mod traits;
pub mod vclock;
pub mod werr;
pub mod wfq;

pub use active_list::ActiveList;
pub use desim::Cycle;
pub use factory::Discipline;
pub use flow_queue::FlowQueues;
pub use packet::{FlitRun, FlowId, Packet, PacketId};
pub use traits::{Scheduler, ServedFlit};

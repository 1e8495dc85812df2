#![warn(missing_docs)]
#![warn(unreachable_pub)]

//! `fairness-metrics` — measurement machinery for the ERR reproduction.
//!
//! The paper quantifies schedulers three ways, all implemented here:
//!
//! * **Relative fairness measure** (Definition 1, after Golestani): for an
//!   interval `(t1, t2)`, `FM(t1, t2)` is the largest
//!   `|Sent_i(t1,t2) - Sent_j(t1,t2)|` over pairs of flows *active
//!   throughout the interval*, and `FM` is the supremum over intervals.
//!   [`FairnessMonitor::exact_fm`] computes the exact supremum (using the
//!   paper's Lemma 2 insight that only service-event instants matter),
//!   and [`FairnessMonitor::avg_random_fm`] computes the Figure 6
//!   statistic: the average of `FM(t1, t2)` over randomly chosen
//!   intervals.
//! * **Throughput** per flow over an interval, `Sent_f(t1, t2)`: the
//!   monitor's per-flow service curves, which both fairness queries
//!   read.
//! * **Packet delay** (Figure 5): [`DelayRecorder`] measures, per the
//!   paper, "the number of cycles between the instant it is placed in the
//!   queue for scheduling, to the instant its last flit is dequeued".
//!
//! [`jain_index`] adds the standard Jain fairness index as a
//! secondary cross-check not present in the paper.

mod delay;
mod jain;
pub mod monitor;

pub use delay::DelayRecorder;
pub use jain::jain_index;
pub use monitor::FairnessMonitor;

//! Graceful-drain semantics and the final accounting report.
//!
//! The drain protocol has three steps, in this order:
//!
//! 1. **Close admission** — `closed` is set with release ordering;
//!    every subsequent [`submit`](crate::RuntimeHandle::submit) fails
//!    with [`SubmitError::Closed`](crate::SubmitError), and producers
//!    blocked in backpressure observe the flag and bail out.
//! 2. **Drain** — each shard keeps serving until its ingress ring is
//!    empty *and* its scheduler is idle. Because no new packets can be
//!    admitted after step 1, this condition is stable once reached.
//! 3. **Join** — worker threads exit their drivers and are joined in
//!    shard order, making shutdown deterministic (no detached threads,
//!    no abandoned packets).
//!
//! Under a deadline ([`shutdown_within`](crate::Runtime::shutdown_within),
//! DESIGN.md §9.4) the drain escalates instead of waiting forever:
//! graceful drain → forced abort (workers count their residuals lost) →
//! abandon (a wedged worker is left behind, recorded as
//! [`ShardExit::Abandoned`]). Worker panics are *reported*, never
//! re-thrown out of shutdown.
//!
//! The resulting [`DrainReport`] carries the conservation invariant the
//! integration tests assert: every submitted packet is accounted as
//! served, dropped, rejected, timed out, or (under faults) lost —
//! nothing leaks silently.

use crate::stats::RuntimeStats;

/// How one shard worker thread left the runtime (DESIGN.md §9.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardExit {
    /// Drained and returned normally.
    Clean,
    /// The thread panicked at least once; each time its fence caught
    /// the unwind and its driver stepped on, on the same thread with
    /// the same state, and nothing was lost (DESIGN.md §9.2). The death
    /// stamp on the fault board is what keeps it on the record.
    Panicked,
    /// The thread missed the shutdown deadline and was left running
    /// (detached); its cycles report as 0 and conservation may not
    /// balance.
    Abandoned,
}

/// Final accounting returned by [`Runtime::shutdown`](crate::Runtime::shutdown).
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// Statistics at the instant every worker had exited.
    pub stats: RuntimeStats,
    /// Final flit-clock value of each shard (cycles of service);
    /// 0 for an abandoned worker.
    pub shard_cycles: Vec<u64>,
    /// Per-shard worker exit status.
    pub exits: Vec<ShardExit>,
    /// Whether the shutdown deadline forced an abort: residual packets
    /// were counted lost rather than served (DESIGN.md §9.4), packet by
    /// packet. The one residue left uncounted is §9.4's double fault: a
    /// sync batch a sink's unwind interrupted, when the abort also beats
    /// the resumed driver's first `serve` — then `is_conserving` honestly
    /// fails.
    pub forced: bool,
}

impl DrainReport {
    /// Packets fully served.
    pub fn served_packets(&self) -> u64 {
        self.stats.served_packets()
    }

    /// Packets dropped by drop-tail admission.
    pub fn dropped_packets(&self) -> u64 {
        self.stats.dropped_packets()
    }

    /// Packets refused under the reject policy.
    pub fn rejected_packets(&self) -> u64 {
        self.stats.rejected_packets()
    }

    /// Packets whose backpressure wait exceeded a submit deadline.
    pub fn timedout_packets(&self) -> u64 {
        self.stats.timedout_packets()
    }

    /// Packets lost to a forced shutdown, admission charges revoked
    /// (DESIGN.md §9.4).
    pub fn lost_packets(&self) -> u64 {
        self.stats.lost_packets()
    }

    /// Packets submitted (served + dropped + rejected + timed out +
    /// lost after a drain).
    pub fn submitted_packets(&self) -> u64 {
        self.stats.submitted_packets()
    }

    /// Whether every worker exited [`ShardExit::Clean`].
    pub fn all_clean(&self) -> bool {
        self.exits.iter().all(|e| *e == ShardExit::Clean)
    }

    /// The drain conservation invariant (DESIGN.md §9.2 ledger): after
    /// shutdown, every submitted packet was served, dropped, rejected,
    /// timed out, or counted lost; no flits remain backlogged; and
    /// every packet that entered a ring either left on a link or was
    /// explicitly lost.
    pub fn is_conserving(&self) -> bool {
        self.served_packets()
            + self.dropped_packets()
            + self.rejected_packets()
            + self.timedout_packets()
            + self.lost_packets()
            == self.submitted_packets()
            && self.stats.backlog_flits() == 0
            && self.stats.enqueued_packets() == self.served_packets() + self.lost_packets()
    }

    /// Aggregate throughput over the drain in flits per shard-cycle,
    /// where each shard's flit clock ticks once per flit it serves.
    /// With `s` balanced shards this approaches `s` — the capacity
    /// scaling the sharded design buys (each shard is an independent
    /// egress link, exactly the paper's one-flit-per-cycle model per
    /// output port).
    pub fn flits_per_shard_cycle(&self) -> f64 {
        let makespan = self.shard_cycles.iter().copied().max().unwrap_or(0);
        if makespan == 0 {
            return 0.0;
        }
        self.stats.served_flits() as f64 / makespan as f64
    }
}

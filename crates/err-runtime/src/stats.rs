//! Lock-free per-shard statistics and their merged runtime view.
//!
//! Each shard owns one `ShardStats` block, every per-shard count in one
//! place: a cache line the producers write and two its worker writes,
//! with relaxed stores on the hot path. Readers take consistent-enough
//! [`ShardSnapshot`]s at any time without stopping the world.
//! [`RuntimeStats`] merges the per-shard snapshots, and under buffered
//! egress the links' watchdog results, into the aggregate view the
//! operator cares about.
//!
//! Every counter here is **approximate under race** by design: all
//! accesses are `Relaxed`, so a snapshot taken while shards are running
//! may mix counter values from slightly different instants (e.g.
//! `admitted` from after a push that `flushed` hasn't caught up to).
//! Each counter is individually exact — monotonic, no lost updates —
//! but cross-counter invariants only hold after a quiescent drain.
//! err-check's `stats-relaxed` lint pins this contract: a non-Relaxed
//! ordering in a stats module is an error, because needing one would
//! mean a correctness decision was being made off these counters.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use err_egress::{LinkSet, LinkSnapshot};

/// A relaxed atomic counter.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` (relaxed; counters are monotonic and independently read).
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value (for gauges such as backlog).
    #[inline]
    pub(crate) fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Raises the value to `n` if it is lower (for high-water marks).
    #[inline]
    pub(crate) fn raise(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// Reads the current value.
    #[inline]
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One shard's counters: every per-shard count the runtime keeps, in
/// two cache-line-aligned groups split by writer, so the producers'
/// line and the worker's lines never false-share, and no shard's block
/// shares a line with another's. Each counter is documented on its
/// [`ShardSnapshot`] copy.
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    pub producer: ProducerStats,
    pub worker: WorkerStats,
}

/// The counters any submitting thread writes.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct ProducerStats {
    pub enqueued_packets: Counter,
    pub enqueued_flits: Counter,
    pub dropped_packets: Counter,
    pub dropped_flits: Counter,
    pub rejected_packets: Counter,
    pub timedout_packets: Counter,
}

/// The counters only the shard's own worker writes: its service, its
/// driver's loops and parks, a forced abort's losses, and its egress
/// stage's ring and credit counts.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct WorkerStats {
    pub served_flits: Counter,
    pub served_packets: Counter,
    pub backlog_flits: Counter,
    pub busy_loops: Counter,
    pub idle_loops: Counter,
    pub parks: Counter,
    pub park_timeouts: Counter,
    pub lost_packets: Counter,
    pub lost_flits: Counter,
    pub flushed_flits: Counter,
    pub ring_peak: Counter,
    pub credit_exhaustions: Counter,
    pub ring_full_spins: Counter,
}

impl ShardStats {
    /// Takes a point-in-time copy of the counters.
    pub(crate) fn snapshot(&self, shard: usize) -> ShardSnapshot {
        let (p, w) = (&self.producer, &self.worker);
        ShardSnapshot {
            shard,
            enqueued_packets: p.enqueued_packets.get(),
            enqueued_flits: p.enqueued_flits.get(),
            dropped_packets: p.dropped_packets.get(),
            dropped_flits: p.dropped_flits.get(),
            rejected_packets: p.rejected_packets.get(),
            timedout_packets: p.timedout_packets.get(),
            served_flits: w.served_flits.get(),
            served_packets: w.served_packets.get(),
            backlog_flits: w.backlog_flits.get(),
            busy_loops: w.busy_loops.get(),
            idle_loops: w.idle_loops.get(),
            parks: w.parks.get(),
            park_timeouts: w.park_timeouts.get(),
            lost_packets: w.lost_packets.get(),
            lost_flits: w.lost_flits.get(),
            flushed_flits: w.flushed_flits.get(),
            ring_peak: w.ring_peak.get(),
            credit_exhaustions: w.credit_exhaustions.get(),
            ring_full_spins: w.ring_full_spins.get(),
        }
    }
}

/// Plain-value copy of one shard's counters. The four egress counts
/// stay 0 under `EgressMode::Sync`, which has no ring and no credits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Packets accepted into this shard's ingress ring.
    pub enqueued_packets: u64,
    /// Flits belonging to accepted packets.
    pub enqueued_flits: u64,
    /// Packets dropped by drop-tail admission (never entered the ring).
    pub dropped_packets: u64,
    /// Flits of dropped packets.
    pub dropped_flits: u64,
    /// Packets refused with an error under the reject policy.
    pub rejected_packets: u64,
    /// Backpressure waits that hit their submit deadline
    /// (`SubmitError::TimedOut`); the packet never entered a ring.
    pub timedout_packets: u64,
    /// Flits served by the shard's scheduler.
    pub served_flits: u64,
    /// Packets whose tail flit has been served.
    pub served_packets: u64,
    /// Scheduler backlog in flits (gauge, refreshed every service batch).
    pub backlog_flits: u64,
    /// Worker steps that moved at least one packet or flit.
    pub busy_loops: u64,
    /// Worker steps that moved nothing: each takes the idle
    /// path (two looks at the wake predicate, then maybe a park) or
    /// yields to a producer caught mid-push.
    pub idle_loops: u64,
    /// Times the worker parked because there was nothing to do.
    pub parks: u64,
    /// Parks that ran to their timeout instead of being ended by a
    /// peer's wake (a producer about to wait, another worker returning
    /// credits) — the share of `parks` the timers still carry.
    pub park_timeouts: u64,
    /// Packets a forced abort (§9.4) cut off: ring and scheduler
    /// residue, admission charges revoked.
    pub lost_packets: u64,
    /// Flits of lost packets (partially served packets count only
    /// their unserved remainder).
    pub lost_flits: u64,
    /// Flits this shard's flusher step handed to the sink.
    pub flushed_flits: u64,
    /// High-water mark of the shard's output-ring occupancy.
    pub ring_peak: u64,
    /// Times the worker found a link's credit pool still empty at the
    /// top of a service chunk and parked the link's flows: the
    /// downstream (frozen, dead or refusing) or another shard holds the
    /// pool — never the worker's own ring, which the flusher step after
    /// every chunk drains.
    pub credit_exhaustions: u64,
    /// Times the worker found the output ring full and ended a service
    /// chunk, for its flusher step to free the ring.
    pub ring_full_spins: u64,
}

/// The buffered egress stage's view: per-link watchdog results, and
/// the aggregates over links and shards that the ledger reads.
#[derive(Clone, Debug, Default)]
pub struct EgressSnapshot {
    /// One entry per downstream link.
    pub links: Vec<LinkSnapshot>,
    /// Largest `ShardSnapshot::ring_peak`.
    ring_peak: u64,
}

impl EgressSnapshot {
    /// Largest output-ring occupancy any shard reached.
    pub fn peak_ring_occupancy(&self) -> u64 {
        self.ring_peak
    }

    /// Total stall events across links.
    pub fn stall_events(&self) -> u64 {
        self.links.iter().map(|l| l.stall_events).sum()
    }

    /// Longest completed stall across links, in flush-clock cycles.
    pub fn max_stall_cycles(&self) -> u64 {
        let stalls = self.links.iter().map(|l| l.max_stall_cycles);
        stalls.max().unwrap_or(0)
    }
}

/// The merged, runtime-wide statistics view.
#[derive(Clone, Debug, Default)]
pub struct RuntimeStats {
    /// Per-shard snapshots, indexed by shard.
    pub shards: Vec<ShardSnapshot>,
    /// Egress-side counters; `None` under `EgressMode::Sync` (the
    /// legacy path has no rings, credits, or stalls to report).
    pub egress: Option<EgressSnapshot>,
}

macro_rules! sum_field {
    ($(#[$doc:meta] $fn_name:ident => $field:ident),+ $(,)?) => {$(
        #[$doc]
        pub fn $fn_name(&self) -> u64 {
            self.shards.iter().map(|s| s.$field).sum()
        }
    )+};
}

impl RuntimeStats {
    /// Merges per-shard stat blocks into one view, with the egress view
    /// of `links` under buffered egress.
    pub(crate) fn collect(stats: &[ShardStats], links: Option<&LinkSet>) -> Self {
        let shards: Vec<ShardSnapshot> = (stats.iter().enumerate())
            .map(|(i, s)| s.snapshot(i))
            .collect();
        let egress = links.map(|links| EgressSnapshot {
            links: links.snapshot(),
            ring_peak: shards.iter().map(|s| s.ring_peak).max().unwrap_or(0),
        });
        Self { shards, egress }
    }

    sum_field! {
        /// Total packets accepted across shards.
        enqueued_packets => enqueued_packets,
        /// Total flits accepted across shards.
        enqueued_flits => enqueued_flits,
        /// Total packets dropped by drop-tail admission.
        dropped_packets => dropped_packets,
        /// Total flits dropped by drop-tail admission.
        dropped_flits => dropped_flits,
        /// Total packets refused under the reject policy.
        rejected_packets => rejected_packets,
        /// Total flits served.
        served_flits => served_flits,
        /// Total packets fully served.
        served_packets => served_packets,
        /// Total scheduler backlog in flits (sum of gauges).
        backlog_flits => backlog_flits,
        /// Total times any worker parked idle.
        parks => parks,
        /// Total idle parks that ran to their timeout un-woken.
        park_timeouts => park_timeouts,
        /// Total packets lost to faults or forced shutdown.
        lost_packets => lost_packets,
        /// Total flits of lost packets.
        lost_flits => lost_flits,
        /// Total backpressure waits that hit their submit deadline.
        timedout_packets => timedout_packets,
        /// Total flits the flusher steps delivered (0 in sync mode).
        flushed_flits => flushed_flits,
    }

    /// Packets that entered the system one way or another: accepted,
    /// dropped, rejected, or timed out waiting for admission.
    pub fn submitted_packets(&self) -> u64 {
        self.enqueued_packets()
            + self.dropped_packets()
            + self.rejected_packets()
            + self.timedout_packets()
    }

    /// Fraction of submitted packets dropped or rejected (0 when idle).
    pub fn loss_rate(&self) -> f64 {
        let submitted = self.submitted_packets();
        if submitted == 0 {
            return 0.0;
        }
        (self.dropped_packets() + self.rejected_packets()) as f64 / submitted as f64
    }

    /// Largest output-ring occupancy any shard reached (0 in sync mode).
    pub fn peak_ring_occupancy(&self) -> u64 {
        self.egress.as_ref().map_or(0, |e| e.peak_ring_occupancy())
    }

    /// Downstream stall events across links (0 in sync mode).
    pub fn stall_events(&self) -> u64 {
        self.egress.as_ref().map_or(0, |e| e.stall_events())
    }

    /// Longest completed stall in flush-clock cycles (0 in sync mode).
    pub fn max_stall_cycles(&self) -> u64 {
        self.egress.as_ref().map_or(0, |e| e.max_stall_cycles())
    }
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "runtime: {} shards | submitted {} pkts | served {} pkts / {} flits | \
             dropped {} | rejected {} | backlog {} flits | loss {:.2}%",
            self.shards.len(),
            self.submitted_packets(),
            self.served_packets(),
            self.served_flits(),
            self.dropped_packets(),
            self.rejected_packets(),
            self.backlog_flits(),
            self.loss_rate() * 100.0,
        )?;
        if self.lost_packets() > 0 || self.timedout_packets() > 0 {
            writeln!(
                f,
                "  faults: lost {} pkts / {} flits | timed out {} pkts",
                self.lost_packets(),
                self.lost_flits(),
                self.timedout_packets(),
            )?;
        }
        for s in &self.shards {
            writeln!(
                f,
                "  shard {}: enq {} pkts | served {} pkts / {} flits | drop {} | \
                 loops {} busy / {} idle | parks {} ({} timed out)",
                s.shard,
                s.enqueued_packets,
                s.served_packets,
                s.served_flits,
                s.dropped_packets,
                s.busy_loops,
                s.idle_loops,
                s.parks,
                s.park_timeouts,
            )?;
        }
        if let Some(e) = &self.egress {
            writeln!(
                f,
                "  egress: flushed {} flits | ring peak {} | stalls {} | max stall {} cycles",
                self.flushed_flits(),
                e.peak_ring_occupancy(),
                e.stall_events(),
                e.max_stall_cycles(),
            )?;
            for (i, l) in e.links.iter().enumerate() {
                writeln!(
                    f,
                    "    link {}: delivered {} flits | credits {} | peak outstanding {} | \
                     stalls {} (mean {:.0} / max {} cycles)",
                    i,
                    l.delivered_flits,
                    l.credits_available,
                    l.outstanding_peak,
                    l.stall_events,
                    l.mean_stall_cycles,
                    l.max_stall_cycles,
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::mem::{align_of, offset_of, size_of};

    use super::*;

    #[test]
    fn snapshot_and_merge() {
        let blocks = [ShardStats::default(), ShardStats::default()];
        let (a, b) = (&blocks[0].producer, &blocks[1].producer);
        a.enqueued_packets.add(3);
        a.enqueued_flits.add(12);
        b.enqueued_packets.add(4);
        b.dropped_packets.add(1);
        b.dropped_flits.add(9);
        blocks[0].worker.served_flits.add(12);
        blocks[0].worker.served_packets.add(3);
        blocks[1].worker.backlog_flits.set(7);
        blocks[0].worker.flushed_flits.add(10);
        blocks[1].worker.flushed_flits.add(5);
        blocks[0].worker.ring_peak.raise(4);
        blocks[1].worker.ring_peak.raise(7);

        let m = RuntimeStats::collect(&blocks, None);
        assert_eq!(m.shards.len(), 2);
        assert_eq!(m.enqueued_packets(), 7);
        assert_eq!(m.enqueued_flits(), 12);
        assert_eq!(m.dropped_packets(), 1);
        assert_eq!(m.submitted_packets(), 8);
        assert_eq!(m.served_packets(), 3);
        assert_eq!(m.backlog_flits(), 7);
        assert!((m.loss_rate() - 1.0 / 8.0).abs() < 1e-12);
        assert_eq!(m.flushed_flits(), 15);
        assert_eq!(m.peak_ring_occupancy(), 0, "sync mode has no egress view");

        let links = LinkSet::new(2, 4);
        let m = RuntimeStats::collect(&blocks, Some(&links));
        let egress = m.egress.as_ref().expect("buffered");
        assert_eq!(egress.links.len(), 2);
        assert_eq!(m.peak_ring_occupancy(), 7);
        assert_eq!((m.stall_events(), m.max_stall_cycles()), (0, 0));
    }

    #[test]
    fn display_is_human_readable() {
        let blocks = [ShardStats::default()];
        blocks[0].producer.enqueued_packets.add(2);
        blocks[0].worker.served_packets.add(2);
        blocks[0].worker.served_flits.add(9);
        let text = RuntimeStats::collect(&blocks, None).to_string();
        assert!(text.contains("served 2 pkts / 9 flits"), "{text}");
        assert!(!text.contains("egress:"), "sync mode has no egress line");

        blocks[0].worker.flushed_flits.add(9);
        let links = LinkSet::new(1, 4);
        let text = RuntimeStats::collect(&blocks, Some(&links)).to_string();
        assert!(text.contains("flushed 9 flits"), "{text}");
        assert!(text.contains("link 0: delivered 0 flits"), "{text}");
    }

    #[test]
    fn gauges_overwrite_and_peaks_only_rise() {
        let c = Counter::default();
        c.set(10);
        c.set(4);
        assert_eq!(c.get(), 4);
        for n in [3, 9, 1] {
            c.raise(n);
        }
        assert_eq!(c.get(), 9);
    }

    /// One block per shard, three cache lines: the producers' group on
    /// a line of its own, the worker's on two, and no block shares a
    /// line with its neighbour's.
    #[test]
    fn the_block_is_three_lines_split_by_writer() {
        assert!(
            size_of::<ShardStats>() <= 192,
            "{}",
            size_of::<ShardStats>()
        );
        assert_eq!(align_of::<ShardStats>(), 64);
        let lines = |at: usize, len: usize| at / 64..=(at + len - 1) / 64;
        let producer = lines(offset_of!(ShardStats, producer), size_of::<ProducerStats>());
        let worker = lines(offset_of!(ShardStats, worker), size_of::<WorkerStats>());
        assert!(
            producer.end() < worker.start() || worker.end() < producer.start(),
            "producer lines {producer:?}, worker lines {worker:?}"
        );
    }
}

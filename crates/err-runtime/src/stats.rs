//! Lock-free per-shard statistics and their merged runtime view.
//!
//! Each shard owns one [`ShardStats`] block of cache-line-padded atomic
//! counters; the worker updates them with relaxed stores on its hot path
//! and readers take consistent-enough [`ShardSnapshot`]s at any time
//! without stopping the world. [`RuntimeStats`] merges the per-shard
//! snapshots into the aggregate view the operator cares about.
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

use err_egress::EgressSnapshot;

/// A cache-line-padded atomic counter, so two shards' hot counters never
/// share a line (false sharing would serialize the shards through the
/// coherence protocol — exactly what the sharded design exists to avoid).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct PaddedCounter(AtomicU64);

impl PaddedCounter {
    /// Adds `n` (relaxed; counters are monotonic and independently read).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value (for gauges such as backlog).
    #[inline]
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Reads the current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One shard's counters. Written by its worker (and, for the admission
/// counters, by producers); read by anyone.
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Packets accepted into this shard's ingress ring.
    pub enqueued_packets: PaddedCounter,
    /// Flits belonging to accepted packets.
    pub enqueued_flits: PaddedCounter,
    /// Packets dropped by drop-tail admission (never entered the ring).
    pub dropped_packets: PaddedCounter,
    /// Flits of dropped packets.
    pub dropped_flits: PaddedCounter,
    /// Packets refused with an error under the reject policy.
    pub rejected_packets: PaddedCounter,
    /// Flits served by the shard's scheduler.
    pub served_flits: PaddedCounter,
    /// Packets whose tail flit has been served.
    pub served_packets: PaddedCounter,
    /// Scheduler backlog in flits (gauge, refreshed every service batch).
    pub backlog_flits: PaddedCounter,
    /// Service-loop iterations that moved at least one packet or flit.
    pub busy_loops: PaddedCounter,
    /// Service-loop iterations that moved nothing: each takes the idle
    /// path (two looks at the wake predicate, then maybe a park),
    /// yields to a producer caught mid-push, or — during a hot steal
    /// hand-off — loops straight on.
    pub idle_loops: PaddedCounter,
    /// Times the worker parked because there was nothing to do.
    pub parks: PaddedCounter,
    /// Parks that ran to their timeout instead of being ended by a
    /// peer's wake (a producer about to wait, another worker returning
    /// credits) — the share of `parks` the timers still carry.
    pub park_timeouts: PaddedCounter,
    /// Flows this shard stole (absorbed) from another shard.
    pub stolen_in: PaddedCounter,
    /// Flows this shard gave up (extracted) to a thief.
    pub donated_out: PaddedCounter,
    /// Flits that changed shards inside migration packages.
    pub migrated_flits: PaddedCounter,
    /// Steal requests that died before quiescing (no eligible victim,
    /// or shutdown).
    pub steal_aborts: PaddedCounter,
    /// Packets a forced abort (§9.4) cut off: ring and scheduler
    /// residue, admission charges revoked.
    pub lost_packets: PaddedCounter,
    /// Flits of lost packets (partially served packets count only
    /// their unserved remainder).
    pub lost_flits: PaddedCounter,
    /// Backpressure waits that hit their submit deadline
    /// (`SubmitError::TimedOut`); the packet never entered a ring.
    pub timedout_packets: PaddedCounter,
}

impl ShardStats {
    /// Takes a point-in-time copy of the counters.
    pub fn snapshot(&self, shard: usize) -> ShardSnapshot {
        ShardSnapshot {
            shard,
            enqueued_packets: self.enqueued_packets.get(),
            enqueued_flits: self.enqueued_flits.get(),
            dropped_packets: self.dropped_packets.get(),
            dropped_flits: self.dropped_flits.get(),
            rejected_packets: self.rejected_packets.get(),
            served_flits: self.served_flits.get(),
            served_packets: self.served_packets.get(),
            backlog_flits: self.backlog_flits.get(),
            busy_loops: self.busy_loops.get(),
            idle_loops: self.idle_loops.get(),
            parks: self.parks.get(),
            park_timeouts: self.park_timeouts.get(),
            stolen_in: self.stolen_in.get(),
            donated_out: self.donated_out.get(),
            migrated_flits: self.migrated_flits.get(),
            steal_aborts: self.steal_aborts.get(),
            lost_packets: self.lost_packets.get(),
            lost_flits: self.lost_flits.get(),
            timedout_packets: self.timedout_packets.get(),
        }
    }
}

/// Plain-value copy of one shard's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// See [`ShardStats::enqueued_packets`].
    pub enqueued_packets: u64,
    /// See [`ShardStats::enqueued_flits`].
    pub enqueued_flits: u64,
    /// See [`ShardStats::dropped_packets`].
    pub dropped_packets: u64,
    /// See [`ShardStats::dropped_flits`].
    pub dropped_flits: u64,
    /// See [`ShardStats::rejected_packets`].
    pub rejected_packets: u64,
    /// See [`ShardStats::served_flits`].
    pub served_flits: u64,
    /// See [`ShardStats::served_packets`].
    pub served_packets: u64,
    /// See [`ShardStats::backlog_flits`].
    pub backlog_flits: u64,
    /// See [`ShardStats::busy_loops`].
    pub busy_loops: u64,
    /// See [`ShardStats::idle_loops`].
    pub idle_loops: u64,
    /// See [`ShardStats::parks`].
    pub parks: u64,
    /// See [`ShardStats::park_timeouts`].
    pub park_timeouts: u64,
    /// See [`ShardStats::stolen_in`].
    pub stolen_in: u64,
    /// See [`ShardStats::donated_out`].
    pub donated_out: u64,
    /// See [`ShardStats::migrated_flits`].
    pub migrated_flits: u64,
    /// See [`ShardStats::steal_aborts`].
    pub steal_aborts: u64,
    /// See [`ShardStats::lost_packets`].
    pub lost_packets: u64,
    /// See [`ShardStats::lost_flits`].
    pub lost_flits: u64,
    /// See [`ShardStats::timedout_packets`].
    pub timedout_packets: u64,
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
    /// Merges per-shard stat blocks into one view.
    pub fn collect(stats: &[ShardStats]) -> Self {
        Self {
            shards: stats
                .iter()
                .enumerate()
                .map(|(i, s)| s.snapshot(i))
                .collect(),
            egress: None,
        }
    }

    /// Attaches an egress snapshot (buffered mode).
    pub fn with_egress(mut self, egress: EgressSnapshot) -> Self {
        self.egress = Some(egress);
        self
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
        /// Total completed flow migrations (each counted at the thief).
        migrations => stolen_in,
        /// Total flits moved between shards by migrations.
        migrated_flits => migrated_flits,
        /// Total steal requests aborted before quiescing.
        steal_aborts => steal_aborts,
        /// Total packets lost to faults or forced shutdown.
        lost_packets => lost_packets,
        /// Total flits of lost packets.
        lost_flits => lost_flits,
        /// Total backpressure waits that hit their submit deadline.
        timedout_packets => timedout_packets,
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

    /// Flits delivered downstream by the flusher steps (0 in sync mode,
    /// where delivery is counted as `served_flits`).
    pub fn flushed_flits(&self) -> u64 {
        self.egress.as_ref().map_or(0, |e| e.flushed_flits())
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
        if self.migrations() > 0 || self.steal_aborts() > 0 {
            writeln!(
                f,
                "  stealing: {} migrations | {} flits moved | {} aborted requests",
                self.migrations(),
                self.migrated_flits(),
                self.steal_aborts(),
            )?;
        }
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
                e.flushed_flits(),
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
    use super::*;

    #[test]
    fn snapshot_and_merge() {
        let blocks = [ShardStats::default(), ShardStats::default()];
        blocks[0].enqueued_packets.add(3);
        blocks[0].enqueued_flits.add(12);
        blocks[1].enqueued_packets.add(4);
        blocks[1].dropped_packets.add(1);
        blocks[1].dropped_flits.add(9);
        blocks[0].served_flits.add(12);
        blocks[0].served_packets.add(3);
        blocks[1].backlog_flits.set(7);

        let m = RuntimeStats::collect(&blocks);
        assert_eq!(m.shards.len(), 2);
        assert_eq!(m.enqueued_packets(), 7);
        assert_eq!(m.enqueued_flits(), 12);
        assert_eq!(m.dropped_packets(), 1);
        assert_eq!(m.submitted_packets(), 8);
        assert_eq!(m.served_packets(), 3);
        assert_eq!(m.backlog_flits(), 7);
        assert!((m.loss_rate() - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_human_readable() {
        let blocks = [ShardStats::default()];
        blocks[0].enqueued_packets.add(2);
        blocks[0].served_packets.add(2);
        blocks[0].served_flits.add(9);
        let mut m = RuntimeStats::collect(&blocks);
        let text = m.to_string();
        assert!(text.contains("served 2 pkts / 9 flits"), "{text}");
        assert!(!text.contains("egress:"), "sync mode has no egress line");

        let egress = EgressSnapshot {
            shards: vec![err_egress::ShardEgressSnapshot {
                flushed_flits: 9,
                ring_peak: 3,
                ..Default::default()
            }],
            links: Vec::new(),
        };
        m = m.with_egress(egress);
        let text = m.to_string();
        assert!(text.contains("flushed 9 flits"), "{text}");
        assert_eq!(m.flushed_flits(), 9);
        assert_eq!(m.peak_ring_occupancy(), 3);
        assert_eq!(m.stall_events(), 0);
    }

    #[test]
    fn gauge_set_overwrites() {
        let c = PaddedCounter::default();
        c.set(10);
        c.set(4);
        assert_eq!(c.get(), 4);
    }
}

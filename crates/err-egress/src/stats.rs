//! Egress-side counters: per-shard atomics plus aggregate snapshots.
//!
//! Like the runtime's stats module, every counter is **approximate
//! under race**: all accesses are `Relaxed` (enforced by err-check's
//! `stats-relaxed` lint), each counter is individually exact, and
//! cross-counter relationships are only meaningful after a drain.
//! Nothing in the scheduling or flow-control path reads these.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

use crate::link::LinkSnapshot;

/// Counters for one shard's egress path. Writers: the shard worker
/// (ring occupancy, credit waits) and the shard's flusher (flushed
/// flits). Cache-line padded like the runtime's shard stats so two
/// shards never false-share.
#[repr(align(64))]
#[derive(Default)]
pub struct ShardEgressStats {
    /// Flits the flusher has handed to the sink.
    pub flushed_flits: AtomicU64,
    /// High-water mark of the shard's output-ring occupancy.
    pub ring_peak: AtomicU64,
    /// Times the worker found a link's credit pool empty and had to
    /// park the link's flows.
    pub credit_exhaustions: AtomicU64,
    /// Times the worker found the output ring full and had to spin.
    pub ring_full_spins: AtomicU64,
    /// Times this shard's flusher body unwound and was caught by its
    /// supervisor (DESIGN.md §14.4). Written by the flusher thread's
    /// catch-unwind wrapper, once per panic — never on the flit path.
    pub flusher_panics: AtomicU64,
    /// Flusher rounds whose step moved nothing: each is one idle phase
    /// (a couple of looks, then maybe a park) — `flusher_parks`
    /// plus the phases a look cut short.
    pub flusher_idle_rounds: AtomicU64,
    /// Times the flusher parked with nothing to pop.
    pub flusher_parks: AtomicU64,
    /// Flusher parks that ran to their timeout instead of being ended
    /// by the worker's wake (`Sleep::TimedOut`).
    pub flusher_park_timeouts: AtomicU64,
}

impl ShardEgressStats {
    /// Records a post-push ring occupancy observation.
    pub fn note_ring_occupancy(&self, occupancy: u64) {
        self.ring_peak.fetch_max(occupancy, Ordering::Relaxed);
    }

    /// Snapshots the counters.
    pub fn snapshot(&self) -> ShardEgressSnapshot {
        ShardEgressSnapshot {
            flushed_flits: self.flushed_flits.load(Ordering::Relaxed),
            ring_peak: self.ring_peak.load(Ordering::Relaxed),
            credit_exhaustions: self.credit_exhaustions.load(Ordering::Relaxed),
            ring_full_spins: self.ring_full_spins.load(Ordering::Relaxed),
            flusher_panics: self.flusher_panics.load(Ordering::Relaxed),
            flusher_idle_rounds: self.flusher_idle_rounds.load(Ordering::Relaxed),
            flusher_parks: self.flusher_parks.load(Ordering::Relaxed),
            flusher_park_timeouts: self.flusher_park_timeouts.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one shard's egress counters.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct ShardEgressSnapshot {
    /// Flits delivered to the sink by this shard's flusher.
    pub flushed_flits: u64,
    /// Peak output-ring occupancy.
    pub ring_peak: u64,
    /// Credit-pool exhaustion events seen by the worker.
    pub credit_exhaustions: u64,
    /// Ring-full spins seen by the worker.
    pub ring_full_spins: u64,
    /// Flusher-body panics caught by the supervisor (DESIGN.md §14.4).
    pub flusher_panics: u64,
    /// Flusher rounds whose step moved nothing (idle phases).
    pub flusher_idle_rounds: u64,
    /// Times the flusher parked with nothing to pop.
    pub flusher_parks: u64,
    /// Of those, parks that ran to their timeout un-woken.
    pub flusher_park_timeouts: u64,
}

/// Aggregate egress view: per-shard counters plus per-link watchdog
/// results.
#[derive(Clone, Debug, Default, Serialize)]
pub struct EgressSnapshot {
    /// One entry per shard.
    pub shards: Vec<ShardEgressSnapshot>,
    /// One entry per downstream link.
    pub links: Vec<LinkSnapshot>,
}

impl EgressSnapshot {
    /// Total flits flushed across shards.
    pub fn flushed_flits(&self) -> u64 {
        self.shards.iter().map(|s| s.flushed_flits).sum()
    }

    /// Largest per-shard ring peak.
    pub fn peak_ring_occupancy(&self) -> u64 {
        self.shards.iter().map(|s| s.ring_peak).max().unwrap_or(0)
    }

    /// Total flusher panics caught across shards (§14.4).
    pub fn flusher_panics(&self) -> u64 {
        self.shards.iter().map(|s| s.flusher_panics).sum()
    }

    /// Total stall events across links.
    pub fn stall_events(&self) -> u64 {
        self.links.iter().map(|l| l.stall_events).sum()
    }

    /// Longest completed stall across links, in flush-clock cycles.
    pub fn max_stall_cycles(&self) -> u64 {
        self.links
            .iter()
            .map(|l| l.max_stall_cycles)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_peak_is_a_high_water_mark() {
        let s = ShardEgressStats::default();
        s.note_ring_occupancy(3);
        s.note_ring_occupancy(9);
        s.note_ring_occupancy(1);
        assert_eq!(s.snapshot().ring_peak, 9);
    }

    #[test]
    fn aggregate_sums_and_maxes() {
        let snap = EgressSnapshot {
            shards: vec![
                ShardEgressSnapshot {
                    flushed_flits: 10,
                    ring_peak: 4,
                    ..Default::default()
                },
                ShardEgressSnapshot {
                    flushed_flits: 5,
                    ring_peak: 7,
                    ..Default::default()
                },
            ],
            links: Vec::new(),
        };
        assert_eq!(snap.flushed_flits(), 15);
        assert_eq!(snap.peak_ring_occupancy(), 7);
        assert_eq!(snap.stall_events(), 0);
        assert_eq!(snap.max_stall_cycles(), 0);
    }
}

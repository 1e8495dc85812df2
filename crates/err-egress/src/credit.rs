//! The per-link credit counter: wormhole virtual-channel flow control
//! reduced to one atomic.
//!
//! A pool advertises `capacity` flit buffers. Shard workers
//! [`try_acquire`](CreditPool::try_acquire) one credit per flit
//! *before* committing it to an egress ring; the flusher
//! [`release`](CreditPool::release)s the credit when the flit is
//! delivered (or dead-lettered). The pool is therefore a hard bound on
//! buffered flits per link — the invariant
//! `tests/egress_integration.rs` asserts and err-check's `spsc_credit`
//! loom model checks under every interleaving.
//!
//! Extracted from `link.rs` in PR 5 so the exact shipped atomics can be
//! compiled against the loom shim (the crate-private `sync` module) and
//! checked.

use crate::sync::{AtomicU64, Ordering};

/// A bounded credit counter shared by any number of acquiring workers
/// and releasing flushers.
#[derive(Debug)]
pub struct CreditPool {
    capacity: u64,
    /// Credits currently available to senders.
    credits: AtomicU64,
    /// High-water mark of credits outstanding at once.
    outstanding_peak: AtomicU64,
}

impl CreditPool {
    /// A full pool of `capacity` credits.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "need at least one credit");
        Self {
            capacity,
            credits: AtomicU64::new(capacity),
            outstanding_peak: AtomicU64::new(0),
        }
    }

    /// The advertised buffer capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Tries to take one credit. Returns `false` when the pool is
    /// exhausted — the caller must stop committing flits until credits
    /// return.
    pub fn try_acquire(&self) -> bool {
        let mut cur = self.credits.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return false;
            }
            // ordering: AcqRel — the Acquire half pairs with the
            // Release half of the flusher's `release` fetch_add, so the
            // downstream buffer this credit stands for is observed free
            // before the worker reuses it; the Release half keeps the
            // release sequence intact for other acquiring workers.
            match self.credits.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    let outstanding = self.capacity - (cur - 1);
                    self.outstanding_peak
                        .fetch_max(outstanding, Ordering::Relaxed);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Returns one credit (a delivery or dead-letter downstream) and
    /// reports whether the pool was empty before — the only state in
    /// which a sender can be waiting for this credit. Panics in debug
    /// builds if the pool would exceed its capacity — that means a
    /// release without a matching acquire.
    pub fn release(&self) -> bool {
        // ordering: AcqRel — the Release half pairs with the Acquire
        // half of `try_acquire`'s CAS (publishes the flusher's work on
        // the freed buffer); the Acquire half orders the flusher after
        // the worker's acquire when the pool cycles at capacity.
        let prev = self.credits.fetch_add(1, Ordering::AcqRel);
        debug_assert!(prev < self.capacity, "credit released above capacity");
        prev == 0
    }

    /// Credits currently available (racy; exact only when quiescent).
    pub fn available(&self) -> u64 {
        // ordering: Acquire pairs with the AcqRel RMWs above so a
        // quiescent reader (snapshot, watchdog) sees the final count.
        self.credits.load(Ordering::Acquire)
    }

    /// Credits currently outstanding (capacity − available).
    pub fn outstanding(&self) -> u64 {
        self.capacity - self.available()
    }

    /// High-water mark of credits outstanding at once.
    pub fn outstanding_peak(&self) -> u64 {
        self.outstanding_peak.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_outstanding_and_tracks_peak() {
        let pool = CreditPool::new(3);
        assert_eq!(pool.capacity(), 3);
        assert!(pool.try_acquire());
        assert!(pool.try_acquire());
        assert!(pool.try_acquire());
        assert!(!pool.try_acquire(), "pool exhausted");
        assert_eq!(pool.outstanding(), 3);
        assert!(pool.release(), "the pool was empty: a sender may wait");
        assert!(!pool.release(), "it no longer was");
        assert!(pool.try_acquire(), "release returns the credit");
        assert!(pool.try_acquire());
        assert_eq!(pool.outstanding_peak(), 3);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "credit released above capacity")]
    fn overflow_release_panics_in_debug() {
        let pool = CreditPool::new(1);
        pool.release();
    }
}

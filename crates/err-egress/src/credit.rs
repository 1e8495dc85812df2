//! The per-link credit counter: wormhole virtual-channel flow control
//! reduced to one atomic.
//!
//! A pool advertises `capacity` flit buffers. A shard worker takes a
//! *grant* — [`acquire`](CreditPool::acquire): up to as many credits as
//! its service chunk can still emit, in one CAS — *before* it serves a
//! flit of that link, spends the grant flit by flit from a local
//! counter, and gives the unused rest back; the flusher
//! `release_n`s the credits of the flits it
//! delivered (or dead-lettered), a batch at a time. The pool is
//! therefore a hard bound on buffered flits per link — the invariant
//! `tests/egress_integration.rs` asserts and err-check's `spsc_credit`
//! and `credit_grant` loom models check under every interleaving.
//! [`try_acquire`](CreditPool::try_acquire) and
//! [`release`](CreditPool::release) are the one-credit cases.
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

    /// Takes up to `want` credits in one CAS — `min(available, want)`
    /// — and returns how many it took. Zero means the pool is
    /// exhausted: the caller must not commit a flit to this link until
    /// credits return.
    pub fn acquire(&self, want: u64) -> u64 {
        let mut cur = self.credits.load(Ordering::Relaxed);
        loop {
            let take = cur.min(want);
            if take == 0 {
                return 0;
            }
            // ordering: AcqRel — the Acquire half pairs with the
            // Release half of the returner's `release_n` fetch_add, so
            // the downstream buffers these credits stand for are seen
            // free before the worker reuses them; the Release half
            // keeps the release sequence intact for other acquirers.
            match self.credits.compare_exchange_weak(
                cur,
                cur - take,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    let outstanding = self.capacity - (cur - take);
                    self.outstanding_peak
                        .fetch_max(outstanding, Ordering::Relaxed);
                    return take;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Tries to take one credit: the one-credit case of
    /// [`acquire`](Self::acquire).
    pub fn try_acquire(&self) -> bool {
        self.acquire(1) == 1
    }

    /// Returns `n` credits (deliveries or dead-letters downstream, or
    /// the unused rest of a grant) and reports whether the pool was
    /// empty before — the only state in which a sender can be waiting
    /// for them. Panics in debug builds if the pool would exceed its
    /// capacity — that means a release without a matching acquire.
    pub(crate) fn release_n(&self, n: u64) -> bool {
        // ordering: AcqRel — the Release half pairs with the Acquire
        // half of `acquire`'s CAS (publishes the returner's work on
        // the freed buffers); the Acquire half orders the returner
        // after the worker's acquire when the pool cycles at capacity.
        let prev = self.credits.fetch_add(n, Ordering::AcqRel);
        debug_assert!(prev + n <= self.capacity, "credit released above capacity");
        prev == 0
    }

    /// Returns one credit (a delivery or dead-letter downstream) and
    /// reports whether the pool was empty before. Panics in debug builds
    /// if the pool would exceed its capacity.
    pub fn release(&self) -> bool {
        self.release_n(1)
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

    #[test]
    fn a_grant_takes_what_is_there_and_no_more() {
        let pool = CreditPool::new(8);
        assert_eq!(pool.acquire(5), 5);
        assert_eq!(pool.acquire(5), 3, "min(available, want)");
        assert_eq!(pool.acquire(5), 0, "exhausted");
        assert_eq!(pool.outstanding_peak(), 8);
        assert!(pool.release_n(6), "the pool was empty");
        assert!(!pool.release_n(2), "it no longer was");
        assert_eq!(pool.available(), 8);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "credit released above capacity")]
    fn overflow_release_panics_in_debug() {
        let pool = CreditPool::new(1);
        pool.release();
    }
}

//! Bounded single-producer/single-consumer ring buffer.
//!
//! Each shard worker is the sole producer of its output ring and, in its
//! flusher step, the sole consumer. So the egress path can use
//! the classic Lamport queue instead of the heavier multi-producer ring
//! the ingress side needs (`err-runtime`'s Vyukov ring): one atomic
//! load + one atomic store per operation, with cached cursors so the
//! common case touches only one shared cache line.
//!
//! Capacity is rounded up to a power of two; one slot is sacrificed to
//! distinguish full from empty, so a ring built with capacity `c` holds
//! at least `c` items.

use std::mem::MaybeUninit;
use std::sync::Arc;

use crate::sync::{AtomicUsize, Ordering, UnsafeCell};

struct Inner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot to read (owned by the consumer, read by the producer).
    head: AtomicUsize,
    /// Next slot to write (owned by the producer, read by the consumer).
    tail: AtomicUsize,
}

// SAFETY: the ring owns its values; moving it moves them, so `T: Send`
// suffices.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: the producer/consumer split guarantees each slot is accessed
// by at most one thread at a time — ownership transfers through the
// head/tail Acquire/Release pairs in `push`/`pop`.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Drop any items still in flight (both handles are gone, so the
        // cursors are stable; the Arc teardown that got us `&mut self`
        // already ordered us after both sides' last access).
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        let mut i = head;
        while i != tail {
            // SAFETY: positions in [head, tail) were written by the
            // producer and never read out by the consumer, and `&mut
            // self` proves no other accessor exists.
            self.buf[i & self.mask].with_mut(|p| unsafe { (*p).assume_init_drop() });
            i = i.wrapping_add(1);
        }
    }
}

/// Producer half of the ring. Not clonable: exactly one producer.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// Producer's private copy of `head`; refreshed only when the ring
    /// looks full, so most pushes never read the consumer's cache line.
    cached_head: usize,
    tail: usize,
}

/// Consumer half of the ring. Not clonable: exactly one consumer.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    /// Consumer's private copy of `tail`; refreshed only when the ring
    /// looks empty.
    cached_tail: usize,
    head: usize,
}

/// Creates a bounded SPSC ring holding at least `capacity` items.
pub fn spsc_ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be positive");
    // +1 because one slot separates full from empty.
    let cap = (capacity + 1).next_power_of_two();
    let buf = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let inner = Arc::new(Inner {
        buf,
        mask: cap - 1,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
    });
    (
        Producer {
            inner: Arc::clone(&inner),
            cached_head: 0,
            tail: 0,
        },
        Consumer {
            inner,
            cached_tail: 0,
            head: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Pushes `item`, or returns it if the ring is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        let cap = self.inner.mask + 1;
        if self.tail.wrapping_sub(self.cached_head) == cap - 1 {
            // ordering: Acquire pairs with the consumer's Release
            // `head` store in `pop` — the consumer's read-out of the
            // slot we are about to overwrite completed before it
            // advanced `head`.
            self.cached_head = self.inner.head.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.cached_head) == cap - 1 {
                return Err(item);
            }
        }
        // SAFETY: the slot at `tail` is outside [head, tail) — the
        // consumer never touches it — and the full-check above proved
        // the previous lap's value was read out (via the Acquire edge
        // on `head`), so the single producer owns it exclusively.
        self.inner.buf[self.tail & self.inner.mask].with_mut(|p| unsafe { (*p).write(item) });
        self.tail = self.tail.wrapping_add(1);
        // ordering: Release pairs with the consumer's Acquire `tail`
        // load in `pop`/`is_empty` — publishes the
        // cell write above before the slot becomes visible.
        // [pair: spsc-tail @ self]
        self.inner.tail.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// How many [`push`](Self::push)es in a row would succeed now, at
    /// least: the cached view of `head` is refreshed only when it shows
    /// the ring full, so the count may lag what the consumer freed since.
    pub fn free_slots(&mut self) -> usize {
        let full = self.inner.mask;
        if self.tail.wrapping_sub(self.cached_head) == full {
            self.occupancy();
        }
        full - self.tail.wrapping_sub(self.cached_head)
    }

    /// Items currently buffered, as seen from the producer side (exact
    /// for the producer's own pushes; the consumer may have drained more
    /// since `cached_head` was refreshed, so this is an upper bound).
    pub fn occupancy(&mut self) -> usize {
        // ordering: Acquire — same pairing as the full-check in `push`
        // (the refreshed `cached_head` may be reused there).
        self.cached_head = self.inner.head.load(Ordering::Acquire);
        self.tail.wrapping_sub(self.cached_head)
    }
}

impl<T> Consumer<T> {
    /// Pops the oldest item, or `None` if the ring is empty.
    pub fn pop(&mut self) -> Option<T> {
        if self.head == self.cached_tail {
            // ordering: Acquire pairs with the producer's Release
            // `tail` store in `push` — the cell write at `head` is
            // visible before the slot appears occupied.
            // [pair: spsc-tail @ self]
            self.cached_tail = self.inner.tail.load(Ordering::Acquire);
            if self.head == self.cached_tail {
                return None;
            }
        }
        // SAFETY: `head < cached_tail` (where `cached_tail` came from
        // the Acquire load above) proves the producer published this
        // slot, and the single consumer owns position `head`
        // exclusively, so the initialized value can be moved out
        // exactly once.
        let item = self.inner.buf[self.head & self.inner.mask]
            .with(|p| unsafe { (*p).assume_init_read() });
        self.head = self.head.wrapping_add(1);
        // ordering: Release pairs with the producer's Acquire `head`
        // load in `push` — the read-out above completes before the slot
        // reads free, so the next lap's write cannot clobber it.
        self.inner.head.store(self.head, Ordering::Release);
        Some(item)
    }

    /// Whether the ring is empty right now (refreshes the tail view).
    pub fn is_empty(&mut self) -> bool {
        if self.head != self.cached_tail {
            return false;
        }
        // ordering: Acquire — same pairing as the empty-check in `pop`
        // (the refreshed `cached_tail` may be reused there).
        self.cached_tail = self.inner.tail.load(Ordering::Acquire);
        self.head == self.cached_tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (mut tx, mut rx) = spsc_ring::<u32>(8);
        for v in 0..8 {
            tx.push(v).unwrap();
        }
        for v in 0..8 {
            assert_eq!(rx.pop(), Some(v));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn full_ring_rejects_and_recovers() {
        let (mut tx, mut rx) = spsc_ring::<u32>(2);
        // Rounded capacity is at least 2; fill until rejection.
        let mut n = 0;
        while tx.push(n).is_ok() {
            n += 1;
        }
        assert!(n >= 2, "holds at least the requested capacity");
        assert_eq!(rx.pop(), Some(0));
        tx.push(n).unwrap(); // space reappears after a pop
        for v in 1..=n {
            assert_eq!(rx.pop(), Some(v));
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn occupancy_tracks_contents() {
        let (mut tx, mut rx) = spsc_ring::<u32>(8);
        assert_eq!(tx.occupancy(), 0);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(tx.occupancy(), 2);
        rx.pop();
        assert_eq!(tx.occupancy(), 1);
    }

    #[test]
    fn free_slots_counts_the_pushes_that_succeed() {
        let (mut tx, mut rx) = spsc_ring::<u32>(7);
        let free = tx.free_slots();
        assert_eq!(free, 7, "capacity 7 rounds to 8, one slot kept free");
        for v in 0..free as u32 {
            tx.push(v).unwrap();
        }
        assert_eq!(tx.free_slots(), 0);
        assert!(tx.push(99).is_err());
        rx.pop();
        rx.pop();
        assert_eq!(tx.free_slots(), 2, "a full view is refreshed");
    }

    #[test]
    fn drops_in_flight_items() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (mut tx, rx) = spsc_ring::<D>(4);
        assert!(tx.push(D).is_ok());
        assert!(tx.push(D).is_ok());
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn cross_thread_stress_preserves_order() {
        let (mut tx, mut rx) = spsc_ring::<u64>(64);
        const N: u64 = 200_000;
        let producer = std::thread::spawn(move || {
            for v in 0..N {
                let mut item = v;
                loop {
                    match tx.push(item) {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        let mut next = 0u64;
        while next < N {
            if let Some(v) = rx.pop() {
                assert_eq!(v, next);
                next += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(rx.is_empty());
    }
}

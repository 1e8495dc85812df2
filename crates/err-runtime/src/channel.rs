//! Lock-free bounded MPSC ring used as each shard's ingress queue.
//!
//! This is Vyukov's bounded MPMC queue (used here with a single
//! consumer): an array of slots, each carrying a sequence number that
//! encodes whether the slot is free for the producer of a given lap or
//! holds a value for the consumer. Producers claim slots with a CAS on
//! the enqueue cursor; the consumer claims with a CAS-free load/store
//! pair (it is unique). All hot-path operations are O(1) and allocation-
//! free, matching the runtime's goal of link-rate admission: a producer
//! never takes a lock to hand a packet to a shard.
//!
//! Two questions a reader can put to the ring are not the same
//! question. *How many slots are claimed?* — [`MpscRing::len`] /
//! [`is_empty`](MpscRing::is_empty), the cursor difference: it counts
//! a slot from the producer's CAS on, before the value is written. *Would
//! a pop succeed?* — [`MpscRing::head_ready`], the head slot's sequence
//! number: true only once the producer at the head has published. A
//! producer preempted between its claim and its publish makes the first
//! say "non-empty" while every `pop` returns `None`; a consumer that
//! idles on the claimed count spins for as long as that producer is
//! kept off the CPU — possibly by the consumer itself (DESIGN.md §6).

use std::mem::MaybeUninit;

use crate::sync::{AtomicUsize, Ordering, UnsafeCell};

/// Result of a failed [`MpscRing::push`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingFull;

struct Slot<T> {
    /// Lap marker: `seq == index` → empty, writable by the producer that
    /// claims `index`; `seq == index + 1` → full, readable by the
    /// consumer expecting `index`.
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A fixed-capacity lock-free multi-producer single-consumer ring.
///
/// `push` may be called concurrently from any number of threads; `pop`
/// must only be called from one thread at a time (the owning shard).
pub struct MpscRing<T> {
    slots: Box<[Slot<T>]>,
    /// Capacity mask (capacity is a power of two).
    mask: usize,
    enqueue: AtomicUsize,
    dequeue: AtomicUsize,
}

// SAFETY: the ring owns its values; moving the ring moves them, so
// `T: Send` suffices.
unsafe impl<T: Send> Send for MpscRing<T> {}
// SAFETY: cross-thread access to each slot's `value` cell is mediated by
// its `seq` Acquire/Release handshake (exclusive claim before write,
// publication before read), so sharing the ring only requires `T: Send`.
unsafe impl<T: Send> Sync for MpscRing<T> {}

impl<T> MpscRing<T> {
    /// Creates a ring holding at least `capacity` elements (rounded up
    /// to a power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            slots,
            mask: cap - 1,
            enqueue: AtomicUsize::new(0),
            dequeue: AtomicUsize::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Slots *claimed* and not yet popped (racy; exact only when
    /// quiescent): a producer's slot counts from its cursor CAS,
    /// before its value is published. That is what the exit gate and a
    /// producer about to wait need — a claimed slot is a packet about
    /// to arrive — and it is **not** a pop predicate: see
    /// [`head_ready`](Self::head_ready).
    pub fn len(&self) -> usize {
        let deq = self.dequeue.load(Ordering::Relaxed);
        let enq = self.enqueue.load(Ordering::Relaxed);
        enq.wrapping_sub(deq)
    }

    /// Whether no slot is claimed (racy; see [`len`](Self::len)).
    /// `false` does not mean a `pop` would succeed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a [`pop`](Self::pop) would succeed: the slot at the
    /// dequeue cursor has been published. Single-consumer only, like
    /// `pop`. A ring that is non-empty with an unready head has a
    /// producer between its claim and its publish — runnable, and if it
    /// shares the consumer's CPU, waiting for the consumer to get out
    /// of its way.
    pub fn head_ready(&self) -> bool {
        let pos = self.dequeue.load(Ordering::Relaxed);
        // ordering: Acquire pairs with the producer's Release `seq`
        // store in `push`, exactly as the load in `pop` does — a sleeper
        // whose re-check reads "ready" here is ordered after the
        // publish, so the `pop` that follows finds the value.
        // [pair: mpsc-seq @ self]
        let seq = self.slots[pos & self.mask].seq.load(Ordering::Acquire);
        (seq as isize - pos.wrapping_add(1) as isize) >= 0
    }

    /// Attempts to enqueue `value`. Lock-free; fails when the ring is
    /// full at the moment of the attempt.
    pub fn push(&self, value: T) -> Result<(), RingFull> {
        let mut pos = self.enqueue.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            // ordering: Acquire pairs with the consumer's Release `seq`
            // store in `pop` — a freed slot's previous value was fully
            // read out before this producer may overwrite it.
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                // Slot free for this lap: try to claim it (Relaxed: the
                // claim itself publishes nothing; the slot handshake
                // below carries all payload ordering).
                match self.enqueue.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS claimed slot `pos` exclusively
                        // (losers chase the cursor), and `seq == pos`
                        // proved the consumer finished with the previous
                        // lap's value, so writing the uninit cell is
                        // race-free until we publish `seq = pos + 1`.
                        slot.value.with_mut(|p| unsafe { (*p).write(value) });
                        // ordering: Release pairs with the consumer's
                        // Acquire `seq` load in `pop` and `head_ready`
                        // — publishes the cell write above before the
                        // slot reads full.
                        // [pair: mpsc-seq @ self]
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(cur) => pos = cur,
                }
            } else if diff < 0 {
                // The consumer has not freed this slot: the ring is
                // full (enqueue is a full lap ahead of dequeue).
                return Err(RingFull);
            } else {
                // Another producer claimed `pos`; chase the cursor.
                pos = self.enqueue.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues one value, or `None` if empty.
    ///
    /// Must only be called by the single consumer.
    pub fn pop(&self) -> Option<T> {
        let pos = self.dequeue.load(Ordering::Relaxed);
        let slot = &self.slots[pos & self.mask];
        // ordering: Acquire pairs with the producer's Release `seq`
        // store in `push` — the cell write is visible before the slot
        // reads full.
        // [pair: mpsc-seq @ self]
        let seq = slot.seq.load(Ordering::Acquire);
        if (seq as isize - (pos.wrapping_add(1)) as isize) < 0 {
            return None; // Nothing published at this position yet.
        }
        // Single consumer: no CAS needed on the dequeue cursor, and no
        // ordering: producers find free slots through `seq`, and `len`
        // reads the cursor racily.
        self.dequeue.store(pos.wrapping_add(1), Ordering::Relaxed);
        // SAFETY: `seq == pos + 1` proves the producer published this
        // slot (its write happens-before the Acquire load above), and
        // the single consumer owns position `pos` exclusively, so the
        // initialized value can be moved out exactly once.
        let value = slot.value.with(|p| unsafe { (*p).assume_init_read() });
        // Free the slot for the producer one lap ahead.
        // ordering: Release pairs with the producer's Acquire `seq`
        // load in `push` — the read-out above completes before the slot
        // reads free, so the next lap's write cannot clobber it.
        slot.seq.store(
            pos.wrapping_add(self.mask).wrapping_add(1),
            Ordering::Release,
        );
        Some(value)
    }

    /// Drains up to `max` values into `out`; returns how many were
    /// moved. Single-consumer only.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.pop() {
                Some(v) => {
                    out.push(v);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

impl<T> Drop for MpscRing<T> {
    fn drop(&mut self) {
        // Drop any values still in the ring.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_single_thread() {
        let r = MpscRing::with_capacity(8);
        for i in 0..8 {
            r.push(i).unwrap();
        }
        assert_eq!(r.push(99), Err(RingFull));
        for i in 0..8 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
        // Wrap-around works.
        for lap in 0..5 {
            for i in 0..6 {
                r.push(lap * 10 + i).unwrap();
            }
            for i in 0..6 {
                assert_eq!(r.pop(), Some(lap * 10 + i));
            }
        }
    }

    /// A producer caught between its claim and its publish: the ring
    /// counts the slot, no pop can take it, and the pop predicate says
    /// so — the state a worker used to live-spin on (DESIGN.md §6).
    #[test]
    fn a_claimed_unpublished_slot_counts_but_is_not_ready() {
        let r = MpscRing::<u32>::with_capacity(4);
        assert!(r.is_empty() && !r.head_ready());
        // The first half of `push`: the cursor CAS.
        r.enqueue
            .compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed)
            .expect("uncontended claim");
        assert!(!r.is_empty(), "the claimed slot counts");
        assert_eq!(r.len(), 1);
        assert_eq!(r.pop(), None, "nothing is published yet");
        assert!(!r.head_ready(), "so a pop would not succeed");
        // A second producer claims and publishes behind it: still
        // nothing at the head.
        r.push(8).unwrap();
        assert_eq!(r.len(), 2);
        assert!(!r.head_ready());
        assert_eq!(r.pop(), None);
        // The second half: write the value, publish the sequence.
        // SAFETY: slot 0 was claimed by the CAS above and never
        // published, so this thread owns its cell.
        r.slots[0].value.with_mut(|p| unsafe { (*p).write(7) });
        r.slots[0].seq.store(1, Ordering::Release);
        assert!(r.head_ready());
        assert_eq!(r.pop(), Some(7));
        assert!(
            r.head_ready(),
            "the published slot behind it is the head now"
        );
        assert_eq!(r.pop(), Some(8));
        assert!(r.is_empty() && !r.head_ready());
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(MpscRing::<u8>::with_capacity(0).capacity(), 2);
        assert_eq!(MpscRing::<u8>::with_capacity(5).capacity(), 8);
        assert_eq!(MpscRing::<u8>::with_capacity(64).capacity(), 64);
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 20_000;
        let r = Arc::new(MpscRing::with_capacity(256));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let v = p * PER_PRODUCER + i;
                        loop {
                            if r.push(v).is_ok() {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        let mut got = Vec::with_capacity((PRODUCERS * PER_PRODUCER) as usize);
        while got.len() < (PRODUCERS * PER_PRODUCER) as usize {
            if r.pop_batch(&mut got, 1024) == 0 {
                std::hint::spin_loop();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.pop(), None);
        // Per-producer order is preserved and every value arrives once.
        let mut last = vec![None::<u64>; PRODUCERS as usize];
        for v in &got {
            let p = (v / PER_PRODUCER) as usize;
            assert!(
                last[p].is_none_or(|prev| prev < *v),
                "producer order broken"
            );
            last[p] = Some(*v);
        }
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len() as u64, PRODUCERS * PER_PRODUCER);
    }
}

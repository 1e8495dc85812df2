//! A stable, deterministic event queue.
//!
//! Events are ordered by timestamp; ties are broken by insertion order
//! (FIFO), which keeps event-driven simulations deterministic regardless
//! of how the underlying binary heap happens to break ties.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Cycle;

/// An entry in the queue: payload plus ordering key.
struct Entry<T> {
    time: Cycle,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-priority queue of timestamped events.
///
/// # Examples
///
/// ```
/// use desim::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(5, "b");
/// q.push(3, "a");
/// q.push(5, "c"); // same time as "b": FIFO among ties
/// assert_eq!(q.pop(), Some((3, "a")));
/// assert_eq!(q.pop(), Some((5, "b")));
/// assert_eq!(q.pop(), Some((5, "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: Cycle, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Timestamp of the earliest pending event.
    fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.time)
    }

    /// Removes and returns the earliest event only if it is due at or
    /// before `now`.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        if self.peek_time().is_some_and(|t| t <= now) {
            self.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for (t, v) in [(10u64, 0u32), (1, 1), (7, 2), (3, 3)] {
            q.push(t, v);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(1, 1), (3, 3), (7, 2), (10, 0)]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for v in 0..100u32 {
            q.push(42, v);
        }
        for v in 0..100u32 {
            assert_eq!(q.pop(), Some((42, v)));
        }
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(5, 'x');
        assert_eq!(q.pop_due(4), None);
        assert_eq!(q.pop_due(5), Some((5, 'x')));
        assert!(q.is_empty());
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, ());
        q.push(2, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        q.push(9, 1);
        q.push(2, 2);
        assert_eq!(q.peek_time(), Some(2));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 2);
        assert_eq!(q.peek_time(), Some(9));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(4, "d");
        q.push(1, "a");
        assert_eq!(q.pop(), Some((1, "a")));
        q.push(2, "b");
        q.push(3, "c");
        assert_eq!(q.pop(), Some((2, "b")));
        assert_eq!(q.pop(), Some((3, "c")));
        assert_eq!(q.pop(), Some((4, "d")));
    }
}

//! [`Threaded`]: the thread a sink that may block brings with it.
//!
//! The shard worker runs its flusher step itself (DESIGN.md §7), so a
//! sink's `try_emit` runs on the worker, between two service chunks.
//! A sink that may block — a socket, a file, a test that holds flits
//! back — must not block there: it wraps itself in a `Threaded`
//! adapter, which owns a bounded ring and one thread. The adapter's
//! `try_emit` pushes the flit onto the ring or refuses at once, so a
//! slow sink is seen upstream exactly as any refusing sink is: the
//! flit stays pending with its link credit held, the pool drains, and
//! the worker parks the link's flows (§11.2). The thread pops the ring
//! and calls the inner sink's blocking [`emit`](Egress::emit).
//!
//! A link's `delivered_flits` counts hand-over to the adapter, not
//! arrival at the inner sink: the credit comes back when the ring takes
//! the flit (DESIGN.md §14.4). Dropping the adapter closes the ring,
//! lets the thread hand the inner sink everything already accepted,
//! and joins it — so when a runtime's shutdown returns, the inner sink
//! has seen every flit. (An inner sink that never returns holds the
//! worker that drops it; `shutdown_within` abandons that worker.)
//!
//! The thread calls the inner sink inside a `catch_unwind` fence
//! (§14.4). A sink that unwinds is never called again: from then on
//! the thread takes each flit off the ring and counts it lost, so
//! credits keep returning and the shard can drain — fail-stop, with
//! [`ThreadedSnapshot`] saying how many flits the inner sink took, how
//! many were lost, and that it panicked.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use err_sched::ServedFlit;

use crate::spsc::{spsc_ring, Consumer, Producer};
use crate::wake::{Sleep, BACKSTOP};
use crate::Egress;

/// Flits a [`Threaded`] adapter holds between hand-over and its inner
/// sink: a whole default service batch (256 flits), so a sink that
/// keeps up with the worker is not refused mid-batch.
const RING: usize = 256;

/// Counters of one [`Threaded`] adapter, written by its thread.
/// Approximate while it runs; exact once the adapter is dropped (the
/// drop joins the thread).
#[derive(Default)]
pub struct ThreadedStats {
    took: AtomicU64,
    lost: AtomicU64,
    panicked: AtomicBool,
    idle_rounds: AtomicU64,
    parks: AtomicU64,
    park_timeouts: AtomicU64,
}

impl ThreadedStats {
    /// Copies the counters.
    pub fn snapshot(&self) -> ThreadedSnapshot {
        ThreadedSnapshot {
            took: self.took.load(Ordering::Relaxed),
            lost: self.lost.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            idle_rounds: self.idle_rounds.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            park_timeouts: self.park_timeouts.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Threaded`] adapter's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadedSnapshot {
    /// Flits the inner sink took.
    pub took: u64,
    /// Flits accepted by the adapter after its inner sink unwound, and
    /// the flit it unwound on: taken off the ring, never delivered.
    pub lost: u64,
    /// Whether the inner sink unwound.
    pub panicked: bool,
    /// Rounds that found the ring empty: each is one idle phase (a
    /// couple of looks, then maybe a park).
    pub idle_rounds: u64,
    /// Times the thread parked on an empty ring.
    pub parks: u64,
    /// Of those, parks that ran to their full timeout instead of being
    /// ended by a push's wake: a wake that got lost. A park that a stray
    /// unpark ended early (`Sleep::TimedOut` reports both, DESIGN.md
    /// §6) is not counted; one wake per accepted flit leaves many.
    pub park_timeouts: u64,
}

/// An [`Egress`] that hands flits to its own thread, which calls the
/// wrapped sink (module docs). Wrap a sink that may block:
///
/// ```
/// use err_egress::{Egress, Threaded};
/// use err_sched::ServedFlit;
///
/// let mut sink = Threaded::new(|_shard: usize, _flit: &ServedFlit| {
///     std::thread::sleep(std::time::Duration::from_micros(10));
/// });
/// let stats = sink.stats();
/// let flit = ServedFlit { flow: 0, packet: 0, arrival: 0, len: 1, flit_index: 0 };
/// assert!(sink.try_emit(0, &flit));
/// drop(sink); // the inner sink has every accepted flit once this returns
/// assert_eq!(stats.snapshot().took, 1);
/// ```
pub struct Threaded {
    tx: Producer<(usize, ServedFlit)>,
    closed: Arc<AtomicBool>,
    stats: Arc<ThreadedStats>,
    thread: Option<JoinHandle<()>>,
}

impl Threaded {
    /// Spawns the adapter's thread, which owns `sink` from now on.
    pub fn new<E: Egress + 'static>(sink: E) -> Self {
        let (tx, rx) = spsc_ring(RING);
        let closed = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ThreadedStats::default());
        let thread = {
            let (closed, stats) = (Arc::clone(&closed), Arc::clone(&stats));
            // panic-policy: `run` fences every call of the inner sink
            // itself and turns an unwind into fail-stop (module docs);
            // nothing else on this thread panics.
            std::thread::Builder::new()
                .name("err-threaded-sink".into())
                .spawn(move || run(rx, sink, &closed, &stats))
                .expect("spawning threaded sink")
        };
        Self {
            tx,
            closed,
            stats,
            thread: Some(thread),
        }
    }

    /// The adapter's counters; the handle outlives the adapter.
    pub fn stats(&self) -> Arc<ThreadedStats> {
        Arc::clone(&self.stats)
    }
}

impl Egress for Threaded {
    /// Waits for ring room: only for callers that want blocking
    /// delivery; the flusher step calls `try_emit`.
    fn emit(&mut self, shard: usize, flit: &ServedFlit) {
        while !self.try_emit(shard, flit) {
            std::thread::yield_now();
        }
    }

    /// Pushes onto the ring, or refuses at once when it is full.
    fn try_emit(&mut self, shard: usize, flit: &ServedFlit) -> bool {
        if self.tx.push((shard, *flit)).is_err() {
            return false;
        }
        self.tx.wake_consumer();
        true
    }
}

impl Drop for Threaded {
    fn drop(&mut self) {
        // ordering: Release pairs with the thread's Acquire `closed`
        // loads in `run`: a thread that reads the latch also sees every
        // push made before it, so "closed and empty" is final.
        self.closed.store(true, Ordering::Release);
        self.tx.wake_consumer();
        if let Some(thread) = self.thread.take() {
            // `run` never unwinds (its one panic source is fenced).
            let _ = thread.join();
        }
    }
}

/// The adapter's thread: hands each flit on the ring to `sink` until
/// the adapter is dropped and the ring is empty.
fn run<E: Egress>(
    mut rx: Consumer<(usize, ServedFlit)>,
    mut sink: E,
    closed: &AtomicBool,
    stats: &ThreadedStats,
) {
    rx.register_sleeper();
    let mut alive = true;
    loop {
        let mut moved = false;
        while let Some((shard, flit)) = rx.pop() {
            moved = true;
            if alive {
                alive = catch_unwind(AssertUnwindSafe(|| sink.emit(shard, &flit))).is_ok();
                if !alive {
                    stats.panicked.store(true, Ordering::Relaxed);
                }
            }
            let counter = if alive { &stats.took } else { &stats.lost };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        if moved {
            continue;
        }
        // ordering: Acquire pairs with the Release store in `Drop`.
        let closed = || closed.load(Ordering::Acquire);
        if closed() && rx.is_empty() {
            return;
        }
        stats.idle_rounds.fetch_add(1, Ordering::Relaxed);
        // backstop: covered by `wake_consumer` (a push in `try_emit`,
        // and the `closed` latch in `Drop`).
        let parked = Instant::now();
        let how = rx.idle_while_empty(closed, BACKSTOP);
        let lost = how == Sleep::TimedOut && parked.elapsed() >= BACKSTOP;
        stats
            .parks
            .fetch_add(u64::from(how != Sleep::Ready), Ordering::Relaxed);
        stats
            .park_timeouts
            .fetch_add(u64::from(lost), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(packet: u64) -> ServedFlit {
        ServedFlit {
            flow: 0,
            packet,
            arrival: 0,
            len: 1,
            flit_index: 0,
        }
    }

    #[test]
    fn drop_delivers_everything_accepted_in_order() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        let mut sink = Threaded::new(move |shard: usize, f: &ServedFlit| {
            s2.lock().unwrap().push((shard, f.packet));
        });
        let stats = sink.stats();
        for p in 0..1_000u64 {
            sink.emit(3, &flit(p));
        }
        drop(sink);
        let want: Vec<_> = (0..1_000u64).map(|p| (3, p)).collect();
        assert_eq!(*seen.lock().unwrap(), want);
        let s = stats.snapshot();
        assert_eq!((s.took, s.lost, s.panicked), (1_000, 0, false));
    }

    #[test]
    fn a_full_ring_refuses_at_once() {
        let (open_tx, open_rx) = std::sync::mpsc::channel::<()>();
        let mut sink = Threaded::new(move |_s: usize, _f: &ServedFlit| {
            let _ = open_rx.recv();
        });
        let mut accepted = 0u64;
        while sink.try_emit(0, &flit(accepted)) {
            accepted += 1;
            assert!(accepted < 10 * RING as u64, "the ring never filled");
        }
        // One flit in the blocked sink, the ring full behind it.
        assert!(accepted > RING as u64 / 2, "{accepted}");
        for _ in 0..accepted {
            open_tx.send(()).unwrap();
        }
        let stats = sink.stats();
        drop(sink);
        assert_eq!(stats.snapshot().took, accepted);
    }

    #[test]
    fn a_sink_that_unwinds_is_never_called_again() {
        let calls = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&calls);
        let mut sink = Threaded::new(move |_s: usize, _f: &ServedFlit| {
            if c2.fetch_add(1, Ordering::Relaxed) == 5 {
                panic!("sink: gone (injected by the test)");
            }
        });
        let stats = sink.stats();
        for p in 0..50u64 {
            sink.emit(0, &flit(p));
        }
        drop(sink);
        assert_eq!(calls.load(Ordering::Relaxed), 6);
        let s = stats.snapshot();
        assert_eq!((s.took, s.lost, s.panicked), (5, 45, true));
    }
}

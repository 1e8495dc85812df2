//! The wake cell: how a thread that is about to wait tells the peer it
//! waits on, and how that peer wakes it (DESIGN.md §6, §7).
//!
//! Every hand-off between producer, shard worker and flusher used to be
//! a timer: the waiter slept a fixed period and looked again. A
//! `WakeCell` keeps those timers as the backstop and adds the event:
//!
//! * the **sleeper** announces itself (`sleeping = true`), **re-checks
//!   its wait condition**, and only then parks, with its usual timeout;
//! * the **waker** publishes its work first (a ring push, a credit
//!   return), then clears the flag and unparks the sleeper only if the
//!   flag was set.
//!
//! No wake-up is lost: all accesses to the flag are `AcqRel` swaps, so
//! they are totally ordered and each reads its predecessor. If the
//! waker's swap comes first, the sleeper's announcing swap reads from
//! it (or from a later swap of the same release sequence) and so
//! acquires the published work — the re-check sees it. If the
//! sleeper's swap comes first, the waker's swap reads `true` and
//! unparks. A park that ends with the flag still set ran to its
//! timeout ([`Sleep::TimedOut`]) — the counter that shows whether the
//! timers are still carrying the load. Liveness never depends on a
//! wake: callers keep their timeouts, and a missing or spurious unpark
//! only costs one of them.
//!
//! What the timeout costs decides how long it is (DESIGN.md §6): a
//! sleep whose wake the protocol guarantees is **covered** and keeps a
//! [`BACKSTOP`] timer; a sleep that **polls** for what nobody announces
//! keeps a short one. Every call site says which in a `// backstop:`
//! comment that err-check's `backstop` pass checks.
//!
//! **The idle path.** What a thread does between "found nothing" and
//! "asleep" is paid at every hand-over, so the sleeper does one small
//! thing ([`WakeCell::idle_unless`]): `IDLE_LOOKS` *looks* at its wake
//! predicate — the very closure the re-check evaluates, never a whole
//! worker step or flusher step — then the sleep above.
//! The count is a constant. Where the peer shares this thread's CPU a
//! spin can never be answered — the peer cannot run while we spin — so
//! a long spin is pure cost; where a peer on another core could answer,
//! a budget that learnt to climb to 64 looks found the work in up to
//! 87 % of its phases and moved no throughput figure (EXPERIMENTS.md,
//! "An adaptive spin budget (PR 20)").
//!
//! One cell belongs to one sleeping thread (a shard worker) and any
//! number of wakers. The sleeper's `Thread` sits behind a
//! mutex taken once per registration and once per *actual* unpark (a
//! futex syscall follows anyway), never on a path that finds the flag
//! clear.

use std::sync::Mutex;
use std::time::Duration;

use crate::sync::{current, park_timeout, spin_loop, AtomicBool, Ordering, Thread};

/// The timeout of a *covered* sleep — one whose wake-up a peer's
/// [`WakeCell::wake`] guarantees. Longer than a scheduler tick, so the
/// sleep never reprograms the timer hardware; if it ever runs out, a
/// wake was lost and the `*_park_timeouts` counters show a 10 ms
/// hiccup instead of a hang.
pub const BACKSTOP: Duration = Duration::from_millis(10);

/// Looks [`WakeCell::idle_unless`] takes at the wake predicate before
/// it announces the sleep: enough to catch work that landed while the
/// idle round was being booked, without the flag's two swaps.
const IDLE_LOOKS: u32 = 2;

/// How a [`WakeCell::sleep_unless`] call ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sleep {
    /// The re-check found work; the thread never parked.
    Ready,
    /// A waker cleared the flag: the park was ended by its peer.
    Woken,
    /// The park ended with the flag still set — the timeout ran out,
    /// or a stray unpark hit the thread. One stray source is the
    /// protocol's own: a waker that has cleared the flag but not yet
    /// called `unpark` can lose the race to a sleeper leaving on its
    /// timeout (that round reads `Woken`); its late unpark then leaves
    /// a token that ends the *next* park at once, flag still set, and
    /// that round is counted here. The `*_park_timeouts` counters
    /// therefore over-count by at most one per such race; liveness is
    /// not touched (the caller loops and parks again).
    TimedOut,
}

/// A `sleeping` flag plus the sleeper's thread handle; see the module
/// docs for the protocol.
#[derive(Default)]
pub struct WakeCell {
    sleeping: AtomicBool,
    sleeper: Mutex<Option<Thread>>,
}

impl WakeCell {
    /// A cell nobody sleeps on yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes the calling thread this cell's sleeper. A shard worker
    /// calls it once, before its first step: a driver that resumes after a
    /// panic (DESIGN.md §9.2) runs on the same thread.
    pub fn register(&self) {
        *self.sleeper.lock().unwrap_or_else(|p| p.into_inner()) = Some(current());
    }

    /// Sleeper side: announces, re-checks `ready`, then parks for at
    /// most `timeout`. Only the registered thread may call this.
    pub fn sleep_unless(&self, ready: impl FnOnce() -> bool, timeout: Duration) -> Sleep {
        // ordering: AcqRel — Acquire reads the last waker's swap, so
        // `ready` below sees the work that waker published; Release
        // lets the next waker's swap observe this announcement.
        // [pair: wake-flag @ self]
        self.sleeping.swap(true, Ordering::AcqRel);
        let sleep = if ready() {
            Sleep::Ready
        } else {
            // backstop: forwards the caller's `timeout`.
            park_timeout(timeout);
            Sleep::Woken
        };
        // ordering: AcqRel — same chain as the announcing swap; reading
        // `true` back means no waker cleared it.
        // [pair: wake-flag @ self]
        if self.sleeping.swap(false, Ordering::AcqRel) && sleep == Sleep::Woken {
            Sleep::TimedOut
        } else {
            sleep
        }
    }

    /// One idle phase of the registered thread, after a round that
    /// moved nothing: `IDLE_LOOKS` looks at `ready`, then
    /// [`sleep_unless`](Self::sleep_unless) on the same predicate.
    /// [`Sleep::Ready`] — a look or the re-check found the work.
    pub fn idle_unless(&self, mut ready: impl FnMut() -> bool, timeout: Duration) -> Sleep {
        let found = (0..IDLE_LOOKS).any(|_| {
            spin_loop();
            ready()
        });
        if found {
            return Sleep::Ready;
        }
        // backstop: forwards the caller's `timeout`.
        self.sleep_unless(ready, timeout)
    }

    /// Waker side: call *after* publishing the work the sleeper waits
    /// for. Unparks the sleeper if it had announced itself; returns
    /// whether it did.
    pub fn wake(&self) -> bool {
        // ordering: AcqRel — Release publishes everything sequenced
        // before this call to the sleeper's next announcing swap;
        // Acquire orders this read after an announcement already made.
        // [pair: wake-flag @ self]
        if !self.sleeping.swap(false, Ordering::AcqRel) {
            return false;
        }
        // Clone out of the lock: `unpark` is a scheduling point under
        // the model checker and must not run with the mutex held.
        let sleeper = self
            .sleeper
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        if let Some(thread) = sleeper {
            thread.unpark();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn ready_recheck_skips_the_park() {
        let cell = WakeCell::new();
        cell.register();
        let t = std::time::Instant::now();
        assert_eq!(
            cell.sleep_unless(|| true, Duration::from_secs(5)),
            Sleep::Ready
        );
        assert!(t.elapsed() < Duration::from_secs(1));
        assert!(!cell.wake(), "the flag was cleared on the way out");
    }

    #[test]
    fn unwoken_park_times_out_with_the_flag_set() {
        let cell = WakeCell::new();
        cell.register();
        assert_eq!(
            cell.sleep_unless(|| false, Duration::from_millis(1)),
            Sleep::TimedOut
        );
    }

    #[test]
    fn an_idle_phase_is_a_few_looks_then_the_sleeps_recheck() {
        let cell = WakeCell::new();
        cell.register();
        // Nothing turns up: every look, the re-check, then the park.
        let mut looks = 0;
        let ready = || {
            looks += 1;
            false
        };
        assert_eq!(
            cell.idle_unless(ready, Duration::from_micros(50)),
            Sleep::TimedOut
        );
        assert_eq!(looks, IDLE_LOOKS + 1);
        // Found by the last look: the sleep, whose re-check would be
        // one more evaluation, is never entered.
        looks = 0;
        let ready = || {
            looks += 1;
            looks == IDLE_LOOKS
        };
        assert_eq!(
            cell.idle_unless(ready, Duration::from_secs(60)),
            Sleep::Ready
        );
        assert_eq!(looks, IDLE_LOOKS);
    }

    #[test]
    fn wake_without_a_sleeper_is_a_no_op() {
        let cell = WakeCell::new();
        assert!(!cell.wake());
        cell.register();
        assert!(!cell.wake(), "registered but not sleeping");
    }

    #[test]
    fn waker_ends_a_long_park() {
        // The sleeper's timeout is far beyond the test's patience: only
        // the wake can end the park. The barrier-free handshake is the
        // protocol itself — the waker publishes `work`, then wakes; the
        // sleeper loops until it has seen the work.
        let cell = Arc::new(WakeCell::new());
        let work = Arc::new(AtomicU64::new(0));
        let sleeper = {
            let (cell, work) = (Arc::clone(&cell), Arc::clone(&work));
            std::thread::spawn(move || {
                cell.register();
                let mut woken = 0u32;
                while work.load(Ordering::Acquire) == 0 {
                    let ready = || work.load(Ordering::Acquire) != 0;
                    if cell.sleep_unless(ready, Duration::from_secs(60)) == Sleep::Woken {
                        woken += 1;
                    }
                }
                woken
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        work.store(1, Ordering::Release);
        cell.wake();
        let t = std::time::Instant::now();
        let woken = sleeper.join().expect("sleeper");
        assert!(t.elapsed() < Duration::from_secs(30), "wake, not timeout");
        assert!(woken <= 1);
    }
}

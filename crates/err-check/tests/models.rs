//! Loom-style model checks over the workspace's lock-free cores, plus
//! intentionally-broken mutants the checker must catch.
//!
//! Run with `cargo test -p err-check --features model`. Each shipped
//! structure gets a model that passes (exhaustively where the state
//! space allows, preemption-bounded where it doesn't) and a paired
//! `mutant_*` test that weakens exactly one memory ordering and asserts
//! the checker reports a violation. `cargo run -p err-check -- mutants`
//! runs only the mutant half as a CI smoke.
#![cfg(feature = "model")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use err_egress::{
    spsc_ring, CreditPool, DeadLinkPolicy, Egress, FlusherCore, LinkSet, ServedFlit, Sleep,
    WakeCell,
};
use err_fabric::{HopEntry, HopTracker};
use err_runtime::channel::MpscRing;
use err_runtime::gate::DrainGate;
use loom::cell::UnsafeCell;
use loom::model::Builder;
use loom::thread;

/// A one-flit-packet for driving the shipped `FlusherCore`.
fn served(flow: usize, packet: u64) -> ServedFlit {
    ServedFlit {
        flow,
        packet,
        arrival: 0,
        len: 1,
        flit_index: 0,
    }
}

/// Runs `f` under the checker expecting a violation (data race, failed
/// assertion, deadlock); panics if the mutant escapes.
fn expect_violation<F>(name: &str, f: F)
where
    F: FnOnce(),
{
    let payload = catch_unwind(AssertUnwindSafe(f))
        .expect_err(&format!("mutant `{name}` escaped the model checker"));
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("");
    assert!(
        msg.contains("loom model violation"),
        "mutant `{name}` panicked for the wrong reason: {msg}"
    );
}

// ---------------------------------------------------------------------
// Shipped models: these must pass.
// ---------------------------------------------------------------------

/// Two producers race into the ingress MPSC ring while the consumer
/// drains; nothing is lost, duplicated, or torn. Preemption-bounded:
/// three threads with retry loops blow up the unbounded schedule space,
/// and two preemptions already cover every publish/consume overlap.
#[test]
fn model_mpsc_two_producers_no_loss() {
    let mut b = Builder::new();
    b.max_preemptions = Some(2);
    b.max_iterations = 2_000_000;
    let report = b.check(|| {
        let ring = Arc::new(MpscRing::with_capacity(2));
        let handles: Vec<_> = [1u32, 2u32]
            .into_iter()
            .map(|v| {
                let ring = Arc::clone(&ring);
                thread::spawn(move || {
                    ring.push(v).expect("capacity 2 never fills with 2 pushes");
                })
            })
            .collect();
        // The worker's wake predicate (`head_ready`) decides whether
        // to pop: it must never promise a pop that fails, and a slot
        // claimed but unpublished must read "not ready", not spin.
        let mut got = Vec::new();
        while got.len() < 2 {
            if ring.head_ready() {
                got.push(ring.pop().expect("head_ready promised a pop"));
            } else {
                thread::yield_now();
            }
        }
        for h in handles {
            h.join().expect("producer");
        }
        got.sort_unstable();
        assert_eq!(got, [1, 2], "each packet delivered exactly once");
        assert!(ring.is_empty());
    });
    println!(
        "model_mpsc_two_producers_no_loss: {} interleavings (complete={})",
        report.executions, report.complete
    );
    assert!(report.complete, "bounded DFS must exhaust");
}

/// A capacity-1 ring forced through sequence-number wraparound: the
/// producer pushes two packets back-to-back (retrying while full), so
/// the same slot is reused with a lap-incremented sequence. FIFO order
/// must survive the wrap.
#[test]
fn model_mpsc_wraparound_capacity_one() {
    let mut b = Builder::new();
    b.max_preemptions = Some(2);
    b.max_iterations = 2_000_000;
    let report = b.check(|| {
        let ring = Arc::new(MpscRing::with_capacity(1));
        let producer = {
            let ring = Arc::clone(&ring);
            thread::spawn(move || {
                for v in [10u32, 20u32] {
                    let mut item = v;
                    loop {
                        match ring.push(item) {
                            Ok(()) => break,
                            Err(_) => {
                                item = v;
                                thread::yield_now();
                            }
                        }
                    }
                }
            })
        };
        let mut got = Vec::new();
        while got.len() < 2 {
            match ring.pop() {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        producer.join().expect("producer");
        assert_eq!(got, [10, 20], "FIFO across the wraparound");
    });
    println!(
        "model_mpsc_wraparound_capacity_one: {} interleavings (complete={})",
        report.executions, report.complete
    );
    assert!(report.complete, "bounded DFS must exhaust");
}

/// The egress pipeline in miniature: the worker acquires a credit
/// before pushing into the SPSC ring; the flusher pops and releases the
/// credit on delivery. With one credit the ring can never hold more
/// than one in-flight flit, order is preserved, and the pool returns to
/// full once drained.
#[test]
fn model_spsc_credit_pipeline() {
    let mut b = Builder::new();
    b.max_preemptions = Some(3);
    b.max_iterations = 2_000_000;
    let report = b.check(|| {
        let (mut tx, mut rx) = spsc_ring::<u32>(2);
        let credits = Arc::new(CreditPool::new(1));
        let producer = {
            let credits = Arc::clone(&credits);
            thread::spawn(move || {
                for v in [7u32, 8u32] {
                    while !credits.try_acquire() {
                        thread::yield_now();
                    }
                    tx.push(v).expect("a held credit guarantees ring space");
                }
            })
        };
        let mut got = Vec::new();
        while got.len() < 2 {
            match rx.pop() {
                Some(v) => {
                    got.push(v);
                    credits.release();
                }
                None => thread::yield_now(),
            }
        }
        producer.join().expect("producer");
        assert_eq!(got, [7, 8], "SPSC order preserved");
        assert!(rx.is_empty());
        assert_eq!(credits.available(), 1, "all credits returned");
        assert_eq!(credits.outstanding(), 0);
    });
    println!(
        "model_spsc_credit_pipeline: {} interleavings (complete={})",
        report.executions, report.complete
    );
    assert!(report.complete, "bounded DFS must exhaust");
}

/// The closed+in_flight drain pairing (DESIGN.md §10), pinning PR 4's
/// one-packet leak: a submitter races `DrainGate::enter` against the
/// worker's `close` → `can_finish` → final ring read. The shipped
/// announce-then-check order means any packet the gate admits is
/// visible to the worker's final read — checked exhaustively, no
/// preemption bound.
#[test]
fn model_drain_gate_no_lost_packet() {
    let report = Builder::new().check(|| {
        let gate = Arc::new(DrainGate::new());
        let ring = Arc::new(UnsafeCell::new(0u32));
        let submitter = {
            let gate = Arc::clone(&gate);
            let ring = Arc::clone(&ring);
            thread::spawn(move || match gate.enter() {
                Some(permit) => {
                    ring.with_mut(|p| unsafe { *p += 1 });
                    drop(permit);
                    true
                }
                None => false,
            })
        };
        gate.close();
        while !gate.can_finish() {
            thread::yield_now();
        }
        // can_finish() == true orders this read after any admitted
        // push's permit drop; a rejected submitter never touches the
        // ring. The race detector proves both claims.
        let drained = ring.with(|p| unsafe { *p });
        let accepted = submitter.join().expect("submitter");
        assert_eq!(
            drained,
            u32::from(accepted),
            "every admitted packet is drained, every rejected one untouched"
        );
    });
    println!(
        "model_drain_gate_no_lost_packet: {} interleavings (complete={})",
        report.executions, report.complete
    );
    assert!(report.complete, "gate model must be exhaustive");
}

// ---------------------------------------------------------------------
// Fabric-era shipped models (DESIGN.md §10): the refused-try_emit
// credit hold and the HoldForRecovery resurrect/finalize race — each
// driven through the *shipped* types (FlusherCore, LinkSet), not
// miniatures.
// ---------------------------------------------------------------------

/// The §11.2 refused-`try_emit` protocol through the shipped
/// `FlusherCore` + `LinkSet`: a downstream sink refuses until its room
/// flag opens (published with Release after writing the payload cell),
/// and the flusher holds the flit — and its link credit — across every
/// refusal. On acceptance the Acquire room-load must carry the payload
/// write, and exactly one credit returns to the pool.
#[test]
fn model_credit_hold_refused_try_emit() {
    use loom::sync::atomic::{AtomicBool, Ordering};

    struct GatedSink {
        room: Arc<loom::sync::atomic::AtomicBool>,
        payload: Arc<UnsafeCell<u64>>,
        got: u64,
        accepted: u64,
    }
    impl Egress for GatedSink {
        fn emit(&mut self, _shard: usize, _flit: &ServedFlit) {
            unreachable!("the flusher delivers through try_emit only");
        }
        fn try_emit(&mut self, _shard: usize, _flit: &ServedFlit) -> bool {
            if !self.room.load(Ordering::Acquire) {
                // Refusal: the flit stays pending, its credit stays
                // held (the conservation half asserted below).
                return false;
            }
            self.got = self.payload.with(|p| unsafe { *p });
            self.accepted += 1;
            true
        }
    }

    let mut b = Builder::new();
    b.max_preemptions = Some(2);
    b.max_iterations = 2_000_000;
    let report = b.check(|| {
        let links = Arc::new(LinkSet::new(1, 1));
        let room = Arc::new(AtomicBool::new(false));
        let payload = Arc::new(UnsafeCell::new(0u64));
        let (mut tx, rx) = spsc_ring::<ServedFlit>(2);
        // The worker half, pre-thread: spend the link's only credit and
        // commit the flit, exactly as `shard.rs` does before pushing.
        assert!(links.try_acquire(0), "fresh pool has a credit");
        tx.push(served(0, 7)).expect("ring has room");
        let flusher = {
            let (links, room, payload) =
                (Arc::clone(&links), Arc::clone(&room), Arc::clone(&payload));
            thread::spawn(move || {
                let mut core = FlusherCore::new(0, rx, 1);
                let mut sink = GatedSink {
                    room,
                    payload,
                    got: 0,
                    accepted: 0,
                };
                let mut delivered = 0u64;
                while delivered < 1 {
                    delivered += core.step(&links, None, &mut sink);
                    thread::yield_now();
                }
                assert!(core.is_idle(), "one flit in, one flit out");
                (sink.got, sink.accepted)
            })
        };
        // The downstream node making room: payload first, then the
        // Release flag the sink's Acquire load pairs with.
        payload.with_mut(|p| unsafe { *p = 7 });
        room.store(true, Ordering::Release);
        let (got, accepted) = flusher.join().expect("flusher");
        assert_eq!(accepted, 1, "refusals never double-deliver");
        assert_eq!(got, 7, "acceptance carries the downstream's write");
        assert!(
            links.try_acquire(0),
            "the held credit returned on acceptance"
        );
        assert!(!links.try_acquire(0), "exactly one credit returned");
    });
    println!(
        "model_credit_hold_refused_try_emit: {} interleavings (complete={})",
        report.executions, report.complete
    );
    assert!(report.complete, "bounded DFS must exhaust");
}

/// The §14.2 resurrect-vs-finalize race through the shipped
/// `FlusherCore` + `LinkSet` under `HoldForRecovery`: two flits are
/// held behind a dead link while a monitor resurrects it in the same
/// instant the drain gives up. `finalize_dead_letters` rechecks
/// `is_dead` per pop, so every flit is either dead-lettered (link
/// still dead at its pop) or delivered as a replay (resurrect won) —
/// never lost, never both — and both credits return either way.
#[test]
fn model_hold_for_recovery_resurrect_vs_finalize() {
    struct CountSink {
        accepted: u64,
    }
    impl Egress for CountSink {
        fn emit(&mut self, _shard: usize, _flit: &ServedFlit) {
            unreachable!("the flusher delivers through try_emit only");
        }
        fn try_emit(&mut self, _shard: usize, _flit: &ServedFlit) -> bool {
            self.accepted += 1;
            true
        }
    }

    let mut b = Builder::new();
    b.max_preemptions = Some(2);
    b.max_iterations = 2_000_000;
    let report = b.check(|| {
        let links = Arc::new(LinkSet::with_fault_policy(
            1,
            2,
            None,
            DeadLinkPolicy::HoldForRecovery,
        ));
        let (mut tx, rx) = spsc_ring::<ServedFlit>(2);
        assert!(links.try_acquire(0));
        assert!(links.try_acquire(0));
        tx.push(served(0, 1)).expect("ring has room");
        tx.push(served(0, 2)).expect("ring has room");
        links.declare_dead(0);
        let flusher = {
            let links = Arc::clone(&links);
            thread::spawn(move || {
                let mut core = FlusherCore::new(0, rx, 1);
                let mut sink = CountSink { accepted: 0 };
                let mut delivered = 0u64;
                let mut dead = 0u64;
                loop {
                    delivered += core.step(&links, None, &mut sink);
                    // The drain giving up on the dead link, racing the
                    // monitor's resurrect below.
                    dead += core.finalize_dead_letters(&links);
                    if core.is_idle() {
                        break;
                    }
                    thread::yield_now();
                }
                (delivered, dead, sink.accepted)
            })
        };
        // The monitor healing the link in the same instant.
        links.resurrect(0);
        let (delivered, dead, accepted) = flusher.join().expect("flusher");
        assert_eq!(
            delivered + dead,
            2,
            "each held flit delivered xor dead-lettered"
        );
        assert_eq!(accepted, delivered, "the sink saw exactly the deliveries");
        assert!(links.try_acquire(0), "first credit returned");
        assert!(links.try_acquire(0), "second credit returned");
        assert!(!links.try_acquire(0), "no credit minted from thin air");
    });
    println!(
        "model_hold_for_recovery_resurrect_vs_finalize: {} interleavings (complete={})",
        report.executions, report.complete
    );
    assert!(report.complete, "bounded DFS must exhaust");
}

/// The credit grant (DESIGN.md §7) through the shipped `LinkSet` +
/// `FlusherCore` + `WakeCell`: a worker has taken a grant of k = 2 —
/// the whole pool — and committed j = 1 flit against it. The link is
/// declared dead and the flusher dead-letters the flit (returning its
/// credit); the worker gives the unspent k − j back. Each credit must
/// go back exactly once whichever return comes first, and whichever
/// one lands in the emptied pool must wake the other shard's worker
/// parked on it: both returners run `relieved` → `wake_credit_waiters`
/// behind their returns. The model's park never times out, so a
/// waiter nobody wakes is reported as a deadlock.
#[test]
fn model_credit_grant_returned_exactly_once() {
    let mut b = Builder::new();
    b.max_preemptions = Some(2);
    b.max_iterations = 2_000_000;
    let report = b.check(|| {
        let waiter_cell = Arc::new(WakeCell::new());
        let mut links = LinkSet::with_fault_policy(1, 2, None, DeadLinkPolicy::DropAndAccount);
        links.set_credit_waiters(vec![Arc::clone(&waiter_cell)]);
        let links = Arc::new(links);
        let (mut tx, rx) = spsc_ring::<ServedFlit>(2);
        // The worker half, pre-thread: grant, one flit committed.
        let mut grant = [links.acquire(0, 2)];
        assert_eq!(grant[0], 2, "the grant took the whole pool");
        grant[0] -= 1;
        tx.push(served(0, 7)).expect("ring has room");
        let waiter = {
            let (links, cell) = (Arc::clone(&links), Arc::clone(&waiter_cell));
            thread::spawn(move || {
                cell.register();
                while !links.has_credit(0) {
                    let how = cell
                        .sleep_unless(|| links.has_credit(0), std::time::Duration::from_secs(1));
                    assert_ne!(how, Sleep::TimedOut, "a park ended with the flag still set");
                }
            })
        };
        let flusher = {
            let links = Arc::clone(&links);
            thread::spawn(move || {
                links.declare_dead(0);
                let mut core = FlusherCore::new(0, rx, 1);
                let mut sink = |_s: usize, _f: &ServedFlit| unreachable!("the link is dead");
                let mut dead = 0u64;
                while dead < 1 {
                    core.step(&links, None, &mut sink);
                    dead += core.take_dead_lettered();
                    links.wake_credit_waiters();
                    thread::yield_now();
                }
                assert!(core.is_idle());
            })
        };
        // The worker's `serve` settling: the unspent credit goes back.
        links.return_grants(&mut grant);
        assert_eq!(grant, [0], "a grant is returned once");
        flusher.join().expect("flusher");
        waiter.join().expect("waiter");
        let snap = links.snapshot();
        assert_eq!(snap[0].credits_available, 2, "available == capacity");
        assert_eq!(snap[0].dead_letter_flits, 1);
    });
    println!(
        "model_credit_grant_returned_exactly_once: {} interleavings (complete={})",
        report.executions, report.complete
    );
    assert!(report.complete, "bounded DFS must exhaust");
}

/// The dead-link deadline's credit-return stamp (DESIGN.md §9.3)
/// through the shipped `LinkSet`: two flushers deliver on one link, each
/// ticking the shared flush clock and then stamping the link. The one
/// that ticked first may stamp last, and the stamp must not fall back
/// behind the clock when it does. A deadline of 0 turns any stamp that
/// lags the clock into a death, so a link that has just delivered
/// every tick must poll alive. Preemption-bounded: the lost stamp
/// needs one preemption (a flusher stopped between its tick and its
/// stamp).
#[test]
fn model_credit_return_stamp_is_monotone() {
    let mut b = Builder::new();
    b.max_preemptions = Some(1);
    let report = b.check(|| {
        let links = Arc::new(LinkSet::with_fault_policy(
            1,
            3,
            Some(0),
            DeadLinkPolicy::DropAndAccount,
        ));
        assert_eq!(links.acquire(0, 3), 3, "the grant took the whole pool");
        let flushers: Vec<_> = (0..2)
            .map(|_| {
                let links = Arc::clone(&links);
                thread::spawn(move || {
                    links.on_delivered(0);
                })
            })
            .collect();
        for f in flushers {
            f.join().expect("flusher");
        }
        assert!(
            links.poll_deadlines().is_empty(),
            "a link that delivered at every tick was declared dead"
        );
    });
    println!(
        "model_credit_return_stamp_is_monotone: {} interleavings (complete={})",
        report.executions, report.complete
    );
    assert!(report.complete, "bounded DFS must exhaust");
}

/// The wake handshake (DESIGN.md §6) through the shipped [`WakeCell`]:
/// a sleeper that waits for two pieces of work, each published by its
/// own waker (publish, then `wake`). The model's `park_timeout` never
/// times out, so a lost wake-up — the re-check missing the work *and*
/// the waker missing the flag — leaves the sleeper parked for good and
/// is reported as a deadlock. Two wakers cover the case a single one
/// cannot: the second waker finds the flag already cleared by the
/// first and unparks nobody, so its work must reach the sleeper's next
/// re-check through the flag's release sequence. The payload cells
/// prove what the sleeper sees is properly published, not just seen.
/// Preemption-bounded: three threads around a retry loop do not
/// exhaust unbounded, and a lost wake-up needs a single preemption (a
/// waker running between the sleeper's last look and its announcement).
#[test]
fn model_wake_handshake_no_lost_wakeup() {
    use loom::sync::atomic::{AtomicBool, Ordering};
    let mut b = Builder::new();
    b.max_preemptions = Some(3);
    b.max_iterations = 2_000_000;
    let report = b.check(|| {
        let cell = Arc::new(WakeCell::new());
        let work: Arc<[AtomicBool; 2]> = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
        let payload = Arc::new([UnsafeCell::new(0u32), UnsafeCell::new(0u32)]);
        let sleeper = {
            let (cell, work, payload) =
                (Arc::clone(&cell), Arc::clone(&work), Arc::clone(&payload));
            thread::spawn(move || {
                cell.register();
                let all_there = || work.iter().all(|w| w.load(Ordering::Acquire));
                // The worker's idle loop as shipped: after a round that
                // found nothing, looks at the wake predicate, then the
                // sleep whose re-check is the same predicate — and
                // round again.
                while !all_there() {
                    let how = cell.idle_unless(all_there, std::time::Duration::from_secs(1));
                    assert_ne!(how, Sleep::TimedOut, "a park ended with the flag still set");
                }
                payload[0].with(|p| unsafe { *p }) + payload[1].with(|p| unsafe { *p })
            })
        };
        let waker = |i: usize| {
            let (cell, work, payload) =
                (Arc::clone(&cell), Arc::clone(&work), Arc::clone(&payload));
            move || {
                payload[i].with_mut(|p| unsafe { *p = 1 + i as u32 });
                work[i].store(true, Ordering::Release);
                cell.wake();
            }
        };
        let other = thread::spawn(waker(1));
        waker(0)();
        other.join().expect("second waker");
        assert_eq!(sleeper.join().expect("sleeper"), 3);
    });
    println!(
        "model_wake_handshake_no_lost_wakeup: {} interleavings (complete={})",
        report.executions, report.complete
    );
    assert!(report.complete, "bounded DFS must exhaust");
}

// ---------------------------------------------------------------------
// Mutants: one weakened ordering each; the checker must catch them.
// Each is a self-contained miniature of the shipped structure with the
// single load/store under test flipped to a broken ordering.
// ---------------------------------------------------------------------

/// MpscRing's slot-sequence publish (`channel.rs` push) with the
/// Release store weakened to Relaxed: the consumer's Acquire sequence
/// load no longer carries the cell write, so reading the payload is a
/// data race.
#[test]
fn mutant_mpsc_publish_relaxed() {
    use loom::sync::atomic::{AtomicUsize, Ordering};
    expect_violation("mpsc_publish_relaxed", || {
        Builder::new().check(|| {
            let seq = Arc::new(AtomicUsize::new(0));
            let val = Arc::new(UnsafeCell::new(0usize));
            let producer = {
                let (seq, val) = (Arc::clone(&seq), Arc::clone(&val));
                thread::spawn(move || {
                    val.with_mut(|p| unsafe { *p = 42 });
                    // MUTATION: shipped code publishes with Release.
                    seq.store(1, Ordering::Relaxed);
                })
            };
            while seq.load(Ordering::Acquire) != 1 {
                thread::yield_now();
            }
            let got = val.with(|p| unsafe { *p });
            assert_eq!(got, 42);
            producer.join().expect("producer");
        });
    });
}

/// The SPSC ring's Lamport tail publish (`spsc.rs` push) weakened from
/// Release to Relaxed: the consumer's Acquire tail load observes the
/// new index without acquiring the slot write before it.
#[test]
fn mutant_spsc_tail_relaxed() {
    use loom::sync::atomic::{AtomicUsize, Ordering};
    expect_violation("spsc_tail_relaxed", || {
        Builder::new().check(|| {
            let tail = Arc::new(AtomicUsize::new(0));
            let head = Arc::new(AtomicUsize::new(0));
            let slot = Arc::new(UnsafeCell::new(0u64));
            let producer = {
                let (tail, slot) = (Arc::clone(&tail), Arc::clone(&slot));
                thread::spawn(move || {
                    let t = tail.load(Ordering::Relaxed);
                    slot.with_mut(|p| unsafe { *p = 99 });
                    // MUTATION: shipped code stores tail with Release.
                    tail.store(t + 1, Ordering::Relaxed);
                })
            };
            let h = head.load(Ordering::Relaxed);
            while tail.load(Ordering::Acquire) == h {
                thread::yield_now();
            }
            let got = slot.with(|p| unsafe { *p });
            assert_eq!(got, 99);
            head.store(h + 1, Ordering::Release);
            producer.join().expect("producer");
        });
    });
}

/// CreditPool::release (`credit.rs`) weakened from AcqRel to Relaxed:
/// the next try_acquire's CAS sees the credit come back but not the
/// payload work it covered, so two holders of the same credit race on
/// the guarded cell.
#[test]
fn mutant_credit_release_relaxed() {
    use loom::sync::atomic::{AtomicU64, Ordering};
    expect_violation("credit_release_relaxed", || {
        Builder::new().check(|| {
            let credits = Arc::new(AtomicU64::new(1));
            let guarded = Arc::new(UnsafeCell::new(0u32));
            let try_acquire = |c: &AtomicU64| {
                // Acquire CAS, as shipped (the consume side is sound).
                c.compare_exchange(1, 0, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            };
            let holder = {
                let (credits, guarded) = (Arc::clone(&credits), Arc::clone(&guarded));
                thread::spawn(move || {
                    assert!(try_acquire(&credits), "credit starts available");
                    guarded.with_mut(|p| unsafe { *p += 1 });
                    // MUTATION: shipped release is AcqRel fetch_add.
                    credits.fetch_add(1, Ordering::Relaxed);
                })
            };
            while !try_acquire(&credits) {
                thread::yield_now();
            }
            guarded.with_mut(|p| unsafe { *p += 1 });
            credits.fetch_add(1, Ordering::Relaxed);
            holder.join().expect("holder");
        });
    });
}

/// DrainGate::enter (`gate.rs`) with the Dekker inverted to
/// check-then-announce — exactly PR 4's one-packet drain leak: the
/// submitter reads `closed == false`, stalls before bumping
/// `in_flight`, the worker closes, sees `in_flight == 0`, declares the
/// drain finished and takes its final ring read — then the stalled
/// submitter lands a packet nobody will ever flush.
#[test]
fn mutant_drain_gate_check_then_enter() {
    use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    struct BrokenGate {
        closed: AtomicBool,
        in_flight: AtomicU64,
    }
    impl BrokenGate {
        // MUTATION: shipped enter announces (fetch_add) *before*
        // checking closed; this checks first.
        fn enter(&self) -> bool {
            if self.closed.load(Ordering::SeqCst) {
                return false;
            }
            self.in_flight.fetch_add(1, Ordering::SeqCst);
            true
        }
        fn exit(&self) {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        fn can_finish(&self) -> bool {
            self.closed.load(Ordering::SeqCst) && self.in_flight.load(Ordering::SeqCst) == 0
        }
    }
    expect_violation("drain_gate_check_then_enter", || {
        // The leak needs one preemption (submitter stalled between its
        // closed check and its in_flight announce); bounding keeps the
        // yield-spin schedule space from drowning it.
        let mut b = Builder::new();
        b.max_preemptions = Some(3);
        b.check(|| {
            let gate = Arc::new(BrokenGate {
                closed: AtomicBool::new(false),
                in_flight: AtomicU64::new(0),
            });
            let ring = Arc::new(UnsafeCell::new(0u32));
            let submitter = {
                let (gate, ring) = (Arc::clone(&gate), Arc::clone(&ring));
                thread::spawn(move || {
                    if gate.enter() {
                        ring.with_mut(|p| unsafe { *p += 1 });
                        gate.exit();
                        true
                    } else {
                        false
                    }
                })
            };
            gate.closed.store(true, Ordering::SeqCst);
            while !gate.can_finish() {
                thread::yield_now();
            }
            let drained = ring.with(|p| unsafe { *p });
            let accepted = submitter.join().expect("submitter");
            assert_eq!(drained, u32::from(accepted), "leaked packet");
        });
    });
}

// The fabric-era models above each rest on one Release edge; the
// mutants below weaken exactly that edge in a miniature of the same
// protocol. (The miniatures re-create the edge directly because the
// shipped orderings are not feature-switchable — the point is that
// the checker would catch the weakening, not that the shipped code
// contains it.)

/// The refused-`try_emit` acceptance edge
/// (`model_credit_hold_refused_try_emit`) weakened: the downstream
/// opens its room flag with a Relaxed store after writing the payload,
/// so the sink's Acquire room-load carries nothing and its payload
/// read races the downstream's write.
#[test]
fn mutant_credit_hold_room_relaxed() {
    use loom::sync::atomic::{AtomicBool, Ordering};
    expect_violation("credit_hold_room_relaxed", || {
        Builder::new().check(|| {
            let room = Arc::new(AtomicBool::new(false));
            let payload = Arc::new(UnsafeCell::new(0u64));
            let downstream = {
                let (room, payload) = (Arc::clone(&room), Arc::clone(&payload));
                thread::spawn(move || {
                    payload.with_mut(|p| unsafe { *p = 7 });
                    // MUTATION: the room flag opens with Release.
                    room.store(true, Ordering::Relaxed);
                })
            };
            // The sink: refuse until room, then read the payload.
            while !room.load(Ordering::Acquire) {
                thread::yield_now();
            }
            let got = payload.with(|p| unsafe { *p });
            assert_eq!(got, 7);
            downstream.join().expect("downstream");
        });
    });
}

/// The resurrect edge (`model_hold_for_recovery_resurrect_vs_finalize`)
/// weakened: the healer revives the dead flag with a Relaxed swap
/// after writing the link's downstream state. A Relaxed RMW extends
/// the release sequence headed by the flag's *initialization* — a
/// clock from before the heal — so the flusher's Acquire liveness
/// load no longer carries the healer's write and replay delivery
/// races it.
#[test]
fn mutant_hold_for_recovery_heal_relaxed() {
    use loom::sync::atomic::{AtomicBool, Ordering};
    expect_violation("hold_for_recovery_heal_relaxed", || {
        Builder::new().check(|| {
            let dead = Arc::new(AtomicBool::new(true));
            let downstream = Arc::new(UnsafeCell::new(0u64));
            let healer = {
                let (dead, downstream) = (Arc::clone(&dead), Arc::clone(&downstream));
                thread::spawn(move || {
                    downstream.with_mut(|p| unsafe { *p = 1 });
                    // MUTATION: shipped `resurrect` swaps AcqRel.
                    dead.swap(false, Ordering::Relaxed);
                })
            };
            // The flusher: hold while dead, then replay into the
            // downstream state the heal was supposed to publish.
            while dead.load(Ordering::Acquire) {
                thread::yield_now();
            }
            let ready = downstream.with(|p| unsafe { *p });
            assert_eq!(ready, 1);
            healer.join().expect("healer");
        });
    });
}

/// The wake handshake with the sleeper's re-check dropped: announce,
/// then park straight away. A waker that published and looked at the
/// flag *before* the announcement unparks nobody, and the sleeper —
/// who would have seen the work had it looked again — parks on a
/// wake-up that already happened. The shipped `sleep_unless` cannot be
/// called without its re-check; this miniature is what it prevents.
#[test]
fn mutant_wake_recheck_dropped() {
    use loom::sync::atomic::{AtomicBool, Ordering};
    expect_violation("wake_recheck_dropped", || {
        Builder::new().check(|| {
            let sleeping = Arc::new(AtomicBool::new(false));
            let work = Arc::new(AtomicBool::new(false));
            // What `register` stores: the sleeper's own handle.
            let sleeper = thread::current();
            let waker = {
                let (sleeping, work) = (Arc::clone(&sleeping), Arc::clone(&work));
                thread::spawn(move || {
                    work.store(true, Ordering::Release);
                    if sleeping.swap(false, Ordering::AcqRel) {
                        sleeper.unpark();
                    }
                })
            };
            while !work.load(Ordering::Acquire) {
                sleeping.swap(true, Ordering::AcqRel);
                // MUTATION: shipped `sleep_unless` re-checks `work`
                // here and skips the park when it is set.
                thread::park();
                sleeping.swap(false, Ordering::AcqRel);
            }
            waker.join().expect("waker");
        });
    });
}

/// The grant return (`LinkSet::return_credits`) with the `relieved`
/// mark skipped: the credit goes back into the pool the grant had
/// emptied, but `wake_credit_waiters` finds no mark and wakes nobody.
/// A waiter that re-checked just before the return parks on a credit
/// that is already there — the 10 ms hiccup of a covered sleep, a
/// hang in the model.
#[test]
fn mutant_credit_grant_return_unmarked() {
    use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    expect_violation("credit_grant_return_unmarked", || {
        Builder::new().check(|| {
            // The pool after a grant took all of it.
            let credits = Arc::new(AtomicU64::new(0));
            let relieved = Arc::new(AtomicBool::new(false));
            let sleeping = Arc::new(AtomicBool::new(false));
            let waiter = thread::current();
            let returner = {
                let (credits, relieved, sleeping) = (
                    Arc::clone(&credits),
                    Arc::clone(&relieved),
                    Arc::clone(&sleeping),
                );
                thread::spawn(move || {
                    let was_empty = credits.fetch_add(1, Ordering::AcqRel) == 0;
                    // MUTATION: shipped `return_credits` stores
                    // `relieved = true` (Release) when `was_empty`.
                    let _ = was_empty;
                    if relieved.load(Ordering::Acquire)
                        && relieved.swap(false, Ordering::AcqRel)
                        && sleeping.swap(false, Ordering::AcqRel)
                    {
                        waiter.unpark();
                    }
                })
            };
            // The starved worker's park, as `sleep_unless` ships it.
            while credits.load(Ordering::Acquire) == 0 {
                sleeping.swap(true, Ordering::AcqRel);
                if credits.load(Ordering::Acquire) == 0 {
                    thread::park();
                }
                sleeping.swap(false, Ordering::AcqRel);
            }
            returner.join().expect("returner");
        });
    });
}

/// The credit-return stamp (`LinkSet::tick_delivered`) written with a
/// plain store, as it shipped before the stamp became monotone: a
/// flusher that ticks the clock and is preempted before it stamps
/// overwrites the other flusher's newer stamp with its older one, and
/// the link reads as silent while it is still delivering.
#[test]
fn mutant_credit_return_stamp_store() {
    use loom::sync::atomic::{AtomicU64, Ordering};
    expect_violation("credit_return_stamp_store", || {
        Builder::new().check(|| {
            let clock = Arc::new(AtomicU64::new(0));
            let stamp = Arc::new(AtomicU64::new(0));
            let flushers: Vec<_> = (0..2)
                .map(|_| {
                    let (clock, stamp) = (Arc::clone(&clock), Arc::clone(&stamp));
                    thread::spawn(move || {
                        let now = clock.fetch_add(1, Ordering::AcqRel) + 1;
                        // MUTATION: shipped `tick_delivered` stamps
                        // with `fetch_max`.
                        stamp.store(now, Ordering::Relaxed);
                    })
                })
                .collect();
            for f in flushers {
                f.join().expect("flusher");
            }
            // `poll_deadlines` with a deadline of 0.
            let lag = clock.load(Ordering::Acquire) - stamp.load(Ordering::Relaxed);
            assert_eq!(lag, 0, "the stamp fell behind the clock");
        });
    });
}

// ---------------------------------------------------------------------
// The hop slot table (DESIGN.md §11.8): per-packet entry stamps that
// two in-flight ids may have to share.
// ---------------------------------------------------------------------

/// The §11.8 stamp of packet `id` in the hop-slot models: two fields a
/// reader must never take from different writers.
fn hop_stamp(id: u64) -> HopEntry {
    HopEntry {
        entry_us: 10 * id,
        entry_served_flits: 10 * id + 1,
    }
}

/// The hop slot table through the shipped [`HopTracker`], shrunk to
/// one slot so packets 1 and 2 collide: their writers race each other
/// while a reader looks up both ids. A read may find nothing (the
/// other id holds the slot, or a writer is mid-stamp) but never
/// accepts a stamp whose two fields came from different writers. A
/// claim fails only against a writer that then lands, so after both
/// writers the slot holds exactly one whole stamp. Preemption-bounded:
/// a mixed read needs one preemption (the reader stopped between its
/// two field loads while the other writer stamps).
#[test]
fn model_hop_slot_never_mixes_stamps() {
    let mut b = Builder::new();
    b.max_preemptions = Some(3);
    b.max_iterations = 2_000_000;
    let report = b.check(|| {
        let slots = Arc::new(HopTracker::with_slots(1));
        let writers: Vec<_> = [1u64, 2]
            .into_iter()
            .map(|id| {
                let slots = Arc::clone(&slots);
                thread::spawn(move || slots.stamp(id, hop_stamp(id)))
            })
            .collect();
        for id in [1u64, 2] {
            if let Some(seen) = slots.read(id) {
                assert_eq!(seen, hop_stamp(id), "a mixed stamp was accepted");
            }
        }
        let landed: Vec<bool> = writers
            .into_iter()
            .map(|w| w.join().expect("writer"))
            .collect();
        assert!(landed.contains(&true), "both claims failed");
        let held: Vec<HopEntry> = [1u64, 2].iter().filter_map(|&id| slots.read(id)).collect();
        assert_eq!(held.len(), 1, "the slot holds one whole stamp");
    });
    println!(
        "model_hop_slot_never_mixes_stamps: {} interleavings (complete={})",
        report.executions, report.complete
    );
    assert!(report.complete, "bounded DFS must exhaust");
}

/// `HopTracker::read` without its second tag check: a reader that saw
/// packet 1's tag and then loses the CPU between its two field loads
/// accepts packet 1's `entry_us` with packet 2's `entry_served_flits`
/// once packet 2's writer claims and fills the shared slot.
#[test]
fn mutant_hop_slot_single_tag_check() {
    use loom::sync::atomic::{AtomicU64, Ordering};
    const BUSY: u64 = u64::MAX - 1;
    struct Slot {
        tag: AtomicU64,
        entry_us: AtomicU64,
        entry_served_flits: AtomicU64,
    }
    impl Slot {
        // As shipped: claim with one CAS, fill, publish the tag last.
        fn stamp(&self, id: u64, e: HopEntry) {
            let seen = self.tag.load(Ordering::Relaxed);
            if seen == BUSY
                || self
                    .tag
                    .compare_exchange(seen, BUSY, Ordering::Acquire, Ordering::Relaxed)
                    .is_err()
            {
                return;
            }
            self.entry_us.store(e.entry_us, Ordering::Release);
            self.entry_served_flits
                .store(e.entry_served_flits, Ordering::Release);
            self.tag.store(id, Ordering::Release);
        }
        // MUTATION: shipped `read` checks the tag again after the
        // field loads and refuses if it moved.
        fn read(&self, id: u64) -> Option<HopEntry> {
            if self.tag.load(Ordering::Acquire) != id {
                return None;
            }
            Some(HopEntry {
                entry_us: self.entry_us.load(Ordering::Acquire),
                entry_served_flits: self.entry_served_flits.load(Ordering::Acquire),
            })
        }
    }
    expect_violation("hop_slot_single_tag_check", || {
        let mut b = Builder::new();
        b.max_preemptions = Some(3);
        b.check(|| {
            let slot = Arc::new(Slot {
                tag: AtomicU64::new(u64::MAX),
                entry_us: AtomicU64::new(0),
                entry_served_flits: AtomicU64::new(0),
            });
            slot.stamp(1, hop_stamp(1));
            let other = {
                let slot = Arc::clone(&slot);
                thread::spawn(move || slot.stamp(2, hop_stamp(2)))
            };
            if let Some(seen) = slot.read(1) {
                assert_eq!(seen, hop_stamp(1), "a mixed stamp was accepted");
            }
            other.join().expect("writer");
        });
    });
}

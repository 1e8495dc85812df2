//! The drain gate: the `closed + in_flight` Dekker pairing that lets
//! shard workers take a *final* look at their ingress rings without
//! stranding a late producer's packet.
//!
//! The protocol (DESIGN.md §10, model-checked by err-check's
//! `drain_gate` loom models):
//!
//! * a producer **announces** itself (`in_flight += 1`) *before*
//!   checking `closed`; if closed it backs out, otherwise it holds the
//!   permit across its ring push;
//! * a worker may only finish once it observes `closed == true` and
//!   `in_flight == 0` — and must re-check ring emptiness *after* that
//!   observation.
//!
//! The closed flag is one bit of a state word that also holds the
//! forced-abort latch (§9.4) and the down bit with its epoch (§14.1), so
//! a submit and a worker step each read one word. A down runtime refuses
//! submits like a closed one, and a down worker sweeps its ring only
//! once `can_sweep` — the `can_finish` pairing with `set_down` in place
//! of `close` — has seen no producer inside `submit`.
//!
//! Both sides use `SeqCst` because this is a store→load (Dekker)
//! pattern: the producer's `in_flight` increment and `closed` read,
//! versus the closer's `closed` store and the worker's `in_flight`
//! read, must fall into one total order. With weaker orderings both
//! the producer could miss `closed` *and* the worker could miss the
//! producer's increment — exactly the one-packet leak PR 4's proptest
//! caught (pinned as the `drain_gate_check_then_enter` mutant model).

use crate::sync::{AtomicU64, Ordering};

/// [`DrainGate`] state bit: `close` was called. Never cleared.
const CLOSED: u64 = 1;
/// State bit: the forced-abort latch (DESIGN.md §9.4). Never cleared.
const ABORT: u64 = 2;
/// State bit: the runtime is down (DESIGN.md §14.1).
const DOWN: u64 = 4;
/// The bits above `DOWN` count the times the runtime went down.
const EPOCH: u64 = 8;

/// What a worker must do at the top of its step, from one load of the
/// gate's state word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stop {
    /// Serve.
    Run,
    /// A forced abort: count the residue lost and exit (§9.4).
    Abort,
    /// The runtime is down in the given epoch: sweep once, then idle
    /// (§14.1).
    Down(u64),
}

/// The shutdown gate shared by producers (submit) and shard workers
/// (exit protocol). See the module docs for the protocol.
#[derive(Debug, Default)]
pub struct DrainGate {
    /// `CLOSED`, `ABORT` and `DOWN` bits, and the down epoch above
    /// them: every submit reads the word once, every worker step too.
    state: AtomicU64,
    /// Producers currently inside a submit that have already passed the
    /// closed check (holding a [`SubmitPermit`]).
    in_flight: AtomicU64,
}

/// Proof that a producer announced itself before the gate closed; held
/// across the ring push so [`DrainGate::can_finish`] cannot report
/// quiescence mid-push. Dropping the permit retires the announcement.
#[derive(Debug)]
pub struct SubmitPermit<'a> {
    gate: &'a DrainGate,
}

impl Drop for SubmitPermit<'_> {
    fn drop(&mut self) {
        // ordering: Release pairs with the worker's SeqCst `in_flight`
        // load in `can_finish` and `can_sweep` — the push this permit
        // covered is visible before the count drops.
        self.gate.in_flight.fetch_sub(1, Ordering::Release);
    }
}

impl DrainGate {
    /// An open gate with no announced producers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Producer side: announce, then check. `None` means the gate is
    /// closed (or the runtime down) and nothing may be pushed;
    /// `Some(permit)` licenses one push, which must complete before the
    /// permit drops.
    pub fn enter(&self) -> Option<SubmitPermit<'_>> {
        // ordering: SeqCst increment *before* the SeqCst state check —
        // the Dekker pairing with `close`/`can_finish` and with
        // `set_down`/`can_sweep`. Once a worker observed `closed &&
        // in_flight == 0`, any producer reaching here is ordered after
        // the `close` store and must see it.
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        let permit = SubmitPermit { gate: self };
        // ordering: SeqCst — see the increment above; pairs with the
        // SeqCst RMWs in `close` and `set_down`.
        if self.state.load(Ordering::SeqCst) & (CLOSED | DOWN) != 0 {
            drop(permit); // retire the announcement
            return None;
        }
        Some(permit)
    }

    /// Closes the gate: all future [`enter`](DrainGate::enter) calls
    /// fail. Producers already holding a permit finish their push and
    /// are awaited via [`can_finish`](DrainGate::can_finish).
    pub fn close(&self) {
        // ordering: SeqCst RMW pairs with the SeqCst load in `enter`
        // (Dekker) — combined with `can_finish` it guarantees no push
        // lands after a worker's final ring check.
        self.state.fetch_or(CLOSED, Ordering::SeqCst);
    }

    /// Whether [`close`](DrainGate::close) has been called.
    pub fn is_closed(&self) -> bool {
        // ordering: Acquire pairs with the `close` RMW for callers
        // that only branch on the flag (wait loops); the
        // exit protocol goes through `can_finish` instead.
        self.state.load(Ordering::Acquire) & CLOSED != 0
    }

    /// Whether a submit is refused now: the gate is closed or the
    /// runtime down. A producer waiting for room gives up on it.
    pub(crate) fn refuses(&self) -> bool {
        // ordering: Acquire, as in `is_closed`.
        self.state.load(Ordering::Acquire) & (CLOSED | DOWN) != 0
    }

    /// Worker side: whether shutdown was requested and no producer is
    /// still mid-submit. Must be checked *before* the final ring-empty
    /// check — once it returns true, no further push can ever happen
    /// (late producers see `closed` in [`enter`](DrainGate::enter) and
    /// back out without touching a ring).
    pub fn can_finish(&self) -> bool {
        // ordering: SeqCst pair — the closed read and in_flight read
        // must be ordered after the producer's SeqCst increment in the
        // single total order (Dekker); see the module docs.
        self.state.load(Ordering::SeqCst) & CLOSED != 0
            && self.in_flight.load(Ordering::SeqCst) == 0
    }

    /// Raises the forced-abort latch (§9.4).
    pub(crate) fn abort(&self) {
        // ordering: Release pairs with the workers' Acquire load in
        // `stop`. A one-way stop latch needs no Dekker pairing.
        self.state.fetch_or(ABORT, Ordering::Release);
    }

    /// Takes the runtime down (a new epoch, if it was up) or brings it
    /// back up. Returns the epoch it is down in, `None` once up.
    pub(crate) fn set_down(&self, down: bool) -> Option<u64> {
        if !down {
            // ordering: SeqCst, as `close`; reopening needs no pairing
            // beyond the RMW's place in the word's order.
            self.state.fetch_and(!DOWN, Ordering::SeqCst);
            return None;
        }
        // ordering: SeqCst — the read half of the CAS loop below.
        let mut state = self.state.load(Ordering::SeqCst);
        while state & DOWN == 0 {
            let next = (state | DOWN) + EPOCH;
            // ordering: SeqCst RMW pairs with the SeqCst load in `enter`
            // (Dekker) — combined with `can_sweep` it guarantees no push
            // lands after a down worker's sweep.
            match self
                .state
                .compare_exchange(state, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => state = next,
                Err(now) => state = now,
            }
        }
        Some(state / EPOCH)
    }

    /// Worker side, once per step: what the state word asks of it.
    #[inline]
    pub(crate) fn stop(&self) -> Stop {
        // ordering: Acquire pairs with the `abort` Release and the
        // `set_down` RMWs.
        let state = self.state.load(Ordering::Acquire);
        if state & (ABORT | DOWN) == 0 {
            Stop::Run
        } else if state & ABORT != 0 {
            Stop::Abort
        } else {
            Stop::Down(state / EPOCH)
        }
    }

    /// Down worker side: whether the runtime is still down and no
    /// producer is mid-submit, so its ring is final until it comes up —
    /// the `can_finish` pairing with `set_down` in place of `close`.
    pub(crate) fn can_sweep(&self) -> bool {
        // ordering: SeqCst pair, as in `can_finish`.
        self.state.load(Ordering::SeqCst) & DOWN != 0 && self.in_flight.load(Ordering::SeqCst) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_gate_admits_and_counts() {
        let g = DrainGate::new();
        assert!(!g.is_closed());
        assert!(!g.can_finish());
        let p = g.enter().expect("open gate admits");
        g.close();
        // A permit is still out: the worker may not finish.
        assert!(!g.can_finish());
        drop(p);
        assert!(g.can_finish());
    }

    #[test]
    fn closed_gate_rejects_and_retires() {
        let g = DrainGate::new();
        g.close();
        assert!(g.is_closed());
        assert!(g.enter().is_none());
        // The rejected announcement was retired: quiescent.
        assert!(g.can_finish());
    }
}

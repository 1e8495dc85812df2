//! The flusher step: one core per shard, draining that shard's output
//! ring.
//!
//! The step is the boundary between the scheduler's flit clock and the
//! downstream's delivery clock — the decoupling the paper's analysis
//! presumes. [`FlusherCore::step`] is the whole of it, and the shard
//! worker runs it itself after every service chunk (`err-runtime`,
//! DESIGN.md §7): no thread stands between scheduler and sink. A step
//! pops flits from the shard's SPSC ring, routes each to its link, and
//! delivers through the caller's sink unless the link is frozen, in
//! which case the flit waits in a per-link pending queue. Pending flits
//! hold their link credits, so a frozen link's buffered backlog is
//! bounded by the credit pool no matter how long the stall lasts. A
//! sink that may block brings its own thread ([`Threaded`]), and the
//! step only ever hands it a flit or hears it refuse.
//!
//! Ordering: per-link order is exactly ring order (pending queues are
//! drained before fresh ring flits for the same link); flits of
//! different links may reorder, which is fine — they leave on
//! different channels.
//!
//! Credits (DESIGN.md §7): deliveries tick the flush clock one by one
//! but their credits go back in batches — a per-link tally, returned
//! whenever it reaches half the link's pool and, for the rest, when
//! the step ends — so every credit is back when `step` returns, by
//! whatever path it returns. [`FlusherCore::settle`] then wakes every
//! worker parked on the shared [`LinkSet`].
//!
//! [`Threaded`]: crate::Threaded

use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::atomic::Ordering;

use err_sched::ServedFlit;

use crate::link::{DeadLinkPolicy, LinkSet};
use crate::spsc::Consumer;
use crate::stats::ShardEgressStats;
use crate::Egress;

/// Max ring pops per [`FlusherCore::step`] call, so one step can't
/// monopolize the worker when it has pushed a whole batch.
const BURST: usize = 256;

/// Single-threaded flusher state machine: the shard worker steps it,
/// and tests (and proptests) drive it step by step deterministically.
pub struct FlusherCore {
    shard: usize,
    rx: Consumer<ServedFlit>,
    /// Flits popped from the ring but stuck behind a frozen link,
    /// per link, in ring order.
    pending: Vec<VecDeque<ServedFlit>>,
    pending_total: usize,
    /// Cumulative ring pops.
    popped: u64,
    /// Flits delivered since the last [`take_delivered`]. Kept here,
    /// not in a local of `step`, so a step the sink unwound still
    /// counts what it delivered (DESIGN.md §14.4).
    ///
    /// [`take_delivered`]: FlusherCore::take_delivered
    delivered: u64,
    /// Per link: deliveries whose credits have not gone back yet.
    tally: Vec<u64>,
    /// Flits dead-lettered since the last [`take_dead_lettered`]
    /// (DESIGN.md §9.3).
    ///
    /// [`take_dead_lettered`]: FlusherCore::take_dead_lettered
    dead_lettered: u64,
    /// Per link: whether the current pending backlog was ever observed
    /// held behind a dead link, so deliveries out of it after a
    /// resurrect count as replays ([`LinkSet::on_replayed`], DESIGN.md
    /// §14.2). Cleared whenever the backlog empties.
    dead_seen: Vec<bool>,
    /// The flit the sink unwound on, dead-lettered by the unwinding
    /// step; the next step tells the sink ([`Egress::dead_lettered`],
    /// DESIGN.md §14.4).
    untold: Option<ServedFlit>,
}

impl FlusherCore {
    /// A flusher for `shard`, draining `rx` toward `n_links` links.
    pub fn new(shard: usize, rx: Consumer<ServedFlit>, n_links: usize) -> Self {
        Self {
            shard,
            rx,
            pending: (0..n_links).map(|_| VecDeque::new()).collect(),
            pending_total: 0,
            popped: 0,
            delivered: 0,
            tally: vec![0; n_links],
            dead_lettered: 0,
            dead_seen: vec![false; n_links],
            untold: None,
        }
    }

    /// Cumulative flits popped from the shard's output ring.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Flits currently parked behind `link`'s stall.
    pub fn pending_len(&self, link: usize) -> usize {
        self.pending[link].len()
    }

    /// Flits delivered since the last call; resets the counter.
    /// [`settle`](Self::settle) adds it to `flushed_flits` after every
    /// step — the one that unwound included.
    fn take_delivered(&mut self) -> u64 {
        std::mem::take(&mut self.delivered)
    }

    /// Flits dead-lettered since the last call; resets the counter.
    /// [`settle`](Self::settle) reports it as progress — a burst of
    /// dead-letters is work done even though nothing reached the sink.
    pub fn take_dead_lettered(&mut self) -> u64 {
        std::mem::take(&mut self.dead_lettered)
    }

    /// Whether the ring and every pending queue are empty, and the sink
    /// has been told of every flit it unwound on.
    pub fn is_idle(&mut self) -> bool {
        self.pending_total == 0 && self.untold.is_none() && self.rx.is_empty()
    }

    /// The bookkeeping after every step: counts the deliveries into
    /// `stats` and wakes the credit waiters. Returns `(delivered,
    /// dead-lettered)` since the last call.
    pub fn settle(&mut self, links: &LinkSet, stats: &ShardEgressStats) -> (u64, u64) {
        let delivered = self.take_delivered();
        let dead = self.take_dead_lettered();
        // Once per step, after all of its credit returns. Not gated on
        // this step's counts: the mark may stand for a credit a guard
        // returned while the previous step unwound.
        links.wake_credit_waiters();
        if delivered > 0 {
            stats.flushed_flits.fetch_add(delivered, Ordering::Relaxed);
        }
        (delivered, dead)
    }

    /// The exit step, once nothing more will be pushed: dead-letters
    /// what dead `HoldForRecovery` links hold (§9.3) and, if that
    /// returned credits, wakes their waiters. Returns whether the core
    /// is idle — whether its owner may leave.
    pub fn finish(&mut self, links: &LinkSet) -> bool {
        if self.finalize_dead_letters(links) > 0 {
            links.wake_credit_waiters();
        }
        self.is_idle()
    }

    /// Returns every tallied credit. `step` runs it on the way out,
    /// unwinding or not.
    fn return_tallies(&mut self, links: &LinkSet) {
        for (link, tally) in self.tally.iter_mut().enumerate() {
            if *tally > 0 {
                links.credit_delivered(link, std::mem::take(tally));
            }
        }
    }

    /// Offers `flit` to the sink; tallies the credit and advances the
    /// flush clock only on acceptance (DESIGN.md §11.2 — a refusing
    /// sink keeps the credit withheld, which is how a fabric forwarder
    /// propagates downstream backpressure into this node's scheduler).
    /// A tally that reaches half the link's pool goes back at once, so
    /// a worker serving beside this step never waits for its end.
    fn try_deliver<E: Egress + ?Sized>(
        &mut self,
        flit: &ServedFlit,
        link: usize,
        links: &LinkSet,
        sink: &mut E,
    ) -> bool {
        if !sink.try_emit(self.shard, flit) {
            return false;
        }
        links.tick_delivered(link);
        self.delivered += 1;
        self.tally[link] += 1;
        if self.tally[link] >= (links.credits_per_link() / 2).max(1) {
            links.credit_delivered(link, std::mem::take(&mut self.tally[link]));
        }
        true
    }

    /// [`try_deliver`](Self::try_deliver) for a flit just popped from
    /// the ring. Nothing else remembers such a flit, so if the sink
    /// unwinds it is dead-lettered on the way out — its credit returns
    /// like those of the flits [`dead_letter_all`] then disposes of —
    /// and kept for the next step to tell the sink. (A pending flit
    /// needs no such guard: it stays queued until accepted.)
    ///
    /// [`dead_letter_all`]: Self::dead_letter_all
    fn try_deliver_popped<E: Egress + ?Sized>(
        &mut self,
        flit: &ServedFlit,
        link: usize,
        links: &LinkSet,
        sink: &mut E,
    ) -> bool {
        struct InHand<'a>(&'a mut FlusherCore, &'a LinkSet, usize, ServedFlit);
        impl Drop for InHand<'_> {
            fn drop(&mut self) {
                self.1.on_dead_letter(self.2);
                self.0.untold = Some(self.3);
            }
        }
        let in_hand = InHand(self, links, link, *flit);
        let accepted = in_hand.0.try_deliver(flit, link, links, sink);
        // Only an unwind out of `try_deliver` runs the drop.
        std::mem::forget(in_hand);
        accepted
    }

    /// One pump: drain deliverable pending flits, then pop up to
    /// `BURST` ring flits, delivering or parking each. Returns the
    /// number delivered to the sink. Every credit of a delivered flit
    /// is back in its pool when this returns — or unwinds: the sink is
    /// the caller's code, and the tally is settled by a drop guard.
    ///
    /// The middle argument is always `None`: it keeps the signature the
    /// benchmark of record calls until its next change drops it.
    pub fn step<E: Egress + ?Sized>(
        &mut self,
        links: &LinkSet,
        _: Option<Infallible>,
        sink: &mut E,
    ) -> u64 {
        struct Settle<'a>(&'a mut FlusherCore, &'a LinkSet);
        impl Drop for Settle<'_> {
            fn drop(&mut self) {
                self.0.return_tallies(self.1);
            }
        }
        let before = self.delivered;
        let settle = Settle(self, links);
        settle.0.deliver_burst(links, sink);
        drop(settle);
        self.delivered - before
    }

    /// The body of [`step`](Self::step): what it delivers it counts in
    /// `delivered` and tallies per link. It first tells the sink of the
    /// flit a previous step's unwind dead-lettered.
    fn deliver_burst<E: Egress + ?Sized>(&mut self, links: &LinkSet, sink: &mut E) {
        if let Some(flit) = self.untold.take() {
            sink.dead_lettered(self.shard, &flit);
        }
        links.poll_deadlines();
        let drop_dead = links.policy() == DeadLinkPolicy::DropAndAccount;
        // Pending first: per-link FIFO requires stalled flits to leave
        // before fresh ones for the same link.
        if self.pending_total > 0 {
            for link in 0..self.pending.len() {
                if links.is_dead(link) {
                    if drop_dead {
                        // The link died under its backlog (§9.3).
                        self.dead_letter_pending(link, links);
                        continue;
                    }
                    // HoldForRecovery: remember this backlog crossed a
                    // death window, so its eventual deliveries count as
                    // replays (§14.2).
                    if !self.pending[link].is_empty() {
                        self.dead_seen[link] = true;
                    }
                }
                while !self.pending[link].is_empty() && !links.blocked(link) {
                    let flit = *self.pending[link].front().expect("checked non-empty");
                    if !self.try_deliver(&flit, link, links, sink) {
                        // Sink refusal: the head flit keeps its credit
                        // and per-link FIFO holds everything behind it.
                        break;
                    }
                    self.pending[link].pop_front();
                    self.pending_total -= 1;
                    if self.dead_seen[link] {
                        links.on_replayed(link);
                    }
                }
                if self.pending[link].is_empty() {
                    self.dead_seen[link] = false;
                }
            }
        }
        for _ in 0..BURST {
            let Some(flit) = self.rx.pop() else { break };
            self.popped += 1;
            let link = links.route(flit.flow);
            if drop_dead && links.is_dead(link) {
                links.on_dead_letter(link);
                self.dead_lettered += 1;
            } else if links.blocked(link)
                || !self.pending[link].is_empty()
                || !self.try_deliver_popped(&flit, link, links, sink)
            {
                self.pending[link].push_back(flit);
                self.pending_total += 1;
                if links.is_dead(link) {
                    // Parked behind a dead link under HoldForRecovery
                    // (DropAndAccount never reaches here dead): this
                    // backlog crossed a death window, so its eventual
                    // deliveries count as replays (§14.2).
                    self.dead_seen[link] = true;
                }
                // Every pending flit holds a credit, so the stall
                // buffer is bounded by the credit pool.
                debug_assert!(
                    self.pending[link].len() as u64 <= links.credits_per_link(),
                    "pending overflow on link {link}"
                );
            }
        }
    }

    /// Dead-letters `link`'s whole pending queue, in order, credits
    /// returning as it goes.
    fn dead_letter_pending(&mut self, link: usize, links: &LinkSet) {
        while self.pending[link].pop_front().is_some() {
            self.pending_total -= 1;
            links.on_dead_letter(link);
            self.dead_lettered += 1;
        }
        self.dead_seen[link] = false;
    }

    /// Forced-abort settlement (DESIGN.md §9.4): every pending flit and
    /// everything in the ring is dead-lettered, whatever its link's
    /// state, and every credit returns. Never calls the sink, nor tells
    /// it of a flit it unwound on: an aborted or swept worker's residue
    /// is counted lost. Progress shows in
    /// [`take_dead_lettered`](Self::take_dead_lettered).
    pub fn dead_letter_all(&mut self, links: &LinkSet) {
        self.untold = None;
        for link in 0..self.pending.len() {
            self.dead_letter_pending(link, links);
        }
        while let Some(flit) = self.rx.pop() {
            self.popped += 1;
            links.on_dead_letter(links.route(flit.flow));
            self.dead_lettered += 1;
        }
    }

    /// Shutdown path for [`DeadLinkPolicy::HoldForRecovery`]: a dead
    /// link blocks even in drain mode, so flits held behind it would
    /// strand the worker forever. Once nothing more will be pushed,
    /// [`finish`](Self::finish) calls this to dead-letter every flit
    /// still held behind a dead link — the honest outcome when the
    /// downstream never came back. Returns the number dead-lettered.
    pub fn finalize_dead_letters(&mut self, links: &LinkSet) -> u64 {
        let mut n = 0u64;
        for link in 0..self.pending.len() {
            // `is_dead` is rechecked per pop, not once per queue: a
            // `resurrect` racing this finalize (the monitor healing a
            // link in the same instant the drain gives up on it) must
            // not have the rest of the backlog dead-lettered under a
            // now-live link — the remainder stays pending and the next
            // `step` delivers it as a replay (§14.2).
            while !self.pending[link].is_empty() && links.is_dead(link) {
                self.pending[link].pop_front();
                self.pending_total -= 1;
                links.on_dead_letter(link);
                n += 1;
            }
            if self.pending[link].is_empty() {
                self.dead_seen[link] = false;
            }
        }
        self.dead_lettered += n;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spsc::spsc_ring;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn flit(flow: usize, packet: u64, idx: u32, len: u32) -> ServedFlit {
        ServedFlit {
            flow,
            packet,
            arrival: 0,
            len,
            flit_index: idx,
        }
    }

    #[test]
    fn delivers_in_ring_order_when_unstalled() {
        let links = LinkSet::new(2, 8);
        let (mut tx, rx) = spsc_ring(16);
        let mut core = FlusherCore::new(0, rx, 2);
        for i in 0..6u64 {
            assert!(links.try_acquire((i % 2) as usize));
            tx.push(flit((i % 2) as usize, i, 0, 1)).unwrap();
        }
        let mut out = Vec::new();
        let mut sink = |_s: usize, f: &ServedFlit| out.push(f.packet);
        assert_eq!(core.step(&links, None, &mut sink), 6);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        assert!(core.is_idle());
        assert_eq!(links.flush_clock(), 6);
    }

    #[test]
    fn credits_go_back_at_half_the_pool_and_when_the_step_ends() {
        let links = LinkSet::new(1, 8);
        let (mut tx, rx) = spsc_ring(16);
        let mut core = FlusherCore::new(0, rx, 1);
        for i in 0..7u64 {
            assert!(links.try_acquire(0));
            tx.push(flit(0, i, 0, 1)).unwrap();
        }
        // What the pool holds when each flit reaches the sink: one
        // spare credit until the tally of four (half of eight) goes
        // back behind the fourth delivery.
        let mut seen = Vec::new();
        let mut sink = |_s: usize, _f: &ServedFlit| {
            seen.push(links.snapshot()[0].credits_available);
        };
        assert_eq!(core.step(&links, None, &mut sink), 7);
        assert_eq!(seen, vec![1, 1, 1, 1, 5, 5, 5]);
        assert_eq!(links.flush_clock(), 7, "the clock ticked per delivery");
        let snap = links.snapshot();
        assert_eq!(snap[0].credits_available, 8, "the step settled the rest");
        assert_eq!(snap[0].delivered_flits, 7);
        assert_eq!(core.take_delivered(), 7);
        assert_eq!(core.take_delivered(), 0);
    }

    #[test]
    fn a_step_the_sink_unwinds_settles_its_tally_and_keeps_its_count() {
        let links = LinkSet::new(1, 8);
        let (mut tx, rx) = spsc_ring(16);
        let mut core = FlusherCore::new(0, rx, 1);
        for i in 0..5u64 {
            assert!(links.try_acquire(0));
            tx.push(flit(0, i, 0, 1)).unwrap();
        }
        let mut sink = |_s: usize, f: &ServedFlit| {
            if f.packet == 2 {
                panic!("sink: gone (injected by the test)");
            }
        };
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            core.step(&links, None, &mut sink)
        }));
        assert!(unwound.is_err());
        // Two delivered (tallied, settled by the guard), the one in
        // hand dead-lettered, two still in the ring with their credits.
        let snap = links.snapshot();
        assert_eq!(snap[0].delivered_flits, 2);
        assert_eq!(snap[0].dead_letter_flits, 1);
        assert_eq!(snap[0].credits_available, 8 - 2);
        assert_eq!(core.take_delivered(), 2, "the unwound step still counts");
        core.dead_letter_all(&links);
        assert_eq!(links.snapshot()[0].credits_available, 8);
    }

    #[test]
    fn frozen_link_parks_flits_others_flow() {
        let links = LinkSet::new(2, 8);
        links.freeze(1);
        let (mut tx, rx) = spsc_ring(16);
        let mut core = FlusherCore::new(0, rx, 2);
        // Interleaved flits for links 0 and 1.
        for i in 0..8u64 {
            assert!(links.try_acquire((i % 2) as usize));
            tx.push(flit((i % 2) as usize, i, 0, 1)).unwrap();
        }
        let out = std::sync::Mutex::new(Vec::new());
        let mut sink = |_s: usize, f: &ServedFlit| out.lock().unwrap().push(f.packet);
        assert_eq!(core.step(&links, None, &mut sink), 4);
        assert_eq!(
            *out.lock().unwrap(),
            vec![0, 2, 4, 6],
            "even packets ride link 0"
        );
        assert_eq!(core.pending_len(1), 4, "odd packets wait out the stall");
        // Thaw: pending leaves first, in order.
        links.release_stall(1);
        assert_eq!(core.step(&links, None, &mut sink), 4);
        assert_eq!(*out.lock().unwrap(), vec![0, 2, 4, 6, 1, 3, 5, 7]);
        assert!(core.is_idle());
    }

    #[test]
    fn per_link_fifo_across_thaw_boundary() {
        // A flit arriving while its link thaws must not overtake the
        // pending queue.
        let links = LinkSet::new(1, 8);
        let (mut tx, rx) = spsc_ring(16);
        let mut core = FlusherCore::new(0, rx, 1);
        links.freeze(0);
        links.try_acquire(0);
        tx.push(flit(0, 0, 0, 1)).unwrap();
        let mut out = Vec::new();
        let mut sink = |_s: usize, f: &ServedFlit| out.push(f.packet);
        core.step(&links, None, &mut sink);
        assert_eq!(core.pending_len(0), 1);
        links.release_stall(0);
        // New flit behind the pending one.
        links.try_acquire(0);
        tx.push(flit(0, 1, 0, 1)).unwrap();
        core.step(&links, None, &mut sink);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn drop_policy_dead_letters_backlog_and_fresh_flits() {
        let links = LinkSet::with_fault_policy(2, 8, None, DeadLinkPolicy::DropAndAccount);
        let (mut tx, rx) = spsc_ring(16);
        let mut core = FlusherCore::new(0, rx, 2);
        // Park two flits behind a stall on link 1, then kill the link.
        links.freeze(1);
        for i in 0..2u64 {
            links.try_acquire(1);
            tx.push(flit(1, i, 0, 1)).unwrap();
        }
        let mut out = Vec::new();
        let mut sink = |_s: usize, f: &ServedFlit| out.push(f.packet);
        assert_eq!(core.step(&links, None, &mut sink), 0);
        assert_eq!(core.pending_len(1), 2);
        links.declare_dead(1);
        // Fresh flit for the dead link plus one for the live link.
        links.try_acquire(1);
        tx.push(flit(1, 2, 0, 1)).unwrap();
        links.try_acquire(0);
        tx.push(flit(0, 3, 0, 1)).unwrap();
        assert_eq!(core.step(&links, None, &mut sink), 1, "live link delivers");
        assert_eq!(out, vec![3]);
        assert_eq!(core.take_dead_lettered(), 3, "backlog + fresh flit");
        assert!(core.is_idle());
        let snap = links.snapshot();
        assert_eq!(snap[1].dead_letter_flits, 3);
        assert_eq!(
            snap[1].credits_available, 8,
            "dead-letters returned every credit"
        );
    }

    #[test]
    fn hold_policy_holds_then_delivers_on_resurrect() {
        let links = LinkSet::with_fault_policy(1, 8, None, DeadLinkPolicy::HoldForRecovery);
        let (mut tx, rx) = spsc_ring(16);
        let mut core = FlusherCore::new(0, rx, 1);
        links.declare_dead(0);
        for i in 0..3u64 {
            links.try_acquire(0);
            tx.push(flit(0, i, 0, 1)).unwrap();
        }
        let mut out = Vec::new();
        let mut sink = |_s: usize, f: &ServedFlit| out.push(f.packet);
        assert_eq!(core.step(&links, None, &mut sink), 0);
        assert_eq!(core.pending_len(0), 3, "held, not dropped");
        assert_eq!(core.take_dead_lettered(), 0);
        links.resurrect(0);
        assert_eq!(core.step(&links, None, &mut sink), 3);
        assert_eq!(out, vec![0, 1, 2], "held flits deliver in order");
    }

    #[test]
    fn replay_counter_tracks_death_held_deliveries_only() {
        let links = LinkSet::with_fault_policy(2, 8, None, DeadLinkPolicy::HoldForRecovery);
        let (mut tx, rx) = spsc_ring(16);
        let mut core = FlusherCore::new(0, rx, 2);
        // Link 0 dies under a 3-flit backlog; link 1 stays healthy.
        links.declare_dead(0);
        for i in 0..3u64 {
            links.try_acquire(0);
            tx.push(flit(0, i, 0, 1)).unwrap();
        }
        links.try_acquire(1);
        tx.push(flit(1, 10, 0, 1)).unwrap();
        let mut out = Vec::new();
        let mut sink = |_s: usize, f: &ServedFlit| out.push(f.packet);
        assert_eq!(core.step(&links, None, &mut sink), 1, "live link flows");
        // Another step observes the held backlog behind the dead link.
        assert_eq!(core.step(&links, None, &mut sink), 0);
        links.resurrect(0);
        assert_eq!(core.step(&links, None, &mut sink), 3);
        let snap = links.snapshot();
        assert_eq!(snap[0].replayed, 3, "held flits replay on resurrect");
        assert_eq!(snap[1].replayed, 0, "normal deliveries are not replays");
        // Post-replay traffic on link 0 is normal again.
        links.try_acquire(0);
        tx.push(flit(0, 20, 0, 1)).unwrap();
        assert_eq!(core.step(&links, None, &mut sink), 1);
        assert_eq!(links.snapshot()[0].replayed, 3, "replay window closed");
        assert_eq!(out, vec![10, 0, 1, 2, 20]);
    }

    #[test]
    fn finalize_rechecks_death_per_pop_so_resurrect_cannot_strand() {
        // Regression (§14.2): `finalize_dead_letters` used to test
        // `is_dead` once per queue and then drain it unconditionally —
        // a `resurrect` landing mid-drain had the rest of the backlog
        // dead-lettered under a live link. The per-pop recheck leaves
        // the remainder pending for the next step to deliver.
        let links = LinkSet::with_fault_policy(1, 8, None, DeadLinkPolicy::HoldForRecovery);
        let (mut tx, rx) = spsc_ring(16);
        let mut core = FlusherCore::new(0, rx, 1);
        links.declare_dead(0);
        for i in 0..3u64 {
            links.try_acquire(0);
            tx.push(flit(0, i, 0, 1)).unwrap();
        }
        let mut out = Vec::new();
        let mut sink = |_s: usize, f: &ServedFlit| out.push(f.packet);
        assert_eq!(core.step(&links, None, &mut sink), 0);
        assert_eq!(core.pending_len(0), 3);
        // Resurrect *before* finalize: nothing may be dead-lettered.
        links.resurrect(0);
        assert_eq!(core.finalize_dead_letters(&links), 0);
        assert_eq!(core.pending_len(0), 3, "backlog survives the finalize");
        assert_eq!(core.step(&links, None, &mut sink), 3);
        assert_eq!(out, vec![0, 1, 2]);
        let snap = links.snapshot();
        assert_eq!(snap[0].dead_letter_flits, 0);
        assert_eq!(snap[0].replayed, 3);
        assert_eq!(snap[0].credits_available, 8);
    }

    #[test]
    fn resurrect_racing_shutdown_strands_no_flit() {
        // Threaded regression for the same race: a resurrect fired from
        // another thread while the closed stepper is finalizing must
        // leave every flit either delivered or dead-lettered — never
        // stranded — and every credit returned. The stepper is the
        // worker's exit loop in miniature: step, settle, and leave once
        // closed and `finish` says the core is idle.
        for round in 0..50u64 {
            let links = Arc::new(LinkSet::with_fault_policy(
                1,
                16,
                None,
                DeadLinkPolicy::HoldForRecovery,
            ));
            let closed = Arc::new(AtomicBool::new(false));
            let (mut tx, rx) = spsc_ring(32);
            let mut core = FlusherCore::new(0, rx, 1);
            let out = Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut sink = {
                let out = Arc::clone(&out);
                move |_s: usize, f: &ServedFlit| out.lock().unwrap().push(f.packet)
            };
            links.declare_dead(0);
            const PUSHED: u64 = 8;
            for i in 0..PUSHED {
                assert!(links.try_acquire(0));
                tx.push(flit(0, i, 0, 1)).unwrap();
            }
            let h = {
                let (links, closed) = (Arc::clone(&links), Arc::clone(&closed));
                std::thread::spawn(move || {
                    let stats = ShardEgressStats::default();
                    loop {
                        core.step(&links, None, &mut sink);
                        core.settle(&links, &stats);
                        if closed.load(Ordering::Acquire) && core.finish(&links) {
                            return;
                        }
                        std::thread::yield_now();
                    }
                })
            };
            // Jitter the interleaving: closed first, resurrect racing
            // the finalize that close triggers.
            closed.store(true, Ordering::Release);
            for _ in 0..(round % 7) * 40 {
                std::hint::spin_loop();
            }
            links.resurrect(0);
            h.join().unwrap();
            let snap = links.snapshot();
            let delivered = out.lock().unwrap().len() as u64;
            assert_eq!(
                delivered + snap[0].dead_letter_flits,
                PUSHED,
                "round {round}: every flit disposed exactly once"
            );
            assert_eq!(
                snap[0].credits_available, 16,
                "round {round}: all credits returned"
            );
        }
    }

    #[test]
    fn finalize_dead_letters_unsticks_held_flits() {
        let links = LinkSet::with_fault_policy(1, 8, None, DeadLinkPolicy::HoldForRecovery);
        let (mut tx, rx) = spsc_ring(16);
        let mut core = FlusherCore::new(0, rx, 1);
        links.declare_dead(0);
        for i in 0..2u64 {
            links.try_acquire(0);
            tx.push(flit(0, i, 0, 1)).unwrap();
        }
        let mut sink = |_s: usize, _f: &ServedFlit| panic!("nothing should deliver");
        assert_eq!(core.step(&links, None, &mut sink), 0);
        links.set_draining(true);
        assert_eq!(
            core.step(&links, None, &mut sink),
            0,
            "death outlasts drain"
        );
        assert_eq!(core.finalize_dead_letters(&links), 2);
        assert!(core.is_idle());
        assert_eq!(links.snapshot()[0].dead_letter_flits, 2);
    }

    #[test]
    fn progress_watermark_holds_while_flits_pend() {
        // A frozen link keeps popped flits pending while the pop count
        // moves past them; the thaw delivers them.
        let links = LinkSet::new(2, 8);
        let stats = ShardEgressStats::default();
        let (mut tx, rx) = spsc_ring(16);
        let mut core = FlusherCore::new(0, rx, 2);
        let mut sink = |_s: usize, _f: &ServedFlit| {};
        links.try_acquire(0);
        tx.push(flit(0, 0, 0, 1)).unwrap();
        core.step(&links, None, &mut sink);
        core.settle(&links, &stats);
        links.freeze(1);
        links.try_acquire(1);
        tx.push(flit(1, 1, 0, 1)).unwrap();
        links.try_acquire(0);
        tx.push(flit(0, 2, 0, 1)).unwrap();
        core.step(&links, None, &mut sink);
        core.settle(&links, &stats);
        assert_eq!(core.popped(), 3);
        assert_eq!(core.pending_len(1), 1, "the flit on link 1 pends");
        links.release_stall(1);
        core.step(&links, None, &mut sink);
        core.settle(&links, &stats);
        assert_eq!(core.pending_len(1), 0, "thaw releases the flit");
        assert_eq!(stats.snapshot().flushed_flits, 3);
    }
}

//! The flusher: one per shard, draining that shard's output ring.
//!
//! The flusher is the boundary between the scheduler's flit clock and
//! the downstream's delivery clock — the decoupling the paper's
//! analysis presumes. [`FlusherCore::step`] is the whole of it;
//! [`run_flusher`] runs it on a thread of its own, which is what a sink
//! that may block needs. For a sink whose `try_emit` never blocks
//! ([`Egress::never_blocks`]) the shard worker runs the same `step`
//! itself after every service batch, and no thread is spawned
//! (`err-runtime`, DESIGN.md §7); the rest of this page describes the
//! thread. A step pops flits from the shard's SPSC ring, routes
//! each to its link, and delivers through the caller's sink unless the
//! link is frozen, in which case the flit waits in a per-link pending
//! queue. Pending flits hold their link credits, so a frozen link's
//! buffered backlog is bounded by the credit pool no matter how long
//! the stall lasts.
//!
//! Ordering: per-link order is exactly ring order (pending queues are
//! drained before fresh ring flits for the same link); flits of
//! different links may reorder, which is fine — they leave on
//! different channels.
//!
//! Credits (DESIGN.md §7): deliveries tick the flush clock one by one
//! but their credits go back in batches — a per-link tally, returned
//! whenever it reaches half the link's pool and, for the rest, when
//! the step ends — so a worker serving beside the flusher is refilled
//! mid-step and every credit is back when `step` returns, by whatever
//! path it returns.
//!
//! Hand-offs (DESIGN.md §6, §7): a flusher with an empty ring sleeps
//! on the ring's wake cell and its worker wakes it once per service
//! phase that committed flits; a step that returned credits wakes
//! every worker parked on the shared [`LinkSet`]. That sleep is
//! *covered* — a ring push, the shutdown latch, and every transition
//! that opens a link pending flits wait behind (thaw, death,
//! resurrect, drain) are all announced — and its timer is only the
//! [`BACKSTOP`]; unless a flit is pending behind an *open* link, which
//! means the sink refused it. Nobody announces a refusing sink
//! finding room: there the back-off timer below is the wake-up, and
//! stays short.
//!
//! Idle path (DESIGN.md §7): after a step that moved nothing the
//! flusher takes a couple of looks
//! ([`WakeCell::idle_unless`](crate::WakeCell::idle_unless)) at the
//! very predicate its sleep re-checks (ring non-empty, the `closed`
//! latch, a blocked link opening) — never another whole
//! [`FlusherCore::step`] — and sleeps. A flit the sink refused is therefore offered again
//! once per wake or back-off expiry, not once per spin.

use std::collections::VecDeque;
// The `FlushProgress` watermark goes through the loom shim so the
// §8.7 retire fence is model-checkable; the `closed` latch crosses
// the runtime↔egress crate boundary in `run_flusher`'s signature and
// stays a std atomic (models drive `FlusherCore::step` directly).
use crate::sync::{AtomicU64, Ordering};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use err_sched::ServedFlit;

use crate::link::{DeadLinkPolicy, LinkSet};
use crate::spsc::Consumer;
use crate::stall::StallInjector;
use crate::stats::ShardEgressStats;
use crate::wake::{Sleep, BACKSTOP};
use crate::Egress;

/// Max ring pops per [`FlusherCore::step`] call, so one step can't
/// monopolize the thread when the worker is producing at full tilt.
const BURST: usize = 256;

/// First sleep that polls a refusing sink. Doubles per idle round.
const BACKOFF_FLOOR: std::time::Duration = std::time::Duration::from_micros(5);

/// Parking cap: the longest a flusher sleeps between offers of a flit
/// its sink refused. Bounds wake-up latency when the refusing sink
/// finds room — an event nobody announces; fresh ring flits end the
/// sleep early through the wake cell. The cap matters for throughput,
/// not just latency: pending flits hold link credits, and with small
/// credit pools the workers park flows and stall behind them — a 1 ms
/// cap measurably regressed the stalled-downstream bench at 4-8 shards
/// on an oversubscribed core, so the cap stays within 2x of the fixed
/// 50 us period it replaced.
const BACKOFF_CAP: std::time::Duration = std::time::Duration::from_micros(100);

/// The flusher's retire watermark (DESIGN.md §8.7): a single monotone
/// cursor a stealing donor reads to prove its victim's flits have left
/// the egress path before the flow's home flips.
///
/// The value is the flusher's cumulative ring-pop count, published
/// **only at pending-free instants** — moments when every popped flit
/// has been delivered or dead-lettered. Because pops follow ring order
/// and the worker's pushes follow service order, `retired() >= s`
/// proves the first `s` flits the worker ever pushed are all disposed.
/// A two-counter design (pops + pending gauge) would admit a
/// publication race where a reader pairs a fresh pop count with a stale
/// gauge; the single conditional watermark cannot.
pub struct FlushProgress {
    watermark: AtomicU64,
}

impl Default for FlushProgress {
    fn default() -> Self {
        Self {
            watermark: AtomicU64::new(0),
        }
    }
}

impl FlushProgress {
    /// The latest pending-free pop count: every one of the first
    /// `retired()` flits pushed to this shard's ring has been delivered
    /// or dead-lettered.
    pub fn retired(&self) -> u64 {
        // ordering: Acquire pairs with the Release publish in
        // `FlusherCore::publish_progress` — a donor that reads
        // `retired() >= s` must also observe the deliveries behind it
        // (modeled: model_flush_progress_retire_fence).
        // [pair: flush-retire @ self]
        self.watermark.load(Ordering::Acquire)
    }

    fn publish(&self, popped: u64) {
        // ordering: Release — see `retired`. Monotone by construction:
        // `popped` never decreases and only this flusher writes.
        // [pair: flush-retire @ self]
        self.watermark.store(popped, Ordering::Release);
    }
}

/// Single-threaded flusher state machine. Split from the thread loop so
/// tests (and proptests) can drive it step-by-step deterministically.
pub struct FlusherCore {
    shard: usize,
    rx: Consumer<ServedFlit>,
    /// Flits popped from the ring but stuck behind a frozen link,
    /// per link, in ring order.
    pending: Vec<VecDeque<ServedFlit>>,
    pending_total: usize,
    /// Cumulative ring pops; the raw material of [`FlushProgress`].
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
        }
    }

    /// Cumulative flits popped from the shard's output ring.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Publishes the retire watermark when (and only when) no popped
    /// flit is still pending — the §8.7 invariant `FlushProgress`
    /// documents. [`settle`](Self::settle) calls this after every step.
    pub fn publish_progress(&self, progress: &FlushProgress) {
        if self.pending_total == 0 {
            progress.publish(self.popped);
        }
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
    /// The flusher loops use this as a progress signal — a burst of
    /// dead-letters is work done even though nothing reached the sink.
    pub fn take_dead_lettered(&mut self) -> u64 {
        std::mem::take(&mut self.dead_lettered)
    }

    /// Whether both the ring and every pending queue are empty.
    pub fn is_idle(&mut self) -> bool {
        self.pending_total == 0 && self.rx.is_empty()
    }

    /// Makes the calling thread the one the worker's
    /// [`Producer::wake_consumer`](crate::spsc::Producer::wake_consumer)
    /// unparks; the thread loop calls it once on entry.
    pub fn register_sleeper(&self) {
        self.rx.register_sleeper();
    }

    /// One idle phase of the flusher thread, after a step that moved
    /// nothing: a couple of looks at the wake predicate, then a
    /// park; says how it ended and whether the park was a poll. A flit
    /// pending behind an *open* link was refused by the sink, and
    /// nobody announces the sink finding room: `poll` is then the
    /// timer, and the wake-up — the flit is offered again when this
    /// returns, never from inside the spin. Everything else the flusher
    /// can wait for is announced and read by the predicate — a ring
    /// push, the `closed` latch, a blocked link with pending flits
    /// opening — so that sleep is covered.
    pub fn idle(
        &mut self,
        links: &LinkSet,
        closed: &AtomicBool,
        poll: std::time::Duration,
    ) -> (Sleep, bool) {
        let Self { rx, pending, .. } = self;
        // ordering: Acquire pairs with the runtime's Release
        // `egress_closed` store, which its wake of this cell follows
        // (err-runtime drain_within) — the sleep's re-check is
        // sequenced after the cell's announcing swap, so a latch whose
        // wake found the flag clear is seen here.
        // [pair: egress-closed @ crates/err-runtime/src/lib.rs]
        let closed = || closed.load(Ordering::Acquire);
        let open = || (pending.iter().enumerate()).any(|(l, q)| !q.is_empty() && !links.blocked(l));
        if open() {
            // backstop: polls a refusing sink finding room — what a
            // flit pending behind an open link waits for.
            (rx.idle_while_empty(closed, poll), true)
        } else {
            // backstop: covered by `wake_consumer` (a ring push) and
            // `wake_flushers` (the `closed` latch; a thaw, death,
            // `resurrect` or drain of a link with pending flits).
            let ready = || closed() || open();
            (rx.idle_while_empty(ready, BACKSTOP), false)
        }
    }

    /// The bookkeeping after every step, whoever runs it (the thread
    /// loop, or a shard worker stepping the core itself): counts the
    /// deliveries into `stats`, publishes the retire watermark, wakes
    /// the credit waiters. Returns `(delivered, dead-lettered)` since
    /// the last call.
    pub fn settle(
        &mut self,
        links: &LinkSet,
        stats: &ShardEgressStats,
        progress: &FlushProgress,
    ) -> (u64, u64) {
        let delivered = self.take_delivered();
        let dead = self.take_dead_lettered();
        self.publish_progress(progress);
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
        injector: Option<&StallInjector>,
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
        // The clock moved: stall events may now be due. Polling per
        // delivery keeps single-shard schedules cycle-exact.
        if let Some(inj) = injector {
            inj.poll(links);
        }
        true
    }

    /// [`try_deliver`](Self::try_deliver) for a flit just popped from
    /// the ring. Nothing else remembers such a flit, so if the sink
    /// unwinds it is dead-lettered on the way out — its credit returns
    /// like those of the flits [`dead_letter_all`] then disposes of. (A
    /// pending flit needs no such guard: it stays queued until accepted.)
    ///
    /// [`dead_letter_all`]: Self::dead_letter_all
    fn try_deliver_popped<E: Egress + ?Sized>(
        &mut self,
        flit: &ServedFlit,
        link: usize,
        links: &LinkSet,
        injector: Option<&StallInjector>,
        sink: &mut E,
    ) -> bool {
        struct InHand<'a>(&'a LinkSet, usize);
        impl Drop for InHand<'_> {
            fn drop(&mut self) {
                self.0.on_dead_letter(self.1);
            }
        }
        let in_hand = InHand(links, link);
        let accepted = self.try_deliver(flit, link, links, injector, sink);
        // Only an unwind out of `try_deliver` runs the drop.
        std::mem::forget(in_hand);
        accepted
    }

    /// One pump: drain deliverable pending flits, then pop up to
    /// `BURST` ring flits, delivering or parking each. Returns the
    /// number delivered to the sink. Every credit of a delivered flit
    /// is back in its pool when this returns — or unwinds: the sink is
    /// the caller's code, and the tally is settled by a drop guard.
    pub fn step<E: Egress + ?Sized>(
        &mut self,
        links: &LinkSet,
        injector: Option<&StallInjector>,
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
        settle.0.deliver_burst(links, injector, sink);
        drop(settle);
        self.delivered - before
    }

    /// The body of [`step`](Self::step): what it delivers it counts in
    /// `delivered` and tallies per link.
    fn deliver_burst<E: Egress + ?Sized>(
        &mut self,
        links: &LinkSet,
        injector: Option<&StallInjector>,
        sink: &mut E,
    ) {
        if let Some(inj) = injector {
            inj.poll(links);
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
                    if !self.try_deliver(&flit, link, links, injector, sink) {
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
                || !self.try_deliver_popped(&flit, link, links, injector, sink)
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

    /// Fail-stop pump for a flusher whose sink is gone (it unwound,
    /// DESIGN.md §14.4): every pending flit and everything in the ring
    /// is dead-lettered, whatever its link's state — credits return,
    /// so the worker keeps serving and can drain. Progress shows in
    /// [`take_dead_lettered`](Self::take_dead_lettered).
    pub fn dead_letter_all(&mut self, links: &LinkSet) {
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
    /// strand the flusher forever. Once the runtime is closed, the
    /// thread loop calls this to dead-letter every flit still held
    /// behind a dead link — the honest outcome when the downstream
    /// never came back. Returns the number dead-lettered.
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

/// Thread body: pumps `core` until `closed` is set *and* everything
/// buffered has been delivered. The runtime sets `closed` only after
/// the shard worker has exited and [`LinkSet::set_draining`] is on, so
/// exit implies no flit is stranded.
///
/// Flusher supervision (DESIGN.md §14.4): `core` is owned outside a
/// `catch_unwind` fence around the sink. A sink that unwinds is counted
/// in [`ShardEgressStats::flusher_panics`] and never called again; the
/// thread keeps pumping in fail-stop mode — everything the shard still
/// commits is dead-lettered, so credits keep returning and the worker
/// can drain — and re-raises the panic once closed and empty, so the
/// join reports it. A dead flusher never wedges a shutdown.
pub fn run_flusher<E: Egress>(
    mut core: FlusherCore,
    links: Arc<LinkSet>,
    injector: Option<Arc<StallInjector>>,
    closed: Arc<AtomicBool>,
    stats: Arc<ShardEgressStats>,
    progress: Arc<FlushProgress>,
    mut sink: E,
) {
    let inj = injector.as_deref();
    core.register_sleeper();
    let fenced = std::panic::AssertUnwindSafe(|| {
        pump(&mut core, &links, &closed, &stats, &progress, |core| {
            core.step(&links, inj, &mut sink);
        })
    });
    if let Err(payload) = std::panic::catch_unwind(fenced) {
        stats.flusher_panics.fetch_add(1, Ordering::Relaxed);
        pump(&mut core, &links, &closed, &stats, &progress, |core| {
            core.dead_letter_all(&links)
        });
        std::panic::resume_unwind(payload);
    }
}

/// The flusher loop around one `step`: settle it (what a step that
/// unwound delivered shows up in the next round's count), idle when
/// nothing moved, exit once closed and empty.
fn pump(
    core: &mut FlusherCore,
    links: &LinkSet,
    closed: &AtomicBool,
    stats: &ShardEgressStats,
    progress: &FlushProgress,
    mut step: impl FnMut(&mut FlusherCore),
) {
    let mut backoff = BACKOFF_FLOOR;
    loop {
        step(core);
        let (n, dead) = core.settle(links, stats, progress);
        if n > 0 || dead > 0 {
            backoff = BACKOFF_FLOOR;
            continue;
        }
        // Nothing deliverable and the worker is gone: whatever is
        // still pending behind a dead HoldForRecovery link is
        // dead-lettered so shutdown terminates (§9.3).
        // ordering: Acquire pairs with the runtime's Release
        // `egress_closed` store at shutdown (err-runtime
        // drain_within) — the one-way "workers are gone" latch.
        // [pair: egress-closed @ crates/err-runtime/src/lib.rs]
        if closed.load(Ordering::Acquire) && core.finish(links) {
            return;
        }
        stats.flusher_idle_rounds.fetch_add(1, Ordering::Relaxed);
        // Idle: a couple of looks, then sleep until the worker's next
        // batch wakes us. A poll's timeout backs off exponentially
        // from BACKOFF_FLOOR to BACKOFF_CAP, so a sink refusing for
        // seconds costs one offer per BACKOFF_CAP.
        let (how, polled) = core.idle(links, closed, backoff);
        if how == Sleep::Ready {
            continue;
        }
        stats.flusher_parks.fetch_add(1, Ordering::Relaxed);
        if how == Sleep::TimedOut {
            stats.flusher_park_timeouts.fetch_add(1, Ordering::Relaxed);
        }
        if polled {
            backoff = (backoff * 2).min(BACKOFF_CAP);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spsc::spsc_ring;

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
        // another thread while the closed flusher is finalizing must
        // leave every flit either delivered or dead-lettered — never
        // stranded — and every credit returned.
        for round in 0..50u64 {
            let links = Arc::new(LinkSet::with_fault_policy(
                1,
                16,
                None,
                DeadLinkPolicy::HoldForRecovery,
            ));
            let closed = Arc::new(AtomicBool::new(false));
            let stats = Arc::new(ShardEgressStats::default());
            let progress = Arc::new(FlushProgress::default());
            let (mut tx, rx) = spsc_ring(32);
            let wake = rx.wake_cell();
            let core = FlusherCore::new(0, rx, 1);
            let out = Arc::new(std::sync::Mutex::new(Vec::new()));
            let sink = {
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
                let (stats, progress) = (Arc::clone(&stats), Arc::clone(&progress));
                std::thread::spawn(move || {
                    run_flusher(core, links, None, closed, stats, progress, sink)
                })
            };
            // Jitter the interleaving: closed first, resurrect racing
            // the finalize that close triggers.
            closed.store(true, Ordering::Release);
            wake.wake();
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
    fn run_flusher_drains_and_exits() {
        let links = Arc::new(LinkSet::new(2, 64));
        let closed = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ShardEgressStats::default());
        let (mut tx, rx) = spsc_ring(64);
        let wake = rx.wake_cell();
        let core = FlusherCore::new(3, rx, 2);
        let out = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = {
            let out = Arc::clone(&out);
            move |s: usize, f: &ServedFlit| out.lock().unwrap().push((s, f.packet))
        };
        let progress = Arc::new(FlushProgress::default());
        let h = {
            let links = Arc::clone(&links);
            let closed = Arc::clone(&closed);
            let stats = Arc::clone(&stats);
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || {
                run_flusher(core, links, None, closed, stats, progress, sink)
            })
        };
        for i in 0..100u64 {
            links.try_acquire((i % 2) as usize);
            let mut f = flit((i % 2) as usize, i, 0, 1);
            loop {
                match tx.push(f) {
                    Ok(()) => break,
                    Err(back) => {
                        f = back;
                        std::thread::yield_now();
                    }
                }
            }
        }
        // The shutdown protocol: latch, then wake the flusher's cell.
        closed.store(true, Ordering::Release);
        wake.wake();
        h.join().unwrap();
        let out = out.lock().unwrap();
        assert_eq!(out.len(), 100, "no flit stranded");
        assert!(out.iter().all(|&(s, _)| s == 3), "shard id propagated");
        assert_eq!(stats.snapshot().flushed_flits, 100);
        assert_eq!(links.flush_clock(), 100);
        assert_eq!(
            progress.retired(),
            100,
            "watermark reaches the full pop count once everything retired"
        );
    }

    #[test]
    fn thaw_wakes_a_flusher_asleep_over_pending_flits() {
        // A flit pending behind a frozen link waits for the thaw, and
        // the thaw is announced: the flusher's covered sleep must end
        // by `release_stall`'s wake, not by its 10 ms backstop.
        let mut links = LinkSet::new(1, 8);
        let (mut tx, rx) = spsc_ring(16);
        links.set_flusher_wakes(vec![rx.wake_cell()]);
        let links = Arc::new(links);
        let closed = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ShardEgressStats::default());
        let delivered = Arc::new(AtomicU64::new(0));
        let flusher = {
            let (links, closed, stats) =
                (Arc::clone(&links), Arc::clone(&closed), Arc::clone(&stats));
            let delivered = Arc::clone(&delivered);
            let sink = move |_s: usize, _f: &ServedFlit| {
                delivered.fetch_add(1, Ordering::Release);
            };
            let core = FlusherCore::new(0, rx, 1);
            let progress = Arc::new(FlushProgress::default());
            std::thread::spawn(move || {
                run_flusher(core, links, None, closed, stats, progress, sink)
            })
        };
        let woken = || {
            let s = stats.snapshot();
            s.flusher_parks - s.flusher_park_timeouts
        };
        const ROUNDS: u64 = 10;
        let mut woken_by_thaw = 0;
        for round in 0..ROUNDS {
            links.freeze(0);
            assert!(links.try_acquire(0));
            tx.push(flit(0, round, 0, 1)).unwrap();
            tx.wake_consumer();
            // Long enough to pop the flit, find the link frozen, spin
            // and park; far shorter than the backstop.
            std::thread::sleep(std::time::Duration::from_millis(3));
            let before = woken();
            links.release_stall(0);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
            while delivered.load(Ordering::Acquire) <= round {
                assert!(
                    std::time::Instant::now() < deadline,
                    "round {round}: stranded"
                );
                std::thread::yield_now();
            }
            woken_by_thaw += u64::from(woken() > before);
        }
        closed.store(true, Ordering::Release);
        links.wake_flushers();
        flusher.join().unwrap();
        // The thaw can catch the flusher between two parks; it cannot
        // do so round after round.
        assert!(
            woken_by_thaw >= ROUNDS / 2,
            "the thaw ended the flusher's park in only {woken_by_thaw} of {ROUNDS} rounds"
        );
    }

    #[test]
    fn a_refused_flit_is_offered_again_per_park_not_per_spin() {
        // One flit behind an open link, a sink that refuses it for
        // 50 ms, nothing else pushed: the flusher polls (DESIGN.md §7),
        // and every offer but the first must follow a park — a wake or
        // a back-off expiry — never a look of the idle spin.
        struct Refusing {
            until: std::time::Instant,
            calls: Arc<AtomicU64>,
        }
        impl Egress for Refusing {
            fn emit(&mut self, _shard: usize, _flit: &ServedFlit) {
                unreachable!("the flusher delivers through `try_emit`");
            }
            fn try_emit(&mut self, _shard: usize, _flit: &ServedFlit) -> bool {
                self.calls.fetch_add(1, Ordering::Relaxed);
                std::time::Instant::now() >= self.until
            }
        }
        let links = Arc::new(LinkSet::new(1, 8));
        let closed = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ShardEgressStats::default());
        let calls = Arc::new(AtomicU64::new(0));
        let (mut tx, rx) = spsc_ring(16);
        let wake = rx.wake_cell();
        let sink = Refusing {
            until: std::time::Instant::now() + std::time::Duration::from_millis(50),
            calls: Arc::clone(&calls),
        };
        let flusher = {
            let (links, closed, stats) =
                (Arc::clone(&links), Arc::clone(&closed), Arc::clone(&stats));
            let core = FlusherCore::new(0, rx, 1);
            let progress = Arc::new(FlushProgress::default());
            std::thread::spawn(move || {
                run_flusher(core, links, None, closed, stats, progress, sink)
            })
        };
        assert!(links.try_acquire(0));
        tx.push(flit(0, 0, 0, 1)).unwrap();
        tx.wake_consumer();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while stats.snapshot().flushed_flits == 0 {
            assert!(std::time::Instant::now() < deadline, "never delivered");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        closed.store(true, Ordering::Release);
        wake.wake();
        flusher.join().unwrap();
        let (calls, s) = (calls.load(Ordering::Relaxed), stats.snapshot());
        assert!(
            calls > 10,
            "a refused flit is polled, not slept on: {calls} offers"
        );
        assert!(
            calls <= s.flusher_parks + 2,
            "{calls} offers over {} parks: a refused flit was re-offered from the spin",
            s.flusher_parks
        );
        assert!(s.flusher_idle_rounds >= s.flusher_parks, "{s:?}");
        assert_eq!(links.snapshot()[0].credits_available, 8);
    }

    #[test]
    fn progress_watermark_holds_while_flits_pend() {
        // A frozen link keeps popped flits pending; the watermark must
        // not advance past the last pending-free instant, even though
        // the pop count has (§8.7 — the fence would otherwise declare
        // an undelivered flit retired).
        let links = LinkSet::new(2, 8);
        let progress = FlushProgress::default();
        let (mut tx, rx) = spsc_ring(16);
        let mut core = FlusherCore::new(0, rx, 2);
        let mut sink = |_s: usize, _f: &ServedFlit| {};
        links.try_acquire(0);
        tx.push(flit(0, 0, 0, 1)).unwrap();
        core.step(&links, None, &mut sink);
        core.publish_progress(&progress);
        assert_eq!(progress.retired(), 1);
        links.freeze(1);
        links.try_acquire(1);
        tx.push(flit(1, 1, 0, 1)).unwrap();
        links.try_acquire(0);
        tx.push(flit(0, 2, 0, 1)).unwrap();
        core.step(&links, None, &mut sink);
        core.publish_progress(&progress);
        assert_eq!(core.popped(), 3);
        assert_eq!(
            progress.retired(),
            1,
            "pending flit on link 1 pins the watermark"
        );
        links.release_stall(1);
        core.step(&links, None, &mut sink);
        core.publish_progress(&progress);
        assert_eq!(progress.retired(), 3, "thaw releases the watermark");
    }
}

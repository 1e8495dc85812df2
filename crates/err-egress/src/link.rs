//! Per-link credit counters, stall flags, and the stall watchdog.
//!
//! This is the wormhole virtual-channel flow-control model: a link
//! advertises `credits` flit buffers; the sender (a shard worker)
//! takes a grant of credits before it serves the link and spends one
//! per flit it commits to egress, and the receiver (the flusher,
//! standing in for the downstream router) returns the credits of the
//! flits it actually delivered. A stalled link simply
//! stops returning credits, so the backpressure a slow downstream can
//! exert is bounded by the credit pool — exactly the regime the paper
//! assumes when it argues that "a packet which has begun transmission
//! may be stalled due to lack of buffer space downstream" must not
//! freeze the scheduler (§1).
//!
//! All state is atomic: workers acquire credits and, stepping their
//! flusher cores, release them — across shards, since the set is
//! shared — and a fault plan or an
//! [`EgressController`](crate::EgressController) freezes links, each
//! from its own thread without locks on the fast path. Time is the
//! **flush clock** — the total number of flits delivered across all
//! links — not wall time, so stall durations are deterministic and
//! reproducible. It advances when delivered credits return, by the
//! batch ([`LinkSet::credit_delivered`]), so it is exact at every
//! flusher step boundary and may lag inside a step.

// Atomics route through the loom shim so the model suite can check
// the liveness-flag and flush-clock edges.
use crate::sync::{AtomicBool, AtomicU64, Ordering};

use serde::Serialize;

use crate::credit::CreditPool;
use crate::wake::WakeCell;

/// Lifecycle state of a downstream link (DESIGN.md §9.3).
///
/// `Alive → Stalled ⇄ Alive` is the freeze/thaw watchdog cycle; a
/// link with outstanding credits whose credit returns stop for
/// [`dead_link_deadline`](crate::BufferedConfig::dead_link_deadline)
/// flush-clock cycles is declared `Dead` and only
/// [`resurrect`](LinkSet::resurrect) revives it — unlike a stall,
/// drain mode does not override death.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum LinkState {
    /// Delivering normally.
    Alive,
    /// Administratively frozen (stall injection); drain mode overrides.
    Stalled,
    /// Declared dead by the credit-return deadline (or
    /// [`LinkSet::declare_dead`]); handled per [`DeadLinkPolicy`].
    Dead,
}

/// What happens to flits bound for a [`LinkState::Dead`] link
/// (DESIGN.md §9.3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub enum DeadLinkPolicy {
    /// The dead link becomes an accounted blackhole: its flits are
    /// dead-lettered ([`LinkSnapshot::dead_letter_flits`]), credits
    /// return, and the link's flows keep being scheduled at full rate.
    #[default]
    DropAndAccount,
    /// Pending flits are held and credits stay exhausted, so the
    /// link's flows park (§7) and nothing is lost; a
    /// [`resurrect`](LinkSet::resurrect) delivers the held flits and
    /// revives the link. Flits still held at shutdown are
    /// dead-lettered then.
    HoldForRecovery,
}

/// Counters of one downstream link.
struct Link {
    /// The link's credit pool (available credits + outstanding peak).
    credits: CreditPool,
    /// Whether the downstream is refusing flits.
    stalled: AtomicBool,
    /// Flush-clock reading when the current stall began (valid while
    /// `stalled`).
    stall_began: AtomicU64,
    /// Stalls observed so far (frozen at least once).
    stall_events: AtomicU64,
    /// Longest completed stall, in flush-clock cycles.
    max_stall_cycles: AtomicU64,
    /// Flits delivered downstream on this link.
    delivered: AtomicU64,
    /// Whether the link has been declared dead (DESIGN.md §9.3).
    dead: AtomicBool,
    /// Latest flush-clock reading at a credit return (delivery or
    /// dead-letter); the deadline watchdog measures from here. Kept
    /// only on a set with a deadline, and never moved backwards.
    last_credit_return: AtomicU64,
    /// Flits dead-lettered on this link (dropped into the ledger
    /// instead of delivered).
    dead_letters: AtomicU64,
    /// Times this link was declared dead.
    deaths: AtomicU64,
    /// Times this link was resurrected.
    resurrections: AtomicU64,
    /// Flits delivered out of a death-held backlog after a resurrect
    /// (DESIGN.md §14.2) — the replay half of
    /// [`DeadLinkPolicy::HoldForRecovery`].
    replayed: AtomicU64,
    /// Stalls completed so far, and their summed durations in
    /// flush-clock cycles: the watchdog's mean. Two relaxed counters,
    /// so a snapshot racing a release may pair one with the other's
    /// older value; after a drain they agree.
    stalls_completed: AtomicU64,
    stall_cycles: AtomicU64,
}

impl Link {
    fn new(credits: u64) -> Self {
        Self {
            credits: CreditPool::new(credits),
            stalled: AtomicBool::new(false),
            stall_began: AtomicU64::new(0),
            stall_events: AtomicU64::new(0),
            max_stall_cycles: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            last_credit_return: AtomicU64::new(0),
            dead_letters: AtomicU64::new(0),
            deaths: AtomicU64::new(0),
            resurrections: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            stalls_completed: AtomicU64::new(0),
            stall_cycles: AtomicU64::new(0),
        }
    }
}

/// Point-in-time view of one link's counters.
#[derive(Clone, Debug, Serialize)]
pub struct LinkSnapshot {
    /// Flits delivered downstream.
    pub delivered_flits: u64,
    /// Credits available at snapshot time.
    pub credits_available: u64,
    /// Peak credits outstanding at once.
    pub outstanding_peak: u64,
    /// Number of stalls that began on this link.
    pub stall_events: u64,
    /// Longest completed stall in flush-clock cycles.
    pub max_stall_cycles: u64,
    /// Mean completed-stall duration in flush-clock cycles.
    pub mean_stall_cycles: f64,
    /// Completed stalls recorded by the watchdog.
    pub stalls_completed: u64,
    /// Lifecycle state at snapshot time (DESIGN.md §9.3).
    pub state: LinkState,
    /// Flits dead-lettered instead of delivered.
    pub dead_letter_flits: u64,
    /// Times the link was declared dead.
    pub deaths: u64,
    /// Times the link was resurrected.
    pub resurrections: u64,
    /// Flits delivered out of a death-held backlog after a resurrect
    /// (DESIGN.md §14.2).
    pub replayed: u64,
}

/// The set of downstream links shared by every shard's egress path.
///
/// Flows are mapped to links statically: `link = flow % n_links`, or by
/// an optional flow-indexed routing table (DESIGN.md §11.1 — the fabric
/// compiles one per node from its topology). Either way the mapping is
/// fixed for the run, matching the wormhole setting, where a flow is a
/// (source, destination) stream whose packets all traverse the same
/// output channel at a given switch.
pub struct LinkSet {
    links: Vec<Link>,
    credits_per_link: u64,
    /// Flow→link override; flows past its end use the modulo rule.
    route_table: Option<std::sync::Arc<[u32]>>,
    /// While draining, `blocked` reports false so buffered flits can
    /// reach the sink even through a frozen link (conservation at
    /// shutdown outranks stall fidelity).
    draining: AtomicBool,
    /// Total flits delivered across all links — the deterministic clock
    /// that stall schedules and watchdog durations are measured on.
    flush_clock: AtomicU64,
    /// Flush-clock cycles without a credit return (while credits are
    /// outstanding) after which a link is declared dead; `None`
    /// disables the deadline watchdog.
    dead_deadline: Option<u64>,
    /// What the flusher does with a dead link's flits.
    policy: DeadLinkPolicy,
    /// The wake cell of every shard worker that acquires credits here
    /// and steps a flusher core past these links. The set is shared
    /// across shards, so any worker's credit return may be the one a
    /// parked worker of another shard waits for; and a flit pending
    /// behind a blocked link waits for that link to open, which whoever
    /// opens it announces ([`wake_workers`](Self::wake_workers)).
    credit_waiters: Vec<std::sync::Arc<WakeCell>>,
    /// A credit went back into an *empty* pool since the waiters were
    /// last woken: only then can a worker be parked for lack of one.
    relieved: AtomicBool,
}

impl LinkSet {
    /// Creates `n_links` links, each with `credits` credits, with the
    /// dead-link watchdog disabled.
    pub fn new(n_links: usize, credits: u64) -> Self {
        Self::with_fault_policy(n_links, credits, None, DeadLinkPolicy::default())
    }

    /// Creates `n_links` links with a dead-link deadline and policy
    /// (DESIGN.md §9.3).
    pub fn with_fault_policy(
        n_links: usize,
        credits: u64,
        dead_deadline: Option<u64>,
        policy: DeadLinkPolicy,
    ) -> Self {
        Self::with_routing(n_links, credits, dead_deadline, policy, None)
    }

    /// Creates `n_links` links with a fault policy and an optional
    /// flow→link routing table (DESIGN.md §11.1). Every table entry
    /// must name an existing link.
    pub fn with_routing(
        n_links: usize,
        credits: u64,
        dead_deadline: Option<u64>,
        policy: DeadLinkPolicy,
        route_table: Option<std::sync::Arc<[u32]>>,
    ) -> Self {
        assert!(n_links > 0, "need at least one link");
        assert!(credits > 0, "need at least one credit per link");
        if let Some(table) = &route_table {
            assert!(
                table.iter().all(|&l| (l as usize) < n_links),
                "route table names a link >= n_links"
            );
        }
        Self {
            links: (0..n_links).map(|_| Link::new(credits)).collect(),
            credits_per_link: credits,
            route_table,
            draining: AtomicBool::new(false),
            flush_clock: AtomicU64::new(0),
            dead_deadline,
            policy,
            credit_waiters: Vec::new(),
            relieved: AtomicBool::new(false),
        }
    }

    /// Installs the workers' wake cells (one per shard) before the set
    /// is shared; [`wake_credit_waiters`](Self::wake_credit_waiters)
    /// reaches exactly these.
    pub fn set_credit_waiters(&mut self, waiters: Vec<std::sync::Arc<WakeCell>>) {
        self.credit_waiters = waiters;
    }

    /// Unparks every worker, unconditionally. Every transition that
    /// lets a pending flit move calls it after publishing itself — a
    /// thaw, a death (dead-letter), a resurrect, drain mode — and a
    /// worker's park re-check reads all of them.
    pub fn wake_workers(&self) {
        for cell in &self.credit_waiters {
            cell.wake();
        }
    }

    /// Unparks the sleeping workers if some pool left empty since the
    /// last call — a worker is credit-starved only on a pool it found
    /// empty, so returns into a pool that still had credits wake
    /// nobody. Every credit-returner calls it after its returns — a
    /// worker once per flusher step, and once per service chunk that
    /// gave back unused grant — never per flit.
    pub fn wake_credit_waiters(&self) {
        // ordering: Acquire load, AcqRel swap — whoever consumes the
        // mark acquires the marker's credit return, so the wake below
        // publishes it to the woken worker's re-check even when another
        // thread returned the credit. A mark this load misses is seen
        // by the returner that set it, after its own returns.
        // [pair: credit-relieved @ self]
        if self.relieved.load(Ordering::Acquire) && self.relieved.swap(false, Ordering::AcqRel) {
            for cell in &self.credit_waiters {
                cell.wake();
            }
        }
    }

    /// Returns `n` credits to `link`'s pool — a flusher's delivered
    /// tally, or the part of a worker's grant it did not spend —
    /// marking the set relieved when the pool had run empty. The
    /// caller follows up with [`wake_credit_waiters`].
    ///
    /// [`wake_credit_waiters`]: LinkSet::wake_credit_waiters
    pub fn return_credits(&self, link: usize, n: u64) {
        if self.links[link].credits.release_n(n) {
            // ordering: Release — sequenced after the credit return it
            // vouches for; see `wake_credit_waiters`.
            // [pair: credit-relieved @ self]
            self.relieved.store(true, Ordering::Release);
        }
    }

    /// Gives back what a worker did not spend of its grants
    /// (`grants[link]` credits in hand, zeroed here) and, like any
    /// credit-returner, wakes the workers starved on a pool the grant
    /// had emptied.
    pub fn return_grants(&self, grants: &mut [u64]) {
        let mut returned = false;
        for (link, grant) in grants.iter_mut().enumerate() {
            if *grant > 0 {
                self.return_credits(link, std::mem::take(grant));
                returned = true;
            }
        }
        if returned {
            self.wake_credit_waiters();
        }
    }

    /// Whether `link` has a credit to take right now (racy; the
    /// worker's pre-park re-check, not a reservation).
    pub fn has_credit(&self, link: usize) -> bool {
        self.links[link].credits.available() > 0
    }

    /// The configured dead-link policy.
    pub fn policy(&self) -> DeadLinkPolicy {
        self.policy
    }

    /// Number of links.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Credits each link starts with.
    pub fn credits_per_link(&self) -> u64 {
        self.credits_per_link
    }

    /// The link that carries `flow`: the routing table's entry when one
    /// is installed (falling back to modulo past its end), else
    /// `flow % n_links`.
    pub fn route(&self, flow: usize) -> usize {
        if let Some(table) = &self.route_table {
            if let Some(&link) = table.get(flow) {
                return link as usize;
            }
        }
        flow % self.links.len()
    }

    /// Current flush-clock reading (total delivered flits).
    pub fn flush_clock(&self) -> u64 {
        // ordering: Acquire pairs with the AcqRel clock advance in
        // `credit_delivered` — a reader at clock `t` observes every
        // delivery that produced ticks ≤ `t`.
        // [pair: flush-clock @ self]
        self.flush_clock.load(Ordering::Acquire)
    }

    /// Takes a grant on `link`: up to `want` credits in one CAS,
    /// returning how many (`min(available, want)`). Zero means the
    /// pool is exhausted — the caller must not serve a flit of this
    /// link until credits return. What the caller does not spend it
    /// gives back with [`return_credits`](Self::return_credits).
    pub fn acquire(&self, link: usize, want: u64) -> u64 {
        let l = &self.links[link];
        let idle = self.dead_deadline.is_some() && l.credits.outstanding() == 0;
        let got = l.credits.acquire(want);
        if idle && got > 0 {
            // The downstream owes nothing while no credit is out: the
            // dead-link deadline runs from the first credit taken, not
            // from the last return of an earlier busy period.
            // ordering: Acquire — flush-clock pairing as in
            // `flush_clock()`.
            self.stamp_credit_return(l, self.flush_clock.load(Ordering::Acquire));
        }
        got
    }

    /// Tries to take one credit on `link`: the one-credit case of
    /// [`acquire`](Self::acquire).
    pub fn try_acquire(&self, link: usize) -> bool {
        self.acquire(link, 1) == 1
    }

    /// Stamps a credit return on `l` at flush-clock reading `clock`.
    /// The stamp only moves forward: two flushers tick the shared clock
    /// and then stamp, and the one that ticked first may stamp last, so
    /// a plain store could put a link that is still delivering back
    /// behind the deadline. Only the deadline watchdog reads the stamp,
    /// so a set without a deadline keeps none.
    fn stamp_credit_return(&self, l: &Link, clock: u64) {
        if self.dead_deadline.is_some() {
            l.last_credit_return.fetch_max(clock, Ordering::Relaxed);
        }
    }

    /// Records `n` flits delivered downstream on `link`: advances the
    /// flush clock by `n`, stamps the credit return, and returns their
    /// credits. Returns the new clock reading. The flusher tallies
    /// deliveries per link and calls this per batch, never per flit;
    /// every tally is back before its step returns, so the clock is
    /// exact at every step boundary.
    pub fn credit_delivered(&self, link: usize, n: u64) -> u64 {
        // ordering: AcqRel — Release publishes these deliveries to the
        // Acquire readers (`flush_clock()`, the watchdog, the deadline
        // poll); Acquire chains the other flushers' advances so the
        // clock is a consistent total count.
        // [pair: flush-clock @ self]
        let clock = self.flush_clock.fetch_add(n, Ordering::AcqRel) + n;
        let l = &self.links[link];
        self.stamp_credit_return(l, clock);
        l.delivered.fetch_add(n, Ordering::Relaxed);
        self.return_credits(link, n);
        clock
    }

    /// Records one flit delivered downstream on `link`: the one-flit
    /// case of [`credit_delivered`](Self::credit_delivered).
    pub fn on_delivered(&self, link: usize) -> u64 {
        self.credit_delivered(link, 1)
    }

    /// Records that a flit just delivered on `link` had been held
    /// through a death window ([`DeadLinkPolicy::HoldForRecovery`]) and
    /// was replayed after a [`resurrect`](LinkSet::resurrect). Called
    /// by the flusher, after the matching delivery — replays are a
    /// subset of deliveries, not a separate clock.
    pub(crate) fn on_replayed(&self, link: usize) {
        self.links[link].replayed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a flit finally *not* delivered on a dead `link`: the
    /// flit is dead-lettered, its credit returns so the scheduler side
    /// keeps moving, and the flush clock does **not** advance (the
    /// clock counts real deliveries). Called by the flusher only.
    pub fn on_dead_letter(&self, link: usize) {
        let l = &self.links[link];
        l.dead_letters.fetch_add(1, Ordering::Relaxed);
        self.return_credits(link, 1);
        // ordering: Acquire — same flush-clock pairing as
        // `flush_clock()` (reads the clock without advancing it).
        self.stamp_credit_return(l, self.flush_clock.load(Ordering::Acquire));
    }

    /// Whether `link` currently refuses flits. A stall stops blocking
    /// while draining; a dead link under
    /// [`DeadLinkPolicy::HoldForRecovery`] blocks even then (drain must
    /// not pretend an absent downstream returned — its held flits are
    /// dead-lettered at the worker's exit instead).
    pub fn blocked(&self, link: usize) -> bool {
        let l = &self.links[link];
        // ordering: Acquire pairs with the AcqRel `dead` swap in
        // `declare_dead`/`resurrect` — a worker that sees the verdict
        // is ordered after the watchdog's bookkeeping.
        if l.dead.load(Ordering::Acquire) {
            return self.policy == DeadLinkPolicy::HoldForRecovery;
        }
        // ordering: Acquire on both flags — pairs with the AcqRel
        // `stalled` swap in `freeze`/`release_stall` and the Release
        // `draining` store in `set_draining`.
        l.stalled.load(Ordering::Acquire) && !self.draining.load(Ordering::Acquire)
    }

    /// Whether `link` has been declared dead.
    pub fn is_dead(&self, link: usize) -> bool {
        // ordering: Acquire pairs with the AcqRel `dead` swap in
        // `declare_dead`/`resurrect`.
        self.links[link].dead.load(Ordering::Acquire)
    }

    /// Lifecycle state of `link`. Death shadows a stall: a dead link
    /// reports [`LinkState::Dead`] even if the stall flag is still set.
    pub fn state(&self, link: usize) -> LinkState {
        let l = &self.links[link];
        // ordering: Acquire on both flags — `is_dead`'s pairing, and the
        // AcqRel `stalled` swap in `freeze`/`release_stall`.
        if l.dead.load(Ordering::Acquire) {
            LinkState::Dead
        } else if l.stalled.load(Ordering::Acquire) {
            LinkState::Stalled
        } else {
            LinkState::Alive
        }
    }

    /// Declares `link` dead (DESIGN.md §9.3). Idempotent: a link that
    /// is already dead records no second death.
    pub fn declare_dead(&self, link: usize) {
        let l = &self.links[link];
        // ordering: AcqRel — Release publishes the verdict to the
        // Acquire readers (`blocked`, `is_dead`, `state`); Acquire
        // orders a re-declaration after a racing `resurrect`.
        if !l.dead.swap(true, Ordering::AcqRel) {
            l.deaths.fetch_add(1, Ordering::Relaxed);
            self.wake_workers();
        }
    }

    /// Revives a dead `link`. The deadline watchdog is re-armed from
    /// the current flush-clock reading so the link is not immediately
    /// re-declared dead for credits that were outstanding while it was
    /// down. A no-op on a live link.
    pub fn resurrect(&self, link: usize) {
        let l = &self.links[link];
        // ordering: AcqRel — mirror of `declare_dead`'s swap.
        if l.dead.swap(false, Ordering::AcqRel) {
            // ordering: Acquire — flush-clock pairing as in
            // `flush_clock()` (re-arms the deadline from "now").
            self.stamp_credit_return(l, self.flush_clock.load(Ordering::Acquire));
            l.resurrections.fetch_add(1, Ordering::Relaxed);
            self.wake_workers();
        }
    }

    /// Deadline watchdog (DESIGN.md §9.3): declares dead every live
    /// link that has credits outstanding and has returned none for more
    /// than `dead_deadline` flush-clock cycles. Returns the links
    /// declared dead by this poll. Called by the flusher on its idle /
    /// post-burst path; a no-op when no deadline is configured.
    pub fn poll_deadlines(&self) -> Vec<usize> {
        let Some(deadline) = self.dead_deadline else {
            return Vec::new();
        };
        // ordering: Acquire — flush-clock pairing as in
        // `flush_clock()`; deadlines are judged on a clock no newer
        // than any credit-return timestamp read below.
        let clock = self.flush_clock.load(Ordering::Acquire);
        let mut died = Vec::new();
        for (link, l) in self.links.iter().enumerate() {
            // ordering: Acquire — pairs with the AcqRel `dead` swaps.
            if l.dead.load(Ordering::Acquire) {
                continue;
            }
            let outstanding = l.credits.outstanding();
            if outstanding == 0 {
                continue;
            }
            let last = l.last_credit_return.load(Ordering::Relaxed);
            if clock.saturating_sub(last) > deadline {
                self.declare_dead(link);
                died.push(link);
            }
        }
        died
    }

    /// Freezes `link`: delivery stops until [`release_stall`]. A no-op
    /// if already frozen. The watchdog timestamps the stall on the
    /// flush clock, which inside a running step lags its unreturned
    /// tallies, so a stall's duration is exact only to within them.
    ///
    /// [`release_stall`]: LinkSet::release_stall
    pub fn freeze(&self, link: usize) {
        let l = &self.links[link];
        // ordering: AcqRel — Release publishes the freeze to `blocked`
        // Acquire readers; Acquire orders this freeze after a racing
        // release's watchdog writes.
        if l.stalled.swap(true, Ordering::AcqRel) {
            return;
        }
        // ordering: Release `stall_began` pairs with the Acquire load
        // in `release_stall`; the clock load is the `flush_clock()`
        // pairing.
        l.stall_began
            .store(self.flush_clock.load(Ordering::Acquire), Ordering::Release);
        l.stall_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Releases a frozen `link` and records the stall duration (in
    /// flush-clock cycles) with the watchdog. A no-op if not frozen.
    pub fn release_stall(&self, link: usize) {
        let l = &self.links[link];
        // ordering: AcqRel — mirror of `freeze`'s swap; the Acquire
        // half orders this thaw after the freezer's `stall_began`
        // store.
        if !l.stalled.swap(false, Ordering::AcqRel) {
            return;
        }
        // ordering: Acquire pairs with the Release `stall_began` store
        // in `freeze`; the clock load is the `flush_clock()` pairing.
        let began = l.stall_began.load(Ordering::Acquire);
        let dur = self
            .flush_clock
            .load(Ordering::Acquire)
            .saturating_sub(began);
        l.max_stall_cycles.fetch_max(dur, Ordering::Relaxed);
        l.stall_cycles.fetch_add(dur, Ordering::Relaxed);
        l.stalls_completed.fetch_add(1, Ordering::Relaxed);
        self.wake_workers();
    }

    /// Releases every still-open stall (shutdown: closes the watchdog
    /// windows so its counts account for stalls that never ended).
    pub fn release_all_stalls(&self) {
        for link in 0..self.links.len() {
            self.release_stall(link);
        }
    }

    /// Enters drain mode: frozen links stop blocking so buffered flits
    /// can reach the sink.
    pub fn set_draining(&self, draining: bool) {
        // ordering: Release pairs with the Acquire `draining` load in
        // `blocked` — a one-way (per drain) override latch.
        self.draining.store(draining, Ordering::Release);
        self.wake_workers();
    }

    /// Snapshots every link's counters.
    pub fn snapshot(&self) -> Vec<LinkSnapshot> {
        self.links
            .iter()
            .map(|l| {
                let stalls = l.stalls_completed.load(Ordering::Relaxed);
                let cycles = l.stall_cycles.load(Ordering::Relaxed);
                LinkSnapshot {
                    delivered_flits: l.delivered.load(Ordering::Relaxed),
                    credits_available: l.credits.available(),
                    outstanding_peak: l.credits.outstanding_peak(),
                    stall_events: l.stall_events.load(Ordering::Relaxed),
                    max_stall_cycles: l.max_stall_cycles.load(Ordering::Relaxed),
                    mean_stall_cycles: cycles as f64 / stalls.max(1) as f64,
                    stalls_completed: stalls,
                    // ordering: Acquire on both flags — same pairings
                    // as `state()`.
                    state: if l.dead.load(Ordering::Acquire) {
                        LinkState::Dead
                    } else if l.stalled.load(Ordering::Acquire) {
                        LinkState::Stalled
                    } else {
                        LinkState::Alive
                    },
                    dead_letter_flits: l.dead_letters.load(Ordering::Relaxed),
                    deaths: l.deaths.load(Ordering::Relaxed),
                    resurrections: l.resurrections.load(Ordering::Relaxed),
                    replayed: l.replayed.load(Ordering::Relaxed),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credits_bound_outstanding() {
        let links = LinkSet::new(2, 3);
        assert!(links.try_acquire(0));
        assert!(links.try_acquire(0));
        assert!(links.try_acquire(0));
        assert!(!links.try_acquire(0), "pool exhausted");
        assert!(links.try_acquire(1), "links are independent");
        links.on_delivered(0);
        assert!(links.try_acquire(0), "delivery returns the credit");
        let snap = links.snapshot();
        assert_eq!(snap[0].outstanding_peak, 3);
        assert_eq!(snap[0].delivered_flits, 1);
    }

    #[test]
    fn flush_clock_counts_deliveries() {
        let links = LinkSet::new(2, 8);
        assert_eq!(links.flush_clock(), 0);
        links.try_acquire(0);
        links.try_acquire(1);
        assert_eq!(links.on_delivered(0), 1);
        assert_eq!(links.on_delivered(1), 2);
        assert_eq!(links.flush_clock(), 2);
    }

    #[test]
    fn watchdog_measures_stall_on_flush_clock() {
        let links = LinkSet::new(2, 8);
        links.freeze(0);
        assert!(links.blocked(0));
        assert!(!links.blocked(1));
        // 5 flits flow through link 1 while link 0 is frozen.
        for _ in 0..5 {
            links.try_acquire(1);
            links.on_delivered(1);
        }
        links.release_stall(0);
        let snap = links.snapshot();
        assert_eq!(snap[0].stall_events, 1);
        assert_eq!(snap[0].max_stall_cycles, 5);
        assert_eq!(snap[0].stalls_completed, 1);
        assert!((snap[0].mean_stall_cycles - 5.0).abs() < 1e-9);
        // A second stall of 3 cycles: the mean is exact, (5 + 3) / 2.
        links.freeze(0);
        for _ in 0..3 {
            links.try_acquire(1);
            links.on_delivered(1);
        }
        links.release_stall(0);
        let snap = links.snapshot();
        assert_eq!((snap[0].stall_events, snap[0].stalls_completed), (2, 2));
        assert_eq!(snap[0].max_stall_cycles, 5);
        assert_eq!(snap[0].mean_stall_cycles, 4.0);
    }

    #[test]
    fn freeze_is_idempotent_release_closes_window() {
        let links = LinkSet::new(1, 4);
        links.freeze(0);
        links.freeze(0); // no second event
        links.release_stall(0);
        links.release_stall(0); // no second completion
        let snap = links.snapshot();
        assert_eq!(snap[0].stall_events, 1);
        assert_eq!(snap[0].stalls_completed, 1);
    }

    #[test]
    fn draining_unblocks_frozen_links() {
        let links = LinkSet::new(1, 4);
        links.freeze(0);
        assert!(links.blocked(0));
        links.set_draining(true);
        assert!(!links.blocked(0), "drain overrides the stall");
        assert_eq!(
            links.state(0),
            LinkState::Stalled,
            "the stall is still recorded"
        );
    }

    #[test]
    fn deadline_declares_dead_on_flush_clock() {
        let links = LinkSet::with_fault_policy(2, 4, Some(10), DeadLinkPolicy::DropAndAccount);
        // Link 0 has a credit outstanding and returns nothing.
        links.try_acquire(0);
        // Link 1 delivers 11 flits: clock reaches 11, link 0's last
        // return is still 0 → past the 10-cycle deadline.
        for _ in 0..11 {
            links.try_acquire(1);
            links.on_delivered(1);
        }
        assert_eq!(links.poll_deadlines(), vec![0]);
        assert_eq!(links.state(0), LinkState::Dead);
        assert_eq!(links.state(1), LinkState::Alive);
        assert!(links.poll_deadlines().is_empty(), "death is latched");
        let snap = links.snapshot();
        assert_eq!(snap[0].deaths, 1);
    }

    #[test]
    fn grant_on_a_long_idle_link_rearms_the_deadline() {
        let links = LinkSet::with_fault_policy(2, 4, Some(5), DeadLinkPolicy::DropAndAccount);
        // Link 0 last returned a credit at clock 1, then sat idle while
        // link 1 carried the clock far past the deadline.
        links.try_acquire(0);
        links.on_delivered(0);
        for _ in 0..20 {
            links.try_acquire(1);
            links.on_delivered(1);
        }
        // A worker takes a grant on link 0 and holds it, unused.
        assert_eq!(links.acquire(0, 3), 3);
        assert!(
            links.poll_deadlines().is_empty(),
            "the deadline runs from the grant, not from the old return"
        );
        links.return_credits(0, 3);
        assert_eq!(links.snapshot()[0].credits_available, 4);
        // Held past the deadline it is a silent downstream all right.
        assert_eq!(links.acquire(0, 1), 1);
        for _ in 0..6 {
            links.try_acquire(1);
            links.on_delivered(1);
        }
        assert_eq!(links.poll_deadlines(), vec![0]);
    }

    #[test]
    fn batched_calls_and_their_one_credit_cases_agree() {
        let links = LinkSet::new(1, 4);
        assert_eq!(links.acquire(0, 3), 3);
        assert!(links.try_acquire(0));
        assert!(!links.try_acquire(0));
        // Two deliveries come back as one batch, and the clock moves
        // with their credits; the third is the one-flit case.
        assert!(!links.has_credit(0));
        assert_eq!(links.credit_delivered(0, 2), 2);
        assert_eq!(links.flush_clock(), 2);
        assert_eq!(links.on_delivered(0), 3);
        let snap = links.snapshot();
        assert_eq!(snap[0].delivered_flits, 3);
        assert_eq!(snap[0].credits_available, 3);
        assert_eq!(snap[0].outstanding_peak, 4);
    }

    #[test]
    fn deadline_ignores_idle_links() {
        let links = LinkSet::with_fault_policy(1, 4, Some(2), DeadLinkPolicy::DropAndAccount);
        // No credits outstanding: the downstream owes nothing, so a
        // silent link is idle, not dead.
        assert!(links.poll_deadlines().is_empty());
        assert_eq!(links.state(0), LinkState::Alive);
    }

    #[test]
    fn dead_letter_returns_credit_without_advancing_clock() {
        let links = LinkSet::with_fault_policy(1, 2, None, DeadLinkPolicy::DropAndAccount);
        links.try_acquire(0);
        links.try_acquire(0);
        assert!(!links.try_acquire(0));
        links.declare_dead(0);
        links.on_dead_letter(0);
        assert!(links.try_acquire(0), "dead-letter returned the credit");
        assert_eq!(links.flush_clock(), 0, "clock counts real deliveries");
        let snap = links.snapshot();
        assert_eq!(snap[0].dead_letter_flits, 1);
        assert_eq!(snap[0].delivered_flits, 0);
    }

    #[test]
    fn drop_policy_does_not_block_dead_link() {
        let links = LinkSet::with_fault_policy(1, 4, None, DeadLinkPolicy::DropAndAccount);
        links.declare_dead(0);
        assert!(!links.blocked(0), "DropAndAccount keeps flows scheduled");
    }

    #[test]
    fn hold_policy_blocks_dead_link_even_while_draining() {
        let links = LinkSet::with_fault_policy(1, 4, None, DeadLinkPolicy::HoldForRecovery);
        links.declare_dead(0);
        assert!(links.blocked(0));
        links.set_draining(true);
        assert!(links.blocked(0), "drain does not override death");
        links.resurrect(0);
        assert!(!links.blocked(0));
    }

    #[test]
    fn declare_and_resurrect_are_idempotent() {
        let links = LinkSet::with_fault_policy(1, 4, Some(100), DeadLinkPolicy::HoldForRecovery);
        links.resurrect(0); // live link: no-op
        links.declare_dead(0);
        links.declare_dead(0);
        links.resurrect(0);
        links.resurrect(0);
        let snap = links.snapshot();
        assert_eq!(snap[0].deaths, 1);
        assert_eq!(snap[0].resurrections, 1);
        assert_eq!(snap[0].state, LinkState::Alive);
    }

    #[test]
    fn resurrect_rearms_the_deadline() {
        let links = LinkSet::with_fault_policy(2, 4, Some(5), DeadLinkPolicy::HoldForRecovery);
        links.try_acquire(0);
        for _ in 0..6 {
            links.try_acquire(1);
            links.on_delivered(1);
        }
        assert_eq!(links.poll_deadlines(), vec![0]);
        links.resurrect(0);
        // The credit is still outstanding, but the watchdog now measures
        // from the resurrection clock — no instant re-death.
        assert!(links.poll_deadlines().is_empty());
    }

    #[test]
    fn replayed_counts_are_per_link_and_snapshot() {
        let links = LinkSet::with_fault_policy(2, 4, None, DeadLinkPolicy::HoldForRecovery);
        links.on_replayed(1);
        links.on_replayed(1);
        let snap = links.snapshot();
        assert_eq!(snap[0].replayed, 0);
        assert_eq!(snap[1].replayed, 2);
    }

    #[test]
    fn release_all_closes_open_windows() {
        let links = LinkSet::new(3, 4);
        links.freeze(0);
        links.freeze(2);
        links.release_all_stalls();
        let snap = links.snapshot();
        assert_eq!(snap[0].stalls_completed, 1);
        assert_eq!(snap[1].stalls_completed, 0);
        assert_eq!(snap[2].stalls_completed, 1);
    }

    #[test]
    fn credit_waiters_wake_only_after_a_pool_ran_empty() {
        use crate::wake::Sleep;
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        let cell = Arc::new(WakeCell::new());
        let mut links = LinkSet::new(1, 2);
        links.set_credit_waiters(vec![Arc::clone(&cell)]);
        let links = Arc::new(links);

        // One credit out of two taken and returned, over and over: the
        // pool never runs empty, so nobody can be waiting on it and the
        // sleeper's short park must run to its timeout.
        assert!(links.try_acquire(0));
        let sleeper = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                cell.register();
                cell.sleep_unless(|| false, Duration::from_millis(30))
            })
        };
        let until = Instant::now() + Duration::from_millis(60);
        while Instant::now() < until {
            links.on_delivered(0);
            links.wake_credit_waiters();
            assert!(links.try_acquire(0));
        }
        assert_eq!(sleeper.join().expect("sleeper"), Sleep::TimedOut);

        // Pool exhausted: the next return is the one a starved worker
        // waits for. The sleeper's timeout is far beyond the test's
        // patience, so only the wake (or its own re-check) ends it.
        assert!(links.try_acquire(0));
        assert!(!links.has_credit(0));
        let sleeper = {
            let (cell, links) = (Arc::clone(&cell), Arc::clone(&links));
            std::thread::spawn(move || {
                cell.register();
                let t = Instant::now();
                let how = cell.sleep_unless(|| links.has_credit(0), Duration::from_secs(60));
                (how, t.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        links.on_delivered(0);
        links.wake_credit_waiters();
        let (how, took) = sleeper.join().expect("sleeper");
        assert_ne!(how, Sleep::TimedOut);
        assert!(
            took < Duration::from_secs(30),
            "ended by the wake: {took:?}"
        );
    }
}

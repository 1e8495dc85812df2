//! Deterministic stall injection.
//!
//! The paper's central premise is that wormhole downstreams stall
//! unpredictably — but a *test* of that regime must be perfectly
//! predictable, or failures can't be replayed. The injector therefore
//! schedules freeze/release events on the **flush clock** (total flits
//! delivered, see [`LinkSet::flush_clock`]) rather than wall time, and
//! draws randomized schedules from the workspace's seeded
//! [`SimRng`]: same seed, same stalls, same histograms,
//! on any machine at any load.

use std::sync::atomic::{AtomicUsize, Ordering};

use desim::SimRng;

use crate::link::LinkSet;

/// One stall: `link` freezes when the flush clock reaches `start` and
/// thaws once it reaches `start + duration`. A `duration` of
/// [`u64::MAX`] never thaws (an indefinitely dead downstream).
#[derive(Clone, Copy, Debug)]
pub struct StallWindow {
    /// Link to freeze.
    pub link: usize,
    /// Flush-clock reading at which the stall begins.
    pub start: u64,
    /// Stall length in flush-clock cycles; `u64::MAX` = forever.
    pub duration: u64,
}

/// An ordered schedule of stall windows.
#[derive(Clone, Debug, Default)]
pub struct StallPlan {
    windows: Vec<StallWindow>,
}

#[derive(Clone, Copy, Debug)]
struct Event {
    at: u64,
    link: usize,
    freeze: bool,
}

impl StallPlan {
    /// A plan from explicit windows.
    pub fn new(windows: Vec<StallWindow>) -> Self {
        Self { windows }
    }

    /// Freezes `link` at flush-clock `start`, forever.
    pub fn freeze_forever(link: usize, start: u64) -> Self {
        Self::new(vec![StallWindow {
            link,
            start,
            duration: u64::MAX,
        }])
    }

    /// A randomized plan: each link independently stalls at geometric
    /// intervals (per-cycle probability `stall_rate`), for uniformly
    /// distributed durations in `[min_dur, max_dur]`, over flush-clock
    /// horizon `horizon`. Deterministic in `rng`'s seed.
    pub fn from_rng(
        rng: &SimRng,
        n_links: usize,
        horizon: u64,
        stall_rate: f64,
        min_dur: u64,
        max_dur: u64,
    ) -> Self {
        assert!(min_dur <= max_dur);
        let mut windows = Vec::new();
        for link in 0..n_links {
            let mut r = rng.derive(0x57A1_1000 + link as u64);
            let mut t = 0u64;
            loop {
                t = t.saturating_add(r.geometric_gap(stall_rate));
                if t >= horizon {
                    break;
                }
                let dur = if min_dur == max_dur {
                    min_dur
                } else {
                    min_dur
                        + r.uniform_u32(0, (max_dur - min_dur).min(u32::MAX as u64) as u32) as u64
                };
                windows.push(StallWindow {
                    link,
                    start: t,
                    duration: dur,
                });
                // Next stall can only start after this one ends.
                t = t.saturating_add(dur).saturating_add(1);
            }
        }
        Self::new(windows)
    }

    /// The scheduled windows.
    pub fn windows(&self) -> &[StallWindow] {
        &self.windows
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    fn compile(&self) -> Vec<Event> {
        let mut events = Vec::with_capacity(self.windows.len() * 2);
        for w in &self.windows {
            events.push(Event {
                at: w.start,
                link: w.link,
                freeze: true,
            });
            if w.duration != u64::MAX {
                events.push(Event {
                    at: w.start.saturating_add(w.duration),
                    link: w.link,
                    freeze: false,
                });
            }
        }
        // Stable order: by time, releases before freezes at a tie (a
        // zero-gap thaw/refreeze still registers both events).
        events.sort_by_key(|e| (e.at, e.freeze));
        events
    }
}

/// Applies a [`StallPlan`] against a [`LinkSet`] as the flush clock
/// advances. Many shard workers may poll concurrently; an atomic
/// cursor guarantees each event is applied exactly once.
pub struct StallInjector {
    events: Vec<Event>,
    cursor: AtomicUsize,
}

impl StallInjector {
    /// Compiles `plan` into an injector.
    pub fn new(plan: &StallPlan) -> Self {
        Self {
            events: plan.compile(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Applies every event whose time has come. Cheap when nothing is
    /// due: one atomic load and one clock read.
    pub fn poll(&self, links: &LinkSet) {
        loop {
            // ordering: Acquire pairs with the AcqRel claim CAS below —
            // a poller that observes an advanced cursor is ordered
            // after the claiming poller's freeze/release.
            let idx = self.cursor.load(Ordering::Acquire);
            let Some(e) = self.events.get(idx) else {
                return;
            };
            if e.at > links.flush_clock() {
                return;
            }
            // Claim the event; on a race the loser retries at idx+1.
            // ordering: AcqRel — Release publishes the claim to the
            // Acquire loads above; Acquire orders this poller after
            // the previous claimer when cursors chain.
            if self
                .cursor
                .compare_exchange(idx, idx + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                if e.freeze {
                    links.freeze(e.link);
                } else {
                    links.release_stall(e.link);
                }
            }
        }
    }

    /// Whether every scheduled event has been applied.
    pub fn exhausted(&self) -> bool {
        // ordering: Acquire pairs with the AcqRel claim CAS in `poll`
        // so an exhausted verdict is ordered after the last event's
        // application.
        self.cursor.load(Ordering::Acquire) >= self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_fires_on_flush_clock() {
        let links = LinkSet::new(2, 8);
        let plan = StallPlan::new(vec![StallWindow {
            link: 1,
            start: 3,
            duration: 2,
        }]);
        let inj = StallInjector::new(&plan);
        inj.poll(&links);
        assert!(!links.is_stalled(1), "clock 0 < start 3");
        for _ in 0..3 {
            links.try_acquire(0);
            links.on_delivered(0);
        }
        inj.poll(&links);
        assert!(links.is_stalled(1), "freezes at clock 3");
        for _ in 0..2 {
            links.try_acquire(0);
            links.on_delivered(0);
        }
        inj.poll(&links);
        assert!(!links.is_stalled(1), "thaws at clock 5");
        assert!(inj.exhausted());
        assert_eq!(links.snapshot()[1].max_stall_cycles, 2);
    }

    #[test]
    fn forever_stall_never_releases() {
        let links = LinkSet::new(1, 8);
        let inj = StallInjector::new(&StallPlan::freeze_forever(0, 0));
        inj.poll(&links);
        assert!(links.is_stalled(0));
        assert!(inj.exhausted(), "no release event scheduled");
    }

    #[test]
    fn from_rng_is_deterministic() {
        let rng = desim::SimRng::new(42);
        let a = StallPlan::from_rng(&rng, 4, 10_000, 0.01, 50, 200);
        let b = StallPlan::from_rng(&rng, 4, 10_000, 0.01, 50, 200);
        assert_eq!(a.windows().len(), b.windows().len());
        assert!(!a.is_empty(), "rate 0.01 over 10k cycles must stall");
        for (x, y) in a.windows().iter().zip(b.windows()) {
            assert_eq!((x.link, x.start, x.duration), (y.link, y.start, y.duration));
            assert!((50..=200).contains(&x.duration));
            assert!(x.start < 10_000);
        }
    }

    #[test]
    fn windows_within_a_link_do_not_overlap() {
        let rng = desim::SimRng::new(7);
        let plan = StallPlan::from_rng(&rng, 2, 50_000, 0.02, 10, 100);
        for link in 0..2 {
            let mut last_end = 0u64;
            for w in plan.windows().iter().filter(|w| w.link == link) {
                assert!(w.start > last_end, "overlapping stalls on link {link}");
                last_end = w.start + w.duration;
            }
        }
    }

    #[test]
    fn concurrent_poll_applies_each_event_once() {
        use std::sync::Arc;
        let links = Arc::new(LinkSet::new(1, 8));
        // 10 zero-length windows, all 20 events due at clock 0.
        let windows: Vec<StallWindow> = (0..10)
            .map(|_| StallWindow {
                link: 0,
                start: 0,
                duration: 0,
            })
            .collect();
        let inj = Arc::new(StallInjector::new(&StallPlan::new(windows)));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let inj = Arc::clone(&inj);
                let links = Arc::clone(&links);
                std::thread::spawn(move || inj.poll(&links))
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(inj.exhausted());
        // 10 freezes, but idempotent ones don't double-count events:
        // freeze/release pairs interleave at the same clock, so exact
        // counts depend on ordering; the invariant is "no panic, cursor
        // fully advanced, link state consistent".
        let _ = links.snapshot();
    }
}

//! The flow→shard routing map under stealing (DESIGN.md §8.1) and its
//! per-flow submit windows (§8.3).
//!
//! * **Routing** — one word per flow naming its home shard. Producers
//!   read it inside the submit window; the donor of the migration slot
//!   that names the flow moves it with one `SeqCst` store
//!   ([`FlowMap::flip`]), the linearization point of a steal (§8.2).
//! * **Submit windows** — one in-flight-push counter per flow. A mover
//!   may only drain a ring position it computed *after* the window hit
//!   zero post-flip (§8.3, the three-party Dekker modeled by err-check's
//!   `model_flow_map_window_dekker`).
//!
//! Who may flip is not this module's business: the migration slot is
//! the claim (§8.2), and only the donor of the slot naming a flow flips
//! it. This module compiles against the crate-private `sync` shim so
//! the err-check model suite (`--features model`) drives the *shipped*
//! atomics under the vendored loom checker, not a hand-copied miniature.

use crate::sync::{AtomicU64, AtomicUsize, Ordering};

/// The flow→shard routing map plus its submit windows. Allocated only
/// when stealing is on; the submit path consults it and nothing else.
pub struct FlowMap {
    homes: Vec<AtomicUsize>,
    windows: Vec<AtomicU64>,
}

impl FlowMap {
    /// A map over `n_flows` flows starting on the static SplitMix64
    /// partition, every window clear.
    pub fn new(n_flows: usize, shards: usize) -> Self {
        Self {
            homes: (0..n_flows)
                .map(|flow| {
                    AtomicUsize::new((crate::ingress::mix_flow(flow) % shards as u64) as usize)
                })
                .collect(),
            windows: (0..n_flows).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of flows the map covers.
    pub fn n_flows(&self) -> usize {
        self.homes.len()
    }

    /// Current home shard of `flow`, or `None` when the flow id is
    /// outside the mapped space (those flows stay on the static hash).
    #[inline]
    pub fn shard_of(&self, flow: usize) -> Option<usize> {
        // ordering: SeqCst pairs with the submit-window protocol — the
        // map read inside a producer's window and the mover's flip must
        // fall into one total order (§8.3). [pair: flow-window @ self]
        self.homes.get(flow).map(|h| h.load(Ordering::SeqCst))
    }

    /// Rehomes `flow` at `dest`: the flip, made only by the donor of
    /// the migration slot naming the flow (§8.2). Idempotent, so a
    /// resurrected donor may replay it.
    pub fn flip(&self, flow: usize, dest: usize) {
        if let Some(home) = self.homes.get(flow) {
            // ordering: SeqCst — the flip is the §8.3 Dekker's store
            // side: a producer either reads it or its window increment
            // precedes the mover's `window_clear` check.
            // [pair: flow-window @ self]
            home.store(dest, Ordering::SeqCst);
        }
    }

    /// Enters the submit window for `flow`; `None` when the flow is
    /// outside the mapped space (nothing can move it, so no window is
    /// needed).
    #[inline]
    pub fn window_enter(&self, flow: usize) -> Option<WindowGuard<'_>> {
        self.windows.get(flow).map(WindowGuard::enter)
    }

    /// Whether `flow`'s submit window is clear (no producer between its
    /// map read and ring push). Movers poll this *after* the flip.
    #[inline]
    pub fn window_clear(&self, flow: usize) -> bool {
        // ordering: SeqCst load pairs with WindowGuard's SeqCst RMWs —
        // the §8.3 Dekker check. [pair: flow-window @ self]
        self.windows
            .get(flow)
            .is_none_or(|w| w.load(Ordering::SeqCst) == 0)
    }
}

/// RAII submit-window permit: increments the flow's in-flight-push
/// counter on entry, decrements on drop (§8.3 fence 2). Movers spin on
/// [`FlowMap::window_clear`] after the flip.
pub struct WindowGuard<'a> {
    counter: &'a AtomicU64,
}

impl<'a> WindowGuard<'a> {
    #[inline]
    fn enter(counter: &'a AtomicU64) -> Self {
        // ordering: SeqCst — the producer's `window += 1` must be
        // ordered before its map read, and the mover's flip before its
        // `window == 0` check; the two pairs form the Dekker that makes
        // "window clear after flip" imply "no old-home push in flight"
        // (modeled: model_flow_map_window_dekker).
        // [pair: flow-window @ self]
        counter.fetch_add(1, Ordering::SeqCst);
        Self { counter }
    }
}

impl Drop for WindowGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        // ordering: SeqCst — the decrement must not sink below the ring
        // push it covers (§8.3). [pair: flow-window @ self]
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn map_starts_on_static_partition_and_flips() {
        let map = FlowMap::new(64, 4);
        for flow in 0..64 {
            let expect = (crate::ingress::mix_flow(flow) % 4) as usize;
            assert_eq!(map.shard_of(flow), Some(expect));
        }
        assert_eq!(
            map.shard_of(64),
            None,
            "unmapped flows fall back to the static hash"
        );
        map.flip(3, 2);
        map.flip(3, 2);
        assert_eq!(map.shard_of(3), Some(2), "a replayed flip is a no-op");
    }

    #[test]
    fn window_tracks_in_flight_submits() {
        let map = FlowMap::new(4, 2);
        assert!(map.window_clear(0));
        {
            let _g = map.window_enter(0).unwrap();
            assert!(!map.window_clear(0));
            assert!(map.window_clear(1), "windows are per flow");
        }
        assert!(map.window_clear(0));
        assert!(
            map.window_enter(99).is_none(),
            "unmapped flows have no window"
        );
    }
}

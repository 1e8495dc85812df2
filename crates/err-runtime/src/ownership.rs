//! The flow-ownership authority (DESIGN.md §13): the epoch-stamped
//! claim protocol under stealing (§8), the one thing that moves a flow.
//! A dead shard is resurrected in place (§9.2) and never touches it.
//!
//! Three ideas, one struct:
//!
//! * **[`FlowMap`]** — the routing truth. One word per flow packing
//!   `(epoch << 32) | shard`; producers read it inside the submit
//!   window, movers advance it with an epoch CAS.
//! * **Submit windows** — one in-flight-push counter per flow. A mover
//!   may only drain a ring position it computed *after* the window hit
//!   zero post-flip (§13.3, the three-party Dekker modeled by
//!   err-check's `model_ownership_window_dekker`).
//! * **Claims** — one word per flow packing
//!   `(state << 62) | (claimant << 32) | epoch`. A claim is the right
//!   to *attempt* a reroute; the epoch CAS in [`Ownership::try_reroute`]
//!   is the linearization point of the move.
//!
//! This module compiles against the crate-private `sync` shim so the err-check model
//! suite (`--features model`) drives the *shipped* atomics under the
//! vendored loom checker, not a hand-copied miniature.

use crate::sync::{AtomicU64, Ordering};

/// Claim-word state field (bits 63–62 of the claim word).
///
/// The variants spell the §13.1 state machine: `Settled` is the only
/// state a claim can be taken from, and only its holder's
/// [`Ownership::release`] leaves `Stealing`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OwnerState {
    /// No mover holds the flow; the [`FlowMap`] entry is the whole truth.
    Settled,
    /// A migration slot holds the flow (claimant = thief shard).
    Stealing,
}

const STATE_SHIFT: u32 = 62;
const CLAIMANT_SHIFT: u32 = 32;
const CLAIMANT_MASK: u64 = (1 << (STATE_SHIFT - CLAIMANT_SHIFT)) - 1;
const EPOCH_MASK: u64 = 0xFFFF_FFFF;

const STATE_SETTLED: u64 = 0;
const STATE_STEALING: u64 = 1;

#[inline]
fn pack(state: u64, claimant: usize, epoch: u32) -> u64 {
    debug_assert!((claimant as u64) <= CLAIMANT_MASK);
    (state << STATE_SHIFT) | ((claimant as u64) << CLAIMANT_SHIFT) | epoch as u64
}

#[inline]
fn state_of(word: u64) -> u64 {
    word >> STATE_SHIFT
}

/// Proof of a successful [`Ownership::try_claim`]: carries the flow,
/// the map epoch
/// observed at claim time (the CAS expectation for
/// [`Ownership::try_reroute`]), and the exact claim word (the CAS
/// expectation for [`Ownership::release`]).
#[derive(Clone, Copy, Debug)]
pub struct ClaimToken {
    /// The claimed flow.
    pub flow: usize,
    /// The [`FlowMap`] epoch observed when the claim was taken.
    pub epoch: u32,
    word: u64,
}

impl ClaimToken {
    /// Reconstructs a `Stealing` token from slot-persisted parts
    /// (§13.4): the claim is taken by the donor but finished — released
    /// or replayed after a resurrection — by whichever side gets there,
    /// so the token must be rebuildable from the slot's atomic cells.
    pub(crate) fn stealing(flow: usize, claimant: usize, epoch: u32) -> Self {
        let word = pack(STATE_STEALING, claimant, epoch);
        Self { flow, epoch, word }
    }
}

/// The flow→shard routing map: one atomic word per flow packing
/// `(epoch << 32) | shard` (§8.2 / §13.1). Reads are one `SeqCst` load;
/// only [`Ownership::try_reroute`] writes after construction.
pub struct FlowMap {
    entries: Vec<AtomicU64>,
    shards: usize,
}

impl FlowMap {
    /// A map over `n_flows` flows starting on the static SplitMix64
    /// partition, every entry at epoch 0.
    pub fn new(n_flows: usize, shards: usize) -> Self {
        let entries = (0..n_flows)
            .map(|flow| {
                let shard = (crate::ingress::mix_flow(flow) % shards as u64) as usize;
                AtomicU64::new(shard as u64)
            })
            .collect();
        Self { entries, shards }
    }

    /// Number of flows the map covers.
    pub fn n_flows(&self) -> usize {
        self.entries.len()
    }

    /// Number of shards the map routes over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Current home shard of `flow`, or `None` when the flow id is
    /// outside the mapped space (those flows stay on the static hash).
    #[inline]
    pub fn shard_of(&self, flow: usize) -> Option<usize> {
        // ordering: SeqCst pairs with the submit-window protocol — the
        // map read inside a producer's window and the mover's flip must
        // fall into one total order (§13.3). [pair: own-window @ self]
        self.entries
            .get(flow)
            .map(|e| (e.load(Ordering::SeqCst) & EPOCH_MASK) as usize)
    }

    /// Current epoch of `flow` (0 until the first migration).
    #[inline]
    pub fn epoch_of(&self, flow: usize) -> u32 {
        // ordering: SeqCst — claim-time epoch snapshots must order
        // against the `try_reroute` flip (§13.2).
        // [pair: own-epoch @ self]
        self.entries
            .get(flow)
            .map(|e| (e.load(Ordering::SeqCst) >> 32) as u32)
            .unwrap_or(0)
    }
}

/// RAII submit-window permit: increments the flow's in-flight-push
/// counter on entry, decrements on drop (§13.3 fence 2). Movers spin on
/// [`Ownership::window_clear`] after flipping the map.
pub struct WindowGuard<'a> {
    counter: &'a AtomicU64,
}

impl<'a> WindowGuard<'a> {
    /// Enters the window around an explicit counter.
    #[inline]
    pub(crate) fn enter_counter(counter: &'a AtomicU64) -> Self {
        // ordering: SeqCst — the producer's `window += 1` must be
        // ordered before its map read, and the mover's flip before its
        // `window == 0` check; the two pairs form the Dekker that makes
        // "window clear after flip" imply "no old-epoch push in flight"
        // (modeled: model_ownership_window_dekker).
        // [pair: own-window @ self]
        counter.fetch_add(1, Ordering::SeqCst);
        Self { counter }
    }
}

impl Drop for WindowGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        // ordering: SeqCst — the decrement must not sink below the ring
        // push it covers (§13.3). [pair: own-window @ self]
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The single ownership authority (§13.1): routing map + submit
/// windows + per-flow claims. Allocated only when stealing is on; the
/// submit path consults it and nothing else.
pub struct Ownership {
    /// The routing truth.
    pub map: FlowMap,
    window: Vec<AtomicU64>,
    claims: Vec<AtomicU64>,
}

impl Ownership {
    /// An authority over `n_flows` flows across `shards` shards: static
    /// partition, all windows zero, all claims `Settled`.
    pub fn new(n_flows: usize, shards: usize) -> Self {
        Self {
            map: FlowMap::new(n_flows, shards),
            window: (0..n_flows).map(|_| AtomicU64::new(0)).collect(),
            claims: (0..n_flows).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Current home shard of `flow` (see [`FlowMap::shard_of`]).
    #[inline]
    pub fn shard_of(&self, flow: usize) -> Option<usize> {
        self.map.shard_of(flow)
    }

    /// Enters the submit window for `flow`; `None` when the flow is
    /// outside the mapped space (no overlay can move it, so no window
    /// is needed).
    #[inline]
    pub fn window_enter(&self, flow: usize) -> Option<WindowGuard<'_>> {
        self.window.get(flow).map(WindowGuard::enter_counter)
    }

    /// Whether `flow`'s submit window is clear (no producer between its
    /// map read and ring push). Movers poll this *after* the map flip.
    #[inline]
    pub fn window_clear(&self, flow: usize) -> bool {
        // ordering: SeqCst load pairs with WindowGuard's SeqCst RMWs —
        // the §13.3 Dekker check. [pair: own-window @ self]
        self.window
            .get(flow)
            .map(|w| w.load(Ordering::SeqCst) == 0)
            .unwrap_or(true)
    }

    /// The claim state of `flow` right now (racy read; eligibility
    /// filters and tests only — movers rely on the CAS, not this).
    pub fn owner_state(&self, flow: usize) -> OwnerState {
        // ordering: Acquire suffices for an observer-only racy read —
        // nothing here re-enters the claim protocol, and coherence on
        // the single claim word is all the eligibility filters need
        // (downgraded from SeqCst: no store on this path, so it can't
        // participate in a Dekker). [pair: own-claim @ self]
        match self
            .claims
            .get(flow)
            .map(|c| state_of(c.load(Ordering::Acquire)))
        {
            Some(STATE_STEALING) => OwnerState::Stealing,
            _ => OwnerState::Settled,
        }
    }

    /// Takes the `Stealing` claim on `flow` for thief `claimant` with
    /// one `SeqCst` CAS from `Settled` (§13.1). Fails (returns `None`)
    /// if another mover already holds the flow, or the flow is
    /// unmapped. The token's epoch is the map epoch observed here; if a
    /// racing release slipped a reroute in between, the stale epoch
    /// makes our eventual `try_reroute` fail harmlessly rather than
    /// double-moving the flow.
    pub fn try_claim(&self, flow: usize, claimant: usize) -> Option<ClaimToken> {
        let claim = self.claims.get(flow)?;
        // ordering: SeqCst — the CAS expectation read, in the same
        // total order as the claim CAS below. [pair: own-claim @ self]
        let observed = claim.load(Ordering::SeqCst);
        if state_of(observed) != STATE_SETTLED {
            return None;
        }
        let epoch = self.map.epoch_of(flow);
        let word = pack(STATE_STEALING, claimant, epoch);
        // ordering: SeqCst CAS — the claim acquisition must be globally
        // ordered against competing claims (§13.1).
        // [pair: own-claim @ self]
        claim
            .compare_exchange(observed, word, Ordering::SeqCst, Ordering::SeqCst)
            .ok()?;
        Some(ClaimToken { flow, epoch, word })
    }

    /// The linearization point (§13.2): advance `flow`'s map entry from
    /// the token's epoch to `epoch + 1`, homed at `dest`. Exactly one
    /// claimant per epoch can succeed; a loser's stale-epoch CAS fails
    /// and it must unwind without touching the flow's packets.
    pub fn try_reroute(&self, token: &ClaimToken, dest: usize) -> bool {
        let Some(entry) = self.map.entries.get(token.flow) else {
            return false;
        };
        debug_assert!(dest < self.map.shards);
        // ordering: SeqCst — the CAS expectation read, in the same
        // total order as the flip CAS below. [pair: own-epoch @ self]
        let observed = entry.load(Ordering::SeqCst);
        if (observed >> 32) as u32 != token.epoch {
            return false;
        }
        let next = ((token.epoch.wrapping_add(1) as u64) << 32) | dest as u64;
        // ordering: SeqCst CAS — the flip is the §13.3 Dekker's store
        // side and the §13.2 epoch race's single winner; both pairings
        // need the flip in the global SeqCst order.
        // [pair: own-window @ self] [pair: own-epoch @ self]
        entry
            .compare_exchange(observed, next, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Releases a claim: stores `Settled` at the flow's *current* map
    /// epoch, but only if the token still owns the claim word — a
    /// release replayed after a resurrection (§13.4) is a no-op.
    pub fn release(&self, token: &ClaimToken) {
        let Some(claim) = self.claims.get(token.flow) else {
            return;
        };
        let settled = pack(STATE_SETTLED, 0, self.map.epoch_of(token.flow));
        // ordering: AcqRel CAS — Release publishes the mover's last
        // touch of the flow's packets to the next claimant (whose
        // acquiring claim CAS on this same word synchronizes with it);
        // Acquire joins a release that beat us. Downgraded from SeqCst:
        // release races only through this one claim word, so RMW
        // coherence — not a cross-variable total order — decides the
        // winner. [pair: own-claim @ self]
        let _ = claim.compare_exchange(token.word, settled, Ordering::AcqRel, Ordering::Acquire);
    }
}

#[cfg(all(test, not(feature = "loom")))]
mod tests {
    use super::*;

    #[test]
    fn map_starts_on_static_partition_and_epoch_zero() {
        let own = Ownership::new(64, 4);
        for flow in 0..64 {
            let expect = (crate::ingress::mix_flow(flow) % 4) as usize;
            assert_eq!(own.shard_of(flow), Some(expect));
            assert_eq!(own.map.epoch_of(flow), 0);
        }
        assert_eq!(
            own.shard_of(64),
            None,
            "unmapped flows fall back to the static hash"
        );
    }

    #[test]
    fn claim_reroute_release_advances_epoch() {
        let own = Ownership::new(8, 4);
        let tok = own.try_claim(3, 2).expect("settled flow claims");
        assert_eq!(own.owner_state(3), OwnerState::Stealing);
        assert!(own.try_claim(3, 1).is_none(), "claims are exclusive");
        assert!(own.try_reroute(&tok, 2));
        assert_eq!(own.shard_of(3), Some(2));
        assert_eq!(own.map.epoch_of(3), 1);
        own.release(&tok);
        assert_eq!(own.owner_state(3), OwnerState::Settled);
        assert!(own.try_claim(3, 0).is_some(), "released flows reclaim");
        // A replayed release of the old token no longer owns the word.
        own.release(&tok);
        assert_eq!(own.owner_state(3), OwnerState::Stealing);
    }

    #[test]
    fn stale_epoch_reroute_loses() {
        let own = Ownership::new(8, 4);
        let tok = own.try_claim(1, 3).unwrap();
        // Simulate the winner having already advanced the epoch: a
        // second reroute off the same token must fail.
        assert!(own.try_reroute(&tok, 3));
        assert!(!own.try_reroute(&tok, 2), "stale epoch must lose the CAS");
        assert_eq!(own.shard_of(1), Some(3), "loser must not move the flow");
    }

    #[test]
    fn window_tracks_in_flight_submits() {
        let own = Ownership::new(4, 2);
        assert!(own.window_clear(0));
        {
            let _g = own.window_enter(0).unwrap();
            assert!(!own.window_clear(0));
            assert!(own.window_clear(1), "windows are per flow");
        }
        assert!(own.window_clear(0));
        assert!(
            own.window_enter(99).is_none(),
            "unmapped flows have no window"
        );
    }
}

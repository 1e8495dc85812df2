//! The `HopTracker`: per-packet entry stamps for per-hop latency
//! attribution (DESIGN.md §11.8).
//!
//! When a node accepts a packet (source submit or tail handoff), the
//! fabric stamps `(entry_us, entry_served_flits)` for it here; when
//! the packet's tail is served at that node, the Forwarder takes the
//! stamp back and turns the deltas into a hop record at the position
//! its compiled hop table gives. The map is touched **once per packet
//! per hop** — never per flit — so a plain sharded `Mutex<HashMap>` is
//! a documented cold-path lock, not a fast-path hazard (err-check
//! allowlist). A hand-off that lands pays one lock trip
//! ([`replace`](HopTracker::replace) swaps the peer's stamp in and
//! hands the holder's back); a refused one pays a second, restoring
//! the holder's stamp.
//!
//! The stamp for the next node is written *before* the handoff submit:
//! the moment the packet lands in the peer's ingress ring its tail may
//! be served, and the stamp must already be visible then. The one
//! remaining benign window is the source submit, where the stamp lands
//! just after the blocking submit returns (a pre-submit stamp would
//! fold admission-blocked time into the hop, breaking the
//! post-admission semantics); an idle node can in principle serve a
//! short packet inside that window, costing one hop *sample*, never a
//! misattributed one.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

/// Entry stamp of one in-flight packet at the node currently holding
/// it: wall clock and the node's service clock at acceptance.
///
/// `node` guards against the one racy overwrite: a source stamp that
/// lands *after* an idle node already served and handed the packet
/// off would clobber the downstream stamp, so consumers ignore any
/// entry stamped for a different node — one lost sample, never a
/// cross-node misattribution.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HopEntry {
    /// The node this stamp measures (whose service clock was read).
    pub node: usize,
    /// Fabric wall clock at post-admission entry, microseconds.
    pub entry_us: u64,
    /// The accepting node's cumulative served-flit counter at entry
    /// (`RuntimeHandle::served_flits`, the §11.8 service clock).
    pub entry_served_flits: u64,
}

/// Hashes a packet id for its shard's map. Every id in one shard has
/// the same `id % SHARDS`, so the id itself would leave the low bits —
/// the bucket index — constant: a Fibonacci multiply spreads it over
/// the high bits, and the fold brings them back down.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the maps are keyed by u64, which hashes through write_u64")
    }

    fn write_u64(&mut self, id: u64) {
        let h = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type Shard = Mutex<HashMap<u64, HopEntry, BuildHasherDefault<IdHasher>>>;

/// Sharded packet-id → [`HopEntry`] map. Packet ids are a fabric-wide
/// sequence, so `id % SHARDS` spreads neighbors across locks.
pub(crate) struct HopTracker {
    shards: Vec<Shard>,
}

const SHARDS: usize = 16;

impl HopTracker {
    pub(crate) fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
        }
    }

    fn shard(&self, packet: u64) -> &Shard {
        &self.shards[(packet % SHARDS as u64) as usize]
    }

    /// Stamps `packet`'s entry at its (new) holding node and returns
    /// the stamp it replaces, in one lock trip.
    pub(crate) fn replace(&self, packet: u64, entry: HopEntry) -> Option<HopEntry> {
        self.shard(packet)
            .lock()
            .expect("hop tracker shard poisoned")
            .insert(packet, entry)
    }

    /// Takes `packet`'s stamp back (tail served, or terminal outcome).
    pub(crate) fn take(&self, packet: u64) -> Option<HopEntry> {
        self.shard(packet)
            .lock()
            .expect("hop tracker shard poisoned")
            .remove(&packet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_take_roundtrip_and_replacement() {
        let t = HopTracker::new();
        assert!(t.take(7).is_none());
        let first = HopEntry {
            node: 0,
            entry_us: 10,
            entry_served_flits: 3,
        };
        assert!(t.replace(7, first).is_none(), "nothing to replace yet");
        let second = HopEntry {
            node: 1,
            entry_us: 20,
            entry_served_flits: 9,
        };
        let prev = t.replace(7, second).expect("the first stamp");
        assert_eq!((prev.node, prev.entry_us), (0, 10));
        let e = t.take(7).expect("stamped");
        assert_eq!(e.node, 1);
        assert_eq!(e.entry_us, 20);
        assert_eq!(e.entry_served_flits, 9);
        assert!(t.take(7).is_none(), "take consumes the stamp");
    }

    #[test]
    fn packets_shard_independently() {
        let t = HopTracker::new();
        for id in 0..64u64 {
            let entry = HopEntry {
                node: 0,
                entry_us: id,
                entry_served_flits: 0,
            };
            assert!(t.replace(id, entry).is_none());
        }
        for id in 0..64u64 {
            assert_eq!(t.take(id).expect("stamped").entry_us, id);
        }
    }

    /// The ids one shard holds differ only above `id % SHARDS`: their
    /// hashes must still spread over the low bits (the bucket index)
    /// and the top seven (the probe tag).
    #[test]
    fn one_shards_ids_spread_over_buckets_and_tags() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        let hashes: Vec<u64> = (0..256u64).map(|i| build.hash_one(3 + i * 16)).collect();
        let distinct = |bits: fn(u64) -> u64| {
            let mut v: Vec<u64> = hashes.iter().map(|&h| bits(h)).collect();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert!(distinct(|h| h & 0xff) > 128, "low bits barely move");
        assert!(distinct(|h| h >> 57) > 64, "tag bits barely move");
    }
}

//! The `HopTracker`: per-packet entry stamps for per-hop latency
//! attribution (DESIGN.md §11.8), in a fixed slot table the packet's
//! holder owns.
//!
//! When a node accepts a packet (source submit or tail hand-off), the
//! packet's previous holder stamps `(entry_us, entry_served_flits)` for
//! it here; when the packet's tail is served at that node, the
//! Forwarder reads the stamp back and turns the deltas into a hop
//! record at the position its compiled hop table gives. A stamp is
//! touched **once per packet per hop**, never per flit, and never under
//! a lock: the table is one array of slots allocated at `Fabric::start`
//! and indexed by `packet id & mask`.
//!
//! **Ownership passes with the packet.** The stamp for the next node
//! is written *before* the submit that makes the packet visible there:
//! the moment the packet lands in the peer's ingress ring its tail may
//! be served, and the ring's Release push / Acquire pop carries the
//! stamp across with it. Until then only the holder touches the
//! packet's slot, so while no two in-flight ids share a slot each slot
//! has one writer at a time. The source stamp is the packet's arrival
//! (`Fabric::submit_inner`), so a packet's hop microseconds telescope
//! exactly to its end-to-end latency.
//!
//! **Collisions lose a sample, never attribute a wrong one.** Two
//! in-flight ids `4096` apart share a slot. A writer claims the slot
//! with one CAS on its tag (`BUSY`) and gives up if another writer
//! holds it; it writes the fields and publishes its id as the tag
//! last. A reader accepts the fields only if the tag is its packet's
//! id both before and after reading them. Terminal outcomes write
//! nothing: ids are a fabric-wide sequence, so a stale tag never
//! matches a later packet.

#[cfg(feature = "loom")]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(feature = "loom"))]
use std::sync::atomic::{AtomicU64, Ordering};

/// Entry stamp of one in-flight packet at the node currently holding
/// it: wall clock and the node's service clock at acceptance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopEntry {
    /// Fabric wall clock at entry, microseconds: the packet's arrival
    /// at its source node, the hand-off's clock read at every later
    /// node.
    pub entry_us: u64,
    /// The accepting node's cumulative served-flit counter at entry
    /// (`RuntimeHandle::served_flits`, the §11.8 service clock).
    pub entry_served_flits: u64,
}

/// Slots in the table a fabric allocates: 24 bytes each, 96 KB in all.
/// A packet loses its sample only if it is still in flight when the
/// packet `SLOTS` ids later is stamped.
pub const SLOTS: usize = 4096;

/// Tag of a slot nothing has stamped (or whose stamp was cleared).
/// Packet ids count up from 0 and never reach it.
const EMPTY: u64 = u64::MAX;

/// Tag of a slot a writer has claimed and not yet published.
const BUSY: u64 = u64::MAX - 1;

/// One packet's stamp, tagged with its id.
struct Slot {
    tag: AtomicU64,
    entry_us: AtomicU64,
    entry_served_flits: AtomicU64,
}

/// Packet-id-indexed [`HopEntry`] slots (module docs).
pub struct HopTracker {
    slots: Box<[Slot]>,
    mask: u64,
}

impl HopTracker {
    /// A table of `n` slots, a power of two: [`SLOTS`] for a fabric,
    /// one in the model suite, where every id shares it.
    pub fn with_slots(n: usize) -> Self {
        assert!(n.is_power_of_two(), "slot count {n} is not a power of two");
        Self {
            slots: (0..n)
                .map(|_| Slot {
                    tag: AtomicU64::new(EMPTY),
                    entry_us: AtomicU64::new(0),
                    entry_served_flits: AtomicU64::new(0),
                })
                .collect(),
            mask: n as u64 - 1,
        }
    }

    fn slot(&self, packet: u64) -> &Slot {
        &self.slots[(packet & self.mask) as usize]
    }

    /// Stamps `packet`'s entry at its (next) holding node. `false` when
    /// another writer holds the slot: the stamp is lost, and so is the
    /// packet's sample at that node.
    pub fn stamp(&self, packet: u64, entry: HopEntry) -> bool {
        debug_assert!(packet < BUSY, "packet id {packet} collides with a tag");
        let slot = self.slot(packet);
        let seen = slot.tag.load(Ordering::Relaxed);
        if seen == BUSY {
            return false;
        }
        // ordering: Acquire on the claim joins the last publisher's
        // Release tag store, so this writer's field stores follow that
        // writer's in each field's modification order and the slot
        // never ends up tagged with this id over older fields.
        // [pair: hop-slot-claim @ self]
        if slot
            .tag
            .compare_exchange(seen, BUSY, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        // ordering: Release on each field store pairs with the reader's
        // Acquire field loads: a reader that sees one of these values
        // also sees the claim above, so its second tag check fails.
        // [pair: hop-slot-fields @ self]
        slot.entry_us.store(entry.entry_us, Ordering::Release);
        // ordering: as above. [pair: hop-slot-fields @ self]
        slot.entry_served_flits
            .store(entry.entry_served_flits, Ordering::Release);
        // ordering: Release publishes the fields under the tag; pairs
        // with the reader's first (Acquire) tag load and the next
        // writer's claim. [pair: hop-slot-publish @ self]
        // [pair: hop-slot-claim @ self]
        slot.tag.store(packet, Ordering::Release);
        true
    }

    /// `packet`'s stamp, if its slot still holds it whole. Reads only:
    /// the holder that stamped it moves on with the packet.
    pub fn read(&self, packet: u64) -> Option<HopEntry> {
        let slot = self.slot(packet);
        // ordering: Acquire joins the publisher's Release tag store, so
        // the fields read below are at least that stamp's.
        // [pair: hop-slot-publish @ self]
        if slot.tag.load(Ordering::Acquire) != packet {
            return None;
        }
        // ordering: Acquire on each field load pairs with the writers'
        // Release field stores: a value a later claimant wrote brings
        // its claim along, which the second tag check then sees.
        // [pair: hop-slot-fields @ self]
        let entry = HopEntry {
            entry_us: slot.entry_us.load(Ordering::Acquire),
            // ordering: as above. [pair: hop-slot-fields @ self]
            entry_served_flits: slot.entry_served_flits.load(Ordering::Acquire),
        };
        // Relaxed: the field loads above ordered this load after any
        // claim whose values they saw; only this packet's own holder
        // (the caller) ever publishes this id again.
        (slot.tag.load(Ordering::Relaxed) == packet).then_some(entry)
    }

    /// Stamps `packet` for its next holder and returns the stamp it
    /// had here, read first.
    pub fn replace(&self, packet: u64, entry: HopEntry) -> Option<HopEntry> {
        let prev = self.read(packet);
        self.stamp(packet, entry);
        prev
    }

    /// Reads `packet`'s stamp and clears it, so a later read of the
    /// same id finds nothing: a refused hand-off whose packet had no
    /// stamp here must not leave the peer's behind.
    pub fn take(&self, packet: u64) -> Option<HopEntry> {
        let entry = self.read(packet);
        // Relaxed: an RMW continues the release sequence of the store
        // it replaces, so the next claimant still joins the publisher.
        let _ = self.slot(packet).tag.compare_exchange(
            packet,
            EMPTY,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(entry_us: u64, entry_served_flits: u64) -> HopEntry {
        HopEntry {
            entry_us,
            entry_served_flits,
        }
    }

    #[test]
    fn stamp_take_roundtrip_and_replacement() {
        let t = HopTracker::with_slots(8);
        assert!(t.read(7).is_none(), "nothing stamped yet");
        assert!(t.replace(7, entry(10, 3)).is_none(), "nothing to replace");
        let prev = t.replace(7, entry(20, 9)).expect("the first stamp");
        assert_eq!(prev, entry(10, 3));
        assert_eq!(t.read(7), Some(entry(20, 9)), "a read leaves the stamp");
        assert_eq!(t.take(7), Some(entry(20, 9)));
        assert!(t.read(7).is_none(), "take clears the stamp");
        // Ids 7 and 15 share a slot: the later stamp evicts the earlier,
        // whose id then reads nothing, never the other packet's stamp.
        assert!(t.stamp(7, entry(30, 1)));
        assert!(t.stamp(15, entry(40, 2)));
        assert!(t.read(7).is_none(), "an evicted id reads nothing");
        assert!(t.replace(7, entry(50, 5)).is_none());
        assert!(t.read(15).is_none(), "the eviction runs both ways");
        assert_eq!(t.take(15), None, "take of an evicted id clears nothing");
        assert_eq!(t.read(7), Some(entry(50, 5)), "7 still holds the slot");
    }

    #[test]
    fn a_claimed_slot_refuses_a_second_writer() {
        let t = HopTracker::with_slots(1);
        t.slots[0].tag.store(BUSY, Ordering::Relaxed);
        assert!(!t.stamp(3, entry(1, 1)), "the slot is claimed");
        assert!(t.read(3).is_none());
        t.slots[0].tag.store(EMPTY, Ordering::Relaxed);
        assert!(t.stamp(3, entry(1, 1)));
        assert_eq!(t.read(3), Some(entry(1, 1)));
    }

    #[test]
    fn packets_in_distinct_slots_keep_their_stamps() {
        let t = HopTracker::with_slots(SLOTS);
        for id in 0..SLOTS as u64 {
            assert!(t.stamp(id, entry(id, 0)));
        }
        for id in 0..SLOTS as u64 {
            assert_eq!(t.read(id).expect("stamped").entry_us, id);
        }
    }
}

//! Synchronization primitives for the model-checkable fabric units,
//! switched between `std` and the vendored `loom` checker by the
//! `loom` cargo feature (same pattern as `err-egress::sync`).
//!
//! Only the [`HandleTable`](crate::fabric::HandleTable) swap protocol
//! goes through this shim: its slot `RwLock`s and its generation
//! counter become the checker's modeled lock and atomic, so the
//! incarnation-swap happens-before edges — the slot's write-unlock, and
//! the generation bump a [`HandleCache`](crate::fabric::HandleCache)
//! refreshes on — are validated by `err-check`'s model suite.
//! Everything else in the crate uses `std::sync` directly.

#[cfg(feature = "loom")]
pub(crate) use loom::sync::{atomic::AtomicU64, RwLock};

#[cfg(not(feature = "loom"))]
pub(crate) use std::sync::{atomic::AtomicU64, RwLock};

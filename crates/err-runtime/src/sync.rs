//! Synchronization primitives for the lock-free cores, switched between
//! `std` and the vendored `loom` model checker by the `loom` cargo
//! feature.
//!
//! Only the modules whose interleavings are model-checked go through
//! this shim ([`crate::channel`], [`crate::gate`], `flow_map`);
//! everything else uses `std::sync::atomic` directly. The feature is
//! off by default and only enabled by `err-check`'s model suite
//! (`cargo test -p err-check --features model`), so every normal build
//! compiles the `std` arm — where the [`UnsafeCell`] wrapper is a
//! zero-cost `#[inline]` veneer over `std::cell::UnsafeCell`.

#[cfg(feature = "loom")]
pub(crate) use loom::cell::UnsafeCell;
#[cfg(feature = "loom")]
pub(crate) use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

#[cfg(not(feature = "loom"))]
pub(crate) use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// `std` stand-in for `loom::cell::UnsafeCell`: the same closure-based
/// access API, compiled down to plain raw-pointer access.
#[cfg(not(feature = "loom"))]
#[derive(Debug)]
pub(crate) struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

#[cfg(not(feature = "loom"))]
impl<T> UnsafeCell<T> {
    #[inline]
    pub(crate) fn new(value: T) -> Self {
        Self(std::cell::UnsafeCell::new(value))
    }

    /// Immutable (read) access to the cell contents.
    #[inline]
    pub(crate) fn with<F, R>(&self, f: F) -> R
    where
        F: FnOnce(*const T) -> R,
    {
        f(self.0.get())
    }

    /// Mutable (write) access to the cell contents.
    #[inline]
    pub(crate) fn with_mut<F, R>(&self, f: F) -> R
    where
        F: FnOnce(*mut T) -> R,
    {
        f(self.0.get())
    }
}

//! Facade over the atomic primitives used by the locks.
//!
//! In normal builds this re-exports `std::sync::atomic`.  When the crate is
//! compiled with `RUSTFLAGS="--cfg loom"` the atomics come from the vendored
//! `loom` instead.  That crate is a stress shim (`vendor/README.md`): it
//! re-runs each model closure many times on real threads, so the loom suite
//! (`crates/core/tests/loom.rs`) stress-tests the real locks through this
//! facade but does not enumerate interleavings or model weak memory.
//! Exhaustive checking of the lock code waits on the real interleaving
//! checker listed in ROADMAP.md's open items.

#[cfg(loom)]
pub use loom::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};

#[cfg(not(loom))]
pub use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Yield to other threads / the loom scheduler.
///
/// Under loom every busy-wait iteration must yield so the model checker can
/// switch threads; under a real OS we use a spin hint first and leave the
/// heavier `thread::yield_now` decision to [`crate::wait::WaitToken::snooze`].
#[inline]
pub fn spin_hint() {
    #[cfg(loom)]
    loom::thread::yield_now();
    #[cfg(not(loom))]
    std::hint::spin_loop();
}

/// Yield the current thread to the OS scheduler (or loom's scheduler).
#[inline]
pub fn yield_now() {
    #[cfg(loom)]
    loom::thread::yield_now();
    #[cfg(not(loom))]
    std::thread::yield_now();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_facade_is_usable() {
        let v = AtomicU64::new(7);
        assert_eq!(v.load(Ordering::SeqCst), 7);
        v.store(9, Ordering::SeqCst);
        assert_eq!(v.load(Ordering::SeqCst), 9);
        assert_eq!(v.fetch_add(1, Ordering::SeqCst), 9);
        assert_eq!(v.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn hints_do_not_panic() {
        spin_hint();
        yield_now();
        fence(Ordering::SeqCst);
    }
}

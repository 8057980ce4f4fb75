//! [`RawMutexAlgorithm`]: the one object-safe trait behind the whole lock
//! stack.
//!
//! Earlier revisions of this crate split the lock surface into a low-level
//! protocol trait (acquire/release by pid) and a user-facing mutex facade
//! (slots, guards, stats).  Every consumer — the
//! factory/registry in `bakery-baselines`, the workload harness, the
//! conformance plane, the session plane — ended up requiring *both*, so the
//! two layers were unified into a single trait:
//!
//! * the **protocol surface** — [`RawMutexAlgorithm::acquire`],
//!   [`RawMutexAlgorithm::release`], [`RawMutexAlgorithm::try_acquire`] —
//!   "the procedure for process numbered *i*", parameterised only by pid;
//! * the **metadata surface** — [`RawMutexAlgorithm::capacity`],
//!   [`RawMutexAlgorithm::algorithm_name`],
//!   [`RawMutexAlgorithm::shared_word_count`],
//!   [`RawMutexAlgorithm::register_bound`], [`RawMutexAlgorithm::stats`] —
//!   what the experiment harness and reports consume uniformly;
//! * the **facade surface** — default methods ([`RawMutexAlgorithm::lock`],
//!   [`RawMutexAlgorithm::try_lock`], [`RawMutexAlgorithm::register`]) that
//!   allocate process ids as [`Slot`]s and hand out RAII
//!   [`CriticalSectionGuard`]s.
//!
//! The trait is object safe: `Arc<dyn RawMutexAlgorithm>` is the currency of
//! the registry, the workload runner and the session plane
//! ([`crate::session`]), so adding an algorithm never adds a dispatch arm
//! anywhere.
//!
//! # Safety contract
//!
//! Implementations and callers of the pid-level protocol surface must uphold,
//! and may assume, three rules (the same rules the paper's "process *i*"
//! formulation encodes implicitly):
//!
//! 1. **pid in range** — `acquire`/`release`/`try_acquire` are only defined
//!    for `pid < capacity()`; implementations may panic on anything else.
//! 2. **no reentrancy** — a pid that has entered the critical section (via
//!    `acquire`, or a `try_acquire` that returned `true`) must not call
//!    `acquire`/`try_acquire` again until it has called `release`.  A pid is
//!    driven by at most one thread at a time; the [`Slot`] and
//!    [`crate::session::Session`] tokens enforce this structurally.
//! 3. **release after acquire** — every `release(pid)` must pair with exactly
//!    one prior successful acquisition by the same pid.  Releasing an idle pid
//!    or double-releasing corrupts the protocol state (for the Bakery family
//!    it forges `number[i] := 0` stores that break FCFS and, under bounds,
//!    mutual exclusion).
//!
//! These rules are what make the trait implementable with plain single-writer
//! registers — nothing here requires the implementation to defend against a
//! hostile caller, only against concurrency.

use std::fmt;
use std::sync::Arc;

use crate::guard::CriticalSectionGuard;
use crate::slots::{Slot, SlotAllocator, SlotError};
use crate::stats::LockStats;

/// Errors surfaced by the checked locking entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockError {
    /// The supplied [`Slot`] was allocated by a different lock instance.
    ForeignSlot {
        /// The pid carried by the foreign slot.
        pid: usize,
    },
    /// Slot allocation failed.
    Slot(SlotError),
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::ForeignSlot { pid } => {
                write!(f, "slot p{pid} belongs to a different lock instance")
            }
            LockError::Slot(err) => write!(f, "slot allocation failed: {err}"),
        }
    }
}

impl std::error::Error for LockError {}

impl From<SlotError> for LockError {
    fn from(err: SlotError) -> Self {
        LockError::Slot(err)
    }
}

/// Result of one non-blocking pass through a lock's doorway (ticket drawing)
/// code.
///
/// The blocking `acquire` path simply retries until it obtains
/// [`DoorwayOutcome::Ticket`]; the experiment harness instead records the
/// outcomes to reproduce the paper's Section 3 scenario and the Bakery++ reset
/// behaviour deterministically, without real threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoorwayOutcome {
    /// A ticket with the given number was stored in `number[pid]`.
    Ticket(u64),
    /// The ticket computation exceeded the register bound and the configured
    /// overflow policy was applied (classic Bakery on bounded registers only).
    Overflowed {
        /// The value `1 + maximum(...)` the algorithm tried to store.
        attempted: u64,
        /// The value actually stored after the policy was applied.
        stored: u64,
    },
    /// Bakery++'s `L1` admission guard refused entry because some register
    /// already holds a value `≥ M` (the *illegitimate situation*).
    Blocked,
    /// Bakery++ took the reset branch: the observed maximum was `≥ M`, so
    /// `number[pid]` and `choosing[pid]` were reset to zero.
    Reset,
}

impl DoorwayOutcome {
    /// True when a usable ticket was obtained (including an overflowed one —
    /// the classic algorithm proceeds obliviously after an overflow).
    #[must_use]
    pub fn took_ticket(&self) -> bool {
        matches!(self, DoorwayOutcome::Ticket(_) | DoorwayOutcome::Overflowed { .. })
    }
}

/// The one trait every lock in the suite implements — protocol, metadata and
/// facade in a single object-safe surface (see the module docs for the exact
/// safety contract: pid in range, no reentrancy, release after acquire).
pub trait RawMutexAlgorithm: Send + Sync {
    // --- protocol surface -------------------------------------------------

    /// Maximum number of participating processes (the paper's `N`).
    fn capacity(&self) -> usize;

    /// Enters the critical section as process `pid`, blocking until granted.
    ///
    /// # Panics
    /// Implementations may panic if `pid >= capacity()` or if the same pid is
    /// acquired re-entrantly.
    fn acquire(&self, pid: usize);

    /// Leaves the critical section as process `pid`.
    fn release(&self, pid: usize);

    /// One non-blocking attempt to enter the critical section as `pid`.
    ///
    /// Returns `true` with the critical section held, or `false` without any
    /// side effect a concurrent observer could mistake for an acquisition.
    /// **May fail spuriously**: a `false` does not prove the lock was held —
    /// for the read/write-register algorithms a single non-blocking pass can
    /// only establish "I could not prove I may enter", and backing out of the
    /// doorway (resetting the pid's own registers, the paper's crash rule
    /// 1.5–1.7) is itself observable as contention.  The conservative default
    /// always fails; locks with a cheap one-pass entry condition override it.
    fn try_acquire(&self, _pid: usize) -> bool {
        false
    }

    /// Applies the paper's crash rule (assumptions 1.5–1.7) to `pid`: the
    /// process is assumed to have failed at an arbitrary **pre-CS** point —
    /// idle, inside the doorway, or waiting — and restarts in its noncritical
    /// section with all of its own registers reading zero.
    ///
    /// Returns `true` when the abort completed: every register owned by
    /// `pid` reads zero and the pid may re-enter from scratch.  Returns
    /// `false` when the algorithm cannot implement the rule — the
    /// conservative default, used by baseline locks whose protocol state is
    /// not per-process resettable.
    ///
    /// # Safety contract
    /// The caller must guarantee that `pid`'s driving thread is **dead or
    /// will never touch the lock again**, and that `pid` is *not* inside the
    /// critical section (a crash inside the CS must be quarantined instead —
    /// see [`crate::session::SessionPlane::reap`]; zeroing the holder's
    /// registers there would silently break mutual exclusion).
    fn crash_abort(&self, _pid: usize) -> bool {
        false
    }

    // --- metadata surface -------------------------------------------------

    /// A short human-readable algorithm name used in reports.
    fn algorithm_name(&self) -> &'static str;

    /// Number of shared memory words the protocol uses (experiment **E6**,
    /// the paper's O(N) spatial-complexity claim).
    fn shared_word_count(&self) -> usize;

    /// The ticket register bound `M`, if the algorithm bounds its registers.
    fn register_bound(&self) -> Option<u64> {
        None
    }

    /// The lock's statistics block.
    fn stats(&self) -> &LockStats;

    /// The wait plane the lock's blocking paths run through, when the lock
    /// participates in the pluggable [`crate::wait::WaitStrategy`] machinery.
    ///
    /// The session plane uses this to share the lock's strategy (so its
    /// attach waits park alongside the lock's `L2`/`L3` waits), and the async
    /// clients use it to register wakers on the lock's release pulse.  The
    /// conservative default — baseline locks whose release stores are not
    /// instrumented with notifies — returns `None`; their callers fall back
    /// to the process-wide default strategy.
    fn wait_handle(&self) -> Option<&crate::wait::WaitHandle> {
        None
    }

    /// The lock's slot allocator.
    fn slot_allocator(&self) -> &Arc<SlotAllocator>;

    /// Upcast helper so default methods can build guards over `dyn` locks;
    /// every implementation is literally `self`.
    fn as_raw(&self) -> &dyn RawMutexAlgorithm;

    // --- facade surface (default methods) ---------------------------------

    /// Claims the lowest free process slot.
    fn register(&self) -> Result<Slot, SlotError> {
        self.slot_allocator().claim()
    }

    /// Claims a specific process slot (useful for deterministic experiments).
    fn register_exact(&self, pid: usize) -> Result<Slot, SlotError> {
        self.slot_allocator().claim_exact(pid)
    }

    /// Enters the critical section, returning a guard that releases on drop.
    ///
    /// # Panics
    /// Panics if `slot` was allocated by a different lock instance.
    fn lock<'a>(&'a self, slot: &'a Slot) -> CriticalSectionGuard<'a> {
        match self.checked_lock(slot) {
            Ok(guard) => guard,
            Err(err) => panic!("{err}"),
        }
    }

    /// Like [`RawMutexAlgorithm::lock`] but reports a foreign slot as an
    /// error.
    fn checked_lock<'a>(&'a self, slot: &'a Slot) -> Result<CriticalSectionGuard<'a>, LockError> {
        if !slot.belongs_to(self.slot_allocator()) {
            return Err(LockError::ForeignSlot { pid: slot.pid() });
        }
        self.acquire(slot.pid());
        self.stats().record_cs_entry();
        Ok(CriticalSectionGuard::new(self.as_raw(), slot.pid()))
    }

    /// One non-blocking attempt to enter the critical section; `None` when
    /// the attempt failed (possibly spuriously — see
    /// [`RawMutexAlgorithm::try_acquire`]).
    ///
    /// # Panics
    /// Panics if `slot` was allocated by a different lock instance.
    fn try_lock<'a>(&'a self, slot: &'a Slot) -> Option<CriticalSectionGuard<'a>> {
        assert!(
            slot.belongs_to(self.slot_allocator()),
            "{}",
            LockError::ForeignSlot { pid: slot.pid() }
        );
        if self.try_acquire(slot.pid()) {
            self.stats().record_cs_entry();
            Some(CriticalSectionGuard::new(self.as_raw(), slot.pid()))
        } else {
            None
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn lock_error_display() {
        let e = LockError::ForeignSlot { pid: 3 };
        assert!(e.to_string().contains("different lock instance"));
        let e: LockError = SlotError::Exhausted { capacity: 2 }.into();
        assert!(e.to_string().contains("slot allocation failed"));
    }

    #[test]
    fn try_lock_and_default_try_acquire() {
        use crate::bakery_pp::BakeryPlusPlusLock;
        let lock = BakeryPlusPlusLock::with_bound(2, 100);
        let slot = lock.register().unwrap();
        {
            let g = lock.try_lock(&slot).expect("uncontended try_lock succeeds");
            assert_eq!(g.pid(), 0);
        }
        assert_eq!(lock.stats().cs_entries(), 1);

        // A lock without an override conservatively fails.
        struct NoTry(Arc<SlotAllocator>, LockStats);
        impl RawMutexAlgorithm for NoTry {
            fn capacity(&self) -> usize {
                1
            }
            fn acquire(&self, _pid: usize) {}
            fn release(&self, _pid: usize) {}
            fn algorithm_name(&self) -> &'static str {
                "no-try"
            }
            fn shared_word_count(&self) -> usize {
                0
            }
            fn stats(&self) -> &LockStats {
                &self.1
            }
            fn slot_allocator(&self) -> &Arc<SlotAllocator> {
                &self.0
            }
            fn as_raw(&self) -> &dyn RawMutexAlgorithm {
                self
            }
        }
        let lock = NoTry(SlotAllocator::new(1), LockStats::new());
        let slot = lock.register().unwrap();
        assert!(lock.try_lock(&slot).is_none(), "conservative default fails");
        assert_eq!(lock.stats().cs_entries(), 0);
    }

    #[test]
    #[should_panic(expected = "different lock instance")]
    fn try_lock_rejects_foreign_slot() {
        use crate::bakery_pp::BakeryPlusPlusLock;
        let a = BakeryPlusPlusLock::with_bound(2, 100);
        let b = BakeryPlusPlusLock::with_bound(2, 100);
        let slot = a.register().unwrap();
        let _ = b.try_lock(&slot);
    }
}

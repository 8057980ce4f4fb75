//! Bakery++ (Algorithm 2 of the paper) — the overflow-avoiding Bakery.
//!
//! ```text
//! constant M;
//! L1: if ∃ q : number[q] ≥ M then goto L1;
//!     choosing[i] := 1;
//!     number[i]   := maximum(number[1], …, number[N]);
//!     if number[i] ≥ M then begin
//!         number[i] := 0; choosing[i] := 0; goto L1;
//!     end
//!     else number[i] := number[i] + 1;
//!     choosing[i] := 0;
//!     for j = 1 .. N do
//! L2:     if choosing[j] ≠ 0 then goto L2;
//! L3:     if number[j] ≠ 0 and (number[j], j) < (number[i], i) then goto L3;
//!     critical section;
//!     number[i] := 0;
//! ```
//!
//! Only the doorway differs from Algorithm 1, so [`PlusPlus`] is a
//! [`Doorway`] of the shared [`Bakery`] body (which runs the identical
//! `L2`/`L3` scan).  The two additions over Algorithm 1 are kept structurally
//! identical to the paper so the implementation can be audited line by line:
//!
//! 1. the **`L1` admission guard** — a process refuses to start choosing while
//!    any register already holds a value `≥ M` (an *illegitimate situation* in
//!    the paper's terminology), and
//! 2. the **pre-increment check** — the observed maximum is written to
//!    `number[i]` first (always `≤ M`, hence never an overflow), and only
//!    incremented when doing so cannot exceed `M`; otherwise the process
//!    resets its registers and retries from `L1`.
//!
//! Because the only stores are `0`, `maximum(...) ≤ M` and `maximum(...) + 1`
//! guarded by `maximum(...) < M`, no store can ever exceed `M` — the paper's
//! Theorem (§6.1), verified exhaustively by experiment **E2**, checked at
//! runtime by the register file's `Panic` overflow policy, and visible as
//! [`LockStats::overflow_attempts`](crate::LockStats::overflow_attempts)
//! remaining zero.

use std::sync::Arc;

use crate::bakery::{Bakery, Doorway};
use crate::raw::DoorwayOutcome;
use crate::registers::OverflowPolicy;
use crate::snapshot::ScanMode;
use crate::sync::{fence, Ordering};
use crate::wait::WaitStrategy;

/// Default register bound used by [`BakeryPlusPlusLock::new`]: the largest
/// value a 16-bit register can hold.  Small enough that the overflow-avoidance
/// machinery is regularly exercised under heavy contention, large enough that
/// the reset path stays rare (§7's "highly unlikely" case).
pub const DEFAULT_PP_BOUND: u64 = u16::MAX as u64;

/// The Bakery++ lock: first-come-first-served mutual exclusion for up to `N`
/// processes with a hard guarantee that no register ever exceeds its bound.
///
/// ```
/// use bakery_core::{BakeryPlusPlusLock, RawMutexAlgorithm};
///
/// let lock = BakeryPlusPlusLock::with_bound(3, 1000);
/// let slot = lock.register().unwrap();
/// for _ in 0..10 {
///     let _guard = lock.lock(&slot);
/// }
/// assert_eq!(lock.stats().overflow_attempts(), 0);
/// ```
pub type BakeryPlusPlusLock = Bakery<PlusPlus>;

/// Algorithm 2's doorway: the `L1` guard plus the pre-increment check.
#[derive(Debug)]
pub struct PlusPlus;

impl Doorway for PlusPlus {
    const NAME: &'static str = "bakery++";
    const GUARDED: bool = true;
    /// Panic: the Theorem says Bakery++ never asks a register to store a
    /// value above `M`, so such a store would be a bug in this crate and
    /// gets the loudest possible failure.
    const OVERFLOW: OverflowPolicy = OverflowPolicy::Panic;

    /// Outcomes:
    /// * [`DoorwayOutcome::Blocked`] — the `L1` guard saw a register `≥ M`;
    /// * [`DoorwayOutcome::Reset`] — the observed maximum was `≥ M`, so the
    ///   process reset its registers (`number[i] := 0; choosing[i] := 0`);
    /// * [`DoorwayOutcome::Ticket`] — a ticket `maximum + 1 ≤ M` was stored.
    fn pass(lock: &Bakery<Self>, pid: usize) -> DoorwayOutcome {
        // L1: if ∃ q : number[q] >= M then retry later.
        if lock.situation_is_illegitimate() {
            return DoorwayOutcome::Blocked;
        }
        let (file, stats, waits) = (&lock.file, &lock.stats, &lock.waits);
        file.write_choosing(pid, true);
        // Handshake fence #1 (see `Classic::pass`): the `choosing[i] := 1`
        // store must be visible before the scan's loads, so two concurrent
        // choosers cannot both miss each other.
        fence(Ordering::SeqCst); // mem: doorway-dekker.choosing
        let max = file.packed().max_number();
        let bound = file.bound();
        // Store the maximum first, exactly as Algorithm 2 does.  Every
        // register individually holds a value <= M, so max <= M and this store
        // can never overflow.
        debug_assert!(max <= bound);
        file.write_number(pid, max, stats);

        if max >= bound {
            // Reset branch: number[i] := 0; choosing[i] := 0; goto L1.
            file.write_number(pid, 0, stats);
            file.write_choosing(pid, false);
            stats.record_reset();
            // The transient `number[i] := max` parked at M was itself an
            // illegitimate-situation source; zeroing it may unblock both L1
            // waiters and L3 waiters ordered behind the transient value.
            waits.notify(lock.ticket_site(pid));
            waits.notify(lock.choosing_site(pid));
            waits.notify(waits.guard());
            return DoorwayOutcome::Reset;
        }

        // Safe to increment: max < M implies max + 1 <= M.
        file.write_number(pid, max + 1, stats);
        stats.record_ticket(max + 1);
        // Handshake fence #2: the ticket store must be visible before the
        // L2/L3 loads (including the fast-path emptiness check).
        fence(Ordering::SeqCst); // mem: doorway-dekker.ticket
        file.write_choosing(pid, false);
        // Unlike the classic doorway, the `max → max + 1` increment *can*
        // flip a tie-breaking L3 wait to "pass" (a waiter with the same
        // ticket and a higher pid stops losing the lexicographic comparison
        // to the transient `max`), so the ticket site is notified too.
        waits.notify(lock.ticket_site(pid));
        waits.notify(lock.choosing_site(pid));
        DoorwayOutcome::Ticket(max + 1)
    }
}

impl BakeryPlusPlusLock {
    /// Creates a Bakery++ lock for `n` processes with the default bound
    /// [`DEFAULT_PP_BOUND`].
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_bound(n, DEFAULT_PP_BOUND)
    }

    /// Creates a Bakery++ lock for `n` processes whose registers are bounded
    /// by `bound` (the paper's constant `M`).
    ///
    /// # Panics
    /// Panics if `bound == 0`: with `M = 0` no process could ever take a
    /// ticket, so the constant must be at least 1 (the paper implicitly
    /// assumes `M ≥ 1` since tickets start at 1).
    #[must_use]
    pub fn with_bound(n: usize, bound: u64) -> Self {
        Self::with_bound_and_strategy(n, bound, crate::wait::default_strategy())
    }

    /// Creates a Bakery++ lock with an explicit [`WaitStrategy`] for its
    /// `L1`/`L2`/`L3` wait loops.
    ///
    /// # Panics
    /// Panics if `bound == 0` (see [`BakeryPlusPlusLock::with_bound`]).
    #[must_use]
    pub fn with_bound_and_strategy(n: usize, bound: u64, strategy: Arc<dyn WaitStrategy>) -> Self {
        assert!(bound >= 1, "the register bound M must be at least 1");
        Self::from_parts(n, bound, strategy)
    }

    /// [`BakeryPlusPlusLock::with_bound_and_strategy`] under the signature
    /// the repository benchmark (`perfbench/`) is built against; nothing
    /// else calls it.
    ///
    /// # Panics
    /// Panics if `bound == 0` (see [`BakeryPlusPlusLock::with_bound`]).
    #[must_use]
    pub fn with_bound_mode_and_strategy(
        n: usize,
        bound: u64,
        _mode: ScanMode,
        strategy: Arc<dyn WaitStrategy>,
    ) -> Self {
        Self::with_bound_and_strategy(n, bound, strategy)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::raw::RawMutexAlgorithm;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_process_can_enter_repeatedly() {
        let lock = BakeryPlusPlusLock::with_bound(1, 10);
        let slot = lock.register().unwrap();
        for _ in 0..25 {
            let _g = lock.lock(&slot);
        }
        assert_eq!(lock.stats().cs_entries(), 25);
        assert_eq!(lock.stats().overflow_attempts(), 0);
    }

    #[test]
    #[should_panic(expected = "M must be at least 1")]
    fn zero_bound_is_rejected() {
        let _ = BakeryPlusPlusLock::with_bound(2, 0);
    }

    #[test]
    fn default_bound_is_sixteen_bit() {
        let lock = BakeryPlusPlusLock::new(2);
        assert_eq!(lock.bound(), u64::from(u16::MAX));
        assert_eq!(lock.register_bound(), Some(u64::from(u16::MAX)));
    }

    /// The §3 alternation scenario that overflows the classic Bakery: with
    /// Bakery++ the ticket is capped by M, the doorway reports `Reset` or
    /// `Blocked` instead of overflowing, and after the bakery drains the
    /// processes continue normally.
    #[test]
    fn alternation_never_exceeds_bound() {
        let bound = 5;
        let lock = BakeryPlusPlusLock::with_bound(2, bound);
        assert_eq!(lock.try_doorway(0), DoorwayOutcome::Ticket(1));
        let mut capped = false;
        let mut completed = 0u64;
        let mut pending = 0usize; // process currently holding a ticket
        for round in 0..200 {
            let entering = 1 - pending;
            match lock.try_doorway(entering) {
                DoorwayOutcome::Ticket(number) => {
                    assert!(number <= bound);
                    // The process that was already in the bakery gets served.
                    lock.await_turn(pending);
                    lock.release(pending);
                    completed += 1;
                    pending = entering;
                }
                DoorwayOutcome::Reset | DoorwayOutcome::Blocked => {
                    capped = true;
                    // The entering process backs off; the pending process is
                    // served, which drains the bakery and re-legitimises the
                    // situation.
                    lock.await_turn(pending);
                    lock.release(pending);
                    completed += 1;
                    // Now the formerly blocked process can take ticket 1.
                    let retry = lock.try_doorway(entering);
                    assert!(retry.took_ticket(), "empty bakery must admit, got {retry:?} at round {round}");
                    pending = entering;
                }
                DoorwayOutcome::Overflowed { .. } => panic!("Bakery++ must never overflow"),
            }
        }
        assert!(capped, "with M = {bound} the cap must be hit");
        assert!(completed >= 190);
        assert_eq!(lock.stats().overflow_attempts(), 0);
        assert!(lock.stats().max_ticket() <= bound);
    }

    #[test]
    fn blocked_when_some_register_is_at_bound() {
        let lock = BakeryPlusPlusLock::with_bound(2, 4);
        lock.file.write_number(1, 4, &lock.stats);
        assert!(lock.situation_is_illegitimate());
        assert_eq!(lock.try_doorway(0), DoorwayOutcome::Blocked);
        lock.crash_reset(1);
        assert!(!lock.situation_is_illegitimate());
        assert_eq!(lock.try_doorway(0), DoorwayOutcome::Ticket(1));
        lock.release(0);
    }

    #[test]
    fn reset_branch_when_maximum_reaches_bound_after_admission() {
        // The L1 guard uses >= M, but a register can reach M-1 legitimately;
        // then maximum + 1 would be exactly M which is still storable, so the
        // reset branch only triggers when maximum itself is >= M.  Construct
        // that window explicitly: admit process 0 (all registers < M), then
        // raise process 1's register to M before process 0 reads the maximum.
        // With the single-pass API we emulate the interleaving by hand.
        let lock = BakeryPlusPlusLock::with_bound(2, 4);
        lock.file.write_number(1, 3, &lock.stats);
        // Process 0 passes L1 (3 < 4) and draws max 3 -> ticket 4 == M: legal.
        assert_eq!(lock.try_doorway(0), DoorwayOutcome::Ticket(4));
        lock.release(0);
        // Now process 1's register is still 3 and process 0 re-tries while a
        // register equal to M exists -> Blocked path already covered; the
        // Reset branch itself requires observing max >= M after admission,
        // which a sequential caller cannot produce (the L1 guard and the
        // maximum read see the same values).  That interleaving is exercised
        // by the model checker (experiment E2); here we simply document that
        // the sequential API keeps the invariant.
        assert!(lock.stats().max_ticket() <= 4);
        assert_eq!(lock.stats().overflow_attempts(), 0);
        lock.crash_reset(1);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let lock = Arc::new(BakeryPlusPlusLock::with_bound(4, 1000));
        let counter = Arc::new(AtomicU64::new(0));
        let in_cs = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                let in_cs = Arc::clone(&in_cs);
                scope.spawn(move || {
                    let slot = lock.register().unwrap();
                    for _ in 0..500 {
                        let _g = lock.lock(&slot);
                        let inside = in_cs.fetch_add(1, Ordering::SeqCst);
                        assert_eq!(inside, 0, "two processes inside the critical section");
                        counter.fetch_add(1, Ordering::SeqCst);
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 2000);
        assert_eq!(lock.stats().cs_entries(), 2000);
        assert_eq!(lock.stats().overflow_attempts(), 0);
    }

    #[test]
    fn mutual_exclusion_with_tiny_bound_forces_resets() {
        // With M = 3 and four contending threads the reset/L1 machinery is
        // exercised constantly; mutual exclusion and overflow freedom must
        // still hold (the §7 "price of guaranteeing no overflows" case).
        let lock = Arc::new(BakeryPlusPlusLock::with_bound(4, 3));
        let in_cs = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let lock = Arc::clone(&lock);
                let in_cs = Arc::clone(&in_cs);
                scope.spawn(move || {
                    let slot = lock.register().unwrap();
                    for _ in 0..200 {
                        let _g = lock.lock(&slot);
                        assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(lock.stats().cs_entries(), 800);
        assert_eq!(lock.stats().overflow_attempts(), 0);
        assert!(lock.stats().max_ticket() <= 3);
    }

    #[test]
    fn uncontended_acquires_take_the_fast_path() {
        let lock = BakeryPlusPlusLock::with_bound(4, 65_535);
        let slot = lock.register().unwrap();
        for _ in 0..50 {
            let _g = lock.lock(&slot);
        }
        assert_eq!(lock.stats().fast_path_hits(), 50);
        assert_eq!(lock.stats().doorway_waits(), 0);
        assert_eq!(lock.stats().overflow_attempts(), 0);
    }

    #[test]
    fn mutual_exclusion_with_u8_lanes_under_contention() {
        // M = 255 with 40 slots selects u8 ticket lanes: the four active
        // contenders (slots 0..3) share one packed word, the tightest
        // false-sharing configuration of the plane.
        let lock = Arc::new(BakeryPlusPlusLock::with_bound(40, 255));
        assert_eq!(
            lock.registers().packed().width(),
            crate::snapshot::LaneWidth::U8
        );
        let in_cs = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let lock = Arc::clone(&lock);
                let in_cs = Arc::clone(&in_cs);
                scope.spawn(move || {
                    let slot = lock.register().unwrap();
                    for _ in 0..400 {
                        let _g = lock.lock(&slot);
                        assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(lock.stats().cs_entries(), 1600);
        assert_eq!(lock.stats().overflow_attempts(), 0);
        assert!(lock.stats().max_ticket() <= 255);
    }

    #[test]
    fn shared_footprint_matches_original_bakery() {
        use crate::bakery::BakeryLock;
        let pp = BakeryPlusPlusLock::with_bound(6, 100);
        let classic = BakeryLock::new(6);
        assert_eq!(pp.shared_word_count(), classic.shared_word_count());
    }

    #[test]
    fn may_enter_reflects_ticket_priority() {
        let lock = BakeryPlusPlusLock::with_bound(2, 100);
        assert!(!lock.may_enter(0));
        assert!(lock.try_doorway(0).took_ticket());
        assert!(lock.try_doorway(1).took_ticket());
        assert!(lock.may_enter(0));
        assert!(!lock.may_enter(1));
        lock.release(0);
        assert!(lock.may_enter(1));
        lock.release(1);
    }

    #[test]
    fn crash_reset_unblocks_l1_guard() {
        let lock = BakeryPlusPlusLock::with_bound(2, 4);
        let a = lock.register_exact(0).unwrap();
        // Process 1 "crashes" with a register stuck at M; after reset the L1
        // guard must admit process 0.
        lock.file.write_number(1, 4, &lock.stats);
        lock.crash_reset(1);
        let _g = lock.lock(&a);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn doorway_rejects_out_of_range_pid() {
        let lock = BakeryPlusPlusLock::with_bound(2, 4);
        let _ = lock.try_doorway(7);
    }
}

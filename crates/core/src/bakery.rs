//! Lamport's original Bakery algorithm (Algorithm 1 of the paper) and the
//! lock body it shares with Bakery++.
//!
//! ```text
//! L1: choosing[i] := 1;
//!     number[i]   := 1 + maximum(number[1], …, number[N]);
//!     choosing[i] := 0;
//!     for j = 1 .. N do
//! L2:     if choosing[j] ≠ 0 then goto L2;
//! L3:     if number[j] ≠ 0 and (number[j], j) < (number[i], i) then goto L3;
//!     critical section;
//!     number[i] := 0;
//! ```
//!
//! Algorithms 1 and 2 differ only in their doorway, so one lock body,
//! [`Bakery`], holds everything they share: the register file, the `L2`/`L3`
//! scan, the `try_acquire` back-out, the crash rule and the
//! [`RawMutexAlgorithm`] impl.  A [`Doorway`] type parameter supplies the
//! rest: [`Classic`] (below, next to its listing) and
//! [`PlusPlus`](crate::bakery_pp::PlusPlus) (next to Algorithm 2's listing in
//! [`crate::bakery_pp`]).
//!
//! The algorithm assumes *unbounded* registers.  [`BakeryLock`] makes the
//! register bound explicit: with the default bound (`u64::MAX`) it behaves as
//! the textbook algorithm, and with a small bound it exhibits exactly the
//! failure the paper's Section 3 predicts — the ticket `1 + maximum(...)`
//! eventually exceeds `M` and its doorway's [`OverflowPolicy`] (machine
//! wrap-around) silently corrupts the ordering, which can violate
//! mutual exclusion.  Experiments **E1** and **E2** demonstrate both halves.
//!
//! Besides the blocking [`RawMutexAlgorithm::acquire`] path the lock exposes the
//! two protocol phases separately — [`Bakery::try_doorway`] and
//! [`Bakery::await_turn`] — so the experiment harness can replay the
//! paper's prose scenarios deterministically without spawning threads.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::raw::{DoorwayOutcome, RawMutexAlgorithm};
use crate::registers::{OverflowPolicy, RegisterFile};
use crate::slots::SlotAllocator;
use crate::stats::LockStats;
use crate::sync::{fence, Ordering};
use crate::ticket::{Ticket, TicketOrder};
use crate::wait::{WaitHandle, WaitSite, WaitStrategy, WaitToken};
use crate::DEFAULT_BOUND;

/// What distinguishes one bakery algorithm from another: its doorway.
pub trait Doorway: Sized {
    /// The name [`RawMutexAlgorithm::algorithm_name`] reports.
    const NAME: &'static str;
    /// True when a zeroed ticket must also wake the `L1` admission guard
    /// (Bakery++'s guard watches every register; the classic doorway has
    /// none).
    const GUARDED: bool;
    /// What a `number` store above the bound `M` does.
    const OVERFLOW: OverflowPolicy;
    /// One pass through the doorway for `pid` (already range-checked).
    fn pass(lock: &Bakery<Self>, pid: usize) -> DoorwayOutcome;
}

/// A bakery lock for up to `N` processes: the shared body of Algorithms 1
/// and 2, parameterised by its [`Doorway`].  Use it through the
/// [`BakeryLock`] and [`BakeryPlusPlusLock`](crate::BakeryPlusPlusLock)
/// aliases.
#[derive(Debug)]
pub struct Bakery<D> {
    pub(crate) file: RegisterFile,
    slots: Arc<SlotAllocator>,
    pub(crate) stats: LockStats,
    pub(crate) waits: WaitHandle,
    doorway: PhantomData<fn() -> D>,
}

/// Lamport's Bakery lock for up to `N` processes.
///
/// ```
/// use bakery_core::{BakeryLock, RawMutexAlgorithm};
///
/// let lock = BakeryLock::new(2);
/// let slot = lock.register().unwrap();
/// let _guard = lock.lock(&slot);
/// ```
pub type BakeryLock = Bakery<Classic>;

/// Algorithm 1's doorway: draw `1 + maximum(...)`, with no guard.
#[derive(Debug)]
pub struct Classic;

impl Doorway for Classic {
    const NAME: &'static str = "bakery";
    const GUARDED: bool = false;
    /// Wrap, as fixed-width machine registers do: the paper's Section 3
    /// failure.
    const OVERFLOW: OverflowPolicy = OverflowPolicy::Wrap;

    /// The classic algorithm has no guard, so this never blocks and never
    /// resets; the only non-`Ticket` outcome is
    /// [`DoorwayOutcome::Overflowed`] when the register bound is exceeded.
    fn pass(lock: &Bakery<Self>, pid: usize) -> DoorwayOutcome {
        lock.file.write_choosing(pid, true);
        // Handshake fence #1: the `choosing[i] := 1` store must be globally
        // visible before the maximum scan's loads.  Two processes in the
        // doorway simultaneously must not *both* miss each other — the
        // SC-fence pairing with fence #2 / the scan of the other process
        // guarantees at least one side observes the other (the Dekker
        // store-load lemma).
        fence(Ordering::SeqCst); // mem: doorway-dekker.choosing
        let max = lock.file.packed().max_number();
        // `max + 1` may exceed the register bound; the register applies the
        // wrap policy and records the overflow.  This is the exact
        // failure point the paper's Section 3 identifies.
        let attempted = max.saturating_add(1);
        let event = lock.file.write_number(pid, attempted, &lock.stats);
        let stored = event.map_or(attempted, |ev| ev.stored);
        lock.stats.record_ticket(stored);
        // Handshake fence #2: the ticket store must be visible before this
        // process's L2/L3 loads (including the fast-path emptiness check),
        // pairing with fence #1 of any concurrent chooser.
        fence(Ordering::SeqCst); // mem: doorway-dekker.ticket
        lock.file.write_choosing(pid, false);
        // `choosing[i] := 0` releases every L2 waiter watching this word.
        // The ticket store needs no notify: a doorway write only raises a
        // register from zero, which can never flip an L3 wait to "pass".
        lock.waits.notify(lock.choosing_site(pid));
        match event {
            Some(ev) => DoorwayOutcome::Overflowed {
                attempted: ev.attempted,
                stored: ev.stored,
            },
            None => DoorwayOutcome::Ticket(stored),
        }
    }
}

impl BakeryLock {
    /// Creates a Bakery lock for `n` processes with effectively unbounded
    /// (64-bit) ticket registers.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_bound(n, DEFAULT_BOUND)
    }

    /// Creates a Bakery lock whose ticket registers are bounded by `bound`
    /// and wrap on overflow — the behaviour of real machine registers.
    #[must_use]
    pub fn with_bound(n: usize, bound: u64) -> Self {
        Self::with_config_and_strategy(n, bound, crate::wait::default_strategy())
    }

    /// Creates a Bakery lock with an explicit [`WaitStrategy`] for its
    /// `L2`/`L3` wait loops (on top of [`Self::with_bound`]).
    #[must_use]
    pub fn with_config_and_strategy(n: usize, bound: u64, strategy: Arc<dyn WaitStrategy>) -> Self {
        Self::from_parts(n, bound, strategy)
    }
}

impl<D: Doorway> Bakery<D> {
    pub(crate) fn from_parts(n: usize, bound: u64, strategy: Arc<dyn WaitStrategy>) -> Self {
        Self {
            file: RegisterFile::new(n, bound, D::OVERFLOW),
            slots: SlotAllocator::new(n),
            stats: LockStats::new(),
            waits: WaitHandle::new(strategy),
            doorway: PhantomData,
        }
    }

    /// The wait plane this lock's blocking paths run through.
    #[must_use]
    pub fn wait_plane(&self) -> &WaitHandle {
        &self.waits
    }

    /// The register bound `M`.
    #[must_use]
    pub fn bound(&self) -> u64 {
        self.file.bound()
    }

    /// The shared register file (read-only view used by tests and experiments).
    #[must_use]
    pub fn registers(&self) -> &RegisterFile {
        &self.file
    }

    /// The ticket this process currently holds (0 when idle or resetting).
    #[must_use]
    pub fn current_ticket(&self, pid: usize) -> Ticket {
        Ticket::new(self.file.read_number(pid), pid)
    }

    /// The `L2` wait site for `pid`'s choosing bit (one bitmap word covers
    /// 64 pids).
    pub(crate) fn choosing_site(&self, pid: usize) -> WaitSite {
        self.waits.choosing(pid / 64)
    }

    /// The `L3` wait site for `pid`'s ticket (one site per lane word).
    pub(crate) fn ticket_site(&self, pid: usize) -> WaitSite {
        self.waits.ticket(self.file.packed().lane_word(pid))
    }

    /// Emulates a crash/restart of process `pid` outside its critical section
    /// (paper assumptions 1.5–1.7): both of its registers are reset to zero.
    pub fn crash_reset(&self, pid: usize) {
        self.file.reset_process(pid);
        // Both registers flipped to zero: wake L2 waiters on the choosing
        // word, L3 waiters on the ticket word, L1 waiters (the crashed
        // register may have been the one holding the situation
        // illegitimate) and async lock futures.
        self.waits.notify(self.choosing_site(pid));
        self.waits.notify(self.ticket_site(pid));
        if D::GUARDED {
            self.waits.notify(self.waits.guard());
        }
        self.waits.notify(self.waits.release());
    }

    /// True when some register currently holds a value `≥ M` — the paper's
    /// *illegitimate situation* that Bakery++'s `L1` guard waits out.
    ///
    /// Since every register individually holds a value `≤ M`,
    /// `∃q: number[q] ≥ M` is equivalent to `maximum ≥ M`, answered from the
    /// packed plane in `O(N/8)` word reads.
    #[must_use]
    pub fn situation_is_illegitimate(&self) -> bool {
        self.file.packed().max_number() >= self.file.bound()
    }

    /// One non-blocking pass through the doorway (see [`Classic`] and
    /// [`PlusPlus`](crate::bakery_pp::PlusPlus) for the outcomes each can
    /// return).  The blocking [`RawMutexAlgorithm::acquire`] retries it
    /// until a ticket is obtained; the harness records the intermediate
    /// outcomes for experiments **E1** and **E6**.
    ///
    /// # Panics
    /// Panics if `pid` is not below the lock's capacity.
    pub fn try_doorway(&self, pid: usize) -> DoorwayOutcome {
        assert!(pid < self.capacity(), "pid {pid} out of range");
        D::pass(self, pid)
    }

    /// The scan (`L2`/`L3`): wait until every other process is done choosing
    /// and no other process holds a smaller `(number, pid)` pair.
    ///
    /// An empty-bakery check against the packed plane gives the uncontended
    /// **fast path**: when no other process is choosing or holds a ticket,
    /// the whole per-contender loop is skipped after reading `O(N/8)` words.
    pub fn await_turn(&self, pid: usize) {
        self.scan::<true>(pid);
    }

    /// Non-blocking check of the scan condition: would process `pid` be
    /// allowed into the critical section right now?
    #[must_use]
    pub fn may_enter(&self, pid: usize) -> bool {
        self.file.read_number(pid) != 0 && self.scan::<false>(pid)
    }

    /// The `L2`/`L3` loops, identical in Algorithms 1 and 2.  With `BLOCK`
    /// each predicate is waited out and the scan always returns `true`;
    /// without it the same reads answer "would this wait?" and the scan
    /// returns `false` at the first predicate that would.
    ///
    /// The fast path first reads the choosing bitmap and then the ticket
    /// lanes — the same `L2`-before-`L3` order as the per-process loops — and
    /// an all-zero observation is exactly the evidence on which every
    /// `L2`/`L3` iteration would fall through without waiting, so skipping
    /// the loop is behaviourally identical to running it against those reads.
    fn scan<const BLOCK: bool>(&self, pid: usize) -> bool {
        let packed = self.file.packed();
        if !packed.has_other_contenders(pid) {
            if BLOCK {
                self.stats.record_fast_path_hit();
            }
            return true;
        }
        let wh = &self.waits;
        let mut waits = 0u64;
        for j in (0..packed.len()).filter(|&j| j != pid) {
            // Fresh escalation state per watched contender, reset between the
            // L2 and L3 predicates — the episode policy the wait contract pins.
            let mut token = WaitToken::new();
            let l2 = self.choosing_site(j);
            // L2: wait while process j is choosing.
            while packed.choosing(j) {
                if !BLOCK {
                    return false;
                }
                waits += 1;
                wh.wait(l2, &mut token, &mut || packed.choosing(j));
            }
            token.reset();
            let l3 = self.ticket_site(j);
            // L3: wait while process j holds a smaller (number, pid) pair.
            let mut behind_j = || {
                let me = Ticket::new(packed.number(pid), pid);
                TicketOrder::must_wait_for(me, Ticket::new(packed.number(j), j))
            };
            while behind_j() {
                if !BLOCK {
                    return false;
                }
                waits += 1;
                wh.wait(l3, &mut token, &mut behind_j);
            }
        }
        self.stats.record_doorway_waits(waits);
        true
    }

    /// Zeroes `pid`'s ticket and wakes what that can unblock: `L3` waiters
    /// ordered behind it and, under a guarded doorway, `L1` waiters.
    fn withdraw(&self, pid: usize) {
        self.file.write_number(pid, 0, &self.stats);
        self.waits.notify(self.ticket_site(pid));
        if D::GUARDED {
            self.waits.notify(self.waits.guard());
        }
    }
}

impl<D: Doorway> RawMutexAlgorithm for Bakery<D> {
    fn capacity(&self) -> usize {
        self.file.len()
    }

    fn acquire(&self, pid: usize) {
        // One wait episode across the whole doorway retry loop: Blocked and
        // Reset both re-watch the same admission predicate, so escalation
        // carries across retries (the episode-policy exception the wait
        // contract documents).  The classic doorway never returns either.
        let mut token = WaitToken::new();
        let mut l1_rounds = 0u64;
        loop {
            let outcome = self.try_doorway(pid);
            if outcome.took_ticket() {
                break;
            }
            l1_rounds += u64::from(outcome == DoorwayOutcome::Blocked);
            self.waits.wait(self.waits.guard(), &mut token, &mut || {
                self.situation_is_illegitimate()
            });
        }
        self.stats.record_l1_waits(l1_rounds);
        self.await_turn(pid);
    }

    fn release(&self, pid: usize) {
        // The zero store may flip L3 waits behind this ticket and
        // re-legitimise the situation for L1 waiters; the release pulse
        // serves the async lock futures.
        self.withdraw(pid);
        self.waits.notify(self.waits.release());
    }

    fn try_acquire(&self, pid: usize) -> bool {
        // One doorway pass (Blocked/Reset already leave the registers clean),
        // then one non-blocking evaluation of the L2/L3 condition.  Backing
        // out of a held ticket resets the pid's own registers — the paper's
        // doorway-crash rule (assumptions 1.5–1.7), so safety is unaffected.
        if !self.try_doorway(pid).took_ticket() {
            return false;
        }
        if self.may_enter(pid) {
            return true;
        }
        self.withdraw(pid);
        false
    }

    fn crash_abort(&self, pid: usize) -> bool {
        // The paper's crash rule is exactly `crash_reset`: zero the pid's
        // `choosing`/`number` registers so the restarted process re-enters
        // from the noncritical section.  This is the same backout
        // `try_acquire` performs on its failure path, applicable from *any*
        // pre-CS point.
        self.crash_reset(pid);
        self.stats.record_crash_abort();
        true
    }

    fn algorithm_name(&self) -> &'static str {
        D::NAME
    }

    fn shared_word_count(&self) -> usize {
        // choosing[1..N] and number[1..N]; the constant M is not a shared
        // variable.
        2 * self.file.len()
    }

    fn register_bound(&self) -> Option<u64> {
        Some(self.file.bound())
    }

    fn slot_allocator(&self) -> &Arc<SlotAllocator> {
        &self.slots
    }

    fn stats(&self) -> &LockStats {
        &self.stats
    }

    fn wait_handle(&self) -> Option<&WaitHandle> {
        Some(&self.waits)
    }

    fn as_raw(&self) -> &dyn RawMutexAlgorithm {
        self
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_process_can_enter_repeatedly() {
        let lock = BakeryLock::new(1);
        let slot = lock.register().unwrap();
        for _ in 0..10 {
            let _g = lock.lock(&slot);
        }
        assert_eq!(lock.stats().cs_entries(), 10);
    }

    #[test]
    fn lone_process_ticket_resets_to_one() {
        let lock = BakeryLock::new(2);
        let a = lock.register_exact(0).unwrap();
        // With nobody else in the bakery the ticket is always 1.
        for _ in 0..5 {
            let g = lock.lock(&a);
            assert_eq!(lock.current_ticket(0).number, 1);
            drop(g);
        }
        assert_eq!(lock.stats().max_ticket(), 1);
    }

    /// The paper §3: two processes alternating their critical sections keep
    /// at least one non-zero ticket in the bakery at all times, so the ticket
    /// value grows without bound.  Replayed deterministically through the
    /// split doorway/scan API.
    #[test]
    fn alternating_processes_grow_tickets_without_bound() {
        let lock = BakeryLock::new(2);
        let mut last = 0u64;
        // A takes a ticket first.
        assert_eq!(lock.try_doorway(0), DoorwayOutcome::Ticket(1));
        for round in 0..100 {
            // The other process takes its ticket while the first still holds
            // one, then the first releases and re-enters the bakery, and so on.
            let (leaving, entering) = if round % 2 == 0 { (0, 1) } else { (1, 0) };
            let outcome = lock.try_doorway(entering);
            let DoorwayOutcome::Ticket(number) = outcome else {
                panic!("unbounded bakery never overflows, got {outcome:?}");
            };
            assert!(number > last, "ticket values must keep growing");
            last = number;
            lock.await_turn(leaving);
            lock.release(leaving);
        }
        assert!(lock.stats().max_ticket() >= 100);
        assert_eq!(lock.stats().overflow_attempts(), 0);
    }

    /// The same alternation on bounded registers overflows (§3): the classic
    /// algorithm has no defence.
    #[test]
    fn alternating_processes_overflow_bounded_registers() {
        let bound = 5;
        let lock = BakeryLock::with_bound(2, bound);
        assert!(lock.try_doorway(0).took_ticket());
        let mut saw_overflow = false;
        for round in 0..50 {
            let (leaving, entering) = if round % 2 == 0 { (0, 1) } else { (1, 0) };
            if let DoorwayOutcome::Overflowed { attempted, stored } = lock.try_doorway(entering) {
                assert!(attempted > bound);
                assert!(stored <= bound);
                saw_overflow = true;
                break;
            }
            lock.release(leaving);
        }
        assert!(saw_overflow, "bounded classic Bakery must overflow");
        assert!(lock.stats().overflow_attempts() > 0);
    }

    /// After a wrap-around the overflowed process can overtake a process with
    /// a (numerically larger) older ticket — the FIFO order the paper
    /// advertises is broken, which is the root of the §3 malfunction.
    #[test]
    fn wrapped_ticket_overtakes_older_ticket() {
        let lock = BakeryLock::with_bound(2, 3);
        // Process 0 legitimately holds the maximum ticket value.
        assert!(lock.try_doorway(0).took_ticket()); // ticket 1
        lock.release(0);
        lock.file.write_number(0, 3, &lock.stats); // simulate an old ticket at M
        // Process 1 draws next: 1 + 3 = 4 > M, wraps to 0 or a small value.
        let outcome = lock.try_doorway(1);
        let DoorwayOutcome::Overflowed { stored, .. } = outcome else {
            panic!("expected an overflow, got {outcome:?}");
        };
        // The wrapped value is smaller than the older ticket, so process 1 now
        // (incorrectly) believes it has priority whenever stored is non-zero,
        // or is treated as idle when stored == 0 — either way FCFS is lost.
        assert!(stored < 3);
        lock.crash_reset(0);
        lock.crash_reset(1);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let lock = Arc::new(BakeryLock::new(4));
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let in_cs = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                let in_cs = Arc::clone(&in_cs);
                scope.spawn(move || {
                    let slot = lock.register().unwrap();
                    for _ in 0..500 {
                        let _g = lock.lock(&slot);
                        let inside = in_cs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        assert_eq!(inside, 0, "two processes inside the critical section");
                        counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        in_cs.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 2000);
        assert_eq!(lock.stats().cs_entries(), 2000);
    }

    #[test]
    fn crash_reset_unblocks_other_processes() {
        let lock = BakeryLock::new(2);
        let a = lock.register_exact(0).unwrap();
        // Simulate process 1 crashing mid-doorway with choosing set: reads of
        // a crashed process eventually return zero (assumption 1.7), which we
        // model by resetting its registers.
        lock.file.write_choosing(1, true);
        lock.crash_reset(1);
        let _g = lock.lock(&a); // must not hang on choosing[1]
    }

    #[test]
    fn may_enter_reflects_ticket_priority() {
        let lock = BakeryLock::new(2);
        assert!(!lock.may_enter(0), "idle process may not enter");
        assert!(lock.try_doorway(0).took_ticket());
        assert!(lock.try_doorway(1).took_ticket());
        assert!(lock.may_enter(0), "older ticket has priority");
        assert!(!lock.may_enter(1), "younger ticket must wait");
        lock.release(0);
        assert!(lock.may_enter(1));
        lock.release(1);
    }

    #[test]
    fn may_enter_refuses_while_another_process_is_choosing() {
        let lock = BakeryLock::new(3);
        assert!(lock.try_doorway(0).took_ticket());
        lock.file.write_choosing(2, true);
        assert!(!lock.may_enter(0), "L2: a chooser must be waited out");
        lock.file.write_choosing(2, false);
        assert!(lock.may_enter(0));
        assert_eq!(lock.stats().fast_path_hits(), 0, "no fast-path hit counted");
        lock.release(0);
    }

    #[test]
    fn metadata_accessors() {
        let lock = BakeryLock::with_bound(3, 7);
        assert_eq!(lock.capacity(), 3);
        assert_eq!(lock.algorithm_name(), "bakery");
        assert_eq!(lock.shared_word_count(), 6);
        assert_eq!(lock.register_bound(), Some(7));
        assert_eq!(lock.registers().bound(), 7);
    }

    #[test]
    fn uncontended_acquires_take_the_fast_path() {
        let lock = BakeryLock::new(4);
        let slot = lock.register().unwrap();
        for _ in 0..25 {
            let _g = lock.lock(&slot);
        }
        assert_eq!(lock.stats().fast_path_hits(), 25, "empty bakery every time");
        assert_eq!(lock.stats().doorway_waits(), 0);
    }

    #[test]
    fn fast_path_is_skipped_while_another_ticket_is_live() {
        let lock = BakeryLock::new(2);
        assert!(lock.try_doorway(1).took_ticket()); // standing customer
        assert!(lock.try_doorway(0).took_ticket());
        lock.await_turn(1); // pid 1 has the older ticket: enters first
        assert_eq!(lock.stats().fast_path_hits(), 0);
        lock.release(1);
        lock.await_turn(0);
        lock.release(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn acquire_rejects_out_of_range_pid() {
        let lock = BakeryLock::new(2);
        lock.acquire(5);
    }

    #[test]
    #[should_panic(expected = "different lock instance")]
    fn foreign_slot_is_rejected() {
        let lock_a = BakeryLock::new(2);
        let lock_b = BakeryLock::new(2);
        let slot_b = lock_b.register().unwrap();
        let _ = lock_a.lock(&slot_b);
    }
}

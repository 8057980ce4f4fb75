//! Lamport's Bakery as a straightforward port: one cache-padded atomic per
//! register and `SeqCst` on every access.
//!
//! This is the reference the packed locks in `bakery-core` are measured
//! against (tables E6d and E7c of `bakery-experiments`): the same Algorithm 1,
//! laid out one register per cache line with blanket sequential consistency.
//! It shares no code with `bakery-core`'s locks, so the comparison covers
//! the packed plane, the empty-bakery fast path and the two-fence ordering
//! discipline together.  Tickets are plain `u64`s, as in the textbook.

use std::sync::Arc;

use bakery_core::slots::SlotAllocator;
use bakery_core::sync::{AtomicBool, AtomicU64, Ordering};
use bakery_core::ticket::{Ticket, TicketOrder};
use bakery_core::wait::{WaitHandle, WaitToken};
use bakery_core::{LockStats, RawMutexAlgorithm};
use crossbeam::utils::CachePadded;

use crate::lock_accessors;

/// The all-`SeqCst` reference Bakery lock for `N` processes.
///
/// ```
/// use bakery_baselines::SeqCstBakeryLock;
/// use bakery_core::RawMutexAlgorithm;
///
/// let lock = SeqCstBakeryLock::new(3);
/// let slot = lock.register().unwrap();
/// let _guard = lock.lock(&slot);
/// ```
#[derive(Debug)]
pub struct SeqCstBakeryLock {
    choosing: Box<[CachePadded<AtomicBool>]>,
    number: Box<[CachePadded<AtomicU64>]>,
    slots: Arc<SlotAllocator>,
    stats: LockStats,
    waits: WaitHandle,
}

impl SeqCstBakeryLock {
    /// Creates the reference lock for `n` processes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a lock needs at least one process slot");
        Self {
            choosing: (0..n)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
            number: (0..n)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            slots: SlotAllocator::new(n),
            stats: LockStats::new(),
            waits: WaitHandle::default_handle(),
        }
    }

    fn ticket(&self, j: usize) -> Ticket {
        Ticket::new(self.number[j].load(Ordering::SeqCst), j) // mem: baseline-seqcst
    }
}

impl RawMutexAlgorithm for SeqCstBakeryLock {
    fn capacity(&self) -> usize {
        self.number.len()
    }

    fn acquire(&self, pid: usize) {
        assert!(pid < self.capacity(), "pid {pid} out of range");
        // Doorway: choosing[i] := 1; number[i] := 1 + maximum(...); choosing[i] := 0.
        self.choosing[pid].store(true, Ordering::SeqCst); // mem: baseline-seqcst
        let max = (0..self.capacity())
            .map(|j| self.ticket(j).number)
            .max()
            .unwrap_or(0);
        self.number[pid].store(max + 1, Ordering::SeqCst); // mem: baseline-seqcst
        self.stats.record_ticket(max + 1);
        self.choosing[pid].store(false, Ordering::SeqCst); // mem: baseline-seqcst
        self.waits.notify(self.waits.choosing(pid));
        // Scan: L2 waits out a chooser, L3 a smaller (number, pid) pair.
        let mut waits = 0u64;
        for j in (0..self.capacity()).filter(|&j| j != pid) {
            let mut token = WaitToken::new();
            let mut choosing = || self.choosing[j].load(Ordering::SeqCst); // mem: baseline-seqcst
            while choosing() {
                waits += 1;
                self.waits
                    .wait(self.waits.choosing(j), &mut token, &mut choosing);
            }
            token.reset();
            let mut behind = || TicketOrder::must_wait_for(self.ticket(pid), self.ticket(j));
            while behind() {
                waits += 1;
                self.waits
                    .wait(self.waits.ticket(j), &mut token, &mut behind);
            }
        }
        self.stats.record_doorway_waits(waits);
    }

    fn release(&self, pid: usize) {
        self.number[pid].store(0, Ordering::SeqCst); // mem: baseline-seqcst
        self.waits.notify(self.waits.ticket(pid));
    }

    fn algorithm_name(&self) -> &'static str {
        "bakery-seqcst"
    }

    fn shared_word_count(&self) -> usize {
        // choosing[1..N] and number[1..N]
        2 * self.number.len()
    }

    lock_accessors!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::assert_mutual_exclusion;

    #[test]
    fn lone_process_always_draws_ticket_one() {
        let lock = SeqCstBakeryLock::new(2);
        let slot = lock.register().unwrap();
        for _ in 0..10 {
            let _g = lock.lock(&slot);
        }
        assert_eq!(lock.stats().cs_entries(), 10);
        assert_eq!(lock.stats().max_ticket(), 1);
    }

    #[test]
    fn metadata() {
        let lock = SeqCstBakeryLock::new(4);
        assert_eq!(lock.capacity(), 4);
        assert_eq!(lock.shared_word_count(), 8);
        assert_eq!(lock.algorithm_name(), "bakery-seqcst");
        assert_eq!(lock.register_bound(), None);
    }

    #[test]
    fn mutual_exclusion_four_threads() {
        let lock = Arc::new(SeqCstBakeryLock::new(4));
        assert_eq!(assert_mutual_exclusion(lock, 4, 500), 2000);
    }
}

//! Dijkstra's 1965 mutual exclusion algorithm.
//!
//! The first solution to the mutual exclusion problem (the paper's reference
//! \[3\]) and the system model both Bakery and Bakery++ inherit.  It guarantees
//! mutual exclusion and deadlock freedom but **not** first-come-first-served
//! order or starvation freedom, and every process writes the shared variable
//! `k` — two of the properties Lamport's Bakery was designed to add.  Having
//! it in the suite lets the fairness experiment (**E8**) show *why* FCFS
//! matters, not just that Bakery provides it.

use std::sync::Arc;

use bakery_core::slots::SlotAllocator;
use bakery_core::sync::{AtomicBool, AtomicUsize, Ordering};
use bakery_core::wait::{WaitHandle, WaitToken};
use bakery_core::{LockStats, RawMutexAlgorithm};
use crossbeam::utils::CachePadded;

use crate::lock_accessors;

/// Dijkstra's 1965 N-process mutual exclusion lock.
///
/// ```
/// use bakery_baselines::DijkstraLock;
/// use bakery_core::RawMutexAlgorithm;
///
/// let lock = DijkstraLock::new(3);
/// let slot = lock.register().unwrap();
/// let _guard = lock.lock(&slot);
/// ```
#[derive(Debug)]
pub struct DijkstraLock {
    /// `b[i]` — true while process `i` is outside the entry protocol.
    b: Box<[CachePadded<AtomicBool>]>,
    /// `c[i]` — true while process `i` is not in the "second phase".
    c: Box<[CachePadded<AtomicBool>]>,
    /// `k` — the process currently presumed to have priority (multi-writer).
    k: CachePadded<AtomicUsize>,
    slots: Arc<SlotAllocator>,
    stats: LockStats,
    waits: WaitHandle,
}

impl DijkstraLock {
    /// Creates a Dijkstra lock for `n` processes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a lock needs at least one process slot");
        Self {
            b: (0..n)
                .map(|_| CachePadded::new(AtomicBool::new(true)))
                .collect(),
            c: (0..n)
                .map(|_| CachePadded::new(AtomicBool::new(true)))
                .collect(),
            k: CachePadded::new(AtomicUsize::new(0)),
            slots: SlotAllocator::new(n),
            stats: LockStats::new(),
            waits: WaitHandle::default_handle(),
        }
    }

    /// The process id currently stored in the shared priority variable `k`.
    #[must_use]
    pub fn priority_holder(&self) -> usize {
        self.k.load(Ordering::SeqCst) // mem: baseline-seqcst
    }
}

impl RawMutexAlgorithm for DijkstraLock {
    fn capacity(&self) -> usize {
        self.b.len()
    }

    fn acquire(&self, pid: usize) {
        let n = self.capacity();
        assert!(pid < n, "pid {pid} out of range");
        // The whole two-phase retry loop is one wait episode: both phases
        // contend for the same shared variable `k`, so the token (and its
        // escalation towards parking) carries across phase switches.
        let mut token = WaitToken::new();
        let mut waits = 0u64;

        self.b[pid].store(false, Ordering::SeqCst); // mem: baseline-seqcst
        loop {
            if self.k.load(Ordering::SeqCst) != pid { // mem: baseline-seqcst
                // First phase: try to claim priority once its current holder
                // is no longer interested.
                self.c[pid].store(true, Ordering::SeqCst); // mem: baseline-seqcst
                let holder = self.k.load(Ordering::SeqCst); // mem: baseline-seqcst
                if self.b[holder].load(Ordering::SeqCst) { // mem: baseline-seqcst
                    self.k.store(pid, Ordering::SeqCst); // mem: baseline-seqcst
                }
                waits += 1;
                self.waits.wait(self.waits.guard(), &mut token, &mut || {
                    self.k.load(Ordering::SeqCst) != pid // mem: baseline-seqcst
                });
            } else {
                // Second phase: announce and verify we are alone in it.
                self.c[pid].store(false, Ordering::SeqCst); // mem: baseline-seqcst
                let alone = (0..n).all(|j| j == pid || self.c[j].load(Ordering::SeqCst)); // mem: baseline-seqcst
                if alone {
                    break;
                }
                waits += 1;
                self.waits.wait(self.waits.guard(), &mut token, &mut || {
                    !(0..n).all(|j| j == pid || self.c[j].load(Ordering::SeqCst)) // mem: baseline-seqcst
                });
            }
        }
        self.stats.record_doorway_waits(waits);
    }

    fn release(&self, pid: usize) {
        self.c[pid].store(true, Ordering::SeqCst); // mem: baseline-seqcst
        self.b[pid].store(true, Ordering::SeqCst); // mem: baseline-seqcst
        self.waits.notify(self.waits.guard());
    }

    fn algorithm_name(&self) -> &'static str {
        "dijkstra"
    }

    fn shared_word_count(&self) -> usize {
        // b[0..N], c[0..N] and the shared k.
        2 * self.b.len() + 1
    }
    lock_accessors!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::assert_mutual_exclusion;
    use bakery_core::RawMutexAlgorithm;

    #[test]
    fn single_process_reenters() {
        let lock = DijkstraLock::new(1);
        let slot = lock.register().unwrap();
        for _ in 0..10 {
            let _g = lock.lock(&slot);
        }
        assert_eq!(lock.stats().cs_entries(), 10);
    }

    #[test]
    fn holder_claims_priority_variable() {
        let lock = DijkstraLock::new(3);
        let slot = lock.register_exact(1).unwrap();
        let g = lock.lock(&slot);
        assert_eq!(lock.priority_holder(), 1);
        drop(g);
    }

    #[test]
    fn metadata() {
        let lock = DijkstraLock::new(4);
        assert_eq!(lock.capacity(), 4);
        assert_eq!(lock.shared_word_count(), 9);
        assert_eq!(lock.algorithm_name(), "dijkstra");
        assert_eq!(lock.register_bound(), None);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_capacity_rejected() {
        let _ = DijkstraLock::new(0);
    }

    #[test]
    fn mutual_exclusion_four_threads() {
        let total = assert_mutual_exclusion(std::sync::Arc::new(DijkstraLock::new(4)), 4, 500);
        assert_eq!(total, 2000);
    }
}

//! Lock statistics counters.
//!
//! Every lock in the suite exposes a [`LockStats`] describing what happened
//! since construction: critical-section entries, overflow attempts, Bakery++
//! reset branches, `L1` admission waits and doorway (`L2`/`L3`) wait
//! iterations, plus the largest ticket value ever stored.  The experiment
//! harness (crate `bakery-harness`) aggregates these counters into its
//! experiment tables and `BENCH_*.json` files, so they are cheap, always-on
//! relaxed atomics rather than an optional feature.

use std::fmt;

use crate::sync::{AtomicU64, Ordering};

/// Monotonic counters describing a lock's lifetime behaviour.
///
/// All counters use relaxed atomics: they are diagnostics, not part of the
/// mutual-exclusion protocol, and must never introduce synchronization that
/// could mask protocol bugs.
#[derive(Debug, Default)]
pub struct LockStats {
    cs_entries: AtomicU64,
    overflow_attempts: AtomicU64,
    resets: AtomicU64,
    l1_waits: AtomicU64,
    doorway_waits: AtomicU64,
    max_ticket: AtomicU64,
    fast_path_hits: AtomicU64,
    attaches: AtomicU64,
    detaches: AtomicU64,
    migrations_forward: AtomicU64,
    migrations_reverse: AtomicU64,
    crash_aborts: AtomicU64,
    seat_recoveries: AtomicU64,
}

impl LockStats {
    /// Creates a zeroed statistics block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of completed critical-section entries.
    #[must_use]
    pub fn cs_entries(&self) -> u64 {
        self.cs_entries.load(Ordering::Relaxed) // mem: stats-relaxed
    }

    /// Number of attempts to store a ticket above the register bound.
    ///
    /// For [`crate::BakeryPlusPlusLock`] this is zero by construction
    /// (Theorem, paper §6.1); for the bounded classic Bakery it counts the
    /// Section 3 failures.
    #[must_use]
    pub fn overflow_attempts(&self) -> u64 {
        self.overflow_attempts.load(Ordering::Relaxed) // mem: stats-relaxed
    }

    /// Number of times the Bakery++ reset branch (`number[i] := 0; goto L1`)
    /// was taken.
    #[must_use]
    pub fn resets(&self) -> u64 {
        self.resets.load(Ordering::Relaxed) // mem: stats-relaxed
    }

    /// Number of wait iterations spent at Bakery++'s `L1` admission guard.
    #[must_use]
    pub fn l1_waits(&self) -> u64 {
        self.l1_waits.load(Ordering::Relaxed) // mem: stats-relaxed
    }

    /// Number of wait iterations spent in the `L2`/`L3` scan loops.
    #[must_use]
    pub fn doorway_waits(&self) -> u64 {
        self.doorway_waits.load(Ordering::Relaxed) // mem: stats-relaxed
    }

    /// The largest ticket value this lock ever stored in a `number` register.
    #[must_use]
    pub fn max_ticket(&self) -> u64 {
        self.max_ticket.load(Ordering::Relaxed) // mem: stats-relaxed
    }

    /// Number of acquisitions that took the packed-snapshot fast path (the
    /// empty-bakery check let the lock skip the per-contender wait loops).
    ///
    /// Always zero for locks without a packed snapshot plane — the counter
    /// lives here, in the stats block every algorithm shares, so E6/E7
    /// reports compare all locks like for like.
    #[must_use]
    pub fn fast_path_hits(&self) -> u64 {
        self.fast_path_hits.load(Ordering::Relaxed) // mem: stats-relaxed
    }

    /// Records a completed critical-section entry.
    pub fn record_cs_entry(&self) {
        self.cs_entries.fetch_add(1, Ordering::Relaxed); // mem: stats-relaxed
    }

    /// Records an attempt to store `attempted` above the bound.
    pub fn record_overflow(&self, attempted: u64) {
        self.overflow_attempts.fetch_add(1, Ordering::Relaxed); // mem: stats-relaxed
        self.record_ticket(attempted);
    }

    /// Records one Bakery++ reset branch.
    pub fn record_reset(&self) {
        self.resets.fetch_add(1, Ordering::Relaxed); // mem: stats-relaxed
    }

    /// Records `iterations` wait rounds at the `L1` admission guard.
    pub fn record_l1_waits(&self, iterations: u64) {
        if iterations > 0 {
            self.l1_waits.fetch_add(iterations, Ordering::Relaxed); // mem: stats-relaxed
        }
    }

    /// Records `iterations` wait rounds in the `L2`/`L3` loops.
    pub fn record_doorway_waits(&self, iterations: u64) {
        if iterations > 0 {
            self.doorway_waits.fetch_add(iterations, Ordering::Relaxed); // mem: stats-relaxed
        }
    }

    /// Records a stored (or attempted) ticket value for the high-water mark.
    pub fn record_ticket(&self, value: u64) {
        self.max_ticket.fetch_max(value, Ordering::Relaxed); // mem: stats-relaxed
    }

    /// Records one fast-path acquisition.
    pub fn record_fast_path_hit(&self) {
        self.fast_path_hits.fetch_add(1, Ordering::Relaxed); // mem: stats-relaxed
    }

    /// Number of sessions ever attached to this lock through the session
    /// plane ([`crate::session::SessionPlane`]).  Zero for locks driven
    /// through plain [`crate::Slot`]s.
    #[must_use]
    pub fn attaches(&self) -> u64 {
        self.attaches.load(Ordering::Relaxed) // mem: stats-relaxed
    }

    /// Number of sessions ever detached from this lock through the session
    /// plane.  `attaches() - detaches()` is the live-session count.
    #[must_use]
    pub fn detaches(&self) -> u64 {
        self.detaches.load(Ordering::Relaxed) // mem: stats-relaxed
    }

    /// Records one session attach.
    pub fn record_attach(&self) {
        self.attaches.fetch_add(1, Ordering::Relaxed); // mem: stats-relaxed
    }

    /// Records one session detach.
    pub fn record_detach(&self) {
        self.detaches.fetch_add(1, Ordering::Relaxed); // mem: stats-relaxed
    }

    /// Number of completed forward (flat→tree) migrations of an adaptive
    /// lock ([`crate::AdaptiveBakery`]).  Zero for every other algorithm.
    #[must_use]
    pub fn migrations_forward(&self) -> u64 {
        self.migrations_forward.load(Ordering::Relaxed) // mem: stats-relaxed
    }

    /// Number of completed reverse (tree→flat) migrations of an adaptive
    /// lock.  Zero for every other algorithm.  `migrations_forward()` and
    /// `migrations_reverse()` can never differ by more than one: the epoch
    /// cycle alternates the two directions by construction.
    #[must_use]
    pub fn migrations_reverse(&self) -> u64 {
        self.migrations_reverse.load(Ordering::Relaxed) // mem: stats-relaxed
    }

    /// Records one completed forward (flat→tree) migration.
    pub fn record_migration_forward(&self) {
        self.migrations_forward.fetch_add(1, Ordering::Relaxed); // mem: stats-relaxed
    }

    /// Records one completed reverse (tree→flat) migration.
    pub fn record_migration_reverse(&self) {
        self.migrations_reverse.fetch_add(1, Ordering::Relaxed); // mem: stats-relaxed
    }

    /// Number of completed crash aborts: a pre-CS acquisition torn down via
    /// [`crate::raw::RawMutexAlgorithm::crash_abort`], leaving the pid's own
    /// registers reading zero (the paper's crash rule, assumptions 1.5–1.7).
    #[must_use]
    pub fn crash_aborts(&self) -> u64 {
        self.crash_aborts.load(Ordering::Relaxed) // mem: stats-relaxed
    }

    /// Number of seats the session plane's reaper recovered from dead
    /// holders ([`crate::session::SessionPlane::reap`]) — crash-aborted and
    /// recycled, or quarantined for explicit recovery.
    #[must_use]
    pub fn seat_recoveries(&self) -> u64 {
        self.seat_recoveries.load(Ordering::Relaxed) // mem: stats-relaxed
    }

    /// Records one completed crash abort.
    pub fn record_crash_abort(&self) {
        self.crash_aborts.fetch_add(1, Ordering::Relaxed); // mem: stats-relaxed
    }

    /// Records one seat recovered by the reaper.
    pub fn record_seat_recovery(&self) {
        self.seat_recoveries.fetch_add(1, Ordering::Relaxed); // mem: stats-relaxed
    }

    /// Copies the counters into a plain snapshot struct.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            cs_entries: self.cs_entries(),
            overflow_attempts: self.overflow_attempts(),
            resets: self.resets(),
            l1_waits: self.l1_waits(),
            doorway_waits: self.doorway_waits(),
            max_ticket: self.max_ticket(),
            fast_path_hits: self.fast_path_hits(),
            attaches: self.attaches(),
            detaches: self.detaches(),
            migrations_forward: self.migrations_forward(),
            migrations_reverse: self.migrations_reverse(),
            crash_aborts: self.crash_aborts(),
            seat_recoveries: self.seat_recoveries(),
        }
    }
}

/// A plain-data copy of [`LockStats`] at one point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// See [`LockStats::cs_entries`].
    pub cs_entries: u64,
    /// See [`LockStats::overflow_attempts`].
    pub overflow_attempts: u64,
    /// See [`LockStats::resets`].
    pub resets: u64,
    /// See [`LockStats::l1_waits`].
    pub l1_waits: u64,
    /// See [`LockStats::doorway_waits`].
    pub doorway_waits: u64,
    /// See [`LockStats::max_ticket`].
    pub max_ticket: u64,
    /// See [`LockStats::fast_path_hits`].
    pub fast_path_hits: u64,
    /// See [`LockStats::attaches`].
    pub attaches: u64,
    /// See [`LockStats::detaches`].
    pub detaches: u64,
    /// See [`LockStats::migrations_forward`].
    pub migrations_forward: u64,
    /// See [`LockStats::migrations_reverse`].
    pub migrations_reverse: u64,
    /// See [`LockStats::crash_aborts`].
    pub crash_aborts: u64,
    /// See [`LockStats::seat_recoveries`].
    pub seat_recoveries: u64,
}

impl StatsSnapshot {
    /// Folds `other` into `self`: counters add, the ticket high-water mark
    /// takes the maximum.  Used by composite locks (the tree plane) to
    /// aggregate per-node and per-level statistics.
    pub fn merge(&mut self, other: &StatsSnapshot) {
        self.cs_entries += other.cs_entries;
        self.overflow_attempts += other.overflow_attempts;
        self.resets += other.resets;
        self.l1_waits += other.l1_waits;
        self.doorway_waits += other.doorway_waits;
        self.max_ticket = self.max_ticket.max(other.max_ticket);
        self.fast_path_hits += other.fast_path_hits;
        self.attaches += other.attaches;
        self.detaches += other.detaches;
        self.migrations_forward += other.migrations_forward;
        self.migrations_reverse += other.migrations_reverse;
        self.crash_aborts += other.crash_aborts;
        self.seat_recoveries += other.seat_recoveries;
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cs={} overflows={} resets={} l1_waits={} doorway_waits={} max_ticket={} \
             fast_path={} attaches={} detaches={} migrations={}/{} crash_aborts={} \
             seat_recoveries={}",
            self.cs_entries,
            self.overflow_attempts,
            self.resets,
            self.l1_waits,
            self.doorway_waits,
            self.max_ticket,
            self.fast_path_hits,
            self.attaches,
            self.detaches,
            self.migrations_forward,
            self.migrations_reverse,
            self.crash_aborts,
            self.seat_recoveries
        )
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn new_stats_are_zero() {
        let s = LockStats::new();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn counters_accumulate() {
        let s = LockStats::new();
        s.record_cs_entry();
        s.record_cs_entry();
        s.record_reset();
        s.record_l1_waits(3);
        s.record_doorway_waits(5);
        s.record_ticket(42);
        s.record_fast_path_hit();
        assert_eq!(s.cs_entries(), 2);
        assert_eq!(s.resets(), 1);
        assert_eq!(s.l1_waits(), 3);
        assert_eq!(s.doorway_waits(), 5);
        assert_eq!(s.max_ticket(), 42);
        assert_eq!(s.fast_path_hits(), 1);
    }

    #[test]
    fn zero_wait_records_are_ignored() {
        let s = LockStats::new();
        s.record_l1_waits(0);
        s.record_doorway_waits(0);
        assert_eq!(s.l1_waits(), 0);
        assert_eq!(s.doorway_waits(), 0);
    }

    #[test]
    fn overflow_updates_high_water_mark() {
        let s = LockStats::new();
        s.record_overflow(300);
        assert_eq!(s.overflow_attempts(), 1);
        assert_eq!(s.max_ticket(), 300);
        s.record_ticket(10);
        assert_eq!(s.max_ticket(), 300, "max is monotone");
    }

    #[test]
    fn snapshot_displays_all_fields() {
        let s = LockStats::new();
        s.record_cs_entry();
        let text = s.snapshot().to_string();
        assert!(text.contains("cs=1"));
        assert!(text.contains("overflows=0"));
        assert!(text.contains("max_ticket=0"));
    }

    #[test]
    fn snapshot_merge_adds_counters_and_maxes_tickets() {
        let a = LockStats::new();
        a.record_cs_entry();
        a.record_ticket(9);
        a.record_doorway_waits(2);
        let b = LockStats::new();
        b.record_cs_entry();
        b.record_cs_entry();
        b.record_ticket(4);
        b.record_fast_path_hit();
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.cs_entries, 3);
        assert_eq!(merged.doorway_waits, 2);
        assert_eq!(merged.max_ticket, 9, "high-water mark takes the max");
        assert_eq!(merged.fast_path_hits, 1);
    }

    #[test]
    fn migration_counters_accumulate_and_merge() {
        let s = LockStats::new();
        s.record_migration_forward();
        s.record_migration_reverse();
        s.record_migration_forward();
        assert_eq!(s.migrations_forward(), 2);
        assert_eq!(s.migrations_reverse(), 1);
        let other = LockStats::new();
        other.record_migration_reverse();
        let mut merged = s.snapshot();
        merged.merge(&other.snapshot());
        assert_eq!(merged.migrations_forward, 2);
        assert_eq!(merged.migrations_reverse, 2);
        assert!(s.snapshot().to_string().contains("migrations=2/1"));
    }

    #[test]
    fn crash_counters_accumulate_merge_and_display() {
        let s = LockStats::new();
        s.record_crash_abort();
        s.record_crash_abort();
        s.record_seat_recovery();
        assert_eq!(s.crash_aborts(), 2);
        assert_eq!(s.seat_recoveries(), 1);
        let other = LockStats::new();
        other.record_crash_abort();
        other.record_seat_recovery();
        let mut merged = s.snapshot();
        merged.merge(&other.snapshot());
        assert_eq!(merged.crash_aborts, 3);
        assert_eq!(merged.seat_recoveries, 2);
        let text = s.snapshot().to_string();
        assert!(text.contains("crash_aborts=2"));
        assert!(text.contains("seat_recoveries=1"));
    }

    #[test]
    fn stats_are_shareable_across_threads() {
        use std::sync::Arc;
        let s = Arc::new(LockStats::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_cs_entry();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.cs_entries(), 4000);
    }
}

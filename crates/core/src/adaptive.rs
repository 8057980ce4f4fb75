//! [`AdaptiveBakery`]: a flat Bakery++ that migrates to a tree under load —
//! and back to flat once the load subsides.
//!
//! The flat packed-snapshot Bakery++ wins while few processes are live (one
//! small scan, global FCFS); the [`TreeBakery`] wins once contention or
//! membership grows (O(K·log_K N) doorway, contention resolved inside
//! subtrees).  The adaptive lock starts flat and performs a **quiescent
//! handoff** to the tree when either forward trigger fires:
//!
//! * **leased capacity** — live sessions (`attaches − detaches`, maintained
//!   by the session plane) reach `capacity_threshold`;
//! * **observed contention** — the flat lock's doorway wait iterations
//!   accumulated *during the current flat residency* reach
//!   `contention_threshold`.
//!
//! A lock that survives one load spike should not pay tree-depth acquire
//! cost forever, so the migration is a **cycle**, not a one-way door: once
//! the tree plane has been quiet for long enough (the hysteresis band,
//! below), a symmetric reverse handoff drains the tree and returns to flat.
//!
//! ## The epoch cycle
//!
//! One generation-tagged word drives everything:
//! `epoch = (cycle << 2) | phase`, with the phase walking
//!
//! ```text
//!        forward trigger          drain: flat_active == 0
//!   FLAT ───────────────► DRAIN_FLAT ───────────────► TREE
//!    ▲                                                  │
//!    │ drain: tree_active == 0                          │ reverse trigger
//!    └────────────────── DRAIN_TREE ◄───────────────────┘ (hysteresis band)
//!
//!   word:  4c ──► 4c+1 ──► 4c+2 ──► 4c+3 ──► 4(c+1)   (cycle c, then c+1)
//! ```
//!
//! Every legal transition is a CAS of `word → word + 1` (the `DRAIN_TREE(c)
//! → FLAT(c+1)` wrap is also `+ 1` because the cycle tag occupies the high
//! bits), so the epoch **word** is strictly monotone even though the phase
//! revisits `FLAT`.  That turns PR 4's monotonicity argument into a
//! per-cycle argument: an acquirer validates the *full word* — phase and
//! cycle — in its Dekker re-check, so a stale observation of `FLAT` from
//! cycle `c` can never authorise a flat entry in cycle `c + 1` (the ABA a
//! phase-only comparison could not detect).
//!
//! ## The handoff protocol (both directions)
//!
//! Two announce counters mirror each other: `flat_active` counts
//! acquisitions currently routed to the flat plane, `tree_active` those
//! routed to the tree.
//!
//! ```text
//! acquire(i):                          drain helper (any process):
//!   loop:                                if phase is a DRAIN and the
//!     w := epoch                         draining plane's counter == 0:
//!     if phase(w) is a DRAIN:              CAS epoch: w -> w + 1
//!       help drain; retry
//!     plane := FLAT or TREE by phase(w)  release(i):
//!     plane_active += 1                    plane[i].release(i)
//!     if epoch != w:                       plane_active -= 1
//!       plane_active -= 1; retry           (tree route: hysteresis check)
//!     plane.acquire(i); return
//! ```
//!
//! The store→load handshake mirrors the Bakery doorway's Dekker pattern in
//! both directions: an acquirer *increments the active counter and then
//! re-reads `epoch`*, while the drainer *advances `epoch` and then reads the
//! counter*.  Under the interleaving semantics at least one side observes
//! the other, so either the acquirer aborts its route or the drainer waits
//! for it — a flat acquisition can never overlap a tree acquisition, in
//! either migration direction, and mutual exclusion of the composite
//! follows from mutual exclusion of each plane.  This exact handshake —
//! full cycle, both drains, triggers nondeterministic — is modelled as a
//! step machine in `bakery-spec::adaptive` and explored exhaustively by
//! `bakery-mc` (`crates/mc/tests/adaptive_handoff.rs`).
//!
//! ## The hysteresis band (flapping-proofing)
//!
//! The reverse trigger must not chase the forward one, so the two operate on
//! separated thresholds (`low_watermark < capacity_threshold`) and the
//! reverse additionally requires *persistence*: a release through the tree
//! route counts as **quiet** when live sessions *and* concurrently announced
//! tree acquirers (`tree_active`, the O(1) contention proxy) are both below
//! `low_watermark`; any loud observation zeroes the streak, and only
//! `quiet_period` *consecutive* quiet releases arm the reverse CAS.  Two
//! further rules keep the band flap-proof across cycles:
//!
//! * the quiet streak is zeroed when the forward drain flips to `TREE`, and
//!   every streak observation is **tagged with the epoch word of the
//!   residency it was made in** — so a streak accumulated in cycle `c`, or a
//!   single release preempted across a whole round trip, can never arm or
//!   inflate the reverse of cycle `c + 1` (the spec's `NoFlapStaleArming`
//!   invariant pins exactly this);
//! * the forward *contention* trigger measures doorway waits relative to a
//!   baseline captured when the reverse drain flips back to `FLAT`, so
//!   contention suffered before a round trip cannot instantly re-trigger
//!   the next one.
//!
//! Both baseline writes happen *before* their flip CAS: a stale drain helper
//! can therefore only delay a later trigger (conservative), never make one
//! fire early.
//!
//! ## Statistics
//!
//! `cs_entries` is counted once, at the adaptive facade, exactly like the
//! tree facade does — [`AdaptiveBakery::aggregate_snapshot`] folds the flat
//! plane's and every tree node's counters but pins `cs_entries` to the
//! facade's own count, so the PR 3 facade-only rule survives any number of
//! round trips (counted neither zero nor twice during a handoff).  Completed
//! handoffs are counted in [`LockStats::migrations_forward`] /
//! [`LockStats::migrations_reverse`]; the two can never differ by more than
//! one because the phase cycle alternates them.

use std::sync::Arc;

use crate::bakery_pp::BakeryPlusPlusLock;
use crate::raw::RawMutexAlgorithm;
use crate::slots::SlotAllocator;
use crate::stats::{LockStats, StatsSnapshot};
use crate::sync::{AtomicU64, Ordering};
use crate::tree::{TreeBakery, DEFAULT_TREE_ARITY};
use crate::wait::{WaitHandle, WaitStrategy, WaitToken};

/// Epoch phase: all acquisitions route to the flat Bakery++.
pub const EPOCH_FLAT: u64 = 0;
/// Epoch phase: forward migration triggered; the flat plane is draining.
pub const EPOCH_DRAIN: u64 = 1;
/// Epoch phase: all acquisitions route to the tree.
pub const EPOCH_TREE: u64 = 2;
/// Epoch phase: reverse migration triggered; the tree plane is draining.
pub const EPOCH_DRAIN_TREE: u64 = 3;

/// Announce-ledger value: `pid` holds no outstanding announce-counter
/// increment.
const ANNOUNCE_NONE: u64 = 0;
/// Announce-ledger value: `pid`'s outstanding increment is on `flat_active`.
const ANNOUNCE_FLAT: u64 = 1;
/// Announce-ledger value: `pid`'s outstanding increment is on `tree_active`.
const ANNOUNCE_TREE: u64 = 2;

/// Number of low bits of the epoch word holding the phase.
const PHASE_BITS: u32 = 2;
/// Mask extracting the phase from an epoch word.
const PHASE_MASK: u64 = (1 << PHASE_BITS) - 1;

/// The phase component of an epoch word ([`EPOCH_FLAT`], [`EPOCH_DRAIN`],
/// [`EPOCH_TREE`] or [`EPOCH_DRAIN_TREE`]).
#[inline]
#[must_use]
pub fn epoch_phase(word: u64) -> u64 {
    word & PHASE_MASK
}

/// The cycle (generation) component of an epoch word: how many full
/// `FLAT → … → FLAT` round trips precede it.
#[inline]
#[must_use]
pub fn epoch_cycle(word: u64) -> u64 {
    word >> PHASE_BITS
}

/// Default live-session count that triggers the forward migration (fraction
/// of capacity, see [`AdaptiveBakery::default_capacity_threshold`]).
const DEFAULT_CAPACITY_FRACTION: usize = 2; // capacity / 2

/// Default per-residency flat doorway-wait iterations that trigger the
/// forward migration.
pub const DEFAULT_CONTENTION_THRESHOLD: u64 = 1 << 14;

/// Default number of consecutive quiet tree releases required to arm the
/// reverse migration.
pub const DEFAULT_QUIET_PERIOD: u64 = 64;

/// A lock that starts as a flat packed-snapshot Bakery++, migrates to a
/// [`TreeBakery`] when leased capacity or observed contention crosses a
/// threshold, and migrates back to flat once the tree has stayed below the
/// low watermark for a full quiet period.
///
/// ```
/// use bakery_core::{AdaptiveBakery, RawMutexAlgorithm};
///
/// let lock = AdaptiveBakery::new(16);
/// let slot = lock.register().unwrap();
/// drop(lock.lock(&slot));
/// assert!(!lock.has_migrated());
/// lock.trigger_migration();          // or cross a threshold under load
/// drop(lock.lock(&slot));
/// assert!(lock.has_migrated());      // currently on the tree plane
/// assert_eq!(lock.stats().migrations_forward(), 1);
/// assert_eq!(lock.stats().cs_entries(), 2);
/// ```
#[derive(Debug)]
pub struct AdaptiveBakery {
    flat: BakeryPlusPlusLock,
    tree: TreeBakery,
    /// The generation-tagged epoch word `(cycle << 2) | phase`; strictly
    /// monotone (every transition is a `+ 1` CAS).
    epoch: AtomicU64,
    /// Number of acquisitions currently routed to the flat plane
    /// (incremented *before* the epoch re-check — the Dekker half of the
    /// forward-drain handshake).
    flat_active: AtomicU64,
    /// Number of acquisitions currently routed to the tree plane — the
    /// mirror announce counter the reverse drain reads, and the O(1)
    /// contention proxy of the hysteresis band.
    tree_active: AtomicU64,
    /// Which plane each pid's current acquisition went through (SWMR: only
    /// pid's own thread writes entry `pid`).
    route: Box<[AtomicU64]>,
    /// Per-pid announce ledger ([`ANNOUNCE_NONE`] / [`ANNOUNCE_FLAT`] /
    /// [`ANNOUNCE_TREE`]): which announce counter currently carries an
    /// increment on `pid`'s behalf.  Written by `pid`'s own thread on the
    /// acquire/release paths and *read by the reaper* after a crash — the
    /// record [`AdaptiveBakery::crash_abort`] needs to roll the drain
    /// handshake back for a pid that died mid-doorway (a leaked increment
    /// would wedge every later drain at `active != 0`).
    announce: Box<[AtomicU64]>,
    capacity_threshold: usize,
    contention_threshold: u64,
    /// Hysteresis low watermark; `0` disables the reverse leg entirely.
    low_watermark: usize,
    /// Consecutive quiet tree releases required to arm the reverse trigger.
    quiet_period: u64,
    /// Current quiet streak, packed `(epoch_word & u32::MAX) << 32 | count`:
    /// the tag pins every observation to the tree residency it was made in,
    /// so a release preempted across a whole round trip can never count
    /// toward (or inflate) a later residency's quiet period — the same
    /// staleness rule the spec's `NoFlapStaleArming` invariant pins for the
    /// ARMED bit.  Zeroed by any loud observation and at every forward flip.
    quiet_streak: AtomicU64,
    /// Flat doorway waits at the start of the current flat residency; the
    /// forward contention trigger fires on the delta, not the lifetime sum.
    flat_waits_baseline: AtomicU64,
    /// Facade-level wait plane: the guard site is the drain-phase predicate
    /// (parked acquirers are woken by every successful epoch CAS), and both
    /// planes share this handle's strategy so one `BAKERY_WAIT_STRATEGY`
    /// choice governs the whole composite.
    waits: WaitHandle,
    slots: Arc<SlotAllocator>,
    stats: LockStats,
}

impl AdaptiveBakery {
    /// Creates an adaptive lock for `n` processes with the default thresholds
    /// (migrate at `n / 2` live sessions — at least 2 — or after `2^14`
    /// flat doorway wait iterations per residency; migrate back after
    /// [`DEFAULT_QUIET_PERIOD`] consecutive quiet tree releases below the
    /// default low watermark) and default tree arity.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_hysteresis(
            n,
            Self::default_capacity_threshold(n),
            DEFAULT_CONTENTION_THRESHOLD,
            Self::default_low_watermark(n),
            DEFAULT_QUIET_PERIOD,
        )
    }

    /// The default leased-capacity migration threshold for an `n`-slot lock:
    /// half the capacity, but at least 2 (a single live session never
    /// migrates).
    #[must_use]
    pub fn default_capacity_threshold(n: usize) -> usize {
        (n / DEFAULT_CAPACITY_FRACTION).max(2)
    }

    /// The default hysteresis low watermark: half the capacity threshold,
    /// but at least 1 — always strictly below the forward threshold, so the
    /// two triggers can never chase each other.
    #[must_use]
    pub fn default_low_watermark(n: usize) -> usize {
        (Self::default_capacity_threshold(n) / 2).max(1)
    }

    /// Creates a **forward-only** adaptive lock (PR 4 semantics: the reverse
    /// leg is disabled, `low_watermark = 0`).  The flat plane uses the
    /// default Bakery++ bound, the tree its per-node `M = K + 1`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_config(n: usize, capacity_threshold: usize, contention_threshold: u64) -> Self {
        Self::with_hysteresis(n, capacity_threshold, contention_threshold, 0, 1)
    }

    /// Creates an adaptive lock with every knob explicit, including the
    /// hysteresis band of the reverse leg: the reverse trigger arms only
    /// after `quiet_period` consecutive tree releases during which live
    /// sessions and concurrently announced tree acquirers both stayed below
    /// `low_watermark`.  `low_watermark == 0` disables the reverse leg.
    ///
    /// # Panics
    /// Panics if `n == 0`.  When the reverse leg is enabled
    /// (`low_watermark > 0`), additionally panics if `quiet_period` is zero
    /// (it would fire instantly), exceeds `u32::MAX` (the packed streak
    /// counter saturates there), or if `low_watermark` is not strictly below
    /// `capacity_threshold` (the hysteresis band must separate the two
    /// triggers).
    #[must_use]
    pub fn with_hysteresis(
        n: usize,
        capacity_threshold: usize,
        contention_threshold: u64,
        low_watermark: usize,
        quiet_period: u64,
    ) -> Self {
        Self::with_hysteresis_and_strategy(
            n,
            capacity_threshold,
            contention_threshold,
            low_watermark,
            quiet_period,
            crate::wait::default_strategy(),
        )
    }

    /// [`AdaptiveBakery::with_hysteresis`] with an explicit [`WaitStrategy`].
    ///
    /// One strategy instance is shared by the flat plane, every tree node and
    /// the facade's own drain-phase guard site (each in its own namespace), so
    /// a parked waiter anywhere in the composite answers to the same waiter
    /// table.
    ///
    /// # Panics
    /// As [`AdaptiveBakery::with_hysteresis`].
    #[must_use]
    pub fn with_hysteresis_and_strategy(
        n: usize,
        capacity_threshold: usize,
        contention_threshold: u64,
        low_watermark: usize,
        quiet_period: u64,
        strategy: Arc<dyn WaitStrategy>,
    ) -> Self {
        assert!(n > 0, "a lock needs at least one process slot");
        if low_watermark > 0 {
            assert!(quiet_period > 0, "a zero quiet period would fire instantly");
            assert!(
                quiet_period <= u64::from(u32::MAX),
                "quiet_period must fit the packed streak counter"
            );
            assert!(
                low_watermark < capacity_threshold,
                "the hysteresis band needs low_watermark ({low_watermark}) strictly below \
                 capacity_threshold ({capacity_threshold}), or the triggers chase each other"
            );
        }
        Self {
            flat: BakeryPlusPlusLock::with_bound_and_strategy(
                n,
                crate::bakery_pp::DEFAULT_PP_BOUND,
                Arc::clone(&strategy),
            ),
            tree: TreeBakery::with_config_and_strategy(
                n,
                DEFAULT_TREE_ARITY.min(n.max(2)),
                Arc::clone(&strategy),
            ),
            epoch: AtomicU64::new(EPOCH_FLAT),
            flat_active: AtomicU64::new(0),
            tree_active: AtomicU64::new(0),
            route: (0..n).map(|_| AtomicU64::new(EPOCH_FLAT)).collect(),
            announce: (0..n).map(|_| AtomicU64::new(ANNOUNCE_NONE)).collect(),
            capacity_threshold,
            contention_threshold,
            low_watermark,
            quiet_period,
            quiet_streak: AtomicU64::new(0),
            flat_waits_baseline: AtomicU64::new(0),
            waits: WaitHandle::new(strategy),
            slots: SlotAllocator::new(n),
            stats: LockStats::new(),
        }
    }

    /// The facade's wait plane (drain-phase guard site).
    #[must_use]
    pub fn wait_plane(&self) -> &WaitHandle {
        &self.waits
    }

    /// The current epoch **word** — `(cycle << 2) | phase`, strictly
    /// monotone across the lock's lifetime.  Decompose with [`epoch_phase`]
    /// and [`epoch_cycle`].
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst) // mem: epoch-cycle
    }

    /// The current phase of the epoch cycle.
    #[must_use]
    pub fn epoch_phase(&self) -> u64 {
        epoch_phase(self.epoch())
    }

    /// How many full `FLAT → TREE → FLAT` round trips have completed before
    /// the current phase.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        epoch_cycle(self.epoch())
    }

    /// True while the lock currently resides on the tree plane (`TREE`, or
    /// `DRAIN_TREE` while the reverse drain is still in flight).  This
    /// reports the **current plane**, not "ever migrated": after a completed
    /// reverse migration it is `false` again — use
    /// [`LockStats::migrations_forward`] for the history.
    #[must_use]
    pub fn has_migrated(&self) -> bool {
        matches!(self.epoch_phase(), EPOCH_TREE | EPOCH_DRAIN_TREE)
    }

    /// The flat plane (the `FLAT`-phase route).
    #[must_use]
    pub fn flat(&self) -> &BakeryPlusPlusLock {
        &self.flat
    }

    /// The tree plane (the `TREE`-phase route).
    #[must_use]
    pub fn tree(&self) -> &TreeBakery {
        &self.tree
    }

    /// The live-session threshold that triggers the forward migration.
    #[must_use]
    pub fn capacity_threshold(&self) -> usize {
        self.capacity_threshold
    }

    /// The per-residency flat doorway-wait threshold that triggers the
    /// forward migration.
    #[must_use]
    pub fn contention_threshold(&self) -> u64 {
        self.contention_threshold
    }

    /// The hysteresis low watermark of the reverse trigger (0 = reverse leg
    /// disabled).
    #[must_use]
    pub fn low_watermark(&self) -> usize {
        self.low_watermark
    }

    /// Consecutive quiet tree releases required to arm the reverse trigger.
    #[must_use]
    pub fn quiet_period(&self) -> u64 {
        self.quiet_period
    }

    /// Requests the forward (flat→tree) migration now (no-op unless the
    /// phase is `FLAT`; normally fired by the thresholds).  The handoff
    /// still drains in-flight flat acquisitions before any process enters
    /// through the tree.
    pub fn trigger_migration(&self) {
        let word = self.epoch.load(Ordering::SeqCst); // mem: epoch-cycle
        if epoch_phase(word) == EPOCH_FLAT {
            self.advance_epoch(word);
        }
    }

    /// Requests the reverse (tree→flat) migration now, bypassing the
    /// hysteresis band (no-op unless the phase is `TREE`).  The handoff
    /// still drains in-flight tree acquisitions before any process re-enters
    /// through the flat plane.
    pub fn trigger_reverse_migration(&self) {
        let word = self.epoch.load(Ordering::SeqCst); // mem: epoch-cycle
        if epoch_phase(word) == EPOCH_TREE {
            self.advance_epoch(word);
        }
    }

    /// The one epoch transition: CAS `word → word + 1`, then wake every
    /// acquirer parked on the drain-phase guard site (the flip is exactly the
    /// store their predicate watches).  Returns whether this caller won the
    /// CAS.
    fn advance_epoch(&self, word: u64) -> bool {
        let won = self
            .epoch
            .compare_exchange(word, word + 1, Ordering::SeqCst, Ordering::SeqCst) // mem: epoch-cycle
            .is_ok();
        if won {
            self.waits.notify(self.waits.guard());
        }
        won
    }

    /// Live leased sessions (`attaches − detaches`).
    fn live_sessions(&self) -> u64 {
        self.stats.attaches().saturating_sub(self.stats.detaches())
    }

    /// True when either forward trigger currently fires.  Contention is
    /// measured per flat residency: the baseline is re-captured at every
    /// reverse flip, so waits suffered before a round trip cannot re-trigger
    /// the next one.
    fn should_migrate(&self) -> bool {
        let residency_waits = self
            .flat
            .stats()
            .doorway_waits()
            .saturating_sub(self.flat_waits_baseline.load(Ordering::SeqCst)); // mem: epoch-cycle
        self.live_sessions() as usize >= self.capacity_threshold
            || residency_waits >= self.contention_threshold
    }

    /// Fires the forward trigger if a threshold is crossed while `word` (a
    /// `FLAT`-phase epoch word) is still current.
    fn maybe_trigger_forward(&self, word: u64) {
        if self.should_migrate() {
            self.advance_epoch(word);
        }
    }

    /// One hysteresis observation, made on every release through the tree
    /// route: `remaining` is the number of still-announced tree acquirers
    /// (the O(1) doorway-contention proxy).  Quiet observations accumulate
    /// in the residency-tagged streak word; a loud one zeroes it;
    /// `quiet_period` consecutive quiet ones of the *same* residency fire
    /// the reverse trigger.
    fn observe_tree_release(&self, remaining: u64) {
        if self.low_watermark == 0 {
            return; // reverse leg disabled
        }
        let word = self.epoch.load(Ordering::SeqCst); // mem: epoch-cycle
        if epoch_phase(word) != EPOCH_TREE {
            return;
        }
        // The streak word carries the residency it was observed in: tag 0
        // (used by the forward flip's reset) can never equal a TREE word, so
        // it always reads as "no streak yet".
        let tag = (word & u64::from(u32::MAX)) << 32;
        let low = self.low_watermark as u64;
        if self.live_sessions() >= low || remaining >= low {
            // Loud: zero this residency's streak.  The common contended case
            // finds it already zero — keep the hot release path store-free.
            if self.quiet_streak.load(Ordering::SeqCst) != tag { // mem: epoch-cycle
                self.quiet_streak.store(tag, Ordering::SeqCst); // mem: epoch-cycle
            }
            return;
        }
        // Quiet: bump the streak, but only under our own residency's tag — a
        // count started in another residency (or by a release preempted
        // across a round trip) restarts at 1 instead of being inherited.
        let mut current = self.quiet_streak.load(Ordering::SeqCst); // mem: epoch-cycle
        loop {
            let count = if current & !u64::from(u32::MAX) == tag {
                (current & u64::from(u32::MAX)).saturating_add(1)
            } else {
                1
            };
            match self.quiet_streak.compare_exchange(
                current,
                tag | count.min(u64::from(u32::MAX)),
                Ordering::SeqCst, // mem: epoch-cycle
                Ordering::SeqCst, // mem: epoch-cycle
            ) {
                Ok(_) => {
                    if count >= self.quiet_period {
                        self.advance_epoch(word);
                    }
                    return;
                }
                Err(actual) => current = actual,
            }
        }
    }

    /// One drain-helping step for the drain phase observed in `word`: flip
    /// `DRAIN_FLAT → TREE` (or `DRAIN_TREE → FLAT`) once the draining plane
    /// is quiescent.  Any process that observes a drain phase helps, so the
    /// handoff needs no dedicated migrator thread.
    fn help_drain(&self, word: u64) {
        let draining = match epoch_phase(word) {
            EPOCH_DRAIN => &self.flat_active,
            EPOCH_DRAIN_TREE => &self.tree_active,
            _ => return,
        };
        if draining.load(Ordering::SeqCst) != 0 { // mem: epoch-cycle
            return;
        }
        // Re-arm the next residency's trigger baselines *before* the flip:
        // a stale helper re-running these stores can only delay a later
        // trigger (it writes current values), never make one fire early.
        if epoch_phase(word) == EPOCH_DRAIN {
            // Entering TREE: no quiet streak from an earlier cycle may
            // survive into this residency (the spec's NoFlapStaleArming).
            self.quiet_streak.store(0, Ordering::SeqCst); // mem: epoch-cycle
        } else {
            // Entering FLAT: contention restarts from here.
            self.flat_waits_baseline
                .store(self.flat.stats().doorway_waits(), Ordering::SeqCst); // mem: epoch-cycle
        }
        if self.advance_epoch(word) {
            if epoch_phase(word) == EPOCH_DRAIN {
                self.stats.record_migration_forward();
            } else {
                self.stats.record_migration_reverse();
            }
        }
    }

    /// Folds the flat plane's and every tree node's statistics, with
    /// `cs_entries` pinned to the adaptive facade's own counter (the PR 3
    /// facade-only rule: entries are counted once, at the outermost facade,
    /// and never double across any number of migrations).
    #[must_use]
    pub fn aggregate_snapshot(&self) -> StatsSnapshot {
        let mut total = self.stats.snapshot();
        let facade_cs_entries = total.cs_entries;
        total.merge(&self.flat.stats().snapshot());
        total.merge(&self.tree.aggregate_snapshot());
        total.cs_entries = facade_cs_entries;
        total
    }
}

impl RawMutexAlgorithm for AdaptiveBakery {
    fn capacity(&self) -> usize {
        self.route.len()
    }

    fn acquire(&self, pid: usize) {
        assert!(pid < self.capacity(), "pid {pid} out of range");
        let word = self.epoch.load(Ordering::SeqCst); // mem: epoch-cycle
        if epoch_phase(word) == EPOCH_FLAT {
            self.maybe_trigger_forward(word);
        }
        // One episode: every arm of the loop waits on the same epoch word,
        // so escalation carries across route retries (like Bakery++'s
        // `L1`/`Reset` loop).
        let mut token = WaitToken::new();
        loop {
            let word = self.epoch.load(Ordering::SeqCst); // mem: epoch-cycle
            match epoch_phase(word) {
                EPOCH_TREE => {
                    // Announce, then re-check the FULL word (Dekker handshake
                    // with the reverse drainer's epoch-advance / active-read;
                    // the cycle tag defeats the stale-TREE ABA).  The ledger
                    // write precedes the increment so a crashed pid's reaper
                    // rolls back at most what was announced for it.
                    self.announce[pid].store(ANNOUNCE_TREE, Ordering::SeqCst); // mem: epoch-cycle
                    self.tree_active.fetch_add(1, Ordering::SeqCst); // mem: epoch-cycle
                    if self.epoch.load(Ordering::SeqCst) == word { // mem: epoch-cycle
                        self.tree.acquire(pid);
                        self.route[pid].store(EPOCH_TREE, Ordering::SeqCst); // mem: epoch-cycle
                        return;
                    }
                    // Lost the race to the drainer: withdraw and re-route.
                    self.tree_active.fetch_sub(1, Ordering::SeqCst); // mem: epoch-cycle
                    self.announce[pid].store(ANNOUNCE_NONE, Ordering::SeqCst); // mem: epoch-cycle
                }
                EPOCH_FLAT => {
                    // The mirror handshake against the forward drainer.
                    self.announce[pid].store(ANNOUNCE_FLAT, Ordering::SeqCst); // mem: epoch-cycle
                    self.flat_active.fetch_add(1, Ordering::SeqCst); // mem: epoch-cycle
                    if self.epoch.load(Ordering::SeqCst) == word { // mem: epoch-cycle
                        self.flat.acquire(pid);
                        self.route[pid].store(EPOCH_FLAT, Ordering::SeqCst); // mem: epoch-cycle
                        return;
                    }
                    self.flat_active.fetch_sub(1, Ordering::SeqCst); // mem: epoch-cycle
                    self.announce[pid].store(ANNOUNCE_NONE, Ordering::SeqCst); // mem: epoch-cycle
                }
                _ => {
                    self.help_drain(word);
                    // Park on the guard site until the epoch moves: the flip
                    // CAS (ours just above, or any helper's) notifies it.
                    self.waits.wait(self.waits.guard(), &mut token, &mut || {
                        self.epoch.load(Ordering::SeqCst) == word // mem: epoch-cycle
                    });
                }
            }
        }
    }

    fn release(&self, pid: usize) {
        if self.route[pid].load(Ordering::SeqCst) == EPOCH_TREE { // mem: epoch-cycle
            self.tree.release(pid);
            let remaining = self.tree_active.fetch_sub(1, Ordering::SeqCst) - 1; // mem: epoch-cycle
            self.announce[pid].store(ANNOUNCE_NONE, Ordering::SeqCst); // mem: epoch-cycle
            self.observe_tree_release(remaining);
        } else {
            self.flat.release(pid);
            self.flat_active.fetch_sub(1, Ordering::SeqCst); // mem: epoch-cycle
            self.announce[pid].store(ANNOUNCE_NONE, Ordering::SeqCst); // mem: epoch-cycle
            let word = self.epoch.load(Ordering::SeqCst); // mem: epoch-cycle
            if epoch_phase(word) == EPOCH_FLAT {
                self.maybe_trigger_forward(word);
            }
        }
        // This decrement may have been the one an in-flight drain was
        // waiting on; finishing the flip here (instead of leaving it to the
        // next live acquirer) is what wakes acquirers parked on the guard
        // site, since the draining plane has no acquirer left to help.
        let word = self.epoch.load(Ordering::SeqCst); // mem: epoch-cycle
        if matches!(epoch_phase(word), EPOCH_DRAIN | EPOCH_DRAIN_TREE) {
            self.help_drain(word);
        }
        // Facade-level release pulse for async lock futures registered via
        // `wait_handle()` (the planes pulse their own namespaces only).
        self.waits.notify(self.waits.release());
    }

    fn try_acquire(&self, pid: usize) -> bool {
        assert!(pid < self.capacity(), "pid {pid} out of range");
        let word = self.epoch.load(Ordering::SeqCst); // mem: epoch-cycle
        match epoch_phase(word) {
            EPOCH_TREE => {
                self.announce[pid].store(ANNOUNCE_TREE, Ordering::SeqCst); // mem: epoch-cycle
                self.tree_active.fetch_add(1, Ordering::SeqCst); // mem: epoch-cycle
                if self.epoch.load(Ordering::SeqCst) == word && self.tree.try_acquire(pid) { // mem: epoch-cycle
                    self.route[pid].store(EPOCH_TREE, Ordering::SeqCst); // mem: epoch-cycle
                    true
                } else {
                    self.tree_active.fetch_sub(1, Ordering::SeqCst); // mem: epoch-cycle
                    self.announce[pid].store(ANNOUNCE_NONE, Ordering::SeqCst); // mem: epoch-cycle
                    false
                }
            }
            EPOCH_FLAT => {
                self.announce[pid].store(ANNOUNCE_FLAT, Ordering::SeqCst); // mem: epoch-cycle
                self.flat_active.fetch_add(1, Ordering::SeqCst); // mem: epoch-cycle
                if self.epoch.load(Ordering::SeqCst) == word && self.flat.try_acquire(pid) { // mem: epoch-cycle
                    self.route[pid].store(EPOCH_FLAT, Ordering::SeqCst); // mem: epoch-cycle
                    true
                } else {
                    self.flat_active.fetch_sub(1, Ordering::SeqCst); // mem: epoch-cycle
                    self.announce[pid].store(ANNOUNCE_NONE, Ordering::SeqCst); // mem: epoch-cycle
                    false
                }
            }
            // Mid-handoff: conservatively fail rather than wait the drain out.
            _ => {
                self.help_drain(word);
                false
            }
        }
    }

    fn crash_abort(&self, pid: usize) -> bool {
        assert!(pid < self.capacity(), "pid {pid} out of range");
        // Epoch-aware rollback, ledger first: if the crashed pid died with an
        // outstanding announce-counter increment (announced, then blocked in
        // a plane doorway), every later drain would wedge at `active != 0`.
        // The ledger says exactly which counter carries it — the epoch may
        // have moved on since the pid announced, so the *current* phase must
        // not be consulted.
        match self.announce[pid].swap(ANNOUNCE_NONE, Ordering::SeqCst) { // mem: epoch-cycle
            ANNOUNCE_FLAT => {
                self.flat_active.fetch_sub(1, Ordering::SeqCst); // mem: epoch-cycle
            }
            ANNOUNCE_TREE => {
                self.tree_active.fetch_sub(1, Ordering::SeqCst); // mem: epoch-cycle
            }
            _ => {}
        }
        // Pre-CS the pid holds no node on either plane, so a blanket
        // register reset is safe and covers every crash point — including a
        // pid that died before announcing at all (both resets are then
        // writes of zero over zero).
        self.flat.crash_reset(pid);
        self.tree.crash_reset_path(pid);
        self.stats.record_crash_abort();
        // The rollback may have been the last announce the in-flight drain
        // was waiting on; help it over the line rather than leaving the flip
        // to the next live acquirer.
        self.help_drain(self.epoch.load(Ordering::SeqCst)); // mem: epoch-cycle
        true
    }

    fn algorithm_name(&self) -> &'static str {
        "adaptive-bakery"
    }

    fn shared_word_count(&self) -> usize {
        // Both planes exist for the lock's whole lifetime, plus the epoch,
        // the two announce counters, the quiet streak and the contention
        // baseline.
        self.flat.shared_word_count() + self.tree.shared_word_count() + 5
    }

    fn register_bound(&self) -> Option<u64> {
        // Tickets never exceed the larger of the two planes' bounds.
        Some(self.flat.bound().max(self.tree.bound()))
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
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};

    #[test]
    fn starts_flat_and_stays_flat_uncontended() {
        let lock = AdaptiveBakery::new(8);
        let slot = lock.register().unwrap();
        for _ in 0..20 {
            let _g = lock.lock(&slot);
        }
        assert_eq!(lock.epoch(), EPOCH_FLAT);
        assert_eq!(lock.stats().cs_entries(), 20);
        assert_eq!(lock.flat().stats().fast_path_hits(), 20);
        assert_eq!(lock.tree().aggregate_snapshot().cs_entries, 0);
        assert_eq!(lock.stats().migrations_forward(), 0);
    }

    #[test]
    fn manual_trigger_migrates_on_next_acquire() {
        let lock = AdaptiveBakery::new(8);
        let slot = lock.register().unwrap();
        drop(lock.lock(&slot));
        lock.trigger_migration();
        assert_eq!(lock.epoch_phase(), EPOCH_DRAIN);
        assert!(!lock.has_migrated(), "mid forward drain the lock is still flat-resident");
        drop(lock.lock(&slot)); // the acquirer helps drain, then routes tree
        assert!(lock.has_migrated());
        assert_eq!(lock.stats().migrations_forward(), 1);
        // Post-migration traffic exercises the tree only.
        let before = lock.tree().level_snapshot(0).fast_path_hits;
        drop(lock.lock(&slot));
        assert!(lock.tree().level_snapshot(0).fast_path_hits > before);
        assert_eq!(lock.stats().cs_entries(), 3);
    }

    #[test]
    fn crash_abort_rolls_back_the_announce_ledger_and_helps_the_drain() {
        let lock = AdaptiveBakery::new(8);
        // Emulate pid 3 dying right after its flat-plane announce: the
        // increment is outstanding, the registers never got written.
        lock.announce[3].store(ANNOUNCE_FLAT, Ordering::SeqCst);
        lock.flat_active.fetch_add(1, Ordering::SeqCst);
        // A forward migration now wedges in DRAIN_FLAT: the drain waits on
        // `flat_active == 0`, which the dead pid can never deliver…
        lock.trigger_migration();
        assert_eq!(lock.epoch_phase(), EPOCH_DRAIN);
        // …until the reaper crash-aborts it: ledger rollback + drain help.
        assert!(lock.crash_abort(3));
        assert_eq!(lock.flat_active.load(Ordering::SeqCst), 0);
        assert_eq!(lock.announce[3].load(Ordering::SeqCst), ANNOUNCE_NONE);
        assert_eq!(lock.epoch_phase(), EPOCH_TREE, "the abort completed the drain");
        assert_eq!(lock.stats().crash_aborts(), 1);
        assert_eq!(lock.stats().migrations_forward(), 1);
        // The lock flows again, now on the tree plane.
        let slot = lock.register_exact(0).unwrap();
        drop(lock.lock(&slot));
        assert_eq!(lock.stats().cs_entries(), 1);
    }

    #[test]
    fn crash_abort_on_an_unannounced_pid_is_a_clean_register_wipe() {
        let lock = AdaptiveBakery::new(4);
        assert!(lock.crash_abort(2));
        assert_eq!(lock.flat_active.load(Ordering::SeqCst), 0);
        assert_eq!(lock.tree_active.load(Ordering::SeqCst), 0);
        assert_eq!(lock.stats().crash_aborts(), 1);
        let slot = lock.register_exact(2).unwrap();
        drop(lock.lock(&slot));
    }

    #[test]
    fn capacity_threshold_uses_session_counters() {
        let lock = AdaptiveBakery::with_config(8, 3, u64::MAX);
        let slot = lock.register().unwrap();
        lock.stats().record_attach();
        lock.stats().record_attach();
        drop(lock.lock(&slot));
        assert_eq!(lock.epoch(), EPOCH_FLAT, "below the threshold");
        lock.stats().record_attach();
        drop(lock.lock(&slot));
        assert!(lock.has_migrated(), "3 live sessions reach the threshold");
    }

    #[test]
    fn detaches_count_against_the_live_threshold() {
        let lock = AdaptiveBakery::with_config(8, 2, u64::MAX);
        for _ in 0..5 {
            lock.stats().record_attach();
            lock.stats().record_detach();
        }
        let slot = lock.register().unwrap();
        drop(lock.lock(&slot));
        assert_eq!(lock.epoch(), EPOCH_FLAT, "churn is not live capacity");
    }

    #[test]
    fn quiet_period_drives_the_reverse_migration() {
        // low_watermark 2, quiet_period 4: with no live sessions and no
        // concurrent acquirers, the 4th quiet tree release fires the reverse
        // trigger and the next acquisition helps the drain flip back to FLAT.
        let lock = AdaptiveBakery::with_hysteresis(4, 3, u64::MAX, 2, 4);
        let slot = lock.register().unwrap();
        lock.trigger_migration();
        drop(lock.lock(&slot)); // helps the forward drain, enters via tree
        assert!(lock.has_migrated()); // that release was quiet observation 1
        for i in 0..2 {
            drop(lock.lock(&slot));
            assert_eq!(lock.epoch_phase(), EPOCH_TREE, "streak {} below period", i + 2);
        }
        // The 4th quiet release reaches quiet_period: reverse triggered —
        // and the releasing thread itself completes the drain (tree_active
        // is already zero at that point), so the flip lands at release time.
        drop(lock.lock(&slot));
        assert_eq!(lock.epoch_phase(), EPOCH_FLAT);
        drop(lock.lock(&slot)); // enters via the flat plane again
        assert_eq!(lock.epoch_phase(), EPOCH_FLAT);
        assert_eq!(lock.cycle(), 1, "one full round trip");
        assert!(!lock.has_migrated(), "has_migrated reports the current plane");
        assert_eq!(lock.stats().migrations_forward(), 1);
        assert_eq!(lock.stats().migrations_reverse(), 1);
        // The facade-only cs_entries rule holds across the whole round trip.
        assert_eq!(lock.stats().cs_entries(), 5);
        assert_eq!(lock.aggregate_snapshot().cs_entries, 5);
        assert_eq!(lock.aggregate_snapshot().migrations_reverse, 1);
    }

    #[test]
    fn live_sessions_above_the_low_watermark_hold_the_tree() {
        let lock = AdaptiveBakery::with_hysteresis(4, 3, u64::MAX, 1, 2);
        let slot = lock.register().unwrap();
        lock.trigger_migration();
        drop(lock.lock(&slot));
        assert!(lock.has_migrated());
        // One live session >= low_watermark 1: every release is loud.
        lock.stats().record_attach();
        for _ in 0..10 {
            drop(lock.lock(&slot));
        }
        assert_eq!(lock.epoch_phase(), EPOCH_TREE, "never quiet while leased");
        // Detach: releases quieten; the second one triggers the reverse and
        // completes the drain on its own release path.
        lock.stats().record_detach();
        drop(lock.lock(&slot));
        drop(lock.lock(&slot));
        assert_eq!(lock.epoch_phase(), EPOCH_FLAT);
        assert_eq!(lock.stats().migrations_reverse(), 1);
    }

    #[test]
    fn epoch_word_is_strictly_monotone_across_two_round_trips() {
        let lock = AdaptiveBakery::with_hysteresis(4, 3, u64::MAX, 2, 1);
        let slot = lock.register().unwrap();
        let mut last = lock.epoch();
        assert_eq!(last, 0);
        for round in 0..2 {
            lock.trigger_migration(); // 4c -> 4c+1
            // Acquire helps the forward drain (-> TREE, 4c+2), enters via the
            // tree; quiet_period 1 makes its release trigger the reverse
            // (-> DRAIN_TREE, 4c+3) and complete the drain in the same
            // release (-> FLAT, 4(c+1)) — the whole round trip in one
            // lock/unlock.
            drop(lock.lock(&slot));
            assert_eq!(lock.epoch(), 4 * (round + 1), "FLAT of cycle {}", round + 1);
            drop(lock.lock(&slot)); // plain flat entry
            assert_eq!(lock.epoch(), 4 * (round + 1));
            assert!(lock.epoch() > last, "the word never repeats");
            last = lock.epoch();
        }
        assert_eq!(lock.stats().migrations_forward(), 2);
        assert_eq!(lock.stats().migrations_reverse(), 2);
        assert_eq!(lock.cycle(), 2);
        assert_eq!(lock.aggregate_snapshot().overflow_attempts, 0);
    }

    #[test]
    fn reverse_trigger_is_a_noop_outside_the_tree_phase() {
        let lock = AdaptiveBakery::new(4);
        lock.trigger_reverse_migration();
        assert_eq!(lock.epoch(), EPOCH_FLAT, "no reverse from FLAT");
        lock.trigger_migration();
        lock.trigger_reverse_migration();
        assert_eq!(lock.epoch_phase(), EPOCH_DRAIN, "no reverse mid forward drain");
    }

    #[test]
    fn forward_contention_baseline_resets_across_a_round_trip() {
        // Trip forward on contention, come back on quiet, and verify the old
        // contention cannot instantly re-trigger (flap) the next forward leg.
        let lock = AdaptiveBakery::with_hysteresis(4, 3, 10, 2, 1);
        let slot = lock.register().unwrap();
        lock.flat().stats().record_doorway_waits(50); // past the threshold
        // This acquire fires the forward trigger, self-helps the drain and
        // enters via the tree; quiet_period 1 makes its release trigger the
        // reverse straight away and complete the drain on the way out.
        drop(lock.lock(&slot));
        assert_eq!(lock.epoch_phase(), EPOCH_FLAT, "round trip complete");
        assert_eq!(lock.stats().migrations_forward(), 1);
        drop(lock.lock(&slot)); // plain flat entry
        assert_eq!(lock.epoch_phase(), EPOCH_FLAT);
        // The 50 stale wait iterations are behind the new baseline now.
        drop(lock.lock(&slot));
        assert_eq!(lock.epoch_phase(), EPOCH_FLAT, "no flap from stale contention");
        lock.flat().stats().record_doorway_waits(10); // fresh residency waits
        // With quiet_period 1 the re-triggered round trip completes inside
        // this one lock/unlock; the forward counter is the evidence.
        drop(lock.lock(&slot));
        assert_eq!(lock.stats().migrations_forward(), 2, "fresh contention re-triggers");
        assert_eq!(lock.stats().migrations_reverse(), 2);
    }

    #[test]
    fn with_config_disables_the_reverse_leg() {
        let lock = AdaptiveBakery::with_config(4, 2, u64::MAX);
        assert_eq!(lock.low_watermark(), 0);
        let slot = lock.register().unwrap();
        lock.trigger_migration();
        for _ in 0..50 {
            drop(lock.lock(&slot));
        }
        assert_eq!(lock.epoch_phase(), EPOCH_TREE, "quiet forever, still tree");
        assert_eq!(lock.stats().migrations_reverse(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly below")]
    fn low_watermark_must_sit_below_the_capacity_threshold() {
        let _ = AdaptiveBakery::with_hysteresis(8, 3, u64::MAX, 3, 4);
    }

    #[test]
    fn migration_preserves_mutual_exclusion_mid_workload() {
        // 4 threads hammer the lock; one of them triggers the migration
        // mid-run, so acquisitions cross the FLAT -> DRAIN -> TREE handoff
        // under real contention.  (Forward-only config: the one-way assertions
        // below would race a hysteresis-driven reverse on a serialised runner.)
        let lock = Arc::new(AdaptiveBakery::with_config(4, 4, u64::MAX));
        let in_cs = StdAtomicU64::new(0);
        let total = StdAtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let lock = Arc::clone(&lock);
                let in_cs = &in_cs;
                let total = &total;
                scope.spawn(move || {
                    let slot = lock.register().unwrap();
                    for i in 0..300 {
                        if t == 0 && i == 150 {
                            lock.trigger_migration();
                        }
                        let _g = lock.lock(&slot);
                        assert_eq!(in_cs.fetch_add(1, StdOrdering::SeqCst), 0);
                        total.fetch_add(1, StdOrdering::SeqCst);
                        in_cs.fetch_sub(1, StdOrdering::SeqCst);
                    }
                });
            }
        });
        assert!(lock.has_migrated());
        assert_eq!(total.load(StdOrdering::SeqCst), 1200);
        assert_eq!(lock.stats().cs_entries(), 1200);
        let aggregate = lock.aggregate_snapshot();
        assert_eq!(aggregate.overflow_attempts, 0);
        // Facade-only cs_entries across the migration: flat + tree traffic
        // is folded for every other counter, but entries count exactly once.
        assert_eq!(aggregate.cs_entries, 1200);
        assert_eq!(aggregate.migrations_forward, 1);
        assert_eq!(lock.flat_active.load(Ordering::SeqCst), 0);
        assert_eq!(lock.tree_active.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn round_trip_preserves_mutual_exclusion_mid_workload() {
        // The same stress, but across the FULL cycle: the forward leg fires
        // mid-rush, the reverse leg fires after the churn subsides to one
        // thread, and a final burst re-exercises the flat plane of cycle 1.
        let lock = Arc::new(AdaptiveBakery::with_hysteresis(
            4,
            3,
            u64::MAX,
            2,
            8,
        ));
        let in_cs = StdAtomicU64::new(0);
        let total = StdAtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let lock = Arc::clone(&lock);
                let in_cs = &in_cs;
                let total = &total;
                scope.spawn(move || {
                    let slot = lock.register().unwrap();
                    let rounds = if t == 0 { 400 } else { 100 };
                    for i in 0..rounds {
                        if t == 0 && i == 50 {
                            lock.trigger_migration();
                        }
                        let _g = lock.lock(&slot);
                        assert_eq!(in_cs.fetch_add(1, StdOrdering::SeqCst), 0);
                        total.fetch_add(1, StdOrdering::SeqCst);
                        in_cs.fetch_sub(1, StdOrdering::SeqCst);
                    }
                });
            }
        });
        // Thread 0's long solo tail is quiet (no live sessions, no concurrent
        // acquirers), so the reverse leg must have completed.
        assert!(!lock.has_migrated(), "the tail must migrate back to flat");
        assert_eq!(lock.stats().migrations_forward(), 1);
        assert_eq!(lock.stats().migrations_reverse(), 1);
        assert_eq!(total.load(StdOrdering::SeqCst), 700);
        assert_eq!(lock.stats().cs_entries(), 700);
        assert_eq!(lock.aggregate_snapshot().cs_entries, 700);
        assert_eq!(lock.flat_active.load(Ordering::SeqCst), 0);
        assert_eq!(lock.tree_active.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn try_acquire_routes_like_acquire() {
        let lock = AdaptiveBakery::new(4);
        let slot = lock.register().unwrap();
        {
            let g = lock.try_lock(&slot).expect("uncontended flat try");
            assert_eq!(g.pid(), 0);
        }
        lock.trigger_migration();
        assert!(
            !lock.try_acquire(slot.pid()),
            "mid-drain try_acquire conservatively fails (and helps drain)"
        );
        assert!(lock.has_migrated(), "the failed try helped the drain flip");
        {
            let _g = lock.try_lock(&slot).expect("uncontended tree try");
        }
        assert_eq!(lock.stats().cs_entries(), 2);
        assert_eq!(lock.flat_active.load(Ordering::SeqCst), 0);
        assert_eq!(lock.tree_active.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn small_capacity_clamps_tree_arity() {
        let lock = AdaptiveBakery::new(2);
        let slot = lock.register().unwrap();
        lock.trigger_migration();
        drop(lock.lock(&slot));
        assert!(lock.has_migrated());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pid_panics() {
        let lock = AdaptiveBakery::new(2);
        lock.acquire(5);
    }

    proptest! {
        /// Flapping-proofness under random attach/detach/CS churn with
        /// adversarial threshold settings: migrations strictly alternate
        /// (|forward − reverse| ≤ 1), every reverse migration consumed at
        /// least `quiet_period` releases (so two migrations can never land
        /// inside one hysteresis quiet period), and no recycled pid is ever
        /// leased to two live sessions across any number of round trips.
        #[test]
        fn hysteresis_never_flaps_under_adversarial_churn(
            capacity_threshold in 2usize..5,
            low_fraction in 1usize..4,
            quiet_period in 1u64..12,
            threads in 2usize..5,
            churns in 4u64..20,
            cs_per_session in 1u64..4,
            seed in 0u64..u64::MAX,
        ) {
            let low_watermark = (capacity_threshold * low_fraction / 4).max(1)
                .min(capacity_threshold - 1);
            let lock = Arc::new(AdaptiveBakery::with_hysteresis(
                4,
                capacity_threshold,
                u64::MAX,
                low_watermark,
                quiet_period,
            ));
            let plane = crate::session::SessionPlane::new(
                Arc::clone(&lock) as Arc<dyn RawMutexAlgorithm>
            );
            let live: std::sync::Mutex<std::collections::HashSet<usize>> =
                std::sync::Mutex::new(std::collections::HashSet::new());
            let violations = StdAtomicU64::new(0);
            let in_cs = StdAtomicU64::new(0);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let plane = &plane;
                    let lock = &lock;
                    let live = &live;
                    let violations = &violations;
                    let in_cs = &in_cs;
                    scope.spawn(move || {
                        let mut state =
                            seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                        for _ in 0..churns {
                            state = state
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            if state & 8 == 0 {
                                // Adversarial manual triggers race the
                                // hysteresis machinery from every phase.
                                lock.trigger_migration();
                            }
                            let session = plane.attach();
                            if !live.lock().unwrap().insert(session.pid()) {
                                violations.fetch_add(1, StdOrdering::SeqCst);
                            }
                            for _ in 0..cs_per_session {
                                let g = session.lock();
                                if in_cs.fetch_add(1, StdOrdering::SeqCst) != 0 {
                                    violations.fetch_add(1, StdOrdering::SeqCst);
                                }
                                in_cs.fetch_sub(1, StdOrdering::SeqCst);
                                drop(g);
                            }
                            if !live.lock().unwrap().remove(&session.pid()) {
                                violations.fetch_add(1, StdOrdering::SeqCst);
                            }
                            drop(session);
                        }
                    });
                }
            });
            prop_assert_eq!(violations.load(StdOrdering::SeqCst), 0,
                "aliasing or double-CS across a migration");
            let stats = lock.stats();
            let forward = stats.migrations_forward();
            let reverse = stats.migrations_reverse();
            prop_assert!(forward.abs_diff(reverse) <= 1,
                "migrations must alternate, got {}/{}", forward, reverse);
            // Each reverse needed quiet_period consecutive quiet releases
            // after the preceding forward flip zeroed the streak.
            prop_assert!(reverse * quiet_period <= stats.cs_entries(),
                "{} reverses x quiet_period {} exceeds {} total releases",
                reverse, quiet_period, stats.cs_entries());
            // Cross-plane bookkeeping drained to zero.
            prop_assert_eq!(lock.flat_active.load(Ordering::SeqCst), 0);
            prop_assert_eq!(lock.tree_active.load(Ordering::SeqCst), 0);
            prop_assert_eq!(plane.live_sessions(), 0);
            prop_assert_eq!(stats.attaches(), stats.detaches());
            // Facade-only cs_entries across every migration in the trace.
            prop_assert_eq!(lock.aggregate_snapshot().cs_entries, stats.cs_entries());
        }
    }
}

//! The session plane: dynamic membership over a fixed-capacity lock.
//!
//! Every lock in this suite is built for a fixed set of `N` processes named
//! `0..N` — the paper's model.  A lock *service*, by contrast, faces an
//! unbounded population of transient clients: far more clients than slots,
//! arriving and departing continuously.  The [`SessionPlane`] bridges the two
//! worlds: it leases the underlying lock's pid slots to clients as RAII
//! [`Session`] handles, recycling each pid as soon as its session detaches.
//!
//! ## Leasing protocol
//!
//! Each pid has one **seat word** (an `AtomicU64`):
//!
//! ```text
//! bit 0      LEASED       a session currently owns this pid
//! bit 1      BUSY         the owning session is inside acquire…release
//! bit 2      IN_CS        the owning session holds the critical section
//! bit 3      QUARANTINED  the holder died inside the CS; recovery pending
//! bits 4..   GEN          bumped once per detach (lease generation)
//! ```
//!
//! * **attach** — one CAS per probed seat, `free(g) → leased(g)`; lock-free
//!   (a failed CAS means another client won that seat, move to the next).
//! * **lock** — CAS `leased(g) → leased(g)|BUSY`, then the underlying
//!   [`RawMutexAlgorithm::acquire`], then CAS `… → …|IN_CS`; the guard
//!   retraces the transitions in reverse around `release`.
//! * **detach** — CAS `leased(g) → free(g+1)`: the generation bump is what
//!   makes recycling safe (below).
//!
//! ## Seat lifecycle (crash recovery included)
//!
//! ```text
//!                 attach                  mark_busy                acquire
//!   FREE(g) ───────────────► LEASED(g) ───────────► BUSY(g) ───────────────► IN_CS(g)
//!      ▲                        │  ▲                   │                        │
//!      │        detach /        │  │    release +      │                        │
//!      │◄───────────────────────┘  └───────────────────┘                        │
//!      │        Session::drop           clear_busy                              │
//!      │                                                                        │
//!      │                       reap() on an expired lease:                      │
//!      │   LEASED / BUSY seat: crash_abort(pid) + recycle ──► FREE(g+1)         │
//!      │   IN_CS seat: the CS must survive the holder ──────────────┐           │
//!      │                                                            ▼           ▼
//!      └───────────────────────────────────────────────────── QUARANTINED(g) ◄──
//!                recover_quarantined → RecoveredSeat drop               force_detach
//!                (release on the dead holder's behalf)                  while IN_CS
//! ```
//!
//! Every transition is a CAS on the full seat word, so each edge is taken by
//! exactly one contender.  The one that matters for crash recovery: the
//! quarantine CAS (`IN_CS(g) → QUARANTINED(g)`) *transfers ownership of the
//! release*.  A holder whose exit CAS fails — because a reaper quarantined
//! its seat between `release`-intent and the CAS — walks away **without**
//! touching the lock; the [`RecoveredSeat`] guard performs the one and only
//! release.  Mutual exclusion is therefore never silently broken: a
//! quarantined seat keeps the underlying lock held (blocking, not aliasing)
//! until an operator explicitly recovers it, exactly like a poisoned
//! `std::sync::Mutex`.
//!
//! ## Why the generation tag
//!
//! A recycled slot must never alias an in-flight acquisition.  Two races are
//! in scope:
//!
//! 1. **detach vs. own acquisition** — detach refuses to complete while the
//!    `BUSY` bit is set (and the RAII types make this unreachable anyway:
//!    a [`SessionGuard`] borrows its [`Session`]).
//! 2. **stale handle vs. recycled seat** — after [`SessionPlane::force_detach`]
//!    evicts a session (the operator's "client crashed in its noncritical
//!    section" action, paper assumptions 1.5–1.7), the seat can be re-leased.
//!    Every operation of the stale session compares the full seat word,
//!    *including the generation*: its `lock()` CAS fails loudly instead of
//!    acquiring a pid that now belongs to someone else, and its drop sees a
//!    foreign generation and walks away instead of freeing the new lease —
//!    the classic ABA that a plain leased-bit could not detect.
//!
//! The plane claims every [`Slot`] of the underlying lock at construction, so
//! sessions are the *only* path to the lock's pids — a plain `Slot` user
//! cannot collide with a leased session.
//!
//! Attach/detach totals are recorded in the underlying lock's [`LockStats`]
//! ([`LockStats::attaches`] / [`LockStats::detaches`]), so workload reports
//! can show churn next to critical-section counts.

use std::fmt;
use std::sync::Arc;

use crate::raw::RawMutexAlgorithm;
use crate::slots::Slot;
use crate::stats::LockStats;
use crate::sync::{AtomicU64, Ordering};
use crate::wait::{WaitHandle, WaitToken};

/// Seat-word bit: a session currently owns this pid.
const LEASED: u64 = 0b0001;
/// Seat-word bit: the owning session is between acquire and release.
const BUSY: u64 = 0b0010;
/// Seat-word bit: the owning session currently holds the critical section
/// (set after `acquire` returns, cleared before `release` starts) — the bit
/// that tells the reaper "this crash needs quarantine, not a register wipe".
const IN_CS: u64 = 0b0100;
/// Seat-word bit: the holder died inside the CS; the underlying lock is
/// still held on its pid until [`SessionPlane::recover_quarantined`].
const QUARANTINED: u64 = 0b1000;
/// Shift of the lease generation within the seat word.
const GEN_SHIFT: u32 = 4;

/// Lease duration meaning "never expires" (the default: planes built with
/// [`SessionPlane::new`] have no failure detector and `reap` is a no-op).
pub const LEASE_FOREVER: u64 = u64::MAX;

#[inline]
fn seat_word(gen: u64, flags: u64) -> u64 {
    (gen << GEN_SHIFT) | flags
}

#[inline]
fn seat_gen(word: u64) -> u64 {
    word >> GEN_SHIFT
}

/// Errors surfaced by [`SessionPlane::try_attach`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// Every pid slot of the underlying lock is currently leased.
    Exhausted {
        /// Slot capacity of the underlying lock.
        capacity: usize,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Exhausted { capacity } => {
                write!(f, "all {capacity} pid slots are leased to live sessions")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Lock-free pid-slot leasing over any [`RawMutexAlgorithm`].
///
/// ```
/// use std::sync::Arc;
/// use bakery_core::{BakeryPlusPlusLock, RawMutexAlgorithm};
/// use bakery_core::session::SessionPlane;
///
/// let lock: Arc<dyn RawMutexAlgorithm> = Arc::new(BakeryPlusPlusLock::with_bound(4, 255));
/// let plane = SessionPlane::new(lock);
/// let session = plane.attach();           // lease a pid
/// {
///     let _guard = session.lock();        // enter the critical section
/// }
/// drop(session);                          // pid recycled for the next client
/// assert_eq!(plane.stats().attaches(), 1);
/// assert_eq!(plane.stats().detaches(), 1);
/// ```
pub struct SessionPlane {
    lock: Arc<dyn RawMutexAlgorithm>,
    seats: Box<[AtomicU64]>,
    /// Absolute expiry tick of each seat's lease, renewed on attach and on
    /// every lock-path transition.  Only meaningful while the seat is leased.
    deadlines: Box<[AtomicU64]>,
    /// Logical failure-detector clock (caller-advanced; the plane never
    /// reads wall time so tests and experiments stay deterministic).
    clock: AtomicU64,
    /// Lease duration in clock ticks; [`LEASE_FOREVER`] disables expiry.
    lease_ticks: u64,
    /// Exclusive claim on every pid of the underlying lock: holding the
    /// `Slot`s makes the plane the only way to drive the lock.
    _slots: Vec<Slot>,
    /// The plane's wait plane: attach waiters park on its attach site and
    /// are woken by every detach/recycle.  Shares the underlying lock's
    /// [`crate::wait::WaitStrategy`] when the lock exposes one.
    waits: WaitHandle,
}

/// How many parked attach waiters one detach/recycle wakes.  One freed seat
/// can admit only one client, but waking a few tolerates woken clients that
/// lose the race (or cancelled async waiters whose stale registrations soak
/// up wakes) without thundering the whole herd on every detach.
const ATTACH_WAKE_BATCH: usize = 4;

/// What one [`SessionPlane::reap`] sweep did, seat by seat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReapReport {
    /// Seats whose holder died in its NCS (leased, not busy): recycled.
    pub recycled_idle: usize,
    /// Seats whose holder died in the doorway or while waiting: recovered
    /// via [`RawMutexAlgorithm::crash_abort`] and recycled.
    pub crash_aborted: usize,
    /// Seats whose holder died inside the CS: moved to `QUARANTINED`
    /// (awaiting [`SessionPlane::recover_quarantined`]).
    pub quarantined: usize,
    /// Expired doorway seats the underlying algorithm refused to
    /// crash-abort (conservative [`RawMutexAlgorithm::crash_abort`]
    /// default): left untouched.
    pub refused: usize,
}

impl ReapReport {
    /// Total seats this sweep recovered or quarantined.
    #[must_use]
    pub fn total(&self) -> usize {
        self.recycled_idle + self.crash_aborted + self.quarantined
    }
}

impl fmt::Debug for SessionPlane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionPlane")
            .field("algorithm", &self.lock.algorithm_name())
            .field("capacity", &self.capacity())
            .field("live_sessions", &self.live_sessions())
            .finish()
    }
}

impl SessionPlane {
    /// Builds a session plane over `lock`, claiming every one of its slots.
    ///
    /// # Panics
    /// Panics if any slot of `lock` is already claimed — the plane must be
    /// the lock's sole driver for the leasing guarantees to hold.
    #[must_use]
    pub fn new(lock: Arc<dyn RawMutexAlgorithm>) -> Arc<Self> {
        Self::with_lease(lock, LEASE_FOREVER)
    }

    /// Builds a session plane whose leases expire `lease_ticks` logical
    /// clock ticks after their last renewal (attach, any lock-path
    /// transition, or [`Session::renew_lease`]).  Drive the clock with
    /// [`SessionPlane::advance_clock`] and sweep expired seats with
    /// [`SessionPlane::reap`].
    ///
    /// The lease is the failure-detector contract: a seat is presumed dead
    /// only once its deadline passes, so `lease_ticks` must exceed the
    /// longest attach-to-renewal gap of a *live* client — including its
    /// worst-case doorway wait and critical section.  [`LEASE_FOREVER`]
    /// disables expiry entirely.
    ///
    /// # Panics
    /// Panics if any slot of `lock` is already claimed — the plane must be
    /// the lock's sole driver for the leasing guarantees to hold.
    #[must_use]
    pub fn with_lease(lock: Arc<dyn RawMutexAlgorithm>, lease_ticks: u64) -> Arc<Self> {
        let capacity = lock.capacity();
        let slots: Vec<Slot> = (0..capacity)
            .map(|pid| {
                lock.register_exact(pid)
                    .expect("the session plane must own every slot of its lock")
            })
            .collect();
        // Share the lock's wait strategy (so attach waiters park under the
        // same discipline as its L2/L3 waiters) in a namespace of our own;
        // locks outside the wait machinery get the process-wide default.
        let waits = match lock.wait_handle() {
            Some(handle) => WaitHandle::new(Arc::clone(handle.strategy())),
            None => WaitHandle::default_handle(),
        };
        Arc::new(Self {
            lock,
            seats: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            deadlines: (0..capacity).map(|_| AtomicU64::new(LEASE_FOREVER)).collect(),
            clock: AtomicU64::new(0),
            lease_ticks,
            _slots: slots,
            waits,
        })
    }

    /// The plane's wait plane (attach waiters and seat-state waits).
    #[must_use]
    pub fn wait_plane(&self) -> &WaitHandle {
        &self.waits
    }

    /// True when at least one seat is currently free — the attach-wait
    /// predicate (a false may be stale the instant it is read; only the
    /// attach CAS decides).
    #[must_use]
    pub fn has_free_seat(&self) -> bool {
        self.seats
            .iter()
            .any(|seat| seat.load(Ordering::SeqCst) & LEASED == 0) // mem: seat-word
    }

    /// Number of pid slots (the maximum number of concurrently live
    /// sessions).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.seats.len()
    }

    /// The underlying lock algorithm.
    #[must_use]
    pub fn algorithm(&self) -> &dyn RawMutexAlgorithm {
        &*self.lock
    }

    /// The underlying lock's statistics block (attach/detach totals included).
    #[must_use]
    pub fn stats(&self) -> &LockStats {
        self.lock.stats()
    }

    /// Number of currently leased seats.
    #[must_use]
    pub fn live_sessions(&self) -> usize {
        self.seats
            .iter()
            .filter(|seat| seat.load(Ordering::SeqCst) & LEASED != 0) // mem: seat-word
            .count()
    }

    /// The current logical failure-detector time.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::SeqCst) // mem: seat-word
    }

    /// Advances the logical clock to `now` (monotone: a lagging caller can
    /// never rewind it).  The plane itself never reads wall time — whoever
    /// runs the service loop owns the notion of "now", which is what keeps
    /// the E12 fault-injection schedules deterministic.
    pub fn advance_clock(&self, now: u64) {
        self.clock.fetch_max(now, Ordering::SeqCst); // mem: seat-word
    }

    /// The lease duration this plane was built with ([`LEASE_FOREVER`] when
    /// expiry is disabled).
    #[must_use]
    pub fn lease_ticks(&self) -> u64 {
        self.lease_ticks
    }

    /// Stamps seat `pid`'s deadline `lease_ticks` past the current clock.
    fn renew_deadline(&self, pid: usize) {
        let deadline = self.clock().saturating_add(self.lease_ticks);
        self.deadlines[pid].store(deadline, Ordering::SeqCst); // mem: seat-word
    }

    /// True when seat `pid`'s lease deadline has passed.
    fn lease_expired(&self, pid: usize) -> bool {
        self.clock() >= self.deadlines[pid].load(Ordering::SeqCst) // mem: seat-word
    }

    /// Leases a free pid, or reports exhaustion without blocking.
    pub fn try_attach(self: &Arc<Self>) -> Result<Session, SessionError> {
        for pid in 0..self.capacity() {
            let seat = &self.seats[pid];
            let word = seat.load(Ordering::SeqCst); // mem: seat-word
            if word & LEASED != 0 {
                continue;
            }
            let gen = seat_gen(word);
            // Stamp the deadline *before* publishing the lease: a reaper
            // must never observe a fresh lease against a stale deadline.
            // Losing the CAS below leaves a harmlessly-fresh stamp behind.
            self.renew_deadline(pid);
            if seat
                .compare_exchange(
                    seat_word(gen, 0),
                    seat_word(gen, LEASED),
                    Ordering::SeqCst, // mem: seat-word
                    Ordering::SeqCst, // mem: seat-word
                )
                .is_ok()
            {
                self.lock.stats().record_attach();
                return Ok(Session {
                    plane: Arc::clone(self),
                    pid,
                    gen,
                });
            }
        }
        Err(SessionError::Exhausted {
            capacity: self.capacity(),
        })
    }

    /// Leases a pid, waiting (through the plane's [`crate::wait::WaitStrategy`])
    /// until one frees up.
    ///
    /// This is the client-facing entry point of the E11 "lock service"
    /// regime: far more clients than seats, each waiting its turn to attach.
    /// Under a parking strategy a fully-leased plane costs the waiter a
    /// bounded number of rounds — every detach and seat recycle wakes parked
    /// attach waiters — instead of the unbounded 100%-CPU spin this method
    /// performed before the wait plane existed.
    #[must_use]
    pub fn attach(self: &Arc<Self>) -> Session {
        let site = self.waits.attach();
        let mut token = WaitToken::new();
        loop {
            match self.try_attach() {
                Ok(session) => return session,
                Err(SessionError::Exhausted { .. }) => {
                    self.waits
                        .wait(site, &mut token, &mut || !self.has_free_seat());
                }
            }
        }
    }

    /// Leases up to `max` pids in one seat sweep — the connection-storm
    /// batch path.  One pass over the seat words claims every free seat it
    /// can CAS (at most `max`); an empty vec means the plane was fully
    /// leased at every probed instant.  Never blocks.
    #[must_use]
    pub fn try_attach_batch(self: &Arc<Self>, max: usize) -> Vec<Session> {
        let mut sessions = Vec::new();
        if max == 0 {
            return sessions;
        }
        for pid in 0..self.capacity() {
            let seat = &self.seats[pid];
            let word = seat.load(Ordering::SeqCst); // mem: seat-word
            if word & LEASED != 0 {
                continue;
            }
            let gen = seat_gen(word);
            self.renew_deadline(pid);
            if seat
                .compare_exchange(
                    seat_word(gen, 0),
                    seat_word(gen, LEASED),
                    Ordering::SeqCst, // mem: seat-word
                    Ordering::SeqCst, // mem: seat-word
                )
                .is_ok()
            {
                self.lock.stats().record_attach();
                sessions.push(Session {
                    plane: Arc::clone(self),
                    pid,
                    gen,
                });
                if sessions.len() == max {
                    break;
                }
            }
        }
        sessions
    }

    /// Evicts the session on `pid`, if any.
    ///
    /// Models the operator action for a client that crashed in its
    /// noncritical section (paper assumptions 1.5–1.7).  A seat whose holder
    /// is **inside the critical section** is not recycled — that would hand
    /// the CS-holding pid to a new client while the CS is occupied — but
    /// moved to `QUARANTINED`, awaiting
    /// [`SessionPlane::recover_quarantined`].  A seat mid-doorway (`BUSY`
    /// without `IN_CS`) is spun out: the acquisition completes into the CS
    /// (and quarantines) or retreats (and detaches) promptly.
    ///
    /// Returns `true` when the lease was ended (detached *or* quarantined).
    pub fn force_detach(&self, pid: usize) -> bool {
        let seat = &self.seats[pid];
        let site = self.waits.guard();
        let mut token = WaitToken::new();
        loop {
            let word = seat.load(Ordering::SeqCst); // mem: seat-word
            if word & LEASED == 0 {
                return false;
            }
            if word & QUARANTINED != 0 {
                return false; // already evicted; recovery is pending
            }
            if word & IN_CS != 0 {
                // The holder occupies the CS: quarantine instead of
                // recycling (the latent aliasing hole this path used to
                // have).  The CAS transfers release-ownership to the
                // recovery guard; a concurrently-releasing live holder that
                // loses it walks away without touching the lock.
                if self.quarantine_seat(pid, word) {
                    return true;
                }
                continue; // raced with the holder's exit; re-read
            }
            if word & BUSY != 0 {
                // Mid-doorway: wait for the acquisition to land or retreat
                // (enter_cs and clear_busy both notify the guard site).
                self.waits.wait(site, &mut token, &mut || {
                    let w = seat.load(Ordering::SeqCst); // mem: seat-word
                    w & BUSY != 0 && w & IN_CS == 0
                });
                continue;
            }
            if self.detach_seat(pid, seat_gen(word)) {
                return true;
            }
        }
    }

    /// CAS `IN_CS(gen) → QUARANTINED(gen)` — the edge that transfers
    /// ownership of the pending `release` from the (presumed dead) holder to
    /// the future [`RecoveredSeat`] guard.
    fn quarantine_seat(&self, pid: usize, word: u64) -> bool {
        debug_assert!(word & IN_CS != 0);
        self.seats[pid]
            .compare_exchange(
                word,
                seat_word(seat_gen(word), LEASED | QUARANTINED),
                Ordering::SeqCst, // mem: seat-word
                Ordering::SeqCst, // mem: seat-word
            )
            .is_ok()
    }

    /// Sweeps every seat whose lease deadline has passed, applying the
    /// paper's crash rule to each presumed-dead holder:
    ///
    /// * **idle** (leased, not busy) — the holder died in its NCS; its
    ///   registers are already zero, so the seat is simply recycled;
    /// * **doorway / waiting** (`BUSY`, not `IN_CS`) — recovered via
    ///   [`RawMutexAlgorithm::crash_abort`] (registers zeroed) and
    ///   recycled; if the algorithm's conservative default
    ///   refuses, the seat is left untouched and counted as `refused`;
    /// * **inside the CS** (`IN_CS`) — moved to `QUARANTINED`: mutual
    ///   exclusion is never silently broken, the lock stays held on that pid
    ///   until [`SessionPlane::recover_quarantined`].
    ///
    /// Every recovered seat is counted in [`LockStats::seat_recoveries`];
    /// the sweep is driven entirely by the caller-advanced logical clock, so
    /// a reaper thread calling `reap` at a fixed cadence is deterministic
    /// under the E12 fault schedules.
    ///
    /// The failure-detector contract is the lease itself: a live client that
    /// lets its deadline lapse (e.g. a doorway wait longer than
    /// `lease_ticks`) is indistinguishable from a dead one and will be
    /// reaped — its next seat transition then fails loudly (stale-session
    /// panic) instead of aliasing the recycled pid.
    pub fn reap(&self) -> ReapReport {
        let mut report = ReapReport::default();
        for pid in 0..self.capacity() {
            let seat = &self.seats[pid];
            let word = seat.load(Ordering::SeqCst); // mem: seat-word
            if word & LEASED == 0 || word & QUARANTINED != 0 {
                continue;
            }
            if !self.lease_expired(pid) {
                continue;
            }
            if word & IN_CS != 0 {
                if self.quarantine_seat(pid, word) {
                    report.quarantined += 1;
                }
                continue;
            }
            if word & BUSY != 0 {
                // Crashed in the doorway or while waiting: wipe the pid's
                // registers first — the seat must never re-lease while they
                // are dirty — then recycle.
                if !self.lock.crash_abort(pid) {
                    report.refused += 1;
                    continue;
                }
                if seat
                    .compare_exchange(
                        word,
                        seat_word(seat_gen(word).wrapping_add(1), 0),
                        Ordering::SeqCst, // mem: seat-word
                        Ordering::SeqCst, // mem: seat-word
                    )
                    .is_ok()
                {
                    self.lock.stats().record_detach();
                    self.lock.stats().record_seat_recovery();
                    self.waits.notify_some(self.waits.attach(), ATTACH_WAKE_BATCH);
                    report.crash_aborted += 1;
                }
                continue;
            }
            // Idle seat: the holder died in its NCS with clean registers.
            if self.detach_seat(pid, seat_gen(word)) {
                self.lock.stats().record_seat_recovery();
                report.recycled_idle += 1;
            }
        }
        report
    }

    /// Takes over a `QUARANTINED` seat: the returned [`RecoveredSeat`] guard
    /// *owns the critical section* the dead holder left occupied — the
    /// operator inspects or repairs shared state under its protection, and
    /// dropping it performs the one release on the dead pid's behalf and
    /// recycles the seat (generation bumped).  Mirrors
    /// `std::sync::Mutex` poisoning: the CS is handed back explicitly, never
    /// silently.
    ///
    /// Returns `None` when seat `pid` is not quarantined, or when another
    /// recoverer won the takeover CAS.
    pub fn recover_quarantined(&self, pid: usize) -> Option<RecoveredSeat<'_>> {
        let seat = &self.seats[pid];
        let word = seat.load(Ordering::SeqCst); // mem: seat-word
        if word & QUARANTINED == 0 {
            return None;
        }
        let gen = seat_gen(word);
        // Re-stamp the deadline before taking over, so a concurrent reaper
        // treats the recovery like any other live holder's lease.
        self.renew_deadline(pid);
        if seat
            .compare_exchange(
                word,
                seat_word(gen, LEASED | BUSY | IN_CS),
                Ordering::SeqCst, // mem: seat-word
                Ordering::SeqCst, // mem: seat-word
            )
            .is_ok()
        {
            Some(RecoveredSeat {
                plane: self,
                pid,
                gen,
            })
        } else {
            None
        }
    }

    /// Pids currently in the `QUARANTINED` state (awaiting recovery).
    #[must_use]
    pub fn quarantined_seats(&self) -> Vec<usize> {
        (0..self.capacity())
            .filter(|&pid| self.seats[pid].load(Ordering::SeqCst) & QUARANTINED != 0) // mem: seat-word
            .collect()
    }

    /// CAS `leased(gen) → free(gen + 1)`.  Fails (returns `false`) when the
    /// seat is busy, already free, or on a different generation — i.e. when
    /// the caller's view of the lease is stale.
    fn detach_seat(&self, pid: usize, gen: u64) -> bool {
        let freed = self.seats[pid]
            .compare_exchange(
                seat_word(gen, LEASED),
                seat_word(gen.wrapping_add(1), 0),
                Ordering::SeqCst, // mem: seat-word
                Ordering::SeqCst, // mem: seat-word
            )
            .is_ok();
        if freed {
            self.lock.stats().record_detach();
            // A seat just freed: wake a bounded batch of attach waiters.
            self.waits.notify_some(self.waits.attach(), ATTACH_WAKE_BATCH);
        }
        freed
    }
}

/// A leased pid on a [`SessionPlane`]; detaches (recycling the pid) on drop.
///
/// The session is the unit of dynamic membership: `attach → lock/unlock… →
/// detach` is one client's lifetime, and the underlying fixed-`N` lock only
/// ever sees its stable pid set.
pub struct Session {
    plane: Arc<SessionPlane>,
    pid: usize,
    gen: u64,
}

impl Session {
    /// The leased pid (the process id this client plays).
    #[must_use]
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// The lease generation of this session's seat.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// The plane this session is attached to.
    #[must_use]
    pub fn plane(&self) -> &Arc<SessionPlane> {
        &self.plane
    }

    /// Re-stamps this session's lease deadline `lease_ticks` past the
    /// plane's current clock — the explicit heartbeat for a client that is
    /// alive but between lock operations.
    pub fn renew_lease(&self) {
        self.plane.renew_deadline(self.pid);
    }

    /// Marks the seat `BUSY` for the duration of an acquisition.
    ///
    /// # Panics
    /// Panics if the session was evicted by [`SessionPlane::force_detach`]
    /// or reaped after its lease expired, and its seat possibly re-leased —
    /// the seat-word mismatch is detected here, which is exactly the
    /// aliasing the generation tag exists to prevent.
    fn mark_busy(&self) {
        self.plane.renew_deadline(self.pid);
        let leased = seat_word(self.gen, LEASED);
        self.plane.seats[self.pid]
            .compare_exchange(
                leased,
                leased | BUSY,
                Ordering::SeqCst, // mem: seat-word
                Ordering::SeqCst, // mem: seat-word
            )
            .unwrap_or_else(|actual| {
                panic!(
                    "stale session: pid {} generation {} was force-detached \
                     (seat word is now {actual:#x})",
                    self.pid, self.gen
                )
            });
    }

    /// CAS `BUSY(gen) → IN_CS(gen)` after `acquire` returns: from here on a
    /// crash is a crash-*inside-CS* and must quarantine, not register-wipe.
    ///
    /// # Panics
    /// Panics if the seat was reaped mid-acquisition (a lease-contract
    /// violation: the doorway wait outlived `lease_ticks`).
    fn enter_cs(&self) {
        self.plane.renew_deadline(self.pid);
        let busy = seat_word(self.gen, LEASED | BUSY);
        self.plane.seats[self.pid]
            .compare_exchange(
                busy,
                busy | IN_CS,
                Ordering::SeqCst, // mem: seat-word
                Ordering::SeqCst, // mem: seat-word
            )
            .unwrap_or_else(|actual| {
                panic!(
                    "session pid {} generation {} was reaped mid-acquisition \
                     (seat word is now {actual:#x}); lease_ticks must exceed \
                     the worst-case doorway wait",
                    self.pid, self.gen
                )
            });
        // The seat left the BUSY-without-IN_CS window force_detach waits on.
        self.plane.waits.notify(self.plane.waits.guard());
    }

    /// CAS the `BUSY` bit away after a completed (or abandoned) lock
    /// operation.  Failure is tolerated: it means a reaper already ended
    /// this lease, and the next operation will fail loudly in `mark_busy`.
    fn clear_busy(&self) {
        let _ = self.plane.seats[self.pid].compare_exchange(
            seat_word(self.gen, LEASED | BUSY),
            seat_word(self.gen, LEASED),
            Ordering::SeqCst, // mem: seat-word
            Ordering::SeqCst, // mem: seat-word
        );
        // Win or lose, the BUSY window is over: wake force_detach waiters.
        self.plane.waits.notify(self.plane.waits.guard());
    }

    /// Enters the critical section, blocking until granted.
    ///
    /// # Panics
    /// Panics if the session is stale (see [`SessionPlane::force_detach`]).
    #[must_use]
    pub fn lock(&self) -> SessionGuard<'_> {
        self.mark_busy();
        self.plane.lock.acquire(self.pid);
        self.enter_cs();
        self.plane.lock.stats().record_cs_entry();
        SessionGuard { session: self }
    }

    /// One non-blocking attempt to enter the critical section (may fail
    /// spuriously, like [`RawMutexAlgorithm::try_acquire`]).
    ///
    /// # Panics
    /// Panics if the session is stale (see [`SessionPlane::force_detach`]).
    #[must_use]
    pub fn try_lock(&self) -> Option<SessionGuard<'_>> {
        self.mark_busy();
        if self.plane.lock.try_acquire(self.pid) {
            self.enter_cs();
            self.plane.lock.stats().record_cs_entry();
            Some(SessionGuard { session: self })
        } else {
            self.clear_busy();
            None
        }
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("pid", &self.pid)
            .field("generation", &self.gen)
            .field("algorithm", &self.plane.lock.algorithm_name())
            .finish()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // A stale session (evicted seat, possibly re-leased at a higher
        // generation) must walk away without freeing the *new* lease: the
        // generation comparison inside detach_seat makes its CAS fail.
        let _ = self.plane.detach_seat(self.pid, self.gen);
    }
}

/// A critical section held through a [`Session`]; releases on drop.
pub struct SessionGuard<'a> {
    session: &'a Session,
}

impl SessionGuard<'_> {
    /// The pid holding the critical section.
    #[must_use]
    pub fn pid(&self) -> usize {
        self.session.pid
    }
}

impl fmt::Debug for SessionGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionGuard")
            .field("pid", &self.session.pid)
            .finish()
    }
}

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        let session = self.session;
        // Leave the CS in two CAS steps.  Step 1 (`IN_CS → BUSY`) races the
        // reaper's quarantine CAS on the same word: exactly one wins.  Losing
        // means the seat is QUARANTINED and ownership of the release has
        // transferred to the future `RecoveredSeat` guard — walk away WITHOUT
        // touching the lock, or the recovery path would double-release.
        let in_cs = seat_word(session.gen, LEASED | BUSY | IN_CS);
        if session.plane.seats[session.pid]
            .compare_exchange(
                in_cs,
                seat_word(session.gen, LEASED | BUSY),
                Ordering::SeqCst, // mem: seat-word
                Ordering::SeqCst, // mem: seat-word
            )
            .is_err()
        {
            return;
        }
        session.plane.lock.release(session.pid);
        session.clear_busy();
    }
}

/// Ownership of the critical section a dead (or evicted) holder left
/// occupied, obtained from [`SessionPlane::recover_quarantined`].
///
/// While the guard lives, the underlying lock is still held on the dead
/// pid — the recovering operator inspects or repairs shared state under the
/// same mutual exclusion the crashed client had.  Dropping the guard
/// performs the release on the dead holder's behalf and recycles the seat at
/// a bumped generation.
pub struct RecoveredSeat<'a> {
    plane: &'a SessionPlane,
    pid: usize,
    gen: u64,
}

impl RecoveredSeat<'_> {
    /// The pid whose critical section this guard holds.
    #[must_use]
    pub fn pid(&self) -> usize {
        self.pid
    }
}

impl fmt::Debug for RecoveredSeat<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecoveredSeat")
            .field("pid", &self.pid)
            .field("generation", &self.gen)
            .finish()
    }
}

impl Drop for RecoveredSeat<'_> {
    fn drop(&mut self) {
        // The one release the dead holder never performed.
        self.plane.lock.release(self.pid);
        // Free the seat at a bumped generation; the takeover CAS in
        // `recover_quarantined` made this guard the word's sole owner.
        self.plane.seats[self.pid].store(
            seat_word(self.gen.wrapping_add(1), 0),
            Ordering::SeqCst, // mem: seat-word
        );
        self.plane.lock.stats().record_detach();
        self.plane.lock.stats().record_seat_recovery();
        self.plane
            .waits
            .notify_some(self.plane.waits.attach(), ATTACH_WAKE_BATCH);
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::bakery_pp::BakeryPlusPlusLock;
    use crate::tree::TreeBakery;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering as StdOrdering};
    use std::sync::Mutex;

    fn plane_over_pp(n: usize) -> Arc<SessionPlane> {
        SessionPlane::new(Arc::new(BakeryPlusPlusLock::with_bound(n, 255)))
    }

    #[test]
    fn attach_lock_detach_roundtrip() {
        let plane = plane_over_pp(2);
        let s = plane.attach();
        assert_eq!(s.pid(), 0);
        assert_eq!(s.generation(), 0);
        {
            let g = s.lock();
            assert_eq!(g.pid(), 0);
        }
        drop(s);
        assert_eq!(plane.live_sessions(), 0);
        assert_eq!(plane.stats().attaches(), 1);
        assert_eq!(plane.stats().detaches(), 1);
        assert_eq!(plane.stats().cs_entries(), 1);
        // The pid was recycled with a bumped generation.
        let s = plane.attach();
        assert_eq!(s.pid(), 0);
        assert_eq!(s.generation(), 1);
    }

    #[test]
    fn exhaustion_is_reported_and_clears() {
        let plane = plane_over_pp(2);
        let a = plane.attach();
        let b = plane.attach();
        assert_eq!((a.pid(), b.pid()), (0, 1));
        assert_eq!(
            plane.try_attach().unwrap_err(),
            SessionError::Exhausted { capacity: 2 }
        );
        assert!(plane
            .try_attach()
            .unwrap_err()
            .to_string()
            .contains("leased"));
        drop(a);
        assert_eq!(plane.try_attach().unwrap().pid(), 0);
    }

    #[test]
    fn plane_owns_every_slot_of_the_lock() {
        let lock = Arc::new(BakeryPlusPlusLock::with_bound(3, 255));
        let plane = SessionPlane::new(Arc::clone(&lock) as Arc<dyn RawMutexAlgorithm>);
        // No raw Slot can collide with a session.
        assert!(lock.register().is_err());
        let _s = plane.attach();
    }

    #[test]
    #[should_panic(expected = "must own every slot")]
    fn plane_rejects_a_lock_with_claimed_slots() {
        let lock = Arc::new(BakeryPlusPlusLock::with_bound(2, 255));
        let _claimed = lock.register().unwrap();
        let _ = SessionPlane::new(lock);
    }

    #[test]
    fn try_lock_through_a_session() {
        let plane = plane_over_pp(2);
        let s = plane.attach();
        {
            let g = s.try_lock().expect("uncontended try_lock");
            assert_eq!(g.pid(), 0);
        }
        assert_eq!(plane.stats().cs_entries(), 1);
    }

    #[test]
    fn force_detach_recycles_and_stale_session_is_refused() {
        let plane = plane_over_pp(2);
        let stale = plane.attach();
        assert!(plane.force_detach(stale.pid()));
        assert_eq!(plane.live_sessions(), 0);
        // The seat re-leases at a higher generation…
        let fresh = plane.attach();
        assert_eq!(fresh.pid(), stale.pid());
        assert_eq!(fresh.generation(), stale.generation() + 1);
        // …and the stale handle can no longer acquire through it.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = stale.lock();
        }));
        assert!(err.is_err(), "stale session must panic, not alias");
        // Dropping the stale handle must not free the fresh lease.
        drop(stale);
        assert_eq!(plane.live_sessions(), 1);
        assert!(fresh.try_lock().is_some());
        assert_eq!(plane.stats().attaches(), 2);
        assert_eq!(plane.stats().detaches(), 1, "the stale drop detached nothing");
    }

    #[test]
    fn force_detach_on_a_free_seat_is_a_noop() {
        let plane = plane_over_pp(2);
        assert!(!plane.force_detach(1));
        assert_eq!(plane.stats().detaches(), 0);
    }

    #[test]
    fn churn_over_a_tree_lock_recycles_without_aliasing() {
        // 4 worker threads churn 64 clients each over a 4-slot tree lock:
        // every live (pid) must be unique at all times.
        let plane = SessionPlane::new(Arc::new(TreeBakery::with_arity(4, 2)));
        let live: Mutex<HashSet<usize>> = Mutex::new(HashSet::new());
        let in_cs = StdAtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..64 {
                        let session = plane.attach();
                        assert!(
                            live.lock().unwrap().insert(session.pid()),
                            "two live sessions on pid {}",
                            session.pid()
                        );
                        for _ in 0..3 {
                            let _g = session.lock();
                            assert_eq!(in_cs.fetch_add(1, StdOrdering::SeqCst), 0);
                            in_cs.fetch_sub(1, StdOrdering::SeqCst);
                        }
                        assert!(live.lock().unwrap().remove(&session.pid()));
                        drop(session);
                    }
                });
            }
        });
        assert_eq!(plane.stats().attaches(), 256);
        assert_eq!(plane.stats().detaches(), 256);
        assert_eq!(plane.stats().cs_entries(), 768);
        assert_eq!(plane.live_sessions(), 0);
    }

    #[test]
    fn reap_is_a_noop_without_expiry_or_before_the_deadline() {
        let plane = plane_over_pp(2);
        let _s = plane.attach();
        plane.advance_clock(u64::MAX - 1);
        assert_eq!(plane.reap(), ReapReport::default(), "LEASE_FOREVER never expires");

        let plane = SessionPlane::with_lease(
            Arc::new(BakeryPlusPlusLock::with_bound(2, 255)),
            10,
        );
        let _s = plane.attach();
        plane.advance_clock(9);
        assert_eq!(plane.reap(), ReapReport::default(), "deadline not reached");
        assert_eq!(plane.live_sessions(), 1);
    }

    #[test]
    fn reap_recycles_an_idle_crashed_seat() {
        let plane = SessionPlane::with_lease(
            Arc::new(BakeryPlusPlusLock::with_bound(2, 255)),
            10,
        );
        let dead = plane.attach();
        std::mem::forget(dead); // the client vanishes without detaching
        plane.advance_clock(10);
        let report = plane.reap();
        assert_eq!(report.recycled_idle, 1);
        assert_eq!(report.total(), 1);
        assert_eq!(plane.live_sessions(), 0);
        assert_eq!(plane.stats().seat_recoveries(), 1);
        // The seat re-leases at a bumped generation.
        let fresh = plane.attach();
        assert_eq!(fresh.pid(), 0);
        assert_eq!(fresh.generation(), 1);
        assert!(fresh.try_lock().is_some());
    }

    #[test]
    fn reap_crash_aborts_a_doorway_crashed_seat() {
        let lock = Arc::new(BakeryPlusPlusLock::with_bound(2, 255));
        let plane = SessionPlane::with_lease(
            Arc::clone(&lock) as Arc<dyn RawMutexAlgorithm>,
            10,
        );
        let dead = plane.attach();
        let pid = dead.pid();
        // Simulate a doorway crash: the seat goes BUSY and the pid's number
        // register is written, but the client dies before entering the CS.
        dead.mark_busy();
        lock.registers().write_number(pid, 3, plane.stats());
        std::mem::forget(dead);
        plane.advance_clock(10);
        let report = plane.reap();
        assert_eq!(report.crash_aborted, 1);
        assert_eq!(plane.stats().crash_aborts(), 1);
        assert_eq!(plane.stats().seat_recoveries(), 1);
        // The paper's crash rule held: registers read zero again…
        assert_eq!(lock.registers().read_number(pid), 0);
        assert!(!lock.registers().read_choosing(pid));
        // …and the seat re-leases cleanly.
        let fresh = plane.attach();
        assert_eq!(fresh.pid(), pid);
        assert!(fresh.try_lock().is_some());
    }

    #[test]
    fn reap_quarantines_a_cs_crashed_seat_and_recovery_hands_the_cs_back() {
        let plane = SessionPlane::with_lease(
            Arc::new(BakeryPlusPlusLock::with_bound(2, 255)),
            10,
        );
        let dead = plane.attach();
        let survivor = plane.attach();
        let pid = dead.pid();
        let guard = dead.lock();
        std::mem::forget(guard); // the client dies INSIDE the CS
        std::mem::forget(dead);
        plane.advance_clock(10);
        survivor.renew_lease(); // the survivor heartbeats; only `dead` expires
        let report = plane.reap();
        assert_eq!(report.quarantined, 1);
        assert_eq!(plane.quarantined_seats(), vec![pid]);
        // Mutual exclusion is not silently broken: the seat is not leasable
        // and the lock is still held on the dead pid.
        assert!(matches!(
            plane.try_attach(),
            Err(SessionError::Exhausted { .. })
        ));
        survivor.renew_lease();
        assert!(survivor.try_lock().is_none(), "the dead pid still holds the CS");
        // A second sweep leaves the quarantined seat alone.
        plane.advance_clock(20);
        survivor.renew_lease();
        assert_eq!(plane.reap().total(), 0);
        // Explicit recovery hands the CS back…
        let recovered = plane.recover_quarantined(pid).expect("quarantined");
        assert_eq!(recovered.pid(), pid);
        assert!(plane.recover_quarantined(pid).is_none(), "takeover is exclusive");
        // …and dropping the guard releases on the dead holder's behalf.
        drop(recovered);
        assert_eq!(plane.quarantined_seats(), Vec::<usize>::new());
        assert_eq!(plane.stats().seat_recoveries(), 1);
        survivor.renew_lease();
        assert!(survivor.try_lock().is_some(), "the CS flows again");
        let fresh = plane.attach();
        assert_eq!(fresh.pid(), pid);
        assert_eq!(fresh.generation(), 1);
    }

    #[test]
    fn force_detach_quarantines_instead_of_recycling_a_held_cs() {
        // Regression for the latent aliasing hole: force_detach used to spin
        // the BUSY bit out and recycle the seat even while the holder sat
        // inside the CS, handing the CS-holding pid to a new client.
        let plane = plane_over_pp(2);
        let holder = plane.attach();
        let pid = holder.pid();
        let guard = holder.lock();
        assert!(plane.force_detach(pid), "the lease is ended by quarantine");
        assert_eq!(plane.quarantined_seats(), vec![pid]);
        // The seat must NOT be re-leasable while the CS is occupied.
        let other = plane.attach();
        assert_ne!(other.pid(), pid, "quarantined seat must not re-lease");
        assert!(matches!(
            plane.try_attach(),
            Err(SessionError::Exhausted { .. })
        ));
        // The evicted (live) holder loses the exit race by design: its guard
        // drop walks away, release-ownership belongs to the recovery guard.
        drop(guard);
        drop(holder);
        assert!(other.try_lock().is_none(), "CS still held until recovery");
        drop(plane.recover_quarantined(pid).expect("quarantined"));
        assert!(other.try_lock().is_some());
        assert_eq!(plane.stats().seat_recoveries(), 1);
    }

    #[test]
    fn recovered_seat_guard_excludes_other_sessions_until_dropped() {
        let plane = SessionPlane::with_lease(
            Arc::new(BakeryPlusPlusLock::with_bound(2, 255)),
            5,
        );
        let dead = plane.attach();
        std::mem::forget(dead.lock());
        std::mem::forget(dead);
        plane.advance_clock(5);
        assert_eq!(plane.reap().quarantined, 1);
        let other = plane.attach();
        let recovered = plane.recover_quarantined(0).expect("quarantined");
        other.renew_lease();
        assert!(
            other.try_lock().is_none(),
            "the recovery guard owns the CS while it repairs state"
        );
        drop(recovered);
        other.renew_lease();
        assert!(other.try_lock().is_some());
    }

    /// Regression for the 100%-CPU attach spin (PR 7 satellite): a blocking
    /// `attach` against a fully leased plane must park instead of burning
    /// rounds until a seat frees.  With the `Park` strategy, ~50ms of
    /// oversubscription must produce at least one real park and a *bounded*
    /// number of wait rounds — pure spinning would run millions.
    #[test]
    fn blocked_attach_parks_instead_of_spinning() {
        use crate::wait::Park;
        let park = Arc::new(Park::new());
        let lock = BakeryPlusPlusLock::with_bound_and_strategy(1, 255, park.clone());
        let plane = SessionPlane::new(Arc::new(lock));
        let holder = plane.attach();
        let waiter = {
            let plane = Arc::clone(&plane);
            std::thread::spawn(move || plane.attach())
        };
        // Give the waiter time to exhaust its spin phase and park.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(holder); // detach notifies the attach site
        let session = waiter.join().unwrap();
        assert_eq!(session.pid(), 0);
        assert!(park.parks() >= 1, "the blocked attach never parked");
        // Each wait round is a park (~1ms timeout) once the spin phase ends,
        // so 50ms of waiting is a few dozen rounds — not the ~10^6 of a
        // busy-spin.  A loose ceiling keeps the check robust on slow CI.
        assert!(
            park.wait_calls() < 10_000,
            "attach burned {} wait rounds — it is spinning, not parking",
            park.wait_calls()
        );
    }

    proptest! {
        /// Under random attach/try-attach/detach churn across real threads,
        /// no two live sessions ever hold the same slot, and attach/detach
        /// totals balance to the live count at every quiescent point.
        #[test]
        fn no_two_live_sessions_share_a_slot(
            capacity in 1usize..6,
            threads in 2usize..5,
            churns in 4u64..24,
            seed in 0u64..u64::MAX,
        ) {
            let plane = plane_over_pp(capacity);
            let live: Mutex<HashSet<usize>> = Mutex::new(HashSet::new());
            let violations = StdAtomicU64::new(0);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let plane = &plane;
                    let live = &live;
                    let violations = &violations;
                    scope.spawn(move || {
                        let mut state = seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                        for _ in 0..churns {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                            // Mix blocking and non-blocking attaches.
                            let session = if state & 4 == 0 {
                                match plane.try_attach() {
                                    Ok(s) => s,
                                    Err(SessionError::Exhausted { .. }) => continue,
                                }
                            } else {
                                plane.attach()
                            };
                            if !live.lock().unwrap().insert(session.pid()) {
                                violations.fetch_add(1, StdOrdering::SeqCst);
                            }
                            if state & 2 == 0 {
                                let _g = session.lock();
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
                "a pid was leased to two live sessions");
            prop_assert_eq!(plane.live_sessions(), 0);
            let stats = plane.stats();
            prop_assert_eq!(stats.attaches(), stats.detaches());
        }
    }
}

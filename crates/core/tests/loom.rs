//! loom stress tests of the real atomics-based locks.
//!
//! These tests only compile and run under `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p bakery-core --test loom --release
//! ```
//!
//! They complement the `bakery-mc` explicit-state checker: `bakery-mc`
//! verifies the *abstract algorithm* under the paper's register model, while
//! these tests run this crate's *implementation* (acquire/release atomics
//! plus the doorway fences) on real threads through the `bakery_core::sync`
//! facade.  The vendored loom is a stress shim (`vendor/README.md`): each
//! model closure re-runs many times, which catches races probabilistically
//! but proves nothing.  Exhaustive checking waits on the real interleaving
//! checker listed in ROADMAP.md's open items.
#![cfg(loom)]

use std::sync::Arc;

use bakery_core::{BakeryLock, BakeryPlusPlusLock, RawMutexAlgorithm, TreeBakery};
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::thread;

fn check_two_thread_mutex<L, F>(make: F)
where
    L: RawMutexAlgorithm + 'static,
    F: Fn() -> L + Sync + Send + 'static,
{
    loom::model(move || {
        let lock = Arc::new(make());
        let in_cs = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for pid in 0..2 {
            let lock = Arc::clone(&lock);
            let in_cs = Arc::clone(&in_cs);
            handles.push(thread::spawn(move || {
                lock.acquire(pid);
                assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                in_cs.fetch_sub(1, Ordering::SeqCst);
                lock.release(pid);
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
    });
}

#[test]
fn loom_bakery_two_threads() {
    check_two_thread_mutex(|| BakeryLock::new(2));
}

#[test]
fn loom_bakery_pp_two_threads() {
    check_two_thread_mutex(|| BakeryPlusPlusLock::with_bound(2, 8));
}

/// Smoke test of the relaxed-ordering fast path: with both threads racing,
/// the packed-snapshot emptiness check must never let two processes into the
/// critical section together, and every acquisition is either a fast-path hit
/// or a completed wait-loop pass.
#[test]
fn loom_packed_fast_path_preserves_mutual_exclusion() {
    loom::model(|| {
        let lock = Arc::new(BakeryPlusPlusLock::with_bound(2, 255)); // u8 lanes
        let in_cs = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for pid in 0..2 {
            let lock = Arc::clone(&lock);
            let in_cs = Arc::clone(&in_cs);
            handles.push(thread::spawn(move || {
                lock.acquire(pid);
                assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                in_cs.fetch_sub(1, Ordering::SeqCst);
                lock.release(pid);
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let stats = lock.stats();
        assert_eq!(stats.cs_entries(), 0, "cs_entries counts facade locks only");
        assert_eq!(stats.overflow_attempts(), 0);
        assert!(stats.fast_path_hits() <= 2);
    });
}

/// The tree composite under interleaving: two levels (binary, four
/// processes), every pid on a distinct leaf slot.  Mutual exclusion must hold
/// across the whole tournament, and no node may ever attempt an overflowing
/// store (per-node M = 3).
#[test]
fn loom_tree_bakery_two_levels_four_processes() {
    loom::model(|| {
        let lock = Arc::new(TreeBakery::with_arity(4, 2));
        let in_cs = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for pid in 0..4 {
            let lock = Arc::clone(&lock);
            let in_cs = Arc::clone(&in_cs);
            handles.push(thread::spawn(move || {
                lock.acquire(pid);
                assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                in_cs.fetch_sub(1, Ordering::SeqCst);
                lock.release(pid);
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let total = lock.aggregate_snapshot();
        assert_eq!(total.overflow_attempts, 0);
        assert!(total.max_ticket <= lock.bound());
    });
}

/// Targeted race for the PR 1 fast path: thread 0's empty-bitmap check runs
/// concurrently with thread 1's doorway entry.  Whatever the interleaving,
/// either thread 0 sees the bakery empty *before* thread 1's ticket store
/// became visible (in which case the SeqCst handshake fences force thread 1
/// to observe thread 0's ticket and wait), or thread 0 sees the contender
/// and takes the wait loops — mutual exclusion must hold either way.
#[test]
fn loom_packed_empty_check_races_concurrent_doorway() {
    loom::model(|| {
        let lock = Arc::new(BakeryLock::new(2));
        let in_cs = Arc::new(AtomicUsize::new(0));
        let fast = {
            let lock = Arc::clone(&lock);
            let in_cs = Arc::clone(&in_cs);
            thread::spawn(move || {
                // Repeated acquires: the second pass is the likeliest to hit
                // the emptiness check exactly while pid 1 is mid-doorway.
                for _ in 0..2 {
                    lock.acquire(0);
                    assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                    in_cs.fetch_sub(1, Ordering::SeqCst);
                    lock.release(0);
                }
            })
        };
        let doorway = {
            let lock = Arc::clone(&lock);
            let in_cs = Arc::clone(&in_cs);
            thread::spawn(move || {
                let _ = lock.try_doorway(1);
                lock.await_turn(1);
                assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                in_cs.fetch_sub(1, Ordering::SeqCst);
                lock.release(1);
            })
        };
        fast.join().unwrap();
        doorway.join().unwrap();
        // Each of thread 0's two acquisitions plus thread 1's await_turn may
        // fast-path (a process's own ticket is masked out of the check).
        assert!(lock.stats().fast_path_hits() <= 3);
    });
}

#[test]
fn loom_bakery_pp_tiny_bound_never_overflows() {
    loom::model(|| {
        let lock = Arc::new(BakeryPlusPlusLock::with_bound(2, 2));
        let mut handles = Vec::new();
        for pid in 0..2 {
            let lock = Arc::clone(&lock);
            handles.push(thread::spawn(move || {
                lock.acquire(pid);
                lock.release(pid);
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(lock.stats().overflow_attempts(), 0);
    });
}

/// The session plane's attach/release vs slot-recycle race (PR 4): on a
/// one-seat plane, thread A runs a full session lifecycle (attach → lock →
/// unlock → detach) while thread B races to attach, lock and detach on the
/// same seat.  Whatever the interleaving:
///
/// * the two sessions never hold the seat simultaneously (the leases
///   serialise — observed as mutual exclusion of the critical sections),
/// * the generation tag prevents the ABA where B's attach lands between A's
///   release and A's detach and A's detach then frees *B's* lease, and
/// * both lifecycles complete: exactly 2 attaches, 2 detaches, 2 entries.
#[test]
fn loom_session_attach_recycle_race() {
    use bakery_core::SessionPlane;
    loom::model(|| {
        let plane = SessionPlane::new(Arc::new(BakeryPlusPlusLock::with_bound(1, 8)));
        let in_cs = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let plane = Arc::clone(&plane);
            let in_cs = Arc::clone(&in_cs);
            handles.push(thread::spawn(move || {
                let session = plane.attach();
                assert_eq!(session.pid(), 0, "one seat");
                {
                    let _guard = session.lock();
                    assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                    in_cs.fetch_sub(1, Ordering::SeqCst);
                }
                drop(session);
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let stats = plane.stats();
        assert_eq!(stats.attaches(), 2);
        assert_eq!(stats.detaches(), 2);
        assert_eq!(stats.cs_entries(), 2);
        assert_eq!(plane.live_sessions(), 0, "both seats recycled cleanly");
    });
}

/// The reverse drain handshake under interleaving (the PR 5 race): with the
/// adaptive lock resident on the tree plane, thread A's session acquisition
/// runs the announce-then-recheck half (`tree_active += 1`, re-read the full
/// epoch word) while thread B stores `DRAIN_TREE` and reads `tree_active` —
/// the two halves of the reverse Dekker handshake.  Whatever the
/// interleaving:
///
/// * either A's announcement lands before B's read (B waits the acquisition
///   out) or A observes the advanced word and withdraws — a tree acquisition
///   never overlaps the post-flip flat era (observed as mutual exclusion),
/// * B's acquisition routes through the flat plane of cycle 1 only after the
///   tree fully drained, and
/// * exactly one reverse migration completes, leaving the lock flat-resident
///   with balanced announce counters (every session detaches cleanly).
#[test]
fn loom_session_reverse_drain_handshake() {
    use bakery_core::{AdaptiveBakery, SessionPlane};
    loom::model(|| {
        // Forward thresholds out of reach and a huge quiet period: only the
        // manual triggers move the epoch, so the race below is pure
        // reverse-handshake.
        let adaptive = Arc::new(AdaptiveBakery::with_hysteresis(
            2,
            8,
            u64::MAX,
            1,
            1_000_000,
        ));
        let plane = SessionPlane::new(Arc::clone(&adaptive) as Arc<_>);
        // Setup: migrate forward so the race starts tree-resident.
        adaptive.trigger_migration();
        {
            let session = plane.attach();
            let _g = session.lock(); // helps the forward drain, enters tree
        }
        assert!(adaptive.has_migrated());
        let in_cs = Arc::new(AtomicUsize::new(0));
        let announcer = {
            let plane = Arc::clone(&plane);
            let in_cs = Arc::clone(&in_cs);
            thread::spawn(move || {
                let session = plane.attach();
                let _g = session.lock(); // announce tree_active, recheck word
                assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                in_cs.fetch_sub(1, Ordering::SeqCst);
            })
        };
        let drainer = {
            let adaptive = Arc::clone(&adaptive);
            let plane = Arc::clone(&plane);
            let in_cs = Arc::clone(&in_cs);
            thread::spawn(move || {
                // DRAIN_TREE store, then the tree_active read inside the
                // drain-helping acquire.
                adaptive.trigger_reverse_migration();
                let session = plane.attach();
                let _g = session.lock(); // flat plane of cycle 1, post-drain
                assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                in_cs.fetch_sub(1, Ordering::SeqCst);
            })
        };
        announcer.join().unwrap();
        drainer.join().unwrap();
        // The drainer's acquisition can only have completed through the
        // cycle-1 flat plane, so the round trip is done.
        assert!(!adaptive.has_migrated(), "flat-resident after the reverse");
        assert_eq!(adaptive.stats().migrations_forward(), 1);
        assert_eq!(adaptive.stats().migrations_reverse(), 1);
        assert_eq!(adaptive.stats().cs_entries(), 3);
        assert_eq!(adaptive.aggregate_snapshot().cs_entries, 3);
        assert_eq!(plane.live_sessions(), 0);
        let stats = plane.stats();
        assert_eq!(stats.attaches(), stats.detaches());
    });
}

/// The PR 6 reap-vs-release race on the seat word: the holder's guard drop
/// (CAS `IN_CS → BUSY`, then release) races a reaper that considers the
/// lease expired.  The quarantine CAS and the exit CAS target the same seat
/// word, so exactly one wins, and that winner owns the single `release`:
///
/// * reaper wins (`quarantined`): the holder's exit CAS fails and it walks
///   away **without releasing**; `recover_quarantined` must then hand the
///   still-held CS back, and dropping the `RecoveredSeat` performs the one
///   release;
/// * holder wins: it releases normally; the reaper either misses its stale
///   quarantine CAS (no-op sweep), catches the momentary post-release `BUSY`
///   window (crash-abort: a register wipe of an already-clean pid), or finds
///   the seat idle-expired and recycles it.
///
/// In every interleaving at most one recovery action is taken and the lock
/// ends up free — no double release, no lost release, no aliasing.
#[test]
fn loom_session_reap_vs_release_exactly_once() {
    use bakery_core::SessionPlane;
    loom::model(|| {
        let lock = Arc::new(BakeryPlusPlusLock::with_bound(1, 8));
        let plane = SessionPlane::with_lease(
            Arc::clone(&lock) as Arc<dyn RawMutexAlgorithm>,
            1,
        );
        let session = plane.attach();
        let guard = session.lock(); // IN_CS; the lease expires at clock 1
        let reaper = {
            let plane = Arc::clone(&plane);
            thread::spawn(move || {
                plane.advance_clock(10);
                plane.reap()
            })
        };
        drop(guard); // races the reaper's quarantine CAS on the seat word
        let report = reaper.join().unwrap();
        assert!(report.total() <= 1, "at most one recovery action per seat");
        assert_eq!(report.refused, 0, "bakery++ supports crash_abort");
        if report.quarantined == 1 {
            // The reaper won the word: the walk-away holder left the lock
            // held, and recovery must be able to take the CS over.
            let recovered = plane
                .recover_quarantined(0)
                .expect("quarantined seat is recoverable");
            assert_eq!(recovered.pid(), 0);
            drop(recovered); // the one release, on the dead holder's behalf
        } else {
            assert!(plane.quarantined_seats().is_empty());
        }
        drop(session); // stale if the seat was recycled: must not free it
        // Whatever the interleaving, the lock ends up free for a fresh
        // acquisition — the release happened exactly once.
        assert!(lock.try_acquire(0), "lock must be free after recovery");
        lock.release(0);
        assert_eq!(plane.live_sessions(), 0, "every lease ended exactly once");
    });
}

/// The park/wake handshake of the [`bakery_core::wait::Park`] strategy (PR 7):
/// a waiter's enlist → fence → revalidate → park sequence races the notifier's
/// state store → fence → registered-read → unpark sequence.  The strategy is
/// built with **no park timeout**, so a lost wakeup does not degrade into a
/// 1ms stall — it hangs the test.  Whatever the interleaving, either the
/// waiter revalidates and sees the flipped flag (never parks) or its parked
/// handle is found and unparked by the notifier.
#[test]
fn loom_park_wake_handshake_no_lost_wakeup() {
    use bakery_core::wait::{Park, WaitHandle, WaitToken};
    loom::model(|| {
        let handle = Arc::new(WaitHandle::new(Arc::new(Park::with_timeout(None))));
        let flag = Arc::new(AtomicUsize::new(0));
        let waiter = {
            let handle = Arc::clone(&handle);
            let flag = Arc::clone(&flag);
            thread::spawn(move || {
                let mut token = WaitToken::new();
                while flag.load(Ordering::SeqCst) == 0 {
                    handle.wait(handle.guard(), &mut token, &mut || {
                        flag.load(Ordering::SeqCst) == 0
                    });
                }
            })
        };
        let notifier = {
            let handle = Arc::clone(&handle);
            let flag = Arc::clone(&flag);
            thread::spawn(move || {
                flag.store(1, Ordering::SeqCst);
                handle.notify(handle.guard());
            })
        };
        waiter.join().unwrap();
        notifier.join().unwrap();
    });
}

/// Same handshake with two waiters parked on one site: a single `notify`
/// must drain every matching entry — a waiter left behind hangs the test
/// (no timeout safety net).
#[test]
fn loom_park_notify_drains_every_waiter() {
    use bakery_core::wait::{Park, WaitHandle, WaitToken};
    loom::model(|| {
        let handle = Arc::new(WaitHandle::new(Arc::new(Park::with_timeout(None))));
        let flag = Arc::new(AtomicUsize::new(0));
        let mut waiters = Vec::new();
        for _ in 0..2 {
            let handle = Arc::clone(&handle);
            let flag = Arc::clone(&flag);
            waiters.push(thread::spawn(move || {
                let mut token = WaitToken::new();
                while flag.load(Ordering::SeqCst) == 0 {
                    handle.wait(handle.guard(), &mut token, &mut || {
                        flag.load(Ordering::SeqCst) == 0
                    });
                }
            }));
        }
        flag.store(1, Ordering::SeqCst);
        handle.notify(handle.guard());
        for waiter in waiters {
            waiter.join().unwrap();
        }
    });
}

/// End-to-end wakeup-chain completeness for the headline lock: a two-thread
/// mutex through [`BakeryLock`] built on a timeout-free [`Park`] strategy.
/// Every blocking site in the L2/L3 scan must have a matching notify on the
/// path that falsifies its predicate (doorway exit or release) — a missing
/// pulse is a hang, not a stall.
#[test]
fn loom_bakery_park_strategy_two_threads_timeout_free() {
    use bakery_core::wait::Park;
    use bakery_core::registers::OverflowPolicy;
    check_two_thread_mutex(|| {
        BakeryLock::with_config_and_strategy(
            2,
            u64::MAX,
            OverflowPolicy::Wrap,
            Arc::new(Park::with_timeout(None)),
        )
    });
}

/// Generation-tag ABA guard under interleaving: thread A holds a session
/// while thread B force-detaches it and immediately re-leases the seat.  A's
/// subsequent detach (the stale drop) must not free B's fresh lease, in any
/// interleaving of the eviction with A's drop.
#[test]
fn loom_session_stale_drop_cannot_free_fresh_lease() {
    use bakery_core::SessionPlane;
    loom::model(|| {
        let plane = SessionPlane::new(Arc::new(BakeryPlusPlusLock::with_bound(1, 8)));
        let stale = plane.attach();
        let evictor = {
            let plane = Arc::clone(&plane);
            thread::spawn(move || {
                // Evict the idle session and take the seat for ourselves.
                if plane.force_detach(0) {
                    let fresh = plane.attach();
                    Some(fresh.generation())
                } else {
                    None
                }
            })
        };
        // Race the stale drop against the eviction + re-lease.
        drop(stale);
        let fresh_gen = evictor.join().unwrap();
        match fresh_gen {
            // Eviction won: the fresh lease was dropped inside the evictor
            // thread (one more attach/detach pair); the stale drop must have
            // been a no-op on it.
            Some(gen) => assert!(gen >= 1, "re-lease sees a bumped generation"),
            // The stale drop won the race: nothing left to evict.
            None => {}
        }
        assert_eq!(plane.live_sessions(), 0);
        let stats = plane.stats();
        assert_eq!(stats.attaches(), stats.detaches(), "every lease detached exactly once");
    });
}

//! Async session clients: cancellation-safe `attach().await` / `lock().await`.
//!
//! The blocking [`SessionPlane::attach`] and [`Session::lock`] park the
//! calling *thread*; a lock service facing 10⁵⁺ transient clients cannot
//! afford one thread per client.  This module exposes the same two waits as
//! hand-rolled futures over the plain `std::task` machinery (no runtime
//! dependency): an executor polls them, and the wait plane's
//! [`register_waker`](crate::wait::WaitStrategy::register_waker) wakes them —
//! under [`crate::wait::Park`] a pending client costs one queued
//! [`Waker`](std::task::Waker), not a spinning core.
//!
//! ## Cancellation safety
//!
//! Dropping a future at any await point must leave the protocol exactly as a
//! *doorway crash followed by the paper's backout* would (assumptions
//! 1.5–1.7: a process may crash in its noncritical section only if its
//! registers read zero).  Both futures get this **structurally**, by never
//! holding protocol state across a `Pending`:
//!
//! * [`AttachFuture`] / [`AttachBatchFuture`] poll the lock-free
//!   [`SessionPlane::try_attach`] (/ batch) — a failed probe owns nothing,
//!   and an already-leased [`Session`] dropped with the future detaches
//!   through its own RAII, recycling the seat.
//! * [`SessionLockFuture`] polls [`Session::try_lock`], whose failure path
//!   *is* the paper's backout ([`crate::raw::RawMutexAlgorithm::try_acquire`]
//!   withdraws the doorway registers before returning `false`).  A dropped future
//!   therefore leaves `choosing[i] = number[i] = 0` — there is no
//!   half-entered doorway to leak, because between polls none exists.
//!
//! The one cancellation residue is a registered
//! [`Waker`](std::task::Waker) that will soak up a single wake; the session
//! plane's batched attach wakes (`ATTACH_WAKE_BATCH` in [`crate::session`])
//! and the release pulse's broadcast tolerate both losses by design.
//!
//! ## The register-then-revalidate handshake
//!
//! A waker registered *after* the wake-carrying store would be a lost wakeup,
//! so both futures close the race the same way the thread path does:
//!
//! * attach registers under the plane's attach site with the free-seat
//!   predicate — [`register_waker`](crate::wait::WaitStrategy::register_waker)
//!   re-checks it after publishing the registration and reports a flip, upon
//!   which the future retries instead of going pending;
//! * lock registers under the underlying lock's release-pulse site, then
//!   performs **one more** `try_lock` before returning `Pending` — a release
//!   that slipped between the failed try and the registration is caught by
//!   the retry, and any later release finds the registration.
//!
//! Locks that expose no wait plane
//! ([`crate::raw::RawMutexAlgorithm::wait_handle`] returning `None`) degrade
//! to busy re-polling: the default `register_waker` wakes the task
//! immediately, which is exactly the spin strategy's semantics.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use crate::session::{Session, SessionError, SessionGuard, SessionPlane};

impl SessionPlane {
    /// Leases a pid asynchronously: resolves to a [`Session`] once a seat
    /// frees up.  The async counterpart of [`SessionPlane::attach`];
    /// cancellation-safe (see the module docs).
    pub fn attach_async(self: &Arc<Self>) -> AttachFuture {
        AttachFuture {
            plane: Arc::clone(self),
        }
    }

    /// Leases up to `count` pids asynchronously, resolving once **all**
    /// `count` are held — the connection-storm batch path over
    /// [`SessionPlane::try_attach_batch`].  Seats already collected are held
    /// (and detached if the future is dropped) while the remainder waits.
    ///
    /// Note the deliberate non-goal: several concurrent batch futures may
    /// deadlock each other on an undersized plane (each hoarding part of its
    /// batch), exactly like any multi-resource hold-and-wait.  Callers that
    /// cannot rank their batches should attach one seat at a time.
    pub fn attach_batch_async(self: &Arc<Self>, count: usize) -> AttachBatchFuture {
        AttachBatchFuture {
            plane: Arc::clone(self),
            want: count,
            got: Vec::new(),
        }
    }
}

impl Session {
    /// Enters the critical section asynchronously: resolves to a
    /// [`SessionGuard`] once the underlying lock admits this session's pid.
    /// The async counterpart of [`Session::lock`]; cancellation-safe — every
    /// failed poll runs the paper's doorway backout, so dropping the future
    /// leaves this pid's registers reading zero.
    ///
    /// # Panics
    /// Polling panics if the session is stale (evicted by
    /// [`SessionPlane::force_detach`] or reaped), like [`Session::lock`].
    pub fn lock_async(&self) -> SessionLockFuture<'_> {
        SessionLockFuture { session: self }
    }
}

/// Future of [`SessionPlane::attach_async`]: resolves to a leased
/// [`Session`].
#[derive(Debug)]
#[must_use = "futures do nothing unless polled"]
pub struct AttachFuture {
    plane: Arc<SessionPlane>,
}

impl Future for AttachFuture {
    type Output = Session;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let plane = &self.get_mut().plane;
        let waits = plane.wait_plane();
        let site = waits.attach();
        loop {
            match plane.try_attach() {
                Ok(session) => return Poll::Ready(session),
                Err(SessionError::Exhausted { .. }) => {
                    // Register, revalidating the free-seat predicate after
                    // publication; a flip during registration means a seat
                    // freed concurrently — probe again instead of sleeping
                    // on a wake that may already have passed.
                    if waits.register_waker(site, cx.waker(), &mut || !plane.has_free_seat()) {
                        return Poll::Pending;
                    }
                }
            }
        }
    }
}

/// Future of [`SessionPlane::attach_batch_async`]: resolves to a vec of
/// `count` leased [`Session`]s.  Dropping it mid-flight detaches every seat
/// collected so far.
#[derive(Debug)]
#[must_use = "futures do nothing unless polled"]
pub struct AttachBatchFuture {
    plane: Arc<SessionPlane>,
    want: usize,
    got: Vec<Session>,
}

impl Future for AttachBatchFuture {
    type Output = Vec<Session>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let waits = this.plane.wait_plane().clone();
        let site = waits.attach();
        loop {
            let missing = this.want - this.got.len();
            if missing == 0 {
                return Poll::Ready(std::mem::take(&mut this.got));
            }
            let batch = this.plane.try_attach_batch(missing);
            if !batch.is_empty() {
                this.got.extend(batch);
                continue;
            }
            let plane = &this.plane;
            if waits.register_waker(site, cx.waker(), &mut || !plane.has_free_seat()) {
                return Poll::Pending;
            }
        }
    }
}

/// Future of [`Session::lock_async`]: resolves to a [`SessionGuard`].
#[derive(Debug)]
#[must_use = "futures do nothing unless polled"]
pub struct SessionLockFuture<'a> {
    session: &'a Session,
}

impl<'a> Future for SessionLockFuture<'a> {
    type Output = SessionGuard<'a>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let session = self.get_mut().session;
        if let Some(guard) = session.try_lock() {
            return Poll::Ready(guard);
        }
        match session.plane().algorithm().wait_handle() {
            Some(waits) => {
                // There is no cheap "would try_lock succeed" predicate, so
                // register unconditionally…
                let _ = waits.register_waker(waits.release(), cx.waker(), &mut || true);
                // …and close the release-before-register window with one
                // more try.  Success strands the registration; the next
                // release pulse drains it as a spurious wake.
                match session.try_lock() {
                    Some(guard) => Poll::Ready(guard),
                    None => Poll::Pending,
                }
            }
            None => {
                // No wait plane: degrade to busy re-polling (spin).
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::bakery_pp::BakeryPlusPlusLock;
    use crate::raw::RawMutexAlgorithm;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::task::{Wake, Waker};

    /// A waker that records being woken; `block_on` uses it as a readiness
    /// flag and re-polls (a one-future executor).
    struct Flag(AtomicBool);

    impl Wake for Flag {
        fn wake(self: Arc<Self>) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    fn block_on<F: Future>(fut: F) -> F::Output {
        let flag = Arc::new(Flag(AtomicBool::new(true)));
        let waker = Waker::from(Arc::clone(&flag));
        let mut cx = Context::from_waker(&waker);
        // SAFETY-free pinning: the future lives on this stack frame and is
        // never moved after the first poll.
        let mut fut = std::pin::pin!(fut);
        loop {
            while !flag.0.swap(false, Ordering::SeqCst) {
                std::thread::yield_now();
            }
            if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
                return out;
            }
        }
    }

    fn plane(n: usize) -> Arc<SessionPlane> {
        SessionPlane::new(Arc::new(BakeryPlusPlusLock::with_bound(n, 255)))
    }

    #[test]
    fn attach_and_lock_resolve_uncontended() {
        let plane = plane(2);
        let session = block_on(plane.attach_async());
        {
            let guard = block_on(session.lock_async());
            assert_eq!(guard.pid(), session.pid());
        }
        drop(session);
        assert_eq!(plane.stats().attaches(), 1);
        assert_eq!(plane.stats().detaches(), 1);
        assert_eq!(plane.stats().cs_entries(), 1);
    }

    #[test]
    fn attach_future_waits_out_a_full_plane() {
        let plane = plane(1);
        let holder = block_on(plane.attach_async());
        let handle = {
            let plane = Arc::clone(&plane);
            std::thread::spawn(move || block_on(plane.attach_async()))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(holder); // frees the only seat; wakes the pending attach
        let session = handle.join().unwrap();
        assert_eq!(session.pid(), 0);
        assert_eq!(session.generation(), 1);
    }

    #[test]
    fn batch_attach_collects_across_frees() {
        let plane = plane(4);
        let hold = plane.try_attach_batch(2);
        assert_eq!(hold.len(), 2);
        let handle = {
            let plane = Arc::clone(&plane);
            std::thread::spawn(move || block_on(plane.attach_batch_async(4)))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(hold); // the last two seats arrive
        let all = handle.join().unwrap();
        assert_eq!(all.len(), 4);
        let mut pids: Vec<usize> = all.iter().map(Session::pid).collect();
        pids.sort_unstable();
        assert_eq!(pids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn dropped_attach_future_leaks_no_seat() {
        let plane = plane(1);
        let holder = block_on(plane.attach_async());
        // Poll a second attach to Pending, then cancel it.
        let flag = Arc::new(Flag(AtomicBool::new(false)));
        let waker = Waker::from(Arc::clone(&flag));
        let mut cx = Context::from_waker(&waker);
        let mut fut = Box::pin(plane.attach_async());
        assert!(fut.as_mut().poll(&mut cx).is_pending());
        drop(fut); // cancelled mid-wait
        drop(holder);
        // The cancelled waiter consumed nothing: the seat attaches freely.
        let session = plane.try_attach().expect("seat must be free");
        assert_eq!(plane.live_sessions(), 1);
        drop(session);
    }

    #[test]
    fn dropped_lock_future_leaves_registers_zero() {
        let lock = Arc::new(BakeryPlusPlusLock::with_bound(2, 255));
        let plane = SessionPlane::new(Arc::clone(&lock) as Arc<dyn RawMutexAlgorithm>);
        let a = block_on(plane.attach_async());
        let b = block_on(plane.attach_async());
        let guard = block_on(a.lock_async());
        // b's lock future goes Pending against the held lock, then is
        // dropped: the cancelled doorway must have backed out (the paper's
        // crash rule — registers read zero).
        let flag = Arc::new(Flag(AtomicBool::new(false)));
        let waker = Waker::from(Arc::clone(&flag));
        let mut cx = Context::from_waker(&waker);
        let mut fut = Box::pin(b.lock_async());
        assert!(fut.as_mut().poll(&mut cx).is_pending());
        drop(fut); // cancelled mid-acquisition
        assert_eq!(lock.registers().read_number(b.pid()), 0);
        assert!(!lock.registers().read_choosing(b.pid()));
        drop(guard);
        // And the cancelled session still works afterwards.
        assert!(block_on(b.lock_async()).pid() == b.pid());
    }

    #[test]
    fn lock_future_wakes_on_release() {
        let plane = plane(2);
        let a = block_on(plane.attach_async());
        let b = block_on(plane.attach_async());
        let guard = block_on(a.lock_async());
        let contender = std::thread::spawn(move || {
            let guard = block_on(b.lock_async());
            guard.pid()
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(guard); // the release pulse wakes the pending lock future
        assert_eq!(contender.join().unwrap(), 1);
    }
}

//! A minimal multi-threaded futures executor over plain `std::task`.
//!
//! Experiment **E13** drives 10⁵ async clients through the session plane;
//! that needs something to poll their futures, and the suite deliberately
//! carries no async runtime dependency.  This module is the smallest
//! executor that does the job honestly:
//!
//! * a fixed pool of worker threads popping tasks from one shared ready
//!   queue (condvar-parked when it is empty — the executor itself must not
//!   busy-wait, that is the whole point of the Park strategy it exists to
//!   measure);
//! * each spawned future becomes an [`Arc`]'d task whose [`Wake`] impl
//!   re-enqueues it, with a `queued` flag coalescing redundant wakes;
//! * a poll holds the task's future mutex for its whole duration, so a wake
//!   that lands *mid-poll* re-enqueues the task and the next worker simply
//!   polls it again — a spurious poll, never a lost wake.
//!
//! The executor is join-oriented rather than detach-oriented:
//! [`Executor::run_until_idle`] blocks until every spawned task has
//! completed, which is exactly the shape of a bounded churn experiment.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use bakery_core::sync::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Wake, Waker};

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Shared executor core: the ready queue plus the live-task accounting the
/// joiner blocks on.
#[derive(Debug)]
struct Core {
    /// Tasks ready to be polled.  A task appears here at most once (the
    /// `queued` flag), so the queue length is bounded by the task count.
    ready: Mutex<VecDeque<Arc<Task>>>,
    /// Signalled when `ready` gains an entry or the pool shuts down.
    work_cv: Condvar,
    /// Spawned-but-not-completed task count, guarded for the joiner.
    live: Mutex<usize>,
    /// Signalled when `live` reaches zero.
    idle_cv: Condvar,
    /// Set once, on drop: workers drain out.
    shutdown: AtomicBool,
}

/// One spawned future plus its scheduling state.
struct Task {
    /// `Some` while the future is live; a completed task keeps its slot as
    /// `None` so late wakes find nothing to poll.
    future: Mutex<Option<BoxFuture>>,
    core: Arc<Core>,
    /// True while the task sits in the ready queue — wake coalescing.
    queued: AtomicBool,
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("queued", &self.queued.load(Ordering::Relaxed)) // mem: stats-relaxed
            .finish_non_exhaustive()
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        // First wake wins; the flag is cleared by the worker just before it
        // polls, so a wake landing mid-poll re-enqueues for one more poll.
        if !self.queued.swap(true, Ordering::SeqCst) { // mem: harness-probe
            let core = Arc::clone(&self.core);
            core.ready.lock().unwrap().push_back(self);
            core.work_cv.notify_one();
        }
    }
}

/// A fixed-size thread-pool executor for `'static` futures.
///
/// ```
/// use bakery_harness::executor::Executor;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
///
/// let pool = Executor::new(2);
/// let hits = Arc::new(AtomicUsize::new(0));
/// for _ in 0..10 {
///     let hits = Arc::clone(&hits);
///     pool.spawn(async move {
///         hits.fetch_add(1, Ordering::SeqCst);
///     });
/// }
/// pool.run_until_idle();
/// assert_eq!(hits.load(Ordering::SeqCst), 10);
/// ```
#[derive(Debug)]
pub struct Executor {
    core: Arc<Core>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Spawns a pool of `workers` polling threads (at least one).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let core = Arc::new(Core {
            ready: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            live: Mutex::new(0),
            idle_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("bakery-exec-{i}"))
                    .spawn(move || worker_loop(&core))
                    .expect("spawning an executor worker")
            })
            .collect();
        Self { core, workers }
    }

    /// Number of worker threads in the pool.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Submits a future to the pool.  It starts running immediately on any
    /// free worker; completion is observed via [`Executor::run_until_idle`].
    pub fn spawn<F>(&self, future: F)
    where
        F: Future<Output = ()> + Send + 'static,
    {
        *self.core.live.lock().unwrap() += 1;
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(future))),
            core: Arc::clone(&self.core),
            queued: AtomicBool::new(false),
        });
        task.wake();
    }

    /// Blocks until every task spawned so far has completed.  More tasks may
    /// be spawned afterwards; the pool stays up until the executor is
    /// dropped.
    pub fn run_until_idle(&self) {
        let mut live = self.core.live.lock().unwrap();
        while *live > 0 {
            live = self.core.idle_cv.wait(live).unwrap();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            // Set the flag under the queue lock: a worker checks it and then
            // waits on `work_cv` while holding that lock, so it either sees
            // the flag or is already waiting when `notify_all` runs.  A
            // poisoned lock is taken anyway: the queue is valid after every
            // push and pop, and `drop` must not panic.
            let _ready = self
                .core
                .ready
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            self.core.shutdown.store(true, Ordering::SeqCst); // mem: harness-probe
        }
        self.core.work_cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(core: &Arc<Core>) {
    loop {
        let task = {
            let mut ready = core.ready.lock().unwrap();
            loop {
                if let Some(task) = ready.pop_front() {
                    break task;
                }
                if core.shutdown.load(Ordering::SeqCst) { // mem: harness-probe
                    return;
                }
                ready = core.work_cv.wait(ready).unwrap();
            }
        };
        poll_task(core, &task);
    }
}

/// Polls one dequeued task.  Holding the future mutex across the poll means
/// a concurrent worker that dequeues the same task (re-woken mid-poll)
/// blocks here and then re-polls — the wake is never dropped.
fn poll_task(core: &Arc<Core>, task: &Arc<Task>) {
    let mut slot = task.future.lock().unwrap();
    // Clear *after* taking the lock and *before* polling: any wake from the
    // poll itself (or from another thread during it) re-enqueues.
    task.queued.store(false, Ordering::SeqCst); // mem: harness-probe
    let Some(future) = slot.as_mut() else {
        return; // completed by an earlier poll; this was a late wake
    };
    let waker = Waker::from(Arc::clone(task));
    let mut cx = Context::from_waker(&waker);
    if let Poll::Ready(()) = future.as_mut().poll(&mut cx) {
        *slot = None;
        let mut live = core.live.lock().unwrap();
        *live -= 1;
        if *live == 0 {
            core.idle_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A future that goes pending `remaining` times, waking itself from a
    /// helper thread each time — exercises cross-thread wakes.
    struct Bouncer {
        remaining: usize,
        polls: Arc<AtomicUsize>,
    }

    impl Future for Bouncer {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            self.polls.fetch_add(1, Ordering::SeqCst);
            if self.remaining == 0 {
                return Poll::Ready(());
            }
            self.remaining -= 1;
            let waker = cx.waker().clone();
            std::thread::spawn(move || waker.wake());
            Poll::Pending
        }
    }

    #[test]
    fn runs_many_tasks_to_completion() {
        let pool = Executor::new(4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..500 {
            let done = Arc::clone(&done);
            pool.spawn(async move {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.run_until_idle();
        assert_eq!(done.load(Ordering::SeqCst), 500);
    }

    #[test]
    fn cross_thread_wakes_reach_pending_tasks() {
        let pool = Executor::new(2);
        let polls = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            pool.spawn(Bouncer {
                remaining: 5,
                polls: Arc::clone(&polls),
            });
        }
        pool.run_until_idle();
        // Each task: 5 pending polls + the final ready one.
        assert_eq!(polls.load(Ordering::SeqCst), 16 * 6);
    }

    #[test]
    fn idle_join_then_more_work() {
        let pool = Executor::new(1);
        let hits = Arc::new(AtomicUsize::new(0));
        pool.run_until_idle(); // vacuously idle
        let h = Arc::clone(&hits);
        pool.spawn(async move {
            h.fetch_add(1, Ordering::SeqCst);
        });
        pool.run_until_idle();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn redundant_wakes_coalesce() {
        // A task that is woken many times while queued must still complete
        // exactly once (and the queue must not balloon).
        let pool = Executor::new(1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.spawn(async move {
            d.fetch_add(1, Ordering::SeqCst);
        });
        pool.run_until_idle();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn drop_joins_idle_workers_without_losing_the_shutdown_wakeup() {
        // Dropping right after construction races the shutdown against
        // workers that may sit between their flag check and their wait.  A
        // lost wakeup would hang `join`, so the rounds run on a helper
        // thread and the test fails at the deadline instead of hanging.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let rounds = std::thread::spawn(move || {
            for _ in 0..300 {
                drop(Executor::new(2));
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("an executor drop hung joining its workers");
        rounds.join().unwrap();
    }
}

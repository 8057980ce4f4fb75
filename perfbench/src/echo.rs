//! The `echo` workload: E13's async echo service on two
//! `bakery_harness::executor` workers.
//!
//! 1,024 connection futures share a 64-slot plane under the `Park` wait
//! strategy.  Each connection serves clients in a closed loop: a client's
//! request arrives, the connection yields to the executor once, then
//! `attach_async` → 1–8 `lock_async` echoes (count from the seed) → drop.
//! The yield keeps a connection whose futures never pend from serving
//! client after client without releasing its worker; since it sits between
//! the request and the attach, every attach latency includes one trip
//! through the executor's ready queue, which keeps the distribution from
//! splitting into "re-leased at once" and "queued" halves.
//!
//! `BENCHMARK.json` does not list this workload: it stalls within minutes
//! of running (once in roughly 100–200 s on a 2-CPU VM).
//! `SessionLockFuture` registers on the release pulse and retries
//! `try_lock` once; when two lock futures polled at the same time see each
//! other in the doorway, both back out, and a back-out sends no release
//! pulse.  Once every leased seat's lock future has
//! pended that way nobody holds the lock, so no pulse ever comes: all 64
//! lock futures and every attach future behind them wait forever.  The
//! run's watchdog turns the stall into counted failures and a non-zero
//! exit, so `--workload echo` reproduces it.

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex, OnceLock};
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use bakery_core::{Park, RawMutexAlgorithm, SessionPlane, WaitStrategy};
use bakery_harness::executor::Executor;
use bakery_harness::workload::busy_work;

use crate::common::{
    nanos, peak_rss_mb, round_count, timed_setup, Check, Outcome, OutcomeNames, Rig, Rng, Round,
    ROUND,
};
use crate::hist::Hist;
use crate::locks::{LeaseMarkers, LockCounts};
use crate::spans::SpanLog;
use crate::PROGRESS;

/// Connection futures (in-process tasks, not threads or sockets).
pub const CONNECTIONS: u64 = 1_024;
/// Executor worker threads.
pub const WORKERS: usize = 2;
/// Echoes per client, drawn uniformly from this range.
pub const ECHOES: (u64, u64) = (1, 8);
/// Busy-work units of one echo payload.
pub const PAYLOAD_UNITS: u64 = 8;
/// Spans kept per connection in a traced run.
const SPAN_CAP: usize = 64;

/// Counts a future's polls; resolves to `(output, polls)`.
struct Counted<F> {
    inner: F,
    polls: u64,
}

impl<F: Future + Unpin> Future for Counted<F> {
    type Output = (F::Output, u64);

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        this.polls += 1;
        match Pin::new(&mut this.inner).poll(cx) {
            Poll::Ready(out) => Poll::Ready((out, this.polls)),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Sums the time spent inside a future's polls; resolves to
/// `(output, busy time)`.
struct Timed<F> {
    inner: Pin<Box<F>>,
    busy: Duration,
}

impl<F: Future> Future for Timed<F> {
    type Output = (F::Output, Duration);

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let start = Instant::now();
        let polled = this.inner.as_mut().poll(cx);
        this.busy += start.elapsed();
        match polled {
            Poll::Ready(out) => Poll::Ready((out, this.busy)),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Pends once, waking itself: one trip through the executor's ready queue.
struct YieldNow(bool);

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            return Poll::Ready(());
        }
        self.0 = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    }
}

/// What one connection did; merged once, when it ends.
struct ConnStats {
    sessions: u64,
    echoes: u64,
    aliasing: u64,
    overlaps: u64,
    attach: Hist,
    attach_polls: u64,
    first_poll_attaches: u64,
    lock_polls: u64,
    poll_busy: Duration,
    log: SpanLog,
}

struct Shared {
    plane: Arc<SessionPlane>,
    markers: LeaseMarkers,
    probe: Mutex<u64>,
    deadline: Instant,
    epoch: Instant,
    results: Mutex<Vec<ConnStats>>,
}

async fn connection<const TRACED: bool>(shared: Arc<Shared>, id: u64, seed: u64) -> ConnStats {
    let mut rng = Rng::new(seed ^ id.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut stats = ConnStats {
        sessions: 0,
        echoes: 0,
        aliasing: 0,
        overlaps: 0,
        attach: Hist::new(),
        attach_polls: 0,
        first_poll_attaches: 0,
        lock_polls: 0,
        poll_busy: Duration::ZERO,
        log: SpanLog::new(shared.epoch, if TRACED { SPAN_CAP } else { 0 }),
    };
    while Instant::now() < shared.deadline {
        let request = (id << 32) | stats.sessions;
        let requested = Instant::now();
        YieldNow(false).await;
        let session = if TRACED {
            let (session, polls) = Counted {
                inner: shared.plane.attach_async(),
                polls: 0,
            }
            .await;
            stats.attach_polls += polls;
            stats.first_poll_attaches += u64::from(polls == 1);
            session
        } else {
            shared.plane.attach_async().await
        };
        let attached = Instant::now();
        stats.attach.record(nanos(attached - requested));
        let pid = session.pid();
        if !shared.markers.lease(pid) {
            stats.aliasing += 1;
        }
        let client = if TRACED {
            stats
                .log
                .record("client", request, None, requested, requested)
        } else {
            None
        };
        if client.is_some() {
            stats
                .log
                .record("attach", request, client, requested, attached);
        }
        for _ in 0..rng.range(ECHOES.0, ECHOES.1) {
            let started = Instant::now();
            let guard = if TRACED {
                let (guard, polls) = Counted {
                    inner: session.lock_async(),
                    polls: 0,
                }
                .await;
                stats.lock_polls += polls;
                guard
            } else {
                session.lock_async().await
            };
            match shared.probe.try_lock() {
                Ok(mut entries) => {
                    *entries += 1;
                    busy_work(PAYLOAD_UNITS);
                }
                Err(_) => stats.overlaps += 1,
            }
            drop(guard);
            stats.echoes += 1;
            if client.is_some() {
                stats
                    .log
                    .record("echo", request, client, started, Instant::now());
            }
        }
        shared.markers.release(pid);
        drop(session);
        stats.sessions += 1;
        if let Some(client) = client {
            stats.log.finish(client, Instant::now());
        }
    }
    stats
}

/// One echo run's raw results.
pub struct EchoRun {
    pub sessions: u64,
    pub echoes: u64,
    pub elapsed: Duration,
    pub attach: Hist,
    pub checks: Vec<Check>,
    /// Sessions that aliased a seat or overlapped a CS, plus connections
    /// that never completed.
    pub failed_ops: u64,
    pub attach_polls: u64,
    pub first_poll_attaches: u64,
    pub lock_polls: u64,
    pub poll_busy: Duration,
    pub notifies: u64,
    pub parks: u64,
    pub park_timeouts: u64,
    pub spans: Vec<SpanLog>,
}

impl EchoRun {
    #[must_use]
    pub fn sessions_per_s(&self) -> f64 {
        self.sessions as f64 / self.elapsed.as_secs_f64()
    }
}

/// The process's executor: built once and never dropped.  Every round
/// reuses it, because `Executor`'s `Drop` can lose its shutdown wakeup (it
/// sets the flag and notifies without holding the ready-queue lock, so a
/// worker between its flag check and its condvar wait sleeps forever) and a
/// run that built and dropped an executor per round hung on it.
pub fn pool() -> &'static Executor {
    static POOL: OnceLock<Executor> = OnceLock::new();
    POOL.get_or_init(|| Executor::new(WORKERS))
}

struct EchoRig {
    park: Arc<Park>,
    rig: Rig,
}

fn build() -> EchoRig {
    let park = Arc::new(Park::new());
    let rig = Rig::new(Arc::clone(&park) as Arc<dyn WaitStrategy>);
    EchoRig { park, rig }
}

fn measured<const TRACED: bool>(echo: EchoRig, seed: u64, run: Duration) -> EchoRun {
    let EchoRig { park, rig } = echo;
    let pool = pool();
    let before = rig.lock.stats().snapshot();
    let (notifies0, parks0, timeouts0) = (park.notifies(), park.parks(), park.timeouts());
    let started = Instant::now();
    let shared = Arc::new(Shared {
        plane: Arc::clone(&rig.plane),
        markers: LeaseMarkers::new(),
        probe: Mutex::new(0),
        deadline: started + run,
        epoch: started,
        results: Mutex::new(Vec::new()),
    });
    for id in 0..CONNECTIONS {
        let shared = Arc::clone(&shared);
        PROGRESS.worker_started();
        pool.spawn(async move {
            let conn = connection::<TRACED>(Arc::clone(&shared), id, seed);
            let stats = if TRACED {
                let (mut stats, busy) = Timed {
                    inner: Box::pin(conn),
                    busy: Duration::ZERO,
                }
                .await;
                stats.poll_busy = busy;
                stats
            } else {
                conn.await
            };
            PROGRESS.worker_done(stats.sessions);
            shared
                .results
                .lock()
                .expect("results lock poisoned")
                .push(stats);
        });
    }
    pool.run_until_idle();
    let elapsed = started.elapsed();
    let after = rig.lock.stats().snapshot();

    let results = std::mem::take(&mut *shared.results.lock().expect("results lock poisoned"));
    let sum = |f: fn(&ConnStats) -> u64| results.iter().map(f).sum::<u64>();
    let sessions = sum(|c| c.sessions);
    let echoes = sum(|c| c.echoes);
    let aliasing = sum(|c| c.aliasing);
    let overlaps = sum(|c| c.overlaps);
    let mut attach = Hist::new();
    for conn in &results {
        attach.merge(&conn.attach);
    }
    let probed = *shared.probe.lock().expect("overlap probe poisoned");
    let counts = LockCounts::between(&before, &after);
    let stats = rig.plane.stats();
    let mut checks = vec![
        Check::equal(
            "every_connection_completed",
            CONNECTIONS,
            results.len() as u64,
        ),
        Check::equal("lease_aliasing", 0, aliasing),
        Check::equal("cs_overlaps", 0, overlaps),
        Check::equal("probe_counts_every_echo", echoes, probed),
        Check::equal("cs_entries_match_echoes", echoes, counts.cs),
        Check::equal(
            "attaches_equal_sessions",
            sessions,
            stats.attaches() - before.attaches,
        ),
        Check::equal(
            "attaches_equal_detaches",
            stats.attaches(),
            stats.detaches(),
        ),
        Check::equal("no_live_sessions", 0, rig.plane.live_sessions()),
        Check::new(
            "registers_idle",
            rig.registers_idle(),
            "every register reads zero",
        ),
    ];
    checks.extend(counts.checks());
    let incomplete = CONNECTIONS.saturating_sub(results.len() as u64);
    EchoRun {
        sessions,
        echoes,
        elapsed,
        attach,
        checks,
        failed_ops: aliasing + overlaps + incomplete,
        attach_polls: sum(|c| c.attach_polls),
        first_poll_attaches: sum(|c| c.first_poll_attaches),
        lock_polls: sum(|c| c.lock_polls),
        poll_busy: results.iter().map(|c| c.poll_busy).sum(),
        notifies: park.notifies() - notifies0,
        parks: park.parks() - parks0,
        park_timeouts: park.timeouts() - timeouts0,
        spans: results.into_iter().map(|c| c.log).collect(),
    }
}

/// The untraced `echo` workload: one-second rounds, each on a fresh lock
/// and plane, all on the process's executor (started before the first).
pub fn echo(seed: u64, run: Duration) -> Outcome {
    pool();
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    let (mut sessions, mut echoes, mut notifies, mut parks, mut timeouts) = (0, 0, 0, 0, 0);
    let mut peak_rss = None;
    for _ in 0..round_count(run) {
        let result = measured::<false>(timed_setup(&mut setups, build), seed, ROUND);
        peak_rss = peak_rss.or_else(peak_rss_mb);
        sessions += result.sessions;
        echoes += result.echoes;
        notifies += result.notifies;
        parks += result.parks;
        timeouts += result.park_timeouts;
        rounds.push(Round {
            ops: result.sessions,
            ops_per_s: result.sessions_per_s(),
            latency: result.attach,
            failed_ops: result.failed_ops,
            checks: result.checks,
        });
    }
    let note = format!(
        "echo: sessions={sessions} echoes={echoes} notifies={notifies} parks={parks} \
         park_timeouts={timeouts}"
    );
    Outcome::from_rounds(
        rounds,
        setups,
        peak_rss.unwrap_or(0.0),
        OutcomeNames {
            ops: "sessions_per_s",
            p50: "attach_p50_us",
            tail: "attach_p99_us",
            latency_unit: "us",
            latency_scale: 1_000.0,
        },
        vec![note],
    )
}

/// An `echo` run for the ledger, traced or not.
pub fn echo_run(traced: bool, seed: u64, run: Duration) -> EchoRun {
    pool();
    if traced {
        measured::<true>(build(), seed, run)
    } else {
        measured::<false>(build(), seed, run)
    }
}

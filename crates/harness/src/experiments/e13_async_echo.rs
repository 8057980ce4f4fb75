//! **E13 — beyond the paper: an async echo service over the session plane.**
//!
//! E11 churns sessions with one *thread* per in-flight client; this
//! experiment drives the regime the async session clients
//! (`bakery-core::asession`) and the pluggable wait plane
//! (`bakery-core::wait`) exist for: a client population far beyond any sane
//! thread count, multiplexed as **futures** over a small executor pool
//! ([`crate::executor::Executor`]).
//!
//! The workload models an echo server.  `connections` long-lived async
//! tasks each serve a stream of clients; one client is
//!
//! 1. `attach_async().await` — lease a pid from an 8–64-slot plane (the
//!    measured latency: request-to-seat),
//! 2. `lock_async().await` × `echoes_per_client` — echo a payload under the
//!    lock (the critical section),
//! 3. drop the session — recycle the seat for the next client.
//!
//! The full run serves **10⁵ clients over ≤ 64 slots** (quick: 10⁴), once
//! per wait strategy — `spin` (pending futures self-wake and re-poll: the
//! executor queue *is* the spin loop), `yield` (same async path, thread
//! waits yield), and `park` (pending futures cost one registered
//! [`Waker`](std::task::Waker); seats wake them in `ATTACH_WAKE_BATCH`ed
//! pulses).  Reported per strategy: sessions/sec, echoes/sec and the
//! attach-latency distribution (p50/p99/max).
//!
//! Two invariants are asserted **in-run**, mirroring E11:
//!
//! * a leased pid is never aliased — per-pid lease markers catch two live
//!   sessions on one seat the instant the second attach resolves;
//! * no two critical sections overlap anywhere (the locks' mutual
//!   exclusion, observed through a global in-CS counter).

use bakery_core::sync::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bakery_core::wait::{strategy_by_name, Park, WaitStrategy};
use bakery_core::{BakeryPlusPlusLock, RawMutexAlgorithm, SessionPlane, DEFAULT_PP_BOUND};

use crate::executor::Executor;
use crate::histogram::LatencyHistogram;
use crate::report::{num, Table};
use crate::workload::busy_work;

/// The wait strategies E13 sweeps, in report order.
pub const STRATEGIES: [&str; 3] = ["spin", "yield", "park"];

/// One async-churn configuration: `clients` sessions served as futures
/// through `slots` pids by `workers` executor threads.
#[derive(Debug, Clone, Copy)]
pub struct EchoConfig {
    /// Slot capacity of the lock (maximum concurrently attached clients).
    pub slots: usize,
    /// Total client sessions to serve.
    pub clients: usize,
    /// Concurrent connection tasks (in-flight futures); each serves
    /// `clients / connections` clients back to back.
    pub connections: usize,
    /// Echo round-trips (critical sections) per client session.
    pub echoes_per_client: u64,
    /// Executor worker threads polling the connection tasks.
    pub workers: usize,
    /// Busy-work units per echo (the payload copy).
    pub payload_work: u64,
}

impl EchoConfig {
    /// The E13 configuration: 10⁵ clients over a 64-slot plane (full) or
    /// 10⁴ over 16 slots (quick), both ≥ 16× oversubscribed in futures.
    #[must_use]
    pub fn standard(quick: bool) -> Self {
        let workers = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
        if quick {
            Self {
                slots: 16,
                clients: 10_000,
                connections: 256,
                echoes_per_client: 2,
                workers: workers.clamp(2, 8),
                payload_work: 4,
            }
        } else {
            Self {
                slots: 64,
                clients: 100_000,
                connections: 1_024,
                echoes_per_client: 4,
                workers: workers.clamp(4, 16),
                payload_work: 8,
            }
        }
    }

    /// Future-to-slot ratio (how oversubscribed the plane is at any instant).
    #[must_use]
    pub fn oversubscription(&self) -> usize {
        self.connections / self.slots
    }
}

/// Outcome of one strategy's churn.
#[derive(Debug)]
pub struct EchoResult {
    /// The wait strategy name ("spin" / "yield" / "park").
    pub strategy: String,
    /// Client sessions completed (must equal the configured total).
    pub completed_sessions: u64,
    /// Echo round-trips (critical sections) served.
    pub echoes: u64,
    /// Wall-clock duration of the churn.
    pub elapsed: Duration,
    /// Attach latency (request to leased seat), one sample per client.
    pub attach_latency: LatencyHistogram,
    /// Lease-marker and CS-overlap violations observed in-run (must be 0).
    pub aliasing_violations: u64,
    /// Threads parked (park strategy only; the async path registers wakers
    /// instead, so this counts the executor's own sync waits — usually 0).
    pub parks: u64,
    /// Waiters woken by a notify — parked threads plus registered wakers
    /// (park strategy only).
    pub notifies: u64,
    /// Parks that ended by the timeout safety net (park strategy only).
    pub park_timeouts: u64,
}

impl EchoResult {
    /// Completed client sessions per second.
    #[must_use]
    pub fn sessions_per_sec(&self) -> f64 {
        self.completed_sessions as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Echo round-trips per second.
    #[must_use]
    pub fn echoes_per_sec(&self) -> f64 {
        self.echoes as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Shared in-run accounting: the invariant markers and the result counters.
#[derive(Debug)]
struct EchoState {
    /// Clients not yet claimed by a connection task.
    remaining: AtomicU64,
    /// Per-pid lease markers: a second live session on a seat is aliasing.
    leased: Box<[AtomicU64]>,
    /// Global critical-section occupancy: must never exceed 1.
    in_cs: AtomicU64,
    aliasing: AtomicU64,
    sessions: AtomicU64,
    echoes: AtomicU64,
    attach: Mutex<LatencyHistogram>,
}

/// Runs the churn once under the named wait strategy.
///
/// # Panics
/// Panics on an unknown strategy name.
#[must_use]
pub fn run_echo(strategy: &str, config: &EchoConfig) -> EchoResult {
    // The park strategy is built directly (not via `strategy_by_name`) so a
    // typed handle survives for the stats columns.
    let (strategy_obj, park): (Arc<dyn WaitStrategy>, Option<Arc<Park>>) = if strategy == "park" {
        let park = Arc::new(Park::new());
        (Arc::clone(&park) as Arc<dyn WaitStrategy>, Some(park))
    } else {
        (
            strategy_by_name(strategy)
                .unwrap_or_else(|| panic!("unknown wait strategy {strategy:?}")),
            None,
        )
    };
    let lock =
        BakeryPlusPlusLock::with_bound_and_strategy(config.slots, DEFAULT_PP_BOUND, strategy_obj);
    let plane = SessionPlane::new(Arc::new(lock) as Arc<dyn RawMutexAlgorithm>);
    let state = Arc::new(EchoState {
        remaining: AtomicU64::new(config.clients as u64),
        leased: (0..config.slots).map(|_| AtomicU64::new(0)).collect(),
        in_cs: AtomicU64::new(0),
        aliasing: AtomicU64::new(0),
        sessions: AtomicU64::new(0),
        echoes: AtomicU64::new(0),
        attach: Mutex::new(LatencyHistogram::new()),
    });

    let pool = Executor::new(config.workers);
    let started = Instant::now();
    for _ in 0..config.connections {
        let plane = Arc::clone(&plane);
        let state = Arc::clone(&state);
        let echoes = config.echoes_per_client;
        let payload = config.payload_work;
        pool.spawn(async move {
            // One connection serves clients until the population is drained.
            while state
                .remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1)) // mem: harness-probe
                .is_ok()
            {
                let requested = Instant::now();
                let session = plane.attach_async().await;
                let attach_ns = u64::try_from(requested.elapsed().as_nanos()).unwrap_or(u64::MAX);
                state
                    .attach
                    .lock()
                    .expect("attach histogram poisoned")
                    .record(attach_ns);
                let pid = session.pid();
                if state.leased[pid].fetch_add(1, Ordering::SeqCst) != 0 { // mem: harness-probe
                    state.aliasing.fetch_add(1, Ordering::SeqCst); // mem: harness-probe
                }
                for _ in 0..echoes {
                    let guard = session.lock_async().await;
                    if state.in_cs.fetch_add(1, Ordering::SeqCst) != 0 { // mem: harness-probe
                        state.aliasing.fetch_add(1, Ordering::SeqCst); // mem: harness-probe
                    }
                    busy_work(payload);
                    state.echoes.fetch_add(1, Ordering::SeqCst); // mem: harness-probe
                    state.in_cs.fetch_sub(1, Ordering::SeqCst); // mem: harness-probe
                    drop(guard);
                }
                // Clear the marker strictly before the seat can be re-leased
                // (the session drop below is what frees it).
                state.leased[pid].fetch_sub(1, Ordering::SeqCst); // mem: harness-probe
                drop(session);
                state.sessions.fetch_add(1, Ordering::SeqCst); // mem: harness-probe
            }
        });
    }
    pool.run_until_idle();
    let elapsed = started.elapsed();
    drop(pool);

    let attach_latency =
        std::mem::take(&mut *state.attach.lock().expect("attach histogram poisoned"));
    EchoResult {
        strategy: strategy.to_string(),
        completed_sessions: state.sessions.load(Ordering::SeqCst), // mem: harness-probe
        echoes: state.echoes.load(Ordering::SeqCst), // mem: harness-probe
        elapsed,
        attach_latency,
        aliasing_violations: state.aliasing.load(Ordering::SeqCst), // mem: harness-probe
        parks: park.as_ref().map_or(0, |p| p.parks()),
        notifies: park.as_ref().map_or(0, |p| p.notifies()),
        park_timeouts: park.as_ref().map_or(0, |p| p.timeouts()),
    }
}

/// Runs E13 and renders the strategy-sweep table.
///
/// # Panics
/// Panics if any strategy drops a client, aliases a seat, or overlaps two
/// critical sections — the acceptance gates, asserted here so every path
/// that runs the experiment (runner, tests) enforces them.
#[must_use]
pub fn run(quick: bool) -> Vec<Table> {
    let config = EchoConfig::standard(quick);
    let mut table = Table::new(
        "E13: async echo service — wait-strategy sweep",
        &[
            "strategy",
            "slots",
            "connections",
            "echoes / client",
            "executor workers",
            "sessions",
            "sessions/s",
            "echoes/s",
            "attach p50 µs",
            "attach p99 µs",
            "attach max µs",
            "attach mean µs",
            "parks",
            "notifies",
            "park timeouts",
            "aliasing",
        ],
    );
    for strategy in STRATEGIES {
        let result = run_echo(strategy, &config);
        assert_eq!(
            result.aliasing_violations, 0,
            "{strategy}: the async session plane must never alias a seat or overlap two CS"
        );
        assert_eq!(
            result.completed_sessions, config.clients as u64,
            "{strategy}: every client session must complete"
        );
        assert_eq!(
            result.attach_latency.count(),
            config.clients as u64,
            "{strategy}: every client must contribute one attach-latency sample"
        );
        let micros = |ns: u64| num(ns as f64 / 1_000.0, 1);
        table.push_row(vec![
            result.strategy.clone().into(),
            config.slots.into(),
            config.connections.into(),
            config.echoes_per_client.into(),
            config.workers.into(),
            result.completed_sessions.into(),
            num(result.sessions_per_sec(), 0),
            num(result.echoes_per_sec(), 0),
            micros(result.attach_latency.quantile_ns(0.5)),
            micros(result.attach_latency.quantile_ns(0.99)),
            micros(result.attach_latency.max_ns()),
            micros(result.attach_latency.mean_ns()),
            result.parks.into(),
            result.notifies.into(),
            result.park_timeouts.into(),
            result.aliasing_violations.into(),
        ]);
    }
    table.push_note(format!(
        "Connection futures are {}x oversubscribed over the slots; attach latency = request \
         to leased seat; sessions = clients (asserted).",
        config.oversubscription()
    ));
    table.push_note(
        "spin/yield pending futures re-poll through the executor queue; park pending \
         futures cost one registered waker until a seat's wake pulse (notifies column)."
            .to_string(),
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EchoConfig {
        // More executor workers than seats: attach futures are forced to go
        // pending (a worker pool no larger than the plane never fills it,
        // because a connection frees its seat within the same poll unless a
        // lock future pends).
        EchoConfig {
            slots: 2,
            clients: 300,
            connections: 24,
            echoes_per_client: 2,
            workers: 4,
            payload_work: 2,
        }
    }

    #[test]
    fn every_strategy_completes_the_churn_without_aliasing() {
        for strategy in STRATEGIES {
            let result = run_echo(strategy, &tiny());
            assert_eq!(result.completed_sessions, 300, "{strategy}");
            assert_eq!(result.echoes, 600, "{strategy}");
            assert_eq!(result.aliasing_violations, 0, "{strategy}");
            assert_eq!(result.attach_latency.count(), 300, "{strategy}");
        }
    }

    #[test]
    fn park_strategy_wakes_pending_attaches() {
        // Deterministic wake check: hold every seat so an async attach must
        // go pending with a registered waker, then free the seats — the only
        // thing that resolves the pending future under park is the
        // detach-side wake pulse, which the notify counter records.
        let park = Arc::new(Park::new());
        let lock = BakeryPlusPlusLock::with_bound_and_strategy(
            2,
            DEFAULT_PP_BOUND,
            Arc::clone(&park) as Arc<dyn WaitStrategy>,
        );
        let plane = SessionPlane::new(Arc::new(lock) as Arc<dyn RawMutexAlgorithm>);
        let holders = plane.try_attach_batch(2);
        assert_eq!(holders.len(), 2);

        let pool = Executor::new(1);
        let resolved = Arc::new(AtomicU64::new(0));
        {
            let plane = Arc::clone(&plane);
            let resolved = Arc::clone(&resolved);
            pool.spawn(async move {
                let session = plane.attach_async().await;
                resolved.fetch_add(1, Ordering::SeqCst);
                drop(session);
            });
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(resolved.load(Ordering::SeqCst), 0, "attach resolved on a full plane");
        drop(holders);
        pool.run_until_idle();
        assert_eq!(resolved.load(Ordering::SeqCst), 1);
        assert!(
            park.notifies() > 0,
            "freeing a seat must wake the registered attach waiter"
        );
    }

    #[test]
    fn standard_configs_stay_in_the_issue_envelope() {
        let quick = EchoConfig::standard(true);
        let full = EchoConfig::standard(false);
        assert!(quick.slots <= 64 && full.slots <= 64);
        assert_eq!(full.clients, 100_000);
        assert!(quick.oversubscription() >= 16);
        assert!(full.oversubscription() >= 16);
    }
}

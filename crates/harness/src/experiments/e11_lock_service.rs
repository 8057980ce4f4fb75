//! **E11 — beyond the paper: the lock as a service under session churn.**
//!
//! Every prior experiment drives a fixed set of threads, one pid each, for
//! the whole run — the paper's world.  E11 measures the **service** regime
//! the session plane (`bakery-core::session`) exists for: a client
//! population far larger than the lock's slot count (≥ 64×), where every
//! client *attaches* (leases a pid), performs a handful of critical
//! sections, and *detaches* (recycling the pid for the next client).
//!
//! Two locks run the identical churn through [`bakery_core::SessionPlane`]:
//!
//! * the flat packed Bakery++ (FCFS, O(N) doorway) at `M = 65535`,
//! * the tree composite (sub-linear doorway, per-node FCFS).  At E11's slot
//!   counts the tree is a single Bakery++ node at `M = K + 1 = 9`, so the
//!   two rows compare one Bakery++ body at two bounds; the table states `M`.
//!
//! The runner asserts the session plane's core guarantee **in-test**: a
//! leased pid is never aliased — no two live sessions on one pid, and never
//! two concurrent critical sections anywhere
//! ([`ServiceResult::aliasing_violations`] must be zero, which [`run`]
//! checks).

use bakery_core::sync::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bakery_core::{
    BakeryPlusPlusLock, RawMutexAlgorithm, SessionPlane, TreeBakery, DEFAULT_PP_BOUND,
};

use crate::report::{num, Table};
use crate::workload::busy_work;

/// One churn configuration: `clients` sessions served through `slots` pids.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Slot capacity of the lock (maximum concurrently attached clients).
    pub slots: usize,
    /// Total client sessions to serve (the `>= 64 x slots` regime).
    pub clients: usize,
    /// Critical sections per session (the `k` of attach → k CS → detach).
    pub cs_per_session: u64,
    /// Worker threads driving the churn (each worker runs many clients
    /// back-to-back; more workers than slots keeps the attach queue full).
    pub workers: usize,
    /// Busy-work units inside each critical section.
    pub cs_work: u64,
}

impl ServiceConfig {
    /// The E11 configuration: `64 x slots` clients.
    #[must_use]
    pub fn standard(quick: bool) -> Self {
        if quick {
            Self {
                slots: 4,
                clients: 256,
                cs_per_session: 4,
                workers: 8,
                cs_work: 8,
            }
        } else {
            Self {
                slots: 8,
                clients: 512,
                cs_per_session: 8,
                workers: 16,
                cs_work: 16,
            }
        }
    }

    /// Client-to-slot ratio (the headline "how oversubscribed" figure).
    #[must_use]
    pub fn oversubscription(&self) -> usize {
        self.clients / self.slots
    }
}

/// Outcome of one churn run.
#[derive(Debug, Clone)]
pub struct ServiceResult {
    /// Name of the algorithm serving the sessions.
    pub algorithm: String,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Sessions served (attach…detach lifecycles completed).
    pub sessions: u64,
    /// Critical sections completed across all sessions.
    pub total_cs: u64,
    /// Attaches recorded by the lock's stats (must equal `sessions`).
    pub attaches: u64,
    /// Detaches recorded by the lock's stats (must equal `sessions`).
    pub detaches: u64,
    /// Slot-aliasing violations observed in-test (two live sessions on one
    /// pid, or two concurrent critical sections).  **Must be zero.**
    pub aliasing_violations: u64,
    /// Crash aborts recorded by the lock (zero in E11's crash-free churn;
    /// E12 is the experiment that injects them).
    pub crash_aborts: u64,
    /// Seat recoveries performed by the reaper (zero in E11's crash-free
    /// churn).
    pub seat_recoveries: u64,
}

impl ServiceResult {
    /// Sessions served per second.
    #[must_use]
    pub fn sessions_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.sessions as f64 / secs
        }
    }

    /// Critical sections per second.
    #[must_use]
    pub fn cs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.total_cs as f64 / secs
        }
    }
}

/// Runs the churn against `lock`, reporting aliasing violations instead of
/// panicking so the caller can assert and render them.  `workers` threads
/// each serve clients back to back until `clients` sessions have run.
#[must_use]
pub fn run_service(lock: Arc<dyn RawMutexAlgorithm>, config: &ServiceConfig) -> ServiceResult {
    let algorithm = lock.algorithm_name().to_string();
    let plane = SessionPlane::new(lock);
    let next_client = AtomicUsize::new(0);
    let sessions = AtomicU64::new(0);
    let total_cs = AtomicU64::new(0);
    let violations = AtomicU64::new(0);
    // One lease marker per pid plus a global CS counter: the in-test
    // aliasing assertion the acceptance criteria call for.
    let leased: Vec<AtomicU64> = (0..config.slots).map(|_| AtomicU64::new(0)).collect();
    let in_cs = AtomicU64::new(0);

    let serve_one = |session: &bakery_core::Session| {
        if leased[session.pid()].fetch_add(1, Ordering::SeqCst) != 0 { // mem: harness-probe
            violations.fetch_add(1, Ordering::SeqCst); // mem: harness-probe
        }
        for _ in 0..config.cs_per_session {
            let guard = session.lock();
            if in_cs.fetch_add(1, Ordering::SeqCst) != 0 { // mem: harness-probe
                violations.fetch_add(1, Ordering::SeqCst); // mem: harness-probe
            }
            busy_work(config.cs_work);
            in_cs.fetch_sub(1, Ordering::SeqCst); // mem: harness-probe
            drop(guard);
        }
        total_cs.fetch_add(config.cs_per_session, Ordering::SeqCst); // mem: harness-probe
        leased[session.pid()].fetch_sub(1, Ordering::SeqCst); // mem: harness-probe
        sessions.fetch_add(1, Ordering::SeqCst); // mem: harness-probe
    };

    let begun = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..config.workers {
            scope.spawn(|| loop {
                if next_client.fetch_add(1, Ordering::SeqCst) >= config.clients { // mem: harness-probe
                    return;
                }
                let session = plane.attach();
                serve_one(&session);
                drop(session);
            });
        }
    });
    let elapsed = begun.elapsed();

    let stats = plane.stats().snapshot();
    ServiceResult {
        algorithm,
        elapsed,
        sessions: sessions.load(Ordering::SeqCst), // mem: harness-probe
        total_cs: total_cs.load(Ordering::SeqCst), // mem: harness-probe
        attaches: stats.attaches,
        detaches: stats.detaches,
        aliasing_violations: violations.load(Ordering::SeqCst), // mem: harness-probe
        crash_aborts: stats.crash_aborts,
        seat_recoveries: stats.seat_recoveries,
    }
}

/// Builds the two service locks for `config`: flat Bakery++ at the default
/// bound and the tree at its per-node `M = K + 1`.
#[must_use]
pub fn service_locks(config: &ServiceConfig) -> Vec<Arc<dyn RawMutexAlgorithm>> {
    vec![
        Arc::new(BakeryPlusPlusLock::with_bound(config.slots, DEFAULT_PP_BOUND)),
        Arc::new(TreeBakery::new(config.slots)),
    ]
}

/// Runs E11 and renders its table.
///
/// # Panics
/// Panics if any run observes a slot-aliasing violation, loses a session,
/// unbalances its attach/detach books or records a crash abort or seat
/// recovery — these are the experiment's acceptance assertions, so the
/// table does not repeat them as columns.
#[must_use]
pub fn run(quick: bool) -> Vec<Table> {
    let config = ServiceConfig::standard(quick);
    assert!(
        config.oversubscription() >= 64,
        "E11 must run the >= 64x oversubscribed service regime"
    );
    let expected_sessions = config.clients as u64;
    let mut table = Table::new(
        format!(
            "E11 — lock service: session churn {}x oversubscribed",
            config.oversubscription()
        ),
        &[
            "algorithm",
            "M",
            "slots",
            "clients",
            "CS / session",
            "sessions/s",
            "cs/s",
        ],
    );
    for lock in service_locks(&config) {
        let bound = lock.register_bound();
        let result = run_service(lock, &config);
        assert_eq!(result.aliasing_violations, 0, "{}: slot aliasing", result.algorithm);
        assert_eq!(result.sessions, expected_sessions, "{}", result.algorithm);
        assert_eq!(result.attaches, expected_sessions, "{}", result.algorithm);
        assert_eq!(result.detaches, expected_sessions, "{}", result.algorithm);
        assert_eq!(result.crash_aborts, 0, "{}: crash-free churn", result.algorithm);
        assert_eq!(result.seat_recoveries, 0, "{}: crash-free churn", result.algorithm);
        table.push_row(vec![
            result.algorithm.clone().into(),
            bound.into(),
            config.slots.into(),
            config.clients.into(),
            config.cs_per_session.into(),
            num(result.sessions_per_sec(), 0),
            num(result.cs_per_sec(), 0),
        ]);
    }
    table.push_note(
        "Each client attaches (leases a pid through the session plane), runs its critical \
         sections and detaches; generation-tagged seats recycle pids with zero aliasing.  \
         Asserted in-test, so not shown: zero aliasing, attaches = detaches = clients, and \
         no crash aborts or seat recoveries in this crash-free churn (E12 is the experiment \
         that injects crashes).  M is the register bound: flat Bakery++ runs at M = 65535; \
         at 8 slots or fewer the tree is one Bakery++ node at M = K + 1 = 9, so the two \
         rows compare one Bakery++ at two bounds.",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bakery_json::Value;

    #[test]
    fn quick_config_is_64x_oversubscribed() {
        let config = ServiceConfig::standard(true);
        assert!(config.oversubscription() >= 64);
        let full = ServiceConfig::standard(false);
        assert!(full.oversubscription() >= 64);
    }

    #[test]
    fn churn_keeps_the_books_on_every_service_lock() {
        let config = ServiceConfig {
            slots: 4,
            clients: 256,
            cs_per_session: 2,
            workers: 8,
            cs_work: 2,
        };
        for lock in service_locks(&config) {
            let result = run_service(Arc::clone(&lock), &config);
            assert_eq!(result.aliasing_violations, 0, "{}", result.algorithm);
            assert_eq!(result.sessions, 256, "{}", result.algorithm);
            assert_eq!(result.total_cs, 512, "{}", result.algorithm);
            assert_eq!(result.attaches, 256, "{}", result.algorithm);
            assert_eq!(result.detaches, 256, "{}", result.algorithm);
            // cs_entries counts once at the lock's facade.
            assert_eq!(lock.stats().cs_entries(), 512, "{}", result.algorithm);
        }
    }

    #[test]
    fn quick_table_renders_both_locks_with_their_bounds() {
        let tables = run(true);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 2);
        let rows: Vec<_> = tables[0].rows.iter().map(|r| (r[0].clone(), r[1].clone())).collect();
        assert_eq!(
            rows,
            [
                (Value::from("bakery++"), Value::from(DEFAULT_PP_BOUND)),
                (
                    Value::from("tree-bakery"),
                    Value::from(bakery_core::DEFAULT_TREE_ARITY as u64 + 1)
                ),
            ]
        );
    }
}

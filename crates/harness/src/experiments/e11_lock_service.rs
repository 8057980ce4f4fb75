//! **E11 — beyond the paper: the lock as a service under session churn.**
//!
//! Every prior experiment drives a fixed set of threads, one pid each, for
//! the whole run — the paper's world.  E11 measures the **service** regime
//! the session plane (`bakery-core::session`) exists for: a client
//! population far larger than the lock's slot count (≥ 64×), where every
//! client *attaches* (leases a pid), performs a handful of critical
//! sections, and *detaches* (recycling the pid for the next client).
//!
//! Three locks run the identical churn through [`bakery_core::SessionPlane`]:
//!
//! * the flat packed Bakery++ (FCFS, O(N) doorway),
//! * the tree composite (sub-linear doorway, per-node FCFS),
//! * the [`AdaptiveBakery`] — which *migrates flat→tree mid-run* once its
//!   leased-capacity threshold fires, so the handoff is exercised under real
//!   churn, not just in the model checker.
//!
//! After the churn the run enters a **subside phase**: the client population
//! collapses to one at a time, below the adaptive lock's hysteresis low
//! watermark, until its quiet period elapses and the *reverse* (tree→flat)
//! handoff fires — so E11 now measures the full round trip.  The adaptive
//! lock's quiet period is sized to exceed the churn phase's total release
//! count, which makes the schedule deterministic on any core count: the
//! reverse cannot complete before the subside phase, and the subside phase
//! (live = 1, far below the capacity threshold) can never re-trigger the
//! forward leg — exactly one migration in each direction
//! ([`ServiceResult::migrations_forward`] / [`ServiceResult::migrations_reverse`]),
//! asserted in-test by [`run`].
//!
//! The runner asserts the session plane's core guarantee **in-test**: a
//! leased pid is never aliased — no two live sessions on one pid (across
//! forward *and* reverse migrations), and never two concurrent critical
//! sections anywhere ([`ServiceResult::aliasing_violations`] must be zero,
//! which [`run`] and the conformance suite both check).

use bakery_core::sync::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bakery_core::{
    AdaptiveBakery, BakeryPlusPlusLock, RawMutexAlgorithm, SessionPlane, TreeBakery,
    DEFAULT_PP_BOUND,
};

use crate::report::Table;
use crate::workload::busy_work;

/// A service lock plus, for the adaptive entry, a typed handle for probing
/// the migration epoch after the run.
pub type ServiceLock = (Arc<dyn RawMutexAlgorithm>, Option<Arc<AdaptiveBakery>>);

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
    /// Clients of the subside phase, served strictly one at a time after the
    /// churn — enough of them to exhaust the adaptive lock's quiet period
    /// (see [`ServiceConfig::quiet_period`]) with margin to complete the
    /// reverse drain.
    pub subside_clients: usize,
}

impl ServiceConfig {
    /// The E11 configuration: `64 x slots` clients.
    #[must_use]
    pub fn standard(quick: bool) -> Self {
        let mut config = if quick {
            Self {
                slots: 4,
                clients: 256,
                cs_per_session: 4,
                workers: 8,
                cs_work: 8,
                subside_clients: 0,
            }
        } else {
            Self {
                slots: 8,
                clients: 512,
                cs_per_session: 8,
                workers: 16,
                cs_work: 16,
                subside_clients: 0,
            }
        };
        // Enough one-at-a-time releases to exhaust the quiet period even if
        // the churn never contributed a single quiet observation, plus two
        // whole sessions of margin for the trigger and the drain flip.
        config.subside_clients =
            (config.quiet_period().div_ceil(config.cs_per_session) as usize) + 2;
        config
    }

    /// Client-to-slot ratio (the headline "how oversubscribed" figure).
    #[must_use]
    pub fn oversubscription(&self) -> usize {
        self.clients / self.slots
    }

    /// The adaptive lock's leased-capacity (forward) threshold for this
    /// configuration: the rush phase leases every seat, so any value up to
    /// `slots` fires deterministically; it must also leave room for a low
    /// watermark of [`Self::low_watermark`] strictly beneath it.
    #[must_use]
    pub fn capacity_threshold(&self) -> usize {
        AdaptiveBakery::default_capacity_threshold(self.slots).max(self.low_watermark() + 1)
    }

    /// The hysteresis low watermark: the subside phase runs one live session
    /// at a time, so 2 makes every subside release quiet while any two
    /// concurrent clients keep the tree resident.
    #[must_use]
    pub fn low_watermark(&self) -> usize {
        2
    }

    /// The adaptive lock's quiet period, sized past the churn phase's total
    /// release count so the reverse migration is pinned to the subside phase
    /// on any scheduler (1-CPU runners serialise the churn into quiet-looking
    /// solo releases; the oversized period makes that harmless).
    #[must_use]
    pub fn quiet_period(&self) -> u64 {
        self.clients as u64 * self.cs_per_session + 1
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
    /// Packed-snapshot fast-path hits across all planes.
    pub fast_path_hits: u64,
    /// Completed flat→tree handoffs (non-zero only for the adaptive lock).
    pub migrations_forward: u64,
    /// Completed tree→flat handoffs (non-zero only for the adaptive lock).
    pub migrations_reverse: u64,
    /// Crash aborts recorded by the lock (zero in E11's crash-free churn;
    /// E12 is the experiment that injects them).
    pub crash_aborts: u64,
    /// Seat recoveries performed by the reaper (zero in E11's crash-free
    /// churn).
    pub seat_recoveries: u64,
    /// `Some(phase)` for the adaptive lock: its epoch phase after the run
    /// (0 = flat again after the round trip, 2 = still on the tree).
    pub final_phase: Option<u64>,
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
/// panicking so the caller can assert and render them.
///
/// The run opens with a **rush phase**: the first `slots` clients attach
/// concurrently behind a barrier, so the leased capacity demonstrably
/// reaches the full slot count before the steady churn begins.  (On a
/// single-CPU runner the steady churn alone can serialise into one live
/// session at a time, which would leave a capacity-triggered migration
/// schedule-dependent; the rush makes it deterministic.)  The remaining
/// clients then churn freely across `workers` threads, and the run closes
/// with the **subside phase**: `subside_clients` served strictly one at a
/// time, which takes the adaptive lock below its low watermark for long
/// enough that the reverse migration provably completes in-run.
#[must_use]
pub fn run_service(
    lock: Arc<dyn RawMutexAlgorithm>,
    config: &ServiceConfig,
    adaptive: Option<&Arc<AdaptiveBakery>>,
) -> ServiceResult {
    let algorithm = lock.algorithm_name().to_string();
    let plane = SessionPlane::new(lock);
    let rush_clients = config.slots.min(config.clients);
    let next_client = AtomicUsize::new(rush_clients);
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
    // Phase 1 — the rush: every seat leased at once.
    let all_attached = Barrier::new(rush_clients);
    std::thread::scope(|scope| {
        for _ in 0..rush_clients {
            scope.spawn(|| {
                let session = plane.attach();
                all_attached.wait();
                serve_one(&session);
                drop(session);
            });
        }
    });
    // Phase 2 — steady churn over the remaining clients.
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
    // Phase 3 — the subside: the rush is long over, clients now trickle in
    // one at a time (live sessions = 1, below the adaptive low watermark of
    // 2), until the quiet period elapses and the tree drains back to flat.
    for _ in 0..config.subside_clients {
        let session = plane.attach();
        serve_one(&session);
        drop(session);
    }
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
        fast_path_hits: stats.fast_path_hits,
        migrations_forward: stats.migrations_forward,
        migrations_reverse: stats.migrations_reverse,
        crash_aborts: stats.crash_aborts,
        seat_recoveries: stats.seat_recoveries,
        final_phase: adaptive.map(|a| a.epoch_phase()),
    }
}

/// Builds the three service locks for `config`.  The adaptive lock's
/// capacity threshold sits within the slot count, so the churn (whose rush
/// phase leases every seat at once) is guaranteed to cross it mid-run; its
/// quiet period is sized past the churn's release count so the reverse
/// migration lands deterministically in the subside phase.  The contention
/// trigger is disabled: E11 measures the leased-capacity round trip.
/// Public so the `bench-json` baseline runs the identical lock set.
#[must_use]
pub fn service_locks(config: &ServiceConfig) -> Vec<ServiceLock> {
    let slots = config.slots;
    let adaptive = Arc::new(AdaptiveBakery::with_hysteresis(
        slots,
        config.capacity_threshold(),
        u64::MAX,
        config.low_watermark(),
        config.quiet_period(),
    ));
    vec![
        (
            Arc::new(BakeryPlusPlusLock::with_bound(slots, DEFAULT_PP_BOUND)),
            None,
        ),
        (Arc::new(TreeBakery::new(slots)), None),
        (
            Arc::clone(&adaptive) as Arc<dyn RawMutexAlgorithm>,
            Some(adaptive),
        ),
    ]
}

/// Runs E11 and renders its table.
///
/// # Panics
/// Panics if any run observes a slot-aliasing violation, loses a session, or
/// (for the adaptive lock) fails to complete exactly one migration in each
/// direction across the churn-then-subside schedule — these are the
/// experiment's acceptance assertions, not just table rows.
#[must_use]
pub fn run(quick: bool) -> Vec<Table> {
    let config = ServiceConfig::standard(quick);
    assert!(
        config.oversubscription() >= 64,
        "E11 must run the >= 64x oversubscribed service regime"
    );
    let expected_sessions = (config.clients + config.subside_clients) as u64;
    let mut table = Table::new(
        format!(
            "E11 — lock service: {} clients over {} slots ({}x oversubscribed), {} CS each, \
             then a {}-client subside",
            config.clients,
            config.slots,
            config.oversubscription(),
            config.cs_per_session,
            config.subside_clients,
        ),
        &[
            "algorithm",
            "sessions/s",
            "cs/s",
            "attaches",
            "detaches",
            "aliasing",
            "fast-path hits",
            "migrations",
        ],
    );
    for (lock, adaptive) in service_locks(&config) {
        let result = run_service(lock, &config, adaptive.as_ref());
        assert_eq!(result.aliasing_violations, 0, "{}: slot aliasing", result.algorithm);
        assert_eq!(result.sessions, expected_sessions, "{}", result.algorithm);
        assert_eq!(result.attaches, expected_sessions, "{}", result.algorithm);
        assert_eq!(result.detaches, expected_sessions, "{}", result.algorithm);
        let migrations = match result.final_phase {
            Some(phase) => {
                // The subside scenario's headline assertion: exactly one
                // migration in each direction, ending flat-resident.
                assert_eq!(
                    (result.migrations_forward, result.migrations_reverse),
                    (1, 1),
                    "the churn must migrate forward once and the subside back once"
                );
                assert_eq!(
                    phase,
                    bakery_core::adaptive::EPOCH_FLAT,
                    "the round trip must end on the flat plane"
                );
                "flat->tree->flat".to_string()
            }
            None => {
                assert_eq!(result.migrations_forward, 0, "{}", result.algorithm);
                assert_eq!(result.migrations_reverse, 0, "{}", result.algorithm);
                "-".to_string()
            }
        };
        table.push_row(vec![
            result.algorithm.clone(),
            format!("{:.0}", result.sessions_per_sec()),
            format!("{:.0}", result.cs_per_sec()),
            result.attaches.to_string(),
            result.detaches.to_string(),
            result.aliasing_violations.to_string(),
            result.fast_path_hits.to_string(),
            migrations,
        ]);
    }
    table.push_note(
        "Each client attaches (leases a pid through the session plane), runs its critical \
         sections and detaches; generation-tagged seats recycle pids with zero aliasing \
         (asserted in-test).  The adaptive lock crosses its leased-capacity threshold \
         mid-churn, hands off flat->tree without dropping a session, and once the subside \
         phase stays below its low watermark for a full quiet period it drains the tree \
         and hands back tree->flat — exactly one migration each way, ending flat.",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_64x_oversubscribed() {
        let config = ServiceConfig::standard(true);
        assert!(config.oversubscription() >= 64);
        let full = ServiceConfig::standard(false);
        assert!(full.oversubscription() >= 64);
    }

    #[test]
    fn thresholds_leave_a_hysteresis_band_in_both_configs() {
        for quick in [true, false] {
            let config = ServiceConfig::standard(quick);
            assert!(config.low_watermark() < config.capacity_threshold());
            assert!(config.capacity_threshold() <= config.slots, "the rush must fire it");
            assert!(
                config.quiet_period() > config.clients as u64 * config.cs_per_session,
                "the reverse must be impossible before the subside phase"
            );
            assert!(
                config.subside_clients as u64 * config.cs_per_session
                    > config.quiet_period(),
                "the subside phase must be able to exhaust the quiet period"
            );
        }
    }

    #[test]
    fn churn_over_the_adaptive_lock_migrates_without_aliasing() {
        // Forward-only adaptive lock (reverse leg disabled): pins the PR 4
        // one-way behaviour of the same churn, subside included.
        let config = ServiceConfig {
            slots: 4,
            clients: 256,
            cs_per_session: 2,
            workers: 8,
            cs_work: 2,
            subside_clients: 8,
        };
        let adaptive = Arc::new(AdaptiveBakery::with_config(config.slots, 2, u64::MAX));
        let result = run_service(
            Arc::clone(&adaptive) as Arc<dyn RawMutexAlgorithm>,
            &config,
            Some(&adaptive),
        );
        assert_eq!(result.aliasing_violations, 0);
        assert_eq!(result.sessions, 264);
        assert_eq!(result.total_cs, 528);
        assert_eq!(result.attaches, 264);
        assert_eq!(result.detaches, 264);
        assert_eq!(result.final_phase, Some(bakery_core::adaptive::EPOCH_TREE));
        assert_eq!(result.migrations_forward, 1);
        assert_eq!(result.migrations_reverse, 0, "reverse leg disabled");
        // Facade-only cs_entries across the in-churn migration (the PR 3
        // rule must hold through the handoff).
        assert_eq!(adaptive.stats().cs_entries(), 528);
        assert_eq!(adaptive.aggregate_snapshot().cs_entries, 528);
    }

    #[test]
    fn subside_completes_the_round_trip_exactly_once_each_way() {
        // The full E11 schedule at quick scale over the real service lock
        // set: rush fires the forward leg, the subside fires the reverse,
        // and nothing flaps in between.
        let config = ServiceConfig::standard(true);
        let (lock, adaptive) = service_locks(&config).pop().unwrap();
        let adaptive = adaptive.expect("the last service lock is the adaptive one");
        let result = run_service(lock, &config, Some(&adaptive));
        assert_eq!(result.aliasing_violations, 0);
        assert_eq!(result.migrations_forward, 1, "exactly one forward");
        assert_eq!(result.migrations_reverse, 1, "exactly one reverse");
        assert_eq!(result.final_phase, Some(bakery_core::adaptive::EPOCH_FLAT));
        assert!(!adaptive.has_migrated(), "flat-resident after the subside");
        assert_eq!(adaptive.cycle(), 1);
        let expected = (config.clients + config.subside_clients) as u64;
        assert_eq!(result.sessions, expected);
        assert_eq!(result.attaches, expected);
        assert_eq!(result.detaches, expected);
        // Facade-only cs_entries across BOTH handoffs.
        assert_eq!(result.total_cs, expected * config.cs_per_session);
        assert_eq!(adaptive.stats().cs_entries(), result.total_cs);
        assert_eq!(adaptive.aggregate_snapshot().cs_entries, result.total_cs);
    }

    #[test]
    fn quick_table_renders_all_three_locks() {
        let tables = run(true);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 3);
        let names: Vec<_> = tables[0].rows.iter().map(|r| r[0].clone()).collect();
        assert!(names.contains(&"bakery++".to_string()));
        assert!(names.contains(&"tree-bakery".to_string()));
        assert!(names.contains(&"adaptive-bakery".to_string()));
        let adaptive_row = tables[0]
            .rows
            .iter()
            .find(|r| r[0] == "adaptive-bakery")
            .unwrap();
        assert_eq!(adaptive_row[5], "0", "aliasing column");
        assert_eq!(adaptive_row[7], "flat->tree->flat");
    }
}

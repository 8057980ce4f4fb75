//! **E12 — beyond the paper: kill-and-recover under the live lock stack.**
//!
//! E11 measures the session plane under churn; E12 measures it under churn
//! **plus crashes** — the regime of the paper's correctness conditions 3/4
//! and proof assumptions 1.5–1.7, where a process may fail at any instant
//! and later restarts in its noncritical section with its registers reading
//! zero.  The model checker closes the crash rule out exhaustively
//! (`bakery-mc::crash_recovery`); E12 is the *measurement* half: the same
//! rule applied by the [`SessionPlane`] reaper to real threads, at a swept
//! crash rate, with the recovery latency on the wall clock.
//!
//! ## The crash-point injector
//!
//! Crashes are injected at **named sites** with a **fixed schedule** — no
//! RNG anywhere (the schedule is a [`FaultPlan::at_steps`] plan keyed by
//! client index, the sim crate's deterministic constructor), so a run
//! replays bit for bit.  A "crash" is a client thread abandoning its seat
//! without detaching (`mem::forget` of the session — and, for the in-CS
//! site, of the guard), which is exactly what a killed process looks like
//! to the plane: a leased seat whose holder stops heartbeating.  The sites,
//! named after the protocol point the victim dies at:
//!
//! | site | dead state left behind | recovery path |
//! |---|---|---|
//! | `doorway`  | leased seat, registers zero (died before its first doorway write) | lease expires → reaped, recycled idle |
//! | `l2`       | a completed doorway's ticket with the CS **free** (died in its L2 scan) | [`RawMutexAlgorithm::crash_abort`] zeroes the ticket |
//! | `l3`       | a completed doorway's ticket **behind a live CS holder** (died at L3) | [`RawMutexAlgorithm::crash_abort`] zeroes the ticket |
//! | `cs`       | seat `IN_CS`, lock genuinely held by the dead pid | reap → `QUARANTINED` → [`SessionPlane::recover_quarantined`] |
//! | `release`  | leased seat, registers zero (died after its last release, before detach) | lease expires → reaped, recycled idle |
//!
//! (`l2` and `l3` leave the *same* own-register state — after the doorway a
//! waiter's `choosing` is back to zero whichever wait loop it occupies — but
//! different surrounding configurations, so they wedge a surviving waiter
//! through different paths.  They are driven as a raw-lock probe; the
//! session-level sites ride the churn.)
//!
//! ## Scheduling discipline (why this is deterministic *and* safe)
//!
//! The plane's failure detector is a caller-driven logical clock, and its
//! documented lease contract is that `lease_ticks` must exceed a live
//! client's longest renewal gap.  E12 honours the contract *by
//! construction*: the run proceeds in rounds, and the clock only advances
//! at round barriers, when every surviving client has detached — so a live
//! seat can never expire, and every reap sweep recovers exactly the
//! scheduled victims.  Within a round the parallel churn only takes
//! `doorway`/`release` victims (which die without holding the lock); the
//! in-CS kill runs in the round's sequenced recovery cycle, where a live
//! waiter is deliberately wedged behind the dead holder and the
//! detector-to-reacquire latency is measured.
//!
//! ## What the experiment asserts
//!
//! * every run **completes** — no deadlock at any swept crash rate: every
//!   abandoned seat is recovered and re-leased, every wedged waiter
//!   eventually acquires;
//! * **zero aliasing** — the same two in-test counters as E11 (no two live
//!   sessions on one pid, no two concurrent critical sections), now across
//!   crash recovery and seat recycling;
//! * the books balance: recoveries equal injected crashes, quarantines
//!   equal in-CS kills, and nothing stays leased or quarantined at the end;
//! * in the probe, FCFS **under** the crash rule: a waiter ordered behind a
//!   dead ticket never enters the CS before `crash_abort` clears it (the
//!   protocol guarantees it, the probe asserts it on real threads).

use std::mem;
use bakery_core::sync::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bakery_core::{
    AdaptiveBakery, BakeryPlusPlusLock, RawMutexAlgorithm, SessionPlane, TreeBakery,
    DEFAULT_PP_BOUND,
};
use bakery_sim::FaultPlan;

use bakery_json::Value;

use crate::report::{num, Table};
use crate::workload::busy_work;

/// The named protocol points a victim can be killed at (see the module
/// docs for the dead state each leaves behind and its recovery path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// Died right after attaching, before its first doorway write.
    Doorway,
    /// Died holding a completed doorway's ticket while the CS is free.
    L2,
    /// Died holding a ticket ordered behind a live CS holder.
    L3,
    /// Died inside the critical section.
    Cs,
    /// Died after its last release, before detaching.
    Release,
}

impl CrashSite {
    /// The site's name as it appears in tables and JSON.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            CrashSite::Doorway => "doorway",
            CrashSite::L2 => "l2",
            CrashSite::L3 => "l3",
            CrashSite::Cs => "cs",
            CrashSite::Release => "release",
        }
    }
}

/// The sites the parallel churn injects (victims that die *without* holding
/// the lock, so they never block a same-round survivor).  The in-CS site is
/// sequenced in the recovery cycle; `l2`/`l3` are the raw probe's.
const CHURN_SITES: [CrashSite; 2] = [CrashSite::Doorway, CrashSite::Release];

/// One kill-and-recover configuration.
#[derive(Debug, Clone, Copy)]
pub struct KillConfig {
    /// Slot capacity of the lock.
    pub slots: usize,
    /// Rounds of churn-then-reap (each round ends with one in-CS kill and
    /// its measured recovery, unless the run is crash-free).
    pub rounds: usize,
    /// Clients served per round.
    pub clients_per_round: usize,
    /// Critical sections per surviving session.
    pub cs_per_session: u64,
    /// Worker threads driving each round's churn.
    pub workers: usize,
    /// Busy-work units inside each critical section.
    pub cs_work: u64,
    /// `Some(p)`: every `p`-th client of a round is a victim (site cycling
    /// through the churn sites `doorway`, `release` on the fixed schedule).  `None`: the
    /// crash-free baseline.
    pub crash_period: Option<usize>,
}

impl KillConfig {
    /// The E12 configuration at `crash_period`.
    #[must_use]
    pub fn standard(quick: bool, crash_period: Option<usize>) -> Self {
        let config = if quick {
            Self {
                slots: 8,
                rounds: 2,
                clients_per_round: 24,
                cs_per_session: 2,
                workers: 8,
                cs_work: 2,
                crash_period,
            }
        } else {
            Self {
                slots: 8,
                rounds: 4,
                clients_per_round: 24,
                cs_per_session: 4,
                workers: 8,
                cs_work: 8,
                crash_period,
            }
        };
        if let Some(period) = crash_period {
            // Dead seats are only reclaimed at the round barrier, so a
            // round must never kill its whole seat pool.
            assert!(
                config.clients_per_round / period < config.slots,
                "a round's victims must leave at least one live seat"
            );
        }
        config
    }

    /// The crash rates the report sweeps (victims per client, as periods).
    #[must_use]
    pub fn swept_periods() -> [Option<usize>; 4] {
        [None, Some(12), Some(6), Some(4)]
    }

    /// Total clients across all rounds.
    #[must_use]
    pub fn clients(&self) -> usize {
        self.rounds * self.clients_per_round
    }

    /// The fixed, RNG-free kill schedule for one round: a
    /// [`FaultPlan::at_steps`] plan keyed by the round-local client index,
    /// whose "victim" field selects the churn site (`doorway`, `release`).
    #[must_use]
    pub fn round_schedule(&self) -> FaultPlan {
        match self.crash_period {
            None => FaultPlan::none(),
            Some(period) => FaultPlan::at_steps(
                (0..self.clients_per_round)
                    .step_by(period)
                    .enumerate()
                    .map(|(i, client)| (client as u64, i % CHURN_SITES.len())),
            ),
        }
    }
}

/// Expands the round schedule into a per-client site lookup by replaying
/// the deterministic injector once, step for step.
fn expand_schedule(config: &KillConfig) -> Vec<Option<CrashSite>> {
    let plan = config.round_schedule();
    let mut injector = plan.injector(CHURN_SITES.len());
    (0..config.clients_per_round)
        .map(|_| injector.maybe_crash().map(|site| CHURN_SITES[site]))
        .collect()
}

/// Latency samples in nanoseconds, reported as mean/max.
#[derive(Debug, Clone, Default)]
pub struct LatencySamples {
    samples: Vec<u64>,
}

impl LatencySamples {
    fn push(&mut self, latency: Duration) {
        self.samples.push(latency.as_nanos() as u64);
    }

    /// Number of samples collected.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were collected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
    }

    /// Maximum in nanoseconds (0 when empty).
    #[must_use]
    pub fn max_ns(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }
}

/// Outcome of one kill-and-recover run.
#[derive(Debug, Clone)]
pub struct KillResult {
    /// Name of the algorithm under test.
    pub algorithm: String,
    /// The run's crash period (`None` = crash-free baseline).
    pub crash_period: Option<usize>,
    /// Sessions that ran to completion (attach → k CS → detach).
    pub completed_sessions: u64,
    /// Churn victims injected (doorway + release sites).
    pub injected_crashes: u64,
    /// In-CS kills injected (one per round on crashed runs).
    pub cs_crashes: u64,
    /// Critical sections completed by surviving sessions during the churn.
    pub total_cs: u64,
    /// Wall-clock time spent in the parallel churn phases only (the
    /// baseline-comparable figure; recovery cycles are timed separately).
    pub churn_elapsed: Duration,
    /// Seats recovered as recycled-idle by the reaper.
    pub recycled_idle: u64,
    /// Seats quarantined by the reaper (in-CS victims).
    pub quarantined: u64,
    /// Reap attempts the lock refused (must be zero on the shipped stack).
    pub refused: u64,
    /// `LockStats::seat_recoveries` after the run.
    pub seat_recoveries: u64,
    /// `LockStats::crash_aborts` after the run.
    pub crash_aborts: u64,
    /// Slot-aliasing violations observed in-test.  **Must be zero.**
    pub aliasing_violations: u64,
    /// Detector-to-lock-free latency: from the reaper firing (clock
    /// advance) to the dead holder's CS handed back, per in-CS kill.
    pub recovery: LatencySamples,
    /// The wedged waiter's view: from its `lock()` call (behind the dead
    /// holder) to its acquisition, per in-CS kill.
    pub waiter_blocked: LatencySamples,
}

impl KillResult {
    /// Churn throughput in critical sections per second.
    #[must_use]
    pub fn cs_per_sec(&self) -> f64 {
        let secs = self.churn_elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.total_cs as f64 / secs
        }
    }
}

/// The three service locks at E12's scale (the E11 trio, default adaptive
/// thresholds — E12 does not pin the migration schedule, it only requires
/// crash recovery to hold through whatever migrations fire).
///
/// Every [`run_kill`] needs a **fresh** lock: a killed client's leaked
/// session keeps its plane (and with it the lock's slots) alive for the
/// process lifetime, exactly as a real dead process would, so a lock that
/// has hosted one kill run can never host another plane.
#[must_use]
pub fn kill_locks(slots: usize) -> Vec<Arc<dyn RawMutexAlgorithm>> {
    vec![
        Arc::new(BakeryPlusPlusLock::with_bound(slots, DEFAULT_PP_BOUND)),
        Arc::new(TreeBakery::new(slots)),
        Arc::new(AdaptiveBakery::new(slots)),
    ]
}

/// How long the recovery cycle lets its waiter wedge behind the dead CS
/// holder before firing the detector — long enough that the waiter is
/// (with overwhelming likelihood) parked in its wait loop, short enough
/// not to dominate the run.  Correctness never depends on it: the waiter
/// *cannot* pass the dead ticket until recovery, whenever it arrives.
const WEDGE_WINDOW: Duration = Duration::from_micros(300);

/// Runs one kill-and-recover configuration against `lock`.
///
/// # Panics
/// Panics when recovery accounting does not balance — a missing recovery
/// would otherwise surface as a hang, and a spurious one as aliasing.
#[must_use]
pub fn run_kill(lock: Arc<dyn RawMutexAlgorithm>, config: &KillConfig) -> KillResult {
    let algorithm = lock.algorithm_name().to_string();
    // Finite lease: one tick.  The clock only moves at round barriers, so a
    // live seat (deadline = clock + 1 > clock) can never expire mid-churn.
    let plane = SessionPlane::with_lease(Arc::clone(&lock), 1);
    let site_of = expand_schedule(config);

    let completed = AtomicU64::new(0);
    let total_cs = AtomicU64::new(0);
    let violations = AtomicU64::new(0);
    let leased: Vec<AtomicU64> = (0..config.slots).map(|_| AtomicU64::new(0)).collect();
    let in_cs = AtomicU64::new(0);

    let serve_cs = |session: &bakery_core::Session| {
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
    };

    let mut injected_crashes = 0u64;
    let mut cs_crashes = 0u64;
    let mut recycled_idle = 0u64;
    let mut quarantined = 0u64;
    let mut refused = 0u64;
    let mut churn_elapsed = Duration::ZERO;
    let mut recovery = LatencySamples::default();
    let mut waiter_blocked = LatencySamples::default();

    for _round in 0..config.rounds {
        // Phase A — parallel churn with scheduled doorway/release kills.
        // The clock is frozen, so the reaper contract holds trivially.
        let next_client = AtomicUsize::new(0);
        let begun = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..config.workers {
                scope.spawn(|| loop {
                    let client = next_client.fetch_add(1, Ordering::SeqCst); // mem: harness-probe
                    if client >= config.clients_per_round {
                        return;
                    }
                    let session = plane.attach();
                    if leased[session.pid()].fetch_add(1, Ordering::SeqCst) != 0 { // mem: harness-probe
                        violations.fetch_add(1, Ordering::SeqCst); // mem: harness-probe
                    }
                    let crash = site_of[client];
                    if crash != Some(CrashSite::Doorway) {
                        serve_cs(&session);
                    }
                    leased[session.pid()].fetch_sub(1, Ordering::SeqCst); // mem: harness-probe
                    match crash {
                        // The kill: the seat stays leased, nobody heartbeats
                        // it again.  (The leaked session is the point — a
                        // dead process never runs its destructor.)
                        Some(_) => mem::forget(session),
                        None => {
                            drop(session);
                            completed.fetch_add(1, Ordering::SeqCst); // mem: harness-probe
                        }
                    }
                });
            }
        });
        churn_elapsed += begun.elapsed();
        injected_crashes += site_of.iter().flatten().count() as u64;

        // Round barrier: every survivor has detached; only victims' seats
        // are still leased.  Fire the detector and sweep them.
        plane.advance_clock(plane.clock() + plane.lease_ticks());
        let report = plane.reap();
        recycled_idle += report.recycled_idle as u64;
        quarantined += report.quarantined as u64;
        refused += report.refused as u64;
        assert_eq!(
            report.quarantined, 0,
            "{algorithm}: churn victims never die holding the CS"
        );

        // Phase B — the sequenced in-CS kill and its measured recovery.
        if config.crash_period.is_some() {
            let victim = plane.attach();
            let victim_pid = victim.pid();
            let guard = victim.lock();
            // Kill the holder mid-CS: seat IN_CS, lock genuinely held.
            mem::forget(guard);
            mem::forget(victim);
            // Expire the victim *before* the waiter attaches, so the
            // waiter's own fresh lease can never be swept with it.
            plane.advance_clock(plane.clock() + plane.lease_ticks());
            let blocked = std::thread::scope(|scope| {
                let waiter = scope.spawn(|| {
                    let session = plane.attach();
                    let wedged = Instant::now();
                    let guard = session.lock(); // behind the dead holder
                    let blocked = wedged.elapsed();
                    busy_work(config.cs_work);
                    drop(guard);
                    drop(session);
                    blocked
                });
                std::thread::sleep(WEDGE_WINDOW);
                let fired = Instant::now();
                let report = plane.reap();
                assert_eq!(
                    report.quarantined, 1,
                    "{algorithm}: the dead CS holder must be quarantined"
                );
                let seat = plane
                    .recover_quarantined(victim_pid)
                    .expect("the quarantined seat is recoverable");
                drop(seat); // the one release, on the dead pid's behalf
                recovery.push(fired.elapsed());
                waiter.join().expect("waiter thread")
            });
            waiter_blocked.push(blocked);
            completed.fetch_add(1, Ordering::SeqCst); // the waiter's session // mem: harness-probe
            quarantined += 1;
            cs_crashes += 1;
        }
    }

    assert_eq!(plane.live_sessions(), 0, "{algorithm}: leaked lease");
    assert!(
        plane.quarantined_seats().is_empty(),
        "{algorithm}: unrecovered quarantine"
    );
    let stats = plane.stats().snapshot();
    KillResult {
        algorithm,
        crash_period: config.crash_period,
        completed_sessions: completed.load(Ordering::SeqCst), // mem: harness-probe
        injected_crashes,
        cs_crashes,
        total_cs: total_cs.load(Ordering::SeqCst), // mem: harness-probe
        churn_elapsed,
        recycled_idle,
        quarantined,
        refused,
        seat_recoveries: stats.seat_recoveries,
        crash_aborts: stats.crash_aborts,
        aliasing_violations: violations.load(Ordering::SeqCst), // mem: harness-probe
        recovery,
        waiter_blocked,
    }
}

/// Outcome of the raw ticket-holder probe at one site.
#[derive(Debug, Clone)]
pub struct ProbeResult {
    /// `l2` or `l3`.
    pub site: CrashSite,
    /// `crash_abort`-to-reacquire latency per sample.
    pub recovery: LatencySamples,
}

/// The `l2`/`l3` recovery-latency probe on a raw two-process Bakery++.
///
/// A victim completes its doorway and dies holding the ticket — with the CS
/// free (`l2`) or behind a live holder (`l3`).  A surviving waiter then
/// takes a later ticket and, by FCFS, **cannot** enter the CS until the
/// reaper's [`RawMutexAlgorithm::crash_abort`] zeroes the dead ticket; the
/// probe measures that unblock latency and asserts the FCFS ordering held
/// (the waiter's acquisition strictly follows the abort).
///
/// # Panics
/// Panics if the waiter enters the CS before the abort (an FCFS-under-crash
/// violation) or the dead registers survive it.
#[must_use]
pub fn run_probe(site: CrashSite, samples: usize) -> ProbeResult {
    assert!(matches!(site, CrashSite::L2 | CrashSite::L3));
    let lock = Arc::new(BakeryPlusPlusLock::with_bound(2, DEFAULT_PP_BOUND));
    let mut recovery = LatencySamples::default();
    for _ in 0..samples {
        match site {
            CrashSite::L2 => {
                // Empty bakery: the victim doorways alone and dies scanning.
                assert!(lock.try_doorway(1).took_ticket());
            }
            CrashSite::L3 => {
                // The victim doorways behind a live CS holder and dies
                // ordered at L3; the holder then leaves normally.
                lock.acquire(0);
                assert!(lock.try_doorway(1).took_ticket());
                lock.release(0);
            }
            _ => unreachable!(),
        }
        // A survivor arrives: FCFS orders it behind the dead ticket.
        let aborted = Arc::new(AtomicU64::new(0));
        let begun = Instant::now();
        let waiter = std::thread::spawn({
            let lock = Arc::clone(&lock);
            let aborted = Arc::clone(&aborted);
            move || {
                lock.acquire(0);
                let entered = begun.elapsed();
                let abort_ns = aborted.load(Ordering::SeqCst); // mem: harness-probe
                lock.release(0);
                (entered, abort_ns)
            }
        });
        std::thread::sleep(WEDGE_WINDOW);
        // Stamp the abort time, then apply the crash rule.  The crash rule's
        // zeroing of number[1] is a Release write after this store, and the
        // waiter only passes L3 on an Acquire read of that zero, so the stamp
        // is visible to it by then: a zero stamp at its CS entry would be a
        // genuine FCFS-under-crash violation.
        aborted.store(begun.elapsed().as_nanos() as u64, Ordering::SeqCst); // mem: harness-probe
        assert!(lock.crash_abort(1), "bakery++ supports the crash rule");
        let (entered, abort_ns) = waiter.join().expect("waiter thread");
        assert_eq!(lock.registers().read_number(1), 0, "dead ticket cleared");
        assert!(
            abort_ns > 0 && entered.as_nanos() as u64 >= abort_ns,
            "FCFS under crash: the waiter must not pass the dead ticket \
             before crash_abort ({entered:?} vs {abort_ns} ns)"
        );
        recovery.push(Duration::from_nanos(entered.as_nanos() as u64 - abort_ns));
    }
    ProbeResult { site, recovery }
}

/// Runs E12 and renders its tables.
///
/// # Panics
/// Panics if any run deadlocks (it would hang, not return), aliases a slot,
/// refuses a recovery, or fails the recovery bookkeeping.
#[must_use]
pub fn run(quick: bool) -> Vec<Table> {
    let mut churn = Table::new(
        "E12 — kill-and-recover: session churn with crashes injected at a swept rate",
        &[
            "algorithm",
            "crash period (1 in N clients)",
            "churn crashes",
            "cs crashes",
            "sessions",
            "cs/s",
            "vs crash-free (%)",
            "recycled idle",
            "quarantined",
            "refused",
            "crash aborts",
            "seat recoveries",
            "aliasing",
            "recovery mean µs",
            "recovery max µs",
            "waiter blocked mean µs",
            "waiter blocked max µs",
        ],
    );
    let slots = KillConfig::standard(quick, None).slots;
    for which in 0..kill_locks(slots).len() {
        let mut baseline_cs_per_sec = 0.0;
        for period in KillConfig::swept_periods() {
            // A fresh lock per run: leaked (killed) sessions pin the
            // previous plane, so planes and locks are never reused.
            let lock = kill_locks(slots).swap_remove(which);
            let config = KillConfig::standard(quick, period);
            let result = run_kill(lock, &config);
            assert_eq!(result.aliasing_violations, 0, "{}: aliasing", result.algorithm);
            assert_eq!(result.refused, 0, "{}: refused recovery", result.algorithm);
            assert_eq!(
                result.recycled_idle, result.injected_crashes,
                "{}: every churn victim recovered",
                result.algorithm
            );
            assert_eq!(
                result.seat_recoveries,
                result.injected_crashes + result.cs_crashes,
                "{}: recovery books balance",
                result.algorithm
            );
            let degradation = if period.is_none() {
                baseline_cs_per_sec = result.cs_per_sec();
                Value::Null
            } else if baseline_cs_per_sec > 0.0 {
                num(
                    (result.cs_per_sec() - baseline_cs_per_sec) / baseline_cs_per_sec * 100.0,
                    1,
                )
            } else {
                Value::Null
            };
            churn.push_row(vec![
                result.algorithm.clone().into(),
                period.into(),
                result.injected_crashes.into(),
                result.cs_crashes.into(),
                result.completed_sessions.into(),
                num(result.cs_per_sec(), 0),
                degradation,
                result.recycled_idle.into(),
                result.quarantined.into(),
                result.refused.into(),
                result.crash_aborts.into(),
                result.seat_recoveries.into(),
                result.aliasing_violations.into(),
                num(result.recovery.mean_ns() / 1_000.0, 1),
                num(result.recovery.max_ns() as f64 / 1_000.0, 1),
                num(result.waiter_blocked.mean_ns() / 1_000.0, 1),
                num(result.waiter_blocked.max_ns() as f64 / 1_000.0, 1),
            ]);
        }
    }
    churn.push_note(
        "Victims are real threads abandoning their seats on a fixed FaultPlan::at_steps \
         schedule (doorway/release sites in the parallel churn, an in-CS kill per round). \
         The reaper recovers every dead seat — idle recycles for clean deaths, quarantine \
         + explicit hand-back for dead CS holders — and the wedged waiter's unblock time \
         is the measured recovery latency.  Zero aliasing and balanced recovery books are \
         asserted in-test; a deadlock would hang the run.  The crash-free baseline row has a \
         dash for its period and for the throughput delta it is the reference of.",
    );

    let samples = if quick { 8 } else { 32 };
    let mut probe = Table::new(
        "E12 probe — dead ticket holders (l2/l3 sites) on raw Bakery++",
        &["site", "samples", "recovery mean µs", "recovery max µs"],
    );
    for site in [CrashSite::L2, CrashSite::L3] {
        let result = run_probe(site, samples);
        probe.push_row(vec![
            result.site.name().into(),
            result.recovery.len().into(),
            num(result.recovery.mean_ns() / 1_000.0, 1),
            num(result.recovery.max_ns() as f64 / 1_000.0, 1),
        ]);
    }
    probe.push_note(
        "The victim dies holding a completed doorway's ticket; FCFS wedges the next \
         waiter behind it until crash_abort applies the paper's crash rule (registers \
         read zero).  The probe asserts the waiter never jumps the dead ticket and \
         measures abort-to-acquire latency.",
    );
    vec![churn, probe]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_respects_the_period() {
        let config = KillConfig::standard(false, Some(4));
        let sites = expand_schedule(&config);
        assert_eq!(sites, expand_schedule(&config), "bit-for-bit replay");
        let victims: Vec<usize> = sites
            .iter()
            .enumerate()
            .filter_map(|(c, site)| site.map(|_| c))
            .collect();
        assert_eq!(victims, vec![0, 4, 8, 12, 16, 20]);
        // Sites cycle doorway, release, doorway, ...
        assert_eq!(sites[0], Some(CrashSite::Doorway));
        assert_eq!(sites[4], Some(CrashSite::Release));
        assert!(victims.len() < config.slots, "a live seat always remains");
    }

    #[test]
    fn baseline_schedule_is_empty() {
        let config = KillConfig::standard(true, None);
        assert!(expand_schedule(&config).iter().all(Option::is_none));
        assert!(config.round_schedule().is_disabled());
    }

    #[test]
    fn kill_and_recover_balances_the_books_on_every_service_lock() {
        let config = KillConfig::standard(true, Some(6));
        for lock in kill_locks(config.slots) {
            let result = run_kill(Arc::clone(&lock), &config);
            assert_eq!(result.aliasing_violations, 0, "{}", result.algorithm);
            assert_eq!(result.refused, 0, "{}", result.algorithm);
            let victims_per_round = (config.clients_per_round as u64).div_ceil(6);
            assert_eq!(
                result.injected_crashes,
                victims_per_round * config.rounds as u64,
                "{}",
                result.algorithm
            );
            assert_eq!(result.cs_crashes, config.rounds as u64);
            assert_eq!(result.recycled_idle, result.injected_crashes);
            assert_eq!(result.quarantined, result.cs_crashes);
            assert_eq!(
                result.seat_recoveries,
                result.injected_crashes + result.cs_crashes
            );
            assert_eq!(
                result.completed_sessions,
                (config.clients() as u64 - result.injected_crashes)
                    + result.cs_crashes, // each recovery cycle's waiter
            );
            assert_eq!(result.recovery.len(), config.rounds);
            assert_eq!(result.waiter_blocked.len(), config.rounds);
            assert!(result.recovery.max_ns() > 0);
        }
    }

    #[test]
    fn crash_free_baseline_still_balances() {
        let config = KillConfig::standard(true, None);
        let lock = kill_locks(config.slots).remove(0);
        let result = run_kill(lock, &config);
        assert_eq!(result.injected_crashes, 0);
        assert_eq!(result.cs_crashes, 0);
        assert_eq!(result.seat_recoveries, 0);
        assert_eq!(result.completed_sessions, config.clients() as u64);
        assert_eq!(
            result.total_cs,
            config.clients() as u64 * config.cs_per_session
        );
        assert!(result.recovery.is_empty());
    }

    #[test]
    fn probe_recovers_both_sites() {
        for site in [CrashSite::L2, CrashSite::L3] {
            let result = run_probe(site, 2);
            assert_eq!(result.recovery.len(), 2);
            assert!(result.recovery.max_ns() > 0);
        }
    }

    #[test]
    fn quick_tables_render_the_sweep_and_the_probe() {
        let tables = run(true);
        assert_eq!(tables.len(), 2);
        // 3 locks x 4 swept periods.
        assert_eq!(tables[0].len(), 12);
        // One row per site.
        assert_eq!(tables[1].len(), 2);
    }
}

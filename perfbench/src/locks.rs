//! The two thread-driven lock workloads and the uncontended stack peel.
//!
//! * `uncontended`: one thread, one leased [`Session`], a closed loop of
//!   `Session::lock` plus guard drop.  Every entry takes the fast path.
//! * `contended`: two threads, each with its own session on one plane, a
//!   closed loop of lock → critical section → unlock → think, with CS and
//!   think lengths drawn from the seed.
//!
//! Both run under the `Spin` wait strategy (the library default), built
//! explicitly.  The stack peel times the same uncontended pair through
//! ever thicker entry points, from raw register writes up to the session.

use std::future::Future;
use std::hint::black_box;
use std::sync::{Arc, Barrier, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use bakery_core::stats::StatsSnapshot;
use bakery_core::{
    BakeryPlusPlusLock, OverflowPolicy, PackedSnapshot, Park, RawMutexAlgorithm, RegisterFile,
    ScanMode, Session, Spin, WaitHandle,
};
use bakery_harness::workload::busy_work;

use crate::common::{
    median, nanos, peak_rss_mb, round_count, timed_setup, Check, Outcome, OutcomeNames, Rig, Rng,
    Round, BOUND, ROUND, SLOTS,
};
use crate::hist::Hist;
use crate::spans::SpanLog;
use crate::PROGRESS;

/// Operations between deadline checks and progress updates.
const BATCH: u64 = 1024;
/// Untimed lock pairs before the uncontended measurement.
const WARMUP: u64 = 100_000;
/// Threads of the contended workload (the container's `nproc`).
pub const CONTENDED_THREADS: usize = 2;
/// Busy-work units of one critical section and one think phase.
pub const CS_UNITS: (u64, u64) = (20, 80);
pub const THINK_UNITS: (u64, u64) = (40, 240);
/// CS/think pairs generated per thread (cycled through).
const SHAPE_LEN: usize = 4096;
/// Spans kept per thread in a traced run.
const SPAN_CAP: usize = 30_000;

/// Lock-layer counters over one measured loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct LockCounts {
    pub cs: u64,
    pub fast_path_ratio: f64,
    pub doorway_waits_per_cs: f64,
    pub l1_waits_per_cs: f64,
    pub resets_per_cs: f64,
    pub overflow_attempts: u64,
    pub max_ticket: u64,
}

impl LockCounts {
    pub fn between(before: &StatsSnapshot, after: &StatsSnapshot) -> Self {
        let cs = after.cs_entries - before.cs_entries;
        let per_cs = |a: u64, b: u64| (a - b) as f64 / cs.max(1) as f64;
        Self {
            cs,
            fast_path_ratio: per_cs(after.fast_path_hits, before.fast_path_hits),
            doorway_waits_per_cs: per_cs(after.doorway_waits, before.doorway_waits),
            l1_waits_per_cs: per_cs(after.l1_waits, before.l1_waits),
            resets_per_cs: per_cs(after.resets, before.resets),
            overflow_attempts: after.overflow_attempts,
            max_ticket: after.max_ticket,
        }
    }

    /// Folds another loop's counters into these (ratios weighted by CS).
    pub fn accumulate(&mut self, other: &LockCounts) {
        let cs = (self.cs + other.cs).max(1) as f64;
        let mix = |a: f64, b: f64| (a * self.cs as f64 + b * other.cs as f64) / cs;
        self.fast_path_ratio = mix(self.fast_path_ratio, other.fast_path_ratio);
        self.doorway_waits_per_cs = mix(self.doorway_waits_per_cs, other.doorway_waits_per_cs);
        self.l1_waits_per_cs = mix(self.l1_waits_per_cs, other.l1_waits_per_cs);
        self.resets_per_cs = mix(self.resets_per_cs, other.resets_per_cs);
        self.cs += other.cs;
        self.overflow_attempts += other.overflow_attempts;
        self.max_ticket = self.max_ticket.max(other.max_ticket);
    }

    /// The overflow-freedom checks every lock run makes.
    pub fn checks(&self) -> Vec<Check> {
        vec![
            Check::equal("overflow_attempts_zero", 0, self.overflow_attempts),
            Check::new(
                "max_ticket_within_bound",
                self.max_ticket <= BOUND,
                format!("max ticket {} vs M = {BOUND}", self.max_ticket),
            ),
        ]
    }
}

/// One measured lock loop (one or more threads).
pub struct LockLoop {
    pub ops: u64,
    pub elapsed: Duration,
    pub latency: Hist,
    /// Summed time threads spent inside `Session::lock`.
    pub inside_lock: Duration,
    pub overlaps: u64,
    pub counts: LockCounts,
    pub checks: Vec<Check>,
    pub spans: Vec<SpanLog>,
}

impl LockLoop {
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// Per-seat lease markers: attaching a seat that already has a live marker
/// is aliasing.
pub struct LeaseMarkers(Vec<Mutex<u32>>);

impl LeaseMarkers {
    #[must_use]
    pub fn new() -> Self {
        Self((0..SLOTS).map(|_| Mutex::new(0)).collect())
    }

    /// Marks `pid` leased; false if it already was.
    pub fn lease(&self, pid: usize) -> bool {
        let mut marker = self.0[pid].lock().expect("lease marker poisoned");
        *marker += 1;
        *marker == 1
    }

    pub fn release(&self, pid: usize) {
        *self.0[pid].lock().expect("lease marker poisoned") -= 1;
    }
}

/// The uncontended loop: `Session::lock` + guard drop until `run` elapses.
/// Each sample is one pair plus one clock read.
fn uncontended_loop<const TRACED: bool>(session: &Session, run: Duration) -> LockLoop {
    let stats = session.plane().stats();
    let before = stats.snapshot();
    let mut latency = Hist::new();
    let start = Instant::now();
    let mut log = SpanLog::new(start, if TRACED { SPAN_CAP } else { 0 });
    let deadline = start + run;
    let mut inside = Duration::ZERO;
    let mut prev = start;
    let mut ops = 0u64;
    loop {
        for _ in 0..BATCH {
            if TRACED {
                let guard = session.lock();
                let acquired = Instant::now();
                drop(guard);
                let now = Instant::now();
                inside += acquired - prev;
                let cs = log.record("cs", ops, None, prev, now);
                if cs.is_some() {
                    log.record("acquire", ops, cs, prev, acquired);
                }
                latency.record(nanos(now - prev));
                prev = now;
            } else {
                drop(session.lock());
                let now = Instant::now();
                latency.record(nanos(now - prev));
                prev = now;
            }
            ops += 1;
        }
        PROGRESS.add_ops(BATCH);
        if prev >= deadline {
            break;
        }
    }
    let after = stats.snapshot();
    let counts = LockCounts::between(&before, &after);
    let checks = vec![Check::equal("cs_entries_match_pairs", ops, counts.cs)];
    LockLoop {
        ops,
        elapsed: prev - start,
        latency,
        inside_lock: inside,
        overlaps: 0,
        counts,
        checks,
        spans: vec![log],
    }
}

fn build_uncontended() -> (Rig, Session) {
    let rig = Rig::new(Arc::new(Spin));
    let session = rig
        .plane
        .try_attach()
        .expect("a fresh plane has free seats");
    (rig, session)
}

/// Runs the uncontended loop on a fresh rig, with its correctness checks.
fn uncontended_measured<const TRACED: bool>(
    rig: &Rig,
    session: Session,
    run: Duration,
) -> LockLoop {
    let markers = LeaseMarkers::new();
    let leased = markers.lease(session.pid());
    PROGRESS.worker_started();
    for _ in 0..WARMUP {
        drop(session.lock());
    }
    let mut result = uncontended_loop::<TRACED>(&session, run);
    PROGRESS.worker_done(0);
    markers.release(session.pid());
    drop(session);
    result.checks.push(Check::new(
        "lease_marker_unique",
        leased,
        "one live session per seat",
    ));
    result.checks.extend(plane_checks(rig));
    result.checks.extend(result.counts.checks());
    result
}

/// Checks every lock workload makes once its sessions are dropped.
fn plane_checks(rig: &Rig) -> Vec<Check> {
    let stats = rig.plane.stats();
    vec![
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
    ]
}

const UNCONTENDED_NAMES: OutcomeNames = OutcomeNames {
    ops: "lock_pairs_per_s",
    p50: "lock_pair_p50_ns",
    tail: "lock_pair_p99_ns",
    latency_unit: "ns",
    latency_scale: 1.0,
};

const CONTENDED_NAMES: OutcomeNames = OutcomeNames {
    ops: "cs_per_s",
    p50: "acquire_p50_ns",
    tail: "acquire_p99_ns",
    latency_unit: "ns",
    latency_scale: 1.0,
};

fn round_of(result: LockLoop) -> Round {
    Round {
        ops: result.ops,
        ops_per_s: result.ops_per_s(),
        latency: result.latency,
        failed_ops: result.overlaps,
        checks: result.checks,
    }
}

/// Runs a lock loop in one-second rounds, each on a freshly built rig.
fn lock_rounds<R>(
    run: Duration,
    build: impl Fn() -> R,
    measure: impl Fn(R, Duration) -> LockLoop,
    names: OutcomeNames,
) -> Outcome {
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    let mut total = LockCounts::default();
    let mut peak_rss = None;
    for _ in 0..round_count(run) {
        let result = measure(timed_setup(&mut setups, &build), ROUND);
        total.accumulate(&result.counts);
        rounds.push(round_of(result));
        peak_rss = peak_rss.or_else(peak_rss_mb);
    }
    let note = format!(
        "lock: cs={} fast_path_ratio={:.4} doorway_waits/cs={:.3} l1_waits/cs={:.4} \
         resets/cs={:.4} max_ticket={}",
        total.cs,
        total.fast_path_ratio,
        total.doorway_waits_per_cs,
        total.l1_waits_per_cs,
        total.resets_per_cs,
        total.max_ticket
    );
    Outcome::from_rounds(rounds, setups, peak_rss.unwrap_or(0.0), names, vec![note])
}

/// The untraced `uncontended` workload.
pub fn uncontended(run: Duration) -> Outcome {
    lock_rounds(
        run,
        build_uncontended,
        |(rig, session), round| uncontended_measured::<false>(&rig, session, round),
        UNCONTENDED_NAMES,
    )
}

/// An `uncontended` loop for the ledger, traced (spans per critical
/// section) or not.
pub fn uncontended_run(traced: bool, run: Duration) -> LockLoop {
    let (rig, session) = build_uncontended();
    if traced {
        uncontended_measured::<true>(&rig, session, run)
    } else {
        uncontended_measured::<false>(&rig, session, run)
    }
}

/// The per-thread CS and think lengths drawn from `seed`.
fn shapes(seed: u64) -> Vec<Vec<(u64, u64)>> {
    let mut rng = Rng::new(seed);
    (0..CONTENDED_THREADS)
        .map(|_| {
            (0..SHAPE_LEN)
                .map(|_| {
                    (
                        rng.range(CS_UNITS.0, CS_UNITS.1),
                        rng.range(THINK_UNITS.0, THINK_UNITS.1),
                    )
                })
                .collect()
        })
        .collect()
}

struct Worker {
    ops: u64,
    start: Instant,
    end: Instant,
    latency: Hist,
    inside: Duration,
    overlaps: u64,
    log: SpanLog,
}

/// One contended thread: lock → CS (overlap probe + payload) → unlock →
/// think, until `run` elapses.  The acquire latency is `Session::lock`.
fn contended_worker<const TRACED: bool>(
    session: &Session,
    probe: &Mutex<u64>,
    shape: &[(u64, u64)],
    gate: &Barrier,
    run: Duration,
    epoch: Instant,
) -> Worker {
    PROGRESS.worker_started();
    gate.wait();
    let start = Instant::now();
    let deadline = start + run;
    let mut latency = Hist::new();
    let mut log = SpanLog::new(epoch, if TRACED { SPAN_CAP } else { 0 });
    let mut inside = Duration::ZERO;
    let mut overlaps = 0u64;
    let mut ops = 0u64;
    let mut next = 0usize;
    loop {
        for _ in 0..BATCH {
            let (cs_units, think_units) = shape[next];
            next = (next + 1) % shape.len();
            let requested = Instant::now();
            let guard = session.lock();
            let acquired = Instant::now();
            latency.record(nanos(acquired - requested));
            match probe.try_lock() {
                Ok(mut entries) => {
                    *entries += 1;
                    busy_work(cs_units);
                }
                Err(_) => overlaps += 1,
            }
            drop(guard);
            if TRACED {
                let released = Instant::now();
                inside += acquired - requested;
                let request = ops;
                let cs = log.record("cs", request, None, requested, released);
                if cs.is_some() {
                    log.record("acquire", request, cs, requested, acquired);
                    log.record("critical", request, cs, acquired, released);
                }
            }
            busy_work(think_units);
            ops += 1;
        }
        PROGRESS.add_ops(BATCH);
        if Instant::now() >= deadline {
            break;
        }
    }
    PROGRESS.worker_done(0);
    Worker {
        ops,
        start,
        end: Instant::now(),
        latency,
        inside,
        overlaps,
        log,
    }
}

fn build_contended() -> (Rig, Vec<Session>) {
    let rig = Rig::new(Arc::new(Spin));
    let sessions = (0..CONTENDED_THREADS)
        .map(|_| {
            rig.plane
                .try_attach()
                .expect("a fresh plane has free seats")
        })
        .collect();
    (rig, sessions)
}

fn contended_measured<const TRACED: bool>(
    rig: &Rig,
    sessions: Vec<Session>,
    seed: u64,
    run: Duration,
) -> LockLoop {
    let markers = LeaseMarkers::new();
    let unique = sessions.iter().all(|s| markers.lease(s.pid()));
    let shapes = shapes(seed);
    let probe = Mutex::new(0u64);
    let gate = Barrier::new(CONTENDED_THREADS);
    let epoch = Instant::now();
    let before = rig.lock.stats().snapshot();
    let workers: Vec<Worker> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .zip(&shapes)
            .map(|(session, shape)| {
                let (probe, gate) = (&probe, &gate);
                scope.spawn(move || {
                    contended_worker::<TRACED>(session, probe, shape, gate, run, epoch)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("contended worker panicked"))
            .collect()
    });
    let after = rig.lock.stats().snapshot();
    for session in &sessions {
        markers.release(session.pid());
    }
    drop(sessions);

    let ops: u64 = workers.iter().map(|w| w.ops).sum();
    let overlaps: u64 = workers.iter().map(|w| w.overlaps).sum();
    let start = workers.iter().map(|w| w.start).min().expect("workers ran");
    let end = workers.iter().map(|w| w.end).max().expect("workers ran");
    let mut latency = Hist::new();
    for worker in &workers {
        latency.merge(&worker.latency);
    }
    let probed = *probe.lock().expect("overlap probe poisoned");
    let counts = LockCounts::between(&before, &after);
    let mut checks = vec![
        Check::new("lease_markers_unique", unique, "one live session per seat"),
        Check::equal("cs_overlaps", 0, overlaps),
        Check::equal("probe_counts_every_cs", ops, probed),
        Check::equal("cs_entries_match", ops, counts.cs),
    ];
    checks.extend(plane_checks(rig));
    checks.extend(counts.checks());
    LockLoop {
        ops,
        elapsed: end - start,
        latency,
        inside_lock: workers.iter().map(|w| w.inside).sum(),
        overlaps,
        counts,
        checks,
        spans: workers.into_iter().map(|w| w.log).collect(),
    }
}

/// The untraced `contended` workload.
pub fn contended(seed: u64, run: Duration) -> Outcome {
    lock_rounds(
        run,
        build_contended,
        |(rig, sessions), round| contended_measured::<false>(&rig, sessions, seed, round),
        CONTENDED_NAMES,
    )
}

/// A `contended` loop for the ledger, traced (spans per critical section)
/// or not.
pub fn contended_run(traced: bool, seed: u64, run: Duration) -> LockLoop {
    let (rig, sessions) = build_contended();
    if traced {
        contended_measured::<true>(&rig, sessions, seed, run)
    } else {
        contended_measured::<false>(&rig, sessions, seed, run)
    }
}

/// Median nanoseconds per call of `op`, timed in batches for `budget`.
fn time_row(budget: Duration, op: &mut dyn FnMut()) -> f64 {
    const CALLS: u32 = 256;
    for _ in 0..CALLS * 16 {
        op();
    }
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        let batch = Instant::now();
        for _ in 0..CALLS {
            op();
        }
        samples.push(batch.elapsed().as_nanos() as f64 / f64::from(CALLS));
    }
    median(&samples)
}

/// p50 of the uncontended loop's per-sample timing (clock read and
/// histogram record) around no operation, in nanoseconds.
fn timing_overhead_ns(run: Duration) -> f64 {
    let mut latency = Hist::new();
    let start = Instant::now();
    let mut prev = start;
    while prev - start < run {
        for _ in 0..BATCH {
            let now = Instant::now();
            latency.record(nanos(now - prev));
            prev = now;
        }
    }
    latency.quantile(0.5)
}

/// Passes the stack peel makes over its rows.  Rows and the reference pair
/// are timed side by side in every pass, so a change of machine speed
/// during the peel moves them together.
const PEEL_PASSES: u32 = 5;

/// One stack-peel row: its metric name and the operation it times.
type PeelRow<'a> = (&'static str, Box<dyn FnMut() + 'a>);

/// The uncontended stack peel.
pub struct Peel {
    /// `(metric name, ns per call)` in stack order, bottom first.
    pub rows: Vec<(&'static str, f64)>,
    /// p50 of the uncontended pair as the workload times it, minus the
    /// p50 of the same timing loop around no operation.
    pub pair_ns: f64,
    pub timing_ns: f64,
    pub checks: Vec<Check>,
}

/// Times one lock pair through ever thicker public entry points, each row
/// for `budget` in total, next to the uncontended loop itself.
#[must_use]
pub fn stack_peel(budget: Duration) -> Peel {
    let file = RegisterFile::with_mode(SLOTS, BOUND, OverflowPolicy::Panic, ScanMode::Packed);
    let stats = bakery_core::LockStats::new();
    let snapshot = PackedSnapshot::new(SLOTS, BOUND);
    snapshot.set_number(0, 1);
    let lock = BakeryPlusPlusLock::with_bound_mode_and_strategy(
        SLOTS,
        BOUND,
        ScanMode::Packed,
        Arc::new(Spin),
    );
    let slot = lock.register().expect("a fresh lock has free slots");
    let pid = slot.pid();
    let (rig, session) = build_uncontended();
    let park = WaitHandle::new(Arc::new(Park::new()));
    let site = park.release();
    let mut cx = Context::from_waker(Waker::noop());
    let pool = crate::echo::pool();

    let mut rows: Vec<PeelRow<'_>> = vec![
        (
            "core.registers.write_ns",
            Box::new(|| {
                file.write_choosing(0, true);
                let _ = file.write_number(0, 0, &stats);
                let _ = file.write_number(0, 1, &stats);
                file.write_choosing(0, false);
                let _ = file.write_number(0, 0, &stats);
            }),
        ),
        (
            "core.snapshot.scan_ns",
            Box::new(|| {
                black_box(snapshot.max_number());
                black_box(snapshot.has_other_contenders(0));
            }),
        ),
        (
            "core.bakery_pp.doorway_ns",
            Box::new(|| {
                black_box(lock.try_doorway(pid));
                lock.release(pid);
            }),
        ),
        (
            "core.bakery_pp.acquire_release_ns",
            Box::new(|| {
                lock.acquire(pid);
                lock.release(pid);
            }),
        ),
        ("core.raw.slot_lock_ns", Box::new(|| drop(lock.lock(&slot)))),
        ("core.session.lock_ns", Box::new(|| drop(session.lock()))),
        (
            "core.asession.lock_poll_ns",
            Box::new(|| {
                let mut future = std::pin::pin!(session.lock_async());
                match future.as_mut().poll(&mut cx) {
                    Poll::Ready(guard) => drop(guard),
                    Poll::Pending => {
                        panic!("an uncontended lock future resolves on its first poll")
                    }
                }
            }),
        ),
        (
            "core.session.attach_detach_ns",
            Box::new(|| drop(rig.plane.try_attach().expect("the plane has free seats"))),
        ),
        ("core.wait.park_notify_ns", Box::new(|| park.notify(site))),
        (
            "harness.executor.task_ns",
            Box::new(|| {
                pool.spawn(async {});
                pool.run_until_idle();
            }),
        ),
    ];

    let mut samples = vec![Vec::new(); rows.len()];
    let (mut pairs, mut clocks, mut checks) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PEEL_PASSES {
        for ((_, op), row) in rows.iter_mut().zip(&mut samples) {
            row.push(time_row(budget / PEEL_PASSES, op.as_mut()));
        }
        let reference = uncontended_loop::<false>(&session, budget / PEEL_PASSES);
        pairs.push(reference.latency.quantile(0.5));
        clocks.push(timing_overhead_ns(budget / PEEL_PASSES / 4));
        if checks.is_empty() || reference.checks.iter().any(|c| !c.ok) {
            checks.extend(reference.checks);
        }
    }
    let timing_ns = median(&clocks);
    Peel {
        rows: rows
            .iter()
            .zip(&samples)
            .map(|((name, _), row)| (*name, median(row)))
            .collect(),
        pair_ns: median(&pairs) - timing_ns,
        timing_ns,
        checks,
    }
}

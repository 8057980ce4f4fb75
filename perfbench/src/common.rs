//! Pieces every workload shares: the lock rig, the seeded input generator,
//! correctness checks, run outcomes and the watchdog's progress record.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bakery_core::wait::WaitStrategy;
use bakery_core::{
    BakeryPlusPlusLock, RawMutexAlgorithm, ScanMode, SessionPlane, DEFAULT_PP_BOUND,
};

use crate::hist::Hist;

/// Process slots of every lock the benchmark builds (E13's plane size).
pub const SLOTS: usize = 64;
/// Register bound `M` of every lock the benchmark builds.
pub const BOUND: u64 = DEFAULT_PP_BOUND;

/// A flat packed Bakery++ lock with a session plane over all its slots,
/// built with an explicit scan mode and wait strategy so no environment
/// variable can change what is measured.
pub struct Rig {
    pub lock: Arc<BakeryPlusPlusLock>,
    pub plane: Arc<SessionPlane>,
}

impl Rig {
    #[must_use]
    pub fn new(strategy: Arc<dyn WaitStrategy>) -> Self {
        let lock = Arc::new(BakeryPlusPlusLock::with_bound_mode_and_strategy(
            SLOTS,
            BOUND,
            ScanMode::Packed,
            strategy,
        ));
        let plane = SessionPlane::new(Arc::clone(&lock) as Arc<dyn RawMutexAlgorithm>);
        Self { lock, plane }
    }

    /// True when every `choosing`/`number` register reads zero (no process
    /// left in the doorway or holding a ticket).
    #[must_use]
    pub fn registers_idle(&self) -> bool {
        let file = self.lock.registers();
        (0..file.len()).all(|pid| !file.read_choosing(pid) && file.read_number(pid) == 0)
    }
}

/// SplitMix64: the benchmark's input generator.  The same seed gives the
/// same inputs on every machine.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `low..=high`.
    pub fn range(&mut self, low: u64, high: u64) -> u64 {
        low + self.next_u64() % (high - low + 1)
    }
}

/// One correctness check of a run.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, ok: bool, detail: impl Into<String>) -> Self {
        Self {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        }
    }

    /// `expected == actual`, with both in the detail.
    pub fn equal<T: PartialEq + std::fmt::Debug>(name: &str, expected: T, actual: T) -> Self {
        let ok = expected == actual;
        Self::new(name, ok, format!("expected {expected:?}, got {actual:?}"))
    }
}

/// Length of one round of an end-to-end run.  A run of `s` seconds is `s`
/// rounds, each on a freshly built rig; the run reports the median round,
/// so one noisy second or one unlucky memory layout cannot move a figure.
pub const ROUND: Duration = Duration::from_secs(1);

/// Set-ups timed before each round (or verdict); the round runs on the
/// last.  `setup_s` is the median over the whole run: spreading the
/// set-ups across the run keeps one slow second from setting the figure,
/// and the median skips the first build after a round, which pays for
/// heap regrowth.
pub const SETUPS: usize = 5;

/// Rounds in a run of length `run` (at least one).
#[must_use]
pub fn round_count(run: Duration) -> u32 {
    (run.as_secs_f64() / ROUND.as_secs_f64()).round().max(1.0) as u32
}

/// What one round of a histogram-timed workload measured and checked.
pub struct Round {
    pub ops: u64,
    pub ops_per_s: f64,
    /// Per-operation latency in nanoseconds.
    pub latency: Hist,
    /// Operations that failed a check (not counting failed checks).
    pub failed_ops: u64,
    pub checks: Vec<Check>,
}

/// What one untraced end-to-end run measured and checked.
pub struct Outcome {
    /// Operations attempted and the number that failed a check.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Set-up times of the run's repeated set-ups, in seconds.
    pub setups: Vec<f64>,
    /// Completed operations per second (median round).
    pub ops_per_s: f64,
    /// `VmHWM` when the first round (or verdict) ended, in MB.
    pub peak_rss_mb: f64,
    /// Latency p50 and tail in nanoseconds (median round).  The tail is p99
    /// when at least ten samples lie beyond it; see [`Hist::tail`].
    pub p50_ns: f64,
    pub tail_ns: f64,
    /// Sample count, p50, p99 and the highest resolved percentile of the
    /// whole run.
    pub latency_summary: String,
    /// The workload's own names for throughput, p50 and tail, with the unit
    /// and nanosecond scale the latency names use.
    pub names: OutcomeNames,
    /// Extra human-readable lines (counts, config details).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Folds the rounds of one run: medians for the figures, the merged
    /// histogram for the summary, and each check failing if any round's
    /// did.
    #[must_use]
    pub fn from_rounds(
        rounds: Vec<Round>,
        setups: Vec<f64>,
        peak_rss_mb: f64,
        names: OutcomeNames,
        notes: Vec<String>,
    ) -> Self {
        let pick = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let ops_per_s = pick(&|r| r.ops_per_s);
        let p50_ns = pick(&|r| r.latency.quantile(0.5));
        let tail_ns = pick(&|r| r.latency.tail());
        let mut merged = Hist::new();
        let mut checks: Vec<Check> = Vec::new();
        for round in &rounds {
            merged.merge(&round.latency);
            for check in &round.checks {
                match checks.iter_mut().find(|c| c.name == check.name) {
                    Some(seen) if seen.ok && !check.ok => *seen = check.clone(),
                    Some(_) => {}
                    None => checks.push(check.clone()),
                }
            }
        }
        let failed_checks: u64 = rounds
            .iter()
            .map(|r| r.checks.iter().filter(|c| !c.ok).count() as u64)
            .sum();
        Self {
            attempted: rounds.iter().map(|r| r.ops).sum::<u64>().max(1),
            failed: rounds.iter().map(|r| r.failed_ops).sum::<u64>() + failed_checks,
            checks,
            setups,
            ops_per_s,
            peak_rss_mb,
            p50_ns,
            tail_ns,
            latency_summary: format!(
                "{} ({} rounds)",
                merged.summary(names.latency_scale, names.latency_unit),
                rounds.len()
            ),
            names,
            notes,
        }
    }
}

/// The workload's own names for its three figures, as the human-readable
/// `metric` lines print them.
#[derive(Debug, Clone, Copy)]
pub struct OutcomeNames {
    pub ops: &'static str,
    pub p50: &'static str,
    pub tail: &'static str,
    pub latency_unit: &'static str,
    pub latency_scale: f64,
}

/// The `q`-quantile of `values`, interpolating linearly between order
/// statistics (0 when empty).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

/// Median of `values` (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Nanoseconds in `d`, saturating.
#[must_use]
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Builds `SETUPS` times, appending each build's seconds to `times`, and
/// returns the last build.
pub fn timed_setup<T>(times: &mut Vec<f64>, mut build: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let start = Instant::now();
        let built = build();
        times.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    last.expect("at least one set-up")
}

/// Live progress for the watchdog: completed operations and workers still
/// running.  Workers update it coarsely (start, every few thousand
/// operations, end), never per operation.
#[derive(Debug)]
pub struct Progress {
    state: Mutex<(u64, u64)>,
}

impl Progress {
    #[must_use]
    pub const fn new() -> Self {
        Self {
            state: Mutex::new((0, 0)),
        }
    }

    pub fn worker_started(&self) {
        self.state.lock().expect("progress lock poisoned").1 += 1;
    }

    pub fn add_ops(&self, ops: u64) {
        self.state.lock().expect("progress lock poisoned").0 += ops;
    }

    pub fn worker_done(&self, ops: u64) {
        let mut state = self.state.lock().expect("progress lock poisoned");
        state.0 += ops;
        state.1 = state.1.saturating_sub(1);
    }

    /// `(completed operations, live workers)`.
    #[must_use]
    pub fn snapshot(&self) -> (u64, u64) {
        *self.state.lock().expect("progress lock poisoned")
    }
}

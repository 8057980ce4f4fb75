//! The `closeout` workload: the exhaustive model check of Bakery++ (n = 3,
//! M = 3) under safe registers, with the paper invariants and orbit
//! compression — plus, for the ledger, a single-thread replay of the same
//! BFS driven only by the layers' public functions.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bakery_mc::code::{fnv1a, FNV_OFFSET_BASIS};
use bakery_mc::store::{stripe_of, Stripe, STRIPE_COUNT};
use bakery_mc::{Canonicalizer, ExplorationReport, ModelChecker, StateCode, StateCodec};
use bakery_sim::{Algorithm, Invariant, ProgState};
use bakery_spec::{BakeryPlusPlusSpec, RegisterSemantics};

use crate::common::{median, peak_rss_mb, quantile, timed_setup, Check, Outcome, OutcomeNames};
use crate::spans::SpanLog;
use crate::PROGRESS;

/// Processes and register bound of the checked instance: about a second
/// per verdict here, so a run holds enough verdicts for a steady median.
pub const PROCESSES: usize = 3;
pub const MC_BOUND: u64 = 3;
/// Checker threads of the timed verdicts.  One: side by side on a 2-vCPU
/// VM, 2-thread verdicts spread 32 % (IQR over median) against 13 % for
/// 1-thread ones, because every level barrier waits for the slower vCPU.
pub const THREADS: usize = 1;
/// Checker threads of the ledger's parallel run (`parallel_efficiency`).
const PARALLEL_THREADS: usize = 2;
/// State budget: far above the instance, so a complete run is never cut.
const MAX_STATES: usize = 20_000_000;
/// Frontier states per replay chunk (the explorer's claim size).
const CHUNK: usize = 1024;
/// Replay chunk spans kept.
const SPAN_CAP: usize = 20_000;

/// The close-out's exact results, pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pins {
    pub states: usize,
    pub orbits: usize,
    pub transitions: usize,
    pub depth: usize,
    pub digest: u64,
}

/// The pinned close-out of Bakery++ n = 3, M = 3 under safe registers
/// (the state count is also pinned by `crates/mc/tests/weak_registers.rs`).
pub const PINS: Pins = Pins {
    states: 353_145,
    orbits: 78_665,
    transitions: 1_042_556,
    depth: 104,
    digest: 0x88a2_19dd_ae01_43f9,
};

#[must_use]
pub fn spec() -> BakeryPlusPlusSpec {
    BakeryPlusPlusSpec::new(PROCESSES, MC_BOUND).with_semantics(RegisterSemantics::Safe)
}

fn pins_of(report: &ExplorationReport) -> Pins {
    Pins {
        states: report.states,
        orbits: report.canonical_states,
        transitions: report.transitions,
        depth: report.max_depth,
        digest: report.frontier_digest,
    }
}

/// The checks one verdict must pass.
fn verdict_checks(report: &ExplorationReport, pins: &Pins) -> Vec<Check> {
    vec![
        Check::new(
            "verdict_holds",
            report.holds(),
            format!("{} violations", report.violations.len()),
        ),
        Check::equal("not_truncated", false, report.truncated),
        Check::equal("pinned_counts_and_digest", *pins, pins_of(report)),
    ]
}

/// One timed `ModelChecker::run`.
#[must_use]
pub fn verdict(spec: &BakeryPlusPlusSpec, threads: usize) -> (ExplorationReport, Duration) {
    let start = Instant::now();
    let report = ModelChecker::new(spec)
        .with_paper_invariants()
        .with_symmetry_reduction(true)
        .with_max_states(MAX_STATES)
        .with_threads(threads)
        .run();
    (report, start.elapsed())
}

/// The untraced `closeout` workload: verdicts back to back until `run`
/// has elapsed (at least one).
pub fn closeout(run: Duration, pins: &Pins) -> Outcome {
    // Set-up: the spec, its codec and canonicalizer, and a configured
    // checker — everything built before the first state is explored.
    let build = || {
        let spec = spec();
        let codec = StateCodec::new(&spec);
        let group = spec.symmetry().expect("flat specs declare S_n");
        black_box(Canonicalizer::new(&codec, group));
        black_box(ModelChecker::new(&spec).with_paper_invariants());
        spec
    };
    let mut setups = Vec::new();
    PROGRESS.worker_started();
    let mut times = Vec::new();
    let mut checks = Vec::new();
    let mut failed = 0;
    let mut states = 0;
    let mut peak_rss = None;
    let start = Instant::now();
    while times.is_empty() || start.elapsed() < run {
        let spec = timed_setup(&mut setups, build);
        let (report, took) = verdict(&spec, THREADS);
        let verdict_checks = verdict_checks(&report, pins);
        if verdict_checks.iter().any(|c| !c.ok) {
            failed += 1;
        }
        checks.extend(
            verdict_checks
                .into_iter()
                .filter(|c| !c.ok || times.is_empty()),
        );
        states = report.states;
        times.push(took.as_secs_f64() * 1e9);
        PROGRESS.add_ops(1);
        // Later verdicts repeat the same work; what they add to the high
        // water mark is allocator fragmentation, not the verdict's memory.
        peak_rss = peak_rss.or_else(peak_rss_mb);
    }
    PROGRESS.worker_done(0);
    let p50 = median(&times);
    // A handful of verdicts cannot resolve a p99 (ten samples beyond it),
    // so the close-out's tail is its upper-quartile verdict.
    let upper = quantile(&times, 0.75);
    Outcome {
        attempted: times.len() as u64,
        failed,
        ops_per_s: states as f64 / (p50 / 1e9),
        peak_rss_mb: peak_rss.unwrap_or(0.0),
        notes: vec![format!(
            "closeout: bakery++ n={PROCESSES} M={MC_BOUND} safe registers, {THREADS} checker thread"
        )],
        p50_ns: p50,
        tail_ns: upper,
        latency_summary: format!(
            "n={} verdicts, p50 {:.3} s, p75 {:.3} s, max {:.3} s (too few for a p99: the tail is p75)",
            times.len(),
            p50 / 1e9,
            upper / 1e9,
            times.iter().copied().fold(0.0, f64::max) / 1e9
        ),
        checks,
        setups,
        names: OutcomeNames {
            ops: "closeout_states_per_s",
            p50: "verdict_s",
            tail: "verdict_p75_s",
            latency_unit: "s",
            latency_scale: 1e9,
        },
    }
}

/// Layer times of the replay, summed over the whole BFS.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    pub decode: Duration,
    pub canon: Duration,
    pub successors: Duration,
    pub intern: Duration,
    pub invariants: Duration,
    /// Side pass, not part of the BFS: one identity encode per successor.
    pub encode: Duration,
}

impl LayerTimes {
    /// The BFS's own layer time (the side encode pass excluded).
    #[must_use]
    pub fn bfs_total(&self) -> Duration {
        self.decode + self.canon + self.successors + self.intern + self.invariants
    }
}

/// What the replay found and how long each layer took.
pub struct Replay {
    pub found: Pins,
    pub violations: usize,
    pub deadlocks: usize,
    pub collisions: usize,
    pub bytes_per_state: usize,
    pub layers: LayerTimes,
    pub wall: Duration,
    pub chunks: u64,
    pub spans: SpanLog,
}

/// The order-independent digest contribution of one `(code, variant)`,
/// exactly as the explorer folds it.
fn state_hash(code: &StateCode, variant: u8) -> u64 {
    fnv1a(
        fnv1a(FNV_OFFSET_BASIS, code.as_slice()),
        &[u64::from(variant)],
    )
}

/// Visited set: 64 stripes of canonical codes plus a visited-variant bitmap
/// per orbit, keyed like the explorer's.
struct Visited {
    stripes: Vec<Stripe>,
    masks: Vec<Vec<u64>>,
    concrete: usize,
}

impl Visited {
    /// Records `(code, variant)`; true when the concrete state is new.
    fn insert(&mut self, code: &StateCode, variant: u8) -> bool {
        let stripe = stripe_of(code.fingerprint());
        let (orbit, new_orbit) = self.stripes[stripe].intern(code);
        if new_orbit {
            self.masks[stripe].push(0);
        }
        let mask = &mut self.masks[stripe][orbit as usize];
        let bit = 1u64 << variant;
        let fresh = *mask & bit == 0;
        *mask |= bit;
        self.concrete += usize::from(fresh);
        fresh
    }
}

/// A single-thread BFS over the close-out spec through the public layer
/// functions, timed per level chunk and per layer (never per state).
#[must_use]
pub fn replay(spec: &BakeryPlusPlusSpec) -> Replay {
    let started = Instant::now();
    let codec = StateCodec::new(spec);
    let canon = Canonicalizer::new(&codec, spec.symmetry().expect("flat specs declare S_n"));
    let invariants = [
        Invariant::mutual_exclusion(),
        Invariant::register_bounds_for(spec),
    ];
    let stride = codec.words_per_state();
    let mut visited = Visited {
        stripes: (0..STRIPE_COUNT).map(|_| Stripe::new(stride)).collect(),
        masks: vec![Vec::new(); STRIPE_COUNT],
        concrete: 0,
    };
    let mut layers = LayerTimes::default();
    let mut spans = SpanLog::new(started, SPAN_CAP);

    let initial = spec.initial_state();
    let (code, variant) = canon.factor(&codec, &initial);
    visited.insert(&code, variant);
    let mut violations = invariants
        .iter()
        .filter(|inv| !inv.holds(spec, &initial))
        .count();
    let mut digest = fnv1a(FNV_OFFSET_BASIS, &[state_hash(&code, variant), 1]);
    let mut frontier_words = code.as_slice().to_vec();
    let mut frontier_variants = vec![variant];

    let (mut transitions, mut deadlocks, mut depth, mut max_depth, mut chunks) = (0, 0, 0, 0, 0u64);
    let mut scratch = Vec::new();
    while !frontier_variants.is_empty() {
        let (mut level_sum, mut level_inserted) = (0u64, 0u64);
        let mut next_words = Vec::new();
        let mut next_variants = Vec::new();
        for (chunk_words, chunk_variants) in frontier_words
            .chunks(stride * CHUNK)
            .zip(frontier_variants.chunks(CHUNK))
        {
            let t0 = Instant::now();
            let reps: Vec<ProgState> = chunk_words
                .chunks(stride)
                .map(|words| codec.decode_words(words))
                .collect();
            let t1 = Instant::now();
            let states: Vec<ProgState> = reps
                .iter()
                .zip(chunk_variants)
                .map(|(rep, &variant)| canon.realize(rep, variant))
                .collect();
            let t2 = Instant::now();
            let mut successors = Vec::new();
            for state in &states {
                let before = successors.len();
                for pid in 0..spec.processes() {
                    scratch.clear();
                    spec.successors(state, pid, &mut scratch);
                    successors.append(&mut scratch);
                }
                deadlocks += usize::from(successors.len() == before);
            }
            let t3 = Instant::now();
            let factored: Vec<(StateCode, u8)> = successors
                .iter()
                .map(|next| canon.factor(&codec, next))
                .collect();
            let t4 = Instant::now();
            let mut fresh = Vec::new();
            for (index, (code, variant)) in factored.iter().enumerate() {
                if visited.insert(code, *variant) {
                    level_sum = level_sum.wrapping_add(state_hash(code, *variant));
                    level_inserted += 1;
                    next_words.extend_from_slice(code.as_slice());
                    next_variants.push(*variant);
                    fresh.push(index);
                }
            }
            let t5 = Instant::now();
            for &index in &fresh {
                violations += invariants
                    .iter()
                    .filter(|inv| !inv.holds(spec, &successors[index]))
                    .count();
            }
            let t6 = Instant::now();
            for next in &successors {
                black_box(codec.encode(next));
            }
            let t7 = Instant::now();

            transitions += successors.len();
            layers.decode += t1 - t0;
            layers.canon += (t2 - t1) + (t4 - t3);
            layers.successors += t3 - t2;
            layers.intern += t5 - t4;
            layers.invariants += t6 - t5;
            layers.encode += t7 - t6;
            let chunk = spans.record("chunk", chunks, None, t0, t6);
            if chunk.is_some() {
                for (name, from, to) in [
                    ("decode", t0, t1),
                    ("realize", t1, t2),
                    ("successors", t2, t3),
                    ("factor", t3, t4),
                    ("intern", t4, t5),
                    ("invariants", t5, t6),
                ] {
                    spans.record(name, chunks, chunk, from, to);
                }
            }
            chunks += 1;
        }
        max_depth = depth;
        if level_inserted > 0 {
            digest = fnv1a(digest, &[level_sum, level_inserted]);
        }
        frontier_words = next_words;
        frontier_variants = next_variants;
        depth += 1;
    }

    Replay {
        found: Pins {
            states: visited.concrete,
            orbits: visited.stripes.iter().map(Stripe::len).sum(),
            transitions,
            depth: max_depth,
            digest,
        },
        violations,
        deadlocks,
        collisions: visited.stripes.iter().map(Stripe::collision_count).sum(),
        bytes_per_state: codec.bytes_per_state(),
        layers,
        wall: started.elapsed() - layers.encode,
        chunks,
        spans,
    }
}

/// The close-out section of the ledger.
pub struct CloseoutLedger {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub checks: Vec<Check>,
    pub notes: Vec<String>,
    pub spans: SpanLog,
    /// `1 - replay states/s ÷ 1-thread checker states/s`.
    pub replay_overhead: f64,
}

/// 1-thread verdict, replay, 2-thread verdict, and the ledger built from
/// them.
#[must_use]
pub fn ledger(pins: &Pins) -> CloseoutLedger {
    let spec = spec();
    let (one, wall1) = verdict(&spec, 1);
    let replay = replay(&spec);
    let (two, wall2) = verdict(&spec, PARALLEL_THREADS);

    let states = replay.found.states as f64;
    let per_state = |d: Duration| d.as_nanos() as f64 / states;
    let layers = replay.layers;
    let layer_sum = layers.bfs_total();
    let engine_s = wall1.as_secs_f64() - layer_sum.as_secs_f64();
    let layer_rows = [
        ("spec.bakery_pp.successors_ns", per_state(layers.successors)),
        ("mc.code.decode_ns", per_state(layers.decode)),
        ("mc.code.encode_ns", per_state(layers.encode)),
        ("mc.canon.factor_ns", per_state(layers.canon)),
        ("mc.store.intern_ns", per_state(layers.intern)),
        ("sim.invariant.check_ns", per_state(layers.invariants)),
    ];
    let mut checks = verdict_checks(&one, pins);
    checks.extend(verdict_checks(&two, pins));
    checks.push(Check::equal(
        "replay_matches_checker",
        pins_of(&one),
        replay.found,
    ));
    checks.push(Check::equal("replay_violations", 0, replay.violations));
    checks.push(Check::equal("replay_deadlocks", 0, replay.deadlocks));
    // The ledger adds up: the BFS layers' per-state figures times the state
    // count, plus the engine remainder, give back the 1-thread wall.  The
    // remainder (frontier, parent links, level barriers, digest) is small
    // next to run-to-run noise, so it may read negative.
    let bfs_layers_s: f64 = layer_rows
        .iter()
        .filter(|(name, _)| *name != "mc.code.encode_ns")
        .map(|(_, ns)| ns * states / 1e9)
        .sum();
    let wall1_s = wall1.as_secs_f64();
    checks.push(Check::new(
        "ledger_sums_to_checker_wall",
        (bfs_layers_s + engine_s - wall1_s).abs() <= 1e-6 * wall1_s,
        format!(
            "layers {bfs_layers_s:.3} s + engine {engine_s:.3} s = 1-thread wall {wall1_s:.3} s"
        ),
    ));
    let mut metrics: Vec<(&'static str, f64, &'static str)> = layer_rows
        .iter()
        .map(|&(name, ns)| (name, ns, "ns"))
        .collect();
    metrics.extend([
        ("mc.explore.engine_s", engine_s, "s"),
        (
            "mc.explore.parallel_efficiency",
            wall1.as_secs_f64() / (PARALLEL_THREADS as f64 * wall2.as_secs_f64()),
            "ratio",
        ),
        (
            "mc.explore.dup_ratio",
            1.0 - (replay.found.states - 1) as f64 / replay.found.transitions as f64,
            "ratio",
        ),
        ("mc.store.collisions", replay.collisions as f64, "count"),
        (
            "mc.code.bytes_per_state",
            replay.bytes_per_state as f64,
            "B",
        ),
        (
            "mc.explore.states_per_s",
            two.states as f64 / wall2.as_secs_f64(),
            "1/s",
        ),
    ]);
    let notes = vec![format!(
        "closeout ledger: checker 1 thread {:.3} s, {PARALLEL_THREADS} threads {:.3} s; replay {:.3} s over \
         {} chunks (layers {:.3} s, side encode pass {:.3} s excluded)",
        wall1.as_secs_f64(),
        wall2.as_secs_f64(),
        replay.wall.as_secs_f64(),
        replay.chunks,
        layer_sum.as_secs_f64(),
        layers.encode.as_secs_f64()
    )];
    CloseoutLedger {
        metrics,
        checks,
        notes,
        spans: replay.spans,
        replay_overhead: 1.0 - wall1.as_secs_f64() / replay.wall.as_secs_f64(),
    }
}

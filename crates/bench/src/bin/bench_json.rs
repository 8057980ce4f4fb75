//! `bench-json` — the suite's machine-readable perf baseline.
//!
//! Runs the two timing experiments that gate the packed-snapshot work and
//! writes their results as JSON, establishing the first point of the perf
//! trajectory that later PRs extend:
//!
//! * **E6** (uncontended acquire/release latency): the packed classic Bakery
//!   and Bakery++ next to the all-`SeqCst` reference lock (`bakery-seqcst`)
//!   across a range of process counts;
//! * **E7** (contended throughput): the same three locks at 2 and 4 threads;
//! * **E11** (lock-service churn): sessions attached/detached through the
//!   session plane at a ≥ 64× client-to-slot ratio, flat vs tree vs the
//!   adaptive lock (whose flat→tree migration fires mid-run);
//! * **E13** (async echo service): 10⁵ async clients multiplexed as futures
//!   over a ≤ 64-slot plane, swept across the wait strategies
//!   (spin / yield / park), reporting sessions/sec and attach-latency
//!   percentiles;
//! * **E2** (parallel-explorer scaling): the exhaustive tree close-out at
//!   1 / 2 / 4 worker threads (quick: the 2-process placement), reporting
//!   states/sec, states/sec/core (work efficiency) and the memory ceiling —
//!   and asserting the counts and digest are thread-count invariant.
//!
//! ```text
//! bench-json [--quick] [--out-dir DIR]
//! ```
//!
//! Output files: `BENCH_e2.json`, `BENCH_e6.json`, `BENCH_e7.json`,
//! `BENCH_e11.json`, `BENCH_e12.json` and `BENCH_e13.json` in `--out-dir`
//! (default: the current directory).  The summary — including each packed
//! lock's improvement over the reference lock — is also printed as
//! Markdown-ish text.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::sync::Arc;

use bakery_baselines::SeqCstBakeryLock;
use bakery_core::{
    BakeryLock, BakeryPlusPlusLock, RawMutexAlgorithm, TreeBakery, DEFAULT_PP_BOUND,
};
use bakery_harness::experiments::e10_tree_scale::{flat_scan_words, ARITY as TREE_ARITY};
use bakery_harness::experiments::e11_lock_service::{run_service, service_locks, ServiceConfig};
use bakery_harness::workload::{measure_uncontended, run_workload, Workload};

/// Capacities the large-N tree sections sweep (the E10 sweep, kept in the
/// harness so the two reports can never drift apart).
const TREE_SIZES: [usize; 3] = bakery_harness::experiments::e10_tree_scale::SIZES;

/// One uncontended-latency measurement.
#[derive(Debug, Clone)]
struct E6Entry {
    algorithm: String,
    processes: usize,
    bound: u64,
    ns_per_acquire: f64,
    fast_path_hits: u64,
    overflow_attempts: u64,
}
bakery_json::json_object!(E6Entry {
    algorithm,
    processes,
    bound,
    ns_per_acquire,
    fast_path_hits,
    overflow_attempts,
});

/// One contended-throughput measurement.
#[derive(Debug, Clone)]
struct E7Entry {
    algorithm: String,
    threads: usize,
    bound: u64,
    acquisitions_per_sec: f64,
    p99_latency_ns: u64,
    fairness_ratio: f64,
    fast_path_hits: u64,
    overflow_attempts: u64,
}
bakery_json::json_object!(E7Entry {
    algorithm,
    threads,
    bound,
    acquisitions_per_sec,
    p99_latency_ns,
    fairness_ratio,
    fast_path_hits,
    overflow_attempts,
});

/// One packed lock against the reference lock in the same configuration.
#[derive(Debug, Clone)]
struct Comparison {
    algorithm: String,
    processes: usize,
    reference: f64,
    packed: f64,
    /// Positive = packed is better.  For E6 this is latency reduction, for
    /// E7 throughput gain, both in percent.
    improvement_pct: f64,
}
bakery_json::json_object!(Comparison {
    algorithm,
    processes,
    reference,
    packed,
    improvement_pct,
});

/// Aggregated statistics of one tree level after a measurement.
#[derive(Debug, Clone)]
struct TreeLevelStats {
    level: usize,
    nodes: usize,
    fast_path_hits: u64,
    doorway_waits: u64,
    l1_waits: u64,
    resets: u64,
    max_ticket: u64,
}
bakery_json::json_object!(TreeLevelStats {
    level,
    nodes,
    fast_path_hits,
    doorway_waits,
    l1_waits,
    resets,
    max_ticket,
});

/// One large-N uncontended measurement (flat packed Bakery++ or the tree).
#[derive(Debug, Clone)]
struct TreeE6Entry {
    algorithm: String,
    processes: usize,
    /// Tree arity K (0 for the flat baseline).
    arity: usize,
    /// Node levels on the acquisition path (1 for the flat baseline).
    levels: usize,
    ns_per_acquire: f64,
    /// Words one uncontended doorway pass scans — the sub-linearity metric.
    doorway_scan_words: usize,
    per_level: Vec<TreeLevelStats>,
    overflow_attempts: u64,
}
bakery_json::json_object!(TreeE6Entry {
    algorithm,
    processes,
    arity,
    levels,
    ns_per_acquire,
    doorway_scan_words,
    per_level,
    overflow_attempts,
});

/// Flat-vs-tree comparison at one capacity.
#[derive(Debug, Clone)]
struct TreeComparison {
    processes: usize,
    flat_ns: f64,
    tree_ns: f64,
    /// Positive = the tree is faster (latency reduction in percent).
    speedup_pct: f64,
    flat_scan_words: usize,
    tree_scan_words: usize,
}
bakery_json::json_object!(TreeComparison {
    processes,
    flat_ns,
    tree_ns,
    speedup_pct,
    flat_scan_words,
    tree_scan_words,
});

#[derive(Debug, Clone)]
struct E6Report {
    schema: String,
    experiment: String,
    quick: bool,
    entries: Vec<E6Entry>,
    /// Latency reduction of each packed lock vs the reference lock per
    /// (algorithm, processes).
    comparisons: Vec<Comparison>,
    /// Large-N section: flat packed Bakery++ vs the tree composite.
    tree_entries: Vec<TreeE6Entry>,
    tree_comparisons: Vec<TreeComparison>,
}
bakery_json::json_object!(E6Report {
    schema,
    experiment,
    quick,
    entries,
    comparisons,
    tree_entries,
    tree_comparisons,
});

/// One large-N contended measurement: a few live threads on a
/// large-capacity lock.
#[derive(Debug, Clone)]
struct TreeE7Entry {
    algorithm: String,
    capacity: usize,
    threads: usize,
    acquisitions_per_sec: f64,
    p99_latency_ns: u64,
    fast_path_hits: u64,
    resets: u64,
    /// Summed across *all* repetitions of this configuration (the other
    /// fields describe the best repetition), so the overflow gate in `main`
    /// sees every repetition, not just the retained one.
    overflow_attempts: u64,
    per_level: Vec<TreeLevelStats>,
}
bakery_json::json_object!(TreeE7Entry {
    algorithm,
    capacity,
    threads,
    acquisitions_per_sec,
    p99_latency_ns,
    fast_path_hits,
    resets,
    overflow_attempts,
    per_level,
});

/// Flat-vs-tree contended comparison at one capacity (median of paired
/// per-repetition throughput ratios, as in the E7 main section).
#[derive(Debug, Clone)]
struct TreeThroughputComparison {
    capacity: usize,
    threads: usize,
    flat_acq_per_sec: f64,
    tree_acq_per_sec: f64,
    /// Positive = the tree is faster (throughput gain in percent).
    gain_pct: f64,
}
bakery_json::json_object!(TreeThroughputComparison {
    capacity,
    threads,
    flat_acq_per_sec,
    tree_acq_per_sec,
    gain_pct,
});

#[derive(Debug, Clone)]
struct E7Report {
    schema: String,
    experiment: String,
    quick: bool,
    /// Logical CPUs available during the run.  With fewer CPUs than worker
    /// threads the numbers measure scheduling as much as the lock, so
    /// cross-machine comparisons should check this field first.
    cpus: usize,
    /// Repetitions per configuration; each entry is the best of these.
    repetitions: usize,
    entries: Vec<E7Entry>,
    /// Throughput gain of each packed lock vs the reference lock per
    /// (algorithm, threads).
    comparisons: Vec<Comparison>,
    /// Large-N section: 4 live threads on 256/512/1024-capacity locks.
    tree_entries: Vec<TreeE7Entry>,
    tree_comparisons: Vec<TreeThroughputComparison>,
}
bakery_json::json_object!(E7Report {
    schema,
    experiment,
    quick,
    cpus,
    repetitions,
    entries,
    comparisons,
    tree_entries,
    tree_comparisons,
});

/// One E2 scaling measurement: the exhaustive scaling configuration at one
/// worker-thread count.
#[derive(Debug, Clone)]
struct E2Entry {
    configuration: String,
    threads: usize,
    wall_s: f64,
    states: usize,
    canonical_states: usize,
    transitions: usize,
    max_depth: usize,
    frontier_digest: u64,
    states_per_sec: f64,
    states_per_sec_per_core: f64,
    store_bytes: usize,
    peak_rss_bytes: usize,
}
bakery_json::json_object!(E2Entry {
    configuration,
    threads,
    wall_s,
    states,
    canonical_states,
    transitions,
    max_depth,
    frontier_digest,
    states_per_sec,
    states_per_sec_per_core,
    store_bytes,
    peak_rss_bytes,
});

/// One atomic-vs-safe register-semantics comparison row: the same
/// configuration explored exhaustively under both register models.
#[derive(Debug, Clone)]
struct E2SemanticsEntry {
    algorithm: String,
    n: usize,
    bound: u64,
    atomic_states: usize,
    safe_states: usize,
    blowup: f64,
    complete: bool,
}
bakery_json::json_object!(E2SemanticsEntry {
    algorithm,
    n,
    bound,
    atomic_states,
    safe_states,
    blowup,
    complete,
});

#[derive(Debug, Clone)]
struct E2Report {
    schema: String,
    experiment: String,
    quick: bool,
    /// Logical CPUs available during the run: with fewer CPUs than worker
    /// threads the multi-thread rows measure scheduling, not scaling, and
    /// only the work-efficiency (states/sec/core at 1 thread vs the
    /// sequential trajectory) is meaningful.
    cpus: usize,
    entries: Vec<E2Entry>,
    /// Atomic vs safe (flickering) register state-space sizes for the
    /// n = 2 / n = 3 close-outs (the weak-register plane's E2 column).
    semantics: Vec<E2SemanticsEntry>,
}
bakery_json::json_object!(E2Report {
    schema,
    experiment,
    quick,
    cpus,
    entries,
    semantics,
});

fn run_e2(quick: bool) -> E2Report {
    use bakery_harness::experiments::e2_model_check::{scaling_row, semantics_rows};
    let mut entries = Vec::new();
    for threads in [1usize, 2, 4] {
        eprintln!("bench-json: E2 scaling run at {threads} thread(s)...");
        let row = scaling_row(quick, threads);
        entries.push(E2Entry {
            configuration: row.configuration,
            threads: row.threads,
            wall_s: row.wall_s,
            states: row.states,
            canonical_states: row.canonical_states,
            transitions: row.transitions,
            max_depth: row.max_depth,
            frontier_digest: row.frontier_digest,
            states_per_sec: row.states_per_sec,
            states_per_sec_per_core: row.states_per_sec_per_core,
            store_bytes: row.store_bytes,
            peak_rss_bytes: row.peak_rss_bytes,
        });
    }
    // The determinism gate: every row explored the same space and must have
    // found bit-identical counts and digest.
    let first = &entries[0];
    for row in &entries[1..] {
        assert_eq!(
            (row.states, row.canonical_states, row.transitions, row.max_depth, row.frontier_digest),
            (
                first.states,
                first.canonical_states,
                first.transitions,
                first.max_depth,
                first.frontier_digest
            ),
            "E2: exploration results must be thread-count invariant"
        );
    }
    eprintln!("bench-json: E2 atomic-vs-safe register semantics rows...");
    let semantics = semantics_rows(quick)
        .into_iter()
        .map(|row| E2SemanticsEntry {
            algorithm: row.algorithm,
            n: row.n,
            bound: row.bound,
            atomic_states: row.atomic_states,
            safe_states: row.safe_states,
            blowup: row.blowup,
            complete: row.complete,
        })
        .collect();
    E2Report {
        schema: "bakery-bench/e2/v2".to_string(),
        experiment: "E2 parallel-explorer scaling: exhaustive BFS states/sec by thread count"
            .to_string(),
        quick,
        cpus: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        entries,
        semantics,
    }
}

/// Name of the all-`SeqCst` reference lock the packed locks are compared with.
const REFERENCE: &str = "bakery-seqcst";

/// The locks E6/E7 time at `n` processes: the reference lock first, then the
/// packed classic Bakery and Bakery++.
fn bakery_locks(n: usize, bound: u64) -> Vec<(String, Arc<dyn RawMutexAlgorithm>)> {
    vec![
        (REFERENCE.to_string(), Arc::new(SeqCstBakeryLock::new(n))),
        ("bakery".to_string(), Arc::new(BakeryLock::new(n))),
        (
            "bakery++".to_string(),
            Arc::new(BakeryPlusPlusLock::with_bound(n, bound)),
        ),
    ]
}

fn run_e6(quick: bool) -> E6Report {
    let (iterations, samples) = if quick { (20_000, 5) } else { (100_000, 9) };
    let bound = DEFAULT_PP_BOUND;
    let mut entries = Vec::new();
    for &n in &[4usize, 32, 128] {
        for (name, lock) in bakery_locks(n, bound) {
            let ns = measure_uncontended(lock.as_ref(), iterations, samples);
            let stats = lock.stats().snapshot();
            entries.push(E6Entry {
                algorithm: name,
                processes: n,
                // Per-lock: classic bakery and the reference run unbounded.
                bound: lock.register_bound().unwrap_or(u64::MAX),
                ns_per_acquire: ns,
                fast_path_hits: stats.fast_path_hits,
                overflow_attempts: stats.overflow_attempts,
            });
        }
    }
    let comparisons = comparisons_of(
        &entries,
        |e| (e.algorithm.clone(), e.processes, e.ns_per_acquire),
        // Latency: improvement = reduction.
        |reference, packed| (reference - packed) / reference * 100.0,
    );
    let (tree_entries, tree_comparisons) = run_e6_tree(quick);
    E6Report {
        schema: "bakery-bench/e6/v3".to_string(),
        experiment: "E6 uncontended acquire/release latency".to_string(),
        quick,
        entries,
        comparisons,
        tree_entries,
        tree_comparisons,
    }
}

/// Aggregates one tree's per-level statistics.
fn tree_level_stats(tree: &TreeBakery) -> Vec<TreeLevelStats> {
    (0..tree.depth())
        .map(|level| {
            let s = tree.level_snapshot(level);
            TreeLevelStats {
                level,
                nodes: tree.nodes_at(level),
                fast_path_hits: s.fast_path_hits,
                doorway_waits: s.doorway_waits,
                l1_waits: s.l1_waits,
                resets: s.resets,
                max_ticket: s.max_ticket,
            }
        })
        .collect()
}

/// The large-N uncontended section: flat packed Bakery++ vs the 8-ary tree
/// at N = 256 / 512 / 1024.  The acceptance metric is `doorway_scan_words`:
/// the flat figure is linear in N, the tree's grows with `K·log_K N`.
fn run_e6_tree(quick: bool) -> (Vec<TreeE6Entry>, Vec<TreeComparison>) {
    let (iterations, samples) = if quick { (5_000, 3) } else { (50_000, 7) };
    let mut entries = Vec::new();
    let mut comparisons = Vec::new();
    for &n in &TREE_SIZES {
        let flat = BakeryPlusPlusLock::with_bound(n, DEFAULT_PP_BOUND);
        let flat_ns = measure_uncontended(&flat, iterations, samples);
        let flat_words = flat_scan_words(n);
        entries.push(TreeE6Entry {
            algorithm: "bakery++-flat".to_string(),
            processes: n,
            arity: 0,
            levels: 1,
            ns_per_acquire: flat_ns,
            doorway_scan_words: flat_words,
            per_level: Vec::new(),
            overflow_attempts: flat.stats().overflow_attempts(),
        });

        let tree = TreeBakery::with_arity(n, TREE_ARITY);
        let tree_ns = measure_uncontended(&tree, iterations, samples);
        let tree_words = tree.doorway_scan_words();
        entries.push(TreeE6Entry {
            algorithm: "tree-bakery".to_string(),
            processes: n,
            arity: TREE_ARITY,
            levels: tree.depth(),
            ns_per_acquire: tree_ns,
            doorway_scan_words: tree_words,
            per_level: tree_level_stats(&tree),
            overflow_attempts: tree.aggregate_snapshot().overflow_attempts,
        });

        comparisons.push(TreeComparison {
            processes: n,
            flat_ns,
            tree_ns,
            speedup_pct: (flat_ns - tree_ns) / flat_ns * 100.0,
            flat_scan_words: flat_words,
            tree_scan_words: tree_words,
        });
    }
    (entries, comparisons)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values[values.len() / 2]
}

fn run_e7(quick: bool) -> E7Report {
    let bound = DEFAULT_PP_BOUND;
    let repetitions = if quick { 7 } else { 21 };
    let mut entries = Vec::new();
    let mut comparisons = Vec::new();
    for &threads in &[2usize, 4] {
        // Paired A/B design: each repetition runs the reference and both
        // packed locks back to back on fresh locks, and each improvement is
        // the median of the per-repetition ratios to the reference.  On a
        // machine with fewer CPUs than workers (often a single shared CPU
        // here) whole runs drift between a fast serial-burst regime and a
        // slow context-switch-bound regime; pairing cancels that drift where
        // an unpaired best-of-k cannot.
        let mut throughput: Vec<Vec<f64>> = vec![Vec::new(); 3];
        let mut best: Vec<Option<E7Entry>> = vec![None; 3];
        for _ in 0..repetitions {
            for (slot, (name, lock)) in bakery_locks(threads, bound).into_iter().enumerate() {
                let workload = Workload {
                    threads,
                    iterations_per_thread: if quick { 1_000 } else { 4_000 },
                    critical_section_work: 16,
                    think_work: 16,
                };
                let result = run_workload(Arc::clone(&lock), &workload);
                throughput[slot].push(result.throughput());
                let entry = E7Entry {
                    algorithm: name,
                    threads,
                    bound: lock.register_bound().unwrap_or(u64::MAX),
                    acquisitions_per_sec: result.throughput(),
                    p99_latency_ns: result.latency.quantile_ns(0.99),
                    fairness_ratio: result.fairness_ratio(),
                    fast_path_hits: result.fast_path_hits,
                    overflow_attempts: result.overflow_attempts,
                };
                let better = best[slot]
                    .as_ref()
                    .is_none_or(|b| entry.acquisitions_per_sec > b.acquisitions_per_sec);
                if better {
                    best[slot] = Some(entry);
                }
            }
        }
        let reference = median(&mut throughput[0].clone());
        for slot in 1..throughput.len() {
            let mut ratios: Vec<f64> = throughput[slot]
                .iter()
                .zip(&throughput[0])
                .map(|(p, r)| p / r)
                .collect();
            let best = best[slot].as_ref().expect("at least one repetition");
            comparisons.push(Comparison {
                algorithm: best.algorithm.clone(),
                processes: threads,
                reference,
                packed: median(&mut throughput[slot].clone()),
                improvement_pct: (median(&mut ratios) - 1.0) * 100.0,
            });
        }
        entries.extend(best.into_iter().flatten());
    }
    let (tree_entries, tree_comparisons) = run_e7_tree(quick);
    E7Report {
        schema: "bakery-bench/e7/v3".to_string(),
        experiment: "E7 contended throughput".to_string(),
        quick,
        cpus: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        repetitions,
        entries,
        comparisons,
        tree_entries,
        tree_comparisons,
    }
}

/// The large-N contended section: 4 live threads on 256/512/1024-capacity
/// locks, flat packed Bakery++ vs the 8-ary tree.  Paired A/B repetitions
/// with a median-of-ratios gain, as in the main E7 section.
fn run_e7_tree(quick: bool) -> (Vec<TreeE7Entry>, Vec<TreeThroughputComparison>) {
    let threads = 4;
    let repetitions = if quick { 3 } else { 7 };
    let mut entries = Vec::new();
    let mut comparisons = Vec::new();
    for &n in &TREE_SIZES {
        let workload = Workload {
            threads,
            iterations_per_thread: if quick { 500 } else { 2_000 },
            critical_section_work: 16,
            think_work: 16,
        };
        let mut ratios: Vec<f64> = Vec::with_capacity(repetitions);
        let mut flat_thr: Vec<f64> = Vec::with_capacity(repetitions);
        let mut tree_thr: Vec<f64> = Vec::with_capacity(repetitions);
        let mut best: [Option<TreeE7Entry>; 2] = [None, None];
        let mut overflow_sums = [0u64; 2];
        for _ in 0..repetitions {
            let flat: Arc<dyn RawMutexAlgorithm> =
                Arc::new(BakeryPlusPlusLock::with_bound(n, DEFAULT_PP_BOUND));
            let flat_result = run_workload(Arc::clone(&flat), &workload);
            let flat_entry = TreeE7Entry {
                algorithm: "bakery++-flat".to_string(),
                capacity: n,
                threads,
                acquisitions_per_sec: flat_result.throughput(),
                p99_latency_ns: flat_result.latency.quantile_ns(0.99),
                fast_path_hits: flat_result.fast_path_hits,
                resets: flat_result.resets,
                overflow_attempts: flat_result.overflow_attempts,
                per_level: Vec::new(),
            };

            let tree = Arc::new(TreeBakery::with_arity(n, TREE_ARITY));
            let tree_result = run_workload(
                Arc::clone(&tree) as Arc<dyn RawMutexAlgorithm>,
                &workload,
            );
            let aggregate = tree.aggregate_snapshot();
            let tree_entry = TreeE7Entry {
                algorithm: "tree-bakery".to_string(),
                capacity: n,
                threads,
                acquisitions_per_sec: tree_result.throughput(),
                p99_latency_ns: tree_result.latency.quantile_ns(0.99),
                fast_path_hits: aggregate.fast_path_hits,
                resets: aggregate.resets,
                overflow_attempts: aggregate.overflow_attempts,
                per_level: tree_level_stats(&tree),
            };

            ratios.push(tree_entry.acquisitions_per_sec / flat_entry.acquisitions_per_sec);
            flat_thr.push(flat_entry.acquisitions_per_sec);
            tree_thr.push(tree_entry.acquisitions_per_sec);
            for (slot, entry) in [flat_entry, tree_entry].into_iter().enumerate() {
                overflow_sums[slot] += entry.overflow_attempts;
                let better = best[slot]
                    .as_ref()
                    .is_none_or(|b| entry.acquisitions_per_sec > b.acquisitions_per_sec);
                if better {
                    best[slot] = Some(entry);
                }
            }
        }
        // The retained entry carries the overflow total of every repetition,
        // so discarding a slow-but-overflowing repetition cannot hide it.
        for (slot, entry) in best.iter_mut().enumerate() {
            if let Some(entry) = entry {
                entry.overflow_attempts = overflow_sums[slot];
            }
        }
        let median_ratio = median(&mut ratios);
        comparisons.push(TreeThroughputComparison {
            capacity: n,
            threads,
            flat_acq_per_sec: median(&mut flat_thr),
            tree_acq_per_sec: median(&mut tree_thr),
            gain_pct: (median_ratio - 1.0) * 100.0,
        });
        entries.extend(best.into_iter().flatten());
    }
    (entries, comparisons)
}

/// Pairs each packed lock's measurement with the reference lock's at the
/// same size and computes the improvement percentage.
fn comparisons_of<E>(
    entries: &[E],
    key: impl Fn(&E) -> (String, usize, f64),
    improvement: impl Fn(f64, f64) -> f64,
) -> Vec<Comparison> {
    let keyed: Vec<(String, usize, f64)> = entries.iter().map(key).collect();
    keyed
        .iter()
        .filter(|(algorithm, _, _)| algorithm != REFERENCE)
        .filter_map(|(algorithm, size, packed)| {
            let (_, _, reference) = keyed.iter().find(|(a, s, _)| a == REFERENCE && s == size)?;
            Some(Comparison {
                algorithm: algorithm.clone(),
                processes: *size,
                reference: *reference,
                packed: *packed,
                improvement_pct: improvement(*reference, *packed),
            })
        })
        .collect()
}

fn print_comparisons(title: &str, unit: &str, comparisons: &[Comparison]) {
    println!("\n## {title}");
    println!("| algorithm | size | {REFERENCE} {unit} | packed {unit} | improvement |");
    println!("|---|---|---|---|---|");
    for c in comparisons {
        println!(
            "| {} | {} | {:.1} | {:.1} | {:+.1}% |",
            c.algorithm, c.processes, c.reference, c.packed, c.improvement_pct
        );
    }
}

/// One lock-service churn measurement (experiment E11, round-trip schedule:
/// rush → churn → subside).
#[derive(Debug, Clone)]
struct E11Entry {
    algorithm: String,
    slots: usize,
    clients: usize,
    subside_clients: usize,
    cs_per_session: u64,
    sessions_per_sec: f64,
    cs_per_sec: f64,
    attaches: u64,
    detaches: u64,
    aliasing_violations: u64,
    fast_path_hits: u64,
    migrations_forward: u64,
    migrations_reverse: u64,
    crash_aborts: u64,
    seat_recoveries: u64,
    round_trip: bool,
}
bakery_json::json_object!(E11Entry {
    algorithm,
    slots,
    clients,
    subside_clients,
    cs_per_session,
    sessions_per_sec,
    cs_per_sec,
    attaches,
    detaches,
    aliasing_violations,
    fast_path_hits,
    migrations_forward,
    migrations_reverse,
    crash_aborts,
    seat_recoveries,
    round_trip,
});

#[derive(Debug, Clone)]
struct E11Report {
    schema: String,
    experiment: String,
    quick: bool,
    oversubscription: usize,
    entries: Vec<E11Entry>,
}
bakery_json::json_object!(E11Report {
    schema,
    experiment,
    quick,
    oversubscription,
    entries,
});

fn run_e11(quick: bool) -> E11Report {
    let config = ServiceConfig::standard(quick);
    let mut entries = Vec::new();
    for (lock, adaptive) in service_locks(&config) {
        let algorithm = lock.algorithm_name().to_string();
        let result = run_service(lock, &config, adaptive.as_ref());
        assert_eq!(
            result.aliasing_violations, 0,
            "{algorithm}: the session plane must never alias a slot"
        );
        if result.final_phase.is_some() {
            assert_eq!(
                (result.migrations_forward, result.migrations_reverse),
                (1, 1),
                "{algorithm}: the churn-then-subside schedule must round-trip exactly once"
            );
        }
        entries.push(E11Entry {
            algorithm,
            slots: config.slots,
            clients: config.clients,
            subside_clients: config.subside_clients,
            cs_per_session: config.cs_per_session,
            sessions_per_sec: result.sessions_per_sec(),
            cs_per_sec: result.cs_per_sec(),
            attaches: result.attaches,
            detaches: result.detaches,
            aliasing_violations: result.aliasing_violations,
            fast_path_hits: result.fast_path_hits,
            migrations_forward: result.migrations_forward,
            migrations_reverse: result.migrations_reverse,
            crash_aborts: result.crash_aborts,
            seat_recoveries: result.seat_recoveries,
            round_trip: result.final_phase == Some(bakery_core::adaptive::EPOCH_FLAT)
                && result.migrations_forward == 1
                && result.migrations_reverse == 1,
        });
    }
    E11Report {
        // v3: carries the crash-recovery counters (crash_aborts /
        // seat_recoveries) introduced with the E12 kill-and-recover plane.
        schema: "bakery-bench/e11/v3".to_string(),
        experiment: "E11 lock-service session churn with round-trip subside".to_string(),
        quick,
        oversubscription: config.oversubscription(),
        entries,
    }
}

/// One kill-and-recover measurement (experiment E12): E11's churn with
/// crashes injected on a fixed schedule at one swept rate.
#[derive(Debug, Clone)]
struct E12Entry {
    algorithm: String,
    /// `0` = the crash-free baseline, otherwise every `crash_period`-th
    /// client of a round is killed.
    crash_period: u64,
    completed_sessions: u64,
    injected_crashes: u64,
    cs_crashes: u64,
    cs_per_sec: f64,
    /// Throughput delta vs the same lock's crash-free baseline, percent
    /// (0 for the baseline row itself).
    vs_crash_free_pct: f64,
    recycled_idle: u64,
    quarantined: u64,
    refused: u64,
    crash_aborts: u64,
    seat_recoveries: u64,
    aliasing_violations: u64,
    recovery_ns_mean: f64,
    recovery_ns_max: u64,
    waiter_blocked_ns_mean: f64,
    waiter_blocked_ns_max: u64,
}
bakery_json::json_object!(E12Entry {
    algorithm,
    crash_period,
    completed_sessions,
    injected_crashes,
    cs_crashes,
    cs_per_sec,
    vs_crash_free_pct,
    recycled_idle,
    quarantined,
    refused,
    crash_aborts,
    seat_recoveries,
    aliasing_violations,
    recovery_ns_mean,
    recovery_ns_max,
    waiter_blocked_ns_mean,
    waiter_blocked_ns_max,
});

/// One raw ticket-holder probe measurement (E12's `l2`/`l3` crash sites).
#[derive(Debug, Clone)]
struct E12ProbeEntry {
    site: String,
    samples: u64,
    recovery_ns_mean: f64,
    recovery_ns_max: u64,
}
bakery_json::json_object!(E12ProbeEntry {
    site,
    samples,
    recovery_ns_mean,
    recovery_ns_max,
});

#[derive(Debug, Clone)]
struct E12Report {
    schema: String,
    experiment: String,
    quick: bool,
    entries: Vec<E12Entry>,
    probe: Vec<E12ProbeEntry>,
}
bakery_json::json_object!(E12Report {
    schema,
    experiment,
    quick,
    entries,
    probe,
});

fn run_e12(quick: bool) -> E12Report {
    use bakery_harness::experiments::e12_kill_recover::{
        kill_locks, run_kill, run_probe, CrashSite, KillConfig,
    };
    let slots = KillConfig::standard(quick, None).slots;
    let mut entries = Vec::new();
    for which in 0..kill_locks(slots).len() {
        let mut baseline = 0.0_f64;
        for period in KillConfig::swept_periods() {
            // Killed clients leak their plane by design, so every run gets
            // a fresh lock (see `kill_locks`).
            let lock = kill_locks(slots).swap_remove(which);
            let config = KillConfig::standard(quick, period);
            let result = run_kill(lock, &config);
            assert_eq!(
                result.aliasing_violations, 0,
                "{}: crash recovery must never alias a seat",
                result.algorithm
            );
            assert_eq!(
                result.seat_recoveries,
                result.injected_crashes + result.cs_crashes,
                "{}: every injected crash must be recovered",
                result.algorithm
            );
            let cs_per_sec = result.cs_per_sec();
            let vs_crash_free_pct = if period.is_none() {
                baseline = cs_per_sec;
                0.0
            } else if baseline > 0.0 {
                (cs_per_sec - baseline) / baseline * 100.0
            } else {
                0.0
            };
            entries.push(E12Entry {
                algorithm: result.algorithm.clone(),
                crash_period: period.unwrap_or(0) as u64,
                completed_sessions: result.completed_sessions,
                injected_crashes: result.injected_crashes,
                cs_crashes: result.cs_crashes,
                cs_per_sec,
                vs_crash_free_pct,
                recycled_idle: result.recycled_idle,
                quarantined: result.quarantined,
                refused: result.refused,
                crash_aborts: result.crash_aborts,
                seat_recoveries: result.seat_recoveries,
                aliasing_violations: result.aliasing_violations,
                recovery_ns_mean: result.recovery.mean_ns(),
                recovery_ns_max: result.recovery.max_ns(),
                waiter_blocked_ns_mean: result.waiter_blocked.mean_ns(),
                waiter_blocked_ns_max: result.waiter_blocked.max_ns(),
            });
        }
    }
    let samples = if quick { 8 } else { 32 };
    let mut probe = Vec::new();
    for site in [CrashSite::L2, CrashSite::L3] {
        let result = run_probe(site, samples);
        probe.push(E12ProbeEntry {
            site: result.site.name().to_string(),
            samples: result.recovery.len() as u64,
            recovery_ns_mean: result.recovery.mean_ns(),
            recovery_ns_max: result.recovery.max_ns(),
        });
    }
    E12Report {
        schema: "bakery-bench/e12/v2".to_string(),
        experiment: "E12 kill-and-recover: crash injection over the live lock stack".to_string(),
        quick,
        entries,
        probe,
    }
}

/// One async-echo measurement (experiment E13): the churn under one wait
/// strategy.
#[derive(Debug, Clone)]
struct E13Entry {
    strategy: String,
    slots: usize,
    clients: usize,
    connections: usize,
    echoes_per_client: u64,
    executor_workers: usize,
    sessions_per_sec: f64,
    echoes_per_sec: f64,
    attach_p50_ns: u64,
    attach_p99_ns: u64,
    attach_max_ns: u64,
    attach_mean_ns: f64,
    parks: u64,
    notifies: u64,
    park_timeouts: u64,
    aliasing_violations: u64,
}
bakery_json::json_object!(E13Entry {
    strategy,
    slots,
    clients,
    connections,
    echoes_per_client,
    executor_workers,
    sessions_per_sec,
    echoes_per_sec,
    attach_p50_ns,
    attach_p99_ns,
    attach_max_ns,
    attach_mean_ns,
    parks,
    notifies,
    park_timeouts,
    aliasing_violations,
});

#[derive(Debug, Clone)]
struct E13Report {
    schema: String,
    experiment: String,
    quick: bool,
    cpus: usize,
    /// Concurrent connection futures per plane slot.
    oversubscription: usize,
    entries: Vec<E13Entry>,
}
bakery_json::json_object!(E13Report {
    schema,
    experiment,
    quick,
    cpus,
    oversubscription,
    entries,
});

fn run_e13(quick: bool) -> E13Report {
    use bakery_harness::experiments::e13_async_echo::{run_echo, EchoConfig, STRATEGIES};
    let config = EchoConfig::standard(quick);
    let mut entries = Vec::new();
    for strategy in STRATEGIES {
        let result = run_echo(strategy, &config);
        assert_eq!(
            result.aliasing_violations, 0,
            "{strategy}: the async session plane must never alias a seat"
        );
        assert_eq!(
            result.completed_sessions, config.clients as u64,
            "{strategy}: every async client must complete"
        );
        entries.push(E13Entry {
            strategy: result.strategy.clone(),
            slots: config.slots,
            clients: config.clients,
            connections: config.connections,
            echoes_per_client: config.echoes_per_client,
            executor_workers: config.workers,
            sessions_per_sec: result.sessions_per_sec(),
            echoes_per_sec: result.echoes_per_sec(),
            attach_p50_ns: result.attach_latency.quantile_ns(0.5),
            attach_p99_ns: result.attach_latency.quantile_ns(0.99),
            attach_max_ns: result.attach_latency.max_ns(),
            attach_mean_ns: result.attach_latency.mean_ns() as f64,
            parks: result.parks,
            notifies: result.notifies,
            park_timeouts: result.park_timeouts,
            aliasing_violations: result.aliasing_violations,
        });
    }
    E13Report {
        schema: "bakery-bench/e13/v1".to_string(),
        experiment: "E13 async echo service: wait-strategy sweep over the session plane"
            .to_string(),
        quick,
        cpus: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        oversubscription: config.oversubscription(),
        entries,
    }
}

/// The experiment keys `--only` accepts, in run order.
const SECTIONS: [&str; 6] = ["e2", "e6", "e7", "e11", "e12", "e13"];

fn main() -> ExitCode {
    let mut quick = false;
    let mut out_dir = ".".to_string();
    let mut only: Option<Vec<String>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--out-dir" => match args.next() {
                Some(dir) => out_dir = dir,
                None => {
                    eprintln!("--out-dir requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--only" => match args.next() {
                Some(list) => {
                    let keys: Vec<String> = list
                        .split(',')
                        .map(|k| k.trim().to_ascii_lowercase())
                        .filter(|k| !k.is_empty())
                        .collect();
                    if let Some(bad) = keys.iter().find(|k| !SECTIONS.contains(&k.as_str())) {
                        eprintln!("--only: unknown experiment {bad:?} (expected one of {SECTIONS:?})");
                        return ExitCode::FAILURE;
                    }
                    only = Some(keys);
                }
                None => {
                    eprintln!("--only requires a comma-separated experiment list, e.g. e6,e13");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("usage: bench-json [--quick] [--out-dir DIR] [--only e2,e6,e7,e11,e12,e13]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    let want = |key: &str| only.as_ref().is_none_or(|keys| keys.iter().any(|k| k == key));

    let e2 = want("e2").then(|| {
        eprintln!("bench-json: measuring E2 (parallel-explorer scaling)...");
        run_e2(quick)
    });
    let e6 = want("e6").then(|| {
        eprintln!("bench-json: measuring E6 (uncontended latency)...");
        run_e6(quick)
    });
    let e7 = want("e7").then(|| {
        eprintln!("bench-json: measuring E7 (contended throughput)...");
        run_e7(quick)
    });
    let e11 = want("e11").then(|| {
        eprintln!("bench-json: measuring E11 (lock-service churn)...");
        run_e11(quick)
    });
    let e12 = want("e12").then(|| {
        eprintln!("bench-json: measuring E12 (kill-and-recover)...");
        run_e12(quick)
    });
    let e13 = want("e13").then(|| {
        eprintln!("bench-json: measuring E13 (async echo service)...");
        run_e13(quick)
    });

    if let Some(e2) = &e2 {
        println!("\n## E2 parallel-explorer scaling ({} CPUs)", e2.cpus);
        println!("| configuration | threads | wall s | states/s | states/s/core | store MB | peak RSS MB |");
        println!("|---|---|---|---|---|---|---|");
        for entry in &e2.entries {
            println!(
                "| {} | {} | {:.1} | {:.0} | {:.0} | {:.0} | {:.0} |",
                entry.configuration,
                entry.threads,
                entry.wall_s,
                entry.states_per_sec,
                entry.states_per_sec_per_core,
                entry.store_bytes as f64 / 1e6,
                entry.peak_rss_bytes as f64 / 1e6,
            );
        }
        println!("\n## E2b atomic vs safe (flickering) registers");
        println!("| algorithm | N | M | atomic states | safe states | blowup | complete |");
        println!("|---|---|---|---|---|---|---|");
        for row in &e2.semantics {
            println!(
                "| {} | {} | {} | {} | {} | {:.2}x | {} |",
                row.algorithm,
                row.n,
                row.bound,
                row.atomic_states,
                row.safe_states,
                row.blowup,
                if row.complete { "yes" } else { "no" },
            );
        }
    }
    if let Some(e6) = &e6 {
        print_comparisons("E6 uncontended acquire latency (ns)", "ns", &e6.comparisons);
    }
    if let Some(e7) = &e7 {
        print_comparisons("E7 contended throughput (acq/s)", "acq/s", &e7.comparisons);
    }

    if let Some(e6) = &e6 {
        println!("\n## E6 large-N: flat bakery++ vs tree-bakery (K={TREE_ARITY})");
        println!("| N | flat ns | tree ns | speedup | flat scan words | tree scan words |");
        println!("|---|---|---|---|---|---|");
        for c in &e6.tree_comparisons {
            println!(
                "| {} | {:.0} | {:.0} | {:+.1}% | {} | {} |",
                c.processes, c.flat_ns, c.tree_ns, c.speedup_pct, c.flat_scan_words, c.tree_scan_words
            );
        }
    }
    if let Some(e7) = &e7 {
        println!("\n## E7 large-N: 4 live threads, flat vs tree (acq/s)");
        println!("| N | flat acq/s | tree acq/s | gain |");
        println!("|---|---|---|---|");
        for c in &e7.tree_comparisons {
            println!(
                "| {} | {:.0} | {:.0} | {:+.1}% |",
                c.capacity, c.flat_acq_per_sec, c.tree_acq_per_sec, c.gain_pct
            );
        }
    }

    if let Err(err) = std::fs::create_dir_all(&out_dir) {
        eprintln!("failed to create {out_dir}: {err}");
        return ExitCode::FAILURE;
    }
    if let Some(e11) = &e11 {
        println!("\n## E11 lock-service churn ({}x oversubscribed)", e11.oversubscription);
        println!("| algorithm | sessions/s | cs/s | aliasing | migrations (fwd/rev) | round trip |");
        println!("|---|---|---|---|---|---|");
        for entry in &e11.entries {
            println!(
                "| {} | {:.0} | {:.0} | {} | {}/{} | {} |",
                entry.algorithm,
                entry.sessions_per_sec,
                entry.cs_per_sec,
                entry.aliasing_violations,
                entry.migrations_forward,
                entry.migrations_reverse,
                entry.round_trip
            );
        }
    }

    if let Some(e12) = &e12 {
        println!("\n## E12 kill-and-recover (crash injection over the session plane)");
        println!("| algorithm | period | crashes | cs/s | vs crash-free | recovered | aliasing | recovery µs mean/max |");
        println!("|---|---|---|---|---|---|---|---|");
        for entry in &e12.entries {
            println!(
                "| {} | {} | {}+{} | {:.0} | {:+.1}% | {}/{} | {} | {:.1}/{:.1} |",
                entry.algorithm,
                if entry.crash_period == 0 {
                    "-".to_string()
                } else {
                    format!("1/{}", entry.crash_period)
                },
                entry.injected_crashes,
                entry.cs_crashes,
                entry.cs_per_sec,
                entry.vs_crash_free_pct,
                entry.recycled_idle,
                entry.quarantined,
                entry.aliasing_violations,
                entry.recovery_ns_mean / 1_000.0,
                entry.recovery_ns_max as f64 / 1_000.0,
            );
        }
        println!("\n## E12 probe — dead ticket holders (raw bakery++)");
        println!("| site | samples | recovery µs mean/max |");
        println!("|---|---|---|");
        for entry in &e12.probe {
            println!(
                "| {} | {} | {:.1}/{:.1} |",
                entry.site,
                entry.samples,
                entry.recovery_ns_mean / 1_000.0,
                entry.recovery_ns_max as f64 / 1_000.0,
            );
        }
    }

    if let Some(e13) = &e13 {
        println!(
            "\n## E13 async echo service ({} clients / {} slots, {}x oversubscribed futures)",
            e13.entries.first().map_or(0, |e| e.clients),
            e13.entries.first().map_or(0, |e| e.slots),
            e13.oversubscription
        );
        println!("| strategy | sessions/s | echoes/s | attach p50 µs | attach p99 µs | notifies | aliasing |");
        println!("|---|---|---|---|---|---|---|");
        for entry in &e13.entries {
            println!(
                "| {} | {:.0} | {:.0} | {:.1} | {:.1} | {} | {} |",
                entry.strategy,
                entry.sessions_per_sec,
                entry.echoes_per_sec,
                entry.attach_p50_ns as f64 / 1_000.0,
                entry.attach_p99_ns as f64 / 1_000.0,
                entry.notifies,
                entry.aliasing_violations,
            );
        }
    }

    let mut outputs: Vec<(&str, Result<String, bakery_json::Error>)> = Vec::new();
    if let Some(e2) = &e2 {
        outputs.push(("BENCH_e2.json", bakery_json::to_string_pretty(e2)));
    }
    if let Some(e6) = &e6 {
        outputs.push(("BENCH_e6.json", bakery_json::to_string_pretty(e6)));
    }
    if let Some(e7) = &e7 {
        outputs.push(("BENCH_e7.json", bakery_json::to_string_pretty(e7)));
    }
    if let Some(e11) = &e11 {
        outputs.push(("BENCH_e11.json", bakery_json::to_string_pretty(e11)));
    }
    if let Some(e12) = &e12 {
        outputs.push(("BENCH_e12.json", bakery_json::to_string_pretty(e12)));
    }
    if let Some(e13) = &e13 {
        outputs.push(("BENCH_e13.json", bakery_json::to_string_pretty(e13)));
    }
    for (name, json) in outputs {
        let path = format!("{out_dir}/{name}");
        let text = match json {
            Ok(text) => text,
            Err(err) => {
                eprintln!("failed to serialise {name}: {err}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(err) = std::fs::write(&path, text + "\n") {
            eprintln!("failed to write {path}: {err}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }

    // Sanity guards so CI catches a correctness regression loudly: Bakery++
    // must never overflow.
    let pp_overflows: u64 = e6
        .iter()
        .flat_map(|e6| {
            e6.entries
                .iter()
                .filter(|e| e.algorithm == "bakery++")
                .map(|e| e.overflow_attempts)
                .chain(e6.tree_entries.iter().map(|e| e.overflow_attempts))
        })
        .chain(e7.iter().flat_map(|e7| {
            e7.entries
                .iter()
                .filter(|e| e.algorithm == "bakery++")
                .map(|e| e.overflow_attempts)
                .chain(e7.tree_entries.iter().map(|e| e.overflow_attempts))
        }))
        .sum();
    if pp_overflows > 0 {
        eprintln!("bakery++ reported {pp_overflows} overflow attempts");
        return ExitCode::FAILURE;
    }
    // The tree acceptance gate: quadrupling N (smallest to largest swept
    // size) must not double the tree's doorway footprint.  The exact layout
    // arithmetic (flat linearity included) is unit-tested in
    // e10_tree_scale::tests; this gate only guards the headline inequality.
    let words_of = |n: usize| {
        e6.as_ref().and_then(|e6| {
            e6.tree_comparisons
                .iter()
                .find(|c| c.processes == n)
                .map(|c| c.tree_scan_words)
        })
    };
    if let (Some(tree_small), Some(tree_large)) = (
        words_of(*TREE_SIZES.first().unwrap_or(&0)),
        words_of(*TREE_SIZES.last().unwrap_or(&0)),
    ) {
        if tree_large >= 2 * tree_small {
            eprintln!("tree doorway growth regressed: {tree_small} -> {tree_large} words");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

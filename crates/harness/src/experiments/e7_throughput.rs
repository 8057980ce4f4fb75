//! **E7 — §7: practicality — real-thread throughput and latency.**
//!
//! The paper's practicality argument is qualitative ("a multi-core modern
//! laptop may implement it to guarantee that only a single thread … can access
//! a shared resource").  This experiment quantifies it: every algorithm in the
//! suite is run as a real lock on real threads across a range of thread
//! counts, reporting throughput, tail latency and the overflow counters that
//! distinguish Bakery from Bakery++.  **E7c** pits the packed classic Bakery
//! and Bakery++ against the all-`SeqCst` reference in paired repetitions.
//! (Tree placement regimes are E10c's shared-leaf and spread rows.)

use bakery_baselines::{all_algorithms, AlgorithmId, LockFactory};

use super::e6_complexity::{finite_bound, reference_and_packed, REFERENCE};
use super::{median, paired_gain_pct};
use crate::report::{num, Table};
use crate::workload::{run_workload, Workload, WorkloadResult};

/// Runs the standard closed-loop workload for one algorithm at one thread
/// count.
#[must_use]
pub fn measure(id: AlgorithmId, threads: usize, quick: bool) -> Option<WorkloadResult> {
    if !id.supports(threads) {
        return None;
    }
    let factory = LockFactory::new().with_bound(65_535);
    let lock = factory.build(id, threads);
    let workload = if quick {
        Workload::quick(threads)
    } else {
        Workload::standard(threads)
    };
    Some(run_workload(lock, &workload))
}

/// Runs E7 and renders its tables.
#[must_use]
pub fn run(quick: bool) -> Vec<Table> {
    let available = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let mut thread_counts: Vec<usize> = vec![1, 2, 4];
    if !quick && available >= 8 {
        thread_counts.push(8);
    }

    let mut tables = Vec::new();
    for &threads in &thread_counts {
        let mut table = Table::new(
            format!("E7 — throughput and latency, {threads} thread(s)"),
            &[
                "algorithm",
                "acquisitions/s",
                "p50 latency (ns)",
                "p99 latency (ns)",
                "fairness ratio",
                "max ticket",
                "overflow attempts",
                "fast-path hits",
            ],
        );
        let factory = LockFactory::new();
        for (id, _) in all_algorithms(threads.max(2), &factory) {
            let Some(result) = measure(id, threads, quick) else {
                continue;
            };
            if never_overflows(id) {
                assert_eq!(
                    result.overflow_attempts,
                    0,
                    "{} must never overflow",
                    id.name()
                );
            }
            table.push_row(vec![
                id.name().into(),
                num(result.throughput(), 0),
                result.latency.quantile_ns(0.5).into(),
                result.latency.quantile_ns(0.99).into(),
                num(result.fairness_ratio(), 2),
                result.max_ticket.into(),
                result.overflow_attempts.into(),
                result.fast_path_hits.into(),
            ]);
        }
        table.push_note(
            "Bakery and Bakery++ sit in the same performance band (the O(N) scan dominates); \
             the RMW-based locks are faster but are not 'true' mutual exclusion in the paper's \
             sense.  Bakery++ reports zero overflow attempts by construction.",
        );
        tables.push(table);
    }
    tables.push(reference_throughput_table(quick));
    tables
}

/// The bounded bakeries whose overflow counters every E7 table gates at 0.
fn never_overflows(id: AlgorithmId) -> bool {
    matches!(
        id,
        AlgorithmId::BakeryPlusPlus | AlgorithmId::TreeBakery | AlgorithmId::AdaptiveBakery
    )
}

/// E7c: the packed classic Bakery and Bakery++ against the all-`SeqCst`
/// reference at 2 and 4 threads.  Paired design: every repetition runs the
/// three locks back to back on fresh instances, and each gain is the median
/// of the per-repetition ratios to the reference.  On a machine with fewer
/// CPUs than workers whole runs drift between a fast serial-burst regime
/// and a slow context-switch-bound one, which pairing cancels.
///
/// # Panics
/// Panics if Bakery++ records an overflow attempt in any repetition.
#[must_use]
pub fn reference_throughput_table(quick: bool) -> Table {
    let repetitions = if quick { 7 } else { 21 };
    let mut table = Table::new(
        format!("E7c — paired throughput vs the all-SeqCst reference ({repetitions} repetitions)"),
        &[
            "threads",
            "algorithm",
            "M",
            "acquisitions/s (median)",
            "gain vs reference (%, median of paired ratios)",
            "p99 latency (ns, median)",
            "fairness ratio (median)",
            "fast-path hits (median)",
            "overflow attempts (all repetitions)",
        ],
    );
    for threads in [2usize, 4] {
        let workload = Workload {
            threads,
            iterations_per_thread: if quick { 1_000 } else { 4_000 },
            critical_section_work: 16,
            think_work: 16,
        };
        // Per lock slot: one result per repetition.
        let mut runs: [Vec<WorkloadResult>; 3] = Default::default();
        let mut bounds = [None; 3];
        for _ in 0..repetitions {
            for (slot, lock) in reference_and_packed(threads).into_iter().enumerate() {
                bounds[slot] = finite_bound(lock.as_ref());
                runs[slot].push(run_workload(lock, &workload));
            }
        }
        for (slot, results) in runs.iter().enumerate() {
            let name = results[0].algorithm.as_str();
            let overflows: u64 = results.iter().map(|r| r.overflow_attempts).sum();
            if name == "bakery++" {
                assert_eq!(
                    overflows, 0,
                    "bakery++ must never overflow ({threads} threads)"
                );
            }
            let gain = (name != REFERENCE).then(|| num(paired_gain_pct(results, &runs[0]), 1));
            let stat = |f: fn(&WorkloadResult) -> f64| median(results.iter().map(f).collect());
            table.push_row(vec![
                threads.into(),
                name.into(),
                bounds[slot].into(),
                num(stat(WorkloadResult::throughput), 0),
                gain.into(),
                num(stat(|r| r.latency.quantile_ns(0.99) as f64), 0),
                num(stat(WorkloadResult::fairness_ratio), 2),
                num(stat(|r| r.fast_path_hits as f64), 0),
                overflows.into(),
            ]);
        }
    }
    table.push_note(
        "Every lock runs the same closed loop (16 units of CS and think work) on fresh \
         instances, reference first in each repetition.  M is a dash for the unbounded \
         classic Bakery and the reference.  With fewer CPUs than threads (see `cpus`), the \
         figures measure the scheduler as much as the lock.",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_respects_capacity_limits() {
        assert!(measure(AlgorithmId::Peterson, 3, true).is_none());
        let result = measure(AlgorithmId::BakeryPlusPlus, 2, true).unwrap();
        assert_eq!(result.total_acquisitions, 1_000);
        assert_eq!(result.overflow_attempts, 0);
    }

    #[test]
    fn quick_run_produces_one_table_per_thread_count_plus_reference() {
        let tables = run(true);
        assert_eq!(tables.len(), 4, "three thread counts + the reference table");
        for table in &tables[..3] {
            assert!(table.len() >= 10, "every supported algorithm appears");
        }
        assert_eq!(tables[3].len(), 6, "three locks at 2 and 4 threads");
    }
}

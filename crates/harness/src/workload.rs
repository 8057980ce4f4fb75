//! Real-thread lock workloads.
//!
//! A [`Workload`] describes a closed-loop benchmark: every thread repeatedly
//! acquires the lock, holds it for a configurable amount of work, releases it
//! and "thinks" for another configurable amount of work.  The result records
//! throughput, acquisition-latency distribution and per-thread service counts
//! (the fairness signal used by experiment **E8**).

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bakery_core::RawMutexAlgorithm;

use crate::histogram::LatencyHistogram;

/// Spin for roughly `units` of busy work (used for critical-section length
/// and think time without involving the OS timer).
#[inline]
pub fn busy_work(units: u64) {
    let mut acc = 0u64;
    for i in 0..units {
        acc = acc.wrapping_add(i).rotate_left(7);
        std::hint::black_box(acc);
    }
}

/// A closed-loop lock benchmark description.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Number of worker threads (each claims one process slot).
    pub threads: usize,
    /// Lock acquisitions per thread.
    pub iterations_per_thread: u64,
    /// Busy-work units executed while holding the lock.
    pub critical_section_work: u64,
    /// Busy-work units executed between acquisitions.
    pub think_work: u64,
}

impl Workload {
    /// A small smoke-test workload.
    #[must_use]
    pub fn quick(threads: usize) -> Self {
        Self {
            threads,
            iterations_per_thread: 500,
            critical_section_work: 16,
            think_work: 16,
        }
    }

    /// A heavier workload for real measurements.
    #[must_use]
    pub fn standard(threads: usize) -> Self {
        Self {
            threads,
            iterations_per_thread: 20_000,
            critical_section_work: 32,
            think_work: 64,
        }
    }

    /// Total acquisitions across all threads.
    #[must_use]
    pub fn total_iterations(&self) -> u64 {
        self.iterations_per_thread * self.threads as u64
    }
}

/// The outcome of running a [`Workload`] against one lock.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Name of the algorithm that was measured.
    pub algorithm: String,
    /// Number of worker threads.
    pub threads: usize,
    /// Total completed critical sections.
    pub total_acquisitions: u64,
    /// Wall-clock duration of the measurement.
    pub elapsed: Duration,
    /// Acquisition-latency histogram (time from requesting to holding).
    pub latency: LatencyHistogram,
    /// Critical-section entries per thread (fairness signal).
    pub per_thread: Vec<u64>,
    /// Ticket overflow attempts recorded by the lock.
    pub overflow_attempts: u64,
    /// Bakery++ reset branches recorded by the lock.
    pub resets: u64,
    /// Largest ticket value the lock ever stored.
    pub max_ticket: u64,
    /// Packed-snapshot fast-path acquisitions (zero for locks without one).
    pub fast_path_hits: u64,
}

impl WorkloadResult {
    /// Acquisitions per second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.total_acquisitions as f64 / secs
        }
    }

    /// Ratio between the most- and least-served thread (1.0 = perfectly fair).
    #[must_use]
    pub fn fairness_ratio(&self) -> f64 {
        let min = self.per_thread.iter().copied().min().unwrap_or(0);
        let max = self.per_thread.iter().copied().max().unwrap_or(0);
        if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }
}

/// Median nanoseconds per uncontended acquire/release on slot 0, after a
/// warm-up quarter.  Shared by experiments **E6** (the reference-vs-packed
/// table) and **E10** (the large-N sweep) so the two can never drift apart.
///
/// # Panics
/// Panics if slot 0 of `lock` is already claimed.
#[must_use]
pub fn measure_uncontended(lock: &dyn RawMutexAlgorithm, iterations: u64, samples: usize) -> f64 {
    let slot = lock.register().expect("slot 0 free");
    for _ in 0..iterations / 4 {
        drop(lock.lock(&slot));
    }
    let mut results: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iterations {
            let guard = lock.lock(&slot);
            std::hint::black_box(&guard);
            drop(guard);
        }
        results.push(start.elapsed().as_nanos() as f64 / iterations as f64);
    }
    results.sort_by(f64::total_cmp);
    results[results.len() / 2]
}

/// Runs `workload` against `lock` with real threads, each claiming the
/// lowest free slot (threads land on pids `0..threads`, which for a tree
/// lock means they share leaf subtrees).
///
/// # Panics
/// Panics if the lock has fewer slots than the workload has threads.
#[must_use]
pub fn run_workload(
    lock: Arc<dyn RawMutexAlgorithm>,
    workload: &Workload,
) -> WorkloadResult {
    run_workload_placed(lock, workload, None)
}

/// Evenly spread pids for `threads` live threads over a lock of `capacity`
/// slots: thread `i` plays pid `i * (capacity / threads)`.
///
/// For a K-ary tree lock of depth `d` this lands the threads in distinct
/// top-level subtrees whenever `threads <= K`, so all contention meets at
/// the **root** node — the opposite regime of the lowest-slot default, where
/// the same threads share one leaf.
#[must_use]
pub fn spread_placement(capacity: usize, threads: usize) -> Vec<usize> {
    let stride = (capacity / threads.max(1)).max(1);
    (0..threads).map(|i| i * stride).collect()
}

/// Runs `workload` against `lock` with an explicit slot placement: thread
/// `i` claims pid `placement[i]` (pass `None` for the lowest-free-slot
/// default).  The placement is how E7/E10 select the shared-leaf vs
/// distinct-subtree contention regimes of the tree locks.
///
/// # Panics
/// Panics if the lock has fewer slots than the workload has threads, if the
/// placement length does not match the thread count, or if a placement pid
/// is already claimed.
#[must_use]
pub fn run_workload_placed(
    lock: Arc<dyn RawMutexAlgorithm>,
    workload: &Workload,
    placement: Option<&[usize]>,
) -> WorkloadResult {
    assert!(
        lock.capacity() >= workload.threads,
        "lock capacity {} is smaller than thread count {}",
        lock.capacity(),
        workload.threads
    );
    if let Some(pids) = placement {
        assert_eq!(
            pids.len(),
            workload.threads,
            "placement must name one pid per thread"
        );
    }
    let mut histograms: Vec<LatencyHistogram> = Vec::with_capacity(workload.threads);
    let mut per_thread: Vec<u64> = vec![0; workload.threads];
    // All workers wait at the barrier so the measurement window actually
    // overlaps the threads.  Without it, on a machine with fewer CPUs than
    // workers the OS often runs each thread's whole loop back to back and a
    // "contended" benchmark silently measures uncontended acquires.
    let start_line = Arc::new(Barrier::new(workload.threads + 1));

    let elapsed = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workload.threads);
        for thread in 0..workload.threads {
            let lock = Arc::clone(&lock);
            let workload = workload.clone();
            let start_line = Arc::clone(&start_line);
            let placed = placement.map(|pids| pids[thread]);
            handles.push(scope.spawn(move || {
                let slot = match placed {
                    Some(pid) => lock
                        .register_exact(pid)
                        .expect("placement pids must be free"),
                    None => lock.register().expect("enough slots for every thread"),
                };
                let mut histogram = LatencyHistogram::new();
                let mut completed = 0u64;
                start_line.wait();
                for _ in 0..workload.iterations_per_thread {
                    let requested = Instant::now();
                    let guard = lock.lock(&slot);
                    histogram.record(requested.elapsed().as_nanos() as u64);
                    busy_work(workload.critical_section_work);
                    drop(guard);
                    completed += 1;
                    busy_work(workload.think_work);
                }
                (histogram, completed)
            }));
        }
        // Record the start *before* joining the barrier: workers cannot pass
        // the barrier until this thread arrives, so this never undercounts —
        // whereas taking the timestamp after `wait()` returns undercounts
        // badly when the OS runs the released workers before the main thread
        // (guaranteed on a single-CPU machine).
        let begun = Instant::now();
        start_line.wait();
        for (i, handle) in handles.into_iter().enumerate() {
            let (histogram, completed) = handle.join().expect("worker thread panicked");
            histograms.push(histogram);
            per_thread[i] = completed;
        }
        begun.elapsed()
    });
    let mut latency = LatencyHistogram::new();
    for h in &histograms {
        latency.merge(h);
    }
    let stats = lock.stats_snapshot();
    WorkloadResult {
        algorithm: lock.algorithm_name().to_string(),
        threads: workload.threads,
        total_acquisitions: per_thread.iter().sum(),
        elapsed,
        latency,
        per_thread,
        overflow_attempts: stats.overflow_attempts,
        resets: stats.resets,
        max_ticket: stats.max_ticket,
        fast_path_hits: stats.fast_path_hits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bakery_baselines::TicketLock;
    use bakery_core::BakeryPlusPlusLock;

    #[test]
    fn workload_totals() {
        let w = Workload::quick(3);
        assert_eq!(w.total_iterations(), 1500);
        let s = Workload::standard(2);
        assert!(s.iterations_per_thread > w.iterations_per_thread);
    }

    #[test]
    fn busy_work_is_callable_with_zero() {
        busy_work(0);
        busy_work(10);
    }

    #[test]
    fn run_workload_against_bakery_pp() {
        let lock = Arc::new(BakeryPlusPlusLock::with_bound(4, 10_000));
        let workload = Workload {
            threads: 4,
            iterations_per_thread: 200,
            critical_section_work: 4,
            think_work: 4,
        };
        let result = run_workload(lock, &workload);
        assert_eq!(result.algorithm, "bakery++");
        assert_eq!(result.total_acquisitions, 800);
        assert_eq!(result.per_thread.len(), 4);
        assert_eq!(result.latency.count(), 800);
        assert_eq!(result.overflow_attempts, 0);
        assert!(result.throughput() > 0.0);
        assert!(result.fairness_ratio() >= 1.0);
    }

    #[test]
    fn run_workload_against_ticket_lock() {
        let lock = Arc::new(TicketLock::new(2));
        let result = run_workload(lock, &Workload::quick(2));
        assert_eq!(result.total_acquisitions, 1000);
        assert!(result.max_ticket >= 999);
    }

    #[test]
    fn tree_rows_read_the_counts_of_the_tree_nodes() {
        // The tree counts doorway, ticket and fast-path effort only in its
        // nodes: a workload result must read those, not the facade's zeros.
        let lock = Arc::new(bakery_core::TreeBakery::new(4));
        let result = run_workload(lock, &Workload::quick(1));
        assert_eq!(result.algorithm, "tree-bakery");
        assert_eq!(result.total_acquisitions, 500);
        assert!(result.fast_path_hits > 0, "fast-path hits {}", result.fast_path_hits);
        assert!(result.max_ticket > 0, "max ticket {}", result.max_ticket);
        assert_eq!(result.overflow_attempts, 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn too_many_threads_is_rejected() {
        let lock = Arc::new(BakeryPlusPlusLock::with_bound(2, 100));
        let _ = run_workload(lock, &Workload::quick(3));
    }
}

//! **E6 — §7: spatial and temporal complexity.**
//!
//! The paper claims Bakery++ has the same O(N) spatial complexity as Bakery
//! (two arrays of size N, no new shared variables) and the same temporal
//! complexity whenever the overflow machinery does not fire, with extra cost
//! only when resets happen.  Three tables:
//!
//! * **E6a** — shared memory words per algorithm as N grows (the O(N) claim,
//!   with Bakery and Bakery++ identical and the related algorithms shown for
//!   context);
//! * **E6b** — simulator steps per critical-section entry for Bakery vs
//!   Bakery++ with a large bound (no resets) and a tiny bound (constant
//!   resets): the price of the guarantee;
//! * **E6c** — per-acquisition protocol steps of the real locks measured via
//!   the doorway/scan counters;
//! * **E6d** — uncontended acquire/release latency of the packed classic
//!   Bakery and Bakery++ next to the all-`SeqCst` reference lock
//!   (`bakery-seqcst`, the seed's one-atomic-per-register layout) at
//!   N = 4/32/128: what the packed plane and the targeted fences buy.

use std::sync::Arc;

use bakery_baselines::{all_algorithms, LockFactory, SeqCstBakeryLock};
use bakery_core::{BakeryLock, BakeryPlusPlusLock, RawMutexAlgorithm, DEFAULT_PP_BOUND};
use bakery_json::Value;
use bakery_sim::{RandomScheduler, RunConfig, Simulator};
use bakery_spec::{BakeryPlusPlusSpec, BakerySpec};

use crate::report::{num, Table};
use crate::workload::{measure_uncontended, run_workload, Workload};

/// Shared-word counts per algorithm for a given process count.
#[must_use]
pub fn spatial_table(process_counts: &[usize]) -> Table {
    let mut headers: Vec<String> = vec!["algorithm".into()];
    headers.extend(process_counts.iter().map(|n| format!("N={n}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new("E6a — shared memory words vs process count (O(N) claim)", &header_refs);

    let factory = LockFactory::new();
    let max_n = *process_counts.iter().max().unwrap_or(&2);
    for (id, _) in all_algorithms(max_n, &factory) {
        let mut row = vec![id.name().into()];
        for &n in process_counts {
            row.push(
                id.supports(n)
                    .then(|| factory.build(id, n).shared_word_count())
                    .into(),
            );
        }
        table.push_row(row);
    }
    table.push_note(
        "Bakery and Bakery++ report identical footprints (2N words): the bound M is a constant, \
         not a shared variable.  The Black-White Bakery pays one extra shared word (the colour \
         bit) plus a colour per process; Peterson-style locks use multi-writer words.",
    );
    table
}

/// Steps per CS entry of the specifications (simulator-level temporal cost).
#[must_use]
pub fn temporal_spec_table(quick: bool) -> Table {
    let steps = if quick { 40_000 } else { 400_000 };
    let mut table = Table::new(
        "E6b — specification steps per critical-section entry (N=2, random schedule)",
        &["algorithm", "M", "steps", "CS entries", "steps / entry", "resets"],
    );
    let sim = Simulator::new();

    let classic = BakerySpec::new(2, u64::from(u32::MAX));
    let run = sim.run(
        &classic,
        &mut RandomScheduler::new(1),
        &RunConfig::<BakerySpec>::checked(steps),
    );
    let entries = run.report.total_cs_entries().max(1);
    table.push_row(vec![
        "bakery".into(),
        Value::Null,
        run.report.steps.into(),
        entries.into(),
        num(run.report.steps as f64 / entries as f64, 1),
        Value::Null,
    ]);

    for &bound in &[u64::from(u32::MAX), 8, 2] {
        let pp = BakeryPlusPlusSpec::new(2, bound);
        let run = sim.run(
            &pp,
            &mut RandomScheduler::new(1),
            &RunConfig::<BakeryPlusPlusSpec>::checked(steps),
        );
        let entries = run.report.total_cs_entries().max(1);
        table.push_row(vec![
            "bakery++".into(),
            (bound != u64::from(u32::MAX)).then_some(bound).into(),
            run.report.steps.into(),
            entries.into(),
            num(run.report.steps as f64 / entries as f64, 1),
            run.report.overflow_avoidance_resets.into(),
        ]);
    }
    table.push_note(
        "M is a dash where the registers are unbounded.  With a large M, Bakery++ costs the \
         same order of steps per entry as Bakery (the L1 scan adds a few local reads).  Only \
         a pathologically small M makes the reset path visible — the paper's \"price of \
         guaranteeing that no overflows ever occur\".",
    );
    table
}

/// Doorway/scan wait counters of the real locks under a small workload.
#[must_use]
pub fn temporal_lock_table(quick: bool) -> Table {
    let iterations = if quick { 2_000 } else { 20_000 };
    let threads = 4;
    let mut table = Table::new(
        "E6c — real-lock protocol effort per acquisition (4 threads)",
        &[
            "algorithm",
            "acquisitions",
            "doorway/scan wait rounds per acquisition",
            "L1 waits per acquisition",
            "resets per acquisition",
            "fast-path hit rate",
            "overflow attempts",
        ],
    );
    for (name, lock) in [
        (
            "bakery",
            Arc::new(bakery_core::BakeryLock::new(threads)) as Arc<dyn RawMutexAlgorithm>,
        ),
        (
            "bakery++ (M=65535)",
            Arc::new(bakery_core::BakeryPlusPlusLock::with_bound(threads, 65_535)),
        ),
        (
            "bakery++ (M=7)",
            Arc::new(bakery_core::BakeryPlusPlusLock::with_bound(threads, 7)),
        ),
    ] {
        let workload = Workload {
            threads,
            iterations_per_thread: iterations,
            critical_section_work: 8,
            think_work: 8,
        };
        let result = run_workload(Arc::clone(&lock), &workload);
        let stats = lock.stats().snapshot();
        if name.starts_with("bakery++") {
            assert_eq!(stats.overflow_attempts, 0, "{name} must never overflow");
        }
        let acqs = result.total_acquisitions.max(1) as f64;
        table.push_row(vec![
            name.into(),
            result.total_acquisitions.into(),
            num(stats.doorway_waits as f64 / acqs, 2),
            num(stats.l1_waits as f64 / acqs, 2),
            num(stats.resets as f64 / acqs, 3),
            num(stats.fast_path_hits as f64 / acqs, 3),
            stats.overflow_attempts.into(),
        ]);
    }
    table.push_note(
        "The fast-path column counts acquisitions where the packed-snapshot emptiness check \
         let the lock skip the L2/L3 wait loops entirely; under full contention it naturally \
         tends towards zero.",
    );
    table
}

/// Name of the all-`SeqCst` reference lock E6d and E7c time the packed locks
/// against.
pub const REFERENCE: &str = "bakery-seqcst";

/// The locks E6d and E7c time at `n` processes, reference first: the
/// all-`SeqCst` reference, then the packed classic Bakery and Bakery++.
#[must_use]
pub fn reference_and_packed(n: usize) -> [Arc<dyn RawMutexAlgorithm>; 3] {
    [
        Arc::new(SeqCstBakeryLock::new(n)),
        Arc::new(BakeryLock::new(n)),
        Arc::new(BakeryPlusPlusLock::with_bound(n, DEFAULT_PP_BOUND)),
    ]
}

/// The lock's register bound `M`, or `None` when its registers are
/// effectively unbounded (`u64`-wide, as the classic Bakery's default).
#[must_use]
pub fn finite_bound(lock: &dyn RawMutexAlgorithm) -> Option<u64> {
    lock.register_bound().filter(|&m| m != u64::MAX)
}

/// E6d: uncontended acquire/release latency (median over samples), each
/// packed lock next to the reference at the same N.
///
/// # Panics
/// Panics if Bakery++ records an overflow attempt.
#[must_use]
pub fn reference_latency_table(quick: bool) -> Table {
    let (iterations, samples) = if quick { (20_000, 5) } else { (100_000, 9) };
    let mut table = Table::new(
        "E6d — uncontended acquire/release latency: packed locks vs the all-SeqCst reference",
        &[
            "N",
            "algorithm",
            "M",
            "ns / acquire (median)",
            "latency cut vs reference (%)",
            "fast-path hits",
            "overflow attempts",
        ],
    );
    for n in [4usize, 32, 128] {
        let mut reference_ns = 0.0;
        for lock in reference_and_packed(n) {
            let name = lock.algorithm_name();
            let ns = measure_uncontended(lock.as_ref(), iterations, samples);
            let stats = lock.stats().snapshot();
            if name == "bakery++" {
                assert_eq!(
                    stats.overflow_attempts, 0,
                    "bakery++ must never overflow (N = {n})"
                );
            }
            let cut = if name == REFERENCE {
                reference_ns = ns;
                Value::Null
            } else {
                num((reference_ns - ns) / reference_ns * 100.0, 1)
            };
            table.push_row(vec![
                n.into(),
                name.into(),
                finite_bound(lock.as_ref()).into(),
                num(ns, 1),
                cut,
                stats.fast_path_hits.into(),
                stats.overflow_attempts.into(),
            ]);
        }
    }
    table.push_note(
        "The reference keeps the seed's layout (one cache-padded SeqCst atomic per register, \
         textbook scans); the packed locks read O(N/8) words and pay two targeted fences per \
         doorway.  M is a dash for the unbounded classic Bakery and the reference.  Each figure \
         is the median of per-sample means on slot 0 of a fresh lock.",
    );
    table
}

/// Runs E6 and renders its tables.
#[must_use]
pub fn run(quick: bool) -> Vec<Table> {
    // The latency table is measured first, on a process no other table has
    // warmed or contended yet, and shown last.
    let latency = reference_latency_table(quick);
    vec![
        spatial_table(&[2, 4, 8, 16, 32]),
        temporal_spec_table(quick),
        temporal_lock_table(quick),
        latency,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_table_shows_equal_footprint_for_bakery_and_pp() {
        let table = spatial_table(&[2, 8]);
        let named = |name: &str| -> Vec<&Vec<Value>> {
            table
                .rows
                .iter()
                .filter(|r| r[0] == Value::from(name))
                .collect()
        };
        let (bakery, pp) = (named("bakery"), named("bakery++"));
        assert_eq!(bakery.len(), 1);
        assert_eq!(pp.len(), 1);
        assert_eq!(bakery[0][1..], pp[0][1..], "identical shared footprint");
        assert_eq!(bakery[0][1], Value::Int(4));
        assert_eq!(bakery[0][2], Value::Int(16));
    }

    #[test]
    fn spatial_footprint_scales_linearly() {
        let table = spatial_table(&[2, 4, 8]);
        let row = table
            .rows
            .iter()
            .find(|r| r[0] == Value::from("bakery++"))
            .unwrap();
        let values: Vec<i128> = row[1..].iter().map(|c| c.as_i128().unwrap()).collect();
        assert_eq!(values, vec![4, 8, 16]);
    }

    #[test]
    fn temporal_spec_table_reports_comparable_costs() {
        let table = temporal_spec_table(true);
        assert_eq!(table.len(), 4);
        let classic = table.rows[0][4].as_f64().unwrap();
        let pp_large = table.rows[1][4].as_f64().unwrap();
        assert!(classic > 0.0 && pp_large > 0.0);
        assert!(
            pp_large / classic < 3.0,
            "with a large bound Bakery++ must stay within a small constant factor \
             (classic {classic}, pp {pp_large})"
        );
    }

    #[test]
    fn temporal_lock_table_shape() {
        let table = temporal_lock_table(true);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn reference_latency_table_pairs_each_packed_lock_with_the_reference() {
        let table = reference_latency_table(true);
        assert_eq!(table.len(), 9, "three locks at N = 4/32/128");
        for group in table.rows.chunks(3) {
            assert_eq!(group[0][1], Value::from(REFERENCE));
            assert_eq!(
                group[0][4],
                Value::Null,
                "the reference has no cut vs itself"
            );
            for row in group {
                assert!(row[3].as_f64().unwrap() > 0.0);
                assert_eq!(row[6], Value::Int(0), "no lock overflows uncontended");
            }
            assert!(group[1][4].as_f64().is_some() && group[2][4].as_f64().is_some());
        }
    }
}

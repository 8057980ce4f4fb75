//! **E10 — beyond the paper: flat Bakery++ vs the tree composite at N ≫ 128.**
//!
//! The paper's algorithms pay an O(N) doorway scan, which is why the flat
//! locks stop scaling once `N` reaches the hundreds even with the packed
//! snapshot plane.  This experiment quantifies what the
//! tournament-of-bounded-bakeries (`bakery-core::tree`) buys at large `N`:
//!
//! * **E10a** — analytic doorway footprint: words one uncontended acquisition
//!   scans, flat vs tree, as `N` grows (the sub-linearity headline);
//! * **E10b** — measured uncontended acquire/release latency of the real
//!   locks at large `N`;
//! * **E10c** — contended throughput with a handful of live threads on
//!   large-capacity locks, with the tree's per-level statistics.

use std::sync::Arc;

use bakery_core::{BakeryPlusPlusLock, RawMutexAlgorithm, TreeBakery, DEFAULT_PP_BOUND};

use crate::report::Table;
use crate::workload::{
    measure_uncontended, run_workload, run_workload_placed, spread_placement, Workload,
};

/// The `N` values the experiment sweeps.
pub const SIZES: [usize; 3] = [256, 512, 1024];

/// The arity values of the E10d sweep.
pub const ARITIES: [usize; 3] = [4, 8, 16];

/// Tree arity used throughout (8-ary keeps each node's packed ticket array
/// within one cache line).
pub const ARITY: usize = 8;

/// Doorway scan words of the flat packed Bakery++ at `n`.
#[must_use]
pub fn flat_scan_words(n: usize) -> usize {
    BakeryPlusPlusLock::with_bound(n, DEFAULT_PP_BOUND)
        .registers()
        .packed()
        .word_count()
}

/// E10a: analytic doorway footprint, flat vs tree.
#[must_use]
pub fn footprint_table() -> Table {
    let mut table = Table::new(
        "E10a — doorway scan words per uncontended acquisition (flat vs tree)",
        &["N", "flat bakery++ (packed)", "tree (K=8) words", "tree depth", "flat ÷ tree"],
    );
    for &n in &SIZES {
        let flat = flat_scan_words(n);
        let tree = TreeBakery::with_arity(n, ARITY);
        table.push_row(vec![
            n.to_string(),
            flat.to_string(),
            tree.doorway_scan_words().to_string(),
            tree.depth().to_string(),
            format!("{:.1}x", flat as f64 / tree.doorway_scan_words() as f64),
        ]);
    }
    table.push_note(
        "Quadrupling N quadruples the flat scan but adds only one level (a constant number of \
         words) to the tree's leaf-to-root path: O(N/8) vs O(K·log_K N).",
    );
    table
}

/// E10b: measured uncontended latency at large N.
#[must_use]
pub fn latency_table(quick: bool) -> Table {
    let (iterations, samples) = if quick { (5_000, 3) } else { (50_000, 7) };
    let mut table = Table::new(
        "E10b — uncontended acquire/release latency at large N (ns, median)",
        &["N", "flat bakery++ (packed)", "tree-bakery (K=8)", "speedup"],
    );
    for &n in &SIZES {
        let flat = BakeryPlusPlusLock::with_bound(n, DEFAULT_PP_BOUND);
        let tree = TreeBakery::with_arity(n, ARITY);
        let flat_ns = measure_uncontended(&flat, iterations, samples);
        let tree_ns = measure_uncontended(&tree, iterations, samples);
        table.push_row(vec![
            n.to_string(),
            format!("{flat_ns:.0}"),
            format!("{tree_ns:.0}"),
            format!("{:.2}x", flat_ns / tree_ns),
        ]);
    }
    table.push_note(
        "Uncontended, the flat lock's fast path still scans its whole packed plane twice \
         (emptiness check + maximum), so its latency grows with N; the tree walks a fixed-depth \
         path of tiny nodes.",
    );
    table
}

/// E10c: contended throughput with few live threads on large-capacity locks,
/// in both placement regimes — threads packed into one **shared leaf**
/// (lowest slots, contention resolved inside a single node) and **spread**
/// across distinct top-level subtrees (contention meets only at the root).
#[must_use]
pub fn contended_table(quick: bool) -> Table {
    let threads = 4;
    let mut table = Table::new(
        "E10c — contended throughput, 4 live threads on large-capacity locks",
        &[
            "N",
            "algorithm / placement",
            "acq/s",
            "resets",
            "fast-path hits",
            "per-level doorway waits (leaf..root)",
        ],
    );
    for &n in &SIZES {
        let workload = Workload {
            threads,
            iterations_per_thread: if quick { 500 } else { 3_000 },
            critical_section_work: 16,
            think_work: 16,
        };

        let flat: Arc<dyn RawMutexAlgorithm> =
            Arc::new(BakeryPlusPlusLock::with_bound(n, DEFAULT_PP_BOUND));
        let result = run_workload(Arc::clone(&flat), &workload);
        table.push_row(vec![
            n.to_string(),
            "bakery++ (flat)".into(),
            format!("{:.0}", result.throughput()),
            result.resets.to_string(),
            result.fast_path_hits.to_string(),
            "-".into(),
        ]);

        for (regime, placement) in [
            ("shared leaf", None),
            ("spread subtrees", Some(spread_placement(n, threads))),
        ] {
            let tree = Arc::new(TreeBakery::with_arity(n, ARITY));
            let result = run_workload_placed(
                Arc::clone(&tree) as Arc<dyn RawMutexAlgorithm>,
                &workload,
                placement.as_deref(),
            );
            let per_level: Vec<String> = (0..tree.depth())
                .map(|level| tree.level_snapshot(level).doorway_waits.to_string())
                .collect();
            let aggregate = tree.aggregate_snapshot();
            table.push_row(vec![
                n.to_string(),
                format!("tree-bakery (K=8, {regime})"),
                format!("{:.0}", result.throughput()),
                aggregate.resets.to_string(),
                aggregate.fast_path_hits.to_string(),
                per_level.join(" / "),
            ]);
            assert_eq!(aggregate.overflow_attempts, 0, "the tree must never overflow");
        }
    }
    table.push_note(
        "Shared leaf (lowest slots): the tree resolves all contention inside one leaf node and \
         climbs an uncontended path.  Spread subtrees (slots strided across top-level subtrees): \
         every thread climbs a private path and the conflict moves to the root node — the \
         root-contention regime, visible as the doorway waits shifting from the leaf level to \
         the root level.  The flat lock's wait loops scan all N registers either way.  Tree \
         fast-path hits count per node (up to depth per acquisition).",
    );
    table
}

/// E10d: the K = 4/8/16 arity sweep at one large N, in both placement
/// regimes — arity trades per-node scan width against tree depth, and the
/// placement decides which levels actually see contention.
#[must_use]
pub fn arity_table(quick: bool) -> Table {
    let n = 512;
    let threads = 4;
    let (iterations, samples) = if quick { (5_000, 3) } else { (30_000, 5) };
    let mut table = Table::new(
        format!("E10d — arity sweep at N = {n}, {threads} live threads"),
        &[
            "K",
            "depth",
            "scan words",
            "uncontended ns",
            "acq/s shared leaf",
            "acq/s spread",
        ],
    );
    for &arity in &ARITIES {
        let tree = TreeBakery::with_arity(n, arity);
        let depth = tree.depth();
        let words = tree.doorway_scan_words();
        let uncontended_ns = measure_uncontended(&tree, iterations, samples);
        drop(tree);

        let workload = Workload {
            threads,
            iterations_per_thread: if quick { 500 } else { 3_000 },
            critical_section_work: 16,
            think_work: 16,
        };
        let mut regimes = Vec::new();
        for placement in [None, Some(spread_placement(n, threads))] {
            let tree = Arc::new(TreeBakery::with_arity(n, arity));
            let result = run_workload_placed(
                Arc::clone(&tree) as Arc<dyn RawMutexAlgorithm>,
                &workload,
                placement.as_deref(),
            );
            assert_eq!(tree.aggregate_snapshot().overflow_attempts, 0);
            regimes.push(format!("{:.0}", result.throughput()));
        }
        table.push_row(vec![
            arity.to_string(),
            depth.to_string(),
            words.to_string(),
            format!("{uncontended_ns:.0}"),
            regimes[0].clone(),
            regimes[1].clone(),
        ]);
    }
    table.push_note(
        "Small K: deeper trees, more node acquisitions per entry but narrower scans. Large K: \
         shallow trees whose nodes approach the flat lock's scan cost.  K = 8 keeps a node's \
         packed ticket array within one cache line, which is why it is the default.  Re-measure \
         on a multi-core runner for the contended columns (1-CPU medians compress the spread).",
    );
    table
}

/// Runs E10 and renders its tables.
#[must_use]
pub fn run(quick: bool) -> Vec<Table> {
    vec![
        footprint_table(),
        latency_table(quick),
        contended_table(quick),
        arity_table(quick),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_is_sublinear() {
        let table = footprint_table();
        assert_eq!(table.len(), SIZES.len());
        let flat: Vec<usize> = table.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        let tree: Vec<usize> = table.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert_eq!(flat[2], 4 * flat[0], "flat scan words are linear in N");
        assert!(
            tree[2] < tree[0] * 2,
            "quadrupling N must not double the tree's path: {tree:?}"
        );
        assert!(flat[2] / tree[2] >= 4, "at N=1024 the tree is >= 4x denser");
    }

    #[test]
    fn contended_table_reports_both_placement_regimes() {
        let table = contended_table(true);
        assert_eq!(table.len(), 3 * SIZES.len());
        let tree_rows: Vec<_> = table
            .rows
            .iter()
            .filter(|r| r[1].starts_with("tree"))
            .collect();
        assert_eq!(tree_rows.len(), 2 * SIZES.len());
        for row in &tree_rows {
            assert!(row[5].contains('/'), "per-level stats rendered: {row:?}");
        }
        assert!(tree_rows.iter().any(|r| r[1].contains("shared leaf")));
        assert!(tree_rows.iter().any(|r| r[1].contains("spread subtrees")));
    }

    #[test]
    fn spread_placement_lands_in_distinct_top_subtrees() {
        for &n in &SIZES {
            let tree = TreeBakery::with_arity(n, ARITY);
            let pids = spread_placement(n, 4);
            let top = tree.depth() - 1;
            // The spread regime maximises root-slot distinctness: the 4
            // threads cover as many occupied root children as exist (at
            // N = 1024 the 8-ary tree only populates 2 of them).
            let occupied_root_children = n.div_ceil(ARITY.pow(top as u32)).min(ARITY);
            let slots: std::collections::HashSet<_> =
                pids.iter().map(|&pid| tree.position(pid, top)).collect();
            assert_eq!(
                slots.len(),
                4.min(occupied_root_children),
                "N = {n}: root slots must spread across all occupied children"
            );
            // And at the leaf level they share nothing at any size.
            let leaves: std::collections::HashSet<_> =
                pids.iter().map(|&pid| tree.position(pid, 0).0).collect();
            assert_eq!(leaves.len(), 4, "N = {n}: leaf nodes must be distinct");
        }
    }

    #[test]
    fn arity_sweep_covers_all_arities() {
        let table = arity_table(true);
        assert_eq!(table.len(), ARITIES.len());
        for (row, &arity) in table.rows.iter().zip(&ARITIES) {
            assert_eq!(row[0], arity.to_string());
            let depth: usize = row[1].parse().unwrap();
            assert!(depth >= 2, "512 processes need at least two levels");
        }
        // Scan words are not monotone in K: depth falls as width grows.
        let words: Vec<usize> = table.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(words.iter().all(|&w| w > 0));
    }
}

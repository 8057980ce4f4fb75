//! **E10 — beyond the paper: flat Bakery++ vs the tree composite at N ≫ 128.**
//!
//! The paper's algorithms pay an O(N) doorway scan, which is why the flat
//! locks stop scaling once `N` reaches the hundreds even with the packed
//! snapshot plane.  This experiment quantifies what the
//! tournament-of-bounded-bakeries (`bakery-core::tree`) buys at large `N`:
//!
//! * **E10a** — analytic doorway footprint: words one uncontended acquisition
//!   scans, flat vs tree, as `N` grows (the sub-linearity headline, gated:
//!   quadrupling `N` must not double the tree's footprint);
//! * **E10b** — measured uncontended acquire/release latency of the real
//!   locks at large `N`;
//! * **E10c** — contended throughput with a handful of live threads on
//!   large-capacity locks, in paired repetitions reported as medians;
//! * **E10d** — the K = 4/8/16 arity sweep;
//! * **E10e** — the tree's per-level statistics behind E10b and E10c.
//!
//! Every flat Bakery++ and tree measurement asserts zero overflow attempts.

use std::sync::Arc;

use bakery_core::stats::StatsSnapshot;
use bakery_core::{BakeryPlusPlusLock, RawMutexAlgorithm, TreeBakery, DEFAULT_PP_BOUND};

use super::{median, paired_gain_pct};
use crate::report::{num, Table};
use crate::workload::{
    measure_uncontended, run_workload_placed, spread_placement, Workload, WorkloadResult,
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
///
/// # Panics
/// Panics if the tree's footprint at the largest `N` reaches twice its
/// footprint at the smallest — the sub-linearity gate.
#[must_use]
pub fn footprint_table() -> Table {
    let mut table = Table::new(
        "E10a — doorway scan words per uncontended acquisition (flat vs tree)",
        &[
            "N",
            "flat bakery++ (packed) words",
            "tree (K=8) words",
            "tree depth",
            "flat ÷ tree",
        ],
    );
    let mut tree_words = Vec::new();
    for &n in &SIZES {
        let flat = flat_scan_words(n);
        let tree = TreeBakery::with_arity(n, ARITY);
        let words = tree.doorway_scan_words();
        tree_words.push(words);
        table.push_row(vec![
            n.into(),
            flat.into(),
            words.into(),
            tree.depth().into(),
            num(flat as f64 / words as f64, 1),
        ]);
    }
    let (small, large) = (tree_words[0], tree_words[SIZES.len() - 1]);
    assert!(
        large < 2 * small,
        "tree doorway growth regressed: {small} words at N = {} -> {large} at N = {}",
        SIZES[0],
        SIZES[SIZES.len() - 1]
    );
    table.push_note(
        "Quadrupling N quadruples the flat scan but adds only one level (a constant number of \
         words) to the tree's leaf-to-root path: O(N/8) vs O(K·log_K N).",
    );
    table
}

/// E10e's empty table; E10b and E10c append the per-level statistics of
/// every tree they measure.
#[must_use]
pub fn level_table() -> Table {
    let mut table = Table::new(
        "E10e — tree-bakery (K=8) per-level statistics behind E10b/E10c (level 0 = leaves)",
        &[
            "measurement",
            "N",
            "level",
            "nodes",
            "fast-path hits",
            "doorway waits",
            "L1 waits",
            "resets",
            "max ticket",
        ],
    );
    table.push_note(
        "Contended rows total every repetition of E10c (max ticket: the largest seen).  A \
         single acquisition can count one fast-path hit per level.",
    );
    table
}

fn push_levels(levels: &mut Table, measurement: &str, n: usize, per_level: &[StatsSnapshot]) {
    let tree = TreeBakery::with_arity(n, ARITY);
    for (level, s) in per_level.iter().enumerate() {
        levels.push_row(vec![
            measurement.into(),
            n.into(),
            level.into(),
            tree.nodes_at(level).into(),
            s.fast_path_hits.into(),
            s.doorway_waits.into(),
            s.l1_waits.into(),
            s.resets.into(),
            s.max_ticket.into(),
        ]);
    }
}

fn level_snapshots(tree: &TreeBakery) -> Vec<StatsSnapshot> {
    (0..tree.depth())
        .map(|level| tree.level_snapshot(level))
        .collect()
}

/// E10b: measured uncontended latency at large N; the tree's per-level
/// statistics go to `levels` (E10e).
///
/// # Panics
/// Panics if either lock records an overflow attempt.
#[must_use]
pub fn latency_table(quick: bool, levels: &mut Table) -> Table {
    let (iterations, samples) = if quick { (5_000, 3) } else { (50_000, 7) };
    let mut table = Table::new(
        "E10b — uncontended acquire/release latency at large N (median)",
        &[
            "N",
            "flat bakery++ (packed) ns",
            "tree-bakery (K=8) ns",
            "speedup (x)",
            "flat overflow attempts",
            "tree overflow attempts",
        ],
    );
    for &n in &SIZES {
        let flat = BakeryPlusPlusLock::with_bound(n, DEFAULT_PP_BOUND);
        let tree = TreeBakery::with_arity(n, ARITY);
        let flat_ns = measure_uncontended(&flat, iterations, samples);
        let tree_ns = measure_uncontended(&tree, iterations, samples);
        let flat_overflows = flat.stats().overflow_attempts();
        let tree_overflows = tree.aggregate_snapshot().overflow_attempts;
        assert_eq!(
            (flat_overflows, tree_overflows),
            (0, 0),
            "N = {n}: no lock may overflow"
        );
        table.push_row(vec![
            n.into(),
            num(flat_ns, 1),
            num(tree_ns, 1),
            num(flat_ns / tree_ns, 2),
            flat_overflows.into(),
            tree_overflows.into(),
        ]);
        push_levels(levels, "uncontended", n, &level_snapshots(&tree));
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
///
/// Paired design: every repetition runs the flat lock and both tree
/// placements back to back on fresh locks; each tree gain is the median of
/// its per-repetition ratios to the flat lock.  The tree's per-level
/// statistics, totalled over the repetitions, go to `levels` (E10e).
///
/// # Panics
/// Panics if any lock records an overflow attempt in any repetition.
#[must_use]
pub fn contended_table(quick: bool, levels: &mut Table) -> Table {
    let threads = 4;
    let repetitions = if quick { 3 } else { 7 };
    let mut table = Table::new(
        format!(
            "E10c — contended throughput, {threads} live threads on large-capacity locks \
             ({repetitions} paired repetitions)"
        ),
        &[
            "N",
            "algorithm / placement",
            "acq/s (median)",
            "gain vs flat (%, median of paired ratios)",
            "p99 latency (ns, median)",
            "resets",
            "fast-path hits",
            "overflow attempts",
        ],
    );
    let workload = Workload {
        threads,
        iterations_per_thread: if quick { 500 } else { 2_000 },
        critical_section_work: 16,
        think_work: 16,
    };
    for &n in &SIZES {
        let regimes = [
            ("bakery++ (flat)", None),
            ("tree-bakery (K=8, shared leaf)", None),
            (
                "tree-bakery (K=8, spread subtrees)",
                Some(spread_placement(n, threads)),
            ),
        ];
        // Per regime: one run per repetition, and the per-level counter
        // totals over all repetitions (the flat lock is one level).
        let mut runs: [Vec<WorkloadResult>; 3] = Default::default();
        let mut per_level: [Vec<StatsSnapshot>; 3] = Default::default();
        let mut add = |slot: usize, snapshots: Vec<StatsSnapshot>| {
            per_level[slot].resize(snapshots.len(), StatsSnapshot::default());
            for (total, s) in per_level[slot].iter_mut().zip(&snapshots) {
                total.merge(s);
            }
        };
        for _ in 0..repetitions {
            let flat = Arc::new(BakeryPlusPlusLock::with_bound(n, DEFAULT_PP_BOUND));
            let lock = Arc::clone(&flat) as Arc<dyn RawMutexAlgorithm>;
            runs[0].push(run_workload_placed(lock, &workload, None));
            add(0, vec![flat.stats().snapshot()]);
            for slot in [1, 2] {
                let tree = Arc::new(TreeBakery::with_arity(n, ARITY));
                let placement = regimes[slot].1.as_deref();
                let lock = Arc::clone(&tree) as Arc<dyn RawMutexAlgorithm>;
                runs[slot].push(run_workload_placed(lock, &workload, placement));
                add(slot, level_snapshots(&tree));
            }
        }
        for (slot, (name, _)) in regimes.iter().enumerate() {
            let totals = per_level[slot]
                .iter()
                .fold(StatsSnapshot::default(), |mut all, s| {
                    all.merge(s);
                    all
                });
            assert_eq!(totals.overflow_attempts, 0, "N = {n}, {name}: overflow");
            let gain = (slot > 0).then(|| num(paired_gain_pct(&runs[slot], &runs[0]), 1));
            let stat = |f: fn(&WorkloadResult) -> f64| median(runs[slot].iter().map(f).collect());
            table.push_row(vec![
                n.into(),
                (*name).into(),
                num(stat(WorkloadResult::throughput), 0),
                gain.into(),
                num(stat(|r| r.latency.quantile_ns(0.99) as f64), 0),
                totals.resets.into(),
                totals.fast_path_hits.into(),
                totals.overflow_attempts.into(),
            ]);
            if slot > 0 {
                let regime = if slot == 1 { "shared leaf" } else { "spread" };
                push_levels(levels, &format!("contended, {regime}"), n, &per_level[slot]);
            }
        }
    }
    table.push_note(
        "Shared leaf (lowest slots): the tree resolves all contention inside one leaf node and \
         climbs an uncontended path.  Spread subtrees (slots strided across top-level subtrees): \
         every thread climbs a private path and the conflict moves to the root node — the \
         root-contention regime, visible in E10e as the doorway waits shifting from the leaf \
         level to the root level.  The flat lock's wait loops scan all N registers either way.  \
         Counters total every repetition; tree fast-path hits count per node (up to depth per \
         acquisition).",
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
        let mut row = vec![
            arity.into(),
            depth.into(),
            words.into(),
            num(uncontended_ns, 0),
        ];
        for placement in [None, Some(spread_placement(n, threads))] {
            let tree = Arc::new(TreeBakery::with_arity(n, arity));
            let result = run_workload_placed(
                Arc::clone(&tree) as Arc<dyn RawMutexAlgorithm>,
                &workload,
                placement.as_deref(),
            );
            let overflows = tree.aggregate_snapshot().overflow_attempts;
            assert_eq!(overflows, 0, "the tree must never overflow");
            row.push(num(result.throughput(), 0));
        }
        table.push_row(row);
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
    let mut levels = level_table();
    let footprint = footprint_table();
    let latency = latency_table(quick, &mut levels);
    let contended = contended_table(quick, &mut levels);
    vec![footprint, latency, contended, arity_table(quick), levels]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bakery_json::Value;

    #[test]
    fn footprint_is_sublinear() {
        let table = footprint_table();
        assert_eq!(table.len(), SIZES.len());
        let flat: Vec<i128> = table.rows.iter().map(|r| r[1].as_i128().unwrap()).collect();
        let tree: Vec<i128> = table.rows.iter().map(|r| r[2].as_i128().unwrap()).collect();
        assert_eq!(flat[2], 4 * flat[0], "flat scan words are linear in N");
        assert!(
            tree[2] < tree[0] * 2,
            "quadrupling N must not double the tree's path: {tree:?}"
        );
        assert!(flat[2] / tree[2] >= 4, "at N=1024 the tree is >= 4x denser");
    }

    #[test]
    fn contended_table_reports_both_placement_regimes() {
        let mut levels = level_table();
        let table = contended_table(true, &mut levels);
        assert_eq!(table.len(), 3 * SIZES.len());
        let name = |row: &Vec<Value>| row[1].as_str().unwrap().to_string();
        let tree_rows: Vec<_> = table
            .rows
            .iter()
            .filter(|r| name(r).starts_with("tree"))
            .collect();
        assert_eq!(tree_rows.len(), 2 * SIZES.len());
        for row in &tree_rows {
            assert!(row[3].as_f64().is_some(), "paired gain vs flat: {row:?}");
            assert_eq!(row[7], Value::Int(0), "overflow attempts: {row:?}");
        }
        assert!(tree_rows.iter().any(|r| name(r).contains("shared leaf")));
        assert!(tree_rows
            .iter()
            .any(|r| name(r).contains("spread subtrees")));
        // Per-level rows for both placements at every N: depth 3, 3 and 4.
        assert_eq!(levels.len(), 2 * (3 + 3 + 4));
        // In the spread regime no two threads share a leaf, so leaf-level
        // doorway waiting must not exceed the shared-leaf regime's (root
        // waits move the other way, but on a 1-CPU runner both can be near
        // zero, so only the leaf side is asserted).
        let leaf_waits = |measurement: &str, n: usize| {
            let row = levels.rows.iter().find(|r| {
                r[0] == Value::from(measurement) && r[1] == Value::from(n) && r[2] == Value::Int(0)
            });
            row.unwrap()[5].as_i128().unwrap()
        };
        for n in SIZES {
            let shared = leaf_waits("contended, shared leaf", n);
            let spread = leaf_waits("contended, spread", n);
            assert!(
                spread <= shared || shared == 0,
                "N = {n}: spread {spread} vs shared {shared}"
            );
        }
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
            assert_eq!(row[0], Value::from(arity));
            let depth = row[1].as_i128().unwrap();
            assert!(depth >= 2, "512 processes need at least two levels");
        }
        // Scan words are not monotone in K: depth falls as width grows.
        let words: Vec<i128> = table.rows.iter().map(|r| r[2].as_i128().unwrap()).collect();
        assert!(words.iter().all(|&w| w > 0));
    }
}

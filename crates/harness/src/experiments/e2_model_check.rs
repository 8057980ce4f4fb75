//! **E2 — §6.1 + TLC result: exhaustive model checking.**
//!
//! Reproduces the paper's verification: for small instances (N processes,
//! register bound M) the entire state space is explored and the two invariants
//! *NoOverflow* and *MutualExclusion* are checked on every reachable state.
//! Bakery++ satisfies both; the classic Bakery on the same bounded registers
//! reaches an overflow state.  Two more tables: **E2b** compares state-space
//! sizes under atomic and safe (flickering) registers, and **E2c** runs the
//! tree close-out at 1, 2 and 4 explorer threads, asserting that counts and
//! digest are thread-count invariant.

use bakery_mc::ModelChecker;
use bakery_spec::{BakeryPlusPlusSpec, BakerySpec, RegisterSemantics, TreeBakerySpec};

use crate::report::{num, Table};

/// One model-checking configuration and its outcome.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Algorithm name.
    pub algorithm: String,
    /// Number of processes.
    pub n: usize,
    /// Register bound M.
    pub bound: u64,
    /// Distinct states explored.
    pub states: usize,
    /// Distinct symmetry orbits (canonical states); equals `states` when the
    /// run used no symmetry compression.
    pub canonical_states: usize,
    /// Order of the symmetry group (1 = none).
    pub symmetry_order: usize,
    /// Transitions examined.
    pub transitions: usize,
    /// Whether exploration covered the full state space.
    pub complete: bool,
    /// Violated invariants (empty = all hold).
    pub violated: Vec<String>,
    /// Depth of the first violation, if any.
    pub violation_depth: Option<usize>,
}

fn outcome_from_report(
    algorithm: String,
    n: usize,
    bound: u64,
    report: &bakery_mc::ExplorationReport,
) -> CheckOutcome {
    CheckOutcome {
        algorithm,
        n,
        bound,
        states: report.states,
        canonical_states: report.canonical_states,
        symmetry_order: report.symmetry_order,
        transitions: report.transitions,
        complete: !report.truncated,
        violation_depth: report.violations.first().map(|v| v.depth),
        violated: report.violated_invariants(),
    }
}

/// Model checks one Bakery-family configuration.
#[must_use]
pub fn check_bakery_pp(n: usize, bound: u64, max_states: usize) -> CheckOutcome {
    let spec = BakeryPlusPlusSpec::new(n, bound);
    let report = ModelChecker::new(&spec)
        .with_paper_invariants()
        .with_max_states(max_states)
        .run();
    outcome_from_report("bakery++".into(), n, bound, &report)
}

/// The two-level binary tree specification with the given active process
/// subset (`None` = all four leaves live), and its row name.
fn tree_spec(active: Option<&[usize]>) -> (TreeBakerySpec, String) {
    match active {
        Some(pids) => (
            TreeBakerySpec::new(2, 2).with_active_processes(pids),
            format!("tree-bakery (2-level, active {pids:?})"),
        ),
        None => (
            TreeBakerySpec::new(2, 2),
            "tree-bakery (2-level, all 4)".into(),
        ),
    }
}

/// Model checks the tree-composite lock's two-level binary specification
/// with the given active process subset.
///
/// Tree rows run with the orbit-wise symmetry compression: the visited set
/// stores one canonical representative per leaf-placement orbit, which is
/// what lets the full four-process row close out (see the `mc-exhaustive`
/// CI job), and the canonical column reports the orbit count.
#[must_use]
pub fn check_tree(active: &[usize], max_states: usize) -> CheckOutcome {
    let (spec, algorithm) = tree_spec(Some(active));
    let report = ModelChecker::new(&spec)
        .with_paper_invariants()
        .with_symmetry_reduction(true)
        .with_max_states(max_states)
        .run();
    outcome_from_report(algorithm, active.len(), spec.bound(), &report)
}

/// Model checks the bounded classic Bakery.
#[must_use]
pub fn check_classic_bakery(n: usize, bound: u64, max_states: usize) -> CheckOutcome {
    let spec = BakerySpec::new(n, bound);
    let report = ModelChecker::new(&spec)
        .with_paper_invariants()
        .with_max_states(max_states)
        .run();
    outcome_from_report("bakery".into(), n, bound, &report)
}

fn push_outcome(table: &mut Table, outcome: &CheckOutcome) {
    table.push_row(vec![
        outcome.algorithm.clone().into(),
        outcome.n.into(),
        outcome.bound.into(),
        outcome.states.into(),
        (outcome.symmetry_order > 1)
            .then_some(outcome.canonical_states)
            .into(),
        outcome.symmetry_order.into(),
        outcome.transitions.into(),
        outcome.complete.into(),
        if outcome.violated.is_empty() {
            "holds".into()
        } else {
            format!("VIOLATED: {}", outcome.violated.join(", ")).into()
        },
        outcome.violation_depth.into(),
    ]);
}

/// Runs E2 and renders its tables.
///
/// # Panics
/// Panics if the scaling runs disagree across thread counts or fail to
/// verify (see [`scaling_rows`]).
#[must_use]
pub fn run(quick: bool) -> Vec<Table> {
    // The scaling runs go first: in full mode the 1-thread close-out doubles
    // as the main table's four-process tree row.
    let scaling = scaling_rows(quick);
    let max_states = if quick { 300_000 } else { 3_000_000 };
    let mut table = Table::new(
        "E2 — exhaustive model checking (NoOverflow ∧ MutualExclusion)",
        &[
            "algorithm",
            "N",
            "M",
            "states",
            "canonical orbits",
            "symmetry order",
            "transitions",
            "complete",
            "verdict",
            "violation depth",
        ],
    );

    let mut configs: Vec<(usize, u64)> = vec![(2, 2), (2, 3), (2, 4)];
    if !quick {
        configs.push((3, 2));
        configs.push((3, 3));
    }
    for &(n, bound) in &configs {
        push_outcome(&mut table, &check_bakery_pp(n, bound, max_states));
        push_outcome(&mut table, &check_classic_bakery(n, bound, max_states));
    }
    // Tree composition: both two-process placements close out exhaustively;
    // the full four-process tree closes out too, but only with the full-run
    // state budget (quick mode stays bounded).
    push_outcome(&mut table, &check_tree(&[0, 1], max_states));
    push_outcome(&mut table, &check_tree(&[0, 2], max_states));
    if !quick {
        push_outcome(&mut table, &scaling[0].outcome);
    }
    table.push_note(
        "Bakery++ satisfies both invariants on every reachable state (the paper's Theorem, §6.1); \
         the classic Bakery on the same bounded registers reaches an overflow state.  The \
         tree-bakery rows check the tournament composition of Bakery++ nodes (per-node M = K+1) \
         with the orbit-compressed visited set (leaf-placement symmetry, canonical column = \
         orbit count): two-process placements verify exhaustively in any mode, and the full \
         four-process tree **closes out exhaustively** in full mode and in the mc-exhaustive CI \
         job — 39,624,406 states, 8,052,063 canonical orbits (/8), zero violations; that row \
         is E2c's 1-thread run, which also checks the tree's path-ownership invariant.  A \
         dash in the canonical column means no symmetry compression; complete = no marks a \
         budget-bounded run.",
    );

    let mut semantics_table = Table::new(
        "E2b — state-space size: atomic vs safe (flickering) registers",
        &[
            "algorithm",
            "N",
            "M",
            "atomic states",
            "safe states",
            "blowup (x)",
            "complete",
        ],
    );
    for row in semantics_rows(quick) {
        semantics_table.push_row(vec![
            row.algorithm.into(),
            row.n.into(),
            row.bound.into(),
            row.atomic_states.into(),
            row.safe_states.into(),
            num(row.blowup, 2),
            row.complete.into(),
        ]);
    }
    semantics_table.push_note(
        "The same configurations explored under both register models (pure reachability).  \
         Safe semantics splits every shared-register write into a begin and a commit step and \
         branches every overlapping read over the whole register domain, so the state space \
         grows by the listed factor — and the weak-register close-outs in `bakery-mc` \
         (`tests/weak_registers.rs`) verify the paper invariants over exactly these enlarged \
         spaces.",
    );
    vec![table, semantics_table, scaling_table(&scaling)]
}

/// State budget of the full four-process close-out row (full mode only):
/// comfortably above the 39.6 M reachable states.
pub const TREE_CLOSEOUT_BUDGET: usize = 60_000_000;

/// One atomic-vs-safe register-semantics comparison: the same configuration
/// explored exhaustively under both register models (pure reachability, no
/// invariants, so a violation cannot cut the exploration short and the two
/// state counts compare like for like).
#[derive(Debug, Clone)]
pub struct SemanticsRow {
    /// Algorithm name.
    pub algorithm: String,
    /// Number of processes.
    pub n: usize,
    /// Register bound M.
    pub bound: u64,
    /// Reachable states under [`RegisterSemantics::Atomic`].
    pub atomic_states: usize,
    /// Reachable states under [`RegisterSemantics::Safe`] (writes split into
    /// begin/commit, overlapping reads branch over the register domain).
    pub safe_states: usize,
    /// `safe_states / atomic_states` — the cost of the weaker register model.
    pub blowup: f64,
    /// Both explorations closed out (`truncated == false` twice).
    pub complete: bool,
}

/// Explores one Bakery-family configuration under both register semantics
/// and reports the state-space sizes side by side.
#[must_use]
pub fn semantics_row(classic: bool, n: usize, bound: u64, max_states: usize) -> SemanticsRow {
    let explore = |semantics: RegisterSemantics| {
        if classic {
            let spec = BakerySpec::new(n, bound).with_semantics(semantics);
            ModelChecker::new(&spec).with_max_states(max_states).run()
        } else {
            let spec = BakeryPlusPlusSpec::new(n, bound).with_semantics(semantics);
            ModelChecker::new(&spec).with_max_states(max_states).run()
        }
    };
    let atomic = explore(RegisterSemantics::Atomic);
    let safe = explore(RegisterSemantics::Safe);
    #[allow(clippy::cast_precision_loss)]
    let blowup = safe.states as f64 / atomic.states.max(1) as f64;
    SemanticsRow {
        algorithm: if classic { "bakery" } else { "bakery++" }.to_string(),
        n,
        bound,
        atomic_states: atomic.states,
        safe_states: safe.states,
        blowup,
        complete: !atomic.truncated && !safe.truncated,
    }
}

/// The atomic-vs-safe comparison rows for the n = 2 / n = 3 close-outs
/// (quick mode keeps only the two-process rows).
#[must_use]
pub fn semantics_rows(quick: bool) -> Vec<SemanticsRow> {
    let max_states = 3_000_000;
    let mut rows = vec![
        semantics_row(false, 2, 3, max_states),
        semantics_row(true, 2, 3, max_states),
    ];
    if !quick {
        rows.push(semantics_row(false, 3, 3, max_states));
        rows.push(semantics_row(true, 3, 2, max_states));
    }
    rows
}

/// One row of the E2c scaling table: one exhaustive exploration of the
/// scaling configuration at one worker-thread count.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Worker threads of the run.
    pub threads: usize,
    /// Wall-clock seconds of the exploration (excluding spec construction).
    pub wall_s: f64,
    /// The exploration's verdict and counts.  In full mode the 1-thread
    /// run's outcome is also the main table's four-process tree row.
    pub outcome: CheckOutcome,
    /// Deepest expanded BFS level.
    pub max_depth: usize,
    /// Replay-determinism digest — must be identical across the rows of one
    /// configuration, whatever the thread count.
    pub frontier_digest: u64,
    /// Concrete states per wall-clock second.
    pub states_per_sec: f64,
    /// `states_per_sec / threads` — the work-efficiency figure: flat across
    /// thread counts means the parallel engine adds no per-state overhead.
    pub states_per_sec_per_core: f64,
    /// Analytic resident footprint of the sharded visited set (arena words +
    /// variant masks + concrete log/parent metadata + index estimate).
    pub store_bytes: usize,
    /// Peak resident set of the *process* (`VmHWM`) after the run, in bytes;
    /// 0 where `/proc` is unavailable.  The kernel high-water mark is
    /// monotone, so within one runner invocation later rows inherit the
    /// ceiling of earlier ones — it bounds, not measures, each row.
    pub peak_rss_bytes: usize,
}

impl ScalingRow {
    /// What the exploration found — states, orbits, transitions, depth and
    /// frontier digest — which must not depend on the thread count.
    #[must_use]
    pub fn exploration(&self) -> (usize, usize, usize, usize, u64) {
        (
            self.outcome.states,
            self.outcome.canonical_states,
            self.outcome.transitions,
            self.max_depth,
            self.frontier_digest,
        )
    }
}

/// Reads the process's peak resident set (`VmHWM`) in bytes (0 when
/// `/proc/self/status` is unavailable, e.g. off Linux).
#[must_use]
pub fn peak_rss_bytes() -> usize {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<usize>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Analytic size of the sharded visited set: canonical codes in the arenas,
/// one variant mask per orbit, one log + parent word per concrete state, and
/// ~16 bytes per orbit for the fingerprint index (hash-map entry plus load
/// factor).  An estimate — it deliberately ignores allocator slack.
fn store_bytes_estimate(stride: usize, states: usize, canonical: usize) -> usize {
    canonical * (stride * 8 + 8 + 16) + states * 16
}

/// Runs the E2 scaling configuration once at `threads` workers.
///
/// Full mode explores the close-out configuration of the `mc-exhaustive` CI
/// job — the complete 4-process tree with the paper invariants, the tree
/// path invariant and orbit compression (~39.6 M states); quick mode runs
/// the 2-process leaf placement of the same spec, which closes out in
/// seconds.
///
/// # Panics
/// Panics if the configuration violates an invariant or does not close out.
#[must_use]
pub fn scaling_row(quick: bool, threads: usize) -> ScalingRow {
    let active: Option<&[usize]> = if quick { Some(&[0, 1]) } else { None };
    let budget = if quick {
        3_000_000
    } else {
        TREE_CLOSEOUT_BUDGET
    };
    let (spec, algorithm) = tree_spec(active);
    let stride = bakery_mc::StateCodec::new(&spec).words_per_state();
    let start = std::time::Instant::now();
    let report = ModelChecker::new(&spec)
        .with_paper_invariants()
        .with_invariant(TreeBakerySpec::cs_holder_owns_path())
        .with_symmetry_reduction(true)
        .with_max_states(budget)
        .with_threads(threads)
        .run();
    let wall_s = start.elapsed().as_secs_f64();
    assert!(report.holds(), "the scaling configuration must verify: {report}");
    assert!(!report.truncated, "the scaling configuration must close out");
    #[allow(clippy::cast_precision_loss)]
    let states_per_sec = report.states as f64 / wall_s.max(1e-9);
    #[allow(clippy::cast_precision_loss)]
    let per_core = states_per_sec / threads as f64;
    ScalingRow {
        threads,
        wall_s,
        outcome: outcome_from_report(
            algorithm,
            active.map_or(4, <[usize]>::len),
            spec.bound(),
            &report,
        ),
        max_depth: report.max_depth,
        frontier_digest: report.frontier_digest,
        states_per_sec,
        states_per_sec_per_core: per_core,
        store_bytes: store_bytes_estimate(stride, report.states, report.canonical_states),
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// The scaling configuration at 1, 2 and 4 worker threads.
///
/// # Panics
/// Panics unless every row explored the same space: identical states,
/// orbits, transitions, depth and frontier digest — the parallel explorer's
/// determinism gate.
#[must_use]
pub fn scaling_rows(quick: bool) -> Vec<ScalingRow> {
    let rows: Vec<ScalingRow> = [1, 2, 4].map(|threads| scaling_row(quick, threads)).into();
    for row in &rows[1..] {
        assert_eq!(
            row.exploration(),
            rows[0].exploration(),
            "E2: exploration results must be thread-count invariant ({} threads vs 1)",
            row.threads
        );
    }
    rows
}

/// E2c: the scaling rows as a table.
#[must_use]
pub fn scaling_table(rows: &[ScalingRow]) -> Table {
    let mut table = Table::new(
        "E2c — parallel-explorer scaling: the tree close-out by worker-thread count",
        &[
            "configuration",
            "threads",
            "wall (s)",
            "states",
            "canonical orbits",
            "transitions",
            "max depth",
            "frontier digest",
            "states/s",
            "states/s/core",
            "store bytes (analytic)",
            "peak RSS bytes",
        ],
    );
    for row in rows {
        table.push_row(vec![
            row.outcome.algorithm.clone().into(),
            row.threads.into(),
            num(row.wall_s, 2),
            row.outcome.states.into(),
            row.outcome.canonical_states.into(),
            row.outcome.transitions.into(),
            row.max_depth.into(),
            row.frontier_digest.into(),
            num(row.states_per_sec, 0),
            num(row.states_per_sec_per_core, 0),
            row.store_bytes.into(),
            row.peak_rss_bytes.into(),
        ]);
    }
    table.push_note(
        "Counts and digest are asserted identical across thread counts.  With fewer CPUs than \
         threads (see `cpus`), the multi-thread rows measure oversubscription, not scaling; \
         states/s/core at one thread is the work-efficiency figure.  Peak RSS is the \
         process's high-water mark, so a later row inherits an earlier row's ceiling.",
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pp_holds_exhaustively_for_two_processes() {
        let outcome = check_bakery_pp(2, 3, 1_000_000);
        assert!(outcome.violated.is_empty());
        assert!(outcome.complete);
        assert!(outcome.states > 100);
    }

    #[test]
    fn classic_violates_no_overflow() {
        let outcome = check_classic_bakery(2, 3, 1_000_000);
        assert_eq!(outcome.violated, vec!["NoOverflow".to_string()]);
        assert!(outcome.violation_depth.unwrap() > 0);
    }

    #[test]
    fn quick_table_has_all_algorithms() {
        let tables = run(true);
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].len(), 8, "3 bounded configs x 2 + 2 tree rows");
        let md = tables[0].to_markdown();
        assert!(md.contains("bakery++"));
        assert!(md.contains("tree-bakery"));
        assert!(md.contains("VIOLATED: NoOverflow"));
        assert_eq!(tables[1].len(), 2, "quick mode: the two n=2 semantics rows");
        assert!(tables[1].to_markdown().contains("atomic states"));
        assert_eq!(
            tables[2].len(),
            3,
            "quick mode: one scaling row per thread count"
        );
    }

    #[test]
    fn quick_scaling_rows_are_thread_count_invariant() {
        let rows = scaling_rows(true);
        let threads: Vec<usize> = rows.iter().map(|r| r.threads).collect();
        assert_eq!(threads, [1, 2, 4]);
        for row in &rows {
            assert!(row.outcome.complete && row.outcome.violated.is_empty());
            // States, orbits, transitions, depth and digest all agree.
            assert_eq!(row.exploration(), rows[0].exploration());
        }
        assert!(rows[0].outcome.canonical_states < rows[0].outcome.states);
    }

    #[test]
    fn semantics_rows_show_the_safe_register_blowup() {
        let row = semantics_row(false, 2, 3, 1_000_000);
        assert_eq!(row.atomic_states, 1570);
        assert_eq!(row.safe_states, 3667);
        assert!(row.complete);
        assert!(row.blowup > 2.0);
    }

    #[test]
    fn tree_two_process_placements_hold_exhaustively() {
        for active in [[0usize, 1], [0, 2]] {
            let outcome = check_tree(&active, 2_000_000);
            assert!(outcome.violated.is_empty(), "active {active:?}");
            assert!(outcome.complete, "active {active:?} must close out");
            assert_eq!(outcome.bound, 3);
            assert_eq!(outcome.n, 2);
            // The orbit-wise store is active and actually compresses.
            assert!(outcome.symmetry_order > 1, "active {active:?}");
            assert!(
                outcome.canonical_states < outcome.states,
                "active {active:?}: {} orbits vs {} states",
                outcome.canonical_states,
                outcome.states
            );
        }
    }
}

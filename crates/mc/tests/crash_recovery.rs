//! Exhaustive close-out of the **crash-recovery plane** (paper assumptions
//! 1.5–1.7) over the live lock stack's two verified specifications.
//!
//! PR 6 gives every spec a real `Algorithm::crash` transition — crash and
//! restart collapsed into one atomic step that zeroes the victim's owned
//! registers (for the tree: exactly the slots of the levels it had engaged)
//! and returns it to its noncritical section.  These tests explore
//! the crash-*extended* state spaces exhaustively and check, on every
//! reachable state:
//!
//! * **MutualExclusion** and **NoOverflow** — the paper invariants must
//!   survive a crash at *every* protocol point, including mid-doorway and
//!   inside the critical section;
//! * **CrashResetsOwnRegisters** — every available crash transition lands
//!   the victim in its NCS with all the registers it owns reading zero
//!   (assumption 1.7 as a checkable predicate);
//! * **CrashedPidMayReenter** — a freshly crashed process is never wedged:
//!   it has at least one program successor, i.e. it can re-enter its doorway
//!   (assumption 1.5's "restarts in its noncritical section");
//! * spec-specific safety (`cs_holder_owns_path`) — in particular the tree
//!   close-out is the proof
//!   that a crash wipes only the *victim's* engaged slots and never a
//!   sibling's tickets in the shared upper-level slots (the aliasing hazard
//!   the live lock's `engaged[]` mark exists to prevent);
//! * no deadlock anywhere in the extended space — a crash may abandon a
//!   scan, but someone can always move.
//!
//! As everywhere in this suite, a passing close-out is only meaningful if
//! the harness would catch a lie, so a deliberately-false crash claim is
//! checked to produce a counterexample.

use bakery_mc::ModelChecker;
use bakery_sim::{Algorithm, Invariant, ProgState, RegisterSemantics};
use bakery_spec::{BakeryPlusPlusSpec, TreeBakerySpec};

/// *CrashResetsOwnRegisters*: from every reachable state, every crash
/// transition on offer leaves the victim at its NCS (pc 0 across all shipped
/// specs) with each register it owns reading zero — and, under
/// [`RegisterSemantics::Safe`], with no write of the victim's still in
/// flight: a crash mid-write aborts the write, dropping the pending value
/// rather than committing it.
///
/// The owned-register indices are precomputed from `alg` — rebuilding the
/// full `RegisterSpec` list per checked state would dominate a
/// multi-million-state exploration (same reasoning as
/// [`Invariant::register_bounds_for`]).
fn crash_resets_own_registers<A: Algorithm>(alg: &A) -> Invariant<A> {
    let owned: Vec<Vec<usize>> = {
        let specs = alg.registers();
        (0..alg.processes())
            .map(|pid| {
                specs
                    .iter()
                    .enumerate()
                    .filter(|(_, spec)| spec.owner == Some(pid))
                    .map(|(idx, _)| idx)
                    .collect()
            })
            .collect()
    };
    Invariant::new(
        "CrashResetsOwnRegisters",
        move |alg: &A, state: &ProgState| {
            (0..owned.len()).all(|pid| match alg.crash(state, pid) {
                None => true,
                Some(next) => {
                    next.pc(pid) == 0
                        && owned[pid].iter().all(|&idx| next.read(idx) == 0)
                        && next.write_in_progress_by(pid).is_none()
                }
            })
        },
    )
}

/// *CrashedPidMayReenter*: a crash never wedges its victim — from the
/// post-crash state the victim has at least one enabled program step, so it
/// can start a fresh doorway.
fn crashed_pid_may_reenter<A: Algorithm>() -> Invariant<A> {
    Invariant::new("CrashedPidMayReenter", |alg: &A, state: &ProgState| {
        (0..alg.processes()).all(|pid| match alg.crash(state, pid) {
            None => true,
            Some(next) => !alg.successors_vec(&next, pid).is_empty(),
        })
    })
}

/// Asserts a crash-extended exploration closed out clean.
fn assert_clean(report: &bakery_mc::ExplorationReport, what: &str) {
    assert!(
        !report.truncated,
        "{what}: the crash-extended space must close out exhaustively, got {} states",
        report.states
    );
    assert!(
        report.violations.is_empty(),
        "{what}: {:?}",
        report.violated_invariants()
    );
    assert!(report.deadlocks.is_empty(), "{what}: {:?}", report.deadlocks);
    assert!(report.states > 0, "{what}");
}

fn close_out_bakery_pp(n: usize, bound: u64, budget: usize) {
    let spec = BakeryPlusPlusSpec::new(n, bound);
    let report = ModelChecker::new(&spec)
        .with_paper_invariants()
        .with_invariant(crash_resets_own_registers(&spec))
        .with_invariant(crashed_pid_may_reenter())
        .with_crashes(true)
        .with_max_states(budget)
        .run();
    assert_clean(&report, &format!("bakery++ n={n} M={bound} + crashes"));
    println!("bakery++ crash close-out n={n}: {report}");
}

#[test]
fn bakery_pp_two_processes_close_out_with_crashes() {
    close_out_bakery_pp(2, 2, 500_000);
}

#[test]
fn bakery_pp_three_processes_close_out_with_crashes() {
    close_out_bakery_pp(3, 3, 8_000_000);
}

/// **Crash during a write** (the weak-register plane meets the crash
/// plane): under [`RegisterSemantics::Safe`] every write is a begin/commit
/// pair, and a crash may land exactly between them.  The paper's recovery
/// assumption (1.7) then demands the pending value be *dropped*, not
/// committed — the victim restarts with its registers zeroed and no write of
/// its own still in flight.  This row explores the crash-extended safe
/// state space exhaustively with the strengthened
/// `CrashResetsOwnRegisters` (which now also rejects any surviving
/// in-flight write of the victim's) plus the paper invariants.
#[test]
fn bakery_pp_crash_during_write_closes_out_under_safe_registers() {
    let spec = BakeryPlusPlusSpec::new(2, 2).with_semantics(RegisterSemantics::Safe);
    let report = ModelChecker::new(&spec)
        .with_paper_invariants()
        .with_invariant(Invariant::crashed_registers_are_zero())
        .with_invariant(crash_resets_own_registers(&spec))
        .with_invariant(crashed_pid_may_reenter())
        .with_crashes(true)
        .with_max_states(2_000_000)
        .run();
    assert_clean(&report, "bakery++ n=2 M=2 safe + crashes");

    // The row has bite only if crashes are actually offered mid-write:
    // drive the spec into an in-flight ticket write by hand and watch the
    // crash abort it.
    let mut state = spec.initial_state();
    'outer: for _ in 0..64 {
        for next in spec.successors_vec(&state, 0) {
            if next.write_in_progress_by(0).is_some() {
                state = next;
                break 'outer;
            }
        }
        state = spec.successors_vec(&state, 0).remove(0);
    }
    let idx = state
        .write_in_progress_by(0)
        .expect("p0 must reach an in-flight write within 64 solo steps");
    let crashed = spec.crash(&state, 0).expect("crash is offered mid-write");
    assert!(crashed.write_in_progress_by(0).is_none(), "write aborted");
    assert_eq!(crashed.read(idx), 0, "pending value dropped, register zeroed");
}

#[test]
fn crashes_strictly_enlarge_the_explored_behaviour() {
    // The close-outs above would be vacuous if `with_crashes(true)` were a
    // no-op: the crash-extended run must take strictly more transitions
    // (every non-NCS configuration offers a crash) over at least as many
    // states.
    let spec = BakeryPlusPlusSpec::new(2, 2);
    let plain = ModelChecker::new(&spec)
        .with_paper_invariants()
        .with_max_states(500_000)
        .run();
    let crashed = ModelChecker::new(&spec)
        .with_paper_invariants()
        .with_crashes(true)
        .with_max_states(500_000)
        .run();
    assert!(!plain.truncated && !crashed.truncated);
    assert!(
        crashed.transitions > plain.transitions,
        "crash transitions must show up: {} vs {}",
        crashed.transitions,
        plain.transitions
    );
    assert!(crashed.states >= plain.states);
}

/// The two interesting two-process placements of the 2-level binary tree
/// (sharing a leaf vs meeting only at the root), crash-extended.  The root
/// slots are *shared* between sibling pids, so these close-outs are the
/// exhaustive proof that a crash transition zeroes only the victim's engaged
/// prefix and never a ticket the surviving sibling holds in the same slot.
#[test]
fn tree_two_process_placements_close_out_with_crashes() {
    for active in [[0usize, 1], [0, 2]] {
        let spec = TreeBakerySpec::new(2, 2).with_active_processes(&active);
        let report = ModelChecker::new(&spec)
            .with_paper_invariants()
            .with_invariant(TreeBakerySpec::cs_holder_owns_path())
            .with_invariant(crash_resets_own_registers(&spec))
            .with_invariant(crashed_pid_may_reenter())
            .with_crashes(true)
            .with_max_states(4_000_000)
            .run();
        assert_clean(&report, &format!("tree active={active:?} + crashes"));
        println!("tree crash close-out active={active:?}: {report}");
    }
}

#[test]
fn full_four_process_tree_shows_no_crash_violation_within_budget() {
    // Debug-friendly bounded prefix of the full crash-extended tree; the
    // release-only close-out below covers the whole space.
    let spec = TreeBakerySpec::new(2, 2);
    let report = ModelChecker::new(&spec)
        .with_paper_invariants()
        .with_invariant(TreeBakerySpec::cs_holder_owns_path())
        .with_invariant(crash_resets_own_registers(&spec))
        .with_invariant(crashed_pid_may_reenter())
        .with_symmetry_reduction(true)
        .with_crashes(true)
        .with_max_states(120_000)
        .run();
    assert!(report.violations.is_empty(), "{report}");
    assert!(report.deadlocks.is_empty(), "{report}");
}

/// **The crash close-out** (PR 6 tentpole): the full 4-process, 2-level tree
/// with a crash transition available from every non-NCS configuration is
/// explored exhaustively — `truncated == false` — with zero violations of
/// the paper invariants, the path-ownership invariant and both crash
/// invariants, and zero deadlocks.
///
/// The crash-extended space is a superset of the 39.6 M-state crash-free
/// close-out, so this runs in release only (the `crash-matrix` CI job);
/// `cargo test --release -p bakery-mc crash` exercises it locally.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs in release only (crash-matrix CI job): larger than the 40 M-state crash-free space"
)]
fn full_four_process_tree_closes_out_with_crashes() {
    // The crash-matrix CI job sets MC_THREADS to the runner's core count;
    // the parallel explorer's reduction is deterministic, so the verdict and
    // counts are identical at any value.
    let threads = std::env::var("MC_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let spec = TreeBakerySpec::new(2, 2);
    let report = ModelChecker::new(&spec)
        .with_paper_invariants()
        .with_invariant(TreeBakerySpec::cs_holder_owns_path())
        .with_invariant(crash_resets_own_registers(&spec))
        .with_invariant(crashed_pid_may_reenter())
        .with_symmetry_reduction(true)
        .with_crashes(true)
        .with_max_states(150_000_000)
        .with_threads(threads)
        .run();
    assert_clean(&report, "full 4-process tree + crashes");
    assert_eq!(report.symmetry_order, 8, "full wreath group S2 wr S2");
    println!("tree crash close-out n=4: {report}");
    if let Ok(path) = std::env::var("MC_CRASH_SUMMARY_OUT") {
        let json = bakery_json::to_string_pretty(&report).expect("report serialises");
        std::fs::write(&path, json).expect("failed to write the crash close-out summary");
    }
}

#[test]
fn a_false_crash_claim_is_detectable() {
    // Harness sanity: the crash invariants above call `Algorithm::crash`
    // inside their predicates, so a checker bug that never evaluated them on
    // the crash-extended space would green-light anything.  Tighten
    // CrashResetsOwnRegisters into a claim that is genuinely false — "a
    // crash zeroes *every* shared register" — and demand a counterexample
    // (any state where the survivor holds a ticket refutes it).
    let spec = BakeryPlusPlusSpec::new(2, 2);
    let broken = Invariant::<BakeryPlusPlusSpec>::new(
        "CrashZeroesTheWholeFile",
        |alg: &BakeryPlusPlusSpec, state: &ProgState| {
            (0..alg.processes()).all(|pid| match alg.crash(state, pid) {
                None => true,
                Some(next) => (0..next.shared.len()).all(|idx| next.read(idx) == 0),
            })
        },
    );
    let report = ModelChecker::new(&spec)
        .with_invariant(broken)
        .with_crashes(true)
        .with_max_states(500_000)
        .run();
    assert!(!report.truncated);
    assert_eq!(
        report.violated_invariants(),
        vec!["CrashZeroesTheWholeFile".to_string()]
    );
    assert!(
        report.violations[0].depth > 0,
        "counterexample must be a real trace"
    );
}

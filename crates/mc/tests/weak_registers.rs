//! Exhaustive close-out of the **weak-register semantics plane**: the bakery
//! verified under Lamport's *safe* (non-atomic, "flickering") registers.
//!
//! The headline claim of Lamport's original paper — and the assumption the
//! source paper's Bakery++ inherits — is that the bakery needs **no atomic
//! registers at all**: a read that overlaps a write may return any value in
//! the register's domain and the algorithm stays correct.  PR 10 turns that
//! assumption into a checkable model ([`RegisterSemantics::Safe`]: every
//! write splits into a begin and a commit step, overlapping reads branch
//! over `[0, bound]`, overlapping multi-writer writes clash) and this suite
//! is the close-out:
//!
//! * **Atomic differential pins** — with the knob off, every shipped
//!   specification explores a state space that is state-count-, transition-,
//!   depth- and digest-identical at 1 and 4 threads, pinned against the
//!   measured constants.  Atomic-mode states carry no pending-write cells at
//!   all, and the packed codec appends its weak lanes *after* the atomic
//!   layout, so the knob is zero-cost off by construction — these pins make
//!   that checkable.
//! * **Bakery++ close-outs** — n = 2 and n = 3 exhaustively under safe
//!   registers (debug, every PR), n = 4 with symmetry reduction in release
//!   (the CI `weak-registers` leg): `truncated == false`, zero violations of
//!   the paper invariants, zero deadlocks.
//! * **Classic Bakery close-outs** — mutual exclusion holds under safe
//!   registers *as long as the ticket domain has not overflowed*.  The spec
//!   approximates the unbounded ticket domain with the `M + 1` saturation
//!   sentinel, and once two tickets collide at the cap the pid tie-break can
//!   invert the true ticket order — so the honest checkable invariant is
//!   `MutualExclusionWithinBound`: mutex, *or* a saturated register is
//!   visible in the state.  A companion test pins the artifact itself: the
//!   only mutex counterexamples run through the sentinel.
//! * **The Peterson negative control** — Peterson *requires* atomic
//!   registers.  Under safe semantics the overlapping writes to its
//!   multi-writer `turn` register clash and mutual exclusion fails; the
//!   shortest counterexample is pinned (depth 12), replayed step by step
//!   through the specification's own `successors`, and demanded identical at
//!   every thread count.  A semantics knob that never changed any verdict
//!   would be vacuous.
//! * **The safe-register read contract** — property-based random walks check
//!   that reads overlapping an in-progress write flicker over exactly the
//!   declared domain (never the overflow sentinel) and that non-overlapping
//!   reads return exactly the last committed value.

use bakery_mc::{ExplorationReport, ModelChecker, Violation};
use bakery_sim::{Algorithm, Invariant, ProgState, RegisterSemantics};
use bakery_spec::{BakeryPlusPlusSpec, BakerySpec, PetersonSpec, TicketSpec, TreeBakerySpec};
use proptest::prelude::*;

/// Worker threads for the release close-out: `MC_THREADS` (the CI
/// `weak-registers` leg sets it to the runner's core count), default 1.
fn mc_threads() -> usize {
    std::env::var("MC_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Asserts an exploration closed out clean: exhaustive, no violations, no
/// deadlocks.
fn assert_clean(report: &ExplorationReport, what: &str) {
    assert!(
        !report.truncated,
        "{what}: must close out exhaustively, got {} states",
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

// ---------------------------------------------------------------------------
// Atomic differential pins: the knob is zero-cost off.
// ---------------------------------------------------------------------------

/// One differential pin: `(states, canonical_states, transitions, max_depth,
/// frontier_digest)` of the default (atomic, no-invariant) exploration.
type Pin = (usize, usize, usize, usize, u64);

fn assert_pinned(report: &ExplorationReport, pin: Pin, what: &str) {
    assert_eq!(report.states, pin.0, "{what}: states");
    assert_eq!(report.canonical_states, pin.1, "{what}: canonical states");
    assert_eq!(report.transitions, pin.2, "{what}: transitions");
    assert_eq!(report.max_depth, pin.3, "{what}: max depth");
    assert_eq!(
        report.frontier_digest, pin.4,
        "{what}: frontier digest (state *contents* changed, not just counts)"
    );
    assert!(!report.truncated, "{what}");
}

/// With `RegisterSemantics::Atomic` (the default), every shipped spec must
/// explore exactly the state space it always did — pinned constants, at one
/// worker and at four.  Atomic states carry an empty pending-write vector and
/// the codec's weak lanes are only allocated under `Safe`, so a drift in any
/// of these numbers means the knob leaked into the atomic model.
#[test]
fn atomic_mode_is_pinned_and_thread_count_invariant() {
    fn check<A: Algorithm>(spec: &A, pin: Pin, what: &str) {
        assert_eq!(spec.register_semantics(), RegisterSemantics::Atomic, "{what}");
        assert!(
            spec.initial_state().writes.is_empty(),
            "{what}: atomic states must not carry pending-write cells"
        );
        for threads in [1, 4] {
            let report = ModelChecker::new(spec).with_threads(threads).run();
            assert_pinned(&report, pin, &format!("{what} x{threads}"));
        }
    }
    check(
        &BakerySpec::new(2, 3),
        (1018, 1018, 1842, 66, 0xdf5d_3995_03a9_6ff4),
        "bakery(2,3)",
    );
    check(
        &BakeryPlusPlusSpec::new(2, 3),
        (1570, 1570, 2968, 83, 0xedc8_2213_77d0_e149),
        "bakery++(2,3)",
    );
    check(
        &BakeryPlusPlusSpec::new(3, 2),
        (75_102, 75_102, 214_086, 145, 0x3eae_d946_6df9_41bb),
        "bakery++(3,2)",
    );
    check(
        &PetersonSpec::new(),
        (34, 34, 62, 9, 0xb013_b0cc_edf2_561a),
        "peterson",
    );
    check(
        &TicketSpec::new(2, 3),
        (208, 208, 400, 26, 0xf7dc_4b25_7571_3b64),
        "ticket(2,3)",
    );
    check(
        &TreeBakerySpec::new(2, 2).with_active_processes(&[0, 1]),
        (3166, 3166, 6016, 146, 0x5eb8_9d02_7571_ab50),
        "tree(2,2) active=[0,1]",
    );
}

/// The Bakery-family step body under the models the atomic table above does
/// not reach: safe registers, the crash transition, and a tree placement
/// whose paths meet only at the root.  The safe close-outs below pin only
/// their state counts and the crash close-outs only their verdicts, so these
/// full pins (at one worker and at four) are what catches a drift in the
/// successor sets or the crash rule of the shared program.
#[test]
fn bakery_family_safe_crash_and_root_only_pins_are_thread_count_invariant() {
    fn check<A: Algorithm>(spec: &A, crashes: bool, pin: Pin, what: &str) {
        for threads in [1, 4] {
            let report = ModelChecker::new(spec)
                .with_crashes(crashes)
                .with_threads(threads)
                .run();
            assert_pinned(&report, pin, &format!("{what} x{threads}"));
        }
    }
    let safe = RegisterSemantics::Safe;
    check(
        &BakerySpec::new(2, 3).with_semantics(safe),
        false,
        (3065, 3065, 5808, 60, 0xd5c1_a560_d6c8_4d76),
        "bakery(2,3) safe",
    );
    check(
        &BakeryPlusPlusSpec::new(2, 3).with_semantics(safe),
        false,
        (3667, 3667, 7195, 66, 0xaf7f_7d65_3f97_3d09),
        "bakery++(2,3) safe",
    );
    check(
        &BakerySpec::new(2, 3),
        true,
        (1094, 1094, 3820, 46, 0xd8d7_45a9_07ea_138b),
        "bakery(2,3) + crashes",
    );
    check(
        &BakeryPlusPlusSpec::new(2, 3),
        true,
        (1635, 1635, 6058, 68, 0x9b42_ddfa_7956_8a34),
        "bakery++(2,3) + crashes",
    );
    check(
        &BakeryPlusPlusSpec::new(2, 3).with_semantics(safe),
        true,
        (3754, 3754, 14_345, 55, 0xef27_73f3_6d4d_d45e),
        "bakery++(2,3) safe + crashes",
    );
    check(
        &TreeBakerySpec::new(2, 2).with_active_processes(&[0, 1]),
        true,
        (3291, 3291, 12_462, 83, 0x1711_152a_b8dd_8367),
        "tree(2,2) active=[0,1] + crashes",
    );
    check(
        &TreeBakerySpec::new(2, 2).with_active_processes(&[0, 2]),
        false,
        (3614, 3614, 7056, 162, 0xeb52_1158_4e88_9da4),
        "tree(2,2) active=[0,2]",
    );
}

// ---------------------------------------------------------------------------
// Bakery++ under safe registers: the paper invariants close out.
// ---------------------------------------------------------------------------

fn close_out_pp_safe(n: usize, bound: u64, budget: usize) -> ExplorationReport {
    let spec = BakeryPlusPlusSpec::new(n, bound).with_semantics(RegisterSemantics::Safe);
    let report = ModelChecker::new(&spec)
        .with_paper_invariants()
        .with_max_states(budget)
        .run();
    assert_clean(&report, &format!("bakery++ n={n} M={bound} safe"));
    report
}

#[test]
fn bakery_pp_two_processes_close_out_under_safe_registers() {
    let report = close_out_pp_safe(2, 3, 100_000);
    assert_eq!(report.states, 3667, "the safe close-out size is pinned");
    // The knob has bite: splitting every write and branching every
    // overlapping read strictly enlarges the atomic space (1570 states).
    assert!(report.states > 2 * 1570);
}

#[test]
fn bakery_pp_three_processes_close_out_under_safe_registers() {
    let report = close_out_pp_safe(3, 3, 2_000_000);
    assert_eq!(report.states, 353_145, "the safe close-out size is pinned");
}

/// **The release close-out** (the CI `weak-registers` leg): four processes
/// under safe registers, the full 14.27 M-state space compressed to 933 771
/// S4 orbits, explored exhaustively with zero violations and zero deadlocks.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs in release only (weak-registers CI leg): 14 M-state space"
)]
fn bakery_pp_four_processes_close_out_under_safe_registers() {
    let spec = BakeryPlusPlusSpec::new(4, 2).with_semantics(RegisterSemantics::Safe);
    let report = ModelChecker::new(&spec)
        .with_paper_invariants()
        .with_symmetry_reduction(true)
        .with_max_states(60_000_000)
        .with_threads(mc_threads())
        .run();
    assert_clean(&report, "bakery++ n=4 M=2 safe");
    assert_eq!(report.symmetry_order, 24, "full S4");
    assert_eq!(report.states, 14_265_474);
    assert_eq!(report.canonical_states, 933_771);
    println!("bakery++ weak-register close-out n=4: {report}");
    if let Ok(path) = std::env::var("MC_WEAK_SUMMARY_OUT") {
        let json = bakery_json::to_string_pretty(&report).expect("report serialises");
        std::fs::write(&path, json).expect("failed to write the weak-register close-out summary");
    }
}

// ---------------------------------------------------------------------------
// Classic Bakery under safe registers: mutex within the ticket bound.
// ---------------------------------------------------------------------------

/// *MutualExclusionWithinBound*: mutual exclusion holds in every state where
/// the ticket domain has not saturated — no register (committed *or* still
/// in flight) holds a value above its declared bound.
///
/// The classic spec models Lamport's unbounded tickets with an `M + 1`
/// saturation sentinel so the state space stays finite.  Once two tickets
/// collide at the cap the pid tie-break can invert the true ticket order and
/// mutex genuinely fails *in the bounded model* — the violation the paper's
/// overflow discussion is about, not a weakness of the bakery under safe
/// registers.  This invariant is the honest claim the bounded model can
/// check: every mutex failure runs through a saturated register.
fn mutual_exclusion_within_bound<A: Algorithm>(alg: &A) -> Invariant<A> {
    let bounds: Vec<u64> = alg.registers().iter().map(|spec| spec.bound).collect();
    Invariant::new(
        "MutualExclusionWithinBound",
        move |alg: &A, state: &ProgState| {
            let saturated = state
                .shared
                .iter()
                .zip(bounds.iter())
                .any(|(value, bound)| value > bound)
                || state
                    .writes
                    .iter()
                    .zip(bounds.iter())
                    .any(|(cell, bound)| cell.writers != 0 && cell.value > *bound);
            saturated || alg.processes_in_cs(state) <= 1
        },
    )
}

fn close_out_classic_safe(n: usize, bound: u64, budget: usize) -> ExplorationReport {
    let spec = BakerySpec::new(n, bound).with_semantics(RegisterSemantics::Safe);
    let report = ModelChecker::new(&spec)
        .with_invariant(mutual_exclusion_within_bound(&spec))
        .with_max_states(budget)
        .run();
    assert_clean(&report, &format!("bakery n={n} M={bound} safe"));
    report
}

#[test]
fn classic_bakery_two_processes_keep_mutex_within_bound_under_safe_registers() {
    let report = close_out_classic_safe(2, 3, 100_000);
    assert_eq!(report.states, 3065, "the safe close-out size is pinned");
}

#[test]
fn classic_bakery_three_processes_keep_mutex_within_bound_under_safe_registers() {
    let report = close_out_classic_safe(3, 2, 1_000_000);
    assert_eq!(report.states, 152_089, "the safe close-out size is pinned");
}

/// The conditional invariant above would be vacuous if plain mutex never
/// failed; pin the saturation artifact it excuses.  The shortest plain-mutex
/// counterexample must actually run through the overflow sentinel (`M + 1 =
/// 4`): without the cap, the second doorway would have computed ticket 5 and
/// Lamport's ordering argument would hold — under safe registers included.
#[test]
fn classic_bakery_mutex_failure_is_the_saturation_artifact() {
    let spec = BakerySpec::new(2, 3).with_semantics(RegisterSemantics::Safe);
    let report = ModelChecker::new(&spec)
        .with_invariant(Invariant::mutual_exclusion())
        .with_max_states(100_000)
        .run();
    assert!(!report.truncated);
    assert_eq!(report.violated_invariants(), vec!["MutualExclusion".to_string()]);
    let violation = &report.violations[0];
    assert_eq!(violation.depth, 41, "shortest counterexample is pinned");
    let final_state = &violation.trace.last().expect("non-empty trace").state;
    assert!(
        final_state.contains("number[0]=4") && final_state.contains("number[1]=4"),
        "the violating state must show both tickets saturated at M+1: {final_state}"
    );
}

// ---------------------------------------------------------------------------
// The Peterson negative control.
// ---------------------------------------------------------------------------

/// Replays a counterexample trace step by step through the specification's
/// own `successors`/`crash` transitions, proving the trace is a real
/// behaviour of the model and returning the final concrete state.  Steps
/// are matched by rendered string, which is exact: `ProgState::render`
/// prints every local and pending write, so distinct states never render
/// alike.
fn replay<A: Algorithm>(spec: &A, violation: &Violation) -> ProgState {
    let registers = spec.registers();
    let mut state = spec.initial_state();
    assert_eq!(
        violation.trace[0].state,
        state.render(&registers),
        "trace must start at the initial state"
    );
    for (i, step) in violation.trace.iter().enumerate().skip(1) {
        let pid = step.pid.unwrap_or_else(|| panic!("step {i} has no pid"));
        let candidates = if step.crash {
            spec.crash(&state, pid).into_iter().collect::<Vec<_>>()
        } else {
            spec.successors_vec(&state, pid)
        };
        state = candidates
            .into_iter()
            .find(|s| s.render(&registers) == step.state)
            .unwrap_or_else(|| panic!("step {i} of the trace is not a successor: {}", step.state));
    }
    state
}

/// Peterson **requires** atomic registers: under safe semantics its
/// multi-writer `turn` register clashes and mutual exclusion fails.  The
/// violation is pinned (depth 12 through the write clash), replayable
/// through the spec's own transition function, and — like every verdict of
/// the deterministic parallel explorer — identical at every thread count.
#[test]
fn peterson_mutex_violation_is_pinned_replayable_and_thread_count_invariant() {
    let spec = PetersonSpec::new().with_semantics(RegisterSemantics::Safe);
    let run = |threads: usize| {
        ModelChecker::new(&spec)
            .with_paper_invariants()
            .with_threads(threads)
            .run()
    };
    let seq = run(1);
    assert!(!seq.truncated);
    assert_eq!(seq.states, 98);
    assert_eq!(seq.transitions, 174);
    assert_eq!(seq.violated_invariants(), vec!["MutualExclusion".to_string()]);

    let violation = &seq.violations[0];
    assert_eq!(violation.depth, 12, "shortest violation is pinned");
    assert!(
        violation.trace.iter().any(|s| s.state.contains("*clash")),
        "the counterexample must run through the multi-writer write clash"
    );

    // Replayable: the trace is a genuine behaviour of the specification, and
    // it really ends with both processes inside the critical section.
    let final_state = replay(&spec, violation);
    assert_eq!(spec.processes_in_cs(&final_state), 2, "both in the CS");

    // Thread-count invariant: verdict, counts, digest and the full rendered
    // counterexample are identical however many workers explore.
    let render = |v: &Violation| v.trace.iter().map(|s| s.state.clone()).collect::<Vec<_>>();
    for threads in [2, 3] {
        let par = run(threads);
        assert_eq!(par.states, seq.states, "threads {threads}");
        assert_eq!(par.transitions, seq.transitions, "threads {threads}");
        assert_eq!(par.frontier_digest, seq.frontier_digest, "threads {threads}");
        assert_eq!(par.violated_invariants(), seq.violated_invariants());
        assert_eq!(par.violations[0].depth, violation.depth);
        assert_eq!(
            render(&par.violations[0]),
            render(violation),
            "threads {threads}: the counterexample must be schedule-independent"
        );
    }

    // And the control's control: with atomic registers Peterson is correct.
    let atomic = ModelChecker::new(&PetersonSpec::new())
        .with_paper_invariants()
        .run();
    assert!(atomic.holds(), "{atomic}");
}

// ---------------------------------------------------------------------------
// The safe-register read contract, property-based.
// ---------------------------------------------------------------------------

proptest! {
    /// Random walks through the safe-register Bakery++ model check the read
    /// contract on every state they visit: a register with no write in
    /// flight reads as exactly its last committed value, and a register with
    /// an overlapping write flickers over exactly `[0, bound]` — every value
    /// of the declared domain, never the overflow sentinel, never a value
    /// from outside it.
    #[test]
    fn safe_reads_flicker_within_bound_and_settle_to_committed(
        seed in 0u64..256,
        walk in 8usize..80,
    ) {
        let spec = BakeryPlusPlusSpec::new(2, 2).with_semantics(RegisterSemantics::Safe);
        let bounds: Vec<u64> = spec.registers().iter().map(|r| r.bound).collect();
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next_rand = move |modulus: usize| {
            // SplitMix64 — keeps the walk deterministic per seed without
            // pulling a full RNG into the test.
            rng ^= rng >> 30;
            rng = rng.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            rng ^= rng >> 27;
            rng = rng.wrapping_mul(0x94D0_49BB_1331_11EB);
            rng ^= rng >> 31;
            (rng % modulus as u64) as usize
        };
        let mut state = spec.initial_state();
        for _ in 0..walk {
            for (idx, &bound) in bounds.iter().enumerate() {
                let reads = state.read_values(idx, bound);
                let in_flight = state.writes.get(idx).is_some_and(|cell| !cell.is_idle());
                match in_flight {
                    false => prop_assert_eq!(
                        reads,
                        state.shared[idx]..=state.shared[idx],
                        "non-overlapping read must return the committed value"
                    ),
                    true => prop_assert_eq!(
                        reads,
                        0..=bound,
                        "overlapping read must flicker over the declared domain"
                    ),
                }
            }
            // Take a random enabled step (there is always one: the checker
            // proves this space deadlock-free).
            let moves: Vec<ProgState> = (0..spec.processes())
                .flat_map(|pid| spec.successors_vec(&state, pid))
                .collect();
            prop_assert!(!moves.is_empty());
            state = moves[next_rand(moves.len())].clone();
        }
    }
}

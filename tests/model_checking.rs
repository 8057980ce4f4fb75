//! Cross-crate integration test: the model checker (bakery-mc) verifies the
//! specifications (bakery-spec) exactly as the paper's TLC run did, and the
//! verdicts line up with the behaviour of the real locks (bakery-core).

use bakery_suite::locks::{
    BakeryLock, BakeryPlusPlusLock, DoorwayOutcome, RawMutexAlgorithm,
};
use bakery_suite::mc::{starvation_report, ModelChecker};
use bakery_suite::sim::{Algorithm, Invariant};
use bakery_suite::spec::{pc, BakeryPlusPlusSpec, BakerySpec, RegisterSemantics};

#[test]
fn paper_verification_bakery_pp_holds_classic_overflows() {
    // The paper's TLC result, reproduced end to end.
    let pp = BakeryPlusPlusSpec::new(2, 3);
    let pp_report = ModelChecker::new(&pp).with_paper_invariants().run();
    assert!(pp_report.holds(), "{pp_report}");

    let classic = BakerySpec::new(2, 3);
    let classic_report = ModelChecker::new(&classic).with_paper_invariants().run();
    assert!(!classic_report.holds());
    assert_eq!(
        classic_report.violated_invariants(),
        vec!["NoOverflow".to_string()]
    );
}

#[test]
fn spec_verdict_matches_real_lock_behaviour() {
    // The model checker says the classic Bakery overflows with M = 3 and two
    // processes; drive the real lock through the §3 alternation and observe
    // the same failure, then observe Bakery++ avoiding it.
    let bound = 3;
    let classic = BakeryLock::with_bound(2, bound);
    let _ = classic.try_doorway(0);
    let mut overflowed = false;
    for round in 0..20 {
        let entering = 1 - (round % 2);
        if matches!(
            classic.try_doorway(entering),
            DoorwayOutcome::Overflowed { .. }
        ) {
            overflowed = true;
            break;
        }
        classic.release(1 - entering);
    }
    assert!(overflowed, "the real bounded Bakery must overflow like its spec");

    let pp = BakeryPlusPlusLock::with_bound(2, bound);
    let _ = pp.try_doorway(0);
    for round in 0..50 {
        let entering = 1 - (round % 2);
        let outcome = pp.try_doorway(entering);
        assert!(
            !matches!(outcome, DoorwayOutcome::Overflowed { .. }),
            "Bakery++ overflowed at round {round}"
        );
        pp.release(1 - entering);
    }
    assert_eq!(pp.stats().snapshot().overflow_attempts, 0);
}

#[test]
fn crash_faults_and_flicker_reads_do_not_break_bakery_pp() {
    let spec = BakeryPlusPlusSpec::new(2, 2).with_semantics(RegisterSemantics::Safe);
    let report = ModelChecker::new(&spec)
        .with_paper_invariants()
        .with_invariant(Invariant::crashed_registers_are_zero())
        .with_crashes(true)
        .run();
    assert!(report.holds(), "{report}");
}

#[test]
fn liveness_scenario_from_section_6_3() {
    // A process parked at L1 can be starved by two fast processes (the paper
    // concedes this); a process that holds a ticket below M cannot.
    let spec = BakeryPlusPlusSpec::new(3, 2);
    let parked = starvation_report(&spec, 2, 150_000, 1, |_, s| s.pc(2) == pc::L1_SCAN).witness;
    assert!(parked.is_some());

    let spec2 = BakeryPlusPlusSpec::new(2, 4);
    let holder = starvation_report(&spec2, 1, 150_000, 1, |alg, s| {
        let ticket = s.read(2 + 1);
        alg.is_trying(s, 1)
            && ticket != 0
            && ticket < 4
            && s.pc(1) != pc::RESET_NUMBER
            && s.pc(1) != pc::WRITE_MAX
            && s.pc(1) != pc::CHECK_BOUND
    })
    .witness;
    assert!(holder.is_none(), "{holder:?}");
}

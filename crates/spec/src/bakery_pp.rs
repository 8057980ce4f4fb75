//! Bakery++ (Algorithm 2): the [`PlusPlus`] doorway of the one Bakery step
//! machine in [`crate::bakery`].
//!
//! ```text
//! constant M;
//! L1: if ∃ q : number[q] ≥ M then goto L1;
//!     choosing[i] := 1;
//!     number[i]   := maximum(number[1], …, number[N]);
//!     if number[i] ≥ M then begin
//!         number[i] := 0; choosing[i] := 0; goto L1;
//!     end
//!     else number[i] := number[i] + 1;
//!     choosing[i] := 0;
//!     … L2, L3, critical section and exit as in Algorithm 1
//! ```
//!
//! The doorway adds exactly the paper's two additions to the shared body:
//! the `L1` admission scan (one `number[q]` read per step, restarting at any
//! value `≥ M`) and the bound check with its reset path (the observed maximum
//! is stored first, then incremented only below `M`).  The specification
//! never stores a value above `M`; the model checker verifies that
//! exhaustively in experiment **E2**.

use crate::bakery::{Doorway, FlatBakerySpec};

/// Algorithm 2's doorway: the `L1` admission scan plus the bound check.
#[derive(Debug, Clone, Copy)]
pub struct PlusPlus;

impl Doorway for PlusPlus {
    const NAME: &'static str = "bakery++";
    const GUARDED: bool = true;
}

/// Bakery++ as a checkable specification.
pub type BakeryPlusPlusSpec = FlatBakerySpec<PlusPlus>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::number_idx;
    use crate::pc;
    use bakery_sim::{
        Algorithm, RandomScheduler, RegisterSemantics, RoundRobinScheduler, RunConfig, Simulator,
    };

    #[test]
    fn single_process_cycles_cleanly() {
        let spec = BakeryPlusPlusSpec::new(1, 4);
        let config = RunConfig::<BakeryPlusPlusSpec>::checked(300);
        let outcome = Simulator::new().run(&spec, &mut RoundRobinScheduler::new(), &config);
        assert!(outcome.report.is_clean(), "{:?}", outcome.report.violations);
        assert!(outcome.report.total_cs_entries() >= 20);
        assert!(outcome.report.max_register_value <= 4);
    }

    #[test]
    fn never_overflows_even_with_tiny_bound() {
        // The headline claim (§6.1): with M = 2 and heavy interleaving the
        // NoOverflow invariant holds on every sampled schedule.
        let spec = BakeryPlusPlusSpec::new(3, 2);
        for seed in 0..30 {
            let config = RunConfig::<BakeryPlusPlusSpec>::checked(5_000);
            let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(seed), &config);
            assert!(
                !outcome
                    .report
                    .violations
                    .iter()
                    .any(|v| v.invariant == "NoOverflow"),
                "seed {seed}: Bakery++ must never overflow"
            );
            assert!(outcome.report.max_register_value <= 2, "seed {seed}");
        }
    }

    #[test]
    fn mutual_exclusion_holds_under_random_schedules() {
        let spec = BakeryPlusPlusSpec::new(2, 5);
        for seed in 0..20 {
            let config = RunConfig::<BakeryPlusPlusSpec>::checked(3_000);
            let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(seed), &config);
            assert!(
                !outcome
                    .report
                    .violations
                    .iter()
                    .any(|v| v.invariant == "MutualExclusion"),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn flicker_reads_preserve_both_invariants() {
        let spec = BakeryPlusPlusSpec::new(2, 4).with_semantics(RegisterSemantics::Safe);
        for seed in 0..10 {
            let config = RunConfig::<BakeryPlusPlusSpec>::checked(3_000);
            let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(seed), &config);
            assert!(
                outcome.report.violations.is_empty(),
                "seed {seed}: {:?}",
                outcome.report.violations
            );
        }
    }

    #[test]
    fn reset_branch_is_reachable_under_contention() {
        // With a tiny bound the overflow-avoidance path must actually fire —
        // otherwise the spec would not be exercising the paper's new code.
        let spec = BakeryPlusPlusSpec::new(3, 2);
        let mut saw_reset = false;
        for seed in 0..30 {
            let config = RunConfig::<BakeryPlusPlusSpec>::checked(5_000);
            let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(seed), &config);
            if outcome.report.overflow_avoidance_resets > 0 {
                saw_reset = true;
                break;
            }
        }
        assert!(saw_reset, "the reset branch should fire for M = 2");
    }

    #[test]
    fn progress_is_comparable_to_classic_bakery_for_large_bounds() {
        // §7: when no overflow machinery triggers, Bakery++ should take about
        // as many steps per CS entry as Bakery (it executes a handful more
        // local steps for the L1 scan).
        use crate::BakerySpec;
        let steps = 20_000;
        let classic = {
            let spec = BakerySpec::new(2, 1_000_000);
            let config = RunConfig::<BakerySpec>::checked(steps);
            Simulator::new()
                .run(&spec, &mut RandomScheduler::new(3), &config)
                .report
                .total_cs_entries()
        };
        let pp = {
            let spec = BakeryPlusPlusSpec::new(2, 1_000_000);
            let config = RunConfig::<BakeryPlusPlusSpec>::checked(steps);
            Simulator::new()
                .run(&spec, &mut RandomScheduler::new(3), &config)
                .report
                .total_cs_entries()
        };
        assert!(pp > 0 && classic > 0);
        let ratio = classic as f64 / pp as f64;
        assert!(
            (0.5..=2.5).contains(&ratio),
            "throughput ratio {ratio} out of expected band (classic {classic}, pp {pp})"
        );
    }

    #[test]
    fn crash_resets_registers_and_restarts() {
        let spec = BakeryPlusPlusSpec::new(2, 3);
        let s0 = spec.initial_state();
        let mut s = s0.clone();
        // Drive process 0 to the point where it holds a ticket.
        for _ in 0..40 {
            let succ = spec.successors_vec(&s, 0);
            if succ.is_empty() || spec.in_critical_section(&s, 0) {
                break;
            }
            s = succ[0].clone();
        }
        assert!(spec.in_critical_section(&s, 0));
        let crashed = spec.crash(&s, 0).expect("crash");
        assert_eq!(crashed.read(number_idx(2, 0)), 0);
        assert_eq!(crashed.pc(0), pc::NCS);
        assert!(spec.crash(&s0, 0).is_none());
    }

    #[test]
    fn observations_report_resets_and_tickets() {
        let spec = BakeryPlusPlusSpec::new(2, 2);
        let config = RunConfig::<BakeryPlusPlusSpec>::checked(5_000);
        let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(11), &config);
        let tickets = outcome.trace.ticket_order();
        assert!(!tickets.is_empty());
        assert!(tickets.iter().all(|&(_, number)| number <= 2));
        assert_eq!(
            outcome.report.overflow_attempts, 0,
            "Bakery++ never emits an Overflowed observation"
        );
    }

    #[test]
    fn bound_accessor_and_labels() {
        let spec = BakeryPlusPlusSpec::new(2, 9);
        assert_eq!(spec.bound(), 9);
        assert_eq!(spec.pc_label(pc::L1_SCAN), "L1-scan");
        assert_eq!(spec.registers().len(), 4);
    }
}

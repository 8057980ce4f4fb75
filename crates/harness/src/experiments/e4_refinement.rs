//! **E4 — §6.2: Bakery++ executions are observably valid Bakery executions.**
//!
//! The paper argues that Bakery++ is a refinement of Bakery: it does not
//! change the execution flow, so every Bakery++ execution is a valid Bakery
//! execution.  We check the observable content of that claim on sampled
//! schedules: the sequence of doorway completions, critical-section entries
//! and exits produced by Bakery++ must satisfy the **Bakery service
//! discipline** — mutual exclusion at the observable level plus
//! first-come-first-served by `(number, pid)` — which is exactly the
//! observable behaviour the original Bakery guarantees.  The classic Bakery
//! itself is run through the same checker as a control.

use bakery_sim::trace::refinement::check_fcfs_by_ticket;
use bakery_sim::{Algorithm, RandomScheduler, RunConfig, Simulator};
use bakery_spec::{BakeryPlusPlusSpec, BakerySpec};

use bakery_json::Value;

use crate::report::Table;

/// Result of the service-discipline check over a batch of sampled schedules.
#[derive(Debug, Clone, Default)]
pub struct DisciplineOutcome {
    /// Schedules sampled.
    pub schedules: u64,
    /// Total critical-section entries across all schedules.
    pub cs_entries: u64,
    /// Schedules on which the Bakery service discipline was violated.
    pub discipline_violations: u64,
    /// Schedules on which the overflow-avoidance machinery fired at least once.
    pub schedules_with_resets: u64,
    /// Schedules on which a register-overflow attempt was observed.
    pub schedules_with_overflows: u64,
}

fn check_discipline<A: Algorithm>(
    spec: &A,
    schedules: u64,
    steps: u64,
) -> DisciplineOutcome {
    let sim = Simulator::new();
    let mut outcome = DisciplineOutcome {
        schedules,
        ..DisciplineOutcome::default()
    };
    for seed in 0..schedules {
        let config = RunConfig::<A>::checked(steps);
        let run = sim.run(spec, &mut RandomScheduler::new(seed), &config);
        outcome.cs_entries += run.report.total_cs_entries();
        if !check_fcfs_by_ticket(&run.trace).holds() {
            outcome.discipline_violations += 1;
        }
        if run.report.overflow_avoidance_resets > 0 {
            outcome.schedules_with_resets += 1;
        }
        if run.report.overflow_attempts > 0 {
            outcome.schedules_with_overflows += 1;
        }
    }
    outcome
}

/// Checks Bakery++ for `n` processes with bound `m`.
#[must_use]
pub fn check_pp(n: usize, m: u64, schedules: u64, steps: u64) -> DisciplineOutcome {
    check_discipline(&BakeryPlusPlusSpec::new(n, m), schedules, steps)
}

/// Checks the classic Bakery (effectively unbounded registers) as a control.
#[must_use]
pub fn check_classic(n: usize, schedules: u64, steps: u64) -> DisciplineOutcome {
    check_discipline(&BakerySpec::new(n, u64::from(u32::MAX)), schedules, steps)
}

/// Runs E4 and renders its table.
#[must_use]
pub fn run(quick: bool) -> Vec<Table> {
    let schedules = if quick { 20 } else { 200 };
    let steps = if quick { 2_000 } else { 10_000 };
    let mut table = Table::new(
        "E4 — refinement: observable Bakery service discipline (FCFS by ticket + mutual exclusion)",
        &[
            "algorithm",
            "N",
            "M",
            "schedules",
            "CS entries",
            "discipline violations",
            "schedules with resets",
        ],
    );
    for &(n, m) in &[(2usize, 1_000u64), (2, 4), (3, 3)] {
        let pp = check_pp(n, m, schedules, steps);
        table.push_row(vec![
            "bakery++".into(),
            n.into(),
            m.into(),
            pp.schedules.into(),
            pp.cs_entries.into(),
            pp.discipline_violations.into(),
            pp.schedules_with_resets.into(),
        ]);
    }
    for &n in &[2usize, 3] {
        let classic = check_classic(n, schedules, steps);
        table.push_row(vec![
            "bakery (control)".into(),
            n.into(),
            Value::Null,
            classic.schedules.into(),
            classic.cs_entries.into(),
            classic.discipline_violations.into(),
            Value::Null,
        ]);
    }
    table.push_note(
        "Zero discipline violations for Bakery++ on every sampled schedule — including those \
         where the reset path fires — means every observed Bakery++ execution is a valid Bakery \
         execution at the observable level, which is the paper's refinement claim.  The \
         control's M is a dash: its registers are unbounded, so it has no reset path.",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refinement_holds_for_large_bound() {
        let outcome = check_pp(2, 1_000, 10, 2_000);
        assert_eq!(outcome.discipline_violations, 0);
        assert_eq!(outcome.schedules_with_overflows, 0);
        assert!(outcome.cs_entries > 0);
    }

    #[test]
    fn refinement_holds_even_when_resets_fire() {
        let outcome = check_pp(3, 2, 10, 3_000);
        assert_eq!(outcome.discipline_violations, 0);
        assert!(
            outcome.schedules_with_resets > 0,
            "a tiny bound should exercise the reset path"
        );
    }

    #[test]
    fn classic_control_also_satisfies_its_own_discipline() {
        let outcome = check_classic(2, 10, 2_000);
        assert_eq!(outcome.discipline_violations, 0);
    }

    #[test]
    fn table_shape() {
        let tables = run(true);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), 5);
    }
}

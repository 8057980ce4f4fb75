//! **E5 — §6.3: the slow-process starvation scenario at `L1`.**
//!
//! The paper admits that a sufficiently slow process could in theory be parked
//! at `L1` forever by two fast processes that keep saturating and resetting
//! the ticket range, and argues this is no worse than the original Bakery
//! (which already lacks a liveness guarantee).  The experiment makes both
//! halves concrete:
//!
//! * the model checker finds a reachable **starvation cycle** in which the
//!   victim stays at `L1` while the fast processes move (the paper's scenario
//!   exists), and shows the matching protection result — a process that has
//!   *completed its doorway* (holds a ticket below `M`) can never be starved;
//! * the simulator quantifies the effect: under an adversarial scheduler the
//!   slow process's share of critical sections collapses, but it recovers as
//!   soon as the scheduler gives it cycles (the "perhaps having such an
//!   incredibly slow process is equivalent to not having it" remark).

use bakery_mc::liveness::starvation_report_where;
use bakery_sim::{AdversarialScheduler, Algorithm, RunConfig, Simulator};
use bakery_spec::{pc, BakeryPlusPlusSpec, BakerySpec};

use crate::report::{num, Table};

/// Model-checking half: starvation-cycle existence per waiting position.
///
/// Every row prints the [`bakery_mc::LivenessReport`] verdict, which
/// distinguishes an exhaustive "no cycle" **proof** from a budget-bounded
/// "no cycle found" — a truncated graph must never be reported as one.
#[must_use]
pub fn starvation_cycle_table(quick: bool) -> Table {
    let max_states = if quick { 120_000 } else { 400_000 };
    let mut table = Table::new(
        "E5a — starvation cycles in the reachable state graph (unfair scheduler)",
        &[
            "algorithm",
            "victim position",
            "witness cycle found",
            "cycle length",
            "verdict",
        ],
    );

    // Bakery++ slow process parked at L1 (the paper's scenario).
    let pp = BakeryPlusPlusSpec::new(3, 2);
    let at_l1 = starvation_report_where(&pp, 2, max_states, |_, state| {
        state.pc(2) == pc::L1_SCAN
    });
    table.push_row(vec![
        "bakery++ (N=3, M=2)".into(),
        "parked at L1 (before doorway)".into(),
        at_l1.witness.is_some().into(),
        at_l1.witness.as_ref().map(|w| w.cycle_length()).into(),
        at_l1.verdict().into(),
    ]);

    // Bakery++ ticket holder below M: protected by FCFS.
    let pp2 = BakeryPlusPlusSpec::new(2, 4);
    let holder = starvation_report_where(&pp2, 1, max_states, |alg, state| {
        let ticket = state.read(2 + 1);
        alg.is_trying(state, 1)
            && ticket != 0
            && ticket < 4
            && state.pc(1) != pc::RESET_NUMBER
            && state.pc(1) != pc::WRITE_MAX
            && state.pc(1) != pc::CHECK_BOUND
    });
    table.push_row(vec![
        "bakery++ (N=2, M=4)".into(),
        "holding a ticket < M".into(),
        holder.witness.is_some().into(),
        holder.witness.as_ref().map(|w| w.cycle_length()).into(),
        holder.verdict().into(),
    ]);

    // Classic Bakery ticket holder: also protected (FCFS), for comparison.
    // Its unbounded ticket space is infinite, so this row is always a
    // bounded verdict: evidence, not a proof.
    let classic = BakerySpec::new(2, 1_000_000);
    let classic_holder = starvation_report_where(&classic, 1, max_states, |alg, state| {
        alg.is_trying(state, 1) && state.read(2 + 1) != 0
    });
    table.push_row(vec![
        "bakery (N=2)".into(),
        "holding a ticket".into(),
        classic_holder.witness.is_some().into(),
        classic_holder
            .witness
            .as_ref()
            .map(|w| w.cycle_length())
            .into(),
        classic_holder.verdict().into(),
    ]);

    table.push_note(
        "A cycle exists exactly where the paper predicts: a process that has not yet taken a \
         ticket can be refused at L1 forever by an unfair scheduler.  Once the doorway is \
         complete, FCFS protects the process in both algorithms — proved exhaustively for \
         Bakery++ (finite bounded-register space), and as a bounded 'no cycle found within \
         budget' claim for the classic Bakery, whose unbounded ticket space cannot close out.",
    );
    table
}

/// Simulation half: service share of a slow process under an adversarial
/// scheduler, per slowdown factor.
#[must_use]
pub fn slow_process_share_table(quick: bool) -> Table {
    let steps = if quick { 30_000 } else { 300_000 };
    let mut table = Table::new(
        "E5b — critical-section share of the slow process (adversarial scheduler, N=3, M=4)",
        &[
            "slowdown factor",
            "slow-process CS entries",
            "fast-process CS entries (total)",
            "slow share (%)",
        ],
    );
    for &slowdown in &[1u32, 10, 100, 1000] {
        let spec = BakeryPlusPlusSpec::new(3, 4);
        let config = RunConfig::<BakeryPlusPlusSpec>::checked(steps);
        let mut scheduler = AdversarialScheduler::new(vec![0, 1], slowdown, 42);
        let outcome = Simulator::new().run(&spec, &mut scheduler, &config);
        let slow = outcome.report.cs_entries[2];
        let fast: u64 = outcome.report.cs_entries[0] + outcome.report.cs_entries[1];
        let share = if slow + fast == 0 {
            0.0
        } else {
            100.0 * slow as f64 / (slow + fast) as f64
        };
        table.push_row(vec![
            slowdown.into(),
            slow.into(),
            fast.into(),
            num(share, 2),
        ]);
    }
    table.push_note(
        "Each fast process is scheduled `slowdown` times as often as the slow one, so the \
         slowdown-1 row is the fair baseline: every enabled process is equally likely to move, \
         and the slow process gets about a third of the entries.  The slower the victim is \
         scheduled, the smaller its share — but it keeps making progress whenever it runs, \
         matching the paper's assessment that the pathological case requires a process that \
         effectively never runs.",
    );
    table
}

/// Runs E5 and renders its tables.
#[must_use]
pub fn run(quick: bool) -> Vec<Table> {
    vec![starvation_cycle_table(quick), slow_process_share_table(quick)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bakery_json::Value;

    #[test]
    fn starvation_table_reports_the_l1_cycle() {
        let table = starvation_cycle_table(true);
        assert_eq!(table.len(), 3);
        let md = table.to_markdown();
        assert!(md.contains("parked at L1"));
        // The first row (L1) must say true, the holder rows false.
        assert_eq!(table.rows[0][2], Value::Bool(true));
        assert_eq!(table.rows[1][2], Value::Bool(false));
        assert_eq!(table.rows[2][2], Value::Bool(false));
        // Verdicts: the finite Bakery++ space closes out (a proof), the
        // unbounded classic Bakery row is bounded evidence only.
        assert_eq!(table.rows[0][4], Value::from("cycle found"));
        assert_eq!(table.rows[1][4], Value::from("no cycle (exhaustive)"));
        assert_eq!(table.rows[2][4], Value::from("no cycle (bounded)"));
    }

    #[test]
    fn slow_process_share_decreases_with_slowdown() {
        let table = slow_process_share_table(true);
        assert_eq!(table.len(), 4);
        let first = table.rows[0][3].as_f64().unwrap();
        let last = table.rows[3][3].as_f64().unwrap();
        assert!(first > last, "share must shrink as the scheduler gets more unfair ({first} vs {last})");
        // Slowdown 1 schedules all three processes alike: a fair baseline,
        // near the third a uniform scheduler gives one of three processes.
        assert!(
            (25.0..=40.0).contains(&first),
            "the slowdown-1 row must be the fair baseline, got {first} %"
        );
    }
}

//! **E8 — §1.2 / §8.2: first-come-first-served fairness.**
//!
//! Bakery's defining extra property (beyond mutual exclusion) is FCFS service:
//! customers are served in the order they took tickets, and Bakery++ preserves
//! this.  Two measurements:
//!
//! * **E8a** — FIFO inversions counted on the observable traces of the
//!   specifications (an inversion is a pair of doorway completions served out
//!   of order).  FCFS algorithms score 0; the unfair baselines do not.
//! * **E8b** — per-thread service spread of the real locks under contention
//!   (max/min critical sections per thread), where barging locks show much
//!   larger skew.

use bakery_baselines::{all_algorithms, LockFactory};
use bakery_sim::trace::refinement::count_fifo_inversions;
use bakery_sim::{Algorithm, RandomScheduler, RunConfig, Simulator};
use bakery_spec::{BakeryPlusPlusSpec, BakerySpec, PetersonSpec, TicketSpec};

use crate::report::{num, Table};
use crate::workload::{run_workload, Workload};

fn spec_inversions<A: Algorithm>(spec: &A, schedules: u64, steps: u64) -> (u64, u64) {
    let sim = Simulator::new();
    let mut inversions = 0u64;
    let mut entries = 0u64;
    for seed in 0..schedules {
        let config = RunConfig::<A>::checked(steps);
        let run = sim.run(spec, &mut RandomScheduler::new(seed), &config);
        inversions += count_fifo_inversions(&run.trace);
        entries += run.report.total_cs_entries();
    }
    (inversions, entries)
}

/// FIFO inversions per specification.
#[must_use]
pub fn inversion_table(quick: bool) -> Table {
    let schedules = if quick { 10 } else { 50 };
    let steps = if quick { 3_000 } else { 20_000 };
    let mut table = Table::new(
        "E8a — FIFO inversions on observable traces (doorway order vs service order)",
        &["algorithm", "schedules", "CS entries", "FIFO inversions"],
    );
    let mut push = |name: &str, (inv, ent): (u64, u64)| {
        table.push_row(vec![name.into(), schedules.into(), ent.into(), inv.into()]);
    };
    push(
        "bakery",
        spec_inversions(&BakerySpec::new(3, u64::from(u32::MAX)), schedules, steps),
    );
    push(
        "bakery++",
        spec_inversions(&BakeryPlusPlusSpec::new(3, 1_000), schedules, steps),
    );
    push(
        "bakery++ (M=3)",
        spec_inversions(&BakeryPlusPlusSpec::new(3, 3), schedules, steps),
    );
    let ticket = TicketSpec::new(3, u64::from(u32::MAX));
    push("ticket-lock", spec_inversions(&ticket, schedules, steps));
    push(
        "peterson",
        spec_inversions(&PetersonSpec::new(), schedules, steps),
    );

    table.push_note(
        "Bakery, Bakery++ and the ticket lock serve strictly in doorway order (0 inversions).  \
         Peterson's algorithm orders by doorway too for two processes; unfair spin locks are \
         covered by the real-lock spread below (they have no doorway to instrument).",
    );
    table
}

/// Per-thread service spread of every real lock.
#[must_use]
pub fn spread_table(quick: bool) -> Table {
    let threads = 4;
    let mut table = Table::new(
        "E8b — per-thread service spread under contention (4 threads)",
        &["algorithm", "total acquisitions", "min/thread", "max/thread", "max ÷ min"],
    );
    let factory = LockFactory::new();
    for (id, lock) in all_algorithms(threads, &factory) {
        let workload = Workload {
            threads,
            iterations_per_thread: if quick { 1_000 } else { 10_000 },
            critical_section_work: 8,
            think_work: 0,
        };
        let result = run_workload(lock, &workload);
        let min = result.per_thread.iter().copied().min().unwrap_or(0);
        let max = result.per_thread.iter().copied().max().unwrap_or(0);
        table.push_row(vec![
            id.name().into(),
            result.total_acquisitions.into(),
            min.into(),
            max.into(),
            num(result.fairness_ratio(), 2),
        ]);
    }
    table.push_note(
        "A closed loop forces every thread to the same completion count, so the spread is 1.0 \
         for all algorithms; the interesting signal is in E8a and in the latency tails of E7, \
         where non-FCFS locks show much larger p99s.",
    );
    table
}

/// Runs E8 and renders its tables.
#[must_use]
pub fn run(quick: bool) -> Vec<Table> {
    vec![inversion_table(quick), spread_table(quick)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_algorithms_have_zero_inversions() {
        let table = inversion_table(true);
        for row in &table.rows {
            let name = row[0].as_str().unwrap();
            if name.starts_with("bakery") || name == "ticket-lock" {
                assert_eq!(row[3].as_i128(), Some(0), "{name} must be FCFS");
            }
        }
    }

    #[test]
    fn spread_table_covers_all_algorithms() {
        let table = spread_table(true);
        assert!(table.len() >= 10);
    }
}

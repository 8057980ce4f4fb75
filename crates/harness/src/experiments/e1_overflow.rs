//! **E1 — §3: ticket growth and register overflow under alternation.**
//!
//! Replays the paper's Section 3 scenario deterministically: two processes
//! keep entering their critical sections "exactly one after the other", so
//! the bakery never empties and the classic algorithm's ticket grows without
//! bound.  For each register bound `M` the table reports when the classic
//! Bakery first overflows and what Bakery++ does instead (caps the ticket,
//! takes resets, never overflows).

use bakery_core::{BakeryLock, BakeryPlusPlusLock, DoorwayOutcome, RawMutexAlgorithm};

use crate::report::Table;

/// Result of replaying the alternation scenario against one lock.
#[derive(Debug, Clone, Copy)]
pub struct AlternationOutcome {
    /// Rounds executed.
    pub rounds: u64,
    /// Round at which the first overflow attempt happened (classic only).
    pub first_overflow_round: Option<u64>,
    /// Total overflow attempts.
    pub overflow_attempts: u64,
    /// Largest ticket value stored in a register.
    pub max_ticket: u64,
    /// Bakery++ reset branches taken.
    pub resets: u64,
    /// Rounds on which the entering process was refused at `L1`.
    pub l1_blocked_rounds: u64,
    /// Completed critical sections.
    pub completed: u64,
}

/// Replays `rounds` of the §3 alternation against a classic Bakery lock with
/// the given register bound.
#[must_use]
pub fn run_classic_alternation(bound: u64, rounds: u64) -> AlternationOutcome {
    let lock = BakeryLock::with_bound(2, bound);
    let mut outcome = AlternationOutcome {
        rounds,
        first_overflow_round: None,
        overflow_attempts: 0,
        max_ticket: 0,
        resets: 0,
        l1_blocked_rounds: 0,
        completed: 0,
    };
    // Process 0 opens the bakery.
    let _ = lock.try_doorway(0);
    let mut pending = 0usize;
    for round in 0..rounds {
        let entering = 1 - pending;
        match lock.try_doorway(entering) {
            DoorwayOutcome::Overflowed { .. } => {
                outcome
                    .first_overflow_round
                    .get_or_insert(round);
            }
            DoorwayOutcome::Ticket(_) => {}
            DoorwayOutcome::Blocked | DoorwayOutcome::Reset => unreachable!("classic Bakery has no guard"),
        }
        // Serve the process that was already waiting.
        lock.await_turn(pending);
        lock.release(pending);
        outcome.completed += 1;
        pending = entering;
    }
    let stats = lock.stats().snapshot();
    outcome.overflow_attempts = stats.overflow_attempts;
    outcome.max_ticket = stats.max_ticket;
    outcome
}

/// Replays `rounds` of the §3 alternation against Bakery++ with bound `M`.
#[must_use]
pub fn run_pp_alternation(bound: u64, rounds: u64) -> AlternationOutcome {
    let lock = BakeryPlusPlusLock::with_bound(2, bound);
    let mut outcome = AlternationOutcome {
        rounds,
        first_overflow_round: None,
        overflow_attempts: 0,
        max_ticket: 0,
        resets: 0,
        l1_blocked_rounds: 0,
        completed: 0,
    };
    assert!(lock.try_doorway(0).took_ticket());
    let mut pending = 0usize;
    for _round in 0..rounds {
        let entering = 1 - pending;
        match lock.try_doorway(entering) {
            DoorwayOutcome::Ticket(_) => {
                lock.await_turn(pending);
                lock.release(pending);
                outcome.completed += 1;
                pending = entering;
            }
            DoorwayOutcome::Blocked | DoorwayOutcome::Reset => {
                outcome.l1_blocked_rounds += 1;
                // Serve the pending process; the bakery drains and the blocked
                // process retries successfully on an empty bakery.
                lock.await_turn(pending);
                lock.release(pending);
                outcome.completed += 1;
                let retry = lock.try_doorway(entering);
                assert!(retry.took_ticket(), "empty bakery must admit");
                pending = entering;
            }
            DoorwayOutcome::Overflowed { .. } => unreachable!("Bakery++ never overflows"),
        }
    }
    let stats = lock.stats().snapshot();
    outcome.overflow_attempts = stats.overflow_attempts;
    outcome.max_ticket = stats.max_ticket;
    outcome.resets = stats.resets;
    outcome
}

/// Runs E1 and renders its tables.
#[must_use]
pub fn run(quick: bool) -> Vec<Table> {
    let rounds: u64 = if quick { 2_000 } else { 100_000 };
    let bounds: &[u64] = &[7, 15, 255, 65_535];

    let mut table = Table::new(
        "E1 — §3 alternation: classic Bakery vs Bakery++ per register bound M",
        &[
            "M",
            "rounds",
            "bakery first overflow (round)",
            "bakery overflow attempts",
            "bakery max ticket",
            "bakery++ max ticket",
            "bakery++ resets",
            "bakery++ L1 refusals",
            "bakery++ overflow attempts",
        ],
    );
    for &bound in bounds {
        let classic = run_classic_alternation(bound, rounds);
        let pp = run_pp_alternation(bound, rounds);
        table.push_row(vec![
            bound.into(),
            rounds.into(),
            classic.first_overflow_round.into(),
            classic.overflow_attempts.into(),
            classic.max_ticket.into(),
            pp.max_ticket.into(),
            pp.resets.into(),
            pp.l1_blocked_rounds.into(),
            pp.overflow_attempts.into(),
        ]);
    }
    table.push_note(
        "Classic Bakery overflows roughly at round M - 1 and keeps overflowing (a dash: it \
         never did); Bakery++ caps every ticket at M and never attempts an out-of-range store.",
    );

    // Unbounded growth side table: the §3 statement that tickets grow without
    // limit while the bakery never empties.
    let mut growth = Table::new(
        "E1b — ticket value after k alternation rounds (unbounded registers)",
        &["rounds", "bakery max ticket", "bakery++ (M=65535) max ticket"],
    );
    for &k in &[10u64, 100, 1_000, rounds.min(10_000)] {
        let classic = run_classic_alternation(u64::MAX, k);
        let pp = run_pp_alternation(65_535, k);
        growth.push_row(vec![
            k.into(),
            classic.max_ticket.into(),
            pp.max_ticket.into(),
        ]);
    }
    growth.push_note("The classic ticket grows linearly with the number of rounds; Bakery++ is capped by M.");

    vec![table, growth]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_overflows_close_to_the_bound() {
        let outcome = run_classic_alternation(7, 100);
        assert!(outcome.overflow_attempts > 0);
        let first = outcome.first_overflow_round.unwrap();
        assert!(first <= 8, "first overflow at round {first}");
        assert_eq!(outcome.completed, 100);
    }

    #[test]
    fn classic_with_unbounded_registers_never_overflows() {
        let outcome = run_classic_alternation(u64::MAX, 500);
        assert!(outcome.first_overflow_round.is_none());
        assert!(outcome.max_ticket >= 500);
    }

    #[test]
    fn pp_never_overflows_and_respects_the_bound() {
        for bound in [3u64, 7, 255] {
            let outcome = run_pp_alternation(bound, 500);
            assert_eq!(outcome.overflow_attempts, 0, "M={bound}");
            assert!(outcome.max_ticket <= bound, "M={bound}");
            assert!(outcome.completed >= 500);
            assert!(outcome.l1_blocked_rounds > 0, "the cap must be hit for M={bound}");
        }
    }

    #[test]
    fn table_has_one_row_per_bound() {
        let tables = run(true);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), 4);
        assert!(tables[0].to_markdown().contains("bakery++ resets"));
        assert_eq!(tables[1].len(), 4);
    }
}

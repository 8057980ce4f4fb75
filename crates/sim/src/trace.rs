//! Execution traces: recording, replay and observable-event analysis.
//!
//! Every simulator run can record a [`Trace`]: the schedule that was taken
//! (which process moved, which nondeterministic branch was chosen) together
//! with the observable events the algorithm reported.  Traces serve three
//! purposes:
//!
//! 1. **reproduction** — a trace can be replayed exactly with
//!    [`crate::ReplayScheduler`];
//! 2. **refinement checking** (experiment **E4**) — the observable projection
//!    of a Bakery++ trace is checked against the Bakery specification's
//!    service discipline by [`refinement::check_fcfs_by_ticket`];
//! 3. **fairness analysis** (experiment **E8**) — FIFO inversions are counted
//!    from the doorway/entry event order.

use crate::algorithm::Observation;

/// One recorded step of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Step index (0-based).
    pub step: u64,
    /// The process that moved.
    pub pid: usize,
    /// Which nondeterministic successor was taken (0 when deterministic).
    pub branch: usize,
    /// Program counter of `pid` after the step.
    pub pc_after: u32,
}

/// A recorded run: the schedule plus the observable events it produced.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The scheduling/branch decisions, in order.
    pub events: Vec<TraceEvent>,
    /// Observable events in the order they occurred, as `(step, observation)`.
    /// Not part of the JSON wire format (only the replayable schedule is).
    pub observations: Vec<(u64, Observation)>,
}

bakery_json::json_object!(TraceEvent { step, pid, branch, pc_after });
bakery_json::json_object!(Trace { events } skip { observations });

impl Trace {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded steps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Records one step.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Records an observable event.
    pub fn observe(&mut self, step: u64, observation: Observation) {
        self.observations.push((step, observation));
    }

    /// The `(pid, branch)` choice sequence for [`crate::ReplayScheduler`].
    #[must_use]
    pub fn choices(&self) -> Vec<(usize, usize)> {
        self.events.iter().map(|e| (e.pid, e.branch)).collect()
    }

    /// The order in which processes entered the critical section.
    #[must_use]
    pub fn entry_order(&self) -> Vec<usize> {
        self.observations
            .iter()
            .filter_map(|(_, obs)| match obs {
                Observation::EnterCs { pid } => Some(*pid),
                _ => None,
            })
            .collect()
    }

    /// The sequence of `(pid, ticket)` doorway completions.
    #[must_use]
    pub fn ticket_order(&self) -> Vec<(usize, u64)> {
        self.observations
            .iter()
            .filter_map(|(_, obs)| match obs {
                Observation::TicketTaken { pid, number } => Some((*pid, *number)),
                _ => None,
            })
            .collect()
    }

    /// Total critical-section entries recorded.
    #[must_use]
    pub fn cs_entries(&self) -> u64 {
        self.entry_order().len() as u64
    }
}

/// Refinement and service-discipline checks over observable traces.
pub mod refinement {
    use super::Trace;
    use crate::algorithm::Observation;

    /// The verdict of a refinement/service-order check.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RefinementReport {
        /// Number of critical-section entries examined.
        pub entries_checked: u64,
        /// Violations found, as human-readable descriptions.
        pub violations: Vec<String>,
    }

    impl RefinementReport {
        /// True when no violation was found.
        #[must_use]
        pub fn holds(&self) -> bool {
            self.violations.is_empty()
        }
    }

    /// Checks the Bakery service discipline on an observable trace:
    ///
    /// 1. critical-section entries and exits alternate correctly per process
    ///    and never overlap across processes (mutual exclusion at the
    ///    observable level);
    /// 2. among processes that hold tickets simultaneously, the one with the
    ///    smaller `(number, pid)` pair enters first — the paper's
    ///    first-come-first-served property, which is exactly the observable
    ///    behaviour of the original Bakery.  A Bakery++ trace that passes this
    ///    check is therefore (observably) a valid Bakery execution, which is
    ///    the content of the paper's refinement claim (§6.2).
    #[must_use]
    pub fn check_fcfs_by_ticket(trace: &Trace) -> RefinementReport {
        let mut violations = Vec::new();
        let mut entries_checked = 0u64;

        // Live tickets: (pid, number) currently held (doorway done, CS not yet exited).
        let mut live: Vec<(usize, u64)> = Vec::new();
        let mut in_cs: Option<usize> = None;

        for (step, obs) in &trace.observations {
            match obs {
                Observation::TicketTaken { pid, number } => {
                    live.retain(|(p, _)| p != pid);
                    live.push((*pid, *number));
                }
                Observation::OverflowAvoided { pid } => {
                    live.retain(|(p, _)| p != pid);
                }
                Observation::Overflowed { pid, attempted } => {
                    violations.push(format!(
                        "step {step}: process {pid} overflowed a register (attempted {attempted})"
                    ));
                }
                Observation::EnterCs { pid } => {
                    entries_checked += 1;
                    if let Some(holder) = in_cs {
                        violations.push(format!(
                            "step {step}: process {pid} entered while process {holder} was inside"
                        ));
                    }
                    in_cs = Some(*pid);
                    // FCFS: no other live ticket may strictly precede ours.
                    let mine = live.iter().find(|(p, _)| p == pid).copied();
                    if let Some((_, my_number)) = mine {
                        for &(other, other_number) in &live {
                            if other == *pid {
                                continue;
                            }
                            let precedes = other_number < my_number
                                || (other_number == my_number && other < *pid);
                            if precedes {
                                violations.push(format!(
                                    "step {step}: process {pid} (ticket {my_number}) entered before \
                                     process {other} (ticket {other_number})"
                                ));
                            }
                        }
                    } else {
                        violations.push(format!(
                            "step {step}: process {pid} entered without a recorded ticket"
                        ));
                    }
                }
                Observation::ExitCs { pid } => {
                    if in_cs == Some(*pid) {
                        in_cs = None;
                    } else {
                        violations.push(format!(
                            "step {step}: process {pid} exited a critical section it did not hold"
                        ));
                    }
                    live.retain(|(p, _)| p != pid);
                }
            }
        }

        RefinementReport {
            entries_checked,
            violations,
        }
    }

    /// Counts FIFO inversions: critical-section entries that overtake a
    /// process which is still waiting, completed its doorway **earlier** and
    /// holds a **strictly smaller** ticket number (i.e. a customer who came
    /// first in the paper's sense — its doorway finished before the
    /// overtaker's began, which in the Bakery family implies a strictly
    /// smaller number).  Used by the fairness experiment (**E8**); FCFS
    /// algorithms score 0, and pairs with overlapping doorways (equal ticket
    /// numbers) are not counted because FCFS imposes no order on them.
    #[must_use]
    pub fn count_fifo_inversions(trace: &Trace) -> u64 {
        // Assign each doorway completion an arrival index, then walk entries.
        let mut arrival_counter = 0u64;
        // (pid, arrival index, ticket number) of processes waiting to enter.
        let mut pending: Vec<(usize, u64, u64)> = Vec::new();
        let mut inversions = 0u64;

        for (_, obs) in &trace.observations {
            match obs {
                Observation::TicketTaken { pid, number } => {
                    pending.retain(|(p, _, _)| p != pid);
                    pending.push((*pid, arrival_counter, *number));
                    arrival_counter += 1;
                }
                Observation::OverflowAvoided { pid } => {
                    pending.retain(|(p, _, _)| p != pid);
                }
                Observation::EnterCs { pid } => {
                    let mine = pending.iter().find(|(p, _, _)| p == pid).copied();
                    if let Some((_, my_arrival, my_number)) = mine {
                        // Everyone still pending who both arrived earlier and
                        // holds a strictly smaller ticket was overtaken.
                        inversions += pending
                            .iter()
                            .filter(|(p, arrival, number)| {
                                p != pid && *arrival < my_arrival && *number < my_number
                            })
                            .count() as u64;
                    }
                    pending.retain(|(p, _, _)| p != pid);
                }
                _ => {}
            }
        }
        inversions
    }
}

#[cfg(test)]
mod tests {
    use super::refinement::{check_fcfs_by_ticket, count_fifo_inversions};
    use super::*;

    fn obs_trace(observations: Vec<Observation>) -> Trace {
        let mut t = Trace::new();
        for (i, o) in observations.into_iter().enumerate() {
            t.observe(i as u64, o);
        }
        t
    }

    #[test]
    fn empty_trace_basics() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.cs_entries(), 0);
        assert!(check_fcfs_by_ticket(&t).holds());
        assert_eq!(count_fifo_inversions(&t), 0);
    }

    #[test]
    fn choices_round_trip() {
        let mut t = Trace::new();
        t.push(TraceEvent {
            step: 0,
            pid: 1,
            branch: 0,
            pc_after: 2,
        });
        t.push(TraceEvent {
            step: 1,
            pid: 0,
            branch: 2,
            pc_after: 1,
        });
        assert_eq!(t.choices(), vec![(1, 0), (0, 2)]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn entry_and_ticket_order_extraction() {
        let t = obs_trace(vec![
            Observation::TicketTaken { pid: 0, number: 1 },
            Observation::TicketTaken { pid: 1, number: 2 },
            Observation::EnterCs { pid: 0 },
            Observation::ExitCs { pid: 0 },
            Observation::EnterCs { pid: 1 },
            Observation::ExitCs { pid: 1 },
        ]);
        assert_eq!(t.entry_order(), vec![0, 1]);
        assert_eq!(t.ticket_order(), vec![(0, 1), (1, 2)]);
        assert_eq!(t.cs_entries(), 2);
    }

    #[test]
    fn fcfs_check_accepts_ordered_service() {
        let t = obs_trace(vec![
            Observation::TicketTaken { pid: 0, number: 1 },
            Observation::TicketTaken { pid: 1, number: 2 },
            Observation::EnterCs { pid: 0 },
            Observation::ExitCs { pid: 0 },
            Observation::EnterCs { pid: 1 },
            Observation::ExitCs { pid: 1 },
        ]);
        let report = check_fcfs_by_ticket(&t);
        assert!(report.holds(), "{:?}", report.violations);
        assert_eq!(report.entries_checked, 2);
    }

    #[test]
    fn fcfs_check_rejects_out_of_order_service() {
        let t = obs_trace(vec![
            Observation::TicketTaken { pid: 0, number: 1 },
            Observation::TicketTaken { pid: 1, number: 2 },
            Observation::EnterCs { pid: 1 },
            Observation::ExitCs { pid: 1 },
            Observation::EnterCs { pid: 0 },
            Observation::ExitCs { pid: 0 },
        ]);
        let report = check_fcfs_by_ticket(&t);
        assert!(!report.holds());
        assert!(report.violations[0].contains("entered before"));
    }

    #[test]
    fn fcfs_check_rejects_overlapping_critical_sections() {
        let t = obs_trace(vec![
            Observation::TicketTaken { pid: 0, number: 1 },
            Observation::TicketTaken { pid: 1, number: 2 },
            Observation::EnterCs { pid: 0 },
            Observation::EnterCs { pid: 1 },
        ]);
        let report = check_fcfs_by_ticket(&t);
        assert!(!report.holds());
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("while process 0 was inside")));
    }

    #[test]
    fn fcfs_check_flags_overflow_events() {
        let t = obs_trace(vec![Observation::Overflowed {
            pid: 1,
            attempted: 300,
        }]);
        let report = check_fcfs_by_ticket(&t);
        assert!(!report.holds());
        assert!(report.violations[0].contains("overflowed"));
    }

    #[test]
    fn overflow_reset_releases_the_ticket() {
        let t = obs_trace(vec![
            Observation::TicketTaken { pid: 0, number: 1 },
            Observation::OverflowAvoided { pid: 0 },
            Observation::TicketTaken { pid: 1, number: 1 },
            Observation::EnterCs { pid: 1 },
            Observation::ExitCs { pid: 1 },
        ]);
        let report = check_fcfs_by_ticket(&t);
        assert!(report.holds(), "{:?}", report.violations);
    }

    #[test]
    fn inversion_count_detects_overtaking() {
        let t = obs_trace(vec![
            Observation::TicketTaken { pid: 0, number: 1 },
            Observation::TicketTaken { pid: 1, number: 2 },
            Observation::TicketTaken { pid: 2, number: 3 },
            Observation::EnterCs { pid: 2 }, // overtakes 0 and 1
            Observation::EnterCs { pid: 0 },
            Observation::EnterCs { pid: 1 },
        ]);
        assert_eq!(count_fifo_inversions(&t), 2);
    }

    #[test]
    fn inversion_count_zero_for_fifo_service() {
        let t = obs_trace(vec![
            Observation::TicketTaken { pid: 0, number: 1 },
            Observation::EnterCs { pid: 0 },
            Observation::TicketTaken { pid: 1, number: 2 },
            Observation::EnterCs { pid: 1 },
        ]);
        assert_eq!(count_fifo_inversions(&t), 0);
    }

    #[test]
    fn trace_serializes_schedule() {
        let mut t = Trace::new();
        t.push(TraceEvent {
            step: 0,
            pid: 0,
            branch: 0,
            pc_after: 1,
        });
        let json = bakery_json::to_string(&t).unwrap();
        let back: Trace = bakery_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.events[0].pid, 0);
    }
}

//! The simulator: runs an [`Algorithm`] under a [`Scheduler`] for a bounded
//! number of steps, checking invariants and recording a trace.
//!
//! One run is one *sampled schedule*; exhaustive exploration of all schedules
//! lives in the `bakery-mc` crate.  The simulator is what the experiment
//! harness uses for long, statistically meaningful runs (millions of steps)
//! that would be far beyond exhaustive checking.  A run takes program steps
//! only: crash transitions ([`Algorithm::crash`]) are explored by
//! `bakery-mc` (`ModelChecker::with_crashes`), never sampled here.

use crate::algorithm::{Algorithm, Observation};
use crate::invariant::Invariant;
use crate::metrics::{RunReport, Violation};
use crate::scheduler::Scheduler;
use crate::state::ProgState;
use crate::trace::{Trace, TraceEvent};

/// Configuration of a single simulator run.
pub struct RunConfig<A: ?Sized> {
    /// Maximum number of steps to execute.
    pub max_steps: u64,
    /// Invariants checked after every step.
    pub invariants: Vec<Invariant<A>>,
    /// Whether to stop at the first invariant violation.
    pub stop_on_violation: bool,
    /// Whether to record the full trace (schedule + observations).
    pub record_trace: bool,
}

impl<A: Algorithm + ?Sized> RunConfig<A> {
    /// A run of `max_steps` steps with the two paper invariants installed.
    #[must_use]
    pub fn checked(max_steps: u64) -> Self {
        Self {
            max_steps,
            invariants: vec![Invariant::mutual_exclusion(), Invariant::register_bounds()],
            stop_on_violation: true,
            record_trace: true,
        }
    }

    /// A run with no invariants (pure performance measurement).
    #[must_use]
    pub fn unchecked(max_steps: u64) -> Self {
        Self {
            max_steps,
            invariants: Vec::new(),
            stop_on_violation: false,
            record_trace: false,
        }
    }

    /// Adds an invariant.
    #[must_use]
    pub fn with_invariant(mut self, invariant: Invariant<A>) -> Self {
        self.invariants.push(invariant);
        self
    }

    /// Enables or disables trace recording.
    #[must_use]
    pub fn with_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }
}

/// The outcome of [`Simulator::run`]: the metrics report, the final state and
/// (if requested) the recorded trace.
#[derive(Debug)]
pub struct RunOutcome {
    /// Aggregated metrics.
    pub report: RunReport,
    /// The state the run ended in.
    pub final_state: ProgState,
    /// The recorded trace (empty if recording was disabled).
    pub trace: Trace,
}

/// Runs algorithms under sampled schedules.
#[derive(Debug, Default)]
pub struct Simulator;

impl Simulator {
    /// Creates a simulator.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Runs `algorithm` under `scheduler` according to `config`.
    pub fn run<A: Algorithm + ?Sized>(
        &self,
        algorithm: &A,
        scheduler: &mut dyn Scheduler,
        config: &RunConfig<A>,
    ) -> RunOutcome {
        let n = algorithm.processes();
        let mut report = RunReport::new(algorithm.name().to_string(), n);
        let mut trace = Trace::new();
        let mut state = algorithm.initial_state();
        let registers = algorithm.registers();

        // Track which processes were in their critical section in the
        // previous state so CS entries can be counted without spec support.
        let mut was_in_cs = vec![false; n];

        for step in 0..config.max_steps {
            // Collect enabled processes and their successor sets.
            let mut enabled: Vec<usize> = Vec::with_capacity(n);
            let mut successor_sets: Vec<Vec<ProgState>> = vec![Vec::new(); n];
            for (pid, slot) in successor_sets.iter_mut().enumerate() {
                let succs = algorithm.successors_vec(&state, pid);
                if succs.is_empty() {
                    report.blocked_picks[pid] += 1;
                } else {
                    enabled.push(pid);
                }
                *slot = succs;
            }

            if enabled.is_empty() {
                report.deadlocked = true;
                report.steps = step;
                return RunOutcome {
                    report,
                    final_state: state,
                    trace,
                };
            }

            let pid = scheduler.pick(&enabled, step);
            debug_assert!(enabled.contains(&pid), "scheduler picked a blocked pid");
            let branches = &successor_sets[pid];
            let branch = scheduler.pick_branch(branches.len(), step);
            let next = branches[branch].clone();

            // Observations and CS accounting.
            if let Some(obs) = algorithm.observe(&state, &next, pid) {
                match obs {
                    Observation::OverflowAvoided { .. } => report.overflow_avoidance_resets += 1,
                    Observation::Overflowed { .. } => report.overflow_attempts += 1,
                    _ => {}
                }
                if config.record_trace {
                    trace.observe(step, obs);
                }
            }
            let now_in_cs = algorithm.in_critical_section(&next, pid);
            if now_in_cs && !was_in_cs[pid] {
                report.cs_entries[pid] += 1;
            }
            was_in_cs[pid] = now_in_cs;

            if config.record_trace {
                trace.push(TraceEvent {
                    step,
                    pid,
                    branch,
                    pc_after: next.pc(pid),
                });
            }

            state = next;
            report.steps = step + 1;
            report.max_register_value = report
                .max_register_value
                .max(state.shared.iter().copied().max().unwrap_or(0));

            // Invariant checking.
            let mut stop = false;
            for invariant in &config.invariants {
                if !invariant.holds(algorithm, &state) {
                    report.violations.push(Violation {
                        invariant: invariant.name().to_string(),
                        step,
                        state: state.render(&registers),
                    });
                    if config.stop_on_violation {
                        stop = true;
                    }
                }
            }
            if stop {
                break;
            }
        }

        RunOutcome {
            report,
            final_state: state,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::test_support::BrokenLock;
    use crate::scheduler::{RandomScheduler, ReplayScheduler, RoundRobinScheduler};

    #[test]
    fn broken_lock_violates_mutual_exclusion_under_round_robin() {
        let alg = BrokenLock {
            processes: 2,
            bound: 1_000,
        };
        let config = RunConfig::<BrokenLock>::checked(100);
        let outcome = Simulator::new().run(&alg, &mut RoundRobinScheduler::new(), &config);
        assert!(!outcome.report.is_clean());
        assert_eq!(outcome.report.violations[0].invariant, "MutualExclusion");
        assert!(outcome.report.steps < 100, "stopped at first violation");
    }

    #[test]
    fn register_bound_violation_is_reported() {
        let alg = BrokenLock {
            processes: 1,
            bound: 2,
        };
        // A single process cannot violate mutual exclusion, but its entry
        // counter overflows the bound after three critical sections.
        let config = RunConfig::<BrokenLock>::checked(100);
        let outcome = Simulator::new().run(&alg, &mut RoundRobinScheduler::new(), &config);
        assert!(outcome
            .report
            .violations
            .iter()
            .any(|v| v.invariant == "NoOverflow"));
        assert!(outcome.report.max_register_value >= 3);
    }

    #[test]
    fn unchecked_run_counts_cs_entries() {
        let alg = BrokenLock {
            processes: 2,
            bound: u64::MAX,
        };
        let config = RunConfig::<BrokenLock>::unchecked(600);
        let outcome = Simulator::new().run(&alg, &mut RoundRobinScheduler::new(), &config);
        assert!(outcome.report.is_clean());
        assert_eq!(outcome.report.steps, 600);
        // Each process cycles through 3 steps per CS entry: 600 / 3 / 2 = 100.
        assert_eq!(outcome.report.total_cs_entries(), 200);
        assert!(outcome.trace.is_empty(), "tracing disabled");
    }

    #[test]
    fn recorded_trace_replays_to_the_same_final_state() {
        let alg = BrokenLock {
            processes: 3,
            bound: u64::MAX,
        };
        let config = RunConfig::<BrokenLock>::unchecked(200).with_trace(true);
        let original = Simulator::new().run(&alg, &mut RandomScheduler::new(13), &config);
        let mut replay = ReplayScheduler::new(original.trace.choices());
        let replayed = Simulator::new().run(&alg, &mut replay, &config);
        assert_eq!(original.final_state, replayed.final_state);
        assert_eq!(
            original.report.cs_entries, replayed.report.cs_entries,
            "replay reproduces per-process service counts"
        );
        assert!(!replay.diverged());
    }

    #[test]
    fn observations_are_recorded_in_the_trace() {
        let alg = BrokenLock {
            processes: 2,
            bound: u64::MAX,
        };
        let config = RunConfig::<BrokenLock>::unchecked(60).with_trace(true);
        let outcome = Simulator::new().run(&alg, &mut RoundRobinScheduler::new(), &config);
        assert_eq!(
            outcome.trace.cs_entries(),
            outcome.report.total_cs_entries()
        );
        assert_eq!(outcome.trace.len() as u64, outcome.report.steps);
    }

    #[test]
    fn custom_invariant_without_stop_keeps_running() {
        let alg = BrokenLock {
            processes: 1,
            bound: u64::MAX,
        };
        let mut config = RunConfig::<BrokenLock>::unchecked(30)
            .with_invariant(Invariant::new("EntriesBelowFive", |_, s: &ProgState| {
                s.read(0) < 5
            }));
        config.stop_on_violation = false;
        let outcome = Simulator::new().run(&alg, &mut RoundRobinScheduler::new(), &config);
        assert_eq!(outcome.report.steps, 30);
        assert!(
            outcome.report.violations.len() > 1,
            "kept collecting violations after the first"
        );
    }
}

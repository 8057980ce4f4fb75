//! Step-machine specification of the fetch-and-add ticket lock.
//!
//! The RMW instruction is modelled as a single atomic step (read the
//! dispenser, store the incremented value) — which is precisely the
//! lower-level mutual exclusion the paper says disqualifies such algorithms as
//! "true" solutions.  The dispenser and the service counter are bounded like
//! every other register, so this specification also shows that a counter-based
//! lock inherits the unbounded-growth problem of the classic Bakery: with a
//! small bound the NoOverflow invariant is violated quickly.

use bakery_sim::state::assert_fits;
use bakery_sim::{Algorithm, Observation, ProcState, ProgState, RegisterSpec};

/// Shared register indices.
const NEXT: usize = 0;
const SERVING: usize = 1;

/// Local slots.
const LOCAL_TICKET: usize = 0;

/// Program counters.
mod pc {
    pub const NCS: u32 = 0;
    pub const DRAW: u32 = 1;
    pub const WAIT: u32 = 2;
    pub const CS: u32 = 3;
}

/// The ticket lock as a checkable specification with bounded counters.
#[derive(Debug, Clone)]
pub struct TicketSpec {
    n: usize,
    bound: u64,
}

impl TicketSpec {
    /// Creates a ticket-lock spec for `n` processes with counter bound `bound`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `bound == 0`, and if `n` exceeds the inline
    /// capacity of a state: [`assert_fits`] allows
    /// [`MAX_PROCESSES`](bakery_sim::state::MAX_PROCESSES) = 6 processes.
    #[must_use]
    pub fn new(n: usize, bound: u64) -> Self {
        assert!(n >= 1, "need at least one process");
        assert!(bound >= 1, "the counter bound must be at least 1");
        assert_fits(2, n, 1);
        Self { n, bound }
    }

    /// The counter bound.
    #[must_use]
    pub fn bound(&self) -> u64 {
        self.bound
    }

    fn store_value(&self, attempted: u64) -> u64 {
        attempted.min(self.bound + 1)
    }
}

impl Algorithm for TicketSpec {
    fn name(&self) -> &str {
        "ticket-lock"
    }

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> Vec<RegisterSpec> {
        vec![
            RegisterSpec::shared("next", self.bound),
            RegisterSpec::shared("serving", self.bound),
        ]
    }

    fn initial_state(&self) -> ProgState {
        ProgState::new(2, &vec![ProcState::new(pc::NCS, &[0]); self.n])
    }

    fn successors(&self, state: &ProgState, pid: usize, out: &mut Vec<ProgState>) {
        if state.is_crashed(pid) {
            return;
        }
        match state.pc(pid) {
            pc::NCS => out.push(state.with_pc(pid, pc::DRAW)),
            pc::DRAW => {
                // Atomic fetch-and-add: one step reads and writes the dispenser.
                let ticket = state.read(NEXT);
                let mut next = state.with_pc_and_local(pid, pc::WAIT, LOCAL_TICKET, ticket);
                next.set_shared(NEXT, self.store_value(ticket + 1));
                out.push(next);
            }
            pc::WAIT if state.read(SERVING) == state.local(pid, LOCAL_TICKET) => {
                out.push(state.with_pc(pid, pc::CS));
            }
            pc::WAIT => {}
            pc::CS => {
                let serving = state.read(SERVING);
                let mut next = state.with_pc(pid, pc::NCS);
                next.set_shared(SERVING, self.store_value(serving + 1));
                out.push(next);
            }
            _ => {}
        }
    }

    fn in_critical_section(&self, state: &ProgState, pid: usize) -> bool {
        state.pc(pid) == pc::CS
    }

    fn is_trying(&self, state: &ProgState, pid: usize) -> bool {
        let p = state.pc(pid);
        p == pc::DRAW || p == pc::WAIT
    }

    fn pc_label(&self, pc_value: u32) -> &'static str {
        match pc_value {
            pc::NCS => "ncs",
            pc::DRAW => "draw-ticket",
            pc::WAIT => "wait-serving",
            pc::CS => "critical-section",
            _ => "?",
        }
    }

    fn observe(&self, prev: &ProgState, next: &ProgState, pid: usize) -> Option<Observation> {
        match (prev.pc(pid), next.pc(pid)) {
            (pc::DRAW, pc::WAIT) => {
                let number = next.local(pid, LOCAL_TICKET);
                if next.read(NEXT) > self.bound {
                    Some(Observation::Overflowed {
                        pid,
                        attempted: prev.read(NEXT) + 1,
                    })
                } else {
                    Some(Observation::TicketTaken { pid, number })
                }
            }
            (pc::WAIT, pc::CS) => Some(Observation::EnterCs { pid }),
            (pc::CS, pc::NCS) => Some(Observation::ExitCs { pid }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bakery_sim::{RandomScheduler, RoundRobinScheduler, RunConfig, Simulator};

    #[test]
    fn single_process_progress_and_overflow() {
        let spec = TicketSpec::new(1, 5);
        let config = RunConfig::<TicketSpec>::checked(200);
        let outcome = Simulator::new().run(&spec, &mut RoundRobinScheduler::new(), &config);
        // The dispenser grows without bound, so a violation is inevitable.
        assert!(outcome
            .report
            .violations
            .iter()
            .any(|v| v.invariant == "NoOverflow"));
    }

    #[test]
    fn mutual_exclusion_holds_before_overflow() {
        let spec = TicketSpec::new(3, 1_000_000);
        for seed in 0..10 {
            let config = RunConfig::<TicketSpec>::checked(2_000);
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
    fn service_is_fifo() {
        let spec = TicketSpec::new(3, 1_000_000);
        let config = RunConfig::<TicketSpec>::checked(3_000);
        let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(5), &config);
        assert_eq!(
            bakery_sim::trace::refinement::count_fifo_inversions(&outcome.trace),
            0,
            "the ticket lock serves in arrival order"
        );
    }

    #[test]
    fn metadata_and_labels() {
        let spec = TicketSpec::new(2, 7);
        assert_eq!(spec.bound(), 7);
        assert_eq!(spec.processes(), 2);
        assert_eq!(spec.registers().len(), 2);
        assert_eq!(spec.pc_label(1), "draw-ticket");
        let s = spec.initial_state();
        assert!(!spec.is_trying(&s, 0));
        assert!(spec.crash(&s, 0).is_none(), "no crash model for RMW locks");
    }
}

//! Step-machine specification of Peterson's two-process algorithm.
//!
//! Included to demonstrate that the model checker is algorithm-agnostic and to
//! give the comparison experiments a specification-level baseline that uses a
//! multi-writer shared variable (`turn`) — the design choice the paper
//! contrasts Bakery/Bakery++ against.
//!
//! Peterson **requires atomic registers**: under
//! [`RegisterSemantics::Safe`] its multi-writer `turn` register clashes when
//! both processes write it concurrently, and the weak-register test plane
//! pins the resulting mutual-exclusion violation as the suite's negative
//! control (a semantics knob that never changes any verdict would be
//! vacuous).

use bakery_sim::{Algorithm, Observation, ProcState, ProgState, RegisterSemantics, RegisterSpec};

/// Shared register indices.
const FLAG0: usize = 0;
const FLAG1: usize = 1;
const TURN: usize = 2;

/// Program counters.
mod pc {
    pub const NCS: u32 = 0;
    pub const SET_FLAG: u32 = 1;
    pub const SET_TURN: u32 = 2;
    pub const WAIT: u32 = 3;
    pub const CS: u32 = 4;
}

/// Peterson's algorithm for two processes as a checkable specification.
#[derive(Debug, Clone, Default)]
pub struct PetersonSpec {
    semantics: RegisterSemantics,
}

impl PetersonSpec {
    /// Creates the two-process Peterson specification.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the register model (atomic or safe/flickering registers).
    #[must_use]
    pub fn with_semantics(mut self, semantics: RegisterSemantics) -> Self {
        self.semantics = semantics;
        self
    }

    fn flag_idx(pid: usize) -> usize {
        if pid == 0 {
            FLAG0
        } else {
            FLAG1
        }
    }

    /// A successor in which `pid` stores `value` to register `idx`: the
    /// whole write under atomic semantics, the begin step under safe
    /// semantics (the commit is forced as `pid`'s next step).
    fn store(&self, state: &ProgState, pid: usize, idx: usize, value: u64) -> ProgState {
        let mut next = state.clone();
        match self.semantics {
            RegisterSemantics::Atomic => next.set_shared(idx, value),
            RegisterSemantics::Safe => next.begin_write(idx, value, pid),
        }
        next
    }
}

impl Algorithm for PetersonSpec {
    fn name(&self) -> &str {
        "peterson"
    }

    fn processes(&self) -> usize {
        2
    }

    fn registers(&self) -> Vec<RegisterSpec> {
        vec![
            RegisterSpec::owned("flag[0]", 1, 0),
            RegisterSpec::owned("flag[1]", 1, 1),
            RegisterSpec::shared("turn", 1),
        ]
    }

    fn initial_state(&self) -> ProgState {
        let procs = [ProcState::new(pc::NCS, &[]); 2];
        match self.semantics {
            RegisterSemantics::Atomic => ProgState::new(3, &procs),
            RegisterSemantics::Safe => ProgState::new_weak(3, &procs),
        }
    }

    fn successors(&self, state: &ProgState, pid: usize, out: &mut Vec<ProgState>) {
        if state.is_crashed(pid) {
            return;
        }
        // Safe semantics: a begun write must commit before any other step.
        // Unlike the bakery family, `turn` is multi-writer: overlapping
        // writes clash and the commit branches over every in-range value.
        if let Some(idx) = state.write_in_progress_by(pid) {
            for value in state.commit_values(idx, 1) {
                let mut next = state.clone();
                next.end_write(idx, pid, value);
                out.push(next);
            }
            return;
        }
        let other = 1 - pid;
        match state.pc(pid) {
            pc::NCS => out.push(state.with_pc(pid, pc::SET_FLAG)),
            pc::SET_FLAG => {
                let mut next = self.store(state, pid, Self::flag_idx(pid), 1);
                next.set_pc(pid, pc::SET_TURN);
                out.push(next);
            }
            pc::SET_TURN => {
                let mut next = self.store(state, pid, TURN, other as u64);
                next.set_pc(pid, pc::WAIT);
                out.push(next);
            }
            pc::WAIT => {
                // One step reads both flag[other] and turn (kept combined so
                // the atomic-mode state machine is unchanged); under safe
                // semantics the guard branches over every readable pair.
                // All passing pairs yield the same successor (outcome dedup).
                let passes = state.read_values(Self::flag_idx(other), 1).any(|other_flag| {
                    state
                        .read_values(TURN, 1)
                        .any(|turn| other_flag == 0 || turn != other as u64)
                });
                if passes {
                    out.push(state.with_pc(pid, pc::CS));
                }
                // else blocked.
            }
            pc::CS => {
                let mut next = self.store(state, pid, Self::flag_idx(pid), 0);
                next.set_pc(pid, pc::NCS);
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
        p != pc::NCS && p != pc::CS
    }

    fn crash(&self, state: &ProgState, pid: usize) -> Option<ProgState> {
        if state.pc(pid) == pc::NCS
            && state.read(Self::flag_idx(pid)) == 0
            && state.write_in_progress_by(pid).is_none()
        {
            return None;
        }
        let mut next = state.with_pc(pid, pc::NCS);
        // A crash mid-write aborts the write (pending value dropped).
        next.abort_writes(pid);
        next.set_shared(Self::flag_idx(pid), 0);
        Some(next)
    }

    fn register_semantics(&self) -> RegisterSemantics {
        self.semantics
    }

    fn pc_label(&self, pc_value: u32) -> &'static str {
        match pc_value {
            pc::NCS => "ncs",
            pc::SET_FLAG => "set-flag",
            pc::SET_TURN => "set-turn",
            pc::WAIT => "wait",
            pc::CS => "critical-section",
            _ => "?",
        }
    }

    fn observe(&self, prev: &ProgState, next: &ProgState, pid: usize) -> Option<Observation> {
        match (prev.pc(pid), next.pc(pid)) {
            (pc::SET_TURN, pc::WAIT) => Some(Observation::TicketTaken { pid, number: 1 }),
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
    fn single_process_progress() {
        let spec = PetersonSpec::new();
        let config = RunConfig::<PetersonSpec>::checked(100);
        let outcome = Simulator::new().run(&spec, &mut RoundRobinScheduler::new(), &config);
        assert!(outcome.report.is_clean(), "{:?}", outcome.report.violations);
        assert!(outcome.report.total_cs_entries() > 5);
    }

    #[test]
    fn mutual_exclusion_under_random_schedules() {
        let spec = PetersonSpec::new();
        for seed in 0..25 {
            let config = RunConfig::<PetersonSpec>::checked(2_000);
            let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(seed), &config);
            assert!(outcome.report.is_clean(), "seed {seed}");
        }
    }

    #[test]
    fn turn_register_is_multi_writer() {
        let spec = PetersonSpec::new();
        let regs = spec.registers();
        assert_eq!(regs[2].name, "turn");
        assert_eq!(regs[2].owner, None, "turn has no single owner");
        assert_eq!(regs[0].owner, Some(0));
    }

    #[test]
    fn crash_clears_flag() {
        let spec = PetersonSpec::new();
        let s0 = spec.initial_state();
        let s1 = spec.successors_vec(&s0, 0)[0].clone();
        let s2 = spec.successors_vec(&s1, 0)[0].clone();
        assert_eq!(s2.read(FLAG0), 1);
        let crashed = spec.crash(&s2, 0).unwrap();
        assert_eq!(crashed.read(FLAG0), 0);
        assert!(spec.crash(&s0, 0).is_none());
    }

    #[test]
    fn safe_semantics_admits_a_mutual_exclusion_violation() {
        // The negative control, traced by hand: Peterson requires atomic
        // registers.  Overlapping writes to the multi-writer `turn` clash,
        // P0 slips past WAIT on a flickered turn read while P1's write is
        // still in flight, and P1 then passes on the clash-committed value.
        let spec = PetersonSpec::new().with_semantics(RegisterSemantics::Safe);
        let step = |s: &ProgState, pid: usize, pick: usize| -> ProgState {
            let succs = spec.successors_vec(s, pid);
            succs
                .get(pick)
                .unwrap_or_else(|| panic!("need successor {pick}, got {}", succs.len()))
                .clone()
        };
        let mut s = spec.initial_state();
        for pid in [0, 1] {
            s = step(&s, pid, 0); // NCS -> SET_FLAG
            s = step(&s, pid, 0); // begin flag[pid] := 1
            s = step(&s, pid, 0); // commit flag[pid] = 1
        }
        s = step(&s, 0, 0); // P0 begins turn := 1
        s = step(&s, 1, 0); // P1 begins turn := 0 -- overlapping write: clash
        s = step(&s, 0, 1); // P0 commits; clash branches over {0, 1}: pick 1
        assert_eq!(s.read(TURN), 1);
        // P1's write is still in flight, so P0's WAIT read of turn flickers
        // and may return 0, which satisfies the guard.
        s = step(&s, 0, 0);
        assert!(spec.in_critical_section(&s, 0));
        s = step(&s, 1, 1); // P1 commits its clash: pick turn = 1
        assert_eq!(s.read(TURN), 1);
        // P1's WAIT now reads flag[0] = 1, turn = 1 != 0: it passes too.
        s = step(&s, 1, 0);
        assert!(spec.in_critical_section(&s, 1));
        assert_eq!(spec.processes_in_cs(&s), 2, "both inside the CS");
    }

    #[test]
    fn atomic_semantics_has_no_pending_write_machinery() {
        let spec = PetersonSpec::new();
        let s0 = spec.initial_state();
        assert!(s0.writes.is_empty(), "atomic states carry no write cells");
        let s1 = spec.successors_vec(&s0, 0)[0].clone();
        let s2 = spec.successors_vec(&s1, 0)[0].clone();
        assert_eq!(s2.read(FLAG0), 1, "atomic store commits in one step");
    }

    #[test]
    fn labels_and_predicates() {
        let spec = PetersonSpec::new();
        assert_eq!(spec.pc_label(3), "wait");
        assert_eq!(spec.processes(), 2);
        let s = spec.initial_state();
        assert!(!spec.is_trying(&s, 0));
    }
}

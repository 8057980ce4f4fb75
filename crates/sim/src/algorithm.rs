//! The [`Algorithm`] trait: algorithms as guarded atomic steps.
//!
//! An implementation describes, for every process and every global state,
//! which successor states that process can move to.  This is exactly the shape
//! of a PlusCal/TLA+ next-state relation, which is what makes the same
//! description usable both by the random-schedule [`crate::Simulator`] and by
//! the exhaustive model checker in `bakery-mc`.
//!
//! Conventions shared by all specifications in `bakery-spec`:
//!
//! * a *blocked* process (a busy-wait whose guard is false) simply has **no
//!   successors** — the scheduler will try someone else, and the model checker
//!   treats a state where nobody has a successor as a deadlock;
//! * nondeterminism (e.g. a safe-register read that overlaps a write and may
//!   return an arbitrary value) is expressed by returning **several**
//!   successors for the same process;
//! * crash/restart faults are separate transitions produced by
//!   [`Algorithm::crash`], so the model checker can explore them or leave
//!   them out without touching the algorithm itself.

use crate::state::{ProgState, RegisterSpec};
use crate::symmetry::SymmetryGroup;

/// Which register model a specification's shared variables obey.
///
/// * [`RegisterSemantics::Atomic`] — the classic interleaving model: every
///   read and write is one indivisible step.  This is the default, and
///   algorithms running under it carry **no** pending-write state
///   ([`ProgState::writes`] stays empty), so atomic-mode state spaces,
///   hashes and packed encodings are bit-identical to the pre-knob plane.
///
/// * [`RegisterSemantics::Safe`] — Lamport's *safe* (non-atomic,
///   "flickering") registers, the model the bakery algorithm was designed
///   to survive.  The exact rules:
///
///   1. A write is **two** steps: `begin_write(r, v)` marks the register
///      busy and records the pending value (the writer's pc advances on
///      this step); a later `end_write` commits a value and clears the
///      mark.  Program order is enforced — a process with a write in
///      flight can only take its commit step next.
///   2. A read that does **not** overlap any write returns the last
///      committed value, exactly.
///   3. A read that overlaps an in-progress write returns **any** value in
///      `[0, bound]` for that register (nondeterministic branch per value).
///      The flicker range is the declared bound, not the transient
///      physical range — reads never observe an overflow sentinel.
///   4. Overlapping writes to the same register *clash*: the value
///      eventually committed by each writer is arbitrary in `[0, bound]`.
///      (Single-writer registers never clash by construction; this rule
///      only bites multi-writer registers such as Peterson's `turn`.)
///   5. A crash mid-write **aborts** the write: the pending value is
///      dropped, the busy mark (for that writer) is cleared, and the
///      register obeys the paper's crash rule (owned registers read zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RegisterSemantics {
    /// Indivisible reads and writes (the default).
    #[default]
    Atomic,
    /// Safe/flickering registers: two-step writes, arbitrary in-range
    /// values for overlapping reads, clash semantics for overlapping writes.
    Safe,
}

/// Upper bounds on the non-register components of a [`ProgState`], used by
/// the model checker's compact state encoding to size bit lanes.
///
/// The defaults ([`StateBounds::conservative`]) are always sound — full-width
/// lanes for every field — but a specification that knows its pc range and
/// local-variable ranges should override [`Algorithm::state_bounds`] so its
/// states pack into a few words instead of a few dozen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateBounds {
    /// The largest program-counter value any reachable state contains.
    pub max_pc: u32,
    /// Per-slot upper bounds for the local variables (uniform across
    /// processes).  Slots beyond the vector's length are treated as
    /// unbounded (full 64-bit lanes).
    pub local_bounds: Vec<u64>,
}

impl StateBounds {
    /// Sound-for-everything defaults: 32-bit pc lanes, 64-bit local lanes.
    #[must_use]
    pub fn conservative() -> Self {
        Self {
            max_pc: u32::MAX,
            local_bounds: Vec::new(),
        }
    }

    /// Bounds with an explicit pc maximum and per-slot local maxima.
    #[must_use]
    pub fn new(max_pc: u32, local_bounds: Vec<u64>) -> Self {
        Self {
            max_pc,
            local_bounds,
        }
    }

    /// The upper bound for local slot `slot`.
    #[must_use]
    pub fn local_bound(&self, slot: usize) -> u64 {
        self.local_bounds.get(slot).copied().unwrap_or(u64::MAX)
    }
}

impl Default for StateBounds {
    fn default() -> Self {
        Self::conservative()
    }
}

/// An observable event extracted from one transition, used by the trace
/// refinement and fairness analyses (experiments **E4** and **E8**).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// The process completed its doorway and now holds ticket `number`.
    TicketTaken {
        /// Process that took the ticket.
        pid: usize,
        /// The ticket value stored in its `number` register.
        number: u64,
    },
    /// The process entered its critical section.
    EnterCs {
        /// Process entering.
        pid: usize,
    },
    /// The process left its critical section.
    ExitCs {
        /// Process leaving.
        pid: usize,
    },
    /// The process reset its registers on Bakery++'s overflow-avoidance path.
    OverflowAvoided {
        /// Process that took the reset branch.
        pid: usize,
    },
    /// The process attempted to store a value above a register's bound.
    Overflowed {
        /// Process that overflowed.
        pid: usize,
        /// The value it attempted to store.
        attempted: u64,
    },
}

/// A mutual-exclusion algorithm expressed as a next-state relation.
pub trait Algorithm: Send + Sync {
    /// Short name used in reports (e.g. `"bakery++"`).
    fn name(&self) -> &str;

    /// Number of participating processes.
    fn processes(&self) -> usize;

    /// Descriptions of the shared registers, index-aligned with
    /// [`ProgState::shared`].
    fn registers(&self) -> Vec<RegisterSpec>;

    /// The initial global state (all registers zero, every process in its
    /// noncritical section).
    fn initial_state(&self) -> ProgState;

    /// Appends to `out` every state process `pid` can reach in one atomic
    /// step from `state`.  An empty result means the process is blocked
    /// (waiting) or crashed.
    fn successors(&self, state: &ProgState, pid: usize, out: &mut Vec<ProgState>);

    /// True when process `pid` is inside its critical section in `state`.
    fn in_critical_section(&self, state: &ProgState, pid: usize) -> bool;

    /// True when process `pid` is in its trying region (wants the critical
    /// section but has not entered yet).  Used by liveness/starvation checks.
    fn is_trying(&self, state: &ProgState, pid: usize) -> bool;

    /// A crash transition for process `pid` (paper assumptions 1.5–1.7):
    /// the process resets the registers it owns to zero and restarts in its
    /// noncritical section.  Returns `None` if the algorithm does not model
    /// crashes or `pid` is already idle.
    fn crash(&self, _state: &ProgState, _pid: usize) -> Option<ProgState> {
        None
    }

    /// Human-readable label for a program-counter value (for traces).
    fn pc_label(&self, _pc: u32) -> &'static str {
        "?"
    }

    /// The observable event (if any) produced by the transition
    /// `prev → next` taken by process `pid`.
    fn observe(&self, _prev: &ProgState, _next: &ProgState, _pid: usize) -> Option<Observation> {
        None
    }

    /// Upper bounds on pc and local-variable values, used to size the model
    /// checker's compact state encoding.  The conservative default is always
    /// sound; override to shrink the per-state footprint.
    fn state_bounds(&self) -> StateBounds {
        StateBounds::conservative()
    }

    /// The register model this instance's shared variables obey.  Defaults
    /// to [`RegisterSemantics::Atomic`]; implementations with a semantics
    /// knob return [`RegisterSemantics::Safe`] when it is switched on, which
    /// tells the model checker's compact encoding to add pending-write lanes.
    fn register_semantics(&self) -> RegisterSemantics {
        RegisterSemantics::Atomic
    }

    /// The symmetry group the specification's states may be quotiented by
    /// (see [`crate::symmetry`] for the exact soundness contract the
    /// `bakery-mc` explorer relies on).  `None` — the default — means no
    /// reduction is available.
    fn symmetry(&self) -> Option<SymmetryGroup> {
        None
    }

    /// Convenience: collects the successors of `pid` into a fresh vector.
    fn successors_vec(&self, state: &ProgState, pid: usize) -> Vec<ProgState> {
        let mut out = Vec::new();
        self.successors(state, pid, &mut out);
        out
    }

    /// True when no process has any successor from `state` (a deadlock, since
    /// the specifications model cyclic processes that always want to move).
    fn is_deadlock(&self, state: &ProgState) -> bool {
        (0..self.processes()).all(|pid| self.successors_vec(state, pid).is_empty())
    }

    /// Number of processes simultaneously inside their critical sections.
    fn processes_in_cs(&self, state: &ProgState) -> usize {
        (0..self.processes())
            .filter(|&pid| self.in_critical_section(state, pid))
            .count()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! A tiny, deliberately *incorrect* algorithm used to exercise the
    //! simulator, scheduler, invariant and model-checking machinery without
    //! depending on the real specifications in `bakery-spec`.

    use super::*;
    use crate::state::ProcState;

    /// A toy two-phase lock with **no protection at all**: every process can
    /// walk straight into the critical section.  Program counters:
    /// 0 = noncritical, 1 = trying, 2 = critical.
    ///
    /// The shared register `entries` counts completed critical sections and
    /// has a configurable bound so register-bound violations can be provoked.
    #[derive(Debug)]
    pub struct BrokenLock {
        pub processes: usize,
        pub bound: u64,
    }

    impl Algorithm for BrokenLock {
        fn name(&self) -> &str {
            "broken-lock"
        }

        fn processes(&self) -> usize {
            self.processes
        }

        fn registers(&self) -> Vec<RegisterSpec> {
            vec![RegisterSpec::shared("entries", self.bound)]
        }

        fn initial_state(&self) -> ProgState {
            ProgState::new(1, &vec![ProcState::new(0, &[]); self.processes])
        }

        fn successors(&self, state: &ProgState, pid: usize, out: &mut Vec<ProgState>) {
            if state.is_crashed(pid) {
                return;
            }
            match state.pc(pid) {
                0 => out.push(state.with_pc(pid, 1)),
                1 => out.push(state.with_pc(pid, 2)),
                2 => {
                    let mut next = state.with_pc(pid, 0);
                    next.set_shared(0, state.read(0) + 1);
                    out.push(next);
                }
                _ => {}
            }
        }

        fn in_critical_section(&self, state: &ProgState, pid: usize) -> bool {
            state.pc(pid) == 2
        }

        fn is_trying(&self, state: &ProgState, pid: usize) -> bool {
            state.pc(pid) == 1
        }

        fn pc_label(&self, pc: u32) -> &'static str {
            match pc {
                0 => "noncritical",
                1 => "trying",
                2 => "critical",
                _ => "?",
            }
        }

        fn observe(
            &self,
            prev: &ProgState,
            next: &ProgState,
            pid: usize,
        ) -> Option<Observation> {
            match (prev.pc(pid), next.pc(pid)) {
                (1, 2) => Some(Observation::EnterCs { pid }),
                (2, 0) => Some(Observation::ExitCs { pid }),
                _ => None,
            }
        }
    }

    #[test]
    fn broken_lock_violates_mutual_exclusion_quickly() {
        let alg = BrokenLock {
            processes: 2,
            bound: 100,
        };
        let s0 = alg.initial_state();
        // Walk both processes into the critical section.
        let s1 = alg.successors_vec(&s0, 0)[0].clone();
        let s2 = alg.successors_vec(&s1, 0)[0].clone();
        let s3 = alg.successors_vec(&s2, 1)[0].clone();
        let s4 = alg.successors_vec(&s3, 1)[0].clone();
        assert!(alg.in_critical_section(&s4, 0));
        assert!(alg.in_critical_section(&s4, 1));
        assert_eq!(alg.processes_in_cs(&s4), 2);
        assert!(!alg.is_deadlock(&s4));
    }

    #[test]
    fn observations_are_emitted_on_cs_boundaries() {
        let alg = BrokenLock {
            processes: 1,
            bound: 10,
        };
        let s0 = alg.initial_state();
        let s1 = alg.successors_vec(&s0, 0)[0].clone();
        let s2 = alg.successors_vec(&s1, 0)[0].clone();
        let s3 = alg.successors_vec(&s2, 0)[0].clone();
        assert_eq!(alg.observe(&s0, &s1, 0), None);
        assert_eq!(alg.observe(&s1, &s2, 0), Some(Observation::EnterCs { pid: 0 }));
        assert_eq!(alg.observe(&s2, &s3, 0), Some(Observation::ExitCs { pid: 0 }));
        assert_eq!(s3.read(0), 1, "exit increments the shared counter");
    }
}

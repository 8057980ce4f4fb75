//! The Bakery step machine: one doorway-generic body that runs Lamport's
//! Bakery (Algorithm 1), Bakery++ (Algorithm 2) and every level of the tree.
//!
//! ```text
//! L1: choosing[i] := 1;
//!     number[i]   := 1 + maximum(number[1], …, number[N]);
//!     choosing[i] := 0;
//!     for j = 1 .. N do
//! L2:     if choosing[j] ≠ 0 then goto L2;
//! L3:     if number[j] ≠ 0 and (number[j], j) < (number[i], i) then goto L3;
//!     critical section;
//!     number[i] := 0;
//! ```
//!
//! Algorithms 1 and 2 differ only in their doorway, so one step body holds
//! every phase of both, with one match arm per [`pc`] phase.  A [`Doorway`]
//! type parameter says which doorway runs: [`Classic`] (below, next to its
//! listing) or [`PlusPlus`](crate::bakery_pp::PlusPlus), which adds the `L1`
//! admission scan and the bound check with its reset path (next to Algorithm
//! 2's listing in [`crate::bakery_pp`]).  [`FlatBakerySpec`] runs the body
//! for `N` processes over one register vector; [`BakerySpec`] and
//! [`BakeryPlusPlusSpec`](crate::BakeryPlusPlusSpec) are its two aliases,
//! the spec twins of `bakery-core`'s `BakeryLock` and `BakeryPlusPlusLock`.
//! The tree ([`crate::TreeBakerySpec`]) runs the same Bakery++ body once per
//! level, on the registers of the node on the process's path.
//!
//! The ticket store at [`pc::WRITE_TICKET`] writes the computed value
//! `1 + maximum`, capped at `M + 1`: one above the bound.  Under the classic
//! doorway, values above `M` therefore appear in the state exactly when the
//! algorithm *would have overflowed a real register*, which is what the
//! `NoOverflow` invariant detects, while the cap keeps the reachable state
//! space finite.  Bakery++ reaches the store only with `maximum < M`, so the
//! cap never bites there.

use std::marker::PhantomData;
use std::ops::RangeInclusive;

use bakery_sim::state::assert_fits;
use bakery_sim::{
    Algorithm, Observation, ProcState, ProgState, RegisterSemantics, RegisterSpec, StateBounds,
    SymmetryGroup,
};

use crate::layout::{choosing_idx, flat_symmetry, number_idx, ticket_precedes};
use crate::pc;

/// Local-variable slots used by the Bakery-family specs.
pub(crate) const LOCAL_J: usize = 0;
pub(crate) const LOCAL_MAX: usize = 1;

/// What distinguishes one bakery specification from another: its doorway.
pub trait Doorway {
    /// The name [`Algorithm::name`] reports.
    const NAME: &'static str;
    /// True for Bakery++: the process passes the `L1` admission scan before
    /// its doorway, and checks the observed maximum against `M` (taking the
    /// reset path at `M`) before it stores a ticket.  The classic doorway
    /// never occupies those phases.
    const GUARDED: bool;
}

/// Algorithm 1's doorway: draw `1 + maximum(...)`, with no guard.
#[derive(Debug, Clone, Copy)]
pub struct Classic;

impl Doorway for Classic {
    const NAME: &'static str = "bakery";
    const GUARDED: bool = false;
}

/// Lamport's Bakery algorithm as a checkable specification.
pub type BakerySpec = FlatBakerySpec<Classic>;

/// A bakery for `N` processes over one register vector (`choosing[0..N]`,
/// then `number[0..N]`), parameterised by its [`Doorway`].  Use it through
/// the [`BakerySpec`] and [`BakeryPlusPlusSpec`](crate::BakeryPlusPlusSpec)
/// aliases.
#[derive(Debug, Clone)]
pub struct FlatBakerySpec<D> {
    n: usize,
    bound: u64,
    semantics: RegisterSemantics,
    doorway: PhantomData<fn() -> D>,
}

impl<D: Doorway> FlatBakerySpec<D> {
    /// Creates a spec for `n` processes with register bound `M = bound`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `bound == 0`, and if the `2n` registers exceed
    /// the inline capacity of a state: [`assert_fits`] allows
    /// [`MAX_REGISTERS`](bakery_sim::state::MAX_REGISTERS) = 12 of them, so
    /// `n ≤ 6`.
    #[must_use]
    pub fn new(n: usize, bound: u64) -> Self {
        assert!(n >= 1, "need at least one process");
        assert!(bound >= 1, "the register bound M must be at least 1");
        assert_fits(2 * n, n, 2);
        Self {
            n,
            bound,
            semantics: RegisterSemantics::Atomic,
            doorway: PhantomData,
        }
    }

    /// Selects the register model (atomic or safe/flickering registers).
    #[must_use]
    pub fn with_semantics(mut self, semantics: RegisterSemantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// The register bound `M`.
    #[must_use]
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// Process `pid`'s seat: the whole register vector, as process `pid`.
    fn seat(&self, pid: usize) -> Seat {
        Seat {
            pid,
            me: pid,
            width: self.n,
            regs: 0,
            pc_base: 0,
            bound: self.bound,
            semantics: self.semantics,
        }
    }
}

impl<D: Doorway> Algorithm for FlatBakerySpec<D> {
    fn name(&self) -> &str {
        D::NAME
    }

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> Vec<RegisterSpec> {
        crate::layout::registers(self.n, self.bound)
    }

    fn initial_state(&self) -> ProgState {
        let procs = vec![ProcState::new(pc::NCS, &[0, 0]); self.n];
        match self.semantics {
            RegisterSemantics::Atomic => ProgState::new(2 * self.n, &procs),
            RegisterSemantics::Safe => ProgState::new_weak(2 * self.n, &procs),
        }
    }

    fn successors(&self, state: &ProgState, pid: usize, out: &mut Vec<ProgState>) {
        if state.is_crashed(pid) {
            return;
        }
        // Safe semantics: a begun write must commit before the process takes
        // any other step (program order).  Bakery registers are all
        // single-writer, so the commit is the pending value, never a clash.
        if let Some(idx) = state.write_in_progress_by(pid) {
            for value in state.commit_values(idx, self.bound) {
                let mut next = state.clone();
                next.end_write(idx, pid, value);
                out.push(next);
            }
            return;
        }
        self.seat(pid)
            .step::<D>(state, state.pc(pid), out, |next| next.set_pc(pid, pc::CS));
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
            && state.read(choosing_idx(pid)) == 0
            && state.read(number_idx(self.n, pid)) == 0
            && state.write_in_progress_by(pid).is_none()
        {
            return None;
        }
        let mut next = state.clone();
        // A crash mid-write aborts the write: the pending value is dropped,
        // never committed (safe semantics; no-op under atomic).
        next.abort_writes(pid);
        next.set_shared(choosing_idx(pid), 0);
        next.set_shared(number_idx(self.n, pid), 0);
        next.set_local(pid, LOCAL_J, 0);
        next.set_local(pid, LOCAL_MAX, 0);
        next.set_pc(pid, pc::NCS);
        Some(next)
    }

    fn pc_label(&self, pc_value: u32) -> &'static str {
        pc::label(pc_value)
    }

    fn state_bounds(&self) -> StateBounds {
        // The loop index never exceeds n.  The folded maximum never exceeds
        // what a register can hold (flicker reads cap at the bound): M under
        // Bakery++, the overflow sentinel M + 1 under the classic doorway.
        let max_bound = if D::GUARDED {
            self.bound
        } else {
            self.bound.saturating_add(1)
        };
        StateBounds::new(pc::CS, vec![self.n as u64, max_bound])
    }

    fn register_semantics(&self) -> RegisterSemantics {
        self.semantics
    }

    fn symmetry(&self) -> Option<SymmetryGroup> {
        flat_symmetry(self.n)
    }

    fn observe(&self, prev: &ProgState, next: &ProgState, pid: usize) -> Option<Observation> {
        if let Some(doorway) = self.seat(pid).observe(prev, next) {
            return Some(doorway);
        }
        let (before, after) = (prev.pc(pid), next.pc(pid));
        if before != pc::CS && after == pc::CS {
            return Some(Observation::EnterCs { pid });
        }
        if before == pc::CS && after == pc::NCS {
            return Some(Observation::ExitCs { pid });
        }
        None
    }
}

/// One process's seat at one bakery instance: the frame the step body runs
/// in.  A flat spec seats process `i` at the whole register vector as `i`.
/// The tree seats it once per level, at its child slot of the node on its
/// path, over that node's register block and the level's pc block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Seat {
    /// Process index in the global state.
    pub pid: usize,
    /// The process's id at this bakery: the listing's `i`, and the
    /// tie-break in `(number[i], i)`.
    pub me: usize,
    /// Processes at this bakery: the listing's `N`.
    pub width: usize,
    /// Shared index of `choosing[0]`; `number[j]` sits at `regs + width + j`.
    pub regs: usize,
    /// Added to every phase constant to form the process's pc.
    pub pc_base: u32,
    /// The register bound `M`.
    pub bound: u64,
    /// How the seat's reads and writes behave.
    pub semantics: RegisterSemantics,
}

impl Seat {
    fn choosing(&self, j: usize) -> usize {
        self.regs + j
    }

    fn number(&self, j: usize) -> usize {
        self.regs + self.width + j
    }

    /// The values a read of `number[j]` may return: one value, or the whole
    /// domain `[0, M]` when the read overlaps a write.
    fn read_number(&self, state: &ProgState, j: usize) -> RangeInclusive<u64> {
        state.read_values(self.number(j), self.bound)
    }

    /// A successor in which the process stores `value` to register `idx`:
    /// the whole write under atomic semantics, the *begin* step under safe
    /// semantics (the commit is forced as the process's next step).
    fn store(&self, state: &ProgState, idx: usize, value: u64) -> ProgState {
        let mut next = state.clone();
        match self.semantics {
            RegisterSemantics::Atomic => next.set_shared(idx, value),
            RegisterSemantics::Safe => next.begin_write(idx, value, self.pid),
        }
        next
    }

    fn set_j(&self, next: &mut ProgState, j: usize) {
        next.set_local(self.pid, LOCAL_J, j as u64);
    }

    fn goto(&self, next: &mut ProgState, phase: u32) {
        next.set_pc(self.pid, self.pc_base + phase);
    }

    /// Starts Bakery++'s `L1` admission scan with fresh locals: the step
    /// out of the noncritical section, and the tree's climb to a level.
    pub(crate) fn enter(&self, next: &mut ProgState) {
        self.set_j(next, 0);
        next.set_local(self.pid, LOCAL_MAX, 0);
        self.goto(next, pc::L1_SCAN);
    }

    /// Pushes every successor of the process's step at `phase`, in a fixed
    /// order: restart before advance at `L1`, folded maxima ascending.  Once
    /// the `L2`/`L3` scan has passed every `j` the process has won this
    /// bakery, and `won` moves it on: into a flat bakery's critical section,
    /// or up the tree.
    pub(crate) fn step<D: Doorway>(
        &self,
        state: &ProgState,
        phase: u32,
        out: &mut Vec<ProgState>,
        won: impl FnOnce(&mut ProgState),
    ) {
        let pid = self.pid;
        let j = state.local(pid, LOCAL_J) as usize;
        let max = state.local(pid, LOCAL_MAX);
        match phase {
            pc::NCS if D::GUARDED => {
                let mut next = state.clone();
                self.enter(&mut next);
                out.push(next);
            }
            pc::L1_SCAN => {
                if j >= self.width {
                    // All registers observed below M: proceed to the doorway.
                    let mut next = state.clone();
                    self.set_j(&mut next, 0);
                    self.goto(&mut next, pc::SET_CHOOSING);
                    out.push(next);
                } else {
                    // Two possible outcomes (restart vs advance); flicker
                    // values with the same outcome yield the same successor,
                    // so push each outcome at most once.
                    let values = self.read_number(state, j);
                    if *values.end() >= self.bound {
                        // Illegitimate situation: restart the scan (goto L1).
                        let mut next = state.clone();
                        self.set_j(&mut next, 0);
                        out.push(next);
                    }
                    if *values.start() < self.bound {
                        let mut next = state.clone();
                        self.set_j(&mut next, j + 1);
                        out.push(next);
                    }
                }
            }
            // Without the L1 scan, the step out of the noncritical section
            // is the doorway's first store.
            pc::NCS | pc::SET_CHOOSING => {
                let mut next = self.store(state, self.choosing(self.me), 1);
                self.set_j(&mut next, 0);
                next.set_local(pid, LOCAL_MAX, 0);
                self.goto(&mut next, pc::COMPUTE_MAX);
                out.push(next);
            }
            pc::COMPUTE_MAX => {
                if j < self.width {
                    // Fold number[j] into the running maximum (one read per
                    // step).  Flicker values folding to the same maximum
                    // yield the same successor: one per folded maximum.
                    let values = self.read_number(state, j);
                    for folded in max.max(*values.start())..=max.max(*values.end()) {
                        let mut next = state.clone();
                        next.set_local(pid, LOCAL_MAX, folded);
                        self.set_j(&mut next, j + 1);
                        out.push(next);
                    }
                } else {
                    let mut next = state.clone();
                    let store = if D::GUARDED {
                        pc::WRITE_MAX
                    } else {
                        pc::WRITE_TICKET
                    };
                    self.goto(&mut next, store);
                    out.push(next);
                }
            }
            pc::WRITE_MAX => {
                // number[i] := maximum(...).  Always <= M: each register is
                // <= M individually (flicker reads are also capped at M).
                let mut next = self.store(state, self.number(self.me), max.min(self.bound));
                self.goto(&mut next, pc::CHECK_BOUND);
                out.push(next);
            }
            pc::CHECK_BOUND => {
                let mut next = state.clone();
                let branch = if max >= self.bound {
                    pc::RESET_NUMBER
                } else {
                    pc::WRITE_TICKET
                };
                self.goto(&mut next, branch);
                out.push(next);
            }
            pc::RESET_NUMBER => {
                let mut next = self.store(state, self.number(self.me), 0);
                self.goto(&mut next, pc::RESET_CHOOSING);
                out.push(next);
            }
            pc::RESET_CHOOSING => {
                let mut next = self.store(state, self.choosing(self.me), 0);
                self.set_j(&mut next, 0);
                self.goto(&mut next, pc::L1_SCAN);
                out.push(next);
            }
            pc::WRITE_TICKET => {
                // number[i] := 1 + maximum — the store that can overflow, so
                // it is capped at the sentinel M + 1.  Bakery++ gets here
                // only with maximum < M, where the cap never bites.
                debug_assert!(!D::GUARDED || max < self.bound);
                let ticket = (max + 1).min(self.bound + 1);
                let mut next = self.store(state, self.number(self.me), ticket);
                self.goto(&mut next, pc::CLEAR_CHOOSING);
                out.push(next);
            }
            pc::CLEAR_CHOOSING => {
                let mut next = self.store(state, self.choosing(self.me), 0);
                self.set_j(&mut next, 0);
                self.goto(&mut next, pc::SCAN_CHOOSING);
                out.push(next);
            }
            pc::SCAN_CHOOSING => {
                if j == self.me {
                    let mut next = state.clone();
                    self.set_j(&mut next, j + 1);
                    out.push(next);
                } else if j >= self.width {
                    let mut next = state.clone();
                    won(&mut next);
                    out.push(next);
                } else if state.read_values(self.choosing(j), 1).contains(&0) {
                    // choosing[j] reads zero, or flickers (and may read zero).
                    let mut next = state.clone();
                    self.goto(&mut next, pc::SCAN_NUMBER);
                    out.push(next);
                }
                // else: blocked at L2.
            }
            pc::SCAN_NUMBER => {
                // Every passing read value yields the same successor, so one
                // push suffices (outcome dedup); a read that can only return
                // blocking values keeps us at L3.
                let mine = state.read(self.number(self.me));
                let passes = self
                    .read_number(state, j)
                    .any(|other| other == 0 || !ticket_precedes(other, j, mine, self.me));
                if passes {
                    let mut next = state.clone();
                    self.set_j(&mut next, j + 1);
                    self.goto(&mut next, pc::SCAN_CHOOSING);
                    out.push(next);
                }
            }
            pc::CS => {
                // Leave: number[i] := 0.
                let mut next = self.store(state, self.number(self.me), 0);
                self.goto(&mut next, pc::NCS);
                out.push(next);
            }
            _ => {}
        }
    }

    /// The doorway's observation of the transition `prev → next`: the ticket
    /// store (an overflow when it reached the sentinel) and Bakery++'s reset
    /// back to `L1`.
    pub(crate) fn observe(&self, prev: &ProgState, next: &ProgState) -> Option<Observation> {
        let pid = self.pid;
        let moved = |from: u32, to: u32| {
            prev.pc(pid) == self.pc_base + from && next.pc(pid) == self.pc_base + to
        };
        if moved(pc::WRITE_TICKET, pc::CLEAR_CHOOSING) {
            // Under safe semantics this transition is the write's *begin*
            // step, so the ticket is the pending value, not the (stale)
            // committed one.
            let stored = next.last_stored(self.number(self.me));
            if stored > self.bound {
                return Some(Observation::Overflowed {
                    pid,
                    attempted: prev.local(pid, LOCAL_MAX) + 1,
                });
            }
            return Some(Observation::TicketTaken {
                pid,
                number: stored,
            });
        }
        if moved(pc::RESET_CHOOSING, pc::L1_SCAN) {
            return Some(Observation::OverflowAvoided { pid });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bakery_sim::{Invariant, RandomScheduler, RoundRobinScheduler, RunConfig, Simulator};

    #[test]
    fn single_process_cycles_cleanly() {
        let spec = BakerySpec::new(1, 10);
        let config = RunConfig::<BakerySpec>::checked(200);
        let outcome = Simulator::new().run(&spec, &mut RoundRobinScheduler::new(), &config);
        assert!(outcome.report.is_clean(), "{:?}", outcome.report.violations);
        assert!(outcome.report.total_cs_entries() >= 20);
    }

    #[test]
    fn two_processes_preserve_mutual_exclusion_under_random_schedules() {
        let spec = BakerySpec::new(2, 1_000);
        for seed in 0..20 {
            let config = RunConfig::<BakerySpec>::checked(2_000);
            let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(seed), &config);
            let mutex_violations: Vec<_> = outcome
                .report
                .violations
                .iter()
                .filter(|v| v.invariant == "MutualExclusion")
                .collect();
            assert!(
                mutex_violations.is_empty(),
                "seed {seed}: {mutex_violations:?}"
            );
        }
    }

    #[test]
    fn flicker_reads_do_not_break_mutual_exclusion() {
        let spec = BakerySpec::new(2, 1_000).with_semantics(RegisterSemantics::Safe);
        for seed in 0..10 {
            let config = RunConfig::<BakerySpec>::checked(2_000);
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
    fn bounded_bakery_eventually_overflows_under_alternation() {
        // Random schedules over a tiny bound: the NoOverflow invariant must
        // eventually fail — this is the §3 malfunction.
        let spec = BakerySpec::new(2, 3);
        let mut saw_overflow = false;
        for seed in 0..50 {
            let config = RunConfig::<BakerySpec>::checked(5_000);
            let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(seed), &config);
            if outcome
                .report
                .violations
                .iter()
                .any(|v| v.invariant == "NoOverflow")
            {
                saw_overflow = true;
                break;
            }
        }
        assert!(saw_overflow, "bounded classic Bakery must overflow");
    }

    #[test]
    fn tickets_grow_when_the_bakery_never_empties() {
        let spec = BakerySpec::new(2, 1_000_000);
        let config = RunConfig::<BakerySpec>::checked(20_000);
        let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(7), &config);
        assert!(outcome.report.is_clean());
        assert!(
            outcome.report.max_register_value > 2,
            "under contention tickets should exceed the single-process value"
        );
    }

    #[test]
    fn crash_transition_resets_owned_registers() {
        let spec = BakerySpec::new(2, 10);
        let s0 = spec.initial_state();
        // Advance process 0 into its doorway.
        let s1 = spec.successors_vec(&s0, 0)[0].clone();
        assert_eq!(s1.read(choosing_idx(0)), 1);
        let crashed = spec.crash(&s1, 0).expect("crash transition");
        assert_eq!(crashed.read(choosing_idx(0)), 0);
        assert_eq!(crashed.read(number_idx(2, 0)), 0);
        assert_eq!(crashed.pc(0), pc::NCS);
        // Crashing an idle process is a no-op.
        assert!(spec.crash(&s0, 1).is_none());
    }

    #[test]
    fn observations_include_tickets_and_cs_boundaries() {
        let spec = BakerySpec::new(1, 10);
        let config = RunConfig::<BakerySpec>::checked(40);
        let outcome = Simulator::new().run(&spec, &mut RoundRobinScheduler::new(), &config);
        let tickets = outcome.trace.ticket_order();
        assert!(!tickets.is_empty());
        assert!(tickets.iter().all(|&(p, number)| p == 0 && number == 1));
        assert_eq!(
            outcome.trace.cs_entries(),
            outcome.report.total_cs_entries()
        );
    }

    #[test]
    fn trying_and_cs_predicates() {
        let spec = BakerySpec::new(2, 10);
        let s0 = spec.initial_state();
        assert!(!spec.is_trying(&s0, 0));
        assert!(!spec.in_critical_section(&s0, 0));
        let s1 = spec.successors_vec(&s0, 0)[0].clone();
        assert!(spec.is_trying(&s1, 0));
        assert_eq!(spec.pc_label(pc::SCAN_NUMBER), "L3-scan-number");
    }

    #[test]
    fn custom_invariant_can_observe_bakery_registers() {
        // Sanity check that the spec's registers() names line up with state
        // indices: choosing first, then number.
        let spec = BakerySpec::new(3, 9);
        let regs = spec.registers();
        assert_eq!(regs.len(), 6);
        assert_eq!(regs[0].name, "choosing[0]");
        assert_eq!(regs[3].name, "number[0]");
        assert_eq!(regs[5].bound, 9);
        let inv = Invariant::<BakerySpec>::register_bounds();
        assert!(inv.holds(&spec, &spec.initial_state()));
    }

    #[test]
    #[should_panic(
        expected = "a ProgState holds at most 12 registers (MAX_REGISTERS); this shape needs 14"
    )]
    fn seven_processes_exceed_the_state_capacity_where_the_spec_is_built() {
        let _ = BakerySpec::new(7, 3);
    }
}

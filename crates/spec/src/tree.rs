//! Step-machine specification of the tournament-of-bounded-bakeries
//! (`bakery-core::tree::TreeBakery`).
//!
//! The tree places `K^levels` processes at the leaves of a K-ary tree whose
//! nodes are independent Bakery++ instances with per-node bound `M = K + 1`.
//! A process runs the full Bakery++ program (L1 admission scan, doorway,
//! `L2`/`L3` scans) once per level from its leaf node up to the root, enters
//! the critical section after winning the root, and releases the nodes in
//! reverse (root first, leaf last) — one register write per release step.
//!
//! Each level of the program *is* [`crate::BakeryPlusPlusSpec`]'s program,
//! by construction: the tree runs the one Bakery step body of
//! [`crate::bakery`] with the [`PlusPlus`] doorway on the level's node
//! registers, with the process's child slot as its node-local process id.
//! So every step performs at most one shared-register access, as in the flat
//! specs.  The tree adds only what belongs to it: the climb from one level
//! to the next, the root-first release, the engaged-prefix crash rule, its
//! register declarations and the leaf-placement symmetry group.  Registers
//! are atomic ([`crate::RegisterSemantics::Atomic`]): the composition
//! argument, not the safe-register model, is what this spec exists to check.
//!
//! The `bakery-mc` explorer checks the composition exhaustively for small
//! instances (see `with_active_processes`, which keeps the state space
//! tractable by letting only a chosen subset of leaves compete), and the
//! differential conformance suite replays seeded schedules against the real
//! lock.
//!
//! ## Program counters
//!
//! `pc = 0` is the noncritical section.  While trying at level `l`
//! (0 = leaf), `pc = 16·(l + 1) + phase` where `phase` is the Bakery++ phase
//! constant from [`crate::pc`] (`L1_SCAN ..= SCAN_NUMBER`).  The critical
//! section is `pc = 16·(levels + 1)`, and release step `i` (which clears the
//! `number` register at level `levels − 1 − i`) is `CS + i` for
//! `i ≥ 1` — the transition out of the critical section performs release
//! step 0 (the root) itself, mirroring how the flat specification folds the
//! release write into its CS exit.

use bakery_sim::state::assert_fits;
use bakery_sim::{
    Algorithm, Invariant, Observation, ProcState, ProgState, RegisterSemantics, RegisterSpec,
    StateBounds, StatePermutation, SymmetryGroup,
};

use crate::bakery::{Seat, LOCAL_J, LOCAL_MAX};
use crate::bakery_pp::PlusPlus;
use crate::pc;

/// Stride between the pc blocks of consecutive tree levels.
const LEVEL_STRIDE: u32 = 16;

/// The tree composite as a checkable specification.
#[derive(Debug, Clone)]
pub struct TreeBakerySpec {
    arity: usize,
    levels: usize,
    n: usize,
    /// Per-node register bound `M = arity + 1`.
    bound: u64,
    /// `active[pid] == false` freezes the process in its noncritical section
    /// (no successors), shrinking the state space for exhaustive checking.
    active: Vec<bool>,
}

impl TreeBakerySpec {
    /// Creates a spec for a full K-ary tree: `arity^levels` processes.
    ///
    /// # Panics
    /// Panics if `arity < 2` or `levels == 0`, and if the tree's registers
    /// (`2 · arity` per node) or processes exceed the inline capacity of a
    /// state: [`assert_fits`] allows
    /// [`MAX_REGISTERS`](bakery_sim::state::MAX_REGISTERS) = 12 registers and
    /// [`MAX_PROCESSES`](bakery_sim::state::MAX_PROCESSES) = 6 processes.
    /// The binary 2-level tree (12 registers, 4 processes) is the largest
    /// that fits.
    #[must_use]
    pub fn new(arity: usize, levels: usize) -> Self {
        assert!(arity >= 2, "a tree node needs at least two children");
        assert!(levels >= 1, "a tree needs at least one level");
        let n = arity.pow(levels as u32);
        let spec = Self {
            arity,
            levels,
            n,
            bound: arity as u64 + 1,
            active: vec![true; n],
        };
        assert_fits(spec.node_count() * 2 * arity, n, 2);
        spec
    }

    /// Restricts stepping to `pids`; everyone else stays parked in the
    /// noncritical section.  Keeps exhaustive exploration tractable while
    /// still choosing *which* tree paths collide (same leaf node vs paths
    /// that only meet at the root).
    ///
    /// # Panics
    /// Panics if `pids` is empty or names an out-of-range process.
    #[must_use]
    pub fn with_active_processes(mut self, pids: &[usize]) -> Self {
        assert!(!pids.is_empty(), "at least one process must be active");
        self.active = vec![false; self.n];
        for &pid in pids {
            assert!(pid < self.n, "pid {pid} out of range");
            self.active[pid] = true;
        }
        self
    }

    /// Children per node.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tree levels.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The per-node register bound `M = arity + 1`.
    #[must_use]
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// Nodes at `level` (level 0 is the leaf level).
    #[must_use]
    pub fn nodes_at(&self, level: usize) -> usize {
        self.arity.pow((self.levels - 1 - level) as u32)
    }

    /// Total node count.
    #[must_use]
    pub fn node_count(&self) -> usize {
        (0..self.levels).map(|l| self.nodes_at(l)).sum()
    }

    /// The `(node index, slot)` process `pid` occupies at `level` — identical
    /// to `TreeBakery::position` in `bakery-core`.
    #[must_use]
    pub fn position(&self, pid: usize, level: usize) -> (usize, usize) {
        let below = self.arity.pow(level as u32);
        ((pid / below) / self.arity, (pid / below) % self.arity)
    }

    /// Global node index of `(level, node)` in level-major order (leaves
    /// first).
    fn node_index(&self, level: usize, node: usize) -> usize {
        (0..level).map(|l| self.nodes_at(l)).sum::<usize>() + node
    }

    /// Shared-register index of `choosing[slot]` of node `(level, node)`.
    #[must_use]
    pub fn choosing_idx(&self, level: usize, node: usize, slot: usize) -> usize {
        self.node_index(level, node) * 2 * self.arity + slot
    }

    /// Shared-register index of `number[slot]` of node `(level, node)`.
    #[must_use]
    pub fn number_idx(&self, level: usize, node: usize, slot: usize) -> usize {
        self.node_index(level, node) * 2 * self.arity + self.arity + slot
    }

    /// Process `pid`'s seat at `level`: its child slot of the node on its
    /// path, over that node's register block and the level's pc block.
    fn seat(&self, pid: usize, level: usize) -> Seat {
        let (node, slot) = self.position(pid, level);
        Seat {
            pid,
            me: slot,
            width: self.arity,
            regs: self.choosing_idx(level, node, 0),
            pc_base: (level as u32 + 1) * LEVEL_STRIDE,
            bound: self.bound,
            semantics: RegisterSemantics::Atomic,
        }
    }

    /// The critical-section pc.
    fn cs_pc(&self) -> u32 {
        (self.levels as u32 + 1) * LEVEL_STRIDE
    }

    /// The tree-specific safety invariant: a process inside the critical
    /// section holds a non-zero ticket on every node of its leaf-to-root
    /// path (it climbed by winning each node and releases only after
    /// leaving the CS).  Defined here — next to the spec it talks about —
    /// so the close-out test, the `tree_closeout` example and the CI job
    /// all check the one definition.
    #[must_use]
    pub fn cs_holder_owns_path() -> Invariant<Self> {
        Invariant::new("CsHolderOwnsPath", |alg: &Self, state| {
            (0..alg.processes()).all(|pid| {
                if !alg.in_critical_section(state, pid) {
                    return true;
                }
                (0..alg.levels()).all(|level| {
                    let (node, slot) = alg.position(pid, level);
                    state.read(alg.number_idx(level, node, slot)) != 0
                })
            })
        })
    }

    /// Lifts a tree-automorphic pid relabelling to the register permutation
    /// it induces: slot `s` of node `m` at level `l` is driven by the pid
    /// block `{p : p / arity^l == m·arity + s}`, and a tree automorphism maps
    /// that block onto another level-`l` block, whose `(node, slot)` the
    /// block's registers follow.
    ///
    /// # Panics
    /// Panics if `proc_map` is not a tree automorphism (some block is torn
    /// apart), so an unsound group can never be handed to the checker.
    fn induced_permutation(&self, proc_map: Vec<usize>) -> StatePermutation {
        let mut shared = vec![0usize; self.node_count() * 2 * self.arity];
        for level in 0..self.levels {
            let below = self.arity.pow(level as u32);
            for node in 0..self.nodes_at(level) {
                for slot in 0..self.arity {
                    let block_start = (node * self.arity + slot) * below;
                    let image = self.position(proc_map[block_start], level);
                    for offset in 1..below {
                        assert_eq!(
                            self.position(proc_map[block_start + offset], level),
                            image,
                            "proc_map is not a tree automorphism at level {level}"
                        );
                    }
                    let (new_node, new_slot) = image;
                    shared[self.choosing_idx(level, node, slot)] =
                        self.choosing_idx(level, new_node, new_slot);
                    shared[self.number_idx(level, node, slot)] =
                        self.number_idx(level, new_node, new_slot);
                }
            }
        }
        StatePermutation::new(proc_map, shared)
    }

    /// Decodes a trying pc into `(level, phase)`; `None` for NCS/CS/release
    /// and for values below the first level block (flat-spec pc constants
    /// such as bare [`pc::L1_SCAN`] are not valid tree pcs).
    fn decode(&self, pc_value: u32) -> Option<(usize, u32)> {
        if pc_value < LEVEL_STRIDE || pc_value >= self.cs_pc() {
            return None;
        }
        let level = (pc_value / LEVEL_STRIDE) as usize - 1;
        Some((level, pc_value % LEVEL_STRIDE))
    }
}

impl Algorithm for TreeBakerySpec {
    fn name(&self) -> &str {
        "tree-bakery"
    }

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> Vec<RegisterSpec> {
        let mut regs = Vec::with_capacity(self.node_count() * 2 * self.arity);
        for level in 0..self.levels {
            for node in 0..self.nodes_at(level) {
                // Node slots are driven by different processes over time (a
                // slot belongs to whoever holds the subtree below it), so the
                // registers are declared without a fixed owner.
                for slot in 0..self.arity {
                    regs.push(RegisterSpec::shared(
                        format!("L{level}N{node}.choosing[{slot}]"),
                        1,
                    ));
                }
                for slot in 0..self.arity {
                    regs.push(RegisterSpec::shared(
                        format!("L{level}N{node}.number[{slot}]"),
                        self.bound,
                    ));
                }
            }
        }
        debug_assert_eq!(regs.len(), self.node_count() * 2 * self.arity);
        regs
    }

    fn initial_state(&self) -> ProgState {
        ProgState::new(
            self.node_count() * 2 * self.arity,
            &vec![ProcState::new(pc::NCS, &[0, 0]); self.n],
        )
    }

    fn successors(&self, state: &ProgState, pid: usize, out: &mut Vec<ProgState>) {
        if state.is_crashed(pid) || !self.active[pid] {
            return;
        }
        let cs = self.cs_pc();
        let pc_value = state.pc(pid);

        // Critical section and release steps: step i (the CS exit is step 0)
        // clears `number` at level levels - 1 - i, root first.
        if pc_value >= cs {
            let i = (pc_value - cs) as usize;
            let level = self.levels - 1 - i;
            let (node, slot) = self.position(pid, level);
            let mut next = state.clone();
            next.set_shared(self.number_idx(level, node, slot), 0);
            let released = i + 1 == self.levels;
            next.set_pc(pid, if released { pc::NCS } else { pc_value + 1 });
            out.push(next);
            return;
        }

        // Start trying at the leaf level, or try at some level: the Bakery++
        // body over that level's node.
        let (level, phase) = match self.decode(pc_value) {
            Some(at) => at,
            None if pc_value == pc::NCS => (0, pc::NCS),
            None => return,
        };
        self.seat(pid, level)
            .step::<PlusPlus>(state, phase, out, |next| {
                // Node won: climb, or enter the critical section from the root.
                if level + 1 == self.levels {
                    next.set_pc(pid, cs);
                } else {
                    self.seat(pid, level + 1).enter(next);
                }
            });
    }

    fn in_critical_section(&self, state: &ProgState, pid: usize) -> bool {
        state.pc(pid) == self.cs_pc()
    }

    fn is_trying(&self, state: &ProgState, pid: usize) -> bool {
        let p = state.pc(pid);
        p != pc::NCS && p < self.cs_pc()
    }

    fn crash(&self, state: &ProgState, pid: usize) -> Option<ProgState> {
        if !self.active[pid] {
            return None;
        }
        // One atomic crash+restart transition (paper assumptions 1.5–1.7
        // applied per node): the process restarts in its NCS and every
        // register it *owns* reads zero.  Ownership is dynamic in the tree —
        // a slot at level `l` belongs to whoever holds the whole subtree
        // below it — so the crash may only wipe the levels this pid actually
        // reached: zeroing higher levels would destroy a *sibling's* tickets
        // (the sibling shares those `(node, slot)` positions once it holds
        // the subtree).  A process in its NCS owns nothing (every level it
        // touched was released or crash-cleared) and offers no distinct
        // crash successor.
        let pc_value = state.pc(pid);
        if pc_value == pc::NCS {
            return None;
        }
        let cs = self.cs_pc();
        let owned_levels = if pc_value >= cs {
            // CS holds the full path; release step i has already cleared the
            // top i levels (root-first), leaving levels 0 ..= levels-1-i.
            self.levels - (pc_value - cs) as usize
        } else {
            // Trying at (level, _): won levels 0..level, writing at `level`.
            let (level, _) = self.decode(pc_value)?;
            level + 1
        };
        let mut next = state.clone();
        for level in 0..owned_levels {
            let (node, slot) = self.position(pid, level);
            next.set_shared(self.choosing_idx(level, node, slot), 0);
            next.set_shared(self.number_idx(level, node, slot), 0);
        }
        next.set_local(pid, LOCAL_J, 0);
        next.set_local(pid, LOCAL_MAX, 0);
        next.set_pc(pid, pc::NCS);
        Some(next)
    }

    fn pc_label(&self, pc_value: u32) -> &'static str {
        if pc_value == pc::NCS {
            return "ncs";
        }
        if pc_value == self.cs_pc() {
            return "critical-section";
        }
        if pc_value > self.cs_pc() {
            return "release-node";
        }
        match self.decode(pc_value) {
            Some((_, phase)) => pc::label(phase),
            None => "?",
        }
    }

    fn state_bounds(&self) -> StateBounds {
        // Release pcs run to cs_pc + levels - 1; the loop index is at most
        // the arity; the folded maximum never exceeds the per-node bound.
        StateBounds::new(
            self.cs_pc() + self.levels as u32,
            vec![self.arity as u64, self.bound],
        )
    }

    /// The symmetry group induced by leaf placement: sibling-leaf swaps and
    /// same-level subtree permutations — exactly the relabellings that
    /// commute with [`TreeBakerySpec::position`].  Restricted to elements
    /// preserving the active-process mask, so `with_active_processes` specs
    /// are only quotiented by symmetries of their own placement.
    fn symmetry(&self) -> Option<SymmetryGroup> {
        let mut generators = Vec::new();
        for height in 1..=self.levels {
            let block = self.arity.pow((height - 1) as u32); // pids per child
            let span = block * self.arity; // pids per node at this height
            for node_start in (0..self.n).step_by(span) {
                for child in 0..self.arity - 1 {
                    let mut procs: Vec<usize> = (0..self.n).collect();
                    let a = node_start + child * block;
                    for offset in 0..block {
                        procs.swap(a + offset, a + block + offset);
                    }
                    generators.push(self.induced_permutation(procs));
                }
            }
        }
        // The full wreath-product closure: (arity!)^(internal nodes).  The
        // cap keeps degenerate large configurations from exploding; falling
        // back to `None` (no reduction) is always sound.  A closure above
        // the checker's 64-element variant bitmap is still worth generating
        // here — the active-mask stabilizer below can shrink it back into
        // range (e.g. a 3-level tree with a two-process active set) — but
        // the checker discards whatever remains above 64 elements.
        let group = SymmetryGroup::generate(&generators, 4096)?;
        Some(group.stabilizing(&self.active))
    }

    fn observe(&self, prev: &ProgState, next: &ProgState, pid: usize) -> Option<Observation> {
        let (before, after) = (prev.pc(pid), next.pc(pid));
        let cs = self.cs_pc();
        if before != cs && after == cs {
            return Some(Observation::EnterCs { pid });
        }
        if before == cs && after != cs {
            return Some(Observation::ExitCs { pid });
        }
        let (level, _) = self.decode(before)?;
        self.seat(pid, level).observe(prev, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bakery_sim::{RandomScheduler, RoundRobinScheduler, RunConfig, Simulator};

    #[test]
    fn geometry_and_accessors() {
        let spec = TreeBakerySpec::new(2, 2);
        assert_eq!(spec.processes(), 4);
        assert_eq!(spec.arity(), 2);
        assert_eq!(spec.levels(), 2);
        assert_eq!(spec.bound(), 3);
        assert_eq!(spec.nodes_at(0), 2);
        assert_eq!(spec.nodes_at(1), 1);
        assert_eq!(spec.node_count(), 3);
        assert_eq!(spec.registers().len(), 12);
        // pid 3: leaf node 1 slot 1; root node 0 slot 1.
        assert_eq!(spec.position(3, 0), (1, 1));
        assert_eq!(spec.position(3, 1), (0, 1));
    }

    #[test]
    fn register_names_and_bounds_follow_layout() {
        let spec = TreeBakerySpec::new(2, 2);
        let regs = spec.registers();
        assert_eq!(regs[spec.choosing_idx(0, 1, 0)].name, "L0N1.choosing[0]");
        assert_eq!(regs[spec.number_idx(1, 0, 1)].name, "L1N0.number[1]");
        for (i, reg) in regs.iter().enumerate() {
            let is_choosing = reg.name.contains("choosing");
            assert_eq!(reg.bound, if is_choosing { 1 } else { 3 }, "register {i}");
        }
    }

    #[test]
    fn single_process_walks_both_levels_and_releases_in_reverse() {
        let spec = TreeBakerySpec::new(2, 2);
        let mut state = spec.initial_state();
        let mut entered = false;
        for _ in 0..200 {
            let succs = spec.successors_vec(&state, 0);
            assert!(!succs.is_empty(), "a lone process can never block");
            state = succs[0].clone();
            if spec.in_critical_section(&state, 0) {
                entered = true;
                // Holding both its leaf and the root tickets.
                assert_eq!(state.read(spec.number_idx(0, 0, 0)), 1);
                assert_eq!(state.read(spec.number_idx(1, 0, 0)), 1);
            }
            if entered && state.pc(0) == pc::NCS {
                break;
            }
        }
        assert!(entered);
        assert_eq!(state.pc(0), pc::NCS);
        // Both registers released.
        assert_eq!(state.read(spec.number_idx(0, 0, 0)), 0);
        assert_eq!(state.read(spec.number_idx(1, 0, 0)), 0);
    }

    #[test]
    fn invariants_hold_on_random_schedules() {
        let spec = TreeBakerySpec::new(2, 2);
        for seed in 0..25 {
            let config = RunConfig::<TreeBakerySpec>::checked(8_000);
            let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(seed), &config);
            assert!(
                outcome.report.violations.is_empty(),
                "seed {seed}: {:?}",
                outcome.report.violations
            );
            assert!(!outcome.report.deadlocked, "seed {seed}");
            assert!(outcome.report.max_register_value <= spec.bound(), "seed {seed}");
        }
    }

    #[test]
    fn per_node_tickets_stay_within_m_and_resets_fire() {
        // M = 3 per node: contention regularly drives the reset path.
        let spec = TreeBakerySpec::new(2, 2);
        let mut saw_reset = false;
        let mut saw_ticket = false;
        for seed in 0..25 {
            let config = RunConfig::<TreeBakerySpec>::checked(8_000);
            let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(seed), &config);
            saw_reset |= outcome.report.overflow_avoidance_resets > 0;
            for (_, number) in outcome.trace.ticket_order() {
                saw_ticket = true;
                assert!(number >= 1 && number <= spec.bound(), "ticket {number}");
            }
            assert_eq!(outcome.report.overflow_attempts, 0);
        }
        assert!(saw_ticket, "tickets must be observable");
        assert!(saw_reset, "with M = 3 the overflow-avoidance path should fire");
    }

    #[test]
    fn round_robin_serves_all_four_processes() {
        let spec = TreeBakerySpec::new(2, 2);
        let config = RunConfig::<TreeBakerySpec>::checked(40_000);
        let outcome = Simulator::new().run(&spec, &mut RoundRobinScheduler::new(), &config);
        assert!(outcome.report.is_clean(), "{:?}", outcome.report.violations);
        for pid in 0..4 {
            assert!(
                outcome.report.cs_entries[pid] > 0,
                "pid {pid} starved under round robin: {:?}",
                outcome.report.cs_entries
            );
        }
    }

    #[test]
    fn inactive_processes_never_move() {
        let spec = TreeBakerySpec::new(2, 2).with_active_processes(&[1]);
        let state = spec.initial_state();
        for pid in [0, 2, 3] {
            assert!(spec.successors_vec(&state, pid).is_empty());
        }
        assert_eq!(spec.successors_vec(&state, 1).len(), 1);
        let config = RunConfig::<TreeBakerySpec>::checked(2_000);
        let outcome = Simulator::new().run(&spec, &mut RoundRobinScheduler::new(), &config);
        assert!(outcome.report.is_clean());
        assert!(outcome.report.cs_entries[1] > 0);
        assert_eq!(outcome.report.cs_entries[0], 0);
    }

    #[test]
    fn cs_holder_owns_its_entire_path() {
        // The tree discipline: a process inside the critical section holds a
        // non-zero ticket in every node on its leaf-to-root path (it climbed
        // by winning each node and releases only after leaving the CS).
        let spec = TreeBakerySpec::new(2, 2);
        let path_held = TreeBakerySpec::cs_holder_owns_path();
        for seed in 0..10 {
            let config =
                RunConfig::<TreeBakerySpec>::checked(6_000).with_invariant(path_held.clone());
            let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(seed), &config);
            assert!(
                outcome.report.violations.is_empty(),
                "seed {seed}: {:?}",
                outcome.report.violations
            );
        }
    }

    #[test]
    fn labels_cover_every_reachable_pc() {
        let spec = TreeBakerySpec::new(2, 2);
        let config = RunConfig::<TreeBakerySpec>::checked(4_000);
        let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(5), &config);
        for event in &outcome.trace.events {
            assert_ne!(spec.pc_label(event.pc_after), "?", "pc {}", event.pc_after);
        }
    }

    #[test]
    fn flat_spec_pc_constants_are_not_tree_pcs() {
        // Bare phase constants (valid for BakerySpec/BakeryPlusPlusSpec) sit
        // below the first level block; labelling them must not underflow.
        let spec = TreeBakerySpec::new(2, 2);
        for pc_value in [pc::L1_SCAN, pc::SET_CHOOSING, pc::SCAN_NUMBER, 15] {
            assert_eq!(spec.pc_label(pc_value), "?", "pc {pc_value}");
        }
        assert_eq!(spec.pc_label(pc::NCS), "ncs");
        assert_eq!(spec.pc_label(LEVEL_STRIDE + pc::L1_SCAN), "L1-scan");
    }

    #[test]
    fn symmetry_group_is_the_leaf_placement_wreath_product() {
        // 2-level binary tree: swap leaves within either leaf node, swap the
        // two leaf subtrees — S2 ≀ S2, order 8.
        let spec = TreeBakerySpec::new(2, 2);
        let group = spec.symmetry().expect("tree symmetry");
        assert_eq!(group.order(), 8);
        // Every element is a tree automorphism: blocks map to blocks, so
        // position() commutes with the relabelling at every level.
        for perm in group.elements() {
            for pid in 0..4 {
                for level in 0..2 {
                    let (node, slot) = spec.position(pid, level);
                    let (new_node, new_slot) = spec.position(perm.map_process(pid), level);
                    assert_eq!(
                        perm.map_register(spec.choosing_idx(level, node, slot)),
                        spec.choosing_idx(level, new_node, new_slot)
                    );
                    assert_eq!(
                        perm.map_register(spec.number_idx(level, node, slot)),
                        spec.number_idx(level, new_node, new_slot)
                    );
                }
            }
        }
    }

    #[test]
    fn symmetry_group_respects_the_active_mask() {
        // Only placement symmetries that fix the active set survive.
        let shared_leaf = TreeBakerySpec::new(2, 2).with_active_processes(&[0, 1]);
        assert_eq!(shared_leaf.symmetry().unwrap().order(), 4);
        // {0, 2}: only the whole-subtree swap (0 2)(1 3) survives — an inner
        // leaf swap would move an active pid onto an inactive one.
        let split = TreeBakerySpec::new(2, 2).with_active_processes(&[0, 2]);
        assert_eq!(split.symmetry().unwrap().order(), 2);
        let lone = TreeBakerySpec::new(2, 2).with_active_processes(&[1]);
        // Stabilizer of {1}: may still swap the inactive leaves 2 and 3.
        assert_eq!(lone.symmetry().unwrap().order(), 2);
    }

    #[test]
    fn state_bounds_cover_reachable_pcs_and_locals() {
        let spec = TreeBakerySpec::new(2, 2);
        let bounds = spec.state_bounds();
        let config = RunConfig::<TreeBakerySpec>::checked(6_000);
        let outcome = Simulator::new().run(&spec, &mut RandomScheduler::new(7), &config);
        for event in &outcome.trace.events {
            assert!(event.pc_after <= bounds.max_pc, "pc {}", event.pc_after);
        }
        assert_eq!(bounds.local_bound(0), 2, "loop index is at most the arity");
        assert_eq!(bounds.local_bound(1), 3, "max local is at most M");
    }

    #[test]
    #[should_panic(expected = "at least two children")]
    fn unary_spec_is_rejected() {
        let _ = TreeBakerySpec::new(1, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn active_set_must_be_in_range() {
        let _ = TreeBakerySpec::new(2, 2).with_active_processes(&[9]);
    }

    #[test]
    #[should_panic(
        expected = "a ProgState holds at most 12 registers (MAX_REGISTERS); this shape needs 28"
    )]
    fn a_tree_beyond_the_state_capacity_is_rejected_where_it_is_built() {
        let _ = TreeBakerySpec::new(2, 3);
    }
}

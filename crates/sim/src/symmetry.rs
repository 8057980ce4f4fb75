//! Process/register permutation symmetries of a specification.
//!
//! A [`StatePermutation`] relabels the processes of a [`ProgState`] and
//! applies the induced relabelling to the shared registers (a process
//! permutation only makes sense together with the register permutation it
//! induces through the algorithm's layout — `choosing[i]`/`number[i]` must
//! follow process `i` to its new name).  A [`SymmetryGroup`] is a *closed* set
//! of such permutations (composition and inverses stay inside, the identity is
//! a member), generated from a handful of generators the specification
//! declares via [`crate::Algorithm::symmetry`].
//!
//! ## What the model checker does with this (and why it is sound)
//!
//! The Bakery-family specifications are **not** strictly symmetric: the scan
//! loops visit processes in index order and ties on equal tickets are broken
//! by process index, so a permutation is generally *not* an automorphism of
//! the transition graph, and the classic symmetry *quotient* (explore one
//! representative per orbit) would be unsound — it merges states with
//! genuinely different futures.  The `bakery-mc` explorer therefore never
//! merges orbit members.  It uses the group purely as a **lossless
//! compression scheme for the visited set**: every concrete state is
//! factored into `(canonical representative, group element)` — a bijective
//! re-coordinatisation — so the store keeps one packed representative per
//! orbit plus a small bitmap of which orbit members have been seen.  The
//! search, its verdicts and its traces are bit-identical to the unreduced
//! run; only resident memory shrinks (up to the group order), and the orbit
//! count doubles as a meaningful "canonical state count" statistic.
//!
//! Closure under composition/inverse is what makes the factorisation
//! total: whichever group element minimises the representative's code, its
//! inverse (the variant id) is also a group member.

use crate::state::{PendingWrite, ProgState};

/// A simultaneous relabelling of processes and shared registers.
///
/// `proc_map[p]` is the new index of process `p`; `shared_map[r]` is the new
/// index of shared register `r`.  Applying the permutation moves each
/// process's entire [`crate::ProcState`] (pc, locals, crash flag) to its new
/// slot and each register value to its new cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StatePermutation {
    proc_map: Vec<usize>,
    shared_map: Vec<usize>,
}

impl StatePermutation {
    /// Creates a permutation from the two index maps.
    ///
    /// # Panics
    /// Panics if either map is not a bijection on `0..len`.
    #[must_use]
    pub fn new(proc_map: Vec<usize>, shared_map: Vec<usize>) -> Self {
        assert!(is_bijection(&proc_map), "proc_map must be a bijection");
        assert!(is_bijection(&shared_map), "shared_map must be a bijection");
        Self {
            proc_map,
            shared_map,
        }
    }

    /// The identity on `procs` processes and `shared` registers.
    #[must_use]
    pub fn identity(procs: usize, shared: usize) -> Self {
        Self {
            proc_map: (0..procs).collect(),
            shared_map: (0..shared).collect(),
        }
    }

    /// True when both maps are the identity.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.proc_map.iter().enumerate().all(|(i, &v)| i == v)
            && self.shared_map.iter().enumerate().all(|(i, &v)| i == v)
    }

    /// New index of process `p`.
    #[must_use]
    pub fn map_process(&self, p: usize) -> usize {
        self.proc_map[p]
    }

    /// New index of shared register `r`.
    #[must_use]
    pub fn map_register(&self, r: usize) -> usize {
        self.shared_map[r]
    }

    /// Number of processes acted on.
    #[must_use]
    pub fn processes(&self) -> usize {
        self.proc_map.len()
    }

    /// Number of shared registers acted on.
    #[must_use]
    pub fn registers(&self) -> usize {
        self.shared_map.len()
    }

    /// The composition "`self` after `first`": applying the result equals
    /// applying `first`, then `self`.
    #[must_use]
    pub fn after(&self, first: &Self) -> Self {
        Self {
            proc_map: first.proc_map.iter().map(|&p| self.proc_map[p]).collect(),
            shared_map: first
                .shared_map
                .iter()
                .map(|&r| self.shared_map[r])
                .collect(),
        }
    }

    /// The inverse permutation.
    #[must_use]
    pub fn inverse(&self) -> Self {
        let mut proc_map = vec![0; self.proc_map.len()];
        for (old, &new) in self.proc_map.iter().enumerate() {
            proc_map[new] = old;
        }
        let mut shared_map = vec![0; self.shared_map.len()];
        for (old, &new) in self.shared_map.iter().enumerate() {
            shared_map[new] = old;
        }
        Self {
            proc_map,
            shared_map,
        }
    }

    /// Applies the permutation to a state, producing the relabelled state.
    ///
    /// # Panics
    /// Panics if the state's shape does not match the permutation's.
    #[must_use]
    pub fn apply(&self, state: &ProgState) -> ProgState {
        assert_eq!(state.procs.len(), self.proc_map.len(), "process count");
        assert_eq!(state.shared.len(), self.shared_map.len(), "register count");
        let mut next = state.clone();
        for (old, &new) in self.proc_map.iter().enumerate() {
            next.procs[new] = state.procs[old];
        }
        for (old, &new) in self.shared_map.iter().enumerate() {
            next.shared[new] = state.shared[old];
        }
        // Pending-write cells (safe-register semantics) follow their
        // registers, and the writer bitmasks follow the process relabelling.
        if !state.writes.is_empty() {
            for (old, &new) in self.shared_map.iter().enumerate() {
                let cell = state.writes[old];
                next.writes[new] = PendingWrite {
                    writers: self.map_writer_mask(cell.writers),
                    ..cell
                };
            }
        }
        next
    }

    /// Applies the process relabelling to a writer bitmask.
    #[must_use]
    pub fn map_writer_mask(&self, mask: u64) -> u64 {
        let mut mapped = 0u64;
        for (old, &new) in self.proc_map.iter().enumerate() {
            if mask & (1 << old) != 0 {
                mapped |= 1 << new;
            }
        }
        mapped
    }
}

fn is_bijection(map: &[usize]) -> bool {
    let mut seen = vec![false; map.len()];
    map.iter().all(|&v| {
        if v >= seen.len() || seen[v] {
            return false;
        }
        seen[v] = true;
        true
    })
}

/// A closed set of [`StatePermutation`]s: the group a specification's states
/// are quotiented by (see the module docs for the soundness argument).
#[derive(Debug, Clone)]
pub struct SymmetryGroup {
    elements: Vec<StatePermutation>,
}

impl SymmetryGroup {
    /// The trivial group (identity only).
    #[must_use]
    pub fn trivial(procs: usize, shared: usize) -> Self {
        Self {
            elements: vec![StatePermutation::identity(procs, shared)],
        }
    }

    /// Generates the closure of `generators` under composition, capped at
    /// `cap` elements.  Returns `None` when the closure exceeds the cap
    /// (callers fall back to no reduction rather than an unsound partial
    /// group) or when the generators act on mismatched shapes.
    #[must_use]
    pub fn generate(generators: &[StatePermutation], cap: usize) -> Option<Self> {
        let first = generators.first()?;
        let (procs, shared) = (first.processes(), first.registers());
        if generators
            .iter()
            .any(|g| g.processes() != procs || g.registers() != shared)
        {
            return None;
        }
        let mut elements = vec![StatePermutation::identity(procs, shared)];
        let mut frontier = elements.clone();
        while let Some(current) = frontier.pop() {
            for generator in generators {
                let composed = generator.after(&current);
                if !elements.contains(&composed) {
                    if elements.len() >= cap {
                        return None;
                    }
                    elements.push(composed.clone());
                    frontier.push(composed);
                }
            }
        }
        Some(Self { elements })
    }

    /// Restricts the group to elements that preserve a per-process mask
    /// (`mask[p] == mask[map_process(p)]` for every process).  The result is
    /// a subgroup, hence still closed.
    #[must_use]
    pub fn stabilizing(mut self, mask: &[bool]) -> Self {
        self.elements.retain(|perm| {
            (0..perm.processes()).all(|p| mask[p] == mask[perm.map_process(p)])
        });
        self
    }

    /// Number of group elements (including the identity).
    #[must_use]
    pub fn order(&self) -> usize {
        self.elements.len()
    }

    /// The group elements; the identity is always present.
    #[must_use]
    pub fn elements(&self) -> &[StatePermutation] {
        &self.elements
    }

    /// The distinct states in `state`'s orbit (deduplicated, stable order).
    #[must_use]
    pub fn orbit(&self, state: &ProgState) -> Vec<ProgState> {
        let mut orbit: Vec<ProgState> = Vec::with_capacity(self.elements.len());
        for perm in &self.elements {
            let image = perm.apply(state);
            if !orbit.contains(&image) {
                orbit.push(image);
            }
        }
        orbit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ProcState;

    fn state(shared: &[u64], pcs: &[u32]) -> ProgState {
        let procs: Vec<ProcState> = pcs.iter().map(|&pc| ProcState::new(pc, &[])).collect();
        let mut state = ProgState::new(shared.len(), &procs);
        state.shared.copy_from_slice(shared);
        state
    }

    #[test]
    fn identity_applies_to_itself() {
        let id = StatePermutation::identity(3, 2);
        assert!(id.is_identity());
        let s = state(&[4, 5], &[1, 2, 3]);
        assert_eq!(id.apply(&s), s);
    }

    #[test]
    #[should_panic(expected = "bijection")]
    fn non_bijective_maps_are_rejected() {
        let _ = StatePermutation::new(vec![0, 0], vec![0, 1]);
    }

    #[test]
    fn apply_moves_procs_and_registers() {
        // Swap processes 0 and 1 and registers 0 and 1.
        let swap = StatePermutation::new(vec![1, 0], vec![1, 0]);
        let s = state(&[7, 9], &[3, 4]);
        let t = swap.apply(&s);
        assert_eq!(*t.shared, [9, 7]);
        assert_eq!(t.pc(0), 4);
        assert_eq!(t.pc(1), 3);
        assert!(!swap.is_identity());
    }

    #[test]
    fn compose_and_inverse_round_trip() {
        let cycle = StatePermutation::new(vec![1, 2, 0], vec![0]);
        let inv = cycle.inverse();
        assert!(cycle.after(&inv).is_identity());
        assert!(inv.after(&cycle).is_identity());
        let s = state(&[0], &[10, 20, 30]);
        assert_eq!(inv.apply(&cycle.apply(&s)), s);
    }

    #[test]
    fn closure_of_a_transposition_has_order_two() {
        let swap = StatePermutation::new(vec![1, 0], vec![1, 0]);
        let group = SymmetryGroup::generate(&[swap], 16).unwrap();
        assert_eq!(group.order(), 2);
    }

    #[test]
    fn closure_of_adjacent_transpositions_is_symmetric_group() {
        let a = StatePermutation::new(vec![1, 0, 2], vec![0]);
        let b = StatePermutation::new(vec![0, 2, 1], vec![0]);
        let group = SymmetryGroup::generate(&[a, b], 16).unwrap();
        assert_eq!(group.order(), 6, "S3 has 6 elements");
        // Closed under inverse: every element's inverse is a member.
        for perm in group.elements() {
            assert!(group.elements().contains(&perm.inverse()));
        }
    }

    #[test]
    fn cap_overflow_returns_none() {
        let a = StatePermutation::new(vec![1, 0, 2], vec![0]);
        let b = StatePermutation::new(vec![0, 2, 1], vec![0]);
        assert!(SymmetryGroup::generate(&[a, b], 5).is_none());
    }

    #[test]
    fn stabilizer_keeps_mask_preserving_elements() {
        let a = StatePermutation::new(vec![1, 0, 2], vec![0]);
        let b = StatePermutation::new(vec![0, 2, 1], vec![0]);
        let group = SymmetryGroup::generate(&[a, b], 16).unwrap();
        // Only process 2 is active: the stabilizer may permute 0 and 1 only.
        let stab = group.stabilizing(&[false, false, true]);
        assert_eq!(stab.order(), 2);
        for perm in stab.elements() {
            assert_eq!(perm.map_process(2), 2);
        }
    }

    #[test]
    fn orbit_deduplicates_symmetric_states() {
        let swap = StatePermutation::new(vec![1, 0], vec![1, 0]);
        let group = SymmetryGroup::generate(&[swap], 16).unwrap();
        // A fully symmetric state has a singleton orbit.
        let sym = state(&[5, 5], &[1, 1]);
        assert_eq!(group.orbit(&sym).len(), 1);
        // An asymmetric state has the full orbit.
        let asym = state(&[5, 6], &[1, 2]);
        assert_eq!(group.orbit(&asym).len(), 2);
    }

    #[test]
    fn pending_writes_permute_with_registers_and_writer_masks() {
        let swap = StatePermutation::new(vec![1, 0], vec![1, 0]);
        let mut s = ProgState::new_weak(2, &[ProcState::new(1, &[]), ProcState::new(2, &[])]);
        s.set_shared(0, 7);
        s.begin_write(0, 3, 0); // p0 writing 3 to register 0
        let t = swap.apply(&s);
        assert_eq!(*t.shared, [0, 7]);
        assert_eq!(t.writes[1].writers, 0b10, "writer bit follows p0 -> p1");
        assert_eq!(t.writes[1].value, 3);
        assert!(t.writes[0].is_idle());
        // Round trip through the inverse restores the original.
        assert_eq!(swap.inverse().apply(&t), s);
    }

    #[test]
    fn trivial_group_is_identity_only() {
        let group = SymmetryGroup::trivial(4, 8);
        assert_eq!(group.order(), 1);
        assert!(group.elements()[0].is_identity());
    }
}

//! Symmetry canonicalization: factor each state into an orbit
//! representative plus a variant id.
//!
//! A [`Canonicalizer`] combines a specification's [`SymmetryGroup`] (e.g. the
//! leaf-placement group of `TreeBakerySpec`: sibling-leaf swaps and
//! same-level subtree permutations) with the [`StateCodec`]: the **canonical
//! representative** of a state is the orbit member with the lexicographically
//! smallest packed code, and the **variant** is the group element that maps
//! the representative back to the state.  `(canonical code, variant)` is a
//! bijective re-coordinatisation of the state — nothing is approximated.
//!
//! ## Why compression, not quotienting
//!
//! The Bakery-family scan loops and `(number, pid)` tie-breaks make process
//! permutations *not* automorphisms of the transition graph: a permuted
//! mid-scan state has loop cursors pointing at the wrong slots, and its
//! behaviour genuinely differs (the classic symmetry quotient would both
//! miss reachable states and report spurious violations — the latter was
//! observed when a quotient prototype of this module was model-checked
//! against the flat Bakery++ spec).  The explorer therefore never merges
//! orbit members: it runs the exact concrete BFS, and uses the
//! canonicalization only to **store** the visited set orbit-wise — one
//! packed representative per orbit plus a ≤64-bit bitmap of visited
//! variants.  Memory shrinks by up to the group order while every verdict,
//! state count and trace stays bit-identical to the unreduced search; the
//! orbit count is reported as the *canonical state count*.
//!
//! ## The move table
//!
//! [`Canonicalizer::new`] compiles every group element once, through
//! `StateCodec::permutation_moves`, into bit-field moves over the packed
//! layout, and keeps all elements' moves in one flat table.
//! [`Canonicalizer::factor`] then encodes a state once — so every lane-bound
//! check still runs, once per state — and builds each orbit member's code by
//! applying that element's moves to the encoded words in stack buffers.  No
//! check is lost: the codec only compiles a permutation that maps lanes onto
//! lanes of equal bound and ownership, so the moved bits are exactly the
//! permuted state's encoding.  The minimum is the same as before,
//! lexicographic over words with the first minimal element winning ties, so
//! every `(code, variant)` is unchanged.

use bakery_sim::{ProgState, StatePermutation, SymmetryGroup};

use crate::code::{FieldMove, StateCode, StateCodec};

/// Largest group order the variant bitmap supports.
pub const MAX_GROUP_ORDER: usize = 64;

/// Code width up to which [`Canonicalizer::factor`] builds its candidate
/// codes in stack buffers; wider codes use two heap buffers per call.
const STACK_WORDS: usize = 8;

/// Canonical-representative computation for one algorithm's states.
#[derive(Debug)]
pub struct Canonicalizer {
    group: SymmetryGroup,
    /// Every group element compiled once into bit-field moves over the
    /// codec's layout, element after element in one flat table:
    /// `moves[bounds[i]..bounds[i + 1]]` turn a state's code into the code
    /// of its image under `elements[i]`.
    moves: Vec<FieldMove>,
    bounds: Vec<usize>,
    /// `inverse_index[i]` is the position of `elements[i]`'s inverse.
    inverse_index: Vec<u8>,
    /// Position of the identity element.
    identity: u8,
}

impl Canonicalizer {
    /// Builds a canonicalizer for `group` against `codec`'s lane layout.
    ///
    /// # Panics
    /// Panics if the group order exceeds [`MAX_GROUP_ORDER`], or if some
    /// group element maps a register onto one with a different lane width —
    /// such a "symmetry" would re-interpret values and silently corrupt
    /// codes, so it is rejected loudly.
    #[must_use]
    pub fn new(codec: &StateCodec, group: SymmetryGroup) -> Self {
        assert!(
            group.order() <= MAX_GROUP_ORDER,
            "variant bitmaps hold at most {MAX_GROUP_ORDER} group elements"
        );
        let elements = group.elements();
        // Room for every lane of every element, each split once at a word
        // boundary, so the table is allocated once.
        let lanes = elements[0].registers() * 2 + elements[0].processes();
        let mut moves = Vec::with_capacity(elements.len() * lanes * 2);
        let mut bounds = Vec::with_capacity(elements.len() + 1);
        bounds.push(0);
        for perm in elements {
            codec.permutation_moves(perm, &mut moves);
            bounds.push(moves.len());
        }
        let inverse_index: Vec<u8> = elements
            .iter()
            .map(|perm| {
                elements
                    .iter()
                    .position(|candidate| is_inverse(perm, candidate))
                    .expect("a closed group contains every inverse") as u8
            })
            .collect();
        let identity = elements
            .iter()
            .position(StatePermutation::is_identity)
            .expect("a group always contains the identity") as u8;
        Self {
            group,
            moves,
            bounds,
            inverse_index,
            identity,
        }
    }

    /// Number of group elements (1 = no reduction).
    #[must_use]
    pub fn order(&self) -> usize {
        self.group.order()
    }

    /// Factors `state` into `(canonical code, variant)`: the smallest packed
    /// code in its orbit, and the index of the group element that maps the
    /// representative back onto `state` (see [`Canonicalizer::realize`]).
    /// The factorisation is deterministic and injective, which is what makes
    /// the orbit-wise visited set an exact record of the concrete states.
    ///
    /// `state` is encoded once, which checks every lane bound; each orbit
    /// member's code is then built from that code by the element's moves.
    #[must_use]
    pub fn factor(&self, codec: &StateCodec, state: &ProgState) -> (StateCode, u8) {
        let code = codec.encode(state);
        let words = code.as_slice();
        let (minimizer, canonical) = if words.len() <= STACK_WORDS {
            let (mut best, mut candidate) = ([0; STACK_WORDS], [0; STACK_WORDS]);
            let (best, candidate) = (&mut best[..words.len()], &mut candidate[..words.len()]);
            let minimizer = self.minimize(words, best, candidate);
            (minimizer, StateCode::from_words(best))
        } else {
            let (mut best, mut candidate) = (vec![0; words.len()], vec![0; words.len()]);
            let minimizer = self.minimize(words, &mut best, &mut candidate);
            (minimizer, StateCode::from_words(&best))
        };
        // rep = elements[minimizer](state)  ⇒  state = elements[minimizer]⁻¹(rep).
        (canonical, self.inverse_index[minimizer])
    }

    /// Writes the image of `code` under every element into `candidate` in
    /// turn, keeps the lexicographically smallest in `best`, and returns its
    /// element index (the first one on ties).
    fn minimize(&self, code: &[u64], best: &mut [u64], candidate: &mut [u64]) -> usize {
        let mut minimizer = 0;
        for index in 0..self.group.order() {
            self.image(index, code, candidate);
            if index == 0 || *candidate < *best {
                best.copy_from_slice(candidate);
                minimizer = index;
            }
        }
        minimizer
    }

    /// Writes the code of `elements[index]`'s image of the state encoded by
    /// `code` into `out`.
    fn image(&self, index: usize, code: &[u64], out: &mut [u64]) {
        out.fill(0);
        for field in &self.moves[self.bounds[index]..self.bounds[index + 1]] {
            field.apply(code, out);
        }
    }

    /// Reconstructs the concrete state `(rep, variant)` denotes: applies
    /// group element `variant` to the decoded representative.
    #[must_use]
    pub fn realize(&self, representative: &ProgState, variant: u8) -> ProgState {
        if variant == self.identity {
            representative.clone()
        } else {
            self.group.elements()[variant as usize].apply(representative)
        }
    }
}

/// True when applying `first`, then `second`, is the identity.
fn is_inverse(first: &StatePermutation, second: &StatePermutation) -> bool {
    (0..first.processes()).all(|p| second.map_process(first.map_process(p)) == p)
        && (0..first.registers()).all(|r| second.map_register(first.map_register(r)) == r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bakery_sim::{Algorithm, RegisterSemantics};
    use bakery_spec::{BakeryPlusPlusSpec, BakerySpec, TreeBakerySpec};
    use std::collections::HashSet;

    /// Up to `limit` distinct states reachable from `spec`'s initial state,
    /// crash steps included, in depth-first order (deep, asymmetric states
    /// come early).
    fn reachable<A: Algorithm>(spec: &A, limit: usize) -> Vec<ProgState> {
        let codec = StateCodec::new(spec);
        let mut stack = vec![spec.initial_state()];
        let mut seen = HashSet::new();
        let mut states = Vec::new();
        while let Some(state) = stack.pop() {
            if states.len() == limit {
                break;
            }
            if !seen.insert(codec.encode(&state)) {
                continue;
            }
            for pid in 0..spec.processes() {
                stack.extend(spec.successors_vec(&state, pid));
                stack.extend(spec.crash(&state, pid));
            }
            states.push(state);
        }
        states
    }

    /// Checks, on `limit` reachable states of `spec`, that every element's
    /// moves give the code `encode_permuted` gives, and that `factor`
    /// returns the minimum over `encode_permuted` (first element on ties)
    /// with the variant that realizes the state.
    fn assert_moves_match_encode_permuted<A: Algorithm>(spec: &A, limit: usize) {
        let group = spec.symmetry().expect("the spec declares a group");
        let codec = StateCodec::new(spec);
        let canon = Canonicalizer::new(&codec, group.clone());
        let elements = group.elements();
        let inverses: Vec<StatePermutation> =
            elements.iter().map(StatePermutation::inverse).collect();
        let states = reachable(spec, limit);
        assert_eq!(
            states.len(),
            limit,
            "{}: too few reachable states",
            spec.name()
        );
        let mut image = vec![0; codec.words_per_state()];
        for state in &states {
            let code = codec.encode(state);
            let mut reference: Option<(StateCode, usize)> = None;
            for (index, inverse) in inverses.iter().enumerate() {
                let expected = codec.encode_permuted(state, Some(inverse));
                canon.image(index, code.as_slice(), &mut image);
                assert_eq!(
                    image,
                    expected.as_slice(),
                    "{}: element {index}",
                    spec.name()
                );
                if reference
                    .as_ref()
                    .is_none_or(|(best, _)| expected.as_slice() < best.as_slice())
                {
                    reference = Some((expected, index));
                }
            }
            let (expected_code, minimizer) = reference.expect("a group is never empty");
            let expected_variant = elements
                .iter()
                .position(|perm| *perm == inverses[minimizer])
                .expect("closed under inverses") as u8;
            let (canonical, variant) = canon.factor(&codec, state);
            assert_eq!(
                (&canonical, variant),
                (&expected_code, expected_variant),
                "{}",
                spec.name()
            );
            assert_eq!(canon.realize(&codec.decode(&canonical), variant), *state);
        }
    }

    #[test]
    fn move_table_matches_encode_permuted_on_every_shipped_group() {
        for semantics in [RegisterSemantics::Atomic, RegisterSemantics::Safe] {
            for n in [2, 3] {
                assert_moves_match_encode_permuted(
                    &BakerySpec::new(n, 3).with_semantics(semantics),
                    300,
                );
                assert_moves_match_encode_permuted(
                    &BakeryPlusPlusSpec::new(n, 3).with_semantics(semantics),
                    300,
                );
            }
        }
        assert_moves_match_encode_permuted(&TreeBakerySpec::new(2, 2), 300);
        assert_moves_match_encode_permuted(
            &TreeBakerySpec::new(2, 2).with_active_processes(&[0, 1]),
            300,
        );
    }

    #[test]
    fn move_table_matches_encode_permuted_on_codes_wider_than_the_stack_buffers() {
        // 63-bit ticket lanes straddle words, and the code outgrows the
        // stack buffers, so `factor` takes its heap path.
        let spec = BakerySpec::new(4, 1 << 62);
        assert!(StateCodec::new(&spec).words_per_state() > STACK_WORDS);
        assert_moves_match_encode_permuted(&spec, 100);
    }

    #[test]
    fn factor_realize_round_trips_every_orbit_member() {
        let spec = TreeBakerySpec::new(2, 2);
        let codec = StateCodec::new(&spec);
        let canon = Canonicalizer::new(&codec, spec.symmetry().unwrap());
        assert_eq!(canon.order(), 8);
        // Drive an asymmetric state, then factor every orbit member.
        let mut state = spec.initial_state();
        for _ in 0..25 {
            if let Some(next) = spec.successors_vec(&state, 0).first() {
                state = next.clone();
            }
        }
        let group = spec.symmetry().unwrap();
        let mut seen_variants = std::collections::HashSet::new();
        for member in group.orbit(&state) {
            let (code, variant) = canon.factor(&codec, &member);
            // Same orbit ⇒ same canonical code.
            assert_eq!(code, canon.factor(&codec, &state).0);
            // factor/realize is a bijection: realizing gives the member back.
            let rep = codec.decode(&code);
            assert_eq!(canon.realize(&rep, variant), member);
            seen_variants.insert(variant);
        }
        assert!(
            seen_variants.len() > 1,
            "a driven state should be asymmetric"
        );
    }

    #[test]
    fn initial_state_is_its_own_representative() {
        let spec = BakeryPlusPlusSpec::new(3, 2);
        let codec = StateCodec::new(&spec);
        let canon = Canonicalizer::new(&codec, spec.symmetry().unwrap());
        assert_eq!(canon.order(), 6, "S3");
        let initial = spec.initial_state();
        let (code, variant) = canon.factor(&codec, &initial);
        assert_eq!(code, codec.encode(&initial));
        assert_eq!(canon.realize(&codec.decode(&code), variant), initial);
    }

    #[test]
    fn distinct_states_factor_to_distinct_pairs() {
        let spec = BakeryPlusPlusSpec::new(2, 3);
        let codec = StateCodec::new(&spec);
        let canon = Canonicalizer::new(&codec, spec.symmetry().unwrap());
        // Walk a few hundred distinct states and check the factorisation is
        // injective — the soundness core of the orbit-wise visited set.
        let mut frontier = vec![spec.initial_state()];
        let mut seen_states = std::collections::HashSet::new();
        let mut seen_pairs = std::collections::HashSet::new();
        while let Some(state) = frontier.pop() {
            if seen_states.len() > 400 || !seen_states.insert(codec.encode(&state)) {
                continue;
            }
            let (code, variant) = canon.factor(&codec, &state);
            assert!(
                seen_pairs.insert((code, variant)),
                "two distinct states factored identically"
            );
            for pid in 0..spec.processes() {
                frontier.extend(spec.successors_vec(&state, pid));
            }
        }
        assert!(seen_states.len() > 400);
    }

    #[test]
    fn active_mask_shrinks_the_tree_group() {
        let spec = TreeBakerySpec::new(2, 2).with_active_processes(&[0, 1]);
        let group = spec.symmetry().unwrap();
        // Stabilizer of {0,1}: swap leaves 0/1, swap (inactive) leaves 2/3.
        assert_eq!(group.order(), 4);
    }
}

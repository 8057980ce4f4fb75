//! Invariants: state predicates checked after every step / on every state.
//!
//! The two invariants the paper model checks are provided ready-made —
//! **mutual exclusion** ([`Invariant::mutual_exclusion`]) and **no overflow**
//! ([`Invariant::register_bounds`]) — plus a generic constructor for custom
//! predicates.  Invariants are deliberately simple `Fn(&A, &ProgState) ->
//! bool` closures so the simulator and the model checker can share them.

use std::fmt;
use std::sync::Arc;

use crate::algorithm::Algorithm;
use crate::state::ProgState;

/// A named state predicate over an algorithm `A`.
pub struct Invariant<A: ?Sized> {
    name: String,
    #[allow(clippy::type_complexity)]
    check: Arc<dyn Fn(&A, &ProgState) -> bool + Send + Sync>,
}

impl<A: ?Sized> Clone for Invariant<A> {
    fn clone(&self) -> Self {
        Self {
            name: self.name.clone(),
            check: Arc::clone(&self.check),
        }
    }
}

impl<A: ?Sized> fmt::Debug for Invariant<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Invariant").field("name", &self.name).finish()
    }
}

impl<A: Algorithm + ?Sized> Invariant<A> {
    /// Creates a named invariant from a predicate.
    pub fn new(
        name: impl Into<String>,
        check: impl Fn(&A, &ProgState) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            check: Arc::new(check),
        }
    }

    /// The invariant's name (used in violation reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates the invariant on `state`.
    #[must_use]
    pub fn holds(&self, algorithm: &A, state: &ProgState) -> bool {
        (self.check)(algorithm, state)
    }

    /// *MutualExclusion*: at most one process is in its critical section.
    #[must_use]
    pub fn mutual_exclusion() -> Self {
        Self::new("MutualExclusion", |alg: &A, state: &ProgState| {
            alg.processes_in_cs(state) <= 1
        })
    }

    /// *NoOverflow*: every shared register holds a value within its bound.
    ///
    /// This is the invariant the paper's Theorem (§6.1) establishes for
    /// Bakery++ and which the bounded classic Bakery violates.
    ///
    /// Rebuilds the register list on every evaluation, so the instance may
    /// be reused across algorithms; exhaustive explorations that check
    /// millions of states should use [`Invariant::register_bounds_for`],
    /// which precomputes the bounds for one algorithm instance.
    #[must_use]
    pub fn register_bounds() -> Self {
        Self::new("NoOverflow", |alg: &A, state: &ProgState| {
            let specs = alg.registers();
            state
                .shared
                .iter()
                .zip(specs.iter())
                .all(|(value, spec)| *value <= spec.bound)
                // Under safe semantics an in-progress write is an overflow
                // the moment its pending value exceeds the bound — waiting
                // for the commit would let a crash hide the attempt.  Idle
                // cells are normalised to value 0, so no idle-check needed.
                && state
                    .writes
                    .iter()
                    .zip(specs.iter())
                    .all(|(cell, spec)| cell.value <= spec.bound)
        })
    }

    /// [`Invariant::register_bounds`] with the bounds precomputed from
    /// `algorithm`: building the full `Vec<RegisterSpec>` (with its
    /// formatted names) once per checked state dominates a multi-million
    /// state exploration.  Sound by construction — the bounds are captured
    /// from the instance the caller is about to check, so the cache cannot
    /// be poisoned by reuse across different algorithms.
    #[must_use]
    pub fn register_bounds_for(algorithm: &A) -> Self {
        let bounds: Vec<u64> = algorithm.registers().iter().map(|spec| spec.bound).collect();
        Self::new("NoOverflow", move |_alg: &A, state: &ProgState| {
            // Hard assert: a zip would silently truncate if this invariant
            // were reused on a same-type spec of a different size, leaving
            // registers unchecked — unsound in exactly the release builds
            // the exhaustive close-out runs in.
            assert_eq!(
                bounds.len(),
                state.shared.len(),
                "register_bounds_for reused across differently-sized algorithms"
            );
            state
                .shared
                .iter()
                .zip(bounds.iter())
                .all(|(value, bound)| value <= bound)
                && state
                    .writes
                    .iter()
                    .zip(bounds.iter())
                    .all(|(cell, bound)| cell.value <= *bound)
        })
    }

    /// *SingleWriterZeroWhenCrashed*: a crashed process's own registers read
    /// as zero (paper assumption 1.7, checked after the crash transition).
    #[must_use]
    pub fn crashed_registers_are_zero() -> Self {
        Self::new("CrashedRegistersZero", |alg: &A, state: &ProgState| {
            let specs = alg.registers();
            (0..alg.processes()).all(|pid| {
                if !state.is_crashed(pid) {
                    return true;
                }
                // A crash mid-write must abort the write: the crashed pid
                // may hold no writer bit on any register (safe semantics).
                let no_pending = state
                    .writes
                    .iter()
                    .all(|cell| cell.writers & (1 << pid) == 0);
                no_pending
                    && specs
                        .iter()
                        .enumerate()
                        .filter(|(_, spec)| spec.owner == Some(pid))
                        .all(|(idx, _)| state.read(idx) == 0)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::test_support::BrokenLock;

    #[test]
    fn mutual_exclusion_detects_double_entry() {
        let alg = BrokenLock {
            processes: 2,
            bound: 10,
        };
        let inv = Invariant::<BrokenLock>::mutual_exclusion();
        assert_eq!(inv.name(), "MutualExclusion");
        let mut state = alg.initial_state();
        assert!(inv.holds(&alg, &state));
        state.set_pc(0, 2);
        assert!(inv.holds(&alg, &state));
        state.set_pc(1, 2);
        assert!(!inv.holds(&alg, &state));
    }

    #[test]
    fn register_bounds_detects_overflowed_register() {
        let alg = BrokenLock {
            processes: 1,
            bound: 3,
        };
        let inv = Invariant::<BrokenLock>::register_bounds();
        let mut state = alg.initial_state();
        state.set_shared(0, 3);
        assert!(inv.holds(&alg, &state));
        state.set_shared(0, 4);
        assert!(!inv.holds(&alg, &state));
    }

    #[test]
    fn custom_invariant_and_clone() {
        let alg = BrokenLock {
            processes: 2,
            bound: 10,
        };
        let inv = Invariant::<BrokenLock>::new("EntriesEven", |_, s| s.read(0) % 2 == 0);
        let copy = inv.clone();
        let state = alg.initial_state();
        assert!(inv.holds(&alg, &state));
        assert!(copy.holds(&alg, &state));
        let odd = state.with_write(0, 1);
        assert!(!copy.holds(&alg, &odd));
        assert!(format!("{inv:?}").contains("EntriesEven"));
    }

    #[test]
    fn register_bounds_flags_overlarge_pending_writes() {
        let alg = BrokenLock {
            processes: 1,
            bound: 3,
        };
        let plain = Invariant::<BrokenLock>::register_bounds();
        let fast = Invariant::<BrokenLock>::register_bounds_for(&alg);
        let mut state = alg.initial_state();
        state.writes = crate::state::InlineVec::from_slice(&[crate::state::PendingWrite::default()]);
        state.begin_write(0, 3, 0);
        assert!(plain.holds(&alg, &state));
        assert!(fast.holds(&alg, &state));
        state.end_write(0, 0, 3);
        state.begin_write(0, 4, 0);
        assert!(!plain.holds(&alg, &state), "pending 4 > bound 3");
        assert!(!fast.holds(&alg, &state));
    }

    #[test]
    fn crashed_process_may_hold_no_inflight_write() {
        let alg = BrokenLock {
            processes: 2,
            bound: 10,
        };
        let inv = Invariant::<BrokenLock>::crashed_registers_are_zero();
        let mut state = alg.initial_state();
        state.writes = crate::state::InlineVec::from_slice(&[crate::state::PendingWrite::default()]);
        state.begin_write(0, 2, 0);
        state.procs[0].crashed = true;
        assert!(!inv.holds(&alg, &state), "crash must abort in-flight writes");
        state.abort_writes(0);
        assert!(inv.holds(&alg, &state));
    }

    #[test]
    fn crashed_register_invariant_checks_only_owned_registers() {
        let alg = BrokenLock {
            processes: 1,
            bound: 10,
        };
        // BrokenLock's register is shared (no owner), so the invariant holds
        // trivially even when the process is crashed with a non-zero value.
        let inv = Invariant::<BrokenLock>::crashed_registers_are_zero();
        let mut state = alg.initial_state();
        state.set_shared(0, 5);
        state.procs[0].crashed = true;
        assert!(inv.holds(&alg, &state));
    }
}

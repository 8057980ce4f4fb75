//! # bakery-spec
//!
//! Model-checkable specifications of Bakery, Bakery++ and reference
//! algorithms, written against the [`bakery_sim::Algorithm`] step-machine
//! trait.  These play the role of the paper's PlusCal specification: the same
//! description is explored exhaustively by the `bakery-mc` model checker
//! (experiments **E2**, **E3**, **E5**) and sampled at scale by the
//! `bakery-sim` simulator (experiments **E1**, **E4**, **E6**, **E8**).
//!
//! ## One Bakery program
//!
//! The Bakery family is written once.  [`bakery`] holds one step body with a
//! match arm per [`pc`] phase, generic over its [`bakery::Doorway`]: the
//! [`bakery::Classic`] doorway of Algorithm 1 or the
//! [`bakery_pp::PlusPlus`] doorway of Algorithm 2, which adds the `L1`
//! admission scan and the bound check with its reset path.  [`BakerySpec`]
//! and [`BakeryPlusPlusSpec`] are aliases of one generic flat spec
//! ([`bakery::FlatBakerySpec`]) over those two doorways, and so share their
//! crash rule, observations, register layout, initial state, symmetry group
//! and safe-register commit step.  [`TreeBakerySpec`] runs the same Bakery++
//! body on each level's node registers and adds only the climb, the
//! root-first release, the engaged-prefix crash rule and its symmetry group.
//!
//! ## Atomicity granularity and register semantics
//!
//! Each specification step performs **at most one shared-register access**,
//! which is the granularity Lamport's correctness argument assumes (and finer
//! than a typical PlusCal label).  The register model itself is a knob:
//! under the default [`RegisterSemantics::Atomic`] every access is one
//! indivisible step (what TLC checks for the paper's own PlusCal
//! specification); under [`RegisterSemantics::Safe`] every write splits into
//! a begin step and a commit step, a read overlapping an in-progress write
//! nondeterministically returns **any** value in `[0, bound]` (Lamport's
//! *safe*/"flickering" registers — the model the bakery was designed to
//! survive), and overlapping writes to a multi-writer register commit an
//! arbitrary in-range value.  See [`RegisterSemantics`] for the exact rules.
//! The Bakery-family specs and [`PetersonSpec`] expose the knob via
//! `with_semantics`; Peterson *requires* atomic registers, which is the
//! suite's negative control.
//!
//! ## Register bounds and the overflow sentinel
//!
//! The classic Bakery specification stores ticket values *as computed*, capped
//! at `M + 1` (one above the declared register bound) so the state space stays
//! finite while the model checker can still reach — and report — the overflow
//! state.  Bakery++ never attempts such a store, which is precisely the
//! theorem the checker verifies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bakery;
pub mod bakery_pp;
pub mod peterson;
pub mod ticket;
pub mod tree;

pub use bakery::BakerySpec;
pub use bakery_pp::BakeryPlusPlusSpec;
pub use peterson::PetersonSpec;
pub use ticket::TicketSpec;
pub use tree::TreeBakerySpec;

pub use bakery_sim::RegisterSemantics;

/// The phases of the one Bakery step body ([`bakery`]).
///
/// The flat specs use these values as their program counters, so
/// [`BakerySpec`] and [`BakeryPlusPlusSpec`] number every shared phase
/// alike and the classic doorway simply never occupies the Bakery++-only
/// phases.  [`TreeBakerySpec`] offsets the trying phases by `16·(level + 1)`.
pub mod pc {
    /// Noncritical section.
    pub const NCS: u32 = 0;
    /// Bakery++ only: the `L1` admission scan over the `number` registers.
    pub const L1_SCAN: u32 = 1;
    /// Doorway: set `choosing[i] := 1`.
    pub const SET_CHOOSING: u32 = 2;
    /// Doorway: fold one `number[j]` into the running maximum.
    pub const COMPUTE_MAX: u32 = 3;
    /// Bakery++ only: write the observed maximum into `number[i]`.
    pub const WRITE_MAX: u32 = 4;
    /// Bakery++ only: branch on `maximum ≥ M`.
    pub const CHECK_BOUND: u32 = 5;
    /// Bakery++ only: reset path, `number[i] := 0`.
    pub const RESET_NUMBER: u32 = 6;
    /// Bakery++ only: reset path, `choosing[i] := 0`, back to `L1`.
    pub const RESET_CHOOSING: u32 = 7;
    /// Store the ticket (`1 + max` for Bakery, `max + 1` for Bakery++).
    pub const WRITE_TICKET: u32 = 8;
    /// Doorway: clear `choosing[i]`.
    pub const CLEAR_CHOOSING: u32 = 9;
    /// Scan loop `L2`: wait for `choosing[j] == 0`.
    pub const SCAN_CHOOSING: u32 = 10;
    /// Scan loop `L3`: wait until `j` does not precede us.
    pub const SCAN_NUMBER: u32 = 11;
    /// Critical section.
    pub const CS: u32 = 12;

    /// Human-readable label for a Bakery-family program counter.
    #[must_use]
    pub fn label(pc: u32) -> &'static str {
        match pc {
            NCS => "ncs",
            L1_SCAN => "L1-scan",
            SET_CHOOSING => "set-choosing",
            COMPUTE_MAX => "compute-max",
            WRITE_MAX => "write-max",
            CHECK_BOUND => "check-bound",
            RESET_NUMBER => "reset-number",
            RESET_CHOOSING => "reset-choosing",
            WRITE_TICKET => "write-ticket",
            CLEAR_CHOOSING => "clear-choosing",
            SCAN_CHOOSING => "L2-scan-choosing",
            SCAN_NUMBER => "L3-scan-number",
            CS => "critical-section",
            _ => "?",
        }
    }
}

/// Shared helpers for the Bakery-family specifications.
pub(crate) mod layout {
    use bakery_sim::{RegisterSpec, StatePermutation, SymmetryGroup};

    /// Index of `choosing[pid]` in the shared vector.
    pub fn choosing_idx(pid: usize) -> usize {
        pid
    }

    /// Index of `number[pid]` in the shared vector for `n` processes.
    pub fn number_idx(n: usize, pid: usize) -> usize {
        n + pid
    }

    /// The register layout of the flat specs: `choosing[0..n]` followed by
    /// `number[0..n]`.  The declared bound is M; the classic Bakery may
    /// physically hold the sentinel M+1, which is exactly the overflow the
    /// invariant reports.
    pub fn registers(n: usize, bound: u64) -> Vec<RegisterSpec> {
        let mut regs = Vec::with_capacity(2 * n);
        for pid in 0..n {
            regs.push(RegisterSpec::owned(format!("choosing[{pid}]"), 1, pid));
        }
        for pid in 0..n {
            regs.push(RegisterSpec::owned(format!("number[{pid}]"), bound, pid));
        }
        regs
    }

    /// The paper's `(a, b) < (c, d)` comparison on `(number, pid)` pairs.
    pub fn ticket_precedes(a_num: u64, a_pid: usize, b_num: u64, b_pid: usize) -> bool {
        a_num < b_num || (a_num == b_num && a_pid < b_pid)
    }

    /// Largest group closure the flat specs hand to the model checker —
    /// matched to the checker's 64-bit visited-variant bitmap
    /// (`bakery-mc`'s `canon::MAX_GROUP_ORDER`), which discards any larger
    /// group anyway.  Usable flat sizes are therefore n ≤ 4 (S4 = 24
    /// elements); S5 = 120 falls back to no compression without first
    /// paying for a full closure generation.
    const FLAT_GROUP_CAP: usize = 64;

    /// The full process-permutation group of the flat Bakery layout: every
    /// pid relabelling, with `choosing[i]`/`number[i]` following process `i`.
    /// Returns `None` when `n` is too large for the closure cap (the model
    /// checker then explores without reduction, which is always sound).
    pub fn flat_symmetry(n: usize) -> Option<SymmetryGroup> {
        if n < 2 {
            return None;
        }
        let mut generators = Vec::with_capacity(n - 1);
        for i in 0..n - 1 {
            let mut procs: Vec<usize> = (0..n).collect();
            procs.swap(i, i + 1);
            let mut shared: Vec<usize> = (0..2 * n).collect();
            shared.swap(choosing_idx(i), choosing_idx(i + 1));
            shared.swap(number_idx(n, i), number_idx(n, i + 1));
            generators.push(StatePermutation::new(procs, shared));
        }
        SymmetryGroup::generate(&generators, FLAT_GROUP_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_labels_cover_all_states() {
        for pc in 0..=12 {
            assert_ne!(pc::label(pc), "?", "pc {pc} must have a label");
        }
        assert_eq!(pc::label(99), "?");
    }

    #[test]
    fn layout_indices_do_not_collide() {
        let n = 4;
        let mut seen = std::collections::HashSet::new();
        for pid in 0..n {
            assert!(seen.insert(layout::choosing_idx(pid)));
        }
        for pid in 0..n {
            assert!(seen.insert(layout::number_idx(n, pid)));
        }
        assert_eq!(seen.len(), 2 * n);
    }

    #[test]
    fn ticket_precedes_matches_paper_definition() {
        assert!(layout::ticket_precedes(1, 5, 2, 0));
        assert!(layout::ticket_precedes(2, 0, 2, 1));
        assert!(!layout::ticket_precedes(2, 1, 2, 0));
        assert!(!layout::ticket_precedes(3, 0, 2, 5));
    }

    #[test]
    fn default_register_semantics_is_atomic() {
        assert_eq!(RegisterSemantics::default(), RegisterSemantics::Atomic);
        use bakery_sim::Algorithm;
        assert_eq!(
            BakerySpec::new(2, 3).register_semantics(),
            RegisterSemantics::Atomic
        );
        assert_eq!(
            BakeryPlusPlusSpec::new(2, 2).register_semantics(),
            RegisterSemantics::Atomic
        );
        assert_eq!(
            PetersonSpec::new().register_semantics(),
            RegisterSemantics::Atomic
        );
    }
}

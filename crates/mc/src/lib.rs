//! # bakery-mc
//!
//! An explicit-state model checker for [`bakery_sim::Algorithm`]
//! specifications — the stand-in for the TLC runs the paper reports.
//!
//! The checker performs breadth-first exploration of every interleaving of the
//! specification's atomic steps (optionally including crash/restart faults),
//! evaluating invariants on every reachable state.  Because the search is
//! breadth-first, the counterexample attached to a violation is a *shortest*
//! trace from the initial state.
//!
//! ```
//! use bakery_mc::ModelChecker;
//! use bakery_sim::Invariant;
//! use bakery_spec::BakeryPlusPlusSpec;
//!
//! let spec = BakeryPlusPlusSpec::new(2, 3);
//! let report = ModelChecker::new(&spec)
//!     .with_invariant(Invariant::mutual_exclusion())
//!     .with_invariant(Invariant::register_bounds())
//!     .run();
//! assert!(report.holds(), "{report}");
//! ```
//!
//! The liveness side of the paper's Section 6.3 discussion (a slow process can
//! in principle be parked forever at `L1` by two fast processes) is covered by
//! [`liveness::starvation_report`], which searches the reachable state graph
//! for a cycle in which a chosen victim keeps waiting while only the other
//! processes move.  Its report carries an explicit `truncated` flag, so a
//! "no cycle" answer from a budget-bounded graph is never mistaken for a
//! proof.
//!
//! ## The compact-state / symmetry plane
//!
//! Three modules turn the explorer from a "hash the structs" checker into one
//! that closes out the 4-process tree composition (~40 M concrete states):
//!
//! * [`code`] — packed, invertible [`code::StateCode`] encodings (16 bytes
//!   per tree state) replacing stored `ProgState`s;
//! * [`canon`] — lossless orbit-wise compression of the visited set under a
//!   specification-declared symmetry group (one canonical representative
//!   per orbit + a visited-variant bitmap), enabled with
//!   [`ModelChecker::with_symmetry_reduction`];
//! * [`store`] — the flat code arena + exact fingerprint index, with an
//!   optional spill-to-disk tier behind the `spill` cargo feature.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod canon;
pub mod code;
pub mod explore;
pub mod liveness;
pub mod store;

pub use canon::Canonicalizer;
pub use code::{StateCode, StateCodec};
pub use explore::{ExplorationReport, ModelChecker, TraceStep, Violation};
pub use liveness::{starvation_report, LivenessReport, StarvationWitness};

//! # bakery-sim
//!
//! A step-machine concurrency simulator: the substrate on which the
//! model-checkable specifications of Bakery, Bakery++ and the baseline
//! algorithms run (crate `bakery-spec`), and which the explicit-state model
//! checker (crate `bakery-mc`) explores exhaustively.
//!
//! The paper verifies Bakery++ by writing a PlusCal specification and running
//! the TLC model checker over it.  This crate plays the role of PlusCal's
//! execution model:
//!
//! * an algorithm is a set of **guarded atomic steps** per process over a
//!   [`ProgState`] (shared bounded registers + per-process program counter
//!   and locals) — see [`Algorithm`];
//! * a **scheduler** picks which process moves next
//!   ([`scheduler::Scheduler`]): round-robin, seeded random, adversarial
//!   priority, or an exact replay of a recorded trace;
//! * **invariants** ([`invariant::Invariant`]) are checked after every step:
//!   mutual exclusion, register bounds (the no-overflow property), and
//!   arbitrary user predicates;
//! * **crashes** are transitions of their own ([`Algorithm::crash`]): the
//!   process restarts in its noncritical section with its registers reading
//!   zero (the paper's failure assumptions 1.5–1.7).  The simulator never
//!   injects them; `bakery-mc` explores them exhaustively
//!   (`ModelChecker::with_crashes`);
//! * every run produces a [`trace::Trace`] that can be replayed, diffed, and
//!   reduced to its observable events for the refinement experiment (**E4**).
//!
//! The model checker in `bakery-mc` uses the same [`Algorithm`] trait but
//! enumerates *all* schedules instead of sampling one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithm;
pub mod invariant;
pub mod metrics;
pub mod runner;
pub mod scheduler;
pub mod state;
pub mod symmetry;
pub mod trace;

pub use algorithm::{Algorithm, Observation, RegisterSemantics, StateBounds};
pub use invariant::Invariant;
pub use metrics::RunReport;
pub use runner::{RunConfig, Simulator};
pub use scheduler::{AdversarialScheduler, RandomScheduler, ReplayScheduler, RoundRobinScheduler, Scheduler};
pub use state::{InlineVec, PendingWrite, ProcState, ProgState, RegisterSpec};
pub use symmetry::{StatePermutation, SymmetryGroup};
pub use trace::{Trace, TraceEvent};

//! # bakery-suite
//!
//! Umbrella crate for the Bakery++ reproduction: re-exports every crate in
//! the workspace so the examples and the cross-crate integration tests can
//! use one coherent namespace.
//!
//! * [`locks`] — the paper's contribution: [`locks::BakeryLock`] and
//!   [`locks::BakeryPlusPlusLock`] plus the lock traits.
//! * [`baselines`] — every comparison algorithm (Peterson, Filter, Szymanski,
//!   Black-White Bakery, the all-`SeqCst` reference Bakery, Dijkstra,
//!   ticket/TAS locks).
//! * [`sim`] — the step-machine simulator (schedulers, invariants, traces).
//! * [`spec`] — model-checkable specifications of the algorithms.
//! * [`mc`] — the explicit-state model checker (TLC stand-in).
//! * [`harness`] — workloads, metrics and the E1–E13 experiment runner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bakery_baselines as baselines;
pub use bakery_core as locks;
pub use bakery_harness as harness;
pub use bakery_json as json;
pub use bakery_mc as mc;
pub use bakery_sim as sim;
pub use bakery_spec as spec;

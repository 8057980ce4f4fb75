//! # bakery-harness
//!
//! Workload generation, metrics and the experiment runner that regenerates
//! every quantitative claim of *"Avoiding Register Overflow in the Bakery
//! Algorithm"*.  The paper contains no numbered tables or figures; instead,
//! each of its verifiable claims is mapped to an experiment **E1–E9**, and
//! **E10–E13** measure the stack this suite builds beyond the paper (the
//! tree composite, the session plane, crash recovery, async clients).  Each
//! experiment module produces one or more [`report::Table`]s of typed cells.
//! The `bakery-experiments` binary, the suite's one measurement front-end,
//! prints them as Markdown and, with `--out-dir`, writes each experiment as
//! `BENCH_<id>.json` (every committed `BENCH_*.json` comes from it):
//!
//! ```text
//! cargo run --release -p bakery-harness --bin bakery-experiments -- --quick
//! cargo run --release -p bakery-harness --bin bakery-experiments -- --out-dir . e2 e6
//! ```
//!
//! | experiment | paper claim |
//! |---|---|
//! | [`experiments::e1_overflow`] | §3 — alternating processes grow tickets without bound; bounded registers overflow; Bakery++ caps at `M` |
//! | [`experiments::e2_model_check`] | §6.1 + TLC — exhaustive NoOverflow / MutualExclusion checking |
//! | [`experiments::e3_safety`] | §6.2 — safety under crashes and safe-register reads |
//! | [`experiments::e4_refinement`] | §6.2 — Bakery++ traces are observably valid Bakery executions |
//! | [`experiments::e5_liveness`] | §6.3 — the slow-process L1 starvation scenario |
//! | [`experiments::e6_complexity`] | §7 — O(N) space, steps per acquisition, reset overhead |
//! | [`experiments::e7_throughput`] | §7 — practicality: real-thread throughput/latency |
//! | [`experiments::e8_fairness`] | §1.2/§8.2 — first-come-first-served service |
//! | [`experiments::e9_overflow_time`] | §4 — measured time-to-overflow per register width |
//! | [`experiments::e10_tree_scale`] | beyond the paper — flat Bakery++ vs the tree composite at large N |
//! | [`experiments::e11_lock_service`] | beyond the paper — session churn through the lock service plane |
//! | [`experiments::e12_kill_recover`] | beyond the paper — crash injection and recovery on live locks |
//! | [`experiments::e13_async_echo`] | beyond the paper — async echo service, wait-strategy sweep |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod executor;
pub mod experiments;
pub mod histogram;
pub mod report;
pub mod workload;

pub use histogram::LatencyHistogram;
pub use report::{Report, Table};
pub use workload::{Workload, WorkloadResult};

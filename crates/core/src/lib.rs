//! # bakery-core
//!
//! Production-quality implementations of **Lamport's Bakery algorithm** and of
//! **Bakery++**, the overflow-avoiding variant introduced in *"Avoiding
//! Register Overflow in the Bakery Algorithm"* (Sayyadabdi & Sharifi, ICPP
//! 2020).
//!
//! The crate models the paper's system faithfully:
//!
//! * every shared cell is a **single-writer multi-reader register** — process
//!   *i* may only ever write `choosing[i]` and `number[i]`, which the API
//!   enforces with [`Slot`] ownership tokens;
//! * registers are **bounded**: a register created with bound `M` can never
//!   hold a value above `M`, and any attempt to store a larger value is an
//!   *overflow* which is counted and then wrapped (the classic Bakery, as
//!   machine registers do) or turned into a panic (Bakery++, whose Theorem
//!   rules it out), as each doorway's [`OverflowPolicy`] fixes;
//! * the classic [`BakeryLock`] exhibits exactly the
//!   failure mode the paper's Section 3 describes once its registers are
//!   bounded, while [`BakeryPlusPlusLock`]
//!   provably never attempts to store a value above its bound.
//!
//! ## Quick start
//!
//! ```
//! use bakery_core::{BakeryPlusPlusLock, RawMutexAlgorithm};
//!
//! // A lock for up to 4 participating processes with register bound M = 255.
//! let lock = BakeryPlusPlusLock::with_bound(4, 255);
//! let slot = lock.register().expect("a free process slot");
//!
//! let mut shared = 0u64;
//! for _ in 0..100 {
//!     let _guard = lock.lock(&slot);
//!     // critical section
//!     shared += 1;
//! }
//! assert_eq!(shared, 100);
//! assert_eq!(lock.stats().overflow_attempts(), 0);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`ticket`] | bounded ticket values and the paper's lexicographic `(number, pid)` order |
//! | [`registers`] | the register file: bounded single-writer registers, overflow accounting |
//! | [`snapshot`] | the packed snapshot plane: choosing bitmap + dense ticket lanes |
//! | [`slots`] | process slot allocation (which thread plays which process id) |
//! | [`raw`] | the object-safe [`RawMutexAlgorithm`] trait every lock implements |
//! | [`guard`] | RAII critical-section guards |
//! | [`bakery`] | the [`Bakery`] lock body shared by both algorithms, and Algorithm 1's doorway |
//! | [`bakery_pp`] | Bakery++: Algorithm 2's doorway |
//! | [`tree`] | tournament-of-bounded-bakeries: the K-ary [`TreeBakery`] composite |
//! | [`session`] | dynamic membership: pid-slot leasing with RAII [`Session`]s |
//! | [`asession`] | async session clients: cancellation-safe `attach().await` / `lock().await` |
//! | [`wait`] | pluggable wait strategies (spin / park) behind every busy-wait, and the per-episode spin-then-yield [`WaitToken`] |
//! | [`stats`] | lock statistics (overflows, resets, doorway waits, fast-path hits, …) |
//!
//! ## The packed snapshot plane
//!
//! The doorway's `maximum(...)` scan and the `L2`/`L3` wait loops read every
//! process's registers, so [`RegisterFile`] stores them packed for the
//! readers: a [`PackedSnapshot`] of one `choosing` bit per process plus
//! `u8`/`u16`/`u64` ticket lanes chosen from the bound `M`.  Scans read
//! `O(N/8)` words, and an empty-bakery check gives an uncontended **fast
//! path** that skips the wait loops entirely (counted by
//! [`LockStats::fast_path_hits`]).  The plane is the only copy of the
//! registers: a write applies the overflow policy, then lands once, in its
//! owner's bit or lane, as one atomic operation — so readers of a shared
//! word stay within the paper's safe-register model.  The `bakery-seqcst`
//! baseline in `bakery-baselines` keeps the textbook one-atomic-per-register
//! layout with `SeqCst` throughout, as the reference experiments E6 and E7
//! of `bakery-experiments` time the packed locks against.
//!
//! ## The tree plane
//!
//! Flat Bakery doorways are O(N) however densely the registers are packed,
//! which caps practical process counts around the low hundreds.  The [`tree`]
//! module composes bounded-bakery nodes into a K-ary tournament instead:
//! `N` processes sit at the leaves, every internal node is an independent
//! [`BakeryPlusPlusLock`] for `K` participants with per-node bound
//! `M = K + 1` and its own packed snapshot plane, and a process acquires the
//! nodes on its leaf-to-root path (releasing in reverse).  Doorway cost drops
//! to `O(K · log_K N)` — sub-linear in N — opening the N ≫ 128 scenarios the
//! registry previously topped out at.  Per-node tickets stay in `[0, K + 1]`
//! by the paper's Theorem applied node-locally, so the composite never
//! overflows either.  The composition is verified by the `bakery-spec::tree`
//! state machine (model checked in `bakery-mc`), the differential conformance
//! suite (`tests/conformance.rs`) and the loom stress tests.
//!
//! ## Memory ordering
//!
//! The paper's model assumes registers that are at least *safe* and an
//! interleaving semantics of whole read/write operations.  The locks write
//! their registers as single-lane atomic splices with `Release` ordering —
//! `fetch_or`/`fetch_and` on the choosing bitmap, a CAS on narrow ticket
//! lanes, a plain store on full-word lanes — and read them with `Acquire`
//! loads.  On top of that sit **two targeted `SeqCst` fences** per doorway
//! pass — one between `choosing[i] := 1` and the maximum scan, one between
//! the ticket store and the `L2`/`L3` loads — which are the only store→load
//! orderings the correctness argument needs (the Dekker-style handshakes;
//! cf. van Glabbeek, Luttik & Spronck, *Just Verification of Mutual
//! Exclusion Algorithms*, on how little of SC the Bakery proof actually
//! uses).  The choice is exercised by the loom tests in
//! `crates/core/tests/loom.rs` and by E6's reference-vs-packed latency table.
//! The abstract, paper-level semantics (including safe-register reads that
//! may return arbitrary values) are model checked by the companion
//! `bakery-spec` / `bakery-mc` crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod asession;
pub mod bakery;
pub mod bakery_pp;
pub mod guard;
pub mod raw;
pub mod registers;
pub mod session;
pub mod slots;
pub mod snapshot;
pub mod stats;
pub mod sync;
pub mod ticket;
pub mod tree;
pub mod wait;

pub use bakery::{Bakery, BakeryLock};
pub use bakery_pp::{BakeryPlusPlusLock, DEFAULT_PP_BOUND};
pub use guard::CriticalSectionGuard;
pub use raw::{DoorwayOutcome, LockError, RawMutexAlgorithm};

pub use registers::{OverflowEvent, OverflowPolicy, RegisterFile};
pub use session::{
    ReapReport, RecoveredSeat, Session, SessionError, SessionGuard, SessionPlane, LEASE_FOREVER,
};
pub use slots::{Slot, SlotError};
pub use snapshot::{LaneWidth, PackedSnapshot, ScanMode};
pub use stats::LockStats;
pub use asession::{AttachBatchFuture, AttachFuture, SessionLockFuture};
pub use ticket::{Ticket, TicketOrder};
pub use tree::{TreeBakery, DEFAULT_TREE_ARITY};
pub use wait::{Park, SiteKind, Spin, WaitHandle, WaitSite, WaitStrategy, WaitToken};

/// Convenience prelude importing the traits and the two headline locks.
pub mod prelude {
    pub use crate::bakery::BakeryLock;
    pub use crate::bakery_pp::BakeryPlusPlusLock;
    pub use crate::raw::{RawMutexAlgorithm};
    pub use crate::registers::OverflowPolicy;
    pub use crate::slots::Slot;
}

/// The default register bound used when a caller does not specify `M`.
///
/// The paper leaves `M` abstract ("the maximum value storable in a register").
/// `u64::MAX` reproduces the *unbounded* behaviour of the original algorithm
/// for all practical purposes, while small values of `M` make the overflow
/// machinery observable in tests and experiments.
pub const DEFAULT_BOUND: u64 = u64::MAX;

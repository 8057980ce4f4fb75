//! A uniform registry of every lock in the suite.
//!
//! The experiment harness and the Criterion benches iterate over "all
//! algorithms" dozens of times; this module centralises the list so adding a
//! new algorithm automatically enrols it in every experiment.
//!
//! Since the trait unification ([`RawMutexAlgorithm`]) the registry is a
//! single **metadata table**: one [`AlgorithmEntry`] row per algorithm
//! carrying its name, classification flags and constructor.  [`AlgorithmId`]
//! is a plain key into that table — it owns no `match` arms, so an algorithm
//! is described in exactly one place and every consumer (factory, harness,
//! benches, conformance plane) picks it up from there.

use std::fmt;
use std::sync::Arc;

use bakery_core::{BakeryLock, BakeryPlusPlusLock, RawMutexAlgorithm, TreeBakery};

use crate::{
    BlackWhiteBakeryLock, DijkstraLock, FilterLock, PetersonLock, SeqCstBakeryLock, SzymanskiLock,
    TasLock, TicketLock, TournamentLock, TtasLock,
};

/// Identifier for each algorithm in the suite (a key into the registry
/// table; all metadata lives in the table entry, not in `match` arms here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum AlgorithmId {
    Bakery,
    BakeryPlusPlus,
    TreeBakery,
    BlackWhiteBakery,
    BakerySeqCst,
    Peterson,
    PetersonTournament,
    Filter,
    Szymanski,
    Dijkstra,
    TicketLock,
    Tas,
    Ttas,
}

/// One registry row: everything the suite knows about an algorithm.
pub struct AlgorithmEntry {
    /// The key of this row.
    pub id: AlgorithmId,
    /// The short name used in tables (matches
    /// [`RawMutexAlgorithm::algorithm_name`]).
    pub name: &'static str,
    /// True for algorithms that avoid lower-level mutual exclusion — the
    /// paper's notion of a *true* mutual exclusion algorithm: no atomic
    /// read-modify-write excludes another process; any RMW only publishes
    /// the caller's own lane or bit (as the packed register plane's writes
    /// do).
    pub true_mutex: bool,
    /// True for algorithms that serve processes in first-come-first-served
    /// order (at the doorway granularity).
    pub fcfs: bool,
    /// True for algorithms whose shared ticket registers are bounded.
    pub bounded: bool,
    /// The exact participant count the algorithm requires, if restricted
    /// (`Some(2)` for Peterson); `None` means any `n >= 1`.
    pub exact_n: Option<usize>,
    /// Constructor: builds the lock for `n` processes with the factory's
    /// configuration applied.
    build: fn(&LockFactory, usize) -> Arc<dyn RawMutexAlgorithm>,
}

impl fmt::Debug for AlgorithmEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlgorithmEntry")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("true_mutex", &self.true_mutex)
            .field("fcfs", &self.fcfs)
            .field("bounded", &self.bounded)
            .field("exact_n", &self.exact_n)
            .finish()
    }
}

/// The registry table, in report order.  This is the single place an
/// algorithm is described; `AlgorithmId` methods and [`LockFactory::build`]
/// are lookups into it.
pub static ALGORITHMS: &[AlgorithmEntry] = &[
    AlgorithmEntry {
        id: AlgorithmId::Bakery,
        name: "bakery",
        true_mutex: true,
        fcfs: true,
        bounded: false,
        exact_n: None,
        build: |factory, n| {
            let bound = if factory.bounded_classic {
                factory.bound
            } else {
                bakery_core::DEFAULT_BOUND
            };
            Arc::new(BakeryLock::with_bound(n, bound))
        },
    },
    AlgorithmEntry {
        id: AlgorithmId::BakeryPlusPlus,
        name: "bakery++",
        true_mutex: true,
        fcfs: true,
        bounded: true,
        exact_n: None,
        build: |factory, n| Arc::new(BakeryPlusPlusLock::with_bound(n, factory.bound)),
    },
    AlgorithmEntry {
        id: AlgorithmId::TreeBakery,
        name: "tree-bakery",
        true_mutex: true,
        // FCFS per node only; globally tournament-shaped.
        fcfs: false,
        bounded: true,
        exact_n: None,
        // The tree fixes its per-node bound at M = arity + 1 (the smallest
        // bound that admits a full round of K tickets), so the factory's
        // `bound` knob intentionally does not apply here.
        build: |_, n| Arc::new(TreeBakery::new(n)),
    },
    AlgorithmEntry {
        id: AlgorithmId::BlackWhiteBakery,
        name: "black-white-bakery",
        true_mutex: true,
        fcfs: true,
        bounded: true,
        exact_n: None,
        build: |_, n| Arc::new(BlackWhiteBakeryLock::new(n)),
    },
    AlgorithmEntry {
        id: AlgorithmId::BakerySeqCst,
        name: "bakery-seqcst",
        true_mutex: true,
        fcfs: true,
        bounded: false,
        exact_n: None,
        build: |_, n| Arc::new(SeqCstBakeryLock::new(n)),
    },
    AlgorithmEntry {
        id: AlgorithmId::Peterson,
        name: "peterson",
        true_mutex: true,
        fcfs: false,
        bounded: true,
        exact_n: Some(2),
        build: |_, _| Arc::new(PetersonLock::new()),
    },
    AlgorithmEntry {
        id: AlgorithmId::PetersonTournament,
        name: "peterson-tournament",
        true_mutex: true,
        fcfs: false,
        bounded: true,
        exact_n: None,
        build: |_, n| Arc::new(TournamentLock::new(n)),
    },
    AlgorithmEntry {
        id: AlgorithmId::Filter,
        name: "filter",
        true_mutex: true,
        fcfs: false,
        bounded: true,
        exact_n: None,
        build: |_, n| Arc::new(FilterLock::new(n)),
    },
    AlgorithmEntry {
        id: AlgorithmId::Szymanski,
        name: "szymanski",
        true_mutex: true,
        fcfs: true,
        bounded: true,
        exact_n: None,
        build: |_, n| Arc::new(SzymanskiLock::new(n)),
    },
    AlgorithmEntry {
        id: AlgorithmId::Dijkstra,
        name: "dijkstra",
        true_mutex: true,
        fcfs: false,
        bounded: true,
        exact_n: None,
        build: |_, n| Arc::new(DijkstraLock::new(n)),
    },
    AlgorithmEntry {
        id: AlgorithmId::TicketLock,
        name: "ticket-lock",
        true_mutex: false,
        fcfs: true,
        bounded: false,
        exact_n: None,
        build: |_, n| Arc::new(TicketLock::new(n)),
    },
    AlgorithmEntry {
        id: AlgorithmId::Tas,
        name: "tas",
        true_mutex: false,
        fcfs: false,
        bounded: true,
        exact_n: None,
        build: |_, n| Arc::new(TasLock::new(n)),
    },
    AlgorithmEntry {
        id: AlgorithmId::Ttas,
        name: "ttas",
        true_mutex: false,
        fcfs: false,
        bounded: true,
        exact_n: None,
        build: |_, n| Arc::new(TtasLock::new(n)),
    },
];

impl AlgorithmId {
    /// All identifiers, in report order (the table's order).
    #[must_use]
    pub fn all() -> &'static [AlgorithmId] {
        const ALL: [AlgorithmId; 13] = [
            AlgorithmId::Bakery,
            AlgorithmId::BakeryPlusPlus,
            AlgorithmId::TreeBakery,
            AlgorithmId::BlackWhiteBakery,
            AlgorithmId::BakerySeqCst,
            AlgorithmId::Peterson,
            AlgorithmId::PetersonTournament,
            AlgorithmId::Filter,
            AlgorithmId::Szymanski,
            AlgorithmId::Dijkstra,
            AlgorithmId::TicketLock,
            AlgorithmId::Tas,
            AlgorithmId::Ttas,
        ];
        &ALL
    }

    /// This algorithm's registry row — an O(1) index: the table is kept in
    /// enum declaration order, pinned by the registry tests.
    #[must_use]
    pub fn entry(&self) -> &'static AlgorithmEntry {
        let entry = &ALGORITHMS[*self as usize];
        debug_assert_eq!(entry.id, *self, "ALGORITHMS must stay in enum order");
        entry
    }

    /// The short name used in tables (matches
    /// [`RawMutexAlgorithm::algorithm_name`]).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.entry().name
    }

    /// True for algorithms that avoid lower-level mutual exclusion (see
    /// [`AlgorithmEntry::true_mutex`]) — the paper's notion of a *true*
    /// mutual exclusion algorithm.
    #[must_use]
    pub fn is_true_mutex(&self) -> bool {
        self.entry().true_mutex
    }

    /// True for algorithms that serve processes in first-come-first-served
    /// order (at the doorway granularity).
    #[must_use]
    pub fn is_fcfs(&self) -> bool {
        self.entry().fcfs
    }

    /// True for algorithms whose shared ticket registers are bounded.
    #[must_use]
    pub fn is_bounded(&self) -> bool {
        self.entry().bounded
    }

    /// Whether the algorithm can be instantiated for `n` participants.
    #[must_use]
    pub fn supports(&self, n: usize) -> bool {
        match self.entry().exact_n {
            Some(exact) => n == exact,
            None => n >= 1,
        }
    }
}

impl fmt::Display for AlgorithmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Builds locks by [`AlgorithmId`].
#[derive(Debug, Clone, Copy)]
pub struct LockFactory {
    /// Register bound `M` applied to the bound-aware algorithms
    /// (Bakery++ and, as its wrap-around failure mode, bounded classic Bakery
    /// when `bounded_classic` is set).
    pub bound: u64,
    /// When true the classic Bakery is built with bounded (wrapping)
    /// registers instead of 64-bit ones.
    pub bounded_classic: bool,
}

impl Default for LockFactory {
    fn default() -> Self {
        Self {
            bound: bakery_core::DEFAULT_PP_BOUND,
            bounded_classic: false,
        }
    }
}

impl LockFactory {
    /// Creates a factory with the default Bakery++ bound.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the register bound used for bound-aware locks.
    #[must_use]
    pub fn with_bound(mut self, bound: u64) -> Self {
        self.bound = bound;
        self
    }

    /// Makes the classic Bakery use bounded wrapping registers.
    #[must_use]
    pub fn with_bounded_classic(mut self, bounded: bool) -> Self {
        self.bounded_classic = bounded;
        self
    }

    /// Instantiates the lock `id` for `n` processes by calling its registry
    /// entry's constructor.
    ///
    /// # Panics
    /// Panics if `id` does not support `n` participants (only Peterson is
    /// restricted, to exactly two).
    #[must_use]
    pub fn build(&self, id: AlgorithmId, n: usize) -> Arc<dyn RawMutexAlgorithm> {
        assert!(
            id.supports(n),
            "{id} does not support {n} participating processes"
        );
        (id.entry().build)(self, n)
    }
}

/// Builds every algorithm that supports `n` participants.
#[must_use]
pub fn all_algorithms(
    n: usize,
    factory: &LockFactory,
) -> Vec<(AlgorithmId, Arc<dyn RawMutexAlgorithm>)> {
    ALGORITHMS
        .iter()
        .filter(|entry| entry.id.supports(n))
        .map(|entry| (entry.id, factory.build(entry.id, n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_lock_implementations() {
        let factory = LockFactory::new();
        for &id in AlgorithmId::all() {
            let n = if id == AlgorithmId::Peterson { 2 } else { 3 };
            let lock = factory.build(id, n);
            assert_eq!(lock.algorithm_name(), id.name(), "{id:?}");
            assert!(lock.capacity() >= 2);
        }
    }

    #[test]
    fn every_id_has_exactly_one_table_row_in_enum_order() {
        assert_eq!(ALGORITHMS.len(), AlgorithmId::all().len());
        for (i, &id) in AlgorithmId::all().iter().enumerate() {
            assert_eq!(
                ALGORITHMS.iter().filter(|e| e.id == id).count(),
                1,
                "{id:?} must appear exactly once in the registry table"
            );
            // entry() indexes by discriminant, so the table, the enum and
            // the `all()` list must share one order.
            assert_eq!(ALGORITHMS[i].id, id, "table row {i} out of enum order");
            assert_eq!(id as usize, i, "all() out of discriminant order");
        }
        let debugged = format!("{:?}", AlgorithmId::Bakery.entry());
        assert!(debugged.contains("bakery"));
    }

    #[test]
    fn peterson_is_restricted_to_two() {
        assert!(AlgorithmId::Peterson.supports(2));
        assert!(!AlgorithmId::Peterson.supports(3));
        assert!(AlgorithmId::Bakery.supports(7));
    }

    #[test]
    fn all_algorithms_excludes_unsupported() {
        let factory = LockFactory::new();
        let at_three = all_algorithms(3, &factory);
        assert!(at_three.iter().all(|(id, _)| *id != AlgorithmId::Peterson));
        let at_two = all_algorithms(2, &factory);
        assert!(at_two.iter().any(|(id, _)| *id == AlgorithmId::Peterson));
        assert_eq!(at_two.len(), AlgorithmId::all().len());
    }

    #[test]
    fn classification_flags() {
        assert!(AlgorithmId::BakeryPlusPlus.is_true_mutex());
        assert!(!AlgorithmId::Tas.is_true_mutex());
        assert!(AlgorithmId::Bakery.is_fcfs());
        assert!(!AlgorithmId::Filter.is_fcfs());
        assert!(AlgorithmId::BakeryPlusPlus.is_bounded());
        assert!(!AlgorithmId::Bakery.is_bounded());
        // The all-SeqCst reference: plain loads and stores, unbounded.
        assert!(AlgorithmId::BakerySeqCst.is_true_mutex());
        assert!(AlgorithmId::BakerySeqCst.is_fcfs());
        assert!(!AlgorithmId::BakerySeqCst.is_bounded());
        // The tree composite: true mutex (pure reads/writes), bounded by
        // construction, but only per-node FCFS — not globally.
        assert!(AlgorithmId::TreeBakery.is_true_mutex());
        assert!(AlgorithmId::TreeBakery.is_bounded());
        assert!(!AlgorithmId::TreeBakery.is_fcfs());
    }

    #[test]
    fn tree_bakery_builds_at_large_n_with_fixed_node_bound() {
        let factory = LockFactory::new().with_bound(9_999);
        let lock = factory.build(AlgorithmId::TreeBakery, 300);
        assert_eq!(lock.capacity(), 300);
        assert_eq!(
            lock.register_bound(),
            Some(bakery_core::DEFAULT_TREE_ARITY as u64 + 1),
            "the factory bound must not override the per-node M = K + 1"
        );
        let slot = lock.register().unwrap();
        drop(lock.lock(&slot));
        assert_eq!(lock.stats().cs_entries(), 1);
    }

    #[test]
    fn factory_bound_applies_to_bakery_pp() {
        let factory = LockFactory::new().with_bound(42);
        let lock = factory.build(AlgorithmId::BakeryPlusPlus, 3);
        assert_eq!(lock.register_bound(), Some(42));
        let classic = factory.build(AlgorithmId::Bakery, 3);
        assert_eq!(classic.register_bound(), Some(u64::MAX));
        let bounded = factory
            .with_bounded_classic(true)
            .build(AlgorithmId::Bakery, 3);
        assert_eq!(bounded.register_bound(), Some(42));
    }

    #[test]
    fn every_algorithm_enters_a_critical_section() {
        let factory = LockFactory::new();
        for (id, lock) in all_algorithms(2, &factory) {
            let slot = lock.register().unwrap();
            for _ in 0..3 {
                let _g = lock.lock(&slot);
            }
            assert_eq!(lock.stats().cs_entries(), 3, "{id}");
        }
    }

    #[test]
    fn every_algorithm_try_locks_or_fails_cleanly() {
        // try_acquire is part of the unified trait: an uncontended try_lock
        // either succeeds (locks with a real implementation) or fails
        // conservatively — and a subsequent blocking lock must still work.
        let factory = LockFactory::new();
        for (id, lock) in all_algorithms(2, &factory) {
            let slot = lock.register().unwrap();
            let tried = lock.try_lock(&slot).is_some();
            drop(lock.lock(&slot));
            assert_eq!(
                lock.stats().cs_entries(),
                1 + u64::from(tried),
                "{id}: try_lock then lock"
            );
        }
        // The headline locks all implement the real thing.
        for id in [
            AlgorithmId::Bakery,
            AlgorithmId::BakeryPlusPlus,
            AlgorithmId::TreeBakery,
            AlgorithmId::TicketLock,
            AlgorithmId::Tas,
            AlgorithmId::Ttas,
        ] {
            let lock = factory.build(id, 2);
            let slot = lock.register().unwrap();
            assert!(lock.try_lock(&slot).is_some(), "{id}: uncontended try");
        }
    }
}

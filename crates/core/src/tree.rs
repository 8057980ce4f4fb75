//! Tournament-of-bounded-bakeries: a K-ary tree composite of Bakery++ nodes.
//!
//! The flat Bakery (and Bakery++) doorway scans all `N` registers, so both
//! the maximum computation and the `L2`/`L3` wait loops cost O(N) per
//! acquisition — the packed snapshot plane shrinks the constant but not the
//! growth.  [`TreeBakery`] composes **bounded-bakery nodes** into a K-ary
//! tournament instead: the `N` processes sit at the leaves of a K-ary tree
//! whose internal nodes are independent [`BakeryPlusPlusLock`] instances for
//! `K` participants each, and a process
//!
//! 1. acquires every node on the path from its leaf to the root (entering
//!    each node as the child slot it arrives from), then
//! 2. holds the critical section, then
//! 3. releases the nodes in the reverse order (root first), exactly as the
//!    Peterson tournament in `bakery-baselines` does.
//!
//! Entry therefore costs `O(K · log_K N)` doorway work instead of `O(N)` —
//! the first lock in the suite whose doorway is **sub-linear in N** — at the
//! price of losing global FCFS (fairness is FCFS per node, tournament-shaped
//! globally).
//!
//! ## Why the composition is safe
//!
//! Each node slot `c` of an internal node is only ever contended by processes
//! from the subtree below child `c`, and a process reaches the node only
//! *while holding* that entire subtree's locks.  Hence at most one process
//! occupies a given node slot at any time, which restores the single-writer
//! discipline each Bakery++ node relies on.  Mutual exclusion at the root
//! then follows from per-node mutual exclusion by induction over the levels.
//! The same argument gives deadlock freedom: every node is individually
//! deadlock-free, and the acquisition order (leaf-ward before root-ward,
//! released in reverse) is a fixed partial order, so no wait cycle can form.
//!
//! ## The per-node bound `M = K + 1`
//!
//! A node only ever serves `K` concurrent customers, so its tickets would be
//! unbounded only through the paper's §3 alternation — which Bakery++'s `L1`
//! guard and pre-increment check cut off at `M`.  `M = K + 1` is the smallest
//! bound that still admits one full round of distinct tickets (`1..=K`) plus
//! the transient `max + 1 = K + 1` a latecomer may draw, keeping every node
//! register in `[0, K + 1]` **by construction** regardless of how long the
//! lock runs.  Smaller bounds would still be safe but would trip the reset
//! path constantly; larger bounds only waste lane width in the packed plane.
//!
//! The composition is verified, not trusted: `bakery-spec::tree` models a
//! two-level tree as a step machine for the `bakery-mc` explorer, the
//! differential conformance suite (`tests/conformance.rs`) replays identical
//! seeded schedules against spec and lock, and the loom suite stress-tests
//! the real atomics on real threads (`crates/core/tests/loom.rs`).

use std::sync::Arc;

use crate::bakery_pp::BakeryPlusPlusLock;
use crate::raw::{RawMutexAlgorithm};
use crate::slots::SlotAllocator;
use crate::stats::{LockStats, StatsSnapshot};
use crate::sync::{AtomicU64, Ordering};
use crate::wait::WaitHandle;

/// Default tree arity: eight children per node keeps every node's packed
/// ticket array within one cache line while already giving depth 4 at
/// N = 1024 (vs a 1024-register flat scan).
pub const DEFAULT_TREE_ARITY: usize = 8;

/// A tournament tree of Bakery++ nodes for up to `N` processes.
///
/// ```
/// use bakery_core::{RawMutexAlgorithm, TreeBakery};
///
/// let lock = TreeBakery::with_arity(64, 4); // 64 processes, 4-ary tree
/// let slot = lock.register().unwrap();
/// let _guard = lock.lock(&slot);
/// assert_eq!(lock.depth(), 3); // 4^3 = 64 leaves
/// ```
#[derive(Debug)]
pub struct TreeBakery {
    /// `levels[0]` is the leaf level; the last level holds the single root.
    levels: Vec<Box<[BakeryPlusPlusLock]>>,
    arity: usize,
    capacity: usize,
    /// Per-node register bound `M = arity + 1`.
    bound: u64,
    /// How many levels of its path each pid is currently *engaged* on
    /// (doorway entered or node won): `engaged[pid] == e` means levels
    /// `0..e` may carry this pid's register writes and levels `e..` are
    /// untouched by it.  SWMR (only pid's own thread stores on the lock
    /// paths), read by the crash reaper: slot ownership is dynamic above the
    /// leaves, so a crash recovery may only wipe the levels the pid actually
    /// reached — blindly clearing the whole path could destroy a *sibling's*
    /// tickets in the shared upper slots.  Each store happens *before* the
    /// node access it covers, so the recorded value is always a safe upper
    /// bound at every crash point.
    engaged: Box<[AtomicU64]>,
    slots: Arc<SlotAllocator>,
    stats: LockStats,
    /// Facade-level wait handle: shares the nodes' strategy, used by the
    /// session plane and async clients (the nodes own the actual wait loops).
    waits: WaitHandle,
}

impl TreeBakery {
    /// Creates a tree lock for `n` processes with [`DEFAULT_TREE_ARITY`].
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_arity(n, DEFAULT_TREE_ARITY)
    }

    /// Creates a tree lock for `n` processes with `arity` children per node.
    ///
    /// # Panics
    /// Panics if `n == 0` or `arity < 2`.
    #[must_use]
    pub fn with_arity(n: usize, arity: usize) -> Self {
        assert!(n > 0, "a lock needs at least one process slot");
        assert!(arity >= 2, "a tree node needs at least two children");
        let bound = arity as u64 + 1;
        // All nodes share one strategy instance; each keeps its own
        // wait-site namespace, so waiters on different nodes never alias.
        let strategy = crate::wait::default_strategy();
        let depth = Self::depth_for(n, arity);
        let mut levels = Vec::with_capacity(depth);
        let mut group = arity; // leaves covered by one node at this level
        for _ in 0..depth {
            let nodes = n.div_ceil(group).max(1);
            levels.push(
                (0..nodes)
                    .map(|_| {
                        BakeryPlusPlusLock::with_bound_and_strategy(
                            arity,
                            bound,
                            Arc::clone(&strategy),
                        )
                    })
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
            );
            group = group.saturating_mul(arity);
        }
        Self {
            levels,
            arity,
            capacity: n,
            bound,
            engaged: (0..n).map(|_| AtomicU64::new(0)).collect(),
            slots: SlotAllocator::new(n),
            stats: LockStats::new(),
            waits: WaitHandle::new(strategy),
        }
    }

    /// Smallest depth `d >= 1` with `arity^d >= n`.
    fn depth_for(n: usize, arity: usize) -> usize {
        let mut depth = 1;
        let mut leaves = arity;
        while leaves < n {
            leaves = leaves.saturating_mul(arity);
            depth += 1;
        }
        depth
    }

    /// Children per node (the `K` of the K-ary tree).
    #[must_use]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of levels (node acquisitions per lock operation).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The per-node register bound `M = arity + 1`.
    #[must_use]
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// Total number of Bakery++ nodes in the tree.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.levels.iter().map(|level| level.len()).sum()
    }

    /// Number of nodes at `level` (level 0 is the leaf level).
    #[must_use]
    pub fn nodes_at(&self, level: usize) -> usize {
        self.levels[level].len()
    }

    /// Read-only view of one node (tests, conformance and reporting).
    #[must_use]
    pub fn node(&self, level: usize, index: usize) -> &BakeryPlusPlusLock {
        &self.levels[level][index]
    }

    /// The `(node index, slot)` process `pid` occupies at `level`.
    ///
    /// At level `l` the tree groups `arity^(l+1)` leaves under one node, and
    /// the slot is which `arity^l`-leaf subtree the process arrives from.
    /// Two processes share a slot at some level **iff** they share the entire
    /// subtree below it (`pid / arity^l` equal) — which is exactly why a slot
    /// is never driven by two processes at once: reaching the node requires
    /// holding that whole subtree.
    #[must_use]
    pub fn position(&self, pid: usize, level: usize) -> (usize, usize) {
        let below = self.arity.pow(level as u32);
        ((pid / below) / self.arity, (pid / below) % self.arity)
    }

    /// Sums the statistics of every node at `level`.
    #[must_use]
    pub fn level_snapshot(&self, level: usize) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for node in self.levels[level].iter() {
            total.merge(&node.stats().snapshot());
        }
        total
    }

    /// Sums the statistics of every node in the tree, plus the facade's own
    /// counters (critical-section entries are only counted at the tree level;
    /// doorway effort only inside the nodes).
    ///
    /// `cs_entries` is pinned to the facade's own counter: a per-node
    /// Bakery++ instance records a critical-section entry whenever it is
    /// driven through its *own* `RawMutexAlgorithm` facade (tests, conformance
    /// harnesses), and a blanket [`StatsSnapshot::merge`] would add those to
    /// the tree's count — double counting the documented "once at the tree
    /// facade" semantics.
    #[must_use]
    pub fn aggregate_snapshot(&self) -> StatsSnapshot {
        let mut total = self.stats.snapshot();
        let facade_cs_entries = total.cs_entries;
        for level in 0..self.depth() {
            total.merge(&self.level_snapshot(level));
        }
        total.cs_entries = facade_cs_entries;
        total
    }

    /// Words one uncontended acquisition reads in the doorway scans across
    /// all levels — the figure the E6/E10 sub-linearity comparison reports.
    ///
    /// Each node costs its snapshot plane's word count; the flat equivalent
    /// is the plane word count of one lock spanning all `N` processes.
    #[must_use]
    pub fn doorway_scan_words(&self) -> usize {
        let per_node = self.levels[0][0].registers().packed().word_count();
        per_node * self.depth()
    }
}

impl RawMutexAlgorithm for TreeBakery {
    fn capacity(&self) -> usize {
        self.capacity
    }

    fn acquire(&self, pid: usize) {
        assert!(pid < self.capacity, "pid {pid} out of range");
        for level in 0..self.depth() {
            let (node, slot) = self.position(pid, level);
            // Raise the engagement mark before touching the node, so a
            // crash at any point inside it is covered by the recovery wipe.
            self.engaged[pid].store(level as u64 + 1, Ordering::SeqCst); // mem: engaged-mark
            self.levels[level][node].acquire(slot);
        }
    }

    fn release(&self, pid: usize) {
        // Root first, leaf last: a node is never exposed to new contenders
        // while one of its ancestors is still held by this process.  The
        // engagement mark drops *before* each node release — once released,
        // the slot may be re-won by a sibling, and a later crash recovery
        // must not wipe the sibling's tickets out of it.
        for level in (0..self.depth()).rev() {
            let (node, slot) = self.position(pid, level);
            self.engaged[pid].store(level as u64, Ordering::SeqCst); // mem: engaged-mark
            self.levels[level][node].release(slot);
        }
        // Facade-level release pulse for async lock futures (the per-node
        // L2/L3 wakes happened inside each node's release above).
        self.waits.notify(self.waits.release());
    }

    fn try_acquire(&self, pid: usize) -> bool {
        assert!(pid < self.capacity, "pid {pid} out of range");
        // Try each node on the leaf-to-root path; on the first failure,
        // release the acquired prefix in reverse order, exactly as a full
        // release walks back down.
        for level in 0..self.depth() {
            let (node, slot) = self.position(pid, level);
            self.engaged[pid].store(level as u64 + 1, Ordering::SeqCst); // mem: engaged-mark
            if !self.levels[level][node].try_acquire(slot) {
                for held in (0..level).rev() {
                    let (node, slot) = self.position(pid, held);
                    self.engaged[pid].store(held as u64, Ordering::SeqCst); // mem: engaged-mark
                    self.levels[held][node].release(slot);
                }
                if level == 0 {
                    self.engaged[pid].store(0, Ordering::SeqCst); // mem: engaged-mark
                }
                return false;
            }
        }
        true
    }

    /// Applies the paper's crash rule (assumptions 1.5–1.7) to the levels of
    /// `pid`'s leaf-to-root path the pid was engaged on: each such slot's
    /// choosing bit *and* number lane are zeroed,
    /// highest engaged level first (the same root-first order `release`
    /// uses, so a node is never re-opened to contenders while an ancestor
    /// slot still carries the crashed process's registers).  Levels above
    /// the engagement mark are deliberately left alone: their slots may
    /// legitimately hold a *sibling's* tickets (slot ownership above the
    /// leaves follows whoever holds the subtree).
    fn crash_abort(&self, pid: usize) -> bool {
        assert!(pid < self.capacity, "pid {pid} out of range");
        let engaged = self.engaged[pid].load(Ordering::SeqCst) as usize; // mem: engaged-mark
        for level in (0..engaged.min(self.depth())).rev() {
            let (node, slot) = self.position(pid, level);
            self.levels[level][node].crash_reset(slot);
        }
        self.engaged[pid].store(0, Ordering::SeqCst); // mem: engaged-mark
        self.stats.record_crash_abort();
        true
    }

    fn algorithm_name(&self) -> &'static str {
        "tree-bakery"
    }

    fn shared_word_count(&self) -> usize {
        // Each node contributes choosing[0..K] and number[0..K].
        self.node_count() * 2 * self.arity
    }

    fn register_bound(&self) -> Option<u64> {
        Some(self.bound)
    }

    fn slot_allocator(&self) -> &Arc<SlotAllocator> {
        &self.slots
    }

    fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// The facade's counters plus every node's
    /// ([`TreeBakery::aggregate_snapshot`]): doorway, ticket and fast-path
    /// counts live only in the nodes.
    fn stats_snapshot(&self) -> StatsSnapshot {
        self.aggregate_snapshot()
    }

    fn wait_handle(&self) -> Option<&WaitHandle> {
        Some(&self.waits)
    }

    fn as_raw(&self) -> &dyn RawMutexAlgorithm {
        self
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn geometry_matches_arity_and_size() {
        let lock = TreeBakery::with_arity(64, 4);
        assert_eq!(lock.capacity(), 64);
        assert_eq!(lock.depth(), 3, "4^3 = 64");
        assert_eq!(lock.arity(), 4);
        assert_eq!(lock.bound(), 5);
        assert_eq!(lock.register_bound(), Some(5));
        // Levels: 16 leaf nodes, 4 mid nodes, 1 root.
        assert_eq!(lock.nodes_at(0), 16);
        assert_eq!(lock.nodes_at(1), 4);
        assert_eq!(lock.nodes_at(2), 1);
        assert_eq!(lock.node_count(), 21);
        assert_eq!(lock.shared_word_count(), 21 * 8);
    }

    #[test]
    fn crash_abort_clears_the_engaged_path_and_unblocks_the_neighbor() {
        let lock = TreeBakery::with_arity(4, 2);
        assert_eq!(lock.depth(), 2);
        // pid 0 "crashes" while holding its full path (engaged on both
        // levels); before the recovery its sibling cannot get past the leaf.
        lock.acquire(0);
        assert!(!lock.try_acquire(1), "pid 1 shares the held leaf");
        assert!(lock.crash_abort(0));
        assert_eq!(lock.stats().crash_aborts(), 1);
        // The paper's crash rule held at every engaged level: the neighbor
        // sails through, and the whole path reads zero.
        assert!(lock.try_acquire(1), "the crash freed the path");
        lock.release(1);
        for level in 0..lock.depth() {
            let (node, slot) = lock.position(0, level);
            let file = lock.node(level, node).registers();
            assert_eq!(file.read_number(slot), 0);
            assert!(!file.read_choosing(slot));
        }
    }

    #[test]
    fn crash_abort_never_wipes_a_siblings_upper_level_tickets() {
        // pid 0 and pid 1 share their leaf node AND the root slot (slot
        // ownership above the leaves follows whoever holds the subtree).
        // pid 1 holds the full path; pid 0 never got past a failed try —
        // its crash recovery must not touch the shared root slot.
        let lock = TreeBakery::with_arity(4, 2);
        assert_eq!(lock.position(0, 1), lock.position(1, 1), "shared root slot");
        lock.acquire(1);
        assert!(!lock.try_acquire(0), "the leaf is contended");
        assert!(lock.crash_abort(0));
        let (root, slot) = lock.position(1, 1);
        assert_ne!(
            lock.node(1, root).registers().read_number(slot),
            0,
            "pid 1's root ticket must survive pid 0's crash recovery"
        );
        // pid 1's critical section is intact and releases normally.
        lock.release(1);
        assert!(lock.try_acquire(0), "the path is free after the release");
        lock.release(0);
    }

    #[test]
    fn ragged_sizes_trim_unreachable_nodes() {
        let lock = TreeBakery::with_arity(6, 2);
        assert_eq!(lock.depth(), 3, "2^3 = 8 >= 6");
        assert_eq!(lock.nodes_at(0), 3, "leaves 0..6 need only 3 leaf nodes");
        assert_eq!(lock.nodes_at(1), 2);
        assert_eq!(lock.nodes_at(2), 1);
    }

    #[test]
    fn single_node_tree_is_flat_bakery_pp() {
        let lock = TreeBakery::with_arity(3, 8);
        assert_eq!(lock.depth(), 1);
        assert_eq!(lock.node_count(), 1);
        let slot = lock.register().unwrap();
        for _ in 0..10 {
            let _g = lock.lock(&slot);
        }
        assert_eq!(lock.stats().cs_entries(), 10);
        assert_eq!(lock.level_snapshot(0).fast_path_hits, 10);
    }

    #[test]
    fn paths_end_at_root_and_sibling_slots_differ() {
        let lock = TreeBakery::with_arity(16, 2);
        for pid in 0..16 {
            let (root_node, _) = lock.position(pid, lock.depth() - 1);
            assert_eq!(root_node, 0, "pid {pid} must meet everyone at the root");
        }
        // Sibling leaves share their leaf node on different slots.
        assert_eq!(lock.position(0, 0).0, lock.position(1, 0).0);
        assert_ne!(lock.position(0, 0).1, lock.position(1, 0).1);
        // Cousins share level 1 but not level 0.
        assert_ne!(lock.position(0, 0).0, lock.position(2, 0).0);
        assert_eq!(lock.position(0, 1).0, lock.position(2, 1).0);
    }

    #[test]
    fn aggregate_snapshot_folds_all_levels() {
        let lock = TreeBakery::with_arity(4, 2);
        let slot = lock.register().unwrap();
        for _ in 0..5 {
            let _g = lock.lock(&slot);
        }
        let total = lock.aggregate_snapshot();
        assert_eq!(total.cs_entries, 5, "entries counted once, at the facade");
        assert_eq!(
            total.fast_path_hits, 10,
            "each acquisition fast-paths through both levels"
        );
        assert_eq!(total.overflow_attempts, 0);
    }

    #[test]
    fn aggregate_cs_entries_ignore_node_facade_traffic() {
        // Driving a node through its own RawMutexAlgorithm facade records
        // cs_entries in that node's stats block; the tree aggregate must keep
        // counting entries once, at the tree facade only.
        let lock = TreeBakery::with_arity(4, 2);
        let slot = lock.register().unwrap();
        for _ in 0..3 {
            let _g = lock.lock(&slot);
        }
        let leaf = lock.node(0, 0);
        let leaf_slot = leaf.register().unwrap();
        for _ in 0..7 {
            let _g = leaf.lock(&leaf_slot);
        }
        assert_eq!(leaf.stats().cs_entries(), 7);
        assert_eq!(
            lock.aggregate_snapshot().cs_entries,
            lock.stats().cs_entries(),
            "cs_entries counts once at the tree facade"
        );
        assert_eq!(lock.aggregate_snapshot().cs_entries, 3);
    }

    #[test]
    fn aggregate_cs_entries_match_facade_after_contended_run() {
        let lock = Arc::new(TreeBakery::with_arity(4, 2));
        stress(&lock, 4, 150);
        assert_eq!(
            lock.aggregate_snapshot().cs_entries,
            lock.stats().cs_entries(),
            "aggregate cs_entries must equal the facade count"
        );
        assert_eq!(lock.stats().cs_entries(), 600);
    }

    #[test]
    fn doorway_scan_words_are_sublinear_in_n() {
        fn flat_words(n: usize) -> usize {
            let flat = BakeryPlusPlusLock::with_bound(n, crate::DEFAULT_PP_BOUND);
            flat.registers().packed().word_count()
        }
        fn tree_words(n: usize) -> usize {
            TreeBakery::with_arity(n, 8).doorway_scan_words()
        }
        // Quadrupling N quadruples the flat scan but only adds one level
        // (a constant number of words) to the tree's path.
        assert_eq!(flat_words(1024), 4 * flat_words(256));
        assert!(tree_words(1024) <= tree_words(256) + tree_words(256) / 2);
        assert!(tree_words(1024) * 4 < flat_words(1024));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pid_panics() {
        let lock = TreeBakery::with_arity(3, 2);
        lock.acquire(3);
    }

    #[test]
    #[should_panic(expected = "at least two children")]
    fn unary_tree_is_rejected() {
        let _ = TreeBakery::with_arity(4, 1);
    }

    fn stress(lock: &Arc<TreeBakery>, threads: usize, iterations: u64) {
        let in_cs = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let lock = Arc::clone(lock);
                let in_cs = Arc::clone(&in_cs);
                scope.spawn(move || {
                    let slot = lock.register().unwrap();
                    for _ in 0..iterations {
                        let _g = lock.lock(&slot);
                        assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
    }

    #[test]
    fn mutual_exclusion_two_levels_binary() {
        let lock = Arc::new(TreeBakery::with_arity(4, 2));
        stress(&lock, 4, 400);
        let total = lock.aggregate_snapshot();
        assert_eq!(lock.stats().cs_entries(), 1600);
        assert_eq!(total.overflow_attempts, 0);
        assert!(total.max_ticket <= lock.bound());
    }

    #[test]
    fn mutual_exclusion_three_levels_ragged() {
        let lock = Arc::new(TreeBakery::with_arity(6, 2));
        stress(&lock, 6, 200);
        assert_eq!(lock.stats().cs_entries(), 1200);
        assert_eq!(lock.aggregate_snapshot().overflow_attempts, 0);
    }

    #[test]
    fn large_n_few_threads_touches_only_the_path() {
        // Capacity 512 with 4 live threads: the whole point of the tree is
        // that the doorway cost depends on the path, not on N.
        let lock = Arc::new(TreeBakery::with_arity(512, 8));
        stress(&lock, 4, 100);
        let total = lock.aggregate_snapshot();
        assert_eq!(lock.stats().cs_entries(), 400);
        assert_eq!(total.overflow_attempts, 0);
        assert!(total.max_ticket <= lock.bound());
        // Only the nodes on the four threads' paths saw traffic.
        let leaf = lock.level_snapshot(0);
        assert!(leaf.max_ticket >= 1);
    }

    proptest! {
        /// Leaf assignment is collision-free: distinct pids occupy distinct
        /// (node, slot) pairs at the leaf level, and at every level two pids
        /// share a (node, slot) exactly when they share the whole subtree
        /// below that level.
        #[test]
        fn leaf_assignment_is_collision_free(n in 1usize..80, arity in 2usize..6) {
            let lock = TreeBakery::with_arity(n, arity);
            let mut seen = std::collections::HashSet::new();
            for pid in 0..n {
                prop_assert!(seen.insert(lock.position(pid, 0)), "leaf clash for pid {pid}");
            }
            for level in 0..lock.depth() {
                let below = arity.pow(level as u32);
                for a in 0..n {
                    for b in (a + 1)..n {
                        let same_subtree = a / below == b / below;
                        prop_assert_eq!(
                            lock.position(a, level) == lock.position(b, level),
                            same_subtree,
                            "pids {} and {} at level {}", a, b, level
                        );
                    }
                }
                // Every node/slot index the level hands out is in range.
                for pid in 0..n {
                    let (node, slot) = lock.position(pid, level);
                    prop_assert!(node < lock.nodes_at(level));
                    prop_assert!(slot < arity);
                }
            }
            let (root, _) = lock.position(n - 1, lock.depth() - 1);
            prop_assert_eq!(root, 0);
        }

        /// The slot allocator's claimed pids map to collision-free leaves:
        /// claiming every slot yields n distinct leaf positions.
        #[test]
        fn slot_allocator_claims_map_to_distinct_leaves(n in 1usize..40, arity in 2usize..5) {
            let lock = TreeBakery::with_arity(n, arity);
            let slots: Vec<_> = (0..n).map(|_| lock.register().unwrap()).collect();
            let leaves: std::collections::HashSet<_> =
                slots.iter().map(|s| lock.position(s.pid(), 0)).collect();
            prop_assert_eq!(leaves.len(), n);
            prop_assert!(lock.register().is_err(), "all slots claimed");
        }

        /// Under wraparound pressure (tiny per-node M = arity + 1, more live
        /// threads than any single node can hold tickets for) every node's
        /// registers stay within [0, M] and no node ever attempts an
        /// overflowing store.
        #[test]
        fn per_node_tickets_never_leave_bound(
            arity in 2usize..4,
            threads in 2usize..5,
            iterations in 20u64..60,
        ) {
            let n = arity * arity; // two full levels
            let lock = Arc::new(TreeBakery::with_arity(n, arity));
            let threads = threads.min(n);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    let lock = Arc::clone(&lock);
                    scope.spawn(move || {
                        let slot = lock.register().unwrap();
                        for _ in 0..iterations {
                            let _g = lock.lock(&slot);
                        }
                    });
                }
            });
            let bound = lock.bound();
            for level in 0..lock.depth() {
                for node in 0..lock.nodes_at(level) {
                    let stats = lock.node(level, node).stats().snapshot();
                    prop_assert_eq!(stats.overflow_attempts, 0);
                    prop_assert!(stats.max_ticket <= bound,
                        "level {} node {} ticket {} > M {}", level, node, stats.max_ticket, bound);
                    // The live register values are bounded too, not just the
                    // high-water mark.
                    let file = lock.node(level, node).registers();
                    for j in 0..file.len() {
                        prop_assert!(file.read_number(j) <= bound);
                    }
                }
            }
        }
    }
}

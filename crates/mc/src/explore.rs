//! Breadth-first explicit-state exploration with invariant checking —
//! level-synchronous and parallel over the sharded compact store.
//!
//! The explorer stores every visited state as a packed [`crate::code::StateCode`]
//! in a striped set of flat arenas (16 bytes per state for the tree
//! specification) instead of a hash-of-struct map, and can optionally
//! compress the visited set orbit-wise under a specification-declared
//! symmetry group ([`ModelChecker::with_symmetry_reduction`]): one canonical
//! representative per orbit plus a bitmap of visited variants.  The search
//! itself stays the exact concrete BFS — same states, same transitions, same
//! verdicts — only the resident memory shrinks (up to the group order), and
//! the orbit count is reported as [`ExplorationReport::canonical_states`].
//!
//! ## Parallel exploration
//!
//! [`ModelChecker::with_threads`] runs the same BFS with several workers:
//!
//! * the search is **level-synchronous** — every state at BFS depth *d* is
//!   expanded before any state at depth *d + 1*, so depth semantics (and
//!   therefore shortest-counterexample guarantees) are identical to the
//!   sequential walk;
//! * workers steal fixed-size chunks of the current level and publish
//!   next-level states into per-worker buffers that are merged at the level
//!   barrier;
//! * the visited set is sharded into [`crate::store::STRIPE_COUNT`]
//!   independently locked stripes keyed by code-fingerprint bits, so
//!   insertions from different workers almost never contend; which stripe a
//!   state lands in is a pure function of its code, never of the schedule;
//! * every reported quantity is reduced **deterministically**: counts and
//!   the frontier digest are order-independent by construction, and the
//!   first violation / the counterexample trace are selected by (depth,
//!   lowest canonical code) rather than by discovery race.
//!
//! For a run that covers its whole state space, `states`,
//! `canonical_states`, `transitions`, `max_depth` and `frontier_digest` are
//! bit-identical for every thread count (pinned by the
//! `parallel_differential` test suite).  A budget-truncated run always
//! reports the same `truncated` verdict at any thread count, and its counts
//! overshoot the budget by at most one state's successors per worker;
//! `threads == 1` reproduces the sequential stopping point exactly.
//!
//! Together these are what close out the full 4-process tree composition —
//! ~40 M concrete states — exhaustively in one in-memory run.

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

use bakery_core::sync::{AtomicUsize, Ordering};
use bakery_sim::{Algorithm, Invariant, ProgState, RegisterSpec};

use crate::canon::Canonicalizer;
use crate::code::{fnv1a, StateCode, StateCodec, FNV_OFFSET_BASIS};
use crate::store::{stripe_of, FoldBuildHasher, Stripe, STRIPE_BITS};

/// One step of a counterexample trace.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// The process that moved to reach this state (`None` for the initial
    /// state).
    pub pid: Option<usize>,
    /// `true` when the step was an injected crash rather than a program step.
    pub crash: bool,
    /// Program-counter label of the moving process after the step.
    pub label: String,
    /// Rendering of the state after the step.
    pub state: String,
}

/// An invariant violation together with its shortest counterexample.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Name of the violated invariant.
    pub invariant: String,
    /// Depth (number of steps from the initial state) of the violating state.
    pub depth: usize,
    /// Shortest trace from the initial state to the violation.
    pub trace: Vec<TraceStep>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "invariant {} violated at depth {}:",
            self.invariant, self.depth
        )?;
        for (i, step) in self.trace.iter().enumerate() {
            let actor = match (step.pid, step.crash) {
                (Some(pid), true) => format!("crash p{pid}"),
                (Some(pid), false) => format!("p{pid} -> {}", step.label),
                (None, _) => "initial".to_string(),
            };
            writeln!(f, "  {i:>3}: {actor:<28} {}", step.state)?;
        }
        Ok(())
    }
}

/// Statistics and findings of one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ExplorationReport {
    /// Name of the checked algorithm.
    pub algorithm: String,
    /// Number of distinct concrete states visited (identical with and
    /// without symmetry compression, and for every thread count).
    pub states: usize,
    /// Number of distinct symmetry orbits the visited states fall into —
    /// the canonical state count.  Equal to `states` when no symmetry
    /// compression is active.
    pub canonical_states: usize,
    /// Number of transitions examined.
    pub transitions: usize,
    /// Depth of the deepest expanded state (BFS level).
    pub max_depth: usize,
    /// True when exploration stopped early because `max_states` was reached.
    pub truncated: bool,
    /// Order of the symmetry group the visited set was compressed by
    /// (1 = none).
    pub symmetry_order: usize,
    /// Worker threads the exploration ran with (1 = sequential).
    pub threads: usize,
    /// Deterministic digest of the visited set, folded level by level from
    /// an order-independent per-level accumulation: runs of the same
    /// configuration agree state-for-state **regardless of thread count or
    /// schedule** (for complete, non-truncated explorations).
    pub frontier_digest: u64,
    /// Renderings of reachable deadlock states (no process enabled), in
    /// deterministic (depth, canonical code) order.
    pub deadlocks: Vec<String>,
    /// Invariant violations with shortest counterexamples.
    pub violations: Vec<Violation>,
}

bakery_json::json_object!(TraceStep { pid, crash, label, state });
bakery_json::json_object!(Violation { invariant, depth, trace });
bakery_json::json_object!(ExplorationReport {
    algorithm,
    states,
    canonical_states,
    transitions,
    max_depth,
    truncated,
    symmetry_order,
    threads,
    frontier_digest,
    deadlocks,
    violations,
});

impl ExplorationReport {
    /// True when no invariant violation and no deadlock was found.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.violations.is_empty() && self.deadlocks.is_empty()
    }

    /// Names of the violated invariants (deduplicated, in discovery order).
    #[must_use]
    pub fn violated_invariants(&self) -> Vec<String> {
        let mut names = Vec::new();
        for v in &self.violations {
            if !names.contains(&v.invariant) {
                names.push(v.invariant.clone());
            }
        }
        names
    }
}

impl fmt::Display for ExplorationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} states, {} transitions, depth {}{}{}",
            self.algorithm,
            self.states,
            self.transitions,
            self.max_depth,
            if self.symmetry_order > 1 {
                format!(
                    " ({} canonical, symmetry /{})",
                    self.canonical_states, self.symmetry_order
                )
            } else {
                String::new()
            },
            if self.truncated { " (truncated)" } else { "" }
        )?;
        if self.deadlocks.is_empty() && self.violations.is_empty() {
            writeln!(f, "  all invariants hold; no deadlock")?;
        }
        for d in &self.deadlocks {
            writeln!(f, "  deadlock: {d}")?;
        }
        for v in &self.violations {
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

/// Breadth-first model checker over an [`Algorithm`] specification.
pub struct ModelChecker<'a, A: Algorithm + ?Sized> {
    algorithm: &'a A,
    invariants: Vec<Invariant<A>>,
    max_states: usize,
    enable_crashes: bool,
    symmetry: bool,
    threads: usize,
    #[cfg(feature = "spill")]
    spill_dir: Option<std::path::PathBuf>,
}

/// Bits of a packed state id that hold the stripe-local slot; the stripe
/// index occupies the remaining high bits.  26 slot bits allow ~67 M states
/// per stripe — far beyond any per-stripe share of the shipped state spaces
/// (the fingerprint striping spreads states near-uniformly).
const SLOT_BITS: u32 = 32 - STRIPE_BITS;

/// States a worker claims from the current BFS level per cursor bump.  Large
/// enough that the claim atomic is cold, small enough that the tail of a
/// level does not leave workers idle.
const FRONTIER_CHUNK: usize = 1024;

/// Packs a (stripe, slot) pair into a global state id.
fn pack_id(stripe: usize, slot: u32) -> u32 {
    debug_assert!(slot < 1 << SLOT_BITS);
    ((stripe as u32) << SLOT_BITS) | slot
}

/// One stripe of the sharded visited set plus its per-state metadata, all
/// guarded by a single `Mutex` so a concurrent insertion is one atomic step.
///
/// Without symmetry compression the stripe's arena holds one packed code per
/// concrete state and the stripe-local slot doubles as the concrete state
/// slot.  With compression the arena holds one **canonical** code per orbit,
/// `masks[orbit]` records which variants have been visited, and `log[slot]`
/// maps the concrete slot to its `(orbit, variant)` pair.  Either way the
/// structure records exactly the set of concrete states visited.
struct Shard {
    store: Stripe,
    /// Symmetry mode: visited-variant bitmap per orbit.
    masks: Vec<u64>,
    /// Symmetry mode: `orbit | variant << 32` per concrete slot.
    log: Vec<u64>,
    /// Packed parent links per concrete slot: bits 0–31 parent state id,
    /// 32–47 moving pid, bit 48 crash, bit 49 "is the initial state".
    parent: Vec<u64>,
    /// Concrete states inserted during the *current* BFS level:
    /// `(orbit | variant << 32) -> (slot, parent selection key)`.  A
    /// same-level duplicate discovery re-parents the state iff its selection
    /// key is smaller, which makes the whole parent forest — and therefore
    /// every counterexample trace — independent of the worker schedule.
    /// Cleared at each level barrier.
    level_links: HashMap<u64, (u32, u64), FoldBuildHasher>,
}

impl Shard {
    const ROOT: u64 = 1 << 49;

    fn pack_parent(parent_id: u32, pid: usize, crash: bool) -> u64 {
        u64::from(parent_id) | ((pid as u64) << 32) | (u64::from(crash) << 48)
    }

    /// Concrete states recorded in this shard.
    fn concrete_len(&self, symmetry: bool) -> usize {
        if symmetry {
            self.log.len()
        } else {
            self.store.len()
        }
    }
}

/// The outcome of inserting one successor state.
struct Inserted {
    id: u32,
    fresh: bool,
}

/// Everything the workers share, immutable or internally synchronized.
struct Engine<'a, A: Algorithm + ?Sized> {
    alg: &'a A,
    invariants: &'a [Invariant<A>],
    registers: Vec<RegisterSpec>,
    codec: StateCodec,
    canon: Option<Canonicalizer>,
    shards: Vec<Mutex<Shard>>,
    /// Total concrete states inserted — the budget counter.  `Relaxed` is
    /// sufficient: the counter is monotone and only gates *when workers stop
    /// claiming*, never what data they read (all state data is published via
    /// the shard mutexes and the level join barrier); a stale read merely
    /// delays the stop by at most one state per worker.
    count: AtomicUsize,
    max_states: usize,
    enable_crashes: bool,
    processes: usize,
}

/// A BFS level: packed `(id, variant)` metadata plus the canonical code
/// words of every state, carried inline so expansion never has to read the
/// (locked) arenas back.
struct Frontier {
    stride: usize,
    /// `id | variant << 32` per entry.
    meta: Vec<u64>,
    /// `stride` words per entry.
    words: Vec<u64>,
}

impl Frontier {
    fn new(stride: usize) -> Self {
        Self {
            stride,
            meta: Vec::new(),
            words: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.meta.len()
    }

    fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    fn clear(&mut self) {
        self.meta.clear();
        self.words.clear();
    }

    fn push(&mut self, id: u32, variant: u8, words: &[u64]) {
        debug_assert_eq!(words.len(), self.stride);
        self.meta.push(u64::from(id) | (u64::from(variant) << 32));
        self.words.extend_from_slice(words);
    }

    fn entry(&self, i: usize) -> (u32, u8, &[u64]) {
        let meta = self.meta[i];
        let id = (meta & 0xFFFF_FFFF) as u32;
        let variant = (meta >> 32) as u8;
        (id, variant, &self.words[i * self.stride..(i + 1) * self.stride])
    }

    fn append(&mut self, other: &mut Frontier) {
        self.meta.append(&mut other.meta);
        self.words.append(&mut other.words);
    }
}

/// A violation discovered while inserting a state, keyed for deterministic
/// selection: `(canonical code, variant, invariant index)` — the depth is
/// the level it was found in, which is uniform per barrier.
struct Candidate {
    key: Vec<u64>,
    variant: u8,
    invariant: usize,
    id: u32,
}

/// A deadlock discovered while expanding a state, keyed like [`Candidate`].
struct DeadlockHit {
    key: Vec<u64>,
    variant: u8,
    render: String,
}

/// One worker's per-level workspace and outputs; reused across levels.
struct WorkerOut {
    next: Frontier,
    scratch: Vec<ProgState>,
    transitions: u64,
    inserted: u64,
    digest_sum: u64,
    processed: u64,
    budget_hit: bool,
    violations: Vec<Candidate>,
    deadlocks: Vec<DeadlockHit>,
}

impl WorkerOut {
    fn new(stride: usize) -> Self {
        Self {
            next: Frontier::new(stride),
            scratch: Vec::new(),
            transitions: 0,
            inserted: 0,
            digest_sum: 0,
            processed: 0,
            budget_hit: false,
            violations: Vec::new(),
            deadlocks: Vec::new(),
        }
    }

    fn reset(&mut self) {
        self.next.clear();
        self.transitions = 0;
        self.inserted = 0;
        self.digest_sum = 0;
        self.processed = 0;
        self.budget_hit = false;
        self.violations.clear();
        self.deadlocks.clear();
    }
}

impl<'a, A: Algorithm + ?Sized> Engine<'a, A> {
    /// Canonicalizes `state` into `(code, variant)` — worker-local, no lock.
    fn factor(&self, state: &ProgState) -> (StateCode, u8) {
        match &self.canon {
            Some(canon) => canon.factor(&self.codec, state),
            None => (self.codec.encode(state), 0),
        }
    }

    /// Order-independent per-state digest contribution, from the code's
    /// `fingerprint`.
    fn state_hash(&self, fingerprint: u64, variant: u8) -> u64 {
        if self.canon.is_some() {
            fnv1a(fingerprint, &[u64::from(variant)])
        } else {
            fingerprint
        }
    }

    /// Records the state `(code, variant)` if unseen.  `fingerprint` is
    /// `code.fingerprint()`, computed once by the caller.  `parent` is the
    /// packed parent link, `parent_key` the deterministic selection key used
    /// to resolve same-level duplicate discoveries.
    fn insert(
        &self,
        code: &StateCode,
        fingerprint: u64,
        variant: u8,
        parent: u64,
        parent_key: u64,
    ) -> Inserted {
        let stripe = stripe_of(fingerprint);
        let mut shard = self.shards[stripe].lock().expect("shard lock poisoned");
        let shard = &mut *shard;
        match &self.canon {
            Some(_) => {
                let (orbit, new_orbit) = shard.store.intern_hashed(code, fingerprint);
                if new_orbit {
                    shard.masks.push(0);
                }
                let entry = u64::from(orbit) | (u64::from(variant) << 32);
                let bit = 1u64 << variant;
                if shard.masks[orbit as usize] & bit != 0 {
                    // The orbit is known *and* this member was already seen.
                    // If it was first seen in the *current* level, keep the
                    // parent with the smallest selection key so the trace
                    // forest is schedule-independent.
                    if let Some((slot, key)) = shard.level_links.get_mut(&entry) {
                        if parent_key < *key {
                            *key = parent_key;
                            shard.parent[*slot as usize] = parent;
                        }
                    }
                    return Inserted {
                        id: u32::MAX,
                        fresh: false,
                    };
                }
                shard.masks[orbit as usize] |= bit;
                let slot = shard.log.len() as u32;
                assert!((slot as u64) < 1 << SLOT_BITS, "stripe overflow");
                shard.log.push(entry);
                shard.parent.push(parent);
                shard.level_links.insert(entry, (slot, parent_key));
                self.count.fetch_add(1, Ordering::Relaxed); // mem: explorer-frontier
                Inserted {
                    id: pack_id(stripe, slot),
                    fresh: true,
                }
            }
            None => {
                let (slot, inserted) = shard.store.intern_hashed(code, fingerprint);
                if inserted {
                    assert!((slot as u64) < 1 << SLOT_BITS, "stripe overflow");
                    shard.parent.push(parent);
                    shard.level_links.insert(u64::from(slot), (slot, parent_key));
                    self.count.fetch_add(1, Ordering::Relaxed); // mem: explorer-frontier
                } else if let Some((slot, key)) =
                    shard.level_links.get_mut(&u64::from(slot))
                {
                    if parent_key < *key {
                        *key = parent_key;
                        shard.parent[*slot as usize] = parent;
                    }
                }
                Inserted {
                    id: pack_id(stripe, slot),
                    fresh: inserted,
                }
            }
        }
    }

    /// Decodes the concrete state `(words, variant)` denotes: the code
    /// itself without symmetry compression, else a canonical code realized
    /// by the variant's moves.
    fn realize(&self, words: &[u64], variant: u8) -> ProgState {
        match &self.canon {
            Some(canon) => canon.realize_words(&self.codec, words, variant),
            None => self.codec.decode_words(words),
        }
    }

    /// Decodes the concrete state behind a packed global id.
    fn decode(&self, id: u32) -> ProgState {
        let stripe = (id >> SLOT_BITS) as usize;
        let slot = (id & ((1 << SLOT_BITS) - 1)) as usize;
        let shard = self.shards[stripe].lock().expect("shard lock poisoned");
        let mut words = Vec::with_capacity(self.codec.words_per_state());
        let (index, variant) = match &self.canon {
            Some(_) => {
                let entry = shard.log[slot];
                ((entry & 0xFFFF_FFFF) as usize, (entry >> 32) as u8)
            }
            None => (slot, 0),
        };
        shard.store.arena().load(index, &mut words);
        self.realize(&words, variant)
    }

    /// Reads the packed parent link of a global id.
    fn parent_of(&self, id: u32) -> u64 {
        let stripe = (id >> SLOT_BITS) as usize;
        let slot = (id & ((1 << SLOT_BITS) - 1)) as usize;
        self.shards[stripe].lock().expect("shard lock poisoned").parent[slot]
    }

    /// Total concrete states across all shards.
    fn state_count(&self) -> usize {
        let symmetry = self.canon.is_some();
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").concrete_len(symmetry))
            .sum()
    }

    /// Total orbits (canonical states) across all shards.
    fn canonical_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock poisoned").store.len())
            .sum()
    }

    /// Clears the per-level duplicate-resolution maps (level barrier).
    fn clear_level_links(&self) {
        for shard in &self.shards {
            shard
                .lock()
                .expect("shard lock poisoned")
                .level_links
                .clear();
        }
    }

    /// Expands one chunk-claimed stretch of `frontier` (states at depth
    /// `depth`), publishing discoveries at `depth + 1` into `out`.
    fn run_level(&self, frontier: &Frontier, cursor: &AtomicUsize, out: &mut WorkerOut) {
        let n = self.processes;
        'claim: loop {
            let start = cursor.fetch_add(FRONTIER_CHUNK, Ordering::Relaxed); // mem: explorer-frontier
            if start >= frontier.len() {
                break;
            }
            let end = (start + FRONTIER_CHUNK).min(frontier.len());
            for i in start..end {
                // The budget gate: checked before every expansion, so a
                // sequential (threads = 1) run stops at exactly the state
                // the pre-parallel explorer stopped at, and a parallel run
                // overshoots by at most one state's successors per worker.
                let count = self.count.load(Ordering::Relaxed); // mem: explorer-frontier
                if count >= self.max_states {
                    out.budget_hit = true;
                    break 'claim;
                }
                let (id, variant, words) = frontier.entry(i);
                let state = self.realize(words, variant);
                out.processed += 1;
                // Deterministic parent-selection key base for this state.
                let key_base = fnv1a(fnv1a(FNV_OFFSET_BASIS, words), &[u64::from(variant)]);

                let mut any_enabled = false;
                for pid in 0..n {
                    out.scratch.clear();
                    self.alg.successors(&state, pid, &mut out.scratch);
                    if !out.scratch.is_empty() {
                        any_enabled = true;
                    }
                    let crash_succ = if self.enable_crashes {
                        self.alg.crash(&state, pid)
                    } else {
                        None
                    };
                    let successors = std::mem::take(&mut out.scratch);
                    for (is_crash, next) in successors
                        .iter()
                        .map(|s| (false, s))
                        .chain(crash_succ.iter().map(|s| (true, s)))
                    {
                        out.transitions += 1;
                        let parent = Shard::pack_parent(id, pid, is_crash);
                        let parent_key =
                            fnv1a(key_base, &[pid as u64, u64::from(is_crash)]);
                        let (code, next_variant) = self.factor(next);
                        let fingerprint = code.fingerprint();
                        let ins =
                            self.insert(&code, fingerprint, next_variant, parent, parent_key);
                        if ins.fresh {
                            out.inserted += 1;
                            out.digest_sum = out
                                .digest_sum
                                .wrapping_add(self.state_hash(fingerprint, next_variant));
                            out.next.push(ins.id, next_variant, code.as_slice());
                            for (inv_idx, invariant) in self.invariants.iter().enumerate() {
                                if !invariant.holds(self.alg, next) {
                                    out.violations.push(Candidate {
                                        key: code.as_slice().to_vec(),
                                        variant: next_variant,
                                        invariant: inv_idx,
                                        id: ins.id,
                                    });
                                }
                            }
                        }
                    }
                    out.scratch = successors;
                }

                if !any_enabled {
                    out.deadlocks.push(DeadlockHit {
                        key: words.to_vec(),
                        variant,
                        render: state.render(&self.registers),
                    });
                }
            }
        }
    }
}

impl<'a, A: Algorithm + ?Sized> ModelChecker<'a, A> {
    /// Creates a checker for `algorithm` with no invariants installed, a
    /// default budget of one million states, and one worker thread.
    #[must_use]
    pub fn new(algorithm: &'a A) -> Self {
        Self {
            algorithm,
            invariants: Vec::new(),
            max_states: 1_000_000,
            enable_crashes: false,
            symmetry: false,
            threads: 1,
            #[cfg(feature = "spill")]
            spill_dir: None,
        }
    }

    /// Installs an invariant to check on every reachable state.
    #[must_use]
    pub fn with_invariant(mut self, invariant: Invariant<A>) -> Self {
        self.invariants.push(invariant);
        self
    }

    /// Installs the two invariants the paper model checks: mutual exclusion
    /// and overflow freedom (with the bounds precomputed for this checker's
    /// algorithm — the per-state register-list rebuild of the generic
    /// [`Invariant::register_bounds`] dominates multi-million-state runs).
    #[must_use]
    pub fn with_paper_invariants(self) -> Self {
        let bounds = Invariant::register_bounds_for(self.algorithm);
        self.with_invariant(Invariant::mutual_exclusion())
            .with_invariant(bounds)
    }

    /// Caps the number of distinct states explored.
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.max_states = max_states;
        self
    }

    /// Also explores crash/restart transitions (paper assumptions 1.5–1.7).
    #[must_use]
    pub fn with_crashes(mut self, enabled: bool) -> Self {
        self.enable_crashes = enabled;
        self
    }

    /// Runs the exploration with `threads` worker threads (clamped to ≥ 1;
    /// default 1, which executes inline without spawning).
    ///
    /// The search is level-synchronous and its reductions deterministic, so
    /// for a complete (non-truncated) exploration the report — `states`,
    /// `canonical_states`, `transitions`, `max_depth`, `frontier_digest`,
    /// the violation verdict and its trace — is **bit-identical for every
    /// thread count**.  Budget-truncated runs report the same `truncated`
    /// verdict at any thread count; their counts are exact at `threads == 1`
    /// and overshoot by at most one state's successors per worker otherwise.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Compresses the visited set orbit-wise under the algorithm's symmetry
    /// group ([`Algorithm::symmetry`]): one canonical representative per
    /// orbit plus a bitmap of visited variants.  The search itself is the
    /// exact concrete BFS — states, transitions, verdicts and traces are
    /// identical to the unreduced run — only resident memory shrinks (up to
    /// the group order) and [`ExplorationReport::canonical_states`] reports
    /// the orbit count.  No-op when the algorithm declares no symmetry or
    /// its group exceeds [`crate::canon::MAX_GROUP_ORDER`] elements.
    #[must_use]
    pub fn with_symmetry_reduction(mut self, enabled: bool) -> Self {
        self.symmetry = enabled;
        self
    }

    /// Spills sealed visited-set chunks to temporary files under `dir`
    /// (`spill` cargo feature): the largest sweeps trade read latency
    /// for resident memory.  Each stripe of the sharded store gets its own
    /// spill file.
    #[cfg(feature = "spill")]
    #[must_use]
    pub fn with_spill_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    fn build_engine(&self) -> Engine<'_, A> {
        let codec = StateCodec::new(self.algorithm);
        let canon = if self.symmetry {
            self.algorithm
                .symmetry()
                .filter(|group| group.order() > 1 && group.order() <= crate::canon::MAX_GROUP_ORDER)
                .map(|group| Canonicalizer::new(&codec, group))
        } else {
            None
        };
        let stride = codec.words_per_state();
        let make_shard = || {
            #[cfg(feature = "spill")]
            let store = match &self.spill_dir {
                Some(dir) => {
                    Stripe::with_spill_dir(stride, dir).expect("failed to create the spill stripe")
                }
                None => Stripe::new(stride),
            };
            #[cfg(not(feature = "spill"))]
            let store = Stripe::new(stride);
            Mutex::new(Shard {
                store,
                masks: Vec::new(),
                log: Vec::new(),
                parent: Vec::new(),
                level_links: HashMap::default(),
            })
        };
        Engine {
            alg: self.algorithm,
            invariants: &self.invariants,
            registers: self.algorithm.registers(),
            codec,
            canon,
            shards: (0..crate::store::STRIPE_COUNT).map(|_| make_shard()).collect(),
            count: AtomicUsize::new(0),
            max_states: self.max_states,
            enable_crashes: self.enable_crashes,
            processes: self.algorithm.processes(),
        }
    }

    /// Runs the exhaustive exploration.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn run(self) -> ExplorationReport {
        let alg = self.algorithm;
        let n = alg.processes();
        assert!(n < (1 << 16), "pid lanes in parent links are 16 bits");
        let threads = self.threads;
        let engine = self.build_engine();
        let stride = engine.codec.words_per_state();

        let mut report = ExplorationReport {
            algorithm: alg.name().to_string(),
            states: 0,
            canonical_states: 0,
            transitions: 0,
            max_depth: 0,
            truncated: false,
            symmetry_order: engine.canon.as_ref().map_or(1, Canonicalizer::order),
            threads,
            frontier_digest: 0,
            deadlocks: Vec::new(),
            violations: Vec::new(),
        };

        // Seed the search with the initial state (level 0).
        let initial = alg.initial_state();
        let (init_code, init_variant) = engine.factor(&initial);
        let init_fingerprint = init_code.fingerprint();
        let init = engine.insert(&init_code, init_fingerprint, init_variant, Shard::ROOT, 0);
        let mut digest = fnv1a(
            FNV_OFFSET_BASIS,
            &[engine.state_hash(init_fingerprint, init_variant), 1],
        );
        let mut frontier = Frontier::new(stride);
        frontier.push(init.id, init_variant, init_code.as_slice());

        // Check invariants on the initial state too.
        for invariant in &self.invariants {
            if !invariant.holds(alg, &initial) {
                report.violations.push(Violation {
                    invariant: invariant.name().to_string(),
                    depth: 0,
                    trace: self.rebuild_trace(&engine, init.id),
                });
            }
        }
        if !report.violations.is_empty() {
            report.states = 1;
            report.canonical_states = 1;
            report.frontier_digest = digest;
            return report;
        }

        let mut outs: Vec<WorkerOut> = (0..threads).map(|_| WorkerOut::new(stride)).collect();
        let mut depth: u32 = 0; // depth of the states in `frontier`

        while !frontier.is_empty() {
            engine.clear_level_links();
            for out in &mut outs {
                out.reset();
            }
            let cursor = AtomicUsize::new(0);
            if threads == 1 {
                engine.run_level(&frontier, &cursor, &mut outs[0]);
            } else {
                let engine_ref = &engine;
                let frontier_ref = &frontier;
                let cursor_ref = &cursor;
                std::thread::scope(|scope| {
                    for out in &mut outs {
                        scope.spawn(move || engine_ref.run_level(frontier_ref, cursor_ref, out));
                    }
                });
            }

            // Level barrier: deterministic reduction of the workers' outputs.
            let mut level_sum = 0u64;
            let mut level_inserted = 0u64;
            let mut processed = 0u64;
            let mut budget_hit = false;
            for out in &mut outs {
                report.transitions += out.transitions as usize;
                level_sum = level_sum.wrapping_add(out.digest_sum);
                level_inserted += out.inserted;
                processed += out.processed;
                budget_hit |= out.budget_hit;
            }
            if processed > 0 {
                report.max_depth = depth as usize;
            }
            if level_inserted > 0 {
                digest = fnv1a(digest, &[level_sum, level_inserted]);
            }

            // Violations: states inserted this level sit at depth + 1.  The
            // reported "first" violation is the deterministic minimum by
            // (depth, canonical code, variant, invariant order) — depth is
            // minimal by level synchrony, the rest by explicit selection.
            let mut candidates: Vec<Candidate> =
                outs.iter_mut().flat_map(|o| o.violations.drain(..)).collect();
            if !candidates.is_empty() {
                candidates.sort_by(|a, b| {
                    (&a.key, a.variant, a.invariant).cmp(&(&b.key, b.variant, b.invariant))
                });
                let first = &candidates[0];
                for c in candidates
                    .iter()
                    .filter(|c| c.key == first.key && c.variant == first.variant)
                {
                    report.violations.push(Violation {
                        invariant: self.invariants[c.invariant].name().to_string(),
                        depth: depth as usize + 1,
                        trace: self.rebuild_trace(&engine, c.id),
                    });
                }
            }

            // Deadlocks, in deterministic (depth, canonical code) order.
            let mut deadlocks: Vec<DeadlockHit> =
                outs.iter_mut().flat_map(|o| o.deadlocks.drain(..)).collect();
            deadlocks.sort_by(|a, b| (&a.key, a.variant).cmp(&(&b.key, b.variant)));
            report
                .deadlocks
                .extend(deadlocks.into_iter().map(|d| d.render));

            // The search stops at the first level with a finding.
            if !report.violations.is_empty() || !report.deadlocks.is_empty() {
                break;
            }
            let count = engine.count.load(Ordering::Relaxed); // mem: explorer-frontier
            if budget_hit || count >= engine.max_states {
                report.truncated = true;
                break;
            }

            // Merge the per-worker next-level buffers and advance.
            frontier.clear();
            for out in &mut outs {
                frontier.append(&mut out.next);
            }
            depth += 1;
        }

        report.states = engine.state_count();
        report.canonical_states = engine.canonical_count();
        report.frontier_digest = digest;
        report
    }

    /// Rebuilds the path from the initial state to global id `id` by
    /// decoding the stored codes along the parent chain.
    fn rebuild_trace(&self, engine: &Engine<'_, A>, id: u32) -> Vec<TraceStep> {
        let mut steps = Vec::new();
        let mut cursor = id;
        loop {
            let packed = engine.parent_of(cursor);
            let is_root = packed & Shard::ROOT != 0;
            let (pid, crash) = if is_root {
                (None, false)
            } else {
                (
                    Some(((packed >> 32) & 0xFFFF) as usize),
                    packed & (1 << 48) != 0,
                )
            };
            let state = engine.decode(cursor);
            let label = pid
                .map(|p| self.algorithm.pc_label(state.pc(p)).to_string())
                .unwrap_or_else(|| "init".to_string());
            steps.push(TraceStep {
                pid,
                crash,
                label,
                state: state.render(&engine.registers),
            });
            if is_root {
                break;
            }
            cursor = (packed & 0xFFFF_FFFF) as u32;
        }
        steps.reverse();
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bakery_spec::{BakeryPlusPlusSpec, BakerySpec, PetersonSpec, RegisterSemantics, TicketSpec};

    #[test]
    fn peterson_satisfies_mutual_exclusion_exhaustively() {
        let spec = PetersonSpec::new();
        let report = ModelChecker::new(&spec).with_paper_invariants().run();
        assert!(report.holds(), "{report}");
        assert!(report.states > 10);
        assert!(!report.truncated);
        assert_eq!(report.symmetry_order, 1);
        assert_eq!(report.threads, 1);
    }

    #[test]
    fn bakery_pp_theorem_no_overflow_and_mutual_exclusion() {
        // Experiment E2, the paper's TLC result: exhaustive for N=2, M=3.
        let spec = BakeryPlusPlusSpec::new(2, 3);
        let report = ModelChecker::new(&spec).with_paper_invariants().run();
        assert!(report.holds(), "{report}");
        assert!(!report.truncated, "state space must be finite and fully explored");
        assert!(report.states > 100);
    }

    #[test]
    fn bakery_pp_holds_under_flicker_reads() {
        let spec = BakeryPlusPlusSpec::new(2, 2).with_semantics(RegisterSemantics::Safe);
        let report = ModelChecker::new(&spec).with_paper_invariants().run();
        assert!(report.holds(), "{report}");
    }

    #[test]
    fn bakery_pp_holds_with_crash_faults() {
        let spec = BakeryPlusPlusSpec::new(2, 2);
        let report = ModelChecker::new(&spec)
            .with_paper_invariants()
            .with_crashes(true)
            .run();
        assert!(report.holds(), "{report}");
    }

    #[test]
    fn symmetry_compression_is_search_invisible() {
        // The orbit-wise visited set must change nothing about the search:
        // same states, same transitions, same depth, same verdict — only
        // the canonical (orbit) count differs from the state count.
        let spec = BakeryPlusPlusSpec::new(2, 3);
        let plain = ModelChecker::new(&spec).with_paper_invariants().run();
        let reduced = ModelChecker::new(&spec)
            .with_paper_invariants()
            .with_symmetry_reduction(true)
            .run();
        assert!(plain.holds() && reduced.holds(), "{plain}\n{reduced}");
        assert!(!reduced.truncated);
        assert_eq!(reduced.symmetry_order, 2);
        assert_eq!(reduced.states, plain.states);
        assert_eq!(reduced.transitions, plain.transitions);
        assert_eq!(reduced.max_depth, plain.max_depth);
        assert_eq!(plain.canonical_states, plain.states);
        assert!(
            reduced.canonical_states < reduced.states,
            "orbits ({}) must be fewer than states ({})",
            reduced.canonical_states,
            reduced.states
        );
        // Orbits have at most |G| members.
        assert!(reduced.canonical_states * reduced.symmetry_order >= reduced.states);
    }

    #[test]
    fn symmetry_compression_with_crashes_preserves_the_verdict() {
        let spec = BakeryPlusPlusSpec::new(2, 2);
        let plain = ModelChecker::new(&spec)
            .with_paper_invariants()
            .with_crashes(true)
            .run();
        let reduced = ModelChecker::new(&spec)
            .with_paper_invariants()
            .with_crashes(true)
            .with_symmetry_reduction(true)
            .run();
        assert!(reduced.holds(), "{reduced}");
        assert!(!reduced.truncated);
        assert_eq!(reduced.states, plain.states);
        assert_eq!(reduced.transitions, plain.transitions);
    }

    #[test]
    fn symmetry_compression_still_finds_the_classic_overflow() {
        // The compressed store must reach the same NoOverflow violation at
        // the same depth as the plain store.
        let spec = BakerySpec::new(2, 3);
        let plain = ModelChecker::new(&spec)
            .with_paper_invariants()
            .with_max_states(2_000_000)
            .run();
        let reduced = ModelChecker::new(&spec)
            .with_paper_invariants()
            .with_symmetry_reduction(true)
            .with_max_states(2_000_000)
            .run();
        assert!(!reduced.holds(), "classic Bakery must overflow: {reduced}");
        assert_eq!(reduced.violated_invariants(), vec!["NoOverflow".to_string()]);
        assert_eq!(reduced.violations[0].depth, plain.violations[0].depth);
        assert_eq!(reduced.states, plain.states);
    }

    #[test]
    fn exploration_digest_is_deterministic() {
        let spec = BakeryPlusPlusSpec::new(2, 3);
        let run = || {
            ModelChecker::new(&spec)
                .with_paper_invariants()
                .with_symmetry_reduction(true)
                .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.states, b.states);
        assert_eq!(a.frontier_digest, b.frontier_digest);
        assert_ne!(a.frontier_digest, 0);
    }

    #[test]
    fn bounded_classic_bakery_overflow_is_reachable() {
        // The other half of E2: with the same bound, the classic Bakery can
        // reach a state that stores a value above M.
        // Both paper invariants are installed; breadth-first search finds the
        // shallowest violation first, so the assertion below also shows that
        // the *first* thing to go wrong in a bounded classic Bakery is the
        // overflow — mutual exclusion only breaks downstream of it.
        let spec = BakerySpec::new(2, 3);
        let report = ModelChecker::new(&spec)
            .with_paper_invariants()
            .with_max_states(2_000_000)
            .run();
        assert!(!report.holds(), "classic Bakery must overflow: {report}");
        assert_eq!(report.violated_invariants(), vec!["NoOverflow".to_string()]);
        let violation = &report.violations[0];
        assert!(violation.depth > 0);
        assert!(!violation.trace.is_empty());
        assert!(violation.to_string().contains("NoOverflow"));
    }

    #[test]
    fn corrupted_registers_break_classic_bakery_mutual_exclusion() {
        // Continue exploring *past* the overflow: once a register has been
        // corrupted by the bound, the classic Bakery really does admit two
        // processes to the critical section — the §3 malfunction end to end.
        let spec = BakerySpec::new(2, 3);
        let report = ModelChecker::new(&spec)
            .with_invariant(Invariant::mutual_exclusion())
            .with_max_states(500_000)
            .run();
        assert!(
            report
                .violated_invariants()
                .contains(&"MutualExclusion".to_string()),
            "expected a downstream mutual exclusion violation: {report}"
        );
    }

    #[test]
    fn classic_bakery_mutual_exclusion_holds_while_registers_suffice() {
        // With a bound far larger than anything reachable in the explored
        // region, the original algorithm is correct (Lamport 1974): no mutual
        // exclusion violation exists anywhere in the explored state space.
        let spec = BakerySpec::new(2, 1_000_000);
        let report = ModelChecker::new(&spec)
            .with_invariant(Invariant::mutual_exclusion())
            .with_max_states(150_000)
            .run();
        assert!(
            report.violations.is_empty(),
            "mutual exclusion must hold: {report}"
        );
        assert!(report.truncated, "the unbounded-ticket space is infinite");
    }

    #[test]
    fn ticket_lock_first_failure_is_the_overflow() {
        // The counter-based lock inherits the unbounded-growth problem: the
        // first invariant to fail (shallowest violation, BFS order) is
        // NoOverflow.  Mutual exclusion holds up to that point.
        let spec = TicketSpec::new(2, 4);
        let report = ModelChecker::new(&spec)
            .with_paper_invariants()
            .with_max_states(200_000)
            .run();
        assert!(!report.holds());
        assert_eq!(report.violated_invariants(), vec!["NoOverflow".to_string()]);
    }

    #[test]
    fn max_states_truncation_is_reported() {
        let spec = BakeryPlusPlusSpec::new(3, 3);
        let report = ModelChecker::new(&spec)
            .with_paper_invariants()
            .with_max_states(500)
            .run();
        assert!(report.truncated);
        assert!(report.states >= 500);
    }

    #[test]
    fn report_renders_summary() {
        let spec = PetersonSpec::new();
        let report = ModelChecker::new(&spec).with_paper_invariants().run();
        let text = report.to_string();
        assert!(text.contains("peterson"));
        assert!(text.contains("all invariants hold"));
        let json = bakery_json::to_string(&report).unwrap();
        assert!(json.contains("\"states\""));
        assert!(json.contains("\"symmetry_order\""));
        assert!(json.contains("\"threads\""));
    }

    #[test]
    fn violating_run_is_thread_count_invariant() {
        // The deterministic violation selection: the reported first
        // violation (invariant, depth, trace) and the counts must not
        // depend on the worker count even for a run that stops early.
        let spec = BakerySpec::new(2, 3);
        let run = |threads: usize| {
            ModelChecker::new(&spec)
                .with_paper_invariants()
                .with_max_states(2_000_000)
                .with_threads(threads)
                .run()
        };
        let seq = run(1);
        for threads in [2, 3] {
            let par = run(threads);
            assert_eq!(par.states, seq.states, "threads {threads}");
            assert_eq!(par.transitions, seq.transitions, "threads {threads}");
            assert_eq!(par.frontier_digest, seq.frontier_digest, "threads {threads}");
            assert_eq!(par.violations.len(), seq.violations.len());
            assert_eq!(par.violations[0].invariant, seq.violations[0].invariant);
            assert_eq!(par.violations[0].depth, seq.violations[0].depth);
            let render = |v: &Violation| v.trace.iter().map(|s| s.state.clone()).collect::<Vec<_>>();
            assert_eq!(
                render(&par.violations[0]),
                render(&seq.violations[0]),
                "threads {threads}: counterexample trace must be schedule-independent"
            );
        }
    }

    #[cfg(feature = "spill")]
    #[test]
    fn spilled_exploration_matches_in_memory() {
        let spec = BakeryPlusPlusSpec::new(2, 3);
        let in_memory = ModelChecker::new(&spec).with_paper_invariants().run();
        let spilled = ModelChecker::new(&spec)
            .with_paper_invariants()
            .with_spill_dir(std::env::temp_dir())
            .run();
        assert!(spilled.holds(), "{spilled}");
        assert_eq!(spilled.states, in_memory.states);
        assert_eq!(spilled.frontier_digest, in_memory.frontier_digest);
    }
}

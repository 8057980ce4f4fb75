//! Visited-set storage for the explorer: a flat code arena plus a
//! fingerprint index, stripeable for parallel insertion, with an optional
//! spill-to-disk tier.
//!
//! * [`CodeArena`] stores every discovered state's packed words
//!   contiguously, `stride` words per state — 16 bytes per state for the
//!   2-level tree specification instead of a 600-byte `ProgState` per
//!   state.  With the `spill` cargo feature enabled and a spill directory
//!   configured, sealed chunks of the arena move to a temporary file and are
//!   paged back through a tiny LRU cache; BFS reads the arena almost
//!   sequentially, so the cache hit rate is high and resident memory drops to
//!   the index plus a few chunks.  The tier exists for the largest
//!   sweeps, whose state spaces exceed what the default CI runners hold.
//! * [`CodeIndex`] deduplicates by 64-bit FNV fingerprint with the arena as
//!   the source of truth: a fingerprint hit is confirmed against the stored
//!   words, and genuine 64-bit collisions (different codes, same
//!   fingerprint) fall back to an exact side map, so deduplication is always
//!   exact — a collision can never silently merge two distinct states, which
//!   would be unsound for an exhaustiveness claim.  Its fingerprint map
//!   hashes with `FoldHasher`, one multiply-fold, since its keys are
//!   already hashes.
//! * [`Stripe`] bundles one arena + one index into the unit of sharding the
//!   parallel explorer locks independently: the visited set is split into
//!   [`STRIPE_COUNT`] stripes keyed by fingerprint bits ([`stripe_of`]), so
//!   insertions from different worker threads almost never contend.  The
//!   stripe count is a fixed power of two, deliberately independent of the
//!   thread count — the stripe a code lands in (and hence every per-stripe
//!   slot number) is a pure function of the code itself, never of the
//!   schedule.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
#[cfg(feature = "spill")]
use std::sync::Mutex;

use crate::code::StateCode;

/// Codes per sealed spill chunk (stride words each).  Small enough that the
/// page cache churn on random probes stays cheap, large enough that
/// sequential BFS reads amortise the I/O.
#[cfg(feature = "spill")]
const SPILL_CHUNK_CODES: usize = 1 << 16;

/// Number of sealed chunks the spill tier keeps resident.
#[cfg(feature = "spill")]
const SPILL_CACHE_CHUNKS: usize = 4;

/// Append-only store of fixed-stride packed states.
#[derive(Debug)]
pub struct CodeArena {
    stride: usize,
    len: usize,
    /// All codes (memory mode) or the unsealed tail (spill mode).
    tail: Vec<u64>,
    #[cfg(feature = "spill")]
    spill: Option<SpillTier>,
}

impl CodeArena {
    /// Creates an in-memory arena for codes of `stride` words.
    #[must_use]
    pub fn new(stride: usize) -> Self {
        Self {
            stride,
            len: 0,
            tail: Vec::new(),
            #[cfg(feature = "spill")]
            spill: None,
        }
    }

    /// Creates an arena that seals full chunks to a temporary file under
    /// `dir` (which must exist and be writable).
    ///
    /// # Errors
    /// Returns the I/O error if the spill file cannot be created.
    #[cfg(feature = "spill")]
    pub fn with_spill_dir(stride: usize, dir: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self {
            stride,
            len: 0,
            tail: Vec::new(),
            spill: Some(SpillTier::create(stride, dir)?),
        })
    }

    /// Number of stored codes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no code has been stored yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Words per code.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Appends a code; its index is the previous [`CodeArena::len`].
    ///
    /// # Panics
    /// Panics if the code's width differs from the arena stride.
    pub fn push(&mut self, code: &StateCode) {
        let words = code.as_slice();
        assert_eq!(words.len(), self.stride, "code width must match the arena");
        self.tail.extend_from_slice(words);
        self.len += 1;
        #[cfg(feature = "spill")]
        if let Some(spill) = &mut self.spill {
            spill.maybe_seal(&mut self.tail);
        }
    }

    /// Copies the words of code `index` into `out`.
    pub fn load(&self, index: usize, out: &mut Vec<u64>) {
        out.clear();
        self.with_words(index, |words| out.extend_from_slice(words));
    }

    /// True when code `index` stores exactly `words`.
    #[must_use]
    pub fn matches(&self, index: usize, words: &[u64]) -> bool {
        let mut result = false;
        self.with_words(index, |stored| result = stored == words);
        result
    }

    /// Runs `f` on the words of code `index` (memory slice or paged chunk).
    fn with_words(&self, index: usize, f: impl FnOnce(&[u64])) {
        assert!(index < self.len, "index {index} out of range");
        #[cfg(feature = "spill")]
        if let Some(spill) = &self.spill {
            if index < spill.sealed_codes {
                spill.with_sealed(index, f);
                return;
            }
            let offset = (index - spill.sealed_codes) * self.stride;
            f(&self.tail[offset..offset + self.stride]);
            return;
        }
        let offset = index * self.stride;
        f(&self.tail[offset..offset + self.stride]);
    }
}

/// The sealed-chunk file tier of a [`CodeArena`].
#[cfg(feature = "spill")]
#[derive(Debug)]
struct SpillTier {
    stride: usize,
    /// Codes already written to the file.
    sealed_codes: usize,
    file: std::fs::File,
    /// Tiny LRU of resident sealed chunks: front = most recent.  A `Mutex`
    /// (not a `RefCell`) so a spill-backed arena stays `Sync`: the parallel
    /// explorer shares `&CodeArena` across worker threads for reads, and in
    /// the sharded store every *write* already happens under the stripe
    /// lock, so this inner lock is uncontended in practice.
    cache: Mutex<Vec<(usize, Vec<u64>)>>,
    /// The backing file's path, removed on drop.
    path: std::path::PathBuf,
}

#[cfg(feature = "spill")]
impl SpillTier {
    fn create(stride: usize, dir: &std::path::Path) -> std::io::Result<Self> {
        // Process id alone is not unique: two same-stride arenas in one
        // process (parallel tests, the sharded store's per-stripe spill
        // files) would open the same file and corrupt each other's sealed
        // chunks.
        static ARENA_SEQ: bakery_core::sync::AtomicU64 = bakery_core::sync::AtomicU64::new(0);
        let seq = ARENA_SEQ.fetch_add(1, bakery_core::sync::Ordering::Relaxed); // mem: id-alloc
        let path = dir.join(format!(
            "bakery-mc-arena-{}-{seq}-{stride}w.spill",
            std::process::id()
        ));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(Self {
            stride,
            sealed_codes: 0,
            file,
            cache: Mutex::new(Vec::new()),
            path,
        })
    }

    fn chunk_words(&self) -> usize {
        SPILL_CHUNK_CODES * self.stride
    }

    /// Seals full chunks off the front of `tail` into the file.
    fn maybe_seal(&mut self, tail: &mut Vec<u64>) {
        use std::os::unix::fs::FileExt;
        let chunk_words = self.chunk_words();
        while tail.len() >= chunk_words {
            let chunk: Vec<u64> = tail.drain(..chunk_words).collect();
            let bytes: Vec<u8> = chunk.iter().flat_map(|w| w.to_le_bytes()).collect();
            let offset = (self.sealed_codes * self.stride * 8) as u64;
            self.file
                .write_all_at(&bytes, offset)
                .expect("spill write failed");
            self.sealed_codes += SPILL_CHUNK_CODES;
        }
    }

    /// Runs `f` on a sealed code's words, paging its chunk in if needed.
    fn with_sealed(&self, index: usize, f: impl FnOnce(&[u64])) {
        use std::os::unix::fs::FileExt;
        let chunk_index = index / SPILL_CHUNK_CODES;
        let within = (index % SPILL_CHUNK_CODES) * self.stride;
        let mut cache = self.cache.lock().expect("spill cache poisoned");
        if let Some(pos) = cache.iter().position(|(c, _)| *c == chunk_index) {
            let entry = cache.remove(pos);
            cache.insert(0, entry);
        } else {
            let mut bytes = vec![0u8; self.chunk_words() * 8];
            let offset = (chunk_index * self.chunk_words() * 8) as u64;
            self.file
                .read_exact_at(&mut bytes, offset)
                .expect("spill read failed");
            let words: Vec<u64> = bytes
                .chunks_exact(8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                .collect();
            cache.insert(0, (chunk_index, words));
            cache.truncate(SPILL_CACHE_CHUNKS);
        }
        f(&cache[0].1[within..within + self.stride]);
    }
}

#[cfg(feature = "spill")]
impl Drop for SpillTier {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// The hasher of the explorer's `u64`-keyed maps (fingerprints, and the
/// explorer's per-level `orbit | variant << 32` links): one 64 × 64 → 128-bit
/// multiply by an odd constant, whose two halves are XOR-folded.  The keys
/// need no SipHash: fingerprints are FNV hashes already, and the link keys
/// are distinct small integers.
///
/// The mix differs from [`stripe_of`]'s on purpose.  A hash map takes its
/// bucket from the hash's low bits and a 7-bit tag from its top bits, and
/// every fingerprint in one stripe shares the top bits of `stripe_of`'s
/// product; if the map hashed keys the same way, all of a stripe's entries
/// would share their tag bits and each probe would compare against every
/// entry of its group.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FoldHasher {
    hash: u64,
}

/// The multiplier of [`FoldHasher`] (odd, and unrelated to the golden-ratio
/// multiplier of [`stripe_of`]).
const FOLD_MULTIPLIER: u64 = 0xA076_1D64_78BD_642F;

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        let product = u128::from(self.hash ^ value) * u128::from(FOLD_MULTIPLIER);
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FoldHasher`]s for a `HashMap`.
pub(crate) type FoldBuildHasher = BuildHasherDefault<FoldHasher>;

/// Exact deduplication index over a [`CodeArena`].
#[derive(Debug, Default)]
pub struct CodeIndex {
    /// fingerprint → index of the first code with that fingerprint.
    primary: HashMap<u64, u32, FoldBuildHasher>,
    /// Exact overflow map for genuine fingerprint collisions (rare).
    collisions: HashMap<StateCode, u32>,
}

impl CodeIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks `code` up; when absent, records it as `next_index` (the caller
    /// then pushes it onto the arena).  Returns `(index, inserted)`.
    pub fn get_or_insert(
        &mut self,
        code: &StateCode,
        next_index: u32,
        arena: &CodeArena,
    ) -> (u32, bool) {
        self.get_or_insert_hashed(code, code.fingerprint(), next_index, arena)
    }

    /// [`CodeIndex::get_or_insert`] for a caller that already holds
    /// `fingerprint == code.fingerprint()`.
    pub(crate) fn get_or_insert_hashed(
        &mut self,
        code: &StateCode,
        fingerprint: u64,
        next_index: u32,
        arena: &CodeArena,
    ) -> (u32, bool) {
        debug_assert_eq!(fingerprint, code.fingerprint());
        match self.primary.entry(fingerprint) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(next_index);
                (next_index, true)
            }
            std::collections::hash_map::Entry::Occupied(slot) => {
                let candidate = *slot.get();
                if arena.matches(candidate as usize, code.as_slice()) {
                    return (candidate, false);
                }
                // Genuine 64-bit fingerprint collision: exact fallback.
                match self.collisions.entry(code.clone()) {
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(next_index);
                        (next_index, true)
                    }
                    std::collections::hash_map::Entry::Occupied(slot) => (*slot.get(), false),
                }
            }
        }
    }

    /// Number of fingerprint collisions that fell back to the exact map.
    #[must_use]
    pub fn collision_count(&self) -> usize {
        self.collisions.len()
    }
}

/// Number of visited-set stripes the parallel explorer shards over.
///
/// A fixed power of two, independent of the worker thread count: which
/// stripe a code belongs to is a pure function of its fingerprint
/// ([`stripe_of`]), so per-stripe slot numbers — and everything derived from
/// them — cannot depend on the schedule.  64 stripes keep the probability of
/// two of a handful of workers colliding on one stripe lock low while the
/// per-stripe constant overhead stays negligible.
pub const STRIPE_COUNT: usize = 64;

/// Bits of the fingerprint consumed by [`stripe_of`].
pub const STRIPE_BITS: u32 = STRIPE_COUNT.trailing_zeros();

/// Maps a code fingerprint to its stripe.
///
/// FNV-1a's low-order bits are its worst-dispersed, so the fingerprint is
/// first finalized with a Fibonacci multiply and the stripe read from the
/// *high* bits.  [`CodeIndex`]'s map hashes the full fingerprint again with
/// `FoldHasher`, a different multiply-fold, so the fingerprints of one
/// stripe still spread over the map's buckets and tag bits.
#[must_use]
pub fn stripe_of(fingerprint: u64) -> usize {
    let mixed = (fingerprint ^ (fingerprint >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> (64 - STRIPE_BITS)) as usize
}

/// One independently lockable stripe of the sharded visited set: an
/// append-only [`CodeArena`] plus its exact [`CodeIndex`].
///
/// The stripe itself carries no lock — the explorer wraps each stripe (plus
/// its per-state metadata) in one `Mutex`, so an insertion's dedup check,
/// arena append and metadata update are a single atomic step.
#[derive(Debug)]
pub struct Stripe {
    arena: CodeArena,
    index: CodeIndex,
}

impl Stripe {
    /// Creates an in-memory stripe for codes of `stride` words.
    #[must_use]
    pub fn new(stride: usize) -> Self {
        Self {
            arena: CodeArena::new(stride),
            index: CodeIndex::new(),
        }
    }

    /// Creates a stripe whose arena seals full chunks to a file under `dir`
    /// (each stripe gets its own uniquely named spill file).
    ///
    /// # Errors
    /// Returns the I/O error if the spill file cannot be created.
    #[cfg(feature = "spill")]
    pub fn with_spill_dir(stride: usize, dir: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self {
            arena: CodeArena::with_spill_dir(stride, dir)?,
            index: CodeIndex::new(),
        })
    }

    /// Number of distinct codes stored in this stripe.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True when the stripe holds no codes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The stripe's arena (for reads: decode, trace reconstruction).
    #[must_use]
    pub fn arena(&self) -> &CodeArena {
        &self.arena
    }

    /// Interns `code`: returns its stripe-local slot and whether it was
    /// freshly inserted.  Exact — fingerprint collisions fall back to
    /// [`CodeIndex`]'s side map.
    pub fn intern(&mut self, code: &StateCode) -> (u32, bool) {
        self.intern_hashed(code, code.fingerprint())
    }

    /// [`Stripe::intern`] for a caller that already holds
    /// `fingerprint == code.fingerprint()` (the explorer computes it once
    /// per successor, for [`stripe_of`], the index and the digest).
    pub(crate) fn intern_hashed(&mut self, code: &StateCode, fingerprint: u64) -> (u32, bool) {
        let next = self.arena.len() as u32;
        let (slot, inserted) =
            self.index
                .get_or_insert_hashed(code, fingerprint, next, &self.arena);
        if inserted {
            self.arena.push(code);
        }
        (slot, inserted)
    }

    /// Number of fingerprint collisions this stripe resolved exactly.
    #[must_use]
    pub fn collision_count(&self) -> usize {
        self.index.collision_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(words: &[u64]) -> StateCode {
        StateCode::from_words(words)
    }

    #[test]
    fn arena_round_trips_codes() {
        let mut arena = CodeArena::new(2);
        assert!(arena.is_empty());
        for i in 0..100u64 {
            arena.push(&code(&[i, i * 3]));
        }
        assert_eq!(arena.len(), 100);
        assert_eq!(arena.stride(), 2);
        let mut out = Vec::new();
        arena.load(42, &mut out);
        assert_eq!(out, vec![42, 126]);
        assert!(arena.matches(7, &[7, 21]));
        assert!(!arena.matches(7, &[7, 22]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn arena_rejects_out_of_range_reads() {
        let arena = CodeArena::new(1);
        let mut out = Vec::new();
        arena.load(0, &mut out);
    }

    #[test]
    fn index_deduplicates_exactly() {
        let mut arena = CodeArena::new(2);
        let mut index = CodeIndex::new();
        let a = code(&[1, 2]);
        let (idx_a, inserted) = index.get_or_insert(&a, 0, &arena);
        assert!(inserted);
        assert_eq!(idx_a, 0);
        arena.push(&a);
        // Same code again: found, not inserted.
        let (again, inserted) = index.get_or_insert(&a, 1, &arena);
        assert!(!inserted);
        assert_eq!(again, 0);
        // A different code inserts fresh.
        let b = code(&[3, 4]);
        let (idx_b, inserted) = index.get_or_insert(&b, 1, &arena);
        assert!(inserted);
        assert_eq!(idx_b, 1);
        arena.push(&b);
        assert_eq!(index.collision_count(), 0);
    }

    #[test]
    fn stripe_interns_exactly_like_arena_plus_index() {
        let mut stripe = Stripe::new(2);
        assert!(stripe.is_empty());
        let a = code(&[1, 2]);
        let b = code(&[3, 4]);
        assert_eq!(stripe.intern(&a), (0, true));
        assert_eq!(stripe.intern(&b), (1, true));
        assert_eq!(stripe.intern(&a), (0, false));
        assert_eq!(stripe.len(), 2);
        assert!(stripe.arena().matches(1, &[3, 4]));
        assert_eq!(stripe.collision_count(), 0);
    }

    #[test]
    fn stripe_of_partitions_the_fingerprint_space() {
        assert!(STRIPE_COUNT.is_power_of_two());
        assert_eq!(1usize << STRIPE_BITS, STRIPE_COUNT);
        // Every fingerprint lands in exactly one valid stripe, and a spread
        // of fingerprints actually uses many stripes (the sharding would be
        // pointless if everything hashed to one lock).
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096u64 {
            let s = stripe_of(code(&[i, i * 7 + 1]).fingerprint());
            assert!(s < STRIPE_COUNT);
            seen.insert(s);
        }
        assert_eq!(seen.len(), STRIPE_COUNT, "fingerprints must spread");
    }

    #[test]
    fn one_stripes_fingerprints_spread_over_the_index_tags() {
        use std::hash::BuildHasher;
        // A hash map buckets by a hash's low bits and tags entries with its
        // top 7 bits.  Every fingerprint of one stripe shares the top bits
        // of `stripe_of`'s product, so hashing them that way would leave
        // them at most 2 tags; the index's own mix must spread them.
        let codes: Vec<StateCode> = (0u64..)
            .map(|i| code(&[i, i * 7 + 1]))
            .filter(|c| stripe_of(c.fingerprint()) == 0)
            .take(4096)
            .collect();
        let tags = |hash: &dyn Fn(u64) -> u64| {
            codes
                .iter()
                .map(|c| hash(c.fingerprint()) >> 57)
                .collect::<std::collections::HashSet<u64>>()
                .len()
        };
        let index_tags = tags(&|fp| FoldBuildHasher::default().hash_one(fp));
        assert!(index_tags >= 64, "{index_tags} distinct tags");
        let stripe_tags = tags(&|fp| (fp ^ (fp >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        assert!(stripe_tags <= 2, "{stripe_tags} distinct tags");

        let mut arena = CodeArena::new(2);
        let mut index = CodeIndex::new();
        for (slot, c) in codes.iter().enumerate() {
            let slot = slot as u32;
            assert_eq!(index.get_or_insert(c, slot, &arena), (slot, true));
            arena.push(c);
        }
        for (slot, c) in codes.iter().enumerate() {
            let next = arena.len() as u32;
            assert_eq!(index.get_or_insert(c, next, &arena), (slot as u32, false));
        }
        assert_eq!(arena.len(), codes.len());
        assert_eq!(index.collision_count(), 0);
    }

    #[cfg(feature = "spill")]
    #[test]
    fn spilled_stripe_seals_and_rereads_across_a_chunk_boundary() {
        // The sharded store's disk tier: push one chunk plus a tail through a
        // Stripe, forcing a seal, then re-intern codes on both sides of the
        // chunk boundary — each must dedup against the sealed file, not
        // insert a duplicate.
        let dir = std::env::temp_dir();
        let mut stripe = Stripe::with_spill_dir(2, &dir).expect("spill stripe");
        let total = SPILL_CHUNK_CODES + 17;
        for i in 0..total as u64 {
            let (slot, inserted) = stripe.intern(&code(&[i, i ^ 0xABCD]));
            assert!(inserted);
            assert_eq!(slot as usize, i as usize);
        }
        // Rereads straddling the seal boundary (sealed side + tail side).
        for i in [
            0usize,
            SPILL_CHUNK_CODES - 1,
            SPILL_CHUNK_CODES,
            total - 1,
        ] {
            let w = [i as u64, (i as u64) ^ 0xABCD];
            assert!(stripe.arena().matches(i, &w), "code {i}");
            let (slot, inserted) = stripe.intern(&code(&w));
            assert!(!inserted, "code {i} must dedup against the sealed chunk");
            assert_eq!(slot as usize, i);
        }
        assert_eq!(stripe.len(), total);
    }

    #[cfg(feature = "spill")]
    #[test]
    fn spilled_arena_round_trips_across_chunks() {
        let dir = std::env::temp_dir();
        let mut arena = CodeArena::with_spill_dir(2, &dir).expect("spill file");
        // Three chunks plus a partial tail.
        let total = SPILL_CHUNK_CODES * 3 + 1234;
        for i in 0..total as u64 {
            arena.push(&code(&[i, !i]));
        }
        assert_eq!(arena.len(), total);
        let mut out = Vec::new();
        // Sequential reads (the BFS pattern).
        for i in (0..total).step_by(7919) {
            arena.load(i, &mut out);
            assert_eq!(out, vec![i as u64, !(i as u64)], "code {i}");
            assert!(arena.matches(i, &out));
        }
        // Random-ish revisits across sealed chunks.
        for i in [0usize, total - 1, SPILL_CHUNK_CODES, SPILL_CHUNK_CODES * 2 + 5] {
            arena.load(i, &mut out);
            assert_eq!(out, vec![i as u64, !(i as u64)], "code {i}");
        }
    }
}

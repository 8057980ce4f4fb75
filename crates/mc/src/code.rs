//! Compact, invertible state encoding for the explorer's visited set.
//!
//! A [`ProgState`] keeps its registers, process frames and pending writes
//! inline (see `bakery_sim::state`): building or copying one allocates
//! nothing, but every state is several hundred bytes wide, whatever its
//! specification.  [`StateCodec`] instead bit-packs every field into a
//! handful of 64-bit words, reusing the lane-sizing idea of `bakery-core`'s
//! `snapshot::LaneWidth`: each field gets the narrowest lane that holds every
//! value it can take, with widths derived from [`Algorithm::registers`] (plus
//! one value of sentinel headroom, since the classic Bakery specification
//! physically stores `M + 1` to mark an overflow) and
//! [`Algorithm::state_bounds`].
//!
//! The 2-level binary tree specification packs into **two words** (16 bytes):
//! 12 registers × ≤3 bits + 4 processes × (6-bit pc + 2 locals + crash bit).
//! That is what lets the visited set hold tens of millions of states in
//! memory and close out the full 4-process tree exhaustively.
//!
//! The encoding is exact and invertible ([`StateCodec::decode`] is a strict
//! inverse of [`StateCodec::encode`]), so the explorer never stores decoded
//! states at all — BFS expansion decodes on demand.
//!
//! ## Permutations as bit-field moves
//!
//! A symmetry permutation only relabels: it moves whole lanes and never
//! changes a value.  `StateCodec::permutation_moves` therefore compiles a
//! [`StatePermutation`] into a short list of `FieldMove`s over the packed
//! layout — one per register lane, one per process block (pc, crash bit and
//! locals are contiguous), and under safe semantics one per pending-write
//! cell plus one per writer-mask bit of a multi-writer cell, so the mask
//! follows the process relabelling.  Fields that stay adjacent on both sides
//! merge into one move, and a move never straddles a word.  Applied to a
//! state's code, the moves yield exactly what [`StateCodec::encode_permuted`]
//! computes from the `ProgState`, which stays as the reference.
//!
//! ## Fixed-width kernels
//!
//! The hot kernels — [`StateCodec::encode`], the minimization inside
//! `Canonicalizer::factor` and the explorer's realize by moves — are one
//! body each, generic over the code buffer (`Words`).  `at_width!` picks the
//! buffer once per call from [`StateCodec::words_per_state`]: a `[u64; W]`
//! for each width a [`StateCode`] holds inline (1, 2 or 3 words), so the
//! buffer lives in registers and its length is a constant, and a `Vec<u64>`
//! running the same body for wider codes.

use std::fmt;
use std::hash::{Hash, Hasher};

use bakery_sim::{
    Algorithm, InlineVec, PendingWrite, ProcState, ProgState, RegisterSemantics, StatePermutation,
};

/// Number of words a [`StateCode`] stores inline before spilling to a heap
/// allocation.  Three words cover every specification in the suite at its
/// model-checked sizes.  `at_width!` has one arm per inline width.
const INLINE_WORDS: usize = 3;

/// A code buffer the width-generic kernels build codes in: `[u64; W]` for
/// the widths a [`StateCode`] holds inline, `Vec<u64>` for wider codes.
/// Buffers compare lexicographically by word, like [`StateCode`] slices.
pub(crate) trait Words: Clone + Ord + AsRef<[u64]> + AsMut<[u64]> {
    /// A buffer of `len` zero words (`len` is `W` for an array).
    fn zeroed(len: usize) -> Self;

    /// ORs `bits` into word `word`.
    fn or_into(&mut self, word: usize, bits: u64);
}

impl<const W: usize> Words for [u64; W] {
    #[inline]
    fn zeroed(len: usize) -> Self {
        debug_assert_eq!(len, W);
        [0; W]
    }

    /// Selects the word by comparison rather than by index, so the buffer
    /// can live in registers instead of chaining every OR through memory.
    #[inline(always)]
    fn or_into(&mut self, word: usize, bits: u64) {
        debug_assert!(word < W);
        for (index, slot) in self.iter_mut().enumerate() {
            if W == 1 || index == word {
                *slot |= bits;
            }
        }
    }
}

impl Words for Vec<u64> {
    fn zeroed(len: usize) -> Self {
        vec![0; len]
    }

    #[inline]
    fn or_into(&mut self, word: usize, bits: u64) {
        self[word] |= bits;
    }
}

/// Runs `$body` with the type alias `$buf` bound to the code buffer for
/// `$words` words per state: `[u64; 1]`, `[u64; 2]` or `[u64; 3]` (the
/// widths a [`StateCode`] holds inline), else `Vec<u64>`.
macro_rules! at_width {
    ($words:expr, $buf:ident => $body:expr) => {
        match $words {
            1 => {
                type $buf = [u64; 1];
                $body
            }
            2 => {
                type $buf = [u64; 2];
                $body
            }
            3 => {
                type $buf = [u64; 3];
                $body
            }
            _ => {
                type $buf = Vec<u64>;
                $body
            }
        }
    };
}
pub(crate) use at_width;

const _: () = assert!(INLINE_WORDS == 3, "at_width! has one arm per inline width");

/// A packed state: the unit the visited set stores, hashes and compares.
#[derive(Debug, Clone)]
pub enum StateCode {
    /// At most `INLINE_WORDS` words, stored without heap allocation.
    Inline {
        /// Number of words in use.
        len: u8,
        /// The packed words (`words[len..]` is zero).
        words: [u64; INLINE_WORDS],
    },
    /// Wider states (conservative field bounds, large specs).
    Heap(Box<[u64]>),
}

impl StateCode {
    /// Wraps a packed word vector, choosing inline storage when it fits.
    #[must_use]
    #[inline]
    pub fn from_words(words: &[u64]) -> Self {
        if words.len() <= INLINE_WORDS {
            let mut inline = [0u64; INLINE_WORDS];
            inline[..words.len()].copy_from_slice(words);
            StateCode::Inline {
                len: words.len() as u8,
                words: inline,
            }
        } else {
            StateCode::Heap(words.to_vec().into_boxed_slice())
        }
    }

    /// The packed words.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        match self {
            StateCode::Inline { len, words } => &words[..*len as usize],
            StateCode::Heap(words) => words,
        }
    }

    /// A deterministic 64-bit digest of the code (FNV-1a over the words);
    /// used both as the visited-set hash key and for the replay-determinism
    /// digest of a whole exploration.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fnv1a(FNV_OFFSET_BASIS, self.as_slice())
    }
}

/// The FNV-1a offset basis: seed of every fingerprint and exploration
/// digest in this crate.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `words` into an FNV-1a accumulator starting from `seed`.
#[must_use]
pub fn fnv1a(seed: u64, words: &[u64]) -> u64 {
    let mut hash = seed;
    for &word in words {
        for shift in [0u32, 16, 32, 48] {
            hash ^= (word >> shift) & 0xFFFF;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

impl PartialEq for StateCode {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for StateCode {}

impl Hash for StateCode {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Display for StateCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x")?;
        for word in self.as_slice().iter().rev() {
            write!(f, "{word:016x}")?;
        }
        Ok(())
    }
}

/// Bit-lane layout of one algorithm's states.
#[derive(Debug, Clone)]
pub struct StateCodec {
    /// Bits of each shared register, in register order.
    shared_bits: Vec<u32>,
    /// The inclusive maximum each shared lane may hold (bound + sentinel).
    shared_maxes: Vec<u64>,
    /// Bits of the program counter lane.
    pc_bits: u32,
    /// Bits of each local slot (uniform across processes).
    local_bits: Vec<u32>,
    /// Inclusive maxima for the local lanes.
    local_maxes: Vec<u64>,
    /// Number of processes.
    procs: usize,
    /// Total words per code.
    words: usize,
    /// True when the algorithm runs under [`RegisterSemantics::Safe`]: the
    /// code grows pending-write lanes appended *after* the atomic layout, so
    /// atomic-mode codes stay bit-identical to the pre-knob plane.
    weak: bool,
    /// Register owners (single-writer registers), used to reconstruct owned
    /// writer masks on decode and to validate permutations under `weak`.
    owners: Vec<Option<usize>>,
    /// Bit offset of every register lane, then (under `weak`) of every
    /// pending-write cell: the lanes `StateCodec::permutation_moves` moves.
    offsets: Vec<usize>,
}

/// Narrowest lane holding every value in `0..=max` (at least one bit).
fn bits_for(max: u64) -> u32 {
    (64 - max.leading_zeros()).max(1)
}

impl StateCodec {
    /// Builds the codec for `algorithm`, deriving register lanes from its
    /// register bounds (plus one sentinel value of headroom) and pc/local
    /// lanes from [`Algorithm::state_bounds`].
    ///
    /// # Panics
    /// Panics if the processes declare differing local-variable counts (the
    /// codec assumes a uniform per-process layout, which every specification
    /// in the suite satisfies).
    #[must_use]
    pub fn new<A: Algorithm + ?Sized>(algorithm: &A) -> Self {
        let initial = algorithm.initial_state();
        let bounds = algorithm.state_bounds();
        let local_count = initial.procs.first().map_or(0, |p| p.locals.len());
        for (pid, proc_state) in initial.procs.iter().enumerate() {
            assert_eq!(
                proc_state.locals.len(),
                local_count,
                "process {pid} has a different local count"
            );
        }
        let registers = algorithm.registers();
        let shared_maxes: Vec<u64> = registers
            .iter()
            .map(|reg| reg.bound.saturating_add(1))
            .collect();
        let shared_bits: Vec<u32> = shared_maxes.iter().map(|&m| bits_for(m)).collect();
        let owners: Vec<Option<usize>> = registers.iter().map(|reg| reg.owner).collect();
        let local_maxes: Vec<u64> = (0..local_count)
            .map(|slot| bounds.local_bound(slot))
            .collect();
        let local_bits: Vec<u32> = local_maxes.iter().map(|&m| bits_for(m)).collect();
        let pc_bits = bits_for(u64::from(bounds.max_pc));
        let per_proc: u32 = pc_bits + 1 + local_bits.iter().sum::<u32>();
        let weak = algorithm.register_semantics() == RegisterSemantics::Safe;
        let procs = initial.procs.len();
        let mut offsets = Vec::with_capacity(registers.len() * if weak { 2 } else { 1 });
        let mut total_bits = 0;
        for &bits in &shared_bits {
            offsets.push(total_bits);
            total_bits += bits as usize;
        }
        total_bits += per_proc as usize * procs;
        if weak {
            // Pending-write lanes, appended after the atomic layout: owned
            // registers need an active bit + a pending-value lane (the mask
            // is implied by the owner); multi-writer registers need a full
            // writer mask + a clash bit + the pending-value lane.
            for (idx, &bits) in shared_bits.iter().enumerate() {
                offsets.push(total_bits);
                total_bits += match owners[idx] {
                    Some(_) => 1,
                    None => procs + 1,
                } + bits as usize;
            }
        }
        Self {
            shared_bits,
            shared_maxes,
            pc_bits,
            local_bits,
            local_maxes,
            procs,
            words: total_bits.div_ceil(64).max(1),
            weak,
            owners,
            offsets,
        }
    }

    /// Words per packed state.
    #[must_use]
    pub fn words_per_state(&self) -> usize {
        self.words
    }

    /// Number of processes the codec packs.
    #[must_use]
    pub fn processes(&self) -> usize {
        self.procs
    }

    /// Approximate bytes one stored state costs in the visited set (packed
    /// words only, excluding index overhead) — the memory-math figure the
    /// architecture notes quote.
    #[must_use]
    pub fn bytes_per_state(&self) -> usize {
        self.words * 8
    }

    /// Encodes `state`, asserting every field fits its lane.  Runs the
    /// encoding in a buffer of the code's width (see the module docs).
    ///
    /// # Panics
    /// Panics when a field exceeds its declared bound — that means an
    /// [`Algorithm::state_bounds`] override is wrong, and a loud failure here
    /// is what keeps the compact store sound.
    #[must_use]
    pub fn encode(&self, state: &ProgState) -> StateCode {
        at_width!(self.words, Buf => StateCode::from_words(
            self.encode_in::<Buf>(state, None).as_ref()
        ))
    }

    /// Encodes the image of `state` under the permutation whose **inverse**
    /// is `preimage`, without materialising the permuted state.  This is the
    /// reference the compiled moves of `StateCodec::permutation_moves` are
    /// tested against; the canonicalizer encodes each successor once and
    /// derives its orbit members' codes from those moves instead.  It builds
    /// the code in a `Vec`, whatever the width, so the fixed-width encodes
    /// have a reference too.
    #[must_use]
    pub fn encode_permuted(
        &self,
        state: &ProgState,
        preimage: Option<&StatePermutation>,
    ) -> StateCode {
        StateCode::from_words(&self.encode_in::<Vec<u64>>(state, preimage))
    }

    /// The encoding body behind [`StateCodec::encode`] and
    /// [`StateCodec::encode_permuted`], writing into a `B` of the code's
    /// width.  Inlined, so an identity encode carries no permutation lookups.
    #[inline(always)]
    pub(crate) fn encode_in<B: Words>(
        &self,
        state: &ProgState,
        preimage: Option<&StatePermutation>,
    ) -> B {
        assert_eq!(state.shared.len(), self.shared_bits.len(), "register count");
        assert_eq!(state.procs.len(), self.procs, "process count");
        let mut writer = BitWriter::<B>::new(self.words);
        for new_index in 0..state.shared.len() {
            // The value landing in cell `new_index` comes from the register
            // the inverse maps it to (identity when no permutation).
            let old_index = preimage.map_or(new_index, |p| p.map_register(new_index));
            let value = state.shared[old_index];
            assert!(
                value <= self.shared_maxes[new_index],
                "register {old_index} holds {value}, above its encoding bound {}",
                self.shared_maxes[new_index]
            );
            writer.push(value, self.shared_bits[new_index]);
        }
        for new_pid in 0..self.procs {
            let old_pid = preimage.map_or(new_pid, |p| p.map_process(new_pid));
            let proc_state = &state.procs[old_pid];
            assert!(
                u64::from(proc_state.pc) < (1u64 << self.pc_bits).max(1),
                "pc {} of process {old_pid} exceeds the encoding's max_pc lane",
                proc_state.pc
            );
            writer.push(u64::from(proc_state.pc), self.pc_bits);
            writer.push(u64::from(proc_state.crashed), 1);
            for (slot, &value) in proc_state.locals.iter().enumerate() {
                assert!(
                    value <= self.local_maxes[slot],
                    "local {slot} of process {old_pid} holds {value}, above its bound {}",
                    self.local_maxes[slot]
                );
                writer.push(value, self.local_bits[slot]);
            }
        }
        if self.weak {
            assert_eq!(
                state.writes.len(),
                self.shared_bits.len(),
                "safe-semantics state is missing its pending-write cells"
            );
            for new_index in 0..state.writes.len() {
                let old_index = preimage.map_or(new_index, |p| p.map_register(new_index));
                let cell = &state.writes[old_index];
                debug_assert!(
                    (cell.writers != 0 || (cell.value == 0 && !cell.clash))
                        && (!cell.clash || cell.value == 0),
                    "pending-write cell {old_index} violates its normalisation invariant"
                );
                assert!(
                    cell.value <= self.shared_maxes[new_index],
                    "pending value {} on register {old_index} exceeds its lane max {}",
                    cell.value,
                    self.shared_maxes[new_index]
                );
                match self.owners[new_index] {
                    Some(_) => {
                        // Single-writer: the mask is implied by the owner.
                        writer.push(u64::from(cell.writers != 0), 1);
                        writer.push(cell.value, self.shared_bits[new_index]);
                    }
                    None => {
                        // The mask's writer bits follow the process
                        // relabelling: the new mask's bit q is the old
                        // mask's bit for q's preimage process.
                        let mut mask = 0u64;
                        for q in 0..self.procs {
                            let old_pid = preimage.map_or(q, |p| p.map_process(q));
                            if cell.writers & (1 << old_pid) != 0 {
                                mask |= 1 << q;
                            }
                        }
                        writer.push(mask, self.procs as u32);
                        writer.push(u64::from(cell.clash), 1);
                        writer.push(cell.value, self.shared_bits[new_index]);
                    }
                }
            }
        }
        writer.finish()
    }

    /// Asserts that `perm` maps every register onto one with the same lane
    /// width and the same encoding maximum, so permuted encodings never
    /// re-interpret a value in a narrower or wider lane.
    ///
    /// # Panics
    /// Panics when the permutation is incompatible with the lane layout.
    pub fn assert_permutation_compatible(&self, perm: &StatePermutation) {
        assert_eq!(perm.registers(), self.shared_bits.len(), "register count");
        assert_eq!(perm.processes(), self.procs, "process count");
        for old in 0..perm.registers() {
            let new = perm.map_register(old);
            assert_eq!(
                self.shared_maxes[old], self.shared_maxes[new],
                "permutation maps register {old} onto {new}, which has a different bound"
            );
            if self.weak {
                // The owned-register encoding stores only an active bit, so
                // a permutation must map owners consistently with the
                // process relabelling (and never mix owned with multi-writer
                // cells) for permuted codes to stay exact.
                let mapped_owner = self.owners[old].map(|o| perm.map_process(o));
                assert_eq!(
                    mapped_owner, self.owners[new],
                    "permutation maps register {old} onto {new} with inconsistent ownership"
                );
            }
        }
    }

    /// Appends to `moves` the bit-field moves that turn the code of any state
    /// into the code of its image under `perm` (see the module docs).  The
    /// moves OR into a zeroed destination and together cover every bit of
    /// the layout.
    ///
    /// # Panics
    /// Panics when `perm` is incompatible with the lane layout (see
    /// [`StateCodec::assert_permutation_compatible`]): only a permutation
    /// that maps lanes onto lanes of equal width and ownership is a pure
    /// move of bits.
    pub(crate) fn permutation_moves(&self, perm: &StatePermutation, moves: &mut Vec<FieldMove>) {
        self.assert_permutation_compatible(perm);
        assert!(
            self.words <= 1 << 16,
            "field moves address at most 2^16 words"
        );
        let registers = self.shared_bits.len();
        let mut out = MoveBuilder { moves, run: None };
        for (old, &bits) in self.shared_bits.iter().enumerate() {
            let new = perm.map_register(old);
            out.field(self.offsets[old], self.offsets[new], bits as usize);
        }
        let base = self.shared_bits.iter().sum::<u32>() as usize;
        let block = (self.pc_bits + 1 + self.local_bits.iter().sum::<u32>()) as usize;
        for old in 0..self.procs {
            out.field(
                base + old * block,
                base + perm.map_process(old) * block,
                block,
            );
        }
        if self.weak {
            for (old, &bits) in self.shared_bits.iter().enumerate() {
                let src = self.offsets[registers + old];
                let dst = self.offsets[registers + perm.map_register(old)];
                if self.owners[old].is_some() {
                    out.field(src, dst, 1 + bits as usize);
                } else {
                    // Writer bit p of the mask lands on bit perm(p); the
                    // clash bit and the pending value follow as one field.
                    for pid in 0..self.procs {
                        out.field(src + pid, dst + perm.map_process(pid), 1);
                    }
                    out.field(src + self.procs, dst + self.procs, 1 + bits as usize);
                }
            }
        }
        out.finish();
    }

    /// Decodes a code produced by [`StateCodec::encode`] back into the exact
    /// original state.
    #[must_use]
    pub fn decode(&self, code: &StateCode) -> ProgState {
        self.decode_words(code.as_slice())
    }

    /// Decodes from raw packed words (the arena stores codes as bare words).
    /// Each lane is read straight into its slot of the state's inline
    /// arrays, in layout order.
    #[must_use]
    pub fn decode_words(&self, words: &[u64]) -> ProgState {
        let mut reader = BitReader::new(words);
        let registers = self.shared_bits.len();
        let shared = InlineVec::from_fn(registers, |idx| reader.pull(self.shared_bits[idx]));
        let procs = InlineVec::from_fn(self.procs, |_| {
            let pc = reader.pull(self.pc_bits) as u32;
            let crashed = reader.pull(1) != 0;
            let locals = InlineVec::from_fn(self.local_bits.len(), |slot| {
                reader.pull(self.local_bits[slot])
            });
            ProcState {
                pc,
                locals,
                crashed,
            }
        });
        let cells = if self.weak { registers } else { 0 };
        let writes = InlineVec::from_fn(cells, |idx| match self.owners[idx] {
            Some(owner) => {
                let active = reader.pull(1) != 0;
                PendingWrite {
                    writers: if active { 1 << owner } else { 0 },
                    value: reader.pull(self.shared_bits[idx]),
                    clash: false,
                }
            }
            None => {
                let writers = reader.pull(self.procs as u32);
                let clash = reader.pull(1) != 0;
                PendingWrite {
                    writers,
                    value: reader.pull(self.shared_bits[idx]),
                    clash,
                }
            }
        });
        ProgState {
            shared,
            procs,
            writes,
        }
    }
}

/// One bit-field move of a compiled permutation: ORs the field
/// `(src[src_word] >> src_shift) & mask` into `dst[dst_word]` at
/// `dst_shift`.  Neither side straddles a word boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FieldMove {
    mask: u64,
    src_word: u16,
    dst_word: u16,
    src_shift: u8,
    dst_shift: u8,
}

impl FieldMove {
    /// Copies this move's field of `src` into `dst`, which holds zeros there.
    #[inline(always)]
    pub(crate) fn apply<B: Words>(&self, src: &[u64], dst: &mut B) {
        dst.or_into(
            usize::from(self.dst_word),
            ((src[usize::from(self.src_word)] >> self.src_shift) & self.mask) << self.dst_shift,
        );
    }
}

/// Collects `(src bit, dst bit, width)` fields in source order, merges each
/// one that continues the previous field on both sides, and splits the
/// merged runs into word-local [`FieldMove`]s.
struct MoveBuilder<'a> {
    moves: &'a mut Vec<FieldMove>,
    run: Option<(usize, usize, usize)>,
}

impl MoveBuilder<'_> {
    fn field(&mut self, src: usize, dst: usize, width: usize) {
        match &mut self.run {
            Some((run_src, run_dst, run_width))
                if *run_src + *run_width == src && *run_dst + *run_width == dst =>
            {
                *run_width += width;
            }
            _ => {
                self.flush();
                self.run = Some((src, dst, width));
            }
        }
    }

    fn flush(&mut self) {
        let Some((mut src, mut dst, mut width)) = self.run.take() else {
            return;
        };
        while width > 0 {
            let take = width.min(64 - src % 64).min(64 - dst % 64);
            self.moves.push(FieldMove {
                mask: if take == 64 {
                    u64::MAX
                } else {
                    (1 << take) - 1
                },
                src_word: (src / 64) as u16,
                dst_word: (dst / 64) as u16,
                src_shift: (src % 64) as u8,
                dst_shift: (dst % 64) as u8,
            });
            src += take;
            dst += take;
            width -= take;
        }
    }

    fn finish(mut self) {
        self.flush();
    }
}

/// LSB-first bit packer into a zeroed code buffer.
struct BitWriter<B> {
    words: B,
    bit: usize,
}

impl<B: Words> BitWriter<B> {
    #[inline]
    fn new(words: usize) -> Self {
        Self {
            words: B::zeroed(words),
            bit: 0,
        }
    }

    #[inline]
    fn push(&mut self, value: u64, bits: u32) {
        debug_assert!(bits == 64 || value < (1u64 << bits));
        let word = self.bit / 64;
        let offset = (self.bit % 64) as u32;
        self.words.or_into(word, value << offset);
        if offset + bits > 64 {
            self.words.or_into(word + 1, value >> (64 - offset));
        }
        self.bit += bits as usize;
    }

    #[inline]
    fn finish(self) -> B {
        debug_assert!(self.bit <= self.words.as_ref().len() * 64);
        self.words
    }
}

/// LSB-first bit reader, the inverse of [`BitWriter`].
struct BitReader<'a> {
    words: &'a [u64],
    bit: usize,
}

impl<'a> BitReader<'a> {
    fn new(words: &'a [u64]) -> Self {
        Self { words, bit: 0 }
    }

    fn pull(&mut self, bits: u32) -> u64 {
        let word = self.bit / 64;
        let offset = (self.bit % 64) as u32;
        let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        let mut value = (self.words[word] >> offset) & mask;
        if offset + bits > 64 {
            value |= (self.words[word + 1] << (64 - offset)) & mask;
        }
        self.bit += bits as usize;
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bakery_spec::{BakeryPlusPlusSpec, BakerySpec, PetersonSpec, TreeBakerySpec};

    fn round_trips<A: Algorithm>(alg: &A, steps: usize) {
        let codec = StateCodec::new(alg);
        let mut frontier = vec![alg.initial_state()];
        let mut seen = 0usize;
        while let Some(state) = frontier.pop() {
            let code = codec.encode(&state);
            assert_eq!(codec.decode(&code), state, "{}", alg.name());
            seen += 1;
            if seen >= steps {
                break;
            }
            for pid in 0..alg.processes() {
                frontier.extend(alg.successors_vec(&state, pid));
            }
        }
        assert!(seen >= steps.min(1));
    }

    #[test]
    fn tree_states_pack_into_two_words() {
        let spec = TreeBakerySpec::new(2, 2);
        let codec = StateCodec::new(&spec);
        assert_eq!(codec.words_per_state(), 2, "the close-out memory math");
        assert_eq!(codec.bytes_per_state(), 16);
        round_trips(&spec, 500);
    }

    #[test]
    fn flat_specs_round_trip() {
        round_trips(&BakeryPlusPlusSpec::new(3, 3), 500);
        round_trips(&BakerySpec::new(2, 5), 500);
    }

    #[test]
    fn conservative_bounds_still_round_trip() {
        // Peterson has no state_bounds override: wide lanes, same exactness.
        let spec = PetersonSpec::new();
        let codec = StateCodec::new(&spec);
        assert!(codec.words_per_state() >= 2);
        round_trips(&spec, 200);
    }

    #[test]
    fn crash_flag_is_preserved() {
        let spec = BakeryPlusPlusSpec::new(2, 2);
        let codec = StateCodec::new(&spec);
        let mut state = spec.initial_state();
        state.procs[1].crashed = true;
        state.procs[1].pc = 5;
        let decoded = codec.decode(&codec.encode(&state));
        assert!(decoded.is_crashed(1));
        assert!(!decoded.is_crashed(0));
        assert_eq!(decoded.pc(1), 5);
    }

    #[test]
    fn permuted_encoding_matches_apply_then_encode() {
        let spec = TreeBakerySpec::new(2, 2);
        let codec = StateCodec::new(&spec);
        let group = spec.symmetry().expect("tree symmetry");
        assert_eq!(group.order(), 8, "wreath product S2 wr S2");
        // Walk a few states deep so registers and locals are populated.
        let mut state = spec.initial_state();
        for step in 0..40 {
            let succs = spec.successors_vec(&state, step % 4);
            if let Some(next) = succs.first() {
                state = next.clone();
            }
        }
        for perm in group.elements() {
            let via_apply = codec.encode(&perm.apply(&state));
            let direct = codec.encode_permuted(&state, Some(&perm.inverse()));
            assert_eq!(via_apply, direct);
        }
    }

    #[test]
    fn moves_remap_the_writer_mask_of_a_multi_writer_cell() {
        // Swapping Peterson's processes and their flags keeps every lane's
        // bound and ownership (`turn` is multi-writer on both sides), so the
        // codec accepts it — and `turn`'s writer mask must follow the swap.
        let spec = PetersonSpec::new().with_semantics(RegisterSemantics::Safe);
        let codec = StateCodec::new(&spec);
        let swap = StatePermutation::new(vec![1, 0], vec![1, 0, 2]);
        let inverse = swap.inverse();
        let mut moves = Vec::new();
        codec.permutation_moves(&swap, &mut moves);
        let mut stack = vec![spec.initial_state()];
        let mut seen = std::collections::HashSet::new();
        let (mut one_writer, mut clashes) = (0, 0);
        while let Some(state) = stack.pop() {
            let code = codec.encode(&state);
            if !seen.insert(code.clone()) {
                continue;
            }
            let mut image: Vec<u64> = vec![0; codec.words_per_state()];
            for field in &moves {
                field.apply(code.as_slice(), &mut image);
            }
            assert_eq!(
                image,
                codec.encode_permuted(&state, Some(&inverse)).as_slice()
            );
            assert_eq!(image, codec.encode(&swap.apply(&state)).as_slice());
            let turn = &state.writes[2];
            one_writer += usize::from(turn.writers.count_ones() == 1);
            clashes += usize::from(turn.clash);
            for pid in 0..2 {
                stack.extend(spec.successors_vec(&state, pid));
            }
        }
        assert!(one_writer > 0 && clashes > 0, "{one_writer} / {clashes}");
    }

    #[test]
    fn codes_compare_and_hash_by_content() {
        use std::collections::HashSet;
        let a = StateCode::from_words(&[1, 2]);
        let b = StateCode::from_words(&[1, 2]);
        let c = StateCode::from_words(&[1, 3]);
        let heap = StateCode::from_words(&[1, 2, 3, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(matches!(heap, StateCode::Heap(_)));
        assert!(matches!(a, StateCode::Inline { .. }));
        let set: HashSet<StateCode> = [a, b, c, heap].into_iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn fingerprint_is_deterministic_and_content_sensitive() {
        let a = StateCode::from_words(&[7, 8]);
        assert_eq!(a.fingerprint(), StateCode::from_words(&[7, 8]).fingerprint());
        assert_ne!(a.fingerprint(), StateCode::from_words(&[8, 7]).fingerprint());
    }

    #[test]
    #[should_panic(expected = "above its encoding bound")]
    fn out_of_bound_register_is_rejected() {
        let spec = BakeryPlusPlusSpec::new(2, 2);
        let codec = StateCodec::new(&spec);
        let mut state = spec.initial_state();
        state.set_shared(2, 9); // number[0] lane bound is M + 1 = 3
        let _ = codec.encode(&state);
    }

    #[test]
    fn a_state_at_every_capacity_limit_round_trips() {
        use bakery_sim::state::{MAX_LOCALS, MAX_PROCESSES, MAX_REGISTERS};
        // Six processes fill the process capacity and their 2 · 6 registers
        // the register capacity; under Safe every register also carries a
        // pending-write cell, and every process both Bakery locals.
        let spec =
            BakeryPlusPlusSpec::new(MAX_PROCESSES, 3).with_semantics(RegisterSemantics::Safe);
        let codec = StateCodec::new(&spec);
        let mut state = spec.initial_state();
        assert_eq!(state.shared.len(), MAX_REGISTERS);
        assert_eq!(state.writes.len(), MAX_REGISTERS);
        assert_eq!(state.procs.len(), MAX_PROCESSES);
        assert!(state.procs.iter().all(|p| p.locals.len() == MAX_LOCALS));
        for pid in 0..MAX_PROCESSES {
            state.set_pc(pid, pid as u32 + 1);
            state.set_local(pid, 0, pid as u64);
            state.set_local(pid, 1, 3);
            state.procs[pid].crashed = pid % 2 == 1;
        }
        for (idx, register) in spec.registers().iter().enumerate() {
            state.set_shared(idx, register.bound);
            let owner = register.owner.expect("bakery registers are owned");
            state.begin_write(idx, register.bound + 1, owner);
        }
        assert_eq!(codec.decode(&codec.encode(&state)), state);
        let json = bakery_json::to_string(&state).unwrap();
        let back: ProgState = bakery_json::from_str(&json).unwrap();
        assert_eq!(back, state);
        assert_eq!(back.render(&spec.registers()), state.render(&spec.registers()));
    }

    #[test]
    fn display_renders_hex() {
        let code = StateCode::from_words(&[0xAB]);
        assert_eq!(code.to_string(), "0x00000000000000ab");
    }
}

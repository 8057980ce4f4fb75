//! Bounded single-writer multi-reader registers.
//!
//! The paper's Section 3 defines an *overflow* as the attempt to store a value
//! `v > M` in a register of a machine whose registers can hold at most `M`.
//! [`RegisterFile`] makes that machine limit explicit: every `number` store
//! goes through a bound check, and what happens on overflow is decided by an
//! [`OverflowPolicy`].  The classic Bakery lock uses the policy to *emulate*
//! what a real machine would do (wrap), which is exactly how the
//! Section 3 failure scenario is reproduced; Bakery++ never triggers the
//! policy at all, which experiment **E1/E2** verify.
//!
//! [`RegisterFile`] groups the `choosing[1..N]` and `number[1..N]` arrays and
//! enforces the paper's single-writer discipline: writes require the process
//! id and only touch that process's own bit or lane.  The type is deliberately
//! the only way the lock implementations can reach the shared memory, so "no
//! process writes into another process's memory" holds by construction.  The
//! registers themselves live in one [`PackedSnapshot`] (see
//! [`crate::snapshot`]): each write lands once, in its owner's bit or lane.

use std::fmt;

use crate::snapshot::{PackedSnapshot, ScanMode};
use crate::stats::LockStats;

/// What a bounded register does when asked to store a value above its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OverflowPolicy {
    /// Store `value mod (M + 1)` — what fixed-width machine arithmetic does.
    ///
    /// This is the behaviour that breaks the classic Bakery algorithm: a
    /// wrapped ticket is *smaller* than the tickets of processes already
    /// waiting, so the wrapping process overtakes them and mutual exclusion
    /// is violated (experiment **E1**).
    #[default]
    Wrap,
    /// Panic immediately.  Useful in tests that assert overflow freedom.
    Panic,
}

impl OverflowPolicy {
    /// Applies the policy to an out-of-range value, returning what is stored.
    ///
    /// Panics if the policy is [`OverflowPolicy::Panic`].
    #[must_use]
    pub fn resolve(self, value: u64, bound: u64) -> u64 {
        debug_assert!(value > bound);
        match self {
            OverflowPolicy::Wrap => {
                if bound == u64::MAX {
                    value
                } else {
                    value % (bound + 1)
                }
            }
            OverflowPolicy::Panic => panic!(
                "register overflow: attempted to store {value} in a register bounded by {bound}"
            ),
        }
    }
}

impl fmt::Display for OverflowPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OverflowPolicy::Wrap => "wrap",
            OverflowPolicy::Panic => "panic",
        };
        f.write_str(name)
    }
}

/// A record of one overflow attempt on a bounded register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverflowEvent {
    /// Index of the register within its register file (the owning pid).
    pub register: usize,
    /// The value the algorithm attempted to store.
    pub attempted: u64,
    /// The register bound `M`.
    pub bound: u64,
    /// The value actually stored after applying the policy.
    pub stored: u64,
}

impl fmt::Display for OverflowEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "overflow on register {}: attempted {} > M={} (stored {})",
            self.register, self.attempted, self.bound, self.stored
        )
    }
}

/// The shared memory of one lock instance: `choosing[0..n]` and `number[0..n]`.
///
/// All cells start at 0 as the paper requires.  Writes take the writing
/// process's id and are only applied to that process's own bit or lane;
/// reads may target any register.
#[derive(Debug)]
pub struct RegisterFile {
    packed: PackedSnapshot,
    bound: u64,
    policy: OverflowPolicy,
}

impl RegisterFile {
    /// Creates a register file for `n` processes with ticket bound `M` and the
    /// given overflow policy for the `number` registers.
    ///
    /// The `choosing` registers are boolean-valued (one bit each), so they
    /// can never overflow regardless of policy.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize, bound: u64, policy: OverflowPolicy) -> Self {
        assert!(n > 0, "a lock needs at least one process slot");
        Self {
            packed: PackedSnapshot::new(n, bound),
            bound,
            policy,
        }
    }

    /// [`RegisterFile::new`] under the signature the repository benchmark
    /// (`perfbench/`) is built against; nothing else calls it.
    #[must_use]
    pub fn with_mode(n: usize, bound: u64, policy: OverflowPolicy, _mode: ScanMode) -> Self {
        Self::new(n, bound, policy)
    }

    /// The packed plane holding the registers.
    #[must_use]
    pub fn packed(&self) -> &PackedSnapshot {
        &self.packed
    }

    /// Number of process slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// True when the file has no slots (never the case for a constructed file).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// The ticket bound `M`.
    #[must_use]
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// Reads `choosing[j]`.
    #[must_use]
    pub fn read_choosing(&self, j: usize) -> bool {
        self.packed.choosing(j)
    }

    /// Reads `number[j]`.
    #[must_use]
    pub fn read_number(&self, j: usize) -> u64 {
        self.packed.number(j)
    }

    /// Writes `choosing[pid]`; only the owning process may call this.
    pub fn write_choosing(&self, pid: usize, value: bool) {
        self.packed.set_choosing(pid, value);
    }

    /// Writes `number[pid]`, recording any overflow in `stats` and returning
    /// the event if one occurred.  The policy resolves *before* the lane
    /// write, so a lane is never asked to hold more than the bound.
    pub fn write_number(
        &self,
        pid: usize,
        value: u64,
        stats: &LockStats,
    ) -> Option<OverflowEvent> {
        if value <= self.bound {
            self.packed.set_number(pid, value);
            return None;
        }
        let stored = self.policy.resolve(value, self.bound);
        self.packed.set_number(pid, stored);
        stats.record_overflow(value);
        Some(OverflowEvent {
            register: pid,
            attempted: value,
            bound: self.bound,
            stored,
        })
    }

    /// Resets both of `pid`'s registers to 0 (crash/restart, assumption 1.5).
    pub fn reset_process(&self, pid: usize) {
        self.packed.set_number(pid, 0);
        self.packed.set_choosing(pid, false);
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn policy_wrap_matches_machine_arithmetic() {
        assert_eq!(OverflowPolicy::Wrap.resolve(256, 255), 0);
        assert_eq!(OverflowPolicy::Wrap.resolve(257, 255), 1);
        assert_eq!(OverflowPolicy::Wrap.resolve(300, 255), 44);
    }

    #[test]
    #[should_panic(expected = "register overflow")]
    fn policy_panic_panics() {
        let _ = OverflowPolicy::Panic.resolve(256, 255);
    }

    #[test]
    fn policy_display_names() {
        assert_eq!(OverflowPolicy::Wrap.to_string(), "wrap");
        assert_eq!(OverflowPolicy::Panic.to_string(), "panic");
    }

    #[test]
    fn in_range_write_returns_no_event() {
        let file = RegisterFile::new(2, 255, OverflowPolicy::Wrap);
        let stats = LockStats::new();
        assert!(file.write_number(1, 255, &stats).is_none());
        assert_eq!(file.read_number(1), 255);
    }

    #[test]
    fn out_of_range_write_reports_event() {
        let file = RegisterFile::new(4, 255, OverflowPolicy::Wrap);
        let stats = LockStats::new();
        let ev = file.write_number(3, 256, &stats).expect("overflow event");
        assert_eq!(ev.register, 3);
        assert_eq!(ev.attempted, 256);
        assert_eq!(ev.bound, 255);
        assert_eq!(ev.stored, 0);
        assert_eq!(file.read_number(3), 0);
        assert!(ev.to_string().contains("overflow on register 3"));
    }

    #[test]
    fn register_file_initial_state_is_all_zero() {
        let file = RegisterFile::new(4, 255, OverflowPolicy::Wrap);
        assert_eq!(file.len(), 4);
        assert!(!file.is_empty());
        assert_eq!(file.bound(), 255);
        assert_eq!(file.packed().decode_numbers(), vec![0, 0, 0, 0]);
        assert_eq!(file.packed().decode_choosing(), vec![false; 4]);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn register_file_rejects_zero_processes() {
        let _ = RegisterFile::new(0, 255, OverflowPolicy::Wrap);
    }

    #[test]
    fn write_number_records_overflow_in_stats() {
        let file = RegisterFile::new(2, 3, OverflowPolicy::Wrap);
        let stats = LockStats::new();
        assert!(file.write_number(0, 3, &stats).is_none());
        assert_eq!(stats.overflow_attempts(), 0);
        let ev = file.write_number(0, 4, &stats).expect("overflow");
        assert_eq!(ev.stored, 0);
        assert_eq!(stats.overflow_attempts(), 1);
    }

    #[test]
    fn writes_land_in_the_owners_bit_and_lane() {
        let file = RegisterFile::new(3, 255, OverflowPolicy::Wrap);
        let stats = LockStats::new();
        file.write_number(2, 77, &stats);
        file.write_choosing(0, true);
        let packed = file.packed();
        assert_eq!(packed.decode_numbers(), vec![0, 0, 77]);
        assert_eq!(packed.decode_choosing(), vec![true, false, false]);
        file.reset_process(2);
        assert_eq!(packed.number(2), 0);
    }

    #[test]
    fn lane_receives_post_policy_value_on_overflow() {
        let file = RegisterFile::new(2, 3, OverflowPolicy::Wrap);
        let stats = LockStats::new();
        let ev = file.write_number(0, 5, &stats).expect("overflow");
        assert_eq!(ev.stored, 1); // 5 mod 4
        assert_eq!(file.read_number(0), 1);
    }

    /// True interleaving: one writer thread per process slot hammering its own
    /// registers concurrently (the SWMR discipline), then a quiescent check
    /// that every lane and bit holds its owner's last write.
    #[test]
    fn lanes_hold_each_owners_last_write_after_concurrent_traffic() {
        use std::sync::Arc;
        // 40 slots picks u8/u16/u64 lanes for the three bounds; the twelve
        // writer threads below share packed words in the narrow-lane cases.
        for bound in [200u64, 60_000, u64::MAX] {
            let file = Arc::new(RegisterFile::new(40, bound, OverflowPolicy::Wrap));
            let stats = Arc::new(LockStats::new());
            let last: Vec<(u64, bool)> = std::thread::scope(|scope| {
                let writers: Vec<_> = (0..12)
                    .map(|pid| {
                        let file = Arc::clone(&file);
                        let stats = Arc::clone(&stats);
                        scope.spawn(move || {
                            let mut value = pid as u64;
                            let mut last = (0, false);
                            for round in 0..2_000u64 {
                                value = value.wrapping_mul(6364136223846793005).wrapping_add(round);
                                let number = value % (bound / 2 + 1);
                                assert!(file.write_number(pid, number, &stats).is_none());
                                file.write_choosing(pid, round % 3 == 0);
                                last = (number, round % 3 == 0);
                                if round % 97 == 0 {
                                    file.reset_process(pid);
                                    last = (0, false);
                                }
                            }
                            last
                        })
                    })
                    .collect();
                writers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            for pid in 0..40 {
                let (number, choosing) = last.get(pid).copied().unwrap_or((0, false));
                assert_eq!(file.read_number(pid), number, "bound {bound} pid {pid}");
                assert_eq!(file.read_choosing(pid), choosing, "bound {bound} pid {pid}");
            }
        }
    }

    #[test]
    fn reset_process_clears_both_registers() {
        let file = RegisterFile::new(2, 255, OverflowPolicy::Wrap);
        let stats = LockStats::new();
        file.write_choosing(1, true);
        file.write_number(1, 9, &stats);
        file.reset_process(1);
        assert_eq!(file.read_number(1), 0);
        assert!(!file.read_choosing(1));
        // process 0 untouched
        file.write_number(0, 5, &stats);
        file.reset_process(1);
        assert_eq!(file.read_number(0), 5);
    }

    proptest! {
        /// Under the (non-panicking) wrap policy the stored value never
        /// exceeds the bound: the register is genuinely bounded hardware.
        #[test]
        fn stored_value_never_exceeds_bound(
            bound in 1u64..1000,
            value in 0u64..100_000,
        ) {
            let file = RegisterFile::new(1, bound, OverflowPolicy::Wrap);
            let _ = file.write_number(0, value, &LockStats::new());
            prop_assert!(file.read_number(0) <= bound);
        }

        /// Wrap really is modulo arithmetic, i.e. what an (M+1)-state machine
        /// register would hold.
        #[test]
        fn wrap_is_modulo(bound in 1u64..1_000, value in 0u64..1_000_000) {
            let file = RegisterFile::new(1, bound, OverflowPolicy::Wrap);
            let _ = file.write_number(0, value, &LockStats::new());
            prop_assert_eq!(file.read_number(0), value % (bound + 1));
        }

        /// After an arbitrary interleaved sequence of register writes, every
        /// lane and bit decodes to its owner's last write (an oracle kept
        /// beside the file) — for every lane width (u8, u16 and u64 lanes;
        /// with 40 slots the adaptive rule picks exactly the width matching
        /// each bound).
        #[test]
        fn lanes_decode_to_each_owners_last_write(
            ops in proptest::collection::vec((0usize..40, 0u64..200_000, 0usize..4), 1..160),
            width_idx in 0usize..3,
        ) {
            use crate::snapshot::LaneWidth;
            let (bound, expected_width) = [
                (200u64, LaneWidth::U8),
                (60_000, LaneWidth::U16),
                (u64::MAX, LaneWidth::U64),
            ][width_idx];
            let file = RegisterFile::new(40, bound, OverflowPolicy::Wrap);
            let stats = LockStats::new();
            let mut numbers = vec![0u64; 40];
            let mut choosing = vec![false; 40];
            for &(pid, value, kind) in &ops {
                match kind {
                    0 | 1 => {
                        let _ = file.write_number(pid, value, &stats);
                        numbers[pid] =
                            if value <= bound { value } else { OverflowPolicy::Wrap.resolve(value, bound) };
                    }
                    2 => {
                        file.write_choosing(pid, value % 2 == 0);
                        choosing[pid] = value % 2 == 0;
                    }
                    _ => {
                        file.reset_process(pid);
                        numbers[pid] = 0;
                        choosing[pid] = false;
                    }
                }
            }
            prop_assert_eq!(file.packed().width(), expected_width);
            prop_assert_eq!(file.packed().decode_numbers(), numbers);
            prop_assert_eq!(file.packed().decode_choosing(), choosing);
        }

        /// Lane-boundary clamp: `LaneWidth::for_bound` admits the exact lane
        /// maxima (`u8::MAX`, `u16::MAX`), yet the classic doorway transiently
        /// publishes `max + 1` — one more than the widest value the lane can
        /// hold.  The overflow policy must resolve *before* the lane write,
        /// so the lane only ever receives the post-policy value and
        /// neighbouring lanes in the same word keep their owners' writes.
        #[test]
        fn policy_resolves_before_the_lane_write_on_exact_boundary_bounds(
            bound_idx in 0usize..5,
            pid in 0usize..40,
            overshoot in 1u64..4,
        ) {
            let bound = [254u64, 255, 256, 65_535, 65_536][bound_idx];
            let policy = OverflowPolicy::Wrap;
            // 40 slots force narrow lanes at the u8/u16 boundaries, so the
            // doorway's transient `bound + overshoot` would corrupt the
            // neighbouring lanes of the shared word if it ever reached the
            // plane un-clamped.
            let file = RegisterFile::new(40, bound, policy);
            let stats = LockStats::new();
            // Give the neighbours known in-range tickets first.
            let mut numbers: Vec<u64> = (0..40).map(|j| (j as u64) % bound + 1).collect();
            numbers[pid] = 0;
            for (j, &number) in numbers.iter().enumerate() {
                if j != pid {
                    prop_assert!(file.write_number(j, number, &stats).is_none());
                }
            }
            let attempted = bound + overshoot;
            let event = file.write_number(pid, attempted, &stats).expect("overflow event");
            prop_assert_eq!(event.attempted, attempted);
            numbers[pid] = policy.resolve(attempted, bound);
            prop_assert_eq!(event.stored, numbers[pid]);
            prop_assert!(file.read_number(pid) <= bound, "lane must stay within M");
            // Every lane decodes to its owner's last write.
            prop_assert_eq!(file.packed().decode_numbers(), numbers);
            prop_assert_eq!(stats.overflow_attempts(), 1);
        }

        /// The single-writer file only changes the targeted process's cells.
        #[test]
        fn writes_are_confined_to_owner(
            n in 2usize..8,
            writer in 0usize..8,
            value in 0u64..100,
        ) {
            let writer = writer % n;
            let file = RegisterFile::new(n, 255, OverflowPolicy::Wrap);
            let stats = LockStats::new();
            file.write_number(writer, value, &stats);
            file.write_choosing(writer, true);
            for j in 0..n {
                if j != writer {
                    prop_assert_eq!(file.read_number(j), 0);
                    prop_assert!(!file.read_choosing(j));
                }
            }
            prop_assert_eq!(file.read_number(writer), value);
        }
    }
}

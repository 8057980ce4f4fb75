//! Schedulers: who moves next.
//!
//! The paper's system model makes no assumption about relative process speeds
//! (correctness condition 5), so any schedule must preserve the algorithm's
//! properties.  The simulator samples schedules; the model checker enumerates
//! all of them.  Four samplers are provided:
//!
//! * [`RoundRobinScheduler`] — the friendliest schedule, every process moves
//!   in turn;
//! * [`RandomScheduler`] — uniformly random enabled process, seeded and
//!   reproducible;
//! * [`AdversarialScheduler`] — picks each "fast" process `slowdown` times
//!   as often as each remaining "slow" one, reproducing the slow-reader
//!   scenario of the paper's Section 6.3;
//! * [`ReplayScheduler`] — replays a previously recorded choice sequence
//!   exactly (used by trace replay and the refinement experiment).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Picks which process takes the next step.
pub trait Scheduler {
    /// Chooses one of `enabled` (guaranteed non-empty, sorted ascending).
    /// `step` is the number of steps taken so far.
    fn pick(&mut self, enabled: &[usize], step: u64) -> usize;

    /// Chooses among `count` nondeterministic successors of the chosen
    /// process (defaults to the first).
    fn pick_branch(&mut self, count: usize, _step: u64) -> usize {
        debug_assert!(count > 0);
        0
    }
}

/// Cycles through processes in index order, skipping disabled ones.
#[derive(Debug, Default)]
pub struct RoundRobinScheduler {
    next: usize,
}

impl RoundRobinScheduler {
    /// Creates a round-robin scheduler starting at process 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RoundRobinScheduler {
    fn pick(&mut self, enabled: &[usize], _step: u64) -> usize {
        // Pick the first enabled pid >= self.next, wrapping around.
        let chosen = enabled
            .iter()
            .copied()
            .find(|&pid| pid >= self.next)
            .unwrap_or(enabled[0]);
        self.next = chosen + 1;
        chosen
    }
}

/// Uniformly random choice with a fixed seed.
#[derive(Debug)]
pub struct RandomScheduler {
    rng: StdRng,
}

impl RandomScheduler {
    /// Creates a random scheduler from a seed (same seed ⇒ same schedule).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, enabled: &[usize], _step: u64) -> usize {
        enabled[self.rng.gen_range(0..enabled.len())]
    }

    fn pick_branch(&mut self, count: usize, _step: u64) -> usize {
        self.rng.gen_range(0..count)
    }
}

/// Prefers the `fast` processes: each enabled fast process is `slowdown`
/// times as likely to be picked as each enabled slow one (a process outside
/// that set).  At `slowdown` 1 every enabled process is equally likely, and
/// a slow process is picked whenever no fast one is enabled.  This
/// reproduces the paper's §6.3 scenario of "an extremely slow process
/// against two processes that are quite fast".
#[derive(Debug)]
pub struct AdversarialScheduler {
    fast: Vec<usize>,
    slowdown: u32,
    rng: StdRng,
}

impl AdversarialScheduler {
    /// Creates an adversarial scheduler favouring `fast` processes by a
    /// factor of `slowdown` per process.
    #[must_use]
    pub fn new(fast: Vec<usize>, slowdown: u32, seed: u64) -> Self {
        assert!(slowdown > 0, "slowdown must be positive");
        Self {
            fast,
            slowdown,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for AdversarialScheduler {
    fn pick(&mut self, enabled: &[usize], _step: u64) -> usize {
        // A weighted draw: weight `slowdown` per fast process, 1 per slow one.
        let weight = |pid: usize| {
            if self.fast.contains(&pid) {
                u64::from(self.slowdown)
            } else {
                1
            }
        };
        let total: u64 = enabled.iter().map(|&pid| weight(pid)).sum();
        let mut draw = self.rng.gen_range(0..total);
        for &pid in enabled {
            if draw < weight(pid) {
                return pid;
            }
            draw -= weight(pid);
        }
        unreachable!("the draw is below the total weight")
    }

    fn pick_branch(&mut self, count: usize, _step: u64) -> usize {
        self.rng.gen_range(0..count)
    }
}

/// Replays an explicit `(pid, branch)` choice sequence.
///
/// Once the recorded choices are exhausted (or a recorded pid is not enabled,
/// which means the run being replayed has diverged) it falls back to the first
/// enabled process.
#[derive(Debug)]
pub struct ReplayScheduler {
    choices: Vec<(usize, usize)>,
    cursor: usize,
    diverged: bool,
}

impl ReplayScheduler {
    /// Creates a replay scheduler from a recorded `(pid, branch)` sequence.
    #[must_use]
    pub fn new(choices: Vec<(usize, usize)>) -> Self {
        Self {
            choices,
            cursor: 0,
            diverged: false,
        }
    }

    /// True when the replay ran past its recording or hit a disabled pid.
    #[must_use]
    pub fn diverged(&self) -> bool {
        self.diverged
    }
}

impl Scheduler for ReplayScheduler {
    fn pick(&mut self, enabled: &[usize], _step: u64) -> usize {
        if let Some(&(pid, _)) = self.choices.get(self.cursor) {
            if enabled.contains(&pid) {
                return pid;
            }
            self.diverged = true;
        } else {
            self.diverged = true;
        }
        enabled[0]
    }

    fn pick_branch(&mut self, count: usize, _step: u64) -> usize {
        let branch = self
            .choices
            .get(self.cursor)
            .map_or(0, |&(_, branch)| branch);
        self.cursor += 1;
        if branch < count {
            branch
        } else {
            self.diverged = true;
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_through_processes() {
        let mut s = RoundRobinScheduler::new();
        let enabled = vec![0, 1, 2];
        let picks: Vec<usize> = (0..6).map(|i| s.pick(&enabled, i)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_disabled() {
        let mut s = RoundRobinScheduler::new();
        assert_eq!(s.pick(&[0, 2], 0), 0);
        assert_eq!(s.pick(&[0, 2], 1), 2);
        assert_eq!(s.pick(&[1], 2), 1);
    }

    #[test]
    fn random_scheduler_is_reproducible() {
        let enabled = vec![0, 1, 2, 3];
        let seq_a: Vec<usize> = {
            let mut s = RandomScheduler::new(7);
            (0..32).map(|i| s.pick(&enabled, i)).collect()
        };
        let seq_b: Vec<usize> = {
            let mut s = RandomScheduler::new(7);
            (0..32).map(|i| s.pick(&enabled, i)).collect()
        };
        assert_eq!(seq_a, seq_b);
        let seq_c: Vec<usize> = {
            let mut s = RandomScheduler::new(8);
            (0..32).map(|i| s.pick(&enabled, i)).collect()
        };
        assert_ne!(seq_a, seq_c, "different seeds give different schedules");
    }

    #[test]
    fn random_scheduler_only_picks_enabled() {
        let mut s = RandomScheduler::new(99);
        for i in 0..100 {
            let pick = s.pick(&[1, 3], i);
            assert!(pick == 1 || pick == 3);
        }
    }

    #[test]
    fn adversarial_scheduler_starves_the_slow_process() {
        let mut s = AdversarialScheduler::new(vec![0, 1], 1000, 42);
        let enabled = vec![0, 1, 2];
        let slow_turns = (0..1000).filter(|&i| s.pick(&enabled, i) == 2).count();
        assert!(
            slow_turns < 50,
            "slow process moved {slow_turns} times out of 1000"
        );
    }

    #[test]
    fn adversarial_scheduler_at_slowdown_one_is_uniform() {
        let mut s = AdversarialScheduler::new(vec![0, 1], 1, 42);
        let enabled = vec![0, 1, 2];
        let mut picks = [0usize; 3];
        for i in 0..3_000 {
            picks[s.pick(&enabled, i)] += 1;
        }
        for (pid, &count) in picks.iter().enumerate() {
            assert!(
                (800..=1_200).contains(&count),
                "pid {pid} picked {count} times out of 3000: {picks:?}"
            );
        }
    }

    #[test]
    fn adversarial_scheduler_falls_back_to_slow_when_fast_blocked() {
        let mut s = AdversarialScheduler::new(vec![0], 10, 1);
        assert_eq!(s.pick(&[2], 0), 2);
    }

    #[test]
    #[should_panic(expected = "slowdown must be positive")]
    fn adversarial_rejects_zero_slowdown() {
        let _ = AdversarialScheduler::new(vec![0], 0, 1);
    }

    #[test]
    fn replay_scheduler_follows_recording_then_flags_divergence() {
        let mut s = ReplayScheduler::new(vec![(1, 0), (0, 1)]);
        assert_eq!(s.pick(&[0, 1], 0), 1);
        assert_eq!(s.pick_branch(1, 0), 0);
        assert_eq!(s.pick(&[0, 1], 1), 0);
        assert_eq!(s.pick_branch(2, 1), 1);
        assert!(!s.diverged());
        // Recording exhausted: falls back and reports divergence.
        assert_eq!(s.pick(&[0], 2), 0);
        s.pick_branch(1, 2);
        assert!(s.diverged());
    }

    #[test]
    fn replay_scheduler_detects_disabled_pid() {
        let mut s = ReplayScheduler::new(vec![(3, 0)]);
        assert_eq!(s.pick(&[0, 1], 0), 0, "falls back to first enabled");
        assert!(s.diverged());
    }
}

//! Per-run metrics reported by the simulator.

/// A named invariant violation found during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The invariant that failed.
    pub invariant: String,
    /// The step at which it first failed.
    pub step: u64,
    /// Rendering of the offending state.
    pub state: String,
}

/// Summary of one simulator run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// The algorithm that was run.
    pub algorithm: String,
    /// Steps actually executed (may be less than requested on deadlock or
    /// first violation).
    pub steps: u64,
    /// Critical-section entries per process.
    pub cs_entries: Vec<u64>,
    /// Steps on which each process was blocked when it was scheduled (the
    /// scheduler had to pick someone else).
    pub blocked_picks: Vec<u64>,
    /// Invariant violations discovered.
    pub violations: Vec<Violation>,
    /// True when a state with no enabled process was reached.
    pub deadlocked: bool,
    /// Largest value ever observed in any shared register.
    pub max_register_value: u64,
    /// Number of Bakery++-style overflow-avoidance resets observed.
    pub overflow_avoidance_resets: u64,
    /// Number of register-overflow attempts observed.
    pub overflow_attempts: u64,
}

bakery_json::json_object!(Violation { invariant, step, state });
bakery_json::json_object!(RunReport {
    algorithm,
    steps,
    cs_entries,
    blocked_picks,
    violations,
    deadlocked,
    max_register_value,
    overflow_avoidance_resets,
    overflow_attempts,
});

impl RunReport {
    /// Creates an empty report for an algorithm with `processes` processes.
    #[must_use]
    pub fn new(algorithm: impl Into<String>, processes: usize) -> Self {
        Self {
            algorithm: algorithm.into(),
            steps: 0,
            cs_entries: vec![0; processes],
            blocked_picks: vec![0; processes],
            violations: Vec::new(),
            deadlocked: false,
            max_register_value: 0,
            overflow_avoidance_resets: 0,
            overflow_attempts: 0,
        }
    }

    /// Total critical-section entries across all processes.
    #[must_use]
    pub fn total_cs_entries(&self) -> u64 {
        self.cs_entries.iter().sum()
    }

    /// True when no invariant was violated and no deadlock occurred.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && !self.deadlocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_report_is_clean_and_zeroed() {
        let r = RunReport::new("bakery", 3);
        assert!(r.is_clean());
        assert_eq!(r.total_cs_entries(), 0);
        assert_eq!(r.cs_entries.len(), 3);
    }

    #[test]
    fn totals_sum_the_per_process_entries() {
        let mut r = RunReport::new("x", 3);
        r.cs_entries = vec![5, 9, 2];
        assert_eq!(r.total_cs_entries(), 16);
    }

    #[test]
    fn violations_make_report_dirty() {
        let mut r = RunReport::new("x", 1);
        assert!(r.is_clean());
        r.violations.push(Violation {
            invariant: "MutualExclusion".into(),
            step: 10,
            state: "[..]".into(),
        });
        assert!(!r.is_clean());
        let mut r2 = RunReport::new("y", 1);
        r2.deadlocked = true;
        assert!(!r2.is_clean());
    }

    #[test]
    fn report_serializes() {
        let r = RunReport::new("bakery++", 2);
        let json = bakery_json::to_string(&r).unwrap();
        let back: RunReport = bakery_json::from_str(&json).unwrap();
        assert_eq!(back.algorithm, "bakery++");
        assert_eq!(back.cs_entries.len(), 2);
    }
}

//! One module per experiment.  Each exposes a `run(quick: bool)`
//! function returning the [`crate::report::Table`]s that regenerate the
//! corresponding claim of the paper; `quick` shrinks iteration counts so the
//! full suite stays CI-friendly.

pub mod e10_tree_scale;
pub mod e11_lock_service;
pub mod e12_kill_recover;
pub mod e13_async_echo;
pub mod e1_overflow;
pub mod e2_model_check;
pub mod e3_safety;
pub mod e4_refinement;
pub mod e5_liveness;
pub mod e6_complexity;
pub mod e7_throughput;
pub mod e8_fairness;
pub mod e9_overflow_time;

use crate::report::{Record, Report, Table};
use crate::workload::WorkloadResult;

/// Median of `values` (the upper middle for an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Throughput gain of `runs` over the `baseline` runs they were paired with
/// repetition by repetition, in percent: the median of the per-repetition
/// ratios, which cancels drift between repetitions that an unpaired
/// comparison of medians or best-of-k would keep.
fn paired_gain_pct(runs: &[WorkloadResult], baseline: &[WorkloadResult]) -> f64 {
    let ratios = runs
        .iter()
        .zip(baseline)
        .map(|(run, base)| run.throughput() / base.throughput());
    (median(ratios.collect()) - 1.0) * 100.0
}

/// An experiment's runner: `quick` in, tables out.
type Runner = fn(bool) -> Vec<Table>;

/// The experiment registry, in id order: row `i` is experiment `E{i + 1}`,
/// its one-line description and its runner.  Adding an experiment is one
/// row here (plus a named id constant below).
#[rustfmt::skip]
const EXPERIMENTS: [(&str, Runner); 13] = [
    ("E1 §3: ticket growth and register overflow under alternation", e1_overflow::run),
    ("E2 §6.1: exhaustive model checking of NoOverflow / MutualExclusion", e2_model_check::run),
    ("E3 §6.2: safety under crash faults and safe-register reads", e3_safety::run),
    ("E4 §6.2: Bakery++ traces are observably valid Bakery executions", e4_refinement::run),
    ("E5 §6.3: L1 starvation scenario (liveness)", e5_liveness::run),
    ("E6 §7: spatial and temporal complexity", e6_complexity::run),
    ("E7 §7: real-thread throughput and latency", e7_throughput::run),
    ("E8 §1.2/§8.2: first-come-first-served fairness", e8_fairness::run),
    ("E9 §4: time to overflow per register width", e9_overflow_time::run),
    ("E10 beyond the paper: flat Bakery++ vs the tree composite at large N", e10_tree_scale::run),
    ("E11 beyond the paper: session churn through the lock service plane", e11_lock_service::run),
    ("E12 beyond the paper: kill-and-recover — crash injection over the live lock stack", e12_kill_recover::run),
    ("E13 beyond the paper: async echo service — wait-strategy sweep over the session plane", e13_async_echo::run),
];

/// Identifier of one experiment: its row in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExperimentId(usize);

/// Every id, derived from the registry's length.
const ALL: [ExperimentId; EXPERIMENTS.len()] = {
    let mut ids = [ExperimentId(0); EXPERIMENTS.len()];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = ExperimentId(i);
        i += 1;
    }
    ids
};

#[allow(missing_docs)]
impl ExperimentId {
    pub const E1: Self = Self(0);
    pub const E2: Self = Self(1);
    pub const E3: Self = Self(2);
    pub const E4: Self = Self(3);
    pub const E5: Self = Self(4);
    pub const E6: Self = Self(5);
    pub const E7: Self = Self(6);
    pub const E8: Self = Self(7);
    pub const E9: Self = Self(8);
    pub const E10: Self = Self(9);
    pub const E11: Self = Self(10);
    pub const E12: Self = Self(11);
    pub const E13: Self = Self(12);
}

impl ExperimentId {
    /// All experiments in order.
    #[must_use]
    pub fn all() -> &'static [ExperimentId] {
        &ALL
    }

    /// Parses an experiment id such as `"e4"` / `"E4"` / `"4"`.
    #[must_use]
    pub fn parse(text: &str) -> Option<ExperimentId> {
        let number = text.trim().to_ascii_lowercase();
        let number = number.trim_start_matches('e');
        Self::all()
            .iter()
            .copied()
            .find(|id| (id.0 + 1).to_string() == number)
    }

    /// One-line description shown by the runner.
    #[must_use]
    pub fn description(&self) -> &'static str {
        EXPERIMENTS[self.0].0
    }

    /// Runs the experiment and returns its tables.
    #[must_use]
    pub fn run(&self, quick: bool) -> Vec<Table> {
        (EXPERIMENTS[self.0].1)(quick)
    }

    /// Runs the experiment and wraps its tables in the record its
    /// `BENCH_<id>.json` carries.
    #[must_use]
    pub fn record(&self, quick: bool) -> Record {
        Record {
            experiment: self.to_string(),
            description: self.description().to_string(),
            quick,
            cpus: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            tables: self.run(quick),
        }
    }
}

impl std::fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "E{}", self.0 + 1)
    }
}

/// Runs the selected experiments in order and collects one record each; the
/// runner prints the report and, with `--out-dir`, writes it with
/// [`Report::write_dir`].
#[must_use]
pub fn run_experiments(ids: &[ExperimentId], quick: bool) -> Report {
    Report {
        records: ids.iter().map(|id| id.record(quick)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_common_spellings() {
        assert_eq!(ExperimentId::parse("e4"), Some(ExperimentId::E4));
        assert_eq!(ExperimentId::parse("E9"), Some(ExperimentId::E9));
        assert_eq!(ExperimentId::parse("2"), Some(ExperimentId::E2));
        assert_eq!(ExperimentId::parse("e42"), None);
        assert_eq!(ExperimentId::parse("bogus"), None);
    }

    #[test]
    fn all_experiments_have_descriptions_and_display() {
        for (i, id) in ExperimentId::all().iter().enumerate() {
            assert!(id.description().starts_with(&format!("E{}", i + 1)));
            assert_eq!(id.to_string(), format!("E{}", i + 1));
        }
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bakery-experiments-{tag}-{}", std::process::id()))
    }

    #[test]
    fn out_dir_gets_exactly_one_file_per_selected_experiment() {
        let dir = scratch_dir("out-dir");
        let report = run_experiments(&[ExperimentId::E9, ExperimentId::E1], true);
        report.write_dir(&dir).unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["BENCH_e1.json", "BENCH_e9.json"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quick_e1_parses_back_with_the_envelope_and_numeric_cells() {
        use bakery_json::Value;
        let dir = scratch_dir("e1");
        let written = run_experiments(&[ExperimentId::E1], true)
            .write_dir(&dir)
            .unwrap();
        let text = std::fs::read_to_string(&written[0]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let doc = bakery_json::parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "schema",
                "experiment",
                "description",
                "quick",
                "cpus",
                "tables"
            ]
        );
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some(crate::report::SCHEMA)
        );
        assert_eq!(doc.get("experiment").and_then(Value::as_str), Some("E1"));
        assert_eq!(doc.get("quick").and_then(Value::as_bool), Some(true));
        assert!(doc.get("cpus").and_then(Value::as_i128).unwrap() >= 1);
        let main = &doc.get("tables").and_then(Value::as_array).unwrap()[0];
        let headers = main.get("headers").and_then(Value::as_array).unwrap();
        let rows = main.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(rows.len(), 4);
        for row in rows {
            let row = row.as_array().unwrap();
            assert_eq!(row.len(), headers.len());
            // Every column but the first-overflow round (null when a bound
            // never overflows) is a count: a JSON number, never a string.
            for (i, cell) in row.iter().enumerate() {
                if i == 2 {
                    assert!(matches!(cell, Value::Int(_) | Value::Null), "{cell:?}");
                } else {
                    assert!(matches!(cell, Value::Int(_)), "column {i}: {cell:?}");
                }
            }
        }
    }
}

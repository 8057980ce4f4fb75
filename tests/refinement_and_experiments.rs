//! Cross-crate integration test: the simulator, the trace analyses and the
//! experiment harness agree with the paper's claims end to end.

use bakery_suite::harness::experiments::{self, ExperimentId};
use bakery_suite::json::{FromJson, Value};
use bakery_suite::sim::trace::refinement::{check_fcfs_by_ticket, count_fifo_inversions};
use bakery_suite::sim::{RandomScheduler, RunConfig, Simulator};
use bakery_suite::spec::{BakeryPlusPlusSpec, BakerySpec};

#[test]
fn bakery_pp_traces_satisfy_the_bakery_service_discipline() {
    let sim = Simulator::new();
    for seed in 0..5 {
        let spec = BakeryPlusPlusSpec::new(3, 3);
        let config = RunConfig::<BakeryPlusPlusSpec>::checked(5_000);
        let run = sim.run(&spec, &mut RandomScheduler::new(seed), &config);
        assert!(run.report.is_clean(), "seed {seed}: {:?}", run.report.violations);
        let verdict = check_fcfs_by_ticket(&run.trace);
        assert!(verdict.holds(), "seed {seed}: {:?}", verdict.violations);
        assert_eq!(count_fifo_inversions(&run.trace), 0, "seed {seed}");
    }
}

#[test]
fn classic_bakery_trace_overflows_with_small_bound() {
    let sim = Simulator::new();
    let spec = BakerySpec::new(2, 3);
    let mut saw_violation = false;
    for seed in 0..30 {
        let config = RunConfig::<BakerySpec>::checked(5_000);
        let run = sim.run(&spec, &mut RandomScheduler::new(seed), &config);
        if run
            .report
            .violations
            .iter()
            .any(|v| v.invariant == "NoOverflow")
        {
            saw_violation = true;
            break;
        }
    }
    assert!(saw_violation);
}

#[test]
fn e1_experiment_tables_capture_the_headline_contrast() {
    let tables = experiments::e1_overflow::run(true);
    let main = &tables[0];
    // Column 3 is the classic Bakery's overflow count; column 8 is Bakery++'s.
    // Cells are typed: every one read here is a JSON integer.
    for row in &main.rows {
        let cell = |i: usize| u64::from_json(&row[i]).unwrap();
        let m = cell(0);
        let classic_overflows = cell(3);
        let pp_overflows = cell(8);
        assert_eq!(pp_overflows, 0, "M={m}");
        if m < 2_000 {
            assert!(classic_overflows > 0, "M={m} should overflow in 2000 rounds");
        }
        let pp_max = cell(5);
        assert!(pp_max <= m);
    }
}

#[test]
fn experiment_registry_is_complete_and_parsable() {
    assert_eq!(ExperimentId::all().len(), 13);
    for id in ExperimentId::all() {
        let round_trip = ExperimentId::parse(&id.to_string()).unwrap();
        assert_eq!(round_trip, *id);
    }
}

#[test]
fn quick_report_renders_markdown_and_json() {
    // Keep this to the cheap experiments so the integration suite stays fast.
    let report = experiments::run_experiments(&[ExperimentId::E1, ExperimentId::E9], true);
    let markdown = report.to_markdown();
    assert!(markdown.contains("E1"));
    assert!(markdown.contains("E9"));
    // The runner's writer: one BENCH_<id>.json per experiment.
    let dir = std::env::temp_dir().join(format!("bakery-quick-report-{}", std::process::id()));
    let written = report.write_dir(&dir).unwrap();
    assert_eq!(written.len(), 2);
    for path in &written {
        let json = std::fs::read_to_string(path).unwrap();
        assert!(json.contains("\"tables\""));
        assert!(bakery_suite::json::parse(&json)
            .unwrap()
            .get("tables")
            .is_some_and(|t| matches!(t, Value::Array(_))));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

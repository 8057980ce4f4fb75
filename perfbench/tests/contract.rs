//! The benchmark's own test: a short run of every workload prints every
//! metric `BENCHMARK.json` names, with its unit, in both modes, and a wrong
//! pinned close-out count makes the command fail.
//!
//! The runs are serialised: the traced run checks timings against each
//! other, which a concurrently running test would disturb.

use std::process::Command;
use std::sync::Mutex;

use bakery_json::Value;

static SERIAL: Mutex<()> = Mutex::new(());

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    bakery_json::parse(&text).expect("BENCHMARK.json parses")
}

fn text(value: &Value, key: &str) -> String {
    value
        .get(key)
        .and_then(Value::as_str)
        .expect(key)
        .to_string()
}

/// `(name, unit)` of every metric in the manifest's `section`.
fn metrics(manifest: &Value, section: &str) -> Vec<(String, String)> {
    manifest
        .get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

/// Runs the benchmark; returns whether it exited 0, its last stdout line
/// and its failed `check` lines.
fn run(workload: &str, trace: u8, extra: &[&str]) -> (bool, Value, Vec<String>) {
    let trace_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("traces");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .arg("--trace-dir")
        .arg(&trace_dir)
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout
        .lines()
        .last()
        .expect("the benchmark prints a result line");
    let result = bakery_json::parse(last).expect("the last line is one JSON object");
    let failures = stdout
        .lines()
        .filter(|line| line.starts_with("check ") && line.contains(" FAIL "))
        .map(str::to_string)
        .collect();
    (output.status.success(), result, failures)
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let manifest = manifest();
    let workloads = manifest
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads");
    for workload in workloads {
        let name = text(workload, "name");
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let (ok, result, failures) = run(&name, trace, &[]);
            assert!(ok, "{name} trace={trace} exited non-zero: {failures:?}");
            let keys: Vec<&str> = result
                .as_object()
                .expect("result object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{name}"
            );
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{name}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_i128),
                Some(0),
                "{name}"
            );
            assert!(
                result.get("attempted").and_then(Value::as_i128) >= Some(1),
                "{name}"
            );
            let printed = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let expected = metrics(&manifest, section);
            let printed_names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
            let expected_names: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(printed_names, expected_names, "{name} trace={trace}");
            for (metric, unit) in &expected {
                let entry = result
                    .get("metrics")
                    .and_then(|m| m.get(metric))
                    .expect("metric");
                let value = entry.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{name} {metric} = {value:?}"
                );
                assert_eq!(
                    entry.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{name} {metric}"
                );
            }
        }
    }
}

#[test]
fn a_wrong_pinned_closeout_count_fails_the_run() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (ok, result, failures) = run("closeout", 0, &["--expect-states", "1"]);
    assert!(!ok, "a wrong pin must make the command exit non-zero");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(false));
    assert!(result.get("failed").and_then(Value::as_i128) >= Some(1));
    assert!(
        failures
            .iter()
            .any(|line| line.contains("pinned_counts_and_digest")),
        "{failures:?}"
    );
}

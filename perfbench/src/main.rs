//! `perfbench`: the repository benchmark for the Bakery++ lock stack and its
//! exhaustive close-out.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <uncontended|contended|echo|closeout> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload with at most two OS threads of load.
//! `BENCHMARK.json` lists `uncontended` and `closeout`.  `contended` and
//! `echo` run the same way but are left out there: the contended figures
//! drift with the VM's core placement far past any usable bound (set
//! medians of 528k, 547k and 855k CS/s within an hour on a 2-vCPU VM), and
//! the async session plane can stall under `echo` (see `echo.rs`).  Every
//! traced run still measures the contended wait-loop layers.
//! Human-readable lines (`config`, `check`, `metric`, `note`) come first;
//! the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
//! metrics are the end-to-end ones (every workload reports the same five
//! names, see `E2E` below); with `--trace 1` they are the per-layer ledger
//! (`ledger::PER_LAYER`) and the run's spans are written to
//! `perfbench/traces/<workload>-seed<n>.jsonl` (or `--trace-dir`).
//!
//! Every run checks its outputs; any failed check, or a run that outlives
//! its watchdog deadline, makes the command exit non-zero.

#![forbid(unsafe_code)]

mod closeout;
mod common;
mod echo;
mod hist;
mod ledger;
mod locks;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

use crate::common::{median, Check, Outcome, Progress, BOUND, SLOTS};

/// Coarse live progress the watchdog reports if a run hangs.
pub static PROGRESS: Progress = Progress::new();

/// No run may outlive this, however long it was asked to measure.
const HARD_LIMIT: Duration = Duration::from_secs(170);

/// The end-to-end metrics every workload reports, with their units.
const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("p50_ns", "ns"),
    ("tail_ns", "ns"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Uncontended,
    Contended,
    Echo,
    Closeout,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "uncontended" => Some(Self::Uncontended),
            "contended" => Some(Self::Contended),
            "echo" => Some(Self::Echo),
            "closeout" => Some(Self::Closeout),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Uncontended => "uncontended",
            Self::Contended => "contended",
            Self::Echo => "echo",
            Self::Closeout => "closeout",
        }
    }

    /// The workload's fixed configuration, as a JSON object body.
    fn config(self) -> String {
        let lock = format!(
            "\"lock\":\"bakery++ flat\",\"slots\":{SLOTS},\"bound\":{BOUND},\"scan_mode\":\"packed\""
        );
        match self {
            Self::Uncontended => format!(
                "{lock},\"wait_strategy\":\"spin\",\"threads\":1,\"loop\":\"Session::lock + guard drop\""
            ),
            Self::Contended => format!(
                "{lock},\"wait_strategy\":\"spin\",\"threads\":{},\"loop\":\"lock, cs, unlock, think\",\
                 \"cs_units\":[{},{}],\"think_units\":[{},{}]",
                locks::CONTENDED_THREADS,
                locks::CS_UNITS.0,
                locks::CS_UNITS.1,
                locks::THINK_UNITS.0,
                locks::THINK_UNITS.1
            ),
            Self::Echo => format!(
                "{lock},\"wait_strategy\":\"park\",\"executor_workers\":{},\"connections\":{},\
                 \"echoes_per_client\":[{},{}],\"payload_units\":{},\"yield_per_client\":true",
                echo::WORKERS,
                echo::CONNECTIONS,
                echo::ECHOES.0,
                echo::ECHOES.1,
                echo::PAYLOAD_UNITS
            ),
            Self::Closeout => format!(
                "\"spec\":\"bakery++\",\"processes\":{},\"bound\":{},\"registers\":\"safe\",\
                 \"threads\":{},\"invariants\":\"paper\",\"symmetry\":true",
                closeout::PROCESSES,
                closeout::MC_BOUND,
                closeout::THREADS
            ),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
    pins: closeout::Pins,
}

const USAGE: &str = "usage: perfbench --workload <uncontended|contended|echo|closeout> \
                     --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>] \
                     [--expect-states <n>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_dir = PathBuf::from("perfbench/traces");
    let mut pins = closeout::PINS;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{what} must be a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number("--seed")?),
            "--seconds" => {
                let s = number("--seconds")?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds must be 1..=60, got {s}"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
            "--trace-dir" => trace_dir = PathBuf::from(value),
            // Overrides the pinned close-out state count (the benchmark's
            // own test uses a wrong pin to prove the check fires).
            "--expect-states" => pins.states = number("--expect-states")? as usize,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_dir,
        pins,
    })
}

/// Arms the watchdog: unless the returned sender is dropped first, after
/// `limit` it prints a failed result (every still-running worker counts as
/// a failed operation) and exits the process with code 2.
fn arm_watchdog(limit: Duration) -> (mpsc::Sender<()>, std::thread::JoinHandle<()>) {
    let (disarm, armed) = mpsc::channel::<()>();
    let handle = std::thread::spawn(move || {
        if armed.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
            let (done, live) = PROGRESS.snapshot();
            let failed = live.max(1);
            println!("check watchdog FAIL run still going after {limit:?}: {live} workers live");
            println!(
                "{{\"correct\":false,\"attempted\":{},\"failed\":{failed},\"metrics\":{{}}}}",
                done + failed
            );
            std::process::exit(2);
        }
    });
    (disarm, handle)
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn print_checks(checks: &[Check]) {
    for check in checks {
        let verdict = if check.ok { "ok" } else { "FAIL" };
        println!("check {} {verdict} {}", check.name, check.detail);
    }
}

fn run_e2e(args: &Args, run: Duration) -> (Outcome, Vec<(&'static str, f64, &'static str)>) {
    let outcome = match args.workload {
        Workload::Uncontended => locks::uncontended(run),
        Workload::Contended => locks::contended(args.seed, run),
        Workload::Echo => echo::echo(args.seed, run),
        Workload::Closeout => closeout::closeout(run, &args.pins),
    };
    let values = [
        median(&outcome.setups),
        outcome.peak_rss_mb,
        outcome.ops_per_s,
        outcome.p50_ns,
        outcome.tail_ns,
    ];
    let metrics = E2E
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    (outcome, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    println!(
        "config {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},{}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.config()
    );
    let run = Duration::from_secs_f64(args.seconds);
    let limit = if args.trace {
        HARD_LIMIT
    } else {
        (run * 3 + Duration::from_secs(60)).min(HARD_LIMIT)
    };
    let (disarm, watchdog) = arm_watchdog(limit);

    let (attempted, failed, checks, metrics) = if args.trace {
        let section = run.div_f64(3.0).max(Duration::from_secs(1));
        let ledger = ledger::traced(args.workload, args.seed, section, &args.pins);
        for note in &ledger.notes {
            println!("note {note}");
        }
        for (name, value, unit) in &ledger.metrics {
            println!("metric {name} {value} {unit}");
        }
        let path = args
            .trace_dir
            .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        let mut checks = ledger.checks;
        checks.push(Check::new(
            "spans_written",
            spans::write_jsonl(&path, &ledger.spans).is_ok(),
            path.display().to_string(),
        ));
        checks.push(Check::new(
            "metrics_finite",
            ledger.metrics.iter().all(|(_, v, _)| v.is_finite()),
            "every per-layer metric is a number",
        ));
        let failed = checks.iter().filter(|c| !c.ok).count() as u64;
        (checks.len() as u64, failed, checks, ledger.metrics)
    } else {
        let (outcome, metrics) = run_e2e(&args, run);
        let names = outcome.names;
        let scale = names.latency_scale;
        for note in &outcome.notes {
            println!("note {note}");
        }
        println!("note latency {}", outcome.latency_summary);
        let setup = median(&outcome.setups);
        let own_names = [
            ("setup_s", setup, "s"),
            (
                "failed_ratio",
                outcome.failed as f64 / outcome.attempted as f64,
                "ratio",
            ),
            ("peak_rss_mb", metrics[1].1, "MB"),
            (names.ops, outcome.ops_per_s, "1/s"),
            (names.p50, outcome.p50_ns / scale, names.latency_unit),
            (names.tail, outcome.tail_ns / scale, names.latency_unit),
        ];
        for (name, value, unit) in own_names {
            println!("metric {name} {value} {unit}");
        }
        let mut checks = outcome.checks;
        checks.push(Check::new(
            "metrics_finite_and_positive",
            metrics.iter().all(|(_, v, _)| v.is_finite() && *v > 0.0),
            "every end-to-end metric is a positive number",
        ));
        let failed = outcome.failed + u64::from(!checks.last().is_some_and(|c| c.ok));
        (outcome.attempted, failed, checks, metrics)
    };
    print_checks(&checks);
    let correct = failed == 0 && checks.iter().all(|c| c.ok);
    drop(disarm);
    let _ = watchdog.join();
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

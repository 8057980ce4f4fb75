//! `bakery-experiments` — the suite's one measurement front-end.
//!
//! Regenerates the paper's claims as Markdown tables on stdout and, with
//! `--out-dir`, writes each selected experiment as `BENCH_<id>.json`:
//!
//! ```text
//! bakery-experiments                          # run every experiment (full size)
//! bakery-experiments --quick e1 e2            # CI-sized runs of a subset
//! bakery-experiments --out-dir . e2 e6 e7     # regenerate BENCH_e2/e6/e7.json
//! bakery-experiments --list
//! ```
//!
//! Every gate is an assertion inside its experiment, so a failed gate exits
//! non-zero and no file is written.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use bakery_harness::experiments::{run_experiments, ExperimentId};

fn print_usage() {
    println!(
        "usage: bakery-experiments [--quick] [--out-dir DIR] [--list] [E1 E2 ...]\n\n\
         Runs the Bakery++ reproduction experiments and prints Markdown tables;\n\
         --out-dir also writes one BENCH_<id>.json per experiment.\n\
         With no experiment arguments, all of E1..E{} are run.",
        ExperimentId::all().len()
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut selected: Vec<ExperimentId> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--out-dir" => match iter.next() {
                Some(dir) => out_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--out-dir requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--list" => {
                for id in ExperimentId::all() {
                    println!("{}  {}", id, id.description());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => match ExperimentId::parse(other) {
                Some(id) => selected.push(id),
                None => {
                    eprintln!("unknown argument: {other}");
                    print_usage();
                    return ExitCode::FAILURE;
                }
            },
        }
    }

    let ids: Vec<ExperimentId> = if selected.is_empty() {
        ExperimentId::all().to_vec()
    } else {
        selected
    };

    eprintln!(
        "running {} experiment(s){}...",
        ids.len(),
        if quick { " (quick mode)" } else { "" }
    );
    for id in &ids {
        eprintln!("  {}", id.description());
    }

    let report = run_experiments(&ids, quick);
    println!("{}", report.to_markdown());

    if let Some(dir) = out_dir {
        match report.write_dir(&dir) {
            Ok(paths) => {
                for path in paths {
                    eprintln!("wrote {}", path.display());
                }
            }
            Err(err) => {
                eprintln!("failed to write into {}: {err}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

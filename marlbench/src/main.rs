//! `marlbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! marlbench --workload NAME --seed N --seconds S --trace 0|1 [--serve-bin PATH]
//! ```
//!
//! One process runs one workload from one seed. With `--trace 0` it
//! attaches no telemetry and prints the end-to-end metrics; with
//! `--trace 1` it records spans around its own calls into each crate's
//! public functions, reads the counters the program already exposes,
//! and prints the per-layer metrics. Every run checks that the
//! program's outputs are correct and counts each check, request and
//! episode as an operation attempted (and failed, if it went wrong).
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! Build and run through `marlbench/run.py`, which compiles this
//! package and the `marl-serve` binary from source first.

mod lockstep;
mod metrics;
mod serving;
mod stats;
mod sys;
mod training;

use metrics::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Everything a workload needs from the command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload seed: all inputs derive from it.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: Duration,
    /// Release `marl-serve` binary (needed by `serve-pp3` only).
    pub serve_bin: Option<PathBuf>,
}

/// Formats a library error as the benchmark's error string.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn parse(args: &[String]) -> Result<(String, bool, RunArgs), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} requires a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {:?}", metrics::WORKLOADS));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = trace.ok_or("--trace is required")?;
    let run = RunArgs {
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds),
        serve_bin,
    };
    Ok((workload, trace, run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, trace, run) = match parse(&args) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: marlbench --workload NAME --seed N --seconds S --trace 0|1 \
                 [--serve-bin PATH]"
            );
            return ExitCode::FAILURE;
        }
    };
    let mut report = Report::new(trace);
    let outcome = match workload.as_str() {
        "train-pp12" => training::run(training::Workload::TrainPp12, &run, &mut report),
        "collect-cn6-k8" => training::run(training::Workload::CollectCn6K8, &run, &mut report),
        "lockstep-pp3" => lockstep::run(&run, &mut report),
        "serve-pp3" => serving::run(&run, &mut report),
        _ => unreachable!("workload names are validated by parse"),
    };
    if let Err(e) = outcome {
        eprintln!("error: {workload}: {e}");
        return ExitCode::FAILURE;
    }
    match report.finish() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

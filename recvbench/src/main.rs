//! Receiver benchmark, built from outside the program: runs one workload
//! through the public APIs of the gateway, socket, decoder, solver,
//! sensing and DWT crates, checks the outputs, and prints one JSON result
//! line.
//!
//! ```sh
//! cargo run --release --manifest-path recvbench/Cargo.toml -- \
//!     --workload fleet --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` records spans
//! around every public call, replays the workload's windows through each
//! layer, and prints the per-layer metrics. `NOTES.md` explains the
//! workloads and metrics.

mod bedside;
mod common;
mod counting;
mod fleet;
mod inputs;
mod ledger;
mod meta;
mod report;
mod stats;
mod trace;

use std::process::ExitCode;

use common::{Outcome, Run};
use trace::Tracer;

pub type BenchError = Box<dyn std::error::Error + Send + Sync>;

const USAGE: &str =
    "usage: recvbench --workload <fleet|bedside> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    run: Run,
}

fn parse_args() -> Result<Args, BenchError> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>()?),
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1\n{USAGE}").into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}").into()),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive\n{USAGE}").into());
    }
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        run: Run {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            workers: std::thread::available_parallelism()?.get(),
        },
    })
}

fn run() -> Result<String, BenchError> {
    let args = parse_args()?;
    let run = &args.run;
    let meta = meta::line(&args.workload, run);
    let mut outcome: Outcome = match args.workload.as_str() {
        "fleet" => fleet::run(run)?,
        "bedside" => bedside::run(run)?,
        other => return Err(format!("unknown workload {other}\n{USAGE}").into()),
    };
    if run.trace {
        // What the spans themselves cost, as a share of the timed section.
        let overhead = Tracer::calibrate_span_cost() * outcome.tracer.len() as f64 / outcome.wall_s;
        outcome.metrics.set("obs.trace_overhead_frac", overhead);
        for (name, seconds) in outcome.tracer.self_seconds() {
            eprintln!("self time {name}: {seconds:.4} s");
        }
        meta::write_trace(&args.workload, run, &meta, &outcome.tracer)?;
    }
    for e in &outcome.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    println!("{meta}");
    Ok(report::result_line(
        outcome.errors.is_empty(),
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
        run.trace,
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("recvbench: {e}");
            ExitCode::FAILURE
        }
    }
}

//! `perfbench` — the bytes-to-verdict benchmark.
//!
//! ```text
//! perfbench --workload scan-table7|check-128|check-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run makes its inputs from the seed, sets the program up (timed),
//! runs production rounds for the measured time with a host reference
//! kernel between rounds, replays the same inputs through each layer's
//! public functions under the benchmark's spans, checks production
//! against the replay, and prints one JSON line last: the end-to-end
//! metrics untraced, the per-layer metrics traced. See README.md.

mod check;
mod common;
mod host;
mod inputs;
mod layers;
mod scan;
mod stats;
mod trace;

use common::{Ctx, Metrics, Outcome};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value.parse().map_err(|_| format!("--seed: not a number: {value}"))?
            }
            "--seconds" => {
                args.seconds =
                    value.parse().map_err(|_| format!("--seconds: not a number: {value}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn render(metrics: &Metrics) -> Result<String, String> {
    let mut parts = Vec::new();
    for m in &metrics.0 {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        parts.push(format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, m.value, m.unit));
    }
    Ok(format!("{{{}}}", parts.join(",")))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work = std::path::Path::new(".bench_work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work.clone(),
        clock: host::HostClock::new(host::nproc()),
    };
    let result = match args.workload.as_str() {
        "scan-table7" => scan::run(&mut ctx),
        "check-128" => check::run(&mut ctx, check::Mix::Rgb128),
        "check-mixed" => check::run(&mut ctx, check::Mix::Mixed),
        other => Err(format!("unknown workload {other:?} (scan-table7, check-128, check-mixed)")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let outcome = result?;
    println!(
        "provenance: {}",
        host::provenance(
            &args.workload,
            args.seed,
            args.seconds,
            common::WORKERS,
            ctx.clock.median_since(0),
            ctx.clock.samples().len()
        )
    );
    Ok(outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in outcome.mismatches.iter().take(20) {
        eprintln!("mismatch: {line}");
    }
    let (metrics, diagnostics) = if args.trace {
        (&outcome.per_layer, &outcome.end_to_end)
    } else {
        (&outcome.end_to_end, &outcome.per_layer)
    };
    for m in &diagnostics.0 {
        println!("diagnostic {} = {} {}", m.name, m.value, m.unit);
    }
    let rendered = match render(metrics) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.mismatches.is_empty() && outcome.failed == 0;
    println!(
        "operations: {} attempted, {} succeeded, {} failed",
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{rendered}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

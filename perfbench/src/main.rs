//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <simulate|analyze|bigchain|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload sets up its inputs from `--seed` (several times, to time
//! the set-up), then repeats one fixed-size pass of library calls until
//! `--seconds` have elapsed, checking every pass's outputs. The last line
//! of standard output is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). A traced run
//! first measures the untraced passes, then runs one more pass with an
//! `obs` recorder installed and every layer call timed from outside, and
//! then times single layer calls in sequential probes. `README.md` in
//! this directory maps every metric to its layer.

mod analyze;
mod bigchain;
mod report;
mod serve;
mod simulate;

use std::process::ExitCode;

use report::{Outcome, END_TO_END, PER_LAYER};

/// The seed whose deterministic outputs `reference.txt` records.
pub const DEFAULT_SEED: u64 = 1;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <simulate|analyze|bigchain|serve> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "simulate" => simulate::run(args),
        "analyze" => analyze::run(args),
        "bigchain" => bigchain::run(args),
        "serve" => serve::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let peak_rss_mb = match report::peak_rss_mb() {
        Ok(mb) => mb,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (names, metrics) = if args.trace {
        (PER_LAYER, outcome.layers.clone())
    } else {
        (END_TO_END, outcome.end_to_end(peak_rss_mb))
    };
    outcome.print_summary(&args, peak_rss_mb);
    match report::result_line(&outcome.checks, names, &metrics) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

//! The unified experiment driver behind the `paperbench` binary.
//!
//! `paperbench <name> [flags]` runs one [`Experiment`] from the registry;
//! `paperbench all [flags]` runs every entry in registry order on one
//! shared [`ExperimentContext`] (tables are built once and reused);
//! `paperbench --list` prints the registry. Flags are the shared
//! [`StudyConfig::from_args`] set, so `--table-cache`, `--sample`,
//! `--threads` and friends behave identically for every entry. Two
//! offline tools share the binary: `paperbench bench-delta` diffs two
//! `BENCH_session.json` files and `paperbench validate-trace` checks a
//! `--trace` capture.

use std::process::ExitCode;
use std::time::Instant;

use crate::experiments::{by_name, Experiment, ExperimentContext, REGISTRY};
use crate::study::StudyConfig;

/// Width of the separator line between artefacts in an `all` run (kept
/// from the pre-registry `all` binary for byte-identical output).
const DIVIDER_WIDTH: usize = 74;

fn usage() -> String {
    let mut text = String::from(
        "usage: paperbench <experiment>|all [flags]\n\
         \n\
         experiments:\n",
    );
    for e in REGISTRY {
        text.push_str(&format!("  {:<14} {}\n", e.name, e.artefact));
    }
    text.push_str(
        "\nflags: --fast --full --sample N --jobs N --threads N --table-cache PATH \
         --trace PATH --simulated-k8 --distribute ADDR:NWORKERS\n\
         \n\
         worker mode: paperbench --worker ADDR [flags]\n\
         serves a --distribute coordinator at ADDR until it goes away\n\
         \n\
         trace tools: paperbench validate-trace PATH\n\
         checks every JSONL line of a --trace capture against the schema\n\
         \n\
         perf trajectory: paperbench bench-delta BASE NEW [--threshold F]\n\
         diffs two BENCH_session.json files; fails if a kernel is slower by more than F (0.2)\n",
    );
    text
}

/// The `--list` output: one line per registry entry pairing the artefact
/// label (where in the paper) with the [`Experiment::description`] (what
/// the experiment computes).
fn listing() -> String {
    let mut text = String::new();
    for e in REGISTRY {
        text.push_str(&format!("{:<14} {}\n", e.name, e.artefact));
        text.push_str(&format!("{:<14}   {}\n", "", e.description));
    }
    text
}

/// Entry point of the `paperbench` driver binary: first argument selects
/// the experiment (or `all` / `--list`), the rest are [`StudyConfig`]
/// flags.
pub fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let selector = match args.next() {
        Some(s) => s,
        None => {
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match selector.as_str() {
        "--list" | "list" => {
            print!("{}", listing());
            ExitCode::SUCCESS
        }
        "--help" | "-h" => {
            print!("{}", usage());
            ExitCode::SUCCESS
        }
        "all" => with_config(args, run_all),
        // Offline schema check for a `--trace` capture (the obs-smoke CI
        // job runs this over a fresh `paperbench obs --trace` stream).
        "validate-trace" => match args.next() {
            Some(path) => validate_trace_file(&path),
            None => {
                eprintln!("usage: paperbench validate-trace PATH");
                ExitCode::from(2)
            }
        },
        "bench-delta" => bench_delta(args),
        // `--worker ADDR` is a mode, not an experiment: re-chain the flag
        // so `from_args` parses it, then `with_config` intercepts it.
        "--worker" => with_config(std::iter::once(selector).chain(args), run_all),
        name => match by_name(name) {
            Some(experiment) => with_config(args, |ctx| run_single(experiment, &ctx)),
            None => {
                eprintln!("unknown experiment {name:?}\n\n{}", usage());
                ExitCode::from(2)
            }
        },
    }
}

fn with_config<I, F>(args: I, run: F) -> ExitCode
where
    I: IntoIterator<Item = String>,
    F: FnOnce(ExperimentContext) -> ExitCode,
{
    match StudyConfig::from_args(args) {
        Ok(config) => {
            // `--trace PATH` installs a process-global recorder for the
            // whole run; every instrumented layer (solver, sweep, dist,
            // serve) picks it up via `obs::current()`.
            let recorder = match config.trace.as_ref() {
                Some(path) => match std::fs::File::create(path) {
                    Ok(file) => {
                        let rec =
                            obs::Recorder::with_trace(Box::new(std::io::BufWriter::new(file)));
                        obs::set_global(rec.clone());
                        Some(rec)
                    }
                    Err(e) => {
                        eprintln!("could not open trace file {}: {e}", path.display());
                        return ExitCode::from(2);
                    }
                },
                None => None,
            };
            let code = if let Some(addr) = config.worker.clone() {
                run_worker_service(&addr, &config)
            } else {
                run(ExperimentContext::new(config))
            };
            if let Some(rec) = recorder {
                obs::clear_global();
                // Close the stream with one line per metric so a capture
                // carries final totals, not just in-flight events.
                rec.trace_snapshot();
                rec.flush();
            }
            code
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// `paperbench validate-trace PATH`: run [`obs::validate::validate_trace`]
/// over a captured JSONL stream and report the verdict.
fn validate_trace_file(path: &str) -> ExitCode {
    match std::fs::read_to_string(path) {
        Ok(text) => match obs::validate::validate_trace(&text) {
            Ok(n) => {
                println!("{path}: {n} valid trace line(s)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("could not read {path}: {e}");
            ExitCode::from(2)
        }
    }
}

/// `paperbench bench-delta BASE NEW [--threshold F]`: run
/// [`crate::delta::run_delta`], printing the per-kernel table. Exits 1
/// when a shared kernel regressed by more than `F` (default `0.20`, i.e.
/// +20% median ns/iter, or +20% solver iterations).
fn bench_delta(mut args: impl Iterator<Item = String>) -> ExitCode {
    const USAGE: &str = "usage: paperbench bench-delta BASE NEW [--threshold F]";
    let mut paths = Vec::new();
    let mut threshold = 0.20f64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v.is_finite() && v >= 0.0 => threshold = v,
                _ => {
                    eprintln!("--threshold needs a non-negative fraction, e.g. 0.2\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}\n{USAGE}");
                return ExitCode::from(2);
            }
            _ => paths.push(arg),
        }
    }
    let [base, new] = paths.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match crate::delta::run_delta(base, new, threshold) {
        Ok(table) => {
            print!("{table}");
            println!(
                "bench-delta: no kernel regressed beyond {:.0}%",
                threshold * 100.0
            );
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{}", msg.trim_end());
            ExitCode::FAILURE
        }
    }
}

/// `--worker ADDR`: serve a distributed-sweep coordinator instead of
/// running an experiment. The worker reconnects between sweep legs (one
/// experiment may distribute several) and exits cleanly once the
/// coordinator stops answering after at least one served sweep.
fn run_worker_service(addr: &str, config: &StudyConfig) -> ExitCode {
    use std::time::Duration;

    let worker_config = dist::WorkerConfig {
        threads: config.threads,
        cache: config.table_cache.clone().map(workloads::TableStore::new),
    };
    let mut served = 0usize;
    loop {
        // The first connect is patient — the coordinator may still be
        // building its table. Reconnects between sweep legs are quick so
        // the worker exits soon after the coordinator finishes. The
        // backoff inside connect_retry is seeded per-process so a fleet
        // of workers does not hammer the listener in lockstep.
        let patience = if served == 0 {
            Duration::from_secs(60)
        } else {
            Duration::from_secs(3)
        };
        match dist::connect_retry(addr, patience, config.seed ^ std::process::id() as u64) {
            Ok(transport) => match dist::run_worker(transport, &worker_config) {
                Ok(summary) => {
                    served += 1;
                    eprintln!(
                        "worker: sweep {served}: {} chunk(s), {} row(s), table {}",
                        summary.chunks,
                        summary.rows,
                        if summary.table_from_cache {
                            "from cache"
                        } else {
                            "over the wire"
                        }
                    );
                }
                // A connection that dies after a served sweep is a between-
                // legs race: the old listener's TCP backlog can complete
                // our reconnect handshake and then reset it when it drops.
                // Go back to connecting — the next leg's listener picks us
                // up, and once the coordinator process is really gone the
                // connect is refused, which exits cleanly below.
                Err(
                    e @ (dist::DistError::Disconnected(_)
                    | dist::DistError::Timeout(_)
                    | dist::DistError::Io(_)),
                ) if served > 0 => {
                    eprintln!("worker: connection lost between legs ({e}); reconnecting");
                }
                Err(e) => {
                    eprintln!("worker: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) if served > 0 => {
                eprintln!("worker: coordinator gone after {served} sweep(s) ({e}); done");
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("worker: could not reach coordinator at {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
}

fn run_single(experiment: &Experiment, ctx: &ExperimentContext) -> ExitCode {
    let t0 = Instant::now();
    match (experiment.run)(ctx) {
        Ok(artefact) => {
            println!("{artefact}");
            eprintln!("[{} took {:.1?}]", experiment.name, t0.elapsed());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("experiment failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every registry entry on one shared context, printing each artefact
/// behind a divider (the historical `all` stdout format). Failures are
/// reported on stderr and the remaining experiments still run; the exit
/// code reflects whether everything succeeded — which is what the CI
/// smoke job asserts.
fn run_all(ctx: ExperimentContext) -> ExitCode {
    let divider = "=".repeat(DIVIDER_WIDTH);
    let mut failures = 0usize;
    for experiment in REGISTRY {
        println!("{divider}");
        let t0 = Instant::now();
        match (experiment.run)(&ctx) {
            Ok(artefact) => println!("{artefact}"),
            Err(e) => {
                eprintln!("{} failed: {e}", experiment.name);
                failures += 1;
            }
        }
        eprintln!("[{} took {:.1?}]", experiment.name, t0.elapsed());
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failures} experiment(s) failed");
        ExitCode::FAILURE
    }
}

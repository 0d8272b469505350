//! Beyond the paper — the distributed-sweep demonstration: shard a
//! fig1-scale sweep across a worker fleet, verify the merged report is
//! bitwise identical to the single-process run, and report per-worker
//! throughput accounting (on stderr: it depends on thread scheduling).
//!
//! Two modes, selected by the study configuration:
//!
//! * default — spawn three in-process worker threads talking real TCP
//!   over loopback (self-contained; what `paperbench all` runs);
//! * `--distribute ADDR:N` — bind `ADDR` and wait for `N` external
//!   `paperbench --worker ADDR` processes (what the CI `dist-smoke` job
//!   runs, cold and warm table cache).

use std::fmt;
use std::time::Instant;

use dist::{run_worker, Coordinator, DistConfig, DistOutcome, TcpTransport, WorkerConfig};
use session::Policy;

use crate::experiments::ExperimentError;
use crate::study::{Chip, Study};

/// How many in-process workers the self-contained mode spawns.
const LOCAL_WORKERS: usize = 3;

/// The policies swept — the headline throughput trio.
const POLICIES: [Policy; 3] = [Policy::Worst, Policy::FcfsEvent, Policy::Optimal];

/// The distributed-sweep artefact. Timings and per-worker accounting
/// depend on thread scheduling, so [`run`] prints them to stderr instead.
pub struct DistSweep {
    /// Worker count.
    pub workers: usize,
    /// Where the workers came from.
    pub mode: String,
    /// Workloads swept.
    pub workloads: usize,
    /// Chunks the workload list was split into.
    pub chunks: usize,
    /// Mean OPTIMAL gain over FCFS from the merged report (the sweep's
    /// headline number, proving the merged rows are usable as-is).
    pub mean_gain: f64,
}

/// Runs the demonstration: single-process reference, distributed run,
/// bitwise parity check. Wall times and per-worker chunk, row and rows/s
/// lines go to stderr.
///
/// # Errors
///
/// The sweep's [`session::SweepError`] or the fleet's [`dist::DistError`];
/// a parity mismatch (which the dist test suite pins as impossible) is an
/// error, never a silent artefact.
pub fn run(study: &Study) -> Result<DistSweep, ExperimentError> {
    let cfg = study.config();
    let sweep = || study.sweep(Chip::Smt).policies(POLICIES);

    let t0 = Instant::now();
    let reference = sweep().run()?;
    let single_wall = t0.elapsed();

    let coordinator = Coordinator::from_sweep(sweep(), DistConfig::default())?;
    let t1 = Instant::now();
    let (outcome, workers, mode) = match &cfg.distribute {
        Some(spec) => (
            coordinator.serve_tcp(&spec.addr, spec.workers)?,
            spec.workers,
            format!("external, at {}", spec.addr),
        ),
        None => (
            local_fleet(&coordinator, cfg.threads)?,
            LOCAL_WORKERS,
            "in-process TCP loopback".into(),
        ),
    };
    let dist_wall = t1.elapsed();

    if outcome.report != reference {
        return Err("distributed sweep diverged from the single-process run".into());
    }

    eprintln!(
        "dist_sweep: single-process {single_wall:.2?}, distributed {dist_wall:.2?} ({:.2}x)",
        single_wall.as_secs_f64() / dist_wall.as_secs_f64()
    );
    for (i, w) in outcome.workers.iter().enumerate() {
        eprintln!(
            "dist_sweep: worker {} ({}): {} chunk(s), {} row(s), {:.1} rows/s",
            i + 1,
            w.peer,
            w.chunks,
            w.rows,
            w.rows_per_sec()
        );
    }
    Ok(DistSweep {
        workers,
        mode,
        workloads: reference.len(),
        chunks: outcome.chunks,
        mean_gain: outcome.report.mean_gain(Policy::Optimal, Policy::FcfsEvent),
    })
}

/// The self-contained fleet: real TCP over loopback, worker threads in
/// this process. The study's thread budget is split across the workers
/// so the comparison against the single-process run is not just "three
/// times the cores".
fn local_fleet(coordinator: &Coordinator, threads: usize) -> Result<DistOutcome, ExperimentError> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let per_worker = (threads / LOCAL_WORKERS).max(1);
    let fleet: Vec<_> = (0..LOCAL_WORKERS)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let transport = TcpTransport::connect(addr.as_str())?;
                run_worker(
                    transport,
                    &WorkerConfig {
                        threads: per_worker,
                        cache: None,
                    },
                )
            })
        })
        .collect();
    let outcome = coordinator.serve_listener(&listener, LOCAL_WORKERS)?;
    for handle in fleet {
        handle.join().map_err(|_| "worker thread panicked")??;
    }
    Ok(outcome)
}

impl fmt::Display for DistSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Beyond the paper — distributed sweep: coordinator + {} worker(s) ({})",
            self.workers, self.mode
        )?;
        writeln!(
            f,
            "sweep                : {} workloads x {} policies in {} chunk(s)",
            self.workloads,
            POLICIES.len(),
            self.chunks
        )?;
        writeln!(
            f,
            "parity               : PASS — merged report bitwise-identical to Session::sweep()"
        )?;
        write!(
            f,
            "mean OPTIMAL gain over FCFS across the merged rows: {:+.1}%",
            100.0 * self.mean_gain
        )
    }
}

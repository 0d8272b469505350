//! `analyze`: the analyses of all 495 four-type workloads on both chips.
//!
//! Set-up builds both chips' tables at `--fast` windows (2 k warm-up +
//! 8 k measured cycles). A pass then runs every workload through
//! `Session::sweep()` in three legs, plus one distributed copy of the
//! first:
//!
//! * bounds: WORST, OPTIMAL, FCFS-MARKOV and FCFS-EVENT (exponential job
//!   sizes, so the event sim estimates what the Markov chain solves), on
//!   both chips, in-process and through `dist::Coordinator` over two
//!   loopback workers with one sweep thread each;
//! * latency: the four Section VI schedulers on the SMT chip with Poisson
//!   arrivals at [`LOAD`] of the workload's FCFS-MARKOV throughput;
//! * batch: the same schedulers on a saturated fixed batch.
//!
//! Work items are workloads analysed (each through every leg).

use std::time::Duration;

use dist::{loopback_pair, run_worker, Coordinator, DistConfig, WorkerConfig};
use queueing::{
    run_batch_experiment, run_latency_experiment, BatchConfig, LatencyConfig, SizeDist,
};
use session::{Policy, Session, SessionReport, SweepBuilder, SweepReport, SweepRow};
use simproc::{BenchmarkProfile, Machine, MachineConfig};
use symbiosis::{
    enumerate_workloads, fcfs_throughput, fcfs_throughput_markov, optimal_schedule,
    throughput_bounds, JobSize, Objective,
};
use workloads::{spec2006, PerfTable};

use crate::report::{
    default_seed, measured, median, record_timing, record_trace_cost, repeat_passes, repeat_setup,
    timed, Checks, Digest, Metrics, Outcome, THREADS,
};
use crate::simulate::{probe_machines, SIMPROC_COUNTS};
use crate::Args;

/// Jobs per FCFS-EVENT run in the bounds leg.
const EVENT_JOBS: u64 = 40_000;
/// Largest accepted |FCFS-EVENT − FCFS-MARKOV| / FCFS-MARKOV, in units
/// of 1/sqrt(jobs), the event sim's relative sampling error scale.
const EVENT_TOL_SIGMAS: f64 = 6.0;
/// Arrival rate of the latency leg, as a share of FCFS-MARKOV throughput.
const LOAD: f64 = 0.9;
/// Measured jobs per latency run (plus a tenth as warm-up).
const LATENCY_JOBS: u64 = 300;
/// Jobs per batch run.
const BATCH_JOBS: u64 = 300;
/// Every how many workloads the sequential latency and batch probes take.
const PROBE_STRIDE: usize = 12;

const BOUNDS: [Policy; 4] = [
    Policy::Worst,
    Policy::Optimal,
    Policy::FcfsMarkov,
    Policy::FcfsEvent,
];

struct Setup {
    suite: Vec<BenchmarkProfile>,
    /// (chip name, machine, table).
    chips: Vec<(&'static str, Machine, PerfTable)>,
}

fn setup() -> Result<(Setup, f64), String> {
    let suite = spec2006();
    let mut chips = Vec::new();
    let mut build_s = 0.0;
    for (name, config) in [
        ("smt4", MachineConfig::smt4()),
        ("quadcore", MachineConfig::quadcore()),
    ] {
        let machine = Machine::new(config.with_windows(2_000, 8_000)).map_err(|e| e.to_string())?;
        let (table, secs) = timed(|| PerfTable::build(&machine, &suite, THREADS));
        build_s += secs;
        chips.push((name, machine, table.map_err(|e| e.to_string())?));
    }
    Ok((Setup { suite, chips }, build_s))
}

/// Wall seconds of each leg of one pass, and what the dist and sweep
/// reports count.
#[derive(Default)]
struct Legs {
    bounds_s: f64,
    dist_s: f64,
    latency_s: f64,
    batch_s: f64,
    dist_chunks: usize,
    dist_requeues: usize,
    /// Summed per-workload pool time of the `run()` legs (needs a
    /// recorder; 0 without one).
    item_s: f64,
}

/// One pass's results.
struct Pass {
    /// Bounds leg per chip.
    bounds: Vec<SweepReport>,
    latency: Vec<SessionReport>,
    batch: SweepReport,
    legs: Legs,
}

fn bounds_sweep(table: &PerfTable, workloads: Vec<Vec<usize>>, seed: u64) -> SweepBuilder<'_> {
    Session::sweep()
        .table(table)
        .workloads(workloads)
        .policies(BOUNDS)
        .fcfs_jobs(EVENT_JOBS)
        .job_size(JobSize::Exponential)
        .seed(seed)
        .threads(THREADS)
}

fn latency_config(fcfs_tp: f64, seed: u64) -> LatencyConfig {
    LatencyConfig {
        arrival_rate: LOAD * fcfs_tp,
        measured_jobs: LATENCY_JOBS,
        warmup_jobs: LATENCY_JOBS / 10,
        sizes: SizeDist::Exponential,
        seed,
    }
}

/// The bounds leg through `dist::Coordinator` over two loopback workers.
fn dist_bounds(
    table: &PerfTable,
    workloads: Vec<Vec<usize>>,
    seed: u64,
) -> Result<dist::DistOutcome, String> {
    let config = DistConfig {
        recv_timeout: Duration::from_secs(30),
        ..DistConfig::default()
    };
    let coordinator = Coordinator::from_sweep(bounds_sweep(table, workloads, seed), config)
        .map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let mut ends = Vec::new();
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let (coordinator_end, worker_end) = loopback_pair();
                ends.push(coordinator_end);
                scope.spawn(move || {
                    run_worker(
                        worker_end,
                        &WorkerConfig {
                            threads: 1,
                            cache: None,
                        },
                    )
                })
            })
            .collect();
        let outcome = coordinator.run(ends).map_err(|e| e.to_string());
        for worker in workers {
            worker
                .join()
                .map_err(|_| "dist worker panicked".to_string())?
                .map_err(|e| e.to_string())?;
        }
        outcome
    })
}

/// Summed per-workload pool seconds of a `run()` sweep (0 unless a
/// recorder was installed).
pub(crate) fn item_s(report: &SweepReport) -> f64 {
    report
        .metrics
        .histograms
        .get("sweep.item_us")
        .map_or(0.0, |h| h.sum / 1e6)
}

impl Setup {
    fn smt(&self) -> &PerfTable {
        &self.chips[0].2
    }

    fn pass(
        &self,
        workloads: &[Vec<usize>],
        seed: u64,
        checks: &mut Checks,
    ) -> Result<Pass, String> {
        let mut legs = Legs::default();
        let mut bounds = Vec::new();
        for (name, _, table) in &self.chips {
            let (report, secs) = timed(|| bounds_sweep(table, workloads.to_vec(), seed).run());
            let report = report.map_err(|e| e.to_string())?;
            legs.bounds_s += secs;
            legs.item_s += item_s(&report);
            let (outcome, secs) = timed(|| dist_bounds(table, workloads.to_vec(), seed));
            let outcome = outcome?;
            legs.dist_s += secs;
            legs.dist_chunks += outcome.chunks;
            legs.dist_requeues += outcome.requeues;
            checks.check(
                workloads.len() as u64,
                digest_rows(&outcome.report) == digest_rows(&report),
                || format!("{name}: distributed bounds leg differs from the in-process one"),
            );
            bounds.push(report);
        }

        let markov = bounds[0].throughputs(Policy::FcfsMarkov);
        let (latency, secs) = timed(|| {
            Session::sweep()
                .table(self.smt())
                .workloads(workloads.to_vec())
                .threads(THREADS)
                .map(|item| {
                    let view = item.view()?;
                    item.session()
                        .rates(&view)
                        .policies(Policy::LATENCY)
                        .latency(latency_config(markov[item.index()], seed))
                        .run()
                        .map_err(|e| e.to_string())
                })
        });
        let latency = latency.map_err(|e| e.to_string())?;
        legs.latency_s = secs;

        let (batch, secs) = timed(|| {
            Session::sweep()
                .table(self.smt())
                .workloads(workloads.to_vec())
                .policies(Policy::LATENCY)
                .fcfs_jobs(BATCH_JOBS)
                .seed(seed)
                .threads(THREADS)
                .run()
        });
        let batch = batch.map_err(|e| e.to_string())?;
        legs.batch_s = secs;
        legs.item_s += item_s(&batch);
        Ok(Pass {
            bounds,
            latency,
            batch,
            legs,
        })
    }
}

/// WORST ≤ FCFS-MARKOV ≤ OPTIMAL, to LP tolerance, on one sweep row.
pub(crate) fn check_order(checks: &mut Checks, row: &SweepRow) {
    let tp = |p| row.report.throughput(p).unwrap_or(f64::NAN);
    let (worst, markov, opt) = (
        tp(Policy::Worst),
        tp(Policy::FcfsMarkov),
        tp(Policy::Optimal),
    );
    let slack = 1e-9 * opt;
    checks.check(1, worst <= markov + slack && markov <= opt + slack, || {
        format!(
            "{:?}: WORST {worst} FCFS-MARKOV {markov} OPTIMAL {opt}",
            row.workload
        )
    });
}

/// Digest of every policy row's throughput, fractions and reports.
fn digest_rows(report: &SweepReport) -> u64 {
    let mut d = Digest::new();
    for row in &report.rows {
        digest_session(&mut d, &row.report);
    }
    d.finish()
}

fn digest_session(d: &mut Digest, report: &SessionReport) {
    for pr in &report.rows {
        d.f64(pr.throughput);
        for &x in pr.fractions.iter().flatten() {
            d.f64(x);
        }
        if let Some(l) = &pr.latency {
            for v in [l.mean_turnaround, l.utilization, l.empty_fraction] {
                d.f64(v);
            }
            d.u64(l.completed);
        }
        if let Some(b) = &pr.batch {
            for v in [b.makespan, b.mean_turnaround] {
                d.f64(v);
            }
        }
    }
}

impl Pass {
    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for report in self.bounds.iter().chain([&self.batch]) {
            d.u64(digest_rows(report));
        }
        for report in &self.latency {
            digest_session(&mut d, report);
        }
        d.finish()
    }

    /// The oracle checks: WORST ≤ FCFS-MARKOV ≤ OPTIMAL and FCFS-EVENT
    /// within sampling error of FCFS-MARKOV on every workload and chip,
    /// and sane latency and batch rows.
    fn check(&self, checks: &mut Checks) {
        let event_tol = EVENT_TOL_SIGMAS / (EVENT_JOBS as f64).sqrt();
        let mut max_gap = 0.0f64;
        for report in &self.bounds {
            for row in &report.rows {
                check_order(checks, row);
                let tp = |p| row.report.throughput(p).unwrap_or(f64::NAN);
                let (markov, event) = (tp(Policy::FcfsMarkov), tp(Policy::FcfsEvent));
                let gap = (event - markov).abs() / markov;
                max_gap = max_gap.max(gap);
                checks.check(1, gap <= event_tol, || {
                    format!(
                        "{:?}: FCFS-EVENT {event} is {gap:.4} from FCFS-MARKOV {markov}",
                        row.workload
                    )
                });
            }
        }
        eprintln!("largest |FCFS-EVENT - FCFS-MARKOV| / FCFS-MARKOV: {max_gap:.4} (tolerance {event_tol:.4})");
        let sane = |r: &SessionReport| {
            r.rows.len() == Policy::LATENCY.len()
                && r.rows
                    .iter()
                    .all(|pr| pr.throughput.is_finite() && pr.throughput > 0.0)
        };
        for (i, r) in self.latency.iter().enumerate() {
            checks.check(1, sane(r), || format!("latency leg workload {i}: {r:?}"));
        }
        for row in &self.batch.rows {
            checks.check(1, sane(&row.report), || {
                format!("batch leg {:?}: {:?}", row.workload, row.report)
            });
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut build_s = Vec::new();
    let (s, setup) = repeat_setup(|| {
        let (s, secs) = setup()?;
        build_s.push(secs);
        Ok(s)
    })?;
    let workloads = enumerate_workloads(12, 4);
    let items = workloads.len() as u64;
    let mut checks = Checks::default();
    checks.attempt(items);
    for (name, _, table) in &s.chips {
        // Set-up does not depend on the seed, so neither does this.
        let key = format!("analyze.fingerprint.{name}");
        checks.reference(&key, table.content_fingerprint(), true, items);
    }

    let mut first = None;
    let mut check_pass = |checks: &mut Checks, pass: &Pass| {
        checks.attempt(items);
        pass.check(checks);
        let digest = pass.digest();
        checks.same_as_first(&mut first, digest, items);
        digest
    };
    let mut digest = 0;
    let passes = repeat_passes(args.seconds, || {
        let (pass, cost) = measured(|| s.pass(&workloads, args.seed, &mut checks));
        digest = check_pass(&mut checks, &pass?);
        Ok(cost)
    })?;
    checks.reference("analyze.digest", digest, default_seed(args), items);

    let mut layers = Metrics::new();
    if args.trace {
        let recorder = obs::Recorder::new();
        let traced = {
            let _obs = obs::install(&recorder);
            measured(|| s.pass(&workloads, args.seed, &mut checks))
        };
        let (pass, traced) = (traced.0?, traced.1);
        check_pass(&mut checks, &pass);
        let legs = &pass.legs;
        let in_layers = legs.bounds_s + legs.dist_s + legs.latency_s + legs.batch_s;
        record_trace_cost(&mut layers, in_layers, traced, &passes);
        for (key, v) in [
            ("workloads.table_build_s", median(&build_s)),
            ("session.sweep_s.bounds", legs.bounds_s),
            ("session.sweep_s.latency", legs.latency_s),
            ("session.sweep_s.batch", legs.batch_s),
            (
                "session.pool_util",
                legs.item_s / (THREADS as f64 * (legs.bounds_s + legs.batch_s)),
            ),
            ("dist.sweep_s", legs.dist_s),
            ("dist.overhead_ratio", legs.dist_s / legs.bounds_s),
            ("dist.chunks", legs.dist_chunks as f64),
            ("dist.requeues", legs.dist_requeues as f64),
        ] {
            layers.insert(key.into(), v);
        }
        probe_bounds(&s, &workloads, &pass, args.seed, &mut layers, &mut checks)?;
        probe_schedulers(&s, &workloads, &pass, args.seed, &mut layers, &mut checks)?;
        let machines: Vec<&Machine> = s.chips.iter().map(|(_, m, _)| m).collect();
        let tables: Vec<&PerfTable> = s.chips.iter().map(|(_, _, t)| t).collect();
        probe_machines(&machines, &tables, &s.suite, &mut layers, &mut checks)?;
        for key in SIMPROC_COUNTS {
            checks.reference(&format!("analyze.{key}"), layers[*key] as u64, true, items);
        }
    }
    Ok(Outcome {
        setup,
        passes,
        items_per_pass: items,
        checks,
        layers,
    })
}

/// Sequential LP, Markov and event-sim calls on every workload and chip,
/// each checked against the traced pass's sweep row.
fn probe_bounds(
    s: &Setup,
    workloads: &[Vec<usize>],
    pass: &Pass,
    seed: u64,
    layers: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let (mut lp_us, mut markov_us, mut event_ms) = (Vec::new(), Vec::new(), Vec::new());
    for ((_, _, table), report) in s.chips.iter().zip(&pass.bounds) {
        checks.attempt(workloads.len() as u64);
        for (w, row) in workloads.iter().zip(&report.rows) {
            let rates = table.workload_rates(w).map_err(|e| e.to_string())?;
            let (bounds, secs) = timed(|| throughput_bounds(&rates));
            let (worst, opt) = bounds.map_err(|e| e.to_string())?;
            lp_us.push(secs * 1e6);
            let (markov, secs) = timed(|| fcfs_throughput_markov(&rates));
            let markov = markov.map_err(|e| e.to_string())?;
            markov_us.push(secs * 1e6);
            let (event, secs) =
                timed(|| fcfs_throughput(&rates, EVENT_JOBS, JobSize::Exponential, seed));
            let event = event.map_err(|e| e.to_string())?;
            event_ms.push(secs * 1e3);
            let tp = |p| row.report.throughput(p);
            let same = tp(Policy::Worst) == Some(worst.throughput)
                && tp(Policy::Optimal) == Some(opt.throughput)
                && tp(Policy::FcfsMarkov) == Some(markov.throughput)
                && tp(Policy::FcfsEvent) == Some(event.throughput);
            checks.check(1, same, || {
                format!("{w:?}: sequential bounds differ from the sweep row")
            });
        }
    }
    record_timing(layers, "lp.bounds_us", &lp_us, Some(90));
    record_timing(layers, "symbiosis.markov_us", &markov_us, Some(90));
    record_timing(layers, "symbiosis.fcfs_event_ms", &event_ms, Some(90));
    Ok(())
}

/// Sequential latency and batch runs of every Section VI scheduler on
/// every [`PROBE_STRIDE`]-th workload (SMT chip), each checked against
/// the traced pass's report.
fn probe_schedulers(
    s: &Setup,
    workloads: &[Vec<usize>],
    pass: &Pass,
    seed: u64,
    layers: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let markov = pass.bounds[0].throughputs(Policy::FcfsMarkov);
    let (mut latency_ms, mut batch_ms) = (Vec::new(), Vec::new());
    let mut per_policy_s = [0.0; 4];
    for (i, w) in workloads.iter().enumerate().step_by(PROBE_STRIDE) {
        checks.attempt(1);
        let view = s.smt().workload_view(w).map_err(|e| e.to_string())?;
        let rates = s.smt().workload_rates(w).map_err(|e| e.to_string())?;
        let schedule =
            optimal_schedule(&rates, Objective::MaxThroughput).map_err(|e| e.to_string())?;
        let targets: Vec<(Vec<u32>, f64)> = rates
            .coschedules()
            .iter()
            .zip(&schedule.fractions)
            .filter(|(_, &x)| x > 1e-9)
            .map(|(c, &x)| (c.counts().to_vec(), x))
            .collect();
        let latency_cfg = latency_config(markov[i], seed);
        let batch_cfg = BatchConfig {
            jobs: BATCH_JOBS,
            sizes: SizeDist::Deterministic,
            seed,
        };
        for (p, policy) in Policy::LATENCY.iter().enumerate() {
            let mut sched = policy
                .latency_scheduler(&targets)
                .ok_or("latency policy without a scheduler")?;
            let (lat, secs) = timed(|| run_latency_experiment(&view, sched.as_mut(), &latency_cfg));
            let lat = lat?;
            latency_ms.push(secs * 1e3);
            per_policy_s[p] += secs;
            let mut sched = policy
                .latency_scheduler(&targets)
                .ok_or("latency policy without a scheduler")?;
            let (batch, secs) = timed(|| run_batch_experiment(&view, sched.as_mut(), &batch_cfg));
            let batch = batch?;
            batch_ms.push(secs * 1e3);
            let same = pass.latency[i].rows[p].latency.as_ref() == Some(&lat)
                && pass.batch.rows[i].report.rows[p].batch.as_ref() == Some(&batch);
            checks.check(1, same, || {
                format!("{w:?} {policy}: sequential scheduler runs differ from the sweep")
            });
        }
    }
    record_timing(layers, "queueing.latency_ms", &latency_ms, Some(90));
    record_timing(layers, "queueing.batch_ms", &batch_ms, Some(90));
    for (name, secs) in ["fcfs", "maxit", "srpt", "maxtp"].iter().zip(per_policy_s) {
        layers.insert(format!("queueing.latency_s.{name}"), secs);
    }
    Ok(())
}

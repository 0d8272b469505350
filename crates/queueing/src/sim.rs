//! The discrete-event latency experiment (Section VI of the paper).
//!
//! Jobs arrive as a Poisson process, queue when the machine is busy, and
//! run at coschedule-dependent rates chosen by a pluggable [`Scheduler`].
//! Between events (arrival / completion) the running coschedule is fixed,
//! so time advances analytically to the next event — no time-stepping.
//!
//! # One event step
//!
//! [`Running`] is that step: it prices a set of jobs with one rate-grid
//! lookup, returns the time to their first completion, and runs them for
//! a `dt`, handing back the finished jobs in start order. The latency
//! experiment takes one step per event. The fixed-batch experiment is the
//! same event loop, started with every job present and no arrivals, and
//! `serve`'s dispatcher advances its placed jobs through the same step.
//!
//! # The per-call rate grid
//!
//! A run asks the same few multisets for their rates at every event: the
//! running coschedule, and every candidate MAXIT or SRPT compares. Each
//! call of [`run_latency_experiment`] and [`run_batch_experiment`]
//! therefore evaluates its rate model once, into a [`RateGrid`] over every
//! multiset of `1..=K` jobs, when the call starts. The grid is the rate
//! model both the scheduler and the event step see.
//!
//! Every value in the grid is one the model itself returned for the same
//! arguments, so for a model whose answers depend only on the multiset
//! (every model in the workspace) a run is bit-for-bit the run the bare
//! model would produce. A model that breaks the rate contract (a
//! non-finite or non-positive rate for a present type, which would stall
//! or corrupt the clock) fails the call with an error before the first
//! event. Handing a run a grid, as `session::Session` does for its
//! latency policies, makes the per-call evaluation a table copy.

use symbiosis::rng::SplitMix64;
use symbiosis::{RateGrid, RateModel};

use crate::job::{Job, JobId, JobPool};
use crate::sched::Scheduler;

/// Distribution of job sizes (work per job).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeDist {
    /// All jobs carry one unit of work.
    Deterministic,
    /// Exponential with mean one (the M/M/c-style setting used by the
    /// paper's Section VI experiments and by Snavely et al.).
    Exponential,
}

impl SizeDist {
    fn draw(self, rng: &mut SplitMix64) -> f64 {
        match self {
            SizeDist::Deterministic => 1.0,
            SizeDist::Exponential => rng.next_exp(1.0),
        }
    }
}

/// Parameters of a latency experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyConfig {
    /// Mean arrivals per cycle. May exceed the machine's maximum
    /// throughput, turning the run into a saturation (maximum-throughput)
    /// experiment — Figure 6.
    pub arrival_rate: f64,
    /// Completions counted into the measurement.
    pub measured_jobs: u64,
    /// Completions discarded as warm-up before measurement starts.
    pub warmup_jobs: u64,
    /// Job size distribution.
    pub sizes: SizeDist,
    /// RNG seed (arrivals, types, sizes).
    pub seed: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            arrival_rate: 1.0,
            measured_jobs: 20_000,
            warmup_jobs: 2_000,
            sizes: SizeDist::Exponential,
            seed: 0xD15C,
        }
    }
}

/// Measured outcome of a latency experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// Mean time from arrival to completion.
    pub mean_turnaround: f64,
    /// Mean number of busy contexts (the paper's "processor utilization").
    pub utilization: f64,
    /// Fraction of time the system held no jobs at all.
    pub empty_fraction: f64,
    /// Work completed per cycle over the measurement window (equals the
    /// arrival rate for stable systems; the achieved maximum throughput in
    /// saturation).
    pub throughput: f64,
    /// Time-averaged number of jobs in the system.
    pub mean_jobs_in_system: f64,
    /// Number of completions measured.
    pub completed: u64,
}

/// Runs one latency experiment.
///
/// # Errors
///
/// Returns a description of the first invalid parameter (non-positive
/// arrival rate, zero measured jobs, a full-only rate model) or of the
/// first rate that breaks the [`RateModel`] contract.
///
/// # Examples
///
/// ```
/// use queueing::{
///     run_latency_experiment, ContentionModel, FcfsScheduler, LatencyConfig, SizeDist,
/// };
///
/// let rates = ContentionModel::new(vec![1.0], 0.0, 4);
/// let report = run_latency_experiment(
///     &rates,
///     &mut FcfsScheduler,
///     &LatencyConfig {
///         arrival_rate: 3.5,
///         measured_jobs: 5_000,
///         warmup_jobs: 500,
///         sizes: SizeDist::Exponential,
///         seed: 7,
///     },
/// )
/// .unwrap();
/// assert!(report.mean_turnaround > 1.0); // queueing adds to service time
/// ```
pub fn run_latency_experiment(
    rates: &dyn RateModel,
    scheduler: &mut dyn Scheduler,
    config: &LatencyConfig,
) -> Result<LatencyReport, String> {
    if config.arrival_rate <= 0.0 || !config.arrival_rate.is_finite() {
        return Err(format!(
            "arrival rate {} must be positive",
            config.arrival_rate
        ));
    }
    if config.measured_jobs == 0 {
        return Err("measured_jobs must be positive".into());
    }
    if !rates.supports_partial() {
        return Err(
            "latency experiments pass through partially loaded states; the rate \
             model must support partial multisets"
                .into(),
        );
    }
    let _span = obs::span!("queueing.latency_run");
    let rates = RateGrid::new(rates).map_err(|e| e.to_string())?;
    let mut rng = SplitMix64::new(config.seed);
    let arrivals = Arrivals {
        next: rng.next_exp(1.0 / config.arrival_rate),
        next_id: 0,
        rng,
        config,
    };
    let pool = JobPool::new(rates.num_types());
    let target = config.warmup_jobs + config.measured_jobs;
    let (report, _) = event_loop(
        pool,
        scheduler,
        &rates,
        Some(arrivals),
        config.warmup_jobs,
        target,
    );
    Ok(report)
}

/// Parameters of a fixed-batch (makespan / maximum-throughput) experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// Jobs placed in the queue at time zero (types i.i.d. uniform).
    pub jobs: u64,
    /// Job size distribution.
    pub sizes: SizeDist,
    /// RNG seed.
    pub seed: u64,
}

/// Outcome of a fixed-batch experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Time to drain the whole batch.
    pub makespan: f64,
    /// Total work divided by makespan — the paper's *maximum throughput*
    /// of the scheduler on a fixed workload.
    pub throughput: f64,
    /// Mean completion time over the batch.
    pub mean_turnaround: f64,
}

/// Runs a fixed-batch maximum-throughput experiment: `jobs` jobs are all
/// present at time zero and the machine runs until every one completes.
///
/// This matches the paper's Section III-A "maximum throughput experiment"
/// and its Figure 6 setup: because the *entire* batch must finish, a
/// scheduler that postpones unfavourable jobs pays for them at the end
/// (drained in bad coschedules) — the mechanism behind the paper's finding
/// that MAXIT gains nothing over FCFS.
///
/// # Errors
///
/// Returns a description of the first invalid parameter (an empty batch,
/// a full-only rate model) or of the first rate that breaks the
/// [`RateModel`] contract.
///
/// # Examples
///
/// ```
/// use queueing::{run_batch_experiment, BatchConfig, ContentionModel,
///                FcfsScheduler, SizeDist};
///
/// let rates = ContentionModel::new(vec![1.0], 0.0, 4);
/// let report = run_batch_experiment(
///     &rates,
///     &mut FcfsScheduler,
///     &BatchConfig { jobs: 1_000, sizes: SizeDist::Deterministic, seed: 1 },
/// )
/// .unwrap();
/// // Four unit-rate contexts: throughput ~4 work units per cycle.
/// assert!((report.throughput - 4.0).abs() < 0.05);
/// ```
pub fn run_batch_experiment(
    rates: &dyn RateModel,
    scheduler: &mut dyn Scheduler,
    config: &BatchConfig,
) -> Result<BatchReport, String> {
    if config.jobs == 0 {
        return Err("batch must contain at least one job".into());
    }
    if !rates.supports_partial() {
        return Err(
            "batch experiments drain through partially loaded states; the rate \
             model must support partial multisets"
                .into(),
        );
    }
    let _span = obs::span!("queueing.batch_run");
    let rates = RateGrid::new(rates).map_err(|e| e.to_string())?;
    let n_types = rates.num_types();
    let mut rng = SplitMix64::new(config.seed);
    let mut pool = JobPool::new(n_types);
    let mut total_work = 0.0;
    for id in 0..config.jobs {
        let size = config.sizes.draw(&mut rng);
        total_work += size;
        pool.insert(Job {
            id,
            ty: rng.next_range(n_types as u64) as usize,
            remaining: size,
            arrival: 0.0,
        });
    }

    // Every job completes inside the measurement window, so the report's
    // mean turnaround is the batch's.
    let (report, makespan) = event_loop(pool, scheduler, &rates, None, 0, config.jobs);
    Ok(BatchReport {
        makespan,
        throughput: total_work / makespan,
        mean_turnaround: report.mean_turnaround,
    })
}

/// Poisson arrivals of uniformly typed jobs: the latency experiment's job
/// source.
struct Arrivals<'a> {
    config: &'a LatencyConfig,
    rng: SplitMix64,
    next_id: JobId,
    /// Time of the next arrival.
    next: f64,
}

impl Arrivals<'_> {
    /// Admits the arrival due at `self.next` into `pool` and draws the
    /// next one, a gap after `now`.
    fn admit(&mut self, pool: &mut JobPool, now: f64) {
        pool.insert(Job {
            id: self.next_id,
            ty: self.rng.next_range(pool.counts().len() as u64) as usize,
            remaining: self.config.sizes.draw(&mut self.rng),
            arrival: self.next,
        });
        self.next_id += 1;
        self.next = now + self.rng.next_exp(1.0 / self.config.arrival_rate);
    }
}

/// The Section VI event loop: until `target` jobs have completed, the
/// scheduler picks the running coschedule from `pool` and time advances to
/// the next completion or arrival, whichever comes first. The first
/// `warmup` completions are not measured. Without `arrivals` the loop
/// drains `pool`. Returns the report and the time of the last event.
fn event_loop(
    mut pool: JobPool,
    scheduler: &mut dyn Scheduler,
    rates: &RateGrid,
    mut arrivals: Option<Arrivals>,
    warmup: u64,
    target: u64,
) -> (LatencyReport, f64) {
    let mut running = Running::new(rates.num_types());
    let mut now = 0.0f64;
    let mut completed_total: u64 = 0;

    // Measurement accumulators (active after warm-up).
    let mut measuring = warmup == 0;
    let mut t_start = 0.0f64;
    let mut busy_time = 0.0f64;
    let mut empty_time = 0.0f64;
    let mut jobs_time = 0.0f64;
    let mut work_done = 0.0f64;
    let mut turnaround_sum = 0.0f64;
    let mut measured_completions: u64 = 0;

    while completed_total < target {
        let next_arrival = arrivals.as_ref().map_or(f64::INFINITY, |a| a.next);
        if pool.is_empty() {
            // Idle until the next arrival.
            let Some(source) = arrivals.as_mut() else {
                break;
            };
            if measuring {
                empty_time += next_arrival - now;
            }
            now = next_arrival;
            source.admit(&mut pool, now);
            continue;
        }

        let selection = scheduler.select(&mut pool, rates.contexts(), rates);
        debug_assert!(!selection.is_empty());
        let dt = running
            .start(&pool, selection, rates)
            .min(next_arrival - now);
        let end = now + dt;

        if measuring {
            busy_time += running.len() as f64 * dt;
            jobs_time += pool.len() as f64 * dt;
            work_done += running.jobs.iter().map(|(_, r)| r * dt).sum::<f64>();
        }
        scheduler.observe(running.counts(), dt);

        running.advance(&mut pool, dt, |job| {
            completed_total += 1;
            if measuring {
                turnaround_sum += end - job.arrival;
                measured_completions += 1;
            }
            if !measuring && completed_total >= warmup {
                measuring = true;
                t_start = end;
            }
        });
        now = end;
        // Admit an arrival that falls exactly at or before the new time.
        if let Some(source) = arrivals.as_mut().filter(|a| a.next <= now + 1e-15) {
            source.admit(&mut pool, now);
        }
    }

    let elapsed = (now - t_start).max(1e-12);
    let report = LatencyReport {
        mean_turnaround: turnaround_sum / measured_completions.max(1) as f64,
        utilization: busy_time / elapsed,
        empty_fraction: empty_time / elapsed,
        throughput: work_done / elapsed,
        mean_jobs_in_system: jobs_time / elapsed,
        completed: measured_completions,
    };
    (report, now)
}

/// The running coschedule between two events: the one event step of the
/// Section VI loops.
///
/// [`Running::start`] takes a set of [`JobPool`] jobs, prices them with
/// one [`RateGrid`] lookup and returns the time to the first completion;
/// [`Running::advance`] runs them for `dt` and hands the finished jobs
/// back in start order. The set is fixed between the two calls.
///
/// # Examples
///
/// ```
/// use queueing::{ContentionModel, Job, JobPool, Running};
/// use symbiosis::RateGrid;
///
/// // Two unit-rate contexts, no contention.
/// let grid = RateGrid::new(&ContentionModel::new(vec![1.0], 0.0, 2)).unwrap();
/// let mut pool = JobPool::new(1);
/// for (id, size) in [(0, 2.0), (1, 0.5)] {
///     pool.insert(Job { id, ty: 0, remaining: size, arrival: 0.0 });
/// }
/// let mut running = Running::new(1);
/// let dt = running.start(&pool, [0, 1], &grid);
/// assert_eq!(dt, 0.5);
/// let mut done = Vec::new();
/// running.advance(&mut pool, dt, |job| done.push(job.id));
/// assert_eq!(done, [1]);
/// assert_eq!(pool.get(0).unwrap().remaining, 1.5);
/// ```
#[derive(Debug)]
pub struct Running {
    /// Each started job and its per-job rate, in start order.
    jobs: Vec<(JobId, f64)>,
    counts: Vec<u32>,
}

impl Running {
    /// An empty running set for `num_types` job types.
    pub fn new(num_types: usize) -> Self {
        Running {
            jobs: Vec::new(),
            counts: vec![0; num_types],
        }
    }

    /// Replaces the running set with the jobs `ids` of `pool`, prices them
    /// with one `rates` lookup, and returns the time until the first of
    /// them completes (infinite for an empty set).
    ///
    /// # Panics
    ///
    /// Panics if an id is not in `pool`, or the set is not a multiset of
    /// `rates`.
    pub fn start(
        &mut self,
        pool: &JobPool,
        ids: impl IntoIterator<Item = JobId>,
        rates: &RateGrid,
    ) -> f64 {
        self.jobs.clear();
        self.counts.fill(0);
        for id in ids {
            self.counts[pool.get(id).expect("started job exists").ty] += 1;
            self.jobs.push((id, 0.0));
        }
        if self.jobs.is_empty() {
            return f64::INFINITY;
        }
        let per_job = rates.per_job_rates(&self.counts);
        let mut dt_complete = f64::INFINITY;
        for (id, rate) in &mut self.jobs {
            let job = pool.get(*id).expect("started job exists");
            *rate = per_job[job.ty];
            debug_assert!(*rate > 0.0, "running jobs must progress");
            dt_complete = dt_complete.min(job.remaining / *rate);
        }
        dt_complete
    }

    /// The running multiset, as per-type counts.
    pub(crate) fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Number of running jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when nothing runs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs every job for `dt` at the rates priced by the last
    /// [`Running::start`], then removes from `pool` each job that
    /// finished (remaining work `<= 1e-12`), in start order, handing it to
    /// `done`.
    ///
    /// # Panics
    ///
    /// Panics if a running job has left `pool` since it started.
    pub fn advance(&self, pool: &mut JobPool, dt: f64, mut done: impl FnMut(Job)) {
        for &(id, r) in &self.jobs {
            let left = pool.get(id).expect("running job exists").remaining - r * dt;
            pool.set_remaining(id, left);
        }
        for &(id, _) in &self.jobs {
            if pool.get(id).expect("running job exists").remaining <= 1e-12 {
                done(pool.remove(id));
            }
        }
    }
}

/// The event step, and models that break the rate contract.
#[cfg(test)]
mod des_tests {
    use super::*;
    use crate::rates::ContentionModel;
    use crate::sched::{FcfsScheduler, MaxItScheduler, SrptScheduler};

    #[test]
    fn the_step_finishes_jobs_in_start_order_and_idles_when_empty() {
        let grid = RateGrid::new(&ContentionModel::new(vec![1.0, 0.5], 0.0, 4)).unwrap();
        let mut pool = JobPool::new(2);
        for (id, ty, size) in [(0, 0, 3.0), (1, 1, 0.5), (2, 0, 1.0), (3, 1, 2.0)] {
            pool.insert(Job {
                id,
                ty,
                remaining: size,
                arrival: 0.0,
            });
        }
        let mut running = Running::new(2);
        // Job 1 (rate 0.5) and job 2 (rate 1) both finish after one unit.
        let dt = running.start(&pool, [3, 2, 0, 1], &grid);
        assert_eq!(dt, 1.0);
        assert_eq!(running.counts(), &[2, 2]);
        let mut done = Vec::new();
        running.advance(&mut pool, dt, |job| done.push(job.id));
        assert_eq!(done, [2, 1]);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.get(3).unwrap().remaining, 1.5);

        assert_eq!(running.start(&pool, [], &grid), f64::INFINITY);
        assert!(running.is_empty());
        running.advance(&mut pool, 1.0, |_| unreachable!("nothing runs"));
        assert_eq!(pool.get(0).unwrap().remaining, 2.0);
    }

    #[test]
    fn contract_breaking_models_fail_instead_of_stalling() {
        for rate in [0.0, f64::NAN] {
            // Type 0 gets `rate` when two of its jobs co-run.
            let model = symbiosis::AnalyticModel::new(
                2,
                2,
                move |c: &[u32], _| {
                    if c == [2, 0] {
                        rate
                    } else {
                        0.5
                    }
                },
            );
            let batch = BatchConfig {
                jobs: 200,
                sizes: SizeDist::Deterministic,
                seed: 1,
            };
            let latency = LatencyConfig::default();
            let schedulers: [&mut dyn Scheduler; 3] =
                [&mut FcfsScheduler, &mut MaxItScheduler, &mut SrptScheduler];
            for sched in schedulers {
                let err = run_batch_experiment(&model, sched, &batch).unwrap_err();
                assert!(err.contains("per-job rate"), "{err}");
                let err = run_latency_experiment(&model, sched, &latency).unwrap_err();
                assert!(err.contains("per-job rate"), "{err}");
            }
        }
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::rates::ContentionModel;
    use crate::sched::{FcfsScheduler, MaxItScheduler, SrptScheduler};

    #[test]
    fn empty_batch_rejected() {
        let rates = ContentionModel::new(vec![1.0], 0.0, 2);
        let cfg = BatchConfig {
            jobs: 0,
            sizes: SizeDist::Deterministic,
            seed: 0,
        };
        assert!(run_batch_experiment(&rates, &mut FcfsScheduler, &cfg).is_err());
    }

    #[test]
    fn insensitive_batch_runs_at_capacity() {
        let rates = ContentionModel::new(vec![0.5, 0.5], 0.0, 4);
        let cfg = BatchConfig {
            jobs: 4_000,
            sizes: SizeDist::Deterministic,
            seed: 2,
        };
        let report = run_batch_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        assert!(
            (report.throughput - 2.0).abs() < 0.02,
            "{}",
            report.throughput
        );
        assert!(report.makespan > 0.0);
    }

    #[test]
    fn maxit_gains_nothing_on_a_fixed_batch_of_insensitive_jobs() {
        // The paper's core argument in miniature: with a fixed batch, the
        // fast jobs MAXIT favours run out and the slow ones dominate the
        // tail, cancelling the early advantage.
        let rates = ContentionModel::new(vec![1.0, 0.25], 0.0, 2);
        let cfg = BatchConfig {
            jobs: 6_000,
            sizes: SizeDist::Deterministic,
            seed: 5,
        };
        let fcfs = run_batch_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        let maxit = run_batch_experiment(&rates, &mut MaxItScheduler, &cfg).unwrap();
        let rel = (maxit.throughput - fcfs.throughput) / fcfs.throughput;
        assert!(
            rel.abs() < 0.02,
            "insensitive jobs: MAXIT {} vs FCFS {} must coincide",
            maxit.throughput,
            fcfs.throughput
        );
    }

    #[test]
    fn batch_turnaround_favours_srpt() {
        let rates = ContentionModel::new(vec![1.0], 0.0, 1);
        let cfg = BatchConfig {
            jobs: 400,
            sizes: SizeDist::Exponential,
            seed: 9,
        };
        let fcfs = run_batch_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        let srpt = run_batch_experiment(&rates, &mut SrptScheduler, &cfg).unwrap();
        // Same makespan (work conserving single server)...
        assert!((fcfs.makespan - srpt.makespan).abs() < 1e-6);
        // ...but SRPT strictly improves mean turnaround (Schrage).
        assert!(srpt.mean_turnaround < fcfs.mean_turnaround);
    }

    #[test]
    fn batch_is_deterministic() {
        let rates = ContentionModel::new(vec![1.0, 0.5], 0.2, 4);
        let cfg = BatchConfig {
            jobs: 1_000,
            sizes: SizeDist::Exponential,
            seed: 3,
        };
        let a = run_batch_experiment(&rates, &mut MaxItScheduler, &cfg).unwrap();
        let b = run_batch_experiment(&rates, &mut MaxItScheduler, &cfg).unwrap();
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::ContentionModel;
    use crate::sched::{FcfsScheduler, MaxItScheduler, SrptScheduler};

    fn single_server_rates() -> ContentionModel {
        ContentionModel::new(vec![1.0], 0.0, 1)
    }

    #[test]
    fn rejects_bad_parameters() {
        let rates = single_server_rates();
        let mut cfg = LatencyConfig {
            arrival_rate: 0.0,
            ..Default::default()
        };
        assert!(run_latency_experiment(&rates, &mut FcfsScheduler, &cfg).is_err());
        cfg.arrival_rate = 1.0;
        cfg.measured_jobs = 0;
        assert!(run_latency_experiment(&rates, &mut FcfsScheduler, &cfg).is_err());
    }

    #[test]
    fn mm1_turnaround_matches_theory() {
        // M/M/1: W = 1 / (mu - lambda). With mu = 1, lambda = 0.5: W = 2.
        let rates = single_server_rates();
        let cfg = LatencyConfig {
            arrival_rate: 0.5,
            measured_jobs: 60_000,
            warmup_jobs: 5_000,
            sizes: SizeDist::Exponential,
            seed: 11,
        };
        let report = run_latency_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        assert!(
            (report.mean_turnaround - 2.0).abs() < 0.1,
            "W = {}, expected ~2.0",
            report.mean_turnaround
        );
        // Stable system: throughput equals arrival rate.
        assert!((report.throughput - 0.5).abs() < 0.02);
        // Utilisation of an M/M/1 at rho = 0.5.
        assert!((report.utilization - 0.5).abs() < 0.02);
        // Empty fraction = 1 - rho for M/M/1.
        assert!((report.empty_fraction - 0.5).abs() < 0.02);
    }

    #[test]
    fn littles_law_holds() {
        let rates = ContentionModel::new(vec![1.0, 1.0], 0.0, 2);
        let cfg = LatencyConfig {
            arrival_rate: 1.2,
            measured_jobs: 40_000,
            warmup_jobs: 4_000,
            sizes: SizeDist::Exponential,
            seed: 3,
        };
        let report = run_latency_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        // L = lambda * W (use measured throughput as effective lambda).
        let lw = report.throughput * report.mean_turnaround;
        let rel = (report.mean_jobs_in_system - lw).abs() / report.mean_jobs_in_system;
        assert!(
            rel < 0.05,
            "L {} vs lambda*W {}",
            report.mean_jobs_in_system,
            lw
        );
    }

    #[test]
    fn deterministic_sizes_have_lower_variance_waiting() {
        // M/D/1 waits less than M/M/1 at equal load.
        let rates = single_server_rates();
        let base = LatencyConfig {
            arrival_rate: 0.7,
            measured_jobs: 40_000,
            warmup_jobs: 4_000,
            sizes: SizeDist::Exponential,
            seed: 5,
        };
        let exp = run_latency_experiment(&rates, &mut FcfsScheduler, &base).unwrap();
        let det_cfg = LatencyConfig {
            sizes: SizeDist::Deterministic,
            ..base
        };
        let det = run_latency_experiment(&rates, &mut FcfsScheduler, &det_cfg).unwrap();
        assert!(
            det.mean_turnaround < exp.mean_turnaround,
            "M/D/1 {} must wait less than M/M/1 {}",
            det.mean_turnaround,
            exp.mean_turnaround
        );
    }

    #[test]
    fn srpt_beats_fcfs_on_turnaround() {
        // Single server, exponential sizes: SRPT is optimal for mean
        // turnaround (Schrage's theorem).
        let rates = single_server_rates();
        let cfg = LatencyConfig {
            arrival_rate: 0.8,
            measured_jobs: 40_000,
            warmup_jobs: 4_000,
            sizes: SizeDist::Exponential,
            seed: 9,
        };
        let fcfs = run_latency_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        let srpt = run_latency_experiment(&rates, &mut SrptScheduler, &cfg).unwrap();
        assert!(
            srpt.mean_turnaround < fcfs.mean_turnaround,
            "SRPT {} must beat FCFS {}",
            srpt.mean_turnaround,
            fcfs.mean_turnaround
        );
    }

    #[test]
    fn saturation_throughput_is_capacity_bound() {
        // lambda far above capacity: achieved throughput caps at the
        // service capacity (1.0 for a single unit-rate server).
        let rates = single_server_rates();
        let cfg = LatencyConfig {
            arrival_rate: 3.0,
            measured_jobs: 20_000,
            warmup_jobs: 2_000,
            sizes: SizeDist::Deterministic,
            seed: 13,
        };
        let report = run_latency_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        assert!(
            (report.throughput - 1.0).abs() < 0.02,
            "{}",
            report.throughput
        );
        assert!(report.empty_fraction < 1e-9);
        assert!((report.utilization - 1.0).abs() < 1e-6);
    }

    #[test]
    fn work_conserving_policies_agree_on_utilization_under_low_load() {
        let rates = ContentionModel::new(vec![1.0, 0.5], 0.1, 2);
        let cfg = LatencyConfig {
            arrival_rate: 0.3,
            measured_jobs: 20_000,
            warmup_jobs: 2_000,
            sizes: SizeDist::Exponential,
            seed: 21,
        };
        let fcfs = run_latency_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        let maxit = run_latency_experiment(&rates, &mut MaxItScheduler, &cfg).unwrap();
        // At low load scheduling barely matters (paper, Section VI points
        // A/B): both see nearly the same utilisation.
        let rel = (fcfs.utilization - maxit.utilization).abs() / fcfs.utilization;
        assert!(
            rel < 0.05,
            "fcfs {} vs maxit {}",
            fcfs.utilization,
            maxit.utilization
        );
    }

    #[test]
    fn experiment_is_reproducible() {
        let rates = single_server_rates();
        let cfg = LatencyConfig::default();
        let a = run_latency_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        let b = run_latency_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        assert_eq!(a, b);
    }
}

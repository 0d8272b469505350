//! The discrete-event latency experiment (Section VI of the paper).
//!
//! Jobs arrive as a Poisson process, queue when the machine is busy, and
//! run at coschedule-dependent rates chosen by a pluggable [`Scheduler`].
//! Between events (arrival / completion) the running coschedule is fixed,
//! so time advances analytically to the next event — no time-stepping.
//!
//! # The per-call rate memo
//!
//! A run asks the same few multisets for their rates at every event: the
//! running coschedule, and every candidate MAXIT or SRPT compares. Each
//! call of [`run_latency_experiment`] and [`run_batch_experiment`] therefore
//! wraps its rate model in a private memo, built when the call starts and
//! dropped when it returns. It is the rate model both the scheduler and
//! the event loop see.
//!
//! The memo is a dense table keyed by the count vector read as a number in
//! base `K + 1`: a lookup is one multiply-add per type, with no branch on
//! the counts. (A key by multiset rank, `symbiosis::CoscheduleRank`, packs
//! the table tighter, but on a 2.1 GHz x86-64 core it measured 17.5 ns a
//! lookup against 6.7 ns, more than a `ContentionModel` evaluation costs.)
//! The table holds `(K + 1)^types` keys: 625 keys and 3 125 cells for the
//! paper's four types on four contexts.
//!
//! The memo's contract is bitwise: every `per_job_rate` and
//! `instantaneous_throughput` it returns is a value the wrapped model
//! itself returned for the same arguments, computed on first use; every
//! other [`RateModel`] method forwards unchanged. For a model whose
//! answers depend only on the multiset (every model in the workspace), a
//! run is therefore bit-for-bit the run the bare model would produce.
//! Models whose multiset space is too large to tabulate cheaply are passed
//! through unmemoised.

use std::cell::Cell;

use symbiosis::rng::SplitMix64;
use symbiosis::{RateModel, SymbiosisError, WorkloadRates};

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
/// arrival rate or zero measured jobs).
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
    let rates = RateMemo::new(rates);
    let n_types = rates.num_types();
    let contexts = rates.contexts();
    let mut rng = SplitMix64::new(config.seed);

    let mut pool = JobPool::new(n_types);
    let mut now = 0.0f64;
    let mut next_arrival = rng.next_exp(1.0 / config.arrival_rate);
    let mut next_id: u64 = 0;
    let mut counts = vec![0u32; n_types];
    let mut sel_rates = Vec::with_capacity(contexts);

    let target = config.warmup_jobs + config.measured_jobs;
    let mut completed_total: u64 = 0;

    // Measurement accumulators (active after warm-up).
    let mut measuring = config.warmup_jobs == 0;
    let mut t_start = 0.0f64;
    let mut busy_time = 0.0f64;
    let mut empty_time = 0.0f64;
    let mut jobs_time = 0.0f64;
    let mut work_done = 0.0f64;
    let mut turnaround_sum = 0.0f64;
    let mut measured_completions: u64 = 0;

    while completed_total < target {
        if pool.is_empty() {
            // Idle until the next arrival.
            let dt = next_arrival - now;
            if measuring {
                empty_time += dt;
            }
            now = next_arrival;
            pool.insert(Job {
                id: next_id,
                ty: rng.next_range(n_types as u64) as usize,
                remaining: match config.sizes {
                    SizeDist::Deterministic => 1.0,
                    SizeDist::Exponential => rng.next_exp(1.0),
                },
                arrival: now,
            });
            next_id += 1;
            next_arrival = now + rng.next_exp(1.0 / config.arrival_rate);
            continue;
        }

        let dt_complete = run_next(scheduler, &mut pool, &rates, &mut counts, &mut sel_rates);
        let dt = dt_complete.min(next_arrival - now);
        let end = now + dt;

        if measuring {
            busy_time += sel_rates.len() as f64 * dt;
            jobs_time += pool.len() as f64 * dt;
            work_done += sel_rates.iter().map(|(_, r)| r * dt).sum::<f64>();
        }
        scheduler.observe(&counts, dt);

        advance(&mut pool, &sel_rates, dt, |job| {
            completed_total += 1;
            if measuring {
                turnaround_sum += end - job.arrival;
                measured_completions += 1;
            }
            if !measuring && completed_total >= config.warmup_jobs {
                measuring = true;
                t_start = end;
            }
        });
        now = end;
        // Admit an arrival that falls exactly at or before the new time.
        if next_arrival <= now + 1e-15 {
            pool.insert(Job {
                id: next_id,
                ty: rng.next_range(n_types as u64) as usize,
                remaining: match config.sizes {
                    SizeDist::Deterministic => 1.0,
                    SizeDist::Exponential => rng.next_exp(1.0),
                },
                arrival: next_arrival,
            });
            next_id += 1;
            next_arrival = now + rng.next_exp(1.0 / config.arrival_rate);
        }
    }

    let elapsed = (now - t_start).max(1e-12);
    Ok(LatencyReport {
        mean_turnaround: turnaround_sum / measured_completions.max(1) as f64,
        utilization: busy_time / elapsed,
        empty_fraction: empty_time / elapsed,
        throughput: work_done / elapsed,
        mean_jobs_in_system: jobs_time / elapsed,
        completed: measured_completions,
    })
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
/// Returns a description of the first invalid parameter.
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
    let rates = RateMemo::new(rates);
    let n_types = rates.num_types();
    let mut rng = SplitMix64::new(config.seed);
    let mut pool = JobPool::new(n_types);
    let mut total_work = 0.0;
    for id in 0..config.jobs {
        let size = match config.sizes {
            SizeDist::Deterministic => 1.0,
            SizeDist::Exponential => rng.next_exp(1.0),
        };
        total_work += size;
        pool.insert(Job {
            id,
            ty: rng.next_range(n_types as u64) as usize,
            remaining: size,
            arrival: 0.0,
        });
    }

    let mut counts = vec![0u32; n_types];
    let mut sel_rates = Vec::with_capacity(rates.contexts());
    let mut now = 0.0f64;
    let mut turnaround_sum = 0.0f64;
    while !pool.is_empty() {
        let dt = run_next(scheduler, &mut pool, &rates, &mut counts, &mut sel_rates);
        now += dt;
        scheduler.observe(&counts, dt);
        advance(&mut pool, &sel_rates, dt, |job| {
            turnaround_sum += now - job.arrival;
        });
    }
    Ok(BatchReport {
        makespan: now,
        throughput: total_work / now,
        mean_turnaround: turnaround_sum / config.jobs as f64,
    })
}

/// One scheduling decision: asks `scheduler` for the running coschedule,
/// fills `counts` with its multiset and `sel_rates` with each selected
/// job's rate, and returns the time until its earliest completion.
fn run_next(
    scheduler: &mut dyn Scheduler,
    pool: &mut JobPool,
    rates: &RateMemo<'_>,
    counts: &mut [u32],
    sel_rates: &mut Vec<(JobId, f64)>,
) -> f64 {
    let selection = scheduler.select(pool, rates.contexts(), rates);
    debug_assert!(!selection.is_empty());
    counts.fill(0);
    for &id in &selection {
        counts[pool.get(id).expect("selected job exists").ty] += 1;
    }
    let key = rates.key(counts);
    let mut dt_complete = f64::INFINITY;
    sel_rates.clear();
    for &id in &selection {
        let job = pool.get(id).expect("selected job exists");
        let r = rates.per_job_rate_at(key, counts, job.ty);
        debug_assert!(r > 0.0, "running jobs must progress");
        dt_complete = dt_complete.min(job.remaining / r);
        sel_rates.push((id, r));
    }
    dt_complete
}

/// Runs the selected jobs for `dt`, then removes every job that finished
/// (remaining work `<= 1e-12`) in selection order, handing each to `done`.
fn advance(pool: &mut JobPool, sel_rates: &[(JobId, f64)], dt: f64, mut done: impl FnMut(Job)) {
    for &(id, r) in sel_rates {
        let left = pool.get(id).expect("selected job exists").remaining - r * dt;
        pool.set_remaining(id, left);
    }
    for &(id, _) in sel_rates {
        if pool.get(id).expect("job exists").remaining <= 1e-12 {
            done(pool.remove(id));
        }
    }
}

/// Cells a [`RateMemo`] may allocate (`keys * (types + 1)`, 2 MiB of
/// `f64`); larger multiset spaces run unmemoised.
const MEMO_CELLS: usize = 1 << 18;

/// The per-call rate memo described in the module docs.
struct RateMemo<'a> {
    model: &'a dyn RateModel,
    /// `place[ty]` = `(K + 1)^ty`, the weight of type `ty`'s count in a
    /// multiset's key; empty when the memo is disabled.
    place: Vec<usize>,
    contexts: u64,
    /// `per_job[key * types + ty]`; NaN until filled.
    per_job: Vec<Cell<f64>>,
    /// Instantaneous throughput per key; NaN until filled.
    throughput: Vec<Cell<f64>>,
}

impl<'a> RateMemo<'a> {
    fn new(model: &'a dyn RateModel) -> Self {
        let (n, k) = (model.num_types(), model.contexts());
        let mut memo = RateMemo {
            model,
            place: Vec::new(),
            contexts: k as u64,
            per_job: Vec::new(),
            throughput: Vec::new(),
        };
        let keys = (k + 1)
            .checked_pow(n as u32)
            .filter(|&keys| n > 0 && keys.saturating_mul(n + 1) <= MEMO_CELLS);
        if let Some(keys) = keys {
            memo.place = (0..n as u32).map(|ty| (k + 1).pow(ty)).collect();
            memo.per_job = (0..keys * n).map(|_| Cell::new(f64::NAN)).collect();
            memo.throughput = (0..keys).map(|_| Cell::new(f64::NAN)).collect();
        }
        memo
    }

    /// Memo key of a multiset: its counts read as digits in base `K + 1`.
    /// A multiset of at most `K` jobs has every digit `<= K`, so distinct
    /// multisets get distinct keys. `None` when the multiset is not
    /// tabulated (malformed or oversized counts, or the memo is disabled).
    fn key(&self, counts: &[u32]) -> Option<usize> {
        if counts.len() != self.place.len() {
            return None;
        }
        let (mut key, mut size) = (0usize, 0u64);
        for (&c, &place) in counts.iter().zip(&self.place) {
            key += c as usize * place;
            size += u64::from(c);
        }
        (size <= self.contexts).then_some(key)
    }

    /// `per_job_rate(counts, ty)` given `counts`' precomputed key.
    fn per_job_rate_at(&self, key: Option<usize>, counts: &[u32], ty: usize) -> f64 {
        let cell = key
            .filter(|_| ty < counts.len())
            .map(|key| &self.per_job[key * counts.len() + ty]);
        let Some(cell) = cell else {
            return self.model.per_job_rate(counts, ty);
        };
        memoised(cell, || self.model.per_job_rate(counts, ty))
    }
}

/// The cell's value, computing and storing it on first use.
fn memoised(cell: &Cell<f64>, compute: impl FnOnce() -> f64) -> f64 {
    let v = cell.get();
    if !v.is_nan() {
        return v;
    }
    let v = compute();
    cell.set(v);
    v
}

impl RateModel for RateMemo<'_> {
    fn num_types(&self) -> usize {
        self.model.num_types()
    }

    fn contexts(&self) -> usize {
        self.model.contexts()
    }

    fn per_job_rate(&self, counts: &[u32], ty: usize) -> f64 {
        self.per_job_rate_at(self.key(counts), counts, ty)
    }

    fn total_rate(&self, counts: &[u32], ty: usize) -> f64 {
        self.model.total_rate(counts, ty)
    }

    fn instantaneous_throughput(&self, counts: &[u32]) -> f64 {
        match self.key(counts) {
            Some(key) => memoised(&self.throughput[key], || {
                self.model.instantaneous_throughput(counts)
            }),
            None => self.model.instantaneous_throughput(counts),
        }
    }

    fn supports_partial(&self) -> bool {
        self.model.supports_partial()
    }

    fn full_table(&self) -> Result<WorkloadRates, SymbiosisError> {
        self.model.full_table()
    }
}

#[cfg(test)]
mod memo_tests {
    use super::*;
    use crate::rates::ContentionModel;
    use symbiosis::CoscheduleIter;

    /// Counts the calls reaching the wrapped model.
    struct Counting {
        inner: ContentionModel,
        calls: Cell<u64>,
    }

    impl RateModel for Counting {
        fn num_types(&self) -> usize {
            self.inner.num_types()
        }

        fn contexts(&self) -> usize {
            self.inner.contexts()
        }

        fn per_job_rate(&self, counts: &[u32], ty: usize) -> f64 {
            self.calls.set(self.calls.get() + 1);
            self.inner.per_job_rate(counts, ty)
        }
    }

    #[test]
    fn memo_keys_are_distinct_and_reject_oversized_multisets() {
        let model = ContentionModel::new(vec![1.0; 3], 0.0, 4);
        let memo = RateMemo::new(&model);
        let mut seen = std::collections::HashSet::new();
        for size in 1..=4 {
            for s in CoscheduleIter::new(3, size) {
                let key = memo.key(s.counts()).expect("tabulated");
                assert!(key < memo.throughput.len());
                assert!(seen.insert(key));
            }
        }
        assert_eq!(memo.key(&[2, 2, 1]), None);
        assert_eq!(memo.key(&[1, 1]), None);
        assert_eq!(memo.key(&[u32::MAX, 1, 0]), None);
    }

    #[test]
    fn memo_answers_bitwise_and_asks_the_model_once() {
        let model = Counting {
            inner: ContentionModel::new(vec![1.0, 0.7, 0.45], 0.3, 4),
            calls: Cell::new(0),
        };
        let memo = RateMemo::new(&model);
        for _ in 0..2 {
            for size in 1..=4 {
                for s in CoscheduleIter::new(3, size) {
                    let counts = s.counts();
                    assert_eq!(
                        memo.instantaneous_throughput(counts).to_bits(),
                        model.inner.instantaneous_throughput(counts).to_bits()
                    );
                    for ty in (0..3).filter(|&ty| counts[ty] > 0) {
                        assert_eq!(
                            memo.per_job_rate(counts, ty).to_bits(),
                            model.inner.per_job_rate(counts, ty).to_bits()
                        );
                    }
                }
            }
        }
        // First pass: one call per present (multiset, type) for the rate,
        // and one per present type for each throughput. Second pass: none.
        let present: u64 = (1..=4)
            .flat_map(|size| CoscheduleIter::new(3, size))
            .map(|s| s.counts().iter().filter(|&&c| c > 0).count() as u64)
            .sum();
        assert_eq!(model.calls.get(), 2 * present);
    }

    #[test]
    fn oversized_models_pass_through() {
        // 9^12 keys: far past the cell budget.
        let model = Counting {
            inner: ContentionModel::new(vec![1.0; 12], 0.1, 8),
            calls: Cell::new(0),
        };
        let memo = RateMemo::new(&model);
        let mut counts = vec![0u32; 12];
        counts[3] = 8;
        for _ in 0..3 {
            assert_eq!(
                memo.per_job_rate(&counts, 3),
                model.inner.per_job_rate(&counts, 3)
            );
        }
        assert_eq!(model.calls.get(), 3);
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

//! The order the schedulers' stratum walk relies on, and what it picks.
//!
//! On a [`RateGrid`], MAXIT, SRPT and MAXTP's fallback walk the grid's
//! stratum of the selection's size and skip the cells the pool cannot
//! supply; on any other model they enumerate [`feasible_multisets`] and
//! ask the model. The two sources give the same selections only if the
//! filtered stratum *is* that enumeration, element for element, with the
//! model's own bits in every cell. This file checks both that property
//! and the selections themselves.

use queueing::sched::feasible_multisets;
use queueing::{
    ContentionModel, Job, JobId, JobPool, MaxItScheduler, MaxTpScheduler, Scheduler, SrptScheduler,
};
use symbiosis::{AnalyticModel, RateGrid, RateModel};

/// A seeded LCG, enough for reproducible test inputs.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

/// Per-job rates that depend on load, heterogeneity, type and count, so
/// no two cells of a stratum tie by accident.
fn symbiotic(n: usize, k: usize) -> AnalyticModel<impl Fn(&[u32], usize) -> f64> {
    AnalyticModel::new(n, k, |counts: &[u32], ty| {
        let distinct = counts.iter().filter(|&&c| c > 0).count() as f64;
        let load: u32 = counts.iter().sum();
        (0.7 + 0.1 * ty as f64) * (1.0 + 0.22 * (distinct - 1.0))
            / (1.0 + 0.38 * (load as f64 - 1.0) + 0.01 * counts[ty] as f64)
    })
}

#[test]
fn filtered_strata_are_the_feasible_multisets_with_the_models_bits() {
    let mut rng = Lcg(0x57A7);
    for n in [1, 2, 3, 4, 8] {
        for k in [1, 2, 3, 4, 8] {
            let model = symbiotic(n, k);
            let grid = RateGrid::new(&model).expect("valid rates");
            assert!(grid.stratum(0).is_none() && grid.stratum(k + 1).is_none());
            for _ in 0..40 {
                let avail: Vec<u32> = (0..n).map(|_| rng.below(k as u64 + 2) as u32).collect();
                let size = 1 + rng.below(k as u64) as usize;
                let stratum = grid.stratum(size).expect("every size 1..=K is held");
                let walked: Vec<usize> = (0..stratum.len())
                    .filter(|&i| {
                        let counts = stratum.counts(i);
                        counts.iter().zip(&avail).all(|(&c, &a)| c <= a)
                    })
                    .collect();
                let enumerated = feasible_multisets(&avail, size as u32);
                assert_eq!(
                    walked.len(),
                    enumerated.len(),
                    "N={n} K={k} avail {avail:?} size {size}"
                );
                for (&i, counts) in walked.iter().zip(&enumerated) {
                    assert_eq!(stratum.counts(i), &counts[..], "N={n} K={k}");
                    assert_eq!(
                        stratum.throughput(i).to_bits(),
                        model.instantaneous_throughput(counts).to_bits(),
                        "{counts:?}"
                    );
                    for (ty, &rate) in stratum.per_job_rates(i).iter().enumerate() {
                        let want = if counts[ty] == 0 {
                            0.0
                        } else {
                            model.per_job_rate(counts, ty)
                        };
                        assert_eq!(rate.to_bits(), want.to_bits(), "{counts:?} type {ty}");
                    }
                }
            }
        }
    }
}

/// A pool of `jobs` seeded jobs. Quarter-unit remaining work and arrival
/// times make equal keys common, so tie-breaks are exercised too.
fn seeded_pool(rng: &mut Lcg, n: usize, jobs: usize) -> JobPool {
    let mut pool = JobPool::new(n);
    for id in 0..jobs as JobId {
        pool.insert(Job {
            id,
            ty: rng.below(n as u64) as usize,
            remaining: 0.25 * (1 + rng.below(8)) as f64,
            arrival: 0.25 * rng.below(6) as f64,
        });
    }
    pool
}

fn selected(
    sched: &mut dyn Scheduler,
    pool: &mut JobPool,
    contexts: usize,
    rates: &dyn RateModel,
) -> Vec<JobId> {
    let mut out = Vec::new();
    sched.select(pool, contexts, rates, &mut out);
    out
}

/// MAXTP targets over `n` types on `k` contexts: some composable from a
/// small pool, some not, so both the target path and the MAXIT fallback
/// run.
fn targets(n: usize, k: usize) -> Vec<(Vec<u32>, f64)> {
    let mut all = vec![0u32; n];
    all[0] = k as u32;
    let mut spread = vec![0u32; n];
    for j in 0..k {
        spread[j % n] += 1;
    }
    vec![(all, 0.4), (spread, 0.6)]
}

fn assert_same_picks(label: &str, model: &dyn RateModel, seed: u64) {
    let grid = RateGrid::new(model).expect("valid rates");
    let (n, k) = (model.num_types(), model.contexts());
    let mut rng = Lcg(seed);
    for round in 0..60 {
        let jobs = 1 + rng.below(3 * k as u64) as usize;
        let contexts = 1 + rng.below(k as u64) as usize;
        let mut pool = seeded_pool(&mut rng, n, jobs);
        let schedulers = || -> [Box<dyn Scheduler>; 3] {
            [
                Box::new(MaxItScheduler),
                Box::new(SrptScheduler::default()),
                Box::new(MaxTpScheduler::new(targets(n, k))),
            ]
        };
        for (mut on_grid, mut on_model) in schedulers().into_iter().zip(schedulers()) {
            let walked = selected(on_grid.as_mut(), &mut pool, contexts, &grid);
            let enumerated = selected(on_model.as_mut(), &mut pool, contexts, model);
            assert_eq!(
                walked,
                enumerated,
                "{label} round {round}: {} on {jobs} jobs, {contexts} contexts",
                on_grid.name()
            );
            // MAXTP's targets fill the whole machine, whatever `contexts`.
            if on_grid.name() != "MAXTP" || contexts == k {
                assert_eq!(walked.len(), jobs.min(contexts), "{label}: work conserving");
            }
        }
    }
}

#[test]
fn schedulers_pick_the_same_jobs_from_a_grid_and_from_the_bare_model() {
    // Equal solo rates: every same-size candidate ties on throughput, so
    // each MAXIT decision is an age tie.
    assert_same_picks(
        "tied contention",
        &ContentionModel::new(vec![1.0, 1.0, 1.0], 0.15, 4),
        1,
    );
    assert_same_picks(
        "contention",
        &ContentionModel::new(vec![1.0, 0.6, 0.35, 0.8], 0.2, 4),
        2,
    );
    for (n, k) in [(1, 1), (2, 3), (4, 4), (3, 8)] {
        assert_same_picks(&format!("symbiotic N={n} K={k}"), &symbiotic(n, k), 3);
    }
}

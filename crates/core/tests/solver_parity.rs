//! Property tests pinning the scalable solver paths against their dense
//! reference oracles on randomized (seeded) rate tables:
//!
//! * column-generation `ScheduleLp` vs the dense-tableau `solve_standard`
//!   path, across objectives and several `(N, K)` shapes;
//! * the sparse Gauss–Seidel and color-ordered SOR Markov paths vs the
//!   dense LU path;
//! * the streaming `CoscheduleIter` vs the materialised
//!   `enumerate_coschedules`, exact sequence equality.

use lp::sparse::{stationary_gauss_seidel, stationary_sor, SparseError};
use symbiosis::rng::SplitMix64;
use symbiosis::{
    enumerate_coschedules, fcfs_throughput_markov_tuned, markov_chain, markov_chain_colored,
    CoscheduleIter, Objective, ScheduleLp, WorkloadRates, DEFAULT_MARKOV_ACCEL_LIMIT,
};

/// A seeded random rate table: every present type gets a positive rate
/// drawn per `(coschedule, type)` pair, with a mild heterogeneity tilt so
/// tables are symbiosis-sensitive rather than flat.
fn random_rates(n: usize, k: usize, seed: u64) -> WorkloadRates {
    WorkloadRates::build(n, k, |s| {
        let het = s.heterogeneity() as f64 / k as f64;
        s.counts()
            .iter()
            .enumerate()
            .map(|(b, &c)| {
                if c == 0 {
                    return 0.0;
                }
                // Derive a per-(coschedule, type) stream so rates do not
                // depend on enumeration order.
                let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
                for &cnt in s.counts() {
                    h = (h ^ cnt as u64).wrapping_mul(0x100_0000_01b3);
                }
                let mut rng = SplitMix64::new(h ^ (b as u64) << 32);
                let u = rng.next_f64();
                c as f64 * (0.15 + 0.75 * u) * (0.6 + 0.4 * het)
            })
            .collect()
    })
    .expect("valid random table")
}

/// The `(N, K)` shapes the parity suite sweeps (largest: 330 states).
const SHAPES: &[(usize, usize)] = &[
    (2, 2),
    (3, 3),
    (4, 4),
    (5, 3),
    (6, 4),
    (8, 4),
    (4, 6),
    (3, 8),
    (5, 5),
];

const SEEDS: &[u64] = &[1, 0xBEEF, 0x1234_5678];

#[test]
fn colgen_throughput_matches_dense_oracle() {
    for &(n, k) in SHAPES {
        for &seed in SEEDS {
            let rates = random_rates(n, k, seed);
            let dense = ScheduleLp::with_dense_limit(&rates, usize::MAX);
            let colgen = ScheduleLp::with_dense_limit(&rates, 0);
            for obj in [Objective::MaxThroughput, Objective::MinThroughput] {
                let d = dense.solve(obj).expect("dense solves");
                let c = colgen.solve(obj).expect("colgen solves");
                assert!(
                    (d.throughput - c.throughput).abs() <= 1e-7,
                    "shape ({n},{k}) seed {seed} {obj:?}: dense {} vs colgen {}",
                    d.throughput,
                    c.throughput
                );
            }
        }
    }
}

#[test]
fn colgen_fractions_are_feasible_basic_solutions() {
    for &(n, k) in SHAPES {
        let rates = random_rates(n, k, 0xF00D);
        let colgen = ScheduleLp::with_dense_limit(&rates, 0);
        for obj in [Objective::MaxThroughput, Objective::MinThroughput] {
            let sched = colgen.solve(obj).expect("colgen solves");
            let total: f64 = sched.fractions.iter().sum();
            assert!((total - 1.0).abs() < 1e-7, "fractions sum to 1");
            assert!(sched.fractions.iter().all(|&x| x >= -1e-9), "non-negative");
            let w0 = sched.work_rate(&rates, 0);
            for b in 1..n {
                assert!(
                    (sched.work_rate(&rates, b) - w0).abs() < 1e-6,
                    "shape ({n},{k}) {obj:?}: work balances across types"
                );
            }
            // Section IV: a basic solution uses at most N coschedules.
            assert!(
                sched.selected(1e-7).len() <= n,
                "support bounded by the type count"
            );
        }
    }
}

#[test]
fn sparse_markov_matches_dense_lu() {
    for &(n, k) in SHAPES {
        for &seed in SEEDS {
            let rates = random_rates(n, k, seed);
            let dense =
                fcfs_throughput_markov_tuned(&rates, usize::MAX, DEFAULT_MARKOV_ACCEL_LIMIT)
                    .expect("dense solves");
            let sparse = fcfs_throughput_markov_tuned(&rates, 0, DEFAULT_MARKOV_ACCEL_LIMIT)
                .expect("sparse solves");
            assert!(
                (dense.throughput - sparse.throughput).abs() <= 1e-7,
                "shape ({n},{k}) seed {seed}: dense {} vs sparse {}",
                dense.throughput,
                sparse.throughput
            );
            for (i, (d, s)) in dense.fractions.iter().zip(&sparse.fractions).enumerate() {
                assert!(
                    (d - s).abs() <= 1e-7,
                    "shape ({n},{k}) seed {seed}: pi[{i}] dense {d} vs sparse {s}"
                );
            }
        }
    }
}

/// Solver tolerance / budget mirrored from the `fcfs` dispatch so the
/// oracle comparisons exercise the exact production settings.
const TOL: f64 = 1e-12;
const SWEEPS: usize = 20_000;

#[test]
fn sor_and_multicolor_match_gauss_seidel_on_markov_chains() {
    // The accelerated stationary solver must agree with the sequential
    // Gauss–Seidel oracle to 1e-9 on every real FCFS chain shape the
    // parity suite sweeps — not just on synthetic graphs — in natural
    // order and in the color order the dispatch sweeps.
    for &(n, k) in SHAPES {
        for &seed in SEEDS {
            let rates = random_rates(n, k, seed);
            let (inflow, outflow) = markov_chain(&rates);
            let gs = stationary_gauss_seidel(&inflow, &outflow, TOL, SWEEPS).expect("gs solves");
            let sor = stationary_sor(&inflow, &outflow, None, TOL, SWEEPS).expect("sor solves");
            let (colored, colored_out, position) = markov_chain_colored(&rates);
            let by_color = stationary_sor(&colored, &colored_out, Some(&position), TOL, SWEEPS)
                .expect("color-ordered sor solves");
            for i in 0..gs.len() {
                assert!(
                    (gs[i] - sor[i]).abs() <= 1e-9,
                    "shape ({n},{k}) seed {seed}: pi[{i}] gs {} vs sor {}",
                    gs[i],
                    sor[i]
                );
                assert!(
                    (gs[i] - by_color[i]).abs() <= 1e-9,
                    "shape ({n},{k}) seed {seed}: pi[{i}] gs {} vs color-ordered sor {}",
                    gs[i],
                    by_color[i]
                );
            }
        }
    }
}

#[test]
fn accelerated_dispatch_matches_dense_lu_within_1e9() {
    // End-to-end: force each sparse tier through the public dispatch and
    // pin both against the dense LU oracle.
    for &(n, k) in SHAPES {
        for &seed in SEEDS {
            let rates = random_rates(n, k, seed);
            let dense =
                fcfs_throughput_markov_tuned(&rates, usize::MAX, DEFAULT_MARKOV_ACCEL_LIMIT)
                    .expect("dense solves");
            // accel_limit = usize::MAX forces sequential Gauss–Seidel,
            // accel_limit = 0 the color-ordered SOR sweep.
            let gs = fcfs_throughput_markov_tuned(&rates, 0, usize::MAX).expect("gs solves");
            let sor = fcfs_throughput_markov_tuned(&rates, 0, 0).expect("sor solves");
            for out in [&gs, &sor] {
                assert!(
                    (dense.throughput - out.throughput).abs() <= 1e-9,
                    "shape ({n},{k}) seed {seed}: dense {} vs accelerated {}",
                    dense.throughput,
                    out.throughput
                );
                for (i, (d, s)) in dense.fractions.iter().zip(&out.fractions).enumerate() {
                    assert!(
                        (d - s).abs() <= 1e-9,
                        "shape ({n},{k}) seed {seed}: pi[{i}] dense {d} vs accelerated {s}"
                    );
                }
            }
        }
    }
}

#[test]
fn sub_accel_limit_dispatch_is_bitwise_sequential_gauss_seidel() {
    // Every parity shape is far below DEFAULT_MARKOV_ACCEL_LIMIT, so the
    // tuned dispatch with default thresholds must be the *same
    // computation* as an explicit sequential Gauss–Seidel run: bitwise
    // equality, not tolerance agreement.
    for &(n, k) in SHAPES {
        let rates = random_rates(n, k, 11);
        assert!(rates.coschedules().len() <= DEFAULT_MARKOV_ACCEL_LIMIT);
        let via_default =
            fcfs_throughput_markov_tuned(&rates, 0, DEFAULT_MARKOV_ACCEL_LIMIT).unwrap();
        let via_gs = fcfs_throughput_markov_tuned(&rates, 0, usize::MAX).unwrap();
        assert_eq!(via_default, via_gs, "shape ({n},{k}): sparse tier fallback");
    }
}

#[test]
fn chain_level_error_cases_surface_from_every_accelerated_solver() {
    // An absorbing (all-zero outflow) chain is degenerate; a one-sweep
    // budget cannot converge a real chain. SOR in either sweep order must
    // report the same error classes as sequential Gauss–Seidel.
    let rates = random_rates(4, 4, 3);
    let (inflow, outflow) = markov_chain(&rates);
    let (colored, colored_out, position) = markov_chain_colored(&rates);
    let absorbing = vec![0.0; outflow.len()];
    assert!(matches!(
        stationary_gauss_seidel(&inflow, &absorbing, TOL, SWEEPS),
        Err(SparseError::Degenerate(_))
    ));
    assert!(matches!(
        stationary_sor(&inflow, &absorbing, None, TOL, SWEEPS),
        Err(SparseError::Degenerate(_))
    ));
    assert!(matches!(
        stationary_sor(&colored, &absorbing, Some(&position), TOL, SWEEPS),
        Err(SparseError::Degenerate(_))
    ));
    assert!(matches!(
        stationary_sor(&inflow, &outflow, None, TOL, 1),
        Err(SparseError::NoConvergence(_))
    ));
    assert!(matches!(
        stationary_sor(&colored, &colored_out, Some(&position), TOL, 1),
        Err(SparseError::NoConvergence(_))
    ));
}

#[test]
fn default_dispatch_is_bitwise_dense_below_the_threshold() {
    // The public functions must keep producing the historical numbers for
    // every pre-existing size: same path, bitwise-identical results.
    for &(n, k) in &[(4, 4), (8, 4)] {
        let rates = random_rates(n, k, 7);
        let via_default = symbiosis::optimal_schedule(&rates, Objective::MaxThroughput).unwrap();
        let via_dense = ScheduleLp::with_dense_limit(&rates, usize::MAX)
            .solve(Objective::MaxThroughput)
            .unwrap();
        assert_eq!(via_default, via_dense, "shape ({n},{k}) LP path");
        let m_default = symbiosis::fcfs_throughput_markov(&rates).unwrap();
        let m_dense =
            fcfs_throughput_markov_tuned(&rates, usize::MAX, DEFAULT_MARKOV_ACCEL_LIMIT).unwrap();
        assert_eq!(m_default, m_dense, "shape ({n},{k}) Markov path");
    }
}

#[test]
fn coschedule_stream_equals_materialised_enumeration() {
    for n in 1..=8 {
        for k in 1..=6 {
            let streamed: Vec<_> = CoscheduleIter::new(n, k).collect();
            assert_eq!(
                streamed,
                enumerate_coschedules(n, k),
                "exact sequence equality for n={n} k={k}"
            );
            assert_eq!(streamed.len(), CoscheduleIter::count_total(n, k));
        }
    }
}

#[test]
fn colgen_opens_the_n12_k8_frontier() {
    // The acceptance shape itself: 75 582 coschedules, solved lazily. The
    // dense oracle is out of reach here, so pin feasibility and the LP
    // bound ordering instead (oracle parity is pinned at tractable sizes
    // above).
    let rates = random_rates(12, 8, 42);
    assert_eq!(rates.coschedules().len(), 75_582);
    let lp = ScheduleLp::new(&rates);
    assert!(!lp.is_dense(), "N=12/K=8 must take the colgen path");
    let best = lp.solve(Objective::MaxThroughput).expect("colgen solves");
    let worst = lp.solve(Objective::MinThroughput).expect("colgen solves");
    assert!(best.throughput >= worst.throughput - 1e-9);
    for sched in [&best, &worst] {
        let total: f64 = sched.fractions.iter().sum();
        assert!((total - 1.0).abs() < 1e-7);
        let w0 = sched.work_rate(&rates, 0);
        for b in 1..12 {
            assert!((sched.work_rate(&rates, b) - w0).abs() < 1e-6);
        }
        assert!(sched.selected(1e-7).len() <= 12);
    }
}

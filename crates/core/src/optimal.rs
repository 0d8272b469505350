//! Optimal (and worst) average throughput via linear programming —
//! Section IV of the paper.
//!
//! Let `x_s` be the fraction of time the machine spends in coschedule `s`.
//! The average throughput is `sum_s x_s * it(s)`; the constraints are
//! `x_s >= 0`, `sum_s x_s = 1`, and — because every job type contributes the
//! same total amount of work — for every type `b > 0`:
//! `sum_s x_s * r_b(s) = sum_s x_s * r_0(s)` (Equation 5).
//!
//! Maximising gives the theoretically best scheduler; minimising gives the
//! worst. A fundamental property of basic LP solutions bounds the number of
//! coschedules with non-zero time fraction by the number of equality
//! constraints, i.e. by the number of job types.
//!
//! # Solver selection
//!
//! The LP has one column per coschedule but only `N` rows. Up to
//! [`DEFAULT_LP_DENSE_LIMIT`] coschedules it is solved on the dense
//! two-phase tableau ([`lp::LinearProgram`]), bitwise identical to the
//! historical path; beyond that — N = 12 on K = 8 contexts is 75 582
//! columns — [`ScheduleLp`] switches to revised simplex with lazy column
//! pricing ([`lp::revised`]): the master holds only the rows and basis,
//! and candidate coschedule columns are priced on demand from the rate
//! table. The homogeneous coschedules form a natural feasible starting
//! basis. Both objectives share one [`ScheduleLp`] (the `it` vector and
//! balance rows are built once).

use lp::revised::{solve_colgen, BasisColumn, PricedColumn, SparseCol};
use lp::{LinearProgram, Relation, SolveError};

use crate::coschedule::Coschedule;
use crate::error::SymbiosisError;
use crate::rates::WorkloadRates;

/// Largest coschedule count solved on the dense tableau; larger tables go
/// through column generation. The default keeps every historical scenario
/// (N <= 8 on K = 4 is 330 coschedules; combos of 12 benchmarks at K = 4
/// are 1365) on the bitwise-stable dense path.
pub const DEFAULT_LP_DENSE_LIMIT: usize = 2048;

/// Optimisation direction for the scheduling LP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// The theoretically best scheduler (paper's "optimal").
    MaxThroughput,
    /// The theoretically worst scheduler (used for normalisation in
    /// Figures 2, 3 and 6).
    MinThroughput,
}

/// A solved schedule: throughput plus the time fraction of each coschedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Long-term average throughput in weighted instructions per cycle.
    pub throughput: f64,
    /// Time fraction per coschedule, aligned with
    /// [`WorkloadRates::coschedules`]; sums to 1.
    pub fractions: Vec<f64>,
}

impl Schedule {
    /// Indices of coschedules with time fraction above `tol`.
    pub fn selected(&self, tol: f64) -> Vec<usize> {
        self.fractions
            .iter()
            .enumerate()
            .filter(|(_, &x)| x > tol)
            .map(|(i, _)| i)
            .collect()
    }

    /// Work executed per unit time for job type `b` under this schedule.
    pub fn work_rate(&self, rates: &WorkloadRates, b: usize) -> f64 {
        self.fractions
            .iter()
            .enumerate()
            .map(|(si, &x)| x * rates.rate(si, b))
            .sum()
    }
}

/// The Section IV scheduling LP with its column data built once, solvable
/// for either [`Objective`] — the shared core behind [`optimal_schedule`],
/// [`throughput_bounds`] and the `session` crate (which previously rebuilt
/// the whole program per objective).
///
/// # Examples
///
/// ```
/// use symbiosis::{Objective, ScheduleLp, WorkloadRates};
///
/// let rates = WorkloadRates::build(2, 2, |s| {
///     s.counts().iter().map(|&c| c as f64 * 0.5).collect()
/// })?;
/// let lp = ScheduleLp::new(&rates);
/// let best = lp.solve(Objective::MaxThroughput)?;
/// let worst = lp.solve(Objective::MinThroughput)?;
/// assert!(best.throughput >= worst.throughput);
/// # Ok::<(), symbiosis::SymbiosisError>(())
/// ```
pub struct ScheduleLp<'a> {
    rates: &'a WorkloadRates,
    /// Instantaneous throughput per coschedule — the objective row.
    it: Vec<f64>,
    /// Dense balance rows `r_b(s) - r_0(s)` (one per type `b > 0`), built
    /// only when the dense path applies.
    balance: Option<Vec<Vec<f64>>>,
    dense_limit: usize,
}

impl<'a> ScheduleLp<'a> {
    /// Prepares the LP with the default solver threshold
    /// ([`DEFAULT_LP_DENSE_LIMIT`]).
    pub fn new(rates: &'a WorkloadRates) -> Self {
        Self::with_dense_limit(rates, DEFAULT_LP_DENSE_LIMIT)
    }

    /// Prepares the LP with an explicit dense-tableau threshold: tables
    /// with more than `dense_limit` coschedules are solved by column
    /// generation. `0` forces column generation, `usize::MAX` forces the
    /// dense tableau.
    pub fn with_dense_limit(rates: &'a WorkloadRates, dense_limit: usize) -> Self {
        let n_s = rates.coschedules().len();
        let it: Vec<f64> = (0..n_s)
            .map(|si| rates.instantaneous_throughput(si))
            .collect();
        let balance = if n_s <= dense_limit {
            let n_types = rates.num_types();
            Some(
                (1..n_types)
                    .map(|b| {
                        (0..n_s)
                            .map(|si| rates.rate(si, b) - rates.rate(si, 0))
                            .collect()
                    })
                    .collect(),
            )
        } else {
            None
        };
        ScheduleLp {
            rates,
            it,
            balance,
            dense_limit,
        }
    }

    /// Whether solves go through the dense tableau (`true`) or column
    /// generation (`false`).
    pub fn is_dense(&self) -> bool {
        self.rates.coschedules().len() <= self.dense_limit
    }

    /// Solves for one objective.
    ///
    /// # Errors
    ///
    /// Returns [`SymbiosisError::Lp`] if the LP is infeasible (cannot
    /// happen for valid rate tables: homogeneous coschedules always
    /// balance work) or numerically fails.
    pub fn solve(&self, objective: Objective) -> Result<Schedule, SymbiosisError> {
        let _span = obs::span!("optimal.lp_solve");
        if self.is_dense() {
            obs::count!("solver.lp.dense", 1);
            self.solve_dense(objective)
        } else {
            obs::count!("solver.lp.colgen", 1);
            self.solve_colgen(objective)
        }
    }

    /// The historical dense-tableau path (bitwise identical to pre-colgen
    /// releases).
    fn solve_dense(&self, objective: Objective) -> Result<Schedule, SymbiosisError> {
        let n_s = self.it.len();
        let balance = self.balance.as_ref().expect("dense path built rows");
        let mut program = match objective {
            Objective::MaxThroughput => LinearProgram::maximize(&self.it),
            Objective::MinThroughput => LinearProgram::minimize(&self.it),
        };
        // Time fractions form a distribution.
        program.constraint(&vec![1.0; n_s], Relation::Eq, 1.0);
        // Equal total work per job type (Equation 5): r_b - r_0 balances.
        for row in balance {
            program.constraint(row, Relation::Eq, 0.0);
        }
        let solution = program.solve()?;
        Ok(Schedule {
            throughput: solution.objective,
            fractions: solution.values,
        })
    }

    /// The column-generation path: revised simplex over lazily priced
    /// coschedule columns, started from the homogeneous-coschedule basis.
    fn solve_colgen(&self, objective: Objective) -> Result<Schedule, SymbiosisError> {
        let rates = self.rates;
        let n_types = rates.num_types();
        let n_s = self.it.len();
        let sign = match objective {
            Objective::MaxThroughput => -1.0, // minimise -it
            Objective::MinThroughput => 1.0,
        };

        // One row for sum(x) = 1 plus a balance row per type b > 0.
        let mut b_vec = vec![0.0; n_types];
        b_vec[0] = 1.0;

        // Homogeneous coschedules form a feasible starting basis: mixing
        // "all jobs of type t" fractions inversely proportional to their
        // rates balances work exactly.
        let basis: Vec<BasisColumn> = (0..n_types)
            .map(|t| {
                let mut counts = vec![0u32; n_types];
                counts[t] = rates.contexts() as u32;
                let si = rates
                    .index_of(&Coschedule::from_counts(counts))
                    .expect("homogeneous coschedule is always in the table");
                BasisColumn {
                    id: si,
                    cost: sign * self.it[si],
                    column: self.column(si),
                }
            })
            .collect();

        // Dantzig pricing over the streamed coschedule columns: most
        // negative reduced cost, lowest index on ties (deterministic).
        let rows = rates.rate_rows();
        let pricer = |duals: &[f64]| -> Option<PricedColumn> {
            let mut best: Option<(usize, f64)> = None;
            for (si, row) in rows.iter().enumerate() {
                let r0 = row[0];
                let mut reduced = sign * self.it[si] - duals[0];
                for (b, dual) in duals.iter().enumerate().skip(1) {
                    reduced -= dual * (row[b] - r0);
                }
                if reduced < -1e-9 {
                    let better = match best {
                        None => true,
                        Some((_, r)) => reduced < r,
                    };
                    if better {
                        best = Some((si, reduced));
                    }
                }
            }
            best.map(|(si, _)| PricedColumn {
                id: si,
                cost: sign * self.it[si],
                column: self.column(si),
            })
        };

        let solution = solve_colgen(&b_vec, basis, pricer)
            .map_err(|e| SymbiosisError::Lp(SolveError::from(e)))?;
        let mut fractions = vec![0.0; n_s];
        for (si, x) in solution.basic {
            fractions[si] += x;
        }
        Ok(Schedule {
            throughput: sign * solution.objective,
            fractions,
        })
    }

    /// The sparse constraint column of coschedule `si`.
    fn column(&self, si: usize) -> SparseCol {
        let row = &self.rates.rate_rows()[si];
        let r0 = row[0];
        let mut entries = Vec::with_capacity(self.rates.num_types());
        entries.push((0u32, 1.0));
        for (b, &rb) in row.iter().enumerate().skip(1) {
            let delta = rb - r0;
            if delta != 0.0 {
                entries.push((b as u32, delta));
            }
        }
        SparseCol::new(entries)
    }
}

/// Solves the Section IV scheduling LP for the given objective.
///
/// Dispatches between the dense tableau and column generation at
/// [`DEFAULT_LP_DENSE_LIMIT`] coschedules; use [`ScheduleLp`] directly to
/// pick the threshold or to solve both objectives from one set of column
/// data.
///
/// # Errors
///
/// Returns [`SymbiosisError::Lp`] if the LP is infeasible (cannot happen for
/// valid rate tables: homogeneous coschedules always balance work) or
/// numerically fails.
///
/// # Examples
///
/// ```
/// use symbiosis::{optimal_schedule, Objective, WorkloadRates};
///
/// let rates = WorkloadRates::build(2, 2, |s| {
///     // Type A runs at 0.8 per job, type B at 0.4; no interference.
///     let per_job = [0.8, 0.4];
///     s.counts().iter().zip(per_job).map(|(&c, r)| c as f64 * r).collect()
/// })?;
/// let best = optimal_schedule(&rates, Objective::MaxThroughput)?;
/// let worst = optimal_schedule(&rates, Objective::MinThroughput)?;
/// assert!(best.throughput >= worst.throughput);
/// # Ok::<(), symbiosis::SymbiosisError>(())
/// ```
pub fn optimal_schedule(
    rates: &WorkloadRates,
    objective: Objective,
) -> Result<Schedule, SymbiosisError> {
    ScheduleLp::new(rates).solve(objective)
}

/// Convenience: both LP bounds at once, sharing one set of LP column data
/// (the `it` vector and balance rows are built a single time).
///
/// # Errors
///
/// Propagates [`SymbiosisError`] from either solve.
pub fn throughput_bounds(rates: &WorkloadRates) -> Result<(Schedule, Schedule), SymbiosisError> {
    let lp = ScheduleLp::new(rates);
    Ok((
        lp.solve(Objective::MinThroughput)?,
        lp.solve(Objective::MaxThroughput)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Insensitive jobs: per-job rate independent of co-runners.
    fn insensitive(per_job: &'static [f64], contexts: usize) -> WorkloadRates {
        WorkloadRates::build(per_job.len(), contexts, move |s| {
            s.counts()
                .iter()
                .zip(per_job)
                .map(|(&c, &r)| c as f64 * r)
                .collect()
        })
        .unwrap()
    }

    #[test]
    fn insensitive_equal_jobs_fix_throughput() {
        // All types identical and insensitive: every schedule achieves the
        // same throughput, so max == min == K * rate.
        let rates = insensitive(&[0.5, 0.5, 0.5, 0.5], 4);
        let (worst, best) = throughput_bounds(&rates).unwrap();
        assert!((best.throughput - 2.0).abs() < 1e-7);
        assert!((worst.throughput - 2.0).abs() < 1e-7);
    }

    #[test]
    fn insensitive_unequal_jobs_follow_harmonic_formula() {
        // Linear-bottleneck analysis (Section V-C1b): for insensitive jobs
        // the average throughput is N / sum_b (1/(K*rate_b)) and is
        // scheduler independent. With rates 0.8 and 0.4 on K=2:
        // AT = 2 / (1/1.6 + 1/0.8) = 1.0666...
        let rates = insensitive(&[0.8, 0.4], 2);
        let (worst, best) = throughput_bounds(&rates).unwrap();
        let expected = 2.0 / (1.0 / 1.6 + 1.0 / 0.8);
        assert!(
            (best.throughput - expected).abs() < 1e-7,
            "{}",
            best.throughput
        );
        assert!((worst.throughput - expected).abs() < 1e-7);
    }

    #[test]
    fn symbiotic_pairing_is_exploited() {
        // Two types on 2 contexts. Mixed coschedule AB runs at full speed
        // (no interference); homogeneous pairs thrash (half speed each).
        let rates = WorkloadRates::build(2, 2, |s| {
            let c = s.counts();
            if c[0] == 1 && c[1] == 1 {
                vec![1.0, 1.0]
            } else {
                c.iter().map(|&x| x as f64 * 0.5).collect()
            }
        })
        .unwrap();
        let (worst, best) = throughput_bounds(&rates).unwrap();
        // Best: always run AB at it = 2. Worst: alternate AA/BB at it = 1.
        assert!((best.throughput - 2.0).abs() < 1e-7);
        assert!((worst.throughput - 1.0).abs() < 1e-7);
        // The optimal schedule indeed selects only AB.
        let ab = rates
            .index_of(&crate::Coschedule::from_counts(vec![1, 1]))
            .unwrap();
        assert!((best.fractions[ab] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn fractions_form_distribution_and_balance_work() {
        let rates = WorkloadRates::build(3, 3, |s| {
            let per_job = [1.0, 0.6, 0.3];
            let k = s.size() as f64;
            s.counts()
                .iter()
                .zip(per_job)
                .map(|(&c, r)| c as f64 * r * (1.0 - 0.05 * (k - 1.0)))
                .collect()
        })
        .unwrap();
        let best = optimal_schedule(&rates, Objective::MaxThroughput).unwrap();
        let total: f64 = best.fractions.iter().sum();
        assert!((total - 1.0).abs() < 1e-7);
        let w0 = best.work_rate(&rates, 0);
        for b in 1..3 {
            assert!(
                (best.work_rate(&rates, b) - w0).abs() < 1e-6,
                "work must balance across types"
            );
        }
    }

    #[test]
    fn support_bounded_by_type_count() {
        // Section IV: an optimal basic solution selects at most N coschedules.
        let rates = WorkloadRates::build(4, 4, |s| {
            let per_job = [1.1, 0.8, 0.5, 0.3];
            let het = s.heterogeneity() as f64;
            s.counts()
                .iter()
                .zip(per_job)
                .map(|(&c, r)| c as f64 * r * (0.7 + 0.1 * het))
                .collect()
        })
        .unwrap();
        for obj in [Objective::MaxThroughput, Objective::MinThroughput] {
            let sched = optimal_schedule(&rates, obj).unwrap();
            assert!(
                sched.selected(1e-7).len() <= 4,
                "basic solution uses at most N coschedules"
            );
        }
    }

    #[test]
    fn max_dominates_min_on_random_like_tables() {
        let rates = WorkloadRates::build(4, 4, |s| {
            // Pseudo-irregular but deterministic rates.
            s.counts()
                .iter()
                .enumerate()
                .map(|(b, &c)| {
                    if c == 0 {
                        0.0
                    } else {
                        let x = (si_hash(s.counts(), b) % 100) as f64 / 100.0;
                        c as f64 * (0.2 + 0.6 * x) / s.size() as f64
                    }
                })
                .collect()
        })
        .unwrap();
        let (worst, best) = throughput_bounds(&rates).unwrap();
        assert!(best.throughput >= worst.throughput - 1e-9);
    }

    fn si_hash(counts: &[u32], b: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &c in counts {
            h = (h ^ c as u64).wrapping_mul(0x100_0000_01b3);
        }
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    }

    #[test]
    fn single_type_workload_has_unique_throughput() {
        let rates = WorkloadRates::build(1, 4, |s| vec![s.size() as f64 * 0.25]).unwrap();
        let (worst, best) = throughput_bounds(&rates).unwrap();
        assert!((best.throughput - 1.0).abs() < 1e-9);
        assert!((worst.throughput - 1.0).abs() < 1e-9);
    }

    /// Forces both solver paths on the same table and compares.
    fn assert_paths_agree(rates: &WorkloadRates, tol: f64) {
        let dense = ScheduleLp::with_dense_limit(rates, usize::MAX);
        let colgen = ScheduleLp::with_dense_limit(rates, 0);
        assert!(dense.is_dense());
        assert!(!colgen.is_dense());
        for obj in [Objective::MaxThroughput, Objective::MinThroughput] {
            let d = dense.solve(obj).unwrap();
            let c = colgen.solve(obj).unwrap();
            assert!(
                (d.throughput - c.throughput).abs() <= tol,
                "objective {obj:?}: dense {} vs colgen {}",
                d.throughput,
                c.throughput
            );
            // The colgen solution must itself be feasible.
            let total: f64 = c.fractions.iter().sum();
            assert!((total - 1.0).abs() < 1e-7);
            assert!(c.fractions.iter().all(|&x| x >= -1e-9));
            let w0 = c.work_rate(rates, 0);
            for b in 1..rates.num_types() {
                assert!((c.work_rate(rates, b) - w0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn colgen_matches_dense_oracle_on_small_tables() {
        let symbiotic = WorkloadRates::build(4, 4, |s| {
            let per_job = [1.1, 0.8, 0.5, 0.3];
            let het = s.heterogeneity() as f64;
            s.counts()
                .iter()
                .zip(per_job)
                .map(|(&c, r)| c as f64 * r * (0.7 + 0.1 * het))
                .collect()
        })
        .unwrap();
        assert_paths_agree(&symbiotic, 1e-7);
        assert_paths_agree(&insensitive(&[0.9, 0.4, 0.7], 3), 1e-7);
        assert_paths_agree(&insensitive(&[0.5], 4), 1e-9);
    }

    #[test]
    fn default_threshold_keeps_historical_sizes_dense() {
        let rates = insensitive(&[0.9, 0.4, 0.7], 3);
        assert!(ScheduleLp::new(&rates).is_dense());
        use crate::coschedule::CoscheduleIter;
        assert!(
            CoscheduleIter::count_total(8, 4) <= DEFAULT_LP_DENSE_LIMIT,
            "N=8/K=4 stays dense"
        );
        assert!(
            CoscheduleIter::count_total(12, 4) <= DEFAULT_LP_DENSE_LIMIT,
            "12-benchmark K=4 stays dense"
        );
        assert!(
            CoscheduleIter::count_total(12, 8) > DEFAULT_LP_DENSE_LIMIT,
            "N=12/K=8 goes colgen"
        );
    }
}

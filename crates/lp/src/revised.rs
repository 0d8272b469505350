//! Revised simplex with sparse columns and lazy column generation.
//!
//! The dense tableau solver in [`crate::simplex`] instantiates one column
//! per variable up front — the right tool while the column count stays in
//! the hundreds, and the workspace's reference oracle at every size. The
//! Section-IV scheduling LP, however, has one variable per *coschedule*:
//! `C(N+K-1, K)` columns, which is 75 582 at N = 12 job types on K = 8
//! contexts. Only the N + 1 rows and the current basis ever matter at
//! once, so this module implements the classic cure (column generation
//! over packing configurations, as in Shafiee & Ghaderi's scheduling
//! formulation): a revised simplex that holds
//!
//! * the dense `m x m` basis inverse (m = row count, small),
//! * the basic columns in sparse [`SparseCol`] form, and
//! * a **pricing callback** that, given the current duals `y`, returns a
//!   column with negative reduced cost `c_j - y . a_j` — or `None` when no
//!   such column exists, proving optimality.
//!
//! Candidate columns are therefore *priced lazily*: the full constraint
//! matrix is never materialised. The caller supplies a feasible starting
//! basis; the scheduling LP has a natural one (the N homogeneous
//! coschedules — see `symbiosis::optimal`). When to pick this solver over
//! the dense tableau is discussed in the crate docs ([`crate`]).
//!
//! # Examples
//!
//! `max x0 + 2 x1` s.t. `x0 + x1 <= 1` with an explicit two-column pool
//! priced lazily (minimise the negated objective):
//!
//! ```
//! use lp::revised::{solve_colgen, BasisColumn, PricedColumn, SparseCol};
//!
//! // Columns: x0 = [1], cost -1; x1 = [1], cost -2; slack s = [1], cost 0.
//! let pool = [(-1.0, 1.0), (-2.0, 1.0)];
//! let start = vec![BasisColumn {
//!     id: 99, // slack
//!     cost: 0.0,
//!     column: SparseCol::from_dense(&[1.0]),
//! }];
//! let sol = solve_colgen(
//!     &[1.0],
//!     start,
//!     |duals: &[f64]| {
//!         pool.iter()
//!             .enumerate()
//!             .map(|(id, &(cost, coef))| (id, cost - duals[0] * coef, cost, coef))
//!             .filter(|&(_, reduced, _, _)| reduced < -1e-9)
//!             .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
//!             .map(|(id, _, cost, coef)| PricedColumn {
//!                 id,
//!                 cost,
//!                 column: SparseCol::from_dense(&[coef]),
//!             })
//!     },
//! )
//! .unwrap();
//! assert!((sol.objective + 2.0).abs() < 1e-9); // x1 = 1
//! ```

use std::fmt;

use crate::dense::Matrix;
use crate::linsys::Lu;
use crate::simplex::SimplexError;

/// A sparse column: `(row, value)` entries, rows strictly increasing.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseCol {
    entries: Vec<(u32, f64)>,
}

impl SparseCol {
    /// Builds from entries (any order; zeros kept only if explicit).
    ///
    /// # Panics
    ///
    /// Panics if a row index repeats.
    pub fn new(mut entries: Vec<(u32, f64)>) -> Self {
        entries.sort_unstable_by_key(|&(r, _)| r);
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate row index in sparse column"
        );
        SparseCol { entries }
    }

    /// Builds from a dense slice, dropping exact zeros.
    pub fn from_dense(dense: &[f64]) -> Self {
        SparseCol {
            entries: dense
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0)
                .map(|(r, &v)| (r as u32, v))
                .collect(),
        }
    }

    /// The `(row, value)` entries, rows ascending.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Dot product with a dense vector.
    ///
    /// # Panics
    ///
    /// Panics if an entry's row is out of range for `x`.
    pub fn dot(&self, x: &[f64]) -> f64 {
        self.entries.iter().map(|&(r, v)| v * x[r as usize]).sum()
    }

    /// Scatters into a dense vector of length `m`.
    pub fn to_dense(&self, m: usize) -> Vec<f64> {
        let mut out = vec![0.0; m];
        for &(r, v) in &self.entries {
            out[r as usize] = v;
        }
        out
    }
}

/// A candidate column returned by the pricing callback.
#[derive(Debug, Clone, PartialEq)]
pub struct PricedColumn {
    /// Caller-chosen identifier (e.g. the coschedule index); reported back
    /// in [`ColGenSolution::basic`].
    pub id: usize,
    /// Objective coefficient (minimisation sense).
    pub cost: f64,
    /// The constraint-matrix column.
    pub column: SparseCol,
}

/// One column of the starting basis.
#[derive(Debug, Clone, PartialEq)]
pub struct BasisColumn {
    /// Caller-chosen identifier.
    pub id: usize,
    /// Objective coefficient (minimisation sense).
    pub cost: f64,
    /// The constraint-matrix column.
    pub column: SparseCol,
}

/// Tolerance: basic values above `-EPS` count as non-negative, direction
/// entries at or below `EPS` as non-positive, and ratios within `EPS` tie.
const EPS: f64 = 1e-9;
/// Hard cap on simplex pivots.
const MAX_ITERS: usize = 50_000;
/// Recompute the basis inverse from scratch every this many pivots to
/// bound drift of the product-form updates.
const REFACTOR_EVERY: usize = 64;

/// Outcome of a successful column-generation solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ColGenSolution {
    /// Minimised objective `c_B . x_B`.
    pub objective: f64,
    /// `(id, value)` of each basic variable with the caller's column ids.
    pub basic: Vec<(usize, f64)>,
    /// Optimal duals `y` (one per row), for reduced-cost certificates.
    pub duals: Vec<f64>,
    /// Simplex pivots performed.
    pub iterations: usize,
}

/// Internal error for a singular starting basis (mapped to
/// [`SimplexError::NumericalFailure`]).
#[derive(Debug)]
struct SingularBasis;

impl fmt::Display for SingularBasis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "starting basis is singular")
    }
}

/// Solves `min c . x` s.t. `A x = b`, `x >= 0` by revised simplex with a
/// pricing callback instead of an explicit column list.
///
/// `basis` must hold exactly `b.len()` columns forming a *feasible* basis
/// (`B^-1 b >= 0`); the solver verifies feasibility up to `1e-9`.
/// `price(duals)` must return a column whose reduced cost
/// `cost - duals . column` is below `-1e-9` (ideally the most
/// negative, with ties broken towards the lowest id, which keeps the
/// iteration deterministic), or `None` when none exists. Basic columns
/// have zero reduced cost up to round-off, so a correct pricer never
/// returns them.
///
/// # Errors
///
/// * [`SimplexError::Unbounded`] if an improving ray is found.
/// * [`SimplexError::NumericalFailure`] for a singular/infeasible starting
///   basis or an exhausted budget of 50 000 pivots.
pub fn solve_colgen<P>(
    b: &[f64],
    basis: Vec<BasisColumn>,
    mut price: P,
) -> Result<ColGenSolution, SimplexError>
where
    P: FnMut(&[f64]) -> Option<PricedColumn>,
{
    let m = b.len();
    assert!(m > 0, "need at least one constraint row");
    assert_eq!(
        basis.len(),
        m,
        "starting basis must have one column per row"
    );

    let mut basis = basis;
    let mut binv = invert_basis(&basis, m).map_err(|_| SimplexError::NumericalFailure)?;
    // x_B = B^-1 b.
    let mut xb: Vec<f64> = mat_vec(&binv, b);
    if xb.iter().any(|&x| x < -EPS) {
        return Err(SimplexError::NumericalFailure);
    }

    let mut iterations = 0usize;
    loop {
        if iterations >= MAX_ITERS {
            return Err(SimplexError::NumericalFailure);
        }
        // Duals y = c_B^T B^-1.
        let duals: Vec<f64> = (0..m)
            .map(|j| (0..m).map(|i| basis[i].cost * binv[i][j]).sum())
            .collect();
        let Some(entering) = price(&duals) else {
            // Optimal: no column prices out.
            obs::count!("lp.colgen.pricing_rounds", iterations as u64 + 1);
            let objective = basis.iter().zip(&xb).map(|(col, &x)| col.cost * x).sum();
            let basic = basis
                .iter()
                .zip(&xb)
                .map(|(col, &x)| (col.id, x.max(0.0)))
                .collect();
            return Ok(ColGenSolution {
                objective,
                basic,
                duals,
                iterations,
            });
        };
        // Direction d = B^-1 a_j.
        let a_dense = entering.column.to_dense(m);
        let d: Vec<f64> = mat_vec(&binv, &a_dense);
        // Ratio test with Bland tie-breaking on the basis id.
        let mut leaving: Option<(usize, f64)> = None;
        for (i, &di) in d.iter().enumerate() {
            if di > EPS {
                let ratio = xb[i].max(0.0) / di;
                let better = match leaving {
                    None => true,
                    Some((best_i, best_r)) => {
                        ratio < best_r - EPS
                            || (ratio < best_r + EPS && basis[i].id < basis[best_i].id)
                    }
                };
                if better {
                    leaving = Some((i, ratio));
                }
            }
        }
        let Some((row, step)) = leaving else {
            return Err(SimplexError::Unbounded);
        };
        // Pivot: update x_B, swap the basis column, update B^-1 in product
        // form (row `row` scaled by 1/d_r, eliminated from the others).
        for (i, &di) in d.iter().enumerate() {
            if i != row {
                xb[i] -= step * di;
                if xb[i] < 0.0 {
                    xb[i] = 0.0;
                }
            }
        }
        xb[row] = step;
        basis[row] = BasisColumn {
            id: entering.id,
            cost: entering.cost,
            column: entering.column,
        };
        iterations += 1;
        if iterations.is_multiple_of(REFACTOR_EVERY) {
            binv = invert_basis(&basis, m).map_err(|_| SimplexError::NumericalFailure)?;
            xb = mat_vec(&binv, b);
            for x in &mut xb {
                if *x < 0.0 {
                    *x = 0.0;
                }
            }
        } else {
            let inv = 1.0 / d[row];
            for v in &mut binv[row] {
                *v *= inv;
            }
            let pivot_row = binv[row].clone();
            for (i, target) in binv.iter_mut().enumerate() {
                if i == row {
                    continue;
                }
                let factor = d[i];
                if factor != 0.0 {
                    for (t, p) in target.iter_mut().zip(&pivot_row) {
                        *t -= factor * p;
                    }
                }
            }
        }
    }
}

/// Inverts the basis matrix (columns from `basis`) via dense LU.
fn invert_basis(basis: &[BasisColumn], m: usize) -> Result<Vec<Vec<f64>>, SingularBasis> {
    let mut bmat = Matrix::zeros(m, m);
    for (j, col) in basis.iter().enumerate() {
        for &(r, v) in col.column.entries() {
            bmat[(r as usize, j)] = v;
        }
    }
    let lu = Lu::factor(&bmat).map_err(|_| SingularBasis)?;
    let mut binv = vec![vec![0.0; m]; m];
    let mut e = vec![0.0; m];
    for j in 0..m {
        e[j] = 1.0;
        let col = lu.solve(&e).map_err(|_| SingularBasis)?;
        for (i, &v) in col.iter().enumerate() {
            binv[i][j] = v;
        }
        e[j] = 0.0;
    }
    Ok(binv)
}

fn mat_vec(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
    a.iter()
        .map(|row| row.iter().zip(x).map(|(&r, &v)| r * v).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Prices an explicit column pool with Dantzig's rule (most negative
    /// reduced cost, lowest id on ties).
    fn pool_pricer<'a>(
        pool: &'a [(f64, Vec<f64>)],
        eps: f64,
    ) -> impl FnMut(&[f64]) -> Option<PricedColumn> + 'a {
        move |duals: &[f64]| {
            let mut best: Option<(usize, f64)> = None;
            for (id, (cost, col)) in pool.iter().enumerate() {
                let reduced = cost - col.iter().zip(duals).map(|(&a, &y)| a * y).sum::<f64>();
                if reduced < -eps {
                    let better = match best {
                        None => true,
                        Some((_, r)) => reduced < r,
                    };
                    if better {
                        best = Some((id, reduced));
                    }
                }
            }
            best.map(|(id, _)| PricedColumn {
                id,
                cost: pool[id].0,
                column: SparseCol::from_dense(&pool[id].1),
            })
        }
    }

    #[test]
    fn matches_dense_solver_on_doc_problem() {
        // min -3x -2y s.t. x + y + s1 = 4, x + s2 = 2  => objective -10.
        let pool = vec![
            (-3.0, vec![1.0, 1.0]),
            (-2.0, vec![1.0, 0.0]),
            (0.0, vec![1.0, 0.0]), // s1
            (0.0, vec![0.0, 1.0]), // s2
        ];
        let start = vec![
            BasisColumn {
                id: 2,
                cost: 0.0,
                column: SparseCol::from_dense(&[1.0, 0.0]),
            },
            BasisColumn {
                id: 3,
                cost: 0.0,
                column: SparseCol::from_dense(&[0.0, 1.0]),
            },
        ];
        let sol = solve_colgen(&[4.0, 2.0], start, pool_pricer(&pool, 1e-9)).unwrap();
        assert!((sol.objective + 10.0).abs() < 1e-9, "{}", sol.objective);
        // x = 2, y = 2 at the optimum.
        let x = sol.basic.iter().find(|(id, _)| *id == 0).unwrap().1;
        let y = sol.basic.iter().find(|(id, _)| *id == 1).unwrap().1;
        assert!((x - 2.0).abs() < 1e-9);
        assert!((y - 2.0).abs() < 1e-9);
    }

    #[test]
    fn detects_unbounded_ray() {
        // min -x s.t. x - y + s = 1 (x grows with y).
        let pool = vec![(-1.0, vec![1.0]), (0.0, vec![-1.0])];
        let start = vec![BasisColumn {
            id: 2,
            cost: 0.0,
            column: SparseCol::from_dense(&[1.0]),
        }];
        // After x enters (basis [x], xb [1]), pricing y gives reduced cost
        // 0 - (-1 * dual) with dual = -1 => -1 < 0, direction d = -1: ray.
        let err = solve_colgen(&[1.0], start, pool_pricer(&pool, 1e-9)).unwrap_err();
        assert_eq!(err, SimplexError::Unbounded);
    }

    #[test]
    fn singular_start_basis_is_numerical_failure() {
        let start = vec![
            BasisColumn {
                id: 0,
                cost: 0.0,
                column: SparseCol::from_dense(&[1.0, 1.0]),
            },
            BasisColumn {
                id: 1,
                cost: 0.0,
                column: SparseCol::from_dense(&[2.0, 2.0]),
            },
        ];
        let err = solve_colgen(&[1.0, 1.0], start, |_: &[f64]| None).unwrap_err();
        assert_eq!(err, SimplexError::NumericalFailure);
    }

    #[test]
    fn degenerate_pool_terminates() {
        // Many columns with identical coefficients (heavy dual degeneracy).
        let pool: Vec<(f64, Vec<f64>)> = (0..40)
            .map(|i| (-1.0 - (i % 3) as f64 * 1e-12, vec![1.0, (i % 2) as f64]))
            .collect();
        let start = vec![
            BasisColumn {
                id: 100,
                cost: 0.0,
                column: SparseCol::from_dense(&[1.0, 0.0]),
            },
            BasisColumn {
                id: 101,
                cost: 0.0,
                column: SparseCol::from_dense(&[0.0, 1.0]),
            },
        ];
        let sol = solve_colgen(&[1.0, 1.0], start, pool_pricer(&pool, 1e-9)).unwrap();
        assert!(sol.objective <= -1.0 - 1e-12);
        assert!(sol.iterations < 100);
    }

    #[test]
    fn sparse_col_dense_round_trip() {
        let c = SparseCol::from_dense(&[0.0, 2.0, 0.0, -1.0]);
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.entries(), &[(1, 2.0), (3, -1.0)]);
        assert_eq!(c.to_dense(4), vec![0.0, 2.0, 0.0, -1.0]);
        assert_eq!(c.dot(&[1.0, 10.0, 100.0, 1000.0]), 20.0 - 1000.0);
        let unsorted = SparseCol::new(vec![(3, 1.0), (0, 2.0)]);
        assert_eq!(unsorted.entries(), &[(0, 2.0), (3, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate row")]
    fn duplicate_rows_rejected() {
        let _ = SparseCol::new(vec![(1, 1.0), (1, 2.0)]);
    }
}

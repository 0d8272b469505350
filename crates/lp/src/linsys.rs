//! Dense linear-system solving: LU with partial pivoting and least squares.
//!
//! Used by the study for:
//! * stationary distributions of the FCFS coschedule Markov chain,
//! * the linear-bottleneck least-squares fit of Section V-C of the paper
//!   (finding rates `R_b` such that `sum_b r_b(s)/R_b ~= 1` over all
//!   coschedules `s`).

use crate::dense::Matrix;
use std::error::Error;
use std::fmt;

/// Error returned when a linear system cannot be solved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinsysError {
    /// The coefficient matrix is singular (or numerically so).
    Singular,
    /// Input dimensions are inconsistent.
    DimensionMismatch {
        /// What was expected, e.g. a square matrix or a matching rhs length.
        expected: usize,
        /// What was provided.
        found: usize,
    },
}

impl fmt::Display for LinsysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinsysError::Singular => write!(f, "matrix is singular to working precision"),
            LinsysError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl Error for LinsysError {}

/// An LU factorisation `P * A = L * U` with partial pivoting.
///
/// # Examples
///
/// ```
/// use lp::{Matrix, linsys::Lu};
///
/// # fn main() -> Result<(), lp::linsys::LinsysError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed L (unit diagonal, below) and U (on/above diagonal).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now at position `i`.
    perm: Vec<usize>,
}

const PIVOT_EPS: f64 = 1e-12;

impl Lu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::DimensionMismatch`] if `a` is not square and
    /// [`LinsysError::Singular`] if no acceptable pivot exists in some column.
    pub fn factor(a: &Matrix) -> Result<Self, LinsysError> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinsysError::DimensionMismatch {
                expected: n,
                found: a.cols(),
            });
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            // Partial pivoting: pick the largest magnitude entry in the column.
            let (mut best_row, mut best_val) = (col, lu[(col, col)].abs());
            for row in col + 1..n {
                let v = lu[(row, col)].abs();
                if v > best_val {
                    best_row = row;
                    best_val = v;
                }
            }
            if best_val < PIVOT_EPS {
                return Err(LinsysError::Singular);
            }
            if best_row != col {
                lu.swap_rows(best_row, col);
                perm.swap(best_row, col);
            }
            let pivot = lu[(col, col)];
            for row in col + 1..n {
                let factor = lu[(row, col)] / pivot;
                lu[(row, col)] = factor;
                for k in col + 1..n {
                    let delta = factor * lu[(col, k)];
                    lu[(row, k)] -= delta;
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b` using the stored factorisation.
    ///
    /// # Errors
    ///
    /// Returns [`LinsysError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinsysError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinsysError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        // Forward substitution with permuted rhs: L y = P b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut acc = b[self.perm[i]];
            for (j, &yj) in y.iter().enumerate().take(i) {
                acc -= self.lu[(i, j)] * yj;
            }
            y[i] = acc;
        }
        // Back substitution: U x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for (j, &xj) in x.iter().enumerate().take(n).skip(i + 1) {
                acc -= self.lu[(i, j)] * xj;
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(x)
    }
}

/// Solves `A x = b` for square `A` in one call.
///
/// # Errors
///
/// Propagates [`LinsysError`] from factorisation or dimension checks.
///
/// # Examples
///
/// ```
/// use lp::{Matrix, linsys};
///
/// # fn main() -> Result<(), lp::linsys::LinsysError> {
/// let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, -1.0]]);
/// let x = linsys::solve(&a, &[3.0, 1.0])?;
/// assert!((x[0] - 2.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinsysError> {
    Lu::factor(a)?.solve(b)
}

/// Solves the least-squares problem `min_x || A x - b ||_2` via the normal
/// equations `A^T A x = A^T b`.
///
/// When `A^T A` is singular a tiny ridge term (`1e-10` on the diagonal) is
/// added ([`solve_normal_equations`]), which is adequate for the
/// well-scaled fitting problems in this workspace.
///
/// # Errors
///
/// Returns [`LinsysError::DimensionMismatch`] if `b.len() != a.rows()`, and
/// [`LinsysError::Singular`] if even the regularised system cannot be solved.
pub fn least_squares(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinsysError> {
    if b.len() != a.rows() {
        return Err(LinsysError::DimensionMismatch {
            expected: a.rows(),
            found: b.len(),
        });
    }
    let at = a.transpose();
    solve_normal_equations(at.mul(a), &at.mul_vec(b))
}

/// Solves the normal equations `A^T A x = A^T b` from a prebuilt Gram
/// matrix `ata` and right-hand side `atb`, the shared back end of
/// [`least_squares`] and of callers that assemble `A^T A` without forming
/// `A`.
///
/// When `ata` is singular a tiny ridge term (`1e-10` on the diagonal) is
/// added and the system solved again.
///
/// # Errors
///
/// Returns [`LinsysError::DimensionMismatch`] if `ata` is not square or
/// `atb` does not match it, and [`LinsysError::Singular`] if even the
/// regularised system cannot be solved.
pub fn solve_normal_equations(ata: Matrix, atb: &[f64]) -> Result<Vec<f64>, LinsysError> {
    match solve(&ata, atb) {
        Err(LinsysError::Singular) => {
            let mut ridged = ata;
            for i in 0..ridged.rows() {
                ridged[(i, i)] += 1e-10;
            }
            solve(&ridged, atb)
        }
        other => other,
    }
}

/// Residual sum of squares `|| A x - b ||_2^2`.
///
/// # Panics
///
/// Panics if dimensions are inconsistent.
pub fn residual_ss(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.mul_vec(x);
    ax.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn solves_3x3_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let x = solve(&a, &[8.0, -11.0, -3.0]).unwrap();
        assert_close(&x, &[2.0, 3.0, -1.0], 1e-10);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert_close(&x, &[3.0, 2.0], 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(solve(&a, &[1.0, 2.0]).unwrap_err(), LinsysError::Singular);
    }

    #[test]
    fn rhs_dimension_mismatch_is_reported() {
        let a = Matrix::identity(3);
        let err = solve(&a, &[1.0, 2.0]).unwrap_err();
        assert_eq!(
            err,
            LinsysError::DimensionMismatch {
                expected: 3,
                found: 2
            }
        );
    }

    #[test]
    fn non_square_matrix_is_rejected_by_lu() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::factor(&a),
            Err(LinsysError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn least_squares_recovers_exact_solution() {
        // Overdetermined but consistent: y = 2 t + 1 sampled at 4 points.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0], &[3.0, 1.0]]);
        let b = [1.0, 3.0, 5.0, 7.0];
        let x = least_squares(&a, &b).unwrap();
        assert_close(&x, &[2.0, 1.0], 1e-9);
        assert!(residual_ss(&a, &x, &b) < 1e-18);
    }

    #[test]
    fn least_squares_minimises_residual() {
        // Inconsistent system: check the fitted residual is no worse than a
        // few nearby candidates.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.1], &[1.0, 0.2]]);
        let b = [0.0, 1.0, 0.5];
        let x = least_squares(&a, &b).unwrap();
        let best = residual_ss(&a, &x, &b);
        for dx in [-0.1, 0.1] {
            for dy in [-0.1, 0.1] {
                let cand = [x[0] + dx, x[1] + dy];
                assert!(residual_ss(&a, &cand, &b) >= best - 1e-12);
            }
        }
    }

    #[test]
    fn normal_equations_ridge_a_singular_gram() {
        // Two identical columns: A^T A is singular, so the solve takes the
        // ridge path and splits the weight evenly.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let b = [2.0, 4.0, 6.0];
        let at = a.transpose();
        assert_eq!(
            solve(&at.mul(&a), &at.mul_vec(&b)),
            Err(LinsysError::Singular)
        );
        let x = solve_normal_equations(at.mul(&a), &at.mul_vec(&b)).unwrap();
        assert_close(&x, &[1.0, 1.0], 1e-6);
        assert_eq!(least_squares(&a, &b).unwrap(), x);
    }

    #[test]
    fn lu_solve_reusable_for_multiple_rhs() {
        let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
        let lu = Lu::factor(&a).unwrap();
        let x1 = lu.solve(&[10.0, 12.0]).unwrap();
        let x2 = lu.solve(&[7.0, 9.0]).unwrap();
        assert_close(&a.mul_vec(&x1), &[10.0, 12.0], 1e-10);
        assert_close(&a.mul_vec(&x2), &[7.0, 9.0], 1e-10);
    }
}

//! Linear programming and linear-algebra kernels, dense and sparse.
//!
//! This crate is the numerical substrate for the symbiotic-scheduling study.
//! The paper ("Revisiting Symbiotic Job Scheduling", ISPASS 2015) computes
//! the theoretically optimal (and worst) average throughput of a processor by
//! solving a small linear program with the GNU linear programming kit; this
//! crate provides an equivalent from-scratch solver:
//!
//! * [`LinearProgram`] — a builder for LPs over non-negative variables with
//!   `<=`, `>=` and `==` constraints, solved by a dense two-phase primal
//!   simplex method with Bland's anti-cycling rule ([`simplex`]).
//! * [`revised`] — a revised simplex with sparse column storage and a lazy
//!   column-pricing callback (column generation), for LPs whose column
//!   count dwarfs their row count.
//! * [`Matrix`] — a minimal row-major dense matrix ([`dense`]).
//! * [`linsys`] — LU factorisation with partial pivoting, linear solves and
//!   least-squares via normal equations (used for Markov-chain stationary
//!   distributions and the paper's linear-bottleneck analysis).
//! * [`sparse`] — CSR storage and the stationary-distribution solvers for
//!   the large, ~99.9%-sparse coschedule Markov chains: sequential
//!   Gauss–Seidel (the bitwise-stable baseline) and adaptive-omega SOR
//!   swept in any caller-chosen storage order (see the solver-selection
//!   matrix in the module docs).
//!
//! # Dense tableau vs revised simplex / column generation
//!
//! The scheduling LP has one column per coschedule but only `N + 1` rows
//! (N job types). Up to a few thousand columns, the dense two-phase
//! tableau ([`simplex::solve_standard`]) is simplest and fastest, and it
//! stays the **reference oracle** at every size. Beyond that — N = 12 on
//! K = 8 contexts is 75 582 columns — the tableau's memory and per-pivot
//! cost grow linearly with the column count while the basis stays tiny, so
//! `symbiosis::optimal_schedule` switches to [`revised::solve_colgen`]:
//! the master problem holds only the rows and the basis, and candidate
//! columns are priced lazily from the rate table instead of being
//! instantiated. The switch-over threshold is
//! `symbiosis::DEFAULT_LP_DENSE_LIMIT`, overridable per call and through
//! the `session::Session` builder; below it results are bitwise identical
//! to the historical dense path.
//!
//! # Examples
//!
//! Maximise `3x + 2y` subject to `x + y <= 4`, `x <= 2` and `x, y >= 0`:
//!
//! ```
//! use lp::{LinearProgram, Relation};
//!
//! # fn main() -> Result<(), lp::SolveError> {
//! let mut problem = LinearProgram::maximize(&[3.0, 2.0]);
//! problem.constraint(&[1.0, 1.0], Relation::Le, 4.0);
//! problem.constraint(&[1.0, 0.0], Relation::Le, 2.0);
//! let solution = problem.solve()?;
//! assert!((solution.objective - 10.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod dense;
pub mod linsys;
pub mod problem;
pub mod revised;
pub mod simplex;
pub mod sparse;

pub use dense::Matrix;
pub use problem::{LinearProgram, Relation, Sense, Solution, SolveError};
pub use revised::{solve_colgen, BasisColumn, ColGenOptions, ColGenSolution, PricedColumn};
pub use sparse::{stationary_gauss_seidel, stationary_sor, Csr, CsrBuilder, SparseError};

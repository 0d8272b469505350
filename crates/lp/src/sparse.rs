//! Sparse matrix storage and iterative solvers for large structured systems.
//!
//! The dense kernels in [`crate::linsys`] are the right tool up to a few
//! hundred unknowns; the big-machine scheduling scenarios (N = 12 job types
//! on K = 8 contexts) produce Markov chains with tens of thousands of
//! states whose generator is ~99.9% sparse — each state has at most
//! `N * K` outgoing transitions. This module provides:
//!
//! * [`Csr`] — compressed sparse row storage with a two-pass triplet
//!   builder;
//! * [`stationary_gauss_seidel`] — the stationary distribution of a
//!   continuous-time Markov chain from its *incoming*-transition CSR and
//!   per-state outflow, by Gauss–Seidel sweeps with a residual tolerance;
//! * [`stationary_sor`] — the same iteration accelerated by successive
//!   over-relaxation with an *adaptive* omega estimated from the observed
//!   convergence rate, swept in the order the chain is stored in (an
//!   optional state → row map lets the caller store it in any order, such
//!   as the colored order `symbiosis` uses, and still get the result in
//!   state order).
//!
//! # Solver selection
//!
//! | Solver | Use when | Threshold (defaults) | Convergence caveats |
//! |--------|----------|----------------------|---------------------|
//! | dense LU (`linsys::solve`) | chain fits a dense matrix; bitwise-stable reference | ≤ `DEFAULT_MARKOV_DENSE_LIMIT` = 512 states | direct solve — none, but O(n³) |
//! | [`stationary_gauss_seidel`] | mid-size chains; bitwise-stable sequential baseline | ≤ `DEFAULT_MARKOV_ACCEL_LIMIT` = 4096 states | linear rate ρ(GS); slows as the chain's mixing worsens |
//! | [`stationary_sor`] | large chains; same memory as GS, one core, bitwise the same on any host | > `DEFAULT_MARKOV_ACCEL_LIMIT` states, stored and swept in color-class order | omega is estimated after a Gauss–Seidel warmup; a mis-estimate is self-healed by backoff, costing a few extra sweeps; the sweep order changes the trajectory (not the fixed point) |
//!
//! (`DEFAULT_MARKOV_DENSE_LIMIT` / `DEFAULT_MARKOV_ACCEL_LIMIT` live in the
//! `symbiosis` crate, which owns the Markov-chain dispatch. Sessions and
//! sweeps always dispatch at these defaults; only a direct
//! `fcfs_throughput_markov_tuned` call picks other thresholds, as the
//! parity tests and kernels do to force each path.) All iterative
//! solvers share the same residual definition — relative balance error
//! `max_j |inflow_j(pi) - pi_j outflow_j| / max_j(pi_j outflow_j)` — so a
//! tolerance means the same thing on every path; results agree within the
//! tolerance (≤ 1e-9 on derived throughputs at the default 1e-12), pinned
//! by the cross-solver parity suite in `crates/core/tests/solver_parity.rs`.
//!
//! # Examples
//!
//! A two-state chain flipping at rates 1 and 2 has stationary distribution
//! (2/3, 1/3):
//!
//! ```
//! use lp::sparse::{stationary_gauss_seidel, Csr};
//!
//! // inflow[j] lists (i, q_ij): state 0 receives from 1 at rate 2, etc.
//! let inflow = Csr::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, 1.0)]);
//! let outflow = [1.0, 2.0];
//! let pi = stationary_gauss_seidel(&inflow, &outflow, 1e-12, 1000).unwrap();
//! assert!((pi[0] - 2.0 / 3.0).abs() < 1e-9);
//! assert!((pi[1] - 1.0 / 3.0).abs() < 1e-9);
//! ```

use std::error::Error;
use std::fmt;

/// Errors from the sparse iterative solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// Input dimensions are inconsistent.
    DimensionMismatch {
        /// What was expected.
        expected: usize,
        /// What was provided.
        found: usize,
    },
    /// The iteration did not reach the residual tolerance within the sweep
    /// budget; carries the last residual observed.
    NoConvergence(f64),
    /// A state has zero outflow (the chain is not irreducible over the
    /// supplied states) or the iterate degenerated to all zeros.
    Degenerate(String),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            SparseError::NoConvergence(res) => {
                write!(f, "iteration stalled at residual {res:.3e}")
            }
            SparseError::Degenerate(msg) => write!(f, "degenerate chain: {msg}"),
        }
    }
}

impl Error for SparseError {}

/// A compressed-sparse-row matrix: row `i` holds the column indices
/// `cols[row_ptr[i]..row_ptr[i+1]]` with matching `vals`.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    ncols: usize,
}

impl Csr {
    /// Builds from `(row, col, value)` triplets (duplicates are kept as
    /// separate entries; consumers sum them implicitly).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut builder = CsrBuilder::new(nrows, ncols);
        for &(r, _, _) in triplets {
            builder.count(r);
        }
        builder.finish_counts();
        for &(r, c, v) in triplets {
            builder.push(r, c, v);
        }
        builder.build()
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The column indices and values of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.cols[span.clone()], &self.vals[span])
    }

    /// Dense matrix-vector product `y = A x` (for tests and residuals).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "vector length mismatch");
        (0..self.nrows())
            .map(|i| {
                let (cols, vals) = self.row(i);
                cols.iter()
                    .zip(vals)
                    .map(|(&c, &v)| v * x[c as usize])
                    .sum()
            })
            .collect()
    }
}

/// Two-pass CSR builder: `count` every entry's row, `finish_counts`, then
/// `push` the same entries in any order.
#[derive(Debug)]
pub struct CsrBuilder {
    row_ptr: Vec<usize>,
    cursor: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    ncols: usize,
    counted: bool,
}

impl CsrBuilder {
    /// Starts a builder for an `nrows x ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CsrBuilder {
            row_ptr: vec![0; nrows + 1],
            cursor: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
            ncols,
            counted: false,
        }
    }

    /// First pass: registers one entry in `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or counting already finished.
    pub fn count(&mut self, row: usize) {
        assert!(!self.counted, "counting already finished");
        self.row_ptr[row + 1] += 1;
    }

    /// Seals the counting pass and allocates storage.
    pub fn finish_counts(&mut self) {
        assert!(!self.counted, "counting already finished");
        for i in 1..self.row_ptr.len() {
            self.row_ptr[i] += self.row_ptr[i - 1];
        }
        self.cursor = self.row_ptr[..self.row_ptr.len() - 1].to_vec();
        let nnz = *self.row_ptr.last().expect("row_ptr non-empty");
        self.cols = vec![0; nnz];
        self.vals = vec![0.0; nnz];
        self.counted = true;
    }

    /// Second pass: stores one entry (must match a prior `count(row)`).
    ///
    /// # Panics
    ///
    /// Panics if counting was not finished, the row's slots are exhausted,
    /// or `col` is out of range.
    pub fn push(&mut self, row: usize, col: usize, val: f64) {
        assert!(self.counted, "call finish_counts first");
        assert!(col < self.ncols, "column {col} out of range");
        let slot = self.cursor[row];
        assert!(slot < self.row_ptr[row + 1], "row {row} slots exhausted");
        self.cols[slot] = col as u32;
        self.vals[slot] = val;
        self.cursor[row] = slot + 1;
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if any counted slot was left unfilled.
    pub fn build(self) -> Csr {
        assert!(self.counted, "call finish_counts first");
        for (row, &cur) in self.cursor.iter().enumerate() {
            assert_eq!(cur, self.row_ptr[row + 1], "row {row} has unfilled slots");
        }
        Csr {
            row_ptr: self.row_ptr,
            cols: self.cols,
            vals: self.vals,
            ncols: self.ncols,
        }
    }
}

/// Solves `pi Q = 0`, `sum(pi) = 1` for an irreducible CTMC by Gauss–Seidel.
///
/// `inflow` row `j` lists the incoming transitions `(i, q_ij)` (self-loops
/// excluded); `outflow[j]` is state `j`'s total off-diagonal outflow
/// `-q_jj`. Each sweep updates `pi_j <- inflow_j(pi) / outflow_j` in place
/// (so new values propagate within the sweep) and renormalises; iteration
/// stops when the relative balance residual
/// `max_j |inflow_j(pi) - pi_j outflow_j| / max_j(pi_j outflow_j)` drops
/// below `tol`.
///
/// # Errors
///
/// [`SparseError::DimensionMismatch`] for inconsistent inputs,
/// [`SparseError::Degenerate`] if some state has non-positive outflow, and
/// [`SparseError::NoConvergence`] if `max_sweeps` is exhausted.
pub fn stationary_gauss_seidel(
    inflow: &Csr,
    outflow: &[f64],
    tol: f64,
    max_sweeps: usize,
) -> Result<Vec<f64>, SparseError> {
    let n = check_stationary_inputs(inflow, outflow)?;
    if n == 1 {
        return Ok(vec![1.0]);
    }

    let mut pi = vec![1.0 / n as f64; n];
    let mut residual = f64::INFINITY;
    for sweep in 0..max_sweeps {
        // One in-place sweep, tracking the balance residual as we go. The
        // residual uses the pre-update pi_j, so it is an upper bound on the
        // post-sweep imbalance once the iteration has settled.
        let mut max_gap = 0.0f64;
        let mut max_flow = 0.0f64;
        for j in 0..n {
            let (cols, vals) = inflow.row(j);
            let incoming: f64 = cols
                .iter()
                .zip(vals)
                .map(|(&i, &q)| pi[i as usize] * q)
                .sum();
            let old_flow = pi[j] * outflow[j];
            max_gap = max_gap.max((incoming - old_flow).abs());
            max_flow = max_flow.max(old_flow.max(incoming));
            pi[j] = incoming / outflow[j];
        }
        let total: f64 = pi.iter().sum();
        if total <= 0.0 || !total.is_finite() {
            return Err(SparseError::Degenerate(
                "iterate degenerated to a non-positive distribution".into(),
            ));
        }
        let inv = 1.0 / total;
        for p in &mut pi {
            *p *= inv;
        }
        residual = if max_flow > 0.0 {
            max_gap / max_flow
        } else {
            f64::INFINITY
        };
        if residual < tol {
            record_stationary_solve("lp.gauss_seidel.sweeps", sweep + 1, residual);
            return Ok(pi);
        }
    }
    record_stationary_solve("lp.gauss_seidel.sweeps", max_sweeps, residual);
    Err(SparseError::NoConvergence(residual))
}

/// Reports one stationary solve to the current `obs` recorder: sweeps
/// consumed onto the solver's counter, final residual (as `-log10`) onto
/// the shared residual histogram. A single context lookup per *solve* —
/// nothing per sweep — so the disabled path stays invisible in the
/// kernel benchmarks.
fn record_stationary_solve(counter: &'static str, sweeps: usize, residual: f64) {
    if let Some(rec) = obs::current() {
        rec.counter(counter).add(sweeps as u64);
        if residual.is_finite() {
            rec.histogram("lp.solve.residual_neglog10")
                .record(-residual.max(1e-300).log10());
        }
    }
}

/// Shared validation for the stationary solvers: dimensions consistent,
/// chain non-empty, every state's outflow positive and finite. Returns the
/// state count.
fn check_stationary_inputs(inflow: &Csr, outflow: &[f64]) -> Result<usize, SparseError> {
    let n = inflow.nrows();
    if outflow.len() != n {
        return Err(SparseError::DimensionMismatch {
            expected: n,
            found: outflow.len(),
        });
    }
    if inflow.ncols() != n {
        return Err(SparseError::DimensionMismatch {
            expected: n,
            found: inflow.ncols(),
        });
    }
    if n == 0 {
        return Err(SparseError::Degenerate("empty chain".into()));
    }
    if n == 1 {
        // Trivial chain: the callers return [1.0] without touching the
        // (possibly all-zero) outflow.
        return Ok(n);
    }
    for (j, &out) in outflow.iter().enumerate() {
        if out <= 0.0 || !out.is_finite() {
            return Err(SparseError::Degenerate(format!(
                "state {j} has outflow {out}"
            )));
        }
    }
    Ok(n)
}

/// Adaptive over-relaxation control of [`stationary_sor`].
///
/// Sweeps start at `omega = 1` (plain Gauss–Seidel). After a warmup window
/// the observed per-sweep residual contraction `rho` approximates the GS
/// iteration's spectral radius; for consistently ordered systems
/// `rho = rho_J^2` (Jacobi radius squared), so the SOR-optimal factor is
/// `2 / (1 + sqrt(1 - rho))`. Every later monitoring window that fails to
/// contract backs omega off halfway toward 1 — a mis-estimated omega costs
/// a few extra sweeps instead of divergence.
#[derive(Debug)]
struct OmegaSchedule {
    omega: f64,
    window_start: f64,
    sweeps: usize,
    window: usize,
    warmed_up: bool,
}

impl OmegaSchedule {
    const WARMUP: usize = 12;
    const MONITOR: usize = 32;
    const MAX_OMEGA: f64 = 1.95;

    fn new() -> Self {
        OmegaSchedule {
            omega: 1.0,
            window_start: f64::NAN,
            sweeps: 0,
            window: Self::WARMUP,
            warmed_up: false,
        }
    }

    /// Feeds one sweep's residual; returns the omega for the next sweep.
    fn observe(&mut self, residual: f64) -> f64 {
        if !residual.is_finite() {
            return self.omega;
        }
        if !self.window_start.is_finite() {
            self.window_start = residual;
            return self.omega;
        }
        self.sweeps += 1;
        if self.sweeps >= self.window {
            let ratio = if self.window_start > 0.0 {
                (residual / self.window_start).powf(1.0 / self.sweeps as f64)
            } else {
                0.0
            };
            if !self.warmed_up && ratio < 1.0 {
                let rho = ratio.clamp(0.0, 1.0 - 1e-9);
                self.omega = (2.0 / (1.0 + (1.0 - rho).sqrt())).clamp(1.0, Self::MAX_OMEGA);
                self.warmed_up = true;
            } else if ratio >= 1.0 {
                self.omega = 1.0 + (self.omega - 1.0) * 0.5;
                self.warmed_up = true;
            }
            self.window = Self::MONITOR;
            self.sweeps = 0;
            self.window_start = residual;
        }
        self.omega
    }
}

/// Solves `pi Q = 0`, `sum(pi) = 1` by successive over-relaxation with an
/// adaptive omega ([`OmegaSchedule`]-controlled): the Gauss–Seidel update
/// relaxed as `pi_j <- (1 - w) pi_j + w inflow_j(pi) / outflow_j`, projected
/// onto non-negative values. Inputs, residual definition and error
/// conditions match [`stationary_gauss_seidel`]; at the same tolerance the
/// two agree on the fixed point while SOR typically needs several times
/// fewer sweeps on slowly mixing chains.
///
/// Rows are swept in storage order. With `position = None` the chain is
/// in state order. With `Some(position)`, state `j` is stored as row
/// `position[j]`: `inflow`'s rows *and* column indices and `outflow`'s
/// entries are all positions. The normalising sum then still adds the
/// iterate in state order (a gather through `position`), and the result
/// comes back in state order, so only the update order differs from the
/// `None` sweep of the same chain.
///
/// # Errors
///
/// Same conditions as [`stationary_gauss_seidel`], plus
/// [`SparseError::DimensionMismatch`] if `position` has the wrong length.
///
/// # Panics
///
/// Panics if `position` is not a permutation of the rows.
pub fn stationary_sor(
    inflow: &Csr,
    outflow: &[f64],
    position: Option<&[u32]>,
    tol: f64,
    max_sweeps: usize,
) -> Result<Vec<f64>, SparseError> {
    let n = check_stationary_inputs(inflow, outflow)?;
    if n == 1 {
        return Ok(vec![1.0]);
    }
    if let Some(position) = position {
        if position.len() != n {
            return Err(SparseError::DimensionMismatch {
                expected: n,
                found: position.len(),
            });
        }
        let mut seen = vec![false; n];
        for &row in position {
            assert!(
                !std::mem::replace(&mut seen[row as usize], true),
                "position {row} is used twice"
            );
        }
    }
    // The row holding state `j`: the normalising sum and the result read
    // the iterate in state order, whatever order it is stored in.
    let row_of = |j: usize| position.map_or(j, |position| position[j] as usize);

    let mut pi = vec![1.0 / n as f64; n];
    let mut residual = f64::INFINITY;
    let mut schedule = OmegaSchedule::new();
    let mut omega = 1.0;
    for sweep in 0..max_sweeps {
        let mut max_gap = 0.0f64;
        let mut max_flow = 0.0f64;
        for j in 0..n {
            let (cols, vals) = inflow.row(j);
            let incoming: f64 = cols
                .iter()
                .zip(vals)
                .map(|(&i, &q)| pi[i as usize] * q)
                .sum();
            let old = pi[j];
            let old_flow = old * outflow[j];
            max_gap = max_gap.max((incoming - old_flow).abs());
            max_flow = max_flow.max(old_flow.max(incoming));
            let relaxed = (1.0 - omega) * old + omega * (incoming / outflow[j]);
            pi[j] = relaxed.max(0.0);
        }
        let total: f64 = (0..n).map(|j| pi[row_of(j)]).sum();
        if total <= 0.0 || !total.is_finite() {
            return Err(SparseError::Degenerate(
                "iterate degenerated to a non-positive distribution".into(),
            ));
        }
        let inv = 1.0 / total;
        for p in &mut pi {
            *p *= inv;
        }
        residual = if max_flow > 0.0 {
            max_gap / max_flow
        } else {
            f64::INFINITY
        };
        if residual < tol {
            record_stationary_solve("lp.sor.sweeps", sweep + 1, residual);
            return Ok((0..n).map(|j| pi[row_of(j)]).collect());
        }
        omega = schedule.observe(residual);
    }
    record_stationary_solve("lp.sor.sweeps", max_sweeps, residual);
    Err(SparseError::NoConvergence(residual))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_round_trips_triplets() {
        let m = Csr::from_triplets(3, 4, &[(0, 1, 2.0), (2, 0, -1.0), (0, 3, 0.5)]);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.nnz(), 3);
        let (cols, vals) = m.row(0);
        assert_eq!(cols, &[1, 3]);
        assert_eq!(vals, &[2.0, 0.5]);
        assert_eq!(m.row(1).0.len(), 0);
        let y = m.mul_vec(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y, vec![6.0, 0.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "unfilled")]
    fn builder_rejects_unfilled_rows() {
        let mut b = CsrBuilder::new(2, 2);
        b.count(0);
        b.finish_counts();
        let _ = b.build();
    }

    #[test]
    fn two_state_flip_chain() {
        let inflow = Csr::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, 1.0)]);
        let pi = stationary_gauss_seidel(&inflow, &[1.0, 2.0], 1e-13, 10_000).unwrap();
        assert!((pi[0] - 2.0 / 3.0).abs() < 1e-10);
        assert!((pi[1] - 1.0 / 3.0).abs() < 1e-10);
    }

    #[test]
    fn solvers_report_sweep_counts_and_residuals_to_obs() {
        let recorder = obs::Recorder::new();
        let _guard = obs::install(&recorder);
        let inflow = Csr::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, 1.0)]);
        stationary_gauss_seidel(&inflow, &[1.0, 2.0], 1e-13, 10_000).unwrap();
        stationary_sor(&inflow, &[1.0, 2.0], None, 1e-13, 10_000).unwrap();
        let snap = recorder.snapshot();
        assert!(snap.counters["lp.gauss_seidel.sweeps"] >= 1);
        assert!(snap.counters["lp.sor.sweeps"] >= 1);
        // One final-residual sample per solve, every residual below tol
        // (−log10 ≥ 13).
        let hist = &snap.histograms["lp.solve.residual_neglog10"];
        assert_eq!(hist.count, 2);
        assert!(hist.sum >= 2.0 * 13.0, "residuals converged: {}", hist.sum);
    }

    #[test]
    fn birth_death_chain_matches_closed_form() {
        // Birth rate 1.0, death rate 2.0 on 0..5: pi_k ∝ (1/2)^k.
        let n = 5;
        let mut trips = Vec::new();
        let mut out = vec![0.0; n];
        for (k, o) in out.iter_mut().enumerate() {
            if k + 1 < n {
                trips.push((k + 1, k, 1.0)); // inflow to k+1 from k (birth)
                *o += 1.0;
            }
            if k > 0 {
                trips.push((k - 1, k, 2.0)); // inflow to k-1 from k (death)
                *o += 2.0;
            }
        }
        let inflow = Csr::from_triplets(n, n, &trips);
        let pi = stationary_gauss_seidel(&inflow, &out, 1e-13, 100_000).unwrap();
        let z: f64 = (0..n).map(|k| 0.5f64.powi(k as i32)).sum();
        for (k, &p) in pi.iter().enumerate() {
            let expect = 0.5f64.powi(k as i32) / z;
            assert!((p - expect).abs() < 1e-9, "pi[{k}] = {p}");
        }
    }

    #[test]
    fn zero_outflow_is_degenerate() {
        let inflow = Csr::from_triplets(2, 2, &[(0, 1, 1.0)]);
        assert!(matches!(
            stationary_gauss_seidel(&inflow, &[1.0, 0.0], 1e-10, 100),
            Err(SparseError::Degenerate(_))
        ));
    }

    #[test]
    fn sweep_budget_is_enforced() {
        let inflow = Csr::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, 1.0)]);
        assert!(matches!(
            stationary_gauss_seidel(&inflow, &[1.0, 2.0], 1e-15, 1),
            Err(SparseError::NoConvergence(_))
        ));
    }

    /// A seeded random irreducible chain: every state flows to its cyclic
    /// successor (irreducibility) plus a few pseudo-random extra edges.
    #[allow(clippy::needless_range_loop)] // `i` is both source state and out-index
    fn random_chain(n: usize, seed: u64) -> (Csr, Vec<f64>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut trips: Vec<(usize, usize, f64)> = Vec::new();
        let mut out = vec![0.0f64; n];
        for i in 0..n {
            let succ = (i + 1) % n;
            let rate = 0.5 + (next() % 1000) as f64 / 500.0;
            trips.push((succ, i, rate));
            out[i] += rate;
            for _ in 0..(next() % 4) {
                let j = (next() as usize) % n;
                if j != i {
                    let rate = 0.1 + (next() % 1000) as f64 / 250.0;
                    trips.push((j, i, rate));
                    out[i] += rate;
                }
            }
        }
        (Csr::from_triplets(n, n, &trips), out)
    }

    #[test]
    fn sor_matches_gauss_seidel_on_random_chains() {
        for n in [2, 7, 40, 160] {
            for seed in [1u64, 0xBEEF, 0x1234_5678] {
                let (inflow, out) = random_chain(n, seed);
                let gs = stationary_gauss_seidel(&inflow, &out, 1e-13, 200_000).unwrap();
                let sor = stationary_sor(&inflow, &out, None, 1e-13, 200_000).unwrap();
                for (a, b) in gs.iter().zip(&sor) {
                    assert!((a - b).abs() < 1e-9, "n={n} seed={seed}: {a} vs {b}");
                }
            }
        }
    }

    /// `inflow` / `outflow` stored in the order `position` (state `j` as
    /// row `position[j]`, columns relabelled the same way).
    fn reordered(inflow: &Csr, outflow: &[f64], position: &[u32]) -> (Csr, Vec<f64>) {
        let n = inflow.nrows();
        let mut trips = Vec::with_capacity(inflow.nnz());
        let mut out = vec![0.0; n];
        for j in 0..n {
            let (cols, vals) = inflow.row(j);
            for (&i, &q) in cols.iter().zip(vals) {
                trips.push((position[j] as usize, position[i as usize] as usize, q));
            }
            out[position[j] as usize] = outflow[j];
        }
        (Csr::from_triplets(n, n, &trips), out)
    }

    #[test]
    fn reordered_sor_matches_gauss_seidel_in_state_order() {
        for n in [2, 9, 64] {
            for seed in [3u64, 0xABCD] {
                let (inflow, out) = random_chain(n, seed);
                let gs = stationary_gauss_seidel(&inflow, &out, 1e-13, 200_000).unwrap();
                // Odd states first, then even ones: a two-class sweep order.
                let mut position = vec![0u32; n];
                let mut next = 0;
                for parity in [1, 0] {
                    for j in (0..n).filter(|j| j % 2 == parity) {
                        position[j] = next;
                        next += 1;
                    }
                }
                let (perm_inflow, perm_out) = reordered(&inflow, &out, &position);
                let sor = stationary_sor(&perm_inflow, &perm_out, Some(&position), 1e-13, 200_000)
                    .unwrap();
                for (a, b) in gs.iter().zip(&sor) {
                    assert!((a - b).abs() < 1e-9, "n={n} seed={seed}: {a} vs {b}");
                }
                // The identity map is the natural-order sweep, bit for bit.
                let identity: Vec<u32> = (0..n as u32).collect();
                assert_eq!(
                    stationary_sor(&inflow, &out, Some(&identity), 1e-13, 200_000).unwrap(),
                    stationary_sor(&inflow, &out, None, 1e-13, 200_000).unwrap(),
                );
            }
        }
    }

    #[test]
    fn sor_rejects_a_position_map_of_the_wrong_length() {
        let (inflow, out) = random_chain(8, 42);
        assert!(matches!(
            stationary_sor(&inflow, &out, Some(&[0, 1, 2]), 1e-10, 100),
            Err(SparseError::DimensionMismatch {
                expected: 8,
                found: 3
            })
        ));
    }

    #[test]
    #[should_panic(expected = "used twice")]
    fn sor_panics_on_a_position_map_that_is_not_a_permutation() {
        let (inflow, out) = random_chain(3, 42);
        let _ = stationary_sor(&inflow, &out, Some(&[0, 2, 0]), 1e-10, 100);
    }

    #[test]
    fn accelerated_solvers_share_degenerate_and_budget_errors() {
        // Zero outflow (absorbing state) is degenerate in every sweep order.
        let inflow = Csr::from_triplets(2, 2, &[(0, 1, 1.0)]);
        for order in [None, Some(&[1, 0][..])] {
            assert!(matches!(
                stationary_sor(&inflow, &[1.0, 0.0], order, 1e-10, 100),
                Err(SparseError::Degenerate(_))
            ));
        }
        // Exhausted sweep budgets surface the last residual.
        let flip = Csr::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, 1.0)]);
        for order in [None, Some(&[1, 0][..])] {
            assert!(matches!(
                stationary_sor(&flip, &[1.0, 2.0], order, 1e-15, 1),
                Err(SparseError::NoConvergence(_))
            ));
        }
        // Single-state chains are trivial in every sweep order.
        let one = Csr::from_triplets(1, 1, &[]);
        for order in [None, Some(&[0][..])] {
            assert_eq!(
                stationary_sor(&one, &[0.0], order, 1e-10, 10).unwrap(),
                vec![1.0]
            );
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // `k` is both state index and out-index
    fn adaptive_omega_accelerates_a_slow_chain() {
        // A long birth-death chain with near-balanced rates mixes slowly —
        // exactly where SOR should beat plain GS on sweep count. Both must
        // converge; SOR must not be (much) slower.
        let n = 400;
        let mut trips = Vec::new();
        let mut out = vec![0.0; n];
        for k in 0..n {
            if k + 1 < n {
                trips.push((k + 1, k, 1.0));
                out[k] += 1.0;
            }
            if k > 0 {
                trips.push((k - 1, k, 1.05));
                out[k] += 1.05;
            }
        }
        let inflow = Csr::from_triplets(n, n, &trips);
        let gs = stationary_gauss_seidel(&inflow, &out, 1e-12, 1_000_000).unwrap();
        let sor = stationary_sor(&inflow, &out, None, 1e-12, 1_000_000).unwrap();
        for (a, b) in gs.iter().zip(&sor) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn single_state_chain_is_trivial() {
        let inflow = Csr::from_triplets(1, 1, &[]);
        assert_eq!(
            stationary_gauss_seidel(&inflow, &[0.0], 1e-10, 10).unwrap(),
            vec![1.0]
        );
    }
}

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
//!   convergence rate;
//! * [`stationary_multicolor`] — multi-colored SOR: states are
//!   partitioned into color classes with no transitions inside a class, so
//!   each class updates in parallel across threads ([`greedy_coloring`]
//!   derives a valid partition from any CSR when the caller has no
//!   structural coloring at hand).
//!
//! # Solver selection
//!
//! | Solver | Use when | Threshold (defaults) | Convergence caveats |
//! |--------|----------|----------------------|---------------------|
//! | dense LU (`linsys::solve`) | chain fits a dense matrix; bitwise-stable reference | ≤ `DEFAULT_MARKOV_DENSE_LIMIT` = 512 states | direct solve — none, but O(n³) |
//! | [`stationary_gauss_seidel`] | mid-size chains; bitwise-stable sequential baseline | ≤ `DEFAULT_MARKOV_ACCEL_LIMIT` = 4096 states | linear rate ρ(GS); slows as the chain's mixing worsens |
//! | [`stationary_sor`] | large chains, one core; same memory as GS | > `DEFAULT_MARKOV_ACCEL_LIMIT` states on one thread | omega is estimated after a Gauss–Seidel warmup; a mis-estimate is self-healed by backoff, costing a few extra sweeps |
//! | [`stationary_multicolor`] | large chains, many cores | > `DEFAULT_MARKOV_ACCEL_LIMIT` states on two or more threads | update *order* differs from natural-order GS, so iterates differ in trajectory (not in fixed point); needs a valid coloring — an invalid one is rejected, not repaired |
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
    /// Two adjacent states share a color, so the multi-colored sweep would
    /// race on their updates.
    InvalidColoring {
        /// The state being updated.
        state: usize,
        /// Its same-colored in-neighbor.
        neighbor: usize,
    },
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
            SparseError::InvalidColoring { state, neighbor } => write!(
                f,
                "states {state} and {neighbor} are adjacent but share a color"
            ),
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

/// Adaptive over-relaxation control shared by the accelerated solvers.
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
/// # Errors
///
/// Same conditions as [`stationary_gauss_seidel`].
pub fn stationary_sor(
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
            record_stationary_solve("lp.sor.sweeps", sweep + 1, residual);
            return Ok(pi);
        }
        omega = schedule.observe(residual);
    }
    record_stationary_solve("lp.sor.sweeps", max_sweeps, residual);
    Err(SparseError::NoConvergence(residual))
}

/// A proper coloring of the states of a (structurally symmetric view of a)
/// sparse matrix: adjacent states — any pair linked by a stored entry in
/// either direction — receive different colors. Greedy first-fit in state
/// order; for the lattice-like coschedule chains this yields a handful of
/// colors, each class large enough to split across threads.
///
/// # Panics
///
/// Panics if the matrix is not square.
pub fn greedy_coloring(matrix: &Csr) -> Vec<u32> {
    let n = matrix.nrows();
    assert_eq!(n, matrix.ncols(), "coloring needs a square matrix");
    // Symmetrized adjacency in CSR form (duplicates are harmless to
    // first-fit, so no dedup pass).
    let mut deg = vec![0usize; n + 1];
    for j in 0..n {
        let (cols, _) = matrix.row(j);
        for &i in cols {
            if i as usize != j {
                deg[j + 1] += 1;
                deg[i as usize + 1] += 1;
            }
        }
    }
    for v in 1..=n {
        deg[v] += deg[v - 1];
    }
    let mut adj = vec![0u32; deg[n]];
    let mut cursor = deg[..n].to_vec();
    for j in 0..n {
        let (cols, _) = matrix.row(j);
        for &i in cols {
            if i as usize != j {
                adj[cursor[j]] = i;
                cursor[j] += 1;
                adj[cursor[i as usize]] = j as u32;
                cursor[i as usize] += 1;
            }
        }
    }
    let mut colors = vec![0u32; n];
    // `stamp[c] == j` marks color c as used by a neighbor of state j.
    let mut stamp = vec![usize::MAX; n + 1];
    for j in 0..n {
        for &nb in &adj[deg[j]..deg[j + 1]] {
            if (nb as usize) < j {
                stamp[colors[nb as usize] as usize] = j;
            }
        }
        let mut c = 0;
        while stamp[c] == j {
            c += 1;
        }
        colors[j] = c as u32;
    }
    colors
}

/// Multi-colored SOR: the stationary solver of [`stationary_sor`] with the
/// sweep reordered by color class so every class updates in parallel.
///
/// `colors[j]` assigns state `j` to a class; within a class no state reads
/// another (the coloring is validated against `inflow` up front), so class
/// members update concurrently across up to `threads` OS threads
/// (`0` auto-detects, `1` runs inline). The update *order* — classes in
/// ascending color, states in index order within a class — is fixed, so
/// results are bitwise identical for every thread count.
///
/// Callers that know the chain's structure can supply a closed-form
/// coloring (the `symbiosis` crate colors the coschedule chain by a
/// weighted count sum mod N); [`greedy_coloring`] covers the rest.
///
/// # Errors
///
/// The conditions of [`stationary_gauss_seidel`], plus
/// [`SparseError::InvalidColoring`] if two adjacent states share a color
/// and [`SparseError::DimensionMismatch`] if `colors` has the wrong length.
pub fn stationary_multicolor(
    inflow: &Csr,
    outflow: &[f64],
    colors: &[u32],
    tol: f64,
    max_sweeps: usize,
    threads: usize,
) -> Result<Vec<f64>, SparseError> {
    use std::sync::atomic::{AtomicU64, Ordering};

    let n = check_stationary_inputs(inflow, outflow)?;
    if n == 1 {
        return Ok(vec![1.0]);
    }
    if colors.len() != n {
        return Err(SparseError::DimensionMismatch {
            expected: n,
            found: colors.len(),
        });
    }
    for j in 0..n {
        let (cols, _) = inflow.row(j);
        for &i in cols {
            if i as usize != j && colors[i as usize] == colors[j] {
                return Err(SparseError::InvalidColoring {
                    state: j,
                    neighbor: i as usize,
                });
            }
        }
    }

    // Bucket states by color, preserving index order within each class.
    let ncolors = colors.iter().map(|&c| c as usize + 1).max().unwrap_or(1);
    let mut class_ptr = vec![0usize; ncolors + 1];
    for &c in colors {
        class_ptr[c as usize + 1] += 1;
    }
    for c in 1..=ncolors {
        class_ptr[c] += class_ptr[c - 1];
    }
    let mut classes = vec![0u32; n];
    let mut cursor = class_ptr[..ncolors].to_vec();
    for (j, &c) in colors.iter().enumerate() {
        classes[cursor[c as usize]] = j as u32;
        cursor[c as usize] += 1;
    }

    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    };
    // The iterate lives in atomic bit-pattern cells so concurrent class
    // updates are safe Rust; relaxed ordering suffices because no state
    // reads a cell being written (the coloring guarantees it) and thread
    // join/spawn fences each sweep. Single-threaded runs reuse the same
    // path, so the arithmetic is identical everywhere.
    let pi: Vec<AtomicU64> = (0..n)
        .map(|_| AtomicU64::new((1.0 / n as f64).to_bits()))
        .collect();

    // One color class's contiguous span of the state list, relaxed with the
    // current omega; returns this span's residual contributions.
    let relax_span = |span: &[u32], omega: f64| -> (f64, f64) {
        let mut max_gap = 0.0f64;
        let mut max_flow = 0.0f64;
        for &j in span {
            let j = j as usize;
            let (cols, vals) = inflow.row(j);
            let incoming: f64 = cols
                .iter()
                .zip(vals)
                .map(|(&i, &q)| f64::from_bits(pi[i as usize].load(Ordering::Relaxed)) * q)
                .sum();
            let old = f64::from_bits(pi[j].load(Ordering::Relaxed));
            let old_flow = old * outflow[j];
            max_gap = max_gap.max((incoming - old_flow).abs());
            max_flow = max_flow.max(old_flow.max(incoming));
            let relaxed = (1.0 - omega) * old + omega * (incoming / outflow[j]);
            pi[j].store(relaxed.max(0.0).to_bits(), Ordering::Relaxed);
        }
        (max_gap, max_flow)
    };

    let mut residual = f64::INFINITY;
    let mut schedule = OmegaSchedule::new();
    let mut omega = 1.0;
    for sweep in 0..max_sweeps {
        let (mut max_gap, mut max_flow) = (0.0f64, 0.0f64);
        if threads <= 1 {
            for c in 0..ncolors {
                let (gap, flow) = relax_span(&classes[class_ptr[c]..class_ptr[c + 1]], omega);
                max_gap = max_gap.max(gap);
                max_flow = max_flow.max(flow);
            }
        } else {
            // One scope per sweep; a barrier separates color classes so a
            // class never reads values its predecessor is still writing.
            let barrier = std::sync::Barrier::new(threads);
            let mut partials = vec![(0.0f64, 0.0f64); threads];
            std::thread::scope(|s| {
                for (tid, slot) in partials.iter_mut().enumerate() {
                    let barrier = &barrier;
                    let relax_span = &relax_span;
                    let class_ptr = &class_ptr;
                    let classes = &classes;
                    s.spawn(move || {
                        let (mut gap, mut flow) = (0.0f64, 0.0f64);
                        for c in 0..ncolors {
                            let class = &classes[class_ptr[c]..class_ptr[c + 1]];
                            let chunk = class.len().div_ceil(threads);
                            let lo = (tid * chunk).min(class.len());
                            let hi = ((tid + 1) * chunk).min(class.len());
                            let (g, f) = relax_span(&class[lo..hi], omega);
                            gap = gap.max(g);
                            flow = flow.max(f);
                            barrier.wait();
                        }
                        *slot = (gap, flow);
                    });
                }
            });
            for &(gap, flow) in &partials {
                max_gap = max_gap.max(gap);
                max_flow = max_flow.max(flow);
            }
        }

        let total: f64 = pi
            .iter()
            .map(|p| f64::from_bits(p.load(Ordering::Relaxed)))
            .sum();
        if total <= 0.0 || !total.is_finite() {
            return Err(SparseError::Degenerate(
                "iterate degenerated to a non-positive distribution".into(),
            ));
        }
        let inv = 1.0 / total;
        for p in &pi {
            let v = f64::from_bits(p.load(Ordering::Relaxed)) * inv;
            p.store(v.to_bits(), Ordering::Relaxed);
        }
        residual = if max_flow > 0.0 {
            max_gap / max_flow
        } else {
            f64::INFINITY
        };
        let done = residual < tol;
        if done {
            record_stationary_solve("lp.multicolor.sweeps", sweep + 1, residual);
            return Ok(pi
                .into_iter()
                .map(|p| f64::from_bits(p.into_inner()))
                .collect());
        }
        omega = schedule.observe(residual);
    }
    record_stationary_solve("lp.multicolor.sweeps", max_sweeps, residual);
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
        stationary_sor(&inflow, &[1.0, 2.0], 1e-13, 10_000).unwrap();
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
                let sor = stationary_sor(&inflow, &out, 1e-13, 200_000).unwrap();
                for (a, b) in gs.iter().zip(&sor) {
                    assert!((a - b).abs() < 1e-9, "n={n} seed={seed}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn multicolor_matches_gauss_seidel_for_every_thread_count() {
        for n in [2, 9, 64] {
            for seed in [3u64, 0xABCD] {
                let (inflow, out) = random_chain(n, seed);
                let colors = greedy_coloring(&inflow);
                let gs = stationary_gauss_seidel(&inflow, &out, 1e-13, 200_000).unwrap();
                let seq = stationary_multicolor(&inflow, &out, &colors, 1e-13, 200_000, 1).unwrap();
                let par = stationary_multicolor(&inflow, &out, &colors, 1e-13, 200_000, 4).unwrap();
                assert_eq!(seq, par, "thread count must not change the result");
                for (a, b) in gs.iter().zip(&seq) {
                    assert!((a - b).abs() < 1e-9, "n={n} seed={seed}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn greedy_coloring_is_proper() {
        for n in [2, 9, 64, 200] {
            let (inflow, _) = random_chain(n, 0x5EED);
            let colors = greedy_coloring(&inflow);
            for j in 0..n {
                let (cols, _) = inflow.row(j);
                for &i in cols {
                    assert_ne!(
                        colors[i as usize], colors[j],
                        "edge {i} -> {j} shares color"
                    );
                }
            }
        }
    }

    #[test]
    fn multicolor_rejects_invalid_colorings() {
        let (inflow, out) = random_chain(8, 42);
        let bad = vec![0u32; 8];
        assert!(matches!(
            stationary_multicolor(&inflow, &out, &bad, 1e-10, 100, 2),
            Err(SparseError::InvalidColoring { .. })
        ));
        let short = vec![0u32; 3];
        assert!(matches!(
            stationary_multicolor(&inflow, &out, &short, 1e-10, 100, 2),
            Err(SparseError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn accelerated_solvers_share_degenerate_and_budget_errors() {
        // Zero outflow (absorbing state) is degenerate on every path.
        let inflow = Csr::from_triplets(2, 2, &[(0, 1, 1.0)]);
        assert!(matches!(
            stationary_sor(&inflow, &[1.0, 0.0], 1e-10, 100),
            Err(SparseError::Degenerate(_))
        ));
        assert!(matches!(
            stationary_multicolor(&inflow, &[1.0, 0.0], &[0, 1], 1e-10, 100, 1),
            Err(SparseError::Degenerate(_))
        ));
        // Exhausted sweep budgets surface the last residual.
        let flip = Csr::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, 1.0)]);
        assert!(matches!(
            stationary_sor(&flip, &[1.0, 2.0], 1e-15, 1),
            Err(SparseError::NoConvergence(_))
        ));
        assert!(matches!(
            stationary_multicolor(&flip, &[1.0, 2.0], &[0, 1], 1e-15, 1, 2),
            Err(SparseError::NoConvergence(_))
        ));
        // Single-state chains are trivial on every path.
        let one = Csr::from_triplets(1, 1, &[]);
        assert_eq!(stationary_sor(&one, &[0.0], 1e-10, 10).unwrap(), vec![1.0]);
        assert_eq!(
            stationary_multicolor(&one, &[0.0], &[0], 1e-10, 10, 4).unwrap(),
            vec![1.0]
        );
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
        let sor = stationary_sor(&inflow, &out, 1e-12, 1_000_000).unwrap();
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

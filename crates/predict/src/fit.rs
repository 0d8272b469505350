//! Pluggable interference-model fitting: from sampled coschedule
//! measurements to a rate predictor.
//!
//! A [`Fitter`] turns a set of [`RateSample`]s — per-coschedule total rates
//! for a subset of the enumeration — into a [`RatePredictor`] answering
//! per-job rate queries for *any* multiset, measured or not. Two fitters
//! ship:
//!
//! * [`BottleneckFitter`] — the paper's Section V-C linear-bottleneck
//!   model, generalised from the full-table
//!   [`symbiosis::fit_linear_bottleneck`] to sample rows
//!   ([`symbiosis::fit_linear_bottleneck_rows`]). N parameters (one
//!   full-resource rate per type); exact for true bottleneck workloads,
//!   a deliberately rigid baseline elsewhere.
//! * [`InterferenceFitter`] — a richer per-type least-squares contention
//!   model (`N·(N+1)` parameters) solved with [`lp::linsys`]: each type's
//!   per-job rate is an affine function of the full co-runner count
//!   vector, fitted over every sample the type appears in (all coschedule
//!   sizes, so partial-coschedule queries interpolate instead of
//!   extrapolating).
//!
//! Predictors clamp their output to at least [`MIN_PREDICTED_RATE`] so a
//! badly extrapolating fit degrades to a tiny positive rate instead of
//! violating the [`symbiosis::RateModel`] contract (rates of present types
//! must be finite and positive).

use lp::{linsys, Matrix};
use symbiosis::{fit_linear_bottleneck_rows, CoscheduleIter};

use crate::PredictError;

/// Smallest per-job rate a predictor will report: the positive floor that
/// keeps fitted models inside the `RateModel` contract even where the fit
/// extrapolates badly (e.g. negative bottleneck coefficients).
pub const MIN_PREDICTED_RATE: f64 = 1e-9;

/// One measured coschedule: the multiset and each type's *total* rate in
/// it (the `r_b(s)` convention of [`symbiosis::WorkloadRates`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RateSample {
    /// Per-type job counts (length = number of types; sum between 1 and
    /// the machine's context count).
    pub counts: Vec<u32>,
    /// Per-type total rates (0 for absent types).
    pub rates: Vec<f64>,
}

impl RateSample {
    /// Number of jobs in the sampled multiset.
    pub fn size(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// Validates the sample against a model shape.
    pub(crate) fn validate(&self, num_types: usize, contexts: usize) -> Result<(), PredictError> {
        if self.counts.len() != num_types || self.rates.len() != num_types {
            return Err(PredictError::Shape(format!(
                "sample {:?} does not match {num_types} types",
                self.counts
            )));
        }
        let size = self.size();
        if size == 0 || size as usize > contexts {
            return Err(PredictError::Shape(format!(
                "sample {:?} has size {size}, machine has {contexts} contexts",
                self.counts
            )));
        }
        for (b, (&c, &r)) in self.counts.iter().zip(&self.rates).enumerate() {
            if !r.is_finite() || r < 0.0 {
                return Err(PredictError::Shape(format!(
                    "sample {:?}: rate of type {b} is {r}",
                    self.counts
                )));
            }
            if c == 0 && r != 0.0 {
                return Err(PredictError::Shape(format!(
                    "sample {:?}: absent type {b} has rate {r}",
                    self.counts
                )));
            }
            if c > 0 && r <= 0.0 {
                return Err(PredictError::Shape(format!(
                    "sample {:?}: present type {b} has non-positive rate {r}",
                    self.counts
                )));
            }
        }
        Ok(())
    }
}

/// A fitted interference model: per-job rate queries for any multiset.
///
/// Besides the per-cell queries, two provided methods price in bulk:
/// [`RatePredictor::per_job_rates`] (every type of one multiset) and
/// [`RatePredictor::full_throughputs`] (every full multiset). Their
/// defaults loop over the per-cell queries. An override must return the
/// same bits as those loops: the same terms, added in the same order.
pub trait RatePredictor: Send + Sync {
    /// Predicted rate of one job of type `ty` inside the multiset `counts`
    /// — finite and at least [`MIN_PREDICTED_RATE`].
    fn per_job_rate(&self, counts: &[u32], ty: usize) -> f64;

    /// Predicted total work rate of the multiset: `counts[ty] ·
    /// per_job_rate` summed over the present types in type order — the
    /// additions [`symbiosis::RateModel::instantaneous_throughput`]'s
    /// default performs, so the two agree bit for bit. One call prices a
    /// whole multiset; an all-zero `counts` is the empty sum.
    fn instantaneous_throughput(&self, counts: &[u32]) -> f64 {
        counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(ty, &c)| c as f64 * self.per_job_rate(counts, ty))
            .sum()
    }

    /// Every type's predicted per-job rate inside the multiset `counts`,
    /// written to `out` (one entry per type): `per_job_rate(counts, ty)`
    /// bit for bit for each present type, `0.0` for each absent one. One
    /// call prices a whole sample; the default asks
    /// [`RatePredictor::per_job_rate`] once per present type.
    fn per_job_rates(&self, counts: &[u32], out: &mut [f64]) {
        for (ty, (rate, &c)) in out.iter_mut().zip(counts).enumerate() {
            *rate = if c > 0 {
                self.per_job_rate(counts, ty)
            } else {
                0.0
            };
        }
    }

    /// The predicted instantaneous throughput of every full multiset —
    /// each multiset of `contexts` jobs over `num_types` types — in
    /// [`CoscheduleIter`] order. Entry `i` equals
    /// [`RatePredictor::instantaneous_throughput`] of the `i`-th multiset
    /// bit for bit: the same per-type sums, clamped and added in type
    /// order from `-0.0`. The default makes that call once per multiset;
    /// a predictor whose rates share work across multisets overrides it.
    ///
    /// `num_types` must be the predictor's type count.
    ///
    /// # Panics
    ///
    /// Panics if `num_types` or `contexts` is zero.
    fn full_throughputs(&self, num_types: usize, contexts: usize) -> Vec<f64> {
        CoscheduleIter::new(num_types, contexts)
            .map(|s| self.instantaneous_throughput(s.counts()))
            .collect()
    }

    /// The fitted coefficient rows, for inspection and pinning tests.
    /// Layout is fitter-specific and documented on each fitter.
    fn coefficients(&self) -> Vec<Vec<f64>>;
}

/// A fit in progress for one machine shape, which a refit extends
/// instead of starting over.
pub trait FitState: Send + Sync {
    /// Fits to `samples`, of which the first `unchanged` (at most
    /// `samples.len()`) are, bit for bit and in the same positions, the
    /// samples of this state's last successful call; `0` asks for a fit
    /// from scratch. A state may fold in only what follows them. A failed
    /// call must leave nothing behind, since the caller then goes back to
    /// the samples of its last successful call.
    ///
    /// # Errors
    ///
    /// As [`Fitter::fit`].
    fn fit(
        &mut self,
        samples: &[RateSample],
        unchanged: usize,
    ) -> Result<Box<dyn RatePredictor>, PredictError>;
}

/// A pluggable interference-model fit: samples in, predictor out.
///
/// Implementations must be deterministic — same samples, same predictor —
/// so refits and reruns reproduce, and a [`FitState`] fed a sample set in
/// steps must return the predictor a one-shot [`Fitter::fit`] of the final
/// set returns.
pub trait Fitter: Send + Sync {
    /// Registry-style name used in reports (e.g. `bottleneck`).
    fn name(&self) -> &'static str;

    /// An empty fit for a machine with `num_types` job types and
    /// `contexts` hardware contexts, to be fed with [`FitState::fit`].
    fn start(&self, num_types: usize, contexts: usize) -> Box<dyn FitState>;

    /// Fits the model to `samples` for a machine with `num_types` job
    /// types and `contexts` hardware contexts.
    ///
    /// # Errors
    ///
    /// [`PredictError::NotEnoughSamples`] when the sample set cannot
    /// identify the model, [`PredictError::Fit`] when the underlying
    /// least-squares solve fails.
    fn fit(
        &self,
        num_types: usize,
        contexts: usize,
        samples: &[RateSample],
    ) -> Result<Box<dyn RatePredictor>, PredictError> {
        self.start(num_types, contexts).fit(samples, 0)
    }
}

/// Clamps a fitted prediction into the `RateModel` contract.
fn clamp_rate(v: f64) -> f64 {
    if v.is_finite() {
        v.max(MIN_PREDICTED_RATE)
    } else {
        MIN_PREDICTED_RATE
    }
}

/// The linear-bottleneck fit of Section V-C, as a [`Fitter`].
///
/// Fits full-resource rates `R_b` (least squares over the sampled *full*
/// coschedules: `sum_b r_b(s)/R_b ≈ 1`), then predicts the per-job rate of
/// type `b` in an `n`-job multiset as `min(solo_b, R_b / n)` — equal
/// resource shares among the jobs present, capped at the measured solo
/// rate. Both canonical bottleneck families are reproduced exactly: the
/// equal-share pipe (`r_b(s) = c_b/n · R_b`) and insensitive jobs
/// (`r_b(s) = c_b · R_b/K`, where the solo cap binds).
///
/// [`RatePredictor::coefficients`] layout: row 0 is `R_b`, row 1 the solo
/// caps (`f64::INFINITY` where no solo sample exists).
///
/// Its [`FitState`] keeps nothing: a refit through
/// [`Fitter::start`] fits the whole sample set from scratch, as a
/// one-shot [`Fitter::fit`] does.
pub struct BottleneckFitter;

struct BottleneckPredictor {
    full_rates: Vec<f64>,
    solo: Vec<f64>,
}

impl RatePredictor for BottleneckPredictor {
    fn per_job_rate(&self, counts: &[u32], ty: usize) -> f64 {
        let n: u32 = counts.iter().sum();
        let share = self.full_rates[ty] / n as f64;
        clamp_rate(share.min(self.solo[ty]))
    }

    fn coefficients(&self) -> Vec<Vec<f64>> {
        vec![self.full_rates.clone(), self.solo.clone()]
    }
}

impl Fitter for BottleneckFitter {
    fn name(&self) -> &'static str {
        "bottleneck"
    }

    fn start(&self, num_types: usize, contexts: usize) -> Box<dyn FitState> {
        Box::new(BottleneckFit {
            num_types,
            contexts,
        })
    }
}

/// [`BottleneckFitter`]'s state: only the machine shape.
struct BottleneckFit {
    num_types: usize,
    contexts: usize,
}

impl FitState for BottleneckFit {
    fn fit(
        &mut self,
        samples: &[RateSample],
        _unchanged: usize,
    ) -> Result<Box<dyn RatePredictor>, PredictError> {
        // The bottleneck equation `sum_b r_b(s)/R_b = 1` describes a fully
        // utilised resource — only saturated (full) coschedules obey it.
        let rows: Vec<&[f64]> = samples
            .iter()
            .filter(|s| s.size() as usize == self.contexts)
            .map(|s| s.rates.as_slice())
            .collect();
        if rows.is_empty() {
            return Err(PredictError::NotEnoughSamples(
                "bottleneck fit needs at least one full coschedule sample".into(),
            ));
        }
        let fit = fit_linear_bottleneck_rows(&rows, self.num_types)
            .map_err(|e| PredictError::Fit(e.to_string()))?;
        let mut solo = vec![f64::INFINITY; self.num_types];
        for s in samples.iter().filter(|s| s.size() == 1) {
            if let Some(b) = s.counts.iter().position(|&c| c == 1) {
                solo[b] = s.rates[b];
            }
        }
        Ok(Box::new(BottleneckPredictor {
            full_rates: fit.full_rates,
            solo,
        }))
    }
}

/// A per-type affine contention model, fitted by least squares — the
/// "richer" [`Fitter`] of the pair.
///
/// For each type `b`, the per-job rate in multiset `s` is modelled as
/// `θ_b0 + sum_j θ_bj · c_j(s)` and fitted (via
/// [`linsys::solve_normal_equations`], ridge-regularised when
/// rank-deficient) over every sample in which the type appears — all
/// coschedule sizes, so solos anchor the intercepts and partial multisets
/// interpolate.
///
/// The normal equations are assembled straight from the samples, without
/// forming the design matrix `A` (rows `[1, c_1(s), ..., c_N(s)]`):
///
/// * every Gram entry `(AᵀA)_ij` is a sum of products of small integer
///   counts, so it is accumulated exactly in `u64` and converted once.
///   Below 2⁵³ every partial sum is exact in `f64` too, whatever the
///   order, so the matrix equals a dense `Aᵀ · A` product bit for bit;
/// * `Aᵀy` keeps one `f64` accumulator per column, starts it from `-0.0`
///   (the value `Iterator::sum` starts from) and adds `a_ij · y_i` for
///   every row in sample order, zero counts included — the exact sequence
///   of operations a dense `Aᵀ.mul_vec(y)` performs, so it rounds the same.
///
/// **Pricing.** The predictor keeps θ transposed into blocks of types,
/// so [`RatePredictor::per_job_rates`] extends a block of types' sums per
/// count, and [`RatePredictor::full_throughputs`] walks the count lattice
/// depth first, summing each shared prefix of counts once instead of once
/// per multiset. Each type's sum is `θ_b0 + θ_b1·c_1 + … + θ_bN·c_N`,
/// added left to right, in the bulk paths as in
/// [`RatePredictor::per_job_rate`].
///
/// **Refit cost.** Both sums are kept between calls of its [`FitState`],
/// and appending samples continues the same additions in the same order.
/// So a refit folds in only the samples after the last folded one —
/// `O(new · N²)` — and then solves `N` systems of size `N + 1`, whatever
/// the training set's size. It re-accumulates from the first sample only
/// when an already-folded sample changed (a re-measured multiset whose
/// rates differ bitwise) or when the previous call failed. Either way the
/// predictor equals a one-shot fit of the same samples bit for bit.
///
/// [`RatePredictor::coefficients`] layout: row `b` is
/// `[θ_b0, θ_b1, ..., θ_bN]`.
pub struct InterferenceFitter;

struct InterferencePredictor {
    theta: Vec<Vec<f64>>,
    /// θ transposed into blocks of [`LANES`] types, block-major: entry
    /// `k · (N + 1) + j` holds `θ_bj` for the types `b` of block `k`,
    /// zero past the last type. The bulk paths extend a whole block of
    /// types' sums by one count at a time.
    theta_t: Vec<Block>,
}

/// Types per block of [`InterferencePredictor`]'s transposed θ. A block
/// is a fixed-size array, so its lanes stay in registers.
const LANES: usize = 4;

type Block = [f64; LANES];

/// `prev + coef·c`, lane by lane: the addition
/// [`RatePredictor::per_job_rate`] makes for a count `c`.
fn extend(prev: &Block, coef: &Block, c: f64) -> Block {
    std::array::from_fn(|l| prev[l] + coef[l] * c)
}

impl InterferencePredictor {
    fn new(theta: Vec<Vec<f64>>) -> Self {
        let dim = theta.len() + 1;
        let mut theta_t = vec![[0.0; LANES]; theta.len().div_ceil(LANES) * dim];
        for (b, row) in theta.iter().enumerate() {
            for (j, &t) in row.iter().enumerate() {
                theta_t[b / LANES * dim + j][b % LANES] = t;
            }
        }
        InterferencePredictor { theta, theta_t }
    }

    /// Each block's coefficient rows, `θ_b0` first.
    fn blocks(&self) -> std::slice::ChunksExact<'_, Block> {
        self.theta_t.chunks_exact(self.theta.len() + 1)
    }
}

impl RatePredictor for InterferencePredictor {
    fn per_job_rate(&self, counts: &[u32], ty: usize) -> f64 {
        let theta = &self.theta[ty];
        let mut v = theta[0];
        for (j, &c) in counts.iter().enumerate() {
            v += theta[j + 1] * c as f64;
        }
        clamp_rate(v)
    }

    /// Every type's sum `θ_b0 + Σ θ_b,j+1·c_j`, a block of types at a
    /// time: the same additions in the same order as
    /// [`RatePredictor::per_job_rate`].
    fn per_job_rates(&self, counts: &[u32], out: &mut [f64]) {
        for ((rates, present), coefs) in out
            .chunks_mut(LANES)
            .zip(counts.chunks(LANES))
            .zip(self.blocks())
        {
            let (intercepts, rows) = coefs.split_first().expect("a block has an intercept row");
            let mut v = *intercepts;
            for (row, &c) in rows.iter().zip(counts) {
                v = extend(&v, row, c as f64);
            }
            for ((rate, v), &c) in rates.iter_mut().zip(v).zip(present) {
                *rate = if c > 0 { clamp_rate(v) } else { 0.0 };
            }
        }
    }

    /// A depth-first walk of the count lattice (see [`LatticeWalk`]).
    fn full_throughputs(&self, num_types: usize, contexts: usize) -> Vec<f64> {
        let n = self.theta.len();
        assert_eq!(num_types, n, "predictor fitted for {n} types");
        assert!(n > 0 && contexts > 0, "need a type and a context");
        if n == 1 {
            return vec![self.instantaneous_throughput(&[contexts as u32])];
        }
        let blocks = n.div_ceil(LANES);
        let mut partial = vec![[0.0; LANES]; (n + 1) * blocks];
        for (level, coefs) in partial.iter_mut().zip(self.blocks()) {
            *level = coefs[0];
        }
        let mut unit = vec![[[0.0; LANES]; 2]; blocks];
        for (u, ty) in [n - 2, n - 1].into_iter().enumerate() {
            unit[ty / LANES][u][ty % LANES] = 1.0;
        }
        let mut walk = LatticeWalk {
            theta_t: &self.theta_t,
            n,
            partial,
            weights: vec![[0.0; LANES]; blocks],
            unit,
            out: Vec::with_capacity(CoscheduleIter::count_total(n, contexts)),
        };
        walk.descend(0, contexts as u32);
        walk.out
    }

    fn coefficients(&self) -> Vec<Vec<f64>> {
        self.theta.clone()
    }
}

/// [`InterferencePredictor::full_throughputs`]'s walk of the count
/// lattice, in descending lexicographic order ([`CoscheduleIter`]'s).
/// Level `i` of `partial` holds every type's sum over the intercept and
/// the first `i` counts, so each multiset extends the sums of the prefix
/// it shares with its siblings: a prefix is summed once, not once per
/// multiset.
struct LatticeWalk<'a> {
    /// The predictor's block-major θᵀ.
    theta_t: &'a [Block],
    /// Types.
    n: usize,
    /// Level `i` of block `k` at `i · blocks + k`, for levels `0..=n`.
    partial: Vec<Block>,
    /// The counts of the multiset being built, as `f64` blocks: types
    /// `..n - 2` only, the other lanes stay 0.
    weights: Vec<Block>,
    /// One-hot lanes of the last two types, by block.
    unit: Vec<[Block; 2]>,
    /// Each finished multiset's throughput, in visiting order.
    out: Vec<f64>,
}

impl LatticeWalk<'_> {
    /// Visits every multiset that completes the counts of types `..i`
    /// with `left` more jobs.
    fn descend(&mut self, i: usize, left: u32) {
        if i + 2 == self.n {
            self.finish(left);
            return;
        }
        for c in (0..=left).rev() {
            self.set_count(i, c);
            self.descend(i + 1, left - c);
        }
    }

    /// Gives type `i` `c` jobs: level `i + 1` is level `i` extended by
    /// `θ_b,i+1·c` for every type.
    fn set_count(&mut self, i: usize, c: u32) {
        let c = f64::from(c);
        let blocks = self.weights.len();
        self.weights[i / LANES][i % LANES] = c;
        for k in 0..blocks {
            let coefs = &self.theta_t[k * (self.n + 1) + i + 1];
            self.partial[(i + 1) * blocks + k] = extend(&self.partial[i * blocks + k], coefs, c);
        }
    }

    /// Records every multiset in which the last two types share `left`
    /// jobs, a run of siblings. Their sums are extended from level
    /// `n - 2` in registers and never stored, and so are their weights:
    /// the last two lanes of `weights` stay 0 and gain the two counts
    /// through `unit`, exactly.
    ///
    /// Each throughput is the sum [`RatePredictor::instantaneous_throughput`]
    /// makes over the present types, in type order from `-0.0`. Here an
    /// absent type (or padding lane) adds `0·rate = +0.0` instead of being
    /// skipped. Every present type adds at least [`MIN_PREDICTED_RATE`],
    /// and adding `+0.0` changes no sum but `-0.0`, which a present type
    /// then overwrites. So the bits agree, with no branch per type.
    fn finish(&mut self, left: u32) {
        let (n, blocks) = (self.n, self.weights.len());
        let level = &self.partial[(n - 2) * blocks..(n - 1) * blocks];
        for c in (0..=left).rev() {
            let (a, b) = (f64::from(c), f64::from(left - c));
            let mut total = -0.0;
            for (((prev, w), unit), coefs) in level
                .iter()
                .zip(&self.weights)
                .zip(&self.unit)
                .zip(self.theta_t.chunks_exact(n + 1))
            {
                let v = extend(&extend(prev, &coefs[n - 1], a), &coefs[n], b);
                let w = extend(&extend(w, &unit[0], a), &unit[1], b);
                let terms: Block = std::array::from_fn(|l| w[l] * clamp_rate(v[l]));
                for term in terms {
                    total += term;
                }
            }
            self.out.push(total);
        }
    }
}

impl Fitter for InterferenceFitter {
    fn name(&self) -> &'static str {
        "interference-lsq"
    }

    fn start(&self, num_types: usize, _contexts: usize) -> Box<dyn FitState> {
        let dim = num_types + 1;
        Box::new(NormalEquations {
            num_types,
            folded: 0,
            gram: vec![0; num_types * dim * dim],
            aty: vec![-0.0; num_types * dim],
        })
    }
}

/// Every type's normal equations over the first `folded` samples.
struct NormalEquations {
    num_types: usize,
    /// Samples summed into `gram` and `aty` so far.
    folded: usize,
    /// Upper triangle of each type's `AᵀA`, row-major, exact.
    gram: Vec<u64>,
    /// Each type's `Aᵀy`, summed in sample order.
    aty: Vec<f64>,
}

impl NormalEquations {
    fn clear(&mut self) {
        self.folded = 0;
        self.gram.fill(0);
        self.aty.fill(-0.0);
    }

    /// Sums `samples` into every type's normal equations: type `b`'s rows
    /// are the samples it appears in, in sample order.
    fn fold(&mut self, samples: &[RateSample]) {
        let dim = self.num_types + 1;
        let mut present: Vec<(usize, u64)> = Vec::with_capacity(self.num_types);
        for s in samples {
            present.clear();
            present.extend(
                s.counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(j, &c)| (j, u64::from(c))),
            );
            for &(b, count) in &present {
                // Upper triangle of type `b`'s AᵀA, row-major; row and
                // column 0 are the intercept. Zero counts add nothing.
                let g = &mut self.gram[b * dim * dim..(b + 1) * dim * dim];
                g[0] += 1;
                for (i, &(j, cj)) in present.iter().enumerate() {
                    g[j + 1] += cj;
                    for &(l, cl) in &present[i..] {
                        g[(j + 1) * dim + l + 1] += cj * cl;
                    }
                }
                let y = s.rates[b] / count as f64;
                let a = &mut self.aty[b * dim..(b + 1) * dim];
                a[0] += y;
                for (j, &c) in s.counts.iter().enumerate() {
                    a[j + 1] += c as f64 * y;
                }
            }
        }
        self.folded += samples.len();
    }

    fn solve(&self) -> Result<Vec<Vec<f64>>, PredictError> {
        let dim = self.num_types + 1;
        let mut theta = Vec::with_capacity(self.num_types);
        for b in 0..self.num_types {
            let g = &self.gram[b * dim * dim..(b + 1) * dim * dim];
            if g[0] == 0 {
                return Err(PredictError::NotEnoughSamples(format!(
                    "type {b} appears in no sample"
                )));
            }
            let mut ata = Matrix::zeros(dim, dim);
            for i in 0..dim {
                for j in i..dim {
                    let v = g[i * dim + j] as f64;
                    ata[(i, j)] = v;
                    ata[(j, i)] = v;
                }
            }
            let coef = linsys::solve_normal_equations(ata, &self.aty[b * dim..(b + 1) * dim])
                .map_err(|e| PredictError::Fit(format!("type {b}: {e}")))?;
            theta.push(coef);
        }
        Ok(theta)
    }
}

impl FitState for NormalEquations {
    fn fit(
        &mut self,
        samples: &[RateSample],
        unchanged: usize,
    ) -> Result<Box<dyn RatePredictor>, PredictError> {
        if unchanged < self.folded {
            self.clear();
        }
        self.fold(&samples[self.folded..]);
        match self.solve() {
            Ok(theta) => Ok(Box::new(InterferencePredictor::new(theta))),
            Err(e) => {
                // The caller reverts its samples on failure: forget them.
                self.clear();
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbiosis::enumerate_coschedules;
    use symbiosis::rng::SplitMix64;

    /// Samples of an exact equal-share bottleneck: `r_b(s) = c_b/n · R_b`.
    fn bottleneck_samples(big_r: &[f64], k: usize) -> Vec<RateSample> {
        let n = big_r.len();
        let mut samples = Vec::new();
        for size in 1..=k {
            for s in enumerate_coschedules(n, size) {
                let total = s.size() as f64;
                samples.push(RateSample {
                    counts: s.counts().to_vec(),
                    rates: s
                        .counts()
                        .iter()
                        .zip(big_r)
                        .map(|(&c, &r)| c as f64 / total * r)
                        .collect(),
                });
            }
        }
        samples
    }

    /// Samples of an exact affine contention law (per-job rates).
    fn affine_samples(theta: &[Vec<f64>], k: usize) -> Vec<RateSample> {
        let n = theta.len();
        let mut samples = Vec::new();
        for size in 1..=k {
            for s in enumerate_coschedules(n, size) {
                let rates: Vec<f64> = (0..n)
                    .map(|b| {
                        if s.count(b) == 0 {
                            0.0
                        } else {
                            let mut v = theta[b][0];
                            for (j, &c) in s.counts().iter().enumerate() {
                                v += theta[b][j + 1] * c as f64;
                            }
                            s.count(b) as f64 * v
                        }
                    })
                    .collect();
                samples.push(RateSample {
                    counts: s.counts().to_vec(),
                    rates,
                });
            }
        }
        samples
    }

    /// The ISSUE's pinning fixture: the dense (all-samples) bottleneck case
    /// must recover the exact generator coefficients.
    #[test]
    fn bottleneck_fitter_pins_exact_coefficients_on_the_dense_case() {
        let big_r = [2.0, 1.0, 0.5];
        let samples = bottleneck_samples(&big_r, 3);
        let pred = BottleneckFitter.fit(3, 3, &samples).unwrap();
        let coef = pred.coefficients();
        for (got, want) in coef[0].iter().zip(big_r) {
            assert!((got - want).abs() < 1e-6, "R_b {got} vs {want}");
        }
        // Solo caps are the measured solo rates: R_b themselves here.
        for (got, want) in coef[1].iter().zip(big_r) {
            assert!((got - want).abs() < 1e-12, "solo {got} vs {want}");
        }
        // Predictions reproduce the generator on full and partial sizes.
        assert!((pred.per_job_rate(&[1, 1, 1], 0) - 2.0 / 3.0).abs() < 1e-6);
        assert!((pred.per_job_rate(&[1, 1, 0], 1) - 0.5).abs() < 1e-6);
        assert!((pred.per_job_rate(&[1, 0, 0], 0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn bottleneck_fitter_caps_insensitive_jobs_at_solo_rate() {
        // Insensitive jobs: r_b(s) = c_b * rate_b; solo rate binds for
        // every partial multiset.
        let samples: Vec<RateSample> = enumerate_coschedules(2, 4)
            .into_iter()
            .map(|s| RateSample {
                counts: s.counts().to_vec(),
                rates: s
                    .counts()
                    .iter()
                    .zip([0.5, 0.25])
                    .map(|(&c, r)| c as f64 * r)
                    .collect(),
            })
            .chain([
                RateSample {
                    counts: vec![1, 0],
                    rates: vec![0.5, 0.0],
                },
                RateSample {
                    counts: vec![0, 1],
                    rates: vec![0.0, 0.25],
                },
            ])
            .collect();
        let pred = BottleneckFitter.fit(2, 4, &samples).unwrap();
        // R_b = K * rate_b = 2.0 / 1.0; the solo cap keeps any smaller
        // multiset at the insensitive per-job rate.
        assert!((pred.per_job_rate(&[1, 0], 0) - 0.5).abs() < 1e-6);
        assert!((pred.per_job_rate(&[1, 1], 0) - 0.5).abs() < 1e-6);
        assert!((pred.per_job_rate(&[2, 2], 1) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn bottleneck_fitter_requires_full_samples() {
        let samples = vec![RateSample {
            counts: vec![1, 0],
            rates: vec![1.0, 0.0],
        }];
        assert!(matches!(
            BottleneckFitter.fit(2, 2, &samples),
            Err(PredictError::NotEnoughSamples(_))
        ));
    }

    /// The second pinning fixture: the affine fitter must recover an exact
    /// affine generator's coefficients from the dense sample set.
    #[test]
    fn interference_fitter_pins_exact_coefficients_on_the_dense_case() {
        let theta = vec![
            vec![1.00, -0.10, -0.05, -0.02],
            vec![0.80, -0.04, -0.12, -0.03],
            vec![0.60, -0.02, -0.03, -0.08],
        ];
        let samples = affine_samples(&theta, 3);
        let pred = InterferenceFitter.fit(3, 3, &samples).unwrap();
        let coef = pred.coefficients();
        for (b, want_row) in theta.iter().enumerate() {
            for (got, want) in coef[b].iter().zip(want_row) {
                assert!(
                    (got - want).abs() < 1e-6,
                    "theta[{b}]: {:?} vs {want_row:?}",
                    coef[b]
                );
            }
        }
        // Exact reproduction everywhere, including unmeasured queries.
        assert!((pred.per_job_rate(&[2, 0, 1], 0) - (1.0 - 0.2 - 0.02)).abs() < 1e-6);
    }

    #[test]
    fn interference_fitter_identifies_from_a_sampled_subset() {
        let theta = vec![vec![1.0, -0.1, -0.06], vec![0.7, -0.03, -0.09]];
        let all = affine_samples(&theta, 4);
        // Every other sample still spans the feature space.
        let subset: Vec<RateSample> = all.into_iter().step_by(2).collect();
        let pred = InterferenceFitter.fit(2, 4, &subset).unwrap();
        for (b, want_row) in theta.iter().enumerate() {
            for (got, want) in pred.coefficients()[b].iter().zip(want_row) {
                assert!((got - want).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn interference_fitter_rejects_uncovered_types() {
        let samples = vec![RateSample {
            counts: vec![2, 0],
            rates: vec![1.0, 0.0],
        }];
        assert!(matches!(
            InterferenceFitter.fit(2, 2, &samples),
            Err(PredictError::NotEnoughSamples(_))
        ));
    }

    #[test]
    fn predictions_are_clamped_positive() {
        // A generator that pushes the affine fit strongly negative for
        // large counts the fit never saw.
        let samples = vec![
            RateSample {
                counts: vec![1, 0],
                rates: vec![0.2, 0.0],
            },
            RateSample {
                counts: vec![0, 1],
                rates: vec![0.0, 1.0],
            },
            RateSample {
                counts: vec![1, 1],
                rates: vec![0.05, 0.4],
            },
        ];
        let pred = InterferenceFitter.fit(2, 8, &samples).unwrap();
        let v = pred.per_job_rate(&[1, 7], 0);
        assert!(v >= MIN_PREDICTED_RATE && v.is_finite());
    }

    /// A seeded coefficient: mostly moderate values of either sign, with
    /// zeros of both signs, values that push a rate below the clamp or
    /// past `f64::MAX`, and non-finite ones mixed in.
    fn wild_coefficient(rng: &mut SplitMix64) -> f64 {
        match rng.next_range(16) {
            0 => 0.0,
            1 => -0.0,
            2 => -5.0 - rng.next_f64(),
            3 => f64::MAX * (rng.next_f64() - 0.5),
            4 if rng.next_range(4) == 0 => f64::NAN,
            5 if rng.next_range(4) == 0 => f64::INFINITY,
            6 if rng.next_range(4) == 0 => f64::NEG_INFINITY,
            _ => 2.0 * rng.next_f64() - 1.0,
        }
    }

    /// Asserts that `pred`'s bulk paths agree with its per-cell answers
    /// bit for bit, over every multiset of `n` types and up to `k` jobs.
    fn assert_bulk_matches_per_cell(pred: &dyn RatePredictor, n: usize, k: usize) {
        let full = pred.full_throughputs(n, k);
        assert_eq!(full.len(), CoscheduleIter::count_total(n, k), "n {n} k {k}");
        for (got, s) in full.iter().zip(CoscheduleIter::new(n, k)) {
            let want = pred.instantaneous_throughput(s.counts());
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "throughput of {s}: {got} vs {want}"
            );
        }
        let mut rates = vec![f64::NAN; n];
        for s in (1..=k).flat_map(|size| CoscheduleIter::new(n, size)) {
            pred.per_job_rates(s.counts(), &mut rates);
            for (ty, (&got, &c)) in rates.iter().zip(s.counts()).enumerate() {
                let want = if c > 0 {
                    pred.per_job_rate(s.counts(), ty)
                } else {
                    0.0
                };
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "rate of {ty} in {s}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn bulk_pricing_matches_per_cell_pricing_bit_for_bit() {
        let mut rng = SplitMix64::new(0xB17F_0B17);
        for n in 1..=8 {
            for k in 1..=8 {
                for _ in 0..3 {
                    let theta: Vec<Vec<f64>> = (0..n)
                        .map(|_| (0..=n).map(|_| wild_coefficient(&mut rng)).collect())
                        .collect();
                    assert_bulk_matches_per_cell(&InterferencePredictor::new(theta), n, k);
                    // The bottleneck fitter keeps the trait's defaults.
                    let bottleneck = BottleneckPredictor {
                        full_rates: (0..n).map(|_| wild_coefficient(&mut rng)).collect(),
                        solo: (0..n)
                            .map(|_| match rng.next_range(3) {
                                0 => f64::INFINITY,
                                _ => wild_coefficient(&mut rng),
                            })
                            .collect(),
                    };
                    assert_bulk_matches_per_cell(&bottleneck, n, k);
                }
            }
        }
    }

    #[test]
    fn a_fitted_predictor_prices_in_bulk_as_per_cell() {
        let theta = vec![
            vec![1.00, -0.10, -0.05, -0.02],
            vec![0.80, -0.04, -0.12, -0.03],
            vec![0.60, -0.02, -0.03, -0.08],
        ];
        let pred = InterferenceFitter
            .fit(3, 5, &affine_samples(&theta, 5))
            .unwrap();
        assert_bulk_matches_per_cell(&*pred, 3, 5);
    }

    #[test]
    fn sample_validation_catches_malformed_rows() {
        let ok = RateSample {
            counts: vec![1, 1],
            rates: vec![0.5, 0.4],
        };
        assert!(ok.validate(2, 2).is_ok());
        assert!(ok.validate(3, 2).is_err(), "shape mismatch");
        assert!(ok.validate(2, 1).is_err(), "oversized multiset");
        let absent = RateSample {
            counts: vec![1, 0],
            rates: vec![0.5, 0.1],
        };
        assert!(absent.validate(2, 2).is_err(), "absent type with rate");
        let nonpos = RateSample {
            counts: vec![1, 1],
            rates: vec![0.5, 0.0],
        };
        assert!(nonpos.validate(2, 2).is_err(), "present type rate 0");
    }
}

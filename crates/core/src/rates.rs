//! Per-coschedule execution rates — the scheduler's knowledge.
//!
//! Three representations live here:
//!
//! * [`WorkloadRates`] — the materialised table of every *full* coschedule
//!   of one workload, consumed by the LP / Markov / variability analyses;
//! * [`RateModel`] — the workspace-wide trait over *any* rate source
//!   (measured tables, analytic closures, fitted predictors), including
//!   partial coschedules for the latency experiments. The `queueing`
//!   crate's schedulers and the `session` crate's [`Session`] entry point
//!   consume this trait;
//! * [`RateGrid`] — one eager, immutable evaluation of a rate model over
//!   every multiset it advertises: the table the Section VI DES, the
//!   serve loop and the digital twin's error check read instead of calling
//!   the model per query.
//!
//! # `RateModel` implementors
//!
//! Every implementation passes the shared contract test
//! [`assert_rate_model_conformance`]:
//!
//! | Implementor | Crate | Rates come from | Partial coschedules |
//! |-------------|-------|-----------------|---------------------|
//! | [`WorkloadRates`] | `symbiosis` | a materialised full-coschedule table | no (saturated analyses only) |
//! | [`AnalyticModel`] | `symbiosis` | a per-job rate closure | yes |
//! | [`RateGrid`] | `symbiosis` | another model's answers, evaluated once | inherited from that model |
//! | `workloads::WorkloadView` | `workloads` | simulated per-slot IPCs of a [`PerfTable`] | yes |
//! | `predict::PredictedModel` | `predict` | an interference model fitted to sampled measurements ([`Fitter`]) | yes |
//! | `queueing::ContentionModel` | `queueing` | a solo rate scaled by the co-runner count | yes |
//!
//! [`Session`]: https://docs.rs/session
//! [`PerfTable`]: https://docs.rs/workloads
//! [`Fitter`]: https://docs.rs/predict

use crate::coschedule::{
    enumerate_coschedules, Coschedule, CoscheduleIndex, CoscheduleIter, CoscheduleRank,
};
use crate::error::SymbiosisError;

/// A source of per-coschedule execution rates — the one abstraction every
/// scheduler and analysis in the workspace consumes.
///
/// `counts` describes a multiset of jobs occupying the machine (length
/// [`RateModel::num_types`], total between 1 and [`RateModel::contexts`]).
/// Implementations backed by saturated-machine tables may only support
/// *full* multisets (`counts.sum() == contexts`); they advertise that via
/// [`RateModel::supports_partial`] and the latency experiments reject them
/// up front.
///
/// # Examples
///
/// ```
/// use symbiosis::{AnalyticModel, RateModel};
///
/// // Each job runs at its solo speed divided by the number of co-runners.
/// let m = AnalyticModel::new(2, 4, |counts, ty| {
///     let n: u32 = counts.iter().sum();
///     [1.0, 0.5][ty] / n as f64
/// });
/// assert_eq!(m.per_job_rate(&[1, 0], 0), 1.0);
/// assert!((m.instantaneous_throughput(&[2, 2]) - (2.0 * 0.25 + 2.0 * 0.125)).abs() < 1e-12);
/// ```
pub trait RateModel {
    /// Number of job types.
    fn num_types(&self) -> usize;

    /// Number of hardware contexts.
    fn contexts(&self) -> usize;

    /// Execution rate of *one* job of type `ty` when the multiset described
    /// by `counts` occupies the machine, in work units per cycle.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `counts[ty] == 0`, the multiset is
    /// empty/oversized, or (for full-only models) the multiset is partial.
    fn per_job_rate(&self, counts: &[u32], ty: usize) -> f64;

    /// Total rate `r_ty(s)` of all jobs of type `ty` in the multiset
    /// (`counts[ty] * per_job_rate`), or 0 for an absent type.
    fn total_rate(&self, counts: &[u32], ty: usize) -> f64 {
        if counts[ty] == 0 {
            0.0
        } else {
            counts[ty] as f64 * self.per_job_rate(counts, ty)
        }
    }

    /// Total work rate of the multiset: `sum_ty counts[ty] * per_job_rate`.
    fn instantaneous_throughput(&self, counts: &[u32]) -> f64 {
        counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(ty, &c)| c as f64 * self.per_job_rate(counts, ty))
            .sum()
    }

    /// Whether the model answers queries for partial multisets
    /// (`counts.sum() < contexts`). Latency experiments require this;
    /// saturated-machine analyses do not.
    fn supports_partial(&self) -> bool {
        true
    }

    /// Materialises the full-coschedule [`WorkloadRates`] table this model
    /// induces, for the LP / Markov / variability analyses.
    ///
    /// # Errors
    ///
    /// Returns [`SymbiosisError::InvalidRates`] if the model produces
    /// malformed rates (non-finite, non-positive for a present type).
    fn full_table(&self) -> Result<WorkloadRates, SymbiosisError> {
        let n = self.num_types();
        WorkloadRates::build(n, self.contexts(), |s| {
            (0..n).map(|b| self.total_rate(s.counts(), b)).collect()
        })
    }
}

impl<M: RateModel + ?Sized> RateModel for &M {
    fn num_types(&self) -> usize {
        (**self).num_types()
    }

    fn contexts(&self) -> usize {
        (**self).contexts()
    }

    fn per_job_rate(&self, counts: &[u32], ty: usize) -> f64 {
        (**self).per_job_rate(counts, ty)
    }

    fn total_rate(&self, counts: &[u32], ty: usize) -> f64 {
        (**self).total_rate(counts, ty)
    }

    fn instantaneous_throughput(&self, counts: &[u32]) -> f64 {
        (**self).instantaneous_throughput(counts)
    }

    fn supports_partial(&self) -> bool {
        (**self).supports_partial()
    }

    fn full_table(&self) -> Result<WorkloadRates, SymbiosisError> {
        (**self).full_table()
    }
}

/// A [`RateModel`] defined by a closure returning per-job rates.
///
/// The cheapest way to express predicted or synthetic rate sources — toy
/// contention laws, analytic interference models, digital-twin predictors.
pub struct AnalyticModel<F> {
    num_types: usize,
    contexts: usize,
    rate_fn: F,
}

impl<F> AnalyticModel<F>
where
    F: Fn(&[u32], usize) -> f64,
{
    /// Creates the model. `rate_fn(counts, ty)` must return the rate of one
    /// job of type `ty` inside the multiset `counts`.
    ///
    /// # Panics
    ///
    /// Panics if `num_types == 0` or `contexts == 0`.
    pub fn new(num_types: usize, contexts: usize, rate_fn: F) -> Self {
        assert!(num_types > 0, "need at least one job type");
        assert!(contexts > 0, "need at least one context");
        AnalyticModel {
            num_types,
            contexts,
            rate_fn,
        }
    }
}

impl<F> RateModel for AnalyticModel<F>
where
    F: Fn(&[u32], usize) -> f64,
{
    fn num_types(&self) -> usize {
        self.num_types
    }

    fn contexts(&self) -> usize {
        self.contexts
    }

    fn per_job_rate(&self, counts: &[u32], ty: usize) -> f64 {
        assert_eq!(counts.len(), self.num_types, "counts length mismatch");
        assert!(counts[ty] > 0, "type {ty} not present");
        let n: u32 = counts.iter().sum();
        assert!(
            n >= 1 && n as usize <= self.contexts,
            "multiset size {n} out of range"
        );
        (self.rate_fn)(counts, ty)
    }
}

/// Every answer of a [`RateModel`], evaluated once: the one rate table
/// the Section VI DES, the serve loop and the twin's error check read.
///
/// Construction asks the model about every multiset it advertises (sizes
/// `1..=K`, or only `K` for [`RateGrid::full`] and full-only models), as
/// [`assert_rate_model_conformance`] already does; after that the grid is
/// immutable and never calls the model again. Cells follow enumeration
/// order (sizes ascending, [`CoscheduleIter`] order within a size) and
/// hold the counts, each type's per-job rate (0.0 when absent) and the
/// instantaneous throughput, each stored as the model's own answer, so a
/// grid returns exactly the model's bits. (Totals are not stored:
/// `c * x / c` is not always `x`.) A lookup reads the counts as digits in
/// base `K + 1` when `(K + 1)^types <= 2^18`, and takes their
/// [`CoscheduleIndex`] position otherwise: on a 2.1 GHz x86-64 core a
/// digit key measured 6.7 ns a lookup and a rank 17.5 ns.
///
/// As a [`RateModel`] a grid panics on a multiset outside its cells. Its
/// [`RateModel::full_table`] is the trait default, `count * per_job_rate`,
/// which for a `workloads::WorkloadView` differs by an ULP from the view's
/// own slot sums, so `session::Session` asks the user's model for the table.
///
/// ```
/// use symbiosis::{AnalyticModel, RateGrid, RateModel};
///
/// let model = AnalyticModel::new(2, 3, |counts, ty| {
///     [1.0, 0.5][ty] / counts.iter().sum::<u32>() as f64
/// });
/// let grid = RateGrid::new(&model)?;
/// assert_eq!(grid.len(), 2 + 3 + 4); // sizes 1, 2 and 3
/// assert_eq!(grid.per_job_rates(&[1, 2]), &[1.0 / 3.0, 0.5 / 3.0]);
/// assert_eq!(RateGrid::full(&model)?.len(), 4);
/// # Ok::<(), symbiosis::SymbiosisError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RateGrid {
    num_types: usize,
    contexts: usize,
    partial: bool,
    keys: GridKeys,
    /// `counts` and `per_job` hold `types` entries per cell.
    counts: Vec<u32>,
    per_job: Vec<f64>,
    throughput: Vec<f64>,
}

#[derive(Debug, Clone, PartialEq)]
enum GridKeys {
    /// `place[ty]` = `(K + 1)^ty`; `cell_of[key]` is `u32::MAX` off-grid.
    Digits {
        place: Vec<usize>,
        cell_of: Vec<u32>,
    },
    Ranks(CoscheduleIndex),
}

impl RateGrid {
    /// Evaluates `model` over sizes `1..=K`, or only `K` if the model does
    /// not [support partial multisets](RateModel::supports_partial).
    ///
    /// # Errors
    ///
    /// [`SymbiosisError::InvalidParameter`] for a model with no types or
    /// contexts; [`SymbiosisError::InvalidRates`] when a present type's
    /// per-job rate is non-finite or not positive.
    pub fn new(model: &dyn RateModel) -> Result<Self, SymbiosisError> {
        let k = model.contexts();
        Self::build(model, if model.supports_partial() { 1 } else { k })
    }

    /// Evaluates `model` over the full (size `K`) multisets only.
    ///
    /// # Errors
    ///
    /// As [`RateGrid::new`].
    pub fn full(model: &dyn RateModel) -> Result<Self, SymbiosisError> {
        Self::build(model, model.contexts())
    }

    fn build(model: &dyn RateModel, min_size: usize) -> Result<Self, SymbiosisError> {
        let (n, k) = (model.num_types(), model.contexts());
        if n == 0 || k == 0 {
            return Err(SymbiosisError::InvalidParameter(format!(
                "a rate grid needs types and contexts, got {n} and {k}"
            )));
        }
        let index = CoscheduleIndex::new(n, min_size..=k);
        let mut counts = Vec::with_capacity(index.total() * n);
        let mut per_job = Vec::with_capacity(index.total() * n);
        let mut throughput = Vec::with_capacity(index.total());
        for size in min_size..=k {
            // Walk the stratum in place: no allocation per cell.
            let mut c = vec![0u32; n];
            c[0] = size as u32;
            loop {
                for ty in 0..n {
                    let rate = if c[ty] == 0 {
                        0.0
                    } else {
                        model.per_job_rate(&c, ty)
                    };
                    if c[ty] > 0 && !(rate.is_finite() && rate > 0.0) {
                        return Err(SymbiosisError::InvalidRates(format!(
                            "coschedule {c:?}: per-job rate of type {ty} is {rate}"
                        )));
                    }
                    per_job.push(rate);
                }
                throughput.push(model.instantaneous_throughput(&c));
                counts.extend_from_slice(&c);
                if !CoscheduleIter::advance(&mut c) {
                    break;
                }
            }
        }
        let keys = match (k + 1)
            .checked_pow(n as u32)
            .filter(|&keys| keys <= 1 << 18)
        {
            Some(keys) => {
                let place: Vec<usize> = (0..n as u32).map(|ty| (k + 1).pow(ty)).collect();
                let mut cell_of = vec![u32::MAX; keys];
                for (cell, c) in counts.chunks_exact(n).enumerate() {
                    cell_of[digit_key(c, &place).0] = cell as u32;
                }
                GridKeys::Digits { place, cell_of }
            }
            None => GridKeys::Ranks(index),
        };
        Ok(RateGrid {
            num_types: n,
            contexts: k,
            partial: min_size == 1,
            keys,
            counts,
            per_job,
            throughput,
        })
    }

    /// Number of cells (multisets).
    pub fn len(&self) -> usize {
        self.throughput.len()
    }

    /// True if the grid has no cells (never, for a built grid).
    pub fn is_empty(&self) -> bool {
        self.throughput.is_empty()
    }

    /// The cell of `counts`, or `None` outside the grid (wrong length,
    /// empty, oversized, or partial in a full grid).
    #[inline]
    pub fn index_of(&self, counts: &[u32]) -> Option<usize> {
        if counts.len() != self.num_types {
            return None;
        }
        match &self.keys {
            GridKeys::Digits { place, cell_of } => {
                // A size within K bounds every digit by K: the key is unique.
                let (key, size) = digit_key(counts, place);
                let cell = *cell_of.get(key).filter(|_| size <= self.contexts)?;
                (cell != u32::MAX).then_some(cell as usize)
            }
            GridKeys::Ranks(index) => index.index(counts),
        }
    }

    #[inline]
    fn cell(&self, counts: &[u32]) -> usize {
        self.index_of(counts)
            .unwrap_or_else(|| panic!("multiset {counts:?} is not in the rate grid"))
    }

    /// Every type's per-job rate in `counts` (0.0 when absent), from one
    /// lookup.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is outside the grid.
    #[inline]
    pub fn per_job_rates(&self, counts: &[u32]) -> &[f64] {
        let n = self.num_types;
        &self.per_job[self.cell(counts) * n..][..n]
    }

    /// Each full (size `K`) multiset's counts and instantaneous throughput,
    /// in [`CoscheduleIter`] order: a walk over the stored cells.
    pub fn full_cells(&self) -> impl Iterator<Item = (&[u32], f64)> + '_ {
        let start = self.len() - CoscheduleIter::count_total(self.num_types, self.contexts);
        self.counts[start * self.num_types..]
            .chunks_exact(self.num_types)
            .zip(self.throughput[start..].iter().copied())
    }
}

/// The counts of a multiset read as base-`(K + 1)` digits, and its size.
#[inline]
fn digit_key(counts: &[u32], place: &[usize]) -> (usize, usize) {
    let (mut key, mut size) = (0, 0);
    for (&c, &p) in counts.iter().zip(place) {
        key += c as usize * p;
        size += c as usize;
    }
    (key, size)
}

impl RateModel for RateGrid {
    fn num_types(&self) -> usize {
        self.num_types
    }

    fn contexts(&self) -> usize {
        self.contexts
    }

    fn per_job_rate(&self, counts: &[u32], ty: usize) -> f64 {
        self.per_job_rates(counts)[ty]
    }

    fn instantaneous_throughput(&self, counts: &[u32]) -> f64 {
        self.throughput[self.cell(counts)]
    }

    fn supports_partial(&self) -> bool {
        self.partial
    }
}

/// A full-coschedule table is itself a rate model — for the saturated
/// analyses only ([`RateModel::supports_partial`] is `false`).
impl RateModel for WorkloadRates {
    fn num_types(&self) -> usize {
        self.num_types
    }

    fn contexts(&self) -> usize {
        self.contexts
    }

    fn per_job_rate(&self, counts: &[u32], ty: usize) -> f64 {
        let si = self
            .index_of_counts(counts)
            .unwrap_or_else(|| panic!("coschedule {counts:?} not in the table"));
        WorkloadRates::per_job_rate(self, si, ty)
    }

    fn supports_partial(&self) -> bool {
        false
    }

    fn full_table(&self) -> Result<WorkloadRates, SymbiosisError> {
        Ok(self.clone())
    }
}

/// Asserts the [`RateModel`] contract on `model` — the shared conformance
/// check every implementation's test suite runs.
///
/// Verifies, over every full coschedule (and every partial multiset when
/// the model supports them): rates of present types are finite and
/// positive, absent types contribute zero, `total_rate` equals
/// `count * per_job_rate`, `instantaneous_throughput` equals the sum of
/// total rates, and [`RateModel::full_table`] reproduces the same numbers.
///
/// # Panics
///
/// Panics with a description of the first violated invariant.
pub fn assert_rate_model_conformance(model: &dyn RateModel) {
    let n = model.num_types();
    let k = model.contexts();
    assert!(n > 0, "model must have at least one type");
    assert!(k > 0, "model must have at least one context");

    let sizes = if model.supports_partial() {
        1..=k
    } else {
        k..=k
    };
    for size in sizes {
        for s in enumerate_coschedules(n, size) {
            let counts = s.counts();
            let mut sum = 0.0;
            for ty in 0..n {
                let total = model.total_rate(counts, ty);
                if counts[ty] == 0 {
                    assert_eq!(
                        total, 0.0,
                        "absent type {ty} in {counts:?} has rate {total}"
                    );
                    continue;
                }
                let per_job = model.per_job_rate(counts, ty);
                assert!(
                    per_job.is_finite() && per_job > 0.0,
                    "present type {ty} in {counts:?} has per-job rate {per_job}"
                );
                assert!(
                    (total - counts[ty] as f64 * per_job).abs() <= 1e-9 * total.abs().max(1.0),
                    "total_rate {total} != count * per_job {per_job} for {counts:?}"
                );
                sum += total;
            }
            let it = model.instantaneous_throughput(counts);
            assert!(
                (it - sum).abs() <= 1e-9 * sum.abs().max(1.0),
                "instantaneous_throughput {it} != sum of totals {sum} for {counts:?}"
            );
        }
    }

    let table = model.full_table().expect("full_table must build");
    assert_eq!(table.num_types(), n);
    assert_eq!(table.contexts(), k);
    for (si, s) in table.coschedules().iter().enumerate() {
        for ty in 0..n {
            let via_table = table.rate(si, ty);
            let via_model = model.total_rate(s.counts(), ty);
            assert!(
                (via_table - via_model).abs() <= 1e-9 * via_model.abs().max(1.0),
                "full_table rate {via_table} != model rate {via_model} for {s}"
            );
        }
    }
}

/// Execution rates of every job type in every possible coschedule of one
/// workload, in weighted instructions per cycle (WIPC).
///
/// `rate(s, b)` is `r_b(s)` from Section IV of the paper: the *total*
/// execution rate of all jobs of type `b` in coschedule `s` (if two type-`b`
/// jobs run, it is the sum of their rates). Weighted instructions normalise
/// each type by its solo execution rate, so a job running alone at full
/// speed has rate 1.
///
/// # Examples
///
/// ```
/// use symbiosis::WorkloadRates;
///
/// // Two job types on a 2-context machine; a toy rate model where each job
/// // runs at 1/(number of co-runners + its own weight).
/// let rates = WorkloadRates::build(2, 2, |s| {
///     s.counts()
///         .iter()
///         .map(|&c| c as f64 * 0.9f64.powi(s.size() as i32 - 1))
///         .collect()
/// })?;
/// assert_eq!(rates.coschedules().len(), 3); // AA, AB, BB
/// # Ok::<(), symbiosis::SymbiosisError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRates {
    num_types: usize,
    contexts: usize,
    coschedules: Vec<Coschedule>,
    /// Perfect index into the enumeration order: `rank.rank(counts)` *is*
    /// the coschedule index, so lookups are O(`num_types`) arithmetic with
    /// zero allocation (formerly a `HashMap<Vec<u32>, usize>` that hashed
    /// the full count vector per probe and held one heap key per state).
    rank: CoscheduleRank,
    /// `rates[s][b]` = total WIPC of type `b` in coschedule `s`.
    rates: Vec<Vec<f64>>,
}

impl WorkloadRates {
    /// Enumerates all coschedules of `contexts` jobs over `num_types` types
    /// and obtains each one's per-type rates from `rate_fn`.
    ///
    /// `rate_fn` must return a vector of length `num_types` whose entry `b`
    /// is the total rate of type `b` in the queried coschedule.
    ///
    /// # Errors
    ///
    /// Returns [`SymbiosisError::InvalidRates`] if any returned vector has
    /// the wrong length, contains a negative/non-finite value, is positive
    /// for an absent type, or is zero for a present type.
    pub fn build<F>(
        num_types: usize,
        contexts: usize,
        mut rate_fn: F,
    ) -> Result<Self, SymbiosisError>
    where
        F: FnMut(&Coschedule) -> Vec<f64>,
    {
        let coschedules = enumerate_coschedules(num_types, contexts);
        let mut rates = Vec::with_capacity(coschedules.len());
        for s in &coschedules {
            let r = rate_fn(s);
            Self::check_rates(s, &r)?;
            rates.push(r);
        }
        // The enumeration is the CoscheduleIter order, so the closed-form
        // rank is a perfect index — no materialised key map needed.
        let rank = CoscheduleRank::new(num_types, contexts);
        debug_assert_eq!(rank.total(), coschedules.len());
        Ok(WorkloadRates {
            num_types,
            contexts,
            coschedules,
            rank,
            rates,
        })
    }

    fn check_rates(s: &Coschedule, r: &[f64]) -> Result<(), SymbiosisError> {
        if r.len() != s.num_types() {
            return Err(SymbiosisError::InvalidRates(format!(
                "coschedule {s}: expected {} rates, got {}",
                s.num_types(),
                r.len()
            )));
        }
        for (b, &v) in r.iter().enumerate() {
            if !v.is_finite() || v < 0.0 {
                return Err(SymbiosisError::InvalidRates(format!(
                    "coschedule {s}: rate of type {b} is {v}"
                )));
            }
            if s.count(b) == 0 && v != 0.0 {
                return Err(SymbiosisError::InvalidRates(format!(
                    "coschedule {s}: absent type {b} has non-zero rate {v}"
                )));
            }
            if s.count(b) > 0 && v <= 0.0 {
                return Err(SymbiosisError::InvalidRates(format!(
                    "coschedule {s}: present type {b} has non-positive rate {v}"
                )));
            }
        }
        Ok(())
    }

    /// Number of job types in the workload.
    pub fn num_types(&self) -> usize {
        self.num_types
    }

    /// Number of hardware contexts (jobs per coschedule).
    pub fn contexts(&self) -> usize {
        self.contexts
    }

    /// All coschedules, in enumeration order (indices used throughout).
    pub fn coschedules(&self) -> &[Coschedule] {
        &self.coschedules
    }

    /// Index of a coschedule given its counts, if it belongs to this table.
    pub fn index_of(&self, s: &Coschedule) -> Option<usize> {
        self.index_of_counts(s.counts())
    }

    /// Index of a coschedule given a bare count slice — the allocation-free
    /// lookup the sparse Markov generator and the event loop lean on. A
    /// probe is O(`num_types`) rank arithmetic (no hashing, no heap).
    pub fn index_of_counts(&self, counts: &[u32]) -> Option<usize> {
        self.rank.rank(counts)
    }

    /// The table's perfect rank index — lets the Markov generator walk a
    /// state's whole neighbor row through
    /// [`CoscheduleRank::replace_ranks`] instead of ranking each target
    /// from scratch.
    pub(crate) fn rank_table(&self) -> &CoscheduleRank {
        &self.rank
    }

    /// Total rate `r_b(s)` of job type `b` in coschedule index `si`.
    ///
    /// # Panics
    ///
    /// Panics if `si` or `b` is out of range.
    pub fn rate(&self, si: usize, b: usize) -> f64 {
        self.rates[si][b]
    }

    /// Rate of *one* job of type `b` in coschedule `si` (total rate divided
    /// by the number of type-`b` jobs), or 0 if the type is absent.
    pub fn per_job_rate(&self, si: usize, b: usize) -> f64 {
        let c = self.coschedules[si].count(b);
        if c == 0 {
            0.0
        } else {
            self.rates[si][b] / c as f64
        }
    }

    /// Instantaneous throughput `it(s) = sum_b r_b(s)` (Equation 1).
    pub fn instantaneous_throughput(&self, si: usize) -> f64 {
        self.rates[si].iter().sum()
    }

    /// All per-type rate rows (aligned with [`WorkloadRates::coschedules`]).
    pub fn rate_rows(&self) -> &[Vec<f64>] {
        &self.rates
    }

    /// Derives a new table with one coschedule's rates replaced.
    ///
    /// Used by the Section V-D counterfactual (redistributing per-job
    /// performance inside the fully heterogeneous coschedule).
    ///
    /// # Errors
    ///
    /// Returns [`SymbiosisError::InvalidRates`] if the new rates are
    /// malformed, or [`SymbiosisError::UnknownCoschedule`] for a bad index.
    pub fn with_rates(&self, si: usize, new_rates: Vec<f64>) -> Result<Self, SymbiosisError> {
        let s = self
            .coschedules
            .get(si)
            .ok_or(SymbiosisError::UnknownCoschedule(si))?;
        Self::check_rates(s, &new_rates)?;
        let mut clone = self.clone();
        clone.rates[si] = new_rates;
        Ok(clone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A simple analytic rate model: each job gets an equal share of a
    /// width-4 pipe, scaled by a per-type solo speed.
    fn toy_rates(num_types: usize, contexts: usize) -> WorkloadRates {
        WorkloadRates::build(num_types, contexts, |s| {
            let k = s.size() as f64;
            s.counts().iter().map(|&c| c as f64 / k.max(1.0)).collect()
        })
        .unwrap()
    }

    #[test]
    fn builds_all_coschedules() {
        let r = toy_rates(4, 4);
        assert_eq!(r.coschedules().len(), 35);
        assert_eq!(r.num_types(), 4);
        assert_eq!(r.contexts(), 4);
    }

    #[test]
    fn index_round_trips() {
        let r = toy_rates(3, 2);
        for (i, s) in r.coschedules().iter().enumerate() {
            assert_eq!(r.index_of(s), Some(i));
        }
        let foreign = Coschedule::from_counts(vec![1, 1, 1]);
        assert_eq!(r.index_of(&foreign), None, "size-3 coschedule not in table");
    }

    #[test]
    fn per_job_rate_divides_by_count() {
        let r = toy_rates(2, 4);
        let si = r.index_of(&Coschedule::from_counts(vec![3, 1])).unwrap();
        assert!((r.rate(si, 0) - 0.75).abs() < 1e-12);
        assert!((r.per_job_rate(si, 0) - 0.25).abs() < 1e-12);
        assert!((r.per_job_rate(si, 1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn instantaneous_throughput_sums_rates() {
        let r = toy_rates(3, 3);
        for si in 0..r.coschedules().len() {
            let manual: f64 = (0..3).map(|b| r.rate(si, b)).sum();
            assert!((r.instantaneous_throughput(si) - manual).abs() < 1e-12);
        }
    }

    #[test]
    fn absent_type_with_rate_rejected() {
        let err = WorkloadRates::build(2, 2, |_| vec![0.5, 0.5]).unwrap_err();
        assert!(matches!(err, SymbiosisError::InvalidRates(_)));
    }

    #[test]
    fn present_type_with_zero_rate_rejected() {
        let err =
            WorkloadRates::build(2, 2, |s| s.counts().iter().map(|_| 0.0).collect()).unwrap_err();
        assert!(matches!(err, SymbiosisError::InvalidRates(_)));
    }

    #[test]
    fn wrong_length_rejected() {
        let err = WorkloadRates::build(2, 2, |_| vec![1.0]).unwrap_err();
        assert!(matches!(err, SymbiosisError::InvalidRates(_)));
    }

    #[test]
    fn non_finite_rate_rejected() {
        let err = WorkloadRates::build(2, 2, |s| {
            s.counts()
                .iter()
                .map(|&c| if c > 0 { f64::NAN } else { 0.0 })
                .collect()
        })
        .unwrap_err();
        assert!(matches!(err, SymbiosisError::InvalidRates(_)));
    }

    fn contention(
        num_types: usize,
        contexts: usize,
    ) -> AnalyticModel<impl Fn(&[u32], usize) -> f64> {
        AnalyticModel::new(num_types, contexts, move |counts, ty| {
            let n: u32 = counts.iter().sum();
            (0.4 + 0.1 * ty as f64) / (1.0 + 0.2 * (n - 1) as f64)
        })
    }

    #[test]
    fn analytic_model_passes_conformance() {
        assert_rate_model_conformance(&contention(3, 4));
        assert_rate_model_conformance(&contention(1, 1));
    }

    #[test]
    fn workload_rates_passes_conformance_as_full_only_model() {
        let table = toy_rates(3, 3);
        assert!(!RateModel::supports_partial(&table));
        assert_rate_model_conformance(&table);
        // Trait access agrees with the inherent index-based accessors.
        let si = table
            .index_of(&Coschedule::from_counts(vec![2, 1, 0]))
            .unwrap();
        assert_eq!(
            RateModel::per_job_rate(&table, &[2, 1, 0], 0),
            table.per_job_rate(si, 0)
        );
        // full_table round-trips to an identical table.
        assert_eq!(RateModel::full_table(&table).unwrap(), table);
    }

    #[test]
    fn full_table_materialises_analytic_models() {
        let table = contention(2, 2).full_table().unwrap();
        assert_eq!(table.coschedules().len(), 3);
        // AA: two type-0 jobs at 0.4 / 1.2 each.
        let si = table
            .index_of(&Coschedule::from_counts(vec![2, 0]))
            .unwrap();
        assert!((table.rate(si, 0) - 2.0 * 0.4 / 1.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn analytic_model_rejects_absent_type_queries() {
        let _ = contention(2, 2).per_job_rate(&[1, 0], 1);
    }

    #[test]
    fn with_rates_replaces_one_row() {
        let r = toy_rates(2, 2);
        let si = r.index_of(&Coschedule::from_counts(vec![1, 1])).unwrap();
        let modified = r.with_rates(si, vec![0.8, 0.2]).unwrap();
        assert!((modified.rate(si, 0) - 0.8).abs() < 1e-12);
        // Other rows untouched.
        for i in 0..r.coschedules().len() {
            if i != si {
                assert_eq!(r.rate_rows()[i], modified.rate_rows()[i]);
            }
        }
        // Invalid replacement rejected.
        assert!(r.with_rates(si, vec![0.8, 0.0]).is_err());
        assert!(r.with_rates(99, vec![0.5, 0.5]).is_err());
    }
}

//! [`PredictedModel`]: a fitted interference model as a first-class
//! [`RateModel`] — the digital-twin stand-in for measurement.
//!
//! The model owns its [`Fitter`] and its training [`RateSample`]s, tracks
//! a per-sample [`Residual`] ledger, and refits in place when new
//! measurements arrive ([`PredictedModel::refit`]). Because it implements
//! [`RateModel`] (partial multisets included), it plugs into
//! `session::Session::builder().rates(&model)` like any measured view; for
//! the batch sweep surface, [`PredictedModel::to_table`] materialises a
//! predicted [`PerfTable`] (consume it with [`WorkUnit::Plain`] — the
//! emitted per-slot "IPCs" *are* predicted rates).

use symbiosis::{Coschedule, CoscheduleIter, RateModel, WorkloadRates};
use workloads::{PerfTable, WorkUnit};

use crate::fit::{Fitter, RatePredictor, RateSample};
use crate::PredictError;

/// One training sample's prediction error, recorded at (re)fit time.
#[derive(Debug, Clone, PartialEq)]
pub struct Residual {
    /// The sampled multiset.
    pub counts: Vec<u32>,
    /// Per-type `measured − predicted` total rate.
    pub per_type: Vec<f64>,
    /// Relative instantaneous-throughput error
    /// `|measured − predicted| / measured`.
    pub rel_throughput: f64,
}

/// Aggregate prediction-error statistics over a set of coschedules.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorSummary {
    /// Coschedules compared.
    pub coschedules: usize,
    /// Mean absolute relative throughput error.
    pub mean_abs_rel: f64,
    /// 95th percentile of the absolute relative throughput error.
    pub p95_abs_rel: f64,
    /// Largest absolute relative throughput error.
    pub max_abs_rel: f64,
}

impl ErrorSummary {
    fn from_abs_rel(mut errors: Vec<f64>) -> ErrorSummary {
        assert!(!errors.is_empty(), "no coschedules to summarise");
        let coschedules = errors.len();
        let mean = errors.iter().sum::<f64>() / coschedules as f64;
        errors.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let p95 = errors[((coschedules - 1) as f64 * 0.95).round() as usize];
        ErrorSummary {
            coschedules,
            mean_abs_rel: mean,
            p95_abs_rel: p95,
            max_abs_rel: *errors.last().expect("non-empty"),
        }
    }
}

/// A ground truth evaluated once over every *full* coschedule: each
/// coschedule's counts (flattened, one row of type counts per coschedule)
/// and its measured instantaneous throughput, in [`CoscheduleIter`] order.
///
/// The truth never changes while a model is refitted against it, so a
/// loop tracking model error after every refit builds the grid once and
/// calls [`PredictedModel::error_against_grid`], which evaluates only the
/// predictor. [`PredictedModel::error_against`] is a wrapper that builds
/// a grid and takes the same path, so both report the same bits.
#[derive(Debug, Clone)]
pub struct TruthGrid {
    num_types: usize,
    contexts: usize,
    counts: Vec<u32>,
    measured: Vec<f64>,
}

impl TruthGrid {
    /// Evaluates `truth` over every full coschedule of its shape.
    ///
    /// # Errors
    ///
    /// [`PredictError::Shape`] when `truth` has no types or no contexts.
    pub fn new(truth: &dyn RateModel) -> Result<TruthGrid, PredictError> {
        let (num_types, contexts) = (truth.num_types(), truth.contexts());
        if num_types == 0 || contexts == 0 {
            return Err(PredictError::Shape(
                "truth needs at least one type and one context".into(),
            ));
        }
        let mut counts = Vec::new();
        let mut measured = Vec::new();
        for s in CoscheduleIter::new(num_types, contexts) {
            counts.extend_from_slice(s.counts());
            measured.push(truth.instantaneous_throughput(s.counts()));
        }
        Ok(TruthGrid {
            num_types,
            contexts,
            counts,
            measured,
        })
    }
}

/// A refittable, conformance-tested predicted rate source.
///
/// Construct with [`PredictedModel::fit`] (explicit samples) or
/// [`PredictedModel::from_table`] (samples extracted from a — typically
/// sampled — [`PerfTable`]).
pub struct PredictedModel {
    num_types: usize,
    contexts: usize,
    fitter: Box<dyn Fitter>,
    predictor: Box<dyn RatePredictor>,
    samples: Vec<RateSample>,
    /// Multiset-keyed position index into `samples`, maintained across
    /// refits so folding new measurements in stays O(new), not O(all).
    position: std::collections::HashMap<Vec<u32>, usize>,
    residuals: Vec<Residual>,
}

impl PredictedModel {
    /// Fits `fitter` to `samples` for a machine with `num_types` job types
    /// and `contexts` contexts.
    ///
    /// Duplicate multisets keep the *last* sample (newest measurement
    /// wins), matching [`PredictedModel::refit`] semantics.
    ///
    /// # Errors
    ///
    /// Sample-shape violations as [`PredictError::Shape`]; fitter failures
    /// as returned by the [`Fitter`].
    pub fn fit(
        num_types: usize,
        contexts: usize,
        samples: Vec<RateSample>,
        fitter: Box<dyn Fitter>,
    ) -> Result<Self, PredictError> {
        if num_types == 0 || contexts == 0 {
            return Err(PredictError::Shape(
                "model needs at least one type and one context".into(),
            ));
        }
        let mut model = PredictedModel {
            num_types,
            contexts,
            fitter,
            // Placeholder replaced by the refit below before anyone can
            // query it.
            predictor: Box::new(Unfitted),
            samples: Vec::new(),
            position: std::collections::HashMap::new(),
            residuals: Vec::new(),
        };
        model.merge_and_refit(samples)?;
        Ok(model)
    }

    /// Extracts training samples from `table` (see [`samples_from_table`])
    /// and fits. `types` selects the benchmarks acting as job types; the
    /// model's type space is local to that selection.
    ///
    /// # Errors
    ///
    /// As [`samples_from_table`] and [`PredictedModel::fit`].
    pub fn from_table(
        table: &PerfTable,
        types: &[usize],
        unit: WorkUnit,
        fitter: Box<dyn Fitter>,
    ) -> Result<Self, PredictError> {
        let samples = samples_from_table(table, types, unit)?;
        Self::fit(types.len(), table.contexts(), samples, fitter)
    }

    /// Folds newly arrived measurements into the training set and refits —
    /// the digital-twin update path. Samples for an already-known multiset
    /// replace the old measurement; the residual ledger is recomputed
    /// against the new predictor.
    ///
    /// The merge is *incremental*: the existing training set is edited in
    /// place through a persistent multiset index (only the new samples are
    /// copied), so a live loop refitting every few hundred measurements
    /// never re-clones its accumulated history.
    ///
    /// On error the model keeps its previous predictor and samples (an
    /// undo log reverts the in-place merge).
    ///
    /// # Errors
    ///
    /// As [`PredictedModel::fit`].
    pub fn refit(&mut self, new_samples: &[RateSample]) -> Result<(), PredictError> {
        self.merge_and_refit(new_samples.to_vec())
    }

    /// [`PredictedModel::refit`] on owned samples, which move into the
    /// training set instead of being copied.
    fn merge_and_refit(&mut self, new_samples: Vec<RateSample>) -> Result<(), PredictError> {
        for sample in &new_samples {
            sample.validate(self.num_types, self.contexts)?;
        }
        // Apply in place, remembering how to revert if the fit fails.
        let mut replaced: Vec<(usize, RateSample)> = Vec::new();
        let appended_from = self.samples.len();
        for sample in new_samples {
            match self.position.get(&sample.counts) {
                Some(&i) => {
                    let old = std::mem::replace(&mut self.samples[i], sample);
                    // Keep only the oldest value per slot: a batch may
                    // re-measure the same multiset more than once.
                    if i < appended_from && !replaced.iter().any(|(j, _)| *j == i) {
                        replaced.push((i, old));
                    }
                }
                None => {
                    self.position
                        .insert(sample.counts.clone(), self.samples.len());
                    self.samples.push(sample);
                }
            }
        }
        if self.samples.is_empty() {
            return Err(PredictError::NotEnoughSamples(
                "predicted model needs at least one sample".into(),
            ));
        }
        let fitted = {
            let _span = obs::span!("predict.fit");
            self.fitter
                .fit(self.num_types, self.contexts, &self.samples)
        };
        match fitted {
            Ok(predictor) => {
                // Sample `i` keeps its multiset across refits, so existing
                // ledger entries are refreshed in place.
                for (i, sample) in self.samples.iter().enumerate() {
                    if i == self.residuals.len() {
                        self.residuals.push(Residual {
                            counts: sample.counts.clone(),
                            per_type: Vec::with_capacity(self.num_types),
                            rel_throughput: 0.0,
                        });
                    }
                    fill_residual(&*predictor, sample, &mut self.residuals[i]);
                }
                self.predictor = predictor;
                Ok(())
            }
            Err(e) => {
                for sample in self.samples.drain(appended_from..) {
                    self.position.remove(&sample.counts);
                }
                for (i, old) in replaced {
                    self.samples[i] = old;
                }
                Err(e)
            }
        }
    }

    /// The fitter's registry-style name (e.g. `bottleneck`).
    pub fn fitter_name(&self) -> &'static str {
        self.fitter.name()
    }

    /// The fitted coefficient rows (layout documented per fitter).
    pub fn coefficients(&self) -> Vec<Vec<f64>> {
        self.predictor.coefficients()
    }

    /// The training samples currently folded into the fit.
    pub fn samples(&self) -> &[RateSample] {
        &self.samples
    }

    /// Per-sample residuals against the current predictor, in training
    /// order.
    pub fn residuals(&self) -> &[Residual] {
        &self.residuals
    }

    /// Error summary over the training samples (in-sample fit quality).
    pub fn fit_error(&self) -> ErrorSummary {
        ErrorSummary::from_abs_rel(self.residuals.iter().map(|r| r.rel_throughput).collect())
    }

    /// Nearest-rank quantiles of the per-sample relative throughput error,
    /// one per requested `qs` entry (each in `0.0..=1.0`). This is the
    /// signal an active-sampling policy thresholds on: e.g. the 0.9
    /// quantile bounds the error of "the worst decile of the training
    /// set", and any sample whose residual exceeds it marks a region
    /// worth re-measuring.
    pub fn residual_quantiles(&self, qs: &[f64]) -> Vec<f64> {
        let mut errs: Vec<f64> = self.residuals.iter().map(|r| r.rel_throughput).collect();
        errs.sort_by(|a, b| a.total_cmp(b));
        let n = errs.len();
        qs.iter()
            .map(|&q| {
                let i = ((n - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
                errs[i]
            })
            .collect()
    }

    /// Error summary against a ground-truth rate source, over every *full*
    /// coschedule of the model's shape — the predicted-vs-measured
    /// headline number (most of those coschedules were never sampled).
    ///
    /// Builds a [`TruthGrid`] and calls
    /// [`PredictedModel::error_against_grid`]; build the grid yourself to
    /// compare several models against one truth.
    ///
    /// # Errors
    ///
    /// [`PredictError::Shape`] when `truth` has a different type or
    /// context count than the model.
    pub fn error_against(&self, truth: &dyn RateModel) -> Result<ErrorSummary, PredictError> {
        self.check_truth_shape(truth.num_types(), truth.contexts())?;
        self.error_against_grid(&TruthGrid::new(truth)?)
    }

    /// Error summary against a pre-evaluated ground truth: the relative
    /// error `|predicted − measured| / measured` of the instantaneous
    /// throughput, over every coschedule of `grid`.
    ///
    /// # Errors
    ///
    /// [`PredictError::Shape`] when `grid` has a different type or context
    /// count than the model.
    pub fn error_against_grid(&self, grid: &TruthGrid) -> Result<ErrorSummary, PredictError> {
        self.check_truth_shape(grid.num_types, grid.contexts)?;
        let errors: Vec<f64> = grid
            .counts
            .chunks_exact(self.num_types)
            .zip(&grid.measured)
            .map(|(counts, &measured)| {
                let predicted = self.instantaneous_throughput(counts);
                (predicted - measured).abs() / measured
            })
            .collect();
        Ok(ErrorSummary::from_abs_rel(errors))
    }

    fn check_truth_shape(&self, num_types: usize, contexts: usize) -> Result<(), PredictError> {
        if (num_types, contexts) == (self.num_types, self.contexts) {
            return Ok(());
        }
        Err(PredictError::Shape(format!(
            "truth has {num_types} types and {contexts} contexts, model has {} and {}",
            self.num_types, self.contexts
        )))
    }

    /// The predicted full-coschedule [`WorkloadRates`] table for a
    /// workload (sorted distinct indices into this model's type space) —
    /// what the LP / Markov analyses consume.
    ///
    /// # Errors
    ///
    /// [`PredictError::Shape`] for a malformed workload,
    /// [`PredictError::Rates`] if the predictions fail table validation
    /// (cannot happen: predictors are clamped positive).
    pub fn workload_rates(&self, types: &[usize]) -> Result<WorkloadRates, PredictError> {
        if types.is_empty() || !types.windows(2).all(|w| w[0] < w[1]) {
            return Err(PredictError::Shape(
                "workload must be non-empty, sorted and distinct".into(),
            ));
        }
        if let Some(&bad) = types.iter().find(|&&t| t >= self.num_types) {
            return Err(PredictError::Shape(format!(
                "type {bad} out of range ({} model types)",
                self.num_types
            )));
        }
        let n = types.len();
        let rates = WorkloadRates::build(n, self.contexts, |s: &Coschedule| {
            let mut global = vec![0u32; self.num_types];
            for (local, &c) in s.counts().iter().enumerate() {
                global[types[local]] = c;
            }
            (0..n)
                .map(|local| self.total_rate(&global, types[local]))
                .collect()
        })?;
        Ok(rates)
    }

    /// Materialises the model as a predicted [`PerfTable`] over all its
    /// types — the bridge into `session::Session::sweep` and the
    /// [`workloads::TableStore`] artefact machinery.
    ///
    /// The emitted per-slot "IPCs" are predicted *per-job rates*; convert
    /// workloads with [`WorkUnit::Plain`] so the rates come back
    /// unnormalised. (`names` labels the types; its length must match.)
    ///
    /// # Errors
    ///
    /// [`PredictError::Shape`] on a name-count mismatch, table validation
    /// errors as [`PredictError::Table`].
    pub fn to_table(&self, names: Vec<String>) -> Result<PerfTable, PredictError> {
        if names.len() != self.num_types {
            return Err(PredictError::Shape(format!(
                "{} names for {} types",
                names.len(),
                self.num_types
            )));
        }
        let table = PerfTable::synthetic(names, self.contexts, |combo| {
            let mut counts = vec![0u32; self.num_types];
            for &b in combo {
                counts[b] += 1;
            }
            combo
                .iter()
                .map(|&b| self.predictor.per_job_rate(&counts, b))
                .collect()
        })?;
        Ok(table)
    }
}

impl RateModel for PredictedModel {
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
        self.predictor.per_job_rate(counts, ty)
    }
}

/// Placeholder predictor used only during construction; unreachable once
/// [`PredictedModel::fit`] returns.
struct Unfitted;

impl RatePredictor for Unfitted {
    fn per_job_rate(&self, _counts: &[u32], _ty: usize) -> f64 {
        unreachable!("model queried before its first fit")
    }

    fn coefficients(&self) -> Vec<Vec<f64>> {
        unreachable!("model queried before its first fit")
    }
}

/// Recomputes `out` (the ledger entry of `sample`'s multiset) against
/// `predictor`.
fn fill_residual(predictor: &dyn RatePredictor, sample: &RateSample, out: &mut Residual) {
    out.per_type.clear();
    let mut measured_it = 0.0;
    let mut predicted_it = 0.0;
    for (b, (&c, &measured)) in sample.counts.iter().zip(&sample.rates).enumerate() {
        if c == 0 {
            out.per_type.push(0.0);
            continue;
        }
        let predicted = c as f64 * predictor.per_job_rate(&sample.counts, b);
        out.per_type.push(measured - predicted);
        measured_it += measured;
        predicted_it += predicted;
    }
    out.rel_throughput = (predicted_it - measured_it).abs() / measured_it;
}

/// Extracts [`RateSample`]s from every recorded combo of `table` composed
/// solely of the benchmarks in `types` (sorted distinct indices into the
/// suite) — all recorded sizes, in deterministic combo order.
///
/// Rates follow `unit`: [`WorkUnit::Weighted`] divides each slot IPC by
/// its benchmark's solo IPC (the paper's WIPC), [`WorkUnit::Plain`] keeps
/// raw IPCs. A *sampled* table yields exactly its measured subset — the
/// training set of the sampled-fit pipeline.
///
/// # Errors
///
/// [`PredictError::Shape`] for a malformed `types` selection or when no
/// recorded combo lies inside it.
pub fn samples_from_table(
    table: &PerfTable,
    types: &[usize],
    unit: WorkUnit,
) -> Result<Vec<RateSample>, PredictError> {
    if types.is_empty() || !types.windows(2).all(|w| w[0] < w[1]) {
        return Err(PredictError::Shape(
            "types must be non-empty, sorted and distinct".into(),
        ));
    }
    if let Some(&bad) = types.iter().find(|&&t| t >= table.names().len()) {
        return Err(PredictError::Shape(format!(
            "benchmark index {bad} out of range ({} in suite)",
            table.names().len()
        )));
    }
    let local_of: Vec<Option<usize>> = {
        let mut map = vec![None; table.names().len()];
        for (local, &global) in types.iter().enumerate() {
            map[global] = Some(local);
        }
        map
    };
    let mut samples = Vec::new();
    for (combo, ipcs) in table.recorded_combos() {
        let locals: Option<Vec<usize>> = combo.iter().map(|&b| local_of[b]).collect();
        let Some(locals) = locals else {
            continue; // combo touches a benchmark outside the selection
        };
        let mut counts = vec![0u32; types.len()];
        let mut rates = vec![0.0; types.len()];
        for (slot, &local) in locals.iter().enumerate() {
            counts[local] += 1;
            let scale = match unit {
                WorkUnit::Weighted => table.solo_ipc(types[local]),
                WorkUnit::Plain => 1.0,
            };
            rates[local] += ipcs[slot] / scale;
        }
        samples.push(RateSample { counts, rates });
    }
    if samples.is_empty() {
        return Err(PredictError::Shape(
            "no recorded combo lies inside the selected types".into(),
        ));
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::{BottleneckFitter, InterferenceFitter};
    use crate::sample::stratified_plan;
    use symbiosis::{assert_rate_model_conformance, AnalyticModel};

    /// An exact affine contention ground truth (positive over all sizes).
    fn affine_truth(
        num_types: usize,
        contexts: usize,
    ) -> AnalyticModel<impl Fn(&[u32], usize) -> f64> {
        AnalyticModel::new(num_types, contexts, |counts, ty| {
            let mut v = 1.0 + 0.15 * ty as f64;
            for (j, &c) in counts.iter().enumerate() {
                v -= (0.04 + 0.01 * ((ty + j) % 3) as f64) * c as f64;
            }
            v
        })
    }

    fn truth_samples(
        model: &dyn RateModel,
        sizes: std::ops::RangeInclusive<usize>,
    ) -> Vec<RateSample> {
        let n = model.num_types();
        let mut out = Vec::new();
        for size in sizes {
            for s in symbiosis::enumerate_coschedules(n, size) {
                out.push(RateSample {
                    counts: s.counts().to_vec(),
                    rates: (0..n).map(|b| model.total_rate(s.counts(), b)).collect(),
                });
            }
        }
        out
    }

    #[test]
    fn predicted_model_passes_rate_model_conformance_for_both_fitters() {
        let truth = affine_truth(3, 4);
        let samples = truth_samples(&truth, 1..=4);
        for fitter in [
            Box::new(BottleneckFitter) as Box<dyn Fitter>,
            Box::new(InterferenceFitter),
        ] {
            let model = PredictedModel::fit(3, 4, samples.clone(), fitter).unwrap();
            assert!(model.supports_partial());
            assert_rate_model_conformance(&model);
        }
    }

    #[test]
    fn exact_generator_fits_with_zero_residuals() {
        let truth = affine_truth(3, 3);
        let samples = truth_samples(&truth, 1..=3);
        let model = PredictedModel::fit(3, 3, samples, Box::new(InterferenceFitter)).unwrap();
        let fit = model.fit_error();
        assert!(fit.max_abs_rel < 1e-9, "max rel err {}", fit.max_abs_rel);
        let against = model.error_against(&truth).unwrap();
        assert!(against.max_abs_rel < 1e-9);
        assert_eq!(against.coschedules, 10); // C(3+2, 3)
    }

    #[test]
    fn sampled_fit_predicts_unmeasured_combos() {
        // Train on a stratified subset of a synthetic table; the exact
        // affine generator is identifiable, so never-measured combos come
        // back exact too.
        let truth = affine_truth(4, 4);
        let names: Vec<String> = (0..4).map(|b| format!("b{b}")).collect();
        let plan = stratified_plan(4, 4, 30, 0xC0FFEE).unwrap();
        assert!(!plan.is_exhaustive());
        let sampled = PerfTable::synthetic_sampled(names, 4, plan.indices(), |combo| {
            let mut counts = vec![0u32; 4];
            for &b in combo {
                counts[b] += 1;
            }
            combo
                .iter()
                .map(|&b| truth.per_job_rate(&counts, b))
                .collect()
        })
        .unwrap();
        let model = PredictedModel::from_table(
            &sampled,
            &[0, 1, 2, 3],
            WorkUnit::Plain,
            Box::new(InterferenceFitter),
        )
        .unwrap();
        assert_eq!(model.samples().len(), 30);
        let summary = model.error_against(&truth).unwrap();
        assert_eq!(summary.coschedules, 35);
        assert!(summary.max_abs_rel < 1e-6, "max {}", summary.max_abs_rel);
    }

    #[test]
    fn refit_folds_new_measurements_in_and_replaces_duplicates() {
        // Ground truth the affine model *cannot* represent exactly:
        // heterogeneity relief is multiplicative.
        let truth = AnalyticModel::new(2, 3, |counts: &[u32], _ty| {
            let distinct = counts.iter().filter(|&&c| c > 0).count() as f64;
            let n: u32 = counts.iter().sum();
            0.9 * (1.0 + 0.2 * (distinct - 1.0)) / n as f64
        });
        // First fit sees only solos and pairs.
        let early = truth_samples(&truth, 1..=2);
        let mut model =
            PredictedModel::fit(2, 3, early.clone(), Box::new(InterferenceFitter)).unwrap();
        let before = model.error_against(&truth).unwrap();
        let n_before = model.samples().len();

        // New measurements arrive: the full-size coschedules.
        model.refit(&truth_samples(&truth, 3..=3)).unwrap();
        assert_eq!(model.samples().len(), n_before + 4); // C(2+2, 3) = 4
        assert_eq!(model.residuals().len(), model.samples().len());
        let after = model.error_against(&truth).unwrap();
        assert!(
            after.mean_abs_rel < before.mean_abs_rel,
            "refit must use the new evidence: {} vs {}",
            after.mean_abs_rel,
            before.mean_abs_rel
        );

        // Re-measuring a known multiset replaces, not duplicates.
        let n = model.samples().len();
        model
            .refit(&[RateSample {
                counts: vec![1, 1],
                rates: vec![0.55, 0.54],
            }])
            .unwrap();
        assert_eq!(model.samples().len(), n);
        let replaced = model.samples().iter().find(|s| s.counts == [1, 1]).unwrap();
        assert_eq!(replaced.rates, vec![0.55, 0.54]);
    }

    #[test]
    fn refit_ledger_matches_a_fresh_fit_of_the_same_samples() {
        // The refit refreshes existing residual entries in place; they must
        // equal the entries a one-shot fit of the merged set builds.
        let truth = AnalyticModel::new(3, 3, |counts: &[u32], ty| {
            let n: u32 = counts.iter().sum();
            (1.0 + 0.1 * ty as f64) / (1.0 + 0.3 * (n as f64 - 1.0)).powi(2)
        });
        let early = truth_samples(&truth, 1..=2);
        let late = truth_samples(&truth, 3..=3);
        let mut refitted =
            PredictedModel::fit(3, 3, early.clone(), Box::new(InterferenceFitter)).unwrap();
        refitted.refit(&late).unwrap();
        let merged: Vec<RateSample> = early.into_iter().chain(late).collect();
        let fresh = PredictedModel::fit(3, 3, merged, Box::new(InterferenceFitter)).unwrap();
        assert_eq!(refitted.samples(), fresh.samples());
        assert_eq!(refitted.residuals(), fresh.residuals());
    }

    #[test]
    fn residual_quantiles_are_nearest_rank_over_sorted_errors() {
        // Truth the affine fitter cannot represent, so residuals spread.
        let truth = AnalyticModel::new(2, 3, |counts: &[u32], _ty| {
            let distinct = counts.iter().filter(|&&c| c > 0).count() as f64;
            let n: u32 = counts.iter().sum();
            0.9 * (1.0 + 0.2 * (distinct - 1.0)) / n as f64
        });
        let model = PredictedModel::fit(
            2,
            3,
            truth_samples(&truth, 1..=3),
            Box::new(InterferenceFitter),
        )
        .unwrap();
        let qs = model.residual_quantiles(&[0.0, 0.5, 1.0]);
        let mut errs: Vec<f64> = model.residuals().iter().map(|r| r.rel_throughput).collect();
        errs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(qs[0], errs[0]);
        assert_eq!(qs[2], *errs.last().unwrap());
        assert!(qs[0] <= qs[1] && qs[1] <= qs[2]);
        let mid = ((errs.len() - 1) as f64 * 0.5).round() as usize;
        assert_eq!(qs[1], errs[mid]);
    }

    #[test]
    fn workload_rates_restricts_the_type_space() {
        let truth = affine_truth(4, 3);
        let samples = truth_samples(&truth, 1..=3);
        let model = PredictedModel::fit(4, 3, samples, Box::new(InterferenceFitter)).unwrap();
        let rates = model.workload_rates(&[0, 2]).unwrap();
        assert_eq!(rates.num_types(), 2);
        assert_eq!(rates.contexts(), 3);
        // Local [1, 1] is global [1, 0, 1, 0].
        let si = rates
            .index_of(&Coschedule::from_counts(vec![1, 2]))
            .unwrap();
        let want = model.total_rate(&[1, 0, 2, 0], 2);
        assert!((rates.rate(si, 1) - want).abs() < 1e-12);
        assert!(model.workload_rates(&[2, 0]).is_err(), "unsorted");
        assert!(model.workload_rates(&[0, 9]).is_err(), "out of range");
    }

    #[test]
    fn to_table_round_trips_through_plain_unit() {
        let truth = affine_truth(3, 3);
        let samples = truth_samples(&truth, 1..=3);
        let model = PredictedModel::fit(3, 3, samples, Box::new(InterferenceFitter)).unwrap();
        let names: Vec<String> = (0..3).map(|b| format!("t{b}")).collect();
        let table = model.to_table(names).unwrap();
        let rates = table
            .workload_rates_with_unit(&[0, 1, 2], WorkUnit::Plain)
            .unwrap();
        for (si, s) in rates.coschedules().iter().enumerate() {
            for b in 0..3 {
                let want = model.total_rate(s.counts(), b);
                assert!(
                    (rates.rate(si, b) - want).abs() <= 1e-12 * want.abs().max(1.0),
                    "coschedule {s}, type {b}"
                );
            }
        }
        assert!(model.to_table(vec!["one".into()]).is_err(), "name count");
    }

    #[test]
    fn samples_from_table_honours_units_and_selection() {
        let names: Vec<String> = (0..3).map(|b| format!("b{b}")).collect();
        let table = PerfTable::synthetic(names, 2, |combo| {
            combo
                .iter()
                .map(|&b| (2.0 + b as f64) / combo.len() as f64)
                .collect()
        })
        .unwrap();
        // Restricting to [0, 2] drops every combo containing benchmark 1.
        let plain = samples_from_table(&table, &[0, 2], WorkUnit::Plain).unwrap();
        // Sizes 1..=2 over the two selected benchmarks: 2 + 3 = 5 combos.
        assert_eq!(plain.len(), 5);
        let weighted = samples_from_table(&table, &[0, 2], WorkUnit::Weighted).unwrap();
        // Weighted solo rates are 1 by construction.
        let solo0 = weighted
            .iter()
            .find(|s| s.counts == [1, 0])
            .expect("solo recorded");
        assert!((solo0.rates[0] - 1.0).abs() < 1e-12);
        let plain_solo0 = plain.iter().find(|s| s.counts == [1, 0]).unwrap();
        assert!((plain_solo0.rates[0] - 2.0).abs() < 1e-12);
        // Validation.
        assert!(samples_from_table(&table, &[], WorkUnit::Plain).is_err());
        assert!(samples_from_table(&table, &[2, 0], WorkUnit::Plain).is_err());
        assert!(samples_from_table(&table, &[0, 7], WorkUnit::Plain).is_err());
    }

    #[test]
    fn error_against_rejects_a_truth_of_another_shape() {
        let truth = affine_truth(3, 3);
        let model = PredictedModel::fit(
            3,
            3,
            truth_samples(&truth, 1..=3),
            Box::new(InterferenceFitter),
        )
        .unwrap();
        for (n, k) in [(4, 3), (3, 4)] {
            let other = affine_truth(n, k);
            assert!(matches!(
                model.error_against(&other),
                Err(PredictError::Shape(_))
            ));
            let grid = TruthGrid::new(&other).unwrap();
            assert!(matches!(
                model.error_against_grid(&grid),
                Err(PredictError::Shape(_))
            ));
        }
        struct NoTypes;
        impl RateModel for NoTypes {
            fn num_types(&self) -> usize {
                0
            }
            fn contexts(&self) -> usize {
                3
            }
            fn per_job_rate(&self, _counts: &[u32], _ty: usize) -> f64 {
                unreachable!("a type-less truth has no jobs")
            }
        }
        assert!(matches!(
            TruthGrid::new(&NoTypes),
            Err(PredictError::Shape(_))
        ));
    }

    #[test]
    fn error_against_grid_matches_error_against_bit_for_bit() {
        let truth = affine_truth(3, 4);
        let model = PredictedModel::fit(
            3,
            4,
            truth_samples(&truth, 1..=2),
            Box::new(InterferenceFitter),
        )
        .unwrap();
        let from_grid = model
            .error_against_grid(&TruthGrid::new(&truth).unwrap())
            .unwrap();
        assert_eq!(from_grid.coschedules, 15); // C(3+3, 4)
        assert_eq!(from_grid, model.error_against(&truth).unwrap());
    }

    #[test]
    fn error_summary_percentiles_are_ordered() {
        let s = ErrorSummary::from_abs_rel((0..100).map(|i| i as f64 / 100.0).collect());
        assert_eq!(s.coschedules, 100);
        assert!(s.mean_abs_rel <= s.p95_abs_rel);
        assert!(s.p95_abs_rel <= s.max_abs_rel);
        assert!((s.max_abs_rel - 0.99).abs() < 1e-12);
    }
}

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
use symbiosis::fit_linear_bottleneck_rows;

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
pub trait RatePredictor: Send + Sync {
    /// Predicted rate of one job of type `ty` inside the multiset `counts`
    /// — finite and at least [`MIN_PREDICTED_RATE`].
    fn per_job_rate(&self, counts: &[u32], ty: usize) -> f64;

    /// The fitted coefficient rows, for inspection and pinning tests.
    /// Layout is fitter-specific and documented on each fitter.
    fn coefficients(&self) -> Vec<Vec<f64>>;
}

/// A pluggable interference-model fit: samples in, predictor out.
///
/// Implementations must be deterministic — same samples, same predictor —
/// so refits and reruns reproduce.
pub trait Fitter: Send + Sync {
    /// Registry-style name used in reports (e.g. `bottleneck`).
    fn name(&self) -> &'static str;

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
    ) -> Result<Box<dyn RatePredictor>, PredictError>;
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

    fn fit(
        &self,
        num_types: usize,
        contexts: usize,
        samples: &[RateSample],
    ) -> Result<Box<dyn RatePredictor>, PredictError> {
        // The bottleneck equation `sum_b r_b(s)/R_b = 1` describes a fully
        // utilised resource — only saturated (full) coschedules obey it.
        let rows: Vec<&[f64]> = samples
            .iter()
            .filter(|s| s.size() as usize == contexts)
            .map(|s| s.rates.as_slice())
            .collect();
        if rows.is_empty() {
            return Err(PredictError::NotEnoughSamples(
                "bottleneck fit needs at least one full coschedule sample".into(),
            ));
        }
        let fit = fit_linear_bottleneck_rows(&rows, num_types)
            .map_err(|e| PredictError::Fit(e.to_string()))?;
        let mut solo = vec![f64::INFINITY; num_types];
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
/// [`RatePredictor::coefficients`] layout: row `b` is
/// `[θ_b0, θ_b1, ..., θ_bN]`.
pub struct InterferenceFitter;

struct InterferencePredictor {
    theta: Vec<Vec<f64>>,
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

    fn coefficients(&self) -> Vec<Vec<f64>> {
        self.theta.clone()
    }
}

impl Fitter for InterferenceFitter {
    fn name(&self) -> &'static str {
        "interference-lsq"
    }

    fn fit(
        &self,
        num_types: usize,
        _contexts: usize,
        samples: &[RateSample],
    ) -> Result<Box<dyn RatePredictor>, PredictError> {
        // One pass over the samples fills every type's normal equations:
        // type `b`'s rows are the samples it appears in, in sample order.
        let dim = num_types + 1;
        let mut gram = vec![0u64; num_types * dim * dim];
        let mut aty = vec![-0.0; num_types * dim];
        let mut present: Vec<(usize, u64)> = Vec::with_capacity(num_types);
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
                let g = &mut gram[b * dim * dim..(b + 1) * dim * dim];
                g[0] += 1;
                for (i, &(j, cj)) in present.iter().enumerate() {
                    g[j + 1] += cj;
                    for &(l, cl) in &present[i..] {
                        g[(j + 1) * dim + l + 1] += cj * cl;
                    }
                }
                let y = s.rates[b] / count as f64;
                let a = &mut aty[b * dim..(b + 1) * dim];
                a[0] += y;
                for (j, &c) in s.counts.iter().enumerate() {
                    a[j + 1] += c as f64 * y;
                }
            }
        }
        let mut theta = Vec::with_capacity(num_types);
        for b in 0..num_types {
            let g = &gram[b * dim * dim..(b + 1) * dim * dim];
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
            let coef = linsys::solve_normal_equations(ata, &aty[b * dim..(b + 1) * dim])
                .map_err(|e| PredictError::Fit(format!("type {b}: {e}")))?;
            theta.push(coef);
        }
        Ok(Box::new(InterferencePredictor { theta }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbiosis::enumerate_coschedules;

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

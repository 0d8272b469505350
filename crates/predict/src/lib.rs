//! Model-predicted symbiosis: fit an interference model to a *sampled*
//! subset of coschedule measurements and use it as a live rate source.
//!
//! The paper's central move is predicting co-run performance from per-job
//! profiles instead of measuring every combination. This crate makes that
//! move first-class for the reproduction:
//!
//! * [`stratified_plan`] — a seeded, stratified [`SamplePlan`] over the
//!   streamed coschedule enumeration ([`symbiosis::CoscheduleIter`] order):
//!   all solo runs plus a budgeted, size-stratified random subset of the
//!   co-run combos. Feed its indices to
//!   [`workloads::PerfTable::build_sampled`] (simulated) or
//!   [`workloads::PerfTable::synthetic_sampled`] (analytic) to measure only
//!   the budget.
//! * [`Fitter`] — the pluggable interference-model fit:
//!   [`BottleneckFitter`] (the Section V-C linear-bottleneck model,
//!   generalised to sample rows via
//!   [`symbiosis::fit_linear_bottleneck_rows`]) and [`InterferenceFitter`]
//!   (a richer per-type least-squares contention model solved with
//!   [`lp::linsys`]). A [`FitState`] is a fit in progress that a refit
//!   extends.
//! * [`PredictedModel`] — a fitted model implementing
//!   [`symbiosis::RateModel`] (conformance-tested, partial coschedules
//!   included), with per-sample [`Residual`] tracking, a
//!   [`PredictedModel::refit`] path for newly arriving measurements, and
//!   bridges back into the rest of the workspace:
//!   [`PredictedModel::workload_rates`] for per-workload LP/Markov
//!   analyses and [`PredictedModel::to_table`] for
//!   `session::Session::sweep` (use [`workloads::WorkUnit::Plain`] — the
//!   emitted "IPCs" are already predicted rates).
//!   A refit costs what is new, not what has accumulated: the
//!   [`InterferenceFitter`] keeps its normal equations and folds in only
//!   the appended samples, re-summing from the start only when a
//!   re-measured multiset's rates changed. The residual refresh stays
//!   linear in the training set, one [`RatePredictor::per_job_rates`]
//!   call per sample; order statistics are read by selection. The
//!   [`model`] module documents the full cost model.
//! * [`PredictedModel::error_against`] — the predicted-vs-measured error
//!   over every full coschedule, asking the ground truth once per
//!   coschedule. A loop that re-checks the model after every refit
//!   evaluates the truth once into a [`symbiosis::RateGrid`] and calls
//!   [`PredictedModel::error_against_grid`], which reads the grid's stored
//!   throughputs and reports the same bits. Both price the model's side
//!   with one [`RatePredictor::full_throughputs`] call, which the
//!   [`InterferenceFitter`]'s predictor answers with one walk of the
//!   count lattice. Every bulk answer equals the per-cell answers bit for
//!   bit.
//!
//! # Example
//!
//! ```
//! use predict::{stratified_plan, InterferenceFitter, PredictedModel};
//! use symbiosis::RateModel;
//! use workloads::{PerfTable, WorkUnit};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Ground truth: an analytic contention law over 5 benchmarks, K = 3.
//! let names: Vec<String> = (0..5).map(|b| format!("bench{b}")).collect();
//! let law = |combo: &[usize]| -> Vec<f64> {
//!     combo
//!         .iter()
//!         .map(|&b| (1.0 + 0.2 * b as f64) / (1.0 + 0.3 * (combo.len() as f64 - 1.0)))
//!         .collect()
//! };
//!
//! // Measure only 24 of the 55 combos, stratified by coschedule size.
//! let plan = stratified_plan(5, 3, 24, 0xFEED)?;
//! let sampled = PerfTable::synthetic_sampled(names, 3, plan.indices(), law)?;
//!
//! // Fit, then predict rates for combos never measured.
//! let model = PredictedModel::from_table(
//!     &sampled,
//!     &[0, 1, 2, 3, 4],
//!     WorkUnit::Plain,
//!     Box::new(InterferenceFitter),
//! )?;
//! assert!(model.per_job_rate(&[1, 1, 0, 0, 1], 4) > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod fit;
pub mod model;
pub mod sample;

use std::error::Error;
use std::fmt;

use symbiosis::SymbiosisError;
use workloads::TableError;

pub use fit::{
    BottleneckFitter, FitState, Fitter, InterferenceFitter, RatePredictor, RateSample,
    MIN_PREDICTED_RATE,
};
pub use model::{samples_from_table, ErrorSummary, PredictedModel, Residual};
pub use sample::{stratified_plan, SamplePlan, Stratum};

/// Errors from sampling, fitting or predicting.
#[derive(Debug)]
pub enum PredictError {
    /// The sample budget cannot cover the mandatory strata (all solo runs
    /// plus at least one combo per coschedule size).
    BudgetTooSmall {
        /// The requested budget.
        budget: usize,
        /// The smallest budget the plan shape admits.
        minimum: usize,
    },
    /// A fit was attempted without the samples it needs.
    NotEnoughSamples(String),
    /// A sample or query has the wrong shape for the model.
    Shape(String),
    /// The underlying least-squares / analysis machinery failed.
    Fit(String),
    /// Materialising tables from or for the model failed.
    Table(TableError),
    /// Rate validation failed.
    Rates(SymbiosisError),
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::BudgetTooSmall { budget, minimum } => write!(
                f,
                "sample budget {budget} too small: the stratified plan needs at least {minimum}"
            ),
            PredictError::NotEnoughSamples(msg) => write!(f, "not enough samples: {msg}"),
            PredictError::Shape(msg) => write!(f, "shape mismatch: {msg}"),
            PredictError::Fit(msg) => write!(f, "fit failed: {msg}"),
            PredictError::Table(e) => write!(f, "table: {e}"),
            PredictError::Rates(e) => write!(f, "rates: {e}"),
        }
    }
}

impl Error for PredictError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PredictError::Table(e) => Some(e),
            PredictError::Rates(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TableError> for PredictError {
    fn from(e: TableError) -> Self {
        PredictError::Table(e)
    }
}

impl From<SymbiosisError> for PredictError {
    fn from(e: SymbiosisError) -> Self {
        PredictError::Rates(e)
    }
}

//! An online scheduling service with a live digital-twin model loop.
//!
//! The rest of the workspace analyses symbiotic scheduling *offline*: a
//! rate table in, a throughput or latency figure out. This crate turns
//! those pieces into a long-running **service**: jobs stream in, a
//! placer prices candidate coschedules through the current
//! [`predict::PredictedModel`], and completed coschedules feed
//! measurements back into the model — the adaptive loop of a real-time
//! digital twin.
//!
//! # Architecture
//!
//! ```text
//!  seeded arrivals
//!   │ admit, or shed while queue_capacity jobs already wait
//!   ▼
//!  ┌──────────────────────────────┐    run_serve lends each fill
//!  │          Dispatcher          │    the placer, or FCFS while
//!  │ queued ──[Placer]──▶ running │◀── its CircuitBreaker is open
//!  │ JobPool  FCFS/MAXIT/ JobPool │              ▲
//!  │          BEAM        Running │              │
//!  └──────┬────────────▲──────────┘              │
//!         │            │                         │
//!  completions /     placement pricing           │
//!  measurements      (RwLock read)               │
//!         │            │                         │
//!         ▼            │                         │
//!  ┌──────────────────────────────┐   fit_q90    │
//!  │           TwinLoop           │──────────────┘
//!  │ pending batch ─▶ refit()     │
//!  │ (inline or worker thread)    │
//!  │ residuals ─▶ active probes ──┼──▶ measure
//!  └──────────────────────────────┘     truth
//! ```
//!
//! * [`Dispatcher`] — admitted jobs wait in one `queueing::JobPool`
//!   and placed jobs run in another. [`run_serve`] sheds an arrival
//!   instead of admitting it while [`ServeConfig::queue_capacity`] jobs
//!   already wait. Placed jobs advance through [`queueing::Running`],
//!   the event step of the offline Section VI experiments, against a
//!   [`symbiosis::RateGrid`] of the truth, so the service and the
//!   offline study run jobs on one machine model.
//! * [`Placer`] — fills *free* contexts non-preemptively:
//!   [`PolicyPlacer`] reuses the Section VI schedulers via
//!   [`OccupiedModel`] re-pricing, [`BeamPlacer`] adds a bounded
//!   beam search over partial placements.
//! * [`TwinLoop`] — bounded-staleness [`predict::PredictedModel::refit`]
//!   off the hot path, plus residual-driven active sampling
//!   ([`predict::PredictedModel::residual_quantiles`]). A panicking
//!   refit worker is caught and surfaced as [`TwinError`] at shutdown
//!   instead of poisoning the run.
//! * [`CircuitBreaker`] — graceful degradation: the twin's `fit_q90`
//!   health signal trips a hysteresis breaker. [`run_serve`] owns it and
//!   lends the dispatcher a symbiosis-blind FCFS placer instead of the
//!   configured one while the model is mispricing, handing traffic back
//!   once refits recover.
//! * [`sim`] — closes the loop against ground truth (a measured
//!   `PerfTable` view or any partial-capable
//!   [`symbiosis::RateModel`]) under a seeded virtual clock, so whole
//!   service runs are deterministic and testable. Each iteration of
//!   [`run_serve`] advances to the next arrival or completion, admits
//!   or sheds the arrival, then fills free contexts once. Its event
//!   clock is absolute time, unlike the offline DES's `dt` clock.
//!
//! # Example
//!
//! ```
//! use serve::{run_serve, BeamPlacer, ServeConfig};
//! use predict::{InterferenceFitter, PredictedModel, RateSample};
//! use symbiosis::{AnalyticModel, RateModel};
//!
//! // Ground truth: heterogeneity relieves contention.
//! let truth = AnalyticModel::new(2, 2, |counts: &[u32], _ty| {
//!     let distinct = counts.iter().filter(|&&c| c > 0).count() as f64;
//!     let load: u32 = counts.iter().sum();
//!     (0.6 + 0.3 * (distinct - 1.0)) / load as f64
//! });
//! // Seed the twin with a handful of small measurements.
//! let samples: Vec<RateSample> = [[1u32, 0], [0, 1], [1, 1], [2, 0], [0, 2]]
//!     .iter()
//!     .map(|counts| RateSample {
//!         counts: counts.to_vec(),
//!         rates: (0..2).map(|b| truth.total_rate(counts, b)).collect(),
//!     })
//!     .collect();
//! let model = PredictedModel::fit(2, 2, samples, Box::new(InterferenceFitter)).unwrap();
//! let report = run_serve(
//!     &truth,
//!     model,
//!     Box::new(BeamPlacer::new(4)),
//!     &ServeConfig { jobs: 50, ..ServeConfig::default() },
//! )
//! .unwrap();
//! assert_eq!(report.completed + report.rejected, 50);
//! ```

pub mod breaker;
pub mod dispatch;
pub mod placer;
pub mod sim;
pub mod twin;

pub use breaker::{BreakerConfig, BreakerEvent, BreakerReport, CircuitBreaker};
pub use dispatch::{Completion, DispatchError, Dispatcher, Placement};
pub use placer::{BeamPlacer, OccupiedError, OccupiedModel, Placer, PolicyPlacer};
pub use sim::{run_serve, ErrorPoint, ServeConfig, ServeError, ServeReport};
pub use twin::{RefitRecord, TwinError, TwinLoop};

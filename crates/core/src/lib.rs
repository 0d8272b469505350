//! Symbiotic job scheduling analysis — the core of the reproduction of
//! *"Revisiting Symbiotic Job Scheduling"* (Eyerman, Michaud, Rogiest,
//! ISPASS 2015).
//!
//! Given the execution rate of every job type in every possible coschedule
//! (a [`WorkloadRates`] table, typically measured with the `simproc`
//! simulator via the `workloads` crate), this crate computes:
//!
//! * the **theoretically optimal and worst average throughput** of a fully
//!   loaded machine under the fixed-work constraint, by linear programming
//!   ([`optimal_schedule`], Section IV of the paper);
//! * the **FCFS baseline throughput**, by an event-driven maximum-throughput
//!   experiment or an exact Markov-chain solution ([`fcfs_throughput`],
//!   [`fcfs_throughput_markov`]);
//! * the **variability statistics** behind Figure 1
//!   ([`analyze_variability`]);
//! * the **linear-bottleneck least-squares analysis** behind Figure 3
//!   ([`fit_linear_bottleneck`]);
//! * the **coschedule-heterogeneity table** (Table II,
//!   [`heterogeneity_table`]); and
//! * the **fairness counterfactual** of Section V-D
//!   ([`fairness_experiment`]).
//!
//! The paper's headline finding reproduces directly from these pieces: the
//! per-job and per-coschedule performance spreads are large, yet the gap
//! between the optimal scheduler and agnostic FCFS is small, because the
//! fixed-work constraint forces every job type to be executed eventually.
//!
//! # Quick start
//!
//! ```
//! use symbiosis::{
//!     analyze_variability, optimal_schedule, FcfsParams, Objective, WorkloadRates,
//! };
//!
//! // A toy 2-type workload on a 2-context machine: mixing job types is 20%
//! // faster than running clones together.
//! let rates = WorkloadRates::build(2, 2, |s| {
//!     let boost = if s.heterogeneity() == 2 { 1.2 } else { 1.0 };
//!     s.counts().iter().map(|&c| c as f64 * 0.5 * boost).collect()
//! })?;
//!
//! let best = optimal_schedule(&rates, Objective::MaxThroughput)?;
//! let stats = analyze_variability(&rates, FcfsParams::default())?;
//! assert!(best.throughput >= stats.fcfs);
//! # Ok::<(), symbiosis::SymbiosisError>(())
//! ```

pub mod bottleneck;
pub mod coschedule;
pub mod error;
pub mod fairness;
pub mod fcfs;
pub mod heterogeneity;
pub mod metrics;
pub mod optimal;
pub mod rates;
#[doc(hidden)]
pub mod rng;
pub mod variability;

pub use bottleneck::{
    fit_linear_bottleneck, fit_linear_bottleneck_rows, per_type_rate_difference, BottleneckFit,
};
pub use coschedule::{
    enumerate_coschedules, enumerate_workloads, Coschedule, CoscheduleIter, CoscheduleRank,
};
pub use error::SymbiosisError;
pub use fairness::{fairness_experiment, rebalanced_heterogeneous, FairnessExperiment};
pub use fcfs::{
    fcfs_throughput, fcfs_throughput_markov, fcfs_throughput_markov_tuned, markov_chain,
    markov_chain_colored, FcfsOutcome, JobSize, DEFAULT_MARKOV_ACCEL_LIMIT,
    DEFAULT_MARKOV_DENSE_LIMIT,
};
pub use heterogeneity::{
    heterogeneity_table, heterogeneity_table_from_parts, random_draw_heterogeneity_probability,
    HeterogeneityRow, HeterogeneityTable,
};
pub use metrics::Spread;
pub use optimal::{
    optimal_schedule, throughput_bounds, Objective, Schedule, ScheduleLp, DEFAULT_LP_DENSE_LIMIT,
};
pub use rates::{
    assert_rate_model_conformance, AnalyticModel, CachedModel, RateModel, WorkloadRates,
};
pub use variability::{
    analyze_variability, instantaneous_spread, per_job_spreads, FcfsParams, WorkloadVariability,
};

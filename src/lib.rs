//! Reproduction of *"Revisiting Symbiotic Job Scheduling"* (Eyerman,
//! Michaud, Rogiest — ISPASS 2015) as a Rust workspace.
//!
//! This facade crate re-exports the workspace's libraries so examples and
//! downstream users can depend on a single crate:
//!
//! * [`session`] — **the public API**: the [`prelude::Session`] entry
//!   point, the [`prelude::Policy`] registry, uniform
//!   [`prelude::PolicyReport`] rows, and the batch `Session::sweep`
//!   surface ([`prelude::SweepReport`], [`prelude::WorkerPool`],
//!   `session::stats`);
//! * [`symbiosis`] — the analyses behind it: the [`prelude::RateModel`]
//!   abstraction, LP optimal/worst throughput, Markov/event FCFS, and the
//!   Section V studies;
//! * [`lp`] — dense two-phase simplex and linear-algebra kernels;
//! * [`simproc`] — the SMT / multicore performance simulator substrate;
//! * [`workloads`] — the 12 SPEC-CPU2006-like benchmark profiles and the
//!   coschedule performance tables;
//! * [`predict`] — model-predicted rate sources: stratified coschedule
//!   sampling ([`prelude::SamplePlan`]), pluggable interference fitters
//!   ([`prelude::Fitter`]), and the refittable
//!   [`prelude::PredictedModel`] that stands in for measurement;
//! * [`queueing`] — the Section VI latency machinery (FCFS / MAXIT /
//!   SRPT / MAXTP schedulers, analytic M/M/c);
//! * [`dist`] — the sharded sweep coordinator: a length-prefixed,
//!   checksummed wire protocol over TCP (or in-process loopback), a
//!   fault-tolerant [`prelude::Coordinator`] that re-queues chunks lost
//!   to dead workers (with backoff, strike-based quarantine and hedged
//!   straggler re-dispatch), [`prelude::run_worker`] for the worker
//!   side, a seeded fault-injection layer ([`prelude::ChaosPlan`] /
//!   [`prelude::ChaosTransport`]) for testing all of it, and a
//!   deterministic merge whose report is bitwise-identical to a
//!   single-process `Session::sweep`;
//! * [`serve`] — the online scheduling service: a bounded
//!   [`prelude::Queue`] front end, placers ([`prelude::Placer`]) pricing
//!   free contexts through the live model, the digital-twin refit
//!   loop ([`prelude::TwinLoop`]) closed against ground truth by
//!   [`prelude::run_serve`], and graceful degradation — a model-health
//!   circuit breaker ([`prelude::BreakerConfig`]) that falls back to
//!   FCFS while the twin is mispricing.
//!
//! The experiment harness that regenerates every paper figure/table lives
//! in the `paperbench` crate: an `Experiment` registry drives them all
//! through one binary, `paperbench <name>|all|--list`.
//!
//! # Quick start
//!
//! Everything goes through a [`prelude::Session`]: pick a rate source
//! (a machine + workload to simulate, or any [`prelude::RateModel`]),
//! pick policies from the registry, run, and read uniform rows:
//!
//! ```no_run
//! use symbiotic_scheduling::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let report = Session::builder()
//!     .machine(MachineConfig::smt4())
//!     .workload(&[0, 5, 7, 11]) // bzip2 + hmmer + mcf + xalancbmk
//!     .policies([Policy::Worst, Policy::FcfsEvent, Policy::Optimal])
//!     .fcfs_jobs(40_000)
//!     .seed(42)
//!     .run()?;
//! println!("{report}");
//! println!(
//!     "optimal scheduler gains {:.1}% over FCFS",
//!     100.0 * (report.throughput(Policy::Optimal).unwrap()
//!         / report.throughput(Policy::FcfsEvent).unwrap()
//!         - 1.0)
//! );
//! # Ok(())
//! # }
//! ```
//!
//! Rate sources need not come from the simulator — an analytic model (or a
//! [`prelude::RateGrid`] holding an expensive predictor's answers,
//! evaluated once) plugs into the same session:
//!
//! ```
//! use symbiotic_scheduling::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = AnalyticModel::new(2, 2, |counts, _ty| {
//!     let distinct = counts.iter().filter(|&&c| c > 0).count();
//!     0.5 * if distinct == 2 { 1.2 } else { 1.0 }
//! });
//! let report = Session::builder()
//!     .rates(&model)
//!     .policy_names(["worst", "fcfs-markov", "optimal"])
//!     .run()?;
//! assert!(report.throughput(Policy::Optimal) >= report.throughput(Policy::FcfsMarkov));
//!
//! // Every answer of the model, evaluated once: the same numbers.
//! let grid = RateGrid::new(&model)?;
//! let from_grid = Session::builder()
//!     .rates(&grid)
//!     .policy_names(["worst", "fcfs-markov", "optimal"])
//!     .run()?;
//! assert_eq!(from_grid, report);
//! # Ok(())
//! # }
//! ```
//!
//! The engine functions behind the session (`optimal_schedule`,
//! `fcfs_throughput`, `run_latency_experiment`, ...) stay public in their
//! own crates, [`symbiosis`] and [`queueing`].

pub use dist;
pub use lp;
pub use predict;
pub use queueing;
pub use serve;
pub use session;
pub use simproc;
pub use symbiosis;
pub use workloads;

/// Commonly used items from across the workspace.
pub mod prelude {
    pub use session::{
        stats, Policy, PolicyKind, PolicyReport, Session, SessionBuilder, SessionError,
        SessionReport, SweepBuilder, SweepError, SweepItem, SweepReport, SweepRow, WorkerPool,
    };
    pub use symbiosis::{
        assert_rate_model_conformance, enumerate_coschedules, enumerate_workloads, AnalyticModel,
        BottleneckFit, Coschedule, FairnessExperiment, FcfsOutcome, FcfsParams, HeterogeneityTable,
        JobSize, Objective, RateGrid, RateModel, Schedule, SymbiosisError, WorkloadRates,
        WorkloadVariability,
    };

    pub use predict::{
        samples_from_table, stratified_plan, BottleneckFitter, ErrorSummary, Fitter,
        InterferenceFitter, PredictedModel, RateSample, SamplePlan,
    };

    pub use dist::{
        run_worker, ChaosPlan, ChaosTransport, Coordinator, DistConfig, DistError, DistOutcome,
        TcpTransport, Transport, WorkerConfig, WorkerSummary,
    };
    pub use queueing::{
        BatchConfig, BatchReport, ContentionModel, FcfsScheduler, LatencyConfig, LatencyReport,
        MaxItScheduler, MaxTpScheduler, MmcQueue, Scheduler, SizeDist, SrptScheduler,
    };
    pub use serve::{
        run_serve, BeamPlacer, BreakerConfig, Dispatcher, Placer, PolicyPlacer, Queue, ServeConfig,
        ServeReport, TwinError, TwinLoop,
    };
    pub use simproc::{BenchmarkProfile, FetchPolicy, Machine, MachineConfig, RobPartitioning};
    pub use workloads::{
        spec2006, spec_names, spec_profile, PerfTable, StoreOutcome, TableStore, WorkUnit,
        WorkloadView,
    };
}

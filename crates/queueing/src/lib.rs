//! Latency experiments for symbiotic job scheduling (paper Section VI).
//!
//! The maximum-throughput analyses in the `symbiosis` crate ask how fast a
//! *fully loaded* machine can go. This crate asks the complementary
//! question the paper uses to reconcile its findings with earlier work:
//! what happens to **turnaround time**, **processor utilisation** and
//! **empty time** when jobs arrive over time?
//!
//! * [`run_latency_experiment`] — a discrete-event simulation with Poisson
//!   arrivals and coschedule-dependent service rates;
//! * the four policies of the paper: [`FcfsScheduler`], [`MaxItScheduler`]
//!   (maximise instantaneous throughput), [`SrptScheduler`] (shortest total
//!   remaining processing time) and [`MaxTpScheduler`] (follow the
//!   LP-optimal coschedule fractions, the paper's practical construction);
//! * [`MmcQueue`] — analytic M/M/c closed forms behind the Figure 4
//!   illustration (3% more throughput → 16% less turnaround near
//!   saturation).
//!
//! Performance data is supplied through the workspace-wide
//! [`symbiosis::RateModel`] trait (re-exported here), implemented by the
//! `workloads` crate for simulated tables and by [`ContentionModel`] for
//! analytic toy systems.
//!
//! # Examples
//!
//! ```
//! use queueing::{MmcQueue, ContentionModel, FcfsScheduler, LatencyConfig,
//!                run_latency_experiment, SizeDist};
//!
//! // The paper's M/M/4 worked example...
//! let q = MmcQueue::new(3.5, 1.0, 4).unwrap();
//! assert!((q.mean_turnaround() - 2.5).abs() < 0.05);
//!
//! // ...validated against the discrete-event simulator.
//! let rates = ContentionModel::new(vec![1.0], 0.0, 4);
//! let sim = run_latency_experiment(
//!     &rates,
//!     &mut FcfsScheduler,
//!     &LatencyConfig {
//!         arrival_rate: 3.5,
//!         measured_jobs: 30_000,
//!         warmup_jobs: 3_000,
//!         sizes: SizeDist::Exponential,
//!         seed: 1,
//!     },
//! )
//! .unwrap();
//! assert!((sim.mean_turnaround - q.mean_turnaround()).abs() < 0.25);
//! ```

pub mod job;
pub mod mmc;
pub mod rates;
pub mod sched;
pub mod sim;

pub use symbiosis::RateModel;

pub use job::{Job, JobId, JobPool};
pub use mmc::MmcQueue;
pub use rates::ContentionModel;
pub use sched::{FcfsScheduler, MaxItScheduler, MaxTpScheduler, Scheduler, SrptScheduler};
pub use sim::{
    run_batch_experiment, run_latency_experiment, BatchConfig, BatchReport, LatencyConfig,
    LatencyReport, SizeDist,
};

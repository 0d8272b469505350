//! The unified scheduling API: `RateModel` + `Policy` + `Session`.
//!
//! This crate is the single entry point over the workspace's analysis
//! machinery. It ties together
//!
//! * a rate source — any [`symbiosis::RateModel`]: a measured
//!   `workloads::WorkloadView`, an analytic [`symbiosis::AnalyticModel`],
//!   a pre-evaluated [`symbiosis::RateGrid`], or a machine + workload pair
//!   this crate simulates for you. A session with latency policies
//!   evaluates its rate source into one `RateGrid` that every
//!   event-driven run reads;
//! * the [`Policy`] registry — the paper's four throughput analyses and
//!   four latency schedulers, addressable by name;
//! * the builder-style [`Session`], which evaluates any set of policies on
//!   one rate source and returns uniform [`PolicyReport`] rows; and
//! * the batch [`Session::sweep`] surface, which shares one performance
//!   table across a workload list, fans the evaluations out over a
//!   [`WorkerPool`], and returns a [`SweepReport`] with built-in
//!   aggregation ([`stats`]).
//!
//! # Examples
//!
//! Simulate a workload on the SMT machine and compare the LP bounds with
//! the FCFS baseline (the paper's headline experiment):
//!
//! ```no_run
//! use session::{Policy, Session};
//! use simproc::MachineConfig;
//!
//! # fn main() -> Result<(), session::SessionError> {
//! let report = Session::builder()
//!     .machine(MachineConfig::smt4())
//!     .workload(&[0, 5, 7, 11]) // bzip2 + hmmer + mcf + xalancbmk
//!     .policies([Policy::Worst, Policy::FcfsEvent, Policy::Optimal])
//!     .fcfs_jobs(40_000)
//!     .seed(42)
//!     .run()?;
//! println!("{report}");
//! let gain = report.throughput(Policy::Optimal).unwrap()
//!     / report.throughput(Policy::FcfsEvent).unwrap()
//!     - 1.0;
//! println!("optimal scheduler gains {:.1}% over FCFS", 100.0 * gain);
//! # Ok(())
//! # }
//! ```

//! Batch evaluation goes through the same entry point — one shared table,
//! many workloads, a worker pool, and aggregate accessors:
//!
//! ```no_run
//! use session::{Policy, Session};
//! use simproc::{Machine, MachineConfig};
//! use workloads::{spec2006, PerfTable};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = Machine::new(MachineConfig::smt4())?;
//! let table = PerfTable::build(&machine, &spec2006(), 8)?;
//! let sweep = Session::sweep()
//!     .table(&table)
//!     .workloads(symbiosis::enumerate_workloads(12, 4))
//!     .policies([Policy::FcfsEvent, Policy::Optimal])
//!     .run()?;
//! println!(
//!     "optimal over FCFS, averaged over {} mixes: {}",
//!     sweep.len(),
//!     session::stats::pct(sweep.mean_gain(Policy::Optimal, Policy::FcfsEvent))
//! );
//! # Ok(())
//! # }
//! ```

pub mod policy;
pub mod pool;
pub mod session;
pub mod stats;
pub mod sweep;

pub use policy::{Policy, PolicyKind};
pub use pool::WorkerPool;
pub use session::{PolicyReport, Session, SessionBuilder, SessionError, SessionReport};
pub use sweep::{SweepBuilder, SweepError, SweepItem, SweepReport, SweepRow, SweepSpec};

//! The unified scheduling API: `RateModel` + `Policy` + `Session`.
//!
//! This crate is the single entry point over the workspace's analysis
//! machinery. It ties together
//!
//! * a rate source — any [`symbiosis::RateModel`]: a measured
//!   `workloads::WorkloadView`, an analytic [`symbiosis::AnalyticModel`]
//!   or a pre-evaluated [`symbiosis::RateGrid`]. A session with latency
//!   policies evaluates its rate source into one `RateGrid` that every
//!   event-driven run reads;
//! * the [`Policy`] registry — the paper's four throughput analyses and
//!   four latency schedulers, addressable by name;
//! * the builder-style [`Session`], which evaluates an [`EvalSpec`] — the
//!   policies plus their experiment settings — on one rate source and
//!   returns uniform [`PolicyReport`] rows; and
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
//! use simproc::{Machine, MachineConfig};
//! use workloads::{spec2006, PerfTable};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // bzip2 + hmmer + mcf + xalancbmk: simulate only their coschedules.
//! let suite = spec2006();
//! let mix: Vec<_> = [0, 5, 7, 11].iter().map(|&b| suite[b].clone()).collect();
//! let machine = Machine::new(MachineConfig::smt4())?;
//! let table = PerfTable::build(&machine, &mix, 4)?;
//! let view = table.workload_view(&[0, 1, 2, 3])?;
//! let report = Session::builder()
//!     .rates(&view)
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
pub use session::{EvalSpec, PolicyReport, Session, SessionBuilder, SessionError, SessionReport};
pub use sweep::{SweepBuilder, SweepError, SweepItem, SweepReport, SweepRow};

//! SPEC CPU2006-like benchmark profiles and coschedule performance tables.
//!
//! This crate glues the [`simproc`] simulator to the [`symbiosis`] analyses
//! for the reproduction of *"Revisiting Symbiotic Job Scheduling"*
//! (ISPASS 2015):
//!
//! * [`spec2006`] — the 12 benchmark profiles standing in for the paper's
//!   Table I SPEC CPU2006 selection;
//! * [`PerfTable`] — per-slot IPCs of all coschedules of a suite on a
//!   machine (the paper's 1365-combination sweep), convertible into
//!   [`symbiosis::WorkloadRates`] for any selected workload;
//! * [`TableStore`] — a fingerprint-keyed on-disk cache of performance
//!   tables ([`PerfTable::save`] / [`PerfTable::load`], bitwise-stable
//!   format documented in [`store`]) so repeated studies skip
//!   re-simulation;
//! * [`codec`] — the bounded little-endian byte codec and FNV-1a 64 hash
//!   that the table format and the `dist` wire protocol share.
//!
//! # Examples
//!
//! ```no_run
//! use simproc::{Machine, MachineConfig};
//! use workloads::{spec2006, PerfTable};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = Machine::new(MachineConfig::smt4())?;
//! let table = PerfTable::build(&machine, &spec2006(), 8)?;
//! let rates = table.workload_rates(&[0, 5, 7, 11])?; // bzip2+hmmer+mcf+xalancbmk
//! let best = symbiosis::optimal_schedule(&rates, symbiosis::Objective::MaxThroughput)?;
//! println!("optimal throughput: {:.3}", best.throughput);
//! # Ok(())
//! # }
//! ```

pub mod codec;
pub mod spec;
pub mod store;
pub mod table;

pub use spec::{spec2006, spec_names, spec_profile};
pub use store::{table_fingerprint, StoreOutcome, TableStore};
pub use table::{PerfTable, TableError, WorkUnit, WorkloadView};

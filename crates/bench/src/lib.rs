//! Experiment harness for the ISPASS 2015 reproduction.
//!
//! Each module under [`experiments`] regenerates one table or figure of
//! *"Revisiting Symbiotic Job Scheduling"*. Each is one
//! [`Experiment`] row (name, paper artefact, description, `run` function)
//! of the static [`REGISTRY`] table, so the crate's one binary runs any of
//! them by name (`cargo run --release -p paperbench --bin paperbench --
//! fig1`, or `-- all` for every artefact). The same binary carries the
//! offline tools `bench-delta` ([`delta`]) and `validate-trace`.
//!
//! Every experiment `run` returns [`ExperimentError`], a boxed
//! `std::error::Error`, so a failure keeps its source type
//! ([`StudyError`], [`session::SweepError`], [`dist::DistError`],
//! [`serve::ServeError`], …) for callers that `downcast_ref` it. An
//! artefact's printed text holds only run-independent values: wall times,
//! per-worker accounting and thread-timing-dependent counts go to stderr,
//! so two runs of one configuration print the same stdout.
//!
//! All experiments accept a [`StudyConfig`]; `--fast` produces test-scale
//! runs, the default reproduces the paper-scale sweep (full simulator
//! windows, all 495 workloads unless `--sample N` is given). With
//! `--table-cache PATH` (or `SYMBIOSIS_TABLE_CACHE`) performance tables
//! persist in a [`workloads::TableStore`], so repeated runs skip the
//! simulation sweep entirely. Every per-workload fan-out — including the
//! latency and batch (makespan) legs — goes through
//! [`session::Session::sweep`].

pub mod cli;
pub mod delta;
pub mod experiments;
pub mod study;

pub use experiments::{by_name, Experiment, ExperimentContext, ExperimentError, REGISTRY};
pub use study::{artefact_digest, Chip, Study, StudyConfig, StudyError};

// The aggregation helpers migrated into the API layer next to
// `session::SweepReport`; they are re-exported here so experiment code and
// downstream callers keep their spelling.
pub use session::stats::{kendall_tau, max, mean, min, pct, pearson};

//! The batch evaluation surface: one performance table, many workloads,
//! evaluated over a worker pool.
//!
//! The paper's headline results are aggregates over hundreds of random
//! workload mixes; [`Session::sweep`] makes that the first-class object.
//! A [`SweepBuilder`] shares one [`PerfTable`] across a workload list, fans
//! per-workload [`Session`] runs out over a [`WorkerPool`], and returns a
//! [`SweepReport`] whose rows are exactly what a loop of single-session
//! runs would produce — bitwise, which the sweep parity suite pins.

use std::fmt;

use symbiosis::{RateModel, WorkloadRates};
use workloads::{PerfTable, WorkUnit, WorkloadView};

use crate::pool::WorkerPool;
use crate::session::{
    check_policies, spec_setters, EvalSpec, Session, SessionBuilder, SessionError, SessionReport,
};
use crate::stats;
use crate::Policy;

/// Errors from configuring or running a [`SweepBuilder`].
#[derive(Debug)]
pub enum SweepError {
    /// No `.table(...)` was given.
    MissingTable,
    /// The workload list is empty.
    NoWorkloads,
    /// The sweep configuration itself is invalid (no policies requested).
    Config(SessionError),
    /// One workload's evaluation failed; the sweep reports the first
    /// failure in workload order.
    Workload {
        /// The failing workload (benchmark indices).
        workload: Vec<usize>,
        /// What went wrong for it.
        source: SessionError,
    },
    /// A custom [`SweepBuilder::map`] closure failed for one workload.
    Custom {
        /// The failing workload (benchmark indices).
        workload: Vec<usize>,
        /// The closure's error text.
        message: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::MissingTable => write!(f, "no rate source: call .table(...)"),
            SweepError::NoWorkloads => write!(f, "no workloads to sweep"),
            SweepError::Config(e) => write!(f, "sweep configuration: {e}"),
            SweepError::Workload { workload, source } => {
                write!(f, "workload {workload:?}: {source}")
            }
            SweepError::Custom { workload, message } => {
                write!(f, "workload {workload:?}: {message}")
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Config(e) | SweepError::Workload { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

/// One sweep row: the workload and its uniform session report.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Benchmark indices of this workload.
    pub workload: Vec<usize>,
    /// The session outcome, one [`crate::PolicyReport`] per policy.
    pub report: SessionReport,
}

/// The outcome of a sweep: per-workload rows plus aggregation helpers, so
/// experiments stop hand-rolling their mean/max/percentile folds.
///
/// Equality compares **rows only**: [`SweepReport::metrics`] is an
/// observability side-band (latencies, cache hit rates, solver sweep
/// counts) whose values legitimately differ between bitwise-identical
/// sweeps, so the parity suites' `assert_eq!` pins stay meaningful.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One row per workload, in request order.
    pub rows: Vec<SweepRow>,
    /// Metrics (empty when instrumentation is disabled): per-item latency,
    /// pool occupancy, solver activity. Counters and histograms hold this
    /// run's activity only; gauges hold the recorder's lifetime state
    /// (current value and all-time peak), as
    /// [`obs::MetricsSnapshot::diff`] keeps them.
    pub metrics: obs::MetricsSnapshot,
}

impl PartialEq for SweepReport {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
    }
}

impl SweepReport {
    /// Merges per-shard reports into one, preserving row order: part 0's
    /// rows first, then part 1's, and so on. All aggregate statistics
    /// ([`SweepReport::mean_throughput`], [`SweepReport::gains`], ...) are
    /// computed from the merged rows on demand, so the merged report is
    /// indistinguishable — bitwise — from a single sweep over the
    /// concatenated workload list. Shard metrics fold together via
    /// [`obs::MetricsSnapshot::merge`].
    ///
    /// This is the reassembly half of distributed sweeps: a coordinator
    /// that splits a workload list into consecutive shards and merges the
    /// shard reports in shard order reproduces the single-process
    /// [`Session::sweep`] report exactly.
    pub fn merge<I: IntoIterator<Item = SweepReport>>(parts: I) -> SweepReport {
        let mut rows = Vec::new();
        let mut metrics = obs::MetricsSnapshot::default();
        for part in parts {
            rows.extend(part.rows);
            metrics.merge(&part.metrics);
        }
        SweepReport { rows, metrics }
    }

    /// Number of workloads swept.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no workloads were swept (cannot happen for successful
    /// runs: an empty list is [`SweepError::NoWorkloads`]).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Per-workload throughput of one policy, in workload order.
    ///
    /// # Panics
    ///
    /// Panics if `policy` was not part of the sweep.
    pub fn throughputs(&self, policy: Policy) -> Vec<f64> {
        self.rows
            .iter()
            .map(|r| {
                r.report
                    .throughput(policy)
                    .unwrap_or_else(|| panic!("policy {policy} was not part of the sweep"))
            })
            .collect()
    }

    /// Mean throughput of one policy over all workloads.
    ///
    /// # Panics
    ///
    /// Panics if `policy` was not part of the sweep.
    pub fn mean_throughput(&self, policy: Policy) -> f64 {
        stats::mean(&self.throughputs(policy))
    }

    /// Per-workload relative gain of `policy` over `baseline`
    /// (`throughput ratio - 1`), in workload order.
    ///
    /// # Panics
    ///
    /// Panics if either policy was not part of the sweep.
    pub fn gains(&self, policy: Policy, baseline: Policy) -> Vec<f64> {
        self.throughputs(policy)
            .iter()
            .zip(self.throughputs(baseline))
            .map(|(&a, b)| a / b - 1.0)
            .collect()
    }

    /// Mean relative gain of `policy` over `baseline`.
    ///
    /// # Panics
    ///
    /// Panics if either policy was not part of the sweep.
    pub fn mean_gain(&self, policy: Policy, baseline: Policy) -> f64 {
        stats::mean(&self.gains(policy, baseline))
    }

    /// Pearson correlation of two policies' per-workload throughputs;
    /// `None` when degenerate.
    ///
    /// # Panics
    ///
    /// Panics if either policy was not part of the sweep.
    pub fn correlation(&self, a: Policy, b: Policy) -> Option<f64> {
        stats::pearson(&self.throughputs(a), &self.throughputs(b))
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "sweep over {} workloads", self.rows.len())?;
        writeln!(
            f,
            "{:<12} {:>12} {:>12} {:>12}",
            "policy", "mean TP", "min TP", "max TP"
        )?;
        if let Some(first) = self.rows.first() {
            for pr in &first.report.rows {
                let tps = self.throughputs(pr.policy);
                writeln!(
                    f,
                    "{:<12} {:>12.4} {:>12.4} {:>12.4}",
                    pr.policy.name(),
                    stats::mean(&tps),
                    stats::min(&tps),
                    stats::max(&tps)
                )?;
            }
        }
        Ok(())
    }
}

/// One workload's evaluation context inside [`SweepBuilder::map`]: the
/// shared table, the workload, the sweep's unit of work, and a
/// [`SweepItem::session`] constructor for per-workload policy rows.
pub struct SweepItem<'a> {
    table: &'a PerfTable,
    workload: &'a [usize],
    unit: WorkUnit,
    index: usize,
    spec: &'a EvalSpec,
}

impl<'a> SweepItem<'a> {
    /// Position of this workload in the sweep's request order.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The workload's benchmark indices.
    pub fn workload(&self) -> &'a [usize] {
        self.workload
    }

    /// The shared performance table.
    pub fn table(&self) -> &'a PerfTable {
        self.table
    }

    /// The workload's full-coschedule rate table in the sweep's unit of
    /// work.
    ///
    /// # Errors
    ///
    /// Propagates workload validation failures as text (the closure's
    /// error currency).
    pub fn rates(&self) -> Result<WorkloadRates, String> {
        self.table
            .workload_rates_with_unit(self.workload, self.unit)
            .map_err(|e| e.to_string())
    }

    /// The workload's measured rate-model view (weighted unit, partial
    /// coschedules included).
    ///
    /// # Errors
    ///
    /// Propagates workload validation failures as text.
    pub fn view(&self) -> Result<WorkloadView<'a>, String> {
        self.table
            .workload_view(self.workload)
            .map_err(|e| e.to_string())
    }

    /// A single-workload [`Session`] builder carrying this sweep's
    /// [`EvalSpec`] with its policies cleared: the objective, event-leg
    /// jobs/sizes/seed and latency configuration [`SweepBuilder::run`]
    /// evaluates each workload with.
    ///
    /// This is how custom maps run *policy rows* whose configuration
    /// depends on the workload: pick a rate source ([`SweepItem::rates`] or
    /// [`SweepItem::view`]), add policies, override what differs (e.g. a
    /// load-dependent [`SessionBuilder::latency`] arrival rate derived
    /// from an earlier row), and run. Overrides apply per call; the
    /// sweep's own spec is untouched.
    pub fn session(&self) -> SessionBuilder<'static> {
        SessionBuilder::from_spec(EvalSpec {
            policies: Vec::new(),
            ..self.spec.clone()
        })
    }
}

impl EvalSpec {
    /// A sweep builder over `table` in `unit` carrying this spec — how a
    /// distributed worker rebuilds the coordinator's sweep. Add workloads
    /// (any sub-slice of the original list) and `run()`: every workload is
    /// evaluated independently from the same spec, so the rows are
    /// bitwise identical to the rows the full-list sweep produces for
    /// those workloads.
    pub fn sweep<'t>(&self, table: &'t PerfTable, unit: WorkUnit) -> SweepBuilder<'t> {
        SweepBuilder {
            table: Some(table),
            unit,
            spec: self.clone(),
            ..Session::sweep()
        }
    }
}

/// Builder for a batch sweep. Obtained from [`Session::sweep`].
///
/// # Examples
///
/// Evaluate the LP bounds and the FCFS baseline over several workloads at
/// once, then aggregate:
///
/// ```no_run
/// use session::{Policy, Session};
/// use simproc::{Machine, MachineConfig};
/// use workloads::{spec2006, PerfTable};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let machine = Machine::new(MachineConfig::smt4())?;
/// let table = PerfTable::build(&machine, &spec2006(), 8)?;
/// let report = Session::sweep()
///     .table(&table)
///     .workloads(symbiosis::enumerate_workloads(12, 4))
///     .policies([Policy::Worst, Policy::FcfsEvent, Policy::Optimal])
///     .threads(8)
///     .run()?;
/// println!("{report}");
/// println!(
///     "optimal gains {:.1}% over FCFS on average",
///     100.0 * report.mean_gain(Policy::Optimal, Policy::FcfsEvent)
/// );
/// # Ok(())
/// # }
/// ```
pub struct SweepBuilder<'a> {
    table: Option<&'a PerfTable>,
    workloads: Vec<Vec<usize>>,
    unit: WorkUnit,
    threads: usize,
    spec: EvalSpec,
}

impl Session {
    /// Starts configuring a batch sweep: one shared [`PerfTable`], many
    /// workloads, evaluated in parallel over a [`WorkerPool`].
    pub fn sweep() -> SweepBuilder<'static> {
        SweepBuilder {
            table: None,
            workloads: Vec::new(),
            unit: WorkUnit::Weighted,
            threads: WorkerPool::default_size().threads(),
            spec: EvalSpec::default(),
        }
    }
}

impl<'a> SweepBuilder<'a> {
    /// The shared rate source: every workload is evaluated against this
    /// performance table.
    pub fn table<'b>(self, table: &'b PerfTable) -> SweepBuilder<'b>
    where
        'a: 'b,
    {
        SweepBuilder {
            table: Some(table),
            ..self
        }
    }

    /// Appends workloads (each a sorted distinct benchmark-index vector).
    pub fn workloads<I: IntoIterator<Item = Vec<usize>>>(mut self, workloads: I) -> Self {
        self.workloads.extend(workloads);
        self
    }

    /// Appends one workload.
    pub fn workload(mut self, workload: &[usize]) -> Self {
        self.workloads.push(workload.to_vec());
        self
    }

    /// Unit of work for the rate tables (default: weighted instructions,
    /// the paper's reported unit). With [`WorkUnit::Plain`] only throughput
    /// policies apply (the plain-unit table answers full coschedules only).
    pub fn unit(mut self, unit: WorkUnit) -> Self {
        self.unit = unit;
        self
    }

    /// Worker threads for the fan-out (default: available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    spec_setters!();

    /// The spec this sweep evaluates every workload with;
    /// `spec().sweep(table, unit)` rebuilds an equivalent builder.
    pub fn spec(&self) -> &EvalSpec {
        &self.spec
    }

    /// Decomposes a fully configured sweep into what a distributed
    /// coordinator shards: the shared table, the workload list (in request
    /// order), the unit of work and the per-workload [`EvalSpec`].
    ///
    /// The same validation as [`SweepBuilder::run`] applies up front —
    /// missing table, empty workload list and an empty policy set are all
    /// reported here, before any worker sees the job.
    ///
    /// # Errors
    ///
    /// [`SweepError::MissingTable`], [`SweepError::NoWorkloads`], or
    /// [`SweepError::Config`] on an invalid configuration.
    #[allow(clippy::type_complexity)]
    pub fn shard(self) -> Result<(&'a PerfTable, Vec<Vec<usize>>, WorkUnit, EvalSpec), SweepError> {
        let table = self.validated()?;
        check_policies(&self.spec).map_err(SweepError::Config)?;
        Ok((table, self.workloads, self.unit, self.spec))
    }

    fn validated(&self) -> Result<&'a PerfTable, SweepError> {
        let table = self.table.ok_or(SweepError::MissingTable)?;
        if self.workloads.is_empty() {
            return Err(SweepError::NoWorkloads);
        }
        Ok(table)
    }

    /// Applies `f(index, workload)` to every workload over the pool, with
    /// the caller's recorder installed on each worker thread (the pool
    /// spawns fresh OS threads, which would otherwise see no thread-local
    /// context). Results come back in workload order; the first failure
    /// in workload order wins, paired with its workload.
    fn fan_out<R, E, F>(&self, f: F) -> Result<Vec<R>, (Vec<usize>, E)>
    where
        R: Send,
        E: Send,
        F: Fn(usize, &[usize]) -> Result<R, E> + Sync,
    {
        let ctx = obs::current();
        WorkerPool::new(self.threads)
            .map(&self.workloads, |i, w| {
                let _obs = obs::install_current(&ctx);
                f(i, w)
            })
            .into_iter()
            .zip(&self.workloads)
            .map(|(result, w)| result.map_err(|e| (w.clone(), e)))
            .collect()
    }

    /// Runs every policy on every workload and returns the aggregated
    /// report. Rows are in workload request order regardless of thread
    /// count, and each row is bitwise identical to a single
    /// [`Session::builder`] run over the same workload.
    ///
    /// # Errors
    ///
    /// Configuration problems ([`SweepError::MissingTable`],
    /// [`SweepError::NoWorkloads`], [`SweepError::Config`]) are reported
    /// before any evaluation starts; the first per-workload failure (in
    /// workload order) aborts the sweep as [`SweepError::Workload`].
    pub fn run(self) -> Result<SweepReport, SweepError> {
        let table = self.validated()?;
        check_policies(&self.spec).map_err(SweepError::Config)?;
        // Snapshot before/after so the report embeds exactly this run's
        // activity.
        let ctx = obs::current();
        let _span = ctx.as_ref().map(|r| r.span("sweep.run"));
        let before = ctx.as_ref().map(|r| r.snapshot());
        let reports = self
            .fan_out(|_, w| {
                let active = ctx.as_ref().map(|r| {
                    let g = r.gauge("sweep.pool_active");
                    g.add(1);
                    g
                });
                let started = std::time::Instant::now();
                // Each workload makes the call a sequential caller makes,
                // `SessionBuilder::run` over this spec, so a row is a single
                // session's report by construction. The weighted unit
                // evaluates through the measured view (partial coschedules
                // included, so latency policies work); the plain unit
                // through the full-coschedule table in that unit.
                let session = |rates: &dyn RateModel| {
                    SessionBuilder::from_spec(self.spec.clone())
                        .rates(rates)
                        .run()
                };
                let result = match self.unit {
                    WorkUnit::Weighted => session(&table.workload_view(w)?),
                    WorkUnit::Plain => {
                        session(&table.workload_rates_with_unit(w, WorkUnit::Plain)?)
                    }
                };
                if let Some(r) = &ctx {
                    r.counter("sweep.items").add(1);
                    r.histogram("sweep.item_us")
                        .record(started.elapsed().as_micros() as f64);
                }
                if let Some(g) = active {
                    g.add(-1);
                }
                result
            })
            .map_err(|(workload, source)| SweepError::Workload { workload, source })?;
        let rows = self
            .workloads
            .into_iter()
            .zip(reports)
            .map(|(workload, report)| SweepRow { workload, report })
            .collect();
        drop(_span);
        let metrics = match (&ctx, before) {
            (Some(r), Some(before)) => obs::MetricsSnapshot::diff(&before, &r.snapshot()),
            _ => obs::MetricsSnapshot::default(),
        };
        Ok(SweepReport { rows, metrics })
    }

    /// Fans a custom per-workload analysis out over the pool instead of
    /// the standard policy evaluation — the escape hatch for experiments
    /// whose per-workload leg is not a set of [`Policy`] rows (e.g. the
    /// Table II heterogeneity fold). Results come back in workload order.
    ///
    /// Policies configured on the builder are ignored; the closure gets a
    /// [`SweepItem`] exposing the shared table, the workload, and
    /// unit-aware rate constructors.
    ///
    /// # Errors
    ///
    /// [`SweepError::MissingTable`] / [`SweepError::NoWorkloads`] before
    /// any work; the first closure failure (in workload order) as
    /// [`SweepError::Custom`].
    pub fn map<R, F>(self, f: F) -> Result<Vec<R>, SweepError>
    where
        R: Send,
        F: Fn(SweepItem<'_>) -> Result<R, String> + Sync,
    {
        let table = self.validated()?;
        self.fan_out(|index, workload| {
            f(SweepItem {
                table,
                workload,
                unit: self.unit,
                index,
                spec: &self.spec,
            })
        })
        .map_err(|(workload, message)| SweepError::Custom { workload, message })
    }
}

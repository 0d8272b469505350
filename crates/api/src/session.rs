//! The builder-style `Session` entry point: one rate source, any set of
//! policies, uniform report rows.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use queueing::{
    run_batch_experiment, run_latency_experiment, BatchConfig, BatchReport, LatencyConfig,
    LatencyReport, SizeDist,
};
use simproc::{Machine, MachineConfig, MachineError};
use symbiosis::{
    fcfs_throughput, fcfs_throughput_markov, JobSize, Objective, RateModel, Schedule, ScheduleLp,
    SymbiosisError, WorkloadRates,
};
use workloads::{spec2006, PerfTable, TableError};

use crate::policy::{Policy, PolicyKind};

/// Errors from configuring or running a [`Session`].
#[derive(Debug)]
pub enum SessionError {
    /// Neither `.rates(...)` nor `.machine(...).workload(...)` was given.
    MissingRates,
    /// `.workload(...)` without `.machine(...)` or vice versa.
    IncompleteSimulation(&'static str),
    /// Both `.rates(...)` and `.machine(...)`/`.workload(...)` were given —
    /// the session cannot tell which rate source is meant.
    ConflictingSources,
    /// No policy was requested.
    NoPolicies,
    /// A policy name failed to resolve in the registry.
    UnknownPolicy(String),
    /// A latency policy was requested on a rate model that only answers
    /// full-coschedule queries.
    PartialUnsupported(Policy),
    /// Simulator construction failed.
    Machine(MachineError),
    /// Performance-table construction or workload selection failed.
    Table(TableError),
    /// A throughput analysis failed.
    Symbiosis(SymbiosisError),
    /// An event-driven experiment failed.
    Experiment(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::MissingRates => {
                write!(
                    f,
                    "no rate source: call .rates(...) or .machine(...).workload(...)"
                )
            }
            SessionError::IncompleteSimulation(what) => {
                write!(f, "simulated rate source is missing {what}")
            }
            SessionError::ConflictingSources => write!(
                f,
                "both .rates(...) and .machine(...)/.workload(...) were given; \
                 pick one rate source"
            ),
            SessionError::NoPolicies => write!(f, "no policies requested"),
            SessionError::UnknownPolicy(name) => write!(f, "unknown policy {name:?}"),
            SessionError::PartialUnsupported(p) => write!(
                f,
                "policy {p} needs partial-coschedule rates, but the model only \
                 answers full-coschedule queries"
            ),
            SessionError::Machine(e) => write!(f, "machine: {e}"),
            SessionError::Table(e) => write!(f, "table: {e}"),
            SessionError::Symbiosis(e) => write!(f, "analysis: {e}"),
            SessionError::Experiment(msg) => write!(f, "experiment: {msg}"),
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Machine(e) => Some(e),
            SessionError::Table(e) => Some(e),
            SessionError::Symbiosis(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MachineError> for SessionError {
    fn from(e: MachineError) -> Self {
        SessionError::Machine(e)
    }
}

impl From<TableError> for SessionError {
    fn from(e: TableError) -> Self {
        SessionError::Table(e)
    }
}

impl From<SymbiosisError> for SessionError {
    fn from(e: SymbiosisError) -> Self {
        SessionError::Symbiosis(e)
    }
}

/// One uniform result row: what one policy achieved on the session's
/// workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyReport {
    /// The policy that produced this row.
    pub policy: Policy,
    /// Average throughput in work units (WIPC) per cycle — the common
    /// currency of every policy: LP objective value, Markov stationary
    /// throughput, event-experiment work over makespan, or latency-run
    /// work over measured time.
    pub throughput: f64,
    /// Per-coschedule time fractions (aligned with the full table's
    /// coschedule enumeration), for policies that produce them.
    pub fractions: Option<Vec<f64>>,
    /// Latency measurements, for latency policies run with
    /// [`SessionBuilder::latency`].
    pub latency: Option<LatencyReport>,
    /// Batch (makespan) measurements, for latency policies run without an
    /// arrival process.
    pub batch: Option<BatchReport>,
}

/// The uniform outcome of a [`Session`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// One row per requested policy, in request order.
    pub rows: Vec<PolicyReport>,
}

impl SessionReport {
    /// The row for a policy, if it was part of the session.
    pub fn row(&self, policy: Policy) -> Option<&PolicyReport> {
        self.rows.iter().find(|r| r.policy == policy)
    }

    /// The row for a policy name resolved through [`Policy::by_name`].
    pub fn row_by_name(&self, name: &str) -> Option<&PolicyReport> {
        Policy::by_name(name).and_then(|p| self.row(p))
    }

    /// Throughput of one policy (convenience for ratio reporting).
    pub fn throughput(&self, policy: Policy) -> Option<f64> {
        self.row(policy).map(|r| r.throughput)
    }
}

impl fmt::Display for SessionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>12} {:>14} {:>12}",
            "policy", "throughput", "turnaround", "makespan"
        )?;
        for r in &self.rows {
            let turnaround = r
                .latency
                .as_ref()
                .map(|l| format!("{:.3}", l.mean_turnaround))
                .or_else(|| {
                    r.batch
                        .as_ref()
                        .map(|b| format!("{:.3}", b.mean_turnaround))
                })
                .unwrap_or_else(|| "-".into());
            let makespan = r
                .batch
                .as_ref()
                .map(|b| format!("{:.1}", b.makespan))
                .unwrap_or_else(|| "-".into());
            writeln!(
                f,
                "{:<12} {:>12.4} {:>14} {:>12}",
                r.policy.name(),
                r.throughput,
                turnaround,
                makespan
            )?;
        }
        Ok(())
    }
}

pub(crate) enum PolicyRequest {
    Resolved(Policy),
    Unresolved(String),
}

impl PolicyRequest {
    /// Resolves a request list to policies, surfacing the first unknown
    /// name; shared by the session and sweep builders.
    pub(crate) fn resolve(requests: &[PolicyRequest]) -> Result<Vec<Policy>, SessionError> {
        requests
            .iter()
            .map(|req| match req {
                PolicyRequest::Resolved(p) => Ok(*p),
                PolicyRequest::Unresolved(name) => Err(SessionError::UnknownPolicy(name.clone())),
            })
            .collect()
    }

    pub(crate) fn from_name(name: &str) -> PolicyRequest {
        match Policy::by_name(name) {
            Some(p) => PolicyRequest::Resolved(p),
            None => PolicyRequest::Unresolved(name.to_owned()),
        }
    }
}

/// Builder for a [`Session`]. Obtained from [`Session::builder`].
pub struct SessionBuilder<'a> {
    source: Option<&'a dyn RateModel>,
    machine: Option<MachineConfig>,
    workload: Option<Vec<usize>>,
    threads: usize,
    policies: Vec<PolicyRequest>,
    objective: Objective,
    fcfs_jobs: u64,
    job_size: JobSize,
    seed: u64,
    latency: Option<LatencyConfig>,
}

/// A configured experiment: machine/workload (or a ready rate model) plus
/// the policies to evaluate — the workspace's single entry point.
///
/// # Examples
///
/// An analytic rate source, compared across every policy that applies:
///
/// ```
/// use session::{Policy, Session};
/// use symbiosis::AnalyticModel;
///
/// // Mixing distinct types is 20% faster than running clones together.
/// let model = AnalyticModel::new(2, 2, |counts, ty| {
///     let distinct = counts.iter().filter(|&&c| c > 0).count();
///     let boost = if distinct == 2 { 1.2 } else { 1.0 };
///     let _ = ty;
///     0.5 * boost
/// });
/// let report = Session::builder()
///     .rates(&model)
///     .policies([Policy::Optimal, Policy::Worst, Policy::FcfsEvent])
///     .fcfs_jobs(4_000)
///     .seed(42)
///     .run()
///     .unwrap();
/// let best = report.throughput(Policy::Optimal).unwrap();
/// let worst = report.throughput(Policy::Worst).unwrap();
/// let fcfs = report.throughput(Policy::FcfsEvent).unwrap();
/// assert!(worst <= fcfs + 1e-6 && fcfs <= best + 1e-6);
/// ```
pub struct Session;

impl Session {
    /// Starts configuring a session.
    pub fn builder() -> SessionBuilder<'static> {
        SessionBuilder {
            source: None,
            machine: None,
            workload: None,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            policies: Vec::new(),
            objective: Objective::MaxThroughput,
            fcfs_jobs: 40_000,
            job_size: JobSize::Deterministic,
            seed: 0x5EED,
            latency: None,
        }
    }
}

impl<'a> SessionBuilder<'a> {
    /// Uses a ready [`RateModel`] as the rate source (measured table view,
    /// analytic model, cache wrapper, or a full-coschedule
    /// [`WorkloadRates`] table for throughput-only sessions).
    pub fn rates<'b>(self, model: &'b dyn RateModel) -> SessionBuilder<'b>
    where
        'a: 'b,
    {
        SessionBuilder {
            source: Some(model),
            ..self
        }
    }

    /// Simulates the rate source: builds a performance table for `machine`
    /// over the 12-benchmark suite and restricts it to the workload given
    /// via [`SessionBuilder::workload`].
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machine = Some(machine);
        self
    }

    /// Selects the workload (sorted distinct benchmark indices into the
    /// suite) for a simulated rate source.
    pub fn workload(mut self, types: &[usize]) -> Self {
        self.workload = Some(types.to_vec());
        self
    }

    /// OS threads for simulated table building (default: available
    /// parallelism). Every policy evaluation runs on the calling thread,
    /// so the thread count never changes a reported number.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Adds one policy to evaluate.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policies.push(PolicyRequest::Resolved(policy));
        self
    }

    /// Adds several policies to evaluate.
    pub fn policies<I: IntoIterator<Item = Policy>>(mut self, policies: I) -> Self {
        self.policies
            .extend(policies.into_iter().map(PolicyRequest::Resolved));
        self
    }

    /// Adds policies by registry name ([`Policy::by_name`]); unknown names
    /// surface as [`SessionError::UnknownPolicy`] when the session runs.
    pub fn policy_names<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for name in names {
            self.policies.push(PolicyRequest::from_name(name.as_ref()));
        }
        self
    }

    /// LP direction used to derive the MAXTP targets (default:
    /// [`Objective::MaxThroughput`], the paper's construction).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Jobs completed per event-driven experiment (FCFS-EVENT and the
    /// batch runs of the latency policies). Default 40 000.
    pub fn fcfs_jobs(mut self, jobs: u64) -> Self {
        self.fcfs_jobs = jobs;
        self
    }

    /// Job size distribution for the event-driven experiments
    /// (default: deterministic unit work, the paper's maximum-throughput
    /// setup).
    pub fn job_size(mut self, sizes: JobSize) -> Self {
        self.job_size = sizes;
        self
    }

    /// Base RNG seed for the stochastic experiment legs.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the latency policies through the Poisson-arrival discrete-event
    /// experiment with this configuration instead of the default
    /// fixed-batch (makespan) experiment.
    pub fn latency(mut self, config: LatencyConfig) -> Self {
        self.latency = Some(config);
        self
    }

    /// Runs every requested policy and returns the uniform report.
    ///
    /// # Errors
    ///
    /// See [`SessionError`] — configuration errors are reported before any
    /// expensive work starts.
    pub fn run(self) -> Result<SessionReport, SessionError> {
        let policies: Vec<Policy> = PolicyRequest::resolve(&self.policies)?;
        if policies.is_empty() {
            return Err(SessionError::NoPolicies);
        }
        match (&self.source, &self.machine, &self.workload) {
            (Some(_), Some(_), _) | (Some(_), _, Some(_)) => Err(SessionError::ConflictingSources),
            (Some(model), None, None) => self.run_with(&policies, *model),
            (None, Some(machine), Some(workload)) => {
                // Restrict the sweep to the selected benchmarks: combos of
                // other suite members would be simulated and then thrown
                // away (each combo simulates independently, so the
                // restricted table holds identical rates).
                let suite = spec2006();
                for &b in workload {
                    if b >= suite.len() {
                        return Err(SessionError::Table(TableError::UnknownBenchmark(b)));
                    }
                }
                if workload.is_empty() || !workload.windows(2).all(|w| w[0] < w[1]) {
                    return Err(SessionError::Table(TableError::InvalidWorkload(
                        "workload must be non-empty, sorted and distinct".into(),
                    )));
                }
                let selected: Vec<_> = workload.iter().map(|&b| suite[b].clone()).collect();
                let machine = Machine::new(machine.clone())?;
                let table = PerfTable::build(&machine, &selected, self.threads)?;
                let local: Vec<usize> = (0..selected.len()).collect();
                let view = table.workload_view(&local)?;
                self.run_with(&policies, &view)
            }
            (None, Some(_), None) => Err(SessionError::IncompleteSimulation("a workload")),
            (None, None, Some(_)) => Err(SessionError::IncompleteSimulation("a machine config")),
            (None, None, None) => Err(SessionError::MissingRates),
        }
    }

    fn run_with(
        &self,
        policies: &[Policy],
        model: &dyn RateModel,
    ) -> Result<SessionReport, SessionError> {
        // Reject latency policies on full-only models before any work.
        for p in policies {
            if p.kind() == PolicyKind::Latency && !model.supports_partial() {
                return Err(SessionError::PartialUnsupported(*p));
            }
        }

        // Materialise the full table once if any policy needs it.
        let needs_table = policies
            .iter()
            .any(|p| p.kind() == PolicyKind::Throughput || *p == Policy::MaxTp);
        let table: Option<WorkloadRates> = if needs_table {
            Some(model.full_table()?)
        } else {
            None
        };

        // The scheduling LP's column data (`it` vector, balance rows) is
        // built once and shared by every LP consumer — the MAXTP target
        // derivation and the OPTIMAL/WORST rows — with one solve per
        // objective, cached. Skipped entirely when no requested policy
        // solves the LP (e.g. FCFS-only sessions).
        let needs_lp = policies
            .iter()
            .any(|p| matches!(p, Policy::Optimal | Policy::Worst | Policy::MaxTp));
        let lp: Option<ScheduleLp<'_>> = if needs_lp {
            table.as_ref().map(ScheduleLp::new)
        } else {
            None
        };
        let mut lp_cache: HashMap<Objective, Schedule> = HashMap::new();
        let solve = |lp: &ScheduleLp<'_>,
                     objective: Objective,
                     cache: &mut HashMap<Objective, Schedule>|
         -> Result<Schedule, SessionError> {
            if let Some(schedule) = cache.get(&objective) {
                return Ok(schedule.clone());
            }
            let schedule = lp.solve(objective)?;
            cache.insert(objective, schedule.clone());
            Ok(schedule)
        };

        // MAXTP follows the LP fractions for the configured objective.
        let targets: Vec<(Vec<u32>, f64)> = if policies.contains(&Policy::MaxTp) {
            let table = table.as_ref().expect("table materialised above");
            let schedule = solve(
                lp.as_ref().expect("LP prepared above"),
                self.objective,
                &mut lp_cache,
            )?;
            table
                .coschedules()
                .iter()
                .zip(&schedule.fractions)
                .filter(|(_, &x)| x > 1e-9)
                .map(|(s, &x)| (s.counts().to_vec(), x))
                .collect()
        } else {
            Vec::new()
        };

        let sizes = match self.job_size {
            JobSize::Deterministic => SizeDist::Deterministic,
            JobSize::Exponential => SizeDist::Exponential,
        };

        let mut rows = Vec::with_capacity(policies.len());
        for &policy in policies {
            let row = match policy {
                Policy::Optimal | Policy::Worst => {
                    let objective = if policy == Policy::Optimal {
                        Objective::MaxThroughput
                    } else {
                        Objective::MinThroughput
                    };
                    let schedule = solve(
                        lp.as_ref().expect("LP prepared above"),
                        objective,
                        &mut lp_cache,
                    )?;
                    PolicyReport {
                        policy,
                        throughput: schedule.throughput,
                        fractions: Some(schedule.fractions),
                        latency: None,
                        batch: None,
                    }
                }
                Policy::FcfsMarkov => {
                    let outcome =
                        fcfs_throughput_markov(table.as_ref().expect("table materialised"))?;
                    PolicyReport {
                        policy,
                        throughput: outcome.throughput,
                        fractions: Some(outcome.fractions),
                        latency: None,
                        batch: None,
                    }
                }
                Policy::FcfsEvent => {
                    let outcome = fcfs_throughput(
                        table.as_ref().expect("table materialised"),
                        self.fcfs_jobs,
                        self.job_size,
                        self.seed,
                    )?;
                    PolicyReport {
                        policy,
                        throughput: outcome.throughput,
                        fractions: Some(outcome.fractions),
                        latency: None,
                        batch: None,
                    }
                }
                Policy::Fcfs | Policy::MaxIt | Policy::Srpt | Policy::MaxTp => {
                    let mut sched = policy
                        .latency_scheduler(&targets)
                        .expect("latency policy has a scheduler");
                    match &self.latency {
                        Some(cfg) => {
                            let report = run_latency_experiment(model, sched.as_mut(), cfg)
                                .map_err(SessionError::Experiment)?;
                            PolicyReport {
                                policy,
                                throughput: report.throughput,
                                fractions: None,
                                latency: Some(report),
                                batch: None,
                            }
                        }
                        None => {
                            let cfg = BatchConfig {
                                jobs: self.fcfs_jobs,
                                sizes,
                                seed: self.seed,
                            };
                            let report = run_batch_experiment(model, sched.as_mut(), &cfg)
                                .map_err(SessionError::Experiment)?;
                            PolicyReport {
                                policy,
                                throughput: report.throughput,
                                fractions: None,
                                latency: None,
                                batch: Some(report),
                            }
                        }
                    }
                }
            };
            rows.push(row);
        }
        Ok(SessionReport { rows })
    }
}

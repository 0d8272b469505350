//! The builder-style `Session` entry point: one rate source, any set of
//! policies, uniform report rows.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use queueing::{
    run_batch_experiment, run_latency_experiment, BatchConfig, BatchReport, LatencyConfig,
    LatencyReport, SizeDist,
};
use symbiosis::{
    fcfs_throughput, fcfs_throughput_markov, JobSize, Objective, RateGrid, RateModel, Schedule,
    ScheduleLp, SymbiosisError, WorkloadRates,
};
use workloads::TableError;

use crate::policy::{Policy, PolicyKind};

/// Errors from configuring or running a [`Session`].
#[derive(Debug)]
pub enum SessionError {
    /// No `.rates(...)` was given.
    MissingRates,
    /// No policy was requested.
    NoPolicies,
    /// A latency policy was requested on a rate model that only answers
    /// full-coschedule queries.
    PartialUnsupported(Policy),
    /// Workload selection from a performance table failed.
    Table(TableError),
    /// A throughput analysis failed.
    Symbiosis(SymbiosisError),
    /// An event-driven experiment failed.
    Experiment(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::MissingRates => write!(f, "no rate source: call .rates(...)"),
            SessionError::NoPolicies => write!(f, "no policies requested"),
            SessionError::PartialUnsupported(p) => write!(
                f,
                "policy {p} needs partial-coschedule rates, but the model only \
                 answers full-coschedule queries"
            ),
            SessionError::Table(e) => write!(f, "table: {e}"),
            SessionError::Symbiosis(e) => write!(f, "analysis: {e}"),
            SessionError::Experiment(msg) => write!(f, "experiment: {msg}"),
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Table(e) => Some(e),
            SessionError::Symbiosis(e) => Some(e),
            _ => None,
        }
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

/// Everything a session applies to its rate source: the policies and the
/// settings of their experiments. A [`SessionBuilder`] and a
/// [`crate::SweepBuilder`] each hold one, and a distributed sweep ships it
/// to its workers, so every path evaluates a workload from the same value.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalSpec {
    /// Policies to evaluate, in request order.
    pub policies: Vec<Policy>,
    /// LP direction used to derive the MAXTP targets (default:
    /// [`Objective::MaxThroughput`], the paper's construction).
    pub objective: Objective,
    /// Jobs completed per event-driven experiment (FCFS-EVENT and the
    /// batch runs of the latency policies). Default 40 000.
    pub fcfs_jobs: u64,
    /// Job size distribution for the event-driven experiments (default:
    /// deterministic unit work, the paper's maximum-throughput setup).
    pub job_size: JobSize,
    /// Base RNG seed for the stochastic experiment legs.
    pub seed: u64,
    /// Poisson-arrival configuration for the latency policies; `None`
    /// runs them as a fixed batch of `fcfs_jobs` jobs instead.
    pub latency: Option<LatencyConfig>,
}

impl Default for EvalSpec {
    fn default() -> Self {
        EvalSpec {
            policies: Vec::new(),
            objective: Objective::MaxThroughput,
            fcfs_jobs: 40_000,
            job_size: JobSize::Deterministic,
            seed: 0x5EED,
            latency: None,
        }
    }
}

/// The configuration error both builders report before any work: an
/// empty policy list.
pub(crate) fn check_policies(spec: &EvalSpec) -> Result<(), SessionError> {
    if spec.policies.is_empty() {
        return Err(SessionError::NoPolicies);
    }
    Ok(())
}

/// The setters [`SessionBuilder`] and [`crate::SweepBuilder`] share: each
/// writes one field of the builder's [`EvalSpec`] (a sweep applies it to
/// every workload).
macro_rules! spec_setters {
    () => {
        /// Adds one policy to evaluate.
        pub fn policy(mut self, policy: $crate::Policy) -> Self {
            self.spec.policies.push(policy);
            self
        }

        /// Adds several policies to evaluate.
        pub fn policies<I: IntoIterator<Item = $crate::Policy>>(mut self, policies: I) -> Self {
            self.spec.policies.extend(policies);
            self
        }

        /// Sets [`crate::EvalSpec::objective`].
        pub fn objective(mut self, objective: ::symbiosis::Objective) -> Self {
            self.spec.objective = objective;
            self
        }

        /// Sets [`crate::EvalSpec::fcfs_jobs`].
        pub fn fcfs_jobs(mut self, jobs: u64) -> Self {
            self.spec.fcfs_jobs = jobs;
            self
        }

        /// Sets [`crate::EvalSpec::job_size`].
        pub fn job_size(mut self, sizes: ::symbiosis::JobSize) -> Self {
            self.spec.job_size = sizes;
            self
        }

        /// Sets [`crate::EvalSpec::seed`]. A sweep uses the same seed for
        /// every workload — exactly what a sequential loop of single
        /// sessions does.
        pub fn seed(mut self, seed: u64) -> Self {
            self.spec.seed = seed;
            self
        }

        /// Runs the latency policies through the Poisson-arrival
        /// discrete-event experiment with this configuration instead of
        /// the default fixed batch of [`crate::EvalSpec::fcfs_jobs`] jobs.
        pub fn latency(mut self, config: ::queueing::LatencyConfig) -> Self {
            self.spec.latency = Some(config);
            self
        }
    };
}
pub(crate) use spec_setters;

/// Builder for a [`Session`]. Obtained from [`Session::builder`].
pub struct SessionBuilder<'a> {
    rates: Option<&'a dyn RateModel>,
    spec: EvalSpec,
}

/// A configured experiment: a rate model plus the policies to evaluate on
/// it — the workspace's single entry point.
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
        SessionBuilder::from_spec(EvalSpec::default())
    }
}

impl SessionBuilder<'static> {
    /// A builder with no rate source yet that evaluates `spec`.
    pub(crate) fn from_spec(spec: EvalSpec) -> Self {
        SessionBuilder { rates: None, spec }
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
            rates: Some(model),
            ..self
        }
    }

    spec_setters!();

    /// Runs every requested policy and returns the uniform report.
    ///
    /// # Errors
    ///
    /// See [`SessionError`] — configuration errors are reported before any
    /// expensive work starts.
    pub fn run(self) -> Result<SessionReport, SessionError> {
        check_policies(&self.spec)?;
        let model = self.rates.ok_or(SessionError::MissingRates)?;
        self.spec.evaluate(model)
    }
}

impl EvalSpec {
    /// Evaluates every policy of the spec on `model`.
    fn evaluate(&self, model: &dyn RateModel) -> Result<SessionReport, SessionError> {
        let policies = &self.policies;
        // Reject latency policies on full-only models before any work.
        for p in policies {
            if p.kind() == PolicyKind::Latency && !model.supports_partial() {
                return Err(SessionError::PartialUnsupported(*p));
            }
        }

        // Evaluate the model once for every latency run: each run then
        // reads this grid instead of asking the model again, and a model
        // that breaks the rate contract fails here, before any run.
        let grid: Option<RateGrid> = if policies.iter().any(|p| p.kind() == PolicyKind::Latency) {
            Some(RateGrid::new(model)?)
        } else {
            None
        };

        // Materialise the full table once if any policy needs it. It comes
        // from the model itself, not the grid: a measured view's table sums
        // slot rates, which a grid's `count * per_job_rate` would not
        // reproduce bit for bit.
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
                    let grid = grid.as_ref().expect("grid built for latency policies");
                    let mut sched = policy
                        .latency_scheduler(&targets)
                        .expect("latency policy has a scheduler");
                    match &self.latency {
                        Some(cfg) => {
                            let report = run_latency_experiment(grid, sched.as_mut(), cfg)
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
                            let report = run_batch_experiment(grid, sched.as_mut(), &cfg)
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

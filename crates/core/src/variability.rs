//! Figure 1: per-job IPC, instantaneous-throughput and average-throughput
//! variability for one workload.

use crate::error::SymbiosisError;
use crate::fcfs::{fcfs_throughput, JobSize};
use crate::metrics::Spread;
use crate::optimal::{optimal_schedule, Objective};
use crate::rates::WorkloadRates;

/// Variability statistics of one workload (one point behind each Figure 1
/// bar).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadVariability {
    /// Per-job rate spread for each job type: how much one job's
    /// performance moves with its co-runners (relative spreads of WIPC are
    /// identical to those of raw IPC, since the solo rate divides out).
    pub per_job: Vec<Spread>,
    /// Spread of the instantaneous throughput `it(s)` over all coschedules.
    pub instantaneous: Spread,
    /// FCFS average throughput (the Figure 1 zero line).
    pub fcfs: f64,
    /// LP maximum average throughput.
    pub best: f64,
    /// LP minimum average throughput.
    pub worst: f64,
}

impl WorkloadVariability {
    /// Mean per-job variability (`(max-min)/mean`), the paper's "37%".
    pub fn per_job_variability(&self) -> f64 {
        mean(self.per_job.iter().map(Spread::variability))
    }

    /// Optimal gain over FCFS (the paper's headline "3%").
    pub fn optimal_gain(&self) -> f64 {
        self.best / self.fcfs - 1.0
    }

    /// Worst-scheduler loss versus FCFS (negative number).
    pub fn worst_loss(&self) -> f64 {
        self.worst / self.fcfs - 1.0
    }

    /// Average-throughput variability `(best - worst) / fcfs`.
    pub fn average_variability(&self) -> f64 {
        (self.best - self.worst) / self.fcfs
    }
}

fn mean<I: Iterator<Item = f64>>(iter: I) -> f64 {
    crate::metrics::mean(iter).unwrap_or(0.0)
}

/// Parameters for the FCFS leg of the variability analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FcfsParams {
    /// Jobs completed in the event-driven experiment.
    pub jobs: u64,
    /// Job size distribution.
    pub sizes: JobSize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FcfsParams {
    fn default() -> Self {
        FcfsParams {
            jobs: 40_000,
            sizes: JobSize::Deterministic,
            seed: 0x5EED,
        }
    }
}

/// Computes the Figure 1 statistics for one workload.
///
/// # Errors
///
/// Propagates [`SymbiosisError`] from the LP solves or the FCFS experiment.
///
/// # Examples
///
/// ```
/// use symbiosis::{analyze_variability, FcfsParams, WorkloadRates};
///
/// let rates = WorkloadRates::build(2, 2, |s| {
///     let boost = if s.heterogeneity() == 2 { 1.2 } else { 1.0 };
///     s.counts().iter().map(|&c| c as f64 * 0.5 * boost).collect()
/// })?;
/// let v = analyze_variability(&rates, FcfsParams::default())?;
/// assert!(v.best >= v.fcfs && v.fcfs >= v.worst - 1e-9);
/// # Ok::<(), symbiosis::SymbiosisError>(())
/// ```
pub fn analyze_variability(
    rates: &WorkloadRates,
    fcfs_params: FcfsParams,
) -> Result<WorkloadVariability, SymbiosisError> {
    let per_job = per_job_spreads(rates)?;
    let instantaneous = instantaneous_spread(rates);

    let best = optimal_schedule(rates, Objective::MaxThroughput)?.throughput;
    let worst = optimal_schedule(rates, Objective::MinThroughput)?.throughput;
    let fcfs =
        fcfs_throughput(rates, fcfs_params.jobs, fcfs_params.sizes, fcfs_params.seed)?.throughput;

    Ok(WorkloadVariability {
        per_job,
        instantaneous,
        fcfs,
        best,
        worst,
    })
}

/// Per-type spread of one job's rate over the coschedules containing the
/// type — the pure table statistics behind the Figure 1 "per-job IPC" bar.
/// Callers obtaining the throughput legs through a `Session` combine this
/// with the session's rows to assemble a [`WorkloadVariability`].
///
/// # Errors
///
/// Returns [`SymbiosisError::InvalidRates`] if some type appears in no
/// coschedule (impossible for tables built by `WorkloadRates::build`).
pub fn per_job_spreads(rates: &WorkloadRates) -> Result<Vec<Spread>, SymbiosisError> {
    let n = rates.num_types();
    let n_s = rates.coschedules().len();
    let mut per_job = Vec::with_capacity(n);
    for b in 0..n {
        let values = (0..n_s).filter_map(|si| {
            let c = rates.coschedules()[si].count(b);
            (c > 0).then(|| rates.per_job_rate(si, b))
        });
        let spread = Spread::from_values(values).ok_or_else(|| {
            SymbiosisError::InvalidRates(format!("type {b} appears in no coschedule"))
        })?;
        per_job.push(spread);
    }
    Ok(per_job)
}

/// Spread of the instantaneous throughput `it(s)` over all coschedules —
/// the Figure 1 "instantaneous TP" bar.
pub fn instantaneous_spread(rates: &WorkloadRates) -> Spread {
    let n_s = rates.coschedules().len();
    Spread::from_values((0..n_s).map(|si| rates.instantaneous_throughput(si)))
        .expect("at least one coschedule")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn symbiotic_rates() -> WorkloadRates {
        WorkloadRates::build(4, 4, |s| {
            let per_job = [1.0, 0.8, 0.5, 0.3];
            let het = s.heterogeneity() as f64;
            s.counts()
                .iter()
                .zip(per_job)
                .map(|(&c, r)| c as f64 * r * (0.55 + 0.12 * het))
                .collect()
        })
        .unwrap()
    }

    #[test]
    fn ordering_worst_fcfs_best_holds() {
        let v = analyze_variability(&symbiotic_rates(), FcfsParams::default()).unwrap();
        assert!(v.worst <= v.fcfs + 1e-6);
        assert!(v.fcfs <= v.best + 1e-6);
        assert!(v.optimal_gain() >= -1e-9);
        assert!(v.worst_loss() <= 1e-9);
    }

    #[test]
    fn per_job_spread_reflects_coschedule_sensitivity() {
        let v = analyze_variability(&symbiotic_rates(), FcfsParams::default()).unwrap();
        // Het ranges 1..=4, so per-job rates vary by design.
        assert!(v.per_job_variability() > 0.1);
    }

    #[test]
    fn insensitive_workload_has_zero_average_variability() {
        let rates = WorkloadRates::build(3, 3, |s| {
            s.counts().iter().map(|&c| c as f64 * 0.4).collect()
        })
        .unwrap();
        let v = analyze_variability(&rates, FcfsParams::default()).unwrap();
        assert!(v.per_job_variability() < 1e-9);
        assert!(v.average_variability() < 1e-6);
    }

    #[test]
    fn paper_key_claim_shape_average_well_below_instantaneous() {
        // The paper's central observation: average-throughput variability is
        // far below per-coschedule instantaneous-throughput variability.
        let v = analyze_variability(&symbiotic_rates(), FcfsParams::default()).unwrap();
        assert!(
            v.average_variability() < v.instantaneous.variability(),
            "avg {} must be below instantaneous {}",
            v.average_variability(),
            v.instantaneous.variability()
        );
    }
}

//! Section V-D counterfactual: equalising per-job rates inside the fully
//! heterogeneous coschedule (same instantaneous throughput) lets the
//! optimal scheduler select it nearly all the time on the SMT config.

use std::fmt;

use session::Policy;
use symbiosis::{rebalanced_heterogeneous, FairnessExperiment, WorkloadRates};

use crate::experiments::ExperimentError;
use crate::study::{Chip, Study, StudyConfig};
use crate::{mean, pct};

/// Averaged before/after numbers for the counterfactual.
#[derive(Debug, Clone, PartialEq)]
pub struct Fairness {
    /// Mean optimal throughput gain from rebalancing.
    pub optimal_gain: f64,
    /// Mean time fraction of the heterogeneous coschedule before.
    pub fraction_before: f64,
    /// Mean time fraction after.
    pub fraction_after: f64,
    /// Mean |relative FCFS change|.
    pub fcfs_shift: f64,
    /// Mean |relative worst-scheduler change|.
    pub worst_shift: f64,
    /// Workloads analysed.
    pub workloads: usize,
}

/// The Section V-D counterfactual expressed as two `Session` runs: the
/// original and the rebalanced table each evaluated under the optimal,
/// worst and event-FCFS policies. Produces exactly the numbers the
/// pre-`Session` `fairness_experiment` free function produced — the parity
/// suite pins that equivalence bitwise.
///
/// # Errors
///
/// Propagates session/analysis failures as strings; requires `N == K` so
/// the fully heterogeneous coschedule exists.
pub fn counterfactual(
    rates: &WorkloadRates,
    config: &StudyConfig,
) -> Result<FairnessExperiment, String> {
    let (si, rebalanced) = rebalanced_heterogeneous(rates).map_err(|e| e.to_string())?;

    let evaluate = |table: &WorkloadRates| {
        config
            .session()
            .rates(table)
            .policies([Policy::Optimal, Policy::Worst, Policy::FcfsEvent])
            .run()
            .map_err(|e| e.to_string())
    };
    let before = evaluate(rates)?;
    let after = evaluate(&rebalanced)?;
    let fraction = |report: &session::SessionReport| {
        report
            .row(Policy::Optimal)
            .expect("requested")
            .fractions
            .as_ref()
            .expect("LP rows carry fractions")[si]
    };
    Ok(FairnessExperiment {
        coschedule: si,
        optimal_before: before.throughput(Policy::Optimal).expect("requested"),
        optimal_after: after.throughput(Policy::Optimal).expect("requested"),
        fraction_before: fraction(&before),
        fraction_after: fraction(&after),
        fcfs_before: before.throughput(Policy::FcfsEvent).expect("requested"),
        fcfs_after: after.throughput(Policy::FcfsEvent).expect("requested"),
        worst_before: before.throughput(Policy::Worst).expect("requested"),
        worst_after: after.throughput(Policy::Worst).expect("requested"),
    })
}

/// Runs the fairness counterfactual over the study workloads (SMT): a
/// [`Study::sweep`] fans [`counterfactual`] out over the shared worker
/// pool (the rebalanced-table leg is not a policy row, so it rides the
/// sweep's custom map).
///
/// # Errors
///
/// The sweep's [`session::SweepError`].
pub fn run(study: &Study) -> Result<Fairness, ExperimentError> {
    let experiments: Vec<_> = study
        .sweep(Chip::Smt)
        .map(|item| counterfactual(&item.rates()?, study.config()))?;
    let gains: Vec<f64> = experiments
        .iter()
        .map(|e| e.optimal_after / e.optimal_before - 1.0)
        .collect();
    let before: Vec<f64> = experiments.iter().map(|e| e.fraction_before).collect();
    let after: Vec<f64> = experiments.iter().map(|e| e.fraction_after).collect();
    let fcfs: Vec<f64> = experiments
        .iter()
        .map(|e| (e.fcfs_after / e.fcfs_before - 1.0).abs())
        .collect();
    let worst: Vec<f64> = experiments
        .iter()
        .map(|e| (e.worst_after / e.worst_before - 1.0).abs())
        .collect();
    Ok(Fairness {
        optimal_gain: mean(&gains),
        fraction_before: mean(&before),
        fraction_after: mean(&after),
        fcfs_shift: mean(&fcfs),
        worst_shift: mean(&worst),
        workloads: experiments.len(),
    })
}

impl fmt::Display for Fairness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Section V-D: equal-rate counterfactual on the fully heterogeneous\n\
             coschedule (SMT, {} workloads)",
            self.workloads
        )?;
        writeln!(
            f,
            "mean optimal-throughput gain:        {}",
            pct(self.optimal_gain)
        )?;
        writeln!(
            f,
            "heterogeneous coschedule fraction:   {:.0}% -> {:.0}%",
            100.0 * self.fraction_before,
            100.0 * self.fraction_after
        )?;
        writeln!(
            f,
            "mean |FCFS shift|:                   {}",
            pct(self.fcfs_shift)
        )?;
        writeln!(
            f,
            "mean |worst shift|:                  {}",
            pct(self.worst_shift)
        )?;
        writeln!(
            f,
            "\npaper: after equalising, the optimal scheduler selects the heterogeneous\n\
             coschedule most of the time and average throughput rises substantially,\n\
             while FCFS and worst remain (nearly) unchanged"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::fast_study;

    #[test]
    fn rebalancing_helps_optimal_but_not_others() {
        let res = run(fast_study()).unwrap();
        assert!(res.optimal_gain >= -1e-6, "gain {}", res.optimal_gain);
        assert!(
            res.fraction_after >= res.fraction_before - 1e-6,
            "fraction must not fall"
        );
        assert!(res.worst_shift < 1e-6, "worst scheduler unaffected");
        assert!(
            res.fcfs_shift < 0.06,
            "FCFS barely moves: {}",
            res.fcfs_shift
        );
    }
}

//! Section VII: using optimal throughput as a metric in a
//! microarchitecture study — comparing SMT fetch policies (ICOUNT vs
//! round-robin) and ROB partitioning (dynamic vs static) under both the
//! FCFS and the optimal scheduler.

use std::fmt;

use session::Policy as SessionPolicy;
use simproc::{FetchPolicy, MachineConfig, RobPartitioning};
use workloads::PerfTable;

use crate::experiments::ExperimentError;
use crate::study::{Study, StudyConfig};
use crate::{mean, pct};

/// One SMT front-end/back-end policy combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Policy {
    /// Fetch arbitration.
    pub fetch: FetchPolicy,
    /// ROB sharing.
    pub rob: RobPartitioning,
}

impl Policy {
    /// The four combinations studied by the paper, RR/static first.
    pub const ALL: [Policy; 4] = [
        Policy {
            fetch: FetchPolicy::RoundRobin,
            rob: RobPartitioning::Static,
        },
        Policy {
            fetch: FetchPolicy::RoundRobin,
            rob: RobPartitioning::Dynamic,
        },
        Policy {
            fetch: FetchPolicy::Icount,
            rob: RobPartitioning::Static,
        },
        Policy {
            fetch: FetchPolicy::Icount,
            rob: RobPartitioning::Dynamic,
        },
    ];

    /// Short label, e.g. `ICOUNT/dyn`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}",
            match self.fetch {
                FetchPolicy::Icount => "ICOUNT",
                FetchPolicy::RoundRobin => "RR",
            },
            match self.rob {
                RobPartitioning::Dynamic => "dyn",
                RobPartitioning::Static => "static",
            }
        )
    }
}

/// Per-policy average throughputs.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyResult {
    /// The policy.
    pub policy: Policy,
    /// Mean FCFS throughput over workloads.
    pub fcfs: f64,
    /// Mean optimal throughput over workloads.
    pub optimal: f64,
}

/// The full Section VII study.
#[derive(Debug, Clone, PartialEq)]
pub struct Sec7 {
    /// One row per policy, in [`Policy::ALL`] order.
    pub rows: Vec<PolicyResult>,
    /// Fraction of workloads whose best policy changes when switching the
    /// scheduler from FCFS to optimal (the paper: ~10%).
    pub ranking_changes: f64,
    /// Mean optimal-over-FCFS gain for the best policy (scheduling
    /// headroom to compare against the microarchitectural gain).
    pub scheduling_gain: f64,
    /// Workloads analysed.
    pub workloads: usize,
}

/// FCFS and optimal average throughput of one workload, obtained through
/// a single-workload [`session::Session::sweep`] over the table's measured
/// rate model. Matches the old `fcfs_throughput` + `optimal_schedule` pair
/// bitwise (pinned by the parity suite).
///
/// # Errors
///
/// The sweep's [`session::SweepError`].
pub fn workload_throughputs(
    table: &PerfTable,
    workload: &[usize],
    config: &StudyConfig,
) -> Result<(f64, f64), ExperimentError> {
    let report = config
        .sweep(table, vec![workload.to_vec()])
        .policies([SessionPolicy::FcfsEvent, SessionPolicy::Optimal])
        .run()?;
    Ok((
        report.throughputs(SessionPolicy::FcfsEvent)[0],
        report.throughputs(SessionPolicy::Optimal)[0],
    ))
}

/// Runs the Section VII study. Builds one performance table per policy
/// (the study's dominant cost — cached through the table store when the
/// config names one), then sweeps the workloads on each.
///
/// # Errors
///
/// The table build's [`crate::StudyError`] or the sweep's
/// [`session::SweepError`].
pub fn run(study: &Study) -> Result<Sec7, ExperimentError> {
    let cfg = study.config();
    let workloads = study.workloads();

    // Per policy: build the table, then sweep FCFS + optimal over it.
    let mut per_policy_fcfs: Vec<Vec<f64>> = Vec::new();
    let mut per_policy_opt: Vec<Vec<f64>> = Vec::new();
    for policy in Policy::ALL {
        let mc = MachineConfig::smt4()
            .with_fetch_policy(policy.fetch)
            .with_rob_partitioning(policy.rob);
        let table = cfg.build_table(mc)?;
        let sweep = cfg
            .sweep(&table, workloads.clone())
            .policies([SessionPolicy::FcfsEvent, SessionPolicy::Optimal])
            .run()?;
        per_policy_fcfs.push(sweep.throughputs(SessionPolicy::FcfsEvent));
        per_policy_opt.push(sweep.throughputs(SessionPolicy::Optimal));
    }

    let rows: Vec<PolicyResult> = Policy::ALL
        .iter()
        .enumerate()
        .map(|(i, &policy)| PolicyResult {
            policy,
            fcfs: mean(&per_policy_fcfs[i]),
            optimal: mean(&per_policy_opt[i]),
        })
        .collect();

    // Per workload: does the argmax policy change between schedulers?
    let argmax = |values: &[f64]| -> usize {
        values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty")
            .0
    };
    let mut changes = 0usize;
    let mut gains = Vec::new();
    for wi in 0..workloads.len() {
        let fcfs_per_policy: Vec<f64> = (0..4).map(|p| per_policy_fcfs[p][wi]).collect();
        let opt_per_policy: Vec<f64> = (0..4).map(|p| per_policy_opt[p][wi]).collect();
        let best_fcfs = argmax(&fcfs_per_policy);
        let best_opt = argmax(&opt_per_policy);
        if best_fcfs != best_opt {
            changes += 1;
        }
        gains.push(opt_per_policy[best_opt] / fcfs_per_policy[best_opt] - 1.0);
    }

    Ok(Sec7 {
        rows,
        ranking_changes: changes as f64 / workloads.len() as f64,
        scheduling_gain: mean(&gains),
        workloads: workloads.len(),
    })
}

impl fmt::Display for Sec7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Section VII: SMT fetch/ROB policies under FCFS vs optimal scheduling\n\
             ({} workloads)",
            self.workloads
        )?;
        writeln!(
            f,
            "{:<14} {:>12} {:>14}",
            "policy", "FCFS avg TP", "optimal avg TP"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<14} {:>12.3} {:>14.3}",
                r.policy.label(),
                r.fcfs,
                r.optimal
            )?;
        }
        let rr_static = &self.rows[0];
        let icount_dyn = &self.rows[3];
        writeln!(
            f,
            "\nICOUNT/dyn over RR/static: {} (FCFS), {} (optimal)",
            pct(icount_dyn.fcfs / rr_static.fcfs - 1.0),
            pct(icount_dyn.optimal / rr_static.optimal - 1.0)
        )?;
        writeln!(
            f,
            "workloads whose best policy flips with the scheduler: {:.0}%",
            100.0 * self.ranking_changes
        )?;
        writeln!(
            f,
            "mean scheduling headroom (optimal over FCFS, best policy): {}",
            pct(self.scheduling_gain)
        )?;
        writeln!(
            f,
            "\npaper: ICOUNT+dynamic wins under both schedulers (+1.7% FCFS / +1.5%\n\
             optimal over RR+static); ~10% of workloads flip their preferred policy;\n\
             scheduling headroom (3.3%) is comparable to the microarchitectural gain"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::sampled_fast_study;

    #[test]
    fn policy_study_produces_positive_throughputs() {
        let res = run(sampled_fast_study()).unwrap();
        assert_eq!(res.rows.len(), 4);
        for r in &res.rows {
            assert!(r.fcfs > 0.0);
            assert!(
                r.optimal >= r.fcfs - 1e-6,
                "{}: optimal {} must dominate FCFS {}",
                r.policy.label(),
                r.optimal,
                r.fcfs
            );
        }
        assert!((0.0..=1.0).contains(&res.ranking_changes));
        assert!(res.scheduling_gain >= -1e-9);
    }

    #[test]
    fn policy_labels_are_distinct() {
        let labels: Vec<String> = Policy::ALL.iter().map(Policy::label).collect();
        let mut unique = labels.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 4, "{labels:?}");
    }
}

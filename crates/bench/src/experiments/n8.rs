//! Section V-B sensitivity: with N = 8 job types the optimal scheduler's
//! gain over FCFS stays small (the paper reports 4.5% on the SMT config,
//! versus 3% for N = 4).

use std::fmt;

use session::Policy;
use symbiosis::enumerate_workloads;

use crate::experiments::ExperimentError;
use crate::study::{Chip, Study};
use crate::{max, mean, pct};

/// Result of the N = 8 sensitivity experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct N8 {
    /// Mean optimal gain over FCFS for N = 4 (baseline).
    pub gain_n4: f64,
    /// Mean optimal gain over FCFS for N = 8.
    pub gain_n8: f64,
    /// Maximum N = 8 gain observed.
    pub max_gain_n8: f64,
    /// Workloads analysed at each N.
    pub workloads: (usize, usize),
}

fn mean_gain(study: &Study, n: usize) -> Result<(f64, f64, usize), ExperimentError> {
    let cfg = study.config();
    let workloads = cfg.sample_workloads(enumerate_workloads(12, n));
    let sweep = cfg.run_sweep(
        cfg.sweep(study.table(Chip::Smt), workloads)
            .policies([Policy::Optimal, Policy::FcfsEvent]),
    )?;
    let gains = sweep.gains(Policy::Optimal, Policy::FcfsEvent);
    Ok((mean(&gains), max(&gains), sweep.len()))
}

/// Runs the N = 8 sensitivity on the SMT configuration.
///
/// # Errors
///
/// The sweep's [`session::SweepError`] or [`dist::DistError`].
pub fn run(study: &Study) -> Result<N8, ExperimentError> {
    let (gain_n4, _, w4) = mean_gain(study, 4)?;
    let (gain_n8, max_gain_n8, w8) = mean_gain(study, 8)?;
    Ok(N8 {
        gain_n4,
        gain_n8,
        max_gain_n8,
        workloads: (w4, w8),
    })
}

impl fmt::Display for N8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Section V-B: sensitivity to the number of job types (SMT)"
        )?;
        writeln!(
            f,
            "N = 4: mean optimal gain over FCFS {} ({} workloads)",
            pct(self.gain_n4),
            self.workloads.0
        )?;
        writeln!(
            f,
            "N = 8: mean optimal gain over FCFS {} (max {}, {} workloads)",
            pct(self.gain_n8),
            pct(self.max_gain_n8),
            self.workloads.1
        )?;
        writeln!(
            f,
            "\npaper: increasing N to 8 lifts the average gain only to 4.5%"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::sampled_fast_study;

    #[test]
    fn more_types_do_not_unlock_large_gains() {
        let res = run(sampled_fast_study()).unwrap();
        assert!(res.gain_n4 >= -1e-9);
        assert!(res.gain_n8 >= -1e-9);
        // The paper's point: even with twice the types, gains stay small.
        assert!(
            res.gain_n8 < 0.15,
            "N=8 gain {} should remain modest",
            res.gain_n8
        );
        // More types give the scheduler (weakly) more freedom.
        assert!(res.gain_n8 > res.gain_n4 - 0.02);
    }
}

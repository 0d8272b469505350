//! Ablation of the unit of work (Section III-B): the paper reports results
//! in weighted instructions but states that "our qualitative conclusions
//! also hold for the instruction as unit of work". This experiment checks
//! that claim for the reproduction: the optimal-over-FCFS gain stays small
//! under both units, and per-workload gains correlate strongly.

use std::fmt;

use session::Policy;
use workloads::WorkUnit;

use crate::study::{Chip, Study};
use crate::{max, mean, pct, pearson};

/// Per-unit summary statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitSummary {
    /// Mean optimal gain over FCFS.
    pub mean_gain: f64,
    /// Maximum gain over workloads.
    pub max_gain: f64,
}

/// The full ablation result (SMT configuration).
#[derive(Debug, Clone, PartialEq)]
pub struct UnitAblation {
    /// Weighted-instruction statistics (the paper's reported unit).
    pub weighted: UnitSummary,
    /// Plain-instruction statistics.
    pub plain: UnitSummary,
    /// Pearson correlation of per-workload gains across the two units.
    pub gain_correlation: Option<f64>,
    /// Workloads analysed.
    pub workloads: usize,
}

/// Runs the work-unit ablation on the SMT configuration.
///
/// # Errors
///
/// Propagates analysis failures as strings.
pub fn run(study: &Study) -> Result<UnitAblation, String> {
    let gains_for = |unit: WorkUnit| -> Result<Vec<f64>, String> {
        let sweep = study.config().run_sweep(
            study
                .sweep(Chip::Smt)
                .unit(unit)
                .policies([Policy::Optimal, Policy::FcfsEvent]),
        )?;
        Ok(sweep.gains(Policy::Optimal, Policy::FcfsEvent))
    };
    let weighted = gains_for(WorkUnit::Weighted)?;
    let plain = gains_for(WorkUnit::Plain)?;
    Ok(UnitAblation {
        weighted: UnitSummary {
            mean_gain: mean(&weighted),
            max_gain: max(&weighted),
        },
        plain: UnitSummary {
            mean_gain: mean(&plain),
            max_gain: max(&plain),
        },
        gain_correlation: pearson(&weighted, &plain),
        workloads: weighted.len(),
    })
}

impl fmt::Display for UnitAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Unit-of-work ablation (SMT, {} workloads): optimal gain over FCFS",
            self.workloads
        )?;
        writeln!(f, "{:<22} {:>10} {:>10}", "unit", "mean gain", "max gain")?;
        writeln!(
            f,
            "{:<22} {:>10} {:>10}",
            "weighted instruction",
            pct(self.weighted.mean_gain),
            pct(self.weighted.max_gain)
        )?;
        writeln!(
            f,
            "{:<22} {:>10} {:>10}",
            "plain instruction",
            pct(self.plain.mean_gain),
            pct(self.plain.max_gain)
        )?;
        writeln!(
            f,
            "per-workload gain correlation across units: {:.2}",
            self.gain_correlation.unwrap_or(f64::NAN)
        )?;
        writeln!(
            f,
            "\npaper (Section III-B): \"we checked that our qualitative conclusions\n\
             also hold for the instruction as unit of work\""
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::fast_study;

    #[test]
    fn conclusions_hold_under_both_units() {
        let res = run(fast_study()).unwrap();
        // Small gains under both units.
        assert!(res.weighted.mean_gain >= -1e-9);
        assert!(res.plain.mean_gain >= -1e-9);
        assert!(res.weighted.mean_gain < 0.2, "{}", res.weighted.mean_gain);
        assert!(res.plain.mean_gain < 0.2, "{}", res.plain.mean_gain);
        // Gains move together across workloads.
        if let Some(r) = res.gain_correlation {
            assert!(r > 0.5, "units should agree on which workloads gain: {r}");
        }
    }
}

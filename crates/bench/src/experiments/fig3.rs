//! Figure 3: throughput variability against the linear-bottleneck
//! least-squares error, coloured by per-type performance difference.

use std::fmt;

use session::Policy;
use symbiosis::{fit_linear_bottleneck, per_type_rate_difference};

use crate::experiments::ExperimentError;
use crate::study::{Chip, Study};
use crate::{mean, pearson};

/// One workload's point in the Figure 3 scatter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Linear-bottleneck mean squared error (X axis).
    pub bottleneck_mse: f64,
    /// Optimal / worst throughput ratio (Y axis).
    pub optimal_vs_worst: f64,
    /// Per-type mean WIPC difference (colour axis).
    pub rate_difference: f64,
}

/// Figure 3 for one chip.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipFig3 {
    /// Which configuration.
    pub chip: Chip,
    /// One point per workload.
    pub points: Vec<Point>,
    /// Pearson correlation between MSE and throughput ratio, all points.
    pub correlation_all: Option<f64>,
    /// Same, restricted to the half of workloads with the smallest
    /// per-type rate difference (the paper: these correlate much better).
    pub correlation_similar_jobs: Option<f64>,
}

/// The full Figure 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3 {
    /// SMT and quad-core scatters.
    pub chips: Vec<ChipFig3>,
}

/// Runs the Figure 3 analysis: one [`Study::sweep`] per chip. The
/// bottleneck fit and the rate difference are table statistics, not policy
/// rows, so the sweep's custom map carries them — with the LP bounds as
/// policy rows through the per-item [`session::SweepItem::session`].
///
/// # Errors
///
/// The sweep's [`session::SweepError`].
pub fn run(study: &Study) -> Result<Fig3, ExperimentError> {
    let mut chips = Vec::new();
    for chip in Chip::ALL {
        let points: Vec<Point> = study.sweep(chip).map(|item| {
            let rates = item.rates()?;
            let fit = fit_linear_bottleneck(&rates).map_err(|e| e.to_string())?;
            let report = item
                .session()
                .rates(&rates)
                .policies([Policy::Worst, Policy::Optimal])
                .run()
                .map_err(|e| e.to_string())?;
            let worst = report.throughput(Policy::Worst).expect("requested");
            let best = report.throughput(Policy::Optimal).expect("requested");
            Ok(Point {
                bottleneck_mse: fit.mse,
                optimal_vs_worst: best / worst,
                rate_difference: per_type_rate_difference(&rates),
            })
        })?;
        let xs: Vec<f64> = points.iter().map(|p| p.bottleneck_mse).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.optimal_vs_worst).collect();
        let correlation_all = pearson(&xs, &ys);
        // Median split on rate difference.
        let mut diffs: Vec<f64> = points.iter().map(|p| p.rate_difference).collect();
        diffs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = diffs[diffs.len() / 2];
        let similar: Vec<&Point> = points
            .iter()
            .filter(|p| p.rate_difference <= median)
            .collect();
        let sx: Vec<f64> = similar.iter().map(|p| p.bottleneck_mse).collect();
        let sy: Vec<f64> = similar.iter().map(|p| p.optimal_vs_worst).collect();
        chips.push(ChipFig3 {
            chip,
            points,
            correlation_all,
            correlation_similar_jobs: pearson(&sx, &sy),
        });
    }
    Ok(Fig3 { chips })
}

impl fmt::Display for Fig3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 3: throughput variability vs linear-bottleneck LSQ error"
        )?;
        for c in &self.chips {
            writeln!(
                f,
                "\n== {} configuration ({} workloads) ==",
                c.chip.label(),
                c.points.len()
            )?;
            writeln!(
                f,
                "correlation(mse, opt/worst): all {:.2}, similar-speed jobs {:.2}",
                c.correlation_all.unwrap_or(f64::NAN),
                c.correlation_similar_jobs.unwrap_or(f64::NAN)
            )?;
            writeln!(
                f,
                "{:>12} {:>14} {:>12}",
                "lsq error", "optimal/worst", "rate diff"
            )?;
            for p in c.points.iter().take(12) {
                writeln!(
                    f,
                    "{:>12.5} {:>14.4} {:>12.4}",
                    p.bottleneck_mse, p.optimal_vs_worst, p.rate_difference
                )?;
            }
            if c.points.len() > 12 {
                writeln!(f, "... ({} more points)", c.points.len() - 12)?;
            }
            let mse_mean = mean(
                &c.points
                    .iter()
                    .map(|p| p.bottleneck_mse)
                    .collect::<Vec<_>>(),
            );
            writeln!(f, "mean lsq error {mse_mean:.5}")?;
        }
        writeln!(
            f,
            "\npaper: small-error workloads have small throughput variability;\n\
             high per-type rate differences weaken the correlation"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::fast_study;

    #[test]
    fn bottleneck_error_tracks_variability() {
        let fig = run(fast_study()).unwrap();
        for c in &fig.chips {
            for p in &c.points {
                assert!(p.bottleneck_mse >= 0.0);
                assert!(p.optimal_vs_worst >= 1.0 - 1e-6);
                assert!(p.rate_difference >= 0.0);
            }
            // The paper's qualitative claim: a (near-)zero bottleneck error
            // implies little room for scheduling.
            let near_zero: Vec<&Point> = c
                .points
                .iter()
                .filter(|p| p.bottleneck_mse < 1e-3)
                .collect();
            for p in near_zero {
                assert!(
                    p.optimal_vs_worst < 1.2,
                    "{}: near-bottleneck workload with ratio {}",
                    c.chip.label(),
                    p.optimal_vs_worst
                );
            }
            // Correlation should be positive.
            if let Some(r) = c.correlation_all {
                assert!(r > 0.0, "{}: correlation {}", c.chip.label(), r);
            }
        }
    }
}

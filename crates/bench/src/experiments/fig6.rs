//! Figure 6: achieved throughput in a saturated system (arrival rate above
//! the maximum throughput) for MAXIT, SRPT and MAXTP, relative to FCFS,
//! together with the theoretical LP bounds.

use std::fmt;

use session::Policy;

use crate::experiments::ExperimentError;
use crate::mean;
use crate::study::{Chip, Study};

/// One workload's saturated-throughput measurements, relative to FCFS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// LP maximum over FCFS achieved throughput.
    pub lp_max: f64,
    /// LP minimum over FCFS achieved throughput.
    pub lp_min: f64,
    /// MAXIT over FCFS.
    pub maxit: f64,
    /// SRPT over FCFS.
    pub srpt: f64,
    /// MAXTP over FCFS.
    pub maxtp: f64,
}

/// The full Figure 6 (SMT configuration, points ordered by rising LP max).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6 {
    /// One point per workload.
    pub points: Vec<Point>,
    /// Mean over workloads of each relative throughput.
    pub means: Point,
}

/// Runs the Figure 6 experiment on the SMT configuration.
///
/// One standard [`Study::sweep`]: the LP bounds and all four latency
/// policies are ordinary policy rows. Without a
/// [`session::SweepBuilder::latency`] configuration the latency rows run
/// the paper's maximum-throughput experiment — a fixed batch of equal
/// deterministic jobs on a fully loaded machine, run to completion, so
/// schedulers pay back any jobs they postponed.
///
/// # Errors
///
/// The sweep's [`session::SweepError`] or [`dist::DistError`].
pub fn run(study: &Study) -> Result<Fig6, ExperimentError> {
    let cfg = study.config();
    let measured_jobs = (cfg.fcfs_jobs / 2).clamp(2_000, 20_000);

    let sweep = cfg.run_sweep(
        study
            .sweep(Chip::Smt)
            .policies([Policy::Worst, Policy::Optimal])
            .policies(Policy::LATENCY)
            .fcfs_jobs(measured_jobs)
            .seed(cfg.seed ^ 0xF16),
    )?;
    let mut points: Vec<Point> = sweep
        .rows
        .iter()
        .map(|row| {
            let tp = |p: Policy| row.report.throughput(p).expect("requested");
            let fcfs = tp(Policy::Fcfs);
            Point {
                lp_max: tp(Policy::Optimal) / fcfs,
                lp_min: tp(Policy::Worst) / fcfs,
                maxit: tp(Policy::MaxIt) / fcfs,
                srpt: tp(Policy::Srpt) / fcfs,
                maxtp: tp(Policy::MaxTp) / fcfs,
            }
        })
        .collect();
    points.sort_by(|a, b| a.lp_max.partial_cmp(&b.lp_max).expect("finite"));
    let means = Point {
        lp_max: mean(&points.iter().map(|p| p.lp_max).collect::<Vec<_>>()),
        lp_min: mean(&points.iter().map(|p| p.lp_min).collect::<Vec<_>>()),
        maxit: mean(&points.iter().map(|p| p.maxit).collect::<Vec<_>>()),
        srpt: mean(&points.iter().map(|p| p.srpt).collect::<Vec<_>>()),
        maxtp: mean(&points.iter().map(|p| p.maxtp).collect::<Vec<_>>()),
    };
    Ok(Fig6 { points, means })
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 6: saturated throughput relative to FCFS (SMT, {} workloads,\n\
             ordered by increasing LP maximum)",
            self.points.len()
        )?;
        writeln!(
            f,
            "{:>8} {:>8} {:>8} {:>8} {:>8}",
            "lp max", "lp min", "MAXIT", "SRPT", "MAXTP"
        )?;
        for p in self.points.iter().take(15) {
            writeln!(
                f,
                "{:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                p.lp_max, p.lp_min, p.maxit, p.srpt, p.maxtp
            )?;
        }
        if self.points.len() > 15 {
            writeln!(f, "... ({} more points)", self.points.len() - 15)?;
        }
        let m = &self.means;
        writeln!(
            f,
            "\nmeans: lp max {:.3}, lp min {:.3}, MAXIT {:.3}, SRPT {:.3}, MAXTP {:.3}",
            m.lp_max, m.lp_min, m.maxit, m.srpt, m.maxtp
        )?;
        writeln!(
            f,
            "\npaper: SRPT matches FCFS; MAXIT slightly below FCFS; MAXTP tracks the\n\
             LP maximum almost exactly"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::sampled_fast_study;

    #[test]
    fn fig6_schedulers_respect_lp_bounds() {
        let fig = run(sampled_fast_study()).unwrap();
        for p in &fig.points {
            // Every achieved throughput lies within the theoretical bounds
            // (small tolerance for finite-run noise).
            // Batch semantics force every scheduler to execute the whole
            // workload, so the LP bounds apply up to finite-batch noise
            // (the realised type mix fluctuates around equal work).
            for v in [1.0, p.maxit, p.srpt, p.maxtp] {
                assert!(
                    v <= p.lp_max + 0.06,
                    "achieved {v} above LP max {}",
                    p.lp_max
                );
                assert!(
                    v >= p.lp_min - 0.06,
                    "achieved {v} below LP min {}",
                    p.lp_min
                );
            }
        }
        // MAXTP approaches the LP maximum on average; SRPT stays near FCFS.
        assert!(
            fig.means.lp_max - fig.means.maxtp < 0.08,
            "MAXTP mean {} should track LP max {}",
            fig.means.maxtp,
            fig.means.lp_max
        );
        // With batch semantics SRPT cannot starve its way ahead: it stays
        // in FCFS's neighbourhood (the paper: identical max throughput).
        assert!(
            (fig.means.srpt - 1.0).abs() < 0.06,
            "SRPT mean {} should stay near FCFS",
            fig.means.srpt
        );
    }

    #[test]
    fn points_sorted_by_lp_max() {
        let fig = run(sampled_fast_study()).unwrap();
        for pair in fig.points.windows(2) {
            assert!(pair[0].lp_max <= pair[1].lp_max + 1e-12);
        }
    }
}

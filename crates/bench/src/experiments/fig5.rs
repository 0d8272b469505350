//! Figure 5: turnaround time, processor utilisation and empty fraction for
//! the FCFS, MAXIT, SRPT and MAXTP schedulers at loads 0.8 / 0.9 / 0.95 of
//! the FCFS maximum throughput (SMT configuration).

use std::fmt;

use queueing::{LatencyConfig, SizeDist};
use session::Policy;

use crate::experiments::ExperimentError;
use crate::mean;
use crate::study::{Chip, Study};

/// The four policies of Section VI, in paper order (registry entries).
pub const POLICIES: [Policy; 4] = Policy::LATENCY;

/// Averaged metrics for one (policy, load) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Mean turnaround normalised to FCFS at the same load.
    pub turnaround_vs_fcfs: f64,
    /// Mean busy contexts.
    pub utilization: f64,
    /// Fraction of time the system is empty.
    pub empty_fraction: f64,
}

/// The full Figure 5 grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5 {
    /// Load levels relative to the FCFS maximum throughput.
    pub loads: Vec<f64>,
    /// `cells[load][policy]`, policies in [`POLICIES`] order.
    pub cells: Vec<Vec<Cell>>,
    /// Workloads averaged.
    pub workloads: usize,
}

/// Per-workload raw measurements for one load level.
struct WorkloadRun {
    /// Per policy: (turnaround, utilization, empty fraction).
    per_policy: Vec<(f64, f64, f64)>,
}

/// Runs the Figure 5 experiment on the SMT configuration.
///
/// Each load level is one [`Study::sweep`]: the per-workload leg first
/// measures the FCFS maximum throughput (an event-policy session row),
/// derives the load-dependent arrival rate from it, then runs all four
/// latency policies through a second session with that
/// [`LatencyConfig`] — both sessions come preconfigured from the sweep via
/// [`session::SweepItem::session`].
///
/// # Errors
///
/// The sweep's [`session::SweepError`].
pub fn run(study: &Study) -> Result<Fig5, ExperimentError> {
    let loads = vec![0.8, 0.9, 0.95];
    let workloads = study.workloads();
    let cfg = study.config();
    // The DES leg is the most expensive part of the whole harness; use a
    // modest number of measured jobs per run (the averages over workloads
    // smooth the noise).
    let measured_jobs = (cfg.fcfs_jobs / 2).clamp(2_000, 20_000);

    let mut cells = Vec::new();
    for &load in &loads {
        let runs: Vec<WorkloadRun> = study.sweep(Chip::Smt).map(|item| {
            let view = item.view()?;
            let fcfs_tp = item
                .session()
                .rates(&view)
                .policy(Policy::FcfsEvent)
                .run()
                .map_err(|e| e.to_string())?
                .throughput(Policy::FcfsEvent)
                .expect("requested");
            let latency_cfg = LatencyConfig {
                arrival_rate: load * fcfs_tp,
                measured_jobs,
                warmup_jobs: measured_jobs / 10,
                sizes: SizeDist::Exponential,
                seed: cfg.seed ^ (load * 1000.0) as u64,
            };
            let report = item
                .session()
                .rates(&view)
                .policies(POLICIES)
                .latency(latency_cfg)
                .run()
                .map_err(|e| e.to_string())?;
            let per_policy = report
                .rows
                .iter()
                .map(|row| {
                    let l = row.latency.as_ref().expect("latency rows carry reports");
                    (l.mean_turnaround, l.utilization, l.empty_fraction)
                })
                .collect();
            Ok(WorkloadRun { per_policy })
        })?;
        let mut row = Vec::new();
        for (pi, _) in POLICIES.iter().enumerate() {
            let tnorm: Vec<f64> = runs
                .iter()
                .map(|r| r.per_policy[pi].0 / r.per_policy[0].0)
                .collect();
            let util: Vec<f64> = runs.iter().map(|r| r.per_policy[pi].1).collect();
            let empty: Vec<f64> = runs.iter().map(|r| r.per_policy[pi].2).collect();
            row.push(Cell {
                turnaround_vs_fcfs: mean(&tnorm),
                utilization: mean(&util),
                empty_fraction: mean(&empty),
            });
        }
        cells.push(row);
    }
    Ok(Fig5 {
        loads,
        cells,
        workloads: workloads.len(),
    })
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 5: scheduler comparison on the SMT config ({} workloads)",
            self.workloads
        )?;
        for (metric, pick) in [
            ("turnaround time (normalised to FCFS)", 0usize),
            ("processor utilization (busy contexts)", 1),
            ("processor empty fraction", 2),
        ] {
            writeln!(f, "\n-- {metric} --")?;
            write!(f, "{:>8}", "load")?;
            for p in POLICIES {
                write!(f, " {:>8}", p.name())?;
            }
            writeln!(f)?;
            for (li, &load) in self.loads.iter().enumerate() {
                write!(f, "{load:>8.2}")?;
                for cell in &self.cells[li] {
                    let v = match pick {
                        0 => cell.turnaround_vs_fcfs,
                        1 => cell.utilization,
                        _ => cell.empty_fraction,
                    };
                    write!(f, " {v:>8.3}")?;
                }
                writeln!(f)?;
            }
        }
        writeln!(
            f,
            "\npaper: SRPT wins turnaround at loads .8/.9; at .95 MAXTP cuts turnaround\n\
             ~23% below FCFS, with the lowest utilisation and highest empty fraction"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::sampled_fast_study;

    #[test]
    fn fig5_produces_sane_grid() {
        let fig = run(sampled_fast_study()).unwrap();
        assert_eq!(fig.loads.len(), 3);
        for row in &fig.cells {
            assert_eq!(row.len(), POLICIES.len());
            // FCFS normalised to itself.
            assert!((row[0].turnaround_vs_fcfs - 1.0).abs() < 1e-9);
            for cell in row {
                assert!(cell.turnaround_vs_fcfs > 0.2 && cell.turnaround_vs_fcfs < 3.0);
                assert!(cell.utilization > 0.0 && cell.utilization <= 4.0 + 1e-9);
                assert!((0.0..=1.0).contains(&cell.empty_fraction));
            }
        }
        // Utilisation grows with load for FCFS.
        assert!(fig.cells[2][0].utilization >= fig.cells[0][0].utilization - 0.05);
        // SRPT does not lose badly to FCFS on turnaround (it is designed to
        // reduce it; sampling noise allows small excursions).
        for row in &fig.cells {
            assert!(
                row[2].turnaround_vs_fcfs < 1.2,
                "SRPT {} should not be far above FCFS",
                row[2].turnaround_vs_fcfs
            );
        }
    }
}

//! Table II: instantaneous throughput and time fractions per coschedule
//! heterogeneity, for the FCFS, optimal and worst schedulers.

use std::fmt;

use symbiosis::{heterogeneity_table, random_draw_heterogeneity_probability};

use crate::experiments::ExperimentError;
use crate::mean;
use crate::study::{Chip, Study, WORKLOAD_SIZE};

/// One averaged Table II row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Distinct job types in the group's coschedules.
    pub heterogeneity: usize,
    /// Mean instantaneous throughput (WIPC) of the group.
    pub mean_it: f64,
    /// Mean FCFS time fraction.
    pub fcfs: f64,
    /// Mean optimal-scheduler time fraction.
    pub optimal: f64,
    /// Mean worst-scheduler time fraction.
    pub worst: f64,
    /// Theoretical i.i.d. uniform draw probability for this heterogeneity.
    pub random_draw: f64,
}

/// Table II for one chip, averaged over workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipTable2 {
    /// Which configuration.
    pub chip: Chip,
    /// One row per heterogeneity level 1..=4.
    pub rows: Vec<Row>,
}

/// The full Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// SMT and quad-core sub-tables.
    pub chips: Vec<ChipTable2>,
    /// Workloads averaged per chip.
    pub workloads: usize,
}

/// Runs the Table II analysis.
///
/// # Errors
///
/// The sweep's [`session::SweepError`].
pub fn run(study: &Study) -> Result<Table2, ExperimentError> {
    let workloads = study.workloads();
    let (n, k) = (WORKLOAD_SIZE, 4usize);
    let mut chips = Vec::new();
    for chip in Chip::ALL {
        // The heterogeneity fold is not a policy row, so it rides the
        // sweep's custom-map escape hatch over the shared pool.
        let tables = study.sweep(chip).map(|item| {
            heterogeneity_table(
                &item.rates()?,
                study.config().fcfs_jobs,
                study.config().seed,
            )
            .map_err(|e| e.to_string())
        })?;
        let max_het = n.min(k);
        let mut rows = Vec::new();
        for het in 1..=max_het {
            let collect = |f: &dyn Fn(&symbiosis::HeterogeneityRow) -> f64| -> Vec<f64> {
                tables.iter().filter_map(|t| t.row(het).map(f)).collect()
            };
            rows.push(Row {
                heterogeneity: het,
                mean_it: mean(&collect(&|r| r.mean_instantaneous_throughput)),
                fcfs: mean(&collect(&|r| r.fcfs_fraction)),
                optimal: mean(&collect(&|r| r.optimal_fraction)),
                worst: mean(&collect(&|r| r.worst_fraction)),
                random_draw: random_draw_heterogeneity_probability(n, k, het),
            });
        }
        chips.push(ChipTable2 { chip, rows });
    }
    Ok(Table2 {
        chips,
        workloads: workloads.len(),
    })
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table II: time fractions by coschedule heterogeneity ({} workloads)",
            self.workloads
        )?;
        for c in &self.chips {
            writeln!(f, "\n== {} configuration ==", c.chip.label())?;
            writeln!(
                f,
                "{:>4} {:>10} {:>10} {:>10} {:>10} {:>12}",
                "het", "avg IT", "frac FCFS", "frac opt", "frac worst", "random draw"
            )?;
            for r in &c.rows {
                writeln!(
                    f,
                    "{:>4} {:>10.2} {:>9.0}% {:>9.0}% {:>9.0}% {:>11.0}%",
                    r.heterogeneity,
                    r.mean_it,
                    100.0 * r.fcfs,
                    100.0 * r.optimal,
                    100.0 * r.worst,
                    100.0 * r.random_draw
                )?;
            }
        }
        writeln!(
            f,
            "\npaper (SMT): IT rises with heterogeneity (1.74..1.97); worst scheduler \n\
             sits 80% in homogeneous coschedules; FCFS tracks the random-draw mix \n\
             (2/33/56/9%); optimal skews heterogeneous (72% at het=4 on the quad-core)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{fast_study, Chip};

    #[test]
    fn table2_reproduces_paper_shape() {
        let t2 = run(fast_study()).unwrap();
        for c in &t2.chips {
            assert_eq!(c.rows.len(), 4);
            // Fractions are distributions.
            for which in [0usize, 1, 2] {
                let total: f64 = c
                    .rows
                    .iter()
                    .map(|r| match which {
                        0 => r.fcfs,
                        1 => r.optimal,
                        _ => r.worst,
                    })
                    .sum();
                assert!((total - 1.0).abs() < 0.02, "fractions sum to {total}");
            }
            // Heterogeneous coschedules are faster on average on the SMT
            // machine (fetch-bandwidth complementarity). The quad-core
            // contrast needs warmed caches, so it is only asserted for the
            // full-scale run (see EXPERIMENTS.md), not this fast study.
            if matches!(c.chip, Chip::Smt) {
                assert!(
                    c.rows[3].mean_it >= c.rows[0].mean_it,
                    "{}: het4 {} vs het1 {}",
                    c.chip.label(),
                    c.rows[3].mean_it,
                    c.rows[0].mean_it
                );
            }
            // The worst scheduler mostly picks homogeneous coschedules.
            assert!(
                c.rows[0].worst > c.rows[3].worst,
                "worst scheduler prefers homogeneous groups"
            );
            // FCFS stays close to the random-draw mix.
            for r in &c.rows {
                assert!(
                    (r.fcfs - r.random_draw).abs() < 0.15,
                    "FCFS {} vs draw {}",
                    r.fcfs,
                    r.random_draw
                );
            }
        }
    }
}

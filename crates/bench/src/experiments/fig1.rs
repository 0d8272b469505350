//! Figure 1: variation of per-job IPC, per-coschedule instantaneous
//! throughput, and average throughput, for both configurations.

use std::fmt;

use session::Policy;
use symbiosis::{instantaneous_spread, per_job_spreads, WorkloadRates, WorkloadVariability};

use crate::study::{Chip, Study, StudyConfig};
use crate::{max, mean, min, pct};

/// One Figure 1 bar: relative excursions around its zero line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bar {
    /// Mean (over workloads/jobs) relative maximum (the "avg best" bar).
    pub avg_best: f64,
    /// Mean relative minimum (negative; "avg worst").
    pub avg_worst: f64,
    /// Extreme relative maximum over everything ("max best").
    pub max_best: f64,
    /// Extreme relative minimum ("min worst").
    pub min_worst: f64,
}

impl Bar {
    fn from_rel(rel_max: &[f64], rel_min: &[f64]) -> Bar {
        Bar {
            avg_best: mean(rel_max),
            avg_worst: mean(rel_min),
            max_best: max(rel_max),
            min_worst: min(rel_min),
        }
    }

    /// The paper's variability for this bar: `avg_best - avg_worst`.
    pub fn variability(&self) -> f64 {
        self.avg_best - self.avg_worst
    }
}

/// Figure 1 statistics for one chip configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipFig1 {
    /// Which configuration.
    pub chip: Chip,
    /// Per-job IPC variation around the per-job average.
    pub per_job: Bar,
    /// Instantaneous throughput variation around the coschedule average.
    pub instantaneous: Bar,
    /// Average-throughput variation around the FCFS zero line
    /// (best scheduler up, worst scheduler down).
    pub average: Bar,
}

/// The full Figure 1 (both configurations).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1 {
    /// SMT and quad-core statistics.
    pub chips: Vec<ChipFig1>,
    /// Number of workloads analysed per chip.
    pub workloads: usize,
}

/// One workload's variability statistics, with the throughput legs
/// obtained through the `Session` API (the spread legs are pure table
/// statistics). Produces exactly the numbers the pre-`Session`
/// `analyze_variability` free function produced — the parity suite pins
/// that equivalence bitwise.
///
/// # Errors
///
/// Propagates session/analysis failures as strings.
pub fn workload_variability(
    rates: &WorkloadRates,
    config: &StudyConfig,
) -> Result<WorkloadVariability, String> {
    let report = config
        .session()
        .rates(rates)
        .policies([Policy::Optimal, Policy::Worst, Policy::FcfsEvent])
        .run()
        .map_err(|e| e.to_string())?;
    Ok(WorkloadVariability {
        per_job: per_job_spreads(rates).map_err(|e| e.to_string())?,
        instantaneous: instantaneous_spread(rates),
        fcfs: report.throughput(Policy::FcfsEvent).expect("requested"),
        best: report.throughput(Policy::Optimal).expect("requested"),
        worst: report.throughput(Policy::Worst).expect("requested"),
    })
}

/// Runs the Figure 1 analysis: one [`Study::sweep`] per chip fans
/// [`workload_variability`] out over the shared worker pool (the spread
/// legs are not policy rows, so the sweep's custom-map escape hatch
/// carries them).
///
/// # Errors
///
/// Propagates failures from the underlying analyses as strings (the
/// driver reports and exits).
pub fn run(study: &Study) -> Result<Fig1, String> {
    let workloads = study.workloads();
    let mut chips = Vec::new();
    for chip in Chip::ALL {
        let results = study
            .sweep(chip)
            .map(|item| workload_variability(&item.rates()?, study.config()))
            .map_err(|e| e.to_string())?;
        let mut pj_max = Vec::new();
        let mut pj_min = Vec::new();
        let mut it_max = Vec::new();
        let mut it_min = Vec::new();
        let mut avg_max = Vec::new();
        let mut avg_min = Vec::new();
        for v in results {
            for s in &v.per_job {
                pj_max.push(s.rel_max());
                pj_min.push(s.rel_min());
            }
            it_max.push(v.instantaneous.rel_max());
            it_min.push(v.instantaneous.rel_min());
            avg_max.push(v.optimal_gain());
            avg_min.push(v.worst_loss());
        }
        chips.push(ChipFig1 {
            chip,
            per_job: Bar::from_rel(&pj_max, &pj_min),
            instantaneous: Bar::from_rel(&it_max, &it_min),
            average: Bar::from_rel(&avg_max, &avg_min),
        });
    }
    Ok(Fig1 {
        chips,
        workloads: workloads.len(),
    })
}

impl fmt::Display for Fig1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 1: variability of per-job IPC / instantaneous TP / average TP"
        )?;
        writeln!(f, "({} workloads of 4 job types)", self.workloads)?;
        for c in &self.chips {
            writeln!(f, "\n== {} configuration ==", c.chip.label())?;
            writeln!(
                f,
                "{:<18} {:>9} {:>9} {:>9} {:>9} {:>12}",
                "bar", "avg best", "avg worst", "max best", "min worst", "variability"
            )?;
            for (name, bar) in [
                ("per-job IPC", &c.per_job),
                ("instantaneous TP", &c.instantaneous),
                ("average TP", &c.average),
            ] {
                writeln!(
                    f,
                    "{:<18} {:>9} {:>9} {:>9} {:>9} {:>12}",
                    name,
                    pct(bar.avg_best),
                    pct(bar.avg_worst),
                    pct(bar.max_best),
                    pct(bar.min_worst),
                    pct(bar.variability()),
                )?;
            }
        }
        writeln!(
            f,
            "\npaper (SMT): per-job 37%, instantaneous 69%, average 12%;\n\
             optimal only +3% over FCFS on average (max +12%), worst -9% (min -18%)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::fast_study;

    #[test]
    fn fig1_reproduces_paper_shape() {
        let fig = run(fast_study()).unwrap();
        assert_eq!(fig.chips.len(), 2);
        for c in &fig.chips {
            // The paper's central observation: average-throughput
            // variability is far below per-job variability.
            assert!(
                c.average.variability() < c.per_job.variability(),
                "{}: average {} must be below per-job {}",
                c.chip.label(),
                c.average.variability(),
                c.per_job.variability()
            );
            // Optimal gain over FCFS is small on average (single digits at
            // full scale; the fast study's tiny simulator windows leave
            // caches cold, which inflates quad-core symbiosis, so the
            // ceiling here is generous).
            assert!(
                c.average.avg_best < 0.25,
                "{}: optimal gain {} should be small",
                c.chip.label(),
                c.average.avg_best
            );
            // Signs are sane.
            assert!(c.per_job.avg_best > 0.0);
            assert!(c.per_job.avg_worst < 0.0);
            assert!(c.average.avg_best >= -1e-9);
            assert!(c.average.avg_worst <= 1e-9);
        }
    }

    #[test]
    fn display_contains_table() {
        let fig = run(fast_study()).unwrap();
        let text = fig.to_string();
        assert!(text.contains("SMT configuration"));
        assert!(text.contains("per-job IPC"));
    }
}

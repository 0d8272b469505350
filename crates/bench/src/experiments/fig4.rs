//! Figure 4: turnaround time as a function of arrival rate, and the
//! paper's M/M/4 worked example (3% faster service → 16% less turnaround).

use std::fmt;

use queueing::MmcQueue;

use crate::experiments::ExperimentError;

/// One point of the turnaround-vs-arrival-rate curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Arrival rate `lambda`.
    pub lambda: f64,
    /// Mean turnaround with the baseline service rate.
    pub base_turnaround: f64,
    /// Mean turnaround with the 3%-faster service rate (the dotted line).
    pub improved_turnaround: f64,
}

/// The Figure 4 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4 {
    /// The solid + dotted curves.
    pub curve: Vec<CurvePoint>,
    /// Worked example at `lambda = 3.5, mu = 1`: (jobs in system, turnaround).
    pub example_base: (f64, f64),
    /// Worked example at `mu = 1.03`.
    pub example_improved: (f64, f64),
    /// Relative turnaround reduction from the 3% service-rate increase.
    pub turnaround_reduction: f64,
}

/// Builds the analytic Figure 4 (no simulation required).
///
/// # Errors
///
/// Returns the queue's construction error (cannot happen for the fixed
/// parameters used here).
pub fn run() -> Result<Fig4, ExperimentError> {
    let servers = 4u32;
    let mu_base = 1.0;
    let mu_fast = 1.03;
    let mut curve = Vec::new();
    // Coarse grid over the stable region, refined near the asymptote where
    // the paper's point D lives.
    let mut lambdas: Vec<f64> = (1..=14).map(|i| i as f64 * 0.25).collect();
    lambdas.extend([3.6, 3.7, 3.8, 3.85, 3.9, 3.95, 3.98]);
    for lambda in lambdas {
        let base = MmcQueue::new(lambda, mu_base, servers)?;
        let fast = MmcQueue::new(lambda, mu_fast, servers)?;
        curve.push(CurvePoint {
            lambda,
            base_turnaround: base.mean_turnaround(),
            improved_turnaround: fast.mean_turnaround(),
        });
    }
    let base = MmcQueue::new(3.5, mu_base, servers)?;
    let fast = MmcQueue::new(3.5, mu_fast, servers)?;
    let reduction = 1.0 - fast.mean_turnaround() / base.mean_turnaround();
    Ok(Fig4 {
        curve,
        example_base: (base.mean_jobs_in_system(), base.mean_turnaround()),
        example_improved: (fast.mean_jobs_in_system(), fast.mean_turnaround()),
        turnaround_reduction: reduction,
    })
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 4: turnaround time vs arrival rate (M/M/4)")?;
        writeln!(
            f,
            "{:>8} {:>14} {:>16}",
            "lambda", "W (mu = 1.00)", "W (mu = 1.03)"
        )?;
        for p in &self.curve {
            writeln!(
                f,
                "{:>8.2} {:>14.3} {:>16.3}",
                p.lambda, p.base_turnaround, p.improved_turnaround
            )?;
        }
        writeln!(
            f,
            "\nworked example at lambda = 3.5: L = {:.1} jobs, W = {:.2}",
            self.example_base.0, self.example_base.1
        )?;
        writeln!(
            f,
            "after +3% service rate:        L = {:.1} jobs, W = {:.2}  ({:.0}% less turnaround)",
            self.example_improved.0,
            self.example_improved.1,
            100.0 * self.turnaround_reduction
        )?;
        writeln!(
            f,
            "\npaper: L 8.7 -> 7.3, W 2.5 -> 2.1, a 16% reduction from 3% more throughput"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worked_example_matches_paper() {
        let fig = run().unwrap();
        assert!(
            (fig.example_base.0 - 8.7).abs() < 0.15,
            "{:?}",
            fig.example_base
        );
        assert!((fig.example_base.1 - 2.5).abs() < 0.05);
        assert!((fig.example_improved.0 - 7.3).abs() < 0.2);
        assert!((fig.example_improved.1 - 2.1).abs() < 0.06);
        assert!((fig.turnaround_reduction - 0.16).abs() < 0.03);
    }

    #[test]
    fn curve_is_monotone_and_diverges() {
        let fig = run().unwrap();
        for pair in fig.curve.windows(2) {
            assert!(pair[1].base_turnaround > pair[0].base_turnaround);
            assert!(
                pair[0].improved_turnaround < pair[0].base_turnaround,
                "faster service always reduces turnaround"
            );
        }
        let last = fig.curve.last().unwrap();
        assert!(last.base_turnaround > 5.0, "divergence near saturation");
    }
}

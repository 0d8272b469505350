//! The interface between the latency simulator and performance data.
//!
//! The schedulers consume [`symbiosis::RateModel`] directly.

use symbiosis::RateModel;

/// A simple analytic rate model for tests and examples: each job runs at
/// `solo[ty]` scaled by a contention factor `1 / (1 + alpha * (n - 1))`
/// where `n` is the number of co-running jobs.
///
/// Equivalent to a [`symbiosis::AnalyticModel`] closure, kept as a named
/// type because the queueing validation suites construct it constantly.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionModel {
    /// Solo rate per type.
    pub solo: Vec<f64>,
    /// Slowdown per additional co-runner.
    pub alpha: f64,
    /// Hardware contexts.
    pub contexts: usize,
}

impl ContentionModel {
    /// Creates the model; `solo` must be non-empty with positive rates.
    ///
    /// # Panics
    ///
    /// Panics on empty `solo`, non-positive rates, negative `alpha`, or
    /// zero `contexts`.
    pub fn new(solo: Vec<f64>, alpha: f64, contexts: usize) -> Self {
        assert!(!solo.is_empty(), "need at least one type");
        assert!(solo.iter().all(|&r| r > 0.0), "solo rates must be positive");
        assert!(alpha >= 0.0, "alpha must be non-negative");
        assert!(contexts > 0, "need at least one context");
        ContentionModel {
            solo,
            alpha,
            contexts,
        }
    }
}

impl RateModel for ContentionModel {
    fn num_types(&self) -> usize {
        self.solo.len()
    }

    fn contexts(&self) -> usize {
        self.contexts
    }

    fn per_job_rate(&self, counts: &[u32], ty: usize) -> f64 {
        assert_eq!(counts.len(), self.solo.len(), "counts length mismatch");
        assert!(counts[ty] > 0, "type {ty} not present");
        let n: u32 = counts.iter().sum();
        assert!(
            n >= 1 && n as usize <= self.contexts,
            "multiset size {n} out of range"
        );
        self.solo[ty] / (1.0 + self.alpha * (n - 1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symbiosis::assert_rate_model_conformance;

    #[test]
    fn solo_rate_is_unscaled() {
        let m = ContentionModel::new(vec![1.0, 0.5], 0.25, 4);
        assert_eq!(m.per_job_rate(&[1, 0], 0), 1.0);
        assert_eq!(m.per_job_rate(&[0, 1], 1), 0.5);
    }

    #[test]
    fn contention_slows_jobs() {
        let m = ContentionModel::new(vec![1.0], 0.5, 4);
        assert!((m.per_job_rate(&[2], 0) - 1.0 / 1.5).abs() < 1e-12);
        assert!((m.per_job_rate(&[4], 0) - 1.0 / 2.5).abs() < 1e-12);
    }

    #[test]
    fn throughput_sums_jobs() {
        let m = ContentionModel::new(vec![1.0, 0.5], 0.0, 4);
        let it = m.instantaneous_throughput(&[2, 2]);
        assert!((it - 3.0).abs() < 1e-12);
    }

    #[test]
    fn contention_model_passes_shared_conformance() {
        assert_rate_model_conformance(&ContentionModel::new(vec![1.0, 0.5], 0.3, 3));
        assert_rate_model_conformance(&ContentionModel::new(vec![0.8], 0.0, 1));
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn absent_type_panics() {
        let m = ContentionModel::new(vec![1.0, 0.5], 0.0, 4);
        let _ = m.per_job_rate(&[1, 0], 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_multiset_panics() {
        let m = ContentionModel::new(vec![1.0], 0.0, 2);
        let _ = m.per_job_rate(&[3], 0);
    }
}

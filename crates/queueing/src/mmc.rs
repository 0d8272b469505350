//! Analytic M/M/c queue — the closed forms behind Figure 4.
//!
//! The paper illustrates the turnaround-vs-throughput relationship with an
//! M/M/4 example: at `lambda = 3.5`, `mu = 1` the mean number of jobs in the
//! system is 8.7 and the turnaround time 2.5; raising `mu` by 3% (the
//! paper's optimal-scheduler gain) drops them to 7.3 and 2.1 — a 16%
//! turnaround reduction from a 3% throughput increase.

use std::fmt;

/// Why [`MmcQueue::new`] refused its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MmcError {
    /// `lambda`, `mu` or `servers` is not positive, or a rate is NaN.
    NonPositive,
    /// Arrivals meet or exceed the service capacity `servers · mu`.
    Unstable {
        /// The arrival rate.
        lambda: f64,
        /// `servers · mu`.
        capacity: f64,
    },
}

impl fmt::Display for MmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmcError::NonPositive => write!(f, "lambda, mu and servers must be positive"),
            MmcError::Unstable { lambda, capacity } => {
                write!(f, "unstable queue: lambda {lambda} >= capacity {capacity}")
            }
        }
    }
}

impl std::error::Error for MmcError {}

/// Analytic results for an M/M/c queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmcQueue {
    /// Arrival rate `lambda`.
    pub lambda: f64,
    /// Per-server service rate `mu`.
    pub mu: f64,
    /// Number of servers `c`.
    pub servers: u32,
}

impl MmcQueue {
    /// Creates the queue descriptor.
    ///
    /// # Errors
    ///
    /// [`MmcError::NonPositive`] if any parameter is not positive (a NaN
    /// rate included), [`MmcError::Unstable`] if the system is unstable
    /// (`lambda >= c * mu`).
    pub fn new(lambda: f64, mu: f64, servers: u32) -> Result<Self, MmcError> {
        // Negated, so that a NaN rate fails too.
        if !(lambda > 0.0 && mu > 0.0) || servers == 0 {
            return Err(MmcError::NonPositive);
        }
        let q = MmcQueue {
            lambda,
            mu,
            servers,
        };
        if q.rho() >= 1.0 {
            return Err(MmcError::Unstable {
                lambda,
                capacity: mu * servers as f64,
            });
        }
        Ok(q)
    }

    /// Server utilisation `rho = lambda / (c mu)`.
    pub fn rho(&self) -> f64 {
        self.lambda / (self.mu * self.servers as f64)
    }

    /// Offered load in Erlangs, `a = lambda / mu`.
    pub fn offered_load(&self) -> f64 {
        self.lambda / self.mu
    }

    /// Erlang-C: the probability an arriving job must queue.
    pub fn erlang_c(&self) -> f64 {
        let a = self.offered_load();
        let c = self.servers as usize;
        // Sum a^n / n! computed incrementally to avoid overflow.
        let mut term = 1.0; // a^0 / 0!
        let mut sum = term;
        for n in 1..c {
            term *= a / n as f64;
            sum += term;
        }
        let term_c = term * a / c as f64; // a^c / c!
        let tail = term_c / (1.0 - self.rho());
        tail / (sum + tail)
    }

    /// Mean number of jobs waiting (not in service).
    pub fn mean_queue_length(&self) -> f64 {
        self.erlang_c() * self.rho() / (1.0 - self.rho())
    }

    /// Mean number of jobs in the system (queued + in service), `L`.
    pub fn mean_jobs_in_system(&self) -> f64 {
        self.mean_queue_length() + self.offered_load()
    }

    /// Mean turnaround (sojourn) time, `W = L / lambda` (Little's law).
    pub fn mean_turnaround(&self) -> f64 {
        self.mean_jobs_in_system() / self.lambda
    }

    /// Probability the system is completely empty, `P0`.
    pub fn empty_probability(&self) -> f64 {
        let a = self.offered_load();
        let c = self.servers as usize;
        let mut term = 1.0;
        let mut sum = term;
        for n in 1..c {
            term *= a / n as f64;
            sum += term;
        }
        let term_c = term * a / c as f64;
        1.0 / (sum + term_c / (1.0 - self.rho()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_mm4_at_load_3_5() {
        // Section VI: lambda = 3.5, mu = 1, c = 4 -> L ~ 8.7, W ~ 2.5.
        let q = MmcQueue::new(3.5, 1.0, 4).unwrap();
        assert!(
            (q.mean_jobs_in_system() - 8.7).abs() < 0.15,
            "L = {}",
            q.mean_jobs_in_system()
        );
        assert!(
            (q.mean_turnaround() - 2.5).abs() < 0.05,
            "W = {}",
            q.mean_turnaround()
        );
    }

    #[test]
    fn paper_example_3_percent_speedup() {
        // mu = 1.03 -> L ~ 7.3, W ~ 2.1 (a 16% turnaround reduction).
        let base = MmcQueue::new(3.5, 1.0, 4).unwrap();
        let faster = MmcQueue::new(3.5, 1.03, 4).unwrap();
        assert!(
            (faster.mean_jobs_in_system() - 7.3).abs() < 0.2,
            "L = {}",
            faster.mean_jobs_in_system()
        );
        assert!(
            (faster.mean_turnaround() - 2.1).abs() < 0.06,
            "W = {}",
            faster.mean_turnaround()
        );
        let reduction = 1.0 - faster.mean_turnaround() / base.mean_turnaround();
        assert!(
            (reduction - 0.16).abs() < 0.03,
            "3% throughput -> ~16% turnaround, got {reduction}"
        );
    }

    #[test]
    fn mm1_special_case() {
        // c = 1 reduces to M/M/1: W = 1 / (mu - lambda).
        let q = MmcQueue::new(0.5, 1.0, 1).unwrap();
        assert!((q.mean_turnaround() - 2.0).abs() < 1e-9);
        assert!((q.erlang_c() - 0.5).abs() < 1e-9); // P(wait) = rho for M/M/1
        assert!((q.empty_probability() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn turnaround_diverges_near_saturation() {
        let w: Vec<f64> = [0.5, 0.9, 0.99]
            .iter()
            .map(|&rho| MmcQueue::new(4.0 * rho, 1.0, 4).unwrap().mean_turnaround())
            .collect();
        assert!(w[0] < w[1] && w[1] < w[2]);
        assert!(w[2] > 10.0, "near saturation W explodes, got {}", w[2]);
    }

    #[test]
    fn unstable_and_invalid_queues_rejected() {
        let unstable = MmcQueue::new(4.0, 1.0, 4).unwrap_err();
        assert_eq!(
            unstable,
            MmcError::Unstable {
                lambda: 4.0,
                capacity: 4.0
            }
        );
        assert_eq!(
            unstable.to_string(),
            "unstable queue: lambda 4 >= capacity 4"
        );
        assert!(matches!(
            MmcQueue::new(5.0, 1.0, 4),
            Err(MmcError::Unstable { .. })
        ));
        for (lambda, mu, servers) in [
            (-1.0, 1.0, 4),
            (1.0, 0.0, 4),
            (1.0, 1.0, 0),
            (f64::NAN, 1.0, 4),
            (1.0, f64::NAN, 4),
        ] {
            assert_eq!(
                MmcQueue::new(lambda, mu, servers),
                Err(MmcError::NonPositive)
            );
        }
    }

    #[test]
    fn erlang_c_is_a_probability() {
        for servers in [1u32, 2, 4, 8] {
            for rho in [0.1, 0.5, 0.9] {
                let q = MmcQueue::new(servers as f64 * rho, 1.0, servers).unwrap();
                let pc = q.erlang_c();
                assert!((0.0..=1.0).contains(&pc), "ErlangC {pc}");
            }
        }
    }

    #[test]
    fn empty_probability_falls_with_load() {
        let lo = MmcQueue::new(1.0, 1.0, 4).unwrap().empty_probability();
        let hi = MmcQueue::new(3.8, 1.0, 4).unwrap().empty_probability();
        assert!(lo > hi);
    }
}

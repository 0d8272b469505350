//! Public simulation entry point.

use std::error::Error;
use std::fmt;

use crate::config::MachineConfig;
use crate::engine::{Chip, SimResult};
use crate::profile::BenchmarkProfile;

/// Error constructing or driving a [`Machine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// Wrong number of jobs passed to a simulation call.
    WrongJobCount {
        /// Hardware contexts available.
        contexts: usize,
        /// Jobs supplied.
        supplied: usize,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::InvalidConfig(msg) => write!(f, "invalid machine config: {msg}"),
            MachineError::WrongJobCount { contexts, supplied } => write!(
                f,
                "machine has {contexts} contexts but {supplied} jobs were supplied"
            ),
        }
    }
}

impl Error for MachineError {}

/// A simulated processor that can run coschedules of benchmark profiles.
///
/// A `Machine` is immutable and cheap to share across threads; every
/// [`Machine::simulate`] call builds fresh chip state, so concurrent
/// simulations of different coschedules are safe and independent.
///
/// # Examples
///
/// ```
/// use simproc::{Machine, MachineConfig, profile::BenchmarkProfile};
///
/// # fn main() -> Result<(), simproc::MachineError> {
/// let machine = Machine::new(MachineConfig::smt4().with_windows(2_000, 8_000))?;
/// let job = BenchmarkProfile::balanced("demo", 3);
/// let result = machine.simulate(&[&job, &job])?;
/// assert_eq!(result.ipc.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
}

impl Machine {
    /// Creates a machine after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::InvalidConfig`] with a description of the
    /// first violated invariant.
    pub fn new(config: MachineConfig) -> Result<Self, MachineError> {
        config.validate().map_err(MachineError::InvalidConfig)?;
        Ok(Machine { config })
    }

    /// The validated configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Simulates a coschedule: `jobs[i]` is pinned to hardware context `i`.
    ///
    /// Between 1 and `contexts` jobs may be supplied; unoccupied contexts
    /// stay idle (used for solo reference runs).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::WrongJobCount`] if `jobs` is empty or larger
    /// than the number of hardware contexts.
    pub fn simulate(&self, jobs: &[&BenchmarkProfile]) -> Result<SimResult, MachineError> {
        let contexts = self.config.contexts();
        if jobs.is_empty() || jobs.len() > contexts {
            return Err(MachineError::WrongJobCount {
                contexts,
                supplied: jobs.len(),
            });
        }
        Ok(Chip::new(&self.config, jobs).run())
    }

    /// Simulates `job` running alone on the machine (the reference run used
    /// to define weighted instructions, Section III-B of the paper).
    ///
    /// # Errors
    ///
    /// Propagates [`MachineError`] from [`Machine::simulate`].
    pub fn simulate_solo(&self, job: &BenchmarkProfile) -> Result<SimResult, MachineError> {
        self.simulate(&[job])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, RobPartitioning};

    #[test]
    fn invalid_config_is_rejected() {
        // 6 entries cannot hold four threads' ROB reservations of 2.
        for rob_size in [0, 6] {
            let mut cfg = MachineConfig::smt4();
            cfg.core.rob_size = rob_size;
            assert!(matches!(
                Machine::new(cfg),
                Err(MachineError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn small_robs_without_reservation_simulate() {
        // Only dynamic sharing with reservation needs room for every
        // thread's guarantee; these configs pass validation and must run.
        let mut pooled = MachineConfig::smt4().with_windows(100, 400);
        pooled.core.rob_size = 6;
        pooled.core.dynamic_reservation = false;
        let mut split = pooled
            .clone()
            .with_rob_partitioning(RobPartitioning::Static);
        split.core.dynamic_reservation = true;
        let mut quad = MachineConfig::quadcore()
            .with_windows(100, 400)
            .with_rob_partitioning(RobPartitioning::Static);
        quad.core.rob_size = 1;
        let p = BenchmarkProfile::balanced("small-rob", 4);
        for cfg in [pooled, split, quad] {
            let res = Machine::new(cfg.clone())
                .unwrap()
                .simulate(&[&p; 4])
                .unwrap();
            assert!(res.committed.iter().all(|&c| c > 0), "{cfg:?}");
        }
    }

    #[test]
    fn job_count_is_validated() {
        let m = Machine::new(MachineConfig::smt4().with_windows(100, 400)).unwrap();
        let p = BenchmarkProfile::balanced("x", 1);
        assert!(matches!(
            m.simulate(&[]),
            Err(MachineError::WrongJobCount { .. })
        ));
        assert!(matches!(
            m.simulate(&[&p, &p, &p, &p, &p]),
            Err(MachineError::WrongJobCount {
                contexts: 4,
                supplied: 5
            })
        ));
    }

    #[test]
    fn solo_run_occupies_one_context() {
        let m = Machine::new(MachineConfig::smt4().with_windows(1_000, 4_000)).unwrap();
        let p = BenchmarkProfile::balanced("solo", 2);
        let res = m.simulate_solo(&p).unwrap();
        assert_eq!(res.ipc.len(), 1);
        assert!(res.ipc[0] > 0.0);
    }

    #[test]
    fn machine_is_reusable_and_deterministic() {
        let m = Machine::new(MachineConfig::smt4().with_windows(1_000, 4_000)).unwrap();
        let p = BenchmarkProfile::balanced("rep", 5);
        let a = m.simulate(&[&p, &p]).unwrap();
        let b = m.simulate(&[&p, &p]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn error_messages_are_informative() {
        let err = MachineError::WrongJobCount {
            contexts: 4,
            supplied: 7,
        };
        let msg = err.to_string();
        assert!(msg.contains('4') && msg.contains('7'));
    }
}

//! The unified policy registry: every throughput analysis and latency
//! scheduler in the workspace, addressable by name.

use std::fmt;

use queueing::{FcfsScheduler, MaxItScheduler, MaxTpScheduler, Scheduler, SrptScheduler};

/// What a policy computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// A saturated-machine average-throughput analysis (Section IV/V):
    /// produces a throughput and per-coschedule time fractions.
    Throughput,
    /// An online scheduler driven through the event simulator
    /// (Section VI): produces batch or latency measurements.
    Latency,
}

/// One of the paper's scheduling policies / analyses.
///
/// The four *throughput* entries are the Section IV/V analyses (LP optimal,
/// LP worst, exact Markov FCFS, event-driven FCFS); the four *latency*
/// entries are the Section VI online schedulers. All eight are reachable by
/// [`Policy::by_name`] so experiments iterate over policies instead of
/// hand-written match arms.
///
/// # Examples
///
/// ```
/// use session::Policy;
///
/// assert_eq!(Policy::by_name("maxtp"), Some(Policy::MaxTp));
/// assert_eq!(Policy::by_name("fcfs_markov"), Some(Policy::FcfsMarkov));
/// assert_eq!(Policy::all().len(), 8);
/// for p in Policy::all() {
///     assert_eq!(Policy::by_name(p.name()), Some(*p));
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// LP maximum average throughput (the paper's "optimal scheduler").
    Optimal,
    /// LP minimum average throughput (the paper's "worst scheduler").
    Worst,
    /// Exact FCFS throughput via the coschedule Markov chain
    /// (exponential job sizes).
    FcfsMarkov,
    /// FCFS throughput via the event-driven maximum-throughput experiment.
    FcfsEvent,
    /// Online first-come first-served (Section VI baseline).
    Fcfs,
    /// Online maximise-instantaneous-throughput.
    MaxIt,
    /// Online shortest total remaining processing time.
    Srpt,
    /// Online LP-fraction tracker (the paper's practical construction).
    MaxTp,
}

impl Policy {
    /// Every policy, throughput analyses first, in paper order.
    pub const ALL: [Policy; 8] = [
        Policy::Optimal,
        Policy::Worst,
        Policy::FcfsMarkov,
        Policy::FcfsEvent,
        Policy::Fcfs,
        Policy::MaxIt,
        Policy::Srpt,
        Policy::MaxTp,
    ];

    /// The four online latency schedulers, in paper order.
    pub const LATENCY: [Policy; 4] = [Policy::Fcfs, Policy::MaxIt, Policy::Srpt, Policy::MaxTp];

    /// The four saturated-machine throughput analyses.
    pub const THROUGHPUT: [Policy; 4] = [
        Policy::Optimal,
        Policy::Worst,
        Policy::FcfsMarkov,
        Policy::FcfsEvent,
    ];

    /// The full registry.
    pub fn all() -> &'static [Policy] {
        &Self::ALL
    }

    /// Registry key — uppercase, matching [`Scheduler::name`] for the
    /// latency policies.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Optimal => "OPTIMAL",
            Policy::Worst => "WORST",
            Policy::FcfsMarkov => "FCFS-MARKOV",
            Policy::FcfsEvent => "FCFS-EVENT",
            Policy::Fcfs => "FCFS",
            Policy::MaxIt => "MAXIT",
            Policy::Srpt => "SRPT",
            Policy::MaxTp => "MAXTP",
        }
    }

    /// Looks a policy up by name, case-insensitively; `_` and `-` are
    /// interchangeable.
    pub fn by_name(name: &str) -> Option<Policy> {
        let key = name.trim().to_uppercase().replace('_', "-");
        Policy::ALL.into_iter().find(|p| p.name() == key)
    }

    /// Whether this is a throughput analysis or an online scheduler.
    pub fn kind(&self) -> PolicyKind {
        match self {
            Policy::Optimal | Policy::Worst | Policy::FcfsMarkov | Policy::FcfsEvent => {
                PolicyKind::Throughput
            }
            Policy::Fcfs | Policy::MaxIt | Policy::Srpt | Policy::MaxTp => PolicyKind::Latency,
        }
    }

    /// Instantiates the online scheduler behind a latency policy, or `None`
    /// for throughput analyses. `targets` are the LP-optimal `(coschedule
    /// counts, time fraction)` pairs MAXTP follows; the other schedulers
    /// ignore them.
    ///
    /// # Panics
    ///
    /// Panics (inside [`MaxTpScheduler::new`]) if MAXTP is requested with
    /// no positive-fraction target.
    pub fn latency_scheduler(&self, targets: &[(Vec<u32>, f64)]) -> Option<Box<dyn Scheduler>> {
        match self {
            Policy::Fcfs => Some(Box::new(FcfsScheduler)),
            Policy::MaxIt => Some(Box::new(MaxItScheduler)),
            Policy::Srpt => Some(Box::new(SrptScheduler::default())),
            Policy::MaxTp => Some(Box::new(MaxTpScheduler::new(targets.to_vec()))),
            _ => None,
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trips_names() {
        for p in Policy::all() {
            assert_eq!(Policy::by_name(p.name()), Some(*p));
            assert_eq!(Policy::by_name(&p.name().to_lowercase()), Some(*p));
        }
        assert_eq!(Policy::by_name("fcfs_markov"), Some(Policy::FcfsMarkov));
        assert_eq!(Policy::by_name("  srpt "), Some(Policy::Srpt));
        assert_eq!(Policy::by_name("nope"), None);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Policy::all().iter().map(Policy::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Policy::ALL.len());
    }

    #[test]
    fn kinds_partition_the_registry() {
        for p in Policy::THROUGHPUT {
            assert_eq!(p.kind(), PolicyKind::Throughput);
            assert!(p.latency_scheduler(&[]).is_none());
        }
        for p in Policy::LATENCY {
            assert_eq!(p.kind(), PolicyKind::Latency);
        }
    }

    #[test]
    fn latency_scheduler_names_match_registry_keys() {
        let targets = vec![(vec![1u32], 1.0)];
        for p in Policy::LATENCY {
            let sched = p.latency_scheduler(&targets).expect("latency policy");
            assert_eq!(
                sched.name(),
                p.name(),
                "Scheduler::name is the registry key"
            );
        }
    }
}

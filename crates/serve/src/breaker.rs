//! Graceful degradation: a model-health circuit breaker over the placer.
//!
//! The digital twin's [`RefitRecord::fit_q90`](crate::RefitRecord) is a
//! live health signal: when the 0.9 residual quantile blows past a
//! threshold, the model is mispricing placements badly enough that a
//! symbiosis-aware placer can do *worse* than symbiosis-blind FCFS. The
//! [`CircuitBreaker`] watches the signal with hysteresis — trip at
//! [`BreakerConfig::trip_q90`], re-close only once the quantile falls
//! back to [`BreakerConfig::recover_q90`]. [`run_serve`](crate::run_serve)
//! owns the breaker: it feeds each refit's signal to
//! [`CircuitBreaker::observe`] and, before every fill, hands the
//! dispatcher its primary placer while the breaker is closed and an FCFS
//! [`PolicyPlacer`](crate::PolicyPlacer) while it is open. The twin keeps
//! refitting throughout, so a recovering model automatically wins its
//! traffic back.
//!
//! Everything here is deterministic given the refit history, so breaker
//! trips and recoveries are pinned by ordinary seeded tests.

/// Hysteresis thresholds over the twin's `fit_q90` health signal.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Open the breaker (fall back to FCFS) when `fit_q90` reaches this.
    pub trip_q90: f64,
    /// Close the breaker again only once `fit_q90` falls to this or
    /// below. Must be at or below [`trip_q90`](Self::trip_q90) for
    /// meaningful hysteresis.
    pub recover_q90: f64,
}

/// One breaker transition, for the experiment printout.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerEvent {
    /// Refit generation whose health signal caused the transition.
    pub generation: u64,
    /// `true` when the breaker opened (fell back), `false` on recovery.
    pub opened: bool,
    /// The observed `fit_q90`.
    pub q90: f64,
}

/// Accounting of one run's breaker activity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BreakerReport {
    /// Times the breaker opened.
    pub trips: usize,
    /// Times it closed again.
    pub recoveries: usize,
    /// Placement calls served by the FCFS fallback while open.
    pub fallback_calls: usize,
    /// Every transition, in observation order.
    pub events: Vec<BreakerEvent>,
}

/// The hysteresis state machine. Feed it each refit's health signal via
/// [`CircuitBreaker::observe`]; ask [`CircuitBreaker::is_open`] before
/// trusting the model.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    open: bool,
    report: BreakerReport,
}

impl CircuitBreaker {
    /// A closed breaker under `config`.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            open: false,
            report: BreakerReport::default(),
        }
    }

    /// Feeds one refit's health signal through the hysteresis.
    pub fn observe(&mut self, generation: u64, fit_q90: f64) {
        if !self.open && fit_q90 >= self.config.trip_q90 {
            self.open = true;
            self.report.trips += 1;
            self.report.events.push(BreakerEvent {
                generation,
                opened: true,
                q90: fit_q90,
            });
            obs::event!(
                Debug,
                "serve.breaker_open",
                "breaker opened at generation {generation}: fit_q90 {fit_q90:.4} >= {:.4}",
                self.config.trip_q90
            );
        } else if self.open && fit_q90 <= self.config.recover_q90 {
            self.open = false;
            self.report.recoveries += 1;
            self.report.events.push(BreakerEvent {
                generation,
                opened: false,
                q90: fit_q90,
            });
            obs::event!(
                Debug,
                "serve.breaker_close",
                "breaker recovered at generation {generation}: fit_q90 {fit_q90:.4} <= {:.4}",
                self.config.recover_q90
            );
        }
    }

    /// Whether placements should currently bypass the model.
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// The activity accounting so far.
    pub fn report(&self) -> &BreakerReport {
        &self.report
    }

    /// Counts `calls` placement calls served by the fallback.
    pub(crate) fn count_fallback(&mut self, calls: usize) {
        self.report.fallback_calls += calls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> BreakerConfig {
        BreakerConfig {
            trip_q90: 0.30,
            recover_q90: 0.10,
        }
    }

    #[test]
    fn trips_at_the_threshold_and_recovers_with_hysteresis() {
        let mut breaker = CircuitBreaker::new(config());
        assert!(!breaker.is_open());
        breaker.observe(1, 0.05);
        assert!(!breaker.is_open(), "healthy signal keeps it closed");
        breaker.observe(2, 0.30);
        assert!(breaker.is_open(), "trip threshold is inclusive");
        // Between the thresholds: the hysteresis band holds it open.
        breaker.observe(3, 0.20);
        assert!(breaker.is_open());
        breaker.observe(4, 0.10);
        assert!(!breaker.is_open(), "recovery threshold is inclusive");
        let report = breaker.report();
        assert_eq!(report.trips, 1);
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.events.len(), 2);
        assert_eq!(
            (report.events[0].generation, report.events[0].opened),
            (2, true)
        );
        assert_eq!(
            (report.events[1].generation, report.events[1].opened),
            (4, false)
        );
    }

    #[test]
    fn repeated_bad_signals_do_not_double_count_a_trip() {
        let mut breaker = CircuitBreaker::new(config());
        breaker.observe(1, 0.9);
        breaker.observe(2, 0.9);
        breaker.observe(3, 0.9);
        assert!(breaker.is_open());
        assert_eq!(breaker.report().trips, 1);
        assert!(breaker.report().events.len() == 1);
    }
}

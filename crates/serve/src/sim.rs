//! Closed-loop service simulation against a ground-truth rate source.
//!
//! Drives the whole stack — queue → dispatcher → twin loop — under a
//! deterministic virtual clock: seeded Poisson arrivals are pushed through
//! the bounded [`Queue`], the [`Dispatcher`] places them by pricing
//! candidates through the *live predicted model*, and `truth`
//! (any partial-capable [`RateModel`] — typically a measured
//! `PerfTable` view) decides how fast the placed coschedules actually
//! run. Completions feed measurements back into the [`TwinLoop`], which
//! refits and emits active probe requests; the harness services those
//! probes against `truth` as well. `truth` is evaluated once, into a
//! [`RateGrid`], when the run starts, and every truth query reads it.
//!
//! Everything is seeded and event-ordered, so a report — including the
//! full placement trace and the model-error trajectory — is reproducible
//! bit-for-bit, with inline or background refits.

use crate::breaker::{BreakerConfig, BreakerReport, DegradingPlacer};
use crate::dispatch::{Dispatcher, Placement};
use crate::placer::Placer;
use crate::queue::{Queue, SubmitError};
use crate::twin::{RefitRecord, TwinError, TwinLoop};
use predict::{PredictedModel, RateSample};
use queueing::Job;
use symbiosis::rng::SplitMix64;
use symbiosis::{RateGrid, RateModel};

/// Configuration for one [`run_serve`] experiment.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Mean arrivals per unit time (Poisson process).
    pub arrival_rate: f64,
    /// Total jobs to generate.
    pub jobs: usize,
    /// RNG seed (arrivals, types, sizes).
    pub seed: u64,
    /// Queue bound; arrivals hitting a full queue are shed.
    pub queue_capacity: usize,
    /// Twin staleness bound: refit every `batch` measurements.
    pub batch: usize,
    /// Active probe requests per refit.
    pub probes: usize,
    /// Run refits on a background worker thread instead of inline.
    pub background_twin: bool,
    /// Graceful degradation: wrap the placer in a
    /// [`DegradingPlacer`] watching the twin's `fit_q90` health signal,
    /// falling back to FCFS while the breaker is open. `None` (the
    /// default) leaves the placer untouched.
    pub breaker: Option<BreakerConfig>,
    /// Chaos hook: make the (then necessarily background) twin worker
    /// panic at this zero-indexed dispatched batch; the run surfaces
    /// [`ServeError::Twin`] at shutdown. `None` for normal operation.
    pub twin_panic_at_batch: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            arrival_rate: 1.0,
            jobs: 1_000,
            seed: 0x5EED,
            queue_capacity: 1_024,
            batch: 64,
            probes: 4,
            background_twin: false,
            breaker: None,
            twin_panic_at_batch: None,
        }
    }
}

/// One point of the model-error trajectory: the predicted model's error
/// against ground truth over every full coschedule, after a refit.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorPoint {
    /// Refit generation (0 = the initial model, before any refit).
    pub generation: u64,
    /// Virtual time of the measurement.
    pub time: f64,
    /// Jobs completed by then.
    pub completed: u64,
    /// Mean relative instantaneous-throughput error vs truth.
    pub mean_abs_rel: f64,
}

/// The outcome of one closed-loop service run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The placer that drove the run.
    pub placer: String,
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs shed at the full queue.
    pub rejected: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Virtual time of the last completion.
    pub makespan: f64,
    /// Completed jobs per unit virtual time.
    pub jobs_per_time: f64,
    /// Total work completed per unit virtual time.
    pub throughput: f64,
    /// Mean turnaround (completion − arrival).
    pub mean_turnaround: f64,
    /// Mean slowdown: turnaround over the job's solo execution time.
    pub mean_slowdown: f64,
    /// Every refit the twin performed.
    pub refits: Vec<RefitRecord>,
    /// Model error against truth: the initial model plus one point per
    /// refit, in generation order.
    pub errors: Vec<ErrorPoint>,
    /// Every placement decision, for determinism assertions.
    pub trace: Vec<Placement>,
    /// Training-set size of the final model.
    pub final_train_samples: usize,
    /// Circuit-breaker activity, when [`ServeConfig::breaker`] was set.
    pub breaker: Option<BreakerReport>,
    /// Metrics recorded during this run (empty when no [`obs`] recorder
    /// was installed).
    pub metrics: obs::MetricsSnapshot,
}

/// Errors from a [`run_serve`] experiment.
#[derive(Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The config or the model/truth shapes are unusable.
    Config(String),
    /// The twin loop died mid-run (e.g. a refit-worker panic).
    Twin(TwinError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "serve config error: {msg}"),
            ServeError::Twin(e) => write!(f, "serve twin failure: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Measures the multiset `counts` against `truth`, as the per-type total
/// rates convention of [`RateSample`].
fn measure(truth: &dyn RateModel, counts: &[u32]) -> RateSample {
    RateSample {
        counts: counts.to_vec(),
        rates: (0..counts.len())
            .map(|ty| truth.total_rate(counts, ty))
            .collect(),
    }
}

/// Runs the closed loop: seeded arrivals through queue, dispatcher and
/// twin against `truth`. See the module docs for the event structure.
///
/// # Errors
///
/// [`ServeError::Config`] when shapes mismatch, `truth` cannot price
/// partial multisets or breaks the rate contract (a non-finite or
/// non-positive rate for a present type), or rates/counts are degenerate.
pub fn run_serve(
    truth: &dyn RateModel,
    model: PredictedModel,
    placer: Box<dyn Placer>,
    cfg: &ServeConfig,
) -> Result<ServeReport, ServeError> {
    let n = truth.num_types();
    let k = truth.contexts();
    if !truth.supports_partial() {
        return Err(ServeError::Config(
            "ground truth must price partial multisets".into(),
        ));
    }
    if model.num_types() != n || model.contexts() != k {
        return Err(ServeError::Config(format!(
            "model shape {}x{} does not match truth {}x{}",
            model.num_types(),
            model.contexts(),
            n,
            k
        )));
    }
    let rate_ok = cfg.arrival_rate.is_finite() && cfg.arrival_rate > 0.0;
    if !rate_ok || cfg.jobs == 0 || cfg.queue_capacity == 0 {
        return Err(ServeError::Config(
            "need positive arrival rate, jobs and queue capacity".into(),
        ));
    }

    let ctx = obs::current();
    let _span = ctx.as_ref().map(|r| r.span("serve.run"));
    let before = ctx.as_ref().map(|r| r.snapshot());
    // Hoisted handles keep the per-event cost at one atomic op.
    let depth_gauge = ctx.as_ref().map(|r| r.gauge("serve.queue_depth"));
    let shed_counter = ctx.as_ref().map(|r| r.counter("serve.shed"));
    let place_hist = ctx.as_ref().map(|r| r.histogram("serve.place_us"));
    let error_hist = ctx.as_ref().map(|r| r.histogram("twin.error_us"));

    // The truth never changes during the run: evaluate it once. Every
    // truth query below (progress, completions, measurements, solo rates,
    // the error trajectory) reads the grid instead of the model.
    let grid = RateGrid::new(truth).map_err(|e| ServeError::Config(e.to_string()))?;
    let truth = &grid;
    let model_error = |model: &PredictedModel| -> Result<f64, ServeError> {
        let started = std::time::Instant::now();
        let summary = model
            .error_against_grid(&grid)
            .map_err(|e| ServeError::Config(e.to_string()))?;
        if let Some(h) = &error_hist {
            h.record(started.elapsed().as_micros() as f64);
        }
        Ok(summary.mean_abs_rel)
    };

    let mut rng = SplitMix64::new(cfg.seed);
    let (producer, queue) = Queue::bounded(cfg.queue_capacity);
    let mut twin = if cfg.twin_panic_at_batch.is_some() {
        // Fault injection targets the worker thread, so the twin must
        // run in background mode.
        TwinLoop::background_with_fault(model, cfg.batch, cfg.probes, cfg.twin_panic_at_batch)
    } else if cfg.background_twin {
        TwinLoop::background(model, cfg.batch, cfg.probes)
    } else {
        TwinLoop::new(model, cfg.batch, cfg.probes)
    };
    let (placer, breaker) = match &cfg.breaker {
        Some(breaker_cfg) => {
            let degrading = DegradingPlacer::new(placer, breaker_cfg.clone());
            let handle = degrading.breaker();
            (Box::new(degrading) as Box<dyn Placer>, Some(handle))
        }
        None => (placer, None),
    };
    let mut dispatcher = Dispatcher::new(n, k, placer);
    let placer_name = dispatcher.placer_name().to_string();

    // Solo rates give each job's ideal (uncontended) execution time, the
    // denominator of the slowdown metric.
    let solo_rates: Vec<f64> = (0..n)
        .map(|ty| {
            let mut solo = vec![0u32; n];
            solo[ty] = 1;
            truth.per_job_rate(&solo, ty)
        })
        .collect();

    let mut errors = vec![ErrorPoint {
        generation: 0,
        time: 0.0,
        completed: 0,
        mean_abs_rel: model_error(&twin.read())?,
    }];

    let mut now = 0.0;
    let mut arrivals_left = cfg.jobs;
    let mut next_id: u64 = 0;
    let mut next_arrival = now + rng.next_exp(1.0 / cfg.arrival_rate);
    let mut completed: u64 = 0;
    let mut work_done = 0.0;
    let mut turnaround_sum = 0.0;
    let mut slowdown_sum = 0.0;
    let mut makespan = 0.0;

    loop {
        let next_completion = dispatcher
            .time_to_next_completion(truth)
            .map(|dt| now + dt)
            .unwrap_or(f64::INFINITY);
        let arrival_due = arrivals_left > 0 && next_arrival <= next_completion;
        if !arrival_due && !next_completion.is_finite() {
            if queue.is_empty() && dispatcher.is_idle() {
                // No arrivals left, nothing queued, nothing running: done.
                break;
            }
            // Nothing running yet but the queue holds work: dispatch it.
            if let Some(g) = &depth_gauge {
                g.set(queue.len() as i64);
            }
            for job in queue.drain() {
                dispatcher.admit(job);
            }
            let placing = std::time::Instant::now();
            let model = twin.read();
            dispatcher.fill(&*model, now);
            if let Some(h) = &place_hist {
                h.record(placing.elapsed().as_micros() as f64);
            }
            continue;
        }

        // Advance the running coschedule to the next event — arrival or
        // completion — so every job progresses across every interval.
        let event_time = if arrival_due {
            next_arrival
        } else {
            next_completion
        };
        let dt = event_time - now;
        now = event_time;
        let ran = dispatcher.running_counts().to_vec();
        let done = dispatcher.advance(truth, dt, now);
        if !done.is_empty() {
            // Completions: the coschedule that ran yields a measurement,
            // jobs finish, the twin may refit.
            for c in &done {
                completed += 1;
                work_done += c.size;
                let turnaround = now - c.arrival;
                turnaround_sum += turnaround;
                slowdown_sum += turnaround / (c.size / solo_rates[c.ty]);
            }
            makespan = now;
            if twin.record(measure(truth, &ran)) {
                // Staleness boundary: service the active probe requests
                // and record an error-trajectory point.
                for probe in twin.probe_requests() {
                    twin.record(measure(truth, &probe));
                }
                // Feed the freshest refit's health signal through the
                // circuit breaker, so degradation reacts within one
                // staleness bound of the model going bad (or healing).
                if let Some(breaker) = &breaker {
                    if let Some(last) = twin.history().last() {
                        breaker
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner())
                            .observe(last.generation, last.fit_q90);
                    }
                }
                errors.push(ErrorPoint {
                    generation: twin.generation(),
                    time: now,
                    completed,
                    mean_abs_rel: model_error(&twin.read())?,
                });
            }
        }
        if arrival_due {
            // Arrival event: a producer pushes one job at the queue.
            let job = Job {
                id: next_id,
                ty: rng.next_range(n as u64) as usize,
                remaining: rng.next_exp(1.0),
                arrival: now,
            };
            next_id += 1;
            arrivals_left -= 1;
            match producer.try_submit(job) {
                Ok(()) => {}
                Err(SubmitError::Full(_)) => {
                    // Shed; counted by the queue's own stats too.
                    if let Some(c) = &shed_counter {
                        c.add(1);
                    }
                }
                Err(SubmitError::Closed(_)) => unreachable!("queue closed early"),
            }
            next_arrival = now + rng.next_exp(1.0 / cfg.arrival_rate);
        }

        // Dispatch path: drain the queue and fill free contexts, pricing
        // through the live predicted model.
        if let Some(g) = &depth_gauge {
            g.set(queue.len() as i64);
        }
        for job in queue.drain() {
            dispatcher.admit(job);
        }
        {
            let placing = std::time::Instant::now();
            let model = twin.read();
            dispatcher.fill(&*model, now);
            if let Some(h) = &place_hist {
                h.record(placing.elapsed().as_micros() as f64);
            }
        }
    }

    queue.close();
    let stats = queue.stats();
    let (placed_total, completed_total) = dispatcher.totals();
    assert_eq!(stats.depth, 0, "jobs left in the queue at shutdown");
    assert_eq!(placed_total, completed_total, "running jobs at shutdown");

    let (final_model, refits) = twin.shutdown().map_err(ServeError::Twin)?;
    errors.push(ErrorPoint {
        generation: refits.last().map_or(0, |r| r.generation),
        time: now,
        completed,
        mean_abs_rel: model_error(&final_model)?,
    });

    drop(_span);
    let metrics = match (&ctx, before) {
        (Some(rec), Some(before)) => obs::MetricsSnapshot::diff(&before, &rec.snapshot()),
        _ => obs::MetricsSnapshot::default(),
    };

    Ok(ServeReport {
        placer: placer_name,
        submitted: stats.submitted,
        rejected: stats.rejected,
        completed,
        makespan,
        jobs_per_time: completed as f64 / makespan.max(f64::MIN_POSITIVE),
        throughput: work_done / makespan.max(f64::MIN_POSITIVE),
        mean_turnaround: turnaround_sum / (completed as f64).max(1.0),
        mean_slowdown: slowdown_sum / (completed as f64).max(1.0),
        refits,
        errors,
        trace: dispatcher.trace().to_vec(),
        final_train_samples: final_model.samples().len(),
        breaker: breaker.map(|b| {
            b.lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .report()
                .clone()
        }),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placer::{BeamPlacer, PolicyPlacer};
    use predict::InterferenceFitter;
    use queueing::sched::feasible_multisets;
    use symbiosis::AnalyticModel;

    fn truth(n: usize, k: usize) -> AnalyticModel<impl Fn(&[u32], usize) -> f64> {
        AnalyticModel::new(n, k, |counts: &[u32], ty| {
            let distinct = counts.iter().filter(|&&c| c > 0).count() as f64;
            let load: u32 = counts.iter().sum();
            let base = 0.8 + 0.1 * (ty as f64);
            base * (1.0 + 0.25 * (distinct - 1.0)) / (1.0 + 0.4 * (load as f64 - 1.0))
        })
    }

    fn seed_model(truth: &dyn RateModel) -> PredictedModel {
        let full = vec![truth.contexts() as u32; truth.num_types()];
        let samples: Vec<RateSample> = (1..=2)
            .flat_map(|s| feasible_multisets(&full, s))
            .map(|c| measure(truth, &c))
            .collect();
        PredictedModel::fit(
            truth.num_types(),
            truth.contexts(),
            samples,
            Box::new(InterferenceFitter),
        )
        .unwrap()
    }

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            arrival_rate: 3.0,
            jobs: 300,
            seed: 7,
            queue_capacity: 512,
            batch: 40,
            probes: 3,
            background_twin: false,
            breaker: None,
            twin_panic_at_batch: None,
        }
    }

    #[test]
    fn conservation_no_lost_or_double_placed_jobs() {
        let truth = truth(3, 4);
        let report = run_serve(
            &truth,
            seed_model(&truth),
            Box::new(PolicyPlacer::greedy()),
            &small_cfg(),
        )
        .unwrap();
        assert_eq!(report.submitted + report.rejected, 300);
        assert_eq!(report.completed, report.submitted);
        let placed: u64 = report.trace.iter().map(|p| p.placed.len() as u64).sum();
        assert_eq!(placed, report.completed);
        assert!(report.mean_slowdown >= 1.0 - 1e-9);
        assert!(report.makespan > 0.0);
    }

    #[test]
    fn identical_seeds_reproduce_identical_traces() {
        let truth = truth(3, 4);
        let run = || {
            run_serve(
                &truth,
                seed_model(&truth),
                Box::new(BeamPlacer::new(4)),
                &small_cfg(),
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.errors, b.errors);
        assert_eq!(a.refits, b.refits);
        assert_eq!(a.mean_slowdown, b.mean_slowdown);
    }

    #[test]
    fn background_twin_reproduces_the_inline_run() {
        let truth = truth(3, 4);
        let run = |background| {
            let cfg = ServeConfig {
                background_twin: background,
                ..small_cfg()
            };
            run_serve(
                &truth,
                seed_model(&truth),
                Box::new(PolicyPlacer::greedy()),
                &cfg,
            )
            .unwrap()
        };
        let inline = run(false);
        let background = run(true);
        assert_eq!(inline.trace, background.trace);
        assert_eq!(inline.refits, background.refits);
        assert_eq!(inline.errors, background.errors);
    }

    #[test]
    fn refits_reduce_model_error() {
        let truth = truth(3, 4);
        let report = run_serve(
            &truth,
            seed_model(&truth),
            Box::new(PolicyPlacer::greedy()),
            &small_cfg(),
        )
        .unwrap();
        assert!(report.refits.len() >= 2, "scenario must refit");
        let first = report.errors.first().unwrap().mean_abs_rel;
        let last = report.errors.last().unwrap().mean_abs_rel;
        assert!(
            last < first,
            "digital twin must learn: error {first} -> {last}"
        );
    }

    #[test]
    fn a_tripped_breaker_falls_back_without_losing_jobs() {
        let truth = truth(3, 4);
        // A zero trip threshold opens the breaker at the first refit (any
        // non-negative q90 trips it) and the negative recovery threshold
        // keeps it open, so the bulk of the run places through FCFS.
        let cfg = ServeConfig {
            breaker: Some(BreakerConfig {
                trip_q90: 0.0,
                recover_q90: -1.0,
            }),
            ..small_cfg()
        };
        let report = run_serve(
            &truth,
            seed_model(&truth),
            Box::new(PolicyPlacer::greedy()),
            &cfg,
        )
        .unwrap();
        assert_eq!(report.placer, "DEGRADING");
        assert_eq!(report.submitted + report.rejected, 300);
        assert_eq!(report.completed, report.submitted);
        let breaker = report.breaker.expect("breaker report present");
        assert_eq!(breaker.trips, 1);
        assert_eq!(breaker.recoveries, 0);
        assert!(breaker.fallback_calls > 0, "fallback must have served");
    }

    #[test]
    fn an_untripped_breaker_is_transparent_to_the_placement_trace() {
        let truth = truth(3, 4);
        let plain = run_serve(
            &truth,
            seed_model(&truth),
            Box::new(PolicyPlacer::greedy()),
            &small_cfg(),
        )
        .unwrap();
        let cfg = ServeConfig {
            breaker: Some(BreakerConfig {
                trip_q90: f64::INFINITY,
                recover_q90: 0.0,
            }),
            ..small_cfg()
        };
        let wrapped = run_serve(
            &truth,
            seed_model(&truth),
            Box::new(PolicyPlacer::greedy()),
            &cfg,
        )
        .unwrap();
        assert_eq!(plain.trace, wrapped.trace);
        assert_eq!(plain.refits, wrapped.refits);
        let breaker = wrapped.breaker.expect("breaker report present");
        assert_eq!(breaker.trips, 0);
        assert_eq!(breaker.fallback_calls, 0);
    }

    #[test]
    fn a_twin_worker_panic_surfaces_as_a_clean_error() {
        let truth = truth(3, 4);
        let cfg = ServeConfig {
            twin_panic_at_batch: Some(0),
            ..small_cfg()
        };
        let err = run_serve(
            &truth,
            seed_model(&truth),
            Box::new(PolicyPlacer::greedy()),
            &cfg,
        )
        .expect_err("the injected twin panic must surface");
        assert!(
            matches!(err, ServeError::Twin(_)),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn a_contract_breaking_truth_is_rejected_before_the_run() {
        // Type 0 stalls (rate 0, then NaN) when two of its jobs co-run.
        for stalled in [0.0, f64::NAN] {
            let broken = AnalyticModel::new(
                2,
                2,
                move |counts: &[u32], _ty| {
                    if counts == [2, 0] {
                        stalled
                    } else {
                        0.5
                    }
                },
            );
            let err = run_serve(
                &broken,
                seed_model(&truth(2, 2)),
                Box::new(PolicyPlacer::greedy()),
                &small_cfg(),
            )
            .expect_err("a stalled type must not run");
            assert!(
                matches!(&err, ServeError::Config(msg) if msg.contains("per-job rate")),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let t = truth(2, 2);
        let model = seed_model(&t);
        let bad = ServeConfig {
            jobs: 0,
            ..ServeConfig::default()
        };
        assert!(matches!(
            run_serve(&t, model, Box::new(PolicyPlacer::fcfs()), &bad),
            Err(ServeError::Config(_))
        ));
        let other = truth(3, 2);
        assert!(run_serve(
            &other,
            seed_model(&t),
            Box::new(PolicyPlacer::fcfs()),
            &ServeConfig::default()
        )
        .is_err());
    }
}

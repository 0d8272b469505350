//! `serve`: the online scheduling loop.
//!
//! A pass is one `run_serve` with `BeamPlacer::new(8)` and a background
//! twin, on the `n12_k8` synthetic truth restricted to its first
//! [`TYPES`] types. Arrivals are an open Poisson stream in virtual time
//! at [`LOAD`] of the balanced-coschedule capacity, so the generator
//! never runs late. The twin starts from a model fitted to solo and pair
//! measurements, refitted before every pass outside its timer. Work
//! items are jobs served.

use predict::{InterferenceFitter, PredictedModel, RateSample};
use serve::{run_serve, BeamPlacer, ServeConfig, ServeReport};
use symbiosis::{CoscheduleIter, RateModel};
use workloads::PerfTable;

use crate::report::{
    default_seed, measured, median, record_trace_cost, repeat_passes, repeat_setup, timed, Checks,
    Cost, Digest, Metrics, Outcome,
};
use crate::Args;

/// Job types of the ground truth.
const TYPES: usize = 8;
/// Arrival rate as a share of the balanced coschedule's completion rate.
const LOAD: f64 = 0.8;
/// Jobs per pass.
const JOBS: usize = 8_000;

/// The twin's starting model: fitted to every solo and pair coschedule.
fn seed_model(truth: &dyn RateModel) -> Result<PredictedModel, String> {
    let n = truth.num_types();
    let samples: Vec<RateSample> = (1..=2)
        .flat_map(|size| CoscheduleIter::new(n, size))
        .map(|c| RateSample {
            counts: c.counts().to_vec(),
            rates: (0..n).map(|ty| truth.total_rate(c.counts(), ty)).collect(),
        })
        .collect();
    PredictedModel::fit(n, truth.contexts(), samples, Box::new(InterferenceFitter))
        .map_err(|e| e.to_string())
}

/// The full coschedule with contexts split as evenly as possible.
fn balanced_counts(n: usize, k: usize) -> Vec<u32> {
    let mut counts = vec![(k / n) as u32; n];
    for slot in counts.iter_mut().take(k % n) {
        *slot += 1;
    }
    counts
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let types: Vec<usize> = (0..TYPES).collect();
    let (mut table_s, mut fit_ms) = (Vec::new(), Vec::new());
    let (table, setup) = repeat_setup(|| {
        let (table, secs) = timed(paperbench::experiments::n12_k8::synthetic_table);
        table_s.push(secs);
        let table: PerfTable = table?;
        let truth = table.workload_view(&types).map_err(|e| e.to_string())?;
        let (model, secs) = timed(|| seed_model(&truth));
        model?;
        fit_ms.push(secs * 1e3);
        Ok(table)
    })?;
    let truth = table.workload_view(&types).map_err(|e| e.to_string())?;
    let capacity = truth.instantaneous_throughput(&balanced_counts(TYPES, truth.contexts()));
    let cfg = ServeConfig {
        arrival_rate: LOAD * capacity,
        jobs: JOBS,
        seed: args.seed,
        batch: 50,
        background_twin: true,
        ..ServeConfig::default()
    };
    let serve_once = || -> Result<(ServeReport, Cost), String> {
        let model = seed_model(&truth)?;
        let (report, cost) =
            measured(|| run_serve(&truth, model, Box::new(BeamPlacer::new(8)), &cfg));
        Ok((report.map_err(|e| e.to_string())?, cost))
    };

    let items = JOBS as u64;
    let mut checks = Checks::default();
    let mut first = None;
    let mut check_pass = |checks: &mut Checks, r: &ServeReport| {
        checks.attempt(items);
        checks.check(r.rejected, r.rejected == 0, || {
            format!("{} of {JOBS} jobs shed", r.rejected)
        });
        checks.check(
            items,
            r.submitted + r.rejected == items && r.completed == r.submitted,
            || {
                format!(
                    "conservation: submitted {} + rejected {} != {JOBS} or completed {} != submitted",
                    r.submitted, r.rejected, r.completed
                )
            },
        );
        let mut d = Digest::new();
        for v in [
            r.submitted,
            r.completed,
            r.refits.len() as u64,
            r.trace.len() as u64,
        ] {
            d.u64(v);
        }
        for v in [r.makespan, r.throughput, r.mean_turnaround, r.mean_slowdown] {
            d.f64(v);
        }
        for e in &r.errors {
            d.f64(e.mean_abs_rel);
        }
        let digest = d.finish();
        checks.same_as_first(&mut first, digest, items);
        digest
    };
    let mut digest = 0;
    let passes = repeat_passes(args.seconds, || {
        let (report, cost) = serve_once()?;
        digest = check_pass(&mut checks, &report);
        Ok(cost)
    })?;
    let applies = default_seed(args);
    checks.reference("serve.digest", digest, applies, items);

    let mut layers = Metrics::new();
    if args.trace {
        let recorder = obs::Recorder::new();
        let traced = {
            let _obs = obs::install(&recorder);
            serve_once()?
        };
        let (report, traced) = traced;
        check_pass(&mut checks, &report);
        // The timed pass is one `run_serve` call, nothing else.
        record_trace_cost(&mut layers, traced.wall, traced, &passes);
        let m = &report.metrics;
        let hist =
            |name: &str, q: f64| m.histograms.get(name).map_or(0.0, |h| h.approx_quantile(q));
        let count = |name: &str| m.histograms.get(name).map_or(0, |h| h.count) as f64;
        for (key, v) in [
            ("workloads.synthetic_table_s", median(&table_s)),
            ("predict.fit_ms", median(&fit_ms)),
            ("serve.run_s", traced.wall),
            ("serve.place_us.p50", hist("serve.place_us", 0.5)),
            ("serve.place_us.p99", hist("serve.place_us", 0.99)),
            ("serve.place_us.n", count("serve.place_us")),
            ("serve.refit_us.p50", hist("twin.refit_us", 0.5)),
            ("serve.refit_us.p90", hist("twin.refit_us", 0.9)),
            ("serve.refit_us.n", count("twin.refit_us")),
            ("serve.refits", report.refits.len() as f64),
            (
                "serve.queue_depth_peak",
                m.gauges.get("serve.queue_depth").map_or(0, |g| g.max) as f64,
            ),
            (
                "serve.shed",
                m.counters.get("serve.shed").copied().unwrap_or(0) as f64,
            ),
        ] {
            layers.insert(key.into(), v);
        }
        checks.reference(
            "serve.serve.refits",
            report.refits.len() as u64,
            applies,
            items,
        );
    }
    Ok(Outcome {
        setup,
        passes,
        items_per_pass: items,
        checks,
        layers,
    })
}

//! Golden parity of the online service loop and the predict layer under it.
//!
//! Every case folds every field it checks (floats by their bits) into a
//! 64-bit FNV-1a digest that is pinned here:
//!
//! * [`run_serve`] reports — each placement, each refit record, each
//!   error-trajectory point and the summary statistics — with inline and
//!   background twins, on an [`AnalyticModel`] truth and on a K = 8
//!   synthetic-table [`workloads::WorkloadView`] truth;
//! * [`InterferenceFitter`] coefficients on a full-rank sample set and on
//!   a rank-deficient set that needs the ridge fallback;
//! * [`PredictedModel::error_against`] mean, p95 and max.
//!
//! Performance work on the twin, the fitter or the error grid must leave
//! all of them untouched. If a change is *meant* to alter results, re-pin
//! the digests from the failure message.

use predict::{ErrorSummary, Fitter, InterferenceFitter, PredictedModel, RateSample};
use serve::{run_serve, BeamPlacer, ServeConfig, ServeReport};
use symbiosis::{AnalyticModel, CoscheduleIter, RateModel};
use workloads::PerfTable;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn report_digest(r: &ServeReport) -> u64 {
    let mut words = vec![
        r.submitted,
        r.rejected,
        r.completed,
        r.makespan.to_bits(),
        r.jobs_per_time.to_bits(),
        r.throughput.to_bits(),
        r.mean_turnaround.to_bits(),
        r.mean_slowdown.to_bits(),
        r.final_train_samples as u64,
        r.trace.len() as u64,
        r.refits.len() as u64,
        r.errors.len() as u64,
    ];
    for p in &r.trace {
        words.push(p.time.to_bits());
        words.push(p.placed.len() as u64);
        words.extend(p.placed.iter().copied());
        words.extend(p.running_after.iter().map(|&c| c as u64));
    }
    for refit in &r.refits {
        words.extend([
            refit.generation,
            refit.train_samples as u64,
            refit.fit_mean_abs_rel.to_bits(),
            refit.fit_q90.to_bits(),
        ]);
    }
    for e in &r.errors {
        words.extend([
            e.generation,
            e.time.to_bits(),
            e.completed,
            e.mean_abs_rel.to_bits(),
        ]);
    }
    fnv1a(words)
}

fn summary_digest(s: &ErrorSummary) -> u64 {
    fnv1a([
        s.coschedules as u64,
        s.mean_abs_rel.to_bits(),
        s.p95_abs_rel.to_bits(),
        s.max_abs_rel.to_bits(),
    ])
}

fn coefficient_digest(theta: &[Vec<f64>]) -> u64 {
    fnv1a(theta.iter().flatten().map(|v| v.to_bits()))
}

/// Ground truth with real symbiosis: heterogeneous coschedules run
/// faster, load slows everyone down.
fn analytic_truth() -> AnalyticModel<impl Fn(&[u32], usize) -> f64> {
    AnalyticModel::new(4, 4, |counts: &[u32], ty| {
        let distinct = counts.iter().filter(|&&c| c > 0).count() as f64;
        let load: u32 = counts.iter().sum();
        (0.7 + 0.1 * ty as f64) * (1.0 + 0.22 * (distinct - 1.0))
            / (1.0 + 0.38 * (load as f64 - 1.0))
    })
}

/// Five synthetic benchmarks on an 8-context machine. A slot's IPC falls
/// with the pressure of its co-runners and differs slightly by slot.
fn synthetic_table() -> PerfTable {
    let names: Vec<String> = (0..5).map(|b| format!("syn{b}")).collect();
    PerfTable::synthetic(names, 8, |combo| {
        let pressure: f64 = combo.iter().map(|&b| 0.04 + 0.05 * b as f64).sum();
        combo
            .iter()
            .enumerate()
            .map(|(slot, &b)| {
                let solo = 0.7 + 0.3 * ((b * 3) % 4) as f64;
                solo / (1.0 + pressure - (0.04 + 0.05 * b as f64)) * (1.0 - 0.005 * slot as f64)
            })
            .collect()
    })
    .expect("valid synthetic table")
}

fn measure(truth: &dyn RateModel, counts: &[u32]) -> RateSample {
    RateSample {
        counts: counts.to_vec(),
        rates: (0..counts.len())
            .map(|ty| truth.total_rate(counts, ty))
            .collect(),
    }
}

/// The twin's starting point: every solo and pair coschedule.
fn seed_model(truth: &dyn RateModel) -> PredictedModel {
    let n = truth.num_types();
    let samples: Vec<RateSample> = (1..=2)
        .flat_map(|size| CoscheduleIter::new(n, size))
        .map(|c| measure(truth, c.counts()))
        .collect();
    PredictedModel::fit(n, truth.contexts(), samples, Box::new(InterferenceFitter))
        .expect("seed fit")
}

/// Highest instantaneous throughput over the full coschedules.
fn capacity(truth: &dyn RateModel) -> f64 {
    CoscheduleIter::new(truth.num_types(), truth.contexts())
        .map(|s| truth.instantaneous_throughput(s.counts()))
        .fold(0.0, f64::max)
}

/// Runs both twin modes on `truth`, labelled `"{model}/{mode}"`.
fn serve_cases(model: &str, truth: &dyn RateModel, jobs: usize, seed: u64) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for background in [false, true] {
        let cfg = ServeConfig {
            arrival_rate: 0.8 * capacity(truth),
            jobs,
            seed,
            queue_capacity: 512,
            batch: 40,
            probes: 3,
            background_twin: background,
            breaker: None,
            twin_panic_at_batch: None,
        };
        let report = run_serve(truth, seed_model(truth), Box::new(BeamPlacer::new(4)), &cfg)
            .expect("serve run");
        let mode = if background { "background" } else { "inline" };
        out.push((format!("{model}/{mode}"), report_digest(&report)));
    }
    out
}

/// An exact-ish affine law with a mild non-affine term, so the fit has
/// non-trivial residuals.
fn affine_samples(n: usize, sizes: std::ops::RangeInclusive<usize>) -> Vec<RateSample> {
    let mut samples = Vec::new();
    for size in sizes {
        for s in CoscheduleIter::new(n, size) {
            let load: u32 = s.counts().iter().sum();
            let rates = (0..n)
                .map(|b| {
                    let c = s.counts()[b];
                    if c == 0 {
                        return 0.0;
                    }
                    let mut v = 1.0 + 0.1 * b as f64;
                    for (j, &cj) in s.counts().iter().enumerate() {
                        v -= (0.03 + 0.01 * ((b + 2 * j) % 4) as f64) * cj as f64;
                    }
                    c as f64 * v / (1.0 + 0.02 * (load as f64).powi(2))
                })
                .collect();
            samples.push(RateSample {
                counts: s.counts().to_vec(),
                rates,
            });
        }
    }
    samples
}

/// Compares every case with its pin and reports all mismatches at once,
/// with the actual digests to re-pin from.
fn check(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    let pins: Vec<String> = got
        .iter()
        .map(|(label, digest)| format!("(\"{label}\", {digest:#018x}),"))
        .collect();
    assert_eq!(
        got.len(),
        pinned.len(),
        "case count; actual pins:\n{}",
        pins.join("\n")
    );
    let mismatches: Vec<String> = got
        .iter()
        .zip(pinned)
        .filter(|((label, digest), (pin_label, pin))| label != pin_label || digest != pin)
        .map(|((label, digest), (pin_label, pin))| {
            format!("{label}: got {digest:#018x}, pinned {pin_label} {pin:#018x}")
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "serve/predict results moved:\n{}\nactual pins:\n{}",
        mismatches.join("\n"),
        pins.join("\n")
    );
}

#[test]
fn analytic_truth_serve_runs_match_golden_digests() {
    let got = serve_cases("analytic", &analytic_truth(), 500, 0xD1617);
    check(
        &got,
        &[
            ("analytic/inline", 0x6d13d051758dfc68),
            ("analytic/background", 0x6d13d051758dfc68),
        ],
    );
}

#[test]
fn k8_view_truth_serve_runs_match_golden_digests() {
    let table = synthetic_table();
    let view = table
        .workload_view(&[0, 1, 2, 3, 4])
        .expect("valid workload");
    let got = serve_cases("view_k8", &view, 400, 11);
    check(
        &got,
        &[
            ("view_k8/inline", 0x1f77b44cd635252e),
            ("view_k8/background", 0x1f77b44cd635252e),
        ],
    );
}

#[test]
fn interference_fitter_coefficients_match_golden_digests() {
    // Every size 1..=4 over four types: full rank.
    let full_rank = affine_samples(4, 1..=4);
    // Only full coschedules: the intercept column is the count columns'
    // sum over K, so the normal equations are singular and the fit takes
    // the ridge path.
    let rank_deficient = affine_samples(3, 4..=4);
    let mut got = Vec::new();
    for (label, n, k, samples) in [
        ("full_rank", 4, 4, &full_rank),
        ("rank_deficient", 3, 4, &rank_deficient),
    ] {
        let predictor = InterferenceFitter.fit(n, k, samples).expect("fit");
        got.push((
            label.to_string(),
            coefficient_digest(&predictor.coefficients()),
        ));
    }
    check(
        &got,
        &[
            ("full_rank", 0x6ff8c661bd45d0d6),
            ("rank_deficient", 0x2cb0b0e676566fdc),
        ],
    );
}

#[test]
fn error_against_summaries_match_golden_digests() {
    let analytic = analytic_truth();
    let table = synthetic_table();
    let view = table
        .workload_view(&[0, 1, 2, 3, 4])
        .expect("valid workload");
    let mut got = Vec::new();
    for (label, truth) in [
        ("analytic", &analytic as &dyn RateModel),
        ("view_k8", &view as &dyn RateModel),
    ] {
        let summary = seed_model(truth).error_against(truth).expect("same shape");
        got.push((label.to_string(), summary_digest(&summary)));
    }
    check(
        &got,
        &[
            ("analytic", 0x17c7793e33cc513f),
            ("view_k8", 0x5b1da80650e09453),
        ],
    );
}

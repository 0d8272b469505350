//! Artefact parity for the experiments migrated off the hand-rolled
//! fan-out onto `Session::sweep()` (fig2, fig3, fig5, fig6, fairness):
//! each one is run
//! through the [`paperbench::Experiment`] registry at reduced scale and
//! compared **byte-for-byte** against a reference artefact computed the
//! pre-migration way — sequential loops over the `symbiosis`/`queueing`
//! free functions with hand-rolled folds.
//!
//! The references deliberately duplicate the old aggregation code: that
//! duplication is the test. If the sweep surface ever stops reproducing
//! the old numbers (or the Display formatting drifts), the byte
//! comparison fails.
//!
//! A reference recomputed in the same tree moves with any shared layer
//! (the rate models, the Section VI DES), so fig5 and fig6 are also pinned
//! by golden FNV-1a digests of their printed artefacts. A change that is
//! meant to move them must re-pin the digest and say why in CHANGES.md.

use std::sync::OnceLock;

use paperbench::experiments::{fig2, fig3, fig5, fig6};
use paperbench::{artefact_digest, by_name, mean, pearson, ExperimentContext, Study, StudyConfig};
use queueing::{
    run_batch_experiment, run_latency_experiment, BatchConfig, LatencyConfig, SizeDist,
};
use session::Policy;
use symbiosis::{
    fairness_experiment, fcfs_throughput, fit_linear_bottleneck, optimal_schedule,
    per_type_rate_difference, throughput_bounds, JobSize, Objective, WorkloadRates,
};

use paperbench::Chip;

fn parity_config() -> StudyConfig {
    let mut cfg = StudyConfig::fast();
    cfg.warmup_cycles = 1_000;
    cfg.measure_cycles = 4_000;
    cfg.sample = Some(3);
    cfg.fcfs_jobs = 2_500;
    cfg.seed = 0xA27E_FAC7;
    cfg
}

/// Golden digest of the fig5 artefact at [`parity_config`].
const FIG5_GOLDEN: u64 = 0xf461_cbed_81f3_75ac;

/// Golden digest of the fig6 artefact at [`parity_config`].
const FIG6_GOLDEN: u64 = 0xd0d5_e2ce_a3c0_c3d0;

fn context() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::new(parity_config()))
}

fn study() -> &'static Study {
    context().study().expect("study builds")
}

/// Runs one registry entry and returns its printed artefact.
fn registry_artefact(name: &str) -> String {
    by_name(name)
        .unwrap_or_else(|| panic!("{name} is registered"))
        .run(context())
        .unwrap_or_else(|e| panic!("{name} runs: {e}"))
}

/// Asserts the golden digest of `name`'s printed artefact.
fn assert_golden(name: &str, artefact: &str, golden: u64) {
    let got = artefact_digest(artefact);
    assert_eq!(
        got, golden,
        "{name} artefact digest moved: got {got:#018x}, pinned {golden:#018x}\n{artefact}"
    );
}

/// The old MAXTP target derivation: LP-optimal coschedule fractions.
fn maxtp_targets(rates: &WorkloadRates, fractions: &[f64]) -> Vec<(Vec<u32>, f64)> {
    rates
        .coschedules()
        .iter()
        .zip(fractions)
        .filter(|(_, &x)| x > 1e-9)
        .map(|(s, &x)| (s.counts().to_vec(), x))
        .collect()
}

#[test]
fn fig2_artefact_matches_free_function_reference() {
    let study = study();
    let cfg = study.config();
    let mut chips = Vec::new();
    for chip in Chip::ALL {
        let table = study.table(chip);
        let mut points = Vec::new();
        for w in study.workloads() {
            let rates = table.workload_rates(&w).expect("valid workload");
            let (worst, best) = throughput_bounds(&rates).expect("bounds solve");
            let fcfs = fcfs_throughput(&rates, cfg.fcfs_jobs, JobSize::Deterministic, cfg.seed)
                .expect("fcfs runs");
            points.push(fig2::Point {
                optimal_vs_worst: best.throughput / worst.throughput,
                fcfs_vs_worst: fcfs.throughput / worst.throughput,
            });
        }
        // The old least-squares fit of (y - 1) = a (x - 1).
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut bridges = Vec::new();
        for p in &points {
            let x = p.optimal_vs_worst - 1.0;
            let y = p.fcfs_vs_worst - 1.0;
            sxx += x * x;
            sxy += x * y;
            if x > 1e-6 {
                bridges.push((y / x).clamp(0.0, 1.5));
            }
        }
        chips.push(fig2::ChipFig2 {
            chip,
            slope: if sxx > 1e-12 { sxy / sxx } else { 0.0 },
            bridge_fraction: mean(&bridges),
            points,
        });
    }
    let reference = fig2::Fig2 { chips }.to_string();
    assert_eq!(registry_artefact("fig2"), reference);
}

#[test]
fn fig3_artefact_matches_free_function_reference() {
    let study = study();
    let mut chips = Vec::new();
    for chip in Chip::ALL {
        let table = study.table(chip);
        let mut points = Vec::new();
        for w in study.workloads() {
            let rates = table.workload_rates(&w).expect("valid workload");
            let fit = fit_linear_bottleneck(&rates).expect("fit solves");
            let (worst, best) = throughput_bounds(&rates).expect("bounds solve");
            points.push(fig3::Point {
                bottleneck_mse: fit.mse,
                optimal_vs_worst: best.throughput / worst.throughput,
                rate_difference: per_type_rate_difference(&rates),
            });
        }
        let xs: Vec<f64> = points.iter().map(|p| p.bottleneck_mse).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.optimal_vs_worst).collect();
        let correlation_all = pearson(&xs, &ys);
        let mut diffs: Vec<f64> = points.iter().map(|p| p.rate_difference).collect();
        diffs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = diffs[diffs.len() / 2];
        let similar: Vec<&fig3::Point> = points
            .iter()
            .filter(|p| p.rate_difference <= median)
            .collect();
        let sx: Vec<f64> = similar.iter().map(|p| p.bottleneck_mse).collect();
        let sy: Vec<f64> = similar.iter().map(|p| p.optimal_vs_worst).collect();
        chips.push(fig3::ChipFig3 {
            chip,
            points,
            correlation_all,
            correlation_similar_jobs: pearson(&sx, &sy),
        });
    }
    let reference = fig3::Fig3 { chips }.to_string();
    assert_eq!(registry_artefact("fig3"), reference);
}

#[test]
fn fig5_artefact_matches_free_function_reference() {
    let study = study();
    let cfg = study.config();
    let workloads = study.workloads();
    let table = study.table(Chip::Smt);
    let measured_jobs = (cfg.fcfs_jobs / 2).clamp(2_000, 20_000);
    let loads = [0.8, 0.9, 0.95];

    let mut cells = Vec::new();
    for &load in &loads {
        // Per workload and policy: (turnaround, utilization, empty).
        let mut runs: Vec<Vec<(f64, f64, f64)>> = Vec::new();
        for w in &workloads {
            let rates = table.workload_rates(w).expect("valid workload");
            let view = table.workload_view(w).expect("valid workload");
            let fcfs_tp = fcfs_throughput(&rates, cfg.fcfs_jobs, JobSize::Deterministic, cfg.seed)
                .expect("fcfs runs")
                .throughput;
            let best = optimal_schedule(&rates, Objective::MaxThroughput).expect("lp solves");
            let targets = maxtp_targets(&rates, &best.fractions);
            let latency_cfg = LatencyConfig {
                arrival_rate: load * fcfs_tp,
                measured_jobs,
                warmup_jobs: measured_jobs / 10,
                sizes: SizeDist::Exponential,
                seed: cfg.seed ^ (load * 1000.0) as u64,
            };
            let mut per_policy = Vec::new();
            for policy in fig5::POLICIES {
                let mut sched = policy
                    .latency_scheduler(&targets)
                    .expect("latency policy has a scheduler");
                let report = run_latency_experiment(&view, sched.as_mut(), &latency_cfg)
                    .expect("experiment runs");
                per_policy.push((
                    report.mean_turnaround,
                    report.utilization,
                    report.empty_fraction,
                ));
            }
            runs.push(per_policy);
        }
        let mut row = Vec::new();
        for pi in 0..fig5::POLICIES.len() {
            let tnorm: Vec<f64> = runs.iter().map(|r| r[pi].0 / r[0].0).collect();
            let util: Vec<f64> = runs.iter().map(|r| r[pi].1).collect();
            let empty: Vec<f64> = runs.iter().map(|r| r[pi].2).collect();
            row.push(fig5::Cell {
                turnaround_vs_fcfs: mean(&tnorm),
                utilization: mean(&util),
                empty_fraction: mean(&empty),
            });
        }
        cells.push(row);
    }
    let reference = fig5::Fig5 {
        loads: loads.to_vec(),
        cells,
        workloads: workloads.len(),
    }
    .to_string();
    let artefact = registry_artefact("fig5");
    assert_eq!(artefact, reference);
    assert_golden("fig5", &artefact, FIG5_GOLDEN);
}

#[test]
fn fig6_artefact_matches_free_function_reference() {
    let study = study();
    let cfg = study.config();
    let table = study.table(Chip::Smt);
    let measured_jobs = (cfg.fcfs_jobs / 2).clamp(2_000, 20_000);

    let mut points = Vec::new();
    for w in study.workloads() {
        let rates = table.workload_rates(&w).expect("valid workload");
        let view = table.workload_view(&w).expect("valid workload");
        let (worst, best) = throughput_bounds(&rates).expect("bounds solve");
        let targets = maxtp_targets(&rates, &best.fractions);
        let batch_cfg = BatchConfig {
            jobs: measured_jobs,
            sizes: SizeDist::Deterministic,
            seed: cfg.seed ^ 0xF16,
        };
        let mut achieved = Vec::new();
        for policy in Policy::LATENCY {
            let mut sched = policy
                .latency_scheduler(&targets)
                .expect("latency policy has a scheduler");
            let report =
                run_batch_experiment(&view, sched.as_mut(), &batch_cfg).expect("experiment runs");
            achieved.push(report.throughput);
        }
        let fcfs = achieved[0];
        points.push(fig6::Point {
            lp_max: best.throughput / fcfs,
            lp_min: worst.throughput / fcfs,
            maxit: achieved[1] / fcfs,
            srpt: achieved[2] / fcfs,
            maxtp: achieved[3] / fcfs,
        });
    }
    points.sort_by(|a, b| a.lp_max.partial_cmp(&b.lp_max).expect("finite"));
    let means = fig6::Point {
        lp_max: mean(&points.iter().map(|p| p.lp_max).collect::<Vec<_>>()),
        lp_min: mean(&points.iter().map(|p| p.lp_min).collect::<Vec<_>>()),
        maxit: mean(&points.iter().map(|p| p.maxit).collect::<Vec<_>>()),
        srpt: mean(&points.iter().map(|p| p.srpt).collect::<Vec<_>>()),
        maxtp: mean(&points.iter().map(|p| p.maxtp).collect::<Vec<_>>()),
    };
    let reference = fig6::Fig6 { points, means }.to_string();
    let artefact = registry_artefact("fig6");
    assert_eq!(artefact, reference);
    assert_golden("fig6", &artefact, FIG6_GOLDEN);
}

#[test]
fn fairness_artefact_matches_free_function_reference() {
    let study = study();
    let cfg = study.config();
    let table = study.table(Chip::Smt);
    let mut experiments = Vec::new();
    for w in study.workloads() {
        let rates = table.workload_rates(&w).expect("valid workload");
        experiments
            .push(fairness_experiment(&rates, cfg.fcfs_jobs, cfg.seed).expect("experiment runs"));
    }
    let gains: Vec<f64> = experiments
        .iter()
        .map(|e| e.optimal_after / e.optimal_before - 1.0)
        .collect();
    let before: Vec<f64> = experiments.iter().map(|e| e.fraction_before).collect();
    let after: Vec<f64> = experiments.iter().map(|e| e.fraction_after).collect();
    let fcfs: Vec<f64> = experiments
        .iter()
        .map(|e| (e.fcfs_after / e.fcfs_before - 1.0).abs())
        .collect();
    let worst: Vec<f64> = experiments
        .iter()
        .map(|e| (e.worst_after / e.worst_before - 1.0).abs())
        .collect();
    let reference = paperbench::experiments::fairness::Fairness {
        optimal_gain: mean(&gains),
        fraction_before: mean(&before),
        fraction_after: mean(&after),
        fcfs_shift: mean(&fcfs),
        worst_shift: mean(&worst),
        workloads: experiments.len(),
    }
    .to_string();
    assert_eq!(registry_artefact("fairness"), reference);
}

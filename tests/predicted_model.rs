//! End-to-end wiring of the `predict` subsystem through the public API:
//! a [`PredictedModel`] is a rate source like any other — single
//! [`Session`]s consume it directly, and [`Session::sweep`] consumes its
//! materialised predicted table — and the sampled-fit pipeline
//! (plan → sampled table → fit → analyse) runs through the facade alone.

use symbiotic_scheduling::prelude::*;
use symbiotic_scheduling::symbiosis::optimal_schedule;

/// Ground-truth contention law over a 6-benchmark suite on 4 contexts:
/// each benchmark's per-slot IPC degrades affinely in the co-runner
/// counts, with pair-specific sensitivities — so different mixes have
/// genuinely different optimal throughputs, and workload rankings carry
/// signal a fitted model must reproduce.
fn truth_ipc(combo: &[usize]) -> Vec<f64> {
    let mut counts = [0u32; 6];
    for &b in combo {
        counts[b] += 1;
    }
    combo
        .iter()
        .map(|&b| {
            let base = 0.8 + 0.15 * b as f64;
            let mut factor = 1.0;
            for (j, &c) in counts.iter().enumerate() {
                let beta = 0.02 + 0.015 * ((b * 5 + j * 3) % 7) as f64 / 7.0;
                factor -= beta * c as f64;
            }
            base * factor
        })
        .collect()
}

fn fitted_model(budget: usize) -> (PerfTable, PredictedModel) {
    let names: Vec<String> = (0..6).map(|b| format!("bench{b}")).collect();
    let full = PerfTable::synthetic(names.clone(), 4, truth_ipc).expect("full table");
    let plan = stratified_plan(6, 4, budget, 0xD16).expect("plan");
    let sampled =
        PerfTable::synthetic_sampled(names, 4, plan.indices(), truth_ipc).expect("sampled table");
    let model = PredictedModel::from_table(
        &sampled,
        &[0, 1, 2, 3, 4, 5],
        WorkUnit::Weighted,
        Box::new(InterferenceFitter),
    )
    .expect("fit");
    (full, model)
}

/// `Session::builder().rates(&model)` — a predicted model drives every
/// throughput policy exactly like a measured view.
#[test]
fn session_accepts_a_predicted_model_as_rate_source() {
    let (_, model) = fitted_model(60);
    let report = Session::builder()
        .rates(&model)
        .policies([Policy::Worst, Policy::FcfsMarkov, Policy::Optimal])
        .run()
        .expect("session over predicted rates");
    let worst = report.throughput(Policy::Worst).unwrap();
    let fcfs = report.throughput(Policy::FcfsMarkov).unwrap();
    let best = report.throughput(Policy::Optimal).unwrap();
    assert!(worst <= fcfs + 1e-9 && fcfs <= best + 1e-9);
    // Partial support means the latency policies run too.
    let latency = Session::builder()
        .rates(&model)
        .policy(Policy::Fcfs)
        .fcfs_jobs(2_000)
        .seed(11)
        .run()
        .expect("batch leg over predicted rates");
    assert!(latency.rows[0].batch.is_some());
}

/// `Session::sweep()` over the model's materialised predicted table: per
/// sub-workload, the sweep rows match sessions run directly on the
/// model's predicted `WorkloadRates`.
#[test]
fn sweep_accepts_a_predicted_table_as_rate_source() {
    let (_, model) = fitted_model(60);
    let names: Vec<String> = (0..6).map(|b| format!("bench{b}")).collect();
    let predicted = model.to_table(names).expect("predicted table");
    let workloads: Vec<Vec<usize>> = vec![vec![0, 1, 2], vec![1, 3, 5], vec![0, 2, 4]];
    let sweep = Session::sweep()
        .table(&predicted)
        .workloads(workloads.clone())
        .unit(WorkUnit::Plain)
        .policies([Policy::Worst, Policy::Optimal])
        .threads(2)
        .run()
        .expect("sweep over predicted table");
    assert_eq!(sweep.len(), 3);
    for (row, w) in sweep.rows.iter().zip(&workloads) {
        let rates = model.workload_rates(w).expect("predicted rates");
        let direct = Session::builder()
            .rates(&rates)
            .policies([Policy::Worst, Policy::Optimal])
            .run()
            .expect("direct session");
        for policy in [Policy::Worst, Policy::Optimal] {
            let via_sweep = row.report.throughput(policy).unwrap();
            let via_model = direct.throughput(policy).unwrap();
            assert!(
                (via_sweep - via_model).abs() <= 1e-9 * via_model.abs().max(1.0),
                "workload {w:?}, policy {policy}: {via_sweep} vs {via_model}"
            );
        }
    }
}

/// The pipeline's point: a ≤ 50% budget reproduces the measured OPTIMAL
/// landscape closely, and refitting with the full enumeration only
/// improves it.
#[test]
fn sampled_fit_tracks_the_measured_optimal_landscape() {
    let (full, model) = fitted_model(40);
    let workloads = enumerate_workloads(6, 3);
    let measured: Vec<f64> = workloads
        .iter()
        .map(|w| {
            let rates = full.workload_rates(w).expect("measured rates");
            optimal_schedule(&rates, Objective::MaxThroughput)
                .expect("lp")
                .throughput
        })
        .collect();
    let predicted: Vec<f64> = workloads
        .iter()
        .map(|w| {
            let rates = model.workload_rates(w).expect("predicted rates");
            optimal_schedule(&rates, Objective::MaxThroughput)
                .expect("lp")
                .throughput
        })
        .collect();
    let tau = stats::kendall_tau(&measured, &predicted).expect("tau");
    assert!(tau > 0.8, "rank agreement too weak: tau = {tau}");
    let err = model
        .error_against(&full.workload_rates(&[0, 1, 2, 3, 4, 5]).unwrap())
        .unwrap();
    assert!(err.mean_abs_rel < 0.05, "mean error {}", err.mean_abs_rel);
}

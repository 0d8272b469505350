//! Predict instead of measure: fit an interference model on a *sampled*
//! performance table, then sweep workloads on predicted rates and compare
//! against the fully measured sweep.
//!
//! ```text
//! cargo run --release --example predicted_sweep
//! ```
//!
//! The flow is the `predict` crate's sampled-table pipeline end to end:
//!
//! 1. a stratified seeded [`SamplePlan`] picks a ~30% measurement budget;
//! 2. [`PerfTable::synthetic_sampled`] "measures" only that budget (a real
//!    study would call `PerfTable::build_sampled` with a simulator);
//! 3. each [`Fitter`] turns the samples into a [`PredictedModel`];
//! 4. `Session::sweep()` runs the same workloads on the measured table and
//!    on the model's predicted table, and the error summary says how much
//!    scheduling signal the ≪100% budget preserved.

use symbiotic_scheduling::prelude::*;

/// Ground truth: per-slot IPC with per-benchmark base speeds and
/// pair-specific affine contention — a machine whose workload rankings
/// carry real signal.
fn truth_ipc(combo: &[usize]) -> Vec<f64> {
    let mut counts = [0u32; 8];
    for &b in combo {
        counts[b] += 1;
    }
    combo
        .iter()
        .map(|&b| {
            let base = 0.7 + 0.12 * b as f64;
            let mut factor = 1.0;
            for (j, &c) in counts.iter().enumerate() {
                factor -= (0.015 + 0.012 * ((b * 3 + j * 5) % 6) as f64 / 6.0) * c as f64;
            }
            base * factor
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const SUITE: usize = 8;
    const CONTEXTS: usize = 4;
    const BUDGET: usize = 100;

    let names: Vec<String> = (0..SUITE).map(|b| format!("bench{b}")).collect();
    let types: Vec<usize> = (0..SUITE).collect();

    // The fully measured reference (what sampling avoids re-running).
    let measured = PerfTable::synthetic(names.clone(), CONTEXTS, truth_ipc)?;

    // Measure only the stratified budget.
    let plan = stratified_plan(SUITE, CONTEXTS, BUDGET, 0x5EED)?;
    println!(
        "sampling {} of {} combos ({:.0}%):",
        plan.len(),
        plan.total(),
        100.0 * plan.fraction()
    );
    for s in plan.strata() {
        println!(
            "  size {}: {:>3} of {:>3} combos",
            s.size, s.chosen, s.available
        );
    }
    let sampled = PerfTable::synthetic_sampled(names.clone(), CONTEXTS, plan.indices(), truth_ipc)?;

    // Sweep every N = 3 workload on measured rates...
    let workloads = enumerate_workloads(SUITE, 3);
    let measured_sweep = Session::sweep()
        .table(&measured)
        .workloads(workloads.clone())
        .policies([Policy::Optimal, Policy::FcfsMarkov])
        .run()?;
    let measured_optimal = measured_sweep.throughputs(Policy::Optimal);

    // ... then on each fitter's predictions.
    println!(
        "\npredicted-vs-measured over {} workloads:",
        workloads.len()
    );
    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>10}",
        "fitter", "table MAE", "table max", "opt MAE", "rank tau"
    );
    let fitters: [Box<dyn Fitter>; 2] = [Box::new(BottleneckFitter), Box::new(InterferenceFitter)];
    for fitter in fitters {
        let model = PredictedModel::from_table(&sampled, &types, WorkUnit::Weighted, fitter)?;
        let table_err = model.error_against(&measured.workload_rates(&types)?)?;

        let predicted_table = model.to_table(names.clone())?;
        let predicted_sweep = Session::sweep()
            .table(&predicted_table)
            .workloads(workloads.clone())
            .unit(WorkUnit::Plain)
            .policies([Policy::Optimal, Policy::FcfsMarkov])
            .run()?;
        let predicted_optimal = predicted_sweep.throughputs(Policy::Optimal);

        let opt_mae = measured_optimal
            .iter()
            .zip(&predicted_optimal)
            .map(|(m, p)| (p / m - 1.0).abs())
            .sum::<f64>()
            / measured_optimal.len() as f64;
        let tau = stats::kendall_tau(&measured_optimal, &predicted_optimal).unwrap();
        println!(
            "{:<18} {:>9.2}% {:>9.2}% {:>9.2}% {:>+10.2}",
            model.fitter_name(),
            100.0 * table_err.mean_abs_rel,
            100.0 * table_err.max_abs_rel,
            100.0 * opt_mae,
            tau
        );
    }

    println!(
        "\n(the affine generator is exactly representable by the interference\n\
         fitter, so its errors collapse to numerical noise; the bottleneck\n\
         fit shows what the rigid one-resource model gives up)"
    );
    Ok(())
}

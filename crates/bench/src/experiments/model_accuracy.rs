//! Beyond the paper: the first *simulated* (sampled + predicted)
//! N = 12 / K = 8 table.
//!
//! The paper predicts co-run performance from per-job profiles instead of
//! measuring every combination; this experiment makes that move on the
//! big-machine scenario the reproduction could previously only *synthesise*
//! ([`crate::experiments::n12_k8`]). A stratified seeded sample of at most
//! 10% of the 125 969-combo K = 8 sweep is "measured" (the deterministic
//! analytic machine stands in for the simulator at this scale — the point
//! is the budget, not the oracle), an interference model is fitted per
//! [`predict::Fitter`], and the fitted [`predict::PredictedModel`] is then
//! scored three ways against the fully measured reference:
//!
//! 1. **throughput error** over all 75 582 full coschedules (most never
//!    sampled);
//! 2. **OPTIMAL rank agreement** — Kendall tau between measured and
//!    predicted per-workload OPTIMAL throughputs, with the predicted leg
//!    running through `Session::sweep()` over the model's materialised
//!    predicted table; and
//! 3. the headline **N = 12 / K = 8 policy table** (OPTIMAL / WORST /
//!    FCFS-MARKOV), with the predicted column produced by a [`session`]
//!    `Session` consuming the [`predict::PredictedModel`] directly — the
//!    ROADMAP's "model-predicted rate sources" rung, end to end.

use std::fmt;

use predict::{
    samples_from_table, stratified_plan, BottleneckFitter, ErrorSummary, Fitter,
    InterferenceFitter, PredictedModel,
};
use session::Policy;
use symbiosis::enumerate_workloads;
use workloads::{PerfTable, WorkUnit};

use crate::experiments::n12_k8::{self, CONTEXTS, SUITE};
use crate::study::StudyConfig;
use crate::{kendall_tau, pct};

/// Combos actually measured: 12 000 of 125 969 (9.5%, within the ≤ 10%
/// acceptance budget).
pub const SAMPLE_BUDGET: usize = 12_000;

/// Job types per rank-agreement workload (the paper's N = 4 mixes).
pub const RANK_WORKLOAD_SIZE: usize = 4;

/// Measurement budget of the `--simulated-k8` leg: 300 of the 3 002
/// simulated combos (10.0%, same acceptance budget as the synthetic leg).
pub const SIMULATED_SAMPLE_BUDGET: usize = 300;

/// One fitter's scorecard.
#[derive(Debug, Clone, PartialEq)]
pub struct FitterRow {
    /// Fitter registry name.
    pub fitter: &'static str,
    /// Training samples (the measured subset).
    pub samples: usize,
    /// In-sample residual summary (fit quality on measured combos).
    pub fit: ErrorSummary,
    /// Predicted-vs-measured throughput error over every full coschedule.
    pub full: ErrorSummary,
    /// Kendall tau between measured and predicted per-workload OPTIMAL
    /// throughputs.
    pub rank_tau: f64,
}

/// One headline-policy comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRow {
    /// The policy evaluated on both rate sources.
    pub policy: Policy,
    /// Throughput under the fitted predicted model.
    pub predicted: f64,
    /// Throughput under the fully measured reference table.
    pub measured: f64,
}

/// The `--simulated-k8` leg: the predict-instead-of-measure move on the
/// *really simulated* smt8 table — train on a stratified ≤ 10% sample,
/// score against every simulated combo.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedAccuracy {
    /// Benchmarks in the simulated sub-suite.
    pub suite: usize,
    /// Training samples (the stratified ≤ 10% measurement plan, minus any
    /// combos the simulator window starved).
    pub train: usize,
    /// Simulated coschedules in the full table.
    pub total: usize,
    /// In-sample residual summary on the training combos.
    pub fit: ErrorSummary,
    /// Predicted-vs-simulated throughput error over every full
    /// K = 8 coschedule (the vast majority never trained on).
    pub full: ErrorSummary,
}

/// Result of the model-accuracy experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelAccuracy {
    /// Combos measured.
    pub budget: usize,
    /// Combos in the full enumeration.
    pub total: usize,
    /// Seed the sampling plan was drawn from.
    pub seed: u64,
    /// Per-fitter scorecards, in fitter order.
    pub rows: Vec<FitterRow>,
    /// Workloads behind the rank-agreement column.
    pub rank_workloads: usize,
    /// Fitter used for the headline table.
    pub headline_fitter: &'static str,
    /// The simulated (sampled + predicted) N = 12 / K = 8 policy table.
    pub headline: Vec<PolicyRow>,
    /// The really-simulated smt8 generalisation leg, when
    /// [`StudyConfig::simulated_k8`] is set.
    pub simulated: Option<SimulatedAccuracy>,
}

/// Runs the full experiment: both fitters, rank agreement, and the
/// headline table with OPTIMAL / WORST / FCFS-MARKOV.
///
/// # Errors
///
/// Propagates sampling/fit/analysis failures as strings.
pub fn run(cfg: &StudyConfig) -> Result<ModelAccuracy, String> {
    run_with(cfg, &[Policy::Worst, Policy::Optimal, Policy::FcfsMarkov])
}

/// [`run`] with an explicit headline policy list (tests use an LP-only
/// list: the 75 582-state Markov chain is a release-build affair).
///
/// # Errors
///
/// Propagates sampling/fit/analysis failures as strings.
pub fn run_with(cfg: &StudyConfig, headline: &[Policy]) -> Result<ModelAccuracy, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();

    // The fully measured reference: the analytic K = 8 machine, swept
    // exhaustively (what the sampled pipeline is trying to avoid needing).
    let measured = n12_k8::synthetic_table()?;
    let types: Vec<usize> = (0..SUITE).collect();
    let truth = measured.workload_rates(&types).map_err(|e| err(&e))?;

    // Measure only the stratified sample budget.
    let plan = stratified_plan(SUITE, CONTEXTS, SAMPLE_BUDGET, cfg.seed).map_err(|e| err(&e))?;
    debug_assert!(plan.fraction() <= 0.10, "acceptance budget is 10%");
    let names = n12_k8::suite_names();
    let sampled = PerfTable::synthetic_sampled(names.clone(), CONTEXTS, plan.indices(), |combo| {
        (0..combo.len())
            .map(|slot| n12_k8::slot_ipc(combo, slot))
            .collect()
    })
    .map_err(|e| err(&e))?;
    let samples = samples_from_table(&sampled, &types, WorkUnit::Weighted).map_err(|e| err(&e))?;

    // Rank-agreement leg: measured OPTIMAL landscape over N = 4 mixes.
    let workloads = cfg.sample_workloads(enumerate_workloads(SUITE, RANK_WORKLOAD_SIZE));
    let measured_sweep = cfg
        .sweep(&measured, workloads.clone())
        .policies([Policy::Optimal])
        .run()
        .map_err(|e| err(&e))?;
    let measured_optimal = measured_sweep.throughputs(Policy::Optimal);

    let fitters: Vec<Box<dyn Fitter>> =
        vec![Box::new(BottleneckFitter), Box::new(InterferenceFitter)];
    let mut rows = Vec::with_capacity(fitters.len());
    let mut headline_rows = Vec::new();
    let headline_fitter = InterferenceFitter.name();
    for fitter in fitters {
        let model =
            PredictedModel::fit(SUITE, CONTEXTS, samples.clone(), fitter).map_err(|e| err(&e))?;

        // Predicted OPTIMAL landscape through the sweep surface: the
        // predicted table is a rate source like any other.
        let predicted_table = model.to_table(names.clone()).map_err(|e| err(&e))?;
        let predicted_sweep = cfg
            .sweep(&predicted_table, workloads.clone())
            .unit(WorkUnit::Plain)
            .policies([Policy::Optimal])
            .run()
            .map_err(|e| err(&e))?;
        let tau = kendall_tau(
            &measured_optimal,
            &predicted_sweep.throughputs(Policy::Optimal),
        )
        .ok_or_else(|| "degenerate rank-agreement sample".to_string())?;

        if model.fitter_name() == headline_fitter {
            // The headline N = 12 leg: a Session consuming the predicted
            // model directly, against the same Session on measured rates.
            let predicted_report = cfg
                .session()
                .rates(&model)
                .policies(headline.iter().copied())
                .run()
                .map_err(|e| err(&e))?;
            let measured_report = cfg
                .session()
                .rates(&truth)
                .policies(headline.iter().copied())
                .run()
                .map_err(|e| err(&e))?;
            headline_rows = headline
                .iter()
                .map(|&policy| PolicyRow {
                    policy,
                    predicted: predicted_report.throughput(policy).expect("row present"),
                    measured: measured_report.throughput(policy).expect("row present"),
                })
                .collect();
        }

        rows.push(FitterRow {
            fitter: model.fitter_name(),
            samples: model.samples().len(),
            fit: model.fit_error(),
            full: model.error_against(&truth).map_err(|e| err(&e))?,
            rank_tau: tau,
        });
    }

    let simulated = if cfg.simulated_k8 {
        Some(simulated_leg(cfg)?)
    } else {
        None
    };

    Ok(ModelAccuracy {
        budget: plan.len(),
        total: plan.total(),
        seed: cfg.seed,
        rows,
        rank_workloads: workloads.len(),
        headline_fitter,
        headline: headline_rows,
        simulated,
    })
}

/// The `--simulated-k8` leg: fit the interference model on a stratified
/// ≤ 10% sample ([`SIMULATED_SAMPLE_BUDGET`]) of the *really simulated*
/// smt8 table and score it against every simulated combo — the same
/// predict-instead-of-measure move as the synthetic pipeline, but with a
/// cycle-level simulator as the oracle.
fn simulated_leg(cfg: &StudyConfig) -> Result<SimulatedAccuracy, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let suite = StudyConfig::K8_SUITE.len();
    let table = cfg.build_k8_table().map_err(|e| err(&e))?;
    let contexts = table.contexts();
    let types: Vec<usize> = (0..suite).collect();
    let truth = table.workload_rates(&types).map_err(|e| err(&e))?;
    let all = samples_from_table(&table, &types, WorkUnit::Weighted).map_err(|e| err(&e))?;
    let total = all.len();

    // The stratified plan indexes the size-major coschedule enumeration;
    // map its indices to count vectors (recorded-combo order is sorted by
    // combo, not by enumeration position).
    let plan =
        stratified_plan(suite, contexts, SIMULATED_SAMPLE_BUDGET, cfg.seed).map_err(|e| err(&e))?;
    debug_assert!(plan.fraction() <= 0.10, "acceptance budget is 10%");
    let picked: std::collections::HashSet<usize> = plan.indices().iter().copied().collect();
    let mut selected: std::collections::HashSet<Vec<u32>> =
        std::collections::HashSet::with_capacity(picked.len());
    let mut idx = 0usize;
    for size in 1..=contexts {
        for combo in symbiosis::CoscheduleIter::new(suite, size) {
            if picked.contains(&idx) {
                selected.insert(combo.counts().to_vec());
            }
            idx += 1;
        }
    }

    // Drop the occasional sample where a thread starved outright within
    // the simulator window (a present type with rate 0 is unfittable and,
    // at paper-scale windows, unobserved).
    let train: Vec<_> = all
        .into_iter()
        .filter(|s| selected.contains(&s.counts))
        .filter(|s| {
            s.counts
                .iter()
                .zip(&s.rates)
                .all(|(&c, &r)| c == 0 || r > 0.0)
        })
        .collect();
    let model = PredictedModel::fit(suite, contexts, train, Box::new(InterferenceFitter))
        .map_err(|e| err(&e))?;
    Ok(SimulatedAccuracy {
        suite,
        train: model.samples().len(),
        total,
        fit: model.fit_error(),
        full: model.error_against(&truth).map_err(|e| err(&e))?,
    })
}

impl fmt::Display for ModelAccuracy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Model accuracy: sampled + predicted rates for N = {SUITE} on K = {CONTEXTS} contexts"
        )?;
        writeln!(
            f,
            "measured {} of {} combos ({:.1}%, stratified by size, seed {:#x})\n",
            self.budget,
            self.total,
            100.0 * self.budget as f64 / self.total as f64,
            self.seed
        )?;
        writeln!(
            f,
            "{:<18} {:>8} {:>12} {:>12} {:>10} {:>10}",
            "fitter", "samples", "fit MAE", "table MAE", "p95", "rank tau"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<18} {:>8} {:>11.2}% {:>11.2}% {:>9.2}% {:>+10.2}",
                r.fitter,
                r.samples,
                100.0 * r.fit.mean_abs_rel,
                100.0 * r.full.mean_abs_rel,
                100.0 * r.full.p95_abs_rel,
                r.rank_tau
            )?;
        }
        writeln!(
            f,
            "(table MAE/p95: throughput error over all {} full coschedules; \
             rank tau over {} N = {RANK_WORKLOAD_SIZE} workloads)",
            self.rows
                .first()
                .map(|r| r.full.coschedules)
                .unwrap_or_default(),
            self.rank_workloads
        )?;
        if !self.headline.is_empty() {
            writeln!(
                f,
                "\nSimulated (sampled + predicted) N = {SUITE} / K = {CONTEXTS} table \
                 — {} fitter:",
                self.headline_fitter
            )?;
            writeln!(
                f,
                "{:<14} {:>12} {:>12} {:>9}",
                "policy", "predicted", "measured", "error"
            )?;
            for row in &self.headline {
                writeln!(
                    f,
                    "{:<14} {:>12.4} {:>12.4} {:>9}",
                    row.policy.name(),
                    row.predicted,
                    row.measured,
                    pct(row.predicted / row.measured - 1.0)
                )?;
            }
        }
        if let Some(sim) = &self.simulated {
            writeln!(
                f,
                "\nReally-simulated smt8 leg ({} benchmarks, trained on {} of {} \
                 simulated combos, stratified):",
                sim.suite, sim.train, sim.total
            )?;
            writeln!(
                f,
                "fit MAE {:.2}%, full-coschedule MAE {:.2}% (p95 {:.2}%) over {} combos",
                100.0 * sim.fit.mean_abs_rel,
                100.0 * sim.full.mean_abs_rel,
                100.0 * sim.full.p95_abs_rel,
                sim.full.coschedules
            )?;
        }
        writeln!(
            f,
            "\nThe ≤ 10% budget replaces {} measurements with model predictions —\n\
             the paper's predict-instead-of-measure move at the scale the\n\
             exhaustive sweep cannot reach.",
            self.total - self.budget
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole pipeline at debug-test scale: LP-only headline (the
    /// 75 582-state Markov chain runs in the release binaries and CI),
    /// reduced rank-agreement sample.
    #[test]
    fn sampled_predicted_pipeline_scores_both_fitters() {
        let mut cfg = StudyConfig::fast();
        cfg.sample = Some(4);
        let res = run_with(&cfg, &[Policy::Optimal]).unwrap();
        assert!(res.simulated.is_none(), "simulated leg is opt-in");

        // Acceptance: the budget stays within 10% of the full sweep.
        assert_eq!(res.budget, SAMPLE_BUDGET);
        assert_eq!(res.total, 125_969);
        assert!((res.budget as f64) <= 0.10 * res.total as f64);

        assert_eq!(res.rows.len(), 2);
        assert_eq!(res.rows[0].fitter, "bottleneck");
        assert_eq!(res.rows[1].fitter, "interference-lsq");
        for row in &res.rows {
            assert_eq!(row.samples, SAMPLE_BUDGET);
            assert_eq!(row.full.coschedules, 75_582);
            assert!(row.full.mean_abs_rel.is_finite() && row.full.mean_abs_rel >= 0.0);
            assert!((-1.0..=1.0).contains(&row.rank_tau));
        }
        // The richer model must beat the rigid bottleneck baseline on the
        // full-table error (the generator is not a pure bottleneck).
        assert!(
            res.rows[1].full.mean_abs_rel < res.rows[0].full.mean_abs_rel,
            "interference {} vs bottleneck {}",
            res.rows[1].full.mean_abs_rel,
            res.rows[0].full.mean_abs_rel
        );
        // The fitted model tracks the measured machine usefully: single-digit
        // mean error and a strongly positive workload ranking agreement.
        assert!(
            res.rows[1].full.mean_abs_rel < 0.10,
            "mean err {}",
            res.rows[1].full.mean_abs_rel
        );
        assert!(res.rows[1].rank_tau > 0.0, "tau {}", res.rows[1].rank_tau);

        // Headline table: predicted vs measured OPTIMAL at N = 12.
        assert_eq!(res.headline.len(), 1);
        let h = &res.headline[0];
        assert_eq!(h.policy, Policy::Optimal);
        assert!(h.predicted > 0.0 && h.measured > 0.0);
        assert!(
            (h.predicted / h.measured - 1.0).abs() < 0.15,
            "predicted {} vs measured {}",
            h.predicted,
            h.measured
        );
    }

    /// The `--simulated-k8` leg: trained on a stratified 10% of the
    /// really-simulated table, scored over every simulated combo.
    #[test]
    fn simulated_k8_leg_fits_a_stratified_sample() {
        let mut cfg = StudyConfig::fast();
        cfg.warmup_cycles = 500;
        cfg.measure_cycles = 1_500;
        cfg.simulated_k8 = true;
        let res = simulated_leg(&cfg).unwrap();
        assert_eq!(res.suite, 6);
        assert_eq!(res.total, 3_002);
        // The 300-combo budget, minus any combos starved by the tiny test
        // windows.
        assert!(
            (250..=SIMULATED_SAMPLE_BUDGET).contains(&res.train),
            "train {} of {SIMULATED_SAMPLE_BUDGET}",
            res.train
        );
        assert!(res.fit.mean_abs_rel.is_finite() && res.fit.mean_abs_rel >= 0.0);
        assert!(res.full.mean_abs_rel.is_finite());
        // Tiny windows are noisy; the stratified fit must still land in a
        // usable band on the real simulated machine (paper-scale windows
        // land far tighter).
        assert!(res.full.mean_abs_rel < 0.5, "MAE {}", res.full.mean_abs_rel);
    }
}

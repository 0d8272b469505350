//! The big-machine scaling scenario: N ∈ {4, 8, 12} job types on a
//! synthetic 8-context machine, driven through [`session::Session::sweep`].
//!
//! This extends the Section V-B sensitivity study ([`crate::experiments::n8`])
//! past what exhaustive simulation can reach: a K = 8 performance table
//! over 12 benchmarks spans 125 969 combos, and the N = 12 scheduling LP
//! has `C(19, 8)` = 75 582 coschedule columns. The table therefore comes
//! from a deterministic analytic contention model
//! ([`synthetic_table`]); the LP legs beyond
//! `symbiosis::DEFAULT_LP_DENSE_LIMIT` coschedules run through column
//! generation and the large FCFS Markov chains through the sparse
//! Gauss–Seidel path — the solver frontier this scenario exists to
//! exercise.

use std::fmt;
use std::time::Instant;

use session::Policy;
use simproc::MachineConfig;
use symbiosis::{enumerate_workloads, CoscheduleIter};
use workloads::PerfTable;

use crate::experiments::ExperimentError;
use crate::study::StudyConfig;
use crate::{max, mean, pct};

/// Hardware contexts of the synthetic big machine.
pub const CONTEXTS: usize = 8;

/// Benchmarks in the synthetic suite (mirrors the paper's 12).
pub const SUITE: usize = 12;

/// Benchmarks in the K = 10 stress leg's sub-suite. Eight types on ten
/// contexts put the single full workload at `C(17, 10)` = 19 448
/// coschedules — past both the LP dense limit (column generation) and the
/// Markov acceleration limit (color-ordered sequential SOR) — while the
/// sub-suite table stays cheap enough to build on every run.
pub const K10_SUITE: usize = 8;

/// One workload-size leg of the scaling scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Leg {
    /// Job types per workload.
    pub n: usize,
    /// Coschedules per rate table (`C(n + K - 1, K)`).
    pub coschedules: usize,
    /// Mean optimal gain over FCFS across the leg's workloads.
    pub mean_gain: f64,
    /// Maximum gain observed.
    pub max_gain: f64,
    /// Workloads analysed.
    pub workloads: usize,
}

/// The really-simulated leg: the same scenario shape on a table that was
/// *simulated* (smt8 machine, [`crate::study::StudyConfig::K8_SUITE`]
/// sub-suite) rather than synthesised. Present only when
/// [`crate::study::StudyConfig::simulated_k8`] is set.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedLeg {
    /// Benchmarks in the simulated sub-suite.
    pub suite: usize,
    /// Coschedules in the simulated table (all sizes 1..=K).
    pub table_combos: usize,
    /// The scaling leg over that table.
    pub leg: Leg,
}

/// The K = 10 stress leg: the full [`K10_SUITE`]-type workload on the
/// ten-context machine ([`simproc::MachineConfig::smt10`]'s shape over the
/// synthetic contention model), compared OPTIMAL vs the exact FCFS Markov
/// chain — the largest stationary solve the scenario exercises.
#[derive(Debug, Clone, PartialEq)]
pub struct K10Leg {
    /// Hardware contexts (10, from [`simproc::MachineConfig::smt10`]).
    pub contexts: usize,
    /// Benchmarks in the sub-suite ([`K10_SUITE`]).
    pub suite: usize,
    /// Coschedules in the sub-suite table (all sizes 1..=10).
    pub table_combos: usize,
    /// The stress leg itself.
    pub leg: Leg,
}

/// Result of the scaling scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct N12K8 {
    /// One entry per analysed workload size, in request order.
    pub legs: Vec<Leg>,
    /// The really-simulated smt8 leg, when
    /// [`crate::study::StudyConfig::simulated_k8`] is set.
    pub simulated: Option<SimulatedLeg>,
    /// The always-on K = 10 stress leg.
    pub k10: K10Leg,
}

/// Deterministic per-slot IPC model of the synthetic 8-context machine:
/// per-benchmark solo speeds, contention growing with occupancy, relief
/// growing with coschedule heterogeneity (the symbiosis the optimal
/// scheduler can exploit), plus a small benchmark-pair-specific term so
/// rate tables are not perfectly symmetric.
pub(crate) fn slot_ipc(combo: &[usize], slot: usize) -> f64 {
    let b = combo[slot];
    let base = 0.6 + 0.11 * (b % 7) as f64 + 0.04 * (b / 7) as f64;
    let k = combo.len() as f64;
    if combo.len() == 1 {
        return base;
    }
    let distinct = {
        let mut d = 1;
        for w in combo.windows(2) {
            if w[0] != w[1] {
                d += 1;
            }
        }
        d as f64
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in combo {
        h = (h ^ c as u64).wrapping_mul(0x100_0000_01b3);
    }
    h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    let jitter = 0.97 + 0.06 * (h % 1000) as f64 / 1000.0;
    base * (1.0 / (1.0 + 0.21 * (k - 1.0))) * (0.82 + 0.28 * distinct / k) * jitter
}

/// Benchmark names of the synthetic suite — shared with the
/// `model_accuracy` experiment so its sampled table labels the same
/// machine identically.
pub(crate) fn suite_names() -> Vec<String> {
    (0..SUITE).map(|b| format!("syn{b:02}")).collect()
}

/// Builds the synthetic K = 8 performance table (streamed, never
/// simulated).
///
/// # Errors
///
/// Propagates table validation failures as strings (cannot happen for the
/// built-in model).
pub fn synthetic_table() -> Result<PerfTable, String> {
    PerfTable::synthetic(suite_names(), CONTEXTS, |combo| {
        (0..combo.len()).map(|slot| slot_ipc(combo, slot)).collect()
    })
    .map_err(|e| e.to_string())
}

/// Runs the full scenario: N = 4, 8 and 12 on the 8-context machine.
///
/// # Errors
///
/// The table's or the sweeps' errors.
pub fn run(cfg: &StudyConfig) -> Result<N12K8, ExperimentError> {
    run_for(cfg, &[4, 8, 12])
}

/// Runs the scenario for explicit workload sizes (tests use a reduced
/// list; the binary runs all three). Each leg's sweep wall time goes
/// to stderr.
///
/// # Errors
///
/// The table's or the sweeps' errors.
pub fn run_for(cfg: &StudyConfig, ns: &[usize]) -> Result<N12K8, ExperimentError> {
    let table = synthetic_table()?;
    let mut legs = Vec::with_capacity(ns.len());
    for &n in ns {
        let workloads = cfg.sample_workloads(enumerate_workloads(SUITE, n));
        legs.push(sweep_leg(
            cfg,
            &table,
            n,
            CONTEXTS,
            workloads,
            Policy::FcfsEvent,
        )?);
    }
    let simulated = if cfg.simulated_k8 {
        Some(simulated_leg(cfg)?)
    } else {
        None
    };
    let k10 = k10_leg(cfg)?;
    Ok(N12K8 {
        legs,
        simulated,
        k10,
    })
}

/// The K = 10 stress leg: builds the sub-suite synthetic table for the
/// ten-context machine and sweeps its single full workload with
/// OPTIMAL (column generation) vs FCFS-MARKOV (19 448 states, the
/// accelerated color-ordered SOR path).
fn k10_leg(cfg: &StudyConfig) -> Result<K10Leg, ExperimentError> {
    let contexts = MachineConfig::smt10().contexts();
    let names: Vec<String> = suite_names().into_iter().take(K10_SUITE).collect();
    let table = PerfTable::synthetic(names, contexts, |combo| {
        (0..combo.len()).map(|slot| slot_ipc(combo, slot)).collect()
    })?;
    // One workload: all K10_SUITE types at once.
    let workloads = enumerate_workloads(K10_SUITE, K10_SUITE);
    Ok(K10Leg {
        contexts,
        suite: K10_SUITE,
        table_combos: table.len(),
        leg: sweep_leg(
            cfg,
            &table,
            K10_SUITE,
            contexts,
            workloads,
            Policy::FcfsMarkov,
        )?,
    })
}

/// The `--simulated-k8` leg: N = 4 workloads from the really-simulated
/// smt8 sub-suite table ([`StudyConfig::build_k8_table`]), swept with the
/// same OPTIMAL-vs-FCFS comparison as the synthetic legs.
fn simulated_leg(cfg: &StudyConfig) -> Result<SimulatedLeg, ExperimentError> {
    let suite = StudyConfig::K8_SUITE.len();
    let n = 4;
    let table = cfg.build_k8_table()?;
    let workloads = cfg.sample_workloads(enumerate_workloads(suite, n));
    Ok(SimulatedLeg {
        suite,
        table_combos: table.len(),
        leg: sweep_leg(cfg, &table, n, CONTEXTS, workloads, Policy::FcfsEvent)?,
    })
}

/// Sweeps `workloads` of `n` types on `table` (a `contexts`-context
/// machine), OPTIMAL against `baseline`, into one leg. The sweep's wall
/// time goes to stderr: it is not part of the artefact.
fn sweep_leg(
    cfg: &StudyConfig,
    table: &PerfTable,
    n: usize,
    contexts: usize,
    workloads: Vec<Vec<usize>>,
    baseline: Policy,
) -> Result<Leg, ExperimentError> {
    let start = Instant::now();
    let sweep = cfg.run_sweep(
        cfg.sweep(table, workloads)
            .policies([Policy::Optimal, baseline]),
    )?;
    eprintln!(
        "n12_k8: N = {n} on K = {contexts} swept in {:.2?}",
        start.elapsed()
    );
    let gains = sweep.gains(Policy::Optimal, baseline);
    Ok(Leg {
        n,
        coschedules: CoscheduleIter::count_total(n, contexts),
        mean_gain: mean(&gains),
        max_gain: max(&gains),
        workloads: sweep.len(),
    })
}

/// One formatted leg row, shared by every table in the report.
fn leg_row(f: &mut fmt::Formatter<'_>, leg: &Leg) -> fmt::Result {
    writeln!(
        f,
        "{:<6} {:>12} {:>12} {:>12} {:>10}",
        leg.n,
        leg.coschedules,
        pct(leg.mean_gain),
        pct(leg.max_gain),
        leg.workloads,
    )
}

/// The shared column header.
fn leg_header(f: &mut fmt::Formatter<'_>) -> fmt::Result {
    writeln!(
        f,
        "{:<6} {:>12} {:>12} {:>12} {:>10}",
        "N", "coschedules", "mean gain", "max gain", "workloads"
    )
}

impl fmt::Display for N12K8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Big-machine scaling: N job types on K = {CONTEXTS} contexts (synthetic suite)"
        )?;
        leg_header(f)?;
        for leg in &self.legs {
            leg_row(f, leg)?;
        }
        if let Some(sim) = &self.simulated {
            writeln!(
                f,
                "\nReally-simulated smt8 leg ({} benchmarks, {} simulated combos):",
                sim.suite, sim.table_combos
            )?;
            leg_header(f)?;
            leg_row(f, &sim.leg)?;
        }
        writeln!(
            f,
            "\nK = {} stress leg ({} benchmarks, {} combos, OPTIMAL vs FCFS-MARKOV):",
            self.k10.contexts, self.k10.suite, self.k10.table_combos
        )?;
        leg_header(f)?;
        leg_row(f, &self.k10.leg)?;
        writeln!(
            f,
            "\nLP legs past {} coschedules run column generation; sparse FCFS Markov\n\
             chains past {} states run a color-ordered sequential SOR sweep. The\n\
             N = 12 table (75 582 coschedules) was the ROADMAP's 'bigger machines'\n\
             blocker; the K = 10 leg's 19 448-state chain proves the accelerated\n\
             stationary solver end-to-end.",
            symbiosis::DEFAULT_LP_DENSE_LIMIT,
            symbiosis::DEFAULT_MARKOV_ACCEL_LIMIT
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_legs_run_through_sweep_and_colgen() {
        let mut cfg = StudyConfig::fast();
        cfg.sample = Some(4);
        cfg.fcfs_jobs = 2_000;
        // N = 8 on K = 8 is 6435 coschedules — past the dense limit, so
        // this leg exercises column generation end-to-end through
        // Session::sweep(); N = 4 (165) stays dense.
        let res = run_for(&cfg, &[4, 8]).unwrap();
        assert_eq!(res.legs.len(), 2);
        assert!(res.simulated.is_none(), "simulated leg is opt-in");
        assert_eq!(res.legs[0].coschedules, 165);
        assert_eq!(res.legs[1].coschedules, 6435);
        assert!(res.legs[1].coschedules > symbiosis::DEFAULT_LP_DENSE_LIMIT);
        for leg in &res.legs {
            // The optimal scheduler can only gain over FCFS; the synthetic
            // model's heterogeneity bonus guarantees real headroom.
            assert!(
                leg.mean_gain > -1e-9,
                "N={} mean gain {}",
                leg.n,
                leg.mean_gain
            );
            assert!(leg.max_gain < 1.0, "gains stay plausible");
            assert_eq!(leg.workloads, 4);
        }
        // The always-on K = 10 stress leg: the single full workload of the
        // sub-suite, with a chain big enough for the accelerated solver.
        let k10 = &res.k10;
        assert_eq!(k10.contexts, 10);
        assert_eq!(k10.suite, K10_SUITE);
        assert_eq!(k10.leg.n, K10_SUITE);
        assert_eq!(k10.leg.coschedules, 19_448);
        assert!(k10.leg.coschedules > symbiosis::DEFAULT_MARKOV_ACCEL_LIMIT);
        assert_eq!(k10.leg.workloads, 1);
        assert!(
            k10.leg.mean_gain > -1e-9,
            "OPTIMAL >= FCFS-MARKOV, got gain {}",
            k10.leg.mean_gain
        );
        assert!(k10.leg.max_gain < 1.0);
        // All coschedules of K10_SUITE benchmarks, sizes 1..=10.
        let expected: usize = (1..=k10.contexts)
            .map(|s| CoscheduleIter::count_total(K10_SUITE, s))
            .sum();
        assert_eq!(k10.table_combos, expected);
    }

    /// The `--simulated-k8` leg end-to-end at tiny simulator windows:
    /// really-simulated smt8 table, OPTIMAL-vs-FCFS sweep over N = 4
    /// workloads of the six-benchmark sub-suite.
    #[test]
    fn simulated_leg_sweeps_the_really_simulated_smt8_table() {
        let mut cfg = StudyConfig::fast();
        cfg.warmup_cycles = 500;
        cfg.measure_cycles = 1_500;
        cfg.sample = Some(3);
        cfg.fcfs_jobs = 2_000;
        cfg.simulated_k8 = true;
        let res = run_for(&cfg, &[]).unwrap();
        assert!(res.legs.is_empty());
        let sim = res.simulated.expect("gated leg runs when the flag is set");
        assert_eq!(sim.suite, StudyConfig::K8_SUITE.len());
        // All coschedules of 6 benchmarks, sizes 1..=8.
        let expected: usize = (1..=CONTEXTS)
            .map(|s| CoscheduleIter::count_total(sim.suite, s))
            .sum();
        assert_eq!(sim.table_combos, expected);
        assert_eq!(expected, 3_002);
        assert_eq!(sim.leg.n, 4);
        assert_eq!(sim.leg.coschedules, 165);
        assert_eq!(sim.leg.workloads, 3);
        assert!(sim.leg.mean_gain > -1e-9, "gain {}", sim.leg.mean_gain);
        assert!(sim.leg.max_gain < 1.0);
    }

    #[test]
    fn synthetic_table_is_complete_and_deterministic() {
        let a = synthetic_table().unwrap();
        assert_eq!(a.contexts(), CONTEXTS);
        // Sum over sizes 1..=8 of C(11 + s, s).
        let expected: usize = (1..=CONTEXTS)
            .map(|s| CoscheduleIter::count_total(SUITE, s))
            .sum();
        assert_eq!(a.len(), expected);
        assert_eq!(expected, 125_969);
        let b = synthetic_table().unwrap();
        assert_eq!(a, b, "model is deterministic");
    }
}

//! `bigchain`: the big-machine solver tiers on the `n12_k8` synthetic
//! K = 8 table.
//!
//! A pass runs OPTIMAL, WORST and FCFS-MARKOV through `Session::sweep()`
//! on three legs: a seeded strided sample of N = 6 workloads (1 287
//! coschedules: dense LP, Gauss–Seidel chain), one of N = 8 workloads
//! (6 435: column generation, accelerated chain) and the single N = 12
//! workload (75 582: column generation, accelerated chain). No DES runs.
//! Work items are workloads solved.

use session::{Policy, Session, SweepReport};
use symbiosis::{
    enumerate_workloads, fcfs_throughput_markov, markov_chain, optimal_schedule, Objective,
};
use workloads::PerfTable;

use crate::analyze::{check_order, item_s};
use crate::report::{
    default_seed, measured, median, record_timing, record_trace_cost, repeat_passes, repeat_setup,
    timed, Checks, Digest, Metrics, Outcome, THREADS,
};
use crate::Args;

const POLICIES: [Policy; 3] = [Policy::Optimal, Policy::Worst, Policy::FcfsMarkov];

/// One leg: workloads of one size, all on one solver tier.
struct Leg {
    /// `n6`, `n8` or `n12`.
    name: &'static str,
    /// Markov solver tier the leg's chains take: `gs`, `accel` or `big`.
    tier: &'static str,
    /// Whether the leg's LPs are past the dense-tableau limit.
    colgen: bool,
    workloads: Vec<Vec<usize>>,
    /// Sweep threads. The accelerated Markov tier already runs its sweeps
    /// on every core, so its legs evaluate one workload at a time.
    threads: usize,
}

/// `count` workloads of `n` types, evenly strided over the enumeration
/// from a seed-chosen offset.
fn strided(n: usize, count: usize, seed: u64) -> Vec<Vec<usize>> {
    let all = enumerate_workloads(12, n);
    let stride = all.len() / count;
    let offset = (seed % stride as u64) as usize;
    (0..count)
        .map(|i| all[offset + i * stride].clone())
        .collect()
}

fn legs(seed: u64) -> Vec<Leg> {
    vec![
        Leg {
            name: "n6",
            tier: "gs",
            colgen: false,
            workloads: strided(6, 48, seed),
            threads: THREADS,
        },
        Leg {
            name: "n8",
            tier: "accel",
            colgen: true,
            workloads: strided(8, 24, seed),
            threads: 1,
        },
        Leg {
            name: "n12",
            tier: "big",
            colgen: true,
            workloads: enumerate_workloads(12, 12),
            threads: 1,
        },
    ]
}

fn sweep(table: &PerfTable, leg: &Leg) -> Result<SweepReport, String> {
    Session::sweep()
        .table(table)
        .workloads(leg.workloads.clone())
        .policies(POLICIES)
        .threads(leg.threads)
        .run()
        .map_err(|e| e.to_string())
}

/// One pass: each leg's report and wall seconds.
fn pass(table: &PerfTable, legs: &[Leg]) -> Result<Vec<(SweepReport, f64)>, String> {
    legs.iter()
        .map(|leg| {
            let (report, secs) = timed(|| sweep(table, leg));
            Ok((report?, secs))
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut table_s = Vec::new();
    let (table, setup) = repeat_setup(|| {
        let (table, secs) = timed(paperbench::experiments::n12_k8::synthetic_table);
        table_s.push(secs);
        table
    })?;
    let legs = legs(args.seed);
    let items: u64 = legs.iter().map(|l| l.workloads.len() as u64).sum();
    let mut checks = Checks::default();
    let mut first = None;
    let mut check_pass = |checks: &mut Checks, reports: &[(SweepReport, f64)]| {
        checks.attempt(items);
        let mut d = Digest::new();
        for (report, _) in reports {
            for row in &report.rows {
                check_order(checks, row);
                for pr in &row.report.rows {
                    d.f64(pr.throughput);
                }
            }
        }
        let digest = d.finish();
        checks.same_as_first(&mut first, digest, items);
        digest
    };
    let mut digest = 0;
    let passes = repeat_passes(args.seconds, || {
        let (reports, cost) = measured(|| pass(&table, &legs));
        digest = check_pass(&mut checks, &reports?);
        Ok(cost)
    })?;
    let applies = default_seed(args);
    checks.reference("bigchain.digest", digest, applies, items);

    let mut layers = Metrics::new();
    if args.trace {
        let recorder = obs::Recorder::new();
        let traced = {
            let _obs = obs::install(&recorder);
            measured(|| pass(&table, &legs))
        };
        let (reports, traced) = (traced.0?, traced.1);
        check_pass(&mut checks, &reports);
        let legs_s: f64 = reports.iter().map(|(_, secs)| secs).sum();
        record_trace_cost(&mut layers, legs_s, traced, &passes);
        let mut pool_s = 0.0;
        let mut capacity_s = 0.0;
        for (leg, (report, secs)) in legs.iter().zip(&reports) {
            layers.insert(format!("session.sweep_s.{}", leg.name), *secs);
            pool_s += item_s(report);
            capacity_s += leg.threads as f64 * secs;
        }
        layers.insert("session.pool_util".into(), pool_s / capacity_s);
        layers.insert("workloads.synthetic_table_s".into(), median(&table_s));
        probe_solvers(&table, &legs, &reports, &mut layers, &mut checks)?;
        for key in [
            "lp.sweeps.gs",
            "lp.sweeps.accel",
            "lp.sweeps.big",
            "lp.colgen.pricing_rounds",
        ] {
            checks.reference(
                &format!("bigchain.{key}"),
                layers[key] as u64,
                applies,
                items,
            );
        }
    }
    Ok(Outcome {
        setup,
        passes,
        items_per_pass: items,
        checks,
        layers,
    })
}

/// Sum of the stationary solvers' sweep counters in `snapshot`.
fn sweeps(snapshot: &obs::MetricsSnapshot) -> u64 {
    [
        "lp.gauss_seidel.sweeps",
        "lp.sor.sweeps",
        "lp.multicolor.sweeps",
    ]
    .iter()
    .filter_map(|k| snapshot.counters.get(*k))
    .sum()
}

/// Sequential chain assembly, Markov solve and OPTIMAL LP per workload,
/// each under its own recorder, checked against the traced pass's rows.
fn probe_solvers(
    table: &PerfTable,
    legs: &[Leg],
    reports: &[(SweepReport, f64)],
    layers: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let (mut dense_ms, mut colgen_ms) = (Vec::new(), Vec::new());
    let mut pricing_rounds = 0;
    for (leg, (report, _)) in legs.iter().zip(reports) {
        checks.attempt(leg.workloads.len() as u64);
        let (mut chain_ms, mut solve_ms) = (Vec::new(), Vec::new());
        let mut leg_sweeps = 0;
        for (w, row) in leg.workloads.iter().zip(&report.rows) {
            let rates = table.workload_rates(w).map_err(|e| e.to_string())?;
            let (_, chain_s) = timed(|| std::hint::black_box(markov_chain(&rates)));
            chain_ms.push(chain_s * 1e3);

            let recorder = obs::Recorder::new();
            let (markov, markov_s) = {
                let _obs = obs::install(&recorder);
                timed(|| fcfs_throughput_markov(&rates))
            };
            let markov = markov.map_err(|e| e.to_string())?;
            solve_ms.push((markov_s - chain_s) * 1e3);
            leg_sweeps += sweeps(&recorder.snapshot());

            let recorder = obs::Recorder::new();
            let (opt, lp_s) = {
                let _obs = obs::install(&recorder);
                timed(|| optimal_schedule(&rates, Objective::MaxThroughput))
            };
            let opt = opt.map_err(|e| e.to_string())?;
            let rounds = recorder
                .snapshot()
                .counters
                .get("lp.colgen.pricing_rounds")
                .copied();
            pricing_rounds += rounds.unwrap_or(0);
            if leg.colgen {
                &mut colgen_ms
            } else {
                &mut dense_ms
            }
            .push(lp_s * 1e3);

            let same = row.report.throughput(Policy::FcfsMarkov) == Some(markov.throughput)
                && row.report.throughput(Policy::Optimal) == Some(opt.throughput);
            checks.check(1, same, || {
                format!("{w:?}: sequential solves differ from the sweep row")
            });
        }
        layers.insert(
            format!("symbiosis.markov_chain_ms.{}", leg.tier),
            median(&chain_ms),
        );
        layers.insert(
            format!("symbiosis.markov_solve_ms.{}", leg.tier),
            median(&solve_ms),
        );
        layers.insert(format!("lp.sweeps.{}", leg.tier), leg_sweeps as f64);
    }
    record_timing(layers, "lp.dense_ms", &dense_ms, None);
    record_timing(layers, "lp.colgen_ms", &colgen_ms, None);
    layers.insert("lp.colgen.pricing_rounds".into(), pricing_rounds as f64);
    Ok(())
}

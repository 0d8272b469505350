//! Benchmarks of the performance-critical kernels behind the paper's
//! experiments: the simplex solver, the coschedule simulator, the FCFS
//! estimators, and the discrete-event scheduler step.
//!
//! Self-contained harness (no external bench framework): each kernel is
//! auto-calibrated to a target batch duration, timed over several batches,
//! and reported as the median ns/iteration. `cargo bench -p paperbench`
//! prints the table and rewrites `BENCH_session.json` at the workspace
//! root so successive PRs accumulate a perf trajectory.
//!
//! With `BENCH_SMOKE=1` the harness runs every kernel on a reduced budget
//! (shorter batches, fewer of them) — CI uses that to guarantee the
//! emitted JSON never silently loses a kernel: after the run the harness
//! checks [`EXPECTED_BENCHMARKS`] against the results and exits non-zero
//! on any gap.

use std::hint::black_box;
use std::time::Instant;

use dist::{loopback_pair, run_worker, Coordinator, DistConfig, WorkerConfig};
use lp::sparse::stationary_sor;
use lp::{LinearProgram, Relation};
use queueing::{
    run_batch_experiment, run_latency_experiment, BatchConfig, ContentionModel, LatencyConfig,
    SizeDist,
};
use session::{Policy, Session};
use simproc::{BenchmarkProfile, Machine, MachineConfig};
use symbiosis::{
    enumerate_coschedules, enumerate_workloads, fcfs_throughput, fcfs_throughput_markov,
    markov_chain, optimal_schedule, CoscheduleIter, JobSize, Objective, RateModel, WorkloadRates,
};
use workloads::{spec2006, PerfTable, TableStore};

/// Every kernel the harness must emit; the post-run check fails the
/// process if `BENCH_session.json` would miss one, so perf-trajectory
/// coverage cannot silently rot.
const EXPECTED_BENCHMARKS: &[&str] = &[
    "lp/optimal_schedule_n4_k4",
    "lp/optimal_schedule_n8_k4",
    "lp/optimal_colgen_n12_k8",
    "lp/raw_simplex_20x8",
    "simproc/smt4_coschedule_5k_cycles",
    "simproc/quadcore_coschedule_5k_cycles",
    "simproc/smt4_coschedule_paper_window",
    "simproc/quadcore_coschedule_paper_window",
    "fcfs/event_sim_5k_jobs",
    "fcfs/event_sim_40k_jobs_exp",
    "fcfs/markov_chain_35_states",
    "fcfs/markov_sparse_n12_k4",
    "fcfs/markov_sparse_n12_k8",
    "fcfs/markov_sor_n12_k8",
    "fcfs/markov_sparse_n12_k10",
    "fcfs/markov_sweep_n8_k8",
    "rates/flat_lookup_n12_k8",
    "table/build_3bench_tiny_windows",
    "table/store_warm_load_3bench",
    "des/latency_2k_jobs_fcfs",
    "des/latency_2k_jobs_maxit",
    "des/latency_2k_jobs_srpt",
    "des/latency_2k_jobs_maxtp",
    "des/latency_saturated_2k_jobs_srpt",
    "des/batch_300_jobs_srpt",
    "sweep/latency_fig5_leg",
    "predict/fit_sampled_n12_k8",
    "predict/error_against_n8_k8",
    "predict/refit_stream_n8_k8",
    "serve/steady_state_jobs_sec",
    "dist/sweep_495_mixes_3_workers",
    "enumerate/coschedules_12_choose_4_multiset",
    "enumerate/stream_vs_vec",
];

/// Solver-iteration counters summed into the optional `solver_iters`
/// trajectory field: one deterministic convergence figure per kernel, so
/// `bench-delta` can flag a solver that starts needing more sweeps to
/// converge even when wall time stays flat.
const SOLVER_ITER_COUNTERS: &[&str] = &[
    "lp.gauss_seidel.sweeps",
    "lp.sor.sweeps",
    "lp.colgen.pricing_rounds",
];

/// One benchmark's outcome.
struct Measurement {
    name: &'static str,
    median_ns: f64,
    batches: usize,
    iters_per_batch: u64,
    /// Total solver sweeps/pricing rounds one untimed probe run recorded
    /// (`None` for kernels that never touch the iterative solvers).
    solver_iters: Option<u64>,
}

/// True when CI asks for the reduced-budget smoke run.
fn smoke_mode() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Times `f` adaptively: calibrates an iteration count for ~40ms batches
/// (~4ms under `BENCH_SMOKE`), then reports the median per-iteration time
/// over 7 batches (3 under smoke).
fn bench<F: FnMut()>(name: &'static str, mut f: F) -> Measurement {
    let (target_batch_ns, batches): (f64, usize) = if smoke_mode() {
        (4_000_000.0, 3)
    } else {
        (40_000_000.0, 7)
    };

    // Warm up and calibrate.
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = t0.elapsed().as_nanos() as f64;
        if elapsed >= target_batch_ns / 4.0 || iters >= 1 << 20 {
            let scale = (target_batch_ns / elapsed.max(1.0)).clamp(0.25, 1024.0);
            iters = ((iters as f64 * scale) as u64).max(1);
            break;
        }
        iters *= 4;
    }

    let mut per_iter: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    // One untimed probe run under a private recorder: the deterministic
    // solvers report their sweep counts, which become the kernel's
    // convergence figure in the trajectory file.
    let rec = obs::Recorder::new();
    {
        let _obs = obs::install(&rec);
        f();
    }
    let snap = rec.snapshot();
    let solver_iters: u64 = SOLVER_ITER_COUNTERS
        .iter()
        .filter_map(|k| snap.counters.get(*k))
        .sum();

    Measurement {
        name,
        median_ns: per_iter[batches / 2],
        batches,
        iters_per_batch: iters,
        solver_iters: (solver_iters > 0).then_some(solver_iters),
    }
}

/// The Section IV scheduling LP at paper scale: 35 coschedule variables,
/// 4 equality constraints.
fn scheduling_rates() -> WorkloadRates {
    WorkloadRates::build(4, 4, |s| {
        let per_job = [1.0, 0.8, 0.5, 0.3];
        let het = s.heterogeneity() as f64;
        s.counts()
            .iter()
            .zip(per_job)
            .map(|(&c, r)| c as f64 * r * (0.55 + 0.12 * het))
            .collect()
    })
    .expect("valid table")
}

/// A deterministic symbiosis-sensitive table at an arbitrary `(N, K)`
/// shape — backing the big-machine scaling kernels.
fn scaling_rates(n: usize, k: usize) -> WorkloadRates {
    WorkloadRates::build(n, k, |s| {
        let het = s.heterogeneity() as f64 / k as f64;
        s.counts()
            .iter()
            .enumerate()
            .map(|(b, &c)| {
                if c == 0 {
                    0.0
                } else {
                    c as f64 * (0.5 + 0.07 * b as f64) * (0.3 + 0.25 * het)
                }
            })
            .collect()
    })
    .expect("valid table")
}

fn main() {
    let mut results: Vec<Measurement> = Vec::new();

    let rates = scheduling_rates();
    results.push(bench("lp/optimal_schedule_n4_k4", || {
        black_box(optimal_schedule(&rates, Objective::MaxThroughput).expect("solves"));
    }));

    // A larger LP: N = 8 -> 330 variables, 8 constraints.
    let big = WorkloadRates::build(8, 4, |s| {
        let het = s.heterogeneity() as f64;
        s.counts()
            .iter()
            .enumerate()
            .map(|(b, &cnt)| cnt as f64 * (0.3 + 0.08 * b as f64) * (0.6 + 0.1 * het))
            .collect()
    })
    .expect("valid table");
    results.push(bench("lp/optimal_schedule_n8_k4", || {
        black_box(optimal_schedule(&big, Objective::MaxThroughput).expect("solves"));
    }));

    // The big-machine frontier: N = 12 on K = 8 is 75 582 coschedule
    // columns — far past the dense-tableau threshold, so this solve runs
    // the column-generation path (dense is ~infeasible at this shape).
    let huge = scaling_rates(12, 8);
    results.push(bench("lp/optimal_colgen_n12_k8", || {
        black_box(optimal_schedule(&huge, Objective::MaxThroughput).expect("solves"));
    }));

    results.push(bench("lp/raw_simplex_20x8", || {
        let mut p = LinearProgram::maximize(&[1.0; 20]);
        for i in 0..8 {
            let row: Vec<f64> = (0..20)
                .map(|j| ((i * 7 + j * 3) % 11) as f64 / 11.0)
                .collect();
            p.constraint(&row, Relation::Le, 1.0 + i as f64 * 0.1);
        }
        black_box(p.solve().expect("solves"));
    }));

    let suite = spec2006();
    let machine =
        Machine::new(MachineConfig::smt4().with_windows(1_000, 4_000)).expect("valid config");
    results.push(bench("simproc/smt4_coschedule_5k_cycles", || {
        black_box(
            machine
                .simulate(&[&suite[0], &suite[5], &suite[7], &suite[11]])
                .expect("simulates"),
        );
    }));
    let quad =
        Machine::new(MachineConfig::quadcore().with_windows(1_000, 4_000)).expect("valid config");
    results.push(bench("simproc/quadcore_coschedule_5k_cycles", || {
        black_box(
            quad.simulate(&[&suite[0], &suite[5], &suite[7], &suite[11]])
                .expect("simulates"),
        );
    }));
    // One coschedule at the paper's windows (60 k warm-up + 240 k measured
    // cycles): the unit of work behind every cold paper-scale table build.
    let paper_smt4 = Machine::new(MachineConfig::smt4()).expect("valid config");
    results.push(bench("simproc/smt4_coschedule_paper_window", || {
        black_box(
            paper_smt4
                .simulate(&[&suite[0], &suite[5], &suite[7], &suite[11]])
                .expect("simulates"),
        );
    }));
    let paper_quad = Machine::new(MachineConfig::quadcore()).expect("valid config");
    results.push(bench("simproc/quadcore_coschedule_paper_window", || {
        black_box(
            paper_quad
                .simulate(&[&suite[0], &suite[5], &suite[7], &suite[11]])
                .expect("simulates"),
        );
    }));

    results.push(bench("fcfs/event_sim_5k_jobs", || {
        black_box(fcfs_throughput(&rates, 5_000, JobSize::Deterministic, 1).expect("runs"));
    }));
    // The FCFS-EVENT shape of every analysis sweep row: a 4-type table on
    // 4 contexts, exponential job sizes, 40 000 jobs.
    results.push(bench("fcfs/event_sim_40k_jobs_exp", || {
        black_box(fcfs_throughput(&rates, 40_000, JobSize::Exponential, 1).expect("runs"));
    }));
    results.push(bench("fcfs/markov_chain_35_states", || {
        black_box(fcfs_throughput_markov(&rates).expect("solves"));
    }));

    // Sparse Markov chains: 1365 states (N = 12, K = 4) would already be a
    // ~2.5 Gflop dense LU; 75 582 states (K = 8) is flatly out of reach
    // dense. Through the default dispatch K = 4 runs CSR + Gauss–Seidel and
    // K = 8 (past DEFAULT_MARKOV_ACCEL_LIMIT) the color-ordered SOR sweep
    // over the chain assembled in that order, both on one core.
    let scaling_k4 = scaling_rates(12, 4);
    results.push(bench("fcfs/markov_sparse_n12_k4", || {
        black_box(fcfs_throughput_markov(&scaling_k4).expect("solves"));
    }));
    results.push(bench("fcfs/markov_sparse_n12_k8", || {
        black_box(fcfs_throughput_markov(&huge).expect("solves"));
    }));

    // The raw stationary solve on the prebuilt 75 582-state chain: chain
    // assembly is hoisted out of the timer, so this kernel isolates the
    // adaptive-omega SOR iteration. It sweeps the chain in natural state
    // order; the default dispatch sweeps it in color order instead.
    let (huge_inflow, huge_outflow) = markov_chain(&huge);
    results.push(bench("fcfs/markov_sor_n12_k8", || {
        black_box(
            stationary_sor(&huge_inflow, &huge_outflow, None, 1e-12, 20_000).expect("solves"),
        );
    }));

    // K = 10 stress shape: 352 716 states — past DEFAULT_MARKOV_ACCEL_LIMIT,
    // so the default dispatch runs the color-ordered sequential SOR sweep.
    let scaling_k10 = scaling_rates(12, 10);
    results.push(bench("fcfs/markov_sparse_n12_k10", || {
        black_box(fcfs_throughput_markov(&scaling_k10).expect("solves"));
    }));

    // The N = 8 leg of perfbench `bigchain`: FCFS-MARKOV on 24 workloads
    // strided over the 495 eight-type mixes of the K = 8 synthetic table,
    // each a 6 435-state chain on the accelerated tier. Every solve after
    // the first fills the memoized chain structure of its shape.
    let k8_table = paperbench::experiments::n12_k8::synthetic_table().expect("table builds");
    let n8_mixes = enumerate_workloads(12, 8);
    let n8_rates: Vec<WorkloadRates> = n8_mixes
        .iter()
        .skip(1)
        .step_by(n8_mixes.len() / 24)
        .take(24)
        .map(|w| k8_table.workload_rates(w).expect("valid workload"))
        .collect();
    results.push(bench("fcfs/markov_sweep_n8_k8", || {
        for rates in &n8_rates {
            black_box(fcfs_throughput_markov(rates).expect("solves"));
        }
    }));

    // The flat rank-indexed rate probes the Markov generator leans on: one
    // `index_of_counts` + one rate read per state over the full N = 12 /
    // K = 8 enumeration — O(N) arithmetic per probe, no hashing, no heap.
    results.push(bench("rates/flat_lookup_n12_k8", || {
        let mut acc = 0.0f64;
        for (si, s) in huge.coschedules().iter().enumerate() {
            let idx = huge.index_of_counts(s.counts()).expect("in table");
            acc += huge.rate(idx, si % 12);
        }
        black_box(acc);
    }));

    // Cold table build vs warm store load: the gap is what a cached
    // `--table-cache` run skips per table.
    let tiny_suite: Vec<BenchmarkProfile> = suite.iter().take(3).cloned().collect();
    let tiny_config = MachineConfig::smt4().with_windows(1_000, 3_000);
    let tiny_machine = Machine::new(tiny_config.clone()).expect("valid config");
    results.push(bench("table/build_3bench_tiny_windows", || {
        black_box(PerfTable::build(&tiny_machine, &tiny_suite, 4).expect("builds"));
    }));
    let store_dir = std::env::temp_dir().join(format!("symb-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = TableStore::new(&store_dir);
    let warmup = store
        .get_or_build(&tiny_config, &tiny_suite, 4)
        .expect("cold build");
    assert!(!warmup.cache_hit);
    results.push(bench("table/store_warm_load_3bench", || {
        let outcome = store
            .get_or_build(&tiny_config, &tiny_suite, 4)
            .expect("warm load");
        assert!(outcome.cache_hit, "warm run must skip PerfTable::build");
        black_box(outcome.table);
    }));
    let _ = std::fs::remove_dir_all(&store_dir);

    let des_rates = ContentionModel::new(vec![1.0, 0.7, 0.5, 0.3], 0.2, 4);
    let des_cfg = LatencyConfig {
        arrival_rate: 1.2,
        measured_jobs: 2_000,
        warmup_jobs: 200,
        sizes: SizeDist::Exponential,
        seed: 3,
    };
    for policy in [Policy::Fcfs, Policy::MaxIt, Policy::Srpt] {
        let name: &'static str = match policy {
            Policy::Fcfs => "des/latency_2k_jobs_fcfs",
            Policy::MaxIt => "des/latency_2k_jobs_maxit",
            _ => "des/latency_2k_jobs_srpt",
        };
        results.push(bench(name, || {
            let mut sched = policy.latency_scheduler(&[]).expect("latency policy");
            black_box(run_latency_experiment(&des_rates, sched.as_mut(), &des_cfg).expect("runs"));
        }));
    }
    // MAXTP with targets of four same-type jobs, which a queue at this
    // load rarely holds: most events take its MAXIT fallback.
    let fallback_targets = [(vec![4, 0, 0, 0], 0.5), (vec![0, 0, 0, 4], 0.5)];
    results.push(bench("des/latency_2k_jobs_maxtp", || {
        let mut sched = Policy::MaxTp
            .latency_scheduler(&fallback_targets)
            .expect("latency policy");
        black_box(run_latency_experiment(&des_rates, sched.as_mut(), &des_cfg).expect("runs"));
    }));
    // Saturation (Figure 6 style): arrivals at twice the machine's
    // capacity of 2.5 work units per cycle, so thousands of jobs queue and
    // every SRPT decision reads the remaining-work index. Guards the
    // index's O(K log n) per-event cost.
    let saturated_cfg = LatencyConfig {
        arrival_rate: 5.0,
        ..des_cfg.clone()
    };
    results.push(bench("des/latency_saturated_2k_jobs_srpt", || {
        let mut sched = Policy::Srpt.latency_scheduler(&[]).expect("latency policy");
        black_box(
            run_latency_experiment(&des_rates, sched.as_mut(), &saturated_cfg).expect("runs"),
        );
    }));
    // A fixed batch the size of perfbench `analyze`'s batch leg: it starts
    // with every job queued and drains through partial coschedules.
    let batch_cfg = BatchConfig {
        jobs: 300,
        sizes: SizeDist::Exponential,
        seed: 3,
    };
    results.push(bench("des/batch_300_jobs_srpt", || {
        let mut sched = Policy::Srpt.latency_scheduler(&[]).expect("latency policy");
        black_box(run_batch_experiment(&des_rates, sched.as_mut(), &batch_cfg).expect("runs"));
    }));

    // The latency fan-out behind the migrated Figure 5 leg: one shared
    // synthetic table, the four Section VI schedulers per workload
    // (including the LP-target derivation for MAXTP), fanned out through
    // `Session::sweep` with a Poisson-arrival configuration.
    let sweep_table =
        PerfTable::synthetic((0..6).map(|b| format!("syn{b}")).collect(), 4, |combo| {
            combo
                .iter()
                .map(|&b| (0.5 + 0.1 * b as f64) / (1.0 + 0.15 * (combo.len() as f64 - 1.0)))
                .collect()
        })
        .expect("synthetic table builds");
    let sweep_latency_cfg = LatencyConfig {
        arrival_rate: 1.0,
        measured_jobs: 400,
        warmup_jobs: 40,
        sizes: SizeDist::Exponential,
        seed: 7,
    };
    results.push(bench("sweep/latency_fig5_leg", || {
        black_box(
            Session::sweep()
                .table(&sweep_table)
                .workloads(vec![vec![0, 1, 2, 3], vec![1, 2, 4, 5]])
                .policies(Policy::LATENCY)
                .latency(sweep_latency_cfg.clone())
                .seed(7)
                .threads(2)
                .run()
                .expect("sweep runs"),
        );
    }));

    // The sampled-fit kernel behind `model_accuracy`: fitting the richer
    // least-squares interference model to a stratified 12 000-combo sample
    // of the N = 12 / K = 8 enumeration (the ≤ 10% measurement budget).
    // Sample extraction is done once outside the timer — the kernel is the
    // fit itself, the step a residual-driven refit loop would re-run.
    let plan = predict::stratified_plan(12, 8, 12_000, 0x5EED).expect("plan");
    let sampled_table = workloads::PerfTable::synthetic_sampled(
        (0..12).map(|b| format!("syn{b:02}")).collect(),
        8,
        plan.indices(),
        |combo| {
            combo
                .iter()
                .map(|&b| (0.6 + 0.11 * (b % 7) as f64) / (1.0 + 0.2 * (combo.len() as f64 - 1.0)))
                .collect()
        },
    )
    .expect("sampled table builds");
    let fit_samples = predict::samples_from_table(
        &sampled_table,
        &(0..12).collect::<Vec<_>>(),
        workloads::WorkUnit::Weighted,
    )
    .expect("samples extract");
    results.push(bench("predict/fit_sampled_n12_k8", || {
        black_box(
            predict::PredictedModel::fit(
                12,
                8,
                fit_samples.clone(),
                Box::new(predict::InterferenceFitter),
            )
            .expect("fits"),
        );
    }));

    // The model-error evaluation the serve twin runs after every refit:
    // one `error_against` over all 6 435 full coschedules of an 8-type,
    // 8-context truth (grid evaluation included), for a model fitted to
    // the solo and pair coschedules.
    let grid_truth = symbiosis::AnalyticModel::new(8, 8, |counts: &[u32], ty| {
        let distinct = counts.iter().filter(|&&c| c > 0).count() as f64;
        let load: u32 = counts.iter().sum();
        (0.6 + 0.05 * ty as f64) * (1.0 + 0.1 * (distinct - 1.0))
            / (1.0 + 0.3 * (load as f64 - 1.0))
    });
    let grid_model = predict::PredictedModel::fit(
        8,
        8,
        (1..=2)
            .flat_map(|size| CoscheduleIter::new(8, size))
            .map(|c| predict::RateSample {
                counts: c.counts().to_vec(),
                rates: (0..8)
                    .map(|ty| RateModel::total_rate(&grid_truth, c.counts(), ty))
                    .collect(),
            })
            .collect(),
        Box::new(predict::InterferenceFitter),
    )
    .expect("fits");
    results.push(bench("predict/error_against_n8_k8", || {
        black_box(grid_model.error_against(&grid_truth).expect("same shape"));
    }));

    // The serve twin's refit path: from the same solo-and-pair model,
    // 50-sample batches of a seeded shuffle of the truth's multisets grow
    // the training set to ~3 500 samples; each refit is followed by the
    // checks one staleness cycle runs (`residual_quantiles`, `fit_error`,
    // `error_against_grid` over the 6 435 full coschedules).
    let stream_grid = symbiosis::RateGrid::full(&grid_truth).expect("grid builds");
    let stream_sample = |c: &[u32]| predict::RateSample {
        counts: c.to_vec(),
        rates: (0..8)
            .map(|ty| RateModel::total_rate(&grid_truth, c, ty))
            .collect(),
    };
    let stream_seed: Vec<predict::RateSample> = (1..=2)
        .flat_map(|size| CoscheduleIter::new(8, size))
        .map(|c| stream_sample(c.counts()))
        .collect();
    let mut stream: Vec<predict::RateSample> = (3..=8)
        .flat_map(|size| CoscheduleIter::new(8, size))
        .map(|c| stream_sample(c.counts()))
        .collect();
    let mut rng = symbiosis::rng::SplitMix64::new(0x7A1C);
    for i in (1..stream.len()).rev() {
        stream.swap(i, rng.next_range(i as u64 + 1) as usize);
    }
    stream.truncate(3_500 - stream_seed.len());
    results.push(bench("predict/refit_stream_n8_k8", || {
        let mut model = predict::PredictedModel::fit(
            8,
            8,
            stream_seed.clone(),
            Box::new(predict::InterferenceFitter),
        )
        .expect("fits");
        for batch in stream.chunks(50) {
            model.refit(batch).expect("refits");
            black_box(model.residual_quantiles(&[0.9]));
            black_box(model.fit_error());
            black_box(model.error_against_grid(&stream_grid).expect("same shape"));
        }
        black_box(model);
    }));

    // The online-service loop: one complete steady-state serve run —
    // seeded arrivals through the bounded queue, beam placement priced on
    // the live predicted model, inline twin refits — at small scale. The
    // per-iteration time over 200 jobs is the steady-state cost per job a
    // live deployment pays for the whole loop.
    let serve_truth = symbiosis::AnalyticModel::new(4, 4, |counts: &[u32], ty| {
        let distinct = counts.iter().filter(|&&c| c > 0).count() as f64;
        let load: u32 = counts.iter().sum();
        (0.7 + 0.1 * ty as f64) * (1.0 + 0.2 * (distinct - 1.0))
            / (1.0 + 0.35 * (load as f64 - 1.0))
    });
    let serve_seed_samples: Vec<predict::RateSample> = (1..=2)
        .flat_map(|s| enumerate_coschedules(4, s))
        .map(|c| predict::RateSample {
            counts: c.counts().to_vec(),
            rates: (0..4)
                .map(|ty| RateModel::total_rate(&serve_truth, c.counts(), ty))
                .collect(),
        })
        .collect();
    let serve_cfg = serve::ServeConfig {
        arrival_rate: 2.0,
        jobs: 200,
        seed: 11,
        batch: 50,
        probes: 2,
        background_twin: false,
        ..serve::ServeConfig::default()
    };
    results.push(bench("serve/steady_state_jobs_sec", || {
        let model = predict::PredictedModel::fit(
            4,
            4,
            serve_seed_samples.clone(),
            Box::new(predict::InterferenceFitter),
        )
        .expect("fits");
        black_box(
            serve::run_serve(
                &serve_truth,
                model,
                Box::new(serve::BeamPlacer::new(4)),
                &serve_cfg,
            )
            .expect("serves"),
        );
    }));

    // The distributed-sweep round trip at fig1 scale: serialize the table
    // and spec, shard all 495 four-type mixes across three workers over
    // the loopback transport, and merge the rows back in workload order.
    // The delta against a single-process `Session::sweep()` of the same
    // table is the coordination overhead the `dist` crate charges.
    let dist_table =
        PerfTable::synthetic((0..12).map(|b| format!("syn{b:02}")).collect(), 4, |c| {
            c.iter()
                .map(|&b| (0.55 + 0.09 * (b % 5) as f64) / (1.0 + 0.18 * (c.len() as f64 - 1.0)))
                .collect()
        })
        .expect("synthetic table builds");
    results.push(bench("dist/sweep_495_mixes_3_workers", || {
        let coordinator = Coordinator::from_sweep(
            Session::sweep()
                .table(&dist_table)
                .workloads(symbiosis::enumerate_workloads(12, 4))
                .policies([Policy::Worst, Policy::FcfsEvent, Policy::Optimal])
                .fcfs_jobs(2_000)
                .seed(9),
            DistConfig::default(),
        )
        .expect("coordinator builds");
        let mut coordinator_ends = Vec::new();
        let fleet: Vec<_> = (0..3)
            .map(|_| {
                let (c_end, w_end) = loopback_pair();
                coordinator_ends.push(c_end);
                std::thread::spawn(move || {
                    run_worker(
                        w_end,
                        &WorkerConfig {
                            threads: 2,
                            cache: None,
                        },
                    )
                    .expect("worker completes")
                })
            })
            .collect();
        let outcome = coordinator.run(coordinator_ends).expect("sweep merges");
        for handle in fleet {
            handle.join().expect("worker thread");
        }
        assert_eq!(outcome.report.len(), 495);
        black_box(outcome.report);
    }));

    results.push(bench("enumerate/coschedules_12_choose_4_multiset", || {
        black_box(enumerate_coschedules(12, 4));
    }));
    // The streaming iterator drains the same 1365-coschedule space without
    // materialising the Vec — the allocation gap is the point of this pair.
    results.push(bench("enumerate/stream_vs_vec", || {
        black_box(CoscheduleIter::new(12, 4).count());
    }));

    println!(
        "{:<44} {:>14} {:>8} {:>12} {:>12}",
        "kernel", "median ns/iter", "batches", "iters/batch", "solver iters"
    );
    for m in &results {
        println!(
            "{:<44} {:>14.0} {:>8} {:>12} {:>12}",
            m.name,
            m.median_ns,
            m.batches,
            m.iters_per_batch,
            m.solver_iters
                .map_or_else(|| "-".to_string(), |n| n.to_string())
        );
    }

    // Emit the JSON trajectory file at the workspace root.
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, m) in results.iter().enumerate() {
        let solver = m
            .solver_iters
            .map_or_else(String::new, |n| format!(", \"solver_iters\": {n}"));
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns_per_iter\": {:.1}, \"batches\": {}, \"iters_per_batch\": {}{}}}{}\n",
            m.name,
            m.median_ns,
            m.batches,
            m.iters_per_batch,
            solver,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_session.json");
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => {
            // A stale trajectory file must not pass CI's coverage checks.
            eprintln!("could not write {path}: {e}");
            std::process::exit(1);
        }
    }

    // Coverage guard: the trajectory file must contain every expected
    // kernel (and the expected list must track every kernel run), or the
    // harness fails — CI's smoke step relies on this.
    let missing: Vec<&str> = EXPECTED_BENCHMARKS
        .iter()
        .copied()
        .filter(|name| !results.iter().any(|m| m.name == *name))
        .collect();
    let unlisted: Vec<&str> = results
        .iter()
        .map(|m| m.name)
        .filter(|name| !EXPECTED_BENCHMARKS.contains(name))
        .collect();
    if !missing.is_empty() || !unlisted.is_empty() {
        eprintln!("benchmark coverage check failed:");
        if !missing.is_empty() {
            eprintln!("  missing from this run: {missing:?}");
        }
        if !unlisted.is_empty() {
            eprintln!("  not in EXPECTED_BENCHMARKS: {unlisted:?}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "benchmark coverage check passed ({} kernels{})",
        results.len(),
        if smoke_mode() { ", smoke budget" } else { "" }
    );
}

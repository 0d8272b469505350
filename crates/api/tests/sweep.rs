//! Sweep parity and behaviour: a `Session::sweep()` over N workloads must
//! produce rows *bitwise identical* to a sequential loop of single
//! `Session` runs, regardless of worker-thread count, plus error-path and
//! aggregation coverage.

use std::sync::OnceLock;

use session::{Policy, Session, SessionError, SessionReport, SweepError};
use simproc::{BenchmarkProfile, Machine, MachineConfig};
use symbiosis::enumerate_workloads;
use workloads::{spec2006, PerfTable, WorkUnit};

fn tiny_table() -> &'static PerfTable {
    static TABLE: OnceLock<PerfTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let machine =
            Machine::new(MachineConfig::smt4().with_windows(2_000, 6_000)).expect("valid config");
        let suite: Vec<BenchmarkProfile> = spec2006().into_iter().take(5).collect();
        PerfTable::build(&machine, &suite, 4).expect("table builds")
    })
}

const JOBS: u64 = 4_000;
const SEED: u64 = 0xBEEF;

fn sequential(workloads: &[Vec<usize>], policies: &[Policy]) -> Vec<SessionReport> {
    let table = tiny_table();
    workloads
        .iter()
        .map(|w| {
            let view = table.workload_view(w).expect("valid workload");
            Session::builder()
                .rates(&view)
                .policies(policies.iter().copied())
                .fcfs_jobs(JOBS)
                .seed(SEED)
                .run()
                .expect("session runs")
        })
        .collect()
}

#[test]
fn sweep_rows_match_sequential_sessions_bitwise() {
    let table = tiny_table();
    let workloads = enumerate_workloads(5, 4); // all 5 choose 4 = 5 mixes
    let policies = [
        Policy::Optimal,
        Policy::Worst,
        Policy::FcfsMarkov,
        Policy::FcfsEvent,
    ];
    let expected = sequential(&workloads, &policies);
    // Thread counts below, at, and above the workload count: scheduling
    // order must never leak into the results.
    for threads in [1, 3, 16] {
        let sweep = Session::sweep()
            .table(table)
            .workloads(workloads.clone())
            .policies(policies)
            .fcfs_jobs(JOBS)
            .seed(SEED)
            .threads(threads)
            .run()
            .expect("sweep runs");
        assert_eq!(sweep.len(), workloads.len());
        for ((row, w), want) in sweep.rows.iter().zip(&workloads).zip(&expected) {
            assert_eq!(&row.workload, w, "rows stay in request order");
            // PartialEq on PolicyReport compares every f64 — equality here
            // means identical bit patterns for every throughput, fraction
            // and measurement (no NaNs occur in these analyses).
            assert_eq!(&row.report, want, "threads={threads}, workload {w:?}");
            for (pr, want_pr) in row.report.rows.iter().zip(&want.rows) {
                assert_eq!(
                    pr.throughput.to_bits(),
                    want_pr.throughput.to_bits(),
                    "threads={threads}, workload {w:?}, policy {}",
                    pr.policy
                );
            }
        }
    }
}

#[test]
fn sweep_latency_policies_match_sequential_sessions() {
    let table = tiny_table();
    let workloads = vec![vec![0, 1, 2], vec![1, 2, 4]];
    let policies = [Policy::Fcfs, Policy::MaxIt, Policy::MaxTp];
    let expected = sequential(&workloads, &policies);
    let sweep = Session::sweep()
        .table(table)
        .workloads(workloads.clone())
        .policies(policies)
        .fcfs_jobs(JOBS)
        .seed(SEED)
        .threads(2)
        .run()
        .expect("sweep runs");
    for (row, want) in sweep.rows.iter().zip(&expected) {
        assert_eq!(&row.report, want);
    }
}

#[test]
fn latency_policies_without_latency_config_keep_batch_semantics() {
    // Regression: a sweep over latency policies *without* `.latency(..)`
    // must run the single-session default — the fixed-batch (makespan)
    // experiment — for every row, bitwise.
    let table = tiny_table();
    let workloads = vec![vec![0, 1, 2], vec![0, 2, 4]];
    let expected = sequential(&workloads, &Policy::LATENCY);
    let sweep = Session::sweep()
        .table(table)
        .workloads(workloads.clone())
        .policies(Policy::LATENCY)
        .fcfs_jobs(JOBS)
        .seed(SEED)
        .threads(2)
        .run()
        .expect("sweep runs");
    for (row, want) in sweep.rows.iter().zip(&expected) {
        assert_eq!(&row.report, want);
        for pr in &row.report.rows {
            // The `latency: None` row shape: batch measurements present,
            // no arrival-process measurements, no LP fractions.
            assert!(
                pr.batch.is_some(),
                "{}: batch rows carry makespan reports",
                pr.policy
            );
            assert!(pr.latency.is_none(), "{}: no arrival process", pr.policy);
            assert!(pr.fractions.is_none(), "{}: no LP fractions", pr.policy);
            let batch = pr.batch.as_ref().expect("checked above");
            assert!(batch.makespan > 0.0 && pr.throughput > 0.0);
        }
    }
}

#[test]
fn latency_config_sweep_matches_sequential_latency_sessions() {
    // The Poisson-arrival leg: `.latency(cfg)` on the sweep must equal a
    // sequential loop of single sessions carrying the same config.
    let table = tiny_table();
    let workloads = vec![vec![0, 1, 2], vec![1, 3, 4]];
    let cfg = queueing::LatencyConfig {
        arrival_rate: 1.1,
        measured_jobs: 1_500,
        warmup_jobs: 150,
        sizes: queueing::SizeDist::Exponential,
        seed: SEED,
    };
    let expected: Vec<SessionReport> = workloads
        .iter()
        .map(|w| {
            let view = tiny_table().workload_view(w).expect("valid workload");
            Session::builder()
                .rates(&view)
                .policies(Policy::LATENCY)
                .fcfs_jobs(JOBS)
                .seed(SEED)
                .latency(cfg.clone())
                .run()
                .expect("session runs")
        })
        .collect();
    let sweep = Session::sweep()
        .table(table)
        .workloads(workloads.clone())
        .policies(Policy::LATENCY)
        .fcfs_jobs(JOBS)
        .seed(SEED)
        .latency(cfg)
        .threads(2)
        .run()
        .expect("sweep runs");
    for (row, want) in sweep.rows.iter().zip(&expected) {
        assert_eq!(&row.report, want);
        for pr in &row.report.rows {
            assert!(pr.latency.is_some(), "{}: arrival-process rows", pr.policy);
            assert!(pr.batch.is_none(), "{}: no batch leg", pr.policy);
        }
    }
}

#[test]
fn sweep_item_session_carries_the_sweep_knobs() {
    // `SweepItem::session()` must hand custom maps the exact builder
    // `run()` evaluates — same event-leg jobs, seed and sizes — so
    // per-item policy rows stay bitwise equal to standard sweep rows.
    let table = tiny_table();
    let workloads = enumerate_workloads(5, 3);
    let via_run = Session::sweep()
        .table(table)
        .workloads(workloads.clone())
        .policies([Policy::FcfsEvent, Policy::Optimal])
        .fcfs_jobs(JOBS)
        .seed(SEED)
        .run()
        .expect("sweep runs");
    let via_item: Vec<SessionReport> = Session::sweep()
        .table(table)
        .workloads(workloads.clone())
        .fcfs_jobs(JOBS)
        .seed(SEED)
        .threads(3)
        .map(|item| {
            let view = item.view()?;
            item.session()
                .rates(&view)
                .policies([Policy::FcfsEvent, Policy::Optimal])
                .run()
                .map_err(|e| e.to_string())
        })
        .expect("map runs");
    assert_eq!(via_item.len(), via_run.len());
    for (got, want) in via_item.iter().zip(&via_run.rows) {
        assert_eq!(got, &want.report);
    }
}

#[test]
fn plain_unit_sweep_matches_sequential_plain_rates() {
    let table = tiny_table();
    let workloads = vec![vec![0, 1, 2, 3], vec![0, 2, 3, 4]];
    let sweep = Session::sweep()
        .table(table)
        .workloads(workloads.clone())
        .unit(WorkUnit::Plain)
        .policies([Policy::Optimal, Policy::FcfsEvent])
        .fcfs_jobs(JOBS)
        .seed(SEED)
        .run()
        .expect("sweep runs");
    for (row, w) in sweep.rows.iter().zip(&workloads) {
        let rates = table
            .workload_rates_with_unit(w, WorkUnit::Plain)
            .expect("valid workload");
        let want = Session::builder()
            .rates(&rates)
            .policies([Policy::Optimal, Policy::FcfsEvent])
            .fcfs_jobs(JOBS)
            .seed(SEED)
            .run()
            .expect("session runs");
        assert_eq!(&row.report, &want, "workload {w:?}");
    }
}

#[test]
fn aggregation_helpers_fold_the_rows() {
    let table = tiny_table();
    let sweep = Session::sweep()
        .table(table)
        .workloads(enumerate_workloads(5, 4))
        .policies([Policy::Worst, Policy::FcfsEvent, Policy::Optimal])
        .fcfs_jobs(JOBS)
        .seed(SEED)
        .run()
        .expect("sweep runs");
    let best = sweep.throughputs(Policy::Optimal);
    let fcfs = sweep.throughputs(Policy::FcfsEvent);
    let worst = sweep.throughputs(Policy::Worst);
    assert_eq!(best.len(), sweep.len());
    for i in 0..best.len() {
        assert!(worst[i] <= fcfs[i] + 1e-6 && fcfs[i] <= best[i] + 1e-6);
    }
    let mean_gain = sweep.mean_gain(Policy::Optimal, Policy::FcfsEvent);
    assert!(mean_gain >= -1e-9, "optimal dominates FCFS: {mean_gain}");
    let manual: f64 = best
        .iter()
        .zip(&fcfs)
        .map(|(b, f)| b / f - 1.0)
        .sum::<f64>()
        / best.len() as f64;
    assert_eq!(mean_gain.to_bits(), manual.to_bits());
    // Optimal and worst track the same underlying symbiosis.
    assert!(sweep.correlation(Policy::Optimal, Policy::Worst).is_some());
    let display = sweep.to_string();
    assert!(display.contains("OPTIMAL") && display.contains("mean TP"));
}

#[test]
fn map_fans_custom_analyses_in_order() {
    let table = tiny_table();
    let workloads = enumerate_workloads(5, 3);
    let sums: Vec<(usize, f64)> = Session::sweep()
        .table(table)
        .workloads(workloads.clone())
        .threads(4)
        .map(|item| {
            let rates = item.rates()?;
            Ok((item.index(), rates.rate_rows().iter().flatten().sum()))
        })
        .expect("map runs");
    assert_eq!(sums.len(), workloads.len());
    for (i, (idx, total)) in sums.iter().enumerate() {
        assert_eq!(*idx, i, "results in workload order");
        assert!(*total > 0.0);
    }
}

#[test]
fn configuration_errors_surface_before_work() {
    let table = tiny_table();
    // No table.
    let err = Session::sweep()
        .workloads(vec![vec![0, 1]])
        .policy(Policy::Optimal)
        .run()
        .unwrap_err();
    assert!(matches!(err, SweepError::MissingTable), "{err}");
    // No workloads.
    let err = Session::sweep()
        .table(table)
        .policy(Policy::Optimal)
        .run()
        .unwrap_err();
    assert!(matches!(err, SweepError::NoWorkloads), "{err}");
    // No policies.
    let err = Session::sweep()
        .table(table)
        .workload(&[0, 1])
        .run()
        .unwrap_err();
    assert!(
        matches!(err, SweepError::Config(SessionError::NoPolicies)),
        "{err}"
    );
}

#[test]
fn bad_workload_reported_with_context() {
    let table = tiny_table();
    let err = Session::sweep()
        .table(table)
        .workloads(vec![vec![0, 1], vec![4, 2]]) // second is unsorted
        .policy(Policy::Optimal)
        .threads(2)
        .run()
        .unwrap_err();
    match err {
        SweepError::Workload { workload, .. } => assert_eq!(workload, vec![4, 2]),
        other => panic!("expected workload error, got {other}"),
    }
    // Custom map errors carry the same context.
    let err = Session::sweep()
        .table(table)
        .workloads(vec![vec![0, 1], vec![1, 3]])
        .map(|item| {
            if item.workload() == [1, 3] {
                Err("boom".into())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
    match err {
        SweepError::Custom { workload, message } => {
            assert_eq!(workload, vec![1, 3]);
            assert_eq!(message, "boom");
        }
        other => panic!("expected custom error, got {other}"),
    }
}

#[test]
fn merge_of_consecutive_shards_equals_the_full_sweep() {
    let table = tiny_table();
    let workloads = enumerate_workloads(5, 3); // 35 mixes
    let policies = [Policy::Optimal, Policy::Worst, Policy::FcfsEvent];
    let full = Session::sweep()
        .table(table)
        .workloads(workloads.clone())
        .policies(policies)
        .fcfs_jobs(JOBS)
        .seed(SEED)
        .run()
        .expect("full sweep runs");
    // Shard the list into uneven consecutive chunks, sweep each shard
    // independently, and merge in shard order.
    for chunk in [1, 4, 9, 35, 50] {
        let parts: Vec<_> = workloads
            .chunks(chunk)
            .map(|shard| {
                Session::sweep()
                    .table(table)
                    .workloads(shard.to_vec())
                    .policies(policies)
                    .fcfs_jobs(JOBS)
                    .seed(SEED)
                    .run()
                    .expect("shard sweep runs")
            })
            .collect();
        let merged = session::SweepReport::merge(parts);
        assert_eq!(merged, full, "chunk size {chunk}");
        // Aggregates are recomputed from the merged rows.
        assert_eq!(
            merged.mean_throughput(Policy::Optimal).to_bits(),
            full.mean_throughput(Policy::Optimal).to_bits()
        );
        assert_eq!(
            merged
                .mean_gain(Policy::Optimal, Policy::FcfsEvent)
                .to_bits(),
            full.mean_gain(Policy::Optimal, Policy::FcfsEvent).to_bits()
        );
    }
    // Degenerate merges.
    assert_eq!(session::SweepReport::merge([]).len(), 0);
    assert_eq!(session::SweepReport::merge([full.clone()]), full);
}

#[test]
fn spec_round_trips_through_a_rebuilt_builder() {
    let table = tiny_table();
    let workloads = enumerate_workloads(5, 4);
    let policies = [Policy::Optimal, Policy::FcfsMarkov];
    let builder = Session::sweep()
        .table(table)
        .workloads(workloads.clone())
        .policies(policies)
        .unit(WorkUnit::Weighted)
        .fcfs_jobs(JOBS)
        .seed(SEED);
    let spec = builder.spec().clone();
    assert_eq!(spec.policies, policies);
    assert_eq!(spec.fcfs_jobs, JOBS);
    assert_eq!(spec.seed, SEED);
    // The reconstructed builder produces bitwise-identical rows, and its
    // own spec is identical (lossless round trip).
    assert_eq!(spec.sweep(table, WorkUnit::Weighted).spec(), &spec);
    let direct = builder.run().expect("direct sweep runs");
    let rebuilt = spec
        .sweep(table, WorkUnit::Weighted)
        .workloads(workloads)
        .run()
        .expect("rebuilt sweep runs");
    assert_eq!(direct, rebuilt);
}

#[test]
fn shard_validates_before_handing_out_parts() {
    let table = tiny_table();
    // Valid configuration decomposes into (table, workloads, unit, spec).
    let (t, ws, unit, spec) = Session::sweep()
        .table(table)
        .workload(&[0, 1, 2, 3])
        .policy(Policy::Optimal)
        .shard()
        .expect("valid sweep shards");
    assert!(std::ptr::eq(t, table));
    assert_eq!(ws, vec![vec![0, 1, 2, 3]]);
    assert_eq!(unit, WorkUnit::Weighted);
    assert_eq!(spec.policies, vec![Policy::Optimal]);
    // The same up-front errors as run().
    assert!(matches!(
        Session::sweep()
            .workload(&[0])
            .policy(Policy::Optimal)
            .shard(),
        Err(SweepError::MissingTable)
    ));
    assert!(matches!(
        Session::sweep()
            .table(table)
            .policy(Policy::Optimal)
            .shard(),
        Err(SweepError::NoWorkloads)
    ));
    assert!(matches!(
        Session::sweep().table(table).workload(&[0]).shard(),
        Err(SweepError::Config(SessionError::NoPolicies))
    ));
}

#[test]
fn fcfs_markov_rows_past_the_accel_limit_do_not_depend_on_the_thread_count() {
    // Nine synthetic types on eight contexts: every 8-type workload is a
    // C(15, 8) = 6 435-state chain, past DEFAULT_MARKOV_ACCEL_LIMIT, so
    // FCFS-MARKOV takes the accelerated tier.
    let names: Vec<String> = (0..9).map(|b| format!("synth{b}")).collect();
    let table = PerfTable::synthetic(names, 8, |combo| {
        let distinct = 1 + combo.windows(2).filter(|w| w[0] != w[1]).count();
        let tilt = 0.8 + 0.3 * distinct as f64 / combo.len() as f64;
        combo
            .iter()
            .map(|&b| (0.5 + 0.07 * b as f64) * tilt / combo.len() as f64)
            .collect()
    })
    .expect("synthetic table builds");
    let workloads = vec![(0..8).collect::<Vec<_>>(), (1..9).collect()];
    let rates = table.workload_rates(&workloads[0]).expect("valid workload");
    assert!(rates.coschedules().len() > symbiosis::DEFAULT_MARKOV_ACCEL_LIMIT);

    let session = || {
        Session::builder()
            .rates(&rates)
            .policy(Policy::FcfsMarkov)
            .run()
            .expect("session runs")
    };
    assert_eq!(session(), session(), "a lone session repeats bitwise");

    let sweep = |threads: usize| {
        Session::sweep()
            .table(&table)
            .workloads(workloads.clone())
            .policy(Policy::FcfsMarkov)
            .threads(threads)
            .run()
            .expect("sweep runs")
            .rows
    };
    let (one, two) = (sweep(1), sweep(2));
    assert_eq!(one.len(), 2);
    for (a, b) in one.iter().zip(&two) {
        assert_eq!(
            a.report, b.report,
            "sweep row {:?}, 1 vs 2 threads",
            a.workload
        );
    }
    assert_eq!(one[0].report, session(), "sweep row equals a lone session");
}

#[test]
fn a_one_thread_sweep_records_its_items_through_the_installed_recorder() {
    // One thread maps on the calling thread, where the recorder is
    // installed already; every item must still be counted and timed.
    let recorder = obs::Recorder::new();
    let _obs = obs::install(&recorder);
    let workloads = enumerate_workloads(5, 3)[..3].to_vec();
    let report = Session::sweep()
        .table(tiny_table())
        .workloads(workloads)
        .policy(Policy::Optimal)
        .threads(1)
        .run()
        .expect("sweep runs");
    let snapshot = recorder.snapshot();
    assert_eq!(snapshot.counters["sweep.items"], 3);
    assert_eq!(snapshot.histograms["sweep.item_us"].count, 3);
    assert_eq!(report.metrics.counters["sweep.items"], 3);
    assert_eq!(report.metrics.histograms["sweep.item_us"].count, 3);
}

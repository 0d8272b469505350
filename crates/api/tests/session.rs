//! Behavioural tests of the Session entry point on cheap analytic models.

use queueing::{ContentionModel, LatencyConfig, SizeDist};
use session::{Policy, PolicyKind, Session, SessionError};
use symbiosis::{AnalyticModel, JobSize, RateGrid, RateModel, SymbiosisError};

/// Mixing distinct types is faster than running clones together.
fn symbiotic_model() -> AnalyticModel<impl Fn(&[u32], usize) -> f64> {
    AnalyticModel::new(2, 2, |counts, _ty| {
        let distinct = counts.iter().filter(|&&c| c > 0).count();
        let boost = if distinct == 2 { 1.2 } else { 1.0 };
        0.5 * boost
    })
}

#[test]
fn builder_rejects_incomplete_configuration() {
    assert!(matches!(
        Session::builder().policy(Policy::Optimal).run(),
        Err(SessionError::MissingRates)
    ));
    let model = symbiotic_model();
    assert!(matches!(
        Session::builder().rates(&model).run(),
        Err(SessionError::NoPolicies)
    ));
    assert!(matches!(
        Session::builder()
            .rates(&model)
            .policy_names(["optimal", "bogus"])
            .run(),
        Err(SessionError::UnknownPolicy(name)) if name == "bogus"
    ));
}

#[test]
fn builder_rejects_conflicting_rate_sources() {
    use simproc::MachineConfig;
    let model = symbiotic_model();
    assert!(matches!(
        Session::builder()
            .machine(MachineConfig::smt4())
            .workload(&[0, 1])
            .rates(&model)
            .policy(Policy::Optimal)
            .run(),
        Err(SessionError::ConflictingSources)
    ));
}

#[test]
fn simulated_source_validates_workload_before_simulating() {
    use simproc::MachineConfig;
    // Out-of-range / malformed workloads are rejected up front — no sweep
    // is started.
    assert!(matches!(
        Session::builder()
            .machine(MachineConfig::smt4())
            .workload(&[0, 99])
            .policy(Policy::Optimal)
            .run(),
        Err(SessionError::Table(_))
    ));
    assert!(matches!(
        Session::builder()
            .machine(MachineConfig::smt4())
            .workload(&[1, 0])
            .policy(Policy::Optimal)
            .run(),
        Err(SessionError::Table(_))
    ));
}

#[test]
fn simulated_source_runs_end_to_end_on_a_restricted_suite() {
    use simproc::MachineConfig;
    // Non-trivial workload indices exercise the suite restriction and the
    // local index remap; tiny windows keep the sweep fast.
    let report = Session::builder()
        .machine(MachineConfig::smt4().with_windows(1_000, 4_000))
        .workload(&[3, 7])
        .threads(4)
        .policies([Policy::Worst, Policy::FcfsEvent, Policy::Optimal])
        .fcfs_jobs(4_000)
        .seed(9)
        .run()
        .unwrap();
    let worst = report.throughput(Policy::Worst).unwrap();
    let fcfs = report.throughput(Policy::FcfsEvent).unwrap();
    let best = report.throughput(Policy::Optimal).unwrap();
    assert!(worst > 0.0);
    assert!(worst <= fcfs + 1e-6 && fcfs <= best + 1e-6);
    // 2 types on 4 contexts: C(2+4-1, 4) = 5 full coschedules.
    let fractions = report
        .row(Policy::Optimal)
        .unwrap()
        .fractions
        .as_ref()
        .unwrap();
    assert_eq!(fractions.len(), 5);
    // WIPC per job is at most ~1, so 4 contexts bound the throughput.
    assert!(best <= 4.0 + 1e-6);
}

#[test]
fn throughput_policies_form_the_paper_sandwich() {
    let model = symbiotic_model();
    let report = Session::builder()
        .rates(&model)
        .policies([
            Policy::Worst,
            Policy::FcfsMarkov,
            Policy::FcfsEvent,
            Policy::Optimal,
        ])
        .fcfs_jobs(20_000)
        .seed(7)
        .run()
        .unwrap();
    assert_eq!(report.rows.len(), 4);
    let worst = report.throughput(Policy::Worst).unwrap();
    let best = report.throughput(Policy::Optimal).unwrap();
    let markov = report.throughput(Policy::FcfsMarkov).unwrap();
    let event = report.throughput(Policy::FcfsEvent).unwrap();
    assert!(worst <= markov + 1e-9 && markov <= best + 1e-9);
    assert!(worst - 1e-6 <= event && event <= best + 1e-6);
    // Best = always mixed (it = 1.2); worst = clones (it = 1.0).
    assert!((best - 1.2).abs() < 1e-7, "best {best}");
    assert!((worst - 1.0).abs() < 1e-7, "worst {worst}");
    // Fraction vectors are distributions.
    for p in [
        Policy::Worst,
        Policy::Optimal,
        Policy::FcfsMarkov,
        Policy::FcfsEvent,
    ] {
        let fractions = report.row(p).unwrap().fractions.as_ref().unwrap();
        let total: f64 = fractions.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "{p}: fractions sum {total}");
    }
}

#[test]
fn latency_policies_default_to_batch_semantics() {
    let model = symbiotic_model();
    let report = Session::builder()
        .rates(&model)
        .policies(Policy::LATENCY)
        .policy(Policy::Optimal)
        .fcfs_jobs(6_000)
        .seed(3)
        .run()
        .unwrap();
    let best = report.throughput(Policy::Optimal).unwrap();
    for p in Policy::LATENCY {
        let row = report.row(p).unwrap();
        assert_eq!(p.kind(), PolicyKind::Latency);
        let batch = row.batch.as_ref().expect("batch semantics by default");
        assert!(row.latency.is_none());
        assert!(batch.makespan > 0.0);
        // Fixed work: nobody beats the LP bound (finite-batch noise aside).
        assert!(
            row.throughput <= best * 1.03,
            "{p}: {} above LP max {best}",
            row.throughput
        );
    }
    // MAXTP tracks the LP optimum on this toy model.
    let maxtp = report.throughput(Policy::MaxTp).unwrap();
    assert!(
        (maxtp - best).abs() / best < 0.05,
        "MAXTP {maxtp} should track LP max {best}"
    );
}

#[test]
fn latency_config_switches_to_arrival_process() {
    let model = ContentionModel::new(vec![1.0], 0.0, 4);
    let report = Session::builder()
        .rates(&model)
        .policies([Policy::Fcfs, Policy::Srpt])
        .latency(LatencyConfig {
            arrival_rate: 2.0,
            measured_jobs: 20_000,
            warmup_jobs: 2_000,
            sizes: SizeDist::Exponential,
            seed: 11,
        })
        .run()
        .unwrap();
    for p in [Policy::Fcfs, Policy::Srpt] {
        let row = report.row(p).unwrap();
        let latency = row.latency.as_ref().expect("latency semantics requested");
        assert!(row.batch.is_none());
        // Stable M/M/4 at half load: throughput tracks the arrival rate.
        assert!((latency.throughput - 2.0).abs() < 0.05);
        assert!(latency.mean_turnaround >= 1.0);
    }
}

#[test]
fn full_only_models_reject_latency_policies_up_front() {
    let table = symbiotic_model().full_table().unwrap();
    assert!(!table.supports_partial());
    // Throughput-only sessions work on the bare table...
    let ok = Session::builder()
        .rates(&table)
        .policies([Policy::Optimal, Policy::Worst])
        .run()
        .unwrap();
    assert_eq!(ok.rows.len(), 2);
    // ...but latency policies are rejected before any work happens.
    assert!(matches!(
        Session::builder()
            .rates(&table)
            .policies([Policy::Optimal, Policy::Srpt])
            .run(),
        Err(SessionError::PartialUnsupported(Policy::Srpt))
    ));
}

#[test]
fn cached_wrapper_is_transparent_to_a_session() {
    let plain = Session::builder()
        .rates(&symbiotic_model())
        .policies([Policy::FcfsEvent, Policy::MaxIt])
        .fcfs_jobs(4_000)
        .seed(5)
        .job_size(JobSize::Exponential)
        .run()
        .unwrap();
    let cached_model = RateGrid::new(&symbiotic_model()).unwrap();
    let cached = Session::builder()
        .rates(&cached_model)
        .policies([Policy::FcfsEvent, Policy::MaxIt])
        .fcfs_jobs(4_000)
        .seed(5)
        .job_size(JobSize::Exponential)
        .run()
        .unwrap();
    assert_eq!(plain, cached, "memoization must not change any number");
    assert!(!cached_model.is_empty());
}

#[test]
fn latency_policies_reject_a_contract_breaking_model() {
    // Type 0 stalls (rate 0, then NaN) when two of its jobs co-run.
    for stalled in [0.0, f64::NAN] {
        let broken = AnalyticModel::new(
            2,
            2,
            move |counts: &[u32], _ty| {
                if counts == [2, 0] {
                    stalled
                } else {
                    0.5
                }
            },
        );
        for latency in [None, Some(LatencyConfig::default())] {
            let mut builder = Session::builder().rates(&broken).policy(Policy::Fcfs);
            if let Some(cfg) = latency {
                builder = builder.latency(cfg);
            }
            assert!(matches!(
                builder.run(),
                Err(SessionError::Symbiosis(SymbiosisError::InvalidRates(_)))
            ));
        }
    }
}

#[test]
fn report_lookup_by_name_round_trips() {
    let model = symbiotic_model();
    let report = Session::builder()
        .rates(&model)
        .policy_names(["optimal", "fcfs-markov"])
        .run()
        .unwrap();
    assert!(report.row_by_name("OPTIMAL").is_some());
    assert!(report.row_by_name("fcfs_markov").is_some());
    assert!(report.row_by_name("srpt").is_none());
    let text = report.to_string();
    assert!(text.contains("OPTIMAL") && text.contains("FCFS-MARKOV"));
}

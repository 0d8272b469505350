//! End-to-end integration: simulator -> performance table -> Session
//! scheduling analyses, on a reduced scale.

use symbiotic_scheduling::prelude::*;
use symbiotic_scheduling::symbiosis;

fn small_table(config: MachineConfig) -> PerfTable {
    let machine = Machine::new(config.with_windows(2_000, 8_000)).expect("valid config");
    let suite: Vec<BenchmarkProfile> = spec2006().into_iter().take(4).collect();
    PerfTable::build(&machine, &suite, 4).expect("table builds")
}

#[test]
fn smt_pipeline_reproduces_headline_ordering() {
    let table = small_table(MachineConfig::smt4());
    let rates = table.workload_rates(&[0, 1, 2, 3]).expect("valid workload");
    let report = Session::builder()
        .rates(&rates)
        .policies([Policy::Worst, Policy::FcfsEvent, Policy::Optimal])
        .fcfs_jobs(20_000)
        .seed(7)
        .run()
        .expect("session runs");
    let worst = report.throughput(Policy::Worst).unwrap();
    let fcfs = report.throughput(Policy::FcfsEvent).unwrap();
    let best = report.throughput(Policy::Optimal).unwrap();
    // The paper's sandwich: worst <= FCFS <= best.
    assert!(worst <= fcfs + 1e-6);
    assert!(fcfs <= best + 1e-6);
    // And the headline: the FCFS->optimal gap is small relative to the
    // per-coschedule instantaneous throughput spread.
    let n_s = rates.coschedules().len();
    let its: Vec<f64> = (0..n_s)
        .map(|si| rates.instantaneous_throughput(si))
        .collect();
    let it_spread = (its.iter().cloned().fold(f64::MIN, f64::max)
        - its.iter().cloned().fold(f64::MAX, f64::min))
        / (its.iter().sum::<f64>() / n_s as f64);
    let gain = best / fcfs - 1.0;
    assert!(
        gain < it_spread,
        "optimal gain {gain} should be well below IT spread {it_spread}"
    );
}

#[test]
fn quadcore_pipeline_yields_valid_rate_tables() {
    let table = small_table(MachineConfig::quadcore());
    let rates = table.workload_rates(&[0, 1, 2, 3]).expect("valid workload");
    assert_eq!(rates.coschedules().len(), 35);
    for si in 0..35 {
        let s = &rates.coschedules()[si];
        for b in 0..4 {
            let r = rates.rate(si, b);
            if s.count(b) > 0 {
                assert!(r > 0.0, "present type must progress");
                // WIPC of c jobs of a type can never exceed c (jobs cannot
                // run faster than solo).
                assert!(
                    r <= s.count(b) as f64 + 0.15,
                    "rate {r} exceeds count {}",
                    s.count(b)
                );
            } else {
                assert_eq!(r, 0.0);
            }
        }
    }
}

#[test]
fn optimal_schedule_uses_few_coschedules_end_to_end() {
    let table = small_table(MachineConfig::smt4());
    let rates = table.workload_rates(&[0, 1, 2, 3]).expect("valid workload");
    let report = Session::builder()
        .rates(&rates)
        .policy(Policy::Optimal)
        .run()
        .expect("session runs");
    let row = report.row(Policy::Optimal).unwrap();
    let fractions = row.fractions.as_ref().expect("LP rows carry fractions");
    // Section IV property on real (simulated) data: at most N coschedules.
    assert!(fractions.iter().filter(|&&x| x > 1e-7).count() <= 4);
    // Work balance holds.
    let work_rate = |b: usize| -> f64 {
        fractions
            .iter()
            .enumerate()
            .map(|(si, &x)| x * rates.rate(si, b))
            .sum()
    };
    let w0 = work_rate(0);
    for b in 1..4 {
        assert!((work_rate(b) - w0).abs() < 1e-6);
    }
}

#[test]
fn markov_and_event_fcfs_agree_on_simulated_rates() {
    let table = small_table(MachineConfig::smt4());
    let rates = table.workload_rates(&[0, 1, 2, 3]).expect("valid workload");
    let report = Session::builder()
        .rates(&rates)
        .policies([Policy::FcfsMarkov, Policy::FcfsEvent])
        .fcfs_jobs(150_000)
        .job_size(JobSize::Exponential)
        .seed(3)
        .run()
        .expect("session runs");
    let markov = report.throughput(Policy::FcfsMarkov).unwrap();
    let sim = report.throughput(Policy::FcfsEvent).unwrap();
    let rel = (markov - sim).abs() / markov;
    assert!(rel < 0.02, "markov {markov} vs event sim {sim}");
}

#[test]
fn latency_experiment_runs_on_simulated_view() {
    let table = small_table(MachineConfig::smt4());
    let rates = table.workload_rates(&[0, 1, 2, 3]).expect("valid workload");
    let view = table.workload_view(&[0, 1, 2, 3]).expect("valid view");
    let fcfs_max = Session::builder()
        .rates(&rates)
        .policy(Policy::FcfsEvent)
        .fcfs_jobs(20_000)
        .seed(7)
        .run()
        .expect("session runs")
        .throughput(Policy::FcfsEvent)
        .unwrap();
    let report = Session::builder()
        .rates(&view)
        .policy(Policy::Fcfs)
        .latency(LatencyConfig {
            arrival_rate: 0.8 * fcfs_max,
            measured_jobs: 5_000,
            warmup_jobs: 500,
            sizes: SizeDist::Exponential,
            seed: 2,
        })
        .run()
        .expect("session runs");
    let latency = report
        .row(Policy::Fcfs)
        .and_then(|r| r.latency.as_ref())
        .expect("latency semantics");
    // Stable system: throughput tracks the offered load.
    let rel = (latency.throughput - 0.8 * fcfs_max).abs() / (0.8 * fcfs_max);
    assert!(rel < 0.08, "throughput {} vs load", latency.throughput);
    assert!(latency.utilization <= 4.0 + 1e-9);
    assert!(latency.empty_fraction < 0.5);
}

/// The engine functions behind the session must produce exactly the
/// numbers the session path reports.
#[test]
fn engine_functions_agree_with_sessions() {
    let table = small_table(MachineConfig::smt4());
    let rates = table.workload_rates(&[0, 1, 2, 3]).expect("valid workload");
    let report = Session::builder()
        .rates(&rates)
        .policies([
            Policy::Worst,
            Policy::FcfsEvent,
            Policy::Optimal,
            Policy::FcfsMarkov,
        ])
        .fcfs_jobs(10_000)
        .seed(11)
        .run()
        .expect("session runs");
    let (worst, best) = symbiosis::throughput_bounds(&rates).expect("lp solves");
    let fcfs =
        symbiosis::fcfs_throughput(&rates, 10_000, JobSize::Deterministic, 11).expect("fcfs runs");
    let markov = symbiosis::fcfs_throughput_markov(&rates).expect("chain solves");
    assert_eq!(Some(best.throughput), report.throughput(Policy::Optimal));
    assert_eq!(Some(worst.throughput), report.throughput(Policy::Worst));
    assert_eq!(Some(fcfs.throughput), report.throughput(Policy::FcfsEvent));
    assert_eq!(
        Some(markov.throughput),
        report.throughput(Policy::FcfsMarkov)
    );
    assert_eq!(
        Some(best.fractions),
        report.row(Policy::Optimal).unwrap().fractions.clone()
    );
}

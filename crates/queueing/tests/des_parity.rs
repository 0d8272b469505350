//! Golden parity of the Section VI discrete-event simulator.
//!
//! Every case runs one latency or batch experiment and folds every field of
//! the report ([`LatencyReport`] / [`BatchReport`], floats by their bits)
//! into a 64-bit FNV-1a digest that is pinned here. Performance work on the
//! event loop, the schedulers or [`queueing::JobPool`] must leave all of
//! them untouched.
//!
//! The cases cover the four schedulers on two rate models:
//!
//! * a [`ContentionModel`] with equal solo rates, where every coschedule of
//!   a given size ties on instantaneous throughput, so MAXIT decides by job
//!   age at every event;
//! * a synthetic-table [`workloads::WorkloadView`], the rate model the paper's
//!   experiments run on, with per-slot IPCs that differ inside a type;
//!
//! each at two loads (twice the machine's capacity, so thousands of jobs
//! queue, and a low load with empty periods) and with exponential and
//! deterministic job sizes, plus fixed-batch runs.
//!
//! If a change is *meant* to alter simulated results, re-pin the digests
//! from the failure message.

use queueing::{
    run_batch_experiment, run_latency_experiment, BatchConfig, BatchReport, ContentionModel,
    FcfsScheduler, LatencyConfig, LatencyReport, MaxItScheduler, MaxTpScheduler, RateModel,
    Scheduler, SizeDist, SrptScheduler,
};
use symbiosis::CoscheduleIter;
use workloads::PerfTable;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn latency_digest(r: &LatencyReport) -> u64 {
    fnv1a([
        r.mean_turnaround.to_bits(),
        r.utilization.to_bits(),
        r.empty_fraction.to_bits(),
        r.throughput.to_bits(),
        r.mean_jobs_in_system.to_bits(),
        r.completed,
    ])
}

fn batch_digest(r: &BatchReport) -> u64 {
    fnv1a([
        r.makespan.to_bits(),
        r.throughput.to_bits(),
        r.mean_turnaround.to_bits(),
    ])
}

/// The four paper schedulers. MAXTP follows fixed targets (not an LP
/// solve, so solver changes cannot move these digests); at least one is
/// often not composable, which exercises its MAXIT fallback.
fn schedulers(n_types: usize) -> Vec<Box<dyn Scheduler>> {
    let target = |head: &[u32]| {
        let mut counts = vec![0u32; n_types];
        counts[..head.len()].copy_from_slice(head);
        counts
    };
    let targets = vec![
        (target(&[4]), 0.2),
        (target(&[1, 1, 2]), 0.5),
        (target(&[0, 2, 2]), 0.3),
    ];
    vec![
        Box::new(FcfsScheduler),
        Box::new(MaxItScheduler),
        Box::new(SrptScheduler),
        Box::new(MaxTpScheduler::new(targets)),
    ]
}

/// Highest instantaneous throughput over the full coschedules.
fn capacity(rates: &dyn RateModel) -> f64 {
    CoscheduleIter::new(rates.num_types(), rates.contexts())
        .map(|s| rates.instantaneous_throughput(s.counts()))
        .fold(0.0, f64::max)
}

fn size_label(sizes: SizeDist) -> &'static str {
    match sizes {
        SizeDist::Exponential => "exp",
        SizeDist::Deterministic => "det",
    }
}

/// Runs every latency case on `rates`, labelled `"{model}/{load}/{sizes}/{policy}"`.
fn latency_cases(model: &str, rates: &dyn RateModel, seed: u64) -> Vec<(String, u64)> {
    let cap = capacity(rates);
    let mut out = Vec::new();
    for (load, arrival_rate, measured_jobs, warmup_jobs) in [
        ("saturated", 2.0 * cap, 2_500, 500),
        ("low", 0.3 * cap, 1_500, 300),
    ] {
        for sizes in [SizeDist::Exponential, SizeDist::Deterministic] {
            let cfg = LatencyConfig {
                arrival_rate,
                measured_jobs,
                warmup_jobs,
                sizes,
                seed,
            };
            for mut sched in schedulers(rates.num_types()) {
                let report = run_latency_experiment(rates, sched.as_mut(), &cfg).expect("runs");
                let label = format!("{model}/{load}/{}/{}", size_label(sizes), sched.name());
                out.push((label, latency_digest(&report)));
            }
        }
    }
    out
}

/// Runs every fixed-batch case on `rates`, labelled `"{model}/batch/{sizes}/{policy}"`.
fn batch_cases(model: &str, rates: &dyn RateModel, seed: u64) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for sizes in [SizeDist::Exponential, SizeDist::Deterministic] {
        let cfg = BatchConfig {
            jobs: 1_500,
            sizes,
            seed,
        };
        for mut sched in schedulers(rates.num_types()) {
            let report = run_batch_experiment(rates, sched.as_mut(), &cfg).expect("runs");
            let label = format!("{model}/batch/{}/{}", size_label(sizes), sched.name());
            out.push((label, batch_digest(&report)));
        }
    }
    out
}

/// Equal solo rates: every same-size coschedule ties on throughput.
fn tied_contention() -> ContentionModel {
    ContentionModel::new(vec![1.0, 1.0, 1.0], 0.15, 4)
}

/// Six synthetic benchmarks on a 4-context machine. A slot's IPC falls
/// with the pressure of its co-runners, and slots of one benchmark differ
/// slightly, as the simulator's RNG streams make them.
fn synthetic_table() -> PerfTable {
    let names: Vec<String> = (0..6).map(|b| format!("syn{b}")).collect();
    PerfTable::synthetic(names, 4, |combo| {
        let pressure: f64 = combo.iter().map(|&b| 0.05 + 0.07 * b as f64).sum();
        combo
            .iter()
            .enumerate()
            .map(|(slot, &b)| {
                let solo = 0.6 + 0.35 * ((b * 7) % 5) as f64;
                solo / (1.0 + pressure - (0.05 + 0.07 * b as f64)) * (1.0 - 0.01 * slot as f64)
            })
            .collect()
    })
    .expect("valid synthetic table")
}

/// Compares every case with its pin and reports all mismatches at once,
/// with the actual digests to re-pin from.
fn check(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    let pins: Vec<String> = got
        .iter()
        .map(|(label, digest)| format!("(\"{label}\", {digest:#018x}),"))
        .collect();
    assert_eq!(
        got.len(),
        pinned.len(),
        "case count; actual pins:\n{}",
        pins.join("\n")
    );
    let mismatches: Vec<String> = got
        .iter()
        .zip(pinned)
        .filter(|((label, digest), (pin_label, pin))| label != pin_label || digest != pin)
        .map(|((label, digest), (pin_label, pin))| {
            format!("{label}: got {digest:#018x}, pinned {pin_label} {pin:#018x}")
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "DES results moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn contention_latency_runs_match_golden_digests() {
    let got = latency_cases("contention", &tied_contention(), 41);
    check(
        &got,
        &[
            ("contention/saturated/exp/FCFS", 0x99bb0d74ef2cfe76),
            ("contention/saturated/exp/MAXIT", 0x99bb0d74ef2cfe76),
            ("contention/saturated/exp/SRPT", 0xa19877fd789a3baa),
            ("contention/saturated/exp/MAXTP", 0x95d5412374e1c28d),
            ("contention/saturated/det/FCFS", 0x701936de957ec5ec),
            ("contention/saturated/det/MAXIT", 0x701936de957ec5ec),
            ("contention/saturated/det/SRPT", 0x785570a77ecc4ea7),
            ("contention/saturated/det/MAXTP", 0x5b9d05f2c06169cd),
            ("contention/low/exp/FCFS", 0x4f734ac1c16b15d6),
            ("contention/low/exp/MAXIT", 0x4f734ac1c16b15d6),
            ("contention/low/exp/SRPT", 0x9fe308e1d9d2e18d),
            ("contention/low/exp/MAXTP", 0xce4a6fe5745f35ee),
            ("contention/low/det/FCFS", 0x03fa0e872e0f23d6),
            ("contention/low/det/MAXIT", 0x03fa0e872e0f23d6),
            ("contention/low/det/SRPT", 0x03fa0e872e0f23d6),
            ("contention/low/det/MAXTP", 0x6dd0733a2fe65c62),
        ],
    );
}

#[test]
fn synthetic_view_latency_runs_match_golden_digests() {
    let table = synthetic_table();
    let view = table.workload_view(&[0, 2, 3, 5]).expect("valid workload");
    let got = latency_cases("view", &view, 43);
    check(
        &got,
        &[
            ("view/saturated/exp/FCFS", 0xb5caf8e8cc0cc243),
            ("view/saturated/exp/MAXIT", 0x26bcbea9f86ed84a),
            ("view/saturated/exp/SRPT", 0x87f9b16e583f196e),
            ("view/saturated/exp/MAXTP", 0x1024b612df8f79dc),
            ("view/saturated/det/FCFS", 0x51351c33826017f0),
            ("view/saturated/det/MAXIT", 0x8b83c165f66c0653),
            ("view/saturated/det/SRPT", 0xa293946c8543bb54),
            ("view/saturated/det/MAXTP", 0xee57ecde06801612),
            ("view/low/exp/FCFS", 0xaf571ac51412d05b),
            ("view/low/exp/MAXIT", 0x8d96bb5b167cb122),
            ("view/low/exp/SRPT", 0xfe7228366fe76f78),
            ("view/low/exp/MAXTP", 0xab631a35e554b30c),
            ("view/low/det/FCFS", 0x2232955495f83342),
            ("view/low/det/MAXIT", 0x1f505330b384a784),
            ("view/low/det/SRPT", 0xfbd3068a0a918fd1),
            ("view/low/det/MAXTP", 0xc57f91ce0087deee),
        ],
    );
}

#[test]
fn batch_runs_match_golden_digests() {
    let table = synthetic_table();
    let view = table.workload_view(&[0, 2, 3, 5]).expect("valid workload");
    let mut got = batch_cases("contention", &tied_contention(), 47);
    got.extend(batch_cases("view", &view, 47));
    check(
        &got,
        &[
            ("contention/batch/exp/FCFS", 0x40676606a5512631),
            ("contention/batch/exp/MAXIT", 0x887f251b813849eb),
            ("contention/batch/exp/SRPT", 0x2e73aee638080345),
            ("contention/batch/exp/MAXTP", 0x3823d0ff1e4f3dfc),
            ("contention/batch/det/FCFS", 0x2259b1580ae29e57),
            ("contention/batch/det/MAXIT", 0x2259b1580ae29e57),
            ("contention/batch/det/SRPT", 0x2259b1580ae29e57),
            ("contention/batch/det/MAXTP", 0x2259b1580ae29e57),
            ("view/batch/exp/FCFS", 0x442dc8dfdcb72404),
            ("view/batch/exp/MAXIT", 0x65958b929e173272),
            ("view/batch/exp/SRPT", 0x7795a12b1d0d42aa),
            ("view/batch/exp/MAXTP", 0x07b52a24d03b46eb),
            ("view/batch/det/FCFS", 0x72d3b5879ea1a9aa),
            ("view/batch/det/MAXIT", 0x919e773336e405a3),
            ("view/batch/det/SRPT", 0x919e773336e405a3),
            ("view/batch/det/MAXTP", 0xc7b58cf6edb73a4b),
        ],
    );
}

//! End-to-end distributed-sweep coverage: the merged report must be
//! bitwise identical to a single-process `Session::sweep()` run — over
//! loopback transports, over real TCP, and on the simulated network under
//! every seeded `ChaosPlan` that leaves at least one live worker (crash,
//! hang, corrupt frames, duplicated frames, hedged stragglers) — and
//! failure modes (retry exhaustion, total worker loss, version skew,
//! poisoned chunks) must surface as clean errors.
//!
//! Every fault test runs on the simulated network under virtual time, so
//! its counts are exact and no test waits out a wall-clock timeout.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

use dist::{
    loopback_pair, run_worker, ChaosPlan, ChaosStats, Coordinator, DistConfig, DistError,
    DistOutcome, Link, Simulation, TcpTransport, WorkerConfig,
};
use queueing::{LatencyConfig, SizeDist};
use session::{Policy, Session, SweepBuilder, SweepReport};
use simproc::{BenchmarkProfile, Machine, MachineConfig};
use symbiosis::{enumerate_workloads, JobSize, Objective};
use workloads::{spec2006, PerfTable, TableStore, WorkUnit};

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

/// The reference sweep every distributed variant must reproduce bitwise.
fn reference_sweep() -> SweepBuilder<'static> {
    Session::sweep()
        .table(tiny_table())
        .workloads(enumerate_workloads(5, 3)) // 10 mixes
        .policies([Policy::Worst, Policy::FcfsEvent, Policy::Optimal])
        .fcfs_jobs(JOBS)
        .seed(SEED)
}

fn reference_report() -> &'static SweepReport {
    static REPORT: OnceLock<SweepReport> = OnceLock::new();
    REPORT.get_or_init(|| reference_sweep().run().expect("reference sweep runs"))
}

/// Bitwise equality: `SweepReport` derives `PartialEq` over `f64` fields,
/// which is value equality; pin the bits explicitly as well.
fn assert_bitwise_equal(distributed: &SweepReport, reference: &SweepReport) {
    assert_eq!(distributed, reference);
    for (d, r) in distributed.rows.iter().zip(&reference.rows) {
        assert_eq!(d.workload, r.workload);
        for (dp, rp) in d.report.rows.iter().zip(&r.report.rows) {
            assert_eq!(dp.throughput.to_bits(), rp.throughput.to_bits());
        }
    }
}

fn temp_store_dir(tag: &str) -> PathBuf {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "symb-dist-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn loopback_workers_reproduce_the_sweep_bitwise() {
    let coordinator = Coordinator::from_sweep(
        reference_sweep(),
        DistConfig {
            chunk_size: 3, // 10 workloads -> 4 uneven chunks
            ..DistConfig::default()
        },
    )
    .unwrap();
    let (c1, w1) = loopback_pair();
    let (c2, w2) = loopback_pair();
    let workers: Vec<_> = [w1, w2]
        .into_iter()
        .map(|t| std::thread::spawn(move || run_worker(t, &WorkerConfig::default())))
        .collect();
    let outcome = coordinator.run(vec![c1, c2]).expect("distributed run");
    assert_bitwise_equal(&outcome.report, reference_report());
    assert_eq!(outcome.chunks, 4);

    let mut chunks = 0;
    let mut rows = 0;
    for handle in workers {
        let summary = handle.join().unwrap().expect("worker completes");
        assert!(!summary.table_from_cache);
        chunks += summary.chunks;
        rows += summary.rows;
    }
    assert_eq!(chunks, 4);
    assert_eq!(rows, reference_report().len());
    let logged: usize = outcome.workers.iter().map(|w| w.rows).sum();
    assert_eq!(logged, reference_report().len());
}

/// Runs `sweep` through a coordinator and two loopback workers.
fn loopback_run(sweep: SweepBuilder<'_>) -> DistOutcome {
    let coordinator = Coordinator::from_sweep(
        sweep,
        DistConfig {
            chunk_size: 3,
            ..DistConfig::default()
        },
    )
    .unwrap();
    std::thread::scope(|scope| {
        let (ends, workers): (Vec<_>, Vec<_>) = (0..2)
            .map(|_| {
                let (c, w) = loopback_pair();
                (
                    c,
                    scope.spawn(move || run_worker(w, &WorkerConfig::default())),
                )
            })
            .unzip();
        let outcome = coordinator.run(ends).expect("distributed run");
        for worker in workers {
            worker.join().unwrap().expect("worker completes");
        }
        outcome
    })
}

/// Runs the reference sweep on the simulated network, one worker per
/// link, each with default settings.
fn simulate(config: DistConfig, links: &[Link]) -> Simulation {
    Coordinator::from_sweep(reference_sweep(), config)
        .unwrap()
        .simulate(links, &WorkerConfig::default())
}

/// A link whose worker end follows `plan`.
fn worker_faults(plan: ChaosPlan) -> Link {
    Link {
        worker: plan,
        ..Link::default()
    }
}

/// Chunks of two workloads: the 10-mix sweep in 5 chunks.
fn chunks_of_two() -> DistConfig {
    DistConfig {
        chunk_size: 2,
        ..DistConfig::default()
    }
}

/// The simulated network runs the same coordinator as `Coordinator::run`:
/// on clean links it reproduces the threaded run's report and counters.
#[test]
fn the_simulated_network_matches_the_threaded_run() {
    let threaded = loopback_run(reference_sweep());
    let config = DistConfig {
        chunk_size: 3, // as `loopback_run`
        ..DistConfig::default()
    };
    let sim = simulate(config, &[Link::default(), Link::default()]);
    let simulated = sim.outcome.expect("clean links complete");
    assert_bitwise_equal(&simulated.report, &threaded.report);
    assert_bitwise_equal(&simulated.report, reference_report());
    let counters = |o: &DistOutcome| (o.chunks, o.requeues, o.hedges, o.duplicates, o.strikes);
    assert_eq!(counters(&simulated), counters(&threaded));
    assert_eq!(counters(&simulated), (4, 0, 0, 0, 0));
    assert_eq!(sim.faults, vec![ChaosStats::default(); 2]);
    let rows: usize = sim.workers.iter().map(|w| w.as_ref().unwrap().rows).sum();
    assert_eq!(rows, reference_report().len());
}

#[test]
fn a_latency_spec_crosses_the_wire_intact() {
    // Every non-default setting the spec carries: an arrival process,
    // exponential event-leg sizes, and the MAXTP targets taken from the
    // worst schedule instead of the best.
    let sweep = || {
        Session::sweep()
            .table(tiny_table())
            .workloads(enumerate_workloads(5, 3))
            .policies(Policy::LATENCY)
            .job_size(JobSize::Exponential)
            .objective(Objective::MinThroughput)
            .latency(LatencyConfig {
                arrival_rate: 1.1,
                measured_jobs: 600,
                warmup_jobs: 60,
                sizes: SizeDist::Exponential,
                seed: SEED,
            })
            .fcfs_jobs(JOBS)
            .seed(SEED)
    };
    let reference = sweep().run().expect("in-process sweep runs");
    assert!(reference.rows[0].report.rows[0].latency.is_some());
    assert_bitwise_equal(&loopback_run(sweep()).report, &reference);
}

#[test]
fn a_plain_unit_sweep_crosses_the_wire_intact() {
    let sweep = || {
        Session::sweep()
            .table(tiny_table())
            .workloads(enumerate_workloads(5, 3))
            .unit(WorkUnit::Plain)
            .policies(Policy::THROUGHPUT)
            .fcfs_jobs(JOBS)
            .seed(SEED)
    };
    let reference = sweep().run().expect("in-process sweep runs");
    // The plain unit changes the numbers, so a worker that fell back to
    // the weighted unit could not match.
    assert_ne!(
        reference.throughputs(Policy::Optimal),
        reference_report().throughputs(Policy::Optimal)
    );
    assert_bitwise_equal(&loopback_run(sweep()).report, &reference);
}

#[test]
fn tcp_workers_reproduce_the_sweep_bitwise() {
    let coordinator = Coordinator::from_sweep(reference_sweep(), DistConfig::default()).unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let transport = TcpTransport::connect(addr.as_str())?;
                run_worker(transport, &WorkerConfig::default())
            })
        })
        .collect();
    let outcome = coordinator.serve_listener(&listener, 2).expect("tcp run");
    assert_bitwise_equal(&outcome.report, reference_report());
    for handle in workers {
        handle.join().unwrap().expect("worker completes");
    }
}

#[test]
fn a_worker_killed_mid_sweep_is_rerouted_and_parity_holds() {
    // The victim's end dies after 6 frames: Hello, Welcome, TableRequest,
    // TableBytes, FetchChunk, Chunk — then while returning its first Rows
    // frame, exactly a worker process crashing mid-sweep with a chunk
    // held. The coordinator must re-queue that chunk.
    let sim = simulate(
        chunks_of_two(),
        &[worker_faults(ChaosPlan::crash_after(6)), Link::default()],
    );
    let outcome = sim.outcome.expect("run completes despite the dead worker");
    assert_bitwise_equal(&outcome.report, reference_report());
    assert_eq!((outcome.requeues, outcome.hedges), (1, 0));

    // The victim observed its own death as a transport failure.
    assert!(matches!(sim.workers[0], Err(DistError::Disconnected(_))));
    let summary = sim.workers[1].as_ref().expect("survivor completes");
    // The survivor picked up everything, including the re-queued chunk.
    assert_eq!(summary.rows, reference_report().len());
    assert_eq!(summary.chunks, 5);
}

#[test]
fn retry_budget_exhaustion_surfaces_a_clean_error() {
    let sim = simulate(
        DistConfig {
            retry_budget: 0, // first transport failure on a held chunk is fatal
            ..chunks_of_two()
        },
        &[worker_faults(ChaosPlan::crash_after(6))],
    );
    let err = sim
        .outcome
        .expect_err("budget 0 cannot absorb a worker death");
    assert!(
        matches!(
            err,
            DistError::RetryExhausted {
                chunk: 0,
                attempts: 1,
                ..
            }
        ),
        "unexpected error: {err}"
    );
}

#[test]
fn losing_every_worker_reports_incomplete() {
    let sim = simulate(
        DistConfig {
            retry_budget: 5, // generous budget: the failure is worker loss
            ..chunks_of_two()
        },
        &[worker_faults(ChaosPlan::crash_after(6))],
    );
    // The only worker died on its first chunk: none of the 5 completed.
    let err = sim
        .outcome
        .expect_err("the only worker died with chunks outstanding");
    assert_eq!(err, DistError::Incomplete { remaining: 5 });
}

#[test]
fn a_hung_worker_times_out_and_its_chunk_is_requeued() {
    // After 6 frames the victim's end goes silent without hanging up:
    // sends vanish, nothing is read — a wedged process, not a dead one.
    // The coordinator can only detect it by its (virtual) read deadline,
    // after which the held chunk must return to the queue, where the
    // survivor, parked with the rest done, picks it up.
    let sim = simulate(
        chunks_of_two(),
        &[worker_faults(ChaosPlan::hang_after(6)), Link::default()],
    );
    let outcome = sim.outcome.expect("run completes despite the hung worker");
    assert_bitwise_equal(&outcome.report, reference_report());
    assert_eq!((outcome.requeues, outcome.hedges), (1, 0));
    assert!(outcome.workers[0].wall >= DistConfig::default().recv_timeout);

    // The victim observed its own hang as silence, not a hangup.
    assert!(matches!(sim.workers[0], Err(DistError::Timeout(_))));
    let summary = sim.workers[1].as_ref().expect("survivor completes");
    assert_eq!(summary.rows, reference_report().len());
    assert_eq!(summary.chunks, 5);
}

#[test]
fn a_straggler_chunk_is_hedged_to_an_idle_worker() {
    // The victim wedges silently on its first chunk. The survivor drains
    // the rest of the queue and goes idle — with hedging on, it is handed
    // a copy of the straggler chunk and completes the sweep long before
    // the victim's deadline; the victim's answer never arrives, so the
    // hedge's answer is the one that counts.
    let sim = simulate(
        DistConfig {
            hedge: true,
            ..chunks_of_two()
        },
        &[worker_faults(ChaosPlan::hang_after(6)), Link::default()],
    );
    let outcome = sim.outcome.expect("the hedge completes the sweep");
    assert_bitwise_equal(&outcome.report, reference_report());
    assert_eq!((outcome.requeues, outcome.hedges), (0, 1));

    assert!(matches!(sim.workers[0], Err(DistError::Timeout(_))));
    let summary = sim.workers[1].as_ref().expect("survivor completes");
    // The survivor evaluated every chunk, the hedged straggler included.
    assert_eq!(summary.rows, reference_report().len());
    assert_eq!(summary.chunks, 5);
}

#[test]
fn corrupt_frames_strike_without_killing_the_run() {
    // Every frame the coordinator reads from link 0 arrives with one
    // flipped bit: the checksum rejects the Hello, the connection takes a
    // strike instead of killing the run, and the clean worker carries the
    // sweep to bitwise parity.
    let corrupt = Link {
        coordinator: ChaosPlan {
            corrupt: 1.0,
            seed: 7,
            ..ChaosPlan::default()
        },
        ..Link::default()
    };
    let sim = simulate(chunks_of_two(), &[corrupt, Link::default()]);
    let outcome = sim.outcome.expect("the clean worker carries the sweep");
    assert_bitwise_equal(&outcome.report, reference_report());
    assert_eq!(outcome.strikes, 1);
    assert_eq!(sim.faults[0].corruptions, 1);

    // The victim never got an answer to its Hello: it sees the hangup
    // when the coordinator writes the silent connection off.
    assert!(matches!(sim.workers[0], Err(DistError::Disconnected(_))));
    assert!(sim.workers[1].is_ok());
}

#[test]
fn a_babbling_worker_is_quarantined_after_repeated_strikes() {
    use dist::{Frame, Transport, PROTOCOL_VERSION};

    let coordinator = Coordinator::from_sweep(
        reference_sweep(),
        DistConfig {
            quarantine_limit: 2,
            ..DistConfig::default()
        },
    )
    .unwrap();
    let (c1, mut w1) = loopback_pair();
    let (c2, w2) = loopback_pair();
    let babbler = std::thread::spawn(move || {
        w1.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
        })
        .unwrap();
        assert!(matches!(w1.recv().unwrap(), Frame::Welcome { .. }));
        // Drained is a coordinator-to-worker frame; coming from a worker
        // each one is an unexpected frame, i.e. one strike.
        for _ in 0..3 {
            w1.send(&Frame::Drained).unwrap();
        }
    });
    let honest = std::thread::spawn(move || run_worker(w2, &WorkerConfig::default()));
    let outcome = coordinator
        .run(vec![c1, c2])
        .expect("the honest worker carries the sweep");
    assert_bitwise_equal(&outcome.report, reference_report());
    // Strikes one and two are tolerated; the third exceeds the limit and
    // quarantines the connection.
    assert_eq!(outcome.strikes, 3);
    babbler.join().unwrap();
    honest.join().unwrap().expect("honest worker completes");
}

#[test]
fn duplicated_frames_are_discarded_by_chunk_id() {
    let dir = temp_store_dir("dup");
    let cached = || WorkerConfig {
        threads: 0,
        cache: Some(TableStore::new(dir.clone())),
    };
    let coordinator = |config| Coordinator::from_sweep(reference_sweep(), config).unwrap();

    // Warm the table cache first so the duplicated conversation has no
    // TableRequest/TableBytes exchange — a duplicated TableRequest would
    // desynchronize the handshake beyond what this test pins.
    let warm = coordinator(DistConfig::default()).simulate(&[Link::default()], &cached());
    warm.outcome.expect("warm-up run");

    // Now every frame the worker sends arrives twice. The second Hello is
    // a strike. Duplicate Rows are discarded by chunk id; each duplicate
    // FetchChunk makes the coordinator re-send this connection's own
    // straggler (burning attempts), so give the budget headroom.
    let doubled = worker_faults(ChaosPlan {
        duplicate: 1.0,
        ..ChaosPlan::default()
    });
    let sim = coordinator(DistConfig {
        retry_budget: 20,
        ..chunks_of_two()
    })
    .simulate(&[doubled], &cached());
    let outcome = sim.outcome.expect("duplicates must not corrupt the run");
    assert_bitwise_equal(&outcome.report, reference_report());
    // Each of the 5 chunks has its answer discarded once and is re-sent
    // once, to answer a duplicated FetchChunk.
    assert_eq!(
        (outcome.duplicates, outcome.hedges, outcome.strikes),
        (5, 5, 1)
    );
    let summary = sim.workers[0].as_ref().expect("the worker is drained");
    assert!(summary.table_from_cache);
}

#[test]
fn workers_cache_the_table_and_reuse_it_across_sweeps() {
    let dir = temp_store_dir("cache");

    // Cold: the table travels over the wire and lands in the cache.
    let coordinator = Coordinator::from_sweep(reference_sweep(), DistConfig::default()).unwrap();
    let (c1, w1) = loopback_pair();
    let store_cold = TableStore::new(dir.clone());
    let worker = std::thread::spawn(move || {
        run_worker(
            w1,
            &WorkerConfig {
                threads: 0,
                cache: Some(store_cold),
            },
        )
    });
    let cold = coordinator.run(vec![c1]).expect("cold run");
    let summary = worker.join().unwrap().expect("worker completes");
    assert!(!summary.table_from_cache);
    assert_bitwise_equal(&cold.report, reference_report());
    // The cache holds exactly the bytes that came over the wire.
    let sent = tiny_table().to_bytes();
    let fingerprint = PerfTable::content_fingerprint_of(&sent);
    let cached = std::fs::read(dir.join(format!("perftable-c{fingerprint:016x}.spt")))
        .expect("the cold worker cached the table");
    assert_eq!(cached, sent);

    // Warm: a fresh worker against the same cache loads locally.
    let (c2, w2) = loopback_pair();
    let store_warm = TableStore::new(dir.clone());
    let worker = std::thread::spawn(move || {
        run_worker(
            w2,
            &WorkerConfig {
                threads: 0,
                cache: Some(store_warm),
            },
        )
    });
    let warm = coordinator.run(vec![c2]).expect("warm run");
    let summary = worker.join().unwrap().expect("worker completes");
    assert!(summary.table_from_cache);
    assert_bitwise_equal(&warm.report, reference_report());
}

#[test]
fn version_skew_is_rejected_without_killing_the_run() {
    use dist::{Frame, Transport, PROTOCOL_VERSION};

    // One impostor speaking the previous or a future protocol, one honest
    // worker.
    for theirs in [2, PROTOCOL_VERSION + 1] {
        let coordinator =
            Coordinator::from_sweep(reference_sweep(), DistConfig::default()).unwrap();
        let (c1, mut w1) = loopback_pair();
        let (c2, w2) = loopback_pair();
        let impostor = std::thread::spawn(move || {
            w1.send(&Frame::Hello { version: theirs }).unwrap();
            w1.recv()
        });
        let honest = std::thread::spawn(move || run_worker(w2, &WorkerConfig::default()));
        let outcome = coordinator
            .run(vec![c1, c2])
            .expect("the honest worker carries the sweep");
        assert_bitwise_equal(&outcome.report, reference_report());
        let answer = impostor.join().unwrap().expect("impostor gets an answer");
        let mismatch = DistError::VersionMismatch {
            ours: PROTOCOL_VERSION,
            theirs,
        };
        assert_eq!(
            answer,
            Frame::Error {
                message: mismatch.to_string()
            }
        );
        honest.join().unwrap().expect("honest worker completes");
    }
}

#[test]
fn a_worker_refuses_a_version_2_coordinator() {
    use dist::{Frame, Transport, PROTOCOL_VERSION};

    let (mut c, w) = loopback_pair();
    let worker = std::thread::spawn(move || run_worker(w, &WorkerConfig::default()));
    assert_eq!(
        c.recv().unwrap(),
        Frame::Hello {
            version: PROTOCOL_VERSION
        }
    );
    c.send(&Frame::Welcome {
        version: 2,
        table_fingerprint: 0,
        unit: WorkUnit::Weighted,
        spec: reference_sweep().spec().clone(),
        total_workloads: 10,
    })
    .unwrap();
    let err = worker.join().unwrap().expect_err("version 2 is refused");
    assert!(
        matches!(err, DistError::VersionMismatch { ours, theirs: 2 } if ours == PROTOCOL_VERSION),
        "{err:?}"
    );
}

#[test]
fn a_worker_rejects_table_bytes_that_miss_the_announced_fingerprint() {
    use dist::{Frame, Transport};

    let (mut c, w) = loopback_pair();
    let worker = std::thread::spawn(move || run_worker(w, &WorkerConfig::default()));
    assert!(matches!(c.recv().unwrap(), Frame::Hello { .. }));
    c.send(&Frame::Welcome {
        version: dist::PROTOCOL_VERSION,
        table_fingerprint: tiny_table().content_fingerprint(),
        unit: WorkUnit::Weighted,
        spec: reference_sweep().spec().clone(),
        total_workloads: 10,
    })
    .unwrap();
    assert_eq!(c.recv().unwrap(), Frame::TableRequest);
    // One flipped byte: the bytes are checked against the fingerprint
    // before they are parsed, so the mismatch is what the worker reports.
    let mut bytes = tiny_table().to_bytes();
    bytes[20] ^= 1;
    c.send(&Frame::TableBytes { bytes }).unwrap();
    let err = worker.join().unwrap().expect_err("wrong table is refused");
    assert!(
        matches!(&err, DistError::Protocol(m) if m.contains("fingerprint mismatch")),
        "{err:?}"
    );
}

#[test]
fn a_poisoned_chunk_aborts_the_run_without_retry() {
    // A workload with an out-of-range benchmark index fails evaluation
    // deterministically on any worker: the coordinator must abort, not
    // cycle the chunk through the retry budget.
    let sweep = Session::sweep()
        .table(tiny_table())
        .workloads(vec![vec![0, 1, 2], vec![0, 1, 99]])
        .policies([Policy::Optimal])
        .fcfs_jobs(JOBS)
        .seed(SEED);
    let coordinator = Coordinator::from_sweep(
        sweep,
        DistConfig {
            chunk_size: 1,
            retry_budget: 3,
            ..DistConfig::default()
        },
    )
    .unwrap();
    let (c1, w1) = loopback_pair();
    let worker = std::thread::spawn(move || run_worker(w1, &WorkerConfig::default()));
    let err = coordinator
        .run(vec![c1])
        .expect_err("a deterministic evaluation failure is fatal");
    assert!(
        matches!(err, DistError::Sweep(_)),
        "unexpected error: {err}"
    );
    assert!(matches!(worker.join().unwrap(), Err(DistError::Sweep(_))));
}

#[test]
fn invalid_configurations_are_rejected_before_any_worker_connects() {
    let no_workloads = Session::sweep()
        .table(tiny_table())
        .policies([Policy::Optimal]);
    assert!(matches!(
        Coordinator::from_sweep(no_workloads, DistConfig::default()),
        Err(DistError::Config(_))
    ));

    let fine = Coordinator::from_sweep(reference_sweep(), DistConfig::default()).unwrap();
    assert!(matches!(
        fine.run(Vec::<TcpTransport>::new()),
        Err(DistError::Config(_))
    ));
}

/// Every fault class a seeded `ChaosPlan` can inject must be accounted
/// for in `ChaosStats` exactly: one simulated mini-fleet per class, each
/// with a conversation shape that makes the injected count deterministic.
#[test]
fn chaos_stats_account_for_every_injected_fault_exactly() {
    let config = || DistConfig {
        chunk_size: 3, // 10 workloads -> 4 chunks
        recv_timeout: Duration::from_secs(2),
        ..DistConfig::default()
    };
    // Each leg's victim wears `plan` on its worker end; a clean survivor
    // carries the sweep.
    let leg = |plan: ChaosPlan, stats: ChaosStats| {
        let sim = simulate(config(), &[worker_faults(plan), Link::default()]);
        let outcome = sim.outcome.expect("survivor carries it");
        assert_bitwise_equal(&outcome.report, reference_report());
        sim.workers[1].as_ref().expect("survivor completes");
        assert_eq!(sim.faults, vec![stats, ChaosStats::default()]);
        sim.workers.into_iter().next().unwrap()
    };

    // Delay: fires on every sent frame but changes nothing else, so the
    // victim completes having delayed exactly its Hello + TableRequest +
    // one FetchChunk + Rows per chunk it took (two of the four) + its
    // final FetchChunk.
    let delayed = leg(
        ChaosPlan {
            seed: 1,
            delay: 1.0,
            max_delay: Duration::from_micros(50),
            ..ChaosPlan::default()
        },
        ChaosStats {
            delays: 7,
            ..ChaosStats::default()
        },
    );
    assert_eq!(delayed.expect("delays are not failures").chunks, 2);

    // The remaining classes each stop their victim at a deterministic
    // point in the handshake.

    // Crash: frames crossing the victim are Hello, Welcome, TableRequest,
    // TableBytes — the fifth operation trips the trigger.
    let crashed = leg(
        ChaosPlan::crash_after(4),
        ChaosStats {
            crashed: 1,
            ..ChaosStats::default()
        },
    );
    assert!(matches!(crashed, Err(DistError::Disconnected(_))));

    // Hang: same trip point, but the end falls silent instead of dying;
    // the coordinator's read deadline writes the victim off.
    let hung = leg(
        ChaosPlan::hang_after(4),
        ChaosStats {
            hung: 1,
            ..ChaosStats::default()
        },
    );
    assert!(matches!(hung, Err(DistError::Timeout(_))));

    // Corrupt: the victim's first received frame (Welcome) is bit-flipped
    // and fails decode, so exactly one corruption is ever injected.
    let corrupted = leg(
        ChaosPlan {
            seed: 7,
            corrupt: 1.0,
            ..ChaosPlan::default()
        },
        ChaosStats {
            corruptions: 1,
            ..ChaosStats::default()
        },
    );
    assert!(matches!(corrupted, Err(DistError::Protocol(_))));

    // Drop: the victim's Hello vanishes — its only send — and it waits
    // for a Welcome that never comes until the coordinator writes the
    // silent connection off and hangs up.
    let dropped = leg(
        ChaosPlan {
            seed: 5,
            drop: 1.0,
            ..ChaosPlan::default()
        },
        ChaosStats {
            drops: 1,
            ..ChaosStats::default()
        },
    );
    assert!(matches!(dropped, Err(DistError::Disconnected(_))));

    // Duplicate: the victim doubles Hello, TableRequest and FetchChunk,
    // then dies on the echoed second TableBytes — three duplicates, no
    // more, and parity still holds through the survivor.
    let doubled = leg(
        ChaosPlan {
            seed: 9,
            duplicate: 1.0,
            ..ChaosPlan::default()
        },
        ChaosStats {
            duplicates: 3,
            ..ChaosStats::default()
        },
    );
    assert!(matches!(doubled, Err(DistError::Protocol(_))));
}

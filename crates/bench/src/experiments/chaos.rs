//! Beyond the paper — the chaos experiment: seeded fault storms over
//! the distributed sweep and the online service, proving the robustness
//! machinery end to end.
//!
//! Three legs, every fault drawn from a seeded [`ChaosPlan`] so the
//! storm reproduces from the configuration alone:
//!
//! 1. **Distributed fault storm** — a three-worker TCP sweep where one
//!    worker crashes mid-chunk, one falls silent, and the survivor's
//!    frames are duplicated while the coordinator's ends delay and
//!    bit-flip frames. The merged report must stay bitwise identical to
//!    the single-process run and finish inside a wall-clock bound.
//! 2. **Serve degradation soak** — the online service starts from a
//!    model fitted against the *wrong* machine; the circuit breaker
//!    trips on the twin's `fit_q90` health signal, placements fall back
//!    to FCFS, and the breaker recovers once refits on live
//!    measurements pull the residuals back down.
//! 3. **Twin worker panic** — an injected panic in the background refit
//!    worker must surface as a clean [`ServeError::Twin`] instead of a
//!    poisoned lock or a hung shutdown.

use std::fmt;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dist::{
    run_worker, ChaosPlan, ChaosStats, ChaosTransport, Coordinator, DistConfig, TcpTransport,
    WorkerConfig,
};
use predict::{InterferenceFitter, PredictedModel, RateSample};
use serve::{run_serve, BeamPlacer, BreakerConfig, ServeConfig, ServeError, ServeReport};
use session::{Policy, Session, SweepBuilder, SweepReport};
use simproc::{BenchmarkProfile, Machine, MachineConfig};
use symbiosis::{enumerate_workloads, AnalyticModel, CoscheduleIter, RateModel};
use workloads::{spec2006, PerfTable};

use crate::experiments::ExperimentError;
use crate::study::StudyConfig;

/// Workers in the storm: one crasher, one hanger, one worker whose
/// answers get duplicated, and one clean worker whose coordinator end
/// corrupts every received frame (the guaranteed-corruption casualty).
const STORM_WORKERS: usize = 4;

/// Frames across the crashing worker's transport before it dies: past
/// the 6-frame cold handshake + first chunk, so it crashes holding work.
const CRASH_AFTER_FRAMES: usize = 10;

/// Frames across the hanging worker's transport before it falls silent.
const HANG_AFTER_FRAMES: usize = 8;

/// P(the surviving worker's sent frame is delivered twice).
const DUPLICATE_P: f64 = 0.25;

/// P(a coordinator-sent frame is delayed), and the delay bound.
const DELAY_P: f64 = 0.20;

/// P(a received frame has one bit flipped) on the sacrificial fourth
/// connection's coordinator end. Every frame: the corruption is
/// guaranteed to be observed, and that worker is a write-off by design
/// (the other three carry the sweep, so parity never depends on it).
const CORRUPT_P: f64 = 1.0;

/// Hard wall-clock bound on the storm: a run that survives the faults
/// but creeps past this has lost the recovery argument.
const STORM_WALL_BOUND: Duration = Duration::from_secs(60);

/// The policies swept in the storm leg.
const POLICIES: [Policy; 3] = [Policy::Worst, Policy::FcfsEvent, Policy::Optimal];

/// Aggregated per-fault-class tally across every chaotic transport.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Frames silently dropped on send.
    pub drops: usize,
    /// Frames delivered twice on send.
    pub duplicates: usize,
    /// Frames delayed on send.
    pub delays: usize,
    /// Frames bit-flipped on receive.
    pub corruptions: usize,
    /// Transports whose crash trigger fired.
    pub crashed: usize,
    /// Transports whose hang trigger fired.
    pub hung: usize,
}

impl FaultTally {
    fn absorb(&mut self, stats: &ChaosStats) {
        self.drops += stats.drops;
        self.duplicates += stats.duplicates;
        self.delays += stats.delays;
        self.corruptions += stats.corruptions;
        self.crashed += usize::from(stats.crashed);
        self.hung += usize::from(stats.hung);
    }
}

/// The chaos artefact: storm shape plus breaker and panic evidence.
///
/// The storm's fault tally and recovery counters depend on thread timing
/// (which worker holds which chunk when a trigger fires), so [`run`]
/// prints them, with the storm's wall time, to stderr; `Display` leaves
/// them out.
pub struct ChaosStudy {
    /// Workloads in the storm sweep.
    pub workloads: usize,
    /// Chunks the workload list was split into.
    pub chunks: usize,
    /// FCFS jobs per sweep cell.
    pub jobs: u64,
    /// Injected-fault tally across all six chaotic transports.
    pub faults: FaultTally,
    /// Chunk requeues the coordinator performed.
    pub requeues: usize,
    /// Straggler chunks re-dispatched (hedged).
    pub hedges: usize,
    /// Duplicate chunk answers discarded by id.
    pub duplicates_discarded: usize,
    /// Protocol strikes recorded against connections.
    pub strikes: usize,
    /// Jobs streamed through each serve leg.
    pub serve_jobs: usize,
    /// The stale seed model's first refit `fit_q90`.
    pub q90_first: f64,
    /// The calibration run's final refit `fit_q90`.
    pub q90_last: f64,
    /// Trip threshold handed to the breaker.
    pub trip_q90: f64,
    /// Recovery threshold handed to the breaker.
    pub recover_q90: f64,
    /// Breaker trips observed in the degradation soak.
    pub trips: usize,
    /// Breaker recoveries observed.
    pub recoveries: usize,
    /// Placements served by the FCFS fallback while open.
    pub fallback_calls: usize,
    /// Refit generation of the first trip.
    pub trip_generation: u64,
    /// Refit generation of the first recovery.
    pub recover_generation: u64,
    /// Jobs completed in the degradation soak.
    pub completed: u64,
    /// Jobs submitted in the degradation soak.
    pub submitted: u64,
    /// Mean slowdown of the degradation soak.
    pub mean_slowdown: f64,
    /// The error surfaced by the injected twin-worker panic.
    pub twin_panic: String,
}

/// Storm scale from the study config: full runs sweep 4 000 FCFS jobs
/// per cell, `--fast` (and the tests) proportionally fewer.
fn storm_jobs(cfg: &StudyConfig) -> u64 {
    (cfg.fcfs_jobs / 10).clamp(1_000, 4_000)
}

/// Serve-leg scale: how many jobs stream through each service run.
fn serve_jobs(cfg: &StudyConfig) -> usize {
    (cfg.fcfs_jobs / 10).clamp(200, 600) as usize
}

/// The storm's own tiny table: 5 benchmarks on short-window smt4, built
/// fresh so the leg never waits on the full study tables.
fn tiny_table(threads: usize) -> Result<PerfTable, ExperimentError> {
    let machine = Machine::new(MachineConfig::smt4().with_windows(2_000, 6_000))?;
    let suite: Vec<BenchmarkProfile> = spec2006().into_iter().take(5).collect();
    Ok(PerfTable::build(&machine, &suite, threads)?)
}

fn storm_sweep<'t>(table: &'t PerfTable, cfg: &StudyConfig) -> SweepBuilder<'t> {
    Session::sweep()
        .table(table)
        .workloads(enumerate_workloads(5, 3)) // 10 mixes
        .policies(POLICIES)
        .fcfs_jobs(storm_jobs(cfg))
        .seed(cfg.seed)
        .threads(cfg.threads)
}

/// Bitwise parity between the storm's merged report and the reference.
fn parity(distributed: &SweepReport, reference: &SweepReport) -> bool {
    if distributed != reference {
        return false;
    }
    distributed.rows.iter().zip(&reference.rows).all(|(d, r)| {
        d.workload == r.workload
            && d.report
                .rows
                .iter()
                .zip(&r.report.rows)
                .all(|(dp, rp)| dp.throughput.to_bits() == rp.throughput.to_bits())
    })
}

/// Runs the distributed fault storm; fills the storm fields of `out` and
/// prints the run-dependent ones (faults, recovery, wall) to stderr.
fn run_storm(cfg: &StudyConfig, out: &mut ChaosStudy) -> Result<(), ExperimentError> {
    let table = tiny_table(cfg.threads)?;
    let reference = storm_sweep(&table, cfg).run()?;

    let dist_cfg = DistConfig {
        chunk_size: 1, // 10 chunks: every fault lands on a small blast radius
        retry_budget: 8,
        recv_timeout: Duration::from_secs(3),
        hedge: true,
        quarantine_limit: 16,
        ..DistConfig::default()
    };
    let coordinator = Coordinator::from_sweep(storm_sweep(&table, cfg), dist_cfg)?;
    out.workloads = reference.len();
    out.chunks = coordinator.chunk_count();

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();

    // Worker-side plans: a crasher, a hanger, a worker whose answers
    // get duplicated, and a clean worker (the corruption casualty — its
    // faults live on the coordinator end). All seeded off the study
    // seed. Workers connect and are accepted one at a time so the
    // coordinator-end plans line up with the worker-side ones even
    // though TCP accept order is otherwise scheduler-dependent.
    let worker_plans = [
        ChaosPlan {
            seed: cfg.seed ^ 0x01,
            ..ChaosPlan::crash_after(CRASH_AFTER_FRAMES)
        },
        ChaosPlan {
            seed: cfg.seed ^ 0x02,
            ..ChaosPlan::hang_after(HANG_AFTER_FRAMES)
        },
        ChaosPlan {
            seed: cfg.seed ^ 0x03,
            duplicate: DUPLICATE_P,
            ..ChaosPlan::default()
        },
        ChaosPlan::default(),
    ];
    let per_worker_threads = (cfg.threads / STORM_WORKERS).max(1);
    let mut stats: Vec<Arc<Mutex<ChaosStats>>> = Vec::new();
    let mut fleet = Vec::new();
    let mut ends = Vec::with_capacity(STORM_WORKERS);
    // Each victim starts once the one before it has met its fault: the
    // crasher runs alone, then the hanger, then the other two. Alone, the
    // crasher's frames are the cold handshake and two whole chunks before
    // it dies, and the hanger's the handshake, one chunk and a request it
    // never reads the answer to, so it hangs holding a chunk. Sharing the
    // queue from the start, fast survivors could drain it before either
    // trigger fired.
    let mut victim: Option<(Arc<Mutex<ChaosStats>>, Fired)> = None;
    for (i, plan) in worker_plans.into_iter().enumerate() {
        let stream = TcpStream::connect(addr.as_str())?;
        // A generous read timeout: the fault triggers themselves return
        // immediately, this only guards against a wedged coordinator.
        let transport = TcpTransport::from_stream(stream, Duration::from_secs(10))?;
        let chaotic = ChaosTransport::new(transport, plan);
        let handle = chaotic.stats_handle();
        stats.push(Arc::clone(&handle));
        let worker_cfg = WorkerConfig {
            threads: per_worker_threads,
            cache: None,
        };
        let admit_after = victim.clone();
        fleet.push(std::thread::spawn(move || {
            if let Some((victim, fired)) = admit_after {
                wait_for_fault(&victim, fired);
            }
            run_worker(chaotic, &worker_cfg)
        }));
        let fault: Option<Fired> = match i {
            0 => Some(|s| s.crashed),
            1 => Some(|s| s.hung),
            _ => None,
        };
        if let Some(fired) = fault {
            victim = Some((handle, fired));
        }

        // The matching coordinator end: seeded delays everywhere, plus
        // total receive corruption on the last (sacrificial) connection.
        let (accepted, _) = listener.accept()?;
        let transport = TcpTransport::from_stream(accepted, dist_cfg_recv_timeout())?;
        let corrupt = if i == STORM_WORKERS - 1 {
            CORRUPT_P
        } else {
            0.0
        };
        let chaotic = ChaosTransport::new(
            transport,
            ChaosPlan {
                seed: cfg.seed ^ (0x10 + i as u64),
                delay: DELAY_P,
                corrupt,
                ..ChaosPlan::default()
            },
        );
        stats.push(chaotic.stats_handle());
        ends.push(chaotic);
    }

    let t0 = Instant::now();
    let outcome = coordinator.run(ends)?;
    let storm_wall = t0.elapsed();
    for handle in fleet {
        // Victims exit with Disconnected/Timeout by design; a panic is
        // the only thing that may not happen.
        let _ = handle.join().map_err(|_| "storm worker panicked")?;
    }

    if !parity(&outcome.report, &reference) {
        return Err("storm sweep diverged from the single-process run".into());
    }
    if storm_wall > STORM_WALL_BOUND {
        return Err(
            format!("storm took {storm_wall:.1?}, past the {STORM_WALL_BOUND:?} bound").into(),
        );
    }

    for handle in &stats {
        let snapshot = handle
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        out.faults.absorb(&snapshot);
    }
    out.jobs = storm_jobs(cfg);
    out.requeues = outcome.requeues;
    out.hedges = outcome.hedges;
    out.duplicates_discarded = outcome.duplicates;
    out.strikes = outcome.strikes;
    let f = &out.faults;
    eprintln!(
        "chaos: faults observed crashed={} hung={} drops={} duplicates={} delays={} corruptions={}",
        f.crashed, f.hung, f.drops, f.duplicates, f.delays, f.corruptions
    );
    eprintln!(
        "chaos: recovery requeues={} hedges={} duplicate-answers-discarded={} strikes={}",
        out.requeues, out.hedges, out.duplicates_discarded, out.strikes
    );
    eprintln!("chaos: storm wall {storm_wall:.2?} (bound {STORM_WALL_BOUND:?})");
    Ok(())
}

/// Whether a storm victim's fault has fired, read off its stats.
type Fired = fn(&ChaosStats) -> bool;

/// Blocks until `fired` holds for a victim's stats. The wait is bounded
/// well inside the coordinator's wait for a worker's first frame (the
/// storm's 3 s receive timeout), so a victim that never faults leaves the
/// next worker racing as before instead of losing its connection.
fn wait_for_fault(victim: &Mutex<ChaosStats>, fired: Fired) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while !fired(&victim.lock().unwrap_or_else(|p| p.into_inner())) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The coordinator-side socket read timeout: above the DistConfig recv
/// timeout so the deadline logic, not the OS, decides a worker is dead.
fn dist_cfg_recv_timeout() -> Duration {
    Duration::from_secs(5)
}

/// Ground truth for the serve legs: real symbiosis on a 4-context chip.
fn service_truth() -> AnalyticModel<impl Fn(&[u32], usize) -> f64> {
    AnalyticModel::new(4, 4, |counts: &[u32], ty| {
        let distinct = counts.iter().filter(|&&c| c > 0).count() as f64;
        let load: u32 = counts.iter().sum();
        (0.7 + 0.1 * ty as f64) * (1.0 + 0.22 * (distinct - 1.0))
            / (1.0 + 0.38 * (load as f64 - 1.0))
    })
}

/// The *wrong* machine the chaos twin was trained on: symbiosis
/// inverted (heterogeneity hurts) and contention overstated. A model
/// seeded here prices the real machine badly until live refits fix it.
fn stale_truth() -> AnalyticModel<impl Fn(&[u32], usize) -> f64> {
    AnalyticModel::new(4, 4, |counts: &[u32], ty| {
        let distinct = counts.iter().filter(|&&c| c > 0).count() as f64;
        let load: u32 = counts.iter().sum();
        (0.7 + 0.1 * ty as f64) * (1.0 - 0.15 * (distinct - 1.0))
            / (1.0 + 0.9 * (load as f64 - 1.0))
    })
}

/// Fits a twin seed from solo and pair measurements of `from`.
fn seed_model(from: &dyn RateModel) -> Result<PredictedModel, ExperimentError> {
    let n = from.num_types();
    let samples: Vec<RateSample> = (1..=2)
        .flat_map(|s| CoscheduleIter::new(n, s))
        .map(|c| RateSample {
            counts: c.counts().to_vec(),
            rates: (0..n).map(|ty| from.total_rate(c.counts(), ty)).collect(),
        })
        .collect();
    Ok(PredictedModel::fit(
        n,
        from.contexts(),
        samples,
        Box::new(InterferenceFitter),
    )?)
}

fn serve_base_cfg(cfg: &StudyConfig) -> ServeConfig {
    ServeConfig {
        arrival_rate: 2.5,
        jobs: serve_jobs(cfg),
        seed: cfg.seed,
        queue_capacity: 256,
        batch: 40,
        probes: 3,
        background_twin: true,
        breaker: None,
        twin_panic_at_batch: None,
    }
}

fn run_serve_leg(cfg: &ServeConfig, truth: &dyn RateModel) -> Result<ServeReport, ExperimentError> {
    let stale = stale_truth();
    Ok(run_serve(
        truth,
        seed_model(&stale)?,
        Box::new(BeamPlacer::new(6)),
        cfg,
    )?)
}

/// Runs the degradation soak: calibrate thresholds from a breaker-free
/// run of the same seeded stream, then prove the breaker trips on the
/// stale model and recovers once the twin has refitted on live data.
fn run_degradation(cfg: &StudyConfig, out: &mut ChaosStudy) -> Result<(), ExperimentError> {
    let truth = service_truth();
    let base = serve_base_cfg(cfg);
    out.serve_jobs = base.jobs;

    let calibration = run_serve_leg(&base, &truth)?;
    let first = calibration
        .refits
        .first()
        .ok_or("calibration run never refitted")?
        .fit_q90;
    let last = calibration
        .refits
        .last()
        .ok_or("calibration run never refitted")?
        .fit_q90;
    if last >= first {
        return Err(format!(
            "the twin did not improve on the stale seed (fit_q90 {first} -> {last})"
        )
        .into());
    }
    // Trip just under the stale model's opening health so generation 1
    // opens the breaker; recover at the geometric mean of the endpoints
    // so a converging twin closes it again with real hysteresis margin.
    out.q90_first = first;
    out.q90_last = last;
    out.trip_q90 = first * 0.95;
    out.recover_q90 = (out.trip_q90 * last).sqrt().min(out.trip_q90);

    let soaked = run_serve_leg(
        &ServeConfig {
            breaker: Some(BreakerConfig {
                trip_q90: out.trip_q90,
                recover_q90: out.recover_q90,
            }),
            ..base
        },
        &truth,
    )?;
    let report = soaked.breaker.ok_or("breaker report missing")?;
    out.trips = report.trips;
    out.recoveries = report.recoveries;
    out.fallback_calls = report.fallback_calls;
    out.trip_generation = report
        .events
        .iter()
        .find(|e| e.opened)
        .map_or(0, |e| e.generation);
    out.recover_generation = report
        .events
        .iter()
        .find(|e| !e.opened)
        .map_or(0, |e| e.generation);
    out.completed = soaked.completed;
    out.submitted = soaked.submitted;
    out.mean_slowdown = soaked.mean_slowdown;
    if out.trips == 0 {
        return Err("the breaker never tripped on the stale model".into());
    }
    if out.recoveries == 0 {
        return Err("the breaker never recovered after the twin refitted".into());
    }
    if soaked.completed != soaked.submitted {
        return Err(format!(
            "degradation soak lost jobs: {} submitted, {} completed",
            soaked.submitted, soaked.completed
        )
        .into());
    }
    Ok(())
}

/// Runs the twin-panic leg: the injected refit-worker panic must come
/// back as [`ServeError::Twin`], not a poisoned lock or a hang.
fn run_twin_panic(cfg: &StudyConfig, out: &mut ChaosStudy) -> Result<(), ExperimentError> {
    let truth = service_truth();
    let panic_cfg = ServeConfig {
        twin_panic_at_batch: Some(1),
        ..serve_base_cfg(cfg)
    };
    let stale = stale_truth();
    match run_serve(
        &truth,
        seed_model(&stale)?,
        Box::new(BeamPlacer::new(6)),
        &panic_cfg,
    ) {
        Err(ServeError::Twin(e)) => {
            out.twin_panic = e.to_string();
            Ok(())
        }
        Err(other) => Err(format!("expected a twin error, got: {other}").into()),
        Ok(_) => Err("the injected twin panic must fail the run".into()),
    }
}

/// Runs all three chaos legs.
///
/// # Errors
///
/// Any leg failing its robustness contract (parity, wall bound, breaker
/// trip + recovery, clean panic surfacing) is an error, never a silent
/// artefact.
pub fn run(cfg: &StudyConfig) -> Result<ChaosStudy, ExperimentError> {
    let mut out = ChaosStudy {
        workloads: 0,
        chunks: 0,
        jobs: 0,
        faults: FaultTally::default(),
        requeues: 0,
        hedges: 0,
        duplicates_discarded: 0,
        strikes: 0,
        serve_jobs: 0,
        q90_first: 0.0,
        q90_last: 0.0,
        trip_q90: 0.0,
        recover_q90: 0.0,
        trips: 0,
        recoveries: 0,
        fallback_calls: 0,
        trip_generation: 0,
        recover_generation: 0,
        completed: 0,
        submitted: 0,
        mean_slowdown: 0.0,
        twin_panic: String::new(),
    };
    run_storm(cfg, &mut out)?;
    run_degradation(cfg, &mut out)?;
    run_twin_panic(cfg, &mut out)?;
    Ok(out)
}

impl fmt::Display for ChaosStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Beyond the paper — chaos layer: seeded fault injection across dist and serve"
        )?;
        writeln!(f, "\ndistributed fault storm:")?;
        writeln!(
            f,
            "  sweep              : {} workloads x {} policies in {} chunk(s), {} jobs/cell, {} TCP workers",
            self.workloads,
            POLICIES.len(),
            self.chunks,
            self.jobs,
            STORM_WORKERS
        )?;
        writeln!(
            f,
            "  injected (workers) : crash@{CRASH_AFTER_FRAMES} frames, hang@{HANG_AFTER_FRAMES} frames, duplicate p={DUPLICATE_P}"
        )?;
        writeln!(
            f,
            "  injected (coord)   : delay p={DELAY_P} everywhere; corrupt p={CORRUPT_P} on the sacrificial 4th connection"
        )?;
        writeln!(
            f,
            "  parity             : PASS — merged report bitwise-identical to Session::sweep()"
        )?;
        writeln!(f, "\nserve degradation soak ({} jobs):", self.serve_jobs)?;
        writeln!(
            f,
            "  twin health        : fit_q90 {:.3} (stale seed) -> {:.3} (converged, breaker-free run)",
            self.q90_first, self.q90_last
        )?;
        writeln!(
            f,
            "  breaker thresholds : trip >= {:.3}, recover <= {:.3}",
            self.trip_q90, self.recover_q90
        )?;
        writeln!(
            f,
            "  breaker            : trips={} (generation {}), recoveries={} (generation {}), fallback placements={}",
            self.trips,
            self.trip_generation,
            self.recoveries,
            self.recover_generation,
            self.fallback_calls
        )?;
        writeln!(
            f,
            "  conservation       : {} submitted, {} completed, mean slowdown {:.3}",
            self.submitted, self.completed, self.mean_slowdown
        )?;
        writeln!(f, "\ntwin worker panic:")?;
        writeln!(
            f,
            "  injected at refit batch 1 -> surfaced cleanly as: {}",
            self.twin_panic
        )?;
        write!(
            f,
            "\nEvery fault above is drawn from a seeded ChaosPlan; the storm, the\n\
             breaker trip/recovery and the panic all reproduce from the seed alone."
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> StudyConfig {
        let mut cfg = StudyConfig::fast();
        cfg.fcfs_jobs = 10_000; // 1 000 storm jobs/cell, 600 serve jobs
        cfg.threads = 4;
        cfg
    }

    /// The acceptance criterion in one piece: the storm holds parity
    /// under crash + hang + duplicate + corrupt faults, the breaker
    /// demonstrably trips and recovers, and the twin panic surfaces.
    #[test]
    fn chaos_legs_hold_their_robustness_contracts() {
        let res = run(&test_cfg()).unwrap();
        assert_eq!(res.faults.crashed, 1, "the crash trigger fired once");
        assert_eq!(res.faults.hung, 1, "the hang trigger fired once");
        assert!(res.faults.corruptions >= 1, "corruption was observed");
        // The crashed worker's held chunk comes back either as a requeue
        // (no one else had it) or as a hedge (an idle worker already did).
        assert!(
            res.requeues + res.hedges >= 1,
            "lost chunks were re-dispatched"
        );
        assert!(res.strikes >= 1, "corrupt frames drew strikes");
        assert!(res.trips >= 1, "the breaker tripped on the stale model");
        assert!(res.recoveries >= 1, "the breaker recovered after refits");
        assert!(res.fallback_calls > 0, "FCFS actually served while open");
        assert!(res.twin_panic.contains("panicked"));
        let text = res.to_string();
        assert!(text.contains("chaos layer"));
        assert!(text.contains("parity             : PASS"));
        assert!(text.contains("recoveries="));
    }
}

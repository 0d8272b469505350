//! Beyond the paper — the chaos experiment: seeded fault storms over
//! the distributed sweep and the online service, proving the robustness
//! machinery end to end.
//!
//! Three legs, every fault drawn from a seeded [`ChaosPlan`] so the
//! whole experiment reproduces from the configuration alone:
//!
//! 1. **Distributed fault storm** — a four-worker sweep on dist's
//!    virtual-time network ([`Coordinator::simulate`]): one worker
//!    crashes, one falls silent, one's frames are duplicated or lost, the
//!    coordinator's ends delay frames and bit-flip the fourth link's. The
//!    merged report must stay bitwise identical to the single-process
//!    run; the fault tally and recovery counters replay exactly.
//! 2. **Serve degradation soak** — the online service starts from a
//!    model fitted against the *wrong* machine; the circuit breaker
//!    trips on the twin's `fit_q90` health signal, placements fall back
//!    to FCFS, and the breaker recovers once refits on live
//!    measurements pull the residuals back down.
//! 3. **Twin worker panic** — an injected panic in the background refit
//!    worker must surface as a clean [`ServeError::Twin`] instead of a
//!    poisoned lock or a hung shutdown.

use std::fmt;
use std::time::Instant;

use dist::{ChaosPlan, ChaosStats, Coordinator, DistConfig, Link, Simulation, WorkerConfig};
use predict::{InterferenceFitter, PredictedModel, RateSample};
use serve::{run_serve, BeamPlacer, BreakerConfig, ServeConfig, ServeError, ServeReport};
use session::{Policy, Session, SweepBuilder, SweepReport};
use simproc::{BenchmarkProfile, Machine, MachineConfig};
use symbiosis::{enumerate_workloads, AnalyticModel, CoscheduleIter, RateModel};
use workloads::{spec2006, PerfTable};

use crate::experiments::ExperimentError;
use crate::study::StudyConfig;

/// Workers in the storm: one crasher, one hanger, one worker whose
/// frames get duplicated or lost, and one clean worker whose coordinator
/// end corrupts every received frame (the guaranteed-corruption casualty).
const STORM_WORKERS: usize = 4;

/// Frames across the crashing worker's end before it dies.
const CRASH_AFTER_FRAMES: usize = 10;

/// Frames across the hanging worker's end before it falls silent.
const HANG_AFTER_FRAMES: usize = 8;

/// P(the third worker's sent frame is delivered twice).
const DUPLICATE_P: f64 = 0.25;

/// P(the third worker's sent frame is lost).
const DROP_P: f64 = 0.1;

/// P(a coordinator-sent frame is delayed).
const DELAY_P: f64 = 0.20;

/// P(a received frame has one bit flipped) on the sacrificial fourth
/// connection's coordinator end. Every frame: the corruption is
/// guaranteed to be observed, and that worker is a write-off by design
/// (the other three carry the sweep, so parity never depends on it).
const CORRUPT_P: f64 = 1.0;

/// The policies swept in the storm leg.
const POLICIES: [Policy; 3] = [Policy::Worst, Policy::FcfsEvent, Policy::Optimal];

/// The chaos artefact: storm shape, faults and recovery, plus breaker and
/// panic evidence.
#[derive(Debug, Default)]
pub struct ChaosStudy {
    /// Workloads in the storm sweep.
    pub workloads: usize,
    /// Chunks the workload list was split into.
    pub chunks: usize,
    /// FCFS jobs per sweep cell.
    pub jobs: u64,
    /// Injected-fault tally across every link end.
    pub faults: ChaosStats,
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

/// Bitwise parity between the storm's merged report and the reference:
/// equal values and equal `Debug` renderings, which print every float to
/// the bit (`-0.0` and `0.0` differ).
fn parity(distributed: &SweepReport, reference: &SweepReport) -> bool {
    distributed == reference && format!("{distributed:?}") == format!("{reference:?}")
}

/// The storm's links, seeded off the study seed: worker-end plans for a
/// crasher, a hanger and a duplicating, dropping worker; coordinator ends
/// delay frames everywhere and corrupt every frame on the fourth link.
fn storm_links(seed: u64) -> Vec<Link> {
    let workers = [
        ChaosPlan::crash_after(CRASH_AFTER_FRAMES),
        ChaosPlan::hang_after(HANG_AFTER_FRAMES),
        ChaosPlan {
            duplicate: DUPLICATE_P,
            drop: DROP_P,
            ..ChaosPlan::default()
        },
        ChaosPlan::default(),
    ];
    workers
        .into_iter()
        .enumerate()
        .map(|(i, worker)| Link {
            worker: ChaosPlan {
                seed: seed ^ (i as u64 + 1),
                ..worker
            },
            coordinator: ChaosPlan {
                seed: seed ^ (0x10 + i as u64),
                delay: DELAY_P,
                corrupt: if i == STORM_WORKERS - 1 {
                    CORRUPT_P
                } else {
                    0.0
                },
                ..ChaosPlan::default()
            },
        })
        .collect()
}

/// Runs the storm: the reference report, the chunk count and the run.
fn storm(cfg: &StudyConfig) -> Result<(SweepReport, usize, Simulation), ExperimentError> {
    let table = tiny_table(cfg.threads)?;
    let reference = storm_sweep(&table, cfg).run()?;
    let dist_cfg = DistConfig {
        chunk_size: 1, // 10 chunks: every fault lands on a small blast radius
        retry_budget: 8,
        recv_timeout: std::time::Duration::from_secs(3),
        hedge: true,
        quarantine_limit: 16,
    };
    let coordinator = Coordinator::from_sweep(storm_sweep(&table, cfg), dist_cfg)?;
    let worker = WorkerConfig {
        threads: (cfg.threads / STORM_WORKERS).max(1),
        cache: None,
    };
    let run = coordinator.simulate(&storm_links(cfg.seed), &worker);
    Ok((reference, coordinator.chunk_count(), run))
}

/// Fills the storm fields of `out`; the storm's wall time goes to stderr.
fn run_storm(cfg: &StudyConfig, out: &mut ChaosStudy) -> Result<(), ExperimentError> {
    let t0 = Instant::now();
    let (reference, chunks, run) = storm(cfg)?;
    let outcome = run.outcome?;
    if !parity(&outcome.report, &reference) {
        return Err("storm sweep diverged from the single-process run".into());
    }
    out.workloads = reference.len();
    out.chunks = chunks;
    out.jobs = storm_jobs(cfg);
    for link in &run.faults {
        out.faults.absorb(link);
    }
    out.requeues = outcome.requeues;
    out.hedges = outcome.hedges;
    out.duplicates_discarded = outcome.duplicates;
    out.strikes = outcome.strikes;
    eprintln!("chaos: storm wall {:.2?}", t0.elapsed());
    Ok(())
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
        jobs: (cfg.fcfs_jobs / 10).clamp(200, 600) as usize, // serve-leg scale
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
    let (first, last) = match (calibration.refits.first(), calibration.refits.last()) {
        (Some(first), Some(last)) => (first.fit_q90, last.fit_q90),
        _ => return Err("calibration run never refitted".into()),
    };
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
    let first_event = |opened| report.events.iter().find(|e| e.opened == opened);
    out.trip_generation = first_event(true).map_or(0, |e| e.generation);
    out.recover_generation = first_event(false).map_or(0, |e| e.generation);
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
    let stale = seed_model(&stale_truth())?;
    match run_serve(&truth, stale, Box::new(BeamPlacer::new(6)), &panic_cfg) {
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
    let mut out = ChaosStudy::default();
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
            "  sweep              : {} workloads x {} policies in {} chunk(s), {} jobs/cell, {} simulated workers",
            self.workloads,
            POLICIES.len(),
            self.chunks,
            self.jobs,
            STORM_WORKERS
        )?;
        writeln!(
            f,
            "  injected (workers) : crash@{CRASH_AFTER_FRAMES} frames, hang@{HANG_AFTER_FRAMES} frames, duplicate p={DUPLICATE_P}, drop p={DROP_P}"
        )?;
        writeln!(
            f,
            "  injected (coord)   : delay p={DELAY_P} everywhere; corrupt p={CORRUPT_P} on the sacrificial 4th connection"
        )?;
        writeln!(f, "  faults             : {}", self.faults)?;
        writeln!(
            f,
            "  recovery           : requeues={} hedges={} duplicate-answers-discarded={} strikes={}",
            self.requeues, self.hedges, self.duplicates_discarded, self.strikes
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

    /// One run at [`test_cfg`], shared by the tests below.
    fn study() -> &'static ChaosStudy {
        static STUDY: std::sync::OnceLock<ChaosStudy> = std::sync::OnceLock::new();
        STUDY.get_or_init(|| run(&test_cfg()).unwrap())
    }

    /// Golden FNV-1a digest of the printed artefact at [`test_cfg`]. A
    /// change meant to move it re-pins it and says why in CHANGES.md.
    const GOLDEN: u64 = 0xc5a0_dca9_251e_09fd;

    /// The acceptance criterion in one piece: the storm holds parity
    /// under every fault class with exact, replayable counts, the
    /// breaker demonstrably trips and recovers, and the twin panic
    /// surfaces.
    #[test]
    fn chaos_legs_hold_their_robustness_contracts() {
        let res = study();
        let faults = ChaosStats {
            drops: 1,
            duplicates: 3,
            delays: 4,
            corruptions: 1,
            crashed: 1,
            hung: 1,
        };
        assert_eq!(res.faults, faults);
        // The crashed and the hung worker's chunks were both hedged onto
        // idle workers; the fourth link's corrupt Hello drew one strike.
        assert_eq!(res.requeues, 0);
        assert_eq!(res.hedges, 2);
        assert_eq!(res.duplicates_discarded, 1);
        assert_eq!(res.strikes, 1);
        assert!(res.trips >= 1, "the breaker tripped on the stale model");
        assert!(res.recoveries >= 1, "the breaker recovered after refits");
        assert!(res.fallback_calls > 0, "FCFS actually served while open");
        assert!(res.twin_panic.contains("panicked"));
        let text = res.to_string();
        assert!(text.contains("chaos layer"));
        assert!(text.contains("parity             : PASS"));
        assert!(text.contains("faults             : crashed=1 hung=1"));
        assert!(text.contains("recoveries="));
    }

    #[test]
    fn chaos_stdout_matches_its_golden_digest() {
        let text = study().to_string();
        let digest = crate::artefact_digest(&text);
        assert_eq!(digest, GOLDEN, "chaos digest moved: {digest:#018x}\n{text}");
    }

    /// The storm is a function of its configuration: run twice, the
    /// second time on one evaluation thread, it injects the same faults
    /// on every link and recovers with the same counters.
    #[test]
    fn the_storm_replays_exactly() {
        let mut cfg = test_cfg();
        let (_, _, a) = storm(&cfg).unwrap();
        cfg.threads = 1;
        let (_, _, b) = storm(&cfg).unwrap();
        let counters = |sim: &Simulation| {
            let o = sim.outcome.as_ref().expect("the storm completes");
            (o.chunks, o.requeues, o.hedges, o.duplicates, o.strikes)
        };
        assert_eq!(counters(&a), counters(&b));
        assert_eq!(a.faults, b.faults);
        // Recovery does not creep: the last connection closes about one
        // 3 s read timeout (virtual) after the silent links went quiet.
        let outcome = a.outcome.as_ref().unwrap();
        let last_close = outcome.workers.iter().map(|w| w.wall).max().unwrap();
        assert!(
            last_close < std::time::Duration::from_secs(4),
            "{last_close:?}"
        );
        let mut tally = ChaosStats::default();
        for link in &a.faults {
            tally.absorb(link);
        }
        for (class, count) in [
            ("drop", tally.drops),
            ("duplicate", tally.duplicates),
            ("delay", tally.delays),
            ("corrupt", tally.corruptions),
            ("crash", tally.crashed),
            ("hang", tally.hung),
        ] {
            assert!(count >= 1, "no {class} fault fired");
        }
    }
}

//! The digital-twin model loop: bounded-staleness refits off the hot path.
//!
//! The dispatcher prices placements through a [`PredictedModel`] behind an
//! `RwLock`; completed-coschedule measurements accumulate in a pending
//! batch and every `batch` samples trigger a [`PredictedModel::refit`] —
//! inline, or on a background worker thread so the placement path never
//! waits on a least-squares solve. The batch size *is* the staleness
//! bound: the live model lags ground truth by fewer than `batch`
//! measurements.
//!
//! After each refit the twin turns its worst residuals into **active
//! probe requests** — neighbour multisets of the training samples the
//! model fits worst (selected via
//! [`PredictedModel::residual_quantiles`]). The driver measures those
//! multisets against the real machine and records them like any other
//! sample, steering the training set toward the model's weakest regions
//! instead of waiting for traffic to wander there.
//!
//! Refits are deterministic (same batches, same order ⇒ same model), so
//! inline and background modes produce byte-identical histories; the
//! only difference is who runs the solver.
//!
//! # Cost of one staleness cycle
//!
//! With `n` training samples and a batch of `b`:
//!
//! * the refit folds only the `b` new samples into the fitter's normal
//!   equations and solves them (see [`predict::model`]'s refit cost
//!   model), then refreshes all `n` residuals — the one part linear in
//!   the training set;
//! * the history record reads the 0.9 residual quantile and the mean
//!   error in `O(n)`, by selection, with no sort; the active probes sort
//!   only the residuals at or above that quantile;
//! * `run_serve` then measures the model against its truth grid: one
//!   predictor call per full coschedule, a cost fixed by the machine
//!   shape, not by `n`.

use predict::{PredictedModel, RateSample};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use symbiosis::RateModel;

/// A twin-loop failure surfaced at [`TwinLoop::shutdown`].
///
/// A refit-worker panic must not poison the whole service run: the
/// worker catches it, records it, and the service keeps placing on the
/// last good model until shutdown reports the failure as a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwinError {
    /// The background refit worker panicked (payload message attached);
    /// batches dispatched after the panic were never applied.
    WorkerPanicked(String),
}

impl std::fmt::Display for TwinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TwinError::WorkerPanicked(msg) => {
                write!(f, "twin refit worker panicked: {msg}")
            }
        }
    }
}

impl std::error::Error for TwinError {}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".into()
    }
}

/// One refit, as recorded in the twin's history.
#[derive(Debug, Clone, PartialEq)]
pub struct RefitRecord {
    /// 1-based refit generation.
    pub generation: u64,
    /// Training-set size after the refit.
    pub train_samples: usize,
    /// In-sample mean relative throughput error.
    pub fit_mean_abs_rel: f64,
    /// The 0.9 residual quantile — the active-sampling threshold.
    pub fit_q90: f64,
}

struct Progress {
    /// Refit batches applied so far (the generation counter).
    done: u64,
    /// Refit batches that failed (model kept its previous state).
    failed: u64,
    history: Vec<RefitRecord>,
    /// Probe multisets requested by active sampling, not yet collected.
    probes: Vec<Vec<u32>>,
    /// Set when the background worker died to a panic: the message.
    /// Waiters stop blocking on `done` once this is set.
    dead: Option<String>,
}

struct TwinShared {
    model: RwLock<PredictedModel>,
    progress: Mutex<Progress>,
    advanced: Condvar,
}

/// The live model and its refit pipeline. See the module docs.
pub struct TwinLoop {
    shared: Arc<TwinShared>,
    batch: usize,
    probes_per_refit: usize,
    pending: Vec<RateSample>,
    /// Batches dispatched (inline-applied or sent to the worker).
    sent: u64,
    tx: Option<mpsc::Sender<Vec<RateSample>>>,
    worker: Option<JoinHandle<()>>,
}

impl TwinLoop {
    /// An inline twin: refits run on the caller's thread at every
    /// `batch`-th recorded sample. `probes_per_refit` bounds how many
    /// active probe requests each refit may emit.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn new(model: PredictedModel, batch: usize, probes_per_refit: usize) -> Self {
        assert!(batch > 0, "staleness batch must be at least 1");
        TwinLoop {
            shared: Arc::new(TwinShared {
                model: RwLock::new(model),
                progress: Mutex::new(Progress {
                    done: 0,
                    failed: 0,
                    history: Vec::new(),
                    probes: Vec::new(),
                    dead: None,
                }),
                advanced: Condvar::new(),
            }),
            batch,
            probes_per_refit,
            pending: Vec::new(),
            sent: 0,
            tx: None,
            worker: None,
        }
    }

    /// A background twin: same semantics as [`TwinLoop::new`], but refits
    /// run on a dedicated worker thread and [`TwinLoop::record`] never
    /// blocks on the solver.
    pub fn background(model: PredictedModel, batch: usize, probes_per_refit: usize) -> Self {
        Self::background_with_fault(model, batch, probes_per_refit, None)
    }

    /// [`TwinLoop::background`] with deterministic fault injection: the
    /// worker panics while processing the zero-indexed
    /// `panic_at_batch`-th dispatched batch. The panic is caught on the
    /// worker, recorded, and surfaced as [`TwinError::WorkerPanicked`]
    /// from [`TwinLoop::shutdown`]; until then the service keeps placing
    /// on the last successfully fitted model. This is the chaos hook —
    /// pass `None` for production behaviour (a *real* panic in the
    /// fitter takes the same recovery path).
    pub fn background_with_fault(
        model: PredictedModel,
        batch: usize,
        probes_per_refit: usize,
        panic_at_batch: Option<u64>,
    ) -> Self {
        let mut twin = Self::new(model, batch, probes_per_refit);
        let (tx, rx) = mpsc::channel::<Vec<RateSample>>();
        let shared = twin.shared.clone();
        let probes = twin.probes_per_refit;
        let ctx = obs::current();
        twin.worker = Some(
            std::thread::Builder::new()
                .name("twin-refit".into())
                .spawn(move || {
                    let _obs = obs::install_current(&ctx);
                    let mut batches: u64 = 0;
                    while let Ok(batch) = rx.recv() {
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                if Some(batches) == panic_at_batch {
                                    panic!("injected twin fault at batch {batches}");
                                }
                                Self::apply(&shared, batch, probes);
                            }));
                        batches += 1;
                        if let Err(payload) = outcome {
                            // Record the death and stop consuming; the
                            // dropped receiver turns later dispatches
                            // into no-ops instead of a pile-up.
                            let mut progress = shared
                                .progress
                                .lock()
                                .unwrap_or_else(|poisoned| poisoned.into_inner());
                            progress.dead = Some(panic_message(payload.as_ref()));
                            shared.advanced.notify_all();
                            return;
                        }
                    }
                })
                .expect("spawn twin worker"),
        );
        twin.tx = Some(tx);
        twin
    }

    /// Read access to the live model, for pricing placements. Tolerates
    /// a poisoned lock: a worker that panicked mid-refit leaves the last
    /// consistent coefficients behind (refit replaces state only on
    /// success), and the service keeps pricing on them.
    pub fn read(&self) -> RwLockReadGuard<'_, PredictedModel> {
        self.shared
            .model
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Records one completed-coschedule measurement. Returns `true` when
    /// this sample filled the pending batch and a refit was dispatched
    /// (the caller may then collect [`TwinLoop::probe_requests`]).
    pub fn record(&mut self, sample: RateSample) -> bool {
        self.pending.push(sample);
        if self.pending.len() >= self.batch {
            self.flush();
            true
        } else {
            false
        }
    }

    /// Dispatches the pending batch (if any) regardless of size. A batch
    /// aimed at a dead worker is discarded (and not counted as sent), so
    /// a panicked twin degrades to a frozen model rather than an error
    /// on the placement path.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.pending);
        match &self.tx {
            Some(tx) => {
                if tx.send(batch).is_ok() {
                    self.sent += 1;
                }
            }
            None => {
                Self::apply(&self.shared, batch, self.probes_per_refit);
                self.sent += 1;
            }
        }
    }

    /// Blocks until every dispatched batch has been applied — or the
    /// worker died, in which case waiting any longer would hang forever.
    /// A no-op for inline twins.
    pub fn sync(&self) {
        let mut progress = self
            .shared
            .progress
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        while progress.done < self.sent && progress.dead.is_none() {
            progress = self
                .shared
                .advanced
                .wait(progress)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Refit generations applied so far (syncs first).
    pub fn generation(&self) -> u64 {
        self.sync();
        self.progress().done
    }

    /// Drains the active-sampling probe requests produced by refits so
    /// far (syncs first). The driver measures these multisets and records
    /// the results like ordinary samples.
    pub fn probe_requests(&mut self) -> Vec<Vec<u32>> {
        self.sync();
        std::mem::take(&mut self.progress().probes)
    }

    /// Snapshot of the refit history (syncs first).
    pub fn history(&self) -> Vec<RefitRecord> {
        self.sync();
        self.progress().history.clone()
    }

    fn progress(&self) -> std::sync::MutexGuard<'_, Progress> {
        self.shared
            .progress
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Flushes the remaining partial batch, waits for the worker to
    /// drain, and returns the final model plus the full refit history.
    ///
    /// # Errors
    ///
    /// [`TwinError::WorkerPanicked`] when the background worker died to a
    /// panic at any point in the run. The error is a value — the caller's
    /// thread is never re-panicked — and carries the panic message.
    pub fn shutdown(mut self) -> Result<(PredictedModel, Vec<RefitRecord>), TwinError> {
        self.flush();
        if let Some(tx) = self.tx.take() {
            drop(tx);
        }
        if let Some(worker) = self.worker.take() {
            // The worker catches its own panics; join still guards
            // against aborts in the unwind machinery itself.
            let _ = worker.join();
        }
        self.sync();
        let shared = Arc::into_inner(self.shared).expect("model handles outlive the twin");
        let model = shared
            .model
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let progress = shared
            .progress
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(message) = progress.dead {
            return Err(TwinError::WorkerPanicked(message));
        }
        Ok((model, progress.history))
    }

    /// Applies one batch: refit, record history, derive active probes.
    /// Shared by the inline path and the worker thread.
    fn apply(shared: &TwinShared, batch: Vec<RateSample>, probes_per_refit: usize) {
        let ctx = obs::current();
        let refit_started = std::time::Instant::now();
        let mut record = None;
        let mut probes = Vec::new();
        let ok = {
            let mut model = shared
                .model
                .write()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            match model.refit(&batch) {
                Ok(()) => {
                    let (mean, q90, worst) = Self::read_residuals(&model, probes_per_refit);
                    record = Some((model.samples().len(), mean, q90));
                    probes = worst;
                    true
                }
                // A failed fit keeps the previous predictor; the service
                // must keep running on the stale model.
                Err(_) => false,
            }
        };
        if let Some(rec) = &ctx {
            rec.histogram("twin.refit_us")
                .record(refit_started.elapsed().as_micros() as f64);
            rec.counter(if ok {
                "twin.refits"
            } else {
                "twin.refit_failures"
            })
            .add(1);
        }
        let mut progress = shared
            .progress
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        progress.done += 1;
        let generation = progress.done;
        if let Some((train_samples, fit_mean_abs_rel, fit_q90)) = record {
            progress.history.push(RefitRecord {
                generation,
                train_samples,
                fit_mean_abs_rel,
                fit_q90,
            });
            progress.probes.extend(probes);
        }
        if !ok {
            progress.failed += 1;
        }
        shared.advanced.notify_all();
    }

    /// Reads a refitted model's residual ledger once: the mean relative
    /// throughput error (summed in input order, as
    /// [`PredictedModel::fit_error`] does), its nearest-rank q90 (by
    /// selection, as [`PredictedModel::residual_quantiles`] does), and up
    /// to `limit` probes.
    fn read_residuals(model: &PredictedModel, limit: usize) -> (f64, f64, Vec<Vec<u32>>) {
        let mut ledger: Vec<(f64, &[u32])> = model
            .residuals()
            .iter()
            .map(|r| (r.rel_throughput, r.counts.as_slice()))
            .collect();
        let mean = ledger.iter().map(|&(e, _)| e).sum::<f64>() / ledger.len() as f64;
        let rank = ((ledger.len() - 1) as f64 * 0.9).round() as usize;
        let q90 = ledger
            .select_nth_unstable_by(rank, |a, b| a.0.total_cmp(&b.0))
            .1
             .0;
        let probes = Self::active_probes(ledger, q90, limit, model.contexts());
        (mean, q90, probes)
    }

    /// Derives probe requests from the worst residuals: for each training
    /// sample at or above the `q90` error threshold (worst first), emit a
    /// neighbour multiset — one job rotated to the next type — so the
    /// next measurements land *near* the model's weakest regions rather
    /// than exactly on already-measured points.
    fn active_probes(
        mut worst: Vec<(f64, &[u32])>,
        q90: f64,
        limit: usize,
        contexts: usize,
    ) -> Vec<Vec<u32>> {
        if limit == 0 {
            return Vec::new();
        }
        worst.retain(|&(e, _)| e >= q90);
        // Samples' multisets are distinct, so this order is total: the
        // ledger's order before it does not matter.
        worst.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(b.1)));
        let mut probes: Vec<Vec<u32>> = Vec::new();
        for (_, counts) in worst {
            if probes.len() >= limit {
                break;
            }
            if let Some(probe) = Self::neighbour(counts, contexts) {
                if !probes.contains(&probe) {
                    probes.push(probe);
                }
            }
        }
        probes
    }

    /// A deterministic neighbour of `counts`: move one job from the
    /// most-populous type to the next type (cyclically); for a single
    /// type, grow by one job if the machine has room, else shrink.
    fn neighbour(counts: &[u32], contexts: usize) -> Option<Vec<u32>> {
        let n = counts.len();
        let size: u32 = counts.iter().sum();
        if n == 1 {
            return if (size as usize) < contexts {
                Some(vec![size + 1])
            } else if size > 1 {
                Some(vec![size - 1])
            } else {
                None
            };
        }
        let donor = (0..n).max_by_key(|&ty| counts[ty]).unwrap();
        let mut probe = counts.to_vec();
        probe[donor] -= 1;
        probe[(donor + 1) % n] += 1;
        if probe == counts {
            return None;
        }
        Some(probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predict::InterferenceFitter;
    use queueing::sched::feasible_multisets;
    use symbiosis::{AnalyticModel, RateModel};

    fn truth() -> AnalyticModel<impl Fn(&[u32], usize) -> f64> {
        AnalyticModel::new(2, 3, |counts: &[u32], _ty| {
            let distinct = counts.iter().filter(|&&c| c > 0).count() as f64;
            let n: u32 = counts.iter().sum();
            0.9 * (1.0 + 0.2 * (distinct - 1.0)) / n as f64
        })
    }

    fn sample(truth: &dyn RateModel, counts: &[u32]) -> RateSample {
        RateSample {
            counts: counts.to_vec(),
            rates: (0..counts.len())
                .map(|ty| truth.total_rate(counts, ty))
                .collect(),
        }
    }

    fn samples_of_sizes(
        truth: &dyn RateModel,
        sizes: std::ops::RangeInclusive<u32>,
    ) -> Vec<RateSample> {
        let full = vec![truth.contexts() as u32; truth.num_types()];
        sizes
            .flat_map(|s| feasible_multisets(&full, s))
            .map(|c| sample(truth, &c))
            .collect()
    }

    fn seed_model(truth: &dyn RateModel) -> PredictedModel {
        PredictedModel::fit(
            truth.num_types(),
            truth.contexts(),
            samples_of_sizes(truth, 1..=2),
            Box::new(InterferenceFitter),
        )
        .unwrap()
    }

    #[test]
    fn refits_fire_at_the_staleness_bound() {
        let truth = truth();
        let mut twin = TwinLoop::new(seed_model(&truth), 3, 0);
        assert!(!twin.record(sample(&truth, &[3, 0])));
        assert!(!twin.record(sample(&truth, &[0, 3])));
        assert_eq!(twin.generation(), 0);
        assert!(twin.record(sample(&truth, &[2, 1])));
        assert_eq!(twin.generation(), 1);
        let history = twin.history();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].generation, 1);
        assert!(history[0].fit_q90 >= 0.0);
        let (model, history) = twin.shutdown().expect("clean shutdown");
        assert_eq!(history.len(), 1);
        assert_eq!(model.samples().len(), 5 + 3); // sizes 1..=2 plus batch
    }

    #[test]
    fn background_twin_matches_inline_history() {
        let truth = truth();
        let feed = samples_of_sizes(&truth, 3..=3);
        let run = |mut twin: TwinLoop| {
            for s in feed.clone() {
                twin.record(s);
            }
            twin.shutdown().expect("clean shutdown")
        };
        let (inline_model, inline_hist) = run(TwinLoop::new(seed_model(&truth), 2, 2));
        let (bg_model, bg_hist) = run(TwinLoop::background(seed_model(&truth), 2, 2));
        assert_eq!(inline_hist, bg_hist);
        assert!(!inline_hist.is_empty());
        assert_eq!(inline_model.samples(), bg_model.samples());
        assert_eq!(inline_model.coefficients(), bg_model.coefficients());
    }

    #[test]
    fn probe_requests_target_the_worst_regions() {
        let truth = truth();
        let mut twin = TwinLoop::new(seed_model(&truth), 2, 4);
        twin.record(sample(&truth, &[3, 0]));
        assert!(twin.record(sample(&truth, &[2, 1])));
        let probes = twin.probe_requests();
        assert!(!probes.is_empty());
        assert!(probes.len() <= 4);
        for probe in &probes {
            let size: u32 = probe.iter().sum();
            assert!((1..=3).contains(&size), "invalid probe {probe:?}");
            // Probes are fresh points near the training set, and the
            // request queue drains once collected.
        }
        assert!(twin.probe_requests().is_empty());
    }

    #[test]
    fn neighbour_moves_one_job_between_types() {
        assert_eq!(TwinLoop::neighbour(&[2, 1], 4), Some(vec![1, 2]));
        assert_eq!(TwinLoop::neighbour(&[0, 2], 4), Some(vec![1, 1]));
        assert_eq!(TwinLoop::neighbour(&[2], 4), Some(vec![3]));
        assert_eq!(TwinLoop::neighbour(&[4], 4), Some(vec![3]));
        assert_eq!(TwinLoop::neighbour(&[1], 1), None);
    }

    #[test]
    fn failed_refits_keep_the_model_serving() {
        let truth = truth();
        let mut twin = TwinLoop::new(seed_model(&truth), 1, 0);
        let before = twin.read().coefficients();
        // An all-identical degenerate batch cannot break the model: even
        // if the fitter rejects it, the previous predictor survives.
        twin.record(sample(&truth, &[1, 0]));
        let after = twin.read().coefficients();
        assert_eq!(before.len(), after.len());
        let (_, history) = twin.shutdown().expect("clean shutdown");
        assert!(history.len() <= 1);
    }

    #[test]
    fn a_panicking_worker_surfaces_an_error_instead_of_poisoning_the_run() {
        let truth = truth();
        let mut twin = TwinLoop::background_with_fault(seed_model(&truth), 1, 0, Some(0));
        let coeffs_before = twin.read().coefficients();
        // Dispatching the first batch kills the worker.
        assert!(twin.record(sample(&truth, &[2, 1])));
        // None of these may hang or re-panic on the caller's thread...
        twin.sync();
        assert_eq!(twin.generation(), 0);
        assert!(twin.history().is_empty());
        // ...the last good model keeps serving reads...
        assert_eq!(twin.read().coefficients(), coeffs_before);
        // ...later dispatches are shed instead of piling up...
        assert!(twin.record(sample(&truth, &[1, 2])));
        // ...and shutdown reports the panic as a value, message included.
        match twin.shutdown() {
            Err(err) => assert_eq!(
                err,
                TwinError::WorkerPanicked("injected twin fault at batch 0".into())
            ),
            Ok(_) => panic!("the injected panic must surface"),
        }
    }
}

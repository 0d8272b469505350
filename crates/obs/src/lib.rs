//! Structured tracing, metrics, and profiling hooks for the whole stack.
//!
//! Every layer of the reproduction — the sparse/colgen solvers, the
//! `Session::sweep()` fan-out, the distributed coordinator, and the online
//! serving loop — reports into one lock-cheap [`Recorder`]: monotonic
//! [`Counter`]s, set/add [`Gauge`]s with peak tracking, fixed-bucket
//! [`Histogram`]s, timed nested spans ([`span!`]), and severity-leveled
//! structured events ([`event!`]) that replace ad-hoc prints.
//!
//! # Context model
//!
//! Instrumentation sites never thread a recorder parameter through hot
//! APIs (the stationary solvers are pure functions). Instead they look up
//! the *current* recorder: a thread-local stack ([`install`]) consulted
//! first, then a process-global default ([`set_global`], which
//! `paperbench --trace PATH` / `SYMBIOSIS_TRACE` sets at startup). Fan-out
//! layers (the sweep worker pool, coordinator connection threads, the
//! background twin) capture [`current`] on the parent thread and install
//! it inside their workers, so one recorder observes a whole run across
//! threads.
//!
//! When no recorder is installed anywhere, every macro is a thread-local
//! read plus one relaxed atomic load — no allocation, no locks, no
//! formatting — so the disabled path stays invisible in the kernel
//! benchmarks ([`event!`] at `Warn`/`Error` still reaches stderr, so
//! operational warnings survive with tracing off).
//!
//! # Reports
//!
//! Batch surfaces embed a [`MetricsSnapshot`] *delta* (snapshot after
//! minus snapshot before, [`MetricsSnapshot::diff`]) so each
//! `SweepReport` / `DistOutcome` / `ServeReport` carries exactly the
//! activity of its own run even when one long-lived recorder spans many.
//!
//! # Trace stream
//!
//! A recorder built with [`Recorder::with_trace`] appends one JSON object
//! per line to the sink: `span` lines as timed scopes close, `event`
//! lines as leveled events fire, and `counter`/`gauge`/`hist` lines when
//! [`Recorder::trace_snapshot`] dumps final values. [`validate`] checks a
//! captured stream against the exact schema (unknown fields fail); the
//! `obs-smoke` CI job runs it over a real `paperbench obs --trace` run.
//!
//! # Instrumentation-point matrix
//!
//! | layer | name | type | site |
//! |-------|------|------|------|
//! | solver | `lp.gauss_seidel.sweeps` | counter | `lp::sparse::stationary_gauss_seidel` |
//! | solver | `lp.sor.sweeps` | counter | `lp::sparse::stationary_sor` |
//! | solver | `lp.solve.residual_neglog10` | histogram | final residual, both stationary solvers |
//! | solver | `lp.colgen.pricing_rounds` | counter | `lp::revised::solve_colgen` |
//! | solver | `solver.markov.dense` / `.gauss_seidel` / `.sor` | counter | Markov tier dispatch in `symbiosis::fcfs` (`.sor`: the accelerated color-ordered sweep past `DEFAULT_MARKOV_ACCEL_LIMIT` states) |
//! | solver | `fcfs.markov_solve` | span | whole stationary solve |
//! | solver | `solver.lp.dense` / `.colgen` | counter | `ScheduleLp::solve` dispatch |
//! | solver | `optimal.lp_solve` | span | whole LP solve |
//! | table build | `workloads.build_sampled` | span | whole `PerfTable::build_sampled` (`build` included), one per table |
//! | table build | `workloads.synthetic_sampled` | span | whole `PerfTable::synthetic_sampled` (`synthetic` included), one per table |
//! | FCFS event sim | `fcfs.event_sim` | span | whole `symbiosis::fcfs_throughput` |
//! | Section VI DES | `queueing.latency_run` | span | whole `queueing::run_latency_experiment` |
//! | Section VI DES | `queueing.batch_run` | span | whole `queueing::run_batch_experiment` |
//! | sweep | `sweep.items` | counter | per workload evaluated |
//! | sweep | `sweep.item_us` | histogram | per-workload latency in the pool |
//! | sweep | `sweep.pool_active` | gauge (peak) | concurrent workers at item start |
//! | sweep | `sweep.run` | span | whole `SweepBuilder::run` |
//! | sweep | `sweep.table_cache_hit` / `sweep.table_cache_miss` | counter | bench study `TableStore` lookups |
//! | dist | `dist.run` | span | whole `Coordinator::run` |
//! | dist | `dist.frames_sent` / `dist.frames_received` | counter | coordinator + worker frame I/O |
//! | dist | `dist.bytes_sent` / `dist.bytes_received` | counter | encoded frame bytes on the wire |
//! | dist | `dist.chunks_completed` / `dist.requeues` / `dist.hedges` / `dist.duplicates_discarded` / `dist.strikes` | counter | coordinator accounting |
//! | dist | `dist.chunk_us` | histogram | per-chunk worker latency (coordinator-side) |
//! | dist | `dist.table_cache_hit` / `dist.table_cache_miss` | counter | worker `TableStore` lookups |
//! | dist | `dist.worker_rejected` | event (warn) | coordinator version-skew rejection |
//! | dist | `dist.strike` / `dist.quarantine` / `dist.chunk_requeued` / `dist.hedge` | event (debug) | coordinator fault handling |
//! | dist | `dist.worker.table_cache_write_failed` | event (warn) | worker table-cache write failure |
//! | dist | `chaos.drop` / `chaos.delay` / `chaos.duplicate` / `chaos.corrupt` / `chaos.hang` / `chaos.crash` | counter | `ChaosTransport` fault injection |
//! | serve | `serve.run` | span | whole `run_serve` |
//! | serve | `serve.queue_depth` | gauge (peak) | jobs waiting for a context, before each fill |
//! | serve | `serve.shed` | counter | arrivals shed at a full waiting pool |
//! | serve | `serve.place_us` | histogram | dispatcher fill latency |
//! | predict | `predict.fit` | span | the fitter call in `PredictedModel::refit` (every fit and refit) |
//! | serve | `twin.refit_us` | histogram | model refit duration (inline or worker) |
//! | serve | `twin.error_us` | histogram | each error-trajectory point in `run_serve` (predictor over the truth grid) |
//! | serve | `twin.refits` / `twin.refit_failures` | counter | twin loop |
//! | serve | `serve.breaker_open` / `serve.breaker_close` | event (debug) | circuit-breaker transitions |
//!
//! # Example
//!
//! ```
//! let recorder = obs::Recorder::new();
//! let _guard = obs::install(&recorder);
//! obs::count!("demo.widgets", 3);
//! {
//!     let _span = obs::span!("demo.work");
//! }
//! let snap = recorder.snapshot();
//! assert_eq!(snap.counters["demo.widgets"], 3);
//! assert_eq!(snap.histograms["demo.work"].count, 1);
//! ```

mod recorder;
mod snapshot;
mod trace;
pub mod validate;

pub use recorder::{Counter, Gauge, Histogram, Level, Recorder, SpanGuard, BUCKET_BOUNDS};
pub use snapshot::{GaugeSummary, HistogramSummary, MetricsSnapshot};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

static GLOBAL_SET: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Mutex<Option<Recorder>>> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<Recorder>> = const { RefCell::new(Vec::new()) };
}

/// The recorder instrumentation sites report to: the innermost
/// thread-local [`install`], else the process-global default, else `None`
/// (instrumentation disabled). The disabled path is one thread-local read
/// and one relaxed atomic load.
pub fn current() -> Option<Recorder> {
    if let Some(r) = STACK.with(|s| s.borrow().last().cloned()) {
        return Some(r);
    }
    if !GLOBAL_SET.load(Ordering::Acquire) {
        return None;
    }
    GLOBAL
        .get()
        .and_then(|g| g.lock().unwrap_or_else(|p| p.into_inner()).clone())
}

/// Pops the thread-local recorder installed by [`install`] when dropped.
/// Not `Send`: the pop must happen on the installing thread.
#[must_use = "dropping the guard immediately uninstalls the recorder"]
pub struct ContextGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Installs `recorder` as this thread's current recorder until the
/// returned guard drops. Installs nest (innermost wins), so tests running
/// in parallel threads never observe each other's recorders.
pub fn install(recorder: &Recorder) -> ContextGuard {
    STACK.with(|s| s.borrow_mut().push(recorder.clone()));
    ContextGuard {
        _not_send: std::marker::PhantomData,
    }
}

/// [`install`] lifted over `Option`: fan-out layers capture
/// [`current`] on the parent thread and re-install it (when any) inside
/// each worker thread with this one call.
pub fn install_current(recorder: &Option<Recorder>) -> Option<ContextGuard> {
    recorder.as_ref().map(install)
}

/// Sets the process-global default recorder (what `paperbench --trace`
/// uses so one recorder observes the whole run). Thread-local
/// [`install`]s still take precedence.
pub fn set_global(recorder: Recorder) {
    *GLOBAL
        .get_or_init(|| Mutex::new(None))
        .lock()
        .unwrap_or_else(|p| p.into_inner()) = Some(recorder);
    GLOBAL_SET.store(true, Ordering::Release);
}

/// Removes the process-global default recorder.
pub fn clear_global() {
    if let Some(g) = GLOBAL.get() {
        *g.lock().unwrap_or_else(|p| p.into_inner()) = None;
    }
    GLOBAL_SET.store(false, Ordering::Release);
}

/// Implementation detail of [`event!`]: route one leveled event to the
/// current recorder, or to stderr (at `Warn` and above) when
/// instrumentation is disabled so operational warnings are never lost.
#[doc(hidden)]
pub fn __event_impl(level: Level, name: &str, args: std::fmt::Arguments<'_>) {
    match current() {
        Some(r) => r.event(level, name, &args.to_string()),
        None => {
            if level >= Level::Warn {
                eprintln!("{name}: {args}");
            }
        }
    }
}

/// Adds `n` to the named counter on the current recorder (no-op when
/// disabled): `obs::count!("dist.frames_sent", 1)`.
#[macro_export]
macro_rules! count {
    ($name:expr, $n:expr) => {
        if let Some(__r) = $crate::current() {
            __r.counter($name).add($n as u64);
        }
    };
}

/// Opens a timed span: `let _span = obs::span!("fcfs.sor_solve");`. The
/// span records its duration (µs) into a histogram of the same name when
/// the guard drops, emits a `span` trace line, and nests (the line
/// carries the depth of enclosing spans on this thread). Evaluates to
/// `Option<SpanGuard>` — `None` when disabled, so the cost is one
/// context lookup.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::current().map(|__r| __r.span($name))
    };
}

/// Emits a severity-leveled structured event:
/// `obs::event!(Warn, "dist.worker_rejected", "rejected worker {peer}: {err}")`.
/// With a recorder installed the event increments a counter named after
/// the event, lands in the trace stream, and (at `Warn`/`Error`) mirrors
/// to stderr; with instrumentation disabled, `Warn`/`Error` still print
/// to stderr and lower levels vanish without formatting.
#[macro_export]
macro_rules! event {
    ($level:ident, $name:expr, $($fmt:tt)+) => {
        $crate::__event_impl($crate::Level::$level, $name, format_args!($($fmt)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_macros_are_no_ops() {
        // No recorder installed on this thread and no global: every macro
        // must be callable and do nothing.
        count!("t.c", 1);
        let s = span!("t.span");
        drop(s);
        event!(Debug, "t.event", "ignored {}", 42);
    }

    #[test]
    fn install_scopes_to_the_thread_and_nests() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        {
            let _g1 = install(&outer);
            count!("n", 1);
            {
                let _g2 = install(&inner);
                count!("n", 10);
            }
            count!("n", 100);
        }
        assert_eq!(outer.snapshot().counters["n"], 101);
        assert_eq!(inner.snapshot().counters["n"], 10);
        assert!(current().is_none(), "guards popped");
    }

    #[test]
    fn other_threads_do_not_see_a_thread_local_install() {
        let rec = Recorder::new();
        let _g = install(&rec);
        std::thread::spawn(|| {
            count!("leak", 1);
        })
        .join()
        .unwrap();
        assert!(!rec.snapshot().counters.contains_key("leak"));
    }

    #[test]
    fn install_current_rewires_worker_threads() {
        let rec = Recorder::new();
        let _g = install(&rec);
        let ctx = current();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _g = install_current(&ctx);
                count!("worker.items", 2);
            });
        });
        assert_eq!(rec.snapshot().counters["worker.items"], 2);
    }

    #[test]
    fn spans_time_and_nest() {
        let rec = Recorder::new();
        let _g = install(&rec);
        {
            let _outer = span!("outer");
            let _inner = span!("inner");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.histograms["outer"].count, 1);
        assert_eq!(snap.histograms["inner"].count, 1);
    }

    #[test]
    fn events_count_by_name() {
        let rec = Recorder::new();
        let _g = install(&rec);
        event!(Info, "thing.happened", "x = {}", 1);
        event!(Info, "thing.happened", "x = {}", 2);
        assert_eq!(rec.snapshot().counters["thing.happened"], 2);
    }
}

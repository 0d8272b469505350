//! Beyond the paper: the observability registry check — an instrumented
//! sweep leg plus an instrumented serve leg, pretty-printing the
//! [`obs::MetricsSnapshot`] each report embeds.
//!
//! Every other experiment runs with instrumentation *disabled* (no
//! recorder installed, so every hook is a single relaxed atomic load).
//! This one installs a recorder around both legs and asserts the
//! embedding contract end-to-end:
//!
//! - the sweep leg's [`session::SweepReport::metrics`] carries exactly
//!   one `sweep.items` count per workload, per-item latency histograms,
//!   and the solver-internal counters (`lp.*` sweep counts,
//!   `fcfs.markov_solve` / `optimal.lp_solve` spans) recorded by worker
//!   threads through the re-installed pool context;
//! - the serve leg's [`serve::ServeReport::metrics`] carries the queue
//!   depth gauge, placement latency histogram, and twin refit metrics.
//!
//! With `--trace PATH` (or `SYMBIOSIS_TRACE`) the driver has already
//! installed a process-global recorder streaming JSONL; both legs then
//! report into *that* recorder, so the capture doubles as the obs-smoke
//! CI fixture validated by `paperbench validate-trace`.

use std::fmt;

use serve::{run_serve, PolicyPlacer, ServeConfig};
use session::Policy;
use symbiosis::{enumerate_workloads, RateModel};

use crate::experiments::n12_k8;
use crate::experiments::serve::{balanced_counts, seed_model, LOAD_FACTOR, SYNTH_TYPES};
use crate::study::StudyConfig;

/// Workload size of the sweep leg: keeps every rate table dense (165
/// coschedules) and every FCFS Markov chain tiny, so the leg is cheap
/// enough for CI while still driving the LP and Markov instrumentation.
pub const SWEEP_N: usize = 3;

/// Workloads the sweep leg evaluates (the first of
/// `enumerate_workloads(12, SWEEP_N)` in request order).
pub const SWEEP_WORKLOADS: usize = 8;

/// Jobs the serve leg streams — enough for queue-depth motion, sheds
/// under load, and several background twin refits.
pub const SERVE_JOBS: usize = 200;

/// Result of the observability check.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsStudy {
    /// Job types in the synthetic suite.
    pub types: usize,
    /// Hardware contexts.
    pub contexts: usize,
    /// Workloads the sweep leg evaluated.
    pub sweep_workloads: usize,
    /// Jobs the serve leg streamed.
    pub serve_jobs: usize,
    /// True when a `--trace` / `SYMBIOSIS_TRACE` global recorder was
    /// already installed (the legs then stream JSONL into it).
    pub traced: bool,
    /// The sweep leg's embedded metric delta.
    pub sweep_metrics: obs::MetricsSnapshot,
    /// The serve leg's embedded metric delta.
    pub serve_metrics: obs::MetricsSnapshot,
}

/// Runs both instrumented legs and checks the embedding contract.
///
/// # Errors
///
/// Propagates table/sweep/serve failures, and reports a broken contract
/// (missing or miscounted embedded metrics) as an error — this
/// experiment is the registry's guard that instrumentation stays wired.
pub fn run(cfg: &StudyConfig) -> Result<ObsStudy, String> {
    // Reuse the driver's global recorder when `--trace` installed one;
    // otherwise run on a private recorder so the legs always measure.
    let external = obs::current();
    let traced = external.is_some();
    let rec = external.unwrap_or_default();
    let _guard = obs::install(&rec);

    let table = n12_k8::synthetic_table()?;

    // Sweep leg: a small fixed slice so the runtime stays CI-friendly
    // regardless of --fast/--full. FCFS-MARKOV (not the event sim)
    // keeps the stationary-solver instrumentation in the picture.
    let mut workloads = enumerate_workloads(n12_k8::SUITE, SWEEP_N);
    workloads.truncate(SWEEP_WORKLOADS);
    let sweep = cfg.run_sweep(
        cfg.sweep(&table, workloads)
            .policies([Policy::Optimal, Policy::FcfsMarkov]),
    )?;
    let items = sweep.metrics.counters.get("sweep.items").copied();
    if items != Some(sweep.len() as u64) {
        return Err(format!(
            "sweep leg embedded {items:?} sweep.items for {} rows — instrumentation unwired?",
            sweep.len()
        ));
    }

    // Serve leg: the online service on the SYNTH_TYPES-restricted truth,
    // greedy placer, background twin — the serve experiment's scenario
    // at a fraction of its job count.
    let types: Vec<usize> = (0..SYNTH_TYPES).collect();
    let truth = table.workload_view(&types).map_err(|e| e.to_string())?;
    let (n, k) = (truth.num_types(), truth.contexts());
    let capacity = truth.instantaneous_throughput(&balanced_counts(n, k));
    let serve_cfg = ServeConfig {
        arrival_rate: LOAD_FACTOR * capacity,
        jobs: SERVE_JOBS,
        seed: cfg.seed,
        batch: 50,
        background_twin: true,
        ..ServeConfig::default()
    };
    let report = run_serve(
        &truth,
        seed_model(&truth)?,
        Box::new(PolicyPlacer::greedy()),
        &serve_cfg,
    )
    .map_err(|e| e.to_string())?;
    if !report.metrics.gauges.contains_key("serve.queue_depth")
        || !report.metrics.histograms.contains_key("serve.place_us")
    {
        return Err(format!(
            "serve leg embedded no queue/placement metrics — instrumentation unwired? got:\n{}",
            report.metrics
        ));
    }

    Ok(ObsStudy {
        types: n12_k8::SUITE,
        contexts: n12_k8::CONTEXTS,
        sweep_workloads: sweep.len(),
        serve_jobs: SERVE_JOBS,
        traced,
        sweep_metrics: sweep.metrics,
        serve_metrics: report.metrics,
    })
}

impl fmt::Display for ObsStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Observability check: instrumented sweep + serve legs on the synthetic \
             N = {} / K = {} machine",
            self.types, self.contexts
        )?;
        writeln!(
            f,
            "trace stream: {}\n",
            if self.traced {
                "active (--trace / SYMBIOSIS_TRACE)"
            } else {
                "inactive (pass --trace PATH to capture JSONL)"
            }
        )?;
        writeln!(
            f,
            "sweep leg — {} workload(s) of size {SWEEP_N}, OPTIMAL + FCFS-MARKOV:",
            self.sweep_workloads
        )?;
        write!(f, "{}", self.sweep_metrics)?;
        writeln!(
            f,
            "\nserve leg — {} job(s), GREEDY placer, background digital twin:",
            self.serve_jobs
        )?;
        write!(f, "{}", self.serve_metrics)?;
        writeln!(
            f,
            "\nEvery counter/gauge/histogram above was recorded by production code\n\
             paths; without an installed recorder each site costs one relaxed\n\
             atomic load (see the bench crate's BENCH_session.json delta)."
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_legs_embed_their_instrumentation() {
        let res = run(&StudyConfig::fast()).unwrap();
        assert!(!res.traced, "tests install no global trace recorder");
        assert_eq!(res.sweep_workloads, SWEEP_WORKLOADS);

        // Sweep leg: per-item accounting plus solver internals recorded
        // from pool worker threads.
        let sm = &res.sweep_metrics;
        assert_eq!(sm.counters["sweep.items"], SWEEP_WORKLOADS as u64);
        assert_eq!(sm.histograms["sweep.item_us"].count, SWEEP_WORKLOADS as u64);
        assert!(
            sm.histograms.contains_key("optimal.lp_solve"),
            "missing LP span: {sm}"
        );
        assert!(
            sm.histograms.contains_key("fcfs.markov_solve"),
            "missing Markov span: {sm}"
        );
        assert!(
            sm.gauges.contains_key("sweep.pool_active"),
            "missing pool gauge: {sm}"
        );

        // Serve leg: dispatcher and twin instrumentation.
        let vm = &res.serve_metrics;
        assert!(vm.gauges["serve.queue_depth"].max >= 1);
        assert!(vm.histograms["serve.place_us"].count >= 1);
        assert!(vm.counters.get("twin.refits").copied().unwrap_or(0) >= 1);
        assert!(
            vm.histograms.contains_key("serve.run"),
            "missing span: {vm}"
        );
    }

    #[test]
    fn display_prints_both_snapshots() {
        let res = run(&StudyConfig::fast()).unwrap();
        let text = format!("{res}");
        assert!(text.contains("sweep leg"), "{text}");
        assert!(text.contains("serve leg"), "{text}");
        assert!(text.contains("sweep.items"), "{text}");
        assert!(text.contains("serve.queue_depth"), "{text}");
    }
}

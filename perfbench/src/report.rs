//! What every workload shares: the metric lists, pass and set-up timing,
//! correctness bookkeeping, digests, the recorded reference values and
//! the result line.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::{Args, DEFAULT_SEED};

/// End-to-end metrics, printed with `--trace 0` (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("items_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics, printed with `--trace 1` (name, unit). A workload
/// that does not exercise a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.pass_wall_s", "s"),
    ("bench.layer_coverage", "frac"),
    ("bench.trace_overhead_cpu_s", "s"),
    ("simproc.simulate_ms.p50", "ms"),
    ("simproc.simulate_ms.p90", "ms"),
    ("simproc.simulate_ms.n", "count"),
    ("simproc.host_ns_per_cycle", "ns"),
    ("simproc.mips", "Minsn/s"),
    ("simproc.committed_insns", "count"),
    ("simproc.l1d_misses", "count"),
    ("simproc.l2_misses", "count"),
    ("simproc.l3_misses", "count"),
    ("simproc.bus_transfers", "count"),
    ("simproc.bus_queue_cycles", "cycles"),
    ("workloads.build_sampled_s", "s"),
    ("workloads.pool_util", "frac"),
    ("workloads.table_build_s", "s"),
    ("workloads.synthetic_table_s", "s"),
    ("lp.bounds_us.p50", "us"),
    ("lp.bounds_us.p90", "us"),
    ("lp.bounds_us.n", "count"),
    ("lp.dense_ms.p50", "ms"),
    ("lp.dense_ms.n", "count"),
    ("lp.colgen_ms.p50", "ms"),
    ("lp.colgen_ms.n", "count"),
    ("lp.colgen.pricing_rounds", "count"),
    ("lp.sweeps.gs", "count"),
    ("lp.sweeps.accel", "count"),
    ("lp.sweeps.big", "count"),
    ("symbiosis.markov_us.p50", "us"),
    ("symbiosis.markov_us.p90", "us"),
    ("symbiosis.markov_us.n", "count"),
    ("symbiosis.fcfs_event_ms.p50", "ms"),
    ("symbiosis.fcfs_event_ms.p90", "ms"),
    ("symbiosis.fcfs_event_ms.n", "count"),
    ("symbiosis.markov_chain_ms.gs", "ms"),
    ("symbiosis.markov_chain_ms.accel", "ms"),
    ("symbiosis.markov_chain_ms.big", "ms"),
    ("symbiosis.markov_solve_ms.gs", "ms"),
    ("symbiosis.markov_solve_ms.accel", "ms"),
    ("symbiosis.markov_solve_ms.big", "ms"),
    ("queueing.latency_ms.p50", "ms"),
    ("queueing.latency_ms.p90", "ms"),
    ("queueing.latency_ms.n", "count"),
    ("queueing.latency_s.fcfs", "s"),
    ("queueing.latency_s.maxit", "s"),
    ("queueing.latency_s.srpt", "s"),
    ("queueing.latency_s.maxtp", "s"),
    ("queueing.batch_ms.p50", "ms"),
    ("queueing.batch_ms.p90", "ms"),
    ("queueing.batch_ms.n", "count"),
    ("session.sweep_s.bounds", "s"),
    ("session.sweep_s.latency", "s"),
    ("session.sweep_s.batch", "s"),
    ("session.sweep_s.n6", "s"),
    ("session.sweep_s.n8", "s"),
    ("session.sweep_s.n12", "s"),
    ("session.pool_util", "frac"),
    ("dist.sweep_s", "s"),
    ("dist.overhead_ratio", "ratio"),
    ("dist.chunks", "count"),
    ("dist.requeues", "count"),
    ("predict.fit_ms", "ms"),
    ("serve.run_s", "s"),
    ("serve.place_us.p50", "us"),
    ("serve.place_us.p99", "us"),
    ("serve.place_us.n", "count"),
    ("serve.refit_us.p50", "us"),
    ("serve.refit_us.p90", "us"),
    ("serve.refit_us.n", "count"),
    ("serve.refits", "count"),
    ("serve.queue_depth_peak", "count"),
    ("serve.shed", "count"),
];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Fewest timed passes per run, however long a pass takes.
const MIN_PASSES: usize = 3;

/// Worker threads for the parallel library calls (the container's cores).
pub const THREADS: usize = 2;

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// Operations attempted and failed, with a note per failed check.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Checks {
    /// Counts `items` operations as attempted.
    pub fn attempt(&mut self, items: u64) {
        self.attempted += items;
    }

    /// Counts `items` operations as failed unless `ok`.
    pub fn check(&mut self, items: u64, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed = (self.failed + items).min(self.attempted);
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Checks that a pass's result digest equals the first pass's, which
    /// `first` keeps: every pass of a run must compute the same thing.
    pub fn same_as_first(&mut self, first: &mut Option<u64>, digest: u64, items: u64) {
        let expected = *first.get_or_insert(digest);
        self.check(items, digest == expected, || {
            format!("pass digest {digest:#x} differs from the first pass {expected:#x}")
        });
    }

    /// Checks a deterministic value against `reference.txt`. `applies`
    /// says whether the recorded value covers this run's inputs (most are
    /// recorded for [`DEFAULT_SEED`] only).
    pub fn reference(&mut self, key: &str, actual: u64, applies: bool, items: u64) {
        eprintln!("reference {key} = {actual:#x}");
        if !applies {
            return;
        }
        let expected = reference(key);
        self.check(items, expected == Some(actual), || match expected {
            Some(e) => format!("{key}: {actual:#x}, reference {e:#x}"),
            None => format!("{key}: no value recorded in reference.txt"),
        });
    }
}

/// True when the run uses the seed `reference.txt` records.
pub fn default_seed(args: &Args) -> bool {
    args.seed == DEFAULT_SEED
}

/// The value recorded for `key` in `reference.txt` (decimal or `0x` hex).
fn reference(key: &str) -> Option<u64> {
    include_str!("../reference.txt").lines().find_map(|line| {
        let (k, v) = line.split_once('=')?;
        if k.trim() != key {
            return None;
        }
        let v = v.trim();
        match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => v.parse().ok(),
        }
    })
}

/// What one workload run measured.
pub struct Outcome {
    /// Cost of each set-up repetition.
    pub setup: Vec<Cost>,
    /// Cost of each untraced timed pass.
    pub passes: Vec<Cost>,
    /// Work items one pass completes.
    pub items_per_pass: u64,
    pub checks: Checks,
    /// Per-layer metrics (filled by traced runs only).
    pub layers: Metrics,
}

impl Outcome {
    /// The end-to-end metrics of this run.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Metrics {
        let cpu = median_cpu(&self.passes);
        let ok = 1.0 - self.checks.failed as f64 / self.checks.attempted.max(1) as f64;
        [
            ("setup_s", median_cpu(&self.setup)),
            ("cpu_s", cpu),
            ("items_per_cpu_s", self.items_per_pass as f64 / cpu),
            ("peak_rss_mb", peak_rss_mb),
            ("ok_frac", ok),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }

    /// Human-readable account of the run, on standard error.
    pub fn print_summary(&self, args: &Args, peak_rss_mb: f64) {
        let range = |costs: &[Cost], f: fn(&Cost) -> f64| {
            let v: Vec<f64> = costs.iter().map(f).collect();
            format!(
                "{:.3}/{:.3}/{:.3}s",
                percentile(&v, 0.0),
                median(&v),
                percentile(&v, 1.0)
            )
        };
        eprintln!(
            "{} seed {}: {} set-ups cpu {} wall {}; {} passes of {} items cpu {} wall {} \
             (min/median/max); peak RSS {:.1} MB",
            args.workload,
            args.seed,
            self.setup.len(),
            range(&self.setup, |c| c.cpu),
            range(&self.setup, |c| c.wall),
            self.passes.len(),
            self.items_per_pass,
            range(&self.passes, |c| c.cpu),
            range(&self.passes, |c| c.wall),
            peak_rss_mb
        );
        eprintln!(
            "checks: {} of {} operations failed",
            self.checks.failed, self.checks.attempted
        );
        for note in &self.checks.notes {
            eprintln!("  FAILED {note}");
        }
    }
}

/// Wall and process CPU seconds (user + system, every thread) of one
/// measured span. The benchmark gates on CPU time: the host steals
/// time from this virtual machine in bursts, which stretches wall time
/// by up to 2x but is not charged to the process.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    pub wall: f64,
    pub cpu: f64,
}

/// Median CPU seconds of `costs`.
pub fn median_cpu(costs: &[Cost]) -> f64 {
    median(&costs.iter().map(|c| c.cpu).collect::<Vec<_>>())
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

/// Linux's clock of CPU time consumed by every thread of the process,
/// those that already exited included.
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;

/// Process CPU seconds so far; NaN if the clock fails, which the result
/// line refuses.
fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two C longs
    // on Linux) through a pointer that is valid and exclusively borrowed
    // for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Calls `f` once and returns its result with its wall and CPU cost.
pub fn measured<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let cpu = process_cpu_s();
    let (value, wall) = timed(f);
    let cost = Cost {
        wall,
        cpu: process_cpu_s() - cpu,
    };
    (value, cost)
}

/// Runs `setup` [`SETUP_REPS`] times and returns the last result with the
/// cost of every repetition. Each repetition's result is dropped before
/// the next starts, so the peak memory is one set-up's.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<Cost>), String> {
    let mut costs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (value, cost) = measured(&mut setup);
        last = Some(value?);
        costs.push(cost);
    }
    Ok((last.expect("SETUP_REPS > 0"), costs))
}

/// Runs `pass` until `seconds` have elapsed and at least [`MIN_PASSES`]
/// passes ran; returns what each pass reported as its cost (the pass
/// leaves its own preparation and checks out of that cost).
pub fn repeat_passes(
    seconds: f64,
    mut pass: impl FnMut() -> Result<Cost, String>,
) -> Result<Vec<Cost>, String> {
    let start = Instant::now();
    let mut costs = Vec::new();
    while costs.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        costs.push(pass()?);
    }
    Ok(costs)
}

/// Calls `f` once and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linearly interpolated `q`-quantile; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Records a timing distribution as `<prefix>.p50`, the given tail
/// percentile (`p90` or `p99`, each used only with at least ten samples
/// beyond it) and `<prefix>.n`.
pub fn record_timing(layers: &mut Metrics, prefix: &str, samples: &[f64], tail: Option<u32>) {
    layers.insert(format!("{prefix}.p50"), median(samples));
    if let Some(p) = tail {
        layers.insert(
            format!("{prefix}.p{p}"),
            percentile(samples, f64::from(p) / 100.0),
        );
    }
    layers.insert(format!("{prefix}.n"), samples.len() as f64);
}

/// Records the metrics every traced run reports: the median untraced
/// pass wall, the share of the traced pass's wall inside timed layer
/// calls, and the traced pass's CPU seconds minus the median untraced
/// pass's.
pub fn record_trace_cost(layers: &mut Metrics, in_layers_s: f64, traced: Cost, passes: &[Cost]) {
    let walls: Vec<f64> = passes.iter().map(|c| c.wall).collect();
    layers.insert("bench.pass_wall_s".into(), median(&walls));
    layers.insert("bench.layer_coverage".into(), in_layers_s / traced.wall);
    layers.insert(
        "bench.trace_overhead_cpu_s".into(),
        traced.cpu - median_cpu(passes),
    );
}

/// FNV-1a over 64-bit words: a digest of a run's deterministic outputs.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for peak RSS: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The result line: the check counts and every metric in `names`.
///
/// # Errors
///
/// A metric the run produced that `names` does not list, or an
/// end-to-end metric that is missing or not finite.
pub fn result_line(
    checks: &Checks,
    names: &[(&str, &str)],
    metrics: &Metrics,
) -> Result<String, String> {
    if let Some(stray) = metrics.keys().find(|k| !names.iter().any(|(n, _)| n == k)) {
        return Err(format!("metric {stray} is not in the published list"));
    }
    let mut body = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let value = match metrics.get(*name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is {v}")),
            None if names == PER_LAYER => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    ))
}

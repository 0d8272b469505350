//! Shared experiment context: machine configurations, performance tables
//! and workload enumeration used by all figure/table reproductions.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

use session::{Session, SessionBuilder, SweepBuilder, SweepReport};
use simproc::{Machine, MachineConfig, MachineError};
use symbiosis::enumerate_workloads;
use workloads::{spec2006, PerfTable, TableError, TableStore, WorkloadView};

use crate::experiments::ExperimentError;

/// Where a distributed sweep leg recruits its workers: the coordinator
/// listen address and how many workers must connect. Parsed from
/// `--distribute ADDR:NWORKERS` (the *last* colon splits, so
/// `host:port:n` works).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistributeSpec {
    /// Address the coordinator binds (`host:port`; port 0 is valid for
    /// in-process setups but useless across processes).
    pub addr: String,
    /// Workers to wait for before dispatching.
    pub workers: usize,
}

impl DistributeSpec {
    fn parse(value: &str) -> Result<Self, String> {
        let (addr, n) = value
            .rsplit_once(':')
            .ok_or_else(|| format!("--distribute wants ADDR:NWORKERS, got {value:?}"))?;
        let workers: usize = n
            .parse()
            .map_err(|e| format!("--distribute worker count: {e}"))?;
        if workers == 0 {
            return Err("--distribute needs at least one worker".into());
        }
        if addr.is_empty() {
            return Err("--distribute needs a bind address".into());
        }
        Ok(DistributeSpec {
            addr: addr.to_owned(),
            workers,
        })
    }
}

/// Which of the paper's two machine configurations an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Chip {
    /// 4-way SMT, 4-wide out-of-order core (Section V-A, first config).
    Smt,
    /// Quad-core with private L1/L2, shared L3 + bus (second config).
    Quad,
}

impl Chip {
    /// Both configurations, in paper order.
    pub const ALL: [Chip; 2] = [Chip::Smt, Chip::Quad];

    /// Human-readable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Chip::Smt => "SMT",
            Chip::Quad => "quad-core",
        }
    }

    /// The corresponding simulator configuration.
    pub fn machine_config(&self) -> MachineConfig {
        match self {
            Chip::Smt => MachineConfig::smt4(),
            Chip::Quad => MachineConfig::quadcore(),
        }
    }
}

/// Tunables for a study run; defaults reproduce the paper-scale setup.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyConfig {
    /// Simulator warm-up window in cycles.
    pub warmup_cycles: u64,
    /// Simulator measurement window in cycles.
    pub measure_cycles: u64,
    /// Jobs completed per FCFS maximum-throughput experiment.
    pub fcfs_jobs: u64,
    /// If set, analyse only a deterministic sample of this many workloads
    /// (the full set is 495 for N = 4 over 12 benchmarks).
    pub sample: Option<usize>,
    /// OS threads for table building and per-workload sweeps.
    pub threads: usize,
    /// Base RNG seed for the stochastic experiment legs.
    pub seed: u64,
    /// If set, performance tables are cached in this directory through a
    /// [`TableStore`]: warm runs load instead of re-simulating. Set by
    /// `--table-cache PATH` or the `SYMBIOSIS_TABLE_CACHE` environment
    /// variable.
    pub table_cache: Option<PathBuf>,
    /// Opt-in (`--simulated-k8`): run the K = 8 experiment legs against a
    /// *really simulated* 8-way SMT table ([`simproc::MachineConfig::smt8`]
    /// over the [`StudyConfig::K8_SUITE`] sub-suite) instead of only the
    /// synthetic big-machine table. Off by default — the simulated table
    /// costs a few thousand coschedule simulations on a cold cache.
    pub simulated_k8: bool,
    /// `--worker ADDR`: instead of running an experiment, serve a
    /// distributed-sweep coordinator at `ADDR` as a worker process until
    /// the coordinator goes away.
    pub worker: Option<String>,
    /// `--distribute ADDR:NWORKERS`: run every sweep leg started through
    /// [`StudyConfig::run_sweep`] as a distributed coordinator at `ADDR`
    /// instead of in-process. The merged report is bitwise identical
    /// either way, so this is purely an execution-placement knob.
    pub distribute: Option<DistributeSpec>,
    /// If set, the driver installs a process-global [`obs::Recorder`]
    /// streaming JSON-lines trace events (see [`obs::validate`] for the
    /// schema) to this file. Set by `--trace PATH` or the
    /// `SYMBIOSIS_TRACE` environment variable.
    pub trace: Option<PathBuf>,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            warmup_cycles: 60_000,
            measure_cycles: 240_000,
            fcfs_jobs: 40_000,
            sample: None,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            seed: 0x15_BA_55,
            table_cache: None,
            simulated_k8: false,
            worker: None,
            distribute: None,
            trace: None,
        }
    }
}

impl StudyConfig {
    /// A reduced configuration for tests: short simulator windows, few
    /// FCFS jobs, a 12-workload sample.
    pub fn fast() -> Self {
        StudyConfig {
            warmup_cycles: 2_000,
            measure_cycles: 8_000,
            fcfs_jobs: 4_000,
            sample: Some(12),
            ..StudyConfig::default()
        }
    }

    /// Starts a [`Session`] builder carrying this study's experiment
    /// parameters (FCFS job count, base seed) — the config-driven entry
    /// point every experiment hangs its policies on.
    pub fn session(&self) -> SessionBuilder<'static> {
        Session::builder().fcfs_jobs(self.fcfs_jobs).seed(self.seed)
    }

    /// Starts a [`Session::sweep`] builder over `table` and `workloads`
    /// carrying this study's experiment parameters — the batch counterpart
    /// of [`StudyConfig::session`].
    pub fn sweep<'t>(&self, table: &'t PerfTable, workloads: Vec<Vec<usize>>) -> SweepBuilder<'t> {
        Session::sweep()
            .table(table)
            .workloads(workloads)
            .fcfs_jobs(self.fcfs_jobs)
            .seed(self.seed)
            .threads(self.threads)
    }

    /// Runs a configured sweep the way this config asks: in-process
    /// ([`SweepBuilder::run`]) by default, or — with
    /// [`StudyConfig::distribute`] set — as a distributed coordinator
    /// that binds the configured address, waits for the configured number
    /// of `paperbench --worker` processes, and shards the sweep across
    /// them under the default [`dist::DistConfig`]. Either way the report
    /// is bitwise identical (the dist crate's parity suite pins that), so
    /// experiments route their sweep legs through here unconditionally.
    ///
    /// Per-worker accounting for distributed runs goes to stderr.
    ///
    /// # Errors
    ///
    /// The [`session::SweepError`] or [`dist::DistError`] of the run.
    pub fn run_sweep(&self, sweep: SweepBuilder<'_>) -> Result<SweepReport, ExperimentError> {
        let Some(spec) = &self.distribute else {
            return Ok(sweep.run()?);
        };
        let outcome = dist::Coordinator::from_sweep(sweep, dist::DistConfig::default())?
            .serve_tcp(&spec.addr, spec.workers)?;
        for w in &outcome.workers {
            eprintln!(
                "distributed sweep: worker {} answered {} chunk(s) / {} row(s) in {:.1?}",
                w.peer, w.chunks, w.rows, w.wall
            );
        }
        Ok(outcome.report)
    }

    /// Builds (or, with a configured [`StudyConfig::table_cache`], loads)
    /// the performance table for one machine configuration over the
    /// 12-benchmark suite, applying this config's simulator windows.
    ///
    /// Cache hits and misses are reported on stderr (`table cache hit ...`)
    /// so scripted runs can assert the warm path skipped simulation.
    ///
    /// # Errors
    ///
    /// Propagates simulator/table/store errors.
    pub fn build_table(&self, machine: MachineConfig) -> Result<PerfTable, StudyError> {
        self.table_for(machine, spec2006())
    }

    /// The benchmarks acting as job types on the simulated 8-way SMT
    /// machine: a contention-diverse six of the twelve-benchmark suite.
    /// Six keeps the full K = 8 table at 3 002 coschedules — hours, not
    /// days, of simulation at paper windows, and minutes at `--fast`.
    pub const K8_SUITE: [usize; 6] = [0, 2, 5, 7, 9, 11];

    /// Builds (or loads, like [`StudyConfig::build_table`]) the *really
    /// simulated* K = 8 performance table: [`MachineConfig::smt8`] over
    /// the [`StudyConfig::K8_SUITE`] benchmarks, all coschedule sizes
    /// 1..=8. Gated behind [`StudyConfig::simulated_k8`] by its callers.
    ///
    /// # Errors
    ///
    /// Propagates simulator/table/store errors.
    pub fn build_k8_table(&self) -> Result<PerfTable, StudyError> {
        let all = spec2006();
        let suite: Vec<_> = Self::K8_SUITE.iter().map(|&b| all[b].clone()).collect();
        self.table_for(MachineConfig::smt8(), suite)
    }

    /// Shared build-or-load path behind [`StudyConfig::build_table`] and
    /// [`StudyConfig::build_k8_table`].
    fn table_for(
        &self,
        machine: MachineConfig,
        suite: Vec<simproc::BenchmarkProfile>,
    ) -> Result<PerfTable, StudyError> {
        let machine = machine.with_windows(self.warmup_cycles, self.measure_cycles);
        match &self.table_cache {
            Some(dir) => {
                let store = TableStore::new(dir);
                let outcome = store.get_or_build(&machine, &suite, self.threads)?;
                if outcome.cache_hit {
                    obs::count!("sweep.table_cache_hit", 1);
                } else {
                    obs::count!("sweep.table_cache_miss", 1);
                }
                eprintln!(
                    "table cache {}: {}",
                    if outcome.cache_hit { "hit" } else { "miss" },
                    store.path_for(&machine, &suite).display()
                );
                Ok(outcome.table)
            }
            None => {
                let machine = Machine::new(machine)?;
                Ok(PerfTable::build(&machine, &suite, self.threads)?)
            }
        }
    }

    /// Applies this config's deterministic evenly-spaced sampling to a
    /// workload enumeration (identity when no sample is requested).
    pub fn sample_workloads(&self, all: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
        match self.sample {
            None => all,
            Some(n) if n >= all.len() => all,
            Some(n) => {
                let stride = all.len() as f64 / n as f64;
                (0..n)
                    .map(|i| all[(i as f64 * stride) as usize].clone())
                    .collect()
            }
        }
    }

    /// Parses the command-line flags shared by every experiment of the
    /// `paperbench` driver: `--fast` (test-scale), `--full`, `--sample N`,
    /// `--jobs N`, `--threads N`, `--table-cache PATH`, `--trace PATH`,
    /// `--simulated-k8`, `--worker ADDR` and `--distribute ADDR:NWORKERS`.
    /// When the cache flag is absent, the `SYMBIOSIS_TABLE_CACHE`
    /// environment variable supplies the cache directory.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags, malformed numbers, or a
    /// zero `--sample`.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        Self::from_args_with_env(
            args,
            std::env::var_os("SYMBIOSIS_TABLE_CACHE"),
            std::env::var_os("SYMBIOSIS_TRACE"),
        )
    }

    /// [`StudyConfig::from_args`] with the `SYMBIOSIS_TABLE_CACHE` and
    /// `SYMBIOSIS_TRACE` values passed explicitly — the testable core
    /// (tests must not mutate the process environment, which is racy
    /// across test threads).
    fn from_args_with_env<I: IntoIterator<Item = String>>(
        args: I,
        env_cache: Option<std::ffi::OsString>,
        env_trace: Option<std::ffi::OsString>,
    ) -> Result<Self, String> {
        let args: Vec<String> = args.into_iter().collect();
        // `--fast` swaps in a whole-config preset, so apply it before the
        // flag loop regardless of its position — otherwise it would wipe
        // every flag parsed before it (`--worker ADDR --fast` must keep
        // the worker address).
        let mut cfg = if args.iter().any(|a| a == "--fast") {
            StudyConfig::fast()
        } else {
            StudyConfig::default()
        };
        let mut table_cache: Option<PathBuf> = None;
        let mut trace: Option<PathBuf> = None;
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let mut grab = |name: &str| iter.next().ok_or_else(|| format!("{name} needs a value"));
            match arg.as_str() {
                "--fast" => {}
                "--sample" => {
                    let n = grab("--sample")?
                        .parse()
                        .map_err(|e| format!("--sample: {e}"))?;
                    if n == 0 {
                        return Err("--sample must be positive".into());
                    }
                    cfg.sample = Some(n);
                }
                "--full" => cfg.sample = None,
                "--jobs" => {
                    cfg.fcfs_jobs = grab("--jobs")?
                        .parse()
                        .map_err(|e| format!("--jobs: {e}"))?
                }
                "--threads" => {
                    cfg.threads = grab("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?
                }
                "--table-cache" => table_cache = Some(PathBuf::from(grab("--table-cache")?)),
                "--trace" => trace = Some(PathBuf::from(grab("--trace")?)),
                "--simulated-k8" => cfg.simulated_k8 = true,
                "--worker" => cfg.worker = Some(grab("--worker")?),
                "--distribute" => {
                    cfg.distribute = Some(DistributeSpec::parse(&grab("--distribute")?)?)
                }
                other => {
                    return Err(format!(
                        "unknown flag {other}; supported: --fast --full --sample N --jobs N \
                         --threads N --table-cache PATH --trace PATH \
                         --simulated-k8 --worker ADDR \
                         --distribute ADDR:NWORKERS"
                    ))
                }
            }
        }
        cfg.table_cache =
            table_cache.or_else(|| env_cache.filter(|v| !v.is_empty()).map(PathBuf::from));
        cfg.trace = trace.or_else(|| env_trace.filter(|v| !v.is_empty()).map(PathBuf::from));
        Ok(cfg)
    }
}

/// Job types per analysed workload: the paper's default N = 4.
pub(crate) const WORKLOAD_SIZE: usize = 4;

/// Errors from study construction.
#[derive(Debug)]
pub enum StudyError {
    /// Simulator configuration failed.
    Machine(MachineError),
    /// Table build failed.
    Table(TableError),
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Machine(e) => write!(f, "machine: {e}"),
            StudyError::Table(e) => write!(f, "table: {e}"),
        }
    }
}

impl Error for StudyError {}

impl From<MachineError> for StudyError {
    fn from(e: MachineError) -> Self {
        StudyError::Machine(e)
    }
}

impl From<TableError> for StudyError {
    fn from(e: TableError) -> Self {
        StudyError::Table(e)
    }
}

/// The full experimental context: performance tables for both chips over
/// the 12-benchmark suite, plus the workload enumeration.
pub struct Study {
    config: StudyConfig,
    smt: PerfTable,
    quad: PerfTable,
}

impl Study {
    /// Builds performance tables for both configurations (the expensive
    /// part: every coschedule of sizes 1..=4 over the 12 benchmarks).
    ///
    /// # Errors
    ///
    /// Propagates simulator/table errors.
    pub fn new(config: StudyConfig) -> Result<Self, StudyError> {
        Ok(Study {
            smt: config.build_table(Chip::Smt.machine_config())?,
            quad: config.build_table(Chip::Quad.machine_config())?,
            config,
        })
    }

    /// The study configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// The performance table for a chip.
    pub fn table(&self, chip: Chip) -> &PerfTable {
        match chip {
            Chip::Smt => &self.smt,
            Chip::Quad => &self.quad,
        }
    }

    /// The measured rate model for one workload on one chip — the source
    /// experiments hand to [`StudyConfig::session`].
    ///
    /// # Errors
    ///
    /// Propagates workload validation errors from the table.
    pub fn model(&self, chip: Chip, workload: &[usize]) -> Result<WorkloadView<'_>, TableError> {
        self.table(chip).workload_view(workload)
    }

    /// The analysed workloads: all `C(12, 4)` combinations (the paper's
    /// N = 4), or a deterministic evenly-spaced sample when the config
    /// requests one.
    pub fn workloads(&self) -> Vec<Vec<usize>> {
        self.config
            .sample_workloads(enumerate_workloads(12, WORKLOAD_SIZE))
    }

    /// Starts a batch sweep of this study's workloads on one chip's table,
    /// carrying the study's experiment parameters — the entry point the
    /// migrated experiments hang their policies on.
    pub fn sweep(&self, chip: Chip) -> SweepBuilder<'_> {
        self.config.sweep(self.table(chip), self.workloads())
    }
}

/// The shared `StudyConfig::fast()` study of the experiment unit tests,
/// built once per test binary.
#[cfg(test)]
pub(crate) fn fast_study() -> &'static Study {
    static STUDY: std::sync::OnceLock<Study> = std::sync::OnceLock::new();
    STUDY.get_or_init(|| Study::new(StudyConfig::fast()).expect("study builds"))
}

/// `StudyConfig::fast()` sampled down to six workloads: the shared study of
/// the n8, sec7, fig5 and fig6 unit tests, built once per test binary.
#[cfg(test)]
pub(crate) fn sampled_fast_study() -> &'static Study {
    static STUDY: std::sync::OnceLock<Study> = std::sync::OnceLock::new();
    STUDY.get_or_init(|| {
        let mut cfg = StudyConfig::fast();
        cfg.sample = Some(6);
        Study::new(cfg).expect("study builds")
    })
}

/// FNV-1a over the bytes of a printed artefact: the golden digest the
/// experiment tests pin their outputs with.
pub fn artefact_digest(text: &str) -> u64 {
    workloads::codec::fnv1a(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_args_parses_flags() {
        let cfg = StudyConfig::from_args(
            ["--sample", "7", "--jobs", "1000", "--threads", "2"].map(String::from),
        )
        .unwrap();
        assert_eq!(cfg.sample, Some(7));
        assert_eq!(cfg.fcfs_jobs, 1000);
        assert_eq!(cfg.threads, 2);
        assert!(StudyConfig::from_args(["--bogus".to_owned()]).is_err());
        assert!(StudyConfig::from_args(["--sample".to_owned()]).is_err());
    }

    #[test]
    fn from_args_rejects_the_removed_solver_thresholds() {
        for flag in [
            "--lp-dense-limit",
            "--markov-dense-limit",
            "--markov-accel-limit",
            "--dist-retries",
            "--dist-timeout-secs",
            "--dist-hedge",
        ] {
            let err = StudyConfig::from_args([flag, "64"].map(String::from)).unwrap_err();
            assert!(err.starts_with(&format!("unknown flag {flag}")), "{err}");
        }
    }

    #[test]
    fn from_args_rejects_a_zero_sample() {
        let err =
            StudyConfig::from_args(["--fast", "--sample", "0"].map(String::from)).unwrap_err();
        assert_eq!(err, "--sample must be positive");
        let cfg = StudyConfig::from_args(["--sample", "1"].map(String::from)).unwrap();
        assert_eq!(cfg.sample, Some(1));
    }

    #[test]
    fn from_args_parses_simulated_k8() {
        assert!(!StudyConfig::default().simulated_k8, "opt-in only");
        let cfg = StudyConfig::from_args(["--fast", "--simulated-k8"].map(String::from)).unwrap();
        assert!(cfg.simulated_k8);
        assert!(cfg.sample.is_some(), "other flags unaffected");
    }

    #[test]
    fn k8_suite_is_a_valid_sub_suite() {
        let names = workloads::spec_names();
        let mut seen = std::collections::HashSet::new();
        for &b in &StudyConfig::K8_SUITE {
            assert!(b < names.len(), "benchmark index {b} out of range");
            assert!(seen.insert(b), "duplicate benchmark {b}");
        }
    }

    #[test]
    fn from_args_parses_distribution_flags() {
        let cfg = StudyConfig::from_args(["--worker", "10.0.0.1:7077"].map(String::from)).unwrap();
        assert_eq!(cfg.worker.as_deref(), Some("10.0.0.1:7077"));
        assert_eq!(cfg.distribute, None);

        let cfg =
            StudyConfig::from_args(["--distribute", "0.0.0.0:7077:3"].map(String::from)).unwrap();
        let spec = cfg.distribute.expect("parsed");
        assert_eq!(spec.addr, "0.0.0.0:7077");
        assert_eq!(spec.workers, 3, "the last colon splits the worker count");

        assert!(StudyConfig::from_args(["--distribute", "noport"].map(String::from)).is_err());
        assert!(StudyConfig::from_args(["--distribute", "addr:0"].map(String::from)).is_err());
        assert!(StudyConfig::from_args(["--distribute", ":3"].map(String::from)).is_err());
        assert!(StudyConfig::from_args(["--worker".to_owned()]).is_err());
    }

    #[test]
    fn fast_preset_applies_first_regardless_of_position() {
        // `--fast` must not clobber flags that precede it on the line.
        let cfg = StudyConfig::from_args(
            ["--worker", "10.0.0.1:7077", "--fast", "--sample", "3"].map(String::from),
        )
        .unwrap();
        assert_eq!(cfg.worker.as_deref(), Some("10.0.0.1:7077"));
        assert_eq!(cfg.sample, Some(3));
        let cfg = StudyConfig::from_args(["--sample", "3", "--fast"].map(String::from)).unwrap();
        assert_eq!(cfg.sample, Some(3), "explicit sample beats the preset");
        assert_eq!(cfg.fcfs_jobs, StudyConfig::fast().fcfs_jobs);
    }

    #[test]
    fn run_sweep_without_distribution_runs_in_process() {
        use session::{Policy, Session, SweepError};
        let cfg = StudyConfig::fast();
        // An invalid sweep surfaces the builder's own typed error.
        let err = cfg
            .run_sweep(Session::sweep().policies([Policy::Optimal]))
            .expect_err("no table configured");
        assert!(
            matches!(err.downcast_ref(), Some(SweepError::MissingTable)),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn from_args_parses_table_cache() {
        let cfg = StudyConfig::from_args(["--fast", "--table-cache", "/tmp/tc"].map(String::from))
            .unwrap();
        assert_eq!(cfg.table_cache, Some(PathBuf::from("/tmp/tc")));
        assert!(StudyConfig::from_args(["--table-cache".to_owned()]).is_err());
        // The env fallback kicks in only when the flag is absent; the flag
        // wins when both are present. (Injected value — tests must not
        // mutate the real process environment.)
        let env = Some(std::ffi::OsString::from("/tmp/from-env"));
        let via_env =
            StudyConfig::from_args_with_env(["--fast".to_owned()], env.clone(), None).unwrap();
        assert_eq!(via_env.table_cache, Some(PathBuf::from("/tmp/from-env")));
        let via_flag = StudyConfig::from_args_with_env(
            ["--table-cache", "/tmp/explicit"].map(String::from),
            env,
            None,
        )
        .unwrap();
        assert_eq!(via_flag.table_cache, Some(PathBuf::from("/tmp/explicit")));
        let empty = StudyConfig::from_args_with_env(
            ["--fast".to_owned()],
            Some(std::ffi::OsString::new()),
            None,
        )
        .unwrap();
        assert_eq!(empty.table_cache, None, "empty env value is ignored");
    }

    #[test]
    fn from_args_parses_trace() {
        let cfg = StudyConfig::from_args(["--fast", "--trace", "/tmp/t.jsonl"].map(String::from))
            .unwrap();
        assert_eq!(cfg.trace, Some(PathBuf::from("/tmp/t.jsonl")));
        assert!(StudyConfig::from_args(["--trace".to_owned()]).is_err());
        // Same env-fallback contract as the table cache: env fills in when
        // the flag is absent, the flag wins, an empty value is ignored.
        let env = Some(std::ffi::OsString::from("/tmp/env.jsonl"));
        let via_env =
            StudyConfig::from_args_with_env(["--fast".to_owned()], None, env.clone()).unwrap();
        assert_eq!(via_env.trace, Some(PathBuf::from("/tmp/env.jsonl")));
        let via_flag = StudyConfig::from_args_with_env(
            ["--trace", "/tmp/flag.jsonl"].map(String::from),
            None,
            env,
        )
        .unwrap();
        assert_eq!(via_flag.trace, Some(PathBuf::from("/tmp/flag.jsonl")));
        let empty = StudyConfig::from_args_with_env(
            ["--fast".to_owned()],
            None,
            Some(std::ffi::OsString::new()),
        )
        .unwrap();
        assert_eq!(empty.trace, None, "empty env value is ignored");
    }

    #[test]
    fn sample_workloads_is_deterministic_and_bounded() {
        let mut cfg = StudyConfig::fast();
        let all: Vec<Vec<usize>> = (0..100).map(|i| vec![i]).collect();
        cfg.sample = Some(10);
        let a = cfg.sample_workloads(all.clone());
        let b = cfg.sample_workloads(all.clone());
        assert_eq!(a, b, "sampling is deterministic");
        assert_eq!(a.len(), 10);
        cfg.sample = Some(1000);
        assert_eq!(cfg.sample_workloads(all.clone()).len(), 100, "capped");
        cfg.sample = None;
        assert_eq!(cfg.sample_workloads(all.clone()), all, "identity");
    }

    #[test]
    fn build_table_caches_and_reloads_identically() {
        let dir = std::env::temp_dir().join(format!("symb-study-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = StudyConfig::fast();
        cfg.warmup_cycles = 500;
        cfg.measure_cycles = 1_500;
        cfg.table_cache = Some(dir.clone());
        let cold = cfg.build_table(Chip::Smt.machine_config()).unwrap();
        let cached: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(cached.len(), 1, "one cache file after the cold build");
        let warm = cfg.build_table(Chip::Smt.machine_config()).unwrap();
        // The warm path loads the saved file (the store tests pin that no
        // simulation runs); the loaded table must be bitwise faithful.
        assert_eq!(cold, warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fast_config_is_reduced() {
        let fast = StudyConfig::fast();
        let full = StudyConfig::default();
        assert!(fast.measure_cycles < full.measure_cycles);
        assert!(fast.sample.is_some());
    }

    #[test]
    fn config_driven_session_carries_study_parameters() {
        use session::{Policy, SessionError};
        let mut cfg = StudyConfig::fast();
        cfg.fcfs_jobs = 123;
        // The builder is preconfigured but has no rate source yet.
        let err = cfg.session().policy(Policy::Optimal).run();
        assert!(matches!(err, Err(SessionError::MissingRates)));
    }

    #[test]
    fn chip_labels_and_configs() {
        assert_eq!(Chip::Smt.label(), "SMT");
        assert_eq!(Chip::Quad.label(), "quad-core");
        assert_eq!(Chip::Smt.machine_config().contexts(), 4);
        assert_eq!(Chip::Quad.machine_config().contexts(), 4);
    }
}

//! Coschedule performance tables: simulation results for every coschedule.
//!
//! The paper simulates all 1365 combinations (with repetition) of 4 jobs out
//! of 12 benchmarks on both machine configurations (Section V-A).
//! [`PerfTable::build`] performs that sweep (in parallel across OS threads),
//! records per-slot IPCs plus solo reference IPCs, and converts any selected
//! workload into the [`symbiosis::WorkloadRates`] table the scheduling
//! analyses consume (rates in weighted instructions per cycle: IPC divided
//! by solo IPC).

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use simproc::{BenchmarkProfile, Machine, MachineError};
use symbiosis::{CoscheduleIndex, CoscheduleIter, RateModel, SymbiosisError, WorkloadRates};

/// Errors from building, querying or persisting a [`PerfTable`].
#[derive(Debug, Clone, PartialEq)]
pub enum TableError {
    /// The underlying simulation failed.
    Machine(MachineError),
    /// A workload references an unknown benchmark index.
    UnknownBenchmark(usize),
    /// A workload has the wrong shape (empty, unsorted, duplicates).
    InvalidWorkload(String),
    /// A sampled build was asked for with a malformed combo selection
    /// (unsorted, out of range, or missing the solo reference runs).
    InvalidSample(String),
    /// Rate-table conversion failed.
    Rates(SymbiosisError),
    /// Reading or writing a persisted table failed (the I/O error is
    /// carried as text so this enum stays `Clone + PartialEq`).
    Io(String),
    /// A persisted table file is malformed: wrong magic, unsupported
    /// version, checksum mismatch, truncation, or invalid contents.
    Format(String),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::Machine(e) => write!(f, "simulation failed: {e}"),
            TableError::UnknownBenchmark(i) => write!(f, "benchmark index {i} out of range"),
            TableError::InvalidWorkload(msg) => write!(f, "invalid workload: {msg}"),
            TableError::InvalidSample(msg) => write!(f, "invalid combo sample: {msg}"),
            TableError::Rates(e) => write!(f, "rate conversion failed: {e}"),
            TableError::Io(msg) => write!(f, "table file I/O failed: {msg}"),
            TableError::Format(msg) => write!(f, "malformed table file: {msg}"),
        }
    }
}

impl Error for TableError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TableError::Machine(e) => Some(e),
            TableError::Rates(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MachineError> for TableError {
    fn from(e: MachineError) -> Self {
        TableError::Machine(e)
    }
}

impl From<SymbiosisError> for TableError {
    fn from(e: SymbiosisError) -> Self {
        TableError::Rates(e)
    }
}

/// The unit of work defining throughput (Section III-B of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WorkUnit {
    /// Weighted instructions: each type's rate is normalised by its solo
    /// IPC, so equal work means equal solo execution time. The paper's
    /// reported unit and this crate's default.
    #[default]
    Weighted,
    /// Plain instructions: rates are raw IPCs and equal work means equal
    /// instruction counts. The paper states its qualitative conclusions
    /// also hold under this unit; the `unit_ablation` experiment verifies
    /// that for this reproduction.
    Plain,
}

/// Per-slot IPCs of every coschedule of `K` jobs over a benchmark suite,
/// plus solo reference IPCs.
///
/// Keys are sorted benchmark-index vectors of length `1..=K` (`K` is the
/// machine's context count); per-slot IPCs are aligned with that sorted
/// expansion.
///
/// Each recorded row is stored once, in a flat rank-indexed layout: `slots`
/// and `ipcs` hold the rows back to back in ascending combo order (the
/// [`PerfTable::recorded_combos`] and `SPT1` file order), and `starts` maps
/// a combo's [`CoscheduleIndex`] position to its row. Every
/// `slot_ipcs`/rate probe is O(size) rank arithmetic into these dense
/// arrays, with no hashing and no allocation. The packing is canonical, so
/// two tables compare equal exactly when their contents do.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfTable {
    pub(crate) names: Vec<String>,
    pub(crate) solo_ipc: Vec<f64>,
    pub(crate) contexts: usize,
    /// Numbers the combos of sizes `1..=contexts` in the streamed
    /// [`CoscheduleIter`] order, sizes concatenated ascending: the index
    /// space [`PerfTable::build_sampled`] selections address.
    pub(crate) index: CoscheduleIndex,
    /// Offset of each indexed combo's row in `slots` and `ipcs`, or
    /// [`UNRECORDED`] for combos a sampled build did not record.
    pub(crate) starts: Vec<u32>,
    /// The benchmark indices of every recorded combo, row after row.
    pub(crate) slots: Vec<usize>,
    /// Per-slot IPCs, aligned with `slots`.
    pub(crate) ipcs: Vec<f64>,
}

/// The `starts` entry of a combo with no recorded row.
pub(crate) const UNRECORDED: u32 = u32::MAX;

impl PerfTable {
    /// A table with no rows yet. Rows must then be pushed in ascending
    /// combo order, which keeps the packing canonical.
    pub(crate) fn empty(names: Vec<String>, solo_ipc: Vec<f64>, contexts: usize) -> Self {
        let index = CoscheduleIndex::new(names.len(), 1..=contexts);
        PerfTable {
            starts: vec![UNRECORDED; index.total()],
            index,
            names,
            solo_ipc,
            contexts,
            slots: Vec::new(),
            ipcs: Vec::new(),
        }
    }

    /// Appends the row of `combo`, whose index is `global`.
    pub(crate) fn push_row(&mut self, global: usize, combo: &[usize], ipcs: &[f64]) {
        self.starts[global] =
            u32::try_from(self.slots.len()).expect("flat table exceeds u32 offsets");
        self.slots.extend_from_slice(combo);
        self.ipcs.extend_from_slice(ipcs);
    }

    /// Packs sweep rows in ascending combo order and reads the solo IPCs
    /// off the size-1 rows, which every sweep selection contains.
    fn from_sweep(names: Vec<String>, contexts: usize, rows: &SweepRows) -> Self {
        let n = names.len();
        let mut table = PerfTable::empty(names, Vec::new(), contexts);
        // Walk every sorted combo of sizes 1..=contexts in ascending order
        // (a combo before its extensions) and pack the recorded ones.
        let mut combo = vec![0];
        loop {
            let global = table
                .index
                .index_sorted_slots(&combo)
                .expect("the walk yields sorted in-range combos");
            if let Some(ipcs) = rows.get(global, combo.len()) {
                table.push_row(global, &combo, ipcs);
            }
            // Successor: repeat the last index while the combo is short,
            // else drop the maxed-out tail and bump the index before it.
            if combo.len() < contexts {
                combo.push(combo[combo.len() - 1]);
                continue;
            }
            while combo.last() == Some(&(n - 1)) {
                combo.pop();
            }
            match combo.last_mut() {
                Some(last) => *last += 1,
                None => break,
            }
        }
        // Global index `b < n` is the size-1 combo `[b]`.
        table.solo_ipc = (0..n)
            .map(|b| table.row(b, 1).expect("selections hold every solo")[0])
            .collect();
        table
    }

    /// The `size` slot IPCs recorded at index `global`, if any.
    pub(crate) fn row(&self, global: usize, size: usize) -> Option<&[f64]> {
        let start = self.starts[global];
        if start == UNRECORDED {
            return None;
        }
        let start = start as usize;
        Some(&self.ipcs[start..start + size])
    }

    /// Per-slot IPCs of the coschedule holding `counts[local]` jobs of
    /// benchmark `types[local]` (`types` sorted): one rank probe, without
    /// materialising the expanded combo. The probe behind the rate
    /// conversions, which hold per-type counts.
    ///
    /// # Panics
    ///
    /// Panics if the coschedule is not recorded.
    fn workload_slots(&self, types: &[usize], counts: &[u32]) -> &[f64] {
        let size = counts.iter().sum::<u32>() as usize;
        self.index
            .index_with(size, |b| {
                types.binary_search(&b).map_or(0, |local| counts[local])
            })
            .and_then(|global| self.row(global, size))
            .unwrap_or_else(|| {
                let combo: Vec<usize> = counts
                    .iter()
                    .enumerate()
                    .flat_map(|(local, &c)| std::iter::repeat_n(types[local], c as usize))
                    .collect();
                panic!("coschedule {combo:?} missing from table")
            })
    }

    /// Simulates every coschedule of `machine.config().contexts()` jobs over
    /// `suite` (combinations with repetition) plus each benchmark solo:
    /// [`PerfTable::build_sampled`] over the whole enumeration.
    ///
    /// Work is distributed over up to `threads` OS threads (clamped to at
    /// least 1). The sweep is deterministic regardless of thread count.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MachineError`] encountered.
    pub fn build(
        machine: &Machine,
        suite: &[BenchmarkProfile],
        threads: usize,
    ) -> Result<Self, TableError> {
        let total = full_enumeration_len(suite.len(), machine.config().contexts());
        let everything: Vec<usize> = (0..total).collect();
        Self::build_sampled(machine, suite, threads, &everything)
    }

    /// Like [`PerfTable::build`], but simulates only the combos selected by
    /// `sample` — sorted distinct indices into the streamed enumeration of
    /// sizes `1..=contexts` (the order [`symbiosis::CoscheduleIter`] yields,
    /// sizes concatenated ascending). This is the measurement half of the
    /// `predict` crate's sampled-table pipeline: a budgeted subset is
    /// simulated and an interference model stands in for the rest.
    ///
    /// The selection must contain every size-1 combo (indices
    /// `0..suite.len()`): solo runs are the WIPC reference every conversion
    /// divides by. A selection covering the whole enumeration is exactly
    /// [`PerfTable::build`].
    ///
    /// # Errors
    ///
    /// [`TableError::InvalidSample`] for an unsorted/out-of-range selection
    /// or one missing solo runs; otherwise as [`PerfTable::build`].
    pub fn build_sampled(
        machine: &Machine,
        suite: &[BenchmarkProfile],
        threads: usize,
        sample: &[usize],
    ) -> Result<Self, TableError> {
        let _span = obs::span!("workloads.build_sampled");
        let k = machine.config().contexts();
        check_sample(suite.len(), k, sample)?;
        let rows = sweep_selected_combos(suite.len(), k, threads, sample, |combo| {
            let jobs: Vec<&BenchmarkProfile> = combo.iter().map(|&i| &suite[i]).collect();
            machine.simulate(&jobs).map(|res| res.ipc)
        })?;
        let names = suite.iter().map(|p| p.name.clone()).collect();
        Ok(PerfTable::from_sweep(names, k, &rows))
    }

    /// Builds a table from an analytic per-slot IPC model instead of the
    /// simulator — the entry point for big-machine scaling scenarios
    /// (e.g. K = 8 contexts over 12 benchmarks is 125 969 combos, far past
    /// what exhaustive simulation can cover). `ipc_fn` receives each sorted
    /// benchmark-index combination (sizes 1..=`contexts`, streamed — never
    /// materialised as a list) and returns the per-slot IPCs.
    ///
    /// # Errors
    ///
    /// [`TableError::InvalidWorkload`] if `names` is empty or
    /// `contexts == 0`, [`TableError::Rates`] if `ipc_fn` returns a vector
    /// of the wrong length or a non-finite/non-positive IPC.
    pub fn synthetic<F>(names: Vec<String>, contexts: usize, ipc_fn: F) -> Result<Self, TableError>
    where
        F: Fn(&[usize]) -> Vec<f64> + Sync,
    {
        let everything: Vec<usize> = (0..full_enumeration_len(names.len(), contexts)).collect();
        Self::synthetic_sampled(names, contexts, &everything, ipc_fn)
    }

    /// Like [`PerfTable::synthetic`], but evaluates only the combos
    /// selected by `sample` (same index contract as
    /// [`PerfTable::build_sampled`]) — the analytic counterpart of the
    /// sampled simulation sweep, used to stand in for measurement budgets
    /// on machines whose full table is enumerable but expensive.
    ///
    /// # Errors
    ///
    /// [`TableError::InvalidSample`] for a malformed selection; otherwise
    /// as [`PerfTable::synthetic`].
    pub fn synthetic_sampled<F>(
        names: Vec<String>,
        contexts: usize,
        sample: &[usize],
        ipc_fn: F,
    ) -> Result<Self, TableError>
    where
        F: Fn(&[usize]) -> Vec<f64> + Sync,
    {
        let _span = obs::span!("workloads.synthetic_sampled");
        if names.is_empty() {
            return Err(TableError::InvalidWorkload("no benchmarks".into()));
        }
        if contexts == 0 {
            return Err(TableError::InvalidWorkload("no contexts".into()));
        }
        check_sample(names.len(), contexts, sample)?;
        // Same streamed sweep as the simulated build (one enumeration
        // contract, deterministic first-error reporting), just with the
        // analytic model as the "simulator".
        let rows = sweep_selected_combos(names.len(), contexts, 1, sample, |combo| {
            let ipcs = ipc_fn(combo);
            if ipcs.len() != combo.len() {
                return Err(TableError::Rates(SymbiosisError::InvalidRates(format!(
                    "combo {combo:?}: expected {} slot IPCs, got {}",
                    combo.len(),
                    ipcs.len()
                ))));
            }
            if let Some(&bad) = ipcs.iter().find(|v| !v.is_finite() || **v <= 0.0) {
                return Err(TableError::Rates(SymbiosisError::InvalidRates(format!(
                    "combo {combo:?}: slot IPC {bad}"
                ))));
            }
            Ok(ipcs)
        })?;
        Ok(PerfTable::from_sweep(names, contexts, &rows))
    }

    /// Benchmark names, index-aligned with the suite used to build.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of hardware contexts the table was built for.
    pub fn contexts(&self) -> usize {
        self.contexts
    }

    /// Number of coschedules recorded.
    pub fn len(&self) -> usize {
        self.starts.iter().filter(|&&s| s != UNRECORDED).count()
    }

    /// True if no coschedules are recorded (cannot happen for valid builds).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Solo (reference) IPC of benchmark `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn solo_ipc(&self, b: usize) -> f64 {
        self.solo_ipc[b]
    }

    /// Per-slot IPCs for a sorted benchmark-index combination, if recorded.
    ///
    /// An O(size) rank-arithmetic probe into the flat layout — no hashing,
    /// no allocation. Malformed keys (empty, unsorted, oversized, out of
    /// range) read as unrecorded.
    pub fn slot_ipcs(&self, combo: &[usize]) -> Option<&[f64]> {
        let global = self.index.index_sorted_slots(combo)?;
        self.row(global, combo.len())
    }

    /// Every recorded `(sorted combo, per-slot IPCs)` pair, sorted by combo
    /// (ascending index vectors): the packed rows in storage order. The
    /// deterministic iteration the `predict` crate's sample extraction and
    /// the persisted file format both rely on.
    pub fn recorded_combos(&self) -> Vec<(&[usize], &[f64])> {
        let mut bounds: Vec<usize> = self
            .starts
            .iter()
            .filter(|&&s| s != UNRECORDED)
            .map(|&s| s as usize)
            .collect();
        bounds.sort_unstable();
        bounds.push(self.slots.len());
        bounds
            .windows(2)
            .map(|w| (&self.slots[w[0]..w[1]], &self.ipcs[w[0]..w[1]]))
            .collect()
    }

    /// Converts a workload (sorted distinct benchmark indices) into the
    /// WIPC rate table used by the `symbiosis` analyses.
    ///
    /// # Errors
    ///
    /// * [`TableError::InvalidWorkload`] if `types` is empty, unsorted or
    ///   has duplicates.
    /// * [`TableError::UnknownBenchmark`] if an index is out of range.
    pub fn workload_rates(&self, types: &[usize]) -> Result<WorkloadRates, TableError> {
        self.workload_rates_with_unit(types, WorkUnit::Weighted)
    }

    /// Like [`PerfTable::workload_rates`], but with an explicit unit of
    /// work: weighted instructions (solo-normalised) or plain instructions
    /// (raw IPC).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PerfTable::workload_rates`].
    pub fn workload_rates_with_unit(
        &self,
        types: &[usize],
        unit: WorkUnit,
    ) -> Result<WorkloadRates, TableError> {
        self.check_workload(types)?;
        let n = types.len();
        let rates = WorkloadRates::build(n, self.contexts, |s| {
            let counts = s.counts();
            let ipcs = self.workload_slots(types, counts);
            // Sum per local type over its (contiguous) slot run, in the
            // requested unit — same slot order, same float arithmetic as
            // the historical expanded-combo walk.
            let mut out = vec![0.0; n];
            let mut slot = 0usize;
            for (local, &count) in counts.iter().enumerate() {
                let scale = match unit {
                    WorkUnit::Weighted => self.solo_ipc[types[local]],
                    WorkUnit::Plain => 1.0,
                };
                for _ in 0..count {
                    out[local] += ipcs[slot] / scale;
                    slot += 1;
                }
            }
            out
        })?;
        Ok(rates)
    }

    /// Raw WIPC of a recorded combination: sum over slots of
    /// `IPC / solo IPC` (the weighted-speedup-style instantaneous
    /// throughput of that coschedule).
    pub fn combo_wipc(&self, combo: &[usize]) -> Option<f64> {
        let ipcs = self.slot_ipcs(combo)?;
        Some(
            combo
                .iter()
                .zip(ipcs)
                .map(|(&b, &ipc)| ipc / self.solo_ipc[b])
                .sum(),
        )
    }

    /// Creates a [`symbiosis::RateModel`] view of this table for one
    /// workload (sorted distinct benchmark indices), exposing partial
    /// coschedules to the latency simulator. Rates are in WIPC.
    ///
    /// Only the workload is checked here; no rate is read. A rate the
    /// table cannot convert surfaces where rates are read:
    /// [`RateModel::full_table`] (the same conversion as
    /// [`PerfTable::workload_rates`]) or [`symbiosis::RateGrid::new`].
    ///
    /// # Errors
    ///
    /// * [`TableError::InvalidWorkload`] if `types` is empty, unsorted or
    ///   has duplicates.
    /// * [`TableError::UnknownBenchmark`] if an index is out of range.
    pub fn workload_view(&self, types: &[usize]) -> Result<WorkloadView<'_>, TableError> {
        self.check_workload(types)?;
        Ok(WorkloadView {
            table: self,
            types: types.to_vec(),
        })
    }

    /// The workload checks of [`PerfTable::workload_rates`] and
    /// [`PerfTable::workload_view`]: non-empty, sorted and distinct, every
    /// index in range.
    fn check_workload(&self, types: &[usize]) -> Result<(), TableError> {
        if types.is_empty() {
            return Err(TableError::InvalidWorkload("no job types".into()));
        }
        if !types.windows(2).all(|w| w[0] < w[1]) {
            return Err(TableError::InvalidWorkload(
                "types must be sorted and distinct".into(),
            ));
        }
        for &t in types {
            if t >= self.names.len() {
                return Err(TableError::UnknownBenchmark(t));
            }
        }
        Ok(())
    }
}

/// Rows produced by the streamed combo sweep. Each worker appends the slot
/// IPCs of the rows it simulated to one flat buffer of its own, so a row
/// costs no allocation of its own while the sweep runs.
#[derive(Debug)]
struct SweepRows {
    /// `(enumeration index, worker, offset into that worker's buffer)`,
    /// ascending by index.
    rows: Vec<(usize, usize, usize)>,
    /// Each worker's rows' slot IPCs, back to back.
    ipcs: Vec<Vec<f64>>,
}

impl SweepRows {
    /// The `size` slot IPCs recorded at enumeration index `global`, if any.
    fn get(&self, global: usize, size: usize) -> Option<&[f64]> {
        let r = self
            .rows
            .binary_search_by_key(&global, |&(g, _, _)| g)
            .ok()?;
        let (_, worker, offset) = self.rows[r];
        Some(&self.ipcs[worker][offset..offset + size])
    }
}

/// Total combos in the streamed enumeration of sizes `1..=k` over
/// `n_benchmarks` benchmarks — the index space [`PerfTable::build_sampled`]
/// selections address.
fn full_enumeration_len(n_benchmarks: usize, k: usize) -> usize {
    (1..=k)
        .map(|size| CoscheduleIter::count_total(n_benchmarks, size))
        .sum()
}

/// Validates a sampled-build selection: sorted, distinct, in range, and
/// containing every solo run (indices `0..n_benchmarks`, which lead the
/// enumeration as the size-1 stratum).
fn check_sample(n_benchmarks: usize, k: usize, sample: &[usize]) -> Result<(), TableError> {
    let total = full_enumeration_len(n_benchmarks, k);
    if !sample.windows(2).all(|w| w[0] < w[1]) {
        return Err(TableError::InvalidSample(
            "selection must be sorted and distinct".into(),
        ));
    }
    if let Some(&last) = sample.last() {
        if last >= total {
            return Err(TableError::InvalidSample(format!(
                "index {last} out of range (enumeration has {total} combos)"
            )));
        }
    }
    if sample.len() < n_benchmarks
        || sample[..n_benchmarks] != (0..n_benchmarks).collect::<Vec<_>>()
    {
        return Err(TableError::InvalidSample(format!(
            "selection must include all {n_benchmarks} solo reference runs \
             (indices 0..{n_benchmarks})"
        )));
    }
    Ok(())
}

/// Streams the combos at `selection` (sorted positions in the enumeration
/// of every sorted combo of sizes 1..=`k` over `n_benchmarks` benchmarks)
/// through `sim` on up to `threads` OS threads. All multiset sizes are
/// swept: the latency experiments run through partially loaded periods,
/// and size-1 entries double as the solo reference runs.
///
/// Work distribution is self-balancing: workers claim the next selected
/// combo from a shared atomic cursor and advance a thread-local
/// [`CoscheduleIter`] to it, so the combo list is never materialised and no
/// thread idles on an uneven pre-cut chunk. Results are returned sorted in
/// enumeration order — deterministic regardless of thread count.
///
/// # Errors
///
/// The *first* failure in enumeration order. Deterministic by
/// construction: workers check a shared abort flag only *between*
/// simulations, so every combo claimed before the flag went up — which
/// includes every combo preceding the first failure — is still simulated,
/// and the smallest-indexed recorded error is reported.
fn sweep_selected_combos<E, F>(
    n_benchmarks: usize,
    k: usize,
    threads: usize,
    selection: &[usize],
    sim: F,
) -> Result<SweepRows, E>
where
    E: Send,
    F: Fn(&[usize]) -> Result<Vec<f64>, E> + Sync,
{
    let total = selection.len();
    let threads = threads.max(1).min(total.max(1));

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let results = Mutex::new(SweepRows {
        rows: Vec::with_capacity(total),
        ipcs: Vec::with_capacity(threads),
    });
    let first_error: Mutex<Option<(usize, E)>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut stream = (1..=k).flat_map(|size| CoscheduleIter::new(n_benchmarks, size));
                let mut cursor = 0usize;
                // `(enumeration index, offset into local_ipcs)` per row.
                let mut local_rows = Vec::new();
                let mut local_ipcs = Vec::new();
                loop {
                    // Abort check between simulations only (never between
                    // claiming and simulating): see the determinism note.
                    if abort.load(Ordering::Acquire) {
                        break;
                    }
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot >= total {
                        break;
                    }
                    let index = selection[slot];
                    // Catch the thread-local stream up to the claimed index.
                    while cursor < index {
                        stream.next();
                        cursor += 1;
                    }
                    let combo = stream.next().expect("index < enumeration length").slots();
                    cursor += 1;
                    match sim(&combo) {
                        Ok(ipcs) => {
                            local_rows.push((index, local_ipcs.len()));
                            local_ipcs.extend_from_slice(&ipcs);
                        }
                        Err(e) => {
                            let mut first = first_error.lock().expect("poisoned");
                            if first.as_ref().is_none_or(|(i, _)| index < *i) {
                                *first = Some((index, e));
                            }
                            drop(first);
                            abort.store(true, Ordering::Release);
                            break;
                        }
                    }
                }
                let mut results = results.lock().expect("poisoned");
                let worker = results.ipcs.len();
                results.ipcs.push(local_ipcs);
                let rows = local_rows.into_iter().map(|(i, off)| (i, worker, off));
                results.rows.extend(rows);
            });
        }
    });

    if let Some((_, e)) = first_error.into_inner().expect("poisoned") {
        return Err(e);
    }
    let mut rows = results.into_inner().expect("poisoned");
    rows.rows.sort_unstable_by_key(|&(index, _, _)| index);
    Ok(rows)
}

/// A borrowed view of a [`PerfTable`] restricted to one workload — the
/// *measured* [`RateModel`] implementation (including partial coschedules)
/// consumed by the Section VI latency experiments and the `session` crate.
#[derive(Debug, Clone)]
pub struct WorkloadView<'a> {
    table: &'a PerfTable,
    types: Vec<usize>,
}

impl WorkloadView<'_> {
    /// Mean WIPC over type `ty`'s slots, the contiguous run of `ipcs` after
    /// all smaller types' slots in the sorted expansion (slots of one type
    /// differ only by their RNG stream).
    fn mean_wipc(&self, ipcs: &[f64], counts: &[u32], ty: usize) -> f64 {
        let solo = self.table.solo_ipc[self.types[ty]];
        let start = counts[..ty].iter().sum::<u32>() as usize;
        let mut sum = 0.0;
        for &ipc in &ipcs[start..start + counts[ty] as usize] {
            sum += ipc / solo;
        }
        sum / counts[ty] as f64
    }
}

impl RateModel for WorkloadView<'_> {
    fn num_types(&self) -> usize {
        self.types.len()
    }

    fn contexts(&self) -> usize {
        self.table.contexts
    }

    fn per_job_rate(&self, counts: &[u32], ty: usize) -> f64 {
        assert_eq!(counts.len(), self.types.len(), "counts length mismatch");
        assert!(counts[ty] > 0, "type {ty} not present in coschedule");
        let ipcs = self.table.workload_slots(&self.types, counts);
        self.mean_wipc(ipcs, counts, ty)
    }

    fn instantaneous_throughput(&self, counts: &[u32]) -> f64 {
        // The default's fold (present types ascending, `c * rate`, summed),
        // with one probe shared by every present type: the same bits.
        let mut ipcs = None;
        counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(ty, &c)| {
                let ipcs = *ipcs.get_or_insert_with(|| {
                    assert_eq!(counts.len(), self.types.len(), "counts length mismatch");
                    self.table.workload_slots(&self.types, counts)
                });
                c as f64 * self.mean_wipc(ipcs, counts, ty)
            })
            .sum()
    }

    fn full_table(&self) -> Result<WorkloadRates, SymbiosisError> {
        // Delegate to the direct conversion: the default implementation
        // would recompute each total as count * (sum/count), which differs
        // from the slot sum by a ULP — enough to break the bit-identical
        // parity with the pre-`Session` path.
        self.table.workload_rates(&self.types).map_err(|e| match e {
            TableError::Rates(e) => e,
            other => SymbiosisError::InvalidRates(other.to_string()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec2006;
    use simproc::MachineConfig;
    use symbiosis::assert_rate_model_conformance;

    /// A tiny suite + short windows so tests stay fast.
    fn tiny_table() -> PerfTable {
        let machine = Machine::new(MachineConfig::smt4().with_windows(2_000, 6_000)).unwrap();
        let suite: Vec<BenchmarkProfile> = spec2006().into_iter().take(3).collect();
        PerfTable::build(&machine, &suite, 4).unwrap()
    }

    #[test]
    fn records_all_multisets() {
        let t = tiny_table();
        // Sizes 1..=4 over 3 benchmarks: 3 + 6 + 10 + 15 = 34 multisets.
        assert_eq!(t.len(), 34);
        assert_eq!(t.contexts(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn solo_ipcs_are_positive() {
        let t = tiny_table();
        for b in 0..3 {
            assert!(t.solo_ipc(b) > 0.0, "{}", t.names()[b]);
        }
    }

    #[test]
    fn slot_ipcs_keyed_by_sorted_combo() {
        let t = tiny_table();
        assert!(t.slot_ipcs(&[0, 0, 1, 2]).is_some());
        assert!(
            t.slot_ipcs(&[0, 1]).is_some(),
            "partial coschedules recorded"
        );
        assert!(t.slot_ipcs(&[0, 1, 1, 1, 2]).is_none(), "oversized key");
        assert!(t.slot_ipcs(&[2, 1, 0, 0]).is_none(), "unsorted key");
    }

    #[test]
    fn workload_rates_round_trip() {
        let t = tiny_table();
        let rates = t.workload_rates(&[0, 1, 2]).unwrap();
        assert_eq!(rates.num_types(), 3);
        assert_eq!(rates.contexts(), 4);
        // Homogeneous coschedule of type 0 maps to combo [0,0,0,0].
        let s = symbiosis::Coschedule::from_counts(vec![4, 0, 0]);
        let si = rates.index_of(&s).unwrap();
        let expected: f64 = t
            .slot_ipcs(&[0, 0, 0, 0])
            .unwrap()
            .iter()
            .map(|ipc| ipc / t.solo_ipc(0))
            .sum();
        assert!((rates.rate(si, 0) - expected).abs() < 1e-12);
    }

    #[test]
    fn invalid_workloads_rejected() {
        let t = tiny_table();
        assert!(matches!(
            t.workload_rates(&[]),
            Err(TableError::InvalidWorkload(_))
        ));
        assert!(matches!(
            t.workload_rates(&[1, 0]),
            Err(TableError::InvalidWorkload(_))
        ));
        assert!(matches!(
            t.workload_rates(&[0, 0]),
            Err(TableError::InvalidWorkload(_))
        ));
        assert!(matches!(
            t.workload_rates(&[0, 9]),
            Err(TableError::UnknownBenchmark(9))
        ));
    }

    #[test]
    fn build_is_deterministic_across_thread_counts() {
        let machine = Machine::new(MachineConfig::smt4().with_windows(1_000, 3_000)).unwrap();
        let suite: Vec<BenchmarkProfile> = spec2006().into_iter().take(2).collect();
        let a = PerfTable::build(&machine, &suite, 1).unwrap();
        let b = PerfTable::build(&machine, &suite, 8).unwrap();
        assert_eq!(a, b);
        for (combo, ipcs) in a.recorded_combos() {
            assert_eq!(b.slot_ipcs(combo).unwrap(), ipcs);
        }
    }

    /// Every enumeration index of sizes `1..=k` over `n` benchmarks.
    fn everything(n: usize, k: usize) -> Vec<usize> {
        (0..full_enumeration_len(n, k)).collect()
    }

    /// The streamed sweep visits exactly the multisets the old materialised
    /// enumeration did, in the same order, for any thread count.
    #[test]
    fn sweep_combos_streams_the_full_enumeration_in_order() {
        let expected: Vec<(usize, Vec<f64>)> = (1..=3)
            .flat_map(|size| symbiosis::enumerate_coschedules(4, size))
            .map(|s| s.slots().iter().map(|&b| b as f64).collect())
            .enumerate()
            .collect();
        for threads in [1, 2, 7, 64] {
            let rows = sweep_selected_combos::<String, _>(4, 3, threads, &everything(4, 3), |c| {
                Ok(c.iter().map(|&b| b as f64).collect())
            })
            .unwrap();
            let indices = rows.rows.iter().map(|&(index, _, _)| index);
            assert!(indices.eq(0..expected.len()), "threads={threads}");
            for (index, ipcs) in &expected {
                let got = rows.get(*index, ipcs.len());
                assert_eq!(got, Some(&ipcs[..]), "threads={threads} index={index}");
            }
        }
    }

    /// The reported error is the first failing combo in enumeration order,
    /// regardless of thread interleaving.
    #[test]
    fn sweep_combos_reports_first_error_deterministically() {
        let expected: Vec<Vec<usize>> = (1..=4)
            .flat_map(|size| symbiosis::enumerate_coschedules(3, size))
            .map(|s| s.slots())
            .collect();
        // Fail every combo containing benchmark 1; the first such combo in
        // enumeration order is the solo [1].
        let first_failing = expected.iter().find(|c| c.contains(&1)).unwrap().clone();
        for threads in [1, 3, 16] {
            for _ in 0..5 {
                let err = sweep_selected_combos(3, 4, threads, &everything(3, 4), |combo| {
                    if combo.contains(&1) {
                        Err(combo.to_vec())
                    } else {
                        Ok(vec![1.0; combo.len()])
                    }
                })
                .unwrap_err();
                assert_eq!(err, first_failing, "threads={threads}");
            }
        }
    }

    /// Workers stop claiming new combos once a failure is recorded.
    #[test]
    fn sweep_combos_aborts_siblings_after_a_failure() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let simulated = AtomicUsize::new(0);
        let total: usize = (1..=4)
            .map(|size| symbiosis::CoscheduleIter::count_total(6, size))
            .sum();
        let _ = sweep_selected_combos::<String, _>(6, 4, 2, &everything(6, 4), |combo| {
            simulated.fetch_add(1, Ordering::Relaxed);
            if combo == [0] {
                Err("boom".into())
            } else {
                // Keep successes slow enough that the sibling cannot drain
                // the whole enumeration before the abort flag propagates.
                std::thread::sleep(std::time::Duration::from_micros(200));
                Ok(vec![1.0; combo.len()])
            }
        });
        // The very first combo fails; with 2 workers at most a handful of
        // in-flight combos run before both observe the abort flag.
        let ran = simulated.load(Ordering::Relaxed);
        assert!(ran < total / 2, "abort flag ignored: {ran} of {total} ran");
    }

    #[test]
    fn each_table_build_records_one_span() {
        let recorder = obs::Recorder::new();
        let _guard = obs::install(&recorder);
        let names: Vec<String> = (0..4).map(|b| format!("syn{b}")).collect();
        PerfTable::synthetic(names, 3, |combo| vec![1.0; combo.len()]).unwrap();
        let machine = Machine::new(MachineConfig::smt4().with_windows(100, 300)).unwrap();
        let suite = &spec2006()[..2];
        PerfTable::build_sampled(&machine, suite, 2, &[0, 1, 2]).unwrap();
        let spans = recorder.snapshot().histograms;
        assert_eq!(spans["workloads.synthetic_sampled"].count, 1);
        assert_eq!(spans["workloads.build_sampled"].count, 1);
    }

    #[test]
    fn synthetic_table_feeds_the_analyses() {
        let names: Vec<String> = (0..5).map(|b| format!("syn{b}")).collect();
        let t = PerfTable::synthetic(names, 3, |combo| {
            combo
                .iter()
                .map(|&b| (1.0 + b as f64 * 0.2) / combo.len() as f64)
                .collect()
        })
        .unwrap();
        assert_eq!(t.contexts(), 3);
        // Sizes 1..=3 over 5 benchmarks: 5 + 15 + 35 multisets.
        assert_eq!(t.len(), 55);
        assert!((t.solo_ipc(2) - 1.4).abs() < 1e-12);
        let rates = t.workload_rates(&[0, 2, 4]).unwrap();
        assert_eq!(rates.contexts(), 3);
        let view = t.workload_view(&[1, 3]).unwrap();
        assert_rate_model_conformance(&view);
    }

    #[test]
    fn synthetic_table_validates_inputs() {
        assert!(matches!(
            PerfTable::synthetic(vec![], 2, |c| vec![1.0; c.len()]),
            Err(TableError::InvalidWorkload(_))
        ));
        assert!(matches!(
            PerfTable::synthetic(vec!["a".into()], 0, |c| vec![1.0; c.len()]),
            Err(TableError::InvalidWorkload(_))
        ));
        assert!(matches!(
            PerfTable::synthetic(vec!["a".into(), "b".into()], 2, |_| vec![1.0]),
            Err(TableError::Rates(_))
        ));
        assert!(matches!(
            PerfTable::synthetic(vec!["a".into(), "b".into()], 2, |c| vec![-1.0; c.len()]),
            Err(TableError::Rates(_))
        ));
    }

    /// The guardrail ISSUE 5 demands: a selection covering the whole
    /// enumeration must degrade *exactly* to the full build — bitwise, as
    /// witnessed by the canonical serialisation.
    #[test]
    fn full_budget_sampled_build_is_bitwise_equal_to_full_build() {
        let machine = Machine::new(MachineConfig::smt4().with_windows(1_000, 3_000)).unwrap();
        let suite: Vec<BenchmarkProfile> = spec2006().into_iter().take(3).collect();
        let everything = everything(3, 4);
        for threads in [1, 4] {
            let full = PerfTable::build(&machine, &suite, threads).unwrap();
            let sampled = PerfTable::build_sampled(&machine, &suite, threads, &everything).unwrap();
            assert_eq!(full, sampled);
            // "Bitwise" literally: the canonical on-disk serialisations of
            // the two tables are identical byte streams.
            let dir = std::env::temp_dir();
            let pid = std::process::id();
            let a = dir.join(format!("symb-sample-full-{pid}-{threads}"));
            let b = dir.join(format!("symb-sample-sel-{pid}-{threads}"));
            full.save(&a).unwrap();
            sampled.save(&b).unwrap();
            let bytes_a = std::fs::read(&a).unwrap();
            let bytes_b = std::fs::read(&b).unwrap();
            let _ = std::fs::remove_file(&a);
            let _ = std::fs::remove_file(&b);
            assert_eq!(bytes_a, bytes_b, "threads={threads}");
        }
    }

    #[test]
    fn sampled_build_records_exactly_the_selection() {
        let machine = Machine::new(MachineConfig::smt4().with_windows(1_000, 3_000)).unwrap();
        let suite: Vec<BenchmarkProfile> = spec2006().into_iter().take(3).collect();
        // Solos (0..3) plus a few larger combos, by enumeration index.
        let selection = vec![0, 1, 2, 4, 7, 11, 20, 33];
        let t = PerfTable::build_sampled(&machine, &suite, 2, &selection).unwrap();
        assert_eq!(t.len(), selection.len());
        // Recorded rows agree with the full build on the selected combos.
        let full = PerfTable::build(&machine, &suite, 2).unwrap();
        for (combo, ipcs) in t.recorded_combos() {
            assert_eq!(full.slot_ipcs(combo).unwrap(), ipcs);
        }
        // Solo references are intact, so workload conversion works whenever
        // the needed combos are present.
        for b in 0..3 {
            assert_eq!(t.solo_ipc(b), full.solo_ipc(b));
        }
    }

    #[test]
    fn sampled_build_validates_selection() {
        let machine = Machine::new(MachineConfig::smt4().with_windows(1_000, 2_000)).unwrap();
        let suite: Vec<BenchmarkProfile> = spec2006().into_iter().take(3).collect();
        // Unsorted.
        assert!(matches!(
            PerfTable::build_sampled(&machine, &suite, 1, &[0, 2, 1]),
            Err(TableError::InvalidSample(_))
        ));
        // Out of range (3 benchmarks, K = 4 -> 34 combos).
        assert!(matches!(
            PerfTable::build_sampled(&machine, &suite, 1, &[0, 1, 2, 99]),
            Err(TableError::InvalidSample(_))
        ));
        // Missing a solo reference run.
        assert!(matches!(
            PerfTable::build_sampled(&machine, &suite, 1, &[0, 1, 5, 6]),
            Err(TableError::InvalidSample(_))
        ));
    }

    #[test]
    fn synthetic_sampled_matches_full_synthetic_on_selection() {
        let names: Vec<String> = (0..5).map(|b| format!("syn{b}")).collect();
        let ipc = |combo: &[usize]| -> Vec<f64> {
            combo
                .iter()
                .map(|&b| (1.0 + b as f64 * 0.2) / combo.len() as f64)
                .collect()
        };
        let full = PerfTable::synthetic(names.clone(), 3, ipc).unwrap();
        let selection = vec![0, 1, 2, 3, 4, 6, 9, 17, 30, 44];
        let sampled = PerfTable::synthetic_sampled(names.clone(), 3, &selection, ipc).unwrap();
        assert_eq!(sampled.len(), selection.len());
        for (combo, ipcs) in sampled.recorded_combos() {
            assert_eq!(full.slot_ipcs(combo).unwrap(), ipcs);
        }
        // Full-budget degradation holds for the synthetic path too.
        let everything = everything(5, 3);
        let exhaustive = PerfTable::synthetic_sampled(names, 3, &everything, ipc).unwrap();
        assert_eq!(exhaustive, full);
    }

    #[test]
    fn recorded_combos_are_sorted_and_complete() {
        let t = tiny_table();
        let rows = t.recorded_combos();
        assert_eq!(rows.len(), t.len());
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn plain_unit_rescales_rates_by_solo_ipc() {
        let t = tiny_table();
        let weighted = t.workload_rates(&[0, 1]).unwrap();
        let plain = t
            .workload_rates_with_unit(&[0, 1], WorkUnit::Plain)
            .unwrap();
        for (si, s) in weighted.coschedules().iter().enumerate() {
            for b in 0..2 {
                if s.count(b) > 0 {
                    let expect = weighted.rate(si, b) * t.solo_ipc([0, 1][b]);
                    assert!(
                        (plain.rate(si, b) - expect).abs() < 1e-12,
                        "unit conversion must be a per-type rescale"
                    );
                }
            }
        }
    }

    #[test]
    fn workload_view_exposes_partial_coschedules() {
        let t = tiny_table();
        let view = t.workload_view(&[0, 1]).unwrap();
        assert_eq!(view.num_types(), 2);
        assert_eq!(view.contexts(), 4);
        // Solo rate equals 1 by WIPC construction.
        assert!((view.per_job_rate(&[1, 0], 0) - 1.0).abs() < 1e-12);
        // Partial pairs are present and positive.
        let pair = view.per_job_rate(&[1, 1], 0);
        assert!(pair > 0.0 && pair <= 1.05);
        // Full coschedule agrees with the workload_rates table.
        let rates = t.workload_rates(&[0, 1]).unwrap();
        let s = symbiosis::Coschedule::from_counts(vec![2, 2]);
        let si = rates.index_of(&s).unwrap();
        let via_table = rates.per_job_rate(si, 0);
        let via_view = view.per_job_rate(&[2, 2], 0);
        assert!((via_table - via_view).abs() < 1e-12);
    }

    #[test]
    fn workload_view_passes_shared_conformance() {
        let t = tiny_table();
        let view = t.workload_view(&[0, 2]).unwrap();
        assert!(view.supports_partial());
        assert_rate_model_conformance(&view);
        // The materialised full table is the direct conversion, bitwise.
        let direct = t.workload_rates(&[0, 2]).unwrap();
        assert_eq!(view.full_table().unwrap(), direct);
    }

    #[test]
    fn workload_view_validates_inputs() {
        let t = tiny_table();
        // The view reports each bad workload as the rate conversion does.
        for bad in [&[][..], &[1, 0], &[1, 1], &[0, 99], &[7, 99]] {
            let err = t.workload_view(bad).unwrap_err();
            assert_eq!(Some(err), t.workload_rates(bad).err(), "{bad:?}");
        }
        assert!(matches!(
            t.workload_view(&[0, 99]),
            Err(TableError::UnknownBenchmark(99))
        ));
    }

    /// Unrecorded combos in a sampled table read as `None` (the
    /// `UNRECORDED` sentinel), not as garbage, and every recorded one as
    /// its row.
    #[test]
    fn unrecorded_combos_read_as_none() {
        let names: Vec<String> = (0..5).map(|b| format!("syn{b}")).collect();
        let ipc = |combo: &[usize]| -> Vec<f64> {
            combo
                .iter()
                .map(|&b| (1.0 + b as f64 * 0.2) / combo.len() as f64)
                .collect()
        };
        let selection = vec![0, 1, 2, 3, 4, 6, 9, 17, 30, 44];
        let sampled = PerfTable::synthetic_sampled(names.clone(), 3, &selection, ipc).unwrap();
        let full = PerfTable::synthetic(names, 3, ipc).unwrap();
        let mut hits = 0;
        for (combo, ipcs) in full.recorded_combos() {
            match sampled.slot_ipcs(combo) {
                Some(got) => {
                    hits += 1;
                    assert_eq!(got, ipcs);
                }
                None => assert!(sampled.recorded_combos().iter().all(|&(c, _)| c != combo)),
            }
        }
        assert_eq!(hits, selection.len());
    }

    #[test]
    fn combo_wipc_bounded_by_context_count() {
        // WIPC of any coschedule cannot exceed K (each job's WIPC <= 1).
        let t = tiny_table();
        for (combo, _) in t.recorded_combos() {
            let w = t.combo_wipc(combo).unwrap();
            assert!(w > 0.0);
            assert!(w <= t.contexts() as f64 + 0.25, "WIPC {w} for {combo:?}");
        }
    }
}

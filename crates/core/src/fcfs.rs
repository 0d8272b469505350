//! FCFS (first-come first-served) average throughput.
//!
//! The paper's baseline scheduler knows nothing about the workload: jobs are
//! taken from the queue in arrival order, and arrival order is random
//! (job types i.i.d. uniform). Two estimators are provided:
//!
//! * [`fcfs_throughput`] — an event-driven *maximum throughput experiment*:
//!   a fully loaded machine runs a random job stream until `jobs` jobs
//!   complete; throughput is total work over makespan. This mirrors the TPCalc construction the
//!   paper cites (Eyerman et al., TACO 2014).
//! * [`fcfs_throughput_markov`] — an exact continuous-time Markov-chain
//!   solution under exponentially distributed job sizes: the coschedule
//!   multiset is a CTMC state; its stationary distribution yields the
//!   long-run throughput without simulation.
//!
//! For large job counts the two agree closely (the experiment uses
//! deterministic sizes by default; size distribution has only a small
//! effect on the equilibrium coschedule mix).

use std::sync::{Arc, Mutex, PoisonError};

use lp::{linsys, Matrix};

use crate::coschedule::{CoscheduleIter, CoscheduleRank};
use crate::error::SymbiosisError;
use crate::rates::WorkloadRates;
use crate::rng::SplitMix64;

/// Distribution of job sizes (total work per job) in the FCFS experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobSize {
    /// Every job carries exactly one unit of work (the paper's maximum
    /// throughput experiment: jobs sized to equal solo execution time).
    Deterministic,
    /// Exponentially distributed work with mean one (matches the Markov
    /// analysis and Snavely et al.'s setup).
    Exponential,
}

/// Result of an FCFS throughput experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FcfsOutcome {
    /// Long-run average throughput (weighted instructions per cycle).
    pub throughput: f64,
    /// Fraction of time spent in each coschedule (aligned with
    /// [`WorkloadRates::coschedules`]); sums to ~1.
    pub fractions: Vec<f64>,
    /// Number of jobs completed (0 for the Markov solution). The event
    /// experiment stops after the event that reaches the requested count,
    /// and several slots can finish in that event, so this can exceed the
    /// requested `jobs` by up to K − 1.
    pub completed: u64,
}

/// Most contexts the event experiment supports: each event finds its
/// finished slots through one `u64` bit mask.
const MAX_EVENT_CONTEXTS: usize = 64;

/// Runs the event-driven FCFS maximum-throughput experiment.
///
/// A fully loaded machine runs a random job stream until `jobs` jobs in
/// total have completed: job types are drawn i.i.d. uniform, and whenever
/// a job finishes, the next job of the stream takes its slot. Returns
/// throughput and per-coschedule time fractions.
///
/// # Errors
///
/// Returns [`SymbiosisError::InvalidParameter`] if the table has more
/// than 64 contexts, or if `jobs` is smaller than the number of contexts.
///
/// # Examples
///
/// ```
/// use symbiosis::{fcfs_throughput, JobSize, WorkloadRates};
///
/// let rates = WorkloadRates::build(2, 2, |s| {
///     s.counts().iter().map(|&c| c as f64 * 0.5).collect()
/// })?;
/// let out = fcfs_throughput(&rates, 20_000, JobSize::Deterministic, 42)?;
/// assert!((out.throughput - 1.0).abs() < 0.01); // insensitive equal jobs
/// # Ok::<(), symbiosis::SymbiosisError>(())
/// ```
pub fn fcfs_throughput(
    rates: &WorkloadRates,
    jobs: u64,
    sizes: JobSize,
    seed: u64,
) -> Result<FcfsOutcome, SymbiosisError> {
    let k = rates.contexts();
    if k > MAX_EVENT_CONTEXTS {
        return Err(SymbiosisError::InvalidParameter(format!(
            "the event experiment supports at most {MAX_EVENT_CONTEXTS} contexts, got {k}"
        )));
    }
    if jobs < k as u64 {
        return Err(SymbiosisError::InvalidParameter(format!(
            "need at least {k} jobs to load the machine, got {jobs}"
        )));
    }
    let _span = obs::span!("fcfs.event_sim");
    let tables = EventTables::new(rates);
    // Small machines run at their exact size; larger ones pad to the next
    // capacity, since a kernel per K would only add code size.
    Ok(match k {
        1 => event_loop::<1>(&tables, jobs, sizes, seed),
        2 => event_loop::<2>(&tables, jobs, sizes, seed),
        3 => event_loop::<3>(&tables, jobs, sizes, seed),
        4 => event_loop::<4>(&tables, jobs, sizes, seed),
        5..=8 => event_loop::<8>(&tables, jobs, sizes, seed),
        9..=16 => event_loop::<16>(&tables, jobs, sizes, seed),
        _ => event_loop::<MAX_EVENT_CONTEXTS>(&tables, jobs, sizes, seed),
    })
}

/// The per-run lookup tables of the event loop.
struct EventTables<'a> {
    rates: &'a WorkloadRates,
    /// Rate of one job of type `ty` in coschedule `si`, at
    /// `per_job[si * (n + 1) + ty]`. Column `n` is the padding type of
    /// [`event_loop`]: all zeros.
    per_job: Vec<f64>,
    /// Completing one `from` job and admitting one `to` job maps state
    /// `si` to `transitions[(si * n + from) * n + to]`, so the loop never
    /// rebuilds count vectors or ranks coschedules per completion.
    transitions: Vec<u32>,
}

impl<'a> EventTables<'a> {
    fn new(rates: &'a WorkloadRates) -> Self {
        let n = rates.num_types();
        let n_states = rates.coschedules().len();
        let per_job = (0..n_states)
            .flat_map(|si| {
                (0..n)
                    .map(move |ty| rates.per_job_rate(si, ty))
                    .chain(std::iter::once(0.0))
            })
            .collect();
        // A state's whole neighbor row comes from incremental rank deltas
        // (the enumeration index is the rank); `from -> from` stays put.
        let mut transitions = vec![NO_STATE; n_states * n * n];
        let rank = rates.rank_table();
        for (si, s) in rates.coschedules().iter().enumerate() {
            for from in 0..n {
                if s.count(from) == 0 {
                    continue;
                }
                let row = (si * n + from) * n;
                transitions[row + from] = si as u32;
                rank.replace_ranks(s.counts(), si, from, |to, ti| {
                    transitions[row + to] = ti as u32;
                });
            }
        }
        EventTables {
            rates,
            per_job,
            transitions,
        }
    }
}

/// Marks a transition out of a state without a job of the `from` type.
const NO_STATE: u32 = u32::MAX;

/// The event loop over `CAP >= K` slots held in stack arrays, so the
/// per-event passes unroll into registers.
///
/// Slots `K..CAP` are padding and leave every result bit unchanged: their
/// type is the sentinel `n`, whose per-job rate is `0.0` in every state,
/// and their remaining work is `+inf`. So their time to finish is
/// `inf / 0.0 = inf`, which never lowers the event's `dt`; their progress
/// is `0.0 * dt = +0.0`, which adds exactly nothing to `work_done` (a sum
/// of non-negative terms that starts at `+0.0`); and their remaining work
/// stays `+inf`, so they never finish. The real slots see the same
/// operations in the same order as an exact-size loop.
///
/// Finished slots are collected in a `u64` mask during the progress pass
/// and replaced after it, in ascending slot order. The event's rate row
/// and `dt` are fixed before either pass and a new job makes no progress
/// in the event that admits it, so this draws the RNG, walks the state
/// transitions and sums `work_done` in the same sequence as replacing
/// each slot the moment it finishes.
fn event_loop<const CAP: usize>(
    tables: &EventTables<'_>,
    jobs: u64,
    sizes: JobSize,
    seed: u64,
) -> FcfsOutcome {
    let rates = tables.rates;
    let (n, k) = (rates.num_types(), rates.contexts());
    debug_assert!(k <= CAP && CAP <= MAX_EVENT_CONTEXTS);
    let stride = n + 1;
    let mut rng = SplitMix64::new(seed);
    let draw_job = |rng: &mut SplitMix64| {
        let ty = rng.next_range(n as u64) as usize;
        let work = match sizes {
            JobSize::Deterministic => 1.0,
            JobSize::Exponential => rng.next_exp(1.0),
        };
        (ty, work)
    };

    // Running jobs: type and remaining work per slot.
    let mut ty = [n; CAP];
    let mut rem = [f64::INFINITY; CAP];
    let mut counts = vec![0u32; n];
    for j in 0..k {
        (ty[j], rem[j]) = draw_job(&mut rng);
        counts[ty[j]] += 1;
    }
    // Current coschedule index, maintained incrementally via transitions.
    let mut si = rates
        .index_of_counts(&counts)
        .expect("full coschedule must be in the table");
    let mut completed = 0u64;
    let mut now = 0.0f64;
    let mut work_done = 0.0f64;
    let mut fractions = vec![0.0f64; rates.coschedules().len()];

    while completed < jobs {
        // Advance time until the earliest completion.
        let row = &tables.per_job[si * stride..(si + 1) * stride];
        let mut rate = [0.0f64; CAP];
        let mut dt = f64::INFINITY;
        for j in 0..CAP {
            rate[j] = row[ty[j]];
            debug_assert!(j >= k || rate[j] > 0.0, "running job must make progress");
            dt = dt.min(rem[j] / rate[j]);
        }
        debug_assert!(dt.is_finite());
        now += dt;
        fractions[si] += dt;
        // Progress all jobs, collecting the finished ones in a bit mask.
        let mut done = 0u64;
        for j in 0..CAP {
            let progress = rate[j] * dt;
            work_done += progress.min(rem[j]);
            rem[j] -= progress;
            done |= u64::from(rem[j] <= 1e-12) << j;
        }
        debug_assert_ne!(done, 0, "time step must finish at least one job");
        // Replace the finished jobs in ascending slot order.
        while done != 0 {
            let j = done.trailing_zeros() as usize;
            done &= done - 1;
            completed += 1;
            let (next, work) = draw_job(&mut rng);
            si = tables.transitions[(si * n + ty[j]) * n + next] as usize;
            debug_assert_ne!(si, NO_STATE as usize, "transition must exist");
            (ty[j], rem[j]) = (next, work);
        }
    }
    for f in &mut fractions {
        *f /= now;
    }
    FcfsOutcome {
        throughput: work_done / now,
        fractions,
        completed,
    }
}

/// Largest state count solved by the dense LU path; larger chains go
/// through the sparse CSR Gauss–Seidel solver. The default keeps every
/// historical scenario (35 states at N = 4, 330 at N = 8 on K = 4) on the
/// bitwise-stable dense path while N = 12 on K = 4 (1365 states) and
/// beyond stream through the sparse one.
pub const DEFAULT_MARKOV_DENSE_LIMIT: usize = 512;

/// Largest state count solved by plain Gauss–Seidel on the sparse path;
/// larger chains switch to the accelerated solver (adaptive-omega SOR over
/// the chain stored and swept in color-class order). The default
/// keeps every historical sparse scenario (1365 states at N = 12 on K = 4)
/// bitwise identical to the sequential sweeps while the big-machine chains
/// (75 582 states at N = 12 / K = 8, 352 716 at K = 10) take the fast
/// path. Through [`fcfs_throughput_markov_tuned`]'s `accel_limit`, `0`
/// forces acceleration and [`usize::MAX`] sequential Gauss–Seidel.
pub const DEFAULT_MARKOV_ACCEL_LIMIT: usize = 4096;

/// Exact FCFS throughput under exponential job sizes via the stationary
/// distribution of the coschedule Markov chain.
///
/// In state `s`, jobs of type `b` complete with total rate `r_b(s)` (work
/// is exponential with mean 1); the finished job is replaced by a uniform
/// random type. The stationary distribution `pi` of this CTMC gives the
/// long-run throughput `sum_s pi(s) it(s)`.
///
/// Chains up to [`DEFAULT_MARKOV_DENSE_LIMIT`] states are solved by dense
/// LU (bitwise identical to pre-sparse releases); larger chains build the
/// generator in CSR form — each state has at most `N * K` outgoing
/// transitions, so the matrix is ~99.9% sparse at scale — and iterate
/// Gauss–Seidel, or past [`DEFAULT_MARKOV_ACCEL_LIMIT`] states
/// color-ordered SOR, to a residual tolerance
/// ([`fcfs_throughput_markov_tuned`] picks the thresholds explicitly).
/// Every path runs on the calling thread, so the result does not depend
/// on the host's core count.
///
/// # Errors
///
/// Returns [`SymbiosisError::InvalidParameter`] if the chain's linear
/// system is singular or the iteration fails to converge (cannot happen
/// for valid rate tables).
pub fn fcfs_throughput_markov(rates: &WorkloadRates) -> Result<FcfsOutcome, SymbiosisError> {
    fcfs_throughput_markov_tuned(
        rates,
        DEFAULT_MARKOV_DENSE_LIMIT,
        DEFAULT_MARKOV_ACCEL_LIMIT,
    )
}

/// The Markov dispatch with explicit thresholds: chains of up to
/// `dense_limit` states solve by dense LU, up to `accel_limit` by
/// Gauss–Seidel (bitwise identical to pre-acceleration releases), and
/// beyond that by adaptive-omega SOR over [`markov_chain_colored`], swept
/// sequentially in color-class order. The results are bitwise the same
/// on every host.
///
/// # Errors
///
/// Same conditions as [`fcfs_throughput_markov`].
pub fn fcfs_throughput_markov_tuned(
    rates: &WorkloadRates,
    dense_limit: usize,
    accel_limit: usize,
) -> Result<FcfsOutcome, SymbiosisError> {
    let n_s = rates.coschedules().len();
    let _span = obs::span!("fcfs.markov_solve");
    let pi = if n_s <= dense_limit {
        obs::count!("solver.markov.dense", 1);
        markov_stationary_dense(rates)?
    } else {
        markov_stationary_sparse(rates, accel_limit)?
    };
    let throughput = pi
        .iter()
        .enumerate()
        .map(|(si, &p)| p * rates.instantaneous_throughput(si))
        .sum();
    Ok(FcfsOutcome {
        throughput,
        fractions: pi,
        completed: 0,
    })
}

/// The historical dense path: materialise `Q^T`, replace one equation by
/// the normalisation, LU-solve.
fn markov_stationary_dense(rates: &WorkloadRates) -> Result<Vec<f64>, SymbiosisError> {
    let coschedules = rates.coschedules();
    let n_s = coschedules.len();
    let n = rates.num_types() as f64;

    // Build the generator Q (row = from, col = to), then solve pi Q = 0
    // with sum(pi) = 1. We work with Q^T pi^T = 0 and replace the last
    // equation by the normalisation.
    let mut qt = Matrix::zeros(n_s, n_s);
    for (from, s) in coschedules.iter().enumerate() {
        let mut total_out = 0.0;
        for b in 0..rates.num_types() {
            if s.count(b) == 0 {
                continue;
            }
            let rate_b = rates.rate(from, b);
            total_out += rate_b;
            for c in 0..rates.num_types() {
                let to_sched = s.replace(b, c).expect("type b present");
                let to = rates
                    .index_of(&to_sched)
                    .expect("replacement coschedule must be in the table");
                qt[(to, from)] += rate_b / n;
            }
        }
        qt[(from, from)] -= total_out;
    }
    // Replace the last row with the normalisation sum(pi) = 1.
    let mut rhs = vec![0.0; n_s];
    for j in 0..n_s {
        qt[(n_s - 1, j)] = 1.0;
    }
    rhs[n_s - 1] = 1.0;
    linsys::solve(&qt, &rhs)
        .map_err(|e| SymbiosisError::InvalidParameter(format!("markov chain solve: {e}")))
}

/// Builds the sparse form of the coschedule Markov chain: the
/// *incoming*-transition CSR (row `j` lists `(i, q_ij)`) and each state's
/// off-diagonal outflow, the inputs every `lp::sparse` stationary solver
/// takes. Public so benches and parity tests can time/solve the chain with
/// an explicit solver choice; the dispatching entry points remain
/// [`fcfs_throughput_markov`] and friends.
///
/// In state `i`, a type-`b` completion replaced by a different type `c`
/// leads to the state with one `b` job swapped for a `c`, at rate
/// `r_b(i) / N`. Self-loops (a completion replaced by the same type)
/// cancel from both sides of the balance equations, hence the
/// `(N - 1) / N` outflow factor. Row `j` lists its sources in ascending
/// state order.
///
/// Where the entries sit depends only on `(N, K)`, so that structure is
/// built once per shape and kept in a process-wide memo of bounded size
/// (a shape too large for it is built for the call and dropped). A call
/// then only fills in this table's rates, and the returned matrix shares
/// the memo's row pointers and columns.
///
/// # Panics
///
/// Panics if the table has more than 256 job types.
pub fn markov_chain(rates: &WorkloadRates) -> (lp::Csr, Vec<f64>) {
    chain_shape(rates, Order::Natural).fill(rates)
}

/// The chain of [`markov_chain`] stored in the accelerated tier's sweep
/// order, plus that order as a state → row map (`position[j]` is the row
/// of state `j`; rows, columns and outflow entries are all positions).
///
/// The order colors each state by its count-weighted type sum mod N. Every
/// transition moves one job from type `b` to a *different* type `c`,
/// shifting the weighted sum by `c - b ≠ 0 (mod N)`, so no transition
/// stays inside a color class: N classes of ~1/N of the chain each, the
/// natural generalisation of a red/black partition to this lattice. Rows
/// go class by class in ascending color, states in index order within a
/// class. Each row lists its sources in ascending *state* order, as in
/// [`markov_chain`], so every inflow sum adds the same terms in the same
/// order. The structure comes from the same memo as [`markov_chain`]'s.
///
/// # Panics
///
/// Panics if the table has more than 256 job types.
pub fn markov_chain_colored(rates: &WorkloadRates) -> (lp::Csr, Vec<f64>, Vec<u32>) {
    let shape = chain_shape(rates, Order::Colored);
    let (inflow, outflow) = shape.fill(rates);
    (inflow, outflow, shape.position.to_vec())
}

/// The storage order of a chain's states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// State `j` is row `j` ([`markov_chain`]).
    Natural,
    /// Color classes in ascending color ([`markov_chain_colored`]).
    Colored,
}

/// Most job types a chain shape holds: an entry's completing type is a
/// `u8`.
const MAX_CHAIN_TYPES: usize = 1 << u8::BITS;

/// Bytes of chain shapes the process keeps for reuse. The N = 12 / K = 8
/// shape (75 582 states) takes ~22 MB, so both of its orders fit beside
/// every smaller shape; the K = 10 one (~110 MB) does not, and is built
/// per call instead.
const SHAPE_MEMO_BYTES: usize = 64 << 20;

/// The structure of the coschedule chain at one `(N, K)` in one storage
/// order: the inflow CSR's row pointers and columns, each entry's
/// completing type, and the state → row map. Everything about a chain
/// except its rates.
#[derive(Debug)]
struct ChainShape {
    /// Inflow row pointers. Row `position[j]` holds one entry per
    /// neighbour of state `j`: `present(j) · (N − 1)` of them.
    row_ptr: Arc<[usize]>,
    /// Each entry's source, as its row.
    cols: Arc<[u32]>,
    /// Each entry's completing type `b` in its source.
    types: Box<[u8]>,
    /// State → row (the identity for [`Order::Natural`]).
    position: Box<[u32]>,
}

impl ChainShape {
    /// One rank walk over the chain: row lengths have a closed form, so
    /// each transition is written straight into its row.
    fn build(n: usize, k: usize, order: Order) -> Self {
        assert!(
            n <= MAX_CHAIN_TYPES,
            "a Markov chain supports at most {MAX_CHAIN_TYPES} job types, got {n}"
        );
        let rank = CoscheduleRank::new(n, k);
        let n_s = rank.total();
        assert!(u32::try_from(n_s).is_ok(), "state count fits u32");
        let each_state = |visit: &mut dyn FnMut(usize, &[u32])| {
            let mut counts = vec![0u32; n];
            counts[0] = k as u32;
            for state in 0..n_s {
                visit(state, &counts);
                CoscheduleIter::advance(&mut counts);
            }
        };
        // Every state's row length and its row (colored: its color, the
        // count-weighted type sum mod N, for now).
        let mut position = Vec::with_capacity(n_s);
        let mut row_len = Vec::with_capacity(n_s);
        each_state(&mut |state, counts| {
            position.push(match order {
                Order::Natural => state as u32,
                Order::Colored => {
                    let weighted: usize = counts
                        .iter()
                        .enumerate()
                        .map(|(b, &c)| b * c as usize)
                        .sum();
                    (weighted % n) as u32
                }
            });
            row_len.push(counts.iter().filter(|&&c| c > 0).count() * (n - 1));
        });
        if order == Order::Colored {
            // An in-place counting sort turns each color into the state's
            // row.
            let mut next_row = vec![0u32; n];
            for &color in &position {
                next_row[color as usize] += 1;
            }
            let mut start = 0;
            for slot in &mut next_row {
                start += std::mem::replace(slot, start);
            }
            for p in &mut position {
                let color = *p as usize;
                *p = next_row[color];
                next_row[color] += 1;
            }
        }
        let mut row_ptr = vec![0usize; n_s + 1];
        for (state, &len) in row_len.iter().enumerate() {
            row_ptr[position[state] as usize + 1] = len;
        }
        for row in 0..n_s {
            row_ptr[row + 1] += row_ptr[row];
        }
        // Sources in ascending state order, so each row lists them so.
        let nnz = row_ptr[n_s];
        let mut cursor = row_ptr[..n_s].to_vec();
        let mut cols = vec![0u32; nnz];
        let mut types = vec![0u8; nnz];
        each_state(&mut |from, counts| {
            let col = position[from];
            for b in (0..n).filter(|&b| counts[b] > 0) {
                rank.replace_ranks(counts, from, b, |_, to| {
                    let slot = &mut cursor[position[to] as usize];
                    cols[*slot] = col;
                    types[*slot] = b as u8;
                    *slot += 1;
                });
            }
        });
        debug_assert!(
            (0..n_s).all(|row| cursor[row] == row_ptr[row + 1]),
            "every row must fill exactly"
        );
        ChainShape {
            row_ptr: row_ptr.into(),
            cols: cols.into(),
            types: types.into(),
            position: position.into(),
        }
    }

    /// Heap bytes held, what [`SHAPE_MEMO_BYTES`] budgets.
    fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.row_ptr)
            + std::mem::size_of_val(&*self.cols)
            + std::mem::size_of_val(&*self.types)
            + std::mem::size_of_val(&*self.position)
    }

    /// The chain of `rates` over this structure: every entry is its
    /// source's `r_b / N`, divided once per `(state, type)`.
    fn fill(&self, rates: &WorkloadRates) -> (lp::Csr, Vec<f64>) {
        let n = rates.num_types();
        let nf = n as f64;
        let n_s = self.position.len();
        debug_assert_eq!(rates.coschedules().len(), n_s);
        // `r_b(i) / N` at `per_target[position[i] * N + b]`, where an
        // entry's column and type point.
        let mut per_target = vec![0.0; n_s * n];
        let mut outflow = vec![0.0; n_s];
        for (from, row_rates) in rates.rate_rows().iter().enumerate() {
            let row = self.position[from] as usize;
            for (b, &rate) in row_rates.iter().enumerate() {
                per_target[row * n + b] = rate / nf;
            }
            let total: f64 = row_rates.iter().sum();
            outflow[row] = total * (nf - 1.0) / nf;
        }
        let vals = self
            .cols
            .iter()
            .zip(self.types.iter())
            .map(|(&col, &b)| per_target[col as usize * n + b as usize])
            .collect();
        let inflow =
            lp::Csr::with_structure(Arc::clone(&self.row_ptr), Arc::clone(&self.cols), vals, n_s);
        (inflow, outflow)
    }
}

/// Which chain a memo entry holds: `(N, K, order)`.
type ShapeKey = (usize, usize, Order);

/// Recently used chain shapes, most recent last, within a byte budget.
#[derive(Debug)]
struct ShapeMemo {
    budget: usize,
    shapes: Vec<(ShapeKey, Arc<ChainShape>)>,
}

impl ShapeMemo {
    const fn new(budget: usize) -> Self {
        ShapeMemo {
            budget,
            shapes: Vec::new(),
        }
    }

    /// The shape of `key`, built on a miss. A built shape evicts the
    /// least recently used ones until it fits; one larger than the whole
    /// budget is returned without being kept.
    fn get(&mut self, key: ShapeKey) -> Arc<ChainShape> {
        if let Some(i) = self.shapes.iter().position(|(k, _)| *k == key) {
            let hit = self.shapes.remove(i);
            let shape = Arc::clone(&hit.1);
            self.shapes.push(hit);
            return shape;
        }
        let (n, k, order) = key;
        let shape = Arc::new(ChainShape::build(n, k, order));
        if shape.bytes() <= self.budget {
            while self.held() + shape.bytes() > self.budget {
                self.shapes.remove(0);
            }
            self.shapes.push((key, Arc::clone(&shape)));
        }
        shape
    }

    fn held(&self) -> usize {
        self.shapes.iter().map(|(_, shape)| shape.bytes()).sum()
    }
}

/// The process-wide chain shapes behind [`markov_chain`] and
/// [`markov_chain_colored`].
static SHAPES: Mutex<ShapeMemo> = Mutex::new(ShapeMemo::new(SHAPE_MEMO_BYTES));

/// The shape of `rates`' chain in `order`. A shape is built under the
/// lock, so threads asking for one shape at once build it once. The memo
/// is only changed once a build has finished, so a panic poisons nothing
/// it holds.
fn chain_shape(rates: &WorkloadRates, order: Order) -> Arc<ChainShape> {
    SHAPES.lock().unwrap_or_else(PoisonError::into_inner).get((
        rates.num_types(),
        rates.contexts(),
        order,
    ))
}

/// The sparse path: sequential Gauss–Seidel over [`markov_chain`] up to
/// `accel_limit` states, and beyond it adaptive-omega SOR swept in color
/// order over [`markov_chain_colored`]. Both run on the calling thread,
/// so the result is the same on every host.
fn markov_stationary_sparse(
    rates: &WorkloadRates,
    accel_limit: usize,
) -> Result<Vec<f64>, SymbiosisError> {
    if rates.num_types() > MAX_CHAIN_TYPES {
        return Err(SymbiosisError::InvalidParameter(format!(
            "the sparse Markov chain supports at most {MAX_CHAIN_TYPES} job types, got {}",
            rates.num_types()
        )));
    }
    let solved = if rates.coschedules().len() <= accel_limit {
        obs::count!("solver.markov.gauss_seidel", 1);
        let (inflow, outflow) = markov_chain(rates);
        lp::sparse::stationary_gauss_seidel(&inflow, &outflow, 1e-12, 20_000)
    } else {
        obs::count!("solver.markov.sor", 1);
        let shape = chain_shape(rates, Order::Colored);
        let (inflow, outflow) = shape.fill(rates);
        lp::sparse::stationary_sor(&inflow, &outflow, Some(&shape.position), 1e-12, 20_000)
    };
    solved.map_err(|e| SymbiosisError::InvalidParameter(format!("sparse markov solve: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn insensitive(per_job: &'static [f64], contexts: usize) -> WorkloadRates {
        WorkloadRates::build(per_job.len(), contexts, move |s| {
            s.counts()
                .iter()
                .zip(per_job)
                .map(|(&c, &r)| c as f64 * r)
                .collect()
        })
        .unwrap()
    }

    #[test]
    fn insensitive_equal_jobs_reach_nominal_throughput() {
        let rates = insensitive(&[0.5, 0.5], 2);
        let out = fcfs_throughput(&rates, 20_000, JobSize::Deterministic, 1).unwrap();
        assert!((out.throughput - 1.0).abs() < 0.01, "{}", out.throughput);
    }

    #[test]
    fn fractions_sum_to_one() {
        let rates = insensitive(&[0.8, 0.4, 0.2], 3);
        let out = fcfs_throughput(&rates, 5_000, JobSize::Deterministic, 7).unwrap();
        let total: f64 = out.fractions.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_seeds_reproduce() {
        let rates = insensitive(&[0.8, 0.4], 2);
        let a = fcfs_throughput(&rates, 2_000, JobSize::Exponential, 3).unwrap();
        let b = fcfs_throughput(&rates, 2_000, JobSize::Exponential, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn too_few_jobs_rejected() {
        let rates = insensitive(&[1.0, 1.0], 2);
        assert!(matches!(
            fcfs_throughput(&rates, 1, JobSize::Deterministic, 0),
            Err(SymbiosisError::InvalidParameter(_))
        ));
    }

    #[test]
    fn more_than_64_contexts_rejected() {
        let widest = insensitive(&[0.5], 64);
        let out = fcfs_throughput(&widest, 1_000, JobSize::Exponential, 3).unwrap();
        assert!((out.throughput - 32.0).abs() < 1e-9, "{}", out.throughput);
        let rates = insensitive(&[0.5], 65);
        assert!(matches!(
            fcfs_throughput(&rates, 1_000, JobSize::Deterministic, 0),
            Err(SymbiosisError::InvalidParameter(_))
        ));
    }

    #[test]
    fn markov_matches_simulation_for_exponential_sizes() {
        // Symbiosis-sensitive table: mixed coschedules run faster.
        let rates = WorkloadRates::build(2, 2, |s| {
            let boost = if s.heterogeneity() == 2 { 1.3 } else { 1.0 };
            s.counts().iter().map(|&c| c as f64 * 0.5 * boost).collect()
        })
        .unwrap();
        let markov = fcfs_throughput_markov(&rates).unwrap();
        let sim = fcfs_throughput(&rates, 200_000, JobSize::Exponential, 11).unwrap();
        assert!(
            (markov.throughput - sim.throughput).abs() < 0.01,
            "markov {} vs sim {}",
            markov.throughput,
            sim.throughput
        );
    }

    #[test]
    fn markov_stationary_distribution_is_proper() {
        let rates = insensitive(&[0.9, 0.6, 0.3], 3);
        let out = fcfs_throughput_markov(&rates).unwrap();
        let total: f64 = out.fractions.iter().sum();
        assert!((total - 1.0).abs() < 1e-8);
        for &p in &out.fractions {
            assert!(p > -1e-10, "stationary probabilities must be non-negative");
        }
    }

    #[test]
    fn fcfs_lies_between_lp_bounds() {
        use crate::optimal::{optimal_schedule, Objective};
        let rates = WorkloadRates::build(3, 3, |s| {
            let het = s.heterogeneity() as f64;
            let per_job = [1.0, 0.7, 0.4];
            s.counts()
                .iter()
                .zip(per_job)
                .map(|(&c, r)| c as f64 * r * (0.6 + 0.13 * het))
                .collect()
        })
        .unwrap();
        let best = optimal_schedule(&rates, Objective::MaxThroughput).unwrap();
        let worst = optimal_schedule(&rates, Objective::MinThroughput).unwrap();
        let fcfs = fcfs_throughput(&rates, 30_000, JobSize::Deterministic, 5).unwrap();
        assert!(
            fcfs.throughput <= best.throughput + 1e-6,
            "fcfs {} > best {}",
            fcfs.throughput,
            best.throughput
        );
        assert!(
            fcfs.throughput >= worst.throughput - 1e-6,
            "fcfs {} < worst {}",
            fcfs.throughput,
            worst.throughput
        );
    }

    #[test]
    fn sparse_markov_matches_dense_lu() {
        // Symbiosis-sensitive 3-type table on 3 contexts (10 states).
        let rates = WorkloadRates::build(3, 3, |s| {
            let per_job = [1.0, 0.7, 0.4];
            let het = s.heterogeneity() as f64;
            s.counts()
                .iter()
                .zip(per_job)
                .map(|(&c, r)| c as f64 * r * (0.6 + 0.13 * het))
                .collect()
        })
        .unwrap();
        let dense =
            fcfs_throughput_markov_tuned(&rates, usize::MAX, DEFAULT_MARKOV_ACCEL_LIMIT).unwrap();
        let sparse = fcfs_throughput_markov_tuned(&rates, 0, DEFAULT_MARKOV_ACCEL_LIMIT).unwrap();
        assert!(
            (dense.throughput - sparse.throughput).abs() < 1e-9,
            "dense {} vs sparse {}",
            dense.throughput,
            sparse.throughput
        );
        for (d, s) in dense.fractions.iter().zip(&sparse.fractions) {
            assert!((d - s).abs() < 1e-8, "pi entries differ: {d} vs {s}");
        }
    }

    #[test]
    fn default_markov_threshold_keeps_historical_sizes_dense() {
        use crate::coschedule::CoscheduleIter;
        assert!(
            CoscheduleIter::count_total(8, 4) <= DEFAULT_MARKOV_DENSE_LIMIT,
            "N=8/K=4 stays dense"
        );
        assert!(
            CoscheduleIter::count_total(12, 4) > DEFAULT_MARKOV_DENSE_LIMIT,
            "N=12/K=4 goes sparse"
        );
    }

    #[test]
    fn homogeneous_single_type_gives_rate_k() {
        let rates = insensitive(&[0.25], 4);
        let out = fcfs_throughput(&rates, 1_000, JobSize::Deterministic, 2).unwrap();
        assert!((out.throughput - 1.0).abs() < 1e-9);
        let markov = fcfs_throughput_markov(&rates).unwrap();
        assert!((markov.throughput - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_shape_memo_reuses_shapes_and_evicts_to_its_budget() {
        let small = ChainShape::build(3, 3, Order::Natural).bytes();
        let large = ChainShape::build(5, 4, Order::Colored).bytes();
        assert!(small < large);
        let mut memo = ShapeMemo::new(large);
        let first = memo.get((3, 3, Order::Natural));
        assert!(Arc::ptr_eq(&first, &memo.get((3, 3, Order::Natural))));
        // The larger shape fits the budget only alone: the smaller goes.
        let big = memo.get((5, 4, Order::Colored));
        assert_eq!(memo.held(), large);
        assert!(Arc::ptr_eq(&big, &memo.get((5, 4, Order::Colored))));
        assert!(!Arc::ptr_eq(&first, &memo.get((3, 3, Order::Natural))));
        assert!(memo.held() <= large);
    }

    #[test]
    fn an_over_budget_shape_is_built_but_not_kept() {
        let mut memo = ShapeMemo::new(1024);
        let shape = memo.get((6, 4, Order::Colored));
        assert!(shape.bytes() > 1024);
        assert_eq!(shape.position.len(), 126);
        assert!(memo.shapes.is_empty());
        assert!(!Arc::ptr_eq(&shape, &memo.get((6, 4, Order::Colored))));
    }

    #[test]
    fn a_second_sparse_solve_reuses_the_first_ones_shape() {
        // (4, 7) is this test's own shape in the process-wide memo.
        let rates = insensitive(&[0.9, 0.6, 0.3, 0.2], 7);
        let first = fcfs_throughput_markov_tuned(&rates, 0, 0).unwrap();
        let seen = chain_shape(&rates, Order::Colored);
        let second = fcfs_throughput_markov_tuned(&rates, 0, 0).unwrap();
        assert_eq!(first, second);
        assert!(Arc::ptr_eq(&seen, &chain_shape(&rates, Order::Colored)));
    }

    #[test]
    fn shape_rows_hold_present_types_times_n_minus_one_entries() {
        for order in [Order::Natural, Order::Colored] {
            let shape = ChainShape::build(4, 5, order);
            for (state, s) in CoscheduleIter::new(4, 5).enumerate() {
                let row = shape.position[state] as usize;
                let len = shape.row_ptr[row + 1] - shape.row_ptr[row];
                assert_eq!(len, s.heterogeneity() * 3, "state {s}");
            }
        }
    }

    #[test]
    fn the_sparse_path_rejects_more_types_than_a_shape_holds() {
        let rates = WorkloadRates::build(MAX_CHAIN_TYPES + 1, 1, |s| {
            s.counts().iter().map(|&c| f64::from(c)).collect()
        })
        .unwrap();
        assert!(fcfs_throughput_markov_tuned(&rates, usize::MAX, 0).is_ok());
        assert!(matches!(
            fcfs_throughput_markov_tuned(&rates, 0, 0),
            Err(SymbiosisError::InvalidParameter(_))
        ));
    }
}

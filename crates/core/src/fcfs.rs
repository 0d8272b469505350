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

use lp::{linsys, Matrix};

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

/// Applies `visit(from, to, rate)` to every off-diagonal transition of the
/// coschedule chain (a type-`b` completion replaced by a different type
/// `c`; `b -> b` replacements keep the state and cancel out of the balance
/// equations). Allocation-free: a state's whole neighbor row comes from
/// [`crate::CoscheduleRank::replace_ranks`] in O(N) incremental rank deltas —
/// the enumeration index *is* the rank, so `from` doubles as the base.
fn for_each_markov_transition<F: FnMut(usize, usize, f64)>(rates: &WorkloadRates, mut visit: F) {
    let n = rates.num_types();
    let nf = n as f64;
    let rank = rates.rank_table();
    for (from, s) in rates.coschedules().iter().enumerate() {
        for b in 0..n {
            if s.count(b) == 0 {
                continue;
            }
            let per_target = rates.rate(from, b) / nf;
            rank.replace_ranks(s.counts(), from, b, |_, to| visit(from, to, per_target));
        }
    }
}

/// Builds the sparse form of the coschedule Markov chain: the
/// *incoming*-transition CSR (row `j` lists `(i, q_ij)`) and each state's
/// off-diagonal outflow, the inputs every `lp::sparse` stationary solver
/// takes. Public so benches and parity tests can time/solve the chain with
/// an explicit solver choice; the dispatching entry points remain
/// [`fcfs_throughput_markov`] and friends.
///
/// Self-loops (a completion replaced by the same type) cancel from both
/// sides of the balance equations, hence the `(n - 1) / n` outflow factor.
pub fn markov_chain(rates: &WorkloadRates) -> (lp::Csr, Vec<f64>) {
    assemble_markov_chain(rates, |state| state)
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
/// class. Each row receives its entries in the same order as in
/// [`markov_chain`], so every inflow sum adds the same terms in the same
/// order.
pub fn markov_chain_colored(rates: &WorkloadRates) -> (lp::Csr, Vec<f64>, Vec<u32>) {
    let n = rates.num_types();
    // Colors first, then an in-place counting sort turns each color into
    // the state's row.
    let mut position: Vec<u32> = rates
        .coschedules()
        .iter()
        .map(|s| {
            let weighted: usize = s
                .counts()
                .iter()
                .enumerate()
                .map(|(b, &c)| b * c as usize)
                .sum();
            (weighted % n) as u32
        })
        .collect();
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
    let (inflow, outflow) = assemble_markov_chain(rates, |state| position[state] as usize);
    (inflow, outflow, position)
}

/// The two-pass CSR assembly behind [`markov_chain`] and
/// [`markov_chain_colored`], storing state `j` as row `row_of(j)`.
fn assemble_markov_chain(
    rates: &WorkloadRates,
    row_of: impl Fn(usize) -> usize,
) -> (lp::Csr, Vec<f64>) {
    let n_s = rates.coschedules().len();
    let n = rates.num_types() as f64;
    let mut builder = lp::sparse::CsrBuilder::new(n_s, n_s);
    // Structural pass: derive every transition target's multiset rank
    // exactly once, recording its row for the value pass — the rank
    // arithmetic dominates assembly at scale, so it must not run per pass.
    let mut targets: Vec<u32> = Vec::new();
    for_each_markov_transition(rates, |_, to, _| {
        let row = row_of(to);
        builder.count(row);
        targets.push(u32::try_from(row).expect("state count fits u32"));
    });
    builder.finish_counts();
    // Value pass: replay the recorded targets in the same traversal order
    // (state-major, then present type, then n - 1 replacement types).
    let mut cursor = 0usize;
    let mut outflow = vec![0.0; n_s];
    for (from, s) in rates.coschedules().iter().enumerate() {
        let col = row_of(from);
        for b in 0..rates.num_types() {
            if s.count(b) == 0 {
                continue;
            }
            let per_target = rates.rate(from, b) / n;
            for _ in 0..rates.num_types() - 1 {
                builder.push(targets[cursor] as usize, col, per_target);
                cursor += 1;
            }
        }
        let total: f64 = (0..rates.num_types()).map(|b| rates.rate(from, b)).sum();
        outflow[col] = total * (n - 1.0) / n;
    }
    debug_assert_eq!(cursor, targets.len(), "value pass must replay every target");
    (builder.build(), outflow)
}

/// The sparse path: sequential Gauss–Seidel over [`markov_chain`] up to
/// `accel_limit` states, and beyond it adaptive-omega SOR swept in color
/// order over [`markov_chain_colored`]. Both run on the calling thread,
/// so the result is the same on every host.
fn markov_stationary_sparse(
    rates: &WorkloadRates,
    accel_limit: usize,
) -> Result<Vec<f64>, SymbiosisError> {
    let solved = if rates.coschedules().len() <= accel_limit {
        obs::count!("solver.markov.gauss_seidel", 1);
        let (inflow, outflow) = markov_chain(rates);
        lp::sparse::stationary_gauss_seidel(&inflow, &outflow, 1e-12, 20_000)
    } else {
        obs::count!("solver.markov.sor", 1);
        let (inflow, outflow, position) = markov_chain_colored(rates);
        lp::sparse::stationary_sor(&inflow, &outflow, Some(&position), 1e-12, 20_000)
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
}

//! The four scheduling policies of the paper's Section VI.

use symbiosis::RateModel;

use crate::job::{JobId, JobPool};

/// A scheduling policy: at every event it picks which of the jobs in the
/// system run on the machine's contexts.
///
/// The machine's context count is passed explicitly so that
/// workload-agnostic policies (FCFS) need no rate model at all; the other
/// policies consult `rates` to compare candidate coschedules.
pub trait Scheduler {
    /// Policy name — the registry key used by `session::Policy::by_name`
    /// and printed in reports. Uppercase, matching the paper's labels.
    fn name(&self) -> &'static str;

    /// Selects up to `contexts` job ids from the pool to run next. All
    /// four paper policies are work-conserving: they run
    /// `min(contexts, jobs in system)` jobs.
    fn select(&mut self, pool: &mut JobPool, contexts: usize, rates: &dyn RateModel) -> Vec<JobId>;

    /// Observes that the multiset `counts` ran for `dt` time units
    /// (used by MAXTP to track realised coschedule fractions).
    fn observe(&mut self, _counts: &[u32], _dt: f64) {}
}

/// Enumerates all multisets of `size` jobs drawable from `avail` (per-type
/// availability), as count vectors.
///
/// Edge cases: `size == 0` yields exactly the empty (all-zero) multiset;
/// `size` above the total availability yields nothing; an empty `avail`
/// yields the empty multiset for `size == 0` and nothing otherwise.
///
/// # Examples
///
/// ```
/// let all = queueing::sched::feasible_multisets(&[2, 1], 2);
/// assert_eq!(all, vec![vec![2, 0], vec![1, 1]]);
/// ```
pub fn feasible_multisets(avail: &[u32], size: u32) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for_each_multiset(avail, size, |counts| out.push(counts.to_vec()));
    out
}

/// Visits every multiset [`feasible_multisets`] returns, in the same order,
/// through one reused count buffer instead of allocating each.
fn for_each_multiset(avail: &[u32], size: u32, mut visit: impl FnMut(&[u32])) {
    // capacity_after[ty] = jobs available in types ty.. (one extra 0 entry).
    let mut capacity_after = vec![0u32; avail.len() + 1];
    for ty in (0..avail.len()).rev() {
        capacity_after[ty] = capacity_after[ty + 1] + avail[ty];
    }
    let mut current = vec![0u32; avail.len()];
    fill(&mut current, avail, &capacity_after, 0, size, &mut visit);
}

fn fill(
    current: &mut [u32],
    avail: &[u32],
    capacity_after: &[u32],
    ty: usize,
    left: u32,
    visit: &mut impl FnMut(&[u32]),
) {
    if ty == avail.len() {
        if left == 0 {
            visit(current);
        }
        return;
    }
    let min_here = left.saturating_sub(capacity_after[ty + 1]);
    let max_here = left.min(avail[ty]);
    for c in (min_here..=max_here).rev() {
        current[ty] = c;
        fill(current, avail, capacity_after, ty + 1, left - c, visit);
        current[ty] = 0;
    }
}

/// Picks the oldest job of each type according to a multiset of counts.
fn jobs_for_counts_oldest(pool: &mut JobPool, counts: &[u32]) -> Vec<JobId> {
    let mut out = Vec::new();
    for (ty, &c) in counts.iter().enumerate() {
        if c > 0 {
            out.extend(pool.oldest_of_type(ty, c as usize));
        }
    }
    out
}

/// Sum of the arrival times of the jobs [`jobs_for_counts_oldest`] picks:
/// MAXIT's tie-break key (smaller = older jobs).
fn age_of(pool: &mut JobPool, counts: &[u32]) -> f64 {
    let selected = jobs_for_counts_oldest(pool, counts);
    selected
        .iter()
        .map(|&id| pool.get(id).expect("selected job exists").arrival)
        .sum()
}

/// First-come first-served: run the `K` oldest jobs in the system.
///
/// The paper's baseline; needs no knowledge about the workload — only the
/// context count it is handed.
#[derive(Debug, Clone, Copy, Default)]
pub struct FcfsScheduler;

impl Scheduler for FcfsScheduler {
    fn name(&self) -> &'static str {
        "FCFS"
    }

    fn select(
        &mut self,
        pool: &mut JobPool,
        contexts: usize,
        _rates: &dyn RateModel,
    ) -> Vec<JobId> {
        pool.iter_fifo().take(contexts).collect()
    }
}

/// MAXIT: run the feasible coschedule with the highest instantaneous
/// throughput; ties go to the combination containing the oldest jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxItScheduler;

impl MaxItScheduler {
    /// Best feasible multiset by instantaneous throughput (ties: oldest
    /// jobs). Shared with the MAXTP fallback path.
    ///
    /// Ages are summed only when a candidate comes within `1e-12` of the
    /// best so far; the best's own age is computed on its first tie. A
    /// multiset's age depends only on the pool, which `select` does not
    /// change, so the choice is the one eager ages would make.
    fn best_counts(pool: &mut JobPool, contexts: usize, rates: &dyn RateModel) -> Vec<u32> {
        let size = pool.len().min(contexts) as u32;
        let avail = pool.counts().to_vec();
        // (throughput, age once computed, counts)
        let mut best: Option<(f64, Option<f64>, Vec<u32>)> = None;
        for_each_multiset(&avail, size, |counts| {
            let it = rates.instantaneous_throughput(counts);
            let Some((bit, bage, bcounts)) = &mut best else {
                best = Some((it, None, counts.to_vec()));
                return;
            };
            let need_age = (it - *bit).abs() < 1e-12 || it > *bit;
            if !need_age {
                return;
            }
            let better = it > *bit + 1e-12 || {
                (it - *bit).abs() <= 1e-12 && {
                    let age = age_of(pool, counts);
                    let best_age = *bage.get_or_insert_with(|| age_of(pool, bcounts));
                    age < best_age
                }
            };
            if better {
                best = Some((it, None, counts.to_vec()));
            }
        });
        best.expect("at least one candidate").2
    }
}

impl Scheduler for MaxItScheduler {
    fn name(&self) -> &'static str {
        "MAXIT"
    }

    fn select(&mut self, pool: &mut JobPool, contexts: usize, rates: &dyn RateModel) -> Vec<JobId> {
        let counts = Self::best_counts(pool, contexts, rates);
        jobs_for_counts_oldest(pool, &counts)
    }
}

/// SRPT: run the combination minimising the total remaining execution time,
/// accounting for each job's speed inside that particular combination.
#[derive(Debug, Clone, Copy, Default)]
pub struct SrptScheduler;

impl Scheduler for SrptScheduler {
    fn name(&self) -> &'static str {
        "SRPT"
    }

    fn select(&mut self, pool: &mut JobPool, contexts: usize, rates: &dyn RateModel) -> Vec<JobId> {
        let size = pool.len().min(contexts) as u32;
        let avail = pool.counts().to_vec();
        // Per type, the shortest jobs any candidate can take, each paired
        // with the remaining work summed over its type's jobs up to and
        // including it: `shortest[start[ty] + c - 1].1` is
        // `shortest_remaining_sum(ty, c)`, added in the same order.
        let mut shortest: Vec<(JobId, f64)> = Vec::new();
        let mut start = Vec::with_capacity(avail.len());
        for (ty, &have) in avail.iter().enumerate() {
            start.push(shortest.len());
            let mut sum = 0.0;
            for (id, remaining) in pool.shortest(ty).take(have.min(size) as usize) {
                sum += remaining;
                shortest.push((id, sum));
            }
        }
        let mut best: Option<(f64, Vec<u32>)> = None;
        for_each_multiset(&avail, size, |counts| {
            let mut total_time = 0.0;
            for (ty, &c) in counts.iter().enumerate() {
                if c > 0 {
                    let rate = rates.per_job_rate(counts, ty);
                    total_time += shortest[start[ty] + c as usize - 1].1 / rate;
                }
            }
            if best.as_ref().is_none_or(|(bt, _)| total_time < *bt) {
                best = Some((total_time, counts.to_vec()));
            }
        });
        let counts = best.expect("at least one candidate").1;
        let mut out = Vec::with_capacity(size as usize);
        for (ty, &c) in counts.iter().enumerate() {
            out.extend(
                shortest[start[ty]..][..c as usize]
                    .iter()
                    .map(|&(id, _)| id),
            );
        }
        out
    }
}

/// MAXTP: follow the offline-optimal coschedule time fractions from the
/// linear program (Section IV); pick the target coschedule that is furthest
/// behind its ideal fraction; fall back to MAXIT when no target is
/// composable from the jobs in the system.
#[derive(Debug, Clone)]
pub struct MaxTpScheduler {
    /// `(counts, ideal fraction)` for every coschedule the LP selected.
    targets: Vec<(Vec<u32>, f64)>,
    /// Time actually spent in each target so far.
    spent: Vec<f64>,
    /// Total observed time.
    total: f64,
}

impl MaxTpScheduler {
    /// Creates the scheduler from LP-optimal `(coschedule counts, time
    /// fraction)` pairs; entries with non-positive fractions are dropped.
    ///
    /// # Panics
    ///
    /// Panics if no positive-fraction target remains.
    pub fn new(targets: Vec<(Vec<u32>, f64)>) -> Self {
        let targets: Vec<(Vec<u32>, f64)> =
            targets.into_iter().filter(|(_, f)| *f > 1e-12).collect();
        assert!(
            !targets.is_empty(),
            "MAXTP needs at least one coschedule with positive fraction"
        );
        let n = targets.len();
        MaxTpScheduler {
            targets,
            spent: vec![0.0; n],
            total: 0.0,
        }
    }

    /// The LP targets (counts, ideal fraction).
    pub fn targets(&self) -> &[(Vec<u32>, f64)] {
        &self.targets
    }
}

impl Scheduler for MaxTpScheduler {
    fn name(&self) -> &'static str {
        "MAXTP"
    }

    fn select(&mut self, pool: &mut JobPool, contexts: usize, rates: &dyn RateModel) -> Vec<JobId> {
        let avail = pool.counts();
        // Deficit = how far behind its ideal share this target is.
        let mut best: Option<(f64, usize)> = None;
        for (i, (counts, ideal)) in self.targets.iter().enumerate() {
            let composable = counts.iter().zip(avail).all(|(&need, &have)| need <= have);
            if !composable {
                continue;
            }
            let deficit = ideal * self.total.max(1e-9) - self.spent[i];
            if best.is_none_or(|(bd, _)| deficit > bd) {
                best = Some((deficit, i));
            }
        }
        match best {
            Some((_, i)) => {
                let counts = self.targets[i].0.clone();
                jobs_for_counts_oldest(pool, &counts)
            }
            None => {
                let counts = MaxItScheduler::best_counts(pool, contexts, rates);
                jobs_for_counts_oldest(pool, &counts)
            }
        }
    }

    fn observe(&mut self, counts: &[u32], dt: f64) {
        self.total += dt;
        for (i, (target, _)) in self.targets.iter().enumerate() {
            if target == counts {
                self.spent[i] += dt;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::rates::ContentionModel;

    fn pool_with(types: &[usize], num_types: usize) -> JobPool {
        let mut pool = JobPool::new(num_types);
        for (i, &ty) in types.iter().enumerate() {
            pool.insert(Job {
                id: i as JobId,
                ty,
                remaining: 1.0,
                arrival: i as f64,
            });
        }
        pool
    }

    #[test]
    fn feasible_multisets_respect_availability() {
        let all = feasible_multisets(&[2, 1, 0], 2);
        assert_eq!(all, vec![vec![2, 0, 0], vec![1, 1, 0]]);
        let none = feasible_multisets(&[1, 0], 2);
        assert!(none.is_empty());
        let exact = feasible_multisets(&[1, 1], 2);
        assert_eq!(exact, vec![vec![1, 1]]);
    }

    #[test]
    fn feasible_multisets_edge_cases() {
        // Size 0: exactly the empty multiset, regardless of availability.
        assert_eq!(feasible_multisets(&[2, 1], 0), vec![vec![0, 0]]);
        assert_eq!(feasible_multisets(&[0, 0], 0), vec![vec![0, 0]]);
        // No types at all.
        assert_eq!(feasible_multisets(&[], 0), vec![Vec::<u32>::new()]);
        assert!(feasible_multisets(&[], 3).is_empty());
        // Size above total availability: nothing is feasible.
        assert!(feasible_multisets(&[1, 1], 3).is_empty());
        assert!(feasible_multisets(&[0, 0], 1).is_empty());
    }

    /// Property check over deterministic pseudo-random availabilities:
    /// every returned multiset is within bounds and sums to `size`, the
    /// enumeration is duplicate-free, and its cardinality matches a direct
    /// dynamic-programming count.
    #[test]
    fn feasible_multisets_match_counting_dp() {
        fn dp_count(avail: &[u32], size: u32) -> u64 {
            let mut ways = vec![0u64; size as usize + 1];
            ways[0] = 1;
            for &a in avail {
                let mut next = vec![0u64; size as usize + 1];
                for (s, &w) in ways.iter().enumerate() {
                    if w == 0 {
                        continue;
                    }
                    for c in 0..=a.min(size - s as u32) {
                        next[s + c as usize] += w;
                    }
                }
                ways = next;
            }
            ways[size as usize]
        }

        let mut state = 0x5EEDu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..200 {
            let n_types = (next() % 4 + 1) as usize;
            let avail: Vec<u32> = (0..n_types).map(|_| next() % 4).collect();
            let total: u32 = avail.iter().sum();
            for size in 0..=total + 1 {
                let all = feasible_multisets(&avail, size);
                assert_eq!(
                    all.len() as u64,
                    dp_count(&avail, size),
                    "{avail:?} size {size}"
                );
                let mut seen = std::collections::HashSet::new();
                for m in &all {
                    assert_eq!(m.len(), avail.len());
                    assert_eq!(m.iter().sum::<u32>(), size);
                    assert!(m.iter().zip(&avail).all(|(&c, &a)| c <= a));
                    assert!(seen.insert(m.clone()), "duplicate {m:?}");
                }
            }
        }
    }

    #[test]
    fn fcfs_takes_oldest() {
        let rates = ContentionModel::new(vec![1.0, 1.0], 0.0, 2);
        let mut pool = pool_with(&[0, 1, 0, 1], 2);
        let sel = FcfsScheduler.select(&mut pool, 2, &rates);
        assert_eq!(sel, vec![0, 1]);
    }

    #[test]
    fn maxit_prefers_high_throughput_mix() {
        // Type 0 runs at 1.0, type 1 at 0.1; with no contention MAXIT picks
        // two type-0 jobs over mixing.
        let rates = ContentionModel::new(vec![1.0, 0.1], 0.0, 2);
        let mut pool = pool_with(&[1, 0, 0, 1], 2);
        let sel = MaxItScheduler.select(&mut pool, 2, &rates);
        let types: Vec<usize> = sel.iter().map(|&id| pool.get(id).unwrap().ty).collect();
        assert_eq!(types, vec![0, 0]);
    }

    #[test]
    fn maxit_breaks_ties_by_age() {
        let rates = ContentionModel::new(vec![1.0, 1.0], 0.0, 1);
        let mut pool = pool_with(&[1, 0], 2);
        // Both singleton coschedules have it = 1.0; the older job (id 0,
        // type 1) must win.
        let sel = MaxItScheduler.select(&mut pool, 1, &rates);
        assert_eq!(sel, vec![0]);
    }

    #[test]
    fn srpt_picks_shortest_jobs() {
        let rates = ContentionModel::new(vec![1.0], 0.0, 1);
        let mut pool = JobPool::new(1);
        pool.insert(Job {
            id: 0,
            ty: 0,
            remaining: 5.0,
            arrival: 0.0,
        });
        pool.insert(Job {
            id: 1,
            ty: 0,
            remaining: 0.5,
            arrival: 1.0,
        });
        let sel = SrptScheduler.select(&mut pool, 1, &rates);
        assert_eq!(sel, vec![1]);
    }

    #[test]
    fn srpt_accounts_for_coschedule_speed() {
        // One context. Type 0 job has 1.0 work at rate 1.0 (time 1.0);
        // type 1 job has 0.5 work at rate 0.25 (time 2.0). SRPT must pick
        // the type-0 job despite its larger remaining work.
        let rates = ContentionModel::new(vec![1.0, 0.25], 0.0, 1);
        let mut pool = JobPool::new(2);
        pool.insert(Job {
            id: 0,
            ty: 1,
            remaining: 0.5,
            arrival: 0.0,
        });
        pool.insert(Job {
            id: 1,
            ty: 0,
            remaining: 1.0,
            arrival: 1.0,
        });
        let sel = SrptScheduler.select(&mut pool, 1, &rates);
        assert_eq!(sel, vec![1]);
    }

    #[test]
    fn maxtp_follows_targets_and_tracks_deficits() {
        let rates = ContentionModel::new(vec![1.0, 1.0], 0.0, 2);
        let mut sched = MaxTpScheduler::new(vec![
            (vec![2, 0], 0.5),
            (vec![0, 2], 0.5),
            (vec![1, 1], 0.0), // dropped
        ]);
        assert_eq!(sched.targets().len(), 2);
        let mut pool = pool_with(&[0, 0, 1, 1], 2);
        // First selection: both targets composable with zero deficit delta;
        // run one, observe, and the other should be picked next.
        let sel1 = sched.select(&mut pool, 2, &rates);
        let t1 = pool.get(sel1[0]).unwrap().ty;
        let counts1 = if t1 == 0 { vec![2, 0] } else { vec![0, 2] };
        sched.observe(&counts1, 1.0);
        let sel2 = sched.select(&mut pool, 2, &rates);
        let t2 = pool.get(sel2[0]).unwrap().ty;
        assert_ne!(t1, t2, "the lagging target must be chosen next");
    }

    #[test]
    fn maxtp_falls_back_to_maxit() {
        let rates = ContentionModel::new(vec![1.0, 0.1], 0.0, 2);
        let mut sched = MaxTpScheduler::new(vec![(vec![2, 0], 1.0)]);
        // Only type-1 jobs present: target not composable.
        let mut pool = pool_with(&[1, 1], 2);
        let sel = sched.select(&mut pool, 2, &rates);
        assert_eq!(sel.len(), 2);
    }

    #[test]
    #[should_panic(expected = "positive fraction")]
    fn maxtp_rejects_empty_targets() {
        let _ = MaxTpScheduler::new(vec![(vec![1, 0], 0.0)]);
    }

    #[test]
    fn partial_load_runs_everything() {
        let rates = ContentionModel::new(vec![1.0, 1.0], 0.1, 4);
        let mut pool = pool_with(&[0, 1], 2);
        for sched in [
            &mut FcfsScheduler as &mut dyn Scheduler,
            &mut MaxItScheduler,
            &mut SrptScheduler,
        ] {
            let sel = sched.select(&mut pool, 4, &rates);
            assert_eq!(sel.len(), 2, "{} must be work conserving", sched.name());
        }
    }

    #[test]
    fn scheduler_names_are_registry_keys() {
        // The names double as `session::Policy::by_name` keys; keep them
        // uppercase and distinct.
        let names = [
            FcfsScheduler.name(),
            MaxItScheduler.name(),
            SrptScheduler.name(),
            MaxTpScheduler::new(vec![(vec![1], 1.0)]).name(),
        ];
        assert_eq!(names, ["FCFS", "MAXIT", "SRPT", "MAXTP"]);
        for n in names {
            assert_eq!(n, n.to_uppercase());
        }
    }
}

//! Jobs and the in-system job pool used by the latency simulator.

use std::collections::{BTreeSet, VecDeque};

/// Identifier of a job within one experiment (arrival order).
pub type JobId = u64;

/// A job present in the system (running or queued).
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Arrival-order identifier.
    pub id: JobId,
    /// Job type index.
    pub ty: usize,
    /// Remaining work (starts at the job's size).
    pub remaining: f64,
    /// Simulation time at which the job arrived.
    pub arrival: f64,
}

/// Orders `f64` keys inside a `BTreeSet`; remaining work is always >= 0 so
/// IEEE bit order equals numeric order.
fn key(remaining: f64, id: JobId) -> (u64, JobId) {
    (remaining.to_bits(), id)
}

/// A job's entry in the remaining-work index: the remaining work its key
/// was built from, which lags `Job::remaining` while the job is dirty.
#[derive(Debug, Clone, Copy, Default)]
struct Keyed {
    remaining: f64,
    dirty: bool,
}

/// All jobs currently in the system, indexable the ways the four schedulers
/// need: global arrival order, per-type counts, and per-type
/// smallest-remaining-first.
///
/// # The remaining-work index
///
/// Only SRPT asks for the shortest jobs, while every scheduler's event loop
/// rewrites the remaining work of every running job at every event. So the
/// per-type remaining-work index is lazy twice over:
///
/// * it is built on the first (crate-private) `shortest` query, so pools
///   that are never asked (FCFS, MAXIT and MAXTP runs, and the serve
///   dispatcher unless it places by SRPT) never maintain it;
/// * once built, [`JobPool::set_remaining`] only marks the job dirty, and
///   the next `shortest` query re-keys the dirty entries. Under SRPT
///   that is at most the `K` jobs that ran since the previous event, so an
///   event costs O(K log n) however many jobs queue.
///
/// Queries always see exact `(remaining bits, id)` order, as if every
/// update had been applied eagerly.
#[derive(Debug, Default)]
pub struct JobPool {
    jobs: Vec<Option<Job>>,
    /// Insertion order: arrival order when ids are inserted as assigned.
    fifo: VecDeque<JobId>,
    /// Insertion order per type (pruned lazily); keeps `oldest_of_type`
    /// O(want) even when thousands of jobs queue under saturation.
    fifo_by_type: Vec<VecDeque<JobId>>,
    /// Per type: jobs ordered by remaining work. Empty until the first
    /// `shortest` query sets `indexed`.
    by_remaining: Vec<BTreeSet<(u64, JobId)>>,
    /// Per job id, its entry in `by_remaining`; allocated only once
    /// `indexed` is set, so pools that never build the index pay nothing.
    keyed: Vec<Keyed>,
    indexed: bool,
    /// Jobs whose `remaining` moved since the index last saw them. May
    /// hold ids removed since; `sync` skips those.
    dirty: Vec<JobId>,
    counts: Vec<u32>,
    len: usize,
}

impl JobPool {
    /// Creates an empty pool for `num_types` job types.
    pub fn new(num_types: usize) -> Self {
        JobPool {
            jobs: Vec::new(),
            fifo: VecDeque::new(),
            fifo_by_type: vec![VecDeque::new(); num_types],
            by_remaining: vec![BTreeSet::new(); num_types],
            keyed: Vec::new(),
            indexed: false,
            dirty: Vec::new(),
            counts: vec![0; num_types],
            len: 0,
        }
    }

    /// Number of jobs in the system.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the system is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Per-type job counts (length = number of types).
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Adds a job; its `id` must be fresh. Ids index a dense table, so
    /// they should be small (assigned in arrival order); jobs iterate in
    /// insertion order.
    ///
    /// # Panics
    ///
    /// Panics if the id was used before or the type is out of range.
    pub fn insert(&mut self, job: Job) {
        let idx = job.id as usize;
        if idx >= self.jobs.len() {
            self.jobs.resize(idx + 1, None);
        }
        assert!(self.jobs[idx].is_none(), "job id {} reused", job.id);
        assert!(job.ty < self.counts.len(), "type {} out of range", job.ty);
        self.fifo.push_back(job.id);
        self.fifo_by_type[job.ty].push_back(job.id);
        if self.indexed {
            self.by_remaining[job.ty].insert(key(job.remaining, job.id));
            self.keyed.resize(self.jobs.len(), Keyed::default());
            self.keyed[idx] = Keyed {
                remaining: job.remaining,
                dirty: false,
            };
        }
        self.counts[job.ty] += 1;
        self.len += 1;
        self.jobs[idx] = Some(job);
    }

    /// Looks a job up by id.
    pub fn get(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(id as usize).and_then(Option::as_ref)
    }

    /// Removes a finished job and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the id is not in the pool.
    pub fn remove(&mut self, id: JobId) -> Job {
        let job = self.jobs[id as usize]
            .take()
            .unwrap_or_else(|| panic!("job {id} not in pool"));
        self.counts[job.ty] -= 1;
        self.len -= 1;
        if self.indexed {
            let keyed = self.keyed[id as usize].remaining;
            self.by_remaining[job.ty].remove(&key(keyed, id));
            // A dirty id left behind is skipped by `sync`; compact once
            // stale ids could outnumber live jobs.
            if self.dirty.len() > 2 * self.len + 64 {
                self.sync();
            }
        }
        // fifo entries are pruned lazily in `iter_fifo`.
        job
    }

    /// Decreases a job's remaining work. The remaining-work index catches
    /// up lazily, on the next `shortest_*` query.
    ///
    /// # Panics
    ///
    /// Panics if the id is not in the pool.
    pub fn set_remaining(&mut self, id: JobId, new_remaining: f64) {
        let job = self.jobs[id as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("job {id} not in pool"));
        job.remaining = new_remaining.max(0.0);
        if self.indexed && !self.keyed[id as usize].dirty {
            self.keyed[id as usize].dirty = true;
            self.dirty.push(id);
        }
    }

    /// Brings the remaining-work index up to date: builds it on first use,
    /// then re-keys the dirty jobs.
    fn sync(&mut self) {
        if !self.indexed {
            self.indexed = true;
            self.dirty.clear();
            self.keyed = vec![Keyed::default(); self.jobs.len()];
            for job in self.jobs.iter().flatten() {
                self.keyed[job.id as usize].remaining = job.remaining;
                self.by_remaining[job.ty].insert(key(job.remaining, job.id));
            }
            return;
        }
        for id in self.dirty.drain(..) {
            let Some(job) = self.jobs[id as usize].as_ref() else {
                continue;
            };
            let keyed = &mut self.keyed[id as usize];
            let index = &mut self.by_remaining[job.ty];
            index.remove(&key(keyed.remaining, id));
            *keyed = Keyed {
                remaining: job.remaining,
                dirty: false,
            };
            index.insert(key(job.remaining, id));
        }
    }

    /// Iterates job ids in arrival order (oldest first).
    pub fn iter_fifo(&mut self) -> impl Iterator<Item = JobId> + '_ {
        // Prune dead ids from the front lazily; then iterate live ones.
        while let Some(&front) = self.fifo.front() {
            if self.jobs[front as usize].is_some() {
                break;
            }
            self.fifo.pop_front();
        }
        let jobs = &self.jobs;
        self.fifo
            .iter()
            .copied()
            .filter(move |&id| jobs[id as usize].is_some())
    }

    /// Appends the ids of the oldest `want` jobs of type `ty` (arrival
    /// order) to `out`.
    pub fn oldest_of_type(&mut self, ty: usize, want: usize, out: &mut Vec<JobId>) {
        // Prune dead entries from the front; completed jobs are biased to
        // be old, so lazily-deleted ids rarely linger in the middle.
        while let Some(&front) = self.fifo_by_type[ty].front() {
            if self.jobs[front as usize].is_some() {
                break;
            }
            self.fifo_by_type[ty].pop_front();
        }
        out.extend(self.oldest(ty).take(want).map(|job| job.id));
    }

    /// The jobs of type `ty`, oldest first. Unlike
    /// [`JobPool::oldest_of_type`] it prunes nothing, so it needs only a
    /// shared borrow.
    pub(crate) fn oldest(&self, ty: usize) -> impl Iterator<Item = &Job> + '_ {
        self.fifo_by_type[ty]
            .iter()
            .filter_map(|&id| self.jobs[id as usize].as_ref())
    }

    /// The jobs of type `ty` with their remaining work, smallest remaining
    /// work first (ties by id).
    pub(crate) fn shortest(&mut self, ty: usize) -> impl Iterator<Item = (JobId, f64)> + '_ {
        self.sync();
        self.by_remaining[ty]
            .iter()
            .map(|&(bits, id)| (id, f64::from_bits(bits)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: JobId, ty: usize, remaining: f64) -> Job {
        Job {
            id,
            ty,
            remaining,
            arrival: id as f64,
        }
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut pool = JobPool::new(2);
        pool.insert(job(0, 0, 1.0));
        pool.insert(job(1, 1, 2.0));
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.counts(), &[1, 1]);
        let j = pool.remove(0);
        assert_eq!(j.ty, 0);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.counts(), &[0, 1]);
        assert!(pool.get(0).is_none());
        assert!(pool.get(1).is_some());
    }

    #[test]
    fn fifo_order_skips_removed() {
        let mut pool = JobPool::new(1);
        for i in 0..5 {
            pool.insert(job(i, 0, 1.0));
        }
        pool.remove(0);
        pool.remove(2);
        let order: Vec<JobId> = pool.iter_fifo().collect();
        assert_eq!(order, vec![1, 3, 4]);
    }

    /// The ids of `pool.shortest(ty)`, in its order.
    fn shortest_ids(pool: &mut JobPool, ty: usize) -> Vec<JobId> {
        pool.shortest(ty).map(|(id, _)| id).collect()
    }

    #[test]
    fn shortest_orders_by_remaining() {
        let mut pool = JobPool::new(2);
        pool.insert(job(0, 0, 3.0));
        pool.insert(job(1, 0, 1.0));
        pool.insert(job(2, 0, 2.0));
        pool.insert(job(3, 1, 0.5));
        let type0: Vec<(JobId, f64)> = pool.shortest(0).collect();
        assert_eq!(type0, vec![(1, 1.0), (2, 2.0), (0, 3.0)]);
        assert_eq!(shortest_ids(&mut pool, 1), vec![3]);
    }

    #[test]
    fn set_remaining_reorders() {
        let mut pool = JobPool::new(1);
        pool.insert(job(0, 0, 3.0));
        pool.insert(job(1, 0, 2.0));
        pool.set_remaining(0, 0.5);
        assert_eq!(shortest_ids(&mut pool, 0), vec![0, 1]);
        assert_eq!(pool.get(0).unwrap().remaining, 0.5);
        // Negative values are clamped to zero.
        pool.set_remaining(1, -1e-15);
        assert_eq!(pool.get(1).unwrap().remaining, 0.0);
    }

    #[test]
    fn oldest_of_type_filters() {
        let mut pool = JobPool::new(2);
        pool.insert(job(0, 1, 1.0));
        pool.insert(job(1, 0, 1.0));
        pool.insert(job(2, 1, 1.0));
        pool.insert(job(3, 1, 1.0));
        let mut out = vec![9];
        pool.oldest_of_type(1, 2, &mut out);
        assert_eq!(out, vec![9, 0, 2], "appends in arrival order");
        out.clear();
        pool.oldest_of_type(0, 5, &mut out);
        assert_eq!(out, vec![1]);
        pool.remove(0);
        out.clear();
        pool.oldest_of_type(1, 5, &mut out);
        assert_eq!(out, vec![2, 3]);
        let ids: Vec<JobId> = pool.oldest(1).map(|job| job.id).collect();
        assert_eq!(ids, out);
    }

    #[test]
    #[should_panic(expected = "reused")]
    fn duplicate_id_panics() {
        let mut pool = JobPool::new(1);
        pool.insert(job(0, 0, 1.0));
        pool.insert(job(0, 0, 1.0));
    }

    /// The live jobs of type `ty`, sorted the way the index must order
    /// them: by `(remaining bits, id)`.
    fn brute_force_shortest(pool: &JobPool, ty: usize) -> Vec<(u64, JobId)> {
        let mut jobs: Vec<(u64, JobId)> = pool
            .jobs
            .iter()
            .flatten()
            .filter(|job| job.ty == ty)
            .map(|job| key(job.remaining, job.id))
            .collect();
        jobs.sort_unstable();
        jobs
    }

    fn assert_index_matches(pool: &mut JobPool, num_types: usize) {
        for ty in 0..num_types {
            let expected = brute_force_shortest(pool, ty);
            let got: Vec<(u64, JobId)> = pool
                .shortest(ty)
                .map(|(id, remaining)| (remaining.to_bits(), id))
                .collect();
            assert_eq!(got, expected, "type {ty}");
        }
    }

    /// Interleaves inserts, `set_remaining`s and removals (with ties on
    /// remaining work) and checks the lazy index against a brute-force
    /// sort, both when queried after every operation and when left dirty
    /// for long stretches (the index then builds late and compacts stale
    /// dirty entries).
    #[test]
    fn lazy_index_matches_brute_force_sort() {
        let num_types = 3;
        for query_every in [1usize, 7, 500] {
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ query_every as u64;
            let mut next = move |bound: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % bound
            };
            let mut pool = JobPool::new(num_types);
            let mut live: Vec<JobId> = Vec::new();
            let mut next_id: JobId = 0;
            for step in 0..2_000usize {
                match next(10) {
                    0..=3 => {
                        // Quarter-unit sizes make equal remaining work common.
                        let remaining = next(8) as f64 * 0.25;
                        pool.insert(job(next_id, next(num_types as u64) as usize, remaining));
                        live.push(next_id);
                        next_id += 1;
                    }
                    4..=7 if !live.is_empty() => {
                        let id = live[next(live.len() as u64) as usize];
                        let left = pool.get(id).unwrap().remaining - next(3) as f64 * 0.25;
                        pool.set_remaining(id, left);
                    }
                    _ if !live.is_empty() => {
                        let id = live.swap_remove(next(live.len() as u64) as usize);
                        assert_eq!(pool.remove(id).id, id);
                    }
                    _ => {}
                }
                if (step + 1) % query_every == 0 {
                    assert_index_matches(&mut pool, num_types);
                }
                assert_eq!(pool.len(), live.len());
            }
            assert_index_matches(&mut pool, num_types);
        }
    }

    #[test]
    fn stale_dirty_entries_stay_bounded() {
        let mut pool = JobPool::new(2);
        for id in 0..10 {
            pool.insert(job(id, (id % 2) as usize, 1.0 + id as f64));
        }
        // The first query builds the index.
        assert_eq!(shortest_ids(&mut pool, 0), vec![0, 2, 4, 6, 8]);
        // Jobs that are updated and then removed without a query between
        // leave their ids in the dirty list; removal compacts them.
        for id in 10..1_010 {
            pool.insert(job(id, 1, 5.0));
            pool.set_remaining(id, 0.5);
            pool.remove(id);
            assert!(
                pool.dirty.len() <= 2 * pool.len() + 64,
                "{}",
                pool.dirty.len()
            );
        }
        pool.set_remaining(3, 0.25);
        assert_index_matches(&mut pool, 2);
        assert_eq!(shortest_ids(&mut pool, 1)[0], 3);
    }

    #[test]
    fn equal_remaining_jobs_distinct_in_index() {
        let mut pool = JobPool::new(1);
        pool.insert(job(0, 0, 1.0));
        pool.insert(job(1, 0, 1.0));
        assert_eq!(shortest_ids(&mut pool, 0), vec![0, 1]);
    }
}

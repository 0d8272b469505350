//! The dispatcher: owns the waiting pool and the running coschedule.
//!
//! Admitted jobs wait in a [`JobPool`]; whenever contexts are free, the
//! [`Placer`] the caller lends to [`Dispatcher::fill`] picks queued jobs,
//! priced through whatever [`RateModel`] the caller passes (the live
//! predicted model in the service, ground truth in oracle experiments).
//! Placement is non-preemptive: a placed job keeps its context until it
//! completes.
//!
//! Time is external: the driver asks for the next completion horizon
//! under a ground truth, evaluated into a [`RateGrid`], and then advances
//! the dispatcher by explicit `dt` steps, so the same dispatcher works
//! under a virtual clock (deterministic sim) or wall time. Placed jobs
//! live in a second [`JobPool`] and advance through [`queueing::Running`],
//! the event step of the offline Section VI experiments, so the service
//! and the offline study run jobs on the same machine model.

use crate::placer::Placer;
use queueing::{Job, JobId, JobPool, Running};
use symbiosis::{RateGrid, RateModel};

/// One placement decision, for deterministic-trace assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Time the placement happened.
    pub time: f64,
    /// Jobs started, in placer order.
    pub placed: Vec<JobId>,
    /// The running multiset after the placement.
    pub running_after: Vec<u32>,
}

/// A job that finished, with everything needed for turnaround and
/// slowdown statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The job's id.
    pub id: JobId,
    /// The job's type.
    pub ty: usize,
    /// Total work the job brought.
    pub size: f64,
    /// When it arrived (was admitted to the waiting pool).
    pub arrival: f64,
    /// When it was placed on a context.
    pub placed_at: f64,
    /// When it completed.
    pub finished_at: f64,
}

/// What a running job's [`Completion`] needs beyond its [`Job`].
struct Placed {
    id: JobId,
    size: f64,
    at: f64,
}

/// Why [`Dispatcher::new`] refused a machine shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchError {
    /// No job types.
    NoTypes,
    /// No contexts.
    NoContexts,
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::NoTypes => write!(f, "need at least one job type"),
            DispatchError::NoContexts => write!(f, "need at least one context"),
        }
    }
}

impl std::error::Error for DispatchError {}

/// Fills free machine contexts from a pool of admitted jobs.
pub struct Dispatcher {
    queued: JobPool,
    running: JobPool,
    /// One entry per running job.
    placed: Vec<Placed>,
    step: Running,
    contexts: usize,
    trace: Vec<Placement>,
}

impl Dispatcher {
    /// A dispatcher for `num_types` job types on `contexts` contexts.
    ///
    /// # Errors
    ///
    /// [`DispatchError`] if either dimension is zero.
    pub fn new(num_types: usize, contexts: usize) -> Result<Self, DispatchError> {
        if num_types == 0 {
            return Err(DispatchError::NoTypes);
        }
        if contexts == 0 {
            return Err(DispatchError::NoContexts);
        }
        Ok(Dispatcher {
            queued: JobPool::new(num_types),
            running: JobPool::new(num_types),
            placed: Vec::with_capacity(contexts),
            step: Running::new(num_types),
            contexts,
            trace: Vec::new(),
        })
    }

    /// Admits an arrived job into the waiting pool.
    pub fn admit(&mut self, job: Job) {
        self.queued.insert(job);
    }

    /// Jobs waiting for a context.
    pub fn queued_len(&self) -> usize {
        self.queued.len()
    }

    /// Free contexts.
    pub fn free(&self) -> usize {
        self.contexts - self.running.len()
    }

    /// The running multiset, as per-type counts.
    pub fn running_counts(&self) -> &[u32] {
        self.running.counts()
    }

    /// True when nothing is queued or running.
    pub fn is_idle(&self) -> bool {
        self.running.is_empty() && self.queued.is_empty()
    }

    /// Every placement decision so far.
    pub fn trace(&self) -> &[Placement] {
        &self.trace
    }

    /// Fills free contexts by repeatedly asking `placer`, pricing
    /// candidates through `model`. Stops when the machine is full, the
    /// pool is empty, or the placer declines to place. Returns how many
    /// times it called [`Placer::place`].
    ///
    /// # Panics
    ///
    /// Panics if the placer returns more jobs than there are free
    /// contexts, or ids not in the pool.
    pub fn fill(&mut self, placer: &mut dyn Placer, model: &dyn RateModel, now: f64) -> usize {
        let mut calls = 0;
        loop {
            let free = self.free();
            if free == 0 || self.queued.is_empty() {
                return calls;
            }
            let ids = placer.place(&mut self.queued, self.running.counts(), free, model);
            calls += 1;
            if ids.is_empty() {
                return calls;
            }
            assert!(
                ids.len() <= free,
                "placer returned {} jobs for {free} free contexts",
                ids.len()
            );
            for &id in &ids {
                let job = self.queued.remove(id);
                self.placed.push(Placed {
                    id,
                    size: job.remaining,
                    at: now,
                });
                self.running.insert(job);
            }
            self.trace.push(Placement {
                time: now,
                placed: ids,
                running_after: self.running.counts().to_vec(),
            });
        }
    }

    /// Prices the running jobs under `truth` and returns the time until
    /// the first of them completes (infinite when nothing runs). The next
    /// [`Dispatcher::advance`] runs them at these rates.
    pub fn time_to_next_completion(&mut self, truth: &RateGrid) -> f64 {
        let ids = self.placed.iter().map(|p| p.id);
        self.step.start(&self.running, ids, truth)
    }

    /// Advances every running job by `dt` at the rates the last
    /// [`Dispatcher::time_to_next_completion`] priced, removing and
    /// returning the completions (ordered by id, deterministic).
    ///
    /// # Panics
    ///
    /// Panics if jobs were placed since the running set was priced.
    pub fn advance(&mut self, dt: f64, now: f64) -> Vec<Completion> {
        assert_eq!(
            self.step.len(),
            self.running.len(),
            "placements since the running set was priced"
        );
        let placed = &mut self.placed;
        let mut done = Vec::new();
        self.step.advance(&mut self.running, dt, |job| {
            let at = placed.iter().position(|p| p.id == job.id);
            let p = placed.swap_remove(at.expect("running job was placed"));
            done.push(Completion {
                id: job.id,
                ty: job.ty,
                size: p.size,
                arrival: job.arrival,
                placed_at: p.at,
                finished_at: now,
            });
        });
        done.sort_by_key(|c| c.id);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placer::PolicyPlacer;
    use symbiosis::AnalyticModel;

    fn flat_model(n: usize, k: usize) -> AnalyticModel<impl Fn(&[u32], usize) -> f64> {
        AnalyticModel::new(n, k, |_counts: &[u32], _ty| 1.0)
    }

    fn job(id: JobId, ty: usize, size: f64, arrival: f64) -> Job {
        Job {
            id,
            ty,
            remaining: size,
            arrival,
        }
    }

    #[test]
    fn zero_types_are_rejected() {
        let err = Dispatcher::new(0, 2).err();
        assert_eq!(err, Some(DispatchError::NoTypes));
    }

    #[test]
    fn zero_contexts_are_rejected() {
        let err = Dispatcher::new(2, 0).err();
        assert_eq!(err, Some(DispatchError::NoContexts));
    }

    #[test]
    fn fill_places_up_to_free_contexts_and_records_a_trace() {
        let truth = flat_model(2, 2);
        let mut disp = Dispatcher::new(2, 2).unwrap();
        for i in 0..3 {
            disp.admit(job(i, (i % 2) as usize, 1.0, 0.0));
        }
        // One call fills both contexts, and a full machine asks no more.
        assert_eq!(disp.fill(&mut PolicyPlacer::fcfs(), &truth, 0.0), 1);
        assert_eq!(disp.running_counts(), [1, 1]);
        assert_eq!(disp.queued_len(), 1);
        assert_eq!(disp.free(), 0);
        assert_eq!(disp.trace().len(), 1);
        assert_eq!(disp.trace()[0].placed, vec![0, 1]);
        assert_eq!(disp.trace()[0].running_after, vec![1, 1]);
    }

    #[test]
    fn advance_completes_jobs_and_frees_contexts() {
        let truth = RateGrid::new(&flat_model(1, 2)).unwrap();
        let mut disp = Dispatcher::new(1, 2).unwrap();
        disp.admit(job(0, 0, 1.0, 0.0));
        disp.admit(job(1, 0, 2.0, 0.0));
        disp.fill(&mut PolicyPlacer::fcfs(), &truth, 0.0);
        let dt = disp.time_to_next_completion(&truth);
        assert!((dt - 1.0).abs() < 1e-12);
        let done = disp.advance(dt, dt);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 0);
        assert!((done[0].finished_at - 1.0).abs() < 1e-12);
        assert_eq!(disp.running_counts(), [1]);
        assert_eq!(disp.free(), 1);
        // The second job still needs one more unit of work.
        let dt2 = disp.time_to_next_completion(&truth);
        assert!((dt2 - 1.0).abs() < 1e-9);
        let done2 = disp.advance(dt2, dt + dt2);
        assert_eq!(done2.len(), 1);
        assert_eq!(done2[0].size, 2.0);
        assert_eq!(done2[0].placed_at, 0.0);
        assert!(disp.is_idle());
        assert_eq!(disp.time_to_next_completion(&truth), f64::INFINITY);
    }

    #[test]
    fn completion_rates_follow_the_coschedule() {
        // Two jobs of the same type slow each other down by 2x.
        let truth = RateGrid::new(&AnalyticModel::new(1, 2, |counts: &[u32], _ty| {
            if counts[0] > 1 {
                0.5
            } else {
                1.0
            }
        }))
        .unwrap();
        let mut disp = Dispatcher::new(1, 2).unwrap();
        disp.admit(job(0, 0, 1.0, 0.0));
        disp.admit(job(1, 0, 1.0, 0.0));
        disp.fill(&mut PolicyPlacer::fcfs(), &truth, 0.0);
        let dt = disp.time_to_next_completion(&truth);
        assert!((dt - 2.0).abs() < 1e-12, "contended pair runs at 0.5");
        // Both complete at the same instant; order is by id.
        let done = disp.advance(dt, dt);
        assert_eq!(done.iter().map(|c| c.id).collect::<Vec<_>>(), vec![0, 1]);
    }
}

//! The dispatcher: owns the waiting pool and the running coschedule.
//!
//! Jobs admitted from the queue wait in a [`JobPool`]; whenever contexts
//! are free, the configured [`Placer`] picks queued jobs, priced through
//! whatever [`RateModel`] the caller passes (the live predicted model in
//! the service, ground truth in oracle experiments). Placement is
//! non-preemptive: a placed job keeps its context until it completes.
//!
//! Time is external: the driver asks for the next completion horizon
//! under a ground truth, evaluated into a [`RateGrid`], and then advances
//! the dispatcher by explicit `dt` steps, so the same dispatcher works
//! under a virtual clock (deterministic sim) or wall time.

use crate::placer::Placer;
use queueing::{Job, JobId, JobPool};
use symbiosis::{RateGrid, RateModel};

/// Numerical slack below which remaining work counts as finished
/// (matches the latency simulator's completion threshold).
const DONE_EPS: f64 = 1e-12;

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
    /// When it arrived (entered the queue).
    pub arrival: f64,
    /// When it was placed on a context.
    pub placed_at: f64,
    /// When it completed.
    pub finished_at: f64,
}

struct RunningJob {
    id: JobId,
    ty: usize,
    remaining: f64,
    size: f64,
    arrival: f64,
    placed_at: f64,
}

/// Fills free machine contexts from a pool of admitted jobs.
pub struct Dispatcher {
    queued: JobPool,
    running: Vec<RunningJob>,
    running_counts: Vec<u32>,
    contexts: usize,
    placer: Box<dyn Placer>,
    trace: Vec<Placement>,
    placed_total: u64,
    completed_total: u64,
}

impl Dispatcher {
    /// A dispatcher for `num_types` job types on `contexts` contexts.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(num_types: usize, contexts: usize, placer: Box<dyn Placer>) -> Self {
        assert!(num_types > 0, "need at least one job type");
        assert!(contexts > 0, "need at least one context");
        Dispatcher {
            queued: JobPool::new(num_types),
            running: Vec::new(),
            running_counts: vec![0; num_types],
            contexts,
            placer,
            trace: Vec::new(),
            placed_total: 0,
            completed_total: 0,
        }
    }

    /// The configured placer's name.
    pub fn placer_name(&self) -> &'static str {
        self.placer.name()
    }

    /// Admits an arrived job into the waiting pool.
    pub fn admit(&mut self, job: Job) {
        self.queued.insert(job);
    }

    /// Jobs waiting for a context.
    pub fn queued_len(&self) -> usize {
        self.queued.len()
    }

    /// Jobs currently running.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Free contexts.
    pub fn free(&self) -> usize {
        self.contexts - self.running.len()
    }

    /// The running multiset, as per-type counts.
    pub fn running_counts(&self) -> &[u32] {
        &self.running_counts
    }

    /// True when nothing is queued or running.
    pub fn is_idle(&self) -> bool {
        self.running.is_empty() && self.queued.is_empty()
    }

    /// Jobs placed / completed so far (for loss accounting).
    pub fn totals(&self) -> (u64, u64) {
        (self.placed_total, self.completed_total)
    }

    /// Every placement decision so far.
    pub fn trace(&self) -> &[Placement] {
        &self.trace
    }

    /// Fills free contexts by repeatedly asking the placer, pricing
    /// candidates through `model`. Stops when the machine is full, the
    /// pool is empty, or the placer declines to place.
    ///
    /// # Panics
    ///
    /// Panics if the placer returns more jobs than there are free
    /// contexts, or ids not in the pool.
    pub fn fill(&mut self, model: &dyn RateModel, now: f64) {
        loop {
            let free = self.free();
            if free == 0 || self.queued.is_empty() {
                return;
            }
            let ids = self
                .placer
                .place(&mut self.queued, &self.running_counts, free, model);
            if ids.is_empty() {
                return;
            }
            assert!(
                ids.len() <= free,
                "placer returned {} jobs for {free} free contexts",
                ids.len()
            );
            for &id in &ids {
                let job = self.queued.remove(id);
                self.running_counts[job.ty] += 1;
                self.running.push(RunningJob {
                    id: job.id,
                    ty: job.ty,
                    remaining: job.remaining,
                    size: job.remaining,
                    arrival: job.arrival,
                    placed_at: now,
                });
                self.placed_total += 1;
            }
            self.trace.push(Placement {
                time: now,
                placed: ids,
                running_after: self.running_counts.clone(),
            });
        }
    }

    /// Time until the next running job completes under `truth`, or `None`
    /// when nothing is running.
    pub fn time_to_next_completion(&self, truth: &RateGrid) -> Option<f64> {
        if self.running.is_empty() {
            return None;
        }
        let rates = truth.per_job_rates(&self.running_counts);
        self.running
            .iter()
            .map(|job| job.remaining / rates[job.ty])
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Advances every running job by `dt` at the rates `truth` assigns to
    /// the current coschedule, removing and returning the completions
    /// (ordered by id, deterministic).
    pub fn advance(&mut self, truth: &RateGrid, dt: f64, now: f64) -> Vec<Completion> {
        if self.running.is_empty() {
            return Vec::new();
        }
        let rates = truth.per_job_rates(&self.running_counts);
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.running.len() {
            let job = &mut self.running[i];
            job.remaining -= rates[job.ty] * dt;
            if job.remaining <= DONE_EPS {
                let job = self.running.swap_remove(i);
                self.running_counts[job.ty] -= 1;
                self.completed_total += 1;
                done.push(Completion {
                    id: job.id,
                    ty: job.ty,
                    size: job.size,
                    arrival: job.arrival,
                    placed_at: job.placed_at,
                    finished_at: now,
                });
            } else {
                i += 1;
            }
        }
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
    fn fill_places_up_to_free_contexts_and_records_a_trace() {
        let truth = flat_model(2, 2);
        let mut disp = Dispatcher::new(2, 2, Box::new(PolicyPlacer::fcfs()));
        for i in 0..3 {
            disp.admit(job(i, (i % 2) as usize, 1.0, 0.0));
        }
        disp.fill(&truth, 0.0);
        assert_eq!(disp.running_len(), 2);
        assert_eq!(disp.queued_len(), 1);
        assert_eq!(disp.free(), 0);
        assert_eq!(disp.trace().len(), 1);
        assert_eq!(disp.trace()[0].placed, vec![0, 1]);
        assert_eq!(disp.trace()[0].running_after, vec![1, 1]);
    }

    #[test]
    fn advance_completes_jobs_and_frees_contexts() {
        let truth = RateGrid::new(&flat_model(1, 2)).unwrap();
        let mut disp = Dispatcher::new(1, 2, Box::new(PolicyPlacer::fcfs()));
        disp.admit(job(0, 0, 1.0, 0.0));
        disp.admit(job(1, 0, 2.0, 0.0));
        disp.fill(&truth, 0.0);
        let dt = disp.time_to_next_completion(&truth).unwrap();
        assert!((dt - 1.0).abs() < 1e-12);
        let done = disp.advance(&truth, dt, dt);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 0);
        assert!((done[0].finished_at - 1.0).abs() < 1e-12);
        assert_eq!(disp.running_len(), 1);
        assert_eq!(disp.free(), 1);
        // The second job still needs one more unit of work.
        let dt2 = disp.time_to_next_completion(&truth).unwrap();
        assert!((dt2 - 1.0).abs() < 1e-9);
        let done2 = disp.advance(&truth, dt2, dt + dt2);
        assert_eq!(done2.len(), 1);
        assert_eq!(disp.totals(), (2, 2));
        assert!(disp.is_idle());
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
        let mut disp = Dispatcher::new(1, 2, Box::new(PolicyPlacer::fcfs()));
        disp.admit(job(0, 0, 1.0, 0.0));
        disp.admit(job(1, 0, 1.0, 0.0));
        disp.fill(&truth, 0.0);
        let dt = disp.time_to_next_completion(&truth).unwrap();
        assert!((dt - 2.0).abs() < 1e-12, "contended pair runs at 0.5");
        // Both complete at the same instant; order is by id.
        let done = disp.advance(&truth, dt, dt);
        assert_eq!(done.iter().map(|c| c.id).collect::<Vec<_>>(), vec![0, 1]);
    }
}

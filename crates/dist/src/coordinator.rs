//! The coordinator half: chunked work-queue dispatch with bounded
//! retries and an order-preserving merge, as a state machine.
//!
//! The workload list is split into *consecutive* chunks, so the answers
//! concatenated in chunk order reproduce the single-process
//! [`session::Session::sweep`] report bitwise, whoever evaluated what.
//!
//! The whole policy is one value, `Machine`: an event on a connection (a
//! frame, undecodable bytes, a lost link) or a passed deadline yields the
//! frames to send and the connections to close. It owns no thread, lock,
//! channel or clock; [`Coordinator::run`] drives it over real
//! [`crate::Transport`]s, [`Coordinator::simulate`] under virtual time.
//!
//! - **Pull dispatch.** A [`Frame::FetchChunk`] gets the next pending
//!   chunk, so fast workers take more; with none pending but some in
//!   flight elsewhere, the request *parks* until the queue moves.
//! - **Requeues under a budget.** A lost connection's chunks return to
//!   the queue; past [`DistConfig::retry_budget`] the run fails with
//!   [`DistError::RetryExhausted`]. A worker-reported [`Frame::Error`]
//!   aborts at once: evaluation is deterministic.
//! - **Strikes.** A malformed or unexpected frame re-queues the
//!   connection's chunks and the conversation goes on, up to
//!   [`DistConfig::quarantine_limit`].
//! - **Hedging.** With [`DistConfig::hedge`], an idle worker re-runs the
//!   lowest straggler (once per chunk); the first answer wins.
//! - **Deadlines.** A connection is retired [`DistConfig::recv_timeout`]
//!   after its last frame; a parked one's deadline moves whenever a chunk
//!   completes.

use std::collections::VecDeque;
use std::ops::Range;
use std::time::Duration;

use session::{EvalSpec, SessionReport, SweepBuilder, SweepReport, SweepRow};
use workloads::{PerfTable, WorkUnit};

use crate::proto::{Frame, PROTOCOL_VERSION};
use crate::DistError;

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Workloads per chunk; 0 (the default) sizes chunks automatically
    /// (~32 chunks over the whole sweep, at least 1 workload each) so the
    /// queue stays long enough for pull-based balancing.
    pub chunk_size: usize,
    /// Re-queues allowed per chunk after transport failures. Attempt
    /// `retry_budget + 1` failing is fatal
    /// ([`DistError::RetryExhausted`]). Default 2.
    pub retry_budget: usize,
    /// How long a connection may stay silent; a worker that holds a
    /// chunk silently for longer is treated as lost and its chunk
    /// re-queued. [`Coordinator::run`] sets every transport's read timeout
    /// to it. Also bounds how long an idle worker waits for the queue to
    /// move. Default 120 s.
    pub recv_timeout: Duration,
    /// Hedged re-dispatch: when the queue is empty but chunks are still
    /// in flight, hand an idle worker a copy of the lowest straggler
    /// chunk (once per chunk; first answer wins, duplicates are
    /// discarded). Off by default — it trades duplicate work for tail
    /// latency, which distorts per-worker accounting in clean runs.
    pub hedge: bool,
    /// Protocol strikes (malformed or unexpected frames) a connection
    /// may accumulate before it is quarantined. Default 3.
    pub quarantine_limit: usize,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            chunk_size: 0,
            retry_budget: 2,
            recv_timeout: Duration::from_secs(120),
            hedge: false,
            quarantine_limit: 3,
        }
    }
}

/// Per-worker accounting from one coordinated run.
#[derive(Debug, Clone)]
pub struct WorkerLog {
    /// The transport's peer label (TCP address or loopback tag).
    pub peer: String,
    /// Chunks this worker completed.
    pub chunks: usize,
    /// Sweep rows this worker produced.
    pub rows: usize,
    /// Time from the start of the run until this connection closed
    /// (virtual time on the simulated network).
    pub wall: Duration,
}

impl WorkerLog {
    /// Rows per second over this worker's connection lifetime.
    pub fn rows_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.rows as f64 / secs
        } else {
            0.0
        }
    }
}

/// A completed distributed sweep: the merged report plus accounting.
#[derive(Debug, Clone)]
pub struct DistOutcome {
    /// The merged sweep report, bitwise identical to a single-process
    /// run over the same workload list.
    pub report: SweepReport,
    /// Per-worker throughput accounting, in connection order.
    pub workers: Vec<WorkerLog>,
    /// Number of chunks the workload list was split into.
    pub chunks: usize,
    /// Chunks returned to the queue after a connection failed or struck.
    pub requeues: usize,
    /// Extra hand-outs of in-flight chunks (hedges and self-re-sends).
    pub hedges: usize,
    /// Redundant answers discarded by chunk id.
    pub duplicates: usize,
    /// Protocol strikes across all connections.
    pub strikes: usize,
    /// Coordinator-side metrics (empty when no [`obs`] recorder was
    /// installed): counters and histograms hold this run's activity only,
    /// gauges the recorder's lifetime state (current value and all-time
    /// peak), as [`obs::MetricsSnapshot::diff`] keeps them.
    pub metrics: obs::MetricsSnapshot,
}

/// Shards one sweep across workers. See the module docs for the
/// dispatch and retry semantics.
pub struct Coordinator {
    pub(crate) table_bytes: Vec<u8>,
    pub(crate) fingerprint: u64,
    workloads: Vec<Vec<usize>>,
    chunks: Vec<Range<usize>>,
    unit: WorkUnit,
    spec: EvalSpec,
    pub(crate) config: DistConfig,
}

impl Coordinator {
    /// Builds a coordinator straight from a configured [`SweepBuilder`]
    /// (configure the sweep exactly as for `run()`, then distribute it
    /// instead).
    ///
    /// # Errors
    ///
    /// [`DistError::Config`] on any builder validation failure (missing
    /// table, no workloads, no policies, unknown policy) — all checked
    /// here, before any worker sees the job.
    pub fn from_sweep(sweep: SweepBuilder<'_>, config: DistConfig) -> Result<Self, DistError> {
        let (table, workloads, unit, spec) = sweep
            .shard()
            .map_err(|e| DistError::Config(e.to_string()))?;
        let chunk_size = match config.chunk_size {
            0 => workloads.len().div_ceil(32).max(1),
            size => size,
        };
        let chunks: Vec<Range<usize>> = (0..workloads.len())
            .step_by(chunk_size)
            .map(|start| start..(start + chunk_size).min(workloads.len()))
            .collect();
        let table_bytes = table.to_bytes();
        Ok(Coordinator {
            fingerprint: PerfTable::content_fingerprint_of(&table_bytes),
            table_bytes,
            workloads,
            chunks,
            unit,
            spec,
            config,
        })
    }

    /// Number of chunks the workload list was split into.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Runs one sweep: `drive` feeds a fresh [`Machine`] (one connection
    /// per peer) until every connection closed; the outcome then gets the
    /// run's [`obs`] counters and metric delta.
    pub(crate) fn conduct(
        &self,
        peers: Vec<String>,
        drive: impl FnOnce(&mut Machine<'_>),
    ) -> Result<DistOutcome, DistError> {
        let ctx = obs::current();
        let span = ctx.as_ref().map(|r| r.span("dist.run"));
        let before = ctx.as_ref().map(|r| r.snapshot());
        let mut machine = Machine::new(self, peers.len());
        drive(&mut machine);
        let mut outcome = machine.finish(peers)?;
        if let (Some(rec), Some(before)) = (&ctx, before) {
            rec.counter("dist.chunks_completed")
                .add(outcome.chunks as u64);
            rec.counter("dist.requeues").add(outcome.requeues as u64);
            rec.counter("dist.hedges").add(outcome.hedges as u64);
            rec.counter("dist.duplicates_discarded")
                .add(outcome.duplicates as u64);
            rec.counter("dist.strikes").add(outcome.strikes as u64);
            drop(span);
            outcome.metrics = obs::MetricsSnapshot::diff(&before, &rec.snapshot());
        }
        Ok(outcome)
    }
}

/// What the machine asks of the loop that runs it.
#[derive(Debug)]
pub(crate) enum Output {
    /// Send this frame on this connection.
    Send(usize, Frame),
    /// Hang up this connection (after any frames sent before it).
    Close(usize),
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
enum Phase {
    /// Waiting for the worker's `Hello`.
    #[default]
    Hello,
    Serving,
    /// A `FetchChunk` waits for the queue to move. Nothing is delivered
    /// on a parked connection: its worker awaits this answer.
    Parked,
    Closed,
}

#[derive(Clone, Default)]
struct Conn {
    phase: Phase,
    /// Chunks handed to this connection and not yet answered by it (a
    /// chunk re-sent to it appears twice), with when each went out.
    held: Vec<(usize, Duration)>,
    strikes: usize,
    /// When the connection last heard from its worker (or, parked, last
    /// saw the queue move); its deadline is a timeout later.
    heard: Duration,
    chunks: usize,
    rows: usize,
    closed_at: Duration,
}

#[derive(Clone, Default)]
struct Chunk {
    /// Hand-out attempts (1 = first try).
    attempts: usize,
    /// Connections holding it.
    inflight: usize,
    /// Whether it used its one cross-worker hedge.
    hedged: bool,
    /// The first answer.
    reports: Option<Vec<SessionReport>>,
}

/// The coordinator's whole state for one run.
pub(crate) struct Machine<'c> {
    job: &'c Coordinator,
    chunks: Vec<Chunk>,
    /// Chunks awaiting hand-out (stale entries for chunks completed
    /// through another copy are skipped).
    pending: VecDeque<usize>,
    done: usize,
    requeues: usize,
    hedges: usize,
    duplicates: usize,
    strikes: usize,
    /// The first fatal error; it ends the run.
    fatal: Option<DistError>,
    conns: Vec<Conn>,
    out: Vec<Output>,
}

impl<'c> Machine<'c> {
    fn new(job: &'c Coordinator, conns: usize) -> Self {
        Machine {
            job,
            chunks: vec![Chunk::default(); job.chunks.len()],
            pending: (0..job.chunks.len()).collect(),
            done: 0,
            requeues: 0,
            hedges: 0,
            duplicates: 0,
            strikes: 0,
            fatal: None,
            conns: vec![Conn::default(); conns],
            out: Vec::new(),
        }
    }

    /// Handles what `conn`'s link delivered at `now` (since the run began):
    /// a frame, a protocol error (a strike) or any other failure (a lost
    /// connection). A closed connection's events are ignored.
    pub(crate) fn on(
        &mut self,
        now: Duration,
        conn: usize,
        input: Result<Frame, DistError>,
    ) -> Vec<Output> {
        let phase = self.conns[conn].phase;
        debug_assert!(phase != Phase::Parked, "input on a parked connection");
        if phase != Phase::Closed {
            self.conns[conn].heard = now;
            match input {
                Ok(frame) => self.frame(now, conn, frame),
                Err(DistError::Protocol(detail)) => self.strike(now, conn, &detail),
                Err(lost) => self.retire(now, conn, lost),
            }
            self.wake(now);
        }
        std::mem::take(&mut self.out)
    }

    /// Retires every open connection whose deadline is not after `now`.
    pub(crate) fn tick(&mut self, now: Duration) -> Vec<Output> {
        let timeout = self.job.config.recv_timeout;
        for conn in 0..self.conns.len() {
            let c = &self.conns[conn];
            if c.phase != Phase::Closed && c.heard.saturating_add(timeout) <= now {
                let silent = DistError::Timeout(format!("worker {conn} silent for {timeout:?}"));
                self.retire(now, conn, silent);
            }
        }
        self.wake(now);
        std::mem::take(&mut self.out)
    }

    /// The earliest deadline of an open connection; `None` once every
    /// connection closed and the run is over.
    pub(crate) fn deadline(&self) -> Option<Duration> {
        let open = self.conns.iter().filter(|c| c.phase != Phase::Closed);
        open.map(|c| c.heard.saturating_add(self.job.config.recv_timeout))
            .min()
    }

    /// Whether `conn` waits for the queue to move.
    pub(crate) fn parked(&self, conn: usize) -> bool {
        self.conns[conn].phase == Phase::Parked
    }

    /// Whether `conn` was closed.
    pub(crate) fn closed(&self, conn: usize) -> bool {
        self.conns[conn].phase == Phase::Closed
    }

    fn close(&mut self, now: Duration, conn: usize) {
        self.conns[conn].phase = Phase::Closed;
        self.conns[conn].closed_at = now;
        self.out.push(Output::Close(conn));
    }

    fn frame(&mut self, now: Duration, conn: usize, frame: Frame) {
        let hello = self.conns[conn].phase == Phase::Hello;
        match frame {
            Frame::Hello {
                version: PROTOCOL_VERSION,
            } if hello => {
                let job = self.job;
                let welcome = Frame::Welcome {
                    version: PROTOCOL_VERSION,
                    table_fingerprint: job.fingerprint,
                    unit: job.unit,
                    spec: job.spec.clone(),
                    total_workloads: job.workloads.len() as u64,
                };
                self.out.push(Output::Send(conn, welcome));
                self.conns[conn].phase = Phase::Serving;
            }
            Frame::Hello { version } if hello => {
                // A worker from another build is not a queue failure:
                // warn (the event mirrors to stderr) and serve the rest.
                let mismatch = DistError::VersionMismatch {
                    ours: PROTOCOL_VERSION,
                    theirs: version,
                };
                let message = mismatch.to_string();
                obs::event!(Warn, "dist.worker_rejected", "worker {conn}: {message}");
                self.out.push(Output::Send(conn, Frame::Error { message }));
                self.close(now, conn);
            }
            other if hello => {
                let unexpected = format!("expected Hello, got {other:?}");
                self.retire(now, conn, DistError::Protocol(unexpected));
            }
            Frame::TableRequest => {
                let bytes = self.job.table_bytes.clone();
                self.out
                    .push(Output::Send(conn, Frame::TableBytes { bytes }));
            }
            Frame::FetchChunk => self.fetch(now, conn),
            Frame::Rows { id, reports } => self.rows(now, conn, id as usize, reports),
            Frame::Error { message } => {
                // Evaluation is deterministic: no other worker can do better.
                let failed = DistError::Sweep(message);
                self.fatal.get_or_insert(failed.clone());
                self.retire(now, conn, failed);
            }
            other => {
                let unexpected = format!("unexpected frame from worker: {other:?}");
                self.strike(now, conn, &unexpected);
            }
        }
    }

    fn rows(&mut self, now: Duration, conn: usize, id: usize, reports: Vec<SessionReport>) {
        let n = reports.len();
        if self.job.chunks.get(id).map(Range::len) != Some(n) {
            let detail = format!("rows for chunk {id} with {n} report(s) miss the chunk map");
            return self.strike(now, conn, &detail);
        }
        let c = &mut self.conns[conn];
        let handed = c.held.iter().position(|&(h, _)| h == id);
        let handed_at = handed.map(|pos| c.held.remove(pos).1);
        let chunk = &mut self.chunks[id];
        if handed_at.is_some() {
            chunk.inflight -= 1;
        }
        // First answer wins; a redundant copy (hedge, re-send or
        // duplicated frame) is discarded so the merge sees each chunk once.
        if chunk.reports.is_some() {
            self.duplicates += 1;
            return;
        }
        c.chunks += 1;
        c.rows += n;
        chunk.reports = Some(reports);
        self.done += 1;
        // The queue moved: every parked request's wait starts over.
        for c in self.conns.iter_mut().filter(|c| c.phase == Phase::Parked) {
            c.heard = now;
        }
        if let (Some(rec), Some(at)) = (obs::current(), handed_at) {
            let us = now.saturating_sub(at).as_micros() as f64;
            rec.histogram("dist.chunk_us").record(us);
        }
    }

    /// Answers a `FetchChunk`: the run's error once it is lost, a pending
    /// chunk, `Drained` once all are done, a re-send of this connection's
    /// own unanswered chunk (its answer went missing), or, with hedging,
    /// a copy of the lowest chunk in flight elsewhere. Else it parks.
    fn fetch(&mut self, now: Duration, conn: usize) {
        if let Some(fatal) = &self.fatal {
            let message = fatal.to_string();
            self.out.push(Output::Send(conn, Frame::Error { message }));
            return self.close(now, conn);
        }
        while let Some(id) = self.pending.pop_front() {
            if self.chunks[id].reports.is_none() {
                self.chunks[id].attempts += 1;
                return self.hand(now, conn, id);
            }
        }
        if self.done == self.chunks.len() {
            self.out.push(Output::Send(conn, Frame::Drained));
            return self.close(now, conn);
        }
        // Waiting on our own unanswered chunk would wait forever: re-send
        // it, under the same attempt budget as re-queues.
        let held = self.conns[conn].held.iter().map(|&(id, _)| id);
        if let Some(id) = held.filter(|&id| self.chunks[id].reports.is_none()).min() {
            if self.out_of_attempts(id, || "the chunk's answers keep going missing".into()) {
                return self.fetch(now, conn);
            }
            self.chunks[id].attempts += 1;
            self.hedges += 1;
            obs::event!(
                Debug,
                "dist.hedge",
                "re-sending chunk {id} to worker {conn}"
            );
            return self.hand(now, conn, id);
        }
        let straggler = self
            .chunks
            .iter()
            .position(|c| c.reports.is_none() && c.inflight > 0 && !c.hedged);
        if let Some(id) = straggler.filter(|_| self.job.config.hedge) {
            self.chunks[id].hedged = true;
            self.hedges += 1;
            obs::event!(Debug, "dist.hedge", "hedging chunk {id} onto worker {conn}");
            return self.hand(now, conn, id);
        }
        self.conns[conn].phase = Phase::Parked;
    }

    fn hand(&mut self, now: Duration, conn: usize, id: usize) {
        self.chunks[id].inflight += 1;
        let c = &mut self.conns[conn];
        c.phase = Phase::Serving;
        // A whole timeout to answer, however long the request was parked.
        c.heard = now;
        c.held.push((id, now));
        let workloads = self.job.workloads[self.job.chunks[id].clone()].to_vec();
        let id = id as u64;
        self.out
            .push(Output::Send(conn, Frame::Chunk { id, workloads }));
    }

    /// After any event, answers each parked request (in connection
    /// order) that now can be.
    fn wake(&mut self, now: Duration) {
        for conn in 0..self.conns.len() {
            if self.conns[conn].phase == Phase::Parked {
                self.fetch(now, conn);
            }
        }
    }

    /// A protocol strike: `conn`'s chunks go back to the queue (the
    /// conversation is desynchronized, so their answers may never come)
    /// and the conversation continues, unless this strike exceeds the
    /// quarantine limit.
    fn strike(&mut self, now: Duration, conn: usize, detail: &str) {
        self.strikes += 1;
        self.conns[conn].strikes += 1;
        let strikes = self.conns[conn].strikes;
        obs::event!(
            Debug,
            "dist.strike",
            "strike {strikes} on worker {conn}: {detail}"
        );
        for (id, _) in std::mem::take(&mut self.conns[conn].held) {
            self.chunks[id].inflight -= 1;
            self.requeue_if_orphaned(id);
        }
        if strikes > self.job.config.quarantine_limit {
            obs::event!(Debug, "dist.quarantine", "worker {conn} quarantined");
            self.close(now, conn);
        }
    }

    /// Settles a lost connection: its chunks are re-queued under the
    /// retry budget, or the run fails.
    fn retire(&mut self, now: Duration, conn: usize, error: DistError) {
        for (id, _) in std::mem::take(&mut self.conns[conn].held) {
            let chunk = &mut self.chunks[id];
            chunk.inflight -= 1;
            if chunk.reports.is_some() {
                continue;
            }
            if !self.out_of_attempts(id, || error.to_string()) {
                self.requeue_if_orphaned(id);
            }
        }
        self.close(now, conn);
    }

    /// Whether chunk `id` used up its attempts, which fails the run with
    /// `last` as the final error.
    fn out_of_attempts(&mut self, id: usize, last: impl FnOnce() -> String) -> bool {
        let attempts = self.chunks[id].attempts;
        let out = attempts > self.job.config.retry_budget;
        if out {
            let last = last();
            let exhausted = DistError::RetryExhausted {
                chunk: id,
                attempts,
                last,
            };
            self.fatal.get_or_insert(exhausted);
        }
        out
    }

    /// Returns `id` to the queue unless it is answered, queued or held.
    fn requeue_if_orphaned(&mut self, id: usize) {
        let c = &self.chunks[id];
        if c.reports.is_none() && c.inflight == 0 && !self.pending.contains(&id) {
            self.pending.push_back(id);
            self.requeues += 1;
            obs::event!(Debug, "dist.chunk_requeued", "chunk {id} re-queued");
        }
    }

    /// The run's result once every connection closed: the first fatal
    /// error, [`DistError::Incomplete`], or the report in chunk order.
    fn finish(self, peers: Vec<String>) -> Result<DistOutcome, DistError> {
        if let Some(fatal) = self.fatal {
            return Err(fatal);
        }
        let chunks = self.chunks.len();
        if self.done != chunks {
            let remaining = chunks - self.done;
            return Err(DistError::Incomplete { remaining });
        }
        let reports = self
            .chunks
            .into_iter()
            .flat_map(|c| c.reports.expect("done"));
        let rows = self.job.workloads.iter().zip(reports);
        let workers = peers.into_iter().zip(&self.conns);
        Ok(DistOutcome {
            report: SweepReport {
                rows: rows
                    .map(|(w, report)| SweepRow {
                        workload: w.clone(),
                        report,
                    })
                    .collect(),
                metrics: obs::MetricsSnapshot::default(),
            },
            workers: workers
                .map(|(peer, c)| WorkerLog {
                    peer,
                    chunks: c.chunks,
                    rows: c.rows,
                    wall: c.closed_at,
                })
                .collect(),
            chunks,
            requeues: self.requeues,
            hedges: self.hedges,
            duplicates: self.duplicates,
            strikes: self.strikes,
            metrics: obs::MetricsSnapshot::default(),
        })
    }
}

//! The coordinator half: chunked work-queue dispatch over any set of
//! [`Transport`]s, with bounded retries and an order-preserving merge.
//!
//! The workload list is split into *consecutive* chunks up front; chunk
//! order therefore encodes original workload order, and reassembling the
//! per-chunk reports with [`SweepReport::merge`] in chunk order
//! reproduces the single-process [`session::Session::sweep`] report
//! bitwise — no matter which worker evaluated which chunk, in what
//! order, or how many times a chunk had to be re-handed out.
//!
//! Dispatch is pull-based: workers ask ([`crate::proto::Frame::FetchChunk`])
//! and the coordinator answers with the next pending chunk, so fast
//! workers naturally take more of the queue and a straggler holds at most
//! one chunk. A worker that disconnects or times out while holding a
//! chunk returns it to the queue; each chunk carries a bounded attempt
//! budget so a poisoned chunk (or a flapping fleet) surfaces
//! [`DistError::RetryExhausted`] instead of cycling forever. A worker
//! that *reports* a failure ([`crate::proto::Frame::Error`]) aborts the
//! sweep without retry: sweep evaluation is deterministic, so the chunk
//! would fail identically everywhere.
//!
//! # Failure containment
//!
//! Three more mechanisms keep one bad connection from stalling or
//! corrupting the run (all deterministic, all exercised by the chaos
//! tests):
//!
//! - **Strikes and quarantine.** A malformed or unexpected frame is a
//!   *strike*, not a fatal error: the connection's held chunks return to
//!   the queue and the conversation continues. A connection exceeding
//!   [`DistConfig::quarantine_limit`] strikes is retired so a babbling
//!   worker cannot spin the coordinator forever.
//! - **Hedged re-dispatch.** With [`DistConfig::hedge`] enabled, an idle
//!   worker re-runs the lowest straggler chunk still in flight elsewhere
//!   (once per chunk). The first answer wins; later copies are discarded
//!   by chunk id, so duplicates never reach the merge and parity with
//!   the single-process sweep is preserved.
//! - **Bounded waits.** A worker waiting for the queue gives up after
//!   [`DistConfig::recv_timeout`] without global progress, so a silently
//!   wedged fleet ends in [`DistError::Timeout`] / [`DistError::Incomplete`]
//!   rather than a hang.

use std::collections::{HashMap, VecDeque};
use std::net::TcpListener;
use std::ops::Range;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use session::{EvalSpec, SessionReport, SweepBuilder, SweepReport, SweepRow};
use workloads::{PerfTable, WorkUnit};

use crate::backoff::Backoff;
use crate::proto::{Frame, PROTOCOL_VERSION};
use crate::transport::{TcpTransport, Transport};
use crate::DistError;

/// How long [`Coordinator::serve_listener`] waits for the expected number
/// of workers to connect.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(60);

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
    /// Per-connection read timeout on the coordinator side; a worker that
    /// holds a chunk silently for longer is treated as lost and its chunk
    /// re-queued. [`Coordinator::run`] caps every transport's own read
    /// timeout at this value. Also bounds how long an idle worker waits
    /// for the queue to move. Default 120 s.
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
    /// Wall-clock time from handshake to disconnect.
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

impl std::fmt::Display for WorkerLog {
    /// One aligned accounting row: peer, chunks, rows, wall, rows/s.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<24} {:>6} chunk(s) {:>8} row(s) {:>10.2?} {:>10.1} rows/s",
            self.peer,
            self.chunks,
            self.rows,
            self.wall,
            self.rows_per_sec()
        )
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

/// Book-keeping for one run, shared across worker-serving threads.
struct Shared {
    state: Mutex<QueueState>,
    cv: Condvar,
}

struct QueueState {
    /// Chunk indices awaiting hand-out (may contain stale entries for
    /// chunks that completed through another copy; hand-out skips them).
    pending: VecDeque<usize>,
    /// Hand-out attempts per chunk (1 = first try).
    attempts: Vec<usize>,
    /// Connections currently holding each chunk.
    inflight: Vec<usize>,
    /// Whether each chunk has used its one cross-worker hedge.
    hedged: Vec<bool>,
    /// Completed per-chunk reports, indexed by chunk.
    reports: Vec<Option<Vec<SessionReport>>>,
    /// Chunks completed so far.
    done: usize,
    /// Chunks returned to the queue by retire/strike.
    requeues: usize,
    /// Extra hand-outs of in-flight chunks.
    hedges: usize,
    /// Redundant answers discarded by chunk id.
    duplicates: usize,
    /// Protocol strikes across all connections.
    strikes: usize,
    /// First fatal error; ends the whole run.
    fatal: Option<DistError>,
}

impl QueueState {
    /// Returns `id` to the queue unless it is complete, already queued,
    /// or still held elsewhere.
    fn requeue_if_orphaned(&mut self, id: usize) {
        if self.reports[id].is_none() && self.inflight[id] == 0 && !self.pending.contains(&id) {
            self.pending.push_back(id);
            self.requeues += 1;
            obs::event!(
                Debug,
                "dist.chunk_requeued",
                "chunk {id} returned to the queue"
            );
        }
    }
}

/// What a `FetchChunk` request is answered with.
enum NextChunk {
    /// Hand out this chunk.
    Hand(usize),
    /// The sweep is complete: send Drained and finish the conversation.
    Drained,
    /// The run is already lost: the Error frame went out, just exit.
    Abort,
}

/// Shards one sweep across workers. See the module docs for the
/// dispatch and retry semantics.
pub struct Coordinator {
    table_bytes: Vec<u8>,
    fingerprint: u64,
    workloads: Vec<Vec<usize>>,
    chunks: Vec<Range<usize>>,
    unit: WorkUnit,
    spec: EvalSpec,
    config: DistConfig,
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
        let chunk_size = if config.chunk_size == 0 {
            workloads.len().div_ceil(32).max(1)
        } else {
            config.chunk_size
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

    /// Runs the sweep over an explicit set of connected transports (one
    /// per worker), blocking until every chunk is answered or the run
    /// fails. This is the transport-agnostic core; TCP callers use
    /// [`Coordinator::serve_tcp`] / [`Coordinator::serve_listener`].
    /// Every transport's read timeout is capped at
    /// [`DistConfig::recv_timeout`] first; one configured shorter keeps
    /// its own.
    ///
    /// # Errors
    ///
    /// [`DistError::Sweep`] when a worker reports a deterministic
    /// evaluation failure, [`DistError::RetryExhausted`] when one chunk
    /// burns through its attempt budget, [`DistError::Incomplete`] when
    /// every worker is gone with work outstanding,
    /// [`DistError::Config`] when `workers` is empty, or
    /// [`DistError::Io`] when a transport rejects the read timeout.
    pub fn run<T: Transport + Send>(&self, mut workers: Vec<T>) -> Result<DistOutcome, DistError> {
        if workers.is_empty() {
            return Err(DistError::Config("no workers to run on".into()));
        }
        for transport in &mut workers {
            let timeout = transport.recv_timeout().min(self.config.recv_timeout);
            transport.set_recv_timeout(timeout)?;
        }
        let shared = Shared {
            state: Mutex::new(QueueState {
                pending: (0..self.chunks.len()).collect(),
                attempts: vec![0; self.chunks.len()],
                inflight: vec![0; self.chunks.len()],
                hedged: vec![false; self.chunks.len()],
                reports: vec![None; self.chunks.len()],
                done: 0,
                requeues: 0,
                hedges: 0,
                duplicates: 0,
                strikes: 0,
                fatal: None,
            }),
            cv: Condvar::new(),
        };

        let ctx = obs::current();
        let _span = ctx.as_ref().map(|r| r.span("dist.run"));
        let before = ctx.as_ref().map(|r| r.snapshot());

        let logs: Vec<WorkerLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .map(|mut transport| {
                    let shared = &shared;
                    let ctx = ctx.clone();
                    scope.spawn(move || {
                        let _obs = obs::install_current(&ctx);
                        let peer = transport.peer();
                        let started = Instant::now();
                        let mut log = WorkerLog {
                            peer,
                            chunks: 0,
                            rows: 0,
                            wall: Duration::ZERO,
                        };
                        let mut held: Vec<usize> = Vec::new();
                        let outcome =
                            self.serve_worker(&mut transport, shared, &mut held, &mut log);
                        if let Err(error) = outcome {
                            self.retire_worker(shared, held, error);
                        }
                        log.wall = started.elapsed();
                        log
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker-serving thread panicked"))
                .collect()
        });

        let mut state = self.lock(&shared);
        if let Some(fatal) = state.fatal.take() {
            return Err(fatal);
        }
        if state.done != self.chunks.len() {
            return Err(DistError::Incomplete {
                remaining: self.chunks.len() - state.done,
            });
        }
        let mut parts = Vec::with_capacity(self.chunks.len());
        let reports: Vec<_> = state.reports.drain(..).collect();
        for (chunk, reports) in self.chunks.iter().zip(reports) {
            let reports = reports.expect("done == chunks implies every slot is filled");
            let rows = self.workloads[chunk.clone()]
                .iter()
                .zip(reports)
                .map(|(w, report)| SweepRow {
                    workload: w.clone(),
                    report,
                })
                .collect();
            parts.push(SweepReport {
                rows,
                metrics: obs::MetricsSnapshot::default(),
            });
        }
        let metrics = match (&ctx, before) {
            (Some(rec), Some(before)) => {
                rec.counter("dist.chunks_completed").add(state.done as u64);
                rec.counter("dist.requeues").add(state.requeues as u64);
                rec.counter("dist.hedges").add(state.hedges as u64);
                rec.counter("dist.duplicates_discarded")
                    .add(state.duplicates as u64);
                rec.counter("dist.strikes").add(state.strikes as u64);
                drop(_span);
                obs::MetricsSnapshot::diff(&before, &rec.snapshot())
            }
            _ => obs::MetricsSnapshot::default(),
        };
        Ok(DistOutcome {
            report: SweepReport::merge(parts),
            workers: logs,
            chunks: self.chunks.len(),
            requeues: state.requeues,
            hedges: state.hedges,
            duplicates: state.duplicates,
            strikes: state.strikes,
            metrics,
        })
    }

    /// Accepts `nworkers` TCP connections on `listener` (within 60 s),
    /// then runs the sweep over them. Binding the listener first (port 0
    /// works) lets callers learn the address before spawning workers.
    ///
    /// # Errors
    ///
    /// [`DistError::Timeout`] when too few workers connect in time, plus
    /// everything [`Coordinator::run`] reports.
    pub fn serve_listener(
        &self,
        listener: &TcpListener,
        nworkers: usize,
    ) -> Result<DistOutcome, DistError> {
        if nworkers == 0 {
            return Err(DistError::Config("need at least one worker".into()));
        }
        listener.set_nonblocking(true)?;
        let deadline = Instant::now() + ACCEPT_TIMEOUT;
        let mut backoff = Backoff::new(
            Duration::from_millis(1),
            Duration::from_millis(50),
            self.fingerprint,
        );
        let mut transports = Vec::with_capacity(nworkers);
        while transports.len() < nworkers {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    transports.push(TcpTransport::from_stream(stream, self.config.recv_timeout)?);
                    backoff.reset();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(DistError::Timeout(format!(
                            "only {} of {nworkers} workers connected within {:?}",
                            transports.len(),
                            ACCEPT_TIMEOUT
                        )));
                    }
                    backoff.sleep();
                }
                Err(e) => return Err(e.into()),
            }
        }
        self.run(transports)
    }

    /// Binds `addr`, then behaves as [`Coordinator::serve_listener`].
    ///
    /// # Errors
    ///
    /// [`DistError::Io`] when the address cannot be bound, plus
    /// everything [`Coordinator::serve_listener`] reports.
    pub fn serve_tcp(&self, addr: &str, nworkers: usize) -> Result<DistOutcome, DistError> {
        let listener = TcpListener::bind(addr)?;
        self.serve_listener(&listener, nworkers)
    }

    fn lock<'s>(&self, shared: &'s Shared) -> std::sync::MutexGuard<'s, QueueState> {
        shared
            .state
            .lock()
            .expect("queue mutex poisoned: a serving thread panicked")
    }

    /// Records a protocol strike against this connection: its held
    /// chunks go back to the queue (the conversation is desynchronized,
    /// so their answers can no longer be trusted to arrive) and the
    /// conversation continues — until the strike budget is exhausted and
    /// the connection is quarantined.
    fn strike(
        &self,
        shared: &Shared,
        held: &mut Vec<usize>,
        strikes: &mut usize,
        peer: &str,
        detail: &str,
    ) -> Result<(), DistError> {
        *strikes += 1;
        obs::event!(
            Debug,
            "dist.strike",
            "strike {strikes} against {peer}: {detail}"
        );
        let mut state = self.lock(shared);
        state.strikes += 1;
        for id in held.drain(..) {
            state.inflight[id] = state.inflight[id].saturating_sub(1);
            state.requeue_if_orphaned(id);
        }
        shared.cv.notify_all();
        drop(state);
        if *strikes > self.config.quarantine_limit {
            obs::event!(
                Debug,
                "dist.quarantine",
                "worker {peer} quarantined after {strikes} strikes"
            );
            Err(DistError::Protocol(format!(
                "worker {peer} quarantined after {strikes} protocol strikes; last: {detail}"
            )))
        } else {
            Ok(())
        }
    }

    /// One worker's conversation, from handshake to Drained. On `Err`
    /// the caller settles the held chunks via
    /// [`Coordinator::retire_worker`].
    fn serve_worker<T: Transport>(
        &self,
        transport: &mut T,
        shared: &Shared,
        held: &mut Vec<usize>,
        log: &mut WorkerLog,
    ) -> Result<(), DistError> {
        let peer = transport.peer();
        let mut strikes = 0usize;
        // When each held chunk went out on this connection, for the
        // dist.chunk_us latency histogram (stale entries from struck or
        // re-handed chunks are simply overwritten or never read).
        let mut handed_at: HashMap<usize, Instant> = HashMap::new();
        let hello = loop {
            match transport.recv() {
                Ok(frame) => break frame,
                Err(DistError::Protocol(detail)) => {
                    self.strike(shared, held, &mut strikes, &peer, &detail)?
                }
                Err(e) => return Err(e),
            }
        };
        match hello {
            Frame::Hello {
                version: PROTOCOL_VERSION,
            } => {}
            Frame::Hello { version } => {
                let mismatch = DistError::VersionMismatch {
                    ours: PROTOCOL_VERSION,
                    theirs: version,
                };
                let _ = transport.send(&Frame::Error {
                    message: mismatch.to_string(),
                });
                // A worker from another build is not a queue failure:
                // warn (the event mirrors to stderr) and serve the
                // remaining workers.
                obs::event!(
                    Warn,
                    "dist.worker_rejected",
                    "rejected worker {}: {mismatch}",
                    transport.peer()
                );
                return Ok(());
            }
            other => {
                return Err(DistError::Protocol(format!(
                    "expected Hello, got {other:?}"
                )))
            }
        }
        transport.send(&Frame::Welcome {
            version: PROTOCOL_VERSION,
            table_fingerprint: self.fingerprint,
            unit: self.unit,
            spec: self.spec.clone(),
            total_workloads: self.workloads.len() as u64,
        })?;

        loop {
            let frame = match transport.recv() {
                Ok(frame) => frame,
                Err(DistError::Protocol(detail)) => {
                    // A malformed frame (e.g. a corrupted checksum) does
                    // not kill the connection: strike and keep serving.
                    self.strike(shared, held, &mut strikes, &peer, &detail)?;
                    continue;
                }
                Err(e) => return Err(e),
            };
            match frame {
                Frame::TableRequest => transport.send(&Frame::TableBytes {
                    bytes: self.table_bytes.clone(),
                })?,
                Frame::FetchChunk => match self.next_chunk(transport, shared, held)? {
                    NextChunk::Hand(id) => {
                        held.push(id);
                        handed_at.insert(id, Instant::now());
                        let range = self.chunks[id].clone();
                        transport.send(&Frame::Chunk {
                            id: id as u64,
                            workloads: self.workloads[range].to_vec(),
                        })?;
                    }
                    NextChunk::Drained => {
                        transport.send(&Frame::Drained)?;
                        return Ok(());
                    }
                    NextChunk::Abort => return Ok(()),
                },
                Frame::Rows { id, reports } => {
                    let id = id as usize;
                    if id >= self.chunks.len() || reports.len() != self.chunks[id].len() {
                        let detail = format!(
                            "rows for chunk {id} with {} report(s) do not match the chunk map",
                            reports.len()
                        );
                        self.strike(shared, held, &mut strikes, &peer, &detail)?;
                        continue;
                    }
                    let mut state = self.lock(shared);
                    if let Some(pos) = held.iter().position(|&h| h == id) {
                        held.remove(pos);
                        state.inflight[id] = state.inflight[id].saturating_sub(1);
                    }
                    // First answer wins; a redundant copy (hedge, re-send
                    // or duplicated frame) is discarded by chunk id so
                    // the merge sees each chunk exactly once.
                    if state.reports[id].is_none() {
                        state.reports[id] = Some(reports);
                        state.done += 1;
                        log.chunks += 1;
                        log.rows += self.chunks[id].len();
                        if let (Some(rec), Some(at)) = (obs::current(), handed_at.remove(&id)) {
                            rec.histogram("dist.chunk_us")
                                .record(at.elapsed().as_micros() as f64);
                        }
                    } else {
                        state.duplicates += 1;
                    }
                    shared.cv.notify_all();
                }
                Frame::Error { message } => {
                    // The worker hit a deterministic evaluation failure:
                    // retrying the chunk elsewhere would fail the same
                    // way, so the whole run aborts.
                    let error = DistError::Sweep(message);
                    let mut state = self.lock(shared);
                    for id in held.drain(..) {
                        state.inflight[id] = state.inflight[id].saturating_sub(1);
                    }
                    state.fatal.get_or_insert(error.clone());
                    shared.cv.notify_all();
                    return Err(error);
                }
                other => {
                    let detail = format!("unexpected frame from worker: {other:?}");
                    self.strike(shared, held, &mut strikes, &peer, &detail)?;
                }
            }
        }
    }

    /// Picks the next chunk to hand this connection: a pending chunk if
    /// any, else a re-send of this connection's own straggler, else (with
    /// hedging on) a copy of the lowest chunk in flight elsewhere. Blocks
    /// — bounded by [`DistConfig::recv_timeout`] without progress — while
    /// work is outstanding on other connections.
    fn next_chunk<T: Transport>(
        &self,
        transport: &mut T,
        shared: &Shared,
        held: &[usize],
    ) -> Result<NextChunk, DistError> {
        let mut state = self.lock(shared);
        let mut deadline = Instant::now() + self.config.recv_timeout;
        let mut last_done = state.done;
        loop {
            if let Some(fatal) = &state.fatal {
                let fatal = fatal.clone();
                drop(state);
                let _ = transport.send(&Frame::Error {
                    message: fatal.to_string(),
                });
                return Ok(NextChunk::Abort); // the run is already lost
            }
            let popped = loop {
                match state.pending.pop_front() {
                    // Skip stale entries: the chunk completed through
                    // another copy after it was re-queued.
                    Some(id) if state.reports[id].is_some() => continue,
                    other => break other,
                }
            };
            if let Some(id) = popped {
                state.attempts[id] += 1;
                state.inflight[id] += 1;
                return Ok(NextChunk::Hand(id));
            }
            if state.done == self.chunks.len() {
                return Ok(NextChunk::Drained);
            }
            // This connection asked for work while one of its own chunks
            // is still unanswered — its answer was lost in flight
            // (dropped or mangled frame). Waiting would deadlock against
            // our own channel, so re-send the straggler, bounded by the
            // same attempt budget as re-queues.
            if let Some(&id) = held.iter().filter(|&&id| state.reports[id].is_none()).min() {
                if state.attempts[id] > self.config.retry_budget {
                    let fatal = DistError::RetryExhausted {
                        chunk: id,
                        attempts: state.attempts[id],
                        last: "the chunk's answers keep going missing".into(),
                    };
                    state.fatal.get_or_insert(fatal);
                    shared.cv.notify_all();
                    continue; // loop top reports the fatal to the worker
                }
                state.attempts[id] += 1;
                state.inflight[id] += 1;
                state.hedges += 1;
                obs::event!(
                    Debug,
                    "dist.hedge",
                    "re-sending chunk {id}: its answer went missing on this connection"
                );
                return Ok(NextChunk::Hand(id));
            }
            // Idle worker, work in flight elsewhere: hedge the lowest
            // straggler once so one slow or silent worker cannot drag
            // the tail of the run.
            if self.config.hedge {
                let straggler = (0..self.chunks.len()).find(|&id| {
                    state.reports[id].is_none() && state.inflight[id] > 0 && !state.hedged[id]
                });
                if let Some(id) = straggler {
                    state.hedged[id] = true;
                    state.inflight[id] += 1;
                    state.hedges += 1;
                    obs::event!(
                        Debug,
                        "dist.hedge",
                        "hedging straggler chunk {id} onto an idle worker"
                    );
                    return Ok(NextChunk::Hand(id));
                }
            }
            if state.done != last_done {
                last_done = state.done;
                deadline = Instant::now() + self.config.recv_timeout;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(DistError::Timeout(format!(
                    "no queue progress within {:?} with {} chunk(s) outstanding",
                    self.config.recv_timeout,
                    self.chunks.len() - state.done
                )));
            }
            let (guard, _) = shared
                .cv
                .wait_timeout(state, deadline - now)
                .expect("queue mutex poisoned while waiting");
            state = guard;
        }
    }

    /// Settles a failed worker connection: re-queues its held chunks
    /// under the retry budget, or records the fatal error that ends the
    /// run. (A worker-reported `Sweep` failure arrives here with no held
    /// chunks — `serve_worker` already recorded it as fatal.)
    fn retire_worker(&self, shared: &Shared, held: Vec<usize>, error: DistError) {
        let mut state = self.lock(shared);
        for id in held {
            state.inflight[id] = state.inflight[id].saturating_sub(1);
            if state.reports[id].is_some() {
                continue;
            }
            let attempts = state.attempts[id];
            if attempts > self.config.retry_budget {
                state.fatal.get_or_insert(DistError::RetryExhausted {
                    chunk: id,
                    attempts,
                    last: error.to_string(),
                });
            } else {
                state.requeue_if_orphaned(id);
            }
        }
        shared.cv.notify_all();
    }
}

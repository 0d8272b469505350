//! The worker half: handshake, obtain the shared table, then evaluate
//! chunks until the coordinator says [`Frame::Drained`].
//!
//! The conversation is a value, `Worker`: each frame in gives the frames
//! to send back and, at the end, the worker's result. It owns no
//! transport, thread or clock; [`run_worker`] drives it over any
//! [`Transport`], the simulated network under virtual time.
//!
//! The `Welcome` carries the table's content fingerprint, the key of a
//! worker's [`TableStore`] cache: only on a miss are the bytes pulled
//! over the wire (and saved back). Shipped bytes are checked against the
//! fingerprint before they are parsed.

use session::{EvalSpec, SessionReport};
use workloads::{PerfTable, TableStore, WorkUnit};

use crate::proto::{Frame, PROTOCOL_VERSION};
use crate::transport::Transport;
use crate::DistError;

/// Worker-side knobs.
#[derive(Debug, Default)]
pub struct WorkerConfig {
    /// Threads for the in-chunk sweep fan-out; 0 (the default) uses the
    /// sweep builder's default (available parallelism).
    pub threads: usize,
    /// Fingerprint-keyed table cache; `None` always fetches the table
    /// over the wire.
    pub cache: Option<TableStore>,
}

/// What one worker did over one coordinator connection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerSummary {
    /// Chunks evaluated.
    pub chunks: usize,
    /// Sweep rows produced.
    pub rows: usize,
    /// True when the table came from the local cache instead of the
    /// wire.
    pub table_from_cache: bool,
    /// The shared table's content fingerprint.
    pub fingerprint: u64,
}

/// What a worker does after one frame: send these frames in order, then,
/// when a result is set, end the conversation with it.
pub(crate) type Step = (Vec<Frame>, Option<Result<WorkerSummary, DistError>>);

/// A [`Step`] that ends the conversation with `result`.
fn done(result: Result<WorkerSummary, DistError>) -> Step {
    (Vec::new(), Some(result))
}

/// One worker's side of the conversation as a state machine.
pub(crate) struct Worker<'a> {
    config: &'a WorkerConfig,
    /// The job announced by `Welcome`; `None` until it arrives.
    job: Option<(WorkUnit, EvalSpec)>,
    /// The shared table, once cached or shipped.
    table: Option<PerfTable>,
    summary: WorkerSummary,
}

impl<'a> Worker<'a> {
    /// A worker, and the [`Step`] that opens its conversation.
    pub(crate) fn new(config: &'a WorkerConfig) -> (Self, Step) {
        let worker = Worker {
            config,
            job: None,
            table: None,
            summary: WorkerSummary::default(),
        };
        let version = PROTOCOL_VERSION;
        (worker, (vec![Frame::Hello { version }], None))
    }

    /// Answers one frame from the coordinator.
    pub(crate) fn on(&mut self, frame: Frame) -> Step {
        match (self.job.is_some(), self.table.is_some(), frame) {
            (_, _, Frame::Error { message }) => done(Err(DistError::Remote(message))),
            (
                false,
                _,
                Frame::Welcome {
                    version: PROTOCOL_VERSION,
                    table_fingerprint,
                    unit,
                    spec,
                    ..
                },
            ) => self.welcome(table_fingerprint, unit, spec),
            (false, _, Frame::Welcome { version, .. }) => done(Err(DistError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: version,
            })),
            (true, false, Frame::TableBytes { bytes }) => self.table_bytes(bytes),
            (true, true, Frame::Chunk { id, workloads }) => self.evaluate(id, workloads),
            (true, true, Frame::Drained) => done(Ok(self.summary.clone())),
            (job, table, other) => {
                let expecting = match (job, table) {
                    (false, _) => "Welcome",
                    (true, false) => "TableBytes",
                    (true, true) => "Chunk or Drained",
                };
                done(Err(DistError::Protocol(format!(
                    "expected {expecting}, got {other:?}"
                ))))
            }
        }
    }

    fn welcome(&mut self, fingerprint: u64, unit: WorkUnit, spec: EvalSpec) -> Step {
        self.job = Some((unit, spec));
        self.summary.fingerprint = fingerprint;
        if let Some(cache) = &self.config.cache {
            self.table = cache.load_content(fingerprint);
            let lookup = match self.table {
                Some(_) => "dist.table_cache_hit",
                None => "dist.table_cache_miss",
            };
            obs::count!(lookup, 1);
        }
        self.summary.table_from_cache = self.table.is_some();
        let next = match self.table {
            Some(_) => Frame::FetchChunk,
            None => Frame::TableRequest,
        };
        (vec![next], None)
    }

    fn table_bytes(&mut self, bytes: Vec<u8>) -> Step {
        // Checked before parsing: only the announced table's bytes hash
        // to its fingerprint.
        let fingerprint = self.summary.fingerprint;
        let actual = PerfTable::content_fingerprint_of(&bytes);
        if actual != fingerprint {
            return done(Err(DistError::Protocol(format!(
                "table fingerprint mismatch: announced {fingerprint:#018x}, received {actual:#018x}"
            ))));
        }
        match PerfTable::from_bytes(&bytes) {
            Ok(table) => self.table = Some(table),
            Err(e) => {
                let unparsed = format!("table bytes did not parse: {e}");
                return done(Err(DistError::Protocol(unparsed)));
            }
        }
        // Caching is an optimisation; a full disk must not kill the sweep.
        if let Some(Err(e)) = self.config.cache.as_ref().map(|c| c.save_content(&bytes)) {
            let event = "dist.worker.table_cache_write_failed";
            obs::event!(Warn, event, "could not cache table: {e}");
        }
        (vec![Frame::FetchChunk], None)
    }

    fn evaluate(&mut self, id: u64, workloads: Vec<Vec<usize>>) -> Step {
        let (Some((unit, spec)), Some(table)) = (&self.job, &self.table) else {
            unreachable!("a chunk is only evaluated after the handshake");
        };
        let mut sweep = spec.sweep(table, *unit).workloads(workloads);
        if self.config.threads > 0 {
            sweep = sweep.threads(self.config.threads);
        }
        match sweep.run() {
            Ok(report) => {
                let reports: Vec<SessionReport> =
                    report.rows.into_iter().map(|row| row.report).collect();
                self.summary.chunks += 1;
                self.summary.rows += reports.len();
                (vec![Frame::Rows { id, reports }, Frame::FetchChunk], None)
            }
            // Evaluation is deterministic: report it and stop, since every
            // worker would fail the chunk the same way.
            Err(e) => {
                let message = e.to_string();
                let failed = Err(DistError::Sweep(message.clone()));
                (vec![Frame::Error { message }], Some(failed))
            }
        }
    }
}

/// Serves one coordinator connection to completion: handshake, table
/// acquisition, then chunk evaluation until [`Frame::Drained`].
///
/// # Errors
///
/// [`DistError::VersionMismatch`] when the coordinator speaks another
/// protocol version, [`DistError::Remote`] when it reports a fatal
/// error, [`DistError::Sweep`] when a chunk's evaluation fails (also
/// reported back over the wire before returning), and transport errors
/// when the coordinator goes away.
pub fn run_worker<T: Transport>(
    mut transport: T,
    config: &WorkerConfig,
) -> Result<WorkerSummary, DistError> {
    let (mut worker, mut step) = Worker::new(config);
    loop {
        let (frames, done) = step;
        for frame in &frames {
            if let Err(e) = transport.send(frame) {
                return done.unwrap_or(Err(e));
            }
        }
        if let Some(done) = done {
            return done;
        }
        step = worker.on(transport.recv()?);
    }
}

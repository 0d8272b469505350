//! The worker half: connect, handshake, obtain the shared table, then
//! pull chunks until the coordinator says [`Frame::Drained`].
//!
//! Table acquisition is dedup-aware: the coordinator's `Welcome` carries
//! the table's content fingerprint
//! ([`workloads::PerfTable::content_fingerprint`]), and a worker with a
//! [`TableStore`] cache first tries a fingerprint-keyed load — only on a
//! miss does it pull the bytes over the wire (and saves them back, so
//! the next sweep against the same table is a cache hit). Either way the
//! table the worker evaluates is verified against the fingerprint, so a
//! stale or mislabelled cache entry can never poison a sweep.

use std::time::Duration;

use session::SessionReport;
use workloads::{PerfTable, TableStore};

use crate::backoff::Backoff;
use crate::proto::{Frame, PROTOCOL_VERSION};
use crate::transport::{TcpTransport, Transport};
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
#[derive(Debug, Clone, PartialEq)]
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

/// Connects to a coordinator, retrying under capped exponential backoff
/// with seeded jitter until `patience` runs out — workers typically
/// start before the coordinator finishes building its table, so the
/// first connect may be early. The jitter decorrelates a fleet of
/// workers all retrying against the same address; the `seed` fixes the
/// schedule for reproducible tests.
///
/// # Errors
///
/// The last connection error once `patience` is spent.
pub fn connect_retry(addr: &str, patience: Duration, seed: u64) -> Result<TcpTransport, DistError> {
    let deadline = std::time::Instant::now() + patience;
    let mut backoff = Backoff::new(Duration::from_millis(50), Duration::from_secs(2), seed);
    loop {
        match TcpTransport::connect(addr) {
            Ok(t) => return Ok(t),
            Err(e) if std::time::Instant::now() >= deadline => return Err(e),
            Err(_) => backoff.sleep(),
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
    transport.send(&Frame::Hello {
        version: PROTOCOL_VERSION,
    })?;
    let (fingerprint, unit, spec) = match transport.recv()? {
        Frame::Welcome {
            version: PROTOCOL_VERSION,
            table_fingerprint,
            unit,
            spec,
            ..
        } => (table_fingerprint, unit, spec),
        Frame::Welcome { version, .. } => {
            return Err(DistError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: version,
            })
        }
        Frame::Error { message } => return Err(DistError::Remote(message)),
        other => {
            return Err(DistError::Protocol(format!(
                "expected Welcome, got {other:?}"
            )))
        }
    };

    let cached = config
        .cache
        .as_ref()
        .and_then(|c| c.load_content(fingerprint));
    let table_from_cache = cached.is_some();
    if config.cache.is_some() {
        if table_from_cache {
            obs::count!("dist.table_cache_hit", 1);
        } else {
            obs::count!("dist.table_cache_miss", 1);
        }
    }
    let table = match cached {
        Some(table) => table,
        None => {
            transport.send(&Frame::TableRequest)?;
            let bytes = match transport.recv()? {
                Frame::TableBytes { bytes } => bytes,
                Frame::Error { message } => return Err(DistError::Remote(message)),
                other => {
                    return Err(DistError::Protocol(format!(
                        "expected TableBytes, got {other:?}"
                    )))
                }
            };
            // Checked before parsing: only the announced table's bytes
            // hash to its fingerprint.
            let actual = PerfTable::content_fingerprint_of(&bytes);
            if actual != fingerprint {
                return Err(DistError::Protocol(format!(
                    "table fingerprint mismatch: announced {fingerprint:#018x}, received {actual:#018x}"
                )));
            }
            let table = PerfTable::from_bytes(&bytes)
                .map_err(|e| DistError::Protocol(format!("table bytes did not parse: {e}")))?;
            if let Some(cache) = &config.cache {
                // Cache persistence is an optimisation; a full disk must
                // not kill the sweep.
                if let Err(e) = cache.save_content(&table) {
                    obs::event!(
                        Warn,
                        "dist.worker.table_cache_write_failed",
                        "could not cache table: {e}"
                    );
                }
            }
            table
        }
    };

    let mut summary = WorkerSummary {
        chunks: 0,
        rows: 0,
        table_from_cache,
        fingerprint,
    };
    loop {
        transport.send(&Frame::FetchChunk)?;
        match transport.recv()? {
            Frame::Chunk { id, workloads } => {
                let mut sweep = spec.sweep(&table, unit).workloads(workloads);
                if config.threads > 0 {
                    sweep = sweep.threads(config.threads);
                }
                match sweep.run() {
                    Ok(report) => {
                        let reports: Vec<SessionReport> =
                            report.rows.into_iter().map(|row| row.report).collect();
                        summary.chunks += 1;
                        summary.rows += reports.len();
                        transport.send(&Frame::Rows { id, reports })?;
                    }
                    Err(e) => {
                        let error = DistError::Sweep(e.to_string());
                        let _ = transport.send(&Frame::Error {
                            message: e.to_string(),
                        });
                        return Err(error);
                    }
                }
            }
            Frame::Drained => return Ok(summary),
            Frame::Error { message } => return Err(DistError::Remote(message)),
            other => {
                return Err(DistError::Protocol(format!(
                    "expected Chunk or Drained, got {other:?}"
                )))
            }
        }
    }
}

//! Distributed sweeps: a sharded coordinator over [`session::Session::sweep`]
//! with a deterministic merge and fault-tolerant workers.
//!
//! The ROADMAP's "heavy traffic" lever: the 125 969-combo N=12/K=8
//! measurement sweep does not fit one machine's patience, but every sweep
//! row is an independent evaluation under identical per-workload knobs —
//! so sharding the workload list and merging shard reports in order
//! reproduces the single-process [`session::SweepReport`] *bitwise*. That
//! reproducibility guarantee (partitioning must never change results) is
//! this crate's first-class design constraint; the parity tests pin it,
//! including under injected mid-sweep worker failure.
//!
//! # Architecture
//!
//! * [`proto`] — the versioned, checksummed wire protocol (below).
//! * [`transport`] — a byte-faithful [`Transport`] abstraction:
//!   [`TcpTransport`] over std TCP, and an in-process [`loopback_pair`]
//!   that runs the *same encode/decode path* through a channel, so every
//!   protocol path is unit-testable without sockets.
//! * [`chaos`] — [`ChaosTransport`]: seeded deterministic fault
//!   injection (drop / delay / duplicate / corrupt / hang / crash) over
//!   any inner transport, TCP and loopback alike; the engine behind the
//!   failure-mode tests and the `paperbench chaos` storm.
//! * [`backoff`] — [`Backoff`]: the capped-exponential, seeded-jitter
//!   retry schedule shared by worker reconnects and the coordinator's
//!   accept poll.
//! * [`coordinator`] — [`Coordinator`]: splits the workload list into
//!   consecutive chunks, hands them out pull-based (work-queue style, so
//!   fast workers take more), re-queues chunks on worker
//!   disconnect/timeout under a bounded retry budget, strikes and
//!   quarantines connections that talk garbage, optionally hedges
//!   straggler chunks to idle workers, and reassembles rows in original
//!   workload order via [`session::SweepReport::merge`].
//! * [`worker`] — [`run_worker`]: connect, handshake, obtain the table
//!   (fingerprint-keyed [`workloads::TableStore`] cache hit, or bytes
//!   over the wire), then pull chunks until drained.
//!
//! # Failure-mode matrix
//!
//! What each injected (or real) fault looks like end to end. "Parity"
//! means the merged report stays bitwise-identical to the
//! single-process sweep — every recovery path below preserves it, since
//! duplicates are discarded by chunk id and chunk order fixes the merge.
//!
//! | fault | detection | recovery | user-visible outcome |
//! |-------|-----------|----------|----------------------|
//! | worker crash (hangup) | coordinator recv → `Disconnected` | held chunks re-queued under [`DistConfig::retry_budget`] | run completes on surviving workers; `requeues` counted |
//! | worker hang (silence) | coordinator recv → `Timeout` after [`DistConfig::recv_timeout`] | chunks re-queued; with [`DistConfig::hedge`] an idle worker re-runs the straggler sooner | run completes; `hedges`/`requeues` counted |
//! | corrupt frame | checksum/length check → `Protocol` | strike: held chunks re-queued, connection keeps serving; quarantined past [`DistConfig::quarantine_limit`] | run completes; `strikes` counted |
//! | dropped answer | worker asks for work while its chunk is open | coordinator re-sends the chunk to the same connection (budget-bounded) | run completes; `hedges` counted |
//! | duplicated frame | answer for an already-complete chunk | first answer wins, copy discarded by chunk id | run completes; `duplicates` counted |
//! | version skew | `Hello`/`Welcome` version check | connection rejected with an `Error` frame, fleet keeps serving | [`DistError::VersionMismatch`] on the skewed worker only |
//! | deterministic sweep failure | worker reports an `Error` frame | none — retrying would fail identically | [`DistError::Sweep`] aborts the run |
//! | chunk keeps failing | attempts exceed [`DistConfig::retry_budget`] | none | [`DistError::RetryExhausted`] names the chunk |
//! | every worker gone | scope drains with work outstanding | none | [`DistError::Incomplete`] with the remaining count |
//! | coordinator gone | worker recv → `Disconnected`/`Timeout` | worker reconnects under [`Backoff`] (CLI service mode) | worker exits cleanly after its last served sweep |
//!
//! # Wire protocol
//!
//! Every frame is length-prefixed and checksummed, and written and read
//! with [`workloads::codec`], the one codec the `SYMBPERF` table file also
//! uses. All integers are little-endian; all `f64` travel as
//! [`f64::to_bits`] so no value is perturbed in transit (part of the
//! bitwise-parity guarantee).
//!
//! ```text
//! frame := len:u32  body:[len bytes]  checksum:u64
//! body  := kind:u8  payload
//! ```
//!
//! `checksum` is FNV-1a 64 over `body`. A frame longer than
//! [`proto::MAX_FRAME_LEN`], a checksum mismatch, a truncated field, a
//! count of items the bytes left cannot hold, a trailing-byte surplus, or
//! an unknown `kind` all decode to [`DistError::Protocol`]. No count sizes
//! an allocation before the codec has checked it against the bytes left.
//!
//! ## Version handshake
//!
//! The worker speaks first: `Hello { version }`. The coordinator answers
//! `Welcome { version, table fingerprint, unit of work, spec, workload count }`
//! only when the versions match ([`proto::PROTOCOL_VERSION`]); otherwise
//! it answers an `Error` frame and drops the connection, and both sides
//! surface [`DistError::VersionMismatch`].
//!
//! ## Frames
//!
//! | kind | frame          | direction | payload |
//! |------|----------------|-----------|---------|
//! | 1    | `Hello`        | w → c     | protocol version |
//! | 2    | `Welcome`      | c → w     | version, table content fingerprint, policy names, unit of work, the rest of the [`session::EvalSpec`], total workload count |
//! | 3    | `TableRequest` | w → c     | — (cache miss: please ship the table) |
//! | 4    | `TableBytes`   | c → w     | canonical `SYMBPERF` bytes of the shared table |
//! | 5    | `FetchChunk`   | w → c     | — (pull-based work request) |
//! | 6    | `Chunk`        | c → w     | chunk id + workload index vectors |
//! | 7    | `Rows`         | w → c     | chunk id + serialized [`session::SessionReport`] per workload |
//! | 8    | `Drained`      | c → w     | — (no work left; disconnect cleanly) |
//! | 9    | `Error`        | both      | human-readable fatal error |
//!
//! ## Error frames
//!
//! `Error` is terminal in both directions. A worker sends it when a
//! chunk's evaluation fails *deterministically* (a
//! [`session::SweepError`] — retrying elsewhere would fail identically),
//! and the coordinator aborts the whole sweep rather than retry. The
//! coordinator sends it on version mismatch or when another worker
//! already surfaced a fatal error. Transport-level failures (disconnect,
//! timeout) are *not* error frames; the coordinator treats those as
//! worker loss and re-queues the held chunk under the retry budget.
//!
//! # Example
//!
//! Shard a sweep over three in-process workers (see
//! `examples/distributed_sweep.rs` for the full 495-mix version):
//!
//! ```no_run
//! use dist::{Coordinator, DistConfig, TcpTransport, WorkerConfig};
//! use session::{Policy, Session};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let table: workloads::PerfTable = unimplemented!();
//! let sweep = Session::sweep()
//!     .table(&table)
//!     .workloads(symbiosis::enumerate_workloads(12, 4))
//!     .policies([Policy::Worst, Policy::FcfsEvent, Policy::Optimal]);
//! let coordinator = Coordinator::from_sweep(sweep, DistConfig::default())?;
//! let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
//! let addr = listener.local_addr()?;
//! let workers: Vec<_> = (0..3)
//!     .map(|_| {
//!         std::thread::spawn(move || {
//!             let transport = TcpTransport::connect(&addr.to_string())?;
//!             dist::run_worker(transport, &WorkerConfig::default())
//!         })
//!     })
//!     .collect();
//! let outcome = coordinator.serve_listener(&listener, 3)?;
//! println!("{}", outcome.report); // bitwise equal to sweep.run()?
//! # Ok(())
//! # }
//! ```

use std::fmt;

pub mod backoff;
pub mod chaos;
pub mod coordinator;
pub mod proto;
pub mod transport;
pub mod worker;

pub use backoff::Backoff;
pub use chaos::{ChaosPlan, ChaosStats, ChaosTransport};
pub use coordinator::{Coordinator, DistConfig, DistOutcome, WorkerLog};
pub use proto::{Frame, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use transport::{loopback_pair, loopback_pair_with_chaos, TcpTransport, Transport};
pub use worker::{run_worker, WorkerConfig, WorkerSummary};

/// Everything that can go wrong in a distributed sweep, on either side of
/// the wire.
///
/// `Clone` so the coordinator can record one fatal error and surface it
/// from every worker-serving thread.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// An I/O failure that is not a timeout or disconnect.
    Io(String),
    /// The peer did not produce a frame within the configured read
    /// timeout. The coordinator treats this as worker loss.
    Timeout(String),
    /// The peer hung up (EOF, reset, broken pipe, injected fault).
    Disconnected(String),
    /// The byte stream violated the wire protocol: bad checksum,
    /// oversized frame, unknown kind, truncated or trailing payload, or a
    /// frame that is valid but unexpected in the current state.
    Protocol(String),
    /// The two sides speak different protocol versions.
    VersionMismatch {
        /// Our [`PROTOCOL_VERSION`].
        ours: u32,
        /// What the peer announced.
        theirs: u32,
    },
    /// The sweep configuration is invalid (empty workloads, unknown
    /// policy, missing table) — reported before any worker sees the job.
    Config(String),
    /// A chunk's evaluation failed deterministically on a worker; the
    /// sweep aborts without retry (every worker would fail identically).
    Sweep(String),
    /// The peer reported a fatal error frame.
    Remote(String),
    /// One chunk exhausted its retry budget.
    RetryExhausted {
        /// Index of the failing chunk.
        chunk: usize,
        /// Hand-out attempts made (initial + retries).
        attempts: usize,
        /// The last transport error that consumed the budget.
        last: String,
    },
    /// Every worker disconnected while work was still outstanding.
    Incomplete {
        /// Chunks not yet completed.
        remaining: usize,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Io(m) => write!(f, "i/o: {m}"),
            DistError::Timeout(m) => write!(f, "timed out: {m}"),
            DistError::Disconnected(m) => write!(f, "peer disconnected: {m}"),
            DistError::Protocol(m) => write!(f, "protocol violation: {m}"),
            DistError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {ours}, peer {theirs}")
            }
            DistError::Config(m) => write!(f, "sweep configuration: {m}"),
            DistError::Sweep(m) => write!(f, "sweep evaluation failed: {m}"),
            DistError::Remote(m) => write!(f, "peer reported: {m}"),
            DistError::RetryExhausted {
                chunk,
                attempts,
                last,
            } => write!(
                f,
                "chunk {chunk} failed on {attempts} worker(s), retry budget exhausted; last error: {last}"
            ),
            DistError::Incomplete { remaining } => write!(
                f,
                "all workers disconnected with {remaining} chunk(s) outstanding"
            ),
        }
    }
}

impl std::error::Error for DistError {}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => DistError::Timeout(e.to_string()),
            ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe => DistError::Disconnected(e.to_string()),
            _ => DistError::Io(e.to_string()),
        }
    }
}

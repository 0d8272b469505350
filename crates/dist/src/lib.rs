//! Distributed sweeps: a sharded coordinator over [`session::Session::sweep`]
//! with a deterministic merge and fault-tolerant workers.
//!
//! Sweep rows are independent evaluations, so sharding the workload list
//! and merging shard reports in order reproduces the single-process
//! [`session::SweepReport`] *bitwise*. Partitioning never changes results:
//! the parity tests pin it, under injected faults too.
//!
//! # Architecture
//!
//! * [`proto`] — the versioned, checksummed wire protocol (below).
//! * [`coordinator`] — [`Coordinator`]: consecutive chunks, and the whole
//!   policy (handshake, pull dispatch, strikes and quarantine, requeues
//!   under a retry budget, hedging, first-answer-wins merge, deadlines)
//!   as one sans-IO state machine that owns no thread, lock or clock.
//! * [`worker`] — the worker's conversation as a second state machine
//!   (table from the fingerprint-keyed [`workloads::TableStore`] cache or
//!   the wire, then chunks until drained); [`run_worker`] drives it.
//! * [`transport`] — [`TcpTransport`] and an in-process [`loopback_pair`]
//!   that runs the same encode/decode path through a channel.
//!   [`Coordinator::run`] drives the coordinator over any [`Transport`]s:
//!   one thread owns the machine, one reader thread per connection.
//! * [`chaos`] — [`Coordinator::simulate`]: both machines on one thread,
//!   on a seeded virtual-time network whose link ends apply a
//!   [`ChaosPlan`] (drop / delay / duplicate / corrupt / hang / crash).
//!   Fault runs replay exactly and never wait out a real timeout.
//! * [`backoff`] — [`Backoff`]: capped-exponential, seeded-jitter retries
//!   for worker reconnects and the coordinator's accept poll.
//!
//! # Failure-mode matrix
//!
//! What each injected (or real) fault looks like end to end. Every
//! recovery path keeps the merged report bitwise identical to the
//! single-process sweep, since duplicates are discarded by chunk id and
//! chunk order fixes the merge.
//!
//! | fault | detection | recovery | user-visible outcome |
//! |-------|-----------|----------|----------------------|
//! | worker crash (hangup) | the link reports a disconnect | held chunks re-queued under [`DistConfig::retry_budget`] | run completes on surviving workers; `requeues` counted |
//! | worker hang (silence) | the connection's deadline, [`DistConfig::recv_timeout`] after its last frame | chunks re-queued; with [`DistConfig::hedge`] an idle worker re-runs the straggler sooner | run completes; `hedges`/`requeues` counted |
//! | corrupt frame | checksum/length check → `Protocol` | strike: held chunks re-queued, connection keeps serving; quarantined past [`DistConfig::quarantine_limit`] | run completes; `strikes` counted |
//! | dropped answer | worker asks for work while its chunk is open | the chunk is re-sent on the same connection (budget-bounded) | run completes; `hedges` counted |
//! | duplicated frame | answer for an already-complete chunk | first answer wins, copy discarded by chunk id | run completes; `duplicates` counted |
//! | version skew | `Hello`/`Welcome` version check | connection rejected with an `Error` frame, fleet keeps serving | [`DistError::VersionMismatch`] on the skewed worker only |
//! | deterministic sweep failure | worker reports an `Error` frame | none — retrying would fail identically | [`DistError::Sweep`] aborts the run |
//! | chunk keeps failing | attempts exceed [`DistConfig::retry_budget`] | none | [`DistError::RetryExhausted`] names the chunk |
//! | every worker gone | all connections closed with work outstanding | none | [`DistError::Incomplete`] with the remaining count |
//! | coordinator gone | worker recv → `Disconnected`/`Timeout` | worker reconnects under [`Backoff`] (CLI service mode) | worker exits cleanly after its last served sweep |
//!
//! # Wire protocol
//!
//! Every frame is length-prefixed and checksummed, and written and read
//! with [`workloads::codec`], the codec the `SYMBPERF` table file also
//! uses. Integers are little-endian and every `f64` travels as
//! [`f64::to_bits`], so no value is perturbed in transit.
//!
//! ```text
//! frame := len:u32  body:[len bytes]  checksum:u64
//! body  := kind:u8  payload
//! ```
//!
//! `checksum` is FNV-1a 64 over `body`. An oversized frame
//! ([`proto::MAX_FRAME_LEN`]), a bad checksum, a truncated field, an
//! impossible count, trailing bytes or an unknown `kind` all decode to
//! [`DistError::Protocol`]. The worker speaks first; `Welcome` comes only
//! when the versions match ([`proto::PROTOCOL_VERSION`]). `Error` is
//! terminal both ways: a worker sends it when a chunk's evaluation fails
//! deterministically, the coordinator on version mismatch or once the
//! run is lost. Transport failures are worker loss, not error frames.
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
//! # Example
//!
//! A sweep over three simulated workers, the first of which crashes
//! holding a chunk. Over TCP, [`Coordinator::serve_listener`] and one
//! [`run_worker`] per worker do the same (see
//! `examples/distributed_sweep.rs`).
//!
//! ```no_run
//! use dist::{ChaosPlan, Coordinator, DistConfig, Link, WorkerConfig};
//! use session::{Policy, Session};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let table: workloads::PerfTable = unimplemented!();
//! let sweep = || {
//!     Session::sweep()
//!         .table(&table)
//!         .workloads(symbiosis::enumerate_workloads(12, 4))
//!         .policies([Policy::Worst, Policy::FcfsEvent, Policy::Optimal])
//! };
//! let coordinator = Coordinator::from_sweep(sweep(), DistConfig::default())?;
//! let crash = Link { worker: ChaosPlan::crash_after(6), ..Link::default() };
//! let links = [crash, Link::default(), Link::default()];
//! let run = coordinator.simulate(&links, &WorkerConfig::default());
//! assert_eq!(run.outcome?.report, sweep().run()?); // bitwise
//! assert_eq!(run.faults[0].crashed, 1);
//! # Ok(())
//! # }
//! ```

use std::fmt;

pub mod backoff;
pub mod chaos;
pub mod coordinator;
pub mod proto;
mod threaded;
pub mod transport;
pub mod worker;

pub use backoff::Backoff;
pub use chaos::{ChaosPlan, ChaosStats, Link, Simulation};
pub use coordinator::{Coordinator, DistConfig, DistOutcome, WorkerLog};
pub use proto::{Frame, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use transport::{connect_retry, loopback_pair, TcpTransport, Transport};
pub use worker::{run_worker, WorkerConfig, WorkerSummary};

/// Everything that can go wrong in a distributed sweep, on either side of
/// the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// An I/O failure that is not a timeout or disconnect.
    Io(String),
    /// No frame arrived within the read timeout (to the coordinator: a
    /// lost worker).
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

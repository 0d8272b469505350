//! The coordinator over real [`Transport`]s: one thread owns the
//! [`Machine`] and the clock; one reader thread per connection forwards
//! what it receives, then sends the machine's answer before reading
//! again, so a parked `FetchChunk` just leaves its reader waiting.

use std::net::TcpListener;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use crate::backoff::Backoff;
use crate::coordinator::{Coordinator, DistOutcome, Machine, Output};
use crate::proto::Frame;
use crate::transport::{TcpTransport, Transport};
use crate::DistError;

/// How long [`Coordinator::serve_listener`] waits for the expected number
/// of workers to connect.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(60);

/// What a reader forwards: its connection and what the link delivered.
type Delivery = (usize, Result<Frame, DistError>);

/// The machine's answer to a reader: frames to send, then whether to close.
type Reply = (Vec<Frame>, bool);

impl Coordinator {
    /// Runs the sweep over an explicit set of connected transports (one
    /// per worker), blocking until every connection closed. TCP callers
    /// use [`Coordinator::serve_tcp`] / [`Coordinator::serve_listener`].
    /// Every transport's read timeout is set to
    /// [`crate::DistConfig::recv_timeout`] first, so a reader blocked on a
    /// silent worker returns about when the coordinator writes it off.
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
            transport.set_recv_timeout(self.config.recv_timeout)?;
        }
        let peers = workers.iter().map(Transport::peer).collect();
        let ctx = obs::current();
        self.conduct(peers, |machine| {
            std::thread::scope(|scope| {
                let (inbox_tx, inbox) = mpsc::channel();
                let mut replies: Vec<Option<Sender<Reply>>> = workers
                    .into_iter()
                    .enumerate()
                    .map(|(conn, transport)| {
                        let (reply_tx, reply_rx) = mpsc::channel();
                        let inbox = inbox_tx.clone();
                        let ctx = ctx.clone();
                        scope.spawn(move || {
                            let _obs = obs::install_current(&ctx);
                            read_connection(conn, transport, &inbox, &reply_rx);
                        });
                        Some(reply_tx)
                    })
                    .collect();
                drop(inbox_tx);
                drive(machine, &inbox, &mut replies);
                // Dropping the remaining reply channels releases every
                // reader still waiting for an answer.
            });
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
        let (base, cap) = (Duration::from_millis(1), Duration::from_millis(50));
        let mut backoff = Backoff::new(base, cap, self.fingerprint);
        let mut transports = Vec::with_capacity(nworkers);
        while transports.len() < nworkers {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    transports.push(TcpTransport::from_stream(stream, self.config.recv_timeout)?);
                    backoff.reset();
                }
                Err(e) if e.kind() != std::io::ErrorKind::WouldBlock => return Err(e.into()),
                Err(_) if Instant::now() < deadline => backoff.sleep(),
                Err(_) => {
                    let connected = transports.len();
                    return Err(DistError::Timeout(format!(
                        "only {connected} of {nworkers} workers connected within {ACCEPT_TIMEOUT:?}"
                    )));
                }
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
}

/// Feeds `machine` from the inbox and the wall clock until every
/// connection closed. An event's answers go to the readers awaiting them:
/// its own connection's (unless it parked) and any it unparked.
fn drive(
    machine: &mut Machine<'_>,
    inbox: &Receiver<Delivery>,
    replies: &mut [Option<Sender<Reply>>],
) {
    let started = Instant::now();
    while let Some(deadline) = machine.deadline() {
        let wait = deadline.saturating_sub(started.elapsed());
        let (event_conn, outputs) = match inbox.recv_timeout(wait) {
            Ok((conn, input)) => (Some(conn), machine.on(started.elapsed(), conn, input)),
            Err(RecvTimeoutError::Timeout) => (None, machine.tick(started.elapsed())),
            // Every reader is gone, so every connection already closed.
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let mut batch: Vec<Option<Reply>> = vec![None; replies.len()];
        if let Some(conn) = event_conn.filter(|&c| !machine.parked(c)) {
            batch[conn] = Some(Reply::default());
        }
        for output in outputs {
            match output {
                Output::Send(conn, frame) => batch[conn].get_or_insert_default().0.push(frame),
                Output::Close(conn) => batch[conn].get_or_insert_default().1 = true,
            }
        }
        for (conn, reply) in batch.into_iter().enumerate() {
            if let (Some(reply), Some(tx)) = (reply, &replies[conn]) {
                let close = reply.1;
                // A reader that already left needs no answer.
                let _ = tx.send(reply);
                if close {
                    replies[conn] = None;
                }
            }
        }
    }
}

/// One connection's reader: forwards what it receives, sends the machine's
/// answer, and repeats until the machine hangs up or the link fails.
fn read_connection<T: Transport>(
    conn: usize,
    mut transport: T,
    inbox: &Sender<Delivery>,
    replies: &Receiver<Reply>,
) {
    loop {
        let input = transport.recv();
        // Only a protocol error (a strike) leaves the link usable.
        let lost = matches!(&input, Err(e) if !matches!(e, DistError::Protocol(_)));
        if inbox.send((conn, input)).is_err() || lost {
            return;
        }
        let Ok((frames, close)) = replies.recv() else {
            return;
        };
        for frame in &frames {
            if let Err(e) = transport.send(frame) {
                let _ = inbox.send((conn, Err(e)));
                return;
            }
        }
        if close {
            return;
        }
    }
}

//! Byte-faithful frame transports: std TCP and an in-process loopback.
//!
//! Both implementations move the *same* wire image ([`Frame::encode`] /
//! [`Frame::decode_wire`]): the loopback pair is not a shortcut around
//! serialization, it is TCP minus the socket — which is what lets the
//! protocol tests (including checksum, version and fault paths) run
//! without binding ports, and lets a [`ChaosTransport`] wrapper kill a
//! "worker" mid-conversation deterministically (see [`crate::chaos`]).

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::Duration;

use crate::chaos::{ChaosPlan, ChaosTransport};
use crate::proto::{Frame, MAX_FRAME_LEN};
use crate::DistError;

/// Books one frame crossing this end into the current [`obs`] recorder
/// (no-op without one). Both concrete transports call it with the full
/// wire-image length, so `dist.bytes_*` counts exactly what TCP would
/// put on the network.
fn record_wire(sent: bool, bytes: usize) {
    if let Some(rec) = obs::current() {
        if sent {
            rec.counter("dist.frames_sent").add(1);
            rec.counter("dist.bytes_sent").add(bytes as u64);
        } else {
            rec.counter("dist.frames_received").add(1);
            rec.counter("dist.bytes_received").add(bytes as u64);
        }
    }
}

/// A bidirectional frame pipe. `send` must deliver the frame's full wire
/// image or fail; `recv` must return exactly one decoded frame or fail.
pub trait Transport {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`DistError::Disconnected`] / [`DistError::Io`] when the peer is
    /// gone or the pipe breaks.
    fn send(&mut self, frame: &Frame) -> Result<(), DistError>;

    /// Receives the next frame, blocking up to the transport's read
    /// timeout.
    ///
    /// # Errors
    ///
    /// [`DistError::Timeout`] when no frame arrives in time,
    /// [`DistError::Disconnected`] on EOF, [`DistError::Protocol`] on
    /// malformed bytes.
    fn recv(&mut self) -> Result<Frame, DistError>;

    /// How long `recv` blocks before reporting [`DistError::Timeout`]
    /// (`Duration::MAX` when it blocks indefinitely).
    fn recv_timeout(&self) -> Duration;

    /// Sets how long `recv` blocks before reporting
    /// [`DistError::Timeout`]. [`crate::Coordinator::run`] caps every
    /// transport it serves at [`crate::DistConfig::recv_timeout`] through
    /// this.
    ///
    /// # Errors
    ///
    /// [`DistError::Io`] when the transport cannot take the timeout (TCP
    /// rejects a zero duration).
    fn set_recv_timeout(&mut self, timeout: Duration) -> Result<(), DistError>;

    /// Human-readable peer label for error messages and accounting.
    fn peer(&self) -> String {
        "peer".into()
    }
}

// --- TCP -----------------------------------------------------------------

/// A [`Transport`] over one `std::net::TcpStream`.
pub struct TcpTransport {
    stream: TcpStream,
    peer: String,
}

impl TcpTransport {
    /// Connects to a coordinator (or accepts a worker: see
    /// [`TcpTransport::from_stream`]) with the default 120 s read
    /// timeout.
    ///
    /// # Errors
    ///
    /// [`DistError::Io`] when the address does not resolve or the
    /// connection is refused.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, DistError> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream, Duration::from_secs(120))
    }

    /// Wraps an accepted or connected stream, disabling Nagle (frames are
    /// request/response sized) and applying `read_timeout`.
    ///
    /// # Errors
    ///
    /// [`DistError::Io`] when the socket options cannot be set.
    pub fn from_stream(stream: TcpStream, read_timeout: Duration) -> Result<Self, DistError> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "tcp peer".into());
        Ok(TcpTransport { stream, peer })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &Frame) -> Result<(), DistError> {
        let wire = frame.encode();
        self.stream.write_all(&wire)?;
        record_wire(true, wire.len());
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, DistError> {
        let mut len_buf = [0u8; 4];
        self.stream.read_exact(&mut len_buf)?;
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > MAX_FRAME_LEN {
            return Err(DistError::Protocol(format!(
                "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"
            )));
        }
        let mut wire = vec![0u8; 4 + len + 8];
        wire[..4].copy_from_slice(&len_buf);
        self.stream.read_exact(&mut wire[4..])?;
        record_wire(false, wire.len());
        Frame::decode_wire(&wire)
    }

    fn recv_timeout(&self) -> Duration {
        match self.stream.read_timeout() {
            Ok(Some(timeout)) => timeout,
            _ => Duration::MAX,
        }
    }

    fn set_recv_timeout(&mut self, timeout: Duration) -> Result<(), DistError> {
        self.stream.set_read_timeout(Some(timeout))?;
        Ok(())
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

// --- loopback ------------------------------------------------------------

/// One end of an in-process frame pipe. Frames are fully encoded to
/// their wire image on `send` and decoded on `recv`, so the loopback
/// exercises the identical byte path as TCP.
pub struct LoopbackTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    recv_timeout: Duration,
    label: String,
}

/// An in-process transport pair (coordinator end, worker end) with a
/// generous read timeout.
pub fn loopback_pair() -> (LoopbackTransport, LoopbackTransport) {
    let (a_tx, b_rx) = mpsc::channel();
    let (b_tx, a_rx) = mpsc::channel();
    let coordinator = LoopbackTransport {
        tx: a_tx,
        rx: a_rx,
        recv_timeout: Duration::from_secs(120),
        label: "loopback worker".into(),
    };
    let worker = LoopbackTransport {
        tx: b_tx,
        rx: b_rx,
        recv_timeout: Duration::from_secs(120),
        label: "loopback coordinator".into(),
    };
    (coordinator, worker)
}

/// An in-process transport pair whose *second* (worker) end injects the
/// faults of `plan`. The coordinator end never fails on its own; it
/// observes an injected crash as a disconnect (like a real dropped
/// socket) and an injected hang as a read timeout.
pub fn loopback_pair_with_chaos(
    plan: ChaosPlan,
) -> (LoopbackTransport, ChaosTransport<LoopbackTransport>) {
    let (coordinator, worker) = loopback_pair();
    (coordinator, ChaosTransport::new(worker, plan))
}

impl LoopbackTransport {
    /// Overrides the read timeout (default 120 s).
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }
}

impl Transport for LoopbackTransport {
    fn send(&mut self, frame: &Frame) -> Result<(), DistError> {
        let wire = frame.encode();
        let bytes = wire.len();
        self.tx
            .send(wire)
            .map_err(|_| DistError::Disconnected("loopback peer dropped its receiver".into()))?;
        record_wire(true, bytes);
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, DistError> {
        let wire = match self.rx.recv_timeout(self.recv_timeout) {
            Ok(wire) => wire,
            Err(RecvTimeoutError::Timeout) => {
                // Distinguish "peer is slow" from "peer is gone": a
                // disconnected channel with no pending frames reports
                // Disconnected on the next try_recv.
                return match self.rx.try_recv() {
                    Ok(wire) => {
                        record_wire(false, wire.len());
                        Frame::decode_wire(&wire)
                    }
                    Err(TryRecvError::Disconnected) => Err(DistError::Disconnected(
                        "loopback peer dropped its sender".into(),
                    )),
                    Err(TryRecvError::Empty) => Err(DistError::Timeout(format!(
                        "no frame within {:?}",
                        self.recv_timeout
                    ))),
                };
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(DistError::Disconnected(
                    "loopback peer dropped its sender".into(),
                ))
            }
        };
        record_wire(false, wire.len());
        Frame::decode_wire(&wire)
    }

    fn recv_timeout(&self) -> Duration {
        self.recv_timeout
    }

    fn set_recv_timeout(&mut self, timeout: Duration) -> Result<(), DistError> {
        self.recv_timeout = timeout;
        Ok(())
    }

    fn peer(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn loopback_moves_frames_both_ways() {
        let (mut c, mut w) = loopback_pair();
        w.send(&Frame::Hello { version: 1 }).unwrap();
        assert_eq!(c.recv().unwrap(), Frame::Hello { version: 1 });
        c.send(&Frame::Drained).unwrap();
        assert_eq!(w.recv().unwrap(), Frame::Drained);
    }

    #[test]
    fn loopback_recv_times_out_when_the_peer_is_alive_but_silent() {
        let (c, _w) = loopback_pair();
        let mut c = c.with_recv_timeout(Duration::from_millis(10));
        assert!(matches!(c.recv(), Err(DistError::Timeout(_))));
    }

    #[test]
    fn recv_timeouts_are_settable_on_every_transport() {
        let (c, w) = loopback_pair_with_chaos(ChaosPlan::default());
        let mut c: Box<dyn Transport> = Box::new(c);
        let mut w: Box<dyn Transport> = Box::new(w);
        assert_eq!(c.recv_timeout(), Duration::from_secs(120));
        c.set_recv_timeout(Duration::from_millis(10)).unwrap();
        assert_eq!(c.recv_timeout(), Duration::from_millis(10));
        assert!(matches!(c.recv(), Err(DistError::Timeout(_))));
        // The chaos end forwards to the loopback end it wraps.
        w.set_recv_timeout(Duration::from_millis(10)).unwrap();
        assert_eq!(w.recv_timeout(), Duration::from_millis(10));
        assert!(matches!(w.recv(), Err(DistError::Timeout(_))));

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut tcp = TcpTransport::from_stream(client, Duration::from_secs(120)).unwrap();
        assert_eq!(tcp.recv_timeout(), Duration::from_secs(120));
        // Socket timeouts round to kernel ticks; 100 ms is whole on any.
        tcp.set_recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(tcp.recv_timeout(), Duration::from_millis(100));
        assert!(tcp.set_recv_timeout(Duration::ZERO).is_err());
    }

    #[test]
    fn tcp_round_trips_a_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut t = TcpTransport::connect(addr).unwrap();
            t.send(&Frame::Hello { version: 7 }).unwrap();
            t.recv().unwrap()
        });
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpTransport::from_stream(stream, Duration::from_secs(5)).unwrap();
        assert_eq!(server.recv().unwrap(), Frame::Hello { version: 7 });
        server
            .send(&Frame::Error {
                message: "bye".into(),
            })
            .unwrap();
        assert_eq!(
            client.join().unwrap(),
            Frame::Error {
                message: "bye".into()
            }
        );
    }

    #[test]
    fn tcp_hangup_reads_as_disconnected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || TcpStream::connect(addr).unwrap());
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpTransport::from_stream(stream, Duration::from_secs(5)).unwrap();
        drop(client.join().unwrap());
        assert!(matches!(server.recv(), Err(DistError::Disconnected(_))));
    }
}

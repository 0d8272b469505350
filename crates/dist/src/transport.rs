//! Byte-faithful frame transports: std TCP and an in-process loopback.
//!
//! Both move the *same* wire image ([`Frame::encode`] /
//! [`Frame::decode_wire`]): the loopback pair is TCP minus the socket, so
//! protocol tests run every byte path without binding ports.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use crate::backoff::Backoff;
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

    /// Sets how long `recv` blocks before reporting
    /// [`DistError::Timeout`]. [`crate::Coordinator::run`] sets every
    /// transport it serves to [`crate::DistConfig::recv_timeout`].
    ///
    /// # Errors
    ///
    /// [`DistError::Io`] when the transport cannot take the timeout (TCP
    /// rejects a zero duration).
    fn set_recv_timeout(&mut self, timeout: Duration) -> Result<(), DistError>;

    /// Human-readable peer label for error messages and accounting.
    fn peer(&self) -> String;
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

    fn set_recv_timeout(&mut self, timeout: Duration) -> Result<(), DistError> {
        self.stream.set_read_timeout(Some(timeout))?;
        Ok(())
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
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
    let deadline = Instant::now() + patience;
    let mut backoff = Backoff::new(Duration::from_millis(50), Duration::from_secs(2), seed);
    loop {
        match TcpTransport::connect(addr) {
            Ok(t) => return Ok(t),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => backoff.sleep(),
        }
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
        let wire = self
            .rx
            .recv_timeout(self.recv_timeout)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => {
                    DistError::Timeout(format!("no frame within {:?}", self.recv_timeout))
                }
                RecvTimeoutError::Disconnected => {
                    DistError::Disconnected("loopback peer dropped its sender".into())
                }
            })?;
        record_wire(false, wire.len());
        Frame::decode_wire(&wire)
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
        // A zero timeout answers at once: the test waits out no clock.
        let (mut c, _w) = loopback_pair();
        c.set_recv_timeout(Duration::ZERO).unwrap();
        assert!(matches!(c.recv(), Err(DistError::Timeout(_))));
    }

    #[test]
    fn recv_timeouts_are_settable_on_every_transport() {
        let (mut c, _w) = loopback_pair();
        assert_eq!(c.recv_timeout, Duration::from_secs(120));
        c.set_recv_timeout(Duration::from_millis(10)).unwrap();
        assert_eq!(c.recv_timeout, Duration::from_millis(10));
        c.set_recv_timeout(Duration::ZERO).unwrap();
        assert!(matches!(c.recv(), Err(DistError::Timeout(_))));

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut tcp = TcpTransport::from_stream(client, Duration::from_secs(120)).unwrap();
        let read_timeout = |t: &TcpTransport| t.stream.read_timeout().unwrap();
        assert_eq!(read_timeout(&tcp), Some(Duration::from_secs(120)));
        // Socket timeouts round to kernel ticks; 100 ms is whole on any.
        tcp.set_recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(read_timeout(&tcp), Some(Duration::from_millis(100)));
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

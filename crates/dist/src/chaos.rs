//! Deterministic fault injection for any [`Transport`].
//!
//! [`ChaosTransport`] wraps an inner transport and perturbs the frame
//! stream according to a seeded [`ChaosPlan`]: probabilistic per-frame
//! drop / delay / duplicate on send, bit-flip corruption on receive, and
//! two terminal frame-count triggers — **crash** (the underlying channel
//! closes, so the peer observes a hangup) and **hang** (this end falls
//! silent but the channel stays open, so the peer observes timeouts).
//! Every roll comes from a [`SplitMix64`] stream fixed by the plan's
//! seed, so a given `(plan, traffic)` pair replays the exact same fault
//! sequence — chaos tests are ordinary deterministic tests.
//!
//! The wrapper composes over loopback channels and TCP alike, which is
//! how both the unit tests and the `paperbench chaos` storm drive the
//! coordinator's recovery machinery (strikes, requeues, hedging) without
//! a real flaky network.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use symbiosis::rng::SplitMix64;

use crate::proto::Frame;
use crate::transport::Transport;
use crate::DistError;

/// A seeded fault schedule for one [`ChaosTransport`].
///
/// Probabilities are per-frame and independent; `0.0` disables a fault
/// class, `1.0` fires it on every frame. The two `*_after_frames`
/// triggers count frames crossing this end (sends and receives) and fire
/// at the start of the first operation once the count is reached.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Seed for the fault-roll stream.
    pub seed: u64,
    /// P(a sent frame is silently not delivered).
    pub drop: f64,
    /// P(a sent frame is delivered twice).
    pub duplicate: f64,
    /// P(a sent frame is delayed by up to [`max_delay`](Self::max_delay)).
    pub delay: f64,
    /// Upper bound of the seeded delay drawn when the delay fault fires.
    pub max_delay: Duration,
    /// P(a received frame has one seeded bit flipped — the re-decoded
    /// image always fails the length/checksum checks, so the caller sees
    /// a protocol error rather than silent data corruption).
    pub corrupt: f64,
    /// Fall silent (sends vanish, receives time out, channel stays open)
    /// once this many frames crossed.
    pub hang_after_frames: Option<usize>,
    /// Close the underlying channel (peer observes a hangup) once this
    /// many frames crossed.
    pub crash_after_frames: Option<usize>,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        ChaosPlan {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            max_delay: Duration::from_millis(10),
            corrupt: 0.0,
            hang_after_frames: None,
            crash_after_frames: None,
        }
    }
}

impl ChaosPlan {
    /// A plan whose only fault is a crash after `frames` crossed frames.
    pub fn crash_after(frames: usize) -> Self {
        ChaosPlan {
            crash_after_frames: Some(frames),
            ..ChaosPlan::default()
        }
    }

    /// A plan whose only fault is a hang after `frames` crossed frames.
    pub fn hang_after(frames: usize) -> Self {
        ChaosPlan {
            hang_after_frames: Some(frames),
            ..ChaosPlan::default()
        }
    }
}

/// Per-fault-class counters accumulated by a [`ChaosTransport`].
///
/// Shared behind `Arc<Mutex<..>>` (see
/// [`stats_handle`](ChaosTransport::stats_handle)) so tests and the
/// chaos experiment can read the tally after the transport moved into a
/// worker thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Frames silently dropped on send.
    pub drops: usize,
    /// Frames delivered twice on send.
    pub duplicates: usize,
    /// Frames delayed on send.
    pub delays: usize,
    /// Frames bit-flipped on receive.
    pub corruptions: usize,
    /// Whether the crash trigger fired.
    pub crashed: bool,
    /// Whether the hang trigger fired.
    pub hung: bool,
}

impl std::fmt::Display for ChaosStats {
    /// An aligned per-fault-class table, terminal triggers last.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{:<12} {:>8}", "fault", "count")?;
        writeln!(f, "{:<12} {:>8}", "drop", self.drops)?;
        writeln!(f, "{:<12} {:>8}", "duplicate", self.duplicates)?;
        writeln!(f, "{:<12} {:>8}", "delay", self.delays)?;
        writeln!(f, "{:<12} {:>8}", "corrupt", self.corruptions)?;
        writeln!(f, "{:<12} {:>8}", "crash", u8::from(self.crashed))?;
        write!(f, "{:<12} {:>8}", "hang", u8::from(self.hung))
    }
}

/// A [`Transport`] that injects the faults scheduled by a [`ChaosPlan`]
/// into an inner transport's frame stream.
#[derive(Debug)]
pub struct ChaosTransport<T: Transport> {
    inner: Option<T>,
    plan: ChaosPlan,
    rng: SplitMix64,
    crossed: usize,
    hung: bool,
    peer: String,
    stats: Arc<Mutex<ChaosStats>>,
}

impl<T: Transport> ChaosTransport<T> {
    /// Wraps `inner` under the fault schedule of `plan`.
    pub fn new(inner: T, plan: ChaosPlan) -> Self {
        let peer = inner.peer();
        let rng = SplitMix64::new(plan.seed);
        ChaosTransport {
            inner: Some(inner),
            plan,
            rng,
            crossed: 0,
            hung: false,
            peer,
            stats: Arc::new(Mutex::new(ChaosStats::default())),
        }
    }

    /// A shared handle onto the fault counters, valid after the
    /// transport moves into another thread.
    pub fn stats_handle(&self) -> Arc<Mutex<ChaosStats>> {
        Arc::clone(&self.stats)
    }

    /// Whether the crash trigger has fired (the hang trigger leaves the
    /// end "alive" from the peer's point of view, so it does not count).
    pub fn died(&self) -> bool {
        self.inner.is_none() && !self.hung
    }

    fn stats(&self) -> std::sync::MutexGuard<'_, ChaosStats> {
        self.stats.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Fires the frame-count triggers due at the start of an operation
    /// and reports whether this end is already dead.
    fn trip(&mut self) -> Result<(), DistError> {
        if let Some(limit) = self.plan.hang_after_frames {
            if self.crossed >= limit && !self.hung {
                // Deliberate leak: dropping the inner transport would
                // close its channel and the peer would observe a hangup —
                // indistinguishable from a crash. Forgetting it keeps the
                // channel open-but-silent, which is what a hang looks
                // like from the other side.
                if let Some(inner) = self.inner.take() {
                    std::mem::forget(inner);
                }
                self.hung = true;
                self.stats().hung = true;
                obs::count!("chaos.hang", 1);
            }
        }
        if let Some(limit) = self.plan.crash_after_frames {
            if self.crossed >= limit && self.inner.is_some() {
                self.inner = None;
                self.stats().crashed = true;
                obs::count!("chaos.crash", 1);
            }
        }
        if self.inner.is_none() && !self.hung {
            return Err(DistError::Disconnected(
                "injected fault: this end is dead".into(),
            ));
        }
        Ok(())
    }
}

impl<T: Transport> Transport for ChaosTransport<T> {
    fn send(&mut self, frame: &Frame) -> Result<(), DistError> {
        self.trip()?;
        if self.hung {
            // Silence: the caller believes the frame left, the peer
            // never sees it.
            self.crossed += 1;
            return Ok(());
        }
        // Draw every roll up front so the stream stays aligned across
        // plans that enable different fault subsets.
        let roll_drop = self.rng.next_f64();
        let roll_delay = self.rng.next_f64();
        let roll_duplicate = self.rng.next_f64();
        self.crossed += 1;
        if roll_drop < self.plan.drop {
            self.stats().drops += 1;
            obs::count!("chaos.drop", 1);
            return Ok(());
        }
        if roll_delay < self.plan.delay {
            let nanos = self.plan.max_delay.as_nanos() as u64;
            std::thread::sleep(Duration::from_nanos(self.rng.next_range(nanos.max(1))));
            self.stats().delays += 1;
            obs::count!("chaos.delay", 1);
        }
        let inner = self.inner.as_mut().expect("trip() verified liveness");
        inner.send(frame)?;
        if roll_duplicate < self.plan.duplicate {
            inner.send(frame)?;
            self.stats().duplicates += 1;
            obs::count!("chaos.duplicate", 1);
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, DistError> {
        self.trip()?;
        if self.hung {
            return Err(DistError::Timeout(
                "injected hang: this end is silent".into(),
            ));
        }
        let frame = self
            .inner
            .as_mut()
            .expect("trip() verified liveness")
            .recv()?;
        self.crossed += 1;
        let roll = self.rng.next_f64();
        if roll < self.plan.corrupt {
            let mut wire = frame.encode();
            let bit = self.rng.next_range((wire.len() as u64) * 8) as usize;
            wire[bit / 8] ^= 1 << (bit % 8);
            self.stats().corruptions += 1;
            obs::count!("chaos.corrupt", 1);
            // A single flipped bit always trips the length or checksum
            // check, so this surfaces as the protocol error a real
            // corrupted frame would produce.
            return Frame::decode_wire(&wire);
        }
        Ok(frame)
    }

    fn recv_timeout(&self) -> Duration {
        // A dead or hung end answers `recv` at once.
        self.inner
            .as_ref()
            .map_or(Duration::ZERO, Transport::recv_timeout)
    }

    fn set_recv_timeout(&mut self, timeout: Duration) -> Result<(), DistError> {
        // A dead or hung end has no inner transport left to configure.
        match self.inner.as_mut() {
            Some(inner) => inner.set_recv_timeout(timeout),
            None => Ok(()),
        }
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::loopback_pair_with_chaos;

    #[test]
    fn a_clean_plan_is_transparent() {
        let (mut a, mut b) = loopback_pair_with_chaos(ChaosPlan::default());
        a.send(&Frame::FetchChunk).unwrap();
        assert_eq!(b.recv().unwrap(), Frame::FetchChunk);
        b.send(&Frame::Drained).unwrap();
        assert_eq!(a.recv().unwrap(), Frame::Drained);
        assert_eq!(*b.stats_handle().lock().unwrap(), ChaosStats::default());
    }

    #[test]
    fn crash_kills_the_end_and_signals_the_peer() {
        let (mut coord, mut worker) = loopback_pair_with_chaos(ChaosPlan::crash_after(1));
        worker.send(&Frame::FetchChunk).unwrap();
        assert_eq!(coord.recv().unwrap(), Frame::FetchChunk);
        let err = worker.send(&Frame::FetchChunk).unwrap_err();
        assert!(matches!(err, DistError::Disconnected(_)), "{err}");
        assert!(worker.died());
        assert!(worker.stats_handle().lock().unwrap().crashed);
        // The peer observes a hangup, not silence.
        assert!(matches!(coord.recv(), Err(DistError::Disconnected(_))));
    }

    #[test]
    fn hang_goes_silent_without_hanging_up() {
        let (coord, mut worker) = loopback_pair_with_chaos(ChaosPlan::hang_after(1));
        let mut coord = coord.with_recv_timeout(Duration::from_millis(20));
        worker.send(&Frame::FetchChunk).unwrap();
        assert_eq!(coord.recv().unwrap(), Frame::FetchChunk);
        // Sends now vanish without an error...
        worker.send(&Frame::FetchChunk).unwrap();
        assert!(matches!(worker.recv(), Err(DistError::Timeout(_))));
        assert!(!worker.died(), "a hung end is silent, not dead");
        // ...and the peer times out instead of seeing a hangup.
        let err = coord.recv().unwrap_err();
        assert!(matches!(err, DistError::Timeout(_)), "{err}");
        assert!(worker.stats_handle().lock().unwrap().hung);
    }

    #[test]
    fn drops_vanish_and_duplicates_arrive_twice() {
        let plan = ChaosPlan {
            seed: 11,
            duplicate: 1.0,
            ..ChaosPlan::default()
        };
        let (mut coord, mut worker) = loopback_pair_with_chaos(plan);
        worker.send(&Frame::FetchChunk).unwrap();
        assert_eq!(coord.recv().unwrap(), Frame::FetchChunk);
        assert_eq!(coord.recv().unwrap(), Frame::FetchChunk);
        assert_eq!(worker.stats_handle().lock().unwrap().duplicates, 1);

        let plan = ChaosPlan {
            seed: 11,
            drop: 1.0,
            ..ChaosPlan::default()
        };
        let (coord, mut worker) = loopback_pair_with_chaos(plan);
        let mut coord = coord.with_recv_timeout(Duration::from_millis(20));
        worker.send(&Frame::FetchChunk).unwrap();
        assert!(matches!(coord.recv(), Err(DistError::Timeout(_))));
        assert_eq!(worker.stats_handle().lock().unwrap().drops, 1);
    }

    #[test]
    fn corruption_surfaces_as_a_protocol_error() {
        let plan = ChaosPlan {
            seed: 3,
            corrupt: 1.0,
            ..ChaosPlan::default()
        };
        let (mut coord, mut worker) = loopback_pair_with_chaos(plan);
        coord.send(&Frame::FetchChunk).unwrap();
        let err = worker.recv().unwrap_err();
        assert!(matches!(err, DistError::Protocol(_)), "{err}");
        assert_eq!(worker.stats_handle().lock().unwrap().corruptions, 1);
    }

    #[test]
    fn the_same_seed_replays_the_same_fault_sequence() {
        let plan = ChaosPlan {
            seed: 0xC4A05,
            drop: 0.5,
            ..ChaosPlan::default()
        };
        let run = |plan: ChaosPlan| {
            let (coord, mut worker) = loopback_pair_with_chaos(plan);
            let mut coord = coord.with_recv_timeout(Duration::from_millis(20));
            for _ in 0..32 {
                worker.send(&Frame::FetchChunk).unwrap();
            }
            let mut delivered = Vec::new();
            while let Ok(f) = coord.recv() {
                delivered.push(f);
            }
            let stats = worker.stats_handle().lock().unwrap().clone();
            (delivered.len(), stats)
        };
        let (a_count, a_stats) = run(plan.clone());
        let (b_count, b_stats) = run(plan);
        assert_eq!(a_count, b_count);
        assert_eq!(a_stats, b_stats);
        assert_eq!(a_count + a_stats.drops, 32);
        assert!(
            a_stats.drops > 0,
            "a 0.5 drop plan over 32 frames drops some"
        );
    }
}

//! Seeded fault injection on a simulated network.
//!
//! [`Coordinator::simulate`] runs the coordinator's state machine and one
//! worker state machine per [`Link`] on one thread, under virtual time.
//! Frames travel as wire images ([`Frame::encode`]) through an event
//! queue ordered by arrival time, then send order; each direction of a
//! link is FIFO with a fixed latency. With nothing in flight, time jumps
//! to the coordinator's next deadline: a 120 s timeout costs nothing.
//!
//! Each link end applies its own seeded [`ChaosPlan`]: drop / delay /
//! duplicate on send, bit-flip corruption on receive, and two
//! frame-count triggers — **crash** (the peer sees a hangup) and **hang**
//! (the end falls silent, so the peer can only time out). No thread
//! timing enters a run: the same sweep, config and plans replay the same
//! faults, counters and report.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use symbiosis::rng::SplitMix64;

use crate::coordinator::{Coordinator, DistOutcome, Machine, Output};
use crate::proto::Frame;
use crate::worker::{Step, Worker, WorkerConfig, WorkerSummary};
use crate::DistError;

/// One-way delay of every frame on a simulated link.
const LATENCY: Duration = Duration::from_micros(100);

/// A seeded fault schedule for one end of a simulated [`Link`].
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
    /// P(a received frame has one seeded bit flipped; the length or
    /// checksum check always catches it).
    pub corrupt: f64,
    /// Fall silent (sends vanish, receives are ignored, the link stays
    /// open) once this many frames crossed.
    pub hang_after_frames: Option<usize>,
    /// Die (the peer observes a hangup) once this many frames crossed.
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

/// Per-fault-class counters: the faults one end, one link or a whole
/// run injected ([`ChaosStats::absorb`] sums them).
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
    /// Crash triggers that fired.
    pub crashed: usize,
    /// Hang triggers that fired.
    pub hung: usize,
}

impl ChaosStats {
    /// Adds `other`'s counts to these.
    pub fn absorb(&mut self, other: &ChaosStats) {
        self.drops += other.drops;
        self.duplicates += other.duplicates;
        self.delays += other.delays;
        self.corruptions += other.corruptions;
        self.crashed += other.crashed;
        self.hung += other.hung;
    }
}

impl std::fmt::Display for ChaosStats {
    /// One line, terminal triggers first.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crashed={} hung={} drops={} duplicates={} delays={} corruptions={}",
            self.crashed, self.hung, self.drops, self.duplicates, self.delays, self.corruptions
        )
    }
}

/// The fault plans of one simulated worker connection, one per end.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Link {
    /// Faults at the worker's end.
    pub worker: ChaosPlan,
    /// Faults at the coordinator's end.
    pub coordinator: ChaosPlan,
}

/// Everything one [`Coordinator::simulate`] run produced.
#[derive(Debug)]
pub struct Simulation {
    /// The coordinator's result, as [`Coordinator::run`] would report it.
    pub outcome: Result<DistOutcome, DistError>,
    /// Each worker's result, in link order, as `run_worker` reports it.
    pub workers: Vec<Result<WorkerSummary, DistError>>,
    /// The faults each link injected, both ends summed.
    pub faults: Vec<ChaosStats>,
}

impl Coordinator {
    /// Runs the sweep on the simulated network (see the module docs): one
    /// worker per [`Link`], each with `worker`'s settings, and every
    /// deadline in virtual time.
    pub fn simulate(&self, links: &[Link], worker: &WorkerConfig) -> Simulation {
        let peers = (0..links.len())
            .map(|i| format!("simulated worker {i}"))
            .collect();
        let mut wires = Vec::new();
        let outcome = self.conduct(peers, |machine| {
            let mut net = Net {
                machine,
                wires: links
                    .iter()
                    .map(|link| Wire {
                        ends: [End::new(&link.worker), End::new(&link.coordinator)],
                        last: [Duration::ZERO; 2],
                        backlog: VecDeque::new(),
                        worker: None,
                        result: None,
                    })
                    .collect(),
                queue: BTreeMap::new(),
                seq: 0,
                now: Duration::ZERO,
            };
            net.run(worker);
            wires = net.wires;
        });
        let (workers, faults) = wires
            .into_iter()
            .map(|wire| {
                let [w, c] = wire.ends;
                let mut faults = w.stats;
                faults.absorb(&c.stats);
                (wire.result.expect("every worker finished"), faults)
            })
            .unzip();
        Simulation {
            outcome,
            workers,
            faults,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Health {
    Alive,
    Hung,
    Dead,
}

/// One end of a simulated link: its plan's rolls and the faults fired.
struct End {
    plan: ChaosPlan,
    rng: SplitMix64,
    crossed: usize,
    health: Health,
    stats: ChaosStats,
}

impl End {
    fn new(plan: &ChaosPlan) -> Self {
        End {
            plan: plan.clone(),
            rng: SplitMix64::new(plan.seed),
            crossed: 0,
            health: Health::Alive,
            stats: ChaosStats::default(),
        }
    }

    /// Fires the frame-count triggers due before this end's next
    /// operation (a hang wins over a crash due at the same count).
    fn trip(&mut self) -> Health {
        let due = |limit: Option<usize>| limit.is_some_and(|n| self.crossed >= n);
        if self.health == Health::Alive {
            if due(self.plan.hang_after_frames) {
                self.health = Health::Hung;
                self.stats.hung += 1;
            } else if due(self.plan.crash_after_frames) {
                self.health = Health::Dead;
                self.stats.crashed += 1;
            }
        }
        self.health
    }

    /// Rolls one send's faults: the extra delay of each copy that leaves
    /// (none when dropped, two when duplicated).
    fn send(&mut self) -> Vec<Duration> {
        // Every roll is drawn up front so the stream stays aligned across
        // plans that enable different fault subsets.
        let roll_drop = self.rng.next_f64();
        let roll_delay = self.rng.next_f64();
        let roll_duplicate = self.rng.next_f64();
        self.crossed += 1;
        if roll_drop < self.plan.drop {
            self.stats.drops += 1;
            return Vec::new();
        }
        let mut delay = Duration::ZERO;
        if roll_delay < self.plan.delay {
            let nanos = self.plan.max_delay.as_nanos() as u64;
            delay = Duration::from_nanos(self.rng.next_range(nanos.max(1)));
            self.stats.delays += 1;
        }
        if roll_duplicate < self.plan.duplicate {
            self.stats.duplicates += 1;
            return vec![delay, delay];
        }
        vec![delay]
    }

    /// Receives one wire image, flipping one seeded bit when the corrupt
    /// fault fires — which always trips the length or checksum check.
    fn receive(&mut self, mut wire: Vec<u8>) -> Result<Frame, DistError> {
        self.crossed += 1;
        if self.rng.next_f64() < self.plan.corrupt {
            let bit = self.rng.next_range((wire.len() as u64) * 8) as usize;
            wire[bit / 8] ^= 1 << (bit % 8);
            self.stats.corruptions += 1;
        }
        Frame::decode_wire(&wire)
    }
}

/// Index of each side of a link in `Wire::ends` and `Wire::last`.
const WORKER: usize = 0;
const COORDINATOR: usize = 1;

/// What travels toward one side: a wire image, or `None` for a hangup.
type Carry = Option<Vec<u8>>;

struct Wire<'w> {
    /// The worker's end, then the coordinator's.
    ends: [End; 2],
    /// The latest arrival scheduled toward each side: each direction is
    /// FIFO, as on a stream socket.
    last: [Duration; 2],
    /// Arrivals held while the coordinator is parked on this link's
    /// `FetchChunk` (it does not read while it owes the worker an answer).
    backlog: VecDeque<Carry>,
    /// The worker, until its conversation ends with `result`.
    worker: Option<Worker<'w>>,
    result: Option<Result<WorkerSummary, DistError>>,
}

struct Net<'m, 'c, 'w> {
    machine: &'m mut Machine<'c>,
    wires: Vec<Wire<'w>>,
    /// In-flight carries by arrival time, then send order.
    queue: BTreeMap<(Duration, u64), (usize, usize, Carry)>,
    seq: u64,
    now: Duration,
}

impl<'w> Net<'_, '_, 'w> {
    fn run(&mut self, config: &'w WorkerConfig) {
        for link in 0..self.wires.len() {
            let (worker, hello) = Worker::new(config);
            self.wires[link].worker = Some(worker);
            self.worker_step(link, hello);
        }
        loop {
            // A connection the coordinator just answered first reads what
            // queued behind its request.
            let wires = &self.wires;
            let unparked =
                (0..wires.len()).find(|&l| !wires[l].backlog.is_empty() && !self.machine.parked(l));
            if let Some(link) = unparked {
                let carry = self.wires[link].backlog.pop_front().expect("non-empty");
                self.arrive_at_coordinator(link, carry);
                continue;
            }
            // An arrival due by the coordinator's next deadline goes
            // first; with none, time jumps to that deadline.
            let deadline = self.machine.deadline();
            let next = self.queue.first_key_value().map(|(&(at, _), _)| at);
            if next.is_some_and(|at| deadline.is_none_or(|d| at <= d)) {
                let ((at, _), (link, to, carry)) = self.queue.pop_first().expect("peeked");
                self.now = at;
                match to {
                    WORKER => self.arrive_at_worker(link, carry),
                    _ => self.arrive_at_coordinator(link, carry),
                }
            } else if let Some(deadline) = deadline {
                self.now = deadline;
                let outputs = self.machine.tick(deadline);
                self.carry_out(outputs);
            } else {
                break;
            }
        }
        // A worker still waiting when the network fell quiet would wait
        // out its read timeout.
        for link in 0..self.wires.len() {
            let silence = DistError::Timeout("no frame before the network fell quiet".into());
            self.finish_worker(link, Err(silence));
        }
    }

    /// Puts `carry` on the link toward side `to`, arriving after the
    /// latency plus `extra`, and never before anything sent earlier.
    fn schedule(&mut self, link: usize, to: usize, carry: Carry, extra: Duration) {
        let wire = &mut self.wires[link];
        let at = (self.now + LATENCY + extra).max(wire.last[to]);
        wire.last[to] = at;
        self.seq += 1;
        self.queue.insert((at, self.seq), (link, to, carry));
    }

    /// Closes `side`'s end of the link: the peer sees a hangup. A hung
    /// end's link stays open; a dead end already hung up.
    fn hang_up(&mut self, link: usize, side: usize) {
        if self.wires[link].ends[side].health == Health::Alive {
            self.schedule(link, 1 - side, None, Duration::ZERO);
        }
    }

    /// Fires `side`'s due triggers and carries out a fresh hang or crash:
    /// a hung worker's read times out, and a dead end's owner sees its
    /// link fail while the peer sees a hangup.
    fn health(&mut self, link: usize, side: usize) -> Health {
        let end = &mut self.wires[link].ends[side];
        let was = end.health;
        let health = end.trip();
        if was == Health::Alive && health != Health::Alive {
            let failure = match health {
                Health::Hung => DistError::Timeout("injected hang: this end is silent".into()),
                _ => DistError::Disconnected("injected fault: this end is dead".into()),
            };
            if side == WORKER {
                self.finish_worker(link, Err(failure));
            } else if health == Health::Dead {
                self.feed(link, Err(failure));
            }
            if health == Health::Dead {
                self.schedule(link, 1 - side, None, Duration::ZERO);
            }
        }
        health
    }

    /// Sends `frame` from `side` through its end's faults. A hung end's
    /// frame vanishes; a dead end's death was already carried out.
    fn transmit(&mut self, link: usize, side: usize, frame: &Frame) {
        if self.health(link, side) == Health::Alive {
            let wire = frame.encode();
            for extra in self.wires[link].ends[side].send() {
                self.schedule(link, 1 - side, Some(wire.clone()), extra);
            }
        }
    }

    /// What `side` reads off the link: a decoded frame, a protocol error,
    /// or the hangup as a disconnect.
    fn read(&mut self, link: usize, side: usize, carry: Carry) -> Result<Frame, DistError> {
        match carry {
            Some(wire) => self.wires[link].ends[side].receive(wire),
            None => Err(DistError::Disconnected("the peer hung up".into())),
        }
    }

    fn feed(&mut self, link: usize, input: Result<Frame, DistError>) {
        let outputs = self.machine.on(self.now, link, input);
        self.carry_out(outputs);
    }

    /// Puts the coordinator's answers on the wire.
    fn carry_out(&mut self, outputs: Vec<Output>) {
        for output in outputs {
            match output {
                Output::Send(link, frame) => self.transmit(link, COORDINATOR, &frame),
                Output::Close(link) => self.hang_up(link, COORDINATOR),
            }
        }
    }

    fn arrive_at_coordinator(&mut self, link: usize, carry: Carry) {
        if self.machine.parked(link) {
            self.wires[link].backlog.push_back(carry);
        } else if !self.machine.closed(link) && self.health(link, COORDINATOR) == Health::Alive {
            let input = self.read(link, COORDINATOR, carry);
            self.feed(link, input);
        }
    }

    fn arrive_at_worker(&mut self, link: usize, carry: Carry) {
        if self.wires[link].worker.is_none() || self.health(link, WORKER) != Health::Alive {
            return;
        }
        match self.read(link, WORKER, carry) {
            Ok(frame) => {
                let worker = self.wires[link].worker.as_mut().expect("checked above");
                let step = worker.on(frame);
                self.worker_step(link, step);
            }
            Err(e) => self.finish_worker(link, Err(e)),
        }
    }

    fn worker_step(&mut self, link: usize, (frames, done): Step) {
        for frame in &frames {
            if self.wires[link].worker.is_none() {
                return; // it died on the way
            }
            self.transmit(link, WORKER, frame);
        }
        if let Some(done) = done {
            self.finish_worker(link, done);
        }
    }

    /// Ends a worker's conversation with `result`; its link closes as its
    /// transport drops.
    fn finish_worker(&mut self, link: usize, result: Result<WorkerSummary, DistError>) {
        if self.wires[link].worker.take().is_some() {
            self.wires[link].result = Some(result);
            self.hang_up(link, WORKER);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistConfig;
    use session::{Policy, Session};
    use workloads::PerfTable;

    fn table() -> PerfTable {
        let names = (0..3).map(|i| format!("b{i}")).collect();
        PerfTable::synthetic(names, 2, |combo| {
            combo
                .iter()
                .map(|&b| 1.0 / (1.0 + 0.1 * b as f64))
                .collect()
        })
        .unwrap()
    }

    /// A two-link run over a three-workload sweep; link 0 wears `victim`.
    fn run(victim: Link) -> Simulation {
        let table = table();
        let sweep = Session::sweep()
            .table(&table)
            .workloads(symbiosis::enumerate_workloads(3, 2))
            .policies([Policy::Optimal]);
        let config = DistConfig {
            chunk_size: 1,
            ..DistConfig::default()
        };
        let coordinator = Coordinator::from_sweep(sweep, config).unwrap();
        coordinator.simulate(&[victim, Link::default()], &WorkerConfig::default())
    }

    #[test]
    fn a_clean_plan_is_transparent() {
        let mut end = End::new(&ChaosPlan::default());
        assert_eq!(end.trip(), Health::Alive);
        assert_eq!(end.send(), vec![Duration::ZERO]);
        let wire = Frame::FetchChunk.encode();
        assert_eq!(end.receive(wire).unwrap(), Frame::FetchChunk);
        assert_eq!(end.stats, ChaosStats::default());

        let sim = run(Link::default());
        assert!(sim.outcome.is_ok());
        assert!(sim.workers.iter().all(Result::is_ok));
        assert_eq!(sim.faults, vec![ChaosStats::default(); 2]);
    }

    #[test]
    fn crash_kills_the_end_and_signals_the_peer() {
        // Hello crosses, then the Welcome's arrival trips the crash.
        let sim = run(Link {
            worker: ChaosPlan::crash_after(1),
            ..Link::default()
        });
        assert!(matches!(sim.workers[0], Err(DistError::Disconnected(_))));
        assert_eq!(sim.faults[0].crashed, 1);
        // The coordinator saw the hangup at once, not after a timeout.
        let outcome = sim.outcome.unwrap();
        assert!(outcome.workers[0].wall < Duration::from_millis(1));
        assert_eq!(outcome.workers[1].rows, 3);
    }

    #[test]
    fn hang_goes_silent_without_hanging_up() {
        let sim = run(Link {
            worker: ChaosPlan::hang_after(1),
            ..Link::default()
        });
        assert!(matches!(sim.workers[0], Err(DistError::Timeout(_))));
        assert_eq!(sim.faults[0].hung, 1);
        // The link stayed open: the coordinator wrote the worker off only
        // at its (virtual) read deadline.
        let outcome = sim.outcome.unwrap();
        assert!(outcome.workers[0].wall >= DistConfig::default().recv_timeout);
        assert_eq!(outcome.workers[1].rows, 3);
    }

    #[test]
    fn drops_vanish_and_duplicates_arrive_twice() {
        let mut end = End::new(&ChaosPlan {
            seed: 11,
            duplicate: 1.0,
            ..ChaosPlan::default()
        });
        assert_eq!(end.send().len(), 2);
        assert_eq!(end.stats.duplicates, 1);

        let mut end = End::new(&ChaosPlan {
            seed: 11,
            drop: 1.0,
            ..ChaosPlan::default()
        });
        assert!(end.send().is_empty());
        assert_eq!(end.stats.drops, 1);
    }

    #[test]
    fn corruption_surfaces_as_a_protocol_error() {
        let mut end = End::new(&ChaosPlan {
            seed: 3,
            corrupt: 1.0,
            ..ChaosPlan::default()
        });
        let err = end.receive(Frame::FetchChunk.encode()).unwrap_err();
        assert!(matches!(err, DistError::Protocol(_)), "{err}");
        assert_eq!(end.stats.corruptions, 1);
    }

    #[test]
    fn the_same_seed_replays_the_same_fault_sequence() {
        let plan = ChaosPlan {
            seed: 0xC4A05,
            drop: 0.5,
            ..ChaosPlan::default()
        };
        let sends = |plan: &ChaosPlan| {
            let mut end = End::new(plan);
            let delivered: usize = (0..32).map(|_| end.send().len()).sum();
            (delivered, end.stats)
        };
        let (a_count, a_stats) = sends(&plan);
        assert_eq!((a_count, a_stats.clone()), sends(&plan));
        assert_eq!(a_count + a_stats.drops, 32);
        assert!(
            a_stats.drops > 0,
            "a 0.5 drop plan over 32 frames drops some"
        );
    }
}

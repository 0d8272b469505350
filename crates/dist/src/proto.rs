//! Frame encoding and decoding for the distributed-sweep wire protocol.
//!
//! See the crate-level docs for the frame table and handshake. Frames are
//! written and read with [`workloads::codec`], the codec the `SPT1` table
//! file uses: little-endian integers, `f64` as [`f64::to_bits`], counts
//! bounded by the bytes left, and an FNV-1a 64 checksum — here per frame,
//! over the body (kind byte + payload).
//!
//! [`Frame::encode`] produces the full wire image (length prefix + body +
//! checksum); [`Frame::decode`] is its exact inverse and rejects anything
//! it would not itself produce. Both transports ([`crate::TcpTransport`]
//! and the loopback pair) move these same bytes, so a protocol bug cannot
//! hide behind the in-process shortcut.

use queueing::LatencyConfig;
use queueing::SizeDist;
use session::{EvalSpec, Policy, PolicyReport, SessionReport};
use symbiosis::{JobSize, Objective};
use workloads::codec::{self, DecodeError, Reader, Writer};
use workloads::WorkUnit;

use crate::DistError;

/// Version spoken by this build; bumped on any wire-visible change.
pub const PROTOCOL_VERSION: u32 = 3;

/// Upper bound on one frame's body length. Large enough for any real
/// table (the N=12/K=8 SMT table is ~4 MiB) with two orders of magnitude
/// of headroom; small enough that a corrupted length prefix cannot drive
/// an absurd allocation.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// One protocol message. The numeric kind of each variant is part of the
/// wire format; see the frame table in the crate docs.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker → coordinator: opening handshake.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Coordinator → worker: handshake accepted; here is the job.
    Welcome {
        /// The coordinator's [`PROTOCOL_VERSION`].
        version: u32,
        /// Content fingerprint of the shared table
        /// ([`workloads::PerfTable::content_fingerprint`]) — the worker's
        /// [`workloads::TableStore`] cache key.
        table_fingerprint: u64,
        /// The sweep's unit of work.
        unit: WorkUnit,
        /// What every workload is evaluated with.
        spec: EvalSpec,
        /// Total workloads in the sweep (progress accounting).
        total_workloads: u64,
    },
    /// Worker → coordinator: table cache miss, ship the bytes.
    TableRequest,
    /// Coordinator → worker: the shared table in canonical `SYMBPERF`
    /// serialization (itself internally checksummed).
    TableBytes {
        /// `PerfTable::to_bytes()` of the shared table.
        bytes: Vec<u8>,
    },
    /// Worker → coordinator: ready for (more) work.
    FetchChunk,
    /// Coordinator → worker: evaluate these workloads.
    Chunk {
        /// Coordinator-assigned chunk index (echoed back in
        /// [`Frame::Rows`]).
        id: u64,
        /// The chunk's workloads, each a benchmark-index vector.
        workloads: Vec<Vec<usize>>,
    },
    /// Worker → coordinator: one chunk's results, one report per
    /// workload, in chunk order.
    Rows {
        /// The chunk these rows answer.
        id: u64,
        /// Per-workload session reports, bitwise as evaluated.
        reports: Vec<SessionReport>,
    },
    /// Coordinator → worker: no work left; hang up.
    Drained,
    /// Either direction: fatal, human-readable; terminal for the
    /// connection (and, worker → coordinator, for the whole sweep).
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::Welcome { .. } => 2,
            Frame::TableRequest => 3,
            Frame::TableBytes { .. } => 4,
            Frame::FetchChunk => 5,
            Frame::Chunk { .. } => 6,
            Frame::Rows { .. } => 7,
            Frame::Drained => 8,
            Frame::Error { .. } => 9,
        }
    }

    /// Serializes the frame to its full wire image:
    /// `len:u32 | body | fnv1a64(body):u64`.
    pub fn encode(&self) -> Vec<u8> {
        // The length prefix is patched in once the body is written.
        let mut out = Writer::new();
        out.u32(0);
        out.u8(self.kind());
        match self {
            Frame::Hello { version } => out.u32(*version),
            Frame::Welcome {
                version,
                table_fingerprint,
                unit,
                spec,
                total_workloads,
            } => {
                out.u32(*version);
                out.u64(*table_fingerprint);
                put_spec(&mut out, *unit, spec);
                out.u64(*total_workloads);
            }
            Frame::TableRequest | Frame::FetchChunk | Frame::Drained => {}
            Frame::TableBytes { bytes } => out.bytes(bytes),
            Frame::Chunk { id, workloads } => {
                out.u64(*id);
                out.u32(workloads.len() as u32);
                for w in workloads {
                    out.u32(w.len() as u32);
                    for &b in w {
                        out.u32(b as u32);
                    }
                }
            }
            Frame::Rows { id, reports } => {
                out.u64(*id);
                out.u32(reports.len() as u32);
                for r in reports {
                    put_report(&mut out, r);
                }
            }
            Frame::Error { message } => out.str(message),
        }
        let mut wire = out.into_bytes();
        let body_len = wire.len() - 4;
        wire[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
        wire.extend_from_slice(&codec::fnv1a(&wire[4..]).to_le_bytes());
        wire
    }

    /// Decodes one frame body (the bytes between length prefix and
    /// checksum); the transports verify length and checksum before
    /// calling this.
    ///
    /// # Errors
    ///
    /// [`DistError::Protocol`] on an empty body, unknown kind, truncated
    /// payload, a count the body cannot hold, trailing bytes, or an
    /// out-of-range enum discriminant.
    pub fn decode(body: &[u8]) -> Result<Frame, DistError> {
        let mut dec = Reader::new(body);
        let kind = dec.u8()?;
        let frame = match kind {
            1 => Frame::Hello {
                version: dec.u32()?,
            },
            2 => {
                let version = dec.u32()?;
                let table_fingerprint = dec.u64()?;
                let (unit, spec) = get_spec(&mut dec)?;
                Frame::Welcome {
                    version,
                    table_fingerprint,
                    unit,
                    spec,
                    total_workloads: dec.u64()?,
                }
            }
            3 => Frame::TableRequest,
            4 => Frame::TableBytes {
                bytes: dec.bytes()?.to_vec(),
            },
            5 => Frame::FetchChunk,
            6 => {
                let id = dec.u64()?;
                // A workload takes at least its length, an index its u32.
                let n = dec.count_u32(4, "workload count")?;
                let mut workloads = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = dec.count_u32(4, "workload size")?;
                    let mut w = Vec::with_capacity(k);
                    for _ in 0..k {
                        w.push(dec.u32()? as usize);
                    }
                    workloads.push(w);
                }
                Frame::Chunk { id, workloads }
            }
            7 => {
                let id = dec.u64()?;
                // A report takes at least its row count.
                let n = dec.count_u32(4, "report count")?;
                let mut reports = Vec::with_capacity(n);
                for _ in 0..n {
                    reports.push(get_report(&mut dec)?);
                }
                Frame::Rows { id, reports }
            }
            8 => Frame::Drained,
            9 => Frame::Error {
                message: dec.str()?.to_owned(),
            },
            k => return Err(DistError::Protocol(format!("unknown frame kind {k}"))),
        };
        dec.finish()?;
        Ok(frame)
    }

    /// Splits a full wire image back into a frame: checks the length
    /// prefix, verifies the checksum, then decodes the body. Used by the
    /// loopback transport (TCP reads the three sections incrementally).
    ///
    /// # Errors
    ///
    /// [`DistError::Protocol`] on any mismatch between the bytes and what
    /// [`Frame::encode`] produces.
    pub fn decode_wire(wire: &[u8]) -> Result<Frame, DistError> {
        if wire.len() < 4 + 8 {
            return Err(DistError::Protocol(format!(
                "wire image of {} bytes is shorter than an empty frame",
                wire.len()
            )));
        }
        let len = u32::from_le_bytes(wire[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(DistError::Protocol(format!(
                "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"
            )));
        }
        if wire.len() != 4 + len + 8 {
            return Err(DistError::Protocol(format!(
                "frame length prefix says {len} body bytes but the image carries {}",
                wire.len().saturating_sub(4 + 8)
            )));
        }
        Frame::decode(codec::unseal(&wire[4..])?)
    }
}

impl From<DecodeError> for DistError {
    fn from(e: DecodeError) -> Self {
        DistError::Protocol(e.to_string())
    }
}

// --- composite payloads ---------------------------------------------------

/// Writes the unit of work between the policy names and the rest of the
/// spec: the layout protocol v3 fixed.
fn put_spec(buf: &mut Writer, unit: WorkUnit, spec: &EvalSpec) {
    buf.u32(spec.policies.len() as u32);
    for p in &spec.policies {
        buf.str(p.name());
    }
    buf.u8(match unit {
        WorkUnit::Weighted => 0,
        WorkUnit::Plain => 1,
    });
    buf.u8(match spec.objective {
        Objective::MaxThroughput => 0,
        Objective::MinThroughput => 1,
    });
    buf.u64(spec.fcfs_jobs);
    buf.u8(match spec.job_size {
        JobSize::Deterministic => 0,
        JobSize::Exponential => 1,
    });
    buf.u64(spec.seed);
    match &spec.latency {
        None => buf.u8(0),
        Some(cfg) => {
            buf.u8(1);
            buf.f64(cfg.arrival_rate);
            buf.u64(cfg.measured_jobs);
            buf.u64(cfg.warmup_jobs);
            buf.u8(match cfg.sizes {
                SizeDist::Deterministic => 0,
                SizeDist::Exponential => 1,
            });
            buf.u64(cfg.seed);
        }
    }
}

fn get_spec(dec: &mut Reader<'_>) -> Result<(WorkUnit, EvalSpec), DistError> {
    // A policy takes at least its name's length.
    let n = dec.count_u32(4, "policy count")?;
    let mut policies = Vec::with_capacity(n);
    for _ in 0..n {
        policies.push(get_policy(dec)?);
    }
    let unit = match dec.u8()? {
        0 => WorkUnit::Weighted,
        1 => WorkUnit::Plain,
        v => return Err(DistError::Protocol(format!("bad work unit tag {v}"))),
    };
    let objective = match dec.u8()? {
        0 => Objective::MaxThroughput,
        1 => Objective::MinThroughput,
        v => return Err(DistError::Protocol(format!("bad objective tag {v}"))),
    };
    let fcfs_jobs = dec.u64()?;
    let job_size = match dec.u8()? {
        0 => JobSize::Deterministic,
        1 => JobSize::Exponential,
        v => return Err(DistError::Protocol(format!("bad job size tag {v}"))),
    };
    let seed = dec.u64()?;
    let latency = match dec.u8()? {
        0 => None,
        1 => Some(LatencyConfig {
            arrival_rate: dec.f64()?,
            measured_jobs: dec.u64()?,
            warmup_jobs: dec.u64()?,
            sizes: match dec.u8()? {
                0 => SizeDist::Deterministic,
                1 => SizeDist::Exponential,
                v => return Err(DistError::Protocol(format!("bad size dist tag {v}"))),
            },
            seed: dec.u64()?,
        }),
        v => return Err(DistError::Protocol(format!("bad latency flag {v}"))),
    };
    let spec = EvalSpec {
        policies,
        objective,
        fcfs_jobs,
        job_size,
        seed,
        latency,
    };
    Ok((unit, spec))
}

/// A policy by registry name; a name this build does not know is a
/// protocol error, since it came from outside the process.
fn get_policy(dec: &mut Reader<'_>) -> Result<Policy, DistError> {
    let name = dec.str()?;
    Policy::by_name(name)
        .ok_or_else(|| DistError::Protocol(format!("unknown policy name {name:?}")))
}

fn put_report(buf: &mut Writer, report: &SessionReport) {
    buf.u32(report.rows.len() as u32);
    for row in &report.rows {
        buf.str(row.policy.name());
        buf.f64(row.throughput);
        match &row.fractions {
            None => buf.u8(0),
            Some(fr) => {
                buf.u8(1);
                buf.u64(fr.len() as u64);
                for &f in fr {
                    buf.f64(f);
                }
            }
        }
        match &row.latency {
            None => buf.u8(0),
            Some(l) => {
                buf.u8(1);
                buf.f64(l.mean_turnaround);
                buf.f64(l.utilization);
                buf.f64(l.empty_fraction);
                buf.f64(l.throughput);
                buf.f64(l.mean_jobs_in_system);
                buf.u64(l.completed);
            }
        }
        match &row.batch {
            None => buf.u8(0),
            Some(b) => {
                buf.u8(1);
                buf.f64(b.makespan);
                buf.f64(b.throughput);
                buf.f64(b.mean_turnaround);
            }
        }
    }
}

fn get_report(dec: &mut Reader<'_>) -> Result<SessionReport, DistError> {
    // A row takes at least its policy name's length, throughput and
    // three option flags.
    let n = dec.count_u32(4 + 8 + 3, "row count")?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let policy = get_policy(dec)?;
        let throughput = dec.f64()?;
        let fractions = match dec.u8()? {
            0 => None,
            1 => {
                let k = dec.count_u64(8, "fraction count")?;
                let mut fr = Vec::with_capacity(k);
                for _ in 0..k {
                    fr.push(dec.f64()?);
                }
                Some(fr)
            }
            v => return Err(DistError::Protocol(format!("bad fractions flag {v}"))),
        };
        let latency = match dec.u8()? {
            0 => None,
            1 => Some(queueing::LatencyReport {
                mean_turnaround: dec.f64()?,
                utilization: dec.f64()?,
                empty_fraction: dec.f64()?,
                throughput: dec.f64()?,
                mean_jobs_in_system: dec.f64()?,
                completed: dec.u64()?,
            }),
            v => return Err(DistError::Protocol(format!("bad latency flag {v}"))),
        };
        let batch = match dec.u8()? {
            0 => None,
            1 => Some(queueing::BatchReport {
                makespan: dec.f64()?,
                throughput: dec.f64()?,
                mean_turnaround: dec.f64()?,
            }),
            v => return Err(DistError::Protocol(format!("bad batch flag {v}"))),
        };
        rows.push(PolicyReport {
            policy,
            throughput,
            fractions,
            latency,
            batch,
        });
    }
    Ok(SessionReport { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> EvalSpec {
        EvalSpec {
            policies: vec![Policy::Optimal, Policy::FcfsEvent],
            objective: Objective::MaxThroughput,
            fcfs_jobs: 4000,
            job_size: JobSize::Exponential,
            seed: 0xBEEF,
            latency: Some(LatencyConfig {
                arrival_rate: 1.25,
                measured_jobs: 500,
                warmup_jobs: 50,
                sizes: SizeDist::Exponential,
                seed: 7,
            }),
        }
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
            },
            Frame::Welcome {
                version: PROTOCOL_VERSION,
                table_fingerprint: 0xDEAD_BEEF_F00D_CAFE,
                unit: WorkUnit::Weighted,
                spec: sample_spec(),
                total_workloads: 495,
            },
            Frame::TableRequest,
            Frame::TableBytes {
                bytes: vec![1, 2, 3, 255, 0, 42],
            },
            Frame::FetchChunk,
            Frame::Chunk {
                id: 3,
                workloads: vec![vec![0, 5, 7, 11], vec![1, 2, 3, 4]],
            },
            Frame::Rows {
                id: 3,
                reports: vec![SessionReport {
                    rows: vec![PolicyReport {
                        policy: Policy::Optimal,
                        throughput: 2.625_481_828,
                        fractions: Some(vec![0.25, 0.75]),
                        latency: Some(queueing::LatencyReport {
                            mean_turnaround: 10.5,
                            utilization: 0.9,
                            empty_fraction: 0.01,
                            throughput: 1.1,
                            mean_jobs_in_system: 4.2,
                            completed: 500,
                        }),
                        batch: Some(queueing::BatchReport {
                            makespan: 100.0,
                            throughput: 1.9,
                            mean_turnaround: 55.0,
                        }),
                    }],
                }],
            },
            Frame::Drained,
            Frame::Error {
                message: "look out — ünïcode".into(),
            },
        ]
    }

    #[test]
    fn every_frame_round_trips_through_its_wire_image() {
        assert_eq!(PROTOCOL_VERSION, 3);
        for frame in sample_frames() {
            let wire = frame.encode();
            let back = Frame::decode_wire(&wire).expect("decode what we encoded");
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn f64_payloads_survive_bit_exactly() {
        let ugly = f64::MIN_POSITIVE * 3.0; // subnormal-adjacent
        let frame = Frame::Rows {
            id: 0,
            reports: vec![SessionReport {
                rows: vec![PolicyReport {
                    policy: Policy::Worst,
                    throughput: ugly,
                    fractions: Some(vec![-0.0, f64::MAX, 1e-300]),
                    latency: None,
                    batch: None,
                }],
            }],
        };
        let back = Frame::decode_wire(&frame.encode()).unwrap();
        let Frame::Rows { reports, .. } = back else {
            panic!("wrong frame kind");
        };
        let row = &reports[0].rows[0];
        assert_eq!(row.throughput.to_bits(), ugly.to_bits());
        let fr = row.fractions.as_ref().unwrap();
        assert_eq!(fr[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(fr[1].to_bits(), f64::MAX.to_bits());
        assert_eq!(fr[2].to_bits(), 1e-300f64.to_bits());
    }

    #[test]
    fn corruption_is_rejected() {
        let wire = Frame::Welcome {
            version: PROTOCOL_VERSION,
            table_fingerprint: 1,
            unit: WorkUnit::Weighted,
            spec: sample_spec(),
            total_workloads: 10,
        }
        .encode();

        // Flip one payload byte: checksum mismatch.
        let mut flipped = wire.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            Frame::decode_wire(&flipped),
            Err(DistError::Protocol(m)) if m.contains("checksum")
        ));

        // Truncate: length prefix no longer matches the image.
        let truncated = &wire[..wire.len() - 3];
        assert!(matches!(
            Frame::decode_wire(truncated),
            Err(DistError::Protocol(_))
        ));

        // Unknown frame kind (fix up the checksum so only the kind is bad).
        let mut unknown = Frame::Drained.encode();
        unknown[4] = 200;
        let len = unknown.len();
        let sum = codec::fnv1a(&unknown[4..len - 8]);
        unknown[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Frame::decode_wire(&unknown),
            Err(DistError::Protocol(m)) if m.contains("unknown frame kind")
        ));

        // Trailing garbage inside a checksummed body.
        let mut padded_body = vec![8u8, 0, 0, 0]; // Drained kind + 3 extra bytes
        padded_body.push(0);
        let mut padded = Vec::new();
        padded.extend_from_slice(&(padded_body.len() as u32).to_le_bytes());
        padded.extend_from_slice(&padded_body);
        padded.extend_from_slice(&codec::fnv1a(&padded_body).to_le_bytes());
        assert!(matches!(
            Frame::decode_wire(&padded),
            Err(DistError::Protocol(m)) if m.contains("trailing")
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            Frame::decode_wire(&wire),
            Err(DistError::Protocol(m)) if m.contains("exceeds")
        ));
    }

    #[test]
    fn spec_with_no_latency_round_trips() {
        let spec = EvalSpec {
            latency: None,
            ..sample_spec()
        };
        let wire = Frame::Welcome {
            version: PROTOCOL_VERSION,
            table_fingerprint: 0,
            unit: WorkUnit::Plain,
            spec: spec.clone(),
            total_workloads: 1,
        }
        .encode();
        let Frame::Welcome { spec: back, .. } = Frame::decode_wire(&wire).unwrap() else {
            panic!("wrong frame kind");
        };
        assert_eq!(back, spec);
    }

    #[test]
    fn welcome_wire_images_match_protocol_v3() {
        // Length and checksum of two `Welcome` images, recorded before the
        // spec became typed: the layout is part of protocol v3.
        let image = |unit, spec, table_fingerprint, total_workloads| {
            let wire = Frame::Welcome {
                version: PROTOCOL_VERSION,
                table_fingerprint,
                unit,
                spec,
                total_workloads,
            }
            .encode();
            (wire.len(), codec::fnv1a(&wire))
        };
        let every_field = EvalSpec {
            policies: vec![Policy::Optimal, Policy::FcfsEvent, Policy::MaxTp],
            objective: Objective::MinThroughput,
            ..sample_spec()
        };
        assert_eq!(
            image(WorkUnit::Plain, every_field, 0xDEAD_BEEF_F00D_CAFE, 495),
            (124, 0x434c_05ef_fd8a_7bdc)
        );
        let defaults = EvalSpec {
            policies: vec![Policy::Worst],
            ..EvalSpec::default()
        };
        assert_eq!(
            image(WorkUnit::Weighted, defaults, 1, 10),
            (66, 0x5f58_84a9_b407_3abb)
        );
    }

    #[test]
    fn a_welcome_naming_an_unknown_policy_is_a_protocol_error() {
        let wire = Frame::Welcome {
            version: PROTOCOL_VERSION,
            table_fingerprint: 0,
            unit: WorkUnit::Weighted,
            spec: sample_spec(),
            total_workloads: 1,
        }
        .encode();
        // Rename the first policy in place ("OPTIMAL" -> "OPTIMUS", same
        // length) and re-seal the checksum, so only the name is wrong.
        let at = wire
            .windows(7)
            .position(|w| w == b"OPTIMAL")
            .expect("policy name on the wire");
        let mut renamed = wire.clone();
        renamed[at..at + 7].copy_from_slice(b"OPTIMUS");
        let len = renamed.len();
        let sum = codec::fnv1a(&renamed[4..len - 8]);
        renamed[len - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            Frame::decode_wire(&renamed),
            Err(DistError::Protocol(m)) if m.contains("unknown policy name \"OPTIMUS\"")
        ));
    }
}

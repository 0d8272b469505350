//! Synthetic instruction-stream generation from statistical profiles.

use crate::insn::{Insn, InsnKind};
use crate::profile::BenchmarkProfile;
use crate::rng::SplitMix64;

/// Bits reserved per thread for its private address space. Multiprogrammed
/// SPEC jobs share no data, so each thread context draws addresses from a
/// disjoint region tagged with its slot index.
const THREAD_SPACE_SHIFT: u32 = 44;

/// Integer threshold for a Bernoulli draw with probability `p`: the draw
/// `SplitMix64::chance(p)`, i.e. `(u >> 11) as f64 * 2^-53 < p`, holds
/// exactly when `u >> 11 < threshold(p)`. Scaling by 2^53 is exact, and an
/// integer lies below a real iff it lies below its ceiling; the saturating
/// cast keeps `p <= 0` never true and `p >= 1` always true.
fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// An endless, deterministic stream of [`Insn`]s drawn from a
/// [`BenchmarkProfile`].
///
/// Two generators constructed with the same `(profile, slot)` produce the
/// same stream; different slots running the same profile produce
/// decorrelated streams over disjoint address spaces.
///
/// # Examples
///
/// ```
/// use simproc::{profile::BenchmarkProfile, trace::TraceGen};
///
/// let profile = BenchmarkProfile::balanced("demo", 7);
/// let mut gen = TraceGen::new(&profile, 0, 64);
/// let insn = gen.next_insn();
/// let _ = insn.kind;
/// ```
#[derive(Debug, Clone)]
pub struct TraceGen {
    rng: SplitMix64,
    // Integer draw thresholds (see `threshold`); the class mix is
    // cumulative.
    p_load: u64,
    p_store: u64,
    p_branch: u64,
    p_long: u64,
    mispredict_rate: u64,
    dep_frac: u64,
    frontend_stall_rate: u64,
    stack_lines: u64,
    stack_frac: u64,
    hot_lines: u64,
    footprint_lines: u64,
    hot_frac: u64,
    streaming_frac: u64,
    line_bytes: u64,
    thread_tag: u64,
    stream_pos: u64,
}

impl TraceGen {
    /// Creates a generator for `profile` running on hardware context `slot`.
    ///
    /// `line_bytes` must match the machine's cache line size so generated
    /// addresses are line-aligned.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`BenchmarkProfile::validate`].
    pub fn new(profile: &BenchmarkProfile, slot: usize, line_bytes: u32) -> Self {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid profile {}: {e}", profile.name));
        let rng = SplitMix64::new(profile.seed).derive(slot as u64);
        TraceGen {
            rng,
            p_load: threshold(profile.load_frac),
            p_store: threshold(profile.load_frac + profile.store_frac),
            p_branch: threshold(profile.load_frac + profile.store_frac + profile.branch_frac),
            p_long: threshold(
                profile.load_frac + profile.store_frac + profile.branch_frac + profile.long_op_frac,
            ),
            mispredict_rate: threshold(profile.mispredict_rate),
            dep_frac: threshold(profile.dep_frac),
            frontend_stall_rate: threshold(profile.frontend_stall_rate),
            stack_lines: profile.stack_lines,
            stack_frac: threshold(profile.stack_frac),
            hot_lines: profile.hot_lines,
            footprint_lines: profile.footprint_lines,
            hot_frac: threshold(profile.hot_frac),
            streaming_frac: threshold(profile.streaming_frac),
            line_bytes: line_bytes as u64,
            thread_tag: (slot as u64 + 1) << THREAD_SPACE_SHIFT,
            stream_pos: 0,
        }
    }

    /// Produces the next dynamic instruction.
    pub fn next_insn(&mut self) -> Insn {
        let class_draw = self.draw();
        let on_chain = self.draw() < self.dep_frac;
        let fetch_bubble = self.draw() < self.frontend_stall_rate;
        if class_draw < self.p_load {
            Insn {
                kind: InsnKind::Load,
                addr: self.next_addr(),
                on_chain,
                mispredicted: false,
                fetch_bubble,
            }
        } else if class_draw < self.p_store {
            Insn {
                kind: InsnKind::Store,
                addr: self.next_addr(),
                on_chain: false, // stores retire via the store buffer
                mispredicted: false,
                fetch_bubble,
            }
        } else if class_draw < self.p_branch {
            Insn {
                kind: InsnKind::Branch,
                addr: 0,
                on_chain: true, // branch resolution waits on its inputs
                mispredicted: self.draw() < self.mispredict_rate,
                fetch_bubble,
            }
        } else if class_draw < self.p_long {
            Insn {
                kind: InsnKind::LongOp,
                addr: 0,
                on_chain,
                mispredicted: false,
                fetch_bubble,
            }
        } else {
            Insn {
                kind: InsnKind::Alu,
                addr: 0,
                on_chain,
                mispredicted: false,
                fetch_bubble,
            }
        }
    }

    /// Uniform 53-bit draw: the integer numerator of `SplitMix64::next_f64`,
    /// compared against thresholds from `threshold`.
    fn draw(&mut self) -> u64 {
        self.rng.next_u64() >> 11
    }

    /// Next data address (line-aligned, inside this thread's region).
    fn next_addr(&mut self) -> u64 {
        let line = if self.draw() < self.streaming_frac {
            // Sequential walk over the whole footprint: minimal temporal
            // reuse, maximal cache pollution.
            self.stream_pos = (self.stream_pos + 1) % self.footprint_lines;
            self.stream_pos
        } else if self.draw() < self.stack_frac {
            // Innermost tier: stack frames / loop-resident data (L1-sized).
            self.rng.next_range(self.stack_lines)
        } else if self.draw() < self.hot_frac {
            self.rng.next_range(self.hot_lines)
        } else {
            self.rng.next_range(self.footprint_lines)
        };
        self.thread_tag | (line * self.line_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::InsnKind;
    use std::collections::HashMap;

    fn count_kinds(gen: &mut TraceGen, n: usize) -> HashMap<InsnKind, usize> {
        let mut counts = HashMap::new();
        for _ in 0..n {
            *counts.entry(gen.next_insn().kind).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn mix_matches_profile_statistically() {
        let p = BenchmarkProfile::balanced("mix", 42);
        let mut gen = TraceGen::new(&p, 0, 64);
        let n = 100_000;
        let counts = count_kinds(&mut gen, n);
        let frac = |k: InsnKind| *counts.get(&k).unwrap_or(&0) as f64 / n as f64;
        assert!((frac(InsnKind::Load) - p.load_frac).abs() < 0.01);
        assert!((frac(InsnKind::Store) - p.store_frac).abs() < 0.01);
        assert!((frac(InsnKind::Branch) - p.branch_frac).abs() < 0.01);
        assert!((frac(InsnKind::LongOp) - p.long_op_frac).abs() < 0.01);
    }

    #[test]
    fn streams_are_deterministic_per_slot() {
        let p = BenchmarkProfile::balanced("det", 7);
        let mut a = TraceGen::new(&p, 2, 64);
        let mut b = TraceGen::new(&p, 2, 64);
        for _ in 0..1000 {
            assert_eq!(a.next_insn(), b.next_insn());
        }
    }

    #[test]
    fn different_slots_decorrelate_and_separate_address_spaces() {
        let p = BenchmarkProfile::balanced("slots", 7);
        let mut a = TraceGen::new(&p, 0, 64);
        let mut b = TraceGen::new(&p, 1, 64);
        let mut identical = 0;
        for _ in 0..1000 {
            let (ia, ib) = (a.next_insn(), b.next_insn());
            if ia == ib {
                identical += 1;
            }
            if ia.is_memory() && ib.is_memory() {
                assert_ne!(
                    ia.addr >> THREAD_SPACE_SHIFT,
                    ib.addr >> THREAD_SPACE_SHIFT,
                    "address spaces must be disjoint"
                );
            }
        }
        assert!(identical < 900, "streams should differ between slots");
    }

    #[test]
    fn addresses_are_line_aligned_and_in_footprint() {
        let p = BenchmarkProfile::balanced("addr", 3);
        let mut gen = TraceGen::new(&p, 1, 64);
        for _ in 0..10_000 {
            let i = gen.next_insn();
            if i.is_memory() {
                assert_eq!(i.addr % 64, 0, "addresses must be line aligned");
                let line = (i.addr & ((1 << THREAD_SPACE_SHIFT) - 1)) / 64;
                assert!(line < p.footprint_lines);
            }
        }
    }

    #[test]
    fn hot_set_receives_most_accesses() {
        let mut p = BenchmarkProfile::balanced("hot", 11);
        p.streaming_frac = 0.0;
        let mut gen = TraceGen::new(&p, 0, 64);
        let (mut stack, mut hot, mut total) = (0u64, 0u64, 0u64);
        for _ in 0..50_000 {
            let i = gen.next_insn();
            if i.is_memory() {
                total += 1;
                let line = (i.addr & ((1 << THREAD_SPACE_SHIFT) - 1)) / 64;
                if line < p.stack_lines {
                    stack += 1;
                }
                if line < p.hot_lines {
                    hot += 1;
                }
            }
        }
        // The stack tier alone draws stack_frac of accesses; the hot set
        // (a superset of the stack) draws at least stack + (1-stack)*hot.
        assert!(stack as f64 / total as f64 > p.stack_frac - 0.05);
        let hot_expected = p.stack_frac + (1.0 - p.stack_frac) * p.hot_frac;
        assert!(hot as f64 / total as f64 > hot_expected - 0.05);
    }

    #[test]
    fn branches_mispredict_at_profile_rate() {
        let mut p = BenchmarkProfile::balanced("bp", 5);
        p.mispredict_rate = 0.10;
        let mut gen = TraceGen::new(&p, 0, 64);
        let (mut branches, mut missed) = (0u64, 0u64);
        for _ in 0..200_000 {
            let i = gen.next_insn();
            if i.kind == InsnKind::Branch {
                branches += 1;
                if i.mispredicted {
                    missed += 1;
                }
            }
        }
        let rate = missed as f64 / branches as f64;
        assert!((rate - 0.10).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn thresholds_reproduce_float_bernoulli_draws() {
        let scale = 1.0 / (1u64 << 53) as f64;
        for p in [
            0.0,
            1e-300,
            1e-9,
            0.01,
            0.1,
            1.0 / 3.0,
            0.5,
            0.7,
            1.0 - 1e-16,
            1.0,
        ] {
            let t = threshold(p);
            // `x < t` iff `x * 2^-53 < p`, checked at the boundary ...
            if t > 0 {
                assert!(((t - 1) as f64) * scale < p, "p = {p}");
            }
            if t < 1 << 53 {
                assert!((t as f64) * scale >= p, "p = {p}");
            }
            // ... and on a live stream.
            let mut a = SplitMix64::new(99);
            let mut b = a.clone();
            for _ in 0..10_000 {
                assert_eq!(a.chance(p), (b.next_u64() >> 11) < t, "p = {p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid profile")]
    fn invalid_profile_panics() {
        let mut p = BenchmarkProfile::balanced("bad", 1);
        p.hot_lines = 0;
        let _ = TraceGen::new(&p, 0, 64);
    }
}

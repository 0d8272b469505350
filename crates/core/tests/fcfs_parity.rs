//! Golden parity of the FCFS-EVENT maximum-throughput experiment.
//!
//! Every case runs [`fcfs_throughput`] once and folds the outcome
//! (throughput bits, every fraction's bits and `completed`) into a 64-bit
//! FNV-1a digest. The cases of one `(N, K, law)` group fold into one
//! pinned digest, so a failure names the table shape and job-size law
//! that moved. Performance work on the event loop must leave all of them
//! untouched.
//!
//! The cases cover:
//!
//! * both [`JobSize`] laws — deterministic sizes make many slots finish
//!   in the same event, exponential sizes almost never do;
//! * job counts `K` and `K + 1` (the first event ends the run), odd 999
//!   and 5 001;
//! * `K ∈ {1, 2, 3, 4, 5, 8}` contexts over `N ∈ {1, 3, 4}` job types,
//!   plus `N = 12` at `K = 4` (1 365 coschedules);
//! * three seeds per configuration.
//!
//! If a change is *meant* to alter simulated results, re-pin the digests
//! from the failure message.

use symbiosis::rng::SplitMix64;
use symbiosis::{fcfs_throughput, FcfsOutcome, JobSize, WorkloadRates};

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn outcome_words(out: &FcfsOutcome) -> impl Iterator<Item = u64> + '_ {
    std::iter::once(out.throughput.to_bits())
        .chain(out.fractions.iter().map(|f| f.to_bits()))
        .chain(std::iter::once(out.completed))
}

/// A seeded, symbiosis-sensitive rate table: every present type gets a
/// per-`(coschedule, type)` pseudo-random per-job rate with a
/// heterogeneity tilt, so slots of different types progress at unrelated
/// speeds and the coschedule mix matters.
fn table(n: usize, k: usize) -> WorkloadRates {
    WorkloadRates::build(n, k, |s| {
        let het = s.heterogeneity() as f64 / k as f64;
        s.counts()
            .iter()
            .enumerate()
            .map(|(b, &c)| {
                if c == 0 {
                    return 0.0;
                }
                let mut h = 0x5eed_f0cf_u64;
                for &cnt in s.counts() {
                    h = (h ^ cnt as u64).wrapping_mul(0x100_0000_01b3);
                }
                let u = SplitMix64::new(h ^ ((b as u64) << 32)).next_f64();
                c as f64 * (0.15 + 0.75 * u) * (0.6 + 0.4 * het)
            })
            .collect()
    })
    .expect("valid table")
}

const SEEDS: [u64; 3] = [1, 7, 0xfcf5];

/// Digest of every `(jobs, seed)` case of one `(N, K, law)` group.
fn group_digest(rates: &WorkloadRates, sizes: JobSize) -> u64 {
    let k = rates.contexts() as u64;
    let mut words = Vec::new();
    for jobs in [k, k + 1, 999, 5_001] {
        for seed in SEEDS {
            let out = fcfs_throughput(rates, jobs, sizes, seed).expect("runs");
            assert!(out.completed >= jobs && out.completed < jobs + k);
            words.extend(outcome_words(&out));
        }
    }
    fnv1a(words)
}

/// `(N, K, deterministic digest, exponential digest)`.
const GOLDEN: [(usize, usize, u64, u64); 19] = [
    (1, 1, 0xd58b1d3896a5ee70, 0xcdc86ff593828ea2),
    (1, 2, 0x4094c72050eec1de, 0x4d2d5d92c1854df9),
    (1, 3, 0x1e9ba9710aa964a8, 0x1fe8f46fb348729b),
    (1, 4, 0x24e18b7288876e25, 0xe02d41e4ffd08ec6),
    (1, 5, 0x88f1c0baa3855b19, 0xce28e0471ac96d15),
    (1, 8, 0x169162aca38c6b89, 0xd0324a3d44a0def8),
    (3, 1, 0x734f2b2c0ebbb197, 0xb26537c9a4042d4a),
    (3, 2, 0x0d53729dc9bb7327, 0xdcc3e0db7f71b273),
    (3, 3, 0x4f72a0abe41f56bb, 0x6f2914eb96ea7abe),
    (3, 4, 0x7aef9d1a68d3d9cb, 0x664f70ebac6b1c6e),
    (3, 5, 0xa42169f72c66308c, 0x1ead48472f2c6771),
    (3, 8, 0x66dbb875698e50f8, 0xcb9645722e6bc7ab),
    (4, 1, 0x2f0b26f2d68afca2, 0xe3499628cd99a730),
    (4, 2, 0x460fd7ce04b8ea32, 0xccd3dc3db4ab6d8a),
    (4, 3, 0xe05aacf6d9e30725, 0x535aec9583e1aa9e),
    (4, 4, 0x409a3a1279e413b6, 0x0482dfaa8a532fbf),
    (4, 5, 0xc6254a761bf2448b, 0xb2e4a6854f607d76),
    (4, 8, 0xdf95ffa4ce69362b, 0x34941d545546b311),
    (12, 4, 0xbd32738cd5be8fee, 0x9a666003095a1aa2),
];

#[test]
fn event_sim_outcomes_match_golden_digests() {
    let mut mismatches = Vec::new();
    for &(n, k, det, exp) in &GOLDEN {
        let rates = table(n, k);
        let got = (
            group_digest(&rates, JobSize::Deterministic),
            group_digest(&rates, JobSize::Exponential),
        );
        if got != (det, exp) {
            mismatches.push(format!("    ({n}, {k}, {:#018x}, {:#018x}),", got.0, got.1));
        }
    }
    assert!(
        mismatches.is_empty(),
        "FCFS-EVENT outcomes moved; if intended, re-pin these rows:\n{}",
        mismatches.join("\n")
    );
}

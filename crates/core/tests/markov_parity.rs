//! Golden parity of the accelerated FCFS-MARKOV tier.
//!
//! Every case solves one coschedule chain through the accelerated
//! stationary solver and folds the outcome (throughput bits and every
//! fraction's bits) into a 64-bit FNV-1a digest. The seeds of one
//! `(N, K)` shape fold into one pinned digest, so a failure names the
//! shape that moved. The digests fix the colored sweep order — classes
//! by count-weighted type sum mod N ascending, states in index order
//! within a class — and hold on any host, whatever its core count (CI
//! also runs this file pinned to one core).
//!
//! The cases cover:
//!
//! * the random shapes of `solver_parity.rs` (3 to 330 states), forced
//!   onto the accelerated tier with `accel_limit = 0`;
//! * one chain past [`DEFAULT_MARKOV_ACCEL_LIMIT`] at the default
//!   thresholds: `(N, K) = (12, 6)`, 12 376 states.
//!
//! If a change is *meant* to alter solved results, re-pin the digests
//! from the failure message.

use symbiosis::rng::SplitMix64;
use symbiosis::{
    fcfs_throughput_markov, fcfs_throughput_markov_tuned, FcfsOutcome, WorkloadRates,
    DEFAULT_MARKOV_ACCEL_LIMIT,
};

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
    std::iter::once(out.throughput.to_bits()).chain(out.fractions.iter().map(|f| f.to_bits()))
}

/// The seeded random rate table of `solver_parity.rs`: every present type
/// gets a per-`(coschedule, type)` pseudo-random rate with a mild
/// heterogeneity tilt.
fn random_rates(n: usize, k: usize, seed: u64) -> WorkloadRates {
    WorkloadRates::build(n, k, |s| {
        let het = s.heterogeneity() as f64 / k as f64;
        s.counts()
            .iter()
            .enumerate()
            .map(|(b, &c)| {
                if c == 0 {
                    return 0.0;
                }
                let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
                for &cnt in s.counts() {
                    h = (h ^ cnt as u64).wrapping_mul(0x100_0000_01b3);
                }
                let mut rng = SplitMix64::new(h ^ (b as u64) << 32);
                let u = rng.next_f64();
                c as f64 * (0.15 + 0.75 * u) * (0.6 + 0.4 * het)
            })
            .collect()
    })
    .expect("valid random table")
}

const SEEDS: [u64; 3] = [1, 0xBEEF, 0x1234_5678];

/// `solver_parity.rs`'s shapes with the digest of their three seeds.
const SHAPES: [((usize, usize), u64); 9] = [
    ((2, 2), 0x99cb_0b74_6552_e996),
    ((3, 3), 0xc847_e972_92fe_3631),
    ((4, 4), 0xbc3c_e60e_9d4b_bd9d),
    ((5, 3), 0xc9c6_5d96_18a3_0c84),
    ((6, 4), 0xcf0c_58ae_e20c_cbb1),
    ((8, 4), 0x0a93_56ca_4a5b_53b4),
    ((4, 6), 0x2aa9_8391_3094_ef2c),
    ((3, 8), 0xe573_fb37_ee9e_01eb),
    ((5, 5), 0x52d4_329d_ddb0_e2a2),
];

#[test]
fn accelerated_tier_matches_golden_digests() {
    let mut moved = Vec::new();
    for ((n, k), pinned) in SHAPES {
        let mut words = Vec::new();
        for seed in SEEDS {
            let rates = random_rates(n, k, seed);
            let out = fcfs_throughput_markov_tuned(&rates, 0, 0).expect("solves");
            words.extend(outcome_words(&out));
        }
        let got = fnv1a(words);
        if got != pinned {
            moved.push(format!("({n}, {k}): {got:#018x}"));
        }
    }
    assert!(moved.is_empty(), "digests moved: {}", moved.join(", "));
}

#[test]
fn default_dispatch_past_the_accel_limit_matches_golden_digest() {
    let rates = random_rates(12, 6, 1);
    assert_eq!(rates.coschedules().len(), 12_376);
    assert!(rates.coschedules().len() > DEFAULT_MARKOV_ACCEL_LIMIT);
    let out = fcfs_throughput_markov(&rates).expect("solves");
    let got = fnv1a(outcome_words(&out));
    assert_eq!(
        got, 0x7b55_9cc5_bacc_c61a,
        "(12, 6) digest moved: {got:#018x}"
    );
}

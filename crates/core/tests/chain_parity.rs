//! Golden parity of the assembled FCFS-MARKOV chains.
//!
//! [`markov_chain`] and [`markov_chain_colored`] are the inputs of every
//! sparse stationary solve, so their bits fix the solved bits. Each case
//! folds one chain — every row's length, column indices and value bits,
//! then the outflow bits, then (colored) the position map — into a 64-bit
//! FNV-1a digest. The cases cover a tiny shape in both orders, the
//! Gauss–Seidel tier's `(6, 8)` chain in natural order, the accelerated
//! tier's `(8, 8)` chain in color order and a `(12, 6)` chain in both.
//!
//! The chains depend on a per-shape structure that is built once and
//! reused, so this file also checks that a repeated request and two
//! concurrent first requests give the same chain as a fresh one.
//!
//! If a change is *meant* to alter the assembled chains, re-pin the
//! digests from the failure message.

use std::sync::Barrier;

use symbiosis::rng::SplitMix64;
use symbiosis::{markov_chain, markov_chain_colored, WorkloadRates};

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

/// The seeded random rate table of `markov_parity.rs`.
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

/// Every word of a chain: per row its length, columns and value bits,
/// then each outflow's bits, then the position map.
fn chain_words(inflow: &lp::Csr, outflow: &[f64], position: &[u32]) -> Vec<u64> {
    let mut words = Vec::new();
    for j in 0..inflow.nrows() {
        let (cols, vals) = inflow.row(j);
        words.push(cols.len() as u64);
        words.extend(cols.iter().map(|&c| u64::from(c)));
        words.extend(vals.iter().map(|v| v.to_bits()));
    }
    words.extend(outflow.iter().map(|f| f.to_bits()));
    words.extend(position.iter().map(|&p| u64::from(p)));
    words
}

fn natural_digest(rates: &WorkloadRates) -> u64 {
    let (inflow, outflow) = markov_chain(rates);
    fnv1a(chain_words(&inflow, &outflow, &[]))
}

fn colored_digest(rates: &WorkloadRates) -> u64 {
    let (inflow, outflow, position) = markov_chain_colored(rates);
    fnv1a(chain_words(&inflow, &outflow, &position))
}

#[test]
fn natural_chains_match_golden_digests() {
    let mut moved = Vec::new();
    for ((n, k), pinned) in [
        ((3, 3), 0x02ab_678d_1701_784e_u64),
        ((6, 8), 0x9fe2_f05e_c99d_067d),
        ((12, 6), 0x4023_f934_6c98_98e5),
    ] {
        let got = natural_digest(&random_rates(n, k, 1));
        if got != pinned {
            moved.push(format!("({n}, {k}): {got:#018x}"));
        }
    }
    assert!(moved.is_empty(), "digests moved: {}", moved.join(", "));
}

#[test]
fn colored_chains_match_golden_digests() {
    let mut moved = Vec::new();
    for ((n, k), pinned) in [
        ((3, 3), 0xb2e7_c423_081a_e033_u64),
        ((8, 8), 0xf893_4b82_ea87_743a),
        ((12, 6), 0xbcaf_ca8a_c08d_b6b4),
    ] {
        let got = colored_digest(&random_rates(n, k, 1));
        if got != pinned {
            moved.push(format!("({n}, {k}): {got:#018x}"));
        }
    }
    assert!(moved.is_empty(), "digests moved: {}", moved.join(", "));
}

#[test]
fn a_repeated_request_gives_the_first_chain() {
    // (7, 5) is this test's own shape, so its first request is cold.
    let first = random_rates(7, 5, 2);
    let cold = (markov_chain(&first), markov_chain_colored(&first));
    let warm = (markov_chain(&first), markov_chain_colored(&first));
    assert_eq!(cold, warm);
    // A warm request with other rates fills the same structure.
    let other = random_rates(7, 5, 3);
    let (inflow, _) = markov_chain(&other);
    assert_eq!(inflow.nnz(), cold.0 .0.nnz());
    for j in 0..inflow.nrows() {
        assert_eq!(inflow.row(j).0, cold.0 .0.row(j).0, "row {j} columns");
    }
}

#[test]
fn concurrent_first_requests_give_identical_chains() {
    // (9, 5) is this test's own shape: both threads ask for it cold.
    let rates = random_rates(9, 5, 4);
    let start = Barrier::new(2);
    let chains: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    (markov_chain(&rates), markov_chain_colored(&rates))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(chains[0], chains[1]);
}

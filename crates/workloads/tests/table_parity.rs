//! Golden parity of `PerfTable` construction, probes and persistence.
//!
//! Each case builds one small table — simulated, sampled, synthetic or
//! synthetic-sampled — and pins two 64-bit values:
//!
//! * its `content_fingerprint` (the FNV-1a 64 of the canonical `SPT1`
//!   bytes), which every cached table, dist table frame and perfbench
//!   reference keys on, so a layout change must leave it bit-identical;
//! * a digest of everything a reader can observe: the order and bits of
//!   `recorded_combos()`, `slot_ipcs` for every combo of the enumeration
//!   (including the `None` pattern of a sampled table), the solo IPCs,
//!   `combo_wipc`, the `workload_rates(..).rate_rows()` bits of every
//!   workload a full table can convert, and the `WorkloadView` per-job
//!   rates and instantaneous throughputs of every partial coschedule.
//!
//! Every table must also round-trip through `to_bytes` / `from_bytes`
//! unchanged. The simulated sweep is multi-threaded, so the goldens must
//! hold at any thread count and pinned to one core (CI runs this file
//! under `taskset -c 0` too).
//!
//! If a change is *meant* to alter the tables, re-pin the values from the
//! failure message.

use simproc::{BenchmarkProfile, Machine, MachineConfig};
use symbiosis::{enumerate_workloads, CoscheduleIter, RateModel};
use workloads::{spec2006, PerfTable};

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

/// Every count vector over `n` types with `1..=k` jobs, in
/// `CoscheduleIter` order, sizes ascending.
fn partial_counts(n: usize, k: usize) -> Vec<Vec<u32>> {
    (1..=k)
        .flat_map(|size| CoscheduleIter::new(n, size))
        .map(|s| s.counts().to_vec())
        .collect()
}

/// The observable-behaviour digest described in the module docs. Rates
/// are only read for workloads whose every coschedule is recorded, which
/// for a sampled table is none of the multi-type ones.
fn observable_digest(t: &PerfTable) -> u64 {
    let n = t.names().len();
    let k = t.contexts();
    let mut words = vec![t.len() as u64, k as u64, n as u64];
    for (combo, ipcs) in t.recorded_combos() {
        words.push(combo.len() as u64);
        words.extend(combo.iter().map(|&b| b as u64));
        words.extend(ipcs.iter().map(|v| v.to_bits()));
    }
    for s in (1..=k).flat_map(|size| CoscheduleIter::new(n, size)) {
        let combo = s.slots();
        match t.slot_ipcs(&combo) {
            None => words.push(u64::MAX),
            Some(ipcs) => {
                words.extend(ipcs.iter().map(|v| v.to_bits()));
                words.push(t.combo_wipc(&combo).expect("recorded").to_bits());
            }
        }
    }
    words.extend((0..n).map(|b| t.solo_ipc(b).to_bits()));
    if t.len() == (1..=k).map(|s| CoscheduleIter::count_total(n, s)).sum() {
        for size in 1..=n.min(3) {
            for types in enumerate_workloads(n, size) {
                let rates = t.workload_rates(&types).expect("complete table");
                for row in rates.rate_rows() {
                    words.extend(row.iter().map(|v| v.to_bits()));
                }
                let view = t.workload_view(&types).expect("valid workload");
                for counts in partial_counts(size, k) {
                    words.push(view.instantaneous_throughput(&counts).to_bits());
                    for ty in (0..size).filter(|&ty| counts[ty] > 0) {
                        words.push(view.per_job_rate(&counts, ty).to_bits());
                    }
                }
            }
        }
    }
    fnv1a(words)
}

/// Asserts the pinned fingerprint and digest, and the byte round trip.
fn check(label: &str, t: &PerfTable, fingerprint: u64, digest: u64) {
    let bytes = t.to_bytes();
    let back = PerfTable::from_bytes(&bytes).expect("own bytes load");
    assert_eq!(
        &back, t,
        "{label}: from_bytes(to_bytes()) changed the table"
    );
    assert_eq!(back.to_bytes(), bytes, "{label}: re-encoding changed bytes");
    let got = (t.content_fingerprint(), observable_digest(t));
    assert_eq!(
        got,
        (fingerprint, digest),
        "{label}: (fingerprint, digest) = ({:#018x}, {:#018x})",
        got.0,
        got.1
    );
    assert_eq!(observable_digest(&back), digest, "{label}: loaded digest");
}

fn machine() -> Machine {
    Machine::new(MachineConfig::smt4().with_windows(1_000, 3_000)).expect("valid config")
}

fn suite() -> Vec<BenchmarkProfile> {
    spec2006().into_iter().take(3).collect()
}

/// Solos plus a spread of larger combos of the 34-combo enumeration.
const SIM_SAMPLE: [usize; 8] = [0, 1, 2, 4, 7, 11, 20, 33];

/// A synthetic slot-IPC law where slot order and co-runners both matter.
fn synthetic_ipcs(combo: &[usize]) -> Vec<f64> {
    let load: usize = combo.iter().sum();
    combo
        .iter()
        .enumerate()
        .map(|(slot, &b)| {
            (1.0 + b as f64 * 0.37 + slot as f64 * 0.013) / (combo.len() as f64 + 0.1 * load as f64)
        })
        .collect()
}

fn synthetic_names() -> Vec<String> {
    (0..5).map(|b| format!("syn{b}")).collect()
}

/// Solos plus a spread of the 5-type, 3-context enumeration (55 combos).
const SYN_SAMPLE: [usize; 10] = [0, 1, 2, 3, 4, 6, 9, 17, 30, 54];

const BUILD: (u64, u64) = (0xb325_4a96_689a_d3dc, 0x1b3c_c362_b0c6_47ab);
const BUILD_SAMPLED: (u64, u64) = (0xdd76_902a_f24c_b8a3, 0x0bf0_00dd_23cb_d75b);
const SYNTHETIC: (u64, u64) = (0x8406_9562_1e01_89c6, 0x66b4_a27d_4bbe_1578);
const SYNTHETIC_SAMPLED: (u64, u64) = (0x4dae_c7e6_7eff_41f4, 0xdefd_e7ea_8744_68ee);

#[test]
fn simulated_build_is_pinned_at_one_and_four_threads() {
    let (m, s) = (machine(), suite());
    for threads in [1, 4] {
        let t = PerfTable::build(&m, &s, threads).expect("build");
        check(&format!("build threads={threads}"), &t, BUILD.0, BUILD.1);
    }
}

#[test]
fn sampled_build_is_pinned() {
    let t = PerfTable::build_sampled(&machine(), &suite(), 2, &SIM_SAMPLE).expect("sampled build");
    assert_eq!(t.len(), SIM_SAMPLE.len());
    check("build_sampled", &t, BUILD_SAMPLED.0, BUILD_SAMPLED.1);
}

#[test]
fn synthetic_tables_are_pinned() {
    let full = PerfTable::synthetic(synthetic_names(), 3, synthetic_ipcs).expect("synthetic");
    check("synthetic", &full, SYNTHETIC.0, SYNTHETIC.1);
    let sampled = PerfTable::synthetic_sampled(synthetic_names(), 3, &SYN_SAMPLE, synthetic_ipcs)
        .expect("synthetic_sampled");
    assert_eq!(sampled.len(), SYN_SAMPLE.len());
    check(
        "synthetic_sampled",
        &sampled,
        SYNTHETIC_SAMPLED.0,
        SYNTHETIC_SAMPLED.1,
    );
}

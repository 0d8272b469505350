//! Golden parity of the simulation engine.
//!
//! Every case below simulates one coschedule and folds the full
//! [`SimResult`] (window length, per-context committed counts and IPC bits,
//! L1D/L2/L3 statistics, bus statistics) into a 64-bit FNV-1a digest that is
//! pinned here. Any engine change that moves a single published number
//! breaks a digest, so performance work on the engine must leave all of
//! them untouched.
//!
//! The cases cover the machine variants the paper's Section VII sweeps
//! (ICOUNT and round-robin fetch, dynamic and static ROB sharing, the
//! dynamic-reservation ablation) on `smt4`, `quadcore` and `smt8`, with
//! solo, pair and full coschedules. Windows are deliberately odd
//! (1 237 warm-up + 4 999 measured cycles, plus a zero-warm-up case) so
//! that an engine which skips idle cycles past the warm-up boundary or
//! past the end of the window is caught.
//!
//! If a change is *meant* to alter simulated results, re-pin the digests
//! from the failure message and bump the table-store `VERSION` in the
//! `workloads` crate so cached tables are rebuilt.

use simproc::{BenchmarkProfile, FetchPolicy, Machine, MachineConfig, RobPartitioning, SimResult};

const WARMUP: u64 = 1_237;
const MEASURE: u64 = 4_999;

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

/// Digest of every field of a [`SimResult`].
fn digest(r: &SimResult) -> u64 {
    let mut words = vec![r.cycles, r.committed.len() as u64];
    words.extend(&r.committed);
    words.extend(r.ipc.iter().map(|x| x.to_bits()));
    for s in [r.l1d, r.l2, r.l3] {
        words.extend([s.accesses, s.hits]);
    }
    words.extend([r.bus.transfers, r.bus.queue_cycles]);
    fnv1a(words)
}

/// Compute-bound: small footprint, few misses, rarely stalls.
fn compute() -> BenchmarkProfile {
    let mut p = BenchmarkProfile::balanced("compute", 11);
    p.load_frac = 0.10;
    p.store_frac = 0.05;
    p.long_op_frac = 0.02;
    p.dep_frac = 0.20;
    p.hot_lines = 64;
    p.footprint_lines = 128;
    p.mispredict_rate = 0.01;
    p
}

/// Memory-bound: long dependence chains through DRAM, so the chip spends
/// most cycles fully stalled.
fn memory() -> BenchmarkProfile {
    let mut p = BenchmarkProfile::balanced("memory", 13);
    p.load_frac = 0.40;
    p.dep_frac = 0.65;
    p.stack_frac = 0.05;
    p.hot_lines = 512;
    p.hot_frac = 0.10;
    p.footprint_lines = 1 << 20;
    p.streaming_frac = 0.2;
    p
}

/// Streaming stores and loads that saturate the memory bus.
fn streaming() -> BenchmarkProfile {
    let mut p = BenchmarkProfile::balanced("streaming", 17);
    p.load_frac = 0.30;
    p.store_frac = 0.20;
    p.dep_frac = 0.15;
    p.footprint_lines = 1 << 18;
    p.streaming_frac = 0.8;
    p
}

/// Front-end bound: frequent mispredictions and fetch bubbles, so stalls
/// end on `fetch_resume` rather than on a ROB completion.
fn branchy() -> BenchmarkProfile {
    let mut p = BenchmarkProfile::balanced("branchy", 19);
    p.branch_frac = 0.30;
    p.mispredict_rate = 0.25;
    p.frontend_stall_rate = 0.08;
    p
}

fn simulate(cfg: MachineConfig, jobs: &[&BenchmarkProfile]) -> SimResult {
    Machine::new(cfg)
        .expect("valid config")
        .simulate(jobs)
        .expect("simulates")
}

/// Runs every `(label, config, jobs, expected)` case and reports all
/// mismatches at once, with the actual digests to re-pin from.
fn check(cases: &[(&str, MachineConfig, Vec<&BenchmarkProfile>, u64)]) {
    let mismatches: Vec<String> = cases
        .iter()
        .filter_map(|(label, cfg, jobs, expected)| {
            let got = digest(&simulate(cfg.clone(), jobs));
            (got != *expected).then(|| format!("{label}: got {got:#018x}, pinned {expected:#018x}"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "engine results moved:\n{}",
        mismatches.join("\n")
    );
}

fn no_reservation(mut cfg: MachineConfig) -> MachineConfig {
    cfg.core.dynamic_reservation = false;
    cfg
}

#[test]
fn smt4_variants_match_golden_digests() {
    let (c, m, s, b) = (compute(), memory(), streaming(), branchy());
    let base = MachineConfig::smt4().with_windows(WARMUP, MEASURE);
    let rr = base.clone().with_fetch_policy(FetchPolicy::RoundRobin);
    let stat = base.clone().with_rob_partitioning(RobPartitioning::Static);
    let rr_stat = rr.clone().with_rob_partitioning(RobPartitioning::Static);
    let no_res = no_reservation(base.clone());
    check(&[
        (
            "icount/dynamic solo memory",
            base.clone(),
            vec![&m],
            0x988e_e864_1c4a_56a0,
        ),
        (
            "icount/dynamic solo branchy",
            base.clone(),
            vec![&b],
            0x5454_eec3_f80b_ff86,
        ),
        (
            "icount/dynamic pair",
            base.clone(),
            vec![&c, &m],
            0xe989_e666_a315_c682,
        ),
        (
            "icount/dynamic full",
            base.clone(),
            vec![&c, &m, &s, &b],
            0xd386_c40d_1c15_47be,
        ),
        (
            "icount/dynamic full memory",
            base.clone(),
            vec![&m, &m, &m, &s],
            0x74e6_3070_6fad_0421,
        ),
        (
            "round-robin pair",
            rr.clone(),
            vec![&b, &m],
            0x4311_cab3_5be9_e192,
        ),
        (
            "round-robin full",
            rr,
            vec![&c, &m, &s, &b],
            0xecfd_45a6_70ea_015e,
        ),
        (
            "static pair",
            stat.clone(),
            vec![&m, &c],
            0x5154_5590_50ee_2a48,
        ),
        (
            "static full",
            stat,
            vec![&c, &m, &s, &b],
            0x1516_2265_3bcd_3b8f,
        ),
        (
            "round-robin/static full",
            rr_stat,
            vec![&m, &b, &m, &c],
            0xc142_6e94_e02d_f77f,
        ),
        (
            "no reservation pair",
            no_res.clone(),
            vec![&c, &m],
            0x9cbd_c0fc_3bc2_9697,
        ),
        (
            "no reservation full",
            no_res,
            vec![&c, &m, &m, &m],
            0xe389_1102_587f_5866,
        ),
        (
            "zero warm-up full",
            MachineConfig::smt4().with_windows(0, 777),
            vec![&m, &s, &b, &c],
            0x8132_f06c_9c95_c7ba,
        ),
    ]);
}

#[test]
fn quadcore_variants_match_golden_digests() {
    let (c, m, s, b) = (compute(), memory(), streaming(), branchy());
    let base = MachineConfig::quadcore().with_windows(WARMUP, MEASURE);
    check(&[
        ("solo memory", base.clone(), vec![&m], 0xb594_6d4d_e340_46af),
        ("pair", base.clone(), vec![&m, &b], 0x7469_4456_e160_44bf),
        (
            "full",
            base.clone(),
            vec![&c, &m, &s, &b],
            0xeecc_7536_1f08_5439,
        ),
        (
            "full memory",
            base.clone(),
            vec![&m, &m, &s, &s],
            0xada0_e183_edc3_058c,
        ),
        (
            "round-robin/static full",
            base.with_fetch_policy(FetchPolicy::RoundRobin)
                .with_rob_partitioning(RobPartitioning::Static),
            vec![&b, &s, &m, &c],
            0xf662_4da3_83b8_457b,
        ),
    ]);
}

#[test]
fn smt8_variants_match_golden_digests() {
    let (c, m, s, b) = (compute(), memory(), streaming(), branchy());
    let base = MachineConfig::smt8().with_windows(WARMUP, MEASURE);
    let full = vec![&c, &m, &s, &b, &m, &c, &b, &s];
    check(&[
        (
            "icount/dynamic solo",
            base.clone(),
            vec![&m],
            0x3d12_a6e3_ac6e_7e0a,
        ),
        (
            "icount/dynamic pair",
            base.clone(),
            vec![&s, &b],
            0x52be_f8a2_f38a_9d79,
        ),
        (
            "icount/dynamic full",
            base.clone(),
            full.clone(),
            0x144d_fbc6_1382_0009,
        ),
        (
            "round-robin full",
            base.clone().with_fetch_policy(FetchPolicy::RoundRobin),
            full.clone(),
            0xaec8_eb22_180d_82fa,
        ),
        (
            "static full",
            base.clone().with_rob_partitioning(RobPartitioning::Static),
            full.clone(),
            0x30a8_2f1e_159b_bb55,
        ),
        (
            "no reservation full",
            no_reservation(base),
            full,
            0x925a_760d_46cd_2379,
        ),
    ]);
}

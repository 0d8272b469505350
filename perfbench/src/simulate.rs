//! `simulate`: the simulator hot path behind every cold table build.
//!
//! A pass builds a sampled performance table at paper windows (60 k
//! warm-up + 240 k measured cycles) on both chips, over the coschedules
//! of one seeded `predict::stratified_plan(12, 4, ...)`, which always
//! holds the 12 solos. Work items are coschedules simulated.

use predict::stratified_plan;
use simproc::{BenchmarkProfile, Machine, MachineConfig};
use workloads::{spec2006, PerfTable};

use crate::report::{
    default_seed, measured, record_timing, record_trace_cost, repeat_passes, repeat_setup, timed,
    Checks, Digest, Metrics, Outcome, THREADS,
};
use crate::Args;

/// Coschedules simulated per chip per pass, the 12 solos included.
const BUDGET: usize = 50;

struct Setup {
    suite: Vec<BenchmarkProfile>,
    chips: Vec<(&'static str, Machine)>,
    plan: Vec<usize>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let plan = stratified_plan(12, 4, BUDGET, seed)
        .map_err(|e| e.to_string())?
        .indices()
        .to_vec();
    let suite = spec2006();
    let mut chips = Vec::new();
    for (name, config) in [
        ("smt4", MachineConfig::smt4()),
        ("quadcore", MachineConfig::quadcore()),
    ] {
        let machine = Machine::new(config).map_err(|e| e.to_string())?;
        // One solo run per chip lets the simulator's lazy set-up (code
        // and allocator pages) finish before any pass is timed.
        machine.simulate(&[&suite[0]]).map_err(|e| e.to_string())?;
        chips.push((name, machine));
    }
    Ok(Setup { suite, chips, plan })
}

impl Setup {
    fn build(&self, machine: &Machine) -> Result<PerfTable, String> {
        PerfTable::build_sampled(machine, &self.suite, THREADS, &self.plan)
            .map_err(|e| e.to_string())
    }

    /// Builds both tables, timing each build; returns the tables and
    /// their build seconds.
    fn build_both(&self) -> Result<Vec<(PerfTable, f64)>, String> {
        self.chips
            .iter()
            .map(|(_, machine)| {
                let (table, secs) = timed(|| self.build(machine));
                Ok((table?, secs))
            })
            .collect()
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (s, setup) = repeat_setup(|| setup(args.seed))?;
    let items = (s.chips.len() * s.plan.len()) as u64;
    let mut checks = Checks::default();
    let mut first = None;
    let mut check_pass = |checks: &mut Checks, tables: &[(PerfTable, f64)]| {
        checks.attempt(items);
        for (table, _) in tables {
            checks.check(items / 2, table.len() == s.plan.len(), || {
                format!(
                    "table holds {} coschedules, plan {}",
                    table.len(),
                    s.plan.len()
                )
            });
        }
        checks.same_as_first(&mut first, digest(tables), items);
    };
    let passes = repeat_passes(args.seconds, || {
        let (tables, cost) = measured(|| s.build_both());
        check_pass(&mut checks, &tables?);
        Ok(cost)
    })?;

    let mut layers = Metrics::new();
    let tables = if args.trace {
        let (tables, traced) = measured(|| s.build_both());
        let tables = tables?;
        check_pass(&mut checks, &tables);
        let build_s: f64 = tables.iter().map(|(_, secs)| secs).sum();
        layers.insert("workloads.build_sampled_s".into(), build_s);
        record_trace_cost(&mut layers, build_s, traced, &passes);
        probe_simulate(&s, &tables, build_s, &mut layers, &mut checks)?;
        tables
    } else {
        s.build_both()?
    };

    let applies = default_seed(args);
    for ((name, _), (table, _)) in s.chips.iter().zip(&tables) {
        let print = table.content_fingerprint();
        checks.reference(
            &format!("simulate.fingerprint.{name}"),
            print,
            applies,
            items / 2,
        );
    }
    checks.reference("simulate.digest", digest(&tables), applies, items);
    if args.trace {
        for key in SIMPROC_COUNTS {
            let count = layers[*key] as u64;
            checks.reference(&format!("simulate.{key}"), count, applies, items);
        }
    }
    Ok(Outcome {
        setup,
        passes,
        items_per_pass: items,
        checks,
        layers,
    })
}

/// Digest of both tables' content fingerprints.
fn digest(tables: &[(PerfTable, f64)]) -> u64 {
    let mut d = Digest::new();
    for (table, _) in tables {
        d.u64(table.content_fingerprint());
    }
    d.finish()
}

/// The deterministic `SimResult` counts a speed-only change must keep.
pub const SIMPROC_COUNTS: &[&str] = &[
    "simproc.committed_insns",
    "simproc.l1d_misses",
    "simproc.l2_misses",
    "simproc.l3_misses",
    "simproc.bus_transfers",
    "simproc.bus_queue_cycles",
];

/// Re-simulates every coschedule of `tables` one `Machine::simulate`
/// call at a time, checking each result against the table the parallel
/// build recorded. `build_s` is the parallel builds' wall, the base of
/// `workloads.pool_util`.
fn probe_simulate(
    s: &Setup,
    tables: &[(PerfTable, f64)],
    build_s: f64,
    layers: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let machines: Vec<&Machine> = s.chips.iter().map(|(_, m)| m).collect();
    let tables: Vec<&PerfTable> = tables.iter().map(|(t, _)| t).collect();
    let busy_s = probe_machines(&machines, &tables, &s.suite, layers, checks)?;
    layers.insert(
        "workloads.pool_util".into(),
        busy_s / (THREADS as f64 * build_s),
    );
    Ok(())
}

/// Sequential `Machine::simulate` pass over every coschedule recorded in
/// `tables[i]` on `machines[i]`: fills the `simproc.*` metrics and
/// returns the summed simulate seconds. Shared with `analyze`, whose
/// set-up builds tables through the same simulator.
pub fn probe_machines(
    machines: &[&Machine],
    tables: &[&PerfTable],
    suite: &[BenchmarkProfile],
    layers: &mut Metrics,
    checks: &mut Checks,
) -> Result<f64, String> {
    let mut samples_ms = Vec::new();
    let mut cycles = 0u64;
    let mut counts = [0u64; 6];
    for (machine, table) in machines.iter().zip(tables) {
        let config = machine.config();
        let combos = table.recorded_combos();
        checks.attempt(combos.len() as u64);
        for (combo, ipcs) in combos {
            let jobs: Vec<&BenchmarkProfile> = combo.iter().map(|&b| &suite[b]).collect();
            let (res, secs) = timed(|| machine.simulate(&jobs));
            let res = res.map_err(|e| e.to_string())?;
            samples_ms.push(secs * 1e3);
            cycles += config.warmup_cycles + config.measure_cycles;
            checks.check(1, res.ipc == ipcs, || {
                format!(
                    "simulate {combo:?}: IPCs {:?} differ from the table's {ipcs:?}",
                    res.ipc
                )
            });
            let committed: u64 = res.committed.iter().sum();
            for (slot, v) in counts.iter_mut().zip([
                committed,
                res.l1d.accesses - res.l1d.hits,
                res.l2.accesses - res.l2.hits,
                res.l3.accesses - res.l3.hits,
                res.bus.transfers,
                res.bus.queue_cycles,
            ]) {
                *slot += v;
            }
        }
    }
    let busy_s: f64 = samples_ms.iter().sum::<f64>() / 1e3;
    record_timing(layers, "simproc.simulate_ms", &samples_ms, Some(90));
    layers.insert(
        "simproc.host_ns_per_cycle".into(),
        busy_s * 1e9 / cycles as f64,
    );
    layers.insert("simproc.mips".into(), counts[0] as f64 / busy_s / 1e6);
    for (key, v) in SIMPROC_COUNTS.iter().zip(counts) {
        layers.insert((*key).into(), v as f64);
    }
    Ok(busy_s)
}

//! `bench-delta`: diff two `BENCH_session.json` perf-trajectory files.
//!
//! The bench harness (`cargo bench -p paperbench`) rewrites
//! `BENCH_session.json` at the workspace root on every run. This module
//! compares a baseline file against a fresh one kernel-by-kernel, prints a
//! per-kernel speedup table, and flags regressions beyond a threshold —
//! the CI smoke job runs it against the committed baseline so a PR cannot
//! silently slow a pinned kernel down.
//!
//! The parser only reads the flat one-object-per-line layout our own
//! harness emits, through the same flat-object parser that checks trace
//! captures (no external JSON dependency), and errors out loudly on
//! anything else rather than guessing.

use std::fmt;

use obs::validate::{parse_flat_object, JsonVal};

/// One kernel's median from a trajectory file.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelMedian {
    pub name: String,
    pub median_ns: f64,
    /// Deterministic solver sweep/pricing-round count, when the harness
    /// recorded one (`"solver_iters"` is optional in the trajectory).
    pub solver_iters: Option<u64>,
}

/// Parses the `BENCH_session.json` layout written by `benches/kernels.rs`:
/// one `{"name": ..., "median_ns_per_iter": ...}` object per line, each
/// read whole by [`obs::validate::parse_flat_object`].
pub fn parse_session(text: &str) -> Result<Vec<KernelMedian>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with("{\"name\"") {
            continue;
        }
        let object = line.strip_suffix(',').unwrap_or(line);
        let fields = parse_flat_object(object).map_err(|e| format!("{e}: {line}"))?;
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let name = match get("name") {
            Some(JsonVal::Str(name)) => name.clone(),
            _ => return Err(format!("name must be a string: {line}")),
        };
        let Some(JsonVal::Num(median_ns)) = get("median_ns_per_iter").cloned() else {
            return Err(format!("kernel {name} has no numeric median_ns_per_iter"));
        };
        if !median_ns.is_finite() || median_ns <= 0.0 {
            return Err(format!("kernel {name}: non-positive median {median_ns}"));
        }
        // Optional convergence figure (older baselines predate it).
        let solver_iters = match get("solver_iters") {
            Some(JsonVal::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            Some(other) => return Err(format!("kernel {name}: bad solver_iters {other:?}")),
            None => None,
        };
        out.push(KernelMedian {
            name,
            median_ns,
            solver_iters,
        });
    }
    if out.is_empty() {
        return Err("no benchmark entries found".into());
    }
    Ok(out)
}

/// One kernel present in both files.
#[derive(Debug, Clone)]
pub struct DeltaRow {
    pub name: String,
    pub base_ns: f64,
    pub new_ns: f64,
    /// Solver iteration counts, when *both* files carry them for this
    /// kernel — the convergence comparison is skipped otherwise.
    pub iters: Option<(u64, u64)>,
}

impl DeltaRow {
    /// Speedup of the new run over the baseline (`> 1` is faster).
    pub fn speedup(&self) -> f64 {
        self.base_ns / self.new_ns
    }
}

/// The full comparison of two trajectory files.
#[derive(Debug)]
pub struct DeltaReport {
    pub rows: Vec<DeltaRow>,
    /// Kernels in the baseline that the new run no longer emits.
    pub missing_in_new: Vec<String>,
    /// Kernels the new run added (normal when a PR pins new kernels).
    pub added_in_new: Vec<String>,
}

/// Joins two parsed trajectories by kernel name, in baseline order.
pub fn diff(base: &[KernelMedian], new: &[KernelMedian]) -> DeltaReport {
    let mut rows = Vec::new();
    let mut missing_in_new = Vec::new();
    for b in base {
        match new.iter().find(|n| n.name == b.name) {
            Some(n) => rows.push(DeltaRow {
                name: b.name.clone(),
                base_ns: b.median_ns,
                new_ns: n.median_ns,
                iters: b.solver_iters.zip(n.solver_iters),
            }),
            None => missing_in_new.push(b.name.clone()),
        }
    }
    let added_in_new = new
        .iter()
        .filter(|n| !base.iter().any(|b| b.name == n.name))
        .map(|n| n.name.clone())
        .collect();
    DeltaReport {
        rows,
        missing_in_new,
        added_in_new,
    }
}

impl DeltaReport {
    /// Rows slower than the baseline by more than `threshold` (a fraction:
    /// `0.2` tolerates up to +20% median time before flagging).
    pub fn regressions(&self, threshold: f64) -> Vec<&DeltaRow> {
        self.rows
            .iter()
            .filter(|r| r.new_ns > r.base_ns * (1.0 + threshold))
            .collect()
    }

    /// Rows whose solver now needs more than `threshold` extra iterations
    /// to converge (compared only when both files carry counts). The
    /// counts are deterministic, so unlike wall time this catches a
    /// convergence regression even on a noisy runner — and even when the
    /// wall time stayed flat.
    pub fn iter_regressions(&self, threshold: f64) -> Vec<&DeltaRow> {
        self.rows
            .iter()
            .filter(|r| {
                r.iters
                    .is_some_and(|(base, new)| new as f64 > base as f64 * (1.0 + threshold))
            })
            .collect()
    }
}

impl fmt::Display for DeltaReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<44} {:>14} {:>14} {:>9}",
            "kernel", "base ns/iter", "new ns/iter", "speedup"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<44} {:>14.0} {:>14.0} {:>8.2}x",
                r.name,
                r.base_ns,
                r.new_ns,
                r.speedup()
            )?;
        }
        let with_iters: Vec<&DeltaRow> = self.rows.iter().filter(|r| r.iters.is_some()).collect();
        if !with_iters.is_empty() {
            writeln!(
                f,
                "\nsolver convergence (deterministic iteration counts)\n\
                 {:<44} {:>14} {:>14} {:>9}",
                "kernel", "base iters", "new iters", "ratio"
            )?;
            for r in with_iters {
                let (base, new) = r.iters.expect("filtered to Some");
                writeln!(
                    f,
                    "{:<44} {:>14} {:>14} {:>8.2}x",
                    r.name,
                    base,
                    new,
                    new as f64 / base as f64
                )?;
            }
        }
        for name in &self.missing_in_new {
            writeln!(f, "{name:<44} (missing from new run)")?;
        }
        for name in &self.added_in_new {
            writeln!(f, "{name:<44} (new kernel, no baseline)")?;
        }
        Ok(())
    }
}

/// Driver for `paperbench bench-delta`: compares `base_path` against
/// `new_path` and returns an error listing every kernel that regressed by
/// more than `threshold`. Missing/added kernels are reported but do not
/// fail the run (the harness's own coverage guard owns completeness).
pub fn run_delta(base_path: &str, new_path: &str, threshold: f64) -> Result<String, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let base = parse_session(&read(base_path)?).map_err(|e| format!("{base_path}: {e}"))?;
    let new = parse_session(&read(new_path)?).map_err(|e| format!("{new_path}: {e}"))?;
    let report = diff(&base, &new);
    let rendered = format!("{report}");
    let regressions = report.regressions(threshold);
    let iter_regressions = report.iter_regressions(threshold);
    if regressions.is_empty() && iter_regressions.is_empty() {
        return Ok(rendered);
    }
    let mut msg = rendered;
    if !regressions.is_empty() {
        msg.push_str(&format!(
            "\n{} kernel(s) regressed beyond the {:.0}% threshold:\n",
            regressions.len(),
            threshold * 100.0
        ));
        for r in regressions {
            msg.push_str(&format!(
                "  {}: {:.0} -> {:.0} ns/iter ({:+.1}%)\n",
                r.name,
                r.base_ns,
                r.new_ns,
                (r.new_ns / r.base_ns - 1.0) * 100.0
            ));
        }
    }
    if !iter_regressions.is_empty() {
        msg.push_str(&format!(
            "\n{} kernel(s) need more solver iterations than the baseline (beyond {:.0}%):\n",
            iter_regressions.len(),
            threshold * 100.0
        ));
        for r in iter_regressions {
            let (base, new) = r.iters.expect("iter regression has counts");
            msg.push_str(&format!(
                "  {}: {base} -> {new} iterations ({:+.1}%)\n",
                r.name,
                (new as f64 / base as f64 - 1.0) * 100.0
            ));
        }
    }
    Err(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
  "benchmarks": [
    {"name": "a/fast", "median_ns_per_iter": 100.0, "batches": 7, "iters_per_batch": 10},
    {"name": "b/slow", "median_ns_per_iter": 2000.0, "batches": 7, "iters_per_batch": 1, "solver_iters": 120},
    {"name": "c/gone", "median_ns_per_iter": 5.0, "batches": 7, "iters_per_batch": 100}
  ]
}
"#;

    const NEW: &str = r#"{
  "benchmarks": [
    {"name": "a/fast", "median_ns_per_iter": 130.0, "batches": 7, "iters_per_batch": 10, "solver_iters": 40},
    {"name": "b/slow", "median_ns_per_iter": 500.0, "batches": 7, "iters_per_batch": 1, "solver_iters": 300},
    {"name": "d/new", "median_ns_per_iter": 42.0, "batches": 7, "iters_per_batch": 100}
  ]
}
"#;

    #[test]
    fn parses_the_harness_layout() {
        let parsed = parse_session(BASE).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].name, "a/fast");
        assert_eq!(parsed[1].median_ns, 2000.0);
        assert_eq!(parsed[0].solver_iters, None, "field is optional");
        assert_eq!(parsed[1].solver_iters, Some(120));
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(parse_session("{}").is_err());
        assert!(parse_session("{\"name\": \"x\", \"median_ns_per_iter\": -3}").is_err());
        assert!(parse_session("{\"name\": \"x\"}").is_err());
    }

    #[test]
    fn parse_rejects_a_truncated_row() {
        let err = parse_session("{\"name\": \"a\", \"median_ns_per_iter\": 5").unwrap_err();
        assert!(err.contains("expected ',' or '}'"), "{err}");
    }

    #[test]
    fn diff_joins_by_name_and_tracks_membership() {
        let report = diff(&parse_session(BASE).unwrap(), &parse_session(NEW).unwrap());
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.missing_in_new, vec!["c/gone".to_string()]);
        assert_eq!(report.added_in_new, vec!["d/new".to_string()]);
        let slow = &report.rows[1];
        assert!((slow.speedup() - 4.0).abs() < 1e-12, "2000 / 500 = 4x");
        // Counts compare only when both sides have them: a/fast's
        // baseline predates the field, so its new count is ignored.
        assert_eq!(report.rows[0].iters, None);
        assert_eq!(slow.iters, Some((120, 300)));
    }

    #[test]
    fn iteration_growth_is_a_regression_even_when_wall_time_improves() {
        let report = diff(&parse_session(BASE).unwrap(), &parse_session(NEW).unwrap());
        // b/slow got 4x faster in wall time but needs 2.5x the sweeps.
        let iter_regs = report.iter_regressions(0.20);
        assert_eq!(iter_regs.len(), 1);
        assert_eq!(iter_regs[0].name, "b/slow");
        assert!(report.iter_regressions(2.0).is_empty(), "+150% within 200%");
        let table = format!("{report}");
        assert!(table.contains("solver convergence"), "{table}");
        assert!(table.contains("120"), "{table}");
    }

    #[test]
    fn regression_threshold_is_a_fraction_over_baseline() {
        let report = diff(&parse_session(BASE).unwrap(), &parse_session(NEW).unwrap());
        // a/fast went 100 -> 130 ns: +30%.
        assert_eq!(report.regressions(0.20).len(), 1);
        assert_eq!(report.regressions(0.20)[0].name, "a/fast");
        assert!(report.regressions(0.35).is_empty());
    }

    #[test]
    fn run_delta_round_trips_through_files() {
        let dir = std::env::temp_dir().join(format!("bench-delta-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base_p = dir.join("base.json");
        let new_p = dir.join("new.json");
        std::fs::write(&base_p, BASE).unwrap();
        std::fs::write(&new_p, NEW).unwrap();
        let strict = run_delta(base_p.to_str().unwrap(), new_p.to_str().unwrap(), 0.20);
        assert!(strict.is_err(), "a/fast (+30%) must trip the 20% gate");
        let msg = strict.unwrap_err();
        assert!(msg.contains("a/fast"), "{msg}");
        assert!(
            msg.contains("more solver iterations"),
            "b/slow's 120 -> 300 sweeps must trip the convergence gate: {msg}"
        );
        // Loose enough for both wall time (+30%) and iterations (+150%).
        let lax = run_delta(base_p.to_str().unwrap(), new_p.to_str().unwrap(), 2.0);
        let table = lax.expect("within threshold");
        assert!(table.contains("4.00x"), "b/slow speedup shown: {table}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! One module per reproduced paper artefact, tied together by the
//! [`REGISTRY`] table: one plain [`Experiment`] row per entry, whose `run`
//! renders the module's typed result through its `Display`.
//!
//! | Registry name | Module | Paper artefact |
//! |---------------|--------|----------------|
//! | `fig1` | [`fig1`] | Figure 1 — variability of per-job IPC, instantaneous and average throughput |
//! | `fig2` | [`fig2`] | Figure 2 — FCFS-vs-worst against optimal-vs-worst scatter |
//! | `fig3` | [`fig3`] | Figure 3 — throughput variability vs linear-bottleneck LSQ error |
//! | `table2` | [`table2`] | Table II — coschedule heterogeneity time fractions |
//! | `fig4` | [`fig4`] | Figure 4 — turnaround vs arrival rate (M/M/4 worked example) |
//! | `fig5` | [`fig5`] | Figure 5 — turnaround / utilisation / empty fraction per scheduler |
//! | `fig6` | [`fig6`] | Figure 6 — saturated throughput per scheduler vs LP bounds |
//! | `n8` | [`n8`] | Section V-B — N = 8 sensitivity |
//! | `n12_k8` | [`n12_k8`] | Beyond the paper — N = 12 / K = 8 big-machine scaling (sparse solvers) |
//! | `model_accuracy` | [`model_accuracy`] | Beyond the paper — sampled + predicted N = 12 / K = 8 rate models (`predict` crate) |
//! | `fairness` | [`fairness`] | Section V-D — fairness counterfactual |
//! | `sec7` | [`sec7`] | Section VII — fetch/ROB policy study under FCFS vs optimal scheduling |
//! | `unit_ablation` | [`unit_ablation`] | Section III-B claim — conclusions hold for the plain instruction as unit of work |
//! | `serve` | [`self::serve`] | Beyond the paper — online scheduling service with a live digital-twin model loop |
//! | `dist_sweep` | [`dist_sweep`] | Beyond the paper — sharded sweep across fault-tolerant workers with deterministic merge |
//! | `chaos` | [`chaos`] | Beyond the paper — seeded fault storms over dist and serve: parity under faults, breaker trip/recovery, clean panic surfacing |
//! | `obs` | [`self::obs`] | Beyond the paper — observability check: instrumented sweep + serve legs, embedded metric snapshots, optional JSONL trace |
//!
//! Every entry is invocable through the unified driver
//! (`cargo run --release -p paperbench --bin paperbench -- <name>`), and
//! [`REGISTRY`] keeps the historical `all`-binary print order. An
//! artefact prints only run-independent values, so `paperbench all`
//! stdout is byte-identical across runs of one configuration; wall times
//! and thread-timing-dependent counts go to stderr from the module's
//! `run`.

pub mod chaos;
pub mod dist_sweep;
pub mod fairness;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod model_accuracy;
pub mod n12_k8;
pub mod n8;
pub mod obs;
pub mod sec7;
pub mod serve;
pub mod table2;
pub mod unit_ablation;

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::study::{Study, StudyConfig, StudyError};

/// The experiment layer's one error currency: any source error
/// ([`StudyError`], [`session::SweepError`], [`dist::DistError`],
/// [`serve::ServeError`](::serve::ServeError), …) travels through `?`
/// unchanged, so callers can still `downcast_ref` it; a plain message
/// converts from `String`/`&str`.
pub type ExperimentError = Box<dyn std::error::Error + Send + Sync>;

/// Shared context for one driver invocation: the parsed [`StudyConfig`]
/// plus a lazily built [`Study`].
///
/// The study (two simulated performance tables over the full suite) is the
/// dominant cost of most experiments, but some need none of it —
/// [`fig4`] is purely analytic and [`n12_k8`] builds its own synthetic
/// table — so construction is deferred to the first
/// [`ExperimentContext::study`] call and shared by every later one
/// (`paperbench all` builds the tables exactly once).
pub struct ExperimentContext {
    config: StudyConfig,
    study: OnceLock<Result<Study, Arc<StudyError>>>,
}

impl ExperimentContext {
    /// Wraps a parsed configuration; no tables are built yet.
    pub fn new(config: StudyConfig) -> Self {
        ExperimentContext {
            config,
            study: OnceLock::new(),
        }
    }

    /// The run's configuration (experiment knobs, sampling, table cache).
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// The shared [`Study`], building both performance tables on first
    /// use (or loading them through the config's table cache).
    ///
    /// # Errors
    ///
    /// The [`StudyError`] of the build, as an `Arc<StudyError>`. The
    /// failure is sticky: every later call returns the same `Arc` without
    /// rebuilding.
    pub fn study(&self) -> Result<&Study, ExperimentError> {
        self.study
            .get_or_init(|| {
                eprintln!("building performance tables (this is the expensive part)...");
                let t0 = Instant::now();
                let study = Study::new(self.config.clone()).map_err(Arc::new)?;
                eprintln!("tables ready in {:.1?}", t0.elapsed());
                Ok(study)
            })
            .as_ref()
            .map_err(|e| Arc::clone(e).into())
    }
}

/// One reproduced paper artefact, runnable by name through the registry.
pub struct Experiment {
    /// Registry key, e.g. `fig1`, as in `paperbench fig1`.
    pub name: &'static str,
    /// Which figure/table/section of the paper this reproduces.
    pub artefact: &'static str,
    /// One-line description of what the experiment computes and reports
    /// — the `paperbench --list` line (the artefact label says *where* in
    /// the paper; this says *what happens*).
    pub description: &'static str,
    /// Runs the experiment on the shared context and returns the printed
    /// artefact (the module's `run` rendered through its `Display`).
    pub run: fn(&ExperimentContext) -> Result<String, ExperimentError>,
}

/// Every experiment, in the `all` artefact print order (kept from the
/// pre-registry `all` binary so its combined output is byte-identical).
pub static REGISTRY: &[Experiment] = &[
    Experiment {
        name: "fig1",
        artefact: "Figure 1 — per-job IPC / instantaneous / average throughput variability",
        description: "sweeps every workload and reports per-job, instantaneous and average throughput spreads",
        run: |ctx| Ok(fig1::run(ctx.study()?)?.to_string()),
    },
    Experiment {
        name: "fig2",
        artefact: "Figure 2 — FCFS-vs-worst against optimal-vs-worst scatter",
        description: "correlates the FCFS-over-worst gain with the optimal-over-worst headroom per workload",
        run: |ctx| Ok(fig2::run(ctx.study()?)?.to_string()),
    },
    Experiment {
        name: "fig3",
        artefact: "Figure 3 — throughput variability vs linear-bottleneck LSQ error",
        description: "fits the linear-bottleneck model per workload and plots its error against variability",
        run: |ctx| Ok(fig3::run(ctx.study()?)?.to_string()),
    },
    Experiment {
        name: "table2",
        artefact: "Table II — coschedule heterogeneity time fractions",
        description: "measures the time each scheduler spends in every coschedule-heterogeneity class",
        run: |ctx| Ok(table2::run(ctx.study()?)?.to_string()),
    },
    Experiment {
        name: "fig4",
        artefact: "Figure 4 — turnaround vs arrival rate (analytic M/M/4)",
        description: "solves the analytic M/M/4 worked example (no simulation, no tables)",
        run: |_ctx| Ok(fig4::run()?.to_string()),
    },
    Experiment {
        name: "fig5",
        artefact: "Figure 5 — turnaround / utilisation / empty fraction per scheduler",
        description: "runs the Poisson-arrival latency experiment for the four Section VI schedulers",
        run: |ctx| Ok(fig5::run(ctx.study()?)?.to_string()),
    },
    Experiment {
        name: "fig6",
        artefact: "Figure 6 — saturated throughput per scheduler vs LP bounds",
        description: "compares each scheduler's saturated throughput against the LP optimal/worst bounds",
        run: |ctx| Ok(fig6::run(ctx.study()?)?.to_string()),
    },
    Experiment {
        name: "n8",
        artefact: "Section V-B — N = 8 sensitivity",
        description: "repeats the headline throughput comparison with N = 8 job types per workload",
        run: |ctx| Ok(n8::run(ctx.study()?)?.to_string()),
    },
    Experiment {
        name: "n12_k8",
        artefact: "Beyond the paper — N = 12 / K = 8 big-machine scaling",
        description: "scales to 12 types on a synthetic 8-context machine through the sparse solvers",
        run: |ctx| Ok(n12_k8::run(ctx.config())?.to_string()),
    },
    Experiment {
        name: "model_accuracy",
        artefact: "Beyond the paper — sampled + predicted N = 12 / K = 8 rate models",
        description: "fits interference models on a <=10% sample of the K = 8 sweep and scores the predictions",
        run: |ctx| Ok(model_accuracy::run(ctx.config())?.to_string()),
    },
    Experiment {
        name: "fairness",
        artefact: "Section V-D — fairness counterfactual",
        description: "redistributes per-job rates inside the heterogeneous coschedule and re-solves the LP",
        run: |ctx| Ok(fairness::run(ctx.study()?)?.to_string()),
    },
    Experiment {
        name: "sec7",
        artefact: "Section VII — fetch/ROB policy study under FCFS vs optimal",
        description: "re-runs the study across fetch/ROB microarchitecture policies on both chips",
        run: |ctx| Ok(sec7::run(ctx.study()?)?.to_string()),
    },
    Experiment {
        name: "unit_ablation",
        artefact: "Section III-B — plain-instruction unit-of-work ablation",
        description: "repeats the headline comparison with plain instructions as the unit of work",
        run: |ctx| Ok(unit_ablation::run(ctx.study()?)?.to_string()),
    },
    Experiment {
        name: "serve",
        artefact: "Beyond the paper — online service with a live digital-twin model loop",
        description: "streams seeded arrivals through dispatcher/twin and compares placers against offline bounds",
        run: |ctx| Ok(self::serve::run(ctx.config())?.to_string()),
    },
    Experiment {
        name: "dist_sweep",
        artefact: "Beyond the paper — sharded sweep across fault-tolerant workers",
        description: "shards the headline sweep over a worker fleet and verifies the merged report bitwise",
        run: |ctx| Ok(dist_sweep::run(ctx.study()?)?.to_string()),
    },
    Experiment {
        name: "chaos",
        artefact: "Beyond the paper — chaos layer: seeded fault storms over dist and serve",
        description: "injects seeded crash/hang/corrupt/duplicate faults and proves parity, breaker trip/recovery and clean panic surfacing",
        run: |ctx| Ok(chaos::run(ctx.config())?.to_string()),
    },
    Experiment {
        name: "obs",
        artefact: "Beyond the paper — observability: metrics, spans and JSONL tracing across the stack",
        description: "runs instrumented sweep + serve legs and pretty-prints the metric snapshots each report embeds",
        run: |ctx| Ok(self::obs::run(ctx.config())?.to_string()),
    },
];

/// Looks an experiment up by registry name (exact match).
pub fn by_name(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        assert_eq!(REGISTRY.len(), 17);
        let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        for name in &names {
            assert!(by_name(name).is_some(), "{name} resolves");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len(), "names are unique");
        assert!(by_name("bogus").is_none());
    }

    #[test]
    fn registry_keeps_the_all_binary_print_order() {
        let order: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(
            order,
            [
                "fig1",
                "fig2",
                "fig3",
                "table2",
                "fig4",
                "fig5",
                "fig6",
                "n8",
                "n12_k8",
                "model_accuracy",
                "fairness",
                "sec7",
                "unit_ablation",
                "serve",
                "dist_sweep",
                "chaos",
                "obs"
            ]
        );
    }

    #[test]
    fn every_experiment_describes_itself() {
        for e in REGISTRY {
            let desc = e.description;
            assert!(!desc.is_empty(), "{} has no description", e.name);
            assert!(
                !desc.contains('\n'),
                "{} description must be one line",
                e.name
            );
            assert_ne!(
                desc, e.artefact,
                "{} description must add to the artefact label",
                e.name
            );
        }
    }

    #[test]
    fn analytic_experiments_run_without_building_tables() {
        let ctx = ExperimentContext::new(StudyConfig::fast());
        let artefact = (by_name("fig4").unwrap().run)(&ctx).unwrap();
        assert!(artefact.contains("Figure 4"));
        assert!(
            ctx.study.get().is_none(),
            "fig4 must not force the study build"
        );
    }
}

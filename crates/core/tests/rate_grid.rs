//! `RateGrid` against the models it evaluates: the conformance contract,
//! bit-for-bit cells on both key arms (digits at N = 4, K = 4; ranks at
//! N = 8, K = 8), how often construction asks the model, full-only grids,
//! grids of grids, and models that break the rate contract.

use queueing::ContentionModel;
use std::cell::Cell;
use symbiosis::{
    assert_rate_model_conformance, AnalyticModel, CoscheduleIter, RateGrid, RateModel,
    SymbiosisError,
};
use workloads::PerfTable;

/// Per-job rates that depend on load, heterogeneity, type and count.
fn symbiotic(n: usize, k: usize) -> AnalyticModel<impl Fn(&[u32], usize) -> f64> {
    AnalyticModel::new(n, k, |counts: &[u32], ty| {
        let distinct = counts.iter().filter(|&&c| c > 0).count() as f64;
        let load: u32 = counts.iter().sum();
        (0.7 + 0.1 * ty as f64) * (1.0 + 0.22 * (distinct - 1.0))
            / (1.0 + 0.38 * (load as f64 - 1.0) + 0.01 * counts[ty] as f64)
    })
}

/// A synthetic table whose slot IPCs differ by slot, so a view's per-job
/// rate is a mean over unequal slots.
fn synthetic_table(benchmarks: usize, contexts: usize) -> PerfTable {
    let names: Vec<String> = (0..benchmarks).map(|b| format!("syn{b}")).collect();
    PerfTable::synthetic(names, contexts, |combo| {
        let pressure: f64 = combo.iter().map(|&b| 0.04 + 0.05 * b as f64).sum();
        (0..combo.len())
            .map(|slot| (0.7 + 0.1 * combo[slot] as f64) / (1.0 + pressure) - 0.005 * slot as f64)
            .collect()
    })
    .expect("valid synthetic table")
}

/// Asserts `grid` holds exactly `model`'s answers, cell by cell, bit for
/// bit, in enumeration order.
fn assert_cells_are_the_models(grid: &RateGrid, model: &dyn RateModel) {
    let (n, k) = (model.num_types(), model.contexts());
    let min_size = if grid.supports_partial() { 1 } else { k };
    let all: Vec<_> = (min_size..=k)
        .flat_map(|size| CoscheduleIter::new(n, size))
        .collect();
    assert_eq!(grid.len(), all.len());
    for (cell, s) in all.iter().enumerate() {
        let counts = s.counts();
        assert_eq!(grid.index_of(counts), Some(cell), "{s}");
        let it = model.instantaneous_throughput(counts);
        assert_eq!(
            grid.instantaneous_throughput(counts).to_bits(),
            it.to_bits()
        );
        for (ty, &rate) in grid.per_job_rates(counts).iter().enumerate() {
            let want = (counts[ty] > 0).then(|| model.per_job_rate(counts, ty));
            assert_eq!(rate.to_bits(), want.unwrap_or(0.0).to_bits(), "{s}");
        }
    }
}

#[test]
fn grids_pass_rate_model_conformance() {
    let table = synthetic_table(4, 4);
    let models: [&dyn RateModel; 4] = [
        &symbiotic(3, 4),
        &ContentionModel::new(vec![1.0, 0.7, 0.45], 0.3, 4),
        &table.workload_view(&[0, 2, 3]).expect("valid workload"),
        &table.workload_rates(&[1, 2, 3]).expect("valid workload"),
    ];
    for model in models {
        let grid = RateGrid::new(model).expect("valid model");
        assert_eq!(grid.supports_partial(), model.supports_partial());
        assert_rate_model_conformance(&grid);
        assert_cells_are_the_models(&grid, model);
    }
}

#[test]
fn both_key_arms_store_the_models_answers_bit_for_bit() {
    // 5^4 = 625 digit keys at N = 4, K = 4; 9^8 is past the digit budget,
    // so N = 8, K = 8 finds cells by rank.
    for (n, k) in [(4, 4), (8, 8)] {
        let table = synthetic_table(n, k);
        let view = table
            .workload_view(&(0..n).collect::<Vec<_>>())
            .expect("valid");
        let models: [&dyn RateModel; 2] = [&symbiotic(n, k), &view];
        for model in models {
            let grid = RateGrid::new(model).expect("valid model");
            let full = RateGrid::full(model).expect("valid model");
            assert!(!full.supports_partial());
            assert_cells_are_the_models(&grid, model);
            assert_cells_are_the_models(&full, model);
            // The full stratum closes the grid, in enumeration order.
            let want = CoscheduleIter::new(n, k).map(|s| {
                (
                    s.counts().to_vec(),
                    model.instantaneous_throughput(s.counts()),
                )
            });
            let walked = grid.full_cells().map(|(c, it)| (c.to_vec(), it));
            assert!(walked.eq(want));
            assert!(full.full_cells().eq(grid.full_cells()));
        }
    }
}

/// Counts the calls reaching the wrapped model.
struct Counting {
    inner: ContentionModel,
    calls: Cell<u64>,
}

impl RateModel for Counting {
    fn num_types(&self) -> usize {
        self.inner.num_types()
    }

    fn contexts(&self) -> usize {
        self.inner.contexts()
    }

    fn per_job_rate(&self, counts: &[u32], ty: usize) -> f64 {
        self.calls.set(self.calls.get() + 1);
        self.inner.per_job_rate(counts, ty)
    }
}

#[test]
fn construction_asks_the_model_once_and_lookups_never() {
    let model = Counting {
        inner: ContentionModel::new(vec![1.0, 0.7, 0.45], 0.3, 4),
        calls: Cell::new(0),
    };
    let grid = RateGrid::new(&model).expect("valid model");
    // One call per present (multiset, type) for the rate, and one per
    // present type for each throughput.
    let present: u64 = (1..=4)
        .flat_map(|size| CoscheduleIter::new(3, size))
        .map(|s| s.counts().iter().filter(|&&c| c > 0).count() as u64)
        .sum();
    assert_eq!(model.calls.get(), 2 * present);
    for size in 1..=4 {
        for s in CoscheduleIter::new(3, size) {
            let _ = grid.instantaneous_throughput(s.counts());
            let _ = grid.per_job_rates(s.counts());
        }
    }
    assert_eq!(model.calls.get(), 2 * present, "lookups reached the model");
}

#[test]
fn lookups_outside_the_grid_miss() {
    for (n, k) in [(4, 4), (8, 8)] {
        let grid = RateGrid::new(&symbiotic(n, k)).expect("valid model");
        let full = RateGrid::full(&symbiotic(n, k)).expect("valid model");
        let with = |ty: usize, c: u32| {
            let mut counts = vec![0; n];
            counts[ty] = c;
            counts
        };
        assert_eq!(grid.index_of(&with(0, k as u32 + 1)), None, "oversized");
        assert_eq!(grid.index_of(&with(n - 1, u32::MAX)), None, "digit past K");
        assert_eq!(grid.index_of(&vec![0; n]), None, "empty");
        assert_eq!(grid.index_of(&vec![1; n - 1]), None, "wrong length");
        assert_eq!(full.index_of(&with(1, 1)), None, "partial in a full grid");
    }
}

#[test]
#[should_panic(expected = "not in the rate grid")]
fn a_full_grid_panics_on_partial_multisets() {
    let full = RateGrid::full(&symbiotic(3, 4)).expect("valid model");
    let _ = full.per_job_rate(&[1, 1, 0], 0);
}

#[test]
fn a_grid_of_a_grid_is_the_same_grid() {
    for (n, k) in [(4, 4), (8, 8), (2, 1)] {
        for grid in [
            RateGrid::new(&symbiotic(n, k)),
            RateGrid::full(&symbiotic(n, k)),
        ] {
            let grid = grid.expect("valid model");
            assert_eq!(RateGrid::new(&grid).expect("valid grid"), grid);
        }
    }
}

/// A model with no types.
struct Shapeless;

impl RateModel for Shapeless {
    fn num_types(&self) -> usize {
        0
    }

    fn contexts(&self) -> usize {
        2
    }

    fn per_job_rate(&self, _counts: &[u32], _ty: usize) -> f64 {
        unreachable!("a type-less model has no jobs")
    }
}

#[test]
fn contract_breaking_models_are_rejected_at_construction() {
    for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        // Type 0 gets `rate` when two of its jobs co-run.
        let broken = AnalyticModel::new(
            2,
            2,
            move |c: &[u32], _| if c == [2, 0] { rate } else { 0.5 },
        );
        for grid in [RateGrid::new(&broken), RateGrid::full(&broken)] {
            assert!(
                matches!(grid, Err(SymbiosisError::InvalidRates(_))),
                "{rate}"
            );
        }
    }
    assert!(matches!(
        RateGrid::new(&Shapeless),
        Err(SymbiosisError::InvalidParameter(_))
    ));
}

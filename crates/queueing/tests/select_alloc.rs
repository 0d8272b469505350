//! On a [`RateGrid`], a scheduler's `select` allocates nothing once its
//! buffers have grown: the candidates are the grid's stratum, the winner
//! is a cell index, the selection goes into the caller's buffer and SRPT's
//! prefix sums into scratch space it owns.
//!
//! The test binary counts every allocation its threads make, so each
//! check compares one thread's count before and after the selects.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use queueing::{
    ContentionModel, FcfsScheduler, Job, JobId, JobPool, MaxItScheduler, MaxTpScheduler, Scheduler,
    SrptScheduler,
};
use symbiosis::{RateGrid, RateModel};

/// The system allocator, counting each allocation and reallocation per
/// thread.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates and never fails, even during thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; the counter touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller meets `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and the caller meets `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn grid_selects_allocate_nothing_per_event() {
    let start = allocations();
    drop(std::hint::black_box(Box::new(1u64)));
    assert_eq!(allocations() - start, 1, "the counter sees this thread");

    let grid = RateGrid::new(&ContentionModel::new(vec![1.0, 0.6, 0.35, 0.8], 0.2, 4))
        .expect("valid rates");
    // Types chosen so that MAXTP's target is composable from the first
    // pool and not from the second, where it falls back to MAXIT.
    for types in [
        &[0usize, 1, 2, 3, 0, 1, 2, 3, 0, 2][..],
        &[1, 2, 3, 1, 2, 3, 1],
    ] {
        let mut pool = JobPool::new(4);
        for (id, &ty) in types.iter().enumerate() {
            pool.insert(Job {
                id: id as JobId,
                ty,
                remaining: 1.0 + 0.25 * id as f64,
                arrival: id as f64,
            });
        }
        let mut schedulers: [Box<dyn Scheduler>; 4] = [
            Box::new(FcfsScheduler),
            Box::new(MaxItScheduler),
            Box::new(SrptScheduler::default()),
            Box::new(MaxTpScheduler::new(vec![(vec![2, 0, 2, 0], 1.0)])),
        ];
        let mut out = Vec::with_capacity(grid.contexts());
        for sched in &mut schedulers {
            // The first select grows SRPT's scratch and builds the pool's
            // remaining-work index.
            sched.select(&mut pool, grid.contexts(), &grid, &mut out);
            let before = allocations();
            for _ in 0..100 {
                out.clear();
                sched.select(&mut pool, grid.contexts(), &grid, &mut out);
            }
            assert_eq!(allocations() - before, 0, "{} allocated", sched.name());
            assert_eq!(out.len(), 4, "{} is work conserving", sched.name());
        }
    }
}

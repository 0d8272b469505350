//! A std-only worker pool: scoped OS threads pulling work items off a
//! shared queue, results collected over a channel.
//!
//! This is the fan-out engine behind [`crate::sweep::SweepBuilder`].
//! Compared with chunked splitting (give each thread `len / threads`
//! consecutive items), the shared queue load-balances dynamically: workload
//! evaluations differ wildly in cost (an LP solve vs a 40 000-job event
//! simulation), and with chunking the slowest chunk sets the wall-clock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// A fixed-width pool of OS threads for order-preserving parallel maps.
///
/// The pool is a lightweight description (it holds no threads); each
/// [`WorkerPool::map`] call spawns scoped workers, so borrowed data can
/// flow into the closure freely and nothing outlives the call. A call
/// with one worker spawns none: it maps on the calling thread.
///
/// # Examples
///
/// ```
/// use session::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let squares = pool.map(&[1u64, 2, 3], |_i, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// Creates a pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// A pool sized to the machine's available parallelism.
    pub fn default_size() -> Self {
        WorkerPool::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        )
    }

    /// Number of worker threads a [`WorkerPool::map`] call will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f(index, &item)` to every item, fanning out over the pool's
    /// workers, and returns the results in input order.
    ///
    /// Items are claimed one at a time from a shared queue, so threads that
    /// draw cheap items keep working while an expensive item occupies one
    /// worker. With one worker (one thread, or one item) the items are
    /// mapped in order on the calling thread: a fresh thread would only
    /// add its start-up and a per-thread allocator arena that keeps the
    /// memory it freed.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f` (via scoped-thread join, or directly on
    /// the calling thread).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    if tx.send((i, f(i, &items[i]))).is_err() {
                        break;
                    }
                });
            }
        });
        drop(tx);
        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        for (i, r) in rx {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("every item was claimed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let got = WorkerPool::new(7).map(&items, |_, &x| x * 3);
        assert_eq!(got, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn degenerate_sizes() {
        assert!(WorkerPool::new(4).map(&[] as &[u64], |_, &x| x).is_empty());
        assert_eq!(WorkerPool::new(0).threads(), 1, "clamped to one worker");
        assert_eq!(WorkerPool::new(0).map(&[5u64], |_, &x| x), vec![5]);
        // More workers than items is fine.
        assert_eq!(WorkerPool::new(64).map(&[1u64, 2], |_, &x| x), vec![1, 2]);
    }

    #[test]
    fn every_item_visited_exactly_once() {
        let count = AtomicU64::new(0);
        let items: Vec<usize> = (0..1000).collect();
        let got = WorkerPool::new(8).map(&items, |i, &x| {
            count.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, x, "index matches item position");
            x
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
        assert_eq!(got.len(), 1000);
    }

    #[test]
    fn one_worker_maps_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..5).collect();
        let threads_of =
            |pool: WorkerPool, items: &[u64]| pool.map(items, |_, _| std::thread::current().id());
        // One thread, or one item: nothing is spawned.
        assert!(threads_of(WorkerPool::new(1), &items)
            .iter()
            .all(|&id| id == caller));
        assert_eq!(threads_of(WorkerPool::new(4), &items[..1]), vec![caller]);
        // Two or more workers run off the caller.
        assert!(threads_of(WorkerPool::new(2), &items)
            .iter()
            .all(|&id| id != caller));
    }

    #[test]
    fn index_is_passed_through() {
        let items = ["a", "b", "c"];
        let got = WorkerPool::new(2).map(&items, |i, s| format!("{i}{s}"));
        assert_eq!(got, vec!["0a", "1b", "2c"]);
    }
}

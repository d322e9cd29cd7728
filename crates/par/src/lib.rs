//! **cqapx-par** — the batch-level worker pool of the serving engine
//! (`cqapx-engine`).
//!
//! The build environment has no crate registry, so rayon is not
//! available; this crate provides the two primitives the engine needs
//! on plain `std::thread::scope` and a `Mutex`, in safe code only:
//!
//! * [`ThreadBudget`] — one shared, non-blocking budget of worker
//!   permits: a batch [`ThreadBudget::claim`]s extra workers and runs
//!   sequentially when none are left, so concurrent batches never
//!   oversubscribe the configured core count;
//! * [`parallel_map`] — an order-preserving data-parallel map whose
//!   workers claim chunks of items from one shared queue.
//!
//! Determinism contract: [`parallel_map`] returns results in input
//! order, each item processed exactly once. `threads == 1` degrades to
//! a plain loop with no thread and no lock.

#![deny(missing_docs)]
#![warn(clippy::all)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A shared, non-blocking budget of worker threads.
///
/// A budget created with `new(t)` holds `t - 1` *extra-worker* permits:
/// the calling thread is always the first worker, and a fan-out must
/// [`claim`](ThreadBudget::claim) permits for the rest. Claims are
/// try-only: when the budget is exhausted the claim returns zero extras
/// and the caller simply runs sequentially.
///
/// `new(1)` (or [`sequential`](ThreadBudget::sequential)) has zero
/// capacity: every claim short-circuits on a plain field read — no
/// atomics.
#[derive(Debug)]
pub struct ThreadBudget {
    /// Total extra-worker permits (threads - 1).
    capacity: usize,
    /// Permits currently unclaimed.
    available: AtomicUsize,
}

impl ThreadBudget {
    /// A budget for `threads` total workers (`threads.max(1) - 1` extra
    /// permits).
    pub fn new(threads: usize) -> Self {
        let capacity = threads.max(1) - 1;
        ThreadBudget {
            capacity,
            available: AtomicUsize::new(capacity),
        }
    }

    /// The zero-capacity budget: every claim yields no extra workers.
    pub fn sequential() -> Self {
        ThreadBudget::new(1)
    }

    /// Total extra-worker permits the budget was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Permits currently unclaimed (racy snapshot; for tests/stats).
    pub fn available(&self) -> usize {
        if self.capacity == 0 {
            0
        } else {
            self.available.load(Ordering::Relaxed)
        }
    }

    /// Claims up to `want` extra-worker permits, returning a [`Lease`]
    /// holding however many (possibly zero) were available. Never
    /// blocks. Dropping the lease returns the permits.
    pub fn claim(&self, want: usize) -> Lease<'_> {
        let none = Lease {
            budget: None,
            extra: 0,
        };
        if self.capacity == 0 || want == 0 {
            return none;
        }
        let mut cur = self.available.load(Ordering::Relaxed);
        loop {
            let take = cur.min(want);
            if take == 0 {
                return none;
            }
            match self.available.compare_exchange_weak(
                cur,
                cur - take,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Lease {
                        budget: Some(self),
                        extra: take,
                    }
                }
                Err(seen) => cur = seen,
            }
        }
    }
}

/// A claim on extra-worker permits; permits return to the budget on
/// drop.
#[derive(Debug)]
pub struct Lease<'a> {
    budget: Option<&'a ThreadBudget>,
    extra: usize,
}

impl Lease<'_> {
    /// Total workers the holder may run: the claimed extras plus the
    /// calling thread itself.
    pub fn workers(&self) -> usize {
        self.extra + 1
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        if let Some(b) = self.budget {
            b.available.fetch_add(self.extra, Ordering::AcqRel);
        }
    }
}

/// Applies `f` to every item on up to `threads` worker threads,
/// returning results in input order.
///
/// Work distribution is **chunked claiming**: the items sit in one
/// `Mutex`-guarded queue, tagged with their input index, and a worker
/// takes `max(1, n / (threads · 8))` of them per lock, so the tail
/// still load-balances while the lock is taken a few times per worker.
/// Each worker keeps its `(index, result)` pairs; they are put back in
/// input order once every worker has finished. `f` never runs under the
/// lock. `threads == 1` (or a single item) is a sequential map with no
/// thread overhead.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = (n / (threads * 8)).max(1);
    let queue = Mutex::new(items.into_iter().enumerate());
    let worker = || {
        let mut done: Vec<(usize, R)> = Vec::new();
        loop {
            // Read through poison: `f` never runs under the lock, so a
            // panicking worker leaves the queue valid for the others.
            let claimed: Vec<(usize, T)> = queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .by_ref()
                .take(chunk)
                .collect();
            if claimed.is_empty() {
                return done;
            }
            done.extend(claimed.into_iter().map(|(i, item)| (i, f(item))));
        }
    };
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        for w in workers {
            let done = w.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            for (i, r) in done {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every item is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect(), 8, |x: u64| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<u64>>());
    }

    #[test]
    fn single_thread_and_empty() {
        assert_eq!(parallel_map(vec![1, 2, 3], 1, |x| x + 1), vec![2, 3, 4]);
        assert_eq!(parallel_map(Vec::<u32>::new(), 4, |x| x), Vec::<u32>::new());
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(parallel_map(vec![5], 16, |x| x * 2), vec![10]);
    }

    /// Under heavy contention (many workers, tiny chunks, uneven
    /// per-item work) the results must still come back in input order,
    /// each item processed exactly once.
    #[test]
    fn chunked_claiming_keeps_input_order_under_contention() {
        let n: usize = 10_000;
        let calls = AtomicU64::new(0);
        let out = parallel_map((0..n).collect(), 8, |i: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            // Uneven work so workers interleave chunk claims.
            let mut acc = i as u64;
            for _ in 0..(i % 97) {
                acc = acc.wrapping_mul(0x9E37_79B9).rotate_left(7);
            }
            (i, acc)
        });
        assert_eq!(calls.load(Ordering::Relaxed), n as u64);
        for (pos, (i, _)) in out.iter().enumerate() {
            assert_eq!(pos, *i, "result out of input order");
        }
    }

    #[test]
    fn budget_claims_and_returns() {
        let b = ThreadBudget::new(4);
        assert_eq!(b.capacity(), 3);
        let l1 = b.claim(2);
        assert_eq!(l1.workers(), 3);
        let l2 = b.claim(5);
        assert_eq!(l2.workers() - 1, 1, "only one permit left");
        let l3 = b.claim(1);
        assert_eq!(l3.workers() - 1, 0, "exhausted: sequential fallback");
        drop(l1);
        drop(l2);
        drop(l3);
        assert_eq!(b.available(), 3, "permits return on drop");
    }

    #[test]
    fn sequential_budget_never_grants() {
        let b = ThreadBudget::sequential();
        assert_eq!(b.capacity(), 0);
        assert_eq!(b.claim(8).workers() - 1, 0);
        assert_eq!(ThreadBudget::new(0).capacity(), 0, "0 threads = 1 worker");
    }

    #[test]
    fn budget_is_shared_across_threads() {
        let b = ThreadBudget::new(8);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        let l = b.claim(3);
                        assert!(l.workers() - 1 <= 3);
                        std::hint::black_box(&l);
                    }
                });
            }
        });
        assert_eq!(b.available(), 7, "all permits returned after the scope");
    }
}

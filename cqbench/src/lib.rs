//! **cqbench** — the repository's benchmark: four workloads driven
//! through `cqapx-engine` as a caller drives it (one closed-loop client,
//! one engine thread), six end-to-end metrics, and per-layer metrics
//! from a separate traced run. `README.md` says why each workload
//! exists and how the bounds in `BENCHMARK.json` were calibrated.
//!
//! Three rules keep the timings steady on a small shared machine:
//! a run is a fixed number of identical fixed-work rounds, never a
//! time-boxed window; every timing metric is computed from the fastest
//! eighth of the rounds only; and allocation counts, which repeat
//! exactly, are reported beside the clocks.

pub mod input;
pub mod layers;
pub mod report;
pub mod run;
pub mod trace;
pub mod workload;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus two counters that only move while
/// [`CountingAlloc::counting`] is on. Off, an allocation pays one
/// relaxed load; the timed rounds run with it off and a separate
/// counted pass turns it on.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    pub fn counting(on: bool) {
        COUNTING.store(on, Ordering::Relaxed);
    }

    /// `(allocations, bytes requested)` counted so far.
    pub fn totals() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    }

    #[inline]
    fn note(size: usize) {
        // Statistics only: the counters publish no other data.
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout`, as the
        // caller vouches; `new_size` is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

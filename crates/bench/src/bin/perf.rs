//! `pidpiper-bench-perf`: the inference hot-path benchmark with a counting
//! global allocator.
//!
//! Runs [`pidpiper_bench::exp_perf`] with allocation accounting, checks
//! the report and writes `BENCH_inference.json` to the workspace root.
//! Exits non-zero if the streaming `observe` loop performed *any* heap
//! allocation after warm-up — the zero-allocation property is part of the
//! engine's contract, not just a nice-to-have — or if any other report
//! value is out of range (`PerfReport::check`).

use pidpiper_bench::exp_perf;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Global count of `alloc`/`realloc` calls since process start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Delegates every operation to [`System`], counting allocations.
struct CountingAlloc;

// SAFETY: forwards directly to the system allocator; the relaxed counter
// increment does not affect allocation behavior or layout.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() {
    let cfg = exp_perf::PerfConfig::from_env();
    let counter = || ALLOCATIONS.load(Ordering::Relaxed);
    let report = exp_perf::run_perf(&cfg, Some(&counter));
    // The counter was supplied, so the rate was measured and `check`
    // rejects any allocation in the timed streaming loop.
    exp_perf::check_and_write(&report);
    println!("zero-allocation assertion: OK");
}

//! A counting global allocator. It forwards every request to the system
//! allocator and, only while switched on (the `--trace 1` run), counts
//! allocations process-wide and per thread, so a traced stage can read how
//! many heap allocations it made.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The allocator installed by `main.rs`.
pub struct CountingAlloc;

// Relaxed throughout: the counters are statistics and publish no other data.
static ON: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if ON.load(Ordering::Relaxed) {
        TOTAL.fetch_add(1, Ordering::Relaxed);
        // `try_with`: a thread being torn down may still allocate.
        let _ = LOCAL.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// a const-initialised thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` carry over to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches counting on or off for the whole process.
pub fn set_counting(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Allocations counted on all threads since the process started.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocations counted on the calling thread.
pub fn local() -> u64 {
    LOCAL.try_with(Cell::get).unwrap_or(0)
}

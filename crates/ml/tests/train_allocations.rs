//! Allocation gate for `LstmRegressor::train`: training allocates its
//! bookkeeping once per call and nothing per sample or per epoch.
//!
//! A counting global allocator counts the heap allocations of the calling
//! thread only, so the test harness's own threads do not disturb it.

use pidpiper_ml::{LstmRegressor, RegressorConfig, WindowedDataset};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `alloc`/`realloc` calls made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Delegates every operation to [`System`], counting allocations.
struct CountingAlloc;

fn count() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: forwards directly to the system allocator; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor
// affects allocation behavior or layout.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap allocations made by one `train` call.
fn train_allocations(model: &mut LstmRegressor, ds: &WindowedDataset, epochs: usize) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let report = model.train(ds, epochs, 0.01, 5);
    let made = ALLOCATIONS.with(Cell::get) - before;
    assert!(report.final_mse.is_finite());
    made
}

#[test]
fn deployed_training_allocates_at_most_once_per_sample() {
    // The deployed FFC network (24 features, 4 outputs, hidden 24, FC 24,
    // 20-step windows) on 31 windows: three full Adam groups and a ragged
    // one, the size of one benchmark training request.
    let config = RegressorConfig::standard(24, 4);
    let len = 31 + config.window - 1;
    let inputs: Vec<Vec<f64>> = (0..len)
        .map(|t| {
            (0..24)
                .map(|f| ((3 * t + 5 * f) as f64 * 0.29).sin())
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f64>> = inputs.iter().map(|x| x[..4].to_vec()).collect();
    let ds = WindowedDataset::from_series(&inputs, &targets, config.window);
    let mut model = LstmRegressor::new(config, 42);
    model.fit_normalizers(&ds);

    let one_epoch = train_allocations(&mut model, &ds, 1);
    assert!(
        one_epoch <= ds.len() as u64,
        "{one_epoch} allocations for {} trained samples",
        ds.len()
    );
    // The count is a constant of the call: more epochs (and so more
    // samples and Adam steps) allocate nothing more.
    assert_eq!(train_allocations(&mut model, &ds, 3), one_epoch);
    assert_eq!(train_allocations(&mut model, &ds, 1), one_epoch);
}

//! Allocation gate for `FfcModel::observe`: after its first call, the
//! per-tick path makes no heap allocation — warm-up, decimated push
//! ticks, the owed ticks after them, plain ticks and a reset included.
//!
//! A counting global allocator counts the heap allocations of the calling
//! thread only, so the test harness's own threads do not disturb it.

use pidpiper_control::{ActuatorSignal, TargetState};
use pidpiper_core::ffc::PipelineConfig;
use pidpiper_core::{FeatureSet, FfcModel, SensorPrimitives};
use pidpiper_math::Vec3;
use pidpiper_missions::FlightPhase;
use pidpiper_ml::{LstmRegressor, RegressorConfig};
use pidpiper_sensors::{EstimatedState, SensorReadings};
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

/// Sanitized primitives of a smooth synthetic flight at step `i`.
fn prims_at(i: usize) -> SensorPrimitives {
    let t = i as f64 * 0.01;
    let est = EstimatedState {
        position: Vec3::new(2.0 * t, (0.7 * t).sin(), 5.0 + 0.3 * (0.4 * t).cos()),
        velocity: Vec3::new(2.0, 0.7 * (0.7 * t).cos(), -0.12 * (0.4 * t).sin()),
        attitude: Vec3::new(0.02 * (1.1 * t).sin(), 0.03 * (0.9 * t).cos(), 0.1 * t),
        ..Default::default()
    };
    SensorPrimitives::collect(&est, &SensorReadings::default())
}

#[test]
fn observe_allocates_nothing_after_its_first_call() {
    // The deployed FFC: window 20, decimation 5, hidden 24.
    let set = FeatureSet::FfcPruned;
    let config = RegressorConfig::standard(set.dim(), ActuatorSignal::DIM);
    let mut model = FfcModel::new(
        LstmRegressor::new(config, 17),
        set,
        PipelineConfig::default(),
    );
    let target = TargetState::hover_at(Vec3::new(30.0, 0.0, 5.0), 0.0);
    let phase = FlightPhase::Cruise { wp_index: 0 };
    let prims: Vec<SensorPrimitives> = (0..=600).map(prims_at).collect();

    model.observe(&prims[0], &target, phase);
    let before = ALLOCATIONS.with(Cell::get);
    let mut predicted = 0;
    // Ticks since the last reset of the push's owed tick (the first quiet
    // tick after a push, which steps the lanes the push left).
    let mut owed = 0;
    let mut since = 1;
    for (i, p) in prims.iter().enumerate().skip(1) {
        if i == 401 {
            model.reset();
            since = 0;
        }
        predicted += usize::from(model.observe(p, &target, phase).is_some());
        owed += usize::from(since % 5 == 1);
        since += 1;
    }
    let made = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(made, 0, "{made} allocations over 600 observe ticks");
    // The loop covered 120 whole decimation cycles (80 after the first
    // push, 40 after the reset), each a push, its owed tick and three
    // plain ticks, through the warm-up and full-history ticks on both
    // sides of the reset: window 20 at decimation 5 first predicts at
    // tick 91.
    assert_eq!(owed, 120);
    assert_eq!(predicted, (401 - 91) + (200 - 91));
}

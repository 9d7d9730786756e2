//! The FFC's prefix bank against the reference it replaces: at every tick
//! where [`FfcModel::observe`] predicts, its prediction must equal
//! [`LstmRegressor::predict`] on the whole window (the last `window - 1`
//! decimated samples, then this tick's row), by `to_bits`; and it must
//! predict exactly at the ticks where that window exists. Random tiny
//! models, windows and decimations 1..=6, resets mid-trace (some placed
//! exactly on push ticks and on the owed ticks after them), clones taken
//! on every owed tick, and NaN and ±inf bursts in the inputs; plus the
//! deployed shape (window 20, decimation 5, hidden 24), whose pushes
//! step half the bank and owe the other half to the next tick.

mod common;

use common::{random_model, random_trace, Step};
use pidpiper_control::ActuatorSignal;
use pidpiper_core::features::assemble;
use pidpiper_core::FfcModel;
use pidpiper_ml::LstmRegressor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// The whole-window reference: the sampled rows in a queue, and
/// `LstmRegressor::predict` over the full window at every tick.
struct WindowReference {
    regressor: LstmRegressor,
    history: VecDeque<Vec<f64>>,
    decimate: usize,
    tick: usize,
}

impl WindowReference {
    fn new(model: &FfcModel) -> Self {
        WindowReference {
            regressor: LstmRegressor::from_text(&model.to_text()).expect("round trip"),
            history: VecDeque::new(),
            decimate: model.pipeline().decimate,
            tick: 0,
        }
    }

    fn reset(&mut self) {
        self.history.clear();
        self.tick = 0;
    }

    /// The reference prediction for this step, if the window is full.
    fn observe(&mut self, model: &FfcModel, s: &Step) -> Option<[f64; ActuatorSignal::DIM]> {
        let cap = self.regressor.config().window - 1;
        let row = assemble(
            model.feature_set(),
            &s.prims,
            &s.target,
            s.phase,
            &ActuatorSignal::default(),
        );
        let y = (self.history.len() == cap).then(|| {
            let mut window: Vec<Vec<f64>> = self.history.iter().cloned().collect();
            window.push(row.clone());
            let y = self.regressor.predict(&window).expect("well-formed window");
            [y[0], y[1], y[2], y[3]]
        });
        if cap > 0 && self.tick.is_multiple_of(self.decimate) {
            if self.history.len() == cap {
                self.history.pop_front();
            }
            self.history.push_back(row);
        }
        self.tick += 1;
        y
    }
}

/// `to_bits`, with every NaN read as [`f64::NAN`]: the reference path
/// does not fix which NaN an invalid operation returns, while the
/// streaming kernels store `f64::NAN` for every NaN.
fn bits(y: [f64; ActuatorSignal::DIM]) -> [u64; ActuatorSignal::DIM] {
    y.map(|v| if v.is_nan() { f64::NAN } else { v }.to_bits())
}

/// Runs `trace` through `model` and the reference side by side,
/// resetting both before each tick listed in `resets`. On every owed
/// tick (the first quiet tick after a push, counted since the last
/// reset) the model is also cloned before it observes, and the clone
/// runs the rest of the trace against the same reference predictions:
/// a clone taken between a push and its owed tick must carry the lanes
/// the push still owes.
fn assert_bank_matches_reference(model: &mut FfcModel, trace: &[Step], resets: &[usize]) {
    let mut reference = WindowReference::new(model);
    let want: Vec<_> = trace
        .iter()
        .enumerate()
        .map(|(t, s)| {
            if resets.contains(&t) {
                reference.reset();
            }
            reference.observe(model, s)
        })
        .collect();
    model.reset();
    let predicted = run_against(model, trace, resets, &want, (0, 0), true);
    let cap = model.network_config().window - 1;
    let warmup = if cap == 0 {
        0
    } else {
        (cap - 1) * model.pipeline().decimate + 1
    };
    if resets.is_empty() && trace.len() > warmup {
        assert_eq!(predicted, trace.len() - warmup, "prediction count");
    }
}

/// Observes ticks `from..` of `trace` into `model`, which has observed
/// `since` ticks since its last reset (or the trace start), against the
/// reference predictions `want`; clones the model on every owed tick
/// when `clone_on_owed`.
/// Returns the number of predictions.
fn run_against(
    model: &mut FfcModel,
    trace: &[Step],
    resets: &[usize],
    want: &[Option<[f64; ActuatorSignal::DIM]>],
    (from, mut since): (usize, usize),
    clone_on_owed: bool,
) -> usize {
    let decimate = model.pipeline().decimate;
    let has_history = model.network_config().window > 1;
    let mut predicted = 0;
    for (t, s) in trace.iter().enumerate().skip(from) {
        if resets.contains(&t) {
            model.reset();
            since = 0;
        }
        let owed = has_history && decimate > 1 && since > 0 && (since - 1) % decimate == 0;
        if clone_on_owed && owed {
            let mut clone = model.clone();
            run_against(&mut clone, trace, resets, want, (t, since), false);
        }
        let got = model.observe(&s.prims, &s.target, s.phase);
        assert_eq!(got.is_some(), want[t].is_some(), "tick {t}: warm-up differs");
        if let (Some(got), Some(want)) = (got, want[t]) {
            assert_eq!(bits(got.to_array()), bits(want), "tick {t}");
            predicted += 1;
        }
        since += 1;
    }
    predicted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn observe_equals_whole_window_predict(
        seed in 0u64..1_000_000,
        window in 1usize..7,
        decimate in 1usize..7,
        len in 0usize..160,
        n_resets in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // 4 * hidden up to 104 gate units: the GEMM's quad, single and
        // masked column tiles.
        let mut model = random_model(&mut rng, window, decimate, 1..27);
        let trace = random_trace(&mut rng, len);
        let resets: Vec<usize> = (0..n_resets).map(|_| rng.gen_range(0..len + 1)).collect();
        assert_bank_matches_reference(&mut model, &trace, &resets);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Resets placed exactly on push ticks and on owed ticks: a reset
    // between a push and its owed tick must drop the owed lanes.
    #[test]
    fn resets_on_push_and_owed_ticks(
        seed in 0u64..1_000_000,
        window in 2usize..7,
        decimate in 1usize..7,
        periods in prop::collection::vec(0usize..12, 1..4),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = random_model(&mut rng, window, decimate, 1..27);
        // Alternately a push tick and the tick after a push, each
        // counted from the reset before it.
        let mut resets = Vec::new();
        let mut at = 0;
        for (i, &n) in periods.iter().enumerate() {
            at += n * decimate + i % 2;
            resets.push(at);
        }
        let trace = random_trace(&mut rng, at + 4 * window * decimate);
        assert_bank_matches_reference(&mut model, &trace, &resets);
    }
}

#[test]
fn deployed_shape_matches_whole_window_predict() {
    // Window 20 at decimation 5 with hidden 24: a push steps the live
    // lane from the frozen prefix and one half of the 19 partial windows
    // (9 or 10 lanes, the one completing the next prefix among them),
    // and the tick after it steps the other half. A reset at tick 333
    // (not a push tick) restarts the warm-up mid-stream; one at 335 lands
    // on a push tick and one at 436 on the owed tick after a push.
    let mut rng = StdRng::seed_from_u64(21);
    let mut model = random_model(&mut rng, 20, 5, 24..25);
    let trace = random_trace(&mut rng, 700);
    assert_bank_matches_reference(&mut model, &trace, &[]);
    assert_bank_matches_reference(&mut model, &trace, &[333]);
    assert_bank_matches_reference(&mut model, &trace, &[335, 436]);
}

#[test]
fn every_tick_pushes_at_decimation_one() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut model = random_model(&mut rng, 6, 1, 3..9);
    let trace = random_trace(&mut rng, 120);
    assert_bank_matches_reference(&mut model, &trace, &[40, 41]);
}

#[test]
fn no_history_predicts_from_the_first_tick() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut model = random_model(&mut rng, 1, 3, 2..6);
    let trace = random_trace(&mut rng, 30);
    model.reset();
    for s in &trace {
        assert!(model.observe(&s.prims, &s.target, s.phase).is_some());
    }
    assert_bank_matches_reference(&mut model, &trace, &[]);
}

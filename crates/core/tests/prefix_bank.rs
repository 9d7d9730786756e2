//! The FFC's prefix bank against the reference it replaces: at every tick
//! where [`FfcModel::observe`] predicts, its prediction must equal
//! [`LstmRegressor::predict`] on the whole window (the last `window - 1`
//! decimated samples, then this tick's row), by `to_bits`; and it must
//! predict exactly at the ticks where that window exists. Random tiny
//! models, windows and decimations 1..=6, resets mid-trace, and NaN and
//! ±inf bursts in the inputs; plus the deployed shape (window 20,
//! decimation 5, hidden 24), whose bank steps 20 lanes at once.

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
/// resetting both before each tick listed in `resets`.
fn assert_bank_matches_reference(model: &mut FfcModel, trace: &[Step], resets: &[usize]) {
    let mut reference = WindowReference::new(model);
    model.reset();
    let mut predicted = 0;
    for (t, s) in trace.iter().enumerate() {
        if resets.contains(&t) {
            model.reset();
            reference.reset();
        }
        let got = model.observe(&s.prims, &s.target, s.phase);
        let want = reference.observe(model, s);
        assert_eq!(got.is_some(), want.is_some(), "tick {t}: warm-up differs");
        if let (Some(got), Some(want)) = (got, want) {
            assert_eq!(bits(got.to_array()), bits(want), "tick {t}");
            predicted += 1;
        }
    }
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

#[test]
fn deployed_shape_matches_whole_window_predict() {
    // Window 20 at decimation 5 with hidden 24: a push steps 19 partial
    // windows and the live lane as one 20-row step. A reset at tick 333
    // (not a push tick) restarts the warm-up mid-stream.
    let mut rng = StdRng::seed_from_u64(21);
    let mut model = random_model(&mut rng, 20, 5, 24..25);
    let trace = random_trace(&mut rng, 700);
    assert_bank_matches_reference(&mut model, &trace, &[]);
    assert_bank_matches_reference(&mut model, &trace, &[333]);
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

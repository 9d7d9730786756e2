//! The offline calibration replay ([`FfcModel::replay`]) against the
//! online path it stands in for: on random tiny models, windows and
//! decimations, over several traces per call (some too short to warm up,
//! some long enough to span several 64-lane chunks) with NaN and ±inf
//! bursts in the inputs, every replayed prediction must equal what
//! per-tick [`FfcModel::observe`] returns at that tick, by `to_bits`.

use pidpiper_control::{ActuatorSignal, TargetState};
use pidpiper_core::ffc::PipelineConfig;
use pidpiper_core::{FeatureSet, FfcModel, ReplayRows, SensorPrimitives};
use pidpiper_math::Vec3;
use pidpiper_missions::FlightPhase;
use pidpiper_ml::{LstmRegressor, RegressorConfig, WindowedDataset};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One control step of replay input.
struct Step {
    prims: SensorPrimitives,
    target: TargetState,
    phase: FlightPhase,
}

/// A value for one primitive: mostly smooth noise, with rare non-finite
/// bursts.
fn value(rng: &mut StdRng, burst: bool) -> f64 {
    if burst {
        match rng.gen_range(0..3u32) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        }
    } else {
        rng.gen_range(-20.0..20.0)
    }
}

fn triple(rng: &mut StdRng, burst: bool) -> [f64; 3] {
    [value(rng, burst), value(rng, false), value(rng, burst)]
}

/// A random trace of `len` steps; each step has a 1-in-25 chance of
/// starting a burst of non-finite primitives that lasts a few steps.
fn random_trace(rng: &mut StdRng, len: usize) -> Vec<Step> {
    let mut burst_left = 0usize;
    (0..len)
        .map(|_| {
            if burst_left == 0 && rng.gen_range(0..25u32) == 0 {
                burst_left = rng.gen_range(1..6usize);
            }
            let burst = burst_left > 0;
            burst_left = burst_left.saturating_sub(1);
            let prims = SensorPrimitives {
                position: triple(rng, burst),
                velocity: triple(rng, false),
                attitude: triple(rng, burst),
                body_rates: triple(rng, false),
                position_variance: triple(rng, false),
                acceleration: triple(rng, burst),
                gps_position: triple(rng, false),
                gps_velocity: triple(rng, false),
                gyro: triple(rng, burst),
                accel: triple(rng, false),
                baro: value(rng, false),
                mag: value(rng, burst),
            };
            let target = TargetState::hover_at(
                Vec3::new(value(rng, false), value(rng, false), value(rng, false)),
                value(rng, false),
            );
            let phase = match rng.gen_range(0..4u32) {
                0 => FlightPhase::Takeoff,
                1 => FlightPhase::Cruise {
                    wp_index: rng.gen_range(0..4usize),
                },
                2 => FlightPhase::Land,
                _ => FlightPhase::Arm,
            };
            Step {
                prims,
                target,
                phase,
            }
        })
        .collect()
}

/// A random tiny FFC with normalizers fitted on random rows, so the
/// normalization the replay does once per row is not the identity.
fn random_model(rng: &mut StdRng, window: usize, decimate: usize) -> FfcModel {
    let set = FeatureSet::FfcPruned;
    let config = RegressorConfig {
        input_dim: set.dim(),
        output_dim: ActuatorSignal::DIM,
        hidden: rng.gen_range(1..7usize),
        fc_width: rng.gen_range(1..7usize),
        window,
    };
    let mut regressor = LstmRegressor::new(config, rng.gen_range(0..u64::MAX));
    let rows = window + 8;
    let inputs: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..set.dim()).map(|_| rng.gen_range(-30.0..30.0)).collect())
        .collect();
    let targets: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..ActuatorSignal::DIM).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .collect();
    let mut ds = WindowedDataset::new(window);
    ds.extend_from_series(&inputs, &targets);
    regressor.fit_normalizers(&ds);
    FfcModel::new(
        regressor,
        set,
        PipelineConfig {
            decimate,
            ..PipelineConfig::default()
        },
    )
}

/// Replays `traces` offline and asserts the series equal per-tick
/// `observe` from a reset model, tick by tick, by `to_bits`.
fn assert_replay_matches_observe(model: &FfcModel, traces: &[Vec<Step>]) {
    let mut rows = ReplayRows::new(model.feature_set());
    for trace in traces {
        rows.begin_trace();
        for s in trace {
            rows.push(&s.prims, &s.target, s.phase);
        }
    }
    let replayed = model.replay(rows);
    assert_eq!(replayed.len(), traces.len());
    let bits = |y: &ActuatorSignal| y.to_array().map(f64::to_bits);
    for (i, (trace, series)) in traces.iter().zip(&replayed).enumerate() {
        let mut online = model.clone();
        online.reset();
        let expected: Vec<(usize, ActuatorSignal)> = trace
            .iter()
            .enumerate()
            .filter_map(|(t, s)| online.observe(&s.prims, &s.target, s.phase).map(|y| (t, y)))
            .collect();
        assert_eq!(
            series.len(),
            expected.len(),
            "trace {i}: replayed {} ticks, observe predicted {}",
            series.len(),
            expected.len()
        );
        // The replayed series is the trace's last `len` ticks.
        let first = trace.len() - series.len();
        for (k, (got, (t, want))) in series.iter().zip(&expected).enumerate() {
            assert_eq!(*t, first + k, "trace {i}: observe skipped a tick");
            assert_eq!(bits(got), bits(want), "trace {i}, tick {t}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn replay_equals_per_tick_observe(
        seed in 0u64..1_000_000,
        window in 1usize..7,
        decimate in 1usize..7,
        n_traces in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = random_model(&mut rng, window, decimate);
        let warmup = if window == 1 { 0 } else { (window - 2) * decimate + 1 };
        let traces: Vec<Vec<Step>> = (0..n_traces)
            .map(|_| {
                // A third of the traces never warm up; the rest reach up to
                // 128 prefixes at the widest decimation.
                let len = if rng.gen_range(0..3u32) == 0 {
                    rng.gen_range(0..warmup + 1)
                } else {
                    rng.gen_range(0..770usize)
                };
                random_trace(&mut rng, len)
            })
            .collect();
        assert_replay_matches_observe(&model, &traces);
    }
}

#[test]
fn empty_and_cold_traces_replay_to_empty_series() {
    let mut rng = StdRng::seed_from_u64(7);
    let model = random_model(&mut rng, 4, 3);
    // Window 4 at decimation 3 first predicts at tick 7.
    let traces: Vec<Vec<Step>> = [0, 7, 8, 0]
        .into_iter()
        .map(|len| random_trace(&mut rng, len))
        .collect();
    assert_replay_matches_observe(&model, &traces);
    let mut rows = ReplayRows::new(model.feature_set());
    for trace in &traces {
        rows.begin_trace();
        for s in trace {
            rows.push(&s.prims, &s.target, s.phase);
        }
    }
    let lens: Vec<usize> = model.replay(rows).iter().map(Vec::len).collect();
    assert_eq!(lens, [0, 0, 1, 0]);
}

#[test]
fn one_long_trace_spans_many_chunks() {
    // 2,000 ticks at window 20 / decimation 5 (the deployed shape): 382
    // prefixes in six chunks, 1,909 predicted ticks.
    let mut rng = StdRng::seed_from_u64(11);
    let model = random_model(&mut rng, 20, 5);
    let traces = vec![random_trace(&mut rng, 2_000)];
    assert_replay_matches_observe(&model, &traces);
}

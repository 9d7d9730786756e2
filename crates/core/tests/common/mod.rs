//! Random FFC inputs shared by the FFC integration tests: tiny models
//! with fitted normalizers, and traces of sensor primitives with NaN and
//! ±inf bursts.

use pidpiper_control::{ActuatorSignal, TargetState};
use pidpiper_core::ffc::PipelineConfig;
use pidpiper_core::{FeatureSet, FfcModel, SensorPrimitives};
use pidpiper_math::Vec3;
use pidpiper_missions::FlightPhase;
use pidpiper_ml::{LstmRegressor, RegressorConfig, WindowedDataset};
use rand::rngs::StdRng;
use rand::Rng;

/// One control step of FFC input.
pub struct Step {
    pub prims: SensorPrimitives,
    pub target: TargetState,
    pub phase: FlightPhase,
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
pub fn random_trace(rng: &mut StdRng, len: usize) -> Vec<Step> {
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

/// A random tiny FFC with normalizers fitted on random rows (so
/// normalization is not the identity) and `hidden` drawn from
/// `hidden_range`.
pub fn random_model(
    rng: &mut StdRng,
    window: usize,
    decimate: usize,
    hidden_range: std::ops::Range<usize>,
) -> FfcModel {
    let set = FeatureSet::FfcPruned;
    let config = RegressorConfig {
        input_dim: set.dim(),
        output_dim: ActuatorSignal::DIM,
        hidden: rng.gen_range(hidden_range),
        fc_width: rng.gen_range(1..7usize),
        window,
    };
    let mut regressor = LstmRegressor::new(config, rng.gen_range(0..u64::MAX));
    let rows = window + 8;
    let inputs: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..set.dim()).map(|_| rng.gen_range(-30.0..30.0)).collect())
        .collect();
    let targets: Vec<Vec<f64>> = (0..rows)
        .map(|_| {
            (0..ActuatorSignal::DIM)
                .map(|_| rng.gen_range(-2.0..2.0))
                .collect()
        })
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

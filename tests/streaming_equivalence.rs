//! Streaming-engine equivalence, end to end: the zero-allocation FFC hot
//! path must be *bit-identical* to the seed implementation it replaced
//! (clone the whole window, re-normalize every slot, run both LSTMs from
//! zero state each tick), and whole missions driven through the streaming
//! path must replay byte-for-byte.

use pid_piper::attacks::AttackPreset;
use pid_piper::core::features::{assemble, FeatureSet};
use pid_piper::core::ffc::PipelineConfig;
use pid_piper::core::monitor::AxisThresholds;
use pid_piper::core::{FfcModel, PidPiper, PidPiperConfig, SensorPrimitives};
use pid_piper::missions::{
    Defense, FlightPhase, MissionAttack, MissionPlan, MissionRunner, MissionSpec, NoDefense,
    RunnerConfig, TraceRecord,
};
use pid_piper::ml::{LstmRegressor, RegressorConfig, WindowedDataset};
use pid_piper::prelude::ActuatorSignal;
use pid_piper::sim::RvId;
use std::collections::VecDeque;

/// The `exp_fig8` (a) setting: Sky-viper, 40 m straight line, overt
/// gyroscope attack, seed 1201.
fn fig8_records() -> Vec<TraceRecord> {
    let plan = MissionPlan::straight_line(40.0, 5.0);
    let attack = AttackPreset::GyroOvert.instantiate(8.0, (0.0, 0.0));
    let spec = MissionSpec::clean(
        RunnerConfig::for_rv(RvId::SkyViper).with_seed(1201),
        plan,
    )
    .with_attacks(vec![MissionAttack::Scheduled(attack)]);
    let results = MissionRunner::par_run_missions(
        std::slice::from_ref(&spec),
        |_| -> Box<dyn Defense + Send> { Box::new(NoDefense::new()) },
    );
    results
        .into_iter()
        .next()
        .expect("one mission")
        .trace
        .records()
        .to_vec()
}

/// The original (pre-streaming) FFC observe loop, kept verbatim as the
/// reference semantics: raw rows in a `VecDeque`, cloned and
/// re-normalized wholesale on every tick's predict.
struct SeedFfc {
    regressor: LstmRegressor,
    feature_set: FeatureSet,
    decimate: usize,
    window: VecDeque<Vec<f64>>,
    step_counter: usize,
    last_prediction: Option<ActuatorSignal>,
}

impl SeedFfc {
    fn new(regressor: LstmRegressor, feature_set: FeatureSet, decimate: usize) -> Self {
        SeedFfc {
            window: VecDeque::with_capacity(regressor.config().window),
            regressor,
            feature_set,
            decimate,
            step_counter: 0,
            last_prediction: None,
        }
    }

    fn observe(
        &mut self,
        prims: &SensorPrimitives,
        target: &pid_piper::prelude::TargetState,
        phase: FlightPhase,
    ) -> Option<ActuatorSignal> {
        let features = assemble(
            self.feature_set,
            prims,
            target,
            phase,
            &ActuatorSignal::default(),
        );
        let n = self.regressor.config().window;
        if self.window.len() == n - 1 {
            let mut full: Vec<Vec<f64>> = Vec::with_capacity(n);
            full.extend(self.window.iter().cloned());
            full.push(features.clone());
            let y = self.regressor.predict(&full).expect("window is well-formed");
            self.last_prediction = Some(ActuatorSignal::from_array([y[0], y[1], y[2], y[3]]));
        }
        if self.step_counter.is_multiple_of(self.decimate) {
            if self.window.len() == n - 1 {
                self.window.pop_front();
            }
            self.window.push_back(features);
        }
        self.step_counter += 1;
        self.last_prediction
    }

    fn reset(&mut self) {
        self.window.clear();
        self.step_counter = 0;
        self.last_prediction = None;
    }
}

fn assert_bit_equal(step: usize, a: Option<ActuatorSignal>, b: Option<ActuatorSignal>) {
    match (a, b) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            for (c, (va, vb)) in x
                .to_array()
                .into_iter()
                .zip(y.to_array())
                .enumerate()
            {
                assert_eq!(
                    va.to_bits(),
                    vb.to_bits(),
                    "step {step} channel {c}: streaming {va} vs seed {vb}"
                );
            }
        }
        (x, y) => panic!("step {step}: streaming {x:?} vs seed {y:?}"),
    }
}

/// Streaming `FfcModel` vs the seed semantics, on attacked `exp_fig8`
/// mission data, at the deployed configuration (window 20, hidden 24,
/// decimation 5) with fitted normalizers: every per-tick prediction must
/// match to the bit, including across a mid-stream reset.
#[test]
fn streaming_ffc_bit_identical_to_seed_semantics() {
    let records = fig8_records();
    assert!(records.len() > 200, "mission too short to exercise the ring");
    let set = FeatureSet::FfcPruned;
    let config = RegressorConfig::standard(set.dim(), 4);

    // Fit normalizers on the mission's own feature stream so the
    // normalize-once-on-ingest path sees non-trivial statistics.
    let rows: Vec<Vec<f64>> = records
        .iter()
        .map(|r| {
            let prims = SensorPrimitives::collect(&r.est, &r.readings);
            assemble(set, &prims, &r.target, r.phase, &ActuatorSignal::default())
        })
        .collect();
    let targets: Vec<Vec<f64>> = records.iter().map(|r| r.pid_signal.to_array().to_vec()).collect();
    let ds = WindowedDataset::from_series(&rows, &targets, config.window);
    let mut regressor = LstmRegressor::new(config, 42);
    regressor.fit_normalizers(&ds);

    let pipeline = PipelineConfig::default(); // decimate 5
    let mut streaming = FfcModel::new(regressor.clone(), set, pipeline);
    let mut seed = SeedFfc::new(regressor, set, pipeline.decimate);

    for (i, r) in records.iter().enumerate() {
        let prims = SensorPrimitives::collect(&r.est, &r.readings);
        let ys = streaming.observe(&prims, &r.target, r.phase);
        let yr = seed.observe(&prims, &r.target, r.phase);
        assert_bit_equal(i, ys, yr);
    }

    // A reset must restore identical warm-up behavior.
    streaming.reset();
    seed.reset();
    for (i, r) in records.iter().take(150).enumerate() {
        let prims = SensorPrimitives::collect(&r.est, &r.readings);
        let ys = streaming.observe(&prims, &r.target, r.phase);
        let yr = seed.observe(&prims, &r.target, r.phase);
        assert_bit_equal(i, ys, yr);
    }
}

/// Whole missions through the deployed defense (streaming FFC inside the
/// supervisor loop) must replay byte-identically: two runs of the same
/// attacked spec produce equal `TraceRecord` streams and equal trace
/// fingerprints.
#[test]
fn mission_trace_streams_replay_byte_identically() {
    let set = FeatureSet::FfcPruned;
    let net = RegressorConfig {
        input_dim: set.dim(),
        output_dim: 4,
        hidden: 6,
        fc_width: 6,
        window: 5,
    };
    let ffc = FfcModel::new(
        LstmRegressor::new(net, 7),
        set,
        PipelineConfig {
            decimate: 2,
            gate: Default::default(),
        },
    );
    let pidpiper = PidPiper::new(
        ffc,
        PidPiperConfig::new(AxisThresholds::quad(18.0, 18.0, 18.6), [0.5; 4], 5, 12),
    );

    let plan = MissionPlan::straight_line(40.0, 5.0);
    let attack = AttackPreset::GyroOvert.instantiate(8.0, (0.0, 0.0));
    let spec = MissionSpec::clean(
        RunnerConfig::for_rv(RvId::SkyViper).with_seed(1201),
        plan,
    )
    .with_attacks(vec![MissionAttack::Scheduled(attack)]);
    let specs = [spec.clone(), spec];
    let results = MissionRunner::par_run_missions(&specs, |_| -> Box<dyn Defense + Send> {
        Box::new(pidpiper.clone())
    });
    assert_eq!(results.len(), 2);
    let a = &results[0].trace;
    let b = &results[1].trace;
    assert!(!a.is_empty());
    assert_eq!(a.fingerprint(), b.fingerprint(), "trace fingerprints diverged");
    assert_eq!(a.records(), b.records(), "TraceRecord streams diverged");
    // The defense actually engaged somewhere along the attacked mission —
    // otherwise this equality would not cover the FFC recovery path.
    assert!(a.recovery_steps() > 0, "attack never triggered recovery");
}

/// A ragged shape through the compiled engine: hidden 25 gives 100 gate
/// units (three 32-unit tiles, no 8-unit tile, a 4-unit scalar tail) and
/// fc_width 9 one 8-unit tile plus a 1-unit tail. Both entry points — the
/// whole-window `predict_into` and the incremental `step_normed` +
/// `finish_into` — must match `LstmRegressor::predict` to the bit.
#[test]
fn ragged_shape_engine_bit_identical_to_reference() {
    let config = RegressorConfig {
        input_dim: 7,
        output_dim: 4,
        hidden: 25,
        fc_width: 9,
        window: 6,
    };
    let series = |n: usize, dim: usize, salt: f64| -> Vec<Vec<f64>> {
        (0..n)
            .map(|t| {
                (0..dim)
                    .map(|j| ((t * 13 + j * 7) as f64 * 0.29 + salt).sin() * (3.0 + j as f64))
                    .collect()
            })
            .collect()
    };
    let ds = WindowedDataset::from_series(
        &series(40, config.input_dim, 0.5),
        &series(40, config.output_dim, 1.7),
        config.window,
    );
    let mut model = LstmRegressor::new(config, 2025);
    model.fit_normalizers(&ds);
    // One epoch moves every bias off zero. With zero biases the two gate
    // accumulators commute, so a swapped reduction order would still
    // match the reference.
    model.train(&ds, 1, 0.02, 3);
    let engine = model.compile();
    let mut scratch = engine.scratch();
    let mut state = engine.state();
    let mut normed = vec![0.0; config.input_dim];
    let mut whole = vec![0.0; config.output_dim];
    let mut inc = vec![0.0; config.output_dim];
    for salt in [0.0, 2.3, -4.1] {
        let window = series(config.window, config.input_dim, salt);
        let reference = model.predict(&window).expect("valid window");
        engine
            .predict_into(&window, &mut scratch, &mut whole)
            .expect("valid window");
        state.reset();
        for row in &window {
            engine.normalize_into(row, &mut normed).expect("dims");
            engine
                .step_normed(&normed, &mut state, &mut scratch)
                .expect("dims");
        }
        engine.finish_into(&state, &mut scratch, &mut inc).expect("dims");
        for c in 0..config.output_dim {
            assert_eq!(whole[c].to_bits(), reference[c].to_bits(), "predict_into ch {c}");
            assert_eq!(inc[c].to_bits(), reference[c].to_bits(), "incremental ch {c}");
        }
    }
}

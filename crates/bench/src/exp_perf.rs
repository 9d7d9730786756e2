//! `exp_perf`: inference hot-path latency — the seed (allocating,
//! re-normalizing) FFC observe loop vs the zero-allocation streaming
//! engine, at the deployed configuration.
//!
//! The seed path is reproduced here verbatim as `SeedFfc`: raw feature
//! rows in a `VecDeque`, cloned into a fresh `Vec<Vec<f64>>` and
//! re-normalized wholesale on every tick's `predict`. The streaming path
//! is the real [`FfcModel::observe`]. Before anything is timed, both
//! paths are driven over the same input stream and every per-tick
//! prediction is compared with `f64::to_bits` — the benchmark refuses to
//! report a speedup for an engine that is not bit-identical.
//!
//! Results land in `BENCH_inference.json` at the workspace root (mirrored
//! into `target/experiments/`) with the schema
//! `{bench, config, ns_per_iter, ticks_per_sec, speedup_vs_baseline}`
//! plus the baseline latency and the measured allocation count.
//! `push_tick_ns` and `plain_tick_ns` split the streaming tick by kind:
//! the timed loop reads the clock after every tick and averages the
//! decimated push ticks (which step every partial window of the FFC's
//! prefix bank) apart from the plain ticks (one live-lane step). The
//! `pidpiper-bench-perf` binary runs this with a counting global
//! allocator and fails if the streaming loop allocates at all.
//!
//! The `batched` section measures the fleet's lane-row step: N sessions'
//! per-tick inference as the rows of one `m`-row LSTM step and dense
//! stack ([`BatchedStreamingRegressor`]), with each session's state
//! copied into its lane and back out as the shards do, timed as ns per
//! *vehicle*-tick at batch sizes 1/7/16/52/64/256 against the
//! per-session streaming loop over the same states and rows. Beside it,
//! each point times the fleet's live step as the shards run it: each
//! session's row copied into its lane, one frozen step from the
//! sessions' frozen prefixes, read in place
//! ([`BatchedStreamingRegressor::step_frozen_batch`]), and the dense
//! stack, each output copied out. Before each point is timed, both
//! steps run the same ticks as the per-session path (`step_normed` from
//! the same state, or from the unfrozen prefix) and every output **and**
//! every LSTM state is compared with `f64::to_bits` — a divergence
//! panics (nonzero exit from the binary), so a non-identical step can
//! never report a speedup.
//!
//! The `calibration` section measures threshold calibration's model
//! replay: one synthetic trace of [`CALIBRATION_TICKS`] ticks through
//! per-tick [`FfcModel::observe`] and through the offline batched
//! [`FfcModel::replay`], both including feature assembly, as ns per
//! tick. Every prediction of the two paths is compared with `to_bits`
//! before either is timed, and a mismatch panics.

use criterion::{black_box, Criterion};
use pidpiper_control::{ActuatorSignal, TargetState};
use pidpiper_core::features::{assemble, FeatureSet, SensorPrimitives};
use pidpiper_core::ffc::PipelineConfig;
use pidpiper_core::{FfcModel, ReplayRows};
use pidpiper_math::json::{self, Json};
use pidpiper_math::json_object;
use pidpiper_math::Vec3;
use pidpiper_missions::FlightPhase;
use pidpiper_ml::{
    BatchScratch, BatchedStreamingRegressor, FrozenPrefix, InferenceScratch, LstmRegressor,
    RegressorConfig, StreamState, StreamingRegressor,
};
use pidpiper_sensors::{EstimatedState, SensorReadings};
use std::collections::VecDeque;
use std::io;
use std::time::Instant;

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Timed `observe` ticks per path.
    pub ticks: usize,
    /// Untimed warm-up ticks (fills the window, faults in caches).
    pub warmup: usize,
    /// Regressor weight seed (latency does not depend on the values).
    pub seed: u64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            ticks: 20_000,
            warmup: 200,
            seed: 9,
        }
    }
}

impl PerfConfig {
    /// Reads `PIDPIPER_PERF_TICKS` (default 20 000; CI's perf-smoke job
    /// sets a reduced count).
    pub fn from_env() -> Self {
        let mut cfg = PerfConfig::default();
        if let Ok(v) = std::env::var("PIDPIPER_PERF_TICKS") {
            if let Ok(n) = v.parse::<usize>() {
                cfg.ticks = n.max(1);
            }
        }
        cfg
    }
}

/// Measured results for one benchmark run.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// The network/pipeline shape measured.
    pub config: RegressorConfig,
    /// Decimation factor of the measured pipeline.
    pub decimate: usize,
    /// Timed ticks per path.
    pub ticks: usize,
    /// Streaming-path latency, nanoseconds per `observe` tick.
    pub ns_per_iter: f64,
    /// Mean latency of the streaming path's decimated push ticks, ns.
    pub push_tick_ns: f64,
    /// Mean latency of the streaming path's other (plain) ticks, ns.
    pub plain_tick_ns: f64,
    /// Seed-path latency, nanoseconds per tick.
    pub baseline_ns_per_iter: f64,
    /// Streaming-path throughput, `observe` ticks per second.
    pub ticks_per_sec: f64,
    /// `baseline_ns_per_iter / ns_per_iter`.
    pub speedup_vs_baseline: f64,
    /// Heap allocations per streaming tick, when the caller supplied an
    /// allocation counter (the `pidpiper-bench-perf` binary does).
    pub allocations_per_tick: Option<f64>,
    /// The batched fleet-kernel measurements.
    pub batched: BatchedPerf,
    /// The calibration-replay measurements.
    pub calibration: CalibrationPerf,
}

/// The `calibration` section of [`PerfReport`]: one trace replayed
/// through per-tick `observe` and through the offline batched replay.
#[derive(Debug, Clone)]
pub struct CalibrationPerf {
    /// Ticks in the replayed trace.
    pub ticks: usize,
    /// Per-tick `observe` over the trace, ns per tick (fastest of
    /// [`CALIBRATION_REPS`]).
    pub observe_ns_per_tick: f64,
    /// `FfcModel::replay` over the same trace, ns per tick (fastest of
    /// [`CALIBRATION_REPS`]).
    pub replay_ns_per_tick: f64,
    /// `observe_ns_per_tick / replay_ns_per_tick`.
    pub speedup_vs_observe: f64,
}

/// One measured batched-inference point.
#[derive(Debug, Clone)]
pub struct BatchPoint {
    /// Active lanes in the batch.
    pub batch: usize,
    /// Nanoseconds per vehicle-tick (state and row copied in, lane-row
    /// step and finish, state and output copied out, divided by `batch`).
    pub ns_per_vehicle_tick: f64,
    /// Nanoseconds per vehicle-tick of the live step from frozen
    /// prefixes (row copied in, frozen step and finish, output copied
    /// out, divided by `batch`).
    pub frozen_ns_per_vehicle_tick: f64,
    /// Per-session streaming ns/vehicle-tick divided by this point's.
    pub speedup_vs_streaming: f64,
}

/// The `batched` section of [`PerfReport`]: the fleet's lane-row step vs
/// the per-session streaming loop.
#[derive(Debug, Clone)]
pub struct BatchedPerf {
    /// Per-session streaming loop cost, ns per vehicle-tick.
    pub scalar_ns_per_vehicle_tick: f64,
    /// Measured points at batch sizes 1 / 7 / 16 / 52 / 64 / 256, each gated on
    /// `to_bits` equality of outputs and states before timing.
    pub points: Vec<BatchPoint>,
}

/// Batch sizes the batched section measures. 7 and 52 are ragged widths
/// (a short training group, a staggered fleet's replay chunk); as lane
/// rows they are just fewer GEMM rows.
const BATCH_POINTS: [usize; 6] = [1, 7, 16, 52, 64, 256];
/// Lanes in the per-session scalar baseline loop.
const SCALAR_LANES: usize = 64;
/// Pre-normalized input rows cycled through the timed loops (prime, so
/// lanes decorrelate without allocating per tick).
const ROW_POOL: usize = 509;
/// Ticks of the per-point `to_bits` equality gate.
const GATE_TICKS: usize = 40;
/// Ticks of the calibration section's trace.
pub const CALIBRATION_TICKS: usize = 2_000;
/// Timed repetitions of each calibration path; the fastest is reported.
pub const CALIBRATION_REPS: usize = 5;

/// Deterministic pre-normalized row pool plus a warmed state per lane:
/// lane `i` is `window + i % 7` steps into its stream, so the gate and
/// the timed loops start from realistic, phase-skewed checkpoints.
fn batch_fixture(
    engine: &StreamingRegressor,
    lanes: usize,
) -> (Vec<Vec<f64>>, Vec<StreamState>) {
    let dim = engine.config().input_dim;
    let window = engine.config().window;
    let mut inf = engine.scratch();
    let pool: Vec<Vec<f64>> = (0..ROW_POOL)
        .map(|i| {
            let mut normed = vec![0.0; dim];
            let raw: Vec<f64> = (0..dim)
                .map(|j| (((i * 31 + j * 7) as f64) * 0.013).sin() * 2.0)
                .collect();
            engine.normalize_into(&raw, &mut normed).expect("dim matches");
            normed
        })
        .collect();
    let states: Vec<StreamState> = (0..lanes)
        .map(|i| {
            let mut s = engine.state();
            for t in 0..window + i % 7 {
                engine
                    .step_normed(&pool[(i + t) % ROW_POOL], &mut s, &mut inf)
                    .expect("dim matches");
            }
            s
        })
        .collect();
    (pool, states)
}

/// Runs `ticks` fleet-shaped batched iterations over `states`, mutating
/// them in place: each lane's state and row copied in, one lane-row step
/// and finish, each lane's state and output copied out.
fn batched_ticks(
    batched: &BatchedStreamingRegressor,
    scratch: &mut BatchScratch,
    pool: &[Vec<f64>],
    states: &mut [StreamState],
    out: &mut [f64],
    start: usize,
    ticks: usize,
) {
    let n = states.len();
    let odim = out.len() / n.max(1);
    for t in start..start + ticks {
        for (lane, s) in states.iter().enumerate() {
            scratch.load_state(lane, s);
            scratch.load_row(lane, &pool[(t + lane) % ROW_POOL]);
        }
        batched.step_batch(scratch, n);
        batched.finish_batch(scratch, n);
        for (lane, s) in states.iter_mut().enumerate() {
            scratch.store_state(lane, s);
            scratch.read_output(lane, &mut out[lane * odim..(lane + 1) * odim]);
        }
        black_box(&mut *out);
    }
}

/// Runs `ticks` fleet-shaped live ticks from the frozen `prefixes`: each
/// lane's row copied in, one frozen step and finish, each lane's output
/// copied out. The prefixes do not change, as between two ring pushes.
fn frozen_ticks(
    batched: &BatchedStreamingRegressor,
    scratch: &mut BatchScratch,
    pool: &[Vec<f64>],
    prefixes: &[&FrozenPrefix],
    out: &mut [f64],
    start: usize,
    ticks: usize,
) {
    let n = prefixes.len();
    let odim = out.len() / n.max(1);
    for t in start..start + ticks {
        for lane in 0..n {
            scratch.load_row(lane, &pool[(t + lane) % ROW_POOL]);
        }
        batched.step_frozen_batch(scratch, prefixes);
        batched.finish_batch(scratch, n);
        for lane in 0..n {
            scratch.read_output(lane, &mut out[lane * odim..(lane + 1) * odim]);
        }
        black_box(&mut *out);
    }
}

/// Each state frozen into its own [`FrozenPrefix`], as a session keeps
/// its prefix.
fn freeze_each(engine: &StreamingRegressor, states: &[StreamState]) -> Vec<FrozenPrefix> {
    let mut bank = engine.bank(1);
    states
        .iter()
        .map(|s| {
            let mut frozen = [engine.zero_prefix().clone()];
            bank.load_lane(0, s);
            engine.freeze_lanes(&mut bank, 0..1, &mut frozen).expect("one lane");
            let [frozen] = frozen;
            frozen
        })
        .collect()
}

/// Whether two states hold the same bits.
fn same_bits(a: &StreamState, b: &StreamState) -> bool {
    let bits = |s: &StreamState| s.parts().map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
    bits(a) == bits(b)
}

/// The per-session twin of [`batched_ticks`]: the same states and rows
/// through `step_normed` + `finish_into`, one session at a time.
fn scalar_ticks(
    engine: &StreamingRegressor,
    inf: &mut InferenceScratch,
    pool: &[Vec<f64>],
    states: &mut [StreamState],
    out: &mut [f64],
    start: usize,
    ticks: usize,
) {
    let n = states.len();
    let odim = out.len() / n.max(1);
    for t in start..start + ticks {
        for (lane, s) in states.iter_mut().enumerate() {
            engine
                .step_normed(&pool[(t + lane) % ROW_POOL], s, inf)
                .expect("dim matches");
            engine
                .finish_into(s, inf, &mut out[lane * odim..(lane + 1) * odim])
                .expect("dim matches");
        }
        black_box(&mut *out);
    }
}

/// The `to_bits` equality gate for one batch size: both paths run
/// [`GATE_TICKS`] ticks from identical warmed states; every output and
/// every post-tick LSTM state must match bit-for-bit or the bench panics
/// (nonzero exit from `pidpiper-bench-perf`).
fn assert_batched_agrees(
    engine: &StreamingRegressor,
    batched: &BatchedStreamingRegressor,
    pool: &[Vec<f64>],
    warmed: &[StreamState],
) {
    let n = warmed.len();
    let odim = engine.config().output_dim;
    let mut scratch = batched.scratch(n);
    let mut inf = engine.scratch();
    let mut batch_states = warmed.to_vec();
    let mut scalar_states = warmed.to_vec();
    let mut batch_out = vec![0.0; n * odim];
    let mut scalar_out = vec![0.0; n * odim];
    for t in 0..GATE_TICKS {
        batched_ticks(batched, &mut scratch, pool, &mut batch_states, &mut batch_out, t, 1);
        scalar_ticks(engine, &mut inf, pool, &mut scalar_states, &mut scalar_out, t, 1);
        for (a, b) in batch_out.iter().zip(&scalar_out) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "batched kernel diverged from streaming at batch {n}, tick {t}; \
                 refusing to benchmark"
            );
        }
        assert_eq!(
            batch_states, scalar_states,
            "batched LSTM state diverged from streaming at batch {n}, tick {t}; \
             refusing to benchmark"
        );
    }
}

/// The `to_bits` equality gate of the frozen live step for one batch
/// size: [`GATE_TICKS`] live ticks from the frozen `warmed` prefixes
/// against `step_normed` from a copy of each unfrozen prefix. Every
/// output and every live LSTM state must match bit for bit or the bench
/// panics.
fn assert_frozen_agrees(
    engine: &StreamingRegressor,
    batched: &BatchedStreamingRegressor,
    pool: &[Vec<f64>],
    warmed: &[StreamState],
) {
    let n = warmed.len();
    let odim = engine.config().output_dim;
    let frozen = freeze_each(engine, warmed);
    let prefixes: Vec<&FrozenPrefix> = frozen.iter().collect();
    let mut scratch = batched.scratch(n);
    let mut inf = engine.scratch();
    let (mut live, mut lane_state) = (engine.state(), engine.state());
    let mut out = vec![0.0; n * odim];
    let mut want = vec![0.0; odim];
    for t in 0..GATE_TICKS {
        frozen_ticks(batched, &mut scratch, pool, &prefixes, &mut out, t, 1);
        for (lane, prefix) in warmed.iter().enumerate() {
            live.copy_from(prefix);
            engine
                .step_normed(&pool[(t + lane) % ROW_POOL], &mut live, &mut inf)
                .expect("dim matches");
            engine.finish_into(&live, &mut inf, &mut want).expect("dim matches");
            scratch.store_state(lane, &mut lane_state);
            let got = &out[lane * odim..(lane + 1) * odim];
            assert!(
                got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits())
                    && same_bits(&lane_state, &live),
                "frozen live step diverged from streaming at batch {n}, tick {t}, lane {lane}; \
                 refusing to benchmark"
            );
        }
    }
}

/// Runs the batched section: equality gates, scalar baseline and every
/// batch point.
fn run_batched(cfg: &PerfConfig) -> BatchedPerf {
    let set = FeatureSet::FfcPruned;
    let config = RegressorConfig::standard(set.dim(), ActuatorSignal::DIM);
    let model = LstmRegressor::new(config, cfg.seed);
    let engine = model.compile();
    let batched = BatchedStreamingRegressor::compile(&engine);
    let odim = config.output_dim;
    let ticks = cfg.ticks.max(1);

    // Per-session streaming baseline over SCALAR_LANES sessions.
    let (pool, warmed) = batch_fixture(&engine, SCALAR_LANES);
    let mut inf = engine.scratch();
    let mut states = warmed.clone();
    let mut out = vec![0.0; SCALAR_LANES * odim];
    let warmup = cfg.warmup.max(1);
    scalar_ticks(&engine, &mut inf, &pool, &mut states, &mut out, 0, warmup);
    let t0 = Instant::now();
    scalar_ticks(&engine, &mut inf, &pool, &mut states, &mut out, warmup, ticks);
    let scalar_ns = t0.elapsed().as_nanos() as f64 / (ticks * SCALAR_LANES) as f64;

    let mut points = Vec::with_capacity(BATCH_POINTS.len());
    for batch in BATCH_POINTS {
        let (pool, warmed) = batch_fixture(&engine, batch);
        // Gate first: timing only runs for bit-identical kernels.
        assert_batched_agrees(&engine, &batched, &pool, &warmed);
        assert_frozen_agrees(&engine, &batched, &pool, &warmed);
        let mut scratch = batched.scratch(batch);
        let mut states = warmed.clone();
        let mut out = vec![0.0; batch * odim];
        batched_ticks(&batched, &mut scratch, &pool, &mut states, &mut out, 0, warmup);
        let t0 = Instant::now();
        batched_ticks(&batched, &mut scratch, &pool, &mut states, &mut out, warmup, ticks);
        let ns = t0.elapsed().as_nanos() as f64 / (ticks * batch) as f64;
        let frozen = freeze_each(&engine, &warmed);
        let prefixes: Vec<&FrozenPrefix> = frozen.iter().collect();
        frozen_ticks(&batched, &mut scratch, &pool, &prefixes, &mut out, 0, warmup);
        let t0 = Instant::now();
        frozen_ticks(&batched, &mut scratch, &pool, &prefixes, &mut out, warmup, ticks);
        let frozen_ns = t0.elapsed().as_nanos() as f64 / (ticks * batch) as f64;
        points.push(BatchPoint {
            batch,
            ns_per_vehicle_tick: ns,
            frozen_ns_per_vehicle_tick: frozen_ns,
            speedup_vs_streaming: scalar_ns / ns.max(f64::MIN_POSITIVE),
        });
    }

    BatchedPerf {
        scalar_ns_per_vehicle_tick: scalar_ns,
        points,
    }
}

/// Streaming-loop timings, split by tick kind.
struct TickTimes {
    /// Mean ns over every tick.
    all: f64,
    /// Mean ns of the decimated push ticks.
    push: f64,
    /// Mean ns of the other (plain) ticks.
    plain: f64,
}

/// Times each `observe` tick of `prims` on its own (one clock read per
/// tick). `first_tick` is the number of ticks `model` has observed since
/// its last reset, so tick `first_tick + i` pushes when it is a multiple
/// of `decimate`.
fn time_ticks(
    model: &mut FfcModel,
    prims: &[SensorPrimitives],
    target: &TargetState,
    phase: FlightPhase,
    first_tick: usize,
) -> TickTimes {
    let decimate = model.pipeline().decimate;
    // (total ns, ticks) of each kind.
    let (mut push, mut plain) = ((0u128, 0usize), (0u128, 0usize));
    let mut prev = Instant::now();
    for (i, p) in prims.iter().enumerate() {
        black_box(model.observe(p, target, phase));
        let now = Instant::now();
        let kind = if (first_tick + i).is_multiple_of(decimate) {
            &mut push
        } else {
            &mut plain
        };
        kind.0 += now.duration_since(prev).as_nanos();
        kind.1 += 1;
        prev = now;
    }
    let mean = |(ns, n): (u128, usize)| ns as f64 / n.max(1) as f64;
    TickTimes {
        all: mean((push.0 + plain.0, push.1 + plain.1)),
        push: mean(push),
        plain: mean(plain),
    }
}

/// Per-tick `observe` over a whole trace from a reset model: the
/// calibration replay's reference path.
fn observe_trace(
    model: &FfcModel,
    prims: &[SensorPrimitives],
    target: &TargetState,
    phase: FlightPhase,
) -> Vec<ActuatorSignal> {
    let mut online = model.clone();
    online.reset();
    prims
        .iter()
        .filter_map(|p| online.observe(p, target, phase))
        .collect()
}

/// The same trace through the offline batched replay, feature assembly
/// included.
fn replay_trace(
    model: &FfcModel,
    prims: &[SensorPrimitives],
    target: &TargetState,
    phase: FlightPhase,
) -> Vec<ActuatorSignal> {
    let mut rows = ReplayRows::new(model.feature_set());
    rows.begin_trace();
    for p in prims {
        rows.push(p, target, phase);
    }
    model.replay(rows).pop().unwrap_or_default()
}

/// Runs the calibration section: the `to_bits` gate over every
/// prediction, then the fastest of [`CALIBRATION_REPS`] timed runs of
/// each path.
fn run_calibration(cfg: &PerfConfig) -> CalibrationPerf {
    let (model, _) = deployed_model(cfg.seed);
    let (prims, target) = synthetic_inputs(CALIBRATION_TICKS);
    let phase = FlightPhase::Cruise { wp_index: 0 };
    let online = observe_trace(&model, &prims, &target, phase);
    let offline = replay_trace(&model, &prims, &target, phase);
    let bits = |y: &ActuatorSignal| y.to_array().map(f64::to_bits);
    assert_eq!(
        online.len(),
        offline.len(),
        "calibration replay predicted a different tick count than observe; \
         refusing to benchmark"
    );
    for (t, (a, b)) in online.iter().zip(&offline).enumerate() {
        assert_eq!(
            bits(a),
            bits(b),
            "calibration replay diverged from observe at prediction {t}; refusing to benchmark"
        );
    }
    type TracePath =
        fn(&FfcModel, &[SensorPrimitives], &TargetState, FlightPhase) -> Vec<ActuatorSignal>;
    let fastest = |path: TracePath| {
        (0..CALIBRATION_REPS)
            .map(|_| {
                let t0 = Instant::now();
                black_box(path(&model, &prims, &target, phase));
                t0.elapsed().as_nanos() as f64 / CALIBRATION_TICKS as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let observe_ns = fastest(observe_trace);
    let replay_ns = fastest(replay_trace);
    CalibrationPerf {
        ticks: CALIBRATION_TICKS,
        observe_ns_per_tick: observe_ns,
        replay_ns_per_tick: replay_ns,
        speedup_vs_observe: observe_ns / replay_ns.max(f64::MIN_POSITIVE),
    }
}

/// The pre-streaming FFC observe loop, reproduced as the latency baseline:
/// raw rows in a `VecDeque`, cloned and re-normalized wholesale on every
/// tick's `predict`.
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
        target: &TargetState,
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
}

/// A deterministic synthetic flight: smoothly varying pose/velocity (no
/// RNG, no simulator in the loop), pre-collected so the timed loops touch
/// only `observe`.
fn synthetic_inputs(n: usize) -> (Vec<SensorPrimitives>, TargetState) {
    let target = TargetState::hover_at(Vec3::new(30.0, 0.0, 5.0), 0.0);
    let prims = (0..n)
        .map(|i| {
            let t = i as f64 * 0.01;
            let est = EstimatedState {
                position: Vec3::new(2.0 * t, (0.7 * t).sin(), 5.0 + 0.3 * (0.4 * t).cos()),
                velocity: Vec3::new(2.0, 0.7 * (0.7 * t).cos(), -0.12 * (0.4 * t).sin()),
                attitude: Vec3::new(0.02 * (1.1 * t).sin(), 0.03 * (0.9 * t).cos(), 0.1 * t),
                body_rates: Vec3::new(
                    0.022 * (1.1 * t).cos(),
                    -0.027 * (0.9 * t).sin(),
                    0.1,
                ),
                ..Default::default()
            };
            SensorPrimitives::collect(&est, &SensorReadings::default())
        })
        .collect();
    (prims, target)
}

fn deployed_model(seed: u64) -> (FfcModel, SeedFfc) {
    let set = FeatureSet::FfcPruned;
    let config = RegressorConfig::standard(set.dim(), ActuatorSignal::DIM);
    let pipeline = PipelineConfig::default();
    let regressor = LstmRegressor::new(config, seed);
    (
        FfcModel::new(regressor.clone(), set, pipeline),
        SeedFfc::new(regressor, set, pipeline.decimate),
    )
}

fn assert_paths_agree(
    streaming: &mut FfcModel,
    seed: &mut SeedFfc,
    prims: &[SensorPrimitives],
    target: &TargetState,
) {
    for (i, p) in prims.iter().enumerate() {
        let a = streaming.observe(p, target, FlightPhase::Cruise { wp_index: 0 });
        let b = seed.observe(p, target, FlightPhase::Cruise { wp_index: 0 });
        let bits = |s: Option<ActuatorSignal>| s.map(|y| y.to_array().map(f64::to_bits));
        assert_eq!(
            bits(a),
            bits(b),
            "streaming engine diverged from the seed path at tick {i}; refusing to benchmark"
        );
    }
}

/// Runs the benchmark: equivalence gate, then timed seed and streaming
/// loops over the same synthetic flight.
///
/// `alloc_count`, when given, is read before and after the timed
/// streaming loop (the `pidpiper-bench-perf` binary passes its counting
/// global allocator); the per-tick allocation rate lands in the report.
pub fn run_perf(cfg: &PerfConfig, alloc_count: Option<&dyn Fn() -> u64>) -> PerfReport {
    let (mut streaming, mut seed) = deployed_model(cfg.seed);
    let window = streaming.network_config().window;
    let decimate = streaming.pipeline().decimate;
    // Enough ticks to fill the window several times over.
    let (gate_prims, target) = synthetic_inputs((window * decimate * 3).max(300));
    assert_paths_agree(&mut streaming, &mut seed, &gate_prims, &target);

    // At least one decimation period, so both tick kinds are timed.
    let ticks = cfg.ticks.max(decimate);
    let (prims, target) = synthetic_inputs(cfg.warmup + ticks);
    let phase = FlightPhase::Cruise { wp_index: 0 };

    // Seed path: warm-up, then timed.
    let (mut streaming, mut seed) = deployed_model(cfg.seed);
    for p in &prims[..cfg.warmup] {
        black_box(seed.observe(p, &target, phase));
    }
    let t_seed = Instant::now();
    for p in &prims[cfg.warmup..] {
        black_box(seed.observe(p, &target, phase));
    }
    let baseline_ns = t_seed.elapsed().as_nanos() as f64 / ticks as f64;

    // Streaming path: warm-up (fills the prefix bank and faults in every
    // preallocated buffer), then timed with the allocation counter
    // bracketing exactly the timed loop.
    for p in &prims[..cfg.warmup] {
        black_box(streaming.observe(p, &target, phase));
    }
    let allocs_before = alloc_count.map(|f| f());
    let times = time_ticks(
        &mut streaming,
        &prims[cfg.warmup..],
        &target,
        phase,
        cfg.warmup,
    );
    let allocations_per_tick = alloc_count
        .zip(allocs_before)
        .map(|(f, before)| (f() - before) as f64 / ticks as f64);
    let ns = times.all;

    PerfReport {
        config: *streaming.network_config(),
        decimate,
        ticks,
        ns_per_iter: ns,
        push_tick_ns: times.push,
        plain_tick_ns: times.plain,
        baseline_ns_per_iter: baseline_ns,
        ticks_per_sec: 1e9 / ns.max(f64::MIN_POSITIVE),
        speedup_vs_baseline: baseline_ns / ns.max(f64::MIN_POSITIVE),
        allocations_per_tick,
        batched: run_batched(cfg),
        calibration: run_calibration(cfg),
    }
}

impl PerfReport {
    /// Checks every value the report promises: positive shape and tick
    /// counts, positive finite latencies and ratios, no measured
    /// allocation in the streaming loop, the six batch points in order,
    /// and a calibration section over a non-empty trace.
    ///
    /// # Errors
    ///
    /// Describes the first violated property.
    pub fn check(&self) -> Result<(), String> {
        let c = &self.config;
        json::require_nonzero(&[
            ("input_dim", c.input_dim),
            ("output_dim", c.output_dim),
            ("hidden", c.hidden),
            ("fc_width", c.fc_width),
            ("window", c.window),
            ("decimate", self.decimate),
            ("ticks", self.ticks),
            ("calibration ticks", self.calibration.ticks),
        ])?;
        json::require_positive(&[
            ("ns_per_iter", self.ns_per_iter),
            ("push_tick_ns", self.push_tick_ns),
            ("plain_tick_ns", self.plain_tick_ns),
            ("baseline_ns_per_iter", self.baseline_ns_per_iter),
            ("ticks_per_sec", self.ticks_per_sec),
            ("speedup_vs_baseline", self.speedup_vs_baseline),
            (
                "scalar_ns_per_vehicle_tick",
                self.batched.scalar_ns_per_vehicle_tick,
            ),
            ("observe_ns_per_tick", self.calibration.observe_ns_per_tick),
            ("replay_ns_per_tick", self.calibration.replay_ns_per_tick),
            ("speedup_vs_observe", self.calibration.speedup_vs_observe),
        ])?;
        for p in &self.batched.points {
            json::require_positive(&[
                ("point ns_per_vehicle_tick", p.ns_per_vehicle_tick),
                ("point frozen_ns_per_vehicle_tick", p.frozen_ns_per_vehicle_tick),
                ("point speedup_vs_streaming", p.speedup_vs_streaming),
            ])?;
        }
        if let Some(a) = self.allocations_per_tick.filter(|&a| a > 0.0) {
            return Err(format!("allocations_per_tick is {a}, expected 0"));
        }
        let batches: Vec<usize> = self.batched.points.iter().map(|p| p.batch).collect();
        if batches != BATCH_POINTS {
            return Err(format!(
                "batch points {batches:?}, expected {BATCH_POINTS:?}"
            ));
        }
        Ok(())
    }
}

/// Renders the report as the `BENCH_inference.json` document.
pub fn to_json(r: &PerfReport) -> String {
    let c = &r.config;
    let points = r.batched.points.iter().map(|p| {
        json_object! {
            "batch" => p.batch,
            "ns_per_vehicle_tick" => Json::fixed(p.ns_per_vehicle_tick, 1),
            "frozen_ns_per_vehicle_tick" => Json::fixed(p.frozen_ns_per_vehicle_tick, 1),
            "speedup_vs_streaming" => Json::fixed(p.speedup_vs_streaming, 2),
        }
    });
    let doc = json_object! {
        "bench" => "inference_hot_path",
        "config" => json_object! {
            "input_dim" => c.input_dim,
            "output_dim" => c.output_dim,
            "hidden" => c.hidden,
            "fc_width" => c.fc_width,
            "window" => c.window,
            "decimate" => r.decimate,
            "ticks" => r.ticks,
        },
        "ns_per_iter" => Json::fixed(r.ns_per_iter, 1),
        "push_tick_ns" => Json::fixed(r.push_tick_ns, 1),
        "plain_tick_ns" => Json::fixed(r.plain_tick_ns, 1),
        "baseline_ns_per_iter" => Json::fixed(r.baseline_ns_per_iter, 1),
        "ticks_per_sec" => Json::fixed(r.ticks_per_sec, 1),
        "speedup_vs_baseline" => Json::fixed(r.speedup_vs_baseline, 2),
        "allocations_per_tick" => r.allocations_per_tick.map(|a| Json::fixed(a, 3)),
        "batched" => json_object! {
            "scalar_ns_per_vehicle_tick" => Json::fixed(r.batched.scalar_ns_per_vehicle_tick, 1),
            "points" => Json::array(points),
        },
        "calibration" => json_object! {
            "ticks" => r.calibration.ticks,
            "observe_ns_per_tick" => Json::fixed(r.calibration.observe_ns_per_tick, 1),
            "replay_ns_per_tick" => Json::fixed(r.calibration.replay_ns_per_tick, 1),
            "speedup_vs_observe" => Json::fixed(r.calibration.speedup_vs_observe, 2),
        },
    };
    doc.render()
}

/// Writes `BENCH_inference.json` to the workspace root, mirrors it into
/// `target/experiments/`, and prints a summary.
///
/// # Errors
///
/// Returns the I/O error of a failed write.
pub fn write_report(r: &PerfReport) -> io::Result<()> {
    json::write_bench_report("BENCH_inference.json", &to_json(r))?;
    println!(
        "exp_perf: streaming {:.0} ns/tick ({:.0} ticks/s; push ticks {:.0} ns, plain ticks \
         {:.0} ns), seed {:.0} ns/tick — {:.2}x; allocations/tick: {}",
        r.ns_per_iter,
        r.ticks_per_sec,
        r.push_tick_ns,
        r.plain_tick_ns,
        r.baseline_ns_per_iter,
        r.speedup_vs_baseline,
        r.allocations_per_tick
            .map(|a| format!("{a:.3}"))
            .unwrap_or_else(|| "not measured".to_string()),
    );
    for p in &r.batched.points {
        println!(
            "exp_perf[batch {}]: {:.0} ns/vehicle-tick — {:.2}x vs streaming \
             ({:.0} ns/vehicle-tick); frozen live step {:.0} ns/vehicle-tick",
            p.batch,
            p.ns_per_vehicle_tick,
            p.speedup_vs_streaming,
            r.batched.scalar_ns_per_vehicle_tick,
            p.frozen_ns_per_vehicle_tick,
        );
    }
    let c = &r.calibration;
    println!(
        "exp_perf[calibration]: replay {:.0} ns/tick, observe {:.0} ns/tick — {:.2}x \
         ({} ticks)",
        c.replay_ns_per_tick, c.observe_ns_per_tick, c.speedup_vs_observe, c.ticks,
    );
    Ok(())
}

/// Checks `report` and writes it, exiting the process nonzero if the
/// check fails or the report cannot be written.
pub fn check_and_write(report: &PerfReport) {
    if let Err(e) = report.check() {
        eprintln!("FAIL: BENCH_inference.json report check: {e}");
        std::process::exit(1);
    }
    if let Err(e) = write_report(report) {
        eprintln!("FAIL: writing BENCH_inference.json: {e}");
        std::process::exit(1);
    }
}

/// Criterion-shim entry: per-tick latency of both paths as named benches,
/// then the JSON report from the calibrated loops above.
pub fn bench(c: &mut Criterion) {
    let cfg = PerfConfig::from_env();
    let (mut streaming, mut seed) = deployed_model(cfg.seed);
    let (prims, target) = synthetic_inputs(4096);
    let phase = FlightPhase::Cruise { wp_index: 0 };
    let mut i = 0usize;
    c.bench_function("ffc_observe_seed", |b| {
        b.iter(|| {
            i = (i + 1) % prims.len();
            black_box(seed.observe(&prims[i], &target, phase))
        })
    });
    let mut j = 0usize;
    c.bench_function("ffc_observe_streaming", |b| {
        b.iter(|| {
            j = (j + 1) % prims.len();
            black_box(streaming.observe(&prims[j], &target, phase))
        })
    });
    check_and_write(&run_perf(&cfg, None));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalence_gate_and_report_shape() {
        let cfg = PerfConfig {
            ticks: 50,
            warmup: 30,
            seed: 3,
        };
        let r = run_perf(&cfg, None);
        assert!(r.allocations_per_tick.is_none());
        assert_eq!(r.check(), Ok(()));
    }

    /// A fixed report whose rendering was captured from the hand-written
    /// template this writer replaced.
    fn fixed_report() -> PerfReport {
        let point = |batch, ns_per_vehicle_tick, frozen_ns_per_vehicle_tick, speedup_vs_streaming| {
            BatchPoint {
                batch,
                ns_per_vehicle_tick,
                frozen_ns_per_vehicle_tick,
                speedup_vs_streaming,
            }
        };
        PerfReport {
            config: RegressorConfig {
                input_dim: 13,
                output_dim: 4,
                hidden: 24,
                fc_width: 32,
                window: 20,
            },
            decimate: 5,
            ticks: 2000,
            ns_per_iter: 512.345,
            push_tick_ns: 1800.24,
            plain_tick_ns: 190.04,
            baseline_ns_per_iter: 10250.96,
            ticks_per_sec: 1951814.25,
            speedup_vs_baseline: 20.0078,
            allocations_per_tick: Some(0.0),
            batched: BatchedPerf {
                scalar_ns_per_vehicle_tick: 3100.44,
                points: vec![
                    point(1, 3400.06, 2480.04, 0.912),
                    point(7, 1500.04, 1100.02, 2.0669),
                    point(16, 1200.5, 880.46, 2.5837),
                    point(52, 980.54, 720.54, 3.1620),
                    point(64, 950.25, 700.26, 3.2627),
                    point(256, 1010.0, 760.0, 3.0697),
                ],
            },
            calibration: CalibrationPerf {
                ticks: 2000,
                observe_ns_per_tick: 12500.04,
                replay_ns_per_tick: 6250.46,
                speedup_vs_observe: 1.99988,
            },
        }
    }

    #[test]
    fn json_matches_the_golden_rendering() {
        // Captured with the `f32` block, which was then cut from the file
        // by hand; the `calibration` block and each point's
        // `frozen_ns_per_vehicle_tick` line were written in by hand from
        // `fixed_report`'s values. Every other byte is as captured.
        let golden = json::minify(include_str!("../tests/golden/BENCH_inference.json"));
        let mut r = fixed_report();
        assert_eq!(json::minify(&to_json(&r)), golden);
        r.allocations_per_tick = None;
        let unmeasured = golden.replace(
            r#""allocations_per_tick":0.000"#,
            r#""allocations_per_tick":null"#,
        );
        assert_eq!(json::minify(&to_json(&r)), unmeasured);
    }

    #[test]
    fn check_rejects_each_violated_property() {
        assert_eq!(fixed_report().check(), Ok(()));
        type Breaker = fn(&mut PerfReport);
        let cases: [(&str, Breaker); 16] = [
            ("hidden is 0", |r| r.config.hidden = 0),
            ("ticks is 0", |r| r.ticks = 0),
            ("ns_per_iter", |r| r.ns_per_iter = 0.0),
            ("push_tick_ns", |r| r.push_tick_ns = f64::NAN),
            ("plain_tick_ns", |r| r.plain_tick_ns = -1.0),
            ("speedup_vs_baseline", |r| r.speedup_vs_baseline = f64::NAN),
            ("scalar_ns_per_vehicle_tick", |r| {
                r.batched.scalar_ns_per_vehicle_tick = -1.0
            }),
            ("point ns_per_vehicle_tick", |r| {
                r.batched.points[2].ns_per_vehicle_tick = 0.0
            }),
            ("point frozen_ns_per_vehicle_tick", |r| {
                r.batched.points[4].frozen_ns_per_vehicle_tick = f64::NAN
            }),
            ("point speedup_vs_streaming", |r| {
                r.batched.points[0].speedup_vs_streaming = f64::INFINITY
            }),
            ("allocations_per_tick", |r| {
                r.allocations_per_tick = Some(0.001)
            }),
            ("batch points", |r| r.batched.points[3].batch = 48),
            ("batch points", |r| r.batched.points.truncate(5)),
            ("calibration ticks", |r| r.calibration.ticks = 0),
            ("replay_ns_per_tick", |r| r.calibration.replay_ns_per_tick = 0.0),
            ("speedup_vs_observe", |r| {
                r.calibration.speedup_vs_observe = f64::NAN
            }),
        ];
        for (want, breaker) in cases {
            let mut r = fixed_report();
            breaker(&mut r);
            assert!(
                r.check().is_err_and(|e| e.contains(want)),
                "{want}: {:?}",
                r.check()
            );
        }
    }

    #[test]
    fn alloc_counter_is_plumbed_through() {
        let cfg = PerfConfig {
            ticks: 20,
            warmup: 25,
            seed: 3,
        };
        // A fake counter: pretends 40 allocations happened overall.
        let calls = std::cell::Cell::new(0u64);
        let counter = move || {
            let c = calls.get();
            calls.set(c + 40);
            c
        };
        let r = run_perf(&cfg, Some(&counter));
        assert_eq!(r.allocations_per_tick, Some(2.0));
        assert!(to_json(&r).contains("\"allocations_per_tick\": 2.000"));
    }
}

//! The feed-forward controller (FFC): an LSTM model that predicts the
//! actuator signal `y'(t)` from the sanitized current state `x(t)` and
//! the target state `u(t)`.
//!
//! The noise model (variance gate + shadow estimator) runs upstream in
//! [`crate::sanitizer::SensorSanitizer`]; this module owns the windowed
//! LSTM inference pipeline: the online path ([`FfcModel::observe`], one
//! control step at a time, over a bank of partial windows) and its
//! offline twin for threshold calibration ([`FfcModel::replay`], whole
//! traces through the batched engine). Both follow the window and
//! decimation rules written down here.

use crate::features::{assemble_into, FeatureSet, SensorPrimitives};
use crate::gate::GateConfig;
use pidpiper_control::{ActuatorSignal, TargetState};
use pidpiper_missions::FlightPhase;
use pidpiper_ml::{
    BatchScratch, BatchedStreamingRegressor, FrozenPrefix, InferenceScratch, LstmRegressor,
    RegressorConfig, StateBank, StreamingRegressor,
};

/// Lanes per batched replay chunk, prefixes and ticks alike: the fleet's
/// chunk width. One scratch holds both kinds, prefix lanes
/// `0..REPLAY_LANES` and tick lanes after them, so a chunk's rows stay
/// cache-resident.
const REPLAY_LANES: usize = 64;

/// Runtime pipeline configuration shared by FFC and FBC models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Decimation: the model samples features every `decimate`-th control
    /// step (training and inference must match).
    pub decimate: usize,
    /// Gate configuration for the upstream sensor sanitizer.
    pub gate: GateConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            decimate: 5,
            gate: GateConfig::default(),
        }
    }
}

/// A deployed FFC: a bank of partial windows + streaming LSTM engine.
///
/// Call [`FfcModel::observe`] every control step with *sanitized*
/// primitives; the model decimates internally, refreshes its prediction
/// when a new window sample lands, and holds the latest prediction between
/// refreshes. `None` is returned until the window has filled (mission
/// start warm-up).
///
/// Inference runs on the compiled [`StreamingRegressor`], which is
/// bit-identical to the allocating [`LstmRegressor::predict`] reference
/// path. The hot-path layout (see ARCHITECTURE.md, "Inference hot
/// path"):
///
/// - the window's history is never stored as rows. With
///   `cap = window - 1`, `bank` holds `cap` *partial windows*: after a
///   push, the lane restarted `j` pushes ago holds the LSTM state after
///   the last `j` sampled rows, stepped from zero. Each sampled row is
///   normalized once and stepped into every lane at once, as one
///   `m`-row LSTM step;
/// - the lane holding all `cap` rows is the *prefix*: the state after the
///   whole history, oldest row first. The next push restarts it from
///   zero, so every lane reaches `cap` rows once per `cap` pushes;
/// - the push that completes a prefix also *freezes* it (a
///   [`FrozenPrefix`]: its cells and both layers' `Σ u·h`), since the
///   prefix does not change until the next push;
/// - the bank's last lane is the *live* lane: each tick steps this
///   tick's row into it from the prefix, then runs the dense stack. A
///   plain tick steps from the frozen prefix, two GEMMs instead of four.
///   On a push tick the live lane starts from a copy of the prefix lane
///   and is one more row of the push's step, since both read the same
///   row;
/// - all buffers are preallocated in [`FfcModel::new`]: after the first
///   `observe` call, the per-tick path performs zero heap allocation
///   (asserted by the `observe_allocations` test and the `exp_perf`
///   bench harness).
#[derive(Debug, Clone)]
pub struct FfcModel {
    regressor: LstmRegressor,
    engine: StreamingRegressor,
    feature_set: FeatureSet,
    pipeline: PipelineConfig,
    /// `window - 1` partial-window lanes, then the live lane.
    bank: StateBank,
    /// The lane the next push restarts: the prefix once the history is
    /// full.
    head: usize,
    /// Pushes so far, saturating at `window - 1` (the history is full).
    pushes: usize,
    /// The current prefix, frozen at the push that completed it (the
    /// zero state while `window == 1`).
    frozen: FrozenPrefix,
    scratch: InferenceScratch,
    feat_buf: Vec<f64>,
    normed_buf: Vec<f64>,
    out_buf: Vec<f64>,
    step_counter: usize,
    last_prediction: Option<ActuatorSignal>,
}

impl FfcModel {
    /// Wraps a trained regressor for deployment.
    ///
    /// # Panics
    ///
    /// Panics if the regressor's dimensions do not match the feature set
    /// and the 4-channel actuator signal, or the decimation is zero.
    pub fn new(
        regressor: LstmRegressor,
        feature_set: FeatureSet,
        pipeline: PipelineConfig,
    ) -> Self {
        assert!(feature_set.is_ffc(), "FfcModel requires an FFC feature set");
        assert!(pipeline.decimate > 0, "decimate must be at least 1");
        assert_eq!(
            regressor.config().input_dim,
            feature_set.dim(),
            "regressor input dim must match the feature set"
        );
        assert_eq!(
            regressor.config().output_dim,
            ActuatorSignal::DIM,
            "FFC predicts the 4-channel actuator signal"
        );
        let engine = regressor.compile();
        let dim = feature_set.dim();
        FfcModel {
            bank: engine.bank(regressor.config().window),
            head: 0,
            pushes: 0,
            frozen: engine.zero_prefix().clone(),
            scratch: engine.scratch(),
            feat_buf: Vec::with_capacity(dim),
            normed_buf: vec![0.0; dim],
            out_buf: vec![0.0; ActuatorSignal::DIM],
            engine,
            regressor,
            feature_set,
            pipeline,
            step_counter: 0,
            last_prediction: None,
        }
    }

    /// The network configuration.
    pub fn network_config(&self) -> &RegressorConfig {
        self.regressor.config()
    }

    /// The pipeline configuration.
    pub fn pipeline(&self) -> &PipelineConfig {
        &self.pipeline
    }

    /// The feature set in use.
    pub fn feature_set(&self) -> FeatureSet {
        self.feature_set
    }

    /// Serializes the underlying regressor.
    pub fn to_text(&self) -> String {
        self.regressor.to_text()
    }

    /// Restores a model from [`FfcModel::to_text`] output.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error on malformed input, a dimension
    /// mismatch with the requested feature set, or a zero decimation.
    pub fn from_text(
        text: &str,
        feature_set: FeatureSet,
        pipeline: PipelineConfig,
    ) -> Result<Self, String> {
        if pipeline.decimate == 0 {
            return Err("decimate must be at least 1".into());
        }
        let regressor = LstmRegressor::from_text(text)?;
        if regressor.config().input_dim != feature_set.dim() {
            return Err(format!(
                "model input dim {} does not match feature set {:?} ({})",
                regressor.config().input_dim,
                feature_set,
                feature_set.dim()
            ));
        }
        Ok(FfcModel::new(regressor, feature_set, pipeline))
    }

    /// Feeds one control step of sanitized primitives; returns the current
    /// `y'(t)` prediction once the window has filled.
    ///
    /// The window's historical slots advance at the decimated training
    /// rate, but the final slot is always *this step's* features and the
    /// prediction is refreshed every control step — minimizing the lag
    /// between the model and the PID it emulates.
    pub fn observe(
        &mut self,
        prims: &SensorPrimitives,
        target: &TargetState,
        phase: FlightPhase,
    ) -> Option<ActuatorSignal> {
        assemble_into(
            self.feature_set,
            prims,
            target,
            phase,
            &ActuatorSignal::default(),
            &mut self.feat_buf,
        );
        // A dimension error cannot occur here (shapes are pinned at
        // construction); if it somehow did, the model holds its previous
        // prediction — deterministic degradation, no panic in the control
        // loop.
        if let Ok(Some(y)) = self.step_bank() {
            self.last_prediction = Some(y);
        }
        self.step_counter += 1;
        self.last_prediction
    }

    /// Normalizes this tick's features once and steps them through the
    /// bank: the live lane when the history is full, from the frozen
    /// prefix on a plain tick, and on a decimated push every started
    /// partial window and the live lane as one lane range, freezing the
    /// prefix the push completes. Returns the live lane's prediction, if
    /// the history was full. Allocation-free.
    fn step_bank(&mut self) -> Result<Option<ActuatorSignal>, pidpiper_ml::PredictError> {
        let cap = self.engine.config().window - 1;
        let live = cap;
        let ready = self.pushes == cap;
        // With no history (`window == 1`) nothing pushes and the prefix
        // is the frozen zero state.
        let push = cap > 0 && self.step_counter.is_multiple_of(self.pipeline.decimate);
        self.engine.normalize_into(&self.feat_buf, &mut self.normed_buf)?;
        if push {
            if ready {
                self.bank.copy_lane(self.head, live);
            }
            self.bank.zero_lane(self.head);
            // Lanes `0..=head` are the started partial windows until the
            // history is full, then all `cap`; the live lane follows them.
            let lanes = if ready { 0..cap + 1 } else { 0..self.pushes + 1 };
            self.engine.step_lanes(&self.normed_buf, &mut self.bank, lanes)?;
            self.head = (self.head + 1) % cap;
            self.pushes = (self.pushes + 1).min(cap);
            if self.pushes == cap {
                let prefix = self.head..self.head + 1;
                let frozen = std::slice::from_mut(&mut self.frozen);
                self.engine.freeze_lanes(&mut self.bank, prefix, frozen)?;
            }
        } else if ready {
            let live = live..live + 1;
            self.engine
                .step_frozen(&self.normed_buf, &[&self.frozen], &mut self.bank, live)?;
        }
        if !ready {
            return Ok(None);
        }
        self.engine
            .finish_lane_into(&self.bank, live, &mut self.scratch, &mut self.out_buf)?;
        let y = &self.out_buf;
        Ok(Some(ActuatorSignal::from_array([y[0], y[1], y[2], y[3]])))
    }

    /// Resets all runtime state (between missions).
    pub fn reset(&mut self) {
        self.bank.reset();
        self.head = 0;
        self.pushes = 0;
        self.step_counter = 0;
        self.last_prediction = None;
    }

    /// Offline twin of [`FfcModel::observe`]: replays whole traces, each
    /// from a reset model, and returns per trace the prediction `observe`
    /// would return at every warmed-up tick, bit for bit. A trace's
    /// series covers its last `len` ticks; the ticks before them are the
    /// warm-up, where `observe` returns `None`. This model's runtime state
    /// is neither read nor changed.
    ///
    /// Every window is a lane of a [`BatchedStreamingRegressor`] step, a
    /// row of its GEMMs. With `cap = window - 1`, the history after
    /// `p >= cap` pushes is the sampled rows of ticks
    /// `(p - cap) * decimate ..= (p - 1) * decimate`, and tick `t` reads
    /// the history after `ceil(t / decimate)` pushes (the push of a
    /// sampled tick lands after its own refresh).
    /// The prefixes are taken in chunks of up to 64, across traces:
    ///
    /// - *prefix phase*: each prefix is a lane; all lanes step their `cap`
    ///   rows together from the zero state;
    /// - *live phase*: each tick that reads one of those prefixes is a
    ///   lane of the same scratch, past the prefix lanes; it starts from
    ///   a copy of its prefix's lane, steps its own row and runs the
    ///   dense stack, up to 64 ticks per step.
    ///
    /// A chunk finishes its live ticks before the next chunk starts, so
    /// the lane state stays bounded on a trace of any length. Each tick's
    /// row is normalized once, with the expression `observe` uses, so
    /// the same bits.
    ///
    /// # Panics
    ///
    /// Panics if `rows` was built for another feature set.
    pub fn replay(&self, rows: ReplayRows) -> Vec<Vec<ActuatorSignal>> {
        assert_eq!(
            rows.feature_set, self.feature_set,
            "replay rows were built for another feature set"
        );
        let ReplayRows {
            rows: mut normed,
            ticks,
            mut row,
            ..
        } = rows;
        let dim = self.feature_set.dim();
        let normalizer = self.regressor.normalizer();
        for r in normed.chunks_exact_mut(dim) {
            row.clear();
            row.extend_from_slice(r);
            normalizer.transform_into(&row, r);
        }
        let cap = self.engine.config().window - 1;
        let decimate = self.pipeline.decimate;
        let warmup = if cap == 0 { 0 } else { (cap - 1) * decimate + 1 };
        let batched = BatchedStreamingRegressor::compile(&self.engine);
        let mut starts = Vec::with_capacity(ticks.len());
        let mut start = 0;
        for &n in &ticks {
            starts.push(start);
            start += n;
        }
        let mut replay = Replay {
            scratch: batched.scratch(2 * REPLAY_LANES),
            batched,
            rows: &normed,
            dim,
            cap,
            decimate,
            starts,
            live_trace: Vec::with_capacity(REPLAY_LANES),
            series: ticks
                .iter()
                .map(|&n| Vec::with_capacity(n.saturating_sub(warmup)))
                .collect(),
        };
        let mut chunk = Vec::with_capacity(REPLAY_LANES);
        for (trace, &n) in ticks.iter().enumerate() {
            if n <= warmup {
                continue;
            }
            // The warm-up ends at the first tick reading `cap` pushes.
            for pushes in cap..=(n - 1).div_ceil(decimate) {
                chunk.push(PrefixLane { trace, pushes, last_tick: n - 1 });
                if chunk.len() == REPLAY_LANES {
                    replay.run_chunk(&chunk);
                    chunk.clear();
                }
            }
        }
        replay.run_chunk(&chunk);
        replay.series
    }
}

/// Per-tick raw feature rows of whole traces: the input of
/// [`FfcModel::replay`]. Each row is the one [`FfcModel::observe`]
/// assembles from the same step's primitives, target and phase.
#[derive(Debug, Clone)]
pub struct ReplayRows {
    feature_set: FeatureSet,
    /// Flat `[ticks * dim]` rows of every trace, back to back.
    rows: Vec<f64>,
    /// Tick count of each trace, in order.
    ticks: Vec<usize>,
    /// Assembly buffer for one row.
    row: Vec<f64>,
}

impl ReplayRows {
    /// No traces yet, for models on `feature_set`.
    pub fn new(feature_set: FeatureSet) -> Self {
        ReplayRows {
            feature_set,
            rows: Vec::new(),
            ticks: Vec::new(),
            row: Vec::with_capacity(feature_set.dim()),
        }
    }

    /// Starts a new trace; later [`ReplayRows::push`] calls append to it.
    pub fn begin_trace(&mut self) {
        self.ticks.push(0);
    }

    /// Appends one control step of sanitized primitives to the current
    /// trace (starting the first trace if none has begun).
    pub fn push(&mut self, prims: &SensorPrimitives, target: &TargetState, phase: FlightPhase) {
        assemble_into(
            self.feature_set,
            prims,
            target,
            phase,
            &ActuatorSignal::default(),
            &mut self.row,
        );
        self.rows.extend_from_slice(&self.row);
        match self.ticks.last_mut() {
            Some(n) => *n += 1,
            None => self.ticks.push(1),
        }
    }

}

/// One prefix lane of a replay chunk: the history of `trace` after
/// `pushes` decimated pushes.
#[derive(Debug, Clone, Copy)]
struct PrefixLane {
    trace: usize,
    pushes: usize,
    /// The trace's last tick.
    last_tick: usize,
}

/// Working set of one [`FfcModel::replay`] call.
struct Replay<'a> {
    batched: BatchedStreamingRegressor<'a>,
    /// Prefix lanes `0..REPLAY_LANES` of the current chunk, then the
    /// pending tick lanes, each started from its prefix lane.
    scratch: BatchScratch,
    /// Normalized rows of every trace, back to back.
    rows: &'a [f64],
    dim: usize,
    cap: usize,
    decimate: usize,
    /// First tick of each trace in `rows`.
    starts: Vec<usize>,
    /// Trace of each pending tick lane.
    live_trace: Vec<usize>,
    series: Vec<Vec<ActuatorSignal>>,
}

impl<'a> Replay<'a> {
    /// The normalized row of `trace`'s tick `t`.
    fn row(&self, trace: usize, t: usize) -> &'a [f64] {
        let at = (self.starts[trace] + t) * self.dim;
        &self.rows[at..at + self.dim]
    }

    /// Steps every prefix of `chunk` from the zero state, then every tick
    /// reading one of them, in trace and tick order.
    fn run_chunk(&mut self, chunk: &[PrefixLane]) {
        if chunk.is_empty() {
            return;
        }
        self.scratch.reset_states();
        for k in 0..self.cap {
            for (lane, l) in chunk.iter().enumerate() {
                let sample = l.pushes - self.cap + k;
                self.scratch.load_row(lane, self.row(l.trace, sample * self.decimate));
            }
            self.batched.step_batch(&mut self.scratch, chunk.len());
        }
        for (lane, l) in chunk.iter().enumerate() {
            // Ticks reading `p` pushes: `t` with `ceil(t / decimate) == p`.
            let first = match l.pushes {
                0 => 0,
                p => (p - 1) * self.decimate + 1,
            };
            let last = (l.pushes * self.decimate).min(l.last_tick);
            for t in first..=last {
                let live = REPLAY_LANES + self.live_trace.len();
                self.scratch.copy_lane(lane, live);
                self.scratch.load_row(live, self.row(l.trace, t));
                self.live_trace.push(l.trace);
                if self.live_trace.len() == REPLAY_LANES {
                    self.run_live();
                }
            }
        }
        self.run_live();
    }

    /// Runs the pending tick lanes and appends their predictions.
    fn run_live(&mut self) {
        let lanes = REPLAY_LANES..REPLAY_LANES + self.live_trace.len();
        self.batched.step_range(&mut self.scratch, lanes.clone());
        self.batched.finish_range(&mut self.scratch, lanes.clone());
        let mut y = [0.0; ActuatorSignal::DIM];
        for (lane, &trace) in lanes.zip(&self.live_trace) {
            self.scratch.read_output(lane, &mut y);
            self.series[trace].push(ActuatorSignal::from_array(y));
        }
        self.live_trace.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pidpiper_math::Vec3;
    use pidpiper_sensors::{EstimatedState, SensorReadings};

    fn tiny_model() -> FfcModel {
        let set = FeatureSet::FfcPruned;
        let config = RegressorConfig {
            input_dim: set.dim(),
            output_dim: 4,
            hidden: 4,
            fc_width: 4,
            window: 3,
        };
        FfcModel::new(
            LstmRegressor::new(config, 1),
            set,
            PipelineConfig {
                decimate: 2,
                gate: GateConfig::default(),
            },
        )
    }

    fn prims_at(x: f64) -> SensorPrimitives {
        let est = EstimatedState {
            position: Vec3::new(x, 0.0, 5.0),
            ..Default::default()
        };
        SensorPrimitives::collect(&est, &SensorReadings::default())
    }

    #[test]
    fn warmup_then_predicts() {
        let mut m = tiny_model();
        let target = TargetState::hover_at(Vec3::new(10.0, 0.0, 5.0), 0.0);
        let mut first_some = None;
        for i in 0..20 {
            let out = m.observe(&prims_at(i as f64 * 0.1), &target, FlightPhase::Takeoff);
            if out.is_some() && first_some.is_none() {
                first_some = Some(i);
            }
        }
        // Window 3 at decimation 2: history fills with samples from steps
        // 0 and 2, so the first live prediction lands at step 3.
        assert_eq!(first_some, Some(3));
    }

    #[test]
    fn prediction_refreshes_every_step() {
        let mut m = tiny_model();
        let target = TargetState::hover_at(Vec3::new(10.0, 0.0, 5.0), 0.0);
        let mut outs = Vec::new();
        for i in 0..10 {
            outs.push(m.observe(&prims_at(i as f64 * 0.1), &target, FlightPhase::Takeoff));
        }
        // Features change every step, so warmed-up predictions do too —
        // the live final window slot keeps the model in lock-step with
        // the PID.
        assert_ne!(outs[4], outs[5]);
        assert_ne!(outs[5], outs[6]);
    }

    #[test]
    fn serialization_round_trip() {
        let mut a = tiny_model();
        let text = a.to_text();
        let mut b = FfcModel::from_text(&text, FeatureSet::FfcPruned, *a.pipeline())
            .expect("round trip");
        let target = TargetState::hover_at(Vec3::new(10.0, 0.0, 5.0), 0.0);
        for i in 0..10 {
            let ya = a.observe(&prims_at(i as f64 * 0.1), &target, FlightPhase::Takeoff);
            let yb = b.observe(&prims_at(i as f64 * 0.1), &target, FlightPhase::Takeoff);
            assert_eq!(ya, yb);
        }
    }

    #[test]
    fn from_text_rejects_wrong_feature_set() {
        let a = tiny_model();
        let text = a.to_text();
        assert!(FfcModel::from_text(&text, FeatureSet::FfcFull, *a.pipeline()).is_err());
    }

    #[test]
    fn from_text_rejects_zero_decimation() {
        let a = tiny_model();
        let pipeline = PipelineConfig {
            decimate: 0,
            ..*a.pipeline()
        };
        assert!(FfcModel::from_text(&a.to_text(), FeatureSet::FfcPruned, pipeline).is_err());
    }

    #[test]
    fn from_text_rejects_bad_model_stats() {
        let a = tiny_model();
        let text = a.to_text();
        let mut lines: Vec<&str> = text.lines().collect();
        let zero_std = vec!["0e0"; a.feature_set().dim()].join(" ");
        lines[3] = &zero_std;
        let err = FfcModel::from_text(&lines.join("\n"), FeatureSet::FfcPruned, *a.pipeline())
            .expect_err("a zero input std must not load");
        assert!(err.contains("std 0 is 0"), "{err}");
    }

    #[test]
    fn reset_restores_warmup() {
        let mut m = tiny_model();
        let target = TargetState::default();
        for i in 0..10 {
            m.observe(&prims_at(i as f64), &target, FlightPhase::Takeoff);
        }
        m.reset();
        assert_eq!(
            m.observe(&prims_at(0.0), &target, FlightPhase::Takeoff),
            None
        );
    }

    #[test]
    #[should_panic(expected = "FFC feature set")]
    fn rejects_fbc_feature_set() {
        let config = RegressorConfig {
            input_dim: 12,
            output_dim: 4,
            hidden: 4,
            fc_width: 4,
            window: 3,
        };
        let _ = FfcModel::new(
            LstmRegressor::new(config, 0),
            FeatureSet::FbcFull,
            PipelineConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "input dim")]
    fn rejects_mismatched_regressor() {
        let config = RegressorConfig {
            input_dim: 10,
            output_dim: 4,
            hidden: 4,
            fc_width: 4,
            window: 3,
        };
        let _ = FfcModel::new(
            LstmRegressor::new(config, 0),
            FeatureSet::FfcPruned,
            PipelineConfig::default(),
        );
    }
}

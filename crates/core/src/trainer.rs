//! End-to-end training pipeline: traces → datasets → trained models →
//! calibrated thresholds → a deployable [`PidPiper`].
//!
//! Mirrors the paper's offline procedure: collect ~30 attack-free mission
//! profiles per vehicle, split 80/20 into training and validation, train
//! the LSTM, then derive the detection thresholds from the validation
//! missions with DTW (Section V).
//!
//! Calibration replays the trained FFC over every validation trace in
//! one offline pass ([`FfcModel::replay`]): the sanitizer runs over each
//! trace's raw readings as it would in flight, and the model's windows
//! step as lanes of the batched engine — first every history prefix,
//! then every tick from its prefix's state — instead of tick by tick
//! through [`FfcModel::observe`], whose predictions they equal bit for
//! bit.

use crate::fbc::FbcModel;
use crate::features::{assemble, fbc_target, FeatureSet, SensorPrimitives, FBC_TARGET_DIM};
use crate::ffc::{FfcModel, PipelineConfig, ReplayRows};
use crate::pidpiper::{PidPiper, PidPiperConfig};
use crate::sanitizer::SensorSanitizer;
use crate::monitor::LagTolerantResidual;
use crate::threshold::CalibrationSeries;
use pidpiper_control::{ActuatorSignal, PositionGains};
use pidpiper_missions::Trace;
use pidpiper_ml::{LstmRegressor, RegressorConfig, TrainReport, WindowedDataset};

/// Training-pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainerConfig {
    /// Which feature catalogue to train on (deployment uses
    /// [`FeatureSet::FfcPruned`]).
    pub feature_set: FeatureSet,
    /// LSTM hidden width.
    pub hidden: usize,
    /// Fully-connected width.
    pub fc_width: usize,
    /// Input window length (decimated samples).
    pub window: usize,
    /// Runtime pipeline (decimation + gate).
    pub pipeline: PipelineConfig,
    /// Training stages `(epochs, learning rate)`; zero-epoch stages are
    /// skipped. Staged learning-rate decay roughly halves the final MSE
    /// compared with a single constant-rate run.
    pub stages: [(usize, f64); 3],
    /// Weight-init / shuffle seed.
    pub seed: u64,
    /// Fraction of missions used for training (rest = validation), the
    /// paper's 80/20 split.
    pub train_fraction: f64,
    /// CUSUM drift (degrees/step) for the deployed monitor.
    pub drift: f64,
    /// Recovery exit debounce (steps).
    pub exit_hold_steps: usize,
    /// Threshold calibration chunk (control steps per accumulation
    /// window).
    pub calibration_chunk: usize,
    /// Threshold safety margin (>= 1).
    pub safety_margin: f64,
    /// Monitor lag-tolerance horizon (control steps) for quadcopters;
    /// rovers use four times this (their yaw-rate commands flip through
    /// the full range at waypoint turns).
    pub lag_history: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            feature_set: FeatureSet::FfcPruned,
            hidden: 24,
            fc_width: 24,
            window: 20,
            pipeline: PipelineConfig::default(),
            stages: [(12, 0.01), (12, 0.004), (12, 0.0015)],
            seed: 42,
            train_fraction: 0.8,
            drift: 0.6,
            exit_hold_steps: 25,
            calibration_chunk: 400,
            safety_margin: 1.25,
            lag_history: 25,
        }
    }
}

impl TrainerConfig {
    /// A scaled-down configuration for unit tests.
    pub fn tiny() -> Self {
        TrainerConfig {
            hidden: 6,
            fc_width: 6,
            window: 5,
            stages: [(4, 0.01), (0, 0.0), (0, 0.0)],
            ..Default::default()
        }
    }

    /// The network configuration for this trainer (FFC direction).
    pub fn ffc_network(&self) -> RegressorConfig {
        RegressorConfig {
            input_dim: self.feature_set.dim(),
            output_dim: ActuatorSignal::DIM,
            hidden: self.hidden,
            fc_width: self.fc_width,
            window: self.window,
        }
    }

    /// The network configuration for the FBC direction with the given
    /// FBC feature set.
    pub fn fbc_network(&self, set: FeatureSet) -> RegressorConfig {
        RegressorConfig {
            input_dim: set.dim(),
            output_dim: FBC_TARGET_DIM,
            hidden: self.hidden,
            fc_width: self.fc_width,
            window: self.window,
        }
    }
}

/// The output of a full training run.
#[derive(Debug, Clone)]
pub struct TrainedPidPiper {
    /// The deployable defense.
    pub pidpiper: PidPiper,
    /// Training diagnostics.
    pub report: TrainReport,
    /// The calibrated thresholds (also embedded in `pidpiper`).
    pub thresholds: crate::monitor::AxisThresholds,
}

/// Recovers a trace's control period from its timestamps (falls back to
/// 10 ms for degenerate traces).
fn trace_dt(trace: &Trace) -> f64 {
    let r = trace.records();
    if r.len() >= 2 {
        (r[1].t - r[0].t).max(1e-4)
    } else {
        0.01
    }
}

/// Offline trainer.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainerConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainerConfig) -> Self {
        assert!(
            config.feature_set.is_ffc(),
            "the deployed trainer drives the FFC direction"
        );
        Trainer { config }
    }

    /// The trainer configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Extracts the decimated FFC feature/target series from one trace,
    /// mirroring the deployed pipeline exactly: the sanitizer (gate +
    /// shadow estimator) replays over the raw readings, and features come
    /// from the sanitized view. The trace's control period is recovered
    /// from its timestamps.
    fn ffc_series(&self, trace: &Trace, set: FeatureSet) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let dt = trace_dt(trace);
        let mut sanitizer = SensorSanitizer::new(self.config.pipeline.gate);
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        for (i, r) in trace.records().iter().enumerate() {
            let (clean, est) = sanitizer.process(&r.readings, dt);
            let prims = SensorPrimitives::collect(&est, &clean);
            if i % self.config.pipeline.decimate == 0 {
                inputs.push(assemble(
                    set,
                    &prims,
                    &r.target,
                    r.phase,
                    &ActuatorSignal::default(),
                ));
                targets.push(r.pid_signal.to_array().to_vec());
            }
        }
        (inputs, targets)
    }

    /// Extracts the FBC feature/target series from one trace (inputs use
    /// the previous control step's PID signal, targets are the pose).
    fn fbc_series(&self, trace: &Trace, set: FeatureSet) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let dt = trace_dt(trace);
        let mut sanitizer = SensorSanitizer::new(self.config.pipeline.gate);
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        let mut prev_signal = ActuatorSignal::default();
        for (i, r) in trace.records().iter().enumerate() {
            let (clean, est) = sanitizer.process(&r.readings, dt);
            let prims = SensorPrimitives::collect(&est, &clean);
            if i % self.config.pipeline.decimate == 0 {
                inputs.push(assemble(set, &prims, &r.target, r.phase, &prev_signal));
                targets.push(fbc_target(&r.est));
            }
            prev_signal = r.pid_signal;
        }
        (inputs, targets)
    }

    /// Builds the FFC windowed dataset across traces.
    pub fn ffc_dataset(&self, traces: &[Trace]) -> WindowedDataset {
        let mut ds = WindowedDataset::new(self.config.window);
        for trace in traces {
            let (inputs, targets) = self.ffc_series(trace, self.config.feature_set);
            ds.extend_from_series(&inputs, &targets);
        }
        ds
    }

    /// Trains the FFC regressor on the given traces.
    pub fn train_ffc(&self, traces: &[Trace]) -> (FfcModel, TrainReport) {
        let ds = self.ffc_dataset(traces);
        assert!(!ds.is_empty(), "no training samples extracted from traces");
        let mut regressor = LstmRegressor::new(self.config.ffc_network(), self.config.seed);
        regressor.fit_normalizers(&ds);
        let report = self.train_stages(&mut regressor, &ds);
        (
            FfcModel::new(regressor, self.config.feature_set, self.config.pipeline),
            report,
        )
    }

    /// Runs the configured training stages, concatenating the loss curves.
    fn train_stages(&self, regressor: &mut LstmRegressor, ds: &WindowedDataset) -> TrainReport {
        let mut curve = Vec::new();
        let mut samples = 0;
        for (i, &(epochs, lr)) in self.config.stages.iter().enumerate() {
            if epochs == 0 {
                continue;
            }
            let rep = regressor.train(ds, epochs, lr, self.config.seed + i as u64);
            curve.extend(rep.train_mse);
            samples = rep.samples;
        }
        TrainReport {
            final_mse: curve.last().copied().unwrap_or(f64::NAN),
            train_mse: curve,
            samples,
        }
    }

    /// Trains an FBC model (for the Section IV-C design study).
    pub fn train_fbc(
        &self,
        traces: &[Trace],
        set: FeatureSet,
        shadow_gains: PositionGains,
    ) -> (FbcModel, TrainReport) {
        assert!(!set.is_ffc(), "train_fbc requires an FBC feature set");
        let mut ds = WindowedDataset::new(self.config.window);
        for trace in traces {
            let (inputs, targets) = self.fbc_series(trace, set);
            ds.extend_from_series(&inputs, &targets);
        }
        assert!(!ds.is_empty(), "no training samples extracted from traces");
        let mut regressor = LstmRegressor::new(self.config.fbc_network(set), self.config.seed);
        regressor.fit_normalizers(&ds);
        let report = self.train_stages(&mut regressor, &ds);
        (
            FbcModel::new(regressor, set, self.config.pipeline, shadow_gains),
            report,
        )
    }

    /// Replays a trained FFC over a trace, returning the aligned
    /// (PID, ML) series for threshold calibration — only steps where the
    /// model is warmed up contribute.
    pub fn replay_ffc(&self, ffc: &FfcModel, trace: &Trace) -> CalibrationSeries {
        self.replay_traces(ffc, std::slice::from_ref(trace))
            .pop()
            .unwrap_or_default()
    }

    /// [`Trainer::replay_ffc`] over several traces in one batched pass
    /// ([`FfcModel::replay`]), one series per trace, in order.
    fn replay_traces(&self, ffc: &FfcModel, traces: &[Trace]) -> Vec<CalibrationSeries> {
        let mut rows = ReplayRows::new(ffc.feature_set());
        for trace in traces {
            rows.begin_trace();
            let dt = trace_dt(trace);
            let mut sanitizer = SensorSanitizer::new(self.config.pipeline.gate);
            for r in trace.records() {
                let (clean, est) = sanitizer.process(&r.readings, dt);
                rows.push(&SensorPrimitives::collect(&est, &clean), &r.target, r.phase);
            }
        }
        traces
            .iter()
            .zip(ffc.replay(rows))
            .map(|(trace, ml)| {
                let records = trace.records();
                let mut series = CalibrationSeries::default();
                for (r, ml) in records[records.len() - ml.len()..].iter().zip(ml) {
                    series.pid_roll.push(r.pid_signal.roll);
                    series.ml_roll.push(ml.roll);
                    series.pid_pitch.push(r.pid_signal.pitch);
                    series.ml_pitch.push(ml.pitch);
                    series.pid_yaw.push(r.pid_signal.yaw_rate);
                    series.ml_yaw.push(ml.yaw_rate);
                    series.pid_thrust.push(r.pid_signal.thrust);
                    series.ml_thrust.push(ml.thrust);
                }
                series
            })
            .collect()
    }

    /// Calibrates per-axis drifts and thresholds for a trained FFC by
    /// replaying the deployed monitor over the validation slice of
    /// `traces` (the same 80/20 split as [`Trainer::train`]). Returns
    /// `(lag_history, drifts, thresholds)`.
    ///
    /// `monitor_yaw_only` selects the rover monitoring mode (Table I).
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 traces are supplied or the validation
    /// replays produce no data.
    pub fn calibrate(
        &self,
        ffc: &FfcModel,
        traces: &[Trace],
        monitor_yaw_only: bool,
    ) -> (usize, [f64; 4], crate::monitor::AxisThresholds) {
        assert!(traces.len() >= 2, "need at least 2 traces to split");
        let n_train = (((traces.len() as f64) * self.config.train_fraction).round() as usize)
            .clamp(1, traces.len() - 1);
        let (_, val_traces) = traces.split_at(n_train);
        let cal: Vec<CalibrationSeries> = self
            .replay_traces(ffc, val_traces)
            .into_iter()
            .filter(|s| !s.is_empty())
            .collect();
        assert!(!cal.is_empty(), "validation traces produced no series");
        // Per-axis lag-tolerant residuals per validation mission, exactly
        // as the runtime monitor will compute them. Rover yaw-rate
        // commands flip sign sharply at waypoint switches, so the rover
        // monitor runs with a wider lag tolerance and a lower drift
        // quantile.
        let lag_history = if monitor_yaw_only {
            4 * self.config.lag_history
        } else {
            self.config.lag_history
        };
        let drift_quantile = if monitor_yaw_only { 0.98 } else { 0.995 };
        let residuals: Vec<[Vec<f64>; 4]> = cal
            .iter()
            .map(|s| {
                let mut tracker = LagTolerantResidual::new(lag_history);
                let mut axes: [Vec<f64>; 4] = Default::default();
                for i in 0..s.pid_roll.len() {
                    let ml = ActuatorSignal {
                        roll: s.ml_roll[i],
                        pitch: s.ml_pitch[i],
                        yaw_rate: s.ml_yaw[i],
                        thrust: s.ml_thrust[i],
                    };
                    let pid = ActuatorSignal {
                        roll: s.pid_roll[i],
                        pitch: s.pid_pitch[i],
                        yaw_rate: s.pid_yaw[i],
                        thrust: s.pid_thrust[i],
                    };
                    let r = tracker.update(&ml, &pid);
                    for axis in 0..4 {
                        axes[axis].push(r[axis]);
                    }
                }
                if monitor_yaw_only {
                    // Rovers monitor only the yaw channel (Table I).
                    axes[0].clear();
                    axes[1].clear();
                    axes[3].clear();
                }
                axes
            })
            .collect();
        let (drifts, thresholds) = crate::threshold::calibrate_pointwise(
            &residuals,
            drift_quantile,
            self.config.drift,
            self.config.safety_margin,
        );
        (lag_history, drifts, thresholds)
    }

    /// Full pipeline: split traces 80/20, train, calibrate thresholds on
    /// the validation missions, assemble the deployable defense.
    ///
    /// `monitor_yaw_only` selects the rover monitoring mode (Table I).
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 traces are supplied.
    pub fn train(&self, traces: &[Trace], monitor_yaw_only: bool) -> TrainedPidPiper {
        assert!(traces.len() >= 2, "need at least 2 traces to split");
        let n_train = (((traces.len() as f64) * self.config.train_fraction).round() as usize)
            .clamp(1, traces.len() - 1);
        let (train_traces, _) = traces.split_at(n_train);

        let (ffc, report) = self.train_ffc(train_traces);
        let (lag_history, drifts, thresholds) = self.calibrate(&ffc, traces, monitor_yaw_only);

        let pidpiper = PidPiper::new(
            ffc,
            PidPiperConfig::new(
                thresholds,
                drifts,
                self.config.exit_hold_steps,
                lag_history,
            ),
        );
        TrainedPidPiper {
            pidpiper,
            report,
            thresholds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pidpiper_missions::{MissionPlan, MissionRunner, RunnerConfig};
    use pidpiper_sim::RvId;

    fn collect_traces(n: usize) -> Vec<Trace> {
        (0..n)
            .map(|i| {
                let runner = MissionRunner::new(
                    RunnerConfig::for_rv(RvId::ArduCopter).with_seed(100 + i as u64),
                );
                let plan = MissionPlan::straight_line(20.0 + 4.0 * i as f64, 5.0);
                runner.run_clean(&plan).trace
            })
            .collect()
    }

    #[test]
    fn dataset_extraction_aligns() {
        let traces = collect_traces(1);
        let trainer = Trainer::new(TrainerConfig::tiny());
        let ds = trainer.ffc_dataset(&traces);
        assert!(!ds.is_empty());
        let s = &ds.samples()[0];
        assert_eq!(s.window.len(), trainer.config().window);
        assert_eq!(s.window[0].len(), FeatureSet::FfcPruned.dim());
        assert_eq!(s.target.len(), 4);
    }

    #[test]
    fn end_to_end_training_produces_working_defense() {
        let traces = collect_traces(3);
        let trainer = Trainer::new(TrainerConfig::tiny());
        let trained = trainer.train(&traces, false);
        // Thresholds are finite and positive.
        let thr = trained.thresholds;
        assert!(thr.roll.unwrap() > 0.0 && thr.roll.unwrap().is_finite());
        assert!(thr.yaw.unwrap() > 0.0);
        // The training at least converged to a finite loss.
        assert!(trained.report.final_mse.is_finite());
    }

    #[test]
    fn replay_produces_aligned_series() {
        let traces = collect_traces(2);
        let trainer = Trainer::new(TrainerConfig::tiny());
        let (ffc, _) = trainer.train_ffc(&traces[..1]);
        let series = trainer.replay_ffc(&ffc, &traces[1]);
        assert!(!series.is_empty());
        assert_eq!(series.pid_roll.len(), series.ml_roll.len());
        // Warmup means fewer aligned samples than trace records.
        assert!(series.pid_roll.len() < traces[1].len());
    }

    #[test]
    fn fbc_training_runs() {
        use pidpiper_sim::quadcopter::{QuadParams, GRAVITY};
        let traces = collect_traces(2);
        let trainer = Trainer::new(TrainerConfig::tiny());
        let p = QuadParams::default();
        let (fbc, report) = trainer.train_fbc(
            &traces,
            FeatureSet::FbcPruned,
            PositionGains::for_quad(p.mass, 2.0 * p.mass * GRAVITY),
        );
        assert_eq!(fbc.feature_set(), FeatureSet::FbcPruned);
        assert!(report.final_mse.is_finite());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_trace_rejected() {
        let traces = collect_traces(1);
        let trainer = Trainer::new(TrainerConfig::tiny());
        let _ = trainer.train(&traces, false);
    }
}

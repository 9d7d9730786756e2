//! The PID-Piper framework: monitoring + recovery (paper Algorithm 1).
//!
//! The FFC model runs in tandem with the PID controller, predicting the
//! actuator signal `y'(t)` while the PID produces `y(t)`. Each control
//! step the monitor accumulates the per-axis CUSUM statistic
//!
//! ```text
//! S(t) = max(0, S(t-1) + |y'(t) - y(t)| - b(t))
//! ```
//!
//! where `b(t)` is the calibrated per-axis drift allowance. When a
//! monitored axis's `S(t)` exceeds its calibrated threshold `τ`, recovery
//! mode activates: the vehicle flies the ML model's predictions `y'(t)`
//! instead of `y(t)`, and the inner loops consume PID-Piper's noise-gated
//! state estimate (so a gyroscope attack cannot re-enter through the
//! attitude loop). Recovery deactivates when the instantaneous residual
//! `|y'(t) - y(t)|` drops back below `b(t)` for a hold period — the
//! paper's `error -> 0` condition.

use crate::features::SensorPrimitives;
use crate::ffc::FfcModel;
use crate::monitor::{AxisThresholds, CusumMonitor};
use crate::sanitizer::SensorSanitizer;
use crate::strategy::{RecoveryContext, RecoveryStrategy, StrategyState};
use crate::supervisor::{FfcHealthMonitor, RecoveryWatchdog, SignalEnvelope};
use pidpiper_control::ActuatorSignal;
use pidpiper_missions::{
    Defense, DefenseContext, HealthState, MonitorLevel, SensorChannel, StrategyKind,
};
use pidpiper_sensors::EstimatedState;

/// Raw-vs-shadow consistency gates for the recovery-exit check: recovery
/// may only hand control back while every gap between the raw sensors and
/// the sanitized estimate is below its gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsistencyGates {
    /// Largest tolerated GPS-fix-to-shadow-position gap (m).
    pub pos_gap: f64,
    /// Largest tolerated gyro-to-shadow-body-rate gap (rad/s).
    pub gyro_gap: f64,
    /// Largest tolerated barometer-to-shadow-altitude gap (m).
    pub baro_gap: f64,
    /// Largest tolerated magnetometer-to-shadow-yaw gap (rad).
    pub mag_gap: f64,
    /// Largest tolerated low-passed attitude innovation (rad) — the
    /// gyro-tampering indicator.
    pub attitude_innovation: f64,
}

impl Default for ConsistencyGates {
    fn default() -> Self {
        // Calibrated against benign sensor noise at the default noise
        // config: each gate sits a comfortable margin above the clean
        // steady-state gap.
        ConsistencyGates {
            pos_gap: 3.5,
            gyro_gap: 0.25,
            baro_gap: 2.5,
            mag_gap: 0.3,
            attitude_innovation: 0.05,
        }
    }
}

impl ConsistencyGates {
    fn validate(&self) {
        assert!(
            self.pos_gap > 0.0
                && self.gyro_gap > 0.0
                && self.baro_gap > 0.0
                && self.mag_gap > 0.0
                && self.attitude_innovation > 0.0,
            "consistency gates must be positive"
        );
    }
}

/// Per-channel trust band clamping the FFC override around the PID
/// signal while recovering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrustBand {
    /// Half-width of the roll/pitch band (rad).
    pub angle: f64,
    /// Half-width of the yaw-rate band (rad/s).
    pub yaw_rate: f64,
    /// Half-width of the thrust band (fraction of full scale).
    pub thrust: f64,
}

impl Default for TrustBand {
    fn default() -> Self {
        // The band must be narrower than the accumulated (integral)
        // correction the anchor PID applies against steady disturbances —
        // otherwise a model that mispredicts by a constant offset can hold
        // the vehicle in a slow drift the anchor never gets to cancel.
        TrustBand {
            angle: 0.05,
            yaw_rate: 0.20,
            thrust: 0.04,
        }
    }
}

impl TrustBand {
    fn validate(&self) {
        assert!(
            self.angle > 0.0 && self.yaw_rate > 0.0 && self.thrust > 0.0,
            "trust band widths must be positive"
        );
    }
}

/// PID-Piper deployment configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidPiperConfig {
    /// Calibrated per-axis detection thresholds `τ` (degrees): recovery
    /// triggers when an axis's CUSUM statistic `S(t)` exceeds its `τ`.
    pub thresholds: AxisThresholds,
    /// Per-axis CUSUM drift allowances `b(t)` (degrees per step for the
    /// angular channels, percent per step for thrust): the benign residual
    /// level subtracted from `|y'(t) - y(t)|` before accumulation.
    pub drifts: [f64; 4],
    /// Consecutive steps with residual below drift required to exit
    /// recovery (debounces the `error -> 0` check).
    pub exit_hold_steps: usize,
    /// Lag-tolerance horizon of the monitor (control steps).
    pub lag_history: usize,
    /// Recovery-exit consistency gates (raw sensors vs sanitized view).
    pub consistency: ConsistencyGates,
    /// Trust band clamping the FFC override around the PID signal.
    pub band: TrustBand,
    /// Recovery-watchdog budget: consecutive recovery steps before the
    /// defense latches the explicit `Degraded` fail-safe.
    pub max_recovery_steps: usize,
    /// Consecutive bad FFC predictions (non-finite / out-of-envelope)
    /// before the model latches offline.
    pub ffc_offline_after: usize,
    /// CUSUM saturation factor: each axis's statistic is capped at this
    /// multiple of its own threshold.
    pub cusum_saturation: f64,
    /// Which recovery strategy to run once the monitor trips (the
    /// [`crate::strategy`] module). The default — and what v1/v2
    /// deployment texts load as — is the paper's Algorithm 1.
    pub strategy: StrategyKind,
}

impl PidPiperConfig {
    /// Default recovery-watchdog budget (control steps; 30 s at 100 Hz).
    pub const DEFAULT_MAX_RECOVERY_STEPS: usize = 3000;
    /// Default FFC offline debounce (consecutive bad predictions).
    pub const DEFAULT_FFC_OFFLINE_AFTER: usize = 25;
    /// Default CUSUM saturation factor.
    pub const DEFAULT_CUSUM_SATURATION: f64 = 8.0;

    /// Creates a configuration from the calibrated detection parameters,
    /// with the supervisor layer (consistency gates, trust band, watchdog,
    /// FFC health latch, CUSUM saturation) at its defaults.
    pub fn new(
        thresholds: AxisThresholds,
        drifts: [f64; 4],
        exit_hold_steps: usize,
        lag_history: usize,
    ) -> Self {
        PidPiperConfig {
            thresholds,
            drifts,
            exit_hold_steps,
            lag_history,
            consistency: ConsistencyGates::default(),
            band: TrustBand::default(),
            max_recovery_steps: Self::DEFAULT_MAX_RECOVERY_STEPS,
            ffc_offline_after: Self::DEFAULT_FFC_OFFLINE_AFTER,
            cusum_saturation: Self::DEFAULT_CUSUM_SATURATION,
            strategy: StrategyKind::default(),
        }
    }

    /// Selects a recovery strategy (builder style).
    pub fn with_strategy(mut self, strategy: StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics if the drift is non-positive, no axis is monitored, or any
    /// supervisor parameter is out of range.
    pub fn validate(&self) {
        assert!(
            self.drifts.iter().all(|d| *d > 0.0),
            "drifts must be positive"
        );
        assert!(
            self.thresholds.max_threshold().is_finite(),
            "at least one axis must be monitored"
        );
        assert!(self.exit_hold_steps > 0, "exit hold must be positive");
        assert!(self.lag_history > 0, "lag history must be positive");
        self.consistency.validate();
        self.band.validate();
        assert!(
            self.max_recovery_steps > 0,
            "recovery watchdog budget must be positive"
        );
        assert!(
            self.ffc_offline_after > 0,
            "FFC offline debounce must be positive"
        );
        assert!(
            self.cusum_saturation > 1.0,
            "CUSUM saturation must exceed 1"
        );
    }
}

/// The PID-Piper defense (implements [`Defense`]).
///
/// Construct via [`crate::trainer::Trainer`] for a fully trained instance,
/// or directly from a trained [`FfcModel`] and calibrated thresholds.
#[derive(Debug, Clone)]
pub struct PidPiper {
    ffc: FfcModel,
    sanitizer: SensorSanitizer,
    monitor: CusumMonitor,
    config: PidPiperConfig,
    ffc_health: FfcHealthMonitor,
    watchdog: RecoveryWatchdog,
    strategy: StrategyState,
    last_ml_signal: Option<ActuatorSignal>,
    sanitized: Option<EstimatedState>,
}

impl PidPiper {
    /// Creates the framework from a trained FFC and configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`PidPiperConfig::validate`].
    pub fn new(ffc: FfcModel, config: PidPiperConfig) -> Self {
        config.validate();
        PidPiper {
            monitor: CusumMonitor::with_drifts_and_lag(
                config.thresholds,
                config.drifts,
                config.lag_history,
            )
            .with_saturation(config.cusum_saturation),
            sanitizer: SensorSanitizer::new(ffc.pipeline().gate),
            ffc_health: FfcHealthMonitor::new(SignalEnvelope::default(), config.ffc_offline_after),
            watchdog: RecoveryWatchdog::new(config.max_recovery_steps),
            strategy: StrategyState::for_kind(config.strategy, &config),
            ffc,
            config,
            last_ml_signal: None,
            sanitized: None,
        }
    }

    /// Whether the defense has latched the `Degraded` fail-safe.
    pub fn is_degraded(&self) -> bool {
        self.strategy.is_degraded()
    }

    /// Whether the FFC has latched offline (sustained bad predictions).
    pub fn ffc_offline(&self) -> bool {
        self.ffc_health.is_offline()
    }

    /// The active recovery strategy.
    pub fn strategy_kind(&self) -> StrategyKind {
        self.strategy.kind()
    }

    /// Swaps in the recovery strategy for `kind`, discarding the current
    /// episode state. A no-op when `kind` is already active — in
    /// particular, re-selecting Algorithm 1 right after [`Defense::reset`]
    /// (the mission runner's pre-flight sequence) leaves the defense
    /// bit-identical to a freshly constructed one.
    pub fn set_strategy(&mut self, kind: StrategyKind) {
        if self.strategy.kind() != kind {
            self.config.strategy = kind;
            self.strategy = StrategyState::for_kind(kind, &self.config);
        }
    }

    /// The deployment configuration.
    pub fn config(&self) -> &PidPiperConfig {
        &self.config
    }

    /// The FFC model (e.g. for serialization).
    pub fn ffc(&self) -> &FfcModel {
        &self.ffc
    }

    /// The most recent ML prediction, if warmed up.
    pub fn last_ml_signal(&self) -> Option<ActuatorSignal> {
        self.last_ml_signal
    }

    /// Serializes the full deployment (config + trained FFC) to text, so a
    /// trained defense can be cached and reloaded without retraining.
    pub fn to_text(&self) -> String {
        let c = &self.config;
        let opt = |o: Option<f64>| o.map_or("-".to_string(), |v| format!("{v:e}"));
        let g = self.ffc.pipeline().gate;
        let mut out = String::from("pidpiper-deployment v3
");
        out.push_str(&format!(
            "thresholds {} {} {} {}
",
            opt(c.thresholds.roll),
            opt(c.thresholds.pitch),
            opt(c.thresholds.yaw),
            opt(c.thresholds.thrust)
        ));
        out.push_str(&format!(
            "drifts {:e} {:e} {:e} {:e}
",
            c.drifts[0], c.drifts[1], c.drifts[2], c.drifts[3]
        ));
        out.push_str(&format!("exit_hold {}
", c.exit_hold_steps));
        out.push_str(&format!("lag_history {}
", c.lag_history));
        out.push_str(&format!(
            "consistency {:e} {:e} {:e} {:e} {:e}
",
            c.consistency.pos_gap,
            c.consistency.gyro_gap,
            c.consistency.baro_gap,
            c.consistency.mag_gap,
            c.consistency.attitude_innovation
        ));
        out.push_str(&format!(
            "band {:e} {:e} {:e}
",
            c.band.angle, c.band.yaw_rate, c.band.thrust
        ));
        out.push_str(&format!(
            "supervisor {} {} {:e}
",
            c.max_recovery_steps, c.ffc_offline_after, c.cusum_saturation
        ));
        out.push_str(&format!("strategy {}
", c.strategy.name()));
        out.push_str(&format!(
            "pipeline {} {} {:e} {:e} {:e} {} {:e}
",
            self.ffc.pipeline().decimate,
            g.window,
            g.nu0,
            g.kappa,
            g.g_min,
            g.min_fill,
            g.leak
        ));
        out.push_str(&format!(
            "feature_set {}
",
            match self.ffc.feature_set() {
                crate::features::FeatureSet::FfcFull => "ffc-full",
                crate::features::FeatureSet::FfcPruned => "ffc-pruned",
                // FfcModel's constructor rejects FBC sets, so these arms
                // are inert; naming them keeps serialization total.
                crate::features::FeatureSet::FbcFull => "fbc-full",
                crate::features::FeatureSet::FbcPruned => "fbc-pruned",
            }
        ));
        out.push_str(&self.ffc.to_text());
        out
    }

    /// Restores a deployment serialized by [`PidPiper::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a descriptive error on any format violation.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let version = match lines.next() {
            // v1 deployments predate the supervisor layer and v2 the
            // strategy selector; their missing parameters load as the
            // documented defaults (Algorithm 1 for the strategy).
            Some("pidpiper-deployment v1") => 1,
            Some("pidpiper-deployment v2") => 2,
            Some("pidpiper-deployment v3") => 3,
            _ => return Err("unknown deployment header".into()),
        };
        let parse_opt = |tok: &str| -> Result<Option<f64>, String> {
            if tok == "-" {
                Ok(None)
            } else {
                tok.parse().map(Some).map_err(|e| format!("bad float: {e}"))
            }
        };
        let thr_line = lines.next().ok_or("missing thresholds")?;
        let toks: Vec<&str> = thr_line.split_whitespace().collect();
        if toks.len() != 5 || toks[0] != "thresholds" {
            return Err("bad thresholds line".into());
        }
        let thresholds = AxisThresholds {
            roll: parse_opt(toks[1])?,
            pitch: parse_opt(toks[2])?,
            yaw: parse_opt(toks[3])?,
            thrust: parse_opt(toks[4])?,
        };
        let drift_line = lines.next().ok_or("missing drifts")?;
        let toks: Vec<&str> = drift_line.split_whitespace().collect();
        if toks.len() != 5 || toks[0] != "drifts" {
            return Err("bad drifts line".into());
        }
        let mut drifts = [0.0; 4];
        for (d, t) in drifts.iter_mut().zip(&toks[1..]) {
            *d = t.parse().map_err(|e| format!("bad drift: {e}"))?;
        }
        let hold_line = lines.next().ok_or("missing exit_hold")?;
        let exit_hold_steps: usize = hold_line
            .strip_prefix("exit_hold ")
            .ok_or("bad exit_hold line")?
            .parse()
            .map_err(|e| format!("bad exit_hold: {e}"))?;
        let lag_line = lines.next().ok_or("missing lag_history")?;
        let lag_history: usize = lag_line
            .strip_prefix("lag_history ")
            .ok_or("bad lag_history line")?
            .parse()
            .map_err(|e| format!("bad lag_history: {e}"))?;
        let mut consistency = ConsistencyGates::default();
        let mut band = TrustBand::default();
        let mut max_recovery_steps = PidPiperConfig::DEFAULT_MAX_RECOVERY_STEPS;
        let mut ffc_offline_after = PidPiperConfig::DEFAULT_FFC_OFFLINE_AFTER;
        let mut cusum_saturation = PidPiperConfig::DEFAULT_CUSUM_SATURATION;
        if version >= 2 {
            let cons_line = lines.next().ok_or("missing consistency")?;
            let toks: Vec<&str> = cons_line.split_whitespace().collect();
            if toks.len() != 6 || toks[0] != "consistency" {
                return Err("bad consistency line".into());
            }
            let mut vals = [0.0; 5];
            for (v, t) in vals.iter_mut().zip(&toks[1..]) {
                *v = t.parse().map_err(|e| format!("bad consistency gate: {e}"))?;
            }
            consistency = ConsistencyGates {
                pos_gap: vals[0],
                gyro_gap: vals[1],
                baro_gap: vals[2],
                mag_gap: vals[3],
                attitude_innovation: vals[4],
            };
            let band_line = lines.next().ok_or("missing band")?;
            let toks: Vec<&str> = band_line.split_whitespace().collect();
            if toks.len() != 4 || toks[0] != "band" {
                return Err("bad band line".into());
            }
            let mut vals = [0.0; 3];
            for (v, t) in vals.iter_mut().zip(&toks[1..]) {
                *v = t.parse().map_err(|e| format!("bad band width: {e}"))?;
            }
            band = TrustBand {
                angle: vals[0],
                yaw_rate: vals[1],
                thrust: vals[2],
            };
            let sup_line = lines.next().ok_or("missing supervisor")?;
            let toks: Vec<&str> = sup_line.split_whitespace().collect();
            if toks.len() != 4 || toks[0] != "supervisor" {
                return Err("bad supervisor line".into());
            }
            max_recovery_steps = toks[1]
                .parse()
                .map_err(|e| format!("bad max_recovery_steps: {e}"))?;
            ffc_offline_after = toks[2]
                .parse()
                .map_err(|e| format!("bad ffc_offline_after: {e}"))?;
            cusum_saturation = toks[3]
                .parse()
                .map_err(|e| format!("bad cusum_saturation: {e}"))?;
        }
        let mut strategy = StrategyKind::default();
        if version >= 3 {
            let strat_line = lines.next().ok_or("missing strategy")?;
            let name = strat_line
                .strip_prefix("strategy ")
                .ok_or("bad strategy line")?;
            strategy =
                StrategyKind::parse(name).ok_or_else(|| format!("unknown strategy: {name}"))?;
        }
        let pipe_line = lines.next().ok_or("missing pipeline")?;
        let toks: Vec<&str> = pipe_line.split_whitespace().collect();
        if toks.len() != 8 || toks[0] != "pipeline" {
            return Err("bad pipeline line".into());
        }
        let pipeline = crate::ffc::PipelineConfig {
            decimate: toks[1].parse().map_err(|e| format!("bad decimate: {e}"))?,
            gate: crate::gate::GateConfig {
                window: toks[2].parse().map_err(|e| format!("bad window: {e}"))?,
                nu0: toks[3].parse().map_err(|e| format!("bad nu0: {e}"))?,
                kappa: toks[4].parse().map_err(|e| format!("bad kappa: {e}"))?,
                g_min: toks[5].parse().map_err(|e| format!("bad g_min: {e}"))?,
                min_fill: toks[6].parse().map_err(|e| format!("bad min_fill: {e}"))?,
                leak: toks[7].parse().map_err(|e| format!("bad leak: {e}"))?,
            },
        };
        let fs_line = lines.next().ok_or("missing feature_set")?;
        let feature_set = match fs_line.strip_prefix("feature_set ") {
            Some("ffc-full") => crate::features::FeatureSet::FfcFull,
            Some("ffc-pruned") => crate::features::FeatureSet::FfcPruned,
            _ => return Err("bad feature_set line".into()),
        };
        let rest: String = lines.collect::<Vec<_>>().join("\n");
        let ffc = FfcModel::from_text(&rest, feature_set, pipeline)?;
        Ok(PidPiper::new(
            ffc,
            PidPiperConfig {
                thresholds,
                drifts,
                exit_hold_steps,
                lag_history,
                consistency,
                band,
                max_recovery_steps,
                ffc_offline_after,
                cusum_saturation,
                strategy,
            },
        ))
    }
}

impl Defense for PidPiper {
    fn name(&self) -> &str {
        "PID-Piper"
    }

    fn observe(&mut self, ctx: &DefenseContext<'_>) -> Option<ActuatorSignal> {
        // Noise model: gate the raw sensors and run the shadow estimator;
        // the FFC consumes the sanitized view.
        let (clean_readings, shadow_est) = self.sanitizer.process(ctx.readings, ctx.dt);
        let prims = SensorPrimitives::collect(&shadow_est, &clean_readings);
        let ml = self.ffc.observe(&prims, ctx.target, ctx.phase);
        self.last_ml_signal = ml;
        self.sanitized = Some(shadow_est);

        let Some(ml_signal) = ml else {
            // Model still warming up: no monitoring, no override.
            return None;
        };

        // Supervisor: health-check the prediction before it can reach the
        // monitor or the motors. A bad prediction (non-finite or out of
        // the actuation envelope) falls back to the PID for this step; a
        // sustained run latches the FFC offline — and if that happens
        // while its predictions were flying the vehicle, the only honest
        // state left is the Degraded fail-safe.
        if !self.ffc_health.check(&ml_signal) {
            if self.ffc_health.is_offline()
                && (self.strategy.in_recovery() || self.strategy.is_degraded())
            {
                self.strategy.force_degraded();
            }
            return None;
        }

        let tripped = self.monitor.update(&ml_signal, &ctx.pid_signal);

        // Hand the step to the active recovery strategy. During recovery
        // the runner feeds the sanitized estimate to the controller, so
        // `ctx.pid_signal` is the PID's response to the *clean* state —
        // exactly what the FFC approximates.
        let rctx = RecoveryContext {
            readings: ctx.readings,
            shadow: &shadow_est,
            attitude_innovation: self.sanitizer.attitude_innovation(),
            ml_signal,
            pid_signal: ctx.pid_signal,
            tripped,
            phase: ctx.phase,
            target: ctx.target,
            t: ctx.t,
            dt: ctx.dt,
        };
        self.strategy
            .decide(&rctx, &mut self.monitor, &mut self.watchdog)
    }

    fn sanitized_estimate(&self) -> Option<EstimatedState> {
        self.sanitized
    }

    fn monitor_level(&self) -> MonitorLevel {
        // Normalized so the stealthy-attack oracle sees one scalar level
        // regardless of per-axis units: 1.0 = detection.
        MonitorLevel {
            statistic: self.monitor.normalized_statistic(),
            threshold: 1.0,
        }
    }

    fn in_recovery(&self) -> bool {
        self.strategy.in_recovery()
    }

    fn health_state(&self) -> HealthState {
        self.strategy.health()
    }

    fn recovery_activations(&self) -> usize {
        self.strategy.activations()
    }

    fn attribution(&self) -> Option<SensorChannel> {
        self.strategy.attribution()
    }

    fn configure_strategy(&mut self, kind: StrategyKind) {
        self.set_strategy(kind);
    }

    fn reset(&mut self) {
        self.ffc.reset();
        self.sanitizer.reset();
        self.monitor.reset_all();
        self.ffc_health.reset();
        self.watchdog.rearm();
        self.strategy.reset();
        self.last_ml_signal = None;
        self.sanitized = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSet;
    use crate::ffc::PipelineConfig;
    use pidpiper_control::TargetState;
    use pidpiper_missions::FlightPhase;
    use pidpiper_ml::{LstmRegressor, RegressorConfig};
    use pidpiper_sensors::SensorReadings;

    fn tiny_pidpiper() -> PidPiper {
        let set = FeatureSet::FfcPruned;
        let net = RegressorConfig {
            input_dim: set.dim(),
            output_dim: 4,
            hidden: 4,
            fc_width: 4,
            window: 3,
        };
        let ffc = FfcModel::new(
            LstmRegressor::new(net, 7),
            set,
            PipelineConfig {
                decimate: 1,
                gate: Default::default(),
            },
        );
        PidPiper::new(
            ffc,
            PidPiperConfig::new(AxisThresholds::quad(18.0, 18.0, 18.6), [0.5; 4], 5, 12),
        )
    }

    fn ctx_with<'a>(
        est: &'a EstimatedState,
        readings: &'a SensorReadings,
        target: &'a TargetState,
        pid: ActuatorSignal,
        t: f64,
    ) -> DefenseContext<'a> {
        DefenseContext {
            t,
            dt: 0.01,
            est,
            readings,
            target,
            pid_signal: pid,
            phase: FlightPhase::Cruise { wp_index: 0 },
        }
    }

    #[test]
    fn warmup_returns_none_and_does_not_monitor() {
        let mut pp = tiny_pidpiper();
        let est = EstimatedState::default();
        let readings = SensorReadings::default();
        let target = TargetState::default();
        // Even a wild PID signal during warmup cannot trip detection.
        let pid = ActuatorSignal {
            roll: 1.0,
            ..Default::default()
        };
        let out = pp.observe(&ctx_with(&est, &readings, &target, pid, 0.01));
        assert!(out.is_none());
        assert!(!pp.in_recovery());
    }

    #[test]
    fn large_divergence_triggers_recovery_with_ml_override() {
        let mut pp = tiny_pidpiper();
        let est = EstimatedState::default();
        let readings = SensorReadings::default();
        let target = TargetState::default();
        // Warm up feeding the model's own prediction back as the PID
        // signal (an untrained net outputs an arbitrary constant; agreeing
        // with it emulates a well-trained, benign baseline).
        for i in 0..30 {
            let pid = pp.last_ml_signal().unwrap_or_default();
            pp.observe(&ctx_with(&est, &readings, &target, pid, i as f64 * 0.01));
        }
        assert!(!pp.in_recovery(), "agreement must not trigger recovery");
        let activations_before = pp.recovery_activations();
        // ...then diverge the PID hard (attack reaction).
        let base = pp.last_ml_signal().expect("warmed up");
        let pid = ActuatorSignal {
            roll: base.roll + 0.5, // ~28.6 degrees above the ML output
            ..base
        };
        for i in 0..60 {
            pp.observe(&ctx_with(&est, &readings, &target, pid, 1.0 + i as f64 * 0.01));
            if pp.in_recovery() {
                break;
            }
        }
        assert!(pp.in_recovery(), "divergence must trigger recovery");
        assert_eq!(pp.recovery_activations(), activations_before + 1);
        // Next step flies the ML signal.
        let out = pp.observe(&ctx_with(&est, &readings, &target, pid, 2.0));
        assert!(out.is_some(), "recovery must override with the ML signal");
    }

    #[test]
    fn recovery_exits_when_residual_subsides() {
        let mut pp = tiny_pidpiper();
        let est = EstimatedState::default();
        let readings = SensorReadings::default();
        let target = TargetState::default();
        for i in 0..30 {
            let pid = pp.last_ml_signal().unwrap_or_default();
            pp.observe(&ctx_with(&est, &readings, &target, pid, i as f64 * 0.01));
        }
        let base = pp.last_ml_signal().expect("warmed up");
        let attack_pid = ActuatorSignal {
            roll: base.roll + 0.5,
            ..base
        };
        for i in 0..20 {
            pp.observe(&ctx_with(&est, &readings, &target, attack_pid, 1.0 + i as f64 * 0.01));
        }
        assert!(pp.in_recovery());
        // Attack subsides: PID returns to agreeing with the ML model.
        for i in 0..30 {
            let ml = pp.last_ml_signal().expect("warmed up");
            pp.observe(&ctx_with(&est, &readings, &target, ml, 2.0 + i as f64 * 0.01));
        }
        assert!(!pp.in_recovery(), "recovery must deactivate after the attack");
    }

    #[test]
    fn sanitized_estimate_tracks_shadow_estimator() {
        let mut pp = tiny_pidpiper();
        let est = EstimatedState::default();
        let readings = SensorReadings {
            gps_position: pidpiper_math::Vec3::new(1.0, 2.0, 3.0),
            baro_altitude: 3.0,
            ..Default::default()
        };
        let target = TargetState::default();
        for i in 0..50 {
            pp.observe(&ctx_with(&est, &readings, &target, ActuatorSignal::default(), 0.01 * (i + 1) as f64));
        }
        let s = pp.sanitized_estimate().expect("populated after observe");
        // The shadow estimator snaps to the (clean) GPS fix.
        assert!(s.position.distance(readings.gps_position) < 0.5, "shadow pos {}", s.position);
    }

    #[test]
    fn reset_clears_everything() {
        let mut pp = tiny_pidpiper();
        let est = EstimatedState::default();
        let readings = SensorReadings::default();
        let target = TargetState::default();
        for i in 0..10 {
            pp.observe(&ctx_with(
                &est,
                &readings,
                &target,
                ActuatorSignal {
                    roll: 0.5,
                    ..Default::default()
                },
                i as f64 * 0.01,
            ));
        }
        pp.reset();
        assert!(!pp.in_recovery());
        assert_eq!(pp.recovery_activations(), 0);
        assert_eq!(pp.monitor_level().statistic, 0.0);
        assert!(pp.last_ml_signal().is_none());
    }

    #[test]
    fn deployment_serialization_round_trip() {
        let mut a = tiny_pidpiper();
        let text = a.to_text();
        let mut b = PidPiper::from_text(&text).expect("round trip");
        assert_eq!(a.config(), b.config());
        // Behavioural equality: identical observations yield identical
        // outputs.
        let est = EstimatedState::default();
        let readings = SensorReadings::default();
        let target = TargetState::default();
        for i in 0..20 {
            let pid = ActuatorSignal {
                roll: 0.01 * i as f64,
                ..Default::default()
            };
            let ya = a.observe(&ctx_with(&est, &readings, &target, pid, i as f64 * 0.01));
            let yb = b.observe(&ctx_with(&est, &readings, &target, pid, i as f64 * 0.01));
            assert_eq!(ya, yb, "divergence at step {i}");
            assert_eq!(a.last_ml_signal(), b.last_ml_signal());
        }
    }

    #[test]
    fn deployment_rejects_garbage() {
        assert!(PidPiper::from_text("").is_err());
        assert!(PidPiper::from_text("not a deployment\n").is_err());
    }

    #[test]
    fn deployment_rejects_bad_model_dimensions_and_stats() {
        let text = tiny_pidpiper().to_text();
        let lines: Vec<&str> = text.lines().collect();
        let model = lines
            .iter()
            .position(|l| *l == "pidpiper-lstm-regressor v1")
            .expect("embedded model header");
        let edit = |offset: usize, with: &str| {
            let mut edited = lines.clone();
            edited[model + offset] = with;
            PidPiper::from_text(&edited.join("\n"))
        };
        let dims: Vec<&str> = lines[model + 1].split_whitespace().collect();
        let zero_window = format!("{} {} {} {} 0", dims[0], dims[1], dims[2], dims[3]);
        assert!(edit(1, &zero_window).is_err_and(|e| e.contains("window is 0")));
        assert!(edit(5, "").is_err_and(|e| e.contains("target stats: 4 means but 0 stds")));
    }

    #[test]
    #[should_panic(expected = "drift")]
    fn invalid_config_rejected() {
        let pp = tiny_pidpiper();
        let ffc = pp.ffc().clone();
        let _ = PidPiper::new(
            ffc,
            PidPiperConfig::new(AxisThresholds::quad(18.0, 18.0, 18.0), [0.0; 4], 5, 12),
        );
    }

    #[test]
    #[should_panic(expected = "watchdog")]
    fn invalid_supervisor_config_rejected() {
        let pp = tiny_pidpiper();
        let ffc = pp.ffc().clone();
        let mut config = *pp.config();
        config.max_recovery_steps = 0;
        let _ = PidPiper::new(ffc, config);
    }

    #[test]
    fn v1_deployment_loads_with_supervisor_defaults() {
        let a = tiny_pidpiper();
        // Rewrite the v3 text as a v1 deployment: drop the supervisor and
        // strategy lines and downgrade the header.
        let v3 = a.to_text();
        let v1: String = v3
            .lines()
            .filter(|l| {
                !l.starts_with("consistency ")
                    && !l.starts_with("band ")
                    && !l.starts_with("supervisor ")
                    && !l.starts_with("strategy ")
            })
            .map(|l| {
                if l == "pidpiper-deployment v3" {
                    "pidpiper-deployment v1".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let b = PidPiper::from_text(&v1).expect("v1 must load");
        assert_eq!(b.config().consistency, ConsistencyGates::default());
        assert_eq!(b.config().band, TrustBand::default());
        assert_eq!(
            b.config().max_recovery_steps,
            PidPiperConfig::DEFAULT_MAX_RECOVERY_STEPS
        );
        assert_eq!(b.config().strategy, StrategyKind::Algorithm1);
        assert_eq!(a.config(), b.config(), "defaults match the fixture");
    }

    #[test]
    fn v2_deployment_loads_with_algorithm1_strategy() {
        let a = tiny_pidpiper();
        // Rewrite the v3 text as a v2 deployment: drop only the strategy
        // line (v2 carried the supervisor layer already).
        let v3 = a.to_text();
        let v2: String = v3
            .lines()
            .filter(|l| !l.starts_with("strategy "))
            .map(|l| {
                if l == "pidpiper-deployment v3" {
                    "pidpiper-deployment v2".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let b = PidPiper::from_text(&v2).expect("v2 must load");
        assert_eq!(b.config().strategy, StrategyKind::Algorithm1);
        assert_eq!(a.config(), b.config(), "defaults match the fixture");
    }

    #[test]
    fn strategy_selection_serializes_and_round_trips() {
        let base = tiny_pidpiper();
        let ffc = base.ffc().clone();
        let config = (*base.config()).with_strategy(StrategyKind::DiagnosisGuided);
        let a = PidPiper::new(ffc, config);
        assert_eq!(a.strategy_kind(), StrategyKind::DiagnosisGuided);
        let text = a.to_text();
        assert!(text.contains("strategy diagnosis-guided\n"), "{text}");
        let b = PidPiper::from_text(&text).expect("v3 round trip");
        assert_eq!(b.strategy_kind(), StrategyKind::DiagnosisGuided);
        assert_eq!(a.config(), b.config());
        // An unknown strategy name is a config error, not a default.
        let bad = text.replace("strategy diagnosis-guided", "strategy bogus");
        assert!(PidPiper::from_text(&bad).is_err());
    }

    #[test]
    fn configure_strategy_swaps_and_preserves_identity() {
        let mut pp = tiny_pidpiper();
        assert_eq!(pp.strategy_kind(), StrategyKind::Algorithm1);
        // Re-selecting the active strategy is a no-op.
        pp.configure_strategy(StrategyKind::Algorithm1);
        assert_eq!(pp.strategy_kind(), StrategyKind::Algorithm1);
        // Selecting another strategy swaps it in and sticks through reset.
        pp.configure_strategy(StrategyKind::SpecCompliance);
        assert_eq!(pp.strategy_kind(), StrategyKind::SpecCompliance);
        assert_eq!(pp.config().strategy, StrategyKind::SpecCompliance);
        pp.reset();
        assert_eq!(pp.strategy_kind(), StrategyKind::SpecCompliance);
    }

    #[test]
    fn watchdog_bounds_time_in_recovery_and_latches_degraded() {
        let base = tiny_pidpiper();
        let ffc = base.ffc().clone();
        let mut config = *base.config();
        // Impossible exit gates: recovery can never hand control back, so
        // without the watchdog it would run forever.
        config.consistency.pos_gap = 1e-12;
        config.max_recovery_steps = 40;
        let mut pp = PidPiper::new(ffc, config);
        let est = EstimatedState::default();
        let readings = SensorReadings::default();
        let target = TargetState::default();
        for i in 0..30 {
            let pid = pp.last_ml_signal().unwrap_or_default();
            pp.observe(&ctx_with(&est, &readings, &target, pid, i as f64 * 0.01));
        }
        let base_sig = pp.last_ml_signal().expect("warmed up");
        let attack_pid = ActuatorSignal {
            roll: base_sig.roll + 0.5,
            ..base_sig
        };
        let mut recovery_steps = 0;
        for i in 0..500 {
            let out = pp.observe(&ctx_with(&est, &readings, &target, attack_pid, 1.0 + i as f64 * 0.01));
            if pp.in_recovery() {
                recovery_steps += 1;
            }
            if pp.is_degraded() {
                // The fail-safe still flies the banded override.
                assert!(out.is_some(), "degraded must hold the override");
                break;
            }
        }
        assert!(pp.is_degraded(), "watchdog must force Degraded");
        assert_eq!(pp.health_state(), HealthState::Degraded);
        assert!(!pp.in_recovery(), "Degraded is not recovery");
        assert!(
            recovery_steps <= config.max_recovery_steps + 1,
            "time in recovery ({recovery_steps}) must be bounded by the budget"
        );
        // Degraded is latched: many quiet steps later it still holds.
        for i in 0..100 {
            let ml = pp.last_ml_signal().unwrap_or_default();
            pp.observe(&ctx_with(&est, &readings, &target, ml, 10.0 + i as f64 * 0.01));
        }
        assert_eq!(pp.health_state(), HealthState::Degraded);
        // ...and reset clears it.
        pp.reset();
        assert_eq!(pp.health_state(), HealthState::Nominal);
        assert!(!pp.is_degraded());
    }

    #[test]
    fn non_finite_sensor_flood_is_contained_without_panic() {
        // The runner's guard normally blocks non-finite readings; this
        // exercises the defense-in-depth layers inside the defense itself
        // (sanitizer hold-last-good + FFC health check + saturated CUSUM).
        let mut pp = tiny_pidpiper();
        let est = EstimatedState::default();
        let good = SensorReadings::default();
        let target = TargetState::default();
        for i in 0..30 {
            let pid = pp.last_ml_signal().unwrap_or_default();
            pp.observe(&ctx_with(&est, &good, &target, pid, i as f64 * 0.01));
        }
        let bad = SensorReadings {
            gps_position: pidpiper_math::Vec3::splat(f64::NAN),
            gps_velocity: pidpiper_math::Vec3::splat(f64::NAN),
            baro_altitude: f64::NAN,
            gyro: pidpiper_math::Vec3::splat(f64::NAN),
            accel: pidpiper_math::Vec3::splat(f64::NAN),
            mag_heading: f64::NAN,
        };
        for i in 0..200 {
            let pid = pp.last_ml_signal().unwrap_or_default();
            let out = pp.observe(&ctx_with(&est, &bad, &target, pid, 1.0 + i as f64 * 0.01));
            // A non-finite signal must never be flown.
            if let Some(y) = out {
                assert!(
                    y.roll.is_finite()
                        && y.pitch.is_finite()
                        && y.yaw_rate.is_finite()
                        && y.thrust.is_finite()
                );
            }
            assert!(pp.monitor_level().statistic.is_finite());
        }
        if let Some(s) = pp.sanitized_estimate() {
            assert!(s.position.is_finite(), "sanitized estimate poisoned");
        }
    }
}

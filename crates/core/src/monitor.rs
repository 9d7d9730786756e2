//! The monitoring module: lag-tolerant per-axis CUSUM of `|y_ML - y_PID|`.
//!
//! Implements the statistic of the paper's Algorithm 1:
//! `S(t+1) = S(t) + |y_ML(t) - y_PID(t)| - b(t)` with `S(0) = 0` and drift
//! `b(t) > 0`, per monitored axis. Because the ML model's predictions lag
//! the PID by a small, variable latency (the reason the paper aligns the
//! series with dynamic time warping during calibration), the runtime
//! residual is *lag-tolerant*: each axis's residual is the minimum
//! distance between the current PID value and any ML prediction in the
//! recent history window — a transient the model reproduces a few steps
//! late contributes nothing, while a genuine divergence cannot be
//! explained by any recent prediction.
//!
//! Monitored axes are roll, pitch and yaw-rate (Table I), plus the thrust
//! channel (an extension: the actuator signal's fourth channel, which is
//! where altitude-directed GPS spoofing surfaces).

use pidpiper_control::ActuatorSignal;
use pidpiper_math::{rad_to_deg, Cusum};
use std::collections::VecDeque;

/// Number of monitored channels (roll, pitch, yaw-rate, thrust).
pub const MONITOR_AXES: usize = 4;

/// Per-axis detection thresholds: degrees for the angular channels,
/// percent of full thrust for the thrust channel.
///
/// A `None` axis is unmonitored, matching Table I's '-' entries for rover
/// roll/pitch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AxisThresholds {
    /// Roll threshold (degrees), if monitored.
    pub roll: Option<f64>,
    /// Pitch threshold (degrees), if monitored.
    pub pitch: Option<f64>,
    /// Yaw / yaw-rate threshold (degrees), if monitored.
    pub yaw: Option<f64>,
    /// Thrust threshold (percent of full scale), if monitored.
    pub thrust: Option<f64>,
}

impl AxisThresholds {
    /// Thresholds for a quadcopter's angular axes (thrust unmonitored).
    pub fn quad(roll: f64, pitch: f64, yaw: f64) -> Self {
        AxisThresholds {
            roll: Some(roll),
            pitch: Some(pitch),
            yaw: Some(yaw),
            thrust: None,
        }
    }

    /// Thresholds for a rover (yaw only, per Table I).
    pub fn rover(yaw: f64) -> Self {
        AxisThresholds {
            roll: None,
            pitch: None,
            yaw: Some(yaw),
            thrust: None,
        }
    }

    /// Adds a thrust-channel threshold (percent of full scale).
    pub fn with_thrust(mut self, tau: f64) -> Self {
        self.thrust = Some(tau);
        self
    }

    /// The largest configured threshold (used as the stealthy-attack
    /// oracle's scalar view).
    pub fn max_threshold(&self) -> f64 {
        self.to_array()
            .into_iter()
            .flatten()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// As an array `[roll, pitch, yaw, thrust]`.
    pub fn to_array(&self) -> [Option<f64>; MONITOR_AXES] {
        [self.roll, self.pitch, self.yaw, self.thrust]
    }
}

/// Lag-tolerant residual between the ML prediction stream and the PID
/// signal: per axis, the minimum absolute difference between the current
/// PID value and any of the last `history` ML predictions.
///
/// Units: degrees for roll/pitch/yaw-rate, percent for thrust.
#[derive(Debug, Clone)]
pub struct LagTolerantResidual {
    history: usize,
    ml_buffer: VecDeque<[f64; MONITOR_AXES]>,
    pid_buffer: VecDeque<[f64; MONITOR_AXES]>,
}

impl LagTolerantResidual {
    /// Creates a tracker tolerating up to `history` steps of lag in either
    /// direction (the model usually lags the PID, so the current PID value
    /// matches a *future* ML value — equivalently, the current ML value
    /// matches a *recent* PID value).
    ///
    /// # Panics
    ///
    /// Panics if `history` is zero.
    pub fn new(history: usize) -> Self {
        assert!(history > 0, "history must be positive");
        LagTolerantResidual {
            history,
            ml_buffer: VecDeque::with_capacity(history),
            pid_buffer: VecDeque::with_capacity(history),
        }
    }

    fn channels(y: &ActuatorSignal) -> [f64; MONITOR_AXES] {
        [
            rad_to_deg(y.roll),
            rad_to_deg(y.pitch),
            rad_to_deg(y.yaw_rate),
            y.thrust * 100.0,
        ]
    }

    /// Pushes this step's signals and returns the per-axis symmetric
    /// lag-tolerant residual: the smaller of (current PID vs recent ML)
    /// and (current ML vs recent PID) per axis.
    pub fn update(&mut self, ml: &ActuatorSignal, pid: &ActuatorSignal) -> [f64; MONITOR_AXES] {
        let ml_ch = Self::channels(ml);
        let pid_ch = Self::channels(pid);
        if self.ml_buffer.len() == self.history {
            self.ml_buffer.pop_front();
        }
        self.ml_buffer.push_back(ml_ch);
        if self.pid_buffer.len() == self.history {
            self.pid_buffer.pop_front();
        }
        self.pid_buffer.push_back(pid_ch);

        // Until the buffers span the full lag-tolerance horizon there is
        // no way to distinguish lag from divergence; report zero residual
        // (monitoring effectively starts `history` steps in).
        if self.ml_buffer.len() < self.history {
            return [0.0; MONITOR_AXES];
        }

        let mut residual = [f64::INFINITY; MONITOR_AXES];
        for past_ml in &self.ml_buffer {
            for axis in 0..MONITOR_AXES {
                residual[axis] = residual[axis].min((pid_ch[axis] - past_ml[axis]).abs());
            }
        }
        for past_pid in &self.pid_buffer {
            for axis in 0..MONITOR_AXES {
                residual[axis] = residual[axis].min((ml_ch[axis] - past_pid[axis]).abs());
            }
        }
        residual
    }

    /// Clears the history.
    pub fn reset(&mut self) {
        self.ml_buffer.clear();
        self.pid_buffer.clear();
    }
}

/// Per-axis CUSUM monitor over lag-tolerant actuator-signal residuals.
///
/// # Examples
///
/// ```
/// use pidpiper_core::monitor::{AxisThresholds, CusumMonitor};
/// use pidpiper_control::ActuatorSignal;
///
/// let mut m = CusumMonitor::new(AxisThresholds::quad(18.0, 18.0, 18.6), 0.5);
/// let pid = ActuatorSignal { roll: 0.3, ..Default::default() }; // ~17 deg
/// let ml = ActuatorSignal::default();
/// let mut detected = false;
/// // Past the lag-tolerance warmup, the systematic residual accumulates.
/// for _ in 0..40 {
///     detected |= m.update(&ml, &pid);
/// }
/// assert!(detected, "systematic 17-degree residual must accumulate past 18");
/// ```
#[derive(Debug, Clone)]
pub struct CusumMonitor {
    thresholds: AxisThresholds,
    drifts: [f64; MONITOR_AXES],
    cusums: [Cusum; MONITOR_AXES],
    residual_tracker: LagTolerantResidual,
    last_residuals: [f64; MONITOR_AXES],
    /// Optional statistic saturation: each monitored axis's `S(t)` is
    /// clamped to `factor * tau`, and a non-finite residual counts as
    /// maximal evidence instead of poisoning the accumulator.
    saturation: Option<f64>,
}

impl CusumMonitor {
    /// Default lag tolerance (control steps).
    pub const DEFAULT_LAG_HISTORY: usize = 12;

    /// Creates a monitor with per-axis thresholds and a shared CUSUM drift
    /// `b` (units per step) applied to every axis.
    ///
    /// # Panics
    ///
    /// Panics if `drift` is not strictly positive.
    pub fn new(thresholds: AxisThresholds, drift: f64) -> Self {
        Self::with_drifts(thresholds, [drift; MONITOR_AXES])
    }

    /// Creates a monitor with per-axis drifts (degrees/step for the
    /// angular channels, percent/step for thrust) — each axis's drift is
    /// calibrated to its own benign-residual ceiling.
    ///
    /// # Panics
    ///
    /// Panics if any drift is not strictly positive.
    pub fn with_drifts(thresholds: AxisThresholds, drifts: [f64; MONITOR_AXES]) -> Self {
        Self::with_drifts_and_lag(thresholds, drifts, Self::DEFAULT_LAG_HISTORY)
    }

    /// Creates a monitor with per-axis drifts and an explicit lag-tolerance
    /// horizon (rovers use a wider horizon: yaw-rate commands flip sharply
    /// at waypoint switches).
    ///
    /// # Panics
    ///
    /// Panics if any drift is not strictly positive or `lag_history` is 0.
    pub fn with_drifts_and_lag(
        thresholds: AxisThresholds,
        drifts: [f64; MONITOR_AXES],
        lag_history: usize,
    ) -> Self {
        CusumMonitor {
            thresholds,
            cusums: [
                Cusum::new(drifts[0]),
                Cusum::new(drifts[1]),
                Cusum::new(drifts[2]),
                Cusum::new(drifts[3]),
            ],
            drifts,
            residual_tracker: LagTolerantResidual::new(lag_history),
            last_residuals: [0.0; MONITOR_AXES],
            saturation: None,
        }
    }

    /// Enables statistic saturation (builder style): each monitored
    /// axis's `S(t)` is clamped to `factor` times its own threshold.
    /// Saturation keeps a long benign divergence (or an injected fault)
    /// from winding the accumulator up arbitrarily — detection fires at
    /// `tau` either way, but the reset/exit path never has to wait out an
    /// unbounded de-accumulation, and a non-finite residual saturates the
    /// axis instead of poisoning it.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not greater than 1 (the cap must lie above
    /// the detection threshold).
    pub fn with_saturation(mut self, factor: f64) -> Self {
        assert!(factor > 1.0, "saturation factor must exceed 1");
        self.saturation = Some(factor);
        self
    }

    /// The configured thresholds.
    pub fn thresholds(&self) -> &AxisThresholds {
        &self.thresholds
    }

    /// The per-axis CUSUM drifts.
    pub fn drifts(&self) -> [f64; MONITOR_AXES] {
        self.drifts
    }

    /// `true` when every monitored axis's current residual is below
    /// `factor` times its own drift — the Algorithm 1 recovery-exit
    /// condition (`factor = 1`) or its relaxed variant used when the raw
    /// sensors already agree with the sanitized estimate.
    pub fn residuals_below_drift(&self, factor: f64) -> bool {
        let thr = self.thresholds.to_array();
        (0..MONITOR_AXES)
            .filter(|&a| thr[a].is_some())
            .all(|a| self.last_residuals[a] < factor * self.drifts[a])
    }

    /// The largest *normalized* statistic across monitored axes
    /// (statistic divided by that axis's threshold; 1.0 = detection).
    pub fn normalized_statistic(&self) -> f64 {
        let thr = self.thresholds.to_array();
        (0..MONITOR_AXES)
            .filter_map(|a| thr[a].map(|tau| self.cusums[a].statistic() / tau))
            .fold(0.0, f64::max)
    }

    /// Feeds one step's ML prediction and PID signal; returns `true` when
    /// any monitored axis's CUSUM exceeds its threshold.
    pub fn update(&mut self, ml: &ActuatorSignal, pid: &ActuatorSignal) -> bool {
        let mut residual = self.residual_tracker.update(ml, pid);
        let thr = self.thresholds.to_array();
        let mut tripped = false;
        for axis in 0..MONITOR_AXES {
            let cap = self
                .saturation
                .and_then(|factor| thr[axis].map(|tau| factor * tau));
            if !residual[axis].is_finite() {
                // Non-finite evidence: under saturation it counts as
                // maximal divergence (the statistic jumps to the cap);
                // without a cap it is dropped — either way NaN/Inf never
                // enters the accumulator.
                residual[axis] = cap.map_or(0.0, |c| c + self.drifts[axis]);
            }
            let s = self.cusums[axis].update(residual[axis]);
            if let Some(cap) = cap {
                self.cusums[axis].saturate(cap);
            }
            if let Some(tau) = thr[axis] {
                if s > tau {
                    tripped = true;
                }
            }
        }
        self.last_residuals = residual;
        tripped
    }

    /// The lag-tolerant residuals from the most recent update.
    pub fn last_residuals(&self) -> [f64; MONITOR_AXES] {
        self.last_residuals
    }

    /// The largest statistic across monitored axes.
    pub fn statistic(&self) -> f64 {
        let thr = self.thresholds.to_array();
        (0..MONITOR_AXES)
            .filter(|&a| thr[a].is_some())
            .map(|a| self.cusums[a].statistic())
            .fold(0.0, f64::max)
    }

    /// The per-axis statistics `[roll, pitch, yaw, thrust]`.
    pub fn statistics(&self) -> [f64; MONITOR_AXES] {
        [
            self.cusums[0].statistic(),
            self.cusums[1].statistic(),
            self.cusums[2].statistic(),
            self.cusums[3].statistic(),
        ]
    }

    /// Resets all statistics (Algorithm 1 resets `S` on detection). The
    /// lag-tolerance history is preserved — only the accumulators clear.
    pub fn reset(&mut self) {
        for c in &mut self.cusums {
            c.reset();
        }
    }

    /// Full reset including the residual history (between missions).
    pub fn reset_all(&mut self) {
        self.reset();
        self.residual_tracker.reset();
        self.last_residuals = [0.0; MONITOR_AXES];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deg(d: f64) -> f64 {
        d.to_radians()
    }

    #[test]
    fn transient_noise_never_trips() {
        let mut m = CusumMonitor::new(AxisThresholds::quad(18.0, 18.0, 18.0), 0.5);
        for i in 0..10_000 {
            let pid = ActuatorSignal {
                roll: deg(0.3) * ((i as f64) * 0.1).sin(),
                ..Default::default()
            };
            let ml = ActuatorSignal::default();
            assert!(!m.update(&ml, &pid), "tripped on noise at step {i}");
        }
        assert!(m.statistic() < 1.0);
    }

    #[test]
    fn systematic_divergence_trips() {
        let mut m = CusumMonitor::new(AxisThresholds::quad(18.0, 18.0, 18.0), 0.5);
        let pid = ActuatorSignal {
            pitch: deg(5.0),
            ..Default::default()
        };
        let ml = ActuatorSignal::default();
        let mut tripped_at = None;
        for i in 0..100 {
            if m.update(&ml, &pid) {
                tripped_at = Some(i);
                break;
            }
        }
        // The symmetric lag tolerance excuses the divergence for up to
        // `history` steps (the pre-jump PID values still in the buffer),
        // after which 4.5 deg/step accumulates to 18 within 4 steps.
        let t = tripped_at.expect("must trip");
        assert!(
            (4..=2 * CusumMonitor::DEFAULT_LAG_HISTORY + 8).contains(&t),
            "tripped at {t}"
        );
    }

    #[test]
    fn lag_tolerance_forgives_delayed_predictions() {
        // The ML reproduces the PID exactly but 8 steps late: the
        // lag-tolerant residual stays ~0 and the monitor is silent, where
        // a naive pointwise monitor would accumulate heavily.
        let mut m = CusumMonitor::new(AxisThresholds::quad(18.0, 18.0, 18.0), 0.5);
        let signal = |i: i64| deg(15.0) * ((i as f64) * 0.12).sin();
        for i in 0..2000 {
            let pid = ActuatorSignal {
                roll: signal(i),
                ..Default::default()
            };
            let ml = ActuatorSignal {
                roll: signal(i - 8),
                ..Default::default()
            };
            assert!(!m.update(&ml, &pid), "lagged model tripped at step {i}");
        }
    }

    #[test]
    fn lag_tolerance_does_not_forgive_divergence() {
        // A constant offset cannot be explained by any recent prediction.
        let mut m = CusumMonitor::new(AxisThresholds::quad(18.0, 18.0, 18.0), 0.5);
        let mut tripped = false;
        for i in 0..80 {
            let pid = ActuatorSignal {
                roll: deg(10.0) + deg(2.0) * ((i as f64) * 0.1).sin(),
                ..Default::default()
            };
            let ml = ActuatorSignal {
                roll: deg(2.0) * ((i as f64) * 0.1).sin(),
                ..Default::default()
            };
            tripped |= m.update(&ml, &pid);
        }
        assert!(tripped, "systematic divergence must trip despite lag tolerance");
    }

    #[test]
    fn thrust_channel_detects_altitude_divergence() {
        let thr = AxisThresholds::quad(18.0, 18.0, 18.0).with_thrust(30.0);
        let mut m = CusumMonitor::new(thr, 0.5);
        // PID cuts thrust (descending into the spoofed altitude) while the
        // ML holds hover thrust; angles agree.
        let pid = ActuatorSignal {
            thrust: 0.25,
            ..Default::default()
        };
        let ml = ActuatorSignal {
            thrust: 0.5,
            ..Default::default()
        };
        let mut tripped = false;
        for _ in 0..40 {
            tripped |= m.update(&ml, &pid);
        }
        assert!(tripped, "25 % thrust divergence must trip the thrust axis");
    }

    #[test]
    fn rover_ignores_roll_pitch() {
        let mut m = CusumMonitor::new(AxisThresholds::rover(20.0), 0.5);
        let pid = ActuatorSignal {
            roll: deg(45.0),
            pitch: deg(45.0),
            ..Default::default()
        };
        let ml = ActuatorSignal::default();
        for _ in 0..50 {
            assert!(!m.update(&ml, &pid), "rover must ignore roll/pitch");
        }
        // But yaw-rate divergence trips (allowing the lag-tolerance
        // horizon to pass first).
        let pid_yaw = ActuatorSignal {
            yaw_rate: deg(8.0),
            ..Default::default()
        };
        let mut tripped = false;
        for _ in 0..40 {
            tripped |= m.update(&ml, &pid_yaw);
        }
        assert!(tripped);
    }

    #[test]
    fn statistic_reports_max_monitored_axis() {
        let mut m = CusumMonitor::new(AxisThresholds::quad(18.0, 18.0, 18.0), 0.1);
        let pid = ActuatorSignal {
            roll: deg(2.0),
            pitch: deg(5.0),
            ..Default::default()
        };
        // Run past the lag-tolerance warmup so residuals register.
        for _ in 0..2 * CusumMonitor::DEFAULT_LAG_HISTORY {
            m.update(&ActuatorSignal::default(), &pid);
        }
        let stats = m.statistics();
        assert!(stats[1] > stats[0]);
        assert_eq!(m.statistic(), stats[1]);
    }

    #[test]
    fn reset_zeroes_statistics_but_keeps_history() {
        let mut m = CusumMonitor::new(AxisThresholds::quad(18.0, 18.0, 18.0), 0.5);
        let pid = ActuatorSignal {
            roll: deg(10.0),
            ..Default::default()
        };
        for _ in 0..3 * CusumMonitor::DEFAULT_LAG_HISTORY {
            m.update(&ActuatorSignal::default(), &pid);
        }
        assert!(m.statistic() > 0.0);
        m.reset();
        assert_eq!(m.statistic(), 0.0);
        m.reset_all();
        assert_eq!(m.last_residuals(), [0.0; MONITOR_AXES]);
    }

    #[test]
    fn saturation_caps_statistic_at_factor_times_threshold() {
        let mut m =
            CusumMonitor::new(AxisThresholds::quad(18.0, 18.0, 18.0), 0.5).with_saturation(2.0);
        let pid = ActuatorSignal {
            roll: deg(30.0),
            ..Default::default()
        };
        // A huge sustained divergence would wind an unsaturated CUSUM into
        // the thousands; the cap holds it at 2 * 18 = 36.
        for _ in 0..500 {
            m.update(&ActuatorSignal::default(), &pid);
        }
        assert!(m.statistic() <= 36.0 + 1e-12, "statistic {}", m.statistic());
        assert!(m.statistic() > 18.0, "still above detection threshold");
    }

    #[test]
    fn non_finite_residual_saturates_instead_of_poisoning() {
        let mut m =
            CusumMonitor::new(AxisThresholds::quad(18.0, 18.0, 18.0), 0.5).with_saturation(2.0);
        let nan_ml = ActuatorSignal {
            roll: f64::NAN,
            pitch: f64::NAN,
            yaw_rate: f64::NAN,
            thrust: f64::NAN,
        };
        let mut tripped = false;
        for _ in 0..2 * CusumMonitor::DEFAULT_LAG_HISTORY {
            tripped |= m.update(&nan_ml, &ActuatorSignal::default());
        }
        assert!(m.statistic().is_finite(), "statistic must stay finite");
        assert!(tripped, "saturated evidence still trips detection");
        // After the burst the monitor keeps working normally.
        let mut quiet = true;
        m.reset_all();
        for _ in 0..50 {
            quiet &= !m.update(&ActuatorSignal::default(), &ActuatorSignal::default());
        }
        assert!(quiet, "recovered monitor must not trip on agreement");
    }

    #[test]
    fn unsaturated_monitor_drops_non_finite_residuals() {
        let mut m = CusumMonitor::new(AxisThresholds::quad(18.0, 18.0, 18.0), 0.5);
        let nan_ml = ActuatorSignal {
            roll: f64::NAN,
            ..Default::default()
        };
        for _ in 0..60 {
            m.update(&nan_ml, &ActuatorSignal::default());
        }
        assert_eq!(m.statistic(), 0.0, "dropped evidence, not poisoned");
    }

    #[test]
    #[should_panic(expected = "saturation factor")]
    fn saturation_factor_must_exceed_one() {
        let _ = CusumMonitor::new(AxisThresholds::quad(18.0, 18.0, 18.0), 0.5).with_saturation(1.0);
    }

    #[test]
    fn max_threshold_helper() {
        assert_eq!(AxisThresholds::quad(18.0, 19.0, 17.0).max_threshold(), 19.0);
        assert_eq!(AxisThresholds::rover(21.25).max_threshold(), 21.25);
        assert_eq!(
            AxisThresholds::quad(18.0, 18.0, 18.0)
                .with_thrust(40.0)
                .max_threshold(),
            40.0
        );
    }
}

//! The PID primitive used by every loop of the cascaded controller.
//!
//! Besides the textbook proportional/integral/derivative terms, the
//! implementation carries the two behaviours the paper's Section III study
//! hinges on:
//!
//! - **integral accumulation under systematic error** — attacks inject
//!   errors systematically (not transiently), so the integral term keeps
//!   compensating, which is the over-compensation mechanism the paper
//!   measures (Figure 2c/2d);
//! - an **effective-gain telemetry** ([`Pid::effective_p`]) exposing the
//!   ratio of output to error, the quantity the paper plots as "P
//!   coefficient adjustment".

/// Configuration for one PID loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidConfig {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    /// Derivative gain.
    pub kd: f64,
    /// Symmetric clamp on the integral term's contribution (anti-windup).
    pub integral_limit: f64,
    /// Symmetric clamp on the total output.
    pub output_limit: f64,
    /// Low-pass coefficient for the derivative (0 = no filtering,
    /// 1 = frozen); typical 0.5.
    pub derivative_filter: f64,
}

impl PidConfig {
    /// Validates gain plausibility.
    ///
    /// # Panics
    ///
    /// Panics if limits are negative or the derivative filter is outside
    /// `[0, 1)`.
    pub fn validate(&self) {
        assert!(self.integral_limit >= 0.0, "integral limit must be >= 0");
        assert!(self.output_limit > 0.0, "output limit must be > 0");
        assert!(
            (0.0..1.0).contains(&self.derivative_filter),
            "derivative filter must be in [0, 1)"
        );
    }
}

impl Default for PidConfig {
    fn default() -> Self {
        PidConfig {
            kp: 1.0,
            ki: 0.0,
            kd: 0.0,
            integral_limit: 1.0,
            output_limit: 1.0,
            derivative_filter: 0.5,
        }
    }
}

/// A single PID loop with anti-windup and derivative filtering.
///
/// # Examples
///
/// ```
/// use pidpiper_control::pid::{Pid, PidConfig};
///
/// let mut pid = Pid::new(PidConfig { kp: 2.0, output_limit: 10.0, ..PidConfig::default() });
/// let out = pid.update(1.5, 0.01);
/// assert!((out - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Pid {
    config: PidConfig,
    integral: f64,
    last_error: Option<f64>,
    last_derivative: f64,
    last_output: f64,
    last_effective_p: f64,
}

impl Pid {
    /// Creates a PID loop from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`PidConfig::validate`].
    pub fn new(config: PidConfig) -> Self {
        config.validate();
        Pid {
            config,
            integral: 0.0,
            last_error: None,
            last_derivative: 0.0,
            last_output: 0.0,
            last_effective_p: config.kp,
        }
    }

    /// The loop configuration.
    #[inline]
    pub fn config(&self) -> &PidConfig {
        &self.config
    }

    /// Advances the loop with the given error and time step, returning the
    /// control output.
    pub fn update(&mut self, error: f64, dt: f64) -> f64 {
        debug_assert!(dt > 0.0, "dt must be positive");
        let c = &self.config;

        self.integral += c.ki * error * dt;
        self.integral = self.integral.clamp(-c.integral_limit, c.integral_limit);

        let raw_derivative = match self.last_error {
            Some(prev) => (error - prev) / dt,
            None => 0.0,
        };
        let f = c.derivative_filter;
        self.last_derivative = f * self.last_derivative + (1.0 - f) * raw_derivative;
        self.last_error = Some(error);

        let out = (c.kp * error + self.integral + c.kd * self.last_derivative)
            .clamp(-c.output_limit, c.output_limit);
        self.last_output = out;
        // Effective gain: how hard the controller is pushing per unit error.
        // This is the "P coefficient" telemetry of the paper's Figure 2c;
        // under a systematic attack the integral inflates it well past kp.
        // Tiny errors make the ratio meaningless, so the telemetry only
        // updates when the error is non-trivial, and is clamped to a
        // plottable range.
        if error.abs() > 0.05 {
            self.last_effective_p = (out / error).clamp(-20.0 * c.kp.abs() - 20.0, 20.0 * c.kp.abs() + 20.0);
        }
        out
    }

    /// The integral term's current accumulated value.
    #[inline]
    pub fn integral(&self) -> f64 {
        self.integral
    }

    /// The most recent output.
    #[inline]
    pub fn last_output(&self) -> f64 {
        self.last_output
    }

    /// Effective proportional gain (output / error) at the last update —
    /// the paper's "P coefficient adjustment" telemetry (Figure 2c).
    #[inline]
    pub fn effective_p(&self) -> f64 {
        self.last_effective_p
    }

    /// Resets integral and derivative state.
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.last_error = None;
        self.last_derivative = 0.0;
        self.last_output = 0.0;
        self.last_effective_p = self.config.kp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(kp: f64, ki: f64, kd: f64) -> Pid {
        Pid::new(PidConfig {
            kp,
            ki,
            kd,
            integral_limit: 5.0,
            output_limit: 100.0,
            derivative_filter: 0.0,
        })
    }

    #[test]
    fn proportional_term() {
        let mut p = pid(3.0, 0.0, 0.0);
        assert_eq!(p.update(2.0, 0.01), 6.0);
        assert_eq!(p.update(-1.0, 0.01), -3.0);
    }

    #[test]
    fn integral_accumulates_under_systematic_error() {
        let mut p = pid(0.0, 1.0, 0.0);
        let mut out = 0.0;
        for _ in 0..100 {
            out = p.update(1.0, 0.01);
        }
        assert!((out - 1.0).abs() < 1e-9, "integral of 1 over 1 s = 1, got {out}");
    }

    #[test]
    fn integral_clamped_by_anti_windup() {
        let mut p = Pid::new(PidConfig {
            kp: 0.0,
            ki: 10.0,
            kd: 0.0,
            integral_limit: 0.5,
            output_limit: 100.0,
            derivative_filter: 0.0,
        });
        for _ in 0..1000 {
            p.update(10.0, 0.01);
        }
        assert!(p.integral() <= 0.5 + 1e-12);
    }

    #[test]
    fn derivative_reacts_to_change() {
        let mut p = pid(0.0, 0.0, 1.0);
        p.update(0.0, 0.01);
        let out = p.update(0.1, 0.01); // de/dt = 10
        assert!((out - 10.0).abs() < 1e-9);
    }

    #[test]
    fn first_step_has_no_derivative_kick() {
        let mut p = pid(0.0, 0.0, 5.0);
        assert_eq!(p.update(100.0, 0.01), 0.0);
    }

    #[test]
    fn output_is_clamped() {
        let mut p = Pid::new(PidConfig {
            kp: 1000.0,
            output_limit: 2.0,
            ..PidConfig::default()
        });
        assert_eq!(p.update(10.0, 0.01), 2.0);
        assert_eq!(p.update(-10.0, 0.01), -2.0);
    }

    #[test]
    fn effective_p_inflates_under_persistent_error() {
        // The over-compensation mechanism: with ki > 0, a persistent error
        // drives the effective gain above kp (paper Fig. 2c).
        let mut p = pid(4.0, 2.0, 0.0);
        p.update(0.2, 0.01);
        let early = p.effective_p();
        for _ in 0..500 {
            p.update(0.2, 0.01);
        }
        let late = p.effective_p();
        assert!((early - 4.0).abs() < 0.5, "early effective P {early}");
        assert!(late > 6.0, "late effective P {late} should inflate past kp");
    }

    #[test]
    fn reset_restores_initial_conditions() {
        let mut p = pid(1.0, 1.0, 1.0);
        for _ in 0..50 {
            p.update(3.0, 0.01);
        }
        p.reset();
        assert_eq!(p.integral(), 0.0);
        assert_eq!(p.last_output(), 0.0);
        assert_eq!(p.effective_p(), 1.0);
    }

    #[test]
    #[should_panic(expected = "output limit")]
    fn invalid_config_rejected() {
        let _ = Pid::new(PidConfig {
            output_limit: 0.0,
            ..PidConfig::default()
        });
    }
}

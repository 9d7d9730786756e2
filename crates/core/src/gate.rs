//! The variance gate: PID-Piper's noise model, made explicit.
//!
//! The paper builds its noise model into the LSTM's first (sigmoid) layer:
//! at each instant the layer compares the present input `x(t)` with the
//! memory of past inputs `X(k)` and outputs a per-feature weight in
//! `(0, 1)` — near 0 when the variance between history and present is high
//! (an attack-induced jump), near 1 when it is low. We implement the same
//! mechanism as a standalone, testable pipeline stage operating on signal
//! *increments*:
//!
//! ```text
//! dx(t)   = x(t) - x(t-1)
//! g(t)    = sigmoid(kappa * (nu0 - |dx - mean(dX)| / std(dX)))
//! r(t)    = r(t-1) + g*dx + (1-g)*mean(dX) + leak*(x - r)
//! ```
//!
//! Gating increments rather than levels is what lets the reconstruction
//! `r(t)` *remove a bias injection entirely*: the spoofed step is one huge
//! outlier increment (rejected), while every subsequent increment of the
//! attacked stream equals the true increment (the bias is constant), so
//! `r` keeps tracking the genuine signal through the whole attack — and
//! the equally large step when the attack ends is rejected symmetrically.
//! A small `leak` bounds long-horizon drift between `r` and the raw
//! signal.

use pidpiper_math::{wrap_angle, RollingWindow};

/// Gate tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateConfig {
    /// Rolling-window length `k` over increments (samples).
    pub window: usize,
    /// Deviation (in window standard deviations of the increment) at which
    /// the gate is at its half-way point.
    pub nu0: f64,
    /// Sigmoid steepness.
    pub kappa: f64,
    /// Gate floor: minimum pass-through fraction of an increment.
    pub g_min: f64,
    /// Minimum window fill before gating engages (pass-through below).
    pub min_fill: usize,
    /// Per-step leak of the reconstruction towards the raw signal,
    /// bounding drift (fraction per step; e.g. `2e-4`).
    pub leak: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            window: 80,
            nu0: 6.0,
            kappa: 1.2,
            g_min: 0.05,
            min_fill: 25,
            leak: 2e-4,
        }
    }
}

impl GateConfig {
    /// Checks parameter sanity.
    ///
    /// # Errors
    ///
    /// Names the first violation: a zero window, non-positive
    /// `nu0`/`kappa`, `g_min` outside `(0, 1)`, a `min_fill` beyond the
    /// window, or a leak outside `[0, 0.1)`.
    pub fn check(&self) -> Result<(), &'static str> {
        first_violation(&[
            (self.window > 0, "window must be positive"),
            (self.nu0 > 0.0, "nu0 must be positive"),
            (self.kappa > 0.0, "kappa must be positive"),
            (self.g_min > 0.0 && self.g_min < 1.0, "g_min must be in (0, 1)"),
            (self.min_fill <= self.window, "min_fill must fit the window"),
            (self.leak >= 0.0 && self.leak < 0.1, "leak must be in [0, 0.1)"),
        ])
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics on any violation [`GateConfig::check`] names.
    pub fn validate(&self) {
        let checked = self.check();
        assert!(checked.is_ok(), "{}", checked.err().unwrap_or_default());
    }
}

/// The message of the first rule that does not hold, in order.
pub(crate) fn first_violation(rules: &[(bool, &'static str)]) -> Result<(), &'static str> {
    match rules.iter().find(|(holds, _)| !holds) {
        Some(&(_, violation)) => Err(violation),
        None => Ok(()),
    }
}

/// A per-feature increment gate over a fixed-dimension signal vector.
///
/// # Examples
///
/// ```
/// use pidpiper_core::gate::{GateConfig, VarianceGate};
///
/// let mut gate = VarianceGate::new(1, GateConfig::default(), &[0.1], &[false]);
/// // Feed smooth data; the gate passes it through nearly unchanged.
/// let mut last = 0.0;
/// for i in 0..200 {
///     last = (i as f64) * 0.01;
///     let y = gate.filter(&[last]);
///     assert!((y[0] - last).abs() < 0.05);
/// }
/// // A spoofed 25-unit step is rejected: the output keeps tracking the
/// // pre-attack trajectory.
/// let y = gate.filter(&[last + 25.0]);
/// assert!(y[0] < last + 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct VarianceGate {
    config: GateConfig,
    windows: Vec<RollingWindow>,
    /// Per-feature noise floor for the increment standard deviation.
    sigma_floor: Vec<f64>,
    /// Which features live on a circle (headings): increments are wrapped.
    circular: Vec<bool>,
    /// The previous raw sample; meaningful only once `primed`.
    last_raw: Vec<f64>,
    /// Whether `last_raw` and `recon` hold a sample yet.
    primed: bool,
    recon: Vec<f64>,
    last_gains: Vec<f64>,
}

impl VarianceGate {
    /// Creates a gate over `dim` features.
    ///
    /// - `sigma_floor`: each feature's minimum assumed per-step increment
    ///   noise (broadcast if a single element);
    /// - `circular`: marks angular features whose increments must be
    ///   wrapped into `(-pi, pi]` (broadcast if a single element).
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`, the config is invalid, or slice lengths match
    /// neither 1 nor `dim`.
    pub fn new(dim: usize, config: GateConfig, sigma_floor: &[f64], circular: &[bool]) -> Self {
        assert!(dim > 0, "gate dimension must be positive");
        config.validate();
        let broadcast_f = |s: &[f64]| -> Vec<f64> {
            assert!(
                s.len() == 1 || s.len() == dim,
                "slice length {} matches neither 1 nor dim {dim}",
                s.len()
            );
            if s.len() == 1 {
                vec![s[0]; dim]
            } else {
                s.to_vec()
            }
        };
        let floors = broadcast_f(sigma_floor);
        assert!(
            floors.iter().all(|f| *f > 0.0),
            "sigma floors must be positive"
        );
        assert!(
            circular.len() == 1 || circular.len() == dim,
            "circular mask length {} matches neither 1 nor dim {dim}",
            circular.len()
        );
        let circ = if circular.len() == 1 {
            vec![circular[0]; dim]
        } else {
            circular.to_vec()
        };
        VarianceGate {
            windows: (0..dim).map(|_| RollingWindow::new(config.window)).collect(),
            config,
            sigma_floor: floors,
            circular: circ,
            last_raw: vec![0.0; dim],
            primed: false,
            recon: vec![0.0; dim],
            last_gains: vec![1.0; dim],
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.windows.len()
    }

    /// The per-feature gate values from the most recent
    /// [`VarianceGate::filter`] call (1 = increment passed, near 0 =
    /// increment rejected).
    pub fn last_gains(&self) -> &[f64] {
        &self.last_gains
    }

    /// Filters one signal vector, returning the reconstructed (sanitized)
    /// version. Allocation-free: the result borrows the gate's own
    /// reconstruction buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn filter(&mut self, x: &[f64]) -> &[f64] {
        assert_eq!(x.len(), self.dim(), "feature dimension mismatch");
        let c = self.config;
        if !self.primed {
            self.primed = true;
            self.last_raw.copy_from_slice(x);
            self.recon.copy_from_slice(x);
            return &self.recon;
        }

        let last = &self.last_raw;
        for i in 0..x.len() {
            let mut dx = x[i] - last[i];
            if self.circular[i] {
                dx = wrap_angle(dx);
            }
            let w = &mut self.windows[i];
            let g = if w.len() < c.min_fill {
                1.0
            } else {
                let sigma = w.std_dev().max(self.sigma_floor[i]);
                let nu = (dx - w.mean()).abs() / sigma;
                sigmoid(c.kappa * (c.nu0 - nu)).max(c.g_min)
            };
            let d_used = g * dx + (1.0 - g) * w.mean();
            // Accepted increments feed the statistics; rejected ones
            // contribute only their blended value, so a spoof step cannot
            // poison the window.
            w.push(d_used);
            self.last_gains[i] = g;
            let mut err = x[i] - self.recon[i];
            if self.circular[i] {
                err = wrap_angle(err);
            }
            self.recon[i] += d_used + c.leak * err;
            if self.circular[i] {
                self.recon[i] = wrap_angle(self.recon[i]);
            }
        }
        self.last_raw.copy_from_slice(x);
        &self.recon
    }

    /// Clears all state (between missions).
    pub fn reset(&mut self) {
        for w in &mut self.windows {
            w.clear();
        }
        for g in &mut self.last_gains {
            *g = 1.0;
        }
        self.primed = false;
        self.recon.iter_mut().for_each(|r| *r = 0.0);
    }
}

#[inline]
fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gate1() -> VarianceGate {
        VarianceGate::new(1, GateConfig::default(), &[0.02], &[false])
    }

    /// Feed a noisy sine; returns the final raw value.
    fn feed_smooth(gate: &mut VarianceGate, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut last = 0.0;
        for i in 0..n {
            last = (i as f64 * 0.02).sin() * 2.0 + rng.gen_range(-0.01..0.01);
            gate.filter(&[last]);
        }
        last
    }

    #[test]
    fn smooth_signals_pass_through() {
        let mut gate = gate1();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..500 {
            let x = (i as f64 * 0.02).sin() * 3.0 + rng.gen_range(-0.02..0.02);
            let y = gate.filter(&[x]);
            assert!(
                (y[0] - x).abs() < 0.2,
                "smooth sample {i} distorted: {x} -> {}",
                y[0]
            );
        }
    }

    #[test]
    fn bias_step_is_removed_for_the_whole_attack() {
        let mut gate = gate1();
        feed_smooth(&mut gate, 300, 2);
        // Sustained 25-unit spoof on top of the continuing sine: the
        // reconstruction must keep tracking the *true* signal throughout.
        let mut rng = StdRng::seed_from_u64(3);
        for i in 300..700 {
            let truth = (i as f64 * 0.02).sin() * 2.0 + rng.gen_range(-0.01..0.01);
            let y = gate.filter(&[truth + 25.0]);
            assert!(
                (y[0] - truth).abs() < 4.0,
                "step {i}: recon {} vs truth {truth}",
                y[0]
            );
        }
    }

    #[test]
    fn recovers_cleanly_when_attack_ends() {
        let mut gate = gate1();
        feed_smooth(&mut gate, 300, 4);
        let mut rng = StdRng::seed_from_u64(5);
        for i in 300..600 {
            let truth = (i as f64 * 0.02).sin() * 2.0 + rng.gen_range(-0.01..0.01);
            gate.filter(&[truth + 25.0]);
        }
        // Attack ends: the -25 step is rejected symmetrically and the
        // reconstruction continues tracking truth with no transient.
        for i in 600..800 {
            let truth = (i as f64 * 0.02).sin() * 2.0 + rng.gen_range(-0.01..0.01);
            let y = gate.filter(&[truth]);
            assert!(
                (y[0] - truth).abs() < 4.0,
                "post-attack step {i}: recon {} vs truth {truth}",
                y[0]
            );
        }
    }

    #[test]
    fn leak_bounds_long_term_drift() {
        // With a persistent small mismatch the reconstruction converges to
        // the raw value at the leak rate instead of drifting away forever.
        let cfg = GateConfig {
            leak: 0.01,
            ..GateConfig::default()
        };
        let mut gate = VarianceGate::new(1, cfg, &[0.02], &[false]);
        feed_smooth(&mut gate, 300, 6);
        // Constant raw value with a rejected step in between.
        let mut y = 0.0;
        for _ in 0..2000 {
            y = gate.filter(&[10.0])[0];
        }
        assert!((y - 10.0).abs() < 0.5, "leak failed to converge: {y}");
    }

    #[test]
    fn passthrough_before_min_fill() {
        let mut gate = gate1();
        let y = gate.filter(&[123.0]);
        assert_eq!(y, vec![123.0]);
        // Second sample also passes (window under min_fill).
        let y2 = gate.filter(&[124.0]);
        assert!((y2[0] - 124.0).abs() < 0.01);
        assert_eq!(gate.last_gains(), &[1.0]);
    }

    #[test]
    fn features_gated_independently() {
        let mut gate = VarianceGate::new(2, GateConfig::default(), &[0.02], &[false]);
        let mut rng = StdRng::seed_from_u64(7);
        let mut a = 0.0;
        let mut b = 0.0;
        for i in 0..300 {
            a = (i as f64 * 0.02).sin() + rng.gen_range(-0.01..0.01);
            b = (i as f64 * 0.03).cos() + rng.gen_range(-0.01..0.01);
            gate.filter(&[a, b]);
        }
        let y = gate.filter(&[a + 30.0, b]);
        assert!((y[0] - a).abs() < 3.0, "attacked feature sanitized");
        assert!((y[1] - b).abs() < 0.2, "clean feature untouched");
        assert!(gate.last_gains()[0] < 0.2);
        assert!(gate.last_gains()[1] > 0.8);
    }

    #[test]
    fn circular_feature_wraps_without_rejection() {
        // A heading crossing the +/-pi seam is a legitimate small motion,
        // not an attack.
        let mut gate = VarianceGate::new(1, GateConfig::default(), &[0.01], &[true]);
        let mut h = 3.0;
        for _ in 0..300 {
            h = wrap_angle(h + 0.01);
            let y = gate.filter(&[h]);
            let diff = wrap_angle(y[0] - h);
            assert!(diff.abs() < 0.1, "seam crossing rejected: {} vs {h}", y[0]);
        }
    }

    #[test]
    fn stealthy_ramp_passes_through() {
        // Slow ramps are indistinguishable from genuine drift — the gate
        // (correctly, per the paper's threat model) does not block them;
        // CUSUM monitoring handles them instead.
        let mut gate = gate1();
        feed_smooth(&mut gate, 300, 8);
        let mut bias = 0.0;
        let mut y = 0.0;
        for _ in 0..500 {
            bias += 0.005;
            y = gate.filter(&[bias])[0];
        }
        assert!((y - bias).abs() < 1.0, "slow ramp wrongly rejected");
    }

    #[test]
    fn reset_clears_history() {
        let mut gate = gate1();
        feed_smooth(&mut gate, 300, 9);
        gate.reset();
        let y = gate.filter(&[999.0]);
        assert_eq!(y[0], 999.0, "first post-reset sample initializes recon");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let mut gate = VarianceGate::new(2, GateConfig::default(), &[0.05], &[false]);
        let _ = gate.filter(&[1.0]);
    }
}

//! The Adam optimizer.

use crate::param::Param;

/// Adam optimizer state for a collection of parameters.
///
/// Holds first/second-moment buffers per parameter tensor; call
/// [`Adam::step`] with the same parameter list (same order, same shapes)
/// every iteration.
///
/// # Examples
///
/// ```
/// use pidpiper_ml::{Adam, Param};
///
/// let mut p = Param::constant(1, 1, 5.0);
/// let mut opt = Adam::new(0.1);
/// // Minimize p^2: gradient = 2p.
/// for _ in 0..300 {
///     p.grad[0] = 2.0 * p.value[0];
///     opt.step(&mut [&mut p]);
///     p.zero_grad();
/// }
/// assert!(p.value[0].abs() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    /// Length of each parameter tensor, fixed by the first step.
    lens: Vec<usize>,
    /// First and second moments of every tensor, concatenated in
    /// parameter order.
    m: Vec<f64>,
    v: Vec<f64>,
    grad_clip: f64,
}

impl Adam {
    /// Creates an Adam optimizer with the given learning rate and default
    /// moments (`beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`, gradient
    /// clipping at L2 norm 5).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not strictly positive.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            lens: Vec::new(),
            m: Vec::new(),
            v: Vec::new(),
            grad_clip: 5.0,
        }
    }

    /// Sets the global-norm gradient clip (0 disables clipping).
    pub fn with_grad_clip(mut self, clip: f64) -> Self {
        self.grad_clip = clip;
        self
    }

    /// Applies one Adam update to every parameter, consuming their
    /// accumulated gradients (gradients are *not* cleared; call
    /// [`Param::zero_grad`] afterwards).
    ///
    /// # Panics
    ///
    /// Panics if the parameter list's shapes change between calls.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.t == 0 {
            self.lens = params.iter().map(|p| p.len()).collect();
            let total = self.lens.iter().sum();
            self.m = vec![0.0; total];
            self.v = vec![0.0; total];
        }
        assert_eq!(
            self.lens.len(),
            params.len(),
            "parameter list changed shape"
        );
        self.t += 1;

        // Global-norm gradient clipping.
        let scale = if self.grad_clip > 0.0 {
            let norm: f64 = params
                .iter()
                .flat_map(|p| p.grad.iter())
                .map(|g| g * g)
                .sum::<f64>()
                .sqrt();
            if norm > self.grad_clip {
                self.grad_clip / norm
            } else {
                1.0
            }
        } else {
            1.0
        };

        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let mut base = 0;
        for (i, p) in params.iter_mut().enumerate() {
            assert_eq!(self.lens[i], p.len(), "parameter {i} changed shape");
            let m = &mut self.m[base..base + p.len()];
            let v = &mut self.v[base..base + p.len()];
            base += p.len();
            for j in 0..p.len() {
                let g = p.grad[j] * scale;
                m[j] = self.beta1 * m[j] + (1.0 - self.beta1) * g;
                v[j] = self.beta2 * v[j] + (1.0 - self.beta2) * g * g;
                let m_hat = m[j] / bc1;
                let v_hat = v[j] / bc2;
                p.value[j] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        let mut p = Param::constant(2, 1, 3.0);
        p.value[1] = -4.0;
        let mut opt = Adam::new(0.05);
        for _ in 0..2000 {
            for j in 0..2 {
                p.grad[j] = 2.0 * p.value[j];
            }
            opt.step(&mut [&mut p]);
            p.zero_grad();
        }
        assert!(p.value.iter().all(|v| v.abs() < 0.01), "{:?}", p.value);
    }

    #[test]
    fn handles_multiple_params() {
        let mut a = Param::constant(1, 1, 1.0);
        let mut b = Param::constant(1, 1, -2.0);
        let mut opt = Adam::new(0.05);
        for _ in 0..2000 {
            a.grad[0] = 2.0 * (a.value[0] - 5.0);
            b.grad[0] = 2.0 * (b.value[0] + 1.0);
            opt.step(&mut [&mut a, &mut b]);
            a.zero_grad();
            b.zero_grad();
        }
        assert!((a.value[0] - 5.0).abs() < 0.05);
        assert!((b.value[0] + 1.0).abs() < 0.05);
    }

    #[test]
    fn gradient_clipping_caps_update_magnitude() {
        let mut p = Param::constant(1, 1, 0.0);
        let mut opt = Adam::new(0.1).with_grad_clip(1.0);
        p.grad[0] = 1e9;
        opt.step(&mut [&mut p]);
        // First Adam step magnitude is ~lr regardless, but clipping must
        // prevent NaN/inf from extreme gradients.
        assert!(p.value[0].is_finite());
        assert!(p.value[0].abs() <= 0.11);
    }

    #[test]
    #[should_panic(expected = "changed shape")]
    fn shape_change_detected() {
        let mut a = Param::zeros(2, 2);
        let mut opt = Adam::new(0.1);
        opt.step(&mut [&mut a]);
        let mut b = Param::zeros(3, 3);
        opt.step(&mut [&mut b]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lr_rejected() {
        let _ = Adam::new(0.0);
    }
}

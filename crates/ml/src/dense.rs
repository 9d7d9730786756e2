//! Fully connected layers with sigmoid / PReLU / linear activations.

use crate::param::Param;
use rand::rngs::StdRng;

/// Activation function applied after a dense layer's affine map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity (used by the output head).
    Linear,
    /// Logistic sigmoid — the paper's "Sigmoid neural net layer".
    Sigmoid,
    /// Parametric ReLU with a learnable per-unit negative slope — the
    /// paper's "fully connected PRelu layers".
    PRelu,
}

/// A dense (fully connected) layer `y = act(W x + b)`.
///
/// # Examples
///
/// ```
/// use pidpiper_ml::{Dense, Activation};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut layer = Dense::new(3, 2, Activation::Sigmoid, &mut rng);
/// let y = layer.forward(&[0.5, -1.0, 2.0]);
/// assert_eq!(y.len(), 2);
/// assert!(y.iter().all(|v| (0.0..=1.0).contains(v)));
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight matrix (`out x in`).
    pub w: Param,
    /// Bias vector (`out`).
    pub b: Param,
    /// PReLU negative slopes (`out`), used only with [`Activation::PRelu`].
    pub alpha: Param,
    activation: Activation,
    // Forward caches for backprop.
    cache_x: Vec<f64>,
    cache_pre: Vec<f64>,
    cache_y: Vec<f64>,
}

impl Dense {
    /// Creates a dense layer with Xavier-initialized weights.
    pub fn new(input: usize, output: usize, activation: Activation, rng: &mut StdRng) -> Self {
        Dense {
            w: Param::xavier(output, input, rng),
            b: Param::zeros(output, 1),
            alpha: Param::constant(output, 1, 0.1),
            activation,
            cache_x: Vec::new(),
            cache_pre: Vec::new(),
            cache_y: Vec::new(),
        }
    }

    /// The layer's activation kind.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.w.cols()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.w.rows()
    }

    /// Forward pass; caches intermediates for [`Dense::backward`].
    pub fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        let mut pre = self.b.value.clone();
        self.w.matvec_into(x, &mut pre);
        let y: Vec<f64> = match self.activation {
            Activation::Linear => pre.clone(),
            Activation::Sigmoid => pre.iter().map(|&z| sigmoid(z)).collect(),
            Activation::PRelu => pre
                .iter()
                .enumerate()
                .map(|(i, &z)| if z > 0.0 { z } else { self.alpha.value[i] * z })
                .collect(),
        };
        self.cache_x = x.to_vec();
        self.cache_pre = pre;
        self.cache_y = y.clone();
        y
    }

    /// Inference-only forward (no caching, immutable).
    pub fn infer(&self, x: &[f64]) -> Vec<f64> {
        let mut pre = self.b.value.clone();
        self.w.matvec_into(x, &mut pre);
        match self.activation {
            Activation::Linear => pre,
            Activation::Sigmoid => pre.into_iter().map(sigmoid).collect(),
            Activation::PRelu => pre
                .into_iter()
                .enumerate()
                .map(|(i, z)| if z > 0.0 { z } else { self.alpha.value[i] * z })
                .collect(),
        }
    }

    /// Backward pass: given `dL/dy`, accumulates parameter gradients and
    /// returns `dL/dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Dense::forward`].
    pub fn backward(&mut self, dy: &[f64]) -> Vec<f64> {
        assert!(
            !self.cache_x.is_empty(),
            "backward called before forward"
        );
        let out = self.output_dim();
        debug_assert_eq!(dy.len(), out);
        let mut dpre = vec![0.0; out];
        for i in 0..out {
            let d = dy[i];
            match self.activation {
                Activation::Linear => dpre[i] = d,
                Activation::Sigmoid => {
                    let y = self.cache_y[i];
                    dpre[i] = d * y * (1.0 - y);
                }
                Activation::PRelu => {
                    let z = self.cache_pre[i];
                    if z > 0.0 {
                        dpre[i] = d;
                    } else {
                        dpre[i] = d * self.alpha.value[i];
                        self.alpha.grad[i] += d * z;
                    }
                }
            }
        }
        self.w.accumulate_outer(&dpre, &self.cache_x);
        for i in 0..out {
            self.b.grad[i] += dpre[i];
        }
        let mut dx = vec![0.0; self.input_dim()];
        self.w.matvec_t_into(&dpre, &mut dx);
        dx
    }

    /// The layer's trainable parameters (weights, bias, and — for PReLU —
    /// slopes).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        match self.activation {
            Activation::PRelu => vec![&mut self.w, &mut self.b, &mut self.alpha],
            _ => vec![&mut self.w, &mut self.b],
        }
    }

    /// Immutable view of trainable parameters (serialization).
    pub fn params(&self) -> Vec<&Param> {
        match self.activation {
            Activation::PRelu => vec![&self.w, &self.b, &self.alpha],
            _ => vec![&self.w, &self.b],
        }
    }
}

// Shared with the streaming/batched paths so head activations stay
// bit-identical across training and deployment inference.
use pidpiper_math::activations::fast_sigmoid as sigmoid;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn finite_diff_check(activation: Activation) {
        let mut rng = StdRng::seed_from_u64(42);
        let mut layer = Dense::new(4, 3, activation, &mut rng);
        // Force some negative pre-activations for PReLU coverage.
        let x = [0.3, -0.7, 1.2, -0.1];
        let target = [0.5, -0.5, 0.2];

        // Analytic gradients of L = 0.5 * sum (y - t)^2.
        let y = layer.forward(&x);
        let dy: Vec<f64> = y.iter().zip(&target).map(|(yi, ti)| yi - ti).collect();
        let dx = layer.backward(&dy);

        let loss = |l: &Dense, x: &[f64]| -> f64 {
            let y = l.infer(x);
            y.iter()
                .zip(&target)
                .map(|(yi, ti)| 0.5 * (yi - ti) * (yi - ti))
                .sum()
        };

        let eps = 1e-6;
        // Check weight gradients.
        for idx in 0..layer.w.len() {
            let mut plus = layer.clone();
            plus.w.value[idx] += eps;
            let mut minus = layer.clone();
            minus.w.value[idx] -= eps;
            let num = (loss(&plus, &x) - loss(&minus, &x)) / (2.0 * eps);
            let ana = layer.w.grad[idx];
            assert!(
                (num - ana).abs() < 1e-6 * (1.0 + num.abs()),
                "{activation:?} w[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
        // Check input gradients.
        for idx in 0..x.len() {
            let mut xp = x;
            xp[idx] += eps;
            let mut xm = x;
            xm[idx] -= eps;
            let num = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
            assert!(
                (num - dx[idx]).abs() < 1e-6 * (1.0 + num.abs()),
                "{activation:?} x[{idx}]: numeric {num} vs analytic {}",
                dx[idx]
            );
        }
    }

    #[test]
    fn gradcheck_linear() {
        finite_diff_check(Activation::Linear);
    }

    #[test]
    fn gradcheck_sigmoid() {
        finite_diff_check(Activation::Sigmoid);
    }

    #[test]
    fn gradcheck_prelu() {
        finite_diff_check(Activation::PRelu);
    }

    #[test]
    fn prelu_alpha_gradient() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut layer = Dense::new(2, 2, Activation::PRelu, &mut rng);
        // Craft weights so unit 0 goes negative.
        layer.w.value = vec![-1.0, 0.0, 1.0, 0.0];
        layer.b.value = vec![0.0, 0.0];
        let y = layer.forward(&[2.0, 0.0]); // pre = [-2, 2]
        assert!((y[0] - (-2.0 * 0.1)).abs() < 1e-12);
        layer.backward(&[1.0, 1.0]);
        // dL/dalpha_0 = dy * z = 1 * -2.
        assert!((layer.alpha.grad[0] + 2.0).abs() < 1e-12);
        assert_eq!(layer.alpha.grad[1], 0.0, "positive unit has no alpha grad");
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(5, 4, Activation::Sigmoid, &mut rng);
        let x = [0.1, 0.2, -0.3, 0.4, -0.5];
        assert_eq!(layer.forward(&x), layer.infer(&x));
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_requires_forward() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Dense::new(2, 2, Activation::Linear, &mut rng);
        let _ = layer.backward(&[1.0, 1.0]);
    }
}

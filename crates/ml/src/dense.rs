//! Fully connected layers with sigmoid / PReLU / linear activations.
//! Training runs them over lanes of samples (the crate's `train` module).

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
/// let layer = Dense::new(3, 2, Activation::Sigmoid, &mut rng);
/// let y = layer.infer(&[0.5, -1.0, 2.0]);
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
}

impl Dense {
    /// Creates a dense layer with Xavier-initialized weights.
    pub fn new(input: usize, output: usize, activation: Activation, rng: &mut StdRng) -> Self {
        Dense {
            w: Param::xavier(output, input, rng),
            b: Param::zeros(output, 1),
            alpha: Param::constant(output, 1, 0.1),
            activation,
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

    /// Forward pass for one input vector.
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
}

// Shared with the streaming/batched paths so head activations stay
// bit-identical across training and deployment inference.
use pidpiper_math::activations::fast_sigmoid as sigmoid;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn prelu_scales_only_negative_pre_activations() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut layer = Dense::new(2, 2, Activation::PRelu, &mut rng);
        layer.w.value = vec![-1.0, 0.0, 1.0, 0.0];
        layer.b.value = vec![0.0, 0.0];
        let y = layer.infer(&[2.0, 0.0]); // pre = [-2, 2]
        assert_eq!(y, vec![-2.0 * 0.1, 2.0]);
    }
}

//! LSTM layer: weights, initialization and the reference single-step
//! cell. Training (backpropagation through time over lanes of samples)
//! lives in the crate's `train` module; deployment inference in
//! [`crate::stream`] and [`crate::batch`].
//!
//! Standard LSTM cell:
//!
//! ```text
//! i = sigmoid(W_i x + U_i h' + b_i)     (input gate)
//! f = sigmoid(W_f x + U_f h' + b_f)     (forget gate)
//! o = sigmoid(W_o x + U_o h' + b_o)     (output gate)
//! g = tanh   (W_g x + U_g h' + b_g)     (candidate)
//! c = f * c' + i * g
//! h = o * tanh(c)
//! ```
//!
//! The paper leans on the memory cells as its "noise model": the gates
//! learn the relationship between past inputs `X(k)` and the present input
//! `x(t)`, down-weighting features whose present value deviates sharply
//! from their history — which is what attenuates attack-induced spikes in
//! the FFC's output.

use crate::param::Param;
use rand::rngs::StdRng;

// The activations are shared with the streaming and batched inference
// paths (pidpiper_math::activations), which keeps the training-time
// forward pass bit-identical to deployment inference.
use pidpiper_math::activations::{fast_sigmoid as sigmoid, fast_tanh as tanh};

/// Hidden/cell state of an LSTM layer (for stateful streaming inference).
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden state `h`.
    pub h: Vec<f64>,
    /// Cell state `c`.
    pub c: Vec<f64>,
}

impl LstmState {
    /// A zero state for a layer of the given hidden size.
    pub fn zeros(hidden: usize) -> Self {
        LstmState {
            h: vec![0.0; hidden],
            c: vec![0.0; hidden],
        }
    }
}

/// One LSTM layer.
///
/// # Examples
///
/// ```
/// use pidpiper_ml::LstmLayer;
/// use pidpiper_ml::lstm::LstmState;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let lstm = LstmLayer::new(3, 8, &mut rng);
/// let mut state = LstmState::zeros(8);
/// for _ in 0..5 {
///     state = lstm.infer_step(&[0.1, 0.2, 0.3], &state);
/// }
/// assert_eq!(state.h.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct LstmLayer {
    /// Input weights for the four gates, stacked `[i; f; o; g]`
    /// (`4*hidden x input`).
    pub w: Param,
    /// Recurrent weights, stacked the same way (`4*hidden x hidden`).
    pub u: Param,
    /// Gate biases, stacked (`4*hidden`). Forget-gate block initialized
    /// to 1 (standard trick for gradient flow).
    pub b: Param,
    input: usize,
    hidden: usize,
}

impl LstmLayer {
    /// Creates an LSTM layer with Xavier-initialized weights and
    /// forget-bias 1.
    pub fn new(input: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let mut b = Param::zeros(4 * hidden, 1);
        for j in hidden..2 * hidden {
            b.value[j] = 1.0; // forget gate bias
        }
        LstmLayer {
            w: Param::xavier(4 * hidden, input, rng),
            u: Param::xavier(4 * hidden, hidden, rng),
            b,
            input,
            hidden,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input
    }

    /// Hidden dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Runs one step from an explicit state, returning the new state
    /// (the allocating reference cell).
    pub fn infer_step(&self, x: &[f64], state: &LstmState) -> LstmState {
        let (i, f, o, g) = self.gates(x, &state.h);
        let h = self.hidden;
        let mut c = vec![0.0; h];
        let mut h_new = vec![0.0; h];
        for j in 0..h {
            c[j] = f[j] * state.c[j] + i[j] * g[j];
            h_new[j] = o[j] * tanh(c[j]);
        }
        LstmState { h: h_new, c }
    }

    fn gates(&self, x: &[f64], h_prev: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        debug_assert_eq!(x.len(), self.input);
        let h = self.hidden;
        let mut pre = self.b.value.clone();
        self.w.matvec_into(x, &mut pre);
        self.u.matvec_into(h_prev, &mut pre);
        let i: Vec<f64> = pre[0..h].iter().map(|&z| sigmoid(z)).collect();
        let f: Vec<f64> = pre[h..2 * h].iter().map(|&z| sigmoid(z)).collect();
        let o: Vec<f64> = pre[2 * h..3 * h].iter().map(|&z| sigmoid(z)).collect();
        let g: Vec<f64> = pre[3 * h..4 * h].iter().map(|&z| tanh(z)).collect();
        (i, f, o, g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let lstm = LstmLayer::new(2, 4, &mut rng);
        for j in 4..8 {
            assert_eq!(lstm.b.value[j], 1.0);
        }
        assert_eq!(lstm.b.value[0], 0.0);
    }

    #[test]
    fn hidden_state_bounded() {
        // h = o * tanh(c) with o in (0,1) and tanh in (-1,1): |h| < 1.
        let mut rng = StdRng::seed_from_u64(9);
        let lstm = LstmLayer::new(1, 5, &mut rng);
        let mut state = LstmState::zeros(5);
        for i in 0..200 {
            state = lstm.infer_step(&[(i as f64 * 17.0).sin() * 100.0], &state);
            for &v in &state.h {
                assert!(v.abs() < 1.0, "hidden state {v} out of bounds");
            }
        }
    }
}

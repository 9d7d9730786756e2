//! Zero-allocation streaming inference for [`LstmRegressor`].
//!
//! [`LstmRegressor::predict`] is the reference path: it allocates fresh
//! `Vec`s for every normalized row, every gate, and every dense layer of
//! every call. That is fine for training-time evaluation but not for the
//! FFC hot path, which runs inside every control tick. This module
//! provides the deployment path:
//!
//! - [`StreamingRegressor`] — a compiled form of the network that stores
//!   every weight matrix **k-major** (one row per input feature `k`,
//!   holding that feature's weight into every output unit): each LSTM
//!   layer's four gate matmuls are fused into one contiguous
//!   `[(input+hidden) x 4*hidden]` block, and each dense layer keeps an
//!   `[input x output]` block, the transpose of `Dense::w`;
//! - [`InferenceScratch`] — caller-owned preallocated working buffers;
//! - [`StreamState`] — the `(h, c)` pair of both LSTM layers, exposed so
//!   callers can checkpoint a partially-consumed window (the FFC caches
//!   the state after its history rows and replays only the live row each
//!   tick);
//! - [`StreamingRegressor::predict_into`] — a whole-window entry point
//!   that is **bit-identical** to [`LstmRegressor::predict`] and performs
//!   zero heap allocation after the scratch has been built.
//!
//! The k-major layout turns one step into single-row products
//! `x^T · W` through `pidpiper_math::gemm::gemm_acc` (`m = 1`), which
//! vectorise across the output units instead of running one scalar
//! reduction per unit. The gate activations and the cell's `tanh` then
//! run through the ISA-dispatched slice kernels of
//! `pidpiper_math::activations`.
//!
//! Bit-identity is load-bearing. Every output unit still owns one
//! accumulator summed in ascending `k`: the gate pre-activations are
//! preloaded with the bias, the `x` pass adds its accumulator in one
//! rounding step, and the `h` pass adds a second accumulator in another,
//! so a gate reads `(bias + Σ w·x) + Σ u·h` — the exact f64 operation
//! order of `Param::matvec_into` as called by the reference path (`x·w`
//! and `w·x` round identically). Dense layers are the same single pass,
//! `bias + Σ w·x`. The slice kernels apply the same per-element ops as the
//! scalar activations. Tests in this module and `crates/ml/tests` compare
//! outputs with `f64::to_bits`, not an epsilon.
//!
//! Only the k-major blocks live here. The batched fleet engine reads its
//! weights row-major and builds those copies itself when it compiles
//! (`BatchedStreamingRegressor::compile`).

use crate::dense::{Activation, Dense};
use crate::lstm::LstmLayer;
use crate::network::{LstmRegressor, RegressorConfig};
use crate::normalize::Normalizer;
use pidpiper_math::activations::{fast_sigmoid_slice, fast_tanh_slice};
use pidpiper_math::gemm::gemm_acc;
use std::fmt;

/// Transposes a row-major `[rows x cols]` matrix into a row-major
/// `[cols x rows]` one. Copies only, so the values keep their bits.
fn transpose(src: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    let mut dst = vec![0.0; rows * cols];
    transpose_into(src, rows, cols, &mut dst);
    dst
}

/// [`transpose`] into a caller-owned buffer of `rows * cols` values.
pub(crate) fn transpose_into(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/// `out = bias + x^T · cols` over one k-major block: `bias` preloaded,
/// then one ascending-`k` accumulator per output unit added in a single
/// rounding step (`Param::matvec_into`'s order).
fn affine_into(x: &[f64], cols: &[f64], bias: &[f64], out: &mut [f64]) {
    let n = out.len();
    out.copy_from_slice(bias);
    gemm_acc(x, x.len(), 1, x.len(), cols, n, out, n, n);
}

/// Typed error for malformed inference inputs.
///
/// Replaces the panicking window-length `assert_eq!` the reference
/// `predict` used to carry: deployed controllers hold their previous
/// output on `Err` instead of crashing the autopilot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictError {
    /// The window holds the wrong number of timesteps.
    WindowLength {
        /// Number of rows supplied.
        got: usize,
        /// `RegressorConfig::window`.
        expected: usize,
    },
    /// One feature row has the wrong dimension.
    FeatureDim {
        /// Index of the offending row within the window.
        step: usize,
        /// Length of that row.
        got: usize,
        /// `RegressorConfig::input_dim`.
        expected: usize,
    },
    /// The caller-provided output slice has the wrong length.
    OutputLength {
        /// Length of the supplied output slice.
        got: usize,
        /// `RegressorConfig::output_dim`.
        expected: usize,
    },
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::WindowLength { got, expected } => {
                write!(f, "window length mismatch: got {got}, expected {expected}")
            }
            PredictError::FeatureDim {
                step,
                got,
                expected,
            } => write!(
                f,
                "feature dimension mismatch at step {step}: got {got}, expected {expected}"
            ),
            PredictError::OutputLength { got, expected } => {
                write!(f, "output length mismatch: got {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for PredictError {}

/// One LSTM layer with the four gate matmuls fused into a single
/// contiguous k-major block.
///
/// `cols` is `[(input+hidden) x 4*hidden]`: row `k < input` holds input
/// feature `k`'s weight into every gate unit (`W^T`), row `input + j`
/// the recurrent weights of `h[j]` (`U^T`). Within a row the units follow
/// the layer's stacked `[i; f; o; g]` gate order.
#[derive(Debug, Clone)]
pub(crate) struct FusedLstm {
    pub(crate) input: usize,
    pub(crate) hidden: usize,
    /// `input + hidden` k-major rows, each `4*hidden` long.
    pub(crate) cols: Vec<f64>,
    /// Gate biases (`4*hidden`).
    pub(crate) bias: Vec<f64>,
}

impl FusedLstm {
    fn from_layer(layer: &LstmLayer) -> Self {
        let input = layer.input_dim();
        let hidden = layer.hidden_dim();
        let mut cols = transpose(&layer.w.value, 4 * hidden, input);
        cols.extend(transpose(&layer.u.value, 4 * hidden, hidden));
        FusedLstm {
            input,
            hidden,
            cols,
            bias: layer.b.value.clone(),
        }
    }

    /// The fused block row-major, `[4*hidden x (input+hidden)]`: row `r`
    /// is `[w_row(r) | u_row(r)]`, the layout the batched GEMM reads.
    pub(crate) fn rows(&self) -> Vec<f64> {
        transpose(&self.cols, self.input + self.hidden, 4 * self.hidden)
    }

    /// One cell update, in place. `pre` must hold at least `4*hidden`
    /// slots. The accumulation order — `(bias + w·x) + u·h`, each dot
    /// product summed in ascending `k` into its own accumulator — mirrors
    /// `Param::matvec_into` exactly; changing it breaks bit-identity with
    /// the reference path.
    fn step(&self, x: &[f64], h: &mut [f64], c: &mut [f64], pre: &mut [f64]) {
        let hd = self.hidden;
        let g = 4 * hd;
        debug_assert_eq!(x.len(), self.input);
        debug_assert_eq!(h.len(), hd);
        debug_assert_eq!(c.len(), hd);
        let pre = &mut pre[..g];
        let (w_cols, u_cols) = self.cols.split_at(self.input * g);
        affine_into(x, w_cols, &self.bias, pre);
        gemm_acc(h, hd, 1, hd, u_cols, g, pre, g, g);
        // i/f/o gates are the contiguous sigmoid units, g the tanh ones.
        fast_sigmoid_slice(&mut pre[..3 * hd]);
        fast_tanh_slice(&mut pre[3 * hd..]);
        // Cell update staged as in the batched panel step, so `tanh(c)`
        // also runs through the slice kernel: `h = o * tanh(f*c + i*g)`
        // per element, the reference's op sequence.
        for j in 0..hd {
            let cj = pre[hd + j] * c[j] + pre[j] * pre[3 * hd + j];
            c[j] = cj;
            h[j] = cj;
        }
        fast_tanh_slice(h);
        for (hj, oj) in h.iter_mut().zip(&pre[2 * hd..3 * hd]) {
            *hj *= oj;
        }
    }
}

/// One dense layer compiled for single-lane inference: the weights
/// k-major (`[input x output]`, the transpose of `Dense::w`), so the
/// affine map is one `gemm_acc` row product.
#[derive(Debug, Clone)]
pub(crate) struct CompiledDense {
    pub(crate) input: usize,
    pub(crate) output: usize,
    /// `input` k-major rows, each `output` long.
    pub(crate) cols: Vec<f64>,
    /// Biases (`output`).
    pub(crate) bias: Vec<f64>,
    /// PReLU negative slopes (`output`).
    pub(crate) alpha: Vec<f64>,
    pub(crate) activation: Activation,
}

impl CompiledDense {
    fn from_dense(d: &Dense) -> Self {
        let (input, output) = (d.input_dim(), d.output_dim());
        CompiledDense {
            input,
            output,
            cols: transpose(&d.w.value, output, input),
            bias: d.b.value.clone(),
            alpha: d.alpha.value.clone(),
            activation: d.activation(),
        }
    }

    /// The weights row-major, `[output x input]` (the `Dense::w` layout
    /// the batched GEMM reads).
    pub(crate) fn rows(&self) -> Vec<f64> {
        transpose(&self.cols, self.input, self.output)
    }

    /// Bit-identical to `Dense::infer`, into `out`. `x` and `out` must
    /// be disjoint.
    fn infer_into(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.input);
        affine_into(x, &self.cols, &self.bias, out);
        match self.activation {
            Activation::Linear => {}
            Activation::Sigmoid => fast_sigmoid_slice(out),
            Activation::PRelu => {
                for (z, a) in out.iter_mut().zip(&self.alpha) {
                    let v = *z;
                    *z = if v > 0.0 { v } else { a * v };
                }
            }
        }
    }
}

/// Hidden/cell state of both LSTM layers at some point in a window.
///
/// Separate from [`InferenceScratch`] so callers can keep *several*
/// states per engine (the FFC checkpoints the state after its history
/// rows and copies it into a working state each tick) while sharing one
/// scratch.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamState {
    pub(crate) h1: Vec<f64>,
    pub(crate) c1: Vec<f64>,
    pub(crate) h2: Vec<f64>,
    pub(crate) c2: Vec<f64>,
}

impl StreamState {
    fn zeros(hidden: usize) -> Self {
        StreamState {
            h1: vec![0.0; hidden],
            c1: vec![0.0; hidden],
            h2: vec![0.0; hidden],
            c2: vec![0.0; hidden],
        }
    }

    /// Resets to the zero state (start of a window).
    pub fn reset(&mut self) {
        for v in [&mut self.h1, &mut self.c1, &mut self.h2, &mut self.c2] {
            v.fill(0.0);
        }
    }

    /// Overwrites this state with `other` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the states belong to differently-sized engines.
    pub fn copy_from(&mut self, other: &StreamState) {
        self.h1.copy_from_slice(&other.h1);
        self.c1.copy_from_slice(&other.c1);
        self.h2.copy_from_slice(&other.h2);
        self.c2.copy_from_slice(&other.c2);
    }

    /// Heap bytes held by this state: the four hidden-sized `f64`
    /// vectors (`4 * hidden * 8`). Used by fleet capacity planning.
    pub fn resident_bytes(&self) -> usize {
        (self.h1.len() + self.c1.len() + self.h2.len() + self.c2.len())
            * std::mem::size_of::<f64>()
    }
}

/// Preallocated working buffers for one [`StreamingRegressor`].
///
/// Build once via [`StreamingRegressor::scratch`], reuse for every call;
/// no inference entry point allocates after this exists. A scratch is
/// engine-shaped, not call-shaped: one scratch serves any number of
/// interleaved states/windows of the same engine.
#[derive(Debug, Clone)]
pub struct InferenceScratch {
    /// Window-start state used by [`StreamingRegressor::predict_into`].
    state: StreamState,
    /// One normalized input row (`input_dim`).
    normed: Vec<f64>,
    /// Gate pre-activations (`4*hidden`), shared by both layers.
    pre: Vec<f64>,
    /// Dense ping buffer (`fc_width`).
    fc_a: Vec<f64>,
    /// Dense pong buffer (`fc_width`).
    fc_b: Vec<f64>,
    /// Normalized output (`output_dim`).
    z: Vec<f64>,
}

impl InferenceScratch {
    fn for_config(config: &RegressorConfig) -> Self {
        InferenceScratch {
            state: StreamState::zeros(config.hidden),
            normed: vec![0.0; config.input_dim],
            pre: vec![0.0; 4 * config.hidden],
            fc_a: vec![0.0; config.fc_width],
            fc_b: vec![0.0; config.fc_width],
            z: vec![0.0; config.output_dim],
        }
    }

    /// Heap bytes held by this scratch (all working buffers plus its
    /// embedded window-start state). A scratch is engine-shaped and shared
    /// across sessions, so this is *per worker*, not per session.
    pub fn resident_bytes(&self) -> usize {
        self.state.resident_bytes()
            + (self.normed.len()
                + self.pre.len()
                + self.fc_a.len()
                + self.fc_b.len()
                + self.z.len())
                * std::mem::size_of::<f64>()
    }
}

/// The compiled, allocation-free deployment form of an [`LstmRegressor`].
///
/// Obtain via [`LstmRegressor::compile`]. The compiled engine snapshots
/// the network's weights; recompile after further training.
///
/// # Examples
///
/// ```
/// use pidpiper_ml::{LstmRegressor, RegressorConfig};
///
/// let model = LstmRegressor::new(RegressorConfig::tiny(2, 1), 7);
/// let engine = model.compile();
/// let window = vec![vec![0.1, -0.2]; engine.config().window];
/// let mut scratch = engine.scratch();
/// let mut out = [0.0];
/// engine.predict_into(&window, &mut scratch, &mut out).expect("valid window");
/// let reference = model.predict(&window).expect("valid window");
/// assert_eq!(out[0].to_bits(), reference[0].to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct StreamingRegressor {
    pub(crate) config: RegressorConfig,
    pub(crate) lstm1: FusedLstm,
    pub(crate) lstm2: FusedLstm,
    pub(crate) fc_sigmoid: CompiledDense,
    pub(crate) fc_prelu1: CompiledDense,
    pub(crate) fc_prelu2: CompiledDense,
    pub(crate) head: CompiledDense,
    pub(crate) normalizer: Normalizer,
    pub(crate) target_normalizer: Normalizer,
}

impl StreamingRegressor {
    /// Compiles a trained network. Equivalent to
    /// [`LstmRegressor::compile`].
    pub fn compile(model: &LstmRegressor) -> Self {
        let (lstm1, lstm2) = model.lstm_layers();
        let (fc_sigmoid, fc_prelu1, fc_prelu2, head) = model.dense_stack();
        StreamingRegressor {
            config: *model.config(),
            lstm1: FusedLstm::from_layer(lstm1),
            lstm2: FusedLstm::from_layer(lstm2),
            fc_sigmoid: CompiledDense::from_dense(fc_sigmoid),
            fc_prelu1: CompiledDense::from_dense(fc_prelu1),
            fc_prelu2: CompiledDense::from_dense(fc_prelu2),
            head: CompiledDense::from_dense(head),
            normalizer: model.normalizer().clone(),
            target_normalizer: model.target_normalizer().clone(),
        }
    }

    /// The compiled network's configuration.
    pub fn config(&self) -> &RegressorConfig {
        &self.config
    }

    /// A fresh zero [`StreamState`] sized for this engine.
    pub fn state(&self) -> StreamState {
        StreamState::zeros(self.config.hidden)
    }

    /// A fresh [`InferenceScratch`] sized for this engine.
    pub fn scratch(&self) -> InferenceScratch {
        InferenceScratch::for_config(&self.config)
    }

    /// Bytes a long-lived session must keep *resident between ticks* to
    /// stream this engine: one checkpoint [`StreamState`] (`4 * hidden`
    /// f64s) plus a normalized history ring of `window - 1` feature rows
    /// (`(window - 1) * input_dim` f64s).
    ///
    /// Engine weights and the [`InferenceScratch`] are shared across any
    /// number of sessions and are deliberately excluded — this is the
    /// marginal cost of one more session, the number fleet capacity
    /// planning multiplies by the session count (see `OPERATIONS.md`).
    pub fn session_state_bytes(&self) -> usize {
        let state = 4 * self.config.hidden * std::mem::size_of::<f64>();
        let ring =
            (self.config.window - 1) * self.config.input_dim * std::mem::size_of::<f64>();
        state + ring
    }

    /// Standardizes one raw feature row into `out` without allocating.
    /// Bit-identical to `Normalizer::transform`.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::FeatureDim`] / [`PredictError::OutputLength`]
    /// on a length mismatch.
    pub fn normalize_into(&self, raw: &[f64], out: &mut [f64]) -> Result<(), PredictError> {
        if raw.len() != self.config.input_dim {
            return Err(PredictError::FeatureDim {
                step: 0,
                got: raw.len(),
                expected: self.config.input_dim,
            });
        }
        if out.len() != self.config.input_dim {
            return Err(PredictError::OutputLength {
                got: out.len(),
                expected: self.config.input_dim,
            });
        }
        self.normalizer.transform_into(raw, out);
        Ok(())
    }

    /// Advances `state` by one *already-normalized* input row.
    ///
    /// This is the incremental entry point: feeding `window` rows one by
    /// one from a reset state and then calling
    /// [`StreamingRegressor::finish_into`] is bit-identical to
    /// [`StreamingRegressor::predict_into`] over the same rows.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::FeatureDim`] if the row has the wrong
    /// length.
    pub fn step_normed(
        &self,
        x_normed: &[f64],
        state: &mut StreamState,
        scratch: &mut InferenceScratch,
    ) -> Result<(), PredictError> {
        if x_normed.len() != self.config.input_dim {
            return Err(PredictError::FeatureDim {
                step: 0,
                got: x_normed.len(),
                expected: self.config.input_dim,
            });
        }
        self.step_raw(x_normed, state, &mut scratch.pre);
        Ok(())
    }

    /// Runs the dense stack from `state` and writes the de-normalized
    /// prediction into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::OutputLength`] if `out` has the wrong
    /// length.
    pub fn finish_into(
        &self,
        state: &StreamState,
        scratch: &mut InferenceScratch,
        out: &mut [f64],
    ) -> Result<(), PredictError> {
        if out.len() != self.config.output_dim {
            return Err(PredictError::OutputLength {
                got: out.len(),
                expected: self.config.output_dim,
            });
        }
        let InferenceScratch {
            fc_a, fc_b, z, ..
        } = scratch;
        self.finish_raw(state, fc_a, fc_b, z, out);
        Ok(())
    }

    /// Predicts from a raw (unnormalized) window of exactly
    /// `config.window` rows, writing the de-normalized output into `out`.
    ///
    /// Bit-identical to [`LstmRegressor::predict`] on the same window and
    /// allocation-free given a prebuilt scratch.
    ///
    /// # Errors
    ///
    /// Returns a [`PredictError`] describing the first malformed input
    /// dimension; `out` is left unspecified on error.
    pub fn predict_into(
        &self,
        window: &[Vec<f64>],
        scratch: &mut InferenceScratch,
        out: &mut [f64],
    ) -> Result<(), PredictError> {
        if window.len() != self.config.window {
            return Err(PredictError::WindowLength {
                got: window.len(),
                expected: self.config.window,
            });
        }
        for (step, row) in window.iter().enumerate() {
            if row.len() != self.config.input_dim {
                return Err(PredictError::FeatureDim {
                    step,
                    got: row.len(),
                    expected: self.config.input_dim,
                });
            }
        }
        if out.len() != self.config.output_dim {
            return Err(PredictError::OutputLength {
                got: out.len(),
                expected: self.config.output_dim,
            });
        }
        let InferenceScratch {
            state,
            normed,
            pre,
            fc_a,
            fc_b,
            z,
        } = scratch;
        state.reset();
        for row in window {
            self.normalizer.transform_into(row, normed);
            self.step_raw(normed, state, pre);
        }
        self.finish_raw(state, fc_a, fc_b, z, out);
        Ok(())
    }

    /// Core LSTM double-step: layer 1 consumes `x`, layer 2 consumes the
    /// *updated* `h1` — the same ordering as the reference loop.
    fn step_raw(&self, x: &[f64], state: &mut StreamState, pre: &mut [f64]) {
        let StreamState { h1, c1, h2, c2 } = state;
        self.lstm1.step(x, h1, c1, pre);
        self.lstm2.step(h1, h2, c2, pre);
    }

    /// Dense stack + de-normalization, ping-ponging between the two fc
    /// buffers so no layer reads and writes the same slice.
    fn finish_raw(
        &self,
        state: &StreamState,
        fc_a: &mut [f64],
        fc_b: &mut [f64],
        z: &mut [f64],
        out: &mut [f64],
    ) {
        self.fc_sigmoid.infer_into(&state.h2, fc_a);
        self.fc_prelu1.infer_into(fc_a, fc_b);
        self.fc_prelu2.infer_into(fc_b, fc_a);
        self.head.infer_into(fc_a, z);
        self.target_normalizer.inverse_into(z, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::WindowedDataset;

    fn trained_tiny() -> LstmRegressor {
        let config = RegressorConfig::tiny(2, 1);
        let inputs: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![((i as f64) * 0.37).sin(), ((i as f64) * 0.11).cos()])
            .collect();
        let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![x[0] + 0.5 * x[1]]).collect();
        let ds = WindowedDataset::from_series(&inputs, &targets, config.window);
        let mut model = LstmRegressor::new(config, 13);
        model.fit_normalizers(&ds);
        model.train(&ds, 2, 0.02, 5);
        model
    }

    fn window_for(model: &LstmRegressor, salt: f64) -> Vec<Vec<f64>> {
        let c = model.config();
        (0..c.window)
            .map(|t| {
                (0..c.input_dim)
                    .map(|j| ((t * 7 + j) as f64 * 0.31 + salt).sin() * 3.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn predict_into_bit_identical_to_predict() {
        let model = trained_tiny();
        let engine = model.compile();
        let mut scratch = engine.scratch();
        let mut out = vec![0.0; model.config().output_dim];
        for salt in [0.0, 1.3, -2.7] {
            let w = window_for(&model, salt);
            let reference = model.predict(&w).expect("valid window");
            engine.predict_into(&w, &mut scratch, &mut out).expect("valid window");
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "bit mismatch: {a} vs {b}");
            }
        }
    }

    #[test]
    fn scratch_reuse_carries_no_state() {
        let model = trained_tiny();
        let engine = model.compile();
        let mut scratch = engine.scratch();
        let w = window_for(&model, 0.4);
        let mut first = vec![0.0; 1];
        let mut second = vec![0.0; 1];
        engine.predict_into(&w, &mut scratch, &mut first).expect("valid");
        // A different window in between must not leak into the repeat.
        let other = window_for(&model, 9.9);
        engine.predict_into(&other, &mut scratch, &mut second).expect("valid");
        engine.predict_into(&w, &mut scratch, &mut second).expect("valid");
        assert_eq!(first[0].to_bits(), second[0].to_bits());
    }

    #[test]
    fn incremental_steps_match_whole_window() {
        let model = trained_tiny();
        let engine = model.compile();
        let mut scratch = engine.scratch();
        let w = window_for(&model, 2.2);
        let mut whole = vec![0.0; 1];
        engine.predict_into(&w, &mut scratch, &mut whole).expect("valid");

        let mut state = engine.state();
        let mut normed = vec![0.0; engine.config().input_dim];
        for row in &w {
            engine.normalize_into(row, &mut normed).expect("dims");
            engine.step_normed(&normed, &mut state, &mut scratch).expect("dims");
        }
        let mut inc = vec![0.0; 1];
        engine.finish_into(&state, &mut scratch, &mut inc).expect("dims");
        assert_eq!(whole[0].to_bits(), inc[0].to_bits());
    }

    #[test]
    fn typed_errors_for_malformed_inputs() {
        let model = LstmRegressor::new(RegressorConfig::tiny(2, 1), 0);
        let engine = model.compile();
        let mut scratch = engine.scratch();
        let mut out = vec![0.0; 1];
        assert_eq!(
            engine.predict_into(&[vec![0.0, 0.0]], &mut scratch, &mut out),
            Err(PredictError::WindowLength {
                got: 1,
                expected: 5
            })
        );
        let mut bad_row = vec![vec![0.0, 0.0]; 5];
        bad_row[3] = vec![0.0];
        assert_eq!(
            engine.predict_into(&bad_row, &mut scratch, &mut out),
            Err(PredictError::FeatureDim {
                step: 3,
                got: 1,
                expected: 2
            })
        );
        let good = vec![vec![0.0, 0.0]; 5];
        let mut bad_out = vec![0.0; 3];
        assert_eq!(
            engine.predict_into(&good, &mut scratch, &mut bad_out),
            Err(PredictError::OutputLength {
                got: 3,
                expected: 1
            })
        );
        // The reference path reports the same typed errors.
        assert_eq!(
            model.predict(&[vec![0.0, 0.0]]),
            Err(PredictError::WindowLength {
                got: 1,
                expected: 5
            })
        );
    }

    #[test]
    fn session_state_sizing_matches_config() {
        let model = LstmRegressor::new(RegressorConfig::tiny(2, 1), 0);
        let engine = model.compile();
        let c = *engine.config();
        // tiny: hidden 6, window 5, input 2.
        let expected_state = 4 * c.hidden * 8;
        let expected_ring = (c.window - 1) * c.input_dim * 8;
        assert_eq!(engine.session_state_bytes(), expected_state + expected_ring);
        assert_eq!(engine.state().resident_bytes(), expected_state);
        let scratch = engine.scratch();
        assert_eq!(
            scratch.resident_bytes(),
            expected_state + (c.input_dim + 4 * c.hidden + 2 * c.fc_width + c.output_dim) * 8
        );
    }

    #[test]
    fn state_copy_and_reset_round_trip() {
        let model = trained_tiny();
        let engine = model.compile();
        let mut scratch = engine.scratch();
        let mut state = engine.state();
        let mut normed = vec![0.0; 2];
        engine.normalize_into(&[1.0, -1.0], &mut normed).expect("dims");
        engine.step_normed(&normed, &mut state, &mut scratch).expect("dims");
        let mut copy = engine.state();
        copy.copy_from(&state);
        assert_eq!(copy, state);
        state.reset();
        assert_eq!(state, engine.state());
        assert_ne!(copy, state);
    }
}

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
//!   callers can checkpoint a partially-consumed window;
//! - [`StateBank`] — the same states for several lanes at once, stored as
//!   contiguous `[lanes x hidden]` rows and stepped together by
//!   [`StreamingRegressor::step_lanes`] (every lane reads one shared row:
//!   the FFC keeps one lane per partial window, so a new sample advances
//!   every window in one step) or [`StreamingRegressor::step_lane_rows`]
//!   (each lane reads its own row: the fleet's sessions and the
//!   calibration replay's windows, through [`crate::batch`]);
//! - [`FrozenPrefix`] — a completed prefix frozen for its live steps:
//!   both layers' cells `c1, c2` plus each layer's recurrent accumulator
//!   `r = Σ u·h`, so a live step from a prefix that does not change
//!   between ring pushes ([`StreamingRegressor::step_frozen`], any number
//!   of lanes, each from its own prefix) runs two GEMMs (the `W·x`
//!   passes) instead of four;
//! - [`StreamingRegressor::predict_into`] — a whole-window entry point
//!   that is **bit-identical** to [`LstmRegressor::predict`] and performs
//!   zero heap allocation after the scratch has been built.
//!
//! The k-major layout turns one step into row products `H · U` through
//! `pidpiper_math::gemm::gemm_acc`, with the lanes as rows (`m = 1` for a
//! single [`StreamState`], `m = lanes` for a [`StateBank`]) and the gate
//! units as columns, so the products vectorise across the output units
//! instead of running one scalar reduction per unit. A single state is
//! the one-lane case of the same step, and the dense stack runs the same
//! way over `m` lane rows (one row for [`StreamingRegressor::finish_into`]).
//! The gate activations and the cell's `tanh` then run through the
//! ISA-dispatched slice kernels of `pidpiper_math::activations`.
//!
//! Bit-identity is load-bearing. Every output unit still owns one
//! accumulator summed in ascending `k`: the gate pre-activations are
//! preloaded with the bias, the `x` pass adds its accumulator in one
//! rounding step, and the `h` pass adds a second accumulator in another,
//! so a gate reads `(bias + Σ w·x) + Σ u·h` — the exact f64 operation
//! order of `Param::matvec_into` as called by the reference path (`x·w`
//! and `w·x` round identically). When every lane of a bank steps the
//! same input row, layer 1's `bias + Σ w·x` is the same value for every
//! lane, so it is computed once and copied into each lane's gate row
//! before that lane adds its own `Σ u·h`. The GEMM gives every row its
//! own chain, so a lane's bits do not depend on how many lanes step with
//! it.
//!
//! A frozen prefix stores each gate's `Σ u·h` as the GEMM stores it into
//! a zeroed row: the chain starts at `+0.0`, so it is never `−0.0` and
//! `0.0 + Σ` is `Σ` itself, and a NaN is stored canonical. A frozen step
//! adds that value to `bias + Σ w·x` in one rounding step, canonicalising
//! a NaN as the GEMM's store does, which is the bits of the `h` pass:
//! `(bias + Σ w·x) + Σ u·h` again, never `bias + (Σ w·x + Σ u·h)`.
//! Dense layers are the same single pass,
//! `bias + Σ w·x`. The slice kernels apply the same per-element ops as the
//! scalar activations. Tests in this module and `crates/ml/tests` compare
//! outputs with `f64::to_bits`, not an epsilon.
//!
//! Every weight is stored once, in these k-major blocks; the batched
//! form ([`crate::batch::BatchedStreamingRegressor`]) borrows them.

use crate::dense::{Activation, Dense};
use crate::lstm::LstmLayer;
use crate::network::{LstmRegressor, RegressorConfig};
use crate::normalize::Normalizer;
use pidpiper_math::activations::{fast_sigmoid_slice, fast_tanh_slice};
use pidpiper_math::float::canonical_nan;
use pidpiper_math::gemm::gemm_acc;
use std::fmt;
use std::ops::Range;

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

/// `out = bias + x · cols` for the `m` rows of `x` (`[m x k]`) over one
/// k-major `[k x n]` block: every output row preloaded with `bias`, then
/// one ascending-`k` accumulator per element added in a single rounding
/// step (`Param::matvec_into`'s order). Each row is its own chain, so a
/// row's bits do not depend on `m`.
fn affine_rows(x: &[f64], k: usize, cols: &[f64], bias: &[f64], out: &mut [f64], m: usize) {
    let n = bias.len();
    for row in out[..m * n].chunks_exact_mut(n) {
        row.copy_from_slice(bias);
    }
    gemm_acc(x, k, m, k, cols, n, out, n, n);
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
    /// A lane range runs past a [`StateBank`], or the bank was built for
    /// another engine shape.
    LaneRange {
        /// End of the requested lane range.
        end: usize,
        /// Lanes in the bank.
        lanes: usize,
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
            PredictError::LaneRange { end, lanes } => {
                write!(f, "lane range ends at {end}, the bank has {lanes} lanes")
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

    /// The recurrent block `U^T` (`hidden` k-major rows).
    fn u_cols(&self) -> &[f64] {
        &self.cols[self.input * 4 * self.hidden..]
    }

    /// `r = Σ u·h` of `m` lane rows of `h` (`[m x hidden]`) into `r`
    /// (`[m x 4*hidden]`), each element one ascending-`k` chain stored
    /// into a zeroed row: the `h` pass of [`FusedLstm::step`], kept for
    /// the frozen steps that follow.
    fn recurrent_into(&self, h: &[f64], r: &mut [f64], m: usize) {
        let (hd, g) = (self.hidden, 4 * self.hidden);
        let r = &mut r[..m * g];
        r.fill(0.0);
        gemm_acc(&h[..m * hd], hd, m, hd, self.u_cols(), g, r, g, g);
    }

    /// One cell update of `m` lanes, in place. `h` and `c` are
    /// `[m x hidden]` lane rows and `pre` must hold at least
    /// `m * 4*hidden` slots (the gate panel, one row per lane). The
    /// accumulation order — `(bias + w·x) + u·h`, each dot product summed
    /// in ascending `k` into its own accumulator — mirrors
    /// `Param::matvec_into` exactly; changing it breaks bit-identity with
    /// the reference path. `rec` picks where `u·h` and the previous cells
    /// come from: the `h`/`c` rows themselves, or a frozen prefix (then
    /// `h` and `c` are outputs only).
    #[inline(always)]
    fn step(
        &self,
        x: LayerInput<'_>,
        rec: Recurrent<'_>,
        h: &mut [f64],
        c: &mut [f64],
        pre: &mut [f64],
        m: usize,
    ) {
        let hd = self.hidden;
        let g = 4 * hd;
        debug_assert_eq!(h.len(), m * hd);
        debug_assert_eq!(c.len(), m * hd);
        let pre = &mut pre[..m * g];
        let w_cols = &self.cols[..self.input * g];
        match x {
            // `bias + W·x` is the same for every lane: compute it once.
            LayerInput::Shared(x) => {
                debug_assert_eq!(x.len(), self.input);
                let (first, rest) = pre.split_at_mut(g);
                affine_rows(x, self.input, w_cols, &self.bias, first, 1);
                for row in rest.chunks_exact_mut(g) {
                    row.copy_from_slice(first);
                }
            }
            LayerInput::Lanes(x) => {
                debug_assert_eq!(x.len(), m * self.input);
                affine_rows(x, self.input, w_cols, &self.bias, pre, m);
            }
        }
        match rec {
            Recurrent::State => gemm_acc(h, hd, m, hd, self.u_cols(), g, pre, g, g),
            // The `h` pass's store, from the stored chain (module docs).
            Recurrent::Frozen { prefixes, layer } => {
                let lanes = pre.chunks_exact_mut(g).zip(c.chunks_exact_mut(hd));
                for ((row, c), prefix) in lanes.zip(prefixes) {
                    let (r, cells) = prefix.layer(layer);
                    for (p, &r) in row.iter_mut().zip(r) {
                        *p = canonical_nan(*p + r);
                    }
                    c.copy_from_slice(cells);
                }
            }
        }
        for row in pre.chunks_exact_mut(g) {
            // i/f/o gates are the contiguous sigmoid units, g the tanh ones.
            let (sig, cand) = row.split_at_mut(3 * hd);
            fast_sigmoid_slice(sig);
            fast_tanh_slice(cand);
        }
        // Cell update staged so `tanh(c)` also runs through the slice
        // kernel: `h = o * tanh(f*c + i*g)` per element, the reference's
        // op sequence.
        for ((row, c), h) in pre
            .chunks_exact(g)
            .zip(c.chunks_exact_mut(hd))
            .zip(h.chunks_exact_mut(hd))
        {
            let (i, rest) = row.split_at(hd);
            let (f, rest) = rest.split_at(hd);
            let cand = &rest[hd..];
            let units = c.iter_mut().zip(h.iter_mut()).zip(i).zip(f).zip(cand);
            for ((((cj, hj), &ij), &fj), &gj) in units {
                let v = fj * *cj + ij * gj;
                *cj = v;
                *hj = v;
            }
        }
        fast_tanh_slice(h);
        for (row, h) in pre.chunks_exact(g).zip(h.chunks_exact_mut(hd)) {
            for (hj, oj) in h.iter_mut().zip(&row[2 * hd..3 * hd]) {
                *hj *= oj;
            }
        }
    }
}

/// Where one [`FusedLstm::step`] takes `Σ u·h` and the previous cells.
#[derive(Clone, Copy)]
enum Recurrent<'a> {
    /// From the stepped lanes' own `h` and `c` rows.
    State,
    /// Lane `i`'s from layer `layer` (0 or 1) of `prefixes[i]`.
    Frozen {
        prefixes: &'a [&'a FrozenPrefix],
        layer: usize,
    },
}

/// The input of one [`FusedLstm::step`].
#[derive(Clone, Copy)]
enum LayerInput<'a> {
    /// One row that every lane steps (layer 1 of a shared-row step).
    Shared(&'a [f64]),
    /// `[m x input]` rows, one per lane (layer 1 of a lane-row step;
    /// layer 2 always reads layer 1's `h`).
    Lanes(&'a [f64]),
}

/// One compiled dense layer: the weights k-major (`[input x output]`, the
/// transpose of `Dense::w`), so the affine map of `m` lane rows is one
/// `gemm_acc` product.
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

    /// `Dense::infer` of each of the `m` lane rows of `x` (`[m x input]`)
    /// into the matching row of `out` (`[m x output]`), bit-identical per
    /// row. Reads and writes only the first `m` rows.
    fn infer_rows(&self, x: &[f64], out: &mut [f64], m: usize) {
        affine_rows(&x[..m * self.input], self.input, &self.cols, &self.bias, out, m);
        let out = &mut out[..m * self.output];
        match self.activation {
            Activation::Linear => {}
            Activation::Sigmoid => fast_sigmoid_slice(out),
            Activation::PRelu => {
                for row in out.chunks_exact_mut(self.output) {
                    for (z, a) in row.iter_mut().zip(&self.alpha) {
                        let v = *z;
                        *z = if v > 0.0 { v } else { a * v };
                    }
                }
            }
        }
    }
}

/// Hidden/cell state of both LSTM layers at some point in a window.
///
/// Separate from [`InferenceScratch`] so callers can keep *several*
/// states per engine (the FFC checkpoints the state after its history
/// rows and copies it into a working state each tick; a fleet session
/// keeps its next window's partial state between ticks) while sharing
/// one scratch. The four rows share one allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamState {
    /// `[h1 | c1 | h2 | c2]`, `hidden` values each.
    buf: Box<[f64]>,
}

impl StreamState {
    fn zeros(hidden: usize) -> Self {
        StreamState {
            buf: vec![0.0; 4 * hidden].into_boxed_slice(),
        }
    }

    /// Resets to the zero state (start of a window).
    pub fn reset(&mut self) {
        self.buf.fill(0.0);
    }

    /// Overwrites this state with `other` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the states belong to differently-sized engines.
    pub fn copy_from(&mut self, other: &StreamState) {
        self.buf.copy_from_slice(&other.buf);
    }

    /// Heap bytes held by this state: the four hidden-sized `f64`
    /// rows (`4 * hidden * 8`).
    pub fn resident_bytes(&self) -> usize {
        self.buf.len() * std::mem::size_of::<f64>()
    }

    /// The state rows `[h1, c1, h2, c2]`, for callers that compare
    /// states bit for bit.
    pub fn parts(&self) -> [&[f64]; 4] {
        let hd = self.buf.len() / 4;
        let (h1, rest) = self.buf.split_at(hd);
        let (c1, rest) = rest.split_at(hd);
        let (h2, c2) = rest.split_at(hd);
        [h1, c1, h2, c2]
    }

    /// [`StreamState::parts`], mutable.
    fn parts_mut(&mut self) -> [&mut [f64]; 4] {
        let hd = self.buf.len() / 4;
        let (h1, rest) = self.buf.split_at_mut(hd);
        let (c1, rest) = rest.split_at_mut(hd);
        let (h2, c2) = rest.split_at_mut(hd);
        [h1, c1, h2, c2]
    }
}

/// Hidden/cell states of both LSTM layers for several lanes, stepped
/// together.
///
/// Each state vector is a contiguous `[lanes x hidden]` block, lane `j`
/// in row `j`, so [`StreamingRegressor::step_lanes`] runs the lanes as
/// the rows of one GEMM over the engine's k-major weights. The bank also
/// owns the `[lanes x 4*hidden]` gate panel that step works in; all five
/// blocks share one allocation. A lane steps to the same bits as a
/// [`StreamState`] fed the same rows. Build via
/// [`StreamingRegressor::bank`]; nothing allocates after that.
#[derive(Debug, Clone)]
pub struct StateBank {
    pub(crate) hidden: usize,
    pub(crate) lanes: usize,
    /// `[h1 | c1 | h2 | c2 | pre]`: four `[lanes x hidden]` state blocks,
    /// then the gate panel, one `4*hidden` row per lane.
    buf: Vec<f64>,
}

impl StateBank {
    fn zeros(hidden: usize, lanes: usize) -> Self {
        StateBank {
            hidden,
            lanes,
            buf: vec![0.0; 8 * lanes * hidden],
        }
    }

    /// The blocks `[h1, c1, h2, c2, pre]`.
    fn blocks(&mut self) -> [&mut [f64]; 5] {
        let n = self.lanes * self.hidden;
        let (h1, rest) = self.buf.split_at_mut(n);
        let (c1, rest) = rest.split_at_mut(n);
        let (h2, rest) = rest.split_at_mut(n);
        let (c2, pre) = rest.split_at_mut(n);
        [h1, c1, h2, c2, pre]
    }

    /// Where lane `lane` starts in state block `block` (0..4 for
    /// `h1, c1, h2, c2`).
    fn at(&self, block: usize, lane: usize) -> usize {
        (block * self.lanes + lane) * self.hidden
    }

    /// Heap bytes held by this bank (states and gate panel).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.buf.len() * std::mem::size_of::<f64>()
    }

    /// Rows `lanes` of state block `block` (0..4 for `h1, c1, h2, c2`),
    /// contiguous.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the bank.
    pub(crate) fn rows(&self, block: usize, lanes: Range<usize>) -> &[f64] {
        assert!(lanes.end <= self.lanes, "lanes {lanes:?} of {}", self.lanes);
        &self.buf[self.at(block, lanes.start)..self.at(block, lanes.end)]
    }

    /// [`StateBank::rows`], mutable.
    pub(crate) fn rows_mut(&mut self, block: usize, lanes: Range<usize>) -> &mut [f64] {
        assert!(lanes.end <= self.lanes, "lanes {lanes:?} of {}", self.lanes);
        let at = self.at(block, lanes.start)..self.at(block, lanes.end);
        &mut self.buf[at]
    }

    /// Resets every lane to the zero state.
    pub fn reset(&mut self) {
        let states = self.at(4, 0);
        self.buf[..states].fill(0.0);
    }

    /// Resets lane `lane` to the zero state (the start of a window).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn zero_lane(&mut self, lane: usize) {
        assert!(lane < self.lanes, "lane {lane} of {}", self.lanes);
        for block in 0..4 {
            let at = self.at(block, lane);
            self.buf[at..at + self.hidden].fill(0.0);
        }
    }

    /// Overwrites lane `dst` with lane `src`.
    ///
    /// # Panics
    ///
    /// Panics if either lane is out of range.
    pub fn copy_lane(&mut self, src: usize, dst: usize) {
        assert!(src.max(dst) < self.lanes, "lanes {src}, {dst} of {}", self.lanes);
        for block in 0..4 {
            let (from, to) = (self.at(block, src), self.at(block, dst));
            self.buf.copy_within(from..from + self.hidden, to);
        }
    }

    /// Overwrites lane `lane` with `state` (four row copies).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `state` belongs to another
    /// engine shape.
    pub fn load_lane(&mut self, lane: usize, state: &StreamState) {
        for (b, v) in state.parts().into_iter().enumerate() {
            self.rows_mut(b, lane..lane + 1).copy_from_slice(v);
        }
    }

    /// Copies lane `lane` out into `state` (four row copies).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or `state` belongs to another
    /// engine shape.
    pub fn store_lane(&self, lane: usize, state: &mut StreamState) {
        for (b, v) in state.parts_mut().into_iter().enumerate() {
            v.copy_from_slice(self.rows(b, lane..lane + 1));
        }
    }
}

/// A completed prefix frozen for its live steps.
///
/// A prefix (the LSTM state after a window's history rows) is read by
/// every live step until the next ring push replaces it, so its
/// recurrent products need computing only once. A frozen prefix keeps
/// both layers' cells `c1, c2` and their accumulators `r1 = Σ u·h1`,
/// `r2 = Σ u·h2` (module docs), `10 * hidden` values in all; its `h`
/// rows are not needed again. Start from
/// [`StreamingRegressor::zero_prefix`] (the frozen zero state), fill with
/// [`StreamingRegressor::freeze_lanes`] or
/// [`StreamingRegressor::freeze_lanes_with`], step from with
/// [`StreamingRegressor::step_frozen`].
#[derive(Debug, Clone)]
pub struct FrozenPrefix {
    /// Both layers' cells (`hidden` each).
    c1: Box<[f64]>,
    c2: Box<[f64]>,
    /// Both layers' stored `Σ u·h` (`4*hidden` each).
    r1: Box<[f64]>,
    r2: Box<[f64]>,
}

impl FrozenPrefix {
    /// The hidden size of the engine this prefix belongs to.
    fn hidden(&self) -> usize {
        self.c1.len()
    }

    /// Layer `layer`'s (0 or 1) accumulators and cells.
    fn layer(&self, layer: usize) -> (&[f64], &[f64]) {
        match layer {
            0 => (&self.r1, &self.c1),
            _ => (&self.r2, &self.c2),
        }
    }

    /// [`FrozenPrefix::layer`], mutable.
    fn layer_mut(&mut self, layer: usize) -> (&mut [f64], &mut [f64]) {
        match layer {
            0 => (&mut self.r1, &mut self.c1),
            _ => (&mut self.r2, &mut self.c2),
        }
    }

    /// The rows `[c1, r1, c2, r2]`, for callers that compare prefixes
    /// bit for bit.
    pub fn parts(&self) -> [&[f64]; 4] {
        [&self.c1, &self.r1, &self.c2, &self.r2]
    }

    /// Heap bytes held: `10 * hidden` values.
    pub fn resident_bytes(&self) -> usize {
        self.parts().iter().map(|p| p.len()).sum::<usize>() * std::mem::size_of::<f64>()
    }

    /// Overwrites this prefix with `other` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the prefixes belong to differently-sized engines.
    pub fn copy_from(&mut self, other: &FrozenPrefix) {
        self.c1.copy_from_slice(&other.c1);
        self.c2.copy_from_slice(&other.c2);
        self.r1.copy_from_slice(&other.r1);
        self.r2.copy_from_slice(&other.r2);
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
    /// The frozen zero state, computed once here.
    zero_prefix: FrozenPrefix,
}

impl StreamingRegressor {
    /// Compiles a trained network. Equivalent to
    /// [`LstmRegressor::compile`].
    pub fn compile(model: &LstmRegressor) -> Self {
        let (lstm1, lstm2) = model.lstm_layers();
        let (fc_sigmoid, fc_prelu1, fc_prelu2, head) = model.dense_stack();
        let (lstm1, lstm2) = (FusedLstm::from_layer(lstm1), FusedLstm::from_layer(lstm2));
        let hd = model.config().hidden;
        let zeros = vec![0.0; hd];
        let (mut r1, mut r2) = (vec![0.0; 4 * hd], vec![0.0; 4 * hd]);
        lstm1.recurrent_into(&zeros, &mut r1, 1);
        lstm2.recurrent_into(&zeros, &mut r2, 1);
        let zero_prefix = FrozenPrefix {
            c1: zeros.clone().into_boxed_slice(),
            c2: zeros.into_boxed_slice(),
            r1: r1.into_boxed_slice(),
            r2: r2.into_boxed_slice(),
        };
        StreamingRegressor {
            config: *model.config(),
            lstm1,
            lstm2,
            fc_sigmoid: CompiledDense::from_dense(fc_sigmoid),
            fc_prelu1: CompiledDense::from_dense(fc_prelu1),
            fc_prelu2: CompiledDense::from_dense(fc_prelu2),
            head: CompiledDense::from_dense(head),
            normalizer: model.normalizer().clone(),
            target_normalizer: model.target_normalizer().clone(),
            zero_prefix,
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

    /// A zero [`StateBank`] of `lanes` lanes sized for this engine.
    pub fn bank(&self, lanes: usize) -> StateBank {
        StateBank::zeros(self.config.hidden, lanes)
    }

    /// The frozen zero state, the prefix of an empty history: zero cells,
    /// and the accumulators of a zero `h`, computed at compile time as any
    /// other freeze. Clone it for a prefix of one's own.
    pub fn zero_prefix(&self) -> &FrozenPrefix {
        &self.zero_prefix
    }

    /// Bytes a long-lived fleet session must keep *resident between
    /// ticks* to stream this engine: its prefix as a
    /// [`FrozenPrefix`] (`2 * hidden` cells plus `8 * hidden`
    /// accumulators, f64s), the partial state of its next window as a
    /// [`StreamState`] (`4 * hidden` f64s, stepped on the quiet tick after
    /// a push so the push steps only the rest), plus a normalized history
    /// ring of `window - 1` feature rows (`(window - 1) * input_dim`
    /// f64s). This sizes the fleet's ring session, not the single-vehicle
    /// FFC, which keeps a [`StateBank`] of partial windows instead of a
    /// ring.
    ///
    /// Engine weights and the [`InferenceScratch`] are shared across any
    /// number of sessions and are deliberately excluded — this is the
    /// marginal cost of one more session, the number fleet capacity
    /// planning multiplies by the session count (see `OPERATIONS.md`).
    pub fn session_state_bytes(&self) -> usize {
        let f64s = 10 * self.config.hidden
            + 4 * self.config.hidden
            + (self.config.window - 1) * self.config.input_dim;
        f64s * std::mem::size_of::<f64>()
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

    /// Advances lanes `lanes` of `bank` by the same *already-normalized*
    /// input row, as one `m`-row step (`m = lanes.len()`). Each lane ends
    /// with the bits [`StreamingRegressor::step_normed`] would give a
    /// [`StreamState`] holding that lane; lanes outside the range are
    /// untouched.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::FeatureDim`] if the row has the wrong
    /// length and [`PredictError::LaneRange`] if the range runs past the
    /// bank.
    pub fn step_lanes(
        &self,
        x_normed: &[f64],
        bank: &mut StateBank,
        lanes: Range<usize>,
    ) -> Result<(), PredictError> {
        self.check_step(x_normed.len(), 1, bank, &lanes)?;
        self.step_bank(LayerInput::Shared(x_normed), None, bank, lanes);
        Ok(())
    }

    /// Advances lanes `lanes` of `bank` by one *already-normalized* row
    /// each, as one `m`-row step: `rows` is `[m x input_dim]`, row `i`
    /// for lane `lanes.start + i`. Each lane ends with the bits
    /// [`StreamingRegressor::step_normed`] would give a [`StreamState`]
    /// holding that lane fed its row; lanes outside the range are
    /// untouched.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::FeatureDim`] if `rows` is not `m` rows
    /// long and [`PredictError::LaneRange`] if the range runs past the
    /// bank.
    pub fn step_lane_rows(
        &self,
        rows: &[f64],
        bank: &mut StateBank,
        lanes: Range<usize>,
    ) -> Result<(), PredictError> {
        self.check_step(rows.len(), lanes.len(), bank, &lanes)?;
        self.step_bank(LayerInput::Lanes(rows), None, bank, lanes);
        Ok(())
    }

    /// The live step from frozen prefixes: lane `lanes.start + i` of
    /// `bank` steps one *already-normalized* row `i` of `rows`
    /// (`[m x input_dim]`, `m = lanes.len()`) from `prefixes[i]`, as one
    /// `m`-row step that reads `Σ u·h` from the prefixes instead of
    /// computing it. Each lane ends with the bits
    /// [`StreamingRegressor::step_normed`] gives the unfrozen prefix fed
    /// the same row; its previous contents are not read. The prefixes
    /// are read where they lie (a fleet session's own, say): nothing is
    /// copied into the bank first.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::FeatureDim`] if `rows` is not `m` rows
    /// long, and [`PredictError::LaneRange`] if the range runs past the
    /// bank or `prefixes` is not `m` prefixes of this engine's shape.
    pub fn step_frozen(
        &self,
        rows: &[f64],
        prefixes: &[&FrozenPrefix],
        bank: &mut StateBank,
        lanes: Range<usize>,
    ) -> Result<(), PredictError> {
        self.check_step(rows.len(), lanes.len(), bank, &lanes)?;
        let hd = self.config.hidden;
        if prefixes.len() != lanes.len() || prefixes.iter().any(|p| p.hidden() != hd) {
            return Err(PredictError::LaneRange {
                end: lanes.end,
                lanes: prefixes.len(),
            });
        }
        self.step_bank(LayerInput::Lanes(rows), Some(prefixes), bank, lanes);
        Ok(())
    }

    /// Freezes lanes `lanes` of `bank` into `frozen[i]` for lane
    /// `lanes.start + i`: [`StreamingRegressor::freeze_lanes_with`] over
    /// a slice of prefixes.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::LaneRange`] if the range runs past the
    /// bank or `frozen` is not `m = lanes.len()` prefixes of this
    /// engine's shape.
    pub fn freeze_lanes(
        &self,
        bank: &mut StateBank,
        lanes: Range<usize>,
        frozen: &mut [FrozenPrefix],
    ) -> Result<(), PredictError> {
        if frozen.len() != lanes.len() {
            return Err(PredictError::LaneRange {
                end: lanes.end,
                lanes: frozen.len(),
            });
        }
        self.freeze_lanes_with(bank, lanes, frozen, |f, i| &mut f[i])
    }

    /// Freezes lanes `lanes` of `bank` into the prefixes `prefix(owner, i)`
    /// picks for lane `lanes.start + i`, wherever they lie (a fleet
    /// session's own, say): copies the cells and computes both layers'
    /// `Σ u·h`, one recurrent GEMM pair for all `m = lanes.len()` lanes,
    /// through the bank's gate panel, so each prefix is written once,
    /// straight from the panel. `prefix` is called once per lane to check
    /// the shapes, then once per lane and layer to write. The lanes'
    /// states are untouched.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::LaneRange`] if the range runs past the
    /// bank or a picked prefix has another engine's shape; nothing is
    /// written then.
    pub fn freeze_lanes_with<C: ?Sized>(
        &self,
        bank: &mut StateBank,
        lanes: Range<usize>,
        owner: &mut C,
        mut prefix: impl FnMut(&mut C, usize) -> &mut FrozenPrefix,
    ) -> Result<(), PredictError> {
        self.check_lanes(bank, &lanes)?;
        let (hd, m) = (self.config.hidden, lanes.len());
        if (0..m).any(|i| prefix(owner, i).hidden() != hd) {
            return Err(PredictError::LaneRange {
                end: lanes.end,
                lanes: m,
            });
        }
        let at = lanes.start * hd..lanes.end * hd;
        let [h1, c1, h2, c2, pre] = bank.blocks();
        let g = 4 * hd;
        for (lstm, h, c, layer) in [(&self.lstm1, h1, c1, 0), (&self.lstm2, h2, c2, 1)] {
            lstm.recurrent_into(&h[at.clone()], pre, m);
            let rows = pre.chunks_exact(g).zip(c[at.clone()].chunks_exact(hd));
            for (i, (r, c)) in rows.enumerate() {
                let (pr, pc) = prefix(owner, i).layer_mut(layer);
                pr.copy_from_slice(r);
                pc.copy_from_slice(c);
            }
        }
        Ok(())
    }

    /// Checks a lane step's input length (`per` rows of `input_dim`) and
    /// its lane range.
    fn check_step(
        &self,
        got: usize,
        per: usize,
        bank: &StateBank,
        lanes: &Range<usize>,
    ) -> Result<(), PredictError> {
        if got != per * self.config.input_dim {
            return Err(PredictError::FeatureDim {
                step: 0,
                got,
                expected: per * self.config.input_dim,
            });
        }
        self.check_lanes(bank, lanes)
    }

    /// Checks that `lanes` lies inside `bank` and the bank has this
    /// engine's shape.
    fn check_lanes(&self, bank: &StateBank, lanes: &Range<usize>) -> Result<(), PredictError> {
        if lanes.end > bank.lanes || bank.hidden != self.config.hidden {
            return Err(PredictError::LaneRange {
                end: lanes.end,
                lanes: bank.lanes,
            });
        }
        Ok(())
    }

    /// One `m`-row double step of lanes `lanes` of `bank` (checked by the
    /// caller): layer 1 consumes `x`, layer 2 the *updated* `h1`. The
    /// lanes step from their own state, or lane `i` from `frozen[i]`.
    fn step_bank(
        &self,
        x: LayerInput<'_>,
        frozen: Option<&[&FrozenPrefix]>,
        bank: &mut StateBank,
        lanes: Range<usize>,
    ) {
        let m = lanes.len();
        if m == 0 {
            return;
        }
        let (rec1, rec2) = match frozen {
            None => (Recurrent::State, Recurrent::State),
            Some(prefixes) => (
                Recurrent::Frozen { prefixes, layer: 0 },
                Recurrent::Frozen { prefixes, layer: 1 },
            ),
        };
        let hd = self.config.hidden;
        let at = lanes.start * hd..lanes.end * hd;
        let [h1, c1, h2, c2, pre] = bank.blocks();
        let (h1, c1) = (&mut h1[at.clone()], &mut c1[at.clone()]);
        self.lstm1.step(x, rec1, h1, c1, pre, m);
        let (h2, c2) = (&mut h2[at.clone()], &mut c2[at]);
        self.lstm2.step(LayerInput::Lanes(h1), rec2, h2, c2, pre, m);
    }

    /// [`StreamingRegressor::finish_into`] from lane `lane` of `bank`.
    ///
    /// # Errors
    ///
    /// Returns [`PredictError::LaneRange`] if the lane is out of range and
    /// [`PredictError::OutputLength`] if `out` has the wrong length.
    pub fn finish_lane_into(
        &self,
        bank: &StateBank,
        lane: usize,
        scratch: &mut InferenceScratch,
        out: &mut [f64],
    ) -> Result<(), PredictError> {
        if lane >= bank.lanes || bank.hidden != self.config.hidden {
            return Err(PredictError::LaneRange {
                end: lane + 1,
                lanes: bank.lanes,
            });
        }
        self.finish_checked(bank.rows(2, lane..lane + 1), scratch, out)
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
        self.finish_checked(state.parts()[2], scratch, out)
    }

    /// The dense stack from layer 2's `h`, after checking `out`.
    fn finish_checked(
        &self,
        h2: &[f64],
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
        self.finish_rows(h2, fc_a, fc_b, z, out, 1);
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
        self.finish_rows(state.parts()[2], fc_a, fc_b, z, out, 1);
        Ok(())
    }

    /// Core LSTM double-step, the one-lane case of
    /// [`StreamingRegressor::step_lanes`]: layer 1 consumes `x`, layer 2
    /// consumes the *updated* `h1` — the same ordering as the reference
    /// loop.
    fn step_raw(&self, x: &[f64], state: &mut StreamState, pre: &mut [f64]) {
        let [h1, c1, h2, c2] = state.parts_mut();
        self.lstm1.step(LayerInput::Shared(x), Recurrent::State, h1, c1, pre, 1);
        self.lstm2.step(LayerInput::Lanes(h1), Recurrent::State, h2, c2, pre, 1);
    }

    /// Dense stack + de-normalization of `m` lane rows: `h2` is
    /// `[m x hidden]`, `fc_a`/`fc_b` hold at least `m` rows of
    /// `fc_width`, `z` and `out` at least `m` rows of `output_dim`.
    /// Ping-pongs between the two fc buffers so no layer reads and writes
    /// the same slice; writes only the first `m` rows of each buffer.
    pub(crate) fn finish_rows(
        &self,
        h2: &[f64],
        fc_a: &mut [f64],
        fc_b: &mut [f64],
        z: &mut [f64],
        out: &mut [f64],
        m: usize,
    ) {
        self.fc_sigmoid.infer_rows(h2, fc_a, m);
        self.fc_prelu1.infer_rows(fc_a, fc_b, m);
        self.fc_prelu2.infer_rows(fc_b, fc_a, m);
        self.head.infer_rows(fc_a, z, m);
        let od = self.config.output_dim;
        for (z, out) in z.chunks_exact(od).zip(out.chunks_exact_mut(od)).take(m) {
            self.target_normalizer.inverse_into(z, out);
        }
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
        // tiny: hidden 6, window 5, input 2. A session keeps its prefix
        // frozen (two cell rows and two 4-gate accumulator rows) and its
        // next window's partial state.
        let expected_state = 4 * c.hidden * 8;
        let expected_frozen = (2 * c.hidden + 8 * c.hidden) * 8;
        let expected_ring = (c.window - 1) * c.input_dim * 8;
        assert_eq!(
            engine.session_state_bytes(),
            expected_frozen + expected_state + expected_ring
        );
        assert_eq!(engine.zero_prefix().resident_bytes(), expected_frozen);
        assert_eq!(engine.state().resident_bytes(), expected_state);
        let scratch = engine.scratch();
        assert_eq!(
            scratch.resident_bytes(),
            expected_state + (c.input_dim + 4 * c.hidden + 2 * c.fc_width + c.output_dim) * 8
        );
    }

    #[test]
    fn lane_steps_match_single_state_steps() {
        // Window 5 at hidden 6: lane `j` starts after `j` rows, so the
        // lanes step different states through the same rows; the range
        // `1..4` leaves lanes 0 and 4 alone.
        let model = trained_tiny();
        let engine = model.compile();
        let mut scratch = engine.scratch();
        let mut bank = engine.bank(5);
        let mut states: Vec<StreamState> = (0..5).map(|_| engine.state()).collect();
        let mut normed = vec![0.0; 2];
        let lane = |bank: &StateBank, j: usize| {
            let buf = (0..4).flat_map(|b| bank.buf[bank.at(b, j)..bank.at(b, j) + 6].to_vec());
            StreamState { buf: buf.collect::<Vec<_>>().into_boxed_slice() }
        };
        for (t, row) in window_for(&model, 0.7).iter().enumerate() {
            engine.normalize_into(row, &mut normed).expect("dims");
            let lanes = if t == 4 { 1..4 } else { 0..t + 1 };
            engine.step_lanes(&normed, &mut bank, lanes.clone()).expect("in range");
            for j in lanes {
                engine.step_normed(&normed, &mut states[j], &mut scratch).expect("dims");
            }
            for (j, s) in states.iter().enumerate() {
                assert_eq!(&lane(&bank, j), s, "row {t}, lane {j}");
            }
        }
        let (mut a, mut b) = ([0.0], [0.0]);
        engine.finish_lane_into(&bank, 2, &mut scratch, &mut a).expect("in range");
        engine.finish_into(&states[2], &mut scratch, &mut b).expect("dims");
        assert_eq!(a[0].to_bits(), b[0].to_bits());
        bank.copy_lane(2, 4);
        assert_eq!(lane(&bank, 4), states[2]);
        bank.zero_lane(2);
        assert_eq!(lane(&bank, 2), engine.state());
        assert_eq!(
            engine.step_lanes(&normed, &mut bank, 3..6),
            Err(PredictError::LaneRange { end: 6, lanes: 5 })
        );
        assert_eq!(
            engine.step_lane_rows(&[0.0; 3], &mut bank, 0..2),
            Err(PredictError::FeatureDim { step: 0, got: 3, expected: 4 })
        );
        assert_eq!(
            engine.finish_lane_into(&bank, 5, &mut scratch, &mut a),
            Err(PredictError::LaneRange { end: 6, lanes: 5 })
        );
    }

    #[test]
    fn frozen_steps_match_single_state_steps() {
        // Lanes 0, 1, 2 of `bank` hold the states after 2, 1 and 0 rows;
        // frozen (with the zero prefix as a fourth), each prefix steps its
        // own row into lanes 1..5 of a second bank, against `step_normed`
        // from the unfrozen state.
        let model = trained_tiny();
        let engine = model.compile();
        let mut scratch = engine.scratch();
        let mut bank = engine.bank(3);
        let mut normed = vec![0.0; 2];
        for (t, row) in window_for(&model, 1.9).iter().take(2).enumerate() {
            engine.normalize_into(row, &mut normed).expect("dims");
            engine.step_lanes(&normed, &mut bank, 0..t + 1).expect("in range");
        }
        let mut frozen = vec![engine.zero_prefix().clone(); 4];
        engine.freeze_lanes(&mut bank, 0..3, &mut frozen[..3]).expect("in range");
        let prefixes: Vec<&FrozenPrefix> = frozen.iter().collect();
        let mut live = engine.bank(5);
        let rows: Vec<f64> = (0..8).map(|i| (i as f64 * 0.7).sin()).collect();
        engine.step_frozen(&rows, &prefixes, &mut live, 1..5).expect("in range");
        let mut want = engine.state();
        let mut got = engine.state();
        let (mut a, mut b) = ([0.0], [0.0]);
        for i in 0..4 {
            match i {
                3 => want.reset(),
                _ => bank.store_lane(i, &mut want),
            }
            engine.step_normed(&rows[2 * i..2 * i + 2], &mut want, &mut scratch).expect("dims");
            live.store_lane(1 + i, &mut got);
            for (x, y) in got.parts().into_iter().zip(want.parts()) {
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(x), bits(y), "lane {i}");
            }
            engine.finish_lane_into(&live, 1 + i, &mut scratch, &mut a).expect("in range");
            engine.finish_into(&want, &mut scratch, &mut b).expect("dims");
            assert_eq!(a[0].to_bits(), b[0].to_bits(), "lane {i}");
        }
        assert_eq!(
            engine.step_frozen(&rows, &prefixes, &mut live, 2..6),
            Err(PredictError::LaneRange { end: 6, lanes: 5 })
        );
        assert_eq!(
            engine.step_frozen(&rows, &prefixes[..3], &mut live, 0..4),
            Err(PredictError::LaneRange { end: 4, lanes: 3 })
        );
        assert_eq!(
            engine.step_frozen(&rows[..6], &prefixes, &mut live, 0..4),
            Err(PredictError::FeatureDim { step: 0, got: 6, expected: 8 })
        );
        assert_eq!(
            engine.freeze_lanes(&mut bank, 0..2, &mut frozen[..1]),
            Err(PredictError::LaneRange { end: 2, lanes: 1 })
        );
        // A prefix of another engine shape is refused both ways.
        let config = RegressorConfig { hidden: 3, ..RegressorConfig::tiny(2, 1) };
        let mut foreign = [LstmRegressor::new(config, 0).compile().zero_prefix().clone()];
        assert!(engine.freeze_lanes(&mut bank, 0..1, &mut foreign).is_err());
        assert!(engine.step_frozen(&rows[..2], &[&foreign[0]], &mut live, 0..1).is_err());
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

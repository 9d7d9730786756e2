//! Lane-row batches: many sessions or windows of one model stepped
//! together. A [`BatchScratch`] is a [`StateBank`] of `width` lanes plus
//! `[width x input_dim]` input rows and the dense stack's row buffers;
//! [`BatchedStreamingRegressor`] borrows
//! a compiled [`StreamingRegressor`] and steps a range of lanes as the
//! rows of one GEMM per gate block over its k-major weights
//! ([`StreamingRegressor::step_lane_rows`]), then the dense stack over the
//! same rows. The fleet shards and the threshold calibration
//! (`FfcModel::replay`) run their inference through it. The fleet's live
//! lanes step from their sessions' frozen prefixes instead, read in place
//! ([`BatchedStreamingRegressor::step_frozen_batch`]), and its ring
//! replays freeze their lanes straight into the sessions' prefixes for
//! the next live steps ([`BatchedStreamingRegressor::freeze_batch`]).
//!
//! Each lane is its own row of every GEMM, summed in ascending `k` with the
//! `(bias + w·x) + u·h` reduction of the streaming step, so a lane steps to
//! the bits `StreamingRegressor::step_normed` gives the same state and
//! row, whatever lanes it steps with. `crates/ml/tests/batch_bit_identity.rs`
//! gates this with `to_bits`; `exp_perf` re-gates it before timing.

use std::ops::Range;
use crate::stream::{FrozenPrefix, StateBank, StreamState, StreamingRegressor};

/// Where lane `lane` sits in a `[width x dim]` block of `len` values.
fn lane_at(len: usize, width: usize, lane: usize) -> Range<usize> {
    assert!(lane < width, "lane {lane} >= width {width}");
    let dim = len / width;
    lane * dim..(lane + 1) * dim
}

/// Caller-owned working set of a [`BatchedStreamingRegressor`]: one row
/// per lane in every block, allocated once at a fixed `width`. Lanes
/// outside a call's range are neither read nor written. Every method
/// panics on a lane past `width` or a row, state or output sized for
/// another engine.
#[derive(Debug, Clone)]
pub struct BatchScratch {
    /// LSTM states and gate panel.
    bank: StateBank,
    /// Normalized input rows (`[width x input_dim]`).
    x: Vec<f64>,
    /// Dense ping-pong rows (`fc_width` each), then normalized and
    /// de-normalized outputs (`output_dim` each).
    fc_a: Vec<f64>,
    fc_b: Vec<f64>,
    z: Vec<f64>,
    out: Vec<f64>,
}

impl BatchScratch {
    /// The lane capacity this scratch was allocated for.
    pub fn width(&self) -> usize {
        self.bank.lanes
    }

    /// Heap bytes held by this scratch.
    pub fn resident_bytes(&self) -> usize {
        let rows = self.x.len() + self.fc_a.len() + self.fc_b.len() + self.z.len() + self.out.len();
        self.bank.resident_bytes() + rows * std::mem::size_of::<f64>()
    }

    /// Zeroes every lane's LSTM state (the start of a window).
    pub fn reset_states(&mut self) {
        self.bank.reset();
    }

    /// Copies one *already-normalized* input row into `lane`'s row.
    pub fn load_row(&mut self, lane: usize, normed: &[f64]) {
        self.row_mut(lane).copy_from_slice(normed);
    }

    /// `lane`'s input row, to fill in place.
    pub fn row_mut(&mut self, lane: usize) -> &mut [f64] {
        let at = lane_at(self.x.len(), self.width(), lane);
        &mut self.x[at]
    }

    /// `lane`'s input row.
    pub fn row(&self, lane: usize) -> &[f64] {
        &self.x[lane_at(self.x.len(), self.width(), lane)]
    }

    /// Overwrites `lane`'s LSTM state with `state` (four row copies).
    pub fn load_state(&mut self, lane: usize, state: &StreamState) {
        self.bank.load_lane(lane, state);
    }

    /// Copies `lane`'s LSTM state out into `state` (four row copies).
    pub fn store_state(&self, lane: usize, state: &mut StreamState) {
        self.bank.store_lane(lane, state);
    }

    /// Overwrites lane `dst`'s LSTM state with lane `src`'s.
    pub fn copy_lane(&mut self, src: usize, dst: usize) {
        self.bank.copy_lane(src, dst);
    }

    /// Copies the de-normalized prediction of `lane`'s last finish into
    /// `out`.
    pub fn read_output(&self, lane: usize, out: &mut [f64]) {
        out.copy_from_slice(&self.out[lane_at(self.out.len(), self.width(), lane)]);
    }
}

/// The batched form of a compiled [`StreamingRegressor`]: a borrow of
/// it that steps the lanes of a [`BatchScratch`] (see the module docs),
/// panicking on a lane range past the scratch or a scratch sized for
/// another engine.
///
/// # Examples
///
/// ```
/// use pidpiper_ml::{BatchedStreamingRegressor, LstmRegressor, RegressorConfig};
///
/// let engine = LstmRegressor::new(RegressorConfig::tiny(2, 1), 7).compile();
/// let batched = BatchedStreamingRegressor::compile(&engine);
/// let mut scratch = batched.scratch(8);
/// scratch.load_row(2, &[0.2, -0.2]);
/// batched.step_batch(&mut scratch, 3);
/// batched.finish_batch(&mut scratch, 3);
/// // Lane 2 is bit-identical to the per-session path:
/// let (mut state, mut solo, mut one, mut lane) = (engine.state(), engine.scratch(), [0.0], [0.0]);
/// engine.step_normed(&[0.2, -0.2], &mut state, &mut solo).unwrap();
/// engine.finish_into(&state, &mut solo, &mut one).unwrap();
/// scratch.read_output(2, &mut lane);
/// assert_eq!(lane[0].to_bits(), one[0].to_bits());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BatchedStreamingRegressor<'a> {
    engine: &'a StreamingRegressor,
}

impl<'a> BatchedStreamingRegressor<'a> {
    /// The batched form of `engine`, a borrow: copies no weight.
    pub fn compile(engine: &'a StreamingRegressor) -> Self {
        BatchedStreamingRegressor { engine }
    }

    /// A fresh [`BatchScratch`] with zero states for `width` lanes.
    pub fn scratch(&self, width: usize) -> BatchScratch {
        let c = self.engine.config();
        BatchScratch {
            bank: self.engine.bank(width),
            x: vec![0.0; width * c.input_dim],
            fc_a: vec![0.0; width * c.fc_width],
            fc_b: vec![0.0; width * c.fc_width],
            z: vec![0.0; width * c.output_dim],
            out: vec![0.0; width * c.output_dim],
        }
    }

    /// [`BatchedStreamingRegressor::step_range`] over lanes `0..n`.
    pub fn step_batch(&self, scratch: &mut BatchScratch, n: usize) {
        self.step_range(scratch, 0..n);
    }

    /// [`BatchedStreamingRegressor::finish_range`] over lanes `0..n`.
    pub fn finish_batch(&self, scratch: &mut BatchScratch, n: usize) {
        self.finish_range(scratch, 0..n);
    }

    /// Advances every lane in `lanes` by its loaded input row, as one
    /// `m`-row step.
    pub fn step_range(&self, scratch: &mut BatchScratch, lanes: Range<usize>) {
        let dim = self.engine.config().input_dim;
        let rows = &scratch.x[lanes.start * dim..lanes.end * dim];
        let stepped = self.engine.step_lane_rows(rows, &mut scratch.bank, lanes);
        assert!(stepped.is_ok(), "lane step refused: {stepped:?}");
    }

    /// Steps lanes `0..n` (`n = prefixes.len()`) from `prefixes`, lane
    /// `i` by its loaded input row from `prefixes[i]`, as one `m`-row step
    /// ([`StreamingRegressor::step_frozen`]): the live step of `n`
    /// sessions, one GEMM per layer fewer than
    /// [`BatchedStreamingRegressor::step_batch`] from the same prefixes.
    pub fn step_frozen_batch(&self, scratch: &mut BatchScratch, prefixes: &[&FrozenPrefix]) {
        let n = prefixes.len();
        let rows = &scratch.x[..n * self.engine.config().input_dim];
        let stepped = self
            .engine
            .step_frozen(rows, prefixes, &mut scratch.bank, 0..n);
        assert!(stepped.is_ok(), "frozen step refused: {stepped:?}");
    }

    /// Freezes the LSTM states of lanes `0..n` straight into the
    /// prefixes `prefix(owner, lane)` picks
    /// ([`StreamingRegressor::freeze_lanes_with`]; one recurrent GEMM
    /// pair for all `n`).
    pub fn freeze_batch<C: ?Sized>(
        &self,
        scratch: &mut BatchScratch,
        n: usize,
        owner: &mut C,
        prefix: impl FnMut(&mut C, usize) -> &mut FrozenPrefix,
    ) {
        let stored = self
            .engine
            .freeze_lanes_with(&mut scratch.bank, 0..n, owner, prefix);
        assert!(stored.is_ok(), "freeze refused: {stored:?}");
    }

    /// `StreamingRegressor::finish_into` over the lanes in `lanes` as `m`
    /// rows: their de-normalized predictions, read back with
    /// [`BatchScratch::read_output`].
    pub fn finish_range(&self, scratch: &mut BatchScratch, lanes: Range<usize>) {
        let c = self.engine.config();
        let shape = (scratch.bank.hidden, scratch.fc_a.len(), scratch.out.len());
        let want = (c.hidden, scratch.width() * c.fc_width, scratch.width() * c.output_dim);
        assert_eq!(shape, want, "scratch sized for another engine");
        let (at, m) = (lanes.start * c.output_dim, lanes.len());
        let BatchScratch { bank, fc_a, fc_b, z, out, .. } = scratch;
        self.engine
            .finish_rows(bank.rows(2, lanes), fc_a, fc_b, z, &mut out[at..], m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{LstmRegressor, RegressorConfig};

    /// An engine and the states after 0..5 rows of one stream.
    fn fixture() -> (StreamingRegressor, Vec<StreamState>) {
        let e = LstmRegressor::new(RegressorConfig::tiny(2, 1), 21).compile();
        let (mut s, mut solo) = (e.state(), e.scratch());
        let mut states = vec![s.clone()];
        for t in 1..5 {
            e.step_normed(&[0.3 * t as f64, -0.1], &mut s, &mut solo).expect("dims");
            states.push(s.clone());
        }
        (e, states)
    }

    #[test]
    fn batched_lane_matches_streaming_bitwise() {
        let (e, states) = fixture();
        let b = BatchedStreamingRegressor::compile(&e);
        let mut scratch = b.scratch(8);
        for (lane, s) in states.iter().enumerate() {
            scratch.load_state(lane, s);
            scratch.load_row(lane, &[0.2, 0.1 * lane as f64]);
        }
        b.step_batch(&mut scratch, 5);
        b.finish_batch(&mut scratch, 5);
        let (mut solo, mut want, mut got) = (e.scratch(), [0.0], [0.0]);
        for (lane, mut s) in states.into_iter().enumerate() {
            e.step_normed(&[0.2, 0.1 * lane as f64], &mut s, &mut solo).expect("dims");
            e.finish_into(&s, &mut solo, &mut want).expect("dims");
            scratch.read_output(lane, &mut got);
            assert_eq!(got[0].to_bits(), want[0].to_bits(), "lane {lane}");
        }
    }

    #[test]
    fn state_gather_scatter_round_trips() {
        let (e, states) = fixture();
        let mut scratch = BatchedStreamingRegressor::compile(&e).scratch(4);
        scratch.load_state(2, &states[3]);
        let mut back = e.state();
        scratch.store_state(2, &mut back);
        assert_eq!(back, states[3]);
        scratch.store_state(0, &mut back);
        assert_eq!(back, states[0], "other lanes stay zero");
    }

    #[test]
    fn lane_indexed_gather_copies_source_lanes() {
        // Repeated and reordered sources.
        let (e, states) = fixture();
        let mut scratch = BatchedStreamingRegressor::compile(&e).scratch(8);
        states.iter().enumerate().for_each(|(lane, s)| scratch.load_state(lane, s));
        let mut got = e.state();
        for (src, dst) in [(4, 5), (1, 6), (4, 7)] {
            scratch.copy_lane(src, dst);
            scratch.store_state(dst, &mut got);
            assert_eq!(got, states[src], "lane {dst}");
        }
    }
}

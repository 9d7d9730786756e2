//! From-scratch machine-learning substrate for PID-Piper's feed-forward
//! controller.
//!
//! The paper trains its models with TensorFlow 1.10 / Keras and deploys a
//! C++ inference module inside the autopilot. Neither is available here
//! (and Rust ML inference crates are thin), so this crate implements the
//! exact architecture the paper describes, end to end:
//!
//! > "Both the models have 2 layer stacked LSTM design, a Sigmoid neural
//! > net layer followed by 2 fully connected PRelu layers."
//!
//! Components:
//!
//! - [`lstm::LstmLayer`] — an LSTM cell;
//! - [`dense::Dense`] and [`dense::Activation`] — fully connected layers
//!   with Sigmoid / PReLU (learnable slope) / linear activations;
//! - [`adam::Adam`] — the Adam optimizer;
//! - [`network::LstmRegressor`] — the assembled sequence-to-one regression
//!   network (2x LSTM → sigmoid FC → 2x PReLU FC → linear head), with
//!   training, windowed inference and text (de)serialization. Training
//!   runs each 8-sample Adam group as lanes of one batched, allocation-free
//!   backpropagation through time over `pidpiper_math::gemm` (the private
//!   `train` module), bit-identical to training one sample at a time;
//! - [`stream::StreamingRegressor`] — the compiled, zero-allocation
//!   streaming form of the network (fused k-major LSTM gate blocks,
//!   caller-owned [`stream::InferenceScratch`]), bit-identical to the
//!   reference `predict` path. One step runs any number of lanes as the
//!   rows of `pidpiper_math::gemm` products over those blocks: one lane
//!   for a single [`stream::StreamState`], several for a
//!   [`stream::StateBank`]. A live step from a completed prefix reads
//!   that prefix's recurrent products from a [`stream::FrozenPrefix`]
//!   instead of recomputing them;
//! - [`batch::BatchedStreamingRegressor`] — the same lane-row step for
//!   batches that give every lane its own input row (fleet sessions,
//!   calibration windows), over a caller-owned [`batch::BatchScratch`];
//! - [`schedule::WindowSchedule`] — the one window and decimation rule:
//!   which ticks sample a row, how much history a tick reads, and how a
//!   push's work splits between the push and the quiet tick after it;
//! - [`normalize::Normalizer`] — per-feature standardization;
//! - [`dataset::WindowedDataset`] — sliding-window sample extraction from
//!   mission time series;
//! - [`selection`] — the paper's greedy forward feature selection and the
//!   VIF-based collinearity pruning of Section IV-C.
//!
//! Everything is deterministic given a seed, in `f64`.

#![deny(missing_docs)]

// Matrix/gradient kernels index rows and columns of several arrays with
// one shared loop variable; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod adam;
pub mod batch;
pub mod dataset;
pub mod dense;
pub mod digest;
pub mod lstm;
pub mod network;
pub mod normalize;
pub mod param;
pub mod schedule;
pub mod selection;
pub mod stream;
mod train;

pub use adam::Adam;
pub use batch::{BatchScratch, BatchedStreamingRegressor};
pub use dataset::WindowedDataset;
pub use dense::{Activation, Dense};
pub use digest::{fnv64, fnv64_hex};
pub use lstm::LstmLayer;
pub use network::{LstmRegressor, RegressorConfig, TrainReport};
pub use normalize::Normalizer;
pub use param::Param;
pub use schedule::{BankPush, RingReplay, WindowSchedule};
pub use selection::{greedy_forward_selection, vif_prune};
pub use stream::{
    FrozenPrefix, InferenceScratch, PredictError, StateBank, StreamState, StreamingRegressor,
};

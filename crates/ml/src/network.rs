//! The assembled regression network of the paper:
//! 2-layer stacked LSTM → sigmoid dense layer → 2 PReLU dense layers →
//! linear head. Sequence-to-one: a window of feature vectors in, one
//! actuator-signal prediction out.

use crate::adam::Adam;
use crate::dataset::WindowedDataset;
use crate::dense::{Activation, Dense};
use crate::lstm::{LstmLayer, LstmState};
use crate::normalize::Normalizer;
use crate::param::Param;
use crate::stream::{PredictError, StreamingRegressor};
use crate::train::{Net, TrainArena, GROUP};
use pidpiper_math::gemm::{self, Kernels};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;

/// Trainable tensors of the network: three per LSTM layer, two for the
/// sigmoid FC and the head, three (with the slopes) per PReLU FC.
const PARAMS: usize = 16;

/// Network hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegressorConfig {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Output dimension (the actuator signal's channels).
    pub output_dim: usize,
    /// Hidden size of each LSTM layer.
    pub hidden: usize,
    /// Width of the sigmoid + PReLU fully connected layers.
    pub fc_width: usize,
    /// Input window length (timesteps).
    pub window: usize,
}

impl RegressorConfig {
    /// The configuration used by the experiments: hidden 24, FC width 24,
    /// 20-step windows.
    pub fn standard(input_dim: usize, output_dim: usize) -> Self {
        RegressorConfig {
            input_dim,
            output_dim,
            hidden: 24,
            fc_width: 24,
            window: 20,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny(input_dim: usize, output_dim: usize) -> Self {
        RegressorConfig {
            input_dim,
            output_dim,
            hidden: 6,
            fc_width: 6,
            window: 5,
        }
    }

    /// The largest dimension a model text may declare
    /// ([`LstmRegressor::from_text`]): ten times the deployed FFC's widest
    /// (24). It bounds what a well-formed but hostile text can make the
    /// loader allocate (a few tens of MB at 256 in every dimension).
    pub const MAX_TEXT_DIM: usize = 256;

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn validate(&self) {
        assert!(self.input_dim > 0, "input_dim must be positive");
        assert!(self.output_dim > 0, "output_dim must be positive");
        assert!(self.hidden > 0, "hidden must be positive");
        assert!(self.fc_width > 0, "fc_width must be positive");
        assert!(self.window > 0, "window must be positive");
    }

    /// The checks a model text's dimensions must pass before anything is
    /// built from them: every dimension in `1..=MAX_TEXT_DIM`.
    ///
    /// # Errors
    ///
    /// Names the first dimension out of range.
    fn check_text_dims(&self) -> Result<(), String> {
        for (name, v) in [
            ("input_dim", self.input_dim),
            ("output_dim", self.output_dim),
            ("hidden", self.hidden),
            ("fc_width", self.fc_width),
            ("window", self.window),
        ] {
            if v == 0 || v > Self::MAX_TEXT_DIM {
                return Err(format!(
                    "{name} is {v}, expected 1..={}",
                    Self::MAX_TEXT_DIM
                ));
            }
        }
        Ok(())
    }
}

/// Summary of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean squared error per epoch on the training samples.
    pub train_mse: Vec<f64>,
    /// Final training MSE.
    pub final_mse: f64,
    /// Number of samples trained on.
    pub samples: usize,
}

impl fmt::Display for TrainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trained on {} samples, {} epochs, final MSE {:.6}",
            self.samples,
            self.train_mse.len(),
            self.final_mse
        )
    }
}

/// The paper's FFC/FBC network.
///
/// # Examples
///
/// ```
/// use pidpiper_ml::{LstmRegressor, RegressorConfig, WindowedDataset};
///
/// // Learn y = sum of the last window of a 1-D series.
/// let inputs: Vec<Vec<f64>> = (0..200).map(|i| vec![((i as f64) * 0.1).sin()]).collect();
/// let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![x[0] * 2.0]).collect();
/// let config = RegressorConfig::tiny(1, 1);
/// let ds = WindowedDataset::from_series(&inputs, &targets, config.window);
/// let mut model = LstmRegressor::new(config, 42);
/// let report = model.train(&ds, 20, 0.01, 7);
/// assert!(report.final_mse < 0.1, "MSE {}", report.final_mse);
/// ```
#[derive(Debug, Clone)]
pub struct LstmRegressor {
    config: RegressorConfig,
    lstm1: LstmLayer,
    lstm2: LstmLayer,
    fc_sigmoid: Dense,
    fc_prelu1: Dense,
    fc_prelu2: Dense,
    head: Dense,
    normalizer: Normalizer,
    target_normalizer: Normalizer,
}

impl LstmRegressor {
    /// Creates a network with seeded Xavier initialization and identity
    /// normalizers (call [`LstmRegressor::fit_normalizers`] before
    /// training on raw physical units).
    pub fn new(config: RegressorConfig, seed: u64) -> Self {
        config.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        LstmRegressor {
            lstm1: LstmLayer::new(config.input_dim, config.hidden, &mut rng),
            lstm2: LstmLayer::new(config.hidden, config.hidden, &mut rng),
            fc_sigmoid: Dense::new(config.hidden, config.fc_width, Activation::Sigmoid, &mut rng),
            fc_prelu1: Dense::new(config.fc_width, config.fc_width, Activation::PRelu, &mut rng),
            fc_prelu2: Dense::new(config.fc_width, config.fc_width, Activation::PRelu, &mut rng),
            head: Dense::new(config.fc_width, config.output_dim, Activation::Linear, &mut rng),
            normalizer: Normalizer::identity(config.input_dim),
            target_normalizer: Normalizer::identity(config.output_dim),
            config,
        }
    }

    /// The network configuration.
    pub fn config(&self) -> &RegressorConfig {
        &self.config
    }

    /// The fitted input normalizer.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// The fitted target normalizer.
    pub(crate) fn target_normalizer(&self) -> &Normalizer {
        &self.target_normalizer
    }

    /// Both LSTM layers, in stack order.
    pub(crate) fn lstm_layers(&self) -> (&LstmLayer, &LstmLayer) {
        (&self.lstm1, &self.lstm2)
    }

    /// The dense stack: sigmoid FC, both PReLU FCs, linear head.
    pub(crate) fn dense_stack(&self) -> (&Dense, &Dense, &Dense, &Dense) {
        (&self.fc_sigmoid, &self.fc_prelu1, &self.fc_prelu2, &self.head)
    }

    /// Compiles the network into its allocation-free streaming form (see
    /// [`StreamingRegressor`]). The compiled engine snapshots the current
    /// weights; recompile after further training.
    pub fn compile(&self) -> StreamingRegressor {
        StreamingRegressor::compile(self)
    }

    /// Fits input/target normalizers on a dataset (raw physical units).
    pub fn fit_normalizers(&mut self, ds: &WindowedDataset) {
        let samples = ds.samples();
        let inputs = samples.iter().flat_map(|s| s.window.iter().map(Vec::as_slice));
        let targets = samples.iter().map(|s| s.target.as_slice());
        if inputs.clone().next().is_some() {
            self.normalizer = Normalizer::fit_rows(inputs);
            self.target_normalizer = Normalizer::fit_rows(targets);
        }
    }

    /// Mutable views of the trained layers for the group step.
    pub(crate) fn net(&mut self) -> Net<'_> {
        Net {
            lstm1: &mut self.lstm1,
            lstm2: &mut self.lstm2,
            dense: [
                &mut self.fc_sigmoid,
                &mut self.fc_prelu1,
                &mut self.fc_prelu2,
                &mut self.head,
            ],
            normalizer: &self.normalizer,
            target_normalizer: &self.target_normalizer,
        }
    }

    fn zero_grads(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Every trainable tensor, in serialization (and Adam) order.
    pub(crate) fn params_mut(&mut self) -> [&mut Param; PARAMS] {
        let (l1, l2) = (&mut self.lstm1, &mut self.lstm2);
        let (s, p1, p2, h) = (
            &mut self.fc_sigmoid,
            &mut self.fc_prelu1,
            &mut self.fc_prelu2,
            &mut self.head,
        );
        [
            &mut l1.w,
            &mut l1.u,
            &mut l1.b,
            &mut l2.w,
            &mut l2.u,
            &mut l2.b,
            &mut s.w,
            &mut s.b,
            &mut p1.w,
            &mut p1.b,
            &mut p1.alpha,
            &mut p2.w,
            &mut p2.b,
            &mut p2.alpha,
            &mut h.w,
            &mut h.b,
        ]
    }

    /// Immutable parameter views, in the same order as `params_mut`.
    pub(crate) fn params(&self) -> [&Param; PARAMS] {
        let (l1, l2) = (&self.lstm1, &self.lstm2);
        let (s, p1, p2, h) = (
            &self.fc_sigmoid,
            &self.fc_prelu1,
            &self.fc_prelu2,
            &self.head,
        );
        [
            &l1.w, &l1.u, &l1.b, &l2.w, &l2.u, &l2.b, &s.w, &s.b, &p1.w, &p1.b, &p1.alpha, &p2.w,
            &p2.b, &p2.alpha, &h.w, &h.b,
        ]
    }

    /// Trains with Adam on MSE loss. Normalizers must already be fitted
    /// (or left as identity deliberately). Each epoch shuffles the
    /// samples and takes one Adam step per group of 8 (the last group may
    /// be smaller), on the gradient summed over the group.
    ///
    /// The group's samples run as lanes of one batched forward and
    /// backward pass (the crate's `train` module), bit-identical to
    /// running them one at a time. Apart from its bookkeeping (the sample
    /// order, the loss curve, the optimizer moments and one working
    /// arena) the call allocates nothing, however many samples and epochs
    /// it runs.
    ///
    /// Returns a [`TrainReport`] with per-epoch training MSE.
    ///
    /// # Panics
    ///
    /// Panics if the dataset's window differs from the network's, or if
    /// a sample's feature or target dimension differs from the
    /// configuration.
    pub fn train(
        &mut self,
        ds: &WindowedDataset,
        epochs: usize,
        lr: f64,
        shuffle_seed: u64,
    ) -> TrainReport {
        self.train_with(ds, epochs, lr, shuffle_seed, &gemm::KERNELS)
    }

    /// [`LstmRegressor::train`] on the given GEMM kernels.
    fn train_with(
        &mut self,
        ds: &WindowedDataset,
        epochs: usize,
        lr: f64,
        shuffle_seed: u64,
        kernels: &Kernels,
    ) -> TrainReport {
        assert_eq!(
            ds.window(),
            self.config.window,
            "dataset window must match network window"
        );
        let mut opt = Adam::new(lr);
        let mut order: Vec<usize> = (0..ds.len()).collect();
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        let mut train_mse = Vec::with_capacity(epochs);
        let mut arena = TrainArena::new(&self.config);
        for _epoch in 0..epochs {
            order.shuffle(&mut rng);
            let mut epoch_se = 0.0;
            self.zero_grads();
            for group in order.chunks(GROUP) {
                arena.group_step(&mut self.net(), ds, group, &mut epoch_se, kernels);
                opt.step(&mut self.params_mut());
                self.zero_grads();
            }
            train_mse.push(epoch_se / ds.len().max(1) as f64);
        }
        TrainReport {
            final_mse: train_mse.last().copied().unwrap_or(f64::NAN),
            train_mse,
            samples: ds.len(),
        }
    }

    /// Predicts from a raw (unnormalized) window of exactly
    /// `config.window` feature vectors. Returns the de-normalized output.
    ///
    /// This is the allocating *reference* path; deployments compile the
    /// network with [`LstmRegressor::compile`] and use the bit-identical
    /// [`StreamingRegressor::predict_into`] instead.
    ///
    /// # Errors
    ///
    /// Returns a [`PredictError`] if the window length or any row's
    /// feature dimension differs from the configuration.
    pub fn predict(&self, window: &[Vec<f64>]) -> Result<Vec<f64>, PredictError> {
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
        let normed: Vec<Vec<f64>> = window.iter().map(|x| self.normalizer.transform(x)).collect();
        let mut s1 = LstmState::zeros(self.config.hidden);
        let mut s2 = LstmState::zeros(self.config.hidden);
        for x in &normed {
            s1 = self.lstm1.infer_step(x, &s1);
            s2 = self.lstm2.infer_step(&s1.h, &s2);
        }
        let s = self.fc_sigmoid.infer(&s2.h);
        let p1 = self.fc_prelu1.infer(&s);
        let p2 = self.fc_prelu2.infer(&p1);
        let z = self.head.infer(&p2);
        Ok(self.target_normalizer.inverse(&z))
    }

    /// Serializes the full model (config, normalizers, weights) into a
    /// plain-text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let c = &self.config;
        out.push_str(&format!(
            "pidpiper-lstm-regressor v1\n{} {} {} {} {}\n",
            c.input_dim, c.output_dim, c.hidden, c.fc_width, c.window
        ));
        let write_slice = |out: &mut String, xs: &[f64]| {
            let strs: Vec<String> = xs.iter().map(|v| format!("{v:e}")).collect();
            out.push_str(&strs.join(" "));
            out.push('\n');
        };
        write_slice(&mut out, self.normalizer.means());
        write_slice(&mut out, self.normalizer.stds());
        write_slice(&mut out, self.target_normalizer.means());
        write_slice(&mut out, self.target_normalizer.stds());
        for p in self.params() {
            write_slice(&mut out, &p.value);
        }
        out
    }

    /// Deserializes a model written by [`LstmRegressor::to_text`].
    ///
    /// Everything is checked before the network is built: every
    /// dimension in `1..=`[`RegressorConfig::MAX_TEXT_DIM`], the
    /// normalizer lines' lengths against the dimensions, every mean and
    /// parameter value finite, and every standard deviation finite and
    /// positive.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error string on any format violation.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty model text")?;
        if header != "pidpiper-lstm-regressor v1" {
            return Err(format!("unknown model header: {header}"));
        }
        let dims: Vec<usize> = lines
            .next()
            .ok_or("missing dimensions line")?
            .split_whitespace()
            .map(|t| t.parse().map_err(|e| format!("bad dimension: {e}")))
            .collect::<Result<_, _>>()?;
        if dims.len() != 5 {
            return Err(format!("expected 5 dimensions, got {}", dims.len()));
        }
        let config = RegressorConfig {
            input_dim: dims[0],
            output_dim: dims[1],
            hidden: dims[2],
            fc_width: dims[3],
            window: dims[4],
        };
        config.check_text_dims()?;
        let mut parse_line = |what: &str| -> Result<Vec<f64>, String> {
            lines
                .next()
                .ok_or_else(|| format!("missing {what} line"))?
                .split_whitespace()
                .map(|t| t.parse().map_err(|e| format!("bad float in {what}: {e}")))
                .collect()
        };
        let in_mean = parse_line("input mean")?;
        let in_std = parse_line("input std")?;
        let t_mean = parse_line("target mean")?;
        let t_std = parse_line("target std")?;
        // The means are checked against the config here and each std line
        // against its mean line by `Normalizer::from_stats`.
        for (what, means, want) in [
            ("input", &in_mean, config.input_dim),
            ("target", &t_mean, config.output_dim),
        ] {
            if means.len() != want {
                return Err(format!(
                    "{what} mean has {} values, expected {want}",
                    means.len()
                ));
            }
            if let Some((j, v)) = non_finite(means) {
                return Err(format!("{what} mean {j} is {v}"));
            }
        }
        let normalizer =
            Normalizer::from_stats(in_mean, in_std).map_err(|e| format!("input stats: {e}"))?;
        let target_normalizer =
            Normalizer::from_stats(t_mean, t_std).map_err(|e| format!("target stats: {e}"))?;

        let mut model = LstmRegressor::new(config, 0);
        model.normalizer = normalizer;
        model.target_normalizer = target_normalizer;
        let expected: Vec<usize> = model.params().iter().map(|p| p.len()).collect();
        for (i, want) in expected.iter().enumerate() {
            let vals = parse_line(&format!("parameter {i}"))?;
            if vals.len() != *want {
                return Err(format!(
                    "parameter {i} has {} values, expected {want}",
                    vals.len()
                ));
            }
            if let Some((j, v)) = non_finite(&vals) {
                return Err(format!("parameter {i} value {j} is {v}"));
            }
            model.params_mut()[i].value = vals;
        }
        Ok(model)
    }
}

/// The first non-finite value of `xs` and its index.
fn non_finite(xs: &[f64]) -> Option<(usize, f64)> {
    xs.iter().copied().enumerate().find(|(_, v)| !v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A valid model text with line `line` (0 = header, 1 = dimensions,
    /// 2..=5 = input mean, input std, target mean, target std) replaced.
    fn edited_text(line: usize, with: &str) -> String {
        let text = LstmRegressor::new(RegressorConfig::tiny(3, 2), 5).to_text();
        assert!(LstmRegressor::from_text(&text).is_ok());
        let mut lines: Vec<&str> = text.lines().collect();
        lines[line] = with;
        lines.join("\n")
    }

    fn rejected(line: usize, with: &str, why: &str) {
        let err = LstmRegressor::from_text(&edited_text(line, with))
            .expect_err("edited text must not load");
        assert!(err.contains(why), "{err:?} does not mention {why:?}");
    }

    #[test]
    fn from_text_rejects_zero_hidden() {
        rejected(1, "3 2 0 6 5", "hidden is 0");
    }

    #[test]
    fn from_text_rejects_zero_window() {
        rejected(1, "3 2 6 6 0", "window is 0");
    }

    #[test]
    fn from_text_rejects_a_huge_dimension_before_allocating() {
        rejected(1, "3 2 1000000000000 6 5", "hidden is 1000000000000");
        rejected(1, "3 2 6 257 5", "fc_width is 257");
    }

    #[test]
    fn from_text_rejects_a_short_input_mean_line() {
        rejected(2, "0e0 0e0", "input mean has 2 values, expected 3");
    }

    #[test]
    fn from_text_rejects_a_short_input_std_line() {
        rejected(3, "1e0 1e0", "input stats: 3 means but 2 stds");
    }

    #[test]
    fn from_text_rejects_an_empty_target_std_line() {
        rejected(5, "", "target stats: 2 means but 0 stds");
    }

    #[test]
    fn from_text_rejects_stat_lines_longer_than_the_config() {
        // Mean and std agree with each other but not with `input_dim`.
        let text = edited_text(2, "0e0 0e0 0e0 0e0");
        let mut lines: Vec<&str> = text.lines().collect();
        lines[3] = "1e0 1e0 1e0 1e0";
        let err = LstmRegressor::from_text(&lines.join("\n")).expect_err("must not load");
        assert!(err.contains("input mean has 4 values"), "{err}");
        rejected(4, "0e0 0e0 0e0", "target mean has 3 values, expected 2");
    }

    #[test]
    fn from_text_rejects_a_zero_std() {
        rejected(3, "1e0 0e0 1e0", "std 1 is 0");
    }

    #[test]
    fn from_text_rejects_a_negative_or_non_finite_std() {
        rejected(3, "1e0 -2e0 1e0", "std 1 is -2");
        rejected(5, "NaN 1e0", "std 0 is NaN");
        rejected(5, "1e0 inf", "std 1 is inf");
    }

    #[test]
    fn from_text_rejects_a_non_finite_mean() {
        rejected(4, "0e0 inf", "target mean 1 is inf");
    }

    #[test]
    fn from_text_rejects_a_non_finite_weight() {
        // Line 6 is parameter 0, the first LSTM layer's input weights.
        let text = LstmRegressor::new(RegressorConfig::tiny(3, 2), 5).to_text();
        let line = text.lines().nth(6).expect("parameter line");
        let rest: Vec<&str> = line.split_whitespace().skip(1).collect();
        rejected(6, &format!("NaN {}", rest.join(" ")), "parameter 0 value 0 is NaN");
    }

    fn toy_dataset(n: usize, window: usize) -> WindowedDataset {
        // Target depends on a temporal pattern: y = x(t) + 0.5 * x(t-2).
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![((i as f64) * 0.37).sin(), ((i as f64) * 0.11).cos()])
            .collect();
        let targets: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let now = inputs[i][0];
                let past = if i >= 2 { inputs[i - 2][0] } else { 0.0 };
                vec![now + 0.5 * past]
            })
            .collect();
        WindowedDataset::from_series(&inputs, &targets, window)
    }

    #[test]
    fn learns_temporal_pattern() {
        let config = RegressorConfig::tiny(2, 1);
        let ds = toy_dataset(300, config.window);
        let mut model = LstmRegressor::new(config, 3);
        model.fit_normalizers(&ds);
        let report = model.train(&ds, 30, 0.02, 5);
        assert!(
            report.final_mse < 0.05,
            "model failed to learn: MSE {}",
            report.final_mse
        );
        // Training loss broadly decreases.
        assert!(report.train_mse[0] > report.final_mse * 2.0);
    }

    #[test]
    fn predict_is_deterministic() {
        let config = RegressorConfig::tiny(2, 1);
        let ds = toy_dataset(100, config.window);
        let mut model = LstmRegressor::new(config, 3);
        model.fit_normalizers(&ds);
        model.train(&ds, 3, 0.02, 5);
        let w = ds.samples()[0].window.clone();
        assert_eq!(
            model.predict(&w).expect("valid window"),
            model.predict(&w).expect("valid window")
        );
    }

    #[test]
    fn serialization_round_trip() {
        let config = RegressorConfig::tiny(2, 1);
        let ds = toy_dataset(120, config.window);
        let mut model = LstmRegressor::new(config, 9);
        model.fit_normalizers(&ds);
        model.train(&ds, 3, 0.02, 1);
        let text = model.to_text();
        let restored = LstmRegressor::from_text(&text).expect("round trip");
        let w = ds.samples()[3].window.clone();
        let a = model.predict(&w).expect("valid window");
        let b = restored.predict(&w).expect("valid window");
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(LstmRegressor::from_text("").is_err());
        assert!(LstmRegressor::from_text("not a model\n1 2 3 4 5\n").is_err());
        let config = RegressorConfig::tiny(2, 1);
        let model = LstmRegressor::new(config, 0);
        let mut text = model.to_text();
        // Truncate the last parameter line.
        text = text.lines().take(8).collect::<Vec<_>>().join("\n");
        assert!(LstmRegressor::from_text(&text).is_err());
    }

    #[test]
    fn seeded_initialization_reproducible() {
        let config = RegressorConfig::tiny(3, 2);
        let a = LstmRegressor::new(config, 77);
        let b = LstmRegressor::new(config, 77);
        let w = vec![vec![0.1, 0.2, 0.3]; config.window];
        assert_eq!(
            a.predict(&w).expect("valid window"),
            b.predict(&w).expect("valid window")
        );
        let c = LstmRegressor::new(config, 78);
        assert_ne!(
            a.predict(&w).expect("valid window"),
            c.predict(&w).expect("valid window")
        );
    }

    #[test]
    fn wrong_window_length_rejected() {
        let config = RegressorConfig::tiny(1, 1);
        let model = LstmRegressor::new(config, 0);
        assert_eq!(
            model.predict(&[vec![0.0]]),
            Err(PredictError::WindowLength {
                got: 1,
                expected: config.window
            })
        );
        assert_eq!(
            model.predict(&vec![vec![0.0, 0.0]; config.window]),
            Err(PredictError::FeatureDim {
                step: 0,
                got: 2,
                expected: 1
            })
        );
    }

    /// The deployed 24/24/20 network (on 5 features, 3 outputs) trained
    /// for one epoch on 31 windows — three full groups and a ragged one
    /// of 7 — on the given kernels: FNV of the weights and the loss curve.
    fn deployed_case_digest(kernels: &Kernels) -> u64 {
        let config = RegressorConfig::standard(5, 3);
        let len = 31 + config.window - 1;
        let inputs: Vec<Vec<f64>> = (0..len)
            .map(|t| {
                (0..5)
                    .map(|f| ((7 * t + 3 * f) as f64 * 0.37).sin())
                    .collect()
            })
            .collect();
        let targets: Vec<Vec<f64>> = (0..len)
            .map(|t| {
                (0..3)
                    .map(|o| inputs[t][o] + 0.5 * inputs[t.saturating_sub(2)][o + 1])
                    .collect()
            })
            .collect();
        let ds = WindowedDataset::from_series(&inputs, &targets, config.window);
        let mut model = LstmRegressor::new(config, 17);
        model.fit_normalizers(&ds);
        let report = model.train_with(&ds, 1, 0.01, 3, kernels);
        let mut bytes = model.to_text().into_bytes();
        for m in &report.train_mse {
            bytes.extend_from_slice(&m.to_bits().to_le_bytes());
        }
        crate::fnv64(&bytes)
    }

    /// Captured from the per-sample backpropagation-through-time trainer.
    const DEPLOYED_CASE_GOLDEN: u64 = 0x1aba_6f53_4bf6_f602;

    #[test]
    fn training_equivalence_rejects_every_gemm_mutant() {
        use pidpiper_math::gemm::mutants::Mutant;
        assert_eq!(deployed_case_digest(&gemm::KERNELS), DEPLOYED_CASE_GOLDEN);
        for mutant in Mutant::ALL {
            assert_ne!(
                deployed_case_digest(&mutant.kernels()),
                DEPLOYED_CASE_GOLDEN,
                "training on {mutant:?} reproduces the golden weights"
            );
        }
    }
}

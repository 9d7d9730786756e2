//! Training-equivalence goldens: `LstmRegressor::train` and
//! `Trainer::train` must reproduce the exact weights and loss curves they
//! produced before the lane-batched training path replaced per-sample
//! backpropagation through time.
//!
//! Each digest is FNV-1a-64 over the trained model's `to_text()` followed
//! by the little-endian bits of every per-epoch training MSE. The values
//! were captured from the per-sample implementation and are stored
//! unmodified: a mismatch means a weight or a loss moved by at least one
//! bit, which this port does not allow (no model-cache version bump).

use pid_piper::ml::{fnv64, LstmRegressor, RegressorConfig, TrainReport, WindowedDataset};
use pid_piper::prelude::*;

/// `to_text()` bytes, then every epoch's MSE bits.
fn digest(text: &str, curves: &[&TrainReport]) -> u64 {
    let mut bytes = text.as_bytes().to_vec();
    for report in curves {
        for mse in &report.train_mse {
            bytes.extend_from_slice(&mse.to_bits().to_le_bytes());
        }
    }
    fnv64(&bytes)
}

/// A deterministic multi-feature series with `samples` full windows. Each
/// feature mixes two incommensurate tones so no two windows repeat, and
/// every seventh row of feature 0 is exactly zero.
fn dataset(config: &RegressorConfig, samples: usize) -> WindowedDataset {
    let len = samples + config.window - 1;
    let inputs: Vec<Vec<f64>> = (0..len)
        .map(|t| {
            (0..config.input_dim)
                .map(|f| {
                    if f == 0 && t % 7 == 3 {
                        return 0.0;
                    }
                    let (t, f) = (t as f64, f as f64);
                    (0.31 * t + 0.7 * f).sin() * (1.0 + 0.2 * f)
                        + 0.4 * (0.053 * t * (f + 1.0)).cos()
                })
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f64>> = (0..len)
        .map(|t| {
            (0..config.output_dim)
                .map(|o| {
                    let lag = t.saturating_sub(o + 1);
                    inputs[t][o % config.input_dim] - 0.5 * inputs[lag][(o + 1) % config.input_dim]
                        + 3.0 * o as f64
                })
                .collect()
        })
        .collect();
    let ds = WindowedDataset::from_series(&inputs, &targets, config.window);
    assert_eq!(ds.len(), samples);
    ds
}

/// Fits the normalizers, then runs each `(epochs, lr, shuffle seed)`
/// stage; returns the digest of the final model and every stage's curve.
fn train_digest(
    config: RegressorConfig,
    samples: usize,
    seed: u64,
    stages: &[(usize, f64, u64)],
) -> u64 {
    let ds = dataset(&config, samples);
    let mut model = LstmRegressor::new(config, seed);
    model.fit_normalizers(&ds);
    let reports: Vec<TrainReport> = stages
        .iter()
        .map(|&(epochs, lr, shuffle)| model.train(&ds, epochs, lr, shuffle))
        .collect();
    for r in &reports {
        assert!(r.train_mse.iter().all(|m| m.is_finite()));
    }
    digest(&model.to_text(), &reports.iter().collect::<Vec<_>>())
}

fn check(case: &str, got: u64, golden: u64) {
    assert_eq!(
        got, golden,
        "{case}: training digest {got:#018x} differs from the golden {golden:#018x}"
    );
}

#[test]
fn tiny_config_matches_golden() {
    let got = train_digest(RegressorConfig::tiny(3, 2), 40, 11, &[(3, 0.02, 5)]);
    check("tiny", got, GOLDEN_TINY);
}

#[test]
fn deployed_config_with_ragged_group_matches_golden() {
    // 31 samples: three full 8-sample Adam groups and a ragged group of 7.
    let got = train_digest(RegressorConfig::standard(24, 4), 31, 42, &[(2, 0.01, 7)]);
    check("deployed 24/24/20, 31 samples", got, GOLDEN_DEPLOYED);
}

#[test]
fn multi_stage_run_matches_golden() {
    let stages = [(2, 0.01, 3), (2, 0.004, 4), (1, 0.0015, 5)];
    let got = train_digest(RegressorConfig::tiny(4, 3), 27, 5, &stages);
    check("multi-stage", got, GOLDEN_MULTI_STAGE);
}

#[test]
fn dataset_smaller_than_one_group_matches_golden() {
    let got = train_digest(RegressorConfig::tiny(2, 1), 5, 8, &[(4, 0.02, 9)]);
    check("five samples", got, GOLDEN_SUB_GROUP);
}

#[test]
fn trainer_on_short_arducopter_traces_matches_golden() {
    let traces: Vec<_> = (0..3u64)
        .map(|i| {
            let plan = MissionPlan::straight_line(12.0 + 4.0 * i as f64, 5.0);
            MissionRunner::new(RunnerConfig::for_rv(RvId::ArduCopter).with_seed(300 + i))
                .run_clean(&plan)
                .trace
        })
        .collect();
    // The deployed feature set on the tiny network, two stages.
    let config = TrainerConfig {
        stages: [(2, 0.01), (1, 0.004), (0, 0.0)],
        ..TrainerConfig::tiny()
    };
    let trained = Trainer::new(config).train(&traces, false);
    assert!(
        trained.report.samples > 8,
        "{} samples",
        trained.report.samples
    );
    let got = digest(&trained.pidpiper.to_text(), &[&trained.report]);
    check("Trainer::train", got, GOLDEN_TRAINER);
}

/// Captured from the per-sample backpropagation-through-time trainer.
const GOLDEN_TINY: u64 = 0xe72f_53fe_ae87_4b34;
const GOLDEN_DEPLOYED: u64 = 0x2c51_4f9a_a751_13ea;
const GOLDEN_MULTI_STAGE: u64 = 0xc0fc_445f_5a8e_965f;
const GOLDEN_SUB_GROUP: u64 = 0xe702_4c35_6207_8122;
const GOLDEN_TRAINER: u64 = 0xdf34_9eba_46d8_6925;

//! Property-based tests for the ML substrate.

use pidpiper_math::gemm::{gemm_acc, gemm_seeded};
use pidpiper_ml::lstm::LstmState;
use pidpiper_ml::{Activation, Dense, LstmLayer, Normalizer, WindowedDataset};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn normalizer_round_trips(
        rows in prop::collection::vec(
            prop::collection::vec(-1e3..1e3f64, 3..3 + 1),
            2..50,
        ),
        probe in prop::collection::vec(-1e3..1e3f64, 3..4),
    ) {
        let n = Normalizer::fit(&rows);
        let z = n.transform(&probe[..3]);
        let back = n.inverse(&z);
        for (a, b) in probe[..3].iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn normalizer_output_finite(
        rows in prop::collection::vec(
            prop::collection::vec(-1e6..1e6f64, 2..3),
            2..30,
        ),
    ) {
        let n = Normalizer::fit(&rows);
        for r in &rows {
            prop_assert!(n.transform(r).iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn lstm_hidden_state_strictly_bounded(
        seed in 0u64..500,
        xs in prop::collection::vec(
            prop::collection::vec(-1e3..1e3f64, 2..3),
            1..40,
        ),
    ) {
        // h = o * tanh(c) with o in (0,1): |h| < 1 for any input magnitude.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let lstm = LstmLayer::new(2, 5, &mut rng);
        let mut state = LstmState::zeros(5);
        for x in &xs {
            state = lstm.infer_step(x, &state);
            for &v in &state.h {
                prop_assert!(v.abs() < 1.0);
                prop_assert!(v.is_finite());
            }
        }
    }

    #[test]
    fn sigmoid_dense_outputs_in_unit_interval(
        seed in 0u64..500,
        x in prop::collection::vec(-100.0..100.0f64, 4..5),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let layer = Dense::new(4, 3, Activation::Sigmoid, &mut rng);
        for v in layer.infer(&x[..4]) {
            prop_assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn prelu_preserves_positive_activations(
        seed in 0u64..500,
        x in prop::collection::vec(-10.0..10.0f64, 3..4),
    ) {
        // PReLU is identity on positive pre-activations: outputs are finite
        // and the layer never explodes the magnitude beyond |W||x| + |b|.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let layer = Dense::new(3, 3, Activation::PRelu, &mut rng);
        let y = layer.infer(&x[..3]);
        prop_assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn windowed_dataset_counts(
        n in 0usize..80,
        window in 1usize..20,
    ) {
        let inputs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let targets = inputs.clone();
        let ds = WindowedDataset::from_series(&inputs, &targets, window);
        let expected = n.saturating_sub(window - 1).min(n);
        prop_assert_eq!(ds.len(), if n >= window { expected } else { 0 });
        for s in ds.samples() {
            prop_assert_eq!(s.window.len(), window);
            // Window ends at the sample whose value equals the target.
            prop_assert_eq!(s.window.last().unwrap()[0], s.target[0]);
        }
    }

    #[test]
    fn dataset_split_partitions(
        n in 10usize..120,
        frac in 0.1..0.9f64,
        seed in 0u64..100,
    ) {
        let inputs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let ds = WindowedDataset::from_series(&inputs, &inputs, 3);
        let total = ds.len();
        let (train, val) = ds.split(frac, seed);
        prop_assert_eq!(train.len() + val.len(), total);
    }

    // Training's GEMMs add every gradient term; the per-sample trainer's
    // `Param::accumulate_outer` (weight gradients) and
    // `Param::matvec_t_into` (input and recurrent gradients) skipped
    // terms whose `d` was ±0.0. On finite inputs, with exact-zero rows of
    // `d` and ±0.0 entries anywhere, both agree bit for bit — also when
    // the gradient chain is split across two seeded calls, as the
    // per-lane weight-gradient calls split it.
    #[test]
    fn dropping_the_zero_skip_is_bit_neutral(
        (m, n, terms) in (1usize..7, 1usize..6, 1usize..12),
        raw in prop::collection::vec((0u8..4, -1e3..1e3f64), 300..301),
        zero_row in 0usize..7,
        split in 0usize..12,
    ) {
        let value = |i: usize| {
            let (sel, v) = raw[i % raw.len()];
            match sel {
                0 => 0.0,
                1 => -0.0,
                _ => v,
            }
        };
        // d as a GEMM operand: row r, term k; row `zero_row` is all zeros.
        let mut d = vec![0.0; m * terms];
        for r in 0..m {
            for k in 0..terms {
                d[r * terms + k] = if r == zero_row % m {
                    if k % 2 == 0 { 0.0 } else { -0.0 }
                } else {
                    value(r * terms + k)
                };
            }
        }
        let x: Vec<f64> = (0..terms * n).map(|i| value(7 * i + 3)).collect();

        // accumulate_outer, term by term, from a zeroed gradient.
        let mut want = vec![0.0; m * n];
        for k in 0..terms {
            for r in 0..m {
                let dr = d[r * terms + k];
                if pidpiper_math::is_zero(dr) {
                    continue;
                }
                for c in 0..n {
                    want[r * n + c] += dr * x[k * n + c];
                }
            }
        }
        let mut got = vec![0.0; m * n];
        gemm_seeded(&d, terms, m, terms, &x, n, &mut got, n, n);
        let mut resumed = vec![0.0; m * n];
        let cut = split.min(terms);
        gemm_seeded(&d, terms, m, cut, &x, n, &mut resumed, n, n);
        gemm_seeded(&d[cut..], terms, m, terms - cut, &x[cut * n..], n, &mut resumed, n, n);
        for i in 0..m * n {
            prop_assert_eq!(got[i].to_bits(), want[i].to_bits());
            prop_assert_eq!(resumed[i].to_bits(), want[i].to_bits());
        }

        // matvec_t_into: out = Wᵀ·d0 from zero, W being `[m × n]` (here
        // the first n columns of x's rows, reused as weights).
        let w = &x[..m.min(terms) * n];
        let rows = m.min(terms);
        let d0: Vec<f64> = (0..rows).map(|r| d[r * terms]).collect();
        let mut want = vec![0.0; n];
        for r in 0..rows {
            if pidpiper_math::is_zero(d0[r]) {
                continue;
            }
            for c in 0..n {
                want[c] += w[r * n + c] * d0[r];
            }
        }
        let mut w_t = vec![0.0; n * rows];
        for r in 0..rows {
            for c in 0..n {
                w_t[c * rows + r] = w[r * n + c];
            }
        }
        let mut got = vec![0.0; n];
        gemm_acc(&w_t, rows, n, rows, &d0, 1, &mut got, 1, 1);
        for c in 0..n {
            prop_assert_eq!(got[c].to_bits(), want[c].to_bits());
        }
    }
}

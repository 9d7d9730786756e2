//! Property-based bit-identity for the batched lane-row path: every
//! lane of [`BatchedStreamingRegressor`] must reproduce the streaming
//! engine *exactly* — compared with `f64::to_bits`, not an epsilon —
//! across batch sizes (including non-multiples of the GEMM row block and
//! widths past 256), ragged lane counts, lane ranges that start mid-bank,
//! decimation-style phase skew with per-tick state copies in and out,
//! and NaN-burst inputs.

use pidpiper_ml::{
    BatchedStreamingRegressor, LstmRegressor, RegressorConfig, StreamState, WindowedDataset,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_rows(rng: &mut StdRng, n: usize, dim: usize, scale: f64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-scale..scale)).collect())
        .collect()
}

/// A compiled model with real fitted normalizer statistics, so both the
/// normalize and de-normalize stages are non-trivial.
fn fitted_model(config: RegressorConfig, seed: u64) -> LstmRegressor {
    let mut model = LstmRegressor::new(config, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf17);
    let inputs = random_rows(&mut rng, config.window + 20, config.input_dim, 50.0);
    let targets = random_rows(&mut rng, config.window + 20, config.output_dim, 10.0);
    let ds = WindowedDataset::from_series(&inputs, &targets, config.window);
    model.fit_normalizers(&ds);
    model
}

/// Asserts every lane of a whole-window batched prediction (each window
/// normalized row by row into its lane, all lanes stepped together from
/// zero states) is bit-identical to the per-window streaming path.
fn assert_batch_matches_streaming(model: &LstmRegressor, windows: &[Vec<Vec<f64>>]) {
    let engine = model.compile();
    let batched = BatchedStreamingRegressor::compile(&engine);
    let c = *engine.config();
    let n = windows.len();

    let mut scratch = batched.scratch(n);
    let mut normed = vec![0.0; c.input_dim];
    for t in 0..c.window {
        for (lane, window) in windows.iter().enumerate() {
            engine.normalize_into(&window[t], &mut normed).expect("valid row");
            scratch.load_row(lane, &normed);
        }
        batched.step_batch(&mut scratch, n);
    }
    batched.finish_batch(&mut scratch, n);

    let mut inf = engine.scratch();
    let mut reference = vec![0.0; c.output_dim];
    let mut out = vec![0.0; c.output_dim];
    for (lane, window) in windows.iter().enumerate() {
        engine
            .predict_into(window, &mut inf, &mut reference)
            .expect("valid window");
        scratch.read_output(lane, &mut out);
        for (r, (got, want)) in out.iter().zip(&reference).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "lane {lane} output {r}: batched {got} != streaming {want} (batch size {n})",
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_windows_bit_identical_across_small_batch_sizes(
        input_dim in 1usize..5,
        output_dim in 1usize..4,
        hidden in 1usize..7,
        fc_width in 1usize..7,
        window in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let config = RegressorConfig { input_dim, output_dim, hidden, fc_width, window };
        let model = fitted_model(config, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbacc);
        // 1, 2, and a deliberate non-multiple of the GEMM's 4-row block,
        // so the single-chain remainder rows are always exercised.
        for batch in [1usize, 2, 13] {
            let windows: Vec<_> = (0..batch)
                .map(|_| random_rows(&mut rng, window, input_dim, 20.0))
                .collect();
            assert_batch_matches_streaming(&model, &windows);
        }
    }

    #[test]
    fn nan_bursts_propagate_bit_identically(
        seed in 0u64..10_000,
        burst_lane in 0usize..9,
        burst_step in 0usize..4,
    ) {
        let config = RegressorConfig {
            input_dim: 4, output_dim: 3, hidden: 6, fc_width: 6, window: 4,
        };
        let model = fitted_model(config, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9a9);
        let mut windows: Vec<_> = (0..9)
            .map(|_| random_rows(&mut rng, 4, 4, 20.0))
            .collect();
        // A NaN burst in one lane: the whole feature row goes NaN for one
        // step. It must poison that lane's outputs with the *same bits*
        // as the streaming path, and must not leak into other lanes.
        for v in windows[burst_lane][burst_step].iter_mut() {
            *v = f64::NAN;
        }
        assert_batch_matches_streaming(&model, &windows);
    }
}

#[test]
fn batched_windows_bit_identical_at_lane_boundaries_and_257() {
    let config = RegressorConfig {
        input_dim: 4,
        output_dim: 3,
        hidden: 6,
        fc_width: 6,
        window: 5,
    };
    let model = fitted_model(config, 42);
    let mut rng = StdRng::seed_from_u64(0x257);
    // Straddle the GEMM's 4-row blocks and go well past 256 lanes.
    for batch in [7usize, 8, 9, 64, 257] {
        let windows: Vec<_> = (0..batch)
            .map(|_| random_rows(&mut rng, 5, 4, 20.0))
            .collect();
        assert_batch_matches_streaming(&model, &windows);
    }
}

#[test]
fn masked_lanes_stay_untouched_in_a_ragged_batch() {
    let config = RegressorConfig {
        input_dim: 4,
        output_dim: 3,
        hidden: 6,
        fc_width: 6,
        window: 3,
    };
    let model = fitted_model(config, 7);
    let engine = model.compile();
    let batched = BatchedStreamingRegressor::compile(&engine);
    let mut rng = StdRng::seed_from_u64(0xa5ed);

    // Give every lane of a width-8 scratch a distinct warmed-up state.
    let mut scratch = batched.scratch(8);
    let mut inf = engine.scratch();
    let mut states: Vec<StreamState> = (0..8).map(|_| engine.state()).collect();
    let mut normed = vec![0.0; 4];
    for (lane, state) in states.iter_mut().enumerate() {
        for row in random_rows(&mut rng, 2 + lane % 3, 4, 20.0) {
            engine.normalize_into(&row, &mut normed).unwrap();
            engine.step_normed(&normed, state, &mut inf).unwrap();
        }
        scratch.load_state(lane, state);
    }

    // Advance only the first 5 lanes; lanes 5..8 are unused capacity.
    let active = 5;
    for (lane, state) in states.iter().enumerate().take(active) {
        // Re-load so the row panel is fresh for the active lanes.
        scratch.load_state(lane, state);
        engine
            .normalize_into(&[1.0, -2.0, 3.0, -4.0], &mut normed)
            .unwrap();
        scratch.load_row(lane, &normed);
    }
    batched.step_batch(&mut scratch, active);
    batched.finish_batch(&mut scratch, active);

    let mut roundtrip = engine.state();
    for (lane, state) in states.iter().enumerate() {
        scratch.store_state(lane, &mut roundtrip);
        let advanced = lane < active;
        let identical = roundtrip == *state;
        assert_eq!(
            identical, !advanced,
            "lane {lane}: lanes past the range must keep their loaded state bits, \
             active lanes must advance",
        );
        if advanced {
            // The active lane must match the streaming engine stepping the
            // same state by the same row.
            let mut want = engine.state();
            want.copy_from(state);
            engine.step_normed(&normed, &mut want, &mut inf).unwrap();
            assert_eq!(roundtrip, want, "lane {lane} diverged from streaming step");
        }
    }
}

/// Mirrors the fleet shard loop: long-lived sessions at skewed phases,
/// copied into (possibly different) lanes every tick, stepped as a
/// ragged batch, copied back out, and compared against a per-session
/// streaming twin — bit-for-bit, every tick.
#[test]
fn phase_skewed_sessions_survive_gather_scatter_every_tick() {
    let config = RegressorConfig {
        input_dim: 4,
        output_dim: 3,
        hidden: 6,
        fc_width: 6,
        window: 5,
    };
    let model = fitted_model(config, 11);
    let engine = model.compile();
    let batched = BatchedStreamingRegressor::compile(&engine);
    let mut rng = StdRng::seed_from_u64(0x5e55);

    const SESSIONS: usize = 6;
    let mut batch_states: Vec<StreamState> = (0..SESSIONS).map(|_| engine.state()).collect();
    let mut stream_states: Vec<StreamState> = (0..SESSIONS).map(|_| engine.state()).collect();
    let mut scratch = batched.scratch(SESSIONS);
    let mut inf = engine.scratch();
    let mut normed = vec![0.0; 4];
    let mut batch_out = vec![0.0; 3];
    let mut stream_out = vec![0.0; 3];

    for t in 0..30usize {
        // Session i joins at tick 2*i and then skips every 5th tick at a
        // per-session phase — the fleet's decimation/mid-window skew.
        let active: Vec<usize> = (0..SESSIONS)
            .filter(|&i| t >= 2 * i && (t + i) % 5 != 0)
            .collect();
        let rows = random_rows(&mut rng, SESSIONS, 4, 20.0);

        for (lane, &i) in active.iter().enumerate() {
            scratch.load_state(lane, &batch_states[i]);
            engine.normalize_into(&rows[i], &mut normed).unwrap();
            scratch.load_row(lane, &normed);
        }
        batched.step_batch(&mut scratch, active.len());
        batched.finish_batch(&mut scratch, active.len());

        for (lane, &i) in active.iter().enumerate() {
            scratch.store_state(lane, &mut batch_states[i]);
            scratch.read_output(lane, &mut batch_out);

            engine.normalize_into(&rows[i], &mut normed).unwrap();
            engine
                .step_normed(&normed, &mut stream_states[i], &mut inf)
                .unwrap();
            engine
                .finish_into(&stream_states[i], &mut inf, &mut stream_out)
                .unwrap();

            assert_eq!(
                batch_states[i], stream_states[i],
                "tick {t} session {i}: state diverged",
            );
            for (a, b) in batch_out.iter().zip(&stream_out) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "tick {t} session {i}: output diverged",
                );
            }
        }
    }
}

/// Lanes `start..start + m` of a warmed 16-lane scratch, `start > 0`,
/// stepped and finished as one `m`-row range: each lane must end with the
/// state and output `step_normed` + `finish_into` give its own state and
/// row, and every lane outside the range must keep its bits — for every
/// `m` in 1..=9.
#[test]
fn mid_bank_lane_ranges_step_like_single_states() {
    let config = RegressorConfig {
        input_dim: 4,
        output_dim: 3,
        hidden: 6,
        fc_width: 6,
        window: 5,
    };
    let model = fitted_model(config, 5);
    let engine = model.compile();
    let batched = BatchedStreamingRegressor::compile(&engine);
    let mut rng = StdRng::seed_from_u64(0x31d);
    let mut inf = engine.scratch();
    let mut normed = vec![0.0; 4];
    const WIDTH: usize = 16;

    for m in 1..=9usize {
        let start = 1 + m % 7;
        let mut scratch = batched.scratch(WIDTH);
        let mut states: Vec<StreamState> = (0..WIDTH).map(|_| engine.state()).collect();
        for (lane, state) in states.iter_mut().enumerate() {
            for row in random_rows(&mut rng, 1 + lane % 3, 4, 20.0) {
                engine.normalize_into(&row, &mut normed).unwrap();
                engine.step_normed(&normed, state, &mut inf).unwrap();
            }
            scratch.load_state(lane, state);
        }
        for tick in 0..3 {
            for (lane, row) in (start..start + m).zip(random_rows(&mut rng, m, 4, 20.0)) {
                engine.normalize_into(&row, &mut normed).unwrap();
                scratch.load_row(lane, &normed);
                engine.step_normed(&normed, &mut states[lane], &mut inf).unwrap();
            }
            batched.step_range(&mut scratch, start..start + m);
            batched.finish_range(&mut scratch, start..start + m);

            let mut got = engine.state();
            let (mut out, mut want) = (vec![0.0; 3], vec![0.0; 3]);
            for (lane, state) in states.iter().enumerate() {
                scratch.store_state(lane, &mut got);
                assert_eq!(&got, state, "m {m}, tick {tick}, lane {lane}: state");
                if (start..start + m).contains(&lane) {
                    scratch.read_output(lane, &mut out);
                    engine.finish_into(state, &mut inf, &mut want).unwrap();
                    for (a, b) in out.iter().zip(&want) {
                        assert_eq!(a.to_bits(), b.to_bits(), "m {m}, tick {tick}, lane {lane}");
                    }
                }
            }
        }
    }
}

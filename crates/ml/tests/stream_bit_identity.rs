//! Property-based bit-identity: the compiled streaming engine must
//! reproduce the reference `predict` path *exactly* — compared with
//! `f64::to_bits`, not an epsilon — across random configurations,
//! weights, normalizers and windows, including scratch reuse across
//! calls. The live step from a frozen prefix must reproduce
//! `step_normed` from the unfrozen prefix the same way, on rows that
//! carry NaN, ±inf and ±0.

use pidpiper_math::activations::{fast_sigmoid, fast_tanh};
use pidpiper_ml::{
    FrozenPrefix, LstmRegressor, PredictError, RegressorConfig, StreamState, StreamingRegressor,
    WindowedDataset,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_rows(rng: &mut StdRng, n: usize, dim: usize, scale: f64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-scale..scale)).collect())
        .collect()
}

/// A row value: mostly finite, else one of NaN, ±inf and ±0 when
/// `specials` is set.
fn value(rng: &mut StdRng, specials: bool) -> f64 {
    const SPECIAL: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
    if specials && rng.gen_range(0..4) == 0 {
        SPECIAL[rng.gen_range(0..SPECIAL.len())]
    } else {
        rng.gen_range(-3.0..3.0)
    }
}

/// `n` normalized rows of `dim`; one row in four may carry specials.
fn rows_with_specials(rng: &mut StdRng, n: usize, dim: usize) -> Vec<f64> {
    (0..n)
        .flat_map(|_| {
            let specials = rng.gen_range(0..4) == 0;
            (0..dim).map(|_| value(rng, specials)).collect::<Vec<_>>()
        })
        .collect()
}

/// Both LSTM layers' weights, row-major as `LstmLayer` keeps them.
struct LayerWeights {
    w: Vec<f64>,
    u: Vec<f64>,
    b: Vec<f64>,
}

/// One generated frozen-step case: an engine whose gate biases are all
/// random (so `(b + Σw·x) + Σu·h` and `b + (Σw·x + Σu·h)` can round
/// differently in every gate), its LSTM weights, `m` prefixes (lane 0
/// the zero state, lane `i` the state after `i % 4` rows) and one live
/// row per lane.
struct FrozenCase {
    engine: StreamingRegressor,
    layers: [LayerWeights; 2],
    prefixes: Vec<StreamState>,
    rows: Vec<f64>,
}

fn frozen_case(input_dim: usize, hidden: usize, m: usize, seed: u64) -> FrozenCase {
    let config = RegressorConfig { input_dim, output_dim: 2, hidden, fc_width: 5, window: 4 };
    let mut rng = StdRng::seed_from_u64(seed);
    // The text form carries every weight exactly (`{:e}` round-trips),
    // so the biases can be redrawn there and the weights read back.
    let text = LstmRegressor::new(config, seed).to_text();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for at in [8, 11] {
        let n = lines[at].split_whitespace().count();
        let biases: Vec<String> = (0..n).map(|_| format!("{:e}", rng.gen_range(-2.0..2.0))).collect();
        lines[at] = biases.join(" ");
    }
    let parse = |at: usize| -> Vec<f64> {
        lines[at].split_whitespace().map(|t| t.parse().expect("float")).collect()
    };
    let layers = [6, 9].map(|at| LayerWeights { w: parse(at), u: parse(at + 1), b: parse(at + 2) });
    let engine = LstmRegressor::from_text(&lines.join("\n")).expect("valid model").compile();
    let mut scratch = engine.scratch();
    let prefixes = (0..m)
        .map(|i| {
            let mut s = engine.state();
            for row in rows_with_specials(&mut rng, i % 4, input_dim).chunks_exact(input_dim) {
                engine.step_normed(row, &mut s, &mut scratch).expect("dims");
            }
            s
        })
        .collect();
    let rows = rows_with_specials(&mut rng, m, input_dim);
    FrozenCase { engine, layers, prefixes, rows }
}

/// `to_bits` of every value, NaNs canonical (for comparing a scalar
/// model, whose NaN payloads are not the kernels').
fn canonical_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() }).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A scalar LSTM cell from `(h, c)`: each gate `(b + Σw·x) + Σu·h`, or
/// `b + (Σw·x + Σu·h)` when `reassociate`. Returns the new `(h, c)`.
fn scalar_cell(l: &LayerWeights, x: &[f64], h: &[f64], c: &[f64], reassociate: bool) -> (Vec<f64>, Vec<f64>) {
    let hd = h.len();
    let dot = |m: &[f64], v: &[f64], r: usize| {
        let mut acc = 0.0;
        for (k, &vk) in v.iter().enumerate() {
            acc += m[r * v.len() + k] * vk;
        }
        acc
    };
    let pre: Vec<f64> = (0..4 * hd)
        .map(|r| {
            let (sx, sh) = (dot(&l.w, x, r), dot(&l.u, h, r));
            if reassociate { l.b[r] + (sx + sh) } else { (l.b[r] + sx) + sh }
        })
        .collect();
    let (mut h2, mut c2) = (vec![0.0; hd], vec![0.0; hd]);
    for j in 0..hd {
        let (i, f, o) = (fast_sigmoid(pre[j]), fast_sigmoid(pre[hd + j]), fast_sigmoid(pre[2 * hd + j]));
        c2[j] = f * c[j] + i * fast_tanh(pre[3 * hd + j]);
        h2[j] = o * fast_tanh(c2[j]);
    }
    (h2, c2)
}

/// [`scalar_cell`] through both layers from `prefix`.
fn scalar_step(case: &FrozenCase, prefix: &StreamState, x: &[f64], reassociate: bool) -> Vec<Vec<f64>> {
    let [h1, c1, h2, c2] = prefix.parts();
    let (h1, c1) = scalar_cell(&case.layers[0], x, h1, c1, reassociate);
    let (h2, c2) = scalar_cell(&case.layers[1], &h1, h2, c2, reassociate);
    vec![h1, c1, h2, c2]
}

/// Checks the frozen live step of `case`, as one `m`-lane step from `m`
/// prefixes frozen together and as `m` one-lane steps from prefixes
/// frozen one at a time, against `step_normed` from each unfrozen
/// prefix: every state row and every `finish` output, `to_bits` equal.
fn check_frozen_case(case: &FrozenCase) -> Result<(), TestCaseError> {
    let FrozenCase { engine, prefixes, rows, .. } = case;
    let (m, dim) = (prefixes.len(), engine.config().input_dim);
    let mut scratch = engine.scratch();
    let mut bank = engine.bank(m);
    for (lane, p) in prefixes.iter().enumerate() {
        bank.load_lane(lane, p);
    }
    let mut frozen = vec![engine.zero_prefix().clone(); m];
    engine.freeze_lanes(&mut bank, 0..m, &mut frozen).expect("in range");
    let mut live = engine.bank(m);
    let refs: Vec<&FrozenPrefix> = frozen.iter().collect();
    engine.step_frozen(rows, &refs, &mut live, 0..m).expect("in range");
    let mut one_frozen = [engine.zero_prefix().clone()];
    let mut one_live = engine.bank(1);
    let (mut want, mut got) = (engine.state(), engine.state());
    let (mut y_want, mut y_got) = (vec![0.0; 2], vec![0.0; 2]);
    for (lane, p) in prefixes.iter().enumerate() {
        let row = &rows[lane * dim..(lane + 1) * dim];
        want.copy_from(p);
        engine.step_normed(row, &mut want, &mut scratch).expect("dims");
        engine.finish_into(&want, &mut scratch, &mut y_want).expect("dims");
        engine.freeze_lanes(&mut bank, lane..lane + 1, &mut one_frozen).expect("in range");
        engine.step_frozen(row, &[&one_frozen[0]], &mut one_live, 0..1).expect("in range");
        for (bank, at) in [(&live, lane), (&one_live, 0)] {
            bank.store_lane(at, &mut got);
            for (g, w) in got.parts().into_iter().zip(want.parts()) {
                prop_assert!(bits(g) == bits(w), "state of lane {lane} of {m}: {g:?} vs {w:?}");
            }
            engine.finish_lane_into(bank, at, &mut scratch, &mut y_got).expect("in range");
            prop_assert!(bits(&y_got) == bits(&y_want), "output of lane {lane} of {m}");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn frozen_live_step_matches_step_normed(
        input_dim in 1usize..6,
        // 4*hidden spans the gemm's quad tiles, single tiles and the
        // masked remainder, as above.
        hidden in 1usize..27,
        m in 1usize..10,
        seed in 0u64..10_000,
    ) {
        check_frozen_case(&frozen_case(input_dim, hidden, m, seed))?;
    }

    #[test]
    fn predict_into_bit_identical_across_configs(
        input_dim in 1usize..6,
        output_dim in 1usize..4,
        // 4*hidden spans the gemm's quad tiles (>= 32 units, production's
        // 4*24 = 96), single 8-lane tiles and the scalar remainder.
        hidden in 1usize..27,
        fc_width in 1usize..27,
        window in 1usize..8,
        seed in 0u64..10_000,
        fit_sel in 0u8..2,
    ) {
        let config = RegressorConfig { input_dim, output_dim, hidden, fc_width, window };
        let mut model = LstmRegressor::new(config, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        if fit_sel == 1 {
            // Real fitted statistics, so the normalize-once-on-ingest and
            // normalize-per-call paths see non-trivial means and stds.
            let inputs = random_rows(&mut rng, window + 20, input_dim, 50.0);
            let targets = random_rows(&mut rng, window + 20, output_dim, 10.0);
            let ds = WindowedDataset::from_series(&inputs, &targets, window);
            model.fit_normalizers(&ds);
            // One epoch moves the zero-initialized biases, without which
            // the two gate accumulators would commute and a swapped
            // reduction order would go unnoticed.
            model.train(&ds, 1, 0.02, seed);
        }
        let engine = model.compile();
        let mut scratch = engine.scratch();
        let mut out = vec![0.0; output_dim];
        // Several windows through ONE scratch: reuse must not leak state.
        for _ in 0..3 {
            let w = random_rows(&mut rng, window, input_dim, 20.0);
            let reference = model.predict(&w).expect("valid window");
            engine.predict_into(&w, &mut scratch, &mut out).expect("valid window");
            for (a, b) in out.iter().zip(&reference) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn both_paths_report_the_same_typed_errors(
        window in 2usize..8,
        extra in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let config = RegressorConfig { input_dim: 3, output_dim: 2, hidden: 4, fc_width: 4, window };
        let model = LstmRegressor::new(config, seed);
        let engine = model.compile();
        let mut scratch = engine.scratch();
        let mut out = vec![0.0; 2];

        let short = vec![vec![0.0; 3]; window - 1];
        let expected = Err(PredictError::WindowLength { got: window - 1, expected: window });
        prop_assert_eq!(model.predict(&short), expected.clone());
        prop_assert_eq!(engine.predict_into(&short, &mut scratch, &mut out), expected.map(|_: Vec<f64>| ()));

        let mut ragged = vec![vec![0.0; 3]; window];
        ragged[window / 2] = vec![0.0; 3 + extra];
        let expected = Err(PredictError::FeatureDim { step: window / 2, got: 3 + extra, expected: 3 });
        prop_assert_eq!(model.predict(&ragged), expected.clone());
        prop_assert_eq!(engine.predict_into(&ragged, &mut scratch, &mut out), expected.map(|_: Vec<f64>| ()));
    }
}

/// The frozen-step property is load-bearing: over generated cases, the
/// scalar cell in the engine's order gives `step_normed`'s bits, while
/// the reassociated `b + (Σw·x + Σu·h)` — what a frozen step that added
/// its stored `Σu·h` to `Σw·x` before the bias would compute — differs
/// on at least one, so `frozen_live_step_matches_step_normed` would
/// reject it.
#[test]
fn reassociated_frozen_sum_is_caught() {
    let mut differs = 0;
    for seed in 0..24u64 {
        let case = frozen_case(1 + seed as usize % 5, 1 + (seed as usize * 7) % 26, 4, seed);
        let engine = &case.engine;
        let dim = engine.config().input_dim;
        let mut scratch = engine.scratch();
        let mut want = engine.state();
        for (lane, p) in case.prefixes.iter().enumerate() {
            let row = &case.rows[lane * dim..(lane + 1) * dim];
            want.copy_from(p);
            engine.step_normed(row, &mut want, &mut scratch).expect("dims");
            let want: Vec<Vec<u64>> = want.parts().into_iter().map(canonical_bits).collect();
            let in_order: Vec<Vec<u64>> =
                scalar_step(&case, p, row, false).iter().map(|v| canonical_bits(v)).collect();
            assert_eq!(in_order, want, "the scalar model must be the engine's order");
            let reassociated: Vec<Vec<u64>> =
                scalar_step(&case, p, row, true).iter().map(|v| canonical_bits(v)).collect();
            differs += usize::from(reassociated != want);
        }
    }
    assert!(differs > 0, "no generated case tells the two sums apart");
}

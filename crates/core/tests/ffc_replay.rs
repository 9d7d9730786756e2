//! The offline calibration replay ([`FfcModel::replay`]) against the
//! online path it stands in for: on random tiny models, windows and
//! decimations, over several traces per call (some too short to warm up,
//! some long enough to span several 64-lane chunks) with NaN and ±inf
//! bursts in the inputs, every replayed prediction must equal what
//! per-tick [`FfcModel::observe`] returns at that tick, by `to_bits`.

mod common;

use common::{random_model, random_trace, Step};
use pidpiper_control::ActuatorSignal;
use pidpiper_core::{FfcModel, ReplayRows};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Replays `traces` offline and asserts the series equal per-tick
/// `observe` from a reset model, tick by tick, by `to_bits`.
fn assert_replay_matches_observe(model: &FfcModel, traces: &[Vec<Step>]) {
    let mut rows = ReplayRows::new(model.feature_set());
    for trace in traces {
        rows.begin_trace();
        for s in trace {
            rows.push(&s.prims, &s.target, s.phase);
        }
    }
    let replayed = model.replay(rows);
    assert_eq!(replayed.len(), traces.len());
    let bits = |y: &ActuatorSignal| y.to_array().map(f64::to_bits);
    for (i, (trace, series)) in traces.iter().zip(&replayed).enumerate() {
        let mut online = model.clone();
        online.reset();
        let expected: Vec<(usize, ActuatorSignal)> = trace
            .iter()
            .enumerate()
            .filter_map(|(t, s)| online.observe(&s.prims, &s.target, s.phase).map(|y| (t, y)))
            .collect();
        assert_eq!(
            series.len(),
            expected.len(),
            "trace {i}: replayed {} ticks, observe predicted {}",
            series.len(),
            expected.len()
        );
        // The replayed series is the trace's last `len` ticks.
        let first = trace.len() - series.len();
        for (k, (got, (t, want))) in series.iter().zip(&expected).enumerate() {
            assert_eq!(*t, first + k, "trace {i}: observe skipped a tick");
            assert_eq!(bits(got), bits(want), "trace {i}, tick {t}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn replay_equals_per_tick_observe(
        seed in 0u64..1_000_000,
        window in 1usize..7,
        decimate in 1usize..7,
        n_traces in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = random_model(&mut rng, window, decimate, 1..7);
        let warmup = if window == 1 { 0 } else { (window - 2) * decimate + 1 };
        let traces: Vec<Vec<Step>> = (0..n_traces)
            .map(|_| {
                // A third of the traces never warm up; the rest reach up to
                // 128 prefixes at the widest decimation.
                let len = if rng.gen_range(0..3u32) == 0 {
                    rng.gen_range(0..warmup + 1)
                } else {
                    rng.gen_range(0..770usize)
                };
                random_trace(&mut rng, len)
            })
            .collect();
        assert_replay_matches_observe(&model, &traces);
    }
}

#[test]
fn empty_and_cold_traces_replay_to_empty_series() {
    let mut rng = StdRng::seed_from_u64(7);
    let model = random_model(&mut rng, 4, 3, 1..7);
    // Window 4 at decimation 3 first predicts at tick 7.
    let traces: Vec<Vec<Step>> = [0, 7, 8, 0]
        .into_iter()
        .map(|len| random_trace(&mut rng, len))
        .collect();
    assert_replay_matches_observe(&model, &traces);
    let mut rows = ReplayRows::new(model.feature_set());
    for trace in &traces {
        rows.begin_trace();
        for s in trace {
            rows.push(&s.prims, &s.target, s.phase);
        }
    }
    let lens: Vec<usize> = model.replay(rows).iter().map(Vec::len).collect();
    assert_eq!(lens, [0, 0, 1, 0]);
}

#[test]
fn one_long_trace_spans_many_chunks() {
    // 2,000 ticks at window 20 / decimation 5 (the deployed shape): 382
    // prefixes in six chunks, 1,909 predicted ticks.
    let mut rng = StdRng::seed_from_u64(11);
    let model = random_model(&mut rng, 20, 5, 1..7);
    let traces = vec![random_trace(&mut rng, 2_000)];
    assert_replay_matches_observe(&model, &traces);
}

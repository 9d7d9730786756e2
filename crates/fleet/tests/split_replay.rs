//! The split ring replay keeps every prefix's bits.
//!
//! A session steps the first half of its next window's rows on the quiet
//! tick after a push and the rest at the push itself. After every tick,
//! each resident session's frozen prefix must be `to_bits`-equal to a
//! whole replay of its history ring through `step_normed` from zero,
//! frozen with `freeze_lanes`. Checked over random window lengths and
//! decimations, with sessions admitted at every decimation phase, faulted
//! sessions among them, from ring warm-up on for at least three ring
//! periods, on the per-session and the batched path. The per-session
//! fingerprints must also agree across both paths and worker counts.

use pidpiper_control::ActuatorSignal;
use pidpiper_core::features::FeatureSet;
use pidpiper_faults::FaultSchedule;
use pidpiper_fleet::{FleetBatch, FleetConfig, FleetEngine, SessionParams, SessionSpec};
use pidpiper_ml::{FrozenPrefix, LstmRegressor, RegressorConfig, StreamingRegressor};
use proptest::prelude::*;

/// Sessions admitted before each of the first `decimate + 1` ticks.
const WAVE: u64 = 7;

fn model(window: usize, seed: u64) -> StreamingRegressor {
    let config = RegressorConfig {
        window,
        ..RegressorConfig::standard(FeatureSet::FfcPruned.dim(), ActuatorSignal::DIM)
    };
    LstmRegressor::new(config, seed).compile()
}

/// The prefix a whole replay of `rows` gives.
fn whole_replay<'a>(
    engine: &StreamingRegressor,
    rows: impl Iterator<Item = &'a [f64]>,
) -> FrozenPrefix {
    let (mut state, mut scratch) = (engine.state(), engine.scratch());
    for row in rows {
        engine.step_normed(row, &mut state, &mut scratch).expect("engine-shaped row");
    }
    let mut bank = engine.bank(1);
    bank.load_lane(0, &state);
    let mut frozen = [engine.zero_prefix().clone()];
    engine.freeze_lanes(&mut bank, 0..1, &mut frozen).expect("one lane");
    let [prefix] = frozen;
    prefix
}

fn bits(prefix: &FrozenPrefix) -> Vec<u64> {
    prefix.parts().iter().flat_map(|r| r.iter().map(|v| v.to_bits())).collect()
}

/// Every third session flies an intermittent fault that switches on and
/// off within the run, phase-shifted per session.
fn spec(id: u64) -> SessionSpec {
    let spec = SessionSpec::new(id, id.wrapping_mul(0x9E37_79B9) ^ 0x5EED);
    if id.is_multiple_of(3) {
        let template = FaultSchedule::Intermittent {
            start: 0.02,
            on: 0.07,
            off: 0.11,
        };
        spec.with_fault(template.shifted(0.01 * (id % 7) as f64))
    } else {
        spec
    }
}

/// Runs one fleet, checking every resident prefix after every tick, and
/// returns its fingerprints.
fn run(
    window: usize,
    decimate: usize,
    seed: u64,
    batch: FleetBatch,
    workers: usize,
) -> Result<Vec<(u64, u64)>, TestCaseError> {
    let config = FleetConfig {
        shards: 3,
        workers,
        shard_capacity: 64,
        pending_capacity: 0,
        shard_cost_budget: u64::MAX,
        session: SessionParams {
            decimate,
            ..SessionParams::default()
        },
        batch,
    };
    let mut fleet = FleetEngine::new(model(window, seed), config);
    // The last wave is admitted before tick `decimate`; three ring
    // periods follow it.
    let ticks = decimate + 1 + 3 * (window - 1) * decimate + decimate;
    let mut next_id = 0;
    for tick in 0..ticks {
        if tick <= decimate {
            for _ in 0..WAVE {
                let admitted = fleet.submit(spec(next_id));
                prop_assert!(admitted.is_ok(), "session {next_id}: {admitted:?}");
                next_id += 1;
            }
        }
        fleet.tick();
        let engine = fleet.model();
        for s in fleet.sessions() {
            let want = whole_replay(engine, s.history(engine));
            prop_assert!(
                bits(s.prefix(engine)) == bits(&want),
                "window {window}, decimate {decimate}, {batch:?} x{workers}: \
                 session {} after tick {tick} ({} history rows)",
                s.id(),
                s.history(engine).count()
            );
        }
    }
    prop_assert_eq!(fleet.resident_sessions() as u64, next_id);
    Ok(fleet.session_fingerprints())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn split_replay_prefixes_match_a_whole_replay(
        window in 2usize..9,
        decimate in 1usize..6,
        seed in 0u64..1000,
    ) {
        let reference = run(window, decimate, seed, FleetBatch::PerSession, 1)?;
        for (batch, workers) in [(FleetBatch::Batched, 1), (FleetBatch::Batched, 3)] {
            let got = run(window, decimate, seed, batch, workers)?;
            prop_assert!(
                got == reference,
                "window {window}, decimate {decimate}: {batch:?} x{workers} changed a fingerprint"
            );
        }
    }
}

/// The deployed shape (window 20, decimation 5), where the pre-step
/// covers nine of a push's nineteen rows.
#[test]
fn deployed_shape_prefixes_match_a_whole_replay() {
    let reference = run(20, 5, 2021, FleetBatch::PerSession, 1).expect("per-session prefixes");
    let batched = run(20, 5, 2021, FleetBatch::Batched, 2).expect("batched prefixes");
    assert_eq!(batched, reference);
}

//! Mutation corpus for `PidPiper::from_text`: no edit of a deployment's
//! own lines makes the loader panic.
//!
//! Each case renders a tiny deployment as text v3, or rewrites it as its
//! v2 or v1 ancestor, and applies one to four edits of the model-text
//! corpus (`crates/ml/tests/mutation/mod.rs`) to the lines before the
//! embedded model: the header, thresholds, drifts, monitor and
//! supervisor parameters, consistency gates, trust band, strategy,
//! pipeline and feature set. The model lines have their own corpus. The
//! loader must return `Ok` or `Err`, never panic, and every deployment
//! it accepts must round-trip: its `to_text` loads again to the same
//! text.

#[path = "../../ml/tests/mutation/mod.rs"]
mod mutation;

use std::panic::{catch_unwind, AssertUnwindSafe};

use mutation::{apply, edits, Edit};
use pidpiper_core::ffc::PipelineConfig;
use pidpiper_core::monitor::AxisThresholds;
use pidpiper_core::{FeatureSet, FfcModel, PidPiper, PidPiperConfig};
use pidpiper_missions::StrategyKind;
use pidpiper_ml::{LstmRegressor, RegressorConfig};
use proptest::prelude::*;

/// A tiny deployment. Odd seeds monitor no thrust axis, so a threshold
/// is written as `-`, and select the diagnosis-guided strategy.
fn deployment(seed: u64) -> PidPiper {
    let set = FeatureSet::FfcPruned;
    let net = RegressorConfig {
        input_dim: set.dim(),
        output_dim: 4,
        hidden: 2,
        fc_width: 2,
        window: 3,
    };
    let ffc = FfcModel::new(
        LstmRegressor::new(net, seed),
        set,
        PipelineConfig {
            decimate: 2,
            gate: Default::default(),
        },
    );
    let quad = AxisThresholds::quad(18.0, 19.5, 17.25);
    let (thresholds, strategy) = if seed.is_multiple_of(2) {
        (quad.with_thrust(40.0), StrategyKind::Algorithm1)
    } else {
        (quad, StrategyKind::DiagnosisGuided)
    };
    let config = PidPiperConfig::new(thresholds, [1.5, 1.25, 2.0, 3.0], 5, 12);
    PidPiper::new(ffc, config.with_strategy(strategy))
}

/// The deployment's lines as text `version` (1..=3), split into its own
/// lines and the embedded model's. v2 drops the strategy line and v1
/// the supervisor-layer lines as well.
fn lines(pp: &PidPiper, version: u32) -> (Vec<String>, Vec<String>) {
    let v3 = pp.to_text();
    let mut own = Vec::new();
    let mut model = Vec::new();
    for l in v3.lines() {
        if !model.is_empty() || l.starts_with("pidpiper-lstm-regressor") {
            model.push(l.to_string());
            continue;
        }
        let dropped = match version {
            1 => ["consistency ", "band ", "supervisor ", "strategy "]
                .iter()
                .any(|p| l.starts_with(p)),
            2 => l.starts_with("strategy "),
            _ => false,
        };
        if dropped {
            continue;
        }
        own.push(match l.strip_prefix("pidpiper-deployment ") {
            Some(_) => format!("pidpiper-deployment v{version}"),
            None => l.to_string(),
        });
    }
    (own, model)
}

/// Loads the deployment of `seed` as text `version` after `edits` to its
/// own lines; `Err` if the loader panicked.
fn load_edited(
    seed: u64,
    version: u32,
    edits: &[Edit],
) -> Result<Result<PidPiper, String>, String> {
    let (mut own, model) = lines(&deployment(seed), version);
    for &edit in edits {
        apply(&mut own, edit);
    }
    let edited = own.join("\n");
    let text = format!("{edited}\n{}", model.join("\n"));
    catch_unwind(AssertUnwindSafe(|| PidPiper::from_text(&text)))
        .map_err(|_| format!("from_text panicked; the deployment's lines were:\n{edited}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn from_text_never_panics_and_accepted_deployments_round_trip(
        seed in 0u64..1000,
        version in 1u32..4,
        edits in edits(),
    ) {
        let loaded = load_edited(seed, version, &edits);
        prop_assert!(loaded.is_ok(), "edits {:?}: {}", edits, loaded.err().unwrap_or_default());
        if let Ok(Ok(pp)) = loaded {
            let written = pp.to_text();
            let reloaded = PidPiper::from_text(&written);
            prop_assert!(reloaded.is_ok(), "its own text failed to load: {:?}", reloaded.err());
            if let Ok(again) = reloaded {
                prop_assert!(again.to_text() == written, "the text changed on a round trip");
            }
        }
    }
}

/// The corpus reaches both outcomes, and a value the configuration
/// refuses is an `Err`, not a panic.
#[test]
fn corpus_edits_reach_both_outcomes() {
    let load = |version, edit| match load_edited(0, version, &[edit]) {
        Ok(result) => result,
        Err(panicked) => panic!("{panicked}"),
    };
    // Line 2 is the drifts line: a huge drift loads, a zero one does not.
    assert!(load(3, (3, 2, 5, 1)).is_ok());
    let refused = |version, edit, message: &str| {
        load(version, edit).is_err_and(|e| e.contains(message))
    };
    assert!(refused(3, (3, 2, 0, 1), "drifts must be positive"));
    // A zero window for the sensor gate: token 2 of the pipeline line,
    // line 9 of v3 and 5 of v1.
    assert!(refused(3, (3, 9, 0, 2), "window must be positive"));
    assert!(refused(1, (3, 5, 0, 2), "window must be positive"));
    // An unknown strategy (line 8 of v3), and a deleted header.
    assert!(refused(3, (3, 8, 0, 1), "unknown strategy"));
    assert!(refused(2, (0, 0, 0, 0), "unknown deployment header"));
}

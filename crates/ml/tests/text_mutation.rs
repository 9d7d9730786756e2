//! Mutation corpus for `LstmRegressor::from_text`: no edit of a valid
//! model text makes the loader panic.
//!
//! Each case applies one to four edits (`mutation/mod.rs`) to the text
//! of a valid model: delete, duplicate or truncate a line, or swap one
//! token for 0, −1, NaN, ±inf, 1e308 or an integer too large for any
//! dimension type. The loader must return `Ok` or `Err`, never panic,
//! and every model it accepts must round-trip through `to_text` bit for
//! bit: its text loads again to the same text (`to_text` writes the
//! shortest decimal that reads back to the same bits) and the same
//! predictions, compared with `to_bits`.

mod mutation;

use std::panic::{catch_unwind, AssertUnwindSafe};

use mutation::{apply, edits, Edit};
use pidpiper_ml::{LstmRegressor, RegressorConfig};
use proptest::prelude::*;

/// Bits of the model's prediction on a fixed window.
fn prediction_bits(model: &LstmRegressor) -> Vec<u64> {
    let c = model.config();
    let window: Vec<Vec<f64>> = (0..c.window)
        .map(|t| (0..c.input_dim).map(|j| ((t * 5 + j) as f64 * 0.37).sin()).collect())
        .collect();
    match model.predict(&window) {
        Ok(out) => out.iter().map(|v| v.to_bits()).collect(),
        Err(e) => panic!("a loaded model refused a well-shaped window: {e:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn from_text_never_panics_and_accepted_models_round_trip(
        seed in 0u64..1000,
        edits in edits(),
    ) {
        let original = LstmRegressor::new(RegressorConfig::tiny(3, 2), seed).to_text();
        let mut lines: Vec<String> = original.lines().map(str::to_string).collect();
        for &edit in &edits {
            apply(&mut lines, edit);
        }
        let text = lines.join("\n");
        let loaded = catch_unwind(AssertUnwindSafe(|| LstmRegressor::from_text(&text)));
        prop_assert!(loaded.is_ok(), "from_text panicked after edits {edits:?}");
        if let Ok(Ok(model)) = loaded {
            let written = model.to_text();
            let reloaded = LstmRegressor::from_text(&written);
            prop_assert!(reloaded.is_ok(), "its own text failed to load: {reloaded:?}");
            if let Ok(again) = reloaded {
                prop_assert!(again.to_text() == written, "the text changed on a round trip");
                prop_assert_eq!(prediction_bits(&again), prediction_bits(&model));
            }
        }
    }
}

/// The corpus reaches both outcomes: some edits leave a loadable model
/// (a swapped weight, say) and some are refused.
#[test]
fn corpus_edits_reach_both_outcomes() {
    let original = LstmRegressor::new(RegressorConfig::tiny(3, 2), 1).to_text();
    let edited = |edit: Edit| {
        let mut lines: Vec<String> = original.lines().map(str::to_string).collect();
        apply(&mut lines, edit);
        LstmRegressor::from_text(&lines.join("\n"))
    };
    // Line 6 is the first weight line: a finite swap loads, a NaN does not.
    assert!(edited((3, 6, 5, 0)).is_ok());
    assert!(edited((3, 6, 2, 0)).is_err());
    // Deleting the dimensions line, or a huge dimension, is refused.
    assert!(edited((0, 1, 0, 0)).is_err());
    assert!(edited((3, 1, 7, 2)).is_err());
}

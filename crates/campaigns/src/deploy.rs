//! Train-or-load support for the `pidpiper-campaign` binary: the deployed
//! PID-Piper defense a campaign search attacks.
//!
//! Shares the bench harness's on-disk model cache byte-for-byte — same
//! cache version, same key format (`v8-<RV>-<Scale>.pidpiper`), same
//! refuse-and-retrain policy on corrupt artifacts — so `pidpiper-campaign`
//! and `pidpiper-bench` reuse each other's trained models instead of
//! paying for training twice.

use pidpiper_core::{artifact, PidPiper, Trainer, TrainerConfig};
use pidpiper_math::json::workspace_root;
use pidpiper_missions::{MissionPlan, MissionRunner, MissionSpec, NoDefense, RunnerConfig, Trace};
use pidpiper_sim::{RvId, VehicleKind};
use std::fs;
use std::path::PathBuf;

/// The standard trace-collection seed (offset per mission; matches the
/// bench harness).
pub const TRACE_SEED: u64 = 500;

/// Cache version — must track the bench harness's `CACHE_VERSION` so the
/// two binaries share artifacts.
const CACHE_VERSION: &str = "v8";

/// Training scale, selected by `PIDPIPER_SCALE` (mirrors the bench
/// harness's `Scale`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainScale {
    /// Reduced mission geometry for fast runs (the default).
    Quick,
    /// Paper-scale geometry.
    Full,
}

impl TrainScale {
    /// Reads `PIDPIPER_SCALE` (default quick).
    pub fn from_env() -> TrainScale {
        match std::env::var("PIDPIPER_SCALE").as_deref() {
            Ok("full") => TrainScale::Full,
            _ => TrainScale::Quick,
        }
    }

    /// Geometry scale applied to training-mission distances.
    pub fn geometry(self) -> f64 {
        match self {
            TrainScale::Quick => 0.5,
            TrainScale::Full => 1.0,
        }
    }
}

fn cache_dir() -> PathBuf {
    let dir = workspace_root().join("target/pidpiper-cache");
    let _ = fs::create_dir_all(&dir);
    dir
}

fn models_dir() -> PathBuf {
    workspace_root().join("models")
}

/// Collects the Table-I attack-free training trace set for one RV (the
/// bench harness's `collect_traces`, reproduced here to avoid a circular
/// dependency on the bench crate).
pub fn training_traces(rv: RvId, scale: TrainScale) -> Vec<Trace> {
    let plans = MissionPlan::table1_missions(rv, 7, scale.geometry());
    let specs: Vec<MissionSpec> = plans
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            MissionSpec::clean(RunnerConfig::for_rv(rv).with_seed(TRACE_SEED + i as u64), p)
        })
        .collect();
    MissionRunner::par_run_missions(&specs, |_| Box::new(NoDefense::new()))
        .into_iter()
        .map(|r| r.trace)
        .collect()
}

/// Trains (or loads from the shared cache) the deployed PID-Piper for one
/// RV. A corrupt on-disk artifact is refused and retrained, never parsed
/// around.
pub fn deployed_pidpiper(rv: RvId, scale: TrainScale) -> PidPiper {
    let key = format!(
        "{}-{}-{:?}.pidpiper",
        CACHE_VERSION,
        rv.name().replace(' ', "_"),
        scale
    );
    let cache_path = cache_dir().join(&key);
    for candidate in [cache_path.clone(), models_dir().join(&key)] {
        match artifact::load_deployment(&candidate) {
            Ok((pp, integrity)) => {
                eprintln!(
                    "[campaign] loaded PID-Piper for {rv} from {} ({integrity:?})",
                    candidate.display()
                );
                return pp;
            }
            // A missing file is the normal first-run case.
            Err(artifact::ArtifactError::Io { .. }) => {}
            Err(err) => eprintln!(
                "[campaign] model at {} rejected ({err}); retraining",
                candidate.display()
            ),
        }
    }
    eprintln!("[campaign] training PID-Piper for {rv} (no cached model)");
    let traces = training_traces(rv, scale);
    let trainer = Trainer::new(TrainerConfig::default());
    let trained = trainer.train(&traces, rv.kind() == VehicleKind::Rover);
    if let Err(err) = artifact::save_deployment(&cache_path, &trained.pidpiper) {
        eprintln!(
            "[campaign] could not cache model at {}: {err}",
            cache_path.display()
        );
    }
    trained.pidpiper
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_key_matches_the_bench_harness_format() {
        // The shared-cache contract: "v8-<RV with spaces underscored>-
        // <Scale:?>.pidpiper". Pin it so a drift from the harness's key
        // format (which would silently double training costs) fails here.
        assert_eq!(CACHE_VERSION, "v8");
        let rv = RvId::Px4Solo;
        assert_eq!(rv.name().replace(' ', "_"), "PX4_Solo");
    }

    #[test]
    fn scale_defaults_to_quick_geometry() {
        assert!(TrainScale::Quick.geometry() < TrainScale::Full.geometry());
    }
}

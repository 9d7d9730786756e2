//! Mission outcome classification and summary statistics.
//!
//! The paper's success metric (Section VI-A): a mission succeeds if the
//! final deviation from the destination is less than 10 m (2x the typical
//! commodity-GPS offset); it fails if the RV crashes, stalls, or ends
//! further away.

use crate::defense::HealthState;
use crate::trace::Trace;
use pidpiper_math::Vec3;

/// The paper's 10 m success radius.
pub const SUCCESS_RADIUS_M: f64 = 10.0;

/// Terminal classification of a mission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MissionOutcome {
    /// Reached the destination within 10 m without crashing or stalling.
    Success,
    /// Completed (no crash/stall) but ended more than 10 m away.
    Failed {
        /// Final deviation from the destination (m).
        deviation: f64,
    },
    /// The vehicle was destroyed.
    Crashed,
    /// The vehicle froze / stopped making progress (paper: "stall").
    Stalled,
}

impl MissionOutcome {
    /// Whether the mission succeeded.
    pub fn is_success(self) -> bool {
        matches!(self, MissionOutcome::Success)
    }

    /// Whether the vehicle crashed or stalled.
    pub fn is_crash_or_stall(self) -> bool {
        matches!(self, MissionOutcome::Crashed | MissionOutcome::Stalled)
    }

    /// Classifies from terminal facts.
    pub fn classify(crashed: bool, stalled: bool, deviation: f64) -> Self {
        if crashed {
            MissionOutcome::Crashed
        } else if stalled {
            MissionOutcome::Stalled
        } else if deviation < SUCCESS_RADIUS_M {
            MissionOutcome::Success
        } else {
            MissionOutcome::Failed { deviation }
        }
    }
}

impl std::fmt::Display for MissionOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MissionOutcome::Success => write!(f, "success"),
            MissionOutcome::Failed { deviation } => write!(f, "failed ({deviation:.1} m)"),
            MissionOutcome::Crashed => write!(f, "crashed"),
            MissionOutcome::Stalled => write!(f, "stalled"),
        }
    }
}

/// Full result of one mission run.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionResult {
    /// Terminal classification.
    pub outcome: MissionOutcome,
    /// Final ground-truth deviation from the destination (m); for crashes,
    /// the deviation at the moment of the crash.
    pub final_deviation: f64,
    /// Maximum ground-truth cross-track deviation observed en route (m).
    pub max_path_deviation: f64,
    /// Wall-clock mission duration in simulated seconds.
    pub mission_time: f64,
    /// Number of recovery activations by the defense.
    pub recovery_activations: usize,
    /// Steps spent in recovery mode.
    pub recovery_steps: usize,
    /// Steps during which an attack was perturbing sensors.
    pub attack_steps: usize,
    /// Steps during which an injected benign fault was active.
    pub fault_steps: usize,
    /// The defense's [`HealthState`] when the mission ended.
    pub final_health: HealthState,
    /// Health-state transitions over the mission (Nominal → Recovery →
    /// Degraded machine; re-entries count).
    pub health_transitions: usize,
    /// Steps spent in the latched `Degraded` fail-safe state.
    pub degraded_steps: usize,
    /// Steps on which the readings guard substituted held values for
    /// non-finite sensor channels.
    pub stale_sensor_steps: usize,
    /// The full per-step trace.
    pub trace: Trace,
}

/// Aggregates outcome counts across missions (one table row).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Missions that succeeded.
    pub success: usize,
    /// Missions that completed but missed the 10 m radius.
    pub failed: usize,
    /// Missions ending in a crash or stall.
    pub crash_or_stall: usize,
}

impl OutcomeCounts {
    /// Tallies a batch of outcomes.
    pub fn tally<'a, I: IntoIterator<Item = &'a MissionOutcome>>(outcomes: I) -> Self {
        let mut c = OutcomeCounts::default();
        for o in outcomes {
            match o {
                MissionOutcome::Success => c.success += 1,
                MissionOutcome::Failed { .. } => c.failed += 1,
                MissionOutcome::Crashed | MissionOutcome::Stalled => c.crash_or_stall += 1,
            }
        }
        c
    }

    /// Total missions tallied.
    pub fn total(&self) -> usize {
        self.success + self.failed + self.crash_or_stall
    }

    /// Success rate in percent.
    pub fn success_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * self.success as f64 / self.total() as f64
        }
    }
}

/// Computes the ground-truth deviation of a point from the destination.
pub fn deviation_from(destination: Vec3, position: Vec3) -> f64 {
    position.distance_xy(Vec3::new(destination.x, destination.y, 0.0))
}

/// Empirical CDF points `(deviation, fraction <= deviation)` for Figure 7.
pub fn deviation_cdf(deviations: &[f64]) -> Vec<(f64, f64)> {
    if deviations.is_empty() {
        return Vec::new();
    }
    let mut sorted = deviations.to_vec();
    pidpiper_math::sort_floats(&mut sorted);
    let n = sorted.len() as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, d)| (d, (i + 1) as f64 / n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        assert_eq!(
            MissionOutcome::classify(true, false, 0.0),
            MissionOutcome::Crashed
        );
        assert_eq!(
            MissionOutcome::classify(false, true, 0.0),
            MissionOutcome::Stalled
        );
        assert_eq!(
            MissionOutcome::classify(false, false, 5.0),
            MissionOutcome::Success
        );
        assert_eq!(
            MissionOutcome::classify(false, false, 12.0),
            MissionOutcome::Failed { deviation: 12.0 }
        );
        // Crash wins over deviation.
        assert_eq!(
            MissionOutcome::classify(true, true, 1.0),
            MissionOutcome::Crashed
        );
    }

    #[test]
    fn ten_metre_boundary() {
        assert!(MissionOutcome::classify(false, false, 9.99).is_success());
        assert!(!MissionOutcome::classify(false, false, 10.0).is_success());
    }

    #[test]
    fn counts_tally() {
        let outcomes = vec![
            MissionOutcome::Success,
            MissionOutcome::Success,
            MissionOutcome::Failed { deviation: 15.0 },
            MissionOutcome::Crashed,
            MissionOutcome::Stalled,
        ];
        let c = OutcomeCounts::tally(&outcomes);
        assert_eq!(c.success, 2);
        assert_eq!(c.failed, 1);
        assert_eq!(c.crash_or_stall, 2);
        assert_eq!(c.total(), 5);
        assert!((c.success_rate() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_is_monotone_and_normalized() {
        let cdf = deviation_cdf(&[3.0, 1.0, 2.0, 8.0]);
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf[0], (1.0, 0.25));
        assert_eq!(cdf[3], (8.0, 1.0));
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert!(deviation_cdf(&[]).is_empty());
    }

    #[test]
    fn deviation_ignores_altitude() {
        let d = deviation_from(Vec3::new(10.0, 0.0, 5.0), Vec3::new(13.0, 4.0, 0.0));
        assert_eq!(d, 5.0);
    }
}

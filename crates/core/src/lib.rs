//! *PID-Piper*: recovering robotic vehicles from physical attacks.
//!
//! This crate is the paper's primary contribution, built on the substrates
//! in the sibling crates:
//!
//! - a **feed-forward controller (FFC)** — an LSTM regression model
//!   ([`ffc::FfcModel`]) trained to emulate the RV's PID position
//!   controller: it predicts the actuator signal `y'(t)` from the current
//!   state `x(t)` and target `u(t)`;
//! - the **feature pipeline** ([`features`]) implementing the paper's
//!   feature engineering: a 44-feature full catalogue and the 24-feature
//!   VIF-pruned set that removes the highly collinear velocity /
//!   acceleration / raw-IMU channels;
//! - the **noise model** ([`gate::VarianceGate`]) — the explicit
//!   counterpart of the LSTM's sigmoid input layer: each sensor-derived
//!   feature is gated by the variance between its recent history `X(k)`
//!   and present value `x(t)`, attenuating attack-induced jumps;
//! - a **feedback controller (FBC)** variant ([`fbc::FbcModel`]) used by
//!   the paper's design study (Section IV-C) — it predicts the current
//!   state `x'(t)` instead and lets a shadow PID derive the signal,
//!   which retains the over-compensation weakness;
//! - the **monitoring module** ([`monitor::CusumMonitor`]) tracking the
//!   per-axis CUSUM of `|y_ML - y_PID|` against thresholds calibrated by
//!   **dynamic time warping** over attack-free missions ([`threshold`]);
//! - the **recovery module** ([`pidpiper::PidPiper`]) implementing the
//!   paper's Algorithm 1 as a [`pidpiper_missions::Defense`]: on
//!   detection, the RV flies the FFC's predictions (and its inner loops
//!   consume the noise-gated estimate) until the residual returns to
//!   zero;
//! - the **pluggable recovery strategies** ([`strategy`]) behind the
//!   [`strategy::RecoveryStrategy`] trait: Algorithm 1 plus
//!   spec-compliance and diagnosis-guided alternatives from the related
//!   work, selectable per deployment/mission/fleet-session;
//! - the **graceful-degradation supervisor** ([`supervisor`]) bounding
//!   the defense's own failure modes: FFC output health checks with an
//!   offline latch, and a recovery watchdog that forces an explicit
//!   `Degraded` fail-safe instead of an unbounded recovery;
//! - the **training pipeline** ([`trainer`]) that turns attack-free
//!   mission traces into datasets, trains the models and calibrates the
//!   thresholds end to end.

#![deny(missing_docs)]

pub mod artifact;
pub mod fbc;
pub mod features;
pub mod ffc;
pub mod gate;
pub mod monitor;
pub mod pidpiper;
pub mod sanitizer;
pub mod strategy;
pub mod supervisor;
pub mod threshold;
pub mod trainer;

pub use artifact::{load_deployment, save_deployment, ArtifactError, ArtifactIntegrity};
pub use fbc::FbcModel;
pub use features::{FeatureSet, SensorPrimitives};
pub use ffc::{FfcModel, ReplayRows};
pub use gate::{GateConfig, VarianceGate};
pub use monitor::{AxisThresholds, CusumMonitor};
pub use pidpiper::{ConsistencyGates, PidPiper, PidPiperConfig, TrustBand};
pub use sanitizer::SensorSanitizer;
pub use strategy::{
    Algorithm1Strategy, DiagnosisGuidedStrategy, RecoveryContext, RecoveryStrategy,
    SpecComplianceStrategy, StrategyState,
};
pub use supervisor::{FfcHealthMonitor, RecoveryWatchdog, SessionSupervisor, SignalEnvelope};
pub use threshold::calibrate_thresholds;
pub use trainer::{TrainedPidPiper, Trainer, TrainerConfig};

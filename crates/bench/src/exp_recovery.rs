//! Recovery-strategy tournament: every [`StrategyKind`] against benign
//! faults *and* overt attacks on several vehicle profiles, reporting
//! survival rate, mission deviation and time-to-recover per cell — plus
//! the Algorithm-1 regression gate that pins the trait port to the
//! pre-refactor supervisor path, trace-fingerprint by trace-fingerprint.
//!
//! [`StrategyKind`]: pidpiper_missions::StrategyKind

use crate::exp_fault_matrix::fault_cases;
use crate::harness::{self, Scale};
use pidpiper_attacks::AttackPreset;
use pidpiper_core::ffc::PipelineConfig;
use pidpiper_core::{AxisThresholds, FeatureSet, FfcModel, PidPiper, PidPiperConfig};
use pidpiper_faults::{Fault, FaultKind, FaultSchedule};
use pidpiper_math::json::{self, Json};
use pidpiper_math::json_object;
use pidpiper_missions::{
    MissionAttack, MissionPlan, MissionRunner, MissionSpec, RunnerConfig, StrategyKind,
};
use pidpiper_ml::{LstmRegressor, RegressorConfig};
use pidpiper_sim::{RvId, VehicleKind};
use std::fmt::Write as _;
use std::io;

/// Seed base for the regression-gate missions (fixed forever: changing it
/// invalidates [`BASELINE_FINGERPRINTS`]).
const GATE_SEED_BASE: u64 = 42;

/// The tiny untrained deployment flown by the regression gate. Accuracy is
/// irrelevant here — the gate compares *trajectories of decisions*, and an
/// untrained FFC exercises the trip/recover/degrade machinery harder than
/// a trained one (its predictions disagree with the PID almost at once).
fn gate_pidpiper() -> PidPiper {
    let set = FeatureSet::FfcPruned;
    let net = RegressorConfig {
        input_dim: set.dim(),
        output_dim: 4,
        hidden: 4,
        fc_width: 4,
        window: 3,
    };
    PidPiper::new(
        FfcModel::new(
            LstmRegressor::new(net, 7),
            set,
            PipelineConfig {
                decimate: 1,
                gate: Default::default(),
            },
        ),
        PidPiperConfig::new(AxisThresholds::quad(18.0, 18.0, 18.6), [0.5; 4], 5, 12),
    )
}

/// One pinned regression-gate mission.
struct GateCase {
    config: RunnerConfig,
    plan: MissionPlan,
    attacks: Vec<MissionAttack>,
}

/// The five gate missions: clean, two benign faults, one overt attack and
/// one timing fault — together they drive the supervisor through warmup,
/// trip, recovery flight, exit and the degraded latch.
fn gate_cases() -> Vec<GateCase> {
    let rv = RvId::ArduCopter;
    let plan = || MissionPlan::straight_line(30.0, 5.0);
    vec![
        GateCase {
            config: RunnerConfig::for_rv(rv).with_seed(GATE_SEED_BASE),
            plan: plan(),
            attacks: vec![],
        },
        GateCase {
            config: RunnerConfig::for_rv(rv)
                .with_seed(GATE_SEED_BASE + 1)
                .with_faults(vec![Fault::new(
                    FaultKind::GpsDropout,
                    FaultSchedule::Windows(vec![(8.0, 12.0)]),
                )])
                .with_fault_seed(91),
            plan: plan(),
            attacks: vec![],
        },
        GateCase {
            config: RunnerConfig::for_rv(rv)
                .with_seed(GATE_SEED_BASE + 2)
                .with_faults(vec![Fault::new(
                    FaultKind::NanBurst,
                    FaultSchedule::Intermittent {
                        start: 8.0,
                        on: 0.5,
                        off: 4.0,
                    },
                )])
                .with_fault_seed(92),
            plan: plan(),
            attacks: vec![],
        },
        GateCase {
            config: RunnerConfig::for_rv(rv).with_seed(GATE_SEED_BASE + 3),
            plan: plan(),
            attacks: vec![MissionAttack::Scheduled(
                AttackPreset::GpsOvert.instantiate(8.0, (0.0, 0.0)),
            )],
        },
        GateCase {
            config: RunnerConfig::for_rv(rv)
                .with_seed(GATE_SEED_BASE + 4)
                .with_faults(vec![Fault::new(
                    FaultKind::ControlJitter {
                        skip_probability: 0.2,
                    },
                    FaultSchedule::Continuous { start: 8.0 },
                )])
                .with_fault_seed(93),
            plan: plan(),
            attacks: vec![],
        },
    ]
}

/// Trace fingerprints of the gate missions recorded on the *pre-refactor*
/// supervisor path (the hardcoded Algorithm 1 inside `PidPiper::observe`,
/// before the `RecoveryStrategy` extraction). The trait port must
/// reproduce every one bit-identically.
///
/// Re-pinned once since the extraction: the batched-inference work moved
/// every activation call (scalar, batched, training) onto the shared
/// `pidpiper_math::activations` kernels, a deliberate workspace-wide
/// bit-level change. The constants below were recorded on that tree with
/// the strategy port and its pre-refactor shape in agreement; any *new*
/// divergence is a port regression, exactly as before.
pub const BASELINE_FINGERPRINTS: [(&str, u64); 5] = [
    ("clean", 0x89f5_57c8_8c59_7f04),
    ("gps dropout 4s", 0x94a4_6628_4678_263d),
    ("nan bursts 0.5s/4s", 0xb293_0b72_9876_8182),
    ("gps overt attack", 0x44a0_65e3_2a7c_9833),
    ("ctrl jitter p=0.2", 0xdad2_be45_7cac_d619),
];

/// Flies the gate missions on the current tree and compares each trace
/// fingerprint against [`BASELINE_FINGERPRINTS`]. `Err` carries one line
/// per divergent case.
pub fn baseline_gate() -> Result<(), String> {
    let mut failures = String::new();
    for (case, (label, expected)) in gate_cases().into_iter().zip(BASELINE_FINGERPRINTS) {
        let mut defense = gate_pidpiper();
        let result = MissionRunner::new(case.config).run(&case.plan, &mut defense, case.attacks);
        let actual = result.trace.fingerprint();
        if actual != expected {
            let _ = writeln!(
                failures,
                "{label}: expected {expected:#018x}, got {actual:#018x}"
            );
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

/// Seed base for the tournament cells (own block, far from the fault
/// matrix and the soak). Seeds depend on `(vehicle, case, mission)` but
/// NOT on the strategy: every strategy flies the same missions against
/// the same fault realizations, so cells in one row are comparable.
const TOURNAMENT_SEED_BASE: u64 = 13_000;

/// When the overt attacks of the tournament begin (past the monitors'
/// warmup, matching the fault matrix's mid-mission activation).
const ATTACK_START: f64 = 8.0;

/// What one tournament column injects into every mission of a cell.
enum CaseLoad {
    /// A benign fault (from the fault matrix's case list).
    Fault(FaultKind, FaultSchedule),
    /// An overt sensor attack preset, scheduled at [`ATTACK_START`].
    Attack(AttackPreset),
}

/// One tournament scenario: a label plus the injected load.
struct TournamentCase {
    label: &'static str,
    load: CaseLoad,
}

/// The tournament's scenario list: every benign fault of the fault matrix
/// plus two overt attacks (GPS and gyro), so the strategies are compared
/// on both accidental and adversarial trips. Smoke mode keeps one of
/// each flavor for a fast CI signal.
fn tournament_cases(smoke: bool) -> Vec<TournamentCase> {
    let mut cases: Vec<TournamentCase> = fault_cases()
        .into_iter()
        .map(|c| TournamentCase {
            label: c.label,
            load: CaseLoad::Fault(c.kind, c.schedule),
        })
        .collect();
    cases.push(TournamentCase {
        label: "gps overt attack",
        load: CaseLoad::Attack(AttackPreset::GpsOvert),
    });
    cases.push(TournamentCase {
        label: "gyro overt attack",
        load: CaseLoad::Attack(AttackPreset::GyroOvert),
    });
    if smoke {
        cases.retain(|c| matches!(c.label, "gps dropout 4s" | "gps overt attack"));
    }
    cases
}

/// Aggregated outcome of one `strategy x case x vehicle` cell.
#[derive(Debug, Clone)]
pub struct TournamentCell {
    /// The recovery strategy flown.
    pub strategy: StrategyKind,
    /// The vehicle profile.
    pub vehicle: RvId,
    /// The scenario label.
    pub case: &'static str,
    /// Missions flown.
    pub missions: usize,
    /// Missions ending without a crash or stall.
    pub survived: usize,
    /// Missions ending in the latched `Degraded` fail-safe.
    pub degraded: usize,
    /// Mean final deviation (m) over the surviving missions; `None` when
    /// nothing survived.
    pub mean_deviation: Option<f64>,
    /// Mean simulated seconds per recovery activation, over missions that
    /// actually recovered; `None` when no mission activated recovery.
    pub time_to_recover_s: Option<f64>,
}

impl TournamentCell {
    /// Survival rate in percent.
    pub fn survival_rate(&self) -> f64 {
        100.0 * self.survived as f64 / self.missions.max(1) as f64
    }
}

/// Flies one tournament cell: `plans` under `defense` with the cell's
/// load injected, the per-mission strategy selected via
/// [`RunnerConfig::with_strategy`] (mission `i` gets seed
/// `seed_base + i`, fault seed `seed_base + 31 * i`).
fn run_tournament_cell(
    rv: RvId,
    defense: &PidPiper,
    plans: &[MissionPlan],
    case: &TournamentCase,
    strategy: StrategyKind,
    seed_base: u64,
) -> TournamentCell {
    let specs: Vec<MissionSpec> = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let mut config = RunnerConfig::for_rv(rv)
                .with_seed(seed_base + i as u64)
                .with_strategy(strategy);
            let mut attacks = Vec::new();
            match &case.load {
                CaseLoad::Fault(kind, schedule) => {
                    config = config
                        .with_faults(vec![Fault::new(kind.clone(), schedule.clone())])
                        .with_fault_seed(seed_base + 31 * i as u64);
                }
                CaseLoad::Attack(preset) => {
                    attacks.push(MissionAttack::Scheduled(
                        preset.instantiate(ATTACK_START, (0.0, 0.0)),
                    ));
                }
            }
            MissionSpec::clean(config, plan.clone()).with_attacks(attacks)
        })
        .collect();
    let dt = specs
        .first()
        .map(|s| s.config.control_dt)
        .unwrap_or(0.01);

    let mut cell = TournamentCell {
        strategy,
        vehicle: rv,
        case: case.label,
        missions: 0,
        survived: 0,
        degraded: 0,
        mean_deviation: None,
        time_to_recover_s: None,
    };
    let mut deviation_sum = 0.0;
    let mut ttr_sum = 0.0;
    let mut ttr_count = 0usize;
    for result in harness::par_with_defense(&specs, defense) {
        cell.missions += 1;
        if result.final_health.is_degraded() {
            cell.degraded += 1;
        }
        if result.outcome.is_crash_or_stall() {
            continue;
        }
        cell.survived += 1;
        deviation_sum += result.final_deviation;
        if result.recovery_activations > 0 {
            ttr_sum += result.recovery_steps as f64 * dt / result.recovery_activations as f64;
            ttr_count += 1;
        }
    }
    if cell.survived > 0 {
        cell.mean_deviation = Some(deviation_sum / cell.survived as f64);
    }
    if ttr_count > 0 {
        cell.time_to_recover_s = Some(ttr_sum / ttr_count as f64);
    }
    cell
}

/// Runs the full strategy × fault × vehicle tournament. `smoke` shrinks
/// the grid to one vehicle, two cases and two missions per cell (the CI
/// smoke configuration). Returns the human-readable report plus every
/// cell for the JSON artifact.
pub fn run_tournament(scale: Scale, smoke: bool) -> (String, Vec<TournamentCell>) {
    let vehicles: &[RvId] = if smoke {
        &[RvId::ArduCopter]
    } else {
        &[RvId::ArduCopter, RvId::Px4Solo, RvId::ArduRover]
    };
    let cases = tournament_cases(smoke);
    let n = if smoke { 2 } else { (scale.missions() / 3).max(4) };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Recovery-strategy tournament: {} strategies x {} cases x {} vehicle(s), \
         {n} missions per cell\n\
         cell format: survival% / mean deviation m / time-to-recover s (dash: no sample)",
        StrategyKind::ALL.len(),
        cases.len(),
        vehicles.len(),
    );

    let mut cells = Vec::new();
    for (v, &rv) in vehicles.iter().enumerate() {
        let traces = harness::collect_traces(rv, scale);
        let pidpiper = harness::trained_pidpiper(rv, scale, &traces);
        let altitude = if rv.kind() == VehicleKind::Rover { 0.0 } else { 5.0 };
        let plans: Vec<MissionPlan> = (0..n)
            .map(|i| {
                if i % 3 == 2 {
                    MissionPlan::multi_waypoint(3, 60.0 * scale.geometry(), altitude, 40 + i as u64)
                } else {
                    MissionPlan::straight_line(
                        (40.0 + 4.0 * i as f64) * scale.geometry().max(0.5),
                        altitude,
                    )
                }
            })
            .collect();

        let _ = writeln!(out, "\n{rv}:");
        let widths = [20, 24, 24, 24];
        let header: Vec<String> = std::iter::once("Case".to_string())
            .chain(StrategyKind::ALL.iter().map(|s| s.name().to_string()))
            .collect();
        let _ = writeln!(out, "{}", harness::row(&header, &widths));
        for (c, case) in cases.iter().enumerate() {
            let seed_base = TOURNAMENT_SEED_BASE + 1000 * v as u64 + 100 * c as u64;
            let mut row = vec![case.label.to_string()];
            for &strategy in StrategyKind::ALL.iter() {
                let cell =
                    run_tournament_cell(rv, &pidpiper, &plans, case, strategy, seed_base);
                let dev = cell
                    .mean_deviation
                    .map(|d| format!("{d:.1}"))
                    .unwrap_or_else(|| "-".into());
                let ttr = cell
                    .time_to_recover_s
                    .map(|t| format!("{t:.2}"))
                    .unwrap_or_else(|| "-".into());
                row.push(format!("{:.0}% / {dev} / {ttr}", cell.survival_rate()));
                cells.push(cell);
            }
            let _ = writeln!(out, "{}", harness::row(&row, &widths));
        }
    }
    let _ = writeln!(
        out,
        "\nSeeds depend on (vehicle, case, mission) only — each row's strategies fly\n\
         identical missions and fault realizations, so cells are directly comparable."
    );
    harness::emit_report("recovery_tournament", &out);
    (out, cells)
}

/// The `BENCH_recovery.json` document: the tournament cells plus the
/// regression-gate verdict.
#[derive(Debug, Clone)]
pub struct TournamentReport {
    /// The experiment scale the tournament ran at.
    pub scale: Scale,
    /// Whether the reduced smoke grid ran.
    pub smoke: bool,
    /// Whether [`baseline_gate`] passed before the tournament flew.
    pub gate_passed: bool,
    /// Every `strategy x case x vehicle` cell.
    pub cells: Vec<TournamentCell>,
}

impl TournamentReport {
    /// Checks every value the report promises: a passed fingerprint
    /// gate, a non-empty grid with one cell per strategy in every row,
    /// and per cell a positive mission count, a survival rate within
    /// 0–100 %, non-negative deviation and time-to-recover, and no more
    /// degraded missions than missions.
    ///
    /// # Errors
    ///
    /// Describes the first violated property.
    pub fn check(&self) -> Result<(), String> {
        if !self.gate_passed {
            return Err("fingerprint gate did not pass".into());
        }
        harness::check_grid(self.cells.len())?;
        for c in &self.cells {
            let at = format!("cell ({}, {}, {})", c.strategy.name(), c.vehicle, c.case);
            if c.missions == 0 {
                return Err(format!("{at}: no missions"));
            }
            if !(0.0..=100.0).contains(&c.survival_rate()) {
                return Err(format!(
                    "{at}: survival rate {} outside 0..=100",
                    c.survival_rate()
                ));
            }
            for (key, v) in [
                ("mean_deviation", c.mean_deviation),
                ("time_to_recover_s", c.time_to_recover_s),
            ] {
                if let Some(v) = v.filter(|v| !(v.is_finite() && *v >= 0.0)) {
                    return Err(format!("{at}: {key} is {v}, expected >= 0"));
                }
            }
            if c.degraded > c.missions {
                return Err(format!(
                    "{at}: {} degraded of {} missions",
                    c.degraded, c.missions
                ));
            }
        }
        Ok(())
    }
}

/// The fingerprint gate pins at least five missions (clean, two faults,
/// an overt attack, a timing fault).
const _: () = assert!(BASELINE_FINGERPRINTS.len() >= 5);

/// Renders the tournament (and the regression-gate verdict) as the
/// `BENCH_recovery.json` document.
pub fn to_json(r: &TournamentReport) -> String {
    let cells = r.cells.iter().map(|c| {
        json_object! {
            "strategy" => c.strategy.name(),
            "vehicle" => c.vehicle.to_string(),
            "case" => c.case,
            "missions" => c.missions,
            "survival_rate" => Json::fixed(c.survival_rate(), 1),
            "mean_deviation" => c.mean_deviation.map(|d| Json::fixed(d, 2)),
            "time_to_recover_s" => c.time_to_recover_s.map(|t| Json::fixed(t, 3)),
            "degraded" => c.degraded,
        }
    });
    let doc = json_object! {
        "bench" => "recovery_tournament",
        "config" => json_object! {
            "scale" => format!("{:?}", r.scale),
            "smoke" => r.smoke,
            "strategies" => Json::array(StrategyKind::ALL.map(|s| s.name())),
        },
        "fingerprint_gate" => json_object! {
            "passed" => r.gate_passed,
            "cases" => BASELINE_FINGERPRINTS.len(),
        },
        "cells" => Json::array(cells),
    };
    doc.render()
}

/// Writes `BENCH_recovery.json` to the workspace root and mirrors it into
/// `target/experiments/`.
///
/// # Errors
///
/// Returns the I/O error of a failed write.
pub fn write_report(r: &TournamentReport) -> io::Result<()> {
    json::write_bench_report("BENCH_recovery.json", &to_json(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm1_trait_port_is_bit_identical_to_prerefactor_baseline() {
        if let Err(report) = baseline_gate() {
            panic!("Algorithm-1-on-trait diverged from the pre-refactor supervisor:\n{report}");
        }
    }

    /// A fixed report whose rendering was captured from the hand-written
    /// template this writer replaced.
    fn fixed_report() -> TournamentReport {
        let cell = |strategy,
                    vehicle,
                    case,
                    missions,
                    survived,
                    degraded,
                    mean_deviation,
                    time_to_recover_s| {
            TournamentCell {
                strategy,
                vehicle,
                case,
                missions,
                survived,
                degraded,
                mean_deviation,
                time_to_recover_s,
            }
        };
        use StrategyKind::*;
        TournamentReport {
            scale: Scale::Quick,
            smoke: true,
            gate_passed: true,
            cells: vec![
                cell(
                    Algorithm1,
                    RvId::ArduCopter,
                    "gps dropout 4s",
                    3,
                    2,
                    1,
                    Some(3.256),
                    Some(1.5004),
                ),
                cell(
                    SpecCompliance,
                    RvId::ArduRover,
                    "gps overt attack",
                    4,
                    0,
                    0,
                    None,
                    None,
                ),
                cell(
                    DiagnosisGuided,
                    RvId::Px4Solo,
                    "nan burst",
                    4,
                    3,
                    0,
                    Some(0.0),
                    None,
                ),
            ],
        }
    }

    #[test]
    fn json_matches_the_golden_rendering() {
        let golden = include_str!("../tests/golden/BENCH_recovery.json");
        assert_eq!(
            json::minify(&to_json(&fixed_report())),
            json::minify(golden)
        );
    }

    #[test]
    fn check_rejects_each_violated_property() {
        assert_eq!(fixed_report().check(), Ok(()));
        type Breaker = fn(&mut TournamentReport);
        let cases: [(&str, Breaker); 9] = [
            ("fingerprint gate", |r| r.gate_passed = false),
            ("multiple of 3 strategies", |r| r.cells.clear()),
            ("multiple of 3 strategies", |r| r.cells.truncate(2)),
            ("no missions", |r| r.cells[1].missions = 0),
            ("survival rate", |r| r.cells[0].survived = 4),
            ("mean_deviation", |r| r.cells[0].mean_deviation = Some(-0.5)),
            ("mean_deviation", |r| {
                r.cells[2].mean_deviation = Some(f64::NAN)
            }),
            ("time_to_recover_s", |r| {
                r.cells[0].time_to_recover_s = Some(-1.0)
            }),
            ("degraded of", |r| r.cells[0].degraded = 4),
        ];
        for (want, breaker) in cases {
            let mut r = fixed_report();
            breaker(&mut r);
            assert!(
                r.check().is_err_and(|e| e.contains(want)),
                "{want}: {:?}",
                r.check()
            );
        }
    }
}

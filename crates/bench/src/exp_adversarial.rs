//! `exp_adversarial`: the attack-campaign engine against every deployed
//! recovery strategy.
//!
//! For each (strategy, vehicle) cell the seeded adaptive attacker searches
//! a multi-phase campaign — a slow-ramp GPS drift stacked with a
//! duty-cycled gyro wobble — for the **stealthy worst case**: maximum
//! mission deviation subject to the monitor's CUSUM statistic staying
//! under the detection margin and recovery never firing. The search result
//! is compared against the paper's three hand-written overt schedules run
//! under the *same* defense, strategy and seed: the adversarial claim is
//! that a tuned stealthy campaign out-damages every overt schedule
//! precisely because the overt ones get detected and recovered.
//!
//! A determinism gate re-runs one search serially and on four workers and
//! compares winning parameter vectors bit-for-bit. Results land in
//! `BENCH_adversarial.json` (workspace root + `target/experiments/`).

use crate::harness::{self, Scale};
use pidpiper_attacks::AttackPreset;
use pidpiper_campaigns::{search_with_jobs, Campaign, SearchOutcome};
use pidpiper_math::json::{self, Json};
use pidpiper_math::json_object;
use pidpiper_missions::{
    configured_jobs, Defense, MissionAttack, MissionRunner, MissionSpec, RunnerConfig,
    StrategyKind,
};
use pidpiper_sim::RvId;
use std::fmt::Write as _;
use std::io;

/// The vehicles under adversarial study (the simulated fleet of Table I).
pub const VEHICLES: [RvId; 3] = [RvId::ArduCopter, RvId::Px4Solo, RvId::ArduRover];

/// When the hand-written overt schedules begin (the bench-wide convention).
const ATTACK_START: f64 = 8.0;

/// The campaign template, instantiated per vehicle. Every DSL feature the
/// engine supports is exercised: stacked multi-sensor phases, an
/// intermittent duty cycle, a ramp-hold-release envelope, a benign fault
/// riding along, and a five-dimensional search space.
pub fn campaign_source(rv: RvId, seed: u64) -> String {
    let tok = pidpiper_campaigns::dsl::vehicle_token(rv);
    format!(
        "\
campaign v1
name stealth-drift-{tok}
vehicle {tok}
mission straight 60 5
seed {seed}
stealth-margin 0.95
search generations 6 lambda 6
phase drift gps 0 6 0 start 6 envelope 25 60 6
phase wobble gyro 0.003 0 0 start 20 duty 2 8
fault blip gps-dropout window 26 26.4
param drift.bias.y 2 45
param drift.envelope.ramp 12 50
param drift.start 2 12
param wobble.bias.x 0 0.01
"
    )
}

/// One hand-written comparison case.
#[derive(Debug, Clone)]
pub struct HandwrittenCase {
    /// Preset name (`gyro-overt`, `gps-overt`, `gyro-landing`).
    pub case: &'static str,
    /// Ground-truth worst-case deviation under the defended run (m).
    pub max_path_deviation: f64,
}

/// One (strategy, vehicle) cell of the adversarial study.
#[derive(Debug, Clone)]
pub struct AdversarialCell {
    /// Recovery strategy under attack.
    pub strategy: StrategyKind,
    /// Vehicle under attack.
    pub vehicle: RvId,
    /// Campaign name (from the DSL file).
    pub campaign: String,
    /// The search result.
    pub outcome: SearchOutcome,
    /// The hand-written overt schedules under the same defense/seed.
    pub handwritten: Vec<HandwrittenCase>,
}

impl AdversarialCell {
    /// The best hand-written deviation (the bar the campaign must clear).
    pub fn handwritten_best(&self) -> f64 {
        self.handwritten
            .iter()
            .fold(0.0_f64, |acc, h| acc.max(h.max_path_deviation))
    }

    /// Whether the stealthy winner out-damages every hand-written overt
    /// schedule (the acceptance criterion of the adversarial study).
    pub fn beats_handwritten(&self) -> bool {
        self.outcome.winner_stealthy
            && self.outcome.best.max_path_deviation > self.handwritten_best()
    }
}

/// The full study result.
#[derive(Debug, Clone)]
pub struct AdversarialReport {
    /// All (strategy, vehicle) cells.
    pub cells: Vec<AdversarialCell>,
    /// Whether 1-worker and 4-worker searches returned bit-identical
    /// winners (params fingerprint + winning trace fingerprint).
    pub worker_invariant: bool,
    /// The stealth margin every search enforced.
    pub margin: f64,
    /// Search budget actually used (after any smoke reduction).
    pub generations: usize,
    /// Children per generation actually used.
    pub lambda: usize,
    /// Whether the reduced smoke grid ran.
    pub smoke: bool,
}

impl AdversarialReport {
    /// Whether every cell's recorded winner respected the stealth gate.
    pub fn stealth_respected(&self) -> bool {
        self.cells.iter().all(|c| c.outcome.winner_stealthy)
    }

    /// Checks every value the report promises: a positive search budget,
    /// a respected stealth gate with a margin in `(0, 1]`, worker
    /// invariance, one cell per strategy in every row, and per cell a
    /// non-empty winning parameter vector, a non-negative deviation, a
    /// stealthy winner's statistic under the margin, and no more
    /// stealth rejections than evaluations.
    ///
    /// # Errors
    ///
    /// Describes the first violated property.
    pub fn check(&self) -> Result<(), String> {
        json::require_nonzero(&[("generations", self.generations), ("lambda", self.lambda)])?;
        if !self.stealth_respected() {
            return Err("stealth gate not respected".into());
        }
        if !(self.margin > 0.0 && self.margin <= 1.0) {
            return Err(format!("stealth margin {} outside (0, 1]", self.margin));
        }
        if !self.worker_invariant {
            return Err("search diverged across worker counts".into());
        }
        harness::check_grid(self.cells.len())?;
        for c in &self.cells {
            let at = format!("cell ({}, {})", c.strategy.name(), c.vehicle);
            let (o, best) = (&c.outcome, &c.outcome.best);
            if o.best_params.is_empty() {
                return Err(format!("{at}: empty winning params"));
            }
            if !(best.max_path_deviation.is_finite() && best.max_path_deviation >= 0.0) {
                return Err(format!(
                    "{at}: max_path_deviation {}",
                    best.max_path_deviation
                ));
            }
            if o.winner_stealthy
                && !(best.peak_statistic.is_finite() && best.peak_statistic < self.margin)
            {
                return Err(format!(
                    "{at}: stealthy winner's statistic {} not under margin",
                    best.peak_statistic
                ));
            }
            if o.rejected_stealth > o.evaluations {
                return Err(format!(
                    "{at}: {} stealth rejections of {} evaluations",
                    o.rejected_stealth, o.evaluations
                ));
            }
        }
        Ok(())
    }
}

fn campaign_for(rv: RvId, smoke: bool) -> Campaign {
    let seed = 9000 + rv as u64;
    let src = campaign_source(rv, seed);
    let mut campaign = Campaign::from_text(&src).expect("embedded campaign parses");
    if smoke {
        campaign.search.generations = 1;
        campaign.search.lambda = 2;
    }
    campaign
}

/// Runs the hand-written overt presets under the same defense, strategy
/// and seed as the campaign search, returning per-preset deviations.
fn run_handwritten(
    campaign: &Campaign,
    strategy: StrategyKind,
    defense: &pidpiper_core::PidPiper,
) -> Vec<HandwrittenCase> {
    let compiled = campaign.compile_default().expect("campaign compiles");
    let config = RunnerConfig::for_rv(campaign.vehicle)
        .with_seed(campaign.seed)
        .with_strategy(strategy);
    let cases: Vec<(&'static str, MissionAttack)> = AttackPreset::ALL
        .iter()
        .map(|preset| {
            let attack = match preset {
                AttackPreset::GyroAtLanding => {
                    MissionAttack::AtLanding(preset.instantiate(0.0, (0.0, f64::MAX)).kind)
                }
                _ => MissionAttack::Scheduled(preset.instantiate(ATTACK_START, (0.0, 0.0))),
            };
            (preset.name(), attack)
        })
        .collect();
    let specs: Vec<MissionSpec> = cases
        .iter()
        .map(|(_, attack)| {
            MissionSpec::clean(config.clone(), compiled.plan.clone())
                .with_attacks(vec![attack.clone()])
        })
        .collect();
    let results = MissionRunner::par_run_missions(&specs, |_| Box::new(defense.clone()));
    cases
        .iter()
        .zip(&results)
        .map(|((name, _), r)| HandwrittenCase {
            case: name,
            max_path_deviation: r.max_path_deviation,
        })
        .collect()
}

/// Runs the full adversarial study: search + hand-written comparison per
/// (strategy, vehicle) cell, plus the worker-invariance gate.
pub fn run_adversarial(scale: Scale, smoke: bool) -> (String, AdversarialReport) {
    let vehicles: &[RvId] = if smoke { &VEHICLES[..1] } else { &VEHICLES };
    let mut cells = Vec::new();
    let mut margin = pidpiper_campaigns::DEFAULT_STEALTH_MARGIN;
    let mut budget = (0usize, 0usize);
    let mut worker_invariant = true;

    for &rv in vehicles {
        let campaign = campaign_for(rv, smoke);
        margin = campaign.stealth_margin;
        budget = (campaign.search.generations, campaign.search.lambda);
        let traces = harness::collect_traces(rv, scale);
        let defense = harness::trained_pidpiper(rv, scale, &traces);

        // Worker-invariance gate, once per vehicle on Algorithm 1: the
        // same search serially and on 4 workers must return bit-identical
        // winners.
        let serial = search_with_jobs(1, &campaign, StrategyKind::Algorithm1, |_| {
            Box::new(defense.clone()) as Box<dyn Defense + Send>
        })
        .expect("serial search runs");
        let parallel = search_with_jobs(4, &campaign, StrategyKind::Algorithm1, |_| {
            Box::new(defense.clone()) as Box<dyn Defense + Send>
        })
        .expect("parallel search runs");
        let invariant = serial.params_fingerprint == parallel.params_fingerprint
            && serial.best.trace_fingerprint == parallel.best.trace_fingerprint;
        if !invariant {
            eprintln!(
                "[adversarial] WORKER DIVERGENCE on {rv}: serial {:016x} vs parallel {:016x}",
                serial.params_fingerprint, parallel.params_fingerprint
            );
        }
        worker_invariant &= invariant;

        for strategy in StrategyKind::ALL {
            // Algorithm 1 reuses the gate's serial outcome (identical by
            // construction) instead of paying for a third search.
            let outcome = if strategy == StrategyKind::Algorithm1 {
                serial.clone()
            } else {
                search_with_jobs(configured_jobs(), &campaign, strategy, |_| {
                    Box::new(defense.clone()) as Box<dyn Defense + Send>
                })
                .expect("search runs")
            };
            let handwritten = run_handwritten(&campaign, strategy, &defense);
            cells.push(AdversarialCell {
                strategy,
                vehicle: rv,
                campaign: campaign.name.clone(),
                outcome,
                handwritten,
            });
        }
    }

    let report = AdversarialReport {
        cells,
        worker_invariant,
        margin,
        generations: budget.0,
        lambda: budget.1,
        smoke,
    };
    (render(&report), report)
}

fn render(report: &AdversarialReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Adversarial campaign study ({} generations x {} children, margin {}):",
        report.generations, report.lambda, report.margin
    );
    let _ = writeln!(
        out,
        "worker invariance: {}",
        if report.worker_invariant { "OK" } else { "FAILED" }
    );
    let widths = [18usize, 12, 14, 12, 10, 12, 10];
    let _ = writeln!(
        out,
        "{}",
        harness::row(
            &[
                "strategy".into(),
                "vehicle".into(),
                "stealthy dev".into(),
                "handwritten".into(),
                "beats?".into(),
                "peak stat".into(),
                "rejected".into(),
            ],
            &widths
        )
    );
    for c in &report.cells {
        let _ = writeln!(
            out,
            "{}",
            harness::row(
                &[
                    c.strategy.name().into(),
                    c.vehicle.to_string(),
                    format!("{:.2} m", c.outcome.best.max_path_deviation),
                    format!("{:.2} m", c.handwritten_best()),
                    if c.beats_handwritten() { "yes" } else { "NO" }.into(),
                    format!("{:.3}", c.outcome.best.peak_statistic),
                    format!(
                        "{}/{}",
                        c.outcome.rejected_stealth, c.outcome.evaluations
                    ),
                ],
                &widths
            )
        );
    }
    let _ = writeln!(
        out,
        "stealth gate respected: {}",
        report.stealth_respected()
    );
    out
}

/// `BENCH_adversarial.json` document.
pub fn to_json(scale: Scale, report: &AdversarialReport) -> String {
    let mut vehicles: Vec<String> = report.cells.iter().map(|c| c.vehicle.to_string()).collect();
    vehicles.dedup();
    let cells = report.cells.iter().map(|c| {
        let (o, best) = (&c.outcome, &c.outcome.best);
        let handwritten = c.handwritten.iter().map(|h| {
            json_object! {
                "case" => h.case,
                "max_path_deviation" => Json::fixed(h.max_path_deviation, 3),
            }
        });
        json_object! {
            "strategy" => c.strategy.name(),
            "vehicle" => c.vehicle.to_string(),
            "campaign" => c.campaign.as_str(),
            "winner" => json_object! {
                "params" => Json::array(o.best_params.iter().map(|&v| Json::float(v))),
                "params_fingerprint" => format!("{:016x}", o.params_fingerprint),
                "trace_fingerprint" => format!("{:016x}", best.trace_fingerprint),
                "max_path_deviation" => Json::fixed(best.max_path_deviation, 3),
                "final_deviation" => Json::fixed(best.final_deviation, 3),
                "peak_statistic" => Json::fixed(best.peak_statistic, 4),
                "recovery_activations" => best.recovery_activations,
                "stealthy" => o.winner_stealthy,
            },
            "handwritten" => Json::array(handwritten),
            "handwritten_best" => Json::fixed(c.handwritten_best(), 3),
            "beats_handwritten" => c.beats_handwritten(),
            "evaluations" => o.evaluations,
            "rejected_stealth" => o.rejected_stealth,
        }
    });
    let doc = json_object! {
        "bench" => "adversarial_campaign",
        "config" => json_object! {
            "scale" => format!("{scale:?}"),
            "smoke" => report.smoke,
            "generations" => report.generations,
            "lambda" => report.lambda,
            "strategies" => Json::array(StrategyKind::ALL.map(|s| s.name())),
            "vehicles" => Json::array(vehicles),
        },
        "stealth_gate" => json_object! {
            "respected" => report.stealth_respected(),
            "margin" => Json::float(report.margin),
        },
        "determinism" => json_object! { "worker_invariant" => report.worker_invariant },
        "cells" => Json::array(cells),
    };
    doc.render()
}

/// Writes `BENCH_adversarial.json` to the workspace root and mirrors it
/// into `target/experiments/`.
///
/// # Errors
///
/// Returns the I/O error of a failed write.
pub fn write_report(scale: Scale, report: &AdversarialReport) -> io::Result<()> {
    json::write_bench_report("BENCH_adversarial.json", &to_json(scale, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_campaigns_parse_for_every_vehicle() {
        for rv in VEHICLES {
            let campaign = campaign_for(rv, false);
            assert_eq!(campaign.vehicle, rv);
            assert_eq!(campaign.dimensions(), 4);
            assert!(campaign.compile_default().is_ok());
        }
    }

    #[test]
    fn smoke_reduces_the_budget() {
        let c = campaign_for(RvId::ArduCopter, true);
        assert_eq!(c.search.generations, 1);
        assert_eq!(c.search.lambda, 2);
    }

    /// A fixed report whose rendering was captured from the hand-written
    /// template this writer replaced.
    fn fixed_report() -> AdversarialReport {
        use pidpiper_campaigns::CandidateEval;
        let cell = |strategy, vehicle, trace_fingerprint, max_path_deviation| AdversarialCell {
            strategy,
            vehicle,
            campaign: "stealth-drift-arducopter".into(),
            outcome: SearchOutcome {
                best_params: vec![10.0, 2.5, 12.125, 0.003],
                best: CandidateEval {
                    max_path_deviation,
                    final_deviation: 4.0004,
                    peak_statistic: 0.41237,
                    recovery_activations: 0,
                    trace_fingerprint,
                },
                winner_stealthy: true,
                params_fingerprint: 0xbeef,
                evaluations: 26,
                rejected_stealth: 3,
                stealth_margin: 0.95,
            },
            handwritten: vec![
                HandwrittenCase {
                    case: "gyro-overt",
                    max_path_deviation: 3.2,
                },
                HandwrittenCase {
                    case: "gps-overt",
                    max_path_deviation: 12.34567,
                },
            ],
        };
        AdversarialReport {
            cells: vec![
                cell(StrategyKind::Algorithm1, RvId::ArduCopter, 0xdead, 28.5),
                cell(
                    StrategyKind::SpecCompliance,
                    RvId::ArduCopter,
                    0x0123_4567_89ab_cdef,
                    9.5,
                ),
                cell(StrategyKind::DiagnosisGuided, RvId::Px4Solo, u64::MAX, 30.0),
            ],
            worker_invariant: true,
            margin: 0.95,
            generations: 6,
            lambda: 6,
            smoke: false,
        }
    }

    #[test]
    fn json_matches_the_golden_rendering() {
        let golden = include_str!("../tests/golden/BENCH_adversarial.json");
        // The captured report had a non-stealthy middle winner.
        let mut report = fixed_report();
        report.cells[1].outcome.winner_stealthy = false;
        assert_eq!(
            json::minify(&to_json(Scale::Full, &report)),
            json::minify(golden)
        );
    }

    #[test]
    fn check_rejects_each_violated_property() {
        assert_eq!(fixed_report().check(), Ok(()));
        type Breaker = fn(&mut AdversarialReport);
        let cases: [(&str, Breaker); 12] = [
            ("generations is 0", |r| r.generations = 0),
            ("lambda is 0", |r| r.lambda = 0),
            ("stealth gate not respected", |r| {
                r.cells[1].outcome.winner_stealthy = false
            }),
            ("stealth margin", |r| r.margin = 0.0),
            ("stealth margin", |r| r.margin = 1.5),
            ("worker counts", |r| r.worker_invariant = false),
            ("multiple of 3 strategies", |r| r.cells.truncate(2)),
            ("multiple of 3 strategies", |r| r.cells.clear()),
            ("empty winning params", |r| {
                r.cells[0].outcome.best_params.clear()
            }),
            ("max_path_deviation", |r| {
                r.cells[2].outcome.best.max_path_deviation = -1.0
            }),
            ("not under margin", |r| {
                r.cells[0].outcome.best.peak_statistic = 0.95
            }),
            ("stealth rejections", |r| {
                r.cells[0].outcome.rejected_stealth = 27
            }),
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

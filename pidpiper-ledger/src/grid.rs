//! `mission_grid`: defended closed-loop missions through the resilient
//! batch path. Set-up flies undefended trace missions and trains one
//! PID-Piper per vehicle; the timed phase flies one batch of 72 defended
//! missions (three per vehicle × case × strategy cell) on one worker, the
//! main thread, again and again until the run length is spent. A batch is
//! one repetition, and every repetition must reproduce the first one's
//! traces. A request is one control step: the CPU time between consecutive
//! `Defense::observe` calls of a mission.

use std::hint::black_box;
use std::sync::{Arc, Mutex, MutexGuard};

use pidpiper_attacks::AttackPreset;
use pidpiper_control::{ActuatorSignal, QuadController, RoverController, RoverGains, RoverTarget};
use pidpiper_core::{
    CusumMonitor, FfcHealthMonitor, PidPiper, RecoveryContext, RecoveryStrategy, RecoveryWatchdog,
    SensorPrimitives, SensorSanitizer, SignalEnvelope, StrategyState, Trainer, TrainerConfig,
};
use pidpiper_faults::{Fault, FaultKind, FaultSchedule};
use pidpiper_missions::{
    Defense, DefenseContext, HealthState, MissionAttack, MissionPlan, MissionResult, MissionRunner,
    MissionSpec, MonitorLevel, NoDefense, ResiliencePolicy, RetryPolicy, RunnerConfig,
    SensorChannel, StrategyKind, TraceRecord,
};
use pidpiper_sensors::{EstimatedState, Estimator, NoiseConfig, SensorSuite};
use pidpiper_sim::rover::RoverCommand;
use pidpiper_sim::{ProfileParams, Quadcopter, RigidBodyState, Rover, RvId, VehicleKind};
use pidpiper_sim::{VehicleProfile, Wind, WindConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alloc;
use crate::clock::{cpu_ns, now_ns, secs_since};
use crate::run::{digest, mix, pct, rate, Outcome, RunConfig, CHECK_WORKERS, WORKERS};
use crate::stats::{median, Histogram, Repetition, SpanLog};

/// Control period of every mission (s); the runner's default.
const DT: f64 = 0.01;
/// Physics substeps per control step; the runner's default.
const SUBSTEPS: usize = 4;
/// When attacks and faults begin (s), past the monitors' warm-up.
const ONSET_S: f64 = 8.0;
/// Simulated-time cap of a defended mission (s): about three times the
/// longest clean mission, so a wandering vehicle cannot hold a worker (and
/// its trace in memory) for the runner's default 300 s.
const MAX_MISSION_S: f64 = 60.0;

const RVS: [RvId; 2] = [RvId::ArduCopter, RvId::ArduRover];

/// Plan seed of the Table-I training missions (the experiment harness's).
pub const TABLE1_PLAN_SEED: u64 = 7;

/// What a cell injects into its missions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Case {
    Clean,
    GpsOvert,
    GyroOvert,
    GpsDropout,
}

const CASES: [Case; 4] = [
    Case::Clean,
    Case::GpsOvert,
    Case::GyroOvert,
    Case::GpsDropout,
];

/// Cells: vehicles × cases × strategies.
pub const CELLS: usize = RVS.len() * CASES.len() * StrategyKind::ALL.len();

/// Missions per batch: three of each cell, one period of the mission
/// generator (two straight lines, one route).
pub const BATCH: usize = 3 * CELLS;

/// Batches always flown, so that every run checks a repetition against
/// the first.
const MIN_BATCHES: usize = 2;

/// Workload sizes. The command line always runs [`Size::FULL`]; tests
/// shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Every `train_stride`-th Table-I mission is flown for training.
    pub train_stride: usize,
    /// Geometry scale of the training missions.
    pub train_scale: f64,
    /// Training stages `(epochs, learning rate)`.
    pub stages: [(usize, f64); 3],
    /// Train the tiny test network instead of the deployed one.
    pub tiny_network: bool,
    /// Set-up repetitions (`setup_s` is their median).
    pub setups: usize,
    /// Leading missions re-flown on [`CHECK_WORKERS`] workers.
    pub refly: usize,
    /// Leading missions of the traced phase replayed stage by stage.
    pub replay: usize,
    /// Straight-line length range (m).
    pub line_m: (f64, f64),
    /// Span of the 3-waypoint routes (m).
    pub route_span_m: f64,
}

impl Size {
    /// The benchmark's size.
    pub const FULL: Size = Size {
        train_stride: 3,
        train_scale: 0.5,
        stages: [(1, 0.01), (0, 0.0), (0, 0.0)],
        tiny_network: false,
        setups: 3,
        refly: 8,
        replay: 2 * CELLS,
        line_m: (40.0, 60.0),
        route_span_m: 30.0,
    };

    fn trainer(&self) -> TrainerConfig {
        let base = if self.tiny_network {
            TrainerConfig::tiny()
        } else {
            TrainerConfig::default()
        };
        TrainerConfig {
            stages: self.stages,
            ..base
        }
    }
}

fn cell_parts(cell: usize) -> (usize, Case, StrategyKind) {
    let strategies = StrategyKind::ALL.len();
    let strategy = StrategyKind::ALL[cell % strategies];
    let case = CASES[(cell / strategies) % CASES.len()];
    let rv = cell / (strategies * CASES.len());
    (rv, case, strategy)
}

fn cruise_alt(rv: RvId) -> f64 {
    match rv.kind() {
        VehicleKind::Quadcopter => 5.0,
        VehicleKind::Rover => 0.0,
    }
}

/// The batch every repetition flies: mission `n` is mission `n / CELLS` of
/// cell `n % CELLS`.
fn batch_specs(seed: u64, size: &Size) -> Vec<MissionSpec> {
    (0..BATCH)
        .map(|n| mission(seed, n % CELLS, n / CELLS, size))
        .collect()
}

/// Mission `index` of `cell`: a pure function of the seed. Every strategy
/// of a (vehicle, case) row flies the same mission against the same
/// sensor noise, so cells in a row are comparable.
pub fn mission(seed: u64, cell: usize, index: usize, size: &Size) -> MissionSpec {
    let (rv_i, case, strategy) = cell_parts(cell);
    let rv = RVS[rv_i];
    let case_i = CASES.iter().position(|c| *c == case).unwrap_or(0) as u64;
    let mut rng = StdRng::seed_from_u64(mix(seed, &[1, rv_i as u64, case_i, index as u64]));
    let alt = cruise_alt(rv);
    let plan = if index % 3 == 2 {
        MissionPlan::multi_waypoint(3, size.route_span_m, alt, rng.gen())
    } else {
        MissionPlan::straight_line(rng.gen_range(size.line_m.0..size.line_m.1), alt)
    };
    let mut config = RunnerConfig::for_rv(rv)
        .with_seed(rng.gen())
        .with_strategy(strategy);
    config.max_duration = MAX_MISSION_S;
    let mut attacks = Vec::new();
    match case {
        Case::Clean => {}
        Case::GpsOvert => attacks.push(MissionAttack::Scheduled(
            AttackPreset::GpsOvert.instantiate(ONSET_S, (0.0, 0.0)),
        )),
        Case::GyroOvert => attacks.push(MissionAttack::Scheduled(
            AttackPreset::GyroOvert.instantiate(ONSET_S, (0.0, 0.0)),
        )),
        Case::GpsDropout => {
            config = config
                .with_faults(vec![Fault::new(
                    FaultKind::GpsDropout,
                    FaultSchedule::Windows(vec![(ONSET_S, ONSET_S + 4.0)]),
                )])
                .with_fault_seed(rng.gen());
        }
    }
    MissionSpec::clean(config, plan).with_attacks(attacks)
}

/// Flies the training missions of `rv` undefended and trains its defense.
/// The plans are the experiment harness's fixed Table-I set under fixed
/// sensor noise, so every seed flies its missions against the same
/// defenses and set-up does the same work for every seed.
fn train_defense(rv: RvId, size: &Size) -> PidPiper {
    let specs: Vec<MissionSpec> =
        MissionPlan::table1_missions(rv, TABLE1_PLAN_SEED, size.train_scale)
            .into_iter()
            .step_by(size.train_stride)
            .enumerate()
            .map(|(i, plan)| {
                let config =
                    RunnerConfig::for_rv(rv).with_seed(mix(TABLE1_PLAN_SEED, &[2, i as u64]));
                MissionSpec::clean(config, plan)
            })
            .collect();
    let traces: Vec<_> =
        MissionRunner::par_run_missions_with_jobs(1, &specs, |_| Box::new(NoDefense::new()))
            .into_iter()
            .map(|r| r.trace)
            .collect();
    Trainer::new(size.trainer())
        .train(&traces, rv.kind() == VehicleKind::Rover)
        .pidpiper
}

/// The set-up a user pays: one trained defense per vehicle. It runs on
/// the calling thread: two training threads at once make the allocator's
/// per-thread arenas, and with them the peak resident set, depend on how
/// the threads interleave.
fn setup(size: &Size) -> Vec<PidPiper> {
    RVS.iter().map(|&rv| train_defense(rv, size)).collect()
}

/// One flight of a mission: its CPU time, from the defense's creation to
/// its drop, and its control-step latencies.
struct Flight {
    cpu_ns: u64,
    steps: Histogram,
}

/// What the flown missions hand back to the batch loop.
#[derive(Default)]
struct Sink {
    /// The fastest flight of every mission of the batch so far, by index.
    fastest: Vec<Option<Flight>>,
    observe: Histogram,
    /// `observe` timings of the missions the traced replay re-runs.
    observe_replayed: Histogram,
    observe_allocs: u64,
    busy_ns: u64,
    spans: SpanLog,
}

impl Sink {
    /// Keeps `flight` as mission `index`'s fastest if it is.
    fn record(&mut self, index: usize, flight: Flight) {
        if self.fastest.len() <= index {
            self.fastest.resize_with(index + 1, || None);
        }
        let slot = &mut self.fastest[index];
        if slot.as_ref().is_none_or(|f| flight.cpu_ns < f.cpu_ns) {
            *slot = Some(flight);
        }
    }
}

fn lock(sink: &Mutex<Sink>) -> MutexGuard<'_, Sink> {
    // A mission panic is caught by the batch layer; the sink only ever
    // holds finished additions, so a poisoned guard is still consistent.
    sink.lock().unwrap_or_else(|p| p.into_inner())
}

/// A transparent `Defense` wrapper that times the control loop from the
/// ledger's side: every `observe` entry closes the previous control step,
/// on the CPU clock; in the traced phase it also times `observe` itself,
/// on the wall clock, and counts its heap allocations.
struct Metered {
    inner: PidPiper,
    sink: Arc<Mutex<Sink>>,
    /// The mission's index in the batch.
    index: usize,
    parent_span: u64,
    start_ns: u64,
    start_cpu: u64,
    last_entry: Option<u64>,
    steps: Histogram,
    observe: Option<Histogram>,
    allocs: u64,
    replayed: bool,
}

impl Metered {
    fn new(
        inner: PidPiper,
        sink: Arc<Mutex<Sink>>,
        index: usize,
        trace: bool,
        parent_span: u64,
    ) -> Self {
        Metered {
            inner,
            sink,
            index,
            parent_span,
            start_ns: now_ns(),
            start_cpu: cpu_ns(),
            last_entry: None,
            steps: Histogram::default(),
            observe: trace.then(Histogram::default),
            allocs: 0,
            replayed: false,
        }
    }
}

impl Drop for Metered {
    fn drop(&mut self) {
        let flight = Flight {
            cpu_ns: cpu_ns() - self.start_cpu,
            steps: std::mem::take(&mut self.steps),
        };
        let end = now_ns();
        let mut s = lock(&self.sink);
        s.record(self.index, flight);
        if let Some(h) = &self.observe {
            s.observe.merge(h);
            if self.replayed {
                s.observe_replayed.merge(h);
            }
            s.observe_allocs += self.allocs;
            s.busy_ns += end - self.start_ns;
            s.spans
                .push(self.parent_span, "mission", self.start_ns, end);
        }
    }
}

impl Defense for Metered {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn observe(&mut self, ctx: &DefenseContext<'_>) -> Option<ActuatorSignal> {
        let cpu = cpu_ns();
        if let Some(prev) = self.last_entry {
            self.steps.record(cpu - prev);
        }
        self.last_entry = Some(cpu);
        match self.observe.as_mut() {
            None => self.inner.observe(ctx),
            Some(h) => {
                let a0 = alloc::local();
                let entry = now_ns();
                let out = self.inner.observe(ctx);
                h.record(now_ns() - entry);
                self.allocs += alloc::local() - a0;
                out
            }
        }
    }

    fn sanitized_estimate(&self) -> Option<EstimatedState> {
        self.inner.sanitized_estimate()
    }

    fn monitor_level(&self) -> MonitorLevel {
        self.inner.monitor_level()
    }

    fn in_recovery(&self) -> bool {
        self.inner.in_recovery()
    }

    fn health_state(&self) -> HealthState {
        self.inner.health_state()
    }

    fn recovery_activations(&self) -> usize {
        self.inner.recovery_activations()
    }

    fn attribution(&self) -> Option<SensorChannel> {
        self.inner.attribution()
    }

    fn configure_strategy(&mut self, kind: StrategyKind) {
        self.inner.configure_strategy(kind);
    }

    fn reset(&mut self) {
        self.last_entry = None;
        self.inner.reset();
    }
}

/// One timed phase of batches.
#[derive(Default)]
struct Phase {
    elapsed_s: f64,
    batches: usize,
    /// The batch composed of every mission's fastest flight.
    fastest: Option<Repetition>,
    steps: u64,
    missions: u64,
    quarantined: u64,
    recovery_steps: u64,
    /// Trace fingerprint of every mission of the first batch, by index; a
    /// quarantined mission has fingerprint 0.
    fingerprints: Vec<u64>,
    /// Later batches whose fingerprints differ from the first's.
    diverged: Vec<usize>,
    /// Missions of the first batch that neither crashed nor stalled.
    survived: u64,
    /// Completed leading missions of the first batch of a traced phase,
    /// with their cell and cruise speed.
    kept: Vec<(usize, f64, MissionResult)>,
    sink: Sink,
    allocs: u64,
}

fn fly_phase(cfg: &RunConfig, size: &Size, defenses: &[PidPiper], trace: bool) -> Phase {
    let sink = Arc::new(Mutex::new(Sink::default()));
    let policy = ResiliencePolicy {
        retry: RetryPolicy::none(),
        ..ResiliencePolicy::default()
    };
    let specs = batch_specs(cfg.seed, size);
    let mut phase = Phase::default();
    let mut mission_steps = vec![0; BATCH];
    let allocs0 = alloc::total();
    let start = now_ns();
    let mut b = 0;
    while b < MIN_BATCHES || secs_since(start) < cfg.seconds {
        let batch_start = now_ns();
        let span = if trace {
            lock(&sink).spans.open(0, "batch", batch_start)
        } else {
            0
        };
        let outcome =
            MissionRunner::try_par_run_missions_with_jobs(WORKERS, &specs, &policy, |i, _| {
                let (rv, _, _) = cell_parts(i % CELLS);
                let mut metered =
                    Metered::new(defenses[rv].clone(), Arc::clone(&sink), i, trace, span);
                metered.replayed = trace && i < size.replay;
                Ok(Box::new(metered) as Box<dyn Defense + Send>)
            });
        if trace {
            lock(&sink).spans.close(span, now_ns());
        }
        let mut fingerprints = vec![0; BATCH];
        phase.missions += BATCH as u64;
        phase.quarantined += outcome.quarantined.len() as u64;
        for (i, r) in outcome.completed {
            phase.steps += r.trace.len() as u64;
            phase.recovery_steps += r.recovery_steps as u64;
            fingerprints[i] = r.trace.fingerprint();
            if b == 0 {
                mission_steps[i] = r.trace.len() as u64;
                phase.survived += u64::from(!r.outcome.is_crash_or_stall());
                if trace && i < size.replay {
                    phase.kept.push((i % CELLS, specs[i].plan.cruise_speed, r));
                }
            }
        }
        if b == 0 {
            phase.fingerprints = fingerprints;
        } else if fingerprints != phase.fingerprints {
            phase.diverged.push(b);
        }
        b += 1;
    }
    phase.batches = b;
    phase.elapsed_s = (now_ns() - start) as f64 * 1e-9;
    phase.allocs = alloc::total() - allocs0;
    phase.sink = std::mem::take(&mut *lock(&sink));
    phase.fastest = fastest_batch(&phase.sink.fastest, &mission_steps);
    phase
}

/// The batch composed of every mission's fastest flight: its control steps
/// per CPU second and its step-latency percentiles. Every batch flies the
/// same missions, and outside load on a shared host only ever slows a
/// flight down, so each mission's fastest flight is the steadiest estimate
/// of what it costs. A mission lasts a fraction of a second, far shorter
/// than the stretches of outside load, so nearly every mission has a
/// flight they spared. `None` when a mission never flew or the batch has
/// too few steps for a p90.
fn fastest_batch(fastest: &[Option<Flight>], mission_steps: &[u64]) -> Option<Repetition> {
    let mut latencies = Histogram::default();
    let mut cpu_ns = 0;
    for flight in fastest {
        let flight = flight.as_ref()?;
        latencies.merge(&flight.steps);
        cpu_ns += flight.cpu_ns;
    }
    let ms = |p| latencies.percentile(p).ok().map(|ns| ns * 1e-6);
    Some(Repetition {
        rate: mission_steps.iter().sum::<u64>() as f64 / (cpu_ns.max(1) as f64 * 1e-9),
        p50_ms: ms(50.0)?,
        p90_ms: ms(90.0)?,
    })
}

/// Per-step stage totals of the record-by-record replay (ns).
#[derive(Default)]
struct Replay {
    steps: u64,
    observe: Histogram,
    observe_allocs: u64,
    sanitizer: u64,
    features: u64,
    ffc: u64,
    monitor: u64,
    decide: u64,
    sample: u64,
    estimator: u64,
    control: u64,
    sim: u64,
}

/// Replays one flown mission step by step: the runner-side layers, then
/// `PidPiper::observe`, which must reproduce every record's health. Then
/// replays the same records through the public stages `observe` is made
/// of, in its order.
fn replay_mission(
    pp: &PidPiper,
    strategy: StrategyKind,
    mut runner: RunnerReplay,
    records: &[TraceRecord],
    acc: &mut Replay,
) -> Result<(), String> {
    let mut d = pp.clone();
    d.reset();
    d.configure_strategy(strategy);
    for (i, r) in records.iter().enumerate() {
        // As in flight, the runner's layers run between two `observe`s.
        runner.step(r, acc);
        let ctx = DefenseContext {
            t: r.t,
            dt: DT,
            est: &r.est,
            readings: &r.readings,
            target: &r.target,
            pid_signal: r.pid_signal,
            phase: r.phase,
        };
        let a0 = alloc::local();
        let t0 = now_ns();
        black_box(d.observe(&ctx));
        acc.observe.record(now_ns() - t0);
        acc.observe_allocs += alloc::local() - a0;
        if d.health_state() != r.health {
            return Err(format!(
                "replay diverged at step {i}: health {} vs recorded {}",
                d.health_state(),
                r.health
            ));
        }
    }

    // The same steps through the stages `PidPiper::observe` calls, built
    // as `PidPiper::new` builds them. `decide` is the supervisor's health
    // check plus the recovery strategy.
    let c = pp.config();
    let mut sanitizer = SensorSanitizer::new(pp.ffc().pipeline().gate);
    let mut ffc = pp.ffc().clone();
    ffc.reset();
    let mut monitor = CusumMonitor::with_drifts_and_lag(c.thresholds, c.drifts, c.lag_history)
        .with_saturation(c.cusum_saturation);
    let mut ffc_health = FfcHealthMonitor::new(SignalEnvelope::default(), c.ffc_offline_after);
    let mut watchdog = RecoveryWatchdog::new(c.max_recovery_steps);
    let mut strat = StrategyState::for_kind(strategy, c);
    for (i, r) in records.iter().enumerate() {
        let t0 = now_ns();
        let (clean, est) = sanitizer.process(&r.readings, DT);
        let t1 = now_ns();
        let prims = black_box(SensorPrimitives::collect(&est, &clean));
        let t2 = now_ns();
        let ml = ffc.observe(&prims, &r.target, r.phase);
        let t3 = now_ns();
        let mut monitor_ns = 0;
        if let Some(ml_signal) = ml {
            if ffc_health.check(&ml_signal) {
                let m0 = now_ns();
                let tripped = monitor.update(&ml_signal, &r.pid_signal);
                monitor_ns = now_ns() - m0;
                let rctx = RecoveryContext {
                    readings: &r.readings,
                    shadow: &est,
                    attitude_innovation: sanitizer.attitude_innovation(),
                    ml_signal,
                    pid_signal: r.pid_signal,
                    tripped,
                    phase: r.phase,
                    target: &r.target,
                    t: r.t,
                    dt: DT,
                };
                black_box(strat.decide(&rctx, &mut monitor, &mut watchdog));
            } else if ffc_health.is_offline() && (strat.in_recovery() || strat.is_degraded()) {
                strat.force_degraded();
            }
        }
        let t4 = now_ns();
        acc.sanitizer += t1 - t0;
        acc.features += t2 - t1;
        acc.ffc += t3 - t2;
        acc.monitor += monitor_ns;
        acc.decide += t4 - t3 - monitor_ns;
        if strat.health() != r.health {
            return Err(format!(
                "stage replay diverged at step {i}: health {} vs recorded {}",
                strat.health(),
                r.health
            ));
        }
    }
    acc.steps += records.len() as u64;
    Ok(())
}

/// The vehicle and controller of a runner replay.
// One value per replayed mission, built once and never moved while timed.
#[allow(clippy::large_enum_variant)]
enum VehicleReplay {
    Quad(QuadController, Quadcopter),
    Rover(RoverController, Rover, f64),
}

/// The runner-side layers of one recorded mission, replayed a step at a
/// time: sensor sampling on recorded truth, the estimator on recorded
/// readings, the controller on the recorded estimate, and the four physics
/// substeps from each step's recorded starting state.
struct RunnerReplay {
    suite: SensorSuite,
    estimator: Estimator,
    wind: Wind,
    vehicle: VehicleReplay,
    prev: RigidBodyState,
}

impl RunnerReplay {
    fn new(rv: RvId, cruise_speed: f64) -> Self {
        let profile = VehicleProfile::for_rv(rv);
        let noise = NoiseConfig::default().scaled(profile.imu_noise_scale, profile.gps_noise_scale);
        let vehicle = match profile.params() {
            ProfileParams::Quad(params) => {
                VehicleReplay::Quad(QuadController::new(&params), Quadcopter::new(params))
            }
            ProfileParams::Rover(params) => VehicleReplay::Rover(
                RoverController::new(RoverGains::for_rover(&params)),
                Rover::new(params),
                cruise_speed,
            ),
        };
        RunnerReplay {
            suite: SensorSuite::new(noise, 1),
            estimator: Estimator::new(),
            wind: Wind::new(WindConfig::calm()),
            vehicle,
            prev: RigidBodyState::default(),
        }
    }

    fn step(&mut self, r: &TraceRecord, acc: &mut Replay) {
        let t0 = now_ns();
        black_box(self.suite.sample(&self.prev, DT));
        let t1 = now_ns();
        black_box(self.estimator.update(&r.readings, DT));
        let t2 = now_ns();
        acc.sample += t1 - t0;
        acc.estimator += t2 - t1;
        let over = (r.flown_signal != r.pid_signal).then_some(r.flown_signal);
        let sub_dt = DT / SUBSTEPS as f64;
        let prev = self.prev;
        match &mut self.vehicle {
            VehicleReplay::Quad(ctrl, vehicle) => {
                let t0 = now_ns();
                let (motors, _) = ctrl.step(&r.est, &r.target, over, DT);
                acc.control += now_ns() - t0;
                vehicle.set_state(prev);
                let t1 = now_ns();
                for _ in 0..SUBSTEPS {
                    let w = self.wind.sample(sub_dt);
                    vehicle.step(motors, w, sub_dt);
                }
                acc.sim += now_ns() - t1;
            }
            VehicleReplay::Rover(ctrl, vehicle, cruise_speed) => {
                let target = RoverTarget {
                    position: r.target.position,
                    cruise_speed: *cruise_speed,
                };
                let t0 = now_ns();
                let (cmd, _): (RoverCommand, _) = ctrl.step(&r.est, &target, over, DT);
                acc.control += now_ns() - t0;
                vehicle.set_state(prev, prev.velocity.norm_xy());
                let t1 = now_ns();
                for _ in 0..SUBSTEPS {
                    let w = self.wind.sample(sub_dt);
                    vehicle.step(cmd, w, sub_dt);
                }
                acc.sim += now_ns() - t1;
            }
        }
        self.prev = r.truth;
    }
}

/// Runs the workload at `size`.
///
/// # Errors
///
/// Fails, before any timing, when a pinned Algorithm-1 fingerprint moved.
pub fn run(cfg: &RunConfig, size: &Size) -> Result<Outcome, String> {
    pidpiper_bench::exp_recovery::baseline_gate()
        .map_err(|e| format!("Algorithm-1 baseline gate failed:\n{e}"))?;
    let mut out = Outcome::new(cfg.trace);

    let mut setup_s = Vec::with_capacity(size.setups);
    let mut defenses = Vec::new();
    let mut texts: Option<Vec<String>> = None;
    for _ in 0..size.setups.max(1) {
        let t0 = cpu_ns();
        defenses = setup(size);
        setup_s.push((cpu_ns() - t0) as f64 * 1e-9);
        let t: Vec<String> = defenses.iter().map(PidPiper::to_text).collect();
        if texts.as_ref().is_some_and(|prev| *prev != t) {
            out.problems
                .push("set-up repetitions trained different defenses".into());
        }
        texts = Some(t);
    }
    out.e2e.set("setup_s", median(&setup_s));

    let phase = fly_phase(cfg, size, &defenses, false);
    out.attempted = phase.missions;
    out.failed = phase.quarantined;
    out.digest = digest(phase.fingerprints.iter().copied());
    let ops_per_s = out.set_timings(phase.fastest);
    out.note("batches", phase.batches as f64, "count");
    out.note(
        "mission_survival_pct",
        pct(phase.survived as f64, BATCH as f64),
        "%",
    );
    out.note("missions_flown", phase.missions as f64, "count");
    out.note("control_steps", phase.steps as f64, "count");
    if !phase.diverged.is_empty() {
        out.problems.push(format!(
            "batches {:?} flew different traces from the first",
            phase.diverged
        ));
    }

    // The digest must not depend on the worker count: re-fly the first
    // missions of the batch in parallel, without the metering wrapper.
    let mut specs = batch_specs(cfg.seed, size);
    specs.truncate(size.refly);
    let parallel = MissionRunner::par_run_missions_with_jobs(CHECK_WORKERS, &specs, |i| {
        let (rv, _, _) = cell_parts(i % CELLS);
        Box::new(defenses[rv].clone())
    });
    for (i, r) in parallel.iter().enumerate() {
        if phase.fingerprints.get(i) != Some(&r.trace.fingerprint()) {
            out.problems.push(format!(
                "mission {i} differs between {WORKERS} and {CHECK_WORKERS} workers"
            ));
        }
    }

    if cfg.trace {
        trace_phase(cfg, size, &defenses, ops_per_s, &mut out);
    }
    Ok(out)
}

fn trace_phase(
    cfg: &RunConfig,
    size: &Size,
    defenses: &[PidPiper],
    untraced_ops: f64,
    out: &mut Outcome,
) {
    alloc::set_counting(true);
    let phase = fly_phase(cfg, size, defenses, true);
    // The replay runs on the thread that flew the missions.
    let mut acc = Replay::default();
    for (cell, cruise_speed, r) in &phase.kept {
        let (rv_i, _, strategy) = cell_parts(*cell);
        let runner = RunnerReplay::new(RVS[rv_i], *cruise_speed);
        let pp = &defenses[rv_i];
        if let Err(e) = replay_mission(pp, strategy, runner, r.trace.records(), &mut acc) {
            out.problems.push(format!("cell {cell}: {e}"));
        }
    }
    alloc::set_counting(false);

    let sink = &phase.sink;
    let steps = phase.steps.max(1) as f64;
    let traced_ops = rate(phase.fastest);
    // Per-step means: `step` from the flown missions, `observe` from the
    // wrapper, the rest from the replay.
    let step = sink.busy_ns as f64 / steps;
    let observe = sink.observe.mean_ns();
    let rsteps = acc.steps.max(1) as f64;
    let per = |total: u64| total as f64 / rsteps;
    // The stages' shares of the replayed steps, applied to the flown
    // `observe`.
    let stages = acc.sanitizer + acc.features + acc.ffc + acc.monitor + acc.decide;
    let stage = |total: u64| {
        if stages > 0 {
            observe * total as f64 / stages as f64
        } else {
            0.0
        }
    };
    let (sanitizer, features, ffc, monitor, decide) = (
        stage(acc.sanitizer),
        stage(acc.features),
        stage(acc.ffc),
        stage(acc.monitor),
        stage(acc.decide),
    );
    let (sim, sensors, control) = (
        per(acc.sim),
        per(acc.sample) + per(acc.estimator),
        per(acc.control),
    );
    let runner_self = (step - observe - sim - sensors - control).max(0.0);

    out.layer(
        "trace.overhead_pct",
        pct(untraced_ops - traced_ops, untraced_ops),
    );
    out.layer("trace.op_ns", step);
    out.layer("trace.allocs_per_op", phase.allocs as f64 / steps);
    out.layer("sim.share_pct", pct(sim, step));
    out.layer("sensors.share_pct", pct(sensors, step));
    out.layer("control.share_pct", pct(control, step));
    out.layer("missions.share_pct", pct(runner_self, step));
    out.layer("core.share_pct", pct(observe - ffc, step));
    out.layer("ml.share_pct", pct(ffc, step));
    out.layer("core.sanitizer_pct", pct(sanitizer, step));
    out.layer("core.features_pct", pct(features, step));
    out.layer("core.ffc_pct", pct(ffc, step));
    out.layer("core.monitor_pct", pct(monitor, step));
    out.layer("core.decide_pct", pct(decide, step));
    let period_ns = DT * 1e9;
    if let (Ok(p50), Ok(p99)) = (sink.observe.percentile(50.0), sink.observe.percentile(99.0)) {
        out.layer("core.budget_pct", pct(p50, period_ns));
        out.layer("core.budget_p99_pct", pct(p99, period_ns));
    }
    // The same missions flown and replayed: the replay's `observe` must
    // time the same work as the wrapper's.
    if let (Ok(f50), Ok(r50)) = (
        sink.observe_replayed.percentile(50.0),
        acc.observe.percentile(50.0),
    ) {
        out.note("observe_ns_p50_flown", f50, "ns");
        out.note("observe_ns_p50_replayed", r50, "ns");
    }
    out.layer(
        "core.observe_allocs_per_step",
        sink.observe_allocs as f64 / sink.observe.count().max(1) as f64,
    );
    out.layer(
        "missions.pool_busy_pct",
        pct(sink.busy_ns as f64 * 1e-9, WORKERS as f64 * phase.elapsed_s),
    );
    out.layer(
        "missions.recovery_step_pct",
        pct(phase.recovery_steps as f64, steps),
    );
    out.note("observe_ns_mean_replayed", acc.observe.mean_ns(), "ns");
    out.note("stages_ns_mean_replayed", per(stages), "ns");
    out.note("replayed_steps", acc.steps as f64, "count");
    out.note(
        "replay_observe_allocs_per_step",
        acc.observe_allocs as f64 / rsteps,
        "count",
    );
    out.spans = phase.sink.spans;
}

//! Compact per-vehicle sessions: the unit of work the fleet engine
//! schedules.
//!
//! A [`VehicleSession`] is *not* a [`MissionRunner`] — the closed-loop
//! simulator flies one vehicle with full physics and costs far too much
//! to keep 100k of them resident. A session is the deployed monitoring
//! core only: the streaming FFC state (normalized history ring, the
//! ring's prefix frozen as a `FrozenPrefix`, and the next window's
//! partial state), four per-axis
//! CUSUM accumulators, and the PR-4 graceful-degradation supervisor, all
//! folded over a deterministic synthetic flight. Everything heavy —
//! engine weights, inference scratch, the live LSTM state — is shared per
//! shard, so the marginal cost of one more session is a few kilobytes
//! (see [`VehicleSession::resident_bytes`]).
//!
//! [`MissionRunner`]: pidpiper_missions::MissionRunner

use pidpiper_control::{ActuatorSignal, TargetState};
use pidpiper_core::features::{assemble_into, FeatureSet, SensorPrimitives};
use pidpiper_core::{SessionSupervisor, SignalEnvelope};
use pidpiper_faults::FaultSchedule;
use pidpiper_math::{Cusum, Vec3};
use pidpiper_missions::{Fingerprint, FlightPhase, HealthState, MissionBudget, MissionError,
    MissionSpec, StrategyKind};
use pidpiper_ml::{
    FrozenPrefix, InferenceScratch, RingReplay, StateBank, StreamState, StreamingRegressor,
    WindowSchedule,
};

/// What [`VehicleSession::begin_tick`] established before inference: the
/// simulated time, whether the fault schedule is active, and whether the
/// feature row normalized cleanly (it always does for engine-shaped
/// buffers; on the impossible mismatch the session holds its previous
/// prediction, exactly like the monolithic tick path).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TickPrologue {
    t: f64,
    fault_active: bool,
    pub(crate) normed_ok: bool,
}

/// The ring replay a tick leaves owing (see [`VehicleSession::finish_tick`]),
/// a [`RingReplay`] in a shard's queue: history rows
/// `first..first + rows` (ring order, oldest first), stepped from the
/// session's partial window when `resume` (the rows before `first` are
/// already in it) or else from zero, then frozen into the prefix when
/// `freeze` (a push) or kept as the new partial (a pre-step). Row counts
/// are bounded by the window, so they are kept as `u32`: a shard queues
/// one replay per owing session, and the narrower fields keep an entry
/// of that queue at 24 bytes instead of 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Replay {
    pub(crate) first: u32,
    pub(crate) rows: u32,
    pub(crate) resume: bool,
    pub(crate) freeze: bool,
}

impl Replay {
    fn new(r: RingReplay) -> Self {
        let narrow = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        Replay {
            first: narrow(r.rows.start),
            rows: narrow(r.rows.len()),
            resume: r.resume,
            freeze: r.freeze,
        }
    }

    /// The ring rows it steps, oldest first.
    pub(crate) fn ring_rows(&self) -> std::ops::Range<usize> {
        self.first as usize..self.first as usize + self.rows as usize
    }
}

/// Everything needed to admit one session to the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Stable session identity; also selects the shard
    /// (`id % shard_count`) and salts the synthetic flight.
    pub id: u64,
    /// Seed for the session's deterministic synthetic flight phases.
    pub seed: u64,
    /// The session's navigation target (trusted input `u(t)`).
    pub target: TargetState,
    /// Optional per-session fault schedule (fleet-scale injection: the
    /// engine phase-shifts one template per session via
    /// [`FaultSchedule::shifted`]).
    pub fault: Option<FaultSchedule>,
    /// PR-4 watchdog budget, reused per session: exceeding it retires the
    /// session into quarantine with a typed [`MissionError`].
    pub budget: MissionBudget,
}

impl SessionSpec {
    /// A spec with defaults: hover target, no fault, unlimited budget.
    pub fn new(id: u64, seed: u64) -> Self {
        SessionSpec {
            id,
            seed,
            target: TargetState::hover_at(Vec3::new(30.0, 0.0, 5.0), 0.0),
            fault: None,
            budget: MissionBudget::unlimited(),
        }
    }

    /// Derives a fleet session from a PR-4 [`MissionSpec`]: the seed from
    /// the runner config's sensor seed salted with `id`, the target from
    /// the plan's destination and the first scheduled fault (if any)
    /// phase-shifted by the session id so a fleet built from one template
    /// does not trip every monitor on the same tick.
    pub fn from_mission(id: u64, mission: &MissionSpec) -> Self {
        let fault = mission
            .config
            .faults
            .first()
            .map(|f| f.schedule.shifted(0.1 * (id % 997) as f64));
        SessionSpec {
            id,
            seed: mission.config.sensor_seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            target: TargetState::hover_at(mission.plan.destination(), 0.0),
            fault,
            budget: MissionBudget::unlimited(),
        }
    }

    /// Sets the fault schedule (builder style).
    pub fn with_fault(mut self, fault: FaultSchedule) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Sets the PR-4 budget (builder style).
    pub fn with_budget(mut self, budget: MissionBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// Per-tick knobs shared by every session (owned by the engine config).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionParams {
    /// Control period (simulated seconds per tick).
    pub dt: f64,
    /// Feature-stream decimation: one history-ring push every `decimate`
    /// ticks (the deployed pipeline default is 5).
    pub decimate: usize,
    /// CUSUM drift `b` per axis.
    pub cusum_drift: f64,
    /// CUSUM saturation cap (bounds recovery lag, PR-3).
    pub cusum_cap: f64,
    /// Detection threshold `tau`: the monitor trips when any axis CUSUM
    /// exceeds it.
    pub tau: f64,
    /// EMA smoothing factor for the per-axis prediction baseline the
    /// residual is measured against.
    pub ema_alpha: f64,
    /// Consecutive bad predictions before the FFC latches offline.
    pub offline_after: usize,
    /// Recovery watchdog budget (consecutive recovery ticks).
    pub max_recovery_steps: usize,
    /// Bias (m) injected into the estimated-position features while the
    /// session's fault schedule is active — a GPS-spoof-shaped
    /// perturbation.
    pub fault_bias: f64,
    /// Recovery strategy shaping the trip/release decision the supervisor
    /// observes (the fleet-scale analogue of the core crate's
    /// `RecoveryStrategy` selection — see the `PIDPIPER_FLEET_STRATEGY`
    /// bench knob). The default, Algorithm 1, keeps session fingerprints
    /// bit-identical to pre-strategy fleets.
    pub strategy: StrategyKind,
}

impl Default for SessionParams {
    fn default() -> Self {
        SessionParams {
            dt: 0.01,
            decimate: 5,
            cusum_drift: 0.008,
            cusum_cap: 50.0,
            tau: 0.08,
            ema_alpha: 0.05,
            offline_after: 25,
            max_recovery_steps: 400,
            fault_bias: 35.0,
            strategy: StrategyKind::Algorithm1,
        }
    }
}

/// Heavy per-shard working set shared by all of a shard's sessions: the
/// one-lane live state each tick steps into from a session's frozen
/// prefix (and a ring replay or pre-step steps through), the inference
/// scratch, and
/// the feature buffers. Sessions touch it only through
/// [`VehicleSession::tick`], one at a time, so sharing is safe and the
/// per-session footprint stays small.
#[derive(Debug, Clone)]
pub struct ShardScratch {
    pub(crate) live: StateBank,
    pub(crate) scratch: InferenceScratch,
    pub(crate) feat: Vec<f64>,
    pub(crate) normed: Vec<f64>,
    pub(crate) out: Vec<f64>,
}

impl ShardScratch {
    /// Builds a scratch sized for `engine`.
    pub fn for_engine(engine: &StreamingRegressor) -> Self {
        let c = engine.config();
        ShardScratch {
            live: engine.bank(1),
            scratch: engine.scratch(),
            feat: Vec::with_capacity(c.input_dim),
            normed: vec![0.0; c.input_dim],
            out: vec![0.0; c.output_dim],
        }
    }
}

/// What one session tick produced (consumed by shard statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTick {
    /// Health state after this tick.
    pub health: HealthState,
    /// Whether the CUSUM monitor was tripped this tick.
    pub tripped: bool,
    /// Whether the session's fault schedule was active this tick.
    pub fault_active: bool,
}

/// One resident vehicle session: the compact struct the fleet engine
/// multiplexes.
///
/// Persistent state per session (everything else is shard-shared):
///
/// - a normalized feature ring of `window - 1` rows plus the ring's
///   prefix, frozen ([`FrozenPrefix`]: both layers' cells and `Σ u·h`),
///   which every live step reads until the next push, and the partial
///   state of the next window's prefix ([`StreamState`]), half of its
///   rows stepped on the quiet tick after a push;
/// - four per-axis [`Cusum`] accumulators and their EMA baselines;
/// - the PR-4 [`SessionSupervisor`] (health monitor, recovery watchdog,
///   latched [`HealthState`]);
/// - a running [`Fingerprint`] over the session's behavioral channels —
///   the same FNV-1a mixer as `Trace::fingerprint`, which is what the
///   fleet determinism gate compares across worker counts.
#[derive(Debug, Clone)]
pub struct VehicleSession {
    spec: SessionSpec,
    /// Seed-derived phase offsets of the synthetic flight.
    phase: [f64; 3],
    /// Circular normalized history: `window - 1` rows of `input_dim`.
    ring: Vec<f64>,
    ring_rows: usize,
    ring_head: usize,
    /// The state after replaying the ring oldest-to-newest, frozen;
    /// `None` until the first push, while the prefix is the engine's
    /// frozen zero state, so admitting a session writes no prefix memory.
    prefix: Option<FrozenPrefix>,
    /// The next window's first rows stepped from zero (as many as the
    /// schedule's pre-step took); `None` until the first pre-step, like
    /// `prefix`.
    partial: Option<StreamState>,
    ema: [f64; 4],
    ema_primed: bool,
    cusum: [Cusum; 4],
    supervisor: SessionSupervisor,
    fingerprint: Fingerprint,
    ticks: u64,
    spent: u64,
    last_prediction: [f64; 4],
    /// The axis the diagnosis-guided strategy currently blames (its CUSUM
    /// is excluded from the trip decision while recovering). Always `None`
    /// under the other strategies.
    blamed_axis: Option<usize>,
}

impl VehicleSession {
    /// Builds a session for `engine` from its spec.
    pub fn new(spec: SessionSpec, engine: &StreamingRegressor, params: &SessionParams) -> Self {
        let c = engine.config();
        let s = spec.seed;
        // Three phase offsets in [0, 2π), derived from the seed without RNG.
        let ph = |k: u64| ((s.wrapping_mul(k) % 6283) as f64) * 1e-3;
        VehicleSession {
            phase: [ph(0x9E37), ph(0x85EB), ph(0xC2B2)],
            ring: Vec::with_capacity(Self::schedule(engine, params).history_cap() * c.input_dim),
            ring_rows: 0,
            ring_head: 0,
            prefix: None,
            partial: None,
            ema: [0.0; 4],
            ema_primed: false,
            cusum: [
                Cusum::new(params.cusum_drift),
                Cusum::new(params.cusum_drift),
                Cusum::new(params.cusum_drift),
                Cusum::new(params.cusum_drift),
            ],
            supervisor: SessionSupervisor::new(
                SignalEnvelope::default(),
                params.offline_after,
                params.max_recovery_steps,
            ),
            fingerprint: Fingerprint::new(),
            ticks: 0,
            spent: 0,
            last_prediction: [0.0; 4],
            blamed_axis: None,
            spec,
        }
    }

    /// The session's spec.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// Stable session identity.
    pub fn id(&self) -> u64 {
        self.spec.id
    }

    /// Ticks flown so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The running behavioral fingerprint (FNV-1a over every tick's
    /// prediction bits, monitor statistic, flags and health state).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint.value()
    }

    /// Current health state.
    pub fn health(&self) -> HealthState {
        self.supervisor.health()
    }

    /// Total recovery activations so far.
    pub fn recovery_activations(&self) -> usize {
        self.supervisor.recovery_activations()
    }

    /// Bytes this session keeps resident between ticks: the ring, the
    /// frozen prefix and the partial window (exactly
    /// [`StreamingRegressor::session_state_bytes`]) plus the struct itself
    /// (spec, CUSUMs, supervisor, counters).
    pub fn resident_bytes(&self, engine: &StreamingRegressor) -> usize {
        engine.session_state_bytes() + std::mem::size_of::<Self>()
    }

    /// The deterministic synthetic flight: smoothly varying pose and
    /// rates (same shape as the perf bench's synthetic inputs, salted by
    /// the session's phase offsets), with the fault bias applied to the
    /// position channels while the schedule is active.
    fn synthesize(&self, t: f64, fault_active: bool, bias: f64) -> SensorPrimitives {
        let [p0, p1, p2] = self.phase;
        let mut est = pidpiper_sensors::EstimatedState {
            position: Vec3::new(
                2.0 * t + p0,
                (0.7 * t + p1).sin(),
                5.0 + 0.3 * (0.4 * t + p2).cos(),
            ),
            velocity: Vec3::new(2.0, 0.7 * (0.7 * t + p1).cos(), -0.12 * (0.4 * t + p2).sin()),
            attitude: Vec3::new(
                0.02 * (1.1 * t + p0).sin(),
                0.03 * (0.9 * t + p1).cos(),
                0.1 * t,
            ),
            body_rates: Vec3::new(
                0.022 * (1.1 * t + p0).cos(),
                -0.027 * (0.9 * t + p1).sin(),
                0.1,
            ),
            ..Default::default()
        };
        if fault_active {
            est.position.x += bias;
            est.position.y += bias;
        }
        SensorPrimitives::collect(&est, &pidpiper_sensors::SensorReadings::default())
    }

    /// Advances the session one tick.
    ///
    /// Pipeline per tick: synthesize features → normalize → streaming
    /// prediction (the live row stepped from the frozen prefix) →
    /// per-axis residual vs the EMA baseline into the CUSUMs →
    /// supervisor observes (prediction, tripped) → fingerprint mixes the
    /// tick. Every `decimate` ticks the normalized row is pushed into the
    /// history ring and the prefix is recomputed by replaying the ring,
    /// then frozen; when `decimate > 1` the replay is split in two, half
    /// of the next window's rows stepped on the quiet tick after a push
    /// and the rest at the push itself.
    ///
    /// # Errors
    ///
    /// Returns a typed [`MissionError`] when the session exceeds its PR-4
    /// budget (deadline in simulated seconds, or step budget in ticks);
    /// the shard retires the session into quarantine.
    pub fn tick(
        &mut self,
        engine: &StreamingRegressor,
        params: &SessionParams,
        scratch: &mut ShardScratch,
    ) -> Result<SessionTick, MissionError> {
        let ShardScratch {
            live,
            scratch: inf,
            feat,
            normed,
            out,
        } = scratch;
        let pro = self.begin_tick(engine, params, feat, normed)?;

        // Streaming prediction: step the live row from the frozen prefix,
        // run the dense head. Dimension errors cannot occur (every buffer
        // is engine-shaped); on the impossible mismatch the session holds
        // its previous prediction rather than crashing the shard.
        let prediction = if pro.normed_ok {
            let prefix = self.prefix(engine);
            let stepped = engine.step_frozen(normed, &[prefix], live, 0..1).is_ok()
                && engine.finish_lane_into(live, 0, inf, out).is_ok();
            if stepped {
                [out[0], out[1], out[2], out[3]]
            } else {
                self.last_prediction
            }
        } else {
            self.last_prediction
        };
        let (tick, replay) = self.finish_tick(engine, params, prediction, &pro, normed);
        if let Some(replay) = replay {
            self.replay(engine, live, replay);
        }
        Ok(tick)
    }

    /// First phase of a tick: budget checks, synthetic flight, feature
    /// assembly and normalization into `normed`. Shared verbatim by the
    /// per-session path ([`VehicleSession::tick`]) and the shard's batched
    /// path, which runs inference over many sessions between this and
    /// [`VehicleSession::finish_tick`].
    ///
    /// # Errors
    ///
    /// The same typed [`MissionError`] budget violations as `tick`.
    pub(crate) fn begin_tick(
        &mut self,
        engine: &StreamingRegressor,
        params: &SessionParams,
        feat: &mut Vec<f64>,
        normed: &mut [f64],
    ) -> Result<TickPrologue, MissionError> {
        let t = self.ticks as f64 * params.dt;
        self.spent += 1;
        if let Some(deadline) = self.spec.budget.deadline {
            if t > deadline {
                return Err(MissionError::DeadlineExceeded {
                    deadline,
                    reached: t,
                });
            }
        }
        if let Some(budget) = self.spec.budget.step_budget {
            if self.spent > budget {
                return Err(MissionError::StepBudgetExhausted {
                    budget,
                    spent: self.spent,
                });
            }
        }

        let fault_active = self
            .spec
            .fault
            .as_ref()
            .is_some_and(|f| f.is_active(t));
        let prims = self.synthesize(t, fault_active, params.fault_bias);
        assemble_into(
            FeatureSet::FfcPruned,
            &prims,
            &self.spec.target,
            FlightPhase::Cruise { wp_index: 0 },
            &ActuatorSignal::default(),
            feat,
        );
        let normed_ok = engine.normalize_into(feat, normed).is_ok();
        Ok(TickPrologue {
            t,
            fault_active,
            normed_ok,
        })
    }

    /// Second phase of a tick: folds `prediction` through the monitor
    /// (EMA baseline → CUSUM → strategy trip decision), the supervisor and
    /// the fingerprint, and performs the decimated history-ring push.
    ///
    /// Returns the ring replay the tick owes, for the caller to run
    /// ([`VehicleSession::replay`] inline, or batched with other
    /// sessions'). [`WindowSchedule::ring_replay`] splits it in two so no
    /// tick steps a whole window:
    ///
    /// - on the quiet tick after a push, the first `⌊(window − 1) / 2⌋`
    ///   rows the next window shares with the ring (all but the oldest
    ///   once the ring is full, since the next push drops it) are stepped
    ///   from zero into the partial;
    /// - at the next push the partial resumes with the rest, the new row
    ///   last, and is frozen into the prefix.
    ///
    /// Each row is the same step in the same order as a whole replay, so
    /// the prefix keeps its bits. With `decimate = 1` there is no quiet
    /// tick and the push replays the whole ring. Unlike the
    /// single-vehicle FFC, a session predicts from a partial ring during
    /// its warm-up: the replay covers whatever history the schedule
    /// counts. Running the replay after
    /// this function is sound because it touches only the prefix and the
    /// partial, which nothing after the ring push here reads.
    pub(crate) fn finish_tick(
        &mut self,
        engine: &StreamingRegressor,
        params: &SessionParams,
        prediction: [f64; 4],
        pro: &TickPrologue,
        normed: &[f64],
    ) -> (SessionTick, Option<Replay>) {
        let TickPrologue { t, fault_active, .. } = *pro;
        self.last_prediction = prediction;

        // Residual per axis against a slow EMA baseline: smooth nominal
        // flight keeps the increments under the CUSUM drift; a fault-biased
        // feature jump parks the prediction on a new plateau and the
        // residual stays elevated for ~1/alpha ticks, accumulating into
        // the CUSUMs.
        if !self.ema_primed {
            self.ema = prediction;
            self.ema_primed = true;
        }
        let mut axis = [0.0f64; 4];
        for (a, &pred) in prediction.iter().enumerate() {
            let residual = (pred - self.ema[a]).abs();
            self.ema[a] += params.ema_alpha * (pred - self.ema[a]);
            let s = self.cusum[a].update(residual);
            self.cusum[a].saturate(params.cusum_cap);
            axis[a] = s.min(params.cusum_cap);
        }
        let stat = axis.iter().fold(0.0f64, |m, &v| m.max(v));
        let recovering = self.supervisor.health() == HealthState::Recovery;
        let tripped = match params.strategy {
            // The paper's Algorithm 1: trip whenever any axis CUSUM is
            // over threshold.
            StrategyKind::Algorithm1 => stat > params.tau,
            // Spec-compliance flavor: release hysteresis — once in
            // recovery, stay tripped until the statistic has decayed well
            // below threshold (back on spec), not merely under it.
            StrategyKind::SpecCompliance => {
                if recovering {
                    stat > 0.5 * params.tau
                } else {
                    stat > params.tau
                }
            }
            // Diagnosis-guided flavor: while recovering, the blamed axis's
            // CUSUM is excused from the trip decision, so the session can
            // hand control back on the health of the remaining axes even
            // under a persistent single-axis fault.
            StrategyKind::DiagnosisGuided => {
                let effective = match (recovering, self.blamed_axis) {
                    (true, Some(b)) => axis
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != b)
                        .fold(0.0f64, |m, (_, &v)| m.max(v)),
                    _ => stat,
                };
                let t = effective > params.tau;
                if t && self.blamed_axis.is_none() {
                    // Blame the axis carrying the largest statistic
                    // (first-max-wins: strict comparison over a fixed
                    // order keeps it deterministic).
                    let mut best = 0usize;
                    for (i, &v) in axis.iter().enumerate().skip(1) {
                        if v > axis[best] {
                            best = i;
                        }
                    }
                    self.blamed_axis = Some(best);
                } else if !t && !recovering {
                    self.blamed_axis = None;
                }
                t
            }
        };

        let y = ActuatorSignal::from_array(prediction);
        let health = self.supervisor.observe(&y, tripped);

        // Decimated history-ring push, and the replay it owes.
        let schedule = Self::schedule(engine, params);
        let tick = usize::try_from(self.ticks).unwrap_or(usize::MAX);
        if schedule.is_push(tick) {
            self.push_ring(engine, schedule.history_cap(), normed);
        }
        let replay = schedule.ring_replay(tick).map(Replay::new);

        // The per-session trace hook: same mixer as `Trace::fingerprint`.
        self.fingerprint.mix_f64(t);
        for v in prediction {
            self.fingerprint.mix_f64(v);
        }
        self.fingerprint.mix_f64(stat);
        self.fingerprint.mix_flag(tripped);
        self.fingerprint.mix_flag(fault_active);
        self.fingerprint.mix_health(health);

        self.ticks += 1;
        (
            SessionTick {
                health,
                tripped,
                fault_active,
            },
            replay,
        )
    }

    /// The sessions' window schedule: a ring push on the last tick of
    /// every `decimate` ticks, from the first session tick on.
    fn schedule(engine: &StreamingRegressor, params: &SessionParams) -> WindowSchedule {
        let s = WindowSchedule::new(engine.config().window, params.decimate);
        s.with_phase(s.decimate() - 1)
    }

    /// Appends one normalized row to the circular history ring of
    /// `cap_rows` rows (at least one: only a push calls this).
    fn push_ring(&mut self, engine: &StreamingRegressor, cap_rows: usize, row: &[f64]) {
        let dim = engine.config().input_dim;
        if self.ring_rows < cap_rows {
            self.ring.extend_from_slice(row);
            self.ring_rows += 1;
        } else {
            let at = self.ring_head * dim;
            self.ring[at..at + dim].copy_from_slice(row);
            self.ring_head = (self.ring_head + 1) % cap_rows;
        }
    }

    /// Runs `replay` through the one-lane `bank` (the per-session path;
    /// the batched path steps the same rows as lanes): starts from the
    /// partial or zero, steps its ring rows oldest to newest, then freezes
    /// the prefix or keeps the partial.
    pub(crate) fn replay(&mut self, engine: &StreamingRegressor, bank: &mut StateBank, replay: Replay) {
        let dim = engine.config().input_dim;
        match self.partial.as_ref().filter(|_| replay.resume) {
            Some(partial) => bank.load_lane(0, partial),
            None => bank.reset(),
        }
        for i in replay.ring_rows() {
            // Engine-shaped rows and bank: cannot mismatch; stop
            // defensively if they somehow do, as a replay of fewer rows.
            if engine.step_lanes(self.ring_row(i, dim), bank, 0..1).is_err() {
                break;
            }
        }
        if replay.freeze {
            // The same shapes again: an error leaves the old prefix.
            let prefix = std::slice::from_mut(self.prefix_mut(engine));
            let _ = engine.freeze_lanes(bank, 0..1, prefix);
        } else {
            bank.store_lane(0, self.partial_mut(engine));
        }
    }

    /// The frozen prefix every live step reads: the state after the
    /// history ring's rows, oldest first, from zero, frozen.
    pub fn prefix<'a>(&'a self, engine: &'a StreamingRegressor) -> &'a FrozenPrefix {
        self.prefix.as_ref().unwrap_or(engine.zero_prefix())
    }

    /// The session's own frozen prefix, allocated on first use (batched
    /// path: frozen into straight from the replay's lanes).
    pub(crate) fn prefix_mut(&mut self, engine: &StreamingRegressor) -> &mut FrozenPrefix {
        self.prefix.get_or_insert_with(|| engine.zero_prefix().clone())
    }

    /// The next window's partial state, if a pre-step has run.
    pub(crate) fn partial(&self) -> Option<&StreamState> {
        self.partial.as_ref()
    }

    /// The partial state, allocated at the first pre-step.
    pub(crate) fn partial_mut(&mut self, engine: &StreamingRegressor) -> &mut StreamState {
        self.partial.get_or_insert_with(|| engine.state())
    }

    /// The history ring's rows, oldest first: the rows the prefix has
    /// stepped through.
    pub fn history<'a>(&'a self, engine: &StreamingRegressor) -> impl Iterator<Item = &'a [f64]> {
        let dim = engine.config().input_dim;
        (0..self.ring_rows).map(move |i| self.ring_row(i, dim))
    }

    /// The `i`-th oldest ring row (replay order).
    pub(crate) fn ring_row(&self, i: usize, dim: usize) -> &[f64] {
        let idx = (self.ring_head + i) % self.ring_rows;
        &self.ring[idx * dim..(idx + 1) * dim]
    }

    /// The previous tick's prediction — the batched path's fallback when
    /// a lane's row failed to normalize (impossible for engine-shaped
    /// buffers, mirrored from the per-session path anyway).
    pub(crate) fn last_prediction(&self) -> [f64; 4] {
        self.last_prediction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pidpiper_ml::{LstmRegressor, RegressorConfig};

    fn engine() -> StreamingRegressor {
        let set = FeatureSet::FfcPruned;
        let config = RegressorConfig::standard(set.dim(), ActuatorSignal::DIM);
        LstmRegressor::new(config, 42).compile()
    }

    #[test]
    fn nominal_session_stays_nominal_and_is_deterministic() {
        let eng = engine();
        let params = SessionParams::default();
        let mut a = VehicleSession::new(SessionSpec::new(3, 77), &eng, &params);
        let mut b = VehicleSession::new(SessionSpec::new(3, 77), &eng, &params);
        let mut sa = ShardScratch::for_engine(&eng);
        let mut sb = ShardScratch::for_engine(&eng);
        for _ in 0..300 {
            let ra = a.tick(&eng, &params, &mut sa).expect("in budget");
            let rb = b.tick(&eng, &params, &mut sb).expect("in budget");
            assert_eq!(ra, rb);
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.health(), HealthState::Nominal);
        assert_eq!(a.recovery_activations(), 0);
    }

    #[test]
    fn sessions_with_different_seeds_diverge() {
        let eng = engine();
        let params = SessionParams::default();
        let mut a = VehicleSession::new(SessionSpec::new(0, 1), &eng, &params);
        let mut b = VehicleSession::new(SessionSpec::new(1, 2), &eng, &params);
        let mut s = ShardScratch::for_engine(&eng);
        for _ in 0..50 {
            let _ = a.tick(&eng, &params, &mut s).expect("in budget");
            let _ = b.tick(&eng, &params, &mut s).expect("in budget");
        }
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn faulted_session_trips_monitor_and_recovers_or_degrades() {
        let eng = engine();
        let params = SessionParams::default();
        let spec = SessionSpec::new(9, 5).with_fault(FaultSchedule::Continuous { start: 1.0 });
        let mut s = VehicleSession::new(spec, &eng, &params);
        let mut scratch = ShardScratch::for_engine(&eng);
        let mut tripped_any = false;
        for _ in 0..600 {
            match s.tick(&eng, &params, &mut scratch) {
                Ok(r) => tripped_any |= r.tripped,
                Err(e) => panic!("unexpected quarantine: {e}"),
            }
        }
        assert!(tripped_any, "a 35 m position bias must trip the CUSUM");
        assert!(
            s.recovery_activations() > 0 || s.health() == HealthState::Degraded,
            "the supervisor must have reacted: health {:?}",
            s.health()
        );
    }

    #[test]
    fn strategies_are_deterministic_and_default_matches_algorithm1() {
        let eng = engine();
        // Every strategy is deterministic over a faulted flight, and the
        // default params run Algorithm 1 exactly (fingerprint identity
        // with an explicit Algorithm 1 selection).
        let fp = |strategy: StrategyKind| {
            let params = SessionParams {
                strategy,
                ..SessionParams::default()
            };
            let spec =
                SessionSpec::new(9, 5).with_fault(FaultSchedule::Continuous { start: 1.0 });
            let mut s = VehicleSession::new(spec, &eng, &params);
            let mut scratch = ShardScratch::for_engine(&eng);
            for _ in 0..600 {
                s.tick(&eng, &params, &mut scratch).expect("in budget");
            }
            (s.fingerprint(), s.recovery_activations(), s.health())
        };
        for kind in StrategyKind::ALL {
            assert_eq!(fp(kind), fp(kind), "{kind} must be deterministic");
        }
        let default_params = SessionParams::default();
        assert_eq!(default_params.strategy, StrategyKind::Algorithm1);
        assert_eq!(fp(StrategyKind::Algorithm1).0, {
            let spec =
                SessionSpec::new(9, 5).with_fault(FaultSchedule::Continuous { start: 1.0 });
            let mut s = VehicleSession::new(spec, &eng, &default_params);
            let mut scratch = ShardScratch::for_engine(&eng);
            for _ in 0..600 {
                s.tick(&eng, &default_params, &mut scratch).expect("in budget");
            }
            s.fingerprint()
        });
    }

    #[test]
    fn diagnosis_strategy_blames_then_clears() {
        let eng = engine();
        let params = SessionParams {
            strategy: StrategyKind::DiagnosisGuided,
            ..SessionParams::default()
        };
        // Fault window ends at t=3: blame must be assigned during the
        // fault and cleared once the session settles back to nominal.
        let spec =
            SessionSpec::new(9, 5).with_fault(FaultSchedule::Windows(vec![(1.0, 3.0)]));
        let mut s = VehicleSession::new(spec, &eng, &params);
        let mut scratch = ShardScratch::for_engine(&eng);
        let mut blamed_during = false;
        for _ in 0..1500 {
            s.tick(&eng, &params, &mut scratch).expect("in budget");
            blamed_during |= s.blamed_axis.is_some();
        }
        assert!(blamed_during, "the fault must draw blame onto an axis");
        if s.health() == HealthState::Nominal {
            assert_eq!(s.blamed_axis, None, "blame clears once nominal");
        }
    }

    #[test]
    fn budget_exhaustion_is_typed() {
        let eng = engine();
        let params = SessionParams::default();
        let spec =
            SessionSpec::new(1, 1).with_budget(MissionBudget::default().with_step_budget(10));
        let mut s = VehicleSession::new(spec, &eng, &params);
        let mut scratch = ShardScratch::for_engine(&eng);
        let mut err = None;
        for _ in 0..20 {
            if let Err(e) = s.tick(&eng, &params, &mut scratch) {
                err = Some(e);
                break;
            }
        }
        assert!(
            matches!(err, Some(MissionError::StepBudgetExhausted { budget: 10, .. })),
            "got {err:?}"
        );
        // Deadline variant.
        let spec =
            SessionSpec::new(2, 1).with_budget(MissionBudget::default().with_deadline(0.05));
        let mut s = VehicleSession::new(spec, &eng, &params);
        let mut err = None;
        for _ in 0..20 {
            if let Err(e) = s.tick(&eng, &params, &mut scratch) {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(err, Some(MissionError::DeadlineExceeded { .. })));
    }

    #[test]
    fn from_mission_derives_session_fields() {
        use pidpiper_missions::{MissionPlan, RunnerConfig};
        use pidpiper_sim::RvId;
        let spec = MissionSpec {
            config: RunnerConfig::for_rv(RvId::ArduCopter),
            plan: MissionPlan::straight_line(50.0, 5.0),
            attacks: Vec::new(),
        };
        let a = SessionSpec::from_mission(0, &spec);
        let b = SessionSpec::from_mission(1, &spec);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.target.position, spec.plan.destination());
        // Deterministic: same id, same mission, same spec.
        assert_eq!(a, SessionSpec::from_mission(0, &spec));
    }

    #[test]
    fn resident_bytes_accounts_ring_and_state() {
        let eng = engine();
        let params = SessionParams::default();
        let s = VehicleSession::new(SessionSpec::new(0, 0), &eng, &params);
        let b = s.resident_bytes(&eng);
        // Standard config: a frozen prefix of (2 + 8)*24*8 = 1920 bytes
        // (1152 more than a 4*24*8 `StreamState`, the price of skipping
        // two GEMMs per live step), the next window's partial state of
        // 4*24*8 = 768 bytes (the price of splitting the push's replay)
        // and a 19*24*8 = 3648-byte ring.
        assert_eq!(eng.session_state_bytes(), 1920 + 768 + 3648);
        assert_eq!(b, eng.session_state_bytes() + std::mem::size_of::<VehicleSession>());
        // The struct: spec, CUSUMs, supervisor, counters, the ring's
        // `Vec`, the prefix's four boxed rows and the partial's one box
        // (see engine::bytes_per_session tests for the whole figure).
        #[cfg(target_pointer_width = "64")]
        assert_eq!(std::mem::size_of::<VehicleSession>(), 560);
    }
}

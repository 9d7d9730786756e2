//! The fleet engine: N sessions, S shards, W workers, one deterministic
//! tick loop.

use pidpiper_control::ActuatorSignal;
use pidpiper_core::features::FeatureSet;
use pidpiper_missions::configured_jobs;
use pidpiper_ml::{LstmRegressor, RegressorConfig, StreamingRegressor};

use crate::session::{SessionParams, SessionSpec, VehicleSession};
use crate::shard::{Admission, AdmissionError, RetiredSession, Shard, ShardTickStats};

/// How shards run their sessions' inference each tick.
///
/// Both modes produce bit-identical session fingerprints: the fleet
/// bench's `batch_invariant` gate runs the per-session path as the
/// reference for the batched default. Both are exact f64 paths, so
/// either may sit under `FleetEngine::tick`, a determinism root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetBatch {
    /// One matrix–vector streaming pass per session (the PR-5 loop).
    PerSession,
    /// One lane-row step over up to 64 sessions (`shard::BATCH_WIDTH`)
    /// sharing the shard's model, each session a row of the step's GEMMs
    /// (the default).
    #[default]
    Batched,
}

impl FleetBatch {
    /// The report spelling (`batched` / `per_session`).
    pub fn as_str(&self) -> &'static str {
        match self {
            FleetBatch::PerSession => "per_session",
            FleetBatch::Batched => "batched",
        }
    }
}

/// Fleet-engine configuration. Every field maps to an operator knob
/// documented in `OPERATIONS.md`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of shards (fixed for the fleet's lifetime; sessions pin to
    /// `id % shards`).
    pub shards: usize,
    /// Worker threads a fleet tick fans shards out over. Defaults to
    /// [`configured_jobs`] (the `PIDPIPER_JOBS` contract). Worker count
    /// never affects results, only wall-clock.
    pub workers: usize,
    /// Max resident sessions per shard (admission limit).
    pub shard_capacity: usize,
    /// Max sessions waiting in each shard's pending queue; submissions
    /// beyond capacity + queue are rejected with
    /// [`AdmissionError::ShardSaturated`].
    pub pending_capacity: usize,
    /// Deadline budget per shard tick, in deterministic cost units
    /// (`u64::MAX` = capacity-limited only). One session tick costs
    /// `1 + ceil((window - 1) / decimate)` units — its amortized
    /// LSTM-step count.
    pub shard_cost_budget: u64,
    /// Per-session tick parameters (CUSUM, supervisor, fault bias …).
    pub session: SessionParams,
    /// Inference mode per shard tick. Bit-identical either way; batched
    /// is the default.
    pub batch: FleetBatch,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 64,
            workers: configured_jobs(),
            shard_capacity: 4096,
            pending_capacity: 64,
            shard_cost_budget: u64::MAX,
            session: SessionParams::default(),
            batch: FleetBatch::default(),
        }
    }
}

impl FleetConfig {
    /// Clamps degenerate values (zero shards/capacity) to workable ones.
    fn sanitized(mut self) -> Self {
        self.shards = self.shards.max(1);
        self.workers = self.workers.max(1);
        self.shard_capacity = self.shard_capacity.max(1);
        self
    }
}

/// Cumulative fleet counters (monotonic over the engine's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Sessions submitted (admitted + queued + rejected).
    pub submitted: u64,
    /// Sessions admitted directly on submit.
    pub admitted: u64,
    /// Sessions that entered a pending queue on submit.
    pub queued: u64,
    /// Submissions rejected with a typed [`AdmissionError`].
    pub rejected: u64,
    /// Sessions later admitted from a pending queue.
    pub admitted_from_queue: u64,
    /// Sessions retired into quarantine.
    pub retired: u64,
    /// Total session ticks executed.
    pub session_ticks: u64,
    /// Worker-chunk panics caught at the tick join boundary (0 in any
    /// healthy run; counted instead of propagated, mirroring the PR-4
    /// isolation contract).
    pub join_failures: u64,
}

/// The sharded session scheduler.
///
/// One engine owns one compiled [`StreamingRegressor`] (shared by every
/// session), `shards` independent shards, and the cumulative
/// [`FleetStats`]. See the "Fleet engine" section of `ARCHITECTURE.md`
/// for the lifecycle diagram and `OPERATIONS.md` for the operator guide.
///
/// # Determinism
///
/// A fleet tick maps each worker to a fixed contiguous shard range
/// (steal-free; chunk boundaries depend only on shard and worker counts)
/// and shards share no mutable state, so per-session results — every
/// prediction bit, every health transition, every fingerprint — are
/// identical for any worker count, and (given full admission) for any
/// shard count. Wall-clock latency is *measured* by the bench layer but
/// never feeds back into scheduling.
#[derive(Debug)]
pub struct FleetEngine {
    config: FleetConfig,
    model: StreamingRegressor,
    session_cost: u64,
    shards: Vec<Shard>,
    ticks: u64,
    stats: FleetStats,
}

impl FleetEngine {
    /// Builds a fleet around a compiled inference engine.
    pub fn new(model: StreamingRegressor, config: FleetConfig) -> Self {
        let config = config.sanitized();
        let c = model.config();
        let session_cost = 1 + ((c.window - 1) as u64).div_ceil(config.session.decimate.max(1) as u64);
        let batched = config.batch == FleetBatch::Batched;
        let shards = (0..config.shards)
            .map(|i| {
                Shard::new(
                    i,
                    config.shard_capacity,
                    config.pending_capacity,
                    config.shard_cost_budget,
                    session_cost,
                    &model,
                    batched,
                )
            })
            .collect();
        FleetEngine {
            config,
            model,
            session_cost,
            shards,
            ticks: 0,
            stats: FleetStats::default(),
        }
    }

    /// Builds a fleet around a freshly initialized network at the
    /// deployed configuration (FfcPruned features, standard regressor).
    ///
    /// The weights are untrained — seeded Xavier initialization — which
    /// leaves inference cost, memory footprint and every scheduling /
    /// determinism property identical to a trained artifact; only the
    /// prediction *values* differ. Benches and examples use this to avoid
    /// a training run.
    pub fn with_synthetic_model(config: FleetConfig, seed: u64) -> Self {
        let set = FeatureSet::FfcPruned;
        let rc = RegressorConfig::standard(set.dim(), ActuatorSignal::DIM);
        FleetEngine::new(LstmRegressor::new(rc, seed).compile(), config)
    }

    /// The engine configuration (post-sanitization).
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The shared inference engine.
    pub fn model(&self) -> &StreamingRegressor {
        &self.model
    }

    /// Deterministic cost of one session tick, in cost units.
    pub fn session_cost(&self) -> u64 {
        self.session_cost
    }

    /// Fleet ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// Currently resident sessions across all shards.
    pub fn resident_sessions(&self) -> usize {
        self.shards.iter().map(Shard::resident).sum()
    }

    /// Sessions currently waiting in pending queues.
    pub fn pending_sessions(&self) -> usize {
        self.shards.iter().map(Shard::pending).sum()
    }

    /// Marginal resident bytes of one session: the streaming state the ml
    /// layer accounts ([`StreamingRegressor::session_state_bytes`]), the
    /// session struct itself (spec, CUSUMs, supervisor, counters), and —
    /// under [`FleetBatch::Batched`] — the shard's batched working set
    /// (64 lane rows plus bookkeeping) amortized over the
    /// shard's session capacity, so `bytes_per_session` stays honest
    /// about everything a resident session costs.
    pub fn bytes_per_session(&self) -> usize {
        let batch_scratch = self
            .shards
            .first()
            .map_or(0, Shard::batch_bytes)
            .div_ceil(self.config.shard_capacity.max(1));
        self.model.session_state_bytes()
            + std::mem::size_of::<VehicleSession>()
            + batch_scratch
    }

    /// Submits one session to its home shard (`spec.id % shards`).
    ///
    /// Never blocks: the session is admitted, queued behind the shard's
    /// backpressure, or rejected with a typed error — always immediately.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::ShardSaturated`] when the home shard is at
    /// capacity (or past its cost budget) and its pending queue is full.
    pub fn submit(&mut self, spec: SessionSpec) -> Result<Admission, AdmissionError> {
        self.stats.submitted += 1;
        let shard = (spec.id % self.shards.len() as u64) as usize;
        let outcome = self.shards[shard].submit(spec, &self.model, &self.config.session);
        match &outcome {
            Ok(Admission::Admitted { .. }) => self.stats.admitted += 1,
            Ok(Admission::Queued { .. }) => self.stats.queued += 1,
            Err(_) => self.stats.rejected += 1,
        }
        outcome
    }

    /// Runs one fleet tick: every shard drains its pending queue into
    /// freed capacity, then ticks its sessions in admission order.
    /// Workers process fixed contiguous shard ranges in parallel.
    pub fn tick(&mut self) -> ShardTickStats {
        let workers = self.config.workers.min(self.shards.len()).max(1);
        let model = &self.model;
        let params = &self.config.session;
        let mut merged = ShardTickStats::default();
        let mut join_failures = 0u64;
        if workers == 1 {
            for shard in &mut self.shards {
                merged.merge(&shard.tick(model, params));
            }
        } else {
            let chunk = self.shards.len().div_ceil(workers);
            let mut results: Vec<ShardTickStats> = Vec::with_capacity(workers);
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .chunks_mut(chunk)
                    .map(|chunk| {
                        scope.spawn(move || {
                            let mut acc = ShardTickStats::default();
                            for shard in chunk {
                                acc.merge(&shard.tick(model, params));
                            }
                            acc
                        })
                    })
                    .collect();
                for h in handles {
                    match h.join() {
                        Ok(acc) => results.push(acc),
                        Err(_) => join_failures += 1,
                    }
                }
            });
            for r in &results {
                merged.merge(r);
            }
        }
        self.ticks += 1;
        self.stats.session_ticks += merged.session_ticks;
        self.stats.admitted_from_queue += merged.admitted_from_queue;
        self.stats.retired += merged.retired;
        self.stats.join_failures += join_failures;
        merged
    }

    /// Runs `n` fleet ticks, returning the stats of the last one.
    pub fn run_ticks(&mut self, n: usize) -> ShardTickStats {
        let mut last = ShardTickStats::default();
        for _ in 0..n {
            last = self.tick();
        }
        last
    }

    /// Every resident session, shard by shard, each shard's in
    /// admission order.
    pub fn sessions(&self) -> impl Iterator<Item = &VehicleSession> {
        self.shards.iter().flat_map(|s| s.sessions())
    }

    /// Per-session behavioral fingerprints — live *and* retired sessions
    /// — sorted by session id. This is the value the determinism gate
    /// compares across worker and shard counts.
    pub fn session_fingerprints(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(
            self.resident_sessions() + self.stats.retired as usize,
        );
        for shard in &self.shards {
            for s in shard.sessions() {
                out.push((s.id(), s.fingerprint()));
            }
            for r in shard.retired_sessions() {
                out.push((r.id, r.fingerprint));
            }
        }
        out.sort_unstable_by_key(|&(id, _)| id);
        out
    }

    /// All quarantined sessions with their typed errors, sorted by id.
    pub fn quarantined(&self) -> Vec<&RetiredSession> {
        let mut out: Vec<&RetiredSession> = self
            .shards
            .iter()
            .flat_map(|s| s.retired_sessions().iter())
            .collect();
        out.sort_unstable_by_key(|r| r.id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pidpiper_faults::FaultSchedule;
    use pidpiper_missions::MissionBudget;

    /// A small but adversarial fleet: faulted sessions, budget-retired
    /// sessions, shard populations spanning several batch chunks, and a
    /// second admission wave so ring warm-up states (and hence batched
    /// replay groups) are ragged.
    fn run_fleet(batch: FleetBatch) -> (Vec<(u64, u64)>, FleetStats) {
        let config = FleetConfig {
            shards: 3,
            workers: 1,
            shard_capacity: 200,
            pending_capacity: 16,
            shard_cost_budget: u64::MAX,
            session: SessionParams::default(),
            batch,
        };
        let mut engine = FleetEngine::with_synthetic_model(config, 2027);
        let spec = |id: u64| {
            let mut s = SessionSpec::new(id, id.wrapping_mul(11) ^ 5);
            if id.is_multiple_of(5) {
                s = s.with_fault(FaultSchedule::Continuous { start: 0.05 });
            }
            if id.is_multiple_of(17) {
                s = s.with_budget(MissionBudget::default().with_step_budget(20));
            }
            s
        };
        for id in 0..150 {
            engine.submit(spec(id)).expect("admitted or queued");
        }
        engine.run_ticks(30);
        // Second wave: these sessions' rings warm up out of phase with the
        // first wave's, exercising the ragged replay grouping.
        for id in 150..180 {
            engine.submit(spec(id)).expect("admitted or queued");
        }
        engine.run_ticks(33);
        (engine.session_fingerprints(), *engine.stats())
    }

    #[test]
    fn batched_and_per_session_fleets_are_bit_identical() {
        let (fp_batched, stats_batched) = run_fleet(FleetBatch::Batched);
        let (fp_scalar, stats_scalar) = run_fleet(FleetBatch::PerSession);
        assert_eq!(fp_batched.len(), fp_scalar.len());
        assert_eq!(fp_batched, fp_scalar, "batched inference changed a fingerprint");
        assert_eq!(stats_batched, stats_scalar);
        assert!(stats_batched.retired > 0, "budget retirement must occur in-run");
    }

    #[test]
    fn batch_scratch_is_amortized_into_bytes_per_session() {
        let scalar = FleetEngine::with_synthetic_model(
            FleetConfig {
                batch: FleetBatch::PerSession,
                ..FleetConfig::default()
            },
            7,
        );
        let batched = FleetEngine::with_synthetic_model(
            FleetConfig {
                batch: FleetBatch::Batched,
                ..FleetConfig::default()
            },
            7,
        );
        let a = scalar.bytes_per_session();
        let b = batched.bytes_per_session();
        // The exact figure the layout gives on a 64-bit target, at the
        // standard model (hidden 24, window 20, 24 features, fc 24, 4
        // outputs): 6,336 B of streaming state (ring 3,648 + frozen prefix
        // 1,920 + partial window 768) and a 576-byte session struct, plus
        // the shard's 144,896-byte batch working set (a 64-lane bank of
        // 98,304 B, input, dense and output rows of 40,960 B, bookkeeping
        // 5,632 B; no prefix slots, the replays freeze straight into the
        // sessions) amortized over the shard capacity: 36 B at the
        // default 4,096, 566 B at the ledger's 256. The replay queue grows to
        // one entry per owing session once the fleet ticks (24 B each).
        #[cfg(target_pointer_width = "64")]
        {
            assert_eq!(a, 6336 + 576);
            assert_eq!(b, a + 144_896usize.div_ceil(4096));
            let ledger = FleetEngine::with_synthetic_model(
                FleetConfig {
                    shard_capacity: 256,
                    batch: FleetBatch::Batched,
                    ..FleetConfig::default()
                },
                7,
            );
            assert_eq!(ledger.bytes_per_session(), 7478);
        }
        assert!(b > a, "batched accounting must include the amortized scratch");
    }

    #[test]
    fn fleet_batch_prints_and_defaults_to_batched() {
        assert_eq!(FleetBatch::Batched.as_str(), "batched");
        assert_eq!(FleetBatch::PerSession.as_str(), "per_session");
        assert_eq!(FleetBatch::default(), FleetBatch::Batched);
    }
}

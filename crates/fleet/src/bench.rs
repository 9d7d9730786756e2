//! The fleet throughput bench behind `pidpiper-fleet` and
//! `BENCH_fleet.json`.
//!
//! Three stages, mirroring the PR-5 perf bench's refuse-to-lie shape:
//!
//! 1. **Determinism gate** — a reduced fleet is run four times (1
//!    worker, several workers, different shard count, and the opposite
//!    batching mode) and every per-session fingerprint is compared
//!    bit-for-bit. The bench records the verdict, and
//!    [`FleetBenchReport::check`] fails the `pidpiper-fleet` binary on a
//!    mismatch.
//! 2. **Admission exercise** — the full fleet is submitted with a
//!    deliberate overflow beyond capacity, so the report always carries
//!    real queued/rejected/quarantined counts, and a slice of sessions
//!    gets tight PR-4 budgets so retirement (and queue drainage) happens
//!    mid-run.
//! 3. **Timed runs** — every fleet tick is wall-clock timed, twice: a
//!    1-worker row (the configuration the determinism gate anchors on)
//!    and a multi-worker row (`workers` from `PIDPIPER_JOBS`), so the
//!    batched-inference speedup is measured where it matters. The report
//!    carries sustained session-ticks/sec, mean and p99 fleet-tick
//!    latency per row, and the measured marginal bytes/session.
//!
//! All knobs come from the environment (see `OPERATIONS.md`):
//! `PIDPIPER_FLEET_SESSIONS`, `PIDPIPER_FLEET_TICKS`,
//! `PIDPIPER_FLEET_SHARDS`, `PIDPIPER_FLEET_SHARD_CAPACITY`,
//! `PIDPIPER_FLEET_PENDING`, `PIDPIPER_FLEET_COST_BUDGET`,
//! `PIDPIPER_FLEET_STRATEGY` (the recovery strategy every session runs),
//! and `PIDPIPER_JOBS` for the worker pool. The timed fleet always runs
//! batched inference; the gate's `batch_invariant` leg runs the
//! per-session path as the reference.

use std::io;
use std::time::Instant;

use pidpiper_faults::FaultSchedule;
use pidpiper_math::float::sort_floats;
use pidpiper_math::json::{self, Json};
use pidpiper_math::json_object;
use pidpiper_missions::{configured_jobs, MissionBudget, StrategyKind};

use crate::engine::{FleetBatch, FleetConfig, FleetEngine};
use crate::session::SessionSpec;

/// Bench configuration, read from the environment by the binary.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBenchConfig {
    /// Target concurrent sessions (`PIDPIPER_FLEET_SESSIONS`).
    pub sessions: usize,
    /// Timed fleet ticks (`PIDPIPER_FLEET_TICKS`).
    pub ticks: usize,
    /// Untimed warm-up fleet ticks.
    pub warmup: usize,
    /// Shard count (`PIDPIPER_FLEET_SHARDS`).
    pub shards: usize,
    /// Worker threads (`PIDPIPER_JOBS` via [`configured_jobs`]).
    pub workers: usize,
    /// Per-shard resident capacity (`PIDPIPER_FLEET_SHARD_CAPACITY`;
    /// default sized so the target session count just fits).
    pub shard_capacity: usize,
    /// Per-shard pending-queue capacity (`PIDPIPER_FLEET_PENDING`).
    pub pending_capacity: usize,
    /// Per-shard tick cost budget (`PIDPIPER_FLEET_COST_BUDGET`;
    /// `None` = capacity-limited only).
    pub cost_budget: Option<u64>,
    /// Model weight seed (scheduling does not depend on the values).
    pub seed: u64,
    /// Recovery strategy every session runs (`PIDPIPER_FLEET_STRATEGY`:
    /// `algorithm1` | `spec-compliance` | `diagnosis-guided`, plus the
    /// `spec` / `diagnosis` short aliases; unknown values fall back to
    /// the Algorithm 1 default).
    pub strategy: StrategyKind,
    /// Inference batching mode of the timed fleet (batched by default;
    /// the gate also runs the other mode).
    pub batch: FleetBatch,
}

impl Default for FleetBenchConfig {
    fn default() -> Self {
        let sessions = 100_000;
        let shards = 64;
        FleetBenchConfig {
            sessions,
            ticks: 25,
            warmup: 2,
            shards,
            workers: configured_jobs(),
            shard_capacity: sessions.div_ceil(shards),
            pending_capacity: 4,
            cost_budget: None,
            seed: 2021,
            strategy: StrategyKind::Algorithm1,
            batch: FleetBatch::default(),
        }
    }
}

fn parse_usize(raw: Option<String>, default: usize) -> usize {
    raw.and_then(|v| v.parse::<usize>().ok())
        .map_or(default, |n| n.max(1))
}

impl FleetBenchConfig {
    /// Reads every `PIDPIPER_FLEET_*` knob (and `PIDPIPER_JOBS`) from the
    /// environment, falling back to the defaults above.
    pub fn from_env() -> Self {
        let mut cfg = FleetBenchConfig::default();
        cfg.sessions = parse_usize(std::env::var("PIDPIPER_FLEET_SESSIONS").ok(), cfg.sessions);
        cfg.ticks = parse_usize(std::env::var("PIDPIPER_FLEET_TICKS").ok(), cfg.ticks);
        cfg.shards = parse_usize(std::env::var("PIDPIPER_FLEET_SHARDS").ok(), cfg.shards);
        cfg.shard_capacity = parse_usize(
            std::env::var("PIDPIPER_FLEET_SHARD_CAPACITY").ok(),
            cfg.sessions.div_ceil(cfg.shards),
        );
        cfg.pending_capacity = parse_usize(
            std::env::var("PIDPIPER_FLEET_PENDING").ok(),
            cfg.pending_capacity,
        );
        cfg.cost_budget = std::env::var("PIDPIPER_FLEET_COST_BUDGET")
            .ok()
            .and_then(|v| v.parse::<u64>().ok());
        cfg.strategy = std::env::var("PIDPIPER_FLEET_STRATEGY")
            .ok()
            .and_then(|v| StrategyKind::parse(&v))
            .unwrap_or(cfg.strategy);
        cfg.workers = configured_jobs();
        cfg
    }

    fn fleet_config(&self, workers: usize) -> FleetConfig {
        let mut config = FleetConfig {
            shards: self.shards,
            workers,
            shard_capacity: self.shard_capacity,
            pending_capacity: self.pending_capacity,
            shard_cost_budget: self.cost_budget.unwrap_or(u64::MAX),
            batch: self.batch,
            ..FleetConfig::default()
        };
        config.session.strategy = self.strategy;
        config
    }
}

/// The determinism-gate verdict carried in the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeterminismGate {
    /// Sessions in the reduced gate fleet.
    pub gate_sessions: usize,
    /// Fleet ticks the gate ran.
    pub gate_ticks: usize,
    /// Whether 1-worker and multi-worker fleets produced bit-identical
    /// per-session fingerprints.
    pub worker_invariant: bool,
    /// Whether a different shard count also left every per-session
    /// fingerprint unchanged.
    pub shard_invariant: bool,
    /// Whether switching between batched and per-session inference left
    /// every per-session fingerprint unchanged (the PR-10 `to_bits`
    /// equality contract, enforced at fleet scale).
    pub batch_invariant: bool,
}

impl DeterminismGate {
    /// All three invariances hold.
    pub fn passed(&self) -> bool {
        self.worker_invariant && self.shard_invariant && self.batch_invariant
    }
}

/// One wall-clock-timed fleet row at a fixed worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRun {
    /// Worker threads this row ran with.
    pub workers: usize,
    /// Sustained session-ticks per second over the timed run.
    pub session_ticks_per_sec: f64,
    /// Mean fleet-tick latency (ms).
    pub tick_ms_mean: f64,
    /// 99th-percentile fleet-tick latency (ms).
    pub tick_ms_p99: f64,
}

/// Measured results of one fleet bench run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBenchReport {
    /// The configuration measured.
    pub cfg: FleetBenchConfig,
    /// Sessions resident when the timed run started.
    pub resident_sessions: usize,
    /// Sustained session-ticks per second over the multi-worker row.
    pub session_ticks_per_sec: f64,
    /// Mean fleet-tick latency over the multi-worker row (ms).
    pub tick_ms_mean: f64,
    /// 99th-percentile fleet-tick latency over the multi-worker row (ms).
    pub tick_ms_p99: f64,
    /// Every timed row: a 1-worker determinism-anchor row, then the
    /// multi-worker throughput row (`workers` from `PIDPIPER_JOBS`).
    /// When the configured worker count is 1 the rows coincide and only
    /// one is emitted.
    pub runs: Vec<TimedRun>,
    /// Measured marginal bytes per resident session.
    pub bytes_per_session: usize,
    /// Deterministic cost units of one session tick.
    pub session_cost: u64,
    /// Admission counters: submitted / admitted / queued / rejected /
    /// admitted-from-queue / quarantined.
    pub admission: [u64; 6],
    /// Health counters at the end of the run: in recovery, degraded,
    /// monitor-tripped session ticks during the last fleet tick.
    pub health: [u64; 3],
    /// The determinism-gate verdict.
    pub gate: DeterminismGate,
}

/// Builds the deterministic bench session mix: every 16th session runs
/// an intermittent fault schedule (phase-shifted per session), every
/// 1024th carries a tight PR-4 step budget so it quarantines mid-run and
/// frees capacity for queued sessions.
fn bench_spec(id: u64, run_ticks: usize, dt: f64) -> SessionSpec {
    let mut spec = SessionSpec::new(id, id.wrapping_mul(0x9E37_79B9) ^ 0xF1_EE7_u64);
    if id.is_multiple_of(16) {
        // Activation must land inside even a short (25-tick, 0.25 s) run:
        // start early, phase-shift by at most 12 ticks.
        let template = FaultSchedule::Intermittent {
            start: 0.03,
            on: 1.0,
            off: 4.0,
        };
        spec = spec.with_fault(template.shifted(0.01 * (id % 13) as f64));
    }
    if id.is_multiple_of(1024) {
        let budget = ((run_ticks as u64 * 2) / 3).max(1);
        // Alternate the two typed budget errors so both retirement paths
        // (StepBudgetExhausted, DeadlineExceeded) run at fleet scale.
        spec = if id.is_multiple_of(2048) {
            spec.with_budget(MissionBudget::default().with_deadline(budget as f64 * dt))
        } else {
            spec.with_budget(MissionBudget::default().with_step_budget(budget))
        };
    }
    spec
}

/// Runs the reduced determinism gate: the same session mix under
/// (1 worker), (several workers), (different shard count) and (the
/// opposite batching mode) must yield bit-identical per-session
/// fingerprints, including retirement timing. Each fleet is dropped once
/// its fingerprints are taken, so one gate engine is alive at a time.
pub fn run_gate(cfg: &FleetBenchConfig) -> DeterminismGate {
    let gate_sessions = cfg.sessions.min(512);
    let gate_ticks = cfg.ticks.clamp(5, 30);
    let dt = 0.01;
    let build = |shards: usize, workers: usize, batch: FleetBatch| {
        let mut engine = FleetEngine::with_synthetic_model(
            FleetConfig {
                shards,
                workers,
                shard_capacity: gate_sessions,
                pending_capacity: gate_sessions,
                shard_cost_budget: u64::MAX,
                batch,
                ..FleetConfig::default()
            },
            cfg.seed,
        );
        for id in 0..gate_sessions as u64 {
            // Capacity covers every submission; drop the infallible result.
            let _ = engine.submit(bench_spec(id, gate_ticks, dt));
        }
        engine.run_ticks(gate_ticks);
        engine.session_fingerprints()
    };
    // The batch leg always runs the *opposite* mode of the timed fleet,
    // so batched == per-session is asserted whichever mode the knob picks.
    let other = match cfg.batch {
        FleetBatch::Batched => FleetBatch::PerSession,
        FleetBatch::PerSession => FleetBatch::Batched,
    };
    let serial = build(8, 1, cfg.batch);
    let parallel = build(8, cfg.workers.clamp(2, 8), cfg.batch);
    let resharded = build(5, 2, cfg.batch);
    let rebatched = build(8, 1, other);
    DeterminismGate {
        gate_sessions,
        gate_ticks,
        worker_invariant: serial == parallel,
        shard_invariant: serial == resharded,
        batch_invariant: serial == rebatched,
    }
}

/// Builds, fills (with deliberate overflow), warms up, and wall-clock
/// times one fleet at the given worker count. Returns the timed row plus
/// the finished engine, the last tick's health stats, and the resident
/// session count at the start of the timed loop.
fn timed_run(
    cfg: &FleetBenchConfig,
    workers: usize,
) -> (TimedRun, FleetEngine, crate::shard::ShardTickStats, usize) {
    let mut engine = FleetEngine::with_synthetic_model(cfg.fleet_config(workers), cfg.seed);
    let dt = engine.config().session.dt;
    for id in 0..cfg.sessions as u64 {
        let _ = engine.submit(bench_spec(id, cfg.ticks, dt));
    }
    // Deliberate overflow: enough extra submissions to fill every pending
    // queue and force typed rejections, so backpressure is always
    // exercised and surfaced in the report.
    let overflow = (cfg.shards * cfg.pending_capacity + 128) as u64;
    for id in cfg.sessions as u64..cfg.sessions as u64 + overflow {
        let _ = engine.submit(bench_spec(id, cfg.ticks, dt));
    }
    let resident = engine.resident_sessions();

    engine.run_ticks(cfg.warmup);

    let mut latencies_ms: Vec<f64> = Vec::with_capacity(cfg.ticks);
    let mut last_stats = Default::default();
    let t0 = Instant::now();
    for _ in 0..cfg.ticks {
        let t = Instant::now();
        last_stats = engine.tick();
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let total_s = t0.elapsed().as_secs_f64();

    // Session ticks executed inside the timed loop only (retirements make
    // this a slight overcount; the bench mix retires <0.1% of sessions).
    let timed_session_ticks: u64 = (resident as u64) * cfg.ticks as u64;
    sort_floats(&mut latencies_ms);
    let n = latencies_ms.len().max(1);
    let p99_idx = ((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1;
    let mean = latencies_ms.iter().sum::<f64>() / n as f64;

    let row = TimedRun {
        workers,
        session_ticks_per_sec: timed_session_ticks as f64 / total_s.max(f64::MIN_POSITIVE),
        tick_ms_mean: mean,
        tick_ms_p99: latencies_ms.get(p99_idx).copied().unwrap_or(mean),
    };
    (row, engine, last_stats, resident)
}

/// Runs the full bench: gate, admission exercise, warm-up, and the two
/// timed rows (1 worker, then `cfg.workers`).
pub fn run(cfg: &FleetBenchConfig) -> FleetBenchReport {
    let gate = run_gate(cfg);

    let mut runs = Vec::with_capacity(2);
    if cfg.workers > 1 {
        let (row, _, _, _) = timed_run(cfg, 1);
        runs.push(row);
    }
    let (row, engine, last_stats, resident) = timed_run(cfg, cfg.workers);
    runs.push(row.clone());

    let s = engine.stats();
    FleetBenchReport {
        cfg: cfg.clone(),
        resident_sessions: resident,
        session_ticks_per_sec: row.session_ticks_per_sec,
        tick_ms_mean: row.tick_ms_mean,
        tick_ms_p99: row.tick_ms_p99,
        runs,
        bytes_per_session: engine.bytes_per_session(),
        session_cost: engine.session_cost(),
        admission: [
            s.submitted,
            s.admitted,
            s.queued,
            s.rejected,
            s.admitted_from_queue,
            s.retired,
        ],
        health: [
            last_stats.in_recovery,
            last_stats.degraded,
            last_stats.tripped,
        ],
        gate,
    }
}

impl FleetBenchReport {
    /// Checks every value the report promises: positive sizes, rates and
    /// latencies, the two timed rows, consistent admission counters with
    /// backpressure exercised, and a passed determinism gate.
    ///
    /// # Errors
    ///
    /// Describes the first violated property.
    pub fn check(&self) -> Result<(), String> {
        let c = &self.cfg;
        json::require_nonzero(&[
            ("sessions", c.sessions),
            ("ticks", c.ticks),
            ("shards", c.shards),
            ("workers", c.workers),
            ("shard_capacity", c.shard_capacity),
            ("pending_capacity", c.pending_capacity),
            ("bytes_per_session", self.bytes_per_session),
        ])?;
        json::require_positive(&[
            ("session_ticks_per_sec", self.session_ticks_per_sec),
            ("fleet_tick_ms_mean", self.tick_ms_mean),
            ("fleet_tick_ms_p99", self.tick_ms_p99),
        ])?;
        for r in &self.runs {
            json::require_positive(&[
                ("run session_ticks_per_sec", r.session_ticks_per_sec),
                ("run fleet_tick_ms_mean", r.tick_ms_mean),
                ("run fleet_tick_ms_p99", r.tick_ms_p99),
            ])?;
        }
        let workers: Vec<usize> = self.runs.iter().map(|r| r.workers).collect();
        let want = if c.workers > 1 {
            vec![1, c.workers]
        } else {
            vec![1]
        };
        if workers != want {
            return Err(format!("run workers {workers:?}, expected {want:?}"));
        }
        let [submitted, admitted, queued, rejected, _, _] = self.admission;
        if submitted != admitted + queued + rejected {
            return Err(format!(
                "submitted {submitted} != admitted + queued + rejected"
            ));
        }
        if queued == 0 || rejected == 0 {
            return Err(format!(
                "backpressure not exercised: queued {queued}, rejected {rejected}"
            ));
        }
        if !self.gate.passed() {
            return Err(format!("determinism gate failed: {:?}", self.gate));
        }
        Ok(())
    }
}

/// Renders the report as the `BENCH_fleet.json` document.
pub fn to_json(r: &FleetBenchReport) -> String {
    let runs = r.runs.iter().map(|t| {
        json_object! {
            "workers" => t.workers,
            "session_ticks_per_sec" => Json::fixed(t.session_ticks_per_sec, 1),
            "fleet_tick_ms_mean" => Json::fixed(t.tick_ms_mean, 3),
            "fleet_tick_ms_p99" => Json::fixed(t.tick_ms_p99, 3),
        }
    });
    let (c, g) = (&r.cfg, &r.gate);
    let [submitted, admitted, queued, rejected, from_queue, quarantined] = r.admission;
    let [in_recovery, degraded, tripped] = r.health;
    let doc = json_object! {
        "bench" => "fleet_engine",
        "config" => json_object! {
            "sessions" => c.sessions,
            "ticks" => c.ticks,
            "shards" => c.shards,
            "workers" => c.workers,
            "shard_capacity" => c.shard_capacity,
            "pending_capacity" => c.pending_capacity,
            "cost_budget" => c.cost_budget,
            "seed" => c.seed,
            "strategy" => c.strategy.name(),
            "batch" => c.batch.as_str(),
        },
        "resident_sessions" => r.resident_sessions,
        "session_ticks_per_sec" => Json::fixed(r.session_ticks_per_sec, 1),
        "fleet_tick_ms_mean" => Json::fixed(r.tick_ms_mean, 3),
        "fleet_tick_ms_p99" => Json::fixed(r.tick_ms_p99, 3),
        "runs" => Json::array(runs),
        "bytes_per_session" => r.bytes_per_session,
        "session_cost_units" => r.session_cost,
        "admission" => json_object! {
            "submitted" => submitted,
            "admitted" => admitted,
            "queued" => queued,
            "rejected" => rejected,
            "admitted_from_queue" => from_queue,
            "quarantined" => quarantined,
        },
        "health" => json_object! {
            "in_recovery" => in_recovery,
            "degraded" => degraded,
            "tripped_session_ticks" => tripped,
        },
        "determinism" => json_object! {
            "gate_sessions" => g.gate_sessions,
            "gate_ticks" => g.gate_ticks,
            "worker_invariant" => g.worker_invariant,
            "shard_invariant" => g.shard_invariant,
            "batch_invariant" => g.batch_invariant,
        },
    };
    doc.render()
}

/// Writes `BENCH_fleet.json` to the workspace root, mirrors it into
/// `target/experiments/`, and prints a summary.
///
/// # Errors
///
/// Returns the I/O error of a failed write.
pub fn write_report(r: &FleetBenchReport) -> io::Result<()> {
    json::write_bench_report("BENCH_fleet.json", &to_json(r))?;
    for row in &r.runs {
        println!(
            "exp_fleet[{} worker{}]: {:.0} session-ticks/s, tick p99 {:.2} ms (mean {:.2} ms)",
            row.workers,
            if row.workers == 1 { "" } else { "s" },
            row.session_ticks_per_sec,
            row.tick_ms_p99,
            row.tick_ms_mean,
        );
    }
    println!(
        "exp_fleet: {} sessions ({} inference), {} bytes/session; admission {:?}; \
         determinism gate: {}",
        r.resident_sessions,
        r.cfg.batch.as_str(),
        r.bytes_per_session,
        r.admission,
        if r.gate.passed() { "PASS" } else { "FAIL" },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FleetBenchConfig {
        FleetBenchConfig {
            sessions: 96,
            ticks: 8,
            warmup: 1,
            shards: 4,
            workers: 2,
            shard_capacity: 24,
            pending_capacity: 2,
            cost_budget: None,
            seed: 7,
            strategy: StrategyKind::Algorithm1,
            batch: FleetBatch::Batched,
        }
    }

    #[test]
    fn gate_passes_on_reduced_fleet() {
        let gate = run_gate(&small_cfg());
        assert!(gate.worker_invariant, "worker count changed results");
        assert!(gate.shard_invariant, "shard count changed results");
        assert!(gate.batch_invariant, "batching mode changed results");
        assert!(gate.passed());
    }

    #[test]
    fn report_shape_and_admission_accounting() {
        let cfg = small_cfg();
        let r = run(&cfg);
        assert!(r.bytes_per_session >= 6336, "ring + frozen prefix + partial floor");
        // Two timed rows: the 1-worker anchor and the configured workers.
        assert_eq!(r.runs.len(), 2);
        assert_eq!(r.session_ticks_per_sec, r.runs[1].session_ticks_per_sec);
        assert_eq!(r.check(), Ok(()));
    }

    /// A fixed report whose rendering was captured from the hand-written
    /// template this writer replaced.
    fn fixed_report() -> FleetBenchReport {
        let row = |workers, session_ticks_per_sec, tick_ms_mean, tick_ms_p99| TimedRun {
            workers,
            session_ticks_per_sec,
            tick_ms_mean,
            tick_ms_p99,
        };
        FleetBenchReport {
            cfg: FleetBenchConfig {
                sessions: 2000,
                ticks: 40,
                warmup: 2,
                shards: 16,
                workers: 3,
                shard_capacity: 125,
                pending_capacity: 4,
                cost_budget: None,
                seed: 2021,
                strategy: StrategyKind::SpecCompliance,
                batch: FleetBatch::Batched,
            },
            resident_sessions: 2000,
            session_ticks_per_sec: 311823.456,
            tick_ms_mean: 6.41234,
            tick_ms_p99: 9.87651,
            runs: vec![
                row(1, 150000.04, 13.3335, 15.0004),
                row(3, 311823.456, 6.41234, 9.87651),
            ],
            bytes_per_session: 5111,
            session_cost: 5,
            admission: [2192, 2000, 64, 128, 12, 3],
            health: [17, 2, 40],
            gate: DeterminismGate {
                gate_sessions: 512,
                gate_ticks: 30,
                worker_invariant: true,
                shard_invariant: true,
                batch_invariant: true,
            },
        }
    }

    #[test]
    fn json_matches_the_golden_rendering() {
        let golden = json::minify(include_str!("../tests/golden/BENCH_fleet.json"));
        let mut r = fixed_report();
        assert_eq!(json::minify(&to_json(&r)), golden);
        r.cfg.cost_budget = Some(4096);
        r.cfg.batch = FleetBatch::PerSession;
        let with_budget = golden
            .replace(r#""cost_budget":null"#, r#""cost_budget":4096"#)
            .replace(r#""batch":"batched""#, r#""batch":"per_session""#);
        assert_eq!(json::minify(&to_json(&r)), with_budget);
    }

    #[test]
    fn check_rejects_each_violated_property() {
        assert_eq!(fixed_report().check(), Ok(()));
        type Breaker = fn(&mut FleetBenchReport);
        let cases: [(&str, Breaker); 14] = [
            ("sessions is 0", |r| r.cfg.sessions = 0),
            ("pending_capacity is 0", |r| r.cfg.pending_capacity = 0),
            ("bytes_per_session is 0", |r| r.bytes_per_session = 0),
            ("session_ticks_per_sec", |r| r.session_ticks_per_sec = 0.0),
            ("fleet_tick_ms_p99", |r| r.tick_ms_p99 = f64::NAN),
            ("run fleet_tick_ms_mean", |r| r.runs[0].tick_ms_mean = -1.0),
            ("run workers", |r| r.runs[1].workers = 2),
            ("run workers", |r| r.runs.truncate(1)),
            ("submitted", |r| r.admission[0] += 1),
            ("backpressure", |r| {
                (r.admission[0], r.admission[2]) = (r.admission[0] - 64, 0)
            }),
            ("backpressure", |r| {
                (r.admission[0], r.admission[3]) = (r.admission[0] - 128, 0)
            }),
            ("determinism gate", |r| r.gate.worker_invariant = false),
            ("determinism gate", |r| r.gate.shard_invariant = false),
            ("determinism gate", |r| r.gate.batch_invariant = false),
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
        // One configured worker means one timed row.
        let mut r = fixed_report();
        r.cfg.workers = 1;
        r.runs.truncate(1);
        assert_eq!(r.check(), Ok(()));
    }

    #[test]
    fn single_worker_config_emits_one_row() {
        let mut cfg = small_cfg();
        cfg.workers = 1;
        cfg.sessions = 48;
        cfg.ticks = 6;
        let r = run(&cfg);
        assert_eq!(r.runs.len(), 1);
        assert_eq!(r.runs[0].workers, 1);
    }

    #[test]
    fn env_parsing_clamps_and_defaults() {
        assert_eq!(parse_usize(None, 7), 7);
        assert_eq!(parse_usize(Some("12".to_string()), 7), 12);
        assert_eq!(parse_usize(Some("0".to_string()), 7), 1);
        assert_eq!(parse_usize(Some("nope".to_string()), 7), 7);
    }
}

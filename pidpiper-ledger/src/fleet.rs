//! `fleet_aligned` and `fleet_staggered`: one fleet engine of synthetic
//! sessions ticked in a closed loop, one tick after another, by one worker:
//! the main thread. A request is one fleet tick, and a cycle 100
//! consecutive ticks: twenty ring-push periods, so the same position of
//! every cycle does the same work. The two workloads differ only in when
//! sessions are admitted, and so in whether every session pushes its
//! history ring (and replays its prefix) on the same tick.

use std::hint::black_box;

use pidpiper_faults::FaultSchedule;
use pidpiper_fleet::bench::{run_gate, FleetBenchConfig};
use pidpiper_fleet::{FleetBatch, FleetConfig, FleetEngine, SessionParams, SessionSpec};
use pidpiper_missions::StrategyKind;
use pidpiper_ml::BatchedStreamingRegressor;

use crate::alloc;
use crate::clock::{cpu_ns, now_ns, secs_since};
use crate::run::{digest, mix, pct, rate, Outcome, RunConfig, CHECK_WORKERS, WORKERS};
use crate::stats::{fastest_cycle, median, percentile, Repetition, CYCLE};

/// Lanes per batched kernel call, as the shards use them.
const LANES: usize = 64;

/// Workload sizes. The command line always runs [`Size::FULL`]; tests
/// shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Sessions admitted.
    pub sessions: usize,
    /// Shards (sessions pin to `id % shards`).
    pub shards: usize,
    /// Ticks from tick 0 before the timed phase, the set-up's included:
    /// long enough to fill every ring.
    pub warmup: usize,
    /// Set-up repetitions (`setup_s` is their median); the run warms up
    /// and ticks the engine of the last.
    pub setups: usize,
    /// Ticks of the empty engine timed for the fan-out cost.
    pub fanout_ticks: usize,
    /// Wall-clock milliseconds over which the batched kernels are timed;
    /// the fastest call of each is kept.
    pub kernel_ms: u64,
}

impl Size {
    /// The benchmark's size: 1,024 sessions in 4 shards of 256, four
    /// 64-lane batches per shard. About 5.7 MB of session state: past the
    /// 2 MB of a core's L2 cache, inside the shared L3. A tick lasts a few
    /// milliseconds, so 100 ticks span well under a second.
    pub const FULL: Size = Size {
        sessions: 1024,
        shards: 4,
        warmup: 100,
        setups: 15,
        fanout_ticks: 200,
        kernel_ms: 2000,
    };

    fn config(&self) -> FleetConfig {
        FleetConfig {
            shards: self.shards,
            workers: WORKERS,
            shard_capacity: self.sessions.div_ceil(self.shards),
            pending_capacity: 0,
            shard_cost_budget: u64::MAX,
            session: SessionParams::default(),
            batch: FleetBatch::Batched,
        }
    }
}

/// Session `id`: a pure function of the seed. Every 16th session carries
/// the fleet bench's intermittent fault (1 s on, 4 s off), its phase spread
/// over the 5 s period in 0.1 s steps, so that every repetition of 100
/// ticks sees the same share of active faults.
pub fn session(seed: u64, id: u64) -> SessionSpec {
    let spec = SessionSpec::new(id, mix(seed, &[6, id]));
    if id.is_multiple_of(16) {
        let template = FaultSchedule::Intermittent {
            start: 0.03,
            on: 1.0,
            off: 4.0,
        };
        spec.with_fault(template.shifted(0.1 * ((id / 16) % 50) as f64))
    } else {
        spec
    }
}

/// Admission waves: session `id` is admitted before tick `id % waves`.
fn wave_count(staggered: bool) -> u64 {
    if staggered {
        5
    } else {
        1
    }
}

/// The sessions of every admission wave, in submission order: a pure
/// function of the seed.
fn waves(seed: u64, size: &Size, staggered: bool) -> Vec<Vec<SessionSpec>> {
    let n = wave_count(staggered);
    let mut waves: Vec<Vec<SessionSpec>> = (0..n).map(|_| Vec::new()).collect();
    for id in 0..size.sessions as u64 {
        waves[(id % n) as usize].push(session(seed, id));
    }
    waves
}

/// Weight seed of the synthetic model, the fleet bench's default. The
/// model is the program every session runs, so it is the same for every
/// workload seed, as the grid's defenses are; the seed varies the sessions.
const MODEL_SEED: u64 = 2021;

/// The set-up a user pays before the fleet serves every session: build
/// the engine, then submit each wave and run the tick it was admitted for.
/// Filling the rings takes ordinary ticks, which the timed phase measures,
/// so the set-up stops short of them. Returns the engine, the set-up's CPU
/// time and the part of it spent in `submit`, in seconds.
fn admitted_engine(waves: Vec<Vec<SessionSpec>>, size: &Size) -> (FleetEngine, f64, f64) {
    let t0 = cpu_ns();
    let mut engine = FleetEngine::with_synthetic_model(size.config(), MODEL_SEED);
    let mut submit_ns = 0;
    for wave in waves {
        let s0 = cpu_ns();
        for spec in wave {
            // A refusal is counted from the engine's stats afterwards.
            let _ = engine.submit(spec);
        }
        submit_ns += cpu_ns() - s0;
        engine.tick();
    }
    let total = (cpu_ns() - t0) as f64 * 1e-9;
    (engine, total, submit_ns as f64 * 1e-9)
}

/// Whether any session pushes its ring (and replays its prefix) on
/// engine tick `k`: a session admitted before tick `a` pushes on its
/// 5th, 10th, … tick.
fn push_tick(k: u64, staggered: bool, decimate: u64) -> bool {
    (0..wave_count(staggered)).any(|a| k >= a && (k - a + 1).is_multiple_of(decimate))
}

struct Phase {
    /// The fastest cycle of 100 ticks.
    fastest: Option<Repetition>,
    session_ticks: u64,
    first_tick: u64,
    /// CPU time of every tick (ms).
    latencies_ms: Vec<f64>,
    /// `(start, end)` of every tick on the wall clock (ns).
    spans: Vec<(u64, u64)>,
    tripped: u64,
    in_recovery: u64,
    allocs: u64,
}

fn tick_phase(engine: &mut FleetEngine, cfg: &RunConfig) -> Phase {
    let first_tick = engine.ticks();
    let mut spans = Vec::with_capacity(2048);
    let mut requests = Vec::with_capacity(2048);
    let (mut session_ticks, mut tripped, mut in_recovery) = (0, 0, 0);
    let allocs0 = alloc::total();
    let start = now_ns();
    while spans.len() < CYCLE || secs_since(start) < cfg.seconds {
        let t0 = now_ns();
        let c0 = cpu_ns();
        let stats = engine.tick();
        let c1 = cpu_ns();
        spans.push((t0, now_ns()));
        requests.push(((c1 - c0) as f64 * 1e-6, stats.session_ticks as f64));
        session_ticks += stats.session_ticks;
        tripped += stats.tripped;
        in_recovery += stats.in_recovery;
    }
    Phase {
        fastest: fastest_cycle(&requests),
        session_ticks,
        first_tick,
        latencies_ms: requests.iter().map(|r| r.0).collect(),
        spans,
        tripped,
        in_recovery,
        allocs: alloc::total() - allocs0,
    }
}

/// Nanoseconds of the fastest call of each batched kernel at 64 lanes on
/// `engine`'s model, `(step_batch, finish_batch)`, called in turn for
/// `size.kernel_ms`: like the fastest cycle of ticks it is set against,
/// the instance outside load spared, picked from a span long enough to
/// hold calm moments.
fn kernel_ns(engine: &FleetEngine, size: &Size) -> (f64, f64) {
    let batched = BatchedStreamingRegressor::compile(engine.model());
    let dim = engine.model().config().input_dim;
    let mut scratch = batched.scratch(LANES);
    scratch.reset_states();
    let mut row = vec![0.0; dim];
    for lane in 0..LANES {
        for (j, v) in row.iter_mut().enumerate() {
            *v = (0.37 * (lane * dim + j) as f64).sin();
        }
        scratch.load_row(lane, &row);
    }
    let (mut step, mut finish) = (u64::MAX, u64::MAX);
    let start = now_ns();
    while step == u64::MAX || secs_since(start) * 1e3 < size.kernel_ms as f64 {
        let t0 = now_ns();
        batched.step_batch(&mut scratch, LANES);
        let t1 = now_ns();
        batched.finish_batch(&mut scratch, LANES);
        let t2 = now_ns();
        step = step.min(t1 - t0);
        finish = finish.min(t2 - t1);
    }
    black_box(&scratch);
    (step as f64, finish as f64)
}

/// Runs the workload at `size`; `staggered` admits the sessions in five
/// waves on ticks 0–4 instead of all before tick 0.
///
/// # Errors
///
/// Fails, before any timing, when the engine's determinism gate fails.
pub fn run(cfg: &RunConfig, size: &Size, staggered: bool) -> Result<Outcome, String> {
    gate(size)?;
    let mut out = Outcome::new(cfg.trace);

    let mut setup_s = Vec::with_capacity(size.setups);
    let mut admit_share = Vec::with_capacity(size.setups);
    let mut set_up = || {
        let (engine, total, submit) = admitted_engine(waves(cfg.seed, size, staggered), size);
        setup_s.push(total);
        admit_share.push(pct(submit, total));
        engine
    };
    // The run ticks the last set-up's engine; each earlier one is dropped
    // before the next is built.
    let mut engine = set_up();
    for _ in 1..size.setups {
        drop(engine);
        engine = set_up();
    }
    out.e2e.set("setup_s", median(&setup_s));
    // Untimed: ordinary ticks fill every ring before the timed phase.
    while engine.ticks() < size.warmup as u64 {
        engine.tick();
    }
    out.attempted = engine.stats().submitted;
    if engine.resident_sessions() != size.sessions {
        out.problems.push(format!(
            "{} of {} sessions resident after warm-up",
            engine.resident_sessions(),
            size.sessions
        ));
    }
    out.digest = digest(
        engine
            .session_fingerprints()
            .into_iter()
            .flat_map(|(id, fp)| [id, fp]),
    );

    let mut phase = tick_phase(&mut engine, cfg);
    let ops_per_s = out.set_timings(phase.fastest);
    let ticks = phase.spans.len();
    let mut latencies = phase.latencies_ms.clone();
    out.note("ticks", ticks as f64, "count");
    out.note("sessions", engine.resident_sessions() as f64, "count");
    if let Ok(p99) = percentile(&mut latencies, 99.0) {
        out.note("tick_ms_p99", p99, "ms");
    }
    let s = *engine.stats();
    out.failed = s.rejected + s.retired + s.join_failures;

    if cfg.trace {
        let decimate = engine.config().session.decimate as u64;
        alloc::set_counting(true);
        phase = tick_phase(&mut engine, cfg);
        alloc::set_counting(false);
        let traced_ops = rate(phase.fastest);
        let n = phase.spans.len().max(1) as f64;
        let (mut push_ms, mut push_n, mut plain_ms) = (0.0, 0usize, 0.0);
        for (k, &ms) in phase.latencies_ms.iter().enumerate() {
            if push_tick(phase.first_tick + k as u64, staggered, decimate) {
                push_ms += ms;
                push_n += 1;
            } else {
                plain_ms += ms;
            }
        }
        let total_ms = push_ms + plain_ms;
        let plain_n = phase.spans.len() - push_n;
        out.layer("fleet.push_tick_pct", pct(push_n as f64, n));
        out.layer("fleet.push_time_pct", pct(push_ms, total_ms));
        if push_n > 0 && plain_n > 0 {
            out.layer(
                "fleet.push_over_plain",
                (push_ms / push_n as f64) / (plain_ms / plain_n as f64),
            );
            out.note("plain_tick_ms", plain_ms / plain_n as f64, "ms");
            out.note("push_tick_ms", push_ms / push_n as f64, "ms");
        } else {
            out.layer("fleet.push_over_plain", 0.0);
        }

        // Busy worker time per tick: every worker for the tick's length.
        let mean_tick_ns = total_ms * 1e6 / n;
        let busy_ns = WORKERS as f64 * mean_tick_ns;
        let (step_ns, finish_ns) = kernel_ns(&engine, size);
        let rows = (engine.model().config().window - 1) as f64;
        let sessions = engine.resident_sessions() as f64;
        // The kernels' fastest calls are set against the ticks of the
        // fastest cycle, in which every resident session ticks once a tick.
        let kernel_busy_ns = if traced_ops > 0.0 {
            WORKERS as f64 * sessions / traced_ops * 1e9
        } else {
            busy_ns
        };
        // Per tick every session steps one lane and finishes one lane; a
        // pushing session also replays its full ring, one lane per row.
        let pushes_per_tick = if staggered {
            sessions / 5.0
        } else {
            sessions * push_n as f64 / n
        };
        let step_lanes = sessions + pushes_per_tick * rows;
        let step_part = step_ns / LANES as f64 * step_lanes;
        let finish_part = finish_ns / LANES as f64 * sessions;
        out.layer("ml.batch_step_pct", pct(step_part, kernel_busy_ns));
        out.layer("ml.batch_finish_pct", pct(finish_part, kernel_busy_ns));
        out.layer("ml.share_pct", pct(step_part + finish_part, kernel_busy_ns));
        out.layer(
            "fleet.share_pct",
            100.0 - pct(step_part + finish_part, kernel_busy_ns),
        );

        let mut empty = FleetEngine::with_synthetic_model(size.config(), MODEL_SEED);
        let t0 = now_ns();
        empty.run_ticks(size.fanout_ticks);
        let fanout_ns = (now_ns() - t0) as f64 / size.fanout_ticks.max(1) as f64;
        out.layer("fleet.fanout_pct", pct(fanout_ns, mean_tick_ns));
        out.layer("fleet.admit_setup_pct", median(&admit_share));
        out.layer("fleet.allocs_per_tick", phase.allocs as f64 / n);
        out.layer("fleet.bytes_per_session", engine.bytes_per_session() as f64);
        let st = phase.session_ticks.max(1) as f64;
        out.layer("fleet.tripped_pct", pct(phase.tripped as f64, st));
        out.layer("fleet.in_recovery_pct", pct(phase.in_recovery as f64, st));
        out.layer("trace.overhead_pct", pct(ops_per_s - traced_ops, ops_per_s));
        out.layer("trace.op_ns", busy_ns / (phase.session_ticks as f64 / n));
        out.layer("trace.allocs_per_op", phase.allocs as f64 / st);
        for (k, &(start, end)) in phase.spans.iter().enumerate() {
            let push = push_tick(phase.first_tick + k as u64, staggered, decimate);
            out.spans
                .push(0, if push { "push_tick" } else { "tick" }, start, end);
        }
    }
    Ok(out)
}

/// The engine's own determinism gate: worker, shard and batch invariance
/// on a reduced fleet.
fn gate(size: &Size) -> Result<(), String> {
    let cfg = FleetBenchConfig {
        sessions: size.sessions,
        ticks: 30,
        warmup: 2,
        shards: size.shards,
        workers: CHECK_WORKERS,
        shard_capacity: size.sessions.div_ceil(size.shards),
        pending_capacity: 0,
        cost_budget: None,
        seed: MODEL_SEED,
        strategy: StrategyKind::Algorithm1,
        batch: FleetBatch::Batched,
    };
    let g = run_gate(&cfg);
    if g.passed() {
        Ok(())
    } else {
        Err(format!("fleet determinism gate failed: {g:?}"))
    }
}

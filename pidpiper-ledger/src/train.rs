//! `train_pipeline`: the offline pipeline that turns traces into a
//! deployable defense. Set-up flies the ArduCopter Table-I missions
//! undefended and cuts their traces into equal segments (the trace
//! library); each request is one `Trainer::train` (dataset extraction,
//! LSTM training, threshold calibration, assembly) over a group of
//! segments. One client, the main thread, issues requests back to back
//! until the run length is spent. Every request does the same work; the
//! timings take each position of a 100-request cycle at its fastest, and
//! requests are short so that a run holds several cycles.

use pidpiper_core::{AxisThresholds, FfcModel, PidPiper, PidPiperConfig, Trainer, TrainerConfig};
use pidpiper_missions::{MissionPlan, MissionRunner, MissionSpec, NoDefense, RunnerConfig, Trace};
use pidpiper_ml::{fnv64, LstmRegressor};
use pidpiper_sim::RvId;

use crate::alloc;
use crate::clock::{cpu_ns, now_ns, secs_since};
use crate::grid::TABLE1_PLAN_SEED;
use crate::run::{digest, mix, pct, rate, Outcome, RunConfig, WORKERS};
use crate::stats::{fastest_cycle, median, Repetition, Request, SpanLog, CYCLE};

const RV: RvId = RvId::ArduCopter;

/// Workload sizes. The command line always runs [`Size::FULL`]; tests
/// shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Table-I mission sets in the library (30 missions each).
    pub library_sets: usize,
    /// Geometry scale of the Table-I library missions.
    pub scale: f64,
    /// Control steps per library segment; every segment has exactly this
    /// many, so every request does the same work.
    pub segment_steps: usize,
    /// Segments per request (the trainer's 80/20 split of 2 is 1 to train,
    /// 1 to calibrate).
    pub group: usize,
    /// Training stages `(epochs, learning rate)`.
    pub stages: [(usize, f64); 3],
    /// Train the tiny test network instead of the deployed one.
    pub tiny_network: bool,
    /// Set-up repetitions (`setup_s` is their median).
    pub setups: usize,
    /// Requests always completed; their deployments form the digest.
    pub digest_requests: usize,
}

impl Size {
    /// The benchmark's size.
    pub const FULL: Size = Size {
        library_sets: 1,
        scale: 0.5,
        // A request of about 13 ms: a 20 s run holds about 15 instances
        // of each cycle position, so a burst of outside load rarely spares
        // none of them.
        segment_steps: 250,
        group: 2,
        stages: [(1, 0.01), (0, 0.0), (0, 0.0)],
        tiny_network: false,
        setups: 15,
        digest_requests: 4,
    };

    /// The trainer configuration of request `r`.
    fn trainer(&self, seed: u64, r: usize) -> TrainerConfig {
        let base = if self.tiny_network {
            TrainerConfig::tiny()
        } else {
            TrainerConfig::default()
        };
        TrainerConfig {
            stages: self.stages,
            seed: mix(seed, &[5, r as u64]) % 1_000_000,
            ..base
        }
    }
}

/// The library missions: fixed ArduCopter Table-I plan sets flown under
/// seed-derived sensor noise, a pure function of the seed.
pub fn library_specs(seed: u64, size: &Size) -> Vec<MissionSpec> {
    (0..size.library_sets as u64)
        .flat_map(|set| MissionPlan::table1_missions(RV, TABLE1_PLAN_SEED + set, size.scale))
        .enumerate()
        .map(|(i, plan)| {
            MissionSpec::clean(
                RunnerConfig::for_rv(RV).with_seed(mix(seed, &[4, i as u64])),
                plan,
            )
        })
        .collect()
}

/// Flies the library, cuts every trace into whole segments of
/// `segment_steps` records, and orders the segments into request groups:
/// group `g` holds segments `g, g + G, …` of the library order, so a group
/// mixes flight phases and path families. Missions fly one at a time and
/// each trace is cut as it lands, so set-up never holds more than one
/// whole trace next to the segments.
fn collect_library(seed: u64, size: &Size) -> Vec<Trace> {
    let mut traces: Vec<Option<Trace>> = Vec::new();
    for spec in library_specs(seed, size) {
        let flown = MissionRunner::par_run_missions_with_jobs(WORKERS, &[spec], |_| {
            Box::new(NoDefense::new())
        });
        for r in &flown {
            traces.extend(
                r.trace
                    .records()
                    .chunks_exact(size.segment_steps)
                    .map(|records| {
                        let mut t = Trace::new();
                        for r in records {
                            t.push(r.clone());
                        }
                        Some(t)
                    }),
            );
        }
    }
    let groups = traces.len() / size.group;
    let mut ordered = Vec::with_capacity(groups * size.group);
    for g in 0..groups {
        for k in 0..size.group {
            if let Some(t) = traces[g + k * groups].take() {
                ordered.push(t);
            }
        }
    }
    ordered
}

fn thresholds_ok(t: &AxisThresholds) -> bool {
    let axes = [t.roll, t.pitch, t.yaw, t.thrust];
    axes.iter().any(Option::is_some) && axes.iter().flatten().all(|v| v.is_finite() && *v > 0.0)
}

/// One finished request.
struct Done {
    /// CPU time of the request (ns).
    cpu_ns: u64,
    /// Wall-clock time of the request (ns), which the stage times add up to.
    wall_ns: u64,
    samples: u64,
    ok: bool,
    /// FNV of the deployment text, for digest requests.
    text_digest: Option<u64>,
    /// Per-stage busy time of a traced request (ns).
    stages: StageTimes,
}

#[derive(Default, Clone, Copy)]
struct StageTimes {
    dataset: u64,
    normalize: u64,
    train: u64,
    calibrate: u64,
    train_allocs: u64,
}

/// `Trainer::train`, decomposed into the public calls it makes, each
/// timed, with its spans recorded under `parent`.
fn traced_train(
    cfg: TrainerConfig,
    traces: &[Trace],
    spans: &mut SpanLog,
    parent: u64,
) -> (PidPiper, f64, u64, StageTimes) {
    let trainer = Trainer::new(cfg);
    let mut t = StageTimes::default();
    let n_train =
        (((traces.len() as f64) * cfg.train_fraction).round() as usize).clamp(1, traces.len() - 1);

    let t0 = now_ns();
    let ds = trainer.ffc_dataset(&traces[..n_train]);
    let t1 = now_ns();
    spans.push(parent, "dataset", t0, t1);
    let mut regressor = LstmRegressor::new(cfg.ffc_network(), cfg.seed);
    regressor.fit_normalizers(&ds);
    let t2 = now_ns();
    spans.push(parent, "normalize", t1, t2);
    t.dataset = t1 - t0;
    t.normalize = t2 - t1;

    let mut final_mse = f64::NAN;
    let mut samples = 0u64;
    for (i, &(epochs, lr)) in cfg.stages.iter().enumerate() {
        if epochs == 0 {
            continue;
        }
        let stage_ds = ds.clone();
        let a0 = alloc::local();
        let s0 = now_ns();
        let report = regressor.train(&stage_ds, epochs, lr, cfg.seed + i as u64);
        let s1 = now_ns();
        t.train_allocs += alloc::local() - a0;
        t.train += s1 - s0;
        spans.push(parent, "train_stage", s0, s1);
        final_mse = report.final_mse;
        samples += (report.samples * epochs) as u64;
    }

    let c0 = now_ns();
    let ffc = FfcModel::new(regressor, cfg.feature_set, cfg.pipeline);
    let (lag_history, drifts, thresholds) = trainer.calibrate(&ffc, traces, false);
    let c1 = now_ns();
    spans.push(parent, "calibrate", c0, c1);
    t.calibrate = c1 - c0;
    let pidpiper = PidPiper::new(
        ffc,
        PidPiperConfig::new(thresholds, drifts, cfg.exit_hold_steps, lag_history),
    );
    (pidpiper, final_mse, samples, t)
}

/// Runs one request.
fn request(
    cfg: &RunConfig,
    size: &Size,
    library: &[Trace],
    r: usize,
    trace: bool,
    spans: &mut SpanLog,
) -> Done {
    let groups = (library.len() / size.group).max(1);
    let g = r % groups;
    let traces = &library[g * size.group..(g + 1) * size.group];
    let tc = size.trainer(cfg.seed, r);
    let cpu = cpu_ns();
    let start = now_ns();
    let (pidpiper, mse, samples, stages) = if trace {
        let span = spans.open(0, "request", start);
        let res = traced_train(tc, traces, spans, span);
        spans.close(span, now_ns());
        res
    } else {
        let trained = Trainer::new(tc).train(traces, false);
        let epochs: usize = tc.stages.iter().map(|s| s.0).sum();
        let samples = (trained.report.samples * epochs) as u64;
        (
            trained.pidpiper,
            trained.report.final_mse,
            samples,
            StageTimes::default(),
        )
    };
    let wall_ns = now_ns() - start;
    Done {
        cpu_ns: cpu_ns() - cpu,
        wall_ns,
        samples,
        ok: mse.is_finite() && thresholds_ok(&pidpiper.config().thresholds),
        text_digest: (r < size.digest_requests).then(|| fnv64(pidpiper.to_text().as_bytes())),
        stages,
    }
}

struct Phase {
    /// The fastest cycle of 100 requests.
    fastest: Option<Repetition>,
    /// Every request, by index.
    done: Vec<Done>,
    spans: SpanLog,
    allocs: u64,
}

/// The client issues requests back to back until the run length is spent.
fn run_phase(cfg: &RunConfig, size: &Size, library: &[Trace], trace: bool) -> Phase {
    let mut spans = SpanLog::default();
    let allocs0 = alloc::total();
    let start = now_ns();
    let mut done = Vec::new();
    while done.len() < CYCLE || secs_since(start) < cfg.seconds {
        done.push(request(cfg, size, library, done.len(), trace, &mut spans));
    }
    let requests: Vec<Request> = done
        .iter()
        .map(|d| (d.cpu_ns as f64 * 1e-6, d.samples as f64))
        .collect();
    Phase {
        fastest: fastest_cycle(&requests),
        done,
        spans,
        allocs: alloc::total() - allocs0,
    }
}

/// The deployment-text hashes of the digest requests, in request order.
fn deployment_texts(done: &[Done]) -> Vec<u64> {
    done.iter().filter_map(|d| d.text_digest).collect()
}

/// Runs the workload at `size`.
///
/// # Errors
///
/// Fails, before any timing, when the gate request trains a non-finite
/// loss or a non-positive threshold.
pub fn run(cfg: &RunConfig, size: &Size) -> Result<Outcome, String> {
    let mut out = Outcome::new(cfg.trace);

    let mut setup_s = Vec::with_capacity(size.setups);
    let mut library = Vec::new();
    let mut prints: Option<Vec<u64>> = None;
    for _ in 0..size.setups.max(1) {
        library.clear();
        let t0 = cpu_ns();
        library = collect_library(cfg.seed, size);
        setup_s.push((cpu_ns() - t0) as f64 * 1e-9);
        let p: Vec<u64> = library.iter().map(Trace::fingerprint).collect();
        if prints.as_ref().is_some_and(|prev| *prev != p) {
            out.problems
                .push("set-up repetitions flew different libraries".into());
        }
        prints = Some(p);
    }
    out.e2e.set("setup_s", median(&setup_s));
    if library.len() < size.group.max(2) {
        return Err(format!("the library holds only {} traces", library.len()));
    }
    // The gate: request 0, untimed. A request's result depends only on its
    // index, so the timed run must reproduce it.
    let gate = request(cfg, size, &library, 0, false, &mut SpanLog::default());
    if !gate.ok {
        return Err("the gate request trained a non-finite loss or threshold".into());
    }

    let phase = run_phase(cfg, size, &library, false);
    let samples: u64 = phase.done.iter().map(|d| d.samples).sum();
    out.attempted = phase.done.len() as u64;
    out.failed = phase.done.iter().filter(|d| !d.ok).count() as u64;
    let texts = deployment_texts(&phase.done);
    out.digest = digest(texts.iter().copied());
    let ops_per_s = out.set_timings(phase.fastest);
    out.note("requests", phase.done.len() as f64, "count");
    out.note("trained_samples", samples as f64, "count");
    out.note("library_traces", library.len() as f64, "count");

    if gate.text_digest != texts.first().copied() {
        out.problems
            .push("request 0 differs between the gate and the timed client".into());
    }

    if cfg.trace {
        alloc::set_counting(true);
        let traced = run_phase(cfg, size, &library, true);
        alloc::set_counting(false);
        if deployment_texts(&traced.done) != texts {
            out.problems
                .push("the traced decomposition trained different deployments".into());
        }
        let busy: u64 = traced.done.iter().map(|d| d.wall_ns).sum();
        let tsamples: u64 = traced.done.iter().map(|d| d.samples).sum::<u64>().max(1);
        let sum = |f: fn(&StageTimes) -> u64| {
            traced.done.iter().map(|d| f(&d.stages)).sum::<u64>() as f64
        };
        let (dataset, normalize, train, calibrate) = (
            sum(|s| s.dataset),
            sum(|s| s.normalize),
            sum(|s| s.train),
            sum(|s| s.calibrate),
        );
        let busy = busy as f64;
        let traced_ops = rate(traced.fastest);
        out.layer("trace.overhead_pct", pct(ops_per_s - traced_ops, ops_per_s));
        out.layer("trace.op_ns", busy / tsamples as f64);
        out.layer(
            "trace.allocs_per_op",
            traced.allocs as f64 / tsamples as f64,
        );
        out.layer("ml.share_pct", pct(normalize + train, busy));
        out.layer("core.share_pct", pct(busy - normalize - train, busy));
        out.layer("core.dataset_pct", pct(dataset, busy));
        out.layer("core.calibrate_pct", pct(calibrate, busy));
        out.layer("ml.normalize_pct", pct(normalize, busy));
        out.layer(
            "ml.train_allocs_per_sample",
            sum(|s| s.train_allocs) / tsamples as f64,
        );
        out.note("traced_requests", traced.done.len() as f64, "count");
        out.spans = traced.spans;
    }
    Ok(out)
}

//! `pidpiper-ledger`: the repository's benchmark.
//!
//! ```text
//! pidpiper-ledger --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Builds the workload's inputs from the seed, runs its correctness gate,
//! times it with tracing off, and prints every end-to-end metric as
//! `name value unit` plus a `result_digest`. With `--trace 1` it repeats
//! the timed phase with per-layer timing and prints the per-layer metrics
//! instead. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; a JSON report with
//! every number and the traced spans goes to `target/ledger/`.

mod alloc;
mod clock;
mod fleet;
mod grid;
mod metrics;
mod run;
mod stats;
mod train;

#[cfg(test)]
mod tests;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use metrics::MetricSet;
use run::{Outcome, RunConfig};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Defended missions over vehicles × cases × strategies.
    MissionGrid,
    /// Trace library → trained, calibrated deployment, request by request.
    TrainPipeline,
    /// Fleet ticks with every session admitted before tick 0.
    FleetAligned,
    /// Fleet ticks with sessions admitted in five waves.
    FleetStaggered,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::MissionGrid,
        Workload::TrainPipeline,
        Workload::FleetAligned,
        Workload::FleetStaggered,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MissionGrid => "mission_grid",
            Workload::TrainPipeline => "train_pipeline",
            Workload::FleetAligned => "fleet_aligned",
            Workload::FleetStaggered => "fleet_staggered",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Runs the workload at its full size.
    fn run(self, cfg: &RunConfig) -> Result<Outcome, String> {
        match self {
            Workload::MissionGrid => grid::run(cfg, &grid::Size::FULL),
            Workload::TrainPipeline => train::run(cfg, &train::Size::FULL),
            Workload::FleetAligned => fleet::run(cfg, &fleet::Size::FULL, false),
            Workload::FleetStaggered => fleet::run(cfg, &fleet::Size::FULL, true),
        }
    }
}

const USAGE: &str = "usage: pidpiper-ledger --workload <mission_grid|train_pipeline|fleet_aligned|fleet_staggered> --seed <n> [--seconds <s>] [--trace <0|1>]";

/// Seconds per timed phase when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

fn parse_args(args: &[String]) -> Result<(Workload, RunConfig), String> {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut seed = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                cfg.seconds = s;
            }
            "--trace" => {
                cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    cfg.seed = seed.ok_or("--seed is required")?;
    Ok((workload.ok_or("--workload is required")?, cfg))
}

/// A JSON number, or `null` for a value JSON cannot hold.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_metrics(set: &MetricSet) -> String {
    let fields: Vec<String> = set
        .entries()
        .map(|(d, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(d.name),
                json_num(v),
                json_str(d.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The full report written under `target/ledger/`.
fn report_json(w: Workload, cfg: &RunConfig, out: &Outcome) -> String {
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    let problems: Vec<String> = out.problems.iter().map(|p| json_str(p)).collect();
    let spans: Vec<String> = out
        .spans
        .spans()
        .iter()
        .map(|s| {
            format!(
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
         \"workers\": {},\n  \"correct\": {},\n  \"problems\": [{}],\n  \"attempted\": {},\n  \
         \"failed\": {},\n  \"result_digest\": \"{:#018x}\",\n  \"end_to_end\": {},\n  \
         \"per_layer\": {},\n  \"notes\": {{{}}},\n  \"spans\": [\n    {}\n  ]\n}}\n",
        json_str(w.name()),
        cfg.seed,
        json_num(cfg.seconds),
        cfg.trace,
        run::WORKERS,
        out.problems.is_empty(),
        problems.join(", "),
        out.attempted,
        out.failed,
        out.digest,
        json_metrics(&out.e2e),
        out.layers.as_ref().map_or("null".into(), json_metrics),
        notes.join(", "),
        spans.join(",\n    "),
    )
}

fn write_report(w: Workload, cfg: &RunConfig, out: &Outcome) {
    let dir = Path::new("target").join("ledger");
    let file = dir.join(format!(
        "{}-seed{}{}.json",
        w.name(),
        cfg.seed,
        if cfg.trace { "-trace" } else { "" }
    ));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&file, report_json(w, cfg, out)));
    match written {
        Ok(()) => println!("report {}", file.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", file.display()),
    }
}

/// The human-readable lines: `name value unit` for every metric and note,
/// then the digest and the correctness verdicts.
fn lines(out: &Outcome) -> Vec<String> {
    let metrics = out
        .e2e
        .entries()
        .chain(out.layers.iter().flat_map(MetricSet::entries));
    let mut lines: Vec<String> = metrics
        .map(|(d, v)| format!("{} {} {}", d.name, v, d.unit))
        .chain(out.notes.iter().map(|(n, v, u)| format!("{n} {v} {u}")))
        .collect();
    lines.push(format!("result_digest {:#018x}", out.digest));
    lines.push(format!("attempted {} failed {}", out.attempted, out.failed));
    lines.extend(out.problems.iter().map(|p| format!("INCORRECT {p}")));
    lines
}

/// The last line: the machine-readable result of the run.
fn result_line(out: &Outcome) -> String {
    let metrics = out.layers.as_ref().unwrap_or(&out.e2e);
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        json_metrics(metrics)
    )
}

/// Fills the process-level metric and checks that every metric the run
/// reports was measured and is a finite number.
fn finish(out: &mut Outcome) {
    match run::peak_rss_mb() {
        Ok(mb) => out.e2e.set("peak_rss_mb", mb),
        Err(e) => out.problems.push(e),
    }
    let unset = out.e2e.unset();
    if !unset.is_empty() {
        out.problems.push(format!(
            "end-to-end metrics not measured: {}",
            unset.join(", ")
        ));
    }
    let sets = std::iter::once(&out.e2e).chain(out.layers.as_ref());
    let bad: Vec<&str> = sets
        .flat_map(MetricSet::entries)
        .filter(|(_, v)| !v.is_finite())
        .map(|(d, _)| d.name)
        .collect();
    if !bad.is_empty() {
        out.problems
            .push(format!("non-finite metrics: {}", bad.join(", ")));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} workers {}",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        run::WORKERS
    );
    let mut out = match workload.run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("gate failed, nothing timed: {e}");
            return ExitCode::FAILURE;
        }
    };
    finish(&mut out);
    for line in lines(&out) {
        println!("{line}");
    }
    write_report(workload, &cfg, &out);
    println!("{}", result_line(&out));
    if out.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Whole-workload tests at reduced sizes, plus the agreement between the
//! metric catalogue and `BENCHMARK.json`.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::run::{Outcome, RunConfig};
use crate::{fleet, grid, lines, parse_args, train, Workload};

fn grid_size() -> grid::Size {
    grid::Size {
        train_stride: 10,
        train_scale: 0.2,
        stages: [(1, 0.01), (0, 0.0), (0, 0.0)],
        tiny_network: true,
        setups: 2,
        refly: 2,
        replay: grid::CELLS,
        line_m: (8.0, 12.0),
        route_span_m: 10.0,
    }
}

fn train_size() -> train::Size {
    train::Size {
        library_sets: 1,
        scale: 0.2,
        segment_steps: 300,
        group: 2,
        stages: [(1, 0.01), (0, 0.0), (0, 0.0)],
        tiny_network: true,
        setups: 2,
        digest_requests: 2,
    }
}

fn fleet_size() -> fleet::Size {
    fleet::Size {
        sessions: 160,
        shards: 4,
        warmup: 100,
        setups: 2,
        fanout_ticks: 10,
        kernel_ms: 1,
    }
}

fn run_reduced(w: Workload, seed: u64, trace: bool) -> Outcome {
    let cfg = RunConfig {
        seed,
        seconds: 0.0,
        trace,
    };
    let out = match w {
        Workload::MissionGrid => grid::run(&cfg, &grid_size()),
        Workload::TrainPipeline => train::run(&cfg, &train_size()),
        Workload::FleetAligned => fleet::run(&cfg, &fleet_size(), false),
        Workload::FleetStaggered => fleet::run(&cfg, &fleet_size(), true),
    };
    let mut out = out.unwrap_or_else(|e| panic!("{}: gate failed: {e}", w.name()));
    crate::finish(&mut out);
    out
}

/// `(name, unit)` pairs of one metric array of `BENCHMARK.json`, in order.
fn benchmark_metrics(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{key}\""))
        .expect("metric array present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |obj: &str, f: &str| -> String {
        let at = obj.find(&format!("\"{f}\"")).expect("field present");
        let rest = &obj[at + f.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("string closes");
        rest[open..open + close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn catalogue(defs: &[MetricDef]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    assert_eq!(benchmark_metrics("end_to_end"), catalogue(&END_TO_END));
    assert_eq!(benchmark_metrics("per_layer"), catalogue(&PER_LAYER));
}

#[test]
fn generators_are_pure_functions_of_the_seed() {
    let size = grid_size();
    for cell in [0, 7, grid::CELLS - 1] {
        for index in 0..3 {
            let a = format!("{:?}", grid::mission(5, cell, index, &size));
            assert_eq!(a, format!("{:?}", grid::mission(5, cell, index, &size)));
            assert_ne!(a, format!("{:?}", grid::mission(6, cell, index, &size)));
        }
    }
    let lib = |seed| format!("{:?}", train::library_specs(seed, &train_size()));
    assert_eq!(lib(3), lib(3));
    assert_ne!(lib(3), lib(4));
    for id in [0, 1, 16, 4095] {
        assert_eq!(fleet::session(9, id), fleet::session(9, id));
        assert_ne!(fleet::session(9, id).seed, fleet::session(10, id).seed);
    }
}

#[test]
fn arguments_follow_the_command_line_contract() {
    let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    let (w, cfg) = parse_args(&args(
        "--workload fleet_aligned --seed 3 --seconds 7 --trace 1",
    ))
    .expect("valid");
    assert_eq!(w, Workload::FleetAligned);
    assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (3, 7.0, true));
    let (_, cfg) = parse_args(&args("--seed 3 --workload mission_grid --trace 0")).expect("valid");
    assert!(!cfg.trace);
    let (_, cfg) = parse_args(&args("--workload mission_grid --trace --seed 4")).expect("valid");
    assert!(cfg.trace && cfg.seed == 4);
    assert!(parse_args(&args("--workload nope --seed 1")).is_err());
    assert!(parse_args(&args("--workload mission_grid")).is_err());
    assert!(parse_args(&args("--workload mission_grid --seed x")).is_err());
    assert!(parse_args(&args("--workload mission_grid --seed 1 --seconds -1")).is_err());
}

/// A traced reduced run prints every catalogued metric with its unit and
/// passes its own checks; an untraced run of the same seed gives the same
/// digest.
fn check_workload(w: Workload) {
    let traced = run_reduced(w, 11, true);
    assert!(
        traced.problems.is_empty(),
        "{}: {:?}",
        w.name(),
        traced.problems
    );
    let printed = lines(&traced);
    for (name, unit) in benchmark_metrics("end_to_end")
        .into_iter()
        .chain(benchmark_metrics("per_layer"))
    {
        let found = printed.iter().any(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            f.len() == 3 && f[0] == name && f[2] == unit && f[1].parse::<f64>().is_ok()
        });
        assert!(found, "{}: no `{name} <value> {unit}` line", w.name());
    }
    assert!(printed.iter().any(|l| l.starts_with("result_digest 0x")));
    let again = run_reduced(w, 11, false);
    assert!(
        again.problems.is_empty(),
        "{}: {:?}",
        w.name(),
        again.problems
    );
    assert_eq!(traced.digest, again.digest, "{}: digest moved", w.name());
    assert!(again.layers.is_none());
}

#[test]
fn mission_grid_reduced() {
    check_workload(Workload::MissionGrid);
}

#[test]
fn train_pipeline_reduced() {
    check_workload(Workload::TrainPipeline);
}

#[test]
fn fleet_aligned_reduced() {
    check_workload(Workload::FleetAligned);
}

#[test]
fn fleet_staggered_reduced() {
    check_workload(Workload::FleetStaggered);
}

#[test]
fn result_line_carries_the_requested_metric_set() {
    let out = run_reduced(Workload::FleetAligned, 2, false);
    let line = crate::result_line(&out);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": 160, \"failed\": 0, \"metrics\": {")
    );
    for d in END_TO_END {
        assert!(
            line.contains(&format!("\"{}\": {{\"value\": ", d.name)),
            "{line}"
        );
    }
    assert!(!line.contains("trace.op_ns"));
}

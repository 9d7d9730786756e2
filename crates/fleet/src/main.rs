//! `pidpiper-fleet`: the fleet-scale session engine benchmark binary.
//!
//! Reads its configuration from `PIDPIPER_FLEET_*` / `PIDPIPER_JOBS`
//! environment knobs (see `OPERATIONS.md`), runs the determinism gate and
//! the timed fleet run, checks the report, and writes `BENCH_fleet.json`
//! to the workspace root. It exits non-zero if any per-session result
//! differed across worker counts, shard counts or batching modes, or if
//! any other report value is out of range (`FleetBenchReport::check`):
//! bit-identical fleet ticks are a contract, not a nice-to-have.

use pidpiper_fleet::bench;

fn main() {
    let cfg = bench::FleetBenchConfig::from_env();
    eprintln!(
        "pidpiper-fleet: {} sessions x {} ticks, {} shards, {} workers",
        cfg.sessions, cfg.ticks, cfg.shards, cfg.workers
    );
    let report = bench::run(&cfg);
    if let Err(e) = report.check() {
        eprintln!("FAIL: BENCH_fleet.json report check: {e}");
        std::process::exit(1);
    }
    if let Err(e) = bench::write_report(&report) {
        eprintln!("FAIL: writing BENCH_fleet.json: {e}");
        std::process::exit(1);
    }
    println!("fleet determinism gate: OK");
}

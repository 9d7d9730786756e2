//! Runs the Algorithm-1 fingerprint regression gate, then the recovery-
//! strategy tournament, checks the report and writes
//! `BENCH_recovery.json`; see pidpiper_bench::exp_recovery. Set
//! `PIDPIPER_TOURNAMENT_SMOKE=1` for the reduced CI grid (one vehicle,
//! two cases, two missions per cell). A gate failure exits nonzero
//! *before* any tournament flying: a strategy comparison on a diverged
//! Algorithm 1 would be meaningless. A report that fails
//! `TournamentReport::check` exits nonzero too.
use pidpiper_bench::exp_recovery::{self, TournamentReport};

fn main() {
    let scale = pidpiper_bench::Scale::from_env();
    let smoke = std::env::var("PIDPIPER_TOURNAMENT_SMOKE").is_ok();

    let gate = exp_recovery::baseline_gate();
    match &gate {
        Ok(()) => eprintln!(
            "[bench] fingerprint gate: all {} baseline cases bit-identical",
            exp_recovery::BASELINE_FINGERPRINTS.len()
        ),
        Err(report) => {
            eprintln!(
                "[bench] fingerprint gate FAILED — Algorithm-1-on-trait diverged from the \
                 pre-refactor supervisor:\n{report}"
            );
            std::process::exit(1);
        }
    }

    eprintln!(
        "[bench] running recovery_tournament at {scale:?} scale{} \
         (set PIDPIPER_SCALE=full for paper scale)",
        if smoke { " (smoke grid)" } else { "" }
    );
    let (text, cells) = exp_recovery::run_tournament(scale, smoke);
    let report = TournamentReport {
        scale,
        smoke,
        gate_passed: gate.is_ok(),
        cells,
    };
    if let Err(e) = report.check() {
        eprintln!("[bench] BENCH_recovery.json report check failed: {e}");
        std::process::exit(1);
    }
    if let Err(e) = exp_recovery::write_report(&report) {
        eprintln!("[bench] writing BENCH_recovery.json failed: {e}");
        std::process::exit(1);
    }
    println!("{text}");
}

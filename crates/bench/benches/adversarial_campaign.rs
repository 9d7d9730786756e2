//! Runs the adversarial campaign study, checks the report and writes
//! `BENCH_adversarial.json`; see pidpiper_bench::exp_adversarial. Set
//! `PIDPIPER_ADVERSARIAL_SMOKE=1` for the reduced CI grid (one vehicle,
//! 1 generation x 2 children). A worker divergence, a broken stealth gate
//! or any other value `AdversarialReport::check` rejects exits nonzero:
//! an irreproducible adversarial result is worthless as a regression
//! anchor.
use pidpiper_bench::exp_adversarial;

fn main() {
    let scale = pidpiper_bench::Scale::from_env();
    let smoke = std::env::var("PIDPIPER_ADVERSARIAL_SMOKE").is_ok();
    eprintln!(
        "[bench] running adversarial_campaign at {scale:?} scale{} \
         (set PIDPIPER_SCALE=full for paper scale)",
        if smoke { " (smoke grid)" } else { "" }
    );
    let (text, report) = exp_adversarial::run_adversarial(scale, smoke);
    println!("{text}");
    if let Err(e) = report.check() {
        eprintln!("[bench] BENCH_adversarial.json report check failed: {e}");
        std::process::exit(1);
    }
    if let Err(e) = exp_adversarial::write_report(scale, &report) {
        eprintln!("[bench] writing BENCH_adversarial.json failed: {e}");
        std::process::exit(1);
    }
}

//! What every workload shares: its run settings, its outcome, seed
//! derivation and the process-level measurements.

use crate::metrics::{MetricSet, END_TO_END, PER_LAYER};
use crate::stats::{Repetition, SpanLog};

/// Worker threads of every timed phase: one, the main thread itself, so
/// the load is one closed loop and the thread's CPU clock covers all of
/// its work. On the 2-core host this leaves a core to everything else the
/// guest runs. Fixed here, never read from the environment.
pub const WORKERS: usize = 1;

/// Workers of the untimed worker-invariance checks: one per core of the
/// 2-core host.
pub const CHECK_WORKERS: usize = 2;

/// One invocation's settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of each timed phase (s).
    pub seconds: f64,
    /// Whether to add the traced phase and report per-layer metrics.
    pub trace: bool,
}

/// Everything a workload reports.
#[derive(Debug)]
pub struct Outcome {
    /// Correctness checks that failed (empty = correct).
    pub problems: Vec<String>,
    /// Operations attempted (missions, pipelines or session submissions).
    pub attempted: u64,
    /// Operations that failed (quarantined, non-finite, rejected).
    pub failed: u64,
    /// Hash of the workload's deterministic results.
    pub digest: u64,
    /// End-to-end metrics (tracing off); `peak_rss_mb` is set by `main`.
    pub e2e: MetricSet,
    /// Per-layer metrics, present after a traced run.
    pub layers: Option<MetricSet>,
    /// Extra human-readable results: `(name, value, unit)`.
    pub notes: Vec<(String, f64, &'static str)>,
    /// Spans of the traced phase.
    pub spans: SpanLog,
}

impl Outcome {
    /// An outcome with empty metric sets.
    pub fn new(trace: bool) -> Self {
        Outcome {
            problems: Vec::new(),
            attempted: 0,
            failed: 0,
            digest: 0,
            e2e: MetricSet::new(&END_TO_END),
            layers: trace.then(|| MetricSet::new(&PER_LAYER)),
            notes: Vec::new(),
            spans: SpanLog::default(),
        }
    }

    /// Adds a human-readable result line.
    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push((name.to_string(), value, unit));
    }

    /// Sets a per-layer metric (ignored when the run is untraced).
    pub fn layer(&mut self, name: &str, value: f64) {
        if let Some(l) = self.layers.as_mut() {
            l.set(name, value);
        }
    }

    /// Sets `ops_per_s`, `request_ms_p50` and `request_ms_p90` from the
    /// timed phase's fastest pass over its unit of work and returns its
    /// rate; a phase without one is a problem.
    pub fn set_timings(&mut self, fastest: Option<Repetition>) -> f64 {
        let Some(t) = fastest else {
            self.problems
                .push("the timed phase completed no whole unit of work".into());
            return 0.0;
        };
        self.e2e.set("ops_per_s", t.rate);
        self.e2e.set("request_ms_p50", t.p50_ms);
        self.e2e.set("request_ms_p90", t.p90_ms);
        t.rate
    }
}

/// The rate of `fastest`, 0 when there is none.
pub fn rate(fastest: Option<Repetition>) -> f64 {
    fastest.map_or(0.0, |t| t.rate)
}

/// SplitMix64 finaliser over `seed` and `parts`: independent, reproducible
/// sub-seeds for every generated input.
pub fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut z = seed;
    for &p in parts.iter().chain(std::iter::once(&0x5EED)) {
        z = z.wrapping_add(p).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// The FNV-1a `result_digest` over `values`, in order (the mixer
/// `Trace::fingerprint` uses).
pub fn digest(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut f = pidpiper_missions::Fingerprint::new();
    for v in values {
        f.mix_u64(v);
    }
    f.value()
}

/// The process's peak resident set (`VmHWM`), in MiB.
///
/// # Errors
///
/// Fails where `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Percentage `part / whole * 100`, 0 when `whole` is 0.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_separates_parts_and_seeds() {
        assert_eq!(mix(1, &[2, 3]), mix(1, &[2, 3]));
        assert_ne!(mix(1, &[2, 3]), mix(1, &[3, 2]));
        assert_ne!(mix(1, &[2]), mix(2, &[2]));
        assert_ne!(mix(1, &[]), mix(1, &[0]));
    }
}

//! The metric catalogue: every name the ledger prints, with its unit.
//!
//! Every workload prints every metric of the set it is asked for: all
//! end-to-end metrics with tracing off, all per-layer metrics with
//! tracing on. A per-layer metric of a layer the workload never calls
//! reads 0; those metrics are shares, ratios or counts, never durations.

/// One catalogued metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Printed name.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
    m("ops_per_s", "1/s"),
    m("request_ms_p50", "ms"),
    m("request_ms_p90", "ms"),
];

/// Per-layer metrics, measured by the traced run.
pub const PER_LAYER: [MetricDef; 35] = [
    m("trace.overhead_pct", "%"),
    m("trace.op_ns", "ns"),
    m("trace.allocs_per_op", "count"),
    m("sim.share_pct", "%"),
    m("sensors.share_pct", "%"),
    m("control.share_pct", "%"),
    m("missions.share_pct", "%"),
    m("core.share_pct", "%"),
    m("ml.share_pct", "%"),
    m("fleet.share_pct", "%"),
    m("core.sanitizer_pct", "%"),
    m("core.features_pct", "%"),
    m("core.ffc_pct", "%"),
    m("core.monitor_pct", "%"),
    m("core.decide_pct", "%"),
    m("core.budget_pct", "%"),
    m("core.budget_p99_pct", "%"),
    m("core.observe_allocs_per_step", "count"),
    m("missions.pool_busy_pct", "%"),
    m("missions.recovery_step_pct", "%"),
    m("core.dataset_pct", "%"),
    m("core.calibrate_pct", "%"),
    m("ml.normalize_pct", "%"),
    m("ml.train_allocs_per_sample", "count"),
    m("fleet.push_tick_pct", "%"),
    m("fleet.push_time_pct", "%"),
    m("fleet.push_over_plain", "ratio"),
    m("fleet.fanout_pct", "%"),
    m("fleet.admit_setup_pct", "%"),
    m("ml.batch_step_pct", "%"),
    m("ml.batch_finish_pct", "%"),
    m("fleet.allocs_per_tick", "count"),
    m("fleet.bytes_per_session", "B"),
    m("fleet.tripped_pct", "%"),
    m("fleet.in_recovery_pct", "%"),
];

/// Values for one catalogue, in catalogue order.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    /// An empty set over `defs`.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        MetricSet {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue: a misspelt metric is a
    /// bug in the ledger, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not catalogued"));
        self.values[i] = Some(value);
    }

    /// Every metric with its value; unset metrics read 0.
    pub fn entries(&self) -> impl Iterator<Item = (MetricDef, f64)> + '_ {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| (*d, v.unwrap_or(0.0)))
    }

    /// Names that were never set.
    pub fn unset(&self) -> Vec<&'static str> {
        self.defs
            .iter()
            .zip(&self.values)
            .filter(|(_, v)| v.is_none())
            .map(|(d, _)| d.name)
            .collect()
    }
}

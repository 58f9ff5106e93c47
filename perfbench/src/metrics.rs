//! Metric names, units and directions, and the two ways a run prints
//! them: a readable report (every metric, `null` where one does not apply)
//! and the one-line JSON result that closes standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics of an untraced run. Each is a number on every
/// workload: `throughput_per_s` counts node-rounds on the simulating
/// workloads and model-check states on `explore`.
pub const END_TO_END: [MetricDef; 3] = [
    def("throughput_per_s", "1/s", Higher),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MB", Lower),
];

/// End-to-end figures printed in the report only: each is `null` where it
/// does not apply (or, for `fail_ratio`, carried by the result's
/// `attempted`/`failed` fields).
pub const SUMMARY: [MetricDef; 3] = [
    def("node_rounds_per_s", "1/s", Higher),
    def("states_per_s", "1/s", Higher),
    def("fail_ratio", "ratio", Lower),
];

/// Per-layer metrics of a traced run: counts and busy times measured at
/// each layer's public boundary. A layer a workload does not exercise
/// reads 0 calls and 0 ms.
pub const PER_LAYER: [MetricDef; 37] = [
    def("scenarios.parse_ms", "ms", Lower),
    def("scenarios.build_ms", "ms", Lower),
    def("scenarios.drive_ms", "ms", Lower),
    def("digest.fold_ms", "ms", Lower),
    def("grp.compute_ms", "ms", Lower),
    def("grp.compute_calls", "count", Lower),
    def("grp.compute_changed", "count", Lower),
    def("grp.message_ms", "ms", Lower),
    def("grp.message_calls", "count", Lower),
    def("grp.send_ms", "ms", Lower),
    def("grp.send_calls", "count", Lower),
    def("grp.bytes_delivered", "B", Lower),
    def("channel.link_ms", "ms", Lower),
    def("channel.link_calls", "count", Lower),
    def("channel.delivered", "count", Higher),
    def("channel.broadcast_ms", "ms", Lower),
    def("channel.broadcasts", "count", Lower),
    def("mobility.advance_ms", "ms", Lower),
    def("mobility.advance_calls", "count", Lower),
    def("radio.refresh_ms", "ms", Lower),
    def("radio.refresh_calls", "count", Lower),
    def("engine.self_ms", "ms", Lower),
    def("engine.events", "count", Lower),
    def("engine.rounds", "count", Lower),
    def("engine.transport_workers", "count", Lower),
    def("observers.capture_ms", "ms", Lower),
    def("observers.convergence_ms", "ms", Lower),
    def("observers.continuity_ms", "ms", Lower),
    def("observers.resilience_ms", "ms", Lower),
    def("observers.legitimate_rounds", "count", Higher),
    def("faults.injected", "count", Lower),
    def("mem.setup_rss_mb", "MB", Lower),
    def("mem.bytes_per_node", "B", Lower),
    def("mc.states", "count", Lower),
    def("mc.cases", "count", Lower),
    def("mc.explore_ms", "ms", Lower),
    def("trace.overhead_ratio", "ratio", Lower),
];

/// Ratios printed in the traced report only; `null` when the denominator
/// is zero.
pub const RATIOS: [MetricDef; 2] = [
    def("grp.compute_changed_ratio", "ratio", Lower),
    def("channel.delivered_ratio", "ratio", Higher),
];

/// Every metric a run printed, by name; `None` is a metric that does not
/// apply to the workload.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, Option<f64>>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: impl Into<Option<f64>>) {
        self.0.insert(name, value.into());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied().flatten()
    }

    /// One `metric <name> <value> <unit> <better>` line per definition.
    pub fn report(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        for d in defs {
            let value = match self.get(d.name) {
                Some(v) => v.to_string(),
                None => "null".to_string(),
            };
            let _ = writeln!(
                out,
                "metric {:<28} {:>22} {:<6} {}",
                d.name,
                value,
                d.unit,
                d.better.as_str()
            );
        }
        out
    }

    /// The closing result line. Every metric in `defs` must carry a number.
    pub fn result_line(
        &self,
        defs: &[MetricDef],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut metrics = Vec::new();
        for d in defs {
            let value = self
                .get(d.name)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("metric {} has no value", d.name))?;
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, value, d.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        ))
    }
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A `key` field of `/proc/self/status` (`VmHWM`, `VmRSS`) in MiB.
pub fn proc_status_mb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

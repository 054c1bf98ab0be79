//! Metric names, units and the result line.

use cfu_tflm::kernels::conv1x1::Conv1x1Variant;

use crate::traced::step_metric;

/// The end-to-end metrics of every workload; lower is better for all.
pub const END_TO_END: [(&str, &str); 4] =
    [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// The per-layer metrics of the traced run, ladder step times excepted.
const PER_LAYER: [(&str, &str); 43] = [
    ("tflm.model_build.s", "s"),
    ("tflm.deploy.s", "s"),
    ("tflm.deploy.allocs", "count"),
    ("sim.timed_core.run_s", "s"),
    ("sim.timed_core.run_allocs", "count"),
    ("sim.timed_core.host_ns_per_guest_cycle", "ns"),
    ("sim.timed_core.guest_cycles", "count"),
    ("sim.timed_core.guest_instructions", "count"),
    ("sim.timed_core.guest_cycles.conv1x1", "count"),
    ("sim.timed_core.guest_cycles.conv", "count"),
    ("sim.timed_core.guest_cycles.dwconv", "count"),
    ("sim.timed_core.guest_cycles.rest", "count"),
    ("mem.icache.accesses", "count"),
    ("mem.icache.misses", "count"),
    ("mem.dcache.accesses", "count"),
    ("mem.dcache.misses", "count"),
    ("sim.bpred.mispredicts", "count"),
    ("sim.retime.capture_s", "s"),
    ("sim.retime.captures", "count"),
    ("sim.retime.replay_s", "s"),
    ("sim.retime.replays", "count"),
    ("sim.retime.replay_ns_per_guest_cycle", "ns"),
    ("sim.retime.allocs_per_replay", "count"),
    ("sim.retime.trace_words", "count"),
    ("dse.eval.factory_s", "s"),
    ("dse.eval.s", "s"),
    ("dse.eval.points", "count"),
    ("dse.eval.memo_hits", "count"),
    ("dse.engine.residual_s", "s"),
    ("dse.store.open_s", "s"),
    ("dse.store.records", "count"),
    ("dse.store.file_bytes", "bytes"),
    ("dse.store.put_flush_s", "s"),
    ("dse.store.allocs_per_put", "count"),
    ("sim.cpu.run_s", "s"),
    ("sim.cpu.run_allocs", "count"),
    ("sim.cpu.host_ns_per_guest_instruction", "ns"),
    ("sim.cpu.guest_instructions", "count"),
    ("sim.cpu.guest_cycles", "count"),
    ("sim.cpu.icache_misses", "count"),
    ("sim.cpu.dcache_misses", "count"),
    ("sim.cpu.mispredicts", "count"),
    ("proc.threads_max", "count"),
];

/// Every per-layer metric with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(name, unit)| (name.to_owned(), unit)).collect();
    out.extend(Conv1x1Variant::LADDER.into_iter().map(|v| (step_metric(v), "s")));
    out
}

/// A metric name: a letter or digit first, then at most 63 more letters,
/// digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result object, on one line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(valid_name(name), "metric name {name:?}");
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_metric_names() {
        for good in ["wall_s", "sim.timed_core.step_s.CfuMac4", "a-b", "9lives", &"x".repeat(64)] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", "wall_s\"", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        assert!(names.iter().all(|n| valid_name(n)));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "a metric name is used twice");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let mut listed: Vec<String> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next().map(str::to_owned))
            .filter(|n| crate::workloads::Workload::parse(n).is_none())
            .collect();
        let mut ours: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        ours.extend(per_layer().into_iter().map(|(n, _)| n));
        listed.sort();
        ours.sort();
        assert_eq!(listed, ours);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(true, 3, 0, &[("wall_s".to_owned(), 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}

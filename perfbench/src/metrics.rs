//! The metrics the benchmark prints, declared once, and the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; a test below keeps the two in step, and [`result_line`] refuses
//! to print a set of metrics that differs from the declared one.

/// The workloads, one per process.
pub const WORKLOADS: [&str; 4] = [
    "figure4-paper",
    "tracefile-replay",
    "membound-chase",
    "serve-closed",
];

/// Printed with `--trace 0`, on every workload: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_minsts_per_s", "Minst/s"),
    ("peak_rss_mb", "MB"),
    ("job_latency_ms_p50", "ms"),
    ("job_latency_ms_p90", "ms"),
];

/// Printed with `--trace 1`, on every workload: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("workloads.trace_ns_per_record", "ns"),
    ("isa.encode_ns_per_record", "ns"),
    ("isa.bytes_per_record", "B"),
    ("isa.decode_ns_per_record", "ns"),
    ("isa.tee_ring_high_water", "records"),
    ("isa.tee_peak_lag", "records"),
    ("core.oracle.ns_per_record", "ns"),
    ("core.pipeline.ns_per_inst", "ns"),
    ("core.pipeline.ns_per_cycle", "ns"),
    ("core.pipeline.cycles_per_inst", "cycles"),
    ("core.pipeline.wheel_ops_per_inst", "count"),
    ("core.pipeline.near_ops_per_inst", "count"),
    ("core.pipeline.broadcasts_per_inst", "count"),
    ("core.pipeline.ready_touches_per_inst", "count"),
    ("core.pipeline.commit_ratio", "ratio"),
    ("core.pipeline.replays_per_kinst", "count"),
    ("core.pipeline.flushes_per_kinst", "count"),
    ("mem.l1_misses_per_kinst", "count"),
    ("mem.l2_misses_per_kinst", "count"),
    ("mem.tlb_misses_per_kinst", "count"),
    ("queues.mis_forwards_per_kinst", "count"),
    ("queues.re_executions_per_kinst", "count"),
    ("queues.reexec_port_stalls_per_kinst", "count"),
    ("predictors.loads_delayed_per_kinst", "count"),
    ("predictors.branch_mispredicts_per_kinst", "count"),
    ("sqip.sweep.upstream_passes", "count"),
    ("sqip.results.csv_ns_per_row", "ns"),
    ("sqip.results.json_us_per_row", "us"),
    ("sqip.spec.validate_us", "us"),
    ("service.admit_ms_p50", "ms"),
    ("service.run_ms_p50", "ms"),
    ("service.transport_ms_p50", "ms"),
    ("workloads.self_ms_per_job", "ms"),
    ("isa.self_ms_per_job", "ms"),
    ("core.self_ms_per_job", "ms"),
    ("sqip.self_ms_per_job", "ms"),
    ("service.self_ms_per_job", "ms"),
    ("trace.sweep_mismatch", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.jobs", "count"),
    ("host.calib_ns_per_iter", "ns"),
];

/// Renders the result line: every metric of `declared`, in that order,
/// and no other.
///
/// # Errors
///
/// Names a metric that is missing, undeclared, or not a finite number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[(&str, &str)],
    values: &[(&str, f64)],
) -> Result<String, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !declared.iter().any(|(d, _)| d == n))
    {
        return Err(format!("metric `{name}` is not declared"));
    }
    let mut fields = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let mut found = values.iter().filter(|(n, _)| n == name);
        let (Some((_, value)), None) = (found.next(), found.next()) else {
            return Err(format!("metric `{name}` must be printed exactly once"));
        };
        if !value.is_finite() {
            return Err(format!("metric `{name}` is {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no `{key}` list");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("`{key}` entry without a name and unit"),
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_exactly_the_declared_ones() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
        let Some(Value::Array(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json has no workloads");
        };
        let names: Vec<&Value> = workloads.iter().filter_map(|w| w.get("name")).collect();
        let expected: Vec<Value> = WORKLOADS.iter().map(|w| Value::Str((*w).into())).collect();
        assert_eq!(names, expected.iter().collect::<Vec<_>>());
    }

    #[test]
    fn result_line_refuses_missing_extra_or_repeated_metrics() {
        let declared = [("a", "s"), ("b", "ms")];
        let line = result_line(true, 3, 0, &declared, &[("b", 2.5), ("a", 1.0)]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.0, \"unit\": \"s\"}, \"b\": {\"value\": 2.5, \"unit\": \"ms\"}}}"
        );
        assert!(result_line(true, 1, 0, &declared, &[("a", 1.0)]).is_err());
        assert!(result_line(true, 1, 0, &declared, &[("a", 1.0), ("b", 1.0), ("c", 1.0)]).is_err());
        assert!(result_line(true, 1, 0, &declared, &[("a", 1.0), ("a", 1.0), ("b", 1.0)]).is_err());
        assert!(result_line(true, 1, 0, &declared, &[("a", f64::NAN), ("b", 1.0)]).is_err());
    }
}
